//! # replimid-sql
//!
//! A from-scratch, in-memory SQL engine built as the *substrate* for the
//! replication-middleware reproduction of Cecchet, Candea & Ailamaki,
//! “Middleware-based database replication: the gaps between theory and
//! practice” (SIGMOD 2008).
//!
//! It deliberately implements the awkward corners the paper blames for the
//! theory/practice gap:
//!
//! * multiple database instances per engine, cross-database queries and
//!   triggers (§4.1.1);
//! * three isolation levels with engine-specific error handling — abort-on-
//!   error (PostgreSQL) vs. continue (MySQL) (§4.1.2);
//! * connection-local temporary tables (§4.1.4);
//! * users/grants that live *outside* the data and are lost by default
//!   dumps (§4.1.5);
//! * opaque stored procedures and triggers (§4.2.1);
//! * non-transactional sequences and AUTO_INCREMENT counters that writeset
//!   replication silently misses (§4.2.3, §4.3.2);
//! * `NOW()`/`RAND()`/under-ordered-`LIMIT` non-determinism plus the query
//!   rewriting that statement replication needs (§4.3.2);
//! * a binlog carrying both statement text and extracted writesets, dump/
//!   restore with optional principals, and state checksums for divergence
//!   detection.
//!
//! ## Quick start
//!
//! ```
//! use replimid_sql::{Engine, Value};
//!
//! let (mut engine, conn) = Engine::with_database("shop");
//! engine.execute(conn, "CREATE TABLE items (id INT PRIMARY KEY, name TEXT)").unwrap();
//! engine.execute(conn, "INSERT INTO items VALUES (1, 'book')").unwrap();
//! let result = engine.execute(conn, "SELECT name FROM items WHERE id = 1").unwrap();
//! let rows = result.outcome.rows().unwrap();
//! assert_eq!(rows.rows[0][0], Value::Text("book".into()));
//! ```

pub mod ast;
pub mod auth;
pub mod binlog;
pub mod catalog;
pub mod checksum;
pub mod det;
pub mod dump;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod keycode;
pub mod lexer;
pub mod mvcc;
pub mod nondeterminism;
pub mod parser;
pub mod plan;
pub mod positions;
mod render;
pub mod result;
pub mod sequence;
pub mod storage;
pub mod value;
pub mod wal;
pub mod writeset;

pub use ast::{IsolationLevel, Privilege, Statement};
pub use auth::{ADMIN_PASSWORD, ADMIN_USER};
pub use binlog::{BinlogEntry, BinlogPayload, Lsn};
pub use catalog::TableName;
pub use dump::{Dump, DumpOptions};
pub use engine::{ConnId, Engine, EngineConfig, ErrorMode, FeatureSet};
pub use error::SqlError;
pub use mvcc::CommitTs;
pub use nondeterminism::{analyze, rewrite_scalar_rand, rewrite_time_macros, TaintReport};
pub use parser::{parse_statement, parse_statements};
pub use plan::{bind, normalize, CachedPlan, NormalForm, PlanCache};
pub use positions::{Mark, Marks, Positions, Watermark};
pub use result::{Cost, ExecResult, Outcome, ResultSet};
pub use value::{DataType, Value};
pub use wal::{
    Checkpoint, CrashKind, DurabilityConfig, IoCounters, RecoveryReport, WalStats,
};
pub use writeset::{Writeset, WsKey};
