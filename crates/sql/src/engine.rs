//! The database engine: sessions, transaction lifecycle, DDL, privileges,
//! binlog, writeset capture, dump/restore, and writeset application.
//!
//! One `Engine` models one replica's RDBMS process, hosting multiple
//! database instances (§4.1.1). It is deliberately configurable to imitate
//! the behavioural differences the paper catalogues: error handling modes
//! (§4.1.2), missing snapshot isolation (§4.1.2), temp-table restrictions
//! (§4.1.4), and version-gated features (§4.1.3).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::ast::{IsolationLevel, ObjectName, Privilege, Statement};
use crate::auth::{AuthRegistry, ADMIN_USER};
use crate::binlog::{Binlog, BinlogEntry, Lsn};
use crate::catalog::{Catalog, ProcedureDef, TableName, TriggerDef};
use crate::checksum::Fnv64;
use crate::det::Determinism;
use crate::dump::{DatabaseDump, Dump, DumpOptions, TableDump};
use crate::error::SqlError;
use crate::exec::{self, StmtCtx};
use crate::mvcc::{CommitTs, RowId, Snapshot, TxId, TxManager, TxState, WriteKind, WriteRecord};
use crate::parser::parse_statement;
use crate::positions::{Mark, Positions};
use crate::result::{CommitInfo, Cost, ExecResult, Outcome};
use crate::sequence::Sequences;
use crate::storage::{ConflictOrError, Table, TableSchema};
use crate::value::Value;
use crate::wal::WalMaintain;
use crate::writeset::{CounterSync, Writeset};

/// How the engine reacts to a failed statement inside an explicit
/// transaction (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMode {
    /// PostgreSQL: the transaction is poisoned; only ROLLBACK (or COMMIT,
    /// which rolls back) is accepted afterwards.
    AbortTransaction,
    /// MySQL: the transaction continues; the client decides.
    ContinueTransaction,
}

/// Feature switches modelling cross-engine differences (§4.1.2–§4.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet {
    /// Sybase and (per the paper) MySQL lack snapshot isolation.
    pub snapshot_isolation: bool,
    /// Sybase does not authorize temporary tables within transactions.
    pub temp_tables_in_tx: bool,
}

impl Default for FeatureSet {
    fn default() -> Self {
        FeatureSet { snapshot_isolation: true, temp_tables_in_tx: true }
    }
}

/// The isolation level of a BEGIN that names none, and of an implicit
/// (autocommit) transaction.
const DEFAULT_ISOLATION: IsolationLevel = IsolationLevel::ReadCommitted;

/// Engine configuration. The default models a PostgreSQL-flavoured engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Replica name, for diagnostics.
    pub name: String,
    /// Seed for RAND(); give each replica a different one.
    pub seed: u64,
    pub error_mode: ErrorMode,
    /// Ship sequence/auto-increment counters inside writesets (the paper's
    /// industrial-agenda fix; off by default to reproduce the gap).
    pub capture_counters: bool,
    /// Honor [`CounterSync`] when applying writesets.
    pub apply_counter_sync: bool,
    pub features: FeatureSet,
    /// Durable storage ([`crate::wal`]): committed transactions mirror into
    /// an on-"disk" WAL, periodic checkpoints truncate it, and crash
    /// recovery replays the suffix. `None` (the default) keeps the
    /// pre-durability behavior where state survives crashes by fiat.
    pub durability: Option<crate::wal::DurabilityConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            name: "replica".into(),
            seed: 0,
            error_mode: ErrorMode::AbortTransaction,
            capture_counters: false,
            apply_counter_sync: false,
            features: FeatureSet::default(),
            durability: None,
        }
    }
}

impl EngineConfig {
    /// MySQL-flavoured: continues after errors, no snapshot isolation.
    pub fn mysqlish(name: impl Into<String>, seed: u64) -> Self {
        EngineConfig {
            name: name.into(),
            seed,
            error_mode: ErrorMode::ContinueTransaction,
            features: FeatureSet { snapshot_isolation: false, temp_tables_in_tx: true },
            ..Default::default()
        }
    }

    /// Sybase-flavoured: no SI, no temp tables inside transactions.
    pub fn sybasish(name: impl Into<String>, seed: u64) -> Self {
        EngineConfig {
            name: name.into(),
            seed,
            features: FeatureSet { snapshot_isolation: false, temp_tables_in_tx: false },
            ..Default::default()
        }
    }
}

/// Connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// One connection. What every connection has is a few words: shared
/// handles on its user's and current database's names (clones of the
/// ones [`AuthRegistry`] and [`Catalog`] hold) and its open transaction.
/// The rest, [`SessionCold`], is boxed on first use.
#[derive(Debug, Clone)]
struct Session {
    user: Arc<str>,
    current_db: Option<Arc<str>>,
    tx: Option<TxId>,
    /// True when the open transaction was started with BEGIN.
    explicit: bool,
    cold: Option<Box<SessionCold>>,
}

/// The state of a connection that ran SET, created a temporary table or
/// opened an explicit transaction; kept until it disconnects.
#[derive(Debug, Clone, Default)]
struct SessionCold {
    vars: BTreeMap<String, Value>,
    /// Connection-local temporary tables (§4.1.4).
    temp: BTreeMap<String, Table>,
    /// SQL texts of write statements in the open explicit transaction
    /// (binlog).
    tx_statements: Vec<String>,
}

impl Session {
    fn cold(&mut self) -> &mut SessionCold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// `USE name`: the database must exist and the user may read it.
    fn use_database(&mut self, catalog: &Catalog, auth: &AuthRegistry, name: &str) -> Result<(), SqlError> {
        let db = catalog.database(name)?;
        auth.check(&self.user, name, Privilege::Read)?;
        self.current_db = Some(db.name.clone());
        Ok(())
    }

    /// Forget the open transaction's statement texts.
    fn clear_tx_statements(&mut self) {
        if let Some(c) = &mut self.cold {
            c.tx_statements.clear();
        }
    }
}

/// The temporary tables of a connection whose cold state is `cold`, or
/// `none` (an empty map) when it never made one.
fn temp_of<'a>(
    cold: &'a mut Option<Box<SessionCold>>,
    none: &'a mut BTreeMap<String, Table>,
) -> &'a mut BTreeMap<String, Table> {
    match cold {
        Some(c) => &mut c.temp,
        None => none,
    }
}

fn no_such_conn(conn: ConnId) -> SqlError {
    SqlError::AccessDenied(format!("no such connection {conn:?}"))
}

/// One replica's database engine.
#[derive(Debug, Clone)]
pub struct Engine {
    pub config: EngineConfig,
    catalog: Catalog,
    seqs: Sequences,
    txm: TxManager,
    auth: AuthRegistry,
    det: Determinism,
    binlog: Binlog,
    /// Who still reads the binlog (see [`Engine::set_binlog_horizon`]);
    /// `Some(0)`, keep everything, until told. Volatile: a crash forgets it.
    binlog_horizon: Option<Lsn>,
    sessions: HashMap<ConnId, Session>,
    next_conn: u64,
    durable: Option<crate::wal::DurableStore>,
    /// The positions of the middleware's ordered streams this replica
    /// applied ([`crate::positions`]). Durable metadata, like the binlog.
    ordered: Positions,
    /// Positions applied since the last WAL round, each with the binlog
    /// head when it was (durability only).
    unlogged: Vec<(u64, Mark)>,
    /// Crash recovery is replaying the WAL: commits append nothing to the
    /// binlog, which gets each replayed entry back verbatim instead.
    replaying: bool,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        let det = Determinism::new(config.seed);
        let durable = config.durability.map(crate::wal::DurableStore::new);
        Engine {
            config,
            catalog: Catalog::new(),
            seqs: Sequences::new(),
            txm: TxManager::new(),
            auth: AuthRegistry::new(),
            det,
            binlog: Binlog::new(),
            binlog_horizon: Some(Lsn(0)),
            sessions: HashMap::new(),
            next_conn: 1,
            durable,
            ordered: Positions::default(),
            unlogged: Vec::new(),
            replaying: false,
        }
    }

    /// This engine as a replica built from the same SQL would be: a copy
    /// named `name` whose RAND() draws from `seed`, its binlog sharing
    /// every entry with this one's. A backend's name appears only in error
    /// messages and its seed only seeds RAND(), so the copy equals an
    /// engine built under that name and seed, provided nothing has drawn
    /// from RAND() yet (what was drawn would have differed per seed).
    pub fn copy_as(&self, name: impl Into<String>, seed: u64) -> Engine {
        debug_assert!(
            self.det.rng_unused(self.config.seed),
            "engine '{}' drew from RAND(): a copy is not what another seed would have built",
            self.config.name
        );
        let mut copy = self.clone();
        copy.config.name = name.into();
        copy.config.seed = seed;
        copy.det = Determinism::new(seed);
        copy.det.set_now(self.det.now());
        copy
    }

    /// Convenience: a default engine with an admin connection and one
    /// database selected.
    pub fn with_database(name: &str) -> (Engine, ConnId) {
        let mut e = Engine::new(EngineConfig::default());
        let conn = e.connect(ADMIN_USER, crate::auth::ADMIN_PASSWORD).expect("admin login");
        e.execute(conn, &format!("CREATE DATABASE {name}")).expect("create db");
        e.execute(conn, &format!("USE {name}")).expect("use db");
        (e, conn)
    }

    /// Set the engine's virtual wall clock (driven by the simulator).
    pub fn set_clock(&mut self, now_us: i64) {
        self.det.set_now(now_us);
    }

    pub fn connect(&mut self, user: &str, password: &str) -> Result<ConnId, SqlError> {
        let user = self.auth.authenticate(user, password)?;
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.sessions.insert(id, Session { user, current_db: None, tx: None, explicit: false, cold: None });
        Ok(id)
    }

    /// Make `db` the current database of `conn`, as `USE db` does.
    pub fn use_database(&mut self, conn: ConnId, db: &str) -> Result<(), SqlError> {
        let session = self.sessions.get_mut(&conn).ok_or_else(|| no_such_conn(conn))?;
        session.use_database(&self.catalog, &self.auth, db)
    }

    /// Close a connection: abort any open transaction and drop its
    /// temporary tables (the implicit cleanup §4.1.4 describes).
    pub fn disconnect(&mut self, conn: ConnId) {
        if let Some(mut session) = self.sessions.remove(&conn) {
            if let Some(tx) = session.tx.take() {
                let _ = abort_tx(&mut self.catalog, temp_of(&mut session.cold, &mut BTreeMap::new()), &mut self.txm, tx);
            }
        }
    }

    pub fn active_transactions(&self) -> usize {
        self.txm.active_count()
    }

    /// Parse and execute one statement on a connection.
    pub fn execute(&mut self, conn: ConnId, sql: &str) -> Result<ExecResult, SqlError> {
        let stmt = parse_statement(sql)?;
        self.execute_parsed(conn, &stmt, Some(sql))
    }

    /// Execute an already-parsed statement (the middleware "wire format").
    pub fn execute_ast(&mut self, conn: ConnId, stmt: &Statement) -> Result<ExecResult, SqlError> {
        self.execute_parsed(conn, stmt, None)
    }

    /// Execute a pre-parsed plan shipped by the middleware's plan cache. The
    /// backend never sees SQL text, so the lex+parse share of the fixed
    /// per-statement cost is not charged.
    pub fn execute_prepared(
        &mut self,
        conn: ConnId,
        stmt: &Statement,
    ) -> Result<ExecResult, SqlError> {
        let mut res = self.execute_parsed(conn, stmt, None)?;
        res.cost.cpu_us = res.cost.cpu_us.saturating_sub(crate::result::cost_model::PARSE_US);
        Ok(res)
    }

    fn execute_parsed(
        &mut self,
        conn: ConnId,
        stmt: &Statement,
        sql_text: Option<&str>,
    ) -> Result<ExecResult, SqlError> {
        // The map is lent out for the statement, so the session is used
        // where it lies: nothing `dispatch` reaches touches `sessions`.
        let mut sessions = std::mem::take(&mut self.sessions);
        let result = match sessions.get_mut(&conn) {
            Some(session) => self.dispatch(session, stmt, sql_text),
            None => Err(no_such_conn(conn)),
        };
        self.sessions = sessions;
        result
    }

    fn dispatch(
        &mut self,
        session: &mut Session,
        stmt: &Statement,
        sql_text: Option<&str>,
    ) -> Result<ExecResult, SqlError> {
        // Poisoned-transaction protocol (PostgreSQL mode, §4.1.2). A wounded
        // transaction answers the same way, but with a retryable conflict,
        // and its COMMIT fails instead of pretending.
        if let Some(tx) = session.tx {
            let (poisoned, wounded) =
                self.txm.state(tx).map_or((false, false), |s| (s.poisoned, s.wounded));
            if poisoned || wounded {
                if !matches!(stmt, Statement::Rollback | Statement::Commit) {
                    return Err(if wounded {
                        wound_conflict()
                    } else {
                        SqlError::TransactionState("transaction is aborted; issue ROLLBACK first".into())
                    });
                }
                abort_tx(&mut self.catalog, temp_of(&mut session.cold, &mut BTreeMap::new()), &mut self.txm, tx)?;
                session.tx = None;
                session.explicit = false;
                session.clear_tx_statements();
                if wounded && matches!(stmt, Statement::Commit) {
                    return Err(wound_conflict());
                }
                return Ok(ack(Cost::for_statement(0, 0, false)));
            }
        }

        match stmt {
            Statement::Begin { isolation } => self.do_begin(session, *isolation),
            Statement::Commit => self.do_commit(session),
            Statement::Rollback => self.do_rollback(session),
            Statement::UseDatabase { name } => {
                session.use_database(&self.catalog, &self.auth, name)?;
                Ok(ack(Cost::for_statement(0, 0, false)))
            }
            Statement::CreateDatabase { .. }
            | Statement::DropDatabase { .. }
            | Statement::CreateSequence { .. }
            | Statement::DropSequence { .. }
            | Statement::CreateUser { .. }
            | Statement::DropUser { .. }
            | Statement::Grant { .. }
            | Statement::CreateTrigger { .. }
            | Statement::DropTrigger { .. }
            | Statement::CreateProcedure { .. }
            | Statement::DropProcedure { .. }
            | Statement::DropTable { .. }
            | Statement::CreateTable { .. } => self.do_ddl(session, stmt, sql_text),
            _ => self.do_dml(session, stmt, sql_text),
        }
    }

    fn do_begin(
        &mut self,
        session: &mut Session,
        isolation: Option<IsolationLevel>,
    ) -> Result<ExecResult, SqlError> {
        if session.tx.is_some() && session.explicit {
            return Err(SqlError::TransactionState("transaction already open".into()));
        }
        let isolation = isolation.unwrap_or(DEFAULT_ISOLATION);
        if matches!(isolation, IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable)
            && !self.config.features.snapshot_isolation
        {
            return Err(SqlError::Unsupported(format!(
                "engine '{}' does not provide {isolation}",
                self.config.name
            )));
        }
        let tx = self.txm.begin(isolation, false);
        session.tx = Some(tx);
        session.explicit = true;
        session.cold().tx_statements.clear();
        Ok(ack(Cost::for_statement(0, 0, false)))
    }

    fn do_commit(&mut self, session: &mut Session) -> Result<ExecResult, SqlError> {
        let Some(tx) = session.tx.take() else {
            // Committing with no transaction open is a no-op warning in most
            // engines.
            return Ok(ack(Cost::for_statement(0, 0, false)));
        };
        session.explicit = false;
        let mut no_temp = BTreeMap::new();
        let statements = session.cold.as_mut().map(|c| std::mem::take(&mut c.tx_statements)).unwrap_or_default();
        let commit = commit_tx(
            &mut self.catalog,
            temp_of(&mut session.cold, &mut no_temp),
            &mut self.txm,
            &mut self.seqs,
            (!self.replaying).then_some(&mut self.binlog),
            &self.config,
            tx,
            session.current_db.as_ref(),
            statements,
        )?;
        let mut cost = Cost::for_statement(0, 0, false);
        cost.cpu_us += crate::result::cost_model::COMMIT_US;
        Ok(ExecResult { outcome: Outcome::Ack, cost, commit: Some(commit) })
    }

    fn do_rollback(&mut self, session: &mut Session) -> Result<ExecResult, SqlError> {
        if let Some(tx) = session.tx.take() {
            abort_tx(&mut self.catalog, temp_of(&mut session.cold, &mut BTreeMap::new()), &mut self.txm, tx)?;
        }
        session.explicit = false;
        session.clear_tx_statements();
        Ok(ack(Cost::for_statement(0, 0, false)))
    }

    /// DDL executes immediately and is **not transactional**: it commits on
    /// its own and is not undone by ROLLBACK (§4.3.2). It is still recorded
    /// in the binlog for replication.
    fn do_ddl(
        &mut self,
        session: &mut Session,
        stmt: &Statement,
        sql_text: Option<&str>,
    ) -> Result<ExecResult, SqlError> {
        let current = session.current_db.clone();
        let resolve_db = |name: &ObjectName| -> Result<String, SqlError> {
            match &name.database {
                Some(d) => Ok(d.clone()),
                None => current
                    .as_deref()
                    .map(str::to_string)
                    .ok_or_else(|| SqlError::UnknownDatabase("(none selected)".into())),
            }
        };
        let mut replicate = true;
        match stmt {
            Statement::CreateDatabase { name, if_not_exists } => {
                self.require_admin(session)?;
                self.catalog.create_database(name, *if_not_exists)?;
            }
            Statement::DropDatabase { name } => {
                self.require_admin(session)?;
                self.catalog.drop_database(name)?;
                self.seqs.drop_database(name);
            }
            Statement::CreateTable { name, columns, temporary, if_not_exists } => {
                if *temporary {
                    // Temp tables are session-local DDL: never replicated.
                    replicate = false;
                    if session.tx.is_some() && !self.config.features.temp_tables_in_tx {
                        return Err(SqlError::Unsupported(format!(
                            "engine '{}' does not authorize temporary tables within transactions",
                            self.config.name
                        )));
                    }
                    let temp = &mut session.cold().temp;
                    if temp.contains_key(&name.name) {
                        if *if_not_exists {
                            return Ok(ack(Cost::for_statement(0, 0, true)));
                        }
                        return Err(SqlError::AlreadyExists(name.name.clone()));
                    }
                    let schema = TableSchema::new(TableName::temp(&name.name), columns.clone());
                    temp.insert(name.name.clone(), Table::new(schema));
                } else {
                    let db = resolve_db(name)?;
                    self.auth.check(&session.user, &db, Privilege::Write)?;
                    let database = self.catalog.database_mut(&db)?;
                    if database.tables.contains_key(&name.name) {
                        if *if_not_exists {
                            return Ok(ack(Cost::for_statement(0, 0, true)));
                        }
                        return Err(SqlError::AlreadyExists(name.to_string()));
                    }
                    database.add_table(&name.name, columns.clone());
                }
            }
            Statement::DropTable { name, if_exists } => {
                let dropped_temp = name.database.is_none()
                    && session.cold.as_mut().is_some_and(|c| c.temp.remove(&name.name).is_some());
                if dropped_temp {
                    replicate = false;
                } else {
                    let db = resolve_db(name)?;
                    self.auth.check(&session.user, &db, Privilege::Write)?;
                    let database = self.catalog.database_mut(&db)?;
                    if database.tables.remove(&name.name).is_none() && !*if_exists {
                        return Err(SqlError::UnknownTable(name.to_string()));
                    }
                }
            }
            Statement::CreateSequence { name, start, if_not_exists } => {
                let db = resolve_db(name)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                self.catalog.database(&db)?;
                self.seqs.create(&db, &name.name, *start, *if_not_exists)?;
            }
            Statement::DropSequence { name } => {
                let db = resolve_db(name)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                self.seqs.drop(&db, &name.name)?;
            }
            Statement::CreateUser { name, password } => {
                self.require_admin(session)?;
                self.auth.create_user(name, password)?;
            }
            Statement::DropUser { name } => {
                self.require_admin(session)?;
                self.auth.drop_user(name)?;
            }
            Statement::Grant { privilege, database, user } => {
                self.require_admin(session)?;
                self.catalog.database(database)?;
                self.auth.grant(user, database, *privilege)?;
            }
            Statement::CreateTrigger { name, event, table, body } => {
                let db = resolve_db(table)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                let database = self.catalog.database_mut(&db)?;
                database.table(&table.name)?;
                if database.triggers.iter().any(|t| t.name == *name) {
                    return Err(SqlError::AlreadyExists(format!("trigger {name}")));
                }
                database.triggers.push(TriggerDef {
                    name: name.clone(),
                    event: *event,
                    table: table.name.clone(),
                    body: body.clone(),
                });
            }
            Statement::DropTrigger { name, table } => {
                let db = resolve_db(table)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                let database = self.catalog.database_mut(&db)?;
                let before = database.triggers.len();
                database.triggers.retain(|t| t.name != *name);
                if database.triggers.len() == before {
                    return Err(SqlError::UnknownTable(format!("trigger {name}")));
                }
            }
            Statement::CreateProcedure { name, params, body } => {
                let db = resolve_db(name)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                let database = self.catalog.database_mut(&db)?;
                if database.procedures.contains_key(&name.name) {
                    return Err(SqlError::AlreadyExists(name.to_string()));
                }
                database.procedures.insert(
                    name.name.clone(),
                    ProcedureDef {
                        name: name.name.clone(),
                        params: params.clone(),
                        body: body.clone(),
                    },
                );
            }
            Statement::DropProcedure { name } => {
                let db = resolve_db(name)?;
                self.auth.check(&session.user, &db, Privilege::Write)?;
                let database = self.catalog.database_mut(&db)?;
                database
                    .procedures
                    .remove(&name.name)
                    .ok_or_else(|| SqlError::UnknownProcedure(name.to_string()))?;
            }
            other => return Err(SqlError::Internal(format!("not DDL: {other}"))),
        }
        // DDL auto-commits: record it in the binlog as a statement-only
        // entry so log-shipping slaves replay it.
        if replicate && !self.replaying {
            let text = sql_text.map(str::to_string).unwrap_or_else(|| stmt.to_string());
            let ts = self.bump_ddl_ts();
            self.binlog.append(ts, session.current_db.as_ref(), vec![text], &Writeset::default());
        }
        Ok(ack(Cost::for_statement(0, 0, true)))
    }

    /// Allocate a commit timestamp for a DDL operation (so later snapshots
    /// order after it).
    fn bump_ddl_ts(&mut self) -> CommitTs {
        let tx = self.txm.begin(IsolationLevel::ReadCommitted, true);
        let (ts, _) = self.txm.finish_commit(tx).expect("fresh tx");
        ts
    }

    fn require_admin(&self, session: &Session) -> Result<(), SqlError> {
        if &*session.user == ADMIN_USER {
            Ok(())
        } else {
            Err(SqlError::AccessDenied(format!(
                "user {} is not the administrator",
                session.user
            )))
        }
    }

    /// DML / SELECT / CALL / SET: runs inside a transaction (implicit when
    /// none is open).
    fn do_dml(
        &mut self,
        session: &mut Session,
        stmt: &Statement,
        sql_text: Option<&str>,
    ) -> Result<ExecResult, SqlError> {
        self.check_privileges(session, stmt)?;

        let (tx, implicit) = match session.tx {
            Some(tx) => (tx, false),
            None => {
                let tx = self.txm.begin(DEFAULT_ISOLATION, true);
                session.tx = Some(tx);
                (tx, true)
            }
        };

        let mut no_temp = BTreeMap::new();
        let mut ctx = StmtCtx {
            catalog: &mut self.catalog,
            vars: session.cold.as_ref().map(|c| c.vars.clone()).unwrap_or_default(),
            temp: temp_of(&mut session.cold, &mut no_temp),
            seqs: &mut self.seqs,
            det: &mut self.det,
            txm: &mut self.txm,
            tx,
            current_db: session.current_db.as_deref(),
            depth: 0,
            rows_read: 0,
            rows_written: 0,
        };
        let exec_result = exec::stmt::execute_inner(&mut ctx, stmt);
        let (rows_read, rows_written) = (ctx.rows_read, ctx.rows_written);
        let vars_after = std::mem::take(&mut ctx.vars);
        if matches!(stmt, Statement::Set { .. }) {
            session.cold().vars = vars_after;
        }

        match exec_result {
            Ok(outcome) => {
                // An autocommit's text only lives as long as its binlog
                // entry, so it is rendered only when the binlog keeps one;
                // an explicit transaction's waits in the session for COMMIT.
                let text = (!stmt.is_read_only() && (!implicit || self.keeps_binlog()))
                    .then(|| sql_text.map(str::to_string).unwrap_or_else(|| stmt.to_string()));
                let cost = Cost::for_statement(rows_read, rows_written, false);
                let commit = if implicit {
                    session.tx = None;
                    let statements = Vec::from_iter(text);
                    Some(commit_tx(
                        &mut self.catalog,
                        temp_of(&mut session.cold, &mut no_temp),
                        &mut self.txm,
                        &mut self.seqs,
                        (!self.replaying).then_some(&mut self.binlog),
                        &self.config,
                        tx,
                        session.current_db.as_ref(),
                        statements,
                    )?)
                } else {
                    session.cold().tx_statements.extend(text);
                    None
                };
                Ok(ExecResult { outcome, cost, commit })
            }
            Err(e) => {
                if implicit {
                    session.tx = None;
                    abort_tx(&mut self.catalog, temp_of(&mut session.cold, &mut no_temp), &mut self.txm, tx)?;
                } else if self.config.error_mode == ErrorMode::AbortTransaction {
                    self.txm.state_mut(tx)?.poisoned = true;
                }
                Err(e)
            }
        }
    }

    fn check_privileges(&self, session: &Session, stmt: &Statement) -> Result<(), SqlError> {
        // The superuser may do anything: nothing to list or resolve.
        if &*session.user == ADMIN_USER {
            return Ok(());
        }
        fn resolve<'a>(session: &'a Session, t: &'a ObjectName) -> Option<&'a str> {
            match &t.database {
                Some(d) => Some(d),
                None => {
                    // Unqualified names may be temp tables (no privilege
                    // needed) or live in the current database.
                    if session.cold.as_ref().is_some_and(|c| c.temp.contains_key(&t.name)) {
                        None
                    } else {
                        session.current_db.as_deref()
                    }
                }
            }
        }
        for t in stmt.read_tables() {
            if let Some(db) = resolve(session, &t) {
                self.auth.check(&session.user, db, Privilege::Read)?;
            }
        }
        for t in stmt.written_tables() {
            if let Some(db) = resolve(session, &t) {
                self.auth.check(&session.user, db, Privilege::Write)?;
            }
        }
        // CALL needs write on its database: bodies are opaque (§4.2.1).
        if let Statement::Call { name, .. } = stmt {
            if let Some(db) = resolve(session, name) {
                self.auth.check(&session.user, db, Privilege::Write)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replication support APIs (used by the middleware)
    // ------------------------------------------------------------------

    /// Apply an extracted writeset as one transaction (transaction-based
    /// replication, §4.3.2). Rows are located by primary key. Sequence and
    /// auto-increment counters are **not** touched — the paper's documented
    /// divergence channel — unless the writeset carries a [`CounterSync`]
    /// and this engine is configured with `apply_counter_sync`.
    ///
    /// A certified writeset never waits. When a row it updates or deletes,
    /// or a key it inserts, is held by a local open transaction, that
    /// transaction is wounded ([`Engine::wound`]) and the entry applied.
    /// The holder is doomed anyway: it wrote the row on a snapshot that
    /// misses this writeset, so its own certification would abort it
    /// (DESIGN.md, "A certified writeset never waits"). An apply that
    /// still fails found divergence.
    pub fn apply_writeset(&mut self, ws: &Writeset) -> Result<ExecResult, SqlError> {
        let tx = self.txm.begin(IsolationLevel::SnapshotIsolation, true);
        let snap = self.txm.statement_snapshot(tx)?;
        let result = self.apply_writeset_inner(ws, snap);
        match result {
            Ok(()) => {
                let mut empty_temp = BTreeMap::new();
                let statements = if self.keeps_binlog() {
                    vec![format!("-- applied writeset ({} rows)", ws.len())]
                } else {
                    Vec::new()
                };
                let commit = commit_tx(
                    &mut self.catalog,
                    &mut empty_temp,
                    &mut self.txm,
                    &mut self.seqs,
                    (!self.replaying).then_some(&mut self.binlog),
                    &self.config,
                    tx,
                    None,
                    statements,
                )?;
                if self.config.apply_counter_sync {
                    if let Some(cs) = &ws.counters {
                        self.apply_counter_sync(cs)?;
                    }
                }
                Ok(ExecResult {
                    outcome: Outcome::Affected(ws.len() as u64),
                    cost: Cost::for_statement(0, ws.len() as u64, false),
                    commit: Some(commit),
                })
            }
            Err(e) => {
                let mut empty_temp = BTreeMap::new();
                abort_tx(&mut self.catalog, &mut empty_temp, &mut self.txm, tx)?;
                Err(e)
            }
        }
    }

    /// Apply one binlog entry, shipped from a master or replayed from the
    /// WAL: by its writeset, or by its statement texts on connection
    /// `statements_on` with `default_db` as its database (set as `USE`
    /// does). Returns the CPU µs to charge with the outcome: the writeset
    /// apply's cost but at least 4 µs a row, or the sum of the statements'
    /// costs (setting the database is free), counting those that ran
    /// before a failure.
    pub fn apply_binlog_entry(
        &mut self,
        entry: &BinlogEntry,
        statements_on: Option<ConnId>,
    ) -> (u64, Result<(), SqlError>) {
        let mut cpu_us = 0;
        let result = match statements_on {
            None => self
                .apply_writeset(&entry.writeset)
                .map(|r| cpu_us = r.cost.cpu_us.max(entry.writeset.len() as u64 * 4)),
            Some(conn) => (|| {
                if let Some(db) = &entry.default_db {
                    self.use_database(conn, db)?;
                }
                for stmt in &entry.statements {
                    cpu_us += self.execute(conn, stmt)?.cost.cpu_us;
                }
                Ok(())
            })(),
        };
        (cpu_us, result)
    }

    fn apply_writeset_inner(&mut self, ws: &Writeset, snap: Snapshot) -> Result<(), SqlError> {
        for entry in ws.entries.iter().filter(|e| !e.table.is_temp()) {
            let (db, name) = (entry.table.database(), entry.table.table());
            let mut table = self.catalog.database_mut(db)?.table_mut(name)?;
            let row = match apply_entry(table, entry, snap) {
                Ok(row) => row,
                Err((err, holders)) => {
                    if holders.is_empty() {
                        return Err(err);
                    }
                    for tx in holders {
                        self.wound(tx)?;
                    }
                    table = self.catalog.database_mut(db)?.table_mut(name)?;
                    apply_entry(table, entry, snap).map_err(|(err, _)| err)?
                }
            };
            // Register the write so commit stamping finds the versions.
            self.txm.state_mut(snap.tx)?.writes.push(WriteRecord { row, ..entry.clone() });
        }
        Ok(())
    }

    /// Wound the open transaction `tx`: unwind its non-temp writes now, so
    /// a certified writeset can take the rows, and fail everything it
    /// issues next but ROLLBACK, which also unwinds its temp-table writes.
    fn wound(&mut self, tx: TxId) -> Result<(), SqlError> {
        let st = self.txm.state_mut(tx)?;
        st.wounded = true;
        let (temp, shared): (Vec<_>, Vec<_>) =
            std::mem::take(&mut st.writes).into_iter().partition(|w| w.table.is_temp());
        st.writes = temp;
        for w in shared.iter().rev() {
            if let Ok(t) = self.catalog.database_mut(w.table.database()).and_then(|d| d.table_mut(w.table.table())) {
                t.abort_unwind(w.row, tx);
            }
        }
        Ok(())
    }

    fn apply_counter_sync(&mut self, cs: &CounterSync) -> Result<(), SqlError> {
        for ((db, seq), v) in &cs.sequences {
            self.seqs.set(db, seq, *v);
        }
        for (table, v) in &cs.auto_increments {
            if let Ok(t) = self.catalog.database_mut(table.database()).and_then(|d| d.table_mut(table.table())) {
                t.auto_inc = (*v).max(t.auto_inc);
            }
        }
        Ok(())
    }

    /// Extract the writeset of a connection's *open* transaction without
    /// committing it — what a certification-based middleware needs at the
    /// client's COMMIT, before deciding the transaction's fate (§4.3.2).
    pub fn pending_writeset(&self, conn: ConnId) -> Result<Writeset, SqlError> {
        self.pending_writeset_since(conn, 0)
    }

    /// [`Engine::pending_writeset`] restricted to the records appended
    /// since `mark` (a [`Engine::pending_mark`] of the same transaction):
    /// what one statement wrote, for a middleware that collects a
    /// transaction's writeset statement by statement.
    pub fn pending_writeset_since(&self, conn: ConnId, mark: usize) -> Result<Writeset, SqlError> {
        let st = self.open_tx(conn)?;
        if st.wounded {
            return Err(wound_conflict());
        }
        let entries: Vec<_> = st.writes.iter().skip(mark).filter(|w| !w.table.is_temp()).cloned().collect();
        Ok(Writeset { entries, counters: None })
    }

    /// How many write records (temp ones included) `conn`'s open
    /// transaction holds; 0 with none open.
    pub fn pending_mark(&self, conn: ConnId) -> usize {
        self.tx_of(conn).map_or(0, |st| st.writes.len())
    }

    /// Whether a failed statement poisoned `conn`'s open transaction
    /// ([`ErrorMode::AbortTransaction`]): it can only roll back now.
    pub fn tx_poisoned(&self, conn: ConnId) -> bool {
        self.tx_of(conn).is_some_and(|st| st.poisoned)
    }

    /// Whether `conn` has an open transaction.
    pub fn in_transaction(&self, conn: ConnId) -> bool {
        self.tx_of(conn).is_some()
    }

    /// `conn`'s open transaction, if any; [`Engine::open_tx`] says why not.
    fn tx_of(&self, conn: ConnId) -> Option<&TxState> {
        self.txm.get(self.sessions.get(&conn)?.tx?)
    }

    fn open_tx(&self, conn: ConnId) -> Result<&TxState, SqlError> {
        let session = self.sessions.get(&conn).ok_or_else(|| no_such_conn(conn))?;
        let tx = session
            .tx
            .ok_or_else(|| SqlError::TransactionState("no open transaction".into()))?;
        self.txm.state(tx)
    }

    /// Read binlog entries after `after`; `None` means the log was purged
    /// past that point and the consumer must resynchronize from a dump.
    pub fn binlog_after(&self, after: Lsn) -> Option<Vec<crate::binlog::BinlogEntry>> {
        self.binlog.read_after(after).map(|s| s.to_vec())
    }

    pub fn binlog_head(&self) -> Lsn {
        self.binlog.head()
    }

    /// Tell the engine who still reads its binlog. `Some(h)`: readers may
    /// ask for any entry after `h`, so the entries at or below it go now.
    /// `None`: nobody, now or later, so every entry goes as soon as it is
    /// written. Either way the trim stops at the WAL mirror cursor: entries
    /// not yet copied into the WAL stay for [`Engine::wal_maintain`], which
    /// trims again once it has copied them.
    pub fn set_binlog_horizon(&mut self, horizon: Option<Lsn>) {
        self.binlog_horizon = horizon;
        self.trim_binlog();
    }

    fn trim_binlog(&mut self) {
        let floor = match &self.durable {
            Some(store) => {
                Some(Lsn(self.binlog_horizon.map_or(u64::MAX, |h| h.0).min(store.logged_head)))
            }
            None => self.binlog_horizon,
        };
        self.binlog.set_floor(floor);
    }

    /// Whether a commit now leaves a binlog entry behind: not while crash
    /// recovery replays the WAL, nor when nobody reads it and it is not
    /// mirrored into a WAL (then each entry is purged as it lands).
    fn keeps_binlog(&self) -> bool {
        !self.replaying && self.binlog.keeps_entries()
    }

    /// Entries the binlog still holds (trimming bounds it; the head keeps
    /// counting).
    pub fn binlog_len(&self) -> usize {
        self.binlog.len()
    }

    /// Checksum of committed table data (divergence detection).
    pub fn checksum_data(&self) -> u64 {
        let ts = self.txm.latest_ts();
        let mut h = Fnv64::new();
        for (name, db) in &self.catalog.databases {
            h.write_str(name);
            for table in db.tables.values() {
                table.checksum_into(ts, &mut h);
            }
        }
        h.finish()
    }

    /// Checksum including the non-versioned state the paper flags as
    /// divergence channels: sequences and auto-increment counters.
    pub fn checksum_full(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.checksum_data());
        for ((db, name), v) in self.seqs.iter() {
            h.write_str(db);
            h.write_str(name);
            h.write_u64(v as u64);
        }
        for (name, db) in &self.catalog.databases {
            h.write_str(name);
            for (tname, t) in &db.tables {
                h.write_str(tname);
                h.write_u64(t.auto_inc as u64);
            }
        }
        h.finish()
    }

    /// Take a consistent dump of committed state (§4.4.1).
    pub fn dump(&self, opts: DumpOptions) -> Dump {
        let at_ts = self.txm.latest_ts();
        let mut databases = Vec::new();
        for (name, db) in &self.catalog.databases {
            let tables = db
                .tables
                .values()
                .map(|t| TableDump {
                    name: t.schema.name.table().to_string(),
                    columns: t.schema.columns.clone(),
                    rows: t.committed_rows(at_ts),
                    auto_inc: t.auto_inc,
                })
                .collect();
            databases.push(DatabaseDump {
                name: name.clone(),
                tables,
                sequences: self.seqs.in_database(name).map(|(n, v)| (n.to_string(), v)).collect(),
                triggers: if opts.include_programs { db.triggers.clone() } else { Vec::new() },
                procedures: if opts.include_programs {
                    db.procedures.values().cloned().collect()
                } else {
                    Vec::new()
                },
            });
        }
        let users = if opts.include_principals {
            Some(self.auth.users().cloned().collect())
        } else {
            None
        };
        Dump { at_ts, databases, users, checksum: self.checksum_data() }
    }

    /// Restore a dump, replacing the databases it contains. Principals are
    /// only restored when the dump carries them — otherwise the §4.1.5 gap
    /// bites: the restored clone has no application users.
    pub fn restore(&mut self, dump: &Dump) -> Result<(), SqlError> {
        // Allocate one commit timestamp covering the whole restore so the
        // loaded rows are visible to every later snapshot.
        let tx = self.txm.begin(IsolationLevel::ReadCommitted, true);
        let (restore_ts, _) = self.txm.finish_commit(tx)?;
        for dbd in &dump.databases {
            self.catalog.databases.remove(&dbd.name);
            self.seqs.drop_database(&dbd.name);
            let mut db = crate::catalog::Database::new(dbd.name.clone());
            for td in &dbd.tables {
                let table = db.add_table(&td.name, td.columns.clone());
                let snap = Snapshot { ts: CommitTs::ZERO, tx };
                let mut inserted = Vec::with_capacity(td.rows.len());
                for row in &td.rows {
                    inserted.push(table.insert(row.clone(), snap)?);
                }
                for id in inserted {
                    table.commit_stamp(id, tx, restore_ts);
                }
                table.auto_inc = td.auto_inc;
            }
            db.triggers = dbd.triggers.clone();
            for p in &dbd.procedures {
                db.procedures.insert(p.name.clone(), p.clone());
            }
            for (name, v) in &dbd.sequences {
                self.seqs.set(&dbd.name, name, *v);
            }
            self.catalog.databases.insert(dbd.name.clone(), db);
        }
        if let Some(users) = &dump.users {
            self.auth.restore_users(users.clone());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durable storage (crate::wal): WAL mirroring, checkpoints, recovery
    // ------------------------------------------------------------------

    pub fn has_durability(&self) -> bool {
        self.durable.is_some()
    }

    /// The per-group ordered prefixes the durable devices guarantee across
    /// any crash kind (last fsync or completed checkpoint). `None` without
    /// durability.
    pub fn durable_ordered(&self) -> Option<Vec<u64>> {
        self.durable.as_ref().map(|s| s.synced_ordered().to_vec())
    }

    /// The ordered positions this replica applied.
    pub fn ordered(&self) -> &Positions {
        &self.ordered
    }

    /// Record ordered positions an operation applied. The next
    /// [`Self::wal_maintain`] logs each with the first commit at or after
    /// it, so a torn tail keeps a position exactly when it keeps what the
    /// position wrote.
    pub fn note_applied(&mut self, marks: &[Mark]) {
        let head = self.binlog.head().0;
        for &m in marks {
            if !self.ordered.has(m) {
                self.ordered.mark(m);
                if self.durable.is_some() {
                    self.unlogged.push((head, m));
                }
            }
        }
    }

    /// Replace the ordered positions wholesale: a restored dump is
    /// consistent with the positions it was taken at. The caller
    /// checkpoints next.
    pub fn set_ordered(&mut self, ordered: Positions) {
        self.ordered = ordered;
        self.unlogged.clear();
    }

    /// Mirror newly committed binlog entries into the WAL, each with the
    /// ordered positions applied up to it, record positions that moved
    /// without a commit, fsync per policy, and checkpoint per policy. The
    /// node actor calls this after every operation and converts the
    /// accumulated [`IoCounters`] into virtual time. No-op without
    /// durability.
    pub fn wal_maintain(&mut self, applied_lsn: u64) -> WalMaintain {
        let mut out = WalMaintain::default();
        if self.durable.is_none() {
            return out;
        }
        let counters = self.current_counters();
        let store = self.durable.as_mut().expect("checked above");
        // Phase 2 of a two-phase install staged last round: the staged
        // image covers everything currently in the WAL, so it must
        // complete before this round appends anything new. No-op (and no
        // IO) unless an install is pending.
        store.complete_checkpoint();
        let head = self.binlog.head().0;
        let mut marks = std::mem::take(&mut self.unlogged).into_iter().peekable();
        if head > store.logged_head {
            let Some(entries) = self.binlog.read_after(Lsn(store.logged_head)) else {
                unreachable!(
                    "binlog trimmed past the WAL mirror cursor: the trim clamps to \
                     logged_head, and recovery rebases both at the checkpoint head"
                )
            };
            for e in entries {
                let mut with = Vec::new();
                while let Some((_, m)) = marks.next_if(|&(at, _)| at <= e.lsn.0) {
                    with.push(m);
                }
                store.append_commit(e, applied_lsn, with);
                out.appended += 1;
            }
        }
        let rest: Vec<Mark> = marks.map(|(_, m)| m).collect();
        if !rest.is_empty() || store.applied_lsn_changed(applied_lsn) {
            store.append_meta(applied_lsn, rest);
            out.appended += 1;
        }
        // §4.2.3: sequence/AUTO_INCREMENT bumps are non-transactional, so
        // commit records alone cannot recover them. Mirror them whenever
        // they moved — after the commits of this round, so replay applies
        // data first, then the counter positions that followed it.
        if store.counters_changed(&counters) {
            store.append_counters(&counters);
            out.appended += 1;
        }
        store.maybe_fsync();
        if store.should_checkpoint() {
            out.checkpoint_rows = Some(self.wal_force_checkpoint(applied_lsn));
        }
        // The mirror cursor moved: release what it now covers.
        self.trim_binlog();
        out
    }

    /// Snapshot current state to the checkpoint device and truncate the
    /// WAL, regardless of the periodic policy. Returns rows snapshotted
    /// (for CPU cost accounting). No-op without durability.
    pub fn wal_force_checkpoint(&mut self, applied_lsn: u64) -> u64 {
        if self.durable.is_none() {
            return 0;
        }
        let dump = self.dump(DumpOptions::full());
        let rows = dump.row_count();
        let c = crate::wal::Checkpoint {
            dump,
            applied_lsn,
            ordered: self.ordered.clone(),
            binlog_head: self.binlog.head().0,
        };
        // The image covers every position applied so far.
        self.unlogged.clear();
        let counters = self.current_counters();
        if let Some(store) = self.durable.as_mut() {
            store.install_checkpoint(&c);
            // The checkpoint's dump carries the counters; the WAL no longer
            // needs a record until they move again.
            store.note_counters(counters);
        }
        rows
    }

    /// Snapshot of the non-transactional counters recovery must preserve:
    /// every sequence, plus the AUTO_INCREMENT position of every table that
    /// declares an auto-increment column. Empty for schemas using neither,
    /// so counter-free workloads write no extra WAL records.
    pub fn current_counters(&self) -> CounterSync {
        let mut cs = CounterSync::default();
        for (key, v) in self.seqs.iter() {
            cs.sequences.push((key.clone(), v));
        }
        for db in self.catalog.databases.values() {
            for t in db.tables.values() {
                if t.schema.columns.iter().any(|c| c.auto_increment) {
                    cs.auto_increments.push((t.schema.name.clone(), t.auto_inc));
                }
            }
        }
        cs
    }

    /// Drain IO work performed since the last drain (node actors convert
    /// this to virtual disk time).
    pub fn take_io(&mut self) -> crate::wal::IoCounters {
        self.durable.as_mut().map(|s| s.take_io()).unwrap_or_default()
    }

    pub fn wal_stats(&self) -> Option<crate::wal::WalStats> {
        self.durable.as_ref().map(|s| s.stats())
    }

    /// Die and come back: apply crash semantics to the durable devices,
    /// rebuild the engine from the latest checkpoint, truncate any torn
    /// tail at the first bad checksum, and replay the surviving WAL suffix.
    /// Returns what recovery measured; the caller charges IO + CPU time
    /// and resyncs the remainder from peers.
    pub fn crash_recover(
        &mut self,
        kind: crate::wal::CrashKind,
        entropy: u64,
    ) -> crate::wal::RecoveryReport {
        let mut store = self.durable.take().expect("crash_recover requires durability");
        store.crash(kind, entropy);
        let (checkpoint, records, torn, ckpt_fallback) = store.load();

        // Rebirth: every byte of volatile state is gone; only the two
        // device images survive.
        let config = self.config.clone();
        *self = Engine::new(EngineConfig { durability: None, ..config.clone() });
        self.config = config;

        let mut report = crate::wal::RecoveryReport {
            torn_truncated: torn,
            checkpoint_fallback: ckpt_fallback,
            ..Default::default()
        };
        if let Some(c) = &checkpoint {
            self.restore(&c.dump).expect("checkpoint restore");
            self.binlog.rebase(c.binlog_head);
            report.checkpoint_loaded = true;
            report.checkpoint_rows = c.dump.row_count();
            report.applied_lsn = c.applied_lsn;
            report.ordered = c.ordered.clone();
        }

        // Replay the suffix with binlog appends suppressed: each replayed
        // entry is re-pushed verbatim afterwards, so the reborn binlog
        // holds the original statements/writesets, not a paraphrase.
        self.replaying = true;
        let mut replay_conn: Option<ConnId> = None;
        for rec in &records {
            match rec {
                crate::wal::WalRecord::Commit { entry, applied_lsn, marks } => {
                    if entry.lsn.0 > self.binlog.head().0 {
                        // Statement-only entries are auto-committed DDL.
                        let statements_on = entry.writeset.is_empty().then(|| {
                            *replay_conn.get_or_insert_with(|| {
                                self.connect(ADMIN_USER, crate::auth::ADMIN_PASSWORD)
                                    .expect("replay connection")
                            })
                        });
                        let (cpu_us, applied) = self.apply_binlog_entry(entry, statements_on);
                        applied.expect("WAL replay against own checkpoint");
                        report.replay_cpu_us += cpu_us;
                        self.binlog.push_raw(entry.clone());
                        report.entries_replayed += 1;
                    }
                    report.applied_lsn = report.applied_lsn.max(*applied_lsn);
                    marks.iter().for_each(|&m| report.ordered.mark(m));
                }
                crate::wal::WalRecord::Meta { applied_lsn, marks } => {
                    report.applied_lsn = report.applied_lsn.max(*applied_lsn);
                    marks.iter().for_each(|&m| report.ordered.mark(m));
                }
                // Counter records are a local redo of non-transactional
                // state; unconditional, unlike the writeset-carried
                // `CounterSync` which is gated on `apply_counter_sync`.
                crate::wal::WalRecord::Counters(cs) => {
                    // Under two-phase checkpoints the surviving WAL can
                    // hold records the restored snapshot already covers;
                    // counters only move forward, so a monotonic merge
                    // ignores the stale ones. (Forward-only replay makes
                    // the merge an identity in atomic mode.)
                    let cur = self.current_counters();
                    let mut merged = cs.clone();
                    for (key, v) in merged.sequences.iter_mut() {
                        if let Some((_, c)) = cur.sequences.iter().find(|(k, _)| k == key) {
                            *v = (*v).max(*c);
                        }
                    }
                    self.apply_counter_sync(&merged).expect("counter replay");
                }
            }
        }
        if let Some(c) = replay_conn {
            self.disconnect(c);
        }
        self.replaying = false;
        store.rearm(self.binlog.head().0, report.applied_lsn, &report.ordered);
        store.note_counters(self.current_counters());
        self.durable = Some(store);
        self.ordered = report.ordered.clone();
        report
    }

    /// Operator-facing backup: the full engine state in the exact byte
    /// format crash recovery consumes ([`crate::wal::Checkpoint`]).
    pub fn snapshot_bytes(&self, applied_lsn: u64) -> Vec<u8> {
        let c = crate::wal::Checkpoint {
            dump: self.dump(DumpOptions::full()),
            applied_lsn,
            ordered: self.ordered.clone(),
            binlog_head: self.binlog.head().0,
        };
        crate::wal::encode_checkpoint(&c)
    }

    /// Operator-facing restore from [`Engine::snapshot_bytes`] output (or a
    /// checkpoint image lifted off a replica's durable device). Returns the
    /// foreign binlog LSN and the ordered positions the snapshot covers.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(u64, Positions), SqlError> {
        let c = crate::wal::decode_checkpoint(bytes)
            .map_err(|e| SqlError::Internal(format!("snapshot decode: {e}")))?;
        self.restore(&c.dump)?;
        Ok((c.applied_lsn, c.ordered))
    }

    /// Vacuum all tables (routine maintenance, §4.4.4): drop the dead
    /// versions a commit had to keep because an open snapshot could still
    /// read them. Returns versions reclaimed.
    pub fn vacuum(&mut self) -> usize {
        let horizon = self.txm.gc_horizon();
        let mut reclaimed = 0;
        for db in self.catalog.databases.values_mut() {
            for t in db.tables.values_mut() {
                reclaimed += t.vacuum(horizon);
            }
        }
        reclaimed
    }

    /// Introspection for tests and the middleware's schema cache.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn sequences(&self) -> &Sequences {
        &self.seqs
    }

    /// Primary-key column index of a table, if any (used by certifiers).
    pub fn pk_of(&self, db: &str, table: &str) -> Option<usize> {
        self.catalog
            .database(db)
            .ok()
            .and_then(|d| d.table(table).ok())
            .and_then(|t| t.schema.primary_key)
    }
}

fn ack(cost: Cost) -> ExecResult {
    ExecResult { outcome: Outcome::Ack, cost, commit: None }
}

/// What a wounded transaction answers until it rolls back.
fn wound_conflict() -> SqlError {
    SqlError::WriteConflict {
        table: "certification".into(),
        detail: "wounded by a certified writeset".into(),
    }
}

/// Apply one writeset entry to `table` for the applying transaction
/// `snap.tx`, returning the row it wrote. A failure also names the open
/// transactions holding the row or key the entry needed; none means the
/// replica diverged.
fn apply_entry(
    table: &mut Table,
    entry: &WriteRecord,
    snap: Snapshot,
) -> Result<RowId, (SqlError, Vec<TxId>)> {
    let image = |img: &Option<Vec<Value>>, what: &str| {
        img.clone().ok_or_else(|| {
            (SqlError::Internal(format!("{:?} writeset entry without {what}", entry.kind)), Vec::new())
        })
    };
    let old = match entry.kind {
        WriteKind::Insert => {
            let new = image(&entry.new, "image")?;
            let key = table.schema.primary_key.map(|pk| new[pk].clone());
            return table.insert(new, snap).map_err(|e| {
                (e, key.map(|k| table.key_holders(&k, snap.tx)).unwrap_or_default())
            });
        }
        WriteKind::Update | WriteKind::Delete => image(&entry.old, "before-image")?,
    };
    let found = match table.schema.primary_key {
        Some(pk) => table.lookup_pk(&old[pk], snap).map(|(id, _)| id),
        None => table.scan(snap).find(|(_, vals)| *vals == old.as_slice()).map(|(id, _)| id),
    };
    let row = found.ok_or_else(|| {
        let verb = if entry.kind == WriteKind::Update { "update" } else { "delete" };
        let detail = format!("row to {verb} not found (divergence?)");
        (SqlError::WriteConflict { table: entry.table.table().to_string(), detail }, Vec::new())
    })?;
    let written = match entry.kind {
        WriteKind::Update => table.update(row, image(&entry.new, "after-image")?, snap, true).map(drop),
        _ => table.delete(row, snap, true).map(drop),
    };
    written.map_err(|e| match e {
        ConflictOrError::Conflict(k) => (
            SqlError::WriteConflict { table: entry.table.table().to_string(), detail: format!("{k:?}") },
            table.row_holders(row, snap.tx),
        ),
        ConflictOrError::Error(e) => (e, Vec::new()),
    })?;
    Ok(row)
}

/// Commit a transaction: serializable validation, version stamping, pruning
/// of the written rows' versions nobody can read any more, writeset
/// extraction, binlog append (`binlog` is `None` while crash recovery
/// replays the WAL).
#[allow(clippy::too_many_arguments)]
fn commit_tx(
    catalog: &mut Catalog,
    temp: &mut BTreeMap<String, Table>,
    txm: &mut TxManager,
    seqs: &mut Sequences,
    binlog: Option<&mut Binlog>,
    config: &EngineConfig,
    tx: TxId,
    default_db: Option<&Arc<str>>,
    statements: Vec<String>,
) -> Result<CommitInfo, SqlError> {
    // Serializable: table-level optimistic read validation.
    {
        let st = txm.state(tx)?;
        if st.isolation == IsolationLevel::Serializable {
            let snapshot_ts = st.snapshot_ts;
            for name in &st.read_tables {
                if let Ok(d) = catalog.database(name.database()) {
                    if let Ok(t) = d.table(name.table()) {
                        if t.last_commit_ts > snapshot_ts {
                            // Abort before allocating a commit timestamp.
                            let reads = name.to_string();
                            abort_tx(catalog, temp, txm, tx)?;
                            return Err(SqlError::SerializationFailure(format!(
                                "table {reads} changed after snapshot"
                            )));
                        }
                    }
                }
            }
        }
    }

    let (ts, state) = txm.finish_commit(tx)?;
    // The versions this commit ended are garbage unless an open snapshot
    // still reads them; the ones it pins are left to `Engine::vacuum`.
    let horizon = txm.gc_horizon();
    for w in &state.writes {
        if let Some(t) = write_target(catalog, temp, &w.table) {
            t.commit_stamp(w.row, tx, ts);
            t.prune(w.row, horizon);
        }
    }

    let entries = state.writes.into_iter().filter(|w| !w.table.is_temp()).collect();
    let mut writeset = Writeset { entries, counters: None };
    if config.capture_counters && !writeset.is_empty() {
        let mut cs = CounterSync::default();
        for (key, v) in seqs.iter() {
            cs.sequences.push((key.clone(), v));
        }
        for name in writeset.tables() {
            if let Ok(t) = catalog.database(name.database()).and_then(|d| d.table(name.table())) {
                cs.auto_increments.push((name, t.auto_inc));
            }
        }
        writeset.counters = Some(cs);
    }

    if let Some(binlog) = binlog.filter(|_| !writeset.is_empty()) {
        binlog.append(ts, default_db, statements, &writeset);
    }
    Ok(CommitInfo { commit_ts: ts, writeset })
}

/// Abort a transaction: unwind version chains. Sequences, auto-increment
/// counters and DDL are *not* restored (§4.2.3/§4.3.2).
fn abort_tx(
    catalog: &mut Catalog,
    temp: &mut BTreeMap<String, Table>,
    txm: &mut TxManager,
    tx: TxId,
) -> Result<(), SqlError> {
    let state = txm.finish_abort(tx)?;
    for w in state.writes.iter().rev() {
        if let Some(t) = write_target(catalog, temp, &w.table) {
            t.abort_unwind(w.row, tx);
        }
    }
    Ok(())
}

/// The table a write record names: a session temporary table, or one of
/// the catalog's. `None` once it was dropped.
fn write_target<'a>(
    catalog: &'a mut Catalog,
    temp: &'a mut BTreeMap<String, Table>,
    name: &TableName,
) -> Option<&'a mut Table> {
    if name.is_temp() {
        return temp.get_mut(name.table());
    }
    catalog.database_mut(name.database()).ok()?.tables.get_mut(name.table())
}
