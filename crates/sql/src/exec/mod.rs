//! Statement execution: SELECT pipeline, DML with trigger firing, stored
//! procedures, and the shared statement context.

mod access;
pub mod dml;
pub mod select;
pub mod stmt;

use std::collections::BTreeMap;

use crate::catalog::{Catalog, TableName};
use crate::det::Determinism;
use crate::error::SqlError;
use crate::expr::EvalEnv;
use crate::mvcc::{Snapshot, TxManager, TxId};
use crate::sequence::Sequences;
use crate::storage::Table;
use crate::value::Value;

/// Maximum trigger/procedure nesting depth before the engine refuses
/// (guards against trigger cycles).
pub const MAX_NESTING: u32 = 8;

/// Everything a statement needs to execute inside a transaction.
pub struct StmtCtx<'a> {
    pub catalog: &'a mut Catalog,
    /// Session temporary tables (§4.1.4).
    pub temp: &'a mut BTreeMap<String, Table>,
    pub seqs: &'a mut Sequences,
    pub det: &'a mut Determinism,
    pub txm: &'a mut TxManager,
    pub tx: TxId,
    pub current_db: Option<&'a str>,
    /// Session variables plus procedure-parameter / trigger NEW.* bindings.
    pub vars: BTreeMap<String, Value>,
    /// Trigger/procedure nesting depth.
    pub depth: u32,
    /// Accumulated row counters for the cost model.
    pub rows_read: u64,
    pub rows_written: u64,
}

impl<'a> StmtCtx<'a> {
    /// The snapshot statements in this transaction read through right now.
    pub fn snapshot(&self) -> Result<Snapshot, SqlError> {
        self.txm.statement_snapshot(self.tx)
    }

    /// Build a read-oriented evaluation environment. While the returned env
    /// is alive the whole context is borrowed; callers extract `read_log` /
    /// `rows_read` and call [`StmtCtx::absorb`] afterwards.
    pub fn eval_env(&mut self, snap: Snapshot) -> EvalEnv<'_> {
        EvalEnv {
            catalog: &*self.catalog,
            temp: &*self.temp,
            seqs: &mut *self.seqs,
            det: &mut *self.det,
            snap,
            current_db: self.current_db,
            vars: &self.vars,
            read_log: Vec::new(),
            rows_read: 0,
        }
    }

    /// Merge a finished env's accounting into the transaction state.
    pub fn absorb(&mut self, read_log: Vec<TableName>, rows_read: u64) {
        self.rows_read += rows_read;
        if let Ok(st) = self.txm.state_mut(self.tx) {
            st.read_tables.extend(read_log);
        }
    }
}
