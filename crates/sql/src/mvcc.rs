//! Multi-version concurrency control: transaction identities, snapshots,
//! commit timestamps, and the visibility rules shared by the storage layer.
//!
//! Supported isolation levels (§4.1.2 of the paper):
//! * **read committed** — every statement reads the latest committed
//!   snapshot; the default everywhere in production, per the paper.
//! * **snapshot isolation** — transaction-level snapshot with
//!   first-committer-wins write conflicts.
//! * **serializable** — SI plus commit-time validation that no table read by
//!   the transaction was committed to after its snapshot (coarse, table-level
//!   optimistic validation; the paper notes that middleware and engines alike
//!   routinely fall back to table granularity, §4.3.2).

use std::collections::HashMap;

use crate::ast::IsolationLevel;
use crate::catalog::TableName;
use crate::error::SqlError;
use crate::value::Value;

/// Transaction identifier, unique within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// Monotonic commit timestamp, unique within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitTs(pub u64);

impl CommitTs {
    pub const ZERO: CommitTs = CommitTs(0);
}

/// Row identifier, unique within one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// What a statement is allowed to see: its own writes plus everything
/// committed at or before `ts`.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub ts: CommitTs,
    pub tx: TxId,
}

/// The kind of a row-level write, kept for writeset extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    Update,
    Delete,
}

/// A row-level write performed by a transaction. Doubles as the writeset
/// entry shipped by transaction-based replication (§4.3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRecord {
    /// A write to a session temporary table ([`TableName::is_temp`]) is
    /// part of the transaction (commit/abort must visit it) but excluded
    /// from extracted writesets, because temp tables are connection-local
    /// and must never replicate (§4.1.4).
    pub table: TableName,
    pub row: RowId,
    pub kind: WriteKind,
    /// Before-image (None for inserts).
    pub old: Option<Vec<Value>>,
    /// After-image (None for deletes).
    pub new: Option<Vec<Value>>,
}

/// Per-transaction bookkeeping.
#[derive(Debug, Clone)]
pub struct TxState {
    pub snapshot_ts: CommitTs,
    pub isolation: IsolationLevel,
    pub writes: Vec<WriteRecord>,
    /// Tables read — used by serializable validation.
    pub read_tables: Vec<TableName>,
    /// Set when a statement failed and the engine is in PostgreSQL-style
    /// `ErrorMode::AbortTransaction`: all further statements are rejected
    /// until ROLLBACK (§4.1.2).
    pub poisoned: bool,
    /// Set when a certified writeset needed a row this transaction held
    /// (see [`crate::Engine::apply_writeset`]). Its non-temp writes are
    /// already unwound; everything but ROLLBACK fails with a retryable
    /// write conflict.
    pub wounded: bool,
    /// True for transactions opened implicitly (autocommit).
    pub implicit: bool,
}

/// Allocates transaction ids and commit timestamps, and tracks active
/// transactions. One per engine; single-writer (the engine is externally
/// synchronized, concurrency is statement interleaving across connections).
#[derive(Debug, Clone)]
pub struct TxManager {
    next_tx: u64,
    next_ts: u64,
    active: HashMap<TxId, TxState>,
}

impl TxManager {
    pub fn new() -> Self {
        TxManager { next_tx: 1, next_ts: 1, active: HashMap::new() }
    }

    /// Latest commit timestamp issued so far (the "current" snapshot).
    pub fn latest_ts(&self) -> CommitTs {
        CommitTs(self.next_ts - 1)
    }

    pub fn begin(&mut self, isolation: IsolationLevel, implicit: bool) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.active.insert(
            id,
            TxState {
                snapshot_ts: self.latest_ts(),
                isolation,
                writes: Vec::new(),
                read_tables: Vec::new(),
                poisoned: false,
                wounded: false,
                implicit,
            },
        );
        id
    }

    /// The state of `tx`, if it is active.
    pub fn get(&self, tx: TxId) -> Option<&TxState> {
        self.active.get(&tx)
    }

    pub fn state(&self, tx: TxId) -> Result<&TxState, SqlError> {
        self.get(tx)
            .ok_or_else(|| SqlError::Internal(format!("transaction {tx:?} not active")))
    }

    pub fn state_mut(&mut self, tx: TxId) -> Result<&mut TxState, SqlError> {
        self.active
            .get_mut(&tx)
            .ok_or_else(|| SqlError::Internal(format!("transaction {tx:?} not active")))
    }

    /// The snapshot a statement in `tx` should read through. Under read
    /// committed this advances to the latest commit for each statement;
    /// under SI/serializable it is frozen at BEGIN.
    pub fn statement_snapshot(&self, tx: TxId) -> Result<Snapshot, SqlError> {
        let st = self.state(tx)?;
        let ts = match st.isolation {
            IsolationLevel::ReadCommitted => self.latest_ts(),
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => st.snapshot_ts,
        };
        Ok(Snapshot { ts, tx })
    }

    /// Allocate the commit timestamp and retire the transaction, returning
    /// its state for the engine to stamp versions and extract the writeset.
    pub fn finish_commit(&mut self, tx: TxId) -> Result<(CommitTs, TxState), SqlError> {
        let st = self
            .active
            .remove(&tx)
            .ok_or_else(|| SqlError::Internal(format!("commit of inactive {tx:?}")))?;
        let ts = CommitTs(self.next_ts);
        self.next_ts += 1;
        Ok((ts, st))
    }

    /// Retire an aborted transaction, returning its write records so the
    /// engine can unwind the version chains.
    pub fn finish_abort(&mut self, tx: TxId) -> Result<TxState, SqlError> {
        self.active
            .remove(&tx)
            .ok_or_else(|| SqlError::Internal(format!("abort of inactive {tx:?}")))
    }

    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The oldest snapshot any active transaction may read through — the GC
    /// horizon: versions ended at or before this timestamp are unreachable.
    pub fn gc_horizon(&self) -> CommitTs {
        self.active
            .values()
            .map(|s| s.snapshot_ts)
            .min()
            .unwrap_or_else(|| self.latest_ts())
    }
}

impl Default for TxManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_monotonic() {
        let mut m = TxManager::new();
        let t1 = m.begin(IsolationLevel::SnapshotIsolation, false);
        let t2 = m.begin(IsolationLevel::SnapshotIsolation, false);
        assert_ne!(t1, t2);
        let (c1, _) = m.finish_commit(t1).unwrap();
        let (c2, _) = m.finish_commit(t2).unwrap();
        assert!(c2 > c1);
    }

    #[test]
    fn read_committed_snapshot_advances() {
        let mut m = TxManager::new();
        let rc = m.begin(IsolationLevel::ReadCommitted, false);
        let si = m.begin(IsolationLevel::SnapshotIsolation, false);
        let before_rc = m.statement_snapshot(rc).unwrap().ts;
        let before_si = m.statement_snapshot(si).unwrap().ts;
        // A third transaction commits in between.
        let w = m.begin(IsolationLevel::SnapshotIsolation, false);
        let (cts, _) = m.finish_commit(w).unwrap();
        assert_eq!(m.statement_snapshot(rc).unwrap().ts, cts, "RC sees new commit");
        assert_eq!(m.statement_snapshot(si).unwrap().ts, before_si, "SI snapshot frozen");
        assert!(before_rc < cts);
    }

    #[test]
    fn gc_horizon_is_min_active_snapshot() {
        let mut m = TxManager::new();
        let t1 = m.begin(IsolationLevel::SnapshotIsolation, false);
        let horizon1 = m.gc_horizon();
        let w = m.begin(IsolationLevel::SnapshotIsolation, false);
        m.finish_commit(w).unwrap();
        // t1 still pins the old horizon.
        assert_eq!(m.gc_horizon(), horizon1);
        m.finish_abort(t1).unwrap();
        assert!(m.gc_horizon() >= horizon1);
    }
}
