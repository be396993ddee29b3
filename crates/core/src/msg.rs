//! Wire protocol of the simulated cluster: client ↔ middleware ↔ database
//! nodes, plus the replication traffic between middleware peers.

use std::borrow::Cow;
use std::sync::{Arc, LazyLock};

use replimid_gcs::GcsMsg;
use replimid_sql::ast::{IsolationLevel, Statement};
use replimid_sql::{BinlogEntry, Dump, Lsn, Mark, ResultSet, SqlError, Value, Writeset};

use crate::recovery::LogPayload;

/// A client session, globally unique across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Index of a backend *within one middleware's* backend list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(pub usize);

/// What a client asks the middleware to do (one statement per request —
/// closed-loop clients).
#[derive(Debug, Clone)]
pub struct ClientRequest {
    pub session: SessionId,
    /// Monotonic per-session statement number: lets a middleware replica
    /// deduplicate retries after a failover (§4.3.3).
    pub stmt_seq: u64,
    /// The transaction trace this statement belongs to (latency
    /// attribution, see `trace::TraceSink`). 0 = untraced.
    pub trace: u64,
    pub sql: String,
}

/// Successful statement result, trimmed for the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    Rows(ResultSet),
    Affected(u64),
    Ack,
}

/// Why a request failed at the middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyError {
    Sql(SqlError),
    /// No healthy backend / quorum lost: the outage the client perceives.
    Unavailable(String),
    /// The middleware refused the statement (e.g. unrewritable
    /// non-determinism under statement replication, §4.3.2).
    Rejected(String),
    /// Write quorum lost but reads still flow: the cluster degraded to
    /// read-only rather than going dark. Writes fail fast with this error
    /// so clients can back off and retry instead of hanging on a timeout.
    Degraded(String),
}

impl ReplyError {
    pub fn is_retryable(&self) -> bool {
        match self {
            ReplyError::Sql(e) => e.is_retryable(),
            ReplyError::Unavailable(_) => true,
            ReplyError::Rejected(_) => false,
            ReplyError::Degraded(_) => true,
        }
    }
}

#[derive(Debug, Clone)]
pub struct ClientReply {
    pub session: SessionId,
    pub stmt_seq: u64,
    pub result: Result<ReplyBody, ReplyError>,
}

/// The one request wire format: a parsed template plus extracted
/// parameters. The middleware parses (or cache-hits) every client
/// statement once at admission and fans this out, so a backend never parses
/// a statement (`Engine::execute_prepared`). The template is shared by
/// `Arc`: one parse serves every backend of every fan-out, and the
/// middleware's own BEGIN, COMMIT and ROLLBACK are shared process-wide.
#[derive(Debug, Clone)]
pub struct PlanExec {
    pub template: Arc<Statement>,
    /// Literals extracted by normalization, positionally matching the
    /// template's `Expr::Param` nodes. Empty when the template carries its
    /// literals inline (uncached / rewritten statements).
    pub params: Vec<Value>,
}

impl PlanExec {
    /// Wrap an already-complete statement (no parameters to bind).
    pub fn whole(stmt: Arc<Statement>) -> PlanExec {
        PlanExec { template: stmt, params: Vec::new() }
    }

    /// `BEGIN` at `isolation` (the engine default when `None`).
    pub fn begin(isolation: Option<IsolationLevel>) -> PlanExec {
        static BEGINS: LazyLock<[Arc<Statement>; 4]> = LazyLock::new(|| {
            use IsolationLevel::*;
            [None, Some(ReadCommitted), Some(SnapshotIsolation), Some(Serializable)]
                .map(|isolation| Arc::new(Statement::Begin { isolation }))
        });
        let i = match isolation {
            None => 0,
            Some(IsolationLevel::ReadCommitted) => 1,
            Some(IsolationLevel::SnapshotIsolation) => 2,
            Some(IsolationLevel::Serializable) => 3,
        };
        PlanExec::whole(BEGINS[i].clone())
    }

    pub fn commit() -> PlanExec {
        static COMMIT: LazyLock<Arc<Statement>> = LazyLock::new(|| Arc::new(Statement::Commit));
        PlanExec::whole(COMMIT.clone())
    }

    pub fn rollback() -> PlanExec {
        static ROLLBACK: LazyLock<Arc<Statement>> = LazyLock::new(|| Arc::new(Statement::Rollback));
        PlanExec::whole(ROLLBACK.clone())
    }

    /// The executable statement: the shared template itself when there is
    /// nothing to bind, else a bound copy.
    pub fn bind(&self) -> Result<Cow<'_, Statement>, SqlError> {
        if self.params.is_empty() {
            Ok(Cow::Borrowed(&*self.template))
        } else {
            replimid_sql::bind(&self.template, &self.params).map(Cow::Owned)
        }
    }
}

/// Operations the middleware sends to a database node. `op` is a
/// correlation id echoed in the response.
#[derive(Debug, Clone)]
pub enum DbOp {
    /// Execute one client statement on the (lazily created) connection
    /// `conn`: a read, a temp-table statement, a master-slave write, or a
    /// writeset session's ROLLBACK or read-only COMMIT. The node binds the
    /// plan's params and runs `Engine::execute_prepared`. It settles no
    /// ordered position: those travel only in `Apply`.
    Execute { op: u64, conn: u64, plan: PlanExec },
    /// Writeset mode's one op per statement at a transaction's delegate, on
    /// connection `conn`: `begin` (the BEGIN opening the transaction's
    /// snapshot) when present, then `stmt`. The answer (`DelegateOut`)
    /// carries the write records the statement appended, so the middleware
    /// holds the transaction's writeset when the client commits. The node
    /// charges what the separate `Execute`s would have cost. An `implicit`
    /// transaction (an autocommit write) is rolled back at the node when
    /// its statement fails, charged as that ROLLBACK.
    Delegate { op: u64, conn: u64, begin: Option<PlanExec>, stmt: PlanExec, implicit: bool },
    /// Apply ordered entries: live fan-out, rejoin replay, and a certified
    /// transaction's COMMIT at its writeset delegate alike. Each entry is a
    /// plan on its session's (lazily created) connection, a session's end
    /// (its connection closes) or a certified writeset, with the (group,
    /// position) pairs it settles. The node records those durably and runs
    /// the entries in order: it *skips* an entry whose marks it has all
    /// applied, and notes the marks of the rest, a plan's inside an open
    /// transaction when that transaction ends. The skip is what makes
    /// replay idempotent when an acknowledgment raced a failure declaration
    /// (§4.4.2: "the middleware has often no information on which
    /// transactions committed prior to the failure; this information is
    /// only known to the database"). A
    /// plan's error is that entry's outcome, as it was on every live
    /// replica; a writeset's error fails the op (divergence). `parallel`:
    /// entries whose commits wrote disjoint tables apply concurrently, so
    /// the op is charged its longest chain of entries sharing a table (the
    /// §4.4.2 "extraction of parallelism from the log"); otherwise the sum.
    Apply { op: u64, entries: Vec<ApplyEntry>, parallel: bool },
    /// Apply binlog entries shipped from the master (master-slave slave
    /// side). Entry LSNs live in the master's LSN space: the node tracks
    /// them in `applied_lsn` and skips entries already applied.
    /// `use_writesets` applies each entry's writeset instead of re-running
    /// its statements; `parallel_apply` charges the longest chain of
    /// entries sharing a table, as in `Apply`.
    ApplyBinlog { op: u64, entries: Vec<BinlogEntry>, use_writesets: bool, parallel_apply: bool },
    /// Fetch binlog entries after an LSN (master side of log shipping).
    BinlogAfter { op: u64, after: Lsn },
    /// Take a dump (hot backup: the node keeps serving but is slowed).
    Dump { op: u64, include_programs: bool, include_principals: bool },
    /// Load a dump (used to initialize or resynchronize a replica).
    /// `baseline` is the source's binlog LSN at dump time; `ordered_baseline`
    /// holds, per group, the ordered-stream position the dump is consistent
    /// with.
    Restore { op: u64, dump: Box<Dump>, baseline: Lsn, ordered_baseline: Vec<u64> },
    /// Liveness probe, carrying who still reads the node's binlog: `Some`
    /// the lowest LSN a reader may still ask for (`BinlogAfter`'s `after`),
    /// `None` when nothing ever will (see `Engine::set_binlog_horizon`).
    Ping { op: u64, binlog_horizon: Option<Lsn> },
}

/// One entry of a [`DbOp::Apply`]: what the recovery log holds at one
/// ordered position, and the (group, position) pairs it settles.
#[derive(Debug, Clone)]
pub struct ApplyEntry {
    pub payload: LogPayload,
    pub marks: Vec<Mark>,
}

/// One entry's outcome inside a [`DbResp::Applied`]: the payload the
/// corresponding `ExecOk`/`ExecErr` would have carried. A skipped entry and
/// an applied writeset are an `Ok` with `ReplyBody::Ack`.
#[derive(Debug, Clone)]
pub enum EntryResult {
    Ok { body: ReplyBody, commit: Option<CommitNote> },
    Err { err: SqlError },
}

/// Database node responses.
#[derive(Debug, Clone)]
pub enum DbResp {
    ExecOk {
        op: u64,
        body: ReplyBody,
        /// Set when this statement committed a transaction.
        commit: Option<CommitNote>,
    },
    ExecErr { op: u64, err: SqlError },
    /// A [`DbOp::Apply`]'s answer, one result per entry, in op order.
    Applied { op: u64, results: Vec<EntryResult> },
    /// A [`DbOp::Delegate`]'s answer: the statement's outcome, and the
    /// non-temp write records it appended to its transaction (a failed
    /// statement's too: an engine that continues after errors commits
    /// them). `poisoned`: the failure left the transaction able only to
    /// roll back (`ErrorMode::AbortTransaction`).
    DelegateOut { op: u64, res: Result<ReplyBody, SqlError>, ws: Box<Writeset>, poisoned: bool },
    BinlogOut {
        op: u64,
        entries: Vec<BinlogEntry>,
        /// The log was truncated past the requested LSN: full resync needed.
        resync_needed: bool,
        head: Lsn,
    },
    DumpOut { op: u64, dump: Box<Dump>, head: Lsn },
    RestoreOk { op: u64 },
    Pong {
        op: u64,
        applied_lsn: Lsn,
        head: Lsn,
        /// Per group, the end of the contiguous prefix of the ordered stream
        /// the node has applied (positions above it may be applied too;
        /// replay skips those). After a lossy crash (lost/torn WAL tail)
        /// this can sit *below* the middleware's recovery-log checkpoint for
        /// the backend; the middleware must replay from the node's
        /// position, not its own.
        ordered_applied: Vec<u64>,
        /// Per group, the position no crash kind can take the node below:
        /// its last fsync or installed checkpoint, and `ordered_applied`
        /// without durability (state survives a crash by fiat). No rejoin
        /// of this node can start below it.
        durable_ordered: Vec<u64>,
    },
    ApplyOk { op: u64, applied_lsn: Lsn },
    ApplyErr { op: u64, err: SqlError },
}

impl DbResp {
    pub fn op(&self) -> u64 {
        match self {
            DbResp::ExecOk { op, .. }
            | DbResp::ExecErr { op, .. }
            | DbResp::Applied { op, .. }
            | DbResp::DelegateOut { op, .. }
            | DbResp::BinlogOut { op, .. }
            | DbResp::DumpOut { op, .. }
            | DbResp::RestoreOk { op }
            | DbResp::Pong { op, .. }
            | DbResp::ApplyOk { op, .. }
            | DbResp::ApplyErr { op, .. } => *op,
        }
    }
}

/// A commit observed at a backend: the binlog LSN it got. The writeset
/// stays at the node: the middleware certifies the records
/// [`DbOp::Delegate`] returns and has no use for a commit's.
#[derive(Debug, Clone)]
pub struct CommitNote {
    pub lsn: Lsn,
}

/// One event totally ordered among middleware peers (the replication
/// traffic itself). A total-order slot carries a `Vec` of them: one event
/// unbatched, or a group-committed batch whose events every peer runs in
/// vector order.
#[derive(Debug, Clone)]
pub enum ReplEvent {
    /// Statement-based replication: one (possibly rewritten) write
    /// statement, executed by every middleware on every backend in delivery
    /// order.
    Statement {
        session: SessionId,
        stmt_seq: u64,
        /// The admission-time parse, rewritten if the statement was: what
        /// every backend executes and what the recovery log keeps.
        ast: PlanExec,
    },
    /// One transaction's writeset part for one group's stream, published
    /// into the stream of *every* group the transaction writes: one event
    /// when it writes one group. Each peer certifies the part in that
    /// group's certifier shard at delivery (the vote is a pure function of
    /// the group-local stream, so every replica computes the same vote
    /// without extra wire messages) and the decision is the AND over the
    /// involved groups' votes, reached when the last involved stream
    /// delivers its part. A single-group commit is a quorum of one.
    Certify {
        session: SessionId,
        stmt_seq: u64,
        /// Every group the transaction writes (sorted; identifies the
        /// decision quorum).
        groups: Vec<u32>,
        /// This group's certifier position when the transaction began.
        start_pos: u64,
        /// The writeset part touching this group's tables only.
        part: Writeset,
    },
    /// Session teardown (propagated so peers drop replicated session state).
    SessionEnd { session: SessionId },
}

/// Management commands injected by the operator/harness (§4.4: backup and
/// replica management are normal operations a replication middleware must
/// coordinate).
#[derive(Debug, Clone)]
pub enum AdminCmd {
    /// Take a backup from `backend`. `hot`: the node keeps serving (but is
    /// slowed by the dump); cold: the node is removed from rotation first
    /// (checkpointed) and rejoins through the recovery log afterwards.
    Backup { backend: BackendId, hot: bool },
    /// Administratively remove a replica (planned maintenance, §4.4.2).
    RemoveBackend { backend: BackendId },
    /// Gracefully drain a replica out of rotation (planned maintenance,
    /// §4.4.1): new work stops routing to it immediately, in-flight
    /// operations are allowed to complete, then the backend parks in
    /// `Removed` — out of rotation even while alive, unlike the abrupt
    /// `RemoveBackend` which fails in-flight work. Re-admit it later with
    /// [`AdminCmd::AddBackend`].
    DrainBackend { backend: BackendId },
    /// Re-admit a previously drained/removed replica: it is marked down
    /// and the next pong starts the normal rejoin procedure (§4.4.2).
    AddBackend { backend: BackendId },
    /// Tear down a client session (disconnect). The middleware publishes
    /// `ReplEvent::SessionEnd` through the total order so every peer drops
    /// the replicated session state — including latency metadata and
    /// stashed 2-safe bodies, which used to leak (see `end_session`).
    EndSession { session: SessionId },
}

/// Everything that can travel between nodes in the simulation.
#[derive(Debug, Clone)]
pub enum Msg {
    Admin(AdminCmd),
    Request(ClientRequest),
    Reply(ClientReply),
    Db(DbOp),
    DbR(DbResp),
    /// GCS traffic for one per-group sequencer. Each table group runs its
    /// own independent `GroupMember` stream (full replication: the one
    /// group 0); the tag routes the message to the right shard. Each payload
    /// is one total-order slot: the events it delivers together.
    GroupShard { group: u32, msg: GcsMsg<Vec<ReplEvent>> },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_error_retryability() {
        assert!(ReplyError::Unavailable("x".into()).is_retryable());
        assert!(!ReplyError::Rejected("x".into()).is_retryable());
        assert!(ReplyError::Degraded("x".into()).is_retryable());
        assert!(ReplyError::Sql(SqlError::SerializationFailure("r".into())).is_retryable());
        assert!(!ReplyError::Sql(SqlError::DuplicateKey("k".into())).is_retryable());
    }

    #[test]
    fn db_resp_op_extraction() {
        assert_eq!(DbResp::RestoreOk { op: 7 }.op(), 7);
        assert_eq!(
            DbResp::ExecErr { op: 9, err: SqlError::Internal("x".into()) }.op(),
            9
        );
    }
}
