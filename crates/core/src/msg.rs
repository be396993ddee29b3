//! Wire protocol of the simulated cluster: client ↔ middleware ↔ database
//! nodes, plus the replication traffic between middleware peers.

use std::borrow::Cow;
use std::sync::{Arc, LazyLock};

use replimid_gcs::GcsMsg;
use replimid_sql::ast::{IsolationLevel, Statement};
use replimid_sql::{keycode, BinlogEntry, Dump, Lsn, ResultSet, SqlError, Value, Writeset};

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

/// Idempotence spaces for applied entries. A node tracks two independent
/// positions: the master's binlog LSN space (log shipping) and the
/// middleware's ordered-statement sequence space (total order + recovery
/// replay). They must never be conflated — binlog LSNs start past the
/// schema-load entries, ordered sequences start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplySpace {
    /// No tracking (apply unconditionally).
    None,
    /// Master binlog LSNs: skip entries at or below `applied_lsn`.
    Binlog,
    /// Ordered replication-log sequence numbers: skip entries at or below
    /// the node's ordered-applied position.
    Ordered,
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

    /// Compact wire encoding: the template's canonical text (parameters
    /// render as `?`) plus keycode-encoded params. This is what would cross
    /// a real network — far smaller than a serialized AST, and the receiver
    /// still skips per-statement parsing by caching templates keyed on the
    /// template text (which IS the normalization key).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        keycode::encode_str(&mut out, &self.template.to_string());
        keycode::encode_u64(&mut out, self.params.len() as u64);
        for v in &self.params {
            match v {
                Value::Null => out.push(0),
                Value::Int(i) => {
                    out.push(1);
                    keycode::encode_i64(&mut out, *i);
                }
                Value::Float(f) => {
                    out.push(2);
                    keycode::encode_u64(&mut out, f.to_bits());
                }
                Value::Text(s) => {
                    out.push(3);
                    keycode::encode_str(&mut out, s);
                }
                Value::Bool(b) => out.push(4 + *b as u8),
                Value::Timestamp(t) => {
                    out.push(6);
                    keycode::encode_i64(&mut out, *t);
                }
            }
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<PlanExec, String> {
        let e = |e: keycode::KeycodeError| format!("{e:?}");
        let (text, mut rest) = keycode::decode_str(bytes).map_err(e)?;
        let template =
            replimid_sql::parse_statement(&text).map_err(|err| format!("template: {err}"))?;
        let (n, r) = keycode::decode_u64(rest).map_err(e)?;
        rest = r;
        let mut params = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (&tag, r) = rest.split_first().ok_or("truncated param tag")?;
            rest = r;
            let v = match tag {
                0 => Value::Null,
                1 => {
                    let (i, r) = keycode::decode_i64(rest).map_err(e)?;
                    rest = r;
                    Value::Int(i)
                }
                2 => {
                    let (b, r) = keycode::decode_u64(rest).map_err(e)?;
                    rest = r;
                    Value::Float(f64::from_bits(b))
                }
                3 => {
                    let (s, r) = keycode::decode_str(rest).map_err(e)?;
                    rest = r;
                    Value::Text(s)
                }
                4 => Value::Bool(false),
                5 => Value::Bool(true),
                6 => {
                    let (i, r) = keycode::decode_i64(rest).map_err(e)?;
                    rest = r;
                    Value::Timestamp(i)
                }
                t => return Err(format!("bad param tag {t}")),
            };
            params.push(v);
        }
        Ok(PlanExec { template: Arc::new(template), params })
    }
}

/// Operations the middleware sends to a database node. `op` is a
/// correlation id echoed in the response.
#[derive(Debug, Clone)]
pub enum DbOp {
    /// Execute one statement on the (lazily created) connection `conn`.
    /// The node binds the plan's params and runs `Engine::execute_prepared`.
    /// `seq` is the replication-log position for totally-ordered writes:
    /// the node records it durably and *skips* statements it has already
    /// applied — this is what makes recovery replay idempotent when an
    /// acknowledgment raced a failure declaration (§4.4.2: "the middleware
    /// has often no information on which transactions committed prior to
    /// the failure; this information is only known to the database").
    Execute { op: u64, conn: u64, plan: PlanExec, seq: Option<u64> },
    /// Execute a group-committed batch of ordered statements as one message.
    /// Statements run in batch order on their own connections; the node
    /// skips already-applied `seq`s individually (same idempotence contract
    /// as `Execute`) and charges the batch's cost via the parallel-replay
    /// grouping over written tables, which is where grouped apply wins.
    ExecuteBatch { op: u64, stmts: Vec<BatchItem> },
    /// Writeset mode's one op at a transaction's delegate, on connection
    /// `conn`: `begin` (the BEGIN opening the transaction's snapshot), then
    /// `stmt`, each when present; with `writeset` the answer is the open
    /// transaction's writeset (`WritesetOut`) instead of the statement's
    /// result. An explicit COMMIT is the extraction alone. The node charges
    /// what the separate `Execute`s would have cost, and the extraction
    /// nothing. `begin` with `writeset` is an implicit transaction: a failed
    /// statement rolls it back at the node, charged as that ROLLBACK.
    Delegate { op: u64, conn: u64, begin: Option<PlanExec>, stmt: Option<PlanExec>, writeset: bool },
    /// Apply a certified writeset as one transaction.
    ApplyWriteset { op: u64, ws: Writeset },
    /// Apply shipped binlog entries (slave side). `parallel_apply` groups
    /// entries touching disjoint tables and charges only the longest group
    /// (the §4.4.2 "extraction of parallelism from the log").
    /// `foreign_lsn`: entry LSNs live in the sender's (master's) LSN space —
    /// track them in `applied_lsn` and skip already-applied entries
    /// (idempotent shipping). Recovery replay uses its own sequence space
    /// and passes false.
    ApplyBinlog {
        op: u64,
        entries: Vec<BinlogEntry>,
        use_writesets: bool,
        parallel_apply: bool,
        /// Which idempotence space the entry LSNs live in (see [`ApplySpace`]).
        space: ApplySpace,
    },
    /// Fetch binlog entries after an LSN (master side of log shipping).
    BinlogAfter { op: u64, after: Lsn },
    /// Take a dump (hot backup: the node keeps serving but is slowed).
    Dump { op: u64, include_programs: bool, include_principals: bool },
    /// Load a dump (used to initialize or resynchronize a replica).
    /// `baseline` is the source's binlog LSN at dump time; `ordered_baseline`
    /// is the middleware's ordered-log position the dump is consistent with.
    Restore { op: u64, dump: Box<Dump>, baseline: Lsn, ordered_baseline: u64 },
    /// State checksum for divergence detection.
    Checksum { op: u64, full: bool },
    /// Liveness probe, carrying who still reads the node's binlog: `Some`
    /// the lowest LSN a reader may still ask for (`BinlogAfter`'s `after`),
    /// `None` when nothing ever will (see `Engine::set_binlog_horizon`).
    Ping { op: u64, binlog_horizon: Option<Lsn> },
    /// Drop a session's connection (client disconnected): releases temp
    /// tables and aborts open transactions.
    Disconnect { conn: u64 },
}

/// One statement of a grouped [`DbOp::ExecuteBatch`].
#[derive(Debug, Clone)]
pub struct BatchItem {
    pub conn: u64,
    pub plan: PlanExec,
    /// Replication-log position (see [`DbOp::Execute`]'s `seq`).
    pub seq: Option<u64>,
}

/// Per-statement outcome inside an [`DbResp::ExecBatchOut`]: the payload
/// the corresponding `ExecOk`/`ExecErr` would have carried.
#[derive(Debug, Clone)]
pub enum BatchExecResult {
    Ok { body: ReplyBody, commit: Option<CommitNote>, tainted: bool },
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
        tainted: bool,
    },
    ExecErr { op: u64, err: SqlError },
    /// Results of a grouped execute, one per statement, in batch order.
    ExecBatchOut { op: u64, results: Vec<BatchExecResult> },
    WritesetOut { op: u64, ws: Box<Writeset> },
    BinlogOut {
        op: u64,
        entries: Vec<BinlogEntry>,
        /// The log was truncated past the requested LSN: full resync needed.
        resync_needed: bool,
        head: Lsn,
    },
    DumpOut { op: u64, dump: Box<Dump>, head: Lsn },
    RestoreOk { op: u64 },
    ChecksumOut { op: u64, value: u64 },
    Pong {
        op: u64,
        applied_lsn: Lsn,
        head: Lsn,
        /// Highest ordered-statement sequence the node has durably applied.
        /// After a lossy crash (lost/torn WAL tail) this can sit *below*
        /// the middleware's recovery-log checkpoint for the backend; the
        /// middleware must replay from the node's position, not its own.
        ordered_applied: u64,
        /// The ordered position no crash kind can take the node below: its
        /// last fsync or installed checkpoint, and `ordered_applied` without
        /// durability (state survives a crash by fiat). No rejoin of this
        /// node can start below it.
        durable_ordered: u64,
    },
    ApplyOk { op: u64, applied_lsn: Lsn },
    ApplyErr { op: u64, err: SqlError },
}

impl DbResp {
    pub fn op(&self) -> u64 {
        match self {
            DbResp::ExecOk { op, .. }
            | DbResp::ExecErr { op, .. }
            | DbResp::ExecBatchOut { op, .. }
            | DbResp::WritesetOut { op, .. }
            | DbResp::BinlogOut { op, .. }
            | DbResp::DumpOut { op, .. }
            | DbResp::RestoreOk { op }
            | DbResp::ChecksumOut { op, .. }
            | DbResp::Pong { op, .. }
            | DbResp::ApplyOk { op, .. }
            | DbResp::ApplyErr { op, .. } => *op,
        }
    }
}

/// A commit observed at a backend: the binlog LSN it got. The writeset
/// stays at the node: the middleware certifies the writesets it asks for
/// with [`DbOp::Delegate`] and has no use for a commit's.
#[derive(Debug, Clone)]
pub struct CommitNote {
    pub lsn: Lsn,
}

/// Payload totally ordered among middleware peers (the replication traffic
/// itself).
#[derive(Debug, Clone)]
pub enum ReplEvent {
    /// Statement-based replication: one (possibly rewritten) write
    /// statement, executed by every middleware on every backend in delivery
    /// order.
    Statement {
        session: SessionId,
        stmt_seq: u64,
        /// The statement's text for the recovery log, whose replay ships
        /// text (`DbOp::ApplyBinlog`).
        sql: String,
        /// The admission-time parse of `sql`: what every backend executes.
        /// `sql` stays the canonical logged form; `ast` always binds to the
        /// same statement.
        ast: PlanExec,
        /// The statement's written tables (its conflict classes, logged
        /// with it), taken from the admission-time parse.
        tables: Vec<String>,
    },
    /// Certification request for a transaction's writeset.
    Certify {
        session: SessionId,
        stmt_seq: u64,
        /// Certifier position when the transaction began.
        start_pos: u64,
        ws: Writeset,
    },
    /// Cross-group prepare (partial replication): one multi-group
    /// transaction's writeset slice for this group's stream. Published into
    /// *every* involved group's total order; each peer certifies the slice
    /// in that group's certifier shard at delivery (the vote is a pure
    /// function of the group-local stream, so every replica computes the
    /// same vote without extra wire messages) and the global decision is
    /// the AND over all involved groups' votes, reached when the last
    /// involved stream delivers its slice.
    XPrepare {
        session: SessionId,
        stmt_seq: u64,
        /// Every group the transaction touches (sorted; identifies the
        /// decision quorum).
        groups: Vec<u32>,
        /// This group's certifier position when the transaction began.
        start_pos: u64,
        /// The writeset slice touching this group's tables only.
        part: Writeset,
    },
    /// Session teardown (propagated so peers drop replicated session state).
    SessionEnd { session: SessionId },
    /// A group-committed batch: the contained events occupy ONE total-order
    /// slot and are applied in vector order at every peer, so the admission
    /// order inside the batch is preserved exactly. Batches never nest.
    Batch { events: Vec<ReplEvent> },
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
    /// group 0); the tag routes the message to the right shard.
    GroupShard { group: u32, msg: GcsMsg<ReplEvent> },
    /// Master→slave binlog shipping (master-slave mode, no GCS involved).
    Ship { entries: Vec<BinlogEntry>, seq: u64 },
    ShipAck { upto: Lsn, seq: u64 },
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
    fn plan_exec_codec_round_trip() {
        let form = replimid_sql::normalize("UPDATE t SET v = -2.5, s = 'o''brien' WHERE k = 7")
            .unwrap();
        let cached = replimid_sql::CachedPlan::prepare(&form).unwrap();
        let plan = PlanExec { template: cached.template.clone(), params: form.params };
        let decoded = PlanExec::decode(&plan.encode()).unwrap();
        assert_eq!(*decoded.template, *plan.template);
        assert_eq!(decoded.params, plan.params);
        assert_eq!(decoded.bind().unwrap(), plan.bind().unwrap());
        // The wire image is the compact form: template text + params, far
        // smaller than the rendered-per-literal SQL would be for large text.
        let all_params = [
            Value::Null,
            Value::Int(-5),
            Value::Float(2.5),
            Value::Text("x?y".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(42),
        ];
        let p2 = PlanExec { template: plan.template.clone(), params: all_params.to_vec() };
        let d2 = PlanExec::decode(&p2.encode()).unwrap();
        assert_eq!(d2.params, p2.params);
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
