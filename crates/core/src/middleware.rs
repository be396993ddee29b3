//! The replication middleware (the paper's subject): a JDBC-proxy-style
//! controller (Fig. 7) between clients and database replicas.
//!
//! One `Middleware` actor implements, selected by [`Mode`]:
//!
//! * **Multi-master statement replication** — write statements are rewritten
//!   (§4.3.2), totally ordered through the peer group (replimid-gcs), logged
//!   in the Sequoia-style recovery log (§4.4.2), and executed on every
//!   backend; reads are load-balanced locally (§3.2).
//! * **Multi-master writeset replication** — transactions execute on one
//!   delegate backend; at COMMIT the writeset is extracted, certified in
//!   total order (first-committer-wins), then committed at the delegate and
//!   applied everywhere else.
//! * **Master-slave** — writes to the master, reads on slaves, binlog
//!   shipping 1-safe (async, bounded loss window) or 2-safe (commit waits
//!   for the slave), hot-standby failover with promotion of the most
//!   caught-up slave (§2.2).
//! * **Partitioned statement replication** — Fig. 2: writes route to the
//!   owning partition's replica group; scans scatter.
//!
//! Middleware peers replicate session write state through the total order,
//! which is what makes client failover transparent (the Sequoia claim,
//! §4.3.3): a client that times out on one middleware retries the same
//! (session, stmt_seq) on a peer, which deduplicates.

use std::collections::{HashMap, HashSet, VecDeque};

use replimid_gcs::{
    Action as GAction, AdaptiveConfig, AdaptiveThreshold, GcsConfig, HeartbeatConfig, MemberId,
    ShardedMember,
};
use replimid_simnet::{Actor, Ctx, NodeId, SimTime};
use std::sync::Arc;

use replimid_sql::ast::{IsolationLevel, ObjectName, Statement};
use replimid_sql::{parse_statement, CachedPlan, Lsn, PlanCache, SqlError, Value, Watermark, Writeset};

use crate::balancer::{Balancer, Granularity, Policy};
use crate::certifier::{Certifier, CertifierStats, Verdict};
use crate::health::{HealthEvent, HealthTracker, QuarantineConfig};
use crate::metrics::{AvailabilityTracker, Counters, DegradedTracker, Histogram};
use crate::msg::{
    AdminCmd, ApplySpace, BackendId, BatchItem, ClientReply, ClientRequest, DbOp, DbResp, Msg,
    PlanExec, ReplEvent, ReplyBody, ReplyError, SessionId,
};
use crate::partition::{Partitioner, Placement, Route};
use crate::recovery::{RecoveryLog, ReplayMode};
use crate::rewrite::{prepare_for_broadcast, NondetPolicy};
use crate::session::SessionTable;
use crate::trace::{Stage, TraceId, TraceSink};

/// Timer tags.
const TIMER_PING: u64 = 2;
const TIMER_SHIP: u64 = 3;
/// The one op-timeout timer, armed at the deadline of the oldest op in
/// flight (see [`Middleware::sweep_op_timeouts`]).
const TIMER_OP_SWEEP: u64 = 4;
/// Freshness-wait deadlines: TIMER_FRESH_BASE + waiter id. A read parked
/// for a fresh-enough replica is released early by `drain_fresh_waiters`;
/// this timer is the wait-or-primary escape hatch.
const TIMER_FRESH_BASE: u64 = 500_000_000;
/// Per-group sequencer heartbeat ticks, tagged `SHARD_TICK_BASE + group` so
/// `on_timer` can route each tick back to its shard (the embedded
/// `GroupMember`s all arm the same `TICK_TAG`).
const SHARD_TICK_BASE: u64 = 100;
/// Per-group group-commit flush deadlines, tagged `SHARD_BATCH_BASE + group`.
const SHARD_BATCH_BASE: u64 = 500;
/// Hard cap on table groups — keeps the shard timer-tag ranges disjoint
/// from each other and from the tags above.
pub(crate) const MAX_GROUPS: usize = 64;

/// Replication strategy.
#[derive(Debug, Clone)]
pub enum Mode {
    MultiMasterStatement { nondet: NondetPolicy },
    MultiMasterWriteset,
    MasterSlave {
        /// 2-safe: the client's commit acknowledgment waits until every live
        /// slave applied the entry (§2.2). 1-safe otherwise.
        two_safe: bool,
        ship_interval_us: u64,
        use_writesets: bool,
        parallel_apply: bool,
        /// Allow reads on the master when slaves lag or for session
        /// consistency.
        read_master: bool,
    },
    PartitionedStatement {
        partitioner: Partitioner,
        /// Backend ids per partition (replica groups).
        groups: Vec<Vec<BackendId>>,
    },
}

/// Read routing (consistency knob, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Any healthy replica (GSI-flavoured: may read stale state in writeset
    /// or master-slave modes).
    Any,
    /// Read where you last wrote (session consistency / strong session SI).
    SessionSticky,
    /// Freshness-constrained routing (the Hihooi design): any replica whose
    /// applied position has reached the session's last committed write
    /// qualifies — reads spread across every fresh replica instead of
    /// pinning to one, and read-your-writes holds by construction. When no
    /// replica qualifies the read parks until the freshness vector catches
    /// up, bounded by `MwConfig::freshness_wait_max_us` (then
    /// wait-or-primary kicks in).
    Fresh,
    /// Freshness routing with a slack of `k` positions: a replica qualifies
    /// for a session's read when its applied position is within `k` of the
    /// session's last committed write (`applied_pos >= floor - k`). `k = 0`
    /// is exactly [`ReadPolicy::Fresh`]; larger `k` trades bounded
    /// read-your-writes violations for fewer parked reads — the continuous
    /// consistency/performance dial the paper's §3.3 taxonomy only samples
    /// at its endpoints.
    BoundedStaleness(u64),
    /// Monotonic reads (the §3.3 session guarantee [`ReadPolicy::Fresh`]
    /// does not give to read-only sessions): a session's reads never go
    /// backwards in replication time. The freshness stamp is the max of the
    /// session's last committed write AND the highest replica position any
    /// of its reads has already observed, so two successive reads with no
    /// write in between cannot land on a replica older than the first one.
    MonotonicReads,
}

impl ReadPolicy {
    /// How far behind a session's write stamp a replica may be and still
    /// serve its reads: `Some(0)` for [`ReadPolicy::Fresh`], `Some(k)` for
    /// [`ReadPolicy::BoundedStaleness`], `None` when freshness routing is
    /// off entirely.
    pub fn freshness_slack(&self) -> Option<u64> {
        match self {
            ReadPolicy::Fresh | ReadPolicy::MonotonicReads => Some(0),
            ReadPolicy::BoundedStaleness(k) => Some(*k),
            ReadPolicy::Any | ReadPolicy::SessionSticky => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct MwConfig {
    pub mode: Mode,
    pub granularity: Granularity,
    pub policy: Policy,
    pub read_policy: ReadPolicy,
    /// Backend failure detection: ping interval + silence timeout.
    pub heartbeat: HeartbeatConfig,
    /// Per-operation timeout (detects backend death mid-request).
    pub op_timeout_us: u64,
    pub gcs: GcsConfig,
    /// (database, table) -> primary key column index (the certifier's schema
    /// knowledge; built by the cluster builder).
    pub pk_map: HashMap<(String, String), usize>,
    pub recovery_batch: usize,
    pub replay_mode: ReplayMode,
    /// When a rejoining replica is within this many log entries of the head,
    /// the middleware enacts the global barrier for the final hop (§4.4.2).
    pub barrier_threshold: u64,
    /// Default database of client sessions, recorded with logged statements
    /// so recovery replay executes them in the right database.
    pub default_db: Option<String>,
    /// §4.3.4.3: refuse writes unless this middleware's group view holds a
    /// strict majority of the peers — the C-and-A-over-P stance. Off by
    /// default (a 2-replica middleware pair has no useful majority).
    pub require_majority: bool,
    /// Latency circuit breaker for gray failures: quarantine backends whose
    /// completed-op latency degrades far past their own baseline. Off
    /// (`None`) by default — quarantine filters read routing and delegate
    /// selection only; replication fan-out always includes quarantined
    /// backends so they stay consistent.
    pub quarantine: Option<QuarantineConfig>,
    /// Degrade to read-only instead of hard unavailability when fewer than
    /// floor(n/2)+1 backends are online: reads keep flowing off the
    /// survivors, writes fail fast with [`ReplyError::Degraded`]. Off by
    /// default.
    pub degrade_to_read_only: bool,
    /// Accrual-style adaptive silence thresholds for *backend* failure
    /// detection (§4.3.4.2): a browned-out backend whose pongs stretch
    /// raises its own timeout instead of being evicted. The fixed
    /// `heartbeat.timeout_us` should equal the adaptive floor. Off (`None`)
    /// by default.
    pub adaptive_detection: Option<AdaptiveConfig>,
    /// Group-commit batching on the totally-ordered write path: admitted
    /// writes accumulate until `batch_max` events are buffered (size flush)
    /// or `batch_deadline_us` elapses since the first buffered event
    /// (deadline flush), then ship as ONE total-order slot. 1 disables
    /// batching entirely — the write path is byte-identical to the
    /// unbatched implementation.
    pub batch_max: usize,
    /// Deadline for a partially-filled batch (virtual µs). Irrelevant when
    /// `batch_max <= 1`.
    pub batch_deadline_us: u64,
    /// [`ReadPolicy::Fresh`] only: how long a read may park waiting for a
    /// fresh-enough replica before the wait-or-primary fallback serves it
    /// (master-slave: the master, which is always fresh; multi-master: the
    /// most caught-up candidate). Bounds read latency under replication
    /// lag without giving up freshness in the common case.
    pub freshness_wait_max_us: u64,
    /// Middleware-side prepared-statement cache capacity (templates). With
    /// a non-zero capacity each client statement is normalized (literals →
    /// params) and repeat shapes reuse the cached parse. 0 means no reuse:
    /// every statement is parsed whole. Either way backends receive the
    /// admission-time parse (`DbOp::Execute`), never SQL text.
    pub plan_cache: usize,
    /// Partial replication (the scale-past-full-replication gap): a
    /// table-group placement map. Each group gets its own sequencer (an
    /// independent total-order stream with a dense per-group position
    /// space), its own certifier shard, its own recovery-log stream, and
    /// its own group-commit buffer; writesets fan out only to the backends
    /// hosting their group. Placement restricts *replication and read
    /// routing*, not schema — every backend keeps the full schema, only
    /// row flow is partial. `None` is full replication: the one-group
    /// placement hosted by every backend, the same pipeline with G = 1.
    /// Writeset mode only.
    pub placement: Option<Placement>,
    /// Backend indices that start in [`BackendState::Removed`] — spare
    /// capacity provisioned but not yet admitted, so an elasticity
    /// experiment can `AddBackend` one under live load. Empty by default.
    pub initial_removed: Vec<usize>,
}

impl MwConfig {
    pub fn defaults(mode: Mode) -> Self {
        MwConfig {
            mode,
            granularity: Granularity::Query,
            policy: Policy::Lprf,
            read_policy: ReadPolicy::Any,
            heartbeat: HeartbeatConfig::lan(),
            op_timeout_us: 1_000_000,
            gcs: GcsConfig::lan(replimid_gcs::OrderProtocol::FixedSequencer),
            pk_map: HashMap::new(),
            recovery_batch: 64,
            replay_mode: ReplayMode::Serial,
            barrier_threshold: 16,
            default_db: None,
            require_majority: false,
            quarantine: None,
            degrade_to_read_only: false,
            adaptive_detection: None,
            batch_max: 1,
            batch_deadline_us: 200,
            freshness_wait_max_us: 20_000,
            plan_cache: 0,
            placement: None,
            initial_removed: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum BackendState {
    Online,
    Down,
    /// Replaying the recovery log: `next` holds (group, position replayed
    /// through) for every group the backend hosts.
    Recovering { next: Vec<(usize, u64)>, inflight: bool },
    /// Full resynchronization via dump + catch-up.
    Resyncing,
    /// Graceful removal in progress: out of routing and fan-out, but
    /// in-flight operations are allowed to complete before the backend
    /// parks in [`BackendState::Removed`].
    Draining,
    /// Administratively out of rotation: alive (it still pongs) but not
    /// serving, replicating, or rejoining. Only `AdminCmd::AddBackend`
    /// brings it back (via `Down` + the normal rejoin machinery).
    Removed,
}

#[derive(Debug)]
struct Backend {
    node: NodeId,
    state: BackendState,
    last_pong_us: u64,
    /// Binlog LSN this backend reported applied (master-slave).
    applied_lsn: Lsn,
    /// Per group, the lowest ordered position the node could come back
    /// at: its last pong's durable position, or at a rejoin the position it
    /// reported, which recovery replays from. Empty (0 everywhere) until
    /// the first pong.
    node_pos: Vec<u64>,
    /// Virtual time the current drain started (0 = not draining).
    drain_started_us: u64,
}

impl Backend {
    fn online(&self) -> bool {
        self.state == BackendState::Online
    }
}

#[derive(Debug, Clone)]
enum CurrentKind {
    Read {
        #[allow(dead_code)] // recorded for diagnostics
        backend: BackendId,
    },
    /// Waiting for our published write to come back through the total order.
    OrderedWait,
    /// Waiting for the local exec fan-out to finish.
    ExecGroup {
        #[allow(dead_code)] // recorded for diagnostics
        group: u64,
    },
    /// Writeset mode: statement executing at the delegate. `opened`: the
    /// same op ran the transaction's BEGIN first.
    WsStmt { opened: bool },
    /// Writeset mode: an autocommit write at its delegate, whose records
    /// certify as soon as it answers.
    WsPrepare,
    /// Writeset mode: certification published, waiting for delivery.
    WsCertifyWait,
    /// Writeset mode: delegate commit + remote applies in flight.
    WsFinalize { remaining: usize, failed: bool },
    /// Master-slave: write executing at the master.
    MsWrite {
        #[allow(dead_code)]
        backend: BackendId,
    },
    /// Master-slave 2-safe: waiting for slave appliance.
    MsTwoSafe { remaining: usize },
    /// Statement pinned to the session's temp-table backend.
    TempExec {
        #[allow(dead_code)]
        backend: BackendId,
    },
    /// Read parked in the freshness wait queue ([`ReadPolicy::Fresh`]):
    /// no replica had applied the session's last committed write yet.
    FreshWait,
}

#[derive(Debug, Clone)]
struct Current {
    stmt_seq: u64,
    kind: CurrentKind,
}

#[derive(Debug)]
struct Sess {
    client: Option<NodeId>,
    last_replied: u64,
    cached: Option<ClientReply>,
    current: Option<Current>,
    in_tx: bool,
    wrote_in_tx: bool,
    /// Sticky backend: connection-granularity choice, temp-table pin, or
    /// writeset delegate.
    sticky: Option<BackendId>,
    temp_pinned: bool,
    temp_tables: HashSet<String>,
    /// Per-group certification start positions, sampled from the
    /// delegate's per-group watermarks when its BEGIN executes (indexed by
    /// group; the whole vector is sampled at once).
    gstart: Vec<u64>,
    /// The session's per-group read floor: the position of its last
    /// acknowledged write in each group's replication space (certified
    /// stream in writeset mode; in group 0, recovery-log seq for statement
    /// replication and master binlog LSN for master-slave), raised under
    /// [`ReadPolicy::MonotonicReads`] to the highest position any of its
    /// reads has observed. A replica is fresh for this session iff its
    /// applied position has reached the floor in every group it reads.
    /// Grown on demand; groups the session never touched stay 0.
    gstamps: Vec<u64>,
    last_write_us: u64,
    last_write_backend: Option<BackendId>,
    /// Writeset mode: the client's BEGIN (its isolation level),
    /// acknowledged but not yet executed anywhere. `Some` until the
    /// transaction's first statement picks the delegate and runs it there.
    begin: Option<Option<IsolationLevel>>,
    /// Writeset mode: the write records the open transaction's statements
    /// returned from the delegate, in order; COMMIT certifies them.
    ws: Writeset,
    /// Writeset mode: a failed statement left the delegate's transaction
    /// able only to roll back, so COMMIT answers the abort.
    poisoned: bool,
    /// Open per-statement admission records (was the middleware-global
    /// `request_started` map, which `SessionEnd` leaked): (stmt_seq, meta).
    /// At most a handful in flight per session; dropped with the session.
    open_reqs: Vec<(u64, ReqMeta)>,
    /// 2-safe commits: the master's reply body held until slaves confirm
    /// (was the middleware-global `two_safe_bodies` map — same leak, plus a
    /// stale body could be drained by a later commit of a reused session).
    two_safe_body: Option<ReplyBody>,
}

impl Sess {
    fn new(client: Option<NodeId>) -> Self {
        Sess {
            client,
            last_replied: 0,
            cached: None,
            current: None,
            in_tx: false,
            wrote_in_tx: false,
            sticky: None,
            temp_pinned: false,
            temp_tables: HashSet::new(),
            gstart: Vec::new(),
            gstamps: Vec::new(),
            last_write_us: 0,
            last_write_backend: None,
            begin: None,
            ws: Writeset::default(),
            poisoned: false,
            open_reqs: Vec::new(),
            two_safe_body: None,
        }
    }

    /// The session's transaction is over, however it ended.
    fn end_tx(&mut self) {
        self.in_tx = false;
        self.wrote_in_tx = false;
        self.begin = None;
        self.ws = Writeset::default();
        self.poisoned = false;
    }
}

/// Fan-out of one ordered statement to the local backends.
#[derive(Debug)]
struct ExecGroup {
    session: SessionId,
    stmt_seq: u64,
    remaining: usize,
    /// First result received (canonical; divergent results are counted).
    canonical: Option<Result<ReplyBody, SqlError>>,
    origin: bool,
    log_seq: u64,
}

#[derive(Debug)]
enum Pending {
    ClientExec { session: SessionId, backend: BackendId },
    GroupExec { group: u64, backend: BackendId },
    /// One grouped `ExecuteBatch` covering a whole flushed batch at one
    /// backend; `groups` are the per-statement exec groups, in batch order.
    GroupExecBatch { groups: Vec<u64>, backend: BackendId },
    /// The delegate's single COMMIT for a (possibly multi-group)
    /// transaction; `marks` are the (group, position) pairs its ack
    /// credits to the backend's per-group watermarks.
    PwCommit { session: SessionId, backend: BackendId, marks: Vec<(u32, u64)> },
    /// A certified transaction's writeset applied at one non-delegate host:
    /// the parts of every involved group it hosts, one op; `marks` as in
    /// `PwCommit`.
    PwApply { session: Option<SessionId>, backend: BackendId, marks: Vec<(u32, u64)> },
    Ping { backend: BackendId },
    /// A `BinlogAfter` at the master; `after` pins the ship horizon until
    /// the answer is back.
    ShipFetch { after: Lsn },
    TwoSafeFetch { session: SessionId, after: Lsn },
    ShipApply { backend: BackendId, session: Option<SessionId>, upto: Lsn },
    /// One replay batch of group `group`'s stream, through `upto`.
    RecoveryBatch { backend: BackendId, group: usize, upto: u64 },
    /// A full resync's dump at the donor for `target`; `heads` are the
    /// per-group log heads when the dump was requested.
    ResyncDumpReq { target: BackendId, heads: Vec<u64> },
    BackupDump { backend: BackendId, hot: bool, started_us: u64 },
    /// A full resync's restore at the rejoining backend.
    ResyncRestore { backend: BackendId, baseline: Lsn, heads: Vec<u64> },
    FireAndForget,
}

/// Aggregated metrics exposed to the harness.
#[derive(Debug, Clone)]
pub struct MwMetrics {
    pub counters: Counters,
    pub read_latency: Histogram,
    pub write_latency: Histogram,
    pub availability: AvailabilityTracker,
    /// (virtual time µs, master binlog head − slave applied) samples.
    pub lag_samples: Vec<(u64, u64)>,
    /// Completed backups: (start µs, end µs, hot, rows).
    pub backups: Vec<(u64, u64, bool, u64)>,
    /// Times (µs) at which a backend was declared failed.
    pub failover_times: Vec<u64>,
    /// Completed rejoins: (backend index, recovery start µs, online µs).
    pub recoveries: Vec<(usize, u64, u64)>,
    /// Time spent in degraded read-only mode (write quorum lost).
    pub degraded: DegradedTracker,
    /// Quarantine transition log: (µs, backend index, event). Mirrors the
    /// per-backend [`HealthTracker`] logs for post-run assertions.
    pub quarantine_events: Vec<(u64, usize, HealthEvent)>,
    /// Per-request latency attribution: one trace window per admitted
    /// statement, spans recorded at each middleware stage transition.
    pub trace: TraceSink,
    /// Certification-stage statistics (writeset mode).
    pub certifier: crate::certifier::CertifierStats,
    /// Flushed group-commit batch sizes (events per flush). Empty when
    /// batching is off.
    pub batch_sizes: Histogram,
    /// Completed graceful drains: (backend index, start µs, removed µs).
    pub drains: Vec<(usize, u64, u64)>,
}

impl Default for MwMetrics {
    fn default() -> Self {
        MwMetrics {
            counters: Counters::default(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            availability: AvailabilityTracker::new(),
            lag_samples: Vec::new(),
            backups: Vec::new(),
            failover_times: Vec::new(),
            recoveries: Vec::new(),
            degraded: DegradedTracker::new(),
            quarantine_events: Vec::new(),
            trace: TraceSink::new(),
            certifier: crate::certifier::CertifierStats::default(),
            batch_sizes: Histogram::new(),
            drains: Vec::new(),
        }
    }
}

/// Admission-time record for one client statement: when it arrived, which
/// transaction trace it belongs to (0 = untraced), and whether it was
/// classified read-only. The classification is decided once, here, so the
/// reply path cannot mislabel the latency sample (reads that complete
/// through the generic write-side reply used to be counted as writes).
#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    start_us: u64,
    trace: u64,
    is_read: bool,
}

/// The middleware actor.
pub struct Middleware {
    cfg: MwConfig,
    /// Peer middleware nodes (including self at `me_idx`).
    peers: Vec<NodeId>,
    #[allow(dead_code)]
    me_idx: usize,
    backends: Vec<Backend>,
    balancer: Balancer,
    /// Per-session state, keyed by `SessionId.0`. A flat slab + index
    /// rather than a `HashMap`: at 10⁵–10⁶ concurrent sessions the hot
    /// path is O(bytes) per session and iteration order is deterministic
    /// (std's RandomState is not) — see [`SessionTable`].
    sessions: SessionTable<Sess>,
    /// Ops in flight at the backends: op id -> (what waits on it, dispatch
    /// µs). Ids are dispatched in time order and `op_timeout_us` is
    /// constant, so the first entry always has the earliest deadline.
    pending: std::collections::BTreeMap<u64, (Pending, u64)>,
    /// The `TIMER_OP_SWEEP` timer is queued.
    sweep_armed: bool,
    next_op: u64,
    exec_groups: HashMap<u64, ExecGroup>,
    next_group: u64,
    /// Global barrier for a recovering replica's final catch-up hop.
    barrier_for: Option<BackendId>,
    /// Master-slave state.
    master: BackendId,
    shipping_inflight: bool,
    /// Binlog horizon sent to the master with each ping: below every
    /// slave's applied LSN and every in-flight fetch's `after`, frozen
    /// while a slave resyncs (see [`Self::advance_ship_horizon`]).
    ship_horizon: Lsn,
    pub metrics: MwMetrics,
    /// Reads parked for a fresh-enough replica ([`ReadPolicy::Fresh`]),
    /// keyed by waiter id: BTreeMap so drains run in park order
    /// (deterministic and FIFO-fair).
    fresh_waiters: std::collections::BTreeMap<u64, ReadReq>,
    next_fresh: u64,
    /// Slaves with a shipping batch in flight (no overlapping batches).
    ship_busy: HashSet<BackendId>,
    /// Recovery start times (backend -> µs), for rejoin-duration metrics.
    recovery_started: HashMap<BackendId, u64>,
    /// Per-backend latency health (only consulted when cfg.quarantine set).
    health: Vec<HealthTracker>,
    /// How many health events per backend are already mirrored to metrics.
    health_seen: Vec<usize>,
    /// Backend -> op id of its in-flight half-open probe read.
    probe_op: HashMap<BackendId, u64>,
    /// Per-backend learned silence thresholds (cfg.adaptive_detection).
    pong_adaptive: Vec<AdaptiveThreshold>,
    /// Prepared-statement templates keyed by normalized SQL (capacity
    /// `cfg.plan_cache`; disabled at 0).
    plan_cache: PlanCache,
    /// Per-group replication state: ordering, certification, logging,
    /// apply tracking. Full replication is the one group every backend
    /// hosts.
    shards: Shards,
}

/// Why a group-commit batch left the buffer.
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    Size,
    Deadline,
}

/// A client statement as admission parsed it.
struct Admitted {
    /// The statement the client sent.
    stmt: Arc<Statement>,
    /// What backends execute: the cached template and its literals, or the
    /// statement itself (the same `Arc`) when nothing was cached.
    plan: PlanExec,
    /// The cached template's written tables, so no later stage walks the
    /// statement for them. `None` without a cached template.
    written: Option<Vec<ObjectName>>,
}

impl Admitted {
    fn whole(stmt: Statement) -> Admitted {
        let stmt = Arc::new(stmt);
        Admitted { plan: PlanExec::whole(stmt.clone()), stmt, written: None }
    }

    fn bound(cached: CachedPlan, params: Vec<Value>) -> Result<Admitted, SqlError> {
        let stmt = Arc::new(replimid_sql::bind(&cached.template, &params)?);
        Ok(Admitted {
            stmt,
            plan: PlanExec { template: cached.template, params },
            written: Some(cached.written_tables),
        })
    }
}

/// One client read on its way to a backend: dispatched at once, or parked in
/// `fresh_waiters` until a replica catches up to `needs` (or the wait
/// deadline fires).
#[derive(Debug, Clone)]
struct ReadReq {
    session: SessionId,
    stmt_seq: u64,
    plan: PlanExec,
    /// Table groups the statement reads: only their common hosts serve it.
    gset: Vec<usize>,
    /// (group, position) pairs a replica must have applied to serve it.
    needs: Vec<(usize, u64)>,
}

/// Per-group replication state. Group `g` has its own sequencer (`member`
/// shard `g`), certifier shard, recovery-log stream, and group-commit
/// buffer; backends advance one watermark per group. All of it is
/// deterministic from the per-group ordered streams, so every middleware
/// peer's copy agrees. Without a placement there is one group hosted by
/// every backend; its stream also carries the `Statement` and `SessionEnd`
/// events of statement and master-slave replication.
struct Shards {
    placement: Placement,
    member: ShardedMember<ReplEvent>,
    certs: Vec<Certifier>,
    logs: Vec<RecoveryLog>,
    /// `marks[backend][group]`: the positions of the group's stream the
    /// backend has acknowledged, a contiguous prefix plus those above it.
    /// Writeset mode samples a transaction's certification start from its
    /// delegate's marks *when its BEGIN executes there* — the middleware's
    /// own certifier position would hide a writeset certified but not yet
    /// applied from the conflict window of a snapshot that cannot see it
    /// (a lost update).
    marks: Vec<Vec<Watermark>>,
    /// Per group, positions voided since the group's last commit fan-out
    /// (aborted cross-group reservations). The next fan-out carries them
    /// to every host in rotation; a host out of rotation replays them.
    voided: Vec<Vec<u64>>,
    /// Per-group group-commit buffers and armed deadline-timer flags.
    batches: Vec<Vec<ReplEvent>>,
    batch_armed: Vec<bool>,
    /// In-flight cross-group transactions keyed by (session, stmt_seq):
    /// votes collected between the first involved delivery and the
    /// decision.
    xtx: HashMap<(u64, u64), XTx>,
    /// Deliveries buffered behind a recovery barrier, in arrival order.
    buffered: VecDeque<(usize, ReplEvent)>,
}

/// What [`Shards::admit`] decided for one write-path event.
#[derive(Debug)]
enum Admit {
    /// Batching is off: the event takes a total-order slot of its own.
    Direct(ReplEvent),
    /// Buffered, and the group's batch is now full: flush it.
    Full,
    /// Buffered as the first event of a batch: arm the group's deadline.
    Arm,
    /// Buffered behind an already armed deadline.
    Held,
}

impl Shards {
    fn new(placement: Placement, me: MemberId, peers: usize, gcs: GcsConfig, backends: usize) -> Self {
        let groups = placement.groups();
        let members: Vec<MemberId> = (0..peers).map(MemberId).collect();
        Shards {
            member: ShardedMember::new(me, members, gcs, 0, groups),
            certs: (0..groups).map(|_| Certifier::new()).collect(),
            logs: (0..groups).map(|_| RecoveryLog::new()).collect(),
            marks: (0..backends)
                .map(|_| (0..groups).map(|_| Watermark::new()).collect())
                .collect(),
            voided: vec![Vec::new(); groups],
            batches: (0..groups).map(|_| Vec::new()).collect(),
            batch_armed: vec![false; groups],
            xtx: HashMap::new(),
            buffered: VecDeque::new(),
            placement,
        }
    }

    fn groups(&self) -> usize {
        self.placement.groups()
    }

    /// Groups a backend hosts, ascending.
    fn hosted(&self, backend: usize) -> Vec<usize> {
        (0..self.groups())
            .filter(|&g| self.placement.hosts(g).contains(&backend))
            .collect()
    }

    /// Certification statistics summed across every shard (max_window is
    /// the max — windows are per-shard structures).
    fn agg_stats(&self) -> CertifierStats {
        let mut agg = CertifierStats::default();
        for c in &self.certs {
            let s = c.stats();
            agg.checks += s.checks;
            agg.commits += s.commits;
            agg.aborts += s.aborts;
            agg.keys_checked += s.keys_checked;
            agg.max_window = agg.max_window.max(s.max_window);
        }
        agg
    }

    /// Group-commit admission on group `g`'s stream: buffer `ev` until
    /// `batch_max` events are waiting or the deadline the caller arms on
    /// [`Admit::Arm`] fires. `batch_max <= 1` buffers nothing and arms
    /// nothing, so the unbatched write path has no extra timers.
    fn admit(&mut self, g: usize, ev: ReplEvent, batch_max: usize) -> Admit {
        if batch_max <= 1 {
            return Admit::Direct(ev);
        }
        self.batches[g].push(ev);
        if self.batches[g].len() >= batch_max {
            Admit::Full
        } else if !self.batch_armed[g] {
            self.batch_armed[g] = true;
            Admit::Arm
        } else {
            Admit::Held
        }
    }

    /// Take group `g`'s buffered events (admission order) for a flush and
    /// disarm its deadline. Empty when a stale deadline fires after a size
    /// flush already emptied the buffer.
    fn take_batch(&mut self, g: usize) -> Vec<ReplEvent> {
        self.batch_armed[g] = false;
        std::mem::take(&mut self.batches[g])
    }
}

/// One multi-group transaction between its first prepare delivery and the
/// decision. The vote for each involved group is that group's local
/// certification verdict at delivery time; yes-votes reserve their keys
/// and log slot immediately (in delivery order — reserving at decision
/// time would order the log by decision arrival, which differs across
/// peers). The decision is the AND of the votes, reached when the last
/// involved stream delivers locally: deterministic at every peer with no
/// extra wire round.
struct XTx {
    groups: Vec<u32>,
    votes: Vec<Option<bool>>,
    /// Log/certifier position reserved per involved group (0 = no vote yet
    /// or a no-vote).
    pos: Vec<u64>,
    parts: Vec<Option<Writeset>>,
    /// Local arrival time of the first involved prepare (origin's Certify
    /// span start; first → decision is the CrossGroupWait window).
    first_us: u64,
}

/// Raise entry `g` of a per-group vector to at least `pos`, growing the
/// vector (zero-filled) to cover the group.
fn raise(v: &mut Vec<u64>, g: usize, pos: u64) {
    if v.len() <= g {
        v.resize(g + 1, 0);
    }
    v[g] = v[g].max(pos);
}

impl Middleware {
    pub fn new(cfg: MwConfig, me_idx: usize, peers: Vec<NodeId>, backends: Vec<NodeId>) -> Self {
        let n = backends.len();
        let balancer = Balancer::new(cfg.granularity, cfg.policy.clone(), n);
        let qcfg = cfg.quarantine.unwrap_or_default();
        let plan_cache = PlanCache::new(cfg.plan_cache);
        let pong_adaptive = match cfg.adaptive_detection {
            Some(ad) => (0..n).map(|_| AdaptiveThreshold::new(ad)).collect(),
            None => Vec::new(),
        };
        if let Some(p) = &cfg.placement {
            assert!(
                matches!(cfg.mode, Mode::MultiMasterWriteset),
                "partial replication requires writeset mode"
            );
            if let Err(e) = p.validate(n) {
                panic!("invalid placement: {e}");
            }
            assert!(p.groups() <= MAX_GROUPS, "at most {MAX_GROUPS} table groups");
        }
        // Full replication is a value of the placement: one group, hosted
        // by every backend.
        let placement =
            cfg.placement.clone().unwrap_or_else(|| Placement::new(vec![(0..n).collect()]));
        let shards = Shards::new(placement, MemberId(me_idx), peers.len(), cfg.gcs, n);
        let initial_removed = cfg.initial_removed.clone();
        Middleware {
            cfg,
            peers,
            me_idx,
            backends: backends
                .into_iter()
                .enumerate()
                .map(|(i, node)| Backend {
                    node,
                    state: if initial_removed.contains(&i) {
                        BackendState::Removed
                    } else {
                        BackendState::Online
                    },
                    last_pong_us: 0,
                    applied_lsn: Lsn(0),
                    node_pos: Vec::new(),
                    drain_started_us: 0,
                })
                .collect(),
            balancer,
            sessions: SessionTable::new(),
            pending: std::collections::BTreeMap::new(),
            sweep_armed: false,
            next_op: 1,
            exec_groups: HashMap::new(),
            next_group: 1,
            barrier_for: None,
            master: BackendId(0),
            shipping_inflight: false,
            ship_horizon: Lsn(0),
            metrics: MwMetrics::default(),
            fresh_waiters: std::collections::BTreeMap::new(),
            next_fresh: 0,
            ship_busy: HashSet::new(),
            recovery_started: HashMap::new(),
            health: (0..n).map(|_| HealthTracker::new(qcfg)).collect(),
            health_seen: vec![0; n],
            probe_op: HashMap::new(),
            pong_adaptive,
            plan_cache,
            shards,
        }
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    fn healthy(&self) -> Vec<BackendId> {
        self.backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.online())
            .map(|(i, _)| BackendId(i))
            .collect()
    }

    fn master_slave(&self) -> bool {
        matches!(self.cfg.mode, Mode::MasterSlave { .. })
    }

    fn slaves(&self) -> Vec<BackendId> {
        self.healthy().into_iter().filter(|&b| b != self.master).collect()
    }

    fn is_quarantined(&self, b: BackendId) -> bool {
        self.cfg.quarantine.is_some() && self.health[b.0].quarantined()
    }

    /// Candidates for read routing / delegate selection: quarantined
    /// backends are filtered out, but if that would empty the set we fall
    /// back to every online backend — a slow answer beats no answer.
    fn filter_quarantined(&self, candidates: Vec<BackendId>) -> Vec<BackendId> {
        if self.cfg.quarantine.is_none() {
            return candidates;
        }
        let filtered: Vec<BackendId> =
            candidates.iter().copied().filter(|&b| !self.is_quarantined(b)).collect();
        if filtered.is_empty() {
            candidates
        } else {
            filtered
        }
    }

    fn routable(&self) -> Vec<BackendId> {
        self.filter_quarantined(self.healthy())
    }

    /// Writes are allowed unless degraded read-only mode is on and the
    /// online-backend count fell below the write-quorum floor.
    fn write_quorum_ok(&self) -> bool {
        !self.cfg.degrade_to_read_only
            || self.healthy().len() > self.backends.len() / 2
    }

    /// Re-evaluate degraded read-only mode after a backend state change.
    fn update_degraded(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.cfg.degrade_to_read_only {
            return;
        }
        let now = ctx.now().micros();
        if self.healthy().len() < self.backends.len() / 2 + 1 {
            self.metrics.degraded.enter(now);
        } else {
            self.metrics.degraded.exit(now);
        }
    }

    /// Mirror new health-tracker events into the metrics log.
    fn sync_health_events(&mut self, i: usize) {
        let events = self.health[i].events();
        for &(t, ev) in &events[self.health_seen[i]..] {
            self.metrics.quarantine_events.push((t, i, ev));
        }
        self.health_seen[i] = self.health[i].events().len();
    }

    /// Score a completed op's latency against the backend's health EWMA;
    /// probe completions resolve the half-open state instead.
    fn score_completion(&mut self, now: u64, backend: BackendId, started: u64, op: u64) {
        if self.cfg.quarantine.is_none() {
            return;
        }
        let lat = now.saturating_sub(started);
        if self.probe_op.get(&backend) == Some(&op) {
            self.probe_op.remove(&backend);
            if self.health[backend.0].probe_completed(now, lat) {
                self.metrics.counters.quarantine_rejoins += 1;
            }
        } else if self.health[backend.0].on_completion(now, lat) {
            self.metrics.counters.quarantine_trips += 1;
        }
        self.sync_health_events(backend.0);
    }

    fn alloc_op(&mut self, ctx: &mut Ctx<'_, Msg>, p: Pending) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        self.pending.insert(op, (p, ctx.now().micros()));
        self.arm_op_sweep(ctx);
        op
    }

    /// Queue the sweep at the oldest pending op's deadline, unless it is
    /// queued already: a later op's deadline is never earlier.
    fn arm_op_sweep(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.sweep_armed {
            return;
        }
        if let Some((_, &(_, started))) = self.pending.first_key_value() {
            self.sweep_armed = true;
            ctx.set_timer_at(SimTime(started + self.cfg.op_timeout_us), TIMER_OP_SWEEP);
        }
    }

    /// The sweep timer fired: time out every op whose deadline has passed,
    /// oldest first, then re-arm for the new oldest. Each op still times
    /// out at exactly dispatch + `op_timeout_us`; an op that completed
    /// before its deadline costs the sweep nothing but the re-arm.
    fn sweep_op_timeouts(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().micros();
        while let Some((&op, &(_, started))) = self.pending.first_key_value() {
            if started + self.cfg.op_timeout_us > now {
                break;
            }
            self.op_timed_out(ctx, op);
        }
        self.sweep_armed = false;
        self.arm_op_sweep(ctx);
    }

    fn send_db(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, p: Pending, mk: impl FnOnce(u64) -> DbOp) -> u64 {
        let node = self.backends[backend.0].node;
        let op = self.alloc_op(ctx, p);
        self.balancer.dispatched(backend);
        ctx.send(node, Msg::Db(mk(op)));
        op
    }

    // ------------------------------------------------------------------
    // Ordering: per-group sequencers, group commit, delivery
    // ------------------------------------------------------------------

    fn run_shard_actions(&mut self, ctx: &mut Ctx<'_, Msg>, actions: Vec<(usize, GAction<ReplEvent>)>) {
        for (g, a) in actions {
            match a {
                GAction::Send { to, msg } => {
                    let node = self.peers[to.0];
                    ctx.send(node, Msg::GroupShard { group: g as u32, msg });
                }
                // The only timer a shard arms is its heartbeat tick: re-tag
                // it into the shard range so `on_timer` can route it back.
                GAction::SetTimer { delay_us, .. } => {
                    ctx.set_timer(delay_us, SHARD_TICK_BASE + g as u64)
                }
                GAction::Deliver { payload, .. } => self.on_shard_delivery(ctx, g, payload),
                GAction::ViewInstalled { .. } | GAction::Suspected { .. } => {}
            }
        }
    }

    fn shard_publish(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        let actions = self.shards.member.publish(g, ev, ctx.now().micros());
        self.run_shard_actions(ctx, actions);
    }

    /// Route a write-path event through group `g`'s group-commit buffer
    /// (see [`Shards::admit`]).
    fn shard_publish_write(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        match self.shards.admit(g, ev, self.cfg.batch_max) {
            Admit::Direct(ev) => self.shard_publish(ctx, g, ev),
            Admit::Full => self.flush_shard_batch(ctx, g, FlushReason::Size),
            Admit::Arm => ctx.set_timer(self.cfg.batch_deadline_us, SHARD_BATCH_BASE + g as u64),
            Admit::Held => {}
        }
    }

    /// Ship group `g`'s buffered batch as ONE total-order slot. The
    /// buffered admission order is preserved verbatim inside the `Batch`
    /// event.
    fn flush_shard_batch(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, reason: FlushReason) {
        let events = self.shards.take_batch(g);
        if events.is_empty() {
            return;
        }
        self.metrics.batch_sizes.record(events.len() as u64);
        match reason {
            FlushReason::Size => self.metrics.counters.batch_flush_size += 1,
            FlushReason::Deadline => self.metrics.counters.batch_flush_deadline += 1,
        }
        // Each origin statement waited in the buffer from its admission-side
        // publish until now: that window is `BatchWait`, so E17-style tiling
        // still reconciles (the `Order` span then covers flush → delivery).
        let now = ctx.now().micros();
        for ev in &events {
            let (session, stmt_seq) = match ev {
                ReplEvent::Statement { session, stmt_seq, .. }
                | ReplEvent::Certify { session, stmt_seq, .. }
                | ReplEvent::XPrepare { session, stmt_seq, .. } => (*session, *stmt_seq),
                _ => continue,
            };
            self.mw_span(session, stmt_seq, Stage::BatchWait, now);
        }
        self.shard_publish(ctx, g, ReplEvent::Batch { events });
    }

    /// Group `g`'s totally-ordered event arrives (identically at every
    /// peer). The recovery barrier buffers deliveries of every group.
    fn on_shard_delivery(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        if self.barrier_for.is_some() {
            self.shards.buffered.push_back((g, ev));
            return;
        }
        self.apply_shard_delivery(ctx, g, ev);
    }

    fn apply_shard_delivery(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        match ev {
            ReplEvent::Statement { session, stmt_seq, sql, ast, tables } => {
                self.deliver_statement(ctx, session, stmt_seq, sql, ast, tables)
            }
            ReplEvent::Certify { session, stmt_seq, start_pos, ws } => {
                self.deliver_shard_certify(ctx, g, session, stmt_seq, start_pos, ws)
            }
            ReplEvent::XPrepare { session, stmt_seq, groups, start_pos, part } => {
                self.deliver_xprepare(ctx, g, session, stmt_seq, groups, start_pos, part)
            }
            ReplEvent::SessionEnd { session } => self.end_session(session),
            ReplEvent::Batch { events } => self.deliver_batch(ctx, g, events),
        }
    }

    /// A group-committed batch arrives (one total-order slot): session
    /// ends first, then the batch's statements fan out to each backend as
    /// ONE grouped message, then its certification requests one by one.
    /// Each class keeps the admission order recorded in the event vector.
    fn deliver_batch(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, events: Vec<ReplEvent>) {
        let mut stmts: Vec<(SessionId, u64, String, PlanExec, Vec<String>)> = Vec::new();
        let mut certs: Vec<ReplEvent> = Vec::new();
        for ev in events {
            match ev {
                ReplEvent::Statement { session, stmt_seq, sql, ast, tables } => {
                    stmts.push((session, stmt_seq, sql, ast, tables))
                }
                ReplEvent::SessionEnd { session } => self.end_session(session),
                // Batches never nest (`Shards::admit` only buffers leaves).
                ReplEvent::Batch { .. } => {}
                ev @ (ReplEvent::Certify { .. } | ReplEvent::XPrepare { .. }) => certs.push(ev),
            }
        }
        if !stmts.is_empty() {
            self.deliver_statement_batch(ctx, stmts);
        }
        for ev in certs {
            self.apply_shard_delivery(ctx, g, ev);
        }
    }

    /// Drain deliveries buffered behind a (now released) barrier.
    fn drain_shard_buffer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while self.barrier_for.is_none() {
            let Some((g, ev)) = self.shards.buffered.pop_front() else { break };
            self.apply_shard_delivery(ctx, g, ev);
        }
    }

    /// §4.3.4.3: are we on the majority side of a (possible) partition?
    fn have_quorum(&self) -> bool {
        if !self.cfg.require_majority {
            return true;
        }
        // Every group's sequencer spans the same peers: stream 0's view
        // stands for all of them.
        self.shards.member.view(0).members.len() * 2 > self.peers.len()
    }

    fn session(&mut self, id: SessionId, client: Option<NodeId>) -> &mut Sess {
        let s = self.sessions.get_or_insert_with(id.0, || Sess::new(client));
        if client.is_some() {
            s.client = client.or(s.client);
        }
        s
    }

    fn reply(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, result: Result<ReplyBody, ReplyError>) {
        let now = ctx.now().micros();
        let ok = !matches!(result, Err(ReplyError::Unavailable(_)));
        self.metrics.availability.record(now, ok);
        self.close_request(session, stmt_seq, now);
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let reply = ClientReply { session, stmt_seq, result };
        s.last_replied = stmt_seq;
        s.cached = Some(reply.clone());
        s.current = None;
        if let Some(client) = s.client {
            ctx.send(client, Msg::Reply(reply));
        }
    }

    /// Read-path replies do not feed the availability tracker: reads served
    /// from surviving slaves would mask a write outage, and the paper's
    /// downtime stories (the ticket broker) are about update availability.
    fn reply_read(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, result: Result<ReplyBody, ReplyError>) {
        let now = ctx.now().micros();
        self.close_request(session, stmt_seq, now);
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let reply = ClientReply { session, stmt_seq, result };
        s.last_replied = stmt_seq;
        s.cached = Some(reply.clone());
        s.current = None;
        if let Some(client) = s.client {
            ctx.send(client, Msg::Reply(reply));
        }
    }

    /// Close a statement's latency window: route the sample to the
    /// histogram matching the admission-time classification and seal its
    /// trace (any time since the last recorded span falls into
    /// `Stage::Other`, the instrumentation-coverage gauge).
    fn close_request(&mut self, session: SessionId, stmt_seq: u64, now: u64) {
        let meta = self.sessions.get_mut(session.0).and_then(|s| {
            let pos = s.open_reqs.iter().position(|(seq, _)| *seq == stmt_seq)?;
            Some(s.open_reqs.swap_remove(pos).1)
        });
        if let Some(meta) = meta {
            let lat = now.saturating_sub(meta.start_us);
            if meta.is_read {
                self.metrics.read_latency.record(lat);
            } else {
                self.metrics.write_latency.record(lat);
            }
            if meta.trace != 0 {
                self.metrics.trace.end(TraceId(meta.trace), now);
            }
        }
    }

    /// Record a stage span on the trace window of an in-flight statement.
    /// No-op for untraced or already-closed requests, so call sites never
    /// need to guard.
    fn mw_span(&mut self, session: SessionId, stmt_seq: u64, stage: Stage, now_us: u64) {
        let trace = self
            .sessions
            .get(session.0)
            .and_then(|s| s.open_reqs.iter().find(|(seq, _)| *seq == stmt_seq))
            .map(|(_, m)| m.trace);
        if let Some(trace) = trace {
            if trace != 0 {
                self.metrics.trace.span(TraceId(trace), stage, now_us);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client request entry point
    // ------------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<'_, Msg>, client: NodeId, req: ClientRequest) {
        let now = ctx.now().micros();
        {
            let s = self.session(req.session, Some(client));
            // Retry deduplication (§4.3.3 transparent failover).
            if req.stmt_seq <= s.last_replied {
                if let Some(cached) = s.cached.clone() {
                    if cached.stmt_seq == req.stmt_seq {
                        if let Some(c) = s.client {
                            ctx.send(c, Msg::Reply(cached));
                        }
                        return;
                    }
                }
                return;
            }
            if let Some(cur) = &s.current {
                if cur.stmt_seq == req.stmt_seq {
                    return; // already in flight (duplicate retry)
                }
            }
        }
        self.sessions
            .get_mut(req.session.0)
            .unwrap()
            .open_reqs
            .push((req.stmt_seq, ReqMeta { start_us: now, trace: req.trace, is_read: false }));
        if req.trace != 0 {
            self.metrics.trace.begin(TraceId(req.trace), now);
        }

        // Parse exactly once, at admission. Every later consumer — read/
        // write classification, temp-table detection, rewrite, delivery-time
        // table extraction, backend fan-out — works from this parse (or the
        // cached template behind it); the statement text is never parsed
        // again anywhere in the pipeline.
        let Admitted { stmt, plan, written } = match self.admit_statement(&req.sql) {
            Ok(admitted) => admitted,
            Err(e) => {
                self.reply(ctx, req.session, req.stmt_seq, Err(ReplyError::Sql(e)));
                return;
            }
        };

        // Read/write classification happens once, here: BEGIN/COMMIT/
        // ROLLBACK shape snapshots and stay on the write side even though
        // they are "read-only" to the parser.
        let is_read = stmt.is_read_only()
            && !matches!(*stmt, Statement::Begin { .. } | Statement::Commit | Statement::Rollback);
        if let Some((_, meta)) = self
            .sessions
            .get_mut(req.session.0)
            .and_then(|s| s.open_reqs.iter_mut().find(|(seq, _)| *seq == req.stmt_seq))
        {
            meta.is_read = is_read;
        }
        // Admission is instantaneous in virtual time (the middleware has no
        // modeled ingress queue); the zero-width span marks the stage so
        // per-stage counts still show every admitted statement.
        self.mw_span(req.session, req.stmt_seq, Stage::Admission, now);

        // Temp-table handling is mode-independent: once a session touches a
        // temporary table it is pinned to one backend, and those statements
        // are never replicated (§4.1.4).
        if self.handle_temp_stickiness(ctx, &req, &stmt, &plan) {
            return;
        }

        match &self.cfg.mode {
            Mode::MultiMasterStatement { nondet } => {
                let nondet = *nondet;
                self.mm_statement_request(ctx, req, &stmt, plan, written, nondet)
            }
            Mode::MultiMasterWriteset => self.mm_writeset_request(ctx, req, &stmt, plan),
            Mode::MasterSlave { .. } => self.ms_request(ctx, req, &stmt, plan),
            Mode::PartitionedStatement { .. } => self.part_request(ctx, req, &stmt, plan),
        }
    }

    /// The single parse of the statement pipeline. With the plan cache off
    /// (`cfg.plan_cache == 0`) this is one `parse_statement` call. With it
    /// on, the text is normalized (literals → params) and the template parse
    /// is reused across every statement sharing the shape. Either way the
    /// returned [`PlanExec`] is the wire form backends execute without
    /// parsing.
    fn admit_statement(&mut self, sql: &str) -> Result<Admitted, SqlError> {
        if self.cfg.plan_cache == 0 {
            return Ok(Admitted::whole(parse_statement(sql)?));
        }
        let Some(nf) = replimid_sql::normalize(sql) else {
            // Uncacheable shape (non-DML, or a raw `?` in the client text).
            self.metrics.counters.plan_cache_misses += 1;
            return Ok(Admitted::whole(parse_statement(sql)?));
        };
        if let Some(cached) = self.plan_cache.get(&nf.key) {
            self.metrics.counters.plan_cache_hits += 1;
            return Admitted::bound(cached, nf.params);
        }
        self.metrics.counters.plan_cache_misses += 1;
        match replimid_sql::CachedPlan::prepare(&nf) {
            Ok(cached) => {
                let admitted = Admitted::bound(cached.clone(), nf.params)?;
                self.plan_cache.insert(nf.key, cached);
                self.metrics.counters.plan_cache_evictions = self.plan_cache.evictions;
                Ok(admitted)
            }
            // The normalized template did not parse (pathological literal
            // placement): fall back to the original text, uncached. A
            // genuinely invalid statement fails here exactly as it would
            // have without the cache.
            Err(_) => Ok(Admitted::whole(parse_statement(sql)?)),
        }
    }

    /// Returns true if the statement was routed as a temp-table operation.
    fn handle_temp_stickiness(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: &ClientRequest,
        stmt: &Statement,
        plan: &PlanExec,
    ) -> bool {
        let is_create_temp = matches!(stmt, Statement::CreateTable { temporary: true, .. });
        let touches_temp = {
            let s = self.sessions.get(req.session.0).expect("session exists");
            if s.temp_tables.is_empty() && !is_create_temp {
                false
            } else {
                let mut touched = is_create_temp;
                for t in stmt.read_tables().iter().chain(stmt.written_tables().iter()) {
                    if t.database.is_none() && s.temp_tables.contains(&t.name) {
                        touched = true;
                    }
                }
                touched
            }
        };
        if !touches_temp {
            return false;
        }
        // Pin the session (now and forever: the middleware cannot know when
        // the temp table's true lifespan ends, §4.1.4).
        let backend = {
            let pinned = self.sessions.get(req.session.0).unwrap().sticky;
            match pinned {
                Some(b) if self.backends[b.0].online() => Some(b),
                _ => {
                    let candidates = self.routable();
                    self.balancer.pick(&candidates)
                }
            }
        };
        let Some(backend) = backend else {
            self.reply(ctx, req.session, req.stmt_seq, Err(ReplyError::Unavailable("no backend".into())));
            return true;
        };
        {
            let s = self.sessions.get_mut(req.session.0).unwrap();
            s.sticky = Some(backend);
            s.temp_pinned = true;
            if let Statement::CreateTable { name, temporary: true, .. } = stmt {
                s.temp_tables.insert(name.name.clone());
            }
            if let Statement::DropTable { name, .. } = stmt {
                s.temp_tables.remove(&name.name);
            }
            s.current = Some(Current {
                stmt_seq: req.stmt_seq,
                kind: CurrentKind::TempExec { backend },
            });
        }
        let session = req.session;
        let plan = plan.clone();
        self.send_db(ctx, backend, Pending::ClientExec { session, backend }, move |op| {
            DbOp::Execute { op, conn: session.0, plan, marks: Vec::new() }
        });
        true
    }

    // ------------------------------------------------------------------
    // Multi-master, statement-based
    // ------------------------------------------------------------------

    fn mm_statement_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: ClientRequest,
        stmt: &Statement,
        plan: PlanExec,
        written: Option<Vec<ObjectName>>,
        nondet: NondetPolicy,
    ) {
        if stmt.is_read_only() && !matches!(stmt, Statement::Begin { .. } | Statement::Commit | Statement::Rollback) {
            self.route_read(ctx, req, stmt, plan);
            return;
        }
        if !self.have_quorum() {
            self.reply(
                ctx,
                req.session,
                req.stmt_seq,
                Err(ReplyError::Unavailable("minority partition: writes suspended".into())),
            );
            return;
        }
        if !self.write_quorum_ok() {
            self.metrics.counters.degraded_write_rejects += 1;
            self.reply(
                ctx,
                req.session,
                req.stmt_seq,
                Err(ReplyError::Degraded("write quorum lost: cluster is read-only".into())),
            );
            return;
        }
        // Writes (and BEGIN/COMMIT/ROLLBACK, which shape snapshots) are
        // rewritten then totally ordered.
        self.metrics.counters.writes += 1;
        let rand_value = ctx.rng().gen::<f64>();
        let prepared = prepare_for_broadcast(stmt, nondet, ctx.now().micros() as i64, rand_value);
        let (sql, ast) = match prepared {
            Ok(p) if p.substitutions > 0 => {
                self.metrics.counters.rewritten_statements += 1;
                // The rewrite changed the statement: the admission-time plan
                // no longer describes what ships. Carry the rewritten parse
                // whole instead.
                (p.sql, PlanExec::whole(Arc::new(p.stmt)))
            }
            Ok(p) => (p.sql, plan),
            Err(rej) => {
                self.metrics.counters.rejected_statements += 1;
                self.reply(ctx, req.session, req.stmt_seq, Err(ReplyError::Rejected(rej.reason)));
                return;
            }
        };
        {
            let s = self.sessions.get_mut(req.session.0).unwrap();
            s.current = Some(Current { stmt_seq: req.stmt_seq, kind: CurrentKind::OrderedWait });
            match stmt {
                Statement::Begin { .. } => {
                    s.in_tx = true;
                    s.wrote_in_tx = false;
                }
                Statement::Commit | Statement::Rollback => {
                    s.in_tx = false;
                }
                _ => {
                    s.wrote_in_tx = true;
                    s.last_write_us = ctx.now().micros();
                }
            }
        }
        // A rewrite replaces expressions only: the written tables are the
        // admitted statement's.
        let tables = written.unwrap_or_else(|| stmt.written_tables()).into_iter().map(|t| t.name).collect();
        self.shard_publish_write(
            ctx,
            0,
            ReplEvent::Statement { session: req.session, stmt_seq: req.stmt_seq, sql, ast, tables },
        );
    }

    // ------------------------------------------------------------------
    // Read routing: one router for every mode, policy and placement
    // ------------------------------------------------------------------

    /// Table groups a statement touches (reads and writes), per the
    /// placement map. Unknown tables fall into the default group. With one
    /// group the answer needs no walk of the statement.
    fn stmt_groups(&self, stmt: &Statement) -> Vec<usize> {
        let placement = &self.shards.placement;
        if placement.groups() == 1 {
            return vec![0];
        }
        let mut names: Vec<String> =
            stmt.read_tables().into_iter().map(|t| t.name).collect();
        names.extend(stmt.written_tables().into_iter().map(|t| t.name));
        placement.groups_of_tables(names.iter().map(|n| n.as_str()))
    }

    fn hosts_all(&self, b: BackendId, gset: &[usize]) -> bool {
        gset.iter().all(|&g| self.shards.placement.hosts(g).contains(&b.0))
    }

    /// The position `b` has applied in group `g`, in the space session
    /// floors ([`Sess::gstamps`]) live in: the group's ordered stream
    /// (certified writesets, or in group 0 ordered statements), and in
    /// master-slave mode the master's binlog LSN space (the master itself
    /// is fresh by definition).
    fn applied_pos(&self, b: BackendId, g: usize) -> u64 {
        match self.cfg.mode {
            Mode::MasterSlave { .. } if b == self.master => u64::MAX,
            Mode::MasterSlave { .. } => self.backends[b.0].applied_lsn.0,
            _ => self.shards.marks[b.0][g].value(),
        }
    }

    fn has_applied(&self, b: BackendId, needs: &[(usize, u64)]) -> bool {
        needs.iter().all(|&(g, need)| self.applied_pos(b, g) >= need)
    }

    /// What a replica must have applied to serve `session` a read over
    /// `gset`: per group, the session's floor less the policy's staleness
    /// slack. Empty when the policy puts no freshness bar on reads or the
    /// session has nothing to see yet, and then every host qualifies.
    fn read_needs(&self, session: SessionId, gset: &[usize]) -> Vec<(usize, u64)> {
        let (Some(slack), Some(s)) =
            (self.cfg.read_policy.freshness_slack(), self.sessions.get(session.0))
        else {
            return Vec::new();
        };
        gset.iter()
            .map(|&g| (g, s.gstamps.get(g).copied().unwrap_or(0).saturating_sub(slack)))
            .filter(|&(_, need)| need > 0)
            .collect()
    }

    /// In rotation, hosting every group the statement reads, and caught up
    /// to the session's needs: what the half-open probe target must be.
    fn can_serve(&self, b: BackendId, gset: &[usize], needs: &[(usize, u64)]) -> bool {
        self.backends[b.0].online() && self.hosts_all(b, gset) && self.has_applied(b, needs)
    }

    /// The read-eligibility rule every routing decision applies: a replica
    /// that can serve the read and is not quarantined.
    fn eligible(&self, b: BackendId, gset: &[usize], needs: &[(usize, u64)]) -> bool {
        !self.is_quarantined(b) && self.can_serve(b, gset, needs)
    }

    /// The set reads over `gset` balance across and delegates are picked
    /// from: in-rotation hosts of every group, then quarantine-filtered —
    /// in that order, so "a slow answer beats no answer" still fires when
    /// every host is quarantined but some other backend is not. In
    /// master-slave mode reads prefer the slaves and fall back to (or
    /// include, with `read_master`) the master.
    fn read_candidates(&self, gset: &[usize]) -> Vec<BackendId> {
        let mut candidates = if self.master_slave() {
            let read_master = matches!(self.cfg.mode, Mode::MasterSlave { read_master: true, .. });
            let mut slaves = self.slaves();
            if (slaves.is_empty() || read_master) && self.backends[self.master.0].online() {
                slaves.push(self.master);
            }
            slaves
        } else {
            self.healthy()
        };
        candidates.retain(|&b| self.hosts_all(b, gset));
        self.filter_quarantined(candidates)
    }

    /// Route a client read: to the half-open probe or the session's pinned
    /// backend when one is eligible, else to a balanced pick among the
    /// candidates that have applied what the session must see; when none
    /// has, the read parks until one catches up (bounded by
    /// `freshness_wait_max_us`).
    fn route_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: ClientRequest, stmt: &Statement, plan: PlanExec) {
        self.metrics.counters.reads += 1;
        let gset = self.stmt_groups(stmt);
        let needs = self.read_needs(req.session, &gset);
        let r = ReadReq { session: req.session, stmt_seq: req.stmt_seq, plan, gset, needs };
        if let Some((b, is_probe)) = self.pinned_read_backend(&r) {
            self.dispatch_read(ctx, r, b, is_probe);
            return;
        }
        let candidates = self.read_candidates(&r.gset);
        if candidates.is_empty() {
            self.reply_read(ctx, r.session, r.stmt_seq, Err(ReplyError::Unavailable("no backend for read".into())));
            return;
        }
        let caught_up: Vec<bool> =
            candidates.iter().map(|&b| self.has_applied(b, &r.needs)).collect();
        if caught_up.iter().any(|c| !c) {
            self.metrics.counters.fresh_filtered_stale += 1;
        }
        let picked = self.balancer.pick_fresh(&candidates, &caught_up);
        let Some(s) = self.sessions.get_mut(r.session.0) else { return };
        let Some(b) = picked else {
            self.metrics.counters.freshness_waits += 1;
            s.current = Some(Current { stmt_seq: r.stmt_seq, kind: CurrentKind::FreshWait });
            self.park_read(ctx, r);
            return;
        };
        match self.balancer.granularity {
            Granularity::Connection => s.sticky = Some(b),
            Granularity::Transaction if s.in_tx => s.sticky = Some(b),
            _ => {}
        }
        self.dispatch_read(ctx, r, b, false);
    }

    /// A backend the read goes to ahead of the balancer, and whether the
    /// read doubles as that backend's half-open quarantine probe.
    fn pinned_read_backend(&self, r: &ReadReq) -> Option<(BackendId, bool)> {
        // Half-open probes first: a quarantined backend whose dwell expired
        // gets exactly one live read routed at it (lowest index wins) — but
        // only a read it can serve: a stale probe would itself violate
        // read-your-writes.
        if self.cfg.quarantine.is_some() {
            let probe = (0..self.backends.len())
                .map(BackendId)
                .find(|&b| self.health[b.0].wants_probe() && self.can_serve(b, &r.gset, &r.needs));
            if let Some(b) = probe {
                return Some((b, true));
            }
        }
        // Granularity stickiness, then session consistency (read where you
        // last wrote; in master-slave mode, else the master). Each holds
        // only while its backend is eligible: health, placement and
        // freshness beat stickiness.
        let s = self.sessions.get(r.session.0)?;
        let session_sticky = self.cfg.read_policy == ReadPolicy::SessionSticky;
        let pins = [
            match self.balancer.granularity {
                Granularity::Connection => s.sticky,
                Granularity::Transaction if s.in_tx => s.sticky,
                _ => None,
            },
            s.last_write_backend.filter(|_| session_sticky),
            Some(self.master).filter(|_| session_sticky && self.master_slave()),
        ];
        pins.into_iter()
            .flatten()
            .find(|&b| self.eligible(b, &r.gset, &r.needs))
            .map(|b| (b, false))
    }

    /// The dispatch tail of every routed read.
    fn dispatch_read(&mut self, ctx: &mut Ctx<'_, Msg>, r: ReadReq, backend: BackendId, is_probe: bool) {
        let ReadReq { session, stmt_seq, plan, gset, needs } = r;
        let now = ctx.now().micros();
        self.mw_span(session, stmt_seq, Stage::BalancerPick, now);
        if crate::debug_on() {
            eprintln!(
                "[{now}us] read dispatch sess={} -> b{} groups={gset:?} needs={needs:?} probe={is_probe}",
                session.0, backend.0
            );
        }
        // Monotonic reads: the positions this read observes become the
        // session's floor for its next read. Recorded at dispatch — the
        // backend cannot regress below them by reply time.
        let observed: Vec<(usize, u64)> = if self.cfg.read_policy == ReadPolicy::MonotonicReads {
            gset.iter().map(|&g| (g, self.applied_pos(backend, g))).collect()
        } else {
            Vec::new()
        };
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.current = Some(Current { stmt_seq, kind: CurrentKind::Read { backend } });
        if self.balancer.granularity == Granularity::Connection && s.sticky.is_none() && !is_probe {
            s.sticky = Some(backend);
        }
        for (g, pos) in observed {
            // The master reports the sentinel position (always fresh):
            // folding it in pins the session to the master from here on.
            // That is deliberate — the middleware cannot bound the position
            // a master read observed, so any slave might be behind it;
            // serving the master forever is the only sound floor. (The
            // wait-or-primary deadline keeps such sessions live if the
            // master blips.) Sessions that only ever read slaves keep
            // balancing across every caught-up slave.
            raise(&mut s.gstamps, g, pos);
        }
        let op = self.send_db(ctx, backend, Pending::ClientExec { session, backend }, move |op| {
            DbOp::Execute { op, conn: session.0, plan, marks: Vec::new() }
        });
        if is_probe {
            self.metrics.counters.quarantine_probes += 1;
            self.health[backend.0].probe_sent(now);
            self.probe_op.insert(backend, op);
            self.sync_health_events(backend.0);
        } else if self.is_quarantined(backend) {
            // Tripwire (should stay 0): a normal read slipped through the
            // quarantine filter — only the fallback path can do this, and
            // only when every candidate is quarantined.
            self.metrics.counters.reads_routed_to_quarantined += 1;
            if crate::debug_on() {
                eprintln!("[{now}us] QUARANTINED read -> b{}", backend.0);
            }
        }
    }

    /// Park a read until a replica catches up to its needs, with the
    /// wait-or-primary deadline as the escape hatch.
    fn park_read(&mut self, ctx: &mut Ctx<'_, Msg>, r: ReadReq) {
        let id = self.next_fresh;
        self.next_fresh += 1;
        self.fresh_waiters.insert(id, r);
        ctx.set_timer(self.cfg.freshness_wait_max_us, TIMER_FRESH_BASE + id);
    }

    /// Is the session still waiting on this parked read? It may have moved
    /// on (torn down, or the statement superseded).
    fn still_parked(&self, r: &ReadReq) -> bool {
        self.sessions
            .get(r.session.0)
            .and_then(|s| s.current.as_ref())
            .is_some_and(|c| c.stmt_seq == r.stmt_seq && matches!(c.kind, CurrentKind::FreshWait))
    }

    /// Re-run the routing decision for parked reads after any event that
    /// can advance a replica's applied positions (apply acks, pongs,
    /// recovery completion, quarantine flips, master promotion).
    /// Allocation-free no-op when nothing is parked, so hooks call it
    /// unconditionally without disturbing the freshness-off byte path.
    fn drain_fresh_waiters(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.fresh_waiters.is_empty() {
            return;
        }
        // BTreeMap order = waiter-id order = park order: FIFO and
        // deterministic.
        let ids: Vec<u64> = self.fresh_waiters.keys().copied().collect();
        for id in ids {
            let Some(r) = self.fresh_waiters.get(&id) else { continue };
            if !self.still_parked(r) {
                self.fresh_waiters.remove(&id);
                continue;
            }
            let candidates = self.read_candidates(&r.gset);
            let caught_up: Vec<bool> =
                candidates.iter().map(|&b| self.has_applied(b, &r.needs)).collect();
            let Some(b) = self.balancer.pick_fresh(&candidates, &caught_up) else { continue };
            let Some(r) = self.fresh_waiters.remove(&id) else { continue };
            // The parked window is the FreshnessWait stage; the dispatch
            // below records its (zero-width) BalancerPick after it, so the
            // E17 stage tiling stays exact.
            self.mw_span(r.session, r.stmt_seq, Stage::FreshnessWait, ctx.now().micros());
            self.dispatch_read(ctx, r, b, false);
        }
    }

    /// Wait-or-primary deadline fired for waiter `id`. Master-slave mode
    /// escalates to the master, which is fresh by definition — RYW still
    /// holds, the cost was latency plus master load. Multi-master modes
    /// have no always-fresh node, so the deadline trades strictness for
    /// liveness: fall back to the most caught-up candidate.
    fn fresh_wait_timed_out(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) {
        let Some(r) = self.fresh_waiters.remove(&id) else { return };
        if !self.still_parked(&r) {
            return;
        }
        self.metrics.counters.freshness_wait_timeouts += 1;
        let fallback = if self.master_slave() {
            if !self.eligible(self.master, &r.gset, &r.needs) {
                // The master is unreadable (quarantined, or mid-failover):
                // the most caught-up slave may still predate this session's
                // write, and a stale answer is the one thing this policy
                // must never give. Re-park — the read drains the moment a
                // slave catches up or the master comes back.
                self.park_read(ctx, r);
                return;
            }
            Some(self.master)
        } else {
            // Writeset-replicated modes ack a commit only after every
            // in-rotation host applied it, so the candidate furthest along
            // over the read's groups covers every acked stamp. Ties break
            // to the lowest id (keys are unique thanks to the Reverse(id)).
            self.read_candidates(&r.gset).into_iter().max_by_key(|&b| {
                let applied: u64 = r.gset.iter().map(|&g| self.applied_pos(b, g)).sum();
                (applied, std::cmp::Reverse(b.0))
            })
        };
        self.mw_span(r.session, r.stmt_seq, Stage::FreshnessWait, ctx.now().micros());
        match fallback {
            Some(b) => {
                self.metrics.counters.fresh_fallback_primary += 1;
                self.dispatch_read(ctx, r, b, false);
            }
            None => self.reply_read(
                ctx,
                r.session,
                r.stmt_seq,
                Err(ReplyError::Unavailable("no fresh backend for read".into())),
            ),
        }
    }

    /// Full session teardown: the slab entry goes — taking its open
    /// request metas and any stashed 2-safe body with it — and so do the
    /// session's parked reads. Pre-PR, `SessionEnd` removed only the
    /// session struct while the side maps (`request_started`,
    /// `two_safe_bodies`) kept their entries forever: a leak at session
    /// churn. Folding that metadata into `Sess` fixes it by construction.
    fn end_session(&mut self, session: SessionId) {
        self.sessions.remove(session.0);
        if !self.fresh_waiters.is_empty() {
            // Stale deadline timers for removed waiters fire harmlessly.
            self.fresh_waiters.retain(|_, w| w.session != session);
        }
    }

    /// Grouped form of [`Self::deliver_statement`]: the batch's statements
    /// take a dense recovery-log seq range and each backend receives one
    /// `ExecuteBatch` message instead of one `Execute` per statement, which
    /// is where group commit wins — one network round-trip and one
    /// parallel-replay-grouped cost charge per backend per flush.
    fn deliver_statement_batch(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        stmts: Vec<(SessionId, u64, String, PlanExec, Vec<String>)>,
    ) {
        let now = ctx.now().micros();
        // Append the whole batch first: seqs are dense ([head+1 ..= head+n]).
        let mut entries: Vec<(SessionId, u64, PlanExec, u64, bool)> = Vec::with_capacity(stmts.len());
        for (session, stmt_seq, sql, ast, tables) in stmts {
            let log_seq = self.shards.logs[0].append_sql(self.cfg.default_db.clone(), sql, tables);
            let origin = {
                let s = self.session(session, None);
                matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq)
            };
            if origin {
                // Flush → self-delivery through the total order.
                self.mw_span(session, stmt_seq, Stage::Order, now);
            }
            entries.push((session, stmt_seq, ast, log_seq, origin));
        }
        let targets = self.healthy();
        if targets.is_empty() {
            for (session, stmt_seq, _, log_seq, origin) in entries {
                self.void(0, log_seq);
                if origin {
                    self.reply(ctx, session, stmt_seq, Err(ReplyError::Unavailable("no backend".into())));
                }
            }
            return;
        }
        // One exec group per statement — the reply/divergence bookkeeping is
        // untouched; only the transport is grouped.
        let mut groups: Vec<u64> = Vec::with_capacity(entries.len());
        for &(session, stmt_seq, _, log_seq, origin) in &entries {
            let group_id = self.next_group;
            self.next_group += 1;
            self.exec_groups.insert(
                group_id,
                ExecGroup {
                    session,
                    stmt_seq,
                    remaining: targets.len(),
                    canonical: None,
                    origin,
                    log_seq,
                },
            );
            if origin {
                let s = self.sessions.get_mut(session.0).unwrap();
                s.current = Some(Current { stmt_seq, kind: CurrentKind::ExecGroup { group: group_id } });
            }
            groups.push(group_id);
        }
        for backend in targets {
            let groups = groups.clone();
            let batch: Vec<BatchItem> = entries
                .iter()
                .map(|(session, _, ast, log_seq, _)| BatchItem { conn: session.0, plan: ast.clone(), marks: vec![(0, *log_seq)] })
                .collect();
            self.send_db(ctx, backend, Pending::GroupExecBatch { groups, backend }, move |op| {
                DbOp::ExecuteBatch { op, stmts: batch }
            });
        }
    }

    fn deliver_statement(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        session: SessionId,
        stmt_seq: u64,
        sql: String,
        ast: PlanExec,
        tables: Vec<String>,
    ) {
        // Log it (every peer logs identically: positions agree).
        let log_seq = self.shards.logs[0].append_sql(self.cfg.default_db.clone(), sql, tables);

        // Shadow session for non-origin peers.
        let origin = {
            let s = self.session(session, None);
            matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq)
        };
        if origin {
            // Publish → self-delivery through the total order.
            self.mw_span(session, stmt_seq, Stage::Order, ctx.now().micros());
        }

        let targets = self.healthy();
        if targets.is_empty() {
            // Nobody executed it: void the log slot so recovery replay does
            // not resurrect a transaction the client was told failed.
            self.void(0, log_seq);
            if origin {
                self.reply(ctx, session, stmt_seq, Err(ReplyError::Unavailable("no backend".into())));
            }
            return;
        }
        let group_id = self.next_group;
        self.next_group += 1;
        self.exec_groups.insert(
            group_id,
            ExecGroup {
                session,
                stmt_seq,
                remaining: targets.len(),
                canonical: None,
                origin,
                log_seq,
            },
        );
        if origin {
            let s = self.sessions.get_mut(session.0).unwrap();
            s.current = Some(Current { stmt_seq, kind: CurrentKind::ExecGroup { group: group_id } });
        }
        for backend in targets {
            let plan = ast.clone();
            self.send_db(ctx, backend, Pending::GroupExec { group: group_id, backend }, move |op| {
                DbOp::Execute { op, conn: session.0, plan, marks: vec![(0, log_seq)] }
            });
        }
    }

    // ------------------------------------------------------------------
    // Multi-master, writeset-based
    // ------------------------------------------------------------------

    fn mm_writeset_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: ClientRequest,
        stmt: &Statement,
        plan: PlanExec,
    ) {
        let session = req.session;
        if !stmt.is_read_only() && !self.have_quorum() {
            self.reply(
                ctx,
                session,
                req.stmt_seq,
                Err(ReplyError::Unavailable("minority partition: writes suspended".into())),
            );
            return;
        }
        if !stmt.is_read_only() && !self.write_quorum_ok() {
            self.metrics.counters.degraded_write_rejects += 1;
            self.reply(
                ctx,
                session,
                req.stmt_seq,
                Err(ReplyError::Degraded("write quorum lost: cluster is read-only".into())),
            );
            return;
        }
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let (in_tx, delegate) = (s.in_tx, s.sticky);
        match stmt {
            Statement::Begin { isolation } => {
                // The delegate is chosen at the first statement, which shows
                // the table groups the transaction touches. BEGIN itself is
                // a middleware-side state change that remembers what the
                // client asked for.
                s.end_tx();
                s.in_tx = true;
                s.sticky = None;
                s.begin = Some(*isolation);
                self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack));
            }
            Statement::Commit => {
                let Some(backend) = delegate.filter(|_| in_tx) else {
                    let lost = in_tx && s.wrote_in_tx;
                    s.end_tx();
                    if lost {
                        // The delegate holding the transaction's writes
                        // failed or was removed since its last statement.
                        self.metrics.counters.lost_transactions += 1;
                        self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Unavailable("delegate lost".into())));
                    } else {
                        // BEGIN; COMMIT with no statement between: nothing
                        // executed anywhere, nothing to certify.
                        self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack));
                    }
                    return;
                };
                if !s.wrote_in_tx {
                    // Read-only transaction: commit locally, no certification.
                    s.end_tx();
                    s.current = Some(Current {
                        stmt_seq: req.stmt_seq,
                        kind: CurrentKind::WsStmt { opened: false },
                    });
                    self.send_db(ctx, backend, Pending::ClientExec { session, backend }, move |op| {
                        DbOp::Execute { op, conn: session.0, plan: PlanExec::commit(), marks: Vec::new() }
                    });
                    return;
                }
                if s.poisoned {
                    self.rollback_at_delegate(ctx, session);
                    let aborted = SqlError::TransactionState("transaction is aborted; COMMIT rolled it back".into());
                    self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Sql(aborted)));
                    return;
                }
                // The delegate returned every record with the statement
                // that wrote it: certify them without asking it again.
                let ws = std::mem::take(&mut s.ws);
                self.pw_publish_prepare(ctx, session, req.stmt_seq, ws);
            }
            Statement::Rollback => {
                s.end_tx();
                s.current = Some(Current {
                    stmt_seq: req.stmt_seq,
                    kind: CurrentKind::WsStmt { opened: false },
                });
                match delegate {
                    Some(backend) if self.backends[backend.0].online() => {
                        self.send_db(ctx, backend, Pending::ClientExec { session, backend }, move |op| {
                            DbOp::Execute { op, conn: session.0, plan: PlanExec::rollback(), marks: Vec::new() }
                        });
                    }
                    _ => self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack)),
                }
            }
            _ if stmt.is_read_only() && !in_tx => {
                self.route_read(ctx, req, stmt, plan);
            }
            _ => {
                // Any other statement executes at the delegate. A write
                // outside BEGIN opens an implicit snapshot transaction that
                // certifies and commits as soon as it has executed.
                let write = !stmt.is_read_only();
                if write {
                    self.metrics.counters.writes += 1;
                }
                let begin = if in_tx { s.begin } else { Some(Some(IsolationLevel::SnapshotIsolation)) };
                let gset = self.stmt_groups(stmt);
                // The statement that opens the transaction picks the delegate
                // among the hosts of every group it touches (the delegate
                // executes all of the transaction's statements locally).
                let backend = match (begin, delegate) {
                    (Some(_), _) => {
                        let candidates = self.read_candidates(&gset);
                        self.balancer.pick(&candidates).ok_or_else(|| {
                            ReplyError::Unavailable("no delegate hosts all involved groups".into())
                        })
                    }
                    (None, Some(b)) if self.hosts_all(b, &gset) => Ok(b),
                    (None, Some(_)) => {
                        // Documented limitation: a later statement cannot
                        // widen the group set beyond what the delegate,
                        // picked from the first one, hosts.
                        self.metrics.counters.rejected_statements += 1;
                        Err(ReplyError::Rejected(
                            "statement touches a table group the transaction's delegate does not host".into(),
                        ))
                    }
                    (None, None) => Err(ReplyError::Unavailable("delegate lost".into())),
                };
                let backend = match backend {
                    Ok(b) => b,
                    Err(e) => {
                        self.reply(ctx, session, req.stmt_seq, Err(e));
                        return;
                    }
                };
                let Some(s) = self.sessions.get_mut(session.0) else { return };
                if write {
                    s.wrote_in_tx = true;
                    s.last_write_us = ctx.now().micros();
                    s.last_write_backend = Some(backend);
                }
                // One op at the delegate: the (remembered or implicit) BEGIN
                // when this statement opens the transaction, whose response
                // then samples the certification start positions, and the
                // statement, whose response carries the records it wrote.
                let opened = begin.is_some();
                if opened {
                    s.in_tx = true;
                    s.sticky = Some(backend);
                    s.begin = None;
                }
                let kind = if in_tx { CurrentKind::WsStmt { opened } } else { CurrentKind::WsPrepare };
                s.current = Some(Current { stmt_seq: req.stmt_seq, kind });
                let begin = begin.map(PlanExec::begin);
                self.send_db(ctx, backend, Pending::ClientExec { session, backend }, move |op| {
                    DbOp::Delegate { op, conn: session.0, begin, stmt: plan, implicit: !in_tx }
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Certification and commit fan-out, per group
    // ------------------------------------------------------------------

    /// Split the prepared writeset along group boundaries and publish:
    /// one group → a plain per-group Certify; several → an XPrepare slot in
    /// every involved group's stream (cross-group 2PC, deterministic votes).
    fn pw_publish_prepare(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, ws: Writeset) {
        // Both callers answer a request of this session, so it exists.
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.current = Some(Current { stmt_seq, kind: CurrentKind::WsCertifyWait });
        let gstart = s.gstart.clone();
        let placement = &self.shards.placement;
        let mut slices = ws.split_by(|_db, t| placement.group_of(t));
        let default_group = placement.default_group();
        if slices.is_empty() {
            // Read-only-looking writeset (e.g. all writes rolled back):
            // still certify through one stream so the commit acks in order.
            slices.push((default_group, Writeset::default()));
        }
        let start = |g: usize| gstart.get(g).copied().unwrap_or(0);
        if slices.len() == 1 {
            let (g, part) = slices.swap_remove(0);
            let start_pos = start(g);
            self.shard_publish_write(
                ctx,
                g,
                ReplEvent::Certify { session, stmt_seq, start_pos, ws: part },
            );
            return;
        }
        let groups: Vec<u32> = slices.iter().map(|(g, _)| *g as u32).collect();
        for (g, part) in slices {
            let start_pos = start(g);
            self.shard_publish_write(
                ctx,
                g,
                ReplEvent::XPrepare { session, stmt_seq, groups: groups.clone(), start_pos, part },
            );
        }
    }

    /// Single-group certification request delivered on group `g`'s stream:
    /// certify against the group's conflict window, log the writeset at
    /// the group's next position (in writeset mode the log holds exactly
    /// the certified stream, so the log seq IS the certification
    /// position), then reply to the origin on abort or fan the commit out
    /// to the group's hosts.
    fn deliver_shard_certify(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        g: usize,
        session: SessionId,
        stmt_seq: u64,
        start_pos: u64,
        ws: Writeset,
    ) {
        let pk_map = &self.cfg.pk_map;
        let verdict = self.shards.certs[g].certify(start_pos, &ws, |db, t| {
            pk_map.get(&(db.to_string(), t.to_string())).copied()
        });
        let cert_pos = if verdict == Verdict::Commit {
            self.shards.logs[g].append_ws(ws.clone())
        } else {
            0
        };
        self.metrics.certifier = self.shards.agg_stats();
        let origin = {
            let s = self.session(session, None);
            matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq && matches!(c.kind, CurrentKind::WsCertifyWait))
        };
        if origin {
            // Certify publish → delivery plus the (instantaneous) conflict
            // check itself.
            self.mw_span(session, stmt_seq, Stage::Certify, ctx.now().micros());
        }
        match verdict {
            Verdict::Abort => {
                self.metrics.counters.certification_failures += 1;
                if origin {
                    self.certification_lost(ctx, session, stmt_seq, "first committer won");
                }
            }
            Verdict::Commit => self.fan_out_commit(ctx, session, stmt_seq, origin, &[(g as u32, cert_pos, &ws)]),
        }
    }

    /// A cross-group prepare slot delivered on group `g`'s stream. The vote
    /// is the group-local certification verdict, computed AT DELIVERY — a
    /// pure function of the group's ordered stream, so every middleware
    /// votes identically and no vote messages need exchanging. A yes vote
    /// optimistically reserves a log position; the decision (AND of all
    /// votes) fires when the last involved stream delivers locally.
    #[allow(clippy::too_many_arguments)]
    fn deliver_xprepare(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        g: usize,
        session: SessionId,
        stmt_seq: u64,
        groups: Vec<u32>,
        start_pos: u64,
        part: Writeset,
    ) {
        let now = ctx.now().micros();
        let done = {
            let pk_map = &self.cfg.pk_map;
            let shards = &mut self.shards;
            let verdict = shards.certs[g].certify(start_pos, &part, |db, t| {
                pk_map.get(&(db.to_string(), t.to_string())).copied()
            });
            let vote = verdict == Verdict::Commit;
            let rpos = if vote { shards.logs[g].append_ws(part.clone()) } else { 0 };
            let entry = shards.xtx.entry((session.0, stmt_seq)).or_insert_with(|| XTx {
                votes: vec![None; groups.len()],
                pos: vec![0; groups.len()],
                parts: vec![None; groups.len()],
                first_us: now,
                groups: groups.clone(),
            });
            let idx = entry
                .groups
                .iter()
                .position(|&eg| eg as usize == g)
                .expect("group not involved in its own XPrepare");
            entry.votes[idx] = Some(vote);
            entry.pos[idx] = rpos;
            entry.parts[idx] = Some(part);
            entry.votes.iter().all(Option::is_some)
        };
        self.metrics.certifier = self.shards.agg_stats();
        if done {
            let xtx = self
                .shards
                .xtx
                .remove(&(session.0, stmt_seq))
                .expect("the entry whose last vote just arrived");
            self.finish_xgroup(ctx, session, stmt_seq, xtx);
            // The decision may unblock a recovering backend whose replay
            // was capped below the (previously undecided) reserved slot.
            let recovering: Vec<BackendId> = (0..self.backends.len())
                .filter(|&i| matches!(self.backends[i].state, BackendState::Recovering { .. }))
                .map(BackendId)
                .collect();
            for b in recovering {
                self.pump_recovery(ctx, b);
            }
        }
    }

    /// All involved groups have voted locally: commit iff every vote is
    /// yes. On abort, yes-voting groups retract their optimistic
    /// reservation (certifier entry out, log slot voided, watermark marked
    /// everywhere so apply tracking never stalls on the hole); the group's
    /// next fan-out tells its hosts, so theirs do not stall either.
    fn finish_xgroup(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, xtx: XTx) {
        let commit = xtx.votes.iter().all(|v| *v == Some(true));
        let origin = {
            let s = self.session(session, None);
            matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq && matches!(c.kind, CurrentKind::WsCertifyWait))
        };
        let now = ctx.now().micros();
        if origin {
            // Publish → first local vote is the certify window; first vote
            // → decision is the cross-group wait (the 2PC tax E22 measures).
            self.mw_span(session, stmt_seq, Stage::Certify, xtx.first_us);
            self.mw_span(session, stmt_seq, Stage::CrossGroupWait, now);
        }
        if !commit {
            self.metrics.counters.xgroup_aborts += 1;
            self.metrics.counters.certification_failures += 1;
            for (idx, vote) in xtx.votes.iter().enumerate() {
                if *vote != Some(true) {
                    continue;
                }
                let (g, pos) = (xtx.groups[idx] as usize, xtx.pos[idx]);
                self.shards.certs[g].retract(pos);
                self.shards.voided[g].push(pos);
                self.void(g, pos);
            }
            self.metrics.certifier = self.shards.agg_stats();
            if origin {
                self.certification_lost(ctx, session, stmt_seq, "cross-group certification lost");
            }
            return;
        }
        self.metrics.counters.xgroup_commits += 1;
        // Every vote was yes, and a yes vote recorded its part.
        let parts: Vec<(u32, u64, &Writeset)> =
            xtx.groups.iter().zip(&xtx.pos).zip(xtx.parts.iter().flatten()).map(|((&g, &pos), p)| (g, pos, p)).collect();
        self.fan_out_commit(ctx, session, stmt_seq, origin, &parts);
    }

    /// Fan a certified transaction out, one op per healthy host of its
    /// groups. `parts` are (group, certified position, writeset part). The
    /// origin's delegate hosts every group (enforced at pick time) and
    /// commits, which marks all its group positions at once; any other
    /// host applies the parts of the groups it hosts as one writeset. The
    /// parts touch disjoint groups, so merging them keeps each row's
    /// certified order. Each op carries the positions it settles at its
    /// node, with the groups' voided positions, so the node's own
    /// per-group position stays contiguous.
    fn fan_out_commit(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        session: SessionId,
        stmt_seq: u64,
        origin: bool,
        parts: &[(u32, u64, &Writeset)],
    ) {
        // Freshness stamp: reads for this session must come from a backend
        // whose group marks reached these positions.
        if let Some(s) = self.sessions.get_mut(session.0) {
            for &(g, pos, _) in parts {
                raise(&mut s.gstamps, g as usize, pos);
            }
        }
        let delegate = if origin { self.sessions.get(session.0).and_then(|s| s.sticky) } else { None };
        let voided: Vec<(u32, u64)> = parts
            .iter()
            .flat_map(|&(g, ..)| std::mem::take(&mut self.shards.voided[g as usize]).into_iter().map(move |p| (g, p)))
            .collect();
        let mut remaining = 0;
        for backend in self.healthy() {
            let hosts = |g: u32| self.shards.placement.hosts(g as usize).contains(&backend.0);
            let hosted = parts.iter().filter(|(g, ..)| hosts(*g));
            let mut marks: Vec<(u32, u64)> = hosted.clone().map(|&(g, pos, _)| (g, pos)).collect();
            if marks.is_empty() {
                continue;
            }
            marks.extend(voided.iter().filter(|&&(g, _)| hosts(g)));
            if Some(backend) == delegate {
                remaining += 1;
                let wire = marks.clone();
                self.send_db(ctx, backend, Pending::PwCommit { session, backend, marks }, move |op| {
                    DbOp::Execute { op, conn: session.0, plan: PlanExec::commit(), marks: wire }
                });
                continue;
            }
            let mut ws = Writeset::default();
            for (_, _, part) in hosted {
                ws.entries.extend(part.entries.iter().cloned());
                if ws.counters.is_none() {
                    ws.counters.clone_from(&part.counters);
                }
            }
            remaining += usize::from(origin);
            let sess = origin.then_some(session);
            let wire = marks.clone();
            self.send_db(ctx, backend, Pending::PwApply { session: sess, backend, marks }, move |op| {
                DbOp::ApplyWriteset { op, ws, marks: wire }
            });
        }
        if origin {
            if let Some(s) = self.sessions.get_mut(session.0) {
                s.end_tx();
                s.current = Some(Current { stmt_seq, kind: CurrentKind::WsFinalize { remaining, failed: false } });
            }
            if remaining == 0 {
                self.metrics.counters.commits += 1;
                self.reply(ctx, session, stmt_seq, Ok(ReplyBody::Ack));
            }
        }
    }

    /// The origin's transaction lost certification: roll it back at its
    /// delegate and tell the client.
    fn certification_lost(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, detail: &str) {
        self.rollback_at_delegate(ctx, session);
        self.metrics.counters.aborts += 1;
        let err = SqlError::WriteConflict { table: "certification".into(), detail: detail.into() };
        self.reply(ctx, session, stmt_seq, Err(ReplyError::Sql(err)));
    }

    /// End `session`'s transaction, and roll it back at its delegate if
    /// that is still online.
    fn rollback_at_delegate(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.end_tx();
        if let Some(backend) = s.sticky.filter(|b| self.backends[b.0].online()) {
            self.send_db(ctx, backend, Pending::FireAndForget, move |op| {
                DbOp::Execute { op, conn: session.0, plan: PlanExec::rollback(), marks: Vec::new() }
            });
        }
    }

    // ------------------------------------------------------------------
    // Master-slave
    // ------------------------------------------------------------------

    fn ms_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: ClientRequest,
        stmt: &Statement,
        plan: PlanExec,
    ) {
        let session = req.session;
        let write_path = !stmt.is_read_only()
            || matches!(stmt, Statement::Begin { .. } | Statement::Commit | Statement::Rollback)
            || self.sessions.get(session.0).map(|s| s.in_tx).unwrap_or(false);
        if !write_path {
            self.route_read(ctx, req, stmt, plan);
            return;
        }
        if !self.write_quorum_ok() {
            self.metrics.counters.degraded_write_rejects += 1;
            self.reply(
                ctx,
                session,
                req.stmt_seq,
                Err(ReplyError::Degraded("write quorum lost: cluster is read-only".into())),
            );
            return;
        }
        let master = self.master;
        if !self.backends[master.0].online() {
            self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Unavailable("master down".into())));
            return;
        }
        {
            let s = self.sessions.get_mut(session.0).unwrap();
            match stmt {
                Statement::Begin { .. } => {
                    s.in_tx = true;
                    s.wrote_in_tx = false;
                }
                Statement::Commit | Statement::Rollback => s.in_tx = false,
                _ => {
                    s.wrote_in_tx = true;
                    s.last_write_us = ctx.now().micros();
                    s.last_write_backend = Some(master);
                }
            }
            s.current = Some(Current {
                stmt_seq: req.stmt_seq,
                kind: CurrentKind::MsWrite { backend: master },
            });
        }
        if !stmt.is_read_only() {
            self.metrics.counters.writes += 1;
        }
        self.send_db(ctx, master, Pending::ClientExec { session, backend: master }, move |op| {
            DbOp::Execute { op, conn: session.0, plan, marks: Vec::new() }
        });
    }

    /// Kick off 1-safe shipping (timer-driven).
    fn ship_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Mode::MasterSlave { ship_interval_us, .. } = self.cfg.mode else { return };
        ctx.set_timer(ship_interval_us, TIMER_SHIP);
        if self.shipping_inflight || !self.backends[self.master.0].online() {
            return;
        }
        let min_applied = self
            .slaves()
            .iter()
            .map(|b| self.backends[b.0].applied_lsn)
            .min()
            .unwrap_or(Lsn(0));
        self.shipping_inflight = true;
        if crate::debug_on() {
            eprintln!("[{}us] ship fetch after {min_applied:?}", ctx.now().micros());
        }
        let master = self.master;
        self.send_db(ctx, master, Pending::ShipFetch { after: min_applied }, move |op| {
            DbOp::BinlogAfter { op, after: min_applied }
        });
    }

    // ------------------------------------------------------------------
    // Partitioned
    // ------------------------------------------------------------------

    fn part_request(&mut self, ctx: &mut Ctx<'_, Msg>, req: ClientRequest, stmt: &Statement, plan: PlanExec) {
        let Mode::PartitionedStatement { partitioner, groups } = &self.cfg.mode else {
            unreachable!()
        };
        let session = req.session;
        let route = partitioner.route(stmt);
        let groups = groups.clone();
        let read_only = stmt.is_read_only();
        if !read_only && !self.write_quorum_ok() {
            self.metrics.counters.degraded_write_rejects += 1;
            self.reply(
                ctx,
                session,
                req.stmt_seq,
                Err(ReplyError::Degraded("write quorum lost: cluster is read-only".into())),
            );
            return;
        }
        let targets: Vec<BackendId> = match (&route, read_only) {
            (Route::Single(p), true) => {
                // Read: one replica of the owning partition.
                let candidates: Vec<BackendId> = groups[*p]
                    .iter()
                    .copied()
                    .filter(|b| self.backends[b.0].online())
                    .collect();
                match self.balancer.pick(&candidates) {
                    Some(b) => vec![b],
                    None => vec![],
                }
            }
            (Route::Single(p), false) => groups[*p]
                .iter()
                .copied()
                .filter(|b| self.backends[b.0].online())
                .collect(),
            (Route::All, true) => {
                // Scatter read: one replica per partition (intra-query
                // parallelism); the client-visible result is the first
                // partition's result merged trivially — our workloads use
                // keyed reads, so scatter reads are rare. Execute on one
                // replica of each partition and merge row counts.
                let mut t = Vec::new();
                for g in &groups {
                    let candidates: Vec<BackendId> =
                        g.iter().copied().filter(|b| self.backends[b.0].online()).collect();
                    if let Some(b) = self.balancer.pick(&candidates) {
                        t.push(b);
                    }
                }
                t
            }
            (Route::All, false) => self.healthy(),
        };
        if targets.is_empty() {
            self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Unavailable("partition unavailable".into())));
            return;
        }
        if !read_only {
            self.metrics.counters.writes += 1;
        } else {
            self.metrics.counters.reads += 1;
        }
        let group_id = self.next_group;
        self.next_group += 1;
        self.exec_groups.insert(
            group_id,
            ExecGroup {
                session,
                stmt_seq: req.stmt_seq,
                remaining: targets.len(),
                canonical: None,
                origin: true,
                log_seq: 0,
            },
        );
        {
            let s = self.sessions.get_mut(session.0).unwrap();
            s.current = Some(Current {
                stmt_seq: req.stmt_seq,
                kind: CurrentKind::ExecGroup { group: group_id },
            });
            if !read_only {
                s.last_write_us = ctx.now().micros();
            }
        }
        for backend in targets {
            let plan = plan.clone();
            self.send_db(ctx, backend, Pending::GroupExec { group: group_id, backend }, move |op| {
                DbOp::Execute { op, conn: session.0, plan, marks: Vec::new() }
            });
        }
    }

    // ------------------------------------------------------------------
    // Database responses
    // ------------------------------------------------------------------

    fn on_db_resp(&mut self, ctx: &mut Ctx<'_, Msg>, resp: DbResp) {
        let op = resp.op();
        let Some((pending, started)) = self.pending.remove(&op) else { return };
        match pending {
            Pending::ClientExec { session, backend } => {
                self.balancer.completed(backend);
                let now = ctx.now().micros();
                self.touch_liveness(backend, now);
                self.score_completion(now, backend, started, op);
                self.finish_client_exec(ctx, session, backend, resp);
            }
            Pending::GroupExec { group, backend } => {
                self.balancer.completed(backend);
                let now = ctx.now().micros();
                self.touch_liveness(backend, now);
                self.score_completion(now, backend, started, op);
                self.finish_group_exec(ctx, group, backend, resp, false);
            }
            Pending::GroupExecBatch { groups, backend } => {
                self.balancer.completed(backend);
                let now = ctx.now().micros();
                self.touch_liveness(backend, now);
                self.score_completion(now, backend, started, op);
                if let DbResp::ExecBatchOut { results, .. } = resp {
                    // One grouped response resolves every statement's exec
                    // group, in batch order, exactly as N `Execute` replies
                    // would have.
                    for (group, r) in groups.into_iter().zip(results) {
                        let stmt_resp = match r {
                            crate::msg::BatchExecResult::Ok { body, commit, tainted } => {
                                DbResp::ExecOk { op: 0, body, commit, tainted }
                            }
                            crate::msg::BatchExecResult::Err { err } => {
                                DbResp::ExecErr { op: 0, err }
                            }
                        };
                        self.finish_group_exec(ctx, group, backend, stmt_resp, false);
                    }
                } else {
                    for group in groups {
                        self.finish_group_exec(ctx, group, backend, DbResp::RestoreOk { op: 0 }, true);
                    }
                }
            }
            Pending::PwCommit { session, backend, marks } => {
                self.balancer.completed(backend);
                if matches!(resp, DbResp::ExecOk { .. }) {
                    for &(g, pos) in &marks {
                        self.shards.marks[backend.0][g as usize].mark(pos);
                    }
                }
                let failed = !matches!(resp, DbResp::ExecOk { .. });
                self.finish_ws_part(ctx, Some(session), failed);
            }
            Pending::PwApply { session, backend, marks } => {
                self.balancer.completed(backend);
                if matches!(resp, DbResp::ApplyOk { .. }) {
                    for &(g, pos) in &marks {
                        self.shards.marks[backend.0][g as usize].mark(pos);
                    }
                }
                self.finish_pw_apply(ctx, session, backend, resp);
            }
            Pending::Ping { backend } => {
                self.balancer.completed(backend);
                if let DbResp::Pong { applied_lsn, head, ordered_applied, durable_ordered, .. } = resp
                {
                    self.note_pong(ctx, backend, applied_lsn, head, ordered_applied, durable_ordered);
                }
            }
            Pending::ShipFetch { .. } => {
                self.shipping_inflight = false;
                self.finish_ship_fetch(ctx, resp);
            }
            Pending::TwoSafeFetch { session, .. } => {
                self.finish_two_safe_fetch(ctx, session, resp);
            }
            Pending::ShipApply { backend, session, upto } => {
                self.balancer.completed(backend);
                self.ship_busy.remove(&backend);
                let _ = upto;
                match resp {
                    DbResp::ApplyOk { applied_lsn, .. } => {
                        let b = &mut self.backends[backend.0];
                        b.applied_lsn = b.applied_lsn.max(applied_lsn);
                        self.touch_liveness(backend, ctx.now().micros());
                    }
                    DbResp::ApplyErr { .. } => {
                        // Partial progress is learned from the next Pong;
                        // shipping retries from there on the next tick.
                        self.metrics.counters.divergence_detected += 1;
                    }
                    _ => {}
                }
                if let Some(session) = session {
                    self.finish_two_safe_part(ctx, session);
                }
            }
            Pending::RecoveryBatch { backend, group, upto } => {
                self.finish_recovery_batch(ctx, backend, group, upto, resp);
            }
            Pending::ResyncDumpReq { target, heads } => {
                self.finish_resync_dump(ctx, target, heads, resp);
            }
            Pending::BackupDump { backend, hot, started_us } => {
                self.balancer.completed(backend);
                if crate::debug_on() {
                    eprintln!("[backup] resp for b{} hot={hot}: {:?}", backend.0, std::mem::discriminant(&resp));
                }
                if let DbResp::DumpOut { dump, .. } = resp {
                    self.metrics.backups.push((
                        started_us,
                        ctx.now().micros(),
                        hot,
                        dump.row_count(),
                    ));
                }
            }
            Pending::ResyncRestore { backend, baseline, heads } => {
                self.finish_resync_restore(ctx, backend, baseline, heads, resp);
            }
            Pending::FireAndForget => {}
        }
        // Any response can have advanced the freshness vector (apply acks,
        // pongs, cert marks, recovery completion): release parked reads.
        self.drain_fresh_waiters(ctx);
    }

    fn finish_client_exec(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, backend: BackendId, resp: DbResp) {
        let current = match self.sessions.get(session.0).and_then(|s| s.current.clone()) {
            Some(c) => c,
            None => return,
        };
        let stmt_seq = current.stmt_seq;
        // Whatever happened since the last span was waiting on this backend.
        self.mw_span(session, stmt_seq, Stage::Execute, ctx.now().micros());
        if let CurrentKind::WsStmt { opened: true } | CurrentKind::WsPrepare = current.kind {
            // The op ran BEGIN. Its snapshot holds every certified writeset
            // the delegate's watermarks count now, and none they count
            // later: the link is FIFO and the node runs ops serially, so an
            // apply or commit is acknowledged before this response iff it
            // ran before that BEGIN. (If the BEGIN failed, or the implicit
            // transaction was rolled back, nothing will certify against
            // these positions.)
            let gstart: Vec<u64> = self.shards.marks[backend.0].iter().map(|w| w.value()).collect();
            if let Some(s) = self.sessions.get_mut(session.0) {
                s.gstart = gstart;
            }
        }
        match current.kind {
            CurrentKind::Read { .. } => match resp {
                DbResp::ExecOk { body, .. } => {
                    self.reply_read(ctx, session, stmt_seq, Ok(body));
                }
                DbResp::ExecErr { err, .. } => {
                    self.reply_read(ctx, session, stmt_seq, Err(ReplyError::Sql(err)));
                }
                _ => {}
            },
            CurrentKind::TempExec { .. } | CurrentKind::WsStmt { .. } | CurrentKind::WsPrepare => {
                let res = match resp {
                    DbResp::ExecOk { body, commit, .. } => {
                        if commit.is_some() {
                            self.metrics.counters.commits += 1;
                        }
                        Ok(body)
                    }
                    DbResp::ExecErr { err, .. } => Err(err),
                    DbResp::DelegateOut { res, ws, poisoned, .. } => {
                        let autocommit = matches!(current.kind, CurrentKind::WsPrepare);
                        if autocommit && res.is_ok() {
                            self.pw_publish_prepare(ctx, session, stmt_seq, *ws);
                            return;
                        }
                        if let Some(s) = self.sessions.get_mut(session.0) {
                            if autocommit {
                                // The node rolled the implicit transaction back.
                                s.end_tx();
                            } else {
                                s.ws.entries.extend(ws.entries);
                                s.poisoned |= poisoned;
                            }
                        }
                        res
                    }
                    _ => return,
                };
                if res.as_ref().is_err_and(SqlError::is_retryable) {
                    self.metrics.counters.aborts += 1;
                }
                self.reply(ctx, session, stmt_seq, res.map_err(ReplyError::Sql));
            }
            CurrentKind::MsWrite { .. } => self.finish_ms_write(ctx, session, stmt_seq, resp),
            _ => {}
        }
    }

    fn finish_group_exec(&mut self, ctx: &mut Ctx<'_, Msg>, group: u64, backend: BackendId, resp: DbResp, failed: bool) {
        let Some(g) = self.exec_groups.get_mut(&group) else { return };
        let result: Option<Result<ReplyBody, SqlError>> = if failed {
            None
        } else {
            match resp {
                DbResp::ExecOk { body, commit, .. } => {
                    if commit.is_some() && g.origin {
                        self.metrics.counters.commits += 1;
                    }
                    Some(Ok(body))
                }
                DbResp::ExecErr { err, .. } => Some(Err(err)),
                _ => None,
            }
        };
        if !failed {
            // Record progress for recovery checkpoints (an unlogged,
            // partitioned write has position 0, which marks nothing).
            self.shards.marks[backend.0][0].mark(g.log_seq);
        }
        match (&g.canonical, &result) {
            (None, Some(r)) => g.canonical = Some(r.clone()),
            (Some(c), Some(r)) if c != r => {
                self.metrics.counters.divergence_detected += 1;
            }
            _ => {}
        }
        g.remaining = g.remaining.saturating_sub(1);
        if g.remaining == 0 {
            let g = self.exec_groups.remove(&group).unwrap();
            if g.canonical.is_none() && g.log_seq > 0 {
                // Every backend failed before executing: the entry must not
                // survive into recovery replay (see RecoveryLog::void).
                self.void(0, g.log_seq);
            }
            let result = match g.canonical {
                Some(Ok(body)) => Ok(body),
                Some(Err(e)) => {
                    if g.origin && e.is_retryable() {
                        self.metrics.counters.aborts += 1;
                    }
                    Err(ReplyError::Sql(e))
                }
                None => Err(ReplyError::Unavailable("all backends failed".into())),
            };
            if g.log_seq > 0 && result.is_ok() {
                // Freshness stamp: the write is applied up to this ordered
                // seq; later reads for the session require at least it.
                if let Some(sess) = self.sessions.get_mut(g.session.0) {
                    raise(&mut sess.gstamps, 0, g.log_seq);
                }
            }
            if g.origin {
                // Delivery (or arrival, in partitioned mode) → slowest
                // backend done.
                self.mw_span(g.session, g.stmt_seq, Stage::Execute, ctx.now().micros());
                self.reply(ctx, g.session, g.stmt_seq, result);
            } else if result.is_ok() {
                // Sequoia-style transparent failover (§4.3.3): every peer
                // caches the outcome of the ordered statement, so a client
                // that retries here after its home middleware died gets the
                // cached reply instead of a re-execution.
                if let Some(sess) = self.sessions.get_mut(g.session.0) {
                    if g.stmt_seq > sess.last_replied {
                        sess.last_replied = g.stmt_seq;
                        sess.cached = Some(ClientReply {
                            session: g.session,
                            stmt_seq: g.stmt_seq,
                            result,
                        });
                    }
                }
            }
        }
    }

    /// A remote writeset application finished. It cannot wait on a local
    /// transaction (the engine wounds the holder, see
    /// [`replimid_sql::Engine::apply_writeset`]), so any error means the
    /// backend diverged: the certified transaction IS committed
    /// cluster-wide, and a backend that cannot apply it is dropped and
    /// rebuilt through the recovery log. The divergence is counted here,
    /// once, so the origin's fan-out does not count it again.
    fn finish_pw_apply(&mut self, ctx: &mut Ctx<'_, Msg>, session: Option<SessionId>, backend: BackendId, resp: DbResp) {
        if matches!(resp, DbResp::ApplyErr { .. }) {
            self.metrics.counters.divergence_detected += 1;
            if self.backends[backend.0].online() {
                self.backend_failed(ctx, backend);
                // A synthetic pong brings it straight back through recovery
                // (the node itself is alive; only its state lagged). Its
                // ordered positions are unknown here (no real pong was
                // involved); u64::MAX defers to the middleware's own
                // checkpoints, and the durable positions stay the last ones
                // a real pong reported.
                let b = &self.backends[backend.0];
                let (lsn, durable) = (b.applied_lsn, b.node_pos.clone());
                let unknown = vec![u64::MAX; self.shards.groups()];
                self.note_pong(ctx, backend, lsn, lsn, unknown, durable);
            }
        }
        self.finish_ws_part(ctx, session, false);
    }

    /// One part of a certified commit's fan-out is done. If any part
    /// failed, one divergence is counted when the last part is in.
    fn finish_ws_part(&mut self, ctx: &mut Ctx<'_, Msg>, session: Option<SessionId>, part_failed: bool) {
        let Some(session) = session else { return };
        let current = match self.sessions.get(session.0).and_then(|s| s.current.clone()) {
            Some(c) => c,
            None => return,
        };
        let CurrentKind::WsFinalize { mut remaining, mut failed } = current.kind else { return };
        failed |= part_failed;
        remaining = remaining.saturating_sub(1);
        if remaining == 0 {
            if failed {
                self.metrics.counters.divergence_detected += 1;
            }
            self.metrics.counters.commits += 1;
            // Certification → last replica acknowledged.
            self.mw_span(session, current.stmt_seq, Stage::Fanout, ctx.now().micros());
            self.reply(ctx, session, current.stmt_seq, Ok(ReplyBody::Ack));
        } else {
            let s = self.sessions.get_mut(session.0).unwrap();
            s.current = Some(Current {
                stmt_seq: current.stmt_seq,
                kind: CurrentKind::WsFinalize { remaining, failed },
            });
        }
    }

    fn finish_ms_write(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, resp: DbResp) {
        let Mode::MasterSlave { two_safe, .. } = self.cfg.mode else { return };
        match resp {
            DbResp::ExecOk { body, commit, .. } => {
                let committed = commit.is_some();
                if committed {
                    self.metrics.counters.commits += 1;
                    self.backends[self.master.0].applied_lsn =
                        commit.as_ref().map(|c| c.lsn).unwrap_or(Lsn(0));
                    // Freshness stamp: slaves are fresh for this session
                    // once their shipped-apply position reaches this LSN.
                    let lsn = commit.as_ref().map(|c| c.lsn.0).unwrap_or(0);
                    if let Some(s) = self.sessions.get_mut(session.0) {
                        raise(&mut s.gstamps, 0, lsn);
                    }
                }
                if two_safe && committed && !self.slaves().is_empty() {
                    // Fetch the unshipped tail and push it synchronously.
                    {
                        let s = self.sessions.get_mut(session.0).unwrap();
                        s.current = Some(Current {
                            stmt_seq,
                            kind: CurrentKind::MsTwoSafe { remaining: 0 },
                        });
                        s.cached = None;
                    }
                    // Stash the body to return after slave acks.
                    self.sessions.get_mut(session.0).unwrap().two_safe_body = Some(body);
                    let min_applied = self
                        .slaves()
                        .iter()
                        .map(|b| self.backends[b.0].applied_lsn)
                        .min()
                        .unwrap_or(Lsn(0));
                    let master = self.master;
                    self.send_db(
                        ctx,
                        master,
                        Pending::TwoSafeFetch { session, after: min_applied },
                        move |op| DbOp::BinlogAfter { op, after: min_applied },
                    );
                } else {
                    self.reply(ctx, session, stmt_seq, Ok(body));
                }
            }
            DbResp::ExecErr { err, .. } => {
                if err.is_retryable() {
                    self.metrics.counters.aborts += 1;
                }
                self.reply(ctx, session, stmt_seq, Err(ReplyError::Sql(err)));
            }
            _ => {}
        }
    }

    fn finish_two_safe_fetch(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, resp: DbResp) {
        let Mode::MasterSlave { use_writesets, parallel_apply, .. } = self.cfg.mode else { return };
        let DbResp::BinlogOut { entries, head, .. } = resp else { return };
        let slaves = self.slaves();
        let stmt_seq = match self.sessions.get(session.0).and_then(|s| s.current.as_ref()) {
            Some(c) => c.stmt_seq,
            None => return,
        };
        if slaves.is_empty() || entries.is_empty() {
            let body = self
                .sessions
                .get_mut(session.0)
                .and_then(|s| s.two_safe_body.take())
                .unwrap_or(ReplyBody::Ack);
            self.mw_span(session, stmt_seq, Stage::Fanout, ctx.now().micros());
            self.reply(ctx, session, stmt_seq, Ok(body));
            return;
        }
        {
            let s = self.sessions.get_mut(session.0).unwrap();
            s.current = Some(Current {
                stmt_seq,
                kind: CurrentKind::MsTwoSafe { remaining: slaves.len() },
            });
        }
        for backend in slaves {
            let after = self.backends[backend.0].applied_lsn;
            let to_apply: Vec<_> = entries.iter().filter(|e| e.lsn > after).cloned().collect();
            if to_apply.is_empty() {
                self.finish_two_safe_part(ctx, session);
                continue;
            }
            self.ship_busy.insert(backend);
            self.send_db(
                ctx,
                backend,
                Pending::ShipApply { backend, session: Some(session), upto: head },
                move |op| DbOp::ApplyBinlog {
                    op,
                    entries: to_apply,
                    use_writesets,
                    parallel_apply,
                    space: ApplySpace::Binlog,
                },
            );
        }
    }

    fn finish_two_safe_part(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        let current = match self.sessions.get(session.0).and_then(|s| s.current.clone()) {
            Some(c) => c,
            None => return,
        };
        let CurrentKind::MsTwoSafe { remaining } = current.kind else { return };
        let remaining = remaining.saturating_sub(1);
        if remaining == 0 {
            let body = self
                .sessions
                .get_mut(session.0)
                .and_then(|s| s.two_safe_body.take())
                .unwrap_or(ReplyBody::Ack);
            // 2-safe shipping: commit → every slave confirmed the tail.
            self.mw_span(session, current.stmt_seq, Stage::Fanout, ctx.now().micros());
            self.reply(ctx, session, current.stmt_seq, Ok(body));
        } else {
            let s = self.sessions.get_mut(session.0).unwrap();
            s.current = Some(Current {
                stmt_seq: current.stmt_seq,
                kind: CurrentKind::MsTwoSafe { remaining },
            });
        }
    }

    fn finish_ship_fetch(&mut self, ctx: &mut Ctx<'_, Msg>, resp: DbResp) {
        let Mode::MasterSlave { use_writesets, parallel_apply, .. } = self.cfg.mode else { return };
        let DbResp::BinlogOut { entries, head, resync_needed, .. } = resp else { return };
        if crate::debug_on() {
            eprintln!(
                "[{}us] ship got {} entries head={head:?} resync={resync_needed}",
                ctx.now().micros(),
                entries.len()
            );
        }
        if resync_needed {
            // The master purged its log past a slave's position: those
            // slaves need a full resync (§4.4.2).
            for b in self.slaves() {
                self.start_full_resync(ctx, b);
            }
            return;
        }
        if entries.is_empty() {
            // Record zero lag samples.
            let now = ctx.now().micros();
            for b in self.slaves() {
                let lag = head.0.saturating_sub(self.backends[b.0].applied_lsn.0);
                self.metrics.lag_samples.push((now, lag));
            }
            return;
        }
        let now = ctx.now().micros();
        for backend in self.slaves() {
            let after = self.backends[backend.0].applied_lsn;
            let to_apply: Vec<_> = entries.iter().filter(|e| e.lsn > after).cloned().collect();
            let lag = head.0.saturating_sub(after.0);
            self.metrics.lag_samples.push((now, lag));
            if to_apply.is_empty() || self.ship_busy.contains(&backend) {
                continue;
            }
            self.ship_busy.insert(backend);
            self.send_db(
                ctx,
                backend,
                Pending::ShipApply { backend, session: None, upto: head },
                move |op| DbOp::ApplyBinlog {
                    op,
                    entries: to_apply,
                    use_writesets,
                    parallel_apply,
                    space: ApplySpace::Binlog,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Failure detection / failover / recovery
    // ------------------------------------------------------------------

    /// Refresh a backend's liveness clock. With adaptive detection on, the
    /// observed silence gap feeds that backend's learned threshold, so
    /// stretched-but-alive traffic (brownout, load) raises the timeout
    /// instead of tripping it.
    fn touch_liveness(&mut self, backend: BackendId, now: u64) {
        let last = self.backends[backend.0].last_pong_us;
        if let Some(th) = self.pong_adaptive.get_mut(backend.0) {
            let gap = now.saturating_sub(last);
            if last > 0 && gap > 0 {
                th.observe(gap);
            }
        }
        self.backends[backend.0].last_pong_us = now;
    }

    /// The silence threshold currently applied to a backend: the learned
    /// adaptive one when enabled, the fixed heartbeat timeout otherwise.
    fn silence_timeout_us(&self, backend: usize) -> u64 {
        self.pong_adaptive
            .get(backend)
            .map(|t| t.timeout_us())
            .unwrap_or(self.cfg.heartbeat.timeout_us)
    }

    fn note_pong(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        backend: BackendId,
        applied_lsn: Lsn,
        head: Lsn,
        ordered_applied: Vec<u64>,
        durable_ordered: Vec<u64>,
    ) {
        let now = ctx.now().micros();
        let was_down = self.backends[backend.0].state == BackendState::Down;
        self.touch_liveness(backend, now);
        // A rejoin replays from the positions the node reports now; any
        // other pong only moves the floors a later crash cannot undercut.
        self.backends[backend.0].node_pos = if was_down { ordered_applied } else { durable_ordered };
        if self.master_slave() {
            // The master reports its binlog head; slaves report the foreign
            // LSN they applied.
            let b = &mut self.backends[backend.0];
            let v = if backend == self.master { head } else { applied_lsn };
            b.applied_lsn = b.applied_lsn.max(v);
        }
        if was_down {
            // The node is back: start the rejoin procedure (§4.4.2).
            self.recovery_started.insert(backend, now);
            if self.master_slave() {
                self.start_full_resync(ctx, backend);
            } else {
                self.start_log_recovery(ctx, backend);
            }
        }
    }

    fn ping_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.cfg.heartbeat.interval_us, TIMER_PING);
        let now = ctx.now().micros();
        // Advance quarantine dwell timers (Quarantined -> half-open).
        if self.cfg.quarantine.is_some() {
            for i in 0..self.backends.len() {
                if self.backends[i].online() {
                    self.health[i].tick(now);
                }
            }
        }
        // Detect silent backends (per-backend threshold when adaptive).
        for i in 0..self.backends.len() {
            let b = BackendId(i);
            let silent = now.saturating_sub(self.backends[i].last_pong_us);
            let timeout = self.silence_timeout_us(i);
            if self.backends[i].online() && self.backends[i].last_pong_us > 0 && silent > timeout {
                if !ctx.oracle_is_crashed(self.backends[i].node) {
                    // The backend was alive — a brownout or lossy link
                    // fooled the detector (oracle measurement only).
                    self.metrics.counters.false_evictions += 1;
                }
                self.backend_failed(ctx, b);
            }
        }
        // Finalize drains whose in-flight work has completed — before the
        // ping sends below enqueue fresh (ignorable) Ping pendings.
        self.try_finish_drains(ctx);
        self.trim_logs();
        self.advance_ship_horizon();
        // Ping everyone (including Down nodes: that is how we see them
        // return), each with the binlog horizon its readers leave it.
        for i in 0..self.backends.len() {
            let b = BackendId(i);
            let binlog_horizon = match self.cfg.mode {
                Mode::MasterSlave { .. } if b == self.master => Some(self.ship_horizon),
                // A slave's binlog is read by no one (after a failover the
                // other slaves rebuild from a dump of the new master), but
                // only what it holds now may go: once promoted, its new
                // commits wait for the next ping to learn their readers.
                Mode::MasterSlave { .. } => Some(Lsn(u64::MAX)),
                // Multi-master modes never read a backend's binlog.
                _ => None,
            };
            self.send_db(ctx, b, Pending::Ping { backend: b }, move |op| {
                DbOp::Ping { op, binlog_horizon }
            });
        }
    }

    /// The lowest position of group `g`'s recovery-log stream that backend
    /// `b`'s rejoin could still read after: entries at or below it can go.
    /// [`Self::start_log_recovery`] starts replay exactly here. One rule
    /// for every multi-master mode and placement: the lower of what the
    /// backend acknowledged in `g` (`marks`, or its checkpoint once out of
    /// rotation) and the node's own position in `g`, and the replay cursor
    /// while it recovers. A backend that never reported a position pins 0.
    /// Master-slave never reads the recovery log: a rejoin restores a dump
    /// of the master and ships from its binlog.
    fn replay_floor(&self, b: BackendId, g: usize) -> u64 {
        if self.master_slave() {
            return u64::MAX;
        }
        let be = &self.backends[b.0];
        let node = be.node_pos.get(g).copied().unwrap_or(0);
        let checkpoint = self.shards.logs[g].checkpoint_of(b).unwrap_or(0);
        let live = self.shards.marks[b.0][g].value().min(node);
        match &be.state {
            BackendState::Online => live,
            BackendState::Recovering { next, .. } => {
                let cursor = next.iter().find(|&&(cg, _)| cg == g).map_or(u64::MAX, |&(_, n)| n);
                live.min(cursor).min(checkpoint)
            }
            BackendState::Resyncing
            | BackendState::Down
            | BackendState::Draining
            | BackendState::Removed => checkpoint.min(node),
        }
    }

    /// Trim every recovery-log stream below the lowest replay floor of the
    /// backends hosting it: nothing a rejoin can still ask for goes.
    fn trim_logs(&mut self) {
        for g in 0..self.shards.groups() {
            let floor = self
                .shards
                .placement
                .hosts(g)
                .iter()
                .map(|&b| self.replay_floor(BackendId(b), g))
                .min()
                .unwrap_or(u64::MAX);
            self.shards.logs[g].force_truncate(floor);
        }
    }

    /// Master-slave: move the master's binlog horizon up to the lowest
    /// position a reader can still ask for — every online slave's applied
    /// LSN and the `after` of every fetch in flight (a fetch may arrive
    /// behind the next ping). Frozen while a slave resyncs: its dump
    /// baseline is the master's head when the dump is taken, which the
    /// other slaves may overtake before the restore lands; and kept when no
    /// slave is online (a returning one resyncs too).
    fn advance_ship_horizon(&mut self) {
        if !self.master_slave() {
            return;
        }
        let resyncing = self
            .backends
            .iter()
            .enumerate()
            .any(|(i, b)| i != self.master.0 && b.state == BackendState::Resyncing);
        if resyncing {
            return;
        }
        let fetches = self.pending.values().filter_map(|(p, _)| match p {
            Pending::ShipFetch { after } | Pending::TwoSafeFetch { after, .. } => Some(*after),
            _ => None,
        });
        let slaves = self.slaves();
        let lowest = slaves.iter().map(|b| self.backends[b.0].applied_lsn).chain(fetches).min();
        if let Some(h) = lowest {
            self.ship_horizon = h;
        }
    }

    /// Start a graceful drain (§4.4.1 planned maintenance). The backend
    /// leaves routing and replication fan-out immediately (`online()` is
    /// false for `Draining`), sticky sessions are re-routed on their next
    /// statement exactly as after a failure, but — unlike `backend_failed`
    /// — in-flight operations are left in `pending` to complete normally.
    /// Once none remain the backend parks in `Removed`.
    fn drain_backend(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if !self.backends[backend.0].online() {
            return; // only an in-rotation backend can be drained
        }
        let now = ctx.now().micros();
        self.metrics.counters.drains_started += 1;
        self.backends[backend.0].drain_started_us = now;
        self.backends[backend.0].state = BackendState::Draining;
        // Master-slave: hand the master role off (a controlled switchover)
        // so writes keep flowing while the old master drains. The drainee
        // is already out of `slaves()` here, so the promotion neither
        // picks it nor schedules a pointless resync of it.
        if self.master_slave() && backend == self.master {
            let lost = self.promote_new_master(ctx);
            self.metrics.counters.lost_transactions += lost;
        }
        // No new work will be assigned; outstanding-count history would
        // otherwise leak back as phantom load if the backend is re-added.
        self.balancer.reset(backend);
        // Record the log checkpoints now: if the backend is later re-added,
        // the recovery log (or its truncation escalation) covers the gap.
        self.checkpoint(backend);
        // Sessions stuck to the draining backend re-route on their next
        // statement (same semantics as after a failure — an idle in-tx
        // writeset session is told its delegate is lost and retries the
        // transaction elsewhere).
        for s in self.sessions.values_mut() {
            if s.sticky == Some(backend) && !s.temp_pinned {
                s.sticky = None;
            }
        }
        self.update_degraded(ctx);
        self.drain_fresh_waiters(ctx);
        self.try_finish_drains(ctx);
    }

    /// Complete any drain whose backend has no in-flight work left. Pings
    /// are excluded: they are perpetual (every heartbeat pings everyone)
    /// and their loss is harmless. Stuck non-ping ops cannot block a drain
    /// forever — `op_timed_out` fails the backend, which finalizes the
    /// drain through `backend_failed`'s was-draining path.
    fn try_finish_drains(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for i in 0..self.backends.len() {
            if self.backends[i].state != BackendState::Draining {
                continue;
            }
            let b = BackendId(i);
            let busy = self
                .pending
                .values()
                .any(|(p, _)| !matches!(p, Pending::Ping { .. }) && pending_backend(p) == Some(b));
            if busy {
                continue;
            }
            let now = ctx.now().micros();
            let started = self.backends[i].drain_started_us;
            self.backends[i].drain_started_us = 0;
            self.backends[i].state = BackendState::Removed;
            self.metrics.counters.drains_completed += 1;
            self.metrics.drains.push((i, started, now));
            // Same post-removal hygiene as a failure: stale latency
            // history and probes are meaningless if it ever returns.
            self.probe_op.remove(&b);
            if self.cfg.quarantine.is_some() {
                self.health[i].reset(now);
                self.sync_health_events(i);
            }
            if crate::debug_on() {
                eprintln!("[{now}us] drain of b{i} complete after {}us", now - started);
            }
        }
    }

    /// Re-admit a `Removed` backend: mark it `Down` so its next pong takes
    /// the one rejoin (per-group recovery-log replay, falling back to a
    /// full resync when a stream has been truncated past its position).
    fn add_backend(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if self.backends[backend.0].state != BackendState::Removed {
            return;
        }
        self.metrics.counters.backends_added += 1;
        self.backends[backend.0].state = BackendState::Down;
        if crate::debug_on() {
            eprintln!("[{}us] add_backend b{} -> Down (awaiting pong)", ctx.now().micros(), backend.0);
        }
    }

    fn backend_failed(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if matches!(
            self.backends[backend.0].state,
            BackendState::Down | BackendState::Removed
        ) {
            return;
        }
        // A backend that dies mid-drain was being decommissioned anyway:
        // run the full failure drain below (in-flight ops cannot complete
        // any more), but park it in `Removed` rather than `Down` so it
        // does not auto-rejoin on its next pong.
        let was_draining = self.backends[backend.0].state == BackendState::Draining;
        if self.barrier_for == Some(backend) {
            self.barrier_for = None;
            self.drain_shard_buffer(ctx);
        }
        self.recovery_started.remove(&backend);
        if crate::debug_on() {
            eprintln!(
                "[{}us] backend_failed b{} from state {:?}",
                ctx.now().micros(),
                backend.0,
                self.backends[backend.0].state
            );
        }
        self.ship_busy.remove(&backend);
        self.backends[backend.0].state = if was_draining {
            let started = self.backends[backend.0].drain_started_us;
            self.backends[backend.0].drain_started_us = 0;
            self.metrics.counters.drains_completed += 1;
            self.metrics.drains.push((backend.0, started, ctx.now().micros()));
            BackendState::Removed
        } else {
            BackendState::Down
        };
        // The drain below fails this backend's in-flight ops without ever
        // calling `balancer.completed`, so its outstanding count would
        // survive the outage as phantom load and starve the replica under
        // LPRF when it rejoins.
        self.balancer.reset(backend);
        self.checkpoint(backend);
        self.metrics.counters.failovers += 1;
        self.metrics.failover_times.push(ctx.now().micros());
        // A dead backend's latency history is meaningless when it returns;
        // any in-flight probe died with it.
        self.probe_op.remove(&backend);
        if self.cfg.quarantine.is_some() {
            self.health[backend.0].reset(ctx.now().micros());
            self.sync_health_events(backend.0);
        }
        // The adaptive gap history deliberately survives the eviction: the
        // silence distribution is a property of the backend and its link,
        // and wiping it on every flap would keep the detector permanently
        // naive about a still-degraded node (evict/rejoin storms).

        // Fail in-flight ops against this backend, in dispatch (op id)
        // order: the replies below re-order downstream client retries.
        let stuck: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, (p, _))| pending_backend(p) == Some(backend))
            .map(|(&op, _)| op)
            .collect();
        for op in stuck {
            if let Some((p, started)) = self.pending.remove(&op) {
                self.fail_inflight(ctx, p, started);
            }
        }

        // Master-slave: promotion.
        if self.master_slave() && backend == self.master {
            let lost = self.promote_new_master(ctx);
            self.metrics.counters.lost_transactions += lost;
        }
        // Sessions stuck to the failed backend lose their delegate.
        for s in self.sessions.values_mut() {
            if s.sticky == Some(backend) && !s.temp_pinned {
                s.sticky = None;
            }
        }
        self.update_degraded(ctx);
        // Failover changes the freshness picture (a promoted master is
        // fresh by definition): re-decide parked reads.
        self.drain_fresh_waiters(ctx);
    }

    /// Wake whatever waits on an op that will never be answered, already
    /// taken out of `pending` (dispatched at `started` µs). Shared by the
    /// failure drain and the timeout sweep.
    fn fail_inflight(&mut self, ctx: &mut Ctx<'_, Msg>, p: Pending, started: u64) {
        match p {
            Pending::ClientExec { session, .. } => {
                // The outage began when the now-failed request was
                // dispatched, not when we finally noticed: date it back for
                // MTTR honesty.
                self.metrics.availability.record(started, false);
                // In-flight transaction lost with the node (§4.3.3).
                let Some(s) = self.sessions.get_mut(session.0) else { return };
                s.end_tx();
                s.sticky = None;
                if let Some(seq) = s.current.as_ref().map(|c| c.stmt_seq) {
                    self.metrics.counters.lost_transactions += 1;
                    self.reply(ctx, session, seq, Err(ReplyError::Unavailable("backend failed mid-request".into())));
                }
            }
            Pending::GroupExec { group, backend } => {
                self.finish_group_exec(ctx, group, backend, DbResp::RestoreOk { op: 0 }, true);
            }
            Pending::GroupExecBatch { groups, backend } => {
                for group in groups {
                    self.finish_group_exec(ctx, group, backend, DbResp::RestoreOk { op: 0 }, true);
                }
            }
            Pending::PwCommit { session, .. } | Pending::PwApply { session: Some(session), .. } => {
                self.finish_ws_part(ctx, Some(session), true);
            }
            Pending::ShipApply { backend, session, .. } => {
                self.ship_busy.remove(&backend);
                if let Some(session) = session {
                    self.finish_two_safe_part(ctx, session);
                }
            }
            Pending::ShipFetch { .. } => self.shipping_inflight = false,
            _ => {}
        }
    }

    /// Promote the most caught-up slave. Returns the 1-safe loss estimate
    /// (entries the dead master committed that the new master never saw).
    ///
    /// The other slaves' replication positions are expressed in the *dead*
    /// master's LSN space, which does not transfer to the new master (the
    /// real-world GTID problem): they are rebuilt with a full resync — the
    /// expensive failover aftermath §4.4.2 describes.
    fn promote_new_master(&mut self, ctx: &mut Ctx<'_, Msg>) -> u64 {
        let best = self
            .slaves()
            .into_iter()
            .max_by_key(|b| self.backends[b.0].applied_lsn);
        let Some(new_master) = best else { return 0 };
        let master_head = self.backends[self.master.0].applied_lsn;
        let lost = master_head.0.saturating_sub(self.backends[new_master.0].applied_lsn.0);
        self.master = new_master;
        // The new master's own binlog is its authoritative position now,
        // and the old horizon lives in the dead master's LSN space.
        self.backends[new_master.0].applied_lsn = Lsn(0); // refreshed by next Pong
        self.ship_horizon = Lsn(0);
        for b in self.slaves() {
            if b != new_master {
                self.start_full_resync(ctx, b);
            }
        }
        lost
    }

    /// Record `backend`'s recovery-log checkpoint in every group it hosts
    /// ("a checkpoint is inserted, pointing to the last update statement
    /// executed by the removed node", §4.4.2): what it acknowledged there.
    fn checkpoint(&mut self, backend: BackendId) {
        for g in self.shards.hosted(backend.0) {
            let applied = self.shards.marks[backend.0][g].value();
            self.shards.logs[g].checkpoint(backend, applied);
        }
    }

    /// Void position `pos` of group `g`: it is logged but nobody applies
    /// it (see [`RecoveryLog::void`]), so every backend's marks step over
    /// it.
    fn void(&mut self, g: usize, pos: u64) {
        self.shards.logs[g].void(pos);
        for marks in &mut self.shards.marks {
            marks[g].mark(pos);
        }
    }

    /// The one rejoin of every multi-master mode (§4.4.2): replay each
    /// hosted group's recovery-log stream from the backend's
    /// [`Self::replay_floor`] in that group, the lower of our checkpoint
    /// and the position the node itself reported at rejoin
    /// (`Backend::node_pos`). With volatile-by-fiat nodes that is always ≥
    /// our checkpoint (the node cannot un-apply); with real durability a
    /// lossy crash (lost or torn WAL tail) can leave the node *behind* what
    /// we saw acknowledged, and replaying from our own checkpoint would
    /// silently skip the lost suffix — §4.4.2: the database, not the
    /// middleware, knows what actually committed. A group whose stream no
    /// longer holds that position sends the backend to the dump fallback.
    /// Per-row apply order holds within a group, so a per-group position
    /// names a consistent prefix of that group's stream, and a sole-host
    /// group needs no donor.
    fn start_log_recovery(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        let next: Vec<(usize, u64)> = self
            .shards
            .hosted(backend.0)
            .into_iter()
            .map(|g| (g, self.replay_floor(backend, g)))
            .collect();
        if crate::debug_on() {
            eprintln!("[{}us] start_log_recovery b{} from {next:?}", ctx.now().micros(), backend.0);
        }
        if next.iter().any(|&(g, from)| self.shards.logs[g].read_after(from, 1).is_err()) {
            // A stream truncated past the node's position: full resync.
            self.start_full_resync(ctx, backend);
            return;
        }
        self.backends[backend.0].state = BackendState::Recovering { next, inflight: false };
        self.pump_recovery(ctx, backend);
    }

    /// Replay the next batch of the first hosted group that has one, one
    /// batch in flight at a time; come online once every hosted group's
    /// cursor is at its head. The final hop runs under the global barrier.
    fn pump_recovery(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        let BackendState::Recovering { next, inflight: false } = &self.backends[backend.0].state else {
            return;
        };
        let next = next.clone();
        let remaining: u64 = next.iter().map(|&(g, n)| self.shards.logs[g].head().saturating_sub(n)).sum();
        if remaining == 0 {
            // Caught up: release any barrier and come online.
            self.backends[backend.0].state = BackendState::Online;
            for &(g, n) in &next {
                self.shards.marks[backend.0][g] = Watermark::at(n);
            }
            if let Some(start) = self.recovery_started.remove(&backend) {
                self.metrics.recoveries.push((backend.0, start, ctx.now().micros()));
            }
            self.update_degraded(ctx);
            if self.barrier_for == Some(backend) {
                self.barrier_for = None;
                self.drain_shard_buffer(ctx);
            }
            return;
        }
        // Final hop: global barrier (live writes buffer until done). An
        // undecided cross-group transaction needs further deliveries to
        // decide, and replay cannot cross its reserved slot: arming the
        // barrier then would deadlock, so wait for the decision first.
        if remaining <= self.cfg.barrier_threshold
            && self.barrier_for.is_none()
            && next.iter().all(|&(g, _)| self.undecided_floor(g).is_none())
        {
            self.barrier_for = Some(backend);
        }
        // Replay must not cross a prepared-but-undecided cross-group slot:
        // its logged payload may still be voided by an abort decision. Cap
        // each group's replay just below its lowest undecided position; the
        // decision re-pumps (see `deliver_xprepare`).
        let Some((g, n, cap)) = next.iter().find_map(|&(g, n)| {
            let head = self.shards.logs[g].head();
            let cap = self.undecided_floor(g).map_or(head, |f| f - 1).min(head);
            (cap > n).then_some((g, n, cap))
        }) else {
            return;
        };
        let batch: Vec<_> = match self.shards.logs[g].read_after(n, self.cfg.recovery_batch) {
            Ok(entries) => entries.iter().take_while(|e| e.seq <= cap).cloned().collect(),
            Err(_) => {
                // The stream was truncated past the cursor *after* recovery
                // started (e.g. an operator purge): replay can no longer
                // reach the head — the explicit needs-full-resync signal.
                self.start_full_resync(ctx, backend);
                return;
            }
        };
        let Some(upto) = batch.last().map(|e| e.seq) else { return };
        if crate::debug_on() {
            eprintln!("[{}us] recovery batch b{} g{g}: {}..={upto}", ctx.now().micros(), backend.0, n + 1);
        }
        let entries = crate::recovery::to_binlog_entries(&batch);
        let use_writesets = batch.iter().any(|e| e.is_writeset());
        let parallel_apply = self.cfg.replay_mode == ReplayMode::Parallel;
        self.backends[backend.0].state = BackendState::Recovering { next, inflight: true };
        let space = ApplySpace::Ordered { group: g as u32 };
        self.send_db(ctx, backend, Pending::RecoveryBatch { backend, group: g, upto }, move |op| {
            // The node skips entries it already applied, in this group,
            // before the failure was declared (idempotent replay).
            DbOp::ApplyBinlog { op, entries, use_writesets, parallel_apply, space }
        });
    }

    fn finish_recovery_batch(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, group: usize, upto: u64, resp: DbResp) {
        // The backend may have been re-failed while the batch was in flight.
        let BackendState::Recovering { next, inflight } = &mut self.backends[backend.0].state else {
            return;
        };
        match resp {
            DbResp::ApplyOk { .. } => {
                *inflight = false;
                if let Some(slot) = next.iter_mut().find(|(g, _)| *g == group) {
                    slot.1 = upto;
                }
                // The node holds the group's stream through `upto`: what a
                // failure from here on checkpoints.
                self.shards.marks[backend.0][group] = Watermark::at(upto);
                self.pump_recovery(ctx, backend);
            }
            other => {
                // Replay failed (divergence): fall back to full resync.
                if crate::debug_on() {
                    eprintln!("[recovery] replay batch failed on b{}: {other:?}", backend.0);
                }
                self.metrics.counters.divergence_detected += 1;
                self.start_full_resync(ctx, backend);
            }
        }
    }

    /// Lowest log position in group `g` reserved by a still-undecided
    /// cross-group transaction. `None` when every reserved slot is decided.
    fn undecided_floor(&self, g: usize) -> Option<u64> {
        self.shards
            .xtx
            .values()
            .flat_map(|x| x.groups.iter().zip(&x.pos))
            .filter(|&(&gg, &pos)| gg as usize == g && pos != 0)
            .map(|(_, &pos)| pos)
            .min()
    }

    /// The fallback rejoin: restore a dump of a donor and catch up from the
    /// positions it is consistent with. Master-slave: the master, and the
    /// slave ships from its binlog after. Multi-master: an online backend
    /// hosting every group the target hosts (one dump covers every table
    /// it replays), then per-group replay from the dump-time log heads.
    fn start_full_resync(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if crate::debug_on() {
            eprintln!("[{}us] start_full_resync b{}", ctx.now().micros(), backend.0);
        }
        let hosted = self.shards.hosted(backend.0);
        let source = if self.master_slave() {
            Some(self.master).filter(|m| self.backends[m.0].online())
        } else {
            self.healthy().into_iter().find(|&b| b != backend && self.hosts_all(b, &hosted))
        };
        // The dump reflects every logged write up to here (the dump request
        // travels the same FIFO link as the writes sent before it), so
        // catch-up replays from exactly these heads.
        let heads: Vec<u64> = self.shards.logs.iter().map(RecoveryLog::head).collect();
        // That FIFO argument breaks for positions whose fan-out is
        // deferred: a prepared-but-undecided cross-group slot (fan-out
        // happens at decision time) reaches the donor after the dump is
        // taken, yet catch-up skips everything at or below `heads` — a
        // silent hole at the rejoiner. Defer instead.
        let undecided = hosted.iter().any(|&g| self.undecided_floor(g).is_some_and(|f| f <= heads[g]));
        let Some(source) = source.filter(|_| !undecided) else {
            // No donor, or a decision pending: stay Down; the next pong
            // retries.
            self.backends[backend.0].state = BackendState::Down;
            return;
        };
        self.metrics.counters.full_resyncs += 1;
        self.backends[backend.0].state = BackendState::Resyncing;
        self.send_db(ctx, source, Pending::ResyncDumpReq { target: backend, heads }, move |op| {
            DbOp::Dump { op, include_programs: true, include_principals: true }
        });
    }

    fn finish_resync_dump(&mut self, ctx: &mut Ctx<'_, Msg>, target: BackendId, heads: Vec<u64>, resp: DbResp) {
        let DbResp::DumpOut { dump, head, .. } = resp else { return };
        if crate::debug_on() {
            eprintln!("[{}us] resync dump for b{} head={head:?} state={:?}", ctx.now().micros(), target.0, self.backends[target.0].state);
        }
        if self.backends[target.0].state != BackendState::Resyncing {
            return;
        }
        let ordered_baseline = heads.clone();
        self.send_db(
            ctx,
            target,
            Pending::ResyncRestore { backend: target, baseline: head, heads },
            move |op| DbOp::Restore { op, dump, baseline: head, ordered_baseline },
        );
    }

    fn finish_resync_restore(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        backend: BackendId,
        baseline: Lsn,
        heads: Vec<u64>,
        resp: DbResp,
    ) {
        if crate::debug_on() {
            eprintln!("[?] resync restore b{} baseline={baseline:?} ok={}", backend.0, matches!(resp, DbResp::RestoreOk { .. }));
        }
        if !matches!(resp, DbResp::RestoreOk { .. }) {
            return;
        }
        if self.master_slave() {
            // The restored node rejoins as a slave consistent with the
            // master as of the dump; shipping continues from there.
            self.backends[backend.0].applied_lsn = baseline;
            self.backends[backend.0].state = BackendState::Online;
            if let Some(start) = self.recovery_started.remove(&backend) {
                self.metrics.recoveries.push((backend.0, start, ctx.now().micros()));
            }
            self.update_degraded(ctx);
            return;
        }
        // Catch up from the recovery log, per group, starting at the
        // positions the dump is consistent with.
        let next: Vec<(usize, u64)> = self.shards.hosted(backend.0).into_iter().map(|g| (g, heads[g])).collect();
        for &(g, head) in &next {
            self.shards.marks[backend.0][g] = Watermark::at(head);
        }
        self.checkpoint(backend);
        self.backends[backend.0].state = BackendState::Recovering { next, inflight: false };
        self.pump_recovery(ctx, backend);
    }

    /// Management operations (§4.4.1/§4.4.2).
    fn on_admin(&mut self, ctx: &mut Ctx<'_, Msg>, cmd: AdminCmd) {
        if crate::debug_on() {
            eprintln!("[{}us] admin {cmd:?}", ctx.now().micros());
        }
        match cmd {
            AdminCmd::Backup { backend, hot } => {
                if !hot {
                    // Cold backup: remove the replica from rotation first
                    // (its checkpoint is recorded); it rejoins through the
                    // recovery log after the dump, like any returning node.
                    self.backend_failed(ctx, backend);
                }
                let started_us = ctx.now().micros();
                self.send_db(
                    ctx,
                    backend,
                    Pending::BackupDump { backend, hot, started_us },
                    move |op| DbOp::Dump { op, include_programs: true, include_principals: true },
                );
            }
            AdminCmd::RemoveBackend { backend } => {
                self.backend_failed(ctx, backend);
            }
            AdminCmd::DrainBackend { backend } => {
                self.drain_backend(ctx, backend);
            }
            AdminCmd::AddBackend { backend } => {
                self.add_backend(ctx, backend);
            }
            AdminCmd::EndSession { session } => {
                // Teardown rides the total order so every peer drops its
                // replicated copy of the session state at the same point.
                // Any one stream works (teardown is group-agnostic); group 0
                // keeps it deterministic.
                self.shard_publish_write(ctx, 0, ReplEvent::SessionEnd { session });
            }
        }
    }

    fn op_timed_out(&mut self, ctx: &mut Ctx<'_, Msg>, op: u64) {
        let Some((p, started)) = self.pending.remove(&op) else { return };
        if crate::debug_on() {
            eprintln!("[{}us] op {op} timed out: {p:?}", ctx.now().micros());
        }
        // Pings to a down backend are *expected* to be lost; real failures
        // are detected by the silent-too-long check in ping_tick. Treating
        // a stale ping timeout as a failure would kill a backend that just
        // finished recovering.
        if matches!(p, Pending::Ping { .. }) {
            return;
        }
        let backend = pending_backend(&p);
        // The op is already out of `pending`, so the backend_failed drain
        // below cannot see it: its waiter is failed here.
        self.fail_inflight(ctx, p, started);
        if let Some(b) = backend {
            if !ctx.oracle_is_crashed(self.backends[b.0].node) {
                self.metrics.counters.false_evictions += 1;
            }
            self.backend_failed(ctx, b);
        }
    }

    // ------------------------------------------------------------------
    // Introspection for the harness
    // ------------------------------------------------------------------

    pub fn master_backend(&self) -> BackendId {
        self.master
    }

    pub fn online_backends(&self) -> usize {
        self.healthy().len()
    }

    pub fn backend_applied_lsn(&self, b: BackendId) -> Lsn {
        self.backends[b.0].applied_lsn
    }

    pub fn recovery_state(&self, b: BackendId) -> String {
        format!("{:?}", self.backends[b.0].state)
    }

    /// Quarantine state of a backend (harness/test introspection).
    pub fn backend_health_state(&self, b: BackendId) -> crate::health::HealthState {
        self.health[b.0].state()
    }

    /// True if the cluster is currently in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.metrics.degraded.is_degraded()
    }

    /// Live session entries (leak regression tests).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Session-keyed residue: (session entries, open request metas,
    /// stashed 2-safe bodies). All three must return to zero once every
    /// session has ended — the PR 6 leak regression asserts exactly that.
    pub fn session_residue(&self) -> (usize, usize, usize) {
        let mut reqs = 0;
        let mut bodies = 0;
        for (_, s) in self.sessions.iter() {
            reqs += s.open_reqs.len();
            if s.two_safe_body.is_some() {
                bodies += 1;
            }
        }
        (self.sessions.len(), reqs, bodies)
    }

    /// Reads currently parked waiting for a fresh replica.
    pub fn fresh_waiter_count(&self) -> usize {
        self.fresh_waiters.len()
    }

    /// Drains still waiting on in-flight work (harness introspection).
    pub fn drains_in_progress(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.state == BackendState::Draining)
            .count()
    }

    /// Debug snapshot: per-backend (state, applied_lsn, group-0 mark) plus
    /// shipping flags.
    pub fn debug_state(&self) -> String {
        let per: Vec<String> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| {
                format!(
                    "b{i}:{:?} lsn={} seq={} pong@{}",
                    b.state, b.applied_lsn.0, self.shards.marks[i][0].value(), b.last_pong_us
                )
            })
            .collect();
        format!(
            "master={} ship_inflight={} ship_busy={:?} pending={} [{}]",
            self.master.0,
            self.shipping_inflight,
            self.ship_busy,
            self.pending.len(),
            per.join(" | ")
        )
    }

    /// Stream 0's recovery log: the whole log under full replication
    /// (harness introspection and log-pressure injection).
    pub fn log(&mut self) -> &mut RecoveryLog {
        &mut self.shards.logs[0]
    }

    /// Group `g`'s recovery-log stream (retention introspection).
    pub fn group_log(&self, g: usize) -> &RecoveryLog {
        &self.shards.logs[g]
    }

    /// Number of table groups under the active placement (1 = full
    /// replication).
    pub fn partial_groups(&self) -> usize {
        self.shards.groups()
    }

    /// Per-(backend, group) applied watermark.
    pub fn pw_mark(&self, b: BackendId, g: usize) -> u64 {
        self.shards.marks[b.0][g].value()
    }

    /// Cross-group transactions with at least one vote still outstanding.
    pub fn xtx_inflight(&self) -> usize {
        self.shards.xtx.len()
    }
}

fn pending_backend(p: &Pending) -> Option<BackendId> {
    match p {
        Pending::ClientExec { backend, .. }
        | Pending::GroupExec { backend, .. }
        | Pending::GroupExecBatch { backend, .. }
        | Pending::Ping { backend }
        | Pending::ShipApply { backend, .. }
        | Pending::RecoveryBatch { backend, .. }
        | Pending::BackupDump { backend, .. }
        | Pending::ResyncRestore { backend, .. }
        | Pending::PwCommit { backend, .. }
        | Pending::PwApply { backend, .. } => Some(*backend),
        // ResyncDumpReq targets the donor, which is not `target`.
        _ => None,
    }
}

impl Actor<Msg> for Middleware {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let actions = self.shards.member.start(ctx.now().micros());
        self.run_shard_actions(ctx, actions);
        ctx.set_timer(self.cfg.heartbeat.interval_us, TIMER_PING);
        if let Mode::MasterSlave { ship_interval_us, .. } = self.cfg.mode {
            ctx.set_timer(ship_interval_us, TIMER_SHIP);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Admin(cmd) => self.on_admin(ctx, cmd),
            Msg::Request(req) => self.on_request(ctx, from, req),
            Msg::DbR(resp) => self.on_db_resp(ctx, resp),
            Msg::GroupShard { group, msg } => {
                let member = self
                    .peers
                    .iter()
                    .position(|&n| n == from)
                    .map(MemberId)
                    .unwrap_or(MemberId(usize::MAX));
                let actions =
                    self.shards.member.on_message(group as usize, member, msg, ctx.now().micros());
                self.run_shard_actions(ctx, actions);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TIMER_PING => self.ping_tick(ctx),
            TIMER_SHIP => self.ship_tick(ctx),
            TIMER_OP_SWEEP => self.sweep_op_timeouts(ctx),
            t if (SHARD_TICK_BASE..SHARD_TICK_BASE + MAX_GROUPS as u64).contains(&t) => {
                let g = (t - SHARD_TICK_BASE) as usize;
                let actions =
                    self.shards.member.on_timer(g, replimid_gcs::TICK_TAG, ctx.now().micros());
                self.run_shard_actions(ctx, actions);
            }
            t if (SHARD_BATCH_BASE..SHARD_BATCH_BASE + MAX_GROUPS as u64).contains(&t) => {
                let g = (t - SHARD_BATCH_BASE) as usize;
                self.flush_shard_batch(ctx, g, FlushReason::Deadline);
            }
            t if t >= TIMER_FRESH_BASE => self.fresh_wait_timed_out(ctx, t - TIMER_FRESH_BASE),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_simnet::{NetworkModel, Sim};

    #[test]
    fn watermark_advances_contiguously() {
        let mut w = Watermark::new();
        assert_eq!(w.value(), 0);
        w.mark(2);
        assert_eq!(w.value(), 0, "gap at 1");
        w.mark(1);
        assert_eq!(w.value(), 2, "contiguous through 2");
        w.mark(3);
        assert_eq!(w.value(), 3);
        // Stale marks are ignored.
        w.mark(1);
        assert_eq!(w.value(), 3);
    }

    #[test]
    fn watermark_at_position() {
        let mut w = Watermark::at(100);
        assert_eq!(w.value(), 100);
        w.mark(101);
        assert_eq!(w.value(), 101);
        w.mark(50);
        assert_eq!(w.value(), 101);
    }

    #[test]
    fn watermark_out_of_order_batch() {
        let mut w = Watermark::new();
        for pos in [5, 3, 1, 4, 2] {
            w.mark(pos);
        }
        assert_eq!(w.value(), 5);
    }

    fn shards(groups: usize) -> Shards {
        let placement = Placement::new(vec![vec![0, 1]; groups]);
        let gcs = GcsConfig::lan(replimid_gcs::OrderProtocol::FixedSequencer);
        Shards::new(placement, MemberId(0), 1, gcs, 2)
    }

    fn end(session: u64) -> ReplEvent {
        ReplEvent::SessionEnd { session: SessionId(session) }
    }

    fn ended(events: &[ReplEvent]) -> Vec<u64> {
        events
            .iter()
            .map(|ev| match ev {
                ReplEvent::SessionEnd { session } => session.0,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn group_commit_buffer_flushes_on_size_and_deadline_per_group() {
        for groups in [1usize, 3] {
            let mut sh = shards(groups);
            for g in 0..groups {
                // batch_max = 1 publishes directly: nothing buffered or armed.
                match sh.admit(g, end(7), 1) {
                    Admit::Direct(ev) => assert_eq!(ended(&[ev]), [7]),
                    other => panic!("G={groups} g={g}: {other:?}"),
                }
                assert!(sh.batches[g].is_empty() && !sh.batch_armed[g]);
                // Size flush: the first event arms the deadline, the
                // batch_max-th fills the batch, admission order is kept.
                assert!(matches!(sh.admit(g, end(1), 3), Admit::Arm));
                assert!(matches!(sh.admit(g, end(2), 3), Admit::Held));
                assert!(matches!(sh.admit(g, end(3), 3), Admit::Full));
                assert_eq!(ended(&sh.take_batch(g)), [1, 2, 3]);
                assert!(!sh.batch_armed[g]);
                // The size flush left its deadline outstanding: when it
                // fires there is nothing to ship.
                assert!(sh.take_batch(g).is_empty());
                // Deadline flush: a partial batch leaves when the timer
                // fires, and the next event arms a fresh deadline.
                assert!(matches!(sh.admit(g, end(4), 3), Admit::Arm));
                assert_eq!(ended(&sh.take_batch(g)), [4]);
                assert!(matches!(sh.admit(g, end(5), 3), Admit::Arm));
                // Buffers are per group: the others saw none of this.
                for other in (0..groups).filter(|&o| o != g) {
                    assert_eq!(sh.batches[other].len(), usize::from(other < g), "G={groups} g={g}");
                }
            }
        }
    }

    /// A backend that answers the writeset path from a script: statements
    /// and COMMIT succeed, a delegate op running a write of session `n`
    /// returns `insert_ws(n)`, the first `refuse` applies fail, and later
    /// ones apply, as do the dump, restore and replay of a rejoin. It logs
    /// every op but pings, which it never answers (an unanswered backend is
    /// never evicted).
    struct ScriptedDb {
        refuse: usize,
        ops: Vec<DbOp>,
    }

    impl ScriptedDb {
        fn new(refuse: usize) -> Self {
            ScriptedDb { refuse, ops: Vec::new() }
        }

        fn applies(&self) -> Vec<Writeset> {
            let ws = |op: &DbOp| match op {
                DbOp::ApplyWriteset { ws, .. } => Some(ws.clone()),
                _ => None,
            };
            self.ops.iter().filter_map(ws).collect()
        }
    }

    impl Actor<Msg> for ScriptedDb {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            let Msg::Db(op) = msg else { return };
            if matches!(op, DbOp::Ping { .. }) {
                return;
            }
            self.ops.push(op.clone());
            let resp = match op {
                DbOp::Delegate { op, conn, stmt, .. } => {
                    let write = !stmt.template.is_read_only();
                    let ws = if write { insert_ws(conn as i64) } else { Writeset::default() };
                    DbResp::DelegateOut { op, res: Ok(ReplyBody::Ack), ws: Box::new(ws), poisoned: false }
                }
                DbOp::Execute { op, .. } => {
                    DbResp::ExecOk { op, body: ReplyBody::Ack, commit: None, tainted: false }
                }
                DbOp::ApplyWriteset { op, .. } if self.applies().len() <= self.refuse => {
                    let err = SqlError::WriteConflict { table: "t1".into(), detail: "row locked".into() };
                    DbResp::ApplyErr { op, err }
                }
                DbOp::ApplyWriteset { op, .. } | DbOp::ApplyBinlog { op, .. } => {
                    DbResp::ApplyOk { op, applied_lsn: Lsn(0) }
                }
                DbOp::Dump { op, .. } => {
                    let dump = replimid_sql::Engine::new(Default::default()).dump(Default::default());
                    DbResp::DumpOut { op, dump: Box::new(dump), head: Lsn(0) }
                }
                DbOp::Restore { op, .. } => DbResp::RestoreOk { op },
                _ => return,
            };
            ctx.send(from, Msg::DbR(resp));
        }
    }

    /// A backend that never answers anything.
    struct Silent;

    impl Actor<Msg> for Silent {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
    }

    /// A client that keeps what it is told.
    #[derive(Default)]
    struct Sink {
        replies: Vec<Result<ReplyBody, ReplyError>>,
    }

    impl Actor<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Reply(reply) = msg {
                self.replies.push(reply.result);
            }
        }
    }

    /// A writeset middleware over `dbs`, and a `Sink` client: (sim,
    /// backends, middleware, client).
    fn writeset_cluster<A: Actor<Msg> + 'static>(
        dbs: Vec<A>,
        placement: Option<Placement>,
    ) -> (Sim<Msg>, Vec<NodeId>, NodeId, NodeId) {
        let mut sim: Sim<Msg> = Sim::new(NetworkModel::lan(), 5);
        let dbs: Vec<NodeId> = dbs.into_iter().map(|d| sim.add_node(d)).collect();
        let mut cfg = MwConfig::defaults(Mode::MultiMasterWriteset);
        cfg.placement = placement;
        let mw_id = NodeId(dbs.len());
        let mw = sim.add_node(Middleware::new(cfg, 0, vec![mw_id], dbs.clone()));
        assert_eq!(mw, mw_id);
        let client = sim.add_node(Sink::default());
        (sim, dbs, mw, client)
    }

    /// Client statement `stmt_seq` of `session`, arriving at `at` µs.
    fn request(sim: &mut Sim<Msg>, (client, mw): (NodeId, NodeId), at: u64, session: u64, stmt_seq: u64, sql: &str) {
        let req = ClientRequest { session: SessionId(session), stmt_seq, trace: 0, sql: sql.into() };
        sim.inject_as(SimTime(at), client, mw, Msg::Request(req));
    }

    /// The writeset a scripted delegate extracts for session `key`: one
    /// row of `t1`.
    fn insert_ws(key: i64) -> Writeset {
        use replimid_sql::mvcc::{RowId, WriteKind, WriteRecord};
        use replimid_sql::Value;
        Writeset {
            entries: vec![WriteRecord {
                database: "d".into(),
                table: "t1".into(),
                row: RowId(1),
                kind: WriteKind::Insert,
                old: None,
                new: Some(vec![Value::Int(key), Value::Int(1)]),
                temp: false,
            }],
            counters: None,
        }
    }

    #[test]
    fn a_failed_apply_fails_its_backend_once_and_is_never_resent() {
        // G = 1: no placement. G = 2: both groups on both backends, `t1`
        // in group 1. Either way the first apply at the non-delegate fails:
        // the backend is failed once and rejoins by log replay, and no
        // apply is ever sent a second time.
        let two = Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t1", 1);
        for (placement, g) in [(None, 0usize), (Some(two), 1)] {
            let (mut sim, dbs, mw, client) = writeset_cluster(vec![ScriptedDb::new(1), ScriptedDb::new(1)], placement);
            request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
            sim.run_until(SimTime(10_000));
            let applies = |sim: &mut Sim<Msg>, b: usize| sim.with_actor::<ScriptedDb, _>(dbs[b], |d| d.applies());
            let remote = (0..2).find(|&b| !applies(&mut sim, b).is_empty()).expect("the non-delegate got the apply");
            // Only the backend that failed refuses anything.
            sim.with_actor::<ScriptedDb, _>(dbs[1 - remote], |d| d.refuse = 0);
            sim.with_actor::<Middleware, _>(mw, |m| {
                assert_eq!(m.partial_groups(), g + 1);
                assert_eq!(m.metrics.counters.divergence_detected, 1);
                assert_eq!(m.metrics.failover_times.len(), 1);
                assert_eq!(m.metrics.recoveries.iter().map(|r| r.0).collect::<Vec<_>>(), [remote], "it rejoined");
                assert!(m.backends[remote].online());
            });

            for session in 2..5 {
                request(&mut sim, (client, mw), 10_000 * session, session, 1, "INSERT INTO t1 VALUES (2, 1)");
            }
            sim.run_until(SimTime(60_000));
            for b in 0..2 {
                let sent = applies(&mut sim, b);
                let once = sent.iter().enumerate().all(|(i, ws)| !sent[..i].contains(ws));
                assert!(once, "G={} backend {b} got an apply twice: {sent:?}", g + 1);
            }
            sim.with_actor::<Middleware, _>(mw, |m| {
                for b in 0..2 {
                    assert_eq!(m.pw_mark(BackendId(b), g), 4, "G={} backend {b}", g + 1);
                }
                assert_eq!(m.metrics.counters.commits, 4);
                assert_eq!(m.metrics.counters.divergence_detected, 1);
                assert_eq!(m.metrics.failover_times.len(), 1);
            });
            let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
            assert_eq!(replies, vec![Ok(ReplyBody::Ack); 4]);
        }
    }

    /// A writeset statement reaches its delegate once, and as plans only.
    /// An autocommit write is one delegate op (BEGIN, statement, writeset)
    /// and then its COMMIT, and the group's other host applies it once. An
    /// explicit transaction's first statement opens it with the client's
    /// isolation level. A transaction that runs no statement sends nothing.
    #[test]
    fn a_writeset_statement_reaches_its_delegate_once() {
        let dbs = vec![ScriptedDb::new(0), ScriptedDb::new(0)];
        let (mut sim, dbs, mw, client) = writeset_cluster(dbs, None);
        let ops = |sim: &mut Sim<Msg>| -> Vec<Vec<DbOp>> {
            dbs.iter().map(|&d| sim.with_actor::<ScriptedDb, _>(d, |d| d.ops.clone())).collect()
        };
        let whole = |plan: &PlanExec| {
            assert!(plan.params.is_empty(), "cache 0 ships whole statements: {plan:?}");
            (*plan.template).clone()
        };
        request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(10_000));
        let seen = ops(&mut sim);
        let delegate = seen
            .iter()
            .position(|o| o.iter().any(|op| matches!(op, DbOp::Delegate { .. })))
            .expect("a delegate ran the statement");
        match &seen[delegate][..] {
            [DbOp::Delegate { begin: Some(begin), stmt, implicit: true, .. }, DbOp::Execute { plan: commit, marks, .. }] => {
                // The COMMIT settles the first certified position at the node.
                assert_eq!(marks, &[(0, 1)]);
                let snapshot = Some(IsolationLevel::SnapshotIsolation);
                assert_eq!(whole(begin), Statement::Begin { isolation: snapshot });
                assert_eq!(whole(stmt), parse_statement("INSERT INTO t1 VALUES (1, 1)").unwrap());
                assert_eq!(whole(commit), Statement::Commit);
            }
            other => panic!("the delegate saw {other:?}"),
        }
        assert!(
            matches!(&seen[1 - delegate][..], [DbOp::ApplyWriteset { marks, .. }] if marks == &[(0, 1)]),
            "{:?}",
            seen[1 - delegate]
        );

        request(&mut sim, (client, mw), 20_000, 2, 1, "BEGIN ISOLATION LEVEL SERIALIZABLE");
        request(&mut sim, (client, mw), 21_000, 2, 2, "INSERT INTO t1 VALUES (2, 1)");
        sim.run_until(SimTime(30_000));
        let opened: Vec<Statement> = ops(&mut sim)
            .into_iter()
            .flatten()
            .filter_map(|op| match op {
                DbOp::Delegate { begin: Some(begin), implicit: false, .. } => Some(whole(&begin)),
                _ => None,
            })
            .collect();
        assert_eq!(opened, [Statement::Begin { isolation: Some(IsolationLevel::Serializable) }]);

        let sent = |sim: &mut Sim<Msg>| ops(sim).iter().map(Vec::len).sum::<usize>();
        let before = sent(&mut sim);
        request(&mut sim, (client, mw), 40_000, 3, 1, "BEGIN");
        request(&mut sim, (client, mw), 41_000, 3, 2, "COMMIT");
        sim.run_until(SimTime(50_000));
        assert_eq!(sent(&mut sim), before, "BEGIN; COMMIT ran nothing anywhere");
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, vec![Ok(ReplyBody::Ack); 5]);
    }

    /// A failed autocommit write at a real delegate: the node opens the
    /// snapshot, runs the statement, and rolls the implicit transaction back
    /// itself. Each of the three is charged as a parsed plan,
    /// `STATEMENT_BASE_US - PARSE_US`, and nothing stays open.
    #[test]
    fn a_failed_implicit_statement_rolls_back_at_its_delegate() {
        use replimid_sql::result::cost_model::{PARSE_US, STATEMENT_BASE_US};
        let schema = ["CREATE DATABASE d", "USE d", "CREATE TABLE t1 (k INT PRIMARY KEY, v INT)"]
            .map(String::from);
        let engine = crate::cluster::build_engine(Default::default(), &schema);
        let node = crate::db_node::DbNode::new(engine, Some("d".into()));
        let (mut sim, dbs, mw, client) = writeset_cluster(vec![node], None);
        let service = |sim: &mut Sim<Msg>| {
            sim.with_actor::<crate::db_node::DbNode, _>(dbs[0], |d| d.trace.stage_histogram(Stage::DbService).sum_us())
        };
        request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(10_000));
        let before = service(&mut sim);
        request(&mut sim, (client, mw), 10_000, 2, 1, "INSERT INTO t1 VALUES (1, 2)");
        sim.run_until(SimTime(20_000));
        assert_eq!(service(&mut sim) - before, 3 * (STATEMENT_BASE_US - PARSE_US));
        sim.with_actor::<crate::db_node::DbNode, _>(dbs[0], |d| assert_eq!(d.engine().active_transactions(), 0));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies[0], Ok(ReplyBody::Ack));
        assert!(matches!(replies[1], Err(ReplyError::Sql(SqlError::DuplicateKey(_)))), "{:?}", replies[1]);
    }

    /// One queued timer covers every op timeout, and each op still times
    /// out at exactly its dispatch + `op_timeout_us`, failing its waiter.
    #[test]
    fn op_timeouts_are_exact_and_cheap() {
        let timeout = MwConfig::defaults(Mode::MultiMasterWriteset).op_timeout_us;
        // A thousand reads complete well inside the timeout. Per-op timers
        // would leave a thousand queued events behind them.
        let (mut sim, _, mw, client) = writeset_cluster(vec![ScriptedDb::new(0)], None);
        sim.run_until(SimTime(50_000));
        let idle = sim.pending_events();
        for i in 0..1_000 {
            request(&mut sim, (client, mw), 50_000 + 200 * i, 10 + i, 1, "SELECT v FROM t1");
        }
        sim.run_until(SimTime(290_000));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, vec![Ok(ReplyBody::Ack); 1_000]);
        assert!(sim.pending_events() <= idle, "{} events queued, {idle} before the reads", sim.pending_events());
        assert!(sim.with_actor::<Middleware, _>(mw, |m| m.sweep_armed));

        // A read dispatched between two pings to a backend that never
        // answers: its timeout fails the backend and tells the client.
        let (mut sim, _, mw, client) = writeset_cluster(vec![Silent], None);
        request(&mut sim, (client, mw), 25_000, 1, 1, "SELECT v FROM t1");
        sim.run_until(SimTime(25_000 + timeout - 1));
        sim.with_actor::<Middleware, _>(mw, |m| assert!(m.metrics.failover_times.is_empty()));
        sim.run_until(SimTime(25_000 + 2 * timeout));
        sim.with_actor::<Middleware, _>(mw, |m| assert_eq!(m.metrics.failover_times, [25_000 + timeout]));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, [Err(ReplyError::Unavailable("backend failed mid-request".into()))]);
    }

    /// BEGIN is deferred, so a session in a transaction without a delegate
    /// is either about to pick one or has lost it. The second must not
    /// look like the first: statements run after the loss would commit
    /// without the ones before it.
    #[test]
    fn a_transaction_whose_delegate_is_lost_fails_instead_of_restarting() {
        let two = Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t1", 1);
        for placement in [None, Some(two)] {
            let dbs = vec![ScriptedDb::new(0), ScriptedDb::new(0)];
            let (mut sim, _, mw, client) = writeset_cluster(dbs, placement);
            let mut stmt_seq = 0;
            let mut send = |sim: &mut Sim<Msg>, at: u64, sql: &str| {
                stmt_seq += 1;
                request(sim, (client, mw), at, 1, stmt_seq, sql);
            };
            send(&mut sim, 1_000, "BEGIN ISOLATION LEVEL SERIALIZABLE");
            send(&mut sim, 2_000, "INSERT INTO t1 VALUES (1, 1)");
            sim.run_until(SimTime(4_000));
            let delegate = sim.with_actor::<Middleware, _>(mw, |m| {
                let s = m.sessions.get(1).expect("the session exists");
                assert!(s.in_tx && s.begin.is_none());
                s.sticky.expect("the first statement picked the delegate")
            });
            sim.inject(SimTime(4_500), mw, Msg::Admin(AdminCmd::RemoveBackend { backend: delegate }));
            send(&mut sim, 5_000, "INSERT INTO t1 VALUES (2, 1)");
            send(&mut sim, 6_000, "ROLLBACK");
            send(&mut sim, 7_000, "BEGIN");
            send(&mut sim, 8_000, "INSERT INTO t1 VALUES (2, 1)");
            sim.run_until(SimTime(10_000));
            let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
            let ack = Ok(ReplyBody::Ack);
            let lost = Err(ReplyError::Unavailable("delegate lost".into()));
            assert_eq!(replies, [ack.clone(), ack.clone(), lost, ack.clone(), ack.clone(), ack]);
            let survivor = sim.with_actor::<Middleware, _>(mw, |m| m.sessions.get(1).and_then(|s| s.sticky));
            assert!(survivor.is_some() && survivor != Some(delegate));
        }
    }

    /// The same recipe with the delegate removed after the transaction's
    /// last statement: its COMMIT has nothing it could certify, so it
    /// fails as lost instead of acknowledging a commit that never happened.
    #[test]
    fn a_commit_whose_delegate_is_lost_fails() {
        let (mut sim, _, mw, client) = writeset_cluster(vec![ScriptedDb::new(0), ScriptedDb::new(0)], None);
        request(&mut sim, (client, mw), 1_000, 1, 1, "BEGIN");
        request(&mut sim, (client, mw), 2_000, 1, 2, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(4_000));
        let delegate = sim.with_actor::<Middleware, _>(mw, |m| m.sessions.get(1).and_then(|s| s.sticky));
        let delegate = delegate.expect("the INSERT picked the delegate");
        sim.inject(SimTime(4_500), mw, Msg::Admin(AdminCmd::RemoveBackend { backend: delegate }));
        request(&mut sim, (client, mw), 5_000, 1, 3, "COMMIT");
        sim.run_until(SimTime(10_000));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        let lost = Err(ReplyError::Unavailable("delegate lost".into()));
        assert_eq!(replies, [Ok(ReplyBody::Ack), Ok(ReplyBody::Ack), lost]);
        sim.with_actor::<Middleware, _>(mw, |m| {
            assert_eq!(m.metrics.certifier.commits, 0);
            assert_eq!(m.metrics.counters.commits, 0);
            assert_eq!(m.metrics.counters.lost_transactions, 1);
        });
    }

    /// A real node that logs the ops it is sent (pings aside) and, when a
    /// COMMIT arrives, what `Engine::pending_writeset` holds for it.
    struct Recorded {
        node: crate::db_node::DbNode,
        ops: Vec<DbOp>,
        at_commit: Option<Writeset>,
    }

    impl Recorded {
        /// A node whose engine (`config`) ran `schema` after creating `d.t1`.
        fn new(config: replimid_sql::EngineConfig, schema: &[&str]) -> Self {
            let mut stmts = vec!["CREATE DATABASE d", "USE d", "CREATE TABLE t1 (k INT PRIMARY KEY, v INT)"];
            stmts.extend(schema);
            let schema: Vec<String> = stmts.into_iter().map(String::from).collect();
            let engine = crate::cluster::build_engine(config, &schema);
            Recorded { node: crate::db_node::DbNode::new(engine, Some("d".into())), ops: Vec::new(), at_commit: None }
        }
    }

    impl Actor<Msg> for Recorded {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            match &msg {
                Msg::Db(DbOp::Ping { .. }) => {}
                Msg::Db(op) => {
                    if let DbOp::Execute { conn, plan, .. } = op {
                        if *plan.template == Statement::Commit {
                            let c = self.node.conn_of(*conn).expect("the transaction's connection");
                            self.at_commit = self.node.engine().pending_writeset(c).ok();
                        }
                    }
                    self.ops.push(op.clone());
                }
                _ => {}
            }
            self.node.on_message(ctx, from, msg);
        }
    }

    /// An explicit transaction costs its delegate one op per statement and
    /// then the COMMIT plan: the records each statement returned are the
    /// writeset COMMIT certifies, equal to what the engine would extract
    /// at that COMMIT, and they are what the other host applies.
    #[test]
    fn an_explicit_commit_certifies_the_records_its_statements_returned() {
        let dbs = vec![Recorded::new(Default::default(), &[]), Recorded::new(Default::default(), &[])];
        let (mut sim, dbs, mw, client) = writeset_cluster(dbs, None);
        let stmts = ["BEGIN", "INSERT INTO t1 VALUES (1, 1)", "UPDATE t1 SET v = 2 WHERE k = 1", "COMMIT"];
        for (i, sql) in stmts.into_iter().enumerate() {
            let i = i as u64;
            request(&mut sim, (client, mw), 1_000 + 2_000 * i, 1, i + 1, sql);
        }
        sim.run_until(SimTime(20_000));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, [ReplyBody::Ack, ReplyBody::Affected(1), ReplyBody::Affected(1), ReplyBody::Ack].map(Ok));
        let seen: Vec<(Vec<DbOp>, Option<Writeset>)> = dbs
            .iter()
            .map(|&d| sim.with_actor::<Recorded, _>(d, |r| (r.ops.clone(), r.at_commit.clone())))
            .collect();
        let delegate = seen.iter().position(|(ops, _)| ops.len() == 3).expect("one delegate");
        let stmt = |plan: &PlanExec| (*plan.template).clone();
        let (ops, at_commit) = &seen[delegate];
        match &ops[..] {
            [DbOp::Delegate { begin: Some(_), stmt: insert, implicit: false, .. }, DbOp::Delegate { begin: None, stmt: update, implicit: false, .. }, DbOp::Execute { plan: commit, marks, .. }] if marks == &[(0, 1)] =>
            {
                assert_eq!(stmt(insert), parse_statement(stmts[1]).unwrap());
                assert_eq!(stmt(update), parse_statement(stmts[2]).unwrap());
                assert_eq!(stmt(commit), Statement::Commit);
            }
            other => panic!("the delegate saw {other:?}"),
        }
        let at_commit = at_commit.clone().expect("the delegate's transaction was open at COMMIT");
        assert_eq!(at_commit.len(), 2, "{at_commit:?}");
        match &seen[1 - delegate].0[..] {
            [DbOp::ApplyWriteset { ws, .. }] => assert_eq!(*ws, at_commit),
            other => panic!("the other host saw {other:?}"),
        }
        sim.with_actor::<Middleware, _>(mw, |m| assert_eq!(m.metrics.certifier.commits, 1));
    }

    /// A statement error inside an explicit transaction. Where it poisons
    /// the transaction, COMMIT answers the abort, certifies nothing and
    /// rolls the transaction back at the delegate; where the engine
    /// continues, COMMIT certifies the records of the statements before it.
    #[test]
    fn commit_after_a_failed_statement_follows_the_error_mode() {
        use replimid_sql::{EngineConfig, ErrorMode};
        for mode in [ErrorMode::AbortTransaction, ErrorMode::ContinueTransaction] {
            let config = EngineConfig { error_mode: mode, ..Default::default() };
            let (mut sim, dbs, mw, client) =
                writeset_cluster(vec![Recorded::new(config, &["INSERT INTO t1 VALUES (1, 1)"])], None);
            let stmts = ["BEGIN", "INSERT INTO t1 VALUES (2, 1)", "INSERT INTO t1 VALUES (1, 5)", "COMMIT"];
            for (i, sql) in stmts.into_iter().enumerate() {
                let i = i as u64;
                request(&mut sim, (client, mw), 1_000 + 2_000 * i, 1, i + 1, sql);
            }
            sim.run_until(SimTime(20_000));
            let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
            assert!(matches!(replies[2], Err(ReplyError::Sql(SqlError::DuplicateKey(_)))), "{:?}", replies[2]);
            let poisoned = mode == ErrorMode::AbortTransaction;
            let certified = sim.with_actor::<Middleware, _>(mw, |m| m.metrics.certifier.checks);
            let rows = sim.with_actor::<Recorded, _>(dbs[0], |r| {
                assert_eq!(r.node.engine().active_transactions(), 0, "{mode:?}");
                let e = r.node.engine_mut();
                let c = e.connect(replimid_sql::ADMIN_USER, replimid_sql::ADMIN_PASSWORD).expect("admin login");
                match e.execute(c, "SELECT COUNT(*) FROM d.t1").expect("count").outcome {
                    replimid_sql::Outcome::Rows(rs) => rs.rows[0][0].as_int(),
                    other => panic!("{other:?}"),
                }
            });
            if poisoned {
                let aborted = SqlError::TransactionState("transaction is aborted; COMMIT rolled it back".into());
                assert_eq!(replies[3], Err(ReplyError::Sql(aborted)));
                assert_eq!((certified, rows), (0, Some(1)));
            } else {
                assert_eq!(replies[3], Ok(ReplyBody::Ack));
                assert_eq!((certified, rows), (1, Some(2)));
            }
        }
    }

    fn router(mode: Mode, policy: ReadPolicy, placement: Option<Placement>, backends: usize) -> Middleware {
        let mut cfg = MwConfig::defaults(mode);
        cfg.read_policy = policy;
        cfg.placement = placement;
        cfg.quarantine = Some(QuarantineConfig::default());
        let nodes = (0..backends).map(NodeId).collect();
        Middleware::new(cfg, 0, vec![NodeId(backends)], nodes)
    }

    /// Trip backend `b`'s breaker: a learned baseline, then a brownout.
    fn quarantine(m: &mut Middleware, b: usize) {
        for t in 1..200 {
            m.health[b].on_completion(t, if t <= 20 { 100 } else { 100_000 });
        }
        assert!(m.is_quarantined(BackendId(b)));
    }

    fn eligible_set(m: &Middleware, gset: &[usize], needs: &[(usize, u64)]) -> Vec<usize> {
        (0..m.backends.len()).filter(|&b| m.eligible(BackendId(b), gset, needs)).collect()
    }

    #[test]
    fn read_eligibility_with_one_group() {
        let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
        let mut m = router(statement, ReadPolicy::Fresh, None, 3);
        let select = parse_statement("SELECT v FROM bench WHERE k = 1").unwrap();
        assert_eq!(m.stmt_groups(&select), [0]);
        m.shards.marks[0][0] = Watermark::at(9);
        m.shards.marks[1][0] = Watermark::at(4); // the stale host
        m.shards.marks[2][0] = Watermark::at(9);
        // A session that has written nothing needs nothing: every host
        // qualifies, whatever it has applied.
        m.session(SessionId(1), None);
        assert_eq!(m.read_needs(SessionId(1), &[0]), []);
        assert_eq!(eligible_set(&m, &[0], &[]), [0, 1, 2]);
        // Its write at position 7 cuts the replica that has not applied it.
        raise(&mut m.session(SessionId(1), None).gstamps, 0, 7);
        let needs = m.read_needs(SessionId(1), &[0]);
        assert_eq!(needs, [(0, 7)]);
        assert_eq!(eligible_set(&m, &[0], &needs), [0, 2]);
        // Quarantine and leaving the rotation cut a caught-up replica too,
        // but a quarantined one that could serve may still carry the probe.
        quarantine(&mut m, 2);
        m.backends[0].state = BackendState::Down;
        assert_eq!(eligible_set(&m, &[0], &needs), []);
        assert!(m.can_serve(BackendId(2), &[0], &needs));
        assert!(!m.can_serve(BackendId(0), &[0], &needs));
        // Bounded staleness lowers the bar by its slack; no slack, no bar.
        m.cfg.read_policy = ReadPolicy::BoundedStaleness(3);
        assert_eq!(m.read_needs(SessionId(1), &[0]), [(0, 4)]);
        m.cfg.read_policy = ReadPolicy::SessionSticky;
        assert_eq!(m.read_needs(SessionId(1), &[0]), []);
    }

    #[test]
    fn read_eligibility_with_two_groups() {
        let placement = Placement::new(vec![vec![0, 1, 2], vec![1, 2, 3]]).assign("a", 0).assign("b", 1);
        let mut m = router(Mode::MultiMasterWriteset, ReadPolicy::Fresh, Some(placement), 4);
        let join = parse_statement("SELECT a.v FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(m.stmt_groups(&join), [0, 1]);
        assert_eq!(m.stmt_groups(&parse_statement("SELECT v FROM b").unwrap()), [1]);
        // Empty needs: the hosts of every group read, and only those.
        assert_eq!(eligible_set(&m, &[0], &[]), [0, 1, 2]);
        assert_eq!(eligible_set(&m, &[0, 1], &[]), [1, 2]);
        // The session wrote position 2 of group 0 and 1 of group 1. Backend
        // 1 is behind in group 1, backend 2 has both, backend 0 has group 0
        // only and backend 3 group 1 only.
        for (b, g, pos) in [(0, 0, 1), (0, 0, 2), (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2), (2, 1, 1), (3, 1, 1)] {
            m.shards.marks[b][g].mark(pos);
        }
        let s = m.session(SessionId(1), None);
        raise(&mut s.gstamps, 0, 2);
        raise(&mut s.gstamps, 1, 1);
        let needs = m.read_needs(SessionId(1), &[0, 1]);
        assert_eq!(needs, [(0, 2), (1, 1)]);
        assert_eq!(eligible_set(&m, &[0, 1], &needs), [2]);
        // A read of one group asks for that group's position only.
        let needs0 = m.read_needs(SessionId(1), &[0]);
        assert_eq!(needs0, [(0, 2)]);
        assert_eq!(eligible_set(&m, &[0], &needs0), [0, 1, 2]);
        assert_eq!(eligible_set(&m, &[1], &m.read_needs(SessionId(1), &[1])), [2, 3]);
        // Quarantine is cut after the host set: with both hosts of the
        // join quarantined the slow answer still beats no answer, and an
        // unquarantined non-host never enters the candidates.
        quarantine(&mut m, 1);
        assert_eq!(eligible_set(&m, &[0, 1], &[]), [2]);
        assert_eq!(m.read_candidates(&[0, 1]), [BackendId(2)]);
        quarantine(&mut m, 2);
        assert_eq!(eligible_set(&m, &[0, 1], &[]), []);
        assert_eq!(m.read_candidates(&[0, 1]), [BackendId(1), BackendId(2)]);
    }

    #[test]
    fn mode_defaults_are_sane() {
        let cfg = MwConfig::defaults(Mode::MultiMasterWriteset);
        assert!(cfg.op_timeout_us >= cfg.heartbeat.timeout_us);
        assert!(!cfg.require_majority);
        assert!(cfg.barrier_threshold > 0);
    }
}
