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
//!
//! Partitioning (Fig. 2) is a [`Placement`] in writeset mode: a table
//! partitioned by range, hash or list on its primary key maps each
//! partition to a group, and its writes take the same per-group path as
//! any other.
//!
//! Middleware peers replicate session write state through the total order,
//! which is what makes client failover transparent (the Sequoia claim,
//! §4.3.3): a client that times out on one middleware retries the same
//! (session, stmt_seq) on a peer, which deduplicates.
//!
//! One file per concern, each owning its concern's state in one struct:
//! `admission` (the plan cache, temp-table stickiness), `reads` (the one
//! read router and its freshness wait queue), `ordering` (per-group
//! sequencers, group commit, delivery, statement replication, and the one
//! fan-out every ordered statement and certified commit settles through),
//! `certification` (writeset certification and cross-group commit),
//! `rejoin` (recovery-log replay, the dump fallback, the global barrier,
//! drain and add), `detection` (liveness, health scoring, quarantine,
//! failover) and `ship` (master-slave binlog shipping and promotion). This
//! file keeps the configuration, the session and backend tables, the op
//! table, and the actor's dispatch.

mod admission;
mod certification;
mod detection;
mod ordering;
mod reads;
mod rejoin;
mod ship;

use std::collections::{BTreeMap, HashMap, HashSet};

use replimid_gcs::{HeartbeatConfig, MemberId};
use replimid_simnet::{Actor, Ctx, NodeId, SimTime};

use replimid_sql::ast::{IsolationLevel, Statement};
use replimid_sql::{Lsn, SqlError, TableName, Writeset};

use crate::balancer::{Balancer, Granularity, Policy};
use crate::health::{HealthEvent, QuarantineConfig};
use crate::metrics::{AvailabilityTracker, Counters, DegradedTracker, Histogram};
use crate::msg::{
    AdminCmd, BackendId, ClientReply, ClientRequest, DbOp, DbResp, Msg, ReplEvent, ReplyBody, ReplyError,
    SessionId,
};
use crate::partition::Placement;
use crate::recovery::{RecoveryLog, ReplayMode};
use crate::rewrite::NondetPolicy;
use crate::session::SessionTable;
use crate::trace::{Stage, TraceId, TraceSink};

use admission::{Admission, Admitted};
use detection::Detection;
use ordering::{ApplyPart, Fanouts, FlushReason, Shards};
use reads::Reads;
use rejoin::Rejoin;
use ship::Ship;

/// Timer tags.
const TIMER_PING: u64 = 2;
const TIMER_SHIP: u64 = 3;
/// The one op-timeout timer, armed at the deadline of the oldest op in
/// flight (see [`Middleware::sweep_op_timeouts`]).
const TIMER_OP_SWEEP: u64 = 4;
/// Freshness-wait deadlines: TIMER_FRESH_BASE + waiter id. A read parked
/// for a fresh-enough replica is released early by `drain_fresh_waiters`,
/// which cancels the deadline; this timer is the wait-or-primary escape
/// hatch.
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
    /// up, for at most 20 ms (then wait-or-primary kicks in).
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
    /// Table -> primary key column index (the certifier's schema
    /// knowledge; built by the cluster builder).
    pub pk_map: HashMap<TableName, usize>,
    pub recovery_batch: usize,
    pub replay_mode: ReplayMode,
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
    /// raises its own timeout instead of being evicted. The learned
    /// threshold never undercuts `heartbeat.timeout_us` (its floor); the
    /// rest of the policy is `crate::health`'s constants. Off by default.
    pub adaptive_detection: bool,
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
    /// Middleware-side prepared-statement cache capacity (templates). With
    /// a non-zero capacity each client statement is normalized (literals →
    /// params) and repeat shapes reuse the cached parse. 0 means no reuse:
    /// every statement is parsed whole. Either way backends receive the
    /// admission-time parse (`DbOp::Execute`), never SQL text.
    pub plan_cache: usize,
    /// Partial replication (the scale-past-full-replication gap) and
    /// partitioning: a placement of tables, or of a table's key partitions,
    /// in groups. Each group gets its own sequencer (an
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
            pk_map: HashMap::new(),
            recovery_batch: 64,
            replay_mode: ReplayMode::Serial,
            require_majority: false,
            quarantine: None,
            degrade_to_read_only: false,
            adaptive_detection: false,
            batch_max: 1,
            batch_deadline_us: 200,
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
    fn new(node: NodeId, removed: bool) -> Self {
        let state = if removed { BackendState::Removed } else { BackendState::Online };
        Backend { node, state, applied_lsn: Lsn(0), node_pos: Vec::new(), drain_started_us: 0 }
    }

    fn online(&self) -> bool {
        self.state == BackendState::Online
    }
}

#[derive(Debug, Clone)]
enum CurrentKind {
    Read,
    /// Waiting for our published write to come back through the total order.
    OrderedWait,
    /// Its ordered statement or certified commit is at the backends,
    /// settling through one fan-out record.
    Fanout,
    /// Writeset mode: statement executing at the delegate. `opened`: the
    /// same op ran the transaction's BEGIN first.
    WsStmt { opened: bool },
    /// Writeset mode: an autocommit write at its delegate, whose records
    /// certify as soon as it answers.
    WsPrepare,
    /// Writeset mode: certification published, waiting for delivery.
    WsCertifyWait,
    /// Master-slave: write executing at the master.
    MsWrite,
    /// Master-slave 2-safe: waiting for slave appliance.
    MsTwoSafe { remaining: u32 },
    /// Statement pinned to the session's temp-table backend.
    TempExec,
    /// Read parked in the freshness wait queue ([`ReadPolicy::Fresh`]):
    /// no replica had applied the session's last committed write yet.
    FreshWait,
}

#[derive(Debug, Clone)]
struct Current {
    stmt_seq: u64,
    kind: CurrentKind,
}

/// One session at the middleware. This record is what every session
/// keeps; what only some use (writeset transactions, temporary tables,
/// 2-safe commits, a third request in flight) is [`SessCold`], boxed the
/// first time the session needs it and kept until it ends.
#[derive(Debug, Default)]
struct Sess {
    client: Option<NodeId>,
    last_replied: u64,
    /// The answer to `last_replied`, for a retry of it.
    cached: Option<Result<ReplyBody, ReplyError>>,
    current: Option<Current>,
    in_tx: bool,
    wrote_in_tx: bool,
    /// Sticky backend: connection-granularity choice, temp-table pin, or
    /// writeset delegate.
    sticky: Option<BackendId>,
    temp_pinned: bool,
    /// The session's per-group read floor: the position of its last
    /// acknowledged write in each group's replication space (certified
    /// stream in writeset mode; in group 0, recovery-log seq for statement
    /// replication and master binlog LSN for master-slave), raised under
    /// [`ReadPolicy::MonotonicReads`] to the highest position any of its
    /// reads has observed. A replica is fresh for this session iff its
    /// applied position has reached the floor in every group it reads.
    /// Grown on demand; groups the session never touched stay 0.
    gstamps: Box<[u64]>,
    last_write_backend: Option<BackendId>,
    /// Open per-statement admission records (was the middleware-global
    /// `request_started` map, which `SessionEnd` leaked): (stmt_seq, meta),
    /// in the order a `Vec` would hold them, the first two here and any
    /// more in [`SessCold::reqs`]. Dropped with the session.
    reqs: [Option<(u64, ReqMeta)>; 2],
    cold: Option<Box<SessCold>>,
}

/// The part of a session only some sessions use.
#[derive(Debug, Default)]
struct SessCold {
    temp_tables: HashSet<String>,
    /// Per-group certification start positions, sampled from the
    /// delegate's per-group watermarks when its BEGIN executes (indexed by
    /// group; the whole vector is sampled at once).
    gstart: Vec<u64>,
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
    /// 2-safe commits: the master's reply body held until slaves confirm
    /// (was the middleware-global `two_safe_bodies` map — same leak, plus a
    /// stale body could be drained by a later commit of a reused session).
    two_safe_body: Option<ReplyBody>,
    /// Open request metas past the two [`Sess::reqs`] holds.
    reqs: Vec<(u64, ReqMeta)>,
}

impl Sess {
    fn new(client: Option<NodeId>) -> Self {
        Sess { client, ..Sess::default() }
    }

    fn cold(&mut self) -> &mut SessCold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Writeset mode: the client's BEGIN not yet run at a delegate.
    fn begin(&self) -> Option<Option<IsolationLevel>> {
        self.cold.as_ref().and_then(|c| c.begin)
    }

    /// The session's transaction is over, however it ended. The cold
    /// part is cleared in place, so the next transaction reuses it.
    fn end_tx(&mut self) {
        self.in_tx = false;
        self.wrote_in_tx = false;
        if let Some(c) = &mut self.cold {
            c.begin = None;
            c.ws.entries.clear();
            c.ws.counters = None;
            c.poisoned = false;
        }
    }

    fn open_req_count(&self) -> usize {
        self.reqs.iter().flatten().count() + self.cold.as_ref().map_or(0, |c| c.reqs.len())
    }

    fn push_req(&mut self, stmt_seq: u64, meta: ReqMeta) {
        match self.reqs.iter_mut().find(|r| r.is_none()) {
            Some(free) => *free = Some((stmt_seq, meta)),
            None => self.cold().reqs.push((stmt_seq, meta)),
        }
    }

    /// The first open request meta of statement `stmt_seq`.
    fn open_req(&mut self, stmt_seq: u64) -> Option<&mut ReqMeta> {
        let spilled = self.cold.as_mut().map_or(&mut [][..], |c| &mut c.reqs[..]);
        self.reqs.iter_mut().flatten().chain(spilled).find(|(seq, _)| *seq == stmt_seq).map(|(_, m)| m)
    }

    /// Take the first open request meta of statement `stmt_seq` out, the
    /// last one taking its place (`Vec::swap_remove`).
    fn take_req(&mut self, stmt_seq: u64) -> Option<ReqMeta> {
        let spilled = self.cold.as_ref().map_or(&[][..], |c| &c.reqs[..]);
        let pos = self.reqs.iter().flatten().chain(spilled).position(|(seq, _)| *seq == stmt_seq)?;
        let last = match self.cold.as_mut().and_then(|c| c.reqs.pop()) {
            Some(last) => last,
            None => self.reqs.iter_mut().rev().find_map(Option::take)?,
        };
        let slot = match pos {
            0 | 1 => self.reqs[pos].as_mut(),
            _ => self.cold.as_mut().and_then(|c| c.reqs.get_mut(pos - 2)),
        };
        Some(match slot {
            Some(taken) => std::mem::replace(taken, last).1,
            None => last.1,
        })
    }
}

/// What waits on a backend op in flight. The backend the op went to is
/// kept beside it, in [`Ops`].
#[derive(Debug)]
enum Pending {
    ClientExec { session: SessionId },
    /// One `Apply` of ordered units at one host, one part per entry in
    /// op order: ordered statements (a flushed batch, or a batch of one),
    /// or a certified transaction's delegate COMMIT or writeset.
    Apply { parts: Vec<ApplyPart> },
    Ping,
    /// A `BinlogAfter` at the master; `after` pins the ship horizon until
    /// the answer is back.
    ShipFetch { after: Lsn },
    TwoSafeFetch { session: SessionId, after: Lsn },
    ShipApply { session: Option<SessionId> },
    /// One replay batch of group `group`'s stream, through `upto`.
    RecoveryBatch { group: usize, upto: u64 },
    /// A full resync's dump at the donor for `target`; `heads` are the
    /// per-group log heads when the dump was requested.
    ResyncDumpReq { target: BackendId, heads: Vec<u64> },
    BackupDump { hot: bool, started_us: u64 },
    /// A full resync's restore at the rejoining backend.
    ResyncRestore { baseline: Lsn, heads: Vec<u64> },
    FireAndForget,
}

/// Whether an op fails with the backend it was sent to: a timeout fails
/// that backend, and its failure fails the op. A fetch from the master,
/// a resync's dump at the donor and a fire-and-forget do neither.
fn fails_with_backend(p: &Pending) -> bool {
    !matches!(
        p,
        Pending::ShipFetch { .. } | Pending::TwoSafeFetch { .. } | Pending::ResyncDumpReq { .. } | Pending::FireAndForget
    )
}

/// The op table: what each backend op in flight waits on, the backend it
/// was sent to, and the one timer that times them out.
#[derive(Debug)]
struct Ops {
    /// Op id -> (what waits on it, its backend, dispatch µs). Ids are
    /// dispatched in time order and `op_timeout_us` is constant, so the
    /// first entry always has the earliest deadline.
    pending: BTreeMap<u64, (Pending, BackendId, u64)>,
    /// The `TIMER_OP_SWEEP` timer is queued.
    sweep_armed: bool,
    next: u64,
}

impl Ops {
    fn new() -> Self {
        Ops { pending: BTreeMap::new(), sweep_armed: false, next: 1 }
    }

    /// Enter an op sent to `backend` at `now`; its id.
    fn alloc(&mut self, p: Pending, backend: BackendId, now: u64) -> u64 {
        let op = self.next;
        self.next += 1;
        self.pending.insert(op, (p, backend, now));
        op
    }

    /// Where to queue the sweep, unless it is queued already or nothing is
    /// in flight: the oldest op's deadline. A later op's deadline is never
    /// earlier.
    fn arm(&mut self, timeout_us: u64) -> Option<u64> {
        if self.sweep_armed {
            return None;
        }
        let (_, &(_, _, started)) = self.pending.first_key_value()?;
        self.sweep_armed = true;
        Some(started + timeout_us)
    }

    /// The oldest op in flight, if its deadline has passed at `now`.
    fn expired(&self, now: u64, timeout_us: u64) -> Option<u64> {
        let (&op, &(_, _, started)) = self.pending.first_key_value()?;
        (started + timeout_us <= now).then_some(op)
    }
}

/// Aggregated metrics exposed to the harness.
#[derive(Debug, Clone, Default)]
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
    /// Quarantine transition log: (µs, backend index, event), each
    /// transition of every backend's [`crate::health::HealthTracker`] in
    /// the order it happened; the one place it is stored.
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

/// The middleware actor. Each concern's state lives in the one struct its
/// file owns; what is left here is shared by all of them.
pub struct Middleware {
    cfg: MwConfig,
    /// Peer middleware nodes (this one included).
    peers: Vec<NodeId>,
    backends: Vec<Backend>,
    balancer: Balancer,
    /// Per-session state, keyed by `SessionId.0`. A flat slab + index
    /// rather than a `HashMap`: at 10⁵–10⁶ concurrent sessions the hot
    /// path is O(bytes) per session and iteration order is deterministic
    /// (std's RandomState is not) — see [`SessionTable`].
    sessions: SessionTable<Sess>,
    ops: Ops,
    pub metrics: MwMetrics,
    admission: Admission,
    reads: Reads,
    /// Per-group replication state: ordering, certification, logging,
    /// apply tracking. Full replication is the one group every backend
    /// hosts.
    shards: Shards,
    fanouts: Fanouts,
    rejoin: Rejoin,
    detect: Detection,
    ship: Ship,
}

/// Raise entry `g` of a per-group vector to at least `pos`, growing the
/// vector (zero-filled) to cover the group.
fn raise(v: &mut Box<[u64]>, g: usize, pos: u64) {
    if v.len() <= g {
        let mut grown = std::mem::take(v).into_vec();
        grown.resize(g + 1, 0);
        *v = grown.into_boxed_slice();
    }
    v[g] = v[g].max(pos);
}

impl Middleware {
    pub fn new(cfg: MwConfig, me_idx: usize, peers: Vec<NodeId>, backends: Vec<NodeId>) -> Self {
        let n = backends.len();
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
        let shards = Shards::new(placement, MemberId(me_idx), peers.len(), n);
        Middleware {
            backends: backends
                .into_iter()
                .enumerate()
                .map(|(i, node)| Backend::new(node, cfg.initial_removed.contains(&i)))
                .collect(),
            balancer: Balancer::new(cfg.granularity, cfg.policy.clone(), n),
            sessions: SessionTable::new(),
            ops: Ops::new(),
            metrics: MwMetrics::default(),
            admission: Admission::new(cfg.plan_cache),
            reads: Reads::default(),
            shards,
            fanouts: Fanouts::new(),
            rejoin: Rejoin::default(),
            detect: Detection::new(n),
            ship: Ship::new(),
            peers,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    fn healthy(&self) -> Vec<BackendId> {
        (0..self.backends.len()).filter(|&i| self.backends[i].online()).map(BackendId).collect()
    }

    fn master_slave(&self) -> bool {
        matches!(self.cfg.mode, Mode::MasterSlave { .. })
    }

    /// Why a write is refused, if it is: degraded read-only mode is on and
    /// the online-backend count fell below the write-quorum floor.
    fn degraded_refusal(&mut self) -> Option<ReplyError> {
        if !self.cfg.degrade_to_read_only || self.healthy().len() > self.backends.len() / 2 {
            return None;
        }
        self.metrics.counters.degraded_write_rejects += 1;
        Some(ReplyError::Degraded("write quorum lost: cluster is read-only".into()))
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

    /// §4.3.4.3: multi-master writes are refused on the minority side of a
    /// (possible) partition, and then why.
    fn minority_refusal(&self) -> Option<ReplyError> {
        // Every group's sequencer spans the same peers: stream 0's view
        // stands for all of them.
        let majority =
            !self.cfg.require_majority || self.shards.member.view(0).members.len() * 2 > self.peers.len();
        (!majority).then(|| ReplyError::Unavailable("minority partition: writes suspended".into()))
    }

    // ------------------------------------------------------------------
    // The op table
    // ------------------------------------------------------------------

    fn send_db(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, p: Pending, mk: impl FnOnce(u64) -> DbOp) -> u64 {
        let node = self.backends[backend.0].node;
        let op = self.ops.alloc(p, backend, ctx.now().micros());
        self.arm_op_sweep(ctx);
        self.balancer.dispatched(backend);
        ctx.send(node, Msg::Db(mk(op)));
        op
    }

    /// Take op `op` out of the table, however it ends: answered, timed out
    /// or failed with its backend. Its LPRF count is released here, so the
    /// balancer counts exactly the ops in the table.
    fn take_op(&mut self, op: u64) -> Option<(Pending, BackendId, u64)> {
        let taken = self.ops.pending.remove(&op)?;
        self.balancer.completed(taken.1);
        Some(taken)
    }

    /// Queue the sweep at the oldest pending op's deadline, unless it is
    /// queued already.
    fn arm_op_sweep(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let Some(at) = self.ops.arm(self.cfg.op_timeout_us) {
            ctx.set_timer_at(SimTime(at), TIMER_OP_SWEEP);
        }
    }

    /// The sweep timer fired: time out every op whose deadline has passed,
    /// oldest first, then re-arm for the new oldest. Each op still times
    /// out at exactly dispatch + `op_timeout_us`; an op that completed
    /// before its deadline costs the sweep nothing but the re-arm.
    fn sweep_op_timeouts(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().micros();
        while let Some(op) = self.ops.expired(now, self.cfg.op_timeout_us) {
            self.op_timed_out(ctx, op);
        }
        self.ops.sweep_armed = false;
        self.arm_op_sweep(ctx);
    }

    fn op_timed_out(&mut self, ctx: &mut Ctx<'_, Msg>, op: u64) {
        let Some((p, backend, started)) = self.take_op(op) else { return };
        if crate::debug_on() {
            eprintln!("[{}us] op {op} timed out: {p:?}", ctx.now().micros());
        }
        // Pings to a down backend are *expected* to be lost; real failures
        // are detected by the silent-too-long check in ping_tick. Treating
        // a stale ping timeout as a failure would kill a backend that just
        // finished recovering.
        if matches!(p, Pending::Ping) {
            return;
        }
        let fails = fails_with_backend(&p);
        // The op is already out of `pending`, so the backend_failed drain
        // below cannot see it: its waiter is failed here.
        self.fail_inflight(ctx, p, backend, started);
        if fails {
            if !ctx.oracle_is_crashed(self.backends[backend.0].node) {
                self.metrics.counters.false_evictions += 1;
            }
            self.backend_failed(ctx, backend);
        }
    }

    /// Wake whatever waits on an op sent to `backend` that will never be
    /// answered, already taken out of `pending` (dispatched at `started`
    /// µs). Shared by the failure drain and the timeout sweep.
    fn fail_inflight(&mut self, ctx: &mut Ctx<'_, Msg>, p: Pending, backend: BackendId, started: u64) {
        match p {
            Pending::ClientExec { session } => {
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
            Pending::Apply { parts } => self.finish_apply(ctx, parts, backend, None),
            Pending::ShipApply { session } => {
                self.ship.busy.remove(&backend);
                if let Some(session) = session {
                    self.finish_two_safe_part(ctx, session);
                }
            }
            Pending::ShipFetch { .. } => self.ship.inflight = false,
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Sessions and replies
    // ------------------------------------------------------------------

    fn session(&mut self, id: SessionId, client: Option<NodeId>) -> &mut Sess {
        let s = self.sessions.get_or_insert_with(id.0, || Sess::new(client));
        if client.is_some() {
            s.client = client.or(s.client);
        }
        s
    }

    /// Full session teardown at the middleware: the slab entry goes —
    /// taking its open request metas and any stashed 2-safe body with it —
    /// and so do the session's parked reads. The backends close the
    /// session's connection through the slot's fan-out (see
    /// `deliver_slot`), which aborts its open transaction: left open, its
    /// uncommitted row versions would make every later write to those rows
    /// a write conflict.
    fn end_session(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        self.sessions.remove(session.0);
        self.reads.end_session(ctx, session);
    }

    /// Sessions stuck to `backend`, which left rotation, re-route on their
    /// next statement; a writeset session in a transaction has lost its
    /// delegate. Temp-table pins stay: the tables live only there.
    fn unstick(&mut self, backend: BackendId) {
        for s in self.sessions.values_mut() {
            if s.sticky == Some(backend) && !s.temp_pinned {
                s.sticky = None;
            }
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, result: Result<ReplyBody, ReplyError>) {
        let now = ctx.now().micros();
        let ok = !matches!(result, Err(ReplyError::Unavailable(_)));
        self.metrics.availability.record(now, ok);
        self.reply_read(ctx, session, stmt_seq, result);
    }

    /// Read-path replies do not feed the availability tracker: reads served
    /// from surviving slaves would mask a write outage, and the paper's
    /// downtime stories (the ticket broker) are about update availability.
    fn reply_read(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, result: Result<ReplyBody, ReplyError>) {
        let now = ctx.now().micros();
        self.close_request(session, stmt_seq, now);
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.last_replied = stmt_seq;
        s.cached = Some(result.clone());
        s.current = None;
        if let Some(client) = s.client {
            ctx.send(client, Msg::Reply(ClientReply { session, stmt_seq, result }));
        }
    }

    /// Close a statement's latency window: route the sample to the
    /// histogram matching the admission-time classification and seal its
    /// trace (any time since the last recorded span falls into
    /// `Stage::Other`, the instrumentation-coverage gauge).
    fn close_request(&mut self, session: SessionId, stmt_seq: u64, now: u64) {
        let meta = self.sessions.get_mut(session.0).and_then(|s| s.take_req(stmt_seq));
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
        let trace = self.sessions.get_mut(session.0).and_then(|s| s.open_req(stmt_seq)).map(|m| m.trace);
        if let Some(trace) = trace {
            if trace != 0 {
                self.metrics.trace.span(TraceId(trace), stage, now_us);
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch: client requests, backend responses, management commands
    // ------------------------------------------------------------------

    fn on_request(&mut self, ctx: &mut Ctx<'_, Msg>, client: NodeId, req: ClientRequest) {
        let now = ctx.now().micros();
        let s = self.session(req.session, Some(client));
        // Retry deduplication (§4.3.3 transparent failover).
        if req.stmt_seq <= s.last_replied {
            if let Some(result) = s.cached.clone().filter(|_| req.stmt_seq == s.last_replied) {
                if let Some(c) = s.client {
                    ctx.send(c, Msg::Reply(ClientReply { session: req.session, stmt_seq: req.stmt_seq, result }));
                }
            }
            return;
        }
        if s.current.as_ref().is_some_and(|cur| cur.stmt_seq == req.stmt_seq) {
            return; // already in flight (duplicate retry)
        }
        s.push_req(req.stmt_seq, ReqMeta { start_us: now, trace: req.trace, is_read: false });
        if req.trace != 0 {
            self.metrics.trace.begin(TraceId(req.trace), now);
        }

        // Parse exactly once, at admission. Every later consumer — read/
        // write classification, temp-table detection, rewrite, group
        // lookup, backend fan-out, the recovery log and its replay — works
        // from this parse (or the cached template behind it); the statement
        // text is never parsed again anywhere in the pipeline.
        let Admitted { stmt, plan } = match self.admission.admit(&req.sql, &mut self.metrics.counters) {
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
        if let Some(meta) = self.sessions.get_mut(req.session.0).and_then(|s| s.open_req(req.stmt_seq)) {
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
                self.mm_statement_request(ctx, req, &stmt, plan, nondet)
            }
            Mode::MultiMasterWriteset => self.mm_writeset_request(ctx, req, &stmt, plan),
            Mode::MasterSlave { .. } => self.ms_request(ctx, req, &stmt, plan),
        }
    }

    fn on_db_resp(&mut self, ctx: &mut Ctx<'_, Msg>, resp: DbResp) {
        let op = resp.op();
        let Some((pending, backend, started)) = self.take_op(op) else { return };
        match pending {
            Pending::ClientExec { session } => {
                self.note_completion(ctx.now().micros(), backend, started, op);
                self.finish_client_exec(ctx, session, backend, resp);
            }
            Pending::Apply { parts } => {
                if self.fanouts.executes(&parts) {
                    self.note_completion(ctx.now().micros(), backend, started, op);
                }
                self.finish_apply(ctx, parts, backend, Some(resp));
            }
            Pending::Ping => {
                if let DbResp::Pong { applied_lsn, head, ordered_applied, durable_ordered, .. } = resp
                {
                    self.note_pong(ctx, backend, applied_lsn, head, ordered_applied, durable_ordered);
                }
            }
            Pending::ShipFetch { .. } => {
                self.ship.inflight = false;
                self.finish_ship_fetch(ctx, resp);
            }
            Pending::TwoSafeFetch { session, .. } => self.finish_two_safe_fetch(ctx, session, resp),
            Pending::ShipApply { session } => self.finish_ship_apply(ctx, backend, session, resp),
            Pending::RecoveryBatch { group, upto } => self.finish_recovery_batch(ctx, backend, group, upto, resp),
            Pending::ResyncDumpReq { target, heads } => self.finish_resync_dump(ctx, target, heads, resp),
            Pending::BackupDump { hot, started_us } => {
                if crate::debug_on() {
                    eprintln!("[backup] resp for b{} hot={hot}: {:?}", backend.0, std::mem::discriminant(&resp));
                }
                if let DbResp::DumpOut { dump, .. } = resp {
                    self.metrics.backups.push((started_us, ctx.now().micros(), hot, dump.row_count()));
                }
            }
            Pending::ResyncRestore { baseline, heads } => {
                self.finish_resync_restore(ctx, backend, baseline, heads, resp);
            }
            Pending::FireAndForget => {}
        }
        // Any response can have advanced the freshness vector (apply acks,
        // pongs, cert marks, recovery completion): release parked reads.
        self.drain_fresh_waiters(ctx);
    }

    /// A client statement's op at one backend answered: a read, a
    /// temp-table statement, a writeset statement at its delegate, or a
    /// master-slave write.
    fn finish_client_exec(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, backend: BackendId, resp: DbResp) {
        let Some(current) = self.sessions.get(session.0).and_then(|s| s.current.clone()) else { return };
        let stmt_seq = current.stmt_seq;
        // Whatever happened since the last span was waiting on this backend.
        self.mw_span(session, stmt_seq, Stage::Execute, ctx.now().micros());
        match current.kind {
            CurrentKind::Read => match resp {
                DbResp::ExecOk { body, .. } => {
                    self.reply_read(ctx, session, stmt_seq, Ok(body));
                }
                DbResp::ExecErr { err, .. } => {
                    self.reply_read(ctx, session, stmt_seq, Err(ReplyError::Sql(err)));
                }
                _ => {}
            },
            CurrentKind::TempExec | CurrentKind::WsStmt { .. } | CurrentKind::WsPrepare => {
                let res = match resp {
                    DbResp::ExecOk { body, commit, .. } => {
                        if commit.is_some() {
                            self.metrics.counters.commits += 1;
                        }
                        Ok(body)
                    }
                    DbResp::ExecErr { err, .. } => Err(err),
                    out @ DbResp::DelegateOut { .. } => {
                        let Some(res) = self.finish_delegate(ctx, session, backend, &current, out) else { return };
                        res
                    }
                    _ => return,
                };
                if res.as_ref().is_err_and(SqlError::is_retryable) {
                    self.metrics.counters.aborts += 1;
                }
                self.reply(ctx, session, stmt_seq, res.map_err(ReplyError::Sql));
            }
            CurrentKind::MsWrite => self.finish_ms_write(ctx, session, stmt_seq, resp),
            _ => {}
        }
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
                    Pending::BackupDump { hot, started_us },
                    move |op| DbOp::Dump { op, include_programs: true, include_principals: true },
                );
            }
            AdminCmd::RemoveBackend { backend } => self.backend_failed(ctx, backend),
            AdminCmd::DrainBackend { backend } => self.drain_backend(ctx, backend),
            AdminCmd::AddBackend { backend } => self.add_backend(ctx, backend),
            AdminCmd::EndSession { session } => {
                // Teardown rides the total order so every peer drops its
                // replicated copy of the session state at the same point.
                // Any one stream works (teardown is group-agnostic); group 0
                // keeps it deterministic.
                self.shard_publish_write(ctx, 0, ReplEvent::SessionEnd { session });
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection for the harness
    // ------------------------------------------------------------------

    pub fn master_backend(&self) -> BackendId {
        self.ship.master
    }

    pub fn online_backends(&self) -> usize {
        self.healthy().len()
    }

    pub fn recovery_state(&self, b: BackendId) -> String {
        format!("{:?}", self.backends[b.0].state)
    }

    /// Quarantine state of a backend (harness/test introspection).
    pub fn backend_health_state(&self, b: BackendId) -> crate::health::HealthState {
        self.detect.watch[b.0].health.state()
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
            reqs += s.open_req_count();
            if s.cold.as_ref().is_some_and(|c| c.two_safe_body.is_some()) {
                bodies += 1;
            }
        }
        (self.sessions.len(), reqs, bodies)
    }

    /// Reads currently parked waiting for a fresh replica.
    pub fn fresh_waiter_count(&self) -> usize {
        self.reads.len()
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
mod tests;
