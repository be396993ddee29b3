//! Session-fleet driver: ONE actor that multiplexes thousands to a
//! million closed-loop sessions against a middleware node.
//!
//! The per-session `Client` actor is the right tool up to a few hundred
//! sessions; at the 10⁵–10⁶ range the E19 freshness experiment sweeps, a
//! node per session would drown the simulator in actors before the
//! middleware's own session storage (the thing under test) is touched.
//! `SessionFleet` keeps one slot per session — a few dozen bytes — and
//! drives them all through one node id.
//!
//! Each slot owns one key of the `bench` micro table (or of a `bench_<t>`
//! shard when `keys_per_table` is set) and alternates reads and writes on
//! it:
//!
//! * writes set `v` to a per-slot monotone value and record the value on
//!   acknowledgment;
//! * reads check the returned `v` against the last *acknowledged* write —
//!   observing anything smaller is a read-your-writes violation, counted
//!   in [`FleetMetrics::ryw_violations`]. Keys are slot-private, so the
//!   check is exact (nobody else ever writes the key).
//!
//! Churn (`churn_every`) tears a slot's session down with
//! `AdminCmd::EndSession` and continues under a fresh session id — the
//! session-map leak regression drives exactly this path.

use replimid_simnet::{Actor, Ctx, NodeId, TimerId};

use crate::metrics::Histogram;
use crate::msg::{AdminCmd, ClientRequest, Msg, ReplyBody, SessionId};

#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// First session id; the fleet owns ids `[first_session, ..)` upward
    /// (churn allocates fresh ones monotonically).
    pub first_session: u64,
    /// Number of concurrently live sessions (slots).
    pub sessions: usize,
    /// The middleware every request goes to.
    pub middleware: NodeId,
    /// Closed-loop think time between a reply and the slot's next request.
    pub think_time_us: u64,
    /// Slot start times are spread uniformly over this window, so a large
    /// fleet ramps in instead of arriving as one synchronized burst.
    pub ramp_us: u64,
    /// Writes per thousand requests (the rest are reads).
    pub write_permille: u32,
    /// End the session and continue under a fresh id every N completed
    /// requests (0 = never). Exercises `SessionEnd` teardown.
    pub churn_every: u64,
    /// Shard the keyspace over `bench_<t>` tables of this many keys
    /// (matching the workload crate's `micro::sharded_schema`); 0 = the
    /// single `bench` table. Read cost no longer depends on it (point
    /// reads use the primary-key index); the repo benchmark still sets it.
    pub keys_per_table: usize,
    /// Give up on a request after this long (counted as an error; the
    /// slot moves on so one lost reply cannot wedge it forever).
    pub request_timeout_us: u64,
    /// Every Nth slot (N > 0, slot index ≠ 0) becomes a pure *observer*:
    /// it never writes and reads its left neighbor's key instead of its
    /// own. Observers are the monotonic-reads litmus — they have no writes
    /// for a read-your-writes stamp to anchor to, so only a per-session
    /// read floor can keep their view from going backwards. 0 = off.
    pub observer_every: usize,
}

impl FleetConfig {
    pub fn new(first_session: u64, sessions: usize, middleware: NodeId) -> Self {
        FleetConfig {
            first_session,
            sessions,
            middleware,
            think_time_us: 1_000,
            ramp_us: 500_000,
            write_permille: 200,
            churn_every: 0,
            keys_per_table: 0,
            request_timeout_us: 2_000_000,
            observer_every: 0,
        }
    }
}

/// Aggregated fleet measurements.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    pub reads: u64,
    pub writes: u64,
    pub errors: u64,
    /// Reads that observed a value older than the slot's last acknowledged
    /// write — must be 0 whenever the read policy guarantees RYW.
    pub ryw_violations: u64,
    /// Reads that observed a value older than one a *previous read* of the
    /// same session returned — the session went backwards in time. Must be
    /// 0 under `ReadPolicy::MonotonicReads` (and under Fresh, which is
    /// strictly stronger); `Any` routing produces these freely.
    pub monotonic_violations: u64,
    /// Sessions torn down by churn.
    pub sessions_ended: u64,
    pub read_latency: Histogram,
    pub write_latency: Histogram,
}

#[derive(Debug, Clone, Copy)]
enum PendingOp {
    Read { sent_us: u64 },
    Write { value: u64, sent_us: u64 },
}

/// One live session: the whole per-slot footprint is this struct.
#[derive(Debug, Clone)]
struct Slot {
    session: u64,
    stmt_seq: u64,
    /// Next value to write (per-slot monotone, starts at 1; the schema
    /// preloads v = 0).
    next_val: u64,
    /// Highest value acknowledged as committed — the RYW floor.
    acked_val: u64,
    /// Highest value any read has returned — the monotonic-reads floor.
    /// Distinct from `acked_val`: a read can observe another slot's-epoch
    /// value (after churn) or simply a replica ahead of the session's own
    /// writes, and monotonicity must hold from there on.
    last_seen_val: u64,
    pending: Option<PendingOp>,
    ops_done: u64,
    /// The slot's one timer: the think timer, or the request guard while
    /// an op is pending.
    timer: Option<TimerId>,
}

pub struct SessionFleet {
    cfg: FleetConfig,
    slots: Vec<Slot>,
    /// session id -> slot index (reply demux; never iterated, so the
    /// process-randomized order is harmless).
    by_session: std::collections::HashMap<u64, usize>,
    /// Next fresh session id for churn.
    next_id: u64,
    pub metrics: FleetMetrics,
}

impl SessionFleet {
    pub fn new(cfg: FleetConfig) -> Self {
        let slots: Vec<Slot> = (0..cfg.sessions)
            .map(|i| Slot {
                session: cfg.first_session + i as u64,
                stmt_seq: 0,
                next_val: 1,
                acked_val: 0,
                last_seen_val: 0,
                pending: None,
                ops_done: 0,
                timer: None,
            })
            .collect();
        let by_session =
            slots.iter().enumerate().map(|(i, s)| (s.session, i)).collect();
        let next_id = cfg.first_session + cfg.sessions as u64;
        SessionFleet { cfg, slots, by_session, next_id, metrics: FleetMetrics::default() }
    }

    /// Arm the slot's one timer, tagged with the slot index, cancelling
    /// the one before it: the guard of an answered request never fires.
    fn arm_timer(&mut self, ctx: &mut Ctx<'_, Msg>, slot_idx: usize, delay_us: u64) {
        let slot = &mut self.slots[slot_idx];
        if let Some(prev) = slot.timer.take() {
            ctx.cancel_timer(prev);
        }
        slot.timer = Some(ctx.set_timer(delay_us, slot_idx as u64));
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, Msg>, slot_idx: usize) {
        let now = ctx.now().micros();
        // Deterministic per-op read/write mix (no RNG: the decision must
        // not perturb shared RNG state consumed by other actors).
        let slot = &self.slots[slot_idx];
        let observer = self.cfg.observer_every > 0
            && slot_idx > 0
            && slot_idx.is_multiple_of(self.cfg.observer_every);
        let mix = (slot.session.wrapping_mul(1_000_003) ^ slot.ops_done.wrapping_mul(97)) % 1_000;
        let write = !observer && (mix as u32) < self.cfg.write_permille;
        // Observers watch the neighbor's key; its values are monotone (the
        // neighbor writes them), so the monotonic check stays exact.
        let key_idx = if observer { slot_idx - 1 } else { slot_idx };
        let (table, key) = match self.cfg.keys_per_table {
            0 => ("bench".to_string(), key_idx),
            kpt => (format!("bench_{}", key_idx / kpt), key_idx % kpt),
        };
        let slot = &mut self.slots[slot_idx];
        slot.stmt_seq += 1;
        let (sql, pending) = if write {
            let value = slot.next_val;
            slot.next_val += 1;
            (
                format!("UPDATE {table} SET v = {value} WHERE k = {key}"),
                PendingOp::Write { value, sent_us: now },
            )
        } else {
            (format!("SELECT v FROM {table} WHERE k = {key}"), PendingOp::Read { sent_us: now })
        };
        slot.pending = Some(pending);
        let req = ClientRequest {
            session: SessionId(slot.session),
            stmt_seq: slot.stmt_seq,
            trace: 0,
            sql,
        };
        ctx.send(self.cfg.middleware, Msg::Request(req));
        // The timer doubles as the request-timeout guard: while an op is
        // pending, its firing means the reply never came.
        self.arm_timer(ctx, slot_idx, self.cfg.request_timeout_us);
    }

    /// Reply handled (or timed out): maybe churn the session, then rest.
    fn finish_op(&mut self, ctx: &mut Ctx<'_, Msg>, slot_idx: usize) {
        let churn = {
            let slot = &mut self.slots[slot_idx];
            slot.pending = None;
            slot.ops_done += 1;
            self.cfg.churn_every > 0 && slot.ops_done.is_multiple_of(self.cfg.churn_every)
        };
        if churn {
            let old = self.slots[slot_idx].session;
            ctx.send(self.cfg.middleware, Msg::Admin(AdminCmd::EndSession {
                session: SessionId(old),
            }));
            self.metrics.sessions_ended += 1;
            self.by_session.remove(&old);
            let fresh = self.next_id;
            self.next_id += 1;
            self.by_session.insert(fresh, slot_idx);
            let slot = &mut self.slots[slot_idx];
            slot.session = fresh;
            slot.stmt_seq = 0;
            // The data survives the session; the RYW floor does not (a new
            // session has no writes of its own yet), and neither does the
            // monotonic floor — session guarantees are per-session.
            slot.acked_val = 0;
            slot.last_seen_val = 0;
            slot.pending = None;
        }
        let think = self.cfg.think_time_us.max(1);
        self.arm_timer(ctx, slot_idx, think);
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, session: u64, stmt_seq: u64, result: Result<ReplyBody, ()>) {
        let Some(&slot_idx) = self.by_session.get(&session) else { return };
        let now = ctx.now().micros();
        {
            let slot = &mut self.slots[slot_idx];
            if slot.stmt_seq != stmt_seq {
                return; // stale: a timed-out request answered late
            }
            let Some(pending) = slot.pending else { return };
            match (pending, result) {
                (PendingOp::Write { value, sent_us }, Ok(_)) => {
                    slot.acked_val = slot.acked_val.max(value);
                    self.metrics.writes += 1;
                    self.metrics.write_latency.record(now - sent_us);
                }
                (PendingOp::Read { sent_us }, Ok(body)) => {
                    self.metrics.reads += 1;
                    self.metrics.read_latency.record(now - sent_us);
                    if let ReplyBody::Rows(rs) = body {
                        let seen = rs
                            .rows
                            .first()
                            .and_then(|r| r.first())
                            .and_then(|v| v.as_int())
                            .unwrap_or(0);
                        if (seen as u64) < slot.acked_val {
                            self.metrics.ryw_violations += 1;
                            if crate::debug_on() {
                                eprintln!(
                                    "[fleet] RYW violation t={now} session={session} key={slot_idx} seen={seen} acked={}",
                                    slot.acked_val
                                );
                            }
                        }
                        if (seen as u64) < slot.last_seen_val {
                            self.metrics.monotonic_violations += 1;
                            if crate::debug_on() {
                                eprintln!(
                                    "[fleet] monotonic violation t={now} session={session} key={slot_idx} seen={seen} floor={}",
                                    slot.last_seen_val
                                );
                            }
                        }
                        slot.last_seen_val = slot.last_seen_val.max(seen as u64);
                    }
                }
                (_, Err(())) => {
                    self.metrics.errors += 1;
                }
            }
        }
        self.finish_op(ctx, slot_idx);
    }
}

impl Actor<Msg> for SessionFleet {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let n = self.cfg.sessions.max(1) as u64;
        for i in 0..self.cfg.sessions {
            // Uniform ramp: slot i starts at its share of the window.
            let offset = 1 + (i as u64).wrapping_mul(self.cfg.ramp_us) / n;
            self.arm_timer(ctx, i, offset);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Reply(reply) = msg {
            let result = reply.result.map_err(|_| ());
            self.on_reply(ctx, reply.session.0, reply.stmt_seq, result);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        let slot_idx = tag as usize;
        if self.slots[slot_idx].pending.is_some() {
            // Request-timeout guard fired with the op still outstanding.
            self.metrics.errors += 1;
            self.finish_op(ctx, slot_idx);
        } else {
            self.issue(ctx, slot_idx);
        }
    }
}
