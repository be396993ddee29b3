//! Open-loop heavy-traffic driver (§5.1: real front-ends do not wait).
//!
//! Every other driver in this repository is *closed-loop*: a session issues
//! a request, waits for the reply, thinks, repeats. Closed loops are
//! self-clocking — when the cluster slows down, the offered load politely
//! slows down with it, which hides exactly the overload behaviour a
//! management operation (add a replica, drain one, roll the fleet) causes
//! in production. An *open-loop* driver decouples arrivals from
//! completions: requests arrive on their own Poisson (or diurnally
//! modulated) clock whether or not the cluster is keeping up, a bounded
//! admission stage keeps at most `max_inflight` requests outstanding, a
//! bounded queue absorbs bursts, and everything past the queue is **shed
//! and counted** — overload is observable instead of absorbed.
//!
//! Measurement model per request:
//!
//! * *queue wait* — arrival → dispatch (recorded as [`Stage::QueueWait`]);
//! * *service* — dispatch → reply;
//! * *sojourn* — arrival → final outcome, queue and retries included.
//!
//! Retries never block the arrival clock (the closed-loop assumption this
//! module exists to break): a retryable failure is re-enqueued at the tail
//! of the admission queue as a fresh arrival, counted in
//! [`OpenLoopMetrics::retries_enqueued`], and subject to the same shed
//! bound as any other arrival.
//!
//! Everything is deterministic from `OpenLoopConfig::seed`: the driver owns
//! a private [`DetRng`] (the arrival stream must not perturb — or be
//! perturbed by — any other actor's randomness), all state lives in
//! `Vec`/`VecDeque`/index maps, and per-second series are indexed by
//! virtual time.

use std::collections::VecDeque;

use replimid_core::metrics::Histogram;
use replimid_core::msg::{AdminCmd, ClientRequest, Msg, ReplyBody, SessionId};
use replimid_core::trace::{Stage, TraceSink};
use replimid_core::Cluster;
use replimid_det::DetRng;
use replimid_simnet::{Actor, Ctx, NodeId, SimTime, TimerId};

/// When the next request arrives: the open-loop clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate_per_sec` (exponential
    /// interarrival gaps, drawn by inversion — one RNG draw per arrival).
    Poisson { rate_per_sec: f64 },
    /// Inhomogeneous Poisson with a sinusoidal diurnal envelope: the rate
    /// swings between `base_per_sec` (trough) and `peak_per_sec` (peak)
    /// over `period_us`, starting at the trough. Drawn by thinning against
    /// the peak rate.
    Diurnal { base_per_sec: f64, peak_per_sec: f64, period_us: u64 },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate (per second) at virtual time `t_us`.
    pub fn rate_at(&self, t_us: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal { base_per_sec, peak_per_sec, period_us } => {
                let phase = (t_us % period_us.max(1)) as f64 / period_us.max(1) as f64;
                base_per_sec
                    + (peak_per_sec - base_per_sec)
                        * 0.5
                        * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
            }
        }
    }

    /// The envelope's maximum rate (the thinning majorant).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal { base_per_sec, peak_per_sec, .. } => {
                peak_per_sec.max(base_per_sec)
            }
        }
    }

    /// Absolute virtual time of the next arrival strictly after `t_us`.
    /// Poisson consumes exactly one RNG draw per arrival; the diurnal
    /// process draws candidate arrivals at the peak rate and thins them to
    /// the instantaneous rate (Lewis–Shedler).
    pub fn next_arrival_us(&self, t_us: u64, rng: &mut DetRng) -> u64 {
        let peak = self.peak_rate().max(1e-9);
        let mut t = t_us as f64;
        loop {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / peak * 1e6;
            let thinned = match self {
                ArrivalProcess::Poisson { .. } => false,
                ArrivalProcess::Diurnal { .. } => rng.gen::<f64>() * peak > self.rate_at(t as u64),
            };
            if !thinned {
                return (t as u64).max(t_us + 1);
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// First session id; the driver owns `max_inflight` consecutive ids
    /// (one per in-flight slot — a slot's session is reused sequentially).
    pub first_session: u64,
    /// The middleware every request goes to.
    pub middleware: NodeId,
    pub arrivals: ArrivalProcess,
    /// Private RNG seed for the arrival stream and read-key choices.
    pub seed: u64,
    /// Bounded admission: at most this many requests outstanding.
    pub max_inflight: usize,
    /// Bounded wait queue ahead of admission; arrivals (and re-enqueued
    /// retries) past this bound are shed and counted, never buffered.
    pub queue_max: usize,
    /// Writes per thousand arrivals; the rest are point reads.
    pub write_permille: u32,
    /// Reads pick uniformly from keys `[0, read_keys)` of `table`
    /// (preloaded by the micro schema).
    pub read_keys: usize,
    /// Table point reads select from.
    pub table: String,
    /// Table writes insert into. Defaults to `table`; experiments that
    /// check which acknowledged writes survived point it at a separate
    /// write-only table, which then holds nothing but the run's inserts.
    pub write_table: String,
    /// Writes insert fresh keys `insert_base + n` (`n` = write counter):
    /// unique keys make "every acknowledged write is present" checkable.
    pub insert_base: i64,
    /// Give up on an in-flight request after this long: the slot is freed
    /// (late replies are discarded by sequence number) and the request is
    /// re-enqueued like any retryable failure.
    pub request_timeout_us: u64,
    /// Retry budget per request. Retries are new arrivals — they queue at
    /// the tail and never block the arrival clock.
    pub max_retries: u32,
    /// Stop generating arrivals at this virtual time (0 = never). In-flight
    /// and queued requests still finish: the tail drains.
    pub stop_at_us: u64,
}

impl OpenLoopConfig {
    /// Defaults for everything but the arrival process; `first_session`
    /// and `middleware` are filled in by [`add_open_loop`].
    pub fn new(arrivals: ArrivalProcess) -> Self {
        OpenLoopConfig {
            first_session: 1,
            middleware: NodeId(0),
            arrivals,
            seed: 7,
            max_inflight: 64,
            queue_max: 256,
            write_permille: 200,
            read_keys: 100,
            table: "bench".to_string(),
            write_table: "bench".to_string(),
            insert_base: 1_000_000,
            request_timeout_us: 1_000_000,
            max_retries: 3,
            stop_at_us: 0,
        }
    }
}

/// Aggregated open-loop measurements. Per-second series are indexed by
/// virtual second (index 0 = `[0s, 1s)`), extended on demand.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopMetrics {
    /// Requests the arrival process generated (sheds included, retries not).
    pub arrivals: u64,
    /// Arrivals dropped because queue and in-flight bounds were both full —
    /// the overload signal a closed loop absorbs silently.
    pub shed: u64,
    /// Requests dispatched to the middleware (retries included).
    pub dispatched: u64,
    /// Requests that completed successfully.
    pub completed_ok: u64,
    /// Requests that failed terminally (non-retryable error, or the retry
    /// budget ran out).
    pub completed_err: u64,
    /// Retryable failures re-enqueued as fresh arrivals.
    pub retries_enqueued: u64,
    /// Requests whose retry budget ran out.
    pub retry_exhausted: u64,
    /// In-flight requests that hit `request_timeout_us`.
    pub timeouts: u64,
    /// Largest queue depth ever observed.
    pub queue_peak: usize,
    /// Arrival → final-outcome latency (queue and retries included).
    pub sojourn: Histogram,
    /// Arrival → dispatch wait (zero when a slot was free on arrival).
    pub queue_wait: Histogram,
    /// Dispatch → reply (per attempt).
    pub service: Histogram,
    /// Completions per virtual second (successes only).
    pub per_sec_completed: Vec<u64>,
    pub per_sec_arrivals: Vec<u64>,
    pub per_sec_shed: Vec<u64>,
    /// Per-second sojourn histograms of successful completions, for
    /// windowed p99s (dip depth / p99 inflation around a management op).
    pub per_sec_sojourn: Vec<Histogram>,
    /// Keys of acknowledged-committed inserts: the zero-committed-loss
    /// check is "every one of these exists on every surviving replica".
    pub acked_insert_keys: Vec<i64>,
    /// Queue-wait spans as [`Stage::QueueWait`] (driver-side sink).
    pub trace: TraceSink,
}

impl OpenLoopMetrics {
    /// Successful completions per second over `[from_s, to_s)`.
    pub fn completed_in(&self, from_s: usize, to_s: usize) -> u64 {
        self.per_sec_completed
            .iter()
            .skip(from_s)
            .take(to_s.saturating_sub(from_s))
            .sum()
    }

    /// Sojourn quantile over the window `[from_s, to_s)` (0 if empty).
    pub fn window_quantile_us(&self, from_s: usize, to_s: usize, q: f64) -> u64 {
        let mut h = Histogram::new();
        for hist in self.per_sec_sojourn.iter().skip(from_s).take(to_s.saturating_sub(from_s)) {
            h.merge(hist);
        }
        h.quantile_us(q)
    }
}

/// One open-loop request as it moves arrival → queue → slot → outcome.
#[derive(Debug, Clone, Copy)]
struct OlRequest {
    /// Original arrival time — retries keep it, so sojourn is honest.
    arrived_us: u64,
    retries_left: u32,
    /// `Some(key)` = INSERT of that key; `None` = point read.
    write_key: Option<i64>,
    /// Read key (ignored for writes).
    read_key: usize,
}

#[derive(Debug, Clone, Copy)]
struct OlPending {
    req: OlRequest,
    sent_us: u64,
}

/// One in-flight slot: a session the driver reuses sequentially.
#[derive(Debug, Clone)]
struct OlSlot {
    session: u64,
    stmt_seq: u64,
    busy: Option<OlPending>,
    /// The in-flight attempt's request guard, cancelled when it settles.
    guard: Option<TimerId>,
}

/// The arrival clock's timer; slot `i`'s request guard is tagged `1 + i`.
const TAG_ARRIVAL: u64 = 0;

pub struct OpenLoopDriver {
    cfg: OpenLoopConfig,
    rng: DetRng,
    slots: Vec<OlSlot>,
    queue: VecDeque<OlRequest>,
    next_arrival_id: u64,
    next_write: i64,
    pub metrics: OpenLoopMetrics,
}

impl OpenLoopDriver {
    pub fn new(cfg: OpenLoopConfig) -> Self {
        let slots = (0..cfg.max_inflight.max(1))
            .map(|i| OlSlot {
                session: cfg.first_session + i as u64,
                stmt_seq: 0,
                busy: None,
                guard: None,
            })
            .collect();
        let rng = DetRng::seed_from_u64(cfg.seed);
        let next_write = cfg.insert_base;
        OpenLoopDriver {
            cfg,
            rng,
            slots,
            queue: VecDeque::new(),
            next_arrival_id: 0,
            next_write,
            metrics: OpenLoopMetrics::default(),
        }
    }

    fn bump(series: &mut Vec<u64>, sec: usize) {
        if series.len() <= sec {
            series.resize(sec + 1, 0);
        }
        series[sec] += 1;
    }

    /// Admit, queue, or shed one arrival (fresh or re-enqueued retry).
    fn offer(&mut self, ctx: &mut Ctx<'_, Msg>, req: OlRequest) {
        let now = ctx.now().micros();
        if let Some(slot_idx) = self.slots.iter().position(|s| s.busy.is_none()) {
            self.dispatch(ctx, slot_idx, req);
        } else if self.queue.len() < self.cfg.queue_max {
            self.queue.push_back(req);
            self.metrics.queue_peak = self.metrics.queue_peak.max(self.queue.len());
        } else {
            self.metrics.shed += 1;
            Self::bump(&mut self.metrics.per_sec_shed, (now / 1_000_000) as usize);
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, slot_idx: usize, req: OlRequest) {
        let now = ctx.now().micros();
        let wait = now - req.arrived_us;
        self.metrics.queue_wait.record(wait);
        self.metrics.trace.record_detached(Stage::QueueWait, req.arrived_us, now);
        let sql = match req.write_key {
            Some(k) => format!("INSERT INTO {} VALUES ({k}, 1)", self.cfg.write_table),
            None => format!("SELECT v FROM {} WHERE k = {}", self.cfg.table, req.read_key),
        };
        let slot = &mut self.slots[slot_idx];
        slot.stmt_seq += 1;
        slot.busy = Some(OlPending { req, sent_us: now });
        let request = ClientRequest {
            session: SessionId(slot.session),
            stmt_seq: slot.stmt_seq,
            trace: 0,
            sql,
        };
        self.metrics.dispatched += 1;
        ctx.send(self.cfg.middleware, Msg::Request(request));
        slot.guard = Some(ctx.set_timer(self.cfg.request_timeout_us, 1 + slot_idx as u64));
    }

    /// The slot's attempt ended (reply or timeout). Settle the outcome,
    /// free the slot, and pull the next queued request into it.
    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>, slot_idx: usize, outcome: Outcome) {
        let now = ctx.now().micros();
        let slot = &mut self.slots[slot_idx];
        let pending = slot.busy.take().expect("settle on idle slot");
        if let Some(guard) = slot.guard.take() {
            ctx.cancel_timer(guard);
        }
        self.metrics.service.record(now - pending.sent_us);
        match outcome {
            Outcome::Ok => {
                self.metrics.completed_ok += 1;
                let sojourn = now - pending.req.arrived_us;
                self.metrics.sojourn.record(sojourn);
                let sec = (now / 1_000_000) as usize;
                Self::bump(&mut self.metrics.per_sec_completed, sec);
                if self.metrics.per_sec_sojourn.len() <= sec {
                    self.metrics.per_sec_sojourn.resize_with(sec + 1, Histogram::new);
                }
                self.metrics.per_sec_sojourn[sec].record(sojourn);
                if let Some(k) = pending.req.write_key {
                    self.metrics.acked_insert_keys.push(k);
                }
            }
            Outcome::Retryable => {
                if pending.req.retries_left > 0 {
                    let mut req = pending.req;
                    req.retries_left -= 1;
                    self.metrics.retries_enqueued += 1;
                    // A retry is a fresh arrival at the tail: it contends
                    // with real arrivals for the queue bound and can be
                    // shed like one. The arrival clock never waits for it.
                    self.offer(ctx, req);
                } else {
                    self.metrics.retry_exhausted += 1;
                    self.metrics.completed_err += 1;
                    self.metrics.sojourn.record(now - pending.req.arrived_us);
                }
            }
            Outcome::Fatal => {
                self.metrics.completed_err += 1;
                self.metrics.sojourn.record(now - pending.req.arrived_us);
            }
        }
        // The freed slot immediately serves the queue head.
        if self.slots[slot_idx].busy.is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.dispatch(ctx, slot_idx, next);
            }
        }
    }

    fn on_arrival_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now().micros();
        // Generate this arrival.
        let id = self.next_arrival_id;
        self.next_arrival_id += 1;
        self.metrics.arrivals += 1;
        Self::bump(&mut self.metrics.per_sec_arrivals, (now / 1_000_000) as usize);
        // Deterministic mix: the arrival counter decides read vs write (no
        // RNG draw, so the arrival clock's stream stays pure arrivals).
        let write = (id.wrapping_mul(1_000_003) % 1_000) < u64::from(self.cfg.write_permille);
        let req = OlRequest {
            arrived_us: now,
            retries_left: self.cfg.max_retries,
            write_key: if write {
                let k = self.next_write;
                self.next_write += 1;
                Some(k)
            } else {
                None
            },
            read_key: (id.wrapping_mul(1_000_003) / 1_000) as usize
                % self.cfg.read_keys.max(1),
        };
        self.offer(ctx, req);
        // Arm the next arrival (absolute time: no cumulative drift).
        if self.cfg.stop_at_us == 0 || now < self.cfg.stop_at_us {
            let at = self.cfg.arrivals.next_arrival_us(now, &mut self.rng);
            if self.cfg.stop_at_us == 0 || at < self.cfg.stop_at_us {
                ctx.set_timer_at(SimTime(at), TAG_ARRIVAL);
            }
        }
    }
}

enum Outcome {
    Ok,
    Retryable,
    Fatal,
}

impl Actor<Msg> for OpenLoopDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let at = self.cfg.arrivals.next_arrival_us(ctx.now().micros(), &mut self.rng);
        if self.cfg.stop_at_us == 0 || at < self.cfg.stop_at_us {
            ctx.set_timer_at(SimTime(at), TAG_ARRIVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Reply(reply) = msg else { return };
        let first = self.cfg.first_session;
        let idx = reply.session.0.wrapping_sub(first) as usize;
        if idx >= self.slots.len() {
            return;
        }
        if self.slots[idx].stmt_seq != reply.stmt_seq || self.slots[idx].busy.is_none() {
            return; // stale: a timed-out attempt answered late
        }
        let outcome = match reply.result {
            Ok(ReplyBody::Rows(_) | ReplyBody::Affected(_) | ReplyBody::Ack) => Outcome::Ok,
            Err(ref e) if e.is_retryable() => Outcome::Retryable,
            Err(_) => Outcome::Fatal,
        };
        self.settle(ctx, idx, outcome);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == TAG_ARRIVAL {
            self.on_arrival_tick(ctx);
            return;
        }
        let slot_idx = (tag - 1) as usize;
        if self.slots[slot_idx].busy.is_some() {
            // Request-timeout guard fired with the attempt outstanding.
            self.metrics.timeouts += 1;
            self.settle(ctx, slot_idx, Outcome::Retryable);
        }
    }
}

/// Attach an open-loop driver to a built cluster; requests go to
/// `cluster.mw_nodes[mw]`, and the driver's session-id block is reserved
/// from the cluster's allocator so later clients cannot collide. Returns
/// the driver's node id.
pub fn add_open_loop(cluster: &mut Cluster, mw: usize, mut cfg: OpenLoopConfig) -> NodeId {
    cfg.middleware = cluster.mw_nodes[mw];
    cfg.first_session = cluster.alloc_sessions(cfg.max_inflight.max(1));
    cluster.sim.add_node(OpenLoopDriver::new(cfg))
}

/// Snapshot an attached driver's metrics.
pub fn open_loop_metrics(cluster: &mut Cluster, node: NodeId) -> OpenLoopMetrics {
    cluster.sim.with_actor::<OpenLoopDriver, _>(node, |d| d.metrics.clone())
}

/// End the sessions a finished driver holds open (the middleware keeps
/// per-session state until told otherwise — the session-leak lesson).
pub fn end_open_loop_sessions(cluster: &mut Cluster, mw: usize, driver: NodeId) {
    let (first, slots) = cluster
        .sim
        .with_actor::<OpenLoopDriver, _>(driver, |d| (d.cfg.first_session, d.slots.len()));
    let at = cluster.sim.now() + 1;
    let node = cluster.mw_nodes[mw];
    for i in 0..slots {
        cluster.sim.inject(
            at,
            node,
            Msg::Admin(AdminCmd::EndSession { session: SessionId(first + i as u64) }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close_and_deterministic() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 500.0 };
        let mut rng = DetRng::seed_from_u64(11);
        let mut t = 0u64;
        let mut n = 0u64;
        while t < 20_000_000 {
            t = p.next_arrival_us(t, &mut rng);
            n += 1;
        }
        let rate = n as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "measured {rate}/s, wanted ~500/s");
        // Same seed, same stream.
        let mut rng2 = DetRng::seed_from_u64(11);
        let mut t2 = 0u64;
        for _ in 0..100 {
            t2 = p.next_arrival_us(t2, &mut rng2);
        }
        let mut rng3 = DetRng::seed_from_u64(11);
        let mut t3 = 0u64;
        for _ in 0..100 {
            t3 = p.next_arrival_us(t3, &mut rng3);
        }
        assert_eq!(t2, t3);
    }

    #[test]
    fn diurnal_rate_swings_between_base_and_peak() {
        let d = ArrivalProcess::Diurnal {
            base_per_sec: 100.0,
            peak_per_sec: 900.0,
            period_us: 10_000_000,
        };
        assert!((d.rate_at(0) - 100.0).abs() < 1e-6, "trough at phase 0");
        assert!((d.rate_at(5_000_000) - 900.0).abs() < 1e-6, "peak at half period");
        // Thinned arrivals: trough seconds see far fewer than peak seconds.
        let mut rng = DetRng::seed_from_u64(3);
        let mut per_sec = [0u64; 10];
        let mut t = 0u64;
        loop {
            t = d.next_arrival_us(t, &mut rng);
            if t >= 10_000_000 {
                break;
            }
            per_sec[(t / 1_000_000) as usize] += 1;
        }
        let trough = per_sec[0] + per_sec[9];
        let peak = per_sec[4] + per_sec[5];
        assert!(
            peak > trough * 3,
            "diurnal envelope not visible: trough {trough}, peak {peak}"
        );
    }

    #[test]
    fn window_quantile_merges_per_second_histograms() {
        let mut m = OpenLoopMetrics::default();
        m.per_sec_sojourn.resize_with(3, Histogram::new);
        m.per_sec_sojourn[0].record(100);
        m.per_sec_sojourn[1].record(1_000);
        m.per_sec_sojourn[2].record(10_000);
        assert!(m.window_quantile_us(0, 3, 0.99) >= 1_000);
        assert_eq!(m.window_quantile_us(3, 3, 0.99), 0);
        m.per_sec_completed = vec![5, 7, 9];
        assert_eq!(m.completed_in(0, 2), 12);
        assert_eq!(m.completed_in(1, 3), 16);
    }
}
