//! The one load driver: an actor whose session *slots* run every load shape
//! of §5.1 — a closed-loop client, a fleet of up to 10⁶ closed-loop
//! sessions, an open loop whose requests arrive on their own clock. A slot
//! is a middleware session: its id, its `stmt_seq` (the dedup key of
//! §4.3.3), its one timer and the *unit* it runs. The shapes differ in the
//! `Arrival`, the `Retry` rule, the `Source` of statements and the
//! failover list; `client` and `fleet` hold their configs and metric
//! views, and the open loop's end this file. A reply counts only while its
//! slot awaits it, and every attempt ends in `Driver::settle`, the one
//! place outcomes are counted. Transactions and backoffs draw from the
//! simulator's RNG, open-loop arrival times from a private [`DetRng`].

use std::borrow::Cow;
use std::collections::VecDeque;

use replimid_det::DetRng;
use replimid_simnet::{Actor, Ctx, NodeId, SimTime, TimerId};

use crate::backoff::{self, BackoffConfig};
use crate::metrics::Histogram;
use crate::msg::{ClientRequest, Msg, ReplyBody, ReplyError, SessionId};
use crate::trace::{Stage, TraceId, TraceSink};

/// Produces the next transaction to run: SQL statements, with explicit
/// BEGIN/COMMIT for a multi-statement transaction (one statement runs in
/// autocommit).
pub trait TxSource {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String>;
}

/// When the next request arrives: the open-loop clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: exponential gaps drawn by inversion,
    /// one RNG draw per arrival.
    Poisson { rate_per_sec: f64 },
    /// Poisson with a sinusoidal diurnal envelope from `base_per_sec` (the
    /// trough, at time 0) to `peak_per_sec` over `period_us`, drawn by
    /// thinning against the peak rate (Lewis–Shedler).
    Diurnal { base_per_sec: f64, peak_per_sec: f64, period_us: u64 },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate (per second) at virtual time `t_us`.
    pub fn rate_at(&self, t_us: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal { base_per_sec, peak_per_sec, period_us } => {
                let phase = (t_us % period_us.max(1)) as f64 / period_us.max(1) as f64;
                let swing = 1.0 - (2.0 * std::f64::consts::PI * phase).cos();
                base_per_sec + (peak_per_sec - base_per_sec) * 0.5 * swing
            }
        }
    }

    /// The envelope's maximum rate (the thinning majorant).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Diurnal { base_per_sec, peak_per_sec, .. } => peak_per_sec.max(base_per_sec),
        }
    }

    /// Absolute virtual time of the next arrival strictly after `t_us`.
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

/// When a slot starts its next unit.
pub(crate) enum Arrival {
    /// Slot `i` starts its first unit at `first_us + i * ramp_us / slots`,
    /// each next one `think_us` after the last ended, until the driver is
    /// stopped or `tx_limit` units ended (0 = no limit).
    Closed { think_us: u64, first_us: u64, ramp_us: u64, tx_limit: u64 },
    /// Units arrive on `process` (drawn from `rng`) and wait for a free
    /// slot in a queue of at most `queue_max`, past which they are shed.
    /// No arrival is due at or after `stop_at_us` (0 = never).
    Open { process: ArrivalProcess, rng: DetRng, queue_max: usize, stop_at_us: u64, next_id: u64 },
}

/// Where a failed attempt goes.
#[derive(Clone, Copy)]
pub(crate) enum Retry {
    /// Roll the transaction back and retry a retryable one after a capped,
    /// jittered backoff (victims of one failure retrying at once re-create
    /// it); resend a timed-out statement to the next middleware likewise.
    InPlace { max_retries: u32 },
    /// End the attempt; offer a retryable failure (a timeout included)
    /// again like a fresh arrival.
    Requeue { max_retries: u32 },
}

/// What a unit sends.
pub(crate) enum Source {
    /// Transactions of a `TxSource`, each unit one trace.
    Tx(Box<dyn TxSource>),
    /// One statement on the slot's own key (see `FleetConfig`): a write sets
    /// `v` to the slot's next value, and a read checks RYW and monotonic
    /// reads against the slot's acked writes and earlier reads.
    SlotKeys { write_permille: u32, keys_per_table: usize, observer_every: usize },
    /// Arrival `n` alone decides: a read of a `bench` key below
    /// `read_keys`, or an insert of the next fresh key into `write_table`.
    Arrivals { write_permille: u32, read_keys: usize, write_table: String, next_insert: i64 },
}

/// What a slot's one timer means when it fires.
#[derive(Clone, Copy, Default)]
enum Wait {
    /// Start the slot's next unit.
    #[default]
    Start,
    /// The request guard: the outstanding statement's reply never came.
    Guard,
    Resend,
    Backoff,
}

enum Work {
    /// A transaction and the index of its outstanding statement.
    Tx { stmts: Vec<String>, index: usize },
    Read { key: usize },
    Update { key: usize, value: u64 },
    Insert { key: i64 },
}

/// One unit of work as it moves arrival → queue → slot → outcome.
struct Unit {
    /// Arrival, or the first attempt's start: sojourn runs from here.
    born_us: u64,
    started_us: u64,
    sent_us: u64,
    retries: u32,
    /// Consecutive timeouts of the outstanding statement.
    timeouts: u32,
    /// Trace id (0 = untraced).
    trace: u64,
    /// `Some(retry)` while the ROLLBACK of a failed transaction is out.
    rollback: Option<bool>,
    work: Work,
}

/// One session; a 10⁶-session fleet is 10⁶ of these.
#[derive(Default)]
struct Slot {
    session: u64,
    stmt_seq: u64,
    timer: Option<TimerId>,
    wait: Wait,
    unit: Option<Unit>,
    /// Slot keys: last value written, highest acked, highest read.
    written: u64,
    acked: u64,
    seen: u64,
}

/// Everything the driver measured, in the client's names where the shapes
/// share a concept: a unit that succeeded is `committed`, one that failed
/// for good `failed`, a failure that was retried `aborted`.
#[derive(Debug, Clone, Default)]
pub struct DriverMetrics {
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    /// Attempts whose request guard fired.
    pub timeouts: u64,
    /// Attempts started, retries included.
    pub dispatched: u64,
    /// Successful updates and inserts.
    pub writes: u64,
    pub ryw_violations: u64,
    pub monotonic_violations: u64,
    /// Open loop: arrivals (retries not), sheds, the deepest queue.
    pub arrivals: u64,
    pub shed: u64,
    pub queue_peak: usize,
    /// Send → reply per statement, ROLLBACKs excluded.
    pub stmt_latency: Histogram,
    /// Start → end of each successful attempt.
    pub tx_latency: Histogram,
    /// Birth → final outcome, ok or failed: queue and retries included.
    pub sojourn: Histogram,
    /// Arrival → dispatch of each open-loop attempt.
    pub queue_wait: Histogram,
    /// Send → reply of successful point reads and writes.
    pub read_latency: Histogram,
    pub write_latency: Histogram,
    /// Per virtual second: successes, arrivals, sheds, and the sojourns
    /// of successes.
    pub per_sec_committed: Vec<u64>,
    pub per_sec_arrivals: Vec<u64>,
    pub per_sec_shed: Vec<u64>,
    pub per_sec_sojourn: Vec<Histogram>,
    pub acked_insert_keys: Vec<i64>,
    pub last_error: Option<String>,
    /// A trace per transaction, retries included; queue waits detached.
    pub trace: TraceSink,
}

/// The entry of a per-second series for virtual time `now_us`.
fn at<T: Clone + Default>(series: &mut Vec<T>, now_us: u64) -> &mut T {
    let sec = (now_us / 1_000_000) as usize;
    if series.len() <= sec {
        series.resize(sec + 1, T::default());
    }
    &mut series[sec]
}

/// The open loop's arrival timer; slot `i`'s timer is tagged `1 + i`.
const TAG_ARRIVAL: u64 = 0;

enum Outcome {
    Ok(ReplyBody),
    Failed(ReplyError),
    TimedOut,
}

/// The load driver actor (`Client` names it too): one concrete type the
/// simulator's inspection API can downcast to.
pub struct Driver {
    first_session: u64,
    /// Middleware nodes in failover order; `mw_index` is the current one.
    middlewares: Vec<NodeId>,
    mw_index: usize,
    request_timeout_us: u64,
    arrival: Arrival,
    retry: Retry,
    source: Source,
    slots: Vec<Slot>,
    queue: VecDeque<Unit>,
    /// Traced units begun (the low bits of their trace ids).
    traced: u64,
    stopped: bool,
    pub metrics: DriverMetrics,
}

impl Driver {
    pub(crate) fn build(first_session: u64, sessions: usize, middlewares: Vec<NodeId>,
        request_timeout_us: u64, arrival: Arrival, retry: Retry, source: Source) -> Driver {
        let slots = (0..sessions as u64).map(|i| Slot { session: first_session + i, ..Slot::default() });
        let (slots, queue, metrics) = (slots.collect(), VecDeque::new(), DriverMetrics::default());
        Driver {
            first_session, middlewares, mw_index: 0, request_timeout_us, arrival, retry, source,
            slots, queue, traced: 0, stopped: false, metrics,
        }
    }

    /// End a measured window: finish the units in flight, start no other.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Arm slot `idx`'s one timer, cancelling the one before it.
    fn arm(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize, delay_us: u64, wait: Wait) {
        let slot = &mut self.slots[idx];
        if let Some(prev) = slot.timer.take() {
            ctx.cancel_timer(prev);
        }
        slot.timer = Some(ctx.set_timer(delay_us, 1 + idx as u64));
        slot.wait = wait;
    }

    /// Attribute the time since the unit's last trace event to `stage`.
    fn span(&mut self, idx: usize, stage: Stage, now_us: u64) {
        if let Some(Unit { trace: t @ 1.., .. }) = self.slots[idx].unit {
            self.metrics.trace.span(TraceId(t), stage, now_us);
        }
    }

    /// A new unit: the source's next transaction, or point statement `n`
    /// (the slot index in a closed loop, the arrival number in an open one).
    fn next_unit(&mut self, ctx: &mut Ctx<'_, Msg>, n: u64) -> Option<Unit> {
        let now = ctx.now().micros();
        let work = match &mut self.source {
            Source::Tx(source) => {
                let stmts = source.next_tx(ctx.rng());
                if stmts.is_empty() {
                    return None;
                }
                Work::Tx { stmts, index: 0 }
            }
            Source::SlotKeys { write_permille, observer_every, .. } => {
                let (idx, slot) = (n as usize, &mut self.slots[n as usize]);
                // The slot's ops so far are its stmt_seq.
                let mix = (slot.session.wrapping_mul(1_000_003) ^ slot.stmt_seq.wrapping_mul(97)) % 1_000;
                if *observer_every > 0 && idx > 0 && idx.is_multiple_of(*observer_every) {
                    Work::Read { key: idx - 1 }
                } else if (mix as u32) < *write_permille {
                    slot.written += 1;
                    Work::Update { key: idx, value: slot.written }
                } else {
                    Work::Read { key: idx }
                }
            }
            Source::Arrivals { write_permille, read_keys, next_insert, .. } => {
                let mix = n.wrapping_mul(1_000_003);
                if mix % 1_000 < u64::from(*write_permille) {
                    *next_insert += 1;
                    Work::Insert { key: *next_insert - 1 }
                } else {
                    Work::Read { key: (mix / 1_000) as usize % (*read_keys).max(1) }
                }
            }
        };
        let mut trace = 0;
        if let Work::Tx { .. } = work {
            // Unique and monotone per driver, as the sink's eviction needs.
            self.traced += 1;
            trace = (self.first_session << 24) | self.traced;
            self.metrics.trace.begin(TraceId(trace), now);
        }
        let (retries, timeouts, rollback) = (0, 0, None);
        Some(Unit { born_us: now, started_us: now, sent_us: now, retries, timeouts, trace, rollback, work })
    }

    /// Slot `idx`'s start timer fired: begin its next unit, if one is due.
    fn begin(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        let Arrival::Closed { tx_limit, .. } = self.arrival else { return };
        let limited = tx_limit > 0 && self.metrics.committed + self.metrics.failed >= tx_limit;
        if self.stopped || limited {
            return;
        }
        if let Some(unit) = self.next_unit(ctx, idx as u64) {
            self.dispatch(ctx, idx, unit);
        }
    }

    fn arrive(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Arrival::Open { next_id, .. } = &mut self.arrival else { return };
        let id = *next_id;
        *next_id += 1;
        self.metrics.arrivals += 1;
        *at(&mut self.metrics.per_sec_arrivals, ctx.now().micros()) += 1;
        if let Some(unit) = self.next_unit(ctx, id) {
            self.offer(ctx, unit);
        }
        self.schedule_arrival(ctx);
    }

    /// Arm the next arrival at its absolute time: no cumulative drift.
    fn schedule_arrival(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Arrival::Open { process, rng, stop_at_us, .. } = &mut self.arrival else { return };
        let at = process.next_arrival_us(ctx.now().micros(), rng);
        if *stop_at_us == 0 || at < *stop_at_us {
            ctx.set_timer_at(SimTime(at), TAG_ARRIVAL);
        }
    }

    /// Give `unit` the first free slot, else queue it, else shed it.
    fn offer(&mut self, ctx: &mut Ctx<'_, Msg>, unit: Unit) {
        let queue_max = if let Arrival::Open { queue_max, .. } = self.arrival { queue_max } else { 0 };
        if let Some(idx) = self.slots.iter().position(|s| s.unit.is_none()) {
            self.dispatch(ctx, idx, unit);
        } else if self.queue.len() < queue_max {
            self.queue.push_back(unit);
            self.metrics.queue_peak = self.metrics.queue_peak.max(self.queue.len());
        } else {
            self.metrics.shed += 1;
            *at(&mut self.metrics.per_sec_shed, ctx.now().micros()) += 1;
        }
    }

    /// Start an attempt of `unit` in slot `idx`, from its first statement.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize, mut unit: Unit) {
        let now = ctx.now().micros();
        if let Arrival::Open { .. } = self.arrival {
            self.metrics.queue_wait.record(now - unit.born_us);
            self.metrics.trace.record_detached(Stage::QueueWait, unit.born_us, now);
        }
        self.metrics.dispatched += 1;
        (unit.started_us, unit.rollback) = (now, None);
        if let Work::Tx { index, .. } = &mut unit.work {
            *index = 0;
        }
        self.slots[idx].unit = Some(unit);
        self.slots[idx].stmt_seq += 1;
        self.send(ctx, idx);
    }

    /// Send slot `idx`'s outstanding statement and arm its guard.
    fn send(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(unit) = &mut slot.unit else { return };
        unit.sent_us = ctx.now().micros();
        let (kpt, write_table) = match &self.source {
            Source::SlotKeys { keys_per_table, .. } => (*keys_per_table, "bench"),
            Source::Arrivals { write_table, .. } => (0, write_table.as_str()),
            Source::Tx(_) => (0, "bench"),
        };
        let table = |key: usize| match kpt {
            0 => (Cow::Borrowed("bench"), key),
            kpt => (Cow::Owned(format!("bench_{}", key / kpt)), key % kpt),
        };
        let sql = match (unit.rollback, &unit.work) {
            (Some(_), _) => "ROLLBACK".to_string(),
            (_, Work::Tx { stmts, index }) => stmts[*index].clone(),
            (_, Work::Read { key }) => {
                let (t, k) = table(*key);
                format!("SELECT v FROM {t} WHERE k = {k}")
            }
            (_, Work::Update { key, value }) => {
                let (t, k) = table(*key);
                format!("UPDATE {t} SET v = {value} WHERE k = {k}")
            }
            (_, Work::Insert { key }) => format!("INSERT INTO {write_table} VALUES ({key}, 1)"),
        };
        let session = SessionId(slot.session);
        let req = ClientRequest { session, stmt_seq: slot.stmt_seq, trace: unit.trace, sql };
        ctx.send(self.middlewares[self.mw_index % self.middlewares.len()], Msg::Request(req));
        self.arm(ctx, idx, self.request_timeout_us, Wait::Guard);
    }

    /// An accepted reply to slot `idx`'s outstanding statement.
    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize, result: Result<ReplyBody, ReplyError>) {
        let now = ctx.now().micros();
        let Some(unit) = &mut self.slots[idx].unit else { return };
        unit.timeouts = 0;
        if let Some(retry) = unit.rollback {
            // Rolled back (or the ROLLBACK failed: either way, move on).
            let retries = unit.retries;
            self.span(idx, Stage::Rollback, now);
            if retry {
                let delay = backoff::delay_us(BackoffConfig::client(), retries, ctx.rng());
                self.arm(ctx, idx, delay, Wait::Backoff);
            } else {
                self.end(ctx, idx);
            }
            return;
        }
        self.metrics.stmt_latency.record(now - unit.sent_us);
        let more = match &mut unit.work {
            Work::Tx { stmts, index } if result.is_ok() && *index + 1 < stmts.len() => {
                *index += 1;
                true
            }
            _ => false,
        };
        self.span(idx, Stage::ClientRtt, now);
        match result {
            _ if more => {
                self.slots[idx].stmt_seq += 1;
                self.send(ctx, idx);
            }
            Ok(body) => self.settle(ctx, idx, Outcome::Ok(body)),
            Err(e) => self.settle(ctx, idx, Outcome::Failed(e)),
        }
    }

    /// An attempt in slot `idx` ended: count its outcome — the only place
    /// one is counted — and move the unit on by the retry rule.
    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize, outcome: Outcome) {
        let now = ctx.now().micros();
        let (retryable, timed_out) = match outcome {
            Outcome::Ok(body) => {
                self.count_success(idx, body, now);
                return self.end(ctx, idx);
            }
            Outcome::Failed(e) => {
                self.metrics.last_error = Some(format!("{e:?}"));
                (e.is_retryable(), false)
            }
            Outcome::TimedOut => {
                self.metrics.timeouts += 1;
                (true, true)
            }
        };
        let m = &mut self.metrics;
        let slot = &mut self.slots[idx];
        let Some(unit) = &mut slot.unit else { return };
        let (Retry::InPlace { max_retries } | Retry::Requeue { max_retries }) = self.retry;
        let in_place = matches!(self.retry, Retry::InPlace { .. });
        if in_place && timed_out {
            // Fail over and resend the statement (the dedup key makes that
            // safe) after a jittered backoff, lest every client that timed
            // out on one dead node reach the survivor in lockstep. The wait
            // on the lost request is retry time.
            let attempt = unit.timeouts;
            unit.timeouts += 1;
            self.span(idx, Stage::Retry, now);
            self.mw_index += 1;
            let delay = backoff::delay_us(BackoffConfig::client(), attempt, ctx.rng());
            return self.arm(ctx, idx, delay, Wait::Resend);
        }
        let retry = retryable && unit.retries < max_retries;
        if retry {
            m.aborted += 1;
        } else {
            m.failed += 1;
            m.sojourn.record(now - unit.born_us);
        }
        if in_place {
            unit.rollback = Some(retry);
            slot.stmt_seq += 1;
            self.send(ctx, idx);
        } else if retry {
            // A retry contends with arrivals for a slot and the queue bound;
            // the arrival clock never waits for it.
            unit.retries += 1;
            if let Some(unit) = slot.unit.take() {
                self.offer(ctx, unit);
            }
            self.next(ctx, idx);
        } else {
            self.end(ctx, idx);
        }
    }

    /// Count a successful attempt of slot `idx`'s unit.
    fn count_success(&mut self, idx: usize, body: ReplyBody, now: u64) {
        let (m, slot) = (&mut self.metrics, &mut self.slots[idx]);
        let Some(unit) = &slot.unit else { return };
        m.committed += 1;
        *at(&mut m.per_sec_committed, now) += 1;
        m.tx_latency.record(now - unit.started_us);
        m.sojourn.record(now - unit.born_us);
        at(&mut m.per_sec_sojourn, now).record(now - unit.born_us);
        let service = now - unit.sent_us;
        if let Work::Update { .. } | Work::Insert { .. } = unit.work {
            m.writes += 1;
            m.write_latency.record(service);
        }
        match unit.work {
            Work::Tx { .. } => {}
            Work::Update { value, .. } => slot.acked = slot.acked.max(value),
            Work::Insert { key } => m.acked_insert_keys.push(key),
            Work::Read { key } => {
                m.read_latency.record(service);
                let (Source::SlotKeys { .. }, ReplyBody::Rows(rs)) = (&self.source, body) else { return };
                let seen = rs.rows.first().and_then(|r| r.first()).and_then(|v| v.as_int());
                let seen = seen.unwrap_or(0) as u64;
                m.ryw_violations += u64::from(seen < slot.acked);
                m.monotonic_violations += u64::from(seen < slot.seen);
                if seen < slot.acked.max(slot.seen) && crate::debug_on() {
                    eprintln!("[driver] stale read t={now} session={} key={key} seen={seen}", slot.session);
                }
                slot.seen = slot.seen.max(seen);
            }
        }
    }

    /// Slot `idx`'s unit is done: close its trace and free the slot.
    fn end(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        if let Some(Unit { trace: t @ 1.., .. }) = self.slots[idx].unit.take() {
            self.metrics.trace.end(TraceId(t), ctx.now().micros());
        }
        self.next(ctx, idx);
    }

    /// Slot `idx` is free unless a retry took it: start its think time, or
    /// serve the queue head.
    fn next(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize) {
        if self.slots[idx].unit.is_some() {
            return;
        }
        match self.arrival {
            Arrival::Closed { think_us, .. } => self.arm(ctx, idx, think_us.max(1), Wait::Start),
            Arrival::Open { .. } => {
                if let Some(unit) = self.queue.pop_front() {
                    self.dispatch(ctx, idx, unit);
                }
            }
        }
    }
}

impl Actor<Msg> for Driver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self.arrival {
            Arrival::Closed { first_us, ramp_us, .. } => {
                let n = self.slots.len().max(1) as u64;
                for i in 0..self.slots.len() {
                    self.arm(ctx, i, first_us + (i as u64).wrapping_mul(ramp_us) / n, Wait::Start);
                }
            }
            Arrival::Open { .. } => self.schedule_arrival(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Reply(reply) = msg else { return };
        let idx = reply.session.0.wrapping_sub(self.first_session) as usize;
        let Some(slot) = self.slots.get_mut(idx) else { return };
        // A late answer to a timed-out attempt, or a second copy of an
        // answer, finds the slot moved on.
        let awaited = matches!(slot.wait, Wait::Guard | Wait::Resend) && slot.unit.is_some();
        if slot.stmt_seq != reply.stmt_seq || !awaited {
            return;
        }
        if let Some(timer) = slot.timer.take() {
            ctx.cancel_timer(timer);
        }
        self.on_reply(ctx, idx, reply.result);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == TAG_ARRIVAL {
            return self.arrive(ctx);
        }
        let (idx, now) = ((tag - 1) as usize, ctx.now().micros());
        let Some(slot) = self.slots.get_mut(idx) else { return };
        slot.timer = None;
        let wait = slot.wait;
        match wait {
            Wait::Start => self.begin(ctx, idx),
            Wait::Guard => self.settle(ctx, idx, Outcome::TimedOut),
            Wait::Resend => {
                // The backed-off wait before the resend is retry time too.
                self.span(idx, Stage::Retry, now);
                self.send(ctx, idx);
            }
            Wait::Backoff => {
                self.span(idx, Stage::Backoff, now);
                if let Some(mut unit) = self.slots[idx].unit.take() {
                    unit.retries += 1;
                    self.dispatch(ctx, idx, unit);
                }
            }
        }
    }
}

// The open-loop shape (§5.1: real front-ends do not wait): requests arrive
// on a Poisson or diurnal clock whether or not the cluster keeps up, which a
// self-clocking closed loop hides; at most `max_inflight` are outstanding, a
// bounded queue absorbs bursts, and everything past it is shed and counted.

/// Writes insert fresh keys from here up, one per write arrival: unique
/// keys make "every acknowledged write is present" checkable.
const INSERT_BASE: i64 = 1_000_000;

#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// First of `max_inflight` session ids, one per slot, reused in turn.
    pub first_session: u64,
    /// The middleware every request goes to.
    pub middleware: NodeId,
    pub arrivals: ArrivalProcess,
    /// Private RNG seed for the arrival stream.
    pub seed: u64,
    /// Bounded admission: at most this many requests outstanding.
    pub max_inflight: usize,
    /// Bounded wait queue ahead of admission; arrivals (and re-enqueued
    /// retries) past this bound are shed and counted, never buffered.
    pub queue_max: usize,
    /// Writes per thousand arrivals; the rest are point reads.
    pub write_permille: u32,
    /// Reads pick keys `[0, read_keys)` of `bench` (the micro schema's).
    pub read_keys: usize,
    /// Table writes insert into (`bench`); a separate write-only table holds
    /// nothing but the run's inserts, for checks of which ones survived.
    pub write_table: String,
    /// Give up on an in-flight request after this long: the slot is freed
    /// and the request re-enqueued like any retryable failure.
    pub request_timeout_us: u64,
    /// Retry budget per request.
    pub max_retries: u32,
    /// Stop generating arrivals at this virtual time (0 = never); queued
    /// and in-flight requests still finish.
    pub stop_at_us: u64,
}

impl OpenLoopConfig {
    /// Defaults for everything but the arrival process; `first_session`
    /// and `middleware` are filled in by `add_open_loop`.
    pub fn new(arrivals: ArrivalProcess) -> Self {
        OpenLoopConfig {
            first_session: 1, middleware: NodeId(0), arrivals, seed: 7, max_inflight: 64,
            queue_max: 256, write_permille: 200, read_keys: 100, write_table: "bench".to_string(),
            request_timeout_us: 1_000_000, max_retries: 3, stop_at_us: 0,
        }
    }
}

/// Open-loop measurements, a view of its [`DriverMetrics`]; per-second
/// series are indexed by virtual second.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopMetrics {
    /// Requests the arrival process generated (sheds included, retries not).
    pub arrivals: u64,
    /// Arrivals dropped at a full queue: the overload a closed loop hides.
    pub shed: u64,
    /// Requests dispatched to the middleware (retries included).
    pub dispatched: u64,
    /// Requests that completed successfully.
    pub completed_ok: u64,
    /// Requests that failed for good (an error, or retries spent).
    pub completed_err: u64,
    /// Retryable failures re-enqueued as fresh arrivals.
    pub retries_enqueued: u64,
    /// In-flight requests that hit `request_timeout_us`.
    pub timeouts: u64,
    /// Largest queue depth ever observed.
    pub queue_peak: usize,
    /// Arrival → final-outcome latency (queue and retries included).
    pub sojourn: Histogram,
    /// Arrival → dispatch wait (zero when a slot was free on arrival).
    pub queue_wait: Histogram,
    /// Completions per virtual second (successes only).
    pub per_sec_completed: Vec<u64>,
    pub per_sec_arrivals: Vec<u64>,
    pub per_sec_shed: Vec<u64>,
    /// Sojourns of successes per second, for windowed p99s around an event.
    pub per_sec_sojourn: Vec<Histogram>,
    /// Acked inserts: "each exists on every surviving replica" is no loss.
    pub acked_insert_keys: Vec<i64>,
    /// Queue-wait spans as `Stage::QueueWait` (driver-side sink).
    pub trace: TraceSink,
}

impl From<&DriverMetrics> for OpenLoopMetrics {
    fn from(m: &DriverMetrics) -> Self {
        OpenLoopMetrics {
            arrivals: m.arrivals, shed: m.shed, dispatched: m.dispatched, timeouts: m.timeouts,
            completed_ok: m.committed, completed_err: m.failed, retries_enqueued: m.aborted,
            queue_peak: m.queue_peak, sojourn: m.sojourn.clone(), queue_wait: m.queue_wait.clone(),
            per_sec_completed: m.per_sec_committed.clone(), per_sec_arrivals: m.per_sec_arrivals.clone(),
            per_sec_shed: m.per_sec_shed.clone(), per_sec_sojourn: m.per_sec_sojourn.clone(),
            acked_insert_keys: m.acked_insert_keys.clone(), trace: m.trace.clone(),
        }
    }
}

impl OpenLoopMetrics {
    /// Successful completions per second over `[from_s, to_s)`.
    pub fn completed_in(&self, from_s: usize, to_s: usize) -> u64 {
        self.per_sec_completed.iter().skip(from_s).take(to_s.saturating_sub(from_s)).sum()
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

impl Driver {
    /// An open-loop driver: `max_inflight` slots fed by the arrival clock.
    pub fn open_loop(cfg: OpenLoopConfig) -> Driver {
        let (process, rng) = (cfg.arrivals, DetRng::seed_from_u64(cfg.seed));
        let (queue_max, stop_at_us) = (cfg.queue_max, cfg.stop_at_us);
        let arrival = Arrival::Open { process, rng, queue_max, stop_at_us, next_id: 0 };
        let (write_permille, read_keys, write_table) = (cfg.write_permille, cfg.read_keys, cfg.write_table);
        let source = Source::Arrivals { write_permille, read_keys, write_table, next_insert: INSERT_BASE };
        let (mw, timeout) = (vec![cfg.middleware], cfg.request_timeout_us);
        let retry = Retry::Requeue { max_retries: cfg.max_retries };
        Driver::build(cfg.first_session, cfg.max_inflight.max(1), mw, timeout, arrival, retry, source)
    }
}
