//! Failure detection and quarantine: one record per backend holding its
//! liveness clock, its latency health (`crate::health`), its half-open
//! probe in flight and its silence-gap history; the heartbeat and its
//! silence check (the fixed `heartbeat.timeout_us`, or with
//! `MwConfig::adaptive_detection` a threshold learned per backend with that
//! timeout as its floor); and what a backend's failure does to everything
//! in flight at it. Every health transition is appended here, once, to
//! `MwMetrics::quarantine_events`.

use replimid_simnet::Ctx;
use replimid_sql::Lsn;

use super::{BackendState, Middleware, Mode, Pending, TIMER_PING};
use crate::health::{AdaptiveThreshold, HealthEvent, HealthTracker};
use crate::msg::{BackendId, DbOp, Msg};

/// What the detection seam knows of one backend.
#[derive(Debug, Default)]
pub(super) struct Watch {
    /// When the backend last answered (µs); 0 until its first answer.
    last_heard_us: u64,
    /// Latency health (only consulted when `MwConfig::quarantine` is set).
    pub(super) health: HealthTracker,
    /// Op id of its half-open probe read in flight.
    probe: Option<u64>,
    /// Its silence gaps (only fed when `MwConfig::adaptive_detection` is
    /// set). It survives the backend's failure: the silence distribution is
    /// a property of the backend and its link, and wiping it on every flap
    /// would keep the detector permanently naive about a still-degraded
    /// node (evict/rejoin storms).
    silence: AdaptiveThreshold,
}

impl Watch {
    /// Due its one half-open probe read, and none is in flight.
    pub(super) fn wants_probe(&self) -> bool {
        self.health.probing() && self.probe.is_none()
    }

    /// Heard from once, and silent since for longer than `fixed_us`, or
    /// with `adaptive` than the threshold its gaps learned over that floor.
    fn silent(&self, now: u64, fixed_us: u64, adaptive: bool) -> bool {
        let timeout = if adaptive { self.silence.timeout_us(fixed_us) } else { fixed_us };
        self.last_heard_us > 0 && now.saturating_sub(self.last_heard_us) > timeout
    }
}

/// The detection seam's state: one [`Watch`] per backend.
pub(super) struct Detection {
    pub(super) watch: Vec<Watch>,
}

impl Detection {
    pub(super) fn new(backends: usize) -> Self {
        Detection { watch: (0..backends).map(|_| Watch::default()).collect() }
    }
}

impl Middleware {
    pub(super) fn is_quarantined(&self, b: BackendId) -> bool {
        self.cfg.quarantine.is_some() && self.detect.watch[b.0].health.quarantined()
    }

    /// Append backend `b`'s health transition, if it made one, to the
    /// event log.
    fn log_health(&mut self, now: u64, b: BackendId, ev: Option<HealthEvent>) {
        if let Some(ev) = ev {
            self.metrics.quarantine_events.push((now, b.0, ev));
        }
    }

    /// Candidates for read routing / delegate selection: quarantined
    /// backends are filtered out, but if that would empty the set we fall
    /// back to every online backend — a slow answer beats no answer.
    pub(super) fn filter_quarantined(&self, candidates: Vec<BackendId>) -> Vec<BackendId> {
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

    pub(super) fn routable(&self) -> Vec<BackendId> {
        self.filter_quarantined(self.healthy())
    }

    /// A client op at `backend` answered at `now`: the backend is alive,
    /// and with quarantine on its latency (dispatched at `started`) is
    /// scored against its health EWMA; the answer to its half-open probe
    /// resolves the half-open state instead.
    pub(super) fn note_completion(&mut self, now: u64, backend: BackendId, started: u64, op: u64) {
        self.touch_liveness(backend, now);
        if self.cfg.quarantine.is_none() {
            return;
        }
        let lat = now.saturating_sub(started);
        let w = &mut self.detect.watch[backend.0];
        let counters = &mut self.metrics.counters;
        let ev = if w.probe == Some(op) {
            w.probe = None;
            let ev = w.health.probe_completed(now, lat);
            counters.quarantine_rejoins += u64::from(ev == Some(HealthEvent::Rejoin));
            ev
        } else {
            let ev = w.health.on_completion(now, lat);
            counters.quarantine_trips += u64::from(ev.is_some());
            ev
        };
        self.log_health(now, backend, ev);
    }

    /// A live read went to `backend` as its half-open probe, op `op`.
    pub(super) fn probe_sent(&mut self, backend: BackendId, op: u64, now: u64) {
        let w = &mut self.detect.watch[backend.0];
        debug_assert!(w.wants_probe());
        w.probe = Some(op);
        self.log_health(now, backend, Some(HealthEvent::ProbeStart));
    }

    /// A backend left rotation: its latency history and any probe in
    /// flight are meaningless if it returns. Its silence gaps stay (see
    /// [`Watch::silence`]).
    pub(super) fn reset_health(&mut self, backend: BackendId, now: u64) {
        let w = &mut self.detect.watch[backend.0];
        w.probe = None;
        if self.cfg.quarantine.is_some() {
            let ev = w.health.reset();
            self.log_health(now, backend, ev);
        }
    }

    /// Refresh a backend's liveness clock. With adaptive detection on, the
    /// silence gap since its last answer feeds its learned threshold, so
    /// stretched-but-alive traffic (brownout, load) raises the timeout
    /// instead of tripping it.
    pub(super) fn touch_liveness(&mut self, backend: BackendId, now: u64) {
        let w = &mut self.detect.watch[backend.0];
        if self.cfg.adaptive_detection && w.last_heard_us > 0 && now > w.last_heard_us {
            w.silence.observe(now - w.last_heard_us);
        }
        w.last_heard_us = now;
    }

    pub(super) fn note_pong(
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
            let v = if backend == self.ship.master { head } else { applied_lsn };
            b.applied_lsn = b.applied_lsn.max(v);
        }
        if was_down {
            // The node is back: start the rejoin procedure (§4.4.2).
            self.start_rejoin(ctx, backend, now);
        }
    }

    pub(super) fn ping_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.cfg.heartbeat.interval_us, TIMER_PING);
        let now = ctx.now().micros();
        // Advance quarantine dwell timers (Quarantined -> half-open).
        if self.cfg.quarantine.is_some() {
            for i in 0..self.backends.len() {
                if self.backends[i].online() {
                    self.detect.watch[i].health.tick(now);
                }
            }
        }
        // Detect silent backends (per-backend threshold when adaptive).
        for i in 0..self.backends.len() {
            let b = BackendId(i);
            let silent = self.detect.watch[i].silent(now, self.cfg.heartbeat.timeout_us, self.cfg.adaptive_detection);
            if self.backends[i].online() && silent {
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
                Mode::MasterSlave { .. } if b == self.ship.master => Some(self.ship.horizon),
                // A slave's binlog is read by no one (after a failover the
                // other slaves rebuild from a dump of the new master), but
                // only what it holds now may go: once promoted, its new
                // commits wait for the next ping to learn their readers.
                Mode::MasterSlave { .. } => Some(Lsn(u64::MAX)),
                // Multi-master modes never read a backend's binlog.
                _ => None,
            };
            self.send_db(ctx, b, Pending::Ping, move |op| {
                DbOp::Ping { op, binlog_horizon }
            });
        }
    }

    pub(super) fn backend_failed(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
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
        self.abandon_rejoin(ctx, backend);
        if crate::debug_on() {
            eprintln!(
                "[{}us] backend_failed b{} from state {:?}",
                ctx.now().micros(),
                backend.0,
                self.backends[backend.0].state
            );
        }
        self.ship.busy.remove(&backend);
        let now = ctx.now().micros();
        if was_draining {
            self.finish_drain(backend, now);
        } else {
            self.backends[backend.0].state = BackendState::Down;
        }
        self.shards.checkpoint(backend);
        self.metrics.counters.failovers += 1;
        self.metrics.failover_times.push(now);
        self.reset_health(backend, now);

        // Fail in-flight ops against this backend, in dispatch (op id)
        // order: the replies below re-order downstream client retries.
        let stuck: Vec<u64> = self
            .ops
            .pending
            .iter()
            .filter(|(_, (p, pb, _))| *pb == backend && super::fails_with_backend(p))
            .map(|(&op, _)| op)
            .collect();
        for op in stuck {
            if let Some((p, _, started)) = self.take_op(op) {
                self.fail_inflight(ctx, p, backend, started);
            }
        }

        // Master-slave: promotion.
        if self.master_slave() && backend == self.ship.master {
            let lost = self.promote_new_master(ctx);
            self.metrics.counters.lost_transactions += lost;
        }
        // Sessions stuck to the failed backend lose their delegate.
        self.unstick(backend);
        self.update_degraded(ctx);
        // Failover changes the freshness picture (a promoted master is
        // fresh by definition): re-decide parked reads.
        self.drain_fresh_waiters(ctx);
    }
}
