//! Failure detection and quarantine: backend liveness (fixed or adaptive
//! silence thresholds), the heartbeat, latency health scoring with its
//! half-open probes, and what a backend's failure does to everything in
//! flight at it.

use std::collections::HashMap;

use replimid_gcs::{AdaptiveConfig, AdaptiveThreshold};
use replimid_simnet::Ctx;
use replimid_sql::Lsn;

use super::{BackendState, Middleware, Mode, Pending, TIMER_PING};
use crate::health::{HealthEvent, HealthTracker};
use crate::metrics::Counters;
use crate::msg::{BackendId, DbOp, Msg};

/// The detection seam's state, per backend.
pub(super) struct Detection {
    /// Latency health (only consulted when `MwConfig::quarantine` is set).
    pub(super) health: Vec<HealthTracker>,
    /// How many health events per backend are already mirrored to metrics.
    seen: Vec<usize>,
    /// Backend -> op id of its in-flight half-open probe read.
    probe_op: HashMap<BackendId, u64>,
    /// Learned silence thresholds (`MwConfig::adaptive_detection`; empty
    /// when off).
    adaptive: Vec<AdaptiveThreshold>,
}

impl Detection {
    pub(super) fn new(backends: usize, adaptive: Option<AdaptiveConfig>) -> Self {
        Detection {
            health: vec![HealthTracker::default(); backends],
            seen: vec![0; backends],
            probe_op: HashMap::new(),
            adaptive: adaptive.map_or_else(Vec::new, |ad| (0..backends).map(|_| AdaptiveThreshold::new(ad)).collect()),
        }
    }

    /// Append backend `i`'s health events not yet in `log`.
    fn sync_events(&mut self, i: usize, log: &mut Vec<(u64, usize, HealthEvent)>) {
        let events = self.health[i].events();
        for &(t, ev) in &events[self.seen[i]..] {
            log.push((t, i, ev));
        }
        self.seen[i] = events.len();
    }

    /// Score op `op`'s latency (dispatched at `started`, done at `now`)
    /// against the backend's health EWMA; the completion of its half-open
    /// probe resolves the half-open state instead.
    fn score(&mut self, now: u64, backend: BackendId, started: u64, op: u64, counters: &mut Counters) {
        let lat = now.saturating_sub(started);
        if self.probe_op.get(&backend) == Some(&op) {
            self.probe_op.remove(&backend);
            if self.health[backend.0].probe_completed(now, lat) {
                counters.quarantine_rejoins += 1;
            }
        } else if self.health[backend.0].on_completion(now, lat) {
            counters.quarantine_trips += 1;
        }
    }

    /// A live read went to `backend` as its half-open probe, op `op`.
    pub(super) fn probe_sent(&mut self, backend: BackendId, op: u64, now: u64) {
        self.health[backend.0].probe_sent(now);
        self.probe_op.insert(backend, op);
    }

    /// Feed the silence gap since `last` into the backend's learned
    /// threshold, when adaptive detection is on.
    fn observe_gap(&mut self, backend: BackendId, last: u64, now: u64) {
        if let Some(th) = self.adaptive.get_mut(backend.0) {
            let gap = now.saturating_sub(last);
            if last > 0 && gap > 0 {
                th.observe(gap);
            }
        }
    }

    /// The silence threshold applied to a backend: the learned adaptive one
    /// when enabled, `fixed` otherwise.
    fn silence_timeout_us(&self, backend: usize, fixed: u64) -> u64 {
        self.adaptive.get(backend).map(|t| t.timeout_us()).unwrap_or(fixed)
    }
}

impl Middleware {
    pub(super) fn is_quarantined(&self, b: BackendId) -> bool {
        self.cfg.quarantine.is_some() && self.detect.health[b.0].quarantined()
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

    /// Mirror new health-tracker events into the metrics log.
    pub(super) fn sync_health_events(&mut self, i: usize) {
        self.detect.sync_events(i, &mut self.metrics.quarantine_events);
    }

    /// A client op at `backend` answered at `now`: the backend is alive,
    /// and with quarantine on its latency is scored.
    pub(super) fn note_completion(&mut self, now: u64, backend: BackendId, started: u64, op: u64) {
        self.touch_liveness(backend, now);
        if self.cfg.quarantine.is_none() {
            return;
        }
        self.detect.score(now, backend, started, op, &mut self.metrics.counters);
        self.sync_health_events(backend.0);
    }

    /// A backend left rotation: its latency history and any probe in
    /// flight are meaningless if it returns. The adaptive gap history
    /// deliberately survives: the silence distribution is a property of
    /// the backend and its link, and wiping it on every flap would keep the
    /// detector permanently naive about a still-degraded node
    /// (evict/rejoin storms).
    pub(super) fn reset_health(&mut self, backend: BackendId, now: u64) {
        self.detect.probe_op.remove(&backend);
        if self.cfg.quarantine.is_some() {
            self.detect.health[backend.0].reset(now);
            self.sync_health_events(backend.0);
        }
    }

    /// Refresh a backend's liveness clock. With adaptive detection on, the
    /// observed silence gap feeds that backend's learned threshold, so
    /// stretched-but-alive traffic (brownout, load) raises the timeout
    /// instead of tripping it.
    pub(super) fn touch_liveness(&mut self, backend: BackendId, now: u64) {
        self.detect.observe_gap(backend, self.backends[backend.0].last_pong_us, now);
        self.backends[backend.0].last_pong_us = now;
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
                    self.detect.health[i].tick(now);
                }
            }
        }
        // Detect silent backends (per-backend threshold when adaptive).
        for i in 0..self.backends.len() {
            let b = BackendId(i);
            let silent = now.saturating_sub(self.backends[i].last_pong_us);
            let timeout = self.detect.silence_timeout_us(i, self.cfg.heartbeat.timeout_us);
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
