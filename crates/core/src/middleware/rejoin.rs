//! Rejoin (§4.4.2): the one per-group recovery-log replay, its dump
//! fallback, the global barrier for the final hop, the log trimming that
//! keeps every position a rejoin may still ask for, and the management
//! operations that take a backend out of rotation and bring it back.

use std::collections::HashMap;

use replimid_simnet::Ctx;
use replimid_sql::{Lsn, Watermark};

use super::{Backend, BackendState, Middleware, Pending};
use crate::msg::{ApplyEntry, BackendId, DbOp, DbResp, Msg};
use crate::recovery::{RecoveryLog, ReplayMode};

/// When a rejoining replica is within this many log entries of the head,
/// the middleware enacts the global barrier for the final hop (§4.4.2).
const BARRIER_THRESHOLD: u64 = 16;

/// The rejoin seam's state.
#[derive(Debug, Default)]
pub(super) struct Rejoin {
    /// Global barrier for a recovering replica's final catch-up hop:
    /// ordered deliveries buffer while it is set.
    pub(super) barrier_for: Option<BackendId>,
    /// Recovery start times (backend -> µs), for rejoin-duration metrics.
    started: HashMap<BackendId, u64>,
}

impl Backend {
    /// The lowest position of group `g`'s stream this backend's rejoin
    /// could still read after, given what it acknowledged there (`acked`)
    /// and the checkpoint the log holds for it. One rule for every
    /// multi-master mode and placement: the lower of what it acknowledged
    /// (or its checkpoint, once out of rotation) and the node's own
    /// position in `g`, and the replay cursor while it recovers. A backend
    /// that never reported a position pins 0.
    fn replay_floor(&self, g: usize, acked: u64, checkpoint: u64) -> u64 {
        let node = self.node_pos.get(g).copied().unwrap_or(0);
        let live = acked.min(node);
        match &self.state {
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
}

impl Middleware {
    /// [`Backend::replay_floor`] of `b` in group `g`: entries at or below
    /// it can go, and [`Self::start_log_recovery`] starts replay exactly
    /// here. Master-slave never reads the recovery log: a rejoin restores a
    /// dump of the master and ships from its binlog.
    fn replay_floor(&self, b: BackendId, g: usize) -> u64 {
        if self.master_slave() {
            return u64::MAX;
        }
        let checkpoint = self.shards.logs[g].checkpoint_of(b).unwrap_or(0);
        self.backends[b.0].replay_floor(g, self.shards.marks[b.0][g].value(), checkpoint)
    }

    /// Trim every recovery-log stream below the lowest replay floor of the
    /// backends hosting it: nothing a rejoin can still ask for goes.
    pub(super) fn trim_logs(&mut self) {
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

    /// A down backend answered again: start its rejoin.
    pub(super) fn start_rejoin(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, now: u64) {
        self.rejoin.started.insert(backend, now);
        if self.master_slave() {
            self.start_full_resync(ctx, backend);
        } else {
            self.start_log_recovery(ctx, backend);
        }
    }

    /// The backend left rotation mid-rejoin: release the barrier it held
    /// and forget when its recovery started.
    pub(super) fn abandon_rejoin(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if self.rejoin.barrier_for == Some(backend) {
            self.rejoin.barrier_for = None;
            self.drain_shard_buffer(ctx);
        }
        self.rejoin.started.remove(&backend);
    }

    /// The backend is online again: record how long its rejoin took.
    fn rejoined(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if let Some(start) = self.rejoin.started.remove(&backend) {
            self.metrics.recoveries.push((backend.0, start, ctx.now().micros()));
        }
        self.update_degraded(ctx);
    }

    /// Start a graceful drain (§4.4.1 planned maintenance). The backend
    /// leaves routing and replication fan-out immediately (`online()` is
    /// false for `Draining`), sticky sessions are re-routed on their next
    /// statement exactly as after a failure, but — unlike `backend_failed`
    /// — in-flight operations are left in `pending` to complete normally.
    /// Once none remain the backend parks in `Removed`.
    pub(super) fn drain_backend(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
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
        if self.master_slave() && backend == self.ship.master {
            let lost = self.promote_new_master(ctx);
            self.metrics.counters.lost_transactions += lost;
        }
        // Record the log checkpoints now: if the backend is later re-added,
        // the recovery log (or its truncation escalation) covers the gap.
        self.shards.checkpoint(backend);
        // Sessions stuck to the draining backend re-route on their next
        // statement (same semantics as after a failure — an idle in-tx
        // writeset session is told its delegate is lost and retries the
        // transaction elsewhere).
        self.unstick(backend);
        self.update_degraded(ctx);
        self.drain_fresh_waiters(ctx);
        self.try_finish_drains(ctx);
    }

    /// Complete any drain whose backend has no in-flight work left. Pings
    /// are excluded: they are perpetual (every heartbeat pings everyone)
    /// and their loss is harmless. Stuck non-ping ops cannot block a drain
    /// forever — `op_timed_out` fails the backend, which finalizes the
    /// drain through `backend_failed`'s was-draining path.
    pub(super) fn try_finish_drains(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for i in 0..self.backends.len() {
            if self.backends[i].state != BackendState::Draining {
                continue;
            }
            let b = BackendId(i);
            let busy = self
                .ops
                .pending
                .values()
                .any(|(p, pb, _)| *pb == b && !matches!(p, Pending::Ping) && super::fails_with_backend(p));
            if busy {
                continue;
            }
            let now = ctx.now().micros();
            let started = self.finish_drain(b, now);
            // Same post-removal hygiene as a failure: stale latency
            // history and probes are meaningless if it ever returns.
            self.reset_health(b, now);
            if crate::debug_on() {
                eprintln!("[{now}us] drain of b{i} complete after {}us", now - started);
            }
        }
    }

    /// Park a draining backend in `Removed` at `now`; when its drain
    /// started.
    pub(super) fn finish_drain(&mut self, backend: BackendId, now: u64) -> u64 {
        let b = &mut self.backends[backend.0];
        let started = std::mem::take(&mut b.drain_started_us);
        b.state = BackendState::Removed;
        self.metrics.counters.drains_completed += 1;
        self.metrics.drains.push((backend.0, started, now));
        started
    }

    /// Re-admit a `Removed` backend: mark it `Down` so its next pong takes
    /// the one rejoin (per-group recovery-log replay, falling back to a
    /// full resync when a stream has been truncated past its position).
    pub(super) fn add_backend(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if self.backends[backend.0].state != BackendState::Removed {
            return;
        }
        self.metrics.counters.backends_added += 1;
        self.backends[backend.0].state = BackendState::Down;
        if crate::debug_on() {
            eprintln!("[{}us] add_backend b{} -> Down (awaiting pong)", ctx.now().micros(), backend.0);
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
    pub(super) fn pump_recovery(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
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
            self.rejoined(ctx, backend);
            if self.rejoin.barrier_for == Some(backend) {
                self.rejoin.barrier_for = None;
                self.drain_shard_buffer(ctx);
            }
            return;
        }
        // Final hop: global barrier (live writes buffer until done). An
        // undecided cross-group transaction needs further deliveries to
        // decide, and replay cannot cross its reserved slot: arming the
        // barrier then would deadlock, so wait for the decision first.
        if remaining <= BARRIER_THRESHOLD
            && self.rejoin.barrier_for.is_none()
            && next.iter().all(|&(g, _)| self.shards.undecided_floor(g).is_none())
        {
            self.rejoin.barrier_for = Some(backend);
        }
        // Replay must not cross a prepared-but-undecided cross-group slot:
        // its logged payload may still be voided by an abort decision. Cap
        // each group's replay just below its lowest undecided position; the
        // decision re-pumps (see `deliver_certify`).
        let Some((g, n, cap)) = next.iter().find_map(|&(g, n)| {
            let head = self.shards.logs[g].head();
            let cap = self.shards.undecided_floor(g).map_or(head, |f| f - 1).min(head);
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
        // The live fan-out's op, from the node's cursor: the node skips
        // entries it already applied before the failure was declared
        // (idempotent replay), and runs each plan on its session's
        // connection.
        let entries: Vec<ApplyEntry> =
            batch.into_iter().map(|e| ApplyEntry { payload: e.payload, marks: vec![(g as u32, e.seq)] }).collect();
        let parallel = self.cfg.replay_mode == ReplayMode::Parallel;
        self.backends[backend.0].state = BackendState::Recovering { next, inflight: true };
        self.send_db(ctx, backend, Pending::RecoveryBatch { group: g, upto }, move |op| {
            DbOp::Apply { op, entries, parallel }
        });
    }

    pub(super) fn finish_recovery_batch(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, group: usize, upto: u64, resp: DbResp) {
        // The backend may have been re-failed while the batch was in flight.
        let BackendState::Recovering { next, inflight } = &mut self.backends[backend.0].state else {
            return;
        };
        match resp {
            DbResp::Applied { .. } => {
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

    /// The fallback rejoin: restore a dump of a donor and catch up from the
    /// positions it is consistent with. Master-slave: the master, and the
    /// slave ships from its binlog after. Multi-master: an online backend
    /// hosting every group the target hosts (one dump covers every table
    /// it replays), then per-group replay from the dump-time log heads.
    pub(super) fn start_full_resync(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId) {
        if crate::debug_on() {
            eprintln!("[{}us] start_full_resync b{}", ctx.now().micros(), backend.0);
        }
        let hosted = self.shards.hosted(backend.0);
        let source = if self.master_slave() {
            Some(self.ship.master).filter(|m| self.backends[m.0].online())
        } else {
            self.healthy().into_iter().find(|&b| b != backend && self.shards.hosts_all(b, &hosted))
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
        let undecided = hosted.iter().any(|&g| self.shards.undecided_floor(g).is_some_and(|f| f <= heads[g]));
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

    pub(super) fn finish_resync_dump(&mut self, ctx: &mut Ctx<'_, Msg>, target: BackendId, heads: Vec<u64>, resp: DbResp) {
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
            Pending::ResyncRestore { baseline: head, heads },
            move |op| DbOp::Restore { op, dump, baseline: head, ordered_baseline },
        );
    }

    pub(super) fn finish_resync_restore(
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
            self.rejoined(ctx, backend);
            return;
        }
        // Catch up from the recovery log, per group, starting at the
        // positions the dump is consistent with.
        let next: Vec<(usize, u64)> = self.shards.hosted(backend.0).into_iter().map(|g| (g, heads[g])).collect();
        for &(g, head) in &next {
            self.shards.marks[backend.0][g] = Watermark::at(head);
        }
        self.shards.checkpoint(backend);
        self.backends[backend.0].state = BackendState::Recovering { next, inflight: false };
        self.pump_recovery(ctx, backend);
    }
}
