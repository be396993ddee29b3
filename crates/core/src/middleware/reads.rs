//! Read routing: one router for every mode, policy and placement, and the
//! queue of reads parked until a fresh-enough replica exists.

use std::collections::BTreeMap;

use replimid_simnet::{Ctx, TimerId};
use replimid_sql::ast::Statement;

use super::{raise, Current, CurrentKind, Middleware, Mode, Pending, ReadPolicy, TIMER_FRESH_BASE};
use crate::balancer::Granularity;
use crate::msg::{BackendId, ClientRequest, DbOp, Msg, PlanExec, ReplyError, SessionId};
use crate::trace::Stage;

/// [`ReadPolicy::Fresh`] and its relatives: how long a read may park
/// waiting for a fresh-enough replica before the wait-or-primary fallback
/// serves it (master-slave: the master, which is always fresh;
/// multi-master: the most caught-up candidate). Bounds read latency under
/// replication lag without giving up freshness in the common case.
const FRESHNESS_WAIT_MAX_US: u64 = 20_000;

/// One client read on its way to a backend: dispatched at once, or parked
/// in the wait queue until a replica catches up to `needs` (or the wait
/// deadline fires).
#[derive(Debug, Clone)]
pub(super) struct ReadReq {
    session: SessionId,
    stmt_seq: u64,
    plan: PlanExec,
    /// Table groups the statement reads: only their common hosts serve it.
    gset: Vec<usize>,
    /// (group, position) pairs a replica must have applied to serve it.
    needs: Vec<(usize, u64)>,
}

/// A parked read and its wait-or-primary deadline.
#[derive(Debug)]
struct Waiter {
    req: ReadReq,
    deadline: TimerId,
}

/// The reads seam's state: reads parked for a fresh-enough replica
/// ([`ReadPolicy::Fresh`] and its relatives), keyed by waiter id. Ids rise
/// in park order and the map is ordered, so drains run FIFO and
/// deterministically. A waiter's deadline timer is cancelled when the
/// waiter leaves, so only the deadlines of parked reads stay queued.
#[derive(Debug, Default)]
pub(super) struct Reads {
    waiters: BTreeMap<u64, Waiter>,
    next: u64,
}

impl Reads {
    /// Park `r` with a deadline `wait_us` from now, tagged
    /// `TIMER_FRESH_BASE + id`; returns the waiter id.
    fn park(&mut self, ctx: &mut Ctx<'_, Msg>, r: ReadReq, wait_us: u64) -> u64 {
        let id = self.next;
        self.next += 1;
        let deadline = ctx.set_timer(wait_us, TIMER_FRESH_BASE + id);
        self.waiters.insert(id, Waiter { req: r, deadline });
        id
    }

    /// The parked waiters' ids, in park order.
    fn ids(&self) -> Vec<u64> {
        self.waiters.keys().copied().collect()
    }

    fn get(&self, id: u64) -> Option<&ReadReq> {
        self.waiters.get(&id).map(|w| &w.req)
    }

    /// Unpark waiter `id` and cancel its deadline (a no-op when the
    /// deadline is what fired). `None` once it is gone: released, or
    /// dropped with its session.
    fn release(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) -> Option<ReadReq> {
        let w = self.waiters.remove(&id)?;
        ctx.cancel_timer(w.deadline);
        Some(w.req)
    }

    /// Drop every read `session` has parked, and cancel their deadlines.
    pub(super) fn end_session(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        self.waiters.retain(|_, w| {
            let keep = w.req.session != session;
            if !keep {
                ctx.cancel_timer(w.deadline);
            }
            keep
        });
    }

    pub(super) fn len(&self) -> usize {
        self.waiters.len()
    }
}

impl Middleware {
    /// The position `b` has applied in group `g`, in the space session
    /// floors ([`super::Sess::gstamps`]) live in: the group's ordered stream
    /// (certified writesets, or in group 0 ordered statements), and in
    /// master-slave mode the master's binlog LSN space (the master itself
    /// is fresh by definition).
    fn applied_pos(&self, b: BackendId, g: usize) -> u64 {
        match self.cfg.mode {
            Mode::MasterSlave { .. } if b == self.ship.master => u64::MAX,
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
    pub(super) fn read_needs(&self, session: SessionId, gset: &[usize]) -> Vec<(usize, u64)> {
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
    pub(super) fn can_serve(&self, b: BackendId, gset: &[usize], needs: &[(usize, u64)]) -> bool {
        self.backends[b.0].online() && self.shards.hosts_all(b, gset) && self.has_applied(b, needs)
    }

    /// The read-eligibility rule every routing decision applies: a replica
    /// that can serve the read and is not quarantined.
    pub(super) fn eligible(&self, b: BackendId, gset: &[usize], needs: &[(usize, u64)]) -> bool {
        !self.is_quarantined(b) && self.can_serve(b, gset, needs)
    }

    /// The set reads over `gset` balance across and delegates are picked
    /// from: in-rotation hosts of every group, then quarantine-filtered —
    /// in that order, so "a slow answer beats no answer" still fires when
    /// every host is quarantined but some other backend is not. In
    /// master-slave mode reads prefer the slaves and fall back to (or
    /// include, with `read_master`) the master.
    pub(super) fn read_candidates(&self, gset: &[usize]) -> Vec<BackendId> {
        let mut candidates = if self.master_slave() {
            let read_master = matches!(self.cfg.mode, Mode::MasterSlave { read_master: true, .. });
            let mut slaves = self.slaves();
            if (slaves.is_empty() || read_master) && self.backends[self.ship.master.0].online() {
                slaves.push(self.ship.master);
            }
            slaves
        } else {
            self.healthy()
        };
        candidates.retain(|&b| self.shards.hosts_all(b, gset));
        self.filter_quarantined(candidates)
    }

    /// Route a client read: to the half-open probe or the session's pinned
    /// backend when one is eligible, else to a balanced pick among the
    /// candidates that have applied what the session must see; when none
    /// has, the read parks until one catches up (bounded by
    /// [`FRESHNESS_WAIT_MAX_US`]).
    pub(super) fn route_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: ClientRequest, stmt: &Statement, plan: PlanExec) {
        self.metrics.counters.reads += 1;
        let gset = self.shards.stmt_groups(stmt);
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
                .find(|&b| self.detect.watch[b.0].wants_probe() && self.can_serve(b, &r.gset, &r.needs));
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
            Some(self.ship.master).filter(|_| session_sticky && self.master_slave()),
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
        s.current = Some(Current { stmt_seq, kind: CurrentKind::Read });
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
        let op = self.send_db(ctx, backend, Pending::ClientExec { session }, move |op| {
            DbOp::Execute { op, conn: session.0, plan }
        });
        if is_probe {
            self.metrics.counters.quarantine_probes += 1;
            self.probe_sent(backend, op, now);
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
        self.reads.park(ctx, r, FRESHNESS_WAIT_MAX_US);
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
    pub(super) fn drain_fresh_waiters(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for id in self.reads.ids() {
            let Some(r) = self.reads.get(id) else { continue };
            if !self.still_parked(r) {
                self.reads.release(ctx, id);
                continue;
            }
            let candidates = self.read_candidates(&r.gset);
            let caught_up: Vec<bool> =
                candidates.iter().map(|&b| self.has_applied(b, &r.needs)).collect();
            let Some(b) = self.balancer.pick_fresh(&candidates, &caught_up) else { continue };
            let Some(r) = self.reads.release(ctx, id) else { continue };
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
    pub(super) fn fresh_wait_timed_out(&mut self, ctx: &mut Ctx<'_, Msg>, id: u64) {
        let Some(r) = self.reads.release(ctx, id) else { return };
        if !self.still_parked(&r) {
            return;
        }
        self.metrics.counters.freshness_wait_timeouts += 1;
        let fallback = if self.master_slave() {
            if !self.eligible(self.ship.master, &r.gset, &r.needs) {
                // The master is unreadable (quarantined, or mid-failover):
                // the most caught-up slave may still predate this session's
                // write, and a stale answer is the one thing this policy
                // must never give. Re-park — the read drains the moment a
                // slave catches up or the master comes back.
                self.park_read(ctx, r);
                return;
            }
            Some(self.ship.master)
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
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use replimid_simnet::{Actor, NetworkModel, NodeId, Sim};

    use super::*;

    fn read(session: u64, stmt_seq: u64) -> ReadReq {
        let plan = PlanExec::whole(Arc::new(Statement::Commit));
        ReadReq { session: SessionId(session), stmt_seq, plan, gset: vec![0], needs: vec![(0, 1)] }
    }

    fn parked(q: &Reads) -> Vec<(u64, u64)> {
        q.ids().into_iter().map(|id| q.get(id).map(|r| (r.session.0, r.stmt_seq)).unwrap_or_default()).collect()
    }

    /// Stands in for the middleware: runs `script` on its queue at
    /// start-up, and when a deadline fires records the waiter id and
    /// releases the waiter, as the middleware's deadline handler does.
    struct Harness {
        q: Reads,
        fired: Vec<u64>,
        script: fn(&mut Reads, &mut Ctx<'_, Msg>),
    }

    impl Actor<Msg> for Harness {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            (self.script)(&mut self.q, ctx);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
            let id = tag - TIMER_FRESH_BASE;
            self.fired.push(id);
            assert!(self.q.release(ctx, id).is_some(), "deadline of waiter {id} fired after it left");
        }
    }

    /// Run `script`, then every deadline it left queued: the queue
    /// afterwards and the waiter ids whose deadlines fired, in order.
    fn run(script: fn(&mut Reads, &mut Ctx<'_, Msg>)) -> (Reads, Vec<u64>) {
        let mut sim: Sim<Msg> = Sim::new(NetworkModel::lan(), 1);
        let n = sim.add_node(Harness { q: Reads::default(), fired: Vec::new(), script });
        sim.run_to_quiescence();
        sim.with_actor::<Harness, _>(n, |h| (std::mem::take(&mut h.q), h.fired.clone()))
    }

    #[test]
    fn waiters_drain_in_park_order() {
        run(|q, ctx| {
            let ids: Vec<u64> = [(3, 1), (1, 1), (2, 1), (1, 2)].map(|(s, n)| q.park(ctx, read(s, n), 10)).into();
            assert_eq!(ids, [0, 1, 2, 3]);
            assert_eq!(parked(q), [(3, 1), (1, 1), (2, 1), (1, 2)]);
            // Releasing one from the middle keeps the others' order, and a
            // later park queues behind them.
            assert_eq!(q.release(ctx, 1).map(|r| r.session), Some(SessionId(1)));
            assert_eq!(q.park(ctx, read(4, 1), 10), 4);
            assert_eq!(parked(q), [(3, 1), (2, 1), (1, 2), (4, 1)]);
        });
    }

    #[test]
    fn a_timed_out_waiter_is_gone_and_its_stale_deadline_is_harmless() {
        let (q, fired) = run(|q, ctx| {
            q.park(ctx, read(1, 1), 10);
            let second = q.park(ctx, read(2, 1), 20);
            // Released early, the second waiter takes its deadline with
            // it; releasing it again finds nothing.
            assert!(q.release(ctx, second).is_some());
            assert!(q.release(ctx, second).is_none());
            // Ids are never reused, so an old id cannot hit a newer read.
            assert_eq!(q.park(ctx, read(1, 2), 30), 2);
            assert!(q.release(ctx, second).is_none());
            assert_eq!(parked(q), [(1, 1), (1, 2)]);
        });
        // The first and third deadlines fire, each taking its waiter out of
        // the queue; nothing is left under any id.
        assert_eq!(fired, [0, 2]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn end_session_drops_the_sessions_waiters() {
        let (q, fired) = run(|q, ctx| {
            for (s, n) in [(1, 1), (2, 1), (1, 2), (3, 1)] {
                q.park(ctx, read(s, n), 10);
            }
            q.end_session(ctx, SessionId(1));
            assert_eq!(parked(q), [(2, 1), (3, 1)]);
            q.end_session(ctx, SessionId(9));
            assert_eq!(q.len(), 2);
        });
        // The dropped waiters' deadlines were cancelled with them.
        assert_eq!(fired, [1, 3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_released_waiters_deadline_never_fires() {
        let (_, fired) = run(|q, ctx| {
            for s in 1..=3 {
                q.park(ctx, read(s, 1), 10);
            }
            // Released the way `drain_fresh_waiters` releases a read a
            // replica caught up for.
            assert_eq!(q.release(ctx, 1).map(|r| r.session), Some(SessionId(2)));
        });
        assert_eq!(fired, [0, 2]);
    }
}
