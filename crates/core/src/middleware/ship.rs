//! Master-slave replication: writes at the master, binlog shipping to the
//! slaves (1-safe on a timer, 2-safe inside the commit), the horizon the
//! master's binlog may be purged to, and promotion of the most caught-up
//! slave when the master goes (§2.2).

use std::collections::HashSet;

use replimid_simnet::Ctx;
use replimid_sql::ast::Statement;
use replimid_sql::{BinlogEntry, Lsn};

use super::{raise, BackendState, Current, CurrentKind, Middleware, Mode, Pending, TIMER_SHIP};
use crate::msg::{BackendId, ClientRequest, DbOp, DbResp, Msg, PlanExec, ReplyBody, ReplyError, SessionId};
use crate::trace::Stage;

/// The ship seam's state.
#[derive(Debug)]
pub(super) struct Ship {
    pub(super) master: BackendId,
    /// A 1-safe fetch is in flight at the master.
    pub(super) inflight: bool,
    /// Binlog horizon sent to the master with each ping: below every
    /// slave's applied LSN and every in-flight fetch's `after`, frozen
    /// while a slave resyncs (see [`Ship::advance_horizon`]).
    pub(super) horizon: Lsn,
    /// Slaves with a shipping batch in flight (no overlapping batches).
    pub(super) busy: HashSet<BackendId>,
}

impl Ship {
    pub(super) fn new() -> Self {
        Ship { master: BackendId(0), inflight: false, horizon: Lsn(0), busy: HashSet::new() }
    }

    /// Move the horizon up to the lowest position a reader can still ask
    /// for: `readers` are every online slave's applied LSN and the `after`
    /// of every fetch in flight (a fetch may arrive behind the next ping).
    /// Frozen while a slave resyncs: its dump baseline is the master's head
    /// when the dump is taken, which the other slaves may overtake before
    /// the restore lands; and kept when there is no reader (a returning
    /// slave resyncs too).
    fn advance_horizon(&mut self, resyncing: bool, readers: impl IntoIterator<Item = Lsn>) {
        if resyncing {
            return;
        }
        if let Some(h) = readers.into_iter().min() {
            self.horizon = h;
        }
    }
}

impl Middleware {
    pub(super) fn slaves(&self) -> Vec<BackendId> {
        self.healthy().into_iter().filter(|&b| b != self.ship.master).collect()
    }

    /// The lowest binlog LSN an online slave applied: where a fetch for
    /// all of them starts.
    fn min_slave_applied(&self) -> Lsn {
        self.slaves().iter().map(|b| self.backends[b.0].applied_lsn).min().unwrap_or(Lsn(0))
    }

    pub(super) fn ms_request(
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
        if let Some(e) = self.degraded_refusal() {
            self.reply(ctx, session, req.stmt_seq, Err(e));
            return;
        }
        let master = self.ship.master;
        if !self.backends[master.0].online() {
            self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Unavailable("master down".into())));
            return;
        }
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        match stmt {
            Statement::Begin { .. } => {
                s.in_tx = true;
                s.wrote_in_tx = false;
            }
            Statement::Commit | Statement::Rollback => s.in_tx = false,
            _ => {
                s.wrote_in_tx = true;
                s.last_write_backend = Some(master);
            }
        }
        s.current = Some(Current { stmt_seq: req.stmt_seq, kind: CurrentKind::MsWrite });
        if !stmt.is_read_only() {
            self.metrics.counters.writes += 1;
        }
        self.send_db(ctx, master, Pending::ClientExec { session }, move |op| {
            DbOp::Execute { op, conn: session.0, plan }
        });
    }

    /// Kick off 1-safe shipping (timer-driven).
    pub(super) fn ship_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Mode::MasterSlave { ship_interval_us, .. } = self.cfg.mode else { return };
        ctx.set_timer(ship_interval_us, TIMER_SHIP);
        if self.ship.inflight || !self.backends[self.ship.master.0].online() {
            return;
        }
        let min_applied = self.min_slave_applied();
        self.ship.inflight = true;
        if crate::debug_on() {
            eprintln!("[{}us] ship fetch after {min_applied:?}", ctx.now().micros());
        }
        let master = self.ship.master;
        self.send_db(ctx, master, Pending::ShipFetch { after: min_applied }, move |op| {
            DbOp::BinlogAfter { op, after: min_applied }
        });
    }

    pub(super) fn finish_ms_write(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, resp: DbResp) {
        let Mode::MasterSlave { two_safe, .. } = self.cfg.mode else { return };
        match resp {
            DbResp::ExecOk { body, commit, .. } => {
                let committed = commit.is_some();
                if committed {
                    self.metrics.counters.commits += 1;
                    self.backends[self.ship.master.0].applied_lsn =
                        commit.as_ref().map(|c| c.lsn).unwrap_or(Lsn(0));
                    // Freshness stamp: slaves are fresh for this session
                    // once their shipped-apply position reaches this LSN.
                    let lsn = commit.as_ref().map(|c| c.lsn.0).unwrap_or(0);
                    if let Some(s) = self.sessions.get_mut(session.0) {
                        raise(&mut s.gstamps, 0, lsn);
                    }
                }
                if two_safe && committed && !self.slaves().is_empty() {
                    // Fetch the unshipped tail and push it synchronously,
                    // holding the body to return after the slaves ack.
                    let Some(s) = self.sessions.get_mut(session.0) else { return };
                    s.current = Some(Current { stmt_seq, kind: CurrentKind::MsTwoSafe { remaining: 0 } });
                    s.cached = None;
                    s.cold().two_safe_body = Some(body);
                    let min_applied = self.min_slave_applied();
                    let master = self.ship.master;
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

    /// Ship binlog `entries` to slave `backend`, one batch in flight per
    /// slave; `session` is a 2-safe commit waiting on it.
    fn ship_to(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, entries: Vec<BinlogEntry>, session: Option<SessionId>) {
        let Mode::MasterSlave { use_writesets, parallel_apply, .. } = self.cfg.mode else { return };
        self.ship.busy.insert(backend);
        self.send_db(ctx, backend, Pending::ShipApply { session }, move |op| {
            DbOp::ApplyBinlog { op, entries, use_writesets, parallel_apply }
        });
    }

    pub(super) fn finish_two_safe_fetch(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, resp: DbResp) {
        if !self.master_slave() {
            return;
        }
        let DbResp::BinlogOut { entries, .. } = resp else { return };
        let slaves = self.slaves();
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let Some(stmt_seq) = s.current.as_ref().map(|c| c.stmt_seq) else { return };
        if slaves.is_empty() || entries.is_empty() {
            let body = s.cold.as_mut().and_then(|c| c.two_safe_body.take()).unwrap_or(ReplyBody::Ack);
            self.mw_span(session, stmt_seq, Stage::Fanout, ctx.now().micros());
            self.reply(ctx, session, stmt_seq, Ok(body));
            return;
        }
        let remaining = u32::try_from(slaves.len()).expect("fewer than 2^32 slaves");
        s.current = Some(Current { stmt_seq, kind: CurrentKind::MsTwoSafe { remaining } });
        for backend in slaves {
            let after = self.backends[backend.0].applied_lsn;
            let to_apply: Vec<_> = entries.iter().filter(|e| e.lsn > after).cloned().collect();
            if to_apply.is_empty() {
                self.finish_two_safe_part(ctx, session);
                continue;
            }
            self.ship_to(ctx, backend, to_apply, Some(session));
        }
    }

    pub(super) fn finish_two_safe_part(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let Some(Current { stmt_seq, kind: CurrentKind::MsTwoSafe { remaining } }) = &mut s.current else {
            return;
        };
        let stmt_seq = *stmt_seq;
        *remaining = remaining.saturating_sub(1);
        if *remaining > 0 {
            return;
        }
        let body = s.cold.as_mut().and_then(|c| c.two_safe_body.take()).unwrap_or(ReplyBody::Ack);
        // 2-safe shipping: commit → every slave confirmed the tail.
        self.mw_span(session, stmt_seq, Stage::Fanout, ctx.now().micros());
        self.reply(ctx, session, stmt_seq, Ok(body));
    }

    /// A slave answered a shipped batch.
    pub(super) fn finish_ship_apply(&mut self, ctx: &mut Ctx<'_, Msg>, backend: BackendId, session: Option<SessionId>, resp: DbResp) {
        self.ship.busy.remove(&backend);
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

    pub(super) fn finish_ship_fetch(&mut self, ctx: &mut Ctx<'_, Msg>, resp: DbResp) {
        if !self.master_slave() {
            return;
        }
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
        let now = ctx.now().micros();
        for backend in self.slaves() {
            let after = self.backends[backend.0].applied_lsn;
            self.metrics.lag_samples.push((now, head.0.saturating_sub(after.0)));
            let to_apply: Vec<_> = entries.iter().filter(|e| e.lsn > after).cloned().collect();
            if to_apply.is_empty() || self.ship.busy.contains(&backend) {
                continue;
            }
            self.ship_to(ctx, backend, to_apply, None);
        }
    }

    /// Master-slave: advance the master's binlog horizon (see
    /// [`Ship::advance_horizon`]).
    pub(super) fn advance_ship_horizon(&mut self) {
        if !self.master_slave() {
            return;
        }
        let master = self.ship.master;
        let resyncing = self
            .backends
            .iter()
            .enumerate()
            .any(|(i, b)| i != master.0 && b.state == BackendState::Resyncing);
        let fetches = self.ops.pending.values().filter_map(|(p, ..)| match p {
            Pending::ShipFetch { after } | Pending::TwoSafeFetch { after, .. } => Some(*after),
            _ => None,
        });
        let slaves = self.slaves().into_iter().map(|b| self.backends[b.0].applied_lsn);
        self.ship.advance_horizon(resyncing, slaves.chain(fetches));
    }

    /// Promote the most caught-up slave. Returns the 1-safe loss estimate
    /// (entries the dead master committed that the new master never saw).
    ///
    /// The other slaves' replication positions are expressed in the *dead*
    /// master's LSN space, which does not transfer to the new master (the
    /// real-world GTID problem): they are rebuilt with a full resync — the
    /// expensive failover aftermath §4.4.2 describes.
    pub(super) fn promote_new_master(&mut self, ctx: &mut Ctx<'_, Msg>) -> u64 {
        let best = self
            .slaves()
            .into_iter()
            .max_by_key(|b| self.backends[b.0].applied_lsn);
        let Some(new_master) = best else { return 0 };
        let master_head = self.backends[self.ship.master.0].applied_lsn;
        let lost = master_head.0.saturating_sub(self.backends[new_master.0].applied_lsn.0);
        self.ship.master = new_master;
        // The new master's own binlog is its authoritative position now,
        // and the old horizon lives in the dead master's LSN space.
        self.backends[new_master.0].applied_lsn = Lsn(0); // refreshed by next Pong
        self.ship.horizon = Lsn(0);
        for b in self.slaves() {
            if b != new_master {
                self.start_full_resync(ctx, b);
            }
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_horizon_is_the_lowest_reader() {
        let mut ship = Ship::new();
        // Slaves at 7 and 4, a fetch in flight after 5: the slave at 4 can
        // still ask for everything past it.
        ship.advance_horizon(false, [Lsn(7), Lsn(4), Lsn(5)]);
        assert_eq!(ship.horizon, Lsn(4));
        // An in-flight fetch behind every slave holds the horizon down.
        ship.advance_horizon(false, [Lsn(9), Lsn(8), Lsn(6)]);
        assert_eq!(ship.horizon, Lsn(6));
        // The fetch answered: only the slaves are left.
        ship.advance_horizon(false, [Lsn(9), Lsn(8)]);
        assert_eq!(ship.horizon, Lsn(8));
        // No slave online and no fetch in flight: kept, not reset.
        ship.advance_horizon(false, []);
        assert_eq!(ship.horizon, Lsn(8));
    }

    #[test]
    fn the_horizon_is_frozen_while_a_slave_resyncs() {
        let mut ship = Ship::new();
        ship.advance_horizon(false, [Lsn(3)]);
        // The resyncing slave's baseline is the master's head when its dump
        // is taken: the other slaves racing ahead must not purge past it.
        ship.advance_horizon(true, [Lsn(10), Lsn(12)]);
        assert_eq!(ship.horizon, Lsn(3));
        ship.advance_horizon(true, [Lsn(1)]);
        assert_eq!(ship.horizon, Lsn(3), "frozen both ways");
        // Back in rotation, the horizon moves again.
        ship.advance_horizon(false, [Lsn(10), Lsn(12)]);
        assert_eq!(ship.horizon, Lsn(10));
    }
}
