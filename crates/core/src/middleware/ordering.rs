//! Ordering and group commit: the per-group sequencers and their commit
//! buffers, delivery of the ordered streams, and statement replication
//! (every ordered statement reaches each backend as a batch, of one
//! statement unless group commit filled it).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use replimid_gcs::{Action as GAction, GcsConfig, MemberId, ShardedMember};
use replimid_simnet::Ctx;
use replimid_sql::ast::Statement;
use replimid_sql::{SqlError, Watermark, Writeset};

use super::certification::XTx;
use super::{raise, Current, CurrentKind, Middleware, Pending, SHARD_BATCH_BASE, SHARD_TICK_BASE};
use crate::certifier::{Certifier, CertifierStats, Verdict};
use crate::msg::{
    ApplyEntry, BackendId, ClientReply, ClientRequest, DbOp, DbResp, EntryResult, Msg, PlanExec, ReplEvent,
    ReplyBody, ReplyError, SessionId,
};
use crate::partition::Placement;
use crate::recovery::{LogPayload, RecoveryLog};
use crate::rewrite::{prepare_for_broadcast, NondetPolicy, Prepared};
use crate::trace::Stage;

/// Per-group replication state. Group `g` has its own sequencer (`member`
/// shard `g`), certifier shard, recovery-log stream, and group-commit
/// buffer; backends advance one watermark per group. All of it is
/// deterministic from the per-group ordered streams, so every middleware
/// peer's copy agrees. Without a placement there is one group hosted by
/// every backend; its stream also carries the `Statement` and `SessionEnd`
/// events of statement and master-slave replication.
pub(super) struct Shards {
    pub(super) placement: Placement,
    pub(super) member: ShardedMember<ReplEvent>,
    pub(super) certs: Vec<Certifier>,
    pub(super) logs: Vec<RecoveryLog>,
    /// `marks[backend][group]`: the positions of the group's stream the
    /// backend has acknowledged, a contiguous prefix plus those above it.
    /// Writeset mode samples a transaction's certification start from its
    /// delegate's marks *when its BEGIN executes there* — the middleware's
    /// own certifier position would hide a writeset certified but not yet
    /// applied from the conflict window of a snapshot that cannot see it
    /// (a lost update).
    pub(super) marks: Vec<Vec<Watermark>>,
    /// Per group, positions voided since the group's last commit fan-out
    /// (aborted cross-group reservations). The next fan-out carries them
    /// to every host in rotation; a host out of rotation replays them.
    pub(super) voided: Vec<Vec<u64>>,
    /// Per-group group-commit buffers and armed deadline-timer flags.
    batches: Vec<Vec<ReplEvent>>,
    batch_armed: Vec<bool>,
    /// Undecided multi-group transactions keyed by (session, stmt_seq):
    /// votes collected between the first involved delivery and the
    /// decision.
    pub(super) xtx: HashMap<(u64, u64), XTx>,
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

/// Why a group-commit batch left the buffer.
#[derive(Debug, Clone, Copy)]
pub(super) enum FlushReason {
    Size,
    Deadline,
}

impl Shards {
    pub(super) fn new(placement: Placement, me: MemberId, peers: usize, gcs: GcsConfig, backends: usize) -> Self {
        let groups = placement.groups();
        let members: Vec<MemberId> = (0..peers).map(MemberId).collect();
        Shards {
            member: ShardedMember::new(me, members, gcs, 0, groups),
            certs: (0..groups).map(|_| Certifier::new()).collect(),
            logs: (0..groups).map(|_| RecoveryLog::new()).collect(),
            marks: (0..backends).map(|_| (0..groups).map(|_| Watermark::new()).collect()).collect(),
            voided: vec![Vec::new(); groups],
            batches: (0..groups).map(|_| Vec::new()).collect(),
            batch_armed: vec![false; groups],
            xtx: HashMap::new(),
            buffered: VecDeque::new(),
            placement,
        }
    }

    pub(super) fn groups(&self) -> usize {
        self.placement.groups()
    }

    /// Groups a backend hosts, ascending.
    pub(super) fn hosted(&self, backend: usize) -> Vec<usize> {
        (0..self.groups())
            .filter(|&g| self.placement.hosts(g).contains(&backend))
            .collect()
    }

    pub(super) fn hosts_all(&self, b: BackendId, gset: &[usize]) -> bool {
        gset.iter().all(|&g| self.placement.hosts(g).contains(&b.0))
    }

    /// Groups a statement touches (reads and writes), per the placement
    /// (see [`Placement::groups_of`]). With one group the answer needs no
    /// walk of the statement.
    pub(super) fn stmt_groups(&self, stmt: &Statement) -> Vec<usize> {
        if self.placement.groups() == 1 {
            return vec![0];
        }
        self.placement.groups_of(stmt)
    }

    /// Certification statistics summed across every shard (max_window is
    /// the max — windows are per-shard structures).
    pub(super) fn agg_stats(&self) -> CertifierStats {
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

    /// Certify `ws` on group `g`'s stream against the conflict window
    /// since `start_pos`, and log it at the group's next position if it
    /// commits (in writeset mode the log holds exactly the certified
    /// stream, so the log seq IS the certification position). `None` on
    /// an abort.
    pub(super) fn certify(
        &mut self,
        g: usize,
        start_pos: u64,
        ws: &Writeset,
        pk_map: &HashMap<(String, String), usize>,
    ) -> Option<u64> {
        let verdict =
            self.certs[g].certify(start_pos, ws, |db, t| pk_map.get(&(db.to_string(), t.to_string())).copied());
        (verdict == Verdict::Commit).then(|| self.logs[g].append(LogPayload::Ws(ws.clone())))
    }

    /// Lowest log position in group `g` reserved by a still-undecided
    /// cross-group transaction. `None` when every reserved slot is decided.
    pub(super) fn undecided_floor(&self, g: usize) -> Option<u64> {
        self.xtx
            .values()
            .flat_map(XTx::reserved)
            .filter(|&(gg, ..)| gg as usize == g)
            .map(|(_, pos, _)| pos)
            .min()
    }

    /// `backend` acknowledged the (group, position) pairs of `marks`.
    pub(super) fn credit(&mut self, backend: BackendId, marks: &[(u32, u64)]) {
        for &(g, pos) in marks {
            self.marks[backend.0][g as usize].mark(pos);
        }
    }

    /// Void position `pos` of group `g`: it is logged but nobody applies
    /// it (see [`RecoveryLog::void`]), so every backend's marks step over
    /// it.
    pub(super) fn void(&mut self, g: usize, pos: u64) {
        self.logs[g].void(pos);
        for marks in &mut self.marks {
            marks[g].mark(pos);
        }
    }

    /// Record `backend`'s recovery-log checkpoint in every group it hosts
    /// ("a checkpoint is inserted, pointing to the last update statement
    /// executed by the removed node", §4.4.2): what it acknowledged there.
    pub(super) fn checkpoint(&mut self, backend: BackendId) {
        for g in self.hosted(backend.0) {
            let applied = self.marks[backend.0][g].value();
            self.logs[g].checkpoint(backend, applied);
        }
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

impl ExecGroup {
    /// Count one backend's outcome in (`None`: it failed before answering);
    /// true if it differs from the first outcome.
    fn record(&mut self, result: Option<Result<ReplyBody, SqlError>>) -> bool {
        self.remaining = self.remaining.saturating_sub(1);
        match (&self.canonical, result) {
            (None, Some(r)) => {
                self.canonical = Some(r);
                false
            }
            (Some(c), Some(r)) => *c != r,
            _ => false,
        }
    }
}

/// The ordering seam's statement fan-outs in flight, by exec group id.
#[derive(Debug)]
pub(super) struct ExecGroups {
    groups: HashMap<u64, ExecGroup>,
    next: u64,
}

impl ExecGroups {
    pub(super) fn new() -> Self {
        ExecGroups { groups: HashMap::new(), next: 1 }
    }

    /// Open the fan-out of one statement to `remaining` backends.
    fn open(&mut self, session: SessionId, stmt_seq: u64, remaining: usize, origin: bool, log_seq: u64) -> u64 {
        let id = self.next;
        self.next += 1;
        self.groups.insert(id, ExecGroup { session, stmt_seq, remaining, canonical: None, origin, log_seq });
        id
    }
}

impl Middleware {
    // ------------------------------------------------------------------
    // Per-group sequencers, group commit, delivery
    // ------------------------------------------------------------------

    pub(super) fn run_shard_actions(&mut self, ctx: &mut Ctx<'_, Msg>, actions: Vec<(usize, GAction<ReplEvent>)>) {
        for (g, a) in actions {
            match a {
                GAction::Send { to, msg } => {
                    let node = self.peers[to.0];
                    ctx.send(node, Msg::GroupShard { group: g as u32, msg });
                }
                // The only timer a shard arms is its heartbeat tick: re-tag
                // it into the shard range so `on_timer` can route it back.
                GAction::SetTimer { delay_us, .. } => {
                    ctx.set_timer(delay_us, SHARD_TICK_BASE + g as u64);
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
    pub(super) fn shard_publish_write(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        match self.shards.admit(g, ev, self.cfg.batch_max) {
            Admit::Direct(ev) => self.shard_publish(ctx, g, ev),
            Admit::Full => self.flush_shard_batch(ctx, g, FlushReason::Size),
            Admit::Arm => {
                ctx.set_timer(self.cfg.batch_deadline_us, SHARD_BATCH_BASE + g as u64);
            }
            Admit::Held => {}
        }
    }

    /// Ship group `g`'s buffered batch as ONE total-order slot. The
    /// buffered admission order is preserved verbatim inside the `Batch`
    /// event.
    pub(super) fn flush_shard_batch(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, reason: FlushReason) {
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
                | ReplEvent::Certify { session, stmt_seq, .. } => (*session, *stmt_seq),
                _ => continue,
            };
            self.mw_span(session, stmt_seq, Stage::BatchWait, now);
        }
        self.shard_publish(ctx, g, ReplEvent::Batch { events });
    }

    /// Group `g`'s totally-ordered event arrives (identically at every
    /// peer). The recovery barrier buffers deliveries of every group.
    fn on_shard_delivery(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        if self.rejoin.barrier_for.is_some() {
            self.shards.buffered.push_back((g, ev));
            return;
        }
        self.apply_shard_delivery(ctx, g, ev);
    }

    fn apply_shard_delivery(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        match ev {
            ReplEvent::Statement { session, stmt_seq, ast } => {
                self.deliver_statement_batch(ctx, vec![(session, stmt_seq, ast)])
            }
            ReplEvent::Certify { session, stmt_seq, groups, start_pos, part } => {
                self.deliver_certify(ctx, g, session, stmt_seq, groups, start_pos, part)
            }
            ReplEvent::SessionEnd { session } => self.end_session(ctx, session),
            ReplEvent::Batch { events } => self.deliver_batch(ctx, g, events),
        }
    }

    /// A group-committed batch arrives (one total-order slot): session
    /// ends first, then the batch's statements fan out to each backend as
    /// ONE grouped message, then its certification requests one by one.
    /// Each class keeps the admission order recorded in the event vector.
    fn deliver_batch(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, events: Vec<ReplEvent>) {
        let mut stmts: Vec<(SessionId, u64, PlanExec)> = Vec::new();
        let mut certs: Vec<ReplEvent> = Vec::new();
        for ev in events {
            match ev {
                ReplEvent::Statement { session, stmt_seq, ast } => stmts.push((session, stmt_seq, ast)),
                ReplEvent::SessionEnd { session } => self.end_session(ctx, session),
                // Batches never nest (`Shards::admit` only buffers leaves).
                ReplEvent::Batch { .. } => {}
                ev @ ReplEvent::Certify { .. } => certs.push(ev),
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
    pub(super) fn drain_shard_buffer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while self.rejoin.barrier_for.is_none() {
            let Some((g, ev)) = self.shards.buffered.pop_front() else { break };
            self.apply_shard_delivery(ctx, g, ev);
        }
    }

    // ------------------------------------------------------------------
    // Multi-master, statement-based
    // ------------------------------------------------------------------

    pub(super) fn mm_statement_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: ClientRequest,
        stmt: &Statement,
        plan: PlanExec,
        nondet: NondetPolicy,
    ) {
        if stmt.is_read_only() && !matches!(stmt, Statement::Begin { .. } | Statement::Commit | Statement::Rollback) {
            self.route_read(ctx, req, stmt, plan);
            return;
        }
        if let Some(e) = self.minority_refusal().or_else(|| self.degraded_refusal()) {
            self.reply(ctx, req.session, req.stmt_seq, Err(e));
            return;
        }
        // Writes (and BEGIN/COMMIT/ROLLBACK, which shape snapshots) are
        // rewritten then totally ordered.
        self.metrics.counters.writes += 1;
        let rand_value = ctx.rng().gen::<f64>();
        let prepared = prepare_for_broadcast(stmt, nondet, ctx.now().micros() as i64, rand_value);
        let ast = match prepared {
            Ok(Prepared { rewritten: Some(stmt), .. }) => {
                self.metrics.counters.rewritten_statements += 1;
                // The rewrite changed the statement: the admission-time plan
                // no longer describes what ships. Carry the rewritten parse
                // whole instead.
                PlanExec::whole(Arc::new(stmt))
            }
            Ok(_) => plan,
            Err(rej) => {
                self.metrics.counters.rejected_statements += 1;
                self.reply(ctx, req.session, req.stmt_seq, Err(ReplyError::Rejected(rej.reason)));
                return;
            }
        };
        let Some(s) = self.sessions.get_mut(req.session.0) else { return };
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
        self.shard_publish_write(ctx, 0, ReplEvent::Statement { session: req.session, stmt_seq: req.stmt_seq, ast });
    }

    /// Ordered statements arrive, one or a group-committed batch: they take
    /// a dense recovery-log seq range (every peer logs identically, so
    /// positions agree), each as its plan on its session's connection, and
    /// each backend receives them as one `Apply` — one network round-trip
    /// and one parallel-grouped cost charge per backend per delivery, which
    /// is where group commit wins. A batch of one is charged exactly its
    /// statement's cost.
    fn deliver_statement_batch(&mut self, ctx: &mut Ctx<'_, Msg>, stmts: Vec<(SessionId, u64, PlanExec)>) {
        let now = ctx.now().micros();
        // Append the whole batch first: seqs are dense ([head+1 ..= head+n]).
        let mut entries: Vec<(SessionId, u64, u64, bool)> = Vec::with_capacity(stmts.len());
        let mut apply: Vec<ApplyEntry> = Vec::with_capacity(stmts.len());
        for (session, stmt_seq, ast) in stmts {
            let payload = LogPayload::Plan { conn: session.0, plan: ast };
            let log_seq = self.shards.logs[0].append(payload.clone());
            apply.push(ApplyEntry { payload, marks: vec![(0, log_seq)] });
            // A shadow session for non-origin peers.
            let origin = {
                let s = self.session(session, None);
                matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq)
            };
            if origin {
                // Publish (or flush) → self-delivery through the total order.
                self.mw_span(session, stmt_seq, Stage::Order, now);
            }
            entries.push((session, stmt_seq, log_seq, origin));
        }
        let targets = self.healthy();
        if targets.is_empty() {
            // Nobody executed them: void the log slots so recovery replay
            // does not resurrect transactions the clients were told failed.
            for (session, stmt_seq, log_seq, origin) in entries {
                self.shards.void(0, log_seq);
                if origin {
                    self.reply(ctx, session, stmt_seq, Err(ReplyError::Unavailable("no backend".into())));
                }
            }
            return;
        }
        // One exec group per statement — the reply/divergence bookkeeping is
        // per statement; only the transport is grouped.
        let mut groups: Vec<u64> = Vec::with_capacity(entries.len());
        for &(session, stmt_seq, log_seq, origin) in &entries {
            let group_id = self.exec.open(session, stmt_seq, targets.len(), origin, log_seq);
            if origin {
                if let Some(s) = self.sessions.get_mut(session.0) {
                    s.current = Some(Current { stmt_seq, kind: CurrentKind::ExecGroup });
                }
            }
            groups.push(group_id);
        }
        for backend in targets {
            let groups = groups.clone();
            let entries = apply.clone();
            self.send_db(ctx, backend, Pending::GroupExecBatch { groups }, move |op| {
                DbOp::Apply { op, entries, parallel: true }
            });
        }
    }

    /// One backend's answer to an ordered statements' `Apply`: it resolves
    /// every statement's exec group, in op order. Any other answer fails
    /// the whole batch at that backend.
    pub(super) fn finish_exec_batch(&mut self, ctx: &mut Ctx<'_, Msg>, groups: Vec<u64>, backend: BackendId, resp: DbResp) {
        let DbResp::Applied { results, .. } = resp else {
            for group in groups {
                self.finish_group_exec(ctx, group, backend, None);
            }
            return;
        };
        for (group, r) in groups.into_iter().zip(results) {
            self.finish_group_exec(ctx, group, backend, Some(r));
        }
    }

    /// One backend's outcome of one ordered statement;
    /// `None` when the backend failed before answering. The last outcome
    /// in answers the origin, or on a peer caches the reply for a client
    /// that fails over to it.
    pub(super) fn finish_group_exec(&mut self, ctx: &mut Ctx<'_, Msg>, group: u64, backend: BackendId, r: Option<EntryResult>) {
        let Some(g) = self.exec.groups.get_mut(&group) else { return };
        let result = match r {
            Some(EntryResult::Ok { body, commit, .. }) => {
                if commit.is_some() && g.origin {
                    self.metrics.counters.commits += 1;
                }
                Some(Ok(body))
            }
            Some(EntryResult::Err { err }) => Some(Err(err)),
            None => None,
        };
        if result.is_some() {
            // Record progress for recovery checkpoints.
            self.shards.marks[backend.0][0].mark(g.log_seq);
        }
        if g.record(result) {
            self.metrics.counters.divergence_detected += 1;
        }
        if g.remaining > 0 {
            return;
        }
        let Some(g) = self.exec.groups.remove(&group) else { return };
        if g.canonical.is_none() {
            // Every backend failed before executing: the entry must not
            // survive into recovery replay (see RecoveryLog::void).
            self.shards.void(0, g.log_seq);
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
        if result.is_ok() {
            // Freshness stamp: the write is applied up to this ordered
            // seq; later reads for the session require at least it.
            if let Some(sess) = self.sessions.get_mut(g.session.0) {
                raise(&mut sess.gstamps, 0, g.log_seq);
            }
        }
        if g.origin {
            // Delivery → slowest backend done.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
