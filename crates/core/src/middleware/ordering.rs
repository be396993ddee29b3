//! Ordering and group commit: the per-group sequencers and their commit
//! buffers, delivery of the ordered streams one total-order slot at a time,
//! statement replication, and the one fan-out per slot through which
//! ordered statements and certified commits reach each host as one `Apply`
//! and settle its answers.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use replimid_gcs::{Action as GAction, GcsConfig, MemberId, OrderProtocol, ShardedMember};
use replimid_simnet::Ctx;
use replimid_sql::ast::Statement;
use replimid_sql::{SqlError, TableName, Watermark, Writeset};

use super::certification::XTx;
use super::{raise, BackendState, Current, CurrentKind, Middleware, Mode, Pending, SHARD_BATCH_BASE, SHARD_TICK_BASE};
use crate::certifier::{Certifier, CertifierStats, Verdict};
use crate::msg::{
    ApplyEntry, BackendId, ClientRequest, DbOp, DbResp, EntryResult, Msg, PlanExec, ReplEvent,
    ReplyBody, ReplyError, SessionId,
};
use crate::partition::Placement;
use crate::recovery::{LogPayload, RecoveryLog};
use crate::rewrite::{prepare_for_broadcast, NondetPolicy, Prepared};
use crate::trace::Stage;

/// The group communication every middleware runs: LAN timings, and a
/// fixed sequencer ordering each group's stream.
const GCS: GcsConfig = GcsConfig::lan(OrderProtocol::FixedSequencer);

/// Per-group replication state. Group `g` has its own sequencer (`member`
/// shard `g`), certifier shard, recovery-log stream, and group-commit
/// buffer; backends advance one watermark per group. All of it is
/// deterministic from the per-group ordered streams, so every middleware
/// peer's copy agrees. Without a placement there is one group hosted by
/// every backend; its stream also carries the `Statement` and `SessionEnd`
/// events of statement and master-slave replication.
pub(super) struct Shards {
    pub(super) placement: Placement,
    pub(super) member: ShardedMember<Vec<ReplEvent>>,
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
    /// Per group, positions voided since the group's last certified commit
    /// (aborted cross-group reservations). The next commit's entries carry
    /// them to every host in rotation; a host out of rotation replays them.
    pub(super) voided: Vec<Vec<u64>>,
    /// Per-group group-commit buffers and armed deadline-timer flags.
    batches: Vec<Vec<ReplEvent>>,
    batch_armed: Vec<bool>,
    /// Undecided multi-group transactions keyed by (session, stmt_seq):
    /// votes collected between the first involved delivery and the
    /// decision.
    pub(super) xtx: HashMap<(u64, u64), XTx>,
    /// Slots delivered behind a recovery barrier, in arrival order.
    buffered: VecDeque<(usize, Vec<ReplEvent>)>,
}

/// What [`Shards::admit`] decided for one write-path event.
#[derive(Debug)]
enum Admit {
    /// Batching is off: the event is a total-order slot of its own.
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
    pub(super) fn new(placement: Placement, me: MemberId, peers: usize, backends: usize) -> Self {
        let groups = placement.groups();
        let members: Vec<MemberId> = (0..peers).map(MemberId).collect();
        Shards {
            member: ShardedMember::new(me, members, GCS, 0, groups),
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
        pk_map: &HashMap<TableName, usize>,
    ) -> Option<u64> {
        let verdict = self.certs[g].certify_by_table(start_pos, ws, |t| pk_map.get(t).copied());
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

/// One ordered unit at this middleware's backends: an ordered statement,
/// or a certified transaction this middleware originated. Both modes
/// settle their `Apply` answers through it.
#[derive(Debug)]
pub(super) struct Fanout {
    session: SessionId,
    stmt_seq: u64,
    /// This middleware answers the client; a peer caches the reply of a
    /// statement for a client that fails over to it.
    origin: bool,
    /// Hosts still to answer.
    remaining: usize,
    /// What every host must answer: an ordered statement's first answer,
    /// or a certified commit's `Ack`, preset because certification decided
    /// it before any host answered. An answer that differs is a divergence
    /// and credits nothing.
    canonical: Option<Result<ReplyBody, SqlError>>,
    /// A host answered with a commit; preset for a certified commit.
    committed: bool,
    /// The trace stage the last answer closes: `Execute` (delivery →
    /// slowest backend) or `Fanout` (certification → last replica).
    stage: Stage,
    /// An ordered statement's recovery-log position in group 0: voided if
    /// no host answers, and the session's read floor once one has. A
    /// certified commit raises its floors at its fan-out.
    slot: Option<u64>,
}

impl Fanout {
    fn statement(session: SessionId, stmt_seq: u64, origin: bool, slot: u64) -> Self {
        let stage = Stage::Execute;
        Fanout { session, stmt_seq, origin, remaining: 0, canonical: None, committed: false, stage, slot: Some(slot) }
    }

    pub(super) fn commit(session: SessionId, stmt_seq: u64) -> Self {
        let (canonical, stage) = (Some(Ok(ReplyBody::Ack)), Stage::Fanout);
        Fanout { session, stmt_seq, origin: true, remaining: 0, canonical, committed: true, stage, slot: None }
    }

    /// Count one host's answer in (`None`: it failed before answering,
    /// which is no divergence: it rejoins by replay). Whether the answer
    /// agrees with the canonical one, which an unset canonical takes.
    fn answer(&mut self, r: Option<EntryResult>) -> Option<bool> {
        self.remaining = self.remaining.saturating_sub(1);
        let r = match r? {
            EntryResult::Ok { body, commit } => {
                self.committed |= commit.is_some();
                Ok(body)
            }
            EntryResult::Err { err } => Err(err),
        };
        Some(match &self.canonical {
            Some(c) => *c == r,
            None => {
                self.canonical = Some(r);
                true
            }
        })
    }
}

/// One unit of a slot's fan-out: its record (`None`: a peer's certified
/// commit, which nothing here waits on) and its entry at each host.
pub(super) type Unit = (Option<Fanout>, Vec<(BackendId, ApplyEntry)>);

/// One entry of an `Apply` in flight: its unit's record id and the
/// (group, position) pairs the entry's answer credits.
#[derive(Debug)]
pub(super) struct ApplyPart {
    record: Option<u64>,
    marks: Vec<(u32, u64)>,
}

/// The ordered units in flight at this middleware's backends, by id.
#[derive(Debug)]
pub(super) struct Fanouts {
    records: HashMap<u64, Fanout>,
    next: u64,
}

impl Fanouts {
    pub(super) fn new() -> Self {
        Fanouts { records: HashMap::new(), next: 1 }
    }

    /// Whether an `Apply` of `parts` runs ordered statements, a client op
    /// whose answer feeds its backend's liveness and latency score. A
    /// certified commit's does not.
    pub(super) fn executes(&self, parts: &[ApplyPart]) -> bool {
        let record = parts.first().and_then(|p| p.record).and_then(|id| self.records.get(&id));
        record.is_some_and(|f| f.stage == Stage::Execute)
    }
}

impl Middleware {
    // ------------------------------------------------------------------
    // Per-group sequencers, group commit, delivery
    // ------------------------------------------------------------------

    pub(super) fn run_shard_actions(&mut self, ctx: &mut Ctx<'_, Msg>, actions: Vec<(usize, GAction<Vec<ReplEvent>>)>) {
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

    fn shard_publish(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, slot: Vec<ReplEvent>) {
        let actions = self.shards.member.publish(g, slot, ctx.now().micros());
        self.run_shard_actions(ctx, actions);
    }

    /// Route a write-path event through group `g`'s group-commit buffer
    /// (see [`Shards::admit`]).
    pub(super) fn shard_publish_write(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, ev: ReplEvent) {
        match self.shards.admit(g, ev, self.cfg.batch_max) {
            Admit::Direct(ev) => self.shard_publish(ctx, g, vec![ev]),
            Admit::Full => self.flush_shard_batch(ctx, g, FlushReason::Size),
            Admit::Arm => {
                ctx.set_timer(self.cfg.batch_deadline_us, SHARD_BATCH_BASE + g as u64);
            }
            Admit::Held => {}
        }
    }

    /// Ship group `g`'s buffered batch as ONE total-order slot, in
    /// admission order.
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
        self.shard_publish(ctx, g, events);
    }

    /// Group `g`'s total-order slot arrives (identically at every peer).
    /// The recovery barrier buffers the slots of every group.
    fn on_shard_delivery(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, slot: Vec<ReplEvent>) {
        if self.rejoin.barrier_for.is_some() {
            self.shards.buffered.push_back((g, slot));
            return;
        }
        self.deliver_slot(ctx, g, slot);
    }

    /// Drain slots buffered behind a (now released) barrier.
    pub(super) fn drain_shard_buffer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while self.rejoin.barrier_for.is_none() {
            let Some((g, slot)) = self.shards.buffered.pop_front() else { break };
            self.deliver_slot(ctx, g, slot);
        }
    }

    /// Run one total-order slot of group `g`, its events in slot order,
    /// except that sessions end last: each backend closes an ended
    /// session's connection behind the slot's other entries (ended first,
    /// the session's own statement or COMMIT in the same slot would run on
    /// a fresh connection with no transaction). An ordered statement takes
    /// group 0's next recovery-log position (every peer logs identically,
    /// so positions agree) and runs as its plan on its session's connection
    /// at every healthy backend. In statement mode a session's end is
    /// logged too, so a backend out of rotation when it ended closes on
    /// replay the transaction its replay of the session's plans opened. A
    /// certified transaction's part votes, and a commit that this part
    /// decided runs at its groups' hosts. Every
    /// statement and decided commit is one unit of the slot's one fan-out:
    /// each host gets one `Apply` of its entries, one network round-trip
    /// and one parallel-grouped cost charge per host per slot, which is
    /// where group commit wins. A slot of one statement is charged exactly
    /// that statement's cost.
    fn deliver_slot(&mut self, ctx: &mut Ctx<'_, Msg>, g: usize, events: Vec<ReplEvent>) {
        let now = ctx.now().micros();
        let mut records = Vec::with_capacity(events.len());
        let mut per_host: Vec<Vec<(usize, ApplyEntry)>> = vec![Vec::new(); self.backends.len()];
        let mut multi = false;
        let mut ended = Vec::new();
        for ev in events {
            let (record, entries) = match ev {
                ReplEvent::SessionEnd { session } => {
                    ended.push(session);
                    continue;
                }
                ReplEvent::Statement { session, stmt_seq, ast } => {
                    let payload = LogPayload::Plan { conn: session.0, plan: ast };
                    let log_seq = self.shards.logs[0].append(payload.clone());
                    // A shadow session for non-origin peers.
                    let s = self.session(session, None);
                    let origin = matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq);
                    if origin {
                        s.current = Some(Current { stmt_seq, kind: CurrentKind::Fanout });
                        // Publish (or flush) → self-delivery through the total order.
                        self.mw_span(session, stmt_seq, Stage::Order, now);
                    }
                    let entry = ApplyEntry { payload, marks: vec![(0, log_seq)] };
                    let entries = self.healthy().into_iter().map(|b| (b, entry.clone())).collect();
                    (Some(Fanout::statement(session, stmt_seq, origin, log_seq)), entries)
                }
                ReplEvent::Certify { session, stmt_seq, groups, start_pos, part } => {
                    let Some(xtx) = self.deliver_certify(now, g, session, stmt_seq, groups, start_pos, part) else {
                        continue;
                    };
                    multi |= xtx.multi();
                    let Some(unit) = self.decide(ctx, session, stmt_seq, xtx) else { continue };
                    unit
                }
            };
            for (b, entry) in entries {
                per_host[b.0].push((records.len(), entry));
            }
            records.push(record);
        }
        for &session in &ended {
            let payload = LogPayload::End { conn: session.0 };
            let marks = match self.cfg.mode {
                Mode::MultiMasterStatement { .. } => vec![(0, self.shards.logs[0].append(payload.clone()))],
                _ => Vec::new(),
            };
            let entry = ApplyEntry { payload, marks };
            for b in self.healthy() {
                per_host[b.0].push((records.len(), entry.clone()));
            }
            records.push(None);
        }
        let sends = per_host.into_iter().enumerate().filter(|(_, sent)| !sent.is_empty());
        self.fan_out(ctx, records, sends.map(|(b, sent)| (BackendId(b), sent)).collect());
        for &session in &ended {
            self.end_session(ctx, session);
        }
        if multi {
            // A decision over several groups may unblock a recovering
            // backend whose replay was capped below its reserved slot.
            let recovering: Vec<BackendId> = (0..self.backends.len())
                .filter(|&i| matches!(self.backends[i].state, BackendState::Recovering { .. }))
                .map(BackendId)
                .collect();
            for b in recovering {
                self.pump_recovery(ctx, b);
            }
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
            }
        }
        self.shard_publish_write(ctx, 0, ReplEvent::Statement { session: req.session, stmt_seq: req.stmt_seq, ast });
    }

    // ------------------------------------------------------------------
    // Fan-out: ordered units to the backends, and their answers
    // ------------------------------------------------------------------

    /// Send each host one `Apply` of its entries, and open the units'
    /// records over the hosts that got them. `records` are the units'
    /// records in unit order (`None`: a peer's certified commit, which
    /// nothing here waits on); `sends` are each host's entries in unit
    /// order, each with its unit's index. A unit no host got settles at
    /// once.
    pub(super) fn fan_out(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        records: Vec<Option<Fanout>>,
        sends: Vec<(BackendId, Vec<(usize, ApplyEntry)>)>,
    ) {
        let mut hosts = vec![0; records.len()];
        for (_, sent) in &sends {
            for &(unit, _) in sent {
                hosts[unit] += 1;
            }
        }
        let mut ids = Vec::with_capacity(records.len());
        for (record, &remaining) in records.into_iter().zip(&hosts) {
            ids.push(record.map(|f| {
                let id = self.fanouts.next;
                self.fanouts.next += 1;
                self.fanouts.records.insert(id, Fanout { remaining, ..f });
                id
            }));
        }
        for (backend, sent) in sends {
            let mut parts = Vec::with_capacity(sent.len());
            let mut entries = Vec::with_capacity(sent.len());
            for (unit, entry) in sent {
                parts.push(ApplyPart { record: ids[unit], marks: entry.marks.clone() });
                entries.push(entry);
            }
            self.send_db(ctx, backend, Pending::Apply { parts }, move |op| DbOp::Apply { op, entries, parallel: true });
        }
        for (id, remaining) in ids.into_iter().zip(hosts) {
            if let Some(f) = id.filter(|_| remaining == 0).and_then(|id| self.fanouts.records.remove(&id)) {
                self.settle(ctx, f);
            }
        }
    }

    /// One host's answer to an `Apply` of ordered units, `None` when it
    /// failed before answering. Each entry that agrees with its unit's
    /// canonical answer credits its marks at the host, and the last answer
    /// of a unit settles it. A writeset apply cannot wait on a local
    /// transaction (the engine wounds the holder, see
    /// [`replimid_sql::Engine::apply_writeset`]), so an `ApplyErr` means
    /// the host diverged: the certified transaction IS committed
    /// cluster-wide, and the host is dropped and rebuilt through the
    /// recovery log.
    pub(super) fn finish_apply(&mut self, ctx: &mut Ctx<'_, Msg>, parts: Vec<ApplyPart>, backend: BackendId, resp: Option<DbResp>) {
        let results = match resp {
            Some(DbResp::Applied { results, .. }) => results,
            Some(DbResp::ApplyErr { .. }) => {
                self.metrics.counters.divergence_detected += 1;
                if self.backends[backend.0].online() {
                    self.backend_failed(ctx, backend);
                    // A synthetic pong brings it straight back through
                    // recovery (the node itself is alive; only its state
                    // lagged). Its ordered positions are unknown here (no
                    // real pong was involved); u64::MAX defers to the
                    // middleware's own checkpoints, and the durable
                    // positions stay the last ones a real pong reported.
                    let b = &self.backends[backend.0];
                    let (lsn, durable) = (b.applied_lsn, b.node_pos.clone());
                    let unknown = vec![u64::MAX; self.shards.groups()];
                    self.note_pong(ctx, backend, lsn, lsn, unknown, durable);
                }
                Vec::new()
            }
            _ => Vec::new(),
        };
        let mut results = results.into_iter();
        for ApplyPart { record, marks } in parts {
            let r = results.next();
            let (agrees, done) = match record.and_then(|id| self.fanouts.records.get_mut(&id)) {
                Some(f) => (f.answer(r), f.remaining == 0),
                None => (r.map(|r| matches!(r, EntryResult::Ok { .. })), false),
            };
            match agrees {
                Some(true) => self.shards.credit(backend, &marks),
                Some(false) => self.metrics.counters.divergence_detected += 1,
                None => {}
            }
            if let Some(f) = record.filter(|_| done).and_then(|id| self.fanouts.records.remove(&id)) {
                self.settle(ctx, f);
            }
        }
    }

    /// A unit's last host answered, or it reached none. The origin answers
    /// its client if the client still waits on the unit; a peer caches a
    /// statement's successful reply, so a client that retries here after
    /// its home middleware died gets it instead of a re-execution
    /// (Sequoia-style transparent failover, §4.3.3).
    fn settle(&mut self, ctx: &mut Ctx<'_, Msg>, f: Fanout) {
        let Fanout { session, stmt_seq, origin, canonical, committed, stage, slot, .. } = f;
        if let (None, Some(slot)) = (&canonical, slot) {
            // No host executed it: the entry must not survive into
            // recovery replay (see RecoveryLog::void).
            self.shards.void(0, slot);
        }
        let result = match canonical {
            Some(Ok(body)) => Ok(body),
            Some(Err(e)) => {
                if origin && e.is_retryable() {
                    self.metrics.counters.aborts += 1;
                }
                Err(ReplyError::Sql(e))
            }
            None => Err(ReplyError::Unavailable("no backend executed it".into())),
        };
        if let (Ok(_), Some(slot), Some(sess)) = (&result, slot, self.sessions.get_mut(session.0)) {
            // Freshness stamp: later reads for the session require a
            // replica that applied the write.
            raise(&mut sess.gstamps, 0, slot);
        }
        if origin {
            // An open-loop client whose request timed out has moved on to
            // its next statement, under a new `stmt_seq`: leave that one
            // alone.
            let current = self.sessions.get(session.0).and_then(|s| s.current.as_ref());
            if current.is_some_and(|c| c.stmt_seq == stmt_seq) {
                self.metrics.counters.commits += u64::from(committed && result.is_ok());
                self.mw_span(session, stmt_seq, stage, ctx.now().micros());
                self.reply(ctx, session, stmt_seq, result);
            }
        } else if result.is_ok() {
            if let Some(sess) = self.sessions.get_mut(session.0).filter(|s| stmt_seq > s.last_replied) {
                sess.last_replied = stmt_seq;
                sess.cached = Some(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(groups: usize) -> Shards {
        let placement = Placement::new(vec![vec![0, 1]; groups]);
        Shards::new(placement, MemberId(0), 1, 2)
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
