//! Writeset replication: statements at one delegate, certification of the
//! transaction's writeset in each involved group's total order, and each
//! commit's entries for its slot's fan-out. Every commit is a vote of the
//! groups it writes, which every peer computes identically; one group is a
//! quorum of one.

use replimid_simnet::Ctx;
use replimid_sql::ast::{IsolationLevel, Statement};
use replimid_sql::{SqlError, Writeset};

use super::ordering::{Fanout, Unit};
use super::{raise, Current, CurrentKind, Middleware, Pending};
use crate::msg::{
    ApplyEntry, BackendId, ClientRequest, DbOp, DbResp, Msg, PlanExec, ReplEvent, ReplyBody, ReplyError, SessionId,
};
use crate::recovery::LogPayload;
use crate::trace::Stage;

/// One transaction between its first part's delivery and the decision.
/// The vote for each involved group is that group's local certification
/// verdict at delivery time; yes-votes reserve their keys and log slot
/// immediately (in delivery order — reserving at decision time would
/// order the log by decision arrival, which differs across peers). The
/// decision is the AND of the votes, reached when the last involved
/// stream delivers locally: deterministic at every peer with no extra
/// wire round. Only a multi-group record outlives the delivery that made
/// it.
pub(super) struct XTx {
    /// One per involved group, in the (sorted) order of `Certify::groups`.
    votes: Vec<Vote>,
    /// Local arrival time of the first involved part (origin's Certify
    /// span end; first → decision is the CrossGroupWait window).
    first_us: u64,
}

/// One involved group's vote: `None` until its part is delivered, then the
/// log/certifier position it reserved (`None` for a no) and the part.
struct Vote {
    group: u32,
    cast: Option<(Option<u64>, Writeset)>,
}

impl XTx {
    fn new(groups: Vec<u32>, first_us: u64) -> Self {
        XTx { votes: groups.into_iter().map(|group| Vote { group, cast: None }).collect(), first_us }
    }

    /// Group `g`'s vote: the position it reserved, `None` for a no. True
    /// once every involved group has voted.
    fn vote(&mut self, g: usize, reserved: Option<u64>, part: Writeset) -> bool {
        let vote = self
            .votes
            .iter_mut()
            .find(|v| v.group as usize == g)
            .expect("group not involved in its own Certify");
        vote.cast = Some((reserved, part));
        self.votes.iter().all(|v| v.cast.is_some())
    }

    /// Whether the transaction writes several groups.
    pub(super) fn multi(&self) -> bool {
        self.votes.len() > 1
    }

    /// The (group, position, part) of every yes vote so far.
    pub(super) fn reserved(&self) -> impl Iterator<Item = (u32, u64, &Writeset)> {
        self.votes.iter().filter_map(|v| match &v.cast {
            Some((Some(pos), part)) => Some((v.group, *pos, part)),
            _ => None,
        })
    }
}

impl Middleware {
    pub(super) fn mm_writeset_request(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: ClientRequest,
        stmt: &Statement,
        plan: PlanExec,
    ) {
        let session = req.session;
        let write = !stmt.is_read_only();
        if let Some(e) = write.then(|| self.minority_refusal().or_else(|| self.degraded_refusal())).flatten() {
            self.reply(ctx, session, req.stmt_seq, Err(e));
            return;
        }
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        let (in_tx, delegate) = (s.in_tx, s.sticky);
        match stmt {
            Statement::Begin { isolation } => {
                // The delegate is chosen at the first statement, which shows
                // the table groups the transaction touches. BEGIN itself is
                // a middleware-side state change that remembers what the
                // client asked for.
                s.end_tx();
                s.in_tx = true;
                s.sticky = None;
                s.cold().begin = Some(*isolation);
                self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack));
            }
            Statement::Commit => {
                let Some(backend) = delegate.filter(|_| in_tx) else {
                    let lost = in_tx && s.wrote_in_tx;
                    s.end_tx();
                    if lost {
                        // The delegate holding the transaction's writes
                        // failed or was removed since its last statement.
                        self.metrics.counters.lost_transactions += 1;
                        self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Unavailable("delegate lost".into())));
                    } else {
                        // BEGIN; COMMIT with no statement between: nothing
                        // executed anywhere, nothing to certify.
                        self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack));
                    }
                    return;
                };
                if !s.wrote_in_tx {
                    // Read-only transaction: commit locally, no certification.
                    s.end_tx();
                    s.current = Some(Current { stmt_seq: req.stmt_seq, kind: CurrentKind::WsStmt { opened: false } });
                    self.send_db(ctx, backend, Pending::ClientExec { session }, move |op| {
                        DbOp::Execute { op, conn: session.0, plan: PlanExec::commit() }
                    });
                    return;
                }
                if s.cold.as_ref().is_some_and(|c| c.poisoned) {
                    self.rollback_at_delegate(ctx, session);
                    let aborted = SqlError::TransactionState("transaction is aborted; COMMIT rolled it back".into());
                    self.reply(ctx, session, req.stmt_seq, Err(ReplyError::Sql(aborted)));
                    return;
                }
                // The delegate returned every record with the statement
                // that wrote it: certify them without asking it again.
                let ws = s.cold.as_mut().map(|c| std::mem::take(&mut c.ws)).unwrap_or_default();
                self.pw_publish_prepare(ctx, session, req.stmt_seq, ws);
            }
            Statement::Rollback => {
                s.end_tx();
                s.current = Some(Current { stmt_seq: req.stmt_seq, kind: CurrentKind::WsStmt { opened: false } });
                match delegate {
                    Some(backend) if self.backends[backend.0].online() => {
                        self.send_db(ctx, backend, Pending::ClientExec { session }, move |op| {
                            DbOp::Execute { op, conn: session.0, plan: PlanExec::rollback() }
                        });
                    }
                    _ => self.reply(ctx, session, req.stmt_seq, Ok(ReplyBody::Ack)),
                }
            }
            _ if stmt.is_read_only() && !in_tx => {
                self.route_read(ctx, req, stmt, plan);
            }
            _ => {
                // Any other statement executes at the delegate. A write
                // outside BEGIN opens an implicit snapshot transaction that
                // certifies and commits as soon as it has executed.
                let write = !stmt.is_read_only();
                if write {
                    self.metrics.counters.writes += 1;
                }
                let begin = if in_tx { s.begin() } else { Some(Some(IsolationLevel::SnapshotIsolation)) };
                let gset = self.shards.stmt_groups(stmt);
                // The statement that opens the transaction picks the delegate
                // among the hosts of every group it touches (the delegate
                // executes all of the transaction's statements locally).
                let backend = match (begin, delegate) {
                    (Some(_), _) => {
                        let candidates = self.read_candidates(&gset);
                        self.balancer.pick(&candidates).ok_or_else(|| {
                            ReplyError::Unavailable("no delegate hosts all involved groups".into())
                        })
                    }
                    (None, Some(b)) if self.shards.hosts_all(b, &gset) => Ok(b),
                    (None, Some(_)) => {
                        // Documented limitation: a later statement cannot
                        // widen the group set beyond what the delegate,
                        // picked from the first one, hosts.
                        self.metrics.counters.rejected_statements += 1;
                        Err(ReplyError::Rejected(
                            "statement touches a table group the transaction's delegate does not host".into(),
                        ))
                    }
                    (None, None) => Err(ReplyError::Unavailable("delegate lost".into())),
                };
                let backend = match backend {
                    Ok(b) => b,
                    Err(e) => {
                        self.reply(ctx, session, req.stmt_seq, Err(e));
                        return;
                    }
                };
                let Some(s) = self.sessions.get_mut(session.0) else { return };
                if write {
                    s.wrote_in_tx = true;
                    s.last_write_backend = Some(backend);
                }
                // One op at the delegate: the (remembered or implicit) BEGIN
                // when this statement opens the transaction, whose response
                // then samples the certification start positions, and the
                // statement, whose response carries the records it wrote.
                let opened = begin.is_some();
                if opened {
                    s.in_tx = true;
                    s.sticky = Some(backend);
                    if let Some(c) = &mut s.cold {
                        c.begin = None;
                    }
                }
                let kind = if in_tx { CurrentKind::WsStmt { opened } } else { CurrentKind::WsPrepare };
                s.current = Some(Current { stmt_seq: req.stmt_seq, kind });
                let begin = begin.map(PlanExec::begin);
                self.send_db(ctx, backend, Pending::ClientExec { session }, move |op| {
                    DbOp::Delegate { op, conn: session.0, begin, stmt: plan, implicit: !in_tx }
                });
            }
        }
    }

    /// A statement's op at its delegate answered with the records it
    /// wrote (`DbResp::DelegateOut`). A successful autocommit write
    /// certifies at once, and `None` says its reply waits for that; any
    /// other statement's result is returned, its records kept for COMMIT.
    pub(super) fn finish_delegate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        session: SessionId,
        backend: BackendId,
        current: &Current,
        out: DbResp,
    ) -> Option<Result<ReplyBody, SqlError>> {
        let DbResp::DelegateOut { res, ws, poisoned, .. } = out else { return None };
        let autocommit = matches!(current.kind, CurrentKind::WsPrepare);
        if autocommit || matches!(current.kind, CurrentKind::WsStmt { opened: true }) {
            // The op ran BEGIN. Its snapshot holds every certified writeset
            // the delegate's watermarks count now, and none they count
            // later: the link is FIFO and the node runs ops serially, so an
            // apply or commit is acknowledged before this response iff it
            // ran before that BEGIN. (If the BEGIN failed, or the implicit
            // transaction was rolled back, nothing will certify against
            // these positions.)
            if let Some(s) = self.sessions.get_mut(session.0) {
                let gstart = &mut s.cold().gstart;
                gstart.clear();
                gstart.extend(self.shards.marks[backend.0].iter().map(|w| w.value()));
            }
        }
        if autocommit && res.is_ok() {
            self.pw_publish_prepare(ctx, session, current.stmt_seq, *ws);
            return None;
        }
        if let Some(s) = self.sessions.get_mut(session.0) {
            if autocommit {
                // The node rolled the implicit transaction back.
                s.end_tx();
            } else {
                let c = s.cold();
                c.ws.entries.extend(ws.entries);
                c.poisoned |= poisoned;
            }
        }
        Some(res)
    }

    // ------------------------------------------------------------------
    // Certification and the commit's entries, per group
    // ------------------------------------------------------------------

    /// Split the prepared writeset row by row along group boundaries and
    /// publish one `Certify` slot in every involved group's stream.
    pub(super) fn pw_publish_prepare(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, ws: Writeset) {
        // Both callers answer a request of this session, so it exists.
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.current = Some(Current { stmt_seq, kind: CurrentKind::WsCertifyWait });
        let gstart = s.cold.as_ref().map(|c| c.gstart.clone()).unwrap_or_default();
        let placement = &self.shards.placement;
        let mut slices = ws.split_by(|rec| placement.group_of_record(rec));
        if slices.is_empty() {
            // Read-only-looking writeset (e.g. all writes rolled back):
            // still certify through one stream (group 0, as a statement
            // that names no table) so the commit acks in order.
            slices.push((0, Writeset::default()));
        }
        let groups: Vec<u32> = slices.iter().map(|(g, _)| *g as u32).collect();
        for (g, part) in slices {
            let start_pos = gstart.get(g).copied().unwrap_or(0);
            self.shard_publish_write(
                ctx,
                g,
                ReplEvent::Certify { session, stmt_seq, groups: groups.clone(), start_pos, part },
            );
        }
    }

    /// Is this middleware the origin of (session, stmt_seq), waiting on its
    /// certification? A shadow session is made on a peer.
    fn certify_origin(&mut self, session: SessionId, stmt_seq: u64) -> bool {
        let s = self.session(session, None);
        matches!(&s.current, Some(c) if c.stmt_seq == stmt_seq && matches!(c.kind, CurrentKind::WsCertifyWait))
    }

    /// A transaction's part delivered on group `g`'s stream at `now`. The
    /// vote is the group-local certification verdict, computed AT DELIVERY
    /// — a pure function of the group's ordered stream, so every
    /// middleware votes identically and no vote messages need exchanging.
    /// A yes vote optimistically reserves a log position. The transaction
    /// is returned for its decision once every involved stream has
    /// delivered its part: at once for a transaction that writes one group.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn deliver_certify(
        &mut self,
        now: u64,
        g: usize,
        session: SessionId,
        stmt_seq: u64,
        groups: Vec<u32>,
        start_pos: u64,
        part: Writeset,
    ) -> Option<XTx> {
        let reserved = self.shards.certify(g, start_pos, &part, &self.cfg.pk_map);
        let key = (session.0, stmt_seq);
        let mut xtx = self.shards.xtx.remove(&key).unwrap_or_else(|| XTx::new(groups, now));
        let done = xtx.vote(g, reserved, part);
        self.metrics.certifier = self.shards.agg_stats();
        if done {
            return Some(xtx);
        }
        self.shards.xtx.insert(key, xtx);
        None
    }

    /// All involved groups have voted locally: commit iff every vote is
    /// yes, and return the commit's unit. On abort, yes-voting groups
    /// retract their optimistic reservation (certifier entry out, log slot
    /// voided, watermark marked everywhere so apply tracking never stalls
    /// on the hole); the group's next commit tells its hosts, so theirs do
    /// not stall either. The cross-group counters count only decisions
    /// over several groups.
    pub(super) fn decide(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64, xtx: XTx) -> Option<Unit> {
        let parts: Vec<(u32, u64, &Writeset)> = xtx.reserved().collect();
        let commit = parts.len() == xtx.votes.len();
        let multi = xtx.multi();
        let origin = self.certify_origin(session, stmt_seq);
        if origin {
            // Publish → first local vote is the certify window; first vote
            // → decision is the cross-group wait (the 2PC tax E22 measures),
            // which only a transaction over several groups has.
            self.mw_span(session, stmt_seq, Stage::Certify, xtx.first_us);
            if multi {
                self.mw_span(session, stmt_seq, Stage::CrossGroupWait, ctx.now().micros());
            }
        }
        if !commit {
            self.metrics.counters.xgroup_aborts += u64::from(multi);
            self.metrics.counters.certification_failures += 1;
            for (g, pos, _) in parts {
                let g = g as usize;
                self.shards.certs[g].retract(pos);
                self.shards.voided[g].push(pos);
                self.shards.void(g, pos);
            }
            self.metrics.certifier = self.shards.agg_stats();
            if origin {
                self.certification_lost(ctx, session, stmt_seq);
            }
            return None;
        }
        self.metrics.counters.xgroup_commits += u64::from(multi);
        Some(self.commit_unit(session, stmt_seq, origin, &parts))
    }

    /// A certified transaction's unit: the origin's record, and one entry
    /// per healthy host of its groups. `parts` are (group, certified
    /// position, writeset part). The origin's delegate hosts every group
    /// (enforced at pick time), and its entry is the SQL COMMIT of the
    /// transaction it holds open, which marks all its group positions at
    /// once; any other host's entry is the parts of the groups it hosts as
    /// one writeset. The parts touch disjoint groups, so merging them keeps
    /// each row's certified order. Each entry carries the positions it
    /// settles at its node, with the groups' voided positions, so the
    /// node's own per-group position stays contiguous.
    fn commit_unit(&mut self, session: SessionId, stmt_seq: u64, origin: bool, parts: &[(u32, u64, &Writeset)]) -> Unit {
        // Freshness stamp: reads for this session must come from a backend
        // whose group marks reached these positions.
        if let Some(s) = self.sessions.get_mut(session.0) {
            for &(g, pos, _) in parts {
                raise(&mut s.gstamps, g as usize, pos);
            }
        }
        let delegate = if origin { self.sessions.get(session.0).and_then(|s| s.sticky) } else { None };
        let voided: Vec<(u32, u64)> = parts
            .iter()
            .flat_map(|&(g, ..)| std::mem::take(&mut self.shards.voided[g as usize]).into_iter().map(move |p| (g, p)))
            .collect();
        let mut entries = Vec::new();
        for backend in self.healthy() {
            let hosts = |g: u32| self.shards.placement.hosts(g as usize).contains(&backend.0);
            let hosted = parts.iter().filter(|(g, ..)| hosts(*g));
            let mut marks: Vec<(u32, u64)> = hosted.clone().map(|&(g, pos, _)| (g, pos)).collect();
            if marks.is_empty() {
                continue;
            }
            marks.extend(voided.iter().filter(|&&(g, _)| hosts(g)));
            let payload = if Some(backend) == delegate {
                LogPayload::Plan { conn: session.0, plan: PlanExec::commit() }
            } else {
                let mut ws = Writeset::default();
                for (_, _, part) in hosted {
                    ws.entries.extend(part.entries.iter().cloned());
                    if ws.counters.is_none() {
                        ws.counters.clone_from(&part.counters);
                    }
                }
                LogPayload::Ws(ws)
            };
            entries.push((backend, ApplyEntry { payload, marks }));
        }
        if origin {
            if let Some(s) = self.sessions.get_mut(session.0) {
                s.end_tx();
                s.current = Some(Current { stmt_seq, kind: CurrentKind::Fanout });
            }
        }
        (origin.then(|| Fanout::commit(session, stmt_seq)), entries)
    }

    /// The origin's transaction lost certification: roll it back at its
    /// delegate and tell the client.
    fn certification_lost(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId, stmt_seq: u64) {
        self.rollback_at_delegate(ctx, session);
        self.metrics.counters.aborts += 1;
        let err = SqlError::WriteConflict { table: "certification".into(), detail: "first committer won".into() };
        self.reply(ctx, session, stmt_seq, Err(ReplyError::Sql(err)));
    }

    /// End `session`'s transaction, and roll it back at its delegate if
    /// that is still online.
    fn rollback_at_delegate(&mut self, ctx: &mut Ctx<'_, Msg>, session: SessionId) {
        let Some(s) = self.sessions.get_mut(session.0) else { return };
        s.end_tx();
        if let Some(backend) = s.sticky.filter(|b| self.backends[b.0].online()) {
            self.send_db(ctx, backend, Pending::FireAndForget, move |op| {
                DbOp::Execute { op, conn: session.0, plan: PlanExec::rollback() }
            });
        }
    }
}
