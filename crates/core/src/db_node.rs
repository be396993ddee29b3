//! The database-node actor: one replica's RDBMS process, wrapping a
//! `replimid_sql::Engine`, with per-statement virtual CPU accounting, crash
//! semantics (sessions and in-flight transactions die; durable state and the
//! binlog survive), and the apply paths used by log shipping and recovery.

use std::collections::{HashMap, HashSet};

use replimid_simnet::{Actor, Ctx, DiskModel, NodeId};
use replimid_sql::engine::ConnId;
use replimid_sql::{
    BinlogEntry, CrashKind, DumpOptions, Engine, ExecResult, Lsn, Mark, Outcome, Positions,
    RecoveryReport, SqlError, TableName, WalStats, Writeset, ADMIN_PASSWORD, ADMIN_USER,
};

use crate::msg::{ApplyEntry, CommitNote, DbOp, DbResp, EntryResult, Msg, PlanExec, ReplyBody};
use crate::recovery::{grouped_chain_cost, LogPayload};
use crate::trace::{Stage, TraceSink};

/// Virtual cost constants specific to node-level operations.
pub mod cost {
    /// Per-row cost of producing or loading a dump.
    pub const DUMP_ROW_US: u64 = 3;
    /// Fixed dump/restore overhead.
    pub const DUMP_BASE_US: u64 = 2_000;
}

/// What a statement that fails at the node costs it: the fixed
/// per-statement overhead less the parse no plan needs.
const FAILED_US: u64 =
    replimid_sql::result::cost_model::STATEMENT_BASE_US - replimid_sql::result::cost_model::PARSE_US;

/// What a durable node's restart actually cost: the crash it recovered
/// from, the storage layer's account of the work, and the virtual time the
/// node spent unavailable to traffic while doing it (checkpoint load + WAL
/// replay + device IO). This is the *local* half of MTTR; the middleware's
/// rejoin window (`MwMetrics::recoveries`) is the other half.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    pub kind: CrashKind,
    pub report: RecoveryReport,
    /// Virtual microseconds the restart consumed before serving again.
    pub local_us: u64,
    /// When (virtual µs) the restart began.
    pub at_us: u64,
}

/// One simulated database server.
pub struct DbNode {
    engine: Engine,
    default_db: Option<String>,
    /// Heterogeneity: CPU cost multiplier (×2 = the paper's RAID battery
    /// failure making a replica twice as slow, §4.1.3).
    pub speed_factor: f64,
    conns: HashMap<u64, ConnId>,
    /// Per connection, the ordered positions of the statements its open
    /// transaction ran. They count as applied only when it ends: a crash
    /// rolls the transaction back, and replay must then run them again.
    /// Volatile, like the connections.
    tx_marks: HashMap<u64, Vec<Mark>>,
    /// Dedicated connection for applying statements shipped from a master.
    repl_conn: Option<ConnId>,
    /// Last *foreign* LSN applied via ApplyBinlog (slave role). The
    /// positions of the middleware's ordered streams live in the engine
    /// (`Engine::ordered`), which logs them with the commits they made.
    applied_lsn: Lsn,
    /// Op ids already processed: the endpoint half of reliable transport.
    /// Flaky links can deliver a message twice (`LinkFault::dup_prob`);
    /// a real TCP stack dedups retransmits before the app sees them, so a
    /// duplicated operation must not execute twice. Volatile (lost on
    /// crash, like the connections the ops arrived on).
    seen_ops: HashSet<u64>,
    /// Per-operation service-time attribution (`Stage::DbService` spans,
    /// detached: db work is not tied to one client trace window).
    pub trace: TraceSink,
    /// Timing model for the durable devices (no-op when the engine runs
    /// without durability).
    pub disk: DiskModel,
    /// How the *next* crash mangles the durable image (consumed at restart).
    pending_crash: CrashKind,
    /// Report of the most recent durable restart, if any.
    pub last_recovery: Option<RecoveryInfo>,
}

impl DbNode {
    pub fn new(engine: Engine, default_db: Option<String>) -> Self {
        // A fresh replica is initialized from the same snapshot as its
        // peers, so everything already in its binlog (the schema load)
        // counts as applied.
        let applied_lsn = engine.binlog_head();
        let mut node = DbNode {
            engine,
            default_db,
            speed_factor: 1.0,
            conns: HashMap::new(),
            tx_marks: HashMap::new(),
            repl_conn: None,
            applied_lsn,
            seen_ops: HashSet::new(),
            trace: TraceSink::new(),
            disk: DiskModel::default(),
            pending_crash: CrashKind::Clean,
            last_recovery: None,
        };
        if node.engine.has_durability() {
            // The replica's initial disk image is a fsynced checkpoint of
            // the freshly loaded schema: provisioning happens before the
            // simulation starts, so the setup IO is free (not charged to
            // virtual time). Without this, a crash before the first
            // checkpoint could lose unsynced schema records and leave the
            // node unable to replay ordered statements against it.
            node.engine.wal_force_checkpoint(node.applied_lsn.0);
            let _ = node.engine.take_io();
        }
        node
    }

    pub fn with_speed(mut self, factor: f64) -> Self {
        self.speed_factor = factor;
        self
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// How many middleware sessions hold a connection here (the log
    /// shipping connection is not one).
    pub fn session_conns(&self) -> usize {
        self.conns.len()
    }

    /// The engine connection serving the middleware's connection `token`.
    pub fn conn_of(&self, token: u64) -> Option<ConnId> {
        self.conns.get(&token).copied()
    }

    pub fn applied_lsn(&self) -> Lsn {
        self.applied_lsn
    }

    /// Per group, the end of the contiguous prefix of the ordered stream
    /// this node has applied.
    pub fn ordered_applied(&self) -> Vec<u64> {
        self.engine.ordered().prefixes()
    }

    /// Arm the crash injector: the next `ControlOp::Crash` of this node
    /// mangles the durable image with `kind` semantics at restart time.
    /// (Nothing reads the devices while the node is down and in-flight
    /// sends to a crashed node are dropped, so applying the damage lazily
    /// at restart is observationally identical to applying it at the
    /// crash instant.)
    pub fn set_pending_crash(&mut self, kind: CrashKind) {
        self.pending_crash = kind;
    }

    /// Durable-device statistics, if this node runs with durability.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.engine.wal_stats()
    }

    fn conn_for(&mut self, token: u64) -> Result<ConnId, SqlError> {
        if let Some(&c) = self.conns.get(&token) {
            return Ok(c);
        }
        let c = self.engine.connect(ADMIN_USER, ADMIN_PASSWORD)?;
        if let Some(db) = &self.default_db {
            if let Err(e) = self.engine.use_database(c, db) {
                self.engine.disconnect(c);
                return Err(e);
            }
        }
        self.conns.insert(token, c);
        Ok(c)
    }

    fn repl_conn(&mut self) -> Result<ConnId, SqlError> {
        if let Some(c) = self.repl_conn {
            return Ok(c);
        }
        let c = self.engine.connect(ADMIN_USER, ADMIN_PASSWORD)?;
        self.repl_conn = Some(c);
        Ok(c)
    }

    fn scaled(&self, us: u64) -> u64 {
        (us as f64 * self.speed_factor) as u64
    }

    /// Run a plan on connection `conn`, with what it costs the node. A plan
    /// arrives parsed, so the node is charged no parse: the statement's
    /// `execute_prepared` cost, or `STATEMENT_BASE_US - PARSE_US` when it
    /// fails.
    fn run(&mut self, conn: u64, plan: &PlanExec) -> (Result<ExecResult, SqlError>, u64) {
        let res = plan.bind().and_then(|stmt| {
            let c = self.conn_for(conn)?;
            self.engine.execute_prepared(c, &stmt)
        });
        let us = res.as_ref().map_or(FAILED_US, |r| r.cost.cpu_us);
        (res, us)
    }

    /// [`Self::run`], charged to this node's queue.
    fn run_charged(&mut self, ctx: &mut Ctx<'_, Msg>, conn: u64, plan: &PlanExec) -> Result<ExecResult, SqlError> {
        let (res, us) = self.run(conn, plan);
        ctx.consume(self.scaled(us));
        res
    }

    /// The `ExecOk` answering an executed statement.
    fn exec_ok(&self, op: u64, res: ExecResult) -> DbResp {
        let commit = res.commit.map(|_| CommitNote { lsn: self.engine.binlog_head() });
        DbResp::ExecOk { op, body: reply_body(res.outcome), commit }
    }

    /// Durable-storage maintenance after each operation: mirror freshly
    /// committed binlog entries (and position advances) into the WAL, fsync
    /// on policy, checkpoint on policy — then convert the device work into
    /// virtual time on this node's queue. Runs *before* the response's
    /// service time is read, so the commit's durability cost is part of the
    /// latency the middleware observes (group commit, in effect, when one
    /// message carried several transactions). No-op without durability.
    fn wal_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.engine.has_durability() {
            return;
        }
        let m = self.engine.wal_maintain(self.applied_lsn.0);
        let io = self.engine.take_io();
        let mut us = self.disk.io_us(io.bytes_written, io.bytes_read, io.fsyncs);
        if let Some(rows) = m.checkpoint_rows {
            // Snapshotting engine state costs the same CPU as a dump.
            us += cost::DUMP_BASE_US + rows * cost::DUMP_ROW_US;
        }
        if us > 0 {
            ctx.consume(self.scaled(us));
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, op: DbOp) -> DbResp {
        self.engine.set_clock(ctx.now().micros() as i64);
        match op {
            DbOp::Execute { op, conn, plan } => match self.run_charged(ctx, conn, &plan) {
                Ok(res) => self.exec_ok(op, res),
                Err(err) => DbResp::ExecErr { op, err },
            },
            DbOp::Delegate { op, conn, begin, stmt, implicit } => {
                let out = |res, ws, poisoned| DbResp::DelegateOut { op, res, ws: Box::new(ws), poisoned };
                if let Some(begin) = &begin {
                    if let Err(err) = self.run_charged(ctx, conn, begin) {
                        return out(Err(err), Writeset::default(), false);
                    }
                }
                let c = match self.conn_for(conn) {
                    Ok(c) => c,
                    Err(err) => return out(Err(err), Writeset::default(), false),
                };
                let mark = self.engine.pending_mark(c);
                let res = self.run_charged(ctx, conn, &stmt);
                let ws = self.engine.pending_writeset_since(c, mark).unwrap_or_default();
                let poisoned = res.is_err() && self.engine.tx_poisoned(c);
                if res.is_err() && implicit {
                    // The implicit transaction dies with its only statement.
                    let _ = self.run_charged(ctx, conn, &PlanExec::rollback());
                }
                out(res.map(|r| reply_body(r.outcome)), ws, poisoned)
            }
            DbOp::Apply { op, entries, parallel } => self.apply(ctx, op, &entries, parallel),
            DbOp::ApplyBinlog { op, entries, use_writesets, parallel_apply } => {
                self.apply_binlog(ctx, op, entries, use_writesets, parallel_apply)
            }
            DbOp::BinlogAfter { op, after } => {
                let head = self.engine.binlog_head();
                match self.engine.binlog_after(after) {
                    Some(entries) => DbResp::BinlogOut { op, entries, resync_needed: false, head },
                    None => DbResp::BinlogOut { op, entries: Vec::new(), resync_needed: true, head },
                }
            }
            DbOp::Dump { op, include_programs, include_principals } => {
                let dump = self.engine.dump(DumpOptions { include_principals, include_programs });
                ctx.consume(self.scaled(cost::DUMP_BASE_US + dump.row_count() * cost::DUMP_ROW_US));
                let head = self.engine.binlog_head().max(self.applied_lsn);
                DbResp::DumpOut { op, dump: Box::new(dump), head }
            }
            DbOp::Restore { op, dump, baseline, ordered_baseline } => {
                let rows = dump.row_count();
                match self.engine.restore(&dump) {
                    Ok(()) => {
                        ctx.consume(self.scaled(cost::DUMP_BASE_US + rows * cost::DUMP_ROW_US));
                        self.applied_lsn = baseline;
                        self.engine.set_ordered(Positions::at(&ordered_baseline));
                        if self.engine.has_durability() {
                            // A full resync replaces the in-memory state
                            // wholesale; checkpoint immediately so a stale
                            // on-disk image cannot resurrect pre-resync
                            // state at the next crash. (Device IO is
                            // charged by the wal_tick after this handler.)
                            self.engine.wal_force_checkpoint(self.applied_lsn.0);
                            ctx.consume(
                                self.scaled(cost::DUMP_BASE_US + rows * cost::DUMP_ROW_US),
                            );
                        }
                        DbResp::RestoreOk { op }
                    }
                    Err(err) => DbResp::ApplyErr { op, err },
                }
            }
            DbOp::Ping { op, binlog_horizon } => {
                self.engine.set_binlog_horizon(binlog_horizon);
                // `head` is this node's own binlog position (meaningful when
                // it acts as a master); `applied_lsn` is the foreign LSN it
                // has applied (meaningful as a slave).
                let ordered_applied = self.ordered_applied();
                DbResp::Pong {
                    op,
                    applied_lsn: self.applied_lsn,
                    head: self.engine.binlog_head(),
                    durable_ordered: self.engine.durable_ordered().unwrap_or_else(|| ordered_applied.clone()),
                    ordered_applied,
                }
            }
        }
    }

    /// Run a [`DbOp::Apply`]: each entry unless its marks are all applied,
    /// then one charge for the lot.
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg>, op: u64, entries: &[ApplyEntry], parallel: bool) -> DbResp {
        let mut results = Vec::with_capacity(entries.len());
        let mut charged = Vec::new();
        for entry in entries {
            if self.applied(entry) {
                // Applied before a failure was declared: idempotent skip.
                results.push(EntryResult::Ok { body: ReplyBody::Ack, commit: None });
                continue;
            }
            let (res, us) = match &entry.payload {
                LogPayload::Plan { conn, plan } => {
                    let out = self.run(*conn, plan);
                    self.settle_marks(*conn, &entry.marks);
                    out
                }
                LogPayload::End { conn } => {
                    // Closing the connection aborts its open transaction,
                    // whose held marks are then noted as a ROLLBACK's are.
                    if let Some(c) = self.conns.remove(conn) {
                        self.engine.disconnect(c);
                    }
                    self.settle_marks(*conn, &entry.marks);
                    results.push(EntryResult::Ok { body: ReplyBody::Ack, commit: None });
                    continue;
                }
                LogPayload::Ws(ws) => match self.engine.apply_writeset(ws) {
                    Ok(mut res) => {
                        self.engine.note_applied(&entry.marks);
                        let us = res.cost.cpu_us.max(ws.len() as u64 * 4);
                        // Every host acknowledges a certified commit alike,
                        // whichever of its parts it holds.
                        res.outcome = Outcome::Ack;
                        (Ok(res), us)
                    }
                    Err(err) => {
                        self.charge(ctx, &charged, parallel);
                        return DbResp::ApplyErr { op, err };
                    }
                },
            };
            let tables = res.as_ref().ok().and_then(|r| r.commit.as_ref()).map(|c| c.writeset.tables());
            charged.push((tables.unwrap_or_default(), us));
            results.push(match res {
                Ok(res) => {
                    let commit = res.commit.map(|_| CommitNote { lsn: self.engine.binlog_head() });
                    EntryResult::Ok { body: reply_body(res.outcome), commit }
                }
                Err(err) => EntryResult::Err { err },
            });
        }
        self.charge(ctx, &charged, parallel);
        DbResp::Applied { op, results }
    }

    /// Charge the entries one op ran, each with the tables its commit wrote
    /// and its cost: the longest chain of entries sharing a table when
    /// `parallel` (the §4.4.2 "extraction of parallelism from the log"),
    /// else the sum.
    fn charge(&self, ctx: &mut Ctx<'_, Msg>, charged: &[(Vec<TableName>, u64)], parallel: bool) {
        let us = if parallel {
            grouped_chain_cost(charged.iter().map(|(t, us)| (&t[..], *us)))
        } else {
            charged.iter().map(|(_, us)| us).sum()
        };
        ctx.consume(self.scaled(us));
    }

    /// Whether every mark of `entry` is applied, or held by its
    /// connection's open transaction: an entry to skip.
    fn applied(&self, entry: &ApplyEntry) -> bool {
        let held = match &entry.payload {
            LogPayload::Plan { conn, .. } | LogPayload::End { conn } => self.tx_marks.get(conn),
            LogPayload::Ws(_) => None,
        };
        let has = |m: &Mark| self.engine.ordered().has(*m) || held.is_some_and(|h| h.contains(m));
        !entry.marks.is_empty() && entry.marks.iter().all(has)
    }

    /// Note the marks of a plan that ran on connection `conn`. A failed
    /// statement is applied too: it failed the same way on every replica,
    /// and replay must not rerun it. Inside a transaction the marks wait
    /// for its end, and are noted with its COMMIT or ROLLBACK.
    fn settle_marks(&mut self, conn: u64, marks: &[Mark]) {
        let open = self.conns.get(&conn).is_some_and(|&c| self.engine.in_transaction(c));
        if open {
            self.tx_marks.entry(conn).or_default().extend_from_slice(marks);
            return;
        }
        match self.tx_marks.remove(&conn) {
            Some(mut held) => {
                held.extend_from_slice(marks);
                self.engine.note_applied(&held);
            }
            None => self.engine.note_applied(marks),
        }
    }

    /// Apply binlog entries shipped from the master, on the replication
    /// connection: the one place a node still parses SQL text, because
    /// log shipping reads the master's own (text) binlog (§2.2).
    fn apply_binlog(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op: u64,
        entries: Vec<BinlogEntry>,
        use_writesets: bool,
        parallel_apply: bool,
    ) -> DbResp {
        let mut charged = Vec::with_capacity(entries.len());
        for entry in &entries {
            if entry.lsn <= self.applied_lsn {
                continue; // already applied (overlapping batches / pre-crash races)
            }
            let conn = if use_writesets { Ok(None) } else { self.repl_conn().map(Some) };
            let (entry_cost, result) =
                conn.map_or_else(|err| (0, Err(err)), |conn| self.engine.apply_binlog_entry(entry, conn));
            if let Err(err) = result {
                // Entries before the failure are applied (and marked).
                charged.push((Vec::new(), entry_cost));
                self.charge(ctx, &charged, false);
                return DbResp::ApplyErr { op, err };
            }
            charged.push((entry.writeset.tables(), entry_cost));
            self.applied_lsn = self.applied_lsn.max(entry.lsn);
        }
        self.charge(ctx, &charged, parallel_apply);
        DbResp::ApplyOk { op, applied_lsn: self.applied_lsn }
    }
}

/// A statement's outcome, trimmed for the wire.
fn reply_body(outcome: Outcome) -> ReplyBody {
    match outcome {
        Outcome::Rows(rs) => ReplyBody::Rows(rs),
        Outcome::Affected(n) => ReplyBody::Affected(n),
        Outcome::Ack => ReplyBody::Ack,
    }
}

/// The op id every operation carries.
fn op_id(op: &DbOp) -> u64 {
    match op {
        DbOp::Execute { op, .. }
        | DbOp::Apply { op, .. }
        | DbOp::Delegate { op, .. }
        | DbOp::ApplyBinlog { op, .. }
        | DbOp::BinlogAfter { op, .. }
        | DbOp::Dump { op, .. }
        | DbOp::Restore { op, .. }
        | DbOp::Ping { op, .. } => *op,
    }
}

impl Actor<Msg> for DbNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::Db(op) = msg {
            // Transport-level dedup: a link-fault duplicate of an already-
            // processed op is dropped here, as TCP would.
            if !self.seen_ops.insert(op_id(&op)) {
                return;
            }
            let resp = self.handle(ctx, op);
            self.wal_tick(ctx);
            // The response leaves only after this operation's own service
            // time (accumulated via `consume`) has elapsed — including the
            // WAL append/fsync the operation caused.
            let service = ctx.backlog_us();
            let now = ctx.now().micros();
            self.trace.record_detached(Stage::DbService, now, now + service);
            ctx.send_after(from, Msg::DbR(resp), service);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.engine.set_clock(ctx.now().micros() as i64);
        if self.engine.has_durability() {
            // Real crash semantics: the in-memory engine died with the
            // process, so EVERYTHING volatile is gone — sessions included;
            // the rebuilt engine has no connections to tear down. What
            // survives is exactly what the durable devices hold, mangled
            // by the injected crash kind, and the node pays for reading it
            // back (checkpoint load + WAL replay + device IO) in virtual
            // time before it can answer a single ping. That busy window is
            // the local, *measured* half of MTTR.
            self.conns.clear();
            self.tx_marks.clear();
            self.repl_conn = None;
            self.seen_ops.clear();
            let kind = std::mem::replace(&mut self.pending_crash, CrashKind::Clean);
            let entropy = ctx.rng().next_u64();
            let report = self.engine.crash_recover(kind, entropy);
            self.applied_lsn = Lsn(report.applied_lsn);
            let io = self.engine.take_io();
            let mut cpu = report.replay_cpu_us;
            if report.checkpoint_loaded {
                cpu += cost::DUMP_BASE_US + report.checkpoint_rows * cost::DUMP_ROW_US;
            }
            let local_us =
                self.scaled(cpu + self.disk.io_us(io.bytes_written, io.bytes_read, io.fsyncs));
            ctx.consume(local_us);
            let now = ctx.now().micros();
            self.trace.record_detached(Stage::Replay, now, now + local_us);
            self.last_recovery = Some(RecoveryInfo { kind, report, local_us, at_us: now });
            return;
        }
        // Legacy (non-durable) crash semantics: every session is gone; open
        // transactions abort. Durable state (tables, binlog, counters)
        // survives by fiat — the engine itself is kept.
        // Disconnect in token order: map drain order varies per process,
        // and disconnect releases engine-side state (temp tables, open tx).
        let mut conns: Vec<(u64, ConnId)> = self.conns.drain().collect();
        conns.sort_by_key(|&(t, _)| t);
        for (_, c) in conns {
            self.engine.disconnect(c);
        }
        self.tx_marks.clear();
        if let Some(c) = self.repl_conn.take() {
            self.engine.disconnect(c);
        }
        self.seen_ops.clear();
    }
}
