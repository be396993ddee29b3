//! The database-node actor: one replica's RDBMS process, wrapping a
//! `replimid_sql::Engine`, with per-statement virtual CPU accounting, crash
//! semantics (sessions and in-flight transactions die; durable state and the
//! binlog survive), and the apply paths used by log shipping and recovery.

use std::collections::{HashMap, HashSet};

use replimid_simnet::{Actor, Ctx, DiskModel, NodeId};
use replimid_sql::engine::ConnId;
use replimid_sql::{
    BinlogEntry, CrashKind, DumpOptions, Engine, ExecResult, Lsn, Outcome, RecoveryReport,
    SqlError, WalStats, ADMIN_PASSWORD, ADMIN_USER,
};

use crate::msg::{BatchExecResult, CommitNote, DbOp, DbResp, Msg, PlanExec, ReplyBody};
use crate::trace::{Stage, TraceSink};

/// Virtual cost constants specific to node-level operations.
pub mod cost {
    /// Per-row cost of producing or loading a dump.
    pub const DUMP_ROW_US: u64 = 3;
    /// Fixed dump/restore overhead.
    pub const DUMP_BASE_US: u64 = 2_000;
    /// Checksum cost per call (scan-ish).
    pub const CHECKSUM_US: u64 = 500;
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
    /// Dedicated connection for applying shipped/replayed statements.
    repl_conn: Option<ConnId>,
    /// Last *foreign* LSN applied via ApplyBinlog (slave role).
    applied_lsn: Lsn,
    /// Highest ordered-statement sequence executed (total order / recovery
    /// replay idempotence). Durable metadata, like the binlog itself.
    ordered_applied: u64,
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
            repl_conn: None,
            applied_lsn,
            ordered_applied: 0,
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
            node.engine.wal_force_checkpoint(node.applied_lsn.0, 0);
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

    pub fn applied_lsn(&self) -> Lsn {
        self.applied_lsn
    }

    /// Highest ordered-statement sequence this node has applied.
    pub fn ordered_applied(&self) -> u64 {
        self.ordered_applied
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
            self.engine.execute(c, &format!("USE {db}"))?;
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
        DbResp::ExecOk { op, body: reply_body(res.outcome), commit, tainted: res.tainted }
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
        let m = self.engine.wal_maintain(self.applied_lsn.0, self.ordered_applied);
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

    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, op: DbOp) -> Option<DbResp> {
        self.engine.set_clock(ctx.now().micros() as i64);
        match op {
            DbOp::Execute { op, conn, plan, seq } => {
                if seq.is_some_and(|sq| sq <= self.ordered_applied) {
                    // Already applied before a failure was declared:
                    // idempotent skip.
                    return Some(DbResp::ExecOk { op, body: ReplyBody::Ack, commit: None, tainted: false });
                }
                let resp = match self.run_charged(ctx, conn, &plan) {
                    Ok(res) => {
                        if let Some(sq) = seq {
                            self.ordered_applied = self.ordered_applied.max(sq);
                        }
                        self.exec_ok(op, res)
                    }
                    Err(err) => DbResp::ExecErr { op, err },
                };
                Some(resp)
            }
            DbOp::Delegate { op, conn, begin, stmt, writeset } => {
                if let Some(begin) = &begin {
                    if let Err(err) = self.run_charged(ctx, conn, begin) {
                        return Some(DbResp::ExecErr { op, err });
                    }
                }
                let res = match stmt.map(|stmt| self.run_charged(ctx, conn, &stmt)).transpose() {
                    Ok(res) => res,
                    Err(err) => {
                        if begin.is_some() && writeset {
                            // The implicit transaction dies with its only
                            // statement.
                            let _ = self.run_charged(ctx, conn, &PlanExec::rollback());
                        }
                        return Some(DbResp::ExecErr { op, err });
                    }
                };
                if !writeset {
                    return Some(match res {
                        Some(res) => self.exec_ok(op, res),
                        None => DbResp::ExecOk { op, body: ReplyBody::Ack, commit: None, tainted: false },
                    });
                }
                let resp = match self
                    .conn_for(conn)
                    .and_then(|c| self.engine.pending_writeset(c))
                {
                    Ok(ws) => DbResp::WritesetOut { op, ws: Box::new(ws) },
                    Err(err) => DbResp::ExecErr { op, err },
                };
                Some(resp)
            }
            DbOp::ExecuteBatch { op, stmts } => {
                let mut results = Vec::with_capacity(stmts.len());
                // Per-statement table sets for the parallel-replay grouping:
                // statements writing disjoint tables apply concurrently, so
                // the batch is charged the longest dependent chain, not the
                // sum — this is where grouped apply beats N round-trips.
                let mut tables: Vec<Vec<(String, String)>> = Vec::new();
                let mut costs: Vec<u64> = Vec::new();
                for stmt in stmts {
                    if stmt.seq.is_some_and(|sq| sq <= self.ordered_applied) {
                        // Same idempotence contract as `Execute`.
                        results.push(BatchExecResult::Ok { body: ReplyBody::Ack, commit: None, tainted: false });
                        continue;
                    }
                    let (res, us) = self.run(stmt.conn, &stmt.plan);
                    costs.push(us);
                    // Statements on one connection serialize even when their
                    // tables are disjoint: chain them with a synthetic
                    // per-connection key ("\0" is not a legal database name).
                    let conn_key = ("\0conn".to_string(), stmt.conn.to_string());
                    match res {
                        Ok(res) => {
                            let body = reply_body(res.outcome);
                            let mut tbls =
                                res.commit.as_ref().map(|c| c.writeset.tables()).unwrap_or_default();
                            let commit =
                                res.commit.map(|_| CommitNote { lsn: self.engine.binlog_head() });
                            tbls.push(conn_key);
                            tables.push(tbls);
                            if let Some(sq) = stmt.seq {
                                self.ordered_applied = self.ordered_applied.max(sq);
                            }
                            results.push(BatchExecResult::Ok { body, commit, tainted: res.tainted });
                        }
                        Err(err) => {
                            tables.push(vec![conn_key]);
                            results.push(BatchExecResult::Err { err });
                        }
                    }
                }
                ctx.consume(self.scaled(grouped_chain_cost(&tables, &costs)));
                Some(DbResp::ExecBatchOut { op, results })
            }
            DbOp::ApplyWriteset { op, ws } => {
                let resp = match self.engine.apply_writeset(&ws) {
                    Ok(res) => {
                        ctx.consume(self.scaled(res.cost.cpu_us.max(ws.len() as u64 * 4)));
                        DbResp::ApplyOk { op, applied_lsn: self.applied_lsn }
                    }
                    Err(err) => DbResp::ApplyErr { op, err },
                };
                Some(resp)
            }
            DbOp::ApplyBinlog { op, entries, use_writesets, parallel_apply, space } => {
                Some(self.apply_binlog(ctx, op, entries, use_writesets, parallel_apply, space))
            }
            DbOp::BinlogAfter { op, after } => {
                let head = self.engine.binlog_head();
                let resp = match self.engine.binlog_after(after) {
                    Some(entries) => DbResp::BinlogOut { op, entries, resync_needed: false, head },
                    None => DbResp::BinlogOut { op, entries: Vec::new(), resync_needed: true, head },
                };
                Some(resp)
            }
            DbOp::Dump { op, include_programs, include_principals } => {
                let dump = self.engine.dump(DumpOptions { include_principals, include_programs });
                ctx.consume(self.scaled(cost::DUMP_BASE_US + dump.row_count() * cost::DUMP_ROW_US));
                let head = self.engine.binlog_head().max(self.applied_lsn);
                Some(DbResp::DumpOut { op, dump: Box::new(dump), head })
            }
            DbOp::Restore { op, dump, baseline, ordered_baseline } => {
                let rows = dump.row_count();
                match self.engine.restore(&dump) {
                    Ok(()) => {
                        ctx.consume(self.scaled(cost::DUMP_BASE_US + rows * cost::DUMP_ROW_US));
                        self.applied_lsn = baseline;
                        self.ordered_applied = ordered_baseline;
                        if self.engine.has_durability() {
                            // A full resync replaces the in-memory state
                            // wholesale; checkpoint immediately so a stale
                            // on-disk image cannot resurrect pre-resync
                            // state at the next crash. (Device IO is
                            // charged by the wal_tick after this handler.)
                            self.engine
                                .wal_force_checkpoint(self.applied_lsn.0, self.ordered_applied);
                            ctx.consume(
                                self.scaled(cost::DUMP_BASE_US + rows * cost::DUMP_ROW_US),
                            );
                        }
                        Some(DbResp::RestoreOk { op })
                    }
                    Err(err) => Some(DbResp::ApplyErr { op, err }),
                }
            }
            DbOp::Checksum { op, full } => {
                ctx.consume(self.scaled(cost::CHECKSUM_US));
                let value = if full {
                    self.engine.checksum_full()
                } else {
                    self.engine.checksum_data()
                };
                Some(DbResp::ChecksumOut { op, value })
            }
            DbOp::Ping { op, binlog_horizon } => {
                self.engine.set_binlog_horizon(binlog_horizon);
                // `head` is this node's own binlog position (meaningful when
                // it acts as a master); `applied_lsn` is the foreign LSN it
                // has applied (meaningful as a slave).
                Some(DbResp::Pong {
                    op,
                    applied_lsn: self.applied_lsn,
                    head: self.engine.binlog_head(),
                    ordered_applied: self.ordered_applied,
                    durable_ordered: self.engine.durable_ordered().unwrap_or(self.ordered_applied),
                })
            }
            DbOp::Disconnect { conn } => {
                if let Some(c) = self.conns.remove(&conn) {
                    self.engine.disconnect(c);
                }
                None
            }
        }
    }

    fn apply_binlog(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op: u64,
        entries: Vec<BinlogEntry>,
        use_writesets: bool,
        parallel_apply: bool,
        space: crate::msg::ApplySpace,
    ) -> DbResp {
        use crate::msg::ApplySpace;
        let mark = |d: &mut Self, lsn: Lsn| match space {
            ApplySpace::None => {}
            ApplySpace::Binlog => d.applied_lsn = d.applied_lsn.max(lsn),
            ApplySpace::Ordered => d.ordered_applied = d.ordered_applied.max(lsn.0),
        };
        let skip = |d: &Self, lsn: Lsn| match space {
            ApplySpace::None => false,
            ApplySpace::Binlog => lsn <= d.applied_lsn,
            ApplySpace::Ordered => lsn.0 <= d.ordered_applied,
        };
        // Group entries by connected table components for the parallel
        // cost model (serial applies sum; parallel charges the longest
        // chain — §4.4.2's "extraction of parallelism from the log").
        let mut per_entry_cost: Vec<u64> = Vec::with_capacity(entries.len());
        let mut max_lsn = match space {
            ApplySpace::Binlog => self.applied_lsn,
            ApplySpace::Ordered => Lsn(self.ordered_applied),
            ApplySpace::None => Lsn(0),
        };
        for entry in &entries {
            if skip(self, entry.lsn) {
                continue; // already applied (overlapping batches / pre-crash races)
            }
            let mut entry_cost = 0u64;
            let result: Result<(), SqlError> = if use_writesets {
                self.engine.apply_writeset(&entry.writeset).map(|r| {
                    entry_cost += r.cost.cpu_us.max(entry.writeset.len() as u64 * 4);
                })
            } else {
                (|| {
                    let c = self.repl_conn()?;
                    if let Some(db) = &entry.default_db {
                        self.engine.execute(c, &format!("USE {db}"))?;
                    }
                    for stmt in &entry.statements {
                        let r = self.engine.execute(c, stmt)?;
                        entry_cost += r.cost.cpu_us;
                    }
                    Ok(())
                })()
            };
            if let Err(err) = result {
                ctx.consume(self.scaled(per_entry_cost.iter().sum::<u64>() + entry_cost));
                // Entries before the failure are durably applied.
                mark(self, max_lsn);
                return DbResp::ApplyErr { op, err };
            }
            per_entry_cost.push(entry_cost);
            max_lsn = max_lsn.max(entry.lsn);
            mark(self, max_lsn);
        }
        let total: u64 = per_entry_cost.iter().sum();
        let charged = if parallel_apply {
            parallel_cost(&entries, &per_entry_cost)
        } else {
            total
        };
        ctx.consume(self.scaled(charged));
        mark(self, max_lsn);
        DbResp::ApplyOk {
            op,
            applied_lsn: match space {
                crate::msg::ApplySpace::Binlog => self.applied_lsn,
                _ => max_lsn,
            },
        }
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

/// Longest chain over connected components of entries sharing tables.
fn parallel_cost(entries: &[BinlogEntry], costs: &[u64]) -> u64 {
    let tables: Vec<Vec<(String, String)>> =
        entries.iter().map(|e| e.writeset.tables()).collect();
    grouped_chain_cost(&tables, costs)
}

/// Union-find core of the parallel cost model: items sharing any table key
/// fall into one group whose costs sum; disjoint groups run concurrently,
/// so the charge is the maximum group sum.
fn grouped_chain_cost(tables: &[Vec<(String, String)>], costs: &[u64]) -> u64 {
    use std::collections::HashMap as Map;
    let mut group_of_table: Map<(String, String), usize> = Map::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut group_cost: Vec<u64> = Vec::new();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (item_tables, &cost) in tables.iter().zip(costs) {
        let mut target: Option<usize> = None;
        for t in item_tables {
            if let Some(&g) = group_of_table.get(t) {
                let root = find(&mut parent, g);
                match target {
                    None => target = Some(root),
                    Some(existing) => {
                        let r = find(&mut parent, existing);
                        if r != root {
                            parent[root] = r;
                            group_cost[r] += group_cost[root];
                            group_cost[root] = 0;
                            target = Some(r);
                        }
                    }
                }
            }
        }
        let g = match target {
            Some(g) => find(&mut parent, g),
            None => {
                parent.push(parent.len());
                group_cost.push(0);
                parent.len() - 1
            }
        };
        for t in item_tables {
            group_of_table.insert(t.clone(), g);
        }
        group_cost[g] += cost;
    }
    group_cost.into_iter().max().unwrap_or(0)
}

/// The op id carried by an operation, if it expects a response.
fn op_id(op: &DbOp) -> Option<u64> {
    match op {
        DbOp::Execute { op, .. }
        | DbOp::ExecuteBatch { op, .. }
        | DbOp::Delegate { op, .. }
        | DbOp::ApplyWriteset { op, .. }
        | DbOp::ApplyBinlog { op, .. }
        | DbOp::BinlogAfter { op, .. }
        | DbOp::Dump { op, .. }
        | DbOp::Restore { op, .. }
        | DbOp::Checksum { op, .. }
        | DbOp::Ping { op, .. } => Some(*op),
        DbOp::Disconnect { .. } => None,
    }
}

impl Actor<Msg> for DbNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        if let Msg::Db(op) = msg {
            // Transport-level dedup: a link-fault duplicate of an already-
            // processed op is dropped here, as TCP would.
            if let Some(id) = op_id(&op) {
                if !self.seen_ops.insert(id) {
                    return;
                }
            }
            let resp = self.handle(ctx, op);
            self.wal_tick(ctx);
            if let Some(resp) = resp {
                // The response leaves only after this operation's own
                // service time (accumulated via `consume`) has elapsed —
                // including the WAL append/fsync the operation caused.
                let service = ctx.backlog_us();
                let now = ctx.now().micros();
                self.trace.record_detached(Stage::DbService, now, now + service);
                ctx.send_after(from, Msg::DbR(resp), service);
            }
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
            self.repl_conn = None;
            self.seen_ops.clear();
            let kind = std::mem::replace(&mut self.pending_crash, CrashKind::Clean);
            let entropy = ctx.rng().next_u64();
            let report = self.engine.crash_recover(kind, entropy);
            self.applied_lsn = Lsn(report.applied_lsn);
            self.ordered_applied = report.ordered_applied;
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
        if let Some(c) = self.repl_conn.take() {
            self.engine.disconnect(c);
        }
        self.seen_ops.clear();
    }
}
