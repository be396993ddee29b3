//! Middleware tests that drive the whole actor: a writeset middleware
//! between scripted or real backends and a client, in a `Sim`, and the
//! read router's eligibility rules on a middleware built without one. The
//! unit tests of one seam's state live in that seam's file.

use super::*;
use replimid_simnet::{NetworkModel, Sim};
use replimid_sql::{parse_statement, Watermark};

use crate::msg::{ApplyEntry, EntryResult, PlanExec};
use crate::recovery::LogPayload;

/// A backend that answers from a script: statements, ordered statement
/// batches and COMMIT succeed (unless `refuse_commit`), but an ordered
/// statement that writes a table other than `t1` fails (the script knows
/// no other), a delegate op running a write of session `n` returns
/// `insert_ws(n)`, the first `refuse` writeset applies fail, and later ones
/// apply, as do the dump and restore of a rejoin. With `silent_applies` it
/// answers no `Apply`. It logs every op but pings, which it never answers:
/// the silence check evicts a backend only once it has answered a client
/// op, a heartbeat timeout after its last answer.
struct ScriptedDb {
    refuse: usize,
    refuse_commit: bool,
    silent_applies: bool,
    ops: Vec<DbOp>,
}

impl ScriptedDb {
    fn new(refuse: usize) -> Self {
        ScriptedDb { refuse, refuse_commit: false, silent_applies: false, ops: Vec::new() }
    }

    /// The writesets of every `Apply` received, each with the op's
    /// `parallel`: live fan-out is parallel, and a rejoin's replay here is
    /// serial (the default `ReplayMode`).
    fn applies(&self) -> Vec<(Writeset, bool)> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let DbOp::Apply { entries, parallel, .. } = op {
                for e in entries {
                    if let LogPayload::Ws(ws) = &e.payload {
                        out.push((ws.clone(), *parallel));
                    }
                }
            }
        }
        out
    }
}

impl Actor<Msg> for ScriptedDb {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Db(op) = msg else { return };
        if matches!(op, DbOp::Ping { .. }) {
            return;
        }
        self.ops.push(op.clone());
        let resp = match op {
            DbOp::Delegate { op, conn, stmt, .. } => {
                let write = !stmt.template.is_read_only();
                let ws = if write { insert_ws(conn as i64) } else { Writeset::default() };
                DbResp::DelegateOut { op, res: Ok(ReplyBody::Ack), ws: Box::new(ws), poisoned: false }
            }
            DbOp::Execute { op, .. } => {
                DbResp::ExecOk { op, body: ReplyBody::Ack, commit: None }
            }
            DbOp::Apply { .. } if self.silent_applies => return,
            DbOp::Apply { op, entries, .. } => {
                let ws_applies = self.applies().len();
                let commit = |e: &ApplyEntry| {
                    matches!(&e.payload, LogPayload::Plan { plan, .. } if *plan.template == Statement::Commit)
                };
                if entries.iter().any(|e| matches!(e.payload, LogPayload::Ws(_))) && ws_applies <= self.refuse {
                    let err = SqlError::WriteConflict { table: "t1".into(), detail: "row locked".into() };
                    DbResp::ApplyErr { op, err }
                } else if self.refuse_commit && entries.iter().any(commit) {
                    let err = SqlError::SerializationFailure("read validation".into());
                    DbResp::Applied { op, results: vec![EntryResult::Err { err }] }
                } else {
                    let result = |e: &ApplyEntry| {
                        let LogPayload::Plan { plan, .. } = &e.payload else { return None };
                        let unknown = plan.template.written_tables().into_iter().find(|t| t.name != "t1")?;
                        Some(EntryResult::Err { err: SqlError::UnknownTable(unknown.name) })
                    };
                    let ok = EntryResult::Ok { body: ReplyBody::Ack, commit: None };
                    DbResp::Applied { op, results: entries.iter().map(|e| result(e).unwrap_or(ok.clone())).collect() }
                }
            }
            DbOp::ApplyBinlog { op, .. } => DbResp::ApplyOk { op, applied_lsn: Lsn(0) },
            DbOp::Dump { op, .. } => {
                let dump = replimid_sql::Engine::new(Default::default()).dump(Default::default());
                DbResp::DumpOut { op, dump: Box::new(dump), head: Lsn(0) }
            }
            DbOp::Restore { op, .. } => DbResp::RestoreOk { op },
            _ => return,
        };
        ctx.send(from, Msg::DbR(resp));
    }
}

/// A backend that never answers anything.
struct Silent;

impl Actor<Msg> for Silent {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, _msg: Msg) {}
}

/// A client that keeps what it is told, and the `stmt_seq` each reply
/// answers.
#[derive(Default)]
struct Sink {
    replies: Vec<Result<ReplyBody, ReplyError>>,
    seqs: Vec<u64>,
}

impl Actor<Msg> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Reply(reply) = msg {
            self.replies.push(reply.result);
            self.seqs.push(reply.stmt_seq);
        }
    }
}

/// A writeset middleware over `dbs`, and a `Sink` client: (sim,
/// backends, middleware, client). The placement's bare names are tables
/// of database `d`, which the scripted backends write.
fn writeset_cluster<A: Actor<Msg> + 'static>(
    dbs: Vec<A>,
    mut placement: Option<Placement>,
) -> (Sim<Msg>, Vec<NodeId>, NodeId, NodeId) {
    if let Some(p) = &mut placement {
        p.bind("d", |_| None).expect("no partitioned table");
    }
    let mut cfg = MwConfig::defaults(Mode::MultiMasterWriteset);
    cfg.placement = placement;
    cluster(cfg, dbs)
}

/// A middleware configured by `cfg` over `dbs`, and a `Sink` client.
fn cluster<A: Actor<Msg> + 'static>(cfg: MwConfig, dbs: Vec<A>) -> (Sim<Msg>, Vec<NodeId>, NodeId, NodeId) {
    let mut sim: Sim<Msg> = Sim::new(NetworkModel::lan(), 5);
    let dbs: Vec<NodeId> = dbs.into_iter().map(|d| sim.add_node(d)).collect();
    let mw_id = NodeId(dbs.len());
    let mw = sim.add_node(Middleware::new(cfg, 0, vec![mw_id], dbs.clone()));
    assert_eq!(mw, mw_id);
    let client = sim.add_node(Sink::default());
    (sim, dbs, mw, client)
}

/// Client statement `stmt_seq` of `session`, arriving at `at` µs.
fn request(sim: &mut Sim<Msg>, (client, mw): (NodeId, NodeId), at: u64, session: u64, stmt_seq: u64, sql: &str) {
    let req = ClientRequest { session: SessionId(session), stmt_seq, trace: 0, sql: sql.into() };
    sim.inject_as(SimTime(at), client, mw, Msg::Request(req));
}

/// The writeset a scripted delegate extracts for session `key`: one
/// row of `t1`.
fn insert_ws(key: i64) -> Writeset {
    use replimid_sql::mvcc::{RowId, WriteKind, WriteRecord};
    use replimid_sql::Value;
    Writeset {
        entries: vec![WriteRecord {
            table: replimid_sql::TableName::new("d", "t1"),
            row: RowId(1),
            kind: WriteKind::Insert,
            old: None,
            new: Some(vec![Value::Int(key), Value::Int(1)]),
        }],
        counters: None,
    }
}

#[test]
fn a_failed_apply_fails_its_backend_once_and_is_never_resent() {
    // G = 1: no placement. G = 2: both groups on both backends, `t1`
    // in group 1. Either way the first apply at the non-delegate fails:
    // the backend is failed once and rejoins by log replay, and no
    // apply is ever sent a second time.
    let two = Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t1", 1);
    for (placement, g) in [(None, 0usize), (Some(two), 1)] {
        let (mut sim, dbs, mw, client) = writeset_cluster(vec![ScriptedDb::new(1), ScriptedDb::new(1)], placement);
        request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(10_000));
        // The live fan-out's applies; the rejoin replays the refused one.
        let applies = |sim: &mut Sim<Msg>, b: usize| {
            let all = sim.with_actor::<ScriptedDb, _>(dbs[b], |d| d.applies());
            all.into_iter().filter_map(|(ws, live)| live.then_some(ws)).collect::<Vec<_>>()
        };
        let remote = (0..2).find(|&b| !applies(&mut sim, b).is_empty()).expect("the non-delegate got the apply");
        // Only the backend that failed refuses anything.
        sim.with_actor::<ScriptedDb, _>(dbs[1 - remote], |d| d.refuse = 0);
        sim.with_actor::<Middleware, _>(mw, |m| {
            assert_eq!(m.partial_groups(), g + 1);
            assert_eq!(m.metrics.counters.divergence_detected, 1);
            assert_eq!(m.metrics.failover_times.len(), 1);
            assert_eq!(m.metrics.recoveries.iter().map(|r| r.0).collect::<Vec<_>>(), [remote], "it rejoined");
            assert!(m.backends[remote].online());
        });

        for session in 2..5 {
            request(&mut sim, (client, mw), 10_000 * session, session, 1, "INSERT INTO t1 VALUES (2, 1)");
        }
        sim.run_until(SimTime(60_000));
        for b in 0..2 {
            let sent = applies(&mut sim, b);
            let once = sent.iter().enumerate().all(|(i, ws)| !sent[..i].contains(ws));
            assert!(once, "G={} backend {b} got an apply twice: {sent:?}", g + 1);
        }
        sim.with_actor::<Middleware, _>(mw, |m| {
            for b in 0..2 {
                assert_eq!(m.pw_mark(BackendId(b), g), 4, "G={} backend {b}", g + 1);
            }
            assert_eq!(m.metrics.counters.commits, 4);
            assert_eq!(m.metrics.counters.divergence_detected, 1);
            assert_eq!(m.metrics.failover_times.len(), 1);
        });
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, vec![Ok(ReplyBody::Ack); 4]);
    }
}

/// A writeset statement reaches its delegate once, and as plans only.
/// An autocommit write is one delegate op (BEGIN, statement, writeset)
/// and then its COMMIT, and the group's other host applies it once. An
/// explicit transaction's first statement opens it with the client's
/// isolation level. A transaction that runs no statement sends nothing.
#[test]
fn a_writeset_statement_reaches_its_delegate_once() {
    let dbs = vec![ScriptedDb::new(0), ScriptedDb::new(0)];
    let (mut sim, dbs, mw, client) = writeset_cluster(dbs, None);
    let ops = |sim: &mut Sim<Msg>| -> Vec<Vec<DbOp>> {
        dbs.iter().map(|&d| sim.with_actor::<ScriptedDb, _>(d, |d| d.ops.clone())).collect()
    };
    let whole = |plan: &PlanExec| {
        assert!(plan.params.is_empty(), "cache 0 ships whole statements: {plan:?}");
        (*plan.template).clone()
    };
    request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
    sim.run_until(SimTime(10_000));
    let seen = ops(&mut sim);
    let delegate = seen
        .iter()
        .position(|o| o.iter().any(|op| matches!(op, DbOp::Delegate { .. })))
        .expect("a delegate ran the statement");
    match &seen[delegate][..] {
        [DbOp::Delegate { begin: Some(begin), stmt, implicit: true, .. }, DbOp::Apply { entries, .. }] => {
            // The COMMIT is the one `Apply` entry, and settles the first
            // certified position at the node.
            let [ApplyEntry { payload: LogPayload::Plan { plan: commit, .. }, marks }] = &entries[..] else {
                panic!("the delegate's COMMIT: {entries:?}");
            };
            assert_eq!(marks, &[(0, 1)]);
            let snapshot = Some(IsolationLevel::SnapshotIsolation);
            assert_eq!(whole(begin), Statement::Begin { isolation: snapshot });
            assert_eq!(whole(stmt), parse_statement("INSERT INTO t1 VALUES (1, 1)").unwrap());
            assert_eq!(whole(commit), Statement::Commit);
        }
        other => panic!("the delegate saw {other:?}"),
    }
    assert!(
        matches!(&seen[1 - delegate][..], [DbOp::Apply { entries, .. }] if entries[0].marks == [(0, 1)]),
        "{:?}",
        seen[1 - delegate]
    );

    request(&mut sim, (client, mw), 20_000, 2, 1, "BEGIN ISOLATION LEVEL SERIALIZABLE");
    request(&mut sim, (client, mw), 21_000, 2, 2, "INSERT INTO t1 VALUES (2, 1)");
    sim.run_until(SimTime(30_000));
    let opened: Vec<Statement> = ops(&mut sim)
        .into_iter()
        .flatten()
        .filter_map(|op| match op {
            DbOp::Delegate { begin: Some(begin), implicit: false, .. } => Some(whole(&begin)),
            _ => None,
        })
        .collect();
    assert_eq!(opened, [Statement::Begin { isolation: Some(IsolationLevel::Serializable) }]);

    let sent = |sim: &mut Sim<Msg>| ops(sim).iter().map(Vec::len).sum::<usize>();
    let before = sent(&mut sim);
    request(&mut sim, (client, mw), 40_000, 3, 1, "BEGIN");
    request(&mut sim, (client, mw), 41_000, 3, 2, "COMMIT");
    sim.run_until(SimTime(50_000));
    assert_eq!(sent(&mut sim), before, "BEGIN; COMMIT ran nothing anywhere");
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies, vec![Ok(ReplyBody::Ack); 5]);
}

/// A failed autocommit write at a real delegate: the node opens the
/// snapshot, runs the statement, and rolls the implicit transaction back
/// itself. Each of the three is charged as a parsed plan,
/// `STATEMENT_BASE_US - PARSE_US`, and nothing stays open.
#[test]
fn a_failed_implicit_statement_rolls_back_at_its_delegate() {
    use replimid_sql::result::cost_model::{PARSE_US, STATEMENT_BASE_US};
    let schema = ["CREATE DATABASE d", "USE d", "CREATE TABLE t1 (k INT PRIMARY KEY, v INT)"]
        .map(String::from);
    let engine = crate::cluster::build_engine(Default::default(), &schema);
    let node = crate::db_node::DbNode::new(engine, Some("d".into()));
    let (mut sim, dbs, mw, client) = writeset_cluster(vec![node], None);
    let service = |sim: &mut Sim<Msg>| {
        sim.with_actor::<crate::db_node::DbNode, _>(dbs[0], |d| d.trace.stage_histogram(Stage::DbService).sum_us())
    };
    request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
    sim.run_until(SimTime(10_000));
    let before = service(&mut sim);
    request(&mut sim, (client, mw), 10_000, 2, 1, "INSERT INTO t1 VALUES (1, 2)");
    sim.run_until(SimTime(20_000));
    assert_eq!(service(&mut sim) - before, 3 * (STATEMENT_BASE_US - PARSE_US));
    sim.with_actor::<crate::db_node::DbNode, _>(dbs[0], |d| assert_eq!(d.engine().active_transactions(), 0));
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies[0], Ok(ReplyBody::Ack));
    assert!(matches!(replies[1], Err(ReplyError::Sql(SqlError::DuplicateKey(_)))), "{:?}", replies[1]);
}

/// A middleware stand-in that keeps the answers a node sends it.
#[derive(Default)]
struct Answers(Vec<DbResp>);

impl Actor<Msg> for Answers {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::DbR(resp) = msg {
            self.0.push(resp);
        }
    }
}

/// Only the database knows which ordered writes it applied (§4.4.2). A
/// delegate's COMMIT whose positions the node already holds (its ack
/// raced a failure declaration) is answered as applied, and runs and
/// charges nothing; the same COMMIT at a position the node lacks runs.
#[test]
fn an_apply_of_positions_the_node_holds_runs_nothing() {
    let schema = ["CREATE DATABASE d", "USE d", "CREATE TABLE t1 (k INT PRIMARY KEY, v INT)"].map(String::from);
    let engine = crate::cluster::build_engine(Default::default(), &schema);
    let mut sim: Sim<Msg> = Sim::new(NetworkModel::lan(), 5);
    let node = sim.add_node(crate::db_node::DbNode::new(engine, Some("d".into())));
    let mw = sim.add_node(Answers::default());
    let send = |sim: &mut Sim<Msg>, at: u64, op: DbOp| sim.inject_as(SimTime(at), mw, node, Msg::Db(op));
    let insert = PlanExec::whole(std::sync::Arc::new(parse_statement("INSERT INTO t1 VALUES (1, 1)").unwrap()));
    send(&mut sim, 1_000, DbOp::Execute { op: 1, conn: 7, plan: PlanExec::begin(None) });
    send(&mut sim, 2_000, DbOp::Execute { op: 2, conn: 7, plan: insert });
    sim.run_until(SimTime(10_000));
    let service = |sim: &mut Sim<Msg>| {
        sim.with_actor::<crate::db_node::DbNode, _>(node, |d| d.trace.stage_histogram(Stage::DbService).sum_us())
    };
    let open = |sim: &mut Sim<Msg>| sim.with_actor::<crate::db_node::DbNode, _>(node, |d| d.engine().active_transactions());
    sim.with_actor::<crate::db_node::DbNode, _>(node, |d| d.engine_mut().note_applied(&[(0, 1)]));
    let commit = |op, marks| {
        let entry = ApplyEntry { payload: LogPayload::Plan { conn: 7, plan: PlanExec::commit() }, marks };
        DbOp::Apply { op, entries: vec![entry], parallel: true }
    };
    let before = service(&mut sim);
    send(&mut sim, 10_000, commit(3, vec![(0, 1)]));
    sim.run_until(SimTime(20_000));
    assert_eq!(service(&mut sim), before, "a skipped entry is charged nothing");
    assert_eq!(open(&mut sim), 1, "the COMMIT did not run");
    let last = sim.with_actor::<Answers, _>(mw, |a| a.0.last().cloned());
    assert!(
        matches!(&last, Some(DbResp::Applied { op: 3, results }) if matches!(&results[..], [EntryResult::Ok { body: ReplyBody::Ack, commit: None }])),
        "{last:?}"
    );

    send(&mut sim, 20_000, commit(4, vec![(0, 2)]));
    sim.run_until(SimTime(30_000));
    assert!(service(&mut sim) > before);
    assert_eq!(open(&mut sim), 0);
    let last = sim.with_actor::<Answers, _>(mw, |a| a.0.last().cloned());
    assert!(
        matches!(&last, Some(DbResp::Applied { op: 4, results }) if matches!(&results[..], [EntryResult::Ok { commit: Some(_), .. }])),
        "{last:?}"
    );
    assert_eq!(sim.with_actor::<crate::db_node::DbNode, _>(node, |d| d.ordered_applied()), [2]);
}

/// One queued timer covers every op timeout, and each op still times
/// out at exactly its dispatch + `op_timeout_us`, failing its waiter.
#[test]
fn op_timeouts_are_exact_and_cheap() {
    let timeout = MwConfig::defaults(Mode::MultiMasterWriteset).op_timeout_us;
    // A thousand reads complete well inside the timeout. Per-op timers
    // would leave a thousand queued events behind them.
    let (mut sim, _, mw, client) = writeset_cluster(vec![ScriptedDb::new(0)], None);
    sim.run_until(SimTime(50_000));
    let idle = sim.pending_events();
    for i in 0..1_000 {
        request(&mut sim, (client, mw), 50_000 + 200 * i, 10 + i, 1, "SELECT v FROM t1");
    }
    sim.run_until(SimTime(290_000));
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies, vec![Ok(ReplyBody::Ack); 1_000]);
    assert!(sim.pending_events() <= idle, "{} events queued, {idle} before the reads", sim.pending_events());
    assert!(sim.with_actor::<Middleware, _>(mw, |m| m.ops.sweep_armed));

    // A read dispatched between two pings to a backend that never
    // answers: its timeout fails the backend and tells the client.
    let (mut sim, _, mw, client) = writeset_cluster(vec![Silent], None);
    request(&mut sim, (client, mw), 25_000, 1, 1, "SELECT v FROM t1");
    sim.run_until(SimTime(25_000 + timeout - 1));
    sim.with_actor::<Middleware, _>(mw, |m| assert!(m.metrics.failover_times.is_empty()));
    sim.run_until(SimTime(25_000 + 2 * timeout));
    sim.with_actor::<Middleware, _>(mw, |m| assert_eq!(m.metrics.failover_times, [25_000 + timeout]));
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies, [Err(ReplyError::Unavailable("backend failed mid-request".into()))]);
}

/// LPRF (least pending requests first, §4.1.3) routes by the ops each
/// backend has in flight, so the count must be exactly the op table's.
/// Every kind of op releases it once, however it leaves the table:
/// answered (ship fetches at the master, replay and resync ops),
/// timed out (pings to a crashed backend) or failed with its backend.
#[test]
fn lprf_counts_only_ops_in_flight() {
    use crate::cluster::{Cluster, ClusterConfig};
    let schema = ["CREATE DATABASE d", "USE d", "CREATE TABLE t (k INT PRIMARY KEY, v INT)"].map(String::from).to_vec();
    let master_slave = Mode::MasterSlave {
        two_safe: false,
        ship_interval_us: 20_000,
        use_writesets: false,
        parallel_apply: false,
        read_master: false,
    };
    let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    for mode in [master_slave, statement] {
        let mut c = Cluster::build(ClusterConfig::new(mode.clone(), schema.clone(), "d"));
        let inserts = (0..200).map(|k| vec![format!("INSERT INTO t VALUES ({k}, 1)")]).collect();
        c.add_client(crate::ScriptSource::new(inserts), |cc| {
            cc.think_time_us = 2_000;
            cc.tx_limit = 200;
        });
        c.crash_backend_at(SimTime(1_000_000), 0, 2);
        c.restart_backend_at(SimTime(2_000_000), 0, 2);
        c.run_for(4_000_000);
        c.stop_clients();
        c.run_for(1_000_000);
        let mw = c.mw_nodes[0];
        c.sim.with_actor::<Middleware, _>(mw, |m| {
            assert_eq!(m.metrics.failover_times.len(), 1, "{mode:?}");
            assert!(m.backends[2].online(), "{mode:?}: backend 2 rejoined");
            for b in (0..3).map(BackendId) {
                let in_flight = m.ops.pending.values().filter(|(_, at, _)| *at == b).count() as u64;
                assert_eq!(m.balancer.outstanding(b), in_flight, "{mode:?} backend {}", b.0);
            }
        });
    }
}

/// BEGIN is deferred, so a session in a transaction without a delegate
/// is either about to pick one or has lost it. The second must not
/// look like the first: statements run after the loss would commit
/// without the ones before it.
#[test]
fn a_transaction_whose_delegate_is_lost_fails_instead_of_restarting() {
    let two = Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t1", 1);
    for placement in [None, Some(two)] {
        let dbs = vec![ScriptedDb::new(0), ScriptedDb::new(0)];
        let (mut sim, _, mw, client) = writeset_cluster(dbs, placement);
        let mut stmt_seq = 0;
        let mut send = |sim: &mut Sim<Msg>, at: u64, sql: &str| {
            stmt_seq += 1;
            request(sim, (client, mw), at, 1, stmt_seq, sql);
        };
        send(&mut sim, 1_000, "BEGIN ISOLATION LEVEL SERIALIZABLE");
        send(&mut sim, 2_000, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(4_000));
        let delegate = sim.with_actor::<Middleware, _>(mw, |m| {
            let s = m.sessions.get(1).expect("the session exists");
            assert!(s.in_tx && s.begin().is_none());
            s.sticky.expect("the first statement picked the delegate")
        });
        sim.inject(SimTime(4_500), mw, Msg::Admin(AdminCmd::RemoveBackend { backend: delegate }));
        send(&mut sim, 5_000, "INSERT INTO t1 VALUES (2, 1)");
        send(&mut sim, 6_000, "ROLLBACK");
        send(&mut sim, 7_000, "BEGIN");
        send(&mut sim, 8_000, "INSERT INTO t1 VALUES (2, 1)");
        sim.run_until(SimTime(10_000));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        let ack = Ok(ReplyBody::Ack);
        let lost = Err(ReplyError::Unavailable("delegate lost".into()));
        assert_eq!(replies, [ack.clone(), ack.clone(), lost, ack.clone(), ack.clone(), ack]);
        let survivor = sim.with_actor::<Middleware, _>(mw, |m| m.sessions.get(1).and_then(|s| s.sticky));
        assert!(survivor.is_some() && survivor != Some(delegate));
    }
}

/// The same recipe with the delegate removed after the transaction's
/// last statement: its COMMIT has nothing it could certify, so it
/// fails as lost instead of acknowledging a commit that never happened.
#[test]
fn a_commit_whose_delegate_is_lost_fails() {
    let (mut sim, _, mw, client) = writeset_cluster(vec![ScriptedDb::new(0), ScriptedDb::new(0)], None);
    request(&mut sim, (client, mw), 1_000, 1, 1, "BEGIN");
    request(&mut sim, (client, mw), 2_000, 1, 2, "INSERT INTO t1 VALUES (1, 1)");
    sim.run_until(SimTime(4_000));
    let delegate = sim.with_actor::<Middleware, _>(mw, |m| m.sessions.get(1).and_then(|s| s.sticky));
    let delegate = delegate.expect("the INSERT picked the delegate");
    sim.inject(SimTime(4_500), mw, Msg::Admin(AdminCmd::RemoveBackend { backend: delegate }));
    request(&mut sim, (client, mw), 5_000, 1, 3, "COMMIT");
    sim.run_until(SimTime(10_000));
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    let lost = Err(ReplyError::Unavailable("delegate lost".into()));
    assert_eq!(replies, [Ok(ReplyBody::Ack), Ok(ReplyBody::Ack), lost]);
    sim.with_actor::<Middleware, _>(mw, |m| {
        assert_eq!(m.metrics.certifier.commits, 0);
        assert_eq!(m.metrics.counters.commits, 0);
        assert_eq!(m.metrics.counters.lost_transactions, 1);
    });
}

/// A real node that logs the ops it is sent (pings aside) and, when a
/// COMMIT arrives, what `Engine::pending_writeset` holds for it.
struct Recorded {
    node: crate::db_node::DbNode,
    ops: Vec<DbOp>,
    at_commit: Option<Writeset>,
}

impl Recorded {
    /// A node whose engine (`config`) ran `schema` after creating `d.t1`.
    fn new(config: replimid_sql::EngineConfig, schema: &[&str]) -> Self {
        let mut stmts = vec!["CREATE DATABASE d", "USE d", "CREATE TABLE t1 (k INT PRIMARY KEY, v INT)"];
        stmts.extend(schema);
        let schema: Vec<String> = stmts.into_iter().map(String::from).collect();
        let engine = crate::cluster::build_engine(config, &schema);
        Recorded { node: crate::db_node::DbNode::new(engine, Some("d".into())), ops: Vec::new(), at_commit: None }
    }
}

impl Actor<Msg> for Recorded {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match &msg {
            Msg::Db(DbOp::Ping { .. }) => {}
            Msg::Db(op) => {
                if let DbOp::Apply { entries, .. } = op {
                    for e in entries {
                        if let LogPayload::Plan { conn, plan } = &e.payload {
                            if *plan.template == Statement::Commit {
                                let c = self.node.conn_of(*conn).expect("the transaction's connection");
                                self.at_commit = self.node.engine().pending_writeset(c).ok();
                            }
                        }
                    }
                }
                self.ops.push(op.clone());
            }
            _ => {}
        }
        self.node.on_message(ctx, from, msg);
    }
}

/// An explicit transaction costs its delegate one op per statement and
/// then the COMMIT plan: the records each statement returned are the
/// writeset COMMIT certifies, equal to what the engine would extract
/// at that COMMIT, and they are what the other host applies.
#[test]
fn an_explicit_commit_certifies_the_records_its_statements_returned() {
    let dbs = vec![Recorded::new(Default::default(), &[]), Recorded::new(Default::default(), &[])];
    let (mut sim, dbs, mw, client) = writeset_cluster(dbs, None);
    let stmts = ["BEGIN", "INSERT INTO t1 VALUES (1, 1)", "UPDATE t1 SET v = 2 WHERE k = 1", "COMMIT"];
    for (i, sql) in stmts.into_iter().enumerate() {
        let i = i as u64;
        request(&mut sim, (client, mw), 1_000 + 2_000 * i, 1, i + 1, sql);
    }
    sim.run_until(SimTime(20_000));
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies, [ReplyBody::Ack, ReplyBody::Affected(1), ReplyBody::Affected(1), ReplyBody::Ack].map(Ok));
    let seen: Vec<(Vec<DbOp>, Option<Writeset>)> = dbs
        .iter()
        .map(|&d| sim.with_actor::<Recorded, _>(d, |r| (r.ops.clone(), r.at_commit.clone())))
        .collect();
    let delegate = seen.iter().position(|(ops, _)| ops.len() == 3).expect("one delegate");
    let stmt = |plan: &PlanExec| (*plan.template).clone();
    let (ops, at_commit) = &seen[delegate];
    match &ops[..] {
        [DbOp::Delegate { begin: Some(_), stmt: insert, implicit: false, .. }, DbOp::Delegate { begin: None, stmt: update, implicit: false, .. }, DbOp::Apply { entries, .. }] =>
        {
            assert_eq!(stmt(insert), parse_statement(stmts[1]).unwrap());
            assert_eq!(stmt(update), parse_statement(stmts[2]).unwrap());
            match &entries[..] {
                [ApplyEntry { payload: LogPayload::Plan { plan: commit, .. }, marks }] if marks == &[(0, 1)] => {
                    assert_eq!(stmt(commit), Statement::Commit);
                }
                other => panic!("the delegate's COMMIT: {other:?}"),
            }
        }
        other => panic!("the delegate saw {other:?}"),
    }
    let at_commit = at_commit.clone().expect("the delegate's transaction was open at COMMIT");
    assert_eq!(at_commit.len(), 2, "{at_commit:?}");
    match &seen[1 - delegate].0[..] {
        [DbOp::Apply { entries, .. }] => match &entries[..] {
            [ApplyEntry { payload: LogPayload::Ws(ws), .. }] => assert_eq!(*ws, at_commit),
            other => panic!("the other host applied {other:?}"),
        },
        other => panic!("the other host saw {other:?}"),
    }
    sim.with_actor::<Middleware, _>(mw, |m| assert_eq!(m.metrics.certifier.commits, 1));
}

/// A certified transaction whose delegate refuses its COMMIT (the
/// delegate's own 1SR read validation): the delegate's positions are not
/// credited and its part fails, so one divergence is counted; the other
/// host applies the writeset and is credited. The transaction is
/// committed cluster-wide, so the client is told it committed.
#[test]
fn a_refused_delegate_commit_credits_nothing() {
    let (mut sim, dbs, mw, client) = writeset_cluster(vec![ScriptedDb::new(0), ScriptedDb::new(0)], None);
    for &d in &dbs {
        sim.with_actor::<ScriptedDb, _>(d, |d| d.refuse_commit = true);
    }
    request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
    sim.run_until(SimTime(10_000));
    let delegate = (0..2)
        .find(|&b| sim.with_actor::<ScriptedDb, _>(dbs[b], |d| d.ops.iter().any(|op| matches!(op, DbOp::Delegate { .. }))))
        .expect("a delegate ran the statement");
    sim.with_actor::<Middleware, _>(mw, |m| {
        assert_eq!(m.pw_mark(BackendId(delegate), 0), 0);
        assert_eq!(m.pw_mark(BackendId(1 - delegate), 0), 1);
        assert_eq!(m.metrics.counters.divergence_detected, 1);
        assert_eq!(m.metrics.counters.commits, 1);
    });
    let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
    assert_eq!(replies, [Ok(ReplyBody::Ack)]);
}

/// A statement error inside an explicit transaction. Where it poisons
/// the transaction, COMMIT answers the abort, certifies nothing and
/// rolls the transaction back at the delegate; where the engine
/// continues, COMMIT certifies the records of the statements before it.
#[test]
fn commit_after_a_failed_statement_follows_the_error_mode() {
    use replimid_sql::{EngineConfig, ErrorMode};
    for mode in [ErrorMode::AbortTransaction, ErrorMode::ContinueTransaction] {
        let config = EngineConfig { error_mode: mode, ..Default::default() };
        let (mut sim, dbs, mw, client) =
            writeset_cluster(vec![Recorded::new(config, &["INSERT INTO t1 VALUES (1, 1)"])], None);
        let stmts = ["BEGIN", "INSERT INTO t1 VALUES (2, 1)", "INSERT INTO t1 VALUES (1, 5)", "COMMIT"];
        for (i, sql) in stmts.into_iter().enumerate() {
            let i = i as u64;
            request(&mut sim, (client, mw), 1_000 + 2_000 * i, 1, i + 1, sql);
        }
        sim.run_until(SimTime(20_000));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert!(matches!(replies[2], Err(ReplyError::Sql(SqlError::DuplicateKey(_)))), "{:?}", replies[2]);
        let poisoned = mode == ErrorMode::AbortTransaction;
        let certified = sim.with_actor::<Middleware, _>(mw, |m| m.metrics.certifier.checks);
        let rows = sim.with_actor::<Recorded, _>(dbs[0], |r| {
            assert_eq!(r.node.engine().active_transactions(), 0, "{mode:?}");
            let e = r.node.engine_mut();
            let c = e.connect(replimid_sql::ADMIN_USER, replimid_sql::ADMIN_PASSWORD).expect("admin login");
            match e.execute(c, "SELECT COUNT(*) FROM d.t1").expect("count").outcome {
                replimid_sql::Outcome::Rows(rs) => rs.rows[0][0].as_int(),
                other => panic!("{other:?}"),
            }
        });
        if poisoned {
            let aborted = SqlError::TransactionState("transaction is aborted; COMMIT rolled it back".into());
            assert_eq!(replies[3], Err(ReplyError::Sql(aborted)));
            assert_eq!((certified, rows), (0, Some(1)));
        } else {
            assert_eq!(replies[3], Ok(ReplyBody::Ack));
            assert_eq!((certified, rows), (1, Some(2)));
        }
    }
}

/// Statement replication delivers every ordered statement as a batch:
/// unbatched, a batch of one, carrying the statement's log position; with
/// group commit, one batch for the statements flushed together. Each
/// entry settles on its own: its marks are credited whatever its outcome
/// (a statement that fails on every backend failed the same way
/// everywhere), and each client is answered from its own statement's
/// result.
#[test]
fn an_ordered_statement_is_a_batch_of_one() {
    let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    let ok = "INSERT INTO t1 VALUES (2, 1)";
    let fails = "INSERT INTO t2 VALUES (2, 1)";
    for (batch_max, second) in [(1, ok), (2, ok), (2, fails)] {
        let mut cfg = MwConfig::defaults(statement.clone());
        cfg.batch_max = batch_max;
        cfg.batch_deadline_us = 5_000;
        let (mut sim, dbs, mw, client) = cluster(cfg, vec![ScriptedDb::new(0), ScriptedDb::new(0)]);
        let other = sim.add_node(Sink::default());
        request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
        request(&mut sim, (other, mw), 1_000, 2, 1, second);
        sim.run_until(SimTime(20_000));
        for &d in &dbs {
            let batches: Vec<Vec<Vec<(u32, u64)>>> = sim.with_actor::<ScriptedDb, _>(d, |d| {
                d.ops
                    .iter()
                    .map(|op| match op {
                        DbOp::Apply { entries, .. } => entries.iter().map(|e| e.marks.clone()).collect(),
                        other => panic!("batch_max={batch_max}: {other:?}"),
                    })
                    .collect()
            });
            let expected = if batch_max == 1 { vec![vec![vec![(0, 1)]], vec![vec![(0, 2)]]] } else { vec![vec![vec![(0, 1)], vec![(0, 2)]]] };
            assert_eq!(batches, expected, "batch_max={batch_max}");
        }
        let replies = |sim: &mut Sim<Msg>, c: NodeId| sim.with_actor::<Sink, _>(c, |c| c.replies.clone());
        assert_eq!(replies(&mut sim, client), [Ok(ReplyBody::Ack)]);
        let unknown = Err(ReplyError::Sql(SqlError::UnknownTable("t2".into())));
        let own = if second == ok { Ok(ReplyBody::Ack) } else { unknown };
        assert_eq!(replies(&mut sim, other), [own], "{second}");
        sim.with_actor::<Middleware, _>(mw, |m| {
            assert_eq!(m.pw_mark(BackendId(0), 0), 2);
            assert_eq!(m.pw_mark(BackendId(1), 0), 2);
            assert_eq!(m.metrics.counters.divergence_detected, 0);
        });
    }
}

/// A total-order slot reaches each host as one `Apply` in writeset mode
/// too: two sessions' autocommit INSERTs certified in one group-committed
/// slot give each backend one op of both commits' entries, in slot order.
/// A delegate's entry is its own transaction's COMMIT, and any other
/// host's is the writeset. Both clients are answered, and both positions
/// are credited at both backends.
#[test]
fn a_slot_of_certified_commits_is_one_apply_per_host() {
    let mut cfg = MwConfig::defaults(Mode::MultiMasterWriteset);
    cfg.batch_max = 2;
    cfg.batch_deadline_us = 5_000;
    let (mut sim, dbs, mw, client) = cluster(cfg, vec![ScriptedDb::new(0), ScriptedDb::new(0)]);
    let other = sim.add_node(Sink::default());
    request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
    request(&mut sim, (other, mw), 1_000, 2, 1, "INSERT INTO t1 VALUES (2, 1)");
    sim.run_until(SimTime(20_000));
    let mut orders = Vec::new();
    for &d in &dbs {
        let ops = sim.with_actor::<ScriptedDb, _>(d, |d| d.ops.clone());
        let delegated: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                DbOp::Delegate { conn, .. } => Some(*conn),
                _ => None,
            })
            .collect();
        let applies: Vec<&Vec<ApplyEntry>> = ops
            .iter()
            .filter_map(|op| match op {
                DbOp::Apply { entries, .. } => Some(entries),
                _ => None,
            })
            .collect();
        assert_eq!(applies.len(), 1, "one Apply per host per slot: {ops:?}");
        let mut order = Vec::new();
        for (i, e) in applies[0].iter().enumerate() {
            let (session, commit) = match &e.payload {
                LogPayload::Plan { conn, plan } => {
                    assert_eq!(*plan.template, Statement::Commit);
                    (*conn, true)
                }
                LogPayload::Ws(ws) => ((1..=2).find(|&s| *ws == insert_ws(s as i64)).expect("a session's rows"), false),
                LogPayload::End { .. } => panic!("no session ended: {ops:?}"),
            };
            assert_eq!(commit, delegated.contains(&session), "session {session}: {ops:?}");
            assert_eq!(e.marks, [(0, i as u64 + 1)]);
            order.push(session);
        }
        orders.push(order);
    }
    let mut sessions = orders[0].clone();
    sessions.sort_unstable();
    assert_eq!(sessions, [1, 2]);
    assert_eq!(orders[0], orders[1], "both hosts apply in slot order");
    for c in [client, other] {
        assert_eq!(sim.with_actor::<Sink, _>(c, |c| c.replies.clone()), [Ok(ReplyBody::Ack)]);
    }
    sim.with_actor::<Middleware, _>(mw, |m| {
        assert_eq!((m.pw_mark(BackendId(0), 0), m.pw_mark(BackendId(1), 0)), (2, 2));
        assert_eq!(m.metrics.counters.commits, 2);
        assert_eq!(m.metrics.counters.divergence_detected, 0);
    });
}

/// A backend that fails, or times out, before it answers an ordered
/// unit's `Apply` is failed and rejoins by replay; that is no divergence,
/// for an ordered statement and a certified commit alike. Its positions
/// stay uncredited, and the client is answered from the other backend.
#[test]
fn an_unanswered_apply_is_no_divergence() {
    let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    for mode in [statement, Mode::MultiMasterWriteset] {
        let cfg = MwConfig::defaults(mode.clone());
        let timeout = cfg.op_timeout_us;
        let (mut sim, dbs, mw, client) = cluster(cfg, vec![ScriptedDb::new(0), ScriptedDb::new(0)]);
        sim.with_actor::<ScriptedDb, _>(dbs[1], |d| d.silent_applies = true);
        request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
        sim.run_until(SimTime(1_000 + 2 * timeout));
        let replies = sim.with_actor::<Sink, _>(client, |c| c.replies.clone());
        assert_eq!(replies, [Ok(ReplyBody::Ack)], "{mode:?}");
        sim.with_actor::<Middleware, _>(mw, |m| {
            assert!(!m.backends[1].online(), "{mode:?}: the silent backend was failed");
            assert_eq!(m.metrics.counters.divergence_detected, 0, "{mode:?}");
            assert_eq!((m.pw_mark(BackendId(0), 0), m.pw_mark(BackendId(1), 0)), (1, 0), "{mode:?}");
        });
    }
}

/// An ordered statement whose last backend fails after its client moved
/// on (an open-loop client sends its next statement under a new
/// `stmt_seq` once a request times out) settles without answering: the
/// session's next statement, still waiting in the group-commit buffer,
/// keeps its place and is answered.
#[test]
fn a_late_settle_leaves_the_sessions_next_statement_alone() {
    let mut cfg = MwConfig::defaults(Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject });
    cfg.batch_max = 2;
    cfg.batch_deadline_us = 20_000;
    let (mut sim, dbs, mw, client) = cluster(cfg, vec![ScriptedDb::new(0), ScriptedDb::new(0)]);
    sim.with_actor::<ScriptedDb, _>(dbs[1], |d| d.silent_applies = true);
    // Statement 1 fans out at 21 ms and waits on backend 1. Statement 2
    // waits in the buffer from 40 ms to 60 ms, and backend 1 is removed
    // in between, which settles statement 1.
    request(&mut sim, (client, mw), 1_000, 1, 1, "INSERT INTO t1 VALUES (1, 1)");
    request(&mut sim, (client, mw), 40_000, 1, 2, "INSERT INTO t1 VALUES (2, 1)");
    sim.inject(SimTime(50_000), mw, Msg::Admin(AdminCmd::RemoveBackend { backend: BackendId(1) }));
    sim.run_until(SimTime(100_000));
    let (replies, seqs) = sim.with_actor::<Sink, _>(client, |c| (c.replies.clone(), c.seqs.clone()));
    assert_eq!((replies, seqs), (vec![Ok(ReplyBody::Ack)], vec![2]));
}

/// The middleware counts one commit per committed transaction, in every
/// mode: a statement's commit is counted once, not once per backend
/// that ran it.
#[test]
fn commits_count_once_per_transaction_in_every_mode() {
    use crate::cluster::{Cluster, ClusterConfig};
    let schema = ["CREATE DATABASE d", "USE d", "CREATE TABLE t (k INT PRIMARY KEY, v INT)"].map(String::from).to_vec();
    let master_slave = Mode::MasterSlave {
        two_safe: false,
        ship_interval_us: 20_000,
        use_writesets: false,
        parallel_apply: false,
        read_master: false,
    };
    let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    for mode in [statement, Mode::MultiMasterWriteset, master_slave] {
        let mut c = Cluster::build(ClusterConfig::new(mode.clone(), schema.clone(), "d"));
        let inserts = (0..100).map(|k| vec![format!("INSERT INTO t VALUES ({k}, 1)")]).collect();
        let client = c.add_client(crate::ScriptSource::new(inserts), |cc| {
            cc.think_time_us = 1_000;
            cc.tx_limit = 100;
        });
        c.run_for(2_000_000);
        let committed = c.client_metrics(client).committed;
        assert_eq!(committed, 100, "{mode:?}");
        assert_eq!(c.mw_metrics(0).counters.commits, committed, "{mode:?}");
    }
}

fn router(mode: Mode, policy: ReadPolicy, placement: Option<Placement>, backends: usize) -> Middleware {
    let mut cfg = MwConfig::defaults(mode);
    cfg.read_policy = policy;
    cfg.placement = placement;
    cfg.quarantine = Some(QuarantineConfig::default());
    let nodes = (0..backends).map(NodeId).collect();
    Middleware::new(cfg, 0, vec![NodeId(backends)], nodes)
}

/// Trip backend `b`'s breaker: a learned baseline, then a brownout.
fn quarantine(m: &mut Middleware, b: usize) {
    for t in 1..200 {
        m.detect.watch[b].health.on_completion(t, if t <= 20 { 100 } else { 100_000 });
    }
    assert!(m.is_quarantined(BackendId(b)));
}

fn eligible_set(m: &Middleware, gset: &[usize], needs: &[(usize, u64)]) -> Vec<usize> {
    (0..m.backends.len()).filter(|&b| m.eligible(BackendId(b), gset, needs)).collect()
}

#[test]
fn read_eligibility_with_one_group() {
    let statement = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    let mut m = router(statement, ReadPolicy::Fresh, None, 3);
    let select = parse_statement("SELECT v FROM bench WHERE k = 1").unwrap();
    assert_eq!(m.shards.stmt_groups(&select), [0]);
    m.shards.marks[0][0] = Watermark::at(9);
    m.shards.marks[1][0] = Watermark::at(4); // the stale host
    m.shards.marks[2][0] = Watermark::at(9);
    // A session that has written nothing needs nothing: every host
    // qualifies, whatever it has applied.
    m.session(SessionId(1), None);
    assert_eq!(m.read_needs(SessionId(1), &[0]), []);
    assert_eq!(eligible_set(&m, &[0], &[]), [0, 1, 2]);
    // Its write at position 7 cuts the replica that has not applied it.
    raise(&mut m.session(SessionId(1), None).gstamps, 0, 7);
    let needs = m.read_needs(SessionId(1), &[0]);
    assert_eq!(needs, [(0, 7)]);
    assert_eq!(eligible_set(&m, &[0], &needs), [0, 2]);
    // Quarantine and leaving the rotation cut a caught-up replica too,
    // but a quarantined one that could serve may still carry the probe.
    quarantine(&mut m, 2);
    m.backends[0].state = BackendState::Down;
    assert_eq!(eligible_set(&m, &[0], &needs), []);
    assert!(m.can_serve(BackendId(2), &[0], &needs));
    assert!(!m.can_serve(BackendId(0), &[0], &needs));
    // Bounded staleness lowers the bar by its slack; no slack, no bar.
    m.cfg.read_policy = ReadPolicy::BoundedStaleness(3);
    assert_eq!(m.read_needs(SessionId(1), &[0]), [(0, 4)]);
    m.cfg.read_policy = ReadPolicy::SessionSticky;
    assert_eq!(m.read_needs(SessionId(1), &[0]), []);
}

#[test]
fn read_eligibility_with_two_groups() {
    let placement = Placement::new(vec![vec![0, 1, 2], vec![1, 2, 3]]).assign("a", 0).assign("b", 1);
    let mut m = router(Mode::MultiMasterWriteset, ReadPolicy::Fresh, Some(placement), 4);
    let join = parse_statement("SELECT a.v FROM a JOIN b ON a.k = b.k").unwrap();
    assert_eq!(m.shards.stmt_groups(&join), [0, 1]);
    assert_eq!(m.shards.stmt_groups(&parse_statement("SELECT v FROM b").unwrap()), [1]);
    // Empty needs: the hosts of every group read, and only those.
    assert_eq!(eligible_set(&m, &[0], &[]), [0, 1, 2]);
    assert_eq!(eligible_set(&m, &[0, 1], &[]), [1, 2]);
    // The session wrote position 2 of group 0 and 1 of group 1. Backend
    // 1 is behind in group 1, backend 2 has both, backend 0 has group 0
    // only and backend 3 group 1 only.
    for (b, g, pos) in [(0, 0, 1), (0, 0, 2), (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2), (2, 1, 1), (3, 1, 1)] {
        m.shards.marks[b][g].mark(pos);
    }
    let s = m.session(SessionId(1), None);
    raise(&mut s.gstamps, 0, 2);
    raise(&mut s.gstamps, 1, 1);
    let needs = m.read_needs(SessionId(1), &[0, 1]);
    assert_eq!(needs, [(0, 2), (1, 1)]);
    assert_eq!(eligible_set(&m, &[0, 1], &needs), [2]);
    // A read of one group asks for that group's position only.
    let needs0 = m.read_needs(SessionId(1), &[0]);
    assert_eq!(needs0, [(0, 2)]);
    assert_eq!(eligible_set(&m, &[0], &needs0), [0, 1, 2]);
    assert_eq!(eligible_set(&m, &[1], &m.read_needs(SessionId(1), &[1])), [2, 3]);
    // Quarantine is cut after the host set: with both hosts of the
    // join quarantined the slow answer still beats no answer, and an
    // unquarantined non-host never enters the candidates.
    quarantine(&mut m, 1);
    assert_eq!(eligible_set(&m, &[0, 1], &[]), [2]);
    assert_eq!(m.read_candidates(&[0, 1]), [BackendId(2)]);
    quarantine(&mut m, 2);
    assert_eq!(eligible_set(&m, &[0, 1], &[]), []);
    assert_eq!(m.read_candidates(&[0, 1]), [BackendId(1), BackendId(2)]);
}

#[test]
fn mode_defaults_are_sane() {
    let cfg = MwConfig::defaults(Mode::MultiMasterWriteset);
    assert!(cfg.op_timeout_us >= cfg.heartbeat.timeout_us);
    assert!(!cfg.require_majority);
}



/// Every session pays for its `Sess` slot in the session table (400 bytes
/// while the writeset, temp-table and 2-safe state sat in it and two
/// request metas took a heap block of their own).
#[test]
fn a_session_record_is_at_most_224_bytes() {
    let bytes = std::mem::size_of::<Sess>();
    println!("footprint: middleware session record: {bytes} bytes");
    assert!(bytes <= 224, "{bytes} bytes per session");
}
