//! Partial replication end-to-end properties: outcome preservation vs the
//! full-replication baseline, row flow restricted to hosting backends,
//! cross-group (2PC-style) commit atomicity including crash injection
//! mid-protocol, and the trivial-placement byte-identity guarantee; and
//! the same for a table partitioned on its key, whose partitions are
//! groups.

use replimid_bench::{aggregate, partial_ws_cfg, run_and_drain, striped_placement, SeqInsert};
use replimid_core::{
    ClientRequest, Cluster, ClusterConfig, Granularity, Mode, Msg, PartitionScheme, Placement, ReadPolicy,
    ReplyBody, SessionId, TxSource,
};
use replimid_det::{detcheck, DetRng};
use replimid_simnet::{dur, Actor, Ctx, LinkSpec, NetworkModel, NodeId, SimTime};
use replimid_sql::{CrashKind, DurabilityConfig, Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::micro::{self, DisjointInsert, KeyedUpdates};

/// Total row count of `table` at backend `(0, b)`; `table` may carry a
/// `WHERE` clause.
fn rows_at(cluster: &mut Cluster, b: usize, table: &str) -> i64 {
    cluster.with_backend_engine(0, b, |e| {
        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
        e.execute(c, "USE bench").unwrap();
        let out = e.execute(c, &format!("SELECT COUNT(*) FROM {table}")).unwrap().outcome;
        e.disconnect(c);
        match out {
            Outcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
            other => panic!("expected rows, got {other:?}"),
        }
    })
}

/// The 4-backend / 3-group test placement: groups 0 and 1 share hosts
/// {0,1}; group 2 lives on {2,3}. Multi-group transactions over groups
/// 0+1 have a host intersection; none exists across the {0,1}/{2,3} cut.
fn test_placement() -> Placement {
    Placement::new(vec![vec![0, 1], vec![0, 1], vec![2, 3]])
        .assign("t0", 0)
        .assign("t1", 1)
        .assign("t2", 2)
}

/// The test placement with `t0` in two range partitions, `k < SPLIT` in
/// group 0 and the rest in group 1, which share hosts {0,1}.
fn split_placement() -> Placement {
    Placement::new(vec![vec![0, 1], vec![0, 1], vec![2, 3]])
        .partition("t0", PartitionScheme::Range { column: "k".into(), bounds: vec![SPLIT] }, vec![0, 1])
        .assign("t1", 1)
        .assign("t2", 2)
}

const SPLIT: i64 = 1_000_000_000;

/// One autocommit INSERT of two rows per transaction, `k` and `k + SPLIT`:
/// one row in each partition of [`split_placement`]'s `t0`.
struct SplitInsert {
    next: i64,
}

impl TxSource for SplitInsert {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO t0 VALUES ({k}, 1), ({}, 1)", k + SPLIT)]
    }
}

#[test]
fn partial_smoke_rows_flow_only_to_hosts() {
    let mut cfg = partial_ws_cfg(3, 4, Some(test_placement()));
    cfg.seed = 7;
    let mut cluster = Cluster::build(cfg);
    let clients: Vec<NodeId> = (0..3)
        .map(|g| {
            cluster.add_client(DisjointInsert::new(1_000_000 * (g as i64 + 1), g), |cc| {
                cc.think_time_us = 1_000;
                cc.tx_limit = 600; // quiesce before measuring (see atomic test)
            })
        })
        .collect();
    run_and_drain(&mut cluster, 3);
    let agg = aggregate(&mut cluster, &clients);
    assert!(agg.committed > 100, "committed {}", agg.committed);
    assert_eq!(agg.failed, 0, "failed {}", agg.failed);
    // Rows land on every hosting backend and ONLY there.
    for (table, hosts) in [("t0", [0, 1]), ("t1", [0, 1]), ("t2", [2, 3])] {
        let counts: Vec<i64> = (0..4).map(|b| rows_at(&mut cluster, b, table)).collect();
        assert!(counts[hosts[0]] > 0, "{table} empty at host: {counts:?}");
        assert_eq!(counts[hosts[0]], counts[hosts[1]], "{table} hosts diverge: {counts:?}");
        for b in 0..4 {
            if !hosts.contains(&b) {
                assert_eq!(counts[b], 0, "{table} leaked to non-host {b}: {counts:?}");
            }
        }
    }
}

#[test]
fn cross_group_commit_smoke() {
    let mut cfg = partial_ws_cfg(3, 4, Some(test_placement()));
    cfg.seed = 11;
    let mut cluster = Cluster::build(cfg);
    // Every transaction spans groups 0 and 1 (partner pair), hosted by
    // backends {0,1}.
    let c = cluster.add_client(DisjointInsert::new(1, 0).with_multi(1.0), |cc| {
        cc.think_time_us = 1_000;
        cc.tx_limit = 500; // quiesce before measuring (see atomic test)
    });
    run_and_drain(&mut cluster, 3);
    let m = cluster.client_metrics(c);
    assert!(m.committed > 50, "committed {}", m.committed);
    assert_eq!(m.failed, 0, "failed {}", m.failed);
    let mw = cluster.mw_metrics(0);
    assert!(mw.counters.xgroup_commits > 0, "no cross-group commits recorded");
    // Atomicity: for every key, the t0 row and the t1 row exist together
    // or not at all, identically on both hosting backends.
    for b in [0usize, 1] {
        assert_eq!(
            rows_at(&mut cluster, b, "t0"),
            rows_at(&mut cluster, b, "t1"),
            "t0/t1 row counts diverge at backend {b}"
        );
    }
    assert_eq!(rows_at(&mut cluster, 0, "t0"), rows_at(&mut cluster, 1, "t0"));
}

/// Certification decides between two transactions that write the same row
/// and overlap (each began before the other committed), at two delegates
/// (round-robin): the first to certify commits and the other gets a
/// retryable `WriteConflict`. One group: a quorum of one, no cross-group
/// decision. Two co-hosted groups, where one transaction writes both
/// tables and the other one of them: the decision over both groups is one
/// cross-group commit or abort.
#[test]
fn first_committer_wins_in_one_group_and_across_two() {
    let update = |table: &str| format!("UPDATE {table} SET v = v + 1 WHERE k = 1");
    let arms = [
        (None, vec![update("t0")], 0),
        (
            Some(Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t0", 0).assign("t1", 1)),
            vec![update("t0"), update("t1")],
            1,
        ),
    ];
    for (placement, first, xgroup) in arms {
        let mut cfg = partial_ws_cfg(2, 2, placement);
        cfg.schema = micro::disjoint_schema("bench", 2, 4);
        let mut cluster = Cluster::build(cfg);
        let script = |writes: Vec<String>| {
            let mut tx = vec!["BEGIN".to_string()];
            tx.extend(writes);
            tx.push("COMMIT".into());
            replimid_core::ScriptSource::new(vec![tx])
        };
        let clients: Vec<NodeId> = [first, vec![update("t0")]]
            .into_iter()
            .map(|writes| {
                cluster.add_client(script(writes), |cc| {
                    cc.tx_limit = 1;
                    cc.max_retries = 0;
                })
            })
            .collect();
        run_and_drain(&mut cluster, 1);
        let ms: Vec<_> = clients.iter().map(|&c| cluster.client_metrics(c)).collect();
        let arm = format!("{} group(s)", xgroup + 1);
        assert_eq!(ms.iter().map(|m| m.committed).sum::<u64>(), 1, "{arm}: commits");
        let loser = ms.iter().find(|m| m.committed == 0).expect("one transaction lost");
        assert_eq!(loser.failed, 1, "{arm}");
        let err = loser.last_error.as_deref().unwrap_or("");
        // A write conflict is retryable (`SqlError::is_retryable`); the
        // client here has no retries left, so it reports it as failed.
        assert!(err.starts_with("Sql(WriteConflict"), "{arm}: {err}");
        let c = cluster.mw_metrics(0).counters;
        assert_eq!(c.certification_failures, 1, "{arm}");
        assert_eq!(c.xgroup_commits + c.xgroup_aborts, xgroup, "{arm}");
        let sums = cluster.backend_checksums();
        assert_eq!(sums[0][0], sums[0][1], "{arm}");
    }
}

/// Random placements, client mixes, and seeds: every committed single-group
/// insert lands exactly once on every hosting backend and nowhere else, the
/// hosting replicas of each group never diverge, and no client observes a
/// failure. This is the partial-replication analogue of one-copy
/// equivalence for disjoint workloads.
#[test]
fn partial_replication_preserves_outcomes() {
    detcheck::check("partial_replication_preserves_outcomes", 6, |rng| {
        let backends = 3 + (rng.gen_range(0..2) as usize);
        let groups = 2 + (rng.gen_range(0..3) as usize);
        // Random host set per group: each group gets 1..=backends distinct
        // hosts starting at a random offset (contiguous modulo ring keeps
        // the sets easy to reason about and always non-empty).
        let hosts: Vec<Vec<usize>> = (0..groups)
            .map(|_| {
                let n = 1 + (rng.gen_range(0..backends as u64) as usize);
                let start = rng.gen_range(0..backends as u64) as usize;
                (0..n).map(|i| (start + i) % backends).collect()
            })
            .collect();
        // The random ring can produce 1-host groups.
        let mut placement = Placement::new(hosts.clone());
        for g in 0..groups {
            placement = placement.assign(&format!("t{g}"), g);
        }
        let mut cfg = partial_ws_cfg(groups, backends, Some(placement));
        cfg.seed = rng.gen();
        let mut cluster = Cluster::build(cfg);
        let n_clients = 2 + (rng.gen_range(0..3) as usize);
        let homes: Vec<usize> =
            (0..n_clients).map(|_| rng.gen_range(0..groups as u64) as usize).collect();
        let clients: Vec<NodeId> = homes
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                cluster.add_client(DisjointInsert::new(1_000_000 * (i as i64 + 1), g), |cc| {
                    cc.think_time_us = 2_000;
                    cc.tx_limit = 300; // quiesce before measuring (see atomic test)
                })
            })
            .collect();
        run_and_drain(&mut cluster, 2);
        let agg = aggregate(&mut cluster, &clients);
        assert!(agg.committed > 0, "nothing committed (hosts {hosts:?})");
        assert_eq!(agg.failed, 0, "failures (hosts {hosts:?})");
        let mut total_rows = 0i64;
        for g in 0..groups {
            let table = format!("t{g}");
            let counts: Vec<i64> = (0..backends).map(|b| rows_at(&mut cluster, b, &table)).collect();
            for (b, &c) in counts.iter().enumerate() {
                if hosts[g].contains(&b) {
                    assert_eq!(c, counts[hosts[g][0]], "{table} hosts diverge: {counts:?}");
                } else {
                    assert_eq!(c, 0, "{table} leaked to non-host {b}: {counts:?}");
                }
            }
            total_rows += counts[hosts[g][0]];
        }
        // Exactly-once: one committed autocommit insert = one row, on every
        // host of its group and nowhere else.
        assert_eq!(total_rows as u64, agg.committed, "rows vs commits (hosts {hosts:?})");
    });
}

/// Cross-group transactions stay atomic under backend crashes injected
/// mid-protocol: the crashed replica rejoins by replaying both groups' log
/// streams from its own positions (never a donor dump) while cross-group
/// transactions are in flight, and then partner row sets hold identical
/// rows on both hosting backends — never a t0 row without its t1 sibling,
/// nor one half of a multi-row INSERT over two partitions of one table
/// without the other. Crash kinds exercise the durable-image semantics
/// (clean, lost tail, torn tail) so prepared-but-undecided work crosses a
/// real recovery, not a fiat restart.
#[test]
fn cross_group_commit_is_atomic() {
    detcheck::check("cross_group_commit_is_atomic", 5, |rng| {
        let seed = rng.gen();
        // Crash one of the two backends hosting groups 0+1 while 2PC
        // traffic is in full flight; restart it and let its rejoin replay
        // each group's stream from the node's own positions.
        let victim = rng.gen_range(0..2) as usize;
        let kind = *detcheck::pick(rng, &[CrashKind::Clean, CrashKind::LostTail, CrashKind::TornTail]);
        let crash_us = 500_000u64 + rng.gen_range(0..1_000_000u64);
        for split in [false, true] {
            let placement = if split { split_placement() } else { test_placement() };
            let mut cfg = partial_ws_cfg(3, 4, Some(placement));
            cfg.seed = seed;
            cfg.engine.durability = Some(DurabilityConfig::default());
            let mut cluster = Cluster::build(cfg);
            let clients: Vec<NodeId> = (0..2)
                .map(|i| {
                    let base = 1_000_000 * (i as i64 + 1);
                    let setup = |cc: &mut replimid_core::ClientConfig| {
                        cc.think_time_us = 1_000;
                        // Quiesce well before the run ends: an unbounded
                        // client always has one last transaction mid-fan-out
                        // when the clock stops, and a half-applied final
                        // transaction reads as (phantom) divergence.
                        cc.tx_limit = 1_000;
                    };
                    if split {
                        cluster.add_client(SplitInsert { next: base }, setup)
                    } else {
                        cluster.add_client(DisjointInsert::new(base, 0).with_multi(1.0), setup)
                    }
                })
                .collect();
            cluster.crash_backend_with(SimTime(crash_us), 0, victim, kind);
            cluster.restart_backend_at(SimTime(crash_us + 200_000), 0, victim);
            run_and_drain(&mut cluster, 6);
            let label = format!("split {split}, victim {victim} {kind:?} @ {crash_us}");
            let agg = aggregate(&mut cluster, &clients);
            assert!(agg.committed > 0, "nothing committed ({label})");
            assert!(agg.aborted + agg.failed < agg.committed, "mostly failing ({label})");
            let mw = cluster.mw_metrics(0);
            assert!(mw.counters.xgroup_commits > 0, "no cross-group commits recorded ({label})");
            assert!(mw.recoveries.iter().any(|r| r.0 == victim), "victim never rejoined ({label})");
            assert_eq!(mw.counters.full_resyncs, 0, "the rejoin fell back to a full resync ({label})");
            if std::env::var("PARTIAL_DEBUG").is_ok() {
                let keys = |cluster: &mut Cluster, b: usize| -> std::collections::BTreeSet<i64> {
                    cluster.with_backend_engine(0, b, |e| {
                        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
                        e.execute(c, "USE bench").unwrap();
                        let out = e.execute(c, "SELECT k FROM t0").unwrap().outcome;
                        e.disconnect(c);
                        match out {
                            Outcome::Rows(rs) => rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect(),
                            other => panic!("{other:?}"),
                        }
                    })
                };
                let k0 = keys(&mut cluster, 0);
                let k1 = keys(&mut cluster, 1);
                eprintln!("only at 0: {:?}", k0.difference(&k1).collect::<Vec<_>>());
                eprintln!("only at 1: {:?}", k1.difference(&k0).collect::<Vec<_>>());
                let mw = cluster.mw_metrics(0);
                eprintln!("counters: {:?}", mw.counters);
            }
            let (low, high) = (format!("t0 WHERE k < {SPLIT}"), format!("t0 WHERE k >= {SPLIT}"));
            let partners: [&str; 2] = if split { [&low, &high] } else { ["t0", "t1"] };
            for b in [0usize, 1] {
                assert_eq!(
                    rows_at(&mut cluster, b, partners[0]),
                    rows_at(&mut cluster, b, partners[1]),
                    "atomicity broken at backend {b} ({label})"
                );
            }
            for rows in partners {
                assert_eq!(
                    rows_at(&mut cluster, 0, rows),
                    rows_at(&mut cluster, 1, rows),
                    "{rows}: hosts diverged ({label})"
                );
            }
        }
    });
}

/// Increments over a few keys: a cross-group transaction on `t0` and `t1`,
/// or a single-group one on `t1`. A single-group increment certified in
/// group 1 between a cross-group transaction's start and its prepare makes
/// that transaction vote yes in group 0 and no in group 1.
struct PairedIncrements {
    keys: u64,
}

impl TxSource for PairedIncrements {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let k = rng.gen_range(0..self.keys);
        if rng.gen::<bool>() {
            vec![
                "BEGIN".to_string(),
                format!("UPDATE t0 SET v = v + 1 WHERE k = {k}"),
                format!("UPDATE t1 SET v = v + 1 WHERE k = {k}"),
                "COMMIT".to_string(),
            ]
        } else {
            vec![format!("UPDATE t1 SET v = v + 1 WHERE k = {k}")]
        }
    }
}

/// An aborted cross-group transaction voids the slot its yes vote
/// reserved, and no host ever applies that slot. The group's next commit
/// fan-out tells the hosts, so every host's own position in every group
/// reaches the log head: nothing is left for a rejoin to replay, and the
/// log can trim.
#[test]
fn voided_cross_group_slots_reach_every_host() {
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, micro::disjoint_schema("bench", 3, 8), "bench");
    cfg.seed = 17;
    cfg.backends_per_mw = 4;
    cfg.mw.placement = Some(test_placement());
    let mut cluster = Cluster::build(cfg);
    for _ in 0..4 {
        cluster.add_client(PairedIncrements { keys: 4 }, |cc| {
            cc.think_time_us = 300;
            cc.tx_limit = 300;
        });
    }
    run_and_drain(&mut cluster, 2);
    // One more commit in each group carries the last voided slots.
    for g in 0..2usize {
        cluster.add_client(DisjointInsert::new(1_000_000 * (g as i64 + 1), g), |cc| cc.tx_limit = 1);
    }
    run_and_drain(&mut cluster, 1);
    let mw = cluster.mw_metrics(0);
    assert!(mw.counters.xgroup_aborts > 0, "no cross-group transaction aborted");
    for g in 0..2 {
        let head = cluster.with_middleware(0, |m| m.group_log(g).head());
        for b in 0..2 {
            assert_eq!(cluster.backend_ordered_applied(0, b)[g], head, "backend {b} group {g}");
        }
    }
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][1], "hosts of groups 0 and 1 diverged");
}

/// Explicit `BEGIN … COMMIT` transactions (a point read, then an insert)
/// alternating with autocommit point reads and updates of the key just
/// written, all on one table: the traffic that crosses the read router and
/// the deferred BEGIN.
struct ReadWriteTx {
    next: i64,
    table: usize,
}

impl TxSource for ReadWriteTx {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let (k, t) = (self.next, self.table);
        self.next += 1;
        match k % 3 {
            0 => vec![
                "BEGIN ISOLATION LEVEL SNAPSHOT".to_string(),
                format!("SELECT v FROM t{t} WHERE k = {}", k - 1),
                format!("INSERT INTO t{t} VALUES ({k}, 1)"),
                "COMMIT".to_string(),
            ],
            1 => vec![format!("SELECT v FROM t{t} WHERE k = {}", k - 1)],
            _ => vec![format!("UPDATE t{t} SET v = v + 1 WHERE k = {}", k - 2)],
        }
    }
}

/// Full replication is the one-group placement, not a sibling
/// implementation: no placement at all and the explicit one-group-everywhere
/// placement run the same pipeline with G = 1 and agree on every counter,
/// certifier stat and backend byte — with group commit off and on, through
/// autocommit inserts and through explicit transactions with reads routed
/// under `ReadPolicy::Fresh` — and the no-placement arm reruns
/// bit-identically (the closed-loop same-seed guarantee every E-table rests
/// on).
#[test]
fn trivial_placement_is_byte_identical() {
    let run = |placement: Option<Placement>, batch_max: usize| {
        let mut cfg = partial_ws_cfg(3, 3, placement);
        cfg.seed = 21;
        cfg.mw.batch_max = batch_max;
        cfg.mw.read_policy = ReadPolicy::Fresh;
        let mut cluster = Cluster::build(cfg);
        for g in 0..3usize {
            cluster.add_client(DisjointInsert::new(1_000_000 * (g as i64 + 1), g), |cc| {
                cc.think_time_us = 800;
            });
            cluster.add_client(ReadWriteTx { next: 3_000_000 * (g as i64 + 1), table: g }, |cc| {
                cc.think_time_us = 600;
            });
        }
        run_and_drain(&mut cluster, 3);
        let sums = cluster.backend_full_checksums();
        let groups = cluster.with_middleware(0, |m| m.partial_groups());
        (cluster.mw_metrics(0), sums, groups)
    };
    let trivial = || Placement::new(vec![vec![0, 1, 2]]).assign("t0", 0).assign("t1", 0);
    for batch_max in [1usize, 8] {
        let (mw_none, sums_none, groups_none) = run(None, batch_max);
        let (mw_triv, sums_triv, groups_triv) = run(Some(trivial()), batch_max);
        assert_eq!((groups_none, groups_triv), (1, 1), "batch_max {batch_max}");
        assert!(mw_none.certifier.commits > 0, "batch_max {batch_max}: nothing certified");
        assert!(mw_none.counters.reads > 0, "batch_max {batch_max}: no read was routed");
        assert_eq!(mw_none.counters, mw_triv.counters, "batch_max {batch_max}: counters diverge");
        assert_eq!(mw_none.certifier, mw_triv.certifier, "batch_max {batch_max}: certifier stats diverge");
        assert_eq!(sums_none, sums_triv, "batch_max {batch_max}: backend contents diverge");
        assert_eq!(
            mw_none.batch_sizes.count() > 0,
            batch_max > 1,
            "batch_max {batch_max}: group commit observable exactly when on"
        );
        let (mw_rerun, sums_rerun, _) = run(None, batch_max);
        assert_eq!(mw_none.counters, mw_rerun.counters, "batch_max {batch_max}: rerun counters differ");
        assert_eq!(mw_none.certifier, mw_rerun.certifier, "batch_max {batch_max}: rerun certifier stats differ");
        assert_eq!(sums_none, sums_rerun, "batch_max {batch_max}: rerun backend contents differ");
    }
}

/// One closed-loop session that writes fresh keys and reads them straight
/// back, checking what the reads return (the `Client` actor drops reply
/// bodies). Each round inserts key `k` into every table of `tables`, reads
/// it back from each, and when the tables are partners (their groups share
/// hosts) reads `k` from both in one statement: one more read-back, over
/// both groups.
struct ReadBack {
    session: SessionId,
    mw: NodeId,
    tables: Vec<usize>,
    key: i64,
    /// The round's remaining statements, last first: (sql, is a read-back).
    todo: Vec<(String, bool)>,
    stmt_seq: u64,
    read_backs: u64,
    /// Read-backs that did not return exactly their row, and failed
    /// statements.
    wrong: Vec<String>,
}

impl ReadBack {
    fn new(session: SessionId, mw: NodeId, tables: &[usize], base: i64) -> Self {
        ReadBack {
            session,
            mw,
            tables: tables.to_vec(),
            key: base,
            todo: Vec::new(),
            stmt_seq: 0,
            read_backs: 0,
            wrong: Vec::new(),
        }
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let Some((sql, _)) = self.todo.last() else {
            ctx.set_timer(500, 0);
            return;
        };
        self.stmt_seq += 1;
        let req = ClientRequest { session: self.session, stmt_seq: self.stmt_seq, trace: 0, sql: sql.clone() };
        ctx.send(self.mw, Msg::Request(req));
    }
}

impl Actor<Msg> for ReadBack {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(1_000 + 100 * self.session.0, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
        self.key += 1;
        let k = self.key;
        let mut round: Vec<(String, bool)> = Vec::new();
        for &t in &self.tables {
            round.push((format!("INSERT INTO t{t} VALUES ({k}, 1)"), false));
        }
        for &t in &self.tables {
            round.push((format!("SELECT v FROM t{t} WHERE k = {k}"), true));
        }
        if let [a, b] = self.tables[..] {
            if a / 2 == b / 2 {
                // Point lookups on both sides: a join would scan.
                let both = format!("SELECT v FROM t{a} WHERE k = {k} AND k IN (SELECT k FROM t{b} WHERE k = {k})");
                round.push((both, true));
            }
        }
        round.reverse();
        self.todo = round;
        self.send_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        let Msg::Reply(reply) = msg else { return };
        if reply.stmt_seq != self.stmt_seq {
            return;
        }
        let Some((sql, read_back)) = self.todo.pop() else { return };
        match reply.result {
            Ok(ReplyBody::Rows(rs)) if read_back => {
                self.read_backs += 1;
                if rs.rows.len() != 1 {
                    self.wrong.push(format!("{sql}: {} rows", rs.rows.len()));
                }
            }
            Ok(_) if !read_back => {}
            other => self.wrong.push(format!("{sql}: {other:?}")),
        }
        self.send_next(ctx);
    }
}

/// The first client reads under a placement. Rows flow only to a group's
/// hosts (`partial_smoke_rows_flow_only_to_hosts`), so a read-back that
/// returns its row ran at a host of every group it touches, and at one that
/// had applied the session's write. A commit is acknowledged only after
/// every host applied it, so no policy may miss a read-back, and none may
/// run into the freshness-wait deadline. The last session alternates between
/// tables with disjoint host sets: whatever backend its previous statement
/// stuck it to does not host the next read.
#[test]
fn reads_under_a_placement_return_the_sessions_writes() {
    for (policy, granularity) in [
        (ReadPolicy::Fresh, Granularity::Query),
        (ReadPolicy::MonotonicReads, Granularity::Query),
        (ReadPolicy::Any, Granularity::Connection),
    ] {
        let mut cfg = partial_ws_cfg(3, 4, Some(test_placement()));
        cfg.seed = 13;
        cfg.mw.read_policy = policy;
        cfg.mw.granularity = granularity;
        let mut cluster = Cluster::build(cfg);
        let first = cluster.alloc_sessions(4);
        let mw = cluster.mw_nodes[0];
        let sessions: Vec<NodeId> = [&[0usize, 1][..], &[1, 0], &[2], &[0, 2]]
            .iter()
            .enumerate()
            .map(|(i, tables)| {
                let session = SessionId(first + i as u64);
                cluster.sim.add_node(ReadBack::new(session, mw, tables, 1_000_000 * (i as i64 + 1)))
            })
            .collect();
        run_and_drain(&mut cluster, 2);
        let label = format!("{policy:?}/{granularity:?}");
        for node in sessions {
            let (read_backs, wrong) =
                cluster.sim.with_actor::<ReadBack, _>(node, |r| (r.read_backs, r.wrong.clone()));
            assert!(read_backs > 200, "{label}: only {read_backs} read-backs");
            assert_eq!(wrong, Vec::<String>::new(), "{label}");
        }
        let mw = cluster.mw_metrics(0);
        assert!(mw.counters.reads > 600, "{label}: {} reads routed", mw.counters.reads);
        assert_eq!(mw.counters.freshness_wait_timeouts, 0, "{label}");
    }
}

/// The client's isolation level reaches the delegate under a placement: the
/// deferred BEGIN is the client's own, not a hard-coded SNAPSHOT. The two
/// groups are hosted everywhere, so only the request entry differs from
/// full replication. E10's contended workload aborts far more at
/// SERIALIZABLE (reads certify too) than at SNAPSHOT.
#[test]
fn placement_keeps_the_clients_isolation_level() {
    let abort_ratio = |isolation: &'static str| {
        let mut cfg =
            ClusterConfig::new(Mode::MultiMasterWriteset, micro::schema("bench", 400), "bench");
        cfg.seed = 5;
        cfg.mw.placement =
            Some(Placement::new(vec![vec![0, 1, 2], vec![0, 1, 2]]).assign("bench", 0));
        let mut cluster = Cluster::build(cfg);
        let clients: Vec<NodeId> = (0..6)
            .map(|_| {
                let mut w = KeyedUpdates::contended(400, 4, 0.9);
                w.isolation = Some(isolation);
                cluster.add_client(w, |cc| {
                    cc.think_time_us = 500;
                    cc.max_retries = 20;
                })
            })
            .collect();
        run_and_drain(&mut cluster, 2);
        assert_eq!(cluster.with_middleware(0, |m| m.partial_groups()), 2);
        let agg = aggregate(&mut cluster, &clients);
        assert!(agg.committed > 0, "{isolation}: nothing committed");
        agg.aborted as f64 / (agg.committed + agg.aborted) as f64
    };
    let (si, sr) = (abort_ratio("SNAPSHOT"), abort_ratio("SERIALIZABLE"));
    assert!(sr > si + 0.3, "abort ratio {sr:.3} at SERIALIZABLE, {si:.3} at SNAPSHOT");
}

/// Striped placements compose with more groups than backends (several
/// groups per backend, one sequencer each) — the helper the E22 scaling
/// arm uses.
#[test]
fn striped_placement_validates() {
    for (tables, backends, replicas) in [(8usize, 4usize, 1usize), (4, 4, 2), (2, 2, 1)] {
        let p = striped_placement(tables, backends, replicas);
        assert!(p.validate(backends).is_ok());
        assert_eq!(p.groups(), tables);
        assert_eq!(p.table_groups("t1"), [1 % tables]);
    }
}

/// `bench` in two hash partitions on `k`, each a group with two hosts:
/// partition 0 on backends {0,1}, partition 1 on {2,3}.
fn two_host_partitions(seed: u64) -> ClusterConfig {
    let placement = Placement::new(vec![vec![0, 1], vec![2, 3]]).partition(
        "bench",
        PartitionScheme::Hash { column: "k".into(), partitions: 2 },
        vec![0, 1],
    );
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, micro::schema("bench", 4), "bench");
    cfg.seed = seed;
    cfg.backends_per_mw = 4;
    cfg.mw.placement = Some(placement);
    cfg
}

/// Blind writes of one of two rows, each value unique to its writer: the
/// last writer wins, so two hosts that apply the same writes in different
/// orders end with different rows.
struct LastWriter {
    id: i64,
    n: i64,
    explicit: bool,
}

impl TxSource for LastWriter {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        self.n += 1;
        let k = rng.gen_range(0..2u64);
        let write = format!("UPDATE bench SET v = {} WHERE k = {k}", self.id * 1_000_000 + self.n);
        if self.explicit {
            vec!["BEGIN".to_string(), write, "COMMIT".to_string()]
        } else {
            vec![write]
        }
    }
}

/// Two sessions write the same rows concurrently under 2 ms of link
/// jitter, autocommit and in explicit transactions: both hosts of each
/// partition end with the same rows, since the partition's sequencer
/// orders every write and its certifier aborts the losers.
#[test]
fn two_host_partitions_converge_under_concurrent_writes() {
    for explicit in [false, true] {
        for seed in 0..4 {
            let mut cfg = two_host_partitions(seed);
            cfg.net = NetworkModel::new(LinkSpec { latency_us: 100, jitter_us: 2_000, drop_prob: 0.0 });
            let mut cluster = Cluster::build(cfg);
            let clients: Vec<NodeId> = (1..=2)
                .map(|id| {
                    cluster.add_client(LastWriter { id, n: 0, explicit }, |cc| {
                        cc.think_time_us = 50;
                        cc.tx_limit = 300;
                    })
                })
                .collect();
            run_and_drain(&mut cluster, 3);
            let agg = aggregate(&mut cluster, &clients);
            assert!(agg.committed > 100, "explicit {explicit} seed {seed}: committed {}", agg.committed);
            let sums = &cluster.backend_checksums()[0];
            assert_eq!(sums[0], sums[1], "explicit {explicit} seed {seed}: partition 0 hosts diverged");
            assert_eq!(sums[2], sums[3], "explicit {explicit} seed {seed}: partition 1 hosts diverged");
        }
    }
}

/// A host of a two-host partition crashes, misses the writes its peer
/// takes meanwhile, and restarts: it catches up by replaying its group's
/// log stream from its own position (no dump), and ends with its peer's
/// rows.
#[test]
fn partition_host_rejoins_by_log_replay() {
    let mut cfg = two_host_partitions(3);
    cfg.engine.durability = Some(DurabilityConfig::default());
    let mut cluster = Cluster::build(cfg);
    let clients: Vec<NodeId> = (0..4)
        .map(|i| {
            cluster.add_client(SeqInsert::new(1_000_000 * (i as i64 + 1)), |cc| {
                cc.think_time_us = 1_000;
                cc.tx_limit = 1_500;
            })
        })
        .collect();
    let (victim, peer) = (1usize, 0usize);
    cluster.crash_backend_with(SimTime(500_000), 0, victim, CrashKind::LostTail);
    cluster.restart_backend_at(SimTime(900_000), 0, victim);
    cluster.run_for(dur::millis(450));
    let at_crash = cluster.backend_ordered_applied(0, peer)[0];
    cluster.run_for(dur::millis(400));
    let at_restart = cluster.backend_ordered_applied(0, peer)[0];
    assert!(at_restart > at_crash + 100, "the group took {} writes while the victim was down", at_restart - at_crash);
    run_and_drain(&mut cluster, 2);
    let agg = aggregate(&mut cluster, &clients);
    assert_eq!(agg.failed, 0, "failed {}", agg.failed);
    let mw = cluster.mw_metrics(0);
    assert!(mw.recoveries.iter().any(|r| r.0 == victim), "the victim never rejoined");
    assert_eq!(mw.counters.full_resyncs, 0, "the rejoin fell back to a full resync");
    let head = cluster.with_middleware(0, |m| m.group_log(0).head());
    assert_eq!(cluster.backend_ordered_applied(0, victim)[0], head);
    let sums = &cluster.backend_checksums()[0];
    assert_eq!(sums[victim], sums[peer], "the rejoined host differs from its peer");
}

/// Inserts into one named table, one fresh key per transaction.
struct InsertInto {
    table: &'static str,
    next: i64,
}

impl TxSource for InsertInto {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        self.next += 1;
        vec![format!("INSERT INTO {} VALUES ({}, 1)", self.table, self.next)]
    }
}

/// A bare name in a placement means the cluster's default database: with
/// `bench.t0` in group 1, a write to `other.t0`, a table of another
/// database with the same name, certifies in group 0, and a write to
/// `bench.t0` in group 1.
#[test]
fn a_bare_placement_name_is_a_table_of_the_default_database() {
    let mut cfg = partial_ws_cfg(1, 2, Some(Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("t0", 1)));
    cfg.schema.extend(["CREATE DATABASE other".to_string(), "CREATE TABLE other.t0 (k INT PRIMARY KEY, v INT)".to_string()]);
    let mut cluster = Cluster::build(cfg);
    let limit = |cc: &mut replimid_core::ClientConfig| cc.tx_limit = 5;
    let other = cluster.add_client(InsertInto { table: "other.t0", next: 0 }, limit);
    let bench = cluster.add_client(InsertInto { table: "t0", next: 100 }, limit);
    run_and_drain(&mut cluster, 1);
    for c in [other, bench] {
        let m = cluster.client_metrics(c);
        assert_eq!((m.committed, m.failed), (5, 0));
    }
    let heads = cluster.with_middleware(0, |m| (m.group_log(0).head(), m.group_log(1).head()));
    assert_eq!(heads, (5, 5), "other.t0 certifies in group 0, bench.t0 in group 1");
}
