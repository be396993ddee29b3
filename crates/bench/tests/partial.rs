//! Partial replication end-to-end properties: outcome preservation vs the
//! full-replication baseline, row flow restricted to hosting backends,
//! cross-group (2PC-style) commit atomicity including crash injection
//! mid-protocol, and the trivial-placement byte-identity guarantee.

use replimid_bench::{aggregate, partial_ws_cfg, run_and_drain, striped_placement};
use replimid_core::{Cluster, Placement};
use replimid_det::detcheck;
use replimid_simnet::{NodeId, SimTime};
use replimid_sql::{CrashKind, DurabilityConfig, Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::micro::DisjointInsert;

/// Total row count of `table` at backend `(0, b)`.
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
        // The random ring can produce 1-host groups; no crash is injected
        // here, so opt out of the sole-host build-time rejection.
        let mut placement = Placement::new(hosts.clone()).allow_sole_host();
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
/// mid-protocol: after the crashed replica recovers, partner tables hold
/// identical row sets on both hosting backends — never a t0 row without
/// its t1 sibling. Crash kinds exercise the durable-image semantics
/// (clean, lost tail, torn tail) so prepared-but-undecided work crosses a
/// real recovery, not a fiat restart.
#[test]
fn cross_group_commit_is_atomic() {
    detcheck::check("cross_group_commit_is_atomic", 5, |rng| {
        let mut cfg = partial_ws_cfg(3, 4, Some(test_placement()));
        cfg.seed = rng.gen();
        cfg.engine.durability = Some(DurabilityConfig::default());
        let mut cluster = Cluster::build(cfg);
        let clients: Vec<NodeId> = (0..2)
            .map(|i| {
                cluster.add_client(
                    DisjointInsert::new(1_000_000 * (i as i64 + 1), 0).with_multi(1.0),
                    |cc| {
                        cc.think_time_us = 1_000;
                        // Quiesce well before the run ends: an unbounded
                        // client always has one last transaction mid-fan-out
                        // when the clock stops, and a half-applied final
                        // transaction reads as (phantom) divergence.
                        cc.tx_limit = 1_000;
                    },
                )
            })
            .collect();
        // Crash one of the two backends hosting groups 0+1 while 2PC
        // traffic is in full flight; restart it and let partial recovery
        // (dump from the surviving partner + per-group catch-up) finish.
        let victim = rng.gen_range(0..2) as usize;
        let kind = *detcheck::pick(rng, &[CrashKind::Clean, CrashKind::LostTail, CrashKind::TornTail]);
        let crash_us = 500_000u64 + rng.gen_range(0..1_000_000u64);
        cluster.crash_backend_with(SimTime(crash_us), 0, victim, kind);
        cluster.restart_backend_at(SimTime(crash_us + 200_000), 0, victim);
        run_and_drain(&mut cluster, 6);
        let agg = aggregate(&mut cluster, &clients);
        assert!(agg.committed > 0, "nothing committed (victim {victim} {kind:?})");
        assert!(agg.aborted + agg.failed < agg.committed, "mostly failing");
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
        for b in [0usize, 1] {
            assert_eq!(
                rows_at(&mut cluster, b, "t0"),
                rows_at(&mut cluster, b, "t1"),
                "atomicity broken at backend {b} (victim {victim} {kind:?} @ {crash_us})"
            );
        }
        assert_eq!(
            rows_at(&mut cluster, 0, "t0"),
            rows_at(&mut cluster, 1, "t0"),
            "hosts diverged (victim {victim} {kind:?} @ {crash_us})"
        );
    });
}

/// Full replication is the one-group placement, not a sibling
/// implementation: no placement at all and the explicit one-group-everywhere
/// placement run the same pipeline with G = 1 and agree on every counter,
/// certifier stat and backend byte — with group commit off and on — and the
/// no-placement arm reruns bit-identically (the closed-loop same-seed
/// guarantee every E-table rests on).
#[test]
fn trivial_placement_is_byte_identical() {
    let run = |placement: Option<Placement>, batch_max: usize| {
        let mut cfg = partial_ws_cfg(3, 3, placement);
        cfg.seed = 21;
        cfg.mw.batch_max = batch_max;
        let mut cluster = Cluster::build(cfg);
        for g in 0..3usize {
            cluster.add_client(DisjointInsert::new(1_000_000 * (g as i64 + 1), g), |cc| {
                cc.think_time_us = 800;
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

/// Striped placements compose with more groups than backends (several
/// groups per backend, one sequencer each) — the helper the E22 scaling
/// arm uses.
#[test]
fn striped_placement_validates() {
    for (tables, backends, replicas) in [(8usize, 4usize, 1usize), (4, 4, 2), (2, 2, 1)] {
        let p = striped_placement(tables, backends, replicas);
        assert!(p.validate(backends).is_ok());
        assert_eq!(p.groups(), tables);
        assert_eq!(p.group_of("t1"), 1 % tables);
    }
}
