//! Cluster-level property tests: convergence and exactly-once guarantees
//! hold across randomized workloads, seeds, and fault timings. Runs on the
//! in-tree `detcheck` harness (seeded cases; failures name the reproducing
//! case seed — see crates/det).

use replimid_core::{
    AdminCmd, Balancer, BackendId, ClientMetrics, Cluster, ClusterConfig, DbNode, Granularity, HealthEvent,
    HealthState, Mode, MwMetrics, NondetPolicy, Placement, Policy, QuarantineConfig, ReadPolicy,
    ScriptSource, SessionId, Stage, TxSource,
};
use replimid_det::{detcheck, DetRng};
use replimid_simnet::{dur, SimTime};
use replimid_workload::micro;

struct SeqInsert {
    next: i64,
}

impl TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO bench VALUES ({k}, 1)")]
    }
}

/// Statement-based multi-master converges for any seed and client count
/// under a safe rewrite policy.
fn check_statement_replication_converges(seed: u64, clients: usize, backends: usize) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = backends;
    let mut cluster = Cluster::build(cfg);
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(cluster.add_client(SeqInsert { next: 10_000 * (i as i64 + 1) }, |cc| {
            cc.think_time_us = 700;
            cc.tx_limit = 150;
        }));
    }
    cluster.run_for(dur::secs(4));
    cluster.run_for(dur::secs(1)); // drain
    let committed: u64 = handles.iter().map(|&h| cluster.client_metrics(h).committed).sum();
    assert!(committed >= 100 * clients as u64, "committed {committed}");
    let sums = cluster.backend_checksums();
    let flat: Vec<u64> = sums.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] == w[1]), "diverged: {sums:?}");
}

#[test]
fn statement_replication_always_converges() {
    detcheck::check("statement_replication_always_converges", 8, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let clients = rng.gen_range(1usize..4);
        let backends = rng.gen_range(2usize..4);
        check_statement_replication_converges(seed, clients, backends);
    });
}

/// Regression preserved from the proptest era
/// (tests/properties.proptest-regressions, case a413ef28…): seed 36 with
/// 3 clients against 2 backends once diverged.
#[test]
fn regression_statement_replication_seed_36_3_clients_2_backends() {
    check_statement_replication_converges(36, 3, 2);
}

/// Writeset certification never loses or duplicates an increment, even
/// under contention: final counter == total committed increments.
fn check_certification_exactly_once(seed: u64, contenders: usize) {
    let mut cfg =
        ClusterConfig::new(Mode::MultiMasterWriteset, micro::schema("bench", 4), "bench");
    cfg.seed = seed;
    let mut cluster = Cluster::build(cfg);
    let mut handles = Vec::new();
    for _ in 0..contenders {
        handles.push(cluster.add_client(
            ScriptSource::new(vec![vec![
                "BEGIN ISOLATION LEVEL SNAPSHOT".into(),
                "UPDATE bench SET v = v + 1 WHERE k = 0".into(),
                "COMMIT".into(),
            ]]),
            |cc| {
                cc.think_time_us = 900;
                cc.tx_limit = 60;
                cc.max_retries = 50;
            },
        ));
    }
    cluster.run_for(dur::secs(6));
    cluster.run_for(dur::secs(1));
    let committed: u64 = handles.iter().map(|&h| cluster.client_metrics(h).committed).sum();
    assert!(committed > 0);
    let v = cluster.with_backend_engine(0, 0, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE bench").unwrap();
        e.execute(conn, "SELECT v FROM bench WHERE k = 0")
            .unwrap()
            .outcome
            .rows()
            .unwrap()
            .rows[0][0]
            .as_int()
            .unwrap()
    });
    assert_eq!(v as u64, committed, "lost or duplicated increments");
    let sums = cluster.backend_checksums();
    let flat: Vec<u64> = sums.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn certification_is_exactly_once() {
    detcheck::check("certification_is_exactly_once", 8, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let contenders = rng.gen_range(2usize..5);
        check_certification_exactly_once(seed, contenders);
    });
}

/// Regression preserved from the proptest era
/// (tests/properties.proptest-regressions, case 340ca626…): seed 301 with
/// 4 contenders once lost an increment.
#[test]
fn regression_certification_seed_301_4_contenders() {
    check_certification_exactly_once(301, 4);
}

/// A crash/restart at a random time never prevents convergence: the
/// rejoined replica always matches the survivors after recovery.
fn check_crash_recovery_converges(seed: u64, crash_ms: u64, down_ms: u64, victim: usize) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 50),
        "bench",
    );
    cfg.seed = seed;
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 1_000 }, |cc| {
        cc.think_time_us = 800;
        cc.tx_limit = 1_500;
    });
    cluster.crash_backend_at(SimTime::from_millis(crash_ms), 0, victim);
    cluster.restart_backend_at(SimTime::from_millis(crash_ms + down_ms), 0, victim);
    cluster.run_for(dur::secs(7));
    let m = cluster.client_metrics(c);
    assert!(m.committed >= 1_000, "committed {}", m.committed);
    let sums = cluster.backend_checksums();
    let flat: Vec<u64> = sums.iter().flatten().copied().collect();
    assert!(
        flat.windows(2).all(|w| w[0] == w[1]),
        "diverged after recovery (victim {victim}): {sums:?}"
    );
}

#[test]
fn crash_recovery_always_converges() {
    detcheck::check("crash_recovery_always_converges", 8, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let crash_ms = rng.gen_range(500u64..2_000);
        let down_ms = rng.gen_range(200u64..1_500);
        let victim = rng.gen_range(0usize..3);
        check_crash_recovery_converges(seed, crash_ms, down_ms, victim);
    });
}

/// Clean (fault-free) statement-replication run used by the tracing
/// reconciliation property: no retries, so every latency sample has
/// exactly one trace window behind it.
fn run_trace_case(seed: u64, clients: usize, backends: usize) -> (Vec<ClientMetrics>, MwMetrics) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = backends;
    let mut cluster = Cluster::build(cfg);
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(cluster.add_client(SeqInsert { next: 20_000 * (i as i64 + 1) }, |cc| {
            cc.think_time_us = 700;
            cc.tx_limit = 120;
        }));
    }
    cluster.run_for(dur::secs(4));
    cluster.run_for(dur::secs(1)); // drain
    let cms: Vec<ClientMetrics> = handles.iter().map(|&h| cluster.client_metrics(h)).collect();
    (cms, cluster.mw_metrics(0))
}

/// Latency attribution is exact, complete, and deterministic:
///
/// 1. every completed trace's per-stage spans tile its end-to-end window
///    with zero time in `Stage::Other` (no lost or double-counted time);
/// 2. client traces correspond 1:1 with committed transactions and sum to
///    the `tx_latency` histogram exactly;
/// 3. middleware trace windows correspond 1:1 with read/write latency
///    samples and sum to those histograms exactly;
/// 4. two same-seed runs produce bit-identical trace histories.
#[test]
fn traces_tile_and_reconcile_with_latency_histograms() {
    detcheck::check("traces_tile_and_reconcile_with_latency_histograms", 4, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let clients = rng.gen_range(1usize..4);
        let backends = rng.gen_range(2usize..4);
        let (cms, mw) = run_trace_case(seed, clients, backends);

        let other = Stage::Other.idx();
        for cm in &cms {
            assert_eq!(cm.trace.open_count(), 0, "client left a trace open");
            let mut sum = 0u64;
            let mut n = 0u64;
            for t in cm.trace.completed() {
                assert_eq!(
                    t.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(),
                    t.duration_us(),
                    "spans must tile the trace exactly"
                );
                assert_eq!(t.stage_us[other], 0, "unattributed client time");
                sum += t.duration_us();
                n += 1;
            }
            assert_eq!(n, cm.committed, "one completed trace per committed transaction");
            assert_eq!(sum, cm.tx_latency.sum_us(), "client trace time != tx latency");
        }

        assert_eq!(mw.trace.open_count(), 0, "middleware left a trace open");
        assert_eq!(mw.trace.dropped, 0);
        let mut sum = 0u64;
        for t in mw.trace.completed() {
            assert_eq!(t.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(), t.duration_us());
            assert_eq!(t.stage_us[other], 0, "unattributed middleware time");
            sum += t.duration_us();
        }
        assert_eq!(
            mw.trace.completed_count,
            mw.read_latency.count() + mw.write_latency.count(),
            "latency samples and trace windows must correspond 1:1"
        );
        assert_eq!(
            sum,
            mw.read_latency.sum_us() + mw.write_latency.sum_us(),
            "middleware trace time != recorded latency"
        );

        let (cms2, mw2) = run_trace_case(seed, clients, backends);
        let a: Vec<_> = mw.trace.completed().cloned().collect();
        let b: Vec<_> = mw2.trace.completed().cloned().collect();
        assert_eq!(a, b, "same seed produced different middleware traces");
        for (x, y) in cms.iter().zip(&cms2) {
            let xa: Vec<_> = x.trace.completed().cloned().collect();
            let ya: Vec<_> = y.trace.completed().cloned().collect();
            assert_eq!(xa, ya, "same seed produced different client traces");
        }
    });
}

/// One run of the group-commit comparison harness: disjoint-key inserts on
/// statement-based multi-master, with a bounded per-client transaction
/// allotment so both arms finish everything well inside the run window.
fn run_batch_case(
    seed: u64,
    clients: usize,
    batch_max: usize,
    deadline_us: u64,
) -> (Vec<ClientMetrics>, MwMetrics, Vec<Vec<u64>>) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    cfg.mw.batch_max = batch_max;
    cfg.mw.batch_deadline_us = deadline_us;
    let mut cluster = Cluster::build(cfg);
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(cluster.add_client(SeqInsert { next: 20_000 * (i as i64 + 1) }, |cc| {
            cc.think_time_us = 500;
            cc.tx_limit = 60;
        }));
    }
    cluster.run_for(dur::secs(4));
    cluster.run_for(dur::secs(1)); // drain
    let cms: Vec<ClientMetrics> = handles.iter().map(|&h| cluster.client_metrics(h)).collect();
    let sums = cluster.backend_checksums();
    (cms, cluster.mw_metrics(0), sums)
}

/// Group-commit batching is an optimization, not a semantic change: for the
/// same seed, `batch_max = 1` and `batch_max = N` commit every client's full
/// allotment, expose identical abort sets, and converge every backend to the
/// *same* final state as each other AND as the unbatched arm. Trace tiling
/// stays exact in both arms (`Stage::Other == 0`, with `BatchWait` absent
/// from the control arm), and each arm reruns bit-identically.
#[test]
fn group_commit_batching_preserves_outcomes() {
    detcheck::check("group_commit_batching_preserves_outcomes", 4, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let clients = rng.gen_range(2usize..5);
        let batch_max = rng.gen_range(2usize..17);
        let deadline_us = rng.gen_range(100u64..1500);
        let (c1, m1, s1) = run_batch_case(seed, clients, 1, 200);
        let (cb, mb, sb) = run_batch_case(seed, clients, batch_max, deadline_us);

        // Both arms complete the whole workload, abort-free (disjoint keys).
        for (cm, label) in c1.iter().map(|c| (c, "batch=1")).chain(cb.iter().map(|c| (c, "batched"))) {
            assert_eq!(cm.committed, 60, "{label}: incomplete allotment");
            assert_eq!(cm.aborted, 0, "{label}: unexpected aborts");
            assert_eq!(cm.failed, 0, "{label}: failed transactions");
        }

        // Convergence within each arm, and the same state across arms.
        let flat1: Vec<u64> = s1.iter().flatten().copied().collect();
        let flatb: Vec<u64> = sb.iter().flatten().copied().collect();
        assert!(flat1.windows(2).all(|w| w[0] == w[1]), "batch=1 diverged: {s1:?}");
        assert!(flatb.windows(2).all(|w| w[0] == w[1]), "batched diverged: {sb:?}");
        assert_eq!(flat1[0], flatb[0], "batched arm reached a different final state");

        // Batching is observable exactly when enabled, and every flush is
        // accounted to a reason.
        assert_eq!(m1.batch_sizes.count(), 0, "control arm flushed batches");
        assert_eq!(m1.counters.batch_flush_size + m1.counters.batch_flush_deadline, 0);
        assert!(mb.batch_sizes.count() > 0, "batched arm never flushed");
        assert_eq!(
            mb.counters.batch_flush_size + mb.counters.batch_flush_deadline,
            mb.batch_sizes.count(),
            "flush-reason counters must partition the flushes"
        );
        // Every admitted write passed through exactly one flush.
        assert_eq!(mb.batch_sizes.sum_us(), mb.counters.writes, "events batched != writes admitted");

        // Trace tiling stays exact in both arms.
        let other = Stage::Other.idx();
        let bw = Stage::BatchWait.idx();
        for (mw, label) in [(&m1, "batch=1"), (&mb, "batched")] {
            assert_eq!(mw.trace.open_count(), 0, "{label}: trace left open");
            for t in mw.trace.completed() {
                assert_eq!(t.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(), t.duration_us(), "{label}: spans must tile");
                assert_eq!(t.stage_us[other], 0, "{label}: unattributed time");
            }
        }
        assert!(
            m1.trace.completed().all(|t| t.stage_us[bw] == 0),
            "control arm recorded batch-wait time"
        );
        assert!(
            mb.trace.completed().any(|t| t.stage_us[bw] > 0),
            "batched arm recorded no batch-wait time"
        );

        // Each arm reruns bit-identically (timers and buffering included).
        let (c1r, m1r, s1r) = run_batch_case(seed, clients, 1, 200);
        let (cbr, mbr, sbr) = run_batch_case(seed, clients, batch_max, deadline_us);
        assert_eq!(s1, s1r, "batch=1 rerun diverged");
        assert_eq!(sb, sbr, "batched rerun diverged");
        let t1: Vec<_> = m1.trace.completed().cloned().collect();
        let t1r: Vec<_> = m1r.trace.completed().cloned().collect();
        let tb: Vec<_> = mb.trace.completed().cloned().collect();
        let tbr: Vec<_> = mbr.trace.completed().cloned().collect();
        assert_eq!(t1, t1r, "batch=1 rerun traces differ");
        assert_eq!(tb, tbr, "batched rerun traces differ");
        for (x, y) in c1.iter().zip(&c1r).chain(cb.iter().zip(&cbr)) {
            assert_eq!(x.committed, y.committed);
            assert_eq!(x.aborted, y.aborted);
        }
    });
}

/// One writeset arm of the group-commit comparison: client `i` inserts
/// fresh keys into table `t{i % 3}` of three, over full replication
/// (`placement` `None`) or a placement of the tables in three groups.
/// Returns the clients' metrics, the middleware's, and per table the
/// checksum of its rows at each backend that hosts it.
fn run_ws_batch_case(
    seed: u64,
    clients: usize,
    placement: Option<Placement>,
    batch_max: usize,
    deadline_us: u64,
) -> (Vec<ClientMetrics>, MwMetrics, Vec<Vec<u64>>) {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, micro::disjoint_schema("bench", 3, 0), "bench");
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    cfg.mw.placement = placement.clone();
    cfg.mw.batch_max = batch_max;
    cfg.mw.batch_deadline_us = deadline_us;
    let mut cluster = Cluster::build(cfg);
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            cluster.add_client(micro::DisjointInsert::new(1_000_000 * (i as i64 + 1), i % 3), |cc| {
                cc.think_time_us = 500;
                cc.tx_limit = 60;
            })
        })
        .collect();
    cluster.run_for(dur::secs(4));
    cluster.run_for(dur::secs(1)); // drain
    let cms = handles.iter().map(|&h| cluster.client_metrics(h)).collect();
    let sums = (0..3)
        .map(|g| {
            let hosts = placement.as_ref().map_or(vec![0, 1, 2], |p| p.hosts(g).to_vec());
            hosts
                .into_iter()
                .map(|b| {
                    cluster.with_backend_engine(0, b, |e| {
                        let c = e.connect(replimid_sql::ADMIN_USER, replimid_sql::ADMIN_PASSWORD).expect("admin login");
                        e.execute(c, "USE bench").expect("USE");
                        let out = e.execute(c, &format!("SELECT k, v FROM t{g} ORDER BY k")).expect("scan").outcome;
                        e.disconnect(c);
                        let mut h = DefaultHasher::new();
                        format!("{out:?}").hash(&mut h);
                        h.finish()
                    })
                })
                .collect()
        })
        .collect();
    (cms, cluster.mw_metrics(0), sums)
}

/// The writeset twin of `group_commit_batching_preserves_outcomes`: a
/// slot of several certified commits reaches each host as one `Apply`,
/// and that changes no outcome. At G = 1 and with three groups on two of
/// three backends each, `batch_max = 1` and `batch_max = N` commit every
/// client's allotment, every host of a group ends with the same rows, the
/// same in both arms, and the spans tile every trace.
#[test]
fn writeset_group_commit_preserves_outcomes() {
    detcheck::check("writeset_group_commit_preserves_outcomes", 3, |rng| {
        let seed = rng.gen_range(0u64..1000);
        // At least two clients per table in some group, so that slots of
        // several commits form under either placement.
        let clients = rng.gen_range(4usize..7);
        let batch_max = rng.gen_range(2usize..17);
        let deadline_us = rng.gen_range(100u64..1500);
        let mut striped = Placement::striped(3, 3, 2);
        for g in 0..3 {
            striped = striped.assign(&format!("t{g}"), g);
        }
        for placement in [None, Some(striped)] {
            let label = if placement.is_some() { "G=3" } else { "G=1" };
            let (c1, m1, s1) = run_ws_batch_case(seed, clients, placement.clone(), 1, 200);
            let (cb, mb, sb) = run_ws_batch_case(seed, clients, placement, batch_max, deadline_us);
            for (cm, arm) in c1.iter().map(|c| (c, "batch=1")).chain(cb.iter().map(|c| (c, "batched"))) {
                assert_eq!(cm.committed, 60, "{label} {arm}: incomplete allotment");
                assert_eq!(cm.aborted, 0, "{label} {arm}: unexpected aborts");
                assert_eq!(cm.failed, 0, "{label} {arm}: failed transactions");
            }
            for (sums, arm) in [(&s1, "batch=1"), (&sb, "batched")] {
                for (g, hosts) in sums.iter().enumerate() {
                    assert!(hosts.windows(2).all(|w| w[0] == w[1]), "{label} {arm}: group {g} diverged: {sums:?}");
                }
            }
            assert_eq!(s1, sb, "{label}: the batched arm reached a different final state");
            let (slots, events) = (mb.batch_sizes.count(), mb.batch_sizes.sum_us());
            assert!(events > slots, "{label}: no slot held several commits ({events} in {slots})");
            let other = Stage::Other.idx();
            for (mw, arm) in [(&m1, "batch=1"), (&mb, "batched")] {
                assert_eq!(mw.trace.open_count(), 0, "{label} {arm}: trace left open");
                for t in mw.trace.completed() {
                    assert_eq!(t.stage_us[other], 0, "{label} {arm}: unattributed time");
                }
            }
        }
    });
}

/// Scan-only readers: service time dominates the scored latency, so a
/// brownout factor of f shows up as roughly f x the healthy latency
/// (point reads are network-dominated and can hide a mild brownout from
/// the EWMA entirely).
struct Scans;

impl TxSource for Scans {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        vec!["SELECT COUNT(v) FROM bench".into()]
    }
}

/// Brownout on backend 1 from t=1s to t=3s, quarantine enabled, read-only
/// clients. Returns the middleware metrics snapshot at t=6s.
fn run_quarantine_case(seed: u64, clients: usize, factor: f64) -> MwMetrics {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 800),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    // Round-robin so the victim keeps receiving reads while browned: the
    // least-pending balancer would starve it of the very completions the
    // health score needs to trip.
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    let mut cluster = Cluster::build(cfg);
    for _ in 0..clients {
        cluster.add_client(Scans, |cc| {
            cc.think_time_us = 700;
        });
    }
    cluster.brownout_backend_at(SimTime::from_millis(1_000), 0, 1, factor);
    cluster.clear_brownout_at(SimTime::from_millis(3_000), 0, 1);
    cluster.run_for(dur::secs(5));
    cluster.mw_metrics(0)
}

/// Gray-failure quarantine invariants, for any seed / client count /
/// brownout severity:
///
/// 1. while a backend is quarantined, reads are never routed to it
///    (beyond the single designated half-open probe);
/// 2. once the brownout clears, the victim is eventually probed and
///    rejoins read routing;
/// 3. the whole quarantine history is deterministic — two runs with the
///    same seed produce identical event logs.
#[test]
fn quarantine_shields_reads_and_rejoins() {
    detcheck::check("quarantine_shields_reads_and_rejoins", 4, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let clients = rng.gen_range(2usize..5);
        let factor = 8.0 + rng.gen_range(0u64..7) as f64;
        let a = run_quarantine_case(seed, clients, factor);
        assert_eq!(
            a.counters.reads_routed_to_quarantined, 0,
            "reads leaked to a quarantined backend"
        );
        assert!(
            a.quarantine_events
                .iter()
                .any(|&(_, b, e)| b == 1 && matches!(e, HealthEvent::Trip { .. })),
            "brownout never tripped the breaker: {:?}",
            a.quarantine_events
        );
        // The victim is always probed back in eventually: the run ends
        // 2s after the brownout clears, and each quarantine dwell is only
        // 500ms, so the last word on backend 1 must be a rejoin. (It may
        // also have rejoined mid-brownout and re-tripped — flapping is
        // allowed, ending the run quarantined is not.)
        let last = a.quarantine_events.iter().rfind(|&&(_, b, _)| b == 1);
        assert!(
            matches!(last, Some((_, _, HealthEvent::Rejoin))),
            "victim did not end the run rejoined: {:?}",
            a.quarantine_events
        );
        assert!(
            a.quarantine_events
                .iter()
                .any(|&(_, b, e)| b == 1 && e == HealthEvent::ProbeStart),
            "victim was never probed: {:?}",
            a.quarantine_events
        );
        let b = run_quarantine_case(seed, clients, factor);
        assert_eq!(a.quarantine_events, b.quarantine_events, "same seed, different history");
        assert_eq!(a.counters.commits, b.counters.commits);
    });
}

/// Scans of one group's table with a keyed update every fourth transaction.
struct GroupScans {
    table: usize,
    n: i64,
}

impl TxSource for GroupScans {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        self.n += 1;
        if self.n % 4 == 0 {
            vec![format!("UPDATE t{} SET v = v + 1 WHERE k = {}", self.table, self.n % 400)]
        } else {
            vec![format!("SELECT COUNT(v) FROM t{}", self.table)]
        }
    }
}

/// Writeset replication over two table groups on backends {0,1} and {2,3},
/// quarantine armed, two read/write clients per group, and a 1s..3s
/// brownout on each of `victims`. Returns the middleware metrics, every
/// backend's final health state and the clients' failed transactions.
fn run_placement_quarantine_case(victims: &[usize]) -> (MwMetrics, Vec<HealthState>, u64) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterWriteset,
        micro::disjoint_schema("bench", 2, 400),
        "bench",
    );
    cfg.seed = 17;
    cfg.backends_per_mw = 4;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    cfg.mw.placement =
        Some(Placement::new(vec![vec![0, 1], vec![2, 3]]).assign("t0", 0).assign("t1", 1));
    let mut cluster = Cluster::build(cfg);
    let clients: Vec<_> = (0..4)
        .map(|i| cluster.add_client(GroupScans { table: i % 2, n: i as i64 }, |cc| cc.think_time_us = 700))
        .collect();
    for &b in victims {
        cluster.brownout_backend_at(SimTime::from_millis(1_000), 0, b, 10.0);
        cluster.clear_brownout_at(SimTime::from_millis(3_000), 0, b);
    }
    cluster.run_for(dur::secs(5));
    let health = (0..4)
        .map(|b| cluster.with_middleware(0, |m| m.backend_health_state(BackendId(b))))
        .collect();
    let failed = clients.iter().map(|&c| cluster.client_metrics(c).failed).sum();
    (cluster.mw_metrics(0), health, failed)
}

/// Quarantine under a placement. A quarantined host of a group is probed
/// back in by that group's reads (the half-open probe is part of the one
/// read router), and the quarantine filter is cut over a group's hosts: with
/// every host of a group quarantined its reads take the slow answer
/// instead of failing because some non-host was still healthy.
#[test]
fn quarantine_under_a_placement_probes_and_never_empties_a_host_set() {
    let (m, health, failed) = run_placement_quarantine_case(&[0]);
    assert!(
        m.quarantine_events.iter().any(|&(_, b, e)| b == 0 && matches!(e, HealthEvent::Trip { .. })),
        "brownout never tripped the breaker: {:?}",
        m.quarantine_events
    );
    assert!(m.counters.quarantine_probes >= 1, "backend 0 was never probed");
    assert_eq!(health[0], HealthState::Healthy, "events {:?}", m.quarantine_events);
    assert_eq!(m.counters.reads_routed_to_quarantined, 0);
    assert_eq!(failed, 0);

    let (m, health, failed) = run_placement_quarantine_case(&[0, 1]);
    for b in [0, 1] {
        assert!(
            m.quarantine_events.iter().any(|&(_, v, e)| v == b && matches!(e, HealthEvent::Trip { .. })),
            "backend {b} never tripped: {:?}",
            m.quarantine_events
        );
    }
    assert_eq!(failed, 0, "a read failed though its group's hosts were only slow");
    assert_eq!(health, [HealthState::Healthy; 4], "events {:?}", m.quarantine_events);
}

/// One freshness-routing run: a session fleet mixing reads and writes on
/// slot-private keys against master-slave replication with lazy shipping,
/// a mid-run brownout gray fault on slave 1, and the quarantine breaker
/// armed. Returns (fleet metrics, middleware metrics).
fn run_ryw_case(
    seed: u64,
    sessions: usize,
    policy: ReadPolicy,
    ship_ms: u64,
) -> (replimid_core::FleetMetrics, MwMetrics) {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: ship_ms * 1_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        micro::schema("bench", sessions),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    // Round-robin keeps the browned slave in rotation so the health score
    // sees its degradation (same reasoning as run_quarantine_case).
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = policy;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    let mut cluster = Cluster::build(cfg);
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        // Sized so the surviving slave absorbs the browned one's share
        // without its own queueing delay crossing the breaker's 4x relative
        // trip bar: the episode must stay a b1 story, not a capacity
        // cascade that quarantines the whole cluster.
        fc.think_time_us = 150_000;
        fc.write_permille = 300;
        fc.ramp_us = 300_000;
    });
    // PR 2-style gray episode: slave 1 browns out from 1s to 3s, trips the
    // breaker, and must rejoin after the half-open probe.
    cluster.brownout_backend_at(SimTime::from_millis(1_000), 0, 1, 10.0);
    cluster.clear_brownout_at(SimTime::from_millis(3_000), 0, 1);
    cluster.run_for(dur::secs(5));
    (cluster.fleet_metrics(fleet), cluster.mw_metrics(0))
}

/// Read-your-writes holds under freshness routing for any seed and fleet
/// size, *including* through a gray-failure quarantine/rejoin episode:
///
/// 1. no read ever observes a value older than the session's last
///    acknowledged write (the fleet checks every read against its floor);
/// 2. the freshness filter actually engaged (stale candidates were cut,
///    and at least some reads parked or fell back — 1-safe lazy shipping
///    guarantees lag windows);
/// 3. the breaker tripped on the browned slave, and the same seed reruns
///    bit-identically.
///
/// No `reads_routed_to_quarantined == 0` here, deliberately: when load
/// shifts trip the breaker on *every* slave at once, `filter_quarantined`'s
/// documented escape (a slow answer beats no answer) re-admits quarantined
/// candidates — and the point of this property is that even then no read
/// is ever stale. The leak-free guarantee under a contained episode is
/// `quarantine_shields_reads_and_rejoins`'s job.
#[test]
fn read_your_writes_holds_under_gray_faults() {
    detcheck::check("read_your_writes_holds_under_gray_faults", 3, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let sessions = rng.gen_range(40usize..120);
        let (f, m) = run_ryw_case(seed, sessions, ReadPolicy::Fresh, 200);
        assert!(f.reads > 0, "fleet read nothing");
        assert!(f.writes > 0, "fleet wrote nothing");
        assert_eq!(f.ryw_violations, 0, "stale read under ReadPolicy::Fresh");
        assert!(
            m.counters.fresh_filtered_stale > 0,
            "freshness filter never engaged (lag windows must exist at 200ms shipping)"
        );
        assert!(
            m.counters.freshness_waits + m.counters.fresh_fallback_primary > 0,
            "no read ever parked or fell back — the wait path went unexercised"
        );
        assert!(
            m.quarantine_events
                .iter()
                .any(|&(_, b, e)| b == 1 && matches!(e, HealthEvent::Trip { .. })),
            "the brownout never tripped the breaker: {:?}",
            m.quarantine_events
        );
        // Same seed => bit-identical freshness history.
        let (f2, m2) = run_ryw_case(seed, sessions, ReadPolicy::Fresh, 200);
        assert_eq!(f.reads, f2.reads);
        assert_eq!(f.writes, f2.writes);
        assert_eq!(f.errors, f2.errors);
        assert_eq!(f.read_latency.sum_us(), f2.read_latency.sum_us());
        assert_eq!(m.counters, m2.counters, "same seed, different counters");
        assert_eq!(m.quarantine_events, m2.quarantine_events);
    });
}

/// The control arm: with `ReadPolicy::Any` and slow (500ms) shipping, the
/// same workload observably violates read-your-writes — demonstrating the
/// bug class the freshness vector fixes (and that the RYW check above has
/// teeth).
#[test]
fn freshness_off_allows_stale_reads() {
    let (f, _) = run_ryw_case(7, 60, ReadPolicy::Any, 500);
    assert!(f.reads > 0 && f.writes > 0);
    assert!(
        f.ryw_violations > 0,
        "Any-policy reads off 500ms-lagged slaves should observe stale values"
    );
}

/// Session teardown drains every session-keyed map. Pre-PR, `SessionEnd`
/// removed the session struct but left `request_started` timing metadata
/// and stashed `two_safe_bodies` entries behind forever; both now live
/// inside `Sess` and die with it. N connect/write/disconnect cycles must
/// leave the middleware with zero session residue, and every backend with
/// no connection of those sessions; a session ended mid-transaction leaves
/// no open transaction behind, and one that ends in its COMMIT's slot still
/// commits on every backend.
#[test]
fn session_teardown_leaves_no_residue() {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 50),
        "bench",
    );
    cfg.seed = 11;
    let mut cluster = Cluster::build(cfg);
    let clients = 6usize;
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(cluster.add_client(SeqInsert { next: 10_000 * (i as i64 + 1) }, |cc| {
            cc.think_time_us = 800;
            cc.tx_limit = 20;
        }));
    }
    cluster.run_for(dur::secs(4)); // every client finishes its allotment
    for (h, _) in handles.iter().zip(0..) {
        let committed = cluster.client_metrics(*h).committed;
        assert_eq!(committed, 20, "client did not finish");
    }
    let before = cluster.with_middleware(0, |m| m.session_count());
    assert_eq!(before, clients, "one session per client while connected");
    // Disconnect every session (ordered teardown through the total order).
    let now = cluster.now();
    for s in 1..=clients as u64 {
        cluster.admin_at(now, 0, AdminCmd::EndSession { session: SessionId(s) });
    }
    cluster.run_for(dur::secs(1));
    let residue = cluster.with_middleware(0, |m| m.session_residue());
    assert_eq!(residue, (0, 0, 0), "session-keyed state leaked past teardown");
    assert_eq!(cluster.with_middleware(0, |m| m.fresh_waiter_count()), 0);
    let nodes = cluster.db_nodes[0].clone();
    let conns: Vec<usize> =
        nodes.into_iter().map(|n| cluster.sim.with_actor::<DbNode, _>(n, |d| d.session_conns())).collect();
    assert_eq!(conns, vec![0; 3], "a backend kept an ended session's connection");

    // A session that ends inside a transaction takes the transaction with
    // it: its uncommitted row versions must not block another session's
    // write to those rows, in statement and in writeset mode.
    for mode in [
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        Mode::MultiMasterWriteset,
    ] {
        let mut cfg = ClusterConfig::new(mode.clone(), micro::schema("bench", 10), "bench");
        cfg.seed = 11;
        let mut cluster = Cluster::build(cfg);
        // Session 1 leaves its transaction open (no COMMIT) and ends at
        // 200 ms; session 2 writes the same row at about 500 ms, after a
        // first read and its think time.
        let open = ScriptSource::new(vec![vec!["BEGIN".into(), "UPDATE bench SET v = 1 WHERE k = 1".into()]]);
        let first = cluster.add_client(open, |cc| cc.tx_limit = 1);
        let later = ScriptSource::new(vec![
            vec!["SELECT v FROM bench WHERE k = 2".into()],
            vec!["UPDATE bench SET v = 2 WHERE k = 1".into()],
        ]);
        let second = cluster.add_client(later, |cc| {
            cc.think_time_us = 500_000;
            cc.tx_limit = 2;
        });
        cluster.admin_at(SimTime(200_000), 0, AdminCmd::EndSession { session: SessionId(1) });
        cluster.run_for(dur::millis(400));
        assert_eq!(cluster.client_metrics(first).committed, 1, "{mode:?}: the open transaction's statements ran");
        for b in 0..3 {
            let open = cluster.with_backend_engine(0, b, |e| e.active_transactions());
            assert_eq!(open, 0, "{mode:?}: backend {b} kept the ended session's transaction");
        }
        cluster.run_for(dur::millis(1_600));
        let m = cluster.client_metrics(second);
        assert_eq!(m.committed, 2, "{mode:?}: the ended session's row versions blocked a later write ({:?})", m.last_error);
    }

    // A session's end and its own COMMIT in one group-commit slot (the
    // COMMIT's event waits out the 100 ms deadline and the end fills the
    // slot): the end waits for the slot's `Apply`, so every backend commits
    // the transaction and only then drops the connection.
    for (mode, end_at) in [
        (Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject }, 250_000),
        (Mode::MultiMasterWriteset, 50_000),
    ] {
        let mut cfg = ClusterConfig::new(mode.clone(), micro::schema("bench", 10), "bench");
        cfg.seed = 11;
        cfg.mw.batch_max = 2;
        cfg.mw.batch_deadline_us = 100_000;
        let mut cluster = Cluster::build(cfg);
        let script = vec!["BEGIN".into(), "UPDATE bench SET v = 1 WHERE k = 1".into(), "COMMIT".into()];
        cluster.add_client(ScriptSource::new(vec![script]), |cc| cc.tx_limit = 1);
        cluster.admin_at(SimTime(end_at), 0, AdminCmd::EndSession { session: SessionId(1) });
        // Well before the client's 500 ms timeout resends the COMMIT.
        cluster.run_for(dur::micros(end_at + 150_000));
        let m = cluster.mw_metrics(0);
        let (slots, events) = (m.batch_sizes.count(), m.batch_sizes.sum_us());
        assert_eq!(events, slots + 1, "{mode:?}: the COMMIT and the end did not share one slot");
        let nodes = cluster.db_nodes[0].clone();
        for (b, node) in nodes.into_iter().enumerate() {
            let conns = cluster.sim.with_actor::<DbNode, _>(node, |d| d.session_conns());
            assert_eq!(conns, 0, "{mode:?}: backend {b} kept the ended session's connection");
            let (open, v) = cluster.with_backend_engine(0, b, |e| {
                let open = e.active_transactions();
                let conn = e.connect("admin", "admin").unwrap();
                e.execute(conn, "USE bench").unwrap();
                let out = e.execute(conn, "SELECT v FROM bench WHERE k = 1").unwrap();
                let v = out.outcome.rows().unwrap().rows[0][0].as_int().unwrap();
                e.disconnect(conn);
                (open, v)
            });
            assert_eq!(open, 0, "{mode:?}: backend {b} kept the ended session's transaction");
            assert_eq!(v, 1, "{mode:?}: backend {b} missed the session's committed UPDATE");
        }
    }
}

/// A session that ends while a backend is out of rotation ends there too.
/// Statement replication logs the session's BEGIN and UPDATE, so the
/// crashed backend replays them when it rejoins; the session's end is
/// logged behind them, so the replay closes the transaction it reopened.
/// Without the logged end the rejoined backend kept that transaction and
/// its row version, and a later write to the row conflicted there.
#[test]
fn a_session_ended_while_a_backend_was_down_ends_on_its_rejoin() {
    let mode = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    let mut cfg = ClusterConfig::new(mode, micro::schema("bench", 10), "bench");
    cfg.seed = 11;
    let mut cluster = Cluster::build(cfg);
    let open = ScriptSource::new(vec![vec!["BEGIN".into(), "UPDATE bench SET v = 1 WHERE k = 1".into()]]);
    let first = cluster.add_client(open, |cc| cc.tx_limit = 1);
    // Session 2 reads at once, then writes session 1's row after 2.5 s of
    // think time.
    let later = ScriptSource::new(vec![
        vec!["SELECT v FROM bench WHERE k = 2".into()],
        vec!["UPDATE bench SET v = 2 WHERE k = 1".into()],
    ]);
    let second = cluster.add_client(later, |cc| {
        cc.think_time_us = 2_500_000;
        cc.tx_limit = 2;
    });
    cluster.crash_backend_at(SimTime(50_000), 0, 2);
    cluster.admin_at(SimTime(400_000), 0, AdminCmd::EndSession { session: SessionId(1) });
    cluster.restart_backend_at(SimTime(600_000), 0, 2);
    cluster.run_for(dur::secs(2));
    assert_eq!(cluster.client_metrics(first).committed, 1, "the open transaction's statements ran");
    assert_eq!(cluster.with_middleware(0, |m| m.online_backends()), 3, "backend 2 rejoined");
    let nodes = cluster.db_nodes[0].clone();
    for (b, node) in nodes.into_iter().enumerate() {
        let open = cluster.with_backend_engine(0, b, |e| e.active_transactions());
        assert_eq!(open, 0, "backend {b} kept the ended session's transaction");
        let conn = cluster.sim.with_actor::<DbNode, _>(node, |d| d.conn_of(1));
        assert_eq!(conn, None, "backend {b} kept the ended session's connection");
    }
    cluster.run_for(dur::secs(2));
    let m = cluster.client_metrics(second);
    assert_eq!(m.committed, 2, "the ended session's row version blocked a later write ({:?})", m.last_error);
}

/// Balancer fairness survives per-call candidate filtering (the freshness
/// cut hands `pick` a different subset on almost every call): for random
/// backend counts and eligibility patterns, picks always land on eligible
/// backends and nobody starves. Round-robin additionally keeps pick counts
/// within a 2x min/max bound — its stable-id cursor is rotation-fair no
/// matter how the mask churns. LPRF is exempt from the rotation bound on
/// purpose: it equalizes queue depth, not pick counts, and its
/// deterministic low-id tie-break skews rotation at light load.
#[test]
fn filtered_pick_fairness_bounded() {
    detcheck::check("filtered_pick_fairness_bounded", 6, |rng| {
        let n = rng.gen_range(3usize..6);
        let rotation_bound = rng.gen_range(0u64..2) == 0;
        let policy = if rotation_bound { Policy::RoundRobin } else { Policy::Lprf };
        let mut b = Balancer::new(Granularity::Query, policy, n);
        let all: Vec<_> = (0..n).map(replimid_core::BackendId).collect();
        let mut counts = vec![0u64; n];
        let mut inflight: Vec<replimid_core::BackendId> = Vec::new();
        for _ in 0..3_000 {
            let mut mask = vec![false; n];
            loop {
                for m in mask.iter_mut() {
                    *m = rng.gen_range(0u64..4) != 0; // eligible with p = 3/4
                }
                if mask.iter().any(|&m| m) {
                    break;
                }
            }
            let picked = b.pick_fresh(&all, &mask).expect("nonempty mask");
            assert!(mask[picked.0], "picked an ineligible backend");
            counts[picked.0] += 1;
            b.dispatched(picked);
            inflight.push(picked);
            if inflight.len() > 2 {
                b.completed(inflight.remove(0));
            }
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 0, "a backend was starved: {counts:?}");
        if rotation_bound {
            assert!(max <= 2 * min, "filtered-pick skew out of bounds: {counts:?}");
        }
    });
}

/// Point-statement workload for the plan-cache comparison: every statement
/// is one of two shapes (point INSERT, point SELECT), so a warm cache hits
/// on nearly everything while the literals differ on every request.
struct PointMix {
    next: i64,
}

impl TxSource for PointMix {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        if k % 3 == 0 {
            vec![format!("SELECT v FROM bench WHERE k = {}", k % 100)]
        } else {
            vec![format!("INSERT INTO bench VALUES ({k}, 1)")]
        }
    }
}

/// One run of the plan-cache comparison harness: disjoint-key point
/// statements in `mode` over 3 backends, with `plan_cache` templates of
/// middleware cache (0 = no reuse).
fn run_plan_cache_case(
    mode: Mode,
    seed: u64,
    clients: usize,
    plan_cache: usize,
) -> (Vec<ClientMetrics>, MwMetrics, Vec<Vec<u64>>) {
    let mut cfg = ClusterConfig::new(mode, micro::schema("bench", 100), "bench");
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    cfg.mw.plan_cache = plan_cache;
    let mut cluster = Cluster::build(cfg);
    let mut handles = Vec::new();
    for i in 0..clients {
        handles.push(cluster.add_client(PointMix { next: 20_000 * (i as i64 + 1) }, |cc| {
            cc.think_time_us = 500;
            cc.tx_limit = 60;
        }));
    }
    cluster.run_for(dur::secs(4));
    cluster.run_for(dur::secs(1)); // drain
    let cms: Vec<ClientMetrics> = handles.iter().map(|&h| cluster.client_metrics(h)).collect();
    let sums = cluster.backend_checksums();
    (cms, cluster.mw_metrics(0), sums)
}

/// The plan cache is reuse only: every backend receives the
/// admission-time parse whatever the capacity, so for the same seed cache
/// 0 and cache N are the same run — bit-identical client latency
/// histograms, completed traces (client and middleware), replica
/// checksums and counters, apart from the cache's own counters — in
/// statement, writeset and master-slave mode. The cache-on arm actually
/// hits (the workload is two templates), the cache-off arm never consults
/// the cache, trace tiling stays exact, and each arm reruns bit-identically.
#[test]
fn plan_cache_preserves_outcomes() {
    let modes = [
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        Mode::MultiMasterWriteset,
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 5_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
    ];
    detcheck::check("plan_cache_preserves_outcomes", 4, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let clients = rng.gen_range(2usize..5);
        let cache = rng.gen_range(2usize..65);
        for mode in &modes {
            let label = format!("{mode:?}");
            let run = |plan_cache| run_plan_cache_case(mode.clone(), seed, clients, plan_cache);
            let (c0, m0, s0) = run(0);
            let (cc, mc, sc) = run(cache);

            // The whole allotment completes, and the same way in both arms.
            for (a, b) in c0.iter().zip(&cc) {
                assert_eq!(a.committed, 60, "{label}: incomplete allotment");
                assert_eq!((a.committed, a.aborted, a.failed), (b.committed, b.aborted, b.failed), "{label}");
                assert_eq!(a.stmt_latency, b.stmt_latency, "{label}: statement latencies differ");
                assert_eq!(a.tx_latency, b.tx_latency, "{label}: transaction latencies differ");
                let (ta, tb): (Vec<_>, Vec<_>) = (a.trace.completed().collect(), b.trace.completed().collect());
                assert_eq!(ta, tb, "{label}: client traces differ");
            }
            let (t0, tc): (Vec<_>, Vec<_>) = (m0.trace.completed().collect(), mc.trace.completed().collect());
            assert_eq!(t0, tc, "{label}: middleware traces differ");
            assert_eq!(m0.read_latency, mc.read_latency, "{label}");
            assert_eq!(m0.write_latency, mc.write_latency, "{label}");
            let uncached = |m: &MwMetrics| {
                let mut c = m.counters;
                (c.plan_cache_hits, c.plan_cache_misses, c.plan_cache_evictions) = (0, 0, 0);
                c
            };
            assert_eq!(uncached(&m0), uncached(&mc), "{label}: counters differ");

            // Convergence within each arm, and the same state across arms.
            let flat0: Vec<u64> = s0.iter().flatten().copied().collect();
            assert!(flat0.windows(2).all(|w| w[0] == w[1]), "{label}: diverged: {s0:?}");
            assert_eq!(s0, sc, "{label}: cache-on arm reached a different state");

            // The cache is observable exactly when enabled.
            assert_eq!(m0.counters.plan_cache_hits + m0.counters.plan_cache_misses, 0, "{label}");
            assert!(
                mc.counters.plan_cache_hits > mc.counters.plan_cache_misses,
                "{label}: two-template workload must be hit-dominated: {} hits / {} misses",
                mc.counters.plan_cache_hits,
                mc.counters.plan_cache_misses
            );

            // Trace tiling stays exact.
            assert_eq!(m0.trace.open_count(), 0, "{label}: trace left open");
            for t in m0.trace.completed() {
                assert_eq!(t.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(), t.duration_us(), "{label}: spans must tile");
                assert_eq!(t.stage_us[Stage::Other.idx()], 0, "{label}: unattributed time");
            }

            // Each arm reruns bit-identically.
            for (plan_cache, (c, m, s)) in [(0, (c0, m0, s0)), (cache, (cc, mc, sc))] {
                let (cr, mr, sr) = run(plan_cache);
                assert_eq!(s, sr, "{label}: cache {plan_cache} rerun diverged");
                assert_eq!(m.counters, mr.counters, "{label}: cache {plan_cache} rerun counters differ");
                let (t, tr): (Vec<_>, Vec<_>) = (m.trace.completed().collect(), mr.trace.completed().collect());
                assert_eq!(t, tr, "{label}: cache {plan_cache} rerun traces differ");
                for (x, y) in c.iter().zip(&cr) {
                    assert_eq!(x.stmt_latency, y.stmt_latency, "{label}: cache {plan_cache} rerun");
                }
            }
        }
    });
}

/// One monotonic-reads run: like [`run_ryw_case`] but with the master in
/// the read rotation (`read_master: true`). That is the configuration
/// where going backwards actually happens: lockstep shipping keeps the
/// slaves within network jitter of each other, but the master runs up to a
/// full ship interval ahead, so `Any` routing alternating master/slave
/// serves a session fresh state and then an older one. No fault injection
/// — the anomaly is pure routing, no failure required.
fn run_monotonic_case(
    seed: u64,
    sessions: usize,
    policy: ReadPolicy,
    ship_ms: u64,
) -> (replimid_core::FleetMetrics, MwMetrics) {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: ship_ms * 1_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: true,
        },
        micro::schema("bench", sessions),
        "bench",
    );
    cfg.seed = seed;
    cfg.backends_per_mw = 3;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = policy;
    let mut cluster = Cluster::build(cfg);
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        fc.think_time_us = 150_000;
        fc.write_permille = 300;
        fc.ramp_us = 300_000;
        // Half the slots are pure observers of their neighbor's key: no
        // writes of their own, so the RYW stamp never constrains them and
        // only the session read floor can keep their view monotone. This
        // is what separates MonotonicReads from Fresh (Fresh is vacuous
        // for a session that never writes).
        fc.observer_every = 2;
    });
    cluster.run_for(dur::secs(5));
    (cluster.fleet_metrics(fleet), cluster.mw_metrics(0))
}

/// Monotonic reads as a session guarantee: under
/// `ReadPolicy::MonotonicReads` a session's reads never go backwards in
/// time, for any seed and fleet size, with the master mixed into the read
/// rotation (the configuration where `Any` observably goes backwards —
/// the control below proves the checker has teeth). The session read floor
/// also covers the RYW stamp, so RYW holds too.
#[test]
fn monotonic_reads_never_go_backwards() {
    detcheck::check("monotonic_reads_never_go_backwards", 3, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let sessions = rng.gen_range(40usize..120);
        let (f, m) = run_monotonic_case(seed, sessions, ReadPolicy::MonotonicReads, 500);
        assert!(f.reads > 0, "fleet read nothing");
        assert!(f.writes > 0, "fleet wrote nothing");
        assert_eq!(f.monotonic_violations, 0, "read went backwards under MonotonicReads");
        assert_eq!(f.ryw_violations, 0, "MonotonicReads also folds in the RYW stamp");
        // Same seed => bit-identical history.
        let (f2, m2) = run_monotonic_case(seed, sessions, ReadPolicy::MonotonicReads, 500);
        assert_eq!(f.reads, f2.reads);
        assert_eq!(f.monotonic_violations, f2.monotonic_violations);
        assert_eq!(m.counters, m2.counters, "same seed, different counters");
    });
}

/// Control arm for the monotonic checker: `Any` routing over a rotation
/// mixing the master with 500ms-lagged slaves serves a session state older
/// than what it already saw.
#[test]
fn any_policy_allows_non_monotonic_reads() {
    let (f, _) = run_monotonic_case(7, 60, ReadPolicy::Any, 500);
    assert!(f.reads > 0 && f.writes > 0);
    assert!(
        f.monotonic_violations > 0,
        "Any-policy master/slave rotation should go backwards"
    );
}

/// The open-loop driver is deterministic end to end: for any seed, rate,
/// mix, and admission bounds, two same-seed runs produce a bit-identical
/// arrival stream, outcome accounting, per-second series, acknowledged
/// write set, and middleware counters — the property the E23 elasticity
/// tables (and verify.sh's byte-identity gate) stand on.
#[test]
fn open_loop_driver_is_deterministic() {
    use replimid_workload::openloop::{
        add_open_loop, open_loop_metrics, ArrivalProcess, OpenLoopConfig, OpenLoopMetrics,
    };
    fn run_case(
        seed: u64,
        arrivals: ArrivalProcess,
        inflight: usize,
        queue: usize,
        permille: u32,
    ) -> (OpenLoopMetrics, MwMetrics) {
        let mut cfg = ClusterConfig::new(
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            micro::schema("bench", 50),
            "bench",
        );
        cfg.backends_per_mw = 3;
        let mut cluster = Cluster::build(cfg);
        let mut olc = OpenLoopConfig::new(arrivals);
        olc.seed = seed;
        olc.max_inflight = inflight;
        olc.queue_max = queue;
        olc.write_permille = permille;
        olc.read_keys = 50;
        olc.stop_at_us = 3_000_000;
        let driver = add_open_loop(&mut cluster, 0, olc);
        cluster.run_for(dur::secs(5));
        (open_loop_metrics(&mut cluster, driver), cluster.mw_metrics(0))
    }
    detcheck::check("open_loop_driver_is_deterministic", 4, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let rate = 100.0 + rng.gen::<f64>() * 700.0;
        let arrivals = if rng.gen_bool(0.5) {
            ArrivalProcess::Poisson { rate_per_sec: rate }
        } else {
            ArrivalProcess::Diurnal {
                base_per_sec: rate * 0.2,
                peak_per_sec: rate,
                period_us: rng.gen_range(1_000_000u64..4_000_000),
            }
        };
        let inflight = rng.gen_range(4usize..64);
        let queue = rng.gen_range(4usize..128);
        let permille = rng.gen_range(0u32..500);
        let (a, ma) = run_case(seed, arrivals, inflight, queue, permille);
        let (b, mb) = run_case(seed, arrivals, inflight, queue, permille);
        assert!(a.arrivals > 0, "arrival clock never ticked");
        assert_eq!(
            a.completed_ok + a.completed_err + a.shed,
            a.arrivals,
            "an arrival has no terminal outcome"
        );
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.dispatched, b.dispatched);
        assert_eq!(a.completed_ok, b.completed_ok);
        assert_eq!(a.completed_err, b.completed_err);
        assert_eq!(a.retries_enqueued, b.retries_enqueued);
        assert_eq!(a.per_sec_arrivals, b.per_sec_arrivals);
        assert_eq!(a.per_sec_completed, b.per_sec_completed);
        assert_eq!(a.per_sec_shed, b.per_sec_shed);
        assert_eq!(a.acked_insert_keys, b.acked_insert_keys);
        assert_eq!(a.sojourn.quantile_us(0.99), b.sojourn.quantile_us(0.99));
        assert_eq!(ma.counters, mb.counters, "same seed, different middleware history");
    });
}
