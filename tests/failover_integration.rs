//! Failover, failback, and partition behaviour (§2.2, §4.3.3, §4.3.4.3).

use replimid_core::{Cluster, ClusterConfig, Mode, NondetPolicy, Placement, Policy, TxSource};
use replimid_gcs::HeartbeatConfig;
use replimid_simnet::{dur, SimTime};
use replimid_workload::micro;

struct SeqInsert {
    next: i64,
}

impl TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO items VALUES ({k}, 'x', 1)")]
    }
}

fn schema() -> Vec<String> {
    vec![
        "CREATE DATABASE shop".into(),
        "USE shop".into(),
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT NOT NULL)".into(),
        "INSERT INTO items VALUES (1, 'book', 10)".into(),
    ]
}

fn ms_mode() -> Mode {
    Mode::MasterSlave {
        two_safe: false,
        ship_interval_us: 20_000,
        use_writesets: false,
        parallel_apply: false,
        read_master: true,
    }
}

#[test]
fn hot_standby_failover_promotes_most_caught_up_slave() {
    let mut cfg = ClusterConfig::new(ms_mode(), schema(), "shop");
    cfg.backends_per_mw = 3;
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 100 }, |cc| {
        cc.think_time_us = 1_000;
        cc.request_timeout_us = 300_000;
        cc.tx_limit = 3_500; // quiesce before the convergence check
    });
    // Kill the master at 2s; the middleware detects it via ping timeouts
    // and promotes a slave.
    cluster.crash_backend_at(SimTime::from_secs(2), 0, 0);
    cluster.run_for(dur::secs(6));

    let m = cluster.client_metrics(c);
    assert!(m.committed > 100, "committed {}", m.committed);
    let master = cluster.master_of(0);
    assert_ne!(master.0, 0, "a slave was promoted");

    // Writes continued after the failover.
    let late_commits: u64 = m
        .commits_per_sec
        .iter()
        .filter(|(&sec, _)| sec >= 3)
        .map(|(_, &n)| n)
        .sum();
    assert!(late_commits > 50, "writes resumed after promotion: {late_commits}");

    let mw = cluster.mw_metrics(0);
    assert!(mw.counters.failovers >= 1);
    // Surviving replicas converge once shipping settles.
    cluster.run_for(dur::secs(1));
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][1], sums[0][2], "surviving slaves agree");
}

#[test]
fn multimaster_survives_backend_crash_without_client_failures() {
    let cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema(),
        "shop",
    );
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 1000 }, |cc| {
        cc.think_time_us = 1_000;
    });
    cluster.crash_backend_at(SimTime::from_secs(2), 0, 1);
    cluster.run_for(dur::secs(5));
    let m = cluster.client_metrics(c);
    assert!(m.committed > 100);
    // At most a handful of requests were disturbed by the crash.
    assert!(
        m.failed + m.timeouts <= 3,
        "failed={} timeouts={} ({:?})",
        m.failed,
        m.timeouts,
        m.last_error
    );
    // The two surviving backends stayed consistent.
    cluster.run_for(dur::secs(1));
    let sums = cluster.backend_checksums();
    assert_eq!(sums[0][0], sums[0][2], "survivors agree");
}

/// A browned-out backend that stops answering inside the op timeout is
/// evicted by the timeout of the op in flight, and that op's waiter is
/// failed at once instead of left waiting for an answer that never comes:
/// every transaction commits, in statement and writeset mode alike.
#[test]
fn an_op_timeout_fails_the_waiting_request() {
    let modes = [
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        Mode::MultiMasterWriteset,
    ];
    for mode in modes {
        let mut cfg = ClusterConfig::new(mode.clone(), schema(), "shop");
        cfg.backends_per_mw = 2;
        cfg.mw.op_timeout_us = 40_000;
        cfg.mw.heartbeat = HeartbeatConfig::tcp_default();
        let mut cluster = Cluster::build(cfg);
        let c = cluster.add_client(SeqInsert { next: 1_000 }, |cc| {
            cc.request_timeout_us = 200_000;
            cc.tx_limit = 600;
        });
        cluster.brownout_backend_at(SimTime::from_millis(300), 0, 1, 20_000.0);
        cluster.run_for(dur::secs(10));
        let m = cluster.client_metrics(c);
        assert_eq!((m.failed, m.committed), (0, 600), "{mode:?}: {:?}", m.last_error);
        assert!(cluster.mw_metrics(0).counters.false_evictions >= 1, "{mode:?}");
    }
}

#[test]
fn middleware_failover_is_transparent_to_the_client() {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema(),
        "shop",
    );
    cfg.middlewares = 2;
    cfg.backends_per_mw = 2;
    let mut cluster = Cluster::build(cfg);
    let c = cluster.add_client(SeqInsert { next: 5000 }, |cc| {
        cc.think_time_us = 4_000;
        cc.request_timeout_us = 200_000;
        cc.tx_limit = 1_000;
    });
    // The client's home middleware (session 1 -> mw1) dies mid-run.
    cluster.crash_middleware_at(SimTime::from_secs(2), 1);
    cluster.run_for(dur::secs(6));

    let m = cluster.client_metrics(c);
    assert!(m.failovers >= 1, "client failed over");
    assert!(m.committed > 200, "committed {}", m.committed);
    // Transparent failover: retried statements were deduplicated, so every
    // committed insert appears exactly once (no duplicate-key failures).
    assert_eq!(m.failed, 0, "failed={} ({:?})", m.failed, m.last_error);

    // The surviving middleware's backends contain exactly the committed
    // rows.
    cluster.run_for(dur::secs(1));
    let count = cluster.with_backend_engine(0, 0, |e| {
        let conn = e.connect("admin", "admin").unwrap();
        e.execute(conn, "USE shop").unwrap();
        let r = e
            .execute(conn, "SELECT COUNT(*) FROM items WHERE id >= 5000")
            .unwrap();
        r.outcome.rows().unwrap().rows[0][0].as_int().unwrap()
    });
    assert_eq!(count as u64, m.committed, "exactly-once across failover");
}

#[test]
fn split_brain_without_quorum_diverges_with_quorum_stays_safe() {
    // `placement`: writeset replication over two table groups, both hosted
    // by each site's two backends (`items` rides stream 1) — the quorum
    // rule must hold whichever per-group stream carries the writes.
    let run = |require_majority: bool, placement: bool| {
        let mode = if placement {
            Mode::MultiMasterWriteset
        } else {
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject }
        };
        let mut cfg = ClusterConfig::new(mode, schema(), "shop");
        cfg.middlewares = 3;
        cfg.backends_per_mw = if placement { 2 } else { 1 };
        cfg.mw.require_majority = require_majority;
        if placement {
            cfg.mw.placement =
                Some(Placement::new(vec![vec![0, 1], vec![0, 1]]).assign("items", 1));
        }
        let mut cluster = Cluster::build(cfg);
        let mk = |cluster: &mut Cluster, base: i64| {
            cluster.add_client(SeqInsert { next: base }, |cc| {
                cc.think_time_us = 2_000;
                cc.request_timeout_us = 150_000;
                cc.max_retries = 2;
            })
        };
        let _c0 = mk(&mut cluster, 10_000);
        let _c1 = mk(&mut cluster, 20_000);
        let c2 = mk(&mut cluster, 30_000);
        // Partition middleware 2 (with its backends and client) away from
        // the rest at 1s.
        let mut minority = cluster.db_nodes[2].clone();
        minority.extend([cluster.mw_nodes[2], cluster.client_nodes[2]]);
        let mut majority: Vec<_> = Vec::new();
        for g in &cluster.db_nodes[..2] {
            majority.extend(g.iter().copied());
        }
        majority.extend(cluster.mw_nodes[..2].iter().copied());
        majority.extend(cluster.client_nodes[..2].iter().copied());
        cluster.partition_at(SimTime::from_secs(1), vec![majority, minority]);
        cluster.run_for(dur::secs(6));
        let m2 = cluster.client_metrics(c2);
        let late_minority_commits: u64 = m2
            .commits_per_sec
            .iter()
            .filter(|(&sec, _)| sec >= 3)
            .map(|(_, &n)| n)
            .sum();
        let sums = cluster.backend_checksums();
        (late_minority_commits, sums)
    };

    for placement in [false, true] {
        // Without majority enforcement: both halves keep accepting writes
        // and diverge (§4.3.4.3's nightmare).
        let (minority_commits, sums) = run(false, placement);
        assert!(minority_commits > 0, "without quorum the minority keeps committing");
        assert_ne!(sums[2][0], sums[0][0], "split brain divergence");

        // With quorum: the minority suspends writes; majority stays
        // consistent.
        let (minority_commits, sums) = run(true, placement);
        assert_eq!(minority_commits, 0, "with quorum the minority suspends writes (placement: {placement})");
        assert_eq!(sums[0][0], sums[1][0], "majority agrees");
    }
}

/// Point reads and 5 % point updates over `keys` rows.
struct ReadMostly {
    keys: i64,
}

impl TxSource for ReadMostly {
    fn next_tx(&mut self, rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = rng.gen_range(0..self.keys);
        if rng.gen::<f64>() < 0.05 {
            vec![format!("UPDATE bench SET v = v + 1 WHERE k = {k}")]
        } else {
            vec![format!("SELECT v FROM bench WHERE k = {k}")]
        }
    }
}

/// The gray-failure cluster of E16: three statement-replicated backends at
/// 178x CPU cost (a point read takes ~4 ms), round-robin reads from twelve
/// clients, and an aggressive fixed detector (10 ms pings, 30 ms silence
/// timeout). `faults` injects the failure; the middleware's metrics come
/// back after `secs`.
fn run_gray_case(adaptive: bool, secs: u64, faults: impl FnOnce(&mut Cluster)) -> replimid_core::MwMetrics {
    let rows = 4_000usize;
    let mode = Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject };
    let mut cfg = ClusterConfig::new(mode, micro::schema("bench", rows), "bench");
    cfg.mw.policy = Policy::RoundRobin;
    cfg.backend_speed = vec![178.0];
    cfg.mw.heartbeat = HeartbeatConfig { interval_us: 10_000, timeout_us: 30_000 };
    cfg.mw.adaptive_detection = adaptive;
    let mut cluster = Cluster::build(cfg);
    for _ in 0..12 {
        cluster.add_client(ReadMostly { keys: rows as i64 }, |cc| {
            cc.think_time_us = 500;
            cc.request_timeout_us = 2_000_000;
        });
    }
    faults(&mut cluster);
    cluster.run_for(dur::secs(secs));
    cluster.mw_metrics(0)
}

/// With regular answers, adaptive detection finds a crashed backend no later
/// than the fixed timeout does: the learned threshold's floor is that
/// timeout, and regular gaps teach it nothing above the floor.
#[test]
fn adaptive_detection_finds_a_crash_as_fast_as_the_fixed_timeout() {
    let detected = |adaptive| {
        let m = run_gray_case(adaptive, 2, |c| c.crash_backend_at(SimTime::from_secs(1), 0, 1));
        assert_eq!(m.counters.false_evictions, 0, "adaptive {adaptive}");
        assert_eq!(m.failover_times.len(), 1, "adaptive {adaptive}: {:?}", m.failover_times);
        m.failover_times[0]
    };
    let fixed = detected(false);
    // The first ping tick past 30 ms of silence.
    assert!(fixed <= 1_000_000 + 30_000 + 2 * 10_000, "fixed timeout detected at {fixed} µs");
    let adaptive = detected(true);
    assert!(adaptive <= fixed, "adaptive detected at {adaptive} µs, fixed at {fixed} µs");
}

/// A brownout of backend 1 deepening from 4x to 10x between 1 s and 2 s.
fn deepening_brownout(c: &mut Cluster) {
    for (at_ms, factor) in [(1_000, 4.0), (1_200, 6.0), (1_400, 8.0), (1_600, 10.0)] {
        c.brownout_backend_at(SimTime::from_millis(at_ms), 0, 1, factor);
    }
    c.clear_brownout_at(SimTime::from_secs(2), 0, 1);
}

/// A deepening brownout stretches the gaps between a live backend's answers
/// past the fixed 30 ms timeout, which evicts it (§4.3.4.2: "slow
/// connections classified as failed"); the adaptive threshold learns the
/// stretching gaps and keeps the backend.
#[test]
fn adaptive_detection_keeps_a_browned_out_backend_the_fixed_timeout_evicts() {
    let fixed = run_gray_case(false, 3, deepening_brownout);
    assert!(fixed.counters.false_evictions > 0, "the fixed timeout evicted nothing: {:?}", fixed.failover_times);
    let adaptive = run_gray_case(true, 3, deepening_brownout);
    assert_eq!(adaptive.counters.false_evictions, 0, "failovers at {:?}", adaptive.failover_times);
    assert!(adaptive.failover_times.is_empty(), "failovers at {:?}", adaptive.failover_times);
}
