//! The open-loop driver against a real cluster: it sustains its configured
//! arrival rate independent of completions, accounts for every arrival
//! (ok / error / shed — nothing silently absorbed), sheds visibly under
//! overload instead of buffering without bound, never loses an
//! acknowledged write, and is bit-deterministic per seed.

use replimid_core::{
    AdminCmd, BackendId, Cluster, ClusterConfig, Mode, NondetPolicy, Policy, QuarantineConfig,
};
use replimid_sql::{Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::micro;
use replimid_workload::openloop::{
    add_open_loop, open_loop_metrics, ArrivalProcess, OpenLoopConfig, OpenLoopMetrics,
};
use replimid_simnet::{dur, SimTime};

fn mm_cluster(backends: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.backends_per_mw = backends;
    Cluster::build(cfg)
}

fn run_driver(seed: u64, cfg_tweak: impl FnOnce(&mut OpenLoopConfig)) -> OpenLoopMetrics {
    let mut cluster = mm_cluster(3);
    let mut olc = OpenLoopConfig::new(ArrivalProcess::Poisson { rate_per_sec: 300.0 });
    olc.seed = seed;
    olc.stop_at_us = 8_000_000;
    cfg_tweak(&mut olc);
    let driver = add_open_loop(&mut cluster, 0, olc);
    // Run past stop_at so the queued/in-flight tail fully drains.
    cluster.run_for(dur::secs(10));
    open_loop_metrics(&mut cluster, driver)
}

#[test]
fn sustains_rate_and_accounts_for_every_arrival() {
    let m = run_driver(21, |_| {});
    // ~300/s for 8s of arrivals; Poisson noise stays well inside ±15%.
    let expected = 300.0 * 8.0;
    assert!(
        (m.arrivals as f64 - expected).abs() < expected * 0.15,
        "arrival clock off: {} arrivals, expected ~{expected}",
        m.arrivals
    );
    assert_eq!(m.shed, 0, "capacity is ample; nothing should shed");
    // Every arrival reaches exactly one terminal outcome.
    assert_eq!(
        m.completed_ok + m.completed_err + m.shed,
        m.arrivals,
        "arrivals leaked: ok {} err {} shed {} vs arrivals {}",
        m.completed_ok,
        m.completed_err,
        m.shed,
        m.arrivals
    );
    assert!(m.completed_ok as f64 > m.arrivals as f64 * 0.95, "mostly failing");
    assert_eq!(m.sojourn.count(), m.completed_ok + m.completed_err);
    assert!(m.queue_wait.count() >= m.dispatched - m.retries_enqueued);
    // Queue-wait spans also land in the driver's trace sink.
    assert!(
        m.trace.stage_histogram(replimid_core::trace::Stage::QueueWait).count() > 0,
        "queue-wait stage not traced"
    );
}

#[test]
fn overload_sheds_instead_of_buffering_unboundedly() {
    let m = run_driver(22, |olc| {
        olc.arrivals = ArrivalProcess::Poisson { rate_per_sec: 4_000.0 };
        olc.max_inflight = 4;
        olc.queue_max = 8;
        olc.stop_at_us = 4_000_000;
    });
    assert!(m.shed > 0, "an overloaded open loop must shed visibly");
    assert!(m.queue_peak <= 8, "queue bound violated: peak {}", m.queue_peak);
    assert_eq!(m.completed_ok + m.completed_err + m.shed, m.arrivals);
    // The shed series localizes overload in time.
    assert!(m.per_sec_shed.iter().sum::<u64>() == m.shed);
}

#[test]
fn diurnal_envelope_shows_up_in_arrival_series() {
    let m = run_driver(23, |olc| {
        olc.arrivals = ArrivalProcess::Diurnal {
            base_per_sec: 50.0,
            peak_per_sec: 600.0,
            period_us: 8_000_000,
        };
    });
    // Period 8s starting at the trough: seconds 3–4 straddle the peak.
    let trough = m.per_sec_arrivals.first().copied().unwrap_or(0);
    let peak = m.per_sec_arrivals.get(4).copied().unwrap_or(0);
    assert!(
        peak > trough.max(1) * 3,
        "diurnal swing not visible: trough-second {trough}, peak-second {peak}"
    );
    assert_eq!(m.completed_ok + m.completed_err + m.shed, m.arrivals);
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run_driver(31, |_| {});
    let b = run_driver(31, |_| {});
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.dispatched, b.dispatched);
    assert_eq!(a.completed_ok, b.completed_ok);
    assert_eq!(a.completed_err, b.completed_err);
    assert_eq!(a.retries_enqueued, b.retries_enqueued);
    assert_eq!(a.per_sec_completed, b.per_sec_completed);
    assert_eq!(a.per_sec_arrivals, b.per_sec_arrivals);
    assert_eq!(a.sojourn.quantile_us(0.99), b.sojourn.quantile_us(0.99));
    assert_eq!(a.acked_insert_keys, b.acked_insert_keys);
    // And a different seed actually changes the stream.
    let c = run_driver(32, |_| {});
    assert_ne!(a.per_sec_arrivals, c.per_sec_arrivals);
}

/// A settled attempt cancels its request guard: after two guard timeouts
/// of steady arrivals the event queue is bounded by the in-flight slots
/// and the nodes, not by rate × timeout.
#[test]
fn settled_guards_leave_the_queue() {
    let timeout_us = 200_000;
    let mut cluster = mm_cluster(3);
    let mut olc = OpenLoopConfig::new(ArrivalProcess::Poisson { rate_per_sec: 5_000.0 });
    olc.request_timeout_us = timeout_us;
    let slots = olc.max_inflight;
    let driver = add_open_loop(&mut cluster, 0, olc);
    cluster.run_for(2 * timeout_us + 50_000);
    let m = open_loop_metrics(&mut cluster, driver);
    assert!(m.completed_ok > 1_000 && m.shed == 0, "ok {} shed {}", m.completed_ok, m.shed);
    let bound = 2 * slots + 8 * cluster.sim.node_count();
    let (peak, now) = (cluster.sim.stats().peak_pending as usize, cluster.sim.pending_events());
    assert!(
        peak <= bound && now <= bound,
        "{} requests left {now} events queued (peak {peak}); bound {bound}",
        m.dispatched
    );
}

/// Keys of `table` at backend `(0, b)` in the driver's insert range.
fn insert_keys_at(cluster: &mut Cluster, b: usize, table: &str) -> std::collections::BTreeSet<i64> {
    cluster.with_backend_engine(0, b, |e| {
        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
        e.execute(c, "USE bench").unwrap();
        let out = e
            .execute(c, &format!("SELECT k FROM {table} WHERE k >= 1000000"))
            .unwrap()
            .outcome;
        e.disconnect(c);
        match out {
            Outcome::Rows(rs) => rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect(),
            other => panic!("expected rows, got {other:?}"),
        }
    })
}

/// Zero committed loss: every write the driver saw acknowledged is present
/// on every backend that ends the run Online (acked ⊆ present; an
/// Unavailable reply may still have committed via the total order, so
/// presence of *unacked* keys is fine). A drained backend froze mid-stream
/// and is exempt: its in-flight work completed, but later acks never
/// reached it.
fn assert_no_acked_write_lost(label: &str, cluster: &mut Cluster, m: &OpenLoopMetrics, table: &str) {
    assert!(!m.acked_insert_keys.is_empty(), "{label}: no writes acknowledged");
    assert_eq!(
        m.completed_ok + m.completed_err + m.shed,
        m.arrivals,
        "{label}: an arrival has no terminal outcome"
    );
    for b in 0..3 {
        if cluster.with_middleware(0, |mw| mw.recovery_state(BackendId(b))) != "Online" {
            continue;
        }
        let present = insert_keys_at(cluster, b, table);
        for k in &m.acked_insert_keys {
            assert!(
                present.contains(k),
                "{label}: backend {b} lost acknowledged write {k} (acked ⊆ present violated)"
            );
        }
    }
}

#[test]
fn every_acked_write_is_present_on_every_replica() {
    let mut cluster = mm_cluster(3);
    let mut olc = OpenLoopConfig::new(ArrivalProcess::Poisson { rate_per_sec: 250.0 });
    olc.seed = 41;
    olc.write_permille = 400;
    olc.stop_at_us = 6_000_000;
    let driver = add_open_loop(&mut cluster, 0, olc);
    cluster.run_for(dur::secs(8));
    let m = open_loop_metrics(&mut cluster, driver);
    assert_no_acked_write_lost("steady", &mut cluster, &m, "bench");

    // The same guarantee across management operations under load that does
    // not slow down when the cluster does: the E23 cluster (3 statement-
    // replicated backends costed at 22x CPU, quarantine on) under 1700/s
    // Poisson arrivals, the operation injected from 3 s.
    let add = |b| AdminCmd::AddBackend { backend: BackendId(b) };
    let drain = |b| AdminCmd::DrainBackend { backend: BackendId(b) };
    type Case = (&'static str, Vec<usize>, Vec<(u64, AdminCmd)>, (u64, u64));
    let cases: Vec<Case> = vec![
        ("add", vec![2], vec![(3_000_000, add(2))], (1, 0)),
        ("drain", vec![], vec![(3_000_000, drain(1))], (0, 1)),
        (
            "rolling restart",
            vec![],
            vec![
                (3_000_000, drain(1)),
                (4_000_000, add(1)),
                (5_000_000, drain(2)),
                (6_000_000, add(2)),
            ],
            (2, 2),
        ),
    ];
    for (label, initial_removed, ops, (added, drained)) in cases {
        let mut schema = micro::schema("bench", 100);
        schema.push("CREATE TABLE olw (k INT PRIMARY KEY, v INT NOT NULL)".to_string());
        let mut cfg = ClusterConfig::new(
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            schema,
            "bench",
        );
        cfg.backends_per_mw = 3;
        cfg.mw.policy = Policy::RoundRobin;
        cfg.mw.quarantine = Some(QuarantineConfig::default());
        cfg.mw.initial_removed = initial_removed;
        cfg.backend_speed = vec![22.0];
        let mut cluster = Cluster::build(cfg);
        let mut olc = OpenLoopConfig::new(ArrivalProcess::Poisson { rate_per_sec: 1_700.0 });
        olc.seed = 10;
        olc.write_permille = 100;
        olc.read_keys = 100;
        olc.write_table = "olw".to_string();
        olc.max_inflight = 64;
        olc.queue_max = 512;
        olc.stop_at_us = 9_000_000;
        let driver = add_open_loop(&mut cluster, 0, olc);
        for (at_us, cmd) in ops {
            cluster.admin_at(SimTime(at_us), 0, cmd);
        }
        cluster.run_for(dur::secs(10));
        let m = open_loop_metrics(&mut cluster, driver);
        assert_no_acked_write_lost(label, &mut cluster, &m, "olw");
        let c = cluster.mw_metrics(0).counters;
        assert_eq!((c.backends_added, c.drains_completed), (added, drained), "{label}: operation did not complete");
        assert_eq!(c.lost_transactions, 0, "{label}: the operation lost transactions");
    }
}
