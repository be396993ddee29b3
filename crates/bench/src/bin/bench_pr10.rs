//! PR10 elasticity trajectory: management operations measured under
//! open-loop load, emitted as `BENCH_pr10.json` so successive PRs can
//! track the dip/recovery numbers instead of eyeballing the E23 tables.
//!
//! Three gates, all asserted on every run:
//!
//! * zero committed loss — every write the driver saw acknowledged is
//!   present on every backend that is Online at the end of the arm
//!   (acked ⊆ present; an Unavailable reply may still have committed via
//!   the total order, so presence of *unacked* keys is fine);
//! * accounting — every arrival reaches exactly one terminal outcome
//!   (ok + err + shed == arrivals): overload is counted, never absorbed;
//! * closed-loop identity — a classic closed-loop arm (no open-loop
//!   driver anywhere) is bit-identical across same-seed reruns: counters,
//!   certifier stats, and full data checksums. This is the E1..E22
//!   guarantee: with the driver off, none of this PR's machinery perturbs
//!   one message, cost, or decision.
//!
//! Usage:
//!   cargo run --release -p replimid-bench --bin bench_pr10
//!
//! With `--test` the timeline is compressed (op at 3s, 10s arms) and no
//! JSON is written, matching the other timing benches.

use replimid_bench::{aggregate, run_and_drain, SeqInsert};
use replimid_core::{
    AdminCmd, BackendId, Cluster, ClusterConfig, Mode, MwMetrics, NondetPolicy, Policy,
    QuarantineConfig,
};
use replimid_simnet::{dur, SimTime};
use replimid_sql::{Outcome, ADMIN_PASSWORD, ADMIN_USER};
use replimid_workload::{
    add_open_loop, micro, open_loop_metrics, ArrivalProcess, OpenLoopConfig, OpenLoopMetrics,
};

struct Timeline {
    /// Total run and arrival-stop times (virtual seconds).
    secs: u64,
    stop_s: u64,
    /// Baseline window and op time (virtual seconds).
    base: (usize, usize),
    op_s: usize,
}

fn timeline(test_mode: bool) -> Timeline {
    if test_mode {
        Timeline { secs: 10, stop_s: 9, base: (1, 3), op_s: 3 }
    } else {
        Timeline { secs: 26, stop_s: 24, base: (4, 8), op_s: 10 }
    }
}

/// One elasticity arm: the E23 cluster (3 statement-replicated backends
/// costed at 22x CPU, quarantine on) under 1700/s open-loop Poisson
/// arrivals, with admin ops injected mid-run. Returns the driver metrics
/// plus the per-backend key sets of the write table for the loss gate.
fn elasticity_arm(
    tl: &Timeline,
    initial_removed: Vec<usize>,
    ops: Vec<(u64, AdminCmd)>,
) -> (OpenLoopMetrics, MwMetrics, Vec<Option<std::collections::BTreeSet<i64>>>) {
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
    olc.stop_at_us = tl.stop_s * 1_000_000;
    let driver = add_open_loop(&mut cluster, 0, olc);
    for (at_us, cmd) in ops {
        cluster.admin_at(SimTime(at_us), 0, cmd);
    }
    cluster.run_for(dur::secs(tl.secs));
    let m = open_loop_metrics(&mut cluster, driver);
    // Snapshot the write table on every backend that finished Online;
    // drained/Removed backends froze mid-stream and are exempt (their
    // in-flight work completed, but later acks never reached them).
    let keys: Vec<Option<std::collections::BTreeSet<i64>>> = (0..3)
        .map(|b| {
            let state = cluster.with_middleware(0, |mw| mw.recovery_state(BackendId(b)));
            if state != "Online" {
                return None;
            }
            Some(cluster.with_backend_engine(0, b, |e| {
                let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
                e.execute(c, "USE bench").unwrap();
                let out = e.execute(c, "SELECT k FROM olw").unwrap().outcome;
                e.disconnect(c);
                match out {
                    Outcome::Rows(rs) => rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect(),
                    other => panic!("expected rows, got {other:?}"),
                }
            }))
        })
        .collect();
    (m, cluster.mw_metrics(0), keys)
}

/// Windowed dip/recovery numbers for one arm (mirrors E23's definitions).
struct OpCost {
    baseline_tps: f64,
    dip_depth: f64,
    p99_base_us: u64,
    p99_op_us: u64,
    recover_s: i64,
    shed: u64,
}

fn op_cost(m: &OpenLoopMetrics, tl: &Timeline) -> OpCost {
    let sec = |s: usize| *m.per_sec_completed.get(s).unwrap_or(&0) as f64;
    let (b0, b1) = tl.base;
    let (op_s, end_s) = (tl.op_s, tl.stop_s as usize);
    let baseline_tps = m.completed_in(b0, b1) as f64 / (b1 - b0).max(1) as f64;
    let mut min_tps = f64::MAX;
    for s in op_s..end_s {
        min_tps = min_tps.min(sec(s));
    }
    let dip_depth = ((baseline_tps - min_tps) / baseline_tps.max(1e-9)).max(0.0);
    let p99_base_us = m.window_quantile_us(b0, b1, 0.99);
    let p99_op_us = m.window_quantile_us(op_s, (op_s + 6).min(end_s), 0.99);
    let recover_s = match (op_s..end_s).rev().find(|&s| sec(s) < 0.95 * baseline_tps) {
        None => 0,
        Some(s) if s + 1 >= end_s => -1,
        Some(s) => (s + 1 - op_s) as i64,
    };
    let shed = m.per_sec_shed.iter().skip(op_s).take(end_s - op_s).sum();
    OpCost { baseline_tps, dip_depth, p99_base_us, p99_op_us, recover_s, shed }
}

/// Gates that hold for every arm: full accounting and zero committed loss.
fn assert_arm(
    label: &str,
    m: &OpenLoopMetrics,
    keys: &[Option<std::collections::BTreeSet<i64>>],
) {
    assert_eq!(
        m.completed_ok + m.completed_err + m.shed,
        m.arrivals,
        "{label}: an arrival has no terminal outcome"
    );
    assert!(!m.acked_insert_keys.is_empty(), "{label}: no writes acknowledged");
    for (b, present) in keys.iter().enumerate() {
        let Some(present) = present else { continue };
        for k in &m.acked_insert_keys {
            assert!(
                present.contains(k),
                "{label}: backend {b} lost acknowledged write {k} (acked ⊆ present violated)"
            );
        }
    }
}

/// The closed-loop identity arm: classic bounded clients, no open-loop
/// driver anywhere near the cluster.
fn closed_arm() -> (MwMetrics, Vec<Vec<u64>>) {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", 100),
        "bench",
    );
    cfg.backends_per_mw = 3;
    cfg.seed = 17;
    let mut cluster = Cluster::build(cfg);
    let clients: Vec<_> = (0..4)
        .map(|i| {
            cluster.add_client(SeqInsert::new(1_000_000 * (i + 1)), |cc| {
                cc.think_time_us = 1_000;
                cc.tx_limit = 800;
            })
        })
        .collect();
    run_and_drain(&mut cluster, 4);
    let agg = aggregate(&mut cluster, &clients);
    assert!(agg.committed > 0, "closed-loop arm committed nothing");
    (cluster.mw_metrics(0), cluster.backend_full_checksums())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let tl = timeline(test_mode);
    let op_us = tl.op_s as u64 * 1_000_000;
    let step = if test_mode { 1_000_000 } else { 3_000_000 };

    let mut rows = Vec::new();
    type Arm = (&'static str, Vec<usize>, Vec<(u64, AdminCmd)>);
    let arms: Vec<Arm> = vec![
        (
            "add_backend",
            vec![2],
            vec![(op_us, AdminCmd::AddBackend { backend: BackendId(2) })],
        ),
        (
            "drain_backend",
            vec![],
            vec![(op_us, AdminCmd::DrainBackend { backend: BackendId(1) })],
        ),
        (
            "rolling_restart",
            vec![],
            vec![
                (op_us, AdminCmd::DrainBackend { backend: BackendId(1) }),
                (op_us + step, AdminCmd::AddBackend { backend: BackendId(1) }),
                (op_us + 2 * step, AdminCmd::DrainBackend { backend: BackendId(2) }),
                (op_us + 3 * step, AdminCmd::AddBackend { backend: BackendId(2) }),
            ],
        ),
    ];
    for (label, removed, ops) in arms {
        let (m, mw, keys) = elasticity_arm(&tl, removed, ops);
        assert_arm(label, &m, &keys);
        match label {
            "add_backend" => {
                assert_eq!(mw.counters.backends_added, 1, "{label}: join did not happen")
            }
            "drain_backend" => {
                assert_eq!(mw.counters.drains_completed, 1, "{label}: drain did not finish");
                assert_eq!(mw.counters.lost_transactions, 0, "{label}: drain lost transactions");
            }
            "rolling_restart" => {
                assert_eq!(mw.counters.drains_completed, 2, "{label}: a drain did not finish");
                assert_eq!(mw.counters.backends_added, 2, "{label}: a re-add did not happen");
            }
            _ => unreachable!(),
        }
        let c = op_cost(&m, &tl);
        println!(
            "{label}: base {:.0} tps, dip {:.0}%, p99 {} -> {} µs, recover {}s, shed {}",
            c.baseline_tps,
            c.dip_depth * 100.0,
            c.p99_base_us,
            c.p99_op_us,
            c.recover_s,
            c.shed
        );
        rows.push(format!(
            "    {{\"op\": \"{label}\", \"baseline_tps\": {:.0}, \"dip_depth\": {:.3}, \
             \"p99_base_us\": {}, \"p99_op_us\": {}, \"recover_s\": {}, \"shed\": {}}}",
            c.baseline_tps, c.dip_depth, c.p99_base_us, c.p99_op_us, c.recover_s, c.shed
        ));
    }

    // -- closed-loop identity: the driver-off path is untouched ---------
    let (mw_a, sums_a) = closed_arm();
    let (mw_b, sums_b) = closed_arm();
    assert_eq!(mw_a.counters, mw_b.counters, "closed-loop arm not bit-identical");
    assert_eq!(mw_a.certifier, mw_b.certifier, "closed-loop certifier stats differ");
    assert_eq!(sums_a, sums_b, "closed-loop checksums not bit-identical");
    println!("closed-loop identity: counters, certifier stats, and checksums all equal");

    if !test_mode {
        let json = format!(
            "{{\n  \"bench\": \"pr10_elasticity\",\n  \"ops\": [\n{}\n  ],\n  \
             \"zero_committed_loss\": true,\n  \"closed_loop_identity\": true\n}}\n",
            rows.join(",\n"),
        );
        std::fs::write("BENCH_pr10.json", &json).expect("write BENCH_pr10.json");
        println!("wrote BENCH_pr10.json");
    }
}
