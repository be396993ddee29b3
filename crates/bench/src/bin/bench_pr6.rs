//! PR6 perf trajectory: freshness-constrained read routing at the session
//! corner points of the E19 sweep, re-measured through the [`timing`]
//! harness and emitted as `BENCH_pr6.json` in the working directory so
//! successive PRs can track read throughput and latency at fixed fleet
//! sizes instead of eyeballing experiment tables.
//!
//! Usage:
//!   cargo run --release -p replimid-bench --bin bench_pr6
//!
//! With `--test` each point runs once (smoke mode) and no JSON is written,
//! matching the other timing benches.

use replimid_bench::timing::Runner;
use replimid_bench::{saturating_fleet_think_us, tps};
use replimid_core::{
    Cluster, ClusterConfig, FleetMetrics, Mode, Policy, QuarantineConfig, ReadPolicy,
};
use replimid_gcs::HeartbeatConfig;
use replimid_simnet::dur;
use replimid_workload::micro;

/// Virtual seconds per measurement run. Short on purpose: the JSON tracks
/// trend direction across PRs, not publication-grade numbers (E19 does the
/// full sweep).
const SECS: u64 = 3;

fn run_point(sessions: usize, backends: usize) -> FleetMetrics {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 10_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        micro::sharded_schema("bench", sessions, 100),
        "bench",
    );
    cfg.backends_per_mw = backends;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = ReadPolicy::Fresh;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    // Deliberate oversubscription (as in E19 part (c)): lenient tcp-default
    // detection so db-queue-delayed pongs don't evict live backends — a
    // 1-safe master eviction would lose acked writes and fail the RYW
    // assert for reasons E3 already covers.
    cfg.mw.heartbeat = HeartbeatConfig::tcp_default();
    cfg.mw.op_timeout_us = 75_000_000;
    let mut cluster = Cluster::build(cfg);
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        // Think time grows with the fleet so both corner points offer the
        // same aggregate demand (the E19 part (c) level, past what three
        // slaves serve) and differ only in session-table scale.
        fc.think_time_us = saturating_fleet_think_us(sessions, 100);
        fc.write_permille = 100;
        fc.keys_per_table = 100;
        fc.ramp_us = 1_000_000;
        fc.request_timeout_us = 30_000_000;
    });
    cluster.run_for(dur::secs(SECS));
    cluster.fleet_metrics(fleet)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut r = Runner::from_args();
    // The session-scale corners of the E19 sweep at 4 backends: a small
    // fleet (HashMap territory) and a 10^5 fleet, where the slab-backed
    // session table is the structure actually being priced.
    let points: [(&str, usize, usize); 2] =
        [("fleet_1k", 1_000, 4), ("fleet_100k", 100_000, 4)];
    let mut rows = Vec::new();
    for (name, sessions, backends) in points {
        let mut last: Option<FleetMetrics> = None;
        r.bench(name, 1, || {
            last = Some(run_point(sessions, backends));
        });
        // The simulator is deterministic, so every sample sees the same
        // virtual-time metrics; keep the last run's.
        let f = last.expect("bench closure runs at least once");
        assert_eq!(f.ryw_violations, 0, "{name}: stale read under ReadPolicy::Fresh");
        rows.push(format!(
            "    {{\"point\": \"{name}\", \"sessions\": {sessions}, \"backends\": {backends}, \
             \"read_tps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
            tps(f.reads, SECS),
            f.read_latency.quantile_us(0.5),
            f.read_latency.quantile_us(0.99),
        ));
    }
    r.finish();
    if !test_mode {
        let json = format!(
            "{{\n  \"bench\": \"pr6_freshness_reads\",\n  \"virtual_secs\": {SECS},\n  \
             \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write("BENCH_pr6.json", &json).expect("write BENCH_pr6.json");
        println!("wrote BENCH_pr6.json");
    }
}
