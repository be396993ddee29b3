//! `read-fleet` — closed loop, one `SessionFleet` of 20 000 sessions kept
//! saturated (think 0.8 s), 1 s ramp as warm-up, fixed virtual window.
//!
//! The read path: master-slave 1-safe shipping every 10 ms over four
//! backends, `ReadPolicy::Fresh`, 10 % writes, 100-row shards. The
//! `sql::exec` select scans, `core::session::SessionTable`, freshness
//! routing and the balancer dominate; total order, certifier and batching
//! are idle. Eight traced sampler clients send the fleet's statement mix on
//! private shards so the middleware's stage histograms see this path (the
//! fleet itself sends untraced requests).

use replimid_core::{
    Cluster, ClusterConfig, FleetMetrics, Mode, Policy, QuarantineConfig, ReadPolicy, TxSource,
};
use replimid_gcs::HeartbeatConfig;
use replimid_simnet::NodeId;
use replimid_workload::micro;

use super::gen::FleetMirror;
use super::*;

pub const SESSIONS: usize = 20_000;
const KEYS_PER_TABLE: usize = 100;
const SAMPLERS: usize = 8;
const RAMP_US: u64 = 1_000_000;
const WINDOW_US: u64 = 2_000_000;
const WRITE_PERMILLE: u32 = 100;
/// Latency limit for `slo_ok_ratio`: 2^19 = 524 288 µs. The fleet keeps
/// only a histogram, so the limit must be a bucket edge, and the fleet is
/// oversubscribed on purpose: a read waits its turn for 0.31 s on average.
/// Every read fits under this edge today, so here the share is a guard
/// that moves only when reads start to pass 524 ms; the edge below (262 ms)
/// cuts the distribution at its 11th percentile, where the share swings
/// 8 % from seed to seed. `lat_mean_us` is this workload's latency gate.
const SLO_POW2: usize = 19;

fn sessions(o: &Opts) -> usize {
    o.scaled(SESSIONS as u64) as usize
}

/// The fleet's shards plus one private shard per sampler client.
pub fn schema(o: &Opts) -> Vec<String> {
    micro::sharded_schema(
        "bench",
        sessions(o) + SAMPLERS * KEYS_PER_TABLE,
        KEYS_PER_TABLE,
    )
}

/// Probe input: the fleet's statement mix over the fleet's own shards.
pub fn sources(o: &Opts) -> Vec<Box<dyn TxSource>> {
    let tables = sessions(o) / KEYS_PER_TABLE;
    vec![Box::new(FleetMirror::new(
        o.seed,
        0,
        0,
        tables,
        WRITE_PERMILLE,
    ))]
}

fn config(o: &Opts) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: 10_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        schema(o),
        "bench",
    );
    cfg.seed = o.seed;
    cfg.backends_per_mw = 4;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = ReadPolicy::Fresh;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    // Deliberate oversubscription: lenient detection so queue-delayed
    // pongs do not evict live backends (a 1-safe master eviction would
    // lose acked writes for reasons this workload does not measure).
    cfg.mw.heartbeat = HeartbeatConfig::tcp_default();
    cfg.mw.op_timeout_us = 75_000_000;
    cfg
}

fn fleet_ops(m: &FleetMetrics) -> u64 {
    m.reads + m.writes
}

pub fn rep(o: &Opts, t: &mut Tracer) -> Result<Rep, String> {
    let n = sessions(o);
    let (mut cluster, fleet, samplers) = t.phase("bench.setup", |_| {
        let mut cluster = Cluster::build(config(o));
        let fleet = cluster.add_session_fleet(0, n, |fc| {
            fc.think_time_us = 800_000;
            fc.write_permille = WRITE_PERMILLE;
            fc.keys_per_table = KEYS_PER_TABLE;
            fc.ramp_us = RAMP_US;
            fc.request_timeout_us = 30_000_000;
        });
        let first_private = n / KEYS_PER_TABLE;
        let samplers: Vec<NodeId> = (0..SAMPLERS)
            .map(|i| {
                let src =
                    FleetMirror::new(o.seed, 1 + i as u64, first_private + i, 1, WRITE_PERMILLE);
                cluster.add_client(src, |cc| {
                    cc.think_time_us = 20_000;
                    cc.request_timeout_us = 30_000_000;
                })
            })
            .collect();
        (cluster, fleet, samplers)
    });
    let (before, mw_before, sim_before) = t.phase("bench.warmup", |t| {
        t.run_for(&mut cluster, RAMP_US);
        (
            cluster.fleet_metrics(fleet),
            cluster.mw_metrics(0),
            cluster.sim.stats(),
        )
    });

    t.phase("bench.run", |t| t.run_for(&mut cluster, WINDOW_US));

    let mut rep = Rep::default();
    let (after, mw, sim_after, snap, dbs) = t.phase("bench.collect", |_| {
        let sim_after = cluster.sim.stats();
        (
            cluster.fleet_metrics(fleet),
            cluster.mw_metrics(0),
            sim_after,
            ClientSnap::take(&mut cluster, &samplers),
            db_traces(&mut cluster),
        )
    });
    let reads = Buckets::of(&after.read_latency).since(&Buckets::of(&before.read_latency));
    let ops = fleet_ops(&after) - fleet_ops(&before);
    let failed = after.errors - before.errors;
    let attempted = ops + failed;
    rep.e2e.insert("tps", ops as f64 * 1e6 / WINDOW_US as f64);
    rep.e2e.insert("lat_mean_us", reads.mean_us());
    rep.layer.insert(
        "core.middleware.write_latency_us".into(),
        Buckets::of(&mw.write_latency)
            .since(&Buckets::of(&mw_before.write_latency))
            .mean_us(),
    );
    // Errors are not split by kind: all of them count against the reads.
    rep.e2e.insert(
        "slo_ok_ratio",
        reads.below_pow2(SLO_POW2) as f64 / (reads.count + failed).max(1) as f64,
    );
    rep.ops = ops;
    rep.attempted = attempted;
    rep.failed = failed;
    rep.window_us = WINDOW_US;
    rep.events = sim_after.events_processed - sim_before.events_processed;
    sim_per_op(&mut rep.layer, sim_before, sim_after, ops);
    mw_ratios(&mut rep.layer, &mw);
    let sinks: Vec<&TraceSink> = snap.metrics.iter().map(|m| &m.trace).collect();
    stage_means(&mut rep.layer, &mw.trace, &sinks, &dbs, None);

    t.phase("bench.check", |t| {
        let mut drivers = samplers.clone();
        drivers.push(fleet);
        quiesce_and_check(&mut cluster, t, drivers, &[], &[vec![0, 1, 2, 3]])?;
        let end = cluster.fleet_metrics(fleet);
        ensure(end.ryw_violations == 0, || {
            format!("{} read-your-writes violations", end.ryw_violations)
        })?;
        ensure(end.monotonic_violations == 0, || {
            format!("{} monotonic-read violations", end.monotonic_violations)
        })?;
        ensure(snap.failed == 0, || {
            format!("{} sampler transactions failed", snap.failed)
        })?;
        check_no_other(&rep)
    })?;
    Ok(rep)
}
