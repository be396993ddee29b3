//! What the two open-loop workloads share: the cluster shape, the Poisson
//! driver set-up, the traced sampler clients, one measured step, and its
//! checks.
//!
//! Requests arrive on the driver's own schedule whether or not the cluster
//! keeps up, and each is timed from the instant it was *due* (sojourn), so
//! a stall is charged to every request that arrived during it. The
//! admission queue is deep enough never to shed: overload shows as missed
//! latency limits and a backlog that is still there 100 virtual ms after
//! the arrivals stop, never as failed operations.

use replimid_core::{Cluster, ClusterConfig, Histogram, Mode, MwMetrics, NondetPolicy, Policy};
use replimid_det::DetRng;
use replimid_simnet::{NodeId, SimStats};
use replimid_workload::{
    add_open_loop, micro, open_loop_metrics, ArrivalProcess, OpenLoopConfig, OpenLoopMetrics,
};

use super::gen::OpenMirror;
use super::*;

pub const WRITE_PERMILLE: u32 = 100;
const SAMPLERS: u64 = 4;
/// A step "keeps up" when nothing is left this long after arrivals stop.
const BACKLOG_GRACE_US: u64 = 100_000;

pub fn schema() -> Vec<String> {
    let mut s = micro::schema("bench", 100);
    s.push("CREATE TABLE olw (k INT PRIMARY KEY, v INT NOT NULL)".to_string());
    s
}

/// Same shape and batching/cache settings as `write-sat`, nominal backend
/// speed; the mix (10 % inserts, 90 % point reads) is the driver's.
pub fn cluster_config(o: &Opts) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement {
            nondet: NondetPolicy::RewriteAndReject,
        },
        schema(),
        "bench",
    );
    cfg.seed = o.seed;
    cfg.backends_per_mw = 3;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.batch_max = 32;
    cfg.mw.batch_deadline_us = 200;
    cfg.mw.plan_cache = 256;
    cfg
}

pub struct OpenCluster {
    pub cluster: Cluster,
    pub driver: NodeId,
    pub samplers: Vec<NodeId>,
    pub rate: f64,
    pub stop_at_us: u64,
    seed: u64,
}

/// Build the cluster and attach a Poisson driver at `rate` requests per
/// virtual second until `stop_at_us`, plus the sampler clients.
pub fn build(
    o: &Opts,
    cfg: ClusterConfig,
    rate: f64,
    max_inflight: usize,
    stop_at_us: u64,
    stream: u64,
) -> OpenCluster {
    let mut cluster = Cluster::build(cfg);
    let seed = o.seed.wrapping_mul(1_000_003).wrapping_add(stream);
    let mut olc = OpenLoopConfig::new(ArrivalProcess::Poisson { rate_per_sec: rate });
    olc.seed = seed;
    olc.write_permille = WRITE_PERMILLE;
    olc.read_keys = 100;
    olc.write_table = "olw".to_string();
    olc.max_inflight = max_inflight;
    olc.queue_max = 1 << 20;
    olc.stop_at_us = stop_at_us;
    let driver = add_open_loop(&mut cluster, 0, olc);
    let samplers = (0..SAMPLERS)
        .map(|i| {
            cluster.add_client(OpenMirror::new(o.seed, i, WRITE_PERMILLE), |cc| {
                cc.think_time_us = 20_000;
                cc.request_timeout_us = 2_000_000;
            })
        })
        .collect();
    OpenCluster {
        cluster,
        driver,
        samplers,
        rate,
        stop_at_us,
        seed,
    }
}

/// One driver's counters and its cluster's at one instant. Two of them
/// subtract into a window, which is how the warm-up is cut off.
#[derive(Debug, Clone)]
pub struct OpenSnap {
    pub arrivals: u64,
    pub ok: u64,
    pub err: u64,
    pub shed: u64,
    pub retries: u64,
    /// Sojourn times of successful requests only.
    pub ok_sojourn: Buckets,
    pub queue_wait: Buckets,
    /// Middleware-side write-statement latency.
    pub write_latency: Buckets,
    pub sim: SimStats,
}

impl OpenSnap {
    pub fn take(oc: &mut OpenCluster) -> OpenSnap {
        let m = open_loop_metrics(&mut oc.cluster, oc.driver);
        let mut ok = Histogram::new();
        for h in &m.per_sec_sojourn {
            ok.merge(h);
        }
        OpenSnap {
            arrivals: m.arrivals,
            ok: m.completed_ok,
            err: m.completed_err,
            shed: m.shed,
            retries: m.retries_enqueued,
            ok_sojourn: Buckets::of(&ok),
            queue_wait: Buckets::of(&m.queue_wait),
            write_latency: Buckets::of(&oc.cluster.mw_metrics(0).write_latency),
            sim: oc.cluster.sim.stats(),
        }
    }

    /// `self - earlier`; `sim` stays the later absolute reading.
    pub fn since(&self, earlier: &OpenSnap) -> OpenSnap {
        OpenSnap {
            arrivals: self.arrivals - earlier.arrivals,
            ok: self.ok - earlier.ok,
            err: self.err - earlier.err,
            shed: self.shed - earlier.shed,
            retries: self.retries - earlier.retries,
            ok_sojourn: self.ok_sojourn.since(&earlier.ok_sojourn),
            queue_wait: self.queue_wait.since(&earlier.queue_wait),
            write_latency: self.write_latency.since(&earlier.write_latency),
            sim: self.sim,
        }
    }

    /// Requests that reached a terminal outcome.
    pub fn settled(&self) -> u64 {
        self.ok + self.err + self.shed
    }

    pub fn failed(&self) -> u64 {
        self.err + self.shed
    }

    /// Share of the settled requests that completed OK in under `2^k` µs
    /// (a window's settled requests are its arrivals plus the few still in
    /// flight when it opened; everything is drained before it closes).
    pub fn slo_ok_ratio(&self, k: usize) -> f64 {
        self.ok_sojourn.below_pow2(k) as f64 / self.settled().max(1) as f64
    }
}

/// What one driver measured from the end of its warm-up to the end of its
/// drain, and the final readings the checks need.
pub struct OpenResult {
    pub window: OpenSnap,
    /// Sim counters when the window opened (for per-operation shares).
    pub sim_before: SimStats,
    /// Completed OK between the end of the warm-up and `stop_at_us`
    /// (goodput numerator).
    pub ok_by_stop: u64,
    /// No backlog was left `BACKLOG_GRACE_US` after the arrivals stopped.
    pub kept_up: bool,
    pub m: OpenLoopMetrics,
    pub mw: MwMetrics,
}

/// Warm up: the first `warmup_us` of arrivals, then the snapshot every
/// window is measured from.
pub fn warm_up(oc: &mut OpenCluster, warmup_us: u64, t: &mut Tracer) -> OpenSnap {
    t.phase("bench.warmup", |t| {
        t.run_for(&mut oc.cluster, warmup_us);
        OpenSnap::take(oc)
    })
}

/// Run the arrivals to `stop_at_us`, look at the backlog after the grace
/// period, then drain whatever is left.
pub fn run(oc: &mut OpenCluster, warm: &OpenSnap, t: &mut Tracer) -> Result<OpenResult, String> {
    let left = oc.stop_at_us.saturating_sub(oc.cluster.now().micros());
    t.run_for(&mut oc.cluster, left);
    let ok_by_stop = open_loop_metrics(&mut oc.cluster, oc.driver).completed_ok - warm.ok;
    t.run_for(&mut oc.cluster, BACKLOG_GRACE_US);
    let driver = oc.driver;
    let settled = |c: &mut Cluster| {
        let m = open_loop_metrics(c, driver);
        m.completed_ok + m.completed_err + m.shed == m.arrivals
    };
    let kept_up = settled(&mut oc.cluster);
    t.run_until(&mut oc.cluster, 20_000_000, settled)?;
    Ok(OpenResult {
        window: OpenSnap::take(oc).since(warm),
        sim_before: warm.sim,
        ok_by_stop,
        kept_up,
        m: open_loop_metrics(&mut oc.cluster, oc.driver),
        mw: oc.cluster.mw_metrics(0),
    })
}

/// `workload.openloop.*` for one driver's window.
pub fn driver_layers(layer: &mut BTreeMap<String, f64>, r: &OpenResult) {
    layer.insert(
        "workload.openloop.queue_wait_mean_us".into(),
        r.window.queue_wait.mean_us(),
    );
    layer.insert("workload.openloop.queue_peak".into(), r.m.queue_peak as f64);
    layer.insert(
        "workload.openloop.retry_ratio".into(),
        r.window.retries as f64 / r.window.settled().max(1) as f64,
    );
}

/// Stage means and counter ratios of one open-loop cluster.
pub fn cluster_layers(layer: &mut BTreeMap<String, f64>, oc: &mut OpenCluster, r: &OpenResult) {
    let snap = ClientSnap::take(&mut oc.cluster, &oc.samplers);
    let sinks: Vec<&TraceSink> = snap.metrics.iter().map(|m| &m.trace).collect();
    let dbs = db_traces(&mut oc.cluster);
    stage_means(layer, &r.mw.trace, &sinks, &dbs, Some(&r.m.trace));
    mw_ratios(layer, &r.mw);
}

/// Checks every open-loop cluster must pass once its driver has drained:
/// full accounting, a generator that was never late, no lost acknowledged
/// write, converged replicas and, unless a fault was injected (the seed's
/// stage tiling has a hole on the failover path), a clean stage tiling.
pub fn check(
    oc: &mut OpenCluster,
    r: &OpenResult,
    t: &mut Tracer,
    fault_free: bool,
) -> Result<(), String> {
    ensure(
        r.m.completed_ok + r.m.completed_err + r.m.shed == r.m.arrivals,
        || "an arrival has no terminal outcome".to_string(),
    )?;
    // Arrival timers are absolute virtual times, so the generator should
    // never be late; verify it against the schedule rebuilt from the seed.
    let process = ArrivalProcess::Poisson {
        rate_per_sec: oc.rate,
    };
    let mut rng = DetRng::seed_from_u64(oc.seed);
    let mut schedule: Vec<u64> = Vec::new();
    let mut at = process.next_arrival_us(0, &mut rng);
    while at < oc.stop_at_us {
        let sec = (at / 1_000_000) as usize;
        if schedule.len() <= sec {
            schedule.resize(sec + 1, 0);
        }
        schedule[sec] += 1;
        at = process.next_arrival_us(at, &mut rng);
    }
    ensure(schedule == r.m.per_sec_arrivals, || {
        format!(
            "generator ran late: scheduled {schedule:?}, sent {:?}",
            r.m.per_sec_arrivals
        )
    })?;

    // Quiescence: the driver has stopped by itself; cut the samplers off.
    let backends: Vec<usize> = (0..oc.cluster.db_nodes[0].len()).collect();
    quiesce_and_check(
        &mut oc.cluster,
        t,
        oc.samplers.clone(),
        &[oc.driver],
        std::slice::from_ref(&backends),
    )?;
    let acked: std::collections::BTreeSet<i64> = r.m.acked_insert_keys.iter().copied().collect();
    ensure(acked.len() == r.m.acked_insert_keys.len(), || {
        "an insert key was acknowledged twice".to_string()
    })?;
    for b in backends {
        let state = oc
            .cluster
            .with_middleware(0, |mw| mw.recovery_state(replimid_core::BackendId(b)));
        ensure(state == "Online", || {
            format!("backend {b} ended {state}, not Online")
        })?;
        let present: std::collections::BTreeSet<i64> =
            query_ints(&mut oc.cluster, b, "SELECT k FROM olw")?
                .into_iter()
                .map(|r| r[0])
                .collect();
        if let Some(k) = acked.iter().find(|k| !present.contains(k)) {
            return Err(format!("backend {b} lost acknowledged insert {k}"));
        }
    }
    let snap = ClientSnap::take(&mut oc.cluster, &oc.samplers);
    ensure(snap.failed == 0, || {
        format!("{} sampler transactions failed", snap.failed)
    })?;
    let sinks: Vec<&TraceSink> = snap.metrics.iter().map(|m| &m.trace).collect();
    let other = other_us(&r.mw.trace, &sinks);
    ensure(!fault_free || other == 0, || {
        format!("Stage::Other holds {other} µs: a stage lost time")
    })
}
