//! The five workloads and what they share: the per-repetition result, the
//! phase timer / tracer that wraps every call into the cluster, windowed
//! client measurements, and the correctness checks used by more than one
//! workload.

pub mod crash_recover;
pub mod gen;
pub mod open;
pub mod open_ladder;
pub mod partial_xgroup;
pub mod read_fleet;
pub mod write_sat;

use std::collections::BTreeMap;
use std::time::Instant;

use replimid_core::{Client, ClientMetrics, Cluster, MwMetrics, Stage, TraceSink};
use replimid_simnet::{NodeId, SimStats, SimTime};
use replimid_sql::{Outcome, ADMIN_PASSWORD, ADMIN_USER};

use crate::json::Json;
use crate::span::Recorder;
use crate::spec;
use crate::stats::{quantile_sorted, Buckets};

/// Options every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Sets `ClusterConfig::seed`, the open-loop driver seed and the
    /// benchmark's own statement generators.
    pub seed: u64,
    /// CI mode: a tenth of the work, same code path and checks.
    pub smoke: bool,
}

impl Opts {
    /// Scale a work amount down for `--smoke`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// One repetition of one workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Virtual-clock end-to-end metrics by name (a pure function of code
    /// and seed: compared bit for bit across repetitions).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Virtual-clock and count per-layer metrics, same rule.
    pub layer: BTreeMap<String, f64>,
    /// Client operations completed OK in the measured window.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual length of the measured window and kernel events inside it.
    pub window_us: u64,
    pub events: u64,
    /// Wall seconds before / inside the measured window.
    pub setup_s: f64,
    pub run_s: f64,
    /// `VmHWM` of the process after the repetition; set only when the
    /// repetition ran in a process of its own.
    pub peak_rss_mb: f64,
}

impl Rep {
    /// The form a child process prints its repetition in.
    pub fn to_json(&self) -> Json {
        let nums = |pairs: Vec<(String, f64)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
        };
        Json::obj([
            (
                "e2e",
                nums(self.e2e.iter().map(|(k, v)| (k.to_string(), *v)).collect()),
            ),
            (
                "layer",
                nums(self.layer.iter().map(|(k, v)| (k.clone(), *v)).collect()),
            ),
            ("ops", Json::Num(self.ops as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("window_us", Json::Num(self.window_us as f64)),
            ("events", Json::Num(self.events as f64)),
            ("setup_s", Json::Num(self.setup_s)),
            ("run_s", Json::Num(self.run_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition has no {k}"))
        };
        let map = |k: &str| {
            j.get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("repetition has no {k}"))
        };
        let mut rep = Rep {
            ops: num("ops")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            window_us: num("window_us")? as u64,
            events: num("events")? as u64,
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ..Rep::default()
        };
        for (k, v) in map("e2e")? {
            let name = spec::END_TO_END
                .iter()
                .find(|m| m.name == k)
                .ok_or_else(|| format!("repetition reports unknown metric {k}"))?
                .name;
            rep.e2e.insert(name, v.as_f64().unwrap_or(f64::NAN));
        }
        for (k, v) in map("layer")? {
            rep.layer.insert(k.clone(), v.as_f64().unwrap_or(f64::NAN));
        }
        Ok(rep)
    }
}

/// Times the benchmark's phases and, on the traced run, records a span
/// around each and around every `run_for` slice inside.
pub struct Tracer {
    pub rec: Option<Recorder>,
    phases: Vec<(&'static str, f64)>,
}

/// Traced runs advance the cluster in slices of this many virtual µs;
/// fixed-work runs, traced or not, poll for completion this often (the
/// same step, so both stop at the same virtual instant).
const SLICE_US: u64 = 100_000;

impl Tracer {
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            rec: traced.then(Recorder::default),
            phases: Vec::new(),
        }
    }

    /// Start a new repetition: phase clocks reset, spans get a new run id.
    pub fn begin_rep(&mut self, run: u32) {
        self.phases.clear();
        if let Some(rec) = &mut self.rec {
            rec.set_run(run);
        }
    }

    /// Run `f` as phase `name`: its wall time accumulates under the name,
    /// and the traced run wraps it in a span.
    pub fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let span = self.rec.as_mut().map(|r| r.enter(name));
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let (Some(rec), Some(id)) = (&mut self.rec, span) {
            rec.exit(id, Vec::new());
        }
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.phases.push((name, secs)),
        }
        out
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, s)| s)
    }

    /// Advance the cluster by `dur_us` of virtual time: one `run_for` when
    /// untraced, one span per 100 virtual ms slice when traced. Slicing
    /// must not change any virtual metric (the runner asserts it).
    pub fn run_for(&mut self, cluster: &mut Cluster, dur_us: u64) {
        let Some(rec) = &mut self.rec else {
            cluster.run_for(dur_us);
            return;
        };
        let mut left = dur_us;
        while left > 0 {
            let step = left.min(SLICE_US);
            let before = cluster.sim.stats();
            let id = rec.enter("slice");
            cluster.run_for(step);
            let after = cluster.sim.stats();
            rec.exit(
                id,
                vec![
                    ("virtual_us".to_string(), step),
                    (
                        "events".to_string(),
                        after.events_processed - before.events_processed,
                    ),
                    (
                        "messages".to_string(),
                        after.messages_sent - before.messages_sent,
                    ),
                ],
            );
            left -= step;
        }
    }

    /// Advance until `done` holds (polled between slices), giving up after
    /// `cap_us` of virtual time.
    pub fn run_until(
        &mut self,
        cluster: &mut Cluster,
        cap_us: u64,
        mut done: impl FnMut(&mut Cluster) -> bool,
    ) -> Result<(), String> {
        let mut spent = 0;
        while !done(cluster) {
            if spent >= cap_us {
                return Err(format!("work not finished after {cap_us} virtual µs"));
            }
            self.run_for(cluster, SLICE_US);
            spent += SLICE_US;
        }
        Ok(())
    }
}

/// Kernel counters per completed operation over a window.
pub fn sim_per_op(layer: &mut BTreeMap<String, f64>, before: SimStats, after: SimStats, ops: u64) {
    let per = |a: u64, b: u64| (a - b) as f64 / ops.max(1) as f64;
    layer.insert(
        "simnet.sim.events_per_op".into(),
        per(after.events_processed, before.events_processed),
    );
    layer.insert(
        "simnet.sim.msgs_per_op".into(),
        per(after.messages_sent, before.messages_sent),
    );
    layer.insert(
        "simnet.sim.busy_us_per_op".into(),
        per(after.busy_us_total, before.busy_us_total),
    );
}

/// Aggregate of a set of closed-loop `Client`s at one instant.
pub struct ClientSnap {
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub tx_latency: Buckets,
    pub metrics: Vec<ClientMetrics>,
}

impl ClientSnap {
    pub fn take(cluster: &mut Cluster, clients: &[NodeId]) -> ClientSnap {
        let metrics: Vec<ClientMetrics> =
            clients.iter().map(|&c| cluster.client_metrics(c)).collect();
        let mut h = replimid_core::Histogram::new();
        for m in &metrics {
            h.merge(&m.tx_latency);
        }
        ClientSnap {
            committed: metrics.iter().map(|m| m.committed).sum(),
            aborted: metrics.iter().map(|m| m.aborted).sum(),
            failed: metrics.iter().map(|m| m.failed).sum(),
            tx_latency: Buckets::of(&h),
            metrics,
        }
    }

    /// Transactions finished (committed or given up) so far; reads two
    /// counters per client instead of cloning its whole metrics.
    pub fn finished(cluster: &mut Cluster, clients: &[NodeId]) -> u64 {
        clients
            .iter()
            .map(|&c| {
                cluster
                    .sim
                    .with_actor::<Client, _>(c, |c| c.metrics.committed + c.metrics.failed)
            })
            .sum()
    }

    /// Exact durations (sorted) of the transactions that began at or after
    /// `from_us`, and the instant the last one ended. Each client's sink
    /// retains its last 4096 transactions.
    pub fn durations_since(&self, from_us: u64) -> (Vec<u64>, u64) {
        let mut durs = Vec::new();
        let mut last_end = from_us;
        for m in &self.metrics {
            for t in m.trace.completed().filter(|t| t.start_us >= from_us) {
                durs.push(t.duration_us());
                last_end = last_end.max(t.end_us);
            }
        }
        durs.sort_unstable();
        (durs, last_end)
    }
}

/// The part every fixed-work closed-loop workload shares: warm up for
/// `warmup_us`, run until the clients have finished `target` transactions
/// plus `drain_us` for the last acknowledgements (quiescence), and read
/// the window that starts at the end of the warm-up. Returns the client
/// aggregate after the run as well, for the checks.
pub fn run_closed_clients(
    cluster: &mut Cluster,
    clients: &[NodeId],
    target: u64,
    (warmup_us, drain_us): (u64, u64),
    slo_us: u64,
    t: &mut Tracer,
) -> Result<(Rep, ClientSnap), String> {
    let (before, mw_before, sim_before) = t.phase("bench.warmup", |t| {
        t.run_for(cluster, warmup_us);
        (
            ClientSnap::take(cluster, clients),
            cluster.mw_metrics(0),
            cluster.sim.stats(),
        )
    });
    t.phase("bench.run", |t| {
        t.run_until(cluster, 60_000_000, |c| {
            ClientSnap::finished(c, clients) >= target
        })?;
        t.run_for(cluster, drain_us);
        Ok::<(), String>(())
    })?;
    let (after, mw, dbs, sim_after) = t.phase("bench.collect", |_| {
        (
            ClientSnap::take(cluster, clients),
            cluster.mw_metrics(0),
            db_traces(cluster),
            cluster.sim.stats(),
        )
    });

    let mut rep = Rep::default();
    let ops = after.committed - before.committed;
    let failed = after.failed - before.failed;
    let attempted = ops + failed;
    let (durs, last_end) = after.durations_since(warmup_us);
    let lat = after.tx_latency.since(&before.tx_latency);
    rep.ops = ops;
    rep.attempted = attempted;
    rep.failed = failed;
    rep.window_us = last_end - warmup_us;
    rep.events = sim_after.events_processed - sim_before.events_processed;
    let per_attempt = |n: u64| n as f64 / attempted.max(1) as f64;
    rep.e2e
        .insert("tps", ops as f64 * 1e6 / rep.window_us.max(1) as f64);
    rep.e2e.insert("lat_mean_us", lat.mean_us());
    rep.layer.insert(
        "core.middleware.write_latency_us".into(),
        Buckets::of(&mw.write_latency)
            .since(&Buckets::of(&mw_before.write_latency))
            .mean_us(),
    );
    // Every transaction's exact duration is retained, so the limit need
    // not be a histogram bucket edge here. Judged: the transactions that
    // began inside the window, plus the ones that gave up.
    let under_limit = durs.partition_point(|&d| d < slo_us);
    rep.e2e.insert(
        "slo_ok_ratio",
        under_limit as f64 / (durs.len() as u64 + failed).max(1) as f64,
    );
    rep.layer
        .insert("e2e.lat_p50_us".into(), quantile_sorted(&durs, 0.5) as f64);
    rep.layer
        .insert("e2e.lat_p99_us".into(), quantile_sorted(&durs, 0.99) as f64);
    rep.layer
        .insert("e2e.lat_samples".into(), durs.len() as f64);
    rep.layer.insert(
        "core.client.retry_ratio".into(),
        per_attempt(after.aborted - before.aborted),
    );
    sim_per_op(&mut rep.layer, sim_before, sim_after, ops);
    let client_sinks: Vec<&TraceSink> = after.metrics.iter().map(|m| &m.trace).collect();
    stage_means(&mut rep.layer, &mw.trace, &client_sinks, &dbs, None);
    mw_ratios(&mut rep.layer, &mw);
    Ok((rep, after))
}

/// The stages that are wider than 0 virtual µs on some workload. The
/// middleware's own CPU is outside the simulator's cost model (admission,
/// balancer-pick) and one middleware replica orders and delivers a publish
/// in the same call (order, certify, xgroup-wait), so those five would
/// read 0 whatever the code does.
const MW_STAGES: [Stage; 5] = [
    Stage::QueueWait,
    Stage::BatchWait,
    Stage::FreshnessWait,
    Stage::Execute,
    Stage::Fanout,
];
const CLIENT_STAGES: [Stage; 3] = [Stage::ClientRtt, Stage::Backoff, Stage::Rollback];

/// Mean virtual µs per recorded span of every stage: middleware stages
/// from the middleware's sink, client-side stages from the clients' sinks,
/// node stages from the database nodes'. `driver` is the open-loop
/// driver's sink (its queue-wait spans live there, not in the middleware).
pub fn stage_means(
    layer: &mut BTreeMap<String, f64>,
    mw: &TraceSink,
    clients: &[&TraceSink],
    db: &[TraceSink],
    driver: Option<&TraceSink>,
) {
    let mean = |sinks: &[&TraceSink], s: Stage| {
        let sum: u64 = sinks.iter().map(|t| t.stage_histogram(s).sum_us()).sum();
        let n: u64 = sinks.iter().map(|t| t.stage_histogram(s).count()).sum();
        sum as f64 / n.max(1) as f64
    };
    for s in MW_STAGES {
        let sink = match (s, driver) {
            (Stage::QueueWait, Some(d)) => d,
            _ => mw,
        };
        layer.insert(
            format!("core.middleware.stage_us.{}", s.name()),
            mean(&[sink], s),
        );
    }
    for s in CLIENT_STAGES {
        layer.insert(
            format!("core.client.stage_us.{}", s.name()),
            mean(clients, s),
        );
    }
    let db_sinks: Vec<&TraceSink> = db.iter().collect();
    for s in [Stage::DbService, Stage::Replay] {
        layer.insert(
            format!("core.db_node.stage_us.{}", s.name()),
            mean(&db_sinks, s),
        );
    }
    layer.insert("core.trace.other_us".into(), other_us(mw, clients) as f64);
}

/// Middleware counter ratios shared by every workload.
pub fn mw_ratios(layer: &mut BTreeMap<String, f64>, mw: &MwMetrics) {
    let c = &mw.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layer.insert(
        "core.middleware.plan_cache_hit_ratio".into(),
        ratio(c.plan_cache_hits, c.plan_cache_hits + c.plan_cache_misses),
    );
    layer.insert(
        "core.middleware.batch_fill".into(),
        mw.batch_sizes.mean_us(),
    );
    layer.insert(
        "core.middleware.flush_deadline_ratio".into(),
        ratio(
            c.batch_flush_deadline,
            c.batch_flush_deadline + c.batch_flush_size,
        ),
    );
    layer.insert(
        "core.middleware.fresh_wait_ratio".into(),
        ratio(c.freshness_waits, c.reads),
    );
    layer.insert(
        "core.middleware.fresh_fallback_ratio".into(),
        ratio(c.fresh_fallback_primary, c.reads),
    );
    layer.insert(
        "core.certifier.abort_ratio".into(),
        ratio(mw.certifier.aborts, mw.certifier.checks),
    );
    layer.insert(
        "core.certifier.max_window".into(),
        mw.certifier.max_window as f64,
    );
    layer.insert(
        "core.middleware.false_evictions".into(),
        c.false_evictions as f64,
    );
}

/// Trace sinks of every database node of middleware 0.
pub fn db_traces(cluster: &mut Cluster) -> Vec<TraceSink> {
    (0..cluster.db_nodes[0].len())
        .map(|b| cluster.db_trace(0, b))
        .collect()
}

/// Run a query on one backend's engine directly and return its integer
/// cells (test-style inspection, outside virtual time).
pub fn query_ints(
    cluster: &mut Cluster,
    backend: usize,
    sql: &str,
) -> Result<Vec<Vec<i64>>, String> {
    cluster.with_backend_engine(0, backend, |e| {
        let c = e
            .connect(ADMIN_USER, ADMIN_PASSWORD)
            .map_err(|e| e.to_string())?;
        let out = e.execute(c, "USE bench").and_then(|_| e.execute(c, sql));
        e.disconnect(c);
        match out.map_err(|e| format!("{sql}: {e}"))?.outcome {
            Outcome::Rows(rs) => Ok(rs
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.as_int().unwrap_or(0)).collect())
                .collect()),
            other => Err(format!("{sql}: expected rows, got {other:?}")),
        }
    })
}

/// First cell of a single-row query (`SELECT COUNT(*) ...`).
pub fn query_scalar(cluster: &mut Cluster, backend: usize, sql: &str) -> Result<i64, String> {
    query_ints(cluster, backend, sql)?
        .first()
        .and_then(|r| r.first().copied())
        .ok_or_else(|| format!("{sql}: no rows"))
}

/// Replica convergence: every backend of each listed group has the same
/// data checksum.
pub fn check_checksums(cluster: &mut Cluster, groups: &[Vec<usize>]) -> Result<(), String> {
    let sums = cluster.backend_checksums();
    for group in groups {
        let first = sums[0][group[0]];
        if let Some(&b) = group.iter().find(|&&b| sums[0][b] != first) {
            return Err(format!(
                "replicas diverged: backend {b} checksum {:x} != backend {} checksum {first:x}",
                sums[0][b], group[0]
            ));
        }
    }
    Ok(())
}

/// Cut `drivers` off from the middleware and the database nodes so no new
/// statement arrives, then let replication drain until the replicas of
/// each group agree: quiescence. (Skipping the drain makes `read-fleet`
/// fail with "replicas diverged": the check has teeth.)
pub fn quiesce_and_check(
    cluster: &mut Cluster,
    t: &mut Tracer,
    drivers: Vec<NodeId>,
    keep: &[NodeId],
    groups: &[Vec<usize>],
) -> Result<(), String> {
    let mut rest: Vec<NodeId> = cluster.db_nodes[0].clone();
    rest.extend(&cluster.mw_nodes);
    rest.extend(keep);
    let at = SimTime(cluster.now().micros() + 1);
    cluster.partition_at(at, vec![drivers, rest]);
    // Replicas behind a long apply queue need more than one slice.
    let _ = t.run_until(cluster, 5_000_000, |c| check_checksums(c, groups).is_ok());
    check_checksums(cluster, groups)
}

/// Time no stage claimed, over the middleware's and the clients' sinks:
/// the tiling catch-all, reported as `core.trace.other_us`.
pub fn other_us(mw: &TraceSink, clients: &[&TraceSink]) -> u64 {
    clients
        .iter()
        .chain([&mw])
        .map(|t| t.stage_histogram(Stage::Other).sum_us())
        .sum()
}

/// The catch-all must stay empty on a fault-free workload.
pub fn check_no_other(rep: &Rep) -> Result<(), String> {
    let other = rep.layer.get("core.trace.other_us").copied().unwrap_or(0.0);
    ensure(other == 0.0, || {
        format!("Stage::Other holds {other} µs: a stage lost time")
    })
}

pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}
