//! The benchmark's contract in one place: workload names with the reason
//! each exists, end-to-end metrics with unit, direction and regression
//! bound, and per-layer metrics with unit and direction. `BENCHMARK.json`
//! at the repo root is `benchmark spec` written to a file; a unit test
//! keeps the two equal.

use crate::json::Json;
use crate::workloads::open_ladder::RATES;

pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "write-sat",
        why: "closed loop, 32 clients, saturated global write path: ordering, batching, fan-out, gcs and 3 inserts per statement work; reads, certifier, WAL and sessions idle",
    },
    Workload {
        name: "read-fleet",
        why: "closed loop, 20000-session fleet, 90% reads: select scans, session table, freshness routing and balancer dominate; total order, certifier and batching idle",
    },
    Workload {
        name: "partial-xgroup",
        why: "closed loop, 32 clients inserting into 8 table groups: per-group sequencers, certifier shards, writeset apply and cross-group votes; the same write layers as write-sat used differently",
    },
    Workload {
        name: "open-ladder",
        why: "open loop, Poisson ladder 2000-32000/s, 10% writes: latency against rate and the knee; the lowest step prices the batch deadline, the top step is goodput under overload",
    },
    Workload {
        name: "crash-recover",
        why: "open loop at 6000/s while a durable backend loses its WAL tail and restarts: detection, resync, WAL replay and restart work, and the stall is charged to requests due during it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload on every untraced run. `setup_s`,
/// `wall_us_per_op` and `peak_rss_mb` are read from the wall clock (medians
/// over repetitions); the rest from the virtual clock. Each bound is at
/// least three times the widest seed-to-seed interquartile spread any
/// workload showed for the metric (`baseline/spread.md`).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tps", "1/s", Higher, 0.03),
    e2e("lat_mean_us", "us", Lower, 0.06),
    e2e("slo_ok_ratio", "ratio", Higher, 0.02),
    e2e("wall_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.08),
];

/// End-to-end metrics that exist on some workloads only. The run contract
/// wants every `end_to_end` metric from every workload, so these travel
/// with the per-layer metrics (0 where undefined); `compare` still judges
/// them, with these bounds, sized by the same rule from the same twenty
/// seeds. The outage swings 18–23 % with where the crash falls between two
/// heartbeats; `max_rate_ok` moves by whole ladder steps of 14 % or more.
pub const WORKLOAD_E2E: [EndToEnd; 5] = [
    e2e("e2e.lat_p50_us", "us", Lower, 0.01),
    e2e("e2e.lat_p99_us", "us", Lower, 0.02),
    e2e("e2e.max_rate_ok", "1/s", Higher, 0.05),
    e2e("e2e.outage_ms", "ms", Lower, 0.25),
    e2e("e2e.mttr_ms", "ms", Lower, 0.05),
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Reported by every workload on every traced run (0 where a layer is not
/// on the workload's path).
pub fn per_layer() -> Vec<Layer> {
    let mut v: Vec<Layer> = WORKLOAD_E2E
        .iter()
        .map(|m| Layer {
            name: m.name.to_string(),
            unit: m.unit,
            better: m.better,
        })
        .collect();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(Layer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    add("e2e.lat_samples", "count", Higher);
    for n in [
        "sql.parser.parse_ns",
        "sql.plan.hit_ns",
        "sql.plan.miss_ns",
        "sql.engine.exec_ns",
    ] {
        add(n, "ns", Lower);
    }
    add("sql.engine.point_read_ns.1e2", "ns", Lower);
    add("sql.engine.point_read_ns.1e4", "ns", Lower);
    add("sql.engine.rows_read_per_stmt", "count", Lower);
    add("sql.engine.cpu_us_per_stmt", "us", Lower);
    add("sql.writeset.apply_ns", "ns", Lower);
    add("sql.wal.append_ns", "ns", Lower);
    add("sql.wal.bytes_per_commit", "count", Lower);
    add("sql.wal.fsyncs_per_commit", "count", Lower);
    add("sql.wal.replay_entries_per_vs", "1/s", Higher);
    add("simnet.sim.events_per_op", "count", Lower);
    add("simnet.sim.msgs_per_op", "count", Lower);
    add("simnet.sim.busy_us_per_op", "us", Lower);
    add("simnet.sim.raw_ns_per_event", "ns", Lower);
    add("simnet.sim.wall_ns_per_event", "ns", Lower);
    add("gcs.member.publish_ns", "ns", Lower);
    add("gcs.sharded.publish_ns", "ns", Lower);
    for s in [
        "queue-wait",
        "batch-wait",
        "freshness-wait",
        "execute",
        "fanout",
    ] {
        add(&format!("core.middleware.stage_us.{s}"), "us", Lower);
    }
    for s in ["client-rtt", "backoff", "rollback"] {
        add(&format!("core.client.stage_us.{s}"), "us", Lower);
    }
    for s in ["db-service", "replay"] {
        add(&format!("core.db_node.stage_us.{s}"), "us", Lower);
    }
    add("core.trace.other_us", "us", Lower);
    add("core.middleware.write_latency_us", "us", Lower);
    add("core.middleware.plan_cache_hit_ratio", "ratio", Higher);
    add("core.middleware.batch_fill", "count", Higher);
    add("core.middleware.flush_deadline_ratio", "ratio", Lower);
    add("core.middleware.fresh_wait_ratio", "ratio", Lower);
    add("core.middleware.fresh_fallback_ratio", "ratio", Lower);
    add("core.middleware.false_evictions", "count", Lower);
    add("core.certifier.certify_ns", "ns", Lower);
    add("core.certifier.abort_ratio", "ratio", Lower);
    add("core.certifier.max_window", "count", Lower);
    add("core.client.retry_ratio", "ratio", Lower);
    add("core.session.op_ns", "ns", Lower);
    add("core.health.detect_ms", "ms", Lower);
    add("core.recovery.rejoin_ms", "ms", Lower);
    add("core.db_node.local_recovery_ms", "ms", Lower);
    add("workload.openloop.queue_wait_mean_us", "us", Lower);
    add("workload.openloop.queue_peak", "count", Lower);
    add("workload.openloop.retry_ratio", "ratio", Lower);
    for rate in RATES {
        add(&format!("workload.ladder.lat_mean_us.r{rate}"), "us", Lower);
    }
    for rate in RATES {
        add(
            &format!("workload.ladder.slo_ok_ratio.r{rate}"),
            "ratio",
            Higher,
        );
    }
    add("workload.gen_ns_per_tx", "ns", Lower);
    add("bench.wall_s_per_virtual_s", "ratio", Lower);
    add("bench.trace_overhead_ratio", "ratio", Lower);
    v
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(&m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&WORKLOAD_E2E) {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "{} {}",
                m.name,
                m.unit
            );
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        for m in &END_TO_END {
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
        }
        for m in &layers {
            assert!(
                valid_name(&m.name) && valid_unit(m.unit),
                "{} {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` is `benchmark spec`, byte for byte.
    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json()
        );
    }
}
