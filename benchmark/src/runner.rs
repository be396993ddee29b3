//! Repeats a workload for the requested wall time and turns the
//! repetitions into metrics: virtual metrics must be identical in every
//! repetition (asserted), wall metrics are medians. Untraced repetitions
//! each run in a child process; the traced run stays in this one.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::probes;
use crate::spec;
use crate::stats::median;
use crate::workloads::{self, Opts, Rep, Tracer};

/// Fewest repetitions a wall median is taken over (one in `--smoke`).
const MIN_REPS: usize = 5;

fn one_rep(workload: &str, o: &Opts, t: &mut Tracer, run: u32) -> Result<Rep, String> {
    t.begin_rep(run);
    // One root span per repetition: the phases are its children, and the
    // glue between them is its self time.
    let mut rep = t.phase("bench.rep", |t| match workload {
        "write-sat" => workloads::write_sat::rep(o, t),
        "read-fleet" => workloads::read_fleet::rep(o, t),
        "partial-xgroup" => workloads::partial_xgroup::rep(o, t),
        "open-ladder" => workloads::open_ladder::rep(o, t),
        "crash-recover" => workloads::crash_recover::rep(o, t),
        other => Err(format!("unknown workload '{other}'")),
    })?;
    rep.setup_s = t.secs("bench.setup") + t.secs("bench.warmup");
    rep.run_s = t.secs("bench.run");
    Ok(rep)
}

/// The two-clock rule: everything read from the virtual clock is a pure
/// function of (code, seed), so two repetitions must agree bit for bit.
fn assert_same_virtual(first: &Rep, other: &Rep, what: &str) -> Result<(), String> {
    let bits = |r: &Rep| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = r
            .e2e
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_bits()))
            .collect();
        v.extend(r.layer.iter().map(|(k, v)| (k.clone(), v.to_bits())));
        for (k, n) in [
            ("ops", r.ops),
            ("attempted", r.attempted),
            ("failed", r.failed),
            ("window_us", r.window_us),
            ("events", r.events),
        ] {
            v.push((k.to_string(), n));
        }
        v
    };
    let (a, b) = (bits(first), bits(other));
    match a.iter().zip(&b).find(|(x, y)| x != y) {
        None if a.len() == b.len() => Ok(()),
        Some(((k, x), (_, y))) => Err(format!(
            "virtual metric {k} differs {what}: {} vs {} — the run is not deterministic",
            f64::from_bits(*x),
            f64::from_bits(*y)
        )),
        None => Err(format!("virtual metric sets differ {what}")),
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Per-process values of a wall metric (empty for the others).
    samples: Vec<f64>,
    /// Whether this workload produced the metric (a layer off its path
    /// reports 0 in the result and is left out of the printed lines).
    defined: bool,
}

/// The child side of [`rep_in_child`]: one untraced repetition, printed as
/// one JSON line with the process's peak resident set.
pub fn run_rep(workload: &str, o: &Opts) -> Result<(), String> {
    let mut rep = one_rep(workload, o, &mut Tracer::new(false), 0)?;
    rep.peak_rss_mb = peak_rss_mb()?;
    println!("{}", rep.to_json().to_line());
    Ok(())
}

/// One untraced repetition in a process of its own, so that its peak
/// resident set is that of one repetition on a fresh heap, and so that the
/// wall numbers carry the process-to-process spread.
fn rep_in_child(workload: &str, o: &Opts) -> Result<Rep, String> {
    let mut args = vec!["rep", "--workload", workload];
    if o.smoke {
        args.push("--smoke");
    }
    let stdout = run_self(&args, o.seed)?;
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    Rep::from_json(&Json::parse(line)?)
}

/// Run this executable with `args` and `--seed`, wait for it to end, and
/// return what it printed; its failure, with its message, is the caller's.
fn run_self(args: &[&str], seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(&exe)
        .args(args)
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "`{}` failed ({}): {}",
            args.join(" "),
            output.status,
            stderr.trim().trim_start_matches("benchmark: ")
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Untraced repetitions for `seconds`, each in a child process: the
/// end-to-end metrics.
fn end_to_end(workload: &str, o: &Opts, seconds: u64) -> Result<(Vec<Metric>, Rep), String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = rep_in_child(workload, o)?;
        if let Some(first) = reps.first() {
            assert_same_virtual(first, &rep, "between repetitions")?;
        }
        reps.push(rep);
        let enough =
            o.smoke || (start.elapsed().as_secs_f64() >= seconds as f64 && reps.len() >= MIN_REPS);
        if enough {
            break;
        }
    }
    let per_rep = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let wall_samples: [(&str, Vec<f64>); 3] = [
        ("setup_s", per_rep(|r| r.setup_s)),
        (
            "wall_us_per_op",
            per_rep(|r| r.run_s * 1e6 / r.ops.max(1) as f64),
        ),
        ("peak_rss_mb", per_rep(|r| r.peak_rss_mb)),
    ];
    let mut metrics = Vec::new();
    for m in &spec::END_TO_END {
        // Wall metrics are medians over the repetitions; every other
        // metric is the (identical) virtual value of any repetition.
        let (value, samples) = match wall_samples.iter().find(|(name, _)| *name == m.name) {
            Some((_, samples)) => (median(samples), samples.clone()),
            None => {
                let v = reps[0].e2e.get(m.name);
                (
                    *v.ok_or_else(|| format!("{workload} did not report {}", m.name))?,
                    Vec::new(),
                )
            }
        };
        metrics.push(Metric {
            name: m.name.to_string(),
            unit: m.unit,
            value,
            samples,
            defined: true,
        });
    }
    Ok((metrics, reps.swap_remove(0)))
}

/// Alternating untraced and traced repetitions for `seconds`, then the
/// probes: the per-layer metrics, and the trace file.
fn per_layer(workload: &str, o: &Opts, seconds: u64) -> Result<(Vec<Metric>, Rep), String> {
    let start = Instant::now();
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (mut plain_reps, mut traced_reps): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    loop {
        let run = plain_reps.len() as u32;
        let p = one_rep(workload, o, &mut plain, run)?;
        let tr = one_rep(workload, o, &mut traced, run)?;
        // Slicing `run_for` into 100 ms spans must not move one number.
        assert_same_virtual(&p, &tr, "between the untraced and the traced run")?;
        if let Some(first) = plain_reps.first() {
            assert_same_virtual(first, &p, "between repetitions")?;
        }
        plain_reps.push(p);
        traced_reps.push(tr);
        if o.smoke || start.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    traced.begin_rep(plain_reps.len() as u32);
    let probe_values = probes::run(workload, o, &mut traced);

    let first = &plain_reps[0];
    let run_s: Vec<f64> = plain_reps.iter().map(|r| r.run_s).collect();
    let traced_run_s: Vec<f64> = traced_reps.iter().map(|r| r.run_s).collect();
    let mut values: BTreeMap<String, f64> = first.layer.clone();
    values.extend(probe_values);
    let median_run_s = median(&run_s);
    values.insert(
        "simnet.sim.wall_ns_per_event".into(),
        median_run_s * 1e9 / (first.events as f64).max(1.0),
    );
    values.insert(
        "bench.wall_s_per_virtual_s".into(),
        median_run_s * 1e6 / (first.window_us as f64).max(1.0),
    );
    values.insert(
        "bench.trace_overhead_ratio".into(),
        median(&traced_run_s) / median_run_s.max(f64::MIN_POSITIVE),
    );

    let rec = traced.rec.as_ref().expect("the traced tracer records");
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, rec.to_json(workload, o.seed).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut metrics = Vec::new();
    for m in spec::per_layer() {
        let value = values.remove(&m.name);
        metrics.push(Metric {
            name: m.name,
            unit: m.unit,
            value: value.unwrap_or(0.0),
            samples: Vec::new(),
            defined: value.is_some(),
        });
    }
    if let Some(stray) = values.keys().next() {
        return Err(format!(
            "{workload} reported {stray}, which the spec does not list"
        ));
    }
    Ok((metrics, plain_reps.swap_remove(0)))
}

/// One workload as `BENCHMARK.json`'s command runs it.
pub fn run_workload(workload: &str, o: Opts, seconds: u64, trace: bool) -> Result<(), String> {
    let (metrics, rep) = if trace {
        per_layer(workload, &o, seconds)?
    } else {
        end_to_end(workload, &o, seconds)?
    };
    for m in metrics.iter().filter(|m| m.defined) {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    // Per-process values of the wall metrics, for `all` and `compare`.
    let samples: Vec<(String, Json)> = metrics
        .iter()
        .filter(|m| !m.samples.is_empty())
        .map(|m| (m.name.clone(), Json::nums(&m.samples)))
        .collect();
    println!("samples {}", Json::Obj(samples).to_line());
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(rep.attempted.max(1) as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_line());
    Ok(())
}

/// Every workload, untraced then traced, each run a process of its own,
/// gathered into one result file.
pub fn run_all(seed: u64, seconds: u64, smoke: bool, out: Option<String>) -> Result<(), String> {
    let mut workloads_json = Vec::new();
    let secs = seconds.to_string();
    for w in &spec::WORKLOADS {
        let mut sections = Vec::new();
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut args = vec!["--workload", w.name, "--seconds", &secs, "--trace", trace];
            if smoke {
                args.push("--smoke");
            }
            let stdout = run_self(&args, seed)?;
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = Json::parse(lines.pop().ok_or("child printed nothing")?)?;
            let samples = lines
                .pop()
                .and_then(|l| l.strip_prefix("samples "))
                .ok_or("child printed no samples line")
                .and_then(|l| Json::parse(l).map_err(|_| "bad samples line"))?;
            for l in &lines {
                println!("{l}");
            }
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("child result has no metrics")?;
            let with_samples: Vec<(String, Json)> = metrics
                .iter()
                .map(|(name, m)| {
                    let mut fields = m.as_obj().map(<[_]>::to_vec).unwrap_or_default();
                    if let Some(s) = samples.get(name) {
                        fields.push(("samples".to_string(), s.clone()));
                    }
                    (name.clone(), Json::Obj(fields))
                })
                .collect();
            sections.push((section.to_string(), Json::Obj(with_samples)));
            if trace == "0" {
                for key in ["attempted", "failed"] {
                    let n = result.get(key).cloned().unwrap_or(Json::Num(0.0));
                    sections.push((key.to_string(), n));
                }
            }
        }
        workloads_json.push((w.name.to_string(), Json::Obj(sections)));
    }
    let result = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = out.unwrap_or_else(|| format!("benchmark/out/result-seed-{seed}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}
