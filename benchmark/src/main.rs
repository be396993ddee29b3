//! The repo benchmark. Five workloads, two clocks, layer probes.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! benchmark spec
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, repeated
//! for `--seconds` of wall time, every metric printed as
//! `workload metric value unit` and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run. See `README.md` beside `Cargo.toml`.

mod compare;
mod json;
mod probes;
mod runner;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         benchmark all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]\n       \
         benchmark compare <a.json> <b.json>\n       \
         benchmark spec\n\
         workloads: {}",
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs plus bare `--smoke`; anything else is an error.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 11,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = number()?,
            "--seconds" => f.seconds = number()?,
            "--trace" => f.trace = number()? != 0,
            "--out" => f.out = Some(value.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

fn workload_of(f: &Flags) -> Result<(String, workloads::Opts), String> {
    let workload = f.workload.clone().ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let opts = workloads::Opts {
        seed: f.seed,
        smoke: f.smoke,
    };
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return usage(),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(())
        }
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("compare") => return usage(),
        Some("all") => {
            parse_flags(&args[1..]).and_then(|f| runner::run_all(f.seed, f.seconds, f.smoke, f.out))
        }
        // Internal: one untraced repetition, spawned by the form below.
        Some("rep") => parse_flags(&args[1..]).and_then(|f| {
            let (workload, opts) = workload_of(&f)?;
            runner::run_rep(&workload, &opts)
        }),
        Some(_) => parse_flags(&args).and_then(|f| {
            let (workload, opts) = workload_of(&f)?;
            runner::run_workload(&workload, opts, f.seconds, f.trace)
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // No result line: a failed check must not look like a measurement.
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
