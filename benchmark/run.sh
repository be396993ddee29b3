#!/usr/bin/env bash
# One command for people: offline release build of the benchmark package,
# then every workload (untraced, then traced), every metric printed as
# `workload metric value unit`, and the result JSON written.
#
#   benchmark/run.sh                      # seed 11, 15 s per run, ~3 min
#   benchmark/run.sh --seed 12 --out benchmark/baseline/seed-12.json
#   benchmark/run.sh --smoke              # CI: a tenth of the work, one repetition
#
# The driver named in BENCHMARK.json does not use this script; it runs
# `cargo run ... -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`
# once per workload with CARGO_TARGET_DIR set.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" all "$@"
