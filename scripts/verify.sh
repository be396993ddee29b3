#!/usr/bin/env bash
# Tier-1 verification, runnable with no network access:
#   1. guard: no external (registry) dependencies in any crate manifest
#   2. cargo build --release --offline
#   3. cargo test -q --offline
#   4. cargo clippy --offline --all-targets -- -D warnings (lint-clean)
#   5. determinism: the full experiments suite, run twice, must be
#      byte-identical (same seeds => same numbers, see DESIGN.md)
#   6. perf trajectory: re-measure the E18 group-commit operating points
#      and write BENCH_pr5.json (tps + p50/p99 per point)
#   7. freshness trajectory: re-measure the E19 session-scale corner
#      points under ReadPolicy::Fresh and write BENCH_pr6.json (read tps
#      + p50/p99 at 10^3 and 10^5 sessions; asserts zero RYW violations)
#   8. durability trajectory: run the crash matrix (clean / lost-tail /
#      torn-tail x checkpoint interval) and write BENCH_pr7.json (MTTR
#      p50/p99 + replay entries/sec per interval; the bin asserts zero
#      committed-transaction loss in every episode)
#   9. statement-pipeline trajectory: re-measure the plan-cache stage
#      attribution and the E18 corner points with the cache off/on and
#      write BENCH_pr8.json (the bin asserts hit rate > 0 and that the
#      cache-off compatibility arm is bit-identical across reruns)
#  10. partial-replication trajectory: re-measure the E22 write-scaling
#      curve (global vs striped partial at 2/4/8 backends) and write
#      BENCH_pr9.json (the bin asserts partial beats global by > 2x at 8
#      backends and that a trivial placement runs the global path
#      byte-for-byte — counters, certifier stats, and data checksums)
#  11. elasticity trajectory: run the E23 management operations (add /
#      drain / rolling restart) under open-loop load and write
#      BENCH_pr10.json (the bin asserts zero committed-write loss, full
#      arrival accounting, and that a classic closed-loop arm is
#      bit-identical across reruns — the driver-off guarantee)
#  12. repo benchmark: its own unit tests, then all five workloads at
#      smoke size (asserts replica convergence, RYW = 0 and cross-process
#      bit-identity of the virtual metrics; benchmark/README.md)
#
# The guard exists because this workspace is built in environments with no
# registry access: a single external crate in a Cargo.toml breaks the build
# before anything compiles (see DESIGN.md, "Hermetic-build policy").

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. No-external-dependency guard -----------------------------------
# Every dependency line in every crate manifest must be a workspace or
# path dependency. Anything else would be fetched from the registry.
for manifest in Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; do
    # Lines inside [dependencies]/[dev-dependencies]/[build-dependencies]
    # sections that are not workspace/path references.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*[.=]/ {
            if ($0 !~ /workspace[[:space:]]*=[[:space:]]*true/ &&
                $0 !~ /\.workspace[[:space:]]*=/ &&
                $0 !~ /path[[:space:]]*=/)
                print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: external dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done

# Belt and braces: the crates this repo historically depended on must not
# reappear anywhere in a crate manifest.
if grep -rnE '^[[:space:]]*(rand|proptest|criterion)[[:space:]]*[.=]' \
        Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "ERROR: banned external crate referenced above" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "verify: dependency guard FAILED" >&2
    exit 1
fi
echo "verify: dependency guard OK (workspace is hermetic)"

# --- 2 + 3. Tier-1 build and tests, offline ----------------------------
cargo build --release --offline
cargo test -q --offline

# --- 4. Lint gate -------------------------------------------------------
# The workspace stays clippy-clean: warnings are errors across every
# target (libs, bins, tests). Skipped gracefully on toolchains without a
# clippy component.
if cargo clippy --version > /dev/null 2>&1; then
    cargo clippy --offline --all-targets -- -D warnings
    echo "verify: clippy OK (no warnings, all targets)"
else
    echo "verify: clippy unavailable on this toolchain, skipping lint gate"
fi

# --- 5. Determinism check ----------------------------------------------
# Every experiment draws from fixed seeds, so two runs must agree on every
# byte. A diff here means nondeterminism leaked into the simulation (wall
# clock, hash order, thread timing), which invalidates every table in
# EXPERIMENTS.md.
out_a=$(mktemp)
out_b=$(mktemp)
trap 'rm -f "$out_a" "$out_b"' EXIT
cargo run --release -q --offline -p replimid-bench --bin experiments > "$out_a"
cargo run --release -q --offline -p replimid-bench --bin experiments > "$out_b"
if ! diff -q "$out_a" "$out_b" > /dev/null; then
    echo "verify: determinism FAILED — two same-seed runs differ:" >&2
    diff "$out_a" "$out_b" | head -20 >&2
    exit 1
fi
echo "verify: determinism OK (two experiment runs byte-identical)"

# --- 6. Perf trajectory -------------------------------------------------
# Re-measure the E18 group-commit operating points through the timing
# harness and leave BENCH_pr5.json at the repo root, so later PRs can
# compare throughput/latency at fixed points instead of re-reading tables.
cargo run --release -q --offline -p replimid-bench --bin bench_pr5
echo "verify: perf trajectory OK (BENCH_pr5.json written)"

# --- 7. Freshness trajectory --------------------------------------------
# The E19 corner points (10^3 and 10^5 sessions, 4 backends) under
# freshness-constrained routing. The bin itself asserts ryw_violations == 0
# at both points, so this doubles as a read-your-writes gate.
cargo run --release -q --offline -p replimid-bench --bin bench_pr6
echo "verify: freshness trajectory OK (BENCH_pr6.json written)"

# --- 8. Durability trajectory -------------------------------------------
# The PR 7 crash matrix: every (crash kind x checkpoint interval) episode
# crashes a durable backend mid-load, restarts it, and requires the
# recovered replica to reconverge with its peers — zero committed loss —
# while measuring MTTR (checkpoint load + WAL replay + rejoin) in virtual
# time. Fails loudly if any episode diverges.
cargo run --release -q --offline -p replimid-bench --bin bench_pr7
echo "verify: durability trajectory OK (BENCH_pr7.json written)"

# --- 9. Statement-pipeline trajectory ------------------------------------
# The PR 8 fast path: plan-cache stage attribution (Admission + Execute
# µs, cache off vs on) and write tps at the E18 corner points, written to
# BENCH_pr8.json. The bin asserts the cache hits on the microbench mix and
# that the cache-off arm — the compatibility path — is bit-identical
# across same-seed reruns.
cargo run --release -q --offline -p replimid-bench --bin bench_pr8
echo "verify: statement-pipeline trajectory OK (BENCH_pr8.json written)"

# --- 10. Partial-replication trajectory ----------------------------------
# The PR 9 headline: disjoint write workloads scale near-linearly under a
# striped one-replica placement while full replication saturates at one
# backend's apply rate, written to BENCH_pr9.json. The bin asserts the
# 8-backend partial/global ratio stays above 2x and that a trivial
# placement is normalized away into the exact global single-sequencer
# path (byte-identical counters, certifier stats, and checksums).
cargo run --release -q --offline -p replimid-bench --bin bench_pr9
echo "verify: partial-replication trajectory OK (BENCH_pr9.json written)"

# --- 11. Elasticity trajectory -------------------------------------------
# The PR 10 campaign: management operations (scale-out, graceful drain,
# rolling restart) measured under open-loop Poisson load that does not
# slow down when the cluster does. The bin asserts zero committed-write
# loss (acked ⊆ present on every Online backend), full arrival accounting
# (ok + err + shed == arrivals), and that a classic closed-loop arm —
# no open-loop driver anywhere — is bit-identical across same-seed
# reruns, so E1..E22 stay untouched by the new machinery.
cargo run --release -q --offline -p replimid-bench --bin bench_pr10
echo "verify: elasticity trajectory OK (BENCH_pr10.json written)"

# --- 12. Repo benchmark --------------------------------------------------
# The benchmark is a package of its own outside the workspace, so steps 2-4
# never build it. Run its unit tests and one smoke pass over all five
# workloads: each asserts its own correctness checks (replica convergence,
# zero RYW/monotonic violations, no acknowledged write lost) and that the
# virtual metrics are bit-identical between the traced run and an untraced
# child process.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke
echo "verify: repo benchmark OK (unit tests + smoke run of all workloads)"

echo "verify: OK"
