#!/usr/bin/env bash
# Tier-1 verification, runnable with no network access:
#   1. guard: no external (registry) dependencies in any crate manifest
#   2. cargo build --release --offline
#   3. cargo test -q --offline
#   4. cargo clippy --offline --all-targets -- -D warnings (lint-clean)
#   5. determinism: the full experiments suite, run twice, must be
#      byte-identical (same seeds => same numbers, see DESIGN.md) and must
#      equal the committed experiments_output.txt (E1..E23 regenerate
#      byte-identically, or the file is re-baselined in the same change);
#      prints each run's wall seconds
#   6. repo benchmark: its own unit tests, then all five workloads at
#      smoke size (asserts replica convergence, RYW = 0 and cross-process
#      bit-identity of the virtual metrics; benchmark/README.md)
#   7. scripts/counts.sh: the line / unwrap / option counts the docs quote
#      (informational, never fails)
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
# Each run's wall seconds are printed for the record (informational: the
# suite's run time is tracked across changes, no check reads it).
out_a=$(mktemp)
out_b=$(mktemp)
trap 'rm -f "$out_a" "$out_b"' EXIT
for out in "$out_a" "$out_b"; do
    start=$SECONDS
    cargo run --release -q --offline -p replimid-bench --bin experiments > "$out"
    echo "verify: experiments run took $((SECONDS - start)) s wall"
done
if ! diff -q "$out_a" "$out_b" > /dev/null; then
    echo "verify: determinism FAILED — two same-seed runs differ:" >&2
    diff "$out_a" "$out_b" | head -20 >&2
    exit 1
fi
echo "verify: determinism OK (two experiment runs byte-identical)"
# The committed reference is what EXPERIMENTS.md quotes: a run that differs
# from it either moved a number by accident or needs the file (and the
# tables) re-baselined in the same change.
if ! diff -q experiments_output.txt "$out_a" > /dev/null; then
    echo "verify: experiments differ from the committed experiments_output.txt:" >&2
    diff experiments_output.txt "$out_a" | head -20 >&2
    exit 1
fi
echo "verify: reference OK (run equals the committed experiments_output.txt)"

# --- 6. Repo benchmark ---------------------------------------------------
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

# --- Counts ---------------------------------------------------------------
# The size numbers CHANGES.md and ROADMAP.md quote. Informational only.
scripts/counts.sh || true
