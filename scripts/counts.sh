#!/bin/sh
# The numbers CHANGES.md, ROADMAP.md and the simplicity issues quote,
# computed instead of hand-counted. "Non-test" is everything above a file's
# first `#[cfg(test)]` line; a file named `tests.rs` is all test. Counts this
# checkout, or the one given as $1 (a clone of another commit). The
# middleware is either one file (`middleware.rs`) or a directory module
# (`middleware/`), so two checkouts on either side of the split print
# comparable lines. Informational: always exits 0.
cd "${1:-$(dirname "$0")/..}" || exit 0
src=crates/core/src
if [ -d "$src/middleware" ]; then
    mw=$(find "$src/middleware" -name '*.rs' | sort)
    mw_root=$src/middleware/mod.rs
else
    mw=$src/middleware.rs
    mw_root=$mw
fi

# Lines of file $1 above its first `#[cfg(test)]` (all of them if none).
nontest() {
    case "$1" in
        */tests.rs) echo 0; return ;;
    esac
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# Non-test lines of every middleware module, and their sum.
echo "middleware non-test lines per module:"
mwtotal=0
for f in $mw; do
    n=$(nontest "$f")
    mwtotal=$((mwtotal + n))
    printf '  %-28s %5d\n' "${f#"$src"/}" "$n"
done
printf '  %-28s %5d\n' total "$mwtotal"
unwraps=0
for f in $mw; do
    case "$f" in */tests.rs) continue ;; esac
    unwraps=$((unwraps + $(awk '/^#\[cfg\(test\)\]/ { exit } { n += gsub(/\.unwrap\(\)/, "") } END { print n + 0 }' "$f")))
done
echo "middleware non-test .unwrap():    $unwraps"
# The fields of the actor struct: how much state any of its functions can
# reach.
echo "Middleware fields:                $(awk '/^pub struct Middleware \{/ { on = 1; next } on && /^\}/ { exit } on && /^    (pub )?[a-z_0-9]+:/ { n++ } END { print n + 0 }' "$mw_root")"
echo "MwConfig fields:                  $(cat $mw | awk '/^pub struct MwConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }')"
echo "self.partial sites:               $(cat $mw | grep -c 'self\.partial')"
# SQL text on the middleware -> backend request wire: `String` fields of
# `DbOp` and of its batch structs.
echo "SQL String fields on DbOp wire:   $(awk '/^pub (enum DbOp|struct [A-Za-z]*Batch[A-Za-z]*) \{/ { on = 1; next } on && /^\}/ { on = 0 } on { n += gsub(/: (Option<)?String[,>]/, "") } END { print n + 0 }' crates/core/src/msg.rs)"
# Ordered positions on the middleware -> backend request wire: `marks`
# fields of `DbOp` variants. Positions travel only in `ApplyEntry`, the
# entries of `DbOp::Apply`, so this is 0.
echo "marks fields on DbOp outside ApplyEntry: $(awk '/^pub enum DbOp \{/ { on = 1; next } on && /^\}/ { exit } on && !/^ *\/\// { n += gsub(/marks: /, "") } END { print n + 0 }' crates/core/src/msg.rs)"
# The wire and bookkeeping surface: variants of the middleware -> backend
# request enum, of the events the middleware peers order and of the
# middleware's in-flight op table. Variants of the enum read on stdin whose
# opening line matches $1.
variants() {
    awk -v head="$1" '$0 ~ head { on = 1; next } on && /^\}/ { exit } on && /^    [A-Z][A-Za-z0-9]*( \{|,|\(|$)/ { n++ } END { print n + 0 }'
}
# Replication modes (partitioning is a placement, not a mode).
echo "Mode variants:                    $(cat $mw | variants '^pub enum Mode \\{')"
echo "DbOp variants:                    $(variants '^pub enum DbOp \\{' < crates/core/src/msg.rs)"
echo "DbResp variants:                  $(variants '^pub enum DbResp \\{' < crates/core/src/msg.rs)"
# The events middleware peers totally order: a second certification event
# would be a second certification path.
echo "ReplEvent variants:               $(variants '^pub enum ReplEvent \\{' < crates/core/src/msg.rs)"
# Call sites of the one fan-out, through which every delivered slot
# reaches its hosts: a second would be a second path from an ordered unit
# to a backend.
echo "fan_out( call sites:              $(cat $mw | grep -c 'self\.fan_out(')"
echo "Pending variants:                 $(cat $mw | variants '^enum Pending \\{')"
# What a session's statement waits on between admission and its reply.
echo "CurrentKind variants:             $(cat $mw | variants '^enum CurrentKind \\{')"
# Entry points of a backend's rejoin: the log replay and its dump
# fallback. A placement-only dump-first entry would be a second rejoin.
echo "rejoin entry functions:           $(cat $mw | grep -cE 'fn start_(log_recovery|full_resync|pw_resync)\(')"
# The backend wire's dead ends: `DbOp` variants no non-test middleware
# module names (nothing sends them) and `DbResp` variants none names
# (nothing reads them). Both are 0 when every op has a producer and every
# answer a consumer.
mw_body=$(for f in $mw; do
    case "$f" in */tests.rs) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"
done)
for e in DbOp DbResp; do
    unnamed=$(awk -v head="^pub enum $e \\{" '$0 ~ head { on = 1; next } on && /^\}/ { exit }
        on && /^    [A-Z][A-Za-z0-9]*( \{|,|\(|$)/ { sub(/^    /, ""); sub(/[ ,({].*/, ""); print }' crates/core/src/msg.rs |
        while read -r v; do printf '%s\n' "$mw_body" | grep -q "$e::$v\b" || echo "$v"; done)
    printf '%-40s%s\n' "$e variants unnamed by middleware:" "$(printf '%s' "$unnamed" | grep -c .) $(echo $unnamed)"
done
echo "crates/core/src non-test lines per file:"
total=0
for f in $(find "$src" -name '*.rs' | sort); do
    n=$(nontest "$f")
    total=$((total + n))
    printf '  %-28s %5d\n' "${f#"$src"/}" "$n"
done
printf '  %-28s %5d\n' total "$total"
# The engine decides conflicts the middleware used to retry around, so a
# change can move lines between the two crates: report both.
sql=0
for f in $(find crates/sql/src -name '*.rs' | sort); do
    sql=$((sql + $(nontest "$f")))
done
echo "crates/sql/src non-test lines:    $sql"
gcs=0
for f in $(find crates/gcs/src -name '*.rs' | sort); do
    gcs=$((gcs + $(nontest "$f")))
done
echo "crates/gcs/src non-test lines:    $gcs"
# The configuration surface outside MwConfig: fields of each config struct
# (a unit struct has none), and the environment variables the sources read.
# `AdaptiveConfig` was the gcs detector's; 0 where no file defines it.
for spec in GcsConfig:crates/gcs/src/member.rs QuarantineConfig:crates/core/src/health.rs \
    EngineConfig:crates/sql/src/engine.rs AdaptiveConfig:crates/gcs/src/detector.rs; do
    printf '%-34s%s\n' "${spec%%:*} fields:" "$(awk -v head="^pub struct ${spec%%:*} \\{" '$0 ~ head { if (/\}/) exit; on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }' "${spec#*:}")"
done
# The detection seam's own state: its per-backend collections.
printf '%-34s%s\n' "Detection fields:" "$(cat $mw | awk '/^pub\(super\) struct Detection \{/ { on = 1; next } on && /^\}/ { exit } on && /^    (pub(\(super\))? )?[a-z_0-9]+:/ { n++ } END { print n + 0 }')"
echo "env vars read in crates/*/src:    $(grep -rhoE 'env::var(_os)?\("[A-Za-z_0-9]+"\)' crates/*/src | sed -E 's/.*\("(.*)"\)/\1/' | sort -u | tr '\n' ' ')"
# `pub fn` names in crates/*/src that appear nowhere else in crates, tests,
# examples or benchmark/src: a name seen exactly once is only its
# definition.
rs=$(find crates tests examples benchmark/src -name '*.rs' 2>/dev/null)
names=$(grep -rhoE '\bpub fn [a-z_0-9]+' crates/*/src --include='*.rs' | sed 's/^pub fn //' | sort -u)
uncalled=$(cat $rs | grep -oE '\b[A-Za-z_][A-Za-z_0-9]*\b' | sort | uniq -c |
    awk -v names="$names" 'BEGIN { split(names, a, "\n"); for (i in a) want[a[i]] = 1 }
        ($2 in want) && $1 == 1 { n++ } END { print n + 0 }')
echo "pub fns with no caller:           $uncalled"
# The load drivers: the client, the session fleet and the open loop, which
# are one actor (`driver.rs`) since the driver merge and three before it.
echo "load drivers non-test lines:"
drivers=""
for f in $src/client.rs $src/fleet.rs crates/workload/src/openloop.rs $src/driver.rs; do
    [ -f "$f" ] && drivers="$drivers $f"
done
ldtotal=0
for f in $drivers; do
    n=$(nontest "$f")
    ldtotal=$((ldtotal + n))
    printf '  %-36s %5d\n' "$f" "$n"
done
printf '  %-36s %5d\n' total "$ldtotal"
echo "load driver actors (impl Actor<Msg>): $(cat $drivers | grep -c '^impl Actor<Msg> for')"
# Fields of each shape's config, wherever the struct lives.
for cfg in ClientConfig FleetConfig OpenLoopConfig; do
    printf '%-34s%s\n' "$cfg fields:" "$(cat $drivers | awk -v head="^pub struct $cfg \\{" '$0 ~ head { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }')"
done
# Per-record footprint: live heap per stored row, heap blocks per
# prepared autocommit INSERT (binlog unread and kept), live heap per
# backend connection and the blocks a read of 1 000 kept binlog entries
# allocates (crates/sql/tests/footprint.rs, a counting allocator), and the size of a
# row version, of a row's version chain, of a primary-key index slot, of a
# write record, of a writeset key, of a trace summary and of a middleware
# session record, and the gcs history a lone member retains against its
# cap. Runs the tests, so only in a checkout that has them.
if [ -f crates/sql/tests/footprint.rs ]; then
    {
        cargo test -q --offline -p replimid-sql --test footprint -- --nocapture --test-threads 1
        cargo test -q --offline -p replimid-sql --lib -- --nocapture a_version_is_48_bytes a_chain_is_48_bytes a_write_record_is
        cargo test -q --offline -p replimid-core --lib -- --nocapture a_summary_is_96_bytes a_session_record_is
        cargo test -q --offline -p replimid-gcs --lib -- --nocapture a_lone_member_retains_nothing
    } 2>/dev/null | sed -n 's/^\.*footprint: /  /p' | sed '1i per-record footprint:'
fi
exit 0
