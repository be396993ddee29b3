#!/bin/sh
# The numbers CHANGES.md, ROADMAP.md and the simplicity issues quote,
# computed instead of hand-counted. "Non-test" is everything above a file's
# first `#[cfg(test)]` line. Counts this checkout, or the one given as $1
# (a clone of the parent commit). Informational: always exits 0.
cd "${1:-$(dirname "$0")/..}" || exit 0
mw=crates/core/src/middleware.rs

# Lines of file $1 above its first `#[cfg(test)]` (all of them if none).
nontest() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

echo "middleware.rs non-test lines:     $(nontest "$mw")"
echo "middleware.rs non-test .unwrap(): $(awk '/^#\[cfg\(test\)\]/ { exit } { n += gsub(/\.unwrap\(\)/, "") } END { print n + 0 }' "$mw")"
echo "MwConfig fields:                  $(awk '/^pub struct MwConfig \{/ { on = 1; next } on && /^\}/ { exit } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }' "$mw")"
echo "self.partial sites:               $(grep -c 'self\.partial' "$mw")"
# SQL text on the middleware -> backend request wire: `String` fields of
# `DbOp` and of its batch structs.
echo "SQL String fields on DbOp wire:   $(awk '/^pub (enum DbOp|struct [A-Za-z]*Batch[A-Za-z]*) \{/ { on = 1; next } on && /^\}/ { on = 0 } on { n += gsub(/: (Option<)?String[,>]/, "") } END { print n + 0 }' crates/core/src/msg.rs)"
echo "crates/core/src non-test lines per file:"
total=0
for f in crates/core/src/*.rs; do
    n=$(nontest "$f")
    total=$((total + n))
    printf '  %-14s %5d\n' "$(basename "$f")" "$n"
done
printf '  %-14s %5d\n' total "$total"
# The engine decides conflicts the middleware used to retry around, so a
# change can move lines between the two crates: report both.
sql=0
for f in $(find crates/sql/src -name '*.rs' | sort); do
    sql=$((sql + $(nontest "$f")))
done
echo "crates/sql/src non-test lines:    $sql"
exit 0
