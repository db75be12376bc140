#!/usr/bin/env bash
# Guard against library code that no program links.
#
# Builds every program (tools/, bench/, examples/, fuzz/) and perfbench's
# pqs_bench at -O0 -fno-inline -ffunction-sections, linked with
# -Wl,--gc-sections, so a function stays in a binary only if something the
# program runs can reach it. Every strong `pqs::` text symbol of libpqs.a
# that no binary defines is "unlinked". Each one's name (without its
# parameter list) must be listed in scripts/unlinked_symbols.txt with the
# reason it is kept:
#
#   reference  a test compares a computed result against it;
#   roadmap    a query-level circuit builder the open items build on;
#   harness    a test needs it to build inputs or observe state that no
#              program surface exposes.
#
# The check fails on an unlinked symbol missing from the list, and on a
# listed symbol that a program links again or that no longer exists: the
# list never holds more than what is true of the tree.
#
# Usage: scripts/check_unlinked_symbols.sh
# It builds in a temporary directory and removes it on exit.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
list="$root/scripts/unlinked_symbols.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "check_unlinked_symbols: building the programs in $work" >&2
cmake -S "$root" -B "$work/main" "${flags[@]}" -DPQS_BUILD_TESTS=OFF \
  > "$work/main.log" 2>&1
cmake --build "$work/main" -j "$jobs" >> "$work/main.log" 2>&1 ||
  { tail -n 40 "$work/main.log" >&2; exit 1; }
cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}" \
  > "$work/perfbench.log" 2>&1
cmake --build "$work/perfbench" -j "$jobs" --target pqs_bench \
  >> "$work/perfbench.log" 2>&1 ||
  { tail -n 40 "$work/perfbench.log" >&2; exit 1; }

programs=("$work/perfbench/pqs_bench")
for dir in tools bench examples fuzz; do
  for bin in "$work/main/$dir"/*; do
    [ -f "$bin" ] && [ -x "$bin" ] && programs+=("$bin")
  done
done

# Demangled names of the archive's strong text symbols in namespace pqs.
strong() {
  nm -C --defined-only "$work/main/libpqs.a" 2>/dev/null |
    awk '$2 == "T" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep '^pqs::' | sort -u
}
linked() {
  for bin in "${programs[@]}"; do
    nm -C --defined-only "$bin" |
      awk '{ $1 = ""; $2 = ""; sub(/^  /, ""); print }'
  done | sort -u
}
strong > "$work/strong.txt"
linked > "$work/linked.txt"
# Compared by full signature, then cut to the name before its parameter
# list, ABI tags dropped: the list stays free of one demangler's spelling.
comm -23 "$work/strong.txt" "$work/linked.txt" |
  sed 's/(.*$//; s/\[abi:[^]]*\]//g' | sort -u > "$work/unlinked.txt"

# The list: one `name  # reason` per line; blank and `#` lines ignored.
entries="$(grep -v '^[[:space:]]*\(#\|$\)' "$list" || true)"
printf '%s\n' "$entries" | sed '/^$/d; s/[[:space:]]*#.*$//' | sort -u \
  > "$work/listed.txt"
bad_reason="$(printf '%s\n' "$entries" | sed '/^$/d' |
  grep -v '#[[:space:]]*\(reference\|roadmap\|harness\):' || true)"

status=0
report() {
  local title="$1" file="$2"
  if [ -s "$file" ]; then
    echo "check_unlinked_symbols: $title:" >&2
    sed 's/^/  /' "$file" >&2
    status=1
  fi
}
comm -23 "$work/unlinked.txt" "$work/listed.txt" > "$work/unlisted.txt"
comm -13 "$work/unlinked.txt" "$work/listed.txt" > "$work/stale.txt"
report "unlinked but not in scripts/unlinked_symbols.txt (delete the \
symbol, or list it with a reason)" "$work/unlisted.txt"
report "listed but linked by a program again, or gone from libpqs.a \
(drop the line)" "$work/stale.txt"
if [ -n "$bad_reason" ]; then
  echo "check_unlinked_symbols: lines without a reference:, roadmap: or" \
       "harness: reason:" >&2
  printf '  %s\n' "$bad_reason" >&2
  status=1
fi

echo "check_unlinked_symbols: $(wc -l < "$work/unlinked.txt") unlinked" \
     "strong pqs:: symbol names over ${#programs[@]} programs" >&2
exit "$status"
