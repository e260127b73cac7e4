#!/usr/bin/env bash
# Non-test lines of Rust: the lines of a `.rs` file before its first
# `#[cfg(test)]`, or all of them when it has none. Prints one line per
# crate (every `.rs` under `crates/<crate>/src`) and their total, then one
# line per file named on the command line.
# Usage: scripts/loc.sh [file.rs ...]
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

non_test_lines() {
  awk 'FNR == 1 { tests = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n + 0 }' "$@"
}

total=0
for src in "$root"/crates/*/src; do
  crate="$(basename "$(dirname "$src")")"
  mapfile -t files < <(find "$src" -name '*.rs' | sort)
  n="$(non_test_lines "${files[@]}")"
  total=$((total + n))
  printf '%-10s %6d\n' "$crate" "$n"
done
printf '%-10s %6d\n' total "$total"
for file in "$@"; do
  printf '%s %d\n' "$file" "$(non_test_lines "$file")"
done
