#!/usr/bin/env bash
# Non-test lines of Rust: the lines of a `.rs` file before its first
# `#[cfg(test)]`, or all of them when it has none. Prints one line per
# crate (every `.rs` under `crates/<crate>/src`) and their total, then one
# line per file named on the command line.
#
# With `--since <rev>`, each line shows the count at <rev>, the count now
# and the difference. <rev> is read through `git show`, without a second
# checkout; a crate or file missing on one side counts 0 there.
# Usage: scripts/loc.sh [--since <rev>] [file.rs ...]
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
since=""
if [[ "${1:-}" == --since ]]; then
  since="${2:?--since needs a revision}"
  shift 2
  git -C "$root" rev-parse --verify --quiet "$since^{commit}" >/dev/null ||
    { echo "loc.sh: unknown revision \`$since\`" >&2; exit 2; }
fi

count='FNR == 1 { tests = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n + 0 }'

# Non-test lines of the repository paths after $1: at revision $1, or in
# the working tree when $1 is empty.
lines() {
  local rev=$1 path n=0
  shift
  for path in "$@"; do
    if [[ -z "$rev" ]]; then
      n=$((n + $(awk "$count" "$root/$path")))
    elif git -C "$root" cat-file -e "$rev:$path" 2>/dev/null; then
      n=$((n + $(git -C "$root" show "$rev:$path" | awk "$count")))
    fi
  done
  echo "$n"
}

# The `.rs` paths under `crates/$2/src`, at revision $1 or, when $1 is
# empty, in the working tree.
sources() {
  if [[ -z "$1" ]]; then
    (cd "$root" && find "crates/$2/src" -name '*.rs' 2>/dev/null | sort)
  else
    git -C "$root" ls-tree -r --name-only "$1" -- "crates/$2/src" | grep '\.rs$' || true
  fi
}

# One output line: a name and its count now, after its count at <rev>.
row() {
  if [[ -z "$since" ]]; then
    printf '%-10s %6d\n' "$1" "$2"
  else
    printf '%-10s %6d %6d %+6d\n' "$1" "$3" "$2" $(($2 - $3))
  fi
}

crates=$(cd "$root/crates" && ls -d -- */ | tr -d /)
if [[ -n "$since" ]]; then
  printf '%-10s %6s %6s %6s\n' crate "${since:0:6}" now diff
  crates=$(printf '%s\n' $crates $(git -C "$root" ls-tree --name-only "$since" -- crates/ | sed 's|^crates/||') | sort -u)
fi
total=0
total_since=0
for crate in $crates; do
  mapfile -t files < <(sources "" "$crate")
  n=$(lines "" "${files[@]}")
  then=0
  if [[ -n "$since" ]]; then
    mapfile -t files < <(sources "$since" "$crate")
    then=$(lines "$since" "${files[@]}")
  fi
  total=$((total + n))
  total_since=$((total_since + then))
  row "$crate" "$n" "$then"
done
row total "$total" "$total_since"
for file in "$@"; do
  path=$(realpath --relative-to="$root" "$file")
  then=0
  [[ -z "$since" ]] || then=$(lines "$since" "$path")
  row "$file" "$(lines "" "$path")" "$then"
done
