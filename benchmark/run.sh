#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the repository
# root. All arguments go to the binary:
#
#   benchmark/run.sh                      every workload, both passes, fixed statement counts
#   benchmark/run.sh --smoke              the same at ~1/16 size (< 15 s)
#   benchmark/run.sh --workload agg_join --seed 7 --out results.json
#   benchmark/run.sh --repeat 2           two sets; the second is held to the first
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one pass, one JSON result line (BENCHMARK.json)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Without CARGO_TARGET_DIR cargo builds into benchmark/target; with a
# relative one (the driver's `.bench_build`) into that directory under
# the repository root, which is where we run the binary from.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/feisu-benchmark" "$@"
