#!/usr/bin/env bash
# The tier-1 gate plus lints, exactly what a PR must keep green:
#   1. cargo fmt --check
#   2. cargo build --release
#   3. cargo test -q (then the e2e suites again at pinned thread widths,
#      the exec equivalence, physical-pipeline oracle parity (every
#      property, top-k included), eager-aggregation
#      oracle parity and join-order golden, optimizer reference,
#      distinct-count sketch reference, footer mismatch, kernel
#      equivalence, merge tree (exchange properties and golden pins; the
#      tree's depth now depends on the data), zone-map verdict soundness,
#      selected decode,
#      buffer-backed Utf8 column, row bitmap, two-phase leaf (its count-only arm
#      included), LRU, block-cache, node-table
#      and scheduler model suites again in
#      release with more cases, and the exec, optimizer,
#      catalog/schema/statistics, ingest, Utf8 decode and concat, and
#      leaf allocation budgets — a scan task's, a count-only task's and a
#      warmed scan's skipped tasks' —
#      and the Bool decode's byte budget in release)
#   4. cargo clippy --workspace --all-targets -- -D warnings (tests,
#      examples and bins linted like the libraries)
#   5. the observability smoke runner, `experiments --check` (every
#      paper table regenerated, its shape asserted, EXPERIMENTS.md held to
#      the bytes; wall time printed, budget 60 s) and the benchmark,
#      smoke-sized
#   6. the non-test line counts of scripts/loc.sh, printed, not gated
# Usage: scripts/ci.sh
#
# The build environment has no network; when crates.io is unreachable the
# script falls back to --offline (all dependencies are vendored under
# shims/, so offline builds are fully supported).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
  echo "ci: no network, using --offline"
  OFFLINE="--offline"
fi

echo "ci: fmt (--check)"
cargo fmt --all -- --check

echo "ci: build (release)"
cargo build --release $OFFLINE

echo "ci: test"
cargo test -q $OFFLINE

# The worker pool (leaf tasks, partition merges) must produce
# bit-identical simulated results at any thread count. Re-run the e2e
# suites — including the agg_roundtrip and merge_exchange property
# suites and the merge_tree_golden pins, which must hold unchanged at
# either width — at a pinned pool width (tests/src/lib.rs honors
# FEISU_EXECUTION_THREADS for specs that don't pin their own).
echo "ci: e2e at execution_threads=8"
FEISU_EXECUTION_THREADS=8 cargo test -q $OFFLINE -p feisu-tests

# The shared (&self) engine must yield bit-identical results with many
# client threads driving it at once. Re-run the e2e suites at a pinned
# client width (tests/tests/concurrency.rs honors FEISU_CLIENT_THREADS).
echo "ci: e2e at client_threads=4"
FEISU_CLIENT_THREADS=4 cargo test -q $OFFLINE -p feisu-tests

# The columnar key layer (exec::keys) against its row-at-a-time reference
# — grouped batches of up to 200 rows on a wide nullable key, so group
# ids pass 64 and 128 (the group validity and SUM/MIN/MAX bitmaps past
# one and two words) with groups whose arguments are all NULL, sorts over
# NULL-free keys too, and the master's finish of 3 disjoint partitions
# equal to folding 1-3 leaves (the finish's Corrupt cases — a repeated
# key, a NULL count, a 2-row global transport — are aggregate unit tests)
# — and the physical pipeline against the oracle executor — every scan
# lowered with its clauses resolved to storage names, ORDER BY … LIMIT k
# over low-cardinality keys cut to k rows at every leaf and stem and
# compared row for row, in order: the default 256 cases ran above in
# debug; here 2048 per property
# with optimizations on (`PROPTEST_CASES` is read by shims/proptest), next to
# the allocation budgets, whose counts are exact in any profile: the key
# layer's, a 10,000-group transport finished within its footprint in
# bytes (no hash, id or key copy), `RecordBatch::concat` of 16 Utf8 batches and a Utf8 chunk's
# decode the same at 256 and 4,096 rows, beside it one row of a 65,536-row
# Bool chunk decoded in at most rows/4 + 512 bytes (its body, no validity
# words and no word per row) and one row of a chunk stored uncompressed in
# under 1/16 of the chunk's bytes (the payload is read in place),
# `Catalog::table()`, a repeated
# `Catalog::table_stats()` and `Schema::clone` at zero whatever the
# table's size, an ingested block's not following its row count, a scan
# task's projecting a Utf8 column following neither the rows of the block
# nor the rows it keeps, a count-only task's following nothing, a
# warmed scan's tasks that its resident footers skip allocating at most
# six each — grouped, counting and as rows, task reuse on and off — and
# the optimizer's not following the table's width. Beside the key layer
# run the exchange router's mask against `%` at every power of two and a
# moved, routed transport against a copied, hashed one. The properties this
# budget rides with run in the plain `cargo test` above at 256 cases:
# the SmartIndex manager's early-out TTL sweep against sweeping on every
# insert, and the delta decoder's one-byte fast path against its varint
# loop; the exchange merger's zero-row children run at 2048 cases with
# the merge tree suites below.
echo "ci: exec equivalence + physical pipeline oracle parity suites (release, 2048 cases) + allocation budgets"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-exec --test equivalence --test alloc_budget
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-tests --test physical_pipeline_prop
cargo test -q --release $OFFLINE -p feisu-core --test catalog_snapshot --test leaf_alloc_budget --test scan_alloc_budget
cargo test -q --release $OFFLINE -p feisu-sql --test optimize_alloc_budget

# Aggregates over random 2–3 table joins — join keys from unique to
# heavily repeated, COUNT/SUM/MIN/MAX/AVG, grouped and global — against the
# oracle, with the estimator both splitting and refusing to split the
# aggregate around the join within the cases; beside them the join-order
# golden, every search's orders and costs held to the recorded ones.
echo "ci: eager aggregation oracle parity + join-order golden (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-tests --test eager_aggregation --test reorder_golden

# The merge tree's depth is priced per grouped scan from the leaves'
# outputs, so which levels run depends on the data: the exchange
# properties — random rows over every grid, fan-in cap (1, 2 and the
# default 64) and partition count, integer answers bit-identical whatever
# depth is chosen, and one merger given zero-row children, well-formed
# (skipped) and malformed (still Corrupt), and a global aggregate's
# shared zero state (counted, not folded), equal to folding every child —
# and the golden pins (one probe of each depth) again.
echo "ci: merge tree exchange properties + golden pins (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-tests --test merge_exchange --test merge_tree_golden

# The in-place optimizer rules against the copy-and-compare driver they
# replaced: every rule application's "changed" flag equals `after !=
# before`, plans and traces equal the reference's — random statements at
# the same case count, plus the benchmark's 2,000-statement trace. Beside
# them, the sorted-vector distinct-count sketch against the ordered set it
# replaced: the same kept hashes, saturation and estimate over hash
# streams with duplicates, merges in every order and association, and a
# Utf8 column sketched by value, by column and from its chunk dictionaries.
echo "ci: optimizer + sketch reference suites (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-sql --test optimizer_reference
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-sql --lib -- stats::

# A resident footer must never decode bytes it was not parsed from:
# foreign, rewritten, truncated and bit-flipped blocks through another
# block's footer are Corrupt or decoded exactly right, by the same
# mechanism at the same case count. Beside it, the buffer-backed Utf8
# column (one byte buffer plus offsets) against a `Vec<Option<String>>`
# reference: gathers, cuts, appends, concats, bounds, footprints, values,
# equality and the decoder through random selections, with empty and
# multi-byte strings, NULL slots and empty columns, and a dictionary
# chunk's one-pass UTF-8 check against checking entry by entry (invalid
# bytes at entry edges, every cut). And the one row bitmap
# (`BitVec`, and the `Validity` that wraps it) against a `Vec<bool>`:
# push, resize across word edges, set, append and split at every offset into
# a word, filter, set-bit walks, the in-place algebra and the packed
# words, tail bits zero.
echo "ci: footer mismatch + Utf8 column + row bitmap suites (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-format --test footer_mismatch
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-format --test utf8_column
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-format --test bits_model

# The predicate kernel and the word-level CompressedBits against the
# row- and bit-at-a-time loops they replaced (values, errors, runs and
# footprints), the footer's zone-map verdict on each CNF clause against
# brute force over the decoded block (a proved clause true on every row,
# a disproved one on none; NULLs, NaN, ±0.0, empty strings, mixed
# Int/Float literals, all-NULL and zero-row blocks), and decoding through
# a selection against decoding then filtering, corrupt chunks included
# and a selection of another length an error —
# in the format and, one level up, in the leaf's two phases against a
# decode-everything reference that drops the clauses the footer proves
# (batch, stats and tally; index on and off; one task in three a bare
# COUNT(*), billed no projection and no aggregate update), beside the held-handle
# case (a SmartIndex entry evicted before its turn still serves, nothing
# re-decoded): same mechanism, same case count.
echo "ci: kernel equivalence + zone verdicts + selected decode + two-phase leaf suites (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-index --test kernel_equivalence
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-core --lib -- leaf::tests::zones_classify
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-format --test selected_decode
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-tests --test leaf_execution -- two_phase held_handle

# The recency core under every per-node cache (common::lru) against a
# Vec kept in recency order: same returns, victims, order and weight.
# Beside it, the chunk-granular block cache against one Vec of resident
# chunks in recency order, each with its tier and speculative flag:
# seeded reads over random chunk layouts through small tiers are served
# from the same tier chunk by chunk, with the same stats totals, tier
# bytes and ghosts. The master's node table against a plain per-node model:
# random beats, failures, recoveries, slow marks, business loads, slot
# acquires and releases at random instants give the same alive lists,
# acquire answers, slot limits and system.nodes rows. And the scheduler
# against brute force: over random replica lists and dead nodes, the
# per-node maximum is the least any placement on holders and alive
# rack-mates reaches, tasks stay on holders when holders alone reach it,
# and an already optimal greedy placement comes back unchanged.
echo "ci: lru + block cache + node table + scheduler model suites (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-common --test lru_model
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-storage --test cache_model
PROPTEST_CASES=2048 cargo test -q --release $OFFLINE -p feisu-core --lib -- master::nodes:: master::scheduler::

echo "ci: clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets $OFFLINE -- -D warnings

# Observability plane: system tables must answer plain SQL and a real
# query's Chrome trace must export as well-formed, non-empty JSON (the
# runner asserts both and exits non-zero otherwise).
echo "ci: observability smoke (system tables + trace export)"
cargo run --release $OFFLINE -p feisu-bench --bin obs_smoke

# EXPERIMENTS.md is an output: every table between its generated markers
# must be, byte for byte, what the code produces now, and every experiment
# must still have its paper shape (a diff or a lost shape exits non-zero).
# The binary prints each experiment's wall time, so an overrun of the
# 60 s budget names its experiment.
echo "ci: experiments --check (EXPERIMENTS.md equals what the code produces)"
experiments_start=$SECONDS
cargo run --release $OFFLINE -p feisu-bench --bin experiments -- --check
echo "ci: experiments --check took $((SECONDS - experiments_start)) s (budget 60 s)"

# The one benchmark must run end to end against these crates (every
# statement succeeds, every checked answer right), and its own unit
# tests must pass.
echo "ci: benchmark (smoke)"
bash benchmark/run.sh --smoke
echo "ci: benchmark unit tests"
(cd benchmark && cargo test -q --offline)

# Size, printed and not gated: non-test lines per crate.
echo "ci: non-test lines (scripts/loc.sh)"
scripts/loc.sh

echo "ci: all green"
