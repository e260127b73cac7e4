//! `ingest_query`: writes beside reads, data larger than the cache, a hot
//! set that shifts.
//!
//! A 64-field log table grows by 2,048 rows per tick; each tick then runs
//! 20 statements, 16 of them restricted to the two newest `day` values
//! and 4 over all history. The block cache holds under half of the
//! stored bytes from the first tick on, so a cache change that only helps
//! a static hot set — or a read-side gain bought at ingest cost — shows
//! here. Every eighth tick one old block is rewritten in place, so
//! invalidation runs.

use super::{family, sized, LoadPath, Plan, Source, Step, TableDef, Workload};
use feisu_common::rng::DetRng;
use feisu_common::ByteSize;
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

const PRELOAD_ROWS: usize = 81_920;
const TICKS: usize = 40;
const TICK_ROWS: usize = 2_048;
const TICK_STATEMENTS: usize = 20;
const ROWS_PER_BLOCK: usize = 1024;

/// First statement of every tick. The answer check holds it to the rows
/// ingested so far.
pub const COUNT_ALL: &str = "SELECT COUNT(*) FROM log";

/// `generate_chunk` clusters `day`: 5,000 consecutive rows share a value.
fn day_of_row(row: usize) -> i64 {
    20160101 + (row / 5000) as i64 % 60
}

pub fn plan(seed: u64, smoke: bool) -> Plan {
    let mut spec = ClusterSpec::with_nodes(8);
    let rows_per_block = sized(ROWS_PER_BLOCK, smoke);
    spec.rows_per_block = rows_per_block;
    spec.config.execution_threads = 1;
    spec.config.cache.enabled = true;
    // 8 MiB of cache in all: the preloaded rows alone store more than
    // twice that, and the table keeps growing.
    spec.config.cache.mem_capacity_per_node = ByteSize::kib(sized(256, smoke) as u64);
    spec.config.cache.ssd_capacity_per_node = ByteSize::kib(sized(768, smoke) as u64);

    let preload = sized(PRELOAD_ROWS, smoke);
    let ticks = sized(TICKS, smoke);
    let mut log = DatasetSpec::t1(preload + ticks * TICK_ROWS);
    log.name = "log".into();
    log.fields = 64;
    log.seed = seed ^ 0x106;

    // The statements are the same for every seed; the seed draws the rows.
    let mut rng = DetRng::new(0x1235_7E57);
    let mut steps = Vec::new();
    let mut rows = preload;
    for tick in 0..ticks {
        steps.push(Step::Ingest {
            table: 0,
            start: rows,
            rows: TICK_ROWS,
        });
        rows += TICK_ROWS;
        let recent = format!("day >= {} AND ", day_of_row(rows - 1) - 1);
        for s in 0..TICK_STATEMENTS {
            // Statement 0 counts every row (checked against rows
            // ingested); of the rest every fifth spans all history.
            let (scope, name) = match s {
                0 => ("", "history"),
                s if s % 5 == 0 => ("", "history"),
                _ => (recent.as_str(), "recent"),
            };
            let (a, b) = (rng.next_below(100), rng.next_below(100));
            let sql = match (s, s % 3) {
                (0, _) => COUNT_ALL.to_string(),
                (_, 0) => format!("SELECT COUNT(*) FROM log WHERE {scope}c0 >= {a}"),
                (_, 1) => format!(
                    "SELECT query, COUNT(*), SUM(dwell_ms) FROM log \
                     WHERE {scope}c3 < {a} GROUP BY query"
                ),
                _ => format!("SELECT url, dwell_ms FROM log WHERE {scope}c0 = {a} AND c3 = {b}"),
            };
            steps.push(Step::Query {
                sql,
                family: family(name),
                at_ns: None,
            });
        }
        if tick % 8 == 7 {
            steps.push(Step::Rewrite {
                table: 0,
                block: rng.index(preload / rows_per_block),
            });
        }
    }

    let oracle = ["url", "query", "dwell_ms", "day", "c0", "c3"];
    Plan {
        workload: Workload::IngestQuery,
        spec,
        tables: vec![TableDef {
            name: "log".into(),
            location: "/hdfs/bench/log".into(),
            source: Source::Dataset(log),
            load: LoadPath::Columns,
            preload_rows: preload,
            oracle_columns: oracle.iter().map(|s| s.to_string()).collect(),
        }],
        clients: vec![steps],
        steps_per_second: 75,
    }
}
