//! The four workloads: what each builds, loads and sends.
//!
//! A workload is a pure function of `(seed, smoke)`: a cluster shape, the
//! tables to load, and one statement list per client. The seed draws the
//! rows; the statements are the same for every seed, so that two seeds
//! are two samples of one workload and not two workloads. The engine
//! only ever sees the generated rows and SQL, never the seed.

mod agg_join;
mod ingest_query;
mod trace;

pub use ingest_query::COUNT_ALL;

use feisu_common::rng::DetRng;
use feisu_core::engine::ClusterSpec;
use feisu_format::{Column, DataType, Field, Schema};
use feisu_workload::datasets::{generate_chunk, DatasetSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TraceReplay,
    AggJoin,
    IngestQuery,
    ConcurrentReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TraceReplay,
        Workload::AggJoin,
        Workload::IngestQuery,
        Workload::ConcurrentReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceReplay => "trace_replay",
            Workload::AggJoin => "agg_join",
            Workload::IngestQuery => "ingest_query",
            Workload::ConcurrentReplay => "concurrent_replay",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn plan(self, seed: u64, smoke: bool) -> Plan {
        match self {
            Workload::TraceReplay => trace::plan(self, seed, smoke),
            Workload::ConcurrentReplay => trace::plan(self, seed, smoke),
            Workload::AggJoin => agg_join::plan(seed, smoke),
            Workload::IngestQuery => ingest_query::plan(seed, smoke),
        }
    }
}

/// Every statement family of every workload, in reporting order. A
/// [`Step`] carries an index into this list.
pub const FAMILIES: [&str; 14] = [
    "scan",
    "aggregate",
    "groupby",
    "orderby",
    "join",
    "groupby_hi",
    "groupby_lo",
    "star_join",
    "join_agg",
    "topk",
    "sort_full",
    "recent",
    "history",
    "ingest",
];

pub fn family(name: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| *f == name)
        .expect("family names are compile-time constants from FAMILIES")
}

/// Full size divided by 16 under `--smoke`.
pub(crate) fn sized(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 16).max(1)
    } else {
        full
    }
}

/// Where a table's rows come from. Every source is chunk-addressable:
/// the same `(source, start)` always yields the same rows.
#[derive(Debug, Clone)]
pub enum Source {
    /// `feisu_workload`'s URL-click log generator.
    Dataset(DatasetSpec),
    /// One `k` column holding the unique keys `0..rows`.
    Dim { rows: usize },
    /// `k1`, `k2` Zipf(0.9) foreign keys into two `dim_rows`-key
    /// dimensions, `v` the row number.
    Fact {
        rows: usize,
        dim_rows: usize,
        seed: u64,
    },
}

impl Source {
    pub fn rows(&self) -> usize {
        match self {
            Source::Dataset(d) => d.rows,
            Source::Dim { rows } | Source::Fact { rows, .. } => *rows,
        }
    }

    pub fn schema(&self) -> Schema {
        let int = |n: &str| Field::new(n, DataType::Int64, false);
        match self {
            Source::Dataset(d) => d.schema(),
            Source::Dim { .. } => Schema::new(vec![int("k")]),
            Source::Fact { .. } => Schema::new(vec![int("k1"), int("k2"), int("v")]),
        }
    }

    /// Rows `[start, start+len)`, clamped to the table's end.
    pub fn chunk(&self, start: usize, len: usize) -> Vec<Column> {
        let end = (start + len).min(self.rows());
        match self {
            Source::Dataset(d) => generate_chunk(d, start, len),
            Source::Dim { .. } => vec![Column::from_i64((start as i64..end as i64).collect())],
            Source::Fact { dim_rows, seed, .. } => {
                let mut rng =
                    DetRng::new(seed ^ (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let n = end.saturating_sub(start);
                let mut key = || (0..n).map(|_| rng.zipf(*dim_rows, 0.9) as i64).collect();
                let (k1, k2) = (key(), key());
                vec![
                    Column::from_i64(k1),
                    Column::from_i64(k2),
                    Column::from_i64((start as i64..end as i64).collect()),
                ]
            }
        }
    }
}

/// How a table is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// `ingest_columns`, replicas placed by the domain.
    Columns,
    /// `ingest_rows_at`, one block per call, owner nodes round-robin —
    /// the only way into the local file system, which has no replicas.
    RowsRoundRobin,
}

#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub location: String,
    pub source: Source,
    pub load: LoadPath,
    /// Rows loaded in set-up; the rest of `source` arrives through
    /// [`Step::Ingest`].
    pub preload_rows: usize,
    /// Columns the oracle copy keeps (those the statements mention).
    pub oracle_columns: Vec<String>,
}

#[derive(Debug, Clone)]
pub enum Step {
    Query {
        sql: String,
        family: usize,
        /// Simulated arrival time; the clock is advanced to it first.
        at_ns: Option<u64>,
    },
    /// Appends rows `[start, start+rows)` of the table's source.
    Ingest {
        table: usize,
        start: usize,
        rows: usize,
    },
    /// Reads one stored block and writes the same bytes back in place,
    /// so every cached copy is invalidated.
    Rewrite { table: usize, block: usize },
}

pub struct Plan {
    pub workload: Workload,
    pub spec: ClusterSpec,
    pub tables: Vec<TableDef>,
    /// One closed loop per client.
    pub clients: Vec<Vec<Step>>,
    /// Steps one client completes per second on the reference machine
    /// (2 vCPU, 2.1 GHz). `--seconds S` runs `S` times this many steps: a
    /// count rather than a deadline, so that a seed always does the same
    /// work and the simulated clock and every counter repeat.
    pub steps_per_second: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the engine will see of a plan: the steps, and the first
    /// rows of every table.
    fn inputs(p: &Plan) -> Vec<String> {
        let steps = p.clients.iter().flatten().map(|s| format!("{s:?}"));
        let rows = p
            .tables
            .iter()
            .map(|t| format!("{:?}", t.source.chunk(0, 64)));
        steps.chain(rows).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = w.plan(11, true);
            let b = w.plan(11, true);
            let c = w.plan(12, true);
            assert_eq!(inputs(&a), inputs(&b), "{}", w.name());
            assert_ne!(inputs(&a), inputs(&c), "{}: seed must matter", w.name());
            assert!(a.clients.iter().all(|steps| !steps.is_empty()));
        }
    }

    #[test]
    fn every_statement_parses_and_names_a_known_family() {
        for w in Workload::ALL {
            for step in w.plan(3, true).clients.iter().flatten() {
                if let Step::Query { sql, family, .. } = step {
                    feisu_sql::parser::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                    assert!(*family < FAMILIES.len());
                }
            }
        }
    }

    #[test]
    fn fact_chunks_address_rows_independently() {
        let f = Source::Fact {
            rows: 1000,
            dim_rows: 50,
            seed: 9,
        };
        let tail = f.chunk(900, 500);
        assert_eq!(tail[0].len(), 100);
        assert_eq!(tail[2].i64_slice()[0], 900);
        assert!(tail[0].i64_slice().iter().all(|k| (0..50).contains(k)));
    }
}
