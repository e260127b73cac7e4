//! The paper's evaluation as a library: [`experiments`] holds one
//! function per table or figure, each returning the series the paper's
//! figure reports at scaled-down data sizes (the substitution table in
//! DESIGN.md §2); [`report`] renders it and keeps EXPERIMENTS.md equal to
//! it. The `experiments` binary drives both:
//! `cargo run --release -p feisu-bench --bin experiments -- [--write|--check] [name…]`.
//!
//! The rest of this file is the harness the experiments share; [`btree`]
//! is the Fig. 9b baseline index, which nothing else uses.

pub mod btree;
pub mod experiments;
pub mod report;

use feisu_common::rng::DetRng;
use feisu_common::{Result, SimDuration, UserId};
use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_sql::ast::BinaryOp;
use feisu_storage::auth::Credential;
use feisu_workload::datasets::{generate_chunk, DatasetSpec};

/// A cluster handle with a logged-in benchmark user.
pub struct Bench {
    pub cluster: FeisuCluster,
    pub cred: Credential,
    pub user: UserId,
}

/// Builds a cluster for benchmarking.
pub fn build_cluster(spec: ClusterSpec) -> Result<Bench> {
    let cluster = FeisuCluster::new(spec)?;
    let user = cluster.register_user("bench");
    cluster.grant_all(user);
    let cred = cluster.login(user)?;
    Ok(Bench {
        cluster,
        cred,
        user,
    })
}

/// Loads a dataset into a table at `location`, streaming in chunks.
pub fn load_dataset(bench: &Bench, spec: &DatasetSpec, location: &str) -> Result<()> {
    bench
        .cluster
        .create_table(&spec.name, spec.schema(), location, &bench.cred)?;
    // Generate in block-sized chunks so rows_per_block settings larger
    // than the default generation granularity still take effect.
    let chunk = bench.cluster.spec().rows_per_block.max(8192);
    let mut start = 0usize;
    while start < spec.rows {
        let cols = generate_chunk(spec, start, chunk);
        let n = cols.first().map_or(0, |c| c.len());
        if n == 0 {
            break;
        }
        bench
            .cluster
            .ingest_columns(&spec.name, cols, &bench.cred)?;
        start += n;
    }
    Ok(())
}

/// The §VI-B scan workload: `SELECT a FROM T WHERE b OP v [AND|OR c OP v]`
/// (plus the COUNT aggregation variant — "scan queries (including
/// aggregation) are most frequent", Fig. 8) with randomly drawn
/// parameters whose *population* follows the production trace's
/// skew: predicates are drawn Zipf-fashion from a fixed pool, so hot
/// predicates repeat (that is the query similarity of §IV-A) while the
/// long tail keeps injecting fresh ones. SmartIndex warm-up then shows
/// the paper's rising-hit-rate curve.
pub struct ScanWorkload {
    rng: DetRng,
    table: String,
    column_pool: usize,
    /// Zipf exponent over the predicate population; higher = more reuse.
    skew: f64,
    population: Vec<Pred>,
    /// Fraction of aggregation (COUNT) statements in the mix.
    count_ratio: f64,
}

/// One workload predicate: numeric comparison or string CONTAINS (both
/// appear in the paper's workload grammar).
#[derive(Debug, Clone)]
enum Pred {
    Cmp(String, BinaryOp, i64),
    Contains(String, String),
}

impl Pred {
    fn render(&self) -> String {
        match self {
            Pred::Cmp(c, op, v) => format!("{c} {op} {v}"),
            Pred::Contains(c, s) => format!("{c} CONTAINS '{s}'"),
        }
    }
}

impl ScanWorkload {
    /// `skew` is the Zipf exponent over a fixed predicate population
    /// (~0.9 matches the Fig. 5 similarity levels); `column_pool` bounds
    /// the distinct columns predicates target.
    pub fn new(table: &str, column_pool: usize, skew: f64, seed: u64) -> Self {
        let mut w = ScanWorkload {
            rng: DetRng::new(seed),
            table: table.to_string(),
            column_pool,
            skew,
            population: Vec::new(),
            count_ratio: 0.4,
        };
        // A fixed population of distinct predicates; popularity rank is
        // drawn per query, so hot predicates repeat heavily.
        w.populate(1500);
        w
    }

    /// Replaces the predicate population with a fresh one of `n` distinct
    /// predicates (smaller = tighter working set; used by the Fig. 11
    /// memory sweep).
    pub fn with_population(mut self, n: usize) -> Self {
        self.population.clear();
        self.populate(n);
        self
    }

    fn populate(&mut self, pop_size: usize) {
        let w = self;
        for _ in 0..pop_size {
            let p = if w.rng.chance(0.3) {
                // CONTAINS over a tag column (part of the §VI-B grammar).
                let col = w.string_column();
                let tag = format!("tag{}", w.rng.zipf(64, 0.9));
                Pred::Contains(col, tag)
            } else {
                let col = w.numeric_column();
                let op = match w.rng.next_below(6) {
                    0 => BinaryOp::Eq,
                    1 => BinaryOp::NotEq,
                    2 => BinaryOp::Lt,
                    3 => BinaryOp::LtEq,
                    4 => BinaryOp::Gt,
                    _ => BinaryOp::GtEq,
                };
                Pred::Cmp(col, op, w.rng.range_i64(0, 99))
            };
            w.population.push(p);
        }
    }

    /// Sets the fraction of COUNT statements (default 0.4).
    pub fn with_count_ratio(mut self, r: f64) -> Self {
        self.count_ratio = r.clamp(0.0, 1.0);
        self
    }

    /// Maps a popularity rank onto a *numeric* filler column: dataset
    /// filler columns cycle Int64/Float64/Utf8 by index, and comparison
    /// predicates need numeric operands.
    fn numeric_column(&mut self) -> String {
        let rank = self.rng.zipf(self.column_pool, 0.9);
        format!("c{}", (rank / 2) * 3 + (rank % 2))
    }

    /// A string (tag) filler column: indexes with `i % 3 == 2`, bounded
    /// to the same index range as the numeric columns.
    fn string_column(&mut self) -> String {
        let rank = self.rng.zipf(self.column_pool, 0.9);
        format!("c{}", (rank / 2) * 3 + 2)
    }

    fn predicate(&mut self) -> Pred {
        let rank = self.rng.zipf(self.population.len(), self.skew);
        self.population[rank].clone()
    }

    /// Next SQL statement of the workload.
    pub fn next_query(&mut self) -> String {
        let head = if self.rng.chance(self.count_ratio) {
            "COUNT(*)".to_string()
        } else {
            self.numeric_column()
        };
        let p1 = self.predicate().render();
        if self.rng.chance(0.85) {
            let p2 = self.predicate().render();
            let connective = if self.rng.chance(0.8) { "AND" } else { "OR" };
            format!(
                "SELECT {head} FROM {} WHERE ({p1}) {connective} ({p2})",
                self.table
            )
        } else {
            format!("SELECT {head} FROM {} WHERE {p1}", self.table)
        }
    }
}

/// Refreshes an expiring credential (simulated days pass in sweeps).
pub fn relogin(bench: &mut Bench) -> Result<()> {
    bench.cred = bench.cluster.login(bench.user)?;
    Ok(())
}

/// Rows processed per simulated second — the throughput metric of
/// Figs. 10/11.
pub fn throughput_rows_per_sec(rows: usize, elapsed: SimDuration) -> f64 {
    rows as f64 / elapsed.as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let mut a = ScanWorkload::new("t1", 16, 0.9, 1);
        let mut b = ScanWorkload::new("t1", 16, 0.9, 1);
        for _ in 0..50 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn workload_sql_always_parses() {
        let mut w = ScanWorkload::new("t1", 16, 0.9, 2);
        for _ in 0..200 {
            let sql = w.next_query();
            feisu_sql::parser::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn count_ratio_controls_aggregates() {
        let mut all_counts = ScanWorkload::new("t1", 8, 0.9, 3).with_count_ratio(1.0);
        for _ in 0..20 {
            assert!(all_counts.next_query().contains("COUNT(*)"));
        }
        let mut no_counts = ScanWorkload::new("t1", 8, 0.9, 3).with_count_ratio(0.0);
        for _ in 0..20 {
            assert!(!no_counts.next_query().contains("COUNT(*)"));
        }
    }

    #[test]
    fn population_knob_bounds_distinct_predicates() {
        let mut w = ScanWorkload::new("t1", 8, 0.0, 4).with_population(5);
        let mut preds = std::collections::HashSet::new();
        for _ in 0..300 {
            let q = w.next_query();
            let tail = q.split_once("WHERE ").unwrap().1.to_string();
            for part in tail.split([' ']) {
                let _ = part;
            }
            preds.insert(tail);
        }
        // 5 predicates in the pool ⇒ at most 5*5 two-predicate combos
        // per connective/head shape; far below free generation.
        assert!(
            preds.len() <= 120,
            "population must bound variety: {}",
            preds.len()
        );
    }

    #[test]
    fn throughput_math() {
        let t = throughput_rows_per_sec(1000, SimDuration::secs(2));
        assert!((t - 500.0).abs() < 1e-9);
    }
}
