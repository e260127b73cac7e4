//! `agg_join`: master operators and the merge tree.
//!
//! Scans are cheap here (a slim 8-field table, SSD-backed star tables),
//! so `exec::{aggregate,join,sort}` and the stem merges do most of the
//! work. Six statement families run round-robin; every statement uses a
//! constant no earlier one used, so neither task reuse nor SmartIndex can
//! answer from a previous round.
//!
//! `join_agg` runs twice a round. With six equal shares the median
//! statement sat on the boundary between two families and jumped between
//! them from run to run; with 2/7 of the statements `join_agg` holds the
//! wall median well inside one family (and `topk` the simulated one),
//! while `groupby_hi`, a seventh of the statements, holds both tails.
//!
//! One naming per table throughout (no aliases): the job manager's
//! task-reuse signature ignores aliases, see README "Known issue".

use super::{family, sized, LoadPath, Plan, Source, Step, TableDef, Workload};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

const ROUNDS: usize = 54;
const T1_ROWS: usize = 32_768;
const DIM_ROWS: usize = 1_500;
const FACT_ROWS: usize = 60_000;

pub fn plan(seed: u64, smoke: bool) -> Plan {
    let mut spec = ClusterSpec::with_nodes(64);
    spec.rows_per_block = 512;
    spec.config.execution_threads = 2;

    let mut t1 = DatasetSpec::t1(sized(T1_ROWS, smoke));
    t1.fields = 8;
    t1.url_pool = 10_000;
    t1.seed = seed ^ 0x71;
    let dim_rows = sized(DIM_ROWS, smoke);
    let fact_rows = sized(FACT_ROWS, smoke);

    let table = |name: &str, location: &str, source: Source, oracle: &[&str]| TableDef {
        name: name.into(),
        location: location.into(),
        preload_rows: source.rows(),
        source,
        load: LoadPath::Columns,
        oracle_columns: oracle.iter().map(|s| s.to_string()).collect(),
    };
    let tables = vec![
        table(
            "t1",
            "/hdfs/bench/t1",
            Source::Dataset(t1),
            &["url", "query", "clicks", "dwell_ms", "day", "score", "c0"],
        ),
        table("d1", "/kv/bench/d1", Source::Dim { rows: dim_rows }, &["k"]),
        table("d2", "/kv/bench/d2", Source::Dim { rows: dim_rows }, &["k"]),
        table(
            "f",
            "/kv/bench/f",
            Source::Fact {
                rows: fact_rows,
                dim_rows,
                seed: seed ^ 0xFAC7,
            },
            &["k1", "k2", "v"],
        ),
    ];

    // The statements are the same for every seed (the seed draws the
    // rows); each round moves its own constant.
    let (dwell0, v0, score0) = (10, 0, 0.43);
    const AGGS: &str = "COUNT(*), SUM(clicks), SUM(dwell_ms), MIN(day), MAX(c0)";
    let mut steps = Vec::new();
    let rounds = sized(ROUNDS, smoke);
    for round in 0..rounds {
        let dwell = dwell0 + round;
        let v = v0 + round;
        let score = score0 + round as f64 * 1e-5;
        let mut q = |name: &str, sql: String| {
            steps.push(Step::Query {
                sql,
                family: family(name),
                at_ns: None,
            })
        };
        // ~24k groups: the merge tree and the final aggregate dominate.
        q(
            "groupby_hi",
            format!("SELECT url, {AGGS} FROM t1 WHERE dwell_ms >= {dwell} GROUP BY url"),
        );
        // 15 heavy-hitter groups: leaf pre-aggregation collapses them.
        q(
            "groupby_lo",
            format!("SELECT query, {AGGS} FROM t1 WHERE dwell_ms >= {dwell} GROUP BY query"),
        );
        // Dimensions listed first: syntactic order starts with d1 x d2.
        q(
            "star_join",
            format!(
                "SELECT SUM(f.v) AS s FROM d1, d2, f \
                 WHERE f.k1 = d1.k AND f.k2 = d2.k AND f.v >= {v}"
            ),
        );
        for v in [v, v + rounds] {
            q(
                "join_agg",
                format!(
                    "SELECT d1.k, COUNT(*), SUM(f.v) FROM f, d1 \
                     WHERE f.k1 = d1.k AND f.v >= {v} GROUP BY d1.k"
                ),
            );
        }
        // The projection is the sort key, so ties cannot change the answer.
        q(
            "topk",
            format!(
                "SELECT dwell_ms, day FROM t1 WHERE dwell_ms >= {dwell} \
                 ORDER BY dwell_ms DESC, day LIMIT 100"
            ),
        );
        // ~43% of the rows through a full two-key sort.
        q(
            "sort_full",
            format!("SELECT day, dwell_ms FROM t1 WHERE score < {score:.6} ORDER BY day, dwell_ms"),
        );
    }

    Plan {
        workload: Workload::AggJoin,
        spec,
        tables,
        clients: vec![steps],
        steps_per_second: 26,
    }
}
