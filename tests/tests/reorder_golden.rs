//! Golden of the join-order search: for a fixed list of 3–5-table join
//! statements over tables with ingested statistics, every
//! [`JoinOrderTrace`] — method, syntactic and chosen order, and both
//! costs — must be exactly the recorded one. The cardinality estimates
//! under the search may move between modules; the decisions and the
//! prices they rest on may not.

use feisu_core::catalog::CatalogView;
use feisu_exec::reorder::{lower_with, JoinOrderTrace, LowerOptions};
use feisu_format::{DataType, Field, Schema, Value};
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::optimize;
use feisu_sql::parser::parse_query;
use feisu_sql::plan::build_plan;
use feisu_tests::{fixture, Fixture};

/// The EXPLAIN star schema (`d1`, `d2`: 100 keys each; `f`: 2,000 rows
/// keyed into both) plus four small tables sharing a key domain.
fn star_fixture() -> Fixture {
    let fx = fixture(100);
    let create = |name: &str, fields: Vec<Field>, rows: Vec<Vec<Value>>| {
        let schema = Schema::new(fields);
        let location = format!("/hdfs/warehouse/{name}");
        fx.cluster
            .create_table(name, schema, &location, &fx.cred)
            .unwrap();
        fx.cluster.ingest_rows(name, rows, &fx.cred).unwrap();
    };
    let int = |name: &str| Field::new(name, DataType::Int64, false);
    for dim in ["d1", "d2"] {
        create(
            dim,
            vec![int("k")],
            (0..100i64).map(|i| vec![i.into()]).collect(),
        );
    }
    let fact = (0..2000i64).map(|i| vec![(i % 100).into(), ((i / 7) % 100).into(), i.into()]);
    create("f", vec![int("k1"), int("k2"), int("v")], fact.collect());
    for (name, col, rows, keys, scale) in [
        ("a", "v", 40i64, 8i64, 1i64),
        ("b", "w", 30, 10, 3),
        ("c", "x", 20, 5, 7),
        ("e", "y", 25, 6, 11),
    ] {
        let rows = (0..rows).map(|i| vec![(i % keys).into(), (i * scale).into()]);
        create(name, vec![int("k"), int(col)], rows.collect());
    }
    fx
}

/// Every join-order decision lowering makes for `sql`.
fn traces(fx: &Fixture, sql: &str, dp_limit: usize) -> Vec<JoinOrderTrace> {
    let catalog = CatalogView(fx.cluster.catalog());
    let query = parse_query(sql).unwrap();
    let plan = optimize(build_plan(&analyze(&query, &catalog).unwrap()).unwrap()).unwrap();
    let opts = LowerOptions {
        cost: &fx.cluster.spec().cost,
        join_reorder: true,
        dp_limit,
    };
    lower_with(&plan, &catalog, &opts).unwrap().1.join_orders
}

const GOLDEN: &str = "\
SELECT SUM(f.v) AS s FROM d1, d2, f WHERE f.k1 = d1.k AND f.k2 = d2.k @dp_limit=6
  dp [d1, d2, f] -> [d1, f, d2] syntactic=24400 chosen=8400 reordered=true
SELECT d1.k, COUNT(*), SUM(f.v) FROM d2, f, d1 WHERE f.k1 = d1.k AND f.k2 = d2.k AND f.v > 1500 GROUP BY d1.k @dp_limit=6
  dp [d2, f, d1] -> [d2, f, d1] syntactic=2396 chosen=2396 reordered=false
SELECT SUM(b.w) AS s FROM b, c, a WHERE a.k = b.k AND a.k = c.k @dp_limit=6
  dp [b, c, a] -> [c, a, b] syntactic=1380 chosen=380 reordered=true
SELECT a.v, e.y FROM e, c, b, a WHERE a.k = b.k AND b.k = c.k AND c.k = e.k @dp_limit=6
  dp [e, c, b, a] -> [c, b, a, e] syntactic=896 chosen=830 reordered=true
SELECT COUNT(*) FROM d1, d2, a, f, b WHERE f.k1 = d1.k AND f.k2 = d2.k AND a.k = d1.k AND b.k = a.k @dp_limit=6
  dp [d1, d2, a, f, b] -> [d1, a, f, d2, b] syntactic=34140 chosen=7820 reordered=true
SELECT COUNT(*) FROM d1, d2, a, f, b WHERE f.k1 = d1.k AND f.k2 = d2.k AND a.k = d1.k AND b.k = a.k @dp_limit=4
  greedy [d1, d2, a, f, b] -> [b, a, d1, f, d2] syntactic=34140 chosen=9820 reordered=true
SELECT c.x, e.y FROM c, e, a WHERE c.k = e.k AND a.v > 30 AND a.k = c.k @dp_limit=2
  greedy [c, e, a] -> [a, c, e] syntactic=275 chosen=154 reordered=true
";

#[test]
fn join_order_traces_match_the_golden() {
    let fx = star_fixture();
    let mut got = String::new();
    for (sql, dp_limit) in [
        (
            "SELECT SUM(f.v) AS s FROM d1, d2, f WHERE f.k1 = d1.k AND f.k2 = d2.k",
            6,
        ),
        (
            "SELECT d1.k, COUNT(*), SUM(f.v) FROM d2, f, d1 \
             WHERE f.k1 = d1.k AND f.k2 = d2.k AND f.v > 1500 GROUP BY d1.k",
            6,
        ),
        (
            "SELECT SUM(b.w) AS s FROM b, c, a WHERE a.k = b.k AND a.k = c.k",
            6,
        ),
        (
            "SELECT a.v, e.y FROM e, c, b, a WHERE a.k = b.k AND b.k = c.k AND c.k = e.k",
            6,
        ),
        (
            "SELECT COUNT(*) FROM d1, d2, a, f, b \
             WHERE f.k1 = d1.k AND f.k2 = d2.k AND a.k = d1.k AND b.k = a.k",
            6,
        ),
        (
            "SELECT COUNT(*) FROM d1, d2, a, f, b \
             WHERE f.k1 = d1.k AND f.k2 = d2.k AND a.k = d1.k AND b.k = a.k",
            4,
        ),
        (
            "SELECT c.x, e.y FROM c, e, a WHERE c.k = e.k AND a.v > 30 AND a.k = c.k",
            2,
        ),
    ] {
        got.push_str(&format!("{sql} @dp_limit={dp_limit}\n"));
        for t in traces(&fx, sql, dp_limit) {
            got.push_str(&format!(
                "  {} [{}] -> [{}] syntactic={} chosen={} reordered={}\n",
                t.method,
                t.syntactic.join(", "),
                t.chosen.join(", "),
                t.syntactic_cost.as_nanos(),
                t.chosen_cost.as_nanos(),
                t.reordered
            ));
        }
    }
    assert_eq!(got, GOLDEN, "\n{got}");
}
