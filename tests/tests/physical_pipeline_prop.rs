//! Property test for the physical pipeline: randomly generated queries
//! executed through the distributed cluster (lowered to a
//! [`feisu_exec::physical::PhysicalPlan`] and interpreted by the master)
//! must return exactly the rows the single-process oracle executor
//! (`feisu_exec::executor::run_sql`) returns for the same SQL. Top-k
//! statements, cut to k rows at every leaf, must return them in the
//! oracle's order too, ties included.

use feisu_tests::{assert_same_rows, fixture, Fixture};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// One shared fixture: building a populated cluster per case would
/// dominate the test's runtime, and queries don't mutate table data.
static FX: OnceLock<Mutex<Fixture>> = OnceLock::new();

fn with_fixture<R>(f: impl FnOnce(&mut Fixture) -> R) -> R {
    let fx = FX.get_or_init(|| Mutex::new(fixture(300)));
    f(&mut fx.lock().unwrap())
}

/// Random predicates over the clicks schema, exercising every disjunct
/// shape the CNF splitter knows: indexable comparisons, CONTAINS, NULL
/// tests, and arbitrary AND/OR/NOT nesting (which produces residual
/// clauses that stay as row filters on the leaves).
fn arb_predicate() -> impl Strategy<Value = String> {
    let cmp = prop_oneof![
        Just(">"),
        Just(">="),
        Just("<"),
        Just("<="),
        Just("="),
        Just("!=")
    ]
    .boxed();
    let leaf = prop_oneof![
        (cmp.clone(), 0i64..100).prop_map(|(op, v)| format!("clicks {op} {v}")),
        (cmp.clone(), 0u32..10).prop_map(|(op, v)| format!("score {op} 0.{v}")),
        (cmp, 0i64..12).prop_map(|(op, d)| format!("day {op} {}", 20160101 + d)),
        (0usize..4).prop_map(|k| format!("keyword = '{}'", ["map", "music", "news", "stock"][k])),
        (0usize..8).prop_map(|s| format!("url CONTAINS 'site{s}'")),
        Just("clicks IS NULL".to_string()),
        Just("clicks IS NOT NULL".to_string()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} AND {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} OR {r})")),
            inner.prop_map(|e| format!("(NOT {e})")),
        ]
    })
}

/// `proptest::option::of` equivalent for the offline shim.
fn maybe<V: 'static>(s: BoxedStrategy<V>) -> impl Strategy<Value = Option<V>> {
    prop_oneof![Just(()).prop_map(|_| None), s.prop_map(Some)]
}

/// Random SELECT lists: plain projections or aggregates (the latter
/// lower to `FinalAggregate` over a scan with the stage pushed down).
fn arb_query() -> impl Strategy<Value = String> {
    let projection = prop_oneof![
        Just("url".to_string()),
        Just("url, clicks".to_string()),
        Just("keyword, score, day".to_string()),
        Just("clicks * 2 AS doubled, url".to_string()),
    ];
    let aggregates = prop_oneof![
        Just("COUNT(*)".to_string()),
        Just("COUNT(clicks)".to_string()),
        Just("SUM(clicks), MIN(clicks), MAX(clicks)".to_string()),
        Just("COUNT(*), AVG(score)".to_string()),
    ]
    .boxed();
    let group = prop_oneof![Just("keyword"), Just("day")];
    let shape = prop_oneof![
        // Plain scan + projection.
        projection.prop_map(|p| format!("SELECT {p} FROM clicks")),
        // Global aggregate — pushed to the leaves.
        aggregates
            .clone()
            .prop_map(|a| format!("SELECT {a} FROM clicks")),
        // Grouped aggregate, optionally ordered by the (unique) group key
        // with a LIMIT so Sort and Limit operators get exercised too.
        (aggregates, group, maybe((1u64..5).boxed())).prop_map(|(a, g, lim)| {
            match lim {
                Some(k) => {
                    format!("SELECT {g}, {a} FROM clicks GROUP BY {g} ORDER BY {g} LIMIT {k}")
                }
                None => format!("SELECT {g}, {a} FROM clicks GROUP BY {g}"),
            }
        }),
    ];
    (shape, maybe(arb_predicate().boxed())).prop_map(|(q, pred)| match pred {
        Some(p) => {
            // Splice the WHERE clause in front of any GROUP BY suffix.
            match q.find(" GROUP BY") {
                Some(at) => format!("{} WHERE {p}{}", &q[..at], &q[at..]),
                None => format!("{q} WHERE {p}"),
            }
        }
        None => q,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_queries_match_oracle(sql in arb_query()) {
        with_fixture(|fx| {
            let got = fx
                .cluster
                .query(&sql, &fx.cred)
                .unwrap_or_else(|e| panic!("cluster failed `{sql}`: {e}"));
            let want = feisu_exec::executor::run_sql(&sql, &mut fx.oracle)
                .unwrap_or_else(|e| panic!("oracle failed `{sql}`: {e}"));
            assert_same_rows(&got.batch, &want, &sql);
        });
    }
}

/// `ORDER BY` a low-cardinality key (many ties) with a `LIMIT`,
/// projecting a column that is not the key: which tied rows come back,
/// and in which order, is part of the answer.
fn arb_top_k() -> impl Strategy<Value = (String, u64)> {
    let projection = prop_oneof![Just("url"), Just("url, clicks"), Just("clicks, score")];
    let key = prop_oneof![
        Just("keyword"),
        Just("day"),
        Just("score"),
        Just("keyword, day"),
    ];
    let desc = prop_oneof![Just(""), Just(" DESC")];
    let pred = maybe(arb_predicate().boxed());
    ((projection, key), desc, 1u64..80, pred).prop_map(|((p, key), desc, k, pred)| {
        let filter = pred.map(|p| format!(" WHERE {p}")).unwrap_or_default();
        let sql = format!("SELECT {p} FROM clicks{filter} ORDER BY {key}{desc} LIMIT {k}");
        (sql, k)
    })
}

proptest! {
    #[test]
    fn random_top_k_matches_oracle_in_order(case in arb_top_k()) {
        let (sql, k) = case;
        with_fixture(|fx| {
            let got = fx
                .cluster
                .query(&sql, &fx.cred)
                .unwrap_or_else(|e| panic!("cluster failed `{sql}`: {e}"));
            let want = feisu_exec::executor::run_sql(&sql, &mut fx.oracle)
                .unwrap_or_else(|e| panic!("oracle failed `{sql}`: {e}"));
            let rows = |b: &feisu_exec::batch::RecordBatch| (0..b.rows()).map(|i| b.row(i)).collect::<Vec<_>>();
            assert_eq!(rows(&got.batch), rows(&want), "`{sql}`");
            // Every leaf that ran shipped at most k rows (a reused task's
            // uncut result records no row count; it is cut on reuse).
            let leaves = got.profile.tree.find_all("leaf_task");
            for leaf in leaves.iter().filter(|l| l.attr("reused").is_none()) {
                let shipped = leaf.attr("rows").map(|v| v.to_string().parse::<u64>().unwrap());
                assert!(shipped.is_some_and(|n| n <= k), "`{sql}`: a leaf shipped {shipped:?} rows");
            }
        });
    }
}
