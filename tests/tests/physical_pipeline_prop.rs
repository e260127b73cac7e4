//! Property test for the physical pipeline: randomly generated queries
//! executed through the distributed cluster (lowered to a
//! [`feisu_exec::physical::PhysicalPlan`] and interpreted by the master)
//! must return exactly the rows the single-process oracle executor
//! (`feisu_exec::executor::run_sql`) returns for the same SQL. Top-k
//! statements, cut to k rows at every leaf, must return them in the
//! oracle's order too, ties included.

use feisu_tests::{arb_predicate, arb_query, assert_same_rows, fixture, maybe, Fixture};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// One shared fixture: building a populated cluster per case would
/// dominate the test's runtime, and queries don't mutate table data.
static FX: OnceLock<Mutex<Fixture>> = OnceLock::new();

fn with_fixture<R>(f: impl FnOnce(&mut Fixture) -> R) -> R {
    let fx = FX.get_or_init(|| Mutex::new(fixture(300)));
    f(&mut fx.lock().unwrap())
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
