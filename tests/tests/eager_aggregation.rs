//! Eager aggregation against the oracle: an aggregate over a join, split
//! into a partial aggregate at one side's leaves and a combining one above
//! the join, must return exactly the rows the single-process oracle
//! returns — and the estimator must both split and refuse within the
//! random cases, so neither path goes untested.

use feisu_core::QueryResult;
use feisu_format::Value;
use feisu_tests::{add_join_agg_tables, arb_join_aggregate, assert_same_rows, fixture, Fixture};
use proptest::test_runner::{run_cases, ProptestConfig};

fn join_agg_fixture() -> Fixture {
    let mut fx = fixture(10);
    add_join_agg_tables(&mut fx);
    fx
}

/// Runs `sql` on the cluster, checks it against the oracle, and returns
/// the cluster's result.
fn run(fx: &mut Fixture, sql: &str) -> QueryResult {
    let got = (fx.cluster.query(sql, &fx.cred)).unwrap_or_else(|e| panic!("cluster `{sql}`: {e}"));
    let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle)
        .unwrap_or_else(|e| panic!("oracle `{sql}`: {e}"));
    assert_same_rows(&got.batch, &want, sql);
    got
}

/// Whether the statement's aggregate was split around its join.
fn split(result: &QueryResult) -> bool {
    result.profile.tree.roots[0].attr("eager_agg.0").is_some()
}

#[test]
fn join_aggregates_match_the_oracle() {
    let mut fx = join_agg_fixture();
    let (mut fired, mut refused) = (0, 0);
    let config = ProptestConfig::default();
    run_cases(&config, "join_aggregates", &arb_join_aggregate(), |sql| {
        match split(&run(&mut fx, &sql)) {
            true => fired += 1,
            false => refused += 1,
        }
        Ok(())
    });
    assert!(fired > 0 && refused > 0, "{fired} split, {refused} kept");
    let metrics = fx.cluster.metrics();
    assert_eq!(metrics.counter("feisu.optimizer.eager_aggs").get(), fired);
}

#[test]
fn an_empty_join_counts_zero_and_sums_null() {
    let mut fx = join_agg_fixture();
    // A global COUNT is never split: a SUM of no partial counts is NULL.
    let count = run(
        &mut fx,
        "SELECT COUNT(*), SUM(fa.v) FROM fa, da WHERE fa.kr = da.k AND da.name = 'none'",
    );
    assert!(!split(&count));
    assert_eq!(count.batch.row(0), vec![Value::Int64(0), Value::Null]);
    // Without a COUNT it is: no partial row finds a match.
    let sum = run(
        &mut fx,
        "SELECT SUM(fa.v), MAX(fa.x) FROM fa, da WHERE fa.kr = da.k AND da.name = 'none'",
    );
    assert!(split(&sum));
    assert_eq!(sum.batch.row(0), vec![Value::Null, Value::Null]);
}

#[test]
fn a_side_with_no_key_is_never_split() {
    let mut fx = join_agg_fixture();
    // `fa` is cross-joined and shares no column with the GROUP BY: a
    // keyless partial would yield one row over no input, and the join
    // would pair it with every `db` row. The filters match no row, and
    // the stats cannot tell (`fa.v` spans 0..100).
    for sql in [
        "SELECT db.k, SUM(fa.v) FROM fa, db WHERE fa.v + 1 > 1000 GROUP BY db.k",
        "SELECT db.k, COUNT(*), MAX(fa.x) FROM fa, db WHERE fa.v = 1000 GROUP BY db.k",
    ] {
        let r = run(&mut fx, sql);
        assert!(!split(&r), "{sql}");
        assert_eq!(r.batch.rows(), 0, "{sql}");
    }
}

#[test]
fn null_join_keys_never_match() {
    let mut fx = join_agg_fixture();
    // `fa.kn` is NULL on every fifth row and `da` has a NULL key: the
    // partial aggregate keeps a NULL group, and the join drops it.
    let r = run(
        &mut fx,
        "SELECT da.name, COUNT(*), SUM(fa.v) FROM fa, da WHERE fa.kn = da.k GROUP BY da.name",
    );
    assert!(split(&r));
    let total: i64 = (0..r.batch.rows())
        .map(|i| match r.batch.row(i)[1] {
            Value::Int64(n) => n,
            ref v => panic!("count {v}"),
        })
        .sum();
    // 192 rows have a key in 0..5, each matching its `da` row once, keys
    // 0..4 twice: 32 rows per key, 1 + 1 + 2×4 matches per 6 keys.
    assert_eq!(total, 32 * (2 * 5 + 1));
}

#[test]
fn a_key_repeated_on_the_other_side_multiplies_counts_and_sums() {
    let mut fx = join_agg_fixture();
    // `da` holds keys 0..4 twice: each partial row of those keys joins two
    // dimension rows, and the combining sums count it twice.
    let r = run(
        &mut fx,
        "SELECT da.name, COUNT(*), SUM(fa.v), MIN(fa.v), MAX(fa.v) FROM fa, da \
         WHERE fa.km = da.k GROUP BY da.name",
    );
    assert!(split(&r));
}

#[test]
fn a_float_sum_agrees_to_nine_digits() {
    let mut fx = join_agg_fixture();
    let r = run(
        &mut fx,
        "SELECT da.name, SUM(fa.x), COUNT(*) FROM fa, da WHERE fa.kr = da.k GROUP BY da.name",
    );
    assert!(split(&r));
}

#[test]
fn avg_and_distinct_leave_the_plan_unchanged() {
    let mut fx = join_agg_fixture();
    let sql = "SELECT da.name, AVG(fa.v) FROM fa, da WHERE fa.kr = da.k GROUP BY da.name";
    assert!(!split(&run(&mut fx, sql)));
    let plan = fx.cluster.explain(sql, &fx.cred).unwrap();
    assert!(
        !plan.contains("EagerAggregate") && !plan.contains("agg pushed"),
        "{plan}"
    );
    // The same statement with a SUM in its place is split.
    let sum = sql.replace("AVG", "SUM");
    assert!(split(&run(&mut fx, &sum)));
    // The dialect has no DISTINCT aggregate: no plan reaches the rule.
    let distinct = "SELECT da.name, COUNT(DISTINCT fa.v) FROM fa, da \
                    WHERE fa.kr = da.k GROUP BY da.name";
    assert!(fx.cluster.explain(distinct, &fx.cred).is_err());
}

#[test]
fn the_split_scan_shows_its_estimate_beside_its_rows() {
    let mut fx = join_agg_fixture();
    let r = run(
        &mut fx,
        "SELECT da.name, COUNT(*) FROM fa, da WHERE fa.kr = da.k GROUP BY da.name",
    );
    // `fa` by `kr`: three keys, estimated from the sketch and shipped.
    let scans = r.profile.tree.find_all("DistributedScan");
    let estimated: Vec<_> = (scans.iter())
        .filter(|s| s.attr("est_rows").is_some())
        .collect();
    assert_eq!(estimated.len(), 1, "{}", r.profile.render());
    let attr = |key| estimated[0].attr(key).map(|v| v.to_string());
    assert_eq!(
        (attr("est_rows"), attr("rows")),
        (Some("3".into()), Some("3".into()))
    );
    assert!(r.profile.render().contains("est_rows=3 rows=3"));
    let master = &r.profile.tree.roots[0];
    let decision = master.attr("eager_agg.0").map(|v| v.to_string());
    assert_eq!(
        decision.as_deref(),
        Some("fa by [fa.kr] est 3 groups of 240 rows")
    );
}
