//! End-to-end coverage of the staged optimizer pipeline and the
//! cost-based join reordering in lowering: the kill switches must never
//! change answers, WHERE-false queries must short-circuit before any
//! leaf task is scheduled, and the optimizer trace must surface in the
//! profile and the metrics registry.

use feisu_core::engine::ClusterSpec;
use feisu_format::{DataType, Field, Schema, Value};
use feisu_tests::{
    assert_same_rows, check_against_oracle, fixture, fixture_with, rows_to_batch, star_sql, Fixture,
};
use proptest::prelude::*;

// ------------------------------------------------------------ fixtures

/// Table name, value column, `(k, value)` rows.
type JoinTable = (&'static str, &'static str, Vec<(i64, i64)>);

/// Four small join tables sharing an Int64 key domain so every join has
/// matches: a(k,v) 40 rows, b(k,w) 30 rows, c(k,x) 20 rows, e(k,y) 25
/// rows.
fn join_tables() -> Vec<JoinTable> {
    vec![
        ("a", "v", (0..40).map(|i| (i % 8, i)).collect()),
        ("b", "w", (0..30).map(|i| (i % 10, i * 3)).collect()),
        ("c", "x", (0..20).map(|i| (i % 5, i * 7)).collect()),
        ("e", "y", (0..25).map(|i| (i % 6, i + 100)).collect()),
    ]
}

/// Creates the join tables on the cluster and mirrors them into the
/// oracle provider.
fn add_join_tables(fx: &mut Fixture) {
    for (name, val_col, rows) in join_tables() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new(val_col, DataType::Int64, false),
        ]);
        fx.cluster
            .create_table(
                name,
                schema.clone(),
                &format!("/hdfs/warehouse/{name}"),
                &fx.cred,
            )
            .unwrap();
        let values: Vec<Vec<Value>> = rows
            .iter()
            .map(|(k, v)| vec![Value::from(*k), Value::from(*v)])
            .collect();
        fx.cluster
            .ingest_rows(name, values.clone(), &fx.cred)
            .unwrap();
        fx.oracle.insert(name, rows_to_batch(&schema, &values));
    }
}

fn spec_optimizer_off() -> ClusterSpec {
    let mut spec = ClusterSpec::small();
    spec.config.optimizer.enabled = false;
    spec
}

// ------------------------------------------------- empty short-circuit

#[test]
fn where_false_runs_zero_leaf_tasks() {
    let fx = fixture(300);
    let r = fx
        .cluster
        .query("SELECT url, clicks FROM clicks WHERE 1 = 0", &fx.cred)
        .unwrap();
    // Empty answer, schema preserved.
    assert_eq!(r.batch.rows(), 0);
    assert_eq!(r.batch.schema().len(), 2);
    // The plan was pruned to Empty before lowering: no distributed scan
    // ran, so not a single leaf task span was recorded.
    assert!(
        r.profile.tree.find_all("leaf_task").is_empty(),
        "WHERE-false must not schedule leaf tasks"
    );
    assert_eq!(r.stats.tasks, 0);
    // The master span carries the rule trace and the registry saw the
    // prune.
    assert_eq!(r.profile.tree.roots[0].name, "master");
    assert!(
        r.profile.tree.roots[0].attr("rule.prune_empty").is_some(),
        "prune_empty must appear in the profile's rule trace"
    );
    let m = fx.cluster.metrics();
    assert_eq!(m.counter("feisu.optimizer.empty_pruned").get(), 1);
    assert!(m.counter("feisu.optimizer.rules_fired").get() > 0);
}

#[test]
fn where_false_still_runs_with_optimizer_off() {
    // The kill switch disables the short-circuit but not the answer:
    // the filter is evaluated row by row and drops everything.
    let fx = fixture_with(300, spec_optimizer_off(), "/hdfs/warehouse/clicks");
    let r = fx
        .cluster
        .query("SELECT url, clicks FROM clicks WHERE 1 = 0", &fx.cred)
        .unwrap();
    assert_eq!(r.batch.rows(), 0);
    assert!(
        !r.profile.tree.find_all("leaf_task").is_empty(),
        "without the optimizer the scan actually runs"
    );
    assert_eq!(
        fx.cluster
            .metrics()
            .counter("feisu.optimizer.rules_fired")
            .get(),
        0
    );
}

// ----------------------------------------------------- kill switches

#[test]
fn optimizer_kill_switch_preserves_results() {
    let mut on = fixture(200);
    add_join_tables(&mut on);
    let mut off = fixture_with(200, spec_optimizer_off(), "/hdfs/warehouse/clicks");
    add_join_tables(&mut off);
    for sql in [
        "SELECT url FROM clicks WHERE clicks > 50",
        "SELECT keyword, COUNT(*) AS n FROM clicks WHERE clicks > 10 GROUP BY keyword",
        "SELECT url, clicks FROM clicks WHERE clicks > 5 AND 1 = 1 ORDER BY clicks DESC LIMIT 7",
        "SELECT a.v AS v, b.w AS w FROM a JOIN b ON a.k = b.k WHERE a.v > 10",
        "SELECT a.k AS k, COUNT(*) AS n, SUM(c.x) AS s FROM a JOIN b ON a.k = b.k \
         JOIN c ON a.k = c.k GROUP BY a.k",
    ] {
        let got_on = on.cluster.query(sql, &on.cred).unwrap();
        let got_off = off.cluster.query(sql, &off.cred).unwrap();
        assert_same_rows(&got_on.batch, &got_off.batch, sql);
        if !sql.contains("JOIN") {
            // Single-table plans keep scan order whether the filter sits
            // above or inside the scan: bit-identical, not just same bag.
            assert_eq!(got_on.batch, got_off.batch, "{sql}");
        }
        // Both must also agree with the single-process oracle.
        let want = feisu_exec::executor::run_sql(sql, &mut on.oracle).unwrap();
        assert_same_rows(&got_on.batch, &want, sql);
    }
}

#[test]
fn join_reorder_kill_switch_preserves_results() {
    let mut spec_no_reorder = ClusterSpec::small();
    spec_no_reorder.config.optimizer.join_reorder = false;
    let mut on = fixture(50);
    add_join_tables(&mut on);
    let mut off = fixture_with(50, spec_no_reorder, "/hdfs/warehouse/clicks");
    add_join_tables(&mut off);
    // Comma syntax: the rule pipeline (still on in both clusters) turns
    // the WHERE equalities into join keys; only the join-order search is
    // switched off in the second cluster.
    let sql = "SELECT SUM(b.w) AS s FROM b, c, a WHERE a.k = b.k AND a.k = c.k";
    let got_on = on.cluster.query(sql, &on.cred).unwrap();
    let got_off = off.cluster.query(sql, &off.cred).unwrap();
    assert_same_rows(&got_on.batch, &got_off.batch, sql);
    let want = feisu_exec::executor::run_sql(sql, &mut on.oracle).unwrap();
    assert_same_rows(&got_on.batch, &want, sql);
    // The reordering cluster traced its join-order decision on the
    // master span.
    assert!(
        got_on.profile.tree.roots[0].attr("join_order.0").is_some(),
        "3-way join must record a join-order trace"
    );
    assert_eq!(
        off.cluster
            .metrics()
            .counter("feisu.optimizer.joins_reordered")
            .get(),
        0
    );
}

// ------------------------------------------------- task reuse × aliases

/// Regression: the task-reuse signature ignored table aliases, so the
/// second statement got `a`/`b` scan batches back under the first
/// statement's column names (`a.k`, not `y.k`) and failed with "join
/// requires at least one equi condition".
#[test]
fn task_reuse_tells_aliased_scans_apart() {
    let mut fx = fixture(10);
    add_join_tables(&mut fx);
    check_against_oracle(&mut fx, "SELECT a.v, b.w FROM a, b WHERE a.k = b.k");
    check_against_oracle(
        &mut fx,
        "SELECT x.w, y.v FROM b AS x JOIN a AS y ON x.k = y.k",
    );
}

// ------------------------------------------------- randomized queries

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random 2–4 table star joins (optionally aggregated) answer
    /// identically on the optimized cluster, the kill-switched cluster,
    /// and the single-process oracle.
    #[test]
    fn random_multi_join_matches_oracle_and_kill_switch(
        n_tables in 2usize..5,
        threshold in -1i64..40,
        agg_die in 0usize..2,
    ) {
        let sql = star_sql(n_tables, threshold, agg_die == 1);
        let mut on = fixture(10);
        add_join_tables(&mut on);
        let mut off = fixture_with(10, spec_optimizer_off(), "/hdfs/warehouse/clicks");
        add_join_tables(&mut off);
        let got_on = on.cluster.query(&sql, &on.cred).unwrap();
        let got_off = off.cluster.query(&sql, &off.cred).unwrap();
        let want = feisu_exec::executor::run_sql(&sql, &mut on.oracle).unwrap();
        assert_same_rows(&got_on.batch, &want, &sql);
        assert_same_rows(&got_on.batch, &got_off.batch, &sql);
    }
}
