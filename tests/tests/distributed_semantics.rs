//! Distributed-execution semantics that the oracle comparison alone
//! cannot pin down: partial-aggregation pushdown, stem-tree merging,
//! zone pruning, scheduling stats, history/personalization plumbing.

use feisu_core::engine::ClusterSpec;
use feisu_format::Value;
use feisu_tests::{check_against_oracle, fixture, fixture_with};

#[test]
fn partial_aggregation_is_pushed_to_leaves() {
    // GROUP BY over many blocks: each leaf ships a transport batch whose
    // row count is bounded by its group count, not its input rows.
    let mut fx = fixture(800);
    let r = fx
        .cluster
        .query(
            "SELECT keyword, COUNT(*), SUM(clicks) FROM clicks GROUP BY keyword",
            &fx.cred,
        )
        .unwrap();
    assert_eq!(r.batch.rows(), 4, "four keywords");
    // And results agree with the oracle.
    check_against_oracle(
        &mut fx,
        "SELECT keyword, COUNT(*), SUM(clicks) FROM clicks GROUP BY keyword",
    );
}

#[test]
fn aggregate_above_filterless_scan_counts_all_blocks() {
    let fx = fixture(500);
    // No WHERE clause: zone pruning cannot fire, every block contributes.
    let r = fx
        .cluster
        .query("SELECT COUNT(*), MIN(day), MAX(day) FROM clicks", &fx.cred)
        .unwrap();
    assert_eq!(r.stats.blocks_skipped, 0);
    assert_eq!(r.batch.value_at(0, "COUNT(*)"), Some(Value::Int64(500)));
    assert_eq!(
        r.batch.value_at(0, "MIN(day)"),
        Some(Value::Int64(20160101))
    );
}

#[test]
fn zone_pruning_skips_out_of_range_blocks() {
    // `day` is monotonically increasing across ingest order, so blocks
    // have disjoint day ranges and a selective day predicate prunes most.
    let fx = fixture(500);
    let r = fx
        .cluster
        .query("SELECT COUNT(*) FROM clicks WHERE day = 20160105", &fx.cred)
        .unwrap();
    assert!(
        r.stats.blocks_skipped > 0,
        "zone maps should skip non-matching day blocks: {:?}",
        r.stats
    );
    assert_eq!(r.batch.column(0).value(0), Value::Int64(50));
}

#[test]
fn many_groups_survive_the_stem_tree() {
    // More groups than rows-per-block: group merging must be exact.
    let mut fx = fixture(640);
    check_against_oracle(
        &mut fx,
        "SELECT url, COUNT(*) AS n, MIN(clicks), MAX(clicks) FROM clicks GROUP BY url",
    );
}

#[test]
fn stem_fanout_configuration_changes_nothing_semantically() {
    for leaves_per_stem in [1usize, 2, 64] {
        let mut spec = ClusterSpec::small();
        spec.config.leaves_per_stem = leaves_per_stem;
        let fx = fixture_with(300, spec, "/hdfs/warehouse/clicks");
        let r = fx
            .cluster
            .query("SELECT SUM(clicks) FROM clicks", &fx.cred)
            .unwrap();
        assert_eq!(
            r.batch.column(0).value(0),
            Value::Int64(
                feisu_tests::clicks_rows(300)
                    .iter()
                    .filter_map(|row| row[2].as_i64())
                    .sum::<i64>()
            ),
            "fanout {leaves_per_stem}"
        );
    }
}

#[test]
fn history_and_personalization_flow() {
    let fx = fixture(200);
    for _ in 0..5 {
        fx.cluster
            .query("SELECT COUNT(*) FROM clicks WHERE clicks > 42", &fx.cred)
            .unwrap();
    }
    let freq = fx
        .cluster
        .frequent_predicates(fx.user, feisu_common::SimDuration::hours(24), 3);
    assert!(!freq.is_empty());
    assert_eq!(freq[0].0.column, "clicks");
    assert_eq!(freq[0].1, 5);
    let pinned = fx.cluster.personalize(fx.user, 2).unwrap();
    assert!(pinned > 0);
}

#[test]
fn personalization_history_is_bounded_by_the_query_log() {
    let mut spec = ClusterSpec::small();
    spec.config.query_log_capacity = 4;
    let fx = fixture_with(200, spec, "/hdfs/warehouse/clicks");
    let run = |sql: &str, times: usize| {
        for _ in 0..times {
            fx.cluster.query(sql, &fx.cred).unwrap();
        }
    };
    run("SELECT COUNT(*) FROM clicks WHERE clicks > 42", 6);
    run("SELECT COUNT(*) FROM clicks WHERE day = 20160102", 4);
    // Only the last four statements are remembered, however many ran.
    let freq = fx
        .cluster
        .frequent_predicates(fx.user, feisu_common::SimDuration::hours(24), 10);
    assert_eq!(freq.len(), 1, "{freq:?}");
    assert_eq!((freq[0].0.column.as_str(), freq[0].1), ("day", 4));
}

#[test]
fn task_reuse_only_within_freshness_window() {
    let mut spec = ClusterSpec::small();
    spec.use_smartindex = false;
    let fx = fixture_with(300, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT COUNT(*) FROM clicks WHERE clicks >= 7";
    fx.cluster.query(sql, &fx.cred).unwrap();
    let hot = fx.cluster.query(sql, &fx.cred).unwrap();
    assert!(hot.stats.reused_tasks > 0, "immediate re-run reuses tasks");
    // Past the 10-minute reuse window, tasks run again.
    fx.cluster
        .advance_time(feisu_common::SimDuration::minutes(11));
    let stale = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(stale.stats.reused_tasks, 0, "stale results not reused");
    assert_eq!(hot.batch, stale.batch);
}

#[test]
fn scheduling_stats_expose_task_counts() {
    let fx = fixture(500);
    let r = fx
        .cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .unwrap();
    let expected_blocks = fx.cluster.catalog().table("clicks").unwrap().block_count();
    assert_eq!(r.stats.tasks, expected_blocks);
    assert_eq!(r.stats.processed_ratio, 1.0);
    assert!(!r.partial);
}

#[test]
fn cross_join_and_three_table_queries() {
    let mut fx = fixture(60);
    let dim = feisu_format::Schema::new(vec![feisu_format::Field::new(
        "tag",
        feisu_format::DataType::Utf8,
        false,
    )]);
    fx.cluster
        .create_table("tags", dim.clone(), "/hdfs/warehouse/tags", &fx.cred)
        .unwrap();
    let rows = vec![
        vec![feisu_format::Value::from("x")],
        vec![feisu_format::Value::from("y")],
    ];
    fx.cluster
        .ingest_rows("tags", rows.clone(), &fx.cred)
        .unwrap();
    fx.oracle
        .insert("tags", feisu_tests::rows_to_batch(&dim, &rows));
    check_against_oracle(&mut fx, "SELECT COUNT(*) FROM clicks CROSS JOIN tags");
    check_against_oracle(
        &mut fx,
        "SELECT tags.tag, COUNT(*) FROM clicks CROSS JOIN tags \
         WHERE clicks.clicks > 50 GROUP BY tags.tag",
    );
}

#[test]
fn residual_only_predicates_do_not_share_task_results() {
    // Regression: the task-reuse signature must include residual
    // (non-indexable) clauses, not just the SmartIndex-servable CNF.
    let mut fx = fixture(300);
    // `clicks > day - N` is column-vs-expression: fully residual.
    let a = fx
        .cluster
        .query(
            "SELECT COUNT(*) FROM clicks WHERE clicks > day - 20160110",
            &fx.cred,
        )
        .unwrap();
    let b = fx
        .cluster
        .query(
            "SELECT COUNT(*) FROM clicks WHERE clicks > day - 20160101",
            &fx.cred,
        )
        .unwrap();
    let ca = a.batch.column(0).value(0).as_i64().unwrap();
    let cb = b.batch.column(0).value(0).as_i64().unwrap();
    assert!(
        ca > cb,
        "different residuals must give different counts: {ca} vs {cb}"
    );
    // And each agrees with the oracle.
    check_against_oracle(
        &mut fx,
        "SELECT COUNT(*) FROM clicks WHERE clicks > day - 20160110",
    );
    check_against_oracle(
        &mut fx,
        "SELECT COUNT(*) FROM clicks WHERE clicks > day - 20160101",
    );
}

#[test]
fn oversized_results_spill_to_global_storage() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    // A tiny threshold forces the §V-C spill path for any real result.
    spec.config.result_spill_threshold = feisu_common::ByteSize::bytes(64);
    let fx = fixture_with(400, spec, "/hdfs/warehouse/clicks");
    let small = fx
        .cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .unwrap();
    assert_eq!(
        small.stats.spilled_results, 0,
        "one-row aggregate fits the read flow"
    );
    let big = fx
        .cluster
        .query(
            "SELECT url, keyword, clicks FROM clicks WHERE clicks >= 0",
            &fx.cred,
        )
        .unwrap();
    assert!(big.stats.spilled_results > 0, "row flood must spill");
    assert!(big.batch.rows() > 300);
    // Spilling costs a bulk round trip: slower than the in-band path of a
    // comparable-result query with a huge threshold.
    let mut spec2 = ClusterSpec::small();
    spec2.task_reuse = false;
    let fx2 = fixture_with(400, spec2, "/hdfs/warehouse/clicks");
    let inband = fx2
        .cluster
        .query(
            "SELECT url, keyword, clicks FROM clicks WHERE clicks >= 0",
            &fx2.cred,
        )
        .unwrap();
    assert_eq!(inband.batch, big.batch);
    assert!(big.response_time > inband.response_time);
}

#[test]
fn top_k_cuts_happen_after_the_store_so_any_scan_reuses_the_results() {
    let mut fx = fixture(300);
    let top = "SELECT url, clicks FROM clicks ORDER BY clicks LIMIT 2";
    let first = fx.cluster.query(top, &fx.cred).unwrap();
    // Each leaf shipped its first two rows only.
    for leaf in first.profile.tree.find_all("leaf_task") {
        assert!(leaf
            .attr("rows")
            .is_some_and(|v| v.to_string().parse::<u64>().unwrap() <= 2));
    }
    // The same scan without the LIMIT reuses every stored result, uncut.
    let all = fx
        .cluster
        .query("SELECT url, clicks FROM clicks ORDER BY clicks", &fx.cred)
        .unwrap();
    assert_eq!(all.stats.reused_tasks, all.stats.tasks);
    assert_eq!(all.batch.rows(), 300, "every row");
    check_against_oracle(&mut fx, "SELECT url, clicks FROM clicks ORDER BY clicks");
    // The cut again, from the reused results, gives the same answer.
    let again = fx.cluster.query(top, &fx.cred).unwrap();
    assert_eq!(again.stats.reused_tasks, again.stats.tasks);
    assert_eq!(again.batch, first.batch);
}
