//! End-to-end SQL correctness: the distributed cluster must agree with
//! the single-process oracle executor on a broad query battery.

use feisu_tests::{add_join_agg_tables, check_against_oracle, fixture};

#[test]
fn plain_scans_agree_with_oracle() {
    let mut fx = fixture(500);
    for sql in [
        "SELECT url FROM clicks WHERE clicks > 50",
        "SELECT url, clicks FROM clicks WHERE clicks <= 10",
        "SELECT keyword FROM clicks WHERE keyword = 'map'",
        "SELECT url FROM clicks WHERE keyword != 'map' AND clicks >= 90",
        "SELECT url FROM clicks WHERE clicks > 20 OR score < 0.2",
        "SELECT url FROM clicks WHERE url CONTAINS 'site3'",
        "SELECT url FROM clicks WHERE clicks IS NULL",
        "SELECT url FROM clicks WHERE clicks IS NOT NULL AND day = 20160101",
    ] {
        check_against_oracle(&mut fx, sql);
    }
}

#[test]
fn negation_forms_agree_with_oracle() {
    let mut fx = fixture(400);
    for sql in [
        // The paper's Q10/Q11/Q12 trio.
        "SELECT COUNT(*) FROM clicks WHERE (clicks > 0) AND (clicks <= 5)",
        "SELECT COUNT(*) FROM clicks WHERE clicks > 0 AND !(clicks > 5)",
        "SELECT COUNT(*) FROM clicks WHERE NOT (clicks <= 0) AND NOT (clicks > 5)",
        "SELECT url FROM clicks WHERE NOT (keyword = 'map' OR clicks > 90)",
    ] {
        check_against_oracle(&mut fx, sql);
    }
}

#[test]
fn aggregations_agree_with_oracle() {
    let mut fx = fixture(700);
    for sql in [
        "SELECT COUNT(*) FROM clicks",
        "SELECT COUNT(clicks) FROM clicks",
        "SELECT SUM(clicks) FROM clicks WHERE day = 20160101",
        "SELECT AVG(score) FROM clicks WHERE clicks > 30",
        "SELECT MIN(clicks), MAX(clicks) FROM clicks",
        "SELECT keyword, COUNT(*) FROM clicks GROUP BY keyword",
        "SELECT keyword, SUM(clicks) AS s FROM clicks GROUP BY keyword HAVING s > 100",
        "SELECT day, COUNT(*) AS n, AVG(score) FROM clicks WHERE clicks > 10 GROUP BY day",
    ] {
        check_against_oracle(&mut fx, sql);
    }
}

#[test]
fn order_and_limit_agree_with_oracle() {
    let mut fx = fixture(300);
    for sql in [
        // Unique sort keys so LIMIT cut-offs are unambiguous.
        "SELECT keyword, COUNT(*) AS n FROM clicks GROUP BY keyword ORDER BY n DESC",
        "SELECT day, COUNT(*) AS n FROM clicks GROUP BY day ORDER BY day LIMIT 3",
        "SELECT keyword, COUNT(*) FROM clicks GROUP BY keyword ORDER BY keyword LIMIT 2",
    ] {
        check_against_oracle(&mut fx, sql);
    }
}

#[test]
fn empty_results_are_clean() {
    let fx = fixture(100);
    let r = fx
        .cluster
        .query("SELECT url FROM clicks WHERE clicks > 100000", &fx.cred)
        .unwrap();
    assert_eq!(r.batch.rows(), 0);
    // Zone maps should prune every block: value is out of range.
    assert_eq!(r.stats.blocks_skipped, r.stats.tasks);
    let r = fx
        .cluster
        .query(
            "SELECT COUNT(*) FROM clicks WHERE clicks > 100000",
            &fx.cred,
        )
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), feisu_format::Value::Int64(0));
}

#[test]
fn projection_pruning_reduces_io() {
    let fx = fixture(400);
    let narrow = fx
        .cluster
        .query("SELECT day FROM clicks WHERE day >= 0", &fx.cred)
        .unwrap();
    // Fresh cluster for a fair comparison (index caches would skew it).
    let fx2 = fixture(400);
    let wide = fx2
        .cluster
        .query(
            "SELECT url, keyword, clicks, score, day FROM clicks WHERE day >= 0",
            &fx2.cred,
        )
        .unwrap();
    assert!(
        narrow.stats.bytes_read < wide.stats.bytes_read,
        "columnar projection must cut bytes: {} vs {}",
        narrow.stats.bytes_read,
        wide.stats.bytes_read
    );
}

#[test]
fn multi_block_tables_concat_correctly() {
    // 500 rows at ≤64 rows/block = ≥8 blocks spread over nodes.
    let fx = fixture(500);
    let r = fx
        .cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), feisu_format::Value::Int64(500));
    assert!(
        r.stats.tasks >= 8,
        "expected many blocks, got {}",
        r.stats.tasks
    );
}

#[test]
fn join_against_dimension_table() {
    let mut fx = fixture(200);
    // A small dimension table on the KV-domain side of the catalog.
    let dim_schema = feisu_format::Schema::new(vec![
        feisu_format::Field::new("keyword", feisu_format::DataType::Utf8, false),
        feisu_format::Field::new("category", feisu_format::DataType::Utf8, false),
    ]);
    fx.cluster
        .create_table("dim", dim_schema.clone(), "/hdfs/warehouse/dim", &fx.cred)
        .unwrap();
    let dim_rows = vec![
        vec![
            feisu_format::Value::from("map"),
            feisu_format::Value::from("geo"),
        ],
        vec![
            feisu_format::Value::from("music"),
            feisu_format::Value::from("media"),
        ],
        vec![
            feisu_format::Value::from("news"),
            feisu_format::Value::from("media"),
        ],
    ];
    fx.cluster
        .ingest_rows("dim", dim_rows.clone(), &fx.cred)
        .unwrap();
    fx.oracle
        .insert("dim", feisu_tests::rows_to_batch(&dim_schema, &dim_rows));
    for sql in [
        "SELECT category, COUNT(*) FROM clicks JOIN dim ON clicks.keyword = dim.keyword \
         GROUP BY category",
        "SELECT clicks.url, dim.category FROM clicks JOIN dim ON clicks.keyword = dim.keyword \
         WHERE clicks.clicks > 80",
        "SELECT clicks.url FROM clicks LEFT JOIN dim ON clicks.keyword = dim.keyword \
         WHERE dim.category IS NULL",
    ] {
        check_against_oracle(&mut fx, sql);
    }
}

#[test]
fn response_time_is_deterministic() {
    let a = fixture(300);
    let b = fixture(300);
    let sql = "SELECT COUNT(*) FROM clicks WHERE clicks > 42";
    let ra = a.cluster.query(sql, &a.cred).unwrap();
    let rb = b.cluster.query(sql, &b.cred).unwrap();
    assert_eq!(ra.response_time, rb.response_time);
    assert_eq!(ra.stats.bytes_read, rb.stats.bytes_read);
}

#[test]
fn a_self_join_under_two_aliases_reuses_its_tasks_and_answers_right() {
    // Both scans of `fa` carry storage-named clauses; their output names
    // (`a.…` against `b.…`) keep their reused results apart, even where
    // the clauses read the same.
    let mut fx = fixture(8);
    add_join_agg_tables(&mut fx);
    for sql in [
        "SELECT a.ku, b.ku, b.v FROM fa a JOIN fa b ON a.km = b.km \
         WHERE a.v > 50 AND b.v < 20",
        "SELECT a.ku, b.ku FROM fa a JOIN fa b ON a.km = b.km \
         WHERE a.v > 90 AND b.v > 90",
    ] {
        check_against_oracle(&mut fx, sql);
        let again = fx.cluster.query(sql, &fx.cred).unwrap();
        assert!(again.stats.tasks > 0, "{sql}");
        assert_eq!(again.stats.reused_tasks, again.stats.tasks, "{sql}");
        check_against_oracle(&mut fx, sql);
    }
}
