//! Engine surface features: EXPLAIN, JSON ingestion, SSD data cache,
//! cluster reporting.

use feisu_common::FeisuError;
use feisu_core::engine::ClusterSpec;
use feisu_format::Value as FValue;
use feisu_tests::{fixture, fixture_with};

#[test]
fn explain_shows_optimized_plan() {
    let fx = fixture(100);
    let plan = fx
        .cluster
        .explain(
            "SELECT url FROM clicks WHERE clicks > 5 ORDER BY url LIMIT 3",
            &fx.cred,
        )
        .unwrap();
    assert!(plan.contains("Limit: 3"), "{plan}");
    assert!(plan.contains("fetch=Some(3)"), "{plan}");
    assert!(plan.contains("Scan: clicks"), "{plan}");
    // Pushdown happened: predicate on the scan line, no residual filter.
    assert!(plan.contains("filter=(clicks > 5)"), "{plan}");
    assert!(!plan.contains("Filter:"), "{plan}");
}

#[test]
fn explain_respects_access_control() {
    let fx = fixture(10);
    let intern = fx.cluster.register_user("intern");
    let cred = fx.cluster.login(intern).unwrap();
    let err = fx
        .cluster
        .explain("SELECT url FROM clicks", &cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::PermissionDenied(_)));
}

#[test]
fn json_ingest_flattens_and_queries() {
    let fx = fixture(10);
    let docs = [
        r#"{"user": {"id": 1, "city": "beijing"}, "clicks": 10}"#,
        r#"{"user": {"id": 2, "city": "shanghai"}, "clicks": 25}"#,
        r#"{"user": {"id": 3, "city": "beijing"}, "clicks": 7}"#,
    ];
    let blocks = fx
        .cluster
        .ingest_json("events", "/hdfs/json/events", &docs, &fx.cred)
        .unwrap();
    assert!(blocks >= 1);
    let r = fx
        .cluster
        .query(
            "SELECT COUNT(*) FROM events WHERE user.city = 'beijing'",
            &fx.cred,
        )
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), FValue::Int64(2));
    let r = fx
        .cluster
        .query("SELECT SUM(clicks) FROM events", &fx.cred)
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), FValue::Int64(42));
}

#[test]
fn json_ingest_rejects_schema_drift() {
    let fx = fixture(10);
    fx.cluster
        .ingest_json("j", "/hdfs/json/j", &[r#"{"a": 1}"#], &fx.cred)
        .unwrap();
    let err = fx
        .cluster
        .ingest_json("j", "/hdfs/json/j", &[r#"{"b": "x"}"#], &fx.cred)
        .unwrap_err();
    assert!(matches!(err, FeisuError::Analysis(_)));
    // Same shape appends fine.
    fx.cluster
        .ingest_json("j", "/hdfs/json/j", &[r#"{"a": 5}"#], &fx.cred)
        .unwrap();
    let r = fx
        .cluster
        .query("SELECT COUNT(*) FROM j", &fx.cred)
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), FValue::Int64(2));
}

#[test]
fn ssd_cache_accelerates_repeat_reads() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false; // isolate the data cache
    spec.cache_pins = vec!["/hdfs/".to_string()];
    let fx = fixture_with(400, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT url FROM clicks WHERE clicks > 10";
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(cold.batch.rows(), warm.batch.rows());
    assert!(
        warm.response_time < cold.response_time,
        "SSD cache must beat HDD: {} vs {}",
        warm.response_time,
        cold.response_time
    );
    let stats = fx.cluster.router().cache().unwrap().stats();
    assert!(stats.hits() > 0, "cache saw hits: {stats:?}");
}

#[test]
fn smartindex_works_on_dotted_json_columns() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    let fx = fixture_with(10, spec, "/hdfs/warehouse/clicks");
    let docs: Vec<String> = (0..200)
        .map(|i| {
            format!(
                r#"{{"user": {{"id": {i}, "vip": {} }}, "spend": {}}}"#,
                i % 2,
                i * 3
            )
        })
        .collect();
    let doc_refs: Vec<&str> = docs.iter().map(|d| d.as_str()).collect();
    fx.cluster
        .ingest_json("purchases", "/hdfs/json/purchases", &doc_refs, &fx.cred)
        .unwrap();
    let sql = "SELECT COUNT(*) FROM purchases WHERE user.id > 100 AND user.vip = 1";
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(cold.batch, warm.batch);
    // ids 101..=199 with odd id (vip=1): 50 rows.
    assert_eq!(cold.batch.column(0).value(0), FValue::Int64(50));
    assert!(
        warm.stats.index_hits > 0,
        "dotted columns must be index-keyed"
    );
    // Every warm task is answered from memory: from cached bits, or
    // skipped by the zone maps of the footer the cold run left resident.
    assert_eq!(
        warm.stats.memory_served_tasks, warm.stats.tasks,
        "fully cached or zone-skipped dotted-column COUNT"
    );
    assert!(warm.stats.blocks_skipped > 0, "id zones prune low blocks");
    // The cold run's skips read each footer from storage instead.
    assert_eq!(cold.stats.blocks_skipped, warm.stats.blocks_skipped);
    assert_eq!(cold.stats.memory_served_tasks, 0);
}
