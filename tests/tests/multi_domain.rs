//! Heterogeneous-storage behaviour: tables living on different storage
//! systems behind the common storage layer (paper §II, §III-C, Fig. 10's
//! multi-storage scenario).

use feisu_common::SimDuration;
use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_format::{DataType, Field, Schema, Value};
use feisu_storage::auth::Credential;

fn setup() -> (FeisuCluster, Credential) {
    let mut spec = ClusterSpec::small();
    spec.rows_per_block = 32;
    let cluster = FeisuCluster::new(spec).unwrap();
    let admin = cluster.register_user("admin");
    cluster.grant_all(admin);
    let cred = cluster.login(admin).unwrap();
    (cluster, cred)
}

fn log_schema() -> Schema {
    Schema::new(vec![
        Field::new("url", DataType::Utf8, false),
        Field::new("hits", DataType::Int64, false),
    ])
}

#[test]
fn tables_on_hdfs_fatman_and_local_coexist() {
    let (cluster, cred) = setup();
    for (table, location) in [
        ("hot_logs", "/hdfs/logs/hot"),
        ("cold_logs", "/ffs/archive/cold"),
        ("edge_logs", "/data/edge"), // unknown prefix ⇒ local fs
    ] {
        cluster
            .create_table(table, log_schema(), location, &cred)
            .unwrap();
    }
    // Local-fs writes need a node pin (log data lives on its producer).
    cluster
        .ingest_rows_at(
            "edge_logs",
            (0..40)
                .map(|i| vec![Value::from(format!("e{i}")), Value::from(i as i64)])
                .collect(),
            feisu_common::NodeId(1),
            &cred,
        )
        .unwrap();
    for table in ["hot_logs", "cold_logs"] {
        cluster
            .ingest_rows(
                table,
                (0..40)
                    .map(|i| vec![Value::from(format!("u{i}")), Value::from(i as i64)])
                    .collect(),
                &cred,
            )
            .unwrap();
    }
    for table in ["hot_logs", "cold_logs", "edge_logs"] {
        let r = cluster
            .query(&format!("SELECT COUNT(*) FROM {table}"), &cred)
            .unwrap();
        assert_eq!(r.batch.column(0).value(0), Value::Int64(40), "{table}");
    }
}

#[test]
fn cold_storage_reads_cost_more_than_hdfs() {
    let (cluster, cred) = setup();
    cluster
        .create_table("hot", log_schema(), "/hdfs/t/hot", &cred)
        .unwrap();
    cluster
        .create_table("cold", log_schema(), "/ffs/t/cold", &cred)
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..64)
        .map(|i| vec![Value::from(format!("u{i}")), Value::from(i as i64)])
        .collect();
    cluster.ingest_rows("hot", rows.clone(), &cred).unwrap();
    cluster.ingest_rows("cold", rows, &cred).unwrap();
    let hot = cluster
        .query("SELECT COUNT(*) FROM hot WHERE hits > 1", &cred)
        .unwrap();
    let cold = cluster
        .query("SELECT COUNT(*) FROM cold WHERE hits > 1", &cred)
        .unwrap();
    assert!(
        cold.response_time > hot.response_time + SimDuration::millis(100),
        "Fatman's cold penalty must show: hot {} vs cold {}",
        hot.response_time,
        cold.response_time
    );
}

#[test]
fn cross_domain_join_unifies_sources() {
    // Fig. 10's scenario: one query touching data on two storage systems.
    let (cluster, cred) = setup();
    cluster
        .create_table("recent", log_schema(), "/hdfs/logs/recent", &cred)
        .unwrap();
    cluster
        .create_table("archive", log_schema(), "/ffs/logs/archive", &cred)
        .unwrap();
    cluster
        .ingest_rows(
            "recent",
            vec![
                vec![Value::from("a"), Value::from(10i64)],
                vec![Value::from("b"), Value::from(20i64)],
            ],
            &cred,
        )
        .unwrap();
    cluster
        .ingest_rows(
            "archive",
            vec![
                vec![Value::from("a"), Value::from(1i64)],
                vec![Value::from("c"), Value::from(3i64)],
            ],
            &cred,
        )
        .unwrap();
    let r = cluster
        .query(
            "SELECT recent.url, recent.hits, archive.hits \
             FROM recent JOIN archive ON recent.url = archive.url",
            &cred,
        )
        .unwrap();
    assert_eq!(r.batch.rows(), 1);
    assert_eq!(r.batch.value_at(0, "url"), Some(Value::Utf8("a".into())));
}

#[test]
fn per_domain_grants_isolate_sources() {
    let (cluster, cred) = setup();
    cluster
        .create_table("open", log_schema(), "/hdfs/t/open", &cred)
        .unwrap();
    cluster
        .create_table("restricted", log_schema(), "/ffs/t/restricted", &cred)
        .unwrap();
    cluster
        .ingest_rows(
            "open",
            vec![vec![Value::from("x"), Value::from(1i64)]],
            &cred,
        )
        .unwrap();
    cluster
        .ingest_rows(
            "restricted",
            vec![vec![Value::from("y"), Value::from(2i64)]],
            &cred,
        )
        .unwrap();
    let analyst = cluster.register_user("analyst");
    cluster
        .grant(analyst, "hdfs", feisu_storage::auth::Grant::Read)
        .unwrap();
    let acred = cluster.login(analyst).unwrap();
    assert!(cluster.query("SELECT COUNT(*) FROM open", &acred).is_ok());
    // No Fatman grant: the cross-domain query dies at access check.
    let err = cluster
        .query("SELECT COUNT(*) FROM restricted", &acred)
        .unwrap_err();
    assert!(matches!(err, feisu_common::FeisuError::PermissionDenied(_)));
    let err = cluster
        .query(
            "SELECT open.url FROM open JOIN restricted ON open.url = restricted.url",
            &acred,
        )
        .unwrap_err();
    assert!(matches!(err, feisu_common::FeisuError::PermissionDenied(_)));
}

#[test]
fn local_fs_tasks_prefer_the_owning_node() {
    let (cluster, cred) = setup();
    cluster
        .create_table("node_logs", log_schema(), "/data/nodelogs", &cred)
        .unwrap();
    cluster
        .ingest_rows_at(
            "node_logs",
            (0..32)
                .map(|i| vec![Value::from(format!("u{i}")), Value::from(i as i64)])
                .collect(),
            feisu_common::NodeId(2),
            &cred,
        )
        .unwrap();
    let r = cluster
        .query("SELECT COUNT(*) FROM node_logs WHERE hits >= 0", &cred)
        .unwrap();
    assert_eq!(r.batch.column(0).value(0), Value::Int64(32));
    // Data-local execution: the SmartIndex for the scan must have been
    // built on the owning node's leaf server.
    let leaf = cluster.leaf(feisu_common::NodeId(2)).unwrap();
    assert!(!leaf.index().is_empty(), "index built on the owning node");
}

#[test]
fn a_leaf_is_found_by_its_topology_index_and_no_other_id() {
    use feisu_common::NodeId;
    let (cluster, _) = setup();
    let nodes = cluster.node_count() as u64;
    assert!((0..nodes).all(|n| cluster.leaf(NodeId(n)).is_some()));
    for outside in [nodes, nodes + 1, u64::MAX] {
        assert!(cluster.leaf(NodeId(outside)).is_none(), "{outside}");
        assert_eq!(cluster.feisu_slot_limit(NodeId(outside)), 0);
    }
}
