//! Leaf-server execution semantics, probed directly at the LeafServer
//! API (below the engine): cost accounting of the columnar read model,
//! zone pruning, the count-only memory path, and partial aggregation.

use feisu_cluster::{CostModel, Topology};
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, NodeId, SimDuration, SimInstant, UserId};
use feisu_core::leaf::{AggStage, LeafServer, ScanTask};
use feisu_format::table::{BlockDesc, BlockZone};
use feisu_format::{Block, Column, DataType, Field, Schema};
use feisu_index::manager::IndexManager;
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::cnf::to_cnf;
use feisu_sql::parser::parse_expr;
use feisu_sql::plan::AggExpr;
use feisu_storage::auth::{AuthService, Credential, Grant};
use feisu_storage::hdfs::HdfsDomain;
use feisu_storage::{StorageDomain, StorageRouter};
use std::sync::Arc;

struct Rig {
    router: StorageRouter,
    cred: Credential,
    desc: BlockDesc,
    /// Same block as written before zone maps existed (no footer zone
    /// section), stored at its own path.
    desc_legacy: BlockDesc,
    schema: Schema,
    topology: Arc<Topology>,
}

fn rig() -> Rig {
    let topology = Arc::new(Topology::grid(1, 2, 2));
    let cost = CostModel::default();
    let hdfs: Arc<dyn StorageDomain> = Arc::new(HdfsDomain::new(
        feisu_common::DomainId(1),
        "hdfs",
        topology.clone(),
        cost.clone(),
        3,
        7,
    ));
    let auth = Arc::new(AuthService::new(9));
    auth.register(UserId(1));
    auth.grant(UserId(1), feisu_common::DomainId(1), Grant::ReadWrite);
    let cred = auth
        .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
        .unwrap();
    let router = StorageRouter::new(vec![hdfs], 0, auth, None, cost);

    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
        Field::new("c", DataType::Int64, false),
    ]);
    let block = Block::new(
        feisu_common::BlockId(0),
        schema.clone(),
        vec![
            Column::from_i64((0..256).collect()),
            Column::from_i64((0..256).map(|i| i % 50).collect()),
            Column::from_i64((0..256).map(|i| i % 7).collect()),
        ],
    )
    .unwrap();
    let bytes = block.serialize();
    let desc = BlockDesc {
        id: block.id(),
        path: "/t/b0".into(),
        rows: block.rows(),
        stored_size: ByteSize(bytes.len() as u64),
        raw_size: ByteSize(block.footprint() as u64),
        zones: schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let s = block.stats(i);
                BlockZone {
                    column: f.name.clone(),
                    min: s.min,
                    max: s.max,
                    null_count: s.null_count,
                }
            })
            .collect(),
    };
    router
        .write("/t/b0", bytes.into(), Some(NodeId(0)), &cred, SimInstant(0))
        .unwrap();
    // Golden bytes from the pre-zone-map writer, for exactly `block`.
    let legacy_bytes: &[u8] = include_bytes!("../../crates/format/testdata/zoneless_block.bin");
    assert_eq!(Block::deserialize(legacy_bytes).unwrap(), block);
    let mut desc_legacy = desc.clone();
    desc_legacy.path = "/t/b0_legacy".into();
    desc_legacy.stored_size = ByteSize(legacy_bytes.len() as u64);
    router
        .write(
            "/t/b0_legacy",
            legacy_bytes.to_vec().into(),
            Some(NodeId(0)),
            &cred,
            SimInstant(0),
        )
        .unwrap();
    Rig {
        router,
        cred,
        desc,
        desc_legacy,
        schema,
        topology,
    }
}

fn leaf(node: NodeId) -> LeafServer {
    LeafServer::new(
        node,
        IndexManager::new(ByteSize::mib(4), SimDuration::hours(72)),
        CostModel::default(),
    )
}

fn task(rig: &Rig, predicate: &str, projection: &[&str], agg: Option<AggStage>) -> ScanTask {
    let cnf = to_cnf(&parse_expr(predicate).unwrap());
    let mut name_map = FxHashMap::default();
    for f in rig.schema.fields() {
        name_map.insert(f.name.clone(), f.name.clone());
    }
    let fields: Vec<Field> = projection
        .iter()
        .map(|p| rig.schema.field_by_name(p).unwrap().clone())
        .collect();
    ScanTask {
        table: "t".into(),
        block: rig.desc.clone(),
        projection: projection.iter().map(|s| s.to_string()).collect(),
        output_schema: Schema::new(fields),
        cnf,
        residual: Vec::new(),
        agg,
        name_map,
    }
}

fn count_stage() -> AggStage {
    AggStage {
        group_by: Vec::new(),
        aggregates: vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "COUNT(*)".into(),
            output_type: DataType::Int64,
        }],
    }
}

#[test]
fn warm_scan_touches_fewer_columns_than_cold() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10 AND c <= 3", &["a"], None);
    let cold = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    let warm = l
        .execute(&t, &r.router, &r.cred, SimInstant(1), true)
        .unwrap();
    assert_eq!(cold.batch, warm.batch);
    assert_eq!(cold.stats.index_built, 2);
    assert_eq!(warm.stats.index_hits, 2);
    // Cold touches a+b+c; warm only a.
    assert!(warm.stats.bytes_read < cold.stats.bytes_read);
    assert!(warm.tally.io < cold.tally.io);
}

#[test]
fn remote_execution_pays_network() {
    let r = rig();
    // A node outside the replica set (read is remote).
    let replicas = r.router.replicas("/t/b0").unwrap();
    let outsider = r
        .topology
        .nodes()
        .iter()
        .map(|n| n.id)
        .find(|n| !replicas.contains(n))
        .expect("grid has a non-replica node");
    let local = leaf(replicas[0]);
    let remote = leaf(outsider);
    let t = task(&r, "b > 10", &["a"], None);
    let lo = local
        .execute(&t, &r.router, &r.cred, SimInstant(0), false)
        .unwrap();
    let ro = remote
        .execute(&t, &r.router, &r.cred, SimInstant(0), false)
        .unwrap();
    assert_eq!(lo.batch, ro.batch);
    assert_eq!(lo.tally.network, SimDuration::ZERO);
    assert!(ro.tally.network > SimDuration::ZERO);
}

#[test]
fn zone_skip_avoids_column_decode_and_most_bytes() {
    let r = rig();
    let l = leaf(NodeId(0));
    // `a` spans 0..=255: a > 1000 is provably empty from the footer zones.
    let t = task(&r, "a > 1000", &["a"], None);
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(out.stats.pruned_by_zone);
    assert_eq!(out.stats.blocks_skipped, 1);
    assert_eq!(out.stats.blocks_scanned, 0);
    // The skip reads the block's footer — a real storage touch, not a
    // memory-served answer, but a small fraction of a scan's bytes.
    assert!(!out.stats.served_from_memory);
    assert!(out.stats.bytes_read > ByteSize::ZERO);
    assert_eq!(out.batch.rows(), 0);
    assert_eq!(
        out.stats.index_built, 0,
        "no SmartIndex probe on a skipped block"
    );
    // Even on this tiny, highly compressible test block the footer read
    // is cheaper than a full-width scan; the bench pins the big ratios on
    // realistically sized blocks.
    let full = l
        .execute(
            &task(&r, "a >= 0", &["a", "b", "c"], None),
            &r.router,
            &r.cred,
            SimInstant(1),
            true,
        )
        .unwrap();
    assert!(
        out.stats.bytes_read < full.stats.bytes_read,
        "footer read {} should be below a full scan's {}",
        out.stats.bytes_read,
        full.stats.bytes_read
    );
    assert!(out.tally.io < full.tally.io);
}

#[test]
fn zoneless_legacy_block_scans_normally() {
    let r = rig();
    let l = leaf(NodeId(0));
    // The legacy block has no footer zone section: skipping is impossible
    // even for a provably-dead predicate, and the scan must still answer
    // correctly.
    let mut t = task(&r, "a > 1000", &["a"], None);
    t.block = r.desc_legacy.clone();
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(!out.stats.pruned_by_zone);
    assert_eq!(out.stats.blocks_skipped, 0);
    assert_eq!(out.stats.blocks_scanned, 1);
    assert_eq!(out.batch.rows(), 0);
    // And a matching predicate returns real rows from the legacy layout.
    let mut t2 = task(&r, "a < 10", &["a", "b"], None);
    t2.block = r.desc_legacy.clone();
    let out2 = l
        .execute(&t2, &r.router, &r.cred, SimInstant(1), true)
        .unwrap();
    assert_eq!(out2.batch.rows(), 10);
}

#[test]
fn count_only_served_from_cache_after_warmup() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10", &["a"], Some(count_stage()));
    let cold = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(cold.is_agg_transport);
    assert!(!cold.stats.served_from_memory);
    let warm = l
        .execute(&t, &r.router, &r.cred, SimInstant(1), true)
        .unwrap();
    assert!(
        warm.stats.served_from_memory,
        "no storage touch when cached"
    );
    assert_eq!(warm.stats.bytes_read, ByteSize::ZERO);
    // Transports decode to the same count.
    assert_eq!(cold.batch, warm.batch);
}

#[test]
fn partial_agg_transport_counts_match_rows() {
    let r = rig();
    let l = leaf(NodeId(0));
    let stage = AggStage {
        group_by: vec![(Expr::col("c"), "c".into(), DataType::Int64)],
        aggregates: vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
            output_type: DataType::Int64,
        }],
    };
    let t = task(&r, "b >= 0", &["c"], Some(stage.clone()));
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(out.is_agg_transport);
    let table = feisu_exec::aggregate::AggTable::from_transport(
        stage.group_by.clone(),
        stage.aggregates.clone(),
        &out.batch,
    )
    .unwrap();
    let final_schema = Schema::new(vec![
        Field::new("c", DataType::Int64, true),
        Field::new("n", DataType::Int64, true),
    ]);
    let finished = table.finish(&final_schema).unwrap();
    assert_eq!(finished.rows(), 7, "c has 7 groups");
    let total: i64 = (0..finished.rows())
        .map(|i| finished.value_at(i, "n").unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 256);
}

#[test]
fn disabled_index_never_caches() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10", &["a"], None);
    for i in 0..3 {
        let out = l
            .execute(&t, &r.router, &r.cred, SimInstant(i), false)
            .unwrap();
        assert_eq!(out.stats.index_hits, 0);
        assert_eq!(out.stats.index_built, 0);
        assert_eq!(out.stats.scanned_predicates, 1);
    }
    assert!(l.index().is_empty());
}

#[test]
fn or_clause_and_value_correctness() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b < 5 OR c = 6", &["a", "b", "c"], None);
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    // Oracle count: b = i%50 < 5 (i%50 in 0..5) or c = i%7 == 6.
    let expected = (0..256).filter(|i| i % 50 < 5 || i % 7 == 6).count();
    assert_eq!(out.batch.rows(), expected);
    for i in 0..out.batch.rows() {
        let b = out.batch.value_at(i, "b").unwrap().as_i64().unwrap();
        let c = out.batch.value_at(i, "c").unwrap().as_i64().unwrap();
        assert!(b < 5 || c == 6);
    }
}
