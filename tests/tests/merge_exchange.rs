//! Topology-aware multi-level merge tree + repartition exchange (PR 9).
//!
//! Covers the §12 determinism contract for the new merge shapes:
//! multi-level partitioned merges must equal single-node aggregation for
//! random COUNT/SUM/AVG/MIN/MAX workloads at tree depths 2–4, fan-in
//! caps 1, 2 and 64 and partition counts 1–8, integer answers must be
//! bit-identical across partition counts and whatever depth is priced,
//! serial and concurrent runs must be
//! bit-identical with the exchange enabled, a 2-DC grid must bill more
//! network than a single rack for the same query, and the
//! straggler-limit clamp must pin leaf time exactly at the limit. One
//! partition merger with zero-row children among its own — well-formed
//! ones, which it skips, and malformed ones, which it still refuses — and
//! one over a global aggregate's children, many of them the scan's shared
//! one-row zero state, which it counts and does not fold, answer, count
//! and fail exactly as folding every child does.

use feisu_common::{FeisuError, Result, SimDuration};
use feisu_core::engine::{ClusterSpec, FeisuCluster, QueryOptions};
use feisu_core::stem::{merge_exchange_partition, AggShape, ExchangeChild};
use feisu_exec::aggregate::{transport_hashes, AggTable, Routes};
use feisu_exec::batch::RecordBatch;
use feisu_exec::MemProvider;
use feisu_format::{Column, DataType, Field, Schema, Value};
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::plan::AggExpr;
use feisu_storage::auth::Credential;
use feisu_tests::{assert_same_rows, clicks_schema, rows_to_batch};
use proptest::prelude::*;

/// A cluster with custom grid/merge-tree settings plus its oracle twin.
struct Fx {
    cluster: FeisuCluster,
    oracle: MemProvider,
    cred: Credential,
}

fn build(
    (dcs, racks, npr): (u32, u32, u32),
    per_stem: usize,
    parts: usize,
    rows: &[Vec<Value>],
) -> Fx {
    let mut spec = ClusterSpec::small();
    spec.datacenters = dcs;
    spec.racks_per_dc = racks;
    spec.nodes_per_rack = npr;
    spec.rows_per_block = 16; // many blocks → many leaf tasks
    spec.config.leaves_per_stem = per_stem;
    spec.config.merge_tree.exchange_partitions = parts;
    // Mirror `fixture_with`: CI pins the pool width via env to prove
    // thread-count independence; explicit specs win.
    if spec.config.execution_threads == 0 {
        if let Ok(v) = std::env::var("FEISU_EXECUTION_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                spec.config.execution_threads = n;
            }
        }
    }
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    cluster
        .create_table("clicks", clicks_schema(), "/hdfs/warehouse/clicks", &cred)
        .expect("create table");
    cluster
        .ingest_rows("clicks", rows.to_vec(), &cred)
        .expect("ingest");
    let mut oracle = MemProvider::new();
    oracle.insert("clicks", rows_to_batch(&clicks_schema(), rows));
    Fx {
        cluster,
        oracle,
        cred,
    }
}

fn arb_clicks_row() -> impl Strategy<Value = Vec<Value>> {
    ((0..12i64, -50..50i64), 0..10i64, 0..8i64, 0..6i64).prop_map(|((g, v), null_die, s, d)| {
        vec![
            Value::from(format!("https://u{g}.example/p{}", g % 3)),
            Value::from(["map", "music", "news", "stock"][(g % 4) as usize]),
            // Roughly one null click value in ten.
            if null_die == 0 {
                Value::Null
            } else {
                Value::from(v)
            },
            Value::from(s as f64 / 4.0),
            Value::from(20160101 + d),
        ]
    })
}

/// Grid shapes giving merge trees of depth 2 (one rack: rack stem →
/// master), 3 (two racks in one DC) and 4 (two DCs), counting the leaf
/// level.
const GRIDS: [(u32, u32, u32); 3] = [(1, 1, 4), (1, 2, 2), (2, 2, 1)];

/// Stem fan-in caps. The grids' ≤ 13 tasks fit one stem at the default
/// 64, so a grouped aggregate's depth is priced there and may be flat; at
/// 1 and 2 the root cannot take every leaf, so stems must run.
const PER_STEM: [usize; 3] = [1, 2, 64];

const QUERIES: [&str; 4] = [
    "SELECT keyword, COUNT(*), SUM(clicks), AVG(score), MIN(clicks), MAX(clicks) \
     FROM clicks GROUP BY keyword",
    "SELECT url, COUNT(*), SUM(clicks) FROM clicks GROUP BY url",
    "SELECT COUNT(*), SUM(clicks), AVG(clicks), MIN(score), MAX(score) FROM clicks",
    "SELECT day, MIN(clicks), MAX(clicks), COUNT(*) FROM clicks GROUP BY day",
];

/// 12 cases per property, or `PROPTEST_CASES` when it is set (the CI
/// script runs 2048 in release: the tree's depth depends on the data).
fn cases() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(12),
    }
}

proptest! {
    #![proptest_config(cases())]

    /// The multi-level partitioned merge tree computes exactly what a
    /// single-node executor computes, for every tree depth and
    /// partition count.
    #[test]
    fn partitioned_merge_tree_matches_single_node(
        rows in proptest::collection::vec(arb_clicks_row(), 1..200),
        shape_idx in 0..GRIDS.len() * PER_STEM.len(),
        parts in 1..=8usize,
        query_idx in 0..QUERIES.len(),
    ) {
        let sql = QUERIES[query_idx];
        let (grid, per_stem) = (GRIDS[shape_idx % GRIDS.len()], PER_STEM[shape_idx / GRIDS.len()]);
        let mut fx = build(grid, per_stem, parts, &rows);
        let got = fx.cluster.query(sql, &fx.cred).expect("cluster query");
        let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle).expect("oracle");
        assert_same_rows(&got.batch, &want, sql);
    }

    /// Integer aggregates are bit-identical across partition counts and
    /// fan-in caps, so whatever depth is priced — the
    /// `exchange_partitions = 1` arm (no exchange) at the default cap is
    /// the reference — and equal the oracle's (integer state merging is
    /// exact and order-free; float partials may re-associate).
    #[test]
    fn integer_answers_identical_across_partition_counts(
        rows in proptest::collection::vec(arb_clicks_row(), 1..150),
        grid_idx in 0..GRIDS.len(),
    ) {
        let sql = "SELECT keyword, COUNT(*), SUM(clicks), MIN(clicks), MAX(clicks) \
                   FROM clicks GROUP BY keyword";
        let grid = GRIDS[grid_idx];
        let mut baseline = build(grid, 64, 1, &rows);
        let want = baseline.cluster.query(sql, &baseline.cred).expect("no exchange").batch;
        let oracle = feisu_exec::executor::run_sql(sql, &mut baseline.oracle).expect("oracle");
        assert_same_rows(&want, &oracle, sql);
        for (per_stem, parts) in [(64, 3usize), (64, 8), (1, 3), (2, 8)] {
            let fx = build(grid, per_stem, parts, &rows);
            let got = fx.cluster.query(sql, &fx.cred).expect("exchange").batch;
            prop_assert_eq!(&got, &want, "per_stem={} parts={}", per_stem, parts);
        }
    }
}

type Shape = (Vec<(Expr, String, DataType)>, Vec<AggExpr>);

/// `SUM(v)`, `COUNT(*)` and `MIN(v)`, all Int64, grouped by `g` or not.
fn shape(grouped: bool) -> Shape {
    let agg = |func, arg: Option<&str>, name: &str| AggExpr {
        func,
        arg: arg.map(Expr::col),
        name: name.into(),
        output_type: DataType::Int64,
    };
    let group_by = (Some((Expr::col("g"), "g".into(), DataType::Int64))).filter(|_| grouped);
    (
        group_by.into_iter().collect(),
        vec![
            agg(AggFunc::Sum, Some("v"), "SUM(v)"),
            agg(AggFunc::Count, None, "COUNT(*)"),
            agg(AggFunc::Min, Some("v"), "MIN(v)"),
        ],
    )
}

/// The grouped shape.
fn exchange_shape() -> Shape {
    shape(true)
}

/// One transport a merger may be handed: `kind` 0 is a table's fold of
/// `rows` (no rows: the zero-row transport a skipped block ships), 1 a
/// zero-row batch in the transport's types under other names, 2 one whose
/// first column is Float64 and 3 one short of a column (both malformed).
fn exchange_transport(kind: u8, rows: &[(i64, i64)]) -> RecordBatch {
    transport(exchange_shape(), kind, rows)
}

/// [`exchange_transport`] in any shape.
fn transport((group_by, aggregates): Shape, kind: u8, rows: &[(i64, i64)]) -> RecordBatch {
    let mut table = AggTable::new(group_by, aggregates);
    let input = Schema::new(vec![
        Field::new("g", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ]);
    let columns = vec![
        Column::from_i64(rows.iter().map(|r| r.0).collect()),
        Column::from_i64(rows.iter().map(|r| r.1).collect()),
    ];
    table
        .update(&RecordBatch::new(input, columns).unwrap())
        .unwrap();
    let good = table.to_transport().unwrap();
    let fields = good.schema().fields();
    let renamed = |i: usize, f: &Field, dt| Field::new(format!("x{i}"), dt, f.nullable);
    let schema: Vec<Field> = match kind {
        0 => return good,
        1 => (fields.iter().enumerate())
            .map(|(i, f)| renamed(i, f, f.data_type))
            .collect(),
        2 => (fields.iter().enumerate())
            .map(|(i, f)| match i {
                0 => renamed(i, f, DataType::Float64),
                _ => f.clone(),
            })
            .collect(),
        _ => (fields[1..].iter().enumerate())
            .map(|(i, f)| renamed(i, f, f.data_type))
            .collect(),
    };
    RecordBatch::empty(Schema::new(schema))
}

/// Every child folded, as the merger did before it skipped any: a leaf
/// transport, and each child shipping the shared zero state, by its key
/// hashes.
fn fold_every_child(
    shape: AggShape<'_>,
    children: &[ExchangeChild<'_>],
    part: usize,
    parts: usize,
) -> Result<(RecordBatch, usize)> {
    let mut acc = AggTable::new(shape.0.to_vec(), shape.1.to_vec());
    let mut folded = 0;
    for child in children {
        let mut leaf = |batch: &RecordBatch| {
            let hashes = transport_hashes(batch, shape.0.len());
            acc.merge_transport_hashed(batch, &hashes, part, parts)
        };
        folded += match *child {
            ExchangeChild::Routed(batch, _) => leaf(batch)?,
            ExchangeChild::Zero(zero, _) => leaf(zero)?,
            ExchangeChild::Parted(batches) if batches.len() == parts => {
                acc.merge_transport(&batches[part])?
            }
            ExchangeChild::Parted(_) => return Err(FeisuError::Internal("bad child".into())),
        };
    }
    Ok((acc.to_transport()?, folded))
}

/// The merger's answer, rows folded and any error against folding every
/// child.
fn same_as_folding_every_child(
    shape: AggShape<'_>,
    children: &[ExchangeChild<'_>],
    (part, parts): (usize, usize),
) -> std::result::Result<(), TestCaseError> {
    let got = merge_exchange_partition(shape, children, part, parts);
    let want = fold_every_child(shape, children, part, parts);
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
        (Err(got), Err(want)) => {
            prop_assert!(matches!(got, FeisuError::Corrupt(_)), "{:?}", got);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        (got, want) => prop_assert!(false, "got {:?}, folding every child {:?}", got, want),
    }
    Ok(())
}

fn arb_exchange_child() -> impl Strategy<Value = Vec<(u8, Vec<(i64, i64)>)>> {
    let rows = proptest::collection::vec((0..16i64, -20..20i64), 0..12);
    // Mostly well-formed transports, many of them zero-row.
    let kind = (0..12u8).prop_map(|k| k.saturating_sub(8));
    let transport = (kind, 0..3u8, rows).prop_map(|(kind, empty, rows)| match (kind, empty) {
        (0, 0) => (0, Vec::new()),
        (0, _) => (0, rows),
        (kind, _) => (kind, Vec::new()),
    });
    proptest::collection::vec(transport, 1..4)
}

proptest! {
    #![proptest_config(cases())]

    /// One partition merger over leaf children (one transport each, every
    /// other zero-row one the scan's shared zero state) and exchange
    /// children (`parts` transports each), zero-row ones among them: the
    /// merged transport, the rows folded and any error equal folding every
    /// child.
    #[test]
    fn zero_row_children_change_nothing(
        children in proptest::collection::vec(arb_exchange_child(), 1..6),
        parts in 1..=4usize,
        part_seed in 0..4usize,
    ) {
        let (group_by, aggregates) = exchange_shape();
        let shape: AggShape<'_> = (&group_by, &aggregates);
        let part = part_seed % parts;
        // A child of one transport is a leaf; of more, `parts` of them.
        let batches: Vec<Vec<RecordBatch>> = (children.iter())
            .map(|c| match c.len() {
                1 => vec![exchange_transport(c[0].0, &c[0].1)],
                _ => (0..parts)
                    .map(|p| {
                        let (kind, rows) = &c[p % c.len()];
                        exchange_transport(*kind, rows)
                    })
                    .collect(),
            })
            .collect();
        let routes: Vec<Routes> = (batches.iter())
            .map(|b| Routes::new(&b[0], 1, parts))
            .collect();
        let zero = exchange_transport(0, &[]);
        let zero_routes = Routes::new(&zero, 1, parts);
        let exchange: Vec<ExchangeChild<'_>> = (batches.iter().zip(&routes).zip(&children))
            .enumerate()
            .map(|(i, ((b, routes), c))| match &b[..] {
                [_] if c[0] == (0, Vec::new()) && i % 2 == 0 => {
                    ExchangeChild::Zero(&zero, &zero_routes)
                }
                [one] => ExchangeChild::Routed(one, routes),
                parted => ExchangeChild::Parted(parted),
            })
            .collect();
        same_as_folding_every_child(shape, &exchange, (part, parts))?;
    }

    /// One partition merger over a global aggregate's leaf children, many
    /// of them the shared one-row zero state, which it counts and does not
    /// fold, beside others of the same value that are not it, well-formed
    /// folds of rows and malformed transports: the merged transport, the
    /// rows folded and any error equal folding every child.
    #[test]
    fn zero_state_children_change_nothing(
        children in proptest::collection::vec(arb_global_child(), 1..8),
        parts in 1..=4usize,
        part_seed in 0..4usize,
    ) {
        let global = shape(false);
        let (group_by, aggregates) = global.clone();
        let agg_shape: AggShape<'_> = (&group_by, &aggregates);
        let part = part_seed % parts;
        let zero = AggTable::new(group_by.clone(), aggregates.clone()).into_transport().unwrap();
        let zero_routes = Routes::new(&zero, 0, parts);
        // `None`: the shared zero state.
        let batches: Vec<Option<RecordBatch>> = (children.iter())
            .map(|(kind, rows)| kind.map(|kind| transport(global.clone(), kind, rows)))
            .collect();
        let routes: Vec<Routes> = (batches.iter())
            .map(|b| b.as_ref().map_or_else(Routes::default, |b| Routes::new(b, 0, parts)))
            .collect();
        let exchange: Vec<ExchangeChild<'_>> = (batches.iter().zip(&routes))
            .map(|(b, routes)| match b {
                Some(b) => ExchangeChild::Routed(b, routes),
                None => ExchangeChild::Zero(&zero, &zero_routes),
            })
            .collect();
        same_as_folding_every_child(agg_shape, &exchange, (part, parts))?;
    }
}

/// A global aggregate's leaf child: mostly the shared zero state (`None`),
/// else a transport of [`transport`]'s kinds, often of no rows.
fn arb_global_child() -> impl Strategy<Value = (Option<u8>, Vec<(i64, i64)>)> {
    let rows = proptest::collection::vec((0..16i64, -20..20i64), 0..6);
    (0..16u8, rows).prop_map(|(k, rows)| match k {
        0..=7 => (None, Vec::new()),
        8..=12 => (Some(0), rows.into_iter().filter(|_| k > 9).collect()),
        k => (Some(k - 12), Vec::new()),
    })
}

/// The property cases hold both tree shapes: over the same rows, some
/// grid and fan-in cap merge a GROUP BY at the master alone and some
/// through stems, and every one answers what the oracle answers.
#[test]
fn cases_hold_flat_and_stemmed_trees() {
    let rows = feisu_tests::clicks_rows(200);
    let sql = "SELECT url, COUNT(*), SUM(clicks) FROM clicks GROUP BY url";
    let (mut flat, mut stemmed) = (0, 0);
    for grid in GRIDS {
        for per_stem in PER_STEM {
            let mut fx = build(grid, per_stem, 4, &rows);
            let got = fx.cluster.query(sql, &fx.cred).expect("cluster query");
            let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle).expect("oracle");
            assert_same_rows(&got.batch, &want, sql);
            match got.profile.tree.find_all("stem").is_empty() {
                true => flat += 1,
                false => stemmed += 1,
            }
        }
    }
    assert!(flat > 0 && stemmed > 0, "flat {flat}, stemmed {stemmed}");
}

/// Serial and 8-thread runs are bit-identical — results, stats, wire
/// bytes and response times — with the exchange enabled.
#[test]
fn serial_vs_concurrent_bit_identity_with_exchange() {
    let rows: Vec<Vec<Value>> = feisu_tests::clicks_rows(500);
    let sql = "SELECT url, COUNT(*), SUM(clicks), AVG(score) FROM clicks GROUP BY url";
    let mut results = Vec::new();
    for threads in [1usize, 8] {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 16;
        spec.config.execution_threads = threads;
        spec.config.merge_tree.exchange_partitions = 4;
        let fx = {
            let cluster = FeisuCluster::new(spec).expect("cluster");
            let user = cluster.register_user("tester");
            cluster.grant_all(user);
            let cred = cluster.login(user).expect("login");
            cluster
                .create_table("clicks", clicks_schema(), "/hdfs/warehouse/clicks", &cred)
                .expect("create table");
            cluster
                .ingest_rows("clicks", rows.clone(), &cred)
                .expect("ingest");
            (cluster, cred)
        };
        results.push(fx.0.query(sql, &fx.1).expect("query"));
    }
    let (serial, pooled) = (&results[0], &results[1]);
    assert_eq!(
        serial, pooled,
        "serial and 8-thread runs must be bit-identical"
    );
    assert!(
        serial.stats.wire_stem_master.0 > 0,
        "wire accounting recorded"
    );
}

/// A ~2k-group Utf8 GROUP BY — the shape whose merges the columnar key
/// layer carries — answers the same with and without the exchange, and is
/// identical in everything (answer, stats, response time, profile) at any
/// pool width.
#[test]
fn high_cardinality_utf8_group_by_is_partition_and_thread_invariant() {
    let rows: Vec<Vec<Value>> = (0..6000usize)
        .map(|i| {
            let mut row = feisu_tests::clicks_rows(1).remove(0);
            row[0] = Value::from(format!("https://site{}.example/p/{}", i % 2003, i % 7));
            row[2] = Value::from((i * 13 % 100) as i64);
            row
        })
        .collect();
    let sql = "SELECT url, COUNT(*), SUM(clicks), MIN(clicks), MAX(day) FROM clicks GROUP BY url";
    let run = |threads: usize, parts: usize| {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 256;
        spec.config.execution_threads = threads;
        spec.config.merge_tree.exchange_partitions = parts;
        let cluster = FeisuCluster::new(spec).expect("cluster");
        let user = cluster.register_user("tester");
        cluster.grant_all(user);
        let cred = cluster.login(user).expect("login");
        cluster
            .create_table("clicks", clicks_schema(), "/hdfs/warehouse/clicks", &cred)
            .expect("create table");
        cluster
            .ingest_rows("clicks", rows.clone(), &cred)
            .expect("ingest");
        cluster.query(sql, &cred).expect("query")
    };
    let serial = run(1, 4);
    assert!(serial.batch.rows() > 2000, "{} groups", serial.batch.rows());
    for threads in [2usize, 8] {
        assert_eq!(run(threads, 4), serial, "execution_threads={threads}");
    }
    assert_eq!(run(1, 1).batch, serial.batch, "exchange_partitions 1 vs 4");
    let mut oracle = MemProvider::new();
    oracle.insert("clicks", rows_to_batch(&clicks_schema(), &rows));
    let want = feisu_exec::executor::run_sql(sql, &mut oracle).expect("oracle");
    assert_same_rows(&serial.batch, &want, sql);
}

/// Satellite: hop billing comes from the real topology. The same query
/// over the same data on the same number of nodes must cost strictly
/// more when the nodes straddle two data centers than when they share a
/// rack — cross-DC uplinks are 6 hops, intra-rack 2.
#[test]
fn two_dc_grid_bills_more_network_than_single_rack() {
    let rows = feisu_tests::clicks_rows(400);
    let sql = "SELECT url, COUNT(*), SUM(clicks) FROM clicks GROUP BY url";
    let mut responses = Vec::new();
    for (dcs, racks, npr) in [(1u32, 1u32, 4u32), (2, 1, 2)] {
        let mut spec = ClusterSpec::small();
        spec.datacenters = dcs;
        spec.racks_per_dc = racks;
        spec.nodes_per_rack = npr;
        spec.rows_per_block = 16;
        // Every node holds every block, so scheduling (and thus leaf io)
        // is identical across the two grids; only merge-tree network and
        // shape differ.
        spec.config.replication_factor = 4;
        // Make network dominate any cpu-billing difference between the
        // two tree shapes.
        spec.cost.net_hop_latency = SimDuration::nanos(500_000);
        spec.cost.net_ns_per_byte = 100.0;
        let cluster = FeisuCluster::new(spec).expect("cluster");
        let user = cluster.register_user("tester");
        cluster.grant_all(user);
        let cred = cluster.login(user).expect("login");
        cluster
            .create_table("clicks", clicks_schema(), "/hdfs/warehouse/clicks", &cred)
            .expect("create table");
        cluster
            .ingest_rows("clicks", rows.clone(), &cred)
            .expect("ingest");
        let r = cluster.query(sql, &cred).expect("query");
        responses.push(r);
    }
    assert_same_rows(
        &responses[0].batch,
        &responses[1].batch,
        "same answers on both grids",
    );
    assert!(
        responses[1].response_time > responses[0].response_time,
        "2-DC grid must bill more network than 1 rack: {} vs {}",
        responses[1].response_time,
        responses[0].response_time
    );
}

/// Satellite: the straggler-limit clamp. When partial results are
/// returned, leaf time is pinned *exactly* at the limit — raising the
/// limit by a delta small enough to keep the same kept-task set raises
/// the response by exactly that delta.
#[test]
fn straggler_limit_pins_leaf_time_exactly() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.rows_per_block = 16;
    let fx = feisu_tests::fixture_with(600, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT COUNT(*) FROM clicks";
    let full = fx.cluster.query(sql, &fx.cred).expect("full");
    let l1 = SimDuration::nanos(full.response_time.as_nanos() / 2);
    let delta = SimDuration::nanos(1_000);
    let l2 = l1 + delta;
    let run = |limit| {
        fx.cluster
            .query_with(
                sql,
                &fx.cred,
                &QueryOptions {
                    processed_ratio: 0.1,
                    time_limit: Some(limit),
                },
            )
            .expect("limited query")
    };
    let r1 = run(l1);
    let r2 = run(l2);
    assert!(r1.partial && r2.partial, "both runs must be partial");
    assert_eq!(
        r1.stats.processed_ratio, r2.stats.processed_ratio,
        "delta chosen small enough to keep the same kept-task set"
    );
    assert_eq!(r1.batch, r2.batch, "same kept tasks, same answer");
    assert_eq!(
        r2.response_time.as_nanos() - r1.response_time.as_nanos(),
        delta.as_nanos(),
        "leaf time is clamped to exactly the limit"
    );
}
