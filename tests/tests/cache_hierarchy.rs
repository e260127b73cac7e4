//! The multi-tier block cache through the engine surface: ingest
//! invalidation (stale bytes must never be served), session quota
//! wiring, and the cache-transparency property — cache-on and cache-off
//! clusters answer every query identically.

use feisu_common::rng::DetRng;
use feisu_common::ByteSize;
use feisu_core::engine::ClusterSpec;
use feisu_format::{Block, Column, DataType, Value};
use feisu_tests::{clicks_schema, fixture_with};
use proptest::prelude::*;

/// A two-tier spec that admits everything (a pin on the root prefix),
/// with task reuse and the SmartIndex off so repeat queries really
/// re-read their blocks.
fn two_tier_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.config.cache.enabled = true;
    spec.cache_pins = vec!["/".to_string()];
    spec
}

/// Regression for the stale-read bug: before path-keyed invalidation,
/// rewriting a block left its old bytes in the per-node caches and a
/// re-query served the *previous* contents. A rewrite through the
/// router (the single ingest choke point) must drop every cached copy,
/// and the next query must see the new data.
#[test]
fn rewrite_through_router_invalidates_every_cached_block() {
    let fx = fixture_with(120, two_tier_spec(), "/hdfs/warehouse/clicks");
    let sql = "SELECT SUM(clicks) FROM clicks";
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(cold.batch, warm.batch, "warm run must agree before rewrite");
    assert!(
        fx.cluster.metrics().counter("feisu.cache.ssd.hits").get() > 0,
        "the warm run must actually be cache-served"
    );

    // Rewrite every block in place with clicks the constant 1 —
    // SUM(clicks) is then exactly the table's row count.
    let (blocks, total_rows) = rewrite_every_block(&fx, 1);

    let fresh = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(
        fresh.batch.column(0).value(0),
        Value::Int64(total_rows),
        "query after rewrite must see the new bytes, not the cached ones"
    );
    // Every warm block held a cached copy somewhere; each rewrite
    // dropped at least one.
    assert!(
        fx.cluster
            .metrics()
            .counter("feisu.cache.invalidations")
            .get()
            >= blocks,
        "rewrites must invalidate each cached block"
    );
}

/// The same for resident footers, which decide a zone-map skip without
/// reading the block at all: a footer that outlived a rewrite would keep
/// skipping a block whose new rows match. Runs, like the test above, with
/// the SmartIndex and task reuse off — those two caches are keyed by
/// block id, survive an in-place rewrite, and are not what is tested here.
#[test]
fn rewrite_through_router_drops_every_resident_footer() {
    let fx = fixture_with(120, two_tier_spec(), "/hdfs/warehouse/clicks");
    let metrics = fx.cluster.metrics();
    // Ingested clicks are below 100: every block's zone map disproves this.
    let sql = "SELECT COUNT(*) FROM clicks WHERE clicks > 5000";
    let count = |r: &feisu_core::engine::QueryResult| r.batch.column(0).value(0);
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    let blocks = cold.stats.tasks;
    assert_eq!(count(&warm), Value::Int64(0));
    assert_eq!(
        (cold.stats.blocks_skipped, cold.stats.memory_served_tasks),
        (blocks, 0)
    );
    assert_eq!(
        (warm.stats.blocks_skipped, warm.stats.memory_served_tasks),
        (blocks, blocks)
    );
    assert_eq!(
        warm.stats.bytes_read,
        ByteSize::ZERO,
        "footers are resident"
    );

    // Skipped -> rewritten -> must now be read: every row matches.
    let (rewritten, total_rows) = rewrite_every_block(&fx, 9000);
    assert_eq!(rewritten, blocks as u64);
    assert!(metrics.counter("feisu.meta.invalidations").get() >= rewritten);
    let fresh = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(
        count(&fresh),
        Value::Int64(total_rows),
        "a stale footer skipped new rows"
    );
    assert_eq!(
        (fresh.stats.blocks_scanned, fresh.stats.blocks_skipped),
        (blocks, 0)
    );

    // Scanned -> rewritten -> must now be skipped, from the new footers:
    // read once, resident after.
    rewrite_every_block(&fx, 1);
    assert!(metrics.counter("feisu.meta.invalidations").get() >= 2 * rewritten);
    let first = fx.cluster.query(sql, &fx.cred).unwrap();
    let again = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(
        (count(&first), count(&again)),
        (Value::Int64(0), Value::Int64(0))
    );
    assert_eq!(
        (first.stats.blocks_skipped, first.stats.memory_served_tasks),
        (blocks, 0)
    );
    assert_eq!(
        (again.stats.blocks_skipped, again.stats.memory_served_tasks),
        (blocks, blocks)
    );
}

/// Rewrites every block of `clicks` in place through the router: same
/// paths, same row counts, `clicks` the constant given. Returns the block
/// and row counts.
fn rewrite_every_block(fx: &feisu_tests::Fixture, clicks: i64) -> (u64, i64) {
    let desc = fx.cluster.catalog().table("clicks").unwrap();
    let blocks = &desc.partitions[0].blocks;
    let schema = clicks_schema();
    let mut total_rows = 0i64;
    for b in blocks {
        total_rows += b.rows as i64;
        let n = b.rows;
        let cols = vec![
            Column::from_utf8(
                (0..n)
                    .map(|j| format!("https://rewrite.example/{j}"))
                    .collect(),
            ),
            Column::from_utf8((0..n).map(|_| "map".to_string()).collect()),
            Column::from_values(DataType::Int64, &vec![Value::Int64(clicks); n]).unwrap(),
            Column::from_f64(vec![0.5; n]),
            Column::from_i64(vec![20160101; n]),
        ];
        let block = Block::new(b.id, schema.clone(), cols).unwrap();
        fx.cluster
            .router()
            .write(
                &b.path,
                block.serialize().into(),
                None,
                &fx.cred,
                fx.cluster.now(),
            )
            .expect("in-place rewrite");
    }
    (blocks.len() as u64, total_rows)
}

/// Session-level quota wiring end to end: a zero-quota user's reads are
/// never admitted (and never served stale), and lifting the quota
/// restores normal caching for the same session.
#[test]
fn session_zero_quota_blocks_admission_until_lifted() {
    let fx = fixture_with(120, two_tier_spec(), "/hdfs/warehouse/clicks");
    let session = fx.cluster.session(fx.cred.clone());
    session.set_cache_quota(Some(ByteSize(0)));

    let sql = "SELECT SUM(clicks) FROM clicks";
    let a = session.query(sql).unwrap();
    let b = session.query(sql).unwrap();
    assert_eq!(a.batch, b.batch);
    let stats = fx.cluster.cache().unwrap().stats();
    assert_eq!(stats.hits(), 0, "zero-quota user must never hit: {stats:?}");
    assert!(
        stats.quota_rejections > 0,
        "admissions must be quota-rejected"
    );

    // Back to the configured default (unlimited here): the ladder works.
    session.set_cache_quota(None);
    let c = session.query(sql).unwrap();
    let d = session.query(sql).unwrap();
    assert_eq!(a.batch, c.batch);
    assert_eq!(a.batch, d.batch);
    let stats = fx.cluster.cache().unwrap().stats();
    assert!(stats.hits() > 0, "lifted quota must cache again: {stats:?}");
}

/// A tiny random workload generator over the fixture's clicks table.
fn random_queries(rng: &mut DetRng, n: usize) -> Vec<String> {
    let mut queries = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let q = match rng.next_below(5) {
            0 => format!(
                "SELECT COUNT(*) FROM clicks WHERE clicks > {}",
                rng.range_i64(0, 99)
            ),
            1 => "SELECT SUM(clicks) FROM clicks".to_string(),
            2 => format!(
                "SELECT url FROM clicks WHERE score < 0.{}",
                rng.next_below(10)
            ),
            3 => format!(
                "SELECT url, clicks FROM clicks WHERE clicks >= {}",
                rng.range_i64(0, 99)
            ),
            _ => format!(
                "SELECT keyword FROM clicks WHERE day = {}",
                20160101 + rng.range_i64(0, 3)
            ),
        };
        queries.push(q);
    }
    // Repeat the whole list so the second pass runs against warm tiers.
    let again = queries.clone();
    queries.extend(again);
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Cache transparency: a cluster with a deliberately *starved*
    /// hierarchy (tiny tiers, tiny ghost — constant admission,
    /// promotion, demotion and eviction churn) must
    /// return bit-identical result batches to a cluster with no cache
    /// at all, for every query of a random workload. Only simulated
    /// times and served-from tiers may differ.
    #[test]
    fn random_workload_cache_on_equals_cache_off(
        seed in any::<u64>(),
        rows in 48usize..160,
    ) {
        let mut rng = DetRng::new(seed);
        let queries = random_queries(&mut rng, 6);

        let mut on = two_tier_spec();
        on.cache_pins.clear(); // ghost admission decides
        on.config.cache.mem_capacity_per_node = ByteSize(8 * 1024);
        on.config.cache.ssd_capacity_per_node = ByteSize(16 * 1024);
        on.config.cache.ghost_capacity = 8;
        let mut off = ClusterSpec::small();
        off.task_reuse = false;
        off.use_smartindex = false;
        prop_assert!(!off.config.cache.enabled);

        let fx_on = fixture_with(rows, on, "/hdfs/warehouse/clicks");
        let fx_off = fixture_with(rows, off, "/hdfs/warehouse/clicks");
        for sql in &queries {
            let a = fx_on.cluster.query(sql, &fx_on.cred).unwrap();
            let b = fx_off.cluster.query(sql, &fx_off.cred).unwrap();
            prop_assert_eq!(&a.batch, &b.batch, "cache changed results for `{}`", sql);
        }
    }
}
