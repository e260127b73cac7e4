//! End-to-end observability: per-query EXPLAIN ANALYZE profiles and the
//! cluster-wide metrics registry must agree with the `QueryStats` the
//! engine returns.

use feisu_common::{ByteSize, SimDuration};
use feisu_core::engine::{ClusterSpec, QueryOptions, QueryStats};
use feisu_tests::{fixture, fixture_with};

#[test]
fn profile_renders_master_stem_leaf_tree() {
    // Two leaves per stem, so a row scan's fan-in needs stems.
    let mut spec = ClusterSpec::small();
    spec.config.leaves_per_stem = 2;
    let fx = fixture_with(500, spec, "/hdfs/warehouse/clicks");
    let r = fx
        .cluster
        .query("SELECT url FROM clicks WHERE clicks > 50", &fx.cred)
        .unwrap();
    let tree = &r.profile.tree;
    assert_eq!(tree.roots.len(), 1, "exactly one master root");
    assert_eq!(tree.roots[0].name, "master");
    assert!(
        tree.max_depth() >= 3,
        "master -> stem -> leaf_task expected, depth {}",
        tree.max_depth()
    );
    let stems = tree.find_all("stem");
    assert!(!stems.is_empty(), "at least one stem span");
    for stem in &stems {
        assert!(!stem.children.is_empty(), "stems adopt their leaf spans");
    }
    let leaves = tree.find_all("leaf_task");
    assert_eq!(leaves.len(), r.stats.tasks, "one span per leaf task");
    // The master span covers the full response on the relative timeline.
    assert_eq!(tree.roots[0].duration(), r.response_time);

    let text = r.profile.render();
    assert!(text.starts_with("EXPLAIN ANALYZE query "), "{text}");
    assert!(text.contains("smartindex: hits"), "{text}");
    assert!(text.contains("bytes read"), "{text}");
    assert!(text.contains("hdfs="), "per-backend bytes: {text}");
    assert!(text.contains("└─"), "tree rendering: {text}");
}

#[test]
fn registry_counters_mirror_query_stats() {
    let fx = fixture(400);
    let registry = fx.cluster.metrics().clone();
    let mut expect = QueryStats::default();
    let mut queries = 0u64;
    for sql in [
        "SELECT url FROM clicks WHERE clicks > 50",
        "SELECT COUNT(*) FROM clicks WHERE keyword = 'map'",
        "SELECT url, score FROM clicks WHERE score < 0.4",
    ] {
        let r = fx.cluster.query(sql, &fx.cred).unwrap();
        expect.merge(&r.stats);
        queries += 1;
    }
    assert_eq!(registry.counter("feisu.query.count").get(), queries);
    assert_eq!(registry.counter("feisu.query.errors").get(), 0);
    assert_eq!(
        registry.counter("feisu.task.count").get(),
        expect.tasks as u64
    );
    assert_eq!(
        registry.counter("feisu.task.reused").get(),
        expect.reused_tasks as u64
    );
    assert_eq!(
        registry.counter("feisu.task.bytes_read").get(),
        expect.bytes_read.0
    );
    assert_eq!(
        registry.counter("feisu.task.memory_served").get(),
        expect.memory_served_tasks as u64
    );
    assert_eq!(
        registry.histogram("feisu.query.response_ns").count(),
        queries
    );
    // Subsystem counters feed the same registry: SmartIndex totals agree
    // with the per-leaf stats roll-up.
    let idx = fx.cluster.index_stats();
    assert_eq!(registry.counter("feisu.index.hits").get(), idx.hits);
    assert_eq!(registry.counter("feisu.index.misses").get(), idx.misses);
    // The per-domain storage counters saw the ingest writes and scan reads.
    assert!(registry.counter("feisu.storage.hdfs.writes").get() > 0);
    assert!(registry.counter("feisu.storage.hdfs.reads").get() > 0);
}

#[test]
fn failed_queries_count_as_errors() {
    let fx = fixture(50);
    assert!(fx
        .cluster
        .query("SELECT nope FROM clicks", &fx.cred)
        .is_err());
    assert_eq!(fx.cluster.metrics().counter("feisu.query.errors").get(), 1);
}

#[test]
fn abandoned_tasks_mark_spans_and_drive_the_ratio() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    let fx = fixture_with(600, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT COUNT(*) FROM clicks";
    let full = fx.cluster.query(sql, &fx.cred).unwrap();
    assert!((full.stats.processed_ratio - 1.0).abs() < 1e-12);
    let opts = QueryOptions {
        processed_ratio: 0.2,
        time_limit: Some(SimDuration::nanos(full.response_time.as_nanos() / 2)),
    };
    let partial = fx.cluster.query_with(sql, &fx.cred, &opts).unwrap();
    assert!(partial.partial);
    let leaves = partial.profile.tree.find_all("leaf_task");
    let abandoned: Vec<_> = leaves
        .iter()
        .filter(|l| l.attr("abandoned").is_some())
        .collect();
    assert!(!abandoned.is_empty(), "some tasks must be abandoned");
    // The reported ratio is exactly (kept / total) from the span records.
    let want = (leaves.len() - abandoned.len()) as f64 / leaves.len() as f64;
    assert!(
        (partial.stats.processed_ratio - want).abs() < 1e-12,
        "{} vs {}",
        partial.stats.processed_ratio,
        want
    );
    assert!(partial.stats.processed_ratio < 1.0);
    assert_eq!(fx.cluster.metrics().counter("feisu.query.partial").get(), 1);
}

#[test]
fn cache_served_tasks_show_their_tier() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.cache_pins = vec!["/hdfs/".to_string()];
    let fx = fixture_with(400, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT url FROM clicks WHERE clicks > 10";
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    let tier_of = |r: &feisu_core::engine::QueryResult| {
        r.profile
            .tree
            .find("leaf_task")
            .and_then(|l| l.attr("tier"))
            .map(|v| v.to_string())
    };
    // Cold reads come from the owning domain (local replica or remote),
    // warm ones from the per-node SSD cache.
    let cold_tier = tier_of(&cold).expect("cold tier attr");
    assert!(
        cold_tier == "local_disk" || cold_tier == "remote",
        "cold tier: {cold_tier}"
    );
    assert_eq!(tier_of(&warm).as_deref(), Some("ssd_cache"));
    assert!(warm.profile.render().contains("ssd_cache="), "summary tier");
    let hits = fx.cluster.metrics().counter("feisu.cache.ssd.hits").get();
    assert!(hits > 0, "registry saw the cache hits");
}

#[test]
fn memory_tier_hits_show_their_own_tier() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.config.cache.enabled = true;
    spec.cache_pins = vec!["/".to_string()]; // admit on first sight
    let fx = fixture_with(400, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT url FROM clicks WHERE clicks > 10";
    let tier_of = |r: &feisu_core::engine::QueryResult| {
        r.profile
            .tree
            .find("leaf_task")
            .and_then(|l| l.attr("tier"))
            .map(|v| v.to_string())
    };
    // Miss → SSD admission → SSD hit (promotes) → memory hit, each step
    // strictly faster than the last.
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let ssd = fx.cluster.query(sql, &fx.cred).unwrap();
    let mem = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(tier_of(&ssd).as_deref(), Some("ssd_cache"));
    assert_eq!(tier_of(&mem).as_deref(), Some("mem_cache"));
    assert!(mem.profile.render().contains("mem_cache="), "summary tier");
    assert!(ssd.response_time < cold.response_time);
    assert!(mem.response_time < ssd.response_time);
    assert!(fx.cluster.metrics().counter("feisu.cache.mem.hits").get() > 0);
    assert!(fx.cluster.metrics().counter("feisu.cache.promotions").get() > 0);
    // The events of both cache-served queries count as cache-hit tasks.
    let log = fx.cluster.query_log().snapshot();
    let last = log.last().expect("logged");
    assert!(
        last.cache_hit_tasks > 0,
        "mem_cache tasks count as cache hits"
    );
}

/// A zone-map skip is billed by what it touched. On a node's first touch
/// of a block that is the footer, read from storage; the scanned blocks
/// beside the skips read only the columns of the clauses their zones do
/// not prove (the pinned numbers are what the engine reports for this
/// fixture and statement). On a repeat the footer is resident and the skip
/// is a memory-served task that reads nothing; the scanned tasks beside it
/// are billed as before.
#[test]
fn repeat_zone_skips_are_memory_served_and_first_touches_are_not() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    let fx = fixture_with(400, spec, "/hdfs/warehouse/clicks");
    // `day` is clustered: the three oldest of seven blocks are disproved.
    let sql = "SELECT url, clicks FROM clicks WHERE day >= 20160106 AND clicks > 10";
    let cold = fx.cluster.query(sql, &fx.cred).unwrap();
    let warm = fx.cluster.query(sql, &fx.cred).unwrap();
    assert_eq!(cold.batch, warm.batch);

    // Three of the four scanned blocks hold only days >= 20160106: their
    // zones prove that clause, so `day` is read on one block alone (the
    // parent read it on all four: 30_632_880 ns, 2,080 B).
    assert_eq!(cold.response_time.as_nanos(), 25_632_197);
    assert_eq!(cold.stats.bytes_read, ByteSize(1865));
    assert_eq!(cold.stats.proved_clauses, 3);
    let blocks_line = "blocks: 4 scanned, 3 skipped by zone maps, 3 clauses proved";
    assert!(cold.profile.render().contains(blocks_line));
    assert_eq!(
        (cold.stats.blocks_skipped, cold.stats.blocks_scanned),
        (3, 4)
    );
    assert_eq!(cold.stats.memory_served_tasks, 0);
    assert!(cold.profile.render().contains("served from: local_disk=7"));

    // (tier, bytes_read, extent) of every skipped leaf span.
    let skipped = |r: &feisu_core::engine::QueryResult| -> Vec<(String, String, u64)> {
        (r.profile.tree.find_all("leaf_task").iter())
            .filter(|l| {
                l.attr("blocks_skipped")
                    .is_some_and(|v| v.to_string() == "1")
            })
            .map(|l| {
                let attr = |k| l.attr(k).expect("attr").to_string();
                (attr("tier"), attr("bytes_read"), l.end.0 - l.start.0)
            })
            .collect()
    };
    let (first, repeat) = (skipped(&cold), skipped(&warm));
    assert_eq!((first.len(), repeat.len()), (3, 3));
    for (tier, bytes, _) in &first {
        assert_eq!((tier.as_str(), bytes.as_str()), ("local_disk", "207 B"));
    }
    for ((tier, bytes, took), (_, _, first_took)) in repeat.iter().zip(&first) {
        assert_eq!((tier.as_str(), bytes.as_str()), ("memory", "0 B"));
        assert!(took * 100 < *first_took, "a memory touch, not a disk seek");
    }
    assert_eq!(warm.stats.bytes_read, ByteSize(1865 - 3 * 207));
    assert_eq!(warm.stats.memory_served_tasks, 3);
    assert_eq!(
        (warm.stats.blocks_skipped, warm.stats.blocks_scanned),
        (3, 4)
    );
    assert!(warm
        .profile
        .render()
        .contains("served from: local_disk=4 memory=3"));
    assert!(warm.response_time <= cold.response_time);
    let metrics = fx.cluster.metrics();
    assert_eq!(metrics.counter("feisu.meta.misses").get(), 7);
    assert_eq!(metrics.counter("feisu.meta.hits").get(), 7);
    assert_eq!(metrics.counter("feisu.zone.proved_clauses").get(), 6);
}

#[test]
fn query_stats_merge_combines_counters_and_ratio() {
    let a = QueryStats {
        tasks: 6,
        reused_tasks: 1,
        bytes_read: feisu_common::ByteSize(100),
        processed_ratio: 1.0,
        ..QueryStats::default()
    };
    let mut acc = a;
    let b = QueryStats {
        tasks: 2,
        backup_tasks: 1,
        bytes_read: feisu_common::ByteSize(50),
        processed_ratio: 0.5,
        ..QueryStats::default()
    };
    acc.merge(&b);
    assert_eq!(acc.tasks, 8);
    assert_eq!(acc.reused_tasks, 1);
    assert_eq!(acc.backup_tasks, 1);
    assert_eq!(acc.bytes_read, feisu_common::ByteSize(150));
    // Weighted by task count: (1.0*6 + 0.5*2) / 8.
    assert!((acc.processed_ratio - 0.875).abs() < 1e-12);
    // Zero-task merges leave the ratio untouched.
    let mut c = acc;
    c.merge(&QueryStats::default());
    assert!((c.processed_ratio - 0.875).abs() < 1e-12);
}
