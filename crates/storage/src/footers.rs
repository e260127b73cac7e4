//! Resident block footers: `(node, path) → Arc<BlockMeta>`.
//!
//! A footer is a few KB, needed by every task over its block, and costs
//! tens of microseconds to parse; the block it describes is hundreds of
//! KB and may not fit the block cache at all. So each node keeps the
//! *parsed* footers of the blocks it has touched, next to (and
//! independent of) the byte cache — the split "Data Caching for
//! Enterprise-Grade Petabyte-Scale OLAP" (PAPERS.md) makes between file
//! metadata and file data. A leaf that finds a footer here can disprove
//! a predicate from its zone maps without reading the block.
//!
//! Always on, bounded per node by [`FOOTER_BYTES_PER_NODE`] with LRU
//! eviction (recency and bytes kept by [`feisu_common::lru::Lru`]), and
//! owned by the [`StorageRouter`](crate::StorageRouter), whose `write`
//! drops a path's footer on every node.
//!
//! One lock per node, at the node's topology index, sized when the cache
//! is built; an id outside the topology holds nothing. Staleness rule: a
//! footer parsed from bytes older than a write to its path is never
//! resident after that write returns. `fill_with` holds the node's lock
//! across *read + parse + insert*, and `invalidate` takes the same lock
//! after the bytes are in place — so a fill either read the new bytes, or
//! finishes before the invalidation that then removes it.

use crate::cache::CacheTierRow;
use feisu_cluster::Topology;
use feisu_common::lru::Lru;
use feisu_common::{NodeId, Result};
use feisu_format::BlockMeta;
use feisu_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-node bound on resident footers, charged by
/// [`BlockMeta::footprint`]: 1/64 of the default DRAM cache tier, room
/// for about 800 128-column footers (20.8 KB each).
pub const FOOTER_BYTES_PER_NODE: usize = 16 << 20;

/// One node's footers, each weighed by its footprint plus its path.
#[derive(Default)]
struct NodeFooters {
    slots: Lru<Arc<str>, Arc<BlockMeta>>,
    hits: u64,
    evictions: u64,
}

impl NodeFooters {
    fn touch(&mut self, path: &str) -> Option<Arc<BlockMeta>> {
        let meta = self.slots.get(path)?.clone();
        self.hits += 1;
        Some(meta)
    }

    fn insert(&mut self, path: &str, meta: Arc<BlockMeta>, capacity: usize) {
        self.slots.remove(path);
        let bytes = (meta.footprint() + path.len()) as u64;
        if bytes > capacity as u64 {
            return;
        }
        while self.slots.weight() + bytes > capacity as u64 {
            self.slots.pop_lru().expect("weight > 0 means a slot");
            self.evictions += 1;
        }
        self.slots.insert(path.into(), meta, bytes);
    }
}

pub struct FooterCache {
    capacity_per_node: usize,
    nodes: Vec<Mutex<NodeFooters>>,
    /// Lookups that found a resident footer, lookups that did not, and
    /// footers dropped because their path was written.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl FooterCache {
    /// The footers of `nodes` nodes, [`FOOTER_BYTES_PER_NODE`] each.
    pub(crate) fn new(nodes: usize) -> Self {
        FooterCache::with_capacity(FOOTER_BYTES_PER_NODE, nodes)
    }

    fn with_capacity(capacity_per_node: usize, nodes: usize) -> Self {
        FooterCache {
            capacity_per_node,
            nodes: (0..nodes).map(|_| Mutex::default()).collect(),
            hits: Arc::default(),
            misses: Arc::default(),
            invalidations: Arc::default(),
        }
    }

    /// Has `registry` expose the three counters as
    /// `feisu.meta.{hits,misses,invalidations}`.
    pub(crate) fn attach_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("feisu.meta.hits", self.hits.clone());
        registry.adopt_counter("feisu.meta.misses", self.misses.clone());
        registry.adopt_counter("feisu.meta.invalidations", self.invalidations.clone());
    }

    fn node(&self, node: NodeId) -> Option<&Mutex<NodeFooters>> {
        self.nodes.get(Topology::index(node))
    }

    /// The footer `node` holds for `path`, refreshing its recency.
    pub fn get(&self, node: NodeId, path: &str) -> Option<Arc<BlockMeta>> {
        let found = self.node(node).and_then(|n| n.lock().touch(path));
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Runs `read_and_parse` and keeps the footer it returns for `node`,
    /// all under the node's lock (see the module doc for why). An error,
    /// or a node outside the topology, leaves nothing behind.
    pub(crate) fn fill_with<T>(
        &self,
        node: NodeId,
        path: &str,
        read_and_parse: impl FnOnce() -> Result<(T, Arc<BlockMeta>)>,
    ) -> Result<(T, Arc<BlockMeta>)> {
        let Some(state) = self.node(node) else {
            return read_and_parse();
        };
        let mut state = state.lock();
        let (read, meta) = read_and_parse()?;
        state.insert(path, meta.clone(), self.capacity_per_node);
        Ok((read, meta))
    }

    /// Drops `node`'s footer for `path` (it failed to describe the bytes
    /// just read).
    pub(crate) fn forget(&self, node: NodeId, path: &str) {
        if let Some(n) = self.node(node) {
            n.lock().slots.remove(path);
        }
    }

    /// Drops `path`'s footer on every node. Call after the new bytes are
    /// in place.
    pub(crate) fn invalidate(&self, path: &str) {
        let dropped = (self.nodes.iter())
            .filter(|n| n.lock().slots.remove(path).is_some())
            .count();
        self.invalidations.add(dropped as u64);
    }

    /// `system.cache`'s `meta` row for one node.
    pub fn node_row(&self, node: NodeId) -> CacheTierRow {
        let state = self.node(node).map(|n| n.lock());
        CacheTierRow {
            tier: "meta",
            entries: state.as_ref().map_or(0, |n| n.slots.len()),
            used_bytes: state.as_ref().map_or(0, |n| n.slots.weight()),
            capacity_bytes: self.capacity_per_node as u64,
            hits: state.as_ref().map_or(0, |n| n.hits),
            evictions: state.as_ref().map_or(0, |n| n.evictions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::{BlockId, FeisuError};
    use feisu_format::{Block, Column, DataType, Field, Schema};

    fn footer(id: u64) -> Arc<BlockMeta> {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        let block = Block::new(BlockId(id), schema, vec![Column::from_i64(vec![1, 2, 3])]).unwrap();
        Arc::new(Block::read_meta(&block.serialize()).unwrap())
    }

    fn fill(c: &FooterCache, node: u64, path: &str, id: u64) {
        c.fill_with(NodeId(node), path, || Ok(((), footer(id))))
            .unwrap();
    }

    #[test]
    fn footers_are_per_node_and_dropped_everywhere_on_invalidate() {
        let registry = MetricsRegistry::new();
        let c = FooterCache::new(10);
        c.attach_metrics(&registry);
        assert!(c.get(NodeId(0), "/hdfs/t/b0").is_none());
        fill(&c, 0, "/hdfs/t/b0", 7);
        fill(&c, 1, "/hdfs/t/b0", 7);
        fill(&c, 1, "/hdfs/t/b1", 8);
        assert_eq!(c.get(NodeId(0), "/hdfs/t/b0").unwrap().id, BlockId(7));
        assert!(c.get(NodeId(0), "/hdfs/t/b1").is_none(), "node 1 only");
        c.invalidate("/hdfs/t/b0");
        assert!(c.get(NodeId(0), "/hdfs/t/b0").is_none());
        assert!(c.get(NodeId(1), "/hdfs/t/b0").is_none());
        assert!(c.get(NodeId(1), "/hdfs/t/b1").is_some());
        c.invalidate("/hdfs/t/never-seen");
        let counted = ["hits", "misses", "invalidations"]
            .map(|name| registry.counter(&format!("feisu.meta.{name}")).get());
        assert_eq!(counted, [2, 4, 2]);
        assert_eq!(c.node_row(NodeId(1)).entries, 1);
        let untouched = c.node_row(NodeId(9));
        assert_eq!((untouched.entries, untouched.used_bytes), (0, 0));
        assert_eq!(untouched.capacity_bytes, FOOTER_BYTES_PER_NODE as u64);
    }

    #[test]
    fn a_failed_fill_leaves_nothing_and_a_refill_replaces() {
        let c = FooterCache::new(1);
        let err = c.fill_with::<()>(NodeId(0), "/p", || Err(FeisuError::Corrupt("x".into())));
        assert!(matches!(err, Err(FeisuError::Corrupt(_))));
        assert!(c.get(NodeId(0), "/p").is_none());
        fill(&c, 0, "/p", 1);
        let once = c.node_row(NodeId(0));
        fill(&c, 0, "/p", 2);
        assert_eq!(c.get(NodeId(0), "/p").unwrap().id, BlockId(2));
        let twice = c.node_row(NodeId(0));
        assert_eq!((twice.entries, twice.used_bytes), (1, once.used_bytes));
        c.forget(NodeId(0), "/p");
        assert_eq!(c.node_row(NodeId(0)).used_bytes, 0);
    }

    #[test]
    fn the_byte_bound_evicts_the_least_recently_used() {
        let one = footer(0).footprint() + 2;
        let c = FooterCache::with_capacity(2 * one, 1);
        fill(&c, 0, "/a", 1);
        fill(&c, 0, "/b", 2);
        assert!(c.get(NodeId(0), "/a").is_some(), "now /b is the coldest");
        fill(&c, 0, "/c", 3);
        assert!(c.get(NodeId(0), "/b").is_none());
        assert!(c.get(NodeId(0), "/a").is_some());
        assert!(c.get(NodeId(0), "/c").is_some());
        let row = c.node_row(NodeId(0));
        assert_eq!((row.entries, row.evictions), (2, 1));
        assert_eq!(row.used_bytes, 2 * one as u64);
        // A footer larger than the whole bound is not kept at all.
        let tiny = FooterCache::with_capacity(one - 1, 1);
        fill(&tiny, 0, "/a", 1);
        assert_eq!(tiny.node_row(NodeId(0)).entries, 0);
    }

    #[test]
    fn a_node_outside_the_topology_holds_nothing() {
        let registry = MetricsRegistry::new();
        let c = FooterCache::new(2);
        c.attach_metrics(&registry);
        for node in [2, 3, u64::MAX] {
            fill(&c, node, "/p", 1);
            assert!(c.get(NodeId(node), "/p").is_none());
            let row = c.node_row(NodeId(node));
            assert_eq!((row.entries, row.used_bytes, row.hits), (0, 0, 0));
            c.forget(NodeId(node), "/p");
        }
        c.invalidate("/p");
        assert_eq!(registry.counter("feisu.meta.misses").get(), 3);
        assert_eq!(registry.counter("feisu.meta.invalidations").get(), 0);
    }
}
