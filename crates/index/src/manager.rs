//! Per-leaf SmartIndex cache management (paper §IV-C-2).
//!
//! "Feisu manages the indices based on the size of the cache memory in
//! the leaf servers and the time the index has been in the cache since
//! creation. An index will be deleted from the cache if: (1) the cache
//! memory is full (by a LRU based approach); or (2) the index has been in
//! the cache for too long [TTL, 72 hours]." Users may also set
//! *preferences*: preferred indices survive TTL expiry while memory is
//! not under pressure.
//!
//! Recency and the bytes in use are [`feisu_common::lru::Lru`]; the
//! budget loop, pins and the TTL are here.
//!
//! The manager is internally locked (one mutex per leaf server, i.e. a
//! per-node shard of the cluster's index memory), so leaf servers can be
//! shared across the engine's execution-pool workers by `&self`. All
//! operations are single-lock critical sections.

use crate::smart::SmartIndex;
use feisu_common::lru::Lru;
use feisu_common::{BlockId, ByteSize, SimDuration, SimInstant};
use feisu_obs::{Counter, MetricsRegistry};
use feisu_sql::cnf::SimplePredicate;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// Cache key: one predicate over one block.
pub type IndexKey = (BlockId, Arc<str>);

/// A predicate's cache key and its complement's, formatted once and
/// shared by every block a scan looks the predicate up for.
#[derive(Debug, Clone)]
pub struct PredicateKeys {
    key: Arc<str>,
    negated: Option<Arc<str>>,
}

impl PredicateKeys {
    pub fn new(p: &SimplePredicate) -> PredicateKeys {
        PredicateKeys::all([p]).pop().expect("one predicate")
    }

    /// The keys of each of `predicates`, formatted through one buffer.
    pub fn all<'p>(
        predicates: impl IntoIterator<Item = &'p SimplePredicate>,
    ) -> Vec<PredicateKeys> {
        let mut buf = String::new();
        let mut key = |p: &SimplePredicate, op| {
            buf.clear();
            p.write_key(op, &mut buf);
            Arc::from(buf.as_str())
        };
        (predicates.into_iter())
            .map(|p| PredicateKeys {
                key: key(p, p.op),
                negated: p.op.negate().map(|op| key(p, op)),
            })
            .collect()
    }
}

#[derive(Debug)]
struct Entry {
    index: Arc<SmartIndex>,
    pinned: bool,
}

/// A live entry a task looked up, `(index, negated)`: the shared index,
/// and whether it answers the predicate's complement through bit-NOT.
/// Held to the predicate's turn, it serves even if evicted meanwhile.
pub type Held = (Arc<SmartIndex>, bool);

/// Counters exposed to the evaluation harness (Fig. 11a plots the miss
/// ratio these feed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    /// Freshly built indices dropped because they did not fit in the
    /// budget (distinguishes "built and rejected" from "never built" in
    /// Fig. 11-style memory sweeps).
    pub rejected: u64,
    pub lru_evictions: u64,
    pub ttl_evictions: u64,
}

impl IndexStats {
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Registry handles mirroring [`IndexStats`]; counters are shared across
/// every leaf attached to the same registry, so they read as cluster-wide
/// totals.
#[derive(Debug)]
struct IndexMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    rejected: Arc<Counter>,
    lru_evictions: Arc<Counter>,
    ttl_evictions: Arc<Counter>,
}

/// The mutable cache state, guarded by the manager's mutex. Entries are
/// weighed by their footprint.
#[derive(Debug, Default)]
struct ManagerState {
    entries: Lru<IndexKey, Entry>,
    stats: IndexStats,
    /// At most the `created_at` of every unpinned entry (`None`: there is
    /// none), so while it is within the TTL no entry can have expired.
    oldest: Option<SimInstant>,
}

/// The per-leaf index cache.
#[derive(Debug)]
pub struct IndexManager {
    budget: ByteSize,
    ttl: SimDuration,
    state: Mutex<ManagerState>,
    // Set once: metrics are attached after the manager may already be
    // shared.
    metrics: OnceLock<IndexMetrics>,
}

impl IndexManager {
    /// `budget` is the leaf's SmartIndex memory (512 MB in the paper's
    /// default setup); `ttl` the retirement age (72 h).
    pub fn new(budget: ByteSize, ttl: SimDuration) -> Self {
        IndexManager {
            budget,
            ttl,
            state: Mutex::new(ManagerState::default()),
            metrics: OnceLock::new(),
        }
    }

    /// Starts publishing `feisu.index.*` counters alongside the local
    /// [`IndexStats`]. Counters accumulate across every manager attached
    /// to the same registry (one per leaf server). Only the first
    /// registry attached is used.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let _ = self.metrics.set(IndexMetrics {
            hits: registry.counter("feisu.index.hits"),
            misses: registry.counter("feisu.index.misses"),
            inserts: registry.counter("feisu.index.inserts"),
            rejected: registry.counter("feisu.index.rejected"),
            lru_evictions: registry.counter("feisu.index.lru_evictions"),
            ttl_evictions: registry.counter("feisu.index.ttl_evictions"),
        });
    }

    /// Books `n` events once: in this leaf's own total and, when a
    /// registry is attached, in the cluster-wide counter.
    fn book(&self, local: &mut u64, shared: impl Fn(&IndexMetrics) -> &Counter, n: u64) {
        *local += n;
        if let Some(m) = self.metrics.get() {
            shared(m).add(n);
        }
    }

    fn expired(&self, e: &Entry, now: SimInstant) -> bool {
        !e.pinned && now.since(e.index.created_at) > self.ttl
    }

    /// Looks up an index, counting a hit/miss and refreshing LRU order.
    /// TTL-expired unpinned entries are treated as misses and dropped.
    /// Returns the shared index record: a refcount, not a copy.
    pub fn get(
        &self,
        block: BlockId,
        predicate: &SimplePredicate,
        now: SimInstant,
    ) -> Option<Arc<SmartIndex>> {
        self.get_by_key((block, predicate.key().into()), now)
    }

    /// [`IndexManager::get`] by the predicate's keys, formatting nothing:
    /// the live entry that answers it, else the one for its complement
    /// (`c > 5` is served by an index for `c <= 5` through bit-NOT), and
    /// whether through the complement. The complement's lookup moves the
    /// same hit/miss and LRU accounting; a predicate without one makes none.
    pub fn find(&self, block: BlockId, keys: &PredicateKeys, now: SimInstant) -> Option<Held> {
        let get = |key: &Arc<str>, negated| {
            let found = self.get_by_key((block, key.clone()), now);
            found.map(|index| (index, negated))
        };
        get(&keys.key, false).or_else(|| get(keys.negated.as_ref()?, true))
    }

    fn get_by_key(&self, key: IndexKey, now: SimInstant) -> Option<Arc<SmartIndex>> {
        let mut state = self.state.lock();
        let ManagerState { entries, stats, .. } = &mut *state;
        let found = match entries.get(&key) {
            Some(e) if self.expired(e, now) => {
                entries.remove(&key);
                self.book(&mut stats.ttl_evictions, |m| &m.ttl_evictions, 1);
                None
            }
            found => found.map(|e| e.index.clone()),
        };
        match found {
            Some(_) => self.book(&mut stats.hits, |m| &m.hits, 1),
            None => self.book(&mut stats.misses, |m| &m.misses, 1),
        }
        found
    }

    /// Peeks without touching statistics or LRU order (used by tests and
    /// monitoring).
    pub fn peek(&self, block: BlockId, predicate: &SimplePredicate) -> Option<Arc<SmartIndex>> {
        let state = self.state.lock();
        let entry = state.entries.peek(&(block, predicate.key().into()));
        entry.map(|e| e.index.clone())
    }

    /// The live (pinned or unexpired) entry that answers predicate `p` at
    /// `now`, directly or through its complement: what
    /// [`IndexManager::find`] would find, without moving statistics or LRU
    /// order.
    pub fn lookup(&self, block: BlockId, p: &SimplePredicate, now: SimInstant) -> Option<Held> {
        self.lookup_keyed(block, &PredicateKeys::new(p), now)
    }

    /// [`IndexManager::lookup`] by the predicate's keys, formatting
    /// nothing.
    pub fn lookup_keyed(
        &self,
        block: BlockId,
        keys: &PredicateKeys,
        now: SimInstant,
    ) -> Option<Held> {
        let state = self.state.lock();
        let live = |key: &Arc<str>, negated| {
            let e = state.entries.peek(&(block, key.clone()));
            let e = e.filter(|e| !self.expired(e, now))?;
            Some((e.index.clone(), negated))
        };
        live(&keys.key, false).or_else(|| live(keys.negated.as_ref()?, true))
    }

    /// Inserts a freshly built index, evicting LRU entries as needed. An
    /// index larger than the whole budget is simply not cached; the
    /// rejection is counted. Returns true when the index was cached.
    pub fn insert(&self, index: SmartIndex, now: SimInstant) -> bool {
        self.insert_inner(index, now, false)
    }

    /// Inserts with a user preference: the entry survives TTL expiry while
    /// memory is not full (§IV-C-2 "indices with preferences can remain").
    pub fn insert_pinned(&self, index: SmartIndex, now: SimInstant) -> bool {
        self.insert_inner(index, now, true)
    }

    fn insert_inner(&self, index: SmartIndex, now: SimInstant, pinned: bool) -> bool {
        let footprint = index.footprint() as u64;
        let budget = self.budget.as_u64();
        let mut state = self.state.lock();
        if footprint > budget {
            self.book(&mut state.stats.rejected, |m| &m.rejected, 1);
            return false;
        }
        let key: IndexKey = (index.block_id, index.key().into());
        state.entries.remove(&key);
        // Evict expired entries first, then LRU until the new one fits.
        self.drop_expired(&mut state, now);
        let ManagerState {
            entries,
            stats,
            oldest,
        } = &mut *state;
        while entries.weight() + footprint > budget {
            // Pins hold only while the cache is not full (paper:
            // preferences yield to memory pressure): once everything left
            // is pinned, the least recently used pinned entry goes.
            entries
                .pop_lru_where(|_, e| !e.pinned)
                .or_else(|| entries.pop_lru())
                .expect("weight > 0 means an entry");
            self.book(&mut stats.lru_evictions, |m| &m.lru_evictions, 1);
        }
        if !pinned {
            let created = index.created_at;
            *oldest = Some(oldest.map_or(created, |o| o.min(created)));
        }
        let index = Arc::new(index);
        entries.insert(key, Entry { index, pinned }, footprint);
        self.book(&mut stats.inserts, |m| &m.inserts, 1);
        true
    }

    /// Removes every expired entry: none while the oldest unpinned one is
    /// within the TTL, else a sweep that also finds the new oldest.
    fn drop_expired(&self, state: &mut ManagerState, now: SimInstant) {
        let ManagerState {
            entries,
            stats,
            oldest,
        } = state;
        if oldest.is_none_or(|o| now.since(o) <= self.ttl) {
            return;
        }
        let expired: Vec<IndexKey> = entries
            .iter()
            .filter(|(_, e)| self.expired(e, now))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &expired {
            entries.remove(key);
        }
        let n = expired.len() as u64;
        self.book(&mut stats.ttl_evictions, |m| &m.ttl_evictions, n);
        let unpinned = entries.iter().filter(|(_, e)| !e.pinned);
        *oldest = unpinned.map(|(_, e)| e.index.created_at).min();
    }

    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.lock().entries.is_empty()
    }

    pub fn memory_used(&self) -> ByteSize {
        ByteSize(self.state.lock().entries.weight())
    }

    pub fn stats(&self) -> IndexStats {
        self.state.lock().stats
    }

    pub fn reset_stats(&self) {
        self.state.lock().stats = IndexStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{Block, Column, DataType, Field, Schema, Value};
    use feisu_sql::ast::BinaryOp;
    use proptest::{prop_assert_eq, proptest};

    fn block(id: u64, rows: usize) -> Block {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let col = Column::from_i64((0..rows as i64).collect());
        Block::new(BlockId(id), schema, vec![col]).unwrap()
    }

    fn pred(v: i64) -> SimplePredicate {
        SimplePredicate {
            column: "x".into(),
            op: BinaryOp::Gt,
            value: Value::Int64(v),
        }
    }

    fn idx(block_id: u64, v: i64, created: SimInstant) -> SmartIndex {
        SmartIndex::build(&block(block_id, 1000), &pred(v), created).unwrap()
    }

    fn manager(kb: u64) -> IndexManager {
        IndexManager::new(ByteSize::kib(kb), SimDuration::hours(72))
    }

    #[test]
    fn hit_after_insert() {
        let m = manager(64);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        assert!(m.get(BlockId(1), &pred(5), SimInstant(1)).is_some());
        assert!(m.get(BlockId(1), &pred(6), SimInstant(1)).is_none());
        assert!(m.get(BlockId(2), &pred(5), SimInstant(1)).is_none());
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn ttl_expiry_is_a_miss() {
        let m = manager(64);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        let later = SimInstant::EPOCH + SimDuration::hours(73);
        assert!(m.get(BlockId(1), &pred(5), later).is_none());
        assert_eq!(m.stats().ttl_evictions, 1);
        assert!(m.is_empty());
    }

    #[test]
    fn within_ttl_still_hit() {
        let m = manager(64);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        let later = SimInstant::EPOCH + SimDuration::hours(71);
        assert!(m.get(BlockId(1), &pred(5), later).is_some());
    }

    #[test]
    fn pinned_survives_ttl() {
        let m = manager(64);
        m.insert_pinned(idx(1, 5, SimInstant(0)), SimInstant(0));
        let later = SimInstant::EPOCH + SimDuration::hours(1000);
        assert!(m.get(BlockId(1), &pred(5), later).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Each 1000-row index ≈ 125 B bits + overhead; a tight budget of
        // ~3 entries forces eviction on the 4th insert.
        let one = idx(1, 1, SimInstant(0));
        let budget = ByteSize((one.footprint() * 3) as u64 + 10);
        let m = IndexManager::new(budget, SimDuration::hours(72));
        m.insert(idx(1, 1, SimInstant(0)), SimInstant(0));
        m.insert(idx(2, 2, SimInstant(0)), SimInstant(0));
        m.insert(idx(3, 3, SimInstant(0)), SimInstant(0));
        // Touch 1 so 2 becomes LRU.
        assert!(m.get(BlockId(1), &pred(1), SimInstant(1)).is_some());
        m.insert(idx(4, 4, SimInstant(0)), SimInstant(0));
        assert!(m.peek(BlockId(2), &pred(2)).is_none(), "2 was LRU");
        assert!(m.peek(BlockId(1), &pred(1)).is_some());
        assert!(m.peek(BlockId(4), &pred(4)).is_some());
        assert!(m.stats().lru_evictions >= 1);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let m = manager(64);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        let used_before = m.memory_used();
        m.insert(idx(1, 5, SimInstant(10)), SimInstant(10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.memory_used(), used_before);
    }

    #[test]
    fn oversized_index_not_cached_and_counted_rejected() {
        let m = IndexManager::new(ByteSize::bytes(16), SimDuration::hours(72));
        assert!(!m.insert(idx(1, 5, SimInstant(0)), SimInstant(0)));
        assert!(m.is_empty());
        assert_eq!(m.stats().rejected, 1);
        assert_eq!(m.stats().inserts, 0);
    }

    #[test]
    fn rejected_mirrors_to_registry() {
        let registry = MetricsRegistry::new();
        let m = IndexManager::new(ByteSize::bytes(16), SimDuration::hours(72));
        m.attach_metrics(&registry);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        assert_eq!(registry.counter("feisu.index.rejected").get(), 1);
    }

    #[test]
    fn memory_accounting_balances() {
        let m = manager(1024);
        for b in 0..10 {
            m.insert(idx(b, b as i64, SimInstant(0)), SimInstant(0));
        }
        let total: u64 = (0..10)
            .filter_map(|b| m.peek(BlockId(b), &pred(b as i64)))
            .map(|i| i.footprint() as u64)
            .sum();
        assert_eq!(m.memory_used().as_u64(), total);
    }

    #[test]
    fn force_eviction_under_all_pinned_pressure() {
        let one = idx(1, 1, SimInstant(0));
        let budget = ByteSize((one.footprint() * 2) as u64 + 10);
        let m = IndexManager::new(budget, SimDuration::hours(72));
        m.insert_pinned(idx(1, 1, SimInstant(0)), SimInstant(0));
        m.insert_pinned(idx(2, 2, SimInstant(0)), SimInstant(0));
        // Third pinned insert must force out a pinned entry, not spin.
        m.insert_pinned(idx(3, 3, SimInstant(0)), SimInstant(0));
        assert!(m.len() <= 2);
        assert!(m.peek(BlockId(3), &pred(3)).is_some());
    }

    /// Eviction walks past pinned entries without reordering them, and
    /// once only pinned entries are left the least recently used goes.
    #[test]
    fn pins_keep_their_recency_order_under_pressure() {
        let one = idx(1, 1, SimInstant(0));
        let budget = ByteSize((one.footprint() * 4) as u64 + 10);
        let m = IndexManager::new(budget, SimDuration::hours(72));
        for b in 1..=3 {
            m.insert_pinned(idx(b, b as i64, SimInstant(0)), SimInstant(0));
        }
        m.insert(idx(4, 4, SimInstant(0)), SimInstant(0));
        // Recency, coldest first: 2, 3, 1, then the unpinned 4.
        assert!(m.get(BlockId(1), &pred(1), SimInstant(1)).is_some());
        let held = |b: u64| m.peek(BlockId(b), &pred(b as i64)).is_some();
        // The unpinned entry goes first although it is the hottest...
        m.insert(idx(5, 5, SimInstant(0)), SimInstant(0));
        assert!(!held(4) && held(1) && held(2) && held(3) && held(5));
        // ...and the scan past the pins left them where they were: with 5
        // pinned too, every entry is, and the coldest pin (2) goes, then 3.
        m.insert_pinned(idx(5, 5, SimInstant(0)), SimInstant(0));
        m.insert_pinned(idx(6, 6, SimInstant(0)), SimInstant(0));
        assert!(!held(2) && held(3) && held(1) && held(5) && held(6));
        m.insert_pinned(idx(7, 7, SimInstant(0)), SimInstant(0));
        assert!(!held(3) && held(1) && held(5) && held(6) && held(7));
        assert_eq!(m.stats().lru_evictions, 3);
    }

    #[test]
    fn attached_registry_mirrors_stats() {
        let registry = MetricsRegistry::new();
        let m = manager(64);
        m.attach_metrics(&registry);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        m.get(BlockId(1), &pred(5), SimInstant(0));
        m.get(BlockId(1), &pred(9), SimInstant(0));
        assert_eq!(registry.counter("feisu.index.inserts").get(), 1);
        assert_eq!(registry.counter("feisu.index.hits").get(), 1);
        assert_eq!(registry.counter("feisu.index.misses").get(), 1);
    }

    #[test]
    fn miss_ratio_computation() {
        let m = manager(64);
        m.insert(idx(1, 5, SimInstant(0)), SimInstant(0));
        m.get(BlockId(1), &pred(5), SimInstant(0));
        m.get(BlockId(1), &pred(9), SimInstant(0));
        m.get(BlockId(1), &pred(9), SimInstant(0));
        let s = m.stats();
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_across_threads() {
        // The manager is one per-node shard: concurrent probes/inserts
        // must be safe behind `&self`.
        let m = std::sync::Arc::new(manager(1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for b in 0..16u64 {
                        let id = t * 100 + b;
                        m.insert(idx(id, id as i64, SimInstant(0)), SimInstant(0));
                        assert!(m
                            .get(BlockId(id), &pred(id as i64), SimInstant(1))
                            .is_some());
                    }
                });
            }
        });
        assert_eq!(m.stats().inserts, 64);
        assert_eq!(m.stats().hits, 64);
    }

    /// The manager as it was before it kept `oldest`: every insert sweeps
    /// all entries for expired ones. `entries` is in recency order, least
    /// recent first: `(key, created_at, pinned, footprint)`.
    struct SweepEveryInsert {
        entries: Vec<(IndexKey, SimInstant, bool, u64)>,
        stats: IndexStats,
        ttl: SimDuration,
        budget: u64,
        now: SimInstant,
    }

    impl SweepEveryInsert {
        fn expired(&self, i: usize, now: SimInstant) -> bool {
            let (_, created, pinned, _) = self.entries[i];
            !pinned && now.since(created) > self.ttl
        }

        fn live(&self, key: &IndexKey, now: SimInstant) -> bool {
            let at = self.entries.iter().position(|e| &e.0 == key);
            at.is_some_and(|i| !self.expired(i, now))
        }

        fn get(&mut self, key: &IndexKey, now: SimInstant) -> bool {
            let found = match self.entries.iter().position(|e| &e.0 == key) {
                Some(i) if self.expired(i, now) => {
                    self.entries.remove(i);
                    self.stats.ttl_evictions += 1;
                    false
                }
                Some(i) => {
                    let entry = self.entries.remove(i);
                    self.entries.push(entry);
                    true
                }
                None => false,
            };
            match found {
                true => self.stats.hits += 1,
                false => self.stats.misses += 1,
            }
            found
        }

        fn insert(&mut self, key: IndexKey, created: SimInstant, pinned: bool, size: u64) -> bool {
            if size > self.budget {
                self.stats.rejected += 1;
                return false;
            }
            self.entries.retain(|e| e.0 != key);
            let now = self.now;
            let kept: Vec<bool> = (0..self.entries.len())
                .map(|i| !self.expired(i, now))
                .collect();
            let mut kept = kept.into_iter();
            let before = self.entries.len();
            self.entries.retain(|_| kept.next().unwrap());
            self.stats.ttl_evictions += (before - self.entries.len()) as u64;
            while self.entries.iter().map(|e| e.3).sum::<u64>() + size > self.budget {
                let victim = self.entries.iter().position(|e| !e.2).unwrap_or(0);
                self.entries.remove(victim);
                self.stats.lru_evictions += 1;
            }
            self.entries.push((key, created, pinned, size));
            self.stats.inserts += 1;
            true
        }
    }

    proptest! {
        /// Random inserts, pinned inserts, gets and lookups over time that
        /// mostly advances, sometimes steps back, and passes a short TTL:
        /// the manager, which sweeps only once its oldest unpinned entry
        /// can have expired, holds the entries (in recency order, pins
        /// included) and the stats of a sweep on every insert, step by step.
        #[test]
        fn sweeping_only_past_the_oldest_matches_sweeping_always(
            ops in proptest::collection::vec(
                ((0..4u8, 0..3u64, 0..3i64), (0..70u64, 0..40u64)),
                1..80,
            ),
            capacity in 2..6u64,
        ) {
            let ttl = SimDuration::nanos(100);
            let size = idx(0, 0, SimInstant(0)).footprint() as u64;
            let m = IndexManager::new(ByteSize(size * capacity), ttl);
            let mut model = SweepEveryInsert {
                entries: Vec::new(),
                stats: IndexStats::default(),
                ttl,
                budget: size * capacity,
                now: SimInstant(1_000),
            };
            for ((op, block, v), (step, age)) in ops {
                let now = SimInstant((model.now.as_nanos() + step).saturating_sub(10));
                model.now = now;
                let key: IndexKey = (BlockId(block), pred(v).key().into());
                let created = SimInstant(now.as_nanos().saturating_sub(age));
                match op {
                    0 | 1 => {
                        let index = idx(block, v, created);
                        prop_assert_eq!(index.footprint() as u64, size);
                        let got = match op {
                            0 => m.insert(index, now),
                            _ => m.insert_pinned(index, now),
                        };
                        prop_assert_eq!(got, model.insert(key, created, op == 1, size));
                    }
                    2 => {
                        let got = m.get(BlockId(block), &pred(v), now).is_some();
                        prop_assert_eq!(got, model.get(&key, now));
                    }
                    _ => {
                        let got = m.lookup(BlockId(block), &pred(v), now).is_some();
                        prop_assert_eq!(got, model.live(&key, now));
                    }
                }
                let state = m.state.lock();
                let entries: Vec<(IndexKey, bool)> = (state.entries.iter())
                    .map(|(k, e)| (k.clone(), e.pinned))
                    .collect();
                let want: Vec<(IndexKey, bool)> = (model.entries.iter())
                    .map(|e| (e.0.clone(), e.2))
                    .collect();
                prop_assert_eq!(entries, want);
                prop_assert_eq!(state.stats, model.stats);
            }
        }
    }
}
