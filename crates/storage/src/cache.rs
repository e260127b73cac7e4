//! Multi-tier per-node block cache (paper §IV-B, rebuilt).
//!
//! The paper's SSD cache admits by manually curated path prefixes,
//! because with fully ad-hoc workloads automatic policies saw >80% miss
//! rates. This subsystem keeps those prefix rules as *pin overrides* but
//! grows the cache into the shape that works at fleet scale (see "Data
//! Caching for Enterprise-Grade Petabyte-Scale OLAP" in PAPERS.md):
//!
//! * **Two tiers per node** — a DRAM tier in front of the SSD tier.
//!   Blocks enter the hierarchy at the SSD tier and are promoted into
//!   memory on their next hit; memory evictions demote back to SSD.
//! * **Ghost-LRU admission** — a per-node shadow LRU remembers
//!   once-seen and recently-evicted keys. An unpinned block is admitted
//!   only on its *second* sighting, so one-hit-wonder scans never evict
//!   hot blocks.
//! * **Sharded locks** — node state is spread over [`SHARDS`] mutexes
//!   keyed by node id, so leaf probes on different nodes never contend
//!   (the old implementation serialized every probe cluster-wide).
//! * **Quotas** — per-user and per-table byte budgets per node,
//!   attributed from the session credential that triggered the read.
//!   Over-quota owners evict their own coldest entries first; an entry
//!   that cannot fit its owner's quota is rejected even when pinned.
//! * **TTL + path-keyed invalidation** — entries expire after an
//!   optional TTL, and `invalidate_path` (hooked into every ingest
//!   write) drops a rewritten path from every node so re-ingested data
//!   can never be served stale.
//!
//! Everything is deterministic given a deterministic call sequence: the
//! structure keeps no wall-clock state, and all statistics are exact
//! totals (atomics / per-shard counters), so race-free workloads remain
//! bit-identical serial vs concurrent (DESIGN.md §15).

use bytes::Bytes;
use feisu_common::config::CacheSettings;
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, NodeId, SimInstant, UserId};
use feisu_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of lock shards the per-node state is spread over. Node ids map
/// to shards by modulo, so any two distinct nodes in a small cluster get
/// distinct locks.
pub const SHARDS: usize = 64;

/// Which tier of the hierarchy holds (or served) an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheTier {
    /// The per-node DRAM tier.
    Memory,
    /// The per-node SSD tier.
    Ssd,
}

impl CacheTier {
    /// Short label used in metrics names and `system.cache` rows.
    pub fn label(self) -> &'static str {
        match self {
            CacheTier::Memory => "mem",
            CacheTier::Ssd => "ssd",
        }
    }
}

/// Pin rule: paths with this prefix bypass the admission filter (the
/// paper's manual §IV-B preferences, surviving as overrides).
#[derive(Debug, Clone)]
pub struct CachePin {
    pub path_prefix: String,
}

/// Attribution of an admission for quota accounting: the user whose
/// query read the block, and the table it belongs to (if any).
#[derive(Debug, Clone, Copy)]
pub struct CacheAttr<'a> {
    pub user: UserId,
    pub table: Option<&'a str>,
}

/// One successful probe: the bytes and the tier that held them.
#[derive(Debug, Clone)]
pub struct CacheHit {
    pub data: Bytes,
    pub tier: CacheTier,
}

/// One `system.cache` introspection row (per node, per tier).
#[derive(Debug, Clone)]
pub struct CacheTierRow {
    /// `"mem"`, `"ssd"`, `"ghost"` or the footer cache's `"meta"`.
    pub tier: &'static str,
    pub entries: usize,
    pub used_bytes: u64,
    pub capacity_bytes: u64,
    /// For the ghost row: admissions it granted.
    pub hits: u64,
    pub evictions: u64,
}

/// Exact cluster-wide cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub mem_hits: u64,
    pub ssd_hits: u64,
    pub misses: u64,
    /// Offers turned away for any reason (admission filter, oversized
    /// object, quota). Supersets `ghost_registered` and
    /// `quota_rejections`.
    pub rejected: u64,
    /// First sightings recorded in a ghost LRU (not cached yet).
    pub ghost_registered: u64,
    /// Admissions granted because the ghost remembered the key.
    pub ghost_admissions: u64,
    /// Offers rejected because the entry cannot fit its owner's quota.
    pub quota_rejections: u64,
    pub mem_evictions: u64,
    pub ssd_evictions: u64,
    /// Evictions forced by an owner's byte quota rather than tier
    /// capacity (also counted in the per-tier eviction totals).
    pub quota_evictions: u64,
    /// Entries dropped because their TTL lapsed before a probe.
    pub ttl_expired: u64,
    /// Entries dropped by path-keyed invalidation (ingest overwrites).
    pub invalidations: u64,
    /// SSD→memory promotions on hit.
    pub promotions: u64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.ssd_hits
    }

    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One cached object. `stamp` is the lazy-LRU liveness token; usage is
/// attributed to `user`/`table` until the entry fully leaves the node.
#[derive(Debug)]
struct Entry {
    data: Bytes,
    stamp: u64,
    inserted_at: SimInstant,
    user: UserId,
    table: Option<String>,
}

impl Entry {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

/// One tier's storage on one node: a map plus a lazy LRU queue (one
/// record per touch; dead records are compacted once the queue exceeds
/// twice the live-entry count, amortized O(1) per touch).
#[derive(Debug, Default)]
struct TierCache {
    entries: FxHashMap<String, Entry>,
    lru: VecDeque<(String, u64)>,
    used: u64,
    next_stamp: u64,
    /// Per-node hit counter (feeds `system.cache`).
    hits: u64,
    /// Per-node eviction counter (capacity + quota).
    evictions: u64,
}

impl TierCache {
    fn compact_lru(&mut self) {
        if self.lru.len() <= 2 * self.entries.len() {
            return;
        }
        self.lru
            .retain(|(key, stamp)| self.entries.get(key).is_some_and(|e| e.stamp == *stamp));
    }

    /// Refreshes recency of a present entry and returns its bytes.
    fn touch(&mut self, path: &str) -> Bytes {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let e = self.entries.get_mut(path).expect("touch of absent entry");
        e.stamp = stamp;
        let data = e.data.clone();
        self.lru.push_back((path.to_string(), stamp));
        self.compact_lru();
        data
    }

    /// Inserts an absent path, updating accounting and recency.
    fn insert(&mut self, path: String, mut e: Entry) {
        debug_assert!(!self.entries.contains_key(&path));
        self.next_stamp += 1;
        e.stamp = self.next_stamp;
        self.used += e.len();
        self.lru.push_back((path.clone(), e.stamp));
        self.entries.insert(path, e);
        self.compact_lru();
    }

    fn remove(&mut self, path: &str) -> Option<Entry> {
        let e = self.entries.remove(path)?;
        self.used -= e.len();
        Some(e)
    }

    /// Pops the least-recently-used live entry.
    fn pop_lru(&mut self) -> Option<(String, Entry)> {
        while let Some((key, stamp)) = self.lru.pop_front() {
            if self.entries.get(&key).is_some_and(|e| e.stamp == stamp) {
                let e = self.remove(&key).expect("checked live");
                return Some((key, e));
            }
        }
        None
    }

    /// Pops the least-recently-used live entry matching a predicate
    /// (quota eviction: an owner sheds its own coldest entries).
    fn pop_lru_matching(&mut self, pred: impl Fn(&Entry) -> bool) -> Option<(String, Entry)> {
        let idx = self.lru.iter().position(|(key, stamp)| {
            self.entries
                .get(key)
                .is_some_and(|e| e.stamp == *stamp && pred(e))
        })?;
        let (key, _) = self.lru.remove(idx).expect("index in range");
        let e = self.remove(&key).expect("checked live");
        Some((key, e))
    }
}

/// Shadow LRU of keys only: once-seen and recently-evicted paths.
#[derive(Debug, Default)]
struct GhostLru {
    keys: FxHashMap<String, u64>,
    lru: VecDeque<(String, u64)>,
    next_stamp: u64,
    /// Per-node count of admissions this ghost granted.
    admissions: u64,
}

impl GhostLru {
    /// Records (or refreshes) a key, evicting the oldest beyond capacity.
    fn remember(&mut self, path: &str, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        self.keys.insert(path.to_string(), stamp);
        self.lru.push_back((path.to_string(), stamp));
        while self.keys.len() > capacity {
            match self.lru.pop_front() {
                Some((key, s)) => {
                    if self.keys.get(&key) == Some(&s) {
                        self.keys.remove(&key);
                    }
                }
                None => break,
            }
        }
        if self.lru.len() > 2 * self.keys.len() {
            self.lru.retain(|(key, s)| self.keys.get(key) == Some(s));
        }
    }

    /// Removes and reports whether the key was remembered.
    fn recall(&mut self, path: &str) -> bool {
        self.keys.remove(path).is_some()
    }
}

/// All cache state of one node.
#[derive(Debug, Default)]
struct NodeCache {
    mem: TierCache,
    ssd: TierCache,
    ghost: GhostLru,
    /// Bytes attributed per user across both tiers.
    user_used: FxHashMap<UserId, u64>,
    /// Bytes attributed per table across both tiers.
    table_used: FxHashMap<String, u64>,
}

impl NodeCache {
    fn note_add(&mut self, e: &Entry) {
        *self.user_used.entry(e.user).or_default() += e.len();
        if let Some(t) = &e.table {
            *self.table_used.entry(t.clone()).or_default() += e.len();
        }
    }

    /// Reverses `note_add` when an entry fully leaves the node.
    fn note_drop(&mut self, e: &Entry) {
        if let Some(u) = self.user_used.get_mut(&e.user) {
            *u = u.saturating_sub(e.len());
            if *u == 0 {
                self.user_used.remove(&e.user);
            }
        }
        if let Some(t) = &e.table {
            if let Some(u) = self.table_used.get_mut(t) {
                *u = u.saturating_sub(e.len());
                if *u == 0 {
                    self.table_used.remove(t);
                }
            }
        }
    }
}

/// Exact totals, updated with relaxed atomics (sums commute, so totals
/// are scheduling-independent for race-free workloads).
#[derive(Debug, Default)]
struct AtomicStats {
    mem_hits: AtomicU64,
    ssd_hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    ghost_registered: AtomicU64,
    ghost_admissions: AtomicU64,
    quota_rejections: AtomicU64,
    mem_evictions: AtomicU64,
    ssd_evictions: AtomicU64,
    quota_evictions: AtomicU64,
    ttl_expired: AtomicU64,
    invalidations: AtomicU64,
    promotions: AtomicU64,
}

/// Registry handles mirroring [`CacheStats`] as `feisu.cache.*`.
struct CacheMetrics {
    mem_hits: Arc<Counter>,
    ssd_hits: Arc<Counter>,
    misses: Arc<Counter>,
    rejected: Arc<Counter>,
    ghost_registered: Arc<Counter>,
    ghost_admissions: Arc<Counter>,
    quota_rejections: Arc<Counter>,
    mem_evictions: Arc<Counter>,
    ssd_evictions: Arc<Counter>,
    quota_evictions: Arc<Counter>,
    ttl_expired: Arc<Counter>,
    invalidations: Arc<Counter>,
    promotions: Arc<Counter>,
}

/// Statistic events, applied to the atomics and mirrored to the registry.
#[derive(Clone, Copy)]
enum Ev {
    MemHit,
    SsdHit,
    Miss,
    Rejected,
    GhostRegistered,
    GhostAdmission,
    QuotaRejection,
    MemEvictions(u64),
    SsdEvictions(u64),
    QuotaEvictions(u64),
    TtlExpired,
    Invalidations(u64),
    Promotion,
}

/// The two-tier cache hierarchy with ghost admission and quotas.
pub struct TieredCache {
    settings: CacheSettings,
    pins: Vec<CachePin>,
    /// Per-node state, sharded by node id so probes on different nodes
    /// never contend on one lock.
    shards: Vec<Mutex<FxHashMap<NodeId, NodeCache>>>,
    /// Explicit per-user quota overrides (absent = configured default).
    user_quotas: Mutex<FxHashMap<UserId, u64>>,
    table_quotas: Mutex<FxHashMap<String, u64>>,
    stats: AtomicStats,
    // Behind a Mutex because the cache is attached after it is shared
    // (`Arc<TieredCache>` inside the router).
    metrics: Mutex<Option<CacheMetrics>>,
}

impl TieredCache {
    pub fn new(settings: CacheSettings, pins: Vec<CachePin>) -> Self {
        TieredCache {
            settings,
            pins,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            user_quotas: Mutex::new(FxHashMap::default()),
            table_quotas: Mutex::new(FxHashMap::default()),
            stats: AtomicStats::default(),
            metrics: Mutex::new(None),
        }
    }

    pub fn settings(&self) -> &CacheSettings {
        &self.settings
    }

    /// Whether a path matches a pin rule.
    pub fn pinned(&self, path: &str) -> bool {
        self.pins.iter().any(|p| path.starts_with(&p.path_prefix))
    }

    fn shard(&self, node: NodeId) -> &Mutex<FxHashMap<NodeId, NodeCache>> {
        &self.shards[node.0 as usize % SHARDS]
    }

    fn mem_cap(&self) -> u64 {
        self.settings.mem_capacity_per_node.as_u64()
    }

    fn ssd_cap(&self) -> u64 {
        self.settings.ssd_capacity_per_node.as_u64()
    }

    fn expired(&self, e: &Entry, now: SimInstant) -> bool {
        self.settings
            .ttl
            .is_some_and(|ttl| now >= e.inserted_at + ttl)
    }

    fn note(&self, ev: Ev) {
        let s = &self.stats;
        let m = self.metrics.lock();
        let m = m.as_ref();
        let apply = |a: &AtomicU64, c: Option<&Arc<Counter>>, n: u64| {
            a.fetch_add(n, Ordering::Relaxed);
            if let Some(c) = c {
                c.add(n);
            }
        };
        match ev {
            Ev::MemHit => apply(&s.mem_hits, m.map(|m| &m.mem_hits), 1),
            Ev::SsdHit => apply(&s.ssd_hits, m.map(|m| &m.ssd_hits), 1),
            Ev::Miss => apply(&s.misses, m.map(|m| &m.misses), 1),
            Ev::Rejected => apply(&s.rejected, m.map(|m| &m.rejected), 1),
            Ev::GhostRegistered => apply(&s.ghost_registered, m.map(|m| &m.ghost_registered), 1),
            Ev::GhostAdmission => apply(&s.ghost_admissions, m.map(|m| &m.ghost_admissions), 1),
            Ev::QuotaRejection => apply(&s.quota_rejections, m.map(|m| &m.quota_rejections), 1),
            Ev::MemEvictions(n) if n > 0 => apply(&s.mem_evictions, m.map(|m| &m.mem_evictions), n),
            Ev::SsdEvictions(n) if n > 0 => apply(&s.ssd_evictions, m.map(|m| &m.ssd_evictions), n),
            Ev::QuotaEvictions(n) if n > 0 => {
                apply(&s.quota_evictions, m.map(|m| &m.quota_evictions), n)
            }
            Ev::TtlExpired => apply(&s.ttl_expired, m.map(|m| &m.ttl_expired), 1),
            Ev::Invalidations(n) if n > 0 => {
                apply(&s.invalidations, m.map(|m| &m.invalidations), n)
            }
            Ev::Promotion => apply(&s.promotions, m.map(|m| &m.promotions), 1),
            Ev::MemEvictions(_)
            | Ev::SsdEvictions(_)
            | Ev::QuotaEvictions(_)
            | Ev::Invalidations(_) => {}
        }
    }

    fn user_quota_for(&self, user: UserId) -> Option<u64> {
        self.user_quotas
            .lock()
            .get(&user)
            .copied()
            .or(self.settings.default_user_quota.map(|q| q.as_u64()))
    }

    fn table_quota_for(&self, table: &str) -> Option<u64> {
        self.table_quotas
            .lock()
            .get(table)
            .copied()
            .or(self.settings.default_table_quota.map(|q| q.as_u64()))
    }

    /// Inserts into the SSD tier, evicting its LRU into the ghost until
    /// the entry fits. Returns the eviction count.
    fn insert_into_ssd(&self, nc: &mut NodeCache, path: String, e: Entry) -> u64 {
        let size = e.len();
        let mut evictions = 0u64;
        while nc.ssd.used + size > self.ssd_cap() {
            let Some((key, victim)) = nc.ssd.pop_lru() else {
                break;
            };
            nc.ghost.remember(&key, self.settings.ghost_capacity);
            nc.note_drop(&victim);
            nc.ssd.evictions += 1;
            evictions += 1;
        }
        nc.ssd.insert(path, e);
        evictions
    }

    /// Inserts into the memory tier; evicted memory entries demote to the
    /// SSD tier (or leave the node entirely if they cannot fit there).
    /// Returns (memory evictions, SSD evictions caused by demotions).
    fn insert_into_mem(&self, nc: &mut NodeCache, path: String, e: Entry) -> (u64, u64) {
        let size = e.len();
        let mut mem_ev = 0u64;
        let mut ssd_ev = 0u64;
        while nc.mem.used + size > self.mem_cap() {
            let Some((key, demoted)) = nc.mem.pop_lru() else {
                break;
            };
            nc.mem.evictions += 1;
            mem_ev += 1;
            if self.ssd_cap() > 0 && demoted.len() <= self.ssd_cap() {
                ssd_ev += self.insert_into_ssd(nc, key, demoted);
            } else {
                nc.ghost.remember(&key, self.settings.ghost_capacity);
                nc.note_drop(&demoted);
            }
        }
        nc.mem.insert(path, e);
        (mem_ev, ssd_ev)
    }

    /// Length of a tier's lazy LRU queue on one node (bounded-growth
    /// tests).
    pub fn lru_queue_len_on(&self, node: NodeId, tier: CacheTier) -> usize {
        self.shard(node)
            .lock()
            .get(&node)
            .map_or(0, |nc| match tier {
                CacheTier::Memory => nc.mem.lru.len(),
                CacheTier::Ssd => nc.ssd.lru.len(),
            })
    }

    /// Keys remembered by one node's ghost.
    pub fn ghost_len_on(&self, node: NodeId) -> usize {
        self.shard(node)
            .lock()
            .get(&node)
            .map_or(0, |nc| nc.ghost.keys.len())
    }

    /// Bytes attributed to one table on one node.
    pub fn table_used_on(&self, node: NodeId, table: &str) -> ByteSize {
        ByteSize(
            self.shard(node)
                .lock()
                .get(&node)
                .and_then(|nc| nc.table_used.get(table).copied())
                .unwrap_or(0),
        )
    }

    /// Probes `node`'s hierarchy. A hit refreshes recency and may promote
    /// the entry from SSD to memory; a miss leaves the node map untouched
    /// (probing thousands of nodes that never cached anything must not
    /// grow it). `now` drives TTL expiry.
    pub fn get(&self, node: NodeId, path: &str, now: SimInstant) -> Option<CacheHit> {
        let mut shard = self.shard(node).lock();
        let Some(nc) = shard.get_mut(&node) else {
            drop(shard);
            self.note(Ev::Miss);
            return None;
        };
        // Memory tier first.
        if nc.mem.entries.contains_key(path) {
            if self.expired(&nc.mem.entries[path], now) {
                let e = nc.mem.remove(path).expect("checked");
                nc.note_drop(&e);
                drop(shard);
                self.note(Ev::TtlExpired);
                self.note(Ev::Miss);
                return None;
            }
            let data = nc.mem.touch(path);
            nc.mem.hits += 1;
            drop(shard);
            self.note(Ev::MemHit);
            return Some(CacheHit {
                data,
                tier: CacheTier::Memory,
            });
        }
        // SSD tier; a hit promotes the entry into memory when it fits.
        if nc.ssd.entries.contains_key(path) {
            if self.expired(&nc.ssd.entries[path], now) {
                let e = nc.ssd.remove(path).expect("checked");
                nc.note_drop(&e);
                drop(shard);
                self.note(Ev::TtlExpired);
                self.note(Ev::Miss);
                return None;
            }
            nc.ssd.hits += 1;
            let promote = self.mem_cap() > 0 && nc.ssd.entries[path].len() <= self.mem_cap();
            if !promote {
                let data = nc.ssd.touch(path);
                drop(shard);
                self.note(Ev::SsdHit);
                return Some(CacheHit {
                    data,
                    tier: CacheTier::Ssd,
                });
            }
            let e = nc.ssd.remove(path).expect("checked");
            let data = e.data.clone();
            let (mem_ev, ssd_ev) = self.insert_into_mem(nc, path.to_string(), e);
            drop(shard);
            self.note(Ev::SsdHit);
            self.note(Ev::Promotion);
            self.note(Ev::MemEvictions(mem_ev));
            self.note(Ev::SsdEvictions(ssd_ev));
            // This probe was still served by the SSD tier; the *next*
            // one finds the entry in memory.
            return Some(CacheHit {
                data,
                tier: CacheTier::Ssd,
            });
        }
        drop(shard);
        self.note(Ev::Miss);
        None
    }

    /// Offers bytes read from a storage domain for caching on `node`.
    pub fn admit(
        &self,
        node: NodeId,
        path: &str,
        data: Bytes,
        attr: CacheAttr<'_>,
        now: SimInstant,
    ) {
        let size = data.len() as u64;
        // Entries enter the hierarchy at the SSD tier (they climb to
        // memory on their next hit); with no SSD tier configured they
        // enter at the memory tier directly.
        let enter_mem = self.ssd_cap() == 0;
        let entry_cap = if enter_mem {
            self.mem_cap()
        } else {
            self.ssd_cap()
        };
        if size > entry_cap {
            self.note(Ev::Rejected);
            return;
        }
        let pinned = self.pinned(path);
        // Without a ghost nothing unpinned can be sighted twice: reject
        // before any node state exists.
        if self.settings.ghost_capacity == 0 && !pinned {
            self.note(Ev::Rejected);
            return;
        }
        // Resolve quotas before taking the shard lock (lock order: quota
        // maps are leaves, never nested inside a shard).
        let user_quota = self.user_quota_for(attr.user);
        let table_quota = attr.table.and_then(|t| self.table_quota_for(t));
        // An entry that cannot fit its owner's quota is rejected outright
        // — quota wins even over a pin.
        if user_quota.is_some_and(|q| size > q) || table_quota.is_some_and(|q| size > q) {
            self.note(Ev::QuotaRejection);
            self.note(Ev::Rejected);
            return;
        }

        let mut shard = self.shard(node).lock();
        let nc = shard.entry(node).or_default();
        // Ghost admission: unpinned blocks pass only if the ghost
        // remembers them; first sightings are registered and rejected.
        if !pinned {
            if nc.ghost.recall(path) {
                nc.ghost.admissions += 1;
                drop(shard);
                self.note(Ev::GhostAdmission);
                shard = self.shard(node).lock();
            } else {
                nc.ghost.remember(path, self.settings.ghost_capacity);
                drop(shard);
                self.note(Ev::GhostRegistered);
                self.note(Ev::Rejected);
                return;
            }
        }
        let nc = shard.entry(node).or_default();

        // Replace an existing copy (concurrent readers may both miss and
        // both offer the same path; last write wins, accounting exact).
        if let Some(old) = nc.mem.remove(path) {
            nc.note_drop(&old);
        }
        if let Some(old) = nc.ssd.remove(path) {
            nc.note_drop(&old);
        }

        // Quota pressure: the owner sheds its own coldest entries (SSD
        // tier first — those are the coldest by construction).
        let mut quota_ev = 0u64;
        let mut mem_ev = 0u64;
        let mut ssd_ev = 0u64;
        if let Some(q) = user_quota {
            while nc.user_used.get(&attr.user).copied().unwrap_or(0) + size > q {
                if let Some((key, victim)) = nc.ssd.pop_lru_matching(|e| e.user == attr.user) {
                    nc.ghost.remember(&key, self.settings.ghost_capacity);
                    nc.note_drop(&victim);
                    nc.ssd.evictions += 1;
                    ssd_ev += 1;
                } else if let Some((key, victim)) = nc.mem.pop_lru_matching(|e| e.user == attr.user)
                {
                    nc.ghost.remember(&key, self.settings.ghost_capacity);
                    nc.note_drop(&victim);
                    nc.mem.evictions += 1;
                    mem_ev += 1;
                } else {
                    break;
                }
                quota_ev += 1;
            }
        }
        if let (Some(q), Some(table)) = (table_quota, attr.table) {
            while nc.table_used.get(table).copied().unwrap_or(0) + size > q {
                if let Some((key, victim)) = nc
                    .ssd
                    .pop_lru_matching(|e| e.table.as_deref() == Some(table))
                {
                    nc.ghost.remember(&key, self.settings.ghost_capacity);
                    nc.note_drop(&victim);
                    nc.ssd.evictions += 1;
                    ssd_ev += 1;
                } else if let Some((key, victim)) = nc
                    .mem
                    .pop_lru_matching(|e| e.table.as_deref() == Some(table))
                {
                    nc.ghost.remember(&key, self.settings.ghost_capacity);
                    nc.note_drop(&victim);
                    nc.mem.evictions += 1;
                    mem_ev += 1;
                } else {
                    break;
                }
                quota_ev += 1;
            }
        }

        let entry = Entry {
            data,
            stamp: 0,
            inserted_at: now,
            user: attr.user,
            table: attr.table.map(str::to_string),
        };
        nc.note_add(&entry);
        if enter_mem {
            let (m, s) = self.insert_into_mem(nc, path.to_string(), entry);
            mem_ev += m;
            ssd_ev += s;
        } else {
            ssd_ev += self.insert_into_ssd(nc, path.to_string(), entry);
        }
        drop(shard);
        self.note(Ev::QuotaEvictions(quota_ev));
        self.note(Ev::MemEvictions(mem_ev));
        self.note(Ev::SsdEvictions(ssd_ev));
    }

    /// Drops `path` from every node's tiers (ingest rewrote the object).
    pub fn invalidate_path(&self, path: &str) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            for nc in s.values_mut() {
                if let Some(e) = nc.mem.remove(path) {
                    nc.note_drop(&e);
                    dropped += 1;
                }
                if let Some(e) = nc.ssd.remove(path) {
                    nc.note_drop(&e);
                    dropped += 1;
                }
            }
        }
        self.note(Ev::Invalidations(dropped));
    }

    /// Drops everything cached on one node (node restart).
    pub fn invalidate_node(&self, node: NodeId) {
        self.shard(node).lock().remove(&node);
    }

    /// Starts publishing `feisu.cache.{tier}.*` counters.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        *self.metrics.lock() = Some(CacheMetrics {
            mem_hits: registry.counter("feisu.cache.mem.hits"),
            ssd_hits: registry.counter("feisu.cache.ssd.hits"),
            misses: registry.counter("feisu.cache.misses"),
            rejected: registry.counter("feisu.cache.rejected"),
            ghost_registered: registry.counter("feisu.cache.ghost.registered"),
            ghost_admissions: registry.counter("feisu.cache.ghost.admissions"),
            quota_rejections: registry.counter("feisu.cache.quota.rejections"),
            mem_evictions: registry.counter("feisu.cache.mem.evictions"),
            ssd_evictions: registry.counter("feisu.cache.ssd.evictions"),
            quota_evictions: registry.counter("feisu.cache.quota.evictions"),
            ttl_expired: registry.counter("feisu.cache.ttl_expired"),
            invalidations: registry.counter("feisu.cache.invalidations"),
            promotions: registry.counter("feisu.cache.promotions"),
        });
    }

    pub fn stats(&self) -> CacheStats {
        let s = &self.stats;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CacheStats {
            mem_hits: g(&s.mem_hits),
            ssd_hits: g(&s.ssd_hits),
            misses: g(&s.misses),
            rejected: g(&s.rejected),
            ghost_registered: g(&s.ghost_registered),
            ghost_admissions: g(&s.ghost_admissions),
            quota_rejections: g(&s.quota_rejections),
            mem_evictions: g(&s.mem_evictions),
            ssd_evictions: g(&s.ssd_evictions),
            quota_evictions: g(&s.quota_evictions),
            ttl_expired: g(&s.ttl_expired),
            invalidations: g(&s.invalidations),
            promotions: g(&s.promotions),
        }
    }

    /// `system.cache` rows for one node: `mem`, `ssd`, `ghost`.
    pub fn node_tier_rows(&self, node: NodeId) -> Vec<CacheTierRow> {
        let shard = self.shard(node).lock();
        let nc = shard.get(&node);
        let tier = |t: Option<&TierCache>, cap: u64, label: &'static str| CacheTierRow {
            tier: label,
            entries: t.map_or(0, |t| t.entries.len()),
            used_bytes: t.map_or(0, |t| t.used),
            capacity_bytes: cap,
            hits: t.map_or(0, |t| t.hits),
            evictions: t.map_or(0, |t| t.evictions),
        };
        vec![
            tier(nc.map(|n| &n.mem), self.mem_cap(), "mem"),
            tier(nc.map(|n| &n.ssd), self.ssd_cap(), "ssd"),
            CacheTierRow {
                tier: "ghost",
                entries: nc.map_or(0, |n| n.ghost.keys.len()),
                used_bytes: 0,
                capacity_bytes: 0,
                hits: nc.map_or(0, |n| n.ghost.admissions),
                evictions: 0,
            },
        ]
    }

    /// Sets (`Some`) or clears (`None`, back to the configured default)
    /// a user's per-node byte quota.
    pub fn set_user_quota(&self, user: UserId, quota: Option<ByteSize>) {
        let mut q = self.user_quotas.lock();
        match quota {
            Some(b) => {
                q.insert(user, b.as_u64());
            }
            None => {
                q.remove(&user);
            }
        }
    }

    /// Sets or clears a table's per-node byte quota.
    pub fn set_table_quota(&self, table: &str, quota: Option<ByteSize>) {
        let mut q = self.table_quotas.lock();
        match quota {
            Some(b) => {
                q.insert(table.to_string(), b.as_u64());
            }
            None => {
                q.remove(table);
            }
        }
    }

    /// Bytes held by one tier on one node.
    pub fn used_on(&self, node: NodeId, tier: CacheTier) -> ByteSize {
        ByteSize(
            self.shard(node)
                .lock()
                .get(&node)
                .map_or(0, |nc| match tier {
                    CacheTier::Memory => nc.mem.used,
                    CacheTier::Ssd => nc.ssd.used,
                }),
        )
    }

    /// Bytes attributed to one user on one node (both tiers).
    pub fn user_used_on(&self, node: NodeId, user: UserId) -> ByteSize {
        ByteSize(
            self.shard(node)
                .lock()
                .get(&node)
                .and_then(|nc| nc.user_used.get(&user).copied())
                .unwrap_or(0),
        )
    }

    /// Nodes with allocated cache state.
    pub fn tracked_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::SimDuration;

    const NOW: SimInstant = SimInstant(0);

    fn attr(user: u64) -> CacheAttr<'static> {
        CacheAttr {
            user: UserId(user),
            table: None,
        }
    }

    fn tattr(user: u64, table: &'static str) -> CacheAttr<'static> {
        CacheAttr {
            user: UserId(user),
            table: Some(table),
        }
    }

    /// "Admit everything" is a pin on the root prefix.
    fn pin_all() -> Vec<CachePin> {
        vec![CachePin {
            path_prefix: "/".into(),
        }]
    }

    /// SSD tier only, no ghost: nothing but the pinned prefix is admitted
    /// (the paper's manual preference rules).
    fn pins_only(kib: u64) -> TieredCache {
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::ZERO,
            ssd_capacity_per_node: ByteSize::kib(kib),
            ghost_capacity: 0,
            ..CacheSettings::default()
        };
        TieredCache::new(
            s,
            vec![CachePin {
                path_prefix: "/hdfs/hot/".into(),
            }],
        )
    }

    fn open(mem_kib: u64, ssd_kib: u64) -> TieredCache {
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::kib(mem_kib),
            ssd_capacity_per_node: ByteSize::kib(ssd_kib),
            ghost_capacity: 1024,
            ..CacheSettings::default()
        };
        TieredCache::new(s, pin_all())
    }

    #[test]
    fn without_a_ghost_only_pins_are_admitted() {
        let c = pins_only(64);
        c.admit(
            NodeId(0),
            "/hdfs/cold/x",
            Bytes::from_static(b"data"),
            attr(1),
            NOW,
        );
        assert!(c.get(NodeId(0), "/hdfs/cold/x", NOW).is_none());
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.tracked_nodes(), 0, "ghostless rejects allocate nothing");
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Bytes::from_static(b"data"),
            attr(1),
            NOW,
        );
        let hit = c
            .get(NodeId(0), "/hdfs/hot/x", NOW)
            .expect("pinned path cached");
        assert_eq!(hit.tier, CacheTier::Ssd, "no memory tier configured");
    }

    #[test]
    fn ghost_admission_requires_second_sighting() {
        let c = TieredCache::new(open(64, 64).settings, Vec::new());
        let blob = Bytes::from_static(b"data");
        // First sighting: registered in the ghost, not cached.
        c.admit(NodeId(0), "/hdfs/t/b0", blob.clone(), attr(1), NOW);
        assert!(c.get(NodeId(0), "/hdfs/t/b0", NOW).is_none());
        assert_eq!(c.stats().ghost_registered, 1);
        assert_eq!(c.stats().rejected, 1);
        // Second sighting: the ghost remembers, so it is admitted.
        c.admit(NodeId(0), "/hdfs/t/b0", blob, attr(1), NOW);
        assert!(c.get(NodeId(0), "/hdfs/t/b0", NOW).is_some());
        assert_eq!(c.stats().ghost_admissions, 1);
    }

    #[test]
    fn pins_bypass_the_ghost_filter() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.mem_capacity_per_node = ByteSize::kib(64);
        s.ssd_capacity_per_node = ByteSize::kib(64);
        let c = TieredCache::new(
            s,
            vec![CachePin {
                path_prefix: "/hdfs/hot/".into(),
            }],
        );
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Bytes::from_static(b"d"),
            attr(1),
            NOW,
        );
        assert!(
            c.get(NodeId(0), "/hdfs/hot/x", NOW).is_some(),
            "first touch"
        );
    }

    #[test]
    fn promotion_to_memory_on_ssd_hit() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/b0",
            Bytes::from(vec![1u8; 100]),
            attr(1),
            NOW,
        );
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize(100));
        // First hit serves from SSD and promotes.
        let h1 = c.get(NodeId(0), "/t/b0", NOW).unwrap();
        assert_eq!(h1.tier, CacheTier::Ssd);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Memory), ByteSize(100));
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize::ZERO);
        // Second hit is served by the memory tier.
        let h2 = c.get(NodeId(0), "/t/b0", NOW).unwrap();
        assert_eq!(h2.tier, CacheTier::Memory);
        let s = c.stats();
        assert_eq!((s.ssd_hits, s.mem_hits, s.promotions), (1, 1, 1));
    }

    #[test]
    fn memory_evictions_demote_back_to_ssd() {
        // Memory holds one 600 B entry; SSD holds both.
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.mem_capacity_per_node = ByteSize(1000);
        s.ssd_capacity_per_node = ByteSize::kib(64);
        let c = TieredCache::new(s, pin_all());
        c.admit(NodeId(0), "/t/a", Bytes::from(vec![1u8; 600]), attr(1), NOW);
        c.admit(NodeId(0), "/t/b", Bytes::from(vec![2u8; 600]), attr(1), NOW);
        assert!(c.get(NodeId(0), "/t/a", NOW).is_some()); // a → memory
        assert!(c.get(NodeId(0), "/t/b", NOW).is_some()); // b → memory, a demoted
        assert_eq!(c.stats().mem_evictions, 1);
        // Both remain cached: a back in SSD, b in memory.
        assert_eq!(
            c.get(NodeId(0), "/t/b", NOW).unwrap().tier,
            CacheTier::Memory
        );
        assert_eq!(c.get(NodeId(0), "/t/a", NOW).unwrap().tier, CacheTier::Ssd);
    }

    #[test]
    fn caches_are_per_node() {
        let c = open(64, 64);
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"data"), attr(1), NOW);
        assert!(c.get(NodeId(1), "/t/x", NOW).is_none());
        assert!(c.get(NodeId(0), "/t/x", NOW).is_some());
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let c = pins_only(1); // 1 KiB SSD tier
        let blob = Bytes::from(vec![0u8; 400]);
        c.admit(NodeId(0), "/hdfs/hot/a", blob.clone(), attr(1), NOW);
        c.admit(NodeId(0), "/hdfs/hot/b", blob.clone(), attr(1), NOW);
        // Touch a so b is LRU.
        assert!(c.get(NodeId(0), "/hdfs/hot/a", NOW).is_some());
        c.admit(NodeId(0), "/hdfs/hot/c", blob, attr(1), NOW);
        assert!(c.get(NodeId(0), "/hdfs/hot/b", NOW).is_none(), "b evicted");
        assert!(c.get(NodeId(0), "/hdfs/hot/a", NOW).is_some());
        assert!(c.get(NodeId(0), "/hdfs/hot/c", NOW).is_some());
        assert!(c.stats().ssd_evictions >= 1);
        assert!(c.used_on(NodeId(0), CacheTier::Ssd).as_u64() <= 1024);
        // Evicted keys land in the ghost... but this cache has none
        // (capacity 0).
        assert_eq!(c.ghost_len_on(NodeId(0)), 0);
    }

    #[test]
    fn evicted_keys_are_remembered_by_the_ghost() {
        let c = open(0, 1); // SSD-only, 1 KiB
        let blob = Bytes::from(vec![0u8; 700]);
        c.admit(NodeId(0), "/t/a", blob.clone(), attr(1), NOW);
        c.admit(NodeId(0), "/t/b", blob, attr(1), NOW); // evicts a
        assert_eq!(c.stats().ssd_evictions, 1);
        assert_eq!(c.ghost_len_on(NodeId(0)), 1);
    }

    #[test]
    fn oversized_object_rejected() {
        let c = pins_only(1);
        c.admit(
            NodeId(0),
            "/hdfs/hot/big",
            Bytes::from(vec![0u8; 4096]),
            attr(1),
            NOW,
        );
        assert!(c.get(NodeId(0), "/hdfs/hot/big", NOW).is_none());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn invalidate_node_clears() {
        let c = open(64, 64);
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"d"), attr(1), NOW);
        c.invalidate_node(NodeId(0));
        assert!(c.get(NodeId(0), "/t/x", NOW).is_none());
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize::ZERO);
    }

    #[test]
    fn invalidate_path_clears_every_node_and_counts() {
        let c = open(64, 64);
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"d"), attr(1), NOW);
        c.admit(NodeId(1), "/t/x", Bytes::from_static(b"d"), attr(1), NOW);
        c.get(NodeId(0), "/t/x", NOW); // promote on node 0 → memory tier
        c.invalidate_path("/t/x");
        assert!(c.get(NodeId(0), "/t/x", NOW).is_none());
        assert!(c.get(NodeId(1), "/t/x", NOW).is_none());
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.user_used_on(NodeId(0), UserId(1)), ByteSize::ZERO);
    }

    #[test]
    fn ttl_expires_entries_on_probe() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.ttl = Some(SimDuration::hours(1));
        let c = TieredCache::new(s, pin_all());
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"d"), attr(1), NOW);
        assert!(c
            .get(NodeId(0), "/t/x", NOW + SimDuration::minutes(59))
            .is_some());
        let later = NOW + SimDuration::hours(2);
        assert!(c.get(NodeId(0), "/t/x", later).is_none(), "expired");
        assert_eq!(c.stats().ttl_expired, 1);
        assert_eq!(c.user_used_on(NodeId(0), UserId(1)), ByteSize::ZERO);
    }

    #[test]
    fn attached_registry_mirrors_stats() {
        let registry = MetricsRegistry::new();
        let c = pins_only(64);
        c.attach_metrics(&registry);
        c.admit(
            NodeId(0),
            "/hdfs/cold/x",
            Bytes::from_static(b"d"),
            attr(1),
            NOW,
        );
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Bytes::from_static(b"d"),
            attr(1),
            NOW,
        );
        c.get(NodeId(0), "/hdfs/hot/x", NOW);
        c.get(NodeId(0), "/hdfs/hot/y", NOW);
        assert_eq!(registry.counter("feisu.cache.rejected").get(), 1);
        assert_eq!(registry.counter("feisu.cache.ssd.hits").get(), 1);
        assert_eq!(registry.counter("feisu.cache.misses").get(), 1);
    }

    #[test]
    fn hit_heavy_workload_keeps_lru_queues_bounded() {
        let c = pins_only(64);
        c.admit(
            NodeId(0),
            "/hdfs/hot/a",
            Bytes::from_static(b"a"),
            attr(1),
            NOW,
        );
        c.admit(
            NodeId(0),
            "/hdfs/hot/b",
            Bytes::from_static(b"b"),
            attr(1),
            NOW,
        );
        for _ in 0..10_000 {
            assert!(c.get(NodeId(0), "/hdfs/hot/a", NOW).is_some());
        }
        // Two live entries: the lazy queue must stay within 2× of that,
        // not grow by one record per hit.
        let qlen = c.lru_queue_len_on(NodeId(0), CacheTier::Ssd);
        assert!(qlen <= 4, "queue leaked: {qlen} records for 2 entries");
        // Compaction must not lose recency: b is still the LRU victim.
        let blob = Bytes::from(vec![0u8; 64 * 1024 - 1]);
        c.admit(NodeId(0), "/hdfs/hot/c", blob, attr(1), NOW);
        assert!(c.get(NodeId(0), "/hdfs/hot/b", NOW).is_none(), "b evicted");
        assert!(c.get(NodeId(0), "/hdfs/hot/a", NOW).is_some());
    }

    #[test]
    fn pure_misses_do_not_allocate_node_state() {
        let c = open(64, 64);
        for n in 0..4_000 {
            assert!(c.get(NodeId(n), "/t/x", NOW).is_none());
        }
        assert_eq!(c.tracked_nodes(), 0, "misses must not allocate NodeCache");
        assert_eq!(c.stats().misses, 4_000);
        // A real admit still allocates exactly one.
        c.admit(NodeId(7), "/t/x", Bytes::from_static(b"d"), attr(1), NOW);
        assert_eq!(c.tracked_nodes(), 1);
        assert!(c.get(NodeId(7), "/t/x", NOW).is_some());
    }

    #[test]
    fn readmit_updates_accounting() {
        let c = open(64, 64);
        c.admit(NodeId(0), "/t/x", Bytes::from(vec![0u8; 100]), attr(1), NOW);
        c.admit(NodeId(0), "/t/x", Bytes::from(vec![0u8; 200]), attr(1), NOW);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize(200));
        assert_eq!(c.user_used_on(NodeId(0), UserId(1)), ByteSize(200));
    }

    #[test]
    fn eviction_under_quota_pressure_sheds_own_entries() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.mem_capacity_per_node = ByteSize::kib(64);
        s.ssd_capacity_per_node = ByteSize::kib(64);
        s.default_user_quota = Some(ByteSize(1000));
        let c = TieredCache::new(s, pin_all());
        let blob = Bytes::from(vec![0u8; 400]);
        c.admit(NodeId(0), "/t/a", blob.clone(), attr(1), NOW);
        c.admit(NodeId(0), "/t/b", blob.clone(), attr(1), NOW);
        // A third 400 B entry would put user 1 at 1200 B: its own LRU
        // entry (a) is evicted; user 2 is untouched.
        c.admit(NodeId(0), "/t/other", blob.clone(), attr(2), NOW);
        c.admit(NodeId(0), "/t/c", blob, attr(1), NOW);
        assert_eq!(c.stats().quota_evictions, 1);
        assert!(
            c.get(NodeId(0), "/t/a", NOW).is_none(),
            "a evicted for quota"
        );
        assert!(c.get(NodeId(0), "/t/b", NOW).is_some());
        assert!(c.get(NodeId(0), "/t/c", NOW).is_some());
        assert!(
            c.get(NodeId(0), "/t/other", NOW).is_some(),
            "user 2 untouched"
        );
        assert!(c.user_used_on(NodeId(0), UserId(1)).as_u64() <= 1000);
    }

    #[test]
    fn zero_quota_user_caches_nothing() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        let c = TieredCache::new(s, pin_all());
        c.set_user_quota(UserId(3), Some(ByteSize::ZERO));
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"d"), attr(3), NOW);
        assert!(c.get(NodeId(0), "/t/x", NOW).is_none());
        let st = c.stats();
        assert_eq!((st.quota_rejections, st.rejected), (1, 1));
        // Clearing the override restores the (unlimited) default.
        c.set_user_quota(UserId(3), None);
        c.admit(NodeId(0), "/t/x", Bytes::from_static(b"d"), attr(3), NOW);
        assert!(c.get(NodeId(0), "/t/x", NOW).is_some());
    }

    #[test]
    fn pin_vs_quota_conflict_quota_wins() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        let c = TieredCache::new(
            s,
            vec![CachePin {
                path_prefix: "/hdfs/hot/".into(),
            }],
        );
        c.set_user_quota(UserId(1), Some(ByteSize(10)));
        // Pinned, but larger than the user's whole quota: rejected.
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Bytes::from(vec![0u8; 100]),
            attr(1),
            NOW,
        );
        assert!(c.get(NodeId(0), "/hdfs/hot/x", NOW).is_none());
        assert_eq!(c.stats().quota_rejections, 1);
    }

    #[test]
    fn table_quota_evicts_same_table_entries() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.default_table_quota = Some(ByteSize(1000));
        let c = TieredCache::new(s, pin_all());
        let blob = Bytes::from(vec![0u8; 400]);
        c.admit(NodeId(0), "/t/a", blob.clone(), tattr(1, "clicks"), NOW);
        c.admit(NodeId(0), "/t/b", blob.clone(), tattr(1, "clicks"), NOW);
        c.admit(NodeId(0), "/u/x", blob.clone(), tattr(1, "views"), NOW);
        c.admit(NodeId(0), "/t/c", blob, tattr(1, "clicks"), NOW);
        assert!(
            c.get(NodeId(0), "/t/a", NOW).is_none(),
            "clicks LRU evicted"
        );
        assert!(
            c.get(NodeId(0), "/u/x", NOW).is_some(),
            "other table untouched"
        );
        assert!(c.table_used_on(NodeId(0), "clicks").as_u64() <= 1000);
    }

    #[test]
    fn ghost_capacity_is_bounded() {
        let mut s = CacheSettings::default();
        s.enabled = true;
        s.ghost_capacity = 8;
        let c = TieredCache::new(s, Vec::new());
        for i in 0..100 {
            c.admit(
                NodeId(0),
                &format!("/t/b{i}"),
                Bytes::from_static(b"d"),
                attr(1),
                NOW,
            );
        }
        assert!(c.ghost_len_on(NodeId(0)) <= 8);
        // An old key fell out of the ghost: offering it again is still a
        // first sighting.
        c.admit(NodeId(0), "/t/b0", Bytes::from_static(b"d"), attr(1), NOW);
        assert!(c.get(NodeId(0), "/t/b0", NOW).is_none());
    }

    #[test]
    fn node_tier_rows_report_state() {
        let c = open(64, 64);
        c.admit(NodeId(0), "/t/x", Bytes::from(vec![0u8; 128]), attr(1), NOW);
        c.get(NodeId(0), "/t/x", NOW); // ssd hit + promotion
        let rows = c.node_tier_rows(NodeId(0));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].tier, "mem");
        assert_eq!(rows[0].entries, 1);
        assert_eq!(rows[0].used_bytes, 128);
        assert_eq!(rows[1].tier, "ssd");
        assert_eq!(rows[1].hits, 1);
        assert_eq!(rows[2].tier, "ghost");
        // An untouched node reports zero rows of the same shape.
        let empty = c.node_tier_rows(NodeId(9));
        assert_eq!(empty.len(), 3);
        assert_eq!(empty[0].entries, 0);
    }
}
