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
//! * **Quotas** — per-user byte budgets per node, attributed from the
//!   session credential that triggered the read. An over-quota user
//!   evicts its own coldest entries first; an entry that cannot fit its
//!   owner's quota is rejected even when pinned.
//! * **TTL + path-keyed invalidation** — entries expire after an
//!   optional TTL, and `invalidate_path` (hooked into every ingest
//!   write) drops a rewritten path from every node so re-ingested data
//!   can never be served stale.
//!
//! Recency and byte accounting of the tiers and the ghost are
//! [`feisu_common::lru::Lru`]; what this file adds is when to evict and
//! where a victim goes.
//!
//! Everything is deterministic given a deterministic call sequence: the
//! structure keeps no wall-clock state, and all statistics are exact
//! totals (atomic counters, bumped where the event happens), so race-free
//! workloads remain bit-identical serial vs concurrent (DESIGN.md §15).

use bytes::Bytes;
use feisu_common::config::CacheSettings;
use feisu_common::hash::FxHashMap;
use feisu_common::lru::Lru;
use feisu_common::{ByteSize, NodeId, SimInstant, UserId};
use feisu_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;
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
/// query read the block.
#[derive(Debug, Clone, Copy)]
pub struct CacheAttr {
    pub user: UserId,
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

/// The cache's own totals behind [`CacheStats`]: relaxed atomics (sums
/// commute, so totals are scheduling-independent for race-free
/// workloads) that an attached registry exposes as `feisu.cache.*`.
#[derive(Debug, Default)]
struct CacheCounters {
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

/// One cached object, weighed by its length; those bytes are attributed
/// to `user` until the entry fully leaves the node.
#[derive(Debug)]
struct Entry {
    data: Bytes,
    inserted_at: SimInstant,
    user: UserId,
}

impl Entry {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

/// One tier's storage on one node.
#[derive(Debug, Default)]
struct TierCache {
    entries: Lru<String, Entry>,
    /// Per-node hit counter (feeds `system.cache`).
    hits: u64,
    /// Per-node eviction counter (capacity + quota).
    evictions: u64,
}

impl TierCache {
    /// Inserts an absent path as the most recently used entry.
    fn insert(&mut self, path: String, e: Entry) {
        let size = e.len();
        let replaced = self.entries.insert(path, e, size);
        debug_assert!(replaced.is_none());
    }
}

/// Shadow LRU of keys only: once-seen and recently-evicted paths.
#[derive(Debug, Default)]
struct GhostLru {
    keys: Lru<String, ()>,
    /// Per-node count of admissions this ghost granted.
    admissions: u64,
}

impl GhostLru {
    /// Records (or refreshes) a key, evicting the oldest beyond capacity.
    fn remember(&mut self, path: &str, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.keys.insert(path.to_string(), (), 0);
        while self.keys.len() > capacity {
            self.keys.pop_lru();
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
}

impl NodeCache {
    fn note_add(&mut self, e: &Entry) {
        *self.user_used.entry(e.user).or_default() += e.len();
    }

    /// Reverses `note_add` when an entry fully leaves the node.
    fn note_drop(&mut self, e: &Entry) {
        if let Some(u) = self.user_used.get_mut(&e.user) {
            *u = u.saturating_sub(e.len());
            if *u == 0 {
                self.user_used.remove(&e.user);
            }
        }
    }

    /// Drops `path` from both tiers and returns how many copies it had.
    fn drop_path(&mut self, path: &str) -> u64 {
        let mut copies = 0;
        let held = [self.mem.entries.remove(path), self.ssd.entries.remove(path)];
        for e in held.iter().flatten() {
            self.note_drop(e);
            copies += 1;
        }
        copies
    }

    /// An evicted entry leaves the node: its key goes to the ghost.
    fn shed(&mut self, key: &str, victim: &Entry, ghost_capacity: usize) {
        self.ghost.remember(key, ghost_capacity);
        self.note_drop(victim);
    }
}

/// The two-tier cache hierarchy with ghost admission and quotas.
pub struct TieredCache {
    settings: CacheSettings,
    pins: Vec<CachePin>,
    /// Per-node state, sharded by node id so probes on different nodes
    /// never contend on one lock.
    shards: Vec<Mutex<FxHashMap<NodeId, NodeCache>>>,
    /// Per-user quotas (absent = unlimited).
    user_quotas: Mutex<FxHashMap<UserId, u64>>,
    counters: CacheCounters,
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
            counters: CacheCounters::default(),
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

    /// Inserts into the SSD tier, evicting its LRU into the ghost until
    /// the entry fits.
    fn insert_into_ssd(&self, nc: &mut NodeCache, path: String, e: Entry) {
        while nc.ssd.entries.weight() + e.len() > self.ssd_cap() {
            let Some((key, victim)) = nc.ssd.entries.pop_lru() else {
                break;
            };
            nc.shed(&key, &victim, self.settings.ghost_capacity);
            nc.ssd.evictions += 1;
            self.counters.ssd_evictions.inc();
        }
        nc.ssd.insert(path, e);
    }

    /// Inserts into the memory tier; evicted memory entries demote to the
    /// SSD tier (or leave the node entirely if they cannot fit there).
    fn insert_into_mem(&self, nc: &mut NodeCache, path: String, e: Entry) {
        while nc.mem.entries.weight() + e.len() > self.mem_cap() {
            let Some((key, demoted)) = nc.mem.entries.pop_lru() else {
                break;
            };
            nc.mem.evictions += 1;
            self.counters.mem_evictions.inc();
            if self.ssd_cap() > 0 && demoted.len() <= self.ssd_cap() {
                self.insert_into_ssd(nc, key, demoted);
            } else {
                nc.shed(&key, &demoted, self.settings.ghost_capacity);
            }
        }
        nc.mem.insert(path, e);
    }

    /// Keys remembered by one node's ghost.
    pub fn ghost_len_on(&self, node: NodeId) -> usize {
        self.shard(node)
            .lock()
            .get(&node)
            .map_or(0, |nc| nc.ghost.keys.len())
    }

    /// Probes `node`'s hierarchy. A hit refreshes recency and may promote
    /// the entry from SSD to memory; a miss leaves the node map untouched
    /// (probing thousands of nodes that never cached anything must not
    /// grow it). `now` drives TTL expiry.
    pub fn get(&self, node: NodeId, path: &str, now: SimInstant) -> Option<CacheHit> {
        let mut shard = self.shard(node).lock();
        let hit = shard
            .get_mut(&node)
            .and_then(|nc| self.probe(nc, path, now));
        if hit.is_none() {
            self.counters.misses.inc();
        }
        hit
    }

    fn probe(&self, nc: &mut NodeCache, path: &str, now: SimInstant) -> Option<CacheHit> {
        // Memory tier first.
        let (tier, held) = if nc.mem.entries.peek(path).is_some() {
            (CacheTier::Memory, &mut nc.mem)
        } else {
            (CacheTier::Ssd, &mut nc.ssd)
        };
        // The refresh is moot for an entry that expires or is promoted:
        // it leaves this tier right below.
        let e = held.entries.get(path)?;
        let data = e.data.clone();
        if self.expired(e, now) {
            let e = held.entries.remove(path).expect("just found");
            nc.note_drop(&e);
            self.counters.ttl_expired.inc();
            return None;
        }
        held.hits += 1;
        // An SSD hit promotes the entry into memory when it fits. That
        // probe was still served by the SSD tier; the *next* one finds
        // the entry in memory.
        let size = data.len() as u64;
        if tier == CacheTier::Ssd && self.mem_cap() > 0 && size <= self.mem_cap() {
            let e = held.entries.remove(path).expect("just found");
            self.insert_into_mem(nc, path.to_string(), e);
            self.counters.promotions.inc();
        }
        match tier {
            CacheTier::Memory => self.counters.mem_hits.inc(),
            CacheTier::Ssd => self.counters.ssd_hits.inc(),
        }
        Some(CacheHit { data, tier })
    }

    /// Offers bytes read from a storage domain for caching on `node`.
    pub fn admit(&self, node: NodeId, path: &str, data: Bytes, attr: CacheAttr, now: SimInstant) {
        let c = &self.counters;
        let ghost_capacity = self.settings.ghost_capacity;
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
            c.rejected.inc();
            return;
        }
        let pinned = self.pinned(path);
        // Without a ghost nothing unpinned can be sighted twice: reject
        // before any node state exists.
        if ghost_capacity == 0 && !pinned {
            c.rejected.inc();
            return;
        }
        // Resolve the quota before taking the shard lock (lock order: the
        // quota map is a leaf, never nested inside a shard).
        let user_quota = self.user_quotas.lock().get(&attr.user).copied();
        // An entry that cannot fit its owner's quota is rejected outright
        // — quota wins even over a pin.
        if user_quota.is_some_and(|q| size > q) {
            c.quota_rejections.inc();
            c.rejected.inc();
            return;
        }

        let mut shard = self.shard(node).lock();
        let nc = shard.entry(node).or_default();
        // Ghost admission: unpinned blocks pass only if the ghost
        // remembers them; first sightings are registered and rejected.
        if !pinned {
            if nc.ghost.recall(path) {
                nc.ghost.admissions += 1;
                c.ghost_admissions.inc();
            } else {
                nc.ghost.remember(path, ghost_capacity);
                c.ghost_registered.inc();
                c.rejected.inc();
                return;
            }
        }

        // Replace an existing copy (concurrent readers may both miss and
        // both offer the same path; last write wins, accounting exact).
        nc.drop_path(path);

        // Quota pressure: the owner sheds its own coldest entries (SSD
        // tier first — those are the coldest by construction).
        let mine = |_: &String, e: &Entry| e.user == attr.user;
        while user_quota
            .is_some_and(|q| nc.user_used.get(&attr.user).copied().unwrap_or(0) + size > q)
        {
            let (key, victim) = if let Some(coldest) = nc.ssd.entries.pop_lru_where(mine) {
                nc.ssd.evictions += 1;
                c.ssd_evictions.inc();
                coldest
            } else if let Some(coldest) = nc.mem.entries.pop_lru_where(mine) {
                nc.mem.evictions += 1;
                c.mem_evictions.inc();
                coldest
            } else {
                break;
            };
            nc.shed(&key, &victim, ghost_capacity);
            c.quota_evictions.inc();
        }

        let entry = Entry {
            data,
            inserted_at: now,
            user: attr.user,
        };
        nc.note_add(&entry);
        if enter_mem {
            self.insert_into_mem(nc, path.to_string(), entry);
        } else {
            self.insert_into_ssd(nc, path.to_string(), entry);
        }
    }

    /// Drops `path` from every node's tiers (ingest rewrote the object).
    pub fn invalidate_path(&self, path: &str) {
        for shard in &self.shards {
            for nc in shard.lock().values_mut() {
                self.counters.invalidations.add(nc.drop_path(path));
            }
        }
    }

    /// Has `registry` expose the cache's own counters as `feisu.cache.*`.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let c = &self.counters;
        for (name, counter) in [
            ("mem.hits", &c.mem_hits),
            ("ssd.hits", &c.ssd_hits),
            ("misses", &c.misses),
            ("rejected", &c.rejected),
            ("ghost.registered", &c.ghost_registered),
            ("ghost.admissions", &c.ghost_admissions),
            ("quota.rejections", &c.quota_rejections),
            ("mem.evictions", &c.mem_evictions),
            ("ssd.evictions", &c.ssd_evictions),
            ("quota.evictions", &c.quota_evictions),
            ("ttl_expired", &c.ttl_expired),
            ("invalidations", &c.invalidations),
            ("promotions", &c.promotions),
        ] {
            registry.adopt_counter(&format!("feisu.cache.{name}"), counter.clone());
        }
    }

    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            mem_hits: c.mem_hits.get(),
            ssd_hits: c.ssd_hits.get(),
            misses: c.misses.get(),
            rejected: c.rejected.get(),
            ghost_registered: c.ghost_registered.get(),
            ghost_admissions: c.ghost_admissions.get(),
            quota_rejections: c.quota_rejections.get(),
            mem_evictions: c.mem_evictions.get(),
            ssd_evictions: c.ssd_evictions.get(),
            quota_evictions: c.quota_evictions.get(),
            ttl_expired: c.ttl_expired.get(),
            invalidations: c.invalidations.get(),
            promotions: c.promotions.get(),
        }
    }

    /// `system.cache` rows for one node: `mem`, `ssd`, `ghost`.
    pub fn node_tier_rows(&self, node: NodeId) -> Vec<CacheTierRow> {
        let shard = self.shard(node).lock();
        let nc = shard.get(&node);
        let tier = |t: Option<&TierCache>, cap: u64, label: &'static str| CacheTierRow {
            tier: label,
            entries: t.map_or(0, |t| t.entries.len()),
            used_bytes: t.map_or(0, |t| t.entries.weight()),
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

    /// Sets (`Some`) or clears (`None`, back to unlimited) a user's
    /// per-node byte quota.
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

    /// Bytes held by one tier on one node.
    pub fn used_on(&self, node: NodeId, tier: CacheTier) -> ByteSize {
        ByteSize(
            self.shard(node)
                .lock()
                .get(&node)
                .map_or(0, |nc| match tier {
                    CacheTier::Memory => nc.mem.entries.weight(),
                    CacheTier::Ssd => nc.ssd.entries.weight(),
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

    fn attr(user: u64) -> CacheAttr {
        CacheAttr { user: UserId(user) }
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
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::kib(64),
            ssd_capacity_per_node: ByteSize::kib(64),
            ..CacheSettings::default()
        };
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
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize(1000),
            ssd_capacity_per_node: ByteSize::kib(64),
            ..CacheSettings::default()
        };
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
        let s = CacheSettings {
            enabled: true,
            ttl: Some(SimDuration::hours(1)),
            ..CacheSettings::default()
        };
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
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::kib(64),
            ssd_capacity_per_node: ByteSize::kib(64),
            ..CacheSettings::default()
        };
        let c = TieredCache::new(s, pin_all());
        c.set_user_quota(UserId(1), Some(ByteSize(1000)));
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
        let s = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
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
        let s = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
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
    fn ghost_capacity_is_bounded() {
        let s = CacheSettings {
            enabled: true,
            ghost_capacity: 8,
            ..CacheSettings::default()
        };
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
