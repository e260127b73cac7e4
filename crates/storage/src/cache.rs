//! Multi-tier per-node block cache (paper §IV-B, rebuilt), kept per
//! column chunk.
//!
//! The paper's SSD cache admits by manually curated path prefixes (fully
//! ad-hoc workloads saw >80% miss rates with automatic policies), and
//! serves column locality: a few columns of a wide table are hit again and
//! again (Fig. 4). This subsystem keeps the prefix rules as *pin
//! overrides* and, like "Data Caching for Enterprise-Grade Petabyte-Scale
//! OLAP" (PAPERS.md), caches what reads touch rather than whole files:
//!
//! * **Chunks** — a block is its metadata chunk (header + footer, chunk
//!   0) and one chunk per column (column `i` is chunk `i + 1`); any other
//!   object is one chunk. Residency, weight, recency and tier are kept per
//!   chunk, over one shared copy of the object's bytes.
//! * **Two tiers per node** — DRAM in front of SSD. Chunks enter at the
//!   SSD tier; an SSD hit promotes every SSD-resident chunk of its object,
//!   and memory evictions demote back to SSD.
//! * **Ghost-LRU admission, per object** — an unpinned object is admitted
//!   on its *second* sighting within a per-node shadow LRU of paths, so
//!   one-hit-wonder scans never evict hot data. The fetch is the whole
//!   object, so it enters whole; the chunks the admitting read did not
//!   touch enter *speculative*.
//! * **Speculative chunks leave first** — in each tier every speculative
//!   chunk is evicted, coldest first, before any touched chunk. A hit makes
//!   a speculative chunk an ordinary one.
//! * **Sharded locks** — node state is spread over [`SHARDS`] mutexes keyed
//!   by node id; a probe takes its node's lock once, whatever its chunks.
//! * **Quotas** — per-user budgets of chunk bytes per node, attributed from
//!   the session credential that triggered the read. An over-quota user
//!   evicts its own coldest chunks first; an object that cannot fit its
//!   owner's quota is rejected even when pinned.
//! * **TTL + path-keyed invalidation** — an object's chunks expire an
//!   optional TTL after its admission, and `invalidate_path` (hooked into
//!   every ingest write) drops every chunk of a path from every node.
//!
//! Recency and byte accounting are [`feisu_common::lru::Lru`]; what this
//! file adds is when to evict and where a victim goes. Everything is
//! deterministic given a deterministic call sequence, and all statistics
//! are exact totals, so race-free workloads remain bit-identical serial vs
//! concurrent (DESIGN.md §15).

use bytes::Bytes;
use feisu_common::config::CacheSettings;
use feisu_common::hash::FxHashMap;
use feisu_common::lru::Lru;
use feisu_common::{ByteSize, NodeId, UserId};
use feisu_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Number of lock shards the per-node state is spread over. Node ids map
/// to shards by modulo, so any two distinct nodes in a small cluster get
/// distinct locks.
pub const SHARDS: usize = 64;

/// Which tier of the hierarchy holds (or served) a chunk.
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

/// A probe of an object the node holds chunks of: the object's bytes and,
/// per chunk asked for, the tier that served it (`None`: not resident).
#[derive(Debug, Clone)]
pub struct CacheHit {
    pub data: Bytes,
    pub tiers: Vec<Option<CacheTier>>,
}

/// An object fetched whole from its domain and offered to a node's cache.
#[derive(Debug, Clone)]
pub struct Offer {
    pub data: Bytes,
    /// Byte length of each chunk.
    pub chunks: Vec<u64>,
    /// The chunks the read touched; the others enter as speculative.
    pub touched: Vec<usize>,
}

impl Offer {
    /// An object that is one chunk, touched by the read.
    pub fn whole(data: Bytes) -> Offer {
        let (chunks, touched) = (vec![data.len() as u64], vec![0]);
        Offer {
            data,
            chunks,
            touched,
        }
    }
}

/// One `system.cache` introspection row (per node, per tier).
#[derive(Debug, Clone)]
pub struct CacheTierRow {
    /// `"mem"`, `"ssd"`, `"ghost"` or the footer cache's `"meta"`.
    pub tier: &'static str,
    /// Resident chunks (the ghost: remembered paths; `meta`: footers).
    pub entries: usize,
    pub used_bytes: u64,
    pub capacity_bytes: u64,
    /// For the ghost row: admissions it granted.
    pub hits: u64,
    pub evictions: u64,
}

/// Exact cluster-wide cache statistics. Hits, misses, evictions,
/// promotions, expiries and invalidations count chunks; admission
/// outcomes (`rejected`, the ghost's and the quota's) count offers.
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
    /// Admissions granted because the ghost remembered the path.
    pub ghost_admissions: u64,
    /// Offers rejected because the object cannot fit its owner's quota.
    pub quota_rejections: u64,
    pub mem_evictions: u64,
    pub ssd_evictions: u64,
    /// Evictions forced by an owner's byte quota rather than tier
    /// capacity (also counted in the per-tier eviction totals).
    pub quota_evictions: u64,
    /// Chunks dropped by path-keyed invalidation (ingest overwrites).
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
    invalidations: Arc<Counter>,
    promotions: Arc<Counter>,
}

impl CacheCounters {
    fn hits(&self, tier: CacheTier) -> &Counter {
        match tier {
            CacheTier::Memory => &self.mem_hits,
            CacheTier::Ssd => &self.ssd_hits,
        }
    }

    fn evictions(&self, tier: CacheTier) -> &Counter {
        match tier {
            CacheTier::Memory => &self.mem_evictions,
            CacheTier::Ssd => &self.ssd_evictions,
        }
    }
}

/// One chunk of a cached object on one node.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    len: u64,
    /// `None`: not resident on the node.
    tier: Option<CacheTier>,
    speculative: bool,
}

impl Chunk {
    fn new(len: u64) -> Chunk {
        let (tier, speculative) = (None, false);
        Chunk {
            len,
            tier,
            speculative,
        }
    }
}

/// A cached object on one node: its bytes, shared by its chunks, and each
/// chunk's residency. The entry leaves the node with its last chunk.
#[derive(Debug)]
struct Entry {
    path: Arc<str>,
    data: Bytes,
    chunks: Box<[Chunk]>,
    /// The user the resident chunks' bytes are attributed to.
    user: UserId,
}

impl Entry {
    fn resident(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(|c| c.tier.is_some())
    }
}

/// A chunk's recency record: its entry's id, then its index.
type ChunkKey = (u64, usize);

/// One tier of one node: its resident chunks in recency order, the
/// speculative ones in a list of their own, so the coldest speculative
/// chunk is found without a scan.
#[derive(Debug, Default)]
struct Tier {
    ordinary: Lru<ChunkKey, ()>,
    speculative: Lru<ChunkKey, ()>,
    /// Per-node chunk hits and evictions (capacity + quota), for
    /// `system.cache`.
    hits: u64,
    evictions: u64,
}

impl Tier {
    fn list(&mut self, speculative: bool) -> &mut Lru<ChunkKey, ()> {
        match speculative {
            true => &mut self.speculative,
            false => &mut self.ordinary,
        }
    }

    fn used(&self) -> u64 {
        self.ordinary.weight() + self.speculative.weight()
    }

    fn len(&self) -> usize {
        self.ordinary.len() + self.speculative.len()
    }

    /// Takes the coldest chunk `accept` takes, any speculative one first.
    fn pop_coldest(&mut self, accept: impl Fn(&ChunkKey) -> bool) -> Option<ChunkKey> {
        let take = |l: &mut Lru<ChunkKey, ()>| l.pop_lru_where(|k, _| accept(k)).map(|(k, _)| k);
        take(&mut self.speculative).or_else(|| take(&mut self.ordinary))
    }
}

/// Shadow LRU of paths only: once-seen and recently-evicted objects.
#[derive(Debug, Default)]
struct GhostLru {
    keys: Lru<Arc<str>, ()>,
    /// Per-node count of admissions this ghost granted.
    admissions: u64,
}

impl GhostLru {
    /// Records (or refreshes) a path, evicting the oldest beyond capacity.
    fn remember(&mut self, path: Arc<str>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.keys.insert(path, (), 0);
        while self.keys.len() > capacity {
            self.keys.pop_lru();
        }
    }

    /// Removes and reports whether the path was remembered.
    fn recall(&mut self, path: &str) -> bool {
        self.keys.remove(path).is_some()
    }
}

/// All cache state of one node.
#[derive(Debug, Default)]
struct NodeCache {
    /// Entries by id, and the id of each path's; ids are never reused.
    entries: FxHashMap<u64, Entry>,
    ids: FxHashMap<Arc<str>, u64>,
    next_id: u64,
    mem: Tier,
    ssd: Tier,
    ghost: GhostLru,
    /// Resident chunk bytes attributed per user across both tiers.
    user_used: FxHashMap<UserId, u64>,
}

impl NodeCache {
    fn tier(&mut self, tier: CacheTier) -> &mut Tier {
        match tier {
            CacheTier::Memory => &mut self.mem,
            CacheTier::Ssd => &mut self.ssd,
        }
    }

    /// Moves chunk `i` of entry `id` to the hot end of tier `to`, or off
    /// the node (`None`), speculative mark and all.
    fn place(&mut self, id: u64, i: usize, to: Option<CacheTier>) {
        let e = self.entries.get_mut(&id).expect("live entry");
        let Chunk {
            len,
            tier: from,
            speculative,
        } = e.chunks[i];
        e.chunks[i].tier = to;
        let used = self.user_used.entry(e.user).or_default();
        match (from, to) {
            (None, Some(_)) => *used += len,
            (Some(_), None) => *used -= len,
            _ => {}
        }
        if *used == 0 {
            self.user_used.remove(&e.user);
        }
        if let Some(from) = from {
            self.tier(from).list(speculative).remove(&(id, i));
        }
        if let Some(to) = to {
            self.tier(to).list(speculative).insert((id, i), (), len);
        }
    }

    /// A hit: resident chunk `i` of entry `id` becomes the hottest ordinary
    /// chunk of its tier.
    fn touch(&mut self, id: u64, i: usize) {
        let chunk = &mut self.entries.get_mut(&id).expect("live entry").chunks[i];
        let was_speculative = std::mem::replace(&mut chunk.speculative, false);
        let (len, tier) = (chunk.len, chunk.tier.expect("resident"));
        let tier = self.tier(tier);
        if was_speculative {
            tier.speculative.remove(&(id, i));
            tier.ordinary.insert((id, i), (), len);
        } else {
            tier.ordinary.get(&(id, i));
        }
    }

    /// Evicts chunk `i` of entry `id` from the node; an entry left with no
    /// chunk goes, and its path to the ghost.
    fn evict(&mut self, id: u64, i: usize, ghost_capacity: usize) {
        self.place(id, i, None);
        if self.entries[&id].resident().next().is_none() {
            let path = self.remove_entry(id);
            self.ghost.remember(path, ghost_capacity);
        }
    }

    /// The coldest chunk of `user`'s outside entry `keep`, SSD tier first —
    /// those are the coldest by construction.
    fn pop_owned(&mut self, user: UserId, keep: u64) -> Option<(ChunkKey, CacheTier)> {
        let entries = &self.entries;
        let owned = |&(id, _): &ChunkKey| id != keep && entries[&id].user == user;
        let ssd = self.ssd.pop_coldest(owned).map(|k| (k, CacheTier::Ssd));
        ssd.or_else(|| self.mem.pop_coldest(owned).map(|k| (k, CacheTier::Memory)))
    }

    fn insert_entry(&mut self, entry: Entry) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(entry.path.clone(), id);
        self.entries.insert(id, entry);
        id
    }

    fn remove_entry(&mut self, id: u64) -> Arc<str> {
        let path = self.entries.remove(&id).expect("live entry").path;
        self.ids.remove(&path);
        path
    }

    /// Drops entry `id` with every chunk of it and returns how many chunks
    /// were resident.
    fn drop_entry(&mut self, id: u64) -> u64 {
        let resident = self.entries[&id].resident().count() as u64;
        for i in 0..self.entries[&id].chunks.len() {
            self.place(id, i, None);
        }
        self.remove_entry(id);
        resident
    }
}

/// The two-tier cache hierarchy with ghost admission and quotas.
pub struct TieredCache {
    settings: CacheSettings,
    /// Pin rules: paths with one of these prefixes bypass the admission
    /// filter (the paper's manual §IV-B preferences, surviving as
    /// overrides).
    pins: Vec<String>,
    /// Per-node state, sharded by node id so probes on different nodes
    /// never contend on one lock.
    shards: Vec<Mutex<FxHashMap<NodeId, NodeCache>>>,
    /// Per-user quotas (absent = unlimited).
    user_quotas: Mutex<FxHashMap<UserId, u64>>,
    counters: CacheCounters,
}

impl TieredCache {
    pub fn new(settings: CacheSettings, pins: Vec<String>) -> Self {
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
        self.pins.iter().any(|p| path.starts_with(p.as_str()))
    }

    fn shard(&self, node: NodeId) -> &Mutex<FxHashMap<NodeId, NodeCache>> {
        &self.shards[node.0 as usize % SHARDS]
    }

    fn cap(&self, tier: CacheTier) -> u64 {
        match tier {
            CacheTier::Memory => self.settings.mem_capacity_per_node.as_u64(),
            CacheTier::Ssd => self.settings.ssd_capacity_per_node.as_u64(),
        }
    }

    /// Evicts from `tier` until it holds no more than its capacity,
    /// speculative chunks first, coldest first. A memory victim demotes to
    /// the SSD tier when it fits there; any other victim leaves the node.
    fn shrink(&self, nc: &mut NodeCache, tier: CacheTier) {
        let mut demoted = false;
        while nc.tier(tier).used() > self.cap(tier) {
            let Some(k) = nc.tier(tier).pop_coldest(|_| true) else {
                break;
            };
            nc.tier(tier).evictions += 1;
            self.counters.evictions(tier).inc();
            let ((id, i), ssd) = (k, self.cap(CacheTier::Ssd));
            if tier == CacheTier::Memory && ssd > 0 && nc.entries[&id].chunks[i].len <= ssd {
                nc.place(id, i, Some(CacheTier::Ssd));
                demoted = true;
            } else {
                nc.evict(id, i, self.settings.ghost_capacity);
            }
        }
        if demoted {
            self.shrink(nc, CacheTier::Ssd);
        }
    }

    /// Keys remembered by one node's ghost.
    pub fn ghost_len_on(&self, node: NodeId) -> usize {
        self.shard(node)
            .lock()
            .get(&node)
            .map_or(0, |nc| nc.ghost.keys.len())
    }

    /// Probes `node` for the chunks `touched` of `path`: `None` when the
    /// node holds none of the object, else its bytes and the tier of each
    /// chunk asked for. A hit refreshes the chunk, clears its speculative
    /// mark, and from the SSD tier promotes the object's SSD-resident
    /// chunks; a miss on every chunk leaves the node map untouched
    /// (probing thousands of nodes that never cached anything must not
    /// grow it).
    pub fn get(&self, node: NodeId, path: &str, touched: &[usize]) -> Option<CacheHit> {
        let mut shard = self.shard(node).lock();
        let hit = shard
            .get_mut(&node)
            .and_then(|nc| self.probe(nc, path, touched));
        if hit.is_none() {
            self.counters.misses.add(touched.len() as u64);
        }
        hit
    }

    fn probe(&self, nc: &mut NodeCache, path: &str, touched: &[usize]) -> Option<CacheHit> {
        let id = *nc.ids.get(path)?;
        let data = nc.entries[&id].data.clone();
        let mut tiers = Vec::with_capacity(touched.len());
        for &i in touched {
            let tier = nc.entries[&id].chunks.get(i).and_then(|c| c.tier);
            match tier {
                Some(t) => {
                    nc.tier(t).hits += 1;
                    self.counters.hits(t).inc();
                    nc.touch(id, i);
                }
                None => self.counters.misses.inc(),
            }
            tiers.push(tier);
        }
        if tiers.contains(&Some(CacheTier::Ssd)) {
            self.promote(nc, id);
        }
        Some(CacheHit { data, tiers })
    }

    /// An SSD hit: every SSD-resident chunk of entry `id` moves to
    /// the memory tier, if together they fit it. The probe was still
    /// served by the SSD tier; the *next* one finds them in memory.
    fn promote(&self, nc: &mut NodeCache, id: u64) {
        let on_ssd = |c: &Chunk| c.tier == Some(CacheTier::Ssd);
        let chunks = &nc.entries[&id].chunks;
        let bytes: u64 = chunks.iter().filter(|c| on_ssd(c)).map(|c| c.len).sum();
        let mem = self.cap(CacheTier::Memory);
        if mem == 0 || bytes > mem {
            return;
        }
        for i in 0..chunks.len() {
            if on_ssd(&nc.entries[&id].chunks[i]) {
                nc.place(id, i, Some(CacheTier::Memory));
                self.counters.promotions.inc();
            }
        }
        self.shrink(nc, CacheTier::Memory);
    }

    /// Offers an object read from a storage domain for caching on `node`,
    /// its bytes charged to `user`'s quota (the user whose query read it).
    /// An entry of the same layout and user the node holds already is
    /// filled: its missing chunks enter, with no second admission.
    pub fn admit(&self, node: NodeId, path: &str, offer: Offer, user: UserId) {
        let c = &self.counters;
        let ghost_capacity = self.settings.ghost_capacity;
        let size: u64 = offer.chunks.iter().sum();
        // Chunks enter at the SSD tier (they climb to memory on a hit); with
        // no SSD tier configured, at the memory tier.
        let enter = match self.cap(CacheTier::Ssd) {
            0 => CacheTier::Memory,
            _ => CacheTier::Ssd,
        };
        if size > self.cap(enter) {
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
        let user_quota = self.user_quotas.lock().get(&user).copied();
        // An object that cannot fit its owner's quota is rejected outright
        // — quota wins even over a pin.
        if user_quota.is_some_and(|q| size > q) {
            c.quota_rejections.inc();
            c.rejected.inc();
            return;
        }

        let mut shard = self.shard(node).lock();
        let nc = shard.entry(node).or_default();
        let held = nc.ids.get(path).copied();
        let same = held.filter(|id| {
            let e = &nc.entries[id];
            e.user == user
                && e.chunks
                    .iter()
                    .map(|c| c.len)
                    .eq(offer.chunks.iter().copied())
        });
        let id = match same {
            Some(id) => id,
            None => {
                // Ghost admission: unpinned objects pass only if the ghost
                // remembers them; first sightings are registered and
                // rejected.
                if !pinned {
                    if nc.ghost.recall(path) {
                        nc.ghost.admissions += 1;
                        c.ghost_admissions.inc();
                    } else {
                        nc.ghost.remember(path.into(), ghost_capacity);
                        c.ghost_registered.inc();
                        c.rejected.inc();
                        return;
                    }
                }
                // Replace a copy of another layout (concurrent readers may
                // both miss and both offer; last write wins).
                if let Some(old) = held {
                    nc.drop_entry(old);
                }
                nc.insert_entry(Entry {
                    path: path.into(),
                    data: offer.data,
                    chunks: offer.chunks.iter().map(|&len| Chunk::new(len)).collect(),
                    user,
                })
            }
        };

        // Quota pressure: the owner sheds its own coldest chunks.
        let missing = nc.entries[&id].chunks.iter().filter(|c| c.tier.is_none());
        let added: u64 = missing.map(|c| c.len).sum();
        let used = |nc: &NodeCache| nc.user_used.get(&user).copied().unwrap_or(0);
        while user_quota.is_some_and(|q| used(nc) + added > q) {
            let Some(((victim, i), tier)) = nc.pop_owned(user, id) else {
                break;
            };
            nc.tier(tier).evictions += 1;
            c.evictions(tier).inc();
            c.quota_evictions.inc();
            nc.evict(victim, i, ghost_capacity);
        }

        for i in 0..nc.entries[&id].chunks.len() {
            let e = nc.entries.get_mut(&id).expect("live entry");
            if e.chunks[i].tier.is_none() {
                e.chunks[i].speculative = !offer.touched.contains(&i);
                nc.place(id, i, Some(enter));
            }
        }
        self.shrink(nc, enter);
    }

    /// Drops every chunk of `path` from every node (ingest rewrote the
    /// object).
    pub fn invalidate_path(&self, path: &str) {
        for shard in &self.shards {
            for nc in shard.lock().values_mut() {
                if let Some(&id) = nc.ids.get(path) {
                    self.counters.invalidations.add(nc.drop_entry(id));
                }
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
            invalidations: c.invalidations.get(),
            promotions: c.promotions.get(),
        }
    }

    /// `system.cache` rows for one node: `mem`, `ssd`, `ghost`.
    pub fn node_tier_rows(&self, node: NodeId) -> Vec<CacheTierRow> {
        let shard = self.shard(node).lock();
        let nc = shard.get(&node);
        let tier = |t: Option<&Tier>, cap: u64, label: &'static str| CacheTierRow {
            tier: label,
            entries: t.map_or(0, Tier::len),
            used_bytes: t.map_or(0, Tier::used),
            capacity_bytes: cap,
            hits: t.map_or(0, |t| t.hits),
            evictions: t.map_or(0, |t| t.evictions),
        };
        vec![
            tier(nc.map(|n| &n.mem), self.cap(CacheTier::Memory), "mem"),
            tier(nc.map(|n| &n.ssd), self.cap(CacheTier::Ssd), "ssd"),
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

    /// Chunk bytes held by one tier on one node.
    pub fn used_on(&self, node: NodeId, tier: CacheTier) -> ByteSize {
        let mut shard = self.shard(node).lock();
        ByteSize(shard.get_mut(&node).map_or(0, |nc| nc.tier(tier).used()))
    }

    /// Chunk bytes attributed to one user on one node (both tiers).
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

    /// "Admit everything" is a pin on the root prefix.
    fn pin_all() -> Vec<String> {
        vec!["/".into()]
    }

    /// SSD tier only, no ghost: nothing but the pinned prefix is admitted
    /// (the paper's manual preference rules).
    fn pins_only(kib: u64) -> TieredCache {
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::ZERO,
            ssd_capacity_per_node: ByteSize::kib(kib),
            ghost_capacity: 0,
        };
        TieredCache::new(s, vec!["/hdfs/hot/".into()])
    }

    fn open(mem_kib: u64, ssd_kib: u64) -> TieredCache {
        let s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::kib(mem_kib),
            ssd_capacity_per_node: ByteSize::kib(ssd_kib),
            ghost_capacity: 1024,
        };
        TieredCache::new(s, pin_all())
    }

    #[test]
    fn without_a_ghost_only_pins_are_admitted() {
        let c = pins_only(64);
        c.admit(
            NodeId(0),
            "/hdfs/cold/x",
            Offer::whole(Bytes::from_static(b"data")),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/hdfs/cold/x", &[0]).is_none());
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.tracked_nodes(), 0, "ghostless rejects allocate nothing");
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Offer::whole(Bytes::from_static(b"data")),
            UserId(1),
        );
        let hit = c
            .get(NodeId(0), "/hdfs/hot/x", &[0])
            .expect("pinned path cached");
        assert_eq!(
            hit.tiers,
            [Some(CacheTier::Ssd)],
            "no memory tier configured"
        );
    }

    #[test]
    fn ghost_admission_requires_second_sighting() {
        let c = TieredCache::new(open(64, 64).settings, Vec::new());
        let blob = Bytes::from_static(b"data");
        // First sighting: registered in the ghost, not cached.
        c.admit(
            NodeId(0),
            "/hdfs/t/b0",
            Offer::whole(blob.clone()),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/hdfs/t/b0", &[0]).is_none());
        assert_eq!(c.stats().ghost_registered, 1);
        assert_eq!(c.stats().rejected, 1);
        // Second sighting: the ghost remembers, so it is admitted.
        c.admit(NodeId(0), "/hdfs/t/b0", Offer::whole(blob), UserId(1));
        assert!(c.get(NodeId(0), "/hdfs/t/b0", &[0]).is_some());
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
        let c = TieredCache::new(s, vec!["/hdfs/hot/".into()]);
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        assert!(
            c.get(NodeId(0), "/hdfs/hot/x", &[0]).is_some(),
            "first touch"
        );
    }

    #[test]
    fn promotion_to_memory_on_ssd_hit() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/b0",
            Offer::whole(Bytes::from(vec![1u8; 100])),
            UserId(1),
        );
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize(100));
        // First hit serves from SSD and promotes.
        let h1 = c.get(NodeId(0), "/t/b0", &[0]).unwrap();
        assert_eq!(h1.tiers, [Some(CacheTier::Ssd)]);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Memory), ByteSize(100));
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize::ZERO);
        // Second hit is served by the memory tier.
        let h2 = c.get(NodeId(0), "/t/b0", &[0]).unwrap();
        assert_eq!(h2.tiers, [Some(CacheTier::Memory)]);
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
        c.admit(
            NodeId(0),
            "/t/a",
            Offer::whole(Bytes::from(vec![1u8; 600])),
            UserId(1),
        );
        c.admit(
            NodeId(0),
            "/t/b",
            Offer::whole(Bytes::from(vec![2u8; 600])),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/t/a", &[0]).is_some()); // a → memory
        assert!(c.get(NodeId(0), "/t/b", &[0]).is_some()); // b → memory, a demoted
        assert_eq!(c.stats().mem_evictions, 1);
        // Both remain cached: a back in SSD, b in memory.
        assert_eq!(
            c.get(NodeId(0), "/t/b", &[0]).unwrap().tiers[0],
            Some(CacheTier::Memory)
        );
        assert_eq!(
            c.get(NodeId(0), "/t/a", &[0]).unwrap().tiers[0],
            Some(CacheTier::Ssd)
        );
    }

    #[test]
    fn caches_are_per_node() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from_static(b"data")),
            UserId(1),
        );
        assert!(c.get(NodeId(1), "/t/x", &[0]).is_none());
        assert!(c.get(NodeId(0), "/t/x", &[0]).is_some());
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let c = pins_only(1); // 1 KiB SSD tier
        let blob = Bytes::from(vec![0u8; 400]);
        c.admit(
            NodeId(0),
            "/hdfs/hot/a",
            Offer::whole(blob.clone()),
            UserId(1),
        );
        c.admit(
            NodeId(0),
            "/hdfs/hot/b",
            Offer::whole(blob.clone()),
            UserId(1),
        );
        // Touch a so b is LRU.
        assert!(c.get(NodeId(0), "/hdfs/hot/a", &[0]).is_some());
        c.admit(NodeId(0), "/hdfs/hot/c", Offer::whole(blob), UserId(1));
        assert!(c.get(NodeId(0), "/hdfs/hot/b", &[0]).is_none(), "b evicted");
        assert!(c.get(NodeId(0), "/hdfs/hot/a", &[0]).is_some());
        assert!(c.get(NodeId(0), "/hdfs/hot/c", &[0]).is_some());
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
        c.admit(NodeId(0), "/t/a", Offer::whole(blob.clone()), UserId(1));
        c.admit(NodeId(0), "/t/b", Offer::whole(blob), UserId(1)); // evicts a
        assert_eq!(c.stats().ssd_evictions, 1);
        assert_eq!(c.ghost_len_on(NodeId(0)), 1);
    }

    #[test]
    fn oversized_object_rejected() {
        let c = pins_only(1);
        c.admit(
            NodeId(0),
            "/hdfs/hot/big",
            Offer::whole(Bytes::from(vec![0u8; 4096])),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/hdfs/hot/big", &[0]).is_none());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn invalidate_path_clears_every_node_and_counts() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        c.admit(
            NodeId(1),
            "/t/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        c.get(NodeId(0), "/t/x", &[0]); // promote on node 0 → memory tier
        c.invalidate_path("/t/x");
        assert!(c.get(NodeId(0), "/t/x", &[0]).is_none());
        assert!(c.get(NodeId(1), "/t/x", &[0]).is_none());
        assert_eq!(c.stats().invalidations, 2);
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
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        c.get(NodeId(0), "/hdfs/hot/x", &[0]);
        c.get(NodeId(0), "/hdfs/hot/y", &[0]);
        assert_eq!(registry.counter("feisu.cache.rejected").get(), 1);
        assert_eq!(registry.counter("feisu.cache.ssd.hits").get(), 1);
        assert_eq!(registry.counter("feisu.cache.misses").get(), 1);
    }

    #[test]
    fn pure_misses_do_not_allocate_node_state() {
        let c = open(64, 64);
        for n in 0..4_000 {
            assert!(c.get(NodeId(n), "/t/x", &[0]).is_none());
        }
        assert_eq!(c.tracked_nodes(), 0, "misses must not allocate NodeCache");
        assert_eq!(c.stats().misses, 4_000);
        // A real admit still allocates exactly one.
        c.admit(
            NodeId(7),
            "/t/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        assert_eq!(c.tracked_nodes(), 1);
        assert!(c.get(NodeId(7), "/t/x", &[0]).is_some());
    }

    #[test]
    fn readmit_updates_accounting() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from(vec![0u8; 100])),
            UserId(1),
        );
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from(vec![0u8; 200])),
            UserId(1),
        );
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
        c.admit(NodeId(0), "/t/a", Offer::whole(blob.clone()), UserId(1));
        c.admit(NodeId(0), "/t/b", Offer::whole(blob.clone()), UserId(1));
        // A third 400 B entry would put user 1 at 1200 B: its own LRU
        // entry (a) is evicted; user 2 is untouched.
        c.admit(NodeId(0), "/t/other", Offer::whole(blob.clone()), UserId(2));
        c.admit(NodeId(0), "/t/c", Offer::whole(blob), UserId(1));
        assert_eq!(c.stats().quota_evictions, 1);
        assert!(
            c.get(NodeId(0), "/t/a", &[0]).is_none(),
            "a evicted for quota"
        );
        assert!(c.get(NodeId(0), "/t/b", &[0]).is_some());
        assert!(c.get(NodeId(0), "/t/c", &[0]).is_some());
        assert!(
            c.get(NodeId(0), "/t/other", &[0]).is_some(),
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
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(3),
        );
        assert!(c.get(NodeId(0), "/t/x", &[0]).is_none());
        let st = c.stats();
        assert_eq!((st.quota_rejections, st.rejected), (1, 1));
        // Clearing the override restores the (unlimited) default.
        c.set_user_quota(UserId(3), None);
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(3),
        );
        assert!(c.get(NodeId(0), "/t/x", &[0]).is_some());
    }

    #[test]
    fn pin_vs_quota_conflict_quota_wins() {
        let s = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
        let c = TieredCache::new(s, vec!["/hdfs/hot/".into()]);
        c.set_user_quota(UserId(1), Some(ByteSize(10)));
        // Pinned, but larger than the user's whole quota: rejected.
        c.admit(
            NodeId(0),
            "/hdfs/hot/x",
            Offer::whole(Bytes::from(vec![0u8; 100])),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/hdfs/hot/x", &[0]).is_none());
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
                Offer::whole(Bytes::from_static(b"d")),
                UserId(1),
            );
        }
        assert!(c.ghost_len_on(NodeId(0)) <= 8);
        // An old key fell out of the ghost: offering it again is still a
        // first sighting.
        c.admit(
            NodeId(0),
            "/t/b0",
            Offer::whole(Bytes::from_static(b"d")),
            UserId(1),
        );
        assert!(c.get(NodeId(0), "/t/b0", &[0]).is_none());
    }

    #[test]
    fn node_tier_rows_report_state() {
        let c = open(64, 64);
        c.admit(
            NodeId(0),
            "/t/x",
            Offer::whole(Bytes::from(vec![0u8; 128])),
            UserId(1),
        );
        c.get(NodeId(0), "/t/x", &[0]); // ssd hit + promotion
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

    /// Offers a block of chunks `lens` (zero bytes each) to `node`, the
    /// read having touched `touched`.
    fn offer(c: &TieredCache, node: u64, path: &str, lens: &[u64], touched: &[usize], user: u64) {
        let data = Bytes::from(vec![0u8; lens.iter().sum::<u64>() as usize]);
        let (chunks, touched) = (lens.to_vec(), touched.to_vec());
        let offer = Offer {
            data,
            chunks,
            touched,
        };
        c.admit(NodeId(node), path, offer, UserId(user));
    }

    /// The tier of each chunk of `path` on node 0 — a probe, so it refreshes them.
    fn tiers(c: &TieredCache, path: &str, chunks: &[usize]) -> Vec<Option<CacheTier>> {
        c.get(NodeId(0), path, chunks)
            .map_or_else(|| vec![None; chunks.len()], |h| h.tiers)
    }

    const SSD: Option<CacheTier> = Some(CacheTier::Ssd);
    const MEM: Option<CacheTier> = Some(CacheTier::Memory);

    #[test]
    fn a_block_is_admitted_on_its_second_sighting_with_all_of_its_chunks() {
        let c = TieredCache::new(open(0, 64).settings, Vec::new());
        let lens = [10, 100, 200, 300];
        offer(&c, 0, "/t/b0", &lens, &[0, 2], 1);
        assert_eq!(c.stats().ghost_registered, 1);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize::ZERO);
        offer(&c, 0, "/t/b0", &lens, &[0, 2], 1);
        assert_eq!(c.stats().ghost_admissions, 1);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize(610));
        assert_eq!(
            c.node_tier_rows(NodeId(0))[1].entries,
            4,
            "one row entry per chunk"
        );
        assert_eq!(tiers(&c, "/t/b0", &[0, 1, 2, 3]), [SSD; 4]);
    }

    #[test]
    fn under_pressure_every_speculative_chunk_goes_before_any_touched_one_coldest_first() {
        // SSD only, 1,000 B: a and b each touch one 100 B chunk of four.
        let settings = CacheSettings {
            ssd_capacity_per_node: ByteSize(1000),
            ..open(0, 1).settings
        };
        let c = TieredCache::new(settings, pin_all());
        offer(&c, 0, "/t/a", &[100; 4], &[1], 1);
        offer(&c, 0, "/t/b", &[100; 4], &[2], 1);
        // 100 B too many: the coldest speculative chunk, a's first.
        offer(&c, 0, "/t/c", &[100, 200], &[0], 1);
        assert_eq!(c.stats().ssd_evictions, 1);
        let rows = c.node_tier_rows(NodeId(0));
        assert_eq!((rows[1].entries, rows[1].used_bytes), (9, 1000));
        // 800 B too many: every speculative chunk left (700 B) goes before
        // the coldest touched one, a's; a leaves the node, to the ghost.
        offer(&c, 0, "/t/d", &[800], &[0], 1);
        assert_eq!(c.stats().ssd_evictions, 8);
        assert_eq!(c.ghost_len_on(NodeId(0)), 1);
        assert_eq!(tiers(&c, "/t/a", &[0, 1, 2, 3]), [None; 4]);
        assert_eq!(tiers(&c, "/t/b", &[0, 1, 2, 3]), [None, None, SSD, None]);
        assert_eq!(tiers(&c, "/t/c", &[0, 1]), [SSD, None]);
        // Those probes refreshed b's and c's after d came: d is the coldest.
        offer(&c, 0, "/t/e", &[100], &[0], 1);
        assert_eq!(tiers(&c, "/t/d", &[0]), [None]);
        assert_eq!(tiers(&c, "/t/b", &[2]), [SSD]);
        assert_eq!(tiers(&c, "/t/c", &[0]), [SSD]);
    }

    #[test]
    fn a_hit_clears_the_speculative_mark() {
        let settings = CacheSettings {
            ssd_capacity_per_node: ByteSize(300),
            ..open(0, 1).settings
        };
        for hit in [false, true] {
            let c = TieredCache::new(settings.clone(), pin_all());
            offer(&c, 0, "/t/a", &[100, 100], &[0], 1);
            if hit {
                assert_eq!(tiers(&c, "/t/a", &[1]), [SSD]);
            }
            // 100 B too many: the coldest speculative chunk goes — a's
            // second, unless the hit made it an ordinary one.
            offer(&c, 0, "/t/b", &[100, 100], &[0], 1);
            let a = tiers(&c, "/t/a", &[0, 1]);
            let b = tiers(&c, "/t/b", &[0, 1]);
            match hit {
                false => assert_eq!((a, b), (vec![SSD, None], vec![SSD, SSD])),
                true => assert_eq!((a, b), (vec![SSD, SSD], vec![SSD, None])),
            }
        }
    }

    #[test]
    fn an_ssd_hit_promotes_the_blocks_ssd_resident_chunks() {
        let c = open(64, 64);
        offer(&c, 0, "/t/a", &[100, 100, 100], &[1], 1);
        // The hit on one chunk is served by SSD and moves all three.
        assert_eq!(tiers(&c, "/t/a", &[1]), [SSD]);
        assert_eq!(c.used_on(NodeId(0), CacheTier::Memory), ByteSize(300));
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize::ZERO);
        assert_eq!(c.stats().promotions, 3);
        assert_eq!(tiers(&c, "/t/a", &[0, 2]), [MEM, MEM]);
        // Memory for two chunks: a hit on one of the rest promotes both,
        // and the coldest memory chunks demote.
        let c = TieredCache::new(
            CacheSettings {
                mem_capacity_per_node: ByteSize(200),
                ..open(64, 64).settings
            },
            pin_all(),
        );
        offer(&c, 0, "/t/a", &[100, 100, 100], &[0, 1, 2], 1);
        assert_eq!(
            tiers(&c, "/t/a", &[0]),
            [SSD],
            "300 B do not fit: none moves"
        );
        assert_eq!(c.stats().promotions, 0);
    }

    #[test]
    fn invalidate_path_leaves_no_chunk_of_the_path_on_any_node() {
        let c = open(64, 64);
        for node in [0, 1] {
            offer(&c, node, "/t/a", &[10, 20, 30], &[1], 1);
        }
        offer(&c, 0, "/t/b", &[40], &[0], 1);
        tiers(&c, "/t/a", &[1]); // node 0's copy moves to memory
        c.invalidate_path("/t/a");
        assert_eq!(c.stats().invalidations, 6, "three chunks on each node");
        for node in [NodeId(0), NodeId(1)] {
            assert!(c.get(node, "/t/a", &[0, 1, 2]).is_none());
            assert_eq!(c.used_on(node, CacheTier::Memory), ByteSize::ZERO);
        }
        assert_eq!(c.used_on(NodeId(0), CacheTier::Ssd), ByteSize(40));
        assert_eq!(c.used_on(NodeId(1), CacheTier::Ssd), ByteSize::ZERO);
        assert_eq!(c.user_used_on(NodeId(0), UserId(1)), ByteSize(40));
    }

    #[test]
    fn quota_eviction_and_rejection_count_chunk_bytes() {
        let c = open(64, 64);
        c.set_user_quota(UserId(1), Some(ByteSize(1000)));
        offer(&c, 0, "/t/a", &[300, 300], &[0], 1);
        offer(&c, 0, "/t/x", &[500], &[0], 2);
        // 600 + 500 > 1,000: user 1 sheds its own coldest chunk — a's
        // speculative one — and nothing of user 2's.
        offer(&c, 0, "/t/b", &[200, 300], &[0], 1);
        let st = c.stats();
        assert_eq!((st.quota_evictions, st.ssd_evictions), (1, 1));
        assert_eq!(c.user_used_on(NodeId(0), UserId(1)), ByteSize(800));
        assert_eq!(c.user_used_on(NodeId(0), UserId(2)), ByteSize(500));
        assert_eq!(tiers(&c, "/t/a", &[0, 1]), [SSD, None]);
        // Every chunk fits the quota, the object does not: rejected.
        offer(&c, 0, "/t/big", &[600, 401], &[0], 1);
        let st = c.stats();
        assert_eq!((st.quota_rejections, st.rejected), (1, 1));
        assert!(c.get(NodeId(0), "/t/big", &[0]).is_none());
    }
}
