//! The common storage layer (paper §III-C).
//!
//! "All data files are given full paths with prefix flags to activate
//! different storage plugins. For example, the file path in Hadoop
//! filesystem will be `/hdfs/path/to/filename`, and in Fatman filesystem
//! the path will be `/ffs/path/to/filename`. If a prefix string can not
//! be recognized, local filesystem is activated by default." On top of
//! routing, the layer enforces SSO authorization per domain and fronts
//! reads with the per-node SSD cache of §IV-B. It returns bytes and what
//! served them; pricing a read is the leaf's bill.

use crate::auth::{AuthService, Credential, Grant};
use crate::cache::{CacheHit, CacheTier, Offer, TieredCache};
use crate::domain::{Domain, DownNodes, ReadResult};
use crate::footers::FooterCache;
use bytes::Bytes;
use feisu_common::{FeisuError, NodeId, Result, SimInstant};
use feisu_format::{BlockMeta, Described};
use feisu_obs::MetricsRegistry;
use std::sync::Arc;

/// The chunk that holds a block's header and footer; column `i` is chunk
/// `column_chunk(i)`.
const META_CHUNK: usize = 0;

fn column_chunk(column: usize) -> usize {
    column + 1
}

/// A block one task reads, chunk by chunk, with what served each chunk.
#[derive(Debug)]
pub struct BlockRead {
    /// The footer the task decides on.
    pub meta: Arc<BlockMeta>,
    /// The object's bytes, once a chunk was read, paired with their footer.
    data: Option<Described>,
    /// Each chunk read, with the tier that served it (`None`: the domain).
    served: Vec<(usize, Option<CacheTier>)>,
    /// Network hops from the replica that served, when the domain did.
    pub hops: u32,
    /// `data` came whole from the domain and awaits its offer to the cache.
    unoffered: bool,
}

impl BlockRead {
    /// A block whose footer is resident on the reader: nothing read yet.
    fn resident(meta: Arc<BlockMeta>) -> BlockRead {
        BlockRead {
            meta,
            data: None,
            served: Vec::new(),
            hops: 0,
            unoffered: false,
        }
    }

    /// No chunk was read: the footer was resident and nothing was fetched.
    pub fn served_nothing(&self) -> bool {
        self.served.is_empty()
    }

    /// The tier that served the metadata chunk; `None` when its domain did.
    pub fn meta_tier(&self) -> Option<CacheTier> {
        self.tier(META_CHUNK)
    }

    /// The tier that served column `column`'s chunk; `None` when its
    /// domain did.
    pub fn column_tier(&self, column: usize) -> Option<CacheTier> {
        self.tier(column_chunk(column))
    }

    fn tier(&self, chunk: usize) -> Option<CacheTier> {
        let served = self.served.iter().find(|(c, _)| *c == chunk);
        served.and_then(|&(_, tier)| tier)
    }
}

/// The unified entry point to every storage domain.
pub struct StorageRouter {
    domains: Vec<Domain>,
    /// Index into `domains` used when no prefix matches (the local FS).
    default_domain: usize,
    auth: Arc<AuthService>,
    cache: Option<Arc<TieredCache>>,
    /// Parsed block footers per node of the domains' topology; always
    /// on, whatever `cache` is.
    footers: FooterCache,
    /// The nodes marked down, read by every domain.
    down: DownNodes,
}

impl StorageRouter {
    pub fn new(
        mut domains: Vec<Domain>,
        default_domain: usize,
        auth: Arc<AuthService>,
        cache: Option<Arc<TieredCache>>,
    ) -> Self {
        assert!(
            default_domain < domains.len(),
            "default domain out of range"
        );
        let down = DownNodes::default();
        for d in &mut domains {
            d.down = down.clone();
        }
        let nodes = domains.iter().map(|d| d.topology.len()).max();
        StorageRouter {
            footers: FooterCache::new(nodes.unwrap_or(0)),
            domains,
            default_domain,
            auth,
            cache,
            down,
        }
    }

    /// Has `registry` expose the `feisu.storage.<prefix>.*` counters, one
    /// set per domain, the footer cache's `feisu.meta.*`, plus the block
    /// cache's counters when a cache is configured.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        for d in &self.domains {
            let p = d.prefix();
            for (what, counter) in [
                ("reads", &d.reads),
                ("bytes_read", &d.bytes_read),
                ("writes", &d.writes),
            ] {
                registry.adopt_counter(&format!("feisu.storage.{p}.{what}"), counter.clone());
            }
        }
        self.footers.attach_metrics(registry);
        if let Some(cache) = &self.cache {
            cache.attach_metrics(registry);
        }
    }

    /// Failure injection: marks a node's replicas (un)available in every
    /// domain.
    pub fn set_node_available(&self, node: NodeId, up: bool) {
        let mut down = self.down.write();
        if up {
            down.remove(&node);
        } else {
            down.insert(node);
        }
    }

    /// The index of the domain `path` routes to, and the path inside it.
    /// Unrecognized prefixes fall through to the default (local) domain
    /// with the path unchanged, per the paper.
    fn route<'p>(&self, path: &'p str) -> (usize, &'p str) {
        let split = path.strip_prefix('/').and_then(|p| p.split_once('/'));
        if let Some((prefix, _)) = split {
            if let Some(i) = self.domains.iter().position(|d| d.prefix() == prefix) {
                return (i, &path[1 + prefix.len()..]);
            }
        }
        (self.default_domain, path)
    }

    /// Splits `/prefix/rest` into the owning domain and the domain-local
    /// path `/rest`.
    pub fn resolve<'p>(&self, path: &'p str) -> (&Domain, &'p str) {
        let (i, inner) = self.route(path);
        (&self.domains[i], inner)
    }

    /// The domain a path routes to (for scheduling and authorization).
    pub fn domain_of(&self, path: &str) -> &Domain {
        &self.domains[self.route(path).0]
    }

    /// Authorizes `cred` to read the path's domain at `now`.
    fn authorize_read(&self, path: &str, cred: &Credential, now: SimInstant) -> Result<()> {
        let domain = self.domain_of(path);
        self.auth.authorize(cred, domain.id(), Grant::Read, now)
    }

    /// Authorized read of a whole object, the one-chunk case of the
    /// cache hierarchy: a hit on either tier serves it, else its domain
    /// does and the bytes are offered to the cache, attributed to the
    /// credential's user (for quota accounting).
    pub fn read(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<ReadResult> {
        self.authorize_read(path, cred, now)?;
        let hit = self.cache.as_ref().and_then(|c| c.get(reader, path, &[0]));
        if let Some(CacheHit { data, tiers }) = hit {
            if let [cache_tier @ Some(_)] = tiers[..] {
                return Ok(ReadResult {
                    data,
                    hops: 0,
                    cache_tier,
                });
            }
        }
        let result = self.read_domain(path, reader)?;
        self.offer(path, reader, cred, Offer::whole(result.data.clone()));
        Ok(result)
    }

    /// A read of the whole object at `path` from its domain, counted there.
    fn read_domain(&self, path: &str, reader: NodeId) -> Result<ReadResult> {
        let (domain, inner) = self.resolve(path);
        let result = domain.read_from(inner, reader)?;
        domain.reads.inc();
        domain.bytes_read.add(result.data.len() as u64);
        Ok(result)
    }

    fn offer(&self, path: &str, reader: NodeId, cred: &Credential, offer: Offer) {
        if let Some(cache) = &self.cache {
            cache.admit(reader, path, offer, cred.user);
        }
    }

    /// Reads the `chunks` of the block at `path`, for a caller that
    /// authorized the read: from the block cache when it holds every one,
    /// else the whole object from its domain. Returns the bytes, the tier
    /// that served each chunk (`None`: the domain), and the domain read's
    /// hops if there was one — that read is the caller's to offer to the
    /// cache.
    fn read_chunks(
        &self,
        path: &str,
        reader: NodeId,
        chunks: &[usize],
    ) -> Result<(Bytes, Vec<Option<CacheTier>>, Option<u32>)> {
        let hit = self
            .cache
            .as_ref()
            .and_then(|c| c.get(reader, path, chunks));
        let tiers = match hit {
            Some(CacheHit { data, tiers }) if tiers.iter().all(Option::is_some) => {
                return Ok((data, tiers, None))
            }
            Some(hit) => hit.tiers,
            None => vec![None; chunks.len()],
        };
        let read = self.read_domain(path, reader)?;
        Ok((read.data, tiers, Some(read.hops)))
    }

    /// The footer a task on `reader` decides on for the block at `path`,
    /// authorized exactly as a read of the block is, so deciding a skip
    /// from it is no way around the grant. A footer resident on `reader`
    /// is returned with nothing read; otherwise the metadata chunk is read
    /// — from the block cache when it holds it, else with the whole object
    /// from its domain, which the task's [`Self::fetch`] offers to the
    /// cache — and its footer parsed once and kept resident there.
    pub fn footer(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<BlockRead> {
        self.authorize_read(path, cred, now)?;
        if let Some(meta) = self.footers.get(reader, path) {
            return Ok(BlockRead::resident(meta));
        }
        let read_and_parse = || {
            let (data, tiers, hops) = self.read_chunks(path, reader, &[META_CHUNK])?;
            let data = Described::parse(data)?;
            let meta = data.meta().clone();
            let read = BlockRead {
                meta: meta.clone(),
                data: Some(data),
                served: vec![(META_CHUNK, tiers[0])],
                hops: hops.unwrap_or(0),
                unoffered: hops.is_some(),
            };
            Ok((read, meta))
        };
        Ok(self.footers.fill_with(reader, path, read_and_parse)?.0)
    }

    /// Fetches the chunks of `columns` (schema indices of `read.meta`) of
    /// the block at `path` and returns its bytes paired with the footer
    /// that describes them, checked once. A task whose footer read
    /// brought the whole object from its domain has them in hand;
    /// otherwise they come from the block cache when it holds them all,
    /// else with the whole object from its domain. With no column and
    /// nothing read yet, the task reads the metadata chunk. A domain read
    /// is offered to the cache here, once, with every chunk the task
    /// touched; and a footer that does not describe the bytes fetched (the
    /// path was rewritten) is dropped for theirs.
    pub fn fetch(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
        read: &mut BlockRead,
        columns: &[usize],
    ) -> Result<Described> {
        let mut chunks: Vec<usize> = columns.iter().copied().map(column_chunk).collect();
        match &read.data {
            Some(_) if read.unoffered => {
                read.served.extend(chunks.iter().map(|&c| (c, None)));
                chunks = read.served.iter().map(|&(c, _)| c).collect();
            }
            Some(data) if chunks.is_empty() => return Ok(data.clone()),
            _ => {
                if chunks.is_empty() {
                    chunks.push(META_CHUNK);
                }
                self.authorize_read(path, cred, now)?;
                let (data, tiers, hops) = self.read_chunks(path, reader, &chunks)?;
                read.served.extend(chunks.iter().copied().zip(tiers));
                let data = match Described::check(read.meta.clone(), data) {
                    Ok(data) => data,
                    Err(data) => {
                        self.footers.forget(reader, path);
                        Described::parse(data)?
                    }
                };
                read.meta = data.meta().clone();
                read.data = Some(data);
                read.unoffered = hops.is_some();
                read.hops = hops.unwrap_or(read.hops);
            }
        }
        let data = read.data.clone().expect("fetched");
        if std::mem::take(&mut read.unoffered) {
            let meta = &read.meta;
            // Chunk lengths in chunk order: the metadata, then each column.
            let lens: Vec<u64> = std::iter::once(meta.meta_bytes as u64)
                .chain(meta.chunk_lens())
                .collect();
            let offer = Offer {
                data: data.data().clone(),
                chunks: lens,
                touched: chunks,
            };
            self.offer(path, reader, cred, offer);
        }
        Ok(data)
    }

    /// Authorized write. A successful write invalidates any cached copy
    /// of the path, and any resident footer for it, on every node — this
    /// is the single choke point every ingest path funnels through, so
    /// re-ingested data can never be served (or skipped) stale.
    pub fn write(
        &self,
        path: &str,
        data: Bytes,
        near: Option<NodeId>,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<()> {
        let (domain, inner) = self.resolve(path);
        self.auth
            .authorize(cred, domain.id(), Grant::ReadWrite, now)?;
        domain.writes.inc();
        domain.put(inner, data, near)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_path(path);
        }
        self.footers.invalidate(path);
        Ok(())
    }

    /// Replica locations in unified-path terms (for the scheduler): the
    /// object's own list, shared.
    pub fn replicas(&self, path: &str) -> Result<Arc<[NodeId]>> {
        let (domain, inner) = self.resolve(path);
        domain.replicas(inner)
    }

    pub fn auth(&self) -> &Arc<AuthService> {
        &self.auth
    }

    pub fn cache(&self) -> Option<&Arc<TieredCache>> {
        self.cache.as_ref()
    }

    pub fn footers(&self) -> &FooterCache {
        &self.footers
    }

    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Fails unless the path is absolute. Any absolute path routes: one
    /// whose first component is no domain's prefix belongs to the local
    /// domain, per the paper.
    pub fn validate_path(&self, path: &str) -> Result<()> {
        if !path.starts_with('/') {
            return Err(FeisuError::Storage(format!(
                "paths must be absolute: `{path}`"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_cluster::{StorageMedium, Topology};
    use feisu_common::config::CacheSettings;
    use feisu_common::{ByteSize, DomainId, SimDuration, UserId};

    /// The four domains on a 1x2x2 grid, HDFS and Fatman with two replicas;
    /// user 1 may read and write local and hdfs, only read kv, and has no
    /// grant on ffs.
    fn router_with(cache: Option<TieredCache>) -> (StorageRouter, Credential) {
        let topo = Arc::new(Topology::grid(1, 2, 2));
        let domains = vec![
            Domain::local_fs(DomainId(0), "local", topo.clone()),
            Domain::hdfs(DomainId(1), "hdfs", topo.clone(), 2, 1),
            Domain::fatman(DomainId(2), "ffs", topo.clone(), 2, 2),
            Domain::kv(DomainId(3), "kv", topo),
        ];
        let auth = Arc::new(AuthService::new(7));
        auth.register(UserId(1));
        auth.grant(UserId(1), DomainId(0), Grant::ReadWrite);
        auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
        auth.grant(UserId(1), DomainId(3), Grant::Read); // read-only on kv
        let cred = auth
            .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
            .unwrap();
        let r = StorageRouter::new(domains, 0, auth, cache.map(Arc::new));
        (r, cred)
    }

    fn router(with_cache: bool) -> (StorageRouter, Credential) {
        // SSD tier only, admission by pinned prefix only.
        let cache = with_cache.then(|| {
            let settings = CacheSettings {
                enabled: true,
                mem_capacity_per_node: ByteSize::ZERO,
                ssd_capacity_per_node: ByteSize::mib(4),
                ghost_capacity: 0,
            };
            TieredCache::new(settings, vec!["/hdfs/".into()], 4)
        });
        router_with(cache)
    }

    /// Router with a two-tier (memory + SSD) cache admitting everything.
    fn router_two_tier() -> (StorageRouter, Credential) {
        let settings = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::mib(4),
            ssd_capacity_per_node: ByteSize::mib(4),
            ..CacheSettings::default()
        };
        router_with(Some(TieredCache::new(settings, vec!["/".into()], 4)))
    }

    #[test]
    fn prefix_routing() {
        let (r, _) = router(false);
        assert_eq!(r.domain_of("/hdfs/a/b").prefix(), "hdfs");
        assert_eq!(r.domain_of("/ffs/a").prefix(), "ffs");
        assert_eq!(r.domain_of("/kv/k").prefix(), "kv");
        // Unrecognized prefix falls to local, per the paper.
        assert_eq!(r.domain_of("/data/logs/x").prefix(), "local");
        let (_, inner) = r.resolve("/hdfs/a/b");
        assert_eq!(inner, "/a/b");
        let (_, inner) = r.resolve("/data/logs/x");
        assert_eq!(inner, "/data/logs/x");
    }

    #[test]
    fn write_then_read_through_router() {
        let (r, cred) = router(false);
        r.write(
            "/hdfs/t/b0",
            Bytes::from_static(b"abc"),
            Some(NodeId(0)),
            &cred,
            SimInstant(0),
        )
        .unwrap();
        let got = r
            .read("/hdfs/t/b0", NodeId(0), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(&got.data[..], b"abc");
        assert!(r.replicas("/hdfs/t/b0").is_ok());
        assert!(r.replicas("/hdfs/t/b1").is_err());
    }

    #[test]
    fn authorization_enforced_per_domain() {
        let (r, cred) = router(false);
        // Read-only on kv: write denied, read of missing key is a storage
        // error (authz passed).
        let w = r.write(
            "/kv/k",
            Bytes::from_static(b"v"),
            None,
            &cred,
            SimInstant(0),
        );
        assert!(matches!(w, Err(FeisuError::PermissionDenied(_))));
        // No grant at all on ffs.
        let rd = r.read("/ffs/x", NodeId(0), &cred, SimInstant(0));
        assert!(matches!(rd, Err(FeisuError::PermissionDenied(_))));
    }

    #[test]
    fn expired_credential_rejected() {
        let (r, cred) = router(false);
        let later = SimInstant::EPOCH + SimDuration::hours(100);
        let rd = r.read("/hdfs/x", NodeId(0), &cred, later);
        assert!(matches!(rd, Err(FeisuError::Unauthenticated(_))));
    }

    #[test]
    fn ssd_cache_serves_second_read() {
        let (r, cred) = router(true);
        let blob = Bytes::from(vec![7u8; 100_000]);
        r.write("/hdfs/t/b0", blob, Some(NodeId(0)), &cred, SimInstant(0))
            .unwrap();
        let first = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        let second = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(first.cache_tier, None);
        assert_eq!(second.cache_tier, Some(CacheTier::Ssd));
        assert_eq!(second.hops, 0);
        assert_eq!(r.cache().unwrap().stats().ssd_hits, 1);
    }

    #[test]
    fn memory_tier_serves_third_read() {
        let (r, cred) = router_two_tier();
        let blob = Bytes::from(vec![7u8; 100_000]);
        r.write("/hdfs/t/b0", blob, Some(NodeId(0)), &cred, SimInstant(0))
            .unwrap();
        // Miss → admitted to SSD tier; hit → served from SSD, promoted;
        // next hit → served from memory.
        r.read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        let ssd = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        let mem = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(ssd.cache_tier, Some(CacheTier::Ssd));
        assert_eq!(mem.cache_tier, Some(CacheTier::Memory));
        let stats = r.cache().unwrap().stats();
        assert_eq!(
            (stats.ssd_hits, stats.mem_hits, stats.promotions),
            (1, 1, 1)
        );
    }

    #[test]
    fn rewrite_invalidates_cached_bytes() {
        let (r, cred) = router(true);
        r.write(
            "/hdfs/t/b0",
            Bytes::from_static(b"old-bytes"),
            Some(NodeId(0)),
            &cred,
            SimInstant(0),
        )
        .unwrap();
        // Warm the cache with the old bytes.
        r.read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        let cached = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(cached.cache_tier, Some(CacheTier::Ssd));
        // Rewriting the path must drop the stale copy everywhere.
        r.write(
            "/hdfs/t/b0",
            Bytes::from_static(b"new-bytes"),
            Some(NodeId(0)),
            &cred,
            SimInstant(0),
        )
        .unwrap();
        let fresh = r
            .read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(fresh.cache_tier, None, "stale cache entry must be gone");
        assert_eq!(&fresh.data[..], b"new-bytes");
        assert_eq!(r.cache().unwrap().stats().invalidations, 1);
    }

    #[test]
    fn attached_registry_counts_per_domain_traffic() {
        let registry = feisu_obs::MetricsRegistry::new();
        let (r, cred) = router(true);
        r.attach_metrics(&registry);
        r.write(
            "/hdfs/t/b0",
            Bytes::from(vec![7u8; 100]),
            Some(NodeId(0)),
            &cred,
            SimInstant(0),
        )
        .unwrap();
        r.read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        // Second read is an SSD-cache hit: no new domain read.
        r.read("/hdfs/t/b0", NodeId(1), &cred, SimInstant(0))
            .unwrap();
        assert_eq!(registry.counter("feisu.storage.hdfs.writes").get(), 1);
        assert_eq!(registry.counter("feisu.storage.hdfs.reads").get(), 1);
        assert_eq!(registry.counter("feisu.storage.hdfs.bytes_read").get(), 100);
        assert_eq!(registry.counter("feisu.cache.ssd.hits").get(), 1);
        assert_eq!(registry.counter("feisu.storage.local.reads").get(), 0);
    }

    #[test]
    fn every_domain_serves_and_counts_its_misses_and_no_cache_hit() {
        let (r, cred) = router_two_tier();
        for d in [2, 3] {
            r.auth().grant(UserId(1), DomainId(d), Grant::ReadWrite);
        }
        // An unknown prefix is the local domain, path unchanged.
        assert_eq!(r.domain_of("/data/x").prefix(), "local");
        let (local, inner) = r.resolve("/data/x");
        assert_eq!((local.prefix(), inner), ("local", "/data/x"));
        let t0 = SimInstant(0);
        let media = [
            ("/data/x", StorageMedium::Hdd),
            ("/hdfs/x", StorageMedium::Hdd),
            ("/ffs/x", StorageMedium::Hdd),
            ("/kv/x", StorageMedium::Ssd),
        ];
        for (i, (path, medium)) in media.into_iter().enumerate() {
            let blob = Bytes::from(vec![7u8; 100]);
            r.write(path, blob, Some(NodeId(1)), &cred, t0).unwrap();
            let domain = &r.domains()[i];
            let counts = || (domain.reads.get(), domain.bytes_read.get());
            let holders = r.replicas(path).unwrap();
            let far = (0..4).map(NodeId).find(|n| !holders.contains(n)).unwrap();
            assert_eq!(domain.medium(), medium, "{path}");
            let near = r.read(path, holders[0], &cred, t0).unwrap();
            assert_eq!((near.hops, near.cache_tier), (0, None), "{path}");
            let remote = r.read(path, far, &cred, t0).unwrap();
            assert!(remote.hops > 0, "{path}");
            assert_eq!(counts(), (2, 200), "{path}");
            // Both readers' caches hold the bytes now: a hit reads no domain.
            let hit = r.read(path, far, &cred, t0).unwrap();
            assert_eq!(hit.cache_tier, Some(CacheTier::Ssd), "{path}");
            assert_eq!(counts(), (2, 200), "{path}");
        }
    }

    /// A one-column block whose values (and so zone bounds) start at `lo`.
    fn block_bytes(lo: i64) -> Bytes {
        use feisu_format::{Column, DataType, Field, Schema};
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        let column = Column::from_i64((lo..lo + 64).collect());
        let block = feisu_format::Block::new(feisu_common::BlockId(1), schema, vec![column]);
        let block = block.unwrap();
        block.serialize().into()
    }

    /// A task's read of the block at `path` on `node` down to its bytes:
    /// its footer, then column 0.
    fn read_through(
        r: &StorageRouter,
        path: &str,
        node: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<(Bytes, Arc<BlockMeta>)> {
        let mut read = r.footer(path, node, cred, now)?;
        let data = r.fetch(path, node, cred, now, &mut read, &[0])?;
        Ok((data.data().clone(), read.meta))
    }

    fn low_bound(meta: &BlockMeta) -> Option<feisu_format::Value> {
        meta.zones[0].min.clone()
    }

    fn resident(r: &StorageRouter, node: NodeId) -> usize {
        r.footers().node_row(node).entries
    }

    #[test]
    fn footer_parses_once_and_a_write_drops_it_everywhere() {
        use feisu_format::block::footer_parses_on_this_thread as parses;
        let registry = feisu_obs::MetricsRegistry::new();
        let (r, cred) = router(false);
        r.attach_metrics(&registry);
        let (path, t0) = ("/hdfs/t/b0", SimInstant(0));
        r.write(path, block_bytes(0), Some(NodeId(0)), &cred, t0)
            .unwrap();
        assert_eq!(resident(&r, NodeId(1)), 0);

        let before = parses();
        let (data, cold) = read_through(&r, path, NodeId(1), &cred, t0).unwrap();
        assert!(cold.describes(&data));
        assert_eq!(parses() - before, 1);
        // Resident on the reading node only, and reused without a parse or
        // a chunk read.
        assert_eq!((resident(&r, NodeId(0)), resident(&r, NodeId(1))), (0, 1));
        let warm = r.footer(path, NodeId(1), &cred, t0).unwrap();
        assert!(Arc::ptr_eq(&warm.meta, &cold) && warm.served_nothing());
        let (_, warm) = read_through(&r, path, NodeId(1), &cred, t0).unwrap();
        assert!(Arc::ptr_eq(&warm, &cold));
        assert_eq!(parses() - before, 1, "a warm read parses nothing");
        read_through(&r, path, NodeId(0), &cred, t0).unwrap();

        // The rewrite drops both nodes' copies; the next read sees the new
        // zone bounds.
        r.write(path, block_bytes(500), Some(NodeId(0)), &cred, t0)
            .unwrap();
        assert_eq!((resident(&r, NodeId(0)), resident(&r, NodeId(1))), (0, 0));
        let (_, fresh) = read_through(&r, path, NodeId(1), &cred, t0).unwrap();
        assert_eq!(low_bound(&fresh), Some(feisu_format::Value::Int64(500)));
        assert_eq!(registry.counter("feisu.meta.invalidations").get(), 2);
        assert_eq!(registry.counter("feisu.meta.hits").get(), 2);
        assert_eq!(registry.counter("feisu.meta.misses").get(), 3);
    }

    #[test]
    fn a_footer_looked_up_before_a_rewrite_is_not_applied_to_the_new_bytes() {
        let (r, cred) = router(false);
        let (path, t0) = ("/hdfs/t/b0", SimInstant(0));
        r.write(path, block_bytes(0), Some(NodeId(0)), &cred, t0)
            .unwrap();
        read_through(&r, path, NodeId(1), &cred, t0).unwrap();
        // A task looks its footer up, then the path is rewritten, then the
        // task reads: it must get the footer of the bytes it read.
        let mut looked_up = r.footer(path, NodeId(1), &cred, t0).unwrap();
        assert!(looked_up.served_nothing());
        r.write(path, block_bytes(500), Some(NodeId(0)), &cred, t0)
            .unwrap();
        let data = r.fetch(path, NodeId(1), &cred, t0, &mut looked_up, &[0]);
        let meta = looked_up.meta;
        assert!(meta.describes(data.unwrap().data()));
        assert_eq!(low_bound(&meta), Some(feisu_format::Value::Int64(500)));
        // Bytes that are no block at all are Corrupt, and stay out.
        read_through(&r, path, NodeId(1), &cred, t0).unwrap();
        let mut stale = r.footer(path, NodeId(1), &cred, t0).unwrap();
        assert!(stale.served_nothing());
        r.write(path, Bytes::from_static(b"junk"), None, &cred, t0)
            .unwrap();
        let junk = r.fetch(path, NodeId(1), &cred, t0, &mut stale, &[0]);
        assert!(matches!(junk, Err(FeisuError::Corrupt(_))));
        let junk = read_through(&r, path, NodeId(1), &cred, t0);
        assert!(matches!(junk, Err(FeisuError::Corrupt(_))));
        assert_eq!(resident(&r, NodeId(1)), 0);
    }

    #[test]
    fn footer_is_authorized_like_a_read() {
        let (r, cred) = router(false);
        let t0 = SimInstant(0);
        r.write("/hdfs/t/b0", block_bytes(0), None, &cred, t0)
            .unwrap();
        read_through(&r, "/hdfs/t/b0", NodeId(1), &cred, t0).unwrap();
        // Resident or not, no grant on the domain means no answer...
        let denied = r.footer("/ffs/x", NodeId(1), &cred, t0);
        assert!(matches!(denied, Err(FeisuError::PermissionDenied(_))));
        let stranger = r.auth().issue(UserId(2), t0, SimDuration::hours(8));
        assert!(stranger.is_err(), "unregistered users get no token at all");
        r.auth().register(UserId(2));
        let stranger = r
            .auth()
            .issue(UserId(2), t0, SimDuration::hours(8))
            .unwrap();
        for resident_on in [NodeId(1), NodeId(0)] {
            let denied = r.footer("/hdfs/t/b0", resident_on, &stranger, t0);
            assert!(matches!(denied, Err(FeisuError::PermissionDenied(_))));
        }
        // ...and neither does an expired token.
        let later = SimInstant::EPOCH + SimDuration::hours(100);
        let expired = r.footer("/hdfs/t/b0", NodeId(1), &cred, later);
        assert!(matches!(expired, Err(FeisuError::Unauthenticated(_))));
    }

    /// What a read reports per chunk: the tier that served its metadata
    /// and each column, `None` where the domain did.
    #[test]
    fn a_read_reports_the_tier_of_its_metadata_and_of_each_column() {
        let (r, cred) = router_two_tier();
        let (path, node, t0) = ("/hdfs/t/b0", NodeId(2), SimInstant(0));
        r.write(path, block_bytes(0), Some(NodeId(0)), &cred, t0)
            .unwrap();
        let mut cold = r.footer(path, node, &cred, t0).unwrap();
        assert!(!cold.served_nothing() && cold.meta_tier().is_none());
        r.fetch(path, node, &cred, t0, &mut cold, &[0]).unwrap();
        assert_eq!(cold.column_tier(0), None);
        assert!(cold.hops > 0);
        // The footer is resident now, and the column is on the SSD tier.
        let mut warm = r.footer(path, node, &cred, t0).unwrap();
        assert!(warm.served_nothing());
        r.fetch(path, node, &cred, t0, &mut warm, &[0]).unwrap();
        assert_eq!(warm.column_tier(0), Some(CacheTier::Ssd));
        // No column: the metadata chunk is read, promoted by that hit.
        let mut bare = r.footer(path, node, &cred, t0).unwrap();
        r.fetch(path, node, &cred, t0, &mut bare, &[]).unwrap();
        assert_eq!(bare.meta_tier(), Some(CacheTier::Memory));
    }

    // A failed node is marked once, in the router, and every domain's
    // reads see it.

    #[test]
    fn failover_to_replica_on_node_down() {
        let (r, cred) = router(false);
        let t0 = SimInstant(0);
        r.write(
            "/hdfs/x",
            Bytes::from_static(b"x"),
            Some(NodeId(0)),
            &cred,
            t0,
        )
        .unwrap();
        r.set_node_available(NodeId(0), false);
        let read = r.read("/hdfs/x", NodeId(0), &cred, t0).unwrap();
        assert_ne!(read.hops, 0, "served by another node's replica");
        // All replicas down → error.
        for &rep in r.replicas("/hdfs/x").unwrap().iter() {
            r.set_node_available(rep, false);
        }
        assert!(r.read("/hdfs/x", NodeId(0), &cred, t0).is_err());
        // Recovery restores service.
        r.set_node_available(NodeId(0), true);
        assert!(r.read("/hdfs/x", NodeId(0), &cred, t0).is_ok());
    }

    #[test]
    fn down_home_node_fails_lookup() {
        let (r, cred) = router(false);
        r.auth().grant(UserId(1), DomainId(3), Grant::ReadWrite);
        let t0 = SimInstant(0);
        r.write("/kv/k", Bytes::from_static(b"v"), None, &cred, t0)
            .unwrap();
        r.set_node_available(r.replicas("/kv/k").unwrap()[0], false);
        assert!(r.read("/kv/k", NodeId(0), &cred, t0).is_err());
    }

    #[test]
    fn no_replicas_means_owner_down_is_fatal() {
        let (r, cred) = router(false);
        let t0 = SimInstant(0);
        r.write(
            "/log/0",
            Bytes::from_static(b"x"),
            Some(NodeId(1)),
            &cred,
            t0,
        )
        .unwrap();
        r.set_node_available(NodeId(1), false);
        assert!(r.read("/log/0", NodeId(0), &cred, t0).is_err());
        r.set_node_available(NodeId(1), true);
        assert!(r.read("/log/0", NodeId(0), &cred, t0).is_ok());
    }

    /// The backup-task path relies on a lost single replica being a
    /// retryable storage error, not a fatal one.
    #[test]
    fn a_lost_single_replica_is_a_retryable_storage_error() {
        let (r, cred) = router(false);
        r.auth().grant(UserId(1), DomainId(3), Grant::ReadWrite);
        let t0 = SimInstant(0);
        for path in ["/data/x", "/kv/x"] {
            r.write(path, Bytes::from_static(b"x"), Some(NodeId(1)), &cred, t0)
                .unwrap();
            let home = r.replicas(path).unwrap()[0];
            r.set_node_available(home, false);
            let err = r.read(path, NodeId(0), &cred, t0).unwrap_err();
            assert!(matches!(err, FeisuError::Storage(_)) && err.is_retryable());
            r.set_node_available(home, true);
        }
    }

    #[test]
    fn validate_path_requires_absolute() {
        let (r, _) = router(false);
        assert!(r.validate_path("/hdfs/x").is_ok());
        assert!(r.validate_path("relative/x").is_err());
    }
}
