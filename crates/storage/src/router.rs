//! The common storage layer (paper §III-C).
//!
//! "All data files are given full paths with prefix flags to activate
//! different storage plugins. For example, the file path in Hadoop
//! filesystem will be `/hdfs/path/to/filename`, and in Fatman filesystem
//! the path will be `/ffs/path/to/filename`. If a prefix string can not
//! be recognized, local filesystem is activated by default." On top of
//! routing, the layer enforces SSO authorization per domain and fronts
//! reads with the per-node SSD cache of §IV-B.

use crate::auth::{AuthService, Credential, Grant};
use crate::cache::{CacheAttr, CacheHit, CacheTier, Offer, TieredCache};
use crate::domain::{Domain, ReadResult};
use crate::footers::FooterCache;
use bytes::Bytes;
use feisu_cluster::simclock::TimeTally;
use feisu_cluster::{CostModel, StorageMedium};
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimInstant};
use feisu_format::{Block, BlockMeta};
use feisu_obs::MetricsRegistry;
use std::sync::Arc;

/// A block one task reads, chunk by chunk — chunk 0 holds its header and
/// footer, column `i` is chunk `i + 1` — with what served each chunk.
#[derive(Debug)]
pub struct BlockRead {
    /// The footer the task decides on.
    pub meta: Arc<BlockMeta>,
    /// The object's bytes, once a chunk was read.
    data: Option<Bytes>,
    /// Each chunk read, with the tier that served it (`None`: the domain).
    pub served: Vec<(usize, Option<CacheTier>)>,
    /// Network hops from the replica that served, when the domain did.
    pub hops: u32,
    /// `data` came whole from the domain and awaits its offer to the cache.
    unoffered: bool,
}

impl BlockRead {
    /// A block whose footer is resident on the reader: nothing read yet.
    pub fn resident(meta: Arc<BlockMeta>) -> BlockRead {
        BlockRead {
            meta,
            data: None,
            served: Vec::new(),
            hops: 0,
            unoffered: false,
        }
    }

    /// The tier that served `chunk`; `None` when its domain did.
    pub fn tier(&self, chunk: usize) -> Option<CacheTier> {
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
    /// Parsed block footers per node; always on, whatever `cache` is.
    footers: FooterCache,
    cost: CostModel,
}

impl StorageRouter {
    pub fn new(
        domains: Vec<Domain>,
        default_domain: usize,
        auth: Arc<AuthService>,
        cache: Option<Arc<TieredCache>>,
        cost: CostModel,
    ) -> Self {
        assert!(
            default_domain < domains.len(),
            "default domain out of range"
        );
        StorageRouter {
            domains,
            default_domain,
            auth,
            cache,
            footers: FooterCache::default(),
            cost,
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

    fn domain_index(&self, path: &str) -> usize {
        if let Some(stripped) = path.strip_prefix('/') {
            if let Some((prefix, _)) = stripped.split_once('/') {
                if let Some(i) = self.domains.iter().position(|d| d.prefix() == prefix) {
                    return i;
                }
            }
        }
        self.default_domain
    }

    /// Splits `/prefix/rest` into the owning domain and the domain-local
    /// path. Unrecognized prefixes fall through to the default (local)
    /// domain with the path unchanged, per the paper.
    pub fn resolve(&self, path: &str) -> (&Domain, String) {
        if let Some(stripped) = path.strip_prefix('/') {
            if let Some((prefix, rest)) = stripped.split_once('/') {
                for d in &self.domains {
                    if d.prefix() == prefix {
                        return (d, format!("/{rest}"));
                    }
                }
            }
        }
        (&self.domains[self.default_domain], path.to_string())
    }

    /// The domain a path routes to (for scheduling and authorization).
    pub fn domain_of(&self, path: &str) -> &Domain {
        &self.domains[self.domain_index(path)]
    }

    /// Authorized read of a whole object, the one-chunk case of the
    /// cache hierarchy. A memory-tier hit costs a cache access plus memory
    /// streaming; an SSD-tier hit costs a local SSD access; a miss pays
    /// the domain read cost and the bytes are offered to the cache,
    /// attributed to the credential's user (for quota accounting).
    pub fn read(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<ReadResult> {
        let domain = self.domain_of(path);
        self.auth.authorize(cred, domain.id(), Grant::Read, now)?;
        let hit = self
            .cache
            .as_ref()
            .and_then(|c| c.get(reader, path, &[0], now));
        if let Some(CacheHit { data, tiers }) = hit {
            if let [Some(tier)] = tiers[..] {
                let size = ByteSize(data.len() as u64);
                let mut cost = TimeTally::new();
                let (io, medium) = match tier {
                    CacheTier::Memory => (self.cost.mem_cache_read(size), StorageMedium::Memory),
                    CacheTier::Ssd => {
                        (self.cost.read(StorageMedium::Ssd, size), StorageMedium::Ssd)
                    }
                };
                cost.add_io(io);
                return Ok(ReadResult {
                    data,
                    cost,
                    medium,
                    hops: 0,
                    cache_tier: Some(tier),
                });
            }
        }
        let result = self.read_domain(path, reader)?;
        self.offer(path, reader, cred, now, Offer::whole(result.data.clone()));
        Ok(result)
    }

    /// A read of the whole object at `path` from its domain, counted there.
    fn read_domain(&self, path: &str, reader: NodeId) -> Result<ReadResult> {
        let (domain, inner) = self.resolve(path);
        let result = domain.read_from(&inner, reader)?;
        domain.reads.inc();
        domain.bytes_read.add(result.data.len() as u64);
        Ok(result)
    }

    fn offer(&self, path: &str, reader: NodeId, cred: &Credential, now: SimInstant, offer: Offer) {
        if let Some(cache) = &self.cache {
            cache.admit(reader, path, offer, CacheAttr { user: cred.user }, now);
        }
    }

    /// Reads the `chunks` of the block at `path`: from the block cache
    /// when it holds every one, else the whole object from its domain.
    /// Returns the bytes, the tier that served each chunk (`None`: the
    /// domain), and the domain read's hops if there was one — that read
    /// is the caller's to offer to the cache.
    fn read_chunks(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
        chunks: &[usize],
    ) -> Result<(Bytes, Vec<Option<CacheTier>>, Option<u32>)> {
        let domain = self.domain_of(path);
        self.auth.authorize(cred, domain.id(), Grant::Read, now)?;
        let hit = self
            .cache
            .as_ref()
            .and_then(|c| c.get(reader, path, chunks, now));
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

    /// The footer `reader` keeps resident for the block at `path`, if
    /// any — authorized exactly as a read of the block is, so deciding a
    /// skip from it is no way around the grant.
    pub fn resident_footer(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<Option<Arc<BlockMeta>>> {
        let domain = self.domain_of(path);
        self.auth.authorize(cred, domain.id(), Grant::Read, now)?;
        Ok(self.footers.get(reader, path))
    }

    /// Reads the metadata chunk of the block at `path` for a task on
    /// `reader`, where no footer of it is resident: parses the footer once
    /// and keeps it resident there. The chunk comes from the block cache
    /// when it holds it, else with the whole object from its domain,
    /// which the task's [`Self::fetch`] offers to the cache.
    pub fn read_block(
        &self,
        path: &str,
        reader: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<BlockRead> {
        let read_and_parse = || {
            let (data, tiers, hops) = self.read_chunks(path, reader, cred, now, &[0])?;
            let meta = Arc::new(Block::read_meta(&data)?);
            let read = BlockRead {
                meta: meta.clone(),
                data: Some(data),
                served: vec![(0, tiers[0])],
                hops: hops.unwrap_or(0),
                unoffered: hops.is_some(),
            };
            Ok((read, meta))
        };
        Ok(self.footers.fill_with(reader, path, read_and_parse)?.0)
    }

    /// Fetches the chunks of `columns` (schema indices of `read.meta`) of
    /// the block at `path` and returns its bytes. A task whose footer read
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
    ) -> Result<Bytes> {
        let mut chunks: Vec<usize> = columns.iter().map(|c| c + 1).collect();
        match &read.data {
            Some(_) if read.unoffered => {
                read.served.extend(chunks.iter().map(|&c| (c, None)));
                chunks = read.served.iter().map(|&(c, _)| c).collect();
            }
            Some(data) if chunks.is_empty() => return Ok(data.clone()),
            _ => {
                if chunks.is_empty() {
                    chunks.push(0);
                }
                let (data, tiers, hops) = self.read_chunks(path, reader, cred, now, &chunks)?;
                read.served.extend(chunks.iter().copied().zip(tiers));
                if !read.meta.describes(&data) {
                    self.footers.forget(reader, path);
                    read.meta = Arc::new(Block::read_meta(&data)?);
                }
                read.data = Some(data);
                read.unoffered = hops.is_some();
                read.hops = hops.unwrap_or(read.hops);
            }
        }
        let data = read.data.clone().expect("fetched");
        if std::mem::take(&mut read.unoffered) {
            let meta = &read.meta;
            let lens: Vec<u64> = std::iter::once(meta.meta_bytes as u64)
                .chain(meta.chunk_lens())
                .collect();
            let offer = Offer {
                data: data.clone(),
                chunks: lens,
                touched: chunks,
            };
            self.offer(path, reader, cred, now, offer);
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
        domain.put(&inner, data, near)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_path(path);
        }
        self.footers.invalidate(path);
        Ok(())
    }

    /// Replica locations in unified-path terms (for the scheduler).
    pub fn replicas(&self, path: &str) -> Result<Vec<NodeId>> {
        let (domain, inner) = self.resolve(path);
        domain.replicas(&inner)
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
    use crate::cache::CachePin;
    use feisu_cluster::Topology;
    use feisu_common::config::CacheSettings;
    use feisu_common::{DomainId, SimDuration, UserId};

    /// The four domains on a 1x2x2 grid, HDFS and Fatman with two replicas;
    /// user 1 may read and write local and hdfs, only read kv, and has no
    /// grant on ffs.
    fn router_with(cache: Option<TieredCache>) -> (StorageRouter, Credential) {
        let topo = Arc::new(Topology::grid(1, 2, 2));
        let cost = CostModel::default();
        let domains = vec![
            Domain::local_fs(DomainId(0), "local", topo.clone(), cost.clone()),
            Domain::hdfs(DomainId(1), "hdfs", topo.clone(), cost.clone(), 2, 1),
            Domain::fatman(DomainId(2), "ffs", topo.clone(), cost.clone(), 2, 2),
            Domain::kv(DomainId(3), "kv", topo, cost.clone()),
        ];
        let auth = Arc::new(AuthService::new(7));
        auth.register(UserId(1));
        auth.grant(UserId(1), DomainId(0), Grant::ReadWrite);
        auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
        auth.grant(UserId(1), DomainId(3), Grant::Read); // read-only on kv
        let cred = auth
            .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
            .unwrap();
        let r = StorageRouter::new(domains, 0, auth, cache.map(Arc::new), cost);
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
                ..CacheSettings::default()
            };
            TieredCache::new(
                settings,
                vec![CachePin {
                    path_prefix: "/hdfs/".into(),
                }],
            )
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
        let pin_all = vec![CachePin {
            path_prefix: "/".into(),
        }];
        router_with(Some(TieredCache::new(settings, pin_all)))
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
        assert_eq!(second.medium, StorageMedium::Ssd);
        assert_eq!(second.cache_tier, Some(CacheTier::Ssd));
        assert!(second.cost.total() < first.cost.total());
        assert_eq!(second.hops, 0);
        assert_eq!(r.cache().unwrap().stats().ssd_hits, 1);
    }

    #[test]
    fn memory_tier_serves_third_read_cheaper() {
        let (r, cred) = router_two_tier();
        let blob = Bytes::from(vec![7u8; 100_000]);
        r.write("/hdfs/t/b0", blob, Some(NodeId(0)), &cred, SimInstant(0))
            .unwrap();
        // Miss → admitted to SSD tier; hit → served from SSD, promoted;
        // next hit → served from memory, strictly cheaper.
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
        assert_eq!(mem.medium, StorageMedium::Memory);
        assert!(mem.cost.total() < ssd.cost.total());
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
        assert_eq!((local.prefix(), inner.as_str()), ("local", "/data/x"));
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
            let near = r.read(path, holders[0], &cred, t0).unwrap();
            assert_eq!((near.medium, near.hops), (medium, 0), "{path}");
            assert_eq!(near.cache_tier, None);
            let remote = r.read(path, far, &cred, t0).unwrap();
            assert_eq!(remote.medium, medium, "{path}");
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
        let block = Block::new(feisu_common::BlockId(1), schema, vec![column]).unwrap();
        block.serialize().into()
    }

    /// A task's read of the block at `path` on `node` down to its bytes:
    /// the footer `resident` when given, else the one read; then column 0.
    fn read_through(
        r: &StorageRouter,
        path: &str,
        node: NodeId,
        cred: &Credential,
        now: SimInstant,
        resident: Option<Arc<BlockMeta>>,
    ) -> Result<(Bytes, Arc<BlockMeta>)> {
        let mut read = match resident {
            Some(meta) => BlockRead::resident(meta),
            None => r.read_block(path, node, cred, now)?,
        };
        let data = r.fetch(path, node, cred, now, &mut read, &[0])?;
        Ok((data, read.meta))
    }

    fn low_bound(meta: &BlockMeta) -> Option<feisu_format::Value> {
        meta.zones.as_ref().unwrap()[0].min.clone()
    }

    #[test]
    fn read_block_parses_once_and_a_write_drops_the_footer_everywhere() {
        use feisu_format::block::footer_parses_on_this_thread as parses;
        let registry = feisu_obs::MetricsRegistry::new();
        let (r, cred) = router(false);
        r.attach_metrics(&registry);
        let (path, t0) = ("/hdfs/t/b0", SimInstant(0));
        r.write(path, block_bytes(0), Some(NodeId(0)), &cred, t0)
            .unwrap();
        assert!(r
            .resident_footer(path, NodeId(1), &cred, t0)
            .unwrap()
            .is_none());

        let before = parses();
        let (data, cold) = read_through(&r, path, NodeId(1), &cred, t0, None).unwrap();
        assert!(cold.describes(&data));
        assert_eq!(parses() - before, 1);
        // Resident on the reading node only, and reused without a parse.
        assert!(r
            .resident_footer(path, NodeId(0), &cred, t0)
            .unwrap()
            .is_none());
        let resident = r.resident_footer(path, NodeId(1), &cred, t0).unwrap();
        assert!(Arc::ptr_eq(resident.as_ref().unwrap(), &cold));
        let (_, warm) = read_through(&r, path, NodeId(1), &cred, t0, resident).unwrap();
        assert!(Arc::ptr_eq(&warm, &cold));
        assert_eq!(parses() - before, 1, "a warm read parses nothing");
        read_through(&r, path, NodeId(0), &cred, t0, None).unwrap();

        // The rewrite drops both nodes' copies; the next read sees the new
        // zone bounds.
        r.write(path, block_bytes(500), Some(NodeId(0)), &cred, t0)
            .unwrap();
        for node in [NodeId(0), NodeId(1)] {
            assert!(r.resident_footer(path, node, &cred, t0).unwrap().is_none());
        }
        let (_, fresh) = read_through(&r, path, NodeId(1), &cred, t0, None).unwrap();
        assert_eq!(low_bound(&fresh), Some(feisu_format::Value::Int64(500)));
        assert_eq!(registry.counter("feisu.meta.invalidations").get(), 2);
        assert_eq!(registry.counter("feisu.meta.hits").get(), 1);
        assert_eq!(registry.counter("feisu.meta.misses").get(), 4);
    }

    #[test]
    fn a_footer_looked_up_before_a_rewrite_is_not_applied_to_the_new_bytes() {
        let (r, cred) = router(false);
        let (path, t0) = ("/hdfs/t/b0", SimInstant(0));
        r.write(path, block_bytes(0), Some(NodeId(0)), &cred, t0)
            .unwrap();
        read_through(&r, path, NodeId(1), &cred, t0, None).unwrap();
        // A task looks its footer up, then the path is rewritten, then the
        // task reads: it must get the footer of the bytes it read.
        let looked_up = r.resident_footer(path, NodeId(1), &cred, t0).unwrap();
        assert!(looked_up.is_some());
        r.write(path, block_bytes(500), Some(NodeId(0)), &cred, t0)
            .unwrap();
        let (data, meta) = read_through(&r, path, NodeId(1), &cred, t0, looked_up).unwrap();
        assert!(meta.describes(&data));
        assert_eq!(low_bound(&meta), Some(feisu_format::Value::Int64(500)));
        // Bytes that are no block at all are Corrupt, and stay out.
        r.write(path, Bytes::from_static(b"junk"), None, &cred, t0)
            .unwrap();
        let junk = read_through(&r, path, NodeId(1), &cred, t0, Some(meta));
        assert!(matches!(junk, Err(FeisuError::Corrupt(_))));
        let junk = read_through(&r, path, NodeId(1), &cred, t0, None);
        assert!(matches!(junk, Err(FeisuError::Corrupt(_))));
        assert!(r
            .resident_footer(path, NodeId(1), &cred, t0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn resident_footer_is_authorized_like_a_read() {
        let (r, cred) = router(false);
        let t0 = SimInstant(0);
        r.write("/hdfs/t/b0", block_bytes(0), None, &cred, t0)
            .unwrap();
        read_through(&r, "/hdfs/t/b0", NodeId(1), &cred, t0, None).unwrap();
        // Resident or not, no grant on the domain means no answer...
        let denied = r.resident_footer("/ffs/x", NodeId(1), &cred, t0);
        assert!(matches!(denied, Err(FeisuError::PermissionDenied(_))));
        let stranger = r.auth().issue(UserId(2), t0, SimDuration::hours(8));
        assert!(stranger.is_err(), "unregistered users get no token at all");
        r.auth().register(UserId(2));
        let stranger = r
            .auth()
            .issue(UserId(2), t0, SimDuration::hours(8))
            .unwrap();
        for resident_on in [NodeId(1), NodeId(0)] {
            let denied = r.resident_footer("/hdfs/t/b0", resident_on, &stranger, t0);
            assert!(matches!(denied, Err(FeisuError::PermissionDenied(_))));
        }
        // ...and neither does an expired token.
        let later = SimInstant::EPOCH + SimDuration::hours(100);
        let expired = r.resident_footer("/hdfs/t/b0", NodeId(1), &cred, later);
        assert!(matches!(expired, Err(FeisuError::Unauthenticated(_))));
    }

    #[test]
    fn validate_path_requires_absolute() {
        let (r, _) = router(false);
        assert!(r.validate_path("/hdfs/x").is_ok());
        assert!(r.validate_path("relative/x").is_err());
    }
}
