//! One storage domain type for every storage system.
//!
//! "Each storage system works in an independent domain. Data on different
//! systems have different storage layouts, and cannot be shared among
//! systems" (§II). A [`Domain`] is a replicated object store over the
//! simulated cluster with its own objects and counters; which nodes are
//! down is the router's one set, which every domain reads. The four
//! systems differ only in data: where replicas go (a `Placement`), which
//! medium serves a read, and a fixed wake-up penalty per read. A domain
//! prices nothing: the leaf's bill reads its medium and penalty.

use crate::cache::CacheTier;
use bytes::Bytes;
use feisu_cluster::{StorageMedium, Topology};
use feisu_common::hash::{hash_one, FxHashMap, FxHashSet};
use feisu_common::rng::DetRng;
use feisu_common::{DomainId, FeisuError, NodeId, Result, SimDuration};
use feisu_obs::Counter;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Result of one read: the bytes and what served them.
#[derive(Debug, Clone)]
pub struct ReadResult {
    pub data: Bytes,
    /// Network hops the data crossed to reach the reader (0 = local).
    pub hops: u32,
    /// The block-cache tier that served the read; `None` for a domain read.
    pub cache_tier: Option<CacheTier>,
}

/// Where a domain puts the replicas of an object it is given.
enum Placement {
    /// The writer's node only, which every write must name.
    Owner,
    /// The writer's node (or a random one), one more in its rack, the rest off-rack.
    RackAware {
        replication: usize,
        rng: Mutex<DetRng>,
    },
    /// One replica per distinct data center, then anywhere; ignores the writer.
    SpreadDcs {
        replication: usize,
        rng: Mutex<DetRng>,
    },
    /// One home node, by the path's hash over the topology.
    Hashed,
}

struct StoredObject {
    data: Bytes,
    replicas: Arc<[NodeId]>,
}

/// The nodes marked down: one set, owned by the router and shared with
/// every domain it routes to.
pub(crate) type DownNodes = Arc<RwLock<FxHashSet<NodeId>>>;

/// One independent storage system.
pub struct Domain {
    id: DomainId,
    /// Path prefix (e.g. `hdfs` for `/hdfs/...`).
    prefix: Arc<str>,
    medium: StorageMedium,
    /// Fixed latency added to every read.
    wake_penalty: SimDuration,
    placement: Placement,
    pub(crate) topology: Arc<Topology>,
    objects: RwLock<FxHashMap<String, StoredObject>>,
    /// The router's failed-node set, once the router owns this domain.
    pub(crate) down: DownNodes,
    /// Reads this domain served, their bytes, and writes: bumped by the
    /// router, so block-cache hits and a direct `read_from` count nothing.
    pub(crate) reads: Arc<Counter>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) writes: Arc<Counter>,
}

impl Domain {
    /// Every node's local file system, where "log data are stored" (§II):
    /// an object lives on its writer's node only, on HDD. The other
    /// domains are this one with their own placement, medium or penalty.
    pub fn local_fs(id: DomainId, prefix: &str, topo: Arc<Topology>) -> Domain {
        Domain {
            id,
            prefix: prefix.into(),
            medium: StorageMedium::Hdd,
            wake_penalty: SimDuration::ZERO,
            placement: Placement::Owner,
            topology: topo,
            objects: RwLock::default(),
            down: DownNodes::default(),
            reads: Arc::default(),
            bytes_read: Arc::default(),
            writes: Arc::default(),
        }
    }

    /// An HDFS-like file system for business data: rack-aware replicas on HDD.
    pub fn hdfs(
        id: DomainId,
        prefix: &str,
        topo: Arc<Topology>,
        replication: usize,
        seed: u64,
    ) -> Domain {
        let (replication, rng) = (replication.max(1), Mutex::new(DetRng::new(seed)));
        Domain {
            placement: Placement::RackAware { replication, rng },
            ..Domain::local_fs(id, prefix, topo)
        }
    }

    /// Fatman, archival storage on volunteer disks (reference \[3\]): replicas
    /// spread over data centers on HDD, 200 ms a read to wake and recode.
    pub fn fatman(
        id: DomainId,
        prefix: &str,
        topo: Arc<Topology>,
        replication: usize,
        seed: u64,
    ) -> Domain {
        let (replication, rng) = (replication.max(1), Mutex::new(DetRng::new(seed)));
        Domain {
            wake_penalty: SimDuration::millis(200),
            placement: Placement::SpreadDcs { replication, rng },
            ..Domain::local_fs(id, prefix, topo)
        }
    }

    /// A key-value store for labeled data: one hashed home node per key, on SSD.
    pub fn kv(id: DomainId, prefix: &str, topo: Arc<Topology>) -> Domain {
        Domain {
            medium: StorageMedium::Ssd,
            placement: Placement::Hashed,
            ..Domain::local_fs(id, prefix, topo)
        }
    }

    pub fn id(&self) -> DomainId {
        self.id
    }

    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// [`Domain::prefix`], shared: a refcount, not a copy.
    pub fn shared_prefix(&self) -> Arc<str> {
        self.prefix.clone()
    }

    /// The medium that serves this domain's reads.
    pub fn medium(&self) -> StorageMedium {
        self.medium
    }

    /// The fixed latency every read from this domain pays (Fatman's wake-up).
    pub fn wake_penalty(&self) -> SimDuration {
        self.wake_penalty
    }

    /// Writes an object; `near` is the writing node, a hint for HDFS and
    /// the owner the local FS requires.
    pub fn put(&self, path: &str, data: Bytes, near: Option<NodeId>) -> Result<()> {
        let topo = &self.topology;
        let replicas = match &self.placement {
            Placement::Owner => match near {
                Some(owner) if topo.contains(owner) => vec![owner],
                _ => {
                    let msg = format!("{}: a write must name an owner node", self.prefix);
                    return Err(FeisuError::Storage(msg));
                }
            },
            Placement::RackAware { replication, rng } => {
                rack_aware(topo, near, *replication, &mut rng.lock())
            }
            Placement::SpreadDcs { replication, rng } => {
                spread_dcs(topo, *replication, &mut rng.lock())
            }
            Placement::Hashed => {
                let nodes = topo.nodes();
                vec![nodes[(hash_one(&path) % nodes.len() as u64) as usize].id]
            }
        };
        self.objects.write().insert(
            path.to_string(),
            StoredObject {
                data,
                replicas: replicas.into(),
            },
        );
        Ok(())
    }

    /// Reads an object as `reader`: the nearest live replica serves it,
    /// and the result names its hop distance. With every replica down —
    /// for the single-replica local FS and KV store, the one node holding
    /// it — the read fails with a retryable [`FeisuError::Storage`], so the
    /// scheduler's backup task can run it elsewhere.
    pub fn read_from(&self, path: &str, reader: NodeId) -> Result<ReadResult> {
        let objects = self.objects.read();
        let obj = objects.get(path).ok_or_else(|| self.missing(path))?;
        let down = self.down.read();
        let mut nearest: Option<u32> = None;
        for &rep in obj.replicas.iter().filter(|r| !down.contains(r)) {
            let hops = self.topology.hops(reader, rep)?;
            nearest = Some(nearest.map_or(hops, |h| h.min(hops)));
        }
        let hops = nearest.ok_or_else(|| {
            FeisuError::Storage(format!("{}: all replicas of `{path}` down", self.prefix))
        })?;
        Ok(ReadResult {
            data: obj.data.clone(),
            hops,
            cache_tier: None,
        })
    }

    /// Nodes holding a replica of the object: its list, shared.
    pub fn replicas(&self, path: &str) -> Result<Arc<[NodeId]>> {
        self.objects
            .read()
            .get(path)
            .map(|o| o.replicas.clone())
            .ok_or_else(|| self.missing(path))
    }

    fn missing(&self, path: &str) -> FeisuError {
        FeisuError::Storage(format!("{}: no such object `{path}`", self.prefix))
    }
}

/// HDFS-style placement: writer-local, same-rack, off-rack.
fn rack_aware(
    topo: &Topology,
    near: Option<NodeId>,
    replication: usize,
    rng: &mut DetRng,
) -> Vec<NodeId> {
    let nodes = topo.nodes();
    assert!(!nodes.is_empty(), "placement on empty topology");
    let first = near
        .filter(|n| topo.contains(*n))
        .unwrap_or_else(|| nodes[rng.index(nodes.len())].id);
    let first_rack = topo.node(first).expect("placed node exists").rack;
    let mut replicas = vec![first];
    if replication >= 2 {
        let same_rack: Vec<NodeId> = topo
            .rack_members(first_rack)
            .filter(|&n| n != first)
            .collect();
        if let Some(second) = pick(&same_rack, rng) {
            replicas.push(second);
        }
    }
    while replicas.len() < replication {
        let candidates: Vec<NodeId> = nodes
            .iter()
            .filter(|n| n.rack != first_rack && !replicas.contains(&n.id))
            .map(|n| n.id)
            .collect();
        match pick(&candidates, rng) {
            Some(next) => replicas.push(next),
            None => {
                // Cluster smaller than the replication factor: fall
                // back to any unused node, then stop.
                let fallback: Vec<NodeId> = nodes
                    .iter()
                    .map(|n| n.id)
                    .filter(|n| !replicas.contains(n))
                    .collect();
                match pick(&fallback, rng) {
                    Some(next) => replicas.push(next),
                    None => break,
                }
            }
        }
    }
    replicas
}

fn pick(candidates: &[NodeId], rng: &mut DetRng) -> Option<NodeId> {
    (!candidates.is_empty()).then(|| candidates[rng.index(candidates.len())])
}

/// Archival placement: replicas spread over distinct data centers where
/// possible, ignoring the writer's locality entirely.
fn spread_dcs(topo: &Topology, replication: usize, rng: &mut DetRng) -> Vec<NodeId> {
    let nodes = topo.nodes();
    assert!(!nodes.is_empty(), "placement on empty topology");
    let mut replicas: Vec<NodeId> = Vec::new();
    let mut used_dcs: Vec<u32> = Vec::new();
    // First pass: one replica per distinct data center.
    while replicas.len() < replication {
        let candidates: Vec<NodeId> = nodes
            .iter()
            .filter(|n| !used_dcs.contains(&n.datacenter) && !replicas.contains(&n.id))
            .map(|n| n.id)
            .collect();
        let Some(chosen) = pick(&candidates, rng) else {
            break;
        };
        used_dcs.push(topo.node(chosen).expect("exists").datacenter);
        replicas.push(chosen);
    }
    // Second pass: fill up anywhere.
    while replicas.len() < replication {
        let candidates: Vec<NodeId> = nodes
            .iter()
            .filter(|n| !replicas.contains(&n.id))
            .map(|n| n.id)
            .collect();
        let Some(next) = pick(&candidates, rng) else {
            break;
        };
        replicas.push(next);
    }
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(dcs: u32, racks: u32, nodes: u32) -> Arc<Topology> {
        Arc::new(Topology::grid(dcs, racks, nodes))
    }

    /// HDFS on 12 nodes: 2 data centers x 2 racks x 3 nodes.
    fn hdfs(replication: usize) -> (Domain, Arc<Topology>) {
        let topo = grid(2, 2, 3);
        let d = Domain::hdfs(DomainId(1), "hdfs", topo.clone(), replication, 42);
        (d, topo)
    }

    fn local() -> Domain {
        Domain::local_fs(DomainId(0), "local", grid(1, 2, 2))
    }

    fn kv() -> Domain {
        Domain::kv(DomainId(3), "kv", grid(1, 2, 2))
    }

    fn home(d: &Domain, path: &str) -> NodeId {
        d.replicas(path).unwrap()[0]
    }

    #[test]
    fn put_get_roundtrip() {
        let (d, _) = hdfs(3);
        d.put("/a/b", Bytes::from_static(b"hello"), Some(NodeId(0)))
            .unwrap();
        let r = d.read_from("/a/b", NodeId(0)).unwrap();
        assert_eq!(&r.data[..], b"hello");
        assert_eq!(r.hops, 0, "local replica preferred");
        assert_eq!(r.cache_tier, None);
    }

    #[test]
    fn placement_is_rack_aware() {
        let (d, topo) = hdfs(3);
        d.put("/x", Bytes::from_static(b"x"), Some(NodeId(0)))
            .unwrap();
        let reps = d.replicas("/x").unwrap();
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0], NodeId(0));
        let racks: Vec<u32> = reps.iter().map(|&n| topo.node(n).unwrap().rack).collect();
        assert_eq!(racks[0], racks[1], "second replica same rack");
        assert_ne!(racks[0], racks[2], "third replica off-rack");
    }

    #[test]
    fn a_remote_read_reports_its_hop_distance() {
        let (d, topo) = hdfs(1);
        d.put("/x", Bytes::from(vec![0u8; 1024]), Some(NodeId(0)))
            .unwrap();
        // Find a node in another data center.
        let far = topo.nodes().iter().find(|n| n.datacenter != 0).unwrap().id;
        let r = d.read_from("/x", far).unwrap();
        assert_eq!(r.hops, topo.hops(far, NodeId(0)).unwrap());
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let topo = grid(1, 1, 2);
        let d = Domain::hdfs(DomainId(1), "hdfs", topo, 5, 7);
        d.put("/x", Bytes::from_static(b"x"), None).unwrap();
        assert_eq!(d.replicas("/x").unwrap().len(), 2);
    }

    #[test]
    fn reads_pay_cold_penalty() {
        let cold = Domain::fatman(DomainId(2), "ffs", grid(2, 2, 2), 2, 1);
        // 200 ms on every read, on top of the HDD the replicas sit on.
        assert_eq!(cold.wake_penalty(), SimDuration::millis(200));
        assert_eq!(cold.medium(), StorageMedium::Hdd);
        assert_eq!(local().wake_penalty(), SimDuration::ZERO);
    }

    #[test]
    fn replicas_spread_across_datacenters() {
        let topo = grid(3, 1, 2);
        let cold = Domain::fatman(DomainId(2), "ffs", topo.clone(), 3, 5);
        cold.put("/arch/x", Bytes::from_static(b"x"), None).unwrap();
        let dcs: std::collections::HashSet<u32> = cold
            .replicas("/arch/x")
            .unwrap()
            .iter()
            .map(|&n| topo.node(n).unwrap().datacenter)
            .collect();
        assert_eq!(dcs.len(), 3, "one replica per data center");
    }

    #[test]
    fn more_replicas_than_dcs_still_placed() {
        let cold = Domain::fatman(DomainId(2), "ffs", grid(1, 2, 3), 4, 9);
        cold.put("/arch/x", Bytes::from_static(b"x"), None).unwrap();
        assert_eq!(cold.replicas("/arch/x").unwrap().len(), 4);
    }

    #[test]
    fn point_lookup_roundtrip() {
        let d = kv();
        d.put("/labels/q1", Bytes::from_static(b"relevant"), None)
            .unwrap();
        let r = d.read_from("/labels/q1", NodeId(0)).unwrap();
        assert_eq!(&r.data[..], b"relevant");
        assert_eq!(d.medium(), StorageMedium::Ssd);
    }

    #[test]
    fn home_is_stable() {
        let d = kv();
        d.put("/labels/q1", Bytes::from_static(b"a"), Some(NodeId(0)))
            .unwrap();
        let first = home(&d, "/labels/q1");
        d.put("/labels/q1", Bytes::from_static(b"b"), Some(NodeId(3)))
            .unwrap();
        assert_eq!(*d.replicas("/labels/q1").unwrap(), [first]);
    }

    #[test]
    fn write_requires_owner() {
        let d = local();
        assert!(d.put("/log/0", Bytes::from_static(b"x"), None).is_err());
        assert!(d
            .put("/log/0", Bytes::from_static(b"x"), Some(NodeId(99)))
            .is_err());
        d.put("/log/0", Bytes::from_static(b"x"), Some(NodeId(1)))
            .unwrap();
        assert_eq!(*d.replicas("/log/0").unwrap(), [NodeId(1)]);
    }

    #[test]
    fn local_read_is_free_of_network() {
        let d = local();
        d.put("/log/0", Bytes::from(vec![0u8; 2048]), Some(NodeId(1)))
            .unwrap();
        assert_eq!(d.read_from("/log/0", NodeId(1)).unwrap().hops, 0);
        assert!(d.read_from("/log/0", NodeId(3)).unwrap().hops > 0);
    }

    #[test]
    fn missing_object_errors() {
        let d = local();
        assert!(d.read_from("/nope", NodeId(0)).is_err());
        assert!(d.replicas("/nope").is_err());
    }
}
