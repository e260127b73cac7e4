//! Cluster topology: data centers, racks, nodes and hop distances.
//!
//! The master "schedules a query based on data location, the cluster's
//! network structure, and the load statistics on the leaf servers"
//! (§III-B). The topology gives the scheduler the network-structure part:
//! the hop distance between two nodes is 0 (same node), 2 (same rack,
//! via the top-of-rack switch), 4 (same data center, via aggregation
//! switches) or 6 (cross-data-center).

use feisu_common::{FeisuError, NodeId, Result};

/// Static description of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    pub id: NodeId,
    pub datacenter: u32,
    pub rack: u32,
    /// CPU cores available in total (paper hardware: 4).
    pub cores: u32,
    /// Whether the node carries the per-node SSD cache device.
    pub has_ssd: bool,
}

/// The whole cluster's static layout. A node's id is its index in
/// [`nodes`](Self::nodes): [`grid`](Self::grid), the only builder, numbers
/// them `0..N`, so every per-node table is a slice looked up through
/// [`index`](Self::index).
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
}

impl Topology {
    /// `dcs` data centers, each with `racks_per_dc` racks of
    /// `nodes_per_rack` nodes, ids assigned sequentially.
    pub fn grid(dcs: u32, racks_per_dc: u32, nodes_per_rack: u32) -> Topology {
        let mut nodes = Vec::new();
        for dc in 0..dcs {
            for rack in 0..racks_per_dc {
                for _ in 0..nodes_per_rack {
                    nodes.push(NodeInfo {
                        id: NodeId(nodes.len() as u64),
                        datacenter: dc,
                        rack: dc * racks_per_dc + rack,
                        cores: 4,
                        has_ssd: true,
                    });
                }
            }
        }
        Topology { nodes }
    }

    /// Where `id`'s entry sits in a per-node table; an id past the
    /// topology indexes past every table, so a lookup through `get` misses.
    pub fn index(id: NodeId) -> usize {
        usize::try_from(id.0).unwrap_or(usize::MAX)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> Result<&NodeInfo> {
        (self.nodes.get(Self::index(id)))
            .ok_or_else(|| FeisuError::NodeUnavailable(format!("{id} not in topology")))
    }

    pub fn contains(&self, id: NodeId) -> bool {
        Self::index(id) < self.nodes.len()
    }

    /// Network hop distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> Result<u32> {
        if a == b {
            return Ok(0);
        }
        let na = self.node(a)?;
        let nb = self.node(b)?;
        Ok(if na.rack == nb.rack {
            2
        } else if na.datacenter == nb.datacenter {
            4
        } else {
            6
        })
    }

    /// Worst-case hop distance from any of `children` up to the node
    /// hosting their merge stem. This is the per-level `hops_up` of the
    /// execution tree: the slowest uplink dominates the parallel shipping
    /// wave, so a level is billed at the farthest child's distance. An
    /// empty child set is 0 hops (nothing travels).
    pub fn uplink_hops<I>(&self, children: I, stem: NodeId) -> Result<u32>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut worst = 0u32;
        for child in children {
            worst = worst.max(self.hops(child, stem)?);
        }
        Ok(worst)
    }

    /// All node ids in a given rack, used for replica placement.
    pub fn rack_members(&self, rack: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.rack == rack)
            .map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_builds_expected_count() {
        let t = Topology::grid(2, 3, 4);
        assert_eq!(t.len(), 24);
        assert!(t.contains(NodeId(23)));
        assert!(!t.contains(NodeId(24)));
        for (i, n) in t.nodes().iter().enumerate() {
            assert_eq!(Topology::index(n.id), i);
            assert_eq!(t.node(n.id).unwrap(), n);
        }
    }

    #[test]
    fn hop_distances() {
        let t = Topology::grid(2, 2, 2);
        // node 0,1 same rack; 0,2 same dc different rack; 0,4 cross-dc.
        assert_eq!(t.hops(NodeId(0), NodeId(0)).unwrap(), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(1)).unwrap(), 2);
        assert_eq!(t.hops(NodeId(0), NodeId(2)).unwrap(), 4);
        assert_eq!(t.hops(NodeId(0), NodeId(4)).unwrap(), 6);
    }

    #[test]
    fn unknown_node_errors() {
        let t = Topology::grid(1, 1, 1);
        for outside in [1, 99, u64::MAX] {
            let got = t.node(NodeId(outside));
            assert!(
                matches!(got, Err(FeisuError::NodeUnavailable(_))),
                "{got:?}"
            );
        }
        assert!(t.hops(NodeId(0), NodeId(99)).is_err());
    }

    #[test]
    fn uplink_hops_is_the_worst_child_distance() {
        let t = Topology::grid(2, 2, 2);
        // Children in the stem's own rack: 2 hops (0 for the stem itself).
        assert_eq!(t.uplink_hops([NodeId(0), NodeId(1)], NodeId(0)).unwrap(), 2);
        // A cross-DC child dominates everything nearer.
        assert_eq!(
            t.uplink_hops([NodeId(0), NodeId(1), NodeId(4)], NodeId(0))
                .unwrap(),
            6
        );
        // Empty child sets ship nothing.
        assert_eq!(t.uplink_hops([], NodeId(0)).unwrap(), 0);
        assert!(t.uplink_hops([NodeId(99)], NodeId(0)).is_err());
    }

    #[test]
    fn rack_members_listed() {
        let t = Topology::grid(1, 2, 3);
        let r0: Vec<_> = t.rack_members(0).collect();
        assert_eq!(r0, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let r1: Vec<_> = t.rack_members(1).collect();
        assert_eq!(r1.len(), 3);
    }
}
