//! The job scheduler (paper §III-B/C).
//!
//! "Feisu schedules a query based on data location, the cluster's network
//! structure, and the load statistics on the leaf servers. Feisu always
//! schedules a task to the leaf server that contains the data if the
//! server \[is\] available. If the leaf server is not available, Feisu will
//! either schedule the task to the available leaf server that contains
//! the data replica or to an available server that has a low network
//! transfer overhead."
//!
//! Placement score per candidate node: primary key is hop distance to
//! the nearest replica (0 = data-local), secondary key is load — the
//! tasks assigned in this round, since workers report no load with their
//! heartbeats.

use feisu_cluster::Topology;
use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, NodeId, Result};

/// A task's placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    pub node: NodeId,
    /// Hops from the chosen node to the nearest replica (0 = local).
    pub data_hops: u32,
}

/// Stateless scheduling over the alive list of the node table; round-local
/// load is tracked inside [`Scheduler::assign_all`].
pub struct Scheduler;

impl Scheduler {
    /// Assigns every task (identified by its replica list) to one of the
    /// `alive` nodes. Tasks are spread so that one node is not overloaded
    /// while peers idle: a node's load is the assignments made to it in
    /// this round.
    pub fn assign_all(
        &self,
        tasks: &[Vec<NodeId>],
        topology: &Topology,
        alive: &[NodeId],
    ) -> Result<Vec<Assignment>> {
        if alive.is_empty() {
            return Err(FeisuError::Scheduling("no alive workers".into()));
        }
        let mut round_load: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut out = Vec::with_capacity(tasks.len());
        for replicas in tasks {
            let a = self.assign_locality(replicas, topology, alive, &round_load)?;
            *round_load.entry(a.node).or_insert(0) += 1;
            out.push(a);
        }
        Ok(out)
    }

    fn assign_locality(
        &self,
        replicas: &[NodeId],
        topology: &Topology,
        alive: &[NodeId],
        round_load: &FxHashMap<NodeId, u32>,
    ) -> Result<Assignment> {
        let load = |n: NodeId| round_load.get(&n).copied().unwrap_or(0);
        // 1. Prefer an alive replica holder, least loaded first.
        let mut holders: Vec<NodeId> = replicas
            .iter()
            .copied()
            .filter(|n| alive.contains(n))
            .collect();
        holders.sort_by_key(|&n| (load(n), n.raw()));
        if let Some(&node) = holders.first() {
            return Ok(Assignment { node, data_hops: 0 });
        }
        // 2. No replica holder alive: nearest alive node by hop distance,
        //    load as tie-break.
        let node = *alive
            .iter()
            .min_by_key(|n| {
                let hops = nearest_replica_hops(**n, replicas, topology).unwrap_or(u32::MAX);
                (hops, load(**n), n.raw())
            })
            .expect("alive nonempty");
        Ok(Assignment {
            node,
            data_hops: nearest_replica_hops(node, replicas, topology)?,
        })
    }
}

fn nearest_replica_hops(node: NodeId, replicas: &[NodeId], topology: &Topology) -> Result<u32> {
    replicas
        .iter()
        .map(|r| topology.hops(node, *r))
        .collect::<Result<Vec<u32>>>()
        .map(|v| v.into_iter().min().unwrap_or(u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::grid(1, 2, 3) // 6 nodes, racks {0,1,2} {3,4,5}
    }

    fn all_but(topo: &Topology, dead: &[NodeId]) -> Vec<NodeId> {
        topo.nodes()
            .iter()
            .map(|n| n.id)
            .filter(|n| !dead.contains(n))
            .collect()
    }

    #[test]
    fn data_local_when_replica_alive() {
        let topo = topo();
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let a = Scheduler
            .assign_all(&tasks, &topo, &all_but(&topo, &[]))
            .unwrap();
        assert_eq!(a[0].data_hops, 0);
        assert!(tasks[0].contains(&a[0].node));
    }

    #[test]
    fn replica_failover_when_primary_dead() {
        let topo = topo();
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let alive = all_but(&topo, &[NodeId(2)]);
        let a = Scheduler.assign_all(&tasks, &topo, &alive).unwrap();
        assert_eq!(a[0].node, NodeId(4));
        assert_eq!(a[0].data_hops, 0);
    }

    #[test]
    fn nearest_node_when_all_replicas_dead() {
        let topo = topo();
        // Nodes 0 and 1 hold replicas but are dead; 2 shares their rack.
        let tasks = vec![vec![NodeId(0), NodeId(1)]];
        let alive = all_but(&topo, &[NodeId(0), NodeId(1)]);
        let a = Scheduler.assign_all(&tasks, &topo, &alive).unwrap();
        assert_eq!(a[0].node, NodeId(2), "same-rack node preferred");
        assert_eq!(a[0].data_hops, 2);
    }

    #[test]
    fn round_load_spreads_same_replica_tasks() {
        let topo = topo();
        // Four tasks all replicated on nodes 0 and 3.
        let tasks = vec![vec![NodeId(0), NodeId(3)]; 4];
        let a = Scheduler
            .assign_all(&tasks, &topo, &all_but(&topo, &[]))
            .unwrap();
        let on0 = a.iter().filter(|x| x.node == NodeId(0)).count();
        let on3 = a.iter().filter(|x| x.node == NodeId(3)).count();
        assert_eq!(on0, 2);
        assert_eq!(on3, 2);
    }

    #[test]
    fn no_alive_workers_errors() {
        let topo = Topology::grid(1, 1, 2);
        assert!(Scheduler
            .assign_all(&[vec![NodeId(0)]], &topo, &[])
            .is_err());
    }
}
