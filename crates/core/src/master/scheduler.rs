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
//! the nearest replica (0 = data-local), secondary key is current load
//! (heartbeat-reported plus tasks assigned in this round).

use feisu_cluster::heartbeat::HeartbeatTable;
use feisu_cluster::Topology;
use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, NodeId, Result, SimInstant};

/// A task's placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    pub node: NodeId,
    /// Hops from the chosen node to the nearest replica (0 = local).
    pub data_hops: u32,
}

/// Stateless scheduling over cluster state snapshots; round-local load is
/// tracked inside [`Scheduler::assign_all`].
pub struct Scheduler;

impl Scheduler {
    /// Assigns every task (identified by its replica list) to a node.
    /// Tasks are spread so that one node is not overloaded while peers
    /// idle: the effective load = heartbeat load + assignments made in
    /// this round.
    pub fn assign_all(
        &self,
        tasks: &[Vec<NodeId>],
        topology: &Topology,
        heartbeats: &HeartbeatTable,
        now: SimInstant,
    ) -> Result<Vec<Assignment>> {
        let alive = heartbeats.alive_nodes(now);
        if alive.is_empty() {
            return Err(FeisuError::Scheduling("no alive workers".into()));
        }
        let mut round_load: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut out = Vec::with_capacity(tasks.len());
        for replicas in tasks {
            let a = self.assign_locality(replicas, topology, heartbeats, &alive, &round_load)?;
            *round_load.entry(a.node).or_insert(0) += 1;
            out.push(a);
        }
        Ok(out)
    }

    fn assign_locality(
        &self,
        replicas: &[NodeId],
        topology: &Topology,
        heartbeats: &HeartbeatTable,
        alive: &[NodeId],
        round_load: &FxHashMap<NodeId, u32>,
    ) -> Result<Assignment> {
        // 1. Prefer an alive replica holder, least loaded first.
        let mut holders: Vec<NodeId> = replicas
            .iter()
            .copied()
            .filter(|n| alive.contains(n))
            .collect();
        holders.sort_by_key(|n| (effective_load(*n, heartbeats, round_load), n.raw()));
        if let Some(&node) = holders.first() {
            return Ok(Assignment { node, data_hops: 0 });
        }
        // 2. No replica holder alive: nearest alive node by hop distance,
        //    load as tie-break.
        let node = *alive
            .iter()
            .min_by_key(|n| {
                let hops = nearest_replica_hops(**n, replicas, topology).unwrap_or(u32::MAX);
                (hops, effective_load(**n, heartbeats, round_load), n.raw())
            })
            .expect("alive nonempty");
        Ok(Assignment {
            node,
            data_hops: nearest_replica_hops(node, replicas, topology)?,
        })
    }
}

fn effective_load(
    node: NodeId,
    heartbeats: &HeartbeatTable,
    round_load: &FxHashMap<NodeId, u32>,
) -> u32 {
    heartbeats.load(node).map_or(0, |l| l.running_tasks)
        + round_load.get(&node).copied().unwrap_or(0)
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
    use feisu_cluster::heartbeat::LoadStats;
    use feisu_common::SimDuration;

    fn setup() -> (Topology, HeartbeatTable) {
        let topo = Topology::grid(1, 2, 3); // 6 nodes, racks {0,1,2} {3,4,5}
        let mut hb = HeartbeatTable::new(SimDuration::secs(3), 3);
        for n in topo.nodes() {
            hb.register(n.id, SimInstant(0));
        }
        (topo, hb)
    }

    #[test]
    fn data_local_when_replica_alive() {
        let (topo, hb) = setup();
        let s = Scheduler;
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let a = s.assign_all(&tasks, &topo, &hb, SimInstant(0)).unwrap();
        assert_eq!(a[0].data_hops, 0);
        assert!(tasks[0].contains(&a[0].node));
    }

    #[test]
    fn replica_failover_when_primary_dead() {
        let (topo, mut hb) = setup();
        // Only beat nodes != 2; node 2 goes silent past the miss limit.
        let later = SimInstant::EPOCH + SimDuration::secs(60);
        for n in topo.nodes() {
            if n.id != NodeId(2) {
                hb.beat(n.id, later, LoadStats::default());
            }
        }
        let s = Scheduler;
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let a = s.assign_all(&tasks, &topo, &hb, later).unwrap();
        assert_eq!(a[0].node, NodeId(4));
        assert_eq!(a[0].data_hops, 0);
    }

    #[test]
    fn nearest_node_when_all_replicas_dead() {
        let (topo, mut hb) = setup();
        let later = SimInstant::EPOCH + SimDuration::secs(60);
        // Nodes 0 and 1 hold replicas but are dead; 2 shares their rack.
        for n in topo.nodes() {
            if n.id != NodeId(0) && n.id != NodeId(1) {
                hb.beat(n.id, later, LoadStats::default());
            }
        }
        let s = Scheduler;
        let tasks = vec![vec![NodeId(0), NodeId(1)]];
        let a = s.assign_all(&tasks, &topo, &hb, later).unwrap();
        assert_eq!(a[0].node, NodeId(2), "same-rack node preferred");
        assert_eq!(a[0].data_hops, 2);
    }

    #[test]
    fn round_load_spreads_same_replica_tasks() {
        let (topo, hb) = setup();
        let s = Scheduler;
        // Four tasks all replicated on nodes 0 and 3.
        let tasks = vec![vec![NodeId(0), NodeId(3)]; 4];
        let a = s.assign_all(&tasks, &topo, &hb, SimInstant(0)).unwrap();
        let on0 = a.iter().filter(|x| x.node == NodeId(0)).count();
        let on3 = a.iter().filter(|x| x.node == NodeId(3)).count();
        assert_eq!(on0, 2);
        assert_eq!(on3, 2);
    }

    #[test]
    fn heartbeat_load_biases_choice() {
        let (topo, mut hb) = setup();
        hb.beat(
            NodeId(0),
            SimInstant(0),
            LoadStats {
                running_tasks: 50,
                utilization: 0.9,
            },
        );
        let s = Scheduler;
        let tasks = vec![vec![NodeId(0), NodeId(3)]];
        let a = s.assign_all(&tasks, &topo, &hb, SimInstant(0)).unwrap();
        assert_eq!(a[0].node, NodeId(3), "loaded replica avoided");
    }

    #[test]
    fn no_alive_workers_errors() {
        let topo = Topology::grid(1, 1, 2);
        let hb = HeartbeatTable::new(SimDuration::secs(3), 3);
        let s = Scheduler;
        assert!(s
            .assign_all(&[vec![NodeId(0)]], &topo, &hb, SimInstant(0))
            .is_err());
    }
}
