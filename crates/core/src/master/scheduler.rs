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
//! A node runs its tasks one after another, so the most loaded node sets a
//! statement's critical path. Load is the tasks placed in this round:
//! workers report no load with their heartbeats.
//! [`Scheduler::assign_all`] places a statement's tasks in two steps:
//!
//! 1. Greedy, in task order: each task on its least loaded alive replica
//!    holder; with none alive, on the alive node nearest a replica by hops.
//! 2. While the maximum load M is at least 2, each node at M gives up a
//!    task along a cost-reducing path: a chain of moves that ends at a node
//!    with load ≤ M − 2. Moves go to a task's alive holders, so reads stay
//!    local. When those cannot clear the level, they may also go to an
//!    alive node in a holder's rack (2 hops: "low network transfer
//!    overhead"). A level neither clears is optimal and is kept as it was.
//!
//! The contract: no node carries more tasks than the least possible
//! maximum over holders plus alive rack-mates; no task leaves its holders
//! when holders alone reach that maximum; a step-1 placement that is
//! already optimal comes back unchanged. Ties go to the lowest node id, so
//! the result is a pure function of (tasks, topology, alive list).

use feisu_cluster::Topology;
use feisu_common::{FeisuError, NodeId, Result};

/// Stateless scheduling over the alive list of the node table.
pub struct Scheduler;

impl Scheduler {
    /// Places every task (identified by its replica list) on one of the
    /// `alive` nodes and returns each task's node, in task order.
    pub fn assign_all<R: AsRef<[NodeId]>>(
        &self,
        tasks: &[R],
        topology: &Topology,
        alive: &[NodeId],
    ) -> Result<Vec<NodeId>> {
        // A node's index is its position in the sorted alive list, so index
        // order is id order.
        let mut alive = alive.to_vec();
        alive.sort_unstable();
        alive.dedup();
        if alive.is_empty() {
            return Err(FeisuError::Scheduling("no alive workers".into()));
        }
        let holders = alive_holders(tasks, &alive);
        let mut place = greedy(tasks, &holders, topology, &alive);
        place.balance(&holders, topology, &alive);
        Ok(place.node_of.iter().map(|&i| alive[i]).collect())
    }
}

/// One list of alive-node indices per task, all in one buffer: what a
/// task may run on, without an allocation per task.
struct Lists {
    items: Vec<usize>,
    /// Where each task's list ends in `items`.
    ends: Vec<usize>,
}

impl Lists {
    fn with_capacity(tasks: usize) -> Lists {
        Lists {
            items: Vec::with_capacity(tasks),
            ends: Vec::with_capacity(tasks),
        }
    }

    /// Closes the current task's list.
    fn end(&mut self) {
        self.ends.push(self.items.len());
    }

    fn get(&self, task: usize) -> &[usize] {
        let start = task.checked_sub(1).map_or(0, |t| self.ends[t]);
        &self.items[start..self.ends[task]]
    }
}

/// Each task's alive replica holders, as indices into `alive`.
fn alive_holders<R: AsRef<[NodeId]>>(tasks: &[R], alive: &[NodeId]) -> Lists {
    let (mut holders, mut held) = (Lists::with_capacity(tasks.len()), Vec::new());
    for replicas in tasks {
        held.clear();
        held.extend(
            replicas
                .as_ref()
                .iter()
                .filter_map(|r| alive.binary_search(r).ok()),
        );
        held.sort_unstable();
        held.dedup();
        holders.items.extend_from_slice(&held);
        holders.end();
    }
    holders
}

/// Each task's holders, then the alive non-holders in a holder's rack.
fn with_rack_mates(holders: &Lists, topology: &Topology, alive: &[NodeId]) -> Lists {
    let rack: Vec<Option<u32>> = alive
        .iter()
        .map(|&n| topology.node(n).ok().map(|info| info.rack))
        .collect();
    let mut near = Lists::with_capacity(holders.ends.len());
    for task in 0..holders.ends.len() {
        let held = holders.get(task);
        let mates = (0..alive.len()).filter(|&i| {
            rack[i].is_some() && !held.contains(&i) && held.iter().any(|&h| rack[h] == rack[i])
        });
        near.items.extend(held.iter().copied().chain(mates));
        near.end();
    }
    near
}

/// Step 1: each task in order on its least loaded alive holder or, with
/// none alive, on the alive node nearest a replica.
fn greedy<R: AsRef<[NodeId]>>(
    tasks: &[R],
    holders: &Lists,
    topology: &Topology,
    alive: &[NodeId],
) -> Placement {
    let mut place = Placement {
        node_of: Vec::with_capacity(tasks.len()),
        load: vec![0; alive.len()],
        on: vec![Vec::new(); alive.len()],
    };
    for (task, replicas) in tasks.iter().enumerate() {
        let node = match holders.get(task).iter().min_by_key(|&&i| place.load[i]) {
            Some(&i) => i,
            None => (0..alive.len())
                .min_by_key(|&i| {
                    let hops = nearest_replica_hops(alive[i], replicas.as_ref(), topology);
                    (hops.unwrap_or(u32::MAX), place.load[i])
                })
                .expect("alive nonempty"),
        };
        place.node_of.push(node);
        place.load[node] += 1;
        place.on[node].push(task);
    }
    place
}

/// One round's placement over alive-node indices.
#[derive(Clone)]
struct Placement {
    node_of: Vec<usize>,
    load: Vec<u32>,
    /// The tasks on each node, in task order.
    on: Vec<Vec<usize>>,
}

impl Placement {
    /// Step 2: lowers the maximum load one level at a time, along paths
    /// over the holders or else over holders and rack-mates, until a level
    /// neither clears.
    fn balance(&mut self, holders: &Lists, topology: &Topology, alive: &[NodeId]) {
        let mut near = None;
        let mut search = PathSearch {
            seen: vec![false; alive.len()],
            prev: vec![(0, 0); alive.len()],
            queue: Vec::with_capacity(alive.len()),
        };
        loop {
            let top = self.load.iter().copied().max().unwrap_or(0);
            if top < 2 {
                return;
            }
            let saved = self.clone();
            if self.clear(top, &[holders], &mut search) {
                continue;
            }
            *self = saved.clone();
            let near: &Lists =
                near.get_or_insert_with(|| with_rack_mates(holders, topology, alive));
            if self.clear(top, &[holders, near], &mut search) {
                continue;
            }
            *self = saved;
            return;
        }
    }

    /// Lowers every node at load `top` by one, each along a path over the
    /// first of `candidates` that has one. False if some node has none.
    fn clear(&mut self, top: u32, candidates: &[&Lists], search: &mut PathSearch) -> bool {
        (0..self.load.len()).all(|start| {
            self.load[start] != top || candidates.iter().any(|c| search.lower(self, start, top, c))
        })
    }

    fn move_task(&mut self, task: usize, to: usize) {
        let from = std::mem::replace(&mut self.node_of[task], to);
        self.on[from].retain(|&t| t != task);
        let at = self.on[to].partition_point(|&t| t < task);
        self.on[to].insert(at, task);
        self.load[from] -= 1;
        self.load[to] += 1;
    }
}

/// Breadth-first search for a cost-reducing path; the buffers are kept
/// across searches.
struct PathSearch {
    seen: Vec<bool>,
    /// For each reached node: the node and the task it was reached through.
    prev: Vec<(usize, usize)>,
    queue: Vec<usize>,
}

impl PathSearch {
    /// Moves one task off `start` along the shortest chain of moves, each
    /// task to one of its `candidates`, that ends at a node with load at
    /// most `top - 2`. False, with nothing moved, if there is none.
    fn lower(&mut self, place: &mut Placement, start: usize, top: u32, candidates: &Lists) -> bool {
        self.seen.fill(false);
        self.queue.clear();
        self.seen[start] = true;
        self.queue.push(start);
        let mut head = 0;
        let mut end = None;
        'search: while let Some(&from) = self.queue.get(head) {
            head += 1;
            for &task in &place.on[from] {
                for &to in candidates.get(task) {
                    if !self.seen[to] {
                        self.seen[to] = true;
                        self.prev[to] = (from, task);
                        if place.load[to] + 2 <= top {
                            end = Some(to);
                            break 'search;
                        }
                        self.queue.push(to);
                    }
                }
            }
        }
        let Some(mut to) = end else {
            return false;
        };
        while to != start {
            let (from, task) = self.prev[to];
            place.move_task(task, to);
            to = from;
        }
        true
    }
}

/// Hops from `node` to the nearest of `replicas` the topology knows.
fn nearest_replica_hops(node: NodeId, replicas: &[NodeId], topology: &Topology) -> Option<u32> {
    replicas
        .iter()
        .filter_map(|&r| topology.hops(node, r).ok())
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn count_on(a: &[NodeId], node: u64) -> usize {
        a.iter().filter(|&&n| n == NodeId(node)).count()
    }

    #[test]
    fn data_local_when_replica_alive() {
        let topo = topo();
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let a = Scheduler
            .assign_all(&tasks, &topo, &all_but(&topo, &[]))
            .unwrap();
        assert_eq!(nearest_replica_hops(a[0], &tasks[0], &topo), Some(0));
        assert!(tasks[0].contains(&a[0]));
    }

    #[test]
    fn replica_failover_when_primary_dead() {
        let topo = topo();
        let tasks = vec![vec![NodeId(2), NodeId(4)]];
        let alive = all_but(&topo, &[NodeId(2)]);
        let a = Scheduler.assign_all(&tasks, &topo, &alive).unwrap();
        assert_eq!(a[0], NodeId(4));
        assert_eq!(nearest_replica_hops(a[0], &tasks[0], &topo), Some(0));
    }

    #[test]
    fn nearest_node_when_all_replicas_dead() {
        let topo = topo();
        // Nodes 0 and 1 hold replicas but are dead; 2 shares their rack.
        let tasks = vec![vec![NodeId(0), NodeId(1)]];
        let alive = all_but(&topo, &[NodeId(0), NodeId(1)]);
        let a = Scheduler.assign_all(&tasks, &topo, &alive).unwrap();
        assert_eq!(a[0], NodeId(2), "same-rack node preferred");
        assert_eq!(nearest_replica_hops(a[0], &tasks[0], &topo), Some(2));
    }

    #[test]
    fn round_load_spreads_same_replica_tasks() {
        let topo = topo();
        // Four tasks all replicated on nodes 0 and 3: the holders keep one
        // each, two idle rack-mates take the other two.
        let tasks = vec![vec![NodeId(0), NodeId(3)]; 4];
        let a = Scheduler
            .assign_all(&tasks, &topo, &all_but(&topo, &[]))
            .unwrap();
        for node in 0..6 {
            assert!(count_on(&a, node) <= 1, "node {node} stacked: {a:?}");
        }
        assert_eq!(count_on(&a, 0), 1);
        assert_eq!(count_on(&a, 3), 1);
    }

    #[test]
    fn holders_share_the_load_when_rack_mates_are_dead() {
        let topo = topo();
        let tasks = vec![vec![NodeId(0), NodeId(3)]; 4];
        let alive = [NodeId(0), NodeId(3)];
        let a = Scheduler.assign_all(&tasks, &topo, &alive).unwrap();
        assert_eq!(count_on(&a, 0), 2);
        assert_eq!(count_on(&a, 3), 2);
    }

    #[test]
    fn no_stacking_while_a_holder_idles() {
        let topo = topo();
        // In task order the first task takes node 0, the second has no
        // other holder: the first moves to its idle holder, node 1.
        let tasks = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(0)]];
        let a = Scheduler
            .assign_all(&tasks, &topo, &all_but(&topo, &[]))
            .unwrap();
        assert_eq!(a, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn no_alive_workers_errors() {
        let topo = Topology::grid(1, 1, 2);
        assert!(Scheduler
            .assign_all(&[vec![NodeId(0)]], &topo, &[])
            .is_err());
    }

    /// The least maximum load any placement of the movable tasks onto
    /// their `candidates` reaches, on top of the `fixed` loads: a
    /// feasibility search at each cap from the fixed maximum up.
    fn brute_force_optimum(candidates: &[Vec<usize>], fixed: &[u32]) -> u32 {
        fn fits(candidates: &[Vec<usize>], load: &mut [u32], cap: u32) -> bool {
            let Some((first, rest)) = candidates.split_first() else {
                return true;
            };
            for &n in first {
                if load[n] < cap {
                    load[n] += 1;
                    let ok = fits(rest, load, cap);
                    load[n] -= 1;
                    if ok {
                        return true;
                    }
                }
            }
            false
        }
        let mut cap = fixed.iter().copied().max().unwrap_or(0);
        while !fits(candidates, &mut fixed.to_vec(), cap) {
            cap += 1;
        }
        cap
    }

    proptest! {
        #[test]
        fn scheduler_matches_brute_force(
            per_rack in 1u64..4,
            replicas in proptest::collection::vec((0u64..6, 0u64..6, 0u64..6, 1usize..4), 1..9),
            dead_mask in 0u64..64,
        ) {
            let topo = Topology::grid(1, 2, per_rack as u32);
            let n = 2 * per_rack;
            let tasks: Vec<Vec<NodeId>> = replicas
                .iter()
                .map(|&(a, b, c, k)| {
                    let mut r: Vec<NodeId> = [a, b, c][..k].iter().map(|x| NodeId(x % n)).collect();
                    r.dedup();
                    r
                })
                .collect();
            let alive: Vec<NodeId> = (0..n).filter(|i| dead_mask >> i & 1 == 0).map(NodeId).collect();
            let got = Scheduler.assign_all(&tasks, &topo, &alive);
            if alive.is_empty() {
                prop_assert!(got.is_err());
                return Ok(());
            }
            // As indices into `alive`; a dead node has none.
            let got: Vec<Option<usize>> =
                got.unwrap().iter().map(|id| alive.binary_search(id).ok()).collect();
            prop_assert!(got.iter().all(Option::is_some), "placed on a dead node: {:?}", got);
            let got: Vec<usize> = got.into_iter().flatten().collect();

            // Each task's alive holders, and those plus their alive
            // rack-mates, read off the topology directly.
            let holders: Vec<Vec<usize>> = tasks
                .iter()
                .map(|r| (0..alive.len()).filter(|&i| r.contains(&alive[i])).collect())
                .collect();
            let rack = |i: usize| topo.node(alive[i]).unwrap().rack;
            let near: Vec<Vec<usize>> = holders
                .iter()
                .map(|held| {
                    (0..alive.len()).filter(|&i| held.iter().any(|&h| rack(h) == rack(i))).collect()
                })
                .collect();
            let step1 = greedy(&tasks, &alive_holders(&tasks, &alive), &topo, &alive).node_of;

            // Tasks with no alive holder keep their step-1 node and load.
            let mut fixed = vec![0u32; alive.len()];
            for (t, held) in holders.iter().enumerate() {
                if held.is_empty() {
                    prop_assert_eq!(got[t], step1[t]);
                    fixed[got[t]] += 1;
                }
            }
            let movable = |c: &[Vec<usize>]| -> Vec<Vec<usize>> {
                c.iter().filter(|c| !c.is_empty()).cloned().collect()
            };
            let best = brute_force_optimum(&movable(&near), &fixed);
            let best_local = brute_force_optimum(&movable(&holders), &fixed);

            let max_load = |nodes: &[usize]| {
                (0..alive.len()).map(|i| nodes.iter().filter(|&&x| x == i).count()).max().unwrap() as u32
            };
            prop_assert_eq!(max_load(&got), best, "{:?} on {:?}, alive {:?}", got, tasks, alive);
            for t in 0..tasks.len() {
                if !holders[t].is_empty() {
                    prop_assert!(near[t].contains(&got[t]), "task {} off its rack: {:?}", t, got);
                    if best_local == best {
                        prop_assert!(holders[t].contains(&got[t]), "task {} left its holders: {:?}", t, got);
                    }
                }
            }
            if max_load(&step1) == best {
                prop_assert_eq!(&got, &step1);
            }
        }
    }
}
