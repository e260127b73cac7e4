//! The cluster manager's node table (paper §III-C, §V-A).
//!
//! "Cluster manager manages runtime information of workers… It
//! communicates with the job manager using periodic RPC. Feisu does not
//! adopt systems like Zookeeper for survival detection because the number
//! of workers is too large and the workers are geographically distributed"
//! (§III-C). One record per worker holds all the master knows of it: its
//! last heartbeat, whether it has failed, its straggler factor and its
//! resource consumption agreement. A failed worker stops beating and reads
//! dead only once it has missed [`HEARTBEAT_MISS_LIMIT`] beats — the
//! detection delay backup tasks cover. Under the agreement "Feisu doesn't
//! affect the service quality of the business application on top of each
//! storage system" (§V-A): the business side claims a fluctuating share of
//! a node's slots, and Feisu may hold at most [`RESOURCE_AGREEMENT_SHARE`]
//! of what remains.
//!
//! The whole table sits behind one lock, one level of `FeisuCluster`'s
//! lock order, and every operation is one short critical section.

use feisu_cluster::Topology;
use feisu_common::{NodeId, SimDuration, SimInstant};
use feisu_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::Arc;

/// Heartbeat period between workers and the cluster manager, and the
/// beats missed before a worker is declared dead.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::secs(3);
const HEARTBEAT_MISS_LIMIT: u64 = 3;

/// Maximum share of a storage node's free slots Feisu may hold.
const RESOURCE_AGREEMENT_SHARE: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
struct NodeState {
    last_seen: SimInstant,
    failed: bool,
    slow: f64,
    total_slots: u32,
    business_slots: u32,
    feisu_slots: u32,
}

impl NodeState {
    fn alive(&self, now: SimInstant) -> bool {
        now.since(self.last_seen) <= HEARTBEAT_INTERVAL * HEARTBEAT_MISS_LIMIT
    }

    /// Slots Feisu may hold: the floor of its share of what the business
    /// side leaves free.
    fn slot_limit(&self) -> u32 {
        let free = self.total_slots.saturating_sub(self.business_slots);
        (free as f64 * RESOURCE_AGREEMENT_SHARE).floor() as u32
    }
}

/// The answer to a task asking for a slot on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Acquire {
    /// A slot is held until [`NodeTable::release`]; the node's task times
    /// are multiplied by this slow factor.
    Granted(f64),
    /// The node has failed (or is unknown).
    Failed,
    /// The agreement leaves Feisu no slots on the node at all.
    NoSlots,
    /// Every slot Feisu may hold is held: ask again.
    Wait,
}

/// One node's `system.nodes` row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeRow {
    pub(crate) node: NodeId,
    pub(crate) alive: bool,
    pub(crate) failed: bool,
    pub(crate) slow_factor: f64,
    pub(crate) last_seen: SimInstant,
    /// Slots Feisu holds under the agreement right now.
    pub(crate) running_tasks: u32,
    /// Slots Feisu may hold under the agreement.
    pub(crate) feisu_slots: u32,
}

/// One record per worker, at its topology index, behind one lock.
#[derive(Debug)]
pub(crate) struct NodeTable {
    nodes: Mutex<Vec<NodeState>>,
    beats: Arc<Counter>,
}

impl NodeTable {
    /// Registers every node, with its total task slots in id order, as
    /// seen at `now`, and publishes `feisu.heartbeat.{beats,registered}`
    /// to `metrics`.
    pub(crate) fn new(
        total_slots: impl IntoIterator<Item = u32>,
        now: SimInstant,
        metrics: &MetricsRegistry,
    ) -> NodeTable {
        let nodes: Vec<NodeState> = total_slots
            .into_iter()
            .map(|total_slots| NodeState {
                last_seen: now,
                failed: false,
                slow: 1.0,
                total_slots,
                business_slots: 0,
                feisu_slots: 0,
            })
            .collect();
        metrics
            .gauge("feisu.heartbeat.registered")
            .set(nodes.len() as i64);
        NodeTable {
            nodes: Mutex::new(nodes),
            beats: metrics.counter("feisu.heartbeat.beats"),
        }
    }

    /// Every node that has not failed beats at `now`. `last_seen` only
    /// moves forward: concurrent queries beat with their own admission
    /// instants, and a straggling beat from an earlier instant must not
    /// roll a node's liveness backwards.
    pub(crate) fn tick(&self, now: SimInstant) {
        let mut nodes = self.nodes.lock();
        let mut beats = 0;
        for state in nodes.iter_mut().filter(|s| !s.failed) {
            state.last_seen = state.last_seen.max(now);
            beats += 1;
        }
        self.beats.add(beats);
    }

    /// The nodes alive at `now`, in id order.
    pub(crate) fn alive(&self, now: SimInstant) -> Vec<NodeId> {
        let nodes = self.nodes.lock();
        ids(&nodes)
            .filter(|(_, s)| s.alive(now))
            .map(|(id, _)| id)
            .collect()
    }

    /// Where a task refused by `failed_node` reruns: the first node alive
    /// at `now` that has not failed and holds a replica, else the first
    /// such node at all.
    pub(crate) fn pick_backup(
        &self,
        now: SimInstant,
        failed_node: NodeId,
        replicas: &[NodeId],
    ) -> Option<NodeId> {
        let candidates: Vec<NodeId> = {
            let nodes = self.nodes.lock();
            ids(&nodes)
                .filter(|&(id, s)| id != failed_node && !s.failed && s.alive(now))
                .map(|(id, _)| id)
                .collect()
        };
        candidates
            .iter()
            .copied()
            .find(|n| replicas.contains(n))
            .or_else(|| candidates.first().copied())
    }

    /// Marks a node failed: it stops beating.
    pub(crate) fn fail(&self, node: NodeId) {
        self.update(node, |s| s.failed = true);
    }

    /// Clears a node's failed mark; its slow factor stays.
    pub(crate) fn recover(&self, node: NodeId) {
        self.update(node, |s| s.failed = false);
    }

    /// Sets a node's slow factor (at least 1).
    pub(crate) fn slow(&self, node: NodeId, factor: f64) {
        self.update(node, |s| s.slow = factor.max(1.0));
    }

    /// Business-critical load on a node, always granted (it has absolute
    /// priority) up to the node's total slots. Returns how many held
    /// Feisu slots the smaller limit now leaves over budget.
    pub(crate) fn set_business_load(&self, node: NodeId, slots: u32) -> u32 {
        self.update(node, |s| {
            s.business_slots = slots.min(s.total_slots);
            s.feisu_slots.saturating_sub(s.slot_limit())
        })
        .unwrap_or(0)
    }

    /// Slots Feisu may hold on a node (0 for an unknown node).
    pub(crate) fn slot_limit(&self, node: NodeId) -> u32 {
        self.update(node, |s| s.slot_limit()).unwrap_or(0)
    }

    /// Asks for one slot on a node for a task about to run there.
    pub(crate) fn acquire(&self, node: NodeId) -> Acquire {
        self.update(node, |s| {
            let limit = s.slot_limit();
            if s.failed {
                Acquire::Failed
            } else if limit == 0 {
                Acquire::NoSlots
            } else if s.feisu_slots >= limit {
                Acquire::Wait
            } else {
                s.feisu_slots += 1;
                Acquire::Granted(s.slow)
            }
        })
        .unwrap_or(Acquire::Failed)
    }

    /// Gives back a slot [`acquire`](Self::acquire) granted.
    pub(crate) fn release(&self, node: NodeId) {
        self.update(node, |s| s.feisu_slots = s.feisu_slots.saturating_sub(1));
    }

    /// Every node's `system.nodes` row at `now`, in id order.
    pub(crate) fn rows(&self, now: SimInstant) -> Vec<NodeRow> {
        let nodes = self.nodes.lock();
        ids(&nodes)
            .map(|(node, s)| NodeRow {
                node,
                alive: s.alive(now),
                failed: s.failed,
                slow_factor: s.slow,
                last_seen: s.last_seen,
                running_tasks: s.feisu_slots,
                feisu_slots: s.slot_limit(),
            })
            .collect()
    }

    fn update<R>(&self, node: NodeId, f: impl FnOnce(&mut NodeState) -> R) -> Option<R> {
        self.nodes.lock().get_mut(Topology::index(node)).map(f)
    }
}

/// Each record with its node's id.
fn ids(nodes: &[NodeState]) -> impl Iterator<Item = (NodeId, &NodeState)> {
    (0..).map(NodeId).zip(nodes)
}

#[cfg(test)]
mod tests {
    //! The table against a plain per-node model. Random sequences of
    //! beat, fail, recover, slow, business load, acquire, release and
    //! backup picks at random instants (beats may arrive out of order)
    //! over four nodes of different sizes plus one unknown node must give
    //! the same answers, and after every step the same alive list, slot
    //! limits, `system.nodes` rows and beat count.

    use super::*;
    use proptest::prelude::*;

    const TOTAL_SLOTS: [u32; 4] = [16, 16, 8, 3];
    const MISS_WINDOW_NS: u64 = 9_000_000_000;

    #[derive(Clone, Copy)]
    struct Model {
        last_seen_ns: u64,
        failed: bool,
        slow: f64,
        business: u32,
        held: u32,
    }

    impl Model {
        fn alive(&self, now_ns: u64) -> bool {
            now_ns.saturating_sub(self.last_seen_ns) <= MISS_WINDOW_NS
        }
    }

    fn limit(node: usize, m: &Model) -> u32 {
        (TOTAL_SLOTS[node] - m.business) / 4
    }

    /// Nodes 0 and 1 with 16 slots each (a limit of 4), registered at 0.
    fn table() -> (NodeTable, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let table = NodeTable::new([16, 16], SimInstant(0), &metrics);
        (table, metrics)
    }

    fn at_secs(secs: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::secs(secs)
    }

    #[test]
    fn fresh_node_is_alive() {
        let (t, _) = table();
        assert_eq!(t.alive(SimInstant(0)), [NodeId(0), NodeId(1)]);
        assert_eq!(t.alive(at_secs(9)), [NodeId(0), NodeId(1)]);
    }

    #[test]
    fn silent_node_declared_dead_after_miss_limit() {
        let (t, _) = table();
        let just_past = at_secs(9) + SimDuration::nanos(1);
        assert!(t.alive(just_past).is_empty());
        assert!(t.rows(just_past).iter().all(|r| !r.alive));
    }

    #[test]
    fn beat_revives_node() {
        let (t, _) = table();
        let late = at_secs(60);
        assert!(t.alive(late).is_empty());
        t.tick(late);
        assert_eq!(t.alive(late), [NodeId(0), NodeId(1)]);
        assert_eq!(t.rows(late)[0].last_seen, late);
        // A straggling beat from earlier does not roll liveness back.
        t.tick(at_secs(1));
        assert_eq!(t.rows(late)[0].last_seen, late);
    }

    #[test]
    fn metrics_count_beats_and_registered_nodes() {
        let (t, metrics) = table();
        assert_eq!(metrics.gauge("feisu.heartbeat.registered").get(), 2);
        t.tick(SimInstant(0));
        t.fail(NodeId(0));
        t.tick(SimInstant(0));
        assert_eq!(metrics.counter("feisu.heartbeat.beats").get(), 3);
        assert_eq!(metrics.gauge("feisu.heartbeat.registered").get(), 2);
    }

    #[test]
    fn unknown_node_is_dead() {
        let (t, _) = table();
        for unknown in [NodeId(2), NodeId(5), NodeId(u64::MAX)] {
            assert!(!t.alive(SimInstant(0)).contains(&unknown));
            assert_eq!(t.acquire(unknown), Acquire::Failed);
            assert_eq!(t.slot_limit(unknown), 0);
            assert_eq!(t.set_business_load(unknown, 3), 0);
        }
    }

    #[test]
    fn failed_node_stops_beating_and_reads_dead_after_the_window() {
        let (t, _) = table();
        t.fail(NodeId(0));
        t.slow(NodeId(0), 3.0);
        t.tick(at_secs(5));
        assert_eq!(t.alive(at_secs(9)), [NodeId(0), NodeId(1)]);
        let now = at_secs(20);
        t.tick(now);
        assert_eq!(t.alive(now), [NodeId(1)]);
        assert_eq!(t.rows(now)[0].last_seen, SimInstant(0));
        assert_eq!(t.acquire(NodeId(0)), Acquire::Failed);
        assert_eq!(t.pick_backup(now, NodeId(1), &[NodeId(0)]), None);
        // Recovery keeps the slow factor.
        t.recover(NodeId(0));
        assert_eq!(t.acquire(NodeId(0)), Acquire::Granted(3.0));
    }

    #[test]
    fn limit_scales_with_free_capacity() {
        let (t, _) = table();
        assert_eq!(t.slot_limit(NodeId(0)), 4);
        t.set_business_load(NodeId(0), 8);
        assert_eq!(t.slot_limit(NodeId(0)), 2);
        t.set_business_load(NodeId(0), 16);
        assert_eq!(t.slot_limit(NodeId(0)), 0);
        assert_eq!(t.acquire(NodeId(0)), Acquire::NoSlots);
    }

    #[test]
    fn acquire_respects_limit() {
        let (t, _) = table();
        for _ in 0..4 {
            assert_eq!(t.acquire(NodeId(0)), Acquire::Granted(1.0));
        }
        assert_eq!(t.acquire(NodeId(0)), Acquire::Wait);
        assert_eq!(t.rows(SimInstant(0))[0].running_tasks, 4);
        t.release(NodeId(0));
        assert_eq!(t.acquire(NodeId(0)), Acquire::Granted(1.0));
    }

    #[test]
    fn business_spike_leaves_slots_over_budget() {
        let (t, _) = table();
        for _ in 0..4 {
            t.acquire(NodeId(0));
        }
        // free = 4, limit = 1, holding 4: 3 over budget.
        assert_eq!(t.set_business_load(NodeId(0), 12), 3);
        for _ in 0..3 {
            t.release(NodeId(0));
        }
        // One slot still held: the limit of 1 is full.
        assert_eq!(t.acquire(NodeId(0)), Acquire::Wait);
    }

    #[test]
    fn business_load_clamped_to_total() {
        let (t, _) = table();
        assert_eq!(t.set_business_load(NodeId(0), 100), 0);
        assert_eq!(t.slot_limit(NodeId(0)), 0);
    }

    proptest! {
        #[test]
        fn table_matches_a_per_node_model(
            ops in proptest::collection::vec((0u8..8, 0u64..5, 0u64..40, 0u32..24), 1..150),
        ) {
            let metrics = MetricsRegistry::new();
            let table = NodeTable::new(TOTAL_SLOTS, SimInstant(0), &metrics);
            let fresh = Model { last_seen_ns: 0, failed: false, slow: 1.0, business: 0, held: 0 };
            let mut model = [fresh; 4];
            let mut beats = 0u64;
            for (op, node, secs, arg) in ops {
                let now = SimInstant::EPOCH + SimDuration::secs(secs);
                let now_ns = now.as_nanos();
                let id = NodeId(node);
                let i = node as usize;
                match op {
                    0 => {
                        table.tick(now);
                        for m in model.iter_mut().filter(|m| !m.failed) {
                            m.last_seen_ns = m.last_seen_ns.max(now_ns);
                            beats += 1;
                        }
                    }
                    1 => {
                        table.fail(id);
                        if let Some(m) = model.get_mut(i) {
                            m.failed = true;
                        }
                    }
                    2 => {
                        table.recover(id);
                        if let Some(m) = model.get_mut(i) {
                            m.failed = false;
                        }
                    }
                    3 => {
                        let factor = arg as f64 / 4.0;
                        table.slow(id, factor);
                        if let Some(m) = model.get_mut(i) {
                            m.slow = if factor < 1.0 { 1.0 } else { factor };
                        }
                    }
                    4 => {
                        let over = model.get_mut(i).map_or(0, |m| {
                            m.business = arg.min(TOTAL_SLOTS[i]);
                            m.held.saturating_sub((TOTAL_SLOTS[i] - m.business) / 4)
                        });
                        prop_assert_eq!(table.set_business_load(id, arg), over);
                    }
                    5 => {
                        let want = match model.get_mut(i) {
                            None => Acquire::Failed,
                            Some(m) if m.failed => Acquire::Failed,
                            Some(m) if (TOTAL_SLOTS[i] - m.business) / 4 == 0 => Acquire::NoSlots,
                            Some(m) if m.held >= (TOTAL_SLOTS[i] - m.business) / 4 => Acquire::Wait,
                            Some(m) => {
                                m.held += 1;
                                Acquire::Granted(m.slow)
                            }
                        };
                        prop_assert_eq!(table.acquire(id), want);
                    }
                    6 => {
                        table.release(id);
                        if let Some(m) = model.get_mut(i) {
                            m.held = m.held.saturating_sub(1);
                        }
                    }
                    _ => {
                        // Replica holders: the nodes whose bit is set in `arg`.
                        let replicas: Vec<NodeId> =
                            (0..5u64).filter(|n| arg >> n & 1 == 1).map(NodeId).collect();
                        let candidates: Vec<u64> = (0..4u64)
                            .filter(|&n| n != node)
                            .filter(|&n| !model[n as usize].failed && model[n as usize].alive(now_ns))
                            .collect();
                        let want = candidates
                            .iter()
                            .find(|&&n| arg >> n & 1 == 1)
                            .or(candidates.first())
                            .map(|&n| NodeId(n));
                        prop_assert_eq!(table.pick_backup(now, id, &replicas), want);
                    }
                }
                let alive: Vec<NodeId> =
                    (0..4u64).filter(|&n| model[n as usize].alive(now_ns)).map(NodeId).collect();
                prop_assert_eq!(table.alive(now), alive);
                for n in 0..5u64 {
                    let want = model.get(n as usize).map_or(0, |m| limit(n as usize, m));
                    prop_assert_eq!(table.slot_limit(NodeId(n)), want);
                }
                let rows: Vec<NodeRow> = model
                    .iter()
                    .enumerate()
                    .map(|(n, m)| NodeRow {
                        node: NodeId(n as u64),
                        alive: m.alive(now_ns),
                        failed: m.failed,
                        slow_factor: m.slow,
                        last_seen: SimInstant(m.last_seen_ns),
                        running_tasks: m.held,
                        feisu_slots: limit(n, m),
                    })
                    .collect();
                prop_assert_eq!(table.rows(now), rows);
                prop_assert_eq!(metrics.counter("feisu.heartbeat.beats").get(), beats);
                prop_assert_eq!(metrics.gauge("feisu.heartbeat.registered").get(), 4);
            }
        }
    }
}
