//! Heartbeat tracking and failure detection.
//!
//! "Cluster manager manages runtime information of workers… It
//! communicates with the job manager using periodic RPC. Feisu does not
//! adopt systems like Zookeeper for survival detection because the number
//! of workers is too large and the workers are geographically distributed"
//! (§III-C). This module is that bookkeeping: a table of last-seen beats
//! plus per-node load statistics, with failure declared after a
//! configurable number of missed intervals. Failure *injection* for tests
//! is done simply by not beating a node.

use feisu_common::hash::FxHashMap;
use feisu_common::{NodeId, SimDuration, SimInstant};
use feisu_obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

/// Load statistics a worker reports with each heartbeat; the scheduler
/// prefers lightly loaded nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadStats {
    /// Tasks currently queued or running on the worker.
    pub running_tasks: u32,
    /// Fraction of the node's resource-agreement share currently used.
    pub utilization: f64,
}

#[derive(Debug, Clone)]
struct BeatRecord {
    last_seen: SimInstant,
    load: LoadStats,
}

/// Counter/gauge handles the table updates when metrics are attached.
#[derive(Debug)]
struct HeartbeatMetrics {
    beats: Arc<Counter>,
    registered: Arc<Gauge>,
}

/// The cluster manager's heartbeat table.
#[derive(Debug)]
pub struct HeartbeatTable {
    interval: SimDuration,
    miss_limit: u32,
    records: FxHashMap<NodeId, BeatRecord>,
    metrics: Option<HeartbeatMetrics>,
}

impl HeartbeatTable {
    pub fn new(interval: SimDuration, miss_limit: u32) -> Self {
        assert!(miss_limit >= 1, "miss_limit must be >= 1");
        HeartbeatTable {
            interval,
            miss_limit,
            records: FxHashMap::default(),
            metrics: None,
        }
    }

    /// Starts publishing `feisu.heartbeat.*` to a registry.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let m = HeartbeatMetrics {
            beats: registry.counter("feisu.heartbeat.beats"),
            registered: registry.gauge("feisu.heartbeat.registered"),
        };
        m.registered.set(self.records.len() as i64);
        self.metrics = Some(m);
    }

    /// Registers a worker (first heartbeat).
    pub fn register(&mut self, node: NodeId, now: SimInstant) {
        self.records.insert(
            node,
            BeatRecord {
                last_seen: now,
                load: LoadStats::default(),
            },
        );
        if let Some(m) = &self.metrics {
            m.registered.set(self.records.len() as i64);
        }
    }

    /// Records a heartbeat with fresh load statistics. `last_seen` is
    /// monotonic: concurrent queries beat with their own admission
    /// instants, and a straggling beat from an earlier instant must not
    /// roll a node's liveness backwards.
    pub fn beat(&mut self, node: NodeId, now: SimInstant, load: LoadStats) {
        let rec = self.records.entry(node).or_insert(BeatRecord {
            last_seen: now,
            load,
        });
        rec.last_seen = rec.last_seen.max(now);
        rec.load = load;
        if let Some(m) = &self.metrics {
            m.beats.inc();
            m.registered.set(self.records.len() as i64);
        }
    }

    /// Whether the node is considered alive at `now`.
    pub fn is_alive(&self, node: NodeId, now: SimInstant) -> bool {
        match self.records.get(&node) {
            None => false,
            Some(rec) => now.since(rec.last_seen) <= self.interval * self.miss_limit as u64,
        }
    }

    /// Load statistics of a node, if registered.
    pub fn load(&self, node: NodeId) -> Option<LoadStats> {
        self.records.get(&node).map(|r| r.load)
    }

    /// Last heartbeat instant of a node, if registered (drives the
    /// `last_seen_ns` column of the `system.nodes` virtual table).
    pub fn last_seen(&self, node: NodeId) -> Option<SimInstant> {
        self.records.get(&node).map(|r| r.last_seen)
    }

    /// All nodes alive at `now`.
    pub fn alive_nodes(&self, now: SimInstant) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .records
            .iter()
            .filter(|(_, r)| now.since(r.last_seen) <= self.interval * self.miss_limit as u64)
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Removes a node entirely (decommission).
    pub fn remove(&mut self, node: NodeId) {
        self.records.remove(&node);
        if let Some(m) = &self.metrics {
            m.registered.set(self.records.len() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HeartbeatTable {
        HeartbeatTable::new(SimDuration::secs(3), 3)
    }

    #[test]
    fn fresh_node_is_alive() {
        let mut t = table();
        t.register(NodeId(1), SimInstant(0));
        assert!(t.is_alive(NodeId(1), SimInstant(0)));
        assert!(t.is_alive(NodeId(1), SimInstant::EPOCH + SimDuration::secs(9)));
    }

    #[test]
    fn silent_node_declared_dead_after_miss_limit() {
        let mut t = table();
        t.register(NodeId(1), SimInstant(0));
        let just_past = SimInstant::EPOCH + SimDuration::secs(9) + SimDuration::nanos(1);
        assert!(!t.is_alive(NodeId(1), just_past));
        assert!(t.alive_nodes(just_past).is_empty());
    }

    #[test]
    fn beat_revives_node() {
        let mut t = table();
        t.register(NodeId(1), SimInstant(0));
        let late = SimInstant::EPOCH + SimDuration::secs(60);
        assert!(!t.is_alive(NodeId(1), late));
        t.beat(
            NodeId(1),
            late,
            LoadStats {
                running_tasks: 2,
                utilization: 0.5,
            },
        );
        assert!(t.is_alive(NodeId(1), late));
        assert_eq!(t.load(NodeId(1)).unwrap().running_tasks, 2);
        assert_eq!(t.last_seen(NodeId(1)), Some(late));
        assert_eq!(t.last_seen(NodeId(9)), None);
    }

    #[test]
    fn attached_metrics_track_beats_and_membership() {
        let registry = MetricsRegistry::new();
        let mut t = table();
        t.register(NodeId(1), SimInstant(0));
        t.attach_metrics(&registry);
        assert_eq!(registry.gauge("feisu.heartbeat.registered").get(), 1);
        t.register(NodeId(2), SimInstant(0));
        t.beat(NodeId(1), SimInstant(0), LoadStats::default());
        t.beat(NodeId(2), SimInstant(0), LoadStats::default());
        assert_eq!(registry.counter("feisu.heartbeat.beats").get(), 2);
        assert_eq!(registry.gauge("feisu.heartbeat.registered").get(), 2);
        t.remove(NodeId(1));
        assert_eq!(registry.gauge("feisu.heartbeat.registered").get(), 1);
    }

    #[test]
    fn unknown_node_is_dead() {
        let t = table();
        assert!(!t.is_alive(NodeId(5), SimInstant(0)));
        assert_eq!(t.load(NodeId(5)), None);
    }

    #[test]
    fn alive_and_dead_partition_registered() {
        let mut t = table();
        t.register(NodeId(1), SimInstant(0));
        t.register(NodeId(2), SimInstant(0));
        let now = SimInstant::EPOCH + SimDuration::secs(20);
        t.beat(NodeId(2), now, LoadStats::default());
        assert_eq!(t.alive_nodes(now), vec![NodeId(2)]);
        assert!(!t.is_alive(NodeId(1), now));
        assert_eq!(t.last_seen(NodeId(1)), Some(SimInstant(0)));
        t.remove(NodeId(1));
        assert_eq!(t.last_seen(NodeId(1)), None);
    }
}
