//! Cluster-wide configuration knobs.
//!
//! These defaults mirror the paper's experiment setup (§VI-A): 4-core
//! 2.4 GHz nodes, 64 GB RAM, four 3 TB SATA disks, one 500 GB SSD, 1 Gbps
//! full-duplex Ethernet, 512 MB of SmartIndex memory per leaf, three
//! replicas per block, and the 72-hour index TTL from §IV-C-2.

use crate::units::{ByteSize, SimDuration};

/// Knobs of the multi-tier block cache (memory + SSD per node, with a
/// ghost LRU driving admission).
#[derive(Debug, Clone)]
pub struct CacheSettings {
    /// Master switch. The cache is also enabled implicitly when a
    /// deployment configures pinned path prefixes.
    pub enabled: bool,
    /// DRAM tier capacity per node. `0` disables the memory tier
    /// (entries then live in the SSD tier only).
    pub mem_capacity_per_node: ByteSize,
    /// SSD tier capacity per node.
    pub ssd_capacity_per_node: ByteSize,
    /// Ghost-LRU capacity in keys per node (recently evicted and
    /// once-seen keys remembered for frequency-based admission: an
    /// unpinned block is admitted on its *second* sighting within the
    /// ghost's memory, so one-hit-wonders never evict hot blocks). `0`
    /// disables the ghost, so only pinned prefixes are admitted — the
    /// paper's manual §IV-B preference rules.
    pub ghost_capacity: usize,
}

impl Default for CacheSettings {
    fn default() -> Self {
        CacheSettings {
            enabled: false,
            mem_capacity_per_node: ByteSize::gib(1),
            ssd_capacity_per_node: ByteSize::gib(16),
            ghost_capacity: 8192,
        }
    }
}

impl CacheSettings {
    /// Validates invariants; mirrors [`FeisuConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled
            && self.mem_capacity_per_node.as_u64() == 0
            && self.ssd_capacity_per_node.as_u64() == 0
        {
            return Err("cache enabled with zero capacity in both tiers".into());
        }
        Ok(())
    }
}

/// Knobs of the distributed merge tree and its aggregate exchange.
#[derive(Debug, Clone)]
pub struct MergeTreeSettings {
    /// Hash partitions of the repartition exchange for aggregate
    /// transports: group keys are hashed into this many disjoint
    /// partitions, each merged by its own stem merger in parallel, so no
    /// single merger materializes the full group map. `1` disables the
    /// exchange; global (no GROUP BY) aggregates always bypass it.
    /// Answers are bit-identical at any partition count.
    pub exchange_partitions: usize,
}

impl Default for MergeTreeSettings {
    fn default() -> Self {
        MergeTreeSettings {
            exchange_partitions: 4,
        }
    }
}

impl MergeTreeSettings {
    /// Validates invariants; mirrors [`FeisuConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.exchange_partitions == 0 {
            return Err("merge_tree.exchange_partitions must be >= 1".into());
        }
        if self.exchange_partitions > 1024 {
            return Err("merge_tree.exchange_partitions must be <= 1024".into());
        }
        Ok(())
    }
}

/// Knobs of the logical optimizer and the cost-based join-order search.
#[derive(Debug, Clone)]
pub struct OptimizerSettings {
    /// Master kill-switch. When off, queries execute their unrewritten
    /// logical plans (no pushdown, no pruning, no reordering) — the
    /// debugging baseline. Results are identical either way; only the
    /// work done to produce them changes.
    pub enabled: bool,
    /// Cost-based join reordering at lowering time. Requires `enabled`;
    /// can be switched off separately to pin the syntactic join order
    /// while keeping the rewrite rules.
    pub join_reorder: bool,
    /// Join regions up to this many relations are ordered by exhaustive
    /// left-deep dynamic programming; larger regions use a greedy
    /// heuristic. Range 2..=12 (DP is O(2ⁿ·n)).
    pub dp_limit: usize,
}

impl Default for OptimizerSettings {
    fn default() -> Self {
        OptimizerSettings {
            enabled: true,
            join_reorder: true,
            dp_limit: 6,
        }
    }
}

impl OptimizerSettings {
    /// Validates invariants; mirrors [`FeisuConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=12).contains(&self.dp_limit) {
            return Err("optimizer.dp_limit must be in 2..=12".into());
        }
        Ok(())
    }
}

/// Top-level configuration for a Feisu deployment/simulation.
#[derive(Debug, Clone)]
pub struct FeisuConfig {
    /// Memory budget per leaf server for SmartIndex storage.
    pub index_memory_per_leaf: ByteSize,
    /// Time-to-live for a SmartIndex entry (paper: 72 hours).
    pub index_ttl: SimDuration,
    /// Block replica count in distributed storage systems.
    pub replication_factor: usize,
    /// Delay after which the scheduler launches a backup (speculative) task
    /// for a straggler.
    pub backup_task_delay: SimDuration,
    /// The multi-tier block cache (memory + SSD per node).
    pub cache: CacheSettings,
    /// Fan-out of the execution tree: leaves per stem server. The master
    /// takes the same fan-in: a level that only cuts fan-in (a row scan's,
    /// a global aggregate's) is skipped once its nodes fit one stem.
    pub leaves_per_stem: usize,
    /// The distributed merge tree's aggregate exchange.
    pub merge_tree: MergeTreeSettings,
    /// Results larger than this are dumped to global storage and only
    /// their location travels the read-data flow (§V-C: "If the data are
    /// too big, it will be dumped to global storage and only the location
    /// information is passed").
    pub result_spill_threshold: ByteSize,
    /// Worker threads for real (wall-clock) leaf-task execution on the
    /// master. `0` = auto (use available parallelism); `1` = serial
    /// execution. Simulated results are bit-identical at every setting —
    /// this knob only changes how fast the simulation itself runs.
    pub execution_threads: usize,
    /// Capacity of the always-on query event log behind
    /// `system.queries` (a bounded ring buffer; oldest records are
    /// evicted first) — which is also how far back the query history
    /// used for personalization reaches. Must be >= 1.
    pub query_log_capacity: usize,
    /// The logical optimizer and cost-based join-order search.
    pub optimizer: OptimizerSettings,
}

impl Default for FeisuConfig {
    fn default() -> Self {
        FeisuConfig {
            index_memory_per_leaf: ByteSize::mib(512),
            index_ttl: SimDuration::hours(72),
            replication_factor: 3,
            backup_task_delay: SimDuration::secs(5),
            cache: CacheSettings::default(),
            leaves_per_stem: 64,
            merge_tree: MergeTreeSettings::default(),
            result_spill_threshold: ByteSize::mib(64),
            execution_threads: 0,
            query_log_capacity: 1024,
            optimizer: OptimizerSettings::default(),
        }
    }
}

impl FeisuConfig {
    /// Validates invariants; returns a message describing the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication_factor == 0 {
            return Err("replication_factor must be >= 1".into());
        }
        if self.leaves_per_stem == 0 {
            return Err("leaves_per_stem must be >= 1".into());
        }
        if self.query_log_capacity == 0 {
            return Err("query_log_capacity must be >= 1".into());
        }
        self.cache.validate()?;
        self.merge_tree.validate()?;
        self.optimizer.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = FeisuConfig::default();
        assert_eq!(c.index_memory_per_leaf, ByteSize::mib(512));
        assert_eq!(c.index_ttl, SimDuration::hours(72));
        assert_eq!(c.replication_factor, 3);
        // The cache is opt-in.
        assert!(!c.cache.enabled);
        assert_eq!(c.cache.ssd_capacity_per_node, ByteSize::gib(16));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_settings_validation() {
        let mut s = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::ZERO,
            ssd_capacity_per_node: ByteSize::ZERO,
            ..CacheSettings::default()
        };
        assert!(s.validate().is_err(), "both tiers empty");
        s.ssd_capacity_per_node = ByteSize::mib(1);
        assert!(s.validate().is_ok());
        let mut c = FeisuConfig::default();
        c.cache.enabled = true;
        c.cache.mem_capacity_per_node = ByteSize::ZERO;
        c.cache.ssd_capacity_per_node = ByteSize::ZERO;
        assert!(c.validate().is_err(), "config validation covers the cache");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validate_rejects_bad_values() {
        let mut c = FeisuConfig::default();
        c.replication_factor = 0;
        assert!(c.validate().is_err());

        let mut c = FeisuConfig::default();
        c.leaves_per_stem = 0;
        assert!(c.validate().is_err());

        let mut c = FeisuConfig::default();
        c.query_log_capacity = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn optimizer_defaults_and_validation() {
        let c = FeisuConfig::default();
        assert!(c.optimizer.enabled);
        assert!(c.optimizer.join_reorder);
        assert_eq!(c.optimizer.dp_limit, 6);
        assert!(c.validate().is_ok());

        let mut c = FeisuConfig::default();
        c.optimizer.dp_limit = 1;
        assert!(c.validate().is_err(), "dp over a single relation");
        c.optimizer.dp_limit = 13;
        assert!(c.validate().is_err(), "exponential blowup guard");
        c.optimizer.dp_limit = 2;
        c.optimizer.enabled = false;
        assert!(c.validate().is_ok(), "kill-switch is a valid point");
    }

    #[test]
    fn merge_tree_defaults_and_validation() {
        let c = FeisuConfig::default();
        assert_eq!(c.merge_tree.exchange_partitions, 4);
        assert!(c.validate().is_ok());

        let mut c = FeisuConfig::default();
        c.merge_tree.exchange_partitions = 0;
        assert!(c.validate().is_err(), "zero partitions");
        c.merge_tree.exchange_partitions = 4096;
        assert!(c.validate().is_err(), "absurd partition count");
        c.merge_tree.exchange_partitions = 1;
        assert!(c.validate().is_ok(), "no exchange is a valid point");
    }
}
