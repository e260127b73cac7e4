//! Calibrated I/O, network and CPU cost model.
//!
//! The model is calibrated against the paper's experiment hardware
//! (§VI-A): 4-core 2.4 GHz Xeon nodes with four 3 TB SATA disks
//! (~100 MB/s sequential, ~5 ms seek), one 500 GB SSD (~400 MB/s, ~60 µs
//! access), 64 GB of RAM (~10 GB/s streaming), and 1 Gbps full-duplex
//! Ethernet (125 MB/s, ~100 µs per switch hop). Changing the constants
//! changes absolute numbers but not the structural comparisons the
//! benchmarks report (who wins, roughly by how much).

use crate::simclock::TimeTally;
use feisu_common::{ByteSize, SimDuration};

/// Where a byte physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMedium {
    /// Rotational SATA disk.
    Hdd,
    /// SATA SSD (the per-node cache device).
    Ssd,
    /// DRAM (SmartIndex storage, hot buffers).
    Memory,
}

/// All tunables of the simulation cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-request latency for an HDD read (seek + rotation).
    pub hdd_seek: SimDuration,
    /// HDD streaming cost per byte.
    pub hdd_ns_per_byte: f64,
    /// Fixed per-request latency for an SSD read.
    pub ssd_seek: SimDuration,
    /// SSD streaming cost per byte.
    pub ssd_ns_per_byte: f64,
    /// Memory streaming cost per byte.
    pub mem_ns_per_byte: f64,
    /// Per-hop switch latency.
    pub net_hop_latency: SimDuration,
    /// Network cost per byte at full line rate (1 Gbps ⇒ 8 ns/B).
    pub net_ns_per_byte: f64,
    /// CPU cost to evaluate one predicate against one value.
    pub cpu_ns_per_predicate_row: f64,
    /// CPU cost to insert one row into a hash-join build table.
    pub cpu_ns_per_join_build_row: f64,
    /// CPU cost to probe the build table with one row.
    pub cpu_ns_per_join_probe_row: f64,
    /// CPU cost of one sort comparison.
    pub cpu_ns_per_sort_cmp: f64,
    /// CPU cost to materialize one projected output row.
    pub cpu_ns_per_project_row: f64,
    /// CPU cost to fold one row into an aggregation hash table.
    pub cpu_ns_per_agg_update_row: f64,
    /// CPU cost to merge one partial-aggregate transport row.
    pub cpu_ns_per_agg_merge_row: f64,
    /// CPU cost to decompress one byte.
    pub cpu_ns_per_decompress_byte: f64,
    /// Fixed cost of dispatching one task over RPC.
    pub rpc_overhead: SimDuration,
    /// Fixed per-request latency of the block cache's DRAM tier. Unlike
    /// raw `StorageMedium::Memory` streaming (SmartIndex buffers already
    /// in the process), a memory-tier cache hit pays for a lookup in the
    /// cache's index and a buffer handoff, so it has a small but nonzero
    /// access floor.
    pub mem_cache_seek: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            hdd_seek: SimDuration::millis(5),
            hdd_ns_per_byte: 10.0, // 100 MB/s
            ssd_seek: SimDuration::micros(60),
            ssd_ns_per_byte: 2.5, // 400 MB/s
            mem_ns_per_byte: 0.1, // 10 GB/s
            net_hop_latency: SimDuration::micros(100),
            net_ns_per_byte: 8.0, // 1 Gbps
            cpu_ns_per_predicate_row: 2.0,
            // The per-operator rates are calibrated to the same per-row
            // cost the engine historically charged through
            // `predicate_eval` for every operator, so default simulated
            // times are unchanged by the per-operator split.
            cpu_ns_per_join_build_row: 2.0,
            cpu_ns_per_join_probe_row: 2.0,
            cpu_ns_per_sort_cmp: 2.0,
            cpu_ns_per_project_row: 2.0,
            cpu_ns_per_agg_update_row: 2.0,
            cpu_ns_per_agg_merge_row: 2.0,
            cpu_ns_per_decompress_byte: 0.5,
            rpc_overhead: SimDuration::micros(200),
            mem_cache_seek: SimDuration::micros(5),
        }
    }
}

impl CostModel {
    /// Fixed per-request access latency of a medium. Columnar scans pay
    /// one of these per column touched (each column is a separate extent).
    pub fn seek(&self, medium: StorageMedium) -> SimDuration {
        match medium {
            StorageMedium::Hdd => self.hdd_seek,
            StorageMedium::Ssd => self.ssd_seek,
            StorageMedium::Memory => SimDuration::ZERO,
        }
    }

    /// Cost of reading `size` bytes from `medium` in one sequential request.
    pub fn read(&self, medium: StorageMedium, size: ByteSize) -> SimDuration {
        let (seek, per_byte) = match medium {
            StorageMedium::Hdd => (self.hdd_seek, self.hdd_ns_per_byte),
            StorageMedium::Ssd => (self.ssd_seek, self.ssd_ns_per_byte),
            StorageMedium::Memory => (SimDuration::ZERO, self.mem_ns_per_byte),
        };
        seek + SimDuration::nanos((size.as_u64() as f64 * per_byte) as u64)
    }

    /// Cost of serving `size` bytes from the block cache's DRAM tier:
    /// the cache access floor plus memory streaming. Sits strictly
    /// between a raw memory read and an SSD read for block-sized
    /// objects.
    pub fn mem_cache_read(&self, size: ByteSize) -> SimDuration {
        self.mem_cache_seek + self.read(StorageMedium::Memory, size)
    }

    /// Cost of moving `size` bytes across `hops` network hops (0 hops =
    /// local, no cost).
    pub fn network(&self, hops: u32, size: ByteSize) -> SimDuration {
        if hops == 0 {
            return SimDuration::ZERO;
        }
        self.net_hop_latency * hops as u64
            + SimDuration::nanos((size.as_u64() as f64 * self.net_ns_per_byte) as u64)
    }

    /// CPU cost of evaluating one predicate over `rows` values.
    pub fn predicate_eval(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_predicate_row) as u64)
    }

    /// CPU cost of decompressing `size` bytes.
    pub fn decompress(&self, size: ByteSize) -> SimDuration {
        SimDuration::nanos((size.as_u64() as f64 * self.cpu_ns_per_decompress_byte) as u64)
    }

    /// CPU cost of building a hash-join table over `rows` rows.
    pub fn join_build(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_join_build_row) as u64)
    }

    /// CPU cost of probing a hash-join table with `rows` rows.
    pub fn join_probe(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_join_probe_row) as u64)
    }

    /// CPU cost of `cmps` sort comparisons.
    pub fn sort_cmp(&self, cmps: usize) -> SimDuration {
        SimDuration::nanos((cmps as f64 * self.cpu_ns_per_sort_cmp) as u64)
    }

    /// CPU cost of sorting `rows` rows: n·⌈log₂ n⌉ comparisons, floored
    /// at two rows.
    pub fn sort(&self, rows: usize) -> SimDuration {
        let n = rows.max(2);
        self.sort_cmp(n * (usize::BITS - n.leading_zeros()) as usize)
    }

    /// CPU cost of projecting `rows` output rows.
    pub fn project(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_project_row) as u64)
    }

    /// CPU cost of folding `rows` rows into an aggregation table.
    pub fn agg_update(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_agg_update_row) as u64)
    }

    /// CPU cost of merging `rows` partial-aggregate transport rows.
    pub fn agg_merge(&self, rows: usize) -> SimDuration {
        SimDuration::nanos((rows as f64 * self.cpu_ns_per_agg_merge_row) as u64)
    }

    /// Elapsed CPU time of a hash-partitioned parallel merge on one stem
    /// server: `part_rows[p]` transport rows are folded by partition
    /// merger `p`, all mergers running concurrently on a `cores`-core
    /// node. Elapsed time is bounded below by the largest single
    /// partition (one merger is one thread) and by total work divided by
    /// the core count (the node cannot run more mergers than cores at
    /// once). With one partition this degenerates to `agg_merge`.
    pub fn parallel_agg_merge(&self, part_rows: &[usize], cores: u32) -> SimDuration {
        let largest = part_rows.iter().copied().max().unwrap_or(0);
        let total: usize = part_rows.iter().sum();
        let cores = cores.max(1) as u64;
        let by_cores = SimDuration::nanos(self.agg_merge(total).as_nanos().div_ceil(cores));
        self.agg_merge(largest).max(by_cores)
    }

    /// One exchange level's own terms at one merger, as billed and as
    /// priced. Children send in parallel, but their `wire` bytes converge
    /// on the merger's ingress link — why flat fan-in can lose to a tree.
    /// Each of the `rows.len()` partition mergers pulls an equal slice
    /// across `hops` and folds its `rows[p]` transport rows in parallel;
    /// a merge that folds nothing is billed a 1-row floor.
    pub fn exchange_level(&self, hops: u32, wire: u64, rows: &[usize], cores: u32) -> TimeTally {
        let mut tally = TimeTally::new();
        let slice = wire.div_ceil(rows.len().max(1) as u64);
        tally.add_network(self.network(hops, ByteSize(slice)));
        tally.add_cpu(match rows.iter().sum::<usize>() {
            0 => self.agg_merge(1),
            _ => self.parallel_agg_merge(rows, cores),
        });
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_read_dominated_by_seek_for_small_io() {
        let m = CostModel::default();
        let small = m.read(StorageMedium::Hdd, ByteSize::bytes(100));
        assert!(small >= SimDuration::millis(5));
        assert!(small < SimDuration::millis(6));
    }

    #[test]
    fn media_ordering_memory_fastest() {
        let m = CostModel::default();
        let size = ByteSize::mib(4);
        let hdd = m.read(StorageMedium::Hdd, size);
        let ssd = m.read(StorageMedium::Ssd, size);
        let mem = m.read(StorageMedium::Memory, size);
        assert!(mem < ssd && ssd < hdd);
    }

    #[test]
    fn hdd_throughput_calibration() {
        // 100 MB at 100 MB/s ≈ 1 s (+5 ms seek).
        let m = CostModel::default();
        let t = m.read(StorageMedium::Hdd, ByteSize::mib(100));
        let secs = t.as_secs_f64();
        assert!((1.0..1.1).contains(&secs), "got {secs}");
    }

    #[test]
    fn mem_cache_tier_sits_between_memory_and_ssd() {
        let m = CostModel::default();
        let size = ByteSize::mib(4);
        let mem = m.read(StorageMedium::Memory, size);
        let tier = m.mem_cache_read(size);
        let ssd = m.read(StorageMedium::Ssd, size);
        assert!(mem < tier && tier < ssd);
        // The floor applies even to tiny objects.
        assert!(m.mem_cache_read(ByteSize::bytes(1)) >= m.mem_cache_seek);
    }

    #[test]
    fn network_zero_hops_free() {
        let m = CostModel::default();
        assert_eq!(m.network(0, ByteSize::gib(1)), SimDuration::ZERO);
        let one_hop = m.network(1, ByteSize::mib(1));
        let three_hops = m.network(3, ByteSize::mib(1));
        assert!(three_hops > one_hop);
    }

    #[test]
    fn network_gbps_calibration() {
        // 125 MB over 1 Gbps ≈ 1 s.
        let m = CostModel::default();
        let t = m.network(1, ByteSize::mib(125));
        let secs = t.as_secs_f64();
        assert!((1.0..1.1).contains(&secs), "got {secs}");
    }

    #[test]
    fn per_operator_rates_default_to_the_legacy_predicate_rate() {
        // The engine historically billed every operator through
        // `predicate_eval`; the dedicated entries must default to the same
        // rate so simulated times are bit-identical out of the box.
        let m = CostModel::default();
        for rows in [0usize, 1, 7, 4096] {
            let legacy = m.predicate_eval(rows);
            assert_eq!(m.join_build(rows), legacy);
            assert_eq!(m.join_probe(rows), legacy);
            assert_eq!(m.sort_cmp(rows), legacy);
            assert_eq!(m.project(rows), legacy);
            assert_eq!(m.agg_update(rows), legacy);
            assert_eq!(m.agg_merge(rows), legacy);
        }
    }

    #[test]
    fn per_operator_rates_are_independently_tunable() {
        let m = CostModel {
            cpu_ns_per_sort_cmp: 4.0,
            ..CostModel::default()
        };
        assert_eq!(m.sort_cmp(100), SimDuration::nanos(400));
        // Other operators keep their own rates.
        assert_eq!(m.project(100), SimDuration::nanos(200));
    }

    #[test]
    fn parallel_agg_merge_bounded_by_largest_partition_and_cores() {
        let m = CostModel::default();
        // One partition == the serial merge.
        assert_eq!(m.parallel_agg_merge(&[1000], 4), m.agg_merge(1000));
        // Balanced partitions on enough cores: elapsed = one share.
        assert_eq!(
            m.parallel_agg_merge(&[250, 250, 250, 250], 4),
            m.agg_merge(250)
        );
        // Skewed partitions: the heavy one dominates.
        assert_eq!(
            m.parallel_agg_merge(&[700, 100, 100, 100], 4),
            m.agg_merge(700)
        );
        // More partitions than cores: total/cores is the floor.
        let eight_way = m.parallel_agg_merge(&[125; 8], 4);
        assert_eq!(
            eight_way,
            SimDuration::nanos(m.agg_merge(1000).as_nanos().div_ceil(4))
        );
        // Empty = free; zero cores clamps to one.
        assert_eq!(m.parallel_agg_merge(&[], 4), SimDuration::ZERO);
        assert_eq!(m.parallel_agg_merge(&[10], 0), m.agg_merge(10));
    }

    #[test]
    fn exchange_level_splits_the_ingress_and_floors_an_empty_merge() {
        let m = CostModel::default();
        let level = m.exchange_level(2, 1001, &[10, 30, 20, 0], 4);
        assert_eq!(level.network, m.network(2, ByteSize(251)));
        assert_eq!(level.cpu, m.parallel_agg_merge(&[10, 30, 20, 0], 4));
        assert_eq!(level.io, SimDuration::ZERO);
        // Nothing folded: the 1-row floor; a local merge ships for free.
        let empty = m.exchange_level(0, 0, &[0, 0], 4);
        assert_eq!(
            (empty.network, empty.cpu),
            (SimDuration::ZERO, m.agg_merge(1))
        );
    }

    #[test]
    fn cpu_costs_scale_linearly() {
        let m = CostModel::default();
        let a = m.predicate_eval(1000);
        let b = m.predicate_eval(2000);
        assert_eq!(b.as_nanos(), a.as_nanos() * 2);
        assert!(m.decompress(ByteSize::kib(1)) > SimDuration::ZERO);
    }
}
