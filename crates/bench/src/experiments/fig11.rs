//! Figure 11 — SmartIndex memory-size sweep: (a) index-cache miss ratio
//! and (b) throughput as the per-leaf index memory grows.
//!
//! Paper shape: misses fall and throughput rises with memory, but with
//! strongly diminishing returns — 512 MB performs comparably to 2 GB
//! ("Feisu doesn't consume too much memory on each server"). Budgets are
//! scaled with the data (our blocks are KB-scale, not GB-scale); the
//! ratio ladder matches the paper's 128 MB → 2 GB sweep.

use super::shape;
use crate::report::Table;
use crate::{build_cluster, load_dataset, relogin, throughput_rows_per_sec, ScanWorkload};
use feisu_common::{ByteSize, Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let queries = 1500usize;
    // Scaled ladder mirroring 128 MB, 256 MB, 512 MB, 1 GB, 2 GB.
    let budgets = [
        ("128MB~", ByteSize::kib(24)),
        ("256MB~", ByteSize::kib(48)),
        ("512MB~", ByteSize::kib(96)),
        ("1GB~", ByteSize::kib(192)),
        ("2GB~", ByteSize::kib(384)),
    ];
    let mut rows = Vec::new();
    let mut measured: Vec<(f64, f64)> = Vec::new();
    for (label, budget) in budgets {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 1024;
        spec.task_reuse = false;
        spec.config.index_memory_per_leaf = budget;
        let mut bench = build_cluster(spec)?;
        let mut t1 = DatasetSpec::t1(8192);
        t1.fields = 60;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        let mut wl = ScanWorkload::new("t1", 24, 1.0, 0xF11).with_population(150);
        let mut elapsed = SimDuration::ZERO;
        let mut scanned = 0usize;
        for q in 0..queries {
            bench.cluster.advance_time(SimDuration::secs(1));
            if q % 2000 == 0 {
                relogin(&mut bench)?;
            }
            let r = bench.cluster.query(&wl.next_query(), &bench.cred)?;
            elapsed += r.response_time;
            scanned += 8192;
        }
        let stats = bench.cluster.index_stats();
        let tput = throughput_rows_per_sec(scanned, elapsed) / bench.cluster.node_count() as f64;
        measured.push((stats.miss_ratio(), tput));
        rows.push(vec![
            label.to_string(),
            budget.to_string(),
            format!("{:.1}%", stats.miss_ratio() * 100.0),
            format!("{tput:.0}"),
            format!("{}", stats.lru_evictions),
        ]);
    }
    let never_worse = measured
        .windows(2)
        .all(|w| w[1].0 <= w[0].0 && w[1].1 >= w[0].1);
    shape(
        never_worse,
        "Fig. 11: more memory never misses more or scans slower",
    )?;
    // The knee: the "512 MB" point against the "2 GB" point.
    let knee = measured[2].1 / measured[4].1.max(1e-12);
    shape(knee >= 0.95, "Fig. 11: knee at or before 512MB~")?;
    Ok(Table::new(
        "Fig. 11: index memory sweep — miss ratio (a) and throughput (b)",
        &[
            "paper label",
            "scaled budget",
            "miss ratio",
            "rows/s/server",
            "lru evictions",
        ],
        rows,
        format!(
            "512MB~ throughput is {:.0}% of 2GB~, asserted at least 95% — paper: \"comparable\" \
             (Fig. 11b).",
            knee * 100.0
        ),
    ))
}
