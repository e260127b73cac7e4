//! Ablation — speculative backup tasks under stragglers
//! (DESIGN.md §6.4).
//!
//! §V-B: consolidated servers fluctuate — low-priority containers yield
//! resources to business-critical services, so some leaves intermittently
//! run far slower. Backup tasks bound the tail. This ablation injects a
//! straggler set and compares tail response with the backup mechanism
//! enabled (small detection delay) vs effectively disabled (huge delay).

use super::{percentile, shape};
use crate::report::Table;
use crate::{build_cluster, load_dataset, ScanWorkload};
use feisu_common::{NodeId, Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let queries = 200usize;
    let mut rows = Vec::new();
    let mut tails = Vec::new();
    for (label, delay) in [
        ("backups on (5 ms detect)", SimDuration::millis(5)),
        ("backups off", SimDuration::hours(1)),
    ] {
        let mut spec = ClusterSpec::with_nodes(8);
        spec.rows_per_block = 512;
        spec.task_reuse = false;
        spec.use_smartindex = false;
        spec.config.backup_task_delay = delay;
        let bench = build_cluster(spec)?;
        let mut t1 = DatasetSpec::t1(8192);
        t1.fields = 40;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        // A quarter of the fleet is preempted by business load: 20x slow.
        for n in 0..2 {
            bench.cluster.slow_node(NodeId(n), 20.0);
        }
        let mut wl = ScanWorkload::new("t1", 12, 0.0, 0xAB4).with_count_ratio(0.0);
        let mut times: Vec<f64> = Vec::new();
        let mut backups = 0usize;
        for _ in 0..queries {
            let r = bench.cluster.query(&wl.next_query(), &bench.cred)?;
            times.push(r.response_time.as_millis_f64());
            backups += r.stats.backup_tasks;
        }
        times.sort_by(f64::total_cmp);
        tails.push(percentile(&times, 0.99));
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", percentile(&times, 0.50)),
            format!("{:.3}", percentile(&times, 0.99)),
            backups.to_string(),
        ]);
    }
    shape(tails[0] < tails[1], "backup tasks cut the straggler p99")?;
    Ok(Table::new(
        "Ablation: backup (speculative) tasks with 25% stragglers (20x slow)",
        &["configuration", "p50 (ms)", "p99 (ms)", "backup tasks"],
        rows,
        format!(
            "Asserted: backups collapse the p99 tail that stragglers create ({:.1}x here).",
            tails[1] / tails[0]
        ),
    ))
}
