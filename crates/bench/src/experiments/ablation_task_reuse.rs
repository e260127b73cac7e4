//! Ablation — identical-task result reuse in the job manager
//! (DESIGN.md §6.5).
//!
//! "Job manager tries to reuse other running job's task result if tasks
//! are identical" (§III-C). This ablation replays a bursty dashboard-like
//! workload (many near-identical statements close together) with the
//! reuse cache on and off.

use super::shape;
use crate::report::Table;
use crate::{build_cluster, load_dataset, ScanWorkload};
use feisu_common::{Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let queries = 600usize;
    let mut rows = Vec::new();
    let mut means = Vec::new();
    for (label, reuse) in [("reuse on (paper)", true), ("reuse off", false)] {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 1024;
        spec.task_reuse = reuse;
        spec.use_smartindex = false; // isolate the job-manager effect
        let bench = build_cluster(spec)?;
        let mut t1 = DatasetSpec::t1(8192);
        t1.fields = 60;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        // Dashboards re-fire a small fixed set of statements.
        let mut wl = ScanWorkload::new("t1", 8, 1.1, 0xAB2);
        let statements: Vec<String> = (0..10).map(|_| wl.next_query()).collect();
        let mut total = SimDuration::ZERO;
        let mut reused = 0usize;
        for q in 0..queries {
            // Sub-TTL spacing: results stay fresh enough to reuse.
            bench.cluster.advance_time(SimDuration::secs(5));
            let sql = &statements[q % statements.len()];
            let r = bench.cluster.query(sql, &bench.cred)?;
            total += r.response_time;
            reused += r.stats.reused_tasks;
        }
        let mean_ms = total.as_millis_f64() / queries as f64;
        means.push(mean_ms);
        rows.push(vec![
            label.to_string(),
            format!("{mean_ms:.3}"),
            reused.to_string(),
        ]);
    }
    shape(
        means[0] < means[1],
        "task reuse answers repeated statements faster",
    )?;
    Ok(Table::new(
        "Ablation: job-manager identical-task result reuse",
        &["configuration", "mean response (ms)", "tasks reused"],
        rows,
        format!(
            "Asserted: reuse answers the repeated statements faster ({:.1}x here).",
            means[1] / means[0]
        ),
    ))
}
