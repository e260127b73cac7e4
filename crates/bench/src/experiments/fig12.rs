//! Figure 12 — response time vs cluster size on a fixed workload.
//!
//! Paper shape: response time falls near-linearly as nodes are added
//! (the scale-out design splits the same blocks over more leaves). The
//! paper sweeps 1000–4000 production nodes; the simulation sweeps a
//! proportional 8–64.

use super::{rising, shape};
use crate::report::Table;
use crate::{build_cluster, load_dataset, ScanWorkload};
use feisu_common::{Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let node_counts = [8u32, 16, 32, 64];
    let queries = 200usize;
    // (nodes, mean response in ms) per cluster size.
    let mut points: Vec<(usize, f64)> = Vec::new();
    for nodes in node_counts {
        let mut spec = ClusterSpec::with_nodes(nodes);
        spec.rows_per_block = 512;
        spec.task_reuse = false;
        spec.use_smartindex = false; // isolate pure scale-out
        let bench = build_cluster(spec)?;
        let mut t1 = DatasetSpec::t1(32_768);
        t1.fields = 40;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        let mut wl = ScanWorkload::new("t1", 12, 0.0, 0xF12);
        let mut total = SimDuration::ZERO;
        for _ in 0..queries {
            let r = bench.cluster.query(&wl.next_query(), &bench.cred)?;
            total += r.response_time;
        }
        let mean_ms = total.as_millis_f64() / queries as f64;
        points.push((bench.cluster.node_count(), mean_ms));
    }
    let speedups: Vec<f64> = points.iter().map(|(_, ms)| points[0].1 / ms).collect();
    shape(
        rising(&speedups),
        "Fig. 12: response falls as nodes are added",
    )?;
    let rows = points
        .iter()
        .zip(&speedups)
        .map(|((nodes, ms), speedup)| {
            vec![
                nodes.to_string(),
                format!("{ms:.3}"),
                format!("{speedup:.2}x"),
            ]
        })
        .collect();
    Ok(Table::new(
        "Fig. 12: mean response time vs node count (fixed workload)",
        &["nodes", "mean response (ms)", "speedup vs smallest"],
        rows,
        "Asserted shape: response falls with every doubling of nodes (paper Fig. 12: \
         near-linear)."
            .into(),
    ))
}
