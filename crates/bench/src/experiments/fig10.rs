//! Figure 10 — averaged per-server scan throughput when queries span two
//! storage systems (T2 on storage B, T3 on storage A), with and without
//! SmartIndex.
//!
//! Paper shape: enabling SmartIndex lifts per-server throughput by up to
//! ~1.5×. Each logical query scans both tables (T3's attributes are a
//! subset of T2's), exactly as in §VI-B-2.

use super::shape;
use crate::report::Table;
use crate::{build_cluster, load_dataset, relogin, throughput_rows_per_sec, ScanWorkload};
use feisu_common::{Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let queries = 1200usize;
    let mut results = Vec::new();
    for smart in [false, true] {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 1024;
        spec.use_smartindex = smart;
        spec.task_reuse = false;
        let mut bench = build_cluster(spec)?;
        let mut t2 = DatasetSpec::t2(6144);
        t2.fields = 60;
        let mut t3 = DatasetSpec::t3(4096);
        t3.fields = 57;
        // "The cluster has two HDFS storage systems managed by Feisu"
        // (§VI-A): two independent HDFS roots, A and B.
        load_dataset(&bench, &t2, "/hdfs/b/t2")?;
        load_dataset(&bench, &t3, "/hdfs/a/t3")?;

        let mut wl2 = ScanWorkload::new("t2", 12, 0.6, 0xF10).with_count_ratio(0.05);
        let mut wl3 = ScanWorkload::new("t3", 12, 0.6, 0xF10).with_count_ratio(0.05);
        let mut rows_scanned = 0usize;
        let mut elapsed = SimDuration::ZERO;
        for q in 0..queries {
            bench.cluster.advance_time(SimDuration::secs(1));
            if q % 2000 == 0 {
                relogin(&mut bench)?;
            }
            // One logical query = the same predicate template over both
            // storage systems.
            let r2 = bench.cluster.query(&wl2.next_query(), &bench.cred)?;
            let r3 = bench.cluster.query(&wl3.next_query(), &bench.cred)?;
            rows_scanned += 6144 + 4096; // rows considered per logical query
            elapsed += r2.response_time + r3.response_time;
        }
        let per_server =
            throughput_rows_per_sec(rows_scanned, elapsed) / bench.cluster.node_count() as f64;
        results.push((smart, per_server));
    }
    let uplift = results[1].1 / results[0].1.max(1e-12);
    shape(
        uplift > 1.0,
        "Fig. 10: SmartIndex lifts per-server throughput",
    )?;
    let rows = results
        .iter()
        .map(|(smart, tput)| {
            vec![
                if *smart { "with SmartIndex" } else { "without" }.to_string(),
                format!("{tput:.0}"),
            ]
        })
        .collect();
    Ok(Table::new(
        "Fig. 10: per-server scan throughput across two storage systems",
        &["configuration", "rows/s/server"],
        rows,
        format!("Measured uplift: {uplift:.2}x, asserted above 1x — paper reports up to 1.5x."),
    ))
}
