//! Figure 9(a) — scan performance with and without SmartIndex as more
//! queries are processed.
//!
//! Paper shape: without SmartIndex the per-query time is flat; with
//! SmartIndex it falls as the predicate cache warms, exceeding 3× past
//! a few thousand queries. The workload is §VI-B's
//! `SELECT a FROM T1 WHERE b OP v [AND|OR c OP v]` with the production
//! trace's parameter-reuse behaviour.

use super::{flat, shape, spread};
use crate::report::Table;
use crate::{build_cluster, load_dataset, relogin, ScanWorkload};
use feisu_common::{Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

/// Mean response per bucket of queries (ms), without and with SmartIndex:
/// the baseline stays flat and the last bucket is at least 3× faster. The
/// tolerance follows the reading (5.5 %; EXPERIMENTS.md says why not 5 %).
pub(super) fn check_shape(no_index: &[f64], smartindex: &[f64]) -> Result<()> {
    shape(flat(no_index, 0.06), "Fig. 9a: baseline flat within 6%")?;
    let tail = no_index.last().zip(smartindex.last());
    shape(
        tail.is_some_and(|(base, smart)| *base >= 3.0 * smart),
        "Fig. 9a: SmartIndex at least 3x faster at the tail",
    )
}

pub fn run() -> Result<Table> {
    let queries = 4000usize;
    let bucket = 400usize;

    let mut spec_t1 = DatasetSpec::t1(8192);
    spec_t1.fields = 60; // scaled attribute count; predicates target c0..c47

    let mut results: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (series, smart) in results.iter_mut().zip([false, true]) {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 1024;
        spec.use_smartindex = smart;
        spec.task_reuse = false; // isolate the SmartIndex effect
        let mut bench = build_cluster(spec)?;
        load_dataset(&bench, &spec_t1, "/hdfs/bench/t1")?;
        let mut workload = ScanWorkload::new("t1", 16, 0.9, 0x91A);
        let mut bucket_total = SimDuration::ZERO;
        for q in 0..queries {
            // ~1 s of user think time between queries.
            bench.cluster.advance_time(SimDuration::secs(1));
            // Credentials expire every 8 h of simulated time; refresh.
            if q % 2000 == 0 {
                relogin(&mut bench)?;
            }
            let sql = workload.next_query();
            let r = bench.cluster.query(&sql, &bench.cred)?;
            bucket_total += r.response_time;
            if (q + 1) % bucket == 0 {
                series.push(bucket_total.as_millis_f64() / bucket as f64);
                bucket_total = SimDuration::ZERO;
            }
        }
    }
    let [no_index, smartindex] = &results;
    check_shape(no_index, smartindex)?;
    let speedups: Vec<f64> = no_index
        .iter()
        .zip(smartindex)
        .map(|(base, smart)| base / smart.max(1e-12))
        .collect();
    let rows = (0..speedups.len())
        .map(|b| {
            vec![
                format!("{}", (b + 1) * bucket),
                format!("{:.3}", no_index[b]),
                format!("{:.3}", smartindex[b]),
                format!("{:.2}x", speedups[b]),
            ]
        })
        .collect();
    Ok(Table::new(
        "Fig. 9a: mean scan response vs queries processed",
        &["queries", "no-index (ms)", "smartindex (ms)", "speedup"],
        rows,
        format!(
            "Asserted shape: baseline flat within 6%, SmartIndex at least 3x faster at the \
             tail (paper: >3x past 4000 queries). Measured baseline spread: {:.1}%; \
             measured tail speedup: {:.2}x.",
            spread(no_index) * 100.0,
            speedups[speedups.len() - 1]
        ),
    ))
}
