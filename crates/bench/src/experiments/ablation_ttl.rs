//! Ablation — index retirement policy: 72 h TTL + LRU (paper) vs pure
//! LRU vs aggressive short TTL (DESIGN.md §6.2).
//!
//! The workload drifts: the hot predicate set rotates every simulated
//! "day", so entries built yesterday mostly stop earning their memory.
//! TTL reclaims them wholesale; pure LRU keeps paying eviction churn.

use super::shape;
use crate::report::Table;
use crate::{build_cluster, load_dataset, relogin, ScanWorkload};
use feisu_common::{ByteSize, Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;

pub fn run() -> Result<Table> {
    let days = 5usize;
    let queries_per_day = 400usize;
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (label, ttl) in [
        ("TTL 72h + LRU (paper)", SimDuration::hours(72)),
        ("TTL 6h + LRU", SimDuration::hours(6)),
        ("pure LRU (TTL=inf)", SimDuration::hours(24 * 3650)),
    ] {
        let mut spec = ClusterSpec::small();
        spec.rows_per_block = 1024;
        spec.task_reuse = false;
        spec.config.index_ttl = ttl;
        // Roomy budget: retirement policy, not LRU churn, decides.
        spec.config.index_memory_per_leaf = ByteSize::mib(4);
        let mut bench = build_cluster(spec)?;
        let mut t1 = DatasetSpec::t1(8192);
        t1.fields = 60;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        let mut total = SimDuration::ZERO;
        for day in 0..days {
            // A fresh workload generator per day = drifted hot set.
            let mut wl = ScanWorkload::new("t1", 16, 0.9, 0xAB3 + day as u64);
            for q in 0..queries_per_day {
                bench.cluster.advance_time(SimDuration::secs(60));
                if q % 240 == 0 {
                    relogin(&mut bench)?;
                }
                let r = bench.cluster.query(&wl.next_query(), &bench.cred)?;
                total += r.response_time;
            }
            // Overnight gap: by day 4, day-1 entries are >72 h old.
            bench.cluster.advance_time(SimDuration::hours(22));
            relogin(&mut bench)?;
        }
        let stats = bench.cluster.index_stats();
        let mean_ms = total.as_millis_f64() / (days * queries_per_day) as f64;
        measured.push((mean_ms, 1.0 - stats.miss_ratio(), stats.ttl_evictions));
        rows.push(vec![
            label.to_string(),
            format!("{mean_ms:.3}"),
            format!("{:.1}%", (1.0 - stats.miss_ratio()) * 100.0),
            stats.ttl_evictions.to_string(),
            stats.lru_evictions.to_string(),
        ]);
    }
    let (paper, short, lru) = (measured[0], measured[1], measured[2]);
    shape(paper.2 > 0, "the 72h TTL reclaims stale entries")?;
    shape(
        paper.0 <= lru.0 * 1.10,
        "the 72h TTL responds within 10% of pure LRU",
    )?;
    shape(short.1 < paper.1, "a 6h TTL costs hit rate")?;
    Ok(Table::new(
        "Ablation: index retirement policy under daily workload drift",
        &[
            "policy",
            "mean response (ms)",
            "hit rate",
            "ttl evictions",
            "lru evictions",
        ],
        rows,
        "Asserted: the paper's 72h TTL stays within 10% of pure LRU on response while \
         reclaiming stale entries; an over-aggressive 6h TTL costs hit rate."
            .into(),
    ))
}
