//! §VII production statistics — a mixed trace through a live cluster.
//!
//! Paper claims: ~6000 queries/day across >100 products; "more than 93%
//! \[of\] queries focus on those data sets \[that\] are less than 200 TB.
//! And, their response times are always below 20 seconds." This binary
//! replays a trace with the Fig. 8 statement mix and reports the
//! response-time distribution plus job-manager/SmartIndex effectiveness.

use feisu_bench::{build_cluster, load_dataset};
use feisu_common::SimDuration;
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;
use feisu_workload::trace::{generate_trace, TraceSpec};

fn main() -> feisu_common::Result<()> {
    let mut spec = ClusterSpec::small();
    spec.rows_per_block = 1024;
    let mut bench = build_cluster(spec)?;
    let mut t1 = DatasetSpec::t1(8192);
    t1.fields = 128; // trace predicates target c0..c39
    load_dataset(&bench, &t1, "/hdfs/prod/t1")?;

    let trace = generate_trace(&TraceSpec {
        queries: 1500,
        span: SimDuration::hours(6),
        similarity: 0.65,
        locality_theta: 0.9,
        column_pool: 40,
        tables: vec!["t1".into()],
        ..TraceSpec::default()
    });

    let mut times: Vec<f64> = Vec::new();
    let mut failures = 0usize;
    let wall_start = std::time::Instant::now();
    for (i, q) in trace.iter().enumerate() {
        if i % 500 == 0 {
            feisu_bench::relogin(&mut bench)?;
        }
        bench.cluster.advance_time(SimDuration::secs(2));
        match bench.cluster.query(&q.sql, &bench.cred) {
            Ok(r) => times.push(r.response_time.as_millis_f64()),
            Err(_) => failures += 1,
        }
    }
    let wall = wall_start.elapsed().as_secs_f64();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| times[((times.len() - 1) as f64 * p) as usize];
    let rows = vec![
        vec!["queries".into(), times.len().to_string()],
        vec!["failures".into(), failures.to_string()],
        vec!["p50 (ms)".into(), format!("{:.3}", pct(0.50))],
        vec!["p90 (ms)".into(), format!("{:.3}", pct(0.90))],
        vec!["p93 (ms)".into(), format!("{:.3}", pct(0.93))],
        vec!["p99 (ms)".into(), format!("{:.3}", pct(0.99))],
        vec!["max (ms)".into(), format!("{:.3}", pct(1.0))],
        vec!["wall clock (s)".into(), format!("{wall:.3}")],
    ];
    feisu_bench::print_series(
        "§VII: production-mix response distribution",
        &["metric", "value"],
        &rows,
    );

    let idx = bench.cluster.index_stats();
    let (reuse_hits, reuse_misses) = bench.cluster.jobs().reuse_stats();
    println!(
        "\nSmartIndex: {} hits / {} misses ({:.0}% hit) | task reuse: {} hits / {} misses",
        idx.hits,
        idx.misses,
        (1.0 - idx.miss_ratio()) * 100.0,
        reuse_hits,
        reuse_misses
    );
    println!(
        "query log holds {} statements for personalization",
        bench.cluster.query_log().len()
    );
    feisu_bench::dump_metrics(&bench, "production_mix")?;
    println!(
        "\npaper: 93% of (sub-200TB) queries answer below 20 s on 4000 nodes; \
         the scaled p93 above plays that role here"
    );
    Ok(())
}
