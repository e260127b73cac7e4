//! Observability-plane smoke runner for CI.
//!
//! Builds a small cluster, runs a handful of real queries, then proves
//! the introspection surface end to end: `SELECT`s over
//! `system.queries` / `system.nodes` through the normal plan path, and
//! a Chrome-trace export of one query's span tree written to
//! `results/TRACE_smoke.json` (load it in `chrome://tracing` or
//! Perfetto).

use feisu_bench::{build_cluster, load_dataset, Bench};
use feisu_core::engine::ClusterSpec;
use feisu_format::json::{self, Json};
use feisu_workload::datasets::DatasetSpec;

fn main() -> feisu_common::Result<()> {
    let mut spec = ClusterSpec::small();
    spec.rows_per_block = 1024;
    let bench: Bench = build_cluster(spec)?;
    load_dataset(&bench, &DatasetSpec::t1(4096), "/hdfs/bench/t1")?;

    // A few real queries so the log and windows have content.
    let mut traced = None;
    for v in [10, 40, 70] {
        let r = bench.cluster.query(
            &format!("SELECT COUNT(*) FROM t1 WHERE c0 > {v}"),
            &bench.cred,
        )?;
        traced = Some(r);
    }

    let log = bench
        .cluster
        .query(
            "SELECT query_id, user, outcome, response_ns, wire_leaf_stem_bytes \
             FROM system.queries",
            &bench.cred,
        )?
        .batch;
    assert!(log.rows() >= 3, "query log rows: {}", log.rows());
    println!("system.queries -> {} rows", log.rows());

    let nodes = bench
        .cluster
        .query(
            "SELECT node, alive, failed, feisu_slots FROM system.nodes",
            &bench.cred,
        )?
        .batch;
    assert!(nodes.rows() > 0, "system.nodes must list the topology");
    println!("system.nodes   -> {} rows", nodes.rows());

    let trace = traced.expect("at least one traced query").chrome_trace();
    // The export must parse as a non-empty array of complete events,
    // one of them the master span.
    let Json::Array(events) = json::parse(&trace)? else {
        panic!("trace must be a JSON array");
    };
    assert!(!events.is_empty(), "trace must be non-empty");
    for e in &events {
        for k in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(e.get(k).is_some(), "trace event missing {k}: {e:?}");
        }
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name") == Some(&Json::String("master".into()))),
        "no master span in trace"
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/TRACE_smoke.json", &trace).expect("write trace json");
    println!(
        "trace          -> results/TRACE_smoke.json ({} events, {} bytes)",
        events.len(),
        trace.len()
    );
    Ok(())
}
