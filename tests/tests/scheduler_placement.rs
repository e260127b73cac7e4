//! Task placement end to end: a statement's tasks do not stack on one
//! node while a rack-mate of their replica holder idles (paper §III-B/C:
//! "an available server that has a low network transfer overhead").
//!
//! Fatman (`/ffs/...`) charges a 200 ms wake-up per read, and a node runs
//! its tasks one after another, so two tasks stacked on one node put two
//! wake-ups on the statement's critical path.

use feisu_common::SimDuration;
use feisu_core::engine::{ClusterSpec, QueryResult};
use feisu_format::Value;
use feisu_obs::SpanNode;

const SQL: &str = "SELECT COUNT(*) FROM clicks WHERE clicks > 25";

/// The `node` of every `leaf_task` span in tree order.
fn leaf_nodes(r: &QueryResult) -> Vec<String> {
    fn walk(node: &SpanNode, out: &mut Vec<String>) {
        if node.name == "leaf_task" {
            out.push(node.attr("node").map(ToString::to_string).unwrap());
        }
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut nodes = Vec::new();
    for root in &r.profile.tree.roots {
        walk(root, &mut nodes);
    }
    nodes
}

/// Runs the statement over a two-block Fatman table whose single replicas
/// both sit on node 0, at `threads` pool workers. Returns the response
/// time, the leaf-task nodes, the answer and the rack-local task count.
fn run(threads: usize) -> (SimDuration, Vec<String>, String, u64) {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.config.replication_factor = 1;
    spec.config.execution_threads = threads;
    spec.seed = 4;
    let mut fx = feisu_tests::fixture_with(128, spec, "/ffs/archive/clicks");
    let r = fx.cluster.query(SQL, &fx.cred).expect("query");
    let metric = fx
        .cluster
        .query(
            "SELECT count FROM system.metrics WHERE name = 'feisu.sched.rack_local_tasks'",
            &fx.cred,
        )
        .expect("system.metrics");
    // No row reads as zero: a registry without the counter.
    let rack_local = match metric.batch.rows() {
        0 => 0,
        _ => match metric.batch.row(0)[0] {
            Value::Int64(n) => n as u64,
            ref other => panic!("count is {other:?}"),
        },
    };
    feisu_tests::check_against_oracle(&mut fx, SQL);
    (
        r.response_time,
        leaf_nodes(&r),
        r.batch.row(0)[0].to_string(),
        rack_local,
    )
}

#[test]
fn tasks_sharing_a_holder_spread_to_its_idle_rack_mate() {
    let (response, nodes, answer, rack_local) = run(1);
    let wake = SimDuration::millis(200);
    assert!(
        response > wake && response < wake + wake,
        "one wake-up on the critical path, got {response}"
    );
    assert_eq!(nodes.len(), 2);
    assert_ne!(nodes[0], nodes[1], "tasks stacked on one node: {nodes:?}");
    assert_eq!(answer, "86");
    assert_eq!(rack_local, 1, "one task moved off node 0");
    assert_eq!(run(8), (response, nodes, answer, rack_local));
}
