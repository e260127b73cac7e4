//! Node state, pinned. A small cluster with task reuse off runs a fixed
//! script of queries interleaved with `fail_node`, `slow_node`,
//! `set_business_load`, `recover_node` and an idle gap past the heartbeat
//! miss window. After every step the response time, the backup-task count
//! and the `node` of every `leaf_task` span of its query, and the full
//! `system.nodes` rows, must be the ones recorded here. A change to failure
//! detection, straggler or slot-agreement handling, backup placement or
//! what `system.nodes` reports fails this test.

use feisu_common::{NodeId, SimDuration};
use feisu_core::engine::{ClusterSpec, QueryResult};
use feisu_obs::SpanNode;
use feisu_tests::Fixture;

const COUNT: &str = "SELECT COUNT(*) FROM clicks WHERE clicks > 25";
const ROWS: &str = "SELECT url, day FROM clicks WHERE day > 20160103";

/// The query's response time in ns, its backup tasks and the node of
/// every `leaf_task` span in tree order.
fn query_line(r: &QueryResult) -> String {
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
    format!(
        "{}ns backup {} [{}]",
        r.response_time.as_nanos(),
        r.stats.backup_tasks,
        nodes.join(" ")
    )
}

/// One line per `system.nodes` row, every column.
fn node_rows(fx: &Fixture) -> Vec<String> {
    let r = fx
        .cluster
        .query("SELECT * FROM system.nodes", &fx.cred)
        .expect("system.nodes");
    (0..r.batch.rows())
        .map(|i| {
            r.batch
                .row(i)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// Runs `sql` and snapshots its query line, then the node rows.
fn step(fx: &Fixture, sql: &str) -> Vec<String> {
    let r = fx.cluster.query(sql, &fx.cred).expect("query");
    let mut out = vec![query_line(&r)];
    out.extend(node_rows(fx));
    out
}

fn check(name: &str, got: Vec<String>, want: &[&str]) {
    assert!(
        got == want,
        "{name}: node state moved; now:\n{}",
        got.iter()
            .map(|l| format!("            \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fail_slow_busy_and_recover_script_is_pinned() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    let fx = feisu_tests::fixture_with(400, spec, "/hdfs/warehouse/clicks");

    check(
        "healthy",
        step(&fx, COUNT),
        &[
            "10602953ns backup 0 [node-0 node-1 node-2 node-3 node-0 node-1 node-3]",
            "'node-0' true false 1 10602953 0 4",
            "'node-1' true false 1 10602953 0 4",
            "'node-2' true false 1 10602953 0 4",
            "'node-3' true false 1 10602953 0 4",
        ],
    );

    // Failed but not yet detected: tasks still land on node 1 and rerun
    // as backups after the detection delay, which outlasts the miss
    // window, so node 1 reads dead afterwards.
    fx.cluster.fail_node(NodeId(1));
    check(
        "node 1 failed",
        step(&fx, ROWS),
        &[
            "10025643298ns backup 2 [node-0 node-2 node-3 node-0 node-3 node-0 node-0]",
            "'node-0' true false 1 10036446267 0 4",
            "'node-1' false true 1 10602953 0 4",
            "'node-2' true false 1 10036446267 0 4",
            "'node-3' true false 1 10036446267 0 4",
        ],
    );

    // Recovered, node 1 beats again with the next statement.
    fx.cluster.recover_node(NodeId(1));
    check(
        "node 1 recovered",
        step(&fx, COUNT),
        &[
            "600920ns backup 0 [node-0 node-1 node-2 node-3 node-0 node-1 node-3]",
            "'node-0' true false 1 10037247203 0 4",
            "'node-1' true false 1 10037247203 0 4",
            "'node-2' true false 1 10037247203 0 4",
            "'node-3' true false 1 10037247203 0 4",
        ],
    );

    // Node 3 fails and stays alive until the miss window has passed;
    // once it reads dead it is no longer scheduled.
    fx.cluster.fail_node(NodeId(3));
    check(
        "node 3 failed",
        node_rows(&fx),
        &[
            "'node-0' true false 1 10037447219 0 4",
            "'node-1' true false 1 10037447219 0 4",
            "'node-2' true false 1 10037447219 0 4",
            "'node-3' true true 1 10037247203 0 4",
        ],
    );
    fx.cluster.advance_time(SimDuration::secs(10));
    check(
        "node 3 dead",
        node_rows(&fx),
        &[
            "'node-0' true false 1 20037647235 0 4",
            "'node-1' true false 1 20037647235 0 4",
            "'node-2' true false 1 20037647235 0 4",
            "'node-3' false true 1 10037247203 0 4",
        ],
    );
    check(
        "node 3 avoided",
        step(&fx, COUNT),
        &[
            "10602713ns backup 0 [node-0 node-1 node-2 node-0 node-2 node-1 node-0]",
            "'node-0' true false 1 20048449964 0 4",
            "'node-1' true false 1 20048449964 0 4",
            "'node-2' true false 1 20048449964 0 4",
            "'node-3' false true 1 10037247203 0 4",
        ],
    );

    // A straggler slow enough that backups beat it.
    fx.cluster.slow_node(NodeId(2), 5000.0);
    check(
        "node 2 slow",
        step(&fx, ROWS),
        &[
            "10020636204ns backup 2 [node-0 node-1 node-2 node-0 node-1 node-0 node-2]",
            "'node-0' true false 1 30069286184 0 4",
            "'node-1' true false 1 30069286184 0 4",
            "'node-2' true false 5000 30069286184 0 4",
            "'node-3' false true 1 10037247203 0 4",
        ],
    );

    // Business load takes all of node 0: its tasks are refused and rerun
    // elsewhere.
    assert_eq!(fx.cluster.set_business_load(NodeId(0), 1000), 0);
    assert_eq!(fx.cluster.feisu_slot_limit(NodeId(0)), 0);
    check(
        "node 0 busy",
        step(&fx, COUNT),
        &[
            "10010602527ns backup 3 [node-1 node-2 node-2 node-1 node-1 node-1 node-2]",
            "'node-0' true false 1 40080088727 0 0",
            "'node-1' true false 1 40080088727 0 4",
            "'node-2' true false 5000 40080088727 0 4",
            "'node-3' false true 1 10037247203 0 4",
        ],
    );

    // Failing and recovering the slow node keeps its slow factor; half
    // of node 0 back is a reduced slot limit, but no refusal.
    fx.cluster.fail_node(NodeId(2));
    fx.cluster.recover_node(NodeId(2));
    fx.cluster.recover_node(NodeId(3));
    assert_eq!(fx.cluster.set_business_load(NodeId(0), 6), 0);
    assert_eq!(fx.cluster.feisu_slot_limit(NodeId(0)), 2);
    check(
        "nodes 2 and 3 recovered",
        step(&fx, ROWS),
        &[
            "5010633002ns backup 1 [node-0 node-1 node-2 node-3 node-0 node-1 node-3]",
            "'node-0' true false 1 45090921745 0 2",
            "'node-1' true false 1 45090921745 0 4",
            "'node-2' true false 5000 45090921745 0 4",
            "'node-3' true false 1 45090921745 0 4",
        ],
    );

    assert_eq!(fx.cluster.set_business_load(NodeId(0), 0), 0);
    assert_eq!(fx.cluster.feisu_slot_limit(NodeId(0)), 4);
    check(
        "node 0 idle",
        step(&fx, COUNT),
        &[
            "620914ns backup 0 [node-0 node-1 node-2 node-3 node-0 node-1 node-3]",
            "'node-0' true false 1 45091742675 0 4",
            "'node-1' true false 1 45091742675 0 4",
            "'node-2' true false 5000 45091742675 0 4",
            "'node-3' true false 1 45091742675 0 4",
        ],
    );
}
