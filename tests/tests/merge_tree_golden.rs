//! The merge tree, pinned. A 16-node, two-data-center grid with two
//! leaves per stem and 16-row blocks, so a row scan needs several stems
//! and the rack groups of an aggregate split at the fan-in cap. For a row
//! scan, a global aggregate, a GROUP BY at one and at four exchange
//! partitions, a time-limited partial row scan with one slow node, and an
//! `ORDER BY … LIMIT 3` row scan, the response time, the three wire legs
//! and every `stem` span must be the ones recorded here; so must a row
//! scan and a global aggregate at the default fan-in, which place no stem.
//! At the default fan-in a GROUP BY runs the levels priced cheapest: four
//! probes pin one of each shape (no level, rack, DC, rack then DC).
//! A change to stem placement, grouping, hop or merge billing, wire
//! accounting, the depth choice or span bookkeeping fails this test.

use feisu_common::config::FeisuConfig;
use feisu_common::{NodeId, SimDuration};
use feisu_core::engine::{ClusterSpec, QueryOptions, QueryResult};
use feisu_obs::{AttrValue, SpanNode};

const ROWS: usize = 400;

/// One query's pinned numbers: response time in ns, the leaf→stem,
/// rack→DC and stem→master wire bytes, then one line per `stem` span in
/// tree order: depth, level, tasks, node, start..end ns, wire bytes.
fn snapshot(r: &QueryResult) -> Vec<String> {
    fn num(node: &SpanNode, key: &str) -> u64 {
        match node.attr(key) {
            Some(AttrValue::U64(v)) => *v,
            Some(AttrValue::Size(b)) => b.0,
            other => panic!("stem attr {key}: {other:?}"),
        }
    }
    fn walk(node: &SpanNode, depth: usize, out: &mut Vec<String>) {
        if node.name == "stem" {
            let host = node
                .attr("node")
                .map(ToString::to_string)
                .unwrap_or_default();
            out.push(format!(
                "d{depth} L{} t{} {host} {}..{} w{}",
                num(node, "level"),
                num(node, "tasks"),
                node.start.as_nanos(),
                node.end.as_nanos(),
                num(node, "wire_bytes"),
            ));
        }
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let s = &r.stats;
    let mut out = vec![format!(
        "{}ns wire {} {} {}",
        r.response_time.as_nanos(),
        s.wire_leaf_stem.0,
        s.wire_rack_dc.0,
        s.wire_stem_master.0
    )];
    for root in &r.profile.tree.roots {
        walk(root, 0, &mut out);
    }
    out
}

fn spec(parts: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::with_nodes(16);
    spec.rows_per_block = 16;
    spec.config.leaves_per_stem = 2;
    spec.config.merge_tree.exchange_partitions = parts;
    spec
}

fn run(parts: usize, sql: &str) -> QueryResult {
    let fx = feisu_tests::fixture_with(ROWS, spec(parts), "/hdfs/warehouse/clicks");
    fx.cluster.query(sql, &fx.cred).expect("query")
}

fn check(name: &str, got: &QueryResult, want: &[&str]) {
    let got = snapshot(got);
    assert!(
        got == want,
        "{name}: merge tree moved; now:\n{}",
        got.iter()
            .map(|l| format!("            \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn row_scan_is_pinned() {
    let r = run(4, "SELECT url, clicks FROM clicks WHERE clicks > 40");
    check(
        "row scan",
        &r,
        &[
            "21419149ns wire 12496 0 12304",
            "d3 L1 t2 node-4 200000..10406830 w984",
            "d3 L1 t2 node-3 200000..10806853 w1040",
            "d3 L1 t2 node-0 200000..10606828 w928",
            "d3 L1 t2 node-1 200000..10806851 w984",
            "d3 L1 t2 node-2 200000..10806853 w1040",
            "d3 L1 t2 node-7 200000..10806832 w1040",
            "d3 L1 t2 node-12 200000..10406861 w984",
            "d3 L1 t2 node-8 200000..20409914 w984",
            "d3 L1 t1 node-10 200000..10202643 w520",
            "d3 L1 t2 node-4 10202625..20409476 w984",
            "d3 L1 t2 node-0 10202636..20409037 w928",
            "d3 L1 t2 node-5 10202636..20809489 w1040",
            "d3 L1 t2 node-1 10202636..20809916 w1040",
        ],
    );
}

#[test]
fn global_aggregate_is_pinned() {
    let r = run(4, "SELECT COUNT(*), SUM(clicks), MIN(score) FROM clicks");
    check(
        "global aggregate",
        &r,
        &[
            "21407814ns wire 1425 798 399",
            "d4 L2 t2 node-4 200000..10603166 w114",
            "d5 L1 t2 node-4 200000..10402250 w114",
            "d5 L1 t2 node-6 200000..10402250 w114",
            "d4 L2 t2 node-0 200000..10603176 w114",
            "d5 L1 t2 node-0 200000..10402260 w114",
            "d5 L1 t2 node-1 200000..10402250 w114",
            "d4 L2 t2 node-8 200000..20403588 w114",
            "d5 L1 t2 node-8 200000..10402260 w114",
            "d5 L1 t2 node-8 200000..20403584 w114",
            "d4 L2 t2 node-9 200000..20804500 w114",
            "d5 L1 t2 node-9 200000..20403584 w114",
            "d5 L1 t2 node-13 200000..10402260 w114",
            "d4 L2 t2 node-12 200000..20403596 w114",
            "d5 L1 t2 node-12 200000..10402271 w114",
            "d5 L1 t1 node-14 10201334..20202680 w57",
            "d4 L2 t2 node-4 10201334..20604510 w114",
            "d5 L1 t2 node-4 10201334..20403594 w114",
            "d5 L1 t1 node-5 10201334..20202670 w57",
            "d4 L2 t2 node-0 10201334..20604510 w114",
            "d5 L1 t2 node-0 10201334..20403594 w114",
            "d5 L1 t1 node-1 10201334..20202670 w57",
        ],
    );
}

#[test]
fn group_by_is_pinned_at_one_and_four_partitions() {
    let sql = "SELECT url, COUNT(*), SUM(clicks) FROM clicks GROUP BY url";
    check(
        "group by, P=1",
        &run(1, sql),
        &[
            "21523190ns wire 26800 18453 9779",
            "d4 L2 t2 node-4 200000..10641766 w2729",
            "d5 L1 t2 node-4 200000..10419852 w2144",
            "d5 L1 t2 node-6 200000..10419852 w2144",
            "d4 L2 t2 node-0 200000..10642309 w2794",
            "d5 L1 t2 node-0 200000..10419873 w2144",
            "d5 L1 t2 node-1 200000..10419852 w2144",
            "d4 L2 t2 node-8 200000..20422572 w2794",
            "d5 L1 t2 node-8 200000..10419873 w2144",
            "d5 L1 t2 node-8 200000..20422488 w2144",
            "d4 L2 t2 node-9 200000..20844402 w2729",
            "d5 L1 t2 node-9 200000..20422488 w2144",
            "d5 L1 t2 node-13 200000..10419873 w2144",
            "d4 L2 t2 node-12 200000..20425151 w2469",
            "d5 L1 t2 node-12 200000..10419883 w2144",
            "d5 L1 t1 node-14 10202636..20205325 w1072",
            "d4 L2 t2 node-4 10202625..20642324 w2469",
            "d5 L1 t2 node-4 10202625..20422498 w2144",
            "d5 L1 t1 node-5 10202636..20205304 w1072",
            "d4 L2 t2 node-0 10202636..20642335 w2469",
            "d5 L1 t2 node-0 10202636..20422509 w2144",
            "d5 L1 t1 node-1 10202636..20205304 w1072",
        ],
    );
    check(
        "group by, P=4",
        &run(4, sql),
        &[
            "21436190ns wire 26800 19349 10227",
            "d4 L2 t2 node-4 200000..10612706 w2857",
            "d5 L1 t2 node-4 200000..10406952 w2144",
            "d5 L1 t2 node-6 200000..10406948 w2144",
            "d4 L2 t2 node-0 200000..10612857 w2922",
            "d5 L1 t2 node-0 200000..10406973 w2144",
            "d5 L1 t2 node-1 200000..10406952 w2144",
            "d4 L2 t2 node-8 200000..20409622 w2922",
            "d5 L1 t2 node-8 200000..10406973 w2144",
            "d5 L1 t2 node-8 200000..20409586 w2144",
            "d4 L2 t2 node-9 200000..20815342 w2857",
            "d5 L1 t2 node-9 200000..20409586 w2144",
            "d5 L1 t2 node-13 200000..10406975 w2144",
            "d4 L2 t2 node-12 200000..20410539 w2597",
            "d5 L1 t2 node-12 200000..10406981 w2144",
            "d5 L1 t1 node-14 10202636..20205307 w1072",
            "d4 L2 t2 node-4 10202625..20614830 w2597",
            "d5 L1 t2 node-4 10202625..20409598 w2144",
            "d5 L1 t1 node-5 10202636..20205286 w1072",
            "d4 L2 t2 node-0 10202636..20614841 w2597",
            "d5 L1 t2 node-0 10202636..20409609 w2144",
            "d5 L1 t1 node-1 10202636..20205286 w1072",
        ],
    );
}

#[test]
fn partial_row_scan_with_a_slow_node_is_pinned() {
    let mut spec = spec(4);
    spec.task_reuse = false;
    let fx = feisu_tests::fixture_with(ROWS, spec, "/hdfs/warehouse/clicks");
    fx.cluster.slow_node(NodeId(5), 40.0);
    let options = QueryOptions {
        processed_ratio: 0.5,
        time_limit: Some(SimDuration::millis(40)),
    };
    let r = fx
        .cluster
        .query_with("SELECT url, day FROM clicks", &fx.cred, &options)
        .expect("limited query");
    assert!(r.partial, "the slow node's tasks are abandoned");
    check(
        "partial row scan",
        &r,
        &[
            "41423421ns wire 20976 0 20800",
            "d3 L1 t2 node-4 200000..10809964 w1824",
            "d3 L1 t2 node-0 200000..10409985 w1824",
            "d3 L1 t2 node-6 200000..10809985 w1824",
            "d3 L1 t2 node-1 200000..10409964 w1824",
            "d3 L1 t2 node-7 200000..10809985 w1824",
            "d3 L1 t2 node-12 200000..10409995 w1824",
            "d3 L1 t2 node-3 200000..20812589 w1824",
            "d3 L1 t2 node-0 200000..20812589 w1824",
            "d3 L1 t1 node-10 200000..10202625 w912",
            "d3 L1 t2 node-4 10202593..20812578 w1824",
            "d3 L1 t2 node-7 10202604..20812589 w1824",
            "d3 L1 t2 node-1 10202604..20812568 w1824",
        ],
    );
}

#[test]
fn scans_that_fit_one_stem_merge_at_the_master() {
    // At the default fan-in one stem takes every task of the 25-block
    // table, so neither a row scan nor a global aggregate places a stem:
    // the master merges the leaves itself.
    let mut spec = spec(4);
    spec.config.leaves_per_stem = FeisuConfig::default().leaves_per_stem;
    let fx = feisu_tests::fixture_with(ROWS, spec, "/hdfs/warehouse/clicks");
    for (sql, want) in [
        (
            "SELECT url, clicks FROM clicks WHERE clicks > 40",
            "20810922ns wire 0 0 12496",
        ),
        (
            "SELECT COUNT(*), SUM(clicks), MIN(score) FROM clicks",
            "20814227ns wire 0 0 1425",
        ),
    ] {
        let r = fx.cluster.query(sql, &fx.cred).expect("query");
        check(sql, &r, &[want]);
        let tree = &r.profile.tree;
        assert_eq!(tree.roots.len(), 1, "{sql}: one root");
        assert!(tree.find_all("stem").is_empty(), "{sql}: no stem");
        let scan = tree.roots[0].find("DistributedScan").expect("scan span");
        let leaves = scan.children.iter().filter(|c| c.name == "leaf_task");
        assert_eq!(
            leaves.count(),
            r.stats.tasks,
            "{sql}: leaves under the scan"
        );
        assert_eq!(tree.find_all("leaf_task").len(), r.stats.tasks, "{sql}");
    }
}

#[test]
fn top_k_row_scan_ships_k_rows_per_leaf_is_pinned() {
    const K: u64 = 3;
    let fx = feisu_tests::fixture_with(ROWS, spec(4), "/hdfs/warehouse/clicks");
    let r = fx
        .cluster
        .query(
            "SELECT url, clicks FROM clicks ORDER BY clicks DESC LIMIT 3",
            &fx.cred,
        )
        .expect("query");
    check(
        "top-k row scan",
        &r,
        &[
            "21411340ns wire 4600 0 4408",
            "d5 L1 t2 node-4 200000..10404248 w368",
            "d5 L1 t2 node-3 200000..10804269 w368",
            "d5 L1 t2 node-0 200000..10604248 w368",
            "d5 L1 t2 node-1 200000..10804269 w368",
            "d5 L1 t2 node-2 200000..10804269 w368",
            "d5 L1 t2 node-7 200000..10804248 w368",
            "d5 L1 t2 node-12 200000..10404279 w368",
            "d5 L1 t2 node-8 200000..20407012 w368",
            "d5 L1 t1 node-10 200000..10202759 w184",
            "d5 L1 t2 node-4 10202753..20407022 w368",
            "d5 L1 t2 node-0 10202764..20407033 w368",
            "d5 L1 t2 node-5 10202764..20807033 w368",
            "d5 L1 t2 node-1 10202764..20807012 w368",
        ],
    );
    // Every stem takes at most two leaves of at most k rows each.
    let rows = |n: &SpanNode| match n.attr("rows") {
        Some(AttrValue::U64(v)) => *v,
        other => panic!("leaf rows: {other:?}"),
    };
    let stems = r.profile.tree.find_all("stem");
    assert!(!stems.is_empty());
    for stem in stems {
        let shipped: u64 = stem.children.iter().map(rows).sum();
        assert!(shipped <= 2 * K, "a stem took {shipped} rows");
    }
}

/// `SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k` over `blocks` blocks of
/// 512 rows, row i = (i % keys, i), on a `nodes`-node two-DC grid with
/// task reuse and SmartIndex off: the response time and wire legs, the
/// scan's EXPLAIN ANALYZE line (its `levels`, `est_rows` beside `rows`),
/// and how many stems ran at each level.
fn grouped_probe(nodes: u32, blocks: usize, keys: i64) -> Vec<String> {
    use feisu_core::engine::FeisuCluster;
    use feisu_format::{DataType, Field, Schema, Value};
    let mut spec = ClusterSpec::with_nodes(nodes);
    spec.rows_per_block = 512;
    spec.task_reuse = false;
    spec.use_smartindex = false;
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ]);
    cluster
        .create_table("t", schema, "/hdfs/w/t", &cred)
        .expect("create table");
    let rows = (0..(blocks * 512) as i64)
        .map(|i| vec![Value::from(i % keys), Value::from(i)])
        .collect();
    cluster.ingest_rows("t", rows, &cred).expect("ingest");
    let r = cluster
        .query("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", &cred)
        .expect("query");
    assert_eq!(r.batch.rows(), keys as usize);
    let stems = r.profile.tree.find_all("stem");
    let at = |level: u64| {
        let level = Some(&AttrValue::U64(level));
        stems.iter().filter(|s| s.attr("level") == level).count()
    };
    // The scan's line of the EXPLAIN ANALYZE render, tree glyphs cut.
    let render = r.profile.render();
    let scan = render
        .lines()
        .find_map(|l| l.split_once("DistributedScan"))
        .map(|(_, line)| line.trim().to_string())
        .expect("scan line");
    let mut out = snapshot(&r);
    out.truncate(1);
    out.push(scan);
    out.push(format!("rack stems {} dc stems {}", at(1), at(2)));
    out
}

/// A grouped scan runs the levels whose fold pays for their hops. Few
/// keys: every leaf ships all 15, nothing folds, the master merges the
/// leaves. 512 keys in every block: a rack stem folds its 4 leaves into
/// one key set. 4,096 keys, 512 per block: a rack's 4 blocks hold 2,048
/// keys and barely fold, a data center's 32 hold all 4,096. At 256 nodes
/// the master cannot take all 256 leaves, and of the trees it can take
/// the deep one prices cheapest, so it still runs where it should. The
/// first three shapes each beat the always-deep tree this replaced
/// (11,819,346, 12,176,758 and 13,166,736 ns); the fourth is that tree.
#[test]
fn grouped_scans_run_the_levels_that_pay() {
    for (nodes, blocks, keys, want) in [
        (
            64,
            64,
            15,
            [
                "11258522ns wire 0 0 26048",
                "[200.000 us +11.058 ms] levels=root wire_to_master=25.44 KiB \
                 est_rows=15 rows=15 bytes=407",
                "rack stems 0 dc stems 0",
            ],
        ),
        (
            64,
            64,
            512,
            [
                "11934966ns wire 835584 0 208896",
                "[200.000 us +11.733 ms] levels=rack wire_to_master=204.00 KiB \
                 est_rows=499 rows=512 bytes=13056",
                "rack stems 16 dc stems 0",
            ],
        ),
        (
            64,
            64,
            4096,
            [
                "12887632ns wire 835584 0 208896",
                "[200.000 us +12.671 ms] levels=dc wire_to_master=204.00 KiB \
                 est_rows=4111 rows=4096 bytes=104448",
                "rack stems 0 dc stems 2",
            ],
        ),
        (
            256,
            256,
            512,
            [
                "22515391ns wire 3342336 835584 26112",
                "[200.000 us +22.313 ms] levels=rack+dc wire_to_master=25.50 KiB \
                 est_rows=499 rows=512 bytes=13056",
                "rack stems 64 dc stems 2",
            ],
        ),
    ] {
        let got = grouped_probe(nodes, blocks, keys);
        assert!(
            got == want,
            "{nodes} nodes, {blocks} blocks, {keys} keys: now {got:?}"
        );
    }
}
