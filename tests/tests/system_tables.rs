//! End-to-end suite for the queryable observability plane: virtual
//! `system.*` tables served through the normal physical-plan scan path,
//! the always-on bounded query event log behind `system.queries`, and
//! the Chrome-trace export handle on `QueryResult`.

use feisu_common::SimDuration;
use feisu_core::engine::{ClusterSpec, QueryOptions};
use feisu_core::event_log::QueryEvent;
use feisu_core::QueryStats;
use feisu_exec::batch::RecordBatch;
use feisu_format::Value;
use feisu_storage::auth::Credential;
use feisu_tests::{fixture, fixture_with};
use std::sync::Barrier;

/// Golden read-back: completed queries surface in `system.queries` with
/// the right user, statement, outcome and row counts — via a plain
/// `SELECT`, not a side API.
#[test]
fn golden_select_over_system_queries() {
    let fx = fixture(100);
    let q1 = "SELECT COUNT(*) FROM clicks WHERE clicks > 10";
    let q2 = "SELECT url FROM clicks WHERE clicks > 90";
    let r1 = fx.cluster.query(q1, &fx.cred).expect("q1");
    let r2 = fx.cluster.query(q2, &fx.cred).expect("q2");

    let log = fx
        .cluster
        .query(
            "SELECT query_id, user, sql, outcome, rows_returned, response_ns \
             FROM system.queries",
            &fx.cred,
        )
        .expect("system.queries select");
    // The introspection query itself completes after its scan snapshot,
    // so exactly the two earlier queries are visible.
    assert_eq!(log.batch.rows(), 2);
    let row_for = |sql: &str| {
        (0..log.batch.rows())
            .find(|&i| log.batch.value_at(i, "sql") == Some(Value::Utf8(sql.into())))
            .unwrap_or_else(|| panic!("no event row for `{sql}`"))
    };
    for (sql, result) in [(q1, &r1), (q2, &r2)] {
        let i = row_for(sql);
        assert_eq!(
            log.batch.value_at(i, "query_id"),
            Some(Value::Int64(result.query_id.0 as i64))
        );
        assert_eq!(
            log.batch.value_at(i, "user"),
            Some(Value::Utf8(fx.cred.user.to_string()))
        );
        assert_eq!(
            log.batch.value_at(i, "outcome"),
            Some(Value::Utf8("completed".into()))
        );
        assert_eq!(
            log.batch.value_at(i, "rows_returned"),
            Some(Value::Int64(result.batch.rows() as i64))
        );
        assert_eq!(
            log.batch.value_at(i, "response_ns"),
            Some(Value::Int64(result.response_time.as_nanos() as i64))
        );
    }
    // And the introspection query is itself logged once it completes.
    assert_eq!(fx.cluster.query_log().len(), 3);
}

/// System tables go through the ordinary planner: EXPLAIN shows a
/// `DistributedScan` over the virtual table, and pushed-down predicates
/// and aggregation work on it.
#[test]
fn system_tables_use_the_normal_plan_path() {
    let fx = fixture(60);
    fx.cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .expect("warm-up query");

    let plan = fx
        .cluster
        .explain(
            "SELECT user FROM system.queries WHERE response_ns > 0",
            &fx.cred,
        )
        .expect("explain over system table");
    assert!(
        plan.contains("DistributedScan") && plan.contains("system.queries"),
        "plan should scan the virtual table: {plan}"
    );

    // Aggregation pushdown over a virtual scan.
    let agg = fx
        .cluster
        .query(
            "SELECT outcome, COUNT(*) FROM system.queries GROUP BY outcome",
            &fx.cred,
        )
        .expect("aggregate over system.queries");
    assert_eq!(agg.batch.rows(), 1);
    assert_eq!(
        agg.batch.value_at(0, "outcome"),
        Some(Value::Utf8("completed".into()))
    );
    assert_eq!(agg.batch.row(0)[1], Value::Int64(1));
    // The virtual scan ran no leaf tasks and read no storage bytes.
    assert_eq!(agg.stats.tasks, 0);
    assert_eq!(agg.stats.bytes_read.0, 0);
}

/// `system.metrics`, `system.nodes` and `system.cache` answer plain
/// SELECTs with live cluster state.
#[test]
fn metrics_nodes_and_cache_tables_are_selectable() {
    let fx = fixture(80);
    fx.cluster
        .query("SELECT COUNT(*) FROM clicks WHERE clicks > 5", &fx.cred)
        .expect("seed query");

    let m = fx
        .cluster
        .query(
            "SELECT name, kind, count FROM system.metrics WHERE name = 'feisu.query.count'",
            &fx.cred,
        )
        .expect("system.metrics");
    assert_eq!(m.batch.rows(), 1);
    assert_eq!(
        m.batch.value_at(0, "kind"),
        Some(Value::Utf8("counter".into()))
    );
    // The seed query plus this one's admission tick both count.
    assert!(matches!(m.batch.value_at(0, "count"), Some(Value::Int64(n)) if n >= 1));

    // Window rows surface next to registry metrics.
    let w = fx
        .cluster
        .query(
            "SELECT name, count, rate_per_sec FROM system.metrics WHERE kind = 'window'",
            &fx.cred,
        )
        .expect("window rows");
    assert!(w.batch.rows() >= 3, "response/wire/scanned windows");

    let nodes = fx
        .cluster
        .query(
            "SELECT node, alive, failed, feisu_slots FROM system.nodes",
            &fx.cred,
        )
        .expect("system.nodes");
    assert!(nodes.batch.rows() > 0);
    for i in 0..nodes.batch.rows() {
        assert_eq!(nodes.batch.value_at(i, "alive"), Some(Value::Bool(true)));
        assert_eq!(nodes.batch.value_at(i, "failed"), Some(Value::Bool(false)));
    }

    // No block cache configured on this fixture: its three tiers have no
    // rows (no such per-node state exists), the always-on footer cache
    // has its one `meta` row per node — and the seed query's first touch
    // of each block left that block's footer in one of them.
    let cache = fx
        .cluster
        .query(
            "SELECT node, tier, entries, hits FROM system.cache",
            &fx.cred,
        )
        .expect("system.cache");
    assert_eq!(cache.batch.rows(), fx.cluster.node_count());
    let mut footers = 0;
    for i in 0..cache.batch.rows() {
        assert_eq!(
            cache.batch.value_at(i, "tier"),
            Some(Value::Utf8("meta".into()))
        );
        if let Some(Value::Int64(n)) = cache.batch.value_at(i, "entries") {
            footers += n as usize;
        }
    }
    let blocks = fx.cluster.catalog().table("clicks").unwrap().block_count();
    assert_eq!(footers, blocks, "one resident footer per block read");
}

/// `system.cache` reports one row per (node, tier) — `mem`, `ssd`, the
/// `ghost` admission shadow and the `meta` footer cache — with exact
/// per-node counters.
#[test]
fn system_cache_reports_per_node_tier_rows() {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.config.cache.enabled = true;
    spec.cache_pins = vec!["/".to_string()]; // admit on first sight
    let fx = fixture_with(200, spec, "/hdfs/warehouse/clicks");
    let sql = "SELECT url FROM clicks WHERE clicks > 10";
    fx.cluster.query(sql, &fx.cred).unwrap(); // miss + admit
    fx.cluster.query(sql, &fx.cred).unwrap(); // ssd hits + promotion
    let nodes = fx.cluster.node_count();
    let rows = fx
        .cluster
        .query(
            "SELECT node, tier, entries, used_bytes, capacity_bytes, hits, evictions \
             FROM system.cache",
            &fx.cred,
        )
        .expect("system.cache");
    assert_eq!(rows.batch.rows(), nodes * 4, "four tiers per node");
    // Tier labels cycle mem/ssd/ghost/meta per node; the SSD tier saw the
    // warm-read hits somewhere, and every warm task found its footer.
    let (mut ssd_hits, mut meta_hits) = (0i64, 0i64);
    for i in 0..rows.batch.rows() {
        let Some(Value::Utf8(tier)) = rows.batch.value_at(i, "tier") else {
            panic!("tier column");
        };
        assert_eq!(["mem", "ssd", "ghost", "meta"][i % 4], tier);
        if let Some(Value::Int64(h)) = rows.batch.value_at(i, "hits") {
            match tier.as_str() {
                "ssd" => ssd_hits += h,
                "meta" => meta_hits += h,
                _ => {}
            }
        }
    }
    assert!(ssd_hits > 0, "warm reads hit the SSD tier");
    let blocks = fx.cluster.catalog().table("clicks").unwrap().block_count();
    assert_eq!(meta_hits, blocks as i64, "one footer hit per warm task");
    // Aggregation pushdown works over the virtual table.
    let agg = fx
        .cluster
        .query(
            "SELECT tier, SUM(used_bytes) FROM system.cache GROUP BY tier",
            &fx.cred,
        )
        .expect("grouped");
    assert_eq!(agg.batch.rows(), 4);
}

/// The `system.` namespace is reserved: user tables cannot shadow the
/// virtual catalog.
#[test]
fn system_namespace_is_reserved() {
    let fx = fixture(10);
    let err = fx
        .cluster
        .create_table(
            "system.queries",
            feisu_tests::clicks_schema(),
            "/hdfs/warehouse/shadow",
            &fx.cred,
        )
        .expect_err("create_table in system namespace must fail");
    assert!(err.to_string().contains("reserved"), "{err}");
}

/// The event log is a bounded ring: under churn it holds exactly the
/// configured capacity, oldest evicted first.
#[test]
fn query_log_is_bounded_under_churn() {
    let mut spec = ClusterSpec::small();
    spec.config.query_log_capacity = 4;
    let fx = fixture_with(120, spec, "/hdfs/warehouse/clicks");
    for v in 0..10 {
        fx.cluster
            .query(
                &format!("SELECT COUNT(*) FROM clicks WHERE clicks > {v}"),
                &fx.cred,
            )
            .expect("churn query");
    }
    let log = fx.cluster.query_log();
    assert_eq!(log.capacity(), 4);
    assert_eq!(log.len(), 4);
    let sqls: Vec<String> = log.snapshot().into_iter().map(|e| e.sql).collect();
    let expect: Vec<String> = (6..10)
        .map(|v| format!("SELECT COUNT(*) FROM clicks WHERE clicks > {v}"))
        .collect();
    assert_eq!(sqls, expect, "oldest events evicted first");
}

/// Failures and guard rejections are terminal events: they land in the
/// log with their outcome and error text even though no result exists.
#[test]
fn failed_and_rejected_queries_are_logged() {
    let mut spec = ClusterSpec::small();
    spec.guard.daily_quota = 2;
    let fx = fixture_with(60, spec, "/hdfs/warehouse/clicks");

    // Analysis failure (well-formed SQL, unknown table).
    fx.cluster
        .query("SELECT x FROM ghost", &fx.cred)
        .expect_err("unknown table");
    // Syntax failure.
    fx.cluster
        .query("SELEKT nonsense", &fx.cred)
        .expect_err("syntax error");
    // Burn the quota (the failed analysis query above consumed one
    // admission; the syntax error did not).
    fx.cluster
        .query("SELECT COUNT(*) FROM clicks", &fx.cred)
        .expect("second admitted query");
    fx.cluster
        .query("SELECT COUNT(*) FROM clicks WHERE clicks > 1", &fx.cred)
        .expect_err("quota rejection");

    let events = fx.cluster.query_log().snapshot();
    assert_eq!(events.len(), 4);
    let outcomes: Vec<&str> = events.iter().map(|e| e.outcome.label()).collect();
    assert_eq!(outcomes, ["failed", "failed", "completed", "rejected"]);
    assert!(events[0].outcome.error().unwrap().contains("ghost"));
    assert!(events[3].outcome.error().unwrap().contains("quota"));

    // The same facts are queryable.
    let r = fx
        .cluster
        .query(
            "SELECT outcome, COUNT(*) FROM system.queries GROUP BY outcome",
            &fx.cred,
        )
        .expect_err("introspection user is also quota-limited");
    assert!(r.to_string().contains("quota"));
    // A fresh user can still read the log through SQL.
    let auditor = fx.cluster.register_user("auditor");
    fx.cluster.grant_all(auditor);
    let cred: Credential = fx.cluster.login(auditor).expect("auditor login");
    let by_outcome = fx
        .cluster
        .query(
            "SELECT outcome, COUNT(*) FROM system.queries GROUP BY outcome",
            &cred,
        )
        .expect("audit query");
    // completed=1, failed=2, rejected=2 (the quota-limited introspection
    // attempt above was itself rejected and logged).
    assert_eq!(by_outcome.batch.rows(), 3);
    let count_of = |label: &str| {
        (0..by_outcome.batch.rows())
            .find(|&i| by_outcome.batch.value_at(i, "outcome") == Some(Value::Utf8(label.into())))
            .map(|i| by_outcome.batch.row(i)[1].clone())
            .unwrap_or_else(|| panic!("no `{label}` group"))
    };
    assert_eq!(count_of("completed"), Value::Int64(1));
    assert_eq!(count_of("failed"), Value::Int64(2));
    assert_eq!(count_of("rejected"), Value::Int64(2));
}

/// The interleaving-independent slice of a query event: everything a
/// client could compute from its own deterministic `QueryResult`.
type EventKey = ((String, String, String, u64, u64, u64), QueryStats);

fn event_key(e: &QueryEvent) -> EventKey {
    let id = (
        e.user.clone(),
        e.sql.clone(),
        e.outcome.label().to_string(),
        e.response_ns,
        e.rows_returned,
        e.bytes_returned,
    );
    (id, e.stats)
}

/// Serial and concurrent runs of a race-free workload log the same
/// multiset of per-query events (absolute admission instants differ
/// with interleaving; everything per-query matches).
#[test]
fn event_log_serial_vs_concurrent_equivalence() {
    let clients = 3usize;
    let per_client = 4usize;
    // Cache-independent across clients: client `i` only uses predicate
    // constants ≡ i (mod clients), mirroring the determinism suite.
    let workloads: Vec<Vec<String>> = (0..clients)
        .map(|i| {
            (0..per_client)
                .map(|j| {
                    format!(
                        "SELECT COUNT(*) FROM clicks WHERE clicks > {}",
                        i + j * clients
                    )
                })
                .collect()
        })
        .collect();

    let run = |concurrent: bool| -> Vec<QueryEvent> {
        let fx = fixture_with(400, ClusterSpec::small(), "/hdfs/warehouse/clicks");
        let sessions: Vec<_> = (0..clients)
            .map(|i| {
                let user = fx.cluster.register_user(&format!("client{i}"));
                fx.cluster.grant_all(user);
                let cred = fx.cluster.login(user).expect("client login");
                fx.cluster.session(cred)
            })
            .collect();
        if concurrent {
            let barrier = Barrier::new(clients);
            std::thread::scope(|s| {
                for (session, list) in sessions.iter().zip(&workloads) {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        for sql in list {
                            session.query(sql).expect("concurrent query");
                        }
                    });
                }
            });
        } else {
            for (session, list) in sessions.iter().zip(&workloads) {
                for sql in list {
                    session.query(sql).expect("serial query");
                }
            }
        }
        fx.cluster.query_log().snapshot()
    };

    let serial = run(false);
    let concurrent = run(true);
    assert_eq!(serial.len(), clients * per_client);
    let canon = |events: Vec<QueryEvent>| {
        let mut keys: Vec<EventKey> = events.iter().map(event_key).collect();
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        keys
    };
    assert_eq!(
        canon(serial),
        canon(concurrent),
        "event multisets must not depend on client interleaving"
    );
}

/// Every `QueryResult` exports its span tree as a Chrome-trace JSON
/// array with the distributed operators present.
#[test]
fn chrome_trace_export_has_the_span_tree() {
    let fx = fixture(90);
    let result = fx
        .cluster
        .query(
            "SELECT keyword, COUNT(*) FROM clicks WHERE clicks > 20 GROUP BY keyword",
            &fx.cred,
        )
        .expect("traced query");
    let trace = result.chrome_trace();
    assert!(trace.starts_with('[') && trace.trim_end().ends_with(']'));
    for name in ["master", "DistributedScan", "leaf_task", "\"ph\": \"X\""] {
        assert!(trace.contains(name), "trace missing {name}");
    }
    // Balanced and comma-separated: one JSON object per span.
    let events = trace.matches("\"ph\": \"X\"").count();
    assert!(
        events >= 4,
        "expected a real span tree, got {events} events"
    );
}

/// The EXPLAIN ANALYZE profile now carries the wire summary, and the
/// virtual tables do not perturb it.
#[test]
fn profile_summarizes_bytes_on_wire() {
    // Two leaves per stem and four blocks, so a row scan's fan-in needs
    // stems.
    let mut spec = ClusterSpec::small();
    spec.config.leaves_per_stem = 2;
    let fx = fixture_with(200, spec, "/hdfs/warehouse/clicks");
    let r = fx
        .cluster
        .query("SELECT url FROM clicks WHERE clicks > 30", &fx.cred)
        .expect("query");
    let line = r
        .profile
        .summary
        .iter()
        .find(|(k, _)| k == "bytes on wire")
        .map(|(_, v)| v.clone())
        .expect("bytes on wire summary line");
    assert!(
        line.contains("leaf→stem") && line.contains("stem→master"),
        "{line}"
    );
    // A filtered projection ships real bytes on both legs.
    let events = fx.cluster.query_log().snapshot();
    let e = events.last().expect("event logged");
    assert!(e.stats.wire_leaf_stem.0 > 0, "leaf→stem bytes recorded");
    assert!(e.stats.wire_stem_master.0 > 0, "stem→master bytes recorded");
}

/// A query's logged `stats` are its `QueryResult.stats`, whatever the
/// worker pool's width.
#[test]
fn logged_stats_equal_the_query_result() {
    for threads in [1, 8] {
        let mut spec = ClusterSpec::small();
        spec.config.execution_threads = threads;
        let fx = fixture_with(300, spec, "/hdfs/warehouse/clicks");
        for sql in [
            "SELECT url FROM clicks WHERE clicks > 30",
            "SELECT keyword, COUNT(*) FROM clicks WHERE clicks > 10 GROUP BY keyword",
            "SELECT COUNT(*) FROM clicks",
        ] {
            let r = fx.cluster.query(sql, &fx.cred).expect("query");
            let events = fx.cluster.query_log().snapshot();
            let e = events.last().expect("event logged");
            assert_eq!(e.query_id, r.query_id.0);
            assert!(e.stats.tasks > 0, "`{sql}` ran leaf tasks");
            assert_eq!(e.stats, r.stats, "`{sql}` at {threads} threads");
        }
    }
}

/// An `Int64` cell of a result batch.
fn int_at(batch: &RecordBatch, row: usize, column: &str) -> i64 {
    match batch.value_at(row, column) {
        Some(Value::Int64(v)) => v,
        other => panic!("`{column}` of row {row}: {other:?}"),
    }
}

/// `system.metrics`' window rows are a fold over `system.queries`: per
/// series, the count, maximum, nearest-rank p50/p95/p99 and count / 60 s
/// of the completed and partial queries that finished in the trailing 60
/// simulated seconds. Failed and rejected queries never count, and
/// queries that finished earlier drop out.
#[test]
fn window_rows_are_a_fold_over_system_queries() {
    for threads in [1, 8] {
        let mut spec = ClusterSpec::small();
        spec.config.execution_threads = threads;
        // No reuse or index, so a repeated count under a time limit is
        // partial every time.
        spec.task_reuse = false;
        spec.use_smartindex = false;
        spec.guard.max_query_len = 200;
        let fx = fixture_with(600, spec, "/hdfs/warehouse/clicks");
        let count = "SELECT COUNT(*) FROM clicks";
        fx.cluster.query(count, &fx.cred).expect("cold count");
        let warm = fx.cluster.query(count, &fx.cred).expect("warm count");
        let limited = QueryOptions {
            processed_ratio: 0.2,
            time_limit: Some(SimDuration::nanos(warm.response_time.as_nanos() / 2)),
        };
        let oversized = format!(
            "SELECT url FROM clicks WHERE {}clicks > 0",
            "clicks >= 0 AND ".repeat(16)
        );
        for round in 0..4 {
            for v in [10, 50, 90] {
                let sql = format!("SELECT url FROM clicks WHERE clicks > {}", v + round);
                fx.cluster.query(&sql, &fx.cred).expect("completed");
            }
            let partial = fx.cluster.query_with(count, &fx.cred, &limited);
            assert!(partial.expect("partial").partial);
            fx.cluster
                .query("SELECT x FROM ghost", &fx.cred)
                .expect_err("failed");
            fx.cluster
                .query(&oversized, &fx.cred)
                .expect_err("rejected");
            fx.cluster.advance_time(SimDuration::secs(25));
        }

        let now = fx.cluster.now().as_nanos() as i64;
        let windows = fx
            .cluster
            .query(
                "SELECT name, value, count, p50, p95, p99, rate_per_sec \
                 FROM system.metrics WHERE kind = 'window'",
                &fx.cred,
            )
            .expect("window rows");
        let log = fx
            .cluster
            .query(
                "SELECT query_id, outcome, admitted_ns, response_ns, bytes_scanned, \
                 wire_leaf_stem_bytes, wire_rack_dc_bytes, wire_stem_master_bytes \
                 FROM system.queries",
                &fx.cred,
            )
            .expect("system.queries")
            .batch;

        // Brute force: walk every logged query the window read could see.
        let (mut in_window, mut dropped) = (Vec::new(), 0);
        let mut values: [(&str, Vec<i64>); 3] = [
            ("feisu.query.bytes_on_wire", Vec::new()),
            ("feisu.query.bytes_scanned", Vec::new()),
            ("feisu.query.response_ns", Vec::new()),
        ];
        for i in 0..log.rows() {
            if int_at(&log, i, "query_id") == windows.query_id.0 as i64 {
                continue;
            }
            let Some(Value::Utf8(outcome)) = log.value_at(i, "outcome") else {
                panic!("outcome of row {i}");
            };
            let response = int_at(&log, i, "response_ns");
            let finished = int_at(&log, i, "admitted_ns") + response;
            assert!(finished <= now, "logged before the window read");
            let result = outcome == "completed" || outcome == "partial";
            if finished <= now - 60_000_000_000 {
                dropped += result as usize;
                continue;
            }
            in_window.push(outcome.clone());
            if result {
                let wire = [
                    "wire_leaf_stem_bytes",
                    "wire_rack_dc_bytes",
                    "wire_stem_master_bytes",
                ]
                .map(|c| int_at(&log, i, c));
                values[0].1.push(wire.iter().sum());
                values[1].1.push(int_at(&log, i, "bytes_scanned"));
                values[2].1.push(response);
            }
        }
        for outcome in ["completed", "partial", "failed", "rejected"] {
            assert!(
                in_window.iter().any(|o| o == outcome),
                "no {outcome} query in the window"
            );
        }
        assert!(
            dropped > 0,
            "some finished queries are older than the window"
        );

        assert_eq!(windows.batch.rows(), values.len());
        for (row, (name, mut v)) in values.into_iter().enumerate() {
            v.sort_unstable();
            let n = v.len();
            // Nearest rank: the smallest value at least a fraction q of
            // the values do not exceed.
            let rank = |q: f64| {
                let at_most = |x: i64| v.iter().filter(|&&y| y <= x).count() as f64;
                *v.iter()
                    .find(|&&x| at_most(x) >= q * n as f64)
                    .expect("values")
            };
            let b = &windows.batch;
            assert_eq!(b.value_at(row, "name"), Some(Value::Utf8(name.into())));
            assert_eq!(int_at(b, row, "count"), n as i64, "{name}");
            assert_eq!(
                b.value_at(row, "value"),
                Some(Value::Float64(v[n - 1] as f64))
            );
            assert_eq!(int_at(b, row, "p50"), rank(0.50), "{name}");
            assert_eq!(int_at(b, row, "p95"), rank(0.95), "{name}");
            assert_eq!(int_at(b, row, "p99"), rank(0.99), "{name}");
            let rate = n as f64 / 60.0;
            assert_eq!(b.value_at(row, "rate_per_sec"), Some(Value::Float64(rate)));
        }
    }
}

/// A qualified filter over a virtual table: the scan's clauses arrive in
/// the table's storage names, so the alias and the residual resolve as
/// they would on a leaf.
#[test]
fn a_qualified_filter_selects_from_system_queries() {
    let fx = fixture(100);
    let scans = "SELECT COUNT(*) FROM clicks WHERE clicks > 10";
    fx.cluster.query(scans, &fx.cred).expect("scan");
    fx.cluster
        .query("SELECT url FROM clicks WHERE FALSE", &fx.cred)
        .expect("pruned");
    for sql in [
        "SELECT q.sql FROM system.queries q WHERE q.tasks > 0",
        "SELECT q.sql FROM system.queries q WHERE q.tasks + 1 > 1",
    ] {
        let got = fx.cluster.query(sql, &fx.cred).expect(sql);
        assert_eq!(got.batch.rows(), 1, "{sql}");
        assert_eq!(got.batch.row(0), [Value::Utf8(scans.into())], "{sql}");
    }
}
