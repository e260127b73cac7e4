//! Shared fixtures for the workspace integration tests.
//!
//! The central helper builds a populated [`FeisuCluster`] *and* a
//! [`MemProvider`] holding identical data, so every distributed answer
//! can be checked against the single-process oracle executor. The
//! random-SQL generators the property suites share live here too, beside
//! the tables they query.

use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_exec::batch::RecordBatch;
use feisu_exec::MemProvider;
use feisu_format::{Column, DataType, Field, Schema, Value};
use feisu_storage::auth::Credential;
use proptest::prelude::*;

/// A cluster plus its oracle twin.
pub struct Fixture {
    pub cluster: FeisuCluster,
    pub oracle: MemProvider,
    pub cred: Credential,
    pub user: feisu_common::UserId,
}

/// Deterministic small clicks table used across tests.
pub fn clicks_schema() -> Schema {
    Schema::new(vec![
        Field::new("url", DataType::Utf8, false),
        Field::new("keyword", DataType::Utf8, false),
        Field::new("clicks", DataType::Int64, true),
        Field::new("score", DataType::Float64, false),
        Field::new("day", DataType::Int64, false),
    ])
}

/// Generates `rows` deterministic rows of the clicks table.
pub fn clicks_rows(rows: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            vec![
                Value::from(format!("https://site{}.example/p{}", i % 7, i % 3)),
                Value::from(["map", "music", "news", "stock"][i % 4]),
                if i % 11 == 10 {
                    Value::Null
                } else {
                    Value::from(((i * 13) % 100) as i64)
                },
                Value::from((i % 10) as f64 / 10.0),
                Value::from(20160101 + (i / 50) as i64),
            ]
        })
        .collect()
}

/// Builds a small cluster with the clicks table on HDFS (plus the same
/// data in the oracle), a registered user, and a credential.
pub fn fixture(rows: usize) -> Fixture {
    fixture_with(rows, ClusterSpec::small(), "/hdfs/warehouse/clicks")
}

/// Fixture with custom spec and table location.
pub fn fixture_with(rows: usize, mut spec: ClusterSpec, location: &str) -> Fixture {
    // Small blocks so multi-block paths are exercised even in tests.
    spec.rows_per_block = spec.rows_per_block.min(64);
    // CI runs the e2e suites at a pinned pool width (scripts/ci.sh sets
    // FEISU_EXECUTION_THREADS=8) to prove simulated results don't depend
    // on the executor's thread count.
    // Specs that pin an explicit thread count (determinism sweeps) win.
    if spec.config.execution_threads == 0 {
        if let Ok(v) = std::env::var("FEISU_EXECUTION_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                spec.config.execution_threads = n;
            }
        }
    }
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    cluster
        .create_table("clicks", clicks_schema(), location, &cred)
        .expect("create table");
    let rows_data = clicks_rows(rows);
    cluster
        .ingest_rows("clicks", rows_data.clone(), &cred)
        .expect("ingest");

    let mut oracle = MemProvider::new();
    oracle.insert("clicks", rows_to_batch(&clicks_schema(), &rows_data));
    Fixture {
        cluster,
        oracle,
        cred,
        user,
    }
}

/// Materializes rows into a record batch (oracle-side storage).
pub fn rows_to_batch(schema: &Schema, rows: &[Vec<Value>]) -> RecordBatch {
    let mut builders: Vec<feisu_format::ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| feisu_format::ColumnBuilder::new(f.data_type))
        .collect();
    for row in rows {
        for (b, v) in builders.iter_mut().zip(row.iter().cloned()) {
            b.push(v);
        }
    }
    let columns: Vec<Column> = builders.into_iter().map(|b| b.finish()).collect();
    RecordBatch::new(schema.clone(), columns).expect("batch")
}

/// Compares two batches as *bags of rows* (distributed execution may
/// reorder) after verifying schema compatibility.
pub fn assert_same_rows(got: &RecordBatch, want: &RecordBatch, context: &str) {
    assert_eq!(
        got.schema().len(),
        want.schema().len(),
        "{context}: column count"
    );
    assert_eq!(got.rows(), want.rows(), "{context}: row count");
    let canon = |b: &RecordBatch| {
        let mut rows: Vec<String> = (0..b.rows())
            .map(|i| {
                b.row(i)
                    .iter()
                    .map(|v| match v {
                        // Distributed partial aggregation reorders float
                        // sums; compare at 9 significant digits.
                        Value::Float64(f) => format!("{f:.9e}"),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(canon(got), canon(want), "{context}: row contents");
}

/// Runs a query on both engines and asserts identical row bags.
pub fn check_against_oracle(fx: &mut Fixture, sql: &str) {
    let got = fx
        .cluster
        .query(sql, &fx.cred)
        .unwrap_or_else(|e| panic!("cluster failed `{sql}`: {e}"));
    let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle)
        .unwrap_or_else(|e| panic!("oracle failed `{sql}`: {e}"));
    assert_same_rows(&got.batch, &want, sql);
}

// ------------------------------------------------- random-SQL generators

/// Random predicates over the clicks schema, exercising every disjunct
/// shape the CNF splitter knows: indexable comparisons, CONTAINS, NULL
/// tests, and arbitrary AND/OR/NOT nesting (which produces residual
/// clauses that stay as row filters on the leaves).
pub fn arb_predicate() -> impl Strategy<Value = String> {
    let cmp = prop_oneof![
        Just(">"),
        Just(">="),
        Just("<"),
        Just("<="),
        Just("="),
        Just("!=")
    ]
    .boxed();
    let leaf = prop_oneof![
        (cmp.clone(), 0i64..100).prop_map(|(op, v)| format!("clicks {op} {v}")),
        (cmp.clone(), 0u32..10).prop_map(|(op, v)| format!("score {op} 0.{v}")),
        (cmp, 0i64..12).prop_map(|(op, d)| format!("day {op} {}", 20160101 + d)),
        (0usize..4).prop_map(|k| format!("keyword = '{}'", ["map", "music", "news", "stock"][k])),
        (0usize..8).prop_map(|s| format!("url CONTAINS 'site{s}'")),
        Just("clicks IS NULL".to_string()),
        Just("clicks IS NOT NULL".to_string()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} AND {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} OR {r})")),
            inner.prop_map(|e| format!("(NOT {e})")),
        ]
    })
}

/// `proptest::option::of` equivalent for the offline shim.
pub fn maybe<V: 'static>(s: BoxedStrategy<V>) -> impl Strategy<Value = Option<V>> {
    prop_oneof![Just(()).prop_map(|_| None), s.prop_map(Some)]
}

/// Random SELECT lists over the clicks table: plain projections or
/// aggregates (the latter lower to `FinalAggregate` over a scan with the
/// stage pushed down).
pub fn arb_query() -> impl Strategy<Value = String> {
    let projection = prop_oneof![
        Just("url".to_string()),
        Just("url, clicks".to_string()),
        Just("keyword, score, day".to_string()),
        Just("clicks * 2 AS doubled, url".to_string()),
    ];
    let aggregates = prop_oneof![
        Just("COUNT(*)".to_string()),
        Just("COUNT(clicks)".to_string()),
        Just("SUM(clicks), MIN(clicks), MAX(clicks)".to_string()),
        Just("COUNT(*), AVG(score)".to_string()),
    ]
    .boxed();
    let group = prop_oneof![Just("keyword"), Just("day")];
    let shape = prop_oneof![
        // Plain scan + projection.
        projection.prop_map(|p| format!("SELECT {p} FROM clicks")),
        // Global aggregate — pushed to the leaves.
        aggregates
            .clone()
            .prop_map(|a| format!("SELECT {a} FROM clicks")),
        // Grouped aggregate, optionally ordered by the (unique) group key
        // with a LIMIT so Sort and Limit operators get exercised too.
        (aggregates, group, maybe((1u64..5).boxed())).prop_map(|(a, g, lim)| {
            match lim {
                Some(k) => {
                    format!("SELECT {g}, {a} FROM clicks GROUP BY {g} ORDER BY {g} LIMIT {k}")
                }
                None => format!("SELECT {g}, {a} FROM clicks GROUP BY {g}"),
            }
        }),
    ];
    (shape, maybe(arb_predicate().boxed())).prop_map(|(q, pred)| match pred {
        Some(p) => {
            // Splice the WHERE clause in front of any GROUP BY suffix.
            match q.find(" GROUP BY") {
                Some(at) => format!("{} WHERE {p}{}", &q[..at], &q[at..]),
                None => format!("{q} WHERE {p}"),
            }
        }
        None => q,
    })
}

/// A 2–4 table star query over the join tables `a`, `b`, `c`, `e`, always
/// with explicit `JOIN ... ON` syntax so it stays executable with the
/// optimizer off (no rule pipeline to turn comma cross-products into
/// equi-joins).
pub fn star_sql(n_tables: usize, threshold: i64, agg: bool) -> String {
    let mut from = String::from("a JOIN b ON a.k = b.k");
    if n_tables >= 3 {
        from.push_str(" JOIN c ON a.k = c.k");
    }
    if n_tables >= 4 {
        from.push_str(" JOIN e ON a.k = e.k");
    }
    let select = if agg {
        "a.k AS k, COUNT(*) AS n, SUM(b.w) AS s"
    } else {
        "a.v AS v, b.w AS w"
    };
    let tail = if agg { " GROUP BY a.k" } else { "" };
    format!("SELECT {select} FROM {from} WHERE a.v > {threshold}{tail}")
}

/// Adds the join-aggregate tables to the cluster and the oracle:
/// - `fa`, 240 fact rows, whose join keys run from unique to heavily
///   repeated (`ku` = i, `km` = i % 24, `kr` = i % 3; `kn` = i % 6 with
///   every fifth key NULL), a group column `g` = i % 4, a nullable Int64
///   `v` and a Float64 `x`;
/// - `da`, 31 rows keyed 0..24 with keys 0..4 twice and one NULL key,
///   naming each row `n0`..`n3`;
/// - `db`, 6 rows keyed 0..5.
pub fn add_join_agg_tables(fx: &mut Fixture) {
    let int = |name: &str, nullable| Field::new(name, DataType::Int64, nullable);
    let fa = (0..240i64).map(|i| {
        let kn = if i % 5 == 0 {
            Value::Null
        } else {
            (i % 6).into()
        };
        let v = if i % 13 == 12 {
            Value::Null
        } else {
            ((i * 7) % 101).into()
        };
        let x = Value::from((i % 17) as f64 * 0.37 + i as f64 * 1e-3);
        vec![
            i.into(),
            (i % 24).into(),
            (i % 3).into(),
            kn,
            (i % 4).into(),
            v,
            x,
        ]
    });
    let fa_fields = vec![
        int("ku", false),
        int("km", false),
        int("kr", false),
        int("kn", true),
        int("g", false),
        int("v", true),
        Field::new("x", DataType::Float64, false),
    ];
    let da = (0..31i64).map(|i| {
        let k = if i == 30 {
            Value::Null
        } else {
            (i % 25).into()
        };
        vec![k, Value::from(format!("n{}", i % 4))]
    });
    let da_fields = vec![int("k", true), Field::new("name", DataType::Utf8, false)];
    let db = (0..6i64).map(|i| vec![i.into(), (i * 10).into()]);
    let db_fields = vec![int("k", false), int("w", false)];
    for (name, fields, rows) in [
        ("fa", fa_fields, fa.collect::<Vec<_>>()),
        ("da", da_fields, da.collect()),
        ("db", db_fields, db.collect()),
    ] {
        let schema = Schema::new(fields);
        let location = format!("/hdfs/warehouse/{name}");
        fx.cluster
            .create_table(name, schema.clone(), &location, &fx.cred)
            .expect("create table");
        fx.cluster
            .ingest_rows(name, rows.clone(), &fx.cred)
            .expect("ingest");
        fx.oracle.insert(name, rows_to_batch(&schema, &rows));
    }
}

/// Random aggregates over a join of [`add_join_agg_tables`]' tables: `fa`
/// joined to `da` on a key from unique to heavily repeated, sometimes to
/// `db` too; COUNT/SUM/MIN/MAX/AVG over either side; with and without a
/// GROUP BY and a filter.
pub fn arb_join_aggregate() -> impl Strategy<Value = String> {
    let key = prop_oneof![Just("ku"), Just("km"), Just("kr"), Just("kn")];
    let aggregates = prop_oneof![
        Just("COUNT(*)"),
        Just("COUNT(*), SUM(fa.v)"),
        Just("SUM(fa.v), MIN(fa.v), MAX(fa.v)"),
        Just("COUNT(fa.v), SUM(fa.x)"),
        Just("MIN(fa.x), MAX(fa.x)"),
        Just("COUNT(*), AVG(fa.v)"),
        Just("MIN(da.name), COUNT(*)"),
    ];
    let group = prop_oneof![
        Just(""),
        Just("da.name"),
        Just("fa.g"),
        Just("da.name, fa.g"),
    ];
    let filter = maybe((0i64..100).boxed());
    let from = ((key, aggregates), group, 0usize..3, filter);
    from.prop_map(|((key, aggs), group, db, filter)| {
        let with_db = db == 0;
        let mut sql = String::from("SELECT ");
        if !group.is_empty() {
            sql.push_str(&format!("{group}, "));
        }
        sql.push_str(aggs);
        sql.push_str(if with_db {
            " FROM fa, da, db"
        } else {
            " FROM fa, da"
        });
        sql.push_str(&format!(" WHERE fa.{key} = da.k"));
        if with_db {
            sql.push_str(" AND fa.g = db.k");
        }
        if let Some(t) = filter {
            sql.push_str(&format!(" AND fa.v > {t}"));
        }
        if !group.is_empty() {
            sql.push_str(&format!(" GROUP BY {group}"));
        }
        sql
    })
}
