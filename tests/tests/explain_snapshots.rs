//! Golden snapshots of `FeisuCluster::explain`: the rendered physical
//! plan, including the aggregation-pushdown annotation on the
//! distributed scan. Exact-string comparisons so any change to lowering
//! or rendering is a conscious one.

use feisu_format::{DataType, Field, Schema, Value};
use feisu_tests::{fixture, Fixture};

fn explain(fx: &Fixture, sql: &str) -> String {
    fx.cluster.explain(sql, &fx.cred).unwrap()
}

#[test]
fn plain_scan_with_pushed_filter() {
    let fx = fixture(100);
    assert_eq!(
        explain(&fx, "SELECT url FROM clicks WHERE clicks > 5"),
        "Project: [url AS url]\n\
         \x20 DistributedScan: clicks cols=[\"url\"] filter=(clicks > 5)\n\
         Rule: predicate_pushdown x1\n\
         Rule: projection_prune x1\n"
    );
}

#[test]
fn grouped_aggregate_is_pushed_to_leaves() {
    let fx = fixture(100);
    assert_eq!(
        explain(
            &fx,
            "SELECT keyword, COUNT(*) AS n, SUM(clicks) AS s FROM clicks \
             WHERE clicks > 10 GROUP BY keyword ORDER BY n DESC LIMIT 2",
        ),
        "Limit: 2\n\
         \x20 Project: [keyword AS keyword, COUNT(*) AS n, SUM(clicks) AS s]\n\
         \x20   Sort: [COUNT(*) DESC] fetch=Some(2)\n\
         \x20     FinalAggregate: group=[\"keyword\"] aggs=[\"COUNT(*)\", \"SUM(clicks)\"]\n\
         \x20       DistributedScan: clicks cols=[\"keyword\", \"clicks\"] filter=(clicks > 10) \
         [agg pushed: COUNT(*), SUM(clicks) group by keyword]\n\
         Rule: predicate_pushdown x1\n\
         Rule: projection_prune x1\n\
         Rule: limit_into_sort x1\n"
    );
}

#[test]
fn complex_filter_stays_on_scan_line() {
    let fx = fixture(100);
    assert_eq!(
        explain(
            &fx,
            "SELECT url, clicks FROM clicks \
             WHERE (clicks > 5 OR score < 0.5) AND keyword = 'map' \
             ORDER BY clicks DESC LIMIT 3",
        ),
        "Limit: 3\n\
         \x20 Project: [url AS url, clicks AS clicks]\n\
         \x20   Sort: [clicks DESC] fetch=Some(3)\n\
         \x20     DistributedScan: clicks cols=[\"url\", \"clicks\"] \
         filter=(((clicks > 5) OR (score < 0.5)) AND (keyword = 'map')) [top 3: clicks DESC]\n\
         Rule: predicate_pushdown x1\n\
         Rule: projection_prune x1\n\
         Rule: limit_into_sort x1\n"
    );
}

/// Creates `name(key, val)` (Utf8 key, Int64 value) from `rows`.
fn dims_table(fx: &Fixture, name: &str, key: &str, val: &str, rows: Vec<Vec<Value>>) {
    let schema = Schema::new(vec![
        Field::new(key, DataType::Utf8, false),
        Field::new(val, DataType::Int64, false),
    ]);
    let location = format!("/hdfs/warehouse/{name}");
    fx.cluster
        .create_table(name, schema, &location, &fx.cred)
        .unwrap();
    fx.cluster.ingest_rows(name, rows, &fx.cred).unwrap();
}

#[test]
fn aggregate_over_join_is_split_around_the_join() {
    let fx = fixture(100);
    dims_table(
        &fx,
        "dims",
        "url",
        "rank",
        vec![
            vec![Value::from("https://site0.example/p0"), Value::from(1i64)],
            vec![Value::from("https://site1.example/p1"), Value::from(2i64)],
        ],
    );
    // The 100 clicks rows hold 21 urls: the estimator prices shipping 21
    // partial counts below pricing 100 rows, so the count is split. The
    // leaves count per url, the join repeats each count once per match,
    // and the master sums them per rank.
    assert_eq!(
        explain(
            &fx,
            "SELECT rank, COUNT(*) AS n FROM clicks JOIN dims \
             ON clicks.url = dims.url GROUP BY rank",
        ),
        "Project: [dims.rank AS rank, COUNT(*) AS n]\n\
         \x20 HashAggregate: group=[\"dims.rank\"] aggs=[\"SUM(COUNT(*))\"]\n\
         \x20   HashJoin: Inner on [(clicks.url = dims.url)]\n\
         \x20     FinalAggregate: group=[\"clicks.url\"] aggs=[\"COUNT(*)\"]\n\
         \x20       DistributedScan: clicks cols=[\"url\"] [agg pushed: COUNT(*) group by clicks.url]\n\
         \x20     DistributedScan: dims cols=[\"url\", \"rank\"]\n\
         Rule: projection_prune x1\n\
         EagerAggregate: clicks by [clicks.url] est 21 groups of 100 rows\n"
    );
}

#[test]
fn aggregate_over_near_unique_join_keys_stays_on_master() {
    let fx = fixture(100);
    // 100 rows, 99 distinct ids: a partial sum per id would ship 99
    // groups, each a `seen` flag wider than a row, so nothing is split.
    let ids = |v: fn(i64) -> i64| {
        (0..100i64)
            .map(|i| vec![Value::from(format!("id{}", i % 99)), Value::from(v(i))])
            .collect()
    };
    dims_table(&fx, "events", "id", "v", ids(|i| i * 3));
    dims_table(&fx, "owners", "id", "team", ids(|i| i % 4));
    assert_eq!(
        explain(
            &fx,
            "SELECT team, SUM(v) AS s FROM events JOIN owners \
             ON events.id = owners.id GROUP BY team",
        ),
        "Project: [owners.team AS team, SUM(events.v) AS s]\n\
         \x20 HashAggregate: group=[\"owners.team\"] aggs=[\"SUM(events.v)\"]\n\
         \x20   HashJoin: Inner on [(events.id = owners.id)]\n\
         \x20     DistributedScan: events cols=[\"id\", \"v\"]\n\
         \x20     DistributedScan: owners cols=[\"id\", \"team\"]\n"
    );
}

#[test]
fn star_join_is_reordered_fact_first() {
    let fx = fixture(100);
    // Two dimensions and a large fact, listed dims-first so the
    // syntactic left-deep order starts with a d1 x d2 cross product
    // (100 x 100 = 10k rows). Ingest-time stats let the cost model put
    // the fact on the build side first and join each dimension through
    // its extracted equi-key instead.
    for dim in ["d1", "d2"] {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64, false)]);
        fx.cluster
            .create_table(dim, schema, &format!("/hdfs/warehouse/{dim}"), &fx.cred)
            .unwrap();
        fx.cluster
            .ingest_rows(
                dim,
                (0..100i64).map(|i| vec![Value::from(i)]).collect(),
                &fx.cred,
            )
            .unwrap();
    }
    let fact = Schema::new(vec![
        Field::new("k1", DataType::Int64, false),
        Field::new("k2", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ]);
    fx.cluster
        .create_table("f", fact, "/hdfs/warehouse/f", &fx.cred)
        .unwrap();
    fx.cluster
        .ingest_rows(
            "f",
            (0..2000i64)
                .map(|i| {
                    vec![
                        Value::from(i % 100),
                        Value::from((i / 7) % 100),
                        Value::from(i),
                    ]
                })
                .collect(),
            &fx.cred,
        )
        .unwrap();
    assert_eq!(
        explain(
            &fx,
            "SELECT SUM(f.v) AS s FROM d1, d2, f \
             WHERE f.k1 = d1.k AND f.k2 = d2.k",
        ),
        "Project: [SUM(f.v) AS s]\n\
         \x20 HashAggregate: group=[] aggs=[\"SUM(f.v)\"]\n\
         \x20   HashJoin: Inner on [(f.k2 = d2.k)]\n\
         \x20     HashJoin: Inner on [(f.k1 = d1.k)]\n\
         \x20       DistributedScan: d1 cols=[\"k\"]\n\
         \x20       DistributedScan: f cols=[\"k1\", \"k2\", \"v\"]\n\
         \x20     DistributedScan: d2 cols=[\"k\"]\n\
         Rule: predicate_pushdown x1\n\
         JoinOrder: dp [d1, d2, f] -> [d1, f, d2]\n"
    );
}
