//! The in-place rule pipeline against the driver it replaced.
//!
//! A rule now says whether it changed the plan instead of the driver
//! finding out by copying the plan and comparing. The copy-and-compare
//! driver stays here as the reference: over random SQL (the shapes of the
//! e2e generators in `tests/tests/{physical_pipeline_prop,
//! optimizer_pipeline}.rs`, plus what reaches the rules those leave out:
//! constant conjuncts, HAVING, outer and comma joins, LIMIT 0) and over
//! the benchmark's 2,000-statement production trace on 128-field schemas,
//! every single rule application must return exactly `after != before`,
//! and the plan and trace `optimize_with_trace` returns must be the
//! reference's.

use feisu_format::{DataType, Field, Schema};
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::{optimize_with_trace, RuleFire, RULES};
use feisu_sql::parser::parse_query;
use feisu_sql::plan::{build_plan, LogicalPlan};
use feisu_workload::datasets::DatasetSpec;
use feisu_workload::trace::{generate_trace, TraceSpec};
use proptest::prelude::*;
use std::collections::HashMap;

/// `optimizer::pipeline::MAX_PASSES`.
const MAX_PASSES: usize = 10;

/// The clicks table of the e2e fixtures, the four two-column join tables
/// of `optimizer_pipeline.rs`, and the benchmark's four 128-field tables.
fn catalog() -> HashMap<String, Schema> {
    let mut tables = HashMap::new();
    tables.insert(
        "clicks".to_string(),
        Schema::new(vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("keyword", DataType::Utf8, false),
            Field::new("clicks", DataType::Int64, true),
            Field::new("score", DataType::Float64, false),
            Field::new("day", DataType::Int64, false),
        ]),
    );
    for (name, value) in [("a", "v"), ("b", "w"), ("c", "x"), ("e", "y")] {
        tables.insert(
            name.to_string(),
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new(value, DataType::Int64, false),
            ]),
        );
    }
    let wide = DatasetSpec {
        fields: 128,
        ..DatasetSpec::t1(0)
    };
    for name in ["t1", "t2", "t3", "t4"] {
        tables.insert(name.to_string(), wide.schema());
    }
    tables
}

fn plan_of(sql: &str, catalog: &HashMap<String, Schema>) -> LogicalPlan {
    let query = parse_query(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
    let resolved = analyze(&query, catalog).unwrap_or_else(|e| panic!("analyze `{sql}`: {e}"));
    build_plan(&resolved).unwrap_or_else(|e| panic!("plan `{sql}`: {e}"))
}

/// The driver as it was before rules reported their own changes: copy the
/// plan, apply the rule, compare. Also holds every application's flag to
/// that comparison.
fn reference(mut plan: LogicalPlan, sql: &str) -> (LogicalPlan, Vec<RuleFire>) {
    let mut trace: Vec<RuleFire> = RULES
        .iter()
        .map(|&(rule, _)| RuleFire { rule, fires: 0 })
        .collect();
    for pass in 0..MAX_PASSES {
        let mut changed = false;
        for (fire, (name, rule)) in trace.iter_mut().zip(RULES) {
            let before = plan.clone();
            let flag = rule(&mut plan).unwrap();
            let differs = plan != before;
            assert_eq!(
                flag, differs,
                "`{name}` (pass {pass}) reported {flag}, the plan says {differs}: `{sql}`\n\
                 before:\n{before:#?}\nafter:\n{plan:#?}"
            );
            if differs {
                fire.fires += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    trace.retain(|f| f.fires > 0);
    (plan, trace)
}

fn check(sql: &str, catalog: &HashMap<String, Schema>) {
    let plan = plan_of(sql, catalog);
    let (want_plan, want_trace) = reference(plan.clone(), sql);
    let (plan, trace) = optimize_with_trace(plan).unwrap();
    assert_eq!(plan, want_plan, "`{sql}`");
    assert_eq!(trace, want_trace, "`{sql}`");
}

// ---------------------------------------------------------- generators

/// Predicates over `cols` (Int64 columns or calls): the disjunct shapes of
/// `physical_pipeline_prop.rs::arb_predicate` plus constant conjuncts,
/// arithmetic to fold and identities to simplify.
fn arb_predicate(cols: &'static [&'static str]) -> impl Strategy<Value = String> {
    let cmp = prop_oneof![
        Just(">"),
        Just(">="),
        Just("<"),
        Just("<="),
        Just("="),
        Just("!=")
    ]
    .boxed();
    let col = (0..cols.len()).prop_map(move |i| cols[i]).boxed();
    let leaf = prop_oneof![
        (col.clone(), cmp.clone(), 0i64..100).prop_map(|(c, op, v)| format!("{c} {op} {v}")),
        (col.clone(), cmp.clone(), 0i64..50).prop_map(|(c, op, v)| format!("{c} {op} {v} + 2 * 3")),
        (col.clone(), cmp, 0i64..100).prop_map(|(c, op, v)| format!("{c} + 0 {op} {v}")),
        col.clone().prop_map(|c| format!("{c} IS NULL")),
        col.prop_map(|c| format!("{c} IS NOT NULL")),
        Just("1 = 1".to_string()),
        Just("1 + 1 = 3".to_string()),
        Just("TRUE".to_string()),
        Just("FALSE".to_string()),
        Just("1 / 0 > 1".to_string()),
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
fn maybe<V: 'static>(s: BoxedStrategy<V>) -> impl Strategy<Value = Option<V>> {
    prop_oneof![Just(()).prop_map(|_| None), s.prop_map(Some)]
}

fn clause(keyword: &str, body: Option<String>) -> String {
    body.map_or(String::new(), |b| format!(" {keyword} {b}"))
}

/// Single-table statements over `clicks`: the select lists and shapes of
/// `physical_pipeline_prop.rs::arb_query`, plus HAVING (a filter that
/// cannot sink and comes back in CNF), ORDER BY under LIMIT on a plain
/// scan, and LIMIT 0.
fn arb_single_table() -> impl Strategy<Value = String> {
    let projection = prop_oneof![
        Just("url"),
        Just("url, clicks"),
        Just("keyword, score, day"),
        Just("clicks * 2 AS doubled, url"),
        Just("clicks + (1 + 2) AS shifted"),
    ];
    let aggregates = prop_oneof![
        Just("COUNT(*) AS n"),
        Just("COUNT(*) AS n, COUNT(clicks)"),
        Just("COUNT(*) AS n, SUM(clicks), MIN(clicks), MAX(clicks)"),
        Just("COUNT(*) AS n, AVG(score)"),
    ]
    .boxed();
    let where_clause = || maybe(arb_predicate(&["clicks", "day"]).boxed());
    let limit = || maybe((0u64..5).boxed());
    let order = prop_oneof![Just("clicks DESC"), Just("day, url")];
    prop_oneof![
        (projection, where_clause(), maybe(order.boxed()), limit()).prop_map(
            |(p, w, o, l)| format!(
                "SELECT {p} FROM clicks{}{}{}",
                clause("WHERE", w),
                clause("ORDER BY", o.map(String::from)),
                clause("LIMIT", l.map(|n| n.to_string()))
            )
        ),
        (aggregates.clone(), where_clause())
            .prop_map(|(a, w)| format!("SELECT {a} FROM clicks{}", clause("WHERE", w))),
        (
            (aggregates, prop_oneof![Just("keyword"), Just("day")]),
            where_clause(),
            maybe(arb_predicate(&["COUNT(*)"]).boxed()),
            limit()
        )
            .prop_map(|((a, g), w, h, l)| format!(
                "SELECT {g}, {a} FROM clicks{} GROUP BY {g}{}{}",
                clause("WHERE", w),
                clause("HAVING", h),
                clause("ORDER BY", l.map(|n| format!("{g} LIMIT {n}")))
            )),
    ]
}

/// Two- to four-table statements over the join tables: the star of
/// `optimizer_pipeline.rs::star_sql` with the first join's kind varied,
/// and comma joins whose keys are WHERE equalities; either way under a
/// WHERE over both sides' columns, so conjuncts sink into scans, park on
/// a join side, become keys, or stay above an outer join.
fn arb_join() -> impl Strategy<Value = String> {
    let select = prop_oneof![
        Just(("a.v AS v, b.w AS w", "")),
        Just(("a.k AS k, COUNT(*) AS n, SUM(b.w) AS s", " GROUP BY a.k")),
    ];
    let kind = prop_oneof![Just("JOIN"), Just("LEFT JOIN"), Just("RIGHT JOIN")];
    let from = prop_oneof![
        (kind, 2usize..5).prop_map(|(kind, tables)| {
            let mut from = format!("a {kind} b ON a.k = b.k");
            if tables >= 3 {
                from.push_str(" JOIN c ON a.k = c.k");
            }
            if tables >= 4 {
                from.push_str(" JOIN e ON a.k = e.k");
            }
            (from, None)
        }),
        Just(("a, b".to_string(), Some("a.k = b.k"))),
        Just((
            "a, b, c".to_string(),
            Some("a.k = b.k AND b.k = c.k AND a.v > c.x")
        )),
    ];
    let filter = maybe(arb_predicate(&["a.v", "b.w", "a.k"]).boxed());
    (select, from, filter).prop_map(|((select, tail), (from, keys), filter)| {
        let conjuncts: Vec<String> = keys.map(String::from).into_iter().chain(filter).collect();
        let filter = (!conjuncts.is_empty()).then(|| conjuncts.join(" AND "));
        format!(
            "SELECT {select} FROM {from}{}{tail}",
            clause("WHERE", filter)
        )
    })
}

proptest! {
    #[test]
    fn single_table_statements_match_the_reference(sql in arb_single_table()) {
        check(&sql, &catalog());
    }

    #[test]
    fn join_statements_match_the_reference(sql in arb_join()) {
        check(&sql, &catalog());
    }
}

/// `trace_replay`'s statements (`benchmark/src/workloads/trace.rs`: the
/// fixed trace seed, four tables, 128 fields each).
#[test]
fn the_production_trace_matches_the_reference() {
    let catalog = catalog();
    let trace = generate_trace(&TraceSpec {
        queries: 2_000,
        similarity: 0.65,
        locality_theta: 0.9,
        column_pool: 40,
        tables: ["t1", "t2", "t3", "t4"].map(String::from).to_vec(),
        seed: 0xACE,
        ..TraceSpec::default()
    });
    assert_eq!(trace.len(), 2_000);
    for statement in &trace {
        check(&statement.sql, &catalog);
    }
}

/// A filter none of whose conjuncts sinks still changes the first time:
/// it comes back as the CNF of what it was, and stays that.
#[test]
fn an_unsunk_filter_that_comes_back_in_cnf_counts_as_one_change() {
    let catalog = catalog();
    // `b` is the null-supplying side of the LEFT JOIN: nothing may sink.
    let sql = "SELECT a.v FROM a LEFT JOIN b ON a.k = b.k WHERE NOT (b.w > 9 OR b.w < 1)";
    let mut plan = plan_of(sql, &catalog);
    let (_, pushdown) = RULES[3];
    assert_eq!(RULES[3].0, "predicate_pushdown");
    let before = plan.clone();
    assert!(pushdown(&mut plan).unwrap());
    assert_ne!(plan, before);
    assert!(
        plan.display_indent()
            .contains("Filter: ((b.w <= 9) AND (b.w >= 1))"),
        "{}",
        plan.display_indent()
    );
    let normalized = plan.clone();
    assert!(!pushdown(&mut plan).unwrap());
    assert_eq!(plan, normalized);
    check(sql, &catalog);
}
