//! Property tests for the two transport-correctness fixes in this PR:
//!
//! 1. Any leaf-split + transport round-trip + two-level stem merge of
//!    `SUM`/`AVG`/`COUNT`/`MIN`/`MAX` must equal single-node execution
//!    exactly — including i64 sums near `i64::MAX`, which used to round
//!    on the wire when shipped as Float64.
//! 2. Zone-map block skipping is purely an optimization: any query must
//!    return exactly what the oracle executor (which has no blocks to
//!    skip) returns.

use feisu_core::engine::ClusterSpec;
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_format::{ColumnBuilder, DataType, Field, Schema, Value};
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::plan::AggExpr;
use feisu_tests::{assert_same_rows, check_against_oracle, fixture_with, Fixture};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------
// Part 1: AggTable split / transport / merge vs whole-batch execution.
// ---------------------------------------------------------------------

const GROUPS: [&str; 4] = ["beijing", "shanghai", "shenzhen", "tianjin"];

/// One input row: group key index, nullable i64 measure, f64 measure.
type Row = (usize, Option<i64>, f64);

/// i64 measures mix small values with values adjacent to the i64
/// boundaries: those are exactly what a Float64 transport column rounds
/// (anything past 2^53) and what wrapping-sum associativity must keep
/// stable across arbitrary splits.
fn arb_row() -> impl Strategy<Value = Row> {
    let v = prop_oneof![
        (-1000i64..1000).prop_map(Some),
        (0i64..16).prop_map(|d| Some(i64::MAX - d)),
        (0i64..16).prop_map(|d| Some(i64::MIN + d)),
        ((1i64 << 53) - 4..(1i64 << 53) + 4).prop_map(Some),
        Just(None),
    ];
    let w = (0i64..1_000_000).prop_map(|x| x as f64 / 100.0);
    (0usize..GROUPS.len(), v, w)
}

fn input_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Utf8, false),
        Field::new("v", DataType::Int64, true),
        Field::new("w", DataType::Float64, false),
    ])
}

fn rows_to_batch(rows: &[Row]) -> RecordBatch {
    let mut g = ColumnBuilder::new(DataType::Utf8);
    let mut v = ColumnBuilder::new(DataType::Int64);
    let mut w = ColumnBuilder::new(DataType::Float64);
    for (gi, vi, wi) in rows {
        g.push(Value::Utf8(GROUPS[*gi].to_string()));
        v.push(vi.map_or(Value::Null, Value::Int64));
        w.push(Value::Float64(*wi));
    }
    RecordBatch::new(input_schema(), vec![g.finish(), v.finish(), w.finish()]).unwrap()
}

fn group_by() -> Vec<(Expr, String, DataType)> {
    vec![(Expr::col("g"), "g".into(), DataType::Utf8)]
}

fn aggregates() -> Vec<AggExpr> {
    vec![
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "COUNT(*)".into(),
            output_type: DataType::Int64,
        },
        AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col("v")),
            name: "SUM(v)".into(),
            output_type: DataType::Int64,
        },
        AggExpr {
            func: AggFunc::Avg,
            arg: Some(Expr::col("w")),
            name: "AVG(w)".into(),
            output_type: DataType::Float64,
        },
        AggExpr {
            func: AggFunc::Min,
            arg: Some(Expr::col("v")),
            name: "MIN(v)".into(),
            output_type: DataType::Int64,
        },
        AggExpr {
            func: AggFunc::Max,
            arg: Some(Expr::col("v")),
            name: "MAX(v)".into(),
            output_type: DataType::Int64,
        },
    ]
}

fn output_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Utf8, true),
        Field::new("COUNT(*)", DataType::Int64, true),
        Field::new("SUM(v)", DataType::Int64, true),
        Field::new("AVG(w)", DataType::Float64, true),
        Field::new("MIN(v)", DataType::Int64, true),
        Field::new("MAX(v)", DataType::Int64, true),
    ])
}

/// Runs `rows` through the distributed shape: split across `nleaves`
/// leaf tables, each shipped as a transport batch, merged pairwise at
/// stems (transport again), then merged at the master.
fn distributed(rows: &[Row], nleaves: usize) -> RecordBatch {
    let shipped: Vec<RecordBatch> = (0..nleaves)
        .map(|leaf| {
            let slice: Vec<Row> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| i % nleaves == leaf)
                .map(|(_, r)| *r)
                .collect();
            let mut t = AggTable::new(group_by(), aggregates());
            t.update(&rows_to_batch(&slice)).unwrap();
            t.to_transport().unwrap()
        })
        .collect();
    let stems: Vec<RecordBatch> = shipped
        .chunks(2)
        .map(|pair| {
            let mut merged: Option<AggTable> = None;
            for b in pair {
                let t = AggTable::from_transport(group_by(), aggregates(), b).unwrap();
                match &mut merged {
                    None => merged = Some(t),
                    Some(m) => m.merge(&t).unwrap(),
                }
            }
            merged.unwrap().to_transport().unwrap()
        })
        .collect();
    let mut root: Option<AggTable> = None;
    for b in &stems {
        let t = AggTable::from_transport(group_by(), aggregates(), b).unwrap();
        match &mut root {
            None => root = Some(t),
            Some(m) => m.merge(&t).unwrap(),
        }
    }
    root.unwrap().finish(&output_schema()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn split_transport_merge_equals_single_node(
        rows in proptest::collection::vec(arb_row(), 1..160),
        nleaves in 1usize..8,
    ) {
        let mut whole = AggTable::new(group_by(), aggregates());
        whole.update(&rows_to_batch(&rows)).unwrap();
        let want = whole.finish(&output_schema()).unwrap();
        let got = distributed(&rows, nleaves);
        // Int64 sums must survive the wire bit-for-bit; spot-check that
        // directly before the row-bag compare (which tolerates float
        // formatting only on Float64 columns).
        prop_assert_eq!(
            got.column(2).clone(),
            want.column(2).clone(),
            "SUM(v) must round-trip exactly over {} leaves",
            nleaves
        );
        assert_same_rows(&got, &want, &format!("{} leaves", nleaves));
    }
}

// ---------------------------------------------------------------------
// Part 2: zone-map skipping never changes results.
// ---------------------------------------------------------------------

/// One cluster plus its oracle twin. Cluster construction dominates
/// runtime, so it is built once and shared.
static FX: OnceLock<Mutex<Fixture>> = OnceLock::new();

fn with_fixture<R>(f: impl FnOnce(&mut Fixture) -> R) -> R {
    let fx = FX.get_or_init(|| {
        Mutex::new(fixture_with(
            600,
            ClusterSpec::small(),
            "/hdfs/warehouse/clicks",
        ))
    });
    f(&mut fx.lock().unwrap())
}

/// Range-style predicates over the zone-mapped columns: these are the
/// shapes the footer zone maps can disprove, so skipping actually fires
/// on some blocks while others survive.
fn arb_zone_predicate() -> impl Strategy<Value = String> {
    let cmp = prop_oneof![Just(">"), Just(">="), Just("<"), Just("<="), Just("=")].boxed();
    prop_oneof![
        (cmp.clone(), -5i64..106).prop_map(|(op, v)| format!("clicks {op} {v}")),
        (cmp.clone(), -2i64..15).prop_map(|(op, d)| format!("day {op} {}", 20160101 + d)),
        (cmp, 0u32..10).prop_map(|(op, v)| format!("score {op} 0.{v}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn zone_skipping_is_result_transparent(
        pred in arb_zone_predicate(),
        shape in 0usize..3,
    ) {
        let sql = match shape {
            0 => format!("SELECT url, clicks, day FROM clicks WHERE {pred}"),
            1 => format!("SELECT COUNT(*), SUM(clicks) FROM clicks WHERE {pred}"),
            _ => format!(
                "SELECT keyword, COUNT(*), MIN(day), MAX(clicks) \
                 FROM clicks WHERE {pred} GROUP BY keyword"
            ),
        };
        with_fixture(|fx| check_against_oracle(fx, &sql));
    }
}
