//! Row-at-a-time `Vec<Value>` reference for group-by, hash join and sort —
//! what the operators were before the key layer — and the property tests
//! that hold the columnar operators to it over random batches.

use feisu_common::hash::FxHashMap;
use feisu_common::FeisuError;
use feisu_exec::aggregate::{
    finish_transport, partition_of, partition_of_hash, transport_hashes, AggTable, Routes,
};
use feisu_exec::batch::{BatchRow, RecordBatch};
use feisu_exec::join::join;
use feisu_exec::keys::{hash_rows, key_column};
use feisu_exec::sort::sort;
use feisu_format::{Column, DataType, Field, Schema, Value};
use feisu_sql::ast::{AggFunc, Expr, JoinKind};
use feisu_sql::eval::eval;
use feisu_sql::parser::parse_expr;
use feisu_sql::plan::AggExpr;
use proptest::prelude::*;
use std::cmp::Ordering;

type GroupBy = Vec<(Expr, String, DataType)>;

fn key_of(batch: &RecordBatch, exprs: &[Expr], row: usize) -> Vec<Value> {
    let row = BatchRow { batch, row };
    exprs.iter().map(|e| eval(e, &row).unwrap()).collect()
}

fn cmp_keys(a: &[Value], b: &[Value], desc: &[bool]) -> Ordering {
    (a.iter().zip(b).zip(desc))
        .map(|((x, y), d)| if *d { y.total_cmp(x) } else { x.total_cmp(y) })
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// GROUP BY: rows per key, one fold per aggregate, groups in key order.
fn ref_group_by(batch: &RecordBatch, group_by: &GroupBy, aggs: &[AggExpr]) -> Vec<Vec<Value>> {
    let exprs: Vec<Expr> = group_by.iter().map(|g| g.0.clone()).collect();
    let mut groups: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
    if exprs.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    for i in 0..batch.rows() {
        groups.entry(key_of(batch, &exprs, i)).or_default().push(i);
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_by(|a, b| cmp_keys(&a.0, &b.0, &vec![false; exprs.len()]));
    let fold = |a: &AggExpr, rows: &[usize]| -> Value {
        let Some(arg) = &a.arg else {
            return Value::Int64(rows.len() as i64);
        };
        let vals = rows
            .iter()
            .map(|&i| key_of(batch, std::slice::from_ref(arg), i).remove(0));
        let vals: Vec<Value> = vals.filter(|v| !v.is_null()).collect();
        let float = || vals.iter().fold(0.0, |s, v| s + v.as_f64().unwrap());
        match a.func {
            AggFunc::Count => Value::Int64(vals.len() as i64),
            _ if vals.is_empty() => Value::Null,
            AggFunc::Sum if a.output_type == DataType::Int64 => {
                Value::Int64((vals.iter()).fold(0i64, |s, v| s.wrapping_add(v.as_i64().unwrap())))
            }
            AggFunc::Sum => Value::Float64(float()),
            AggFunc::Avg => Value::Float64(float() / vals.len() as f64),
            AggFunc::Min => vals.iter().min_by(|a, b| a.total_cmp(b)).cloned().unwrap(),
            AggFunc::Max => vals.iter().max_by(|a, b| a.total_cmp(b)).cloned().unwrap(),
        }
    };
    (groups.into_iter())
        .map(|(mut key, rows)| {
            key.extend(aggs.iter().map(|a| fold(a, &rows)));
            key
        })
        .collect()
}

/// Equi-join as nested loops: probe order x build order, then the
/// null-extended unmatched rows of the outer side.
fn ref_join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[(Expr, Expr)],
) -> Vec<Vec<Value>> {
    let (lk, rk): (Vec<Expr>, Vec<Expr>) = on.iter().cloned().unzip();
    let key = |b: &RecordBatch, e: &[Expr], i| {
        Some(key_of(b, e, i)).filter(|k| !k.iter().any(Value::is_null))
    };
    let nulls = |b: &RecordBatch| vec![Value::Null; b.schema().len()];
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.rows()];
    let mut left_unmatched = Vec::new();
    for l in 0..left.rows() {
        let (before, lkey) = (out.len(), key(left, &lk, l));
        for (r, matched) in right_matched.iter_mut().enumerate() {
            if lkey.is_some() && lkey == key(right, &rk, r) {
                out.push([left.row(l), right.row(r)].concat());
                *matched = true;
            }
        }
        if out.len() == before {
            left_unmatched.push([left.row(l), nulls(right)].concat());
        }
    }
    match kind {
        JoinKind::LeftOuter => out.extend(left_unmatched),
        JoinKind::RightOuter => out.extend(
            (0..right.rows())
                .filter(|&r| !right_matched[r])
                .map(|r| [nulls(left), right.row(r)].concat()),
        ),
        _ => {}
    }
    out
}

/// Stable multi-key sort with DESC flags, then `fetch`.
fn ref_sort(batch: &RecordBatch, keys: &[(Expr, bool)], fetch: Option<u64>) -> Vec<Vec<Value>> {
    let (exprs, desc): (Vec<Expr>, Vec<bool>) = keys.iter().cloned().unzip();
    let mut rows: Vec<usize> = (0..batch.rows()).collect();
    rows.sort_by(|&a, &b| cmp_keys(&key_of(batch, &exprs, a), &key_of(batch, &exprs, b), &desc));
    rows.truncate(fetch.map_or(usize::MAX, |k| k as usize));
    rows.into_iter().map(|i| batch.row(i)).collect()
}

// ------------------------------------------------------------ generators

const FLOATS: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.5, -2.0, f64::INFINITY, 1e300];
const STRINGS: [&str; 5] = [
    "",
    "a",
    "ab",
    "b",
    "https://example.com/a/long/shared/prefix/1",
];

/// Up to `rows` rows of columns `{p}i` Int64, `{p}f` Float64, `{p}s` Utf8
/// and `{p}b` Bool, each with NULLs, from small pools so keys collide;
/// `{p}w`, a nullable Int64 key from a pool twice the rows: a batch of 200
/// rows has some 150 groups, past the first and second 64-bit word of
/// group state, and groups whose arguments are all NULL; and `{p}n` Int64,
/// `{p}x` Float64 and `{p}t` Utf8 from the same small pools without NULLs.
fn arb_batch(prefix: &'static str, rows: usize) -> impl Strategy<Value = RecordBatch> {
    type Draw = ((i64, usize, usize, (u8, i64)), (i64, usize, usize));
    let wide = 2 * rows as i64;
    let row = (
        (
            0..7i64,
            0..=FLOATS.len(),
            0..=STRINGS.len(),
            (0..3u8, 0..wide),
        ),
        (0..7i64, 0..FLOATS.len(), 0..STRINGS.len()),
    );
    proptest::collection::vec(row, 0..rows).prop_map(move |rows| {
        let pick = |f: &dyn Fn(&Draw) -> Value| rows.iter().map(f).collect();
        let cols: [(&str, DataType, Vec<Value>); 8] = [
            (
                "i",
                DataType::Int64,
                pick(&|(r, _)| match r.0 {
                    0 => Value::Null,
                    i => Value::Int64(i - 4),
                }),
            ),
            (
                "f",
                DataType::Float64,
                pick(&|(r, _)| FLOATS.get(r.1).map_or(Value::Null, |f| Value::Float64(*f))),
            ),
            (
                "s",
                DataType::Utf8,
                pick(&|(r, _)| STRINGS.get(r.2).map_or(Value::Null, |s| Value::from(*s))),
            ),
            (
                "b",
                DataType::Bool,
                pick(&|(r, _)| match r.3 .0 {
                    0 => Value::Null,
                    b => Value::Bool(b == 1),
                }),
            ),
            (
                "w",
                DataType::Int64,
                pick(&|(r, _)| match r.3 .1 {
                    0 => Value::Null,
                    w => Value::Int64(w),
                }),
            ),
            ("n", DataType::Int64, pick(&|(_, n)| Value::Int64(n.0 - 3))),
            (
                "x",
                DataType::Float64,
                pick(&|(_, n)| Value::Float64(FLOATS[n.1])),
            ),
            (
                "t",
                DataType::Utf8,
                pick(&|(_, n)| Value::from(STRINGS[n.2])),
            ),
        ];
        let fields = cols
            .iter()
            .map(|(n, dt, _)| Field::new(format!("{prefix}{n}"), *dt, true));
        let schema = Schema::new(fields.collect());
        let columns = cols
            .iter()
            .map(|(_, dt, v)| Column::from_values(*dt, v).unwrap());
        RecordBatch::new(schema, columns.collect()).unwrap()
    })
}

/// 1–3 keys over the four types, bare and computed; the wide key alone
/// and beside another; the NULL-free columns alone.
const KEY_SETS: [&[(&str, DataType)]; 14] = [
    &[("i", DataType::Int64)],
    &[("s", DataType::Utf8)],
    &[("f", DataType::Float64)],
    &[("b", DataType::Bool)],
    &[("i + 1", DataType::Int64)],
    &[("i", DataType::Int64), ("s", DataType::Utf8)],
    &[
        ("s", DataType::Utf8),
        ("f", DataType::Float64),
        ("b", DataType::Bool),
    ],
    &[("i + 1", DataType::Int64), ("b", DataType::Bool)],
    &[("f * 2", DataType::Float64), ("i", DataType::Int64)],
    &[("w", DataType::Int64)],
    &[("w", DataType::Int64), ("b", DataType::Bool)],
    &[("n", DataType::Int64)],
    &[("x", DataType::Float64)],
    &[("t", DataType::Utf8)],
];

fn aggregates() -> Vec<AggExpr> {
    let agg = |func, arg: Option<&str>, output_type| AggExpr {
        func,
        arg: arg.map(|a| parse_expr(a).unwrap()),
        name: format!("{func}({arg:?})"),
        output_type,
    };
    vec![
        agg(AggFunc::Count, None, DataType::Int64),
        agg(AggFunc::Count, Some("s"), DataType::Int64),
        agg(AggFunc::Sum, Some("i"), DataType::Int64),
        agg(AggFunc::Sum, Some("f"), DataType::Float64),
        agg(AggFunc::Sum, Some("i + 1"), DataType::Int64),
        agg(AggFunc::Avg, Some("i"), DataType::Float64),
        agg(AggFunc::Min, Some("s"), DataType::Utf8),
        agg(AggFunc::Max, Some("f"), DataType::Float64),
        agg(AggFunc::Min, Some("i"), DataType::Int64),
        agg(AggFunc::Max, Some("b"), DataType::Bool),
    ]
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    (0..batch.rows()).map(|i| batch.row(i)).collect()
}

/// The GROUP BY of key set `keys` (`KEY_SETS.len()`: the global
/// aggregate) over [`aggregates`], and its output schema.
fn aggregate_shape(keys: usize) -> (GroupBy, Vec<AggExpr>, Schema) {
    let group_by: GroupBy = (KEY_SETS.get(keys).copied().unwrap_or(&[]).iter())
        .map(|(src, dt)| (parse_expr(src).unwrap(), src.to_string(), *dt))
        .collect();
    let aggs = aggregates();
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|(_, n, dt)| Field::new(n.clone(), *dt, true))
        .collect();
    fields.extend(
        aggs.iter()
            .map(|a| Field::new(a.name.clone(), a.output_type, true)),
    );
    (group_by, aggs, Schema::new(fields))
}

/// GROUP BY the key set `keys` (`KEY_SETS.len()`: the global aggregate)
/// holds to the reference through `update`, and through the exchange: the
/// batch's transport folded one partition at a time, partitions unioned.
/// Every group is in one partition, so even the float sums are untouched.
/// Returns the rows both produced.
fn check_aggregate(batch: &RecordBatch, keys: usize) -> Result<Vec<Vec<Value>>, TestCaseError> {
    let (group_by, aggs, out) = aggregate_shape(keys);
    let want = ref_group_by(batch, &group_by, &aggs);

    let mut table = AggTable::new(group_by.clone(), aggs.clone());
    table.update(batch).unwrap();
    prop_assert_eq!(rows_of(&table.clone().finish(&out).unwrap()), want.clone());

    let shipped = table.to_transport().unwrap();
    let hashes = transport_hashes(&shipped, group_by.len());
    let mut union = AggTable::new(group_by.clone(), aggs.clone());
    let mut folded = 0;
    for part in 0..3 {
        let mut p = AggTable::new(group_by.clone(), aggs.clone());
        folded += p
            .merge_transport_hashed(&shipped, &hashes, part, 3)
            .unwrap();
        union.merge(&p).unwrap();
    }
    prop_assert_eq!(folded, shipped.rows());
    prop_assert_eq!(rows_of(&union.finish(&out).unwrap()), want.clone());
    Ok(want)
}

proptest! {
    #[test]
    fn aggregate_matches_reference(batch in arb_batch("", 200), keys in 0..=KEY_SETS.len()) {
        check_aggregate(&batch, keys)?;
    }

    /// The master's finish: `leaves` leaf tables over strided rows, every
    /// leaf's transport folded into 3 hash partitions (1 for a global
    /// aggregate, as the merge tree does), and the partitions'
    /// concatenation finished without a fold equals finishing the table
    /// that folded every leaf, and the re-fold the master ran before —
    /// floats compared by their bits.
    #[test]
    fn finishing_disjoint_partitions_equals_folding_the_leaves(
        batch in arb_batch("", 200),
        keys in 0..=KEY_SETS.len(),
        leaves in 1..4usize,
    ) {
        let (group_by, aggs, out) = aggregate_shape(keys);
        let table = || AggTable::new(group_by.clone(), aggs.clone());
        let shipped: Vec<RecordBatch> = (0..leaves)
            .map(|l| {
                let rows: Vec<usize> = (l..batch.rows()).step_by(leaves).collect();
                let mut leaf = table();
                leaf.update(&batch.take(&rows).unwrap()).unwrap();
                leaf.to_transport().unwrap()
            })
            .collect();
        let mut whole = table();
        for t in &shipped {
            whole.merge_transport(t).unwrap();
        }
        let parts = if group_by.is_empty() { 1 } else { 3 };
        let partitions: Vec<RecordBatch> = (0..parts)
            .map(|part| {
                let mut p = table();
                for t in &shipped {
                    let hashes = transport_hashes(t, group_by.len());
                    p.merge_transport_hashed(t, &hashes, part, parts).unwrap();
                }
                p.to_transport().unwrap()
            })
            .collect();
        let concat = RecordBatch::concat(&partitions).unwrap();
        let got = finish_transport(&group_by, &aggs, &concat, &out).unwrap();
        prop_assert_eq!(got.schema(), &out);
        if leaves == 1 {
            // One leaf sums in row order, from 0.0, as the reference does.
            prop_assert_eq!(rows_of(&got), ref_group_by(&batch, &group_by, &aggs));
        }
        prop_assert_eq!(rows_of(&got), rows_of(&whole.finish(&out).unwrap()));
        let refolded = AggTable::from_transport(group_by.clone(), aggs.clone(), &concat).unwrap();
        prop_assert_eq!(rows_of(&got), rows_of(&refolded.finish(&out).unwrap()));
    }

    #[test]
    fn join_matches_reference_in_order(
        left in arb_batch("l.", 48),
        right in arb_batch("r.", 48),
        keys in 0..KEY_SETS.len(),
        kind in prop_oneof![Just(JoinKind::Inner), Just(JoinKind::LeftOuter), Just(JoinKind::RightOuter)],
    ) {
        let side = |p: &str, src: &str| {
            let qualified = ["i", "f", "s", "b", "w", "n", "x", "t"].iter().fold(src.to_string(), |s, c| {
                s.replacen(c, &format!("{p}.{c}"), 1)
            });
            parse_expr(&qualified).unwrap()
        };
        let pairs: Vec<(Expr, Expr)> =
            KEY_SETS[keys].iter().map(|(src, _)| (side("l", src), side("r", src))).collect();
        let on: Vec<Expr> = (pairs.iter().cloned())
            .map(|(l, r)| Expr::binary(feisu_sql::ast::BinaryOp::Eq, l, r))
            .collect();
        let out = left.schema().join(right.schema());
        let got = join(&left, &right, kind, &on, &out).unwrap();
        prop_assert_eq!(rows_of(&got), ref_join(&left, &right, kind, &pairs));
    }

    #[test]
    fn sort_matches_reference_in_order(
        batch in arb_batch("", 48),
        keys in 0..KEY_SETS.len(),
        desc in 0..8u8,
        fetch in prop_oneof![Just(None), (0..60u64).prop_map(Some)],
    ) {
        let keys: Vec<(Expr, bool)> = (KEY_SETS[keys].iter().enumerate())
            .map(|(k, (src, _))| (parse_expr(src).unwrap(), desc >> k & 1 == 1))
            .collect();
        let got = sort(&batch, &keys, fetch).unwrap();
        prop_assert_eq!(rows_of(&got), ref_sort(&batch, &keys, fetch));
    }

    /// The columnar router sends every row where `partition_of` sends its
    /// key, for every partition count the exchange can run.
    #[test]
    fn columnar_router_matches_partition_of(batch in arb_batch("", 48), keys in 0..KEY_SETS.len()) {
        let exprs: Vec<Expr> = KEY_SETS[keys].iter().map(|k| parse_expr(k.0).unwrap()).collect();
        let cols: Vec<_> = exprs.iter().map(|e| key_column(&batch, e, None).unwrap()).collect();
        let cols: Vec<&Column> = cols.iter().map(|c| c.as_ref()).collect();
        let hashes = hash_rows(&cols, batch.rows());
        for (i, &h) in hashes.iter().enumerate() {
            for parts in 1..=16 {
                prop_assert_eq!(partition_of_hash(h, parts), partition_of(&key_of(&batch, &exprs, i), parts));
            }
        }
    }
}

/// The master's finish refuses what a fold refuses: a key twice — side by
/// side or apart, NULL keys included —, a NULL count, and a global
/// transport of two rows; a global transport of none finishes as the one
/// zero-state row.
#[test]
fn finishing_a_malformed_transport_is_corrupt() {
    let column = |dt, values: &[Value]| Column::from_values(dt, values).unwrap();
    let columns = vec![
        column(DataType::Int64, &[1, 2, 3].map(Value::Int64)),
        column(
            DataType::Float64,
            &[0.5, -0.0, f64::NAN].map(Value::Float64),
        ),
        column(
            DataType::Utf8,
            &[Value::from("a"), Value::from("b"), Value::Null],
        ),
        column(DataType::Bool, &[true, false, true].map(Value::Bool)),
    ];
    let fields = (["i", "f", "s", "b"].iter().zip(&columns))
        .map(|(name, c)| Field::new(*name, c.data_type(), true))
        .collect();
    let batch = RecordBatch::new(Schema::new(fields), columns).unwrap();
    let by_s = KEY_SETS.iter().position(|k| k == &[("s", DataType::Utf8)]);
    // The grouped transport's rows 0, 1 and 2 hold the keys "a", "b" and
    // NULL; the global one has its one row.
    let twice: [(usize, &[&[usize]]); 2] = [
        (by_s.unwrap(), &[&[0, 0, 1], &[0, 1, 0], &[2, 1, 2]]),
        (KEY_SETS.len(), &[&[0, 0]]),
    ];
    for (keys, twice) in twice {
        let (group_by, aggs, out) = aggregate_shape(keys);
        let mut table = AggTable::new(group_by.clone(), aggs.clone());
        table.update(&batch).unwrap();
        let shipped = table.to_transport().unwrap();
        let finish = |t: &RecordBatch| finish_transport(&group_by, &aggs, t, &out);
        let corrupt = |t: &RecordBatch| {
            let got = finish(t);
            assert!(matches!(got, Err(FeisuError::Corrupt(_))), "{got:?}");
        };
        let finished = finish(&shipped).unwrap();
        assert_eq!(rows_of(&finished), rows_of(&table.finish(&out).unwrap()));
        for rows in twice {
            corrupt(&shipped.take(rows).unwrap());
        }
        // COUNT(*)'s state, the first after the keys, with NULLs.
        let mut columns = shipped.columns().to_vec();
        columns[group_by.len()] = column(DataType::Int64, &vec![Value::Null; shipped.rows()]);
        corrupt(&RecordBatch::new(shipped.schema().clone(), columns).unwrap());
    }
    let (group_by, aggs, out) = aggregate_shape(KEY_SETS.len());
    let zero = AggTable::new(group_by.clone(), aggs.clone());
    let none = zero.to_transport().unwrap().take(&[]).unwrap();
    let finished = finish_transport(&group_by, &aggs, &none, &out).unwrap();
    assert_eq!(rows_of(&finished), rows_of(&zero.finish(&out).unwrap()));
    assert_eq!(finished.rows(), 1);
}

/// `Int64(1)` and `Float64(1.0)` are different keys: an Int64-vs-Float64
/// equi-join matches nothing (the planner never builds one; SQL's numeric
/// `=` would have matched).
#[test]
fn int_vs_float_join_keys_never_match() {
    let int = |name: &str| Schema::new(vec![Field::new(name, DataType::Int64, true)]);
    let left = RecordBatch::new(int("l.i"), vec![Column::from_i64(vec![1, 2])]).unwrap();
    let right = RecordBatch::new(
        Schema::new(vec![Field::new("r.f", DataType::Float64, true)]),
        vec![Column::from_f64(vec![1.0, 2.0])],
    )
    .unwrap();
    let on = [parse_expr("l.i = r.f").unwrap()];
    let out = left.schema().join(right.schema());
    let inner = join(&left, &right, JoinKind::Inner, &on, &out).unwrap();
    assert_eq!(inner.rows(), 0);
    let outer = join(&left, &right, JoinKind::LeftOuter, &on, &out).unwrap();
    assert_eq!(
        rows_of(&outer),
        vec![
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(2), Value::Null]
        ]
    );
}

/// 200 groups of two rows each, so the group state spans four words;
/// every third group sees only NULL arguments, and its SUM, AVG, MIN and
/// MAX are NULL through `update` and through the 3-way transport fold.
#[test]
fn groups_past_two_words_keep_their_all_null_groups_null() {
    let groups = 200;
    let nulls = |g: usize| g.is_multiple_of(3);
    let column = |dt, value: &dyn Fn(usize) -> Value| {
        let values: Vec<Value> = (0..2 * groups)
            .map(|r| match nulls(r % groups) {
                true => Value::Null,
                false => value(r),
            })
            .collect();
        Column::from_values(dt, &values).unwrap()
    };
    let fields = [
        ("i", DataType::Int64),
        ("f", DataType::Float64),
        ("s", DataType::Utf8),
        ("b", DataType::Bool),
        ("w", DataType::Int64),
    ];
    let columns = vec![
        column(DataType::Int64, &|r| Value::Int64(r as i64)),
        column(DataType::Float64, &|r| Value::Float64(r as f64 / 2.0)),
        column(DataType::Utf8, &|r| Value::from(STRINGS[r % STRINGS.len()])),
        column(DataType::Bool, &|r| Value::Bool(r % 2 == 0)),
        Column::from_i64((0..2 * groups).map(|r| (r % groups) as i64).collect()),
    ];
    let schema = Schema::new(fields.map(|(n, dt)| Field::new(n, dt, true)).to_vec());
    let batch = RecordBatch::new(schema, columns).unwrap();
    let wide = KEY_SETS.iter().position(|k| k == &[("w", DataType::Int64)]);
    let rows = check_aggregate(&batch, wide.unwrap()).unwrap();
    assert_eq!(rows.len(), groups);
    for (g, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int64(g as i64));
        // COUNT(*) and COUNT(s), then SUM(i), SUM(f), SUM(i + 1), AVG(i),
        // MIN(s), MAX(f), MIN(i), MAX(b).
        assert_eq!(row[1], Value::Int64(2));
        for (a, v) in row[3..].iter().enumerate() {
            assert_eq!(v.is_null(), nulls(g), "group {g}, aggregate {}", a + 2);
        }
    }
}

proptest! {
    /// The exchange router's mask sends every hash where `%` does, for
    /// every power of two a partition count can be.
    #[test]
    fn partition_mask_equals_modulo(hash in any::<u64>(), bits in 0..64u32) {
        let parts = 1usize << bits;
        prop_assert_eq!(partition_of_hash(hash, parts) as u64, hash % parts as u64);
    }

    /// A moved transport is the copied one, and folding it through its
    /// routes is folding it through its hashes, partition by partition:
    /// the same rows folded into the same table.
    #[test]
    fn moved_and_routed_transports_equal_copied_and_hashed(
        rows in proptest::collection::vec((0..12i64, -50..50i64), 0..40),
        parts in 1..6usize,
    ) {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Utf8, false),
            Field::new("v", DataType::Int64, true),
        ]);
        let keys = rows.iter().map(|r| format!("k{}", r.0)).collect();
        let values = rows.iter().map(|r| r.1).collect();
        let batch = RecordBatch::new(schema, vec![Column::from_utf8(keys), Column::from_i64(values)]);
        let group_by: GroupBy = vec![(Expr::col("g"), "g".into(), DataType::Utf8)];
        let agg = |func, name: &str| AggExpr {
            func,
            arg: Some(Expr::col("v")),
            name: name.into(),
            output_type: DataType::Int64,
        };
        let aggs = vec![agg(AggFunc::Sum, "SUM(v)"), agg(AggFunc::Min, "MIN(v)")];
        let table = || AggTable::new(group_by.clone(), aggs.clone());
        let mut filled = table();
        filled.update(&batch.unwrap()).unwrap();
        let copied = filled.to_transport().unwrap();
        let moved = filled.into_transport().unwrap();
        prop_assert_eq!(&moved, &copied);
        let routes = Routes::new(&moved, 1, parts);
        let hashes = transport_hashes(&moved, 1);
        for part in 0..parts {
            let (mut routed, mut hashed) = (table(), table());
            let a = routed.merge_transport_routed(&moved, &routes, part).unwrap();
            let b = hashed.merge_transport_hashed(&moved, &hashes, part, parts).unwrap();
            prop_assert_eq!(a, b);
            prop_assert_eq!(routed.into_transport().unwrap(), hashed.to_transport().unwrap());
        }
    }
}
