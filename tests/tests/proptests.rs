//! Property-based tests over the core data structures and invariants.

use feisu_common::{BlockId, SimInstant};
use feisu_format::encoding::{bitpack, delta, dict, rle, varint, zigzag};
use feisu_format::json::{self, Json};
use feisu_format::{compress, BitVec, Block, Column, DataType, Field, Schema, Value};
use feisu_index::bitvec::CompressedBits;
use feisu_index::smart::{scan_evaluate, SmartIndex};
use feisu_sql::ast::BinaryOp;
use feisu_sql::cnf::{to_cnf, SimplePredicate};
use feisu_sql::eval::{compare, eval_truth, Truth};
use feisu_sql::parser::parse_expr;
use proptest::prelude::*;

// ---------------------------------------------------------- encodings

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::encode(v, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(varint::decode(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(zigzag::decode(zigzag::encode(v)), v);
    }

    #[test]
    fn delta_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..300)) {
        let mut buf = Vec::new();
        delta::encode(&values, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(delta::decode(&buf, &mut pos).unwrap(), values);
    }

    #[test]
    fn rle_roundtrip(values in proptest::collection::vec(-5i64..5, 0..300)) {
        let mut buf = Vec::new();
        rle::encode(&values, rle::run_count(&values), &mut buf);
        let mut pos = 0;
        prop_assert_eq!(rle::decode(&buf, &mut pos, values.len()).unwrap(), values);
    }

    #[test]
    fn bitpack_roundtrip(width in 1u32..=64, values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let masked: Vec<u64> = values
            .iter()
            .map(|v| if width == 64 { *v } else { v & ((1u64 << width) - 1) })
            .collect();
        let mut buf = Vec::new();
        bitpack::encode(&masked, width, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(bitpack::decode(&buf, &mut pos).unwrap(), masked);
    }

    #[test]
    fn dict_roundtrip(values in proptest::collection::vec("[a-z]{0,8}", 0..200)) {
        let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
        let mut buf = Vec::new();
        dict::encode(&refs, &mut buf);
        let mut pos = 0;
        let decoded = dict::view(&buf, &mut pos).unwrap().strings(None).unwrap();
        prop_assert_eq!(decoded.iter().collect::<Vec<_>>(), refs);
    }

    #[test]
    fn lz_compression_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let c = compress::compress(compress::Codec::Lz, &data);
        prop_assert_eq!(compress::decompress(&c).unwrap(), data.clone());
        let a = compress::compress_adaptive(&data);
        prop_assert_eq!(compress::decompress(&a).unwrap(), data);
    }
}

// --------------------------------------------------------------- block

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn block_serialization_roundtrip(
        rows in 0usize..200,
        ints in any::<u64>(),
    ) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Utf8, false),
            Field::new("c", DataType::Float64, false),
            Field::new("d", DataType::Bool, false),
        ]);
        // Deterministic pseudo-random per case.
        let mut rng = feisu_common::rng::DetRng::new(ints);
        let a = Column::from_values(
            DataType::Int64,
            &(0..rows)
                .map(|_| if rng.chance(0.1) { Value::Null } else { Value::Int64(rng.range_i64(-50, 50)) })
                .collect::<Vec<_>>(),
        ).unwrap();
        let b = Column::from_utf8((0..rows).map(|_| format!("s{}", rng.next_below(10))).collect());
        let c = Column::from_f64((0..rows).map(|_| rng.next_f64()).collect());
        let d = Column::from_bool((0..rows).map(|_| rng.chance(0.5)).collect());
        let block = Block::new(BlockId(1), schema, vec![a, b, c, d]).unwrap();
        let back = Block::deserialize(&block.serialize()).unwrap();
        prop_assert_eq!(back, block);
    }

    /// Late materialization correctness: decoding any subset of columns
    /// through the offset directory is exactly full-decode-then-project.
    #[test]
    fn block_subset_decode_equals_full_then_project(
        rows in 0usize..200,
        ints in any::<u64>(),
        mask in 0u8..16,
    ) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Utf8, false),
            Field::new("c", DataType::Float64, false),
            Field::new("d", DataType::Bool, false),
        ]);
        let mut rng = feisu_common::rng::DetRng::new(ints);
        let a = Column::from_values(
            DataType::Int64,
            &(0..rows)
                .map(|_| if rng.chance(0.1) { Value::Null } else { Value::Int64(rng.range_i64(-50, 50)) })
                .collect::<Vec<_>>(),
        ).unwrap();
        let b = Column::from_utf8((0..rows).map(|_| format!("s{}", rng.next_below(10))).collect());
        let c = Column::from_f64((0..rows).map(|_| rng.next_f64()).collect());
        let d = Column::from_bool((0..rows).map(|_| rng.chance(0.5)).collect());
        let block = Block::new(BlockId(1), schema, vec![a, b, c, d]).unwrap();
        let bytes = block.serialize();

        let names: Vec<&str> = block
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| f.name.as_str())
            .collect();
        let subset = Block::deserialize_columns(&bytes, &names).unwrap();
        prop_assert_eq!(subset.rows(), block.rows());
        prop_assert_eq!(subset.id(), block.id());
        prop_assert_eq!(subset.schema().len(), names.len());

        let full = Block::deserialize(&bytes).unwrap();
        for name in names {
            prop_assert_eq!(
                subset.column_by_name(name).unwrap(),
                full.column_by_name(name).unwrap(),
                "column {} differs from full decode", name
            );
        }
    }
}

// ------------------------------------------------------ compressed bits

proptest! {
    #[test]
    fn compressed_bits_lossless(bits in proptest::collection::vec(any::<bool>(), 0..500)) {
        let v = BitVec::from_bools(bits.into_iter());
        let c = CompressedBits::from_bitvec(&v);
        prop_assert_eq!(c.to_bitvec(), v.clone());
        prop_assert_eq!(c.count_ones(), v.count_ones());
        prop_assert_eq!(c.len(), v.len());
    }
}

// ------------------------------------------------------ CNF equivalence

/// Random boolean expressions over integer columns a, b.
fn arb_bool_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![(
        prop_oneof![Just("a"), Just("b")],
        prop_oneof![
            Just(">"),
            Just(">="),
            Just("<"),
            Just("<="),
            Just("="),
            Just("!=")
        ],
        -3i64..4
    )
        .prop_map(|(c, op, v)| format!("{c} {op} {v}")),];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} AND {r})")),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} OR {r})")),
            inner.prop_map(|e| format!("(NOT {e})")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn cnf_preserves_three_valued_semantics(src in arb_bool_expr()) {
        let expr = parse_expr(&src).unwrap();
        let cnf_expr = to_cnf(&expr).to_expr().unwrap();
        let candidates = [Value::Null, Value::Int64(-2), Value::Int64(0), Value::Int64(3)];
        for a in &candidates {
            for b in &candidates {
                let row = |name: &str| -> Option<Value> {
                    match name {
                        "a" => Some(a.clone()),
                        "b" => Some(b.clone()),
                        _ => None,
                    }
                };
                let orig = eval_truth(&expr, &row).unwrap();
                let cnf = eval_truth(&cnf_expr, &row).unwrap();
                prop_assert_eq!(orig, cnf, "{} with a={}, b={}", src, a, b);
            }
        }
    }
}

// -------------------------------------------- SmartIndex vs row oracle

fn arb_predicate() -> impl Strategy<Value = SimplePredicate> {
    (
        prop_oneof![
            Just(BinaryOp::Eq),
            Just(BinaryOp::NotEq),
            Just(BinaryOp::Lt),
            Just(BinaryOp::LtEq),
            Just(BinaryOp::Gt),
            Just(BinaryOp::GtEq),
        ],
        -30i64..30,
    )
        .prop_map(|(op, v)| SimplePredicate {
            column: "x".into(),
            op,
            value: Value::Int64(v),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn smartindex_equals_row_oracle(
        seed in any::<u64>(),
        rows in 1usize..300,
        pred in arb_predicate(),
    ) {
        let mut rng = feisu_common::rng::DetRng::new(seed);
        let values: Vec<Value> = (0..rows)
            .map(|_| if rng.chance(0.1) { Value::Null } else { Value::Int64(rng.range_i64(-25, 25)) })
            .collect();
        let col = Column::from_values(DataType::Int64, &values).unwrap();
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, true)]);
        let block = Block::new(BlockId(0), schema, vec![col.clone()]).unwrap();

        // `SmartIndex::build` and `scan_evaluate` run the same kernel; the
        // oracle is the interpreter's `compare`, one cell at a time.
        let row_oracle = |pred: &SimplePredicate| {
            BitVec::from_bools((0..rows).map(|i| {
                compare(pred.op, &col.value(i), &pred.value).unwrap() == Truth::True
            }))
        };
        let idx = SmartIndex::build(&block, &pred, SimInstant(0)).unwrap();
        prop_assert_eq!(idx.bits(), row_oracle(&pred));
        prop_assert_eq!(scan_evaluate(&col, &pred).unwrap(), row_oracle(&pred));

        // Negation property: NOT p under 3VL = rows where p is false and
        // the value is non-null.
        if let Some(nop) = pred.op.negate() {
            let npred = SimplePredicate { column: "x".into(), op: nop, value: pred.value.clone() };
            prop_assert_eq!(idx.negated_bits(), row_oracle(&npred));
        }
    }
}

// ------------------------------------------------------------- json

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1000i32..1000).prop_map(|v| Json::Number(v as f64)),
        "[a-zA-Z0-9 ]{0,10}".prop_map(Json::String),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                // Deduplicate keys (objects keep insertion order).
                let mut seen = std::collections::HashSet::new();
                Json::Object(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Number(n) => {
            if n.fract() == 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::String(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Json::Array(items) => format!(
            "[{}]",
            items.iter().map(render_json).collect::<Vec<_>>().join(",")
        ),
        Json::Object(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", render_json(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn json_parse_roundtrip(doc in arb_json()) {
        let text = render_json(&doc);
        let parsed = json::parse(&text).unwrap();
        prop_assert_eq!(parsed, doc);
    }
}

// ------------------------------------------------- sort / aggregation

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn topn_sort_matches_full_sort(
        values in proptest::collection::vec(any::<i64>(), 0..300),
        k in 0u64..50,
    ) {
        use feisu_exec::batch::RecordBatch;
        use feisu_exec::sort::sort;
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let b = RecordBatch::new(schema, vec![Column::from_i64(values)]).unwrap();
        let keys = vec![(feisu_sql::ast::Expr::col("x"), false)];
        let full = sort(&b, &keys, None).unwrap();
        let top = sort(&b, &keys, Some(k)).unwrap();
        prop_assert_eq!(top.rows(), (k as usize).min(b.rows()));
        for i in 0..top.rows() {
            prop_assert_eq!(top.row(i), full.row(i));
        }
    }

    #[test]
    fn aggregate_merge_invariant(
        values in proptest::collection::vec((0i64..5, -100i64..100), 1..200),
        split in 0usize..200,
    ) {
        use feisu_exec::aggregate::AggTable;
        use feisu_exec::batch::RecordBatch;
        use feisu_sql::ast::{AggFunc, Expr};
        use feisu_sql::plan::AggExpr;
        let split = split.min(values.len());
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int64, false),
            Field::new("v", DataType::Int64, false),
        ]);
        let to_batch = |rows: &[(i64, i64)]| {
            RecordBatch::new(
                schema.clone(),
                vec![
                    Column::from_i64(rows.iter().map(|r| r.0).collect()),
                    Column::from_i64(rows.iter().map(|r| r.1).collect()),
                ],
            )
            .unwrap()
        };
        let group_by = vec![(Expr::col("g"), "g".to_string(), DataType::Int64)];
        let aggs = vec![
            AggExpr { func: AggFunc::Count, arg: None, name: "n".into(), output_type: DataType::Int64 },
            AggExpr { func: AggFunc::Sum, arg: Some(Expr::col("v")), name: "s".into(), output_type: DataType::Int64 },
            AggExpr { func: AggFunc::Min, arg: Some(Expr::col("v")), name: "lo".into(), output_type: DataType::Int64 },
            AggExpr { func: AggFunc::Max, arg: Some(Expr::col("v")), name: "hi".into(), output_type: DataType::Int64 },
        ];
        let out_schema = Schema::new(vec![
            Field::new("g", DataType::Int64, true),
            Field::new("n", DataType::Int64, true),
            Field::new("s", DataType::Int64, true),
            Field::new("lo", DataType::Int64, true),
            Field::new("hi", DataType::Int64, true),
        ]);

        let mut whole = AggTable::new(group_by.clone(), aggs.clone());
        whole.update(&to_batch(&values)).unwrap();

        let mut left = AggTable::new(group_by.clone(), aggs.clone());
        left.update(&to_batch(&values[..split])).unwrap();
        let mut right = AggTable::new(group_by.clone(), aggs.clone());
        right.update(&to_batch(&values[split..])).unwrap();
        // Merge via the transport representation, as the cluster does.
        let mut merged = AggTable::from_transport(
            group_by.clone(), aggs.clone(), &left.to_transport().unwrap()).unwrap();
        let right2 = AggTable::from_transport(
            group_by, aggs, &right.to_transport().unwrap()).unwrap();
        merged.merge(&right2).unwrap();

        prop_assert_eq!(
            merged.finish(&out_schema).unwrap(),
            whole.finish(&out_schema).unwrap()
        );
    }
}

// ------------------------------------------------ parser round-trip

/// Random expressions rendered by `Display` must re-parse to the same
/// tree (Display emits fully parenthesized forms).
fn arb_display_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        "[a-z][a-z0-9_]{0,6}".prop_map(|c| c),
        (-100i64..100).prop_map(|v| v.to_string()),
        Just("'text'".to_string()),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), Just("+"), inner.clone())
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            (inner.clone(), Just(">"), inner.clone())
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            (inner.clone(), Just("AND"), inner.clone())
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            inner.prop_map(|e| format!("(NOT {e})")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn expr_display_reparses_identically(src in arb_display_expr()) {
        // Some generated identifiers may collide with keywords; skip those.
        let Ok(parsed) = parse_expr(&src) else { return Ok(()); };
        let rendered = parsed.to_string();
        let reparsed = parse_expr(&rendered).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    #[test]
    fn utf8_columns_roundtrip_through_blocks(
        strings in proptest::collection::vec("\\PC{0,12}", 1..100)
    ) {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        let col = Column::from_utf8(strings);
        let block = Block::new(BlockId(9), schema, vec![col]).unwrap();
        let back = Block::deserialize(&block.serialize()).unwrap();
        prop_assert_eq!(back, block);
    }
}

// ------------------------------------------- corruption robustness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Decoders must *reject* corrupt bytes with an error — never panic,
    /// never loop. (Byte flips that keep the payload valid may legally
    /// decode to different data; decode success just must not crash.)
    #[test]
    fn block_deserialize_never_panics_on_corruption(
        flip_at in 0usize..4096,
        flip_bits in 1u8..=255,
        truncate_to in 0usize..4096,
    ) {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Utf8, false),
        ]);
        let a = Column::from_values(
            DataType::Int64,
            &(0..100)
                .map(|i| if i % 9 == 0 { Value::Null } else { Value::Int64(i) })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let b = Column::from_utf8((0..100).map(|i| format!("s{i}")).collect());
        let block = Block::new(BlockId(1), schema, vec![a, b]).unwrap();
        let mut bytes = block.serialize();
        // Bit flip somewhere in range.
        let i = flip_at % bytes.len();
        bytes[i] ^= flip_bits;
        let _ = Block::deserialize(&bytes); // must not panic
        // Truncation.
        bytes.truncate(truncate_to % (bytes.len() + 1));
        let _ = Block::deserialize(&bytes); // must not panic
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let _ = feisu_format::compress::decompress(&data);
    }

    #[test]
    fn json_parser_never_panics_on_garbage(input in "\\PC{0,200}") {
        let _ = json::parse(&input);
    }
}

// --------------------------------------------- cost model invariants

proptest! {
    #[test]
    fn cost_model_is_monotone_in_bytes(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        use feisu_cluster::{CostModel, StorageMedium};
        let m = CostModel::default();
        let (lo, hi) = (a.min(b), a.max(b));
        for medium in [StorageMedium::Hdd, StorageMedium::Ssd, StorageMedium::Memory] {
            prop_assert!(
                m.read(medium, feisu_common::ByteSize(lo))
                    <= m.read(medium, feisu_common::ByteSize(hi))
            );
        }
        prop_assert!(
            m.network(2, feisu_common::ByteSize(lo)) <= m.network(2, feisu_common::ByteSize(hi))
        );
        prop_assert!(
            m.network(1, feisu_common::ByteSize(lo)) <= m.network(3, feisu_common::ByteSize(lo))
        );
    }
}
