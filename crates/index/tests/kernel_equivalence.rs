//! The predicate kernel against the interpreter it stands in for.
//!
//! `kernel::compare_column` must answer — bits *and* errors — as a loop of
//! `feisu_sql::eval::compare` over `Column::value` does: that loop is what
//! `SmartIndex::build`, `scan_evaluate` and the executor's filter each
//! used to carry a copy of. It lives on here, as the oracle, only. The
//! word-level `CompressedBits` is held to the bit-at-a-time encoder it
//! replaced the same way: the same `runs`, the same form, the same
//! footprint, because the index cache's budget is charged by it.

use feisu_common::{BlockId, FeisuError, SimInstant};
use feisu_format::column::{ColumnData, Validity};
use feisu_format::{BitVec, Block, Column, DataType, Field, Schema, Value};
use feisu_index::bitvec::CompressedBits;
use feisu_index::kernel::compare_column;
use feisu_index::SmartIndex;
use feisu_sql::ast::BinaryOp;
use feisu_sql::cnf::SimplePredicate;
use feisu_sql::eval::{compare, Truth};
use proptest::prelude::*;

const OPS: [BinaryOp; 7] = [
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::Contains,
];

/// One cell at a time: NULL never passes, the first cell `compare`
/// rejects is the answer.
fn row_reference(column: &Column, op: BinaryOp, literal: &Value) -> Result<BitVec, String> {
    let mut bits = BitVec::zeros(column.len());
    for i in 0..column.len() {
        match compare(op, &column.value(i), literal) {
            Ok(truth) => bits.set(i, truth == Truth::True),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(bits)
}

/// A small pool per type, so cells, literals and their neighbours collide;
/// floats include both zeros, the infinities and, when `nan`, a NaN.
fn cell(dt: DataType, r: u64, nan: bool) -> Value {
    const FLOATS: [f64; 8] = [
        0.0,
        -0.0,
        1.5,
        -2.0,
        3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    const WORDS: [&str; 6] = ["", "a", "ab", "abc", "b", "ba"];
    match dt {
        DataType::Bool => Value::Bool(r.is_multiple_of(2)),
        DataType::Int64 => Value::Int64((r % 7) as i64 - 3),
        DataType::Float64 => Value::Float64(FLOATS[(r % if nan { 8 } else { 7 }) as usize]),
        DataType::Utf8 => Value::Utf8(WORDS[(r % 6) as usize].to_string()),
    }
}

const TYPES: [DataType; 4] = [
    DataType::Bool,
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
];

/// `null_one_in`: 0 no NULLs, 1 all NULL, else one cell in that many.
/// One float column in four may hold NaNs.
fn column(dt: DataType, rows: usize, null_one_in: u64, seed: u64) -> Column {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let values: Vec<Value> = (0..rows)
        .map(|_| match next() {
            r if null_one_in > 0 && r % null_one_in == 0 => Value::Null,
            r => cell(dt, r >> 8, seed.is_multiple_of(4)),
        })
        .collect();
    Column::from_values(dt, &values).unwrap()
}

fn arb_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(63),
        Just(64),
        Just(65),
        Just(2048),
        0usize..200
    ]
}

/// A literal of any type (so every column meets the pairs `compare`
/// rejects too), NULL included.
fn arb_literal() -> impl Strategy<Value = Value> {
    (0usize..5, any::<u64>()).prop_map(|(kind, r)| match kind {
        4 => Value::Null,
        kind => cell(TYPES[kind], r >> 3, r % 8 == 0),
    })
}

proptest! {
    #[test]
    fn kernel_is_the_row_reference_values_and_errors(
        shape in (0usize..4, arb_rows(), 0u64..5, any::<u64>()),
        op in 0usize..7,
        literal in arb_literal(),
    ) {
        let (dt, rows, null_one_in, seed) = shape;
        let column = column(TYPES[dt], rows, null_one_in, seed);
        let want = row_reference(&column, OPS[op], &literal);
        let got = compare_column(&column, OPS[op], &literal).map_err(|e| e.to_string());
        prop_assert_eq!(got, want, "{:?} {} {:?}", column.data_type(), OPS[op], literal);
    }

    #[test]
    fn smartindex_serves_the_row_reference_under_three_valued_logic(
        shape in (0usize..4, arb_rows(), 0u64..5, any::<u64>()),
        op in 0usize..7,
        literal_seed in any::<u64>(),
    ) {
        let (dt, rows, null_one_in, seed) = shape;
        let (dt, op) = (TYPES[dt], OPS[op]);
        let column = column(dt, rows, null_one_in, seed);
        let predicate = SimplePredicate {
            column: "c".into(),
            op,
            value: cell(dt, literal_seed >> 3, literal_seed % 8 == 0),
        };
        let schema = Schema::new(vec![Field::new("c", dt, true)]);
        let block = Block::new_with_rows(BlockId(1), schema, vec![column.clone()], rows).unwrap();
        let want = row_reference(&column, op, &predicate.value);
        let built = SmartIndex::build(&block, &predicate, SimInstant(0));
        match (built, want) {
            (Err(e), Err(want)) => prop_assert_eq!(e.to_string(), want),
            (Ok(index), Ok(want)) => {
                prop_assert_eq!(index.count(), want.count_ones());
                prop_assert_eq!(index.bits(), want);
                // NOT p is true where p is false — not where it is unknown.
                if let Some(negated) = op.negate() {
                    let want = row_reference(&column, negated, &predicate.value).unwrap();
                    prop_assert_eq!(index.negated_bits(), want);
                }
            }
            (built, want) => prop_assert!(
                false,
                "build {:?}, row reference {:?}",
                built.map(|i| i.count()),
                want.map(|b| b.count_ones())
            ),
        }
    }
}

/// `CompressedBits::from_bitvec` as it was: one `get` per bit.
fn reference_compress(bits: &BitVec) -> CompressedBits {
    let mut runs: Vec<u32> = Vec::new();
    let mut current = false;
    let mut run_len: u32 = 0;
    for i in 0..bits.len() {
        let b = bits.get(i);
        if b == current {
            run_len += 1;
        } else {
            runs.push(run_len);
            current = b;
            run_len = 1;
        }
    }
    runs.push(run_len);
    if runs.len() * 4 < bits.words().len() * 8 {
        CompressedBits::Rle {
            runs,
            len: bits.len(),
        }
    } else {
        CompressedBits::Raw(bits.clone())
    }
}

fn assert_compresses_as_before(bits: &BitVec) {
    let packed = CompressedBits::from_bitvec(bits);
    let want = reference_compress(bits);
    assert_eq!(packed, want, "{} bits", bits.len());
    assert_eq!(packed.footprint(), want.footprint());
    assert_eq!(packed.count_ones(), bits.count_ones());
    assert_eq!(&packed.to_bitvec(), bits);
    // Painting runs must also undo an encoding that chose RLE however
    // dense the vector: force the form.
    let mut runs = vec![0u32];
    let mut current = false;
    for i in 0..bits.len() {
        if bits.get(i) != current {
            runs.push(0);
            current = !current;
        }
        *runs.last_mut().unwrap() += 1;
    }
    let forced = CompressedBits::Rle {
        runs,
        len: bits.len(),
    };
    assert_eq!(&forced.to_bitvec(), bits);
}

#[test]
fn compressed_bits_keep_their_runs_form_and_footprint() {
    for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 500, 2048, 2049] {
        assert_compresses_as_before(&BitVec::zeros(len));
        assert_compresses_as_before(&BitVec::ones(len));
        assert_compresses_as_before(&BitVec::from_bools((0..len).map(|i| i % 2 == 0)));
        assert_compresses_as_before(&BitVec::from_bools((0..len).map(|i| i % 2 == 1)));
        // Runs that start, end and straddle on word boundaries.
        for (from, to) in [(0, 64), (64, 128), (63, 65), (1, 2047), (100, 1900)] {
            let mut bits = BitVec::from_bools((0..len).map(|i| (from..to).contains(&i)));
            assert_compresses_as_before(&bits);
            bits.not_assign();
            assert_compresses_as_before(&bits);
        }
    }
}

proptest! {
    #[test]
    fn compressed_bits_match_the_bitwise_encoder(
        len in prop_oneof![Just(64usize), Just(2048), 0usize..700],
        density in 0u64..6,
        seed in any::<u64>(),
    ) {
        // From one flip in two (stays raw) to one in 2^10 (long runs), so
        // the choice between the two forms falls on both sides.
        let mut state = seed | 1;
        let mut current = false;
        let bits = BitVec::from_bools((0..len).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % (1 << (density * 2)) == 0 {
                current = !current;
            }
            current
        }));
        assert_compresses_as_before(&bits);
    }
}

#[test]
fn a_nan_cell_raises_whoever_asks() {
    // The executor's old fast path read a NaN cell as "does not pass";
    // the interpreter raises. There is one kernel now, and it raises.
    let column = Column::from_f64(vec![1.0, f64::NAN, 3.0]);
    let got = compare_column(&column, BinaryOp::Lt, &Value::Float64(2.0));
    let want = compare(
        BinaryOp::Lt,
        &Value::Float64(f64::NAN),
        &Value::Float64(2.0),
    );
    match (got, want) {
        (Err(FeisuError::Execution(got)), Err(FeisuError::Execution(want))) => {
            assert_eq!(got, want)
        }
        other => panic!("{other:?}"),
    }
    // A NaN in the slot of a NULL row is no cell at all.
    let hidden = Column::new(
        ColumnData::Float64(vec![1.0, f64::NAN, 3.0]),
        Validity::from_words(vec![0b101], 3).unwrap(),
    );
    let bits = compare_column(&hidden, BinaryOp::Lt, &Value::Float64(2.0)).unwrap();
    assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0]);
}
