//! The predicate kernel: `column OP literal` into a 0-1 vector, for a
//! SmartIndex build, the index-less scan and the master-side `Filter`.
//! Its meaning is the reference interpreter's: bit `i` is set exactly when
//! `compare(op, column.value(i), literal)` is true, and where that would
//! raise — a pair of types `compare` rejects, a NaN on either side — the
//! kernel raises the same error for the first such row. NULL cells never
//! compare, so an all-NULL or empty column is all zeros.

use feisu_common::{FeisuError, Result};
use feisu_format::column::{ColumnData, Validity};
use feisu_format::{BitVec, Column, Value};
use feisu_sql::ast::BinaryOp;
use feisu_sql::eval::compare;
use std::cmp::Ordering;

/// Evaluates `column OP literal` for the six comparisons and `CONTAINS`
/// (any other operator is a caller's bug, an `Internal` error): one dispatch
/// per call on the column's storage and the literal's type, unboxed
/// values compared in place.
pub fn compare_column(column: &Column, op: BinaryOp, literal: &Value) -> Result<BitVec> {
    let validity = column.validity();
    // `compare`'s own error for a row it cannot answer.
    let raise = |row: usize| match compare(op, &column.value(row), literal) {
        Err(e) => e,
        Ok(_) => FeisuError::Internal(format!("row {row} compares after all")),
    };
    // Every non-NULL row is such a row: the first one raises, none is
    // all zeros. A NULL literal is unknown for every row, zeros again.
    let no_row_compares = || match (0..column.len()).find(|&i| validity.is_valid(i)) {
        Some(row) if !literal.is_null() => Err(raise(row)),
        _ => Ok(BitVec::zeros(column.len())),
    };
    // Floats: a NaN on either side is incomparable. With those ruled out
    // `partial_cmp` always answers.
    let float_cells = |vals: &[f64], t: f64| {
        if t.is_nan() {
            return no_row_compares();
        }
        // Almost always no slot holds a NaN, and that pass vectorizes.
        let nan_row = || (0..vals.len()).find(|&i| vals[i].is_nan() && validity.is_valid(i));
        match vals.iter().any(|v| v.is_nan()).then(nan_row).flatten() {
            Some(row) => Err(raise(row)),
            None => fill_ordered(validity, op, |i| vals[i].partial_cmp(&t)),
        }
    };
    match (column.data(), literal) {
        (ColumnData::Utf8(vals), Value::Utf8(t)) if op == BinaryOp::Contains => {
            Ok(fill(validity, |i| vals.get(i).contains(t.as_str())))
        }
        _ if op == BinaryOp::Contains => no_row_compares(),
        (ColumnData::Bool(vals), Value::Bool(t)) => {
            fill_ordered(validity, op, |i| Some(vals[i].cmp(t)))
        }
        (ColumnData::Int64(vals), Value::Int64(t)) => {
            fill_ordered(validity, op, |i| Some(vals[i].cmp(t)))
        }
        (ColumnData::Utf8(vals), Value::Utf8(t)) => {
            fill_ordered(validity, op, |i| Some(vals.bytes_at(i).cmp(t.as_bytes())))
        }
        (ColumnData::Int64(_), Value::Float64(t)) if t.is_nan() => no_row_compares(),
        (ColumnData::Int64(vals), Value::Float64(t)) => {
            fill_ordered(validity, op, |i| (vals[i] as f64).partial_cmp(t))
        }
        (ColumnData::Float64(vals), Value::Float64(t)) => float_cells(vals, *t),
        (ColumnData::Float64(vals), Value::Int64(t)) => float_cells(vals, *t as f64),
        _ => no_row_compares(),
    }
}

/// [`fill`] with the operator resolved outside the row loop, so each of
/// the six loops compares with one fixed test.
fn fill_ordered(
    validity: &Validity,
    op: BinaryOp,
    ord: impl Fn(usize) -> Option<Ordering>,
) -> Result<BitVec> {
    use Ordering::{Equal, Greater, Less};
    Ok(match op {
        BinaryOp::Eq => fill(validity, |i| ord(i) == Some(Equal)),
        BinaryOp::NotEq => fill(validity, |i| matches!(ord(i), Some(Less | Greater))),
        BinaryOp::Lt => fill(validity, |i| ord(i) == Some(Less)),
        BinaryOp::LtEq => fill(validity, |i| matches!(ord(i), Some(Less | Equal))),
        BinaryOp::Gt => fill(validity, |i| ord(i) == Some(Greater)),
        BinaryOp::GtEq => fill(validity, |i| matches!(ord(i), Some(Greater | Equal))),
        _ => return Err(FeisuError::Internal(format!("{op} is not a comparison"))),
    })
}

/// Accumulates 64 predicate results (`pred(row)` for every row of the
/// column `validity` covers) into a word and emits it with one store, NULL
/// rows cleared by the validity word: running the predicate on a NULL
/// row's slot (it holds a default) is cheaper than branching.
#[inline]
fn fill(validity: &Validity, pred: impl Fn(usize) -> bool) -> BitVec {
    let n = validity.len();
    let mut bits = BitVec::zeros(n);
    for (wi, valid) in validity.words().iter().enumerate() {
        let base = wi * 64;
        let mut word = 0u64;
        for j in 0..(n - base).min(64) {
            word |= (pred(base + j) as u64) << j;
        }
        bits.store_word(wi, word & valid);
    }
    bits
}
