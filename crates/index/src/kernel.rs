//! The predicate kernel: `column OP literal` into a 0-1 vector, for a
//! SmartIndex build, the index-less scan and the master-side `Filter`.
//! Its meaning is the reference interpreter's: bit `i` is set exactly when
//! `compare(op, column.value(i), literal)` is true, and where that would
//! raise — a pair of types `compare` rejects, a NaN on either side — the
//! kernel raises the same error for the first such row. NULL cells never
//! compare, so an all-NULL or empty column is all zeros.

use crate::bitvec::BitVec;
use feisu_common::{FeisuError, Result};
use feisu_format::column::{ColumnData, Validity};
use feisu_format::{Column, Value};
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
            None => fill_ordered(vals, validity, op, |v| v.partial_cmp(&t)),
        }
    };
    match (column.data(), literal) {
        (ColumnData::Utf8(vals), Value::Utf8(t)) if op == BinaryOp::Contains => {
            Ok(fill(vals, validity, |v| v.contains(t.as_str())))
        }
        _ if op == BinaryOp::Contains => no_row_compares(),
        (ColumnData::Bool(vals), Value::Bool(t)) => {
            fill_ordered(vals, validity, op, |v| Some(v.cmp(t)))
        }
        (ColumnData::Int64(vals), Value::Int64(t)) => {
            fill_ordered(vals, validity, op, |v| Some(v.cmp(t)))
        }
        (ColumnData::Utf8(vals), Value::Utf8(t)) => {
            fill_ordered(vals, validity, op, |v| Some(v.as_str().cmp(t.as_str())))
        }
        (ColumnData::Int64(_), Value::Float64(t)) if t.is_nan() => no_row_compares(),
        (ColumnData::Int64(vals), Value::Float64(t)) => {
            fill_ordered(vals, validity, op, |v| (*v as f64).partial_cmp(t))
        }
        (ColumnData::Float64(vals), Value::Float64(t)) => float_cells(vals, *t),
        (ColumnData::Float64(vals), Value::Int64(t)) => float_cells(vals, *t as f64),
        _ => no_row_compares(),
    }
}

/// [`fill`] with the operator resolved outside the row loop, so each of
/// the six loops compares with one fixed test.
fn fill_ordered<T>(
    vals: &[T],
    validity: &Validity,
    op: BinaryOp,
    ord: impl Fn(&T) -> Option<Ordering>,
) -> Result<BitVec> {
    use Ordering::{Equal, Greater, Less};
    Ok(match op {
        BinaryOp::Eq => fill(vals, validity, |v| ord(v) == Some(Equal)),
        BinaryOp::NotEq => fill(vals, validity, |v| matches!(ord(v), Some(Less | Greater))),
        BinaryOp::Lt => fill(vals, validity, |v| ord(v) == Some(Less)),
        BinaryOp::LtEq => fill(vals, validity, |v| matches!(ord(v), Some(Less | Equal))),
        BinaryOp::Gt => fill(vals, validity, |v| ord(v) == Some(Greater)),
        BinaryOp::GtEq => fill(vals, validity, |v| matches!(ord(v), Some(Greater | Equal))),
        _ => return Err(FeisuError::Internal(format!("{op} is not a comparison"))),
    })
}

/// Accumulates 64 predicate results into a word and emits it with one
/// store, NULL rows cleared by the validity word: running the predicate on
/// a NULL row's slot (it holds a default) is cheaper than branching.
#[inline]
fn fill<T>(vals: &[T], validity: &Validity, pred: impl Fn(&T) -> bool) -> BitVec {
    let mut bits = BitVec::zeros(vals.len());
    for (wi, (chunk, valid)) in vals.chunks(64).zip(validity.words()).enumerate() {
        let mut word = 0u64;
        for (j, v) in chunk.iter().enumerate() {
            word |= (pred(v) as u64) << j;
        }
        bits.store_word(wi, word & valid);
    }
    bits
}
