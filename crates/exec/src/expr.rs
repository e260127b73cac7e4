//! Expression evaluation over record batches.
//!
//! Two paths:
//! * a typed fast path for `column OP literal` comparisons on numeric
//!   columns — the predicate shape that dominates Feisu's workload
//!   (Fig. 8: scans with simple filters are >99% of queries);
//! * a general row-wise fallback delegating to the `feisu-sql` reference
//!   interpreter, guaranteeing identical semantics to the oracle.

use crate::batch::{BatchRow, RecordBatch};
use feisu_common::{FeisuError, Result};
use feisu_format::column::ColumnData;
use feisu_format::{Column, DataType, Value};
use feisu_index::BitVec;
use feisu_sql::ast::{BinaryOp, Expr};
use feisu_sql::eval::{eval, eval_truth};
use std::borrow::Cow;

/// Evaluates a boolean expression into a selection bitmap (bit set ⇔ row
/// passes the filter; SQL-unknown rows do not pass).
pub fn eval_predicate(batch: &RecordBatch, expr: &Expr) -> Result<BitVec> {
    if let Some(bits) = fast_compare(batch, expr)? {
        return Ok(bits);
    }
    // Decompose AND/OR over fast-path-able halves before falling back.
    if let Expr::Binary { op, left, right } = expr {
        match op {
            BinaryOp::And => {
                let mut bits = eval_predicate(batch, left)?;
                bits.and_assign(&eval_predicate(batch, right)?)?;
                return Ok(bits);
            }
            BinaryOp::Or => {
                let mut bits = eval_predicate(batch, left)?;
                bits.or_assign(&eval_predicate(batch, right)?)?;
                return Ok(bits);
            }
            _ => {}
        }
    }
    let mut bits = BitVec::zeros(batch.rows());
    for i in 0..batch.rows() {
        let row = BatchRow { batch, row: i };
        if eval_truth(expr, &row)?.passes() {
            bits.set(i, true);
        }
    }
    Ok(bits)
}

/// Typed fast path: `col OP literal` over Int64/Float64 columns.
fn fast_compare(batch: &RecordBatch, expr: &Expr) -> Result<Option<BitVec>> {
    let Expr::Binary { op, left, right } = expr else {
        return Ok(None);
    };
    if !op.is_comparison() || *op == BinaryOp::Contains {
        return Ok(None);
    }
    let (col_name, lit, op) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
        (Expr::Literal(v), Expr::Column(c)) => match op.flip() {
            Some(f) => (c, v, f),
            None => return Ok(None),
        },
        _ => return Ok(None),
    };
    let Some(column) = batch.column_by_name(col_name) else {
        return Err(FeisuError::Execution(format!(
            "unknown column `{col_name}`"
        )));
    };
    let validity = column.validity();
    let mut bits = BitVec::zeros(column.len());
    match (column.data(), lit) {
        (ColumnData::Int64(vals), Value::Int64(t)) => {
            fill(&mut bits, vals, validity, |v| cmp_ord(op, v.cmp(t)));
        }
        (ColumnData::Int64(vals), Value::Float64(t)) => {
            fill(&mut bits, vals, validity, |v| {
                (*v as f64)
                    .partial_cmp(t)
                    .map(|o| cmp_ord(op, o))
                    .unwrap_or(false)
            });
        }
        (ColumnData::Float64(vals), Value::Float64(t)) => {
            fill(&mut bits, vals, validity, |v| {
                v.partial_cmp(t).map(|o| cmp_ord(op, o)).unwrap_or(false)
            });
        }
        (ColumnData::Float64(vals), Value::Int64(t)) => {
            let t = *t as f64;
            fill(&mut bits, vals, validity, |v| {
                v.partial_cmp(&t).map(|o| cmp_ord(op, o)).unwrap_or(false)
            });
        }
        (ColumnData::Utf8(vals), Value::Utf8(t)) => {
            fill(&mut bits, vals, validity, |v| {
                cmp_ord(op, v.as_str().cmp(t))
            });
        }
        _ => return Ok(None),
    }
    Ok(Some(bits))
}

/// Accumulates 64 predicate results into a u64 and emits them with one
/// word-store each, instead of a read-modify-write per matching row.
#[inline]
fn fill<T>(
    bits: &mut BitVec,
    vals: &[T],
    validity: &feisu_format::column::Validity,
    pred: impl Fn(&T) -> bool,
) {
    let n = vals.len();
    if validity.null_count() == 0 {
        let mut wi = 0usize;
        let mut i = 0usize;
        while i < n {
            let end = (i + 64).min(n);
            let mut acc = 0u64;
            for (j, v) in vals[i..end].iter().enumerate() {
                acc |= (pred(v) as u64) << j;
            }
            bits.store_word(wi, acc);
            wi += 1;
            i = end;
        }
    } else {
        // Walk only the valid bits of each validity word; null slots stay
        // unset in the accumulator.
        let vwords = validity.words();
        let mut wi = 0usize;
        let mut i = 0usize;
        while i < n {
            let mut acc = 0u64;
            let mut m = vwords[wi];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let j = i + b;
                if j < n && pred(&vals[j]) {
                    acc |= 1u64 << b;
                }
            }
            bits.store_word(wi, acc);
            wi += 1;
            i += 64;
        }
    }
}

#[inline]
fn cmp_ord(op: BinaryOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => unreachable!("fast path only handles comparisons"),
    }
}

/// Evaluates a scalar expression into a column over the batch.
pub fn eval_to_column(batch: &RecordBatch, expr: &Expr, out_type: DataType) -> Result<Column> {
    // Column references copy through directly; an Int64 column headed for
    // a Float64 slot widens columnar-ly (same nulls, no per-row boxing).
    if let Expr::Column(name) = expr {
        if let Some(c) = batch.column_by_name(name) {
            if let Ok(c) = fit(Cow::Borrowed(c), out_type) {
                return Ok(c);
            }
        }
    }
    let values: Vec<Value> = eval_rows(batch, expr)?
        .into_iter()
        .map(|v| coerce(v, out_type))
        .collect::<Result<_>>()?;
    column_of(expr, out_type, &values)
}

/// Like [`eval_to_column`], in the type the expression's own values have
/// (every non-NULL result of one expression over one batch has the same
/// type). An all-NULL result becomes an all-NULL Bool column.
pub fn eval_to_natural_column(batch: &RecordBatch, expr: &Expr) -> Result<Column> {
    let values = eval_rows(batch, expr)?;
    let ty = values.iter().find_map(Value::data_type);
    column_of(expr, ty.unwrap_or(DataType::Bool), &values)
}

fn eval_rows(batch: &RecordBatch, expr: &Expr) -> Result<Vec<Value>> {
    (0..batch.rows())
        .map(|row| eval(expr, &BatchRow { batch, row }))
        .collect()
}

fn column_of(expr: &Expr, ty: DataType, values: &[Value]) -> Result<Column> {
    Column::from_values(ty, values).ok_or_else(|| {
        FeisuError::Execution(format!("expression `{expr}` produced ill-typed values"))
    })
}

/// [`coerce`] for a whole column: passes a column of the target type
/// through and widens Int64 to Float64 keeping the NULLs.
pub fn fit(column: Cow<'_, Column>, target: DataType) -> Result<Column> {
    let from = column.data_type();
    if from == target {
        return Ok(column.into_owned());
    }
    match (column.data(), target) {
        (ColumnData::Int64(vals), DataType::Float64) => {
            let vals = vals.iter().map(|&v| v as f64).collect();
            Ok(Column::new(
                ColumnData::Float64(vals),
                column.validity().clone(),
            ))
        }
        _ => Err(FeisuError::Execution(format!(
            "{from} column does not fit column type {target}"
        ))),
    }
}

/// Widens a value to the column's declared type where SQL allows it.
pub fn coerce(v: Value, target: DataType) -> Result<Value> {
    Ok(match (v, target) {
        (Value::Null, _) => Value::Null,
        (Value::Int64(i), DataType::Float64) => Value::Float64(i as f64),
        (v, t) if v.data_type() == Some(t) => v,
        (v, t) => {
            return Err(FeisuError::Execution(format!(
                "value {v} does not fit column type {t}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{Field, Schema};
    use feisu_sql::parser::parse_expr;

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("n", DataType::Int64, true),
            Field::new("f", DataType::Float64, false),
            Field::new("s", DataType::Utf8, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Null,
                        Value::Int64(5),
                        Value::Int64(10),
                    ],
                )
                .unwrap(),
                Column::from_f64(vec![0.5, 1.5, 2.5, 3.5]),
                Column::from_utf8(vec![
                    "apple".into(),
                    "banana".into(),
                    "cherry".into(),
                    "apricot".into(),
                ]),
            ],
        )
        .unwrap()
    }

    fn sel(src: &str) -> Vec<usize> {
        eval_predicate(&batch(), &parse_expr(src).unwrap())
            .unwrap()
            .iter_ones()
            .collect()
    }

    #[test]
    fn fast_path_int_comparisons() {
        assert_eq!(sel("n > 1"), vec![2, 3]);
        assert_eq!(sel("n <= 5"), vec![0, 2]);
        assert_eq!(sel("n = 10"), vec![3]);
        assert_eq!(sel("n != 1"), vec![2, 3]); // null row excluded
    }

    #[test]
    fn fast_path_mixed_numeric() {
        assert_eq!(sel("n > 4.5"), vec![2, 3]);
        assert_eq!(sel("f >= 2"), vec![2, 3]);
        assert_eq!(sel("2 > f"), vec![0, 1]); // flipped literal-column
    }

    #[test]
    fn fast_path_strings() {
        assert_eq!(sel("s < 'b'"), vec![0, 3]);
        assert_eq!(sel("s = 'cherry'"), vec![2]);
    }

    #[test]
    fn and_or_composition() {
        assert_eq!(sel("n > 1 AND f < 3"), vec![2]);
        assert_eq!(sel("n = 1 OR s = 'cherry'"), vec![0, 2]);
    }

    #[test]
    fn fallback_matches_oracle_for_complex_exprs() {
        // CONTAINS, IS NULL, arithmetic — all fallback territory.
        assert_eq!(sel("s CONTAINS 'an'"), vec![1]);
        assert_eq!(sel("n IS NULL"), vec![1]);
        assert_eq!(sel("n + 1 > 5"), vec![2, 3]);
        assert_eq!(sel("NOT (n > 1)"), vec![0]);
    }

    #[test]
    fn fast_and_fallback_agree() {
        // Force the fallback by wrapping in NOT NOT, compare results.
        let b = batch();
        for src in ["n > 1", "f <= 2.5", "s >= 'b'", "n = 5"] {
            let fast = eval_predicate(&b, &parse_expr(src).unwrap()).unwrap();
            let slow =
                eval_predicate(&b, &parse_expr(&format!("NOT NOT ({src})")).unwrap()).unwrap();
            assert_eq!(fast, slow, "{src}");
        }
    }

    #[test]
    fn unknown_column_errors() {
        let b = batch();
        assert!(eval_predicate(&b, &parse_expr("ghost > 1").unwrap()).is_err());
    }

    #[test]
    fn eval_to_column_projection_and_arith() {
        let b = batch();
        let c = eval_to_column(&b, &parse_expr("n").unwrap(), DataType::Int64).unwrap();
        assert_eq!(c.value(3), Value::Int64(10));
        let c = eval_to_column(&b, &parse_expr("n * 2").unwrap(), DataType::Int64).unwrap();
        assert_eq!(c.value(0), Value::Int64(2));
        assert_eq!(c.value(1), Value::Null);
        // Int expr into float column widens.
        let c = eval_to_column(&b, &parse_expr("n + 1").unwrap(), DataType::Float64).unwrap();
        assert_eq!(c.value(0), Value::Float64(2.0));
    }

    #[test]
    fn eval_to_column_widens_int_column_without_boxing() {
        let b = batch();
        let c = eval_to_column(&b, &parse_expr("n").unwrap(), DataType::Float64).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.value(0), Value::Float64(1.0));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(3), Value::Float64(10.0));
        // Identical to what the row-wise fallback produces (`n + 0` defeats
        // the columnar fast path).
        let slow = eval_to_column(&b, &parse_expr("n + 0").unwrap(), DataType::Float64).unwrap();
        assert_eq!(c, slow);
    }

    #[test]
    fn fill_word_boundaries_and_nulls() {
        // Column lengths straddling word boundaries, with nulls sprinkled
        // in: the word-accumulator fill must agree with a row-wise oracle.
        for n in [1usize, 63, 64, 65, 127, 128, 130, 200] {
            let vals: Vec<Value> = (0..n as i64)
                .map(|i| {
                    if i % 11 == 3 {
                        Value::Null
                    } else {
                        Value::Int64(i % 10)
                    }
                })
                .collect();
            let schema = Schema::new(vec![Field::new("v", DataType::Int64, true)]);
            let b = RecordBatch::new(
                schema,
                vec![Column::from_values(DataType::Int64, &vals).unwrap()],
            )
            .unwrap();
            let fast = eval_predicate(&b, &parse_expr("v >= 5").unwrap()).unwrap();
            // NOT NOT defeats the fast path, forcing the row-wise oracle.
            let slow = eval_predicate(&b, &parse_expr("NOT NOT (v >= 5)").unwrap()).unwrap();
            assert_eq!(fast, slow, "rows={n}");
        }
    }

    #[test]
    fn eval_to_column_type_error() {
        let b = batch();
        assert!(eval_to_column(&b, &parse_expr("s").unwrap(), DataType::Int64).is_err());
    }
}
