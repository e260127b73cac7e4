//! Expression evaluation over record batches.
//!
//! Two paths:
//! * `column OP literal` comparisons — the predicate shape that dominates
//!   Feisu's workload (Fig. 8: scans with simple filters are >99% of
//!   queries) — go to the predicate kernel the leaves also use;
//! * everything else falls back row-wise to the `feisu-sql` reference
//!   interpreter, whose answers, errors included, the kernel reproduces.

use crate::batch::{BatchRow, RecordBatch};
use feisu_common::{FeisuError, Result};
use feisu_format::column::ColumnData;
use feisu_format::{BitVec, Column, DataType, Value};
use feisu_index::kernel::compare_column;
use feisu_sql::ast::{BinaryOp, Expr};
use feisu_sql::eval::{eval, eval_truth};
use std::borrow::Cow;

/// Evaluates a boolean expression into a selection bitmap (bit set ⇔ row
/// passes the filter; SQL-unknown rows do not pass).
pub fn eval_predicate(batch: &RecordBatch, expr: &Expr) -> Result<BitVec> {
    if let Expr::Binary { op, left, right } = expr {
        // `col OP literal`, or `literal OP col` read the other way round.
        let simple = match (left.as_ref(), right.as_ref()) {
            _ if !op.is_comparison() => None,
            (Expr::Column(c), Expr::Literal(v)) => Some((c, *op, v)),
            (Expr::Literal(v), Expr::Column(c)) => op.flip().map(|flipped| (c, flipped, v)),
            _ => None,
        };
        if let Some((name, op, literal)) = simple {
            let column = batch
                .column_by_name(name)
                .ok_or_else(|| FeisuError::Execution(format!("unknown column `{name}`")))?;
            return compare_column(column, op, literal);
        }
        // Decompose AND/OR over kernel-able halves before falling back.
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
