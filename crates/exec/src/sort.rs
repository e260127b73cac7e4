//! Multi-key sort with optional top-N (fetch).
//!
//! ORDER BY keys are arbitrary expressions; DESC flips the comparison.
//! Each key is resolved to a typed column once and row indices are ordered
//! through it ([`sorted_rows`]). When the optimizer pushed a LIMIT into the
//! sort (`fetch`), a selection finds the first `fetch` rows in O(n) before
//! only those are sorted.

use crate::batch::RecordBatch;
use crate::keys::{key_column, sorted_rows};
use feisu_common::Result;
use feisu_format::Column;
use feisu_sql::ast::Expr;

/// Sorts a batch by `keys`; `fetch` keeps only the first N rows. Rows with
/// equal keys keep their input order.
pub fn sort(batch: &RecordBatch, keys: &[(Expr, bool)], fetch: Option<u64>) -> Result<RecordBatch> {
    let columns = keys
        .iter()
        .map(|(e, _)| key_column(batch, e, None))
        .collect::<Result<Vec<_>>>()?;
    let keyed: Vec<(&Column, bool)> = columns
        .iter()
        .zip(keys)
        .map(|(c, (_, desc))| (c.as_ref(), *desc))
        .collect();
    let fetch = fetch.map(|k| usize::try_from(k).unwrap_or(usize::MAX));
    batch.take(&sorted_rows(&keyed, batch.rows(), fetch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Field, Schema, Value};
    use feisu_sql::parser::parse_expr;

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("n", DataType::Int64, true),
            Field::new("s", DataType::Utf8, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(3),
                        Value::Int64(1),
                        Value::Null,
                        Value::Int64(2),
                        Value::Int64(1),
                    ],
                )
                .unwrap(),
                Column::from_utf8(vec![
                    "c".into(),
                    "b".into(),
                    "e".into(),
                    "d".into(),
                    "a".into(),
                ]),
            ],
        )
        .unwrap()
    }

    fn keys(src: &str, desc: bool) -> Vec<(Expr, bool)> {
        vec![(parse_expr(src).unwrap(), desc)]
    }

    #[test]
    fn ascending_nulls_first() {
        let out = sort(&batch(), &keys("n", false), None).unwrap();
        let ns: Vec<Value> = (0..5).map(|i| out.value_at(i, "n").unwrap()).collect();
        assert_eq!(
            ns,
            vec![
                Value::Null,
                Value::Int64(1),
                Value::Int64(1),
                Value::Int64(2),
                Value::Int64(3)
            ]
        );
    }

    #[test]
    fn descending() {
        let out = sort(&batch(), &keys("n", true), None).unwrap();
        assert_eq!(out.value_at(0, "n"), Some(Value::Int64(3)));
        assert_eq!(out.value_at(4, "n"), Some(Value::Null));
    }

    #[test]
    fn multi_key_tiebreak() {
        let ks = vec![
            (parse_expr("n").unwrap(), false),
            (parse_expr("s").unwrap(), false),
        ];
        let out = sort(&batch(), &ks, None).unwrap();
        // The two n=1 rows order by s: 'a' before 'b'.
        assert_eq!(out.value_at(1, "s"), Some(Value::Utf8("a".into())));
        assert_eq!(out.value_at(2, "s"), Some(Value::Utf8("b".into())));
    }

    #[test]
    fn stability_on_equal_keys() {
        let ks = vec![(parse_expr("1").unwrap(), false)]; // constant key
        let out = sort(&batch(), &ks, None).unwrap();
        assert_eq!(out, batch(), "equal keys keep original order");
    }

    #[test]
    fn fetch_truncates_and_matches_full_sort() {
        let full = sort(&batch(), &keys("n", true), None).unwrap();
        for k in [1u64, 2, 3, 10] {
            let top = sort(&batch(), &keys("n", true), Some(k)).unwrap();
            assert_eq!(top.rows(), (k as usize).min(5));
            for i in 0..top.rows() {
                assert_eq!(top.row(i), full.row(i), "k={k} row {i}");
            }
        }
    }

    #[test]
    fn heap_path_matches_sort_path_on_larger_input() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let vals: Vec<i64> = (0..1000)
            .map(|i| (i * 2654435761u64 as i64) % 997)
            .collect();
        let b = RecordBatch::new(schema, vec![Column::from_i64(vals)]).unwrap();
        let full = sort(&b, &keys("x", false), None).unwrap();
        let top = sort(&b, &keys("x", false), Some(10)).unwrap(); // heap path
        for i in 0..10 {
            assert_eq!(top.row(i), full.row(i));
        }
    }

    #[test]
    fn sort_expression_keys() {
        let out = sort(&batch(), &keys("n * -1", false), None).unwrap();
        // -3 < -2 < -1 = -1 < null? No: null expression results sort first.
        assert_eq!(out.value_at(0, "n"), Some(Value::Null));
        assert_eq!(out.value_at(1, "n"), Some(Value::Int64(3)));
    }
}
