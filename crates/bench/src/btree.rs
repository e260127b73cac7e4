//! B-tree per-column index — the comparison baseline of Fig. 9b.
//!
//! "For a comparison, we also implemented B-tree index in Feisu." A
//! `BTreeColumnIndex` maps sorted column values to row ids; a probe walks
//! the qualifying key range and materializes the row bitmap. Unlike
//! SmartIndex it answers *any* constant for the indexed column (no
//! warm-up per predicate), but every probe still pays a range-walk per
//! query — which is why the paper's Fig. 9b shows it flat while
//! SmartIndex keeps improving as more predicates are cached.

use feisu_common::{FeisuError, Result};
use feisu_format::{BitVec, Column, Value};
use feisu_sql::ast::BinaryOp;
use std::cmp::Ordering;

/// Sorted (value, row) pairs over one column of one block.
#[derive(Debug, Clone)]
pub struct BTreeColumnIndex {
    /// Non-null entries sorted by value (total order).
    entries: Vec<(Value, u32)>,
    rows: usize,
}

impl BTreeColumnIndex {
    /// Builds by sorting the column once (the classic index build cost).
    pub fn build(column: &Column) -> BTreeColumnIndex {
        let mut entries: Vec<(Value, u32)> = Vec::with_capacity(column.len());
        for i in 0..column.len() {
            let v = column.value(i);
            if !v.is_null() {
                entries.push((v, i as u32));
            }
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        BTreeColumnIndex {
            entries,
            rows: column.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rows the index covers (= block rows, including nulls).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// First entry index whose value is >= `v` (lower bound).
    fn lower_bound(&self, v: &Value) -> usize {
        self.entries
            .partition_point(|(e, _)| e.total_cmp(v) == Ordering::Less)
    }

    /// First entry index whose value is > `v` (upper bound).
    fn upper_bound(&self, v: &Value) -> usize {
        self.entries
            .partition_point(|(e, _)| e.total_cmp(v) != Ordering::Greater)
    }

    /// Serves `column OP value` as a row bitmap. `CONTAINS` cannot be
    /// served by an ordered index.
    pub fn lookup(&self, op: BinaryOp, value: &Value) -> Result<BitVec> {
        let mut bits = BitVec::zeros(self.rows);
        let (lo, hi) = match op {
            BinaryOp::Eq => (self.lower_bound(value), self.upper_bound(value)),
            BinaryOp::Lt => (0, self.lower_bound(value)),
            BinaryOp::LtEq => (0, self.upper_bound(value)),
            BinaryOp::Gt => (self.upper_bound(value), self.entries.len()),
            BinaryOp::GtEq => (self.lower_bound(value), self.entries.len()),
            BinaryOp::NotEq => {
                // Complement of the equality range over non-null entries.
                let (elo, ehi) = (self.lower_bound(value), self.upper_bound(value));
                for (_, row) in &self.entries[..elo] {
                    bits.set(*row as usize, true);
                }
                for (_, row) in &self.entries[ehi..] {
                    bits.set(*row as usize, true);
                }
                return Ok(bits);
            }
            other => {
                return Err(FeisuError::Index(format!(
                    "B-tree index cannot serve operator {other}"
                )))
            }
        };
        for (_, row) in &self.entries[lo..hi] {
            bits.set(*row as usize, true);
        }
        Ok(bits)
    }

    /// Approximate in-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.entries
            .iter()
            .map(|(v, _)| v.footprint() + 4)
            .sum::<usize>()
            + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::DataType;
    use feisu_index::smart::scan_evaluate;
    use feisu_sql::cnf::SimplePredicate;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn lookup_equals_scan(
            seed in any::<u64>(),
            rows in 1usize..300,
            op in prop_oneof![
                Just(BinaryOp::Eq),
                Just(BinaryOp::NotEq),
                Just(BinaryOp::Lt),
                Just(BinaryOp::LtEq),
                Just(BinaryOp::Gt),
                Just(BinaryOp::GtEq),
            ],
            v in -30i64..30,
        ) {
            let mut rng = feisu_common::rng::DetRng::new(seed);
            let values: Vec<Value> = (0..rows)
                .map(|_| if rng.chance(0.1) { Value::Null } else { Value::Int64(rng.range_i64(-25, 25)) })
                .collect();
            let col = Column::from_values(DataType::Int64, &values).unwrap();
            let pred = SimplePredicate { column: "x".into(), op, value: Value::Int64(v) };
            let bt = BTreeColumnIndex::build(&col);
            prop_assert_eq!(bt.lookup(op, &pred.value).unwrap(), scan_evaluate(&col, &pred).unwrap());
        }
    }

    fn column() -> Column {
        Column::from_values(
            DataType::Int64,
            &(0..500)
                .map(|i| {
                    if i % 23 == 0 {
                        Value::Null
                    } else {
                        Value::Int64((i * 37) % 101)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn lookup_matches_scan_oracle_all_ops() {
        let col = column();
        let idx = BTreeColumnIndex::build(&col);
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            for v in [-5i64, 0, 13, 50, 100, 200] {
                let value = Value::Int64(v);
                let got = idx.lookup(op, &value).unwrap();
                let want = scan_evaluate(
                    &col,
                    &SimplePredicate {
                        column: "x".into(),
                        op,
                        value: value.clone(),
                    },
                )
                .unwrap();
                assert_eq!(got, want, "op {op} value {v}");
            }
        }
    }

    #[test]
    fn nulls_never_match() {
        let col = column();
        let idx = BTreeColumnIndex::build(&col);
        let all = idx.lookup(BinaryOp::GtEq, &Value::Int64(i64::MIN)).unwrap();
        assert_eq!(all.count_ones(), idx.len());
        assert!(all.count_ones() < col.len(), "nulls excluded");
    }

    #[test]
    fn contains_unsupported() {
        let col = Column::from_utf8(vec!["ab".into(), "cd".into()]);
        let idx = BTreeColumnIndex::build(&col);
        assert!(idx
            .lookup(BinaryOp::Contains, &Value::Utf8("a".into()))
            .is_err());
    }

    #[test]
    fn string_index_range() {
        let col = Column::from_utf8(vec![
            "banana".into(),
            "apple".into(),
            "cherry".into(),
            "apricot".into(),
        ]);
        let idx = BTreeColumnIndex::build(&col);
        let lt_b = idx.lookup(BinaryOp::Lt, &Value::Utf8("b".into())).unwrap();
        let ones: Vec<usize> = lt_b.iter_ones().collect();
        assert_eq!(ones, vec![1, 3]); // apple, apricot
    }

    #[test]
    fn empty_column() {
        let col = Column::from_i64(vec![]);
        let idx = BTreeColumnIndex::build(&col);
        assert!(idx.is_empty());
        assert_eq!(idx.lookup(BinaryOp::Eq, &Value::Int64(1)).unwrap().len(), 0);
    }
}
