//! The SmartIndex record (paper Fig. 6), kept in memory only: indexes are
//! never persisted, so Fig. 6's `magic` has no byte form to open.
//!
//! Header: the block id, the predicate (its key is `op/colname/colvalue`)
//! and the compress type, which is the form [`CompressedBits`] chose; Fig.
//! 6's auxiliary `range` lives once per block in the footer's zone
//! statistics, not per index. Payload: the compressed
//! 0-1 vector of the predicate's evaluation result, and — required for
//! correct negation reuse under SQL's three-valued logic — the block
//! column's null positions. A NOT served from an index must exclude null
//! rows: `!(c > 5)` is *unknown* for a null `c`, and unknown rows do not
//! pass filters, so `bits(NOT p) = !(bits(p) | nulls)`.

use crate::bitvec::CompressedBits;
use crate::kernel::compare_column;
use feisu_common::{BlockId, FeisuError, Result, SimInstant};
use feisu_format::{BitVec, Block, Column};
use feisu_sql::cnf::SimplePredicate;

/// One SmartIndex: the cached evaluation of one simple predicate over one
/// block.
#[derive(Debug, Clone, PartialEq)]
pub struct SmartIndex {
    /// Which block the result covers.
    pub block_id: BlockId,
    /// The predicate this index answers.
    pub predicate: SimplePredicate,
    /// Rows in the block (= bit length).
    pub rows: usize,
    /// Compressed evaluation result: bit i set ⇔ row i satisfies the
    /// predicate (nulls are never set).
    bits: CompressedBits,
    /// Null positions of the predicate column, present only when the
    /// column actually contains nulls.
    nulls: Option<CompressedBits>,
    /// When the index was created (TTL bookkeeping).
    pub created_at: SimInstant,
}

impl SmartIndex {
    /// Builds an index by actually evaluating `predicate` against the
    /// block. This is the slow path whose result later queries reuse.
    pub fn build(
        block: &Block,
        predicate: &SimplePredicate,
        now: SimInstant,
    ) -> Result<SmartIndex> {
        Self::evaluate(block, predicate, now).map(|(index, _)| index)
    }

    /// [`SmartIndex::build`], handing back the uncompressed result too: the
    /// query that pays for the evaluation needs the vector it just made,
    /// not a decompressed copy of it.
    pub fn evaluate(
        block: &Block,
        predicate: &SimplePredicate,
        now: SimInstant,
    ) -> Result<(SmartIndex, BitVec)> {
        let column = predicate_column(block, predicate)?;
        let bits = compare_column(column, predicate.op, &predicate.value)?;
        let index = SmartIndex {
            block_id: block.id(),
            predicate: predicate.clone(),
            rows: block.rows(),
            bits: CompressedBits::from_bitvec(&bits),
            // The NULL rows are the complement of the validity bitmap.
            nulls: (column.null_count() > 0).then(|| {
                let mut nulls = column.validity().bits().clone();
                nulls.not_assign();
                CompressedBits::from_bitvec(&nulls)
            }),
            created_at: now,
        };
        Ok((index, bits))
    }

    /// The index of a predicate a block's zones prove for each of its
    /// `rows` rows, built without a read: one run of ones, no NULL (a
    /// proved column holds none).
    pub fn all_rows(
        block_id: BlockId,
        predicate: &SimplePredicate,
        rows: usize,
        now: SimInstant,
    ) -> SmartIndex {
        SmartIndex {
            block_id,
            predicate: predicate.clone(),
            rows,
            bits: CompressedBits::from_bitvec(&BitVec::ones(rows)),
            nulls: None,
            created_at: now,
        }
    }

    /// The positive evaluation result.
    pub fn bits(&self) -> BitVec {
        self.bits.to_bitvec()
    }

    /// The result for the *negated* predicate under 3VL: set rows are
    /// those where `NOT predicate` is true (nulls excluded). This is the
    /// Fig. 7 bit-NOT reuse.
    pub fn negated_bits(&self) -> BitVec {
        let mut bits = self.bits.to_bitvec();
        bits.not_assign();
        if let Some(nulls) = &self.nulls {
            let nulls = nulls.to_bitvec();
            bits.and_not_assign(&nulls)
                .expect("null mask has index length");
        }
        bits
    }

    /// Rows matching the predicate.
    pub fn selectivity(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.bits.count_ones() as f64 / self.rows as f64
        }
    }

    /// Count of matching rows (serves `COUNT(*)` without materializing).
    pub fn count(&self) -> usize {
        self.bits.count_ones()
    }

    /// In-memory footprint used by the manager's budget accounting.
    pub fn footprint(&self) -> usize {
        let mut f = self.bits.footprint() + 96 + self.predicate.key().len();
        if let Some(n) = &self.nulls {
            f += n.footprint();
        }
        f
    }

    /// The cache key this index answers (op/colname/colvalue of Fig. 6).
    pub fn key(&self) -> String {
        self.predicate.key()
    }
}

/// The block column a predicate reads; a block without it cannot answer.
pub(crate) fn predicate_column<'a>(
    block: &'a Block,
    predicate: &SimplePredicate,
) -> Result<&'a Column> {
    block.column_by_name(&predicate.column).ok_or_else(|| {
        FeisuError::Index(format!(
            "block {} has no column `{}`",
            block.id(),
            predicate.column
        ))
    })
}

/// Evaluates a simple predicate over a column without an index: what a
/// leaf does when SmartIndex is off.
pub fn scan_evaluate(column: &Column, predicate: &SimplePredicate) -> Result<BitVec> {
    compare_column(column, predicate.op, &predicate.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Field, Schema, Value};
    use feisu_sql::ast::BinaryOp;

    fn test_block() -> Block {
        let schema = Schema::new(vec![
            Field::new("c2", DataType::Int64, true),
            Field::new("url", DataType::Utf8, false),
        ]);
        let c2 = Column::from_values(
            DataType::Int64,
            &(0..100)
                .map(|i| {
                    if i % 10 == 9 {
                        Value::Null
                    } else {
                        Value::Int64(i % 20)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let url = Column::from_utf8((0..100).map(|i| format!("page{}", i % 5)).collect());
        Block::new(BlockId(7), schema, vec![c2, url]).unwrap()
    }

    fn pred(col: &str, op: BinaryOp, v: Value) -> SimplePredicate {
        SimplePredicate {
            column: col.into(),
            op,
            value: v,
        }
    }

    #[test]
    fn build_matches_scan_oracle() {
        let block = test_block();
        for (op, v) in [
            (BinaryOp::Gt, Value::Int64(5)),
            (BinaryOp::LtEq, Value::Int64(10)),
            (BinaryOp::Eq, Value::Int64(3)),
            (BinaryOp::NotEq, Value::Int64(0)),
        ] {
            let p = pred("c2", op, v);
            let idx = SmartIndex::build(&block, &p, SimInstant(0)).unwrap();
            let oracle = scan_evaluate(block.column_by_name("c2").unwrap(), &p).unwrap();
            assert_eq!(idx.bits(), oracle, "op {op}");
        }
    }

    #[test]
    fn an_all_rows_index_is_the_build_of_a_predicate_every_row_passes() {
        let block = test_block();
        let p = pred("url", BinaryOp::GtEq, Value::Utf8("page0".into()));
        let built = SmartIndex::build(&block, &p, SimInstant(3)).unwrap();
        let proved = SmartIndex::all_rows(block.id(), &p, block.rows(), SimInstant(3));
        assert_eq!(proved, built);
        // Its complement is empty, as Fig. 7's bit-NOT reuse reads it.
        assert_eq!(proved.negated_bits().count_ones(), 0);
    }

    #[test]
    fn contains_predicate_indexable() {
        let block = test_block();
        let p = pred("url", BinaryOp::Contains, Value::Utf8("page1".into()));
        let idx = SmartIndex::build(&block, &p, SimInstant(0)).unwrap();
        assert_eq!(idx.count(), 20);
    }

    #[test]
    fn negated_bits_exclude_nulls() {
        let block = test_block();
        let p = pred("c2", BinaryOp::Gt, Value::Int64(5));
        let idx = SmartIndex::build(&block, &p, SimInstant(0)).unwrap();
        let neg = idx.negated_bits();
        // Oracle: NOT (c2 > 5) ⇔ c2 <= 5 for non-null rows.
        let oracle = scan_evaluate(
            block.column_by_name("c2").unwrap(),
            &pred("c2", BinaryOp::LtEq, Value::Int64(5)),
        )
        .unwrap();
        assert_eq!(neg, oracle);
        // And positive + negative never cover a null row.
        let col = block.column_by_name("c2").unwrap();
        for i in 0..block.rows() {
            if col.value(i).is_null() {
                assert!(!idx.bits().get(i) && !neg.get(i), "null row {i} leaked");
            }
        }
    }

    #[test]
    fn selectivity_and_count() {
        let block = test_block();
        let p = pred("c2", BinaryOp::Lt, Value::Int64(0));
        let idx = SmartIndex::build(&block, &p, SimInstant(0)).unwrap();
        assert_eq!(idx.count(), 0);
        assert_eq!(idx.selectivity(), 0.0);
    }

    #[test]
    fn missing_column_errors() {
        let block = test_block();
        let p = pred("ghost", BinaryOp::Eq, Value::Int64(1));
        assert!(SmartIndex::build(&block, &p, SimInstant(0)).is_err());
    }

    #[test]
    fn type_mismatch_errors() {
        let block = test_block();
        let p = pred("c2", BinaryOp::Contains, Value::Utf8("x".into()));
        assert!(SmartIndex::build(&block, &p, SimInstant(0)).is_err());
    }

    #[test]
    fn footprint_accounts_payload() {
        let block = test_block();
        let p = pred("c2", BinaryOp::Gt, Value::Int64(5));
        let idx = SmartIndex::build(&block, &p, SimInstant(0)).unwrap();
        // Both payload vectors are charged: the result and `c2`'s null mask.
        let nulls = idx.nulls.as_ref().expect("c2 has NULLs");
        assert!(idx.footprint() > idx.bits.footprint() + nulls.footprint());
    }
}
