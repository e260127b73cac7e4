//! Zone maps — the question a block footer's min/max statistics answer
//! (the `range` field of Fig. 6, kept once per block in the footer).
//!
//! A zone map is a column's min/max over one block. Before touching a
//! block, the leaf asks whether a predicate can possibly match anything
//! inside the range; if not, the whole block produces an all-zeros result
//! for free. The leaf asks it of the bounds where they lie in the footer
//! ([`may_match`]), copying neither.

use feisu_format::Value;
use feisu_sql::ast::BinaryOp;
use std::cmp::Ordering;

/// Whether `column OP value` can be true for *any* row of a block whose
/// column lies in `[min, max]`. `true` = must scan; `false` = skip
/// entirely. Conservative: unknown comparisons return `true`.
pub fn may_match(min: &Value, max: &Value, op: BinaryOp, value: &Value) -> bool {
    let (Some(lo), Some(hi)) = (min.sql_cmp(value), max.sql_cmp(value)) else {
        return true;
    };
    match op {
        // Some row == value requires min <= value <= max.
        BinaryOp::Eq => lo != Ordering::Greater && hi != Ordering::Less,
        // Some row != value fails only when min == max == value.
        BinaryOp::NotEq => !(lo == Ordering::Equal && hi == Ordering::Equal),
        // Some row < value requires min < value.
        BinaryOp::Lt => lo == Ordering::Less,
        BinaryOp::LtEq => lo != Ordering::Greater,
        // Some row > value requires max > value.
        BinaryOp::Gt => hi == Ordering::Greater,
        BinaryOp::GtEq => hi != Ordering::Less,
        // CONTAINS and anything else: cannot prune by range.
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[min, max]` as the question [`may_match`] asks of it.
    struct Zone(Value, Value);

    impl Zone {
        fn may_match(&self, op: BinaryOp, value: &Value) -> bool {
            may_match(&self.0, &self.1, op, value)
        }
    }

    fn zm(lo: i64, hi: i64) -> Zone {
        Zone(Value::Int64(lo), Value::Int64(hi))
    }

    #[test]
    fn eq_pruning() {
        let z = zm(10, 20);
        assert!(z.may_match(BinaryOp::Eq, &Value::Int64(10)));
        assert!(z.may_match(BinaryOp::Eq, &Value::Int64(15)));
        assert!(!z.may_match(BinaryOp::Eq, &Value::Int64(9)));
        assert!(!z.may_match(BinaryOp::Eq, &Value::Int64(21)));
    }

    #[test]
    fn range_pruning() {
        let z = zm(10, 20);
        assert!(!z.may_match(BinaryOp::Lt, &Value::Int64(10)));
        assert!(z.may_match(BinaryOp::Lt, &Value::Int64(11)));
        assert!(z.may_match(BinaryOp::LtEq, &Value::Int64(10)));
        assert!(!z.may_match(BinaryOp::LtEq, &Value::Int64(9)));
        assert!(!z.may_match(BinaryOp::Gt, &Value::Int64(20)));
        assert!(z.may_match(BinaryOp::Gt, &Value::Int64(19)));
        assert!(z.may_match(BinaryOp::GtEq, &Value::Int64(20)));
        assert!(!z.may_match(BinaryOp::GtEq, &Value::Int64(21)));
    }

    #[test]
    fn noteq_prunes_only_constant_blocks() {
        let constant = zm(7, 7);
        assert!(!constant.may_match(BinaryOp::NotEq, &Value::Int64(7)));
        assert!(constant.may_match(BinaryOp::NotEq, &Value::Int64(8)));
        let varied = zm(1, 9);
        assert!(varied.may_match(BinaryOp::NotEq, &Value::Int64(5)));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let z = zm(10, 20);
        assert!(z.may_match(BinaryOp::Gt, &Value::Float64(19.5)));
        assert!(!z.may_match(BinaryOp::Gt, &Value::Float64(20.5)));
    }

    #[test]
    fn incomparable_types_never_prune() {
        let z = zm(10, 20);
        assert!(z.may_match(BinaryOp::Eq, &Value::Utf8("x".into())));
        assert!(z.may_match(BinaryOp::Contains, &Value::Utf8("x".into())));
    }

    #[test]
    fn string_zonemap() {
        let z = Zone(Value::Utf8("apple".into()), Value::Utf8("mango".into()));
        assert!(z.may_match(BinaryOp::Eq, &Value::Utf8("banana".into())));
        assert!(!z.may_match(BinaryOp::Eq, &Value::Utf8("zebra".into())));
    }
}
