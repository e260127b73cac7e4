//! Zone maps — the question a block footer's min/max statistics answer
//! (the `range` field of Fig. 6, kept once per block in the footer).
//!
//! A zone map is a column's min/max and NULL count over one block. Before
//! touching a block, the leaf asks of each predicate whether the zone rules
//! it out for every row (the whole block produces an all-zeros result for
//! free), proves it for every row (its column need not be read, nor the
//! predicate evaluated), or neither. The leaf asks it of the bounds where
//! they lie in the footer ([`verdict`]), copying neither.

use feisu_format::{ColumnStats, Value};
use feisu_sql::ast::BinaryOp;
use std::cmp::Ordering;

/// What a zone says of a predicate over every row of its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No row passes.
    Disproved,
    /// Every row passes.
    Proved,
    /// The zone cannot tell.
    Unknown,
}

/// The verdict on `column OP value` for a block of `rows` rows whose
/// column has `zone`. Conservative: a comparison the bounds cannot order
/// (incomparable types, a NaN bound), `CONTAINS` and any other operator
/// are unknown, and a column holding a NULL is never proved — a
/// comparison is never true on NULL.
pub fn verdict(zone: &ColumnStats, rows: usize, op: BinaryOp, value: &Value) -> Verdict {
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        // No bounds: no row holds a value. Disproved when provably
        // all-null (or empty).
        return match zone.null_count == rows {
            true => Verdict::Disproved,
            false => Verdict::Unknown,
        };
    };
    let (Some(lo), Some(hi)) = (min.sql_cmp(value), max.sql_cmp(value)) else {
        return Verdict::Unknown;
    };
    use Ordering::{Equal, Greater, Less};
    // (no row passes, every non-NULL row passes), from where the value
    // lies against the bounds.
    let (none, all) = match op {
        BinaryOp::Eq => (lo == Greater || hi == Less, lo == Equal && hi == Equal),
        // Only a constant block equal to the value fails every row; only a
        // value outside the bounds passes every row.
        BinaryOp::NotEq => (lo == Equal && hi == Equal, lo == Greater || hi == Less),
        BinaryOp::Lt => (lo != Less, hi == Less),
        BinaryOp::LtEq => (lo == Greater, hi != Greater),
        BinaryOp::Gt => (hi != Greater, lo == Greater),
        BinaryOp::GtEq => (hi == Less, lo != Less),
        _ => (false, false),
    };
    match (none, all) {
        (true, _) => Verdict::Disproved,
        (false, true) if zone.null_count == 0 => Verdict::Proved,
        _ => Verdict::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Verdict::{Disproved, Proved, Unknown};

    /// `[min, max]` with `nulls` NULL rows of 100, as the question
    /// [`verdict`] asks of it.
    struct Zone(ColumnStats);

    impl Zone {
        fn verdict(&self, op: BinaryOp, value: &Value) -> Verdict {
            verdict(&self.0, 100, op, value)
        }
    }

    fn zone(min: Value, max: Value, nulls: usize) -> Zone {
        Zone(ColumnStats {
            min: Some(min),
            max: Some(max),
            null_count: nulls,
        })
    }

    fn zm(lo: i64, hi: i64) -> Zone {
        zone(Value::Int64(lo), Value::Int64(hi), 0)
    }

    #[test]
    fn eq_pruning() {
        let z = zm(10, 20);
        assert_eq!(z.verdict(BinaryOp::Eq, &Value::Int64(10)), Unknown);
        assert_eq!(z.verdict(BinaryOp::Eq, &Value::Int64(15)), Unknown);
        assert_eq!(z.verdict(BinaryOp::Eq, &Value::Int64(9)), Disproved);
        assert_eq!(z.verdict(BinaryOp::Eq, &Value::Int64(21)), Disproved);
        // Proved only on a constant block holding the value.
        assert_eq!(zm(7, 7).verdict(BinaryOp::Eq, &Value::Int64(7)), Proved);
    }

    #[test]
    fn range_pruning() {
        let z = zm(10, 20);
        let cases = [
            (BinaryOp::Lt, 10, Disproved),
            (BinaryOp::Lt, 11, Unknown),
            (BinaryOp::Lt, 20, Unknown),
            (BinaryOp::Lt, 21, Proved),
            (BinaryOp::LtEq, 9, Disproved),
            (BinaryOp::LtEq, 10, Unknown),
            (BinaryOp::LtEq, 19, Unknown),
            (BinaryOp::LtEq, 20, Proved),
            (BinaryOp::Gt, 20, Disproved),
            (BinaryOp::Gt, 19, Unknown),
            (BinaryOp::Gt, 10, Unknown),
            (BinaryOp::Gt, 9, Proved),
            (BinaryOp::GtEq, 21, Disproved),
            (BinaryOp::GtEq, 20, Unknown),
            (BinaryOp::GtEq, 11, Unknown),
            (BinaryOp::GtEq, 10, Proved),
        ];
        for (op, value, want) in cases {
            assert_eq!(z.verdict(op, &Value::Int64(value)), want, "{op} {value}");
        }
    }

    #[test]
    fn noteq_prunes_only_constant_blocks() {
        let constant = zm(7, 7);
        assert_eq!(
            constant.verdict(BinaryOp::NotEq, &Value::Int64(7)),
            Disproved
        );
        assert_eq!(constant.verdict(BinaryOp::NotEq, &Value::Int64(8)), Proved);
        let varied = zm(1, 9);
        assert_eq!(varied.verdict(BinaryOp::NotEq, &Value::Int64(5)), Unknown);
        assert_eq!(varied.verdict(BinaryOp::NotEq, &Value::Int64(0)), Proved);
        assert_eq!(varied.verdict(BinaryOp::NotEq, &Value::Int64(10)), Proved);
    }

    #[test]
    fn mixed_numeric_comparison() {
        let z = zm(10, 20);
        assert_eq!(z.verdict(BinaryOp::Gt, &Value::Float64(19.5)), Unknown);
        assert_eq!(z.verdict(BinaryOp::Gt, &Value::Float64(20.5)), Disproved);
        assert_eq!(z.verdict(BinaryOp::Gt, &Value::Float64(9.5)), Proved);
        let floats = zone(Value::Float64(-0.0), Value::Float64(0.0), 0);
        assert_eq!(floats.verdict(BinaryOp::Eq, &Value::Int64(0)), Proved);
        assert_eq!(
            floats.verdict(BinaryOp::Lt, &Value::Float64(0.0)),
            Disproved
        );
    }

    #[test]
    fn incomparable_types_never_prune() {
        let z = zm(10, 20);
        assert_eq!(z.verdict(BinaryOp::Eq, &Value::Utf8("x".into())), Unknown);
        assert_eq!(
            z.verdict(BinaryOp::NotEq, &Value::Utf8("x".into())),
            Unknown
        );
        assert_eq!(
            z.verdict(BinaryOp::Contains, &Value::Utf8("x".into())),
            Unknown
        );
        // A NaN bound or literal orders nothing.
        let nan = zone(Value::Float64(1.0), Value::Float64(f64::NAN), 0);
        assert_eq!(nan.verdict(BinaryOp::Gt, &Value::Int64(0)), Unknown);
        assert_eq!(nan.verdict(BinaryOp::Lt, &Value::Int64(0)), Unknown);
        assert_eq!(
            z.verdict(BinaryOp::NotEq, &Value::Float64(f64::NAN)),
            Unknown
        );
    }

    #[test]
    fn string_zonemap() {
        let z = zone(Value::Utf8("apple".into()), Value::Utf8("mango".into()), 0);
        assert_eq!(
            z.verdict(BinaryOp::Eq, &Value::Utf8("banana".into())),
            Unknown
        );
        assert_eq!(
            z.verdict(BinaryOp::Eq, &Value::Utf8("zebra".into())),
            Disproved
        );
        assert_eq!(
            z.verdict(BinaryOp::NotEq, &Value::Utf8("zebra".into())),
            Proved
        );
        assert_eq!(z.verdict(BinaryOp::GtEq, &Value::Utf8("".into())), Proved);
    }

    #[test]
    fn nulls_are_never_proved_and_all_null_is_disproved() {
        let z = zone(Value::Int64(10), Value::Int64(20), 3);
        assert_eq!(z.verdict(BinaryOp::GtEq, &Value::Int64(10)), Unknown);
        assert_eq!(z.verdict(BinaryOp::Gt, &Value::Int64(20)), Disproved);
        let all_null = Zone(ColumnStats {
            min: None,
            max: None,
            null_count: 100,
        });
        assert_eq!(
            all_null.verdict(BinaryOp::NotEq, &Value::Int64(1)),
            Disproved
        );
        // Bounds missing on a column with values: nothing is known.
        let unbounded = Zone(ColumnStats {
            min: None,
            max: None,
            null_count: 3,
        });
        assert_eq!(
            unbounded.verdict(BinaryOp::NotEq, &Value::Int64(1)),
            Unknown
        );
        // A block of no rows: every predicate is disproved.
        let empty = ColumnStats {
            min: None,
            max: None,
            null_count: 0,
        };
        assert_eq!(
            verdict(&empty, 0, BinaryOp::GtEq, &Value::Int64(0)),
            Disproved
        );
    }
}
