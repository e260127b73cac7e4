//! Shared expression rewriting utilities.
//!
//! Both sides of the engine rename column references between the
//! *canonical* namespace the planner uses (possibly `table.column`
//! qualified) and the *storage* namespace blocks are written with (bare
//! column names, or dotted flattened-JSON paths). The leaf servers rename
//! through an explicit canonical→storage map; the oracle executor simply
//! strips qualifiers. Keeping the recursion in one place keeps the two
//! sides from drifting.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::cnf::{Clause, Cnf, Disjunct, SimplePredicate};
use feisu_common::hash::FxHashMap;
use feisu_format::{Schema, Value};

/// Rewrites every column reference in `e` through `f`.
pub fn map_columns(e: &Expr, f: &impl Fn(&str) -> String) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(f(c)),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(map_columns(left, f)),
            right: Box::new(map_columns(right, f)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(map_columns(operand, f)),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(map_columns(operand, f)),
            negated: *negated,
        },
        Expr::Aggregate { func, arg, within } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(map_columns(a, f))),
            within: within.as_ref().map(|w| Box::new(map_columns(w, f))),
        },
    }
}

/// Renames column refs in an expression through the canonical→storage
/// map; unmapped names pass through unchanged.
pub fn rename_expr(e: &Expr, map: &FxHashMap<String, String>) -> Expr {
    map_columns(e, &|c| map.get(c).cloned().unwrap_or_else(|| c.to_string()))
}

/// Renames CNF predicate columns through the canonical→storage map.
pub fn rename_cnf(cnf: &Cnf, map: &FxHashMap<String, String>) -> Cnf {
    Cnf {
        clauses: cnf
            .clauses
            .iter()
            .map(|c| Clause {
                disjuncts: c
                    .disjuncts
                    .iter()
                    .map(|d| match d {
                        Disjunct::Simple(p) => Disjunct::Simple(SimplePredicate {
                            column: map
                                .get(&p.column)
                                .cloned()
                                .unwrap_or_else(|| p.column.clone()),
                            op: p.op,
                            value: p.value.clone(),
                        }),
                        Disjunct::Residual(e) => Disjunct::Residual(rename_expr(e, map)),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Rewrites `t.c` column references to bare `c` (scan-local storage
/// names).
pub fn strip_qualifiers(e: &Expr) -> Expr {
    map_columns(e, &|c| c.rsplit('.').next().unwrap_or(c).to_string())
}

// ------------------------------------------------- boolean simplification
//
// The single home for trivial-predicate detection and NOT-handling. The
// optimizer's simplification rule, the CNF converter and the index
// rewriter all share these, so the three sites cannot drift.

/// Detects trivially-false predicates (`literal false`), letting the
/// engine skip whole scans. Conservative: only a literal `false`.
pub fn predicate_is_false(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Bool(false)))
}

/// Detects trivially-true predicates so filters can be dropped.
pub fn predicate_is_true(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Bool(true)))
}

/// Pushes negation down to the leaves (negation-normal form). Comparisons
/// absorb the negation via `BinaryOp::negate`; anything else keeps an
/// explicit NOT. With `negated = false` this is a plain NNF normalizer;
/// the CNF converter calls it before distributing OR over AND.
pub fn push_not(expr: &Expr, negated: bool) -> Expr {
    match expr {
        Expr::Unary {
            op: UnaryOp::Not,
            operand,
        } => push_not(operand, !negated),
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let (l, r) = (push_not(left, negated), push_not(right, negated));
            if negated {
                Expr::or(l, r)
            } else {
                Expr::and(l, r)
            }
        }
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => {
            let (l, r) = (push_not(left, negated), push_not(right, negated));
            if negated {
                Expr::and(l, r)
            } else {
                Expr::or(l, r)
            }
        }
        Expr::Binary { op, left, right } if negated && op.is_comparison() => match op.negate() {
            Some(neg) => Expr::binary(neg, (**left).clone(), (**right).clone()),
            None => Expr::not(expr.clone()),
        },
        Expr::IsNull {
            operand,
            negated: n,
        } if negated => Expr::IsNull {
            operand: operand.clone(),
            negated: !n,
        },
        _ if negated => Expr::not(expr.clone()),
        _ => expr.clone(),
    }
}

/// Is the literal an `Int64` zero? (The only zero that arithmetic
/// identities may drop without changing the expression's result type.)
fn is_int_zero(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Int64(0)))
}

fn is_int_one(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Int64(1)))
}

/// Bottom-up boolean/arithmetic identity simplification, safe under SQL
/// three-valued logic:
///
/// - `x AND TRUE → x`, `x AND FALSE → FALSE` (NULL AND FALSE is FALSE),
///   `x OR FALSE → x`, `x OR TRUE → TRUE` (NULL OR TRUE is TRUE)
/// - `NOT NOT x → x`, `NOT literal → literal`
/// - `x + 0 → x`, `x - 0 → x`, `x * 1 → x`, `x / 1 → x` — only for
///   `Int64` literals so the result type never widens or narrows. Note
///   `x * 0` is *not* folded: `NULL * 0` is NULL, not 0.
pub fn simplify_expr(e: &Expr) -> Expr {
    match e {
        Expr::Binary { op, left, right } => {
            let l = simplify_expr(left);
            let r = simplify_expr(right);
            match op {
                BinaryOp::And => {
                    if predicate_is_true(&l) {
                        return r;
                    }
                    if predicate_is_true(&r) {
                        return l;
                    }
                    if predicate_is_false(&l) || predicate_is_false(&r) {
                        return Expr::Literal(Value::Bool(false));
                    }
                    Expr::and(l, r)
                }
                BinaryOp::Or => {
                    if predicate_is_false(&l) {
                        return r;
                    }
                    if predicate_is_false(&r) {
                        return l;
                    }
                    if predicate_is_true(&l) || predicate_is_true(&r) {
                        return Expr::Literal(Value::Bool(true));
                    }
                    Expr::or(l, r)
                }
                BinaryOp::Plus => {
                    if is_int_zero(&l) {
                        return r;
                    }
                    if is_int_zero(&r) {
                        return l;
                    }
                    Expr::binary(*op, l, r)
                }
                BinaryOp::Minus if is_int_zero(&r) => l,
                BinaryOp::Multiply => {
                    if is_int_one(&l) {
                        return r;
                    }
                    if is_int_one(&r) {
                        return l;
                    }
                    Expr::binary(*op, l, r)
                }
                BinaryOp::Divide if is_int_one(&r) => l,
                _ => Expr::binary(*op, l, r),
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            operand,
        } => match simplify_expr(operand) {
            Expr::Unary {
                op: UnaryOp::Not,
                operand: inner,
            } => *inner,
            Expr::Literal(Value::Bool(b)) => Expr::Literal(Value::Bool(!b)),
            other => Expr::not(other),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(simplify_expr(operand)),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(simplify_expr(operand)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

// --------------------------------------------------------- schema queries

/// True when `e` references at least one column and every referenced
/// column exists in `schema`.
pub fn refs_within(e: &Expr, schema: &Schema) -> bool {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    !cols.is_empty() && cols.iter().all(|c| schema.index_of(c).is_some())
}

/// True when `e` is an equality whose sides reference columns entirely
/// within `left`/`right` respectively (in either orientation) — i.e. a
/// conjunct that can serve as a hash-join key across that boundary.
pub fn equi_across(e: &Expr, left: &Schema, right: &Schema) -> bool {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left: a,
        right: b,
    } = e
    else {
        return false;
    };
    (refs_within(a, left) && refs_within(b, right))
        || (refs_within(a, right) && refs_within(b, left))
}

/// Folds conjuncts back into a single `AND` chain; `None` when empty.
pub fn combine_conjuncts(conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut it = conjuncts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, Expr::and))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn where_expr(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    fn map(pairs: &[(&str, &str)]) -> FxHashMap<String, String> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn rename_expr_maps_and_passes_through() {
        let e = where_expr("SELECT a FROM t WHERE t.clicks > 5 AND other = 1");
        let renamed = rename_expr(&e, &map(&[("t.clicks", "clicks")]));
        let s = renamed.to_string();
        assert!(s.contains("clicks > 5"), "{s}");
        assert!(!s.contains("t.clicks"), "{s}");
        // Unmapped columns survive unchanged.
        assert!(s.contains("other = 1"), "{s}");
    }

    #[test]
    fn rename_expr_descends_into_aggregates_and_unary() {
        let q = parse_query("SELECT SUM(t.x) FROM t WHERE NOT (t.x IS NULL)").unwrap();
        let agg = &q.select[0].expr;
        let renamed = rename_expr(agg, &map(&[("t.x", "x")]));
        assert_eq!(renamed.to_string(), "SUM(x)");
        let w = rename_expr(&q.where_clause.unwrap(), &map(&[("t.x", "x")]));
        assert!(!w.to_string().contains("t.x"), "{w}");
    }

    #[test]
    fn rename_cnf_renames_simple_and_residual_disjuncts() {
        let e = where_expr("SELECT a FROM t WHERE t.a > 1 AND (t.b = 2 OR t.c IS NULL)");
        let cnf = crate::cnf::to_cnf(&e);
        let renamed = rename_cnf(&cnf, &map(&[("t.a", "a"), ("t.b", "b"), ("t.c", "c")]));
        let shown: Vec<String> = renamed
            .clauses
            .iter()
            .map(|c| c.to_expr().to_string())
            .collect();
        for s in &shown {
            assert!(!s.contains("t."), "{s}");
        }
    }

    #[test]
    fn strip_qualifiers_keeps_last_segment() {
        let e = where_expr("SELECT a FROM t WHERE t.clicks > 5 AND bare = 1");
        let s = strip_qualifiers(&e).to_string();
        assert!(s.contains("(clicks > 5)"), "{s}");
        assert!(s.contains("(bare = 1)"), "{s}");
    }

    #[test]
    fn strip_qualifiers_is_identity_on_bare_names() {
        let e = where_expr("SELECT a FROM t WHERE clicks > 5");
        assert_eq!(strip_qualifiers(&e), e);
    }

    fn expr(src: &str) -> Expr {
        crate::parser::parse_expr(src).unwrap()
    }

    #[test]
    fn trivial_predicates_detected() {
        use feisu_format::Value;
        assert!(predicate_is_false(&Expr::Literal(Value::Bool(false))));
        assert!(predicate_is_true(&Expr::Literal(Value::Bool(true))));
        assert!(!predicate_is_false(&expr("x > 2")));
        assert!(!predicate_is_true(&expr("x > 2")));
    }

    #[test]
    fn simplify_boolean_identities() {
        assert_eq!(
            simplify_expr(&expr("x > 1 AND true")).to_string(),
            "(x > 1)"
        );
        assert_eq!(
            simplify_expr(&expr("true AND x > 1")).to_string(),
            "(x > 1)"
        );
        assert_eq!(simplify_expr(&expr("x > 1 AND false")).to_string(), "false");
        assert_eq!(
            simplify_expr(&expr("x > 1 OR false")).to_string(),
            "(x > 1)"
        );
        assert_eq!(simplify_expr(&expr("x > 1 OR true")).to_string(), "true");
        assert_eq!(
            simplify_expr(&expr("NOT NOT (x > 1)")).to_string(),
            "(x > 1)"
        );
        assert_eq!(simplify_expr(&expr("NOT false")).to_string(), "true");
        // Nested: the AND collapses first, then the OR.
        assert_eq!(
            simplify_expr(&expr("(x > 1 AND false) OR y = 2")).to_string(),
            "(y = 2)"
        );
    }

    #[test]
    fn simplify_arithmetic_identities() {
        assert_eq!(simplify_expr(&expr("x + 0")).to_string(), "x");
        assert_eq!(simplify_expr(&expr("0 + x")).to_string(), "x");
        assert_eq!(simplify_expr(&expr("x - 0")).to_string(), "x");
        assert_eq!(simplify_expr(&expr("x * 1")).to_string(), "x");
        assert_eq!(simplify_expr(&expr("1 * x")).to_string(), "x");
        assert_eq!(simplify_expr(&expr("x / 1")).to_string(), "x");
        // NULL * 0 is NULL, so x * 0 must NOT fold to 0.
        assert_eq!(simplify_expr(&expr("x * 0")).to_string(), "(x * 0)");
        // Float zero would change an Int64 expression's type: keep it.
        let float_add = expr("x + 0.0");
        assert_eq!(simplify_expr(&float_add), float_add);
    }

    #[test]
    fn push_not_absorbs_comparisons() {
        let e = expr("NOT (a > 1)");
        assert_eq!(push_not(&e, false).to_string(), "(a <= 1)");
        // De Morgan through AND.
        let e = expr("NOT (a > 1 AND b > 2)");
        assert_eq!(push_not(&e, false).to_string(), "((a <= 1) OR (b <= 2))");
    }

    #[test]
    fn refs_within_and_equi_across() {
        use feisu_format::{DataType, Field, Schema};
        let l = Schema::new(vec![Field::new("t1.url", DataType::Utf8, false)]);
        let r = Schema::new(vec![Field::new("t2.url", DataType::Utf8, false)]);
        assert!(refs_within(&expr("t1.url = 'x'"), &l));
        assert!(!refs_within(&expr("t1.url = t2.url"), &l));
        assert!(!refs_within(&expr("1 = 1"), &l), "no columns, no refs");
        assert!(equi_across(&expr("t1.url = t2.url"), &l, &r));
        assert!(equi_across(&expr("t2.url = t1.url"), &l, &r), "flipped");
        assert!(!equi_across(&expr("t1.url > t2.url"), &l, &r), "not equi");
        assert!(!equi_across(&expr("t1.url = 'x'"), &l, &r), "single side");
    }

    #[test]
    fn combine_conjuncts_folds_with_and() {
        assert!(combine_conjuncts(vec![]).is_none());
        let combined = combine_conjuncts(vec![expr("a > 1"), expr("b > 2")]).unwrap();
        assert_eq!(combined.to_string(), "((a > 1) AND (b > 2))");
    }
}
