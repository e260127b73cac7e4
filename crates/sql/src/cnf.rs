//! Conversion of predicates to conjunctive form.
//!
//! "Feisu's leaf servers will transform the predicates in query sub-plans
//! into conjunctive forms and check if there exist a SmartIndex for each
//! data block" (§IV-C-3). This module does that transformation:
//!
//! 1. NOT is pushed to the leaves (De Morgan), and `NOT (col > 5)` over a
//!    comparison becomes `col <= 5` — except that SQL's three-valued logic
//!    makes comparison negation *not* equivalent when the operand is NULL
//!    (`NOT (x > 5)` is unknown for null x, as is `x <= 5`, so it *is*
//!    equivalent for filtering purposes — both drop the row).
//! 2. OR is distributed over AND to reach CNF, with an expansion budget so
//!    pathological inputs fall back to treating the subtree as one opaque
//!    conjunct instead of exploding.
//!
//! The result is a list of conjuncts; each conjunct is a disjunction of
//! [`SimplePredicate`]s and/or opaque residual expressions. SmartIndex
//! keys on simple predicates (`column OP literal`).

use crate::ast::{BinaryOp, Expr};
use feisu_format::Value;
use std::fmt;

/// A predicate SmartIndex can evaluate and cache: `column OP literal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimplePredicate {
    pub column: String,
    pub op: BinaryOp,
    pub value: Value,
}

impl SimplePredicate {
    /// The canonical cache key (paper Fig. 6 header: op/colname/colvalue).
    pub fn key(&self) -> String {
        let mut key = String::new();
        self.write_key(self.op, &mut key);
        key
    }

    /// The cache key of the complementary predicate (`c > 5` → key of
    /// `c <= 5`), or `None` when the operator has no complement. Built
    /// directly from borrowed parts so index probes need not clone the
    /// column name and literal into a scratch `SimplePredicate`.
    pub fn negated_key(&self) -> Option<String> {
        let mut key = String::new();
        self.write_key(self.op.negate()?, &mut key);
        Some(key)
    }

    /// Appends the cache key of this predicate's column and literal under
    /// operator `op` to `out`.
    pub fn write_key(&self, op: BinaryOp, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}\u{1}{}\u{1}{}", self.column, op, self.value);
    }

    pub fn to_expr(&self) -> Expr {
        Expr::binary(
            self.op,
            Expr::Column(self.column.clone()),
            Expr::Literal(self.value.clone()),
        )
    }
}

impl fmt::Display for SimplePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// One disjunct inside a conjunct: either indexable or opaque.
#[derive(Debug, Clone, PartialEq)]
pub enum Disjunct {
    Simple(SimplePredicate),
    /// Anything SmartIndex cannot key on (arithmetic, col-col compares,
    /// IS NULL, …); still evaluated by the scan operator.
    Residual(Expr),
}

impl Disjunct {
    pub fn to_expr(&self) -> Expr {
        match self {
            Disjunct::Simple(p) => p.to_expr(),
            Disjunct::Residual(e) => e.clone(),
        }
    }
}

/// A disjunction of disjuncts — one clause of the CNF.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    pub disjuncts: Vec<Disjunct>,
}

impl Clause {
    pub fn to_expr(&self) -> Expr {
        let mut it = self.disjuncts.iter();
        let first = it.next().expect("clause is never empty").to_expr();
        it.fold(first, |acc, d| Expr::or(acc, d.to_expr()))
    }

    /// The clause's single simple predicate, if it is exactly that. These
    /// are the clauses SmartIndex serves directly.
    pub fn as_single_simple(&self) -> Option<&SimplePredicate> {
        match self.disjuncts.as_slice() {
            [Disjunct::Simple(p)] => Some(p),
            _ => None,
        }
    }

    /// The clause's predicates when every disjunct is simple — a clause
    /// SmartIndex answers as the bit-OR of their vectors — or `None` when
    /// one is opaque and the whole clause is evaluated row-wise.
    pub fn as_simple(&self) -> Option<impl Iterator<Item = &SimplePredicate>> {
        fn simple(d: &Disjunct) -> Option<&SimplePredicate> {
            match d {
                Disjunct::Simple(p) => Some(p),
                Disjunct::Residual(_) => None,
            }
        }
        let all = self.disjuncts.iter().all(|d| simple(d).is_some());
        all.then(|| self.disjuncts.iter().filter_map(simple))
    }
}

/// The full conjunctive form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cnf {
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Reassembles the CNF into a single expression (for the oracle and
    /// for residual evaluation).
    pub fn to_expr(&self) -> Option<Expr> {
        let mut it = self.clauses.iter();
        let first = it.next()?.to_expr();
        Some(it.fold(first, |acc, c| Expr::and(acc, c.to_expr())))
    }

    /// All simple single-predicate clauses (the SmartIndex-servable part).
    pub fn simple_clauses(&self) -> impl Iterator<Item = &SimplePredicate> {
        self.clauses.iter().filter_map(|c| c.as_single_simple())
    }
}

/// Max clause count produced by OR-over-AND distribution before the
/// converter bails out and keeps the subtree opaque.
const EXPANSION_BUDGET: usize = 64;

/// Converts a boolean expression into conjunctive form. NOT-handling
/// (negation-normal form) is shared with the optimizer via
/// [`crate::exprutil::push_not`].
pub fn to_cnf(expr: &Expr) -> Cnf {
    let nnf = crate::exprutil::push_not(expr, false);
    let clauses = distribute(&nnf);
    Cnf { clauses }
}

/// Distributes OR over AND. Returns the clause list; a subtree whose
/// expansion would exceed the budget is kept as one opaque clause.
fn distribute(expr: &Expr) -> Vec<Clause> {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut clauses = distribute(left);
            clauses.extend(distribute(right));
            clauses
        }
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => {
            let l = distribute(left);
            let r = distribute(right);
            if l.len() * r.len() > EXPANSION_BUDGET {
                return vec![Clause {
                    disjuncts: vec![Disjunct::Residual(expr.clone())],
                }];
            }
            let mut clauses = Vec::with_capacity(l.len() * r.len());
            for lc in &l {
                for rc in &r {
                    let mut disjuncts = lc.disjuncts.clone();
                    disjuncts.extend(rc.disjuncts.clone());
                    clauses.push(Clause { disjuncts });
                }
            }
            clauses
        }
        other => vec![Clause {
            disjuncts: vec![classify(other)],
        }],
    }
}

/// Classifies a leaf as indexable or residual, normalizing
/// `literal OP column` to `column OP' literal`.
fn classify(expr: &Expr) -> Disjunct {
    if let Expr::Binary { op, left, right } = expr {
        if op.is_comparison() {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => {
                    return Disjunct::Simple(SimplePredicate {
                        column: c.clone(),
                        op: *op,
                        value: v.clone(),
                    })
                }
                (Expr::Literal(v), Expr::Column(c)) => {
                    if let Some(flipped) = op.flip() {
                        return Disjunct::Simple(SimplePredicate {
                            column: c.clone(),
                            op: flipped,
                            value: v.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
    }
    Disjunct::Residual(expr.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_truth, Truth};
    use crate::parser::parse_expr;
    use std::collections::HashMap;

    fn cnf_of(src: &str) -> Cnf {
        to_cnf(&parse_expr(src).unwrap())
    }

    #[test]
    fn simple_conjunction_splits() {
        let c = cnf_of("a > 1 AND b = 'x' AND c <= 0");
        assert_eq!(c.clauses.len(), 3);
        assert_eq!(c.simple_clauses().count(), 3);
        assert_eq!(
            c.clauses[0].as_single_simple().unwrap().key(),
            SimplePredicate {
                column: "a".into(),
                op: BinaryOp::Gt,
                value: Value::Int64(1)
            }
            .key()
        );
    }

    #[test]
    fn not_over_comparison_absorbed() {
        // Paper Fig. 7: !(c2 > 5) should become c2 <= 5.
        let c = cnf_of("c2 > 0 AND !(c2 > 5)");
        assert_eq!(c.clauses.len(), 2);
        let p = c.clauses[1].as_single_simple().unwrap();
        assert_eq!(p.op, BinaryOp::LtEq);
        assert_eq!(p.value, Value::Int64(5));
    }

    #[test]
    fn de_morgan_flips_connectives() {
        let c = cnf_of("NOT (a > 1 OR b > 2)");
        // ¬(A∨B) = ¬A ∧ ¬B = two clauses.
        assert_eq!(c.clauses.len(), 2);
        assert_eq!(c.clauses[0].as_single_simple().unwrap().op, BinaryOp::LtEq);
    }

    #[test]
    fn or_over_and_distributes() {
        // (A ∧ B) ∨ C = (A∨C) ∧ (B∨C).
        let c = cnf_of("(a > 1 AND b > 2) OR c > 3");
        assert_eq!(c.clauses.len(), 2);
        assert_eq!(c.clauses[0].disjuncts.len(), 2);
        assert_eq!(c.clauses[1].disjuncts.len(), 2);
        // OR clauses are not single-simple.
        assert_eq!(c.simple_clauses().count(), 0);
    }

    #[test]
    fn literal_col_normalized() {
        let c = cnf_of("5 >= x");
        let p = c.clauses[0].as_single_simple().unwrap();
        assert_eq!(p.column, "x");
        assert_eq!(p.op, BinaryOp::LtEq);
        assert_eq!(p.value, Value::Int64(5));
    }

    #[test]
    fn contains_not_negatable_stays_residual_under_not() {
        let c = cnf_of("NOT (url CONTAINS 'spam')");
        assert_eq!(c.clauses.len(), 1);
        assert!(matches!(c.clauses[0].disjuncts[0], Disjunct::Residual(_)));
    }

    #[test]
    fn is_null_negation_flips_flag() {
        let c = cnf_of("NOT (x IS NULL)");
        match &c.clauses[0].disjuncts[0] {
            Disjunct::Residual(Expr::IsNull { negated, .. }) => assert!(negated),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pathological_expansion_bails_out() {
        // 8 nested (a∧b)∨(c∧d)… would explode; must stay bounded.
        let mut src = String::from("(a1 > 0 AND b1 > 0)");
        for i in 2..=10 {
            src = format!("({src} OR (a{i} > 0 AND b{i} > 0))");
        }
        let c = cnf_of(&src);
        assert!(c.clauses.len() <= EXPANSION_BUDGET + 1);
    }

    /// The key correctness property: CNF(expr) filters exactly like expr
    /// under three-valued logic, across a grid of row values incl. NULL.
    #[test]
    fn cnf_preserves_filtering_semantics() {
        let exprs = [
            "a > 1 AND b <= 2",
            "NOT (a > 1 AND b > 2)",
            "(a = 1 OR b = 2) AND NOT (a = 3)",
            "NOT (NOT (a > 0))",
            "(a > 0 AND b > 0) OR (a < 0 AND b < 0)",
            "a > 1 OR (b > 2 AND (a < 5 OR b < 1))",
            "!(a <= 2) AND !(b != 1)",
        ];
        let candidates = [
            Value::Null,
            Value::Int64(0),
            Value::Int64(1),
            Value::Int64(2),
            Value::Int64(3),
        ];
        for src in exprs {
            let e = parse_expr(src).unwrap();
            let cnf_expr = to_cnf(&e).to_expr().unwrap();
            for a in &candidates {
                for b in &candidates {
                    let mut row = HashMap::new();
                    row.insert("a".to_string(), a.clone());
                    row.insert("b".to_string(), b.clone());
                    let orig = eval_truth(&e, &row).unwrap();
                    let cnf = eval_truth(&cnf_expr, &row).unwrap();
                    // Filtering behaviour must match: passes() equality.
                    assert_eq!(
                        orig.passes(),
                        cnf.passes(),
                        "{src} with a={a}, b={b}: {orig:?} vs {cnf:?}"
                    );
                    // And in fact full 3VL equivalence should hold too.
                    assert_eq!(orig, cnf, "{src} 3VL mismatch at a={a}, b={b}");
                }
            }
        }
    }

    #[test]
    fn truth_is_reexported_semantics() {
        assert!(Truth::True.passes());
        assert!(!Truth::Unknown.passes());
    }
}
