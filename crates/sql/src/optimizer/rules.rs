//! The individual plan-rewrite rules.
//!
//! Each rule is one self-contained `fn(&mut LogicalPlan) -> Result<bool>`:
//! it edits the nodes it matches where they stand, reaches children
//! through [`LogicalPlan::children_mut`], and returns whether the plan it
//! leaves differs from the plan it was given — the flag the pipeline in
//! [`super::pipeline`] counts fires by and stops on. Boolean helpers
//! (`predicate_is_true/false`, `simplify_expr`, `refs_within`,
//! `equi_across`) live in [`crate::exprutil`] and are shared with the
//! CNF converter and the leaf-side index rewriter.

use crate::ast::{Expr, JoinKind};
use crate::cnf::to_cnf;
use crate::eval::eval;
use crate::exprutil::{
    combine_conjuncts, equi_across, predicate_is_false, predicate_is_true, refs_within,
    simplify_expr,
};
use crate::plan::LogicalPlan;
use feisu_common::Result;
use feisu_format::{Schema, Value};
use std::mem;

/// Moves a node out of the tree, leaving an `Empty` of its schema for the
/// caller to overwrite or drop.
fn take(plan: &mut LogicalPlan) -> LogicalPlan {
    let output_schema = plan.schema();
    mem::replace(plan, LogicalPlan::Empty { output_schema })
}

// ---------------------------------------------------------- expr mapping

/// Rewrites every predicate/projection/join-condition expression in the
/// plan through `f`, recursing into inputs; true when some expression
/// came back different. Aggregate arguments, group expressions and sort
/// keys are left alone: their display forms double as output column
/// names, so rewriting them would rename columns.
fn rewrite_exprs(plan: &mut LogicalPlan, f: &impl Fn(&Expr) -> Expr) -> bool {
    let mut changed = false;
    let mut rewrite = |e: &mut Expr| {
        let rewritten = f(e);
        if rewritten != *e {
            *e = rewritten;
            changed = true;
        }
    };
    match plan {
        LogicalPlan::Scan {
            predicate: Some(p), ..
        }
        | LogicalPlan::Filter { predicate: p, .. } => rewrite(p),
        LogicalPlan::Project { exprs, .. } => exprs.iter_mut().for_each(|(e, _)| rewrite(e)),
        LogicalPlan::Join { on, .. } => on.iter_mut().for_each(rewrite),
        _ => {}
    }
    for child in plan.children_mut() {
        changed |= rewrite_exprs(child, f);
    }
    changed
}

// ---------------------------------------------------------------- folding

/// Rule `constant_fold`: literal-only subtrees are evaluated once.
pub fn constant_fold(plan: &mut LogicalPlan) -> Result<bool> {
    Ok(rewrite_exprs(plan, &|e| fold_expr(e.clone())))
}

/// Folds literal-only subtrees bottom-up. Errors (e.g. division by zero)
/// leave the subtree unfolded so they surface at execution time with row
/// context.
pub fn fold_expr(e: Expr) -> Expr {
    let folded = match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(fold_expr(*left)),
            right: Box::new(fold_expr(*right)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op,
            operand: Box::new(fold_expr(*operand)),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(fold_expr(*operand)),
            negated,
        },
        other => other,
    };
    if is_foldable(&folded) {
        let empty = |_: &str| -> Option<Value> { None };
        if let Ok(v) = eval(&folded, &empty) {
            return Expr::Literal(v);
        }
    }
    folded
}

fn is_foldable(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => false, // already a literal, nothing to do
        Expr::Binary { left, right, .. } => literal_only(left) && literal_only(right),
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => literal_only(operand),
        _ => false,
    }
}

fn literal_only(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Binary { left, right, .. } => literal_only(left) && literal_only(right),
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => literal_only(operand),
        _ => false,
    }
}

// ----------------------------------------------------------- simplifying

/// Rule `simplify_exprs`: 3VL-safe boolean and arithmetic identities
/// (`x AND TRUE → x`, `NOT NOT x → x`, `x + 0 → x`, …) via
/// [`crate::exprutil::simplify_expr`].
pub fn simplify_exprs(plan: &mut LogicalPlan) -> Result<bool> {
    Ok(rewrite_exprs(plan, &simplify_expr))
}

// -------------------------------------------------------- empty pruning

fn empty(output_schema: Schema) -> LogicalPlan {
    LogicalPlan::Empty { output_schema }
}

fn is_empty(p: &LogicalPlan) -> bool {
    matches!(p, LogicalPlan::Empty { .. })
}

/// Rule `prune_empty`: a provably-false filter (or `LIMIT 0`) becomes an
/// [`LogicalPlan::Empty`] relation, and emptiness propagates upward
/// through operators that cannot produce rows from an empty input. The
/// engine then returns without scheduling a single leaf task.
pub fn prune_empty(plan: &mut LogicalPlan) -> Result<bool> {
    let mut changed = false;
    for child in plan.children_mut() {
        changed |= prune_empty(child)?;
    }
    let pruned = match plan {
        LogicalPlan::Filter { input, predicate } => {
            if is_empty(input) || predicate_is_false(predicate) {
                Some(empty(input.schema()))
            } else if predicate_is_true(predicate) {
                Some(take(input))
            } else {
                None
            }
        }
        LogicalPlan::Scan {
            predicate: Some(p),
            output_schema,
            ..
        } if predicate_is_false(p) => Some(empty(output_schema.clone())),
        LogicalPlan::Join {
            left,
            right,
            kind,
            output_schema,
            ..
        } => {
            // An empty null-supplying side still lets an outer join pass
            // the other side through (null-extended); an empty preserved
            // side kills the join.
            let dead = match kind {
                JoinKind::Inner | JoinKind::Cross => is_empty(left) || is_empty(right),
                JoinKind::LeftOuter => is_empty(left),
                JoinKind::RightOuter => is_empty(right),
            };
            dead.then(|| empty(output_schema.clone()))
        }
        LogicalPlan::Project {
            input,
            output_schema,
            ..
        } if is_empty(input) => Some(empty(output_schema.clone())),
        // A *grouped* aggregate over no rows yields no groups; a global
        // one still yields its single row (COUNT(*) = 0), so it must
        // execute.
        LogicalPlan::Aggregate {
            input,
            group_by,
            output_schema,
            ..
        } if is_empty(input) && !group_by.is_empty() => Some(empty(output_schema.clone())),
        LogicalPlan::Sort { input, .. } if is_empty(input) => Some(empty(input.schema())),
        LogicalPlan::Limit { input, fetch } if is_empty(input) || *fetch == 0 => {
            Some(empty(input.schema()))
        }
        _ => None,
    };
    if let Some(pruned) = pruned {
        *plan = pruned;
        changed = true;
    }
    Ok(changed)
}

// --------------------------------------------------------------- pushdown

/// Rule `predicate_pushdown`: WHERE conjuncts move as close to storage as
/// their column references allow — into a scan (where SmartIndex and zone
/// maps serve them), through join sides, or as a residual filter directly
/// above the deepest subtree that covers them. Equality conjuncts whose
/// sides straddle an inner/cross join become join keys (a cross join
/// gaining a key becomes an inner hash join). What does not sink stays
/// in the filter in CNF, which counts as a change the first time.
pub fn predicate_pushdown(plan: &mut LogicalPlan) -> Result<bool> {
    let mut changed = false;
    for child in plan.children_mut() {
        changed |= predicate_pushdown(child)?;
    }
    if let LogicalPlan::Filter { input, predicate } = plan {
        // Split into conjuncts and try to sink each one.
        let mut remaining = Vec::new();
        for clause in to_cnf(predicate).clauses {
            let conjunct = clause.to_expr();
            if sink(input, &conjunct) {
                changed = true;
            } else {
                remaining.push(conjunct);
            }
        }
        match combine_conjuncts(remaining) {
            Some(rest) if rest == *predicate => {}
            Some(rest) => {
                *predicate = rest;
                changed = true;
            }
            None => {
                *plan = take(input);
                changed = true;
            }
        }
    }
    Ok(changed)
}

/// Tries to sink one conjunct into the subtree: true when the subtree
/// absorbed it (and so changed), false when it is as it was.
fn sink(plan: &mut LogicalPlan, conjunct: &Expr) -> bool {
    match plan {
        LogicalPlan::Scan {
            predicate,
            output_schema,
            ..
        } => {
            if !refs_within(conjunct, output_schema) {
                return false;
            }
            *predicate = Some(match predicate.take() {
                Some(p) => Expr::and(p, conjunct.clone()),
                None => conjunct.clone(),
            });
            true
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            // Only inner/cross joins accept pushdown on both sides; outer
            // joins would change null-extension semantics.
            let (push_left, push_right) = match kind {
                JoinKind::Inner | JoinKind::Cross => (true, true),
                JoinKind::LeftOuter => (true, false),
                JoinKind::RightOuter => (false, true),
            };
            // 1. An equality straddling an inner/cross join becomes a
            //    join key; a cross join gaining one becomes inner.
            if matches!(kind, JoinKind::Inner | JoinKind::Cross)
                && equi_across(conjunct, &left.schema(), &right.schema())
            {
                on.push(conjunct.clone());
                *kind = JoinKind::Inner;
                return true;
            }
            // 2. Recurse: a scan inside either eligible side may absorb.
            if (push_left && sink(left, conjunct)) || (push_right && sink(right, conjunct)) {
                return true;
            }
            // 3. No scan absorbed it, but one side covers every column:
            //    park it as a filter directly below the join, above that
            //    side (pushdown *through* the join).
            for (side, eligible) in [(left, push_left), (right, push_right)] {
                if eligible && refs_within(conjunct, &side.schema()) {
                    **side = LogicalPlan::Filter {
                        input: Box::new(take(side)),
                        predicate: conjunct.clone(),
                    };
                    return true;
                }
            }
            false
        }
        // Filters are transparent for pushdown purposes.
        LogicalPlan::Filter { input, .. } => sink(input, conjunct),
        _ => false,
    }
}

// ---------------------------------------------------------------- pruning

/// Rule `projection_prune`: scans read only the columns the rest of the
/// plan actually needs (the core of the columnar I/O saving). Top-down:
/// each operator tells its input which columns it requires, and a scan
/// that is asked for fewer than it reads drops the rest.
pub fn projection_prune(plan: &mut LogicalPlan) -> Result<bool> {
    Ok(prune(plan, None))
}

fn all_columns(schema: &Schema) -> Vec<String> {
    schema.fields().iter().map(|f| f.name.clone()).collect()
}

/// `needed`: columns the parent requires, `None` = everything.
fn prune(plan: &mut LogicalPlan, needed: Option<Vec<String>>) -> bool {
    match plan {
        LogicalPlan::Scan {
            projection,
            output_schema,
            ..
        } => {
            // NOTE: predicate columns are deliberately NOT added to the
            // projection — a Scan node evaluates its own predicate (leaf
            // servers serve it from SmartIndex without touching the
            // column at all), so only parent-needed columns are output.
            let fields = output_schema.fields();
            // Keep schema order; `projection` is parallel to the schema.
            let mut keep: Vec<usize> = (0..fields.len())
                .filter(|&i| {
                    needed
                        .as_ref()
                        .is_none_or(|cols| cols.iter().any(|c| *c == fields[i].name))
                })
                .collect();
            // A zero-column batch cannot carry a row count: keep the
            // narrowest column when nothing is required (COUNT(*) shapes).
            if keep.is_empty() && !projection.is_empty() {
                let narrowest = (0..fields.len())
                    .min_by_key(|&i| fields[i].data_type.estimated_width())
                    .unwrap_or(0);
                keep.push(narrowest);
            }
            if keep.len() == fields.len() {
                return false;
            }
            *projection = keep
                .iter()
                .map(|&i| mem::take(&mut projection[i]))
                .collect();
            *output_schema = output_schema.project(&keep);
            true
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let mut required = Vec::new();
            for (e, _) in exprs.iter() {
                e.columns(&mut required);
            }
            prune(input, Some(required))
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut required = needed.unwrap_or_else(|| all_columns(&input.schema()));
            predicate.columns(&mut required);
            dedup(&mut required);
            prune(input, Some(required))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            let mut required = Vec::new();
            for (g, _, _) in group_by.iter() {
                g.columns(&mut required);
            }
            for arg in aggregates.iter().filter_map(|a| a.arg.as_ref()) {
                arg.columns(&mut required);
            }
            // COUNT(*) requires nothing: the scans below keep a column to
            // carry the row count, and know which is cheapest.
            prune(input, Some(required))
        }
        LogicalPlan::Sort { input, keys, .. } => {
            let mut required = needed.unwrap_or_else(|| all_columns(&input.schema()));
            for (e, _) in keys.iter() {
                e.columns(&mut required);
            }
            dedup(&mut required);
            prune(input, Some(required))
        }
        LogicalPlan::Limit { input, .. } => prune(input, needed),
        LogicalPlan::Join {
            left,
            right,
            on,
            output_schema,
            ..
        } => {
            let mut required = needed.unwrap_or_else(|| all_columns(output_schema));
            for cond in on.iter() {
                cond.columns(&mut required);
            }
            dedup(&mut required);
            let within = |schema: Schema| -> Vec<String> {
                let of_side = required.iter().filter(|c| schema.index_of(c).is_some());
                of_side.cloned().collect()
            };
            let (left_needed, right_needed) = (within(left.schema()), within(right.schema()));
            let mut changed = prune(left, Some(left_needed));
            changed |= prune(right, Some(right_needed));
            let joined = left.schema().join(&right.schema());
            if joined != *output_schema {
                *output_schema = joined;
                changed = true;
            }
            changed
        }
        LogicalPlan::Empty { .. } => false,
    }
}

fn dedup(v: &mut Vec<String>) {
    let mut seen = std::collections::HashSet::new();
    v.retain(|c| seen.insert(c.clone()));
}

// ----------------------------------------------------------- limit + sort

/// Rule `limit_into_sort`: `Limit(Sort)` and `Limit(Project(Sort))` push
/// the fetch into the sort, so execution can keep a bounded heap.
pub fn limit_into_sort(plan: &mut LogicalPlan) -> Result<bool> {
    let mut changed = false;
    for child in plan.children_mut() {
        changed |= limit_into_sort(child)?;
    }
    if let LogicalPlan::Limit { input, fetch } = plan {
        let below = match &mut **input {
            LogicalPlan::Project { input, .. } => &mut **input,
            other => other,
        };
        if let LogicalPlan::Sort { fetch: top_n, .. } = below {
            if *top_n != Some(*fetch) {
                *top_n = Some(*fetch);
                changed = true;
            }
        }
    }
    Ok(changed)
}
