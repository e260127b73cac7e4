//! Fixpoint driver for the optimizer's rule pipeline.
//!
//! A rule is a plain function that edits the plan in place and says
//! whether it changed it; the pipeline applies the rules of [`RULES`] in
//! order, repeatedly, until a full pass changes nothing (or a safety cap
//! is hit). Every rule application that changed the plan is recorded in
//! the returned trace, so EXPLAIN and the observability plane can show
//! exactly which rewrites produced the final plan.

use super::rules;
use crate::plan::LogicalPlan;
use feisu_common::Result;

/// One rewrite rule over logical plans: a full pass over the plan, in
/// place, returning whether the plan it leaves differs from the plan it
/// was given. Rules must be *monotone*: repeated application reaches a
/// fixpoint (a rewrite that undoes another rule's work would make the
/// pipeline oscillate until the pass cap).
pub type Rule = fn(&mut LogicalPlan) -> Result<bool>;

/// The standard rule pipeline, in application order, each rule under the
/// stable name EXPLAIN and metrics surface it by.
pub const RULES: [(&str, Rule); 6] = [
    ("constant_fold", rules::constant_fold),
    ("simplify_exprs", rules::simplify_exprs),
    ("prune_empty", rules::prune_empty),
    ("predicate_pushdown", rules::predicate_pushdown),
    ("projection_prune", rules::projection_prune),
    ("limit_into_sort", rules::limit_into_sort),
];

/// Trace entry: how many passes a rule changed the plan in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFire {
    pub rule: &'static str,
    pub fires: u32,
}

/// Safety cap on fixpoint passes. Well-behaved rules converge in 2–3
/// passes; the cap only guards against a future non-monotone rule.
const MAX_PASSES: usize = 10;

/// Runs a rule list to fixpoint, returning the rewritten plan and the
/// per-rule fire counts (rules that never changed the plan are omitted).
pub fn run_rules(
    mut plan: LogicalPlan,
    rules: &[(&'static str, Rule)],
) -> Result<(LogicalPlan, Vec<RuleFire>)> {
    let mut trace: Vec<RuleFire> = rules
        .iter()
        .map(|&(rule, _)| RuleFire { rule, fires: 0 })
        .collect();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for (fire, (_, rule)) in trace.iter_mut().zip(rules) {
            if rule(&mut plan)? {
                fire.fires += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    trace.retain(|f| f.fires > 0);
    Ok((plan, trace))
}

/// Applies the standard pipeline and returns the plan plus its rule trace.
pub fn optimize_with_trace(plan: LogicalPlan) -> Result<(LogicalPlan, Vec<RuleFire>)> {
    run_rules(plan, &RULES)
}

/// Applies all rules and returns the optimized plan.
pub fn optimize(plan: LogicalPlan) -> Result<LogicalPlan> {
    optimize_with_trace(plan).map(|(p, _)| p)
}
