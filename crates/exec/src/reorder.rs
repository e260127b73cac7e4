//! Cost-based join-order selection at lowering time.
//!
//! The logical optimizer keeps joins in syntactic order; this module
//! picks the execution order. Every maximal region of inner/cross joins
//! is flattened into its base relations and join conditions, priced by
//! [`estimate`](crate::estimate), and a left-deep order is searched —
//! exhaustively by dynamic programming up to [`LowerOptions::dp_limit`]
//! relations, greedily above. The syntactic order is kept on ties, which
//! makes the whole pass a no-op for two-relation joins under the default
//! (symmetric) CPU rates — and fully deterministic everywhere. After the
//! search, [`eager`](crate::eager) may split an aggregate over a join.

use crate::eager::{push_below_joins, EagerAggTrace};
use crate::estimate::{cond_info, join_step, order_cost, region, CondInfo, Rel};
use crate::physical::{lower, PhysicalPlan};
use feisu_cluster::CostModel;
use feisu_common::{Result, SimDuration};
use feisu_format::Schema;
use feisu_sql::analyze::Catalog;
use feisu_sql::ast::{Expr, JoinKind};
use feisu_sql::exprutil::{combine_conjuncts, equi_across};
use feisu_sql::plan::LogicalPlan;

/// Knobs for [`lower_with`].
pub struct LowerOptions<'a> {
    /// Cost model the join-order search and the eager-aggregation rule
    /// bill against.
    pub cost: &'a CostModel,
    /// Master switch for cost-based join reordering.
    pub join_reorder: bool,
    /// Regions up to this many relations are ordered by exhaustive
    /// left-deep DP; larger regions fall back to a greedy heuristic.
    pub dp_limit: usize,
}

/// What one join-order search decided, for EXPLAIN and the plan span.
#[derive(Debug, Clone)]
pub struct JoinOrderTrace {
    /// `"dp"` or `"greedy"`.
    pub method: &'static str,
    /// Relation labels in syntactic order.
    pub syntactic: Vec<String>,
    /// Relation labels in the order actually lowered.
    pub chosen: Vec<String>,
    pub syntactic_cost: SimDuration,
    pub chosen_cost: SimDuration,
    /// False when the search kept the syntactic order (tie or win).
    pub reordered: bool,
}

/// Side output of [`lower_with`].
#[derive(Debug, Clone, Default)]
pub struct LowerTrace {
    /// One entry per join region of three or more relations.
    pub join_orders: Vec<JoinOrderTrace>,
    /// One entry per aggregate split around a join.
    pub eager_aggs: Vec<EagerAggTrace>,
}

/// Lowers a logical plan cost-based: first reorders inner-join regions
/// when `opts.join_reorder` is set, then pre-aggregates one side of each
/// aggregated join where the estimate says it is cheaper. Returns the
/// physical plan plus the decisions made along the way.
pub fn lower_with(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    opts: &LowerOptions<'_>,
) -> Result<(PhysicalPlan, LowerTrace)> {
    let mut trace = LowerTrace::default();
    let mut plan = match opts.join_reorder {
        true => reorder_joins(plan.clone(), catalog, opts, &mut trace.join_orders),
        false => plan.clone(),
    };
    push_below_joins(&mut plan, catalog, opts.cost, &mut trace.eager_aggs);
    Ok((lower(&plan, catalog)?, trace))
}

/// Rewrites every inner/cross join region of the plan into its chosen
/// left-deep order, recording one [`JoinOrderTrace`] per searched region.
fn reorder_joins(
    mut plan: LogicalPlan,
    catalog: &dyn Catalog,
    opts: &LowerOptions<'_>,
    traces: &mut Vec<JoinOrderTrace>,
) -> LogicalPlan {
    if let LogicalPlan::Join {
        kind: JoinKind::Inner | JoinKind::Cross,
        ..
    } = plan
    {
        return reorder_region(plan, catalog, opts, traces);
    }
    for child in plan.children_mut() {
        let taken = std::mem::replace(
            child,
            LogicalPlan::Empty {
                output_schema: Schema::empty(),
            },
        );
        *child = reorder_joins(taken, catalog, opts, traces);
    }
    // Children may have changed column order: keep a join's positional
    // output-schema invariant (left ++ right).
    if let LogicalPlan::Join {
        left,
        right,
        output_schema,
        ..
    } = &mut plan
    {
        *output_schema = left.schema().join(&right.schema());
    }
    plan
}

fn reorder_region(
    plan: LogicalPlan,
    catalog: &dyn Catalog,
    opts: &LowerOptions<'_>,
    traces: &mut Vec<JoinOrderTrace>,
) -> LogicalPlan {
    // Flatten the maximal inner/cross region into leaves + conditions,
    // recursing into the leaves (they may contain further regions).
    let (mut leaves, mut cond_exprs) = (Vec::new(), Vec::new());
    region(&plan, &mut leaves, &mut cond_exprs);
    let rels: Vec<Rel> = leaves
        .into_iter()
        .map(|l| {
            let l = reorder_joins(l.clone(), catalog, opts, traces);
            Rel::new(l, catalog)
        })
        .collect();
    let n = rels.len();
    let conds: Vec<CondInfo> = cond_exprs
        .into_iter()
        .map(|e| cond_info(e.clone(), &rels, catalog))
        .collect();

    // Two relations cost the same either way under build+probe billing
    // (the engine bills both sides); keep the syntactic order.
    let syntactic: Vec<usize> = (0..n).collect();
    if n <= 2 {
        return rebuild(&rels, &conds, &syntactic);
    }

    let (syn_cost, _) = order_cost(&syntactic, &rels, &conds, opts.cost);
    let (method, chosen, chosen_cost) = if n <= opts.dp_limit {
        let (o, c) = dp_order(&rels, &conds, opts.cost);
        ("dp", o, c)
    } else {
        let (o, c) = greedy_order(&rels, &conds, opts.cost);
        ("greedy", o, c)
    };
    // Only deviate from the syntactic order for a strict win (epsilon in
    // nanoseconds); ties keep plans stable across platforms.
    let reordered = chosen != syntactic && chosen_cost + 1e-6 < syn_cost;
    let order = if reordered { &chosen } else { &syntactic };
    traces.push(JoinOrderTrace {
        method,
        syntactic: syntactic.iter().map(|&i| label(&rels[i].plan)).collect(),
        chosen: order.iter().map(|&i| label(&rels[i].plan)).collect(),
        syntactic_cost: SimDuration::nanos(syn_cost as u64),
        chosen_cost: SimDuration::nanos(if reordered { chosen_cost } else { syn_cost } as u64),
        reordered,
    });
    rebuild(&rels, &conds, order)
}

#[derive(Clone)]
struct DpEntry {
    cost: f64,
    card: f64,
    order: Vec<usize>,
}

/// Exhaustive left-deep join-order search over all relation subsets.
fn dp_order(rels: &[Rel], conds: &[CondInfo], cost: &CostModel) -> (Vec<usize>, f64) {
    let n = rels.len();
    let full = (1usize << n) - 1;
    let mut dp: Vec<Option<DpEntry>> = vec![None; 1 << n];
    for (i, r) in rels.iter().enumerate() {
        dp[1 << i] = Some(DpEntry {
            cost: 0.0,
            card: r.card,
            order: vec![i],
        });
    }
    for mask in 1..=full {
        let Some(cur) = dp[mask].clone() else {
            continue;
        };
        for j in 0..n {
            if mask & (1 << j) != 0 {
                continue;
            }
            let (card, step) = join_step(cur.card, mask, j, rels, conds, cost);
            let cand = cur.cost + step;
            let slot = &mut dp[mask | (1 << j)];
            // Strict `<` keeps the first (lowest-index) order on ties, so
            // the search is deterministic.
            if slot.as_ref().is_none_or(|e| cand < e.cost) {
                let mut order = cur.order.clone();
                order.push(j);
                *slot = Some(DpEntry {
                    cost: cand,
                    card,
                    order,
                });
            }
        }
    }
    let best = dp[full].take().expect("full mask reachable");
    (best.order, best.cost)
}

/// Greedy order for regions past the DP limit: start from the smallest
/// relation, repeatedly append the relation minimizing the intermediate
/// cardinality (ties to the lowest index).
fn greedy_order(rels: &[Rel], conds: &[CondInfo], cost: &CostModel) -> (Vec<usize>, f64) {
    let n = rels.len();
    let start = (0..n)
        .min_by(|&a, &b| rels[a].card.total_cmp(&rels[b].card))
        .expect("nonempty region");
    let mut order = vec![start];
    let mut mask = 1usize << start;
    let mut card = rels[start].card;
    let mut total = 0.0;
    while order.len() < n {
        let mut best: Option<(f64, f64, usize)> = None;
        for j in 0..n {
            if mask & (1 << j) != 0 {
                continue;
            }
            let (c, step) = join_step(card, mask, j, rels, conds, cost);
            if best.as_ref().is_none_or(|&(bc, _, _)| c < bc) {
                best = Some((c, step, j));
            }
        }
        let (c, step, j) = best.expect("relation remaining");
        order.push(j);
        mask |= 1 << j;
        card = c;
        total += step;
    }
    (order, total)
}

/// Reassembles the region as a left-deep tree in `order`, attaching each
/// condition at the first join where all its relations are present. A
/// step with at least one cross-relation equality becomes an inner hash
/// join (single-side and non-equi conditions ride along as residuals);
/// a step with none becomes a cross join with any conditions as a filter
/// above it.
pub(crate) fn rebuild(rels: &[Rel], conds: &[CondInfo], order: &[usize]) -> LogicalPlan {
    let mut used = vec![false; conds.len()];
    let mut acc = rels[order[0]].plan.clone();
    let mut acc_mask = 1usize << order[0];
    for &j in &order[1..] {
        let new_mask = acc_mask | (1 << j);
        let mut step_conds = Vec::new();
        for (ci, c) in conds.iter().enumerate() {
            if !used[ci] && c.mask & new_mask == c.mask {
                used[ci] = true;
                step_conds.push(c.expr.clone());
            }
        }
        let right = rels[j].plan.clone();
        let output_schema = acc.schema().join(&right.schema());
        let has_equi = step_conds
            .iter()
            .any(|c| equi_across(c, &acc.schema(), &right.schema()));
        acc = if has_equi {
            LogicalPlan::Join {
                left: Box::new(acc),
                right: Box::new(right),
                kind: JoinKind::Inner,
                on: step_conds,
                output_schema,
            }
        } else {
            let cross = LogicalPlan::Join {
                left: Box::new(acc),
                right: Box::new(right),
                kind: JoinKind::Cross,
                on: Vec::new(),
                output_schema,
            };
            match combine_conjuncts(step_conds) {
                Some(pred) => LogicalPlan::Filter {
                    input: Box::new(cross),
                    predicate: pred,
                },
                None => cross,
            }
        };
        acc_mask = new_mask;
    }
    // Conditions that never became attachable (no columns at all, or
    // columns the region does not resolve) stay as a filter on top.
    let leftovers: Vec<Expr> = conds
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(c, _)| c.expr.clone())
        .collect();
    match combine_conjuncts(leftovers) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(acc),
            predicate: pred,
        },
        None => acc,
    }
}

/// Human-readable relation label for traces: the scan binding when the
/// leaf bottoms out in one, else a placeholder.
fn label(plan: &LogicalPlan) -> String {
    let mut node = plan;
    loop {
        match node {
            LogicalPlan::Scan { binding, .. } => return binding.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Aggregate { input, .. } => node = input,
            _ => return "<subplan>".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::hash::FxHashMap;
    use feisu_format::{DataType, Field, Schema};
    use feisu_sql::analyze::analyze;
    use feisu_sql::optimizer::optimize;
    use feisu_sql::parser::parse_query;
    use feisu_sql::plan::build_plan;
    use feisu_sql::stats::{ColumnStats, TableStats};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Catalog with statistics: a small `d1`, a small `d2`, a big fact
    /// table `f` keyed into both.
    struct StatsCatalog {
        schemas: HashMap<String, Schema>,
        stats: HashMap<String, Arc<TableStats>>,
    }

    impl Catalog for StatsCatalog {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            self.schemas.get(name).cloned()
        }
        fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
            self.stats.get(name).cloned()
        }
    }

    fn star_catalog() -> StatsCatalog {
        let mut schemas = HashMap::new();
        schemas.insert(
            "d1".to_string(),
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
        );
        schemas.insert(
            "d2".to_string(),
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
        );
        schemas.insert(
            "f".to_string(),
            Schema::new(vec![
                Field::new("k1", DataType::Int64, false),
                Field::new("k2", DataType::Int64, false),
                Field::new("v", DataType::Int64, false),
            ]),
        );
        let dim = |rows: u64| {
            let mut columns = FxHashMap::default();
            columns.insert(
                "k".to_string(),
                ColumnStats {
                    ndv: rows,
                    ..ColumnStats::default()
                },
            );
            Arc::new(TableStats { rows, columns })
        };
        let mut fact_cols = FxHashMap::default();
        for c in ["k1", "k2"] {
            fact_cols.insert(
                c.to_string(),
                ColumnStats {
                    ndv: 2000,
                    ..ColumnStats::default()
                },
            );
        }
        let mut stats = HashMap::new();
        stats.insert("d1".to_string(), dim(2000));
        stats.insert("d2".to_string(), dim(2000));
        stats.insert(
            "f".to_string(),
            Arc::new(TableStats {
                rows: 100_000,
                columns: fact_cols,
            }),
        );
        StatsCatalog { schemas, stats }
    }

    fn planned(sql: &str, cat: &StatsCatalog) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        let r = analyze(&q, cat).unwrap();
        optimize(build_plan(&r).unwrap()).unwrap()
    }

    const STAR: &str = "SELECT SUM(f.v) AS s FROM d1, d2, f \
                        WHERE f.k1 = d1.k AND f.k2 = d2.k";

    #[test]
    fn star_join_reordered_away_from_cross_product() {
        let cat = star_catalog();
        let plan = planned(STAR, &cat);
        let cost = CostModel::default();
        let opts = LowerOptions {
            cost: &cost,
            join_reorder: true,
            dp_limit: 6,
        };
        let (physical, trace) = lower_with(&plan, &cat, &opts).unwrap();
        assert_eq!(trace.join_orders.len(), 1);
        let t = &trace.join_orders[0];
        assert_eq!(t.method, "dp");
        assert!(t.reordered, "{t:?}");
        assert_eq!(t.syntactic, vec!["d1", "d2", "f"]);
        // The chosen order joins the fact table before the cross product
        // of the two dimensions can form.
        assert_ne!(t.chosen[1], "d2", "chosen {:?}", t.chosen);
        assert!(t.chosen_cost < t.syntactic_cost, "{t:?}");
        // Both joins lowered as inner hash joins, no cross product left.
        let s = physical.display_indent();
        assert_eq!(s.matches("HashJoin: Inner").count(), 2, "{s}");
        assert!(!s.contains("Cross"), "{s}");
    }

    #[test]
    fn reorder_disabled_keeps_syntactic_order() {
        let cat = star_catalog();
        let plan = planned(STAR, &cat);
        let cost = CostModel::default();
        let opts = LowerOptions {
            cost: &cost,
            join_reorder: false,
            dp_limit: 6,
        };
        let (physical, trace) = lower_with(&plan, &cat, &opts).unwrap();
        assert!(trace.join_orders.is_empty());
        // Syntactic shape: (d1 ⋈ d2) ⋈ f — the d1/d2 join has no usable
        // key, so it stays a cross join.
        let s = physical.display_indent();
        assert!(s.contains("Cross"), "{s}");
    }

    #[test]
    fn two_relation_join_keeps_syntactic_order() {
        let cat = star_catalog();
        let plan = planned("SELECT d1.name FROM d1, f WHERE f.k1 = d1.k", &cat);
        let cost = CostModel::default();
        let opts = LowerOptions {
            cost: &cost,
            join_reorder: true,
            dp_limit: 6,
        };
        let (physical, trace) = lower_with(&plan, &cat, &opts).unwrap();
        // Two-relation regions are never searched (cost is symmetric).
        assert!(trace.join_orders.is_empty());
        let s = physical.display_indent();
        let d1_at = s.find("DistributedScan: d1").expect(&s);
        let f_at = s.find("DistributedScan: f").expect(&s);
        assert!(d1_at < f_at, "{s}");
    }

    #[test]
    fn greedy_used_past_dp_limit() {
        let cat = star_catalog();
        let plan = planned(STAR, &cat);
        let cost = CostModel::default();
        let opts = LowerOptions {
            cost: &cost,
            join_reorder: true,
            dp_limit: 2,
        };
        let (_, trace) = lower_with(&plan, &cat, &opts).unwrap();
        assert_eq!(trace.join_orders.len(), 1);
        let t = &trace.join_orders[0];
        assert_eq!(t.method, "greedy");
        assert!(t.reordered, "{t:?}");
    }

    #[test]
    fn no_stats_three_way_ties_to_syntactic() {
        // Without statistics all cards default equal, so the DP result
        // ties and the syntactic order must win.
        let mut schemas: HashMap<String, Schema> = HashMap::new();
        for t in ["a", "b", "c"] {
            schemas.insert(
                t.to_string(),
                Schema::new(vec![Field::new("k", DataType::Int64, false)]),
            );
        }
        let cat = StatsCatalog {
            schemas,
            stats: HashMap::new(),
        };
        let plan = planned(
            "SELECT a.k FROM a, b, c WHERE a.k = b.k AND b.k = c.k",
            &cat,
        );
        let cost = CostModel::default();
        let opts = LowerOptions {
            cost: &cost,
            join_reorder: true,
            dp_limit: 6,
        };
        let (_, trace) = lower_with(&plan, &cat, &opts).unwrap();
        assert_eq!(trace.join_orders.len(), 1);
        let t = &trace.join_orders[0];
        assert!(!t.reordered, "{t:?}");
        assert_eq!(t.chosen, t.syntactic);
    }
}
