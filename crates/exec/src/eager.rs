//! Eager aggregation (Yan & Larson) at lowering time.
//!
//! An aggregate over a region of inner/cross joins is split in two. One
//! scan of the region, one whose columns every aggregate reads, is
//! pre-aggregated below the join. It is grouped by each of its columns
//! that the region or the GROUP BY reads above it: its join keys, then its
//! group keys. The aggregate above the join combines the partials: a COUNT
//! becomes the SUM of the counts, a SUM the SUM of the sums, and MIN and
//! MAX stay as they are. A partial row stands for every raw row of its
//! group and the join repeats it once per match, so the combined values
//! are the raw ones. AVG is excluded, and so is a global aggregate with a
//! COUNT: over a join that matches nothing, a SUM of no counts is NULL
//! where the COUNT is 0. A scan with no key is never pre-aggregated: a
//! keyless partial yields one row even over no input, and the join would
//! pair that row with the other sides' rows.
//!
//! The pushed aggregate is an ordinary `Aggregate` over a `Scan`, which
//! [`lower`](crate::physical::lower) turns into a leaf [`AggStage`]: the
//! leaves, the exchange and the merge tree need nothing new.
//!
//! The split is made only where [`estimate`](crate::estimate) prices it
//! strictly cheaper than the raw plan: the bytes the scan ships to the
//! master (estimated groups × transport width against estimated rows ×
//! row width) plus the master's join and aggregate CPU, all through the
//! [`CostModel`] the engine bills.
//!
//! [`AggStage`]: feisu_sql::plan::AggStage

use crate::estimate::{cond_info, groups, order_cost, region, row_width, transport_width, Rel};
use crate::reorder::rebuild;
use feisu_cluster::CostModel;
use feisu_common::{ByteSize, SimDuration};
use feisu_format::{Field, Schema};
use feisu_sql::analyze::Catalog;
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::plan::{AggExpr, LogicalPlan};
use std::fmt;

/// One aggregate split around a join, for EXPLAIN and the master span.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerAggTrace {
    /// The pre-aggregated scan's relation label (the scan binding).
    pub side: String,
    /// The keys it is grouped by: its join keys, then its group keys.
    pub keys: Vec<String>,
    /// Estimated groups its leaves ship instead of its estimated rows.
    pub groups: u64,
    pub rows: u64,
}

impl fmt::Display for EagerAggTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by [{}] est {} groups of {} rows",
            self.side,
            self.keys.join(", "),
            self.groups,
            self.rows
        )
    }
}

/// Splits every aggregate over a join region of `plan` where the
/// estimate says it pays, recording one trace per split.
pub(crate) fn push_below_joins(
    plan: &mut LogicalPlan,
    catalog: &dyn Catalog,
    cost: &CostModel,
    traces: &mut Vec<EagerAggTrace>,
) {
    if let Some((split, trace)) = split(plan, catalog, cost) {
        *plan = split;
        traces.push(trace);
    }
    for child in plan.children_mut() {
        push_below_joins(child, catalog, cost, traces);
    }
}

/// The cheapest split of an aggregate over a join region, if one is
/// strictly cheaper than the raw plan.
fn split(
    plan: &LogicalPlan,
    catalog: &dyn Catalog,
    cost: &CostModel,
) -> Option<(LogicalPlan, EagerAggTrace)> {
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggregates,
        output_schema,
        ..
    } = plan
    else {
        return None;
    };
    let has = |f: AggFunc| aggregates.iter().any(|a| a.func == f);
    if has(AggFunc::Avg) || (group_by.is_empty() && has(AggFunc::Count)) {
        return None;
    }
    let (mut leaves, mut conds) = (Vec::new(), Vec::new());
    region(input, &mut leaves, &mut conds);
    if leaves.len() < 2 {
        return None;
    }
    // Columns read above the leaves, and by the aggregates' arguments.
    let mut above = Vec::new();
    conds.iter().for_each(|c| c.columns(&mut above));
    group_by.iter().for_each(|(g, _, _)| g.columns(&mut above));
    let mut args = Vec::new();
    (aggregates.iter().flat_map(|a| &a.arg)).for_each(|e| e.columns(&mut args));

    // What the master pays over the region: its joins, then the aggregate
    // over every joined row.
    let ns = |d: SimDuration| d.as_nanos() as f64;
    let conds_over = |rels: &[Rel]| -> Vec<_> {
        (conds.iter())
            .map(|&c| cond_info(c.clone(), rels, catalog))
            .collect()
    };
    let order: Vec<usize> = (0..leaves.len()).collect();
    let master = |rels: &[Rel]| {
        let (join, card) = order_cost(&order, rels, &conds_over(rels), cost);
        join + ns(cost.agg_update(card as usize))
    };
    let ship = |rows: f64, width: f64| ns(cost.network(1, ByteSize((rows * width) as u64)));
    let mut rels: Vec<Rel> = (leaves.iter())
        .map(|&l| Rel::new(l.clone(), catalog))
        .collect();
    let raw_master = master(&rels);

    let mut best: Option<(f64, usize, Rel, EagerAggTrace)> = None;
    for (i, &leaf) in leaves.iter().enumerate() {
        let LogicalPlan::Scan {
            table,
            binding,
            output_schema: scan_schema,
            ..
        } = leaf
        else {
            continue;
        };
        let Some(stats) = catalog.table_stats(table) else {
            continue;
        };
        if !args.iter().all(|c| scan_schema.index_of(c).is_some()) {
            continue;
        }
        let mut keys: Vec<Field> = Vec::new();
        for col in &above {
            if let Some(f) = scan_schema.field_by_name(col) {
                if keys.iter().all(|k| k.name != f.name) {
                    keys.push(Field::new(f.name.clone(), f.data_type, true));
                }
            }
        }
        if keys.is_empty() {
            continue;
        }
        let key_width = row_width(&Schema::new(keys.clone()), Some(&stats));
        let rows = rels[i].card;
        let raw = ship(rows, row_width(scan_schema, Some(&stats))) + raw_master;
        // The region with this side aggregated: its rows are the groups.
        let partial = partial_aggregate(leaf, &keys, aggregates, catalog);
        let groups = partial.card;
        let side = std::mem::replace(&mut rels[i], partial);
        let eager = ship(groups, transport_width(key_width, aggregates))
            + ns(cost.agg_merge(groups as usize))
            + master(&rels);
        let partial = std::mem::replace(&mut rels[i], side);
        if eager < raw && best.as_ref().is_none_or(|(b, ..)| eager < *b) {
            let trace = EagerAggTrace {
                side: binding.clone(),
                keys: keys.into_iter().map(|f| f.name).collect(),
                groups: groups.round() as u64,
                rows: rows.round() as u64,
            };
            best = Some((eager, i, partial, trace));
        }
    }

    let (_, i, partial, trace) = best?;
    rels[i] = partial;
    let input = rebuild(&rels, &conds_over(&rels), &order);
    let combine = |a: &AggExpr| AggExpr {
        func: match a.func {
            AggFunc::Count => AggFunc::Sum,
            f => f,
        },
        arg: Some(Expr::Column(a.name.clone())),
        name: a.name.clone(),
        output_type: a.output_type,
    };
    let outer = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: group_by.clone(),
        aggregates: aggregates.iter().map(combine).collect(),
        output_schema: output_schema.clone(),
        est_groups: None,
    };
    Some((outer, trace))
}

/// `scan` aggregated by `keys` (bare columns), computing `aggregates`
/// under their own names, as a relation of its estimated groups.
fn partial_aggregate(
    scan: &LogicalPlan,
    keys: &[Field],
    aggregates: &[AggExpr],
    catalog: &dyn Catalog,
) -> Rel {
    let group_by: Vec<_> = (keys.iter())
        .map(|f| (Expr::Column(f.name.clone()), f.name.clone(), f.data_type))
        .collect();
    let key_exprs: Vec<&Expr> = group_by.iter().map(|(e, _, _)| e).collect();
    let card = groups(scan, &key_exprs, catalog);
    let mut fields = keys.to_vec();
    for a in aggregates {
        fields.push(Field::new(a.name.clone(), a.output_type, true));
    }
    let plan = LogicalPlan::Aggregate {
        input: Box::new(scan.clone()),
        group_by,
        aggregates: aggregates.to_vec(),
        output_schema: Schema::new(fields),
        est_groups: Some(card.round() as u64),
    };
    Rel { plan, card }
}
