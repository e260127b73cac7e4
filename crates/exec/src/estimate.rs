//! Plan-time estimates: how many rows a logical plan yields, how many
//! distinct values a column holds and how many groups a GROUP BY makes,
//! derived from the catalog's ingest-time [`TableStats`] (row counts,
//! min/max, per-column KMV NDV, predicate selectivities), and what the
//! master pays to join them, priced through the same [`CostModel`] the
//! engine bills at execution time.
//!
//! Its consumers: the join-order search in [`reorder`](crate::reorder),
//! the eager-aggregation rule in [`eager`](crate::eager), and the merge
//! tree's depth, priced from each grouped scan's [`groups`] estimate.
//!
//! [`TableStats`]: feisu_sql::stats::TableStats

use feisu_cluster::CostModel;
use feisu_format::{DataType, Schema, Value};
use feisu_sql::analyze::Catalog;
use feisu_sql::ast::{AggFunc, BinaryOp, Expr, JoinKind};
use feisu_sql::plan::{AggExpr, LogicalPlan};
use feisu_sql::stats::{TableStats, DEFAULT_SELECTIVITY};

/// Row count assumed for a table the catalog has no statistics for.
const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// One base relation of a flattened join region.
pub(crate) struct Rel {
    pub(crate) plan: LogicalPlan,
    pub(crate) card: f64,
}

impl Rel {
    pub(crate) fn new(plan: LogicalPlan, catalog: &dyn Catalog) -> Rel {
        let card = base_card(&plan, catalog);
        Rel { plan, card }
    }
}

/// One join condition of a flattened region.
pub(crate) struct CondInfo {
    pub(crate) expr: Expr,
    /// Bitmask of the relations the condition references.
    pub(crate) mask: usize,
    /// Cardinality factor applied when the condition first becomes
    /// evaluable: `1 / max(ndv_l, ndv_r)` for cross-relation equalities,
    /// [`DEFAULT_SELECTIVITY`] otherwise.
    factor: f64,
}

/// Flattens the region of inner/cross joins rooted at `plan` into its
/// leaves, left before right, and the conditions over them: each join's
/// `on` and the predicate of each filter over a join of the region.
pub(crate) fn region<'a>(
    plan: &'a LogicalPlan,
    leaves: &mut Vec<&'a LogicalPlan>,
    conds: &mut Vec<&'a Expr>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Cross,
            on,
            ..
        } => {
            region(left, leaves, conds);
            region(right, leaves, conds);
            conds.extend(on);
        }
        LogicalPlan::Filter { input, predicate } if joins(input) => {
            region(input, leaves, conds);
            conds.push(predicate);
        }
        leaf => leaves.push(leaf),
    }
}

/// Whether `plan` is an inner/cross join, under any filters.
fn joins(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join { kind, .. } => matches!(kind, JoinKind::Inner | JoinKind::Cross),
        LogicalPlan::Filter { input, .. } => joins(input),
        _ => false,
    }
}

/// Estimated output rows of a plan.
fn base_card(plan: &LogicalPlan, catalog: &dyn Catalog) -> f64 {
    match plan {
        LogicalPlan::Scan {
            table, predicate, ..
        } => match catalog.table_stats(table) {
            Some(stats) => {
                let rows = stats.rows.max(1) as f64;
                match predicate {
                    Some(p) => (rows * stats.selectivity(p)).max(1.0),
                    None => rows,
                }
            }
            None => DEFAULT_TABLE_ROWS,
        },
        LogicalPlan::Filter { input, .. } => {
            (base_card(input, catalog) * DEFAULT_SELECTIVITY).max(1.0)
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
            base_card(input, catalog)
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let keys: Vec<&Expr> = group_by.iter().map(|(e, _, _)| e).collect();
            groups(input, &keys, catalog)
        }
        LogicalPlan::Limit { input, fetch } => base_card(input, catalog).min(*fetch as f64),
        LogicalPlan::Join { left, right, .. } => {
            base_card(left, catalog).max(base_card(right, catalog))
        }
        LogicalPlan::Empty { .. } => 0.0,
    }
}

/// Estimated groups of `input` grouped by `keys`: the product of the
/// keys' NDVs, capped by the input's estimated rows. A key that is not a
/// column of a scan under `input` counts as unique.
pub(crate) fn groups(input: &LogicalPlan, keys: &[&Expr], catalog: &dyn Catalog) -> f64 {
    let rows = base_card(input, catalog);
    let ndv = |key: &Expr| match key {
        Expr::Column(col) => scan_ndv(input, col, catalog).unwrap_or(rows),
        _ => rows,
    };
    keys.iter()
        .map(|k| ndv(k))
        .product::<f64>()
        .min(rows)
        .max(1.0)
}

/// Groups one merge-tree merger yields from children shipping `n_i`
/// transport rows of `groups` keys (G, at least 1): the expected union of
/// their key sets, `G · (1 − Π (1 − min(1, n_i / G)))`, capped by Σ n_i.
/// One child yields its own rows: a merger over one child folds nothing.
pub fn folded_groups(children: &[f64], groups: f64) -> f64 {
    let g = groups.max(1.0);
    let missed: f64 = children.iter().map(|&n| 1.0 - (n / g).min(1.0)).product();
    (g * (1.0 - missed)).min(children.iter().sum())
}

/// NDV of `col` from the stats of the table `plan` bottoms out in
/// (through filters, projections, sorts and limits); `None` when it
/// bottoms out in no scan or the table has no stats.
fn scan_ndv(plan: &LogicalPlan, col: &str, catalog: &dyn Catalog) -> Option<f64> {
    let mut node = plan;
    let table = loop {
        match node {
            LogicalPlan::Scan { table, .. } => break table,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => node = input,
            _ => return None,
        }
    };
    Some(catalog.table_stats(table)?.column_ndv(col) as f64)
}

/// The relation (by index) whose schema resolves `col`, if any.
fn owner(rels: &[Rel], col: &str) -> Option<usize> {
    rels.iter()
        .position(|r| r.plan.schema().index_of(col).is_some())
}

/// NDV of one column of one relation: catalog stats when the relation
/// bottoms out in a scan, else its cardinality (key-like assumption).
fn col_ndv(rel: &Rel, col: &str, catalog: &dyn Catalog) -> f64 {
    scan_ndv(&rel.plan, col, catalog).unwrap_or(rel.card.max(1.0))
}

pub(crate) fn cond_info(expr: Expr, rels: &[Rel], catalog: &dyn Catalog) -> CondInfo {
    let mut cols = Vec::new();
    expr.columns(&mut cols);
    let mut mask = 0usize;
    for c in &cols {
        if let Some(r) = owner(rels, c) {
            mask |= 1 << r;
        }
    }
    let factor = match &expr {
        Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } => {
            let mut lc = Vec::new();
            let mut rc = Vec::new();
            left.columns(&mut lc);
            right.columns(&mut rc);
            let side_ndv = |cols: &[String]| -> Option<f64> {
                let first = cols.first()?;
                let o = owner(rels, first)?;
                if !cols.iter().all(|c| owner(rels, c) == Some(o)) {
                    return None;
                }
                Some(
                    cols.iter()
                        .map(|c| col_ndv(&rels[o], c, catalog))
                        .fold(1.0, f64::max),
                )
            };
            match (side_ndv(&lc), side_ndv(&rc)) {
                (Some(l), Some(r)) if mask.count_ones() == 2 => 1.0 / l.max(r).max(1.0),
                _ => DEFAULT_SELECTIVITY,
            }
        }
        _ => DEFAULT_SELECTIVITY,
    };
    CondInfo { expr, mask, factor }
}

/// Cardinality and step cost of joining the accumulated left side (rows
/// `acc_card`, relations `acc_mask`) with relation `j`: the engine builds
/// a hash table over the left rows and probes with the right rows, and
/// every condition that first becomes evaluable scales the output.
pub(crate) fn join_step(
    acc_card: f64,
    acc_mask: usize,
    j: usize,
    rels: &[Rel],
    conds: &[CondInfo],
    cost: &CostModel,
) -> (f64, f64) {
    let new_mask = acc_mask | (1 << j);
    let mut card = acc_card * rels[j].card;
    for c in conds {
        if c.mask & new_mask == c.mask && c.mask & !acc_mask != 0 {
            card *= c.factor;
        }
    }
    let card = card.max(1.0);
    let step =
        acc_card * cost.cpu_ns_per_join_build_row + rels[j].card * cost.cpu_ns_per_join_probe_row;
    (card, step)
}

/// Total cost (ns) of executing `order` left-deep, and the final card.
pub(crate) fn order_cost(
    order: &[usize],
    rels: &[Rel],
    conds: &[CondInfo],
    cost: &CostModel,
) -> (f64, f64) {
    let mut mask = 1usize << order[0];
    let mut card = rels[order[0]].card;
    let mut total = 0.0;
    for &j in &order[1..] {
        let (c, step) = join_step(card, mask, j, rels, conds, cost);
        total += step;
        card = c;
        mask |= 1 << j;
    }
    (total, card)
}

/// Estimated bytes one row of `schema` occupies in a shipped batch, at
/// the widths `Column::footprint` counts: a fixed-width type by its size,
/// a string by its slot plus the mean of its column's min and max lengths.
pub(crate) fn row_width(schema: &Schema, stats: Option<&TableStats>) -> f64 {
    let len = |v: &Option<Value>| match v {
        Some(Value::Utf8(s)) => s.len() as f64,
        _ => 0.0,
    };
    (schema.fields().iter())
        .map(|f| {
            let text = match (f.data_type, stats.and_then(|s| s.column(&f.name))) {
                (DataType::Utf8, Some(c)) => (len(&c.min) + len(&c.max)) / 2.0,
                _ => 0.0,
            };
            f.data_type.estimated_width() as f64 + text
        })
        .sum()
}

/// Estimated bytes one group of a partial aggregate occupies in its
/// transport batch: its key columns (`keys` bytes) plus each aggregate's
/// state columns (a count; a sum and whether it saw a value; an extreme
/// in the output type).
pub(crate) fn transport_width(keys: f64, aggregates: &[AggExpr]) -> f64 {
    let width = |ty: DataType| ty.estimated_width() as f64;
    let states: f64 = (aggregates.iter())
        .map(|a| match a.func {
            AggFunc::Count => width(DataType::Int64),
            AggFunc::Sum => width(a.output_type) + width(DataType::Bool),
            AggFunc::Avg => width(DataType::Float64) + width(DataType::Int64),
            AggFunc::Min | AggFunc::Max => width(a.output_type),
        })
        .sum();
    keys + states
}

#[cfg(test)]
mod tests {
    use super::folded_groups;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn one_child_yields_its_rows() {
        for (n, g) in [(1.0, 3.0), (512.0, 512.0), (40.0, 4096.0), (7.0, 1e6)] {
            assert!(close(folded_groups(&[n], g), n), "n={n} G={g}");
        }
    }

    #[test]
    fn one_group_yields_one() {
        assert_eq!(folded_groups(&[5.0, 9.0, 1.0], 1.0), 1.0);
        // G is clamped to at least one group.
        assert_eq!(folded_groups(&[5.0, 9.0], 0.0), 1.0);
    }

    #[test]
    fn capped_by_the_rows_shipped() {
        // Far more keys than rows: the union cannot exceed what was sent.
        let children = [3.0, 4.0, 5.0];
        let got = folded_groups(&children, 1e12);
        assert!(got <= 12.0 && close(got, 12.0), "{got}");
        // Every child holds every key: the merger yields the keys.
        assert!(close(folded_groups(&[512.0; 64], 512.0), 512.0));
    }

    #[test]
    fn monotone_in_each_child() {
        let g = 300.0;
        let base = [10.0, 80.0, 150.0];
        for i in 0..base.len() {
            let mut last = folded_groups(&base, g);
            for step in 1..=50 {
                let mut children = base;
                children[i] += step as f64 * 7.0;
                let now = folded_groups(&children, g);
                assert!(now >= last, "child {i} at step {step}: {now} < {last}");
                last = now;
            }
        }
    }
}
