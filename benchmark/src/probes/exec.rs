//! `feisu-exec`: lowering and the master-side operators.

use super::At;
use feisu_common::Result;
use feisu_core::catalog::CatalogView;
use feisu_core::engine::FeisuCluster;
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_exec::reorder::{lower_with, LowerOptions};
use feisu_sql::plan::LogicalPlan;

pub fn lower(at: At<'_>, cluster: &FeisuCluster, logical: &LogicalPlan) -> Result<PhysicalPlan> {
    let opt = &cluster.spec().config.optimizer;
    let opts = LowerOptions {
        cost: &cluster.spec().cost,
        join_reorder: opt.enabled && opt.join_reorder,
        dp_limit: opt.dp_limit,
    };
    let catalog = CatalogView(cluster.catalog());
    Ok(at
        .time("exec.lower", || lower_with(logical, &catalog, &opts), |_| 0)?
        .0)
}

/// Runs one master-side operator over its already-computed inputs
/// (`inputs[0]` = left/only child). `None` for operators that are not
/// master-side (`DistributedScan`, `Empty`). Work = input rows.
pub fn operator(
    at: At<'_>,
    plan: &PhysicalPlan,
    inputs: &[RecordBatch],
) -> Option<Result<RecordBatch>> {
    let rows = |_: &Result<RecordBatch>| inputs.iter().map(|b| b.rows() as u64).sum();
    Some(match plan {
        PhysicalPlan::FinalAggregate {
            group_by,
            aggregates,
            output_schema,
            ..
        } => at.time(
            "exec.agg_merge",
            || {
                AggTable::from_transport(group_by.clone(), aggregates.clone(), &inputs[0])?
                    .finish(output_schema)
            },
            rows,
        ),
        PhysicalPlan::HashAggregate {
            group_by,
            aggregates,
            output_schema,
            ..
        } => at.time(
            "exec.agg_update",
            || {
                let mut agg = AggTable::new(group_by.clone(), aggregates.clone());
                agg.update(&inputs[0])?;
                agg.finish(output_schema)
            },
            rows,
        ),
        PhysicalPlan::Filter { predicate, .. } => at.time(
            "exec.filter",
            || feisu_exec::ops::filter(&inputs[0], predicate),
            rows,
        ),
        PhysicalPlan::Project {
            exprs,
            output_schema,
            ..
        } => at.time(
            "exec.project",
            || feisu_exec::ops::project(&inputs[0], exprs, output_schema),
            rows,
        ),
        PhysicalPlan::HashJoin {
            kind,
            on,
            output_schema,
            ..
        } => at.time(
            "exec.join",
            || feisu_exec::join::join(&inputs[0], &inputs[1], *kind, on, output_schema),
            rows,
        ),
        PhysicalPlan::Sort { keys, fetch, .. } => at.time(
            "exec.sort",
            || feisu_exec::sort::sort(&inputs[0], keys, *fetch),
            rows,
        ),
        PhysicalPlan::Limit { fetch, .. } => at.time(
            "exec.limit",
            || feisu_exec::ops::limit(&inputs[0], *fetch),
            rows,
        ),
        PhysicalPlan::DistributedScan { .. } | PhysicalPlan::Empty { .. } => return None,
    })
}

/// The operator's children, in evaluation order.
pub fn children(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match plan {
        PhysicalPlan::FinalAggregate { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => vec![input],
        PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
        PhysicalPlan::DistributedScan { .. } | PhysicalPlan::Empty { .. } => Vec::new(),
    }
}
