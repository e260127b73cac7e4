//! `feisu-sql`: parse → analyze → plan → optimize.

use super::At;
use feisu_common::Result;
use feisu_core::catalog::CatalogView;
use feisu_core::engine::FeisuCluster;
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::optimize_with_trace;
use feisu_sql::parser::parse_query;
use feisu_sql::plan::{build_plan, LogicalPlan};

/// The optimized logical plan of one statement.
pub fn front_end(at: At<'_>, cluster: &FeisuCluster, sql: &str) -> Result<LogicalPlan> {
    let query = at.time("sql.parse", || parse_query(sql), |_| sql.len() as u64)?;
    let catalog = CatalogView(cluster.catalog());
    let resolved = at.time("sql.analyze", || analyze(&query, &catalog), |_| 0)?;
    let plan = at.time("sql.plan", || build_plan(&resolved), |_| 0)?;
    let fires = |r: &Result<(LogicalPlan, Vec<_>)>| r.as_ref().map_or(0, |(_, f)| f.len() as u64);
    Ok(at
        .time("sql.optimize", || optimize_with_trace(plan), fires)?
        .0)
}
