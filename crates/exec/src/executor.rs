//! Logical-plan executor over a pluggable scan source.
//!
//! The distributed engine in `feisu-core` splits a plan at its scans and
//! runs the fragments on leaf servers; this executor is the shared
//! machinery that runs *any* plan given something that can produce scan
//! output. With [`MemProvider`] it doubles as the single-process oracle
//! the integration tests compare the cluster against.

use crate::aggregate::AggTable;
use crate::batch::RecordBatch;
use crate::join::join;
use crate::ops::{filter, limit, project};
use crate::sort::sort;
use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, Result};
use feisu_format::{Column, Field, Schema};
use feisu_sql::ast::Expr;
use feisu_sql::plan::LogicalPlan;

/// Produces the rows of one table scan.
pub trait ScanProvider {
    /// Returns the scan output: the named columns of `table` (storage
    /// names in `projection`), with `predicate` already applied or not —
    /// the provider reports which via the bool (false = executor must
    /// apply the predicate itself).
    fn scan(
        &mut self,
        table: &str,
        projection: &[String],
        predicate: Option<&Expr>,
        output_schema: &Schema,
    ) -> Result<(RecordBatch, bool)>;
}

/// In-memory tables keyed by name; applies predicates itself (so the
/// executor path through residual filtering is exercised).
#[derive(Default)]
pub struct MemProvider {
    tables: FxHashMap<String, RecordBatch>,
}

impl MemProvider {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, batch: RecordBatch) {
        self.tables.insert(name.into(), batch);
    }

    pub fn get(&self, name: &str) -> Option<&RecordBatch> {
        self.tables.get(name)
    }
}

impl ScanProvider for MemProvider {
    fn scan(
        &mut self,
        table: &str,
        projection: &[String],
        predicate: Option<&Expr>,
        output_schema: &Schema,
    ) -> Result<(RecordBatch, bool)> {
        let src = self
            .tables
            .get(table)
            .ok_or_else(|| FeisuError::Execution(format!("unknown table `{table}`")))?;
        // The scan's predicate may reference columns outside the
        // projection (a Scan node evaluates its own predicate), so filter
        // the full source rows first. Canonical names are mapped to
        // storage names by stripping the table qualifier.
        let selected: Option<Vec<usize>> = match predicate {
            None => None,
            Some(p) => {
                let storage_pred = strip_qualifiers(p);
                Some(
                    crate::expr::eval_predicate(src, &storage_pred)?
                        .iter_ones()
                        .collect(),
                )
            }
        };
        let mut columns: Vec<Column> = Vec::with_capacity(projection.len());
        for name in projection {
            let c = src.column_by_name(name).ok_or_else(|| {
                FeisuError::Execution(format!("table `{table}` has no column `{name}`"))
            })?;
            columns.push(match &selected {
                Some(idx) => c.try_take(idx)?,
                None => c.clone(),
            });
        }
        // Rename to the plan's canonical (possibly qualified) names.
        let fields: Vec<Field> = output_schema.fields().to_vec();
        let batch = RecordBatch::new(Schema::new(fields), columns)?;
        Ok((batch, true))
    }
}

pub use feisu_sql::exprutil::strip_qualifiers;

/// Runs a logical plan to completion, returning one batch.
pub fn execute(plan: &LogicalPlan, provider: &mut dyn ScanProvider) -> Result<RecordBatch> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            predicate,
            output_schema,
            ..
        } => {
            let (batch, applied) =
                provider.scan(table, projection, predicate.as_ref(), output_schema)?;
            if !applied {
                if let Some(p) = predicate {
                    return filter(&batch, p);
                }
            }
            Ok(batch)
        }
        LogicalPlan::Filter { input, predicate } => {
            let batch = execute(input, provider)?;
            filter(&batch, predicate)
        }
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => {
            let batch = execute(input, provider)?;
            project(&batch, exprs, output_schema)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            output_schema,
        } => {
            let l = execute(left, provider)?;
            let r = execute(right, provider)?;
            join(&l, &r, *kind, on, output_schema)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            output_schema,
            ..
        } => {
            let batch = execute(input, provider)?;
            let mut table = AggTable::new(group_by.clone(), aggregates.clone());
            table.update(&batch)?;
            table.finish(output_schema)
        }
        LogicalPlan::Sort { input, keys, fetch } => {
            let batch = execute(input, provider)?;
            sort(&batch, keys, *fetch)
        }
        LogicalPlan::Limit { input, fetch } => {
            let batch = execute(input, provider)?;
            limit(&batch, *fetch)
        }
        LogicalPlan::Empty { output_schema } => Ok(RecordBatch::empty(output_schema.clone())),
    }
}

/// Convenience: parse, analyze, plan, optimize and execute one SQL string
/// against in-memory tables — the one-call oracle used across the test
/// suite.
pub fn run_sql(sql: &str, provider: &mut MemProvider) -> Result<RecordBatch> {
    let query = feisu_sql::parser::parse_query(sql)?;
    let mut catalog: FxHashMap<String, Schema> = FxHashMap::default();
    for (name, batch) in provider.tables.iter() {
        catalog.insert(name.clone(), batch.schema().clone());
    }
    let resolved = feisu_sql::analyze::analyze(&query, &catalog)?;
    let plan = feisu_sql::plan::build_plan(&resolved)?;
    let plan = feisu_sql::optimizer::optimize(plan)?;
    execute(&plan, provider)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Value};

    fn provider() -> MemProvider {
        let mut p = MemProvider::new();
        let schema = Schema::new(vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("clicks", DataType::Int64, true),
            Field::new("score", DataType::Float64, false),
        ]);
        let batch = RecordBatch::new(
            schema,
            vec![
                Column::from_utf8(vec![
                    "a.com".into(),
                    "b.com".into(),
                    "a.com".into(),
                    "c.com".into(),
                    "b.com".into(),
                    "a.com".into(),
                ]),
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(10),
                        Value::Int64(5),
                        Value::Int64(20),
                        Value::Null,
                        Value::Int64(15),
                        Value::Int64(30),
                    ],
                )
                .unwrap(),
                Column::from_f64(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            ],
        )
        .unwrap();
        p.insert("t1", batch);

        let dim_schema = Schema::new(vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("rank", DataType::Int64, false),
        ]);
        let dim = RecordBatch::new(
            dim_schema,
            vec![
                Column::from_utf8(vec!["a.com".into(), "b.com".into()]),
                Column::from_i64(vec![1, 2]),
            ],
        )
        .unwrap();
        p.insert("dims", dim);
        p
    }

    #[test]
    fn select_where_projection() {
        let mut p = provider();
        let out = run_sql("SELECT url FROM t1 WHERE clicks > 10", &mut p).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(out.schema().field(0).name, "url");
    }

    #[test]
    fn count_star_counts_all_rows() {
        let mut p = provider();
        let out = run_sql("SELECT COUNT(*) FROM t1", &mut p).unwrap();
        assert_eq!(out.column(0).value(0), Value::Int64(6));
    }

    #[test]
    fn paper_q1_shape() {
        let mut p = provider();
        let out = run_sql(
            "SELECT COUNT(*) FROM t1 WHERE (clicks > 0) AND (clicks <= 15)",
            &mut p,
        )
        .unwrap();
        assert_eq!(out.column(0).value(0), Value::Int64(3));
    }

    #[test]
    fn group_by_having_order_limit() {
        let mut p = provider();
        let out = run_sql(
            "SELECT url, SUM(clicks) AS total FROM t1 \
             GROUP BY url HAVING total > 5 ORDER BY total DESC LIMIT 2",
            &mut p,
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value_at(0, "url"), Some(Value::Utf8("a.com".into())));
        assert_eq!(out.value_at(0, "total"), Some(Value::Int64(60)));
        assert_eq!(out.value_at(1, "total"), Some(Value::Int64(20)));
    }

    #[test]
    fn join_and_aggregate() {
        let mut p = provider();
        let out = run_sql(
            "SELECT rank, COUNT(*) AS n FROM t1 JOIN dims ON t1.url = dims.url \
             GROUP BY rank ORDER BY rank",
            &mut p,
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.value_at(0, "rank"), Some(Value::Int64(1)));
        assert_eq!(out.value_at(0, "n"), Some(Value::Int64(3)));
        assert_eq!(out.value_at(1, "n"), Some(Value::Int64(2)));
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let mut p = provider();
        let out = run_sql(
            "SELECT t1.url, rank FROM t1 LEFT JOIN dims ON t1.url = dims.url \
             WHERE t1.clicks IS NULL",
            &mut p,
        )
        .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value_at(0, "rank"), Some(Value::Null));
    }

    #[test]
    fn avg_and_contains() {
        let mut p = provider();
        let out = run_sql(
            "SELECT AVG(score) FROM t1 WHERE url CONTAINS 'a.com'",
            &mut p,
        )
        .unwrap();
        let avg = out.column(0).value(0).as_f64().unwrap();
        assert!((avg - (0.1 + 0.3 + 0.6) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_table_errors() {
        let mut p = provider();
        assert!(run_sql("SELECT 1 FROM ghost", &mut p).is_err());
    }

    #[test]
    fn order_by_unprojected_column() {
        let mut p = provider();
        let out = run_sql("SELECT url FROM t1 ORDER BY clicks DESC LIMIT 1", &mut p).unwrap();
        assert_eq!(out.value_at(0, "url"), Some(Value::Utf8("a.com".into())));
    }

    #[test]
    fn arithmetic_projection() {
        let mut p = provider();
        let out = run_sql("SELECT clicks * 2 AS d FROM t1 WHERE clicks = 5", &mut p).unwrap();
        assert_eq!(out.value_at(0, "d"), Some(Value::Int64(10)));
    }
}
