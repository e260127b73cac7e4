//! Logical query plans.
//!
//! The master's job manager "will create an execution plan based on data
//! partition information and cluster utilizations" (§III-C). This module
//! is the *logical* half: a tree of relational operators built from a
//! resolved query. The optimizer rewrites it; `feisu-core` then dissects
//! it into per-leaf sub-plans.

use crate::analyze::{infer_type, Resolved};
use crate::ast::{AggFunc, Expr, JoinKind};
use feisu_common::Result;
use feisu_format::{DataType, Field, Schema};

/// One aggregate computed by an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` = `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Output column name (the display form of the aggregate call).
    pub name: String,
    pub output_type: DataType,
}

/// Partial-aggregation stage shipped with a distributed scan task: the
/// grouping expressions and aggregates a leaf evaluates before results
/// travel up the merge tree. Lives here (not in the engine) so the
/// planner, the physical layer and the leaf servers share one type.
#[derive(Debug, Clone, PartialEq)]
pub struct AggStage {
    pub group_by: Vec<(Expr, String, DataType)>,
    pub aggregates: Vec<AggExpr>,
}

impl AggStage {
    /// True when the stage is a bare global `COUNT(*)` — servable from
    /// index bit counts alone.
    pub fn is_count_star_only(&self) -> bool {
        self.group_by.is_empty()
            && self.aggregates.len() == 1
            && self.aggregates[0].arg.is_none()
            && matches!(self.aggregates[0].func, AggFunc::Count)
    }
}

/// Logical relational operators.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of one table. `projection` lists the *storage* (bare) column
    /// names to read; `output_schema` carries the canonical (possibly
    /// qualified) names the rest of the plan sees.
    Scan {
        table: String,
        binding: String,
        projection: Vec<String>,
        /// Predicate over the scan's output columns, pushed down by the
        /// optimizer. Evaluated leaf-side (and served by SmartIndex).
        predicate: Option<Expr>,
        output_schema: Schema,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        /// Conjunction of join conditions.
        on: Vec<Expr>,
        output_schema: Schema,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<(Expr, String, DataType)>,
        aggregates: Vec<AggExpr>,
        output_schema: Schema,
        /// The groups an aggregate is estimated to yield, set only on the
        /// partial side of an aggregate that lowering split around a join
        /// (`None` on every aggregate a query writes).
        est_groups: Option<u64>,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
        output_schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(Expr, /*descending=*/ bool)>,
        /// Top-N hint pushed down from LIMIT by the optimizer.
        fetch: Option<u64>,
    },
    Limit {
        input: Box<LogicalPlan>,
        fetch: u64,
    },
    /// A relation that is provably empty (e.g. a `WHERE FALSE` filter
    /// pruned by the optimizer). Executes without touching storage.
    Empty {
        output_schema: Schema,
    },
}

impl LogicalPlan {
    /// The operator's output schema.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { output_schema, .. }
            | LogicalPlan::Join { output_schema, .. }
            | LogicalPlan::Aggregate { output_schema, .. }
            | LogicalPlan::Project { output_schema, .. }
            | LogicalPlan::Empty { output_schema } => output_schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// The operator's inputs, left before right: the one place a tree
    /// walk learns which variants have which children.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut LogicalPlan> {
        let (first, second) = match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Empty { .. } => (None, None),
            LogicalPlan::Join { left, right, .. } => (Some(&mut **left), Some(&mut **right)),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => (Some(&mut **input), None),
        };
        first.into_iter().chain(second)
    }

    /// Pretty multi-line plan rendering (EXPLAIN-style), for debugging and
    /// doc examples.
    pub fn display_indent(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, level: usize) {
        let pad = "  ".repeat(level);
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                predicate,
                ..
            } => {
                out.push_str(&format!("{pad}Scan: {table} cols={projection:?}"));
                if let Some(p) = predicate {
                    out.push_str(&format!(" filter={p}"));
                }
                out.push('\n');
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                ..
            } => {
                let conds: Vec<String> = on.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!("{pad}Join: {kind:?} on [{}]\n", conds.join(", ")));
                left.fmt_indent(out, level + 1);
                right.fmt_indent(out, level + 1);
            }
            LogicalPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter: {predicate}\n"));
                input.fmt_indent(out, level + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                let groups: Vec<&str> = group_by.iter().map(|(_, n, _)| n.as_str()).collect();
                let aggs: Vec<&str> = aggregates.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!("{pad}Aggregate: group={groups:?} aggs={aggs:?}\n"));
                input.fmt_indent(out, level + 1);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                out.push_str(&format!("{pad}Project: [{}]\n", cols.join(", ")));
                input.fmt_indent(out, level + 1);
            }
            LogicalPlan::Sort { input, keys, fetch } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort: [{}] fetch={fetch:?}\n", ks.join(", ")));
                input.fmt_indent(out, level + 1);
            }
            LogicalPlan::Limit { input, fetch } => {
                out.push_str(&format!("{pad}Limit: {fetch}\n"));
                input.fmt_indent(out, level + 1);
            }
            LogicalPlan::Empty { .. } => {
                out.push_str(&format!("{pad}Empty\n"));
            }
        }
    }
}

/// Builds the initial (unoptimized) logical plan from a resolved query.
pub fn build_plan(resolved: &Resolved) -> Result<LogicalPlan> {
    let q = &resolved.query;

    // 1. Scans for every bound table, full projection (pruned later).
    let mut scans: Vec<LogicalPlan> = Vec::new();
    for bt in &resolved.tables {
        let projection: Vec<String> = bt.schema.fields().iter().map(|f| f.name.clone()).collect();
        let output_schema = if resolved.qualified {
            Schema::new(
                bt.schema
                    .fields()
                    .iter()
                    .map(|f| {
                        Field::new(
                            format!("{}.{}", bt.binding, f.name),
                            f.data_type,
                            f.nullable,
                        )
                    })
                    .collect(),
            )
        } else {
            bt.schema.clone()
        };
        scans.push(LogicalPlan::Scan {
            table: bt.table.clone(),
            binding: bt.binding.clone(),
            projection,
            predicate: None,
            output_schema,
        });
    }

    // 2. Combine: implicit FROM list becomes cross joins, explicit JOINs
    //    attach in order.
    let n_from = q.from.len();
    let mut iter = scans.into_iter();
    let mut plan = iter.next().expect("at least one table");
    for (i, scan) in iter.enumerate() {
        let (kind, on) = if i < n_from - 1 {
            (JoinKind::Cross, Vec::new())
        } else {
            let j = &q.joins[i - (n_from - 1)];
            (j.kind, j.on.clone())
        };
        let output_schema = plan.schema().join(&scan.schema());
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(scan),
            kind,
            on,
            output_schema,
        };
    }

    // 3. WHERE.
    if let Some(w) = &q.where_clause {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: w.clone(),
        };
    }

    // 4. Aggregation.
    let has_group = !q.group_by.is_empty();
    let has_agg = q.select.iter().any(|s| s.expr.has_aggregate())
        || q.having.as_ref().is_some_and(|h| h.has_aggregate())
        || q.order_by.iter().any(|(e, _)| e.has_aggregate());
    let mut select_exprs: Vec<(Expr, String)> = q
        .select
        .iter()
        .map(|item| {
            let name = item.alias.clone().unwrap_or_else(|| match &item.expr {
                // Bare column references surface under their unqualified
                // name, as in standard SQL.
                Expr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_string(),
                other => other.to_string(),
            });
            (item.expr.clone(), name)
        })
        .collect();
    // De-duplicate output names (`SELECT t1.url, t2.url`): later
    // duplicates keep their qualified display form.
    {
        let mut seen = std::collections::HashSet::new();
        for (e, name) in &mut select_exprs {
            if !seen.insert(name.clone()) {
                *name = e.to_string();
                seen.insert(name.clone());
            }
        }
    }
    let mut having = q.having.clone();
    let mut order_by = q.order_by.clone();

    if has_group || has_agg {
        // Collect every distinct aggregate call appearing anywhere.
        let mut aggs: Vec<Expr> = Vec::new();
        for (e, _) in &select_exprs {
            collect_aggs(e, &mut aggs);
        }
        if let Some(h) = &having {
            collect_aggs(h, &mut aggs);
        }
        for (e, _) in &order_by {
            collect_aggs(e, &mut aggs);
        }
        let group_by: Vec<(Expr, String, DataType)> = q
            .group_by
            .iter()
            .map(|g| {
                let dt = infer_type(g, resolved)?.unwrap_or(DataType::Utf8);
                Ok((g.clone(), g.to_string(), dt))
            })
            .collect::<Result<_>>()?;
        let aggregates: Vec<AggExpr> = aggs
            .iter()
            .map(|a| {
                let (func, arg) = match a {
                    Expr::Aggregate { func, arg, .. } => {
                        (*func, arg.as_ref().map(|b| (**b).clone()))
                    }
                    _ => unreachable!("collect_aggs returns aggregates"),
                };
                let output_type = infer_type(a, resolved)?.unwrap_or(DataType::Float64);
                Ok(AggExpr {
                    func,
                    arg,
                    name: a.to_string(),
                    output_type,
                })
            })
            .collect::<Result<_>>()?;
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|(_, name, dt)| Field::new(name.clone(), *dt, true))
            .collect();
        for a in &aggregates {
            fields.push(Field::new(a.name.clone(), a.output_type, true));
        }
        let output_schema = Schema::new(fields);
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: group_by.clone(),
            aggregates,
            output_schema,
            est_groups: None,
        };
        // Rewrite downstream expressions: aggregate calls and group
        // expressions become column references into the aggregate output.
        let rewrite = |e: &Expr| rewrite_post_agg(e, &group_by);
        for (e, _) in &mut select_exprs {
            *e = rewrite(e);
        }
        if let Some(h) = &mut having {
            *h = rewrite(h);
        }
        for (e, _) in &mut order_by {
            *e = rewrite(e);
        }
    }

    // 5. HAVING.
    if let Some(h) = having {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: h,
        };
    }

    // 6. Projection to the SELECT list.
    let in_schema = plan.schema();
    let fields: Vec<Field> = select_exprs
        .iter()
        .map(|(e, name)| {
            let dt = type_in_schema(e, &in_schema)
                .or_else(|| infer_type(e, resolved).ok().flatten())
                .unwrap_or(DataType::Utf8);
            Field::new(name.clone(), dt, true)
        })
        .collect();
    // ORDER BY may reference select aliases or pre-projection columns; to
    // keep execution simple we sort *before* projecting when sort keys are
    // not plain select outputs, else after. Here: sort before projection
    // using rewritten keys (they reference aggregate/scan output columns),
    // which is always valid because projection only renames/derives.
    if !order_by.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: order_by,
            fetch: None,
        };
    }
    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: select_exprs,
        output_schema: Schema::new(fields),
    };

    // 7. LIMIT.
    if let Some(n) = q.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            fetch: n,
        };
    }
    Ok(plan)
}

fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Aggregate { .. } if !out.contains(e) => {
            out.push(e.clone());
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => collect_aggs(operand, out),
        _ => {}
    }
}

/// After aggregation, aggregate calls and group expressions are plain
/// columns of the aggregate output (named by their display form).
fn rewrite_post_agg(e: &Expr, group_by: &[(Expr, String, DataType)]) -> Expr {
    if let Some((_, name, _)) = group_by.iter().find(|(g, _, _)| g == e) {
        return Expr::Column(name.clone());
    }
    match e {
        Expr::Aggregate { .. } => Expr::Column(e.to_string()),
        Expr::Binary { op, left, right } => Expr::binary(
            *op,
            rewrite_post_agg(left, group_by),
            rewrite_post_agg(right, group_by),
        ),
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(rewrite_post_agg(operand, group_by)),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(rewrite_post_agg(operand, group_by)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// Types an expression against a concrete operator output schema (used
/// post-aggregation where `Resolved` no longer describes the scope).
fn type_in_schema(e: &Expr, schema: &Schema) -> Option<DataType> {
    match e {
        Expr::Column(c) => schema.field_by_name(c).map(|f| f.data_type),
        Expr::Literal(v) => v.data_type(),
        Expr::Binary { op, left, right } => {
            use crate::ast::BinaryOp as B;
            match op {
                B::And | B::Or | B::Contains => Some(DataType::Bool),
                op if op.is_comparison() => Some(DataType::Bool),
                _ => {
                    let lt = type_in_schema(left, schema)?;
                    let rt = type_in_schema(right, schema)?;
                    if lt == DataType::Int64 && rt == DataType::Int64 {
                        Some(DataType::Int64)
                    } else {
                        Some(DataType::Float64)
                    }
                }
            }
        }
        Expr::Unary {
            op: crate::ast::UnaryOp::Neg,
            operand,
        } => type_in_schema(operand, schema),
        Expr::Unary { .. } | Expr::IsNull { .. } => Some(DataType::Bool),
        Expr::Aggregate { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse_query;
    use std::collections::HashMap;

    fn catalog() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "t1".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("clicks", DataType::Int64, true),
                Field::new("score", DataType::Float64, false),
            ]),
        );
        m.insert(
            "t2".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("rank", DataType::Int64, false),
            ]),
        );
        m
    }

    fn plan(sql: &str) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        let r = analyze(&q, &catalog()).unwrap();
        build_plan(&r).unwrap()
    }

    #[test]
    fn simple_scan_project() {
        let p = plan("SELECT url FROM t1");
        match &p {
            LogicalPlan::Project {
                input,
                exprs,
                output_schema,
            } => {
                assert_eq!(exprs.len(), 1);
                assert_eq!(output_schema.field(0).name, "url");
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn where_becomes_filter() {
        let p = plan("SELECT url FROM t1 WHERE clicks > 5");
        let s = p.display_indent();
        assert!(s.contains("Filter: (clicks > 5)"), "{s}");
        assert!(s.contains("Scan: t1"), "{s}");
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan(
            "SELECT url, COUNT(*) AS n FROM t1 GROUP BY url HAVING n > 1 ORDER BY n DESC LIMIT 3",
        );
        let s = p.display_indent();
        assert!(s.contains("Limit: 3"), "{s}");
        assert!(s.contains("Sort"), "{s}");
        assert!(s.contains("Aggregate"), "{s}");
        // HAVING references the aggregate output column after rewrite.
        assert!(s.contains("Filter: (COUNT(*) > 1)"), "{s}");
    }

    #[test]
    fn aggregate_output_schema() {
        let p = plan("SELECT url, COUNT(*) AS n, SUM(clicks) AS s FROM t1 GROUP BY url");
        let schema = p.schema();
        assert_eq!(schema.field(0).name, "url");
        assert_eq!(schema.field(1).name, "n");
        assert_eq!(schema.field(1).data_type, DataType::Int64);
        assert_eq!(schema.field(2).data_type, DataType::Int64);
    }

    #[test]
    fn global_aggregate_without_group() {
        let p = plan("SELECT COUNT(*) FROM t1 WHERE clicks > 0");
        let s = p.display_indent();
        assert!(s.contains("Aggregate: group=[] "), "{s}");
    }

    #[test]
    fn join_plan_qualified_schema() {
        let p = plan("SELECT clicks, rank FROM t1 JOIN t2 ON t1.url = t2.url");
        let s = p.display_indent();
        assert!(s.contains("Join: Inner"), "{s}");
        match &p {
            LogicalPlan::Project { input, .. } => {
                let schema = input.schema();
                assert!(schema.index_of("t1.url").is_some());
                assert!(schema.index_of("t2.rank").is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn implicit_cross_join_from_list() {
        let p = plan("SELECT t1.url FROM t1, t2");
        let s = p.display_indent();
        assert!(s.contains("Join: Cross"), "{s}");
    }

    #[test]
    fn projected_expression_names_default_to_display() {
        let p = plan("SELECT clicks + 1 FROM t1");
        assert_eq!(p.schema().field(0).name, "(clicks + 1)");
        assert_eq!(p.schema().field(0).data_type, DataType::Int64);
    }
}
