//! Semantic analysis: name resolution and light type checking.
//!
//! The analyzer resolves every column reference against the catalog's
//! schemas, detects ambiguity, and rewrites references to a canonical
//! form: bare names for single-table queries, `table.column` qualified
//! names for multi-table queries (matching the field names the join
//! operators will produce). It also infers expression result types so the
//! planner can construct output schemas.

use crate::ast::BinaryOp;
use crate::ast::{AggFunc, Expr, Query, UnaryOp};
use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, Result};
use feisu_format::{DataType, Schema};
use std::sync::Arc;

/// Read-only view of table metadata, implemented by the master's catalog.
pub trait Catalog {
    /// Schema of a table by its *storage* name.
    fn table_schema(&self, name: &str) -> Option<Schema>;

    /// Statistics snapshot for a table (row count, per-column
    /// min/max/NDV), when the implementation maintains them; lent, so a
    /// planner may ask once per relation and per join-condition side.
    /// Used by cost-based lowering; `None` falls back to uniform defaults.
    fn table_stats(&self, _name: &str) -> Option<Arc<crate::stats::TableStats>> {
        None
    }
}

impl Catalog for FxHashMap<String, Schema> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.get(name).cloned()
    }
}

impl Catalog for std::collections::HashMap<String, Schema> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.get(name).cloned()
    }
}

/// One resolved table binding.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Storage name (catalog key).
    pub table: String,
    /// Name the query knows it by (alias or table name).
    pub binding: String,
    pub schema: Schema,
}

/// The resolved query: same clause structure as the AST but with every
/// column reference canonicalized and table bindings attached.
#[derive(Debug, Clone)]
pub struct Resolved {
    pub query: Query,
    pub tables: Vec<BoundTable>,
    /// Whether canonical references are qualified (`t.c`) — true iff the
    /// query touches more than one table.
    pub qualified: bool,
}

impl Resolved {
    /// Looks up the canonical type of a resolved column reference.
    pub fn column_type(&self, canonical: &str) -> Option<DataType> {
        if self.qualified {
            let (tbl, col) = canonical.split_once('.')?;
            let bt = self.tables.iter().find(|t| t.binding == tbl)?;
            Some(bt.schema.field_by_name(col)?.data_type)
        } else {
            let f = self.tables.first()?.schema.field_by_name(canonical)?;
            Some(f.data_type)
        }
    }
}

/// Analyzes a parsed query against a catalog.
pub fn analyze(query: &Query, catalog: &dyn Catalog) -> Result<Resolved> {
    // Bind tables.
    let mut tables = Vec::new();
    let mut seen = FxHashMap::default();
    for tref in query.all_tables() {
        let schema = catalog
            .table_schema(&tref.name)
            .ok_or_else(|| FeisuError::Analysis(format!("unknown table `{}`", tref.name)))?;
        let binding = tref.effective_name().to_string();
        if seen.insert(binding.clone(), ()).is_some() {
            return Err(FeisuError::Analysis(format!(
                "duplicate table binding `{binding}`"
            )));
        }
        tables.push(BoundTable {
            table: tref.name.clone(),
            binding,
            schema,
        });
    }
    if tables.is_empty() {
        return Err(FeisuError::Analysis("query has no tables".into()));
    }
    let qualified = tables.len() > 1;

    let resolver = Resolver {
        tables: &tables,
        qualified,
    };

    let mut q = query.clone();
    // Expand `SELECT *`.
    let mut select = Vec::new();
    for item in q.select {
        if item.expr == Expr::Column("*".into()) {
            for bt in &tables {
                for f in bt.schema.fields() {
                    let name = if qualified {
                        format!("{}.{}", bt.binding, f.name)
                    } else {
                        f.name.clone()
                    };
                    select.push(crate::ast::SelectItem {
                        expr: Expr::Column(name),
                        alias: None,
                    });
                }
            }
        } else {
            select.push(item);
        }
    }
    q.select = select;

    // Aliases defined in the SELECT list are visible in GROUP BY, HAVING
    // and ORDER BY (the paper grammar: `GROUP BY (field1 | alias1)`).
    let mut aliases: FxHashMap<String, Expr> = FxHashMap::default();

    for item in &mut q.select {
        item.expr = resolver.resolve(&item.expr)?;
        if let Some(a) = &item.alias {
            aliases.insert(a.clone(), item.expr.clone());
        }
    }
    if let Some(w) = &mut q.where_clause {
        if w.has_aggregate() {
            return Err(FeisuError::Analysis(
                "aggregate function not allowed in WHERE".into(),
            ));
        }
        *w = resolver.resolve(w)?;
    }
    for j in &mut q.joins {
        for cond in &mut j.on {
            *cond = resolver.resolve(cond)?;
        }
    }
    for g in &mut q.group_by {
        *g = resolve_with_aliases(&resolver, g, &aliases)?;
        if g.has_aggregate() {
            return Err(FeisuError::Analysis(
                "aggregate function not allowed in GROUP BY".into(),
            ));
        }
    }
    if let Some(h) = &mut q.having {
        *h = resolve_with_aliases(&resolver, h, &aliases)?;
    }
    for (e, _) in &mut q.order_by {
        *e = resolve_with_aliases(&resolver, e, &aliases)?;
    }

    // Grouping validity: if there is a GROUP BY or any aggregate in the
    // select list, every select item must be an aggregate or a grouping
    // expression.
    let has_group = !q.group_by.is_empty();
    let has_agg = q.select.iter().any(|s| s.expr.has_aggregate())
        || q.having.as_ref().is_some_and(|h| h.has_aggregate());
    if has_group || has_agg {
        for item in &q.select {
            if !item.expr.has_aggregate() && !expr_is_grouped(&item.expr, &q.group_by) {
                return Err(FeisuError::Analysis(format!(
                    "`{}` must appear in GROUP BY or inside an aggregate",
                    item.expr
                )));
            }
        }
    } else if q.having.is_some() {
        return Err(FeisuError::Analysis(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    let resolved = Resolved {
        query: q,
        tables,
        qualified,
    };

    // Type-check scalar expressions (walks everything once; reports the
    // first mismatch).
    for item in &resolved.query.select {
        infer_type(&item.expr, &resolved)?;
    }
    if let Some(w) = &resolved.query.where_clause {
        expect_boolean(w, &resolved)?;
    }
    if let Some(h) = &resolved.query.having {
        expect_boolean(h, &resolved)?;
    }
    Ok(resolved)
}

fn expr_is_grouped(e: &Expr, group_by: &[Expr]) -> bool {
    if group_by.contains(e) {
        return true;
    }
    match e {
        Expr::Binary { left, right, .. } => {
            expr_is_grouped(left, group_by) && expr_is_grouped(right, group_by)
        }
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => {
            expr_is_grouped(operand, group_by)
        }
        Expr::Literal(_) => true,
        _ => false,
    }
}

fn resolve_with_aliases(
    resolver: &Resolver<'_>,
    e: &Expr,
    aliases: &FxHashMap<String, Expr>,
) -> Result<Expr> {
    if let Expr::Column(name) = e {
        if let Some(target) = aliases.get(name) {
            return Ok(target.clone());
        }
    }
    match resolver.resolve(e) {
        Ok(r) => Ok(r),
        Err(err) => {
            // A deeper reference may still use an alias, e.g. `n > 1`.
            match e {
                Expr::Binary { op, left, right } => Ok(Expr::binary(
                    *op,
                    resolve_with_aliases(resolver, left, aliases)?,
                    resolve_with_aliases(resolver, right, aliases)?,
                )),
                Expr::Unary { op, operand } => Ok(Expr::Unary {
                    op: *op,
                    operand: Box::new(resolve_with_aliases(resolver, operand, aliases)?),
                }),
                _ => Err(err),
            }
        }
    }
}

struct Resolver<'a> {
    tables: &'a [BoundTable],
    qualified: bool,
}

impl Resolver<'_> {
    fn resolve(&self, e: &Expr) -> Result<Expr> {
        Ok(match e {
            Expr::Column(name) => Expr::Column(self.resolve_column(name)?),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { op, left, right } => {
                Expr::binary(*op, self.resolve(left)?, self.resolve(right)?)
            }
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(self.resolve(operand)?),
            },
            Expr::IsNull { operand, negated } => Expr::IsNull {
                operand: Box::new(self.resolve(operand)?),
                negated: *negated,
            },
            Expr::Aggregate { func, arg, within } => Expr::Aggregate {
                func: *func,
                arg: match arg {
                    Some(a) => Some(Box::new(self.resolve(a)?)),
                    None => None,
                },
                within: match within {
                    Some(w) => Some(Box::new(self.resolve(w)?)),
                    None => None,
                },
            },
        })
    }

    fn resolve_column(&self, name: &str) -> Result<String> {
        // Flattened JSON columns legitimately contain dots (`user.city`);
        // a whole-name match in some table wins over qualifier parsing.
        let whole_owners: Vec<&BoundTable> = self
            .tables
            .iter()
            .filter(|t| t.schema.index_of(name).is_some())
            .collect();
        if whole_owners.len() == 1 {
            return Ok(if self.qualified {
                format!("{}.{name}", whole_owners[0].binding)
            } else {
                name.to_string()
            });
        }
        if let Some((tbl, col)) = name.split_once('.') {
            let bt = self
                .tables
                .iter()
                .find(|t| t.binding == tbl)
                .ok_or_else(|| FeisuError::Analysis(format!("unknown table qualifier `{tbl}`")))?;
            if bt.schema.index_of(col).is_none() {
                return Err(FeisuError::Analysis(format!(
                    "table `{tbl}` has no column `{col}`"
                )));
            }
            return Ok(if self.qualified {
                name.to_string()
            } else {
                col.to_string()
            });
        }
        let owners: Vec<&BoundTable> = self
            .tables
            .iter()
            .filter(|t| t.schema.index_of(name).is_some())
            .collect();
        match owners.as_slice() {
            [] => Err(FeisuError::Analysis(format!("unknown column `{name}`"))),
            [one] => Ok(if self.qualified {
                format!("{}.{name}", one.binding)
            } else {
                name.to_string()
            }),
            _ => Err(FeisuError::Analysis(format!(
                "column `{name}` is ambiguous across {} tables",
                owners.len()
            ))),
        }
    }
}

/// Infers the result type of a resolved expression; `None` = NULL literal
/// whose type is context-dependent.
pub fn infer_type(e: &Expr, scope: &Resolved) -> Result<Option<DataType>> {
    Ok(match e {
        Expr::Literal(v) => v.data_type(),
        Expr::Column(c) => Some(scope.column_type(c).ok_or_else(|| {
            FeisuError::Analysis(format!("unresolved column `{c}` during typing"))
        })?),
        Expr::Unary {
            op: UnaryOp::Neg,
            operand,
        } => {
            let t = infer_type(operand, scope)?;
            match t {
                None | Some(DataType::Int64) | Some(DataType::Float64) => t,
                Some(other) => return Err(FeisuError::Analysis(format!("cannot negate {other}"))),
            }
        }
        Expr::Unary {
            op: UnaryOp::Not, ..
        }
        | Expr::IsNull { .. } => Some(DataType::Bool),
        Expr::Binary { op, left, right } => {
            let lt = infer_type(left, scope)?;
            let rt = infer_type(right, scope)?;
            match op {
                BinaryOp::And | BinaryOp::Or => Some(DataType::Bool),
                BinaryOp::Contains => {
                    for t in [lt, rt].into_iter().flatten() {
                        if t != DataType::Utf8 {
                            return Err(FeisuError::Analysis(
                                "CONTAINS requires string operands".into(),
                            ));
                        }
                    }
                    Some(DataType::Bool)
                }
                op if op.is_comparison() => {
                    if let (Some(a), Some(b)) = (lt, rt) {
                        let compatible = a == b || (a.is_numeric() && b.is_numeric());
                        if !compatible {
                            return Err(FeisuError::Analysis(format!(
                                "cannot compare {a} with {b}"
                            )));
                        }
                    }
                    Some(DataType::Bool)
                }
                _ => {
                    // Arithmetic.
                    for t in [lt, rt].into_iter().flatten() {
                        if !t.is_numeric() {
                            return Err(FeisuError::Analysis(format!(
                                "arithmetic on non-numeric {t}"
                            )));
                        }
                    }
                    match (lt, rt) {
                        (Some(DataType::Int64), Some(DataType::Int64)) => Some(DataType::Int64),
                        (None, None) => None,
                        _ => Some(DataType::Float64),
                    }
                }
            }
        }
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => Some(DataType::Int64),
            AggFunc::Avg => Some(DataType::Float64),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match arg {
                Some(a) => infer_type(a, scope)?,
                None => return Err(FeisuError::Analysis(format!("{func} requires an argument"))),
            },
        },
    })
}

fn expect_boolean(e: &Expr, scope: &Resolved) -> Result<()> {
    match infer_type(e, scope)? {
        Some(DataType::Bool) | None => Ok(()),
        Some(other) => Err(FeisuError::Analysis(format!(
            "expected boolean condition, got {other}: `{e}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use feisu_format::Field;
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

    fn ok(sql: &str) -> Resolved {
        analyze(&parse_query(sql).unwrap(), &catalog()).unwrap()
    }

    fn err(sql: &str) -> FeisuError {
        analyze(&parse_query(sql).unwrap(), &catalog()).unwrap_err()
    }

    #[test]
    fn single_table_stays_bare() {
        let r = ok("SELECT clicks FROM t1 WHERE score > 0.5");
        assert!(!r.qualified);
        assert_eq!(r.query.select[0].expr, Expr::col("clicks"));
        assert_eq!(r.column_type("clicks"), Some(DataType::Int64));
    }

    #[test]
    fn multi_table_qualifies() {
        let r = ok("SELECT clicks, rank FROM t1 JOIN t2 ON t1.url = t2.url");
        assert!(r.qualified);
        assert_eq!(r.query.select[0].expr, Expr::col("t1.clicks"));
        assert_eq!(r.query.select[1].expr, Expr::col("t2.rank"));
        assert_eq!(r.column_type("t2.rank"), Some(DataType::Int64));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let e = err("SELECT url FROM t1 JOIN t2 ON t1.url = t2.url");
        assert!(e.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        assert!(err("SELECT x FROM ghost")
            .to_string()
            .contains("unknown table"));
        assert!(err("SELECT ghost FROM t1")
            .to_string()
            .contains("unknown column"));
        assert!(err("SELECT t9.url FROM t1")
            .to_string()
            .contains("qualifier"));
    }

    #[test]
    fn alias_binding_respected() {
        let r = ok("SELECT a.clicks FROM t1 AS a");
        assert_eq!(r.query.select[0].expr, Expr::col("clicks"));
        let e = err("SELECT t1.clicks FROM t1 AS a");
        assert!(e.to_string().contains("qualifier"));
    }

    #[test]
    fn duplicate_binding_rejected() {
        let e = err("SELECT 1 FROM t1, t1");
        assert!(e.to_string().contains("duplicate table binding"));
    }

    #[test]
    fn star_expansion() {
        let r = ok("SELECT * FROM t1");
        assert_eq!(r.query.select.len(), 3);
        assert_eq!(r.query.select[0].expr, Expr::col("url"));
    }

    #[test]
    fn select_alias_visible_in_order_and_having() {
        let r = ok("SELECT url, COUNT(*) AS n FROM t1 GROUP BY url HAVING n > 2 ORDER BY n DESC");
        // `n` in HAVING/ORDER resolves to the COUNT aggregate.
        assert!(r.query.having.unwrap().has_aggregate());
        assert!(r.query.order_by[0].0.has_aggregate());
    }

    #[test]
    fn aggregates_banned_in_where_and_group_by() {
        assert!(err("SELECT url FROM t1 WHERE COUNT(*) > 1 GROUP BY url")
            .to_string()
            .contains("WHERE"));
    }

    #[test]
    fn ungrouped_select_item_rejected() {
        let e = err("SELECT url, clicks FROM t1 GROUP BY url");
        assert!(e.to_string().contains("GROUP BY"));
        // But grouped expressions over group keys are fine.
        ok("SELECT url, COUNT(*) FROM t1 GROUP BY url");
    }

    #[test]
    fn having_without_grouping_rejected() {
        let e = err("SELECT url FROM t1 HAVING url = 'x'");
        assert!(e.to_string().contains("HAVING"));
    }

    #[test]
    fn type_errors_caught() {
        assert!(err("SELECT clicks + url FROM t1")
            .to_string()
            .contains("non-numeric"));
        assert!(err("SELECT url FROM t1 WHERE clicks CONTAINS 'x'")
            .to_string()
            .contains("CONTAINS"));
        assert!(err("SELECT url FROM t1 WHERE url > 5")
            .to_string()
            .contains("compare"));
        assert!(err("SELECT url FROM t1 WHERE clicks + 1")
            .to_string()
            .contains("boolean"));
    }

    #[test]
    fn numeric_comparison_mixed_ok() {
        ok("SELECT url FROM t1 WHERE score > 1");
        ok("SELECT url FROM t1 WHERE clicks > 1.5");
    }

    #[test]
    fn infer_types_scalar() {
        let r = ok("SELECT clicks + 1, score * 2, clicks IS NULL FROM t1");
        let types: Vec<_> = r
            .query
            .select
            .iter()
            .map(|s| infer_type(&s.expr, &r).unwrap())
            .collect();
        assert_eq!(
            types,
            vec![
                Some(DataType::Int64),
                Some(DataType::Float64),
                Some(DataType::Bool),
            ]
        );
    }

    #[test]
    fn infer_types_aggregate() {
        let r = ok("SELECT COUNT(*), AVG(clicks), MIN(url), SUM(score) FROM t1");
        let types: Vec<_> = r
            .query
            .select
            .iter()
            .map(|s| infer_type(&s.expr, &r).unwrap())
            .collect();
        assert_eq!(
            types,
            vec![
                Some(DataType::Int64),
                Some(DataType::Float64),
                Some(DataType::Utf8),
                Some(DataType::Float64),
            ]
        );
    }
}
