//! The physical plan layer.
//!
//! [`lower`] turns an optimized [`LogicalPlan`] into a [`PhysicalPlan`]:
//! a tree of typed physical operators in which every distributed decision
//! is already made. In particular the paper's partial-aggregation
//! pushdown (§III-B: leaves pre-aggregate, stems merge bottom-up) is a
//! *plan-time* property here — an `Aggregate` over a bare `Scan` lowers
//! to [`PhysicalPlan::FinalAggregate`] over a
//! [`PhysicalPlan::DistributedScan`] carrying the
//! [`AggStage`], and the scan node also carries the precomputed
//! CNF split (indexable clauses vs residual expressions), already in the
//! storage column names the leaves read: canonical names are resolved
//! once per scan, here, by [`storage_name`].
//!
//! The engine in `feisu-core` interprets this tree; each node knows its
//! own master-side CPU price via [`PhysicalPlan::master_cpu_cost`], so
//! cost accounting lives with the operator instead of being sprinkled
//! through the interpreter.

use crate::aggregate::{finish_transport, AggTable};
use crate::batch::RecordBatch;
use crate::{join, ops, sort};
use feisu_cluster::CostModel;
use feisu_common::hash::FxHashMap;
use feisu_common::{FeisuError, Result, SimDuration};
use feisu_format::{DataType, Schema};
use feisu_sql::analyze::Catalog;
use feisu_sql::ast::{Expr, JoinKind};
use feisu_sql::cnf::{to_cnf, Clause, Cnf};
use feisu_sql::exprutil::map_columns;
use feisu_sql::plan::{AggExpr, AggStage, LogicalPlan};

/// `ORDER BY` keys (expression, descending) and the row count k every
/// leaf of a distributed scan keeps.
pub type TopK = (Vec<(Expr, bool)>, u64);

/// Physical operators. `DistributedScan` is the only node that touches
/// the cluster; everything above it runs on the master over merged
/// results.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// One table scan, dissected into per-block leaf tasks by the engine.
    DistributedScan {
        table: String,
        /// Storage column names to read, parallel to `output_schema`.
        projection: Vec<String>,
        /// The full pushed-down predicate in canonical names, for EXPLAIN.
        predicate: Option<Expr>,
        /// Indexable conjunctive clauses of `predicate` (all-simple
        /// disjuncts — what SmartIndex can key on), in storage names.
        cnf: Cnf,
        /// Non-indexable clauses in storage names, evaluated row-wise on
        /// the leaves.
        residual: Vec<Expr>,
        /// Partial aggregation pushed into the leaves, decided at
        /// lowering time.
        agg_stage: Option<AggStage>,
        /// The groups a grouped `agg_stage` is estimated to yield (an
        /// eager split's own estimate, else [`crate::estimate::groups`]);
        /// the merge tree prices its depth with it and EXPLAIN ANALYZE
        /// shows it beside the rows shipped. `None` on any other scan.
        est_groups: Option<u64>,
        /// `ORDER BY keys LIMIT k` over a row scan: every leaf keeps only
        /// its first k rows under these keys. Set by [`lower`]
        /// when a top-k `Sort` sits directly on this scan; the master's
        /// `Sort` still runs above it.
        top: Option<TopK>,
        /// Always empty and read by nothing in the engine: `cnf` and
        /// `residual` are already in storage names. Kept only because the
        /// benchmark harness names it; deleted with that harness's port.
        name_map: FxHashMap<String, String>,
        /// Scan output schema in canonical (possibly qualified) names.
        output_schema: Schema,
    },
    /// Merges partial-aggregate transports produced by a pushed-down
    /// [`AggStage`] into final values.
    FinalAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<(Expr, String, DataType)>,
        aggregates: Vec<AggExpr>,
        output_schema: Schema,
    },
    /// Full hash aggregation over raw input rows (input was not a bare
    /// scan, so nothing could be pushed down).
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<(Expr, String, DataType)>,
        aggregates: Vec<AggExpr>,
        output_schema: Schema,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<(Expr, String)>,
        output_schema: Schema,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinKind,
        on: Vec<Expr>,
        output_schema: Schema,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(Expr, /*descending=*/ bool)>,
        fetch: Option<u64>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        fetch: u64,
    },
    /// A provably-empty relation (e.g. `WHERE FALSE`): produces zero rows
    /// without touching the cluster or billing any master CPU.
    Empty { output_schema: Schema },
}

impl PhysicalPlan {
    /// Operator name as shown in plan renderings and profile spans.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::DistributedScan { .. } => "DistributedScan",
            PhysicalPlan::FinalAggregate { .. } => "FinalAggregate",
            PhysicalPlan::HashAggregate { .. } => "HashAggregate",
            PhysicalPlan::Filter { .. } => "Filter",
            PhysicalPlan::Project { .. } => "Project",
            PhysicalPlan::HashJoin { .. } => "HashJoin",
            PhysicalPlan::Sort { .. } => "Sort",
            PhysicalPlan::Limit { .. } => "Limit",
            PhysicalPlan::Empty { .. } => "Empty",
        }
    }

    /// The operator's output schema.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::DistributedScan { output_schema, .. }
            | PhysicalPlan::FinalAggregate { output_schema, .. }
            | PhysicalPlan::HashAggregate { output_schema, .. }
            | PhysicalPlan::Project { output_schema, .. }
            | PhysicalPlan::HashJoin { output_schema, .. }
            | PhysicalPlan::Empty { output_schema } => output_schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// The operator's inputs, left before right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::DistributedScan { .. } | PhysicalPlan::Empty { .. } => Vec::new(),
            PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::FinalAggregate { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => vec![input],
        }
    }

    /// Runs a master-side operator over its children's outputs (`inputs`
    /// parallel to [`children`](Self::children)). A distributed scan has
    /// no master-side form: the engine dissects it into leaf tasks.
    pub fn apply(&self, inputs: &[RecordBatch]) -> Result<RecordBatch> {
        match self {
            PhysicalPlan::DistributedScan { table, .. } => Err(FeisuError::Execution(format!(
                "scan of `{table}` runs on the cluster, not on the master"
            ))),
            // The scan below produced partial-aggregate transports,
            // already merged bottom-up through the stems into disjoint
            // partitions; finalize without folding again.
            PhysicalPlan::FinalAggregate {
                group_by,
                aggregates,
                output_schema,
                ..
            } => finish_transport(group_by, aggregates, &inputs[0], output_schema),
            PhysicalPlan::HashAggregate {
                group_by,
                aggregates,
                output_schema,
                ..
            } => {
                let mut table = AggTable::new(group_by.clone(), aggregates.clone());
                table.update(&inputs[0])?;
                table.finish(output_schema)
            }
            PhysicalPlan::Filter { predicate, .. } => ops::filter(&inputs[0], predicate),
            PhysicalPlan::Project {
                exprs,
                output_schema,
                ..
            } => ops::project(&inputs[0], exprs, output_schema),
            PhysicalPlan::HashJoin {
                kind,
                on,
                output_schema,
                ..
            } => join::join(&inputs[0], &inputs[1], *kind, on, output_schema),
            PhysicalPlan::Sort { keys, fetch, .. } => sort::sort(&inputs[0], keys, *fetch),
            PhysicalPlan::Limit { fetch, .. } => ops::limit(&inputs[0], *fetch),
            // A pruned-empty relation: zero rows, zero leaf tasks, zero
            // billed time.
            PhysicalPlan::Empty { output_schema } => Ok(RecordBatch::empty(output_schema.clone())),
        }
    }

    /// Master-side CPU this operator charges for one evaluation, given
    /// its children's output row counts (`inputs[0]` = left/only child,
    /// `inputs[1]` = right child). Distributed scans charge nothing here:
    /// their time is accounted on the leaf/stem critical path.
    pub fn master_cpu_cost(&self, cost: &CostModel, inputs: &[usize]) -> SimDuration {
        let rows = |i: usize| inputs.get(i).copied().unwrap_or(0);
        match self {
            PhysicalPlan::DistributedScan { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::Empty { .. } => SimDuration::ZERO,
            PhysicalPlan::Filter { .. } => cost.predicate_eval(rows(0).max(1)),
            PhysicalPlan::Project { .. } => cost.project(rows(0).max(1)),
            PhysicalPlan::HashAggregate { .. } => cost.agg_update(rows(0).max(1)),
            PhysicalPlan::FinalAggregate { .. } => cost.agg_merge(rows(0).max(1)),
            PhysicalPlan::HashJoin { .. } => {
                let (l, r) = (rows(0), rows(1));
                if l + r == 0 {
                    // Even an empty join pays one probe of bookkeeping.
                    cost.join_probe(1)
                } else {
                    cost.join_build(l) + cost.join_probe(r)
                }
            }
            PhysicalPlan::Sort { .. } => cost.sort(rows(0)),
        }
    }

    /// Pretty multi-line plan rendering (EXPLAIN-style) with pushdown
    /// annotations on distributed scans.
    pub fn display_indent(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, level: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(level);
        match self {
            PhysicalPlan::DistributedScan {
                table,
                projection,
                predicate,
                agg_stage,
                top,
                ..
            } => {
                let _ = write!(out, "{pad}DistributedScan: {table} cols={projection:?}");
                if let Some(p) = predicate {
                    let _ = write!(out, " filter={p}");
                }
                if let Some(stage) = agg_stage {
                    let aggs: Vec<&str> =
                        stage.aggregates.iter().map(|a| a.name.as_str()).collect();
                    let _ = write!(out, " [agg pushed: {}", aggs.join(", "));
                    if !stage.group_by.is_empty() {
                        let groups: Vec<&str> =
                            stage.group_by.iter().map(|(_, n, _)| n.as_str()).collect();
                        let _ = write!(out, " group by {}", groups.join(", "));
                    }
                    out.push(']');
                }
                if let Some((keys, k)) = top {
                    let _ = write!(out, " [top {k}: {}]", sort_keys(keys));
                }
                out.push('\n');
            }
            PhysicalPlan::FinalAggregate {
                input,
                group_by,
                aggregates,
                ..
            }
            | PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                let groups: Vec<&str> = group_by.iter().map(|(_, n, _)| n.as_str()).collect();
                // An aggregate combining partials of its own name (eager
                // aggregation's) shows as `SUM(COUNT(*))`.
                let aggs: Vec<String> = (aggregates.iter())
                    .map(|a| match &a.arg {
                        Some(Expr::Column(c)) if *c == a.name => format!("{}({c})", a.func),
                        _ => a.name.clone(),
                    })
                    .collect();
                let _ = writeln!(out, "{pad}{}: group={groups:?} aggs={aggs:?}", self.name());
                input.fmt_indent(out, level + 1);
            }
            PhysicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter: {predicate}");
                input.fmt_indent(out, level + 1);
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                let _ = writeln!(out, "{pad}Project: [{}]", cols.join(", "));
                input.fmt_indent(out, level + 1);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                kind,
                on,
                ..
            } => {
                let conds: Vec<String> = on.iter().map(|e| e.to_string()).collect();
                let _ = writeln!(out, "{pad}HashJoin: {kind:?} on [{}]", conds.join(", "));
                left.fmt_indent(out, level + 1);
                right.fmt_indent(out, level + 1);
            }
            PhysicalPlan::Sort { input, keys, fetch } => {
                let _ = writeln!(out, "{pad}Sort: [{}] fetch={fetch:?}", sort_keys(keys));
                input.fmt_indent(out, level + 1);
            }
            PhysicalPlan::Limit { input, fetch } => {
                let _ = writeln!(out, "{pad}Limit: {fetch}");
                input.fmt_indent(out, level + 1);
            }
            PhysicalPlan::Empty { .. } => {
                let _ = writeln!(out, "{pad}Empty");
            }
        }
    }
}

/// Sort keys as EXPLAIN renders them: `a, b DESC`.
fn sort_keys(keys: &[(Expr, bool)]) -> String {
    let keys: Vec<String> = keys
        .iter()
        .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { "" }))
        .collect();
    keys.join(", ")
}

/// Lowers an optimized logical plan to a physical plan, deciding
/// aggregation pushdown and precomputing everything the distributed scan
/// needs (the CNF split, in storage names). `catalog` supplies each
/// table's *storage* schema — needed to tell flattened-JSON dotted
/// columns apart from qualified references.
pub fn lower(plan: &LogicalPlan, catalog: &dyn Catalog) -> Result<PhysicalPlan> {
    match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            output_schema,
            est_groups,
        } => {
            // Push partial aggregation to the leaves when the input is a
            // bare scan (the dominant shape, Fig. 8).
            if let LogicalPlan::Scan {
                table,
                projection,
                predicate,
                output_schema: scan_schema,
                ..
            } = input.as_ref()
            {
                let stage = AggStage {
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                };
                let mut scan = lower_scan(
                    table,
                    projection,
                    predicate.as_ref(),
                    scan_schema,
                    Some(stage),
                    catalog,
                )?;
                if let PhysicalPlan::DistributedScan { est_groups: e, .. } = &mut scan {
                    let keys: Vec<&Expr> = group_by.iter().map(|(k, _, _)| k).collect();
                    let est = || crate::estimate::groups(input, &keys, catalog).round() as u64;
                    *e = est_groups.or_else(|| (!keys.is_empty()).then(est));
                }
                return Ok(PhysicalPlan::FinalAggregate {
                    input: Box::new(scan),
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                    output_schema: output_schema.clone(),
                });
            }
            Ok(PhysicalPlan::HashAggregate {
                input: Box::new(lower(input, catalog)?),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
                output_schema: output_schema.clone(),
            })
        }
        LogicalPlan::Scan {
            table,
            projection,
            predicate,
            output_schema,
            ..
        } => lower_scan(
            table,
            projection,
            predicate.as_ref(),
            output_schema,
            None,
            catalog,
        ),
        LogicalPlan::Filter { input, predicate } => Ok(PhysicalPlan::Filter {
            input: Box::new(lower(input, catalog)?),
            predicate: predicate.clone(),
        }),
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => Ok(PhysicalPlan::Project {
            input: Box::new(lower(input, catalog)?),
            exprs: exprs.clone(),
            output_schema: output_schema.clone(),
        }),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            output_schema,
        } => Ok(PhysicalPlan::HashJoin {
            left: Box::new(lower(left, catalog)?),
            right: Box::new(lower(right, catalog)?),
            kind: *kind,
            on: on.clone(),
            output_schema: output_schema.clone(),
        }),
        LogicalPlan::Sort { input, keys, fetch } => {
            let mut input = lower(input, catalog)?;
            // A top-k directly over a row scan whose output holds every
            // sort-key column: the leaves can keep k rows each.
            if let (
                PhysicalPlan::DistributedScan {
                    agg_stage: None,
                    top,
                    output_schema,
                    ..
                },
                Some(k),
            ) = (&mut input, fetch)
            {
                let mut cols = Vec::new();
                keys.iter().for_each(|(e, _)| e.columns(&mut cols));
                if cols.iter().all(|c| output_schema.index_of(c).is_some()) {
                    *top = Some((keys.clone(), *k));
                }
            }
            Ok(PhysicalPlan::Sort {
                input: Box::new(input),
                keys: keys.clone(),
                fetch: *fetch,
            })
        }
        LogicalPlan::Limit { input, fetch } => Ok(PhysicalPlan::Limit {
            input: Box::new(lower(input, catalog)?),
            fetch: *fetch,
        }),
        LogicalPlan::Empty { output_schema } => Ok(PhysicalPlan::Empty {
            output_schema: output_schema.clone(),
        }),
    }
}

/// The storage name of the canonical column `canonical` in a table with
/// `storage_schema`: the name as written when the table has that column
/// (a flattened JSON path is dotted), else the name with its leading
/// qualifiers dropped — `binding.col` is `col`, `b.payload.x` is
/// `payload.x` — down to its last segment.
pub fn storage_name<'a>(storage_schema: &Schema, canonical: &'a str) -> &'a str {
    let mut name = canonical;
    while storage_schema.index_of(name).is_none() {
        match name.split_once('.') {
            Some((_, rest)) => name = rest,
            None => break,
        }
    }
    name
}

/// Builds the `DistributedScan` node: the predicate resolved to storage
/// names once, then split into indexable CNF clauses and residual
/// expressions.
fn lower_scan(
    table: &str,
    projection: &[String],
    predicate: Option<&Expr>,
    output_schema: &Schema,
    agg_stage: Option<AggStage>,
    catalog: &dyn Catalog,
) -> Result<PhysicalPlan> {
    let storage_schema = catalog
        .table_schema(table)
        .ok_or_else(|| FeisuError::Execution(format!("unknown table `{table}` during lowering")))?;
    // Split the predicate into indexable CNF clauses (all-simple
    // disjuncts — SmartIndex can serve them) and residual expressions.
    let (cnf, residual) = match predicate {
        None => (Cnf::default(), Vec::new()),
        Some(p) => {
            let stored = map_columns(p, &|c| storage_name(&storage_schema, c).to_string());
            let (indexable, residual): (Vec<_>, Vec<_>) = (to_cnf(&stored).clauses)
                .into_iter()
                .partition(|clause| clause.as_simple().is_some());
            let residual = residual.iter().map(Clause::to_expr).collect();
            (Cnf { clauses: indexable }, residual)
        }
    };

    Ok(PhysicalPlan::DistributedScan {
        table: table.to_string(),
        projection: projection.to_vec(),
        predicate: predicate.cloned(),
        cnf,
        residual,
        agg_stage,
        est_groups: None,
        top: None,
        name_map: FxHashMap::default(),
        output_schema: output_schema.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::Field;
    use feisu_sql::analyze::analyze;
    use feisu_sql::optimizer::optimize;
    use feisu_sql::parser::parse_query;
    use feisu_sql::plan::build_plan;
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
        m.insert(
            "t3".to_string(),
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("payload.x", DataType::Int64, true),
            ]),
        );
        m
    }

    fn physical(sql: &str) -> PhysicalPlan {
        let q = parse_query(sql).unwrap();
        let cat = catalog();
        let r = analyze(&q, &cat).unwrap();
        let plan = optimize(build_plan(&r).unwrap()).unwrap();
        lower(&plan, &cat).unwrap()
    }

    #[test]
    fn aggregate_over_scan_pushes_down() {
        let p = physical("SELECT COUNT(*) FROM t1 WHERE clicks > 5");
        let PhysicalPlan::Project { input: agg, .. } = &p else {
            panic!("expected Project root, got {p:?}");
        };
        let PhysicalPlan::FinalAggregate { input, .. } = agg.as_ref() else {
            panic!("expected FinalAggregate, got {agg:?}");
        };
        let PhysicalPlan::DistributedScan {
            agg_stage: Some(stage),
            cnf,
            residual,
            ..
        } = input.as_ref()
        else {
            panic!("expected DistributedScan with pushed agg, got {input:?}");
        };
        assert!(stage.is_count_star_only());
        assert_eq!(cnf.clauses.len(), 1, "indexable simple predicate");
        assert!(residual.is_empty());
    }

    #[test]
    fn aggregate_over_join_stays_on_master() {
        let p = physical("SELECT rank, COUNT(*) FROM t1 JOIN t2 ON t1.url = t2.url GROUP BY rank");
        let s = p.display_indent();
        assert!(s.contains("HashAggregate:"), "{s}");
        assert!(s.contains("HashJoin: Inner"), "{s}");
        assert!(!s.contains("agg pushed"), "{s}");
    }

    #[test]
    fn count_star_reads_one_narrow_column_under_every_shape() {
        // Pushed to the leaves: the scan keeps `clicks` (Int64) to carry a
        // row count, not `url`, the table's first and widest field.
        for sql in [
            "SELECT COUNT(*) FROM t1",
            "SELECT COUNT(*) FROM t1 WHERE score > 0.5",
        ] {
            let s = physical(sql).display_indent();
            assert!(s.contains("[agg pushed: COUNT(*)]"), "{s}");
            assert!(s.contains(r#"cols=["clicks"]"#), "{s}");
        }
        // Over a join, and over a filter the rules cannot sink, the count
        // stays on the master and each side keeps a real column.
        for sql in [
            "SELECT COUNT(*) FROM t1 JOIN t2 ON t1.url = t2.url",
            "SELECT COUNT(*) FROM t1, t2",
            "SELECT COUNT(*) FROM t1 LEFT JOIN t2 ON t1.url = t2.url WHERE t2.rank > 0",
        ] {
            let s = physical(sql).display_indent();
            assert!(s.contains("HashAggregate:"), "{s}");
            assert!(!s.contains("agg pushed"), "{s}");
            assert_eq!(s.matches("DistributedScan:").count(), 2, "{s}");
            assert!(!s.contains("cols=[]"), "{s}");
        }
    }

    #[test]
    fn pushdown_annotation_renders_aggs_and_groups() {
        let p = physical("SELECT url, COUNT(*), SUM(clicks) FROM t1 GROUP BY url");
        let s = p.display_indent();
        assert!(
            s.contains("[agg pushed: COUNT(*), SUM(clicks) group by url]"),
            "{s}"
        );
        assert!(s.contains("FinalAggregate:"), "{s}");
    }

    #[test]
    fn cnf_split_separates_residual_clauses() {
        // `clicks + 1 > 3` is not a simple predicate; `score > 0` is.
        let p = physical("SELECT url FROM t1 WHERE score > 0 AND clicks + 1 > 3");
        fn find_scan(p: &PhysicalPlan) -> Option<&PhysicalPlan> {
            match p {
                PhysicalPlan::DistributedScan { .. } => Some(p),
                PhysicalPlan::FinalAggregate { input, .. }
                | PhysicalPlan::HashAggregate { input, .. }
                | PhysicalPlan::Filter { input, .. }
                | PhysicalPlan::Project { input, .. }
                | PhysicalPlan::Sort { input, .. }
                | PhysicalPlan::Limit { input, .. } => find_scan(input),
                PhysicalPlan::HashJoin { left, right, .. } => {
                    find_scan(left).or_else(|| find_scan(right))
                }
                PhysicalPlan::Empty { .. } => None,
            }
        }
        let PhysicalPlan::DistributedScan { cnf, residual, .. } =
            find_scan(&p).expect("scan in plan")
        else {
            unreachable!()
        };
        assert_eq!(cnf.clauses.len(), 1, "simple clause is indexable");
        assert_eq!(residual.len(), 1, "arithmetic clause is residual");
    }

    #[test]
    fn join_scans_carry_storage_named_clauses() {
        // `payload.x` is a flattened JSON column: its name stays whole
        // under the `t3.` qualifier, and it is read by the predicate alone.
        let p = physical(
            "SELECT clicks, id FROM t1 JOIN t3 ON t1.clicks = t3.id \
             WHERE t1.clicks > 5 AND t1.clicks + 1 > 3 AND payload.x < 9",
        );
        let s = p.display_indent();
        assert!(
            s.contains("filter=(t3.payload.x < 9)"),
            "EXPLAIN stays canonical: {s}"
        );
        let PhysicalPlan::Project { input, .. } = &p else {
            panic!("{p:?}");
        };
        let PhysicalPlan::HashJoin { left, right, .. } = input.as_ref() else {
            panic!("{input:?}");
        };
        let clauses = |scan: &PhysicalPlan| {
            let PhysicalPlan::DistributedScan { cnf, residual, .. } = scan else {
                panic!("{scan:?}");
            };
            let cnf = cnf.clauses.iter().map(|c| c.to_expr().to_string());
            let residual = residual.iter().map(|e| e.to_string());
            cnf.chain(residual).collect::<Vec<_>>()
        };
        assert_eq!(clauses(left), ["(clicks > 5)", "((clicks + 1) > 3)"]);
        assert_eq!(clauses(right), ["(payload.x < 9)"]);
        assert_eq!(storage_name(&catalog()["t3"], "t3.payload.x"), "payload.x");
        assert_eq!(storage_name(&catalog()["t1"], "t1.clicks"), "clicks");
        assert_eq!(storage_name(&catalog()["t1"], "clicks"), "clicks");
    }

    #[test]
    fn master_cpu_costs_match_legacy_predicate_billing() {
        let cost = CostModel::default();
        let p = physical("SELECT url FROM t1 WHERE clicks > 5 ORDER BY url LIMIT 3");
        // Walk out the nodes we need.
        let PhysicalPlan::Limit { input: proj, .. } = &p else {
            panic!("{p:?}")
        };
        let PhysicalPlan::Project { input: sort, .. } = proj.as_ref() else {
            panic!("{proj:?}")
        };
        assert_eq!(
            proj.master_cpu_cost(&cost, &[100]),
            cost.predicate_eval(100)
        );
        assert_eq!(proj.master_cpu_cost(&cost, &[0]), cost.predicate_eval(1));
        // Sort bills n·⌈log₂ n⌉ comparisons with a floor of two rows.
        let n: usize = 100;
        let cmps = n * (usize::BITS - n.leading_zeros()) as usize;
        assert_eq!(sort.master_cpu_cost(&cost, &[n]), cost.predicate_eval(cmps));
        assert_eq!(
            p.master_cpu_cost(&cost, &[5]),
            SimDuration::ZERO,
            "limit is free"
        );

        let join = physical("SELECT t1.url FROM t1 JOIN t2 ON t1.url = t2.url");
        let PhysicalPlan::Project { input: join, .. } = &join else {
            panic!("{join:?}")
        };
        assert_eq!(
            join.master_cpu_cost(&cost, &[30, 20]),
            cost.predicate_eval(50),
            "join build+probe equals the legacy l+r billing at default rates"
        );
        assert_eq!(
            join.master_cpu_cost(&cost, &[0, 0]),
            cost.predicate_eval(1),
            "empty join still charges one row"
        );
    }

    /// The `top` of every distributed scan in `p`, left before right.
    fn scan_tops(p: &PhysicalPlan) -> Vec<Option<TopK>> {
        match p {
            PhysicalPlan::DistributedScan { top, .. } => vec![top.clone()],
            _ => p.children().into_iter().flat_map(scan_tops).collect(),
        }
    }

    #[test]
    fn top_k_over_a_scan_reaches_the_scan() {
        for (sql, keys) in [
            (
                "SELECT url, clicks FROM t1 ORDER BY clicks DESC LIMIT 10",
                "clicks DESC",
            ),
            // The key need not be projected, only read by the scan.
            (
                "SELECT url FROM t1 WHERE score > 0 ORDER BY clicks, url LIMIT 10",
                "clicks, url",
            ),
            (
                "SELECT url, clicks FROM t1 ORDER BY clicks + 1 LIMIT 10",
                "(clicks + 1)",
            ),
        ] {
            let p = physical(sql);
            let [Some((_, k))] = scan_tops(&p)[..] else {
                panic!("`{sql}`: no top on the scan: {p:?}");
            };
            assert_eq!(k, 10, "{sql}");
            let s = p.display_indent();
            assert!(s.contains(&format!("[top 10: {keys}]")), "{s}");
        }
    }

    #[test]
    fn top_k_stays_on_the_master_over_anything_but_a_row_scan() {
        for sql in [
            // Over an aggregate: the scan carries an agg stage.
            "SELECT url, COUNT(*) AS n FROM t1 GROUP BY url ORDER BY n DESC LIMIT 3",
            "SELECT url, COUNT(*) AS n FROM t1 GROUP BY url ORDER BY url LIMIT 3",
            // Over a join.
            "SELECT t1.url, rank FROM t1 JOIN t2 ON t1.url = t2.url ORDER BY rank LIMIT 3",
            // No LIMIT: nothing to cut.
            "SELECT url, clicks FROM t1 ORDER BY clicks",
        ] {
            let p = physical(sql);
            assert!(
                scan_tops(&p).iter().all(Option::is_none),
                "`{sql}`:\n{}",
                p.display_indent()
            );
        }
        // Plans SQL does not produce here, edited into the top-k `Sort`
        // of a row scan: a `Project` between them, and a sort key the scan
        // does not read.
        let cat = catalog();
        let sort_over_scan = |edit: fn(&mut Vec<(Expr, bool)>, &mut Box<LogicalPlan>)| {
            let q = parse_query("SELECT url, clicks FROM t1 ORDER BY clicks LIMIT 3").unwrap();
            let mut plan = optimize(build_plan(&analyze(&q, &cat).unwrap()).unwrap()).unwrap();
            fn find_sort(plan: &mut LogicalPlan) -> Option<&mut LogicalPlan> {
                match plan {
                    LogicalPlan::Sort { .. } => Some(plan),
                    _ => plan.children_mut().into_iter().find_map(find_sort),
                }
            }
            let Some(LogicalPlan::Sort { keys, input, .. }) = find_sort(&mut plan) else {
                panic!("no sort: {plan:?}");
            };
            edit(keys, input);
            lower(&plan, &cat).unwrap()
        };
        let over_project = sort_over_scan(|_, input| {
            let output_schema = input.schema().clone();
            let exprs = (output_schema.fields().iter())
                .map(|f| (Expr::col(&f.name), f.name.clone()))
                .collect();
            let scan = std::mem::replace(
                &mut **input,
                LogicalPlan::Empty {
                    output_schema: output_schema.clone(),
                },
            );
            **input = LogicalPlan::Project {
                input: Box::new(scan),
                exprs,
                output_schema,
            };
        });
        assert!(
            (over_project.display_indent()).contains(
                "Sort: [clicks] fetch=Some(3)\n      Project: [url AS url, clicks AS clicks]"
            ),
            "{}",
            over_project.display_indent()
        );
        assert_eq!(scan_tops(&over_project), vec![None]);
        let unread_key = sort_over_scan(|keys, _| keys[0].0 = Expr::col("rank"));
        assert_eq!(scan_tops(&unread_key), vec![None]);
    }

    #[test]
    fn unknown_table_fails_lowering() {
        let q = parse_query("SELECT url FROM t1").unwrap();
        let cat = catalog();
        let r = analyze(&q, &cat).unwrap();
        let plan = optimize(build_plan(&r).unwrap()).unwrap();
        let empty: HashMap<String, Schema> = HashMap::new();
        assert!(lower(&plan, &empty).is_err());
    }
}
