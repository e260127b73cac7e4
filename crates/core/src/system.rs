//! Virtual `system.*` tables: the queryable observability plane.
//!
//! These tables have no storage blocks — each `SELECT` materializes a
//! point-in-time [`RecordBatch`] from master-side state (the query event
//! log, the metrics registry, the master's node table, the SSD
//! cache) and feeds it through the normal physical-plan scan path, so
//! filters, projections, aggregation pushdown, joins against user tables
//! and `EXPLAIN` all work unchanged.
//!
//! The `system.` namespace is reserved at `create_table`, so virtual
//! tables can never shadow (or be shadowed by) user data.

use crate::engine::FeisuCluster;
use crate::master::pipeline::ExecCtx;
use crate::window;
use feisu_common::{FeisuError, Result, SimInstant};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_format::{ColumnBuilder, DataType, Field, Schema, Value};
use feisu_obs::SpanId;
use feisu_sql::exprutil::rename_expr;

/// Name prefix of the virtual-table namespace.
pub const SYSTEM_PREFIX: &str = "system.";

/// True when `name` refers to the reserved virtual-table namespace.
pub fn is_system_table(name: &str) -> bool {
    name.starts_with(SYSTEM_PREFIX)
}

/// Schema of a virtual table, or `None` if the name is not one of the
/// served tables (unknown `system.*` names fail analysis like any other
/// unknown table, since `create_table` rejects the whole namespace).
pub fn system_table_schema(name: &str) -> Option<Schema> {
    match name {
        "system.queries" => Some(Schema::new(vec![
            Field::new("query_id", DataType::Int64, false),
            Field::new("user", DataType::Utf8, false),
            Field::new("sql", DataType::Utf8, false),
            Field::new("outcome", DataType::Utf8, false),
            Field::new("error", DataType::Utf8, true),
            Field::new("admitted_ns", DataType::Int64, false),
            Field::new("response_ns", DataType::Int64, false),
            Field::new("tasks", DataType::Int64, false),
            Field::new("rows_returned", DataType::Int64, false),
            Field::new("bytes_scanned", DataType::Int64, false),
            Field::new("bytes_returned", DataType::Int64, false),
            Field::new("wire_leaf_stem_bytes", DataType::Int64, false),
            Field::new("wire_rack_dc_bytes", DataType::Int64, false),
            Field::new("wire_stem_master_bytes", DataType::Int64, false),
            Field::new("index_hits", DataType::Int64, false),
            Field::new("blocks_skipped", DataType::Int64, false),
            Field::new("blocks_scanned", DataType::Int64, false),
            Field::new("cache_hit_tasks", DataType::Int64, false),
            Field::new("memory_served_tasks", DataType::Int64, false),
            Field::new("top_operators", DataType::Utf8, false),
        ])),
        "system.metrics" => Some(Schema::new(vec![
            Field::new("name", DataType::Utf8, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
            Field::new("count", DataType::Int64, false),
            Field::new("p50", DataType::Int64, false),
            Field::new("p95", DataType::Int64, false),
            Field::new("p99", DataType::Int64, false),
            Field::new("rate_per_sec", DataType::Float64, false),
        ])),
        "system.nodes" => Some(Schema::new(vec![
            Field::new("node", DataType::Utf8, false),
            Field::new("alive", DataType::Bool, false),
            Field::new("failed", DataType::Bool, false),
            Field::new("slow_factor", DataType::Float64, false),
            Field::new("last_seen_ns", DataType::Int64, false),
            Field::new("running_tasks", DataType::Int64, false),
            Field::new("feisu_slots", DataType::Int64, false),
        ])),
        // One row per (node, tier): `mem` and `ssd` data tiers plus the
        // `ghost` admission shadow (its `hits` are granted admissions;
        // its capacities are key counts, reported as 0 bytes) when a
        // block cache is configured, then `meta`, the node's resident
        // block footers, always.
        "system.cache" => Some(Schema::new(vec![
            Field::new("node", DataType::Utf8, false),
            Field::new("tier", DataType::Utf8, false),
            Field::new("entries", DataType::Int64, false),
            Field::new("used_bytes", DataType::Int64, false),
            Field::new("capacity_bytes", DataType::Int64, false),
            Field::new("hits", DataType::Int64, false),
            Field::new("evictions", DataType::Int64, false),
        ])),
        _ => None,
    }
}

/// Builds a batch from row-major values against a virtual-table schema.
fn batch_from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<RecordBatch> {
    let mut builders: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type))
        .collect();
    for row in rows {
        debug_assert_eq!(row.len(), builders.len());
        for (b, v) in builders.iter_mut().zip(row) {
            b.push(v);
        }
    }
    let columns = builders.into_iter().map(|b| b.finish()).collect();
    RecordBatch::new(schema, columns)
}

impl FeisuCluster {
    /// Materializes the full (unprojected, unfiltered) batch of one
    /// virtual table as of simulated instant `now`.
    pub(crate) fn system_table_batch(&self, table: &str, now: SimInstant) -> Result<RecordBatch> {
        let schema = system_table_schema(table)
            .ok_or_else(|| FeisuError::Analysis(format!("unknown system table `{table}`")))?;
        match table {
            "system.queries" => {
                let rows = self
                    .query_log
                    .snapshot()
                    .into_iter()
                    .map(|e| {
                        let s = &e.stats;
                        vec![
                            Value::Int64(e.query_id as i64),
                            Value::Utf8(e.user),
                            Value::Utf8(e.sql),
                            Value::Utf8(e.outcome.label().to_string()),
                            match e.outcome.error() {
                                Some(msg) => Value::Utf8(msg.to_string()),
                                None => Value::Null,
                            },
                            Value::Int64(e.admitted_ns as i64),
                            Value::Int64(e.response_ns as i64),
                            Value::Int64(s.tasks as i64),
                            Value::Int64(e.rows_returned as i64),
                            Value::Int64(s.bytes_read.0 as i64),
                            Value::Int64(e.bytes_returned as i64),
                            Value::Int64(s.wire_leaf_stem.0 as i64),
                            Value::Int64(s.wire_rack_dc.0 as i64),
                            Value::Int64(s.wire_stem_master.0 as i64),
                            Value::Int64(s.index_hits as i64),
                            Value::Int64(s.blocks_skipped as i64),
                            Value::Int64(s.blocks_scanned as i64),
                            Value::Int64(e.cache_hit_tasks as i64),
                            Value::Int64(s.memory_served_tasks as i64),
                            Value::Utf8(e.top_operators),
                        ]
                    })
                    .collect();
                batch_from_rows(schema, rows)
            }
            "system.metrics" => {
                // Registry rows first (counters, gauges, histograms — each
                // group name-sorted by the snapshot's BTreeMaps), then the
                // 60 s windows folded from the query log; deterministic end
                // to end.
                let snap = self.metrics.snapshot();
                let mut rows = Vec::new();
                for (name, v) in &snap.counters {
                    rows.push(vec![
                        Value::Utf8(name.clone()),
                        Value::Utf8("counter".into()),
                        Value::Float64(*v as f64),
                        Value::Int64(*v as i64),
                        Value::Int64(0),
                        Value::Int64(0),
                        Value::Int64(0),
                        Value::Float64(0.0),
                    ]);
                }
                for (name, v) in &snap.gauges {
                    rows.push(vec![
                        Value::Utf8(name.clone()),
                        Value::Utf8("gauge".into()),
                        Value::Float64(*v as f64),
                        Value::Int64(*v),
                        Value::Int64(0),
                        Value::Int64(0),
                        Value::Int64(0),
                        Value::Float64(0.0),
                    ]);
                }
                for (name, h) in &snap.histograms {
                    rows.push(vec![
                        Value::Utf8(name.clone()),
                        Value::Utf8("histogram".into()),
                        Value::Float64(h.sum as f64),
                        Value::Int64(h.count as i64),
                        Value::Int64(h.p50 as i64),
                        Value::Int64(h.p95 as i64),
                        Value::Int64(h.p99 as i64),
                        Value::Float64(0.0),
                    ]);
                }
                rows.extend(window::rows(&self.query_log.snapshot(), now));
                batch_from_rows(schema, rows)
            }
            "system.nodes" => {
                // One snapshot of the node table, in node-id order.
                let rows = self
                    .nodes
                    .rows(now)
                    .into_iter()
                    .map(|r| {
                        vec![
                            Value::Utf8(r.node.to_string()),
                            Value::Bool(r.alive),
                            Value::Bool(r.failed),
                            Value::Float64(r.slow_factor),
                            Value::Int64(r.last_seen.as_nanos() as i64),
                            Value::Int64(r.running_tasks as i64),
                            Value::Int64(r.feisu_slots as i64),
                        ]
                    })
                    .collect();
                batch_from_rows(schema, rows)
            }
            "system.cache" => {
                // Per-node, per-tier rows in node order. Without a block
                // cache its three tiers have no rows (no such state
                // exists, rather than faked zeros); the footer cache is
                // always there.
                let mut rows = Vec::new();
                let mut nodes: Vec<_> = self.topology.nodes().to_vec();
                nodes.sort_by_key(|n| n.id.0);
                for n in &nodes {
                    let tiers = self.router.cache().map(|c| c.node_tier_rows(n.id));
                    let meta = self.router.footers().node_row(n.id);
                    for t in tiers.into_iter().flatten().chain([meta]) {
                        rows.push(vec![
                            Value::Utf8(n.id.to_string()),
                            Value::Utf8(t.tier.to_string()),
                            Value::Int64(t.entries as i64),
                            Value::Int64(t.used_bytes as i64),
                            Value::Int64(t.capacity_bytes as i64),
                            Value::Int64(t.hits as i64),
                            Value::Int64(t.evictions as i64),
                        ]);
                    }
                }
                batch_from_rows(schema, rows)
            }
            _ => unreachable!("schema lookup above rejects unknown names"),
        }
    }

    /// Executes a `DistributedScan` over a virtual table. Mirrors the
    /// leaf execute order — filter the full storage-named batch, project,
    /// then apply any pushed-down aggregation stage — but runs entirely
    /// on the master: no tasks, no storage reads, no wire bytes.
    pub(crate) fn system_scan(
        &self,
        plan: &PhysicalPlan,
        ctx: &mut ExecCtx,
        op_span: SpanId,
    ) -> Result<RecordBatch> {
        let PhysicalPlan::DistributedScan {
            table,
            projection,
            predicate,
            agg_stage,
            name_map,
            output_schema,
            ..
        } = plan
        else {
            return Err(FeisuError::Execution(
                "system_scan on a non-scan operator".into(),
            ));
        };
        let full = self.system_table_batch(table, ctx.now)?;
        ctx.spans.attr(op_span, "virtual", "system");
        ctx.tally
            .add_cpu(self.spec.cost.predicate_eval(full.rows()));
        let filtered = match predicate {
            // Predicates arrive in canonical (possibly qualified) names;
            // the materialized batch uses storage names.
            Some(p) => feisu_exec::ops::filter(&full, &rename_expr(p, name_map))?,
            None => full,
        };
        let columns = projection
            .iter()
            .map(|name| {
                filtered.column_by_name(name).cloned().ok_or_else(|| {
                    FeisuError::Execution(format!("system table `{table}` has no column `{name}`"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let projected = RecordBatch::new(output_schema.clone(), columns)?;
        // Virtual scans touch no leaf: every row the table had at `now`
        // was processed.
        ctx.stats.processed_ratio = 1.0;
        if let Some(stage) = agg_stage {
            let mut agg = AggTable::new(stage.group_by.clone(), stage.aggregates.clone());
            agg.update(&projected)?;
            ctx.tally
                .add_cpu(self.spec.cost.agg_update(projected.rows()));
            return agg.to_transport();
        }
        Ok(projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_predicate() {
        assert!(is_system_table("system.queries"));
        assert!(is_system_table("system.anything"));
        assert!(!is_system_table("systems"));
        assert!(!is_system_table("clicks"));
    }

    #[test]
    fn schemas_exist_for_served_tables_only() {
        for t in [
            "system.queries",
            "system.metrics",
            "system.nodes",
            "system.cache",
        ] {
            assert!(system_table_schema(t).is_some(), "{t}");
        }
        assert!(system_table_schema("system.unknown").is_none());
        assert!(system_table_schema("clicks").is_none());
    }

    #[test]
    fn queries_schema_matches_event_fields() {
        let schema = system_table_schema("system.queries").unwrap();
        // One column per QueryEvent field but `stats` (the outcome enum as
        // an outcome/error pair), plus nine counters of `stats`.
        assert_eq!(schema.len(), 20);
        assert!(schema.index_of("admission_wait_ns").is_none());
        assert!(schema.index_of("wire_leaf_stem_bytes").is_some());
        assert!(schema.index_of("wire_rack_dc_bytes").is_some());
        assert!(schema.index_of("blocks_skipped").is_some());
        assert!(schema.index_of("blocks_scanned").is_some());
        assert!(schema.index_of("top_operators").is_some());
    }
}
