//! Result assembly: turning a finished execution context into a
//! [`QueryResult`] — processed-ratio derivation, the `EXPLAIN ANALYZE`
//! profile (master span adopting the operator tree), and cluster-wide
//! metric recording.

use crate::engine::{FeisuCluster, QueryResult};
use crate::event_log::{QueryEvent, QueryOutcome};
use crate::master::pipeline::ExecCtx;
use feisu_common::{ByteSize, QueryId, Result, SimDuration, SimInstant};
use feisu_exec::batch::RecordBatch;
use feisu_obs::{Counter, Histogram, MetricsRegistry, QueryProfile, SpanNode};
use std::fmt::Write as _;
use std::sync::Arc;

/// Operator span names eligible for the event log's `top_operators`
/// summary (the physical-plan node names, not stem/leaf infrastructure).
const OPERATOR_NAMES: [&str; 8] = [
    "DistributedScan",
    "FinalAggregate",
    "HashAggregate",
    "Filter",
    "Project",
    "HashJoin",
    "Sort",
    "Limit",
];

/// Top-`k` physical operators by span duration, rendered
/// `Name=duration` space-joined — ties broken by name so the string is
/// deterministic.
fn top_operator_costs(roots: &[SpanNode], k: usize) -> String {
    fn walk<'a>(node: &'a SpanNode, out: &mut Vec<(&'a str, u64)>) {
        if OPERATOR_NAMES.contains(&&*node.name) {
            out.push((&node.name, node.duration().as_nanos()));
        }
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut ops = Vec::new();
    for root in roots {
        walk(root, &mut ops);
    }
    ops.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ops.truncate(k);
    ops.iter()
        .map(|(name, ns)| format!("{name}={}", SimDuration(*ns)))
        .collect::<Vec<_>>()
        .join(" ")
}

impl FeisuCluster {
    /// Finalizes one successful query: advances the cluster clock, derives
    /// the processed ratio from the recorded task spans, closes the span
    /// tree under a `master` root, renders the profile summary, and feeds
    /// the cluster-wide metrics.
    pub(crate) fn assemble_result(
        &self,
        query_id: QueryId,
        batch: RecordBatch,
        mut ctx: ExecCtx,
    ) -> Result<QueryResult> {
        let response_time = ctx.tally.total();
        // The cluster's wall clock covers every in-flight query: move it
        // to this query's completion instant (admission + duration). The
        // `max` fold is commutative, so the final clock value does not
        // depend on the order concurrent queries finish in — and for a
        // serial client it degenerates to the old `advance(duration)`.
        self.clock.advance_to(ctx.now + response_time);

        // The processed ratio is derived from the recorded task spans: every
        // leaf task of every scan leaves one `leaf_task` span, and abandoned
        // ones carry the `abandoned` attribute.
        let total_leaf = ctx.spans.count_named("leaf_task");
        if total_leaf > 0 {
            let abandoned = ctx.spans.count_named_with_attr("leaf_task", "abandoned");
            ctx.stats.processed_ratio = (total_leaf - abandoned) as f64 / total_leaf as f64;
        }

        // Close the profile: a master span covering the whole query adopts
        // the root physical-operator spans.
        let master = ctx.spans.record(
            "master",
            None,
            SimInstant(0),
            SimInstant(response_time.as_nanos()),
        );
        for span in std::mem::take(&mut ctx.root_spans) {
            ctx.spans.set_parent(span, Some(master));
        }
        // Optimizer trace on the master span: which rules rewrote the
        // plan, what every join-order search decided, and which aggregates
        // were split around a join.
        for fire in &ctx.rule_trace {
            ctx.spans
                .attr(master, format!("rule.{}", fire.rule), fire.fires as usize);
        }
        let lowered = &ctx.lower_trace;
        for (i, jo) in lowered.join_orders.iter().enumerate() {
            ctx.spans.attr(
                master,
                format!("join_order.{i}"),
                format!(
                    "{} [{}] -> [{}]",
                    jo.method,
                    jo.syntactic.join(", "),
                    jo.chosen.join(", ")
                ),
            );
        }
        for (i, eager) in lowered.eager_aggs.iter().enumerate() {
            ctx.spans
                .attr(master, format!("eager_agg.{i}"), eager.to_string());
        }
        let mut profile = QueryProfile::new(query_id.0);
        profile.push_summary("response time", response_time);
        profile.push_summary(
            "tasks",
            format!(
                "{} (reused {}, backup {}, pruned {})",
                ctx.stats.tasks,
                ctx.stats.reused_tasks,
                ctx.stats.backup_tasks,
                ctx.stats.blocks_skipped
            ),
        );
        profile.push_summary(
            "blocks",
            format!(
                "{} scanned, {} skipped by zone maps, {} clauses proved",
                ctx.stats.blocks_scanned, ctx.stats.blocks_skipped, ctx.stats.proved_clauses
            ),
        );
        profile.push_summary(
            "smartindex",
            format!(
                "hits {}, built {}, rejected {}, scanned predicates {}",
                ctx.stats.index_hits,
                ctx.stats.index_built,
                ctx.stats.index_rejected,
                ctx.stats.scanned_predicates
            ),
        );
        let mut bytes_line = format!("{} total", ctx.stats.bytes_read);
        for (backend, bytes) in &ctx.backend_bytes {
            let _ = write!(bytes_line, " {backend}={}", ByteSize(*bytes));
        }
        profile.push_summary("bytes read", bytes_line);
        let (leaf_stem, rack_dc, stem_master) = (
            ctx.stats.wire_leaf_stem,
            ctx.stats.wire_rack_dc,
            ctx.stats.wire_stem_master,
        );
        let wire_total = leaf_stem + rack_dc + stem_master;
        // Per-level wire accounting: the rack→DC leg only exists when a
        // topology-shaped merge tree ran three levels deep.
        let mut wire_line = format!("{wire_total} (leaf→stem {leaf_stem}");
        if rack_dc.0 > 0 {
            let _ = write!(wire_line, ", rack→dc {rack_dc}");
        }
        let _ = write!(wire_line, ", stem→master {stem_master})");
        profile.push_summary("bytes on wire", wire_line);
        if !ctx.tier_tasks.is_empty() {
            let served = ctx
                .tier_tasks
                .iter()
                .map(|(tier, n)| format!("{tier}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            profile.push_summary("served from", served);
        }
        profile.push_summary(
            "processed ratio",
            format!("{:.1}%", ctx.stats.processed_ratio * 100.0),
        );
        if ctx.stats.spilled_results > 0 {
            profile.push_summary("spilled results", ctx.stats.spilled_results);
        }
        profile.tree = std::mem::take(&mut ctx.spans).tree();

        let m = &self.qmetrics;
        m.response_ns.observe(response_time.as_nanos());
        m.tasks.add(ctx.stats.tasks as u64);
        m.reused.add(ctx.stats.reused_tasks as u64);
        m.backup.add(ctx.stats.backup_tasks as u64);
        m.blocks_skipped.add(ctx.stats.blocks_skipped as u64);
        m.blocks_scanned.add(ctx.stats.blocks_scanned as u64);
        m.proved_clauses.add(ctx.stats.proved_clauses as u64);
        m.memory_served.add(ctx.stats.memory_served_tasks as u64);
        m.bytes_read.add(ctx.stats.bytes_read.0);
        m.spilled.add(ctx.stats.spilled_results as u64);
        if ctx.partial {
            m.partial.inc();
        }
        m.rules_fired
            .add(ctx.rule_trace.iter().map(|f| f.fires as u64).sum());
        m.joins_reordered
            .add(lowered.join_orders.iter().filter(|jo| jo.reordered).count() as u64);
        m.eager_aggs.add(lowered.eager_aggs.len() as u64);
        if ctx.rule_trace.iter().any(|f| f.rule == "prune_empty") {
            m.empty_pruned.inc();
        }

        // Always-on query event log (backs `system.queries` and the
        // `system.metrics` windows). The admission instant depends on how
        // concurrent clients interleave; every per-query field is as
        // deterministic as the QueryResult it mirrors.
        self.query_log.push(QueryEvent {
            query_id: query_id.0,
            user: ctx.cred.user.to_string(),
            sql: std::mem::take(&mut ctx.sql),
            outcome: if ctx.partial {
                QueryOutcome::Partial
            } else {
                QueryOutcome::Completed
            },
            admitted_ns: ctx.now.as_nanos(),
            response_ns: response_time.as_nanos(),
            rows_returned: batch.rows() as u64,
            bytes_returned: batch.footprint() as u64,
            cache_hit_tasks: (ctx.tier_tasks.get("ssd_cache").copied().unwrap_or(0)
                + ctx.tier_tasks.get("mem_cache").copied().unwrap_or(0))
                as u64,
            top_operators: top_operator_costs(&profile.tree.roots, 3),
            stats: ctx.stats,
        });

        Ok(QueryResult {
            query_id,
            batch,
            response_time,
            stats: ctx.stats,
            partial: ctx.partial,
            profile,
        })
    }
}

/// Cached handles for the cluster-wide query/task metrics so the per-query
/// path never touches the registry's name map.
pub(crate) struct QueryMetrics {
    pub(crate) queries: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) partial: Arc<Counter>,
    pub(crate) spilled: Arc<Counter>,
    pub(crate) response_ns: Arc<Histogram>,
    pub(crate) tasks: Arc<Counter>,
    pub(crate) reused: Arc<Counter>,
    pub(crate) backup: Arc<Counter>,
    pub(crate) blocks_skipped: Arc<Counter>,
    pub(crate) blocks_scanned: Arc<Counter>,
    pub(crate) proved_clauses: Arc<Counter>,
    pub(crate) memory_served: Arc<Counter>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) rules_fired: Arc<Counter>,
    pub(crate) joins_reordered: Arc<Counter>,
    /// Aggregates split around a join by eager aggregation.
    pub(crate) eager_aggs: Arc<Counter>,
    pub(crate) empty_pruned: Arc<Counter>,
    /// Tasks the scheduler moved off their replica holders to a rack-mate.
    pub(crate) rack_local_tasks: Arc<Counter>,
}

impl QueryMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> QueryMetrics {
        QueryMetrics {
            queries: registry.counter("feisu.query.count"),
            errors: registry.counter("feisu.query.errors"),
            partial: registry.counter("feisu.query.partial"),
            spilled: registry.counter("feisu.query.spilled_results"),
            response_ns: registry.histogram("feisu.query.response_ns"),
            tasks: registry.counter("feisu.task.count"),
            reused: registry.counter("feisu.task.reused"),
            backup: registry.counter("feisu.task.backup"),
            blocks_skipped: registry.counter("feisu.task.blocks_skipped"),
            blocks_scanned: registry.counter("feisu.task.blocks_scanned"),
            proved_clauses: registry.counter("feisu.zone.proved_clauses"),
            memory_served: registry.counter("feisu.task.memory_served"),
            bytes_read: registry.counter("feisu.task.bytes_read"),
            rules_fired: registry.counter("feisu.optimizer.rules_fired"),
            joins_reordered: registry.counter("feisu.optimizer.joins_reordered"),
            eager_aggs: registry.counter("feisu.optimizer.eager_aggs"),
            empty_pruned: registry.counter("feisu.optimizer.empty_pruned"),
            rack_local_tasks: registry.counter("feisu.sched.rack_local_tasks"),
        }
    }
}
