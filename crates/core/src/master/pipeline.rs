//! The master's query pipeline driver.
//!
//! Runs one admitted query end to end: access checks, analysis, logical
//! planning, lowering to a [`PhysicalPlan`], then interpretation of the
//! physical operator tree. Only [`PhysicalPlan`] is matched during
//! execution — every distributed decision (aggregation pushdown, CNF
//! split, column renaming) was already made at lowering time.
//!
//! Each physical operator records one span on the query-relative
//! simulated timeline, annotated with its output row count and byte
//! footprint, so `EXPLAIN ANALYZE` shows the operator tree with the
//! distributed scan's stem/leaf spans nested beneath it.

use crate::catalog::CatalogView;
use crate::engine::{FeisuCluster, QueryOptions, QueryResult, QueryStats};
use feisu_cluster::simclock::TimeTally;
use feisu_common::{QueryId, Result, SimInstant};
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::{lower, PhysicalPlan};
use feisu_exec::reorder::{lower_with, LowerOptions, LowerTrace};
use feisu_obs::{SpanId, SpanRecorder};
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::{optimize_with_trace, RuleFire};
use feisu_sql::plan::build_plan;
use feisu_storage::auth::{Credential, Grant};
use std::collections::BTreeMap;

impl FeisuCluster {
    /// From a parsed statement to the physical plan that runs, with the
    /// optimizer's trace: what `run_admitted` executes and EXPLAIN prints.
    pub(crate) fn plan_statement(
        &self,
        query: &feisu_sql::ast::Query,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<(PhysicalPlan, Vec<RuleFire>, LowerTrace)> {
        // Access verification: read grant on every touched table's domain.
        // Virtual system tables live in no storage domain; any admitted
        // user may introspect the cluster through them.
        for tref in query.all_tables() {
            if crate::system::is_system_table(&tref.name) {
                continue;
            }
            let location = self.catalog.location(&tref.name)?;
            let domain = self.router.domain_of(&location);
            self.auth.authorize(cred, domain.id(), Grant::Read, now)?;
        }

        // Analyze, plan, optimize, lower. After this point execution never
        // looks at the logical plan again. The rule pipeline, the join-order
        // search and eager aggregation honor the config kill-switches;
        // results are identical either way (only the work to produce them
        // differs).
        let opt = &self.spec.config.optimizer;
        let catalog = CatalogView(&self.catalog);
        let plan = build_plan(&analyze(query, &catalog)?)?;
        if !opt.enabled {
            return Ok((lower(&plan, &catalog)?, Vec::new(), LowerTrace::default()));
        }
        let (logical, rule_trace) = optimize_with_trace(plan)?;
        let lower_opts = LowerOptions {
            cost: &self.spec.cost,
            join_reorder: opt.join_reorder,
            dp_limit: opt.dp_limit,
        };
        let (physical, lower_trace) = lower_with(&logical, &catalog, &lower_opts)?;
        Ok((physical, rule_trace, lower_trace))
    }

    pub(crate) fn run_admitted(
        &self,
        sql: &str,
        query: &feisu_sql::ast::Query,
        cred: &Credential,
        options: &QueryOptions,
        now: SimInstant,
        query_id: QueryId,
    ) -> Result<QueryResult> {
        let (physical, rule_trace, lower_trace) = self.plan_statement(query, cred, now)?;

        // Every node that has not failed beats.
        self.nodes.tick(now);

        let mut ctx = ExecCtx {
            query_id,
            cred: cred.clone(),
            sql: sql.to_string(),
            now,
            options: options.clone(),
            stats: QueryStats::default(),
            tally: TimeTally::new(),
            partial: false,
            spans: SpanRecorder::new(),
            root_spans: Vec::new(),
            backend_bytes: BTreeMap::new(),
            tier_tasks: BTreeMap::new(),
            rule_trace,
            lower_trace,
        };
        // Master overhead: parsing/planning/dispatch RPC.
        ctx.tally.add_cpu(self.spec.cost.rpc_overhead);

        let batch = self.exec_physical(&physical, &mut ctx, None)?;
        self.assemble_result(query_id, batch, ctx)
    }

    // ------------------------------------------- physical-operator walk

    /// Executes one physical operator, wrapped in its profile span. The
    /// span covers the operator and everything beneath it on the
    /// simulated timeline; root operators are adopted by the final
    /// `master` span when the profile is assembled.
    pub(crate) fn exec_physical(
        &self,
        plan: &PhysicalPlan,
        ctx: &mut ExecCtx,
        parent: Option<SpanId>,
    ) -> Result<RecordBatch> {
        let span = ctx.spans.start(
            plan.name(),
            parent,
            SimInstant(ctx.tally.total().as_nanos()),
        );
        if parent.is_none() {
            ctx.root_spans.push(span);
        }
        let batch = self.exec_operator(plan, ctx, span)?;
        if let PhysicalPlan::DistributedScan {
            est_groups: Some(groups),
            ..
        } = plan
        {
            ctx.spans.attr(span, "est_rows", *groups);
        }
        ctx.spans.attr(span, "rows", batch.rows());
        ctx.spans.attr(span, "bytes", batch.footprint());
        ctx.spans
            .end(span, SimInstant(ctx.tally.total().as_nanos()));
        Ok(batch)
    }

    fn exec_operator(
        &self,
        plan: &PhysicalPlan,
        ctx: &mut ExecCtx,
        span: SpanId,
    ) -> Result<RecordBatch> {
        match plan {
            PhysicalPlan::DistributedScan { table, .. }
                if crate::system::is_system_table(table) =>
            {
                self.system_scan(plan, ctx, span)
            }
            PhysicalPlan::DistributedScan { .. } => self.distributed_scan(plan, ctx, span),
            // Every other operator runs on the master over its inputs'
            // outputs: left before right, then the operator's CPU billed
            // on their row counts, then the operator itself.
            _ => {
                let inputs = plan
                    .children()
                    .into_iter()
                    .map(|child| self.exec_physical(child, ctx, Some(span)))
                    .collect::<Result<Vec<RecordBatch>>>()?;
                let rows: Vec<usize> = inputs.iter().map(RecordBatch::rows).collect();
                ctx.tally
                    .add_cpu(plan.master_cpu_cost(&self.spec.cost, &rows));
                plan.apply(&inputs)
            }
        }
    }
}

/// Mutable per-query execution context threaded through the physical
/// operator walk.
pub(crate) struct ExecCtx {
    pub(crate) query_id: QueryId,
    pub(crate) cred: Credential,
    /// Original statement text (recorded in the query event log).
    pub(crate) sql: String,
    pub(crate) now: SimInstant,
    pub(crate) options: QueryOptions,
    pub(crate) stats: QueryStats,
    pub(crate) tally: TimeTally,
    pub(crate) partial: bool,
    /// Span arena for this query's EXPLAIN ANALYZE profile.
    pub(crate) spans: SpanRecorder,
    /// Root physical-operator spans (and anything else awaiting adoption
    /// by the final master span).
    pub(crate) root_spans: Vec<SpanId>,
    /// Bytes served per storage-domain prefix across all scans.
    pub(crate) backend_bytes: BTreeMap<String, u64>,
    /// Executed-task counts per [`crate::leaf::ServedTier::label`].
    pub(crate) tier_tasks: BTreeMap<&'static str, usize>,
    /// Optimizer rules that changed the plan, with per-rule fire counts.
    pub(crate) rule_trace: Vec<RuleFire>,
    /// Join-order and eager-aggregation decisions made by cost-based
    /// lowering.
    pub(crate) lower_trace: LowerTrace,
}
