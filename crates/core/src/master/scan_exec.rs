//! Distributed-scan execution: dissection into per-block leaf tasks,
//! identical-task reuse, the deterministic parallel leaf-task pool,
//! partial-result handling, and bottom-up merging through stem servers.
//!
//! The scan arrives as a fully-lowered
//! [`PhysicalPlan::DistributedScan`] node — its CNF split and residual
//! clauses already in storage names, its result kind fixed by its
//! aggregate stage — so this module only dissects, schedules, executes
//! and merges.
//!
//! Determinism invariant: execution runs in three phases. Phase 1
//! (serial) resolves identical-task reuse in submission order; phase 2
//! (parallel) runs leaf tasks grouped by assigned node, all simulated
//! time coming from per-node tallies, never wall clock; phase 3 (serial)
//! merges results, stats and spans in submission order. Results are
//! bit-identical at any worker-thread count.

use crate::engine::{FeisuCluster, QueryStats};
use crate::leaf::{AggStage, LeafOutput, LeafTaskStats, ScanView};
use crate::master::job_manager::scan_signature;
use crate::master::nodes::Acquire;
use crate::master::pipeline::ExecCtx;
use crate::master::pool::run_indexed;
use crate::master::Scheduler;
use feisu_cluster::simclock::TimeTally;
use feisu_cluster::Topology;
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimDuration, SimInstant};
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_format::table::BlockDesc;
use feisu_obs::SpanId;
use feisu_storage::auth::Credential;
use std::sync::Arc;

impl FeisuCluster {
    /// Executes one `DistributedScan` operator. `op_span` is the scan's
    /// operator span; stem spans (and abandoned leaf-task spans) hang off
    /// it so the profile shows the merge tree under the operator.
    pub(crate) fn distributed_scan(
        &self,
        scan: &PhysicalPlan,
        ctx: &mut ExecCtx,
        op_span: SpanId,
    ) -> Result<RecordBatch> {
        let PhysicalPlan::DistributedScan {
            table,
            projection,
            cnf,
            residual,
            agg_stage: agg,
            est_groups,
            top,
            output_schema,
            ..
        } = scan
        else {
            return Err(FeisuError::Internal(
                "distributed_scan called on a non-scan operator".into(),
            ));
        };
        let desc = self.catalog.table(table)?;

        // One task per block, each reading the scan through one view.
        let agg_shape: Option<&AggStage> = agg.as_ref();
        let view = ScanView::new(projection, output_schema, cnf, residual, agg_shape);
        let tasks: Vec<&BlockDesc> = desc.blocks().collect();
        let replica_sets: Vec<Arc<[NodeId]>> = (tasks.iter())
            .map(|block| self.router.replicas(&block.path))
            .collect::<Result<_>>()?;
        ctx.stats.tasks += tasks.len();
        if tasks.is_empty() {
            // Empty table: aggregate stages still need a zero-state.
            return view.empty_answer();
        }

        // Schedule.
        let alive = self.nodes.alive(ctx.now);
        let assignments = Scheduler.assign_all(&replica_sets, &self.topology, &alive)?;
        // A task off its replicas while one of them is alive was moved to a
        // rack-mate to lower the per-node maximum.
        let rack_local = assignments
            .iter()
            .zip(&replica_sets)
            .filter(|(node, replicas)| {
                !replicas.contains(node) && replicas.iter().any(|r| alive.binary_search(r).is_ok())
            })
            .count();
        self.qmetrics.rack_local_tasks.add(rack_local as u64);

        // Execute, tracking per-node serialized time.
        // The signature must cover the FULL predicate — indexable clauses
        // AND residual ones, both in storage names — or queries differing
        // only in a residual clause would wrongly share cached task
        // results.
        let cnf_display = cnf
            .clauses
            .iter()
            .map(|c| c.to_expr().to_string())
            .chain(residual.iter().map(|e| e.to_string()))
            .collect::<Vec<_>>()
            .join("&");
        // The group keys are part of the shape: the same aggregates over the
        // same columns grouped otherwise ship other transports.
        let agg_display = agg_shape
            .map(|s| {
                let groups = s.group_by.iter().map(|(_, name, _)| name.as_str());
                let aggs = s.aggregates.iter().map(|a| a.name.as_str());
                groups
                    .chain(["/"])
                    .chain(aggs)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        // A reused batch comes back under the output names of the scan
        // that stored it, so the (possibly alias-qualified) names are part
        // of a task's identity: `FROM d1` must not answer `FROM d1 AS b`.
        let output_display = output_schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let shape_display = format!("{agg_display}\u{1}{output_display}");
        let scan_signature: Arc<str> =
            scan_signature(table, &cnf_display, projection, &shape_display).into();
        // Spans sit on the query-relative timeline; leaf work of this scan
        // starts after everything the master has already accounted.
        let scan_base = ctx.tally.total().as_nanos();

        // --- Phase 1 (serial): task-reuse lookups, in submission order,
        // under one lock. Within one scan every task covers a distinct
        // block, so no two tasks share a signature — looking all of them
        // up before any store is equivalent to the serial interleaving.
        // A reused result is a master-side cache hit: negligible leaf time.
        let blocks = tasks.iter().map(|block| block.id);
        let reused = self.jobs.lookup_scan(&scan_signature, blocks, ctx.now);

        // --- Phase 2 (parallel): run the leaf tasks. Tasks assigned to
        // the same node are serialized in submission order on one worker,
        // so each leaf's SmartIndex cache sees exactly the state sequence
        // it would under serial execution; everything order-sensitive on
        // the master side is deferred to the serial merge below. All
        // simulated time comes from per-node tallies, never wall clock, so
        // results are bit-identical at any thread count. A top-k scan cuts
        // each output to its first k rows here and keeps the uncut batch
        // for the store, so any scan of the same block can reuse it.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: Vec<Option<usize>> = vec![None; self.topology.len()];
        for (i, hit) in reused.iter().enumerate() {
            if hit.is_none() {
                let g = *group_of[Topology::index(assignments[i])].get_or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
        }
        let cost = &self.spec.cost;
        let ran = run_indexed(self.effective_threads(), groups.len(), |g| {
            groups[g]
                .iter()
                .map(|&i| {
                    let exec = self
                        .execute_with_backup(&view, tasks[i], assignments[i], &ctx.cred, ctx.now)
                        .and_then(|mut exec| {
                            let uncut = match top {
                                Some(top) => exec.out.keep_top(top, cost)?,
                                None => None,
                            };
                            Ok((exec, uncut))
                        });
                    (i, exec)
                })
                .collect::<Vec<_>>()
        });
        let mut results: Vec<Option<Result<(TaskExec, _)>>> =
            (0..tasks.len()).map(|_| None).collect();
        for (i, exec) in ran.into_iter().flatten() {
            results[i] = Some(exec);
        }

        // --- Phase 3 (serial): merge per-task results in submission
        // order. Stats folding, task-result stores, node-time accounting
        // and span recording all happen here so their order — and thus the
        // simulated outcome — is independent of worker scheduling. Errors
        // surface as the first failing task by submission order (the rest
        // have already run, which only warms caches), once the results
        // before it are stored, under one lock. A reused result is uncut,
        // so a top-k scan cuts it here.
        let mut node_time = vec![SimDuration::ZERO; self.topology.len()];
        let mut stores = Vec::with_capacity(tasks.len());
        let merge = || -> Result<Vec<TaskRun>> {
            let mut outputs: Vec<TaskRun> = Vec::with_capacity(tasks.len());
            for (i, hit) in reused.into_iter().enumerate() {
                if let Some(batch) = hit {
                    ctx.stats.reused_tasks += 1;
                    let mut out = LeafOutput {
                        batch,
                        is_agg_transport: agg.is_some(),
                        tally: TimeTally::new(),
                        stats: LeafTaskStats::default(),
                    };
                    if let Some(top) = top {
                        out.keep_top(top, cost)?;
                    }
                    let done = node_time[Topology::index(assignments[i])];
                    let at = SimInstant(scan_base + done.as_nanos());
                    let span = ctx.spans.record("leaf_task", None, at, at);
                    ctx.spans.attr(span, "node", assignments[i]);
                    ctx.spans.attr(span, "reused", 1u64);
                    outputs.push(TaskRun {
                        done,
                        start_ns: at.as_nanos(),
                        end_ns: at.as_nanos(),
                        span,
                        node: assignments[i],
                        out,
                    });
                    continue;
                }
                let (exec, uncut) = results[i].take().expect("task was executed")?;
                let TaskExec {
                    node,
                    out: output,
                    backup,
                } = exec;
                if backup {
                    ctx.stats.backup_tasks += 1;
                }
                ctx.stats.merge(&QueryStats::from_leaf(&output.stats));
                let stored = uncut.unwrap_or_else(|| output.batch.clone());
                stores.push((tasks[i].id, stored, output.is_agg_transport));
                let t = &mut node_time[Topology::index(node)];
                *t += output.tally.total();
                let done = *t;
                let total = output.tally.total();
                let start_ns = scan_base + done.as_nanos() - total.as_nanos();
                let end_ns = scan_base + done.as_nanos();
                let span =
                    ctx.spans
                        .record("leaf_task", None, SimInstant(start_ns), SimInstant(end_ns));
                ctx.spans.attr(span, "node", node);
                ctx.spans.attr(span, "rows", output.batch.rows());
                ctx.spans.attr(span, "bytes_read", output.stats.bytes_read);
                if output.stats.index_hits > 0 {
                    ctx.spans.attr(span, "index_hits", output.stats.index_hits);
                }
                if output.stats.index_built > 0 {
                    ctx.spans
                        .attr(span, "index_built", output.stats.index_built);
                }
                if output.stats.index_rejected > 0 {
                    ctx.spans
                        .attr(span, "index_rejected", output.stats.index_rejected);
                }
                if output.stats.blocks_skipped > 0 {
                    ctx.spans
                        .attr(span, "blocks_skipped", output.stats.blocks_skipped);
                }
                let tier = output.stats.served_tier.label();
                ctx.spans.attr(span, "tier", tier);
                *ctx.tier_tasks.entry(tier).or_default() += 1;
                if let Some(backend) = output.stats.backend {
                    if let Some(d) = self.router.domains().iter().find(|d| d.id() == backend) {
                        ctx.spans.attr(span, "backend", d.shared_prefix());
                        let bytes = output.stats.bytes_read.0;
                        // A backend's name is copied once per query, not per task.
                        match ctx.backend_bytes.get_mut(d.prefix()) {
                            Some(total) => *total += bytes,
                            None => {
                                ctx.backend_bytes.insert(d.prefix().to_string(), bytes);
                            }
                        }
                    }
                }
                outputs.push(TaskRun {
                    done,
                    start_ns,
                    end_ns,
                    span,
                    node,
                    out: output,
                });
            }
            Ok(outputs)
        };
        let outputs = merge();
        self.jobs.store_scan(&scan_signature, stores, ctx.now);
        let outputs = outputs?;

        // Partial-result handling: tasks finishing after the limit are
        // abandoned if the processed ratio is already satisfied. The final
        // `QueryStats::processed_ratio` is derived from the spans at the end
        // of the query, so abandoned tasks only need their marker here.
        let total_tasks = outputs.len();
        let mut kept: Vec<TaskRun> = Vec::with_capacity(total_tasks);
        let mut abandoned = 0usize;
        if let Some(limit) = ctx.options.time_limit {
            for run in outputs {
                if run.done <= limit {
                    kept.push(run);
                } else {
                    abandoned += 1;
                    ctx.spans.attr(run.span, "abandoned", 1u64);
                    ctx.spans.set_parent(run.span, Some(op_span));
                }
            }
            let achieved = kept.len() as f64 / total_tasks as f64;
            if abandoned > 0 {
                if achieved + 1e-12 < ctx.options.processed_ratio {
                    return Err(FeisuError::Deadline(format!(
                        "only {:.0}% of tasks finished within {limit}, {:.0}% required",
                        achieved * 100.0,
                        ctx.options.processed_ratio * 100.0
                    )));
                }
                ctx.partial = true;
            }
        } else {
            kept = outputs;
        }
        if kept.is_empty() {
            return view.empty_answer();
        }

        // Critical path: slowest node. When partial results were
        // returned, tasks past the limit were abandoned, so the leaf wave
        // ends exactly at the straggler limit — no node runs longer.
        let mut critical = node_time
            .into_iter()
            .fold(SimDuration::ZERO, |a, b| a.max(b));
        if let Some(limit) = ctx.options.time_limit {
            if ctx.partial {
                critical = limit;
            }
        }
        let mut scan_tally = TimeTally::new();
        scan_tally.add_io(critical); // critical path of leaf work

        // Merge bottom-up through the topology-derived stem tree (see
        // `merge_tree`): per-level wire accounting, stem spans and the
        // repartition exchange for grouped aggregates all live there.
        let agg_ref = agg_shape.map(|s| (s.group_by.as_slice(), s.aggregates.as_slice()));
        let zero = view.answered_empty();
        let merged = self.merge_scan_results(kept, agg_ref, *est_groups, zero, ctx, op_span);
        let (batch, root) = merged?;
        // The stem/master merge happens after the slowest leaf: charge its
        // cpu+network on top of the leaf critical path.
        scan_tally.add_cpu(root.cpu);
        scan_tally.add_network(root.network);
        ctx.tally = ctx.tally.then(&scan_tally);

        // §V-C read-data flow: an oversized result is dumped to global
        // storage and only its location travels to the master, which
        // fetches it through the bulk path.
        let payload = ByteSize(batch.footprint() as u64);
        if payload > self.spec.config.result_spill_threshold {
            ctx.stats.spilled_results += 1;
            // Keyed by query id: concurrent queries admitted at the same
            // simulated instant must not collide on the spill marker.
            let spill_path = format!("/hdfs/.feisu/tmp/q{}", ctx.query_id.raw());
            // The spill is a round trip through the global store: one
            // write from the stem, one read at the master.
            self.router.write(
                &spill_path,
                bytes::Bytes::from(vec![0u8; 0]), // marker object; data stays in memory
                None,
                &self.system_cred,
                ctx.now,
            )?;
            let mut spill_tally = TimeTally::new();
            spill_tally.add_io(
                self.spec
                    .cost
                    .read(feisu_cluster::StorageMedium::Hdd, payload)
                    * 2,
            );
            ctx.tally = ctx.tally.then(&spill_tally);
        }
        Ok(batch)
    }

    /// Worker-thread count for the leaf-task and partition-merger pools:
    /// the `execution_threads` knob, `0` meaning "whatever the machine
    /// offers".
    pub(crate) fn effective_threads(&self) -> usize {
        match self.spec.config.execution_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Runs a task on its assigned node, launching a backup task when the
    /// node is dead or pathologically slow (§III-B fault tolerance).
    /// Shared-state only (`&self`): safe to call from pool workers. All
    /// master-side bookkeeping (stats, spans, node time) is the caller's
    /// job — this returns what happened, including whether a backup fired.
    fn execute_with_backup(
        &self,
        scan: &ScanView,
        block: &BlockDesc,
        node: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<TaskExec> {
        match self.run_on_leaf(scan, block, node, cred, now) {
            Ok((mut out, slow)) => {
                let mut backup = false;
                if slow > 1.0 {
                    out.tally = scale_tally(&out.tally, slow);
                    // Straggler mitigation: a backup on a healthy node
                    // bounds the effective time at delay + normal time.
                    let normal_total = scale_tally(&out.tally, 1.0 / slow).total();
                    let backup_total = self.spec.config.backup_task_delay + normal_total;
                    if backup_total < out.tally.total() {
                        backup = true;
                        let mut t = TimeTally::new();
                        t.add_io(backup_total);
                        out.tally = t;
                    }
                }
                Ok(TaskExec { node, out, backup })
            }
            Err(e) if e.is_retryable() => {
                // Backup task on the next-best node.
                let replicas = self.router.replicas(&block.path)?;
                let backup_node = self
                    .nodes
                    .pick_backup(now, node, &replicas)
                    .ok_or_else(|| FeisuError::Scheduling("no backup worker available".into()))?;
                // The backup node's own slow factor is not applied.
                let (mut out, _) = self.run_on_leaf(scan, block, backup_node, cred, now)?;
                // The backup started after the detection delay.
                let mut t = TimeTally::new();
                t.add_io(self.spec.config.backup_task_delay + out.tally.total());
                out.tally = t;
                Ok(TaskExec {
                    node: backup_node,
                    out,
                    backup: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs a task on one node under its slot agreement; returns the
    /// output with the node's slow factor.
    fn run_on_leaf(
        &self,
        scan: &ScanView,
        block: &BlockDesc,
        node: NodeId,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<(LeafOutput, f64)> {
        // Resource agreement: a node with no Feisu slots at all refuses
        // the task (the caller reroutes it as a backup task on another
        // node) — exactly as in serial execution. Transient saturation is
        // different: under the pool several workers can momentarily hold
        // slots on one node (its own queue plus rerouted backup tasks)
        // where serial execution holds at most one, so a transient
        // refusal waits for a slot instead of erroring, keeping failure
        // semantics identical across thread counts.
        let slow = loop {
            match self.nodes.acquire(node) {
                Acquire::Granted(slow) => break slow,
                Acquire::Failed => {
                    return Err(FeisuError::NodeUnavailable(format!("{node} is down")))
                }
                Acquire::NoSlots => {
                    return Err(FeisuError::Scheduling(format!(
                        "resource agreement leaves no feisu slots on {node}"
                    )))
                }
                Acquire::Wait => std::thread::yield_now(),
            }
        };
        let leaf = self.leaf(node).expect("every node has a leaf server");
        let use_index = self.spec.use_smartindex;
        let out = leaf.run(scan, block, &self.router, cred, now, use_index);
        self.nodes.release(node);
        Ok((out?, slow))
    }
}

/// The worker pool shares the cluster by reference across threads.
#[allow(dead_code)]
fn _assert_cluster_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<FeisuCluster>();
}

/// What actually happened to one executed leaf task: where it ran (its
/// assignment, or the backup node) and whether a backup task fired —
/// folded into query stats during the serial merge phase.
struct TaskExec {
    node: NodeId,
    out: LeafOutput,
    backup: bool,
}

/// One leaf task as tracked by `distributed_scan`: its output plus the
/// placement and span bookkeeping needed for partial-result filtering
/// and the topology-derived merge tree.
pub(crate) struct TaskRun {
    /// Completion offset in the owning node's serialized-time account.
    done: SimDuration,
    /// Span extent on the query-relative timeline.
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) span: SpanId,
    /// Node the task actually ran on (the backup node if one fired) —
    /// the leaf end of the merge tree's first uplink.
    pub(crate) node: NodeId,
    pub(crate) out: LeafOutput,
}

fn scale_tally(t: &TimeTally, f: f64) -> TimeTally {
    let s = |d: SimDuration| SimDuration::nanos((d.as_nanos() as f64 * f) as u64);
    TimeTally {
        io: s(t.io),
        cpu: s(t.cpu),
        network: s(t.network),
    }
}
