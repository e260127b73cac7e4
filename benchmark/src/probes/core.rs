//! `feisu-core`: a distributed scan put together from the crate's public
//! pieces — `LeafServer::execute`, the job manager's task-result cache,
//! the stem merge functions — with a span around each leaf and stem call.
//!
//! It is *a* valid execution of the scan, not a copy of the engine's: one
//! task per block in catalog order, each on the block's first replica,
//! merged in submission-contiguous groups of `leaves_per_stem` and then at
//! the master. Scheduling, placement by rack and the order tasks run in
//! are the engine's own business and may change; the answer may not, and
//! the traced pass compares it as a relation (`check::same_answer`), not
//! bit for bit. What the shadow leaves out is what the engine does
//! *around* these calls — admission, scheduling, job records, slot
//! accounting, backup tasks, simulated-time billing, span and event-log
//! assembly — and that remainder is `core.master.unattributed_share`.

use super::At;
use feisu_cluster::simclock::TimeTally;
use feisu_common::{FeisuError, NodeId, Result, SimInstant};
use feisu_core::engine::FeisuCluster;
use feisu_core::leaf::{LeafOutput, ScanTask};
use feisu_core::master::job_manager::task_signature;
use feisu_core::stem::{self, AggShape, StemOutput};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_storage::auth::Credential;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Probing every task would double the traced pass's leaf work.
const PROBE_EVERY: usize = 4;

pub struct Master<'a> {
    pub cluster: &'a FeisuCluster,
    /// Leaf tasks executed so far; every [`PROBE_EVERY`]-th is handed
    /// back for the stand-alone storage/format/index probes.
    executed: AtomicUsize,
}

/// An executed leaf task picked for stand-alone probing.
pub struct ProbeJob {
    pub task: ScanTask,
    pub node: NodeId,
    /// The leaf decoded column chunks (it did not skip the block).
    pub scanned: bool,
}

impl<'a> Master<'a> {
    pub fn new(cluster: &'a FeisuCluster) -> Master<'a> {
        Master {
            cluster,
            executed: AtomicUsize::new(0),
        }
    }

    /// Runs `work(i)` for `i in 0..n` on the cluster's `execution_threads`
    /// workers (worker `w` takes `w, w + threads, ...`); results come back
    /// in index order.
    fn pool<T: Send>(&self, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let threads = match self.cluster.spec().config.execution_threads {
            0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
            t => t,
        }
        .min(n);
        if threads <= 1 {
            return (0..n).map(work).collect();
        }
        let work = &work;
        let mut strides: Vec<std::vec::IntoIter<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| s.spawn(move || (w..n).step_by(threads).map(work).collect::<Vec<T>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked").into_iter())
                .collect()
        });
        (0..n)
            .map(|i| strides[i % threads].next().expect("every index ran"))
            .collect()
    }

    /// Executes one `DistributedScan`: a task per block, reuse, the leaf
    /// calls, the merges. Spans: `core.scan` around everything,
    /// `core.leaf.execute` per task, `core.stem.merge` per merge.
    pub fn distributed_scan(
        &self,
        at: At<'_>,
        scan: &PhysicalPlan,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<(RecordBatch, Vec<ProbeJob>)> {
        let span = at.rec.start("core.scan", at.parent, at.stmt);
        let out = self.scan_inner(at.under(span), scan, cred, now);
        at.rec
            .end(span, out.as_ref().map_or(0, |(b, _)| b.rows() as u64));
        out
    }

    fn scan_inner(
        &self,
        at: At<'_>,
        scan: &PhysicalPlan,
        cred: &Credential,
        now: SimInstant,
    ) -> Result<(RecordBatch, Vec<ProbeJob>)> {
        let PhysicalPlan::DistributedScan {
            table,
            projection,
            cnf,
            residual,
            agg_stage,
            name_map,
            output_schema,
            ..
        } = scan
        else {
            return Err(FeisuError::Internal("not a distributed scan".into()));
        };
        let cluster = self.cluster;
        let router = cluster.router();
        let mut tasks = Vec::new();
        let mut nodes = Vec::new();
        for block in cluster.catalog().table(table)?.blocks().cloned() {
            let holders = router.replicas(&block.path)?;
            nodes.push(
                *holders.first().ok_or_else(|| {
                    FeisuError::Storage(format!("`{}` has no replica", block.path))
                })?,
            );
            tasks.push(ScanTask {
                table: table.to_string(),
                block,
                projection: projection.to_vec(),
                output_schema: output_schema.clone(),
                cnf: cnf.clone(),
                residual: residual.clone(),
                agg: agg_stage.clone(),
                name_map: name_map.clone(),
            });
        }
        if tasks.is_empty() {
            let empty = match agg_stage {
                Some(stage) => AggTable::new(stage.group_by.clone(), stage.aggregates.clone())
                    .to_transport()?,
                None => RecordBatch::empty(output_schema.clone()),
            };
            return Ok((empty, Vec::new()));
        }

        // Identical-task reuse through the traced cluster's own job
        // manager (nothing else uses it: no statement goes through this
        // cluster's `query`), so the engine's window and capacity apply.
        // The key only has to tell the shadow's own tasks apart.
        let predicate = format!("{cnf:?}\u{1}{residual:?}");
        let aggregate = format!("{agg_stage:?}");
        let signatures: Vec<String> = tasks
            .iter()
            .map(|t| task_signature(table, t.block.id, &predicate, projection, &aggregate))
            .collect();
        let jobs = cluster.jobs();
        let mut outputs: Vec<Option<(RecordBatch, bool)>> = signatures
            .iter()
            .map(|s| jobs.lookup_task(s, now))
            .collect();

        let to_run: Vec<usize> = (0..tasks.len()).filter(|&i| outputs[i].is_none()).collect();
        let use_index = cluster.spec().use_smartindex;
        let ran: Vec<Result<LeafOutput>> = self.pool(to_run.len(), |k| {
            let (task, node) = (&tasks[to_run[k]], nodes[to_run[k]]);
            at.time(
                "core.leaf.execute",
                || match cluster.leaf(node) {
                    Some(leaf) => leaf.execute(task, router, cred, now, use_index),
                    None => Err(FeisuError::NodeUnavailable(format!("{node} has no leaf"))),
                },
                |_| task.block.rows as u64,
            )
        });
        let mut probes = Vec::new();
        for (i, out) in to_run.into_iter().zip(ran) {
            let out = out?;
            jobs.store_task(
                signatures[i].clone(),
                out.batch.clone(),
                out.is_agg_transport,
                now,
            );
            if self
                .executed
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(PROBE_EVERY)
            {
                probes.push(ProbeJob {
                    task: tasks[i].clone(),
                    node: nodes[i],
                    scanned: out.stats.blocks_scanned > 0,
                });
            }
            outputs[i] = Some((out.batch, out.is_agg_transport));
        }

        let outputs: Vec<(RecordBatch, bool)> = outputs
            .into_iter()
            .map(|o| o.expect("every task was reused or executed"))
            .collect();
        let is_agg = outputs[0].1;
        if outputs.iter().any(|(_, agg)| *agg != is_agg) {
            return Err(FeisuError::Internal(
                "mixed aggregate and row outputs".into(),
            ));
        }
        let batches: Vec<RecordBatch> = outputs.into_iter().map(|(b, _)| b).collect();
        let batch = match agg_stage {
            Some(stage) if is_agg => {
                self.merge_aggregates(at, batches, (&stage.group_by, &stage.aggregates))?
            }
            _ => self.merge_rows(at, batches)?,
        };
        Ok((batch, probes))
    }

    /// Row results: submission-contiguous groups into stems, one root
    /// concat (row order is part of the answer).
    fn merge_rows(&self, at: At<'_>, leaves: Vec<RecordBatch>) -> Result<RecordBatch> {
        let spec = self.cluster.spec();
        let merge = |children: Vec<StemOutput>| {
            at.time(
                "core.stem.merge",
                || stem::merge_outputs(children, None, &spec.cost, 0),
                |r| r.as_ref().map_or(0, |o| o.batch.rows() as u64),
            )
        };
        let row_child = |batch: &RecordBatch| StemOutput {
            batch: batch.clone(),
            is_agg_transport: false,
            tally: TimeTally::new(),
        };
        let stems = leaves
            .chunks(spec.config.leaves_per_stem.max(1))
            .map(|group| merge(group.iter().map(row_child).collect()))
            .collect::<Result<Vec<_>>>()?;
        Ok(merge(stems)?.batch)
    }

    /// Aggregate transports: one stem per `leaves_per_stem` leaves, then
    /// the master, each running one merger per exchange partition.
    fn merge_aggregates(
        &self,
        at: At<'_>,
        leaves: Vec<RecordBatch>,
        shape: AggShape<'_>,
    ) -> Result<RecordBatch> {
        let config = &self.cluster.spec().config;
        let parts = if shape.0.is_empty() {
            1
        } else {
            config.merge_tree.exchange_partitions.max(1)
        };
        // One level: every group of children folds into `parts` transports.
        let level = |groups: Vec<Vec<&[RecordBatch]>>| -> Result<Vec<Vec<RecordBatch>>> {
            let merged = self.pool(groups.len() * parts, |k| {
                at.time(
                    "core.stem.merge",
                    || stem::merge_agg_partition(shape, &groups[k / parts], k % parts, parts),
                    |r| r.as_ref().map_or(0, |(_, folded)| *folded as u64),
                )
            });
            let mut merged = merged.into_iter().map(|r| r.map(|(batch, _)| batch));
            (0..groups.len())
                .map(|_| merged.by_ref().take(parts).collect())
                .collect()
        };
        let stems = level(
            leaves
                .chunks(config.leaves_per_stem.max(1))
                .map(|group| group.iter().map(std::slice::from_ref).collect())
                .collect(),
        )?;
        let mut root = level(vec![stems.iter().map(Vec::as_slice).collect()])?;
        RecordBatch::concat(&root.pop().expect("one root group yields one output"))
    }
}
