//! Topology-derived multi-level merge tree with a hash-partitioned
//! repartition exchange (the execution tree of §III-B).
//!
//! The tree is derived from the [`Topology`]: aggregate
//! transports merge rack-local first (stem placed on the lowest-id
//! member node), rack stems merge per data center, and the DC stems feed
//! the master — every level billed at the *real* uplink distance of its
//! worst-placed child, with receive time serialized over the merger's
//! ingress link (the sum of child payloads, not the largest). On top of
//! the shape, grouped aggregates flow through a repartition exchange:
//! each stem level runs P partition mergers (group keys routed by
//! seedless FxHash), so no merger ever materializes the full group map,
//! each ingress link carries only a 1/P hash slice, and the master
//! concatenates P disjoint partitions instead of re-merging them.
//!
//! Determinism (§12): partition merges are pure functions of their
//! inputs, executed on the master's worker pool but collected in
//! (group, partition) submission order; all billing derives from
//! per-partition folded row counts. Results, stats and profiles are
//! bit-identical at any thread count. Row scans merge through one level
//! of submission-contiguous stems so result row order is untouched;
//! their hop billing comes from the topology all the same.
//!
//! [`Topology`]: feisu_cluster::Topology

use crate::engine::FeisuCluster;
use crate::master::pipeline::ExecCtx;
use crate::master::pool::run_indexed;
use crate::master::scan_exec::TaskRun;
use crate::stem::{self, AggShape, StemOutput};
use feisu_cluster::simclock::TimeTally;
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimInstant};
use feisu_exec::batch::RecordBatch;
use feisu_obs::SpanId;

/// One materialized node of the merge tree: a leaf task's output or a
/// stem's merged output, with the bookkeeping needed to bill, span and
/// merge it one level further up.
struct MergeNode {
    /// Transport batches: one for row results and unpartitioned
    /// aggregates, P disjoint partitions after an exchange level.
    parts: Vec<RecordBatch>,
    tally: TimeTally,
    /// Span extent on the query-relative timeline.
    start_ns: u64,
    end_ns: u64,
    span: Option<SpanId>,
    /// Node hosting this output (task's executing node, or the stem's
    /// placement) — the child end of the next uplink.
    node: NodeId,
}

impl MergeNode {
    /// Bytes this node ships up the next uplink.
    fn payload(&self) -> u64 {
        self.parts.iter().map(|b| b.footprint() as u64).sum()
    }
}

impl FeisuCluster {
    /// Merges the kept leaf-task outputs bottom-up into the final scan
    /// result, recording stem spans under `op_span` and per-level wire
    /// bytes into `ctx`. Returns the root output; the caller charges its
    /// cpu+network on top of the leaf critical path.
    pub(crate) fn merge_scan_results(
        &self,
        kept: Vec<TaskRun>,
        agg_ref: Option<AggShape<'_>>,
        ctx: &mut ExecCtx,
        op_span: SpanId,
    ) -> Result<StemOutput> {
        let is_agg = kept.iter().any(|r| r.out.is_agg_transport);
        if is_agg && kept.iter().any(|r| !r.out.is_agg_transport) {
            return Err(FeisuError::Internal(
                "mixed aggregate and row outputs at stem".into(),
            ));
        }
        let cfg = &self.spec.config;
        let per_stem = cfg.leaves_per_stem.max(1);
        // The master is the root of the tree; by convention it lives on
        // the first (lowest-id) node of the topology.
        let master = self
            .topology
            .nodes()
            .first()
            .map(|n| n.id)
            .ok_or_else(|| FeisuError::Internal("merge tree over empty topology".into()))?;

        let nodes: Vec<MergeNode> = kept
            .into_iter()
            .map(|r| MergeNode {
                parts: vec![r.out.batch],
                tally: r.out.tally,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                span: Some(r.span),
                node: r.node,
            })
            .collect();

        if !is_agg {
            return self.merge_row_tree(nodes, ctx, op_span, per_stem, master);
        }

        let shape = agg_ref.ok_or_else(|| {
            FeisuError::Internal("aggregate transport without aggregate shape".into())
        })?;
        // Global aggregates carry a single fused state per transport —
        // nothing to partition; the exchange applies to grouped
        // aggregates only.
        let parts = if shape.0.is_empty() {
            1
        } else {
            cfg.merge_tree.exchange_partitions.max(1)
        };

        // Level 1: rack stems. Level 2: one stem per data center.
        let mut nodes = nodes;
        for level in 1..=2 {
            let groups = if level == 1 {
                self.keyed_groups(&nodes, per_stem, |n| n.rack)?
            } else {
                self.keyed_groups(&nodes, per_stem, |n| n.datacenter)?
            };
            let consumed: u64 = nodes.iter().map(|n| n.payload()).sum();
            if level == 1 {
                ctx.wire_leaf_stem += consumed;
            } else {
                ctx.wire_rack_dc += consumed;
            }
            nodes =
                self.merge_agg_level(ctx, &nodes, &groups, shape, parts, level, None, op_span)?;
        }

        // Root: the stems ship up to the master, which runs the final P
        // partition mergers and concatenates their disjoint outputs.
        let up: u64 = nodes.iter().map(|n| n.payload()).sum();
        ctx.wire_stem_master += up;
        ctx.spans.attr(op_span, "wire_to_master", ByteSize(up));
        let all: Vec<usize> = (0..nodes.len()).collect();
        let mut root = self
            .merge_agg_level(ctx, &nodes, &[all], shape, parts, 0, Some(master), op_span)?
            .pop()
            .expect("one root group yields one output");
        let batch = if root.parts.len() == 1 {
            root.parts.pop().expect("single partition")
        } else {
            RecordBatch::concat(&root.parts)?
        };
        Ok(StemOutput {
            batch,
            is_agg_transport: true,
            tally: root.tally,
        })
    }

    /// Row results: submission-contiguous chunks into stems, then one
    /// root concat (row order is part of the result contract), with
    /// uplink hops derived from the topology.
    fn merge_row_tree(
        &self,
        nodes: Vec<MergeNode>,
        ctx: &mut ExecCtx,
        op_span: SpanId,
        per_stem: usize,
        master: NodeId,
    ) -> Result<StemOutput> {
        let groups = chunk_groups(nodes.len(), per_stem);
        ctx.wire_leaf_stem += nodes.iter().map(|n| n.payload()).sum::<u64>();
        let mut stems: Vec<StemOutput> = Vec::with_capacity(groups.len());
        let mut stem_nodes: Vec<NodeId> = Vec::with_capacity(groups.len());
        for group in &groups {
            let stem_node = group
                .iter()
                .map(|&i| nodes[i].node)
                .min()
                .expect("groups are nonempty");
            let hops = self
                .topology
                .uplink_hops(group.iter().map(|&i| nodes[i].node), stem_node)?;
            let meta = self.level_meta(&nodes, group);
            let wire: u64 = group.iter().map(|&i| nodes[i].payload()).sum();
            let children: Vec<StemOutput> = group
                .iter()
                .map(|&i| StemOutput {
                    batch: nodes[i].parts[0].clone(),
                    is_agg_transport: false,
                    tally: nodes[i].tally,
                })
                .collect();
            let out = stem::merge_outputs(children, None, &self.spec.cost, hops)?;
            self.record_stem_span(
                ctx, op_span, &nodes, group, &meta, &out.tally, 1, wire, stem_node,
            );
            stem_nodes.push(stem_node);
            stems.push(out);
        }
        let up: u64 = stems.iter().map(|s| s.batch.footprint() as u64).sum();
        ctx.wire_stem_master += up;
        ctx.spans.attr(op_span, "wire_to_master", ByteSize(up));
        let hops = self.topology.uplink_hops(stem_nodes, master)?;
        stem::merge_outputs(stems, None, &self.spec.cost, hops)
    }

    /// Merges one level of aggregate-transport groups, all (group ×
    /// partition) merges scheduled on the execution pool. `level` 0 with
    /// a `stem_override` is the root (no span, placed on the master);
    /// stem levels record spans and re-parent their children.
    #[allow(clippy::too_many_arguments)]
    fn merge_agg_level(
        &self,
        ctx: &mut ExecCtx,
        nodes: &[MergeNode],
        groups: &[Vec<usize>],
        shape: AggShape<'_>,
        parts: usize,
        level: usize,
        stem_override: Option<NodeId>,
        op_span: SpanId,
    ) -> Result<Vec<MergeNode>> {
        // Placement and billing metadata per group.
        let mut placements = Vec::with_capacity(groups.len());
        for group in groups {
            let stem_node = stem_override.unwrap_or_else(|| {
                group
                    .iter()
                    .map(|&i| nodes[i].node)
                    .min()
                    .expect("groups are nonempty")
            });
            let hops = self
                .topology
                .uplink_hops(group.iter().map(|&i| nodes[i].node), stem_node)?;
            let cores = self.topology.node(stem_node)?.cores;
            placements.push((stem_node, hops, cores));
        }

        // Fan the (group × partition) merges out on the worker pool,
        // group-major. Each is a pure function of its inputs and results
        // come back in that order, so everything billed from them is
        // independent of worker scheduling.
        let child_slices: Vec<Vec<&[RecordBatch]>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| nodes[i].parts.as_slice()).collect())
            .collect();
        let mut merged = run_indexed(self.effective_threads(), groups.len() * parts, |k| {
            stem::merge_agg_partition(shape, &child_slices[k / parts], k % parts, parts)
        })
        .into_iter();

        // Assemble each group's stem output in submission order.
        let mut out = Vec::with_capacity(groups.len());
        for (gi, group) in groups.iter().enumerate() {
            let mut part_batches = Vec::with_capacity(parts);
            let mut part_rows = Vec::with_capacity(parts);
            for _ in 0..parts {
                let (batch, rows) = merged.next().expect("one merge per (group, partition)")?;
                part_batches.push(batch);
                part_rows.push(rows);
            }
            let (stem_node, hops, cores) = placements[gi];
            let tallies: Vec<TimeTally> = group.iter().map(|&i| nodes[i].tally).collect();
            let mut tally = TimeTally::join_parallel(&tallies);
            // Children send in parallel but their transports converge on
            // the merger's ingress link, so elapsed receive time scales
            // with the *sum* of child payloads — this is why flat fan-in
            // loses and the tree wins. The exchange splits that ingress
            // across P partition mergers on disjoint links, each pulling
            // its hash slice of every child concurrently.
            let ingress: u64 = group.iter().map(|&i| nodes[i].payload()).sum();
            let per_merger = ingress.div_ceil(parts.max(1) as u64);
            tally.add_network(self.spec.cost.network(hops, ByteSize(per_merger)));
            // P mergers run in parallel on the stem: billed at the max of
            // the largest partition and an ideal split across the stem's
            // cores. Zero-row merges are billed a 1-row floor.
            let folded: usize = part_rows.iter().sum();
            if folded == 0 {
                tally.add_cpu(self.spec.cost.agg_merge(1));
            } else {
                tally.add_cpu(self.spec.cost.parallel_agg_merge(&part_rows, cores));
            }
            let meta = self.level_meta(nodes, group);
            let mut node = MergeNode {
                parts: part_batches,
                tally,
                start_ns: meta.child_min,
                end_ns: meta.child_max,
                span: None,
                node: stem_node,
            };
            if stem_override.is_none() {
                let wire: u64 = group.iter().map(|&i| nodes[i].payload()).sum();
                node.span = Some(self.record_stem_span(
                    ctx,
                    op_span,
                    nodes,
                    group,
                    &meta,
                    &node.tally,
                    level,
                    wire,
                    stem_node,
                ));
                node.end_ns = meta.child_max
                    + node
                        .tally
                        .total()
                        .as_nanos()
                        .saturating_sub(meta.slowest_child.as_nanos());
            }
            out.push(node);
        }
        Ok(out)
    }

    /// Child-extent metadata for span and timeline bookkeeping.
    fn level_meta(&self, nodes: &[MergeNode], group: &[usize]) -> LevelMeta {
        LevelMeta {
            child_min: group.iter().map(|&i| nodes[i].start_ns).min().unwrap_or(0),
            child_max: group.iter().map(|&i| nodes[i].end_ns).max().unwrap_or(0),
            slowest_child: group
                .iter()
                .map(|&i| nodes[i].tally.total())
                .fold(feisu_common::SimDuration::ZERO, |a, b| a.max(b)),
        }
    }

    /// Records one stem's span: starts with its earliest child, ends
    /// after the slowest child plus the stem's own merge time on top;
    /// children (leaf tasks or lower stems) are re-parented beneath it.
    #[allow(clippy::too_many_arguments)]
    fn record_stem_span(
        &self,
        ctx: &mut ExecCtx,
        op_span: SpanId,
        nodes: &[MergeNode],
        group: &[usize],
        meta: &LevelMeta,
        tally: &TimeTally,
        level: usize,
        wire: u64,
        stem_node: NodeId,
    ) -> SpanId {
        let extra = tally
            .total()
            .as_nanos()
            .saturating_sub(meta.slowest_child.as_nanos());
        let span = ctx.spans.record(
            "stem",
            None,
            SimInstant(meta.child_min),
            SimInstant(meta.child_max + extra),
        );
        ctx.spans.attr(span, "level", level);
        ctx.spans.attr(span, "tasks", group.len());
        ctx.spans.attr(span, "wire_bytes", ByteSize(wire));
        ctx.spans.attr(span, "node", stem_node.to_string());
        for &i in group {
            if let Some(child) = nodes[i].span {
                ctx.spans.set_parent(child, Some(span));
            }
        }
        ctx.spans.set_parent(span, Some(op_span));
        span
    }

    /// Groups node indices by a topology attribute of their hosting node
    /// (rack, then data center as the tree rises), preserving submission
    /// order: groups are ordered by first appearance, members keep their
    /// relative order, and oversized groups split at the stem fan-in.
    fn keyed_groups(
        &self,
        nodes: &[MergeNode],
        cap: usize,
        key: impl Fn(&feisu_cluster::NodeInfo) -> u32,
    ) -> Result<Vec<Vec<usize>>> {
        let mut order: Vec<u32> = Vec::new();
        let mut members: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for (i, n) in nodes.iter().enumerate() {
            let k = key(self.topology.node(n.node)?);
            members.entry(k).or_insert_with(|| {
                order.push(k);
                Vec::new()
            });
            members.get_mut(&k).expect("just inserted").push(i);
        }
        let mut groups = Vec::new();
        for k in order {
            let m = members.remove(&k).expect("keyed above");
            for chunk in m.chunks(cap) {
                groups.push(chunk.to_vec());
            }
        }
        Ok(groups)
    }
}

/// Submission-contiguous chunks of at most `cap` indices.
fn chunk_groups(len: usize, cap: usize) -> Vec<Vec<usize>> {
    (0..len)
        .collect::<Vec<_>>()
        .chunks(cap)
        .map(|c| c.to_vec())
        .collect()
}

struct LevelMeta {
    child_min: u64,
    child_max: u64,
    slowest_child: feisu_common::SimDuration,
}
