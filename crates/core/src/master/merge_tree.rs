//! Topology-derived multi-level merge tree with a hash-partitioned
//! repartition exchange (the execution tree of §III-B).
//!
//! One level loop merges every scan. A level groups the nodes below it by
//! a key of their hosting node, in submission order, splitting a group at
//! the stem fan-in; places each group's stem on its lowest-id member node;
//! and bills the uplink at the *real* distance of the worst-placed child.
//! The master's root merge is the same level over one group. Row scans
//! climb one level of submission-contiguous stems, so result row order is
//! untouched; aggregate transports climb two, rack then data center.
//!
//! A level exists only where it does work. A grouped aggregate's levels
//! fold groups and always run. Every other level only cuts the fan-in, so
//! it is skipped once the nodes left fit one stem (`leaves_per_stem`):
//! the root then merges them directly, billed as any level is, and their
//! spans hang off the scan's operator span.
//!
//! What the kind of result changes is the merge and two billing terms.
//! Rows concatenate ([`stem::merge_outputs`]: the largest child payload
//! over the uplink, one predicate evaluation per row). Aggregates flow
//! through a repartition exchange: each level runs P partition mergers
//! ([`stem::merge_exchange_partition`], group keys routed by seedless
//! FxHash, each child transport hashed once for all P), so no merger
//! materializes the full group map, the merger's ingress
//! link carries the *sum* of child payloads split P ways, and the master
//! concatenates P disjoint partitions instead of re-merging them.
//!
//! Determinism (§12): partition merges are pure functions of their
//! inputs, executed on the master's worker pool but collected in
//! (group, partition) submission order; all billing derives from
//! per-partition folded row counts. Results, stats and profiles are
//! bit-identical at any thread count.

use crate::engine::FeisuCluster;
use crate::master::pipeline::ExecCtx;
use crate::master::pool::run_indexed;
use crate::master::scan_exec::TaskRun;
use crate::stem::{self, AggShape, ExchangeChild, StemOutput};
use feisu_cluster::simclock::TimeTally;
use feisu_cluster::NodeInfo;
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimInstant};
use feisu_exec::aggregate::transport_hashes;
use feisu_exec::batch::RecordBatch;
use feisu_obs::SpanId;
use std::sync::OnceLock;

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

/// How a level merges a group: row batches concatenate, aggregate
/// transports fold into `parts` hash partitions.
#[derive(Clone, Copy)]
enum MergeKind<'a> {
    Rows,
    Agg { shape: AggShape<'a>, parts: usize },
}

/// What a level groups its nodes by: an attribute of the hosting node.
type LevelKey = fn(&NodeInfo) -> u32;

impl FeisuCluster {
    /// Merges the kept leaf-task outputs bottom-up into the final scan
    /// result, recording stem spans under `op_span` and per-level wire
    /// bytes into `ctx.stats`. Returns the root output; the caller charges
    /// its cpu+network on top of the leaf critical path.
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
        let kind = match (is_agg, agg_ref) {
            (false, _) => MergeKind::Rows,
            (true, None) => {
                return Err(FeisuError::Internal(
                    "aggregate transport without aggregate shape".into(),
                ))
            }
            // Global aggregates carry a single fused state per transport —
            // nothing to partition; the exchange applies to grouped
            // aggregates only.
            (true, Some(shape)) => MergeKind::Agg {
                shape,
                parts: match shape.0.is_empty() {
                    true => 1,
                    false => cfg.merge_tree.exchange_partitions.max(1),
                },
            },
        };
        // The levels below the root, bottom up. Rows: one key for all, so
        // stems take submission-contiguous chunks (row order is part of
        // the result). Aggregates: rack stems, then one per data center.
        let levels: &[LevelKey] = match kind {
            MergeKind::Rows => &[|_| 0],
            MergeKind::Agg { .. } => &[|n| n.rack, |n| n.datacenter],
        };
        // Only a grouped aggregate's exchange folds at every level.
        let folds = matches!(kind, MergeKind::Agg { shape, .. } if !shape.0.is_empty());
        // The master is the root of the tree; by convention it lives on
        // the first (lowest-id) node of the topology.
        let master = self
            .topology
            .nodes()
            .first()
            .map(|n| n.id)
            .ok_or_else(|| FeisuError::Internal("merge tree over empty topology".into()))?;

        let mut nodes: Vec<MergeNode> = kept
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
        let per_stem = cfg.leaves_per_stem.max(1);
        for (i, &key) in levels.iter().enumerate() {
            // A level that only cuts the fan-in is left to the root once
            // one stem would take every node left.
            if !folds && nodes.len() <= per_stem {
                break;
            }
            let groups = self.keyed_groups(&nodes, per_stem, key)?;
            nodes = self.merge_level(ctx, nodes, &groups, kind, i + 1, None, op_span)?;
        }
        let all = [(0..nodes.len()).collect()];
        let root = self.merge_level(ctx, nodes, &all, kind, 0, Some(master), op_span)?;
        let root = root
            .into_iter()
            .next()
            .expect("one root group yields one output");
        let batch = match <[RecordBatch; 1]>::try_from(root.parts) {
            Ok([batch]) => batch,
            Err(parts) => RecordBatch::concat(&parts)?,
        };
        Ok(StemOutput {
            batch,
            is_agg_transport: is_agg,
            tally: root.tally,
        })
    }

    /// Merges one level: each group into one stem output. Stem levels
    /// (`root` is `None`) place the stem on the group's lowest-id node,
    /// record its span and re-parent the children; the root is placed on
    /// `root`, records none and re-parents the children to `op_span`. The
    /// level's ingress is booked on the wire leg its index names: 1
    /// leaf→stem, 2 rack→DC, root stem→master.
    #[allow(clippy::too_many_arguments)]
    fn merge_level(
        &self,
        ctx: &mut ExecCtx,
        mut nodes: Vec<MergeNode>,
        groups: &[Vec<usize>],
        kind: MergeKind<'_>,
        level: usize,
        root: Option<NodeId>,
        op_span: SpanId,
    ) -> Result<Vec<MergeNode>> {
        let payloads: Vec<u64> = nodes.iter().map(MergeNode::payload).collect();
        let ingress = ByteSize(payloads.iter().sum());
        match (root, level) {
            (Some(_), _) => {
                ctx.stats.wire_stem_master += ingress;
                ctx.spans.attr(op_span, "wire_to_master", ingress);
            }
            (None, 1) => ctx.stats.wire_leaf_stem += ingress,
            (None, _) => ctx.stats.wire_rack_dc += ingress,
        }

        // Aggregates fan every (group × partition) merge out on the worker
        // pool, group-major. Each is a pure function of its inputs and
        // results come back in that order, so everything billed from them
        // is independent of worker scheduling.
        let mut merged = match kind {
            MergeKind::Rows => Vec::new(),
            MergeKind::Agg { shape, parts } => {
                // A child shipping one unpartitioned transport is hashed
                // once, by the first of its P mergers to reach it.
                let hashes: Vec<OnceLock<Vec<u64>>> =
                    nodes.iter().map(|_| OnceLock::new()).collect();
                let child = |i: usize| -> ExchangeChild<'_> {
                    let batches = nodes[i].parts.as_slice();
                    let hashes = match batches {
                        [batch] => {
                            Some(hashes[i].get_or_init(|| transport_hashes(batch, shape.0.len())))
                        }
                        _ => None,
                    };
                    (batches, hashes.map(Vec::as_slice))
                };
                run_indexed(self.effective_threads(), groups.len() * parts, |k| {
                    let children: Vec<ExchangeChild<'_>> =
                        groups[k / parts].iter().map(|&i| child(i)).collect();
                    stem::merge_exchange_partition(shape, &children, k % parts, parts)
                })
            }
        }
        .into_iter();

        let cost = &self.spec.cost;
        let mut out = Vec::with_capacity(groups.len());
        for group in groups {
            let stem_node = root
                .or_else(|| group.iter().map(|&i| nodes[i].node).min())
                .ok_or_else(|| FeisuError::Internal("empty merge group".into()))?;
            let hops = self
                .topology
                .uplink_hops(group.iter().map(|&i| nodes[i].node), stem_node)?;
            let wire: u64 = group.iter().map(|&i| payloads[i]).sum();
            let start_ns = group.iter().map(|&i| nodes[i].start_ns).min().unwrap_or(0);
            let child_max = group.iter().map(|&i| nodes[i].end_ns).max().unwrap_or(0);
            let slowest = group.iter().map(|&i| nodes[i].tally.total()).max();
            let (parts, tally) = match kind {
                // The children's batches move into the concatenation.
                MergeKind::Rows => {
                    let children = group.iter().flat_map(|&i| {
                        let tally = nodes[i].tally;
                        let parts = std::mem::take(&mut nodes[i].parts);
                        parts.into_iter().map(move |batch| StemOutput {
                            batch,
                            is_agg_transport: false,
                            tally,
                        })
                    });
                    let merged = stem::merge_outputs(children.collect(), None, cost, hops)?;
                    (vec![merged.batch], merged.tally)
                }
                MergeKind::Agg { parts, .. } => {
                    let folded: Vec<(RecordBatch, usize)> =
                        merged.by_ref().take(parts).collect::<Result<_>>()?;
                    let (batches, part_rows): (Vec<_>, Vec<_>) = folded.into_iter().unzip();
                    let tallies: Vec<TimeTally> = group.iter().map(|&i| nodes[i].tally).collect();
                    let mut tally = TimeTally::join_parallel(&tallies);
                    // Children send in parallel but their transports
                    // converge on the merger's ingress link, so receive
                    // time scales with the *sum* of child payloads — why
                    // flat fan-in loses and the tree wins. The P partition
                    // mergers pull their hash slices on disjoint links.
                    let per_merger = wire.div_ceil(parts as u64);
                    tally.add_network(cost.network(hops, ByteSize(per_merger)));
                    // The mergers run in parallel on the stem: billed at the
                    // max of the largest partition and an ideal split across
                    // its cores. Zero-row merges are billed a 1-row floor.
                    let cores = self.topology.node(stem_node)?.cores;
                    tally.add_cpu(match part_rows.iter().sum::<usize>() {
                        0 => cost.agg_merge(1),
                        _ => cost.parallel_agg_merge(&part_rows, cores),
                    });
                    (batches, tally)
                }
            };
            // A stem starts with its earliest child and ends after the
            // slowest child plus its own merge time on top.
            let own = tally.total().saturating_sub(slowest.unwrap_or_default());
            let end_ns = child_max + own.as_nanos();
            let span = root.is_none().then(|| {
                let span = ctx
                    .spans
                    .record("stem", None, SimInstant(start_ns), SimInstant(end_ns));
                ctx.spans.attr(span, "level", level);
                ctx.spans.attr(span, "tasks", group.len());
                ctx.spans.attr(span, "wire_bytes", ByteSize(wire));
                ctx.spans.attr(span, "node", stem_node.to_string());
                ctx.spans.set_parent(span, Some(op_span));
                span
            });
            for child in group.iter().filter_map(|&i| nodes[i].span) {
                ctx.spans.set_parent(child, Some(span.unwrap_or(op_span)));
            }
            out.push(MergeNode {
                parts,
                tally,
                start_ns,
                end_ns,
                span,
                node: stem_node,
            });
        }
        Ok(out)
    }

    /// Groups node indices by a topology attribute of their hosting node,
    /// preserving submission order: groups are ordered by first appearance,
    /// members keep their relative order, and oversized groups split at
    /// the stem fan-in.
    fn keyed_groups(
        &self,
        nodes: &[MergeNode],
        cap: usize,
        key: LevelKey,
    ) -> Result<Vec<Vec<usize>>> {
        let mut keyed: Vec<Vec<usize>> = Vec::new();
        let mut slot: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, n) in nodes.iter().enumerate() {
            let s = *slot
                .entry(key(self.topology.node(n.node)?))
                .or_insert_with(|| {
                    keyed.push(Vec::new());
                    keyed.len() - 1
                });
            keyed[s].push(i);
        }
        Ok(keyed
            .iter()
            .flat_map(|m| m.chunks(cap).map(<[usize]>::to_vec))
            .collect())
    }
}
