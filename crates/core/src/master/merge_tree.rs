//! Topology-derived multi-level merge tree with a hash-partitioned
//! repartition exchange (the execution tree of §III-B).
//!
//! One level loop merges every scan. A level groups the nodes below it by
//! a key of their hosting node, in submission order, splitting a group at
//! the stem fan-in; places each group's stem on its lowest-id member node;
//! and bills the uplink at the *real* distance of the worst-placed child.
//! The master's root merge is the same level over one group. Row scans
//! climb one level of submission-contiguous stems, so result row order is
//! untouched; aggregate transports climb the subset of rack and data
//! center levels priced below.
//!
//! A level runs only where it pays. A grouped aggregate's levels fold
//! groups but cost an uplink, so when the leaf wave ends the master
//! prices each subset of them whose root fits `leaves_per_stem`, by the
//! terms the level is billed, and runs the cheapest (`priced_levels`).
//! Any other level only cuts the fan-in, so it is skipped once the nodes
//! left fit one stem. When no level runs the root merges the leaves
//! directly, billed as any level is, and their spans hang off the scan's.
//!
//! What the kind of result changes is the merge and two billing terms.
//! Rows concatenate ([`stem::merge_outputs`]: the largest child payload
//! over the uplink, one predicate evaluation per row). Aggregates flow
//! through a repartition exchange: each level runs P partition mergers
//! ([`stem::merge_exchange_partition`], group keys routed by seedless
//! FxHash, each child transport hashed once for all P), so no merger
//! materializes the full group map, the merger's ingress
//! link carries the *sum* of child payloads split P ways, and the master
//! concatenates P disjoint partitions and finishes them with one sort
//! (`aggregate::finish_transport`) instead of re-merging them.
//!
//! Determinism (§12): partition merges are pure functions of their
//! inputs, executed on the master's worker pool but collected in
//! (group, partition) submission order; all billing derives from
//! per-partition folded row counts, and the levels chosen from the leaf
//! outputs, the topology and the plan. Results, stats and profiles are
//! bit-identical at any thread count.

use crate::engine::FeisuCluster;
use crate::master::pipeline::ExecCtx;
use crate::master::pool::run_indexed;
use crate::master::scan_exec::TaskRun;
use crate::stem::{self, AggShape, ExchangeChild, StemOutput};
use feisu_cluster::simclock::TimeTally;
use feisu_cluster::NodeInfo;
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimDuration, SimInstant};
use feisu_exec::aggregate::Routes;
use feisu_exec::batch::RecordBatch;
use feisu_exec::estimate::folded_groups;
use feisu_obs::SpanId;
use std::sync::OnceLock;

/// A merge node's batches: one for row results and unpartitioned
/// aggregates, P disjoint partitions after an exchange level.
enum Parts {
    One(RecordBatch),
    Split(Vec<RecordBatch>),
}

impl Parts {
    fn as_slice(&self) -> &[RecordBatch] {
        match self {
            Parts::One(batch) => std::slice::from_ref(batch),
            Parts::Split(batches) => batches,
        }
    }

    fn into_iter(self) -> impl Iterator<Item = RecordBatch> {
        let (one, split) = match self {
            Parts::One(batch) => (Some(batch), Vec::new()),
            Parts::Split(batches) => (None, batches),
        };
        one.into_iter().chain(split)
    }
}

/// One materialized node of the merge tree: a leaf task's output or a
/// stem's merged output, with the bookkeeping needed to bill, span and
/// merge it one level further up.
struct MergeNode {
    parts: Parts,
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
        self.parts
            .as_slice()
            .iter()
            .map(|b| b.footprint() as u64)
            .sum()
    }
}

/// How a level merges a group: row batches concatenate, aggregate
/// transports fold into `parts` hash partitions, a child that ships the
/// scan's shared `zero` state counted and not folded.
#[derive(Clone, Copy)]
enum MergeKind<'a> {
    Rows,
    Agg {
        shape: AggShape<'a>,
        parts: usize,
        zero: Option<&'a RecordBatch>,
    },
}

/// What a level groups its nodes by: an attribute of the hosting node.
type LevelKey = fn(&NodeInfo) -> u32;

/// An aggregate's levels, bottom up, and the names of their subsets.
const AGG_LEVELS: [LevelKey; 2] = [|n| n.rack, |n| n.datacenter];
const SHAPES: [&str; 4] = ["root", "rack", "dc", "rack+dc"];

/// A node of a priced tree: host, shipped rows and bytes, and finish.
struct Priced {
    node: NodeId,
    rows: f64,
    bytes: f64,
    finish: SimDuration,
}

impl FeisuCluster {
    /// Merges the kept leaf-task outputs bottom-up into the final scan
    /// result, recording stem spans under `op_span` and per-level wire
    /// bytes into `ctx.stats`. The scan's aggregate shape `agg_ref` fixes
    /// the result kind: every task of an aggregating scan ships a
    /// transport, every other task rows; `est_groups` prices a GROUP BY's
    /// depth; `zero` is the zero state the scan's tasks that kept nothing
    /// share, if one did. Returns the root's batch and tally; the caller
    /// charges its cpu+network on top of the leaf critical path.
    pub(crate) fn merge_scan_results(
        &self,
        kept: Vec<TaskRun>,
        agg_ref: Option<AggShape<'_>>,
        est_groups: Option<u64>,
        zero: Option<&RecordBatch>,
        ctx: &mut ExecCtx,
        op_span: SpanId,
    ) -> Result<(RecordBatch, TimeTally)> {
        let cfg = &self.spec.config;
        let kind = match agg_ref {
            None => MergeKind::Rows,
            // Global aggregates carry a single fused state per transport —
            // nothing to partition; the exchange applies to grouped
            // aggregates only.
            Some(shape) => MergeKind::Agg {
                shape,
                parts: match shape.0.is_empty() {
                    true => 1,
                    false => cfg.merge_tree.exchange_partitions.max(1),
                },
                zero,
            },
        };
        // The levels below the root, bottom up. Rows: one key for all, so
        // stems take submission-contiguous chunks (row order is part of
        // the result).
        let levels: &[LevelKey] = match kind {
            MergeKind::Rows => &[|_| 0],
            MergeKind::Agg { .. } => &AGG_LEVELS,
        };
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
                parts: Parts::One(r.out.batch),
                tally: r.out.tally,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                span: Some(r.span),
                node: r.node,
            })
            .collect();
        let per_stem = cfg.leaves_per_stem.max(1);
        // A GROUP BY runs the levels priced cheapest; a level that only
        // cuts fan-in runs only where the fan-in exceeds one stem.
        let chosen = match kind {
            MergeKind::Agg { shape, parts, .. } if !shape.0.is_empty() => {
                let mask = self.priced_levels(&nodes, per_stem, parts, est_groups, master)?;
                ctx.spans.attr(op_span, "levels", SHAPES[mask]);
                Some(mask)
            }
            _ => None,
        };
        // Each level's ingress is booked on the wire leg of what ran: the
        // first stem level takes the leaves' outputs (leaf→stem), a later
        // one stems' (rack→DC), the root whatever is left (stem→master).
        let ingress = |nodes: &[MergeNode]| ByteSize(nodes.iter().map(MergeNode::payload).sum());
        let mut leaves = true;
        for (i, &key) in levels.iter().enumerate() {
            if chosen.map_or(nodes.len() <= per_stem, |mask| mask >> i & 1 == 0) {
                continue;
            }
            match std::mem::take(&mut leaves) {
                true => ctx.stats.wire_leaf_stem += ingress(&nodes),
                false => ctx.stats.wire_rack_dc += ingress(&nodes),
            }
            let groups = self.keyed_groups(nodes.iter().map(|n| n.node), per_stem, key)?;
            nodes = self.merge_level(ctx, nodes, &groups, kind, i + 1, None, op_span)?;
        }
        let to_master = ingress(&nodes);
        ctx.stats.wire_stem_master += to_master;
        ctx.spans.attr(op_span, "wire_to_master", to_master);
        let all = [(0..nodes.len()).collect()];
        let root = self.merge_level(ctx, nodes, &all, kind, 0, Some(master), op_span)?;
        let [root] = <[MergeNode; 1]>::try_from(root)
            .map_err(|_| FeisuError::Internal("the root group yielded no single output".into()))?;
        let batch = match root.parts {
            Parts::One(batch) => batch,
            Parts::Split(parts) => RecordBatch::concat(&parts)?,
        };
        Ok((batch, root.tally))
    }

    /// The subset of [`AGG_LEVELS`] (a bitmask) a grouped aggregate runs:
    /// of those whose root takes at most `cap` children, the one whose
    /// root finishes first, the deeper on a tie; all when none fits or the
    /// plan has no estimate. A merger finishes after its slowest child plus
    /// its own `CostModel::exchange_level` terms and ships the
    /// [`folded_groups`] of its children's rows, bytes in proportion.
    fn priced_levels(
        &self,
        leaves: &[MergeNode],
        cap: usize,
        parts: usize,
        groups: Option<u64>,
        master: NodeId,
    ) -> Result<usize> {
        let all = (1 << AGG_LEVELS.len()) - 1;
        let Some(keys) = groups.map(|g| g as f64) else {
            return Ok(all);
        };
        let cost = &self.spec.cost;
        let price = |nodes: &[Priced], group: &Vec<usize>, root| {
            let (node, hops, cores) = self.place(group.iter().map(|&i| nodes[i].node), root)?;
            let rows: Vec<f64> = group.iter().map(|&i| nodes[i].rows).collect();
            let ingress: f64 = rows.iter().sum();
            let wire: f64 = group.iter().map(|&i| nodes[i].bytes).sum();
            let part_rows = vec![(ingress / parts as f64).ceil() as usize; parts];
            let own = cost.exchange_level(hops, wire.ceil() as u64, &part_rows, cores);
            let folded = folded_groups(&rows, keys);
            let slowest = group.iter().map(|&i| nodes[i].finish).max();
            Ok(Priced {
                node,
                rows: folded,
                // Shipped rows are 0 or at least 1, so bytes scale exactly.
                bytes: wire * folded / ingress.max(1.0),
                finish: slowest.unwrap_or_default() + own.total(),
            })
        };
        let mut best = (SimDuration::nanos(u64::MAX), all);
        // Deeper subsets first, so a tie keeps the deeper tree.
        for mask in (0..=all).rev() {
            let mut nodes: Vec<Priced> = (leaves.iter())
                .map(|n| Priced {
                    node: n.node,
                    rows: (n.parts.as_slice().iter())
                        .map(RecordBatch::rows)
                        .sum::<usize>() as f64,
                    bytes: n.payload() as f64,
                    finish: n.tally.total(),
                })
                .collect();
            for (i, &key) in AGG_LEVELS.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    let stems = self.keyed_groups(nodes.iter().map(|n| n.node), cap, key)?;
                    nodes = (stems.iter())
                        .map(|g| price(&nodes, g, None))
                        .collect::<Result<_>>()?;
                }
            }
            if nodes.len() <= cap {
                let root = price(&nodes, &(0..nodes.len()).collect(), Some(master))?;
                if root.finish < best.0 {
                    best = (root.finish, mask);
                }
            }
        }
        Ok(best.1)
    }

    /// Merges one level: each group into one stem output. Stem levels
    /// (`root` is `None`) place the stem on the group's lowest-id node,
    /// record its span and re-parent the children; the root is placed on
    /// `root`, records none and re-parents the children to `op_span`.
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

        // Aggregates fan every (group × partition) merge out on the worker
        // pool, group-major. Each is a pure function of its inputs and
        // results come back in that order, so everything billed from them
        // is independent of worker scheduling.
        let mut merged = match kind {
            MergeKind::Rows => Vec::new(),
            MergeKind::Agg { shape, parts, zero } => {
                // A child shipping one unpartitioned transport is routed
                // once, by the first of its P mergers to reach it; every
                // child shipping nothing but the shared zero state — a
                // leaf's, or a stem's P copies of it, which have no rows:
                // only a grouped aggregate is partitioned — by one routing.
                let routes: Vec<OnceLock<Routes>> = nodes.iter().map(|_| OnceLock::new()).collect();
                let zero_routes = OnceLock::new();
                let route = |batch| Routes::new(batch, shape.0.len(), parts);
                let is_zero = |batch: &RecordBatch| zero.is_some_and(|zero| batch.shares(zero));
                let child = |i: usize| match nodes[i].parts.as_slice() {
                    batches @ [batch, ..] if batches.iter().all(is_zero) => {
                        ExchangeChild::Zero(batch, zero_routes.get_or_init(|| route(batch)))
                    }
                    [batch] => ExchangeChild::Routed(batch, routes[i].get_or_init(|| route(batch))),
                    batches => ExchangeChild::Parted(batches),
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
            let (stem_node, hops, cores) =
                self.place(group.iter().map(|&i| nodes[i].node), root)?;
            let wire: u64 = group.iter().map(|&i| payloads[i]).sum();
            let start_ns = group.iter().map(|&i| nodes[i].start_ns).min().unwrap_or(0);
            let child_max = group.iter().map(|&i| nodes[i].end_ns).max().unwrap_or(0);
            let slowest = group.iter().map(|&i| nodes[i].tally.total()).max();
            let (parts, tally) = match kind {
                // The children's batches move into the concatenation.
                MergeKind::Rows => {
                    let children = group.iter().flat_map(|&i| {
                        let tally = nodes[i].tally;
                        let parts =
                            std::mem::replace(&mut nodes[i].parts, Parts::Split(Vec::new()));
                        parts.into_iter().map(move |batch| StemOutput {
                            batch,
                            is_agg_transport: false,
                            tally,
                        })
                    });
                    let merged = stem::merge_outputs(children.collect(), None, cost, hops)?;
                    (Parts::One(merged.batch), merged.tally)
                }
                MergeKind::Agg { parts, .. } => {
                    let folded: Vec<(RecordBatch, usize)> =
                        merged.by_ref().take(parts).collect::<Result<_>>()?;
                    let (batches, part_rows): (Vec<_>, Vec<_>) = folded.into_iter().unzip();
                    let tallies: Vec<TimeTally> = group.iter().map(|&i| nodes[i].tally).collect();
                    let own = cost.exchange_level(hops, wire, &part_rows, cores);
                    (
                        Parts::Split(batches),
                        TimeTally::join_parallel(&tallies).then(&own),
                    )
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
                ctx.spans.attr(span, "node", stem_node);
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

    /// Where a merger over children on `hosts` runs — on `root`, else on
    /// the lowest-id host — with its uplink's hops (the worst-placed
    /// child's) and its cores.
    fn place(
        &self,
        hosts: impl Iterator<Item = NodeId> + Clone,
        root: Option<NodeId>,
    ) -> Result<(NodeId, u32, u32)> {
        let stem = root
            .or_else(|| hosts.clone().min())
            .ok_or_else(|| FeisuError::Internal("empty merge group".into()))?;
        let hops = self.topology.uplink_hops(hosts, stem)?;
        Ok((stem, hops, self.topology.node(stem)?.cores))
    }

    /// Groups node indices by a topology attribute of their hosting node,
    /// preserving submission order: groups are ordered by first appearance,
    /// members keep their relative order, and oversized groups split at
    /// the stem fan-in.
    fn keyed_groups(
        &self,
        hosts: impl Iterator<Item = NodeId>,
        cap: usize,
        key: LevelKey,
    ) -> Result<Vec<Vec<usize>>> {
        let mut keyed: Vec<Vec<usize>> = Vec::new();
        let mut slot: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, host) in hosts.enumerate() {
            let s = *slot
                .entry(key(self.topology.node(host)?))
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
