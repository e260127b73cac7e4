//! `feisu-obs`: the profile span tree every `QueryResult` carries.

use crate::spans::Span;
use feisu_obs::{QueryProfile, SpanNode};

/// Operator names are static in the engine; anything else is infrastructure.
fn static_name(name: &str) -> &'static str {
    const KNOWN: [&str; 12] = [
        "master",
        "stem",
        "leaf_task",
        "DistributedScan",
        "FinalAggregate",
        "HashAggregate",
        "Filter",
        "Project",
        "HashJoin",
        "Sort",
        "Limit",
        "Empty",
    ];
    KNOWN.into_iter().find(|k| *k == name).unwrap_or("other")
}

/// Flattens the simulated-time tree into the harness's span form, so the
/// same self-time rule applies on both clocks.
pub fn flatten(profile: &QueryProfile) -> Vec<Span> {
    fn walk(node: &SpanNode, parent: Option<usize>, out: &mut Vec<Span>) {
        out.push(Span {
            name: static_name(&node.name),
            start_ns: node.start.as_nanos(),
            end_ns: node.end.as_nanos(),
            parent,
            stmt: 0,
            work: 0,
        });
        let id = out.len() - 1;
        for child in &node.children {
            walk(child, Some(id), out);
        }
    }
    let mut out = Vec::new();
    for root in &profile.tree.roots {
        walk(root, None, &mut out);
    }
    out
}
