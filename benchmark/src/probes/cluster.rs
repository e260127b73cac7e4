//! `feisu-cluster`: where the simulated clock says the time went — self
//! time by span name over one query's profile tree.

use super::obs::flatten;
use crate::spans::self_times;
use feisu_obs::QueryProfile;

/// Simulated self time of one statement, in nanoseconds, plus its span
/// count. Leaf tasks on different nodes overlap, so `leaf_task` can
/// exceed the response time; the other buckets are critical-path time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimSelf {
    pub leaf_task: u64,
    pub stem: u64,
    pub scan: u64,
    pub operator: u64,
    pub master: u64,
    pub spans: usize,
}

pub fn sim_self(profile: &QueryProfile) -> SimSelf {
    let spans = flatten(profile);
    let mut out = SimSelf {
        spans: spans.len(),
        ..SimSelf::default()
    };
    for (span, own) in spans.iter().zip(self_times(&spans)) {
        *match span.name {
            "leaf_task" => &mut out.leaf_task,
            "stem" => &mut out.stem,
            "DistributedScan" => &mut out.scan,
            "master" => &mut out.master,
            _ => &mut out.operator,
        } += own;
    }
    out
}
