//! The simulated clock.
//!
//! Every latency/throughput number Feisu reports is *simulated time*:
//! deterministic, hardware-independent, and advanced explicitly by the
//! component doing the (modeled) work. A single `SimClock` is shared by a
//! whole simulated cluster; per-task accounting uses local
//! [`TimeTally`] accumulators that are folded into critical-path maxima by
//! the execution tree, which is how a parallel cluster's elapsed time is
//! computed without real sleeping.

use feisu_common::{SimDuration, SimInstant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, monotonically advancing simulated wall clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.now_ns.load(Ordering::Relaxed))
    }

    /// Advances the wall clock by `d` and returns the new now.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        let new = self.now_ns.fetch_add(d.as_nanos(), Ordering::Relaxed) + d.as_nanos();
        SimInstant(new)
    }

    /// Moves the clock forward to at least `t` (no-op if already past it).
    /// Used when a query's critical path finishes at a known instant.
    pub fn advance_to(&self, t: SimInstant) {
        self.now_ns.fetch_max(t.as_nanos(), Ordering::Relaxed);
    }
}

/// Local accumulator for one task's simulated work, split by category so
/// experiments can report I/O vs CPU vs network breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeTally {
    pub io: SimDuration,
    pub cpu: SimDuration,
    pub network: SimDuration,
}

impl TimeTally {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn total(&self) -> SimDuration {
        self.io + self.cpu + self.network
    }

    pub fn add_io(&mut self, d: SimDuration) {
        self.io += d;
    }

    pub fn add_cpu(&mut self, d: SimDuration) {
        self.cpu += d;
    }

    pub fn add_network(&mut self, d: SimDuration) {
        self.network += d;
    }

    /// Merges a sequential phase: both tallies happened one after another.
    pub fn then(&self, next: &TimeTally) -> TimeTally {
        TimeTally {
            io: self.io + next.io,
            cpu: self.cpu + next.cpu,
            network: self.network + next.network,
        }
    }

    /// Merges parallel branches: the slowest branch (by total), returned
    /// as-is with its own io/cpu/network split; the other branches
    /// contribute nothing. This is the fold stem servers apply over their
    /// children.
    pub fn join_parallel(branches: &[TimeTally]) -> TimeTally {
        branches
            .iter()
            .copied()
            .max_by_key(|t| t.total())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimInstant(0));
        c.advance(SimDuration::millis(5));
        assert_eq!(c.now(), SimInstant(5_000_000));
        c.advance_to(SimInstant(1_000));
        // advance_to never goes backwards.
        assert_eq!(c.now(), SimInstant(5_000_000));
        c.advance_to(SimInstant(9_000_000));
        assert_eq!(c.now(), SimInstant(9_000_000));
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::secs(1));
        assert_eq!(b.now(), SimInstant(1_000_000_000));
    }

    #[test]
    fn tally_sequential_and_parallel() {
        let mut t1 = TimeTally::new();
        t1.add_io(SimDuration::millis(10));
        t1.add_cpu(SimDuration::millis(2));
        let mut t2 = TimeTally::new();
        t2.add_network(SimDuration::millis(5));

        let seq = t1.then(&t2);
        assert_eq!(seq.total(), SimDuration::millis(17));

        let par = TimeTally::join_parallel(&[t1, t2]);
        assert_eq!(par.total(), SimDuration::millis(12));
    }

    #[test]
    fn parallel_join_of_empty_is_zero() {
        assert_eq!(TimeTally::join_parallel(&[]).total(), SimDuration::ZERO);
    }
}
