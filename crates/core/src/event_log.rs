//! Always-on query event log: a bounded ring buffer holding one
//! structured record per query the cluster saw — completed, partial,
//! failed, *and* rejected at admission.
//!
//! The log is the one per-query record. `system.queries` renders it,
//! `system.metrics` folds its 60 s windows from it, and the client layer
//! derives per-user history from it. A record carries the query's
//! [`QueryStats`] by value plus what only the master knows at completion
//! (outcome, instants, result size, top operators). It is bounded by
//! construction (`query_log_capacity` in `FeisuConfig`): pushing into a
//! full log evicts the oldest record, so the memory footprint is fixed
//! no matter how long the cluster runs.
//!
//! Everything here runs on simulated time and carries only values that
//! are themselves deterministic, so the *set* of records produced by a
//! race-free workload is identical whether clients ran serially or
//! concurrently (order may differ; see the e2e equivalence test).

use crate::engine::QueryStats;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// How a query left the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Ran to completion over all of its data.
    Completed,
    /// Returned under a time limit with only a fraction of tasks kept.
    Partial,
    /// Admitted but failed during analysis/planning/execution.
    Failed(String),
    /// Turned away by the entry guard (quota, statement size, load).
    Rejected(String),
}

impl QueryOutcome {
    /// Short label, the `outcome` column of `system.queries`.
    pub fn label(&self) -> &'static str {
        match self {
            QueryOutcome::Completed => "completed",
            QueryOutcome::Partial => "partial",
            QueryOutcome::Failed(_) => "failed",
            QueryOutcome::Rejected(_) => "rejected",
        }
    }

    /// The error message for failed/rejected outcomes.
    pub fn error(&self) -> Option<&str> {
        match self {
            QueryOutcome::Failed(e) | QueryOutcome::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

/// One structured record per query. All times are simulated
/// nanoseconds; byte fields count simulated payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEvent {
    pub query_id: u64,
    /// Display form of the issuing user (`user-N`).
    pub user: String,
    pub sql: String,
    pub outcome: QueryOutcome,
    /// Admission instant on the simulated timeline (the query-local
    /// `now` every simulated duration is measured from).
    pub admitted_ns: u64,
    /// Simulated end-to-end response time.
    pub response_ns: u64,
    pub rows_returned: u64,
    /// Footprint of the final result batch.
    pub bytes_returned: u64,
    /// Leaf tasks whose block came from the node's block cache, either
    /// tier (memory or SSD).
    pub cache_hit_tasks: u64,
    /// Top-k operators by self time, e.g. `DistributedScan=1.2ms`.
    pub top_operators: String,
    /// The counters the query's `QueryResult` carries; all zero for a
    /// query that never executed.
    pub stats: QueryStats,
}

impl QueryEvent {
    /// A terminal record (rejected / failed before execution): every
    /// execution-side counter is zero.
    pub fn terminal(
        query_id: u64,
        user: String,
        sql: String,
        outcome: QueryOutcome,
        admitted_ns: u64,
    ) -> QueryEvent {
        QueryEvent {
            query_id,
            user,
            sql,
            outcome,
            admitted_ns,
            response_ns: 0,
            rows_returned: 0,
            bytes_returned: 0,
            cache_hit_tasks: 0,
            top_operators: String::new(),
            stats: QueryStats::default(),
        }
    }
}

/// Bounded ring buffer of [`QueryEvent`]s (oldest evicted first).
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    events: Mutex<VecDeque<QueryEvent>>,
}

impl QueryLog {
    /// A log holding at most `capacity` records (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> QueryLog {
        assert!(capacity >= 1, "query log capacity must be >= 1");
        QueryLog {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, event: QueryEvent) {
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// All retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryEvent> {
        self.events.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> QueryEvent {
        QueryEvent::terminal(
            id,
            "user-1".to_string(),
            format!("SELECT {id}"),
            QueryOutcome::Completed,
            id * 10,
        )
    }

    #[test]
    fn log_is_bounded_and_evicts_oldest() {
        let log = QueryLog::new(3);
        for i in 0..10 {
            log.push(ev(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.capacity(), 3);
        let ids: Vec<u64> = log.snapshot().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![7, 8, 9], "oldest records evicted first");
    }

    #[test]
    fn snapshot_preserves_insertion_order() {
        let log = QueryLog::new(16);
        for i in [3u64, 1, 2] {
            log.push(ev(i));
        }
        let ids: Vec<u64> = log.snapshot().iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn outcome_labels_and_errors() {
        assert_eq!(QueryOutcome::Completed.label(), "completed");
        assert_eq!(QueryOutcome::Partial.label(), "partial");
        let failed = QueryOutcome::Failed("boom".into());
        assert_eq!(failed.label(), "failed");
        assert_eq!(failed.error(), Some("boom"));
        let rejected = QueryOutcome::Rejected("quota".into());
        assert_eq!(rejected.label(), "rejected");
        assert_eq!(rejected.error(), Some("quota"));
        assert_eq!(QueryOutcome::Completed.error(), None);
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let log = QueryLog::new(8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..100 {
                        log.push(ev(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(log.len(), 8);
    }
}
