//! The job manager (paper §III-C).
//!
//! "Job manager maintains the running information of user query jobs…
//! Before the new job is put into a candidate job queue, job manager
//! tries to reuse other running job's task result if tasks are
//! identical." Identical = same block, same predicate CNF, same
//! projection, same aggregation stage — captured in a task signature.
//! The result cache holds recent task outputs for a short window (the
//! overlap window of concurrently running / back-to-back jobs).
//!
//! The per-query record itself (who ran what and how it ended) is the
//! query event log's `QueryEvent`.

use feisu_common::lru::Lru;
use feisu_common::{BlockId, SimDuration, SimInstant};
use feisu_exec::batch::RecordBatch;
use parking_lot::Mutex;
use std::fmt::Write as _;

/// A cached task result.
#[derive(Debug, Clone)]
struct CachedResult {
    batch: RecordBatch,
    is_agg_transport: bool,
    stored_at: SimInstant,
}

/// The job manager: the identical-task result cache.
pub struct JobManager {
    cache: Mutex<TaskResultCache>,
}

/// Results by signature, oldest store first: a lookup does not reorder
/// them, so the capacity bound evicts first-in-first-out by latest store.
struct TaskResultCache {
    ttl: SimDuration,
    capacity: usize,
    entries: Lru<String, CachedResult>,
    hits: u64,
    misses: u64,
}

impl JobManager {
    /// `reuse_ttl` bounds how stale a reused task result may be;
    /// `reuse_capacity` bounds cache entries (0 disables reuse).
    pub fn new(reuse_ttl: SimDuration, reuse_capacity: usize) -> Self {
        JobManager {
            cache: Mutex::new(TaskResultCache {
                ttl: reuse_ttl,
                capacity: reuse_capacity,
                entries: Lru::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Tries to reuse a previous identical task's result. An expired
    /// result is dropped.
    pub fn lookup_task(&self, signature: &str, now: SimInstant) -> Option<(RecordBatch, bool)> {
        let mut cache = self.cache.lock();
        let ttl = cache.ttl;
        let hit = (cache.entries.peek(signature))
            .filter(|c| now.since(c.stored_at) <= ttl)
            .map(|c| (c.batch.clone(), c.is_agg_transport));
        if hit.is_some() {
            cache.hits += 1;
        } else {
            cache.entries.remove(signature);
            cache.misses += 1;
        }
        hit
    }

    /// Stores a finished task's result for reuse by identical tasks. A
    /// re-stored signature replaces its old copy and counts as the newest.
    ///
    /// Duplicate in-flight signatures: under the parallel executor all
    /// stores for one scan are applied during the serial merge phase, in
    /// task submission order, so a signature stored twice resolves
    /// last-writer-wins — exactly what serial execution would produce.
    /// (Within a single scan signatures are distinct anyway: each task
    /// covers its own block and the block id is part of the signature.)
    pub fn store_task(
        &self,
        signature: String,
        batch: RecordBatch,
        is_agg_transport: bool,
        now: SimInstant,
    ) {
        let mut cache = self.cache.lock();
        if cache.capacity == 0 {
            return;
        }
        cache.entries.remove(&signature);
        while cache.entries.len() >= cache.capacity {
            cache.entries.pop_lru();
        }
        let result = CachedResult {
            batch,
            is_agg_transport,
            stored_at: now,
        };
        cache.entries.insert(signature, result, 1);
    }

    /// (hits, misses) of the reuse cache.
    pub fn reuse_stats(&self) -> (u64, u64) {
        let c = self.cache.lock();
        (c.hits, c.misses)
    }
}

/// The part of a task's signature that every task of its scan shares:
/// the table, the clauses, the projection and the shape. A task's
/// signature is this followed by its block ([`block_signature`]).
pub(crate) fn scan_signature(
    table: &str,
    cnf_display: &str,
    projection: &[String],
    agg_display: &str,
) -> String {
    let projection = projection.join(",");
    format!("{table}\u{1}{cnf_display}\u{1}{projection}\u{1}{agg_display}\u{1}")
}

/// One task's signature: its scan's, then its block.
pub(crate) fn block_signature(scan: &str, block: BlockId) -> String {
    let mut signature = String::with_capacity(scan.len() + 24);
    signature.push_str(scan);
    let _ = write!(signature, "{block}");
    signature
}

/// Builds the canonical signature for a scan task.
pub fn task_signature(
    table: &str,
    block: BlockId,
    cnf_display: &str,
    projection: &[String],
    agg_display: &str,
) -> String {
    let scan = scan_signature(table, cnf_display, projection, agg_display);
    block_signature(&scan, block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{Column, DataType, Field, Schema};

    fn batch() -> RecordBatch {
        RecordBatch::new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64(vec![1, 2, 3])],
        )
        .unwrap()
    }

    #[test]
    fn task_reuse_within_ttl() {
        let jm = JobManager::new(SimDuration::minutes(5), 16);
        let sig = task_signature("t", BlockId(1), "(c>1)", &["a".into()], "");
        assert!(jm.lookup_task(&sig, SimInstant(0)).is_none());
        jm.store_task(sig.clone(), batch(), false, SimInstant(0));
        let hit = jm.lookup_task(&sig, SimInstant(0)).unwrap();
        assert_eq!(hit.0.rows(), 3);
        // Expired after TTL.
        let late = SimInstant::EPOCH + SimDuration::minutes(6);
        assert!(jm.lookup_task(&sig, late).is_none());
        assert_eq!(jm.reuse_stats(), (1, 2));
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let a = task_signature("t", BlockId(1), "(c>1)", &["a".into()], "");
        let b = task_signature("t", BlockId(2), "(c>1)", &["a".into()], "");
        let c = task_signature("t", BlockId(1), "(c>2)", &["a".into()], "");
        let d = task_signature("t", BlockId(1), "(c>1)", &["b".into()], "");
        let set: std::collections::HashSet<_> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let jm = JobManager::new(SimDuration::hours(1), 2);
        for i in 0..3u64 {
            jm.store_task(format!("sig{i}"), batch(), false, SimInstant(0));
        }
        assert!(jm.lookup_task("sig0", SimInstant(0)).is_none());
        assert!(jm.lookup_task("sig2", SimInstant(0)).is_some());
    }

    #[test]
    fn a_restored_signature_outlives_the_entries_stored_before_it() {
        let ttl = SimDuration::minutes(10);
        let jm = JobManager::new(ttl, 2);
        let at = |d: SimDuration| SimInstant::EPOCH + d;
        jm.store_task("a".into(), batch(), false, at(SimDuration::ZERO));
        jm.store_task("b".into(), batch(), false, at(SimDuration::minutes(5)));
        // `a` expires and is dropped; `b` is still fresh.
        assert!(jm.lookup_task("a", at(SimDuration::minutes(11))).is_none());
        jm.store_task("a".into(), batch(), false, at(SimDuration::minutes(11)));
        // At capacity, the oldest store goes: `b`, not the re-stored `a`.
        jm.store_task("c".into(), batch(), false, at(SimDuration::minutes(12)));
        assert!(jm.lookup_task("a", at(SimDuration::minutes(12))).is_some());
        assert!(jm.lookup_task("b", at(SimDuration::minutes(12))).is_none());
        assert!(jm.lookup_task("c", at(SimDuration::minutes(12))).is_some());
    }

    #[test]
    fn zero_capacity_disables_reuse() {
        let jm = JobManager::new(SimDuration::hours(1), 0);
        jm.store_task("sig".into(), batch(), false, SimInstant(0));
        assert!(jm.lookup_task("sig", SimInstant(0)).is_none());
    }
}
