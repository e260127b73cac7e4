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
use std::sync::Arc;

/// A cached task result: the task's own batch, shared.
#[derive(Debug, Clone)]
struct CachedResult {
    batch: RecordBatch,
    is_agg_transport: bool,
    stored_at: SimInstant,
}

/// A task's signature as the cache keys it: its scan's signature
/// ([`scan_signature`]), shared by every task of the scan, and its block —
/// or, for a whole signature string, no block and the string. Keys are
/// exact strings: no two signatures differ and meet.
type TaskKey = (Option<BlockId>, Arc<str>);

/// The job manager: the identical-task result cache.
pub struct JobManager {
    cache: Mutex<TaskResultCache>,
}

/// Results by signature, oldest store first: a lookup does not reorder
/// them, so the capacity bound evicts first-in-first-out by latest store.
struct TaskResultCache {
    ttl: SimDuration,
    capacity: usize,
    entries: Lru<TaskKey, CachedResult>,
    hits: u64,
    misses: u64,
}

impl TaskResultCache {
    /// A live result under `key`; an expired one is dropped.
    fn lookup(&mut self, key: &TaskKey, now: SimInstant) -> Option<(RecordBatch, bool)> {
        let ttl = self.ttl;
        let hit = (self.entries.peek(key))
            .filter(|c| now.since(c.stored_at) <= ttl)
            .map(|c| (c.batch.clone(), c.is_agg_transport));
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.entries.remove(key);
            self.misses += 1;
        }
        hit
    }

    /// Stores results; a re-stored key replaces its old copy and counts as
    /// the newest.
    fn store(
        &mut self,
        results: impl IntoIterator<Item = (TaskKey, RecordBatch, bool)>,
        now: SimInstant,
    ) {
        if self.capacity == 0 {
            return;
        }
        for (key, batch, is_agg_transport) in results {
            self.entries.remove(&key);
            while self.entries.len() >= self.capacity {
                self.entries.pop_lru();
            }
            let result = CachedResult {
                batch,
                is_agg_transport,
                stored_at: now,
            };
            self.entries.insert(key, result, 1);
        }
    }
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
        self.cache.lock().lookup(&(None, signature.into()), now)
    }

    /// Each block's reusable result for one scan whose signature is `scan`
    /// ([`scan_signature`]), looked up in order under one lock.
    pub(crate) fn lookup_scan(
        &self,
        scan: &Arc<str>,
        blocks: impl IntoIterator<Item = BlockId>,
        now: SimInstant,
    ) -> Vec<Option<RecordBatch>> {
        let mut cache = self.cache.lock();
        let mut lookup = |block| cache.lookup(&(Some(block), scan.clone()), now);
        blocks
            .into_iter()
            .map(|block| lookup(block).map(|(batch, _)| batch))
            .collect()
    }

    /// Stores a finished task's result for reuse by identical tasks. A
    /// re-stored signature replaces its old copy and counts as the newest.
    pub fn store_task(
        &self,
        signature: String,
        batch: RecordBatch,
        is_agg_transport: bool,
        now: SimInstant,
    ) {
        (self.cache.lock()).store([((None, signature.into()), batch, is_agg_transport)], now);
    }

    /// Stores the results of one scan's executed tasks, by block, in order
    /// under one lock — a signature stored twice resolves last-writer-wins,
    /// as serial execution would. (Within one scan they are distinct
    /// anyway: each task covers its own block.)
    pub(crate) fn store_scan(
        &self,
        scan: &Arc<str>,
        results: impl IntoIterator<Item = (BlockId, RecordBatch, bool)>,
        now: SimInstant,
    ) {
        let keyed = (results.into_iter())
            .map(|(block, batch, is_agg)| ((Some(block), scan.clone()), batch, is_agg));
        self.cache.lock().store(keyed, now);
    }

    /// (hits, misses) of the reuse cache.
    pub fn reuse_stats(&self) -> (u64, u64) {
        let c = self.cache.lock();
        (c.hits, c.misses)
    }
}

/// The part of a task's signature that every task of its scan shares:
/// the table, the clauses, the projection and the shape. A task's
/// signature is this followed by its block ([`task_signature`]).
pub(crate) fn scan_signature(
    table: &str,
    cnf_display: &str,
    projection: &[String],
    agg_display: &str,
) -> String {
    let projection = projection.join(",");
    format!("{table}\u{1}{cnf_display}\u{1}{projection}\u{1}{agg_display}\u{1}")
}

/// Builds the canonical signature for a scan task: its scan's, then its
/// block.
pub fn task_signature(
    table: &str,
    block: BlockId,
    cnf_display: &str,
    projection: &[String],
    agg_display: &str,
) -> String {
    let scan = scan_signature(table, cnf_display, projection, agg_display);
    format!("{scan}{block}")
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
