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

use feisu_common::hash::FxHashMap;
use feisu_common::{SimDuration, SimInstant};
use feisu_exec::batch::RecordBatch;
use parking_lot::Mutex;
use std::collections::VecDeque;

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

struct TaskResultCache {
    ttl: SimDuration,
    capacity: usize,
    entries: FxHashMap<String, CachedResult>,
    order: VecDeque<String>,
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
                entries: FxHashMap::default(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Tries to reuse a previous identical task's result.
    pub fn lookup_task(&self, signature: &str, now: SimInstant) -> Option<(RecordBatch, bool)> {
        let mut cache = self.cache.lock();
        let fresh = match cache.entries.get(signature) {
            Some(c) => now.since(c.stored_at) <= cache.ttl,
            None => false,
        };
        if fresh {
            cache.hits += 1;
            let c = &cache.entries[signature];
            Some((c.batch.clone(), c.is_agg_transport))
        } else {
            cache.entries.remove(signature);
            cache.misses += 1;
            None
        }
    }

    /// Stores a finished task's result for reuse by identical tasks.
    ///
    /// Duplicate in-flight signatures: under the parallel executor all
    /// stores for one scan are applied during the serial merge phase, in
    /// task submission order, so a signature stored twice resolves
    /// last-writer-wins — exactly what serial execution would produce.
    /// (Within a single scan signatures are distinct anyway: each task
    /// covers its own block and the block id is part of the signature.)
    /// A re-store pushes a second order entry; eviction tolerates the
    /// stale one because popping a signature that is no longer cached is
    /// a no-op.
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
        while cache.entries.len() >= cache.capacity {
            match cache.order.pop_front() {
                Some(old) => {
                    cache.entries.remove(&old);
                }
                None => break,
            }
        }
        cache.order.push_back(signature.clone());
        cache.entries.insert(
            signature,
            CachedResult {
                batch,
                is_agg_transport,
                stored_at: now,
            },
        );
    }

    /// (hits, misses) of the reuse cache.
    pub fn reuse_stats(&self) -> (u64, u64) {
        let c = self.cache.lock();
        (c.hits, c.misses)
    }
}

/// Builds the canonical signature for a scan task.
pub fn task_signature(
    table: &str,
    block: feisu_common::BlockId,
    cnf_display: &str,
    projection: &[String],
    agg_display: &str,
) -> String {
    format!(
        "{table}\u{1}{block}\u{1}{cnf_display}\u{1}{}\u{1}{agg_display}",
        projection.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::BlockId;
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
    fn zero_capacity_disables_reuse() {
        let jm = JobManager::new(SimDuration::hours(1), 0);
        jm.store_task("sig".into(), batch(), false, SimInstant(0));
        assert!(jm.lookup_task("sig", SimInstant(0)).is_none());
    }
}
