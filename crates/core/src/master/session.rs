//! Client query sessions — the admission-side handle for concurrent
//! clients.
//!
//! A [`QuerySession`] binds one client (credential) to the shared
//! cluster and allocates that client's query ids deterministically:
//! session `s` issues ids `(s << 32) | seq` with `seq` counting from 0.
//! Under concurrent clients the *global* id generator would hand out ids
//! in whatever order threads happen to reach it; session-scoped ids are
//! a pure function of (session, submission index), which is what makes a
//! query's `QueryResult` — id, stats, times and EXPLAIN ANALYZE profile
//! included — bit-comparable between a serial and an N-thread run of the
//! same workload (DESIGN.md §12).
//!
//! Sessions are cheap, `Sync`, and borrow the cluster: create one per
//! client thread. All admission control (entry-guard capability checks,
//! quotas, the per-user concurrency cap and the `feisu.guard.*` metrics)
//! applies identically to session and sessionless queries.

use crate::engine::{FeisuCluster, QueryOptions, QueryResult};
use feisu_common::{QueryId, Result, UserId};
use feisu_storage::auth::Credential;
use std::sync::atomic::{AtomicU64, Ordering};

/// One client's handle onto the shared cluster.
pub struct QuerySession<'a> {
    cluster: &'a FeisuCluster,
    cred: Credential,
    session_id: u64,
    next_seq: AtomicU64,
}

impl FeisuCluster {
    /// Opens a query session for a logged-in client. Session ids are
    /// allocated in call order, so opening sessions deterministically
    /// (before spawning client threads) yields deterministic query ids.
    pub fn session(&self, cred: Credential) -> QuerySession<'_> {
        QuerySession {
            cluster: self,
            cred,
            session_id: self.session_ids.next_u64(),
            next_seq: AtomicU64::new(0),
        }
    }
}

impl QuerySession<'_> {
    /// The session's stable identifier (the high half of its query ids).
    pub fn id(&self) -> u64 {
        self.session_id
    }

    pub fn user(&self) -> UserId {
        self.cred.user
    }

    pub fn cred(&self) -> &Credential {
        &self.cred
    }

    /// Runs one SQL query with default options.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(sql, &QueryOptions::default())
    }

    /// Runs one SQL query with explicit partial-result options.
    pub fn query_with(&self, sql: &str, options: &QueryOptions) -> Result<QueryResult> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let query_id = QueryId((self.session_id << 32) | seq);
        self.cluster.run_query(sql, &self.cred, options, query_id)
    }

    /// The lowered physical plan for a statement (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.cluster.explain(sql, &self.cred)
    }

    /// Sets (`Some`) or clears (`None`, back to the configured default)
    /// *this* session's user per-node cache byte quota. Blocks admitted
    /// on behalf of the session's queries are attributed to its user; the
    /// quota caps those bytes per node. No-op when the cluster runs
    /// without a cache.
    pub fn set_cache_quota(&self, quota: Option<feisu_common::ByteSize>) {
        self.cluster.set_user_cache_quota(self.cred.user, quota);
    }
}
