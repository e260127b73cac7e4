//! `FeisuCluster` — the assembled system and its public API.
//!
//! One `FeisuCluster` is a whole simulated deployment: topology, storage
//! domains behind the common storage layer, the master services, and one
//! leaf server (with its SmartIndex cache) per node. Queries run through
//! the paper's pipeline (Fig. 3): client checks → entry guard → job
//! manager (with identical-task reuse) → cost-based planning → dissection
//! into per-block scan tasks → locality-aware scheduling → leaf execution
//! with SmartIndex rewrite → bottom-up merging through stem servers →
//! master finalization. All timing is simulated and deterministic.

use crate::catalog::Catalog;
use crate::client;
use crate::event_log::{QueryEvent, QueryLog, QueryOutcome};
use crate::leaf::{LeafServer, LeafTaskStats};
use crate::master::assembly::QueryMetrics;
use crate::master::guard::GuardLimits;
use crate::master::nodes::NodeTable;
use crate::master::{EntryGuard, JobManager};
use feisu_cluster::{CostModel, SimClock, Topology};
use feisu_common::config::FeisuConfig;
use feisu_common::hash::FxHashMap;
use feisu_common::ids::IdGen;
use feisu_common::{
    ByteSize, DomainId, FeisuError, NodeId, QueryId, Result, SimDuration, SimInstant, UserId,
};
use feisu_exec::batch::RecordBatch;
use feisu_format::{Column, Schema, Value};
use feisu_index::manager::IndexManager;
use feisu_obs::{MetricsRegistry, QueryProfile};
use feisu_storage::auth::{AuthService, Credential, Grant};
use feisu_storage::{Domain, StorageRouter, TieredCache};
use parking_lot::Mutex;
use std::sync::Arc;

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub datacenters: u32,
    pub racks_per_dc: u32,
    pub nodes_per_rack: u32,
    pub config: FeisuConfig,
    pub cost: CostModel,
    /// Disable to get the paper's "without SmartIndex" baseline.
    pub use_smartindex: bool,
    /// Identical-task result reuse in the job manager.
    pub task_reuse: bool,
    /// Rows per ingested block.
    pub rows_per_block: usize,
    /// Block-cache pin prefixes (the paper's §IV-B manual preferences,
    /// surviving as admission-filter overrides). Any pin implicitly
    /// enables the cache even when `config.cache.enabled` is false.
    pub cache_pins: Vec<String>,
    /// Entry-guard capability limits (quotas, statement size).
    pub guard: GuardLimits,
    pub seed: u64,
}

impl ClusterSpec {
    /// A 4-node single-DC cluster for examples and tests.
    pub fn small() -> ClusterSpec {
        ClusterSpec {
            datacenters: 1,
            racks_per_dc: 2,
            nodes_per_rack: 2,
            config: FeisuConfig::default(),
            cost: CostModel::default(),
            use_smartindex: true,
            task_reuse: true,
            rows_per_block: 4096,
            cache_pins: Vec::new(),
            guard: GuardLimits::default(),
            seed: 0xFE15,
        }
    }

    /// `n` nodes spread over two data centers (evaluation-scale shape).
    pub fn with_nodes(n: u32) -> ClusterSpec {
        let nodes_per_rack = 4u32;
        let racks = n.div_ceil(nodes_per_rack).max(2);
        ClusterSpec {
            datacenters: 2,
            racks_per_dc: racks.div_ceil(2),
            nodes_per_rack,
            ..ClusterSpec::small()
        }
    }

    pub fn node_count(&self) -> u32 {
        self.datacenters * self.racks_per_dc * self.nodes_per_rack
    }
}

/// Per-query execution options (§III-B: "user can optionally configure
/// the processed ratio of total data sets to avoid long-tail influence,
/// or directly limit the total elapse time").
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Fraction of tasks that must complete before returning (≤ 1.0).
    pub processed_ratio: f64,
    /// Hard response-time limit.
    pub time_limit: Option<SimDuration>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            processed_ratio: 1.0,
            time_limit: None,
        }
    }
}

/// Counters for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    pub tasks: usize,
    pub reused_tasks: usize,
    pub backup_tasks: usize,
    pub index_hits: usize,
    pub index_built: usize,
    /// Indices built fresh but rejected by the cache budget (each is also
    /// counted in `index_built`).
    pub index_rejected: usize,
    pub scanned_predicates: usize,
    /// Blocks skipped by footer zone maps before any column decode.
    pub blocks_skipped: usize,
    /// Blocks whose column chunks were actually decoded.
    pub blocks_scanned: usize,
    /// CNF clauses footer zone maps proved for every row of a block, so
    /// never read, built or evaluated (counted per task).
    pub proved_clauses: usize,
    pub bytes_read: ByteSize,
    /// Simulated result bytes shipped leaf→stem across all scans.
    pub wire_leaf_stem: ByteSize,
    /// Simulated result bytes shipped rack-stem→DC-stem (zero for row
    /// scans, which merge through one stem level).
    pub wire_rack_dc: ByteSize,
    /// Simulated result bytes shipped stem→master.
    pub wire_stem_master: ByteSize,
    pub memory_served_tasks: usize,
    /// Results too large for the read-data flow, dumped to global storage
    /// with only the location shipped (§V-C).
    pub spilled_results: usize,
    /// Fraction of tasks whose results made it into the answer.
    pub processed_ratio: f64,
}

impl QueryStats {
    /// Folds another stats record into this one. Counting fields add;
    /// `processed_ratio` combines weighted by each side's task count, so
    /// merging scans of different sizes averages correctly (a zero-task
    /// record leaves the ratio untouched).
    pub fn merge(&mut self, other: &QueryStats) {
        let (a, b) = (self.tasks as f64, other.tasks as f64);
        if a + b > 0.0 {
            self.processed_ratio = (self.processed_ratio * a + other.processed_ratio * b) / (a + b);
        }
        self.tasks += other.tasks;
        self.reused_tasks += other.reused_tasks;
        self.backup_tasks += other.backup_tasks;
        self.index_hits += other.index_hits;
        self.index_built += other.index_built;
        self.index_rejected += other.index_rejected;
        self.scanned_predicates += other.scanned_predicates;
        self.blocks_skipped += other.blocks_skipped;
        self.blocks_scanned += other.blocks_scanned;
        self.proved_clauses += other.proved_clauses;
        self.bytes_read += other.bytes_read;
        self.wire_leaf_stem += other.wire_leaf_stem;
        self.wire_rack_dc += other.wire_rack_dc;
        self.wire_stem_master += other.wire_stem_master;
        self.memory_served_tasks += other.memory_served_tasks;
        self.spilled_results += other.spilled_results;
    }

    /// Lifts one leaf task's accounting into query-level stats, ready to
    /// [`merge`](Self::merge) into the running totals.
    pub fn from_leaf(leaf: &LeafTaskStats) -> QueryStats {
        QueryStats {
            index_hits: leaf.index_hits,
            index_built: leaf.index_built,
            index_rejected: leaf.index_rejected,
            scanned_predicates: leaf.scanned_predicates,
            blocks_skipped: leaf.blocks_skipped,
            blocks_scanned: leaf.blocks_scanned,
            proved_clauses: leaf.proved_clauses,
            bytes_read: leaf.bytes_read,
            memory_served_tasks: leaf.served_from_memory as usize,
            ..QueryStats::default()
        }
    }
}

/// A finished query. `PartialEq` compares every field — id, rows,
/// simulated times, stats and the full profile tree — which is how the
/// concurrency suite asserts serial and N-thread runs are bit-identical.
#[derive(Debug, PartialEq)]
pub struct QueryResult {
    pub query_id: QueryId,
    pub batch: RecordBatch,
    pub response_time: SimDuration,
    pub stats: QueryStats,
    /// True when the answer covers only a fraction of the data (time
    /// limit hit with `processed_ratio` satisfied).
    pub partial: bool,
    /// `EXPLAIN ANALYZE`-style execution profile: summary counters plus
    /// the nested master→stem→leaf span tree.
    pub profile: QueryProfile,
}

impl QueryResult {
    /// The query's span tree as a `chrome://tracing` / Perfetto JSON
    /// array (one complete event per span, per-node thread rows).
    pub fn chrome_trace(&self) -> String {
        feisu_obs::chrome_trace(&self.profile)
    }
}

/// The assembled Feisu deployment.
///
/// The whole public surface is `&self`: a `FeisuCluster` is shared by
/// reference across client threads and admits/executes many queries at
/// once. Every piece of mutable state sits behind its own fine-grained
/// lock (see the lock map in DESIGN.md §12); there is no engine-wide
/// mutex, so leaf work from different queries genuinely overlaps.
///
/// Lock-order contract (acquire strictly in this order, release before
/// taking anything later in the list; **no lock is ever held across a
/// leaf-task execution**):
///
/// 1. `guard` user table (admission, entry/exit only)
/// 2. `jobs` task-reuse cache (short map ops)
/// 3. `catalog` tables (`RwLock`, read-mostly)
/// 4. `nodes` — the node table: heartbeats, failed and slow marks, slot
///    agreements (one short critical section per call; a leaf task's
///    slot is acquired and released around, never across,
///    `LeafServer::execute`)
/// 5. leaf-internal locks (`IndexManager`, block-cache shard locks —
///    per-node sharded, a probe only ever holds its own node's shard)
pub struct FeisuCluster {
    pub(crate) spec: ClusterSpec,
    pub(crate) clock: SimClock,
    pub(crate) topology: Arc<Topology>,
    pub(crate) router: Arc<StorageRouter>,
    pub(crate) auth: Arc<AuthService>,
    pub(crate) catalog: Catalog,
    pub(crate) leaves: FxHashMap<NodeId, LeafServer>,
    pub(crate) guard: EntryGuard,
    pub(crate) jobs: JobManager,
    /// The cluster manager's one record per worker, shared across *all*
    /// in-flight queries, so slot agreements hold under concurrent load.
    pub(crate) nodes: NodeTable,
    pub(crate) user_names: Mutex<FxHashMap<String, UserId>>,
    pub(crate) user_ids: IdGen,
    pub(crate) query_ids: IdGen,
    pub(crate) session_ids: IdGen,
    pub(crate) system_cred: Credential,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) qmetrics: QueryMetrics,
    /// Always-on bounded query event log: the one per-query record
    /// (backs `system.queries` and the `window` rows of `system.metrics`).
    pub(crate) query_log: QueryLog,
}

const SYSTEM_USER: UserId = UserId(0);

impl FeisuCluster {
    /// Builds a deployment: topology, the four storage domains, auth,
    /// SSD cache, leaf servers.
    pub fn new(spec: ClusterSpec) -> Result<FeisuCluster> {
        spec.config.validate().map_err(FeisuError::Config)?;
        let clock = SimClock::new();
        let metrics = Arc::new(MetricsRegistry::new());
        let topology = Arc::new(Topology::grid(
            spec.datacenters,
            spec.racks_per_dc,
            spec.nodes_per_rack,
        ));
        let cost = spec.cost.clone();
        let replication = spec.config.replication_factor;
        let domains = vec![
            Domain::local_fs(DomainId(0), "local", topology.clone()),
            Domain::hdfs(
                DomainId(1),
                "hdfs",
                topology.clone(),
                replication,
                spec.seed ^ 0x11,
            ),
            Domain::fatman(
                DomainId(2),
                "ffs",
                topology.clone(),
                replication,
                spec.seed ^ 0x22,
            ),
            Domain::kv(DomainId(3), "kv", topology.clone()),
        ];
        let auth = Arc::new(AuthService::new(spec.seed ^ 0xA0A0));
        auth.register(SYSTEM_USER);
        for d in 0..4u64 {
            auth.grant(SYSTEM_USER, DomainId(d), Grant::ReadWrite);
        }
        let system_cred =
            auth.issue(SYSTEM_USER, clock.now(), SimDuration::hours(24 * 365 * 10))?;
        // The cache hierarchy: explicitly enabled via config, or
        // implicitly by configuring pin prefixes.
        let cache_enabled = spec.config.cache.enabled || !spec.cache_pins.is_empty();
        let cache = cache_enabled.then(|| {
            Arc::new(TieredCache::new(
                spec.config.cache.clone(),
                spec.cache_pins.clone(),
            ))
        });
        let router = Arc::new(StorageRouter::new(domains, 0, auth.clone(), cache));
        // Per-domain read/write counters plus the block-cache counters.
        router.attach_metrics(&metrics);
        let mut leaves = FxHashMap::default();
        for n in topology.nodes() {
            let index = IndexManager::new(spec.config.index_memory_per_leaf, spec.config.index_ttl);
            // Every leaf feeds the same registry: the feisu.index.* counters
            // are cluster-wide totals.
            index.attach_metrics(&metrics);
            leaves.insert(n.id, LeafServer::new(n.id, index, cost.clone()));
        }
        // Four task slots per core.
        let nodes = NodeTable::new(
            topology.nodes().iter().map(|n| (n.id, n.cores * 4)),
            clock.now(),
            &metrics,
        );
        let guard = EntryGuard::new(spec.guard.clone(), &metrics);
        let jobs = JobManager::new(
            SimDuration::minutes(10),
            if spec.task_reuse { 4096 } else { 0 },
        );
        let user_ids = IdGen::new();
        user_ids.next_u64(); // reserve 0 for the system user
        let session_ids = IdGen::new();
        session_ids.next_u64(); // session ids start at 1 (0 = no session)
        let qmetrics = QueryMetrics::new(&metrics);
        let query_log = QueryLog::new(spec.config.query_log_capacity);
        Ok(FeisuCluster {
            spec,
            clock,
            topology,
            router,
            auth,
            catalog: Catalog::new(),
            leaves,
            guard,
            jobs,
            nodes,
            user_names: Mutex::new(FxHashMap::default()),
            user_ids,
            query_ids: IdGen::new(),
            session_ids,
            system_cred,
            metrics,
            qmetrics,
            query_log,
        })
    }

    // ------------------------------------------------------------ admin

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Advances the simulated clock (inter-query idle time, TTL tests).
    pub fn advance_time(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    pub fn register_user(&self, name: &str) -> UserId {
        let mut names = self.user_names.lock();
        if let Some(&id) = names.get(name) {
            return id;
        }
        let id = UserId(self.user_ids.next_u64());
        self.auth.register(id);
        names.insert(name.to_string(), id);
        id
    }

    /// Grants ReadWrite on every storage domain.
    pub fn grant_all(&self, user: UserId) {
        for d in self.router.domains() {
            self.auth.grant(user, d.id(), Grant::ReadWrite);
        }
    }

    /// Grants on one domain by prefix (`"hdfs"`, `"local"`, …).
    pub fn grant(&self, user: UserId, domain_prefix: &str, level: Grant) -> Result<()> {
        for d in self.router.domains() {
            if d.prefix() == domain_prefix {
                self.auth.grant(user, d.id(), level);
                return Ok(());
            }
        }
        Err(FeisuError::UnknownDomain(domain_prefix.to_string()))
    }

    /// Issues an 8-hour SSO credential.
    pub fn login(&self, user: UserId) -> Result<Credential> {
        self.auth
            .issue(user, self.clock.now(), SimDuration::hours(8))
    }

    pub fn auth(&self) -> &Arc<AuthService> {
        &self.auth
    }

    pub fn router(&self) -> &Arc<StorageRouter> {
        &self.router
    }

    /// The block cache, when one is configured.
    pub fn cache(&self) -> Option<&Arc<TieredCache>> {
        self.router.cache()
    }

    /// Sets (`Some`) or clears (`None`, back to unlimited) a user's
    /// per-node cache byte quota. No-op without a cache.
    pub fn set_user_cache_quota(&self, user: UserId, quota: Option<feisu_common::ByteSize>) {
        if let Some(cache) = self.router.cache() {
            cache.set_user_quota(user, quota);
        }
    }

    /// The cluster-wide metrics registry (every subsystem feeds it).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The always-on query event log (also queryable via
    /// `SELECT ... FROM system.queries`).
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The user's most frequent simple predicates over the last `window`,
    /// derived from the query event log (so it reaches back at most
    /// `query_log_capacity` statements).
    pub fn frequent_predicates(
        &self,
        user: UserId,
        window: SimDuration,
        top_n: usize,
    ) -> Vec<(feisu_sql::cnf::SimplePredicate, usize)> {
        client::frequent_predicates(
            &self.query_log.snapshot(),
            user,
            self.clock.now(),
            window,
            top_n,
        )
    }

    pub fn jobs(&self) -> &JobManager {
        &self.jobs
    }

    /// The admission guard (inflight/quota introspection).
    pub fn guard(&self) -> &EntryGuard {
        &self.guard
    }

    /// Kills a node: heartbeats stop, its replicas become unavailable.
    /// Safe to call while queries run on other threads — in-flight tasks
    /// on the node fail retryably and reroute as backup tasks.
    pub fn fail_node(&self, node: NodeId) {
        self.nodes.fail(node);
        self.router.set_node_available(node, false);
    }

    /// Brings a node back (its slow factor stays).
    pub fn recover_node(&self, node: NodeId) {
        self.nodes.recover(node);
        self.router.set_node_available(node, true);
    }

    /// Marks a node as a straggler: its task times are multiplied.
    pub fn slow_node(&self, node: NodeId, factor: f64) {
        self.nodes.slow(node, factor);
    }

    /// Reports business-critical load on a node (§V-A resource
    /// agreement): Feisu's usable task slots shrink accordingly, and the
    /// count of Feisu tasks that must be preempted is returned.
    pub fn set_business_load(&self, node: NodeId, slots: u32) -> u32 {
        self.nodes.set_business_load(node, slots)
    }

    /// Slots Feisu may currently use on a node under its agreement.
    pub fn feisu_slot_limit(&self, node: NodeId) -> u32 {
        self.nodes.slot_limit(node)
    }

    /// Per-node SmartIndex statistics (summed).
    pub fn index_stats(&self) -> feisu_index::IndexStats {
        let mut total = feisu_index::IndexStats::default();
        for leaf in self.leaves.values() {
            let s = leaf.index().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.inserts += s.inserts;
            total.rejected += s.rejected;
            total.lru_evictions += s.lru_evictions;
            total.ttl_evictions += s.ttl_evictions;
        }
        total
    }

    pub fn reset_index_stats(&self) {
        for leaf in self.leaves.values() {
            leaf.index().reset_stats();
        }
    }

    // ------------------------------------------------------------ tables

    /// Registers a table stored under `location`; requires write grant on
    /// the location's domain.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        location: &str,
        cred: &Credential,
    ) -> Result<()> {
        self.router.validate_path(location)?;
        let domain = self.router.domain_of(location);
        self.auth
            .authorize(cred, domain.id(), Grant::ReadWrite, self.clock.now())?;
        self.catalog
            .create_table(name, schema, location, self.spec.rows_per_block)
    }

    /// Ingests whole columns.
    pub fn ingest_columns(
        &self,
        table: &str,
        columns: Vec<Column>,
        cred: &Credential,
    ) -> Result<usize> {
        let ids =
            self.catalog
                .ingest(table, columns, &self.router, cred, None, self.clock.now())?;
        Ok(ids.len())
    }

    /// Ingests rows (convenience).
    pub fn ingest_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        cred: &Credential,
    ) -> Result<usize> {
        let ids =
            self.catalog
                .ingest_rows(table, rows, &self.router, cred, None, self.clock.now())?;
        Ok(ids.len())
    }

    /// Ingests rows pinned to one node (log data on its producer).
    pub fn ingest_rows_at(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        node: NodeId,
        cred: &Credential,
    ) -> Result<usize> {
        let ids = self.catalog.ingest_rows(
            table,
            rows,
            &self.router,
            cred,
            Some(node),
            self.clock.now(),
        )?;
        Ok(ids.len())
    }

    // ------------------------------------------------------------ query

    /// Returns the lowered physical plan for a statement without
    /// executing it (EXPLAIN): the same operator tree the pipeline will
    /// interpret, with aggregation-pushdown annotations on distributed
    /// scans.
    pub fn explain(&self, sql: &str, cred: &Credential) -> Result<String> {
        use std::fmt::Write as _;
        let query = client::syntax_check(sql)?;
        let (physical, rule_trace, lowered) =
            self.plan_statement(&query, cred, self.clock.now())?;
        let mut out = physical.display_indent();
        // Trailer: which rules rewrote the plan, what each join-order
        // search decided and which aggregates were split around a join, so
        // EXPLAIN shows the optimizer's work without executing anything.
        // Costs are omitted to keep goldens stable.
        for fire in &rule_trace {
            let _ = writeln!(out, "Rule: {} x{}", fire.rule, fire.fires);
        }
        for jo in &lowered.join_orders {
            let _ = writeln!(
                out,
                "JoinOrder: {} [{}] -> [{}]",
                jo.method,
                jo.syntactic.join(", "),
                jo.chosen.join(", ")
            );
        }
        for eager in &lowered.eager_aggs {
            let _ = writeln!(out, "EagerAggregate: {eager}");
        }
        Ok(out)
    }

    /// Ingests nested JSON documents (paper §III-A: "nested data format
    /// such as json … will be flatten into columns"). The table is
    /// created on first ingest with the union schema of the batch; later
    /// batches must carry the same flattened schema.
    pub fn ingest_json(
        &self,
        table: &str,
        location: &str,
        documents: &[&str],
        cred: &Credential,
    ) -> Result<usize> {
        let parsed: Vec<feisu_format::json::Json> = documents
            .iter()
            .map(|d| feisu_format::json::parse(d))
            .collect::<Result<_>>()?;
        let (schema, columns) = feisu_format::json::documents_to_columns(&parsed)?;
        if self.catalog.schema(table).is_none() {
            self.create_table(table, schema.clone(), location, cred)?;
        } else {
            let existing = self.catalog.schema(table).expect("checked");
            if existing != schema {
                return Err(FeisuError::Analysis(format!(
                    "json batch schema does not match table `{table}`"
                )));
            }
        }
        let ids =
            self.catalog
                .ingest(table, columns, &self.router, cred, None, self.clock.now())?;
        Ok(ids.len())
    }

    /// Runs one SQL query with default options. `&self`: any number of
    /// client threads may query one shared cluster concurrently.
    pub fn query(&self, sql: &str, cred: &Credential) -> Result<QueryResult> {
        self.query_with(sql, cred, &QueryOptions::default())
    }

    /// Runs one SQL query with explicit partial-result options.
    pub fn query_with(
        &self,
        sql: &str,
        cred: &Credential,
        options: &QueryOptions,
    ) -> Result<QueryResult> {
        // Sessionless queries draw from the cluster-wide id generator;
        // use a [`crate::master::QuerySession`] when interleaving-stable
        // query ids matter (concurrent determinism comparisons).
        let query_id = QueryId(self.query_ids.next_u64());
        self.run_query(sql, cred, options, query_id)
    }

    /// The shared admission + execution path behind both the sessionless
    /// API and [`crate::master::QuerySession`].
    pub(crate) fn run_query(
        &self,
        sql: &str,
        cred: &Credential,
        options: &QueryOptions,
        query_id: QueryId,
    ) -> Result<QueryResult> {
        // Admission snapshot: the query's *entire* simulated outcome is
        // computed relative to this instant (the query-local view of
        // simulated time; DESIGN.md §12), never from the live clock.
        let now = self.clock.now();
        self.qmetrics.queries.inc();

        // A query that returns logs itself in `assemble_result`; every
        // other outcome is logged once, after this block.
        let (outcome, err) = 'run: {
            // Client layer: syntax check. Syntax failures are not counted
            // in `feisu.query.errors`, which counts failures of well-formed
            // statements.
            let query = match client::syntax_check(sql) {
                Ok(q) => q,
                Err(e) => break 'run (QueryOutcome::Failed(e.to_string()), e),
            };
            // Entry guard: capability protection + quotas. The permit is
            // RAII — errors (or panics) below release the concurrency slot.
            let table_count = query.all_tables().count();
            let _permit = match self.guard.admit(cred.user, sql, table_count, now) {
                Ok(p) => p,
                Err(e) => break 'run (QueryOutcome::Rejected(e.to_string()), e),
            };
            match self.run_admitted(sql, &query, cred, options, now, query_id) {
                Ok(result) => return Ok(result),
                Err(e) => {
                    self.qmetrics.errors.inc();
                    (QueryOutcome::Failed(e.to_string()), e)
                }
            }
        };
        self.query_log.push(QueryEvent::terminal(
            query_id.0,
            cred.user.to_string(),
            sql.to_string(),
            outcome,
            now.as_nanos(),
        ));
        Err(err)
    }

    // --------------------------------------------------- personalization

    /// Pre-builds *pinned* private indices for a user's most frequent
    /// predicates (client-side history, §III-C) on every replica holder.
    pub fn personalize(&self, user: UserId, top_n: usize) -> Result<usize> {
        let now = self.clock.now();
        let frequent = self.frequent_predicates(user, SimDuration::hours(24), top_n);
        let mut built = 0usize;
        for (pred, _) in frequent {
            // Find tables whose schema carries the predicate column.
            for table in self.catalog.table_names() {
                let Some(schema) = self.catalog.schema(&table) else {
                    continue;
                };
                let storage_col = feisu_exec::physical::storage_name(&schema, &pred.column);
                if schema.index_of(storage_col).is_none() {
                    continue;
                }
                let desc = self.catalog.table(&table)?;
                let storage_pred = feisu_sql::cnf::SimplePredicate {
                    column: storage_col.to_string(),
                    op: pred.op,
                    value: pred.value.clone(),
                };
                for block in desc.blocks() {
                    let replicas = self.router.replicas(&block.path)?;
                    let read =
                        self.router
                            .read(&block.path, replicas[0], &self.system_cred, now)?;
                    // Index building touches one column; skip decoding the
                    // rest of the block.
                    let parsed =
                        feisu_format::Block::deserialize_columns(&read.data, &[storage_col])?;
                    for node in replicas {
                        if let Some(leaf) = self.leaves.get(&node) {
                            leaf.pin_index(&parsed, &storage_pred, now)?;
                            built += 1;
                        }
                    }
                }
            }
        }
        Ok(built)
    }

    /// Access to a node's leaf server (tests and benches).
    pub fn leaf(&self, node: NodeId) -> Option<&LeafServer> {
        self.leaves.get(&node)
    }
}
