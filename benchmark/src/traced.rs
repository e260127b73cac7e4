//! The traced pass of one workload: where the time of the first part of
//! the statements goes, layer by layer, on both clocks.
//!
//! Two fresh clusters, same seed, stepped together. On the first the
//! engine answers each statement untraced (`cluster.query`): that gives
//! the reference wall time, every counter, and the simulated-time
//! breakdown from each result's profile tree. On the second the shadow
//! pipeline then answers the same statement with a span around every
//! layer call. The shadow's answers must equal the engine's; what the
//! engine spends beyond the shadow is the master's unattributed share. No
//! end-to-end number comes from here.

use crate::check::same_answer;
use crate::metrics::{per_layer, Values};
use crate::probes::cluster::{sim_self, SimSelf};
use crate::run::{block_path, rewrite_block, run_clients, ClientRun, Limit, Observer};
use crate::setup::{build, Loaded};
use crate::shadow::Shadow;
use crate::spans::{self_times, to_json, Recorder, Span};
use crate::stats::{percentile, ratio, sorted};
use crate::workloads::{Plan, Step, FAMILIES};
use feisu_common::{FeisuError, Result, SimDuration};
use feisu_core::{QueryResult, QueryStats};
use feisu_exec::batch::RecordBatch;
use feisu_storage::auth::Credential;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Traced {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
    /// Statements whose shadow answer differed from the engine's.
    pub mismatches: Vec<String>,
    pub spans: usize,
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }
}

/// What the pass keeps of each query the engine answered.
struct Answered {
    stats: QueryStats,
    sim: SimDuration,
    sim_self: SimSelf,
}

/// One client's half of the pass. The engine answers a step on the first
/// cluster (timed by the untraced runner), then this observer drives the
/// same step through the shadow pipeline on the second cluster — step by
/// step, so that a slow minute on a shared machine slows both sides alike.
struct Lockstep<'a> {
    shadow: &'a Shadow<'a>,
    plan: &'a Plan,
    client: usize,
    cred: &'a Credential,
    stmt_base: usize,
    answered: Vec<Answered>,
    /// The engine's answer to the step in hand, until the shadow's own
    /// has been held against it.
    engine_answer: Option<RecordBatch>,
    /// Shadow wall time per step, probes included; generating an ingest
    /// step's rows and comparing the answers are not.
    step_wall_ns: Vec<u64>,
    mismatches: Vec<String>,
    error: Option<FeisuError>,
}

impl Observer for Lockstep<'_> {
    fn query_done(&mut self, _step: usize, _family: usize, result: QueryResult) {
        self.answered.push(Answered {
            stats: result.stats,
            sim: result.response_time,
            sim_self: sim_self(&result.profile),
        });
        self.engine_answer = Some(result.batch);
    }

    fn step_done(&mut self, step: usize) {
        match self.shadow_step(step) {
            Ok(traced) => self.step_wall_ns.push(traced.as_nanos() as u64),
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }
}

impl Lockstep<'_> {
    /// The same step on the traced cluster, through the shadow pipeline;
    /// returns the wall time the traced work took.
    fn shadow_step(&mut self, step: usize) -> Result<Duration> {
        let (shadow, cred) = (self.shadow, self.cred);
        let cluster = shadow.master.cluster;
        let stmt = self.stmt_base + step;
        match &self.plan.clients[self.client][step] {
            Step::Query { sql, at_ns, .. } => {
                // A statement the engine failed has no answer to match.
                let Some(theirs) = self.engine_answer.take() else {
                    return Ok(Duration::ZERO);
                };
                let now = cluster.now().as_nanos();
                if let (0, Some(at)) = (self.client, *at_ns) {
                    if at > now {
                        cluster.advance_time(SimDuration::nanos(at - now));
                    }
                }
                let admitted = cluster.now();
                let started = Instant::now();
                let ours = shadow.statement(stmt, sql, cred)?;
                let traced = started.elapsed();
                if let Err(why) = same_answer(&ours, &theirs, sql.contains("ORDER BY")) {
                    self.mismatches
                        .push(format!("step {step}: shadow answer to `{sql}`: {why}"));
                }
                // Keep the traced cluster's clock in step with the engine's.
                let sim = self.answered.last().map_or(SimDuration::ZERO, |a| a.sim);
                let done = admitted + sim;
                if done > cluster.now() {
                    cluster.advance_time(done.since(cluster.now()));
                }
                Ok(traced)
            }
            Step::Ingest { table, start, rows } => {
                let def = &self.plan.tables[*table];
                let columns = def.source.chunk(*start, *rows);
                let schema = def.source.schema();
                let started = Instant::now();
                shadow.ingest(stmt, &def.name, &def.location, &schema, columns, cred)?;
                Ok(started.elapsed())
            }
            Step::Rewrite { table, block } => {
                let path = block_path(cluster, &self.plan.tables[*table].name, *block)?;
                let started = Instant::now();
                shadow.rec.time(
                    "core.rewrite",
                    None,
                    stmt,
                    || rewrite_block(cluster, &path, cred),
                    |_| 0,
                )?;
                Ok(started.elapsed())
            }
        }
    }
}

pub fn run(plan: &Plan, limit: Limit, trace_dir: Option<&Path>) -> Result<Traced> {
    // `a` answers through the engine, `b` through the shadow pipeline.
    let a = build(plan)?;
    let b = build(plan)?;
    let rec = Recorder::default();
    let shadow = Shadow {
        master: crate::probes::core::Master::new(&b.cluster),
        rec: &rec,
    };
    for (t, def) in plan.tables.iter().enumerate() {
        // A serialize + write probe per table, so these two layers are
        // measured on workloads that never ingest in the timed phase.
        let block = def.source.chunk(0, plan.spec.rows_per_block);
        shadow.probe_ingest(
            usize::MAX - t,
            &def.location,
            &def.source.schema(),
            block,
            &b.creds[0],
        )?;
    }
    let stride = plan.clients.iter().map(Vec::len).max().unwrap_or(0);
    let observers = (0..plan.clients.len())
        .map(|client| Lockstep {
            shadow: &shadow,
            plan,
            client,
            cred: &b.creds[client],
            stmt_base: client * stride,
            answered: Vec::new(),
            engine_answer: None,
            step_wall_ns: Vec::new(),
            mismatches: Vec::new(),
            error: None,
        })
        .collect();
    let mut runs: Vec<ClientRun<Lockstep<'_>>> =
        run_clients(&a.cluster, &a.creds, plan, limit, observers);
    if let Some(e) = runs.iter_mut().find_map(|r| r.observer.error.take()) {
        return Err(e);
    }
    let spans = rec.spans();
    let traced = Traced {
        values: layer_values(&a, &runs, &spans),
        attempted: runs.iter().map(|r| r.samples.len()).sum(),
        failed: runs.iter().map(ClientRun::failed).sum(),
        first_error: runs.iter().find_map(|r| r.first_error.clone()),
        mismatches: runs
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.observer.mismatches))
            .collect(),
        spans: spans.len(),
    };
    if let Some(dir) = trace_dir {
        let path = dir.join(format!("{}.trace.json", plan.workload.name()));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, to_json(&spans).render()))
            .map_err(|e| FeisuError::Storage(format!("write {}: {e}", path.display())))?;
    }
    Ok(traced)
}

/// Folds the engine's counters, the simulated profile trees and the wall
/// spans into the per-layer metrics, in registry order.
fn layer_values(a: &Loaded, engine: &[ClientRun<Lockstep<'_>>], spans: &[Span]) -> Values {
    let cache = a.cluster.cache().map(|c| c.stats()).unwrap_or_default();
    let counter = |name: &str| a.cluster.metrics().counter(name).get() as f64;
    let mut v: HashMap<String, f64> = HashMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    // ---- wall spans -----------------------------------------------------
    let own = self_times(spans);
    // Root of each span's tree (parents always precede their children).
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let mean_us = |name: &'static str| {
        let (n, total) = named(name).fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur()));
        ratio(total as f64 / 1e3, n as f64)
    };
    let ns_per_work = |name: &'static str| {
        let (work, total) = named(name).fold((0u64, 0u64), |(w, t), s| (w + s.work, t + s.dur()));
        ratio(total as f64, work as f64)
    };
    // Self time inside statements, by layer; probes are not statements.
    let in_stmt = |i: usize| spans[root[i]].name == "stmt";
    let self_where = |pick: &dyn Fn(&str) -> bool| -> f64 {
        (0..spans.len())
            .filter(|&i| in_stmt(i) && pick(spans[i].name))
            .map(|i| own[i] as f64)
            .sum()
    };
    let traced_total = self_where(&|_| true);

    for name in [
        "sql.parse",
        "sql.analyze",
        "sql.plan",
        "sql.optimize",
        "exec.lower",
    ] {
        set(&format!("{name}_us"), mean_us(name));
    }
    for name in [
        "exec.join",
        "exec.sort",
        "exec.agg_update",
        "exec.agg_merge",
        "exec.filter",
        "exec.project",
    ] {
        set(&format!("{name}.ns_per_row"), ns_per_work(name));
    }
    set(
        "exec.busy_share",
        ratio(self_where(&|n| n.starts_with("exec.")), traced_total),
    );
    set("core.leaf.execute_us", mean_us("core.leaf.execute"));
    set("core.leaf.ns_per_row", ns_per_work("core.leaf.execute"));
    set(
        "core.leaf.busy_share",
        ratio(self_where(&|n| n == "core.leaf.execute"), traced_total),
    );
    set("core.stem.merge_ns_per_row", ns_per_work("core.stem.merge"));
    set(
        "core.stem.busy_share",
        ratio(self_where(&|n| n == "core.stem.merge"), traced_total),
    );
    set("index.evaluate_us", mean_us("index.evaluate"));
    set("storage.read_us", mean_us("storage.read"));
    set("storage.write_us", mean_us("storage.write"));
    set("format.read_meta_us", mean_us("format.read_meta"));
    set("format.decode_ns_per_value", ns_per_work("format.decode"));
    set(
        "format.serialize_ns_per_value",
        ns_per_work("format.serialize"),
    );

    // ---- the engine's wall clock, and what the shadow adds or misses ----
    let samples = || engine.iter().flat_map(|r| &r.samples);
    let engine_query_ns: u64 = samples()
        .filter(|s| s.is_query && !s.failed)
        .map(|s| s.wall_ns)
        .sum();
    let shadow_query_ns: u64 = named("stmt").map(Span::dur).sum();
    set(
        "core.master.unattributed_share",
        ratio(
            engine_query_ns as f64 - shadow_query_ns as f64,
            engine_query_ns as f64,
        ),
    );
    let engine_step_ns: u64 = samples().map(|s| s.wall_ns).sum();
    let shadow_step_ns: u64 = engine.iter().flat_map(|r| &r.observer.step_wall_ns).sum();
    set(
        "harness.trace_overhead_share",
        ratio(
            shadow_step_ns as f64 - engine_step_ns as f64,
            engine_step_ns as f64,
        ),
    );

    // ---- counters and simulated time, from the engine's own results -----
    let answered: Vec<&Answered> = engine.iter().flat_map(|r| &r.observer.answered).collect();
    let n = answered.len() as f64;
    let sum = |f: &dyn Fn(&Answered) -> f64| answered.iter().map(|a| f(a)).sum::<f64>();
    let tasks = sum(&|a| a.stats.tasks as f64);
    let blocks = sum(&|a| (a.stats.blocks_skipped + a.stats.blocks_scanned) as f64);
    set(
        "sql.rules_fired_per_stmt",
        ratio(counter("feisu.optimizer.rules_fired"), n),
    );
    set(
        "exec.joins_reordered_per_stmt",
        ratio(counter("feisu.optimizer.joins_reordered"), n),
    );
    set(
        "core.leaf.blocks_skipped_share",
        ratio(sum(&|a| a.stats.blocks_skipped as f64), blocks),
    );
    set(
        "core.leaf.memory_served_share",
        ratio(sum(&|a| a.stats.memory_served_tasks as f64), tasks),
    );
    set("core.tasks_per_stmt", ratio(tasks, n));
    set(
        "core.reused_task_share",
        ratio(sum(&|a| a.stats.reused_tasks as f64), tasks),
    );
    set("core.backup_tasks", sum(&|a| a.stats.backup_tasks as f64));
    set(
        "core.wire_leaf_stem_bytes",
        ratio(sum(&|a| a.stats.wire_leaf_stem.as_u64() as f64), n),
    );
    set(
        "core.wire_rack_dc_bytes",
        ratio(sum(&|a| a.stats.wire_rack_dc.as_u64() as f64), n),
    );
    set(
        "core.wire_stem_master_bytes",
        ratio(sum(&|a| a.stats.wire_stem_master.as_u64() as f64), n),
    );
    // SmartIndex: predicates answered from cached bits over predicates
    // probed; first and last quarter show the Fig. 9a warm-up. With two
    // clients the quarters are per client, then pooled.
    let hit_share = |from: f64, to: f64| {
        let (mut hits, mut probes) = (0.0, 0.0);
        for r in engine {
            let q = &r.observer.answered;
            let (lo, hi) = (
                (q.len() as f64 * from) as usize,
                (q.len() as f64 * to) as usize,
            );
            for a in &q[lo..hi] {
                hits += a.stats.index_hits as f64;
                probes +=
                    (a.stats.index_hits + a.stats.index_built + a.stats.scanned_predicates) as f64;
            }
        }
        ratio(hits, probes)
    };
    set("index.hit_share", hit_share(0.0, 1.0));
    set("index.hit_share_q1", hit_share(0.0, 0.25));
    set("index.hit_share_q4", hit_share(0.75, 1.0));
    set("index.built", sum(&|a| a.stats.index_built as f64));
    set("index.rejected", sum(&|a| a.stats.index_rejected as f64));
    set(
        "storage.bytes_read",
        ratio(sum(&|a| a.stats.bytes_read.as_u64() as f64), n),
    );
    let lookups = (cache.hits() + cache.misses) as f64;
    set(
        "storage.cache.hit_share",
        ratio(cache.hits() as f64, lookups),
    );
    set(
        "storage.cache.mem_hit_share",
        ratio(cache.mem_hits as f64, lookups),
    );
    set(
        "storage.cache.evictions",
        (cache.mem_evictions + cache.ssd_evictions) as f64,
    );
    set("storage.cache.invalidations", cache.invalidations as f64);
    set("storage.cache.rejected", cache.rejected as f64);
    let sim_ms = |f: &dyn Fn(&SimSelf) -> u64| ratio(sum(&|a| f(&a.sim_self) as f64) / 1e6, n);
    set("cluster.sim.leaf_task_ms", sim_ms(&|s| s.leaf_task));
    set("cluster.sim.stem_self_ms", sim_ms(&|s| s.stem));
    set("cluster.sim.scan_self_ms", sim_ms(&|s| s.scan));
    set("cluster.sim.operator_self_ms", sim_ms(&|s| s.operator));
    set("cluster.sim.master_self_ms", sim_ms(&|s| s.master));
    let sims = sorted(answered.iter().map(|a| a.sim.as_millis_f64()).collect());
    set("cluster.sim.p50_ms", percentile(&sims, 0.5).unwrap_or(0.0));
    set(
        "obs.spans_per_stmt",
        ratio(sum(&|a| a.sim_self.spans as f64), n),
    );

    // ---- per statement family, both clocks -------------------------------
    for (f, name) in FAMILIES.iter().enumerate() {
        let of_family = || samples().filter(move |s| s.family == f && !s.failed);
        let count = of_family().count() as f64;
        set(
            &format!("family.{name}.wall_mean_ms"),
            ratio(of_family().map(|s| s.wall_ns as f64 / 1e6).sum(), count),
        );
        set(
            &format!("family.{name}.sim_mean_ms"),
            ratio(of_family().map(|s| s.sim_ns as f64 / 1e6).sum(), count),
        );
    }

    let mut out = Values::default();
    for m in per_layer() {
        let value = v
            .get(&m.name)
            .copied()
            .unwrap_or_else(|| unreachable!("per-layer metric `{}` was never computed", m.name));
        out.set(m.name, value);
    }
    out
}
