//! The untraced pass of one workload: set-up, the timed closed loop, the
//! answer check, and the end-to-end metrics. Every end-to-end number
//! comes from here; tracing is off.
//!
//! The timed phase runs [`PHASES`] times, each on a freshly built cluster
//! (so every phase goes cold to warm through the same statements), and a
//! step's wall time is the fastest of its phases. The machines this runs
//! on share their host: identical work runs 10-70 % slower for seconds to
//! minutes at a time, always slower, never faster, so the fastest of
//! several looks at one statement is the steadiest estimate of what the
//! code costs. Percentiles and rates are then taken over those per-step
//! times. The simulated clock and the answers do not depend on the
//! machine: a phase that answers differently from the first fails the run.

use crate::check::{check, CheckReport};
use crate::metrics::Values;
use crate::run::{run_clients, ClientRun, KeepForCheck, Limit, Sample};
use crate::setup::{build, stored_and_raw_bytes, Loaded, OracleTables};
use crate::stats::{mean, median, peak_rss_mb, percentile, sorted, tail_rank, Fnv};
use crate::workloads::{Plan, Workload};
use feisu_common::{FeisuError, Result};
use std::time::Duration;

/// Timed phases per pass.
pub const PHASES: usize = 3;

pub struct Untraced {
    /// The end-to-end metrics of `BENCHMARK.json`, in registry order.
    pub values: Values,
    /// Steps attempted and failed, all phases together.
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
    pub check: CheckReport,
    /// FNV-1a over every result batch of one phase, clients in order.
    pub checksum: u64,
    /// Query samples behind the percentiles (the statements of one phase),
    /// and the tail rank they support.
    pub query_samples: usize,
    pub tail_rank: f64,
    /// The simulated median. Reported, but not an end-to-end metric: it
    /// sits on a mode and reads the same on every seed.
    pub sim_p50_ms: f64,
    /// Cache capacity and final stored bytes (`ingest_query` must keep
    /// the second at least twice the first).
    pub cache_bytes: u64,
    pub stored_bytes: u64,
}

impl Untraced {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check.mismatches.is_empty()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Set-ups before each phase: one, and for a workload that loads in a
/// fraction of a second as many more as fit in two thirds of a second, at
/// most five — a 70 ms set-up is one scheduler hiccup away from reading
/// 15 % slower. The phase runs on the last one.
const MAX_SETUPS_PER_PHASE: usize = 5;
const SETUP_TIME_PER_PHASE: Duration = Duration::from_millis(667);

/// Every set-up of the pass: the fastest, and each of its `ingest_*`
/// calls at the fastest of the set-ups so far. Like a step's, a set-up's
/// time is its best: the host only ever slows it down.
#[derive(Default)]
struct SetUps {
    fastest: Option<Duration>,
    best_ingest_calls: Vec<Duration>,
    rows_loaded: usize,
}

impl SetUps {
    /// Sets up until [`MAX_SETUPS_PER_PHASE`] or [`SETUP_TIME_PER_PHASE`]
    /// is reached; each cluster drops before the next is built, so peak
    /// memory is one cluster's.
    fn build(&mut self, plan: &Plan) -> Result<Loaded> {
        let (mut n, mut spent) = (0, Duration::ZERO);
        loop {
            let loaded = self.build_once(plan)?;
            n += 1;
            spent += loaded.setup;
            if n == MAX_SETUPS_PER_PHASE || spent >= SETUP_TIME_PER_PHASE {
                return Ok(loaded);
            }
        }
    }

    fn build_once(&mut self, plan: &Plan) -> Result<Loaded> {
        let l = build(plan)?;
        self.fastest = Some(self.fastest.map_or(l.setup, |f| f.min(l.setup)));
        self.rows_loaded = l.rows_loaded;
        if self.best_ingest_calls.is_empty() {
            self.best_ingest_calls.clone_from(&l.ingest_calls);
        }
        for (best, call) in self.best_ingest_calls.iter_mut().zip(&l.ingest_calls) {
            *best = (*best).min(*call);
        }
        Ok(l)
    }

    /// Rows per second through the set-up's `ingest_*` calls.
    fn load_rate(&self) -> f64 {
        self.rows_loaded as f64
            / self
                .best_ingest_calls
                .iter()
                .sum::<Duration>()
                .as_secs_f64()
    }
}

type Phase = Vec<ClientRun<KeepForCheck>>;

fn checksum_of(phase: &Phase) -> u64 {
    let mut h = Fnv::default();
    for client in phase {
        h.u64(client.observer.checksum.0);
    }
    h.0
}

/// Runs the timed phase [`PHASES`] times, `limit` each, every time on a
/// fresh cluster.
pub fn run(plan: &Plan, limit: Limit, check_per_family: usize) -> Result<Untraced> {
    let mut setups = SetUps::default();
    let mut phases: Vec<Phase> = Vec::new();
    let mut stored_and_raw = (0, 0);
    let mut rss = None;
    for phase in 0..PHASES {
        let loaded = setups.build(plan)?;
        // The first phase's sampled answers go to the oracle.
        let keep = if phase == 0 { check_per_family } else { 0 };
        let observers = plan
            .clients
            .iter()
            .map(|_| KeepForCheck::new(keep))
            .collect();
        phases.push(run_clients(
            &loaded.cluster,
            &loaded.creds,
            plan,
            limit,
            observers,
        ));
        stored_and_raw = stored_and_raw_bytes(plan, &loaded.cluster)?;
        // Peak memory is the first cluster's, loaded and run once: later
        // phases start on whatever heap the earlier ones left behind.
        rss = rss.or_else(peak_rss_mb);
    }

    fn samples(phase: &Phase) -> impl Iterator<Item = &Sample> + Clone {
        phase.iter().flat_map(|client| &client.samples)
    }
    let attempted: usize = phases.iter().map(|p| samples(p).count()).sum();
    let failed: usize = phases.iter().flatten().map(ClientRun::failed).sum();
    let first_error = phases.iter().flatten().find_map(|r| r.first_error.clone());

    // Per client, the steps every phase completed (the wall cap can end
    // a phase early), each at the fastest of its phases.
    let mut step_rate = 0.0;
    let mut wall = Vec::new();
    let (mut ingest_rows, mut ingest_ns) = (0usize, 0u64);
    for (c, first) in phases[0].iter().enumerate() {
        let done = phases.iter().map(|p| p[c].samples.len()).min().unwrap_or(0);
        let mut busy_ns = 0u64;
        for (i, s) in first.samples.iter().enumerate().take(done) {
            let runs = phases.iter().map(|p| &p[c].samples[i]);
            let best = runs.clone().map(|s| s.wall_ns).min().unwrap_or(0);
            busy_ns += best;
            if runs.clone().any(|s| s.failed) {
                continue;
            }
            if s.is_query {
                wall.push(ms(best));
            } else if s.ingest_rows > 0 {
                ingest_rows += s.ingest_rows;
                ingest_ns += best;
            }
        }
        // A client's own closed-loop rate; clients add up.
        step_rate += done as f64 / (busy_ns as f64 / 1e9);
    }
    if wall.is_empty() {
        return Err(FeisuError::Execution(format!(
            "no statement succeeded: {}",
            first_error.unwrap_or_default()
        )));
    }
    let wall = sorted(wall);
    let tail = tail_rank(wall.len());
    let pct = |v: &[f64], p: f64| percentile(v, p).expect("sample is not empty");
    // Simulated times are the machine's to decide only where two clients
    // interleave: per phase, then the median phase.
    let sim_of = |stat: &dyn Fn(&[f64]) -> f64| {
        let per_phase: Vec<f64> = phases
            .iter()
            .map(|p| {
                let queries = samples(p).filter(|s| s.is_query && !s.failed);
                stat(&sorted(queries.map(|s| ms(s.sim_ns)).collect()))
            })
            .collect();
        median(&per_phase)
    };

    let sim_p50_ms = sim_of(&|v| pct(v, 0.5));
    let (stored, raw) = stored_and_raw;
    let mut values = Values::default();
    values.set("wall_qps", step_rate);
    values.set("wall_p50_ms", pct(&wall, 0.5));
    values.set("wall_p90_ms", pct(&wall, tail));
    values.set("sim_p90_ms", sim_of(&|v| pct(v, tail)));
    values.set("sim_mean_ms", sim_of(&mean));
    let setup = setups.fastest.expect("every phase set up");
    values.set("setup_s", setup.as_secs_f64());
    values.set("peak_rss_mb", rss.unwrap_or(0.0));
    // Rows per second through `ingest_*`: the timed phase's own ingest
    // where the workload has one, the set-up load otherwise.
    values.set(
        "ingest_rows_per_s",
        if ingest_rows > 0 {
            ingest_rows as f64 / (ingest_ns as f64 / 1e9)
        } else {
            setups.load_rate()
        },
    );
    values.set("stored_bytes_per_raw_byte", stored as f64 / raw as f64);

    let cache = &plan.spec.config.cache;
    let cache_bytes = if cache.enabled {
        (cache.mem_capacity_per_node.as_u64() + cache.ssd_capacity_per_node.as_u64())
            * plan.spec.node_count() as u64
    } else {
        0
    };
    if plan.workload == Workload::IngestQuery && stored < 2 * cache_bytes {
        return Err(FeisuError::Config(format!(
            "ingest_query must outgrow its cache: {stored} B stored, {cache_bytes} B of cache"
        )));
    }

    // The same steps on the same rows have one answer.
    let checksum = checksum_of(&phases[0]);
    let steps_of = |p: &Phase| p.iter().map(|c| c.samples.len()).collect::<Vec<_>>();
    let mut disagreements = Vec::new();
    for (k, phase) in phases.iter().enumerate().skip(1) {
        if steps_of(phase) == steps_of(&phases[0]) && checksum_of(phase) != checksum {
            disagreements.push(format!("phase {} answered differently from phase 1", k + 1));
        }
    }
    let first = phases.swap_remove(0);
    drop(phases);
    // The oracle's copy of the rows is built only now, with every cluster
    // gone, so it never shows in the engine's peak memory.
    let mut check = if check_per_family > 0 {
        let kept = first
            .into_iter()
            .map(|r| (r.observer, r.samples.len()))
            .collect();
        check(plan, OracleTables::preloaded(plan), kept)?
    } else {
        CheckReport::default()
    };
    check.mismatches.extend(disagreements);
    Ok(Untraced {
        values,
        attempted,
        failed,
        first_error,
        check,
        checksum,
        query_samples: wall.len(),
        tail_rank: tail,
        sim_p50_ms,
        cache_bytes,
        stored_bytes: stored,
    })
}
