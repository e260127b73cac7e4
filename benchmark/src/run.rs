//! The closed loop: clients over the client surface only.
//!
//! Each client sends its next statement when the previous one returns.
//! A timer wraps exactly the engine call; an ingest step's rows are
//! generated right before it, outside the timer, so only one tick's rows
//! are alive at a time.

use crate::stats::Fnv;
use crate::workloads::{family, Plan, Step};
use feisu_common::{FeisuError, Result, SimDuration};
use feisu_core::engine::FeisuCluster;
use feisu_core::master::QuerySession;
use feisu_core::QueryResult;
use feisu_exec::batch::RecordBatch;
use feisu_format::column::ColumnData;
use feisu_format::Column;
use feisu_storage::auth::Credential;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a timed phase lasts: a step count per client — so both
/// clocks and every counter repeat — and, as a guard for a slow machine,
/// a wall-time cap after which the phase stops early.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub steps: usize,
    pub wall: Option<Duration>,
}

impl Limit {
    /// Every step of the plan, however long it takes.
    pub const ALL: Limit = Limit {
        steps: usize::MAX,
        wall: None,
    };
}

/// One attempted step.
pub struct Sample {
    pub family: usize,
    pub is_query: bool,
    pub wall_ns: u64,
    /// `QueryResult.response_time`; zero for writes and failures.
    pub sim_ns: u64,
    /// Rows an ingest step appended; zero for every other step.
    pub ingest_rows: usize,
    pub failed: bool,
}

/// What a pass wants back from its steps, beyond timing. Both hooks run
/// outside the step's timer.
pub trait Observer: Send {
    /// After every successful query, with its result.
    fn query_done(&mut self, step: usize, family: usize, result: QueryResult);
    /// After every step (and after `query_done`), successful or not.
    fn step_done(&mut self, _step: usize) {}
}

/// Folds every answer into one checksum and, for the oracle check, keeps
/// every 40th query's answer and the first `per_family` of each family
/// (none at all when `per_family` is zero).
pub struct KeepForCheck {
    pub checksum: Fnv,
    pub kept: Vec<(usize, RecordBatch)>,
    /// Every one-cell integer answer, by step: `COUNT(*)` over the whole
    /// table is checked against the rows ingested on every tick.
    pub scalars: Vec<(usize, i64)>,
    queries: usize,
    per_family: usize,
    seen: [usize; crate::workloads::FAMILIES.len()],
}

impl KeepForCheck {
    pub fn new(per_family: usize) -> KeepForCheck {
        KeepForCheck {
            checksum: Fnv::default(),
            kept: Vec::new(),
            scalars: Vec::new(),
            queries: 0,
            per_family,
            seen: [0; crate::workloads::FAMILIES.len()],
        }
    }
}

impl Observer for KeepForCheck {
    fn query_done(&mut self, step: usize, family: usize, result: QueryResult) {
        hash_batch(&mut self.checksum, &result.batch);
        if let ([c], 1) = (result.batch.columns(), result.batch.rows()) {
            if let ColumnData::Int64(v) = c.data() {
                self.scalars.push((step, v[0]));
            }
        }
        let sampled = self.queries.is_multiple_of(40) || self.seen[family] < self.per_family;
        if self.per_family > 0 && sampled {
            self.kept.push((step, result.batch));
        }
        self.queries += 1;
        self.seen[family] += 1;
    }
}

/// Order-sensitive digest of a batch's cells, through the typed slices.
pub fn hash_batch(h: &mut Fnv, batch: &RecordBatch) {
    h.u64(batch.rows() as u64);
    for c in batch.columns() {
        for w in c.validity().words() {
            h.u64(*w);
        }
        match c.data() {
            ColumnData::Int64(v) => v.iter().for_each(|x| h.u64(*x as u64)),
            ColumnData::Float64(v) => v.iter().for_each(|x| h.u64(x.to_bits())),
            ColumnData::Bool(v) => v.iter().for_each(|x| h.u64(*x as u64)),
            ColumnData::Utf8(v) => v.iter().for_each(|s| {
                h.u64(s.len() as u64);
                h.bytes(s.as_bytes());
            }),
        }
    }
}

pub struct ClientRun<O> {
    pub samples: Vec<Sample>,
    pub first_error: Option<String>,
    pub observer: O,
}

impl<O> ClientRun<O> {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.failed).count()
    }
}

fn advance_to(cluster: &FeisuCluster, at_ns: u64) {
    let now = cluster.now().as_nanos();
    if at_ns > now {
        cluster.advance_time(SimDuration::nanos(at_ns - now));
    }
}

/// Storage path of a table's `block`-th block.
pub fn block_path(cluster: &FeisuCluster, table: &str, block: usize) -> Result<String> {
    let desc = cluster.catalog().table(table)?;
    let found = desc.blocks().nth(block).map(|b| b.path.clone());
    found.ok_or_else(|| FeisuError::Storage(format!("`{table}` has no block {block}")))
}

/// Reads one stored block and writes the same bytes back.
pub fn rewrite_block(cluster: &FeisuCluster, path: &str, cred: &Credential) -> Result<()> {
    let router = cluster.router();
    let holder = *router
        .replicas(path)?
        .first()
        .ok_or_else(|| FeisuError::Storage(format!("`{path}` has no replica")))?;
    let read = router.read(path, holder, cred, cluster.now())?;
    router.write(path, read.data, None, cred, cluster.now())
}

fn run_client<O: Observer>(
    cluster: &FeisuCluster,
    session: &QuerySession<'_>,
    plan: &Plan,
    client: usize,
    limit: Limit,
    observer: O,
) -> ClientRun<O> {
    let steps = &plan.clients[client];
    let max_steps = limit.steps.min(steps.len());
    let mut run = ClientRun {
        samples: Vec::with_capacity(max_steps),
        first_error: None,
        observer,
    };
    let ingest_family = family("ingest");
    let started = Instant::now();
    for (i, step) in steps.iter().enumerate().take(max_steps) {
        if limit.wall.is_some_and(|cap| started.elapsed() >= cap) {
            break;
        }
        let mut ingest_rows = 0;
        let (fam, is_query, outcome, wall) = match step {
            Step::Query { sql, family, at_ns } => {
                // Client 0 alone advances the simulated clock.
                if let (0, Some(at)) = (client, at_ns) {
                    advance_to(cluster, *at);
                }
                let t = Instant::now();
                let r = session.query(sql);
                let wall = t.elapsed();
                (*family, true, r.map(Some), wall)
            }
            Step::Ingest { table, start, rows } => {
                let def = &plan.tables[*table];
                let columns = def.source.chunk(*start, *rows);
                ingest_rows = columns.first().map_or(0, Column::len);
                let t = Instant::now();
                let r = cluster.ingest_columns(&def.name, columns, session.cred());
                (ingest_family, false, r.map(|_| None), t.elapsed())
            }
            Step::Rewrite { table, block } => {
                let path = block_path(cluster, &plan.tables[*table].name, *block);
                let t = Instant::now();
                let r = path.and_then(|p| rewrite_block(cluster, &p, session.cred()));
                (ingest_family, false, r.map(|_| None), t.elapsed())
            }
        };
        let mut sample = Sample {
            family: fam,
            is_query,
            wall_ns: wall.as_nanos() as u64,
            sim_ns: 0,
            ingest_rows,
            failed: false,
        };
        match outcome {
            Ok(Some(result)) => {
                sample.sim_ns = result.response_time.as_nanos();
                run.observer.query_done(i, fam, result);
            }
            Ok(None) => {}
            Err(e) => {
                sample.failed = true;
                run.first_error
                    .get_or_insert_with(|| format!("step {i}: {e}"));
            }
        }
        run.observer.step_done(i);
        run.samples.push(sample);
    }
    run
}

/// Runs every client of the plan to `limit`, one thread per client, all
/// released together. Client 0 alone advances the simulated clock to the
/// statements' arrival times.
pub fn run_clients<O: Observer>(
    cluster: &FeisuCluster,
    creds: &[Credential],
    plan: &Plan,
    limit: Limit,
    observers: Vec<O>,
) -> Vec<ClientRun<O>> {
    // Sessions open in client order, so query ids repeat run to run.
    let sessions: Vec<QuerySession<'_>> =
        creds.iter().map(|c| cluster.session(c.clone())).collect();
    let barrier = Barrier::new(sessions.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = observers
            .into_iter()
            .zip(&sessions)
            .enumerate()
            .map(|(client, (obs, session))| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run_client(cluster, session, plan, client, limit, obs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
