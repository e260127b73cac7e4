//! Set-up: build the cluster and load the plan's tables.
//!
//! Only time spent inside engine calls is billed to set-up; generating
//! rows is the harness's own cost and is left out.

use crate::workloads::{LoadPath, Plan, TableDef};
use feisu_common::{NodeId, Result};
use feisu_core::engine::FeisuCluster;
use feisu_exec::batch::RecordBatch;
use feisu_format::{Column, Schema, Value};
use feisu_storage::auth::Credential;
use std::time::{Duration, Instant};

/// Oracle copies of the loaded tables, restricted to the columns the
/// statements mention, one growable column set per table.
pub struct OracleTables(pub Vec<(Schema, Vec<Column>)>);

impl OracleTables {
    /// The preloaded rows of every table, generated again from the plan
    /// (after the timed phase, so the copy never counts towards the
    /// engine's peak memory).
    pub fn preloaded(plan: &Plan) -> OracleTables {
        let mut oracle = OracleTables(
            plan.tables
                .iter()
                .map(|t| {
                    let full = t.source.schema();
                    let fields = t
                        .oracle_columns
                        .iter()
                        .filter_map(|c| full.field_by_name(c).cloned())
                        .collect();
                    (Schema::new(fields), Vec::new())
                })
                .collect(),
        );
        for (ti, table) in plan.tables.iter().enumerate() {
            let schema = table.source.schema();
            for (start, len) in load_chunks(plan, table) {
                oracle.append(ti, &schema, &table.source.chunk(start, len));
            }
        }
        oracle
    }

    /// Appends the kept columns of one ingested chunk.
    pub fn append(&mut self, table: usize, full: &Schema, chunk: &[Column]) {
        let (schema, columns) = &mut self.0[table];
        let picked = schema
            .fields()
            .iter()
            .map(|f| &chunk[full.index_of(&f.name).expect("oracle column exists")]);
        if columns.is_empty() {
            columns.extend(picked.cloned());
        } else {
            for (have, more) in columns.iter_mut().zip(picked) {
                have.append(more);
            }
        }
    }

    pub fn batch(&self, table: usize) -> Result<RecordBatch> {
        let (schema, columns) = &self.0[table];
        RecordBatch::new(schema.clone(), columns.clone())
    }
}

pub struct Loaded {
    pub cluster: FeisuCluster,
    /// One credential per client.
    pub creds: Vec<Credential>,
    /// Wall time inside `FeisuCluster::new`, `create_table` and `ingest_*`.
    pub setup: Duration,
    /// The `ingest_*` part of `setup` call by call, and the rows loaded.
    pub ingest_calls: Vec<Duration>,
    pub rows_loaded: usize,
}

/// Times one engine call.
fn timed<T>(call: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = call();
    (out, t.elapsed())
}

fn columns_to_rows(columns: &[Column]) -> Vec<Vec<Value>> {
    let n = columns.first().map_or(0, Column::len);
    (0..n)
        .map(|r| columns.iter().map(|c| c.value(r)).collect())
        .collect()
}

/// `(start, len)` of each set-up ingest call for one table: block-aligned
/// chunks, so chunking never changes block contents.
fn load_chunks(plan: &Plan, table: &TableDef) -> impl Iterator<Item = (usize, usize)> {
    let rows_per_block = plan.spec.rows_per_block;
    let chunk = match table.load {
        LoadPath::Columns => rows_per_block * (8192 / rows_per_block).max(1),
        LoadPath::RowsRoundRobin => rows_per_block,
    };
    let total = table.preload_rows;
    (0..total.div_ceil(chunk)).map(move |i| (i * chunk, chunk.min(total - i * chunk)))
}

pub fn build(plan: &Plan) -> Result<Loaded> {
    let (cluster, mut setup) = timed(|| FeisuCluster::new(plan.spec.clone()));
    let cluster = cluster?;
    let creds = (0..plan.clients.len())
        .map(|c| {
            let user = cluster.register_user(&format!("client{c}"));
            cluster.grant_all(user);
            cluster.login(user)
        })
        .collect::<Result<Vec<_>>>()?;
    let cred = &creds[0];
    let mut ingest_calls = Vec::new();
    let mut rows_loaded = 0usize;
    let nodes = cluster.node_count() as u64;
    let rows_per_block = plan.spec.rows_per_block;
    for table in &plan.tables {
        let schema = table.source.schema();
        let (created, took) =
            timed(|| cluster.create_table(&table.name, schema.clone(), &table.location, cred));
        created?;
        setup += took;
        for (start, len) in load_chunks(plan, table) {
            let columns = table.source.chunk(start, len);
            let (loaded, took) = match table.load {
                LoadPath::Columns => {
                    let (r, took) = timed(|| cluster.ingest_columns(&table.name, columns, cred));
                    (r.map(|_| ()), took)
                }
                LoadPath::RowsRoundRobin => {
                    let rows = columns_to_rows(&columns);
                    let owner = NodeId((start / rows_per_block) as u64 % nodes);
                    let (r, took) =
                        timed(|| cluster.ingest_rows_at(&table.name, rows, owner, cred));
                    (r.map(|_| ()), took)
                }
            };
            loaded?;
            setup += took;
            ingest_calls.push(took);
            rows_loaded += len;
        }
    }
    Ok(Loaded {
        cluster,
        creds,
        setup,
        ingest_calls,
        rows_loaded,
    })
}

/// (stored bytes, raw bytes) over every block of every table.
pub fn stored_and_raw_bytes(plan: &Plan, cluster: &FeisuCluster) -> Result<(u64, u64)> {
    let (mut stored, mut raw) = (0u64, 0u64);
    for t in &plan.tables {
        for b in cluster.catalog().table(&t.name)?.blocks() {
            stored += b.stored_size.as_u64();
            raw += b.raw_size.as_u64();
        }
    }
    Ok((stored, raw))
}
