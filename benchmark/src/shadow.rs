//! The shadow pipeline: one statement driven through the layers' public
//! functions, a span around each call.
//!
//! `parse → analyze → plan → optimize → lower`, then the physical tree:
//! scans through [`probes::core::Master`], master operators through
//! [`probes::exec`]. A statement's spans hang under one `stmt` root.
//! Stand-alone probes (storage read, footer read, chunk decode, predicate
//! evaluation — and serialize + write on ingest) re-run single layer
//! calls on the same bytes; they hang under a separate `probe` root that
//! starts after the statement's span has closed, so they never count
//! towards a statement's time.

use crate::probes::core::{Master, ProbeJob};
use crate::probes::{self, At};
use crate::spans::Recorder;
use feisu_common::{NodeId, Result, SimInstant};
use feisu_exec::batch::RecordBatch;
use feisu_exec::physical::PhysicalPlan;
use feisu_format::{Column, Schema};
use feisu_sql::cnf::Disjunct;
use feisu_sql::exprutil::rename_cnf;
use feisu_storage::auth::Credential;

pub struct Shadow<'a> {
    pub master: Master<'a>,
    pub rec: &'a Recorder,
}

impl Shadow<'_> {
    /// Answers one statement and then probes its sampled leaf tasks.
    pub fn statement(&self, stmt: usize, sql: &str, cred: &Credential) -> Result<RecordBatch> {
        let cluster = self.master.cluster;
        let now = cluster.now();
        let root = self.rec.start("stmt", None, stmt);
        let at = At {
            rec: self.rec,
            parent: Some(root),
            stmt,
        };
        let mut jobs = Vec::new();
        let answer = probes::sql::front_end(at, cluster, sql)
            .and_then(|logical| probes::exec::lower(at, cluster, &logical))
            .and_then(|physical| self.operator(at, &physical, cred, now, &mut jobs));
        self.rec
            .end(root, answer.as_ref().map_or(0, |b| b.rows() as u64));
        for job in jobs {
            self.probe_leaf_task(stmt, &job, now)?;
        }
        answer
    }

    fn operator(
        &self,
        at: At<'_>,
        plan: &PhysicalPlan,
        cred: &Credential,
        now: SimInstant,
        jobs: &mut Vec<ProbeJob>,
    ) -> Result<RecordBatch> {
        match plan {
            PhysicalPlan::DistributedScan { .. } => {
                let (batch, sampled) = self.master.distributed_scan(at, plan, cred, now)?;
                jobs.extend(sampled);
                Ok(batch)
            }
            PhysicalPlan::Empty { output_schema } => Ok(RecordBatch::empty(output_schema.clone())),
            _ => {
                let inputs = probes::exec::children(plan)
                    .into_iter()
                    .map(|child| self.operator(at, child, cred, now, jobs))
                    .collect::<Result<Vec<_>>>()?;
                probes::exec::operator(at, plan, &inputs)
                    .expect("scans and empty relations are handled above")
            }
        }
    }

    /// Re-runs, on the block one leaf task just covered, the single-layer
    /// calls `LeafServer::execute` makes inside: read the bytes, read the
    /// footer, decode the touched chunks, evaluate the predicate.
    fn probe_leaf_task(&self, stmt: usize, job: &ProbeJob, now: SimInstant) -> Result<()> {
        let cluster = self.master.cluster;
        let root = self.rec.start("probe", None, stmt);
        let at = At {
            rec: self.rec,
            parent: Some(root),
            stmt,
        };
        let task = &job.task;
        let run = || -> Result<()> {
            let bytes = probes::storage::read(at, cluster, &task.block.path, job.node)?;
            let meta = probes::format::read_meta(at, &bytes)?;
            if !job.scanned {
                return Ok(());
            }
            // Storage names of everything the task can touch.
            let cnf = rename_cnf(&task.cnf, &task.name_map);
            let mut canonical = Vec::new();
            for e in &task.residual {
                e.columns(&mut canonical);
            }
            let mut needed: Vec<&str> = task.projection.iter().map(String::as_str).collect();
            for d in cnf.clauses.iter().flat_map(|c| &c.disjuncts) {
                match d {
                    Disjunct::Simple(p) => needed.push(&p.column),
                    Disjunct::Residual(e) => e.columns(&mut canonical),
                }
            }
            needed.extend(
                canonical
                    .iter()
                    .map(|c| task.name_map.get(c).unwrap_or(c).as_str()),
            );
            needed.retain(|n| meta.schema.index_of(n).is_some());
            needed.sort_unstable();
            needed.dedup();
            let block = probes::format::decode(at, &bytes, &needed)?;
            let index = cluster
                .leaf(job.node)
                .filter(|_| cluster.spec().use_smartindex)
                .map(|leaf| leaf.index());
            probes::index::evaluate(at, index, &block, &cnf, now)?;
            Ok(())
        };
        let out = run();
        self.rec.end(root, 0);
        out
    }

    /// Ingests `columns` (so the traced cluster keeps up with the
    /// engine's), then probes serialize + write on its first block.
    pub fn ingest(
        &self,
        stmt: usize,
        table: &str,
        location: &str,
        schema: &Schema,
        columns: Vec<Column>,
        cred: &Credential,
    ) -> Result<()> {
        let cluster = self.master.cluster;
        let first_block = first_rows(&columns, cluster.spec().rows_per_block);
        let rows = columns.first().map_or(0, Column::len) as u64;
        self.rec.time(
            "core.ingest",
            None,
            stmt,
            || cluster.ingest_columns(table, columns, cred),
            |_| rows,
        )?;
        self.probe_ingest(stmt, location, schema, first_block, cred)
    }

    pub fn probe_ingest(
        &self,
        stmt: usize,
        location: &str,
        schema: &Schema,
        block: Vec<Column>,
        cred: &Credential,
    ) -> Result<()> {
        let root = self.rec.start("probe", None, stmt);
        let at = At {
            rec: self.rec,
            parent: Some(root),
            stmt,
        };
        // The local file system needs an owner; the others take the hint.
        let out = probes::format::serialize(at, schema.clone(), block).and_then(|bytes| {
            probes::storage::write(
                at,
                self.master.cluster,
                location,
                bytes,
                Some(NodeId(0)),
                cred,
            )
        });
        self.rec.end(root, 0);
        out
    }
}

/// The first `n` rows of each column.
fn first_rows(columns: &[Column], n: usize) -> Vec<Column> {
    let len = columns.first().map_or(0, Column::len).min(n);
    let head: Vec<usize> = (0..len).collect();
    columns.iter().map(|c| c.take(&head)).collect()
}
