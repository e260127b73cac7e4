//! Leaf servers — where scans actually run (paper §III-B, Fig. 3 steps
//! 3–5).
//!
//! A leaf receives a scan sub-plan for one block: projection, the
//! predicate in conjunctive form, an optional partial-aggregation stage.
//! It rewrites the predicate against its in-memory SmartIndex cache,
//! checks the block's footer zone maps — from the node's resident copy of
//! the footer when it has one, else from the block it then reads — reads
//! (only the needed columns of) the block when necessary, filters,
//! projects, optionally pre-aggregates, and returns the result with its
//! simulated cost. A footer is parsed at most once per task, and not at
//! all when the node already holds it.
//!
//! Cost accounting models the columnar format: a scan is charged for the
//! byte fraction of the block it actually touches — projected columns
//! plus predicate columns *not* served by SmartIndex. A bare `COUNT(*)`
//! is its final selection's bit count: it materializes no column, folds
//! no aggregate, and is charged for the columns it evaluated alone —
//! none, when every predicate is cached, as for a block a resident
//! footer disproves ("all computations are conducted in memory. No scan
//! operation is actually needed", §IV-C-3).

use feisu_cluster::simclock::TimeTally;
use feisu_cluster::CostModel;
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, FeisuError, NodeId, Result, SimInstant};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::{BatchView, RecordBatch};
use feisu_format::table::BlockDesc;
use feisu_format::{Block, BlockMeta, Column, Schema};
use feisu_index::bitvec::BitVec;
use feisu_index::manager::IndexManager;
use feisu_index::rewrite::{evaluate_cnf, ProbeKind};
use feisu_index::zonemap;
use feisu_sql::ast::Expr;
use feisu_sql::cnf::Cnf;
use feisu_sql::eval::eval_truth;
use feisu_sql::exprutil::rename_cnf;
use feisu_storage::auth::Credential;
use feisu_storage::{CacheTier, StorageRouter};
use std::sync::Arc;

pub use feisu_sql::exprutil::rename_expr;
// The partial-aggregation stage is the planner's type, so the logical
// layer, the physical layer and the leaves share one.
pub use feisu_sql::plan::AggStage;

/// One scan task over one block.
#[derive(Debug, Clone)]
pub struct ScanTask {
    pub table: String,
    pub block: BlockDesc,
    /// Storage column names to project, parallel to `output_schema`.
    pub projection: Vec<String>,
    /// Output schema with canonical (possibly qualified) names.
    pub output_schema: Schema,
    /// Indexable conjunctive predicate, columns in *canonical* names.
    pub cnf: Cnf,
    /// Non-indexable clauses, canonical names.
    pub residual: Vec<Expr>,
    /// Optional leaf-side partial aggregation (canonical names).
    pub agg: Option<AggStage>,
    /// Canonical → storage column-name mapping for the whole table.
    pub name_map: FxHashMap<String, String>,
}

/// Which tier of the storage hierarchy ultimately served a task's data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServedTier {
    /// No data was read at all: answered from cached SmartIndex bits, or
    /// skipped by the zone maps of a footer already resident on the node.
    /// A zone skip on the node's *first* touch of a block is not
    /// memory-served — it reads the footer from whatever tier holds the
    /// block, just never a column chunk.
    #[default]
    Memory,
    /// The DRAM tier of the per-node block cache.
    MemCache,
    /// The SSD tier of the per-node block cache (§IV-B).
    SsdCache,
    /// A replica on the executing node itself.
    LocalDisk,
    /// A replica across the network.
    Remote,
}

impl ServedTier {
    /// Label used in span attributes, EXPLAIN ANALYZE and `system.queries`.
    pub fn label(self) -> &'static str {
        match self {
            ServedTier::Memory => "memory",
            ServedTier::MemCache => "mem_cache",
            ServedTier::SsdCache => "ssd_cache",
            ServedTier::LocalDisk => "local_disk",
            ServedTier::Remote => "remote",
        }
    }
}

impl std::fmt::Display for ServedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-task accounting surfaced in query stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafTaskStats {
    pub index_hits: usize,
    pub index_built: usize,
    /// Indices built fresh but rejected by the cache (over budget). Each
    /// rejected build is also counted in `index_built`.
    pub index_rejected: usize,
    pub scanned_predicates: usize,
    pub pruned_by_zone: bool,
    /// Blocks skipped by footer zone maps before any column decode (0 or
    /// 1 per task today; a task covers one block).
    pub blocks_skipped: usize,
    /// Blocks whose column chunks were actually decoded.
    pub blocks_scanned: usize,
    /// Block bytes actually charged to storage.
    pub bytes_read: ByteSize,
    /// Whole task served from memory (no storage touch).
    pub served_from_memory: bool,
    /// Domain that owns the scanned block (`None` until the task touches
    /// storage — pruned/index-served tasks never resolve it).
    pub backend: Option<feisu_common::DomainId>,
    /// Cache tier that served the block bytes.
    pub served_tier: ServedTier,
    pub rows_in: usize,
    pub rows_out: usize,
}

/// The result a leaf sends up the tree.
#[derive(Debug)]
pub struct LeafOutput {
    /// Row data, or an aggregate transport batch when `is_agg_transport`.
    pub batch: RecordBatch,
    pub is_agg_transport: bool,
    pub tally: TimeTally,
    pub stats: LeafTaskStats,
}

/// One leaf server: a node plus its SmartIndex cache.
pub struct LeafServer {
    pub node: NodeId,
    index: IndexManager,
    cost: CostModel,
}

impl LeafServer {
    pub fn new(node: NodeId, index: IndexManager, cost: CostModel) -> Self {
        LeafServer { node, index, cost }
    }

    pub fn index(&self) -> &IndexManager {
        &self.index
    }

    /// Executes one scan task. `use_index` disables SmartIndex for the
    /// paper's baseline runs. Takes `&self`: the index cache locks
    /// internally, so concurrent tasks (including backup tasks rerouted
    /// from another node) are safe.
    pub fn execute(
        &self,
        task: &ScanTask,
        router: &StorageRouter,
        cred: &Credential,
        now: SimInstant,
        use_index: bool,
    ) -> Result<LeafOutput> {
        let mut stats = LeafTaskStats {
            rows_in: task.block.rows,
            ..Default::default()
        };
        let mut tally = TimeTally::new();
        // Rewrite predicate columns from canonical to storage names so
        // they match the block's schema.
        let cnf = rename_cnf(&task.cnf, &task.name_map);

        // 1. A bare global COUNT(*) is answered by its selection's bit
        // count, here when the whole CNF is cached, else after step 5.
        let count_only = task.agg.as_ref().is_some_and(|a| a.is_count_star_only());
        let counted = |rows: usize, tally, mut stats: LeafTaskStats| {
            stats.rows_out = rows;
            Ok(LeafOutput {
                batch: AggTable::count_star_transport(rows)?,
                is_agg_transport: true,
                tally,
                stats,
            })
        };
        if use_index && count_only && task.residual.is_empty() {
            if let Some(bits) = self.try_serve_from_cache(&cnf, task, now)? {
                stats.index_hits = cnf.clauses.iter().map(|c| c.disjuncts.len()).sum::<usize>();
                stats.served_from_memory = true;
                // In-memory bitmap algebra cost.
                tally.add_cpu(self.cost.predicate_eval(cnf.clauses.len().max(1)));
                return counted(bits.count_ones(), tally, stats);
            }
        }

        // 2. A footer this node already holds decides the zone-map skip
        // from memory: no storage read, no block-cache sighting, no parse.
        // The lookup authorizes the credential as the read below would.
        let clause_eval = self.cost.predicate_eval(cnf.clauses.len().max(1));
        let resident = router.resident_footer(&task.block.path, self.node, cred, now)?;
        let checked = resident.as_ref().map(Arc::as_ptr);
        if let Some(meta) = resident.as_ref().filter(|m| zones_disprove(&cnf, m)) {
            stats.pruned_by_zone = true;
            stats.blocks_skipped = 1;
            stats.served_from_memory = true;
            tally.add_io(self.cost.mem_cache_read(ByteSize(meta.meta_bytes as u64)));
            tally.add_cpu(clause_eval);
            return self.empty_output(task, tally, stats);
        }

        // 3. Read the block (charged for the touched column fraction). The
        // footer comes back with it: the resident one, or parsed here,
        // once, and resident from now on.
        let (read, meta) = router.read_block(&task.block.path, self.node, cred, now, resident)?;
        stats.backend = Some(router.domain_of(&task.block.path).id());
        stats.served_tier = match read.cache_tier {
            Some(CacheTier::Memory) => ServedTier::MemCache,
            Some(CacheTier::Ssd) => ServedTier::SsdCache,
            None if read.hops == 0 => ServedTier::LocalDisk,
            None => ServedTier::Remote,
        };
        // Cost primitives for this read's serving tier: a memory-tier
        // cache hit pays the cache access floor instead of a device seek,
        // and streams at memory rates. Every other tier keeps the plain
        // medium model, so non-cache arithmetic below is unchanged.
        let mem_tier = read.cache_tier == Some(CacheTier::Memory);
        let access = if mem_tier {
            self.cost.mem_cache_seek
        } else {
            self.cost.seek(read.medium)
        };
        let plain_read = |size: ByteSize| {
            if mem_tier {
                self.cost.mem_cache_read(size)
            } else {
                self.cost.read(read.medium, size)
            }
        };

        // 4. Zone-map skip on a first touch: evaluate the CNF against the
        // zone maps of a footer parsed for this task (the resident one was
        // checked above) before decoding anything. A block whose zones
        // disprove one conjunct is skipped entirely — no chunk
        // decompression, no SmartIndex probe; storage is charged only for
        // the metadata (envelope + footer) bytes the decision needed.
        if checked != Some(Arc::as_ptr(&meta)) && zones_disprove(&cnf, &meta) {
            stats.pruned_by_zone = true;
            stats.blocks_skipped = 1;
            let meta_size = ByteSize(meta.meta_bytes as u64);
            stats.bytes_read = meta_size;
            // Domain-specific fixed penalties still apply: the footer
            // read wakes a cold Fatman volume like any other read.
            let domain_extra = read
                .cost
                .io
                .saturating_sub(plain_read(task.block.stored_size));
            tally.add_io(domain_extra + plain_read(meta_size));
            tally.add_network(self.cost.network(read.hops, meta_size));
            tally.add_cpu(clause_eval);
            return self.empty_output(task, tally, stats);
        }
        stats.blocks_scanned = 1;

        // Phase one, evaluate: decode only the columns the selection is
        // computed from — predicate columns not servable from cached bits,
        // residual columns — using the footer's offset directory. The full
        // stored schema still drives the cost model below.
        let full_schema = &meta.schema;
        let needed = self.decode_set(full_schema, task, &cnf, now, use_index);
        let needed: Vec<&str> = needed.iter().map(|s| s.as_str()).collect();
        let mut block = meta.decode_columns(&read.data, &needed)?;

        // Bitmap evaluation via SmartIndex (or raw scans when disabled).
        let outcome = match evaluate_cnf(use_index.then_some(&self.index), &block, &cnf, now) {
            // A predicate we expected to serve from cache lost its entry
            // between planning the decode set and probing (concurrent
            // insert pressure from a backup task): decode everything and
            // retry once.
            Err(FeisuError::Index(_)) if block.schema().len() < full_schema.len() => {
                block = meta.decode_all(&read.data)?;
                evaluate_cnf(use_index.then_some(&self.index), &block, &cnf, now)?
            }
            other => other?,
        };
        for (_, kind) in &outcome.probes {
            match kind {
                ProbeKind::Hit | ProbeKind::NegatedHit => stats.index_hits += 1,
                ProbeKind::BuiltFresh => stats.index_built += 1,
                ProbeKind::BuiltRejected => {
                    stats.index_built += 1;
                    stats.index_rejected += 1;
                }
                ProbeKind::Scanned => stats.scanned_predicates += 1,
            }
        }

        // Columns actually touched: projection (none of it when the task
        // only counts) + predicate columns that were *not* index-served +
        // residual columns. Each column is its own on-disk extent, so the
        // scan pays one access latency per touched column plus the
        // streaming cost of their bytes — this is where the columnar
        // format's I/O saving (and SmartIndex's avoided predicate columns)
        // shows up.
        let projected: &[String] = if count_only { &[] } else { &task.projection };
        let (touched, ncols) =
            touched_fraction(full_schema, projected, task, &outcome.probes, &cnf);
        let size = task.block.stored_size;
        let charged = ByteSize((size.as_u64() as f64 * touched).ceil() as u64);
        stats.bytes_read = charged;
        // Domain-specific fixed penalties (e.g. Fatman's cold-read wakeup)
        // are whatever the domain charged beyond the plain medium model.
        let domain_extra = read.cost.io.saturating_sub(plain_read(size));
        tally.add_io(
            domain_extra
                + access * ncols.max(1) as u64
                + plain_read(charged).saturating_sub(access),
        );
        // Per-hop switch latency is paid in full; only the per-byte part
        // shrinks with the touched fraction.
        tally.add_network(self.cost.network(read.hops, charged));
        tally.add_cpu(self.cost.decompress(charged));
        // Predicate evaluation CPU: only freshly evaluated predicates.
        let evaluated = stats.index_built + stats.scanned_predicates;
        tally.add_cpu(self.cost.predicate_eval(evaluated * block.rows()));

        // 5. Residual row-wise filtering.
        let mut bits = outcome.bits;
        if !task.residual.is_empty() || !outcome.residual.is_empty() {
            let residuals: Vec<Expr> = task
                .residual
                .iter()
                .map(|e| rename_expr(e, &task.name_map))
                .chain(outcome.residual.iter().cloned())
                .collect();
            bits = apply_residual(&block, &bits, &residuals)?;
            tally.add_cpu(self.cost.predicate_eval(residuals.len() * block.rows()));
        }

        if count_only {
            return counted(bits.count_ones(), tally, stats);
        }

        // 6. Phase two, materialize: project + rename to the canonical
        // output schema. A column phase one decoded is gathered by the
        // selection words; any other is decoded through the selection, each
        // distinct name once, so unselected rows are never built.
        stats.rows_out = bits.count_ones();
        let words = bits.words();
        let mut late: Vec<&str> = Vec::new();
        for name in &task.projection {
            if block.column_by_name(name).is_none() && !late.contains(&name.as_str()) {
                if full_schema.index_of(name).is_none() {
                    return Err(FeisuError::Execution(format!(
                        "block {} missing column `{name}`",
                        task.block.id
                    )));
                }
                late.push(name);
            }
        }
        let mut decoded = meta.decode_selected(&read.data, &late, words)?.into_iter();
        let mut columns: Vec<Column> = Vec::with_capacity(task.projection.len());
        for (k, name) in task.projection.iter().enumerate() {
            let column = match block.column_by_name(name) {
                Some(c) => c.filter_by_words(words),
                // `late` lists names in order of first use: that use moves
                // the decoded column into place, a repeat copies it.
                None => match task.projection[..k].iter().position(|n| n == name) {
                    Some(first) => columns[first].clone(),
                    None => decoded.next().expect("one column per late name"),
                },
            };
            columns.push(column);
        }
        let batch = RecordBatch::new(task.output_schema.clone(), columns)?;

        // 7. Optional leaf-side partial aggregation.
        if let Some(agg) = &task.agg {
            let mut table = AggTable::new(agg.group_by.clone(), agg.aggregates.clone());
            table.update(&batch)?;
            tally.add_cpu(self.cost.agg_update(batch.rows()));
            let transport = table.to_transport()?;
            return Ok(LeafOutput {
                batch: transport,
                is_agg_transport: true,
                tally,
                stats,
            });
        }
        Ok(LeafOutput {
            batch,
            is_agg_transport: false,
            tally,
            stats,
        })
    }

    /// Tries to answer the whole CNF from cached indices (direct or
    /// negated hits only — nothing is built, nothing is read).
    fn try_serve_from_cache(
        &self,
        cnf: &Cnf,
        task: &ScanTask,
        now: SimInstant,
    ) -> Result<Option<BitVec>> {
        use feisu_sql::cnf::Disjunct;
        // First pass: liveness feasibility check — no stats pollution, no
        // scratch predicate clones (the manager keys the negated probe
        // from borrowed parts).
        for clause in &cnf.clauses {
            for d in &clause.disjuncts {
                let Disjunct::Simple(p) = d else {
                    return Ok(None);
                };
                if !self.index.servable(task.block.id, p, now) {
                    return Ok(None);
                }
            }
        }
        // All present: probe each predicate directly against the manager
        // (records hits in stats, refreshes LRU); with no miss possible
        // there is no block to hand the rewriter.
        let rows = task.block.rows;
        let mut bits = BitVec::ones(rows);
        for clause in &cnf.clauses {
            let mut clause_bits = BitVec::zeros(rows);
            for d in &clause.disjuncts {
                let Disjunct::Simple(p) = d else {
                    unreachable!()
                };
                let pbits = if let Some(idx) = self.index.get(task.block.id, p, now) {
                    idx.bits()
                } else if let Some(idx) = self.index.get_negated(task.block.id, p, now) {
                    idx.negated_bits()
                } else {
                    return Ok(None); // raced eviction between the passes
                };
                clause_bits.or_assign(&pbits)?;
            }
            bits.and_assign(&clause_bits)?;
        }
        Ok(Some(bits))
    }

    /// Storage-side column names the selection is computed from:
    /// predicate columns not currently servable from cached bits ∪
    /// residual columns. This is phase one's decode set — the projection
    /// is materialized afterwards, through the selection; names the stored
    /// schema lacks are dropped so downstream lookups surface the same
    /// errors a full decode would.
    fn decode_set(
        &self,
        schema: &Schema,
        task: &ScanTask,
        cnf: &Cnf,
        now: SimInstant,
        use_index: bool,
    ) -> Vec<String> {
        use feisu_sql::cnf::Disjunct;
        let mut needed: Vec<String> = Vec::new();
        let mut residual_cols = Vec::new();
        for clause in &cnf.clauses {
            let all_simple = clause
                .disjuncts
                .iter()
                .all(|d| matches!(d, Disjunct::Simple(_)));
            if all_simple {
                for d in &clause.disjuncts {
                    let Disjunct::Simple(p) = d else {
                        unreachable!()
                    };
                    if !use_index || !self.index.servable(task.block.id, p, now) {
                        push_unique(&mut needed, &p.column);
                    }
                }
            } else {
                // The whole clause is evaluated row-wise (evaluate_cnf
                // turns it into one residual expression), so every column
                // it mentions is read.
                clause.to_expr().columns(&mut residual_cols);
            }
        }
        for e in &task.residual {
            e.columns(&mut residual_cols);
        }
        for c in &residual_cols {
            // Residual columns are canonical; map them via name_map.
            let storage = task.name_map.get(c).map(|s| s.as_str()).unwrap_or(c);
            push_unique(&mut needed, storage);
        }
        needed.retain(|n| schema.index_of(n).is_some());
        needed
    }

    fn empty_output(
        &self,
        task: &ScanTask,
        tally: TimeTally,
        stats: LeafTaskStats,
    ) -> Result<LeafOutput> {
        if let Some(agg) = &task.agg {
            let table = AggTable::new(agg.group_by.clone(), agg.aggregates.clone());
            return Ok(LeafOutput {
                batch: table.to_transport()?,
                is_agg_transport: true,
                tally,
                stats,
            });
        }
        Ok(LeafOutput {
            batch: RecordBatch::empty(task.output_schema.clone()),
            is_agg_transport: false,
            tally,
            stats,
        })
    }

    /// Warm-up hook: pre-builds and pins an index for a predicate (the
    /// client layer's per-user personalization, §III-C).
    pub fn pin_index(
        &self,
        block: &Block,
        predicate: &feisu_sql::cnf::SimplePredicate,
        now: SimInstant,
    ) -> Result<()> {
        let idx = feisu_index::SmartIndex::build(block, predicate, now)?;
        self.index.insert_pinned(idx, now);
        Ok(())
    }
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// Footer zone-map disproof: true when some CNF conjunct provably matches
/// no row of the block, i.e. *every* disjunct of that clause is a simple
/// predicate the footer's zones rule out. `cnf` is in storage names.
/// Conservative throughout: a footer without zones, a residual disjunct,
/// an unknown column, or missing bounds on a not-all-null column all mean
/// the clause might match and the block must be scanned.
fn zones_disprove(cnf: &Cnf, meta: &BlockMeta) -> bool {
    use feisu_sql::cnf::Disjunct;
    let Some(zones) = &meta.zones else {
        return false;
    };
    let (schema, rows) = (&meta.schema, meta.rows);
    cnf.clauses.iter().any(|clause| {
        !clause.disjuncts.is_empty()
            && clause.disjuncts.iter().all(|d| {
                let Disjunct::Simple(p) = d else {
                    return false;
                };
                let Some(i) = schema.index_of(&p.column) else {
                    return false;
                };
                let Some(zone) = zones.get(i) else {
                    return false;
                };
                match (&zone.min, &zone.max) {
                    (Some(min), Some(max)) => !zonemap::may_match(min, max, p.op, &p.value),
                    // No bounds: disproven only when provably all-null
                    // (or empty) — a comparison is never true on NULL.
                    _ => zone.null_count == rows,
                }
            })
    })
}

/// Fraction of the block's bytes the scan must touch (by estimated
/// column widths) and the count of touched columns: the `projected`
/// columns it materializes plus predicate/residual columns that were
/// actually evaluated (index-served predicate columns are skipped).
fn touched_fraction(
    schema: &Schema,
    projected: &[String],
    task: &ScanTask,
    probes: &[(feisu_sql::cnf::SimplePredicate, ProbeKind)],
    cnf: &Cnf,
) -> (f64, usize) {
    let mut needed: Vec<&str> = projected.iter().map(|s| s.as_str()).collect();
    for (p, kind) in probes {
        if matches!(
            kind,
            ProbeKind::BuiltFresh | ProbeKind::BuiltRejected | ProbeKind::Scanned
        ) && !needed.contains(&p.column.as_str())
        {
            needed.push(&p.column);
        }
    }
    let mut residual_cols = Vec::new();
    for e in &task.residual {
        e.columns(&mut residual_cols);
    }
    for clause in &cnf.clauses {
        for d in &clause.disjuncts {
            if let feisu_sql::cnf::Disjunct::Residual(e) = d {
                e.columns(&mut residual_cols);
            }
        }
    }
    for c in &residual_cols {
        // Residual columns are canonical; map them via name_map.
        let storage = task.name_map.get(c).map(|s| s.as_str()).unwrap_or(c);
        if !needed.contains(&storage) {
            needed.push(storage);
        }
    }
    let total: usize = schema
        .fields()
        .iter()
        .map(|f| f.data_type.estimated_width())
        .sum();
    if total == 0 {
        return (1.0, schema.len());
    }
    let touched_fields: Vec<&feisu_format::Field> = schema
        .fields()
        .iter()
        .filter(|f| needed.contains(&f.name.as_str()))
        .collect();
    let touched: usize = touched_fields
        .iter()
        .map(|f| f.data_type.estimated_width())
        .sum();
    (
        (touched as f64 / total as f64).clamp(0.0, 1.0),
        touched_fields.len(),
    )
}

fn apply_residual(block: &Block, bits: &BitVec, residuals: &[Expr]) -> Result<BitVec> {
    // Evaluate residuals row-wise only on rows still selected, reading
    // the block's columns in place through a borrowed view.
    let view = BatchView::new(block.schema(), block.columns());
    let mut out = BitVec::zeros(bits.len());
    'rows: for i in bits.iter_ones() {
        let row = view.row(i);
        for e in residuals {
            if !eval_truth(e, &row)?.passes() {
                continue 'rows;
            }
        }
        out.set(i, true);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_cluster::Topology;
    use feisu_common::config::CacheSettings;
    use feisu_common::{BlockId, DomainId, SimDuration, UserId};
    use feisu_format::block::chunk_decodes_on_this_thread as chunk_decodes;
    use feisu_format::block::footer_parses_on_this_thread as parses;
    use feisu_format::{DataType, Field};
    use feisu_obs::MetricsRegistry;
    use feisu_sql::ast::AggFunc;
    use feisu_sql::cnf::{to_cnf, Disjunct};
    use feisu_sql::parser::parse_expr;
    use feisu_sql::plan::AggExpr;
    use feisu_storage::auth::{AuthService, Grant};
    use feisu_storage::{CachePin, CacheStats, Domain, TieredCache};

    struct Rig {
        leaf: LeafServer,
        router: StorageRouter,
        cred: Credential,
        block: BlockDesc,
        /// The block as written, for decode-everything references.
        stored: Block,
        registry: MetricsRegistry,
    }

    /// One 256-row block (`a` = 0..256, `b` = a % 50) on HDFS, read from
    /// node 0 through a block cache that admits everything.
    fn rig() -> Rig {
        let topology = Arc::new(Topology::grid(1, 2, 2));
        let cost = CostModel::default();
        let hdfs = Domain::hdfs(DomainId(1), "hdfs", topology, cost.clone(), 3, 7);
        let auth = Arc::new(AuthService::new(9));
        auth.register(UserId(1));
        auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
        let cred = auth
            .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
            .unwrap();
        let cache = TieredCache::new(
            CacheSettings {
                enabled: true,
                ..CacheSettings::default()
            },
            vec![CachePin {
                path_prefix: "/".into(),
            }],
        );
        let router = StorageRouter::new(vec![hdfs], 0, auth, Some(Arc::new(cache)), cost.clone());
        let registry = MetricsRegistry::new();
        router.attach_metrics(&registry);
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ]);
        let columns = vec![
            Column::from_i64((0..256).collect()),
            Column::from_i64((0..256).map(|i| i % 50).collect()),
        ];
        let stored = Block::new(BlockId(0), schema, columns).unwrap();
        let bytes = stored.serialize();
        let block = BlockDesc {
            id: stored.id(),
            path: "/t/b0".into(),
            rows: stored.rows(),
            stored_size: ByteSize(bytes.len() as u64),
            raw_size: ByteSize(stored.footprint() as u64),
        };
        router
            .write("/t/b0", bytes.into(), Some(NodeId(0)), &cred, SimInstant(0))
            .unwrap();
        let index = IndexManager::new(ByteSize::mib(4), SimDuration::hours(72));
        Rig {
            leaf: LeafServer::new(NodeId(0), index, cost),
            router,
            cred,
            block,
            stored,
            registry,
        }
    }

    fn count_star() -> AggStage {
        AggStage {
            group_by: Vec::new(),
            aggregates: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "COUNT(*)".into(),
                output_type: DataType::Int64,
            }],
        }
    }

    impl Rig {
        /// `SELECT a FROM t WHERE predicate` over the block, the predicate
        /// split into indexable clauses and residuals as lowering does.
        fn task(&self, predicate: &str) -> ScanTask {
            let field = Field::new("a", DataType::Int64, false);
            let names = ["a", "b"].map(|n| (n.to_string(), n.to_string()));
            let simple = |d: &Disjunct| matches!(d, Disjunct::Simple(_));
            let (cnf, residual): (Vec<_>, Vec<_>) = to_cnf(&parse_expr(predicate).unwrap())
                .clauses
                .into_iter()
                .partition(|c| c.disjuncts.iter().all(simple));
            ScanTask {
                table: "t".into(),
                block: self.block.clone(),
                projection: vec!["a".into()],
                output_schema: Schema::new(vec![field]),
                cnf: Cnf { clauses: cnf },
                residual: residual.iter().map(|c| c.to_expr()).collect(),
                agg: None,
                name_map: names.into_iter().collect(),
            }
        }

        fn run(&self, predicate: &str) -> LeafOutput {
            // SmartIndex off: every repeat goes back to the block.
            let task = self.task(predicate);
            self.leaf
                .execute(&task, &self.router, &self.cred, SimInstant(0), false)
                .unwrap()
        }

        /// `SELECT COUNT(*) FROM t WHERE predicate`, still projecting `a`;
        /// returns the output and the column chunks the task decoded.
        fn count(&self, predicate: &str, use_index: bool) -> (LeafOutput, u64) {
            let mut task = self.task(predicate);
            task.agg = Some(count_star());
            let before = chunk_decodes();
            let out = self
                .leaf
                .execute(&task, &self.router, &self.cred, SimInstant(0), use_index)
                .unwrap();
            assert!(out.is_agg_transport);
            // The reference: decode everything, keep the rows the predicate
            // passes, fold them through an `AggTable`.
            let block = &self.stored;
            let all = BitVec::ones(block.rows());
            let predicate = [parse_expr(predicate).unwrap()];
            let kept = apply_residual(block, &all, &predicate).unwrap();
            let columns = block.columns().iter();
            let columns = columns.map(|c| c.filter_by_words(kept.words())).collect();
            let rows = RecordBatch::new(block.schema().clone(), columns).unwrap();
            let agg = count_star();
            let mut table = AggTable::new(agg.group_by, agg.aggregates);
            table.update(&rows).unwrap();
            assert_eq!(out.batch, table.to_transport().unwrap(), "{predicate:?}");
            assert_eq!(out.stats.rows_out, kept.count_ones());
            (out, chunk_decodes() - before)
        }

        /// `share` of the block's stored bytes, as `bytes_read` rounds it.
        fn bytes_of(&self, share: f64) -> ByteSize {
            ByteSize((self.block.stored_size.as_u64() as f64 * share).ceil() as u64)
        }

        fn domain_reads(&self) -> u64 {
            self.registry.counter("feisu.storage.hdfs.reads").get()
        }

        fn cache_stats(&self) -> CacheStats {
            self.router.cache().unwrap().stats()
        }
    }

    #[test]
    fn a_task_parses_its_footer_at_most_once_and_a_warm_task_never() {
        let r = rig();
        let before = parses();
        let cold = r.run("b > 10");
        assert_eq!(
            parses() - before,
            1,
            "zone check and decode share one parse"
        );
        assert_eq!(cold.stats.blocks_scanned, 1);
        let warm = r.run("b > 20");
        assert_eq!(parses() - before, 1, "the footer is resident now");
        assert_eq!(warm.stats.blocks_scanned, 1);
        assert!(warm.stats.rows_out < cold.stats.rows_out);
        // A first-touch skip parses once as well.
        let other = rig();
        let before = parses();
        assert!(other.run("a > 1000").stats.pruned_by_zone);
        assert_eq!(parses() - before, 1);
    }

    #[test]
    fn a_resident_footer_skip_touches_neither_storage_nor_the_block_cache() {
        let r = rig();
        let first = r.run("a > 1000");
        assert!(first.stats.pruned_by_zone && !first.stats.served_from_memory);
        assert!(first.stats.bytes_read > ByteSize::ZERO);
        assert!(first.stats.backend.is_some());
        let (reads, cache, before) = (r.domain_reads(), r.cache_stats(), parses());
        assert_eq!(reads, 1);

        let again = r.run("a > 1000");
        assert_eq!(again.batch, first.batch);
        assert_eq!(again.stats.blocks_skipped, 1);
        assert!(again.stats.pruned_by_zone && again.stats.served_from_memory);
        assert_eq!(again.stats.served_tier, ServedTier::Memory);
        assert_eq!(again.stats.bytes_read, ByteSize::ZERO);
        assert_eq!(again.stats.backend, None);
        // No domain.read_from, no cache.get / admit, no parse.
        assert_eq!(r.domain_reads(), reads);
        assert_eq!(r.cache_stats(), cache);
        assert_eq!(parses(), before);
        // Billed as a memory touch of the footer plus the clause check.
        let cost = CostModel::default();
        let meta = r.router.footers().get(NodeId(0), "/t/b0").unwrap();
        let footer = ByteSize(meta.meta_bytes as u64);
        assert_eq!(again.tally.io, cost.mem_cache_read(footer));
        assert_eq!(again.tally.cpu, cost.predicate_eval(1));
        assert_eq!(again.tally.network, SimDuration::ZERO);
        assert!(again.tally.total() < first.tally.total());

        // A predicate the same footer cannot disprove reads as ever.
        let scan = r.run("a > 100");
        assert_eq!((scan.stats.blocks_scanned, scan.stats.rows_out), (1, 155));
        assert!(!scan.stats.served_from_memory);
        assert_eq!(parses(), before);
    }

    #[test]
    fn a_count_decodes_the_columns_it_evaluates_and_no_projection() {
        let cost = CostModel::default();
        // SmartIndex off. One simple predicate: `b` is decoded, scanned and
        // billed; the projected `a` is neither read nor charged, and no
        // row is charged to an aggregate update.
        let r = rig();
        let (out, decoded) = r.count("b > 10", false);
        assert_eq!(decoded, 1, "`b` only");
        assert_eq!(out.stats.scanned_predicates, 1);
        assert_eq!(out.stats.bytes_read, r.bytes_of(0.5));
        let evaluate = cost.decompress(r.bytes_of(0.5)) + cost.predicate_eval(256);
        assert_eq!(out.tally.cpu, evaluate);
        // The same statement selecting `a` pays a second extent on top.
        let rows = rig().run("b > 10");
        assert_eq!(rows.stats.bytes_read, r.block.stored_size);
        assert_eq!(rows.stats.rows_out, out.stats.rows_out);
        assert!(out.tally.io < rows.tally.io, "one access fewer");
        assert!(out.tally.cpu < rows.tally.cpu);

        // A residual clause and an OR of simple predicates name both
        // columns: both are evaluated, so both are decoded and billed.
        let (out, decoded) = r.count("a + b > 250", false);
        assert_eq!((decoded, out.stats.scanned_predicates), (2, 0));
        assert_eq!(out.stats.bytes_read, r.block.stored_size);
        let (out, decoded) = r.count("a < 10 OR b > 40", false);
        assert_eq!((decoded, out.stats.scanned_predicates), (2, 2));
        assert_eq!(out.stats.bytes_read, r.block.stored_size);
        // A residual beside an indexable clause: the selection is final
        // only after both.
        let (both, decoded) = r.count("b > 10 AND a + b > 250", false);
        assert_eq!(decoded, 2);
        assert_eq!(both.stats.rows_out, 24, "a in 226..=249");

        // A predicate naming no column: the block is read for its footer
        // alone.
        let (out, decoded) = r.count("1 = 1", false);
        assert_eq!((decoded, out.stats.rows_out), (0, 256));
        assert_eq!(out.stats.bytes_read, ByteSize::ZERO);
        assert_eq!(out.stats.blocks_scanned, 1);
    }

    #[test]
    fn a_count_with_smartindex_builds_then_hits_then_reads_nothing() {
        let r = rig();
        // Built: `b` is decoded once to build its vector.
        let (built, decoded) = r.count("b > 10", true);
        assert_eq!((decoded, built.stats.index_built), (1, 1));
        assert_eq!(built.stats.bytes_read, r.bytes_of(0.5));
        // Hit beside a build: `b > 10` comes from its bits, `a` is read.
        let (hit, decoded) = r.count("b > 10 AND a < 100", true);
        assert_eq!(decoded, 1, "`a` only");
        assert_eq!((hit.stats.index_hits, hit.stats.index_built), (1, 1));
        assert_eq!(hit.stats.bytes_read, r.bytes_of(0.5));
        assert!(!hit.stats.served_from_memory);
        // Hit under a residual: the bits are not the final selection, so
        // the block is read for the residual's columns and for no other.
        let (mixed, decoded) = r.count("b > 10 AND a + b > 250", true);
        assert_eq!((decoded, mixed.stats.index_hits), (2, 1));
        // Fully cached: no storage touch at all.
        let reads = r.domain_reads();
        let cache = r.cache_stats();
        let (cached, decoded) = r.count("b > 10 AND a < 100", true);
        assert_eq!((decoded, cached.stats.index_hits), (0, 2));
        assert!(cached.stats.served_from_memory);
        assert_eq!(cached.stats.bytes_read, ByteSize::ZERO);
        assert_eq!(cached.stats.backend, None);
        assert_eq!((r.domain_reads(), r.cache_stats()), (reads, cache));
        assert_eq!(cached.tally.io, SimDuration::ZERO);
        assert_eq!(cached.tally.cpu, CostModel::default().predicate_eval(2));
    }

    #[test]
    fn a_count_over_a_block_the_zones_disprove_is_zero_from_the_footer() {
        let r = rig();
        let (first, decoded) = r.count("a > 1000", false);
        assert_eq!(decoded, 0);
        assert!(first.stats.pruned_by_zone && !first.stats.served_from_memory);
        assert_eq!(first.stats.rows_out, 0);
        let (again, decoded) = r.count("a > 1000", false);
        assert_eq!(decoded, 0);
        assert!(again.stats.pruned_by_zone && again.stats.served_from_memory);
        assert_eq!(again.batch, first.batch);
    }
}
