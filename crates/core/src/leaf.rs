//! Leaf servers — where scans actually run (paper §III-B, Fig. 3 steps
//! 3–5).
//!
//! A leaf answers a scan sub-plan for one block down one ladder, in the
//! paper's order of preference ("all computations are conducted in memory.
//! No scan operation is actually needed", §IV-C-3). Each rung answers or
//! hands the next its state: (1) a bare `COUNT(*)` whose every predicate
//! has cached SmartIndex bits counts them; (2) the footer's zone maps,
//! from the node's resident footer without a read, else from the one read
//! with the block, classify each clause: one they disprove skips the
//! block, one they prove for every row leaves the task; (3) the fetch reads
//! the chunks the rest touch; (4) phase one decodes the columns the
//! selection is computed from and evaluates it; (5) a count is its bit
//! count, anything else decodes its projection through it; (6) the
//! optional partial aggregation. SmartIndex is looked up once per
//! predicate, and a handle the task holds serves even if the entry is
//! evicted before its turn. Every rung records what it touched in one
//! `Touch`, and one `bill` prices every exit: storage reports what served
//! each chunk, and the bill is the only price list for a block read.

use feisu_cluster::simclock::TimeTally;
use feisu_cluster::{CostModel, StorageMedium};
use feisu_common::hash::FxHashMap;
use feisu_common::{ByteSize, DomainId, FeisuError, NodeId, Result, SimInstant};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::{BatchView, RecordBatch};
use feisu_exec::physical::TopK;
use feisu_exec::sort;
use feisu_format::table::BlockDesc;
use feisu_format::{BitVec, Block, BlockMeta, Column, Described, Field, Schema};
use feisu_index::manager::{Held, IndexManager, PredicateKeys};
use feisu_index::rewrite::{evaluate_held, ProbeKind};
use feisu_index::zonemap::{self, Verdict};
use feisu_index::SmartIndex;
use feisu_sql::ast::Expr;
use feisu_sql::cnf::{Clause, Cnf, Disjunct, SimplePredicate};
use feisu_sql::eval::eval_truth;
use feisu_storage::auth::Credential;
use feisu_storage::{BlockRead, CacheTier, Domain, StorageRouter};
use std::borrow::Cow;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::{Arc, OnceLock};

// The partial-aggregation stage is the planner's type, so the logical
// layer, the physical layer and the leaves share one.
pub use feisu_sql::plan::AggStage;

/// One scan task over one block: the scan's parts owned, for callers
/// that hold no plan node. [`LeafServer::execute`] runs it through its
/// [`ScanView`].
#[derive(Debug, Clone)]
pub struct ScanTask {
    pub table: String,
    pub block: BlockDesc,
    /// Storage column names to project, parallel to `output_schema`.
    pub projection: Vec<String>,
    /// Output schema with canonical (possibly qualified) names.
    pub output_schema: Schema,
    /// Indexable conjunctive predicate, columns in storage names.
    pub cnf: Cnf,
    /// Non-indexable clauses, storage names.
    pub residual: Vec<Expr>,
    /// Optional leaf-side partial aggregation (canonical names: it runs
    /// over the projected batch).
    pub agg: Option<AggStage>,
    /// Read by nothing in the engine, which passes it empty: `cnf` and
    /// `residual` arrive in storage names. Kept only because the
    /// benchmark harness names it; deleted with that harness's port.
    pub name_map: FxHashMap<String, String>,
}

impl ScanTask {
    /// The task's scan, borrowed.
    fn view(&self) -> ScanView<'_> {
        let agg = self.agg.as_ref();
        ScanView::new(
            &self.projection,
            &self.output_schema,
            &self.cnf,
            &self.residual,
            agg,
        )
    }
}

/// One scan as each of its tasks reads it: the parts every task shares,
/// borrowed from the scan's plan node once per scan, and the answer of a
/// task that keeps nothing, built the first time one is asked for.
#[derive(Debug)]
pub struct ScanView<'a> {
    /// Storage column names to project, parallel to `output_schema`.
    projection: &'a [String],
    /// Output schema with canonical (possibly qualified) names.
    output_schema: &'a Schema,
    /// Indexable conjunctive predicate, columns in storage names.
    cnf: &'a Cnf,
    /// Non-indexable clauses, storage names.
    residual: &'a [Expr],
    /// Optional leaf-side partial aggregation (canonical names: it runs
    /// over the projected batch).
    agg: Option<&'a AggStage>,
    /// The aggregate stage's zero-state transport, else an empty batch of
    /// the output schema: one batch, shared by every task that answers it.
    empty: OnceLock<RecordBatch>,
    /// The SmartIndex keys of the CNF's simple predicates, in probe order.
    keys: OnceLock<Vec<PredicateKeys>>,
}

impl<'a> ScanView<'a> {
    pub fn new(
        projection: &'a [String],
        output_schema: &'a Schema,
        cnf: &'a Cnf,
        residual: &'a [Expr],
        agg: Option<&'a AggStage>,
    ) -> ScanView<'a> {
        ScanView {
            projection,
            output_schema,
            cnf,
            residual,
            agg,
            empty: OnceLock::new(),
            keys: OnceLock::new(),
        }
    }

    /// What a task or a scan that kept nothing answers: a clone of the one
    /// batch, which copies no column.
    pub(crate) fn empty_answer(&self) -> Result<RecordBatch> {
        if let Some(empty) = self.empty.get() {
            return Ok(empty.clone());
        }
        let empty = match self.agg {
            Some(agg) => {
                let table = AggTable::new(agg.group_by.clone(), agg.aggregates.clone());
                table.into_transport()?
            }
            None => RecordBatch::empty(self.output_schema.clone()),
        };
        Ok(self.empty.get_or_init(|| empty).clone())
    }

    /// The empty answer, if a task has answered it yet.
    pub(crate) fn answered_empty(&self) -> Option<&RecordBatch> {
        self.empty.get()
    }

    fn keys(&self) -> &[PredicateKeys] {
        (self.keys).get_or_init(|| PredicateKeys::all(simple_predicates(self.cnf)))
    }
}

/// Which tier of the storage hierarchy ultimately served a task's data:
/// of the tiers that served its chunks, the slowest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Blocks skipped by footer zone maps before any column decode (0 or
    /// 1 per task today; a task covers one block).
    pub blocks_skipped: usize,
    /// Blocks whose column chunks were actually decoded.
    pub blocks_scanned: usize,
    /// CNF clauses the footer zone maps proved for every row of the
    /// block: their columns were never read, built or evaluated.
    pub proved_clauses: usize,
    /// Block bytes actually charged to storage.
    pub bytes_read: ByteSize,
    /// Whole task served from memory (no storage touch).
    pub served_from_memory: bool,
    /// Domain that owns the scanned block (`None` until the task touches
    /// storage — pruned/index-served tasks never resolve it).
    pub backend: Option<DomainId>,
    /// The slowest tier that served a chunk of the block.
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

impl LeafOutput {
    /// ORDER BY … LIMIT k inside the tree: cuts the batch to its first k
    /// rows under the keys of `top`, billing the sort as CPU, and hands
    /// back the batch it replaced. A batch of at most k rows is left as it
    /// is. Equal keys keep their input order, so every row of the global
    /// top k survives its block's cut.
    pub fn keep_top(&mut self, (keys, k): &TopK, cost: &CostModel) -> Result<Option<RecordBatch>> {
        if self.batch.rows() as u64 <= *k {
            return Ok(None);
        }
        self.tally.add_cpu(cost.sort(self.batch.rows()));
        let cut = sort::sort(&self.batch, keys, Some(*k))?;
        Ok(Some(std::mem::replace(&mut self.batch, cut)))
    }
}

/// One leaf server: a node plus its SmartIndex cache.
pub struct LeafServer {
    pub node: NodeId,
    index: IndexManager,
    cost: CostModel,
}

/// What every rung of the ladder reads.
struct Climb<'a> {
    scan: &'a ScanView<'a>,
    block: &'a BlockDesc,
    /// The scan's CNF, in the storage names of the block's schema.
    cnf: &'a Cnf,
    /// The task is a bare global `COUNT(*)`.
    counts: bool,
    router: &'a StorageRouter,
    cred: &'a Credential,
    now: SimInstant,
    /// The SmartIndex cache, unless the task runs without it.
    index: Option<&'a IndexManager>,
}

impl Climb<'_> {
    /// The cache keys of the CNF's simple predicates, in probe order: none
    /// without SmartIndex.
    fn keys(&self) -> &[PredicateKeys] {
        match self.index {
            Some(_) => self.scan.keys(),
            None => &[],
        }
    }
}

/// What a task touched on its way down the ladder: all that
/// [`LeafServer::bill`] prices.
#[derive(Default)]
struct Touch<'a> {
    /// What the rungs count as they go: rows in and out, index probes.
    stats: LeafTaskStats,
    stored_size: ByteSize,
    /// CNF clauses: a decision from cached bits or zones costs one
    /// predicate evaluation each.
    clauses: usize,
    /// The footer's zones disproved a CNF clause: the block is skipped.
    skipped: bool,
    /// The footer the task decided on, when the fetch found the block
    /// rewritten: a clause is proved only where it and the footer of the
    /// bytes read both prove it.
    decided: Option<Arc<BlockMeta>>,
    /// From the footer decision on, the task's one record of its block —
    /// the footer it decides on and each chunk read with the tier that
    /// served it — and the block's domain.
    read: Option<(BlockRead, &'a Domain)>,
    /// Storage names of the columns evaluated and materialized; one the
    /// block lacks is neither decoded nor billed.
    evaluated: Vec<String>,
    materialized: &'a [String],
    /// Block rows, which each fresh evaluation and each of the `residuals`
    /// ran over, and rows the aggregate folded.
    rows: usize,
    residuals: usize,
    aggregated: usize,
}

impl LeafTaskStats {
    fn probed(&mut self, kind: ProbeKind) {
        match kind {
            ProbeKind::Hit | ProbeKind::NegatedHit => self.index_hits += 1,
            ProbeKind::BuiltFresh => self.index_built += 1,
            ProbeKind::BuiltRejected => {
                self.index_built += 1;
                self.index_rejected += 1;
            }
            ProbeKind::Scanned => self.scanned_predicates += 1,
        }
    }
}

/// The clauses a task still evaluates — those its footer did not prove —
/// with the SmartIndex handles held for their simple predicates (empty
/// when it holds none) and their cache keys (empty without SmartIndex),
/// in probe order.
struct Kept<'a> {
    cnf: Cow<'a, Cnf>,
    held: Vec<Option<Held>>,
    keys: Cow<'a, [PredicateKeys]>,
}

impl Touch<'_> {
    /// The footer the task decided on proves `clause` for every row of the
    /// block (and so does the one read with its chunks).
    fn proves(&self, clause: &Clause) -> bool {
        let Some((read, _)) = &self.read else {
            return false;
        };
        let on = |meta: &BlockMeta| zones_classify(clause, meta) == Verdict::Proved;
        on(&read.meta) && self.decided.as_deref().is_none_or(on)
    }
}

/// How a task answers: a bare `COUNT(*)`'s count, nothing (its zones
/// disproved the CNF), rows, or a partial-aggregate transport.
enum Answer {
    Count(usize),
    Empty,
    Rows(RecordBatch),
    Transport(RecordBatch),
}

/// A rung's outcome: the task's answer, or the next rung's state.
type Rung<T> = Result<ControlFlow<Answer, T>>;

impl LeafServer {
    pub fn new(node: NodeId, index: IndexManager, cost: CostModel) -> Self {
        LeafServer { node, index, cost }
    }

    pub fn index(&self) -> &IndexManager {
        &self.index
    }

    /// Runs `scan`'s task over `block`. `use_index` disables SmartIndex
    /// for the paper's baseline runs. Takes `&self`: the index cache locks
    /// internally, so concurrent tasks (including backup tasks rerouted
    /// from another node) are safe.
    pub fn run(
        &self,
        scan: &ScanView<'_>,
        block: &BlockDesc,
        router: &StorageRouter,
        cred: &Credential,
        now: SimInstant,
        use_index: bool,
    ) -> Result<LeafOutput> {
        let climb = Climb {
            scan,
            block,
            cnf: scan.cnf,
            counts: scan.agg.is_some_and(AggStage::is_count_star_only),
            router,
            cred,
            now,
            index: use_index.then_some(&self.index),
        };
        let mut touch = Touch {
            stored_size: block.stored_size,
            clauses: climb.cnf.clauses.len(),
            ..Touch::default()
        };
        touch.stats.rows_in = block.rows;
        let answer = self.descend(&climb, &mut touch)?;
        self.finish(scan, answer, &touch)
    }

    /// [`LeafServer::run`] over a task that owns its scan.
    pub fn execute(
        &self,
        task: &ScanTask,
        router: &StorageRouter,
        cred: &Credential,
        now: SimInstant,
        use_index: bool,
    ) -> Result<LeafOutput> {
        self.run(&task.view(), &task.block, router, cred, now, use_index)
    }

    /// The ladder, top to bottom.
    fn descend<'a>(&self, c: &Climb<'a>, t: &mut Touch<'a>) -> Result<Answer> {
        let held = match cached_selection(c, t)? {
            Break(answer) => return Ok(answer),
            Continue(held) => held,
        };
        if let Break(answer) = self.footer_decision(c, t)? {
            return Ok(answer);
        }
        let mut kept = keep(c, t, held);
        // The task's residuals, then the CNF clauses that are not
        // all-simple, which the leaf reads as residuals too (`lower` never
        // emits one) and the footer never proves.
        let residuals: Cow<[Expr]> = match opaque(c.cnf).next() {
            None => Cow::Borrowed(c.scan.residual),
            Some(_) => (c.scan.residual.iter().cloned())
                .chain(opaque(c.cnf).map(Clause::to_expr))
                .collect(),
        };
        let data = match self.fetch(c, &mut kept, &residuals, t)? {
            Break(answer) => return Ok(answer),
            Continue(data) => data,
        };
        let (block, bits) = evaluate(c, &kept, &residuals, &data, t)?;
        record_proved(c, t, data.meta());
        match count_or_materialize(c, &block, &bits, &data, t)? {
            Break(answer) => Ok(answer),
            Continue(batch) => aggregate(c, batch, t),
        }
    }

    /// Rung 2, the footer decision: the footer resident on this node
    /// decides from memory; otherwise the block's metadata chunk is read
    /// and its footer, parsed once, decides. A skip that read the chunk
    /// settles that read.
    fn footer_decision<'a>(&self, c: &Climb<'a>, t: &mut Touch<'a>) -> Rung<()> {
        let (router, path) = (c.router, &c.block.path);
        let mut read = router.footer(path, self.node, c.cred, c.now)?;
        t.skipped = disproves(c.cnf, &read.meta);
        let skipped = t.skipped;
        if skipped && !read.served_nothing() {
            router.fetch(path, self.node, c.cred, c.now, &mut read, &[])?;
        }
        t.read = Some((read, router.domain_of(path)));
        Ok(if skipped {
            Break(Answer::Empty)
        } else {
            Continue(())
        })
    }

    /// Rung 3, fetch: reads the chunks of the columns phase one evaluates
    /// and, unless the task counts, of its projection. A fetch that finds
    /// the block rewritten decides on the new footer's zones: a clause the
    /// old footer proved and the new one does not is evaluated after all,
    /// from the bytes in hand.
    fn fetch<'a, 'k>(
        &self,
        c: &'k Climb<'a>,
        kept: &mut Kept<'k>,
        residuals: &[Expr],
        t: &mut Touch<'a>,
    ) -> Rung<Described> {
        t.evaluated = evaluated(kept, residuals);
        if !c.counts {
            t.materialized = c.scan.projection;
        }
        let (read, _) = t.read.as_mut().expect("the footer decided");
        let schema = &read.meta.schema;
        let names = t.evaluated.iter().chain(t.materialized);
        let mut columns: Vec<usize> = names.filter_map(|n| schema.index_of(n)).collect();
        columns.sort_unstable();
        columns.dedup();
        let decided = read.meta.clone();
        let (router, path) = (c.router, &c.block.path);
        let data = router.fetch(path, self.node, c.cred, c.now, read, &columns)?;
        let meta = data.meta();
        if !Arc::ptr_eq(&decided, meta) {
            t.skipped = disproves(c.cnf, meta);
            if t.skipped {
                return Ok(Break(Answer::Empty));
            }
            // A clause proved on the new footer alone is kept already.
            let proved = |clause, meta| zones_classify(clause, meta) == Verdict::Proved;
            let mut clauses = c.cnf.clauses.iter();
            let lost = clauses.any(|clause| proved(clause, &decided) && !proved(clause, meta));
            t.decided = Some(decided);
            if lost {
                *kept = keep(c, t, None);
                t.evaluated = evaluated(kept, residuals);
            }
        }
        Ok(Continue(data))
    }

    /// Turns a task's answer into its output, billed for what it touched.
    fn finish(&self, scan: &ScanView, answer: Answer, touch: &Touch) -> Result<LeafOutput> {
        let (batch, is_agg_transport) = match answer {
            Answer::Count(rows) => (AggTable::count_star_transport(rows)?, true),
            Answer::Empty => (scan.empty_answer()?, scan.agg.is_some()),
            Answer::Rows(batch) => (batch, false),
            Answer::Transport(batch) => (batch, true),
        };
        let (tally, stats) = self.bill(scan.cnf, touch);
        Ok(LeafOutput {
            batch,
            is_agg_transport,
            tally,
            stats,
        })
    }

    /// Prices what a task of a scan with `cnf` touched, whichever rung
    /// answered it.
    fn bill(&self, cnf: &Cnf, t: &Touch) -> (TimeTally, LeafTaskStats) {
        let cost = &self.cost;
        let skipped = t.skipped;
        let proved = || cnf.clauses.iter().filter(|clause| t.proves(clause)).count();
        let mut stats = LeafTaskStats {
            blocks_skipped: skipped as usize,
            proved_clauses: if skipped { 0 } else { proved() },
            ..t.stats
        };
        let mut tally = TimeTally::new();
        let decided = cost.predicate_eval(t.clauses.max(1));
        let footer = |read: &BlockRead| ByteSize(read.meta.meta_bytes as u64);
        let read = t.read.as_ref().filter(|(read, _)| !read.served_nothing());
        let Some((read, domain)) = read else {
            // Cached bits answered, or a resident footer skipped the block:
            // no chunk served.
            if let Some((resident, _)) = &t.read {
                tally.add_io(cost.mem_cache_read(footer(resident)));
            }
            stats.served_from_memory = true;
            tally.add_cpu(decided);
            return (tally, stats);
        };
        stats.backend = Some(domain.id());
        // Each tier that served chunks is billed on its own: a memory-tier
        // hit pays the cache access floor instead of a device seek and
        // streams at memory rates, and only chunks the domain served pay
        // its network hops and, once per task, its fixed penalty
        // (Fatman's wake-up).
        let plain_read = |tier, size| match tier {
            Some(CacheTier::Memory) => cost.mem_cache_read(size),
            Some(CacheTier::Ssd) => cost.read(StorageMedium::Ssd, size),
            None => cost.read(domain.medium(), size),
        };
        let label = |tier| match tier {
            Some(CacheTier::Memory) => ServedTier::MemCache,
            Some(CacheTier::Ssd) => ServedTier::SsdCache,
            None if read.hops == 0 => ServedTier::LocalDisk,
            None => ServedTier::Remote,
        };
        let missed = |tally: &mut TimeTally, tier: Option<CacheTier>, bytes| {
            if tier.is_none() {
                tally.add_io(domain.wake_penalty());
                tally.add_network(cost.network(read.hops, bytes));
            }
        };
        if skipped {
            // A zone skip read the metadata chunk alone.
            let (tier, footer) = (read.meta_tier(), footer(read));
            missed(&mut tally, tier, footer);
            (stats.served_tier, stats.bytes_read) = (label(tier), footer);
            tally.add_io(plain_read(tier, footer));
            tally.add_cpu(decided);
            return (tally, stats);
        }
        // A scan: per tier, the touched columns' share of the stored bytes
        // by estimated width, one access each (a column is its own
        // extent); a task that touched no column read the metadata chunk.
        stats.blocks_scanned = 1;
        let fields = read.meta.schema.fields();
        let width = |f: &Field| f.data_type.estimated_width();
        let total: usize = fields.iter().map(width).sum();
        let charge = |touched: usize| {
            let share = match total {
                0 => 1.0,
                _ => (touched as f64 / total as f64).clamp(0.0, 1.0),
            };
            ByteSize((t.stored_size.as_u64() as f64 * share).ceil() as u64)
        };
        // (tier, columns, width) for each tier that served a column.
        let mut groups: Vec<(Option<CacheTier>, u64, usize)> = Vec::new();
        for (i, f) in fields.iter().enumerate() {
            if t.evaluated.contains(&f.name) || t.materialized.contains(&f.name) {
                let tier = read.column_tier(i);
                match groups.iter_mut().find(|g| g.0 == tier) {
                    Some(g) => (g.1, g.2) = (g.1 + 1, g.2 + width(f)),
                    None => groups.push((tier, 1, width(f))),
                }
            }
        }
        if groups.is_empty() {
            groups.push((read.meta_tier(), 1, 0));
        }
        let charged = charge(groups.iter().map(|g| g.2).sum());
        stats.bytes_read = charged;
        for &(tier, columns, touched) in &groups {
            let (access, bytes) = (plain_read(tier, ByteSize::ZERO), charge(touched));
            stats.served_tier = stats.served_tier.max(label(tier));
            missed(&mut tally, tier, bytes);
            tally.add_io(access * columns + plain_read(tier, bytes).saturating_sub(access));
        }
        let fresh = t.stats.index_built + t.stats.scanned_predicates;
        tally.add_cpu(
            cost.decompress(charged)
                + cost.predicate_eval(fresh * t.rows)
                + cost.predicate_eval(t.residuals * t.rows)
                + cost.agg_update(t.aggregated),
        );
        (tally, stats)
    }

    /// Warm-up hook: pre-builds and pins an index for a predicate (the
    /// client layer's per-user personalization, §III-C).
    pub fn pin_index(
        &self,
        block: &Block,
        predicate: &SimplePredicate,
        now: SimInstant,
    ) -> Result<()> {
        let idx = feisu_index::SmartIndex::build(block, predicate, now)?;
        self.index.insert_pinned(idx, now);
        Ok(())
    }
}

/// Rung 1, the cached selection: a bare `COUNT(*)` with no residual looks
/// its predicates up before the footer, and with every one held counts
/// their bits; else the handles go down. No other task looks up here.
fn cached_selection(c: &Climb, t: &mut Touch) -> Rung<Option<Vec<Option<Held>>>> {
    let simple = opaque(c.cnf).next().is_none();
    if c.index.is_none() || !c.counts || !c.scan.residual.is_empty() || !simple {
        return Ok(Continue(None));
    }
    let held = lookup(c);
    if held.len() < c.keys().len() || held.iter().any(Option::is_none) {
        return Ok(Continue(Some(held)));
    }
    let block = c.block;
    let nothing = Block::new_with_rows(block.id, Schema::empty(), Vec::new(), block.rows)?;
    let kept = Kept {
        cnf: Cow::Borrowed(c.cnf),
        held,
        keys: Cow::Borrowed(c.keys()),
    };
    t.stats.rows_out = selection(c, &kept, &nothing, t)?.count_ones();
    Ok(Break(Answer::Count(t.stats.rows_out)))
}

/// Rung 4, evaluate — phase one: decode exactly the evaluated columns the
/// fetch decided on and evaluate the clauses kept, then the residuals, to
/// the final selection.
fn evaluate(
    c: &Climb,
    kept: &Kept,
    residuals: &[Expr],
    data: &Described,
    t: &mut Touch,
) -> Result<(Block, BitVec)> {
    // A name the stored schema lacks is not decoded, so the lookups
    // downstream surface the errors a full decode would.
    let mut names: Vec<&str> = t.evaluated.iter().map(String::as_str).collect();
    names.retain(|n| data.meta().schema.index_of(n).is_some());
    let block = data.decode_columns(&names)?;
    let mut bits = selection(c, kept, &block, t)?;
    if !residuals.is_empty() {
        bits = apply_residual(&block, &bits, residuals)?;
    }
    (t.rows, t.residuals) = (block.rows(), residuals.len());
    t.stats.rows_out = bits.count_ones();
    Ok((block, bits))
}

/// Rung 5: a count is the selection's bit count; anything else is phase
/// two, materialize: a column phase one decoded is gathered by the
/// selection words, any other decoded through the selection, each distinct
/// name once, so unselected rows are never built.
fn count_or_materialize(
    c: &Climb,
    block: &Block,
    bits: &BitVec,
    data: &Described,
    t: &Touch,
) -> Rung<RecordBatch> {
    if c.counts {
        return Ok(Break(Answer::Count(t.stats.rows_out)));
    }
    let scan = c.scan;
    let mut late: Vec<&str> = Vec::new();
    for name in scan.projection {
        if block.column_by_name(name).is_none() && !late.contains(&name.as_str()) {
            if data.meta().schema.index_of(name).is_none() {
                return Err(FeisuError::Execution(format!(
                    "block {} missing column `{name}`",
                    c.block.id
                )));
            }
            late.push(name);
        }
    }
    let mut decoded = data.decode_selected(&late, bits)?.into_iter();
    let mut columns: Vec<Column> = Vec::with_capacity(scan.projection.len());
    for (k, name) in scan.projection.iter().enumerate() {
        let column = match block.column_by_name(name) {
            Some(c) => c.filter(bits)?,
            // `late` lists names in order of first use: that use moves
            // the decoded column into place, a repeat copies it.
            None => match scan.projection[..k].iter().position(|n| n == name) {
                Some(first) => columns[first].clone(),
                None => decoded.next().expect("one column per late name"),
            },
        };
        columns.push(column);
    }
    let batch = RecordBatch::new(scan.output_schema.clone(), columns)?;
    Ok(Continue(batch))
}

/// Rung 6: the optional leaf-side partial aggregation.
fn aggregate(c: &Climb, batch: RecordBatch, t: &mut Touch) -> Result<Answer> {
    let Some(agg) = c.scan.agg else {
        return Ok(Answer::Rows(batch));
    };
    let mut table = AggTable::new(agg.group_by.clone(), agg.aggregates.clone());
    table.update(&batch)?;
    t.aggregated = batch.rows();
    Ok(Answer::Transport(table.into_transport()?))
}

/// The simple predicates of the CNF's all-simple clauses, in probe order.
fn simple_predicates(cnf: &Cnf) -> impl Iterator<Item = &SimplePredicate> {
    cnf.clauses.iter().filter_map(Clause::as_simple).flatten()
}

/// The clauses of the CNF that are not all-simple.
fn opaque(cnf: &Cnf) -> impl Iterator<Item = &Clause> {
    cnf.clauses.iter().filter(|c| c.as_simple().is_none())
}

/// The task's one SmartIndex lookup per simple predicate of its CNF, in
/// probe order, by the keys its scan formatted once. Empty without
/// SmartIndex or when no entry is live: a task that holds nothing
/// allocates nothing.
fn lookup(c: &Climb) -> Vec<Option<Held>> {
    let Some(index) = c.index else {
        return Vec::new();
    };
    let mut held = Vec::new();
    for (i, keys) in c.keys().iter().enumerate() {
        match index.lookup_keyed(c.block.id, keys, c.now) {
            Some(handle) => {
                held.resize(i, None);
                held.push(Some(handle));
            }
            None if !held.is_empty() => held.push(None),
            None => {}
        }
    }
    held
}

/// The clauses of the task's CNF its footer did not prove, with the
/// handles `held` has for their predicates — or, none looked up yet, the
/// task's one lookup. A lookup only reads the index, so looking up the
/// proved clauses' predicates too and dropping their handles changes
/// nothing.
fn keep<'a>(c: &'a Climb, t: &Touch, held: Option<Vec<Option<Held>>>) -> Kept<'a> {
    let held = held.unwrap_or_else(|| lookup(c));
    let keys = c.keys();
    if !c.cnf.clauses.iter().any(|clause| t.proves(clause)) {
        let (cnf, keys) = (Cow::Borrowed(c.cnf), Cow::Borrowed(keys));
        return Kept { cnf, held, keys };
    }
    let (mut cnf, mut handles, mut kept_keys) = (Cnf::default(), Vec::new(), Vec::new());
    let (mut held, mut keys) = (held.into_iter(), keys.iter());
    for clause in &c.cnf.clauses {
        let n = clause.as_simple().map_or(0, Iterator::count);
        let (theirs, their_keys) = (held.by_ref().take(n), keys.by_ref().take(n));
        match t.proves(clause) {
            true => {
                theirs.for_each(drop);
                their_keys.for_each(drop);
            }
            false => {
                handles.extend(theirs);
                kept_keys.extend(their_keys.cloned());
                cnf.clauses.push(clause.clone());
            }
        }
    }
    let (cnf, keys) = (Cow::Owned(cnf), Cow::Owned(kept_keys));
    Kept {
        cnf,
        held: handles,
        keys,
    }
}

/// The columns phase one evaluates: each predicate's without a held
/// handle, and every column a residual names.
fn evaluated(kept: &Kept, residuals: &[Expr]) -> Vec<String> {
    let mut evaluated = Vec::new();
    for (i, p) in simple_predicates(&kept.cnf).enumerate() {
        if !matches!(kept.held.get(i), Some(Some(_))) {
            evaluated.push(p.column.clone());
        }
    }
    residuals.iter().for_each(|e| e.columns(&mut evaluated));
    evaluated
}

/// `cnf` over the columns decoded so far (none, for a cached selection),
/// each predicate served by its held handle or probed at its turn, each
/// probe counted.
fn selection(c: &Climb, kept: &Kept, block: &Block, t: &mut Touch) -> Result<BitVec> {
    let probed = |_: &SimplePredicate, kind| t.stats.probed(kind);
    let handles = (&kept.held[..], &kept.keys[..]);
    evaluate_held(c.index, block, &kept.cnf, handles, c.now, probed)
}

/// With SmartIndex on, each proved clause that is one simple predicate is
/// cached as an index of all ones (unless one answers it already), so a
/// later count's cached selection still composes it by Fig. 7's algebra.
/// A proved disjunction is not recorded: its other disjuncts would still
/// lack bits. A record is made from the footer the task answered on, after
/// its own probes, and is never counted as a build.
fn record_proved(c: &Climb, t: &Touch, meta: &BlockMeta) {
    let Some(index) = c.index else {
        return;
    };
    let block = c.block.id;
    for clause in &c.cnf.clauses {
        if let [Disjunct::Simple(p)] = &clause.disjuncts[..] {
            if t.proves(clause) && index.lookup(block, p, c.now).is_none() {
                index.insert(SmartIndex::all_rows(block, p, meta.rows, c.now), c.now);
            }
        }
    }
}

/// A CNF clause's verdict under the footer's zones: disproved when every
/// disjunct is a simple predicate its zone rules out, proved when some
/// simple disjunct's zone proves it for every row, unknown otherwise. The
/// clause is in storage names. Conservative throughout: a clause with a
/// residual disjunct and a predicate on a column the block lacks are
/// unknown, as is whatever [`zonemap::verdict`] cannot tell (NULLs,
/// incomparable literals, NaN bounds).
fn zones_classify(clause: &Clause, meta: &BlockMeta) -> Verdict {
    let simple = clause.as_simple().filter(|_| !clause.disjuncts.is_empty());
    let Some(predicates) = simple else {
        return Verdict::Unknown;
    };
    let mut verdict = Verdict::Disproved;
    for p in predicates {
        let zone = meta.schema.index_of(&p.column).map(|i| &meta.zones[i]);
        match zone.map(|zone| zonemap::verdict(zone, meta.rows, p.op, &p.value)) {
            Some(Verdict::Proved) => return Verdict::Proved,
            Some(Verdict::Disproved) => {}
            _ => verdict = Verdict::Unknown,
        }
    }
    verdict
}

/// The footer's zones disprove some clause of `cnf`: the block is skipped.
fn disproves(cnf: &Cnf, meta: &BlockMeta) -> bool {
    (cnf.clauses.iter()).any(|clause| zones_classify(clause, meta) == Verdict::Disproved)
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
    use feisu_common::rng::DetRng;
    use feisu_common::{BlockId, DomainId, SimDuration, UserId};
    use feisu_format::block::chunk_decodes_on_this_thread as chunk_decodes;
    use feisu_format::block::footer_parses_on_this_thread as parses;
    use feisu_format::{DataType, Field, Value};
    use feisu_obs::MetricsRegistry;
    use feisu_sql::ast::AggFunc;
    use feisu_sql::cnf::to_cnf;
    use feisu_sql::parser::parse_expr;
    use feisu_sql::plan::AggExpr;
    use feisu_storage::auth::{AuthService, Grant};
    use feisu_storage::{CacheStats, Domain, TieredCache};

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
        let hdfs = |topology| Domain::hdfs(DomainId(1), "hdfs", topology, 3, 7);
        let settings = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
        rig_on(hdfs, settings)
    }

    /// The rig over another domain (id 1) and another block cache.
    fn rig_on(domain: fn(Arc<Topology>) -> Domain, settings: CacheSettings) -> Rig {
        let topology = Arc::new(Topology::grid(1, 2, 2));
        let cost = CostModel::default();
        let hdfs = domain(topology.clone());
        let auth = Arc::new(AuthService::new(9));
        auth.register(UserId(1));
        auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
        let cred = auth
            .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
            .unwrap();
        let cache = TieredCache::new(settings, vec!["/".into()], topology.len());
        let router = StorageRouter::new(vec![hdfs], 0, auth, Some(Arc::new(cache)));
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
            let (cnf, residual): (Vec<_>, Vec<_>) = to_cnf(&parse_expr(predicate).unwrap())
                .clauses
                .into_iter()
                .partition(|c| c.as_simple().is_some());
            ScanTask {
                table: "t".into(),
                block: self.block.clone(),
                projection: vec!["a".into()],
                output_schema: Schema::new(vec![field]),
                cnf: Cnf { clauses: cnf },
                residual: residual.iter().map(|c| c.to_expr()).collect(),
                agg: None,
                name_map: Default::default(),
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
            let columns = columns.map(|c| c.filter(&kept).unwrap()).collect();
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
    fn keep_top_cuts_to_the_first_k_rows_and_bills_the_sort() {
        let cost = CostModel::default();
        let top = (vec![(Expr::col("x"), true)], 2);
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let batch = RecordBatch::new(schema, vec![Column::from_i64(vec![3, 9, 1, 9, 5])]);
        let mut out = LeafOutput {
            batch: batch.unwrap(),
            is_agg_transport: false,
            tally: TimeTally::new(),
            stats: LeafTaskStats::default(),
        };
        let uncut = out.keep_top(&top, &cost).unwrap();
        assert_eq!(uncut.map(|b| b.rows()), Some(5));
        let xs: Vec<Value> = (0..2).map(|i| out.batch.row(i)[0].clone()).collect();
        assert_eq!(xs, [Value::Int64(9), Value::Int64(9)]);
        assert_eq!((out.batch.rows(), out.tally.cpu), (2, cost.sort(5)));
        // At most k rows: nothing to cut, nothing billed.
        assert!(out.keep_top(&top, &cost).unwrap().is_none());
        assert_eq!((out.batch.rows(), out.tally.cpu), (2, cost.sort(5)));
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
        assert_eq!(other.run("a > 1000").stats.blocks_skipped, 1);
        assert_eq!(parses() - before, 1);
    }

    #[test]
    fn a_resident_footer_skip_touches_neither_storage_nor_the_block_cache() {
        let r = rig();
        let first = r.run("a > 1000");
        assert!(first.stats.blocks_skipped == 1 && !first.stats.served_from_memory);
        assert!(first.stats.bytes_read > ByteSize::ZERO);
        assert!(first.stats.backend.is_some());
        let (reads, cache, before) = (r.domain_reads(), r.cache_stats(), parses());
        assert_eq!(reads, 1);

        let again = r.run("a > 1000");
        assert_eq!(again.batch, first.batch);
        assert_eq!(again.stats.blocks_skipped, 1);
        assert!(again.stats.blocks_skipped == 1 && again.stats.served_from_memory);
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
        assert!(first.stats.blocks_skipped == 1 && !first.stats.served_from_memory);
        assert_eq!(first.stats.rows_out, 0);
        let (again, decoded) = r.count("a > 1000", false);
        assert_eq!(decoded, 0);
        assert!(again.stats.blocks_skipped == 1 && again.stats.served_from_memory);
        assert_eq!(again.batch, first.batch);
    }

    /// A random nullable column of `rows` rows over a small domain, so
    /// literals land on, inside and outside its bounds: NULLs in none, some
    /// or all rows, NaN in one float column in four, ±0.0 and empty strings.
    fn random_column(rng: &mut DetRng, data_type: DataType, rows: usize) -> Column {
        let nulls = [0.0, 0.0, 0.0, 0.2, 1.0][rng.index(5)];
        let floats: &[f64] = match rng.index(4) {
            0 => &[f64::NAN, 0.0, -0.0, 1.5, -2.0],
            _ => &[0.0, -0.0, 1.5, -2.0, 3.0],
        };
        let values: Vec<Value> = (0..rows)
            .map(|_| match data_type {
                _ if rng.chance(nulls) => Value::Null,
                DataType::Int64 => Value::Int64(rng.range_i64(-3, 3)),
                DataType::Float64 => Value::Float64(floats[rng.index(floats.len())]),
                DataType::Utf8 => Value::Utf8(["", "a", "ab", "b"][rng.index(4)].into()),
                _ => Value::Bool(rng.chance(0.5)),
            })
            .collect();
        Column::from_values(data_type, &values).unwrap()
    }

    /// `c<i> OP literal` over a random column of `fields`, the literal of
    /// the column's kind three times in four, else of any kind: an Int
    /// against a Float column or the reverse, ±0.0, NaN, `''`.
    fn random_disjunct(rng: &mut DetRng, fields: &[Field]) -> Disjunct {
        use feisu_sql::ast::BinaryOp::*;
        let field = &fields[rng.index(fields.len())];
        let column = match rng.index(12) {
            0 => "ghost".to_string(),
            _ => field.name.clone(),
        };
        if rng.index(10) == 0 {
            return Disjunct::Residual(parse_expr(&format!("{column} IS NULL")).unwrap());
        }
        let kinds = [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ];
        let kind = match rng.index(4) {
            0 => kinds[rng.index(4)],
            _ => field.data_type,
        };
        let value = match kind {
            DataType::Int64 => Value::Int64(rng.range_i64(-4, 4)),
            DataType::Float64 => {
                let floats = [0.0, -0.0, 1.5, -2.0, 0.5, 3.0, -2.5, 3.5, f64::NAN];
                Value::Float64(floats[rng.index(floats.len())])
            }
            DataType::Utf8 => Value::Utf8(["", "a", "ab", "b", "c"][rng.index(5)].into()),
            _ => Value::Bool(rng.chance(0.5)),
        };
        let op = [Eq, NotEq, Lt, LtEq, Gt, GtEq, Contains][rng.index(7)];
        Disjunct::Simple(SimplePredicate { column, op, value })
    }

    proptest::proptest! {
        /// A clause `zones_classify` proves passes on every row of the
        /// decoded block, and one it disproves on none, row by row through
        /// `eval_truth`: zero-row and all-NULL blocks, NULLs, NaN, ±0.0,
        /// empty strings and mixed Int/Float literals included. A row
        /// passes a clause when one of its disjuncts is true there (`TRUE
        /// OR x` is true whatever `x`; a disjunct that cannot compare is an
        /// error row-wise, not a truth value).
        #[test]
        fn zones_classify_agrees_with_every_row(
            rows in proptest::prop_oneof![
                proptest::strategy::Just(0usize),
                proptest::strategy::Just(1),
                1usize..80
            ],
            seed in 1u64..u64::MAX,
        ) {
            let mut rng = DetRng::new(seed);
            let types = [DataType::Int64, DataType::Float64, DataType::Utf8, DataType::Bool];
            let (mut fields, mut columns) = (Vec::new(), Vec::new());
            for c in 0..1 + rng.index(3) {
                let data_type = types[rng.index(types.len())];
                fields.push(Field::new(format!("c{c}"), data_type, true));
                columns.push(random_column(&mut rng, data_type, rows));
            }
            let block = Block::new(BlockId(1), Schema::new(fields), columns).unwrap();
            let meta = Block::read_meta(&block.serialize()).unwrap();
            let fields = block.schema().fields();
            let clauses = (0..1 + rng.index(4)).map(|_| Clause {
                disjuncts: (0..1 + rng.index(2))
                    .map(|_| random_disjunct(&mut rng, fields))
                    .collect(),
            });
            let cnf = Cnf { clauses: clauses.collect() };
            for clause in &cnf.clauses {
                let verdict = zones_classify(clause, &meta);
                let (expr, disjuncts) = (clause.to_expr(), clause.disjuncts.iter());
                let disjuncts: Vec<Expr> = disjuncts.map(Disjunct::to_expr).collect();
                let passes = (0..rows).filter(|&i| {
                    let row = |name: &str| block.column_by_name(name).map(|c| c.value(i));
                    let true_at = |d| matches!(eval_truth(d, &row), Ok(t) if t.passes());
                    disjuncts.iter().any(true_at)
                });
                let passing = passes.count();
                match verdict {
                    Verdict::Proved => proptest::prop_assert!(
                        passing == rows,
                        "proved `{expr}` passes {passing} of {rows} rows: {block:?}"
                    ),
                    Verdict::Disproved => proptest::prop_assert!(
                        passing == 0,
                        "disproved `{expr}` passes {passing} rows: {block:?}"
                    ),
                    Verdict::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn a_first_touch_task_reads_no_column_its_zones_prove() {
        use ServedTier::LocalDisk;
        let cost = CostModel::default();
        // `b >= 0` holds on every row (`b` = a % 50) and the footer's zone
        // proves it: only `a` is read, decoded and evaluated. The parent
        // read both columns: io 10_001_320 ns (two accesses and the whole
        // block), cpu 1_090 ns (decompressing 132 B, two predicates over
        // 256 rows), bytes_read 132.
        let (parent_io, parent_cpu) = (SimDuration(10_001_320), SimDuration(1_090));
        let r = rig();
        let before = chunk_decodes();
        let out = r.run("b >= 0 AND a < 100");
        assert_eq!(chunk_decodes() - before, 1, "`a` only");
        assert_eq!(
            (out.stats.proved_clauses, out.stats.scanned_predicates),
            (1, 1)
        );
        assert_eq!(
            (out.stats.rows_out, out.stats.served_tier),
            (100, LocalDisk)
        );
        // Billed one column access and `b`'s share of the block less.
        let b = r.bytes_of(0.5);
        assert_eq!(out.stats.bytes_read, r.block.stored_size - b);
        let one_access = cost.read(StorageMedium::Hdd, ByteSize::ZERO);
        let b_stream = cost.read(StorageMedium::Hdd, r.block.stored_size)
            - cost.read(StorageMedium::Hdd, r.block.stored_size - b);
        assert_eq!(out.tally.io, parent_io - one_access - b_stream);
        let b_cpu = cost.decompress(r.block.stored_size) - cost.decompress(r.bytes_of(0.5))
            + cost.predicate_eval(256);
        assert_eq!(out.tally.cpu, parent_cpu - b_cpu);
        assert_eq!(out.tally.network, SimDuration::ZERO);
        // The answer is the one evaluating both clauses gives.
        let both = r.run("b + 0 >= 0 AND a < 100");
        assert_eq!(out.batch, both.batch);
        assert_eq!(both.stats.proved_clauses, 0);
    }

    #[test]
    fn a_count_its_footer_proves_reads_no_column_and_records_the_proof() {
        let r = rig();
        // Both clauses proved: no column is read, decoded or evaluated;
        // the block is billed as a count with no clause is, one access to
        // the metadata chunk. The parent read both columns from the SSD
        // tier on the second run: io 120_330 ns, cpu 1_090 ns, 132 B.
        let (first, decoded) = r.count("a >= 0 AND b < 50", false);
        assert_eq!(decoded, 0);
        assert_eq!((first.stats.proved_clauses, first.stats.rows_out), (2, 256));
        let (again, decoded) = r.count("a >= 0 AND b < 50", false);
        assert_eq!(decoded, 0);
        assert_eq!(
            (again.stats.proved_clauses, again.stats.scanned_predicates),
            (2, 0)
        );
        assert_eq!(again.stats.bytes_read, ByteSize::ZERO);
        let ssd_access = CostModel::default().read(StorageMedium::Ssd, ByteSize::ZERO);
        assert_eq!(again.tally.io, ssd_access);
        assert_eq!(
            (again.tally.cpu, again.tally.network),
            (SimDuration::ZERO, SimDuration::ZERO)
        );
        // With SmartIndex on, the proof is recorded as all-ones entries the
        // next count composes at rung 1, from memory, without a chunk read.
        let (recorded, _) = r.count("a >= 0 AND b < 50", true);
        assert_eq!(
            (recorded.stats.index_built, recorded.stats.index_hits),
            (0, 0)
        );
        let reads = r.domain_reads();
        let (cached, decoded) = r.count("a >= 0 AND b < 50", true);
        assert_eq!((decoded, cached.stats.index_hits), (0, 2));
        assert!(cached.stats.served_from_memory);
        assert_eq!(
            (cached.tally.io, r.domain_reads()),
            (SimDuration::ZERO, reads)
        );
        // One clause the zones cannot prove: the block is read for it alone.
        let (partial, decoded) = r.count("a >= 0 AND b < 40", false);
        assert_eq!((decoded, partial.stats.proved_clauses), (1, 1));
        assert_eq!(partial.stats.bytes_read, r.bytes_of(0.5));
    }

    fn fatman(topology: Arc<Topology>) -> Domain {
        Domain::fatman(DomainId(1), "ffs", topology, 2, 7)
    }

    fn leaf_on(node: u64) -> LeafServer {
        let index = IndexManager::new(ByteSize::mib(4), SimDuration::hours(72));
        LeafServer::new(NodeId(node), index, CostModel::default())
    }

    #[test]
    fn a_task_one_tier_serves_is_billed_as_a_whole_block_read_was() {
        use ServedTier::{LocalDisk, MemCache, Remote, SsdCache};
        // `SELECT a FROM t WHERE b > 10` three times from one node: every
        // chunk missed, then every chunk from SSD, then from memory. The
        // (io, network) tallies in ns are the ones the whole-block cache
        // billed; the CPU share never depended on the tier.
        let settings = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
        let fatman = rig_on(fatman, settings);
        let cases = [
            (
                rig(),
                0,
                [(10_001_320, 0, LocalDisk), (120_330, 0, SsdCache)],
            ),
            (
                rig(),
                3,
                [(10_001_320, 201_056, Remote), (120_330, 0, SsdCache)],
            ),
            (
                fatman,
                3,
                [(210_001_320, 201_056, Remote), (120_330, 0, SsdCache)],
            ),
        ];
        for (r, node, [miss, ssd]) in cases {
            let leaf = leaf_on(node);
            for (io, network, tier) in [miss, ssd, (10_013, 0, MemCache)] {
                let task = r.task("b > 10");
                let out = (leaf.execute(&task, &r.router, &r.cred, SimInstant(0), false)).unwrap();
                let tally = (out.tally.io, out.tally.cpu, out.tally.network);
                let billed = (SimDuration(io), SimDuration(578), SimDuration(network));
                assert_eq!(tally, billed, "{tier} from node {node}");
                assert_eq!(
                    (out.stats.served_tier, out.stats.bytes_read),
                    (tier, ByteSize(132))
                );
            }
        }
        // A first-touch zone skip reads the metadata chunk alone, billed as
        // the footer read always was.
        let (skip, _) = rig().count("a > 1000", false);
        assert_eq!(skip.tally.io, SimDuration(5_000_780));
    }

    /// The bill pinned per domain and per tier: `SELECT a FROM t WHERE b >
    /// 10` from a replica holder (its domain read, then an SSD hit, then a
    /// memory hit) and from a node holding none (a remote domain read).
    /// Each row is (io, cpu, network) in ns, the served tier and the bytes
    /// read. Fatman's domain reads pay its 200 ms wake-up, the key-value
    /// store's are SSD reads, a remote read pays network, and an SSD hit
    /// costs less than any domain read.
    #[test]
    fn the_bill_pins_each_domain_and_tier() {
        use ServedTier::{LocalDisk, MemCache, Remote, SsdCache};
        let local: fn(Arc<Topology>) -> Domain =
            |topology| Domain::local_fs(DomainId(1), "local", topology);
        let kv: fn(Arc<Topology>) -> Domain = |topology| Domain::kv(DomainId(1), "kv", topology);
        let hdfs: fn(Arc<Topology>) -> Domain =
            |topology| Domain::hdfs(DomainId(1), "hdfs", topology, 3, 7);
        let (ssd, mem) = ((120_330, 0, SsdCache), (10_013, 0, MemCache));
        let cases = [
            (local, (10_001_320, 0, LocalDisk), (10_001_320, 201_056)),
            (hdfs, (10_001_320, 0, LocalDisk), (10_001_320, 201_056)),
            (fatman, (210_001_320, 0, LocalDisk), (210_001_320, 201_056)),
            (kv, (120_330, 0, LocalDisk), (120_330, 401_056)),
        ];
        let settings = CacheSettings {
            enabled: true,
            ..CacheSettings::default()
        };
        for (domain, near, (far_io, far_network)) in cases {
            let r = rig_on(domain, settings.clone());
            let holders = r.router.replicas("/t/b0").unwrap();
            let far = (0..4).map(NodeId).find(|n| !holders.contains(n)).unwrap();
            let far_pin = (far_io, far_network, Remote);
            let runs = [near, ssd, mem].map(|pin| (holders[0], pin));
            for (node, (io, network, tier)) in runs.into_iter().chain([(far, far_pin)]) {
                let task = r.task("b > 10");
                let out = leaf_on(node.0).execute(&task, &r.router, &r.cred, SimInstant(0), false);
                let (tally, stats) = out.map(|o| (o.tally, o.stats)).unwrap();
                let prefix = r.router.domain_of("/t/b0").prefix();
                assert_eq!(
                    (tally.io, tally.cpu, tally.network),
                    (SimDuration(io), SimDuration(578), SimDuration(network)),
                    "{prefix} {tier} on {node:?}"
                );
                assert_eq!((stats.served_tier, stats.bytes_read), (tier, ByteSize(132)));
            }
        }
        // A zone skip on first touch reads the metadata chunk from the
        // domain; on the resident footer it reads nothing.
        let r = rig();
        let skips = [
            (5_000_780, LocalDisk, ByteSize(78)),
            (5_007, ServedTier::Memory, ByteSize::ZERO),
        ];
        for (io, tier, bytes) in skips {
            let out = r.run("a > 1000");
            let tally = (out.tally.io, out.tally.cpu, out.tally.network);
            assert_eq!(tally, (SimDuration(io), SimDuration(2), SimDuration::ZERO));
            assert_eq!((out.stats.served_tier, out.stats.bytes_read), (tier, bytes));
        }
    }

    #[test]
    fn a_mixed_task_pays_the_wake_up_once_and_network_for_the_missed_bytes_only() {
        let cost = CostModel::default();
        // An SSD tier exactly one block big, on Fatman; node 3 holds no
        // replica.
        let settings = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize::ZERO,
            ssd_capacity_per_node: rig().block.stored_size,
            ..CacheSettings::default()
        };
        let r = rig_on(fatman, settings);
        let leaf = leaf_on(3);
        let run = |predicate| {
            let task = r.task(predicate);
            leaf.execute(&task, &r.router, &r.cred, SimInstant(0), false)
                .unwrap()
        };
        // `a` alone, read with the whole block: `b` enters speculative...
        let first = run("1 = 1");
        let half = r.bytes_of(0.5);
        let wake = SimDuration::millis(200);
        assert_eq!(first.tally.io, wake + cost.read(StorageMedium::Hdd, half));
        assert!(first.tally.network > SimDuration::ZERO);
        // ...and is the chunk a one-byte object pushes out.
        let t0 = SimInstant(0);
        let other = feisu_storage::Bytes::from_static(b"x");
        r.router
            .write("/t/x", other, Some(NodeId(0)), &r.cred, t0)
            .unwrap();
        r.router.read("/t/x", NodeId(3), &r.cred, t0).unwrap();
        // `a` from SSD, `b` from Fatman: one access each at its own tier,
        // one wake-up, and network for `b`'s bytes alone — as many as `a`'s.
        let mixed = run("b > 10");
        let ssd = cost.read(StorageMedium::Ssd, half);
        assert_eq!(
            mixed.tally.io,
            wake + ssd + cost.read(StorageMedium::Hdd, half)
        );
        assert_eq!(mixed.tally.network, first.tally.network);
        assert_eq!(mixed.stats.served_tier, ServedTier::Remote);
        assert_eq!(mixed.stats.bytes_read, r.block.stored_size);
    }
}
