//! Leaf-server execution semantics, probed directly at the LeafServer
//! API (below the engine): cost accounting of the columnar read model,
//! zone pruning and proof, the count-only memory path, partial
//! aggregation, the two-phase scan against a reference that decodes
//! everything first, and a held SmartIndex handle outliving its entry's
//! eviction.

use feisu_cluster::simclock::TimeTally;
use feisu_cluster::{CostModel, Topology};
use feisu_common::{
    ByteSize, DomainId, FeisuError, NodeId, Result, SimDuration, SimInstant, UserId,
};
use feisu_core::leaf::{AggStage, LeafOutput, LeafServer, LeafTaskStats, ScanTask, ServedTier};
use feisu_exec::aggregate::AggTable;
use feisu_exec::batch::RecordBatch;
use feisu_format::block::chunk_decodes_on_this_thread;
use feisu_format::table::BlockDesc;
use feisu_format::{BitVec, Block, BlockMeta, Column, DataType, Field, Schema, Value};
use feisu_index::manager::IndexManager;
use feisu_index::rewrite::{evaluate_cnf, ProbeKind};
use feisu_index::SmartIndex;
use feisu_sql::ast::{AggFunc, BinaryOp, Expr};
use feisu_sql::cnf::{to_cnf, Clause, Cnf, Disjunct, SimplePredicate};
use feisu_sql::eval::{eval_truth, Truth};
use feisu_sql::parser::parse_expr;
use feisu_sql::plan::AggExpr;
use feisu_storage::auth::{AuthService, Credential, Grant};
use feisu_storage::{Domain, StorageRouter};
use proptest::prelude::*;
use std::sync::Arc;

struct Rig {
    router: StorageRouter,
    cred: Credential,
    desc: BlockDesc,
    schema: Schema,
    topology: Arc<Topology>,
}

/// An HDFS domain on a 1x2x2 grid behind a router with no block cache,
/// and a credential that may read and write it.
fn storage() -> (StorageRouter, Credential, Arc<Topology>) {
    let topology = Arc::new(Topology::grid(1, 2, 2));
    let hdfs = Domain::hdfs(DomainId(1), "hdfs", topology.clone(), 3, 7);
    let auth = Arc::new(AuthService::new(9));
    auth.register(UserId(1));
    auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
    let cred = auth
        .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
        .unwrap();
    let router = StorageRouter::new(vec![hdfs], 0, auth, None);
    (router, cred, topology)
}

/// Writes `bytes` — `block` serialized, by whichever writer — at `path`.
fn put(
    router: &StorageRouter,
    cred: &Credential,
    path: &str,
    bytes: Vec<u8>,
    block: &Block,
) -> BlockDesc {
    let desc = BlockDesc {
        id: block.id(),
        path: path.into(),
        rows: block.rows(),
        stored_size: ByteSize(bytes.len() as u64),
        raw_size: ByteSize(block.footprint() as u64),
    };
    router
        .write(path, bytes.into(), Some(NodeId(0)), cred, SimInstant(0))
        .unwrap();
    desc
}

fn rig() -> Rig {
    let (router, cred, topology) = storage();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
        Field::new("c", DataType::Int64, false),
    ]);
    let block = Block::new(
        feisu_common::BlockId(0),
        schema.clone(),
        vec![
            Column::from_i64((0..256).collect()),
            Column::from_i64((0..256).map(|i| i % 50).collect()),
            Column::from_i64((0..256).map(|i| i % 7).collect()),
        ],
    )
    .unwrap();
    let desc = put(&router, &cred, "/t/b0", block.serialize(), &block);
    Rig {
        router,
        cred,
        desc,
        schema,
        topology,
    }
}

fn leaf(node: NodeId) -> LeafServer {
    LeafServer::new(
        node,
        IndexManager::new(ByteSize::mib(4), SimDuration::hours(72)),
        CostModel::default(),
    )
}

fn task(rig: &Rig, predicate: &str, projection: &[&str], agg: Option<AggStage>) -> ScanTask {
    let cnf = to_cnf(&parse_expr(predicate).unwrap());
    let fields: Vec<Field> = projection
        .iter()
        .map(|p| rig.schema.field_by_name(p).unwrap().clone())
        .collect();
    ScanTask {
        table: "t".into(),
        block: rig.desc.clone(),
        projection: projection.iter().map(|s| s.to_string()).collect(),
        output_schema: Schema::new(fields),
        cnf,
        residual: Vec::new(),
        agg,
        name_map: Default::default(),
    }
}

fn count_stage() -> AggStage {
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

#[test]
fn warm_scan_touches_fewer_columns_than_cold() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10 AND c <= 3", &["a"], None);
    let cold = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    let warm = l
        .execute(&t, &r.router, &r.cred, SimInstant(1), true)
        .unwrap();
    assert_eq!(cold.batch, warm.batch);
    assert_eq!(cold.stats.index_built, 2);
    assert_eq!(warm.stats.index_hits, 2);
    // Cold touches a+b+c; warm only a.
    assert!(warm.stats.bytes_read < cold.stats.bytes_read);
    assert!(warm.tally.io < cold.tally.io);
}

#[test]
fn remote_execution_pays_network() {
    let r = rig();
    // A node outside the replica set (read is remote).
    let replicas = r.router.replicas("/t/b0").unwrap();
    let outsider = r
        .topology
        .nodes()
        .iter()
        .map(|n| n.id)
        .find(|n| !replicas.contains(n))
        .expect("grid has a non-replica node");
    let local = leaf(replicas[0]);
    let remote = leaf(outsider);
    let t = task(&r, "b > 10", &["a"], None);
    let lo = local
        .execute(&t, &r.router, &r.cred, SimInstant(0), false)
        .unwrap();
    let ro = remote
        .execute(&t, &r.router, &r.cred, SimInstant(0), false)
        .unwrap();
    assert_eq!(lo.batch, ro.batch);
    assert_eq!(lo.tally.network, SimDuration::ZERO);
    assert!(ro.tally.network > SimDuration::ZERO);
}

#[test]
fn zone_skip_avoids_column_decode_and_most_bytes() {
    let r = rig();
    let l = leaf(NodeId(0));
    // `a` spans 0..=255: a > 1000 is provably empty from the footer zones.
    let t = task(&r, "a > 1000", &["a"], None);
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert_eq!(out.stats.blocks_skipped, 1);
    assert_eq!(out.stats.blocks_scanned, 0);
    // The skip reads the block's footer — a real storage touch, not a
    // memory-served answer, but a small fraction of a scan's bytes.
    assert!(!out.stats.served_from_memory);
    assert!(out.stats.bytes_read > ByteSize::ZERO);
    assert_eq!(out.batch.rows(), 0);
    assert_eq!(
        out.stats.index_built, 0,
        "no SmartIndex probe on a skipped block"
    );
    // Even on this tiny, highly compressible test block the footer read
    // is cheaper than a full-width scan; the bench pins the big ratios on
    // realistically sized blocks.
    let full = l
        .execute(
            &task(&r, "a >= 0", &["a", "b", "c"], None),
            &r.router,
            &r.cred,
            SimInstant(1),
            true,
        )
        .unwrap();
    assert!(
        out.stats.bytes_read < full.stats.bytes_read,
        "footer read {} should be below a full scan's {}",
        out.stats.bytes_read,
        full.stats.bytes_read
    );
    assert!(out.tally.io < full.tally.io);
}

#[test]
fn count_only_served_from_cache_after_warmup() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10", &["a"], Some(count_stage()));
    let cold = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(cold.is_agg_transport);
    assert!(!cold.stats.served_from_memory);
    let warm = l
        .execute(&t, &r.router, &r.cred, SimInstant(1), true)
        .unwrap();
    assert!(
        warm.stats.served_from_memory,
        "no storage touch when cached"
    );
    assert_eq!(warm.stats.bytes_read, ByteSize::ZERO);
    // Transports decode to the same count.
    assert_eq!(cold.batch, warm.batch);
}

#[test]
fn partial_agg_transport_counts_match_rows() {
    let r = rig();
    let l = leaf(NodeId(0));
    let stage = AggStage {
        group_by: vec![(Expr::col("c"), "c".into(), DataType::Int64)],
        aggregates: vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            name: "n".into(),
            output_type: DataType::Int64,
        }],
    };
    let t = task(&r, "b >= 0", &["c"], Some(stage.clone()));
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    assert!(out.is_agg_transport);
    let table =
        AggTable::from_transport(stage.group_by.clone(), stage.aggregates.clone(), &out.batch)
            .unwrap();
    let final_schema = Schema::new(vec![
        Field::new("c", DataType::Int64, true),
        Field::new("n", DataType::Int64, true),
    ]);
    let finished = table.finish(&final_schema).unwrap();
    assert_eq!(finished.rows(), 7, "c has 7 groups");
    let total: i64 = (0..finished.rows())
        .map(|i| finished.value_at(i, "n").unwrap().as_i64().unwrap())
        .sum();
    assert_eq!(total, 256);
}

#[test]
fn disabled_index_never_caches() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b > 10", &["a"], None);
    for i in 0..3 {
        let out = l
            .execute(&t, &r.router, &r.cred, SimInstant(i), false)
            .unwrap();
        assert_eq!(out.stats.index_hits, 0);
        assert_eq!(out.stats.index_built, 0);
        assert_eq!(out.stats.scanned_predicates, 1);
    }
    assert!(l.index().is_empty());
}

#[test]
fn or_clause_and_value_correctness() {
    let r = rig();
    let l = leaf(NodeId(0));
    let t = task(&r, "b < 5 OR c = 6", &["a", "b", "c"], None);
    let out = l
        .execute(&t, &r.router, &r.cred, SimInstant(0), true)
        .unwrap();
    // Oracle count: b = i%50 < 5 (i%50 in 0..5) or c = i%7 == 6.
    let expected = (0..256).filter(|i| i % 50 < 5 || i % 7 == 6).count();
    assert_eq!(out.batch.rows(), expected);
    for i in 0..out.batch.rows() {
        let b = out.batch.value_at(i, "b").unwrap().as_i64().unwrap();
        let c = out.batch.value_at(i, "c").unwrap().as_i64().unwrap();
        assert!(b < 5 || c == 6);
    }
}

// Two-phase execution (evaluate, then materialize) against a reference
// that decodes every column first and filters afterwards.

/// The transport of a bare `COUNT(*)` the long way round: the kept rows of
/// every column of `block`, folded through an `AggTable`.
fn counted(block: &Block, kept: &BitVec) -> Result<RecordBatch> {
    let columns = block.columns().iter();
    let columns = columns.map(|c| c.filter(kept)).collect::<Result<_>>()?;
    let rows = RecordBatch::new(block.schema().clone(), columns)?;
    let stage = count_stage();
    let mut table = AggTable::new(stage.group_by, stage.aggregates);
    table.update(&rows)?;
    table.to_transport()
}

/// What `LeafServer::execute` must return for a task with an identity name
/// map and no aggregation stage, or the bare `COUNT(*)` one, the long way
/// round: read the object, parse its footer, decode *every* column, drop
/// the clauses the footer proves, evaluate the rest, filter, project or
/// count — with the cost model spelled out from the columns the task
/// touches. A counting task is the projecting one minus the projection's
/// I/O and decompression, and is charged no aggregate update.
fn reference(
    task: &ScanTask,
    router: &StorageRouter,
    cred: &Credential,
    node: NodeId,
    index: Option<&IndexManager>,
    now: SimInstant,
) -> Result<(RecordBatch, LeafTaskStats, TimeTally)> {
    let cost = CostModel::default();
    let mut stats = LeafTaskStats {
        rows_in: task.block.rows,
        ..Default::default()
    };
    let mut tally = TimeTally::new();
    let count_only = task.agg.as_ref().is_some_and(AggStage::is_count_star_only);
    let resident = router.footers().get(node, &task.block.path).is_some();
    let read = router.read(&task.block.path, node, cred, now)?;
    let meta = Block::read_meta(&read.data)?;

    // A count whose every predicate has live cached bits is their algebra,
    // before the footer or the block is looked at.
    let cached = |d: &Disjunct| match (d, index) {
        (Disjunct::Simple(p), Some(index)) => index.lookup(task.block.id, p, now).is_some(),
        _ => false,
    };
    let mut disjuncts = task.cnf.clauses.iter().flat_map(|c| &c.disjuncts);
    if count_only && index.is_some() && task.residual.is_empty() && disjuncts.all(cached) {
        let block = Block::deserialize(&read.data)?;
        let bits = evaluate_cnf(index, &block, &task.cnf, now)?.bits;
        stats.index_hits = task.cnf.clauses.iter().map(|c| c.disjuncts.len()).sum();
        stats.served_from_memory = true;
        stats.rows_out = bits.count_ones();
        tally.add_cpu(cost.predicate_eval(task.cnf.clauses.len().max(1)));
        return Ok((counted(&block, &bits)?, stats, tally));
    }
    let size = task.block.stored_size;
    let domain = router.domain_of(&task.block.path);
    let (domain_extra, medium) = (domain.wake_penalty(), domain.medium());
    let tier = match read.hops {
        0 => ServedTier::LocalDisk,
        _ => ServedTier::Remote,
    };

    let proved: Vec<&Clause> = (task.cnf.clauses.iter())
        .filter(|c| zones_prove(c, &meta))
        .collect();
    if zones_rule_out(&task.cnf, &meta) {
        stats.blocks_skipped = 1;
        let footer = ByteSize(meta.meta_bytes as u64);
        if resident {
            stats.served_from_memory = true;
            tally.add_io(cost.mem_cache_read(footer));
        } else {
            (stats.backend, stats.served_tier) = (Some(DomainId(1)), tier);
            stats.bytes_read = footer;
            tally.add_io(domain_extra + cost.read(medium, footer));
            tally.add_network(cost.network(read.hops, footer));
        }
        tally.add_cpu(cost.predicate_eval(task.cnf.clauses.len().max(1)));
        let batch = match count_only {
            true => counted(&Block::deserialize(&read.data)?, &BitVec::zeros(meta.rows))?,
            false => RecordBatch::empty(task.output_schema.clone()),
        };
        return Ok((batch, stats, tally));
    }
    (stats.backend, stats.served_tier) = (Some(DomainId(1)), tier);
    (stats.blocks_scanned, stats.proved_clauses) = (1, proved.len());

    let block = Block::deserialize(&read.data)?;
    let kept = Cnf {
        clauses: (task.cnf.clauses.iter())
            .filter(|c| !proved.contains(c))
            .cloned()
            .collect(),
    };
    let outcome = evaluate_cnf(index, &block, &kept, now)?;
    record_proved(index, task, &proved, &meta, now);
    // A count materializes no column, so it is billed for none.
    let mut touched = match count_only {
        true => Vec::new(),
        false => task.projection.clone(),
    };
    for (p, kind) in &outcome.probes {
        match kind {
            ProbeKind::Hit | ProbeKind::NegatedHit => stats.index_hits += 1,
            ProbeKind::BuiltFresh => stats.index_built += 1,
            ProbeKind::BuiltRejected => {
                stats.index_built += 1;
                stats.index_rejected += 1;
            }
            ProbeKind::Scanned => stats.scanned_predicates += 1,
        }
        if !matches!(kind, ProbeKind::Hit | ProbeKind::NegatedHit) {
            touched.push(p.column.clone());
        }
    }
    // Billed as touched: the task's residuals and every column of a CNF
    // clause that is not all-simple — a simple disjunct sharing a clause
    // with an opaque one too, since the leaf decodes the whole clause to
    // evaluate it row-wise.
    task.residual.iter().for_each(|e| e.columns(&mut touched));
    for clause in task.cnf.clauses.iter().filter(|c| c.as_simple().is_none()) {
        clause.to_expr().columns(&mut touched);
    }
    let residuals: Vec<Expr> = task
        .residual
        .iter()
        .cloned()
        .chain(outcome.residual)
        .collect();

    // One access per touched column, streaming for their share of the
    // stored bytes by estimated width.
    let width = |f: &&Field| f.data_type.estimated_width();
    let stored = meta.schema.fields();
    let hit: Vec<&Field> = stored
        .iter()
        .filter(|f| touched.contains(&f.name))
        .collect();
    let fraction = hit.iter().map(width).sum::<usize>() as f64
        / stored.iter().map(|f| width(&f)).sum::<usize>() as f64;
    let charged = ByteSize((size.as_u64() as f64 * fraction).ceil() as u64);
    stats.bytes_read = charged;
    let access = cost.seek(medium);
    tally.add_io(
        domain_extra
            + access * hit.len().max(1) as u64
            + cost.read(medium, charged).saturating_sub(access),
    );
    tally.add_network(cost.network(read.hops, charged));
    tally.add_cpu(cost.decompress(charged));
    let evaluated = stats.index_built + stats.scanned_predicates;
    tally.add_cpu(cost.predicate_eval(evaluated * block.rows()));

    let mut bits = outcome.bits;
    if !residuals.is_empty() {
        let mut kept = BitVec::zeros(bits.len());
        'rows: for i in bits.iter_ones() {
            let row = |name: &str| block.column_by_name(name).map(|c| c.value(i));
            for e in &residuals {
                if !eval_truth(e, &row)?.passes() {
                    continue 'rows;
                }
            }
            kept.set(i, true);
        }
        bits = kept;
        tally.add_cpu(cost.predicate_eval(residuals.len() * block.rows()));
    }
    stats.rows_out = bits.count_ones();
    if count_only {
        // Not even a projected name the block lacks is looked up.
        return Ok((counted(&block, &bits)?, stats, tally));
    }
    let mut columns = Vec::new();
    for name in &task.projection {
        let column = block.column_by_name(name).ok_or_else(|| {
            FeisuError::Execution(format!("block {} missing column `{name}`", task.block.id))
        })?;
        columns.push(column.filter(&bits)?);
    }
    let batch = RecordBatch::new(task.output_schema.clone(), columns)?;
    Ok((batch, stats, tally))
}

/// `column OP value` evaluated row-at-a-time on a row whose `column` holds
/// `bound`: `Some(true)` or `Some(false)` when the comparison answers,
/// `None` when it is unknown or an error.
fn at(p: &SimplePredicate, op: BinaryOp, bound: &Value) -> Option<bool> {
    let expr = SimplePredicate { op, ..p.clone() }.to_expr();
    let row = |name: &str| (name == p.column).then(|| bound.clone());
    match eval_truth(&expr, &row) {
        Ok(Truth::True) => Some(true),
        Ok(Truth::False) => Some(false),
        _ => None,
    }
}

/// The zone of `p`'s column in the footer, if the block has the column.
fn zone_of<'m>(p: &SimplePredicate, meta: &'m BlockMeta) -> Option<&'m feisu_format::ColumnStats> {
    let i = meta.schema.index_of(&p.column)?;
    Some(&meta.zones[i])
}

/// The zone's bounds when the literal compares with both: a NaN bound or
/// a literal of another kind orders nothing.
fn bounds<'z>(p: &SimplePredicate, zone: &'z feisu_format::ColumnStats) -> Option<[&'z Value; 2]> {
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return None;
    };
    let orders = |bound| at(p, BinaryOp::Eq, bound).is_some();
    (orders(min) && orders(max)).then_some([min, max])
}

/// Whether the footer's bounds rule `p` out for every row: a range
/// comparison false at the bound nearest it, `=` a value outside the
/// bounds, `<>` a block whose bounds both equal the value; with no bounds,
/// an all-NULL (or empty) block.
fn rules_out(p: &SimplePredicate, meta: &BlockMeta) -> bool {
    let Some(zone) = zone_of(p, meta) else {
        return false;
    };
    if zone.min.is_none() || zone.max.is_none() {
        return zone.null_count == meta.rows;
    }
    let Some([min, max]) = bounds(p, zone) else {
        return false;
    };
    match p.op {
        BinaryOp::Lt | BinaryOp::LtEq => at(p, p.op, min) == Some(false),
        BinaryOp::Gt | BinaryOp::GtEq => at(p, p.op, max) == Some(false),
        BinaryOp::Eq => {
            at(p, BinaryOp::LtEq, min) == Some(false) || at(p, BinaryOp::GtEq, max) == Some(false)
        }
        BinaryOp::NotEq => {
            at(p, BinaryOp::Eq, min) == Some(true) && at(p, BinaryOp::Eq, max) == Some(true)
        }
        _ => false,
    }
}

/// Whether the footer's bounds prove `p` for every row of a column with no
/// NULL: a range comparison true at the bound farthest from it, `=` true at
/// both bounds, `<>` a value outside them.
fn proves(p: &SimplePredicate, meta: &BlockMeta) -> bool {
    let zone = zone_of(p, meta).filter(|z| z.null_count == 0);
    let Some([min, max]) = zone.and_then(|zone| bounds(p, zone)) else {
        return false;
    };
    let holds = |op, bound| at(p, op, bound) == Some(true);
    match p.op {
        BinaryOp::Lt | BinaryOp::LtEq => holds(p.op, max),
        BinaryOp::Gt | BinaryOp::GtEq => holds(p.op, min),
        BinaryOp::Eq => holds(p.op, min) && holds(p.op, max),
        BinaryOp::NotEq => holds(BinaryOp::Gt, min) || holds(BinaryOp::Lt, max),
        _ => false,
    }
}

/// The footer skips the block when some clause is all simple predicates
/// its bounds rule out.
fn zones_rule_out(cnf: &Cnf, meta: &BlockMeta) -> bool {
    cnf.clauses.iter().any(|clause| {
        let simple = |d: &Disjunct| matches!(d, Disjunct::Simple(p) if rules_out(p, meta));
        !clause.disjuncts.is_empty() && clause.disjuncts.iter().all(simple)
    })
}

/// A clause of simple predicates is proved when its bounds prove one.
fn zones_prove(clause: &Clause, meta: &BlockMeta) -> bool {
    let simple = |d: &Disjunct| matches!(d, Disjunct::Simple(_));
    let proved = |d: &Disjunct| matches!(d, Disjunct::Simple(p) if proves(p, meta));
    clause.disjuncts.iter().all(simple) && clause.disjuncts.iter().any(proved)
}

/// With SmartIndex on, each proved clause that is one simple predicate is
/// cached as all ones, unless an entry answers it already.
fn record_proved(
    index: Option<&IndexManager>,
    task: &ScanTask,
    proved: &[&Clause],
    meta: &BlockMeta,
    now: SimInstant,
) {
    let Some(index) = index else {
        return;
    };
    for clause in proved {
        let id = task.block.id;
        if let [Disjunct::Simple(p)] = &clause.disjuncts[..] {
            if index.lookup(id, p, now).is_none() {
                index.insert(SmartIndex::all_rows(id, p, meta.rows, now), now);
            }
        }
    }
}

/// Batch, stats and tally as text: `Debug` prints a NaN as a NaN, so two
/// batches holding one compare equal here where `==` would not.
fn render(outcome: Result<(RecordBatch, LeafTaskStats, TimeTally)>) -> String {
    match outcome {
        Ok((batch, stats, tally)) => format!("{batch:?}\n{stats:?}\n{tally:?}"),
        Err(e) => format!("{e:?}"),
    }
}

fn agree(
    got: Result<LeafOutput>,
    want: Result<(RecordBatch, LeafTaskStats, TimeTally)>,
    what: &str,
    task: &ScanTask,
) -> std::result::Result<(), TestCaseError> {
    let got = render(got.map(|o| (o.batch, o.stats, o.tally)));
    let want = render(want);
    prop_assert!(
        got == want,
        "{what}\n leaf:      {got}\n reference: {want}\n task: {task:?}"
    );
    Ok(())
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }
}

const TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Utf8,
    DataType::Bool,
];

/// 1–5 nullable columns `c0..`, each of a random type over a small value
/// domain (so predicates select something): NULLs everywhere, empty
/// strings, ±0.0, and NaNs in one float column in six.
fn random_block(rng: &mut Rng, rows: usize) -> Block {
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for c in 0..1 + rng.below(5) {
        let data_type = rng.pick(&TYPES);
        let floats: &[f64] = match rng.below(6) {
            0 => &[f64::NAN, 0.0, -0.0, 1.5, -2.0],
            _ => &[0.0, -0.0, 1.5, -2.0, 3.25],
        };
        let values: Vec<Value> = (0..rows)
            .map(|_| match data_type {
                _ if rng.below(5) == 0 => Value::Null,
                DataType::Int64 => Value::Int64(rng.below(7) as i64 - 3),
                DataType::Float64 => Value::Float64(rng.pick(floats)),
                DataType::Utf8 => Value::Utf8(rng.pick(&["", "a", "ab", "b"]).into()),
                DataType::Bool => Value::Bool(rng.below(2) == 0),
            })
            .collect();
        fields.push(Field::new(format!("c{c}"), data_type, true));
        columns.push(Column::from_values(data_type, &values).unwrap());
    }
    Block::new(feisu_common::BlockId(5), Schema::new(fields), columns).unwrap()
}

/// `c<i> OP literal` — the literal of the column's type seven times in
/// eight, of some other type (an evaluation error, or a widening) else.
fn simple_predicate(rng: &mut Rng, fields: &[Field], i: usize) -> String {
    let data_type = match rng.below(8) {
        0 => rng.pick(&TYPES),
        _ => fields[i].data_type,
    };
    let literal = match data_type {
        DataType::Int64 => rng.pick(&["0", "1", "2", "3", "-1"]),
        DataType::Float64 => rng.pick(&["0.0", "1.5", "-2.0", "0.5"]),
        DataType::Utf8 => rng.pick(&["''", "'a'", "'ab'", "'b'"]),
        DataType::Bool => rng.pick(&["TRUE", "FALSE"]),
    };
    let op = match rng.below(if data_type == DataType::Utf8 { 7 } else { 6 }) {
        6 => "CONTAINS",
        op => ["=", "<>", "<", "<=", ">", ">="][op],
    };
    format!("c{i} {op} {literal}")
}

/// A disjunct SmartIndex cannot serve; now and then over a column the
/// block lacks.
fn opaque_predicate(rng: &mut Rng, fields: &[Field], i: usize) -> String {
    let same_type = |f: &&Field| f.data_type == fields[i].data_type;
    let other = &fields.iter().rev().find(same_type).unwrap().name;
    match rng.below(12) {
        0 => "ghost IS NULL".into(),
        1..=4 => format!("c{i} IS NULL"),
        5..=8 => format!("c{i} IS NOT NULL"),
        _ => format!("c{i} = {other}"),
    }
}

fn random_predicate(rng: &mut Rng, fields: &[Field]) -> String {
    let i = rng.below(fields.len());
    match rng.below(6) {
        0 => opaque_predicate(rng, fields, i),
        _ => simple_predicate(rng, fields, i),
    }
}

/// A task over `desc`: 0–3 clauses of 1–2 disjuncts, 0–1 residuals, a
/// projection of 0–4 names that may overlap the predicate columns, repeat
/// a name, or name a column the block lacks — and, one time in three, a
/// bare `COUNT(*)` stage over all of it.
fn random_task(rng: &mut Rng, desc: &BlockDesc, fields: &[Field]) -> ScanTask {
    let clauses: Vec<String> = (0..rng.below(4))
        .map(|_| {
            let disjuncts: Vec<String> = (0..1 + rng.below(2))
                .map(|_| random_predicate(rng, fields))
                .collect();
            format!("({})", disjuncts.join(" OR "))
        })
        .collect();
    let cnf = match clauses.is_empty() {
        true => Cnf::default(),
        false => to_cnf(&parse_expr(&clauses.join(" AND ")).unwrap()),
    };
    let residual = (0..rng.below(2))
        .map(|_| parse_expr(&random_predicate(rng, fields)).unwrap())
        .collect();
    let mut projection: Vec<String> = Vec::new();
    for _ in 0..rng.below(5) {
        projection.push(match rng.below(12) {
            0 => "ghost".into(),
            1 | 2 if !projection.is_empty() => projection[0].clone(),
            _ => fields[rng.below(fields.len())].name.clone(),
        });
    }
    ScanTask {
        agg: (rng.below(3) == 0).then(count_stage),
        ..task_over(desc, fields, cnf, residual, projection)
    }
}

fn task_over(
    desc: &BlockDesc,
    fields: &[Field],
    cnf: Cnf,
    residual: Vec<Expr>,
    projection: Vec<String>,
) -> ScanTask {
    let output = projection.iter().enumerate().map(|(k, name)| {
        let stored = fields.iter().find(|f| &f.name == name);
        let data_type = stored.map_or(DataType::Int64, |f| f.data_type);
        Field::new(format!("o{k}"), data_type, true)
    });
    ScanTask {
        table: "t".into(),
        block: desc.clone(),
        output_schema: Schema::new(output.collect()),
        projection,
        cnf,
        residual,
        agg: None,
        name_map: Default::default(),
    }
}

proptest! {
    #[test]
    fn two_phase_execution_is_decode_everything_then_filter(
        rows in prop_oneof![Just(0usize), Just(1), Just(64), Just(65), 0usize..200],
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let block = random_block(&mut rng, rows);
        let fields = block.schema().fields().to_vec();
        let (router, cred, _) = storage();
        let desc = put(&router, &cred, "/t/b", block.serialize(), &block);
        let task = random_task(&mut rng, &desc, &fields);

        // SmartIndex off, twice on one node: the second run finds the
        // footer resident.
        let off = leaf(NodeId(0));
        for now in [SimInstant(0), SimInstant(1)] {
            let want = reference(&task, &router, &cred, off.node, None, now);
            let got = off.execute(&task, &router, &cred, now, false);
            agree(got, want, "index off", &task)?;
        }

        // SmartIndex on, on another node: cold builds, warm is served from
        // cached bits and decodes fewer columns. The reference keeps its
        // own index manager in step.
        let (on, mirror) = (leaf(NodeId(1)), leaf(NodeId(1)));
        for now in [SimInstant(2), SimInstant(3)] {
            let want = reference(&task, &router, &cred, on.node, Some(mirror.index()), now);
            let got = on.execute(&task, &router, &cred, now, true);
            agree(got, want, "index on", &task)?;
        }
    }
}

/// A handle the task holds serves its predicate even when the entry is
/// evicted before its turn. With room for one index entry and `p1` cached,
/// building `p0` evicts `p1`: `p1` is still a hit, and only `p0`'s column
/// is decoded and billed — `a` is 8 bytes a value, `flag` 1, so billing
/// one for the other shows.
#[test]
fn a_held_handle_outlives_its_eviction() {
    let (router, cred, _) = storage();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("flag", DataType::Bool, false),
    ]);
    let columns = vec![
        Column::from_i64((0..256).collect()),
        Column::from_bool((0..256).map(|i| i % 3 == 0).collect()),
    ];
    let block = Block::new(feisu_common::BlockId(7), schema.clone(), columns).unwrap();
    let desc = put(&router, &cred, "/t/held", block.serialize(), &block);
    let cnf = |text: &str| to_cnf(&parse_expr(text).unwrap());
    let (p0, p1) = (cnf("a < 100"), cnf("flag = TRUE"));
    let [p0, p1] = [&p0, &p1].map(|c| c.simple_clauses().next().unwrap().clone());
    let built = [&p0, &p1].map(|p| SmartIndex::build(&block, p, SimInstant(0)).unwrap());
    let budget = ByteSize(built.iter().map(SmartIndex::footprint).max().unwrap() as u64);
    let billed_a = ByteSize((desc.stored_size.as_u64() as f64 * 8.0 / 9.0).ceil() as u64);
    // A row task projecting `a`, and a bare count.
    for agg in [None, Some(count_stage())] {
        let over = |c: Cnf| ScanTask {
            agg: agg.clone(),
            ..task_over(&desc, schema.fields(), c, Vec::new(), vec!["a".into()])
        };
        let index = IndexManager::new(budget, SimDuration::hours(72));
        let leaf = LeafServer::new(NodeId(0), index, CostModel::default());
        let warm_up = over(cnf("flag = TRUE"));
        leaf.execute(&warm_up, &router, &cred, SimInstant(0), true)
            .unwrap();
        assert!(leaf.index().peek(block.id(), &p1).is_some());

        let both = over(cnf("a < 100 AND flag = TRUE"));
        let before = chunk_decodes_on_this_thread();
        let out = leaf
            .execute(&both, &router, &cred, SimInstant(1), true)
            .unwrap();
        assert_eq!(chunk_decodes_on_this_thread() - before, 1, "`a` only");
        assert!(leaf.index().peek(block.id(), &p1).is_none(), "evicted");
        assert!(leaf.index().peek(block.id(), &p0).is_some());
        assert_eq!((out.stats.index_hits, out.stats.index_built), (1, 1));
        assert_eq!(out.stats.rows_out, 34, "a in 0, 3, .., 99");
        assert_eq!(out.stats.bytes_read, billed_a);
    }
}

/// Phase two validates a projection chunk whole: a flipped bit in it is
/// `Corrupt` though the selection is empty and no row of it is built.
#[test]
fn a_corrupt_projection_chunk_is_corrupt_even_when_no_row_is_selected() {
    let schema = Schema::new(vec![
        Field::new("even", DataType::Int64, false),
        Field::new("url", DataType::Utf8, false),
    ]);
    let urls = (0..128).map(|i| format!("https://site{}.example/path", i % 11));
    let columns = vec![
        Column::from_i64((0..128).map(|i| i * 2).collect()),
        Column::from_utf8(urls.collect()),
    ];
    let block = Block::new(feisu_common::BlockId(6), schema.clone(), columns).unwrap();
    let good = block.serialize();
    let meta = Block::read_meta(&good).unwrap();
    // Inside the zones' range, equal to no row: the block is scanned and
    // the selection comes out empty.
    let cnf = to_cnf(&parse_expr("even = 5").unwrap());
    let (router, cred, _) = storage();
    // Column chunks lie between the header and the footer offset the
    // trailer word holds.
    let footer = u64::from_le_bytes(good[good.len() - 8..].try_into().unwrap()) as usize;
    let mut reported = 0;
    for at in meta.meta_bytes - (good.len() - footer)..footer {
        let mut bytes = good.clone();
        bytes[at] ^= 0x55;
        let predicate_chunk_intact = meta.decode_columns(&bytes, &["even"]).is_ok();
        if !predicate_chunk_intact || meta.decode_columns(&bytes, &["url"]).is_ok() {
            continue;
        }
        let desc = put(&router, &cred, "/t/corrupt", bytes, &block);
        let task = task_over(
            &desc,
            schema.fields(),
            cnf.clone(),
            Vec::new(),
            vec!["url".into()],
        );
        for use_index in [false, true] {
            let out = leaf(NodeId(0)).execute(&task, &router, &cred, SimInstant(0), use_index);
            assert!(
                matches!(out, Err(FeisuError::Corrupt(_))),
                "byte {at}, index {use_index}: {:?}",
                out.map(|o| o.stats)
            );
        }
        reported += 1;
    }
    assert!(
        reported > 16,
        "only {reported} detectable flips in `url`'s chunk"
    );
}

/// The footer decides on a resident footer, then the path is rewritten
/// behind the router's back (no invalidation reaches the node), then the
/// task fetches: the new bytes' footer no longer proves `a >= 0`, so the
/// task evaluates it after all and answers what the reference reading the
/// new bytes answers — not the stale proof's every row. SmartIndex is off:
/// its entries are keyed by block id and survive an in-place rewrite,
/// built and recorded alike.
#[test]
fn a_rewrite_between_the_footer_decision_and_the_fetch_breaks_a_proof() {
    let (router, cred, _) = storage();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
    ]);
    let block = |low: i64| {
        let columns = vec![
            Column::from_i64((low..low + 256).collect()),
            Column::from_i64((0..256).map(|i| (i + 20) % 50).collect()),
        ];
        Block::new(feisu_common::BlockId(9), schema.clone(), columns).unwrap()
    };
    // As many bytes either way, so the stored size the task was planned
    // with prices the new bytes too.
    let (old, new) = (block(0), block(-1));
    assert_eq!(old.serialize().len(), new.serialize().len());
    let desc = put(&router, &cred, "/t/race", old.serialize(), &old);
    let cnf = to_cnf(&parse_expr("a >= 0 AND b > 10").unwrap());
    let projection = vec!["b".to_string()];
    let task = task_over(&desc, schema.fields(), cnf, Vec::new(), projection);
    let leaf = leaf(NodeId(0));
    // The first run proves `a >= 0` and leaves the footer resident.
    let first = leaf.execute(&task, &router, &cred, SimInstant(0), false);
    let want = reference(&task, &router, &cred, NodeId(0), None, SimInstant(0));
    assert_eq!(first.as_ref().unwrap().stats.proved_clauses, 1);
    agree(first, want, "before the rewrite", &task).unwrap();

    let domain = router.domain_of("/t/race");
    domain
        .put("/t/race", new.serialize().into(), Some(NodeId(0)))
        .unwrap();
    assert!(
        router.footers().get(NodeId(0), "/t/race").is_some(),
        "stale"
    );
    let want = reference(&task, &router, &cred, NodeId(0), None, SimInstant(1));
    let got = leaf.execute(&task, &router, &cred, SimInstant(1), false);
    // Row 0 (`a` = -1, `b` = 20) is the one the stale proof would keep.
    let (rows, stats) = got.as_ref().map(|o| (o.batch.rows(), o.stats)).unwrap();
    assert_eq!(rows, (1..256).filter(|i| (i + 20) % 50 > 10).count());
    assert_eq!((stats.proved_clauses, stats.scanned_predicates), (0, 2));
    agree(got, want, "after the rewrite", &task).unwrap();
}
