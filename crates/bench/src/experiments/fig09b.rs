//! Figure 9(b) — SmartIndex vs a per-column B-tree index.
//!
//! Paper shape: "The query performance when using B-tree index remains
//! almost constant as more queries are processed, but it is not as
//! effective as SmartIndex because SmartIndex not only reduces I/O but
//! also the computation execution time for predicate evaluation."
//!
//! The comparison is honest about memory: both index kinds share the same
//! per-leaf budget. A B-tree entry costs a sorted value + a row id per
//! row (the note prints the measured size) versus a SmartIndex bitmap's
//! 1 bit/row, so under the same budget the B-tree working set keeps
//! missing (rebuild = read + sort) while thousands of SmartIndex bitmaps
//! fit. Whole-query cost includes the projection-column read common to
//! all strategies.

use super::{flat, shape};
use crate::btree::BTreeColumnIndex;
use crate::report::Table;
use feisu_cluster::{CostModel, StorageMedium};
use feisu_common::lru::Lru;
use feisu_common::rng::DetRng;
use feisu_common::{BlockId, ByteSize, Result, SimDuration, SimInstant};
use feisu_format::{Block, Value};
use feisu_index::manager::IndexManager;
use feisu_index::rewrite::{probe_predicate, ProbeKind};
use feisu_sql::ast::BinaryOp;
use feisu_sql::cnf::SimplePredicate;
use feisu_workload::datasets::{generate_chunk, DatasetSpec};

fn build_blocks() -> Vec<Block> {
    let mut spec = DatasetSpec::t1(8192);
    spec.fields = 40;
    let schema = spec.schema();
    let mut blocks = Vec::new();
    let mut start = 0;
    let mut id = 0u64;
    while start < spec.rows {
        let cols = generate_chunk(&spec, start, 1024);
        let n = cols.first().map_or(0, |c| c.len());
        if n == 0 {
            break;
        }
        blocks.push(Block::new(BlockId(id), schema.clone(), cols).expect("block"));
        id += 1;
        start += n;
    }
    blocks
}

fn predicate_stream(n: usize) -> Vec<SimplePredicate> {
    let mut rng = DetRng::new(0x9B);
    // Fixed Zipf population, like the Fig. 9a workload.
    let population: Vec<SimplePredicate> = (0..600)
        .map(|_| {
            let rank = rng.zipf(16, 0.9);
            SimplePredicate {
                column: format!("c{}", (rank / 2) * 3 + (rank % 2)),
                op: match rng.next_below(6) {
                    0 => BinaryOp::Eq,
                    1 => BinaryOp::NotEq,
                    2 => BinaryOp::Lt,
                    3 => BinaryOp::LtEq,
                    4 => BinaryOp::Gt,
                    _ => BinaryOp::GtEq,
                },
                value: Value::Int64(rng.range_i64(0, 99)),
            }
        })
        .collect();
    (0..n)
        .map(|_| population[rng.zipf(population.len(), 0.9)].clone())
        .collect()
}

/// LRU cache of B-tree column indexes under a byte budget.
struct BTreeCache {
    budget: u64,
    entries: Lru<(u64, String), BTreeColumnIndex>,
}

impl BTreeCache {
    fn get(&mut self, key: &(u64, String)) -> bool {
        self.entries.get(key).is_some()
    }

    fn insert(&mut self, key: (u64, String), idx: BTreeColumnIndex) {
        let size = idx.footprint() as u64;
        if size > self.budget {
            return;
        }
        self.entries.remove(&key);
        while self.entries.weight() + size > self.budget {
            self.entries.pop_lru().expect("weight > 0 means an entry");
        }
        self.entries.insert(key, idx, size);
    }
}

pub fn run() -> Result<Table> {
    let blocks = build_blocks();
    let cost = CostModel::default();
    let rows = blocks[0].rows();
    let col_bytes = ByteSize((rows * 8) as u64);
    let col_read = |cost: &CostModel| cost.read(StorageMedium::Hdd, col_bytes);

    // Shared budget, scaled with the data like the Fig. 11 sweep.
    let budget_bytes = 512 * 1024usize;
    let smart = IndexManager::new(ByteSize(budget_bytes as u64), SimDuration::hours(72));
    let mut btrees = BTreeCache {
        budget: budget_bytes as u64,
        entries: Lru::new(),
    };

    let n_queries = 4000usize;
    let bucket = 400usize;
    let preds = predicate_stream(n_queries);
    // Per bucket: mean ms without an index, with B-trees, with SmartIndex.
    let mut series: Vec<[f64; 3]> = Vec::new();
    let mut acc = [SimDuration::ZERO; 3];
    for (qi, p) in preds.iter().enumerate() {
        for b in &blocks {
            // Common cost: reading the projected column.
            let common = col_read(&cost);
            // --- no index: also read + evaluate the predicate column.
            acc[0] += common + col_read(&cost) + cost.predicate_eval(b.rows());
            // --- b-tree under budget: hit = in-memory walk + row-id
            //     materialization; miss = read column + sort + insert.
            let key = (b.id().raw(), p.column.clone());
            acc[1] += common;
            if btrees.get(&key) {
                acc[1] += cost.predicate_eval(64 + b.rows() / 2);
            } else {
                acc[1] += col_read(&cost) + cost.predicate_eval(b.rows() * 4);
                let col = b.column_by_name(&p.column).expect("column");
                btrees.insert(key, BTreeColumnIndex::build(col));
            }
            // --- smartindex under the same budget.
            acc[2] += common;
            let now = SimInstant(qi as u64);
            let (_, kind) = probe_predicate(Some(&smart), b, p, None, now)?;
            match kind {
                ProbeKind::Hit | ProbeKind::NegatedHit => {
                    acc[2] += cost.predicate_eval(b.rows() / 64);
                }
                _ => {
                    acc[2] += col_read(&cost) + cost.predicate_eval(b.rows());
                }
            }
        }
        if (qi + 1) % bucket == 0 {
            series.push(acc.map(|total| total.as_millis_f64() / bucket as f64));
            acc = [SimDuration::ZERO; 3];
        }
    }
    let btree: Vec<f64> = series.iter().map(|s| s[1]).collect();
    shape(flat(&btree, 0.05), "Fig. 9b: B-tree flat within 5%")?;
    let tail = series[series.len() - 1];
    shape(tail[1] > tail[2], "Fig. 9b: B-tree above SmartIndex's tail")?;
    // What one B-tree costs the budget (every predicate column is Int64).
    let sample = BTreeColumnIndex::build(blocks[0].column_by_name("c0").expect("column"));
    let entry_bytes_per_row = sample.footprint() as f64 / sample.rows() as f64;
    let rows = series
        .iter()
        .enumerate()
        .map(|(b, ms)| {
            let mut row = vec![format!("{}", (b + 1) * bucket)];
            row.extend(ms.iter().map(|v| format!("{v:.3}")));
            row
        })
        .collect();
    Ok(Table::new(
        "Fig. 9b: per-query time under one memory budget — no index / B-tree / SmartIndex",
        &["queries", "no-index (ms)", "b-tree (ms)", "smartindex (ms)"],
        rows,
        format!(
            "Asserted shape: B-tree flat within 5% (the budget keeps evicting its \
             ~{entry_bytes_per_row:.0} B/row entries) and above SmartIndex's tail (1 bit/row: it \
             warms past the B-tree and keeps dropping; paper Fig. 9b)."
        ),
    ))
}
