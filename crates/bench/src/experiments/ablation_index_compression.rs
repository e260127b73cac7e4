//! Ablation — SmartIndex payload compression (DESIGN.md §6.1).
//!
//! "Feisu can compress the index to improve memory efficiency"
//! (§IV-C-1). This ablation measures, over blocks with different
//! selectivity shapes, the memory footprint of raw bitmaps vs the
//! RLE-or-raw `CompressedBits` actually used. (What decoding costs at
//! probe time is wall time: `benchmark/`'s `index.evaluate_us`.)

use super::shape;
use crate::report::Table;
use feisu_common::{BlockId, Result, SimInstant};
use feisu_format::{Block, Column, DataType, Field, Schema, Value};
use feisu_index::bitvec::CompressedBits;
use feisu_index::smart::SmartIndex;
use feisu_sql::ast::BinaryOp;
use feisu_sql::cnf::SimplePredicate;

fn block_with(values: Vec<i64>) -> Block {
    let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
    Block::new(BlockId(0), schema, vec![Column::from_i64(values)]).expect("one Int64 column")
}

pub fn run() -> Result<Table> {
    let n = 65_536usize;
    let shapes: Vec<(&str, Vec<i64>)> = vec![
        // Clustered: value correlates with position (time-ordered logs).
        ("clustered", (0..n).map(|i| (i / 4096) as i64).collect()),
        // Uniform random: worst case for RLE.
        ("random", {
            let mut rng = feisu_common::rng::DetRng::new(7);
            (0..n).map(|_| rng.range_i64(0, 99)).collect()
        }),
        // Constant: one run.
        ("constant", vec![42i64; n]),
    ];
    let pred = SimplePredicate {
        column: "x".into(),
        op: BinaryOp::LtEq,
        value: Value::Int64(7),
    };
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for (label, values) in shapes {
        let block = block_with(values);
        let idx = SmartIndex::build(&block, &pred, SimInstant(0))?;
        let raw_bits = idx.bits();
        let compressed = CompressedBits::from_bitvec(&raw_bits);
        let saving = raw_bits.footprint() as f64 / compressed.footprint() as f64;
        savings.push(saving);
        rows.push(vec![
            label.to_string(),
            format!("{}", raw_bits.footprint()),
            format!("{}", compressed.footprint()),
            format!("{saving:.1}x"),
            compressed.count_ones().to_string(),
        ]);
    }
    let (clustered, random, constant) = (savings[0], savings[1], savings[2]);
    shape(
        clustered > 100.0 && constant > 100.0,
        "clustered and constant results compress over 100x",
    )?;
    shape(random == 1.0, "random results stay raw, never larger")?;
    Ok(Table::new(
        "Ablation: SmartIndex bitmap compression (64Ki-row blocks)",
        &[
            "data shape",
            "raw bytes",
            "compressed bytes",
            "saving",
            "matches",
        ],
        rows,
        "Asserted: clustered and constant results compress over 100x (more indices fit the \
         512 MB budget); random stays raw, never larger."
            .into(),
    ))
}
