//! Data cache — hit share and response time against the block cache's
//! per-node capacity, on a wide table whose statements touch few columns.
//!
//! Paper shape (§I, §IV-B, Fig. 4): queries hit a few columns of a wide
//! table again and again, and the SSD data cache is there for that
//! locality. The cache keeps column chunks: a block enters whole on its
//! second sighting and the chunks no statement touched leave first. So
//! once a node's capacity holds the touched chunks of its blocks — far
//! below their whole-block bytes — nearly every chunk a statement reads is
//! a hit.

use super::{shape, spread};
use crate::report::Table;
use crate::{build_cluster, load_dataset};
use feisu_common::rng::DetRng;
use feisu_common::{ByteSize, NodeId, Result, SimDuration};
use feisu_core::engine::ClusterSpec;
use feisu_format::Block;
use feisu_workload::datasets::DatasetSpec;

/// The six columns every statement draws from: numeric fillers.
const COLUMNS: [&str; 6] = ["c0", "c1", "c3", "c4", "c6", "c7"];

pub fn run() -> Result<Table> {
    let queries = 400usize;
    let mut t1 = DatasetSpec::t1(16_384);
    t1.fields = 64;
    // Per node on average: the blocks' whole bytes and their touched
    // chunks' (the six columns, and the metadata chunk each block's first
    // read on a node touches).
    let (whole, touched) = working_set(&t1)?;
    let mut rows = Vec::new();
    // (capacity over touched chunks, hit share, mean response in ms)
    let mut points: Vec<(f64, f64, f64)> = Vec::new();
    for share in [0.5, 0.75, 1.0, 2.0] {
        let capacity = ByteSize((touched as f64 * share) as u64);
        let mut spec = spec();
        spec.config.cache.ssd_capacity_per_node = capacity;
        let bench = build_cluster(spec)?;
        load_dataset(&bench, &t1, "/hdfs/bench/t1")?;
        let mut rng = DetRng::new(0xDA7A);
        let mut total = SimDuration::ZERO;
        for _ in 0..queries {
            let r = bench.cluster.query(&statement(&mut rng), &bench.cred)?;
            total += r.response_time;
        }
        let stats = bench.cluster.cache().expect("cache enabled").stats();
        let hit_share = 1.0 - stats.miss_ratio();
        let mean_ms = total.as_millis_f64() / queries as f64;
        points.push((share, hit_share, mean_ms));
        rows.push(vec![
            capacity.to_string(),
            format!("{share:.2}x"),
            format!("{:.2}x", capacity.as_u64() as f64 / whole as f64),
            format!("{:.1}%", hit_share * 100.0),
            format!("{mean_ms:.3}"),
        ]);
    }
    let hits: Vec<f64> = points.iter().map(|p| p.1).collect();
    let never_worse = points
        .windows(2)
        .all(|w| w[1].1 >= w[0].1 && w[1].2 <= w[0].2);
    shape(
        never_worse && spread(&hits) > 0.0,
        "data cache: more capacity never hits less or answers slower",
    )?;
    let held = points.iter().filter(|p| p.0 >= 1.0).all(|p| p.1 >= 0.9);
    shape(
        held && 4 * touched < whole,
        "data cache: hit share at least 90% once the touched chunks fit, far below whole blocks",
    )?;
    Ok(Table::new(
        "Data cache: chunk hit share and mean response vs per-node capacity",
        &[
            "capacity per node",
            "x touched chunks",
            "x whole blocks",
            "chunk hit share",
            "mean response (ms)",
        ],
        rows,
        format!(
            "Per node on average the blocks hold {} and their touched chunks {}; asserted: at \
             least 90% of chunk reads hit once the capacity holds the touched chunks, under a \
             quarter of the whole blocks.",
            ByteSize(whole),
            ByteSize(touched)
        ),
    ))
}

/// Four nodes, SSD tier only, no SmartIndex and no task reuse, so every
/// statement reads its columns through the data cache.
fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::small();
    spec.rows_per_block = 256;
    spec.task_reuse = false;
    spec.use_smartindex = false;
    spec.config.cache.enabled = true;
    spec.config.cache.mem_capacity_per_node = ByteSize::ZERO;
    spec
}

/// A projection and one or two predicates, all over [`COLUMNS`].
fn statement(rng: &mut DetRng) -> String {
    let mut column = || COLUMNS[rng.index(COLUMNS.len())];
    let (a, b, c) = (column(), column(), column());
    let (v, w) = (rng.range_i64(0, 99), rng.range_i64(0, 99));
    match rng.next_below(2) {
        0 => format!("SELECT {a} FROM t1 WHERE {b} >= {v}"),
        _ => format!("SELECT COUNT(*) FROM t1 WHERE {b} < {v} AND {c} > {w}"),
    }
}

/// The table's stored bytes and its touched chunks' bytes (the metadata
/// chunk and [`COLUMNS`]' chunks of every block), each per node.
fn working_set(t1: &DatasetSpec) -> Result<(u64, u64)> {
    let bench = build_cluster(spec())?;
    load_dataset(&bench, t1, "/hdfs/bench/t1")?;
    let (mut whole, mut touched) = (0u64, 0u64);
    for block in bench.cluster.catalog().table("t1")?.blocks() {
        let (domain, inner) = bench.cluster.router().resolve(&block.path);
        let data = domain.read_from(inner, NodeId(0))?.data;
        let meta = Block::read_meta(&data)?;
        let lens: Vec<u64> = meta.chunk_lens().collect();
        let columns = COLUMNS.iter().filter_map(|c| meta.schema.index_of(c));
        touched += meta.meta_bytes as u64 + columns.map(|i| lens[i]).sum::<u64>();
        whole += data.len() as u64;
    }
    let nodes = bench.cluster.node_count() as u64;
    Ok((whole / nodes, touched / nodes))
}
