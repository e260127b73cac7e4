//! Allocation budget for the leaf's two phases: a scan task allocates
//! neither for the rows of the block nor for the rows it selects. The
//! projection is decoded through the selection into one string buffer, so
//! a `url` nobody selected is never copied and a kept one costs no
//! allocation of its own; a task that only counts rows builds no row at
//! all, and one
//! answered from cached SmartIndex bits lends them, never copying an
//! index. Counts are exact and repeat, so they can gate CI where a
//! wall-clock check cannot.

use feisu_cluster::{CostModel, Topology};
use feisu_common::{BlockId, ByteSize, DomainId, NodeId, SimDuration, SimInstant, UserId};
use feisu_core::leaf::{AggStage, LeafServer, ScanTask};
use feisu_format::table::BlockDesc;
use feisu_format::{BitVec, Block, Column, DataType, Field, Schema, Value};
use feisu_index::manager::IndexManager;
use feisu_sql::ast::AggFunc;
use feisu_sql::cnf::to_cnf;
use feisu_sql::parser::parse_expr;
use feisu_sql::plan::AggExpr;
use feisu_storage::auth::{AuthService, Credential, Grant};
use feisu_storage::{Domain, StorageRouter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc`: its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialized
// thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes `f` allocates on this thread.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

const ROWS: usize = 4096;
const DICTIONARY: usize = 64;

struct Rig {
    leaf: LeafServer,
    router: StorageRouter,
    cred: Credential,
    block: BlockDesc,
}

/// One 4,096-row block on HDFS: `id` = 0..4096, `url` cycling through 64
/// distinct strings.
fn rig() -> Rig {
    let topology = Arc::new(Topology::grid(1, 2, 2));
    let cost = CostModel::default();
    let hdfs = Domain::hdfs(DomainId(1), "hdfs", topology, 3, 7);
    let auth = Arc::new(AuthService::new(9));
    auth.register(UserId(1));
    auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
    let cred = auth
        .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
        .unwrap();
    let router = StorageRouter::new(vec![hdfs], 0, auth, None);
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("url", DataType::Utf8, false),
    ]);
    let urls = (0..ROWS).map(|i| format!("https://example.com/page/{}", i % DICTIONARY));
    let columns = vec![
        Column::from_i64((0..ROWS as i64).collect()),
        Column::from_utf8(urls.collect()),
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
    }
}

fn project_url(rig: &Rig, predicate: &str) -> ScanTask {
    ScanTask {
        table: "t".into(),
        block: rig.block.clone(),
        projection: vec!["url".into()],
        output_schema: Schema::new(vec![Field::new("url", DataType::Utf8, false)]),
        cnf: to_cnf(&parse_expr(predicate).unwrap()),
        residual: Vec::new(),
        agg: None,
        name_map: Default::default(),
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

#[test]
fn decoding_a_utf8_chunk_allocates_the_same_at_any_row_count() {
    let decode = |rows: usize| {
        let urls = (0..rows).map(|i| format!("https://example.com/page/{}", i % DICTIONARY));
        let schema = Schema::new(vec![Field::new("url", DataType::Utf8, false)]);
        let column = Column::from_utf8(urls.collect());
        let bytes = Block::new(BlockId(0), schema, vec![column])
            .unwrap()
            .serialize();
        let meta = Block::read_meta(&bytes).unwrap();
        let every_row = BitVec::ones(rows);
        let (allocs, out) = allocations(|| meta.decode_selected(&bytes, &["url"], &every_row));
        assert_eq!(out.unwrap()[0].len(), rows);
        allocs
    };
    assert_eq!(decode(256), decode(4_096));
}

#[test]
fn decoding_one_row_of_a_bool_chunk_allocates_no_word_per_row() {
    let rows = 65_536;
    let schema = Schema::new(vec![Field::new("flag", DataType::Bool, false)]);
    let flags = Column::from_bool((0..rows).map(|i| i % 3 == 0).collect());
    let bytes = Block::new(BlockId(0), schema, vec![flags])
        .unwrap()
        .serialize();
    let meta = Block::read_meta(&bytes).unwrap();
    let mut one_row = BitVec::zeros(rows);
    one_row.set(rows - 1, true);
    let (allocated, out) = allocated_bytes(|| meta.decode_selected(&bytes, &["flag"], &one_row));
    assert_eq!(out.unwrap()[0].value(0), Value::Bool(true));
    // Only the decompressed chunk body (a validity bit and a value bit per
    // row: rows/4 bytes) is read whole; the kept row's validity bit is read
    // from it in place, and one `u64` per row would be 8 bytes.
    assert!(
        allocated <= rows / 4 + 512,
        "{allocated} bytes allocated to decode one row of {rows} booleans"
    );
}

#[test]
fn decoding_one_row_of_an_uncompressed_chunk_copies_no_chunk() {
    let rows = 65_536;
    // Random values and NULLs: LZ cannot shrink a body of two random bits
    // per row, so the chunk is stored uncompressed.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let values: Vec<Value> = (0..rows)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x & 2 {
                0 => Value::Null,
                _ => Value::Bool(x & 1 == 1),
            }
        })
        .collect();
    let schema = Schema::new(vec![Field::new("flag", DataType::Bool, true)]);
    let flags = Column::from_values(DataType::Bool, &values).unwrap();
    let bytes = Block::new(BlockId(0), schema, vec![flags])
        .unwrap()
        .serialize();
    let meta = Block::read_meta(&bytes).unwrap();
    let stored = meta.chunk_lens().next().unwrap() as usize;
    assert!(
        stored > rows / 4,
        "{stored} bytes: the chunk was compressed"
    );
    let mut one_row = BitVec::zeros(rows);
    one_row.set(rows - 1, true);
    let (allocated, out) = allocated_bytes(|| meta.decode_selected(&bytes, &["flag"], &one_row));
    assert_eq!(out.unwrap()[0].value(0), values[rows - 1]);
    // The body is read where it lies: neither it nor its validity words
    // are copied, so the decode allocates far fewer bytes than the chunk.
    assert!(
        allocated * 16 < stored,
        "{allocated} bytes allocated to decode one row of a {stored}-byte chunk"
    );
}

#[test]
fn a_scan_task_allocates_for_the_rows_it_keeps_not_the_rows_of_the_block() {
    let r = rig();
    let run = |task: &ScanTask| {
        // SmartIndex off: every run decodes `id` and evaluates afresh.
        r.leaf
            .execute(task, &r.router, &r.cred, SimInstant(0), false)
            .unwrap()
    };
    // `id <> 100.5` keeps every row and its zone cannot prove it (the
    // value lies inside the bounds), so it is evaluated like `id < 40`.
    let (few, all) = (project_url(&r, "id < 40"), project_url(&r, "id <> 100.5"));
    // The first touch parses the footer and leaves it resident.
    run(&few);

    let kept = 40;
    let (allocs, out) = allocations(|| run(&few));
    assert_eq!(out.batch.rows(), kept);
    assert_eq!(out.stats.blocks_scanned, 1);
    let urls = out.batch.column(0).utf8().expect("a Utf8 projection");
    assert_eq!(urls.get(39), "https://example.com/page/39");
    assert!(
        allocs < DICTIONARY + 128,
        "{allocs} allocations to keep {kept} of {ROWS} urls"
    );

    // Kept strings are copied into one buffer: keeping every row costs
    // the allocations keeping 40 does.
    let (all_allocs, out) = allocations(|| run(&all));
    assert_eq!(out.batch.rows(), ROWS);
    assert_eq!(out.stats.proved_clauses, 0);
    assert_eq!(all_allocs, allocs, "keeping {ROWS} urls, not {kept}");

    // `id < 4096` the zone proves: `id` is neither decoded nor evaluated,
    // and keeping every row costs no more than keeping 40 did.
    let proved = project_url(&r, "id < 4096");
    let (proved_allocs, out) = allocations(|| run(&proved));
    assert_eq!((out.batch.rows(), out.stats.proved_clauses), (ROWS, 1));
    assert_eq!(out.stats.scanned_predicates, 0);
    assert!(
        proved_allocs <= allocs,
        "{proved_allocs} allocations to keep the {ROWS} urls a proof selects, {allocs} for {kept}"
    );
}

#[test]
fn a_count_only_task_allocates_the_same_at_1_and_at_1000_rows_kept() {
    let r = rig();
    // `url` stays in the projection, as an un-pruned plan leaves it: a
    // bare COUNT(*) is answered by the selection's bit count, so neither
    // the projection nor an aggregation table is ever built.
    let count = |predicate: &str| ScanTask {
        agg: Some(count_star()),
        ..project_url(&r, predicate)
    };
    let run = |task: &ScanTask| {
        r.leaf
            .execute(task, &r.router, &r.cred, SimInstant(0), false)
            .unwrap()
    };
    let (one, many) = (count("id < 1"), count("id < 1000"));
    run(&one);
    let (allocs_one, out) = allocations(|| run(&one));
    assert_eq!((out.stats.rows_out, out.batch.rows()), (1, 1));
    let (allocs_many, out) = allocations(|| run(&many));
    assert_eq!((out.stats.rows_out, out.batch.rows()), (1000, 1));
    assert_eq!(out.batch.column(0).i64_slice(), [1000]);
    assert_eq!(allocs_one, allocs_many);
    assert!(allocs_many < 128, "{allocs_many} allocations to count rows");
}

#[test]
fn a_cached_count_allocates_no_copy_of_an_index() {
    let r = rig();
    let count = |predicate: &str| ScanTask {
        agg: Some(count_star()),
        ..project_url(&r, predicate)
    };
    let run = |task: &ScanTask| {
        r.leaf
            .execute(task, &r.router, &r.cred, SimInstant(0), true)
            .unwrap()
    };
    // Builds and caches four predicates, two of them for their complements.
    run(&count("id < 1000 AND id >= 10 AND id > 2000 AND id = 3000"));
    // Every predicate cached: two directly, `id <= 2000` and `id <> 3000`
    // as the bit-NOT of `id > 2000` and `id = 3000`.
    let cached = count("id < 1000 AND id >= 10 AND id <= 2000 AND id <> 3000");
    let (allocs, out) = allocations(|| run(&cached));
    assert!(out.stats.served_from_memory);
    assert_eq!((out.stats.index_hits, out.stats.rows_out), (4, 990));
    // 41 on four predicates: per predicate, its keys, its bits' words and
    // its share of the transport. Renaming the task's CNF on the leaf made
    // it 50; a copy of the index on each hit (its predicate and compressed
    // words) made it 56.
    let predicates = 4;
    assert!(
        allocs <= 41,
        "{allocs} allocations to count from {predicates} cached predicates"
    );
}
