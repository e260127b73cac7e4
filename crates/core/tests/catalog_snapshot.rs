//! The catalog lends a table's descriptor, it does not copy it:
//! `Catalog::table()` is a refcount bump whatever the table's size, and a
//! handle is a snapshot — it keeps the blocks it was taken with while
//! ingest appends copy-on-write; a `Schema` is lent the same way, and so
//! are a table's statistics between two ingests.
//! Allocation counts are exact and repeat, so they can gate CI where a
//! wall-clock check cannot.

use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_format::{Column, DataType, Field, Schema};
use feisu_storage::auth::Credential;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

const ROWS_PER_BLOCK: usize = 4;

/// A small cluster holding table `t` of `columns` Int64 columns.
fn cluster_with_table(columns: usize) -> (FeisuCluster, Credential) {
    let spec = ClusterSpec {
        rows_per_block: ROWS_PER_BLOCK,
        ..ClusterSpec::small()
    };
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    let fields = (0..columns).map(|c| Field::new(format!("c{c}"), DataType::Int64, false));
    cluster
        .create_table("t", Schema::new(fields.collect()), "/hdfs/t", &cred)
        .expect("create table");
    (cluster, cred)
}

fn ingest_blocks(cluster: &FeisuCluster, cred: &Credential, columns: usize, blocks: usize) {
    let rows = (blocks * ROWS_PER_BLOCK) as i64;
    let data = (0..columns).map(|_| Column::from_i64((0..rows).collect()));
    let made = cluster.ingest_columns("t", data.collect(), cred).unwrap();
    assert_eq!(made, blocks);
}

fn count_star(cluster: &FeisuCluster, cred: &Credential) -> usize {
    let result = cluster.query("SELECT COUNT(*) FROM t", cred).unwrap();
    result.batch.column(0).i64_slice()[0] as usize
}

#[test]
fn table_allocates_nothing_whatever_the_block_and_column_count() {
    for (columns, blocks) in [(2, 4), (64, 64)] {
        let (cluster, cred) = cluster_with_table(columns);
        ingest_blocks(&cluster, &cred, columns, blocks);
        let (allocs, desc) = allocations(|| cluster.catalog().table("t").unwrap());
        assert_eq!(desc.block_count(), blocks);
        assert_eq!(desc.schema.len(), columns);
        assert_eq!(allocs, 0, "{blocks} blocks x {columns} columns");
    }
}

/// A schema is shared by refcount: the per-task, per-block and
/// per-statement clones of a wide table's schema copy no field name.
#[test]
fn a_schema_clone_allocates_nothing_and_equality_is_by_fields() {
    let fields = || (0..128).map(|c| Field::new(format!("c{c}"), DataType::Int64, c % 2 == 0));
    let schema = Schema::new(fields().collect());
    let (allocs, copy) = allocations(|| schema.clone());
    assert_eq!(allocs, 0);
    assert_eq!(schema, copy);
    assert_eq!(copy.index_of("c127"), Some(127));
    // Equality is by content, not by allocation.
    assert_eq!(schema, Schema::new(fields().collect()));
    assert_ne!(schema, Schema::new(fields().take(127).collect()));
}

/// The planner asks for a table's statistics once per relation and once
/// per join-condition side: between two ingests every call after the
/// first is a refcount bump, whatever the table's width.
#[test]
fn table_stats_are_built_once_per_ingest_and_lent_after() {
    for columns in [8, 256] {
        let (cluster, cred) = cluster_with_table(columns);
        ingest_blocks(&cluster, &cred, columns, 2);
        let first = cluster.catalog().table_stats("t").unwrap();
        let (allocs, second) = allocations(|| cluster.catalog().table_stats("t").unwrap());
        assert_eq!(allocs, 0, "{columns} columns");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.rows, (2 * ROWS_PER_BLOCK) as u64);
        assert_eq!(second.columns.len(), columns);
        // An ingest in between shows through, and a handle taken before
        // it keeps what it was taken with.
        ingest_blocks(&cluster, &cred, columns, 3);
        let after = cluster.catalog().table_stats("t").unwrap();
        assert_eq!(after.rows, (5 * ROWS_PER_BLOCK) as u64);
        // The second ingest's values 0..12 cover the first's 0..8.
        assert_eq!(after.column_ndv("c0"), (3 * ROWS_PER_BLOCK) as u64);
        assert_eq!(first.column_ndv("c0"), (2 * ROWS_PER_BLOCK) as u64);
        assert_eq!(first.rows, (2 * ROWS_PER_BLOCK) as u64);
    }
}

/// Ingest moves rows into their block and sketches a Utf8 column from its
/// chunk dictionary: one block of the same 8 strings costs as many
/// allocations at 256 rows as at 4,096.
#[test]
fn ingest_allocates_per_block_not_per_row() {
    let allocations_for = |rows: usize| {
        let spec = ClusterSpec {
            rows_per_block: rows,
            ..ClusterSpec::small()
        };
        let cluster = FeisuCluster::new(spec).expect("cluster");
        let user = cluster.register_user("tester");
        cluster.grant_all(user);
        let cred = cluster.login(user).expect("login");
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        cluster
            .create_table("t", schema, "/hdfs/t", &cred)
            .expect("create table");
        let strings = (0..rows).map(|i| format!("value-{}", i % 8)).collect();
        let column = Column::from_utf8(strings);
        let (allocs, made) = allocations(|| cluster.ingest_columns("t", vec![column], &cred));
        assert_eq!(made.unwrap(), 1);
        allocs
    };
    assert_eq!(allocations_for(256), allocations_for(4096));
}

#[test]
fn calls_between_ingests_share_one_allocation() {
    let (cluster, cred) = cluster_with_table(2);
    ingest_blocks(&cluster, &cred, 2, 4);
    let first = cluster.catalog().table("t").unwrap();
    let second = cluster.catalog().table("t").unwrap();
    assert!(Arc::ptr_eq(&first, &second));
}

#[test]
fn a_handle_keeps_the_blocks_it_was_taken_with() {
    let (cluster, cred) = cluster_with_table(2);
    ingest_blocks(&cluster, &cred, 2, 4);
    let before = cluster.catalog().table("t").unwrap();
    ingest_blocks(&cluster, &cred, 2, 3);
    assert_eq!(before.block_count(), 4);
    assert_eq!(before.rows(), 4 * ROWS_PER_BLOCK);
    let after = cluster.catalog().table("t").unwrap();
    assert_eq!(after.block_count(), 7);
    assert!(!Arc::ptr_eq(&before, &after));
    // The old handle's blocks are a prefix of the new one's.
    assert!(before.blocks().eq(after.blocks().take(4)));
}

/// Ingest appends whole blocks, so a statement planned from any snapshot
/// counts a whole number of them, and later snapshots only grow.
#[test]
fn a_query_beside_repeated_ingests_counts_whole_blocks_and_never_fewer() {
    const INGESTS: usize = 24;
    const BLOCKS_PER_INGEST: usize = 3;
    let (cluster, cred) = cluster_with_table(2);
    ingest_blocks(&cluster, &cred, 2, 1);
    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    let counts = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut counts = Vec::new();
            start.wait();
            // One more after the writer is done: sees every block.
            while !done.load(Ordering::SeqCst) {
                counts.push(count_star(&cluster, &cred));
            }
            counts.push(count_star(&cluster, &cred));
            counts
        });
        start.wait();
        for _ in 0..INGESTS {
            ingest_blocks(&cluster, &cred, 2, BLOCKS_PER_INGEST);
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    for pair in counts.windows(2) {
        assert!(pair[0] <= pair[1], "COUNT(*) went down: {counts:?}");
    }
    for c in &counts {
        assert_eq!(c % ROWS_PER_BLOCK, 0, "a partial block showed: {counts:?}");
    }
    let total = (1 + INGESTS * BLOCKS_PER_INGEST) * ROWS_PER_BLOCK;
    assert_eq!(counts.last(), Some(&total));
}
