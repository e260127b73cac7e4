//! Allocation budget for a scan's tasks: a task pays for its own block
//! only. The scan's view, its empty answer, its reuse-signature prefix and
//! its span names are built once per scan, and the merge tree skips the
//! zero-row transports of the blocks the zone maps dropped, so a task
//! whose resident footer disproves its predicate costs a fixed handful of
//! allocations, not a fresh zero-state aggregation table of its own.
//! Counts are exact and repeat, so they can gate CI where a wall-clock
//! check cannot.

use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_format::{Column, DataType, Field, Schema};
use feisu_storage::auth::Credential;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const ROWS_PER_BLOCK: usize = 8;

/// The grouped statement: the zone maps of `k` keep block 0 alone.
const GROUPED: &str = "SELECT g, COUNT(*), SUM(v), MIN(v) FROM t WHERE k < 4 GROUP BY g";

/// A cluster holding `blocks` blocks of `t(k, g, v)`, `k` ascending so
/// every block has its own range. One execution thread, so the whole
/// statement runs on the measuring thread, and no task reuse, so the warm
/// run executes every task again.
fn cluster_with_blocks(blocks: usize) -> (FeisuCluster, Credential) {
    let mut spec = ClusterSpec {
        rows_per_block: ROWS_PER_BLOCK,
        task_reuse: false,
        ..ClusterSpec::small()
    };
    spec.config.execution_threads = 1;
    let cluster = FeisuCluster::new(spec).expect("cluster");
    let user = cluster.register_user("tester");
    cluster.grant_all(user);
    let cred = cluster.login(user).expect("login");
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64, false),
        Field::new("g", DataType::Int64, false),
        Field::new("v", DataType::Int64, false),
    ]);
    cluster
        .create_table("t", schema, "/hdfs/t", &cred)
        .expect("create table");
    let rows = (blocks * ROWS_PER_BLOCK) as i64;
    let columns = vec![
        Column::from_i64((0..rows).collect()),
        Column::from_i64((0..rows).map(|k| k % 3).collect()),
        Column::from_i64((0..rows).map(|k| k * 7 % 11).collect()),
    ];
    let made = cluster.ingest_columns("t", columns, &cred).unwrap();
    assert_eq!(made, blocks);
    (cluster, cred)
}

/// Allocations of the grouped statement once the first run has made every
/// footer resident.
fn warm_run(blocks: usize) -> usize {
    let (cluster, cred) = cluster_with_blocks(blocks);
    let cold = cluster.query(GROUPED, &cred).unwrap();
    let (allocs, warm) = allocations(|| cluster.query(GROUPED, &cred).unwrap());
    assert_eq!(warm.batch, cold.batch);
    assert_eq!(warm.batch.rows(), 3, "groups of g over k < 4");
    assert_eq!(warm.stats.tasks, blocks);
    assert_eq!(warm.stats.blocks_skipped, blocks - 1);
    assert_eq!(warm.stats.reused_tasks, 0);
    allocs
}

/// 64 more skipped tasks cost at most `PER_TASK` allocations each (20
/// today): the task's signature and replica list, its leaf's verdicts,
/// its span's node attribute and its share of the master's per-task
/// bookkeeping. A cloned task, a formatted signature, `String` span names
/// and keys, and a zero-state `AggTable` and its transport per skipped
/// task folded at every merge level made it 97.
#[test]
fn a_skipped_task_allocates_a_fixed_handful() {
    const PER_TASK: usize = 24;
    let (small, large) = (warm_run(64), warm_run(128));
    let per_task = (large - small) as f64 / 64.0;
    assert!(
        per_task <= PER_TASK as f64,
        "{per_task} allocations per skipped task ({small} at 64 blocks, {large} at 128)"
    );
}
