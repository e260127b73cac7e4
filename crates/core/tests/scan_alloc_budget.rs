//! Allocation budget for a scan's tasks: a task pays for its own block
//! only. The scan's view, its empty answer, its reuse signature, its
//! index keys and its span names are built once per scan, replica lists
//! and results are shared, and the merge tree counts and does not fold
//! the zero state of the blocks the zone maps dropped, so a task whose
//! resident footer disproves its predicate costs a fixed handful of
//! allocations, with task reuse on or off.
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

/// One statement shape: the statement that makes every footer resident,
/// then the one measured — a constant apart, so a reused result of the
/// first never answers the second — and the rows the second answers. The
/// zone maps of `k` keep block 0 alone in both.
struct Shape {
    warm: &'static str,
    measured: &'static str,
    rows: usize,
}

const GROUPED: Shape = Shape {
    warm: "SELECT g, COUNT(*), SUM(v), MIN(v) FROM t WHERE k < 4 GROUP BY g",
    measured: "SELECT g, COUNT(*), SUM(v), MIN(v) FROM t WHERE k < 5 GROUP BY g",
    rows: 3,
};

const COUNT: Shape = Shape {
    warm: "SELECT COUNT(*) FROM t WHERE k < 4",
    measured: "SELECT COUNT(*) FROM t WHERE k < 5",
    rows: 1,
};

const ROWS: Shape = Shape {
    warm: "SELECT k, v FROM t WHERE k < 4",
    measured: "SELECT k, v FROM t WHERE k < 5",
    rows: 5,
};

/// A cluster holding `blocks` blocks of `t(k, g, v)`, `k` ascending so
/// every block has its own range. One execution thread, so the whole
/// statement runs on the measuring thread; task reuse as given.
fn cluster_with_blocks(blocks: usize, task_reuse: bool) -> (FeisuCluster, Credential) {
    let mut spec = ClusterSpec {
        rows_per_block: ROWS_PER_BLOCK,
        task_reuse,
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

/// Allocations of the measured statement once the warm one has made every
/// footer resident. Its answer is the one the same statement gives cold,
/// on a fresh cluster whose footers it reads from storage.
fn warm_run(shape: &Shape, blocks: usize, task_reuse: bool) -> usize {
    let cold = {
        let (cluster, cred) = cluster_with_blocks(blocks, task_reuse);
        cluster.query(shape.measured, &cred).unwrap()
    };
    let (cluster, cred) = cluster_with_blocks(blocks, task_reuse);
    cluster.query(shape.warm, &cred).unwrap();
    let (allocs, warm) = allocations(|| cluster.query(shape.measured, &cred).unwrap());
    assert_eq!(warm.batch, cold.batch, "{}", shape.measured);
    assert_eq!(warm.batch.rows(), shape.rows, "{}", shape.measured);
    assert_eq!(warm.stats.tasks, blocks);
    assert_eq!(warm.stats.blocks_skipped, blocks - 1);
    assert_eq!(warm.stats.reused_tasks, 0);
    allocs
}

/// 64 more skipped tasks cost at most `PER_TASK` allocations each, with
/// task reuse on and off, grouped, as a bare global `COUNT(*)` and as
/// rows: the fold of the span tree gives each task span its attribute
/// list, and the merge tree's levels grow with the tasks they merge.
/// Everything else a skipped task touches is shared: its replica list,
/// its scan's empty answer (stored for reuse as it is), its scan's reuse
/// signature and index keys, its span's node and backend. A per-task
/// signature, replica list, verdict list and span attribute strings, a
/// copied empty answer and store, and the zero state folded at every
/// merge level made it 20.7 grouped, 25.5 counting and 13.8 as rows with
/// reuse on; a cloned task, a formatted signature, `String` span names
/// and keys, and a zero-state `AggTable` per skipped task made it 97.
#[test]
fn a_skipped_task_allocates_a_fixed_handful() {
    const PER_TASK: f64 = 6.0;
    for task_reuse in [false, true] {
        for shape in [&GROUPED, &COUNT, &ROWS] {
            let small = warm_run(shape, 64, task_reuse);
            let large = warm_run(shape, 128, task_reuse);
            let per_task = (large - small) as f64 / 64.0;
            assert!(
                per_task <= PER_TASK,
                "{per_task} allocations per skipped task of `{}`, reuse {task_reuse} \
                 ({small} at 64 blocks, {large} at 128)",
                shape.measured
            );
        }
    }
}
