//! The optimizer's allocations follow the statement, not the table: rules
//! edit the plan where it stands, so nothing copies the un-pruned scan's
//! projection — one `String` per field of the table — on the way to the
//! one rule that drops it. Allocation counts are exact and repeat, so
//! they can gate CI where a wall-clock check cannot.

use feisu_format::{DataType, Field, Schema};
use feisu_sql::analyze::analyze;
use feisu_sql::optimizer::optimize_with_trace;
use feisu_sql::parser::parse_query;
use feisu_sql::plan::build_plan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

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

/// Allocations of optimizing `SELECT c0 FROM t WHERE c1 > 5` over a table
/// of `fields` Int64 columns.
fn optimize_allocations(fields: usize) -> usize {
    let columns = (0..fields).map(|c| Field::new(format!("c{c}"), DataType::Int64, false));
    let mut catalog = HashMap::new();
    catalog.insert("t".to_string(), Schema::new(columns.collect()));
    let query = parse_query("SELECT c0 FROM t WHERE c1 > 5").unwrap();
    let plan = build_plan(&analyze(&query, &catalog).unwrap()).unwrap();
    let (allocs, (plan, trace)) = allocations(|| optimize_with_trace(plan).unwrap());
    assert_eq!(
        plan.display_indent(),
        "Project: [c0 AS c0]\n  Scan: t cols=[\"c0\"] filter=(c1 > 5)\n"
    );
    let fired: Vec<&str> = trace.iter().map(|f| f.rule).collect();
    assert_eq!(fired, ["predicate_pushdown", "projection_prune"]);
    allocs
}

#[test]
fn a_wider_table_costs_no_more_than_its_projection_prune() {
    let (narrow, wide) = (optimize_allocations(16), optimize_allocations(256));
    // Dropping a field frees its name; the prune may touch each dropped
    // field (twice at most), a copy of the plan may not exist.
    let dropped = 256 - 16;
    assert!(
        wide <= narrow + 2 * dropped,
        "{narrow} allocations at 16 fields, {wide} at 256"
    );
}
