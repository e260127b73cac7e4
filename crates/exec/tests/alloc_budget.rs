//! Allocation budgets for the key layer: the per-row heap traffic the
//! `Vec<Value>` keys used to cause must not come back. Counts are exact
//! and repeat, so they can gate CI where a wall-clock check cannot.

use feisu_exec::aggregate::{finish_transport, AggTable, Routes};
use feisu_exec::batch::RecordBatch;
use feisu_exec::sort::sort;
use feisu_format::{Column, DataType, Field, Schema};
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::plan::AggExpr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a realloc: its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size));
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

fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn agg(func: AggFunc, arg: Option<&str>) -> AggExpr {
    AggExpr {
        func,
        arg: arg.map(Expr::col),
        name: format!("{func}"),
        output_type: DataType::Int64,
    }
}

fn count_and_sum() -> Vec<AggExpr> {
    vec![agg(AggFunc::Count, None), agg(AggFunc::Sum, Some("v"))]
}

fn batch(key: Column, rows: usize) -> RecordBatch {
    let schema = Schema::new(vec![
        Field::new("k", key.data_type(), false),
        Field::new("v", DataType::Int64, false),
    ]);
    RecordBatch::new(
        schema,
        vec![key, Column::from_i64((0..rows as i64).collect())],
    )
    .unwrap()
}

#[test]
fn update_on_an_int_key_allocates_per_batch_not_per_row() {
    let rows = 8_192;
    let input = batch(
        Column::from_i64((0..rows as i64).map(|i| i % 64).collect()),
        rows,
    );
    let group_by = vec![(Expr::col("k"), "k".to_string(), DataType::Int64)];
    let mut table = AggTable::new(group_by, count_and_sum());
    let (allocs, result) = allocations(|| table.update(&input));
    result.unwrap();
    assert_eq!(table.group_count(), 64);
    assert!(allocs < rows / 16, "{allocs} allocations for {rows} rows");
}

#[test]
fn partition_fold_allocates_per_new_group_and_nothing_per_rejected_row() {
    let rows = 4_096;
    let urls = (0..rows).map(|i| format!("https://site{i}.example/a/rather/long/path"));
    let group_by = vec![(Expr::col("k"), "k".to_string(), DataType::Utf8)];
    let mut leaf = AggTable::new(group_by.clone(), count_and_sum());
    leaf.update(&batch(Column::from_utf8(urls.collect()), rows))
        .unwrap();
    let transport = leaf.to_transport().unwrap();

    let fold = |batch: &RecordBatch| {
        let mut acc = AggTable::new(group_by.clone(), count_and_sum());
        let routes = Routes::new(batch, 1, 4);
        let (allocs, folded) = allocations(|| acc.merge_transport_routed(batch, &routes, 0));
        (allocs, folded.unwrap(), acc)
    };
    let (allocs, folded, acc) = fold(&transport);
    assert!(
        folded > rows / 8 && folded < rows / 2,
        "partition 0 got {folded} of {rows}"
    );
    assert_eq!(acc.group_count(), folded);
    // One key copy per new group, plus the doubling of a handful of arrays.
    assert!(
        allocs <= folded + 256,
        "{allocs} allocations for {folded} new groups"
    );

    // The same groups arriving without the 3/4 of rows this partition
    // rejects cost the same: a rejected row allocates nothing.
    let (allocs_alone, folded_alone, _) = fold(&acc.to_transport().unwrap());
    assert_eq!(folded_alone, folded);
    assert!(
        allocs <= allocs_alone + 8,
        "{allocs} allocations with rejected rows, {allocs_alone} without"
    );
}

#[test]
fn concat_of_utf8_batches_allocates_the_same_at_any_row_count() {
    let concat = |rows: usize| {
        let batches: Vec<RecordBatch> = (0..16)
            .map(|b| {
                let urls = (0..rows).map(|i| format!("https://site{}.example/{b}", i % 64));
                batch(Column::from_utf8(urls.collect()), rows)
            })
            .collect();
        let (allocs, out) = allocations(|| RecordBatch::concat(&batches));
        assert_eq!(out.unwrap().rows(), 16 * rows);
        allocs
    };
    assert_eq!(concat(256), concat(4_096));
}

#[test]
fn top_k_sort_allocates_per_kept_row_not_per_input_row() {
    let rows = 16_384;
    let input = batch(
        Column::from_i64((0..rows as i64).map(|i| (i * 7_919) % 10_007).collect()),
        rows,
    );
    let keys = [(Expr::col("k"), true), (Expr::col("v"), false)];
    let (allocs, out) = allocations(|| sort(&input, &keys, Some(100)));
    assert_eq!(out.unwrap().rows(), 100);
    assert!(allocs < rows / 16, "{allocs} allocations for {rows} rows");
}

#[test]
fn finishing_a_transport_allocates_its_output_and_no_hash_table() {
    let groups = 10_000;
    let urls = (0..groups).map(|i| format!("https://site{i}.example/a/rather/long/path"));
    let group_by = vec![(Expr::col("k"), "k".to_string(), DataType::Utf8)];
    let mut leaf = AggTable::new(group_by.clone(), count_and_sum());
    leaf.update(&batch(Column::from_utf8(urls.collect()), groups))
        .unwrap();
    let transport = leaf.to_transport().unwrap();
    let out = Schema::new(vec![
        Field::new("k", DataType::Utf8, true),
        Field::new("COUNT", DataType::Int64, true),
        Field::new("SUM", DataType::Int64, true),
    ]);
    let (bytes, finished) =
        bytes_allocated(|| finish_transport(&group_by, &count_and_sum(), &transport, &out));
    assert_eq!(finished.unwrap().rows(), groups);
    // The output and one sort index per group fit in the transport's
    // footprint (which bills a string 24 bytes over its own); a re-fold
    // adds per group a hash, an id, table slots and a second copy of every
    // key, some 5.7 times the footprint in all.
    let shipped = transport.footprint();
    assert!(
        bytes <= shipped,
        "{bytes} bytes allocated to finish a {shipped}-byte transport"
    );
}
