//! The key layer under aggregate, join and sort: key *columns* in, dense
//! `u32` group ids and row orders out — no per-row `Vec<Value>`.
//!
//! * [`key_column`] resolves a key or argument expression to a column once
//!   per batch (a bare column reference borrows).
//! * [`hash_rows`] hashes every row's key column-wise, feeding `FxHasher`
//!   the byte stream `Value::hash` would — so `hash % parts` is the
//!   partition `aggregate::partition_of` assigns, and one hash serves both
//!   the exchange router and the group table.
//! * [`GroupKeys`] interns keys into dense ids: an open-addressing table
//!   of ids over typed key vectors (strings in one buffer, compared as
//!   bytes), with monomorphic loops for a single `Int64` and a single
//!   `Utf8` key and a per-column loop for the rest.
//!   Equality is `Value`'s structural `Eq`: `NULL == NULL`, floats
//!   bitwise, `Int64 != Float64`.
//! * [`sorted_rows`] orders row indices by typed key columns under
//!   `Value::total_cmp` (NULLs first), ties by row index.

use crate::batch::RecordBatch;
use crate::expr::{eval_to_column, eval_to_natural_column};
use feisu_common::hash::FxHasher;
use feisu_common::{FeisuError, Result};
use feisu_format::column::{ColumnData, Utf8Vec, Validity};
use feisu_format::{BitVec, Column, DataType};
use feisu_sql::ast::Expr;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hasher;

/// The column `expr` evaluates to over `batch`, as `ty` when given and in
/// the expression's own type otherwise.
pub fn key_column<'a>(
    batch: &'a RecordBatch,
    expr: &Expr,
    ty: Option<DataType>,
) -> Result<Cow<'a, Column>> {
    if let Expr::Column(name) = expr {
        let c = batch
            .column_by_name(name)
            .ok_or_else(|| FeisuError::Execution(format!("unknown column `{name}`")))?;
        if ty.is_none_or(|t| t == c.data_type()) {
            return Ok(Cow::Borrowed(c));
        }
    }
    match ty {
        Some(t) => eval_to_column(batch, expr, t),
        None => eval_to_natural_column(batch, expr),
    }
    .map(Cow::Owned)
}

/// One hash per row over the key columns: per key, `Value::hash`'s tag
/// byte then its payload, NULL as tag 0 alone.
pub fn hash_rows(cols: &[&Column], rows: usize) -> Vec<u64> {
    fn feed<T>(
        hashers: &mut [FxHasher],
        col: &Column,
        cells: impl Iterator<Item = T>,
        tag: u8,
        write: impl Fn(&mut FxHasher, T),
    ) {
        let (valid, no_nulls) = (col.validity(), col.null_count() == 0);
        for (i, (h, v)) in hashers.iter_mut().zip(cells).enumerate() {
            if no_nulls || valid.is_valid(i) {
                h.write_u8(tag);
                write(h, v);
            } else {
                h.write_u8(0);
            }
        }
    }
    let mut hashers = vec![FxHasher::default(); rows];
    for col in cols {
        let hs = &mut hashers[..];
        match col.data() {
            ColumnData::Bool(v) => feed(hs, col, v.iter(), 1, |h, b| h.write_u8(*b as u8)),
            ColumnData::Int64(v) => feed(hs, col, v.iter(), 2, |h, x| h.write_u64(*x as u64)),
            ColumnData::Float64(v) => feed(hs, col, v.iter(), 3, |h, x| h.write_u64(x.to_bits())),
            ColumnData::Utf8(v) => feed(hs, col, v.iter_bytes(), 4, |h, s| h.write(s)),
        }
    }
    hashers.iter().map(|h| h.finish()).collect()
}

/// Id [`GroupKeys::ids`] reports for a key it was not asked to insert.
pub const ABSENT: u32 = u32::MAX;

/// Open-addressing index from key hash to dense id. The keys live with
/// the caller; the table holds ids and, per id, the hash it was filed
/// under (a cheap first reject, and all that growing needs).
#[derive(Debug, Clone, Default)]
struct IdTable {
    slots: Vec<u32>,
    hashes: Vec<u64>,
}

impl IdTable {
    /// `Ok(id)` of the key with this hash that `eq` accepts, or `Err` with
    /// the free slot where it belongs. Slots are indexed by the hash's top
    /// bits: FxHash mixes upward, and the low bits are spoken for by the
    /// exchange router (`hash % parts`).
    fn probe(&self, hash: u64, eq: impl Fn(usize) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[at] {
                ABSENT => return Err(at),
                id if self.hashes[id as usize] == hash && eq(id as usize) => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn find(&self, hash: u64, eq: impl Fn(usize) -> bool) -> u32 {
        if self.slots.is_empty() {
            return ABSENT;
        }
        self.probe(hash, eq).unwrap_or(ABSENT)
    }

    /// The id of the key and whether it is new (then the next dense id,
    /// and the caller stores the key).
    fn find_or_insert(&mut self, hash: u64, eq: impl Fn(usize) -> bool) -> (u32, bool) {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.slots = vec![ABSENT; (self.slots.len() * 2).max(16)];
            for id in 0..self.hashes.len() {
                let free = self.probe(self.hashes[id], |_| false).unwrap_err();
                self.slots[free] = id as u32;
            }
        }
        match self.probe(hash, eq) {
            Ok(id) => (id, false),
            Err(free) => {
                let id = self.hashes.len() as u32;
                self.slots[free] = id;
                self.hashes.push(hash);
                (id, true)
            }
        }
    }
}

/// A growable typed vector with per-slot validity: the storage behind
/// group keys and MIN/MAX states. NULL slots hold the type's default, as
/// `Column::from_values` leaves them.
#[derive(Debug, Clone)]
pub(crate) struct TypedVec {
    pub data: ColumnData,
    pub valid: BitVec,
}

impl TypedVec {
    pub fn new(ty: DataType) -> TypedVec {
        TypedVec {
            data: ColumnData::with_capacity(ty, 0, 0),
            valid: BitVec::default(),
        }
    }

    /// Appends NULLs up to `len` slots.
    pub fn grow(&mut self, len: usize) {
        match &mut self.data {
            ColumnData::Bool(v) => v.resize(len, false),
            ColumnData::Int64(v) => v.resize(len, 0),
            ColumnData::Float64(v) => v.resize(len, 0.0),
            ColumnData::Utf8(v) => v.pad_to(len),
        }
        self.valid.resize(len, false);
    }

    /// Appends row `i` of `col` (same type).
    fn push_from(&mut self, col: &Column, i: usize) -> Result<()> {
        if !col.validity().is_valid(i) {
            self.grow(self.valid.len() + 1);
            return Ok(());
        }
        match (&mut self.data, col.data()) {
            (ColumnData::Bool(v), ColumnData::Bool(c)) => v.push(c[i]),
            (ColumnData::Int64(v), ColumnData::Int64(c)) => v.push(c[i]),
            (ColumnData::Float64(v), ColumnData::Float64(c)) => v.push(c[i]),
            (ColumnData::Utf8(v), ColumnData::Utf8(c)) => v.push_from(c, i)?,
            _ => unreachable!("GroupKeys::ids checked the key types"),
        }
        self.valid.push(true);
        Ok(())
    }

    pub fn to_column(&self) -> Column {
        Column::new(self.data.clone(), Validity::from(self.valid.clone()))
    }

    pub fn into_column(self) -> Column {
        Column::new(self.data, Validity::from(self.valid))
    }
}

/// `Value`'s structural equality on two non-NULL cells.
pub(crate) fn cell_eq(a: &ColumnData, i: usize, b: &ColumnData, j: usize) -> bool {
    match (a, b) {
        (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
        (ColumnData::Int64(a), ColumnData::Int64(b)) => a[i] == b[j],
        (ColumnData::Float64(a), ColumnData::Float64(b)) => a[i].to_bits() == b[j].to_bits(),
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.bytes_at(i) == b.bytes_at(j),
        _ => false,
    }
}

/// Distinct keys seen so far, each under a dense id in first-seen order.
#[derive(Debug, Clone)]
pub struct GroupKeys {
    table: IdTable,
    cols: Vec<TypedVec>,
}

impl GroupKeys {
    pub fn new(types: impl IntoIterator<Item = DataType>) -> GroupKeys {
        GroupKeys {
            table: IdTable::default(),
            cols: types.into_iter().map(TypedVec::new).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.table.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys as columns, row = id.
    pub fn columns(&self) -> Vec<Column> {
        self.cols.iter().map(TypedVec::to_column).collect()
    }

    /// [`GroupKeys::columns`], moved out.
    pub(crate) fn into_columns(self) -> Vec<Column> {
        self.cols.into_iter().map(TypedVec::into_column).collect()
    }

    /// The id of each of `rows`' keys (`hashes` from [`hash_rows`] over the
    /// same `cols`). Unseen keys get the next id when `insert`, [`ABSENT`]
    /// otherwise.
    pub fn ids(
        &mut self,
        cols: &[&Column],
        hashes: &[u64],
        rows: &[usize],
        insert: bool,
    ) -> Result<Vec<u32>> {
        let stored = self.cols.iter().map(|k| k.data.data_type());
        if !stored.eq(cols.iter().map(|c| c.data_type())) {
            return Err(FeisuError::Internal(
                "key columns do not match the key store's types".into(),
            ));
        }
        if self.len() + rows.len() >= ABSENT as usize {
            return Err(FeisuError::Execution("too many distinct keys".into()));
        }
        let (table, sel) = (&mut self.table, (hashes, rows, insert));
        if let ([key], [col]) = (&mut self.cols[..], cols) {
            let (valid, cv) = (&mut key.valid, col.validity());
            match (&mut key.data, col.data()) {
                (ColumnData::Int64(keys), ColumnData::Int64(v)) => {
                    let eq = |keys: &Vec<i64>, g: usize, i: usize| keys[g] == v[i];
                    let push = |keys: &mut Vec<i64>, i: Option<usize>| {
                        keys.push(i.map_or(0, |i| v[i]));
                        Ok(())
                    };
                    return single(table, (keys, valid), cv, sel, eq, push);
                }
                (ColumnData::Utf8(keys), ColumnData::Utf8(v)) => {
                    let eq = |keys: &Utf8Vec, g: usize, i: usize| keys.bytes_at(g) == v.bytes_at(i);
                    let push = |keys: &mut Utf8Vec, i: Option<usize>| match i {
                        Some(i) => keys.push_from(v, i),
                        None => keys.push(""),
                    };
                    return single(table, (keys, valid), cv, sel, eq, push);
                }
                _ => {}
            }
        }
        assign(
            table,
            &mut self.cols,
            sel,
            |store, g, i| {
                store.iter().zip(cols).all(|(k, c)| {
                    k.valid.get(g) == c.validity().is_valid(i)
                        && (!k.valid.get(g) || cell_eq(&k.data, g, c.data(), i))
                })
            },
            |store, i| {
                store
                    .iter_mut()
                    .zip(cols)
                    .try_for_each(|(k, c)| k.push_from(c, i))
            },
        )
    }
}

/// What [`assign`] visits: row hashes, the rows to look at, and whether
/// unseen keys are inserted.
type Selection<'a> = (&'a [u64], &'a [usize], bool);

/// [`assign`] for one key column of payload `K` with validity `cv`:
/// `eq(keys, id, row)` compares two non-NULL keys, `push(keys, row)`
/// stores a row's key (`None`: NULL, stored as the type's default).
fn single<K>(
    table: &mut IdTable,
    mut store: (&mut K, &mut BitVec),
    cv: &Validity,
    sel: Selection<'_>,
    eq: impl Fn(&K, usize, usize) -> bool,
    push: impl Fn(&mut K, Option<usize>) -> Result<()>,
) -> Result<Vec<u32>> {
    assign(
        table,
        &mut store,
        sel,
        |(keys, valid), g, i| valid.get(g) == cv.is_valid(i) && (!valid.get(g) || eq(keys, g, i)),
        |(keys, valid), i| {
            valid.push(cv.is_valid(i));
            push(keys, cv.is_valid(i).then_some(i))
        },
    )
}

/// The loop every [`GroupKeys::ids`] path runs, monomorphized per key
/// store `S`: `eq(store, id, row)` compares a stored key with a row's,
/// `push(store, row)` stores the row's key as the next id.
fn assign<S>(
    table: &mut IdTable,
    store: &mut S,
    (hashes, rows, insert): Selection<'_>,
    eq: impl Fn(&S, usize, usize) -> bool,
    push: impl Fn(&mut S, usize) -> Result<()>,
) -> Result<Vec<u32>> {
    let mut ids = Vec::with_capacity(rows.len());
    for &i in rows {
        ids.push(match insert {
            false => table.find(hashes[i], |g| eq(store, g, i)),
            true => {
                let (id, new) = table.find_or_insert(hashes[i], |g| eq(store, g, i));
                if new {
                    push(store, i)?;
                }
                id
            }
        });
    }
    Ok(ids)
}

/// `$body` with `$cmp` bound to a comparator over two non-NULL rows of
/// `$col`, monomorphized for its type; strings compare bytes.
macro_rules! with_typed_cmp {
    ($col:expr, |$cmp:ident| $body:expr) => {
        match $col.data() {
            ColumnData::Bool(v) => {
                let $cmp = move |a: usize, b: usize| v[a].cmp(&v[b]);
                $body
            }
            ColumnData::Int64(v) => {
                let $cmp = move |a: usize, b: usize| v[a].cmp(&v[b]);
                $body
            }
            ColumnData::Float64(v) => {
                let $cmp = move |a: usize, b: usize| v[a].total_cmp(&v[b]);
                $body
            }
            ColumnData::Utf8(v) => {
                let $cmp = move |a: usize, b: usize| v.bytes_at(a).cmp(v.bytes_at(b));
                $body
            }
        }
    };
}

/// Row indices `0..rows` ordered by the key columns (`true` = DESC) under
/// `Value::total_cmp` — NULLs first, so last under DESC — with ties in row
/// order; only the first `fetch` when given.
///
/// The first key's comparator is typed for its column (and for whether it
/// has NULLs), so the sort inlines it; the later keys' boxed chain and the
/// row-index tiebreak run only on its ties.
pub fn sorted_rows(keys: &[(&Column, bool)], rows: usize, fetch: Option<usize>) -> Vec<usize> {
    type RowCmp<'a> = Box<dyn Fn(&usize, &usize) -> Ordering + 'a>;
    let Some((&(col, desc), rest)) = keys.split_first() else {
        return order(rows, fetch, usize::cmp);
    };
    let none = |_, _| Ordering::Equal;
    let rest: Vec<RowCmp<'_>> = (rest.iter())
        .map(|&(col, desc)| {
            with_typed_cmp!(col, |cmp| Box::new(by(desc, nulls_first(col, cmp), none))
                as RowCmp<'_>)
        })
        .collect();
    let tie = |a: usize, b: usize| {
        let by_keys = rest.iter().map(|cmp| cmp(&a, &b)).find(|o| o.is_ne());
        by_keys.unwrap_or_else(|| a.cmp(&b))
    };
    with_typed_cmp!(col, |cmp| match col.null_count() {
        0 => order(rows, fetch, by(desc, cmp, tie)),
        _ => order(rows, fetch, by(desc, nulls_first(col, cmp), tie)),
    })
}

/// `cmp` over a column's non-NULL rows, extended to its NULLs: first.
fn nulls_first<'a>(
    col: &'a Column,
    cmp: impl Fn(usize, usize) -> Ordering + 'a,
) -> impl Fn(usize, usize) -> Ordering + 'a {
    let valid = col.validity();
    move |a, b| match (valid.is_valid(a), valid.is_valid(b)) {
        (true, true) => cmp(a, b),
        (a, b) => a.cmp(&b),
    }
}

/// The row comparator of a key ordered by `cmp`, reversed under DESC, ties
/// to `tie`. DESC swaps the rows rather than reversing the result, which
/// leaves the comparison branch-free in the sort's inner loop.
fn by(
    desc: bool,
    cmp: impl Fn(usize, usize) -> Ordering,
    tie: impl Fn(usize, usize) -> Ordering,
) -> impl Fn(&usize, &usize) -> Ordering {
    move |&a, &b| {
        let (x, y) = if desc { (b, a) } else { (a, b) };
        cmp(x, y).then_with(|| tie(a, b))
    }
}

/// `0..rows` ordered by `cmp`, only the first `fetch` when given.
fn order(
    rows: usize,
    fetch: Option<usize>,
    cmp: impl Fn(&usize, &usize) -> Ordering,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rows).collect();
    if let Some(k) = fetch.filter(|&k| k < rows) {
        if k > 0 {
            idx.select_nth_unstable_by(k - 1, &cmp);
        }
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}
