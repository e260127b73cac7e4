//! Hash aggregation with mergeable partial states.
//!
//! Feisu aggregates bottom-up: each leaf computes partial states over its
//! blocks, stem servers merge children, the master finalizes (§III-B).
//! `AggTable` is that partial state; it serializes to/from a
//! `RecordBatch` so it can travel the execution tree like any other data.
//!
//! The table is the transport batch in growable form: [`keys`](crate::keys)
//! turns the key columns into dense group ids, and each aggregate keeps
//! its transport state columns as typed arrays indexed by group id
//! (`Slot`). `update` folds raw argument columns into the arrays,
//! `merge_transport*` folds a peer's state columns, `to_transport` wraps
//! the arrays as columns.

use crate::batch::RecordBatch;
use crate::expr::fit;
use crate::keys::{cell_eq, hash_rows, key_column, sorted_rows, GroupKeys, TypedVec};
use feisu_common::hash::FxHasher;
use feisu_common::{FeisuError, Result};
use feisu_format::column::{ColumnData, Utf8Vec, Validity};
use feisu_format::{BitVec, Column, DataType, Field, Schema, Value};
use feisu_sql::ast::{AggFunc, Expr};
use feisu_sql::plan::AggExpr;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Stable hash partition of a group key for the repartition exchange.
///
/// Uses the deterministic FxHash construction (no per-process seed), so
/// the same key lands in the same partition on every node, every run and
/// every platform — the property the exchange's "disjoint partitions"
/// invariant rests on. `parts <= 1` maps everything to partition 0.
/// This is the definition; the merge path routes whole key columns through
/// [`hash_rows`], which assigns every row the same partition.
pub fn partition_of(key: &[Value], parts: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    partition_of_hash(h.finish(), parts)
}

/// [`partition_of`] from the key's hash (a row of [`hash_rows`]): the
/// hash modulo `parts`, a mask when `parts` is a power of two.
pub fn partition_of_hash(hash: u64, parts: usize) -> usize {
    match parts {
        0 | 1 => 0,
        p if p.is_power_of_two() => (hash & (p as u64 - 1)) as usize,
        p => (hash % p as u64) as usize,
    }
}

/// Each row's group-key hash in a transport batch whose first `keys`
/// columns are the group key: what a partition merger routes and files
/// rows by, computed once for all P of them.
pub fn transport_hashes(batch: &RecordBatch, keys: usize) -> Vec<u64> {
    let keys: Vec<&Column> = batch.columns().iter().take(keys).collect();
    hash_rows(&keys, batch.rows())
}

/// One transport's rows routed to the P partitions of an exchange: each
/// row's group-key hash, and per partition the rows whose key it owns, in
/// row order. Built once per transport for all P mergers; a transport of
/// no rows routes nothing and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Routes {
    hashes: Vec<u64>,
    parts: Vec<Vec<usize>>,
}

impl Routes {
    /// Routes `batch`, whose first `keys` columns are the group key.
    pub fn new(batch: &RecordBatch, keys: usize, parts: usize) -> Routes {
        if batch.is_empty() {
            return Routes::default();
        }
        let hashes = transport_hashes(batch, keys);
        let mut routed = vec![Vec::new(); parts.max(1)];
        for (row, &hash) in hashes.iter().enumerate() {
            routed[partition_of_hash(hash, parts)].push(row);
        }
        Routes {
            hashes,
            parts: routed,
        }
    }

    /// The rows partition `part` folds.
    pub fn rows(&self, part: usize) -> &[usize] {
        self.parts.get(part).map_or(&[], Vec::as_slice)
    }
}

/// Rows of a source batch paired with the group each folds into.
struct Targets<'a> {
    rows: &'a [usize],
    ids: &'a [u32],
}

impl Targets<'_> {
    /// Calls `f(row, group)` for every row where `col` is non-NULL (every
    /// row without a column: `COUNT(*)`).
    fn fold(&self, col: Option<&Column>, mut f: impl FnMut(usize, usize)) {
        // One call site, so `f` is inlined into the loop.
        let nulls = col.filter(|c| c.null_count() > 0).map(Column::validity);
        for (&i, &g) in self.rows.iter().zip(self.ids) {
            if nulls.is_none_or(|v| v.is_valid(i)) {
                f(i, g as usize)
            }
        }
    }

    /// `dst[group] += col[row]` over non-NULL Int64 cells.
    fn add_int(&self, col: &Column, dst: &mut [i64]) -> Result<()> {
        match col.data() {
            ColumnData::Int64(v) => self.fold(Some(col), |i, g| dst[g] = dst[g].wrapping_add(v[i])),
            _ => return non_numeric(col),
        }
        Ok(())
    }

    /// `dst[group] += col[row]` over non-NULL numeric cells.
    fn add_float(&self, col: &Column, dst: &mut [f64]) -> Result<()> {
        match col.data() {
            ColumnData::Int64(v) => self.fold(Some(col), |i, g| dst[g] += v[i] as f64),
            ColumnData::Float64(v) => self.fold(Some(col), |i, g| dst[g] += v[i]),
            _ => return non_numeric(col),
        }
        Ok(())
    }

    /// Keeps per group the least (`keep` = Less) or greatest non-NULL cell
    /// under `Value::total_cmp`.
    fn keep_extreme(&self, col: &Column, best: &mut Best, keep: Ordering) -> Result<()> {
        fn run<T: Copy>(
            (to, col, keep): (&Targets<'_>, &Column, Ordering),
            vals: &[T],
            (best, has): (&mut [T], &mut BitVec),
            cmp: impl Fn(&T, &T) -> Ordering,
        ) {
            to.fold(Some(col), |i, g| {
                if !has.get(g) || cmp(&vals[i], &best[g]) == keep {
                    best[g] = vals[i];
                    has.set(g, true);
                }
            })
        }
        let src = (self, col, keep);
        let to = best.data_type();
        match (col.data(), best) {
            (ColumnData::Utf8(v), Best::Utf8 { best, has }) => self.fold(Some(col), |i, g| {
                if !has.get(g) || v.bytes_at(i).cmp(best[g].as_bytes()) == keep {
                    best[g].clear();
                    best[g].push_str(v.get(i));
                    has.set(g, true);
                }
            }),
            (from, Best::Fixed(TypedVec { data, valid })) => match (from, data) {
                (ColumnData::Bool(v), ColumnData::Bool(b)) => run(src, v, (b, valid), bool::cmp),
                (ColumnData::Int64(v), ColumnData::Int64(b)) => run(src, v, (b, valid), i64::cmp),
                (ColumnData::Float64(v), ColumnData::Float64(b)) => {
                    run(src, v, (b, valid), f64::total_cmp)
                }
                (from, _) => return mismatch(from.data_type(), to),
            },
            (from, _) => return mismatch(from.data_type(), to),
        }
        Ok(())
    }
}

/// MIN/MAX over `from` input into a `to` state.
fn mismatch(from: DataType, to: DataType) -> Result<()> {
    Err(FeisuError::Execution(format!(
        "{from} input for a {to} MIN/MAX"
    )))
}

/// A MIN/MAX state column in the aggregate's output type, NULL until a
/// non-NULL input arrives. Strings are owned per group, so a better one
/// overwrites the old in place; they become one buffer in `to_column`.
#[derive(Debug, Clone)]
enum Best {
    Fixed(TypedVec),
    Utf8 { best: Vec<String>, has: BitVec },
}

impl Best {
    fn new(ty: DataType) -> Best {
        match ty {
            DataType::Utf8 => Best::Utf8 {
                best: Vec::new(),
                has: BitVec::default(),
            },
            ty => Best::Fixed(TypedVec::new(ty)),
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            Best::Fixed(t) => t.data.data_type(),
            Best::Utf8 { .. } => DataType::Utf8,
        }
    }

    fn grow(&mut self, groups: usize) {
        match self {
            Best::Fixed(t) => t.grow(groups),
            Best::Utf8 { best, has } => {
                best.resize(groups, String::new());
                has.resize(groups, false);
            }
        }
    }

    fn to_column(&self) -> Result<Column> {
        Ok(match self {
            Best::Fixed(t) => t.to_column(),
            Best::Utf8 { best, has } => {
                let strings = Utf8Vec::from_strs(best.iter().map(String::as_str))?;
                Column::new(ColumnData::Utf8(strings), Validity::from(has.clone()))
            }
        })
    }
}

/// SUM/AVG over a non-numeric column fails on its first non-NULL cell.
fn non_numeric(col: &Column) -> Result<()> {
    if col.null_count() == col.len() {
        return Ok(());
    }
    let ty = col.data_type();
    Err(FeisuError::Execution(format!(
        "SUM/AVG over non-numeric {ty}"
    )))
}

/// One transport state column as a typed array indexed by group id.
#[derive(Debug, Clone)]
enum Slot {
    /// Non-NULL inputs seen: COUNT's state and AVG's second.
    Count(Vec<i64>),
    /// Running totals, wrapping for Int64 (SUM keeps int precision when
    /// its output is Int64; AVG always sums in f64).
    SumInt(Vec<i64>),
    SumFloat(Vec<f64>),
    /// Whether a SUM saw any non-NULL input (SUM of all-NULL is NULL).
    Seen(BitVec),
    /// MIN (`keep` = Less) or MAX (Greater) in the aggregate's output
    /// type, NULL until a non-NULL input arrives.
    Extreme {
        best: Best,
        keep: Ordering,
    },
}

impl Slot {
    /// The state columns of one aggregate, by transport name suffix.
    fn layout(a: &AggExpr) -> Vec<(&'static str, Slot)> {
        let count = || Slot::Count(Vec::new());
        let sum_float = || Slot::SumFloat(Vec::new());
        match a.func {
            AggFunc::Count => vec![("count", count())],
            // Int64 sums ship as Int64: an f64 column would round values
            // past 2^53 on the wire.
            AggFunc::Sum => {
                let sum = match a.output_type {
                    DataType::Int64 => Slot::SumInt(Vec::new()),
                    _ => sum_float(),
                };
                vec![("sum", sum), ("seen", Slot::Seen(BitVec::default()))]
            }
            AggFunc::Avg => vec![("sum", sum_float()), ("count", count())],
            AggFunc::Min | AggFunc::Max => {
                let keep = match a.func {
                    AggFunc::Min => Ordering::Less,
                    _ => Ordering::Greater,
                };
                let best = Best::new(a.output_type);
                vec![("extreme", Slot::Extreme { best, keep })]
            }
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            Slot::Count(_) | Slot::SumInt(_) => DataType::Int64,
            Slot::SumFloat(_) => DataType::Float64,
            Slot::Seen(_) => DataType::Bool,
            Slot::Extreme { best, .. } => best.data_type(),
        }
    }

    /// Zeroed states for new groups, up to `groups`.
    fn grow(&mut self, groups: usize) {
        match self {
            Slot::Count(v) | Slot::SumInt(v) => v.resize(groups, 0),
            Slot::SumFloat(v) => v.resize(groups, 0.0),
            Slot::Seen(v) => v.resize(groups, false),
            Slot::Extreme { best, .. } => best.grow(groups),
        }
    }

    /// Folds the aggregate's argument column (`None`: `COUNT(*)`).
    fn update(&mut self, arg: Option<&Column>, to: &Targets<'_>) -> Result<()> {
        let input =
            || arg.ok_or_else(|| FeisuError::Execution("aggregate requires an argument".into()));
        match self {
            Slot::Count(n) => to.fold(arg, |_, g| n[g] += 1),
            Slot::SumInt(sum) => to.add_int(input()?, sum)?,
            Slot::SumFloat(sum) => to.add_float(input()?, sum)?,
            Slot::Seen(seen) => to.fold(arg, |_, g| seen.set(g, true)),
            Slot::Extreme { best, keep } => to.keep_extreme(input()?, best, *keep)?,
        }
        Ok(())
    }

    /// Merges a peer's column of this state (of this slot's type). Only a
    /// MIN/MAX state may be NULL.
    fn merge(&mut self, col: &Column, to: &Targets<'_>) -> Result<()> {
        match self {
            Slot::Extreme { best, keep } => return to.keep_extreme(col, best, *keep),
            _ if col.null_count() > 0 => {
                return Err(FeisuError::Corrupt(
                    "transport: NULL in a count, sum or seen column".into(),
                ))
            }
            Slot::Count(n) | Slot::SumInt(n) => to.add_int(col, n)?,
            Slot::SumFloat(sum) => to.add_float(col, sum)?,
            Slot::Seen(seen) => match col.data() {
                ColumnData::Bool(v) => to.fold(None, |i, g| seen.set(g, seen.get(g) | v[i])),
                _ => unreachable!("fold_transport checked the state column types"),
            },
        }
        Ok(())
    }

    fn to_column(&self) -> Result<Column> {
        Ok(match self {
            Slot::Count(v) | Slot::SumInt(v) => Column::from_i64(v.clone()),
            Slot::SumFloat(v) => Column::from_f64(v.clone()),
            Slot::Seen(v) => Column::from_bool((0..v.len()).map(|g| v.get(g)).collect()),
            Slot::Extreme { best, .. } => best.to_column()?,
        })
    }

    /// [`Slot::to_column`], moving the state arrays instead of copying.
    fn into_column(self) -> Result<Column> {
        Ok(match self {
            Slot::Count(v) | Slot::SumInt(v) => Column::from_i64(v),
            Slot::SumFloat(v) => Column::from_f64(v),
            Slot::Extreme {
                best: Best::Fixed(t),
                ..
            } => t.into_column(),
            slot => slot.to_column()?,
        })
    }
}

/// Partial aggregation table: group key → per-aggregate states.
#[derive(Debug, Clone)]
pub struct AggTable {
    group_by: Vec<(Expr, String, DataType)>,
    aggregates: Vec<AggExpr>,
    transport: Schema,
    keys: GroupKeys,
    /// The transport's state columns in transport order, `widths[i]` of
    /// them for aggregate `i`.
    slots: Vec<Slot>,
    widths: Vec<usize>,
    /// Per group, the last transport batch (by `batches`) that carried its
    /// key: a second sighting within one batch is a duplicate.
    stamps: Vec<u32>,
    batches: u32,
}

impl AggTable {
    pub fn new(group_by: Vec<(Expr, String, DataType)>, aggregates: Vec<AggExpr>) -> AggTable {
        let (transport, slots, widths) = transport_layout(&group_by, &aggregates);
        let mut t = AggTable {
            keys: GroupKeys::new(group_by.iter().map(|(_, _, dt)| *dt)),
            transport,
            group_by,
            aggregates,
            slots,
            widths,
            stamps: Vec::new(),
            batches: 0,
        };
        // Global aggregation (no GROUP BY) must produce one row even over
        // zero input rows: its one group, the empty key, exists up front.
        if t.group_by.is_empty() {
            t.group_ids(&[], &[0], &[0])
                .expect("an empty key fits a key store without columns");
        }
        t
    }

    /// Group id per row of `rows`, new groups' states zeroed.
    fn group_ids(&mut self, keys: &[&Column], hashes: &[u64], rows: &[usize]) -> Result<Vec<u32>> {
        if self.group_by.is_empty() && !self.keys.is_empty() {
            return Ok(vec![0; rows.len()]);
        }
        let ids = self.keys.ids(keys, hashes, rows, true)?;
        let groups = self.keys.len();
        self.slots.iter_mut().for_each(|s| s.grow(groups));
        self.stamps.resize(groups, 0);
        Ok(ids)
    }

    /// Folds one batch into the table.
    pub fn update(&mut self, batch: &RecordBatch) -> Result<()> {
        let keys: Vec<Cow<'_, Column>> = self
            .group_by
            .iter()
            .map(|(e, _, dt)| key_column(batch, e, Some(*dt)))
            .collect::<Result<_>>()?;
        let keys: Vec<&Column> = keys.iter().map(Cow::as_ref).collect();
        let rows: Vec<usize> = (0..batch.rows()).collect();
        let ids = self.group_ids(&keys, &hash_rows(&keys, batch.rows()), &rows)?;
        let to = Targets {
            rows: &rows,
            ids: &ids,
        };
        let mut slots = self.slots.iter_mut();
        for (a, &width) in self.aggregates.iter().zip(&self.widths) {
            // MIN/MAX keep their extreme in the output type; the others
            // read the argument in whatever type it has.
            let ty = matches!(a.func, AggFunc::Min | AggFunc::Max).then_some(a.output_type);
            let arg = match &a.arg {
                Some(e) => Some(key_column(batch, e, ty)?),
                None => None,
            };
            for slot in slots.by_ref().take(width) {
                slot.update(arg.as_deref(), &to)?;
            }
        }
        Ok(())
    }

    /// Merges another partial table (same shape) into this one.
    pub fn merge(&mut self, other: &AggTable) -> Result<()> {
        self.fold_transport(&other.to_transport()?, None, None)
            .map(drop)
    }

    pub fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// The schema of the table's transport batches.
    pub fn transport_schema(&self) -> &Schema {
        &self.transport
    }

    /// Finalizes into the aggregate operator's output batch, groups in key
    /// order. The key and state arrays move into columns, which are
    /// gathered once, in that order.
    pub fn finish(self, output_schema: &Schema) -> Result<RecordBatch> {
        let rows = self.group_count();
        let columns = moved_columns(self.keys, self.slots)?;
        finish_columns(
            &columns,
            rows,
            &self.aggregates,
            &self.widths,
            output_schema,
        )
    }

    // ---- shipping: partial tables travel the tree as record batches ----

    /// The transport batch of a bare global `COUNT(*)` over `rows` rows —
    /// what `new` + `update` + `to_transport` produce, without the table.
    pub fn count_star_transport(rows: usize) -> Result<RecordBatch> {
        let state = Field::new("s0:count", DataType::Int64, true);
        let counts = Column::from_i64(vec![rows as i64]);
        RecordBatch::new(Schema::new(vec![state]), vec![counts])
    }

    /// Serializes the table to its transport batch.
    pub fn to_transport(&self) -> Result<RecordBatch> {
        RecordBatch::new(self.transport.clone(), self.columns()?)
    }

    /// [`AggTable::to_transport`] for a table dropped right after: its key
    /// and state arrays move into the batch instead of being copied, their
    /// spare capacity dropped, as a copy would, since a transport may be
    /// kept (a reused task result is the leaf's own batch).
    pub fn into_transport(self) -> Result<RecordBatch> {
        let mut columns = moved_columns(self.keys, self.slots)?;
        columns.iter_mut().for_each(Column::shrink_to_fit);
        RecordBatch::new(self.transport, columns)
    }

    /// The transport's columns: the keys, then the state columns.
    fn columns(&self) -> Result<Vec<Column>> {
        let mut columns = self.keys.columns();
        for slot in &self.slots {
            columns.push(slot.to_column()?);
        }
        Ok(columns)
    }

    /// Rebuilds a table from a transport batch produced by a peer with the
    /// same plan shape.
    pub fn from_transport(
        group_by: Vec<(Expr, String, DataType)>,
        aggregates: Vec<AggExpr>,
        batch: &RecordBatch,
    ) -> Result<AggTable> {
        let mut t = AggTable::new(group_by, aggregates);
        t.fold_transport(batch, None, None)?;
        Ok(t)
    }

    /// Folds a peer's transport batch directly into this table, merging
    /// states group by group — the shape (group-by exprs, aggregate list)
    /// is built once on the accumulator instead of being re-cloned into a
    /// throwaway `AggTable` per child. Returns the number of transport
    /// rows folded.
    pub fn merge_transport(&mut self, batch: &RecordBatch) -> Result<usize> {
        self.fold_transport(batch, None, None)
    }

    /// Folds only the rows of `batch` whose group key hashes to `part`
    /// (of `parts`) — one partition merger's share of the repartition
    /// exchange. `hashes` are the rows' group-key hashes
    /// ([`transport_hashes`]). Returns the number of rows folded.
    pub fn merge_transport_hashed(
        &mut self,
        batch: &RecordBatch,
        hashes: &[u64],
        part: usize,
        parts: usize,
    ) -> Result<usize> {
        let rows: Vec<usize> = (0..hashes.len())
            .filter(|&i| partition_of_hash(hashes[i], parts) == part)
            .collect();
        self.fold_transport(batch, Some(hashes), Some(&rows))
    }

    /// [`AggTable::merge_transport_hashed`] over `batch` routed once for
    /// all P partition mergers.
    pub fn merge_transport_routed(
        &mut self,
        batch: &RecordBatch,
        routes: &Routes,
        part: usize,
    ) -> Result<usize> {
        self.fold_transport(batch, Some(&routes.hashes), Some(routes.rows(part)))
    }

    /// Shared transport fold. The batch must have this table's transport
    /// columns. A well-formed transport batch carries each group key at
    /// most once; a duplicate within one batch means partial states were
    /// split and would be silently double-merged, so it is rejected as
    /// corruption (duplicates *across* batches are the normal merge case).
    fn fold_transport(
        &mut self,
        batch: &RecordBatch,
        hashes: Option<&[u64]>,
        rows: Option<&[usize]>,
    ) -> Result<usize> {
        check_transport(&self.transport, batch)?;
        let (keys, states) = batch.columns().split_at(self.group_by.len());
        let keys: Vec<&Column> = keys.iter().collect();
        let computed;
        let hashes = match hashes {
            Some(hashes) if hashes.len() == batch.rows() => hashes,
            Some(_) => return Err(FeisuError::Internal("one key hash per row expected".into())),
            None => {
                computed = hash_rows(&keys, batch.rows());
                &computed
            }
        };
        let every: Vec<usize>;
        let rows = match rows {
            Some(rows) => rows,
            None => {
                every = (0..batch.rows()).collect();
                &every
            }
        };
        let ids = self.group_ids(&keys, hashes, rows)?;
        self.batches = self
            .batches
            .checked_add(1)
            .ok_or_else(|| FeisuError::Internal("transport batch counter overflow".into()))?;
        for &g in &ids {
            if std::mem::replace(&mut self.stamps[g as usize], self.batches) == self.batches {
                return Err(duplicate_key());
            }
        }
        let to = Targets { rows, ids: &ids };
        for (slot, col) in self.slots.iter_mut().zip(states) {
            slot.merge(col, &to)?;
        }
        Ok(rows.len())
    }
}

/// A table's transport columns, its key and state arrays moved into them.
fn moved_columns(keys: GroupKeys, slots: Vec<Slot>) -> Result<Vec<Column>> {
    let mut columns = keys.into_columns();
    for slot in slots {
        columns.push(slot.into_column()?);
    }
    Ok(columns)
}

/// A plan shape's transport: its schema — `k:<name>` per group key, then
/// `s<i>:<state>` per state column of aggregate `i` — and the empty state
/// slots behind those columns, `widths[i]` of them for aggregate `i`.
fn transport_layout(
    group_by: &[(Expr, String, DataType)],
    aggregates: &[AggExpr],
) -> (Schema, Vec<Slot>, Vec<usize>) {
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|(_, name, dt)| Field::new(format!("k:{name}"), *dt, true))
        .collect();
    let (mut slots, mut widths) = (Vec::new(), Vec::new());
    for (i, a) in aggregates.iter().enumerate() {
        let layout = Slot::layout(a);
        widths.push(layout.len());
        for (what, slot) in layout {
            fields.push(Field::new(format!("s{i}:{what}"), slot.data_type(), true));
            slots.push(slot);
        }
    }
    (Schema::new(fields), slots, widths)
}

/// `Corrupt` unless `batch` has the columns of transport schema `want`,
/// in its types.
fn check_transport(want: &Schema, batch: &RecordBatch) -> Result<()> {
    let corrupt = |what: String| Err(FeisuError::Corrupt(format!("transport: {what}")));
    let (want, got) = (want.fields(), batch.columns());
    if got.len() != want.len() {
        return corrupt(format!("{} columns, expected {}", got.len(), want.len()));
    }
    if let Some((f, c)) = (want.iter().zip(got)).find(|(f, c)| c.data_type() != f.data_type) {
        let (name, got, dt) = (&f.name, c.data_type(), f.data_type);
        return corrupt(format!("`{name}` is {got}, expected {dt}"));
    }
    Ok(())
}

fn duplicate_key() -> FeisuError {
    FeisuError::Corrupt("transport: duplicate group key".into())
}

/// Finalizes a transport batch that carries each group key at most once —
/// one table's, or the concatenation of disjoint partitions' — into the
/// aggregate operator's output batch, groups in key order. Nothing is
/// folded: the rows are sorted by key once, a repeated key (adjacent after
/// the sort) is `Corrupt`, and each state column is gathered in that
/// order. A global transport of 0 rows finishes as the zero state.
pub fn finish_transport(
    group_by: &[(Expr, String, DataType)],
    aggregates: &[AggExpr],
    batch: &RecordBatch,
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let (transport, slots, widths) = transport_layout(group_by, aggregates);
    check_transport(&transport, batch)?;
    if !group_by.is_empty() || batch.rows() > 0 {
        let (columns, rows) = (batch.columns(), batch.rows());
        return finish_columns(columns, rows, aggregates, &widths, output_schema);
    }
    let zero = (slots.into_iter())
        .map(|mut slot| {
            slot.grow(1);
            slot.to_column()
        })
        .collect::<Result<Vec<_>>>()?;
    finish_columns(&zero, 1, aggregates, &widths, output_schema)
}

/// [`finish_transport`] over `rows` rows of well-typed transport columns:
/// the group key, then `widths[i]` state columns for aggregate `i`.
fn finish_columns(
    columns: &[Column],
    rows: usize,
    aggregates: &[AggExpr],
    widths: &[usize],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let (keys, mut states) = columns.split_at(columns.len() - widths.iter().sum::<usize>());
    let sort_keys: Vec<(&Column, bool)> = keys.iter().map(|c| (c, false)).collect();
    let order = sorted_rows(&sort_keys, rows, None);
    let same = |a: usize, b: usize| {
        keys.iter().all(|c| {
            let valid = c.validity();
            valid.is_valid(a) == valid.is_valid(b)
                && (!valid.is_valid(a) || cell_eq(c.data(), a, c.data(), b))
        })
    };
    if order.windows(2).any(|w| same(w[0], w[1])) {
        return Err(duplicate_key());
    }
    let mut columns: Vec<Column> = (keys.iter())
        .map(|c| c.try_take(&order))
        .collect::<Result<_>>()?;
    let ints = |v: &[i64]| order.iter().map(|&i| v[i]).collect::<Vec<_>>();
    // A fold adds each partial to 0.0, so a -0.0 sum finishes as +0.0.
    let floats = |v: &[f64]| order.iter().map(|&i| 0.0 + v[i]).collect::<Vec<_>>();
    let bits = |v: &[bool]| BitVec::from_bools(order.iter().map(|&i| v[i]));
    for (a, &width) in aggregates.iter().zip(widths) {
        let (mine, rest) = states.split_at(width);
        states = rest;
        if matches!(a.func, AggFunc::Min | AggFunc::Max) {
            columns.push(mine[0].try_take(&order)?);
            continue;
        }
        if mine.iter().any(|c| c.null_count() > 0) {
            return Err(FeisuError::Corrupt(
                "transport: NULL in a count, sum or seen column".into(),
            ));
        }
        let data: Vec<&ColumnData> = mine.iter().map(|c| c.data()).collect();
        columns.push(match data[..] {
            [ColumnData::Int64(count)] => Column::from_i64(ints(count)),
            [ColumnData::Int64(sum), ColumnData::Bool(seen)] => {
                Column::new(ColumnData::Int64(ints(sum)), bits(seen).into())
            }
            [ColumnData::Float64(sum), ColumnData::Bool(seen)] => {
                Column::new(ColumnData::Float64(floats(sum)), bits(seen).into())
            }
            [ColumnData::Float64(sum), ColumnData::Int64(count)] => {
                let avg = order.iter().map(|&i| match count[i] {
                    0 => 0.0,
                    n => (0.0 + sum[i]) / n as f64,
                });
                let has = BitVec::from_bools(order.iter().map(|&i| count[i] != 0));
                Column::new(ColumnData::Float64(avg.collect()), has.into())
            }
            _ => unreachable!("state columns have their layout's types"),
        });
    }
    if columns.len() != output_schema.len() {
        return Err(FeisuError::Execution(format!(
            "aggregate yields {} columns for {} output fields",
            columns.len(),
            output_schema.len()
        )));
    }
    let columns: Vec<Column> = columns
        .into_iter()
        .zip(output_schema.fields())
        .map(|(c, f)| fit(Cow::Owned(c), f.data_type))
        .collect::<Result<_>>()?;
    RecordBatch::new(output_schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_sql::ast::Expr;

    fn input() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Utf8, false),
            Field::new("v", DataType::Int64, true),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_utf8(vec![
                    "a".into(),
                    "b".into(),
                    "a".into(),
                    "b".into(),
                    "a".into(),
                ]),
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Int64(10),
                        Value::Int64(2),
                        Value::Null,
                        Value::Int64(3),
                    ],
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "COUNT(*)".into(),
                output_type: DataType::Int64,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col("v")),
                name: "SUM(v)".into(),
                output_type: DataType::Int64,
            },
            AggExpr {
                func: AggFunc::Avg,
                arg: Some(Expr::col("v")),
                name: "AVG(v)".into(),
                output_type: DataType::Float64,
            },
            AggExpr {
                func: AggFunc::Min,
                arg: Some(Expr::col("v")),
                name: "MIN(v)".into(),
                output_type: DataType::Int64,
            },
            AggExpr {
                func: AggFunc::Max,
                arg: Some(Expr::col("v")),
                name: "MAX(v)".into(),
                output_type: DataType::Int64,
            },
        ]
    }

    fn group_by() -> Vec<(Expr, String, DataType)> {
        vec![(Expr::col("g"), "g".into(), DataType::Utf8)]
    }

    fn out_schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Utf8, true),
            Field::new("COUNT(*)", DataType::Int64, true),
            Field::new("SUM(v)", DataType::Int64, true),
            Field::new("AVG(v)", DataType::Float64, true),
            Field::new("MIN(v)", DataType::Int64, true),
            Field::new("MAX(v)", DataType::Int64, true),
        ])
    }

    #[test]
    fn grouped_aggregation() {
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&input()).unwrap();
        let out = t.finish(&out_schema()).unwrap();
        assert_eq!(out.rows(), 2);
        // Group "a": count 3, sum 6, avg 2, min 1, max 3.
        assert_eq!(out.value_at(0, "g"), Some(Value::Utf8("a".into())));
        assert_eq!(out.value_at(0, "COUNT(*)"), Some(Value::Int64(3)));
        assert_eq!(out.value_at(0, "SUM(v)"), Some(Value::Int64(6)));
        assert_eq!(out.value_at(0, "AVG(v)"), Some(Value::Float64(2.0)));
        // Group "b": count 2 (COUNT(*) counts null rows), sum 10, avg 10.
        assert_eq!(out.value_at(1, "COUNT(*)"), Some(Value::Int64(2)));
        assert_eq!(out.value_at(1, "SUM(v)"), Some(Value::Int64(10)));
        assert_eq!(out.value_at(1, "AVG(v)"), Some(Value::Float64(10.0)));
        assert_eq!(out.value_at(1, "MIN(v)"), Some(Value::Int64(10)));
    }

    #[test]
    fn count_star_transport_is_what_a_table_ships() {
        let count_star = || vec![aggs().swap_remove(0)];
        let mut t = AggTable::new(Vec::new(), count_star());
        // Zero rows seen is still one row shipped.
        let none = AggTable::count_star_transport(0).unwrap();
        assert_eq!(none, t.to_transport().unwrap());
        t.update(&input()).unwrap();
        let five = AggTable::count_star_transport(5).unwrap();
        assert_eq!(five, t.to_transport().unwrap());
        // And it merges like one.
        t.merge_transport(&five).unwrap();
        let doubled = AggTable::count_star_transport(10).unwrap();
        assert_eq!(doubled, t.to_transport().unwrap());
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let t = AggTable::new(Vec::new(), aggs());
        let schema = Schema::new(out_schema().fields()[1..].to_vec());
        let out = t.finish(&schema).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value_at(0, "COUNT(*)"), Some(Value::Int64(0)));
        assert_eq!(out.value_at(0, "SUM(v)"), Some(Value::Null));
        assert_eq!(out.value_at(0, "AVG(v)"), Some(Value::Null));
        assert_eq!(out.value_at(0, "MIN(v)"), Some(Value::Null));
    }

    #[test]
    fn merge_equals_single_pass() {
        let batch = input();
        let mut whole = AggTable::new(group_by(), aggs());
        whole.update(&batch).unwrap();

        let first = batch.take(&[0, 1]).unwrap();
        let second = batch.take(&[2, 3, 4]).unwrap();
        let mut a = AggTable::new(group_by(), aggs());
        a.update(&first).unwrap();
        let mut b = AggTable::new(group_by(), aggs());
        b.update(&second).unwrap();
        a.merge(&b).unwrap();

        assert_eq!(
            a.finish(&out_schema()).unwrap(),
            whole.finish(&out_schema()).unwrap()
        );
    }

    #[test]
    fn transport_roundtrip_preserves_merge_semantics() {
        let batch = input();
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&batch).unwrap();
        let shipped = t.to_transport().unwrap();
        let back = AggTable::from_transport(group_by(), aggs(), &shipped).unwrap();
        assert_eq!(
            back.finish(&out_schema()).unwrap(),
            t.finish(&out_schema()).unwrap()
        );
        // And merging two shipped halves equals the whole.
        let mut a = AggTable::new(group_by(), aggs());
        a.update(&batch.take(&[0, 1]).unwrap()).unwrap();
        let mut b = AggTable::new(group_by(), aggs());
        b.update(&batch.take(&[2, 3, 4]).unwrap()).unwrap();
        let mut merged =
            AggTable::from_transport(group_by(), aggs(), &a.to_transport().unwrap()).unwrap();
        let b2 = AggTable::from_transport(group_by(), aggs(), &b.to_transport().unwrap()).unwrap();
        merged.merge(&b2).unwrap();
        let mut whole = AggTable::new(group_by(), aggs());
        whole.update(&batch).unwrap();
        assert_eq!(
            merged.finish(&out_schema()).unwrap(),
            whole.finish(&out_schema()).unwrap()
        );
    }

    #[test]
    fn global_transport_roundtrip_empty() {
        // A leaf that saw zero rows ships a one-row zero state; merging N
        // of them still yields COUNT(*)=0.
        let t = AggTable::new(Vec::new(), aggs());
        let shipped = t.to_transport().unwrap();
        let back = AggTable::from_transport(Vec::new(), aggs(), &shipped).unwrap();
        let schema = Schema::new(out_schema().fields()[1..].to_vec());
        assert_eq!(
            back.finish(&schema).unwrap().value_at(0, "COUNT(*)"),
            Some(Value::Int64(0))
        );
    }

    #[test]
    fn int_sum_transport_is_exact_past_2_53() {
        // 2^53 + 1 is the first integer f64 cannot represent; the old
        // Float64 transport column rounded it to 2^53.
        let big = (1i64 << 53) + 1;
        let schema = Schema::new(vec![Field::new("v", DataType::Int64, false)]);
        let batch = RecordBatch::new(schema, vec![Column::from_i64(vec![big - 5, 5])]).unwrap();
        let sum = vec![AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col("v")),
            name: "SUM(v)".into(),
            output_type: DataType::Int64,
        }];
        let mut t = AggTable::new(Vec::new(), sum.clone());
        t.update(&batch).unwrap();
        let shipped = t.to_transport().unwrap();
        assert_eq!(
            shipped.schema().fields()[0].data_type,
            DataType::Int64,
            "Int64 sums must ship as an Int64 column"
        );
        let back = AggTable::from_transport(Vec::new(), sum, &shipped).unwrap();
        let out = Schema::new(vec![Field::new("SUM(v)", DataType::Int64, true)]);
        assert_eq!(
            back.finish(&out).unwrap().value_at(0, "SUM(v)"),
            Some(Value::Int64(big))
        );
    }

    #[test]
    fn duplicate_transport_group_key_rejected() {
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&input()).unwrap();
        let shipped = t.to_transport().unwrap();
        // Replaying the same group row twice must not silently drop the
        // first copy's states.
        let dup = shipped.take(&[0, 0]).unwrap();
        assert!(matches!(
            AggTable::from_transport(group_by(), aggs(), &dup),
            Err(FeisuError::Corrupt(_))
        ));
    }

    /// `shipped` with column `col` replaced.
    fn with_column(shipped: &RecordBatch, col: usize, replacement: Column) -> RecordBatch {
        let mut fields = shipped.schema().fields().to_vec();
        fields[col].data_type = replacement.data_type();
        let mut columns = shipped.columns().to_vec();
        columns[col] = replacement;
        RecordBatch::new(Schema::new(fields), columns).unwrap()
    }

    #[test]
    fn malformed_transports_are_corrupt_not_panics() {
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&input()).unwrap();
        let shipped = t.to_transport().unwrap();
        let names: Vec<&str> = (shipped.schema().fields().iter())
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names[..4], ["k:g", "s0:count", "s1:sum", "s1:seen"]);
        let strings = Column::from_utf8(vec!["x".into(), "y".into()]);
        let ints = Column::from_i64(vec![1, 1]);
        let null_count =
            Column::from_values(DataType::Int64, &[Value::Int64(3), Value::Null]).unwrap();
        let short = RecordBatch::new(
            Schema::new(shipped.schema().fields()[..3].to_vec()),
            shipped.columns()[..3].to_vec(),
        )
        .unwrap();
        for (what, bad) in [
            ("too few columns", short),
            (
                "Utf8 in a sum slot",
                with_column(&shipped, 2, strings.clone()),
            ),
            ("Int64 in a seen slot", with_column(&shipped, 3, ints)),
            ("NULL count", with_column(&shipped, 1, null_count)),
            (
                "Int64 group key",
                with_column(&shipped, 0, Column::from_i64(vec![1, 2])),
            ),
        ] {
            for rows in [None, Some(&[0][..])] {
                let mut acc = AggTable::new(group_by(), aggs());
                let got = acc.fold_transport(&bad, None, rows);
                assert!(
                    matches!(got, Err(FeisuError::Corrupt(_))),
                    "{what}: {got:?}"
                );
            }
            let got = finish_transport(&group_by(), &aggs(), &bad, &out_schema());
            assert!(
                matches!(got, Err(FeisuError::Corrupt(_))),
                "finish, {what}: {got:?}"
            );
        }
        // MIN/MAX states may be NULL: group "b" of an all-NULL input.
        let nulls = input().take(&[3]).unwrap();
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&nulls).unwrap();
        let back = AggTable::from_transport(group_by(), aggs(), &t.to_transport().unwrap());
        assert_eq!(
            back.unwrap()
                .finish(&out_schema())
                .unwrap()
                .value_at(0, "MIN(v)"),
            Some(Value::Null)
        );
    }

    #[test]
    fn a_negative_zero_float_sum_finishes_as_the_fold_left_it() {
        let sum = vec![AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col("f")),
            name: "SUM(f)".into(),
            output_type: DataType::Float64,
        }];
        let states = Schema::new(vec![
            Field::new("s0:sum", DataType::Float64, true),
            Field::new("s0:seen", DataType::Bool, true),
        ]);
        let columns = vec![Column::from_f64(vec![-0.0]), Column::from_bool(vec![true])];
        let shipped = RecordBatch::new(states, columns).unwrap();
        let out = Schema::new(vec![Field::new("SUM(f)", DataType::Float64, true)]);
        let got = finish_transport(&[], &sum, &shipped, &out).unwrap();
        let folded = AggTable::from_transport(Vec::new(), sum, &shipped).unwrap();
        assert_eq!(got, folded.finish(&out).unwrap());
        let Some(Value::Float64(f)) = got.value_at(0, "SUM(f)") else {
            panic!("a Float64 sum")
        };
        assert_eq!(f.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn partitioned_fold_union_equals_unpartitioned_merge() {
        let batch = input();
        // Two peers ship overlapping group sets.
        let mut a = AggTable::new(group_by(), aggs());
        a.update(&batch.take(&[0, 1, 2]).unwrap()).unwrap();
        let mut b = AggTable::new(group_by(), aggs());
        b.update(&batch.take(&[3, 4]).unwrap()).unwrap();
        let transports = [a.to_transport().unwrap(), b.to_transport().unwrap()];

        let mut whole = AggTable::new(group_by(), aggs());
        for t in &transports {
            whole.merge_transport(t).unwrap();
        }
        let expected = whole.finish(&out_schema()).unwrap();

        for parts in 1..=8usize {
            // Each partition merger folds only its slice of every peer's
            // transport; the union of the disjoint slices must equal the
            // unpartitioned merge, and row counts must add up exactly.
            let mut union = AggTable::new(group_by(), aggs());
            let mut folded = 0usize;
            for part in 0..parts {
                let mut p = AggTable::new(group_by(), aggs());
                for t in &transports {
                    let hashes = transport_hashes(t, 1);
                    folded += p.merge_transport_hashed(t, &hashes, part, parts).unwrap();
                }
                union.merge(&p).unwrap();
            }
            assert_eq!(
                folded,
                transports.iter().map(|t| t.rows()).sum::<usize>(),
                "every transport row lands in exactly one partition"
            );
            assert_eq!(
                union.finish(&out_schema()).unwrap(),
                expected,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        let keys = [
            vec![Value::Utf8("a".into())],
            vec![Value::Int64(42), Value::Utf8("x".into())],
            vec![Value::Null],
            vec![],
        ];
        for key in &keys {
            assert_eq!(partition_of(key, 1), 0);
            for parts in 2..=16usize {
                let p = partition_of(key, parts);
                assert!(p < parts);
                // FxHash is seedless: same key, same partition, always.
                assert_eq!(p, partition_of(key, parts));
            }
        }
        // Distinct keys should not all collapse onto one partition.
        let spread: std::collections::HashSet<usize> = (0..64i64)
            .map(|i| partition_of(&[Value::Int64(i)], 8))
            .collect();
        assert!(spread.len() > 1, "64 keys hashed to a single partition");
    }

    #[test]
    fn duplicate_key_within_partition_slice_rejected() {
        let mut t = AggTable::new(group_by(), aggs());
        t.update(&input()).unwrap();
        let shipped = t.to_transport().unwrap();
        let dup = shipped.take(&[0, 0]).unwrap();
        // Row 0's key lands in exactly one partition p of 4; folding the
        // duplicated batch for that p must still trip the corruption check.
        let key: Vec<Value> = vec![dup.column(0).value(0)];
        let part = partition_of(&key, 4);
        let mut acc = AggTable::new(group_by(), aggs());
        assert!(matches!(
            acc.merge_transport_hashed(&dup, &transport_hashes(&dup, 1), part, 4),
            Err(FeisuError::Corrupt(_))
        ));
    }

    #[test]
    fn sum_type_error_detected() {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        let batch = RecordBatch::new(schema, vec![Column::from_utf8(vec!["x".into()])]).unwrap();
        let mut t = AggTable::new(
            Vec::new(),
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col("s")),
                name: "SUM(s)".into(),
                output_type: DataType::Utf8,
            }],
        );
        assert!(t.update(&batch).is_err());
    }
}
