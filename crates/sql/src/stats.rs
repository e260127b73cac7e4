//! Table statistics for cost-based planning.
//!
//! The catalog accumulates these at ingest (row counts, per-column
//! min/max/null-count and an approximate distinct count) and serves them
//! to the planner through [`crate::analyze::Catalog::table_stats`]. The
//! join-order search turns them into cardinality estimates; predicates
//! the leaf-side SmartIndex or footer zone maps can serve (simple
//! `column OP literal` conjuncts) get stats-derived selectivities, while
//! opaque residuals fall back to a conservative constant — so plans whose
//! filters the free per-block indexes can serve are systematically
//! preferred.

use crate::ast::{BinaryOp, Expr};
use crate::cnf::{to_cnf, Disjunct};
use feisu_common::hash::{hash_one, FxHashMap};
use feisu_format::column::ColumnData;
use feisu_format::{Column, Value};

/// Number of minimum hashes the KMV distinct-count sketch retains.
/// Exact below `K` distinct values; ~6% standard error above.
pub const KMV_K: usize = 256;

/// Selectivity assumed for predicates the stats cannot reason about.
pub const DEFAULT_SELECTIVITY: f64 = 0.25;

/// K-minimum-values sketch for approximate distinct counting. Fully
/// deterministic: the hash is the fixed engine hasher, and the state is
/// the `K` smallest distinct hashes seen, in ascending order, plus whether
/// any other was seen — identical ingest order or not, the same value set
/// yields the same estimate.
#[derive(Debug, Clone, Default)]
pub struct NdvSketch {
    /// Sorted, distinct, at most `KMV_K` long.
    kmin: Vec<u64>,
    /// More than `KMV_K` distinct hashes were seen.
    saturated: bool,
}

impl NdvSketch {
    /// Folds one non-null value into the sketch. Nulls are ignored (they
    /// are tracked by `null_count`, and never join).
    pub fn observe(&mut self, v: &Value) {
        if !matches!(v, Value::Null) {
            self.insert_all([hash_value(v)]);
        }
    }

    /// Folds every non-null cell of a column, hashing the typed slices in
    /// place: what [`NdvSketch::observe`] over each `column.value(r)`
    /// gives, without building the `Value`s.
    pub fn observe_column(&mut self, column: &Column) {
        let valid = column.validity();
        let rows = (0..column.len()).filter(|&r| valid.is_valid(r));
        match column.data() {
            ColumnData::Bool(v) => self.insert_all(rows.map(|r| hash_bool(v[r]))),
            ColumnData::Int64(v) => self.insert_all(rows.map(|r| hash_f64(v[r] as f64))),
            ColumnData::Float64(v) => self.insert_all(rows.map(|r| hash_f64(v[r]))),
            ColumnData::Utf8(v) => self.insert_all(rows.map(|r| hash_utf8(v.bytes_at(r)))),
        }
    }

    /// Folds in distinct strings — a Utf8 chunk's dictionary
    /// ([`feisu_format::block::ChunkSummary::distinct`]): one hash per
    /// string, what [`NdvSketch::observe_column`] gives over the rows.
    pub fn observe_strs(&mut self, strings: &[&str]) {
        self.insert_all(strings.iter().map(|s| hash_utf8(s.as_bytes())));
    }

    /// Folds another sketch in: the union of both hash sets cut back to
    /// the `K` smallest — the sketch of everything either one observed.
    pub fn merge(&mut self, other: &NdvSketch) {
        self.saturated |= other.saturated;
        self.union(&other.kmin);
    }

    /// Once the sketch is full, a hash above its largest costs a compare;
    /// the rest are taken `K` at a time, sorted and merged in.
    fn insert_all(&mut self, hashes: impl IntoIterator<Item = u64>) {
        let mut hashes = hashes.into_iter().peekable();
        while hashes.peek().is_some() {
            let kth = self.kmin.get(KMV_K - 1).copied();
            let saturated = &mut self.saturated;
            let below_kth = |&h: &u64| {
                let above = kth.is_some_and(|kth| h > kth);
                *saturated |= above;
                !above
            };
            let mut batch: Vec<u64> = hashes.by_ref().filter(below_kth).take(KMV_K).collect();
            batch.sort_unstable();
            batch.dedup();
            self.union(&batch);
        }
    }

    /// Merges a sorted, distinct run into `kmin`, keeping the `K`
    /// smallest; anything left over was a distinct hash beyond them.
    fn union(&mut self, other: &[u64]) {
        let (a, b) = (&self.kmin, other);
        let mut kmin = Vec::with_capacity(KMV_K.min(a.len() + b.len()));
        let (mut i, mut j) = (0, 0);
        while kmin.len() < KMV_K && (i < a.len() || j < b.len()) {
            let (x, y) = (a.get(i).copied(), b.get(j).copied());
            let next = match (x, y) {
                (Some(x), Some(y)) => x.min(y),
                _ => x.or(y).expect("one side is not exhausted"),
            };
            i += usize::from(x == Some(next));
            j += usize::from(y == Some(next));
            kmin.push(next);
        }
        self.saturated |= i < a.len() || j < b.len();
        self.kmin = kmin;
    }

    /// The distinct-count estimate: exact while under `K` distinct
    /// hashes, else the classic `(K-1) / kth_smallest_normalized`.
    pub fn estimate(&self) -> u64 {
        if !self.saturated {
            return self.kmin.len() as u64;
        }
        let kth = *self.kmin.last().expect("saturated");
        let normalized = (kth as f64) / (u64::MAX as f64);
        if normalized <= 0.0 {
            return self.kmin.len() as u64;
        }
        (((KMV_K - 1) as f64) / normalized).round() as u64
    }
}

/// Hashes one value into the sketch domain. Int64 and Float64 with the
/// same numeric value hash identically so ingest widening (`5` stored as
/// `5.0`) does not double-count.
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(b) => hash_bool(*b),
        Value::Int64(i) => hash_f64(*i as f64),
        Value::Float64(f) => hash_f64(*f),
        Value::Utf8(s) => hash_utf8(s.as_bytes()),
    }
}

fn hash_bool(b: bool) -> u64 {
    hash_one(&(1u8, b as u64))
}

fn hash_f64(f: f64) -> u64 {
    hash_one(&(2u8, f.to_bits()))
}

fn hash_utf8(bytes: &[u8]) -> u64 {
    hash_one(&(3u8, bytes))
}

/// Per-column statistics (over the *storage* column).
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
    /// Approximate number of distinct non-null values.
    pub ndv: u64,
}

/// Table-level statistics snapshot served by the catalog.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub rows: u64,
    /// Keyed by storage (bare) column name.
    pub columns: FxHashMap<String, ColumnStats>,
}

impl TableStats {
    /// Looks a column up by canonical name, stripping any `t.` qualifier
    /// down to the storage name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns
            .get(name)
            .or_else(|| self.columns.get(name.rsplit('.').next().unwrap_or(name)))
    }

    /// The distinct count of a column, clamped to `[1, rows]`; `rows`
    /// (key-like) when unknown.
    pub fn column_ndv(&self, name: &str) -> u64 {
        let rows = self.rows.max(1);
        match self.column(name) {
            Some(c) => c.ndv.clamp(1, rows),
            None => rows,
        }
    }

    /// Estimated fraction of rows a predicate keeps, multiplying
    /// per-conjunct selectivities. Simple `column OP literal` conjuncts —
    /// exactly the shape SmartIndex peeks and footer zone maps serve —
    /// use the stats; everything else is [`DEFAULT_SELECTIVITY`].
    pub fn selectivity(&self, predicate: &Expr) -> f64 {
        let mut sel = 1.0f64;
        for clause in &to_cnf(predicate).clauses {
            sel *= match clause.as_single_simple() {
                Some(p) => self.simple_selectivity(&p.column, p.op, &p.value),
                None => match clause.disjuncts.as_slice() {
                    [Disjunct::Residual(Expr::IsNull { operand, negated })] => {
                        let mut cols = Vec::new();
                        operand.columns(&mut cols);
                        match cols.first().and_then(|c| self.column(c)) {
                            Some(c) if self.rows > 0 => {
                                let f = c.null_count as f64 / self.rows as f64;
                                if *negated {
                                    1.0 - f
                                } else {
                                    f
                                }
                            }
                            _ => DEFAULT_SELECTIVITY,
                        }
                    }
                    _ => DEFAULT_SELECTIVITY,
                },
            };
        }
        sel.clamp(1e-4, 1.0)
    }

    fn simple_selectivity(&self, column: &str, op: BinaryOp, value: &Value) -> f64 {
        let Some(c) = self.column(column) else {
            return DEFAULT_SELECTIVITY;
        };
        let rows = self.rows.max(1) as f64;
        let ndv = c.ndv.clamp(1, self.rows.max(1)) as f64;
        match op {
            BinaryOp::Eq => 1.0 / ndv,
            BinaryOp::NotEq => 1.0 - 1.0 / ndv,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                // An infinite or NaN bound interpolates to NaN or to 0/1.
                let finite = |v: &Value| v.as_f64().filter(|f| f.is_finite());
                let (Some(lo), Some(hi), Some(v)) = (
                    c.min.as_ref().and_then(finite),
                    c.max.as_ref().and_then(finite),
                    finite(value),
                ) else {
                    return 0.3; // non-numeric or non-finite range: flat guess
                };
                let width = hi - lo;
                let below = if width > 0.0 {
                    ((v - lo) / width).clamp(0.0, 1.0)
                } else if v >= lo {
                    1.0
                } else {
                    0.0
                };
                let nulls = c.null_count as f64 / rows;
                let sel = match op {
                    BinaryOp::Lt | BinaryOp::LtEq => below,
                    _ => 1.0 - below,
                };
                (sel * (1.0 - nulls)).clamp(0.0, 1.0)
            }
            BinaryOp::Contains => 0.1,
            _ => DEFAULT_SELECTIVITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use feisu_format::Utf8Vec;
    use proptest::prelude::*;

    fn table() -> TableStats {
        let mut columns = FxHashMap::default();
        columns.insert(
            "clicks".to_string(),
            ColumnStats {
                min: Some(Value::Int64(0)),
                max: Some(Value::Int64(100)),
                null_count: 100,
                ndv: 50,
            },
        );
        columns.insert(
            "url".to_string(),
            ColumnStats {
                min: Some(Value::Utf8("a".into())),
                max: Some(Value::Utf8("z".into())),
                null_count: 0,
                ndv: 1000,
            },
        );
        TableStats {
            rows: 1000,
            columns,
        }
    }

    #[test]
    fn sketch_exact_below_k() {
        let mut s = NdvSketch::default();
        for i in 0..100 {
            s.observe(&Value::Int64(i));
            s.observe(&Value::Int64(i)); // duplicates don't count
        }
        s.observe(&Value::Null); // nulls don't count
        assert_eq!(s.estimate(), 100);
    }

    #[test]
    fn sketch_estimates_above_k() {
        let mut s = NdvSketch::default();
        for i in 0..20_000 {
            s.observe(&Value::Int64(i));
        }
        let est = s.estimate() as f64;
        assert!(
            (est - 20_000.0).abs() / 20_000.0 < 0.25,
            "estimate {est} too far from 20000"
        );
    }

    /// The sketch as it was first written, kept as the reference: an
    /// ordered set that inserts, then trims its largest.
    #[derive(Clone, Default)]
    struct InsertThenTrim {
        kmin: std::collections::BTreeSet<u64>,
        saturated: bool,
    }

    impl InsertThenTrim {
        fn of(hashes: impl IntoIterator<Item = u64>) -> Self {
            let mut s = InsertThenTrim::default();
            hashes.into_iter().for_each(|h| s.insert(h));
            s
        }

        fn insert(&mut self, hash: u64) {
            self.kmin.insert(hash);
            if self.kmin.len() > KMV_K {
                self.kmin.pop_last();
                self.saturated = true;
            }
        }

        fn merge(mut self, other: &InsertThenTrim) -> Self {
            self.saturated |= other.saturated;
            other.kmin.iter().for_each(|&h| self.insert(h));
            self
        }

        fn estimate(&self) -> u64 {
            match self.kmin.last() {
                Some(&kth) if self.saturated && kth > 0 => {
                    (((KMV_K - 1) as f64) / ((kth as f64) / (u64::MAX as f64))).round() as u64
                }
                _ => self.kmin.len() as u64,
            }
        }

        /// Same kept hashes, same `saturated`, same estimate.
        fn matches(&self, s: &NdvSketch) -> bool {
            s.kmin.iter().eq(&self.kmin)
                && s.saturated == self.saturated
                && s.estimate() == self.estimate()
        }
    }

    fn insert_then_trim(values: impl Iterator<Item = i64>) -> InsertThenTrim {
        InsertThenTrim::of(values.map(|v| hash_value(&Value::Int64(v))))
    }

    #[test]
    fn one_go_merged_halves_and_insert_then_trim_agree() {
        for n in [100i64, KMV_K as i64, KMV_K as i64 + 1, 20_000] {
            let reference = insert_then_trim(0..n);
            let mut one_go = NdvSketch::default();
            (0..n).for_each(|i| one_go.observe(&Value::Int64(i)));
            let mut column = NdvSketch::default();
            column.observe_column(&Column::from_i64((0..n).collect()));
            // Halves that overlap, so the union has duplicates to drop.
            let mut merged = NdvSketch::default();
            merged.observe_column(&Column::from_i64((0..n / 2 + 10).collect()));
            let mut upper = NdvSketch::default();
            upper.observe_column(&Column::from_f64((n / 2..n).map(|i| i as f64).collect()));
            merged.merge(&upper);
            for s in [&one_go, &column, &merged] {
                assert!(reference.matches(s), "n = {n}");
            }
        }
    }

    /// `distinct` hashes, each one to three times, in a seeded order.
    fn hash_stream(distinct: usize, seed: u64) -> Vec<u64> {
        let mut stream: Vec<(u64, u64)> = (0..distinct as u64)
            .flat_map(|i| {
                let hash = hash_one(&(seed, i));
                (0..=hash % 3).map(move |copy| (hash_one(&(hash, copy, seed)), hash))
            })
            .collect();
        stream.sort_unstable();
        stream.into_iter().map(|(_, hash)| hash).collect()
    }

    proptest! {
        /// The sorted-vector sketch keeps the reference's hashes,
        /// `saturated` flag and estimate: fed in one go, and as three
        /// parts merged in every order and association.
        #[test]
        fn sketch_matches_its_btreeset_reference(
            distinct in prop_oneof![
                Just(KMV_K - 1),
                Just(KMV_K),
                Just(KMV_K + 1),
                0usize..3 * KMV_K,
                0usize..20 * KMV_K,
            ],
            seed in any::<u64>(),
            cuts in (0usize..10_000, 0usize..10_000),
        ) {
            let stream = hash_stream(distinct, seed);
            let reference = InsertThenTrim::of(stream.iter().copied());
            let mut one_go = NdvSketch::default();
            one_go.insert_all(stream.iter().copied());
            prop_assert!(reference.matches(&one_go), "one go, {distinct} distinct");
            // Seen again, every hash is a duplicate — the K-th kept too.
            one_go.insert_all(stream.iter().copied());
            prop_assert!(reference.matches(&one_go), "twice, {distinct} distinct");

            let (a, b) = (cuts.0 % (stream.len() + 1), cuts.1 % (stream.len() + 1));
            let parts = [&stream[..a.min(b)], &stream[a.min(b)..a.max(b)], &stream[a.max(b)..]];
            let sketches = parts.map(|part| {
                let mut s = NdvSketch::default();
                s.insert_all(part.iter().copied());
                s
            });
            let references = parts.map(|part| InsertThenTrim::of(part.iter().copied()));
            let merged = |x: usize, y: &NdvSketch| {
                let mut x = sketches[x].clone();
                x.merge(y);
                x
            };
            for [x, y, z] in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
                let mut left = merged(x, &sketches[y]);
                left.merge(&sketches[z]);
                let right = merged(x, &merged(y, &sketches[z]));
                let by_reference = references[x]
                    .clone()
                    .merge(&references[y])
                    .merge(&references[z]);
                prop_assert!(by_reference.matches(&left), "({x} {y}) {z}");
                prop_assert!(reference.matches(&left), "({x} {y}) {z}");
                prop_assert!(reference.matches(&right), "{x} ({y} {z})");
            }
        }

        /// A Utf8 column is sketched the same by value, by column and from
        /// its chunk dictionaries — also when NULL rows hold a placeholder
        /// no valid row holds.
        #[test]
        fn every_utf8_path_matches_the_reference(
            rows in proptest::collection::vec((0u16..2000, 0u8..4), 0..1200),
            modulus in prop_oneof![
                Just(8u16),
                Just(KMV_K as u16),
                Just(KMV_K as u16 + 1),
                1u16..2000,
            ],
            placeholder in 0u8..3,
            cut in 0usize..1200,
        ) {
            let text = |n: u16| format!("s{}", n % modulus);
            let values: Vec<Value> = rows
                .iter()
                .map(|&(n, null)| match null {
                    0 => Value::Null,
                    _ => Value::Utf8(text(n)),
                })
                .collect();
            let mut validity = feisu_format::column::Validity::with_capacity(rows.len());
            let strings = rows
                .iter()
                .map(|&(n, null)| {
                    validity.push(null != 0);
                    match (null, placeholder) {
                        (0, 0) => String::new(),
                        (0, 1) => "ghost".to_string(),
                        _ => text(n),
                    }
                })
                .collect::<Vec<_>>();
            let strings = Utf8Vec::from_strs(strings.iter().map(String::as_str)).unwrap();
            let column = Column::new(ColumnData::Utf8(strings), validity);
            let reference = InsertThenTrim::of(
                values.iter().filter(|v| !v.is_null()).map(hash_value),
            );
            let mut by_value = NdvSketch::default();
            values.iter().for_each(|v| by_value.observe(v));
            let mut by_column = NdvSketch::default();
            by_column.observe_column(&column);
            // Two blocks' dictionaries, merged.
            let mut head = column.clone();
            let tail = head.split_off(cut.min(column.len()));
            let mut by_dictionary = NdvSketch::default();
            for part in [head, tail] {
                let schema = feisu_format::Schema::new(vec![feisu_format::Field::new(
                    "s",
                    feisu_format::DataType::Utf8,
                    true,
                )]);
                let block = feisu_format::Block::new(feisu_common::BlockId(0), schema, vec![part])
                    .expect("one Utf8 column");
                let (_, summaries) = block.serialize_summarized();
                let mut chunk = NdvSketch::default();
                chunk.observe_strs(summaries[0].distinct.as_deref().expect("Utf8 summary"));
                by_dictionary.merge(&chunk);
            }
            for (path, s) in [("value", by_value), ("column", by_column), ("dictionary", by_dictionary)] {
                prop_assert!(reference.matches(&s), "by {path}");
            }
        }
    }

    #[test]
    fn non_finite_bounds_and_literals_give_the_flat_range_guess() {
        let table = |min: f64, max: f64| TableStats {
            rows: 1000,
            columns: [(
                "x".to_string(),
                ColumnStats {
                    min: Some(Value::Float64(min)),
                    max: Some(Value::Float64(max)),
                    null_count: 0,
                    ndv: 10,
                },
            )]
            .into_iter()
            .collect(),
        };
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (lo, hi) in [(-inf, 5.0), (0.0, inf), (-inf, inf), (0.0, nan), (nan, nan)] {
            for sql in ["x < 3", "x >= 3"] {
                let sel = table(lo, hi).selectivity(&parse_expr(sql).unwrap());
                assert_eq!(sel, 0.3, "{sql} over [{lo}, {hi}]");
            }
        }
        let finite = table(0.0, 10.0);
        for v in [nan, inf, -inf] {
            let sel = finite.simple_selectivity("x", BinaryOp::Lt, &Value::Float64(v));
            assert_eq!(sel, 0.3, "x < {v}");
        }
    }

    #[test]
    fn a_column_is_observed_as_its_values_are() {
        let values = [
            Value::Null,
            Value::Utf8(String::new()),
            Value::Utf8("a".into()),
            Value::Null,
            Value::Utf8("a".into()),
        ];
        let bools = [Value::Bool(true), Value::Null, Value::Bool(false)];
        let floats = [Value::Float64(f64::NAN), Value::Float64(-0.0), Value::Null];
        for (data_type, values) in [
            (feisu_format::DataType::Utf8, &values[..]),
            (feisu_format::DataType::Bool, &bools[..]),
            (feisu_format::DataType::Float64, &floats[..]),
        ] {
            let mut by_value = NdvSketch::default();
            values.iter().for_each(|v| by_value.observe(v));
            let mut by_column = NdvSketch::default();
            by_column.observe_column(&Column::from_values(data_type, values).unwrap());
            assert_eq!(by_column.kmin, by_value.kmin, "{data_type}");
            assert_eq!(by_column.estimate(), by_value.estimate());
        }
    }

    #[test]
    fn int_and_float_hash_identically() {
        assert_eq!(
            hash_value(&Value::Int64(5)),
            hash_value(&Value::Float64(5.0))
        );
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let t = table();
        let sel = t.selectivity(&parse_expr("clicks = 7").unwrap());
        assert!((sel - 1.0 / 50.0).abs() < 1e-9, "{sel}");
        // Qualified names resolve to the storage column.
        let sel_q = t.selectivity(&parse_expr("t.clicks = 7").unwrap());
        assert_eq!(sel, sel_q);
    }

    #[test]
    fn range_selectivity_interpolates_and_discounts_nulls() {
        let t = table();
        // clicks < 50 over [0,100] with 10% nulls → ~0.45.
        let sel = t.selectivity(&parse_expr("clicks < 50").unwrap());
        assert!((sel - 0.45).abs() < 1e-9, "{sel}");
        // Out-of-range stays clamped, never negative.
        let sel = t.selectivity(&parse_expr("clicks > 200").unwrap());
        assert!((1e-4..0.01).contains(&sel), "{sel}");
    }

    #[test]
    fn conjuncts_multiply_and_unknowns_default() {
        let t = table();
        let both = t.selectivity(&parse_expr("clicks = 7 AND url CONTAINS 'x'").unwrap());
        assert!((both - (1.0 / 50.0) * 0.1).abs() < 1e-9, "{both}");
        let unknown = t.selectivity(&parse_expr("mystery = 1").unwrap());
        assert_eq!(unknown, DEFAULT_SELECTIVITY);
    }

    #[test]
    fn is_null_selectivity_from_null_count() {
        let t = table();
        let sel = t.selectivity(&parse_expr("clicks IS NULL").unwrap());
        assert!((sel - 0.1).abs() < 1e-9, "{sel}");
        let sel = t.selectivity(&parse_expr("clicks IS NOT NULL").unwrap());
        assert!((sel - 0.9).abs() < 1e-9, "{sel}");
    }
}
