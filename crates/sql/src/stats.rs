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
/// an ordered set — identical ingest order or not, the same value set
/// yields the same estimate.
#[derive(Debug, Clone, Default)]
pub struct NdvSketch {
    kmin: std::collections::BTreeSet<u64>,
    saturated: bool,
}

impl NdvSketch {
    /// Folds one non-null value into the sketch. Nulls are ignored (they
    /// are tracked by `null_count`, and never join).
    pub fn observe(&mut self, v: &Value) {
        if !matches!(v, Value::Null) {
            self.insert(hash_value(v));
        }
    }

    /// Folds every non-null cell of a column, hashing the typed slices in
    /// place: what [`NdvSketch::observe`] over each `column.value(r)`
    /// gives, without building the `Value`s.
    pub fn observe_column(&mut self, column: &Column) {
        let valid = column.validity();
        let rows = (0..column.len()).filter(|&r| valid.is_valid(r));
        match column.data() {
            ColumnData::Bool(v) => rows.for_each(|r| self.insert(hash_bool(v[r]))),
            ColumnData::Int64(v) => rows.for_each(|r| self.insert(hash_f64(v[r] as f64))),
            ColumnData::Float64(v) => rows.for_each(|r| self.insert(hash_f64(v[r]))),
            ColumnData::Utf8(v) => rows.for_each(|r| self.insert(hash_str(&v[r]))),
        }
    }

    /// Folds another sketch in: the union of both hash sets cut back to
    /// the `K` smallest — the sketch of everything either one observed.
    pub fn merge(&mut self, other: &NdvSketch) {
        self.saturated |= other.saturated;
        other.kmin.iter().for_each(|&h| self.insert(h));
    }

    fn insert(&mut self, hash: u64) {
        if self.kmin.len() == KMV_K {
            // Full: a hash above the largest kept would be inserted only
            // to be removed again; one below it displaces the largest.
            if self.kmin.last().is_some_and(|&largest| hash > largest) {
                self.saturated = true;
            } else if self.kmin.insert(hash) {
                self.kmin.pop_last();
                self.saturated = true;
            }
        } else {
            self.kmin.insert(hash);
        }
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
        Value::Utf8(s) => hash_str(s),
    }
}

fn hash_bool(b: bool) -> u64 {
    hash_one(&(1u8, b as u64))
}

fn hash_f64(f: f64) -> u64 {
    hash_one(&(2u8, f.to_bits()))
}

fn hash_str(s: &str) -> u64 {
    hash_one(&(3u8, s.as_bytes()))
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
                let (Some(lo), Some(hi), Some(v)) = (
                    c.min.as_ref().and_then(Value::as_f64),
                    c.max.as_ref().and_then(Value::as_f64),
                    value.as_f64(),
                ) else {
                    return 0.3; // non-numeric range: flat guess
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

    /// The sketch as it was first written: insert, then trim the largest.
    fn insert_then_trim(values: impl Iterator<Item = i64>) -> NdvSketch {
        let mut s = NdvSketch::default();
        for v in values {
            s.kmin.insert(hash_value(&Value::Int64(v)));
            if s.kmin.len() > KMV_K {
                let largest = *s.kmin.iter().next_back().unwrap();
                s.kmin.remove(&largest);
                s.saturated = true;
            }
        }
        s
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
                assert_eq!(s.kmin, reference.kmin, "n = {n}");
                assert_eq!(s.saturated, reference.saturated, "n = {n}");
                assert_eq!(s.estimate(), reference.estimate(), "n = {n}");
            }
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
