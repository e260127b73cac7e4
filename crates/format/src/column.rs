//! Typed, nullable column vectors.
//!
//! A `Column` is the in-memory representation of one attribute over a run
//! of rows. Values are stored unboxed in type-specific vectors with a
//! separate validity (null) bitmap, so scans and predicate evaluation run
//! over contiguous memory.

use crate::bitvec::BitVec;
pub use crate::strings::Utf8Vec;
use crate::value::{DataType, Value};
use feisu_common::Result as FeisuResult;
use std::cmp::{max_by, min_by, Ordering};

/// Validity bitmap: bit i set ⇔ row i is non-null, plus its null count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Validity {
    bits: BitVec,
    null_count: usize,
}

impl From<BitVec> for Validity {
    fn from(bits: BitVec) -> Validity {
        let null_count = bits.len() - bits.count_ones();
        Validity { bits, null_count }
    }
}

impl Validity {
    pub fn new_all_valid(len: usize) -> Self {
        Validity {
            bits: BitVec::ones(len),
            null_count: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Validity::from(BitVec::with_capacity(cap))
    }

    pub fn push(&mut self, valid: bool) {
        self.bits.push(valid);
        self.null_count += usize::from(!valid);
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// The bitmap itself.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Raw words, for serialization.
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }

    /// Rebuilds from raw words; see [`BitVec::from_words`].
    pub fn from_words(words: Vec<u64>, len: usize) -> FeisuResult<Self> {
        BitVec::from_words(words, len).map(Validity::from)
    }

    /// Moves rows `at..` into a new bitmap, leaving rows `..at`: the cost
    /// follows the rows moved, not the rows kept.
    fn split_off(&mut self, at: usize) -> Validity {
        let tail = Validity::from(self.bits.split_off(at));
        self.null_count -= tail.null_count;
        tail
    }

    /// Appends `other`'s rows.
    pub fn append(&mut self, other: &Validity) {
        self.bits.append(&other.bits);
        self.null_count += other.null_count;
    }

    /// The validity of the rows `selection` picks, in row order.
    pub(crate) fn filter(&self, selection: &BitVec) -> Validity {
        if self.null_count == 0 {
            return Validity::new_all_valid(selection.count_ones());
        }
        let mut out = Validity::with_capacity(selection.count_ones());
        selection.for_each_one(|i| out.push(self.is_valid(i)));
        out
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Utf8Vec),
}

impl ColumnData {
    /// An empty payload of type `dt` with room for `rows` rows (and, for
    /// strings, `bytes` bytes).
    pub fn with_capacity(dt: DataType, rows: usize, bytes: usize) -> ColumnData {
        match dt {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(rows)),
            DataType::Int64 => ColumnData::Int64(Vec::with_capacity(rows)),
            DataType::Float64 => ColumnData::Float64(Vec::with_capacity(rows)),
            DataType::Utf8 => ColumnData::Utf8(Utf8Vec::with_capacity(rows, bytes)),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
        }
    }
}

/// One attribute over a run of rows: typed data plus a validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Validity,
}

impl Column {
    /// Builds a column from dynamic values; `data_type` governs storage.
    /// Nulls become default slots masked out by the validity bitmap.
    /// Returns `None` if any non-null value has the wrong type.
    pub fn from_values(data_type: DataType, values: &[Value]) -> Option<Column> {
        Column::try_from_values(data_type, values.iter().cloned()).ok()
    }

    /// [`Column::from_values`] over values it may keep — a string moves
    /// into the column, not a copy — naming the first that does not fit.
    pub fn try_from_values(
        data_type: DataType,
        values: impl IntoIterator<Item = Value, IntoIter: ExactSizeIterator>,
    ) -> Result<Column, Value> {
        fn typed<T: Default>(
            values: impl ExactSizeIterator<Item = Value>,
            validity: &mut Validity,
            of: impl Fn(Value) -> Result<T, Value>,
        ) -> Result<Vec<T>, Value> {
            let mut out = Vec::with_capacity(values.len());
            for v in values {
                validity.push(!v.is_null());
                out.push(if v.is_null() { T::default() } else { of(v)? });
            }
            Ok(out)
        }
        let values = values.into_iter();
        let mut validity = Validity::with_capacity(values.len());
        let data = match data_type {
            DataType::Bool => ColumnData::Bool(typed(values, &mut validity, |v| match v {
                Value::Bool(b) => Ok(b),
                other => Err(other),
            })?),
            DataType::Int64 => ColumnData::Int64(typed(values, &mut validity, |v| match v {
                Value::Int64(i) => Ok(i),
                other => Err(other),
            })?),
            DataType::Float64 => ColumnData::Float64(typed(values, &mut validity, |v| match v {
                Value::Float64(f) => Ok(f),
                // Implicit widening keeps generators ergonomic.
                Value::Int64(i) => Ok(i as f64),
                other => Err(other),
            })?),
            DataType::Utf8 => {
                let mut out = Utf8Vec::with_capacity(values.len(), 0);
                for v in values {
                    validity.push(!v.is_null());
                    match v {
                        Value::Utf8(s) => out.push(&s).map_err(|_| Value::Utf8(s))?,
                        Value::Null => out.pad_to(out.len() + 1),
                        other => return Err(other),
                    }
                }
                ColumnData::Utf8(out)
            }
        };
        Ok(Column { data, validity })
    }

    pub fn from_i64(values: Vec<i64>) -> Column {
        let validity = Validity::new_all_valid(values.len());
        Column {
            data: ColumnData::Int64(values),
            validity,
        }
    }

    pub fn from_f64(values: Vec<f64>) -> Column {
        let validity = Validity::new_all_valid(values.len());
        Column {
            data: ColumnData::Float64(values),
            validity,
        }
    }

    pub fn from_bool(values: Vec<bool>) -> Column {
        let validity = Validity::new_all_valid(values.len());
        Column {
            data: ColumnData::Bool(values),
            validity,
        }
    }

    /// Copies `values` into one string buffer; panics past `u32::MAX`
    /// bytes, as a `Vec` does past its capacity.
    pub fn from_utf8(values: Vec<String>) -> Column {
        let strings = Utf8Vec::from_strs(values.iter().map(String::as_str));
        let validity = Validity::new_all_valid(values.len());
        Column {
            data: ColumnData::Utf8(strings.expect("Utf8 column within u32::MAX bytes")),
            validity,
        }
    }

    /// Builds with explicit validity (for decoders).
    pub fn new(data: ColumnData, validity: Validity) -> Column {
        debug_assert_eq!(data.len(), validity.len());
        Column { data, validity }
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        self.validity.null_count()
    }

    /// Dynamically-typed view of row `i`.
    pub fn value(&self, i: usize) -> Value {
        if !self.validity.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Utf8(v) => Value::Utf8(v.get(i).to_string()),
        }
    }

    /// Typed accessor for hot paths (panics on type mismatch — used only
    /// after planning has fixed the types).
    pub fn i64_slice(&self) -> &[i64] {
        match &self.data {
            ColumnData::Int64(v) => v,
            other => panic!("expected Int64 column, got {:?}", other.data_type()),
        }
    }

    /// The strings of a Utf8 column, `None` for any other type.
    pub fn utf8(&self) -> Option<&Utf8Vec> {
        match &self.data {
            ColumnData::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Gathers the rows selected by `indices` into a new column; panics past
    /// `u32::MAX` string bytes, where [`Column::try_take`] returns an error.
    pub fn take(&self, indices: &[usize]) -> Column {
        self.try_take(indices)
            .expect("Utf8 column within u32::MAX bytes")
    }

    /// [`Column::take`], more than `u32::MAX` string bytes an error.
    pub fn try_take(&self, indices: &[usize]) -> FeisuResult<Column> {
        let valid = indices.iter().map(|&i| self.validity.is_valid(i));
        let validity = Validity::from(BitVec::from_bools(valid));
        fn gather<T: Copy>(v: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| v[i]).collect()
        }
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices)),
            ColumnData::Int64(v) => ColumnData::Int64(gather(v, indices)),
            ColumnData::Float64(v) => ColumnData::Float64(gather(v, indices)),
            ColumnData::Utf8(v) => ColumnData::Utf8(v.take(indices)?),
        };
        Ok(Column { data, validity })
    }

    /// Gathers the rows `selection` picks, walking its set bits without
    /// materializing an index vector the way [`Column::take`] requires.
    /// A selection of another length than the column is an `Internal`
    /// error.
    pub fn filter(&self, selection: &BitVec) -> FeisuResult<Column> {
        selection.check_len(self.len())?;
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(selection.map_ones(|i| v[i])),
            ColumnData::Int64(v) => ColumnData::Int64(selection.map_ones(|i| v[i])),
            ColumnData::Float64(v) => ColumnData::Float64(selection.map_ones(|i| v[i])),
            ColumnData::Utf8(v) => ColumnData::Utf8(v.filter(selection)),
        };
        Ok(Column {
            data,
            validity: self.validity.filter(selection),
        })
    }

    /// Moves rows `at..` into a new column, leaving rows `..at`, as
    /// [`Vec::split_off`] does: the cost follows the rows moved, not the
    /// rows kept, and no value is copied.
    pub fn split_off(&mut self, at: usize) -> Column {
        let validity = self.validity.split_off(at);
        let data = match &mut self.data {
            ColumnData::Bool(v) => ColumnData::Bool(v.split_off(at)),
            ColumnData::Int64(v) => ColumnData::Int64(v.split_off(at)),
            ColumnData::Float64(v) => ColumnData::Float64(v.split_off(at)),
            ColumnData::Utf8(v) => ColumnData::Utf8(v.split_off(at)),
        };
        Column { data, validity }
    }

    /// Appends another column of the same type; panics on another type and
    /// past `u32::MAX` string bytes, where [`Column::try_append`] returns
    /// an error.
    pub fn append(&mut self, other: &Column) {
        self.try_append(other)
            .expect("Utf8 column within u32::MAX bytes")
    }

    /// [`Column::append`], more than `u32::MAX` string bytes an error.
    pub fn try_append(&mut self, other: &Column) -> FeisuResult<()> {
        match (&mut self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.append(b)?,
            (a, b) => panic!(
                "append type mismatch: {} onto {}",
                b.data_type(),
                a.data_type()
            ),
        }
        self.validity.append(&other.validity);
        Ok(())
    }

    /// `parts` (each of type `dt`) end to end, every buffer sized once.
    pub fn concat<'a>(
        dt: DataType,
        parts: impl Iterator<Item = &'a Column> + Clone,
    ) -> FeisuResult<Column> {
        let rows = parts.clone().map(|c| c.len()).sum();
        let bytes = parts
            .clone()
            .filter_map(|c| c.utf8())
            .map(Utf8Vec::byte_len);
        let mut out = Column {
            data: ColumnData::with_capacity(dt, rows, bytes.sum()),
            validity: Validity::with_capacity(rows),
        };
        for part in parts {
            out.try_append(part)?;
        }
        Ok(out)
    }

    /// Drops spare capacity, for a column kept long after it was built.
    pub fn shrink_to_fit(&mut self) {
        match &mut self.data {
            ColumnData::Bool(v) => v.shrink_to_fit(),
            ColumnData::Int64(v) => v.shrink_to_fit(),
            ColumnData::Float64(v) => v.shrink_to_fit(),
            ColumnData::Utf8(v) => v.shrink_to_fit(),
        }
        self.validity.bits.shrink_to_fit();
    }

    /// Approximate in-memory footprint in bytes: a string is billed its
    /// bytes plus 24 (a `String` header), the formula every simulated cost
    /// and wire byte is measured with.
    pub fn footprint(&self) -> usize {
        let data = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Utf8(v) => v.byte_len() + 24 * v.len(),
        };
        data + self.validity.words().len() * 8
    }

    /// Min and max of non-null values (zone statistics), in
    /// [`Value::total_cmp`] order. `None` when the column is all-null or
    /// empty. Compares in place; only the two bounds become `Value`s.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        /// The rows of the least and greatest valid cells `at` reads.
        fn bounds<V: Copy>(
            valid: &Validity,
            at: impl Fn(usize) -> V,
            cmp: impl Fn(&V, &V) -> Ordering,
        ) -> Option<(usize, usize)> {
            let valid_rows = (0..valid.len()).filter(|&i| valid.is_valid(i));
            let mut cells = valid_rows.map(|i| (at(i), i));
            let first = cells.next()?;
            let cmp = |a: &(V, usize), b: &(V, usize)| cmp(&a.0, &b.0);
            // Ties keep the earlier row, as the row-at-a-time fold did.
            let (lo, hi) = cells.fold((first, first), |(min, max), cell| {
                (min_by(min, cell, cmp), max_by(cell, max, cmp))
            });
            Some((lo.1, hi.1))
        }
        let valid = &self.validity;
        let (lo, hi) = match &self.data {
            ColumnData::Bool(v) => bounds(valid, |i| v[i], bool::cmp),
            ColumnData::Int64(v) => bounds(valid, |i| v[i], i64::cmp),
            ColumnData::Float64(v) => bounds(valid, |i| v[i], f64::total_cmp),
            ColumnData::Utf8(v) => bounds(valid, |i| v.bytes_at(i), |a, b| a.cmp(b)),
        }?;
        Some((self.value(lo), self.value(hi)))
    }
}

/// Incremental builder collecting dynamic values into a typed column.
#[derive(Debug)]
pub struct ColumnBuilder {
    data_type: DataType,
    values: Vec<Value>,
}

impl ColumnBuilder {
    pub fn new(data_type: DataType) -> Self {
        ColumnBuilder {
            data_type,
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finishes the column, moving the values in; panics if a value had
    /// the wrong type (builder callers validate beforehand).
    pub fn finish(self) -> Column {
        Column::try_from_values(self.data_type, self.values)
            .expect("ColumnBuilder received ill-typed value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::FeisuError;

    #[test]
    fn validity_push_and_query() {
        let mut v = Validity::with_capacity(4);
        v.push(true);
        v.push(false);
        v.push(true);
        assert!(v.is_valid(0));
        assert!(!v.is_valid(1));
        assert!(v.is_valid(2));
        assert_eq!(v.null_count(), 1);
    }

    #[test]
    fn validity_all_valid_partial_word() {
        let v = Validity::new_all_valid(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.null_count(), 0);
        assert!(v.is_valid(69));
    }

    #[test]
    fn validity_words_roundtrip() {
        let mut v = Validity::with_capacity(0);
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        let rebuilt = Validity::from_words(v.words().to_vec(), v.len()).unwrap();
        assert_eq!(rebuilt, v);
    }

    #[test]
    fn from_values_with_nulls() {
        let c = Column::from_values(
            DataType::Int64,
            &[Value::Int64(1), Value::Null, Value::Int64(3)],
        )
        .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Int64(1));
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn from_values_type_mismatch() {
        assert!(Column::from_values(DataType::Int64, &[Value::Utf8("x".into())]).is_none());
        assert!(Column::from_values(DataType::Bool, &[Value::Int64(0)]).is_none());
    }

    #[test]
    fn int_widens_to_float() {
        let c = Column::from_values(DataType::Float64, &[Value::Int64(2)]).unwrap();
        assert_eq!(c.value(0), Value::Float64(2.0));
    }

    #[test]
    fn take_gathers_rows() {
        let c = Column::from_values(
            DataType::Utf8,
            &[
                Value::Utf8("a".into()),
                Value::Null,
                Value::Utf8("c".into()),
            ],
        )
        .unwrap();
        let t = c.take(&[2, 0, 1]);
        assert_eq!(t.value(0), Value::Utf8("c".into()));
        assert_eq!(t.value(1), Value::Utf8("a".into()));
        assert_eq!(t.value(2), Value::Null);
    }

    #[test]
    fn filter_matches_take() {
        let vals: Vec<Value> = (0..150)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Utf8(format!("row{i}"))
                }
            })
            .collect();
        let c = Column::from_values(DataType::Utf8, &vals).unwrap();
        // Select every third row via a bitmap and via take().
        let selection = BitVec::from_bools((0..150).map(|i| i % 3 == 0));
        let indices: Vec<usize> = (0..150).step_by(3).collect();
        assert_eq!(c.filter(&selection).unwrap(), c.take(&indices));
        // Empty selection.
        assert_eq!(c.filter(&BitVec::zeros(150)).unwrap().len(), 0);
        // A selection of another length is an error, not a panic.
        for wrong in [0, 149, 151, 192] {
            let got = c.filter(&BitVec::ones(wrong));
            assert!(matches!(got, Err(FeisuError::Internal(_))), "{wrong}");
        }
    }

    #[test]
    fn split_off_moves_what_take_would_copy() {
        let vals: Vec<Value> = (0..150)
            .map(|i| match i % 5 {
                0 => Value::Null,
                _ => Value::Utf8(format!("row{i}")),
            })
            .collect();
        let nullable = Column::from_values(DataType::Utf8, &vals).unwrap();
        let dense = Column::from_i64((0..150).collect());
        for column in [nullable, dense] {
            for at in [0, 1, 63, 64, 65, 128, 149, 150] {
                let mut head = column.clone();
                let tail = head.split_off(at);
                assert_eq!(head, column.take(&(0..at).collect::<Vec<_>>()), "at {at}");
                assert_eq!(tail, column.take(&(at..150).collect::<Vec<_>>()), "at {at}");
                assert_eq!(head.null_count() + tail.null_count(), column.null_count());
            }
        }
    }

    #[test]
    fn append_concatenates() {
        let mut a = Column::from_i64(vec![1, 2]);
        let b = Column::from_values(DataType::Int64, &[Value::Null, Value::Int64(4)]).unwrap();
        a.append(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.value(2), Value::Null);
        assert_eq!(a.value(3), Value::Int64(4));
    }

    #[test]
    fn concat_splices_validity_words_as_pushing_bits_does() {
        // Parts off word boundaries with NULLs throughout, every type; the
        // reference pushes one validity bit per row.
        for dt in [
            DataType::Bool,
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
        ] {
            let cell = |i: usize| match (i % 3, dt) {
                (0, _) => Value::Null,
                (_, DataType::Bool) => Value::Bool(i.is_multiple_of(2)),
                (_, DataType::Int64) => Value::Int64(i as i64),
                (_, DataType::Float64) => Value::Float64(i as f64 / 4.0),
                (_, DataType::Utf8) => Value::Utf8(format!("s{i}")),
            };
            let (mut start, mut parts, mut all) = (0, Vec::new(), Vec::new());
            for n in [0, 1, 63, 64, 65, 100, 130, 7] {
                let values: Vec<Value> = (start..start + n).map(cell).collect();
                parts.push(Column::from_values(dt, &values).unwrap());
                all.extend(values);
                start += n;
            }
            let expected = Column::from_values(dt, &all).unwrap();
            assert_eq!(Column::concat(dt, parts.iter()).unwrap(), expected, "{dt}");
        }
    }

    #[test]
    #[should_panic(expected = "append type mismatch")]
    fn append_type_mismatch_panics() {
        let mut a = Column::from_i64(vec![1]);
        let b = Column::from_bool(vec![true]);
        a.append(&b);
    }

    #[test]
    fn min_max_skips_nulls() {
        let c = Column::from_values(
            DataType::Int64,
            &[Value::Null, Value::Int64(5), Value::Int64(-3), Value::Null],
        )
        .unwrap();
        let (min, max) = c.min_max().unwrap();
        assert_eq!(min, Value::Int64(-3));
        assert_eq!(max, Value::Int64(5));
    }

    #[test]
    fn min_max_orders_like_value_total_cmp() {
        // The row-at-a-time definition: fold `Value::total_cmp` over the
        // non-null rows.
        fn reference(c: &Column) -> Option<(Value, Value)> {
            let mut rows = (0..c.len()).map(|i| c.value(i)).filter(|v| !v.is_null());
            let first = rows.next()?;
            Some(rows.fold((first.clone(), first), |(min, max), v| {
                (
                    if v.total_cmp(&min).is_lt() {
                        v.clone()
                    } else {
                        min
                    },
                    if v.total_cmp(&max).is_gt() { v } else { max },
                )
            }))
        }
        let nan = f64::NAN;
        let floats = [
            vec![0.0, -0.0, 1.5],
            vec![-0.0, 0.0],
            vec![nan, 1.0, -nan, f64::INFINITY],
            vec![f64::NEG_INFINITY, -nan],
            vec![],
        ];
        for vals in floats {
            let c = Column::from_f64(vals);
            assert_eq!(c.min_max(), reference(&c), "{c:?}");
        }
        let nullable = |dt, vals: &[Value]| Column::from_values(dt, vals).unwrap();
        let s = |s: &str| Value::Utf8(s.into());
        for c in [
            nullable(
                DataType::Utf8,
                &[Value::Null, s("b"), s(""), s("ab"), s("b")],
            ),
            nullable(DataType::Bool, &[Value::Bool(true), Value::Null]),
            nullable(DataType::Bool, &[Value::Bool(true), Value::Bool(false)]),
            nullable(DataType::Float64, &[Value::Null, Value::Float64(nan)]),
            nullable(
                DataType::Int64,
                &[Value::Int64(i64::MAX), Value::Int64(i64::MIN)],
            ),
            nullable(DataType::Utf8, &[Value::Null]),
        ] {
            assert_eq!(c.min_max(), reference(&c), "{c:?}");
        }
    }

    #[test]
    fn from_words_counts_nulls_and_ignores_bits_past_len() {
        let v = Validity::from_words(vec![u64::MAX, 0b0101 | (u64::MAX << 4)], 68).unwrap();
        assert_eq!((v.len(), v.null_count()), (68, 2));
        assert!(v.is_valid(64) && !v.is_valid(65));
        assert_eq!(v.words()[1], 0b0101);
        assert!(Validity::from_words(vec![7], 0).is_err());
        // Short and long word vectors are corrupt, not padded or cut.
        assert!(Validity::from_words(vec![], 70).is_err());
        assert!(Validity::from_words(vec![u64::MAX; 3], 64).is_err());
        assert_eq!(Validity::from_words(vec![], 0).unwrap().null_count(), 0);
    }

    #[test]
    fn min_max_all_null_is_none() {
        let c = Column::from_values(DataType::Int64, &[Value::Null, Value::Null]).unwrap();
        assert!(c.min_max().is_none());
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push(Value::Utf8("x".into()));
        b.push(Value::Null);
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!(c.data_type(), DataType::Utf8);
    }

    #[test]
    fn footprint_is_positive_and_scales() {
        let small = Column::from_i64(vec![1, 2, 3]).footprint();
        let large = Column::from_i64((0..1000).collect()).footprint();
        assert!(large > small * 100);
    }
}
