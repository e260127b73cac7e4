//! Record batches: the unit of data flowing between operators.

use feisu_common::{FeisuError, Result};
use feisu_format::{BitVec, Column, Schema, Value};
use std::sync::Arc;

/// A schema plus equal-length columns. Immutable and shared: the schema
/// and the columns are reference counted, so a clone — a reused task
/// result, a scan's empty answer — copies no column.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    schema: Schema,
    columns: Arc<[Column]>,
    rows: usize,
}

impl RecordBatch {
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<RecordBatch> {
        if schema.len() != columns.len() {
            return Err(FeisuError::Execution(format!(
                "batch has {} columns for {} fields",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != rows {
                return Err(FeisuError::Execution("ragged batch columns".into()));
            }
            if c.data_type() != f.data_type {
                return Err(FeisuError::Execution(format!(
                    "column `{}` is {} but schema says {}",
                    f.name,
                    c.data_type(),
                    f.data_type
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns: columns.into(),
            rows,
        })
    }

    /// A zero-row batch with the given schema.
    pub fn empty(schema: Schema) -> RecordBatch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::from_values(f.data_type, &[]).expect("empty column"))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// True when `other` is a clone of this batch: the same columns, not
    /// merely equal ones.
    pub fn shares(&self, other: &RecordBatch) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }

    /// Dynamic view of one row.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Value at (row, column name); `None` if the column is unknown.
    pub fn value_at(&self, row: usize, column: &str) -> Option<Value> {
        self.column_by_name(column).map(|c| c.value(row))
    }

    /// Keeps the rows whose bit is set, gathering straight from the
    /// selection without materializing an index vector.
    pub fn select(&self, bits: &BitVec) -> Result<RecordBatch> {
        bits.check_len(self.rows)?;
        let columns = self.columns.iter().map(|c| c.filter(bits));
        RecordBatch::new(self.schema.clone(), columns.collect::<Result<_>>()?)
    }

    /// Gathers rows by index.
    pub fn take(&self, indices: &[usize]) -> Result<RecordBatch> {
        let columns = self.columns.iter().map(|c| c.try_take(indices));
        RecordBatch::new(self.schema.clone(), columns.collect::<Result<_>>()?)
    }

    /// Concatenates batches with identical schemas, each output column
    /// sized once.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let Some(first) = batches.first() else {
            return Err(FeisuError::Execution("concat of zero batches".into()));
        };
        if batches.iter().any(|b| b.schema != first.schema) {
            return Err(FeisuError::Execution("concat schema mismatch".into()));
        }
        // Most leaves of a selective scan ship no rows: skip them.
        let full = || batches.iter().filter(|b| !b.is_empty());
        let columns = (first.schema.fields().iter().enumerate())
            .map(|(i, f)| Column::concat(f.data_type, full().map(|b| &b.columns[i])));
        RecordBatch::new(first.schema.clone(), columns.collect::<Result<_>>()?)
    }

    /// Approximate in-memory size.
    pub fn footprint(&self) -> usize {
        self.columns.iter().map(|c| c.footprint()).sum()
    }

    /// Pretty-prints the batch as an aligned text table (for examples and
    /// the CLI-style tooling).
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            rows.push(
                self.columns
                    .iter()
                    .map(|c| c.value(i).to_string())
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for r in &rows {
            for (w, cell) in widths.iter_mut().zip(r) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for r in &rows {
            out.push('|');
            for (cell, w) in r.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Row-context adapter so `feisu-sql`'s reference interpreter can read a
/// batch row (used for residual predicates and tests).
pub struct BatchRow<'a> {
    pub batch: &'a RecordBatch,
    pub row: usize,
}

impl feisu_sql::eval::RowContext for BatchRow<'_> {
    fn get(&self, column: &str) -> Option<Value> {
        self.batch.value_at(self.row, column)
    }
}

/// A borrowed batch: schema plus column references, no clones. Residual
/// filtering in the leaf reads block columns through this view instead of
/// copying every column into a scratch `RecordBatch`.
#[derive(Clone, Copy)]
pub struct BatchView<'a> {
    schema: &'a Schema,
    columns: &'a [Column],
}

impl<'a> BatchView<'a> {
    /// `columns[i]` must correspond to `schema.fields()[i]`; lengths are
    /// the caller's responsibility (a block or batch guarantees them).
    pub fn new(schema: &'a Schema, columns: &'a [Column]) -> BatchView<'a> {
        debug_assert_eq!(schema.len(), columns.len());
        BatchView { schema, columns }
    }

    pub fn value_at(&self, row: usize, column: &str) -> Option<Value> {
        self.schema
            .index_of(column)
            .map(|i| self.columns[i].value(row))
    }

    /// Row-context adapter over row `i`.
    pub fn row(self, row: usize) -> ViewRow<'a> {
        ViewRow { view: self, row }
    }
}

/// One row of a [`BatchView`], usable with the reference interpreter.
#[derive(Clone, Copy)]
pub struct ViewRow<'a> {
    view: BatchView<'a>,
    row: usize,
}

impl feisu_sql::eval::RowContext for ViewRow<'_> {
    fn get(&self, column: &str) -> Option<Value> {
        self.view.value_at(self.row, column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Field};

    fn batch() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Utf8, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_utf8(vec!["x".into(), "y".into(), "z".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64, false)]);
        assert!(RecordBatch::new(schema.clone(), vec![]).is_err());
        assert!(RecordBatch::new(schema, vec![Column::from_bool(vec![true])]).is_err());
    }

    #[test]
    fn select_by_bitmap() {
        let b = batch();
        let bits = BitVec::from_bools([true, false, true]);
        let s = b.select(&bits).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.value_at(1, "a"), Some(Value::Int64(3)));
        // Wrong length rejected.
        assert!(b.select(&BitVec::zeros(5)).is_err());
    }

    #[test]
    fn concat_batches() {
        let b = batch();
        let c = RecordBatch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.rows(), 6);
        assert_eq!(c.value_at(5, "b"), Some(Value::Utf8("z".into())));
        assert!(RecordBatch::concat(&[]).is_err());
    }

    #[test]
    fn empty_batch() {
        let e = RecordBatch::empty(batch().schema().clone());
        assert_eq!(e.rows(), 0);
        assert!(e.is_empty());
    }

    #[test]
    fn row_context_adapter() {
        use feisu_sql::eval::RowContext;
        let b = batch();
        let row = BatchRow { batch: &b, row: 1 };
        assert_eq!(row.get("a"), Some(Value::Int64(2)));
        assert_eq!(row.get("missing"), None);
    }

    #[test]
    fn batch_view_reads_without_cloning() {
        use feisu_sql::eval::RowContext;
        let b = batch();
        let view = BatchView::new(b.schema(), b.columns());
        assert_eq!(view.value_at(2, "b"), Some(Value::Utf8("z".into())));
        let row = view.row(0);
        assert_eq!(row.get("a"), Some(Value::Int64(1)));
        assert_eq!(row.get("missing"), None);
    }

    #[test]
    fn table_rendering() {
        let s = batch().to_table_string();
        assert!(s.contains("| a | b   |"), "{s}");
        assert!(s.contains("| 3 | 'z' |"), "{s}");
    }
}
