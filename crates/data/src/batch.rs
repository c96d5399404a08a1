//! Columnar record batches: the zero-copy data plane.
//!
//! A [`RecordBatch`] stores one split's records in structure-of-arrays
//! (SoA) layout — one typed `Vec` per column instead of one `Vec<Value>`
//! per record. For the LINEITEM schema that turns a 12-`Value` row (with
//! three heap `String`s) into twelve contiguous columns: `i64`/`f64`
//! vectors for numerics, `u32` day-counts for dates, and
//! **dictionary-encoded** string columns (a `u32` code per row into a tiny
//! per-batch dictionary of `Arc<str>`s — LINEITEM's string columns have at
//! most 8 distinct values, so the per-row cost is 4 bytes and zero
//! allocations).
//!
//! Batches are immutable once built and always travel as
//! `Arc<RecordBatch>`: a map task's "split data" is a reference-count bump,
//! and its *output* is a [`BatchSelection`] — the same `Arc` plus a
//! [`SelectionVector`] of surviving row indices (and an optional
//! projection). Nothing is copied until the reduce/result boundary
//! materialises selected rows back into [`Record`]s.
//!
//! Two kernels cross that boundary, each once per call rather than once
//! per row:
//!
//! * **Width.** [`BatchSelection::total_width`] sums a selection's
//!   serialized bytes a column at a time: `8·n` for an Int or Float
//!   column, `4·n` for a Date column, one pass over the selected codes for
//!   a Str column. Shuffle byte accounting never walks a row.
//! * **Rows.** One row kernel (`RecordBatch::build_rows`) builds each
//!   selected row as an exact-capacity `Vec<Value>` in one loop over the
//!   projected columns, inlined into the caller. Every batch→row
//!   conversion ([`RecordBatch::record`], [`RecordBatch::to_records`],
//!   [`BatchSelection::record`], [`BatchSelection::iter_records`], and
//!   through them the shuffle and the reducers) runs it.
//!
//! The row-oriented [`Record`]/[`Value`] model stays as the boundary
//! format (reducer inputs, job results, exotic mappers) and as the
//! reference implementation that property tests pin the columnar path
//! against.

use std::fmt;
use std::sync::Arc;

use crate::schema::{ColumnType, Schema};
use crate::value::{Record, Value};

/// Row indices selected from a batch, ascending. `u32` is ample: splits
/// hold at most a few million rows.
pub type SelectionVector = Vec<u32>;

/// A dictionary-encoded string column: one `u32` code per row into a
/// per-batch dictionary, which holds each string once, in first-seen
/// order. The LINEITEM generator never looks a string up: it caches each
/// domain value's code on first sight (`lineitem.rs`). [`StrColumn::intern`]
/// serves the row path ([`RecordBatch::from_records`]) with a linear scan,
/// which is fine while dictionaries stay tiny (LINEITEM's widest string
/// column has 8 distinct values); a high-cardinality column would want a
/// hash index there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrColumn {
    /// Per-row dictionary codes.
    pub codes: Vec<u32>,
    /// Distinct values, in first-interned order.
    pub dict: Vec<Arc<str>>,
}

impl StrColumn {
    /// The string at `row`.
    pub fn get(&self, row: usize) -> &Arc<str> {
        &self.dict[self.codes[row] as usize]
    }

    /// Code for `s`, interning it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        match self.dict.iter().position(|d| &**d == s) {
            Some(i) => i as u32,
            None => {
                self.dict.push(Arc::from(s));
                (self.dict.len() - 1) as u32
            }
        }
    }
}

/// One column's values, typed per the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Days since the TPC-H epoch.
    Date(Vec<u32>),
    /// Dictionary-encoded strings.
    Str(StrColumn),
}

impl ColumnData {
    fn with_capacity(ty: ColumnType, rows: usize) -> Self {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            ColumnType::Date => ColumnData::Date(Vec::with_capacity(rows)),
            ColumnType::Str => ColumnData::Str(StrColumn {
                codes: Vec::with_capacity(rows),
                dict: Vec::new(),
            }),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str(c) => c.codes.len(),
        }
    }

    /// Materialise the value at `row`.
    #[inline(always)]
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Date(v) => Value::Date(v[row]),
            ColumnData::Str(c) => Value::Str(String::from(&**c.get(row))),
        }
    }

    /// Serialized width in bytes of the values at `rows`: the sum of
    /// their [`Value::width`]s, computed for the whole column at once.
    fn width_of(&self, rows: &[u32]) -> u64 {
        let n = rows.len() as u64;
        match self {
            ColumnData::Int(_) | ColumnData::Float(_) => 8 * n,
            ColumnData::Date(_) => 4 * n,
            ColumnData::Str(c) => rows.iter().map(|&r| c.get(r as usize).len() as u64).sum(),
        }
    }
}

/// An immutable SoA batch of records. Built once, by a [`BatchBuilder`]
/// or a generator's column writer, then shared as `Arc<RecordBatch>` —
/// clones of the handle are reference-count bumps, never data copies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordBatch {
    columns: Vec<ColumnData>,
    rows: usize,
}

impl RecordBatch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column at `idx`.
    ///
    /// # Panics
    /// Panics if out of range — batches are always built to match their
    /// schema, so this indicates a compiler/generator bug (same contract
    /// as [`Record::get`]).
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// The one row kernel: build the rows at `rows`, in the order given,
    /// each projected to `projection`'s column indices (empty = all
    /// columns). Each row is one exact-capacity `Vec<Value>`, filled by
    /// one loop over the projected columns that inlines into the caller:
    /// no call per row or per value, and no adapter chain. Rows are built
    /// lazily, so `take(n)` builds at most `n`. Byte-identical to what the
    /// row-oriented generator would have produced.
    ///
    /// # Panics
    /// Panics (when iterated) if a row or a projected column is out of
    /// range.
    #[inline]
    fn build_rows<'a, I>(
        &'a self,
        rows: I,
        projection: &'a [usize],
    ) -> impl ExactSizeIterator<Item = Record> + 'a
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator + 'a,
    {
        let columns = &self.columns;
        rows.into_iter().map(move |row| {
            let row = row as usize;
            let mut values;
            if projection.is_empty() {
                values = Vec::with_capacity(columns.len());
                for c in columns {
                    values.push(c.value(row));
                }
            } else {
                values = Vec::with_capacity(projection.len());
                for &c in projection {
                    values.push(columns[c].value(row));
                }
            }
            Record::new(values)
        })
    }

    /// Materialise one row as a [`Record`], optionally projected to the
    /// given column indices (empty = all columns), through the row kernel.
    pub fn record(&self, row: usize, projection: &[usize]) -> Record {
        let mut one = self.build_rows([row as u32], projection);
        one.next().expect("one row requested")
    }

    /// Materialise every row, in order (tests, and mappers that want rows),
    /// through the row kernel.
    pub fn to_records(&self) -> Vec<Record> {
        self.build_rows(0..self.rows as u32, &[]).collect()
    }

    /// Build a batch from rows (the scalar path; the LINEITEM generator
    /// writes its columns directly and never materialises rows).
    pub fn from_records(schema: &Schema, records: &[Record]) -> RecordBatch {
        let mut b = BatchBuilder::new(schema, records.len());
        for r in records {
            b.push_record(r);
        }
        b.finish()
    }

    /// Seal columns written outside a [`BatchBuilder`].
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub(crate) fn from_columns(columns: Vec<ColumnData>) -> RecordBatch {
        let rows = columns.first().map_or(0, ColumnData::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "column lengths differ: {:?}",
            columns.iter().map(ColumnData::len).collect::<Vec<_>>()
        );
        RecordBatch { columns, rows }
    }
}

/// Append-only builder for a [`RecordBatch`].
#[derive(Debug)]
pub struct BatchBuilder {
    columns: Vec<ColumnData>,
    rows: usize,
}

impl BatchBuilder {
    /// A builder for `schema` with capacity for `rows` rows.
    pub fn new(schema: &Schema, rows: usize) -> Self {
        BatchBuilder {
            columns: schema
                .fields()
                .iter()
                .map(|f| ColumnData::with_capacity(f.ty, rows))
                .collect(),
            rows: 0,
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True before the first row is appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append an integer to column `col`.
    pub fn push_int(&mut self, col: usize, v: i64) {
        let ColumnData::Int(vec) = &mut self.columns[col] else {
            panic!("column {col} is not Int");
        };
        vec.push(v);
    }

    /// Append a float to column `col`.
    pub fn push_float(&mut self, col: usize, v: f64) {
        let ColumnData::Float(vec) = &mut self.columns[col] else {
            panic!("column {col} is not Float");
        };
        vec.push(v);
    }

    /// Append a date to column `col`.
    pub fn push_date(&mut self, col: usize, v: u32) {
        let ColumnData::Date(vec) = &mut self.columns[col] else {
            panic!("column {col} is not Date");
        };
        vec.push(v);
    }

    /// Append a string to column `col` (interning as needed).
    pub fn push_str(&mut self, col: usize, s: &str) {
        let ColumnData::Str(c) = &mut self.columns[col] else {
            panic!("column {col} is not Str");
        };
        let code = c.intern(s);
        c.codes.push(code);
    }

    /// Mark one row complete.
    ///
    /// # Panics
    /// Panics (debug) if any column is missing a value for the row.
    pub fn finish_row(&mut self) {
        self.rows += 1;
        debug_assert!(
            self.columns.iter().all(|c| c.len() == self.rows),
            "row {} incomplete: column lengths {:?}",
            self.rows,
            self.columns.iter().map(ColumnData::len).collect::<Vec<_>>()
        );
    }

    /// Append a whole [`Record`] (the scalar compatibility path).
    ///
    /// # Panics
    /// Panics if a value's type does not match its column.
    pub fn push_record(&mut self, r: &Record) {
        assert_eq!(r.arity(), self.columns.len(), "record arity mismatch");
        for (col, v) in r.values().iter().enumerate() {
            match v {
                Value::Int(i) => self.push_int(col, *i),
                Value::Float(f) => self.push_float(col, *f),
                Value::Date(d) => self.push_date(col, *d),
                Value::Str(s) => self.push_str(col, s),
            }
        }
        self.finish_row();
    }

    /// Seal the batch.
    pub fn finish(self) -> RecordBatch {
        debug_assert!(self.columns.iter().all(|c| c.len() == self.rows));
        RecordBatch {
            columns: self.columns,
            rows: self.rows,
        }
    }
}

/// A zero-copy view of selected (optionally projected) rows of a shared
/// batch — what the batched map path emits instead of cloned `Record`s.
/// Cloning one clones the `Arc` and the (4-byte-per-row) selection vector,
/// never the column data.
#[derive(Debug, Clone, Default)]
pub struct BatchSelection {
    /// The shared source batch.
    pub batch: Arc<RecordBatch>,
    /// Surviving row indices, in scan order.
    pub sel: SelectionVector,
    /// Columns each materialised row keeps (empty slice = all), shared so
    /// cloning a selection never re-allocates the projection.
    pub projection: Arc<[usize]>,
}

impl BatchSelection {
    /// Select `sel` rows of `batch`, projected to `projection` columns
    /// (empty = all).
    pub fn new(batch: Arc<RecordBatch>, sel: SelectionVector, projection: Arc<[usize]>) -> Self {
        debug_assert!(sel.iter().all(|&r| (r as usize) < batch.len()));
        BatchSelection {
            batch,
            sel,
            projection,
        }
    }

    /// Every row of `batch`, unprojected.
    pub fn all(batch: Arc<RecordBatch>) -> Self {
        let sel = (0..batch.len() as u32).collect();
        BatchSelection {
            batch,
            sel,
            projection: Arc::from([]),
        }
    }

    /// Selected row count.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Keep only the first `n` selected rows.
    pub fn truncate(&mut self, n: usize) {
        self.sel.truncate(n);
    }

    /// Materialise the `i`-th selected row (applying the projection).
    pub fn record(&self, i: usize) -> Record {
        self.batch.record(self.sel[i] as usize, &self.projection)
    }

    /// Total serialized width of all selected rows — the sum of their
    /// [`Record::width`]s — computed a projected column at a time,
    /// without materialising a row.
    pub fn total_width(&self) -> u64 {
        let columns = self.batch.columns();
        if self.projection.is_empty() {
            columns.iter().map(|c| c.width_of(&self.sel)).sum()
        } else {
            self.projection
                .iter()
                .map(|&c| columns[c].width_of(&self.sel))
                .sum()
        }
    }

    /// Materialising iterator over selected rows, in selection order: the
    /// row kernel over the selection. Rows are built lazily, so `take(n)`
    /// builds only the first `n`.
    #[inline]
    pub fn iter_records(&self) -> impl ExactSizeIterator<Item = Record> + '_ {
        self.batch
            .build_rows(self.sel.iter().copied(), &self.projection)
    }
}

impl fmt::Display for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RecordBatch[{} rows x {} cols]", self.rows, self.arity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("price", ColumnType::Float),
            ("flag", ColumnType::Str),
            ("day", ColumnType::Date),
        ])
    }

    fn sample() -> RecordBatch {
        let mut b = BatchBuilder::new(&schema(), 3);
        for (i, p, s, d) in [(1, 1.5, "A", 10u32), (2, 2.5, "B", 20), (3, 3.5, "A", 30)] {
            b.push_int(0, i);
            b.push_float(1, p);
            b.push_str(2, s);
            b.push_date(3, d);
            b.finish_row();
        }
        b.finish()
    }

    #[test]
    fn roundtrips_rows() {
        let batch = sample();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.arity(), 4);
        let rows = batch.to_records();
        assert_eq!(rows[1].get(0), &Value::Int(2));
        assert_eq!(rows[2].get(2), &Value::Str("A".into()));
        let rebuilt = RecordBatch::from_records(&schema(), &rows);
        assert_eq!(rebuilt, batch);
    }

    #[test]
    fn dictionary_shares_codes() {
        let batch = sample();
        let ColumnData::Str(c) = batch.column(2) else {
            panic!()
        };
        assert_eq!(c.dict.len(), 2, "two distinct flags");
        assert_eq!(c.codes, vec![0, 1, 0]);
    }

    #[test]
    fn widths_match_record_widths() {
        let batch = Arc::new(sample());
        let projections: [&[usize]; 4] = [&[], &[2, 0], &[2, 2], &[3]];
        for projection in projections {
            for sel in [vec![], vec![1], vec![0, 2], vec![0, 1, 2]] {
                let rows = BatchSelection::new(Arc::clone(&batch), sel, Arc::from(projection));
                let expect: u64 = rows.iter_records().map(|r| r.width()).sum();
                assert_eq!(rows.total_width(), expect, "{:?} {projection:?}", rows.sel);
            }
        }
    }

    #[test]
    fn projection_orders_columns() {
        let batch = sample();
        let r = batch.record(0, &[3, 0]);
        assert_eq!(r.values(), &[Value::Date(10), Value::Int(1)]);
    }

    #[test]
    fn selection_views_rows_zero_copy() {
        let batch = Arc::new(sample());
        let sel = BatchSelection::new(Arc::clone(&batch), vec![2, 0], Arc::from([0usize]));
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.record(0).values(), &[Value::Int(3)]);
        assert_eq!(sel.record(1).values(), &[Value::Int(1)]);
        assert_eq!(sel.total_width(), 16);
        let all = BatchSelection::all(Arc::clone(&batch));
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.iter_records().collect::<Vec<_>>(),
            batch.to_records(),
            "identity selection materialises every row"
        );
    }

    #[test]
    fn truncate_keeps_prefix() {
        let batch = Arc::new(sample());
        let mut sel = BatchSelection::all(batch);
        sel.truncate(1);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel.record(0).values()[0], Value::Int(1));
    }

    #[test]
    fn empty_batch_is_fine() {
        let b = BatchBuilder::new(&schema(), 0).finish();
        assert!(b.is_empty());
        assert!(b.to_records().is_empty());
        let sel = BatchSelection::all(Arc::new(b));
        assert!(sel.is_empty());
        assert_eq!(sel.total_width(), 0);
    }

    #[test]
    #[should_panic(expected = "not Int")]
    fn type_confusion_panics() {
        let mut b = BatchBuilder::new(&schema(), 1);
        b.push_int(1, 3);
    }
}
