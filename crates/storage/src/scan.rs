//! Scan orders and segmentation.
//!
//! Section 3.2 of the paper studies three ways to order the tuples an IGD
//! epoch visits:
//!
//! * **Clustered** — the order the data is stored on disk (often pathological,
//!   e.g. sorted by class label);
//! * **ShuffleOnce** — one random permutation drawn before the first epoch and
//!   reused for every epoch (the paper's recommended policy);
//! * **ShuffleAlways** — a fresh random permutation before every epoch (best
//!   per-epoch convergence, but the reshuffle dominates runtime).
//!
//! [`segment_ranges`] splits a table into contiguous segments for the
//! shared-nothing ("pure UDA") parallelism of Section 3.3, mirroring how a
//! parallel database assigns tuples to segments.

use std::borrow::Cow;

use bismarck_linalg::{FeatureVectorRef, SparseVector};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::chunk::{ColumnChunk, ValidityBitmap};
use crate::error::StorageError;
use crate::tuple::Tuple;
use crate::value::Value;

/// A tuple source an epoch can stream, independent of physical layout.
///
/// Both the row-store [`crate::Table`] and the chunked
/// [`crate::ColumnarTable`] implement this, so trainers, executors, and the
/// NULL-aggregate baseline are written once against it.
///
/// The primitive is [`TupleScan::scan_blocks`]: storage order, one borrowed
/// [`RowBlock`] per run of rows that are physically together (a heap page, a
/// columnar segment). Whoever can work on column slices — the linear tasks'
/// gradient and loss passes — reads them straight out of a columnar block;
/// whoever works a row at a time — every other training task, SQL `SELECT`
/// — walks the block with [`RowBlock::rows`], [`RowRef`] cursors that read
/// one cell where it is stored. [`TupleScan::scan_tuples_permuted`] is the
/// one other walk. The interface is callback-based (rather than returning
/// iterators) because a paged segment is pinned only for the duration of
/// one callback.
///
/// [`TupleScan::vector_width`] is not a scan at all: a table keeps the widest
/// vector of each column as rows are appended (a paged table writes it into
/// its manifest), so dimension inference reads no row.
///
/// # Errors
///
/// Both walks return the [`StorageError`] of a block they could not read: a
/// paged segment whose file fails to load (I/O error, checksum mismatch),
/// named in the error. The walk ends there, after the blocks it already
/// handed over. The in-memory layouts always return `Ok`.
///
/// [`TupleScan::scan_tuples`] is the one adapter: every row in storage
/// order as an owned-layout [`Tuple`], for the benchmark harness, the
/// NULL-aggregate baseline and tests, which read tables they built
/// themselves. It has no error channel and panics on a storage error; no
/// engine path (training, SQL) calls it.
///
/// # Semantics shared by all implementations
///
/// * `scan_tuples_permuted` silently skips out-of-range row ids, matching
///   `Table::scan_permuted`'s historical behaviour.
/// * `scan_blocks` clamps `end` to the row count and `start` to `end`; no
///   block is empty.
pub trait TupleScan: Sync {
    /// Number of rows the scan will visit.
    fn tuple_count(&self) -> usize;

    /// The largest [`FeatureVectorRef::dimension`] of any row's value in
    /// column `col`: 0 when no row holds a vector there (or there is no such
    /// column). Table metadata, answered without reading a row.
    fn vector_width(&self, col: usize) -> usize;

    /// Visit rows `start..end` (clamped) in storage order, one block per
    /// physically contiguous run, until `f` returns `false`, rows run out or
    /// a block cannot be read.
    fn scan_blocks(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(RowBlock<'_>) -> bool,
    ) -> Result<(), StorageError>;

    /// Visit rows in the order given by `order`, skipping invalid ids, until
    /// a row cannot be read.
    fn scan_tuples_permuted(
        &self,
        order: &[usize],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), StorageError>;

    /// Visit every row in storage order, each row of a columnar block
    /// materialized into one reused scratch tuple.
    ///
    /// # Panics
    ///
    /// On a storage error (see the trait's docs).
    fn scan_tuples(&self, f: &mut dyn FnMut(&Tuple)) {
        let mut scratch = Tuple::default();
        self.scan_blocks(0, usize::MAX, &mut |block| {
            block.for_each_tuple(&mut scratch, f);
            true
        })
        .unwrap_or_else(|e| panic!("scan_tuples: {e}"));
    }
}

/// A borrowed run of consecutive rows, in the layout they are stored in.
#[derive(Debug, Clone, Copy)]
pub enum RowBlock<'a> {
    /// Row store: the tuples themselves.
    Tuples(&'a [Tuple]),
    /// Columnar (in memory or paged): every column's chunk of one segment,
    /// of which this block is rows `first..first + len`.
    Columns {
        /// One chunk per schema column.
        columns: &'a [ColumnChunk],
        /// First row of the block within the chunks.
        first: usize,
        /// Number of rows in the block.
        len: usize,
    },
}

impl<'a> RowBlock<'a> {
    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        match *self {
            RowBlock::Tuples(tuples) => tuples.len(),
            RowBlock::Columns { len, .. } => len,
        }
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `col` of a columnar block read as feature vectors without
    /// copying. `None` when the block stores that column in a layout other
    /// than `DENSE_VEC` / `SPARSE_VEC` (or has no such column), and for a
    /// row-store block, whose tuples already lend their vectors out: the
    /// caller then reads its rows ([`RowBlock::rows`]), which is always
    /// available.
    pub fn features(&self, col: usize) -> Option<FeatureRows<'a>> {
        let RowBlock::Columns {
            columns,
            first,
            len,
        } = *self
        else {
            return None;
        };
        Some(FeatureRows(match columns.get(col)? {
            ColumnChunk::Dense {
                data,
                offsets,
                validity,
            } => FeatureRepr::Dense {
                data,
                offsets: &offsets[first..=first + len],
                validity,
                first,
            },
            ColumnChunk::Sparse {
                indices,
                values,
                offsets,
                validity,
            } => FeatureRepr::Sparse {
                indices,
                values,
                offsets: &offsets[first..=first + len],
                validity,
                first,
            },
            _ => return None,
        }))
    }

    /// Column `col` of a columnar block read as `f64` labels without
    /// copying; `None` when it is stored as anything but `DOUBLE` / `INT`.
    fn labels(&self, col: usize) -> Option<LabelRepr<'a>> {
        let RowBlock::Columns {
            columns,
            first,
            len,
        } = *self
        else {
            return None;
        };
        Some(match columns.get(col)? {
            // An `INT` value in a `DOUBLE` column is stored as `v as f64` in
            // `data`, which is what `Value::as_double` returns for it.
            ColumnChunk::Double { data, validity, .. } => LabelRepr::Double {
                data: &data[first..first + len],
                validity,
                first,
            },
            ColumnChunk::Int { data, validity } => LabelRepr::Int {
                data: &data[first..first + len],
                validity,
                first,
            },
            _ => return None,
        })
    }

    /// Columns `features` and `label` read as (feature vector, label)
    /// examples without copying; `None` under the conditions of
    /// [`RowBlock::features`], for either column.
    pub fn examples(&self, features: usize, label: usize) -> Option<ExampleRows<'a>> {
        Some(ExampleRows {
            features: self.features(features)?,
            labels: self.labels(label)?,
        })
    }

    /// Row `i` of the block as a cursor over its cells.
    ///
    /// # Panics
    ///
    /// When `i` is not below [`RowBlock::len`] (a row-store block; a columnar
    /// one panics at the first cell read).
    #[inline]
    pub fn row(&self, i: usize) -> RowRef<'a> {
        match *self {
            RowBlock::Tuples(tuples) => RowRef::Values(tuples[i].values()),
            RowBlock::Columns { columns, first, .. } => RowRef::Columns {
                columns,
                row: first + i,
            },
        }
    }

    /// Every row of the block in order, each read where it is stored.
    #[inline]
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'a>> {
        let block = *self;
        (0..block.len()).map(move |i| block.row(i))
    }

    /// Hand every row to `f` as a tuple. Rows of a columnar block are
    /// materialized one after the other into `scratch`, reusing its buffers.
    pub fn for_each_tuple(&self, scratch: &mut Tuple, f: &mut dyn FnMut(&Tuple)) {
        match *self {
            RowBlock::Tuples(tuples) => tuples.iter().for_each(f),
            RowBlock::Columns {
                columns,
                first,
                len,
            } => (first..first + len).for_each(|row| {
                materialize_row(columns, row, scratch);
                f(scratch)
            }),
        }
    }
}

/// One row, read a cell at a time from where it is stored: what
/// [`RowBlock::row`] hands out, and what any `&[Value]` or `&Tuple` can be
/// read as. Its typed accessors read what [`Tuple`]'s read from the row once
/// materialized, and like those return `None` for a column past the row's
/// arity.
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// The row's values, in schema order (a row-store tuple, or a row
    /// someone already holds).
    Values(&'a [Value]),
    /// Row `row` of one columnar segment's chunks.
    Columns {
        /// One chunk per schema column.
        columns: &'a [ColumnChunk],
        /// The row's position within the chunks.
        row: usize,
    },
}

impl<'a> From<&'a Tuple> for RowRef<'a> {
    fn from(tuple: &'a Tuple) -> Self {
        RowRef::Values(tuple.values())
    }
}

impl<'a> RowRef<'a> {
    /// Number of columns.
    pub fn arity(&self) -> usize {
        match *self {
            RowRef::Values(values) => values.len(),
            RowRef::Columns { columns, .. } => columns.len(),
        }
    }

    /// The value of column `col`: lent by a row that holds values and by a
    /// `SEQUENCE` chunk, decoded from its chunk (this one cell only) by any
    /// other columnar row — exactly the value the materialized tuple would
    /// hold there.
    ///
    /// # Panics
    ///
    /// When `col` is not below [`RowRef::arity`].
    #[inline]
    pub fn value(&self, col: usize) -> Cow<'a, Value> {
        match *self {
            RowRef::Values(values) => Cow::Borrowed(&values[col]),
            RowRef::Columns { columns, row } => match &columns[col] {
                ColumnChunk::Sequence { rows } => Cow::Borrowed(&rows[row]),
                chunk => {
                    let mut value = Value::Null;
                    chunk.read_into(row, &mut value);
                    Cow::Owned(value)
                }
            },
        }
    }

    /// Column `col` as a double (integers are coerced), as
    /// [`Tuple::get_double`] reads it.
    #[inline]
    pub fn get_double(&self, col: usize) -> Option<f64> {
        match *self {
            RowRef::Values(values) => values.get(col)?.as_double(),
            RowRef::Columns { columns, row } => columns_number(columns, row, col, Value::as_double),
        }
    }

    /// Column `col` as an integer (doubles are truncated), as
    /// [`Tuple::get_int`] reads it.
    #[inline]
    pub fn get_int(&self, col: usize) -> Option<i64> {
        match *self {
            RowRef::Values(values) => values.get(col)?.as_int(),
            RowRef::Columns { columns, row } => columns_number(columns, row, col, Value::as_int),
        }
    }

    /// Column `col` as a label sequence, lent in either layout.
    #[inline]
    pub fn get_sequence(&self, col: usize) -> Option<&'a [(SparseVector, u32)]> {
        match *self {
            RowRef::Values(values) => values.get(col)?.as_sequence(),
            RowRef::Columns { columns, row } => match columns.get(col)? {
                ColumnChunk::Sequence { rows } => rows[row].as_sequence(),
                _ => None,
            },
        }
    }

    /// Column `col` as a feature vector, without copying it in either
    /// layout; `None` when the cell is NULL or not a vector.
    #[inline]
    pub fn feature_view(&self, col: usize) -> Option<FeatureVectorRef<'a>> {
        match *self {
            RowRef::Values(values) => values.get(col)?.feature_view(),
            RowRef::Columns { columns, row } => columns_feature_view(columns, row, col),
        }
    }

    /// The row as an owned tuple: for a caller that keeps it past the scan.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(
            (0..self.arity())
                .map(|col| self.value(col).into_owned())
                .collect(),
        )
    }
}

/// The columnar half of [`RowRef::get_double`] and [`RowRef::get_int`]: a
/// numeric cell read through `read`, as it would read the materialized
/// tuple's value; a cell of another type is not decoded.
fn columns_number<T>(
    columns: &[ColumnChunk],
    row: usize,
    col: usize,
    read: fn(&Value) -> Option<T>,
) -> Option<T> {
    match columns.get(col)? {
        chunk @ (ColumnChunk::Int { .. } | ColumnChunk::Double { .. }) => {
            let mut value = Value::Null;
            chunk.read_into(row, &mut value);
            read(&value)
        }
        _ => None,
    }
}

/// The columnar half of [`RowRef::feature_view`], a function of its own so
/// that the row-store half inlines small.
fn columns_feature_view(
    columns: &[ColumnChunk],
    row: usize,
    col: usize,
) -> Option<FeatureVectorRef<'_>> {
    RowBlock::Columns {
        columns,
        first: row,
        len: 1,
    }
    .features(col)?
    .get(0)
}

/// Materialize row `row` of a segment's chunks into `tuple`, reusing its
/// allocations.
pub(crate) fn materialize_row(columns: &[ColumnChunk], row: usize, tuple: &mut Tuple) {
    let values = tuple.values_mut();
    if values.len() != columns.len() {
        values.clear();
        values.resize(columns.len(), Value::Null);
    }
    for (chunk, slot) in columns.iter().zip(values.iter_mut()) {
        chunk.read_into(row, slot);
    }
}

/// Raise `widths[c]` to the [`FeatureVectorRef::dimension`] of `row[c]`
/// wherever that cell holds a vector: how [`crate::Table`] and
/// [`crate::ColumnarTable`] keep [`TupleScan::vector_width`] as rows are
/// appended. Rows are never removed, so the running max is exact.
pub(crate) fn widen(widths: &mut [usize], row: &[Value]) {
    for (width, value) in widths.iter_mut().zip(row) {
        if let Some(x) = value.feature_view() {
            *width = (*width).max(x.dimension());
        }
    }
}

/// One column of a columnar [`RowBlock`] as borrowed feature vectors; row
/// `i` reads exactly what `tuple.feature_view(col)` reads from the block's
/// `i`-th row once materialized.
#[derive(Debug, Clone, Copy)]
pub struct FeatureRows<'a>(FeatureRepr<'a>);

/// `offsets` are the block's own `len + 1` entries; `first` is where the
/// block starts in the chunk, for the validity lookup.
#[derive(Debug, Clone, Copy)]
enum FeatureRepr<'a> {
    Dense {
        data: &'a [f64],
        offsets: &'a [u32],
        validity: &'a ValidityBitmap,
        first: usize,
    },
    Sparse {
        indices: &'a [u32],
        values: &'a [f64],
        offsets: &'a [u32],
        validity: &'a ValidityBitmap,
        first: usize,
    },
}

impl<'a> FeatureRows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.0 {
            FeatureRepr::Dense { offsets, .. } | FeatureRepr::Sparse { offsets, .. } => {
                offsets.len() - 1
            }
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The feature vector of row `i`; `None` for NULL.
    // `inline(always)` here and on the two `get`s below: with plain
    // `#[inline]` the per-row loops of the gradient pass kept a call and a
    // by-memory return per row (≈ 40 ns/row on sparse rows).
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<FeatureVectorRef<'a>> {
        match self.0 {
            FeatureRepr::Dense {
                data,
                offsets,
                validity,
                first,
            } => validity.is_valid(first + i).then(|| {
                FeatureVectorRef::Dense(&data[offsets[i] as usize..offsets[i + 1] as usize])
            }),
            FeatureRepr::Sparse {
                indices,
                values,
                offsets,
                validity,
                first,
            } => validity.is_valid(first + i).then(|| {
                let entries = offsets[i] as usize..offsets[i + 1] as usize;
                FeatureVectorRef::Sparse {
                    indices: &indices[entries.clone()],
                    values: &values[entries],
                }
            }),
        }
    }

    /// The largest [`FeatureVectorRef::dimension`] over the rows (0 when all
    /// are NULL), answered from the offsets and each sparse row's last index:
    /// a NULL row is an empty entry range, and no feature value is read.
    pub fn max_dimension(&self) -> usize {
        match self.0 {
            FeatureRepr::Dense { offsets, .. } => offsets
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0),
            FeatureRepr::Sparse {
                indices, offsets, ..
            } => offsets
                .windows(2)
                .filter(|w| w[1] > w[0])
                .map(|w| indices[w[1] as usize - 1] as usize + 1)
                .max()
                .unwrap_or(0),
        }
    }
}

/// `data` is the block's own `len` entries; `first` is where the block
/// starts in the chunk, for the validity lookup.
#[derive(Debug, Clone, Copy)]
enum LabelRepr<'a> {
    Double {
        data: &'a [f64],
        validity: &'a ValidityBitmap,
        first: usize,
    },
    Int {
        data: &'a [i64],
        validity: &'a ValidityBitmap,
        first: usize,
    },
}

impl LabelRepr<'_> {
    #[inline(always)]
    fn get(&self, i: usize) -> Option<f64> {
        match *self {
            LabelRepr::Double {
                data,
                validity,
                first,
            } => validity.is_valid(first + i).then(|| data[i]),
            LabelRepr::Int {
                data,
                validity,
                first,
            } => validity.is_valid(first + i).then(|| data[i] as f64),
        }
    }
}

/// Two columns of a columnar [`RowBlock`] as borrowed (features, label)
/// examples.
#[derive(Debug, Clone, Copy)]
pub struct ExampleRows<'a> {
    features: FeatureRows<'a>,
    labels: LabelRepr<'a>,
}

impl<'a> ExampleRows<'a> {
    /// Number of rows, NULL ones included.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as `(tuple.feature_view(features)?, tuple.get_double(label)?)`
    /// would read it from the materialized tuple: `None` when either is NULL.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<(FeatureVectorRef<'a>, f64)> {
        Some((self.features.get(i)?, self.labels.get(i)?))
    }

    /// Every row in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Option<(FeatureVectorRef<'a>, f64)>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The order in which an epoch visits the rows of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Visit rows in storage (clustered / insertion) order.
    Clustered,
    /// Shuffle the rows once with the given seed and reuse that permutation
    /// for every epoch.
    ShuffleOnce {
        /// RNG seed so experiments are reproducible.
        seed: u64,
    },
    /// Draw a fresh permutation before every epoch, seeded from `seed` and
    /// the epoch number.
    ShuffleAlways {
        /// Base RNG seed; epoch `e` uses `seed + e`.
        seed: u64,
    },
}

impl ScanOrder {
    /// Produce the row-visit order for `epoch` over a table of `len` rows.
    ///
    /// Returns `None` for [`ScanOrder::Clustered`], signalling that callers
    /// should use the table's native scan (which avoids materializing a
    /// permutation); otherwise returns the explicit permutation.
    pub fn permutation(&self, len: usize, epoch: usize) -> Option<Vec<usize>> {
        match self {
            ScanOrder::Clustered => None,
            ScanOrder::ShuffleOnce { seed } => Some(shuffled_indices(len, *seed)),
            ScanOrder::ShuffleAlways { seed } => {
                Some(shuffled_indices(len, seed.wrapping_add(epoch as u64)))
            }
        }
    }

    /// Human-readable name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ScanOrder::Clustered => "Clustered",
            ScanOrder::ShuffleOnce { .. } => "ShuffleOnce",
            ScanOrder::ShuffleAlways { .. } => "ShuffleAlways",
        }
    }
}

/// A uniformly random permutation of `0..len` produced with a seeded RNG.
pub fn shuffled_indices(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    order
}

/// Split `len` rows into `segments` contiguous `[start, end)` ranges whose
/// sizes differ by at most one; empty ranges are produced when there are more
/// segments than rows. Zero segments yields an empty vector.
pub fn segment_ranges(len: usize, segments: usize) -> Vec<(usize, usize)> {
    if segments == 0 {
        return Vec::new();
    }
    let base = len / segments;
    let extra = len % segments;
    let mut ranges = Vec::with_capacity(segments);
    let mut start = 0;
    for s in 0..segments {
        let size = base + usize::from(s < extra);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every cell type, NULLs and an `INT` past 2^53 in the `DOUBLE` column.
    fn mixed_rows() -> crate::Table {
        use crate::schema::{Column, DataType, Schema};
        let schema = Schema::new(vec![
            Column::nullable("i", DataType::Int),
            Column::nullable("d", DataType::Double),
            Column::nullable("t", DataType::Text),
            Column::nullable("dense", DataType::DenseVec),
            Column::nullable("sparse", DataType::SparseVec),
            Column::nullable("seq", DataType::Sequence),
        ])
        .unwrap();
        let mut table = crate::Table::new("mixed", schema);
        for i in 0..9i64 {
            let row = if i % 4 == 3 {
                vec![Value::Null; 6]
            } else {
                vec![
                    Value::Int(i - 4),
                    if i == 2 {
                        Value::Int((1 << 53) + 1)
                    } else {
                        Value::Double(i as f64 / 3.0)
                    },
                    Value::from(format!("row {i}")),
                    Value::from(vec![i as f64, -1.5]),
                    Value::from(SparseVector::from_pairs(vec![(i as usize, 2.0)])),
                    Value::Sequence(vec![(SparseVector::from_pairs(vec![(1, 0.5)]), i as u32)]),
                ]
            };
            table.insert(row).unwrap();
        }
        table
    }

    /// A row read where it is stored answers every typed accessor as the
    /// tuple materialized from it does, past its arity too; a `SEQUENCE`
    /// cell is lent, not copied.
    #[test]
    fn row_refs_read_what_their_tuples_read() {
        let table = mixed_rows();
        let schema = table.schema().clone();
        let mut columnar = crate::ColumnarTable::with_chunk_capacity("mixed", schema, 4);
        columnar
            .insert_all(table.scan().map(|t| t.values().to_vec()))
            .unwrap();
        for data in [&table as &dyn TupleScan, &columnar] {
            let mut rows = 0;
            data.scan_blocks(0, usize::MAX, &mut |block| {
                for row in block.rows() {
                    let tuple = table.get(rows).unwrap();
                    assert_eq!(row.to_tuple(), *tuple);
                    assert_eq!(RowRef::from(tuple).arity(), row.arity());
                    for col in 0..=row.arity() {
                        assert_eq!(row.get_double(col), tuple.get_double(col));
                        assert_eq!(row.get_int(col), tuple.get_int(col));
                        assert_eq!(row.get_sequence(col), tuple.get_sequence(col));
                        assert_eq!(row.feature_view(col), tuple.feature_view(col));
                    }
                    assert!(matches!(row.value(5), Cow::Borrowed(_)));
                    rows += 1;
                }
                true
            })
            .unwrap();
            assert_eq!(rows, table.len());
        }
    }

    #[test]
    fn clustered_has_no_permutation_and_never_shuffles() {
        let order = ScanOrder::Clustered;
        assert!(order.permutation(10, 0).is_none());
        assert_eq!(order.label(), "Clustered");
    }

    #[test]
    fn shuffle_once_is_stable_across_epochs() {
        let order = ScanOrder::ShuffleOnce { seed: 7 };
        let p0 = order.permutation(100, 0).unwrap();
        let p5 = order.permutation(100, 5).unwrap();
        assert_eq!(p0, p5);
    }

    #[test]
    fn shuffle_always_differs_across_epochs() {
        let order = ScanOrder::ShuffleAlways { seed: 7 };
        let p0 = order.permutation(100, 0).unwrap();
        let p1 = order.permutation(100, 1).unwrap();
        assert_ne!(p0, p1);
    }

    #[test]
    fn permutations_are_valid() {
        for seed in 0..5u64 {
            let p = shuffled_indices(50, seed);
            let set: BTreeSet<usize> = p.iter().copied().collect();
            assert_eq!(set.len(), 50);
            assert_eq!(*set.iter().next().unwrap(), 0);
            assert_eq!(*set.iter().last().unwrap(), 49);
        }
    }

    #[test]
    fn same_seed_same_permutation() {
        assert_eq!(shuffled_indices(32, 3), shuffled_indices(32, 3));
        assert_ne!(shuffled_indices(32, 3), shuffled_indices(32, 4));
    }

    #[test]
    fn segments_cover_and_balance() {
        let ranges = segment_ranges(10, 3);
        assert_eq!(ranges, vec![(0, 4), (4, 7), (7, 10)]);
        let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 10);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn segments_edge_cases() {
        assert!(segment_ranges(10, 0).is_empty());
        let ranges = segment_ranges(2, 4);
        assert_eq!(ranges.len(), 4);
        let nonempty: usize = ranges.iter().filter(|(s, e)| e > s).count();
        assert_eq!(nonempty, 2);
        assert_eq!(segment_ranges(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }
}
