//! Fixed-size column chunks: the unit of columnar storage.
//!
//! A chunk holds one column's values for up to a segment's worth of rows in a
//! layout chosen per [`DataType`]:
//!
//! * `INT` / `DOUBLE` — a contiguous primitive array plus a validity bitmap
//!   (NULL slots store a zero placeholder so the array stays fixed-stride);
//! * `TEXT` — raw UTF-8 bytes with `rows + 1` byte offsets;
//! * `DENSE_VEC` — one contiguous `f64` buffer holding every row's entries
//!   back to back, with `rows + 1` element offsets, so a scan streams feature
//!   data linearly instead of chasing one heap allocation per tuple;
//! * `SPARSE_VEC` — parallel index/value arrays with `rows + 1` offsets;
//! * `SEQUENCE` — an owned row fallback (structured-prediction payloads are
//!   too irregular to benefit from decomposition).
//!
//! Chunks serialize through the same little-endian primitives as the WAL
//! codec (`crate::codec`); the segment container around them adds the
//! header and checksum (see `docs/disk-format.md`).

use bismarck_linalg::SparseVector;

use crate::codec::{push_value, read_value, Reader};
use crate::error::StorageError;
use crate::schema::DataType;
use crate::value::Value;

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

/// Append `xs` as a u64 count, then every element's `W` little-endian bytes.
fn push_le_array<T: Copy, const W: usize>(
    out: &mut Vec<u8>,
    xs: &[T],
    to_le: impl Fn(T) -> [u8; W],
) {
    out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    let start = out.len();
    out.resize(start + xs.len() * W, 0);
    for (bytes, &x) in out[start..].chunks_exact_mut(W).zip(xs) {
        bytes.copy_from_slice(&to_le(x));
    }
}

/// Inverse of [`push_le_array`]: one bounds check and one bulk conversion
/// per array instead of one of each per value.
fn read_le_array<T, const W: usize>(
    r: &mut Reader<'_>,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, StorageError> {
    let n = r.len_prefix(W)?;
    let elements = r.take(n * W)?.chunks_exact(W);
    Ok(elements
        .map(|bytes| from_le(bytes.try_into().expect("chunks_exact yields W bytes")))
        .collect())
}

/// One bit per row: set when the slot holds a real value, clear for NULL.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidityBitmap {
    words: Vec<u64>,
    len: usize,
}

impl ValidityBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        ValidityBitmap::default()
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row's validity bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Whether row `i` holds a real value; out-of-range rows read as NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set (non-NULL) bits.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend(self.words.iter().flat_map(|word| word.to_le_bytes()));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let len = r.u64()? as usize;
        let words_needed = len.div_ceil(64);
        if words_needed > r.remaining() / 8 {
            return Err(corrupt("validity bitmap longer than its record"));
        }
        let words = r.take(words_needed * 8)?.chunks_exact(8);
        let words = words
            .map(|w| u64::from_le_bytes(w.try_into().expect("8B")))
            .collect();
        Ok(ValidityBitmap { words, len })
    }
}

const CHUNK_TAG_INT: u8 = 0;
const CHUNK_TAG_DOUBLE: u8 = 1;
const CHUNK_TAG_TEXT: u8 = 2;
const CHUNK_TAG_DENSE: u8 = 3;
const CHUNK_TAG_SPARSE: u8 = 4;
const CHUNK_TAG_SEQUENCE: u8 = 5;

/// One column's values for one segment, in a type-specialized layout.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnChunk {
    /// `INT` column: contiguous values, NULL slots store 0.
    Int {
        /// Row values (placeholder 0 where NULL).
        data: Vec<i64>,
        /// Per-row validity.
        validity: ValidityBitmap,
    },
    /// `DOUBLE` column: contiguous values, NULL slots store 0.0.
    Double {
        /// Row values (placeholder 0.0 where NULL).
        data: Vec<f64>,
        /// Per-row validity.
        validity: ValidityBitmap,
        /// Rows whose original value was an integer (the schema accepts
        /// `INT` values in `DOUBLE` columns): `(slot, value)` pairs sorted by
        /// slot, so materialization reproduces `Value::Int` exactly even for
        /// magnitudes a `f64` cannot represent.
        int_rows: Vec<(u32, i64)>,
    },
    /// `TEXT` column: raw UTF-8 bytes + byte offsets.
    Text {
        /// Concatenated string payloads.
        bytes: Vec<u8>,
        /// `rows + 1` byte offsets into `bytes`.
        offsets: Vec<u32>,
        /// Per-row validity.
        validity: ValidityBitmap,
    },
    /// `DENSE_VEC` column: all rows' entries in one contiguous buffer.
    Dense {
        /// Concatenated `f64` entries of every row.
        data: Vec<f64>,
        /// `rows + 1` element offsets into `data`.
        offsets: Vec<u32>,
        /// Per-row validity.
        validity: ValidityBitmap,
    },
    /// `SPARSE_VEC` column: parallel index/value arrays + offsets.
    Sparse {
        /// Concatenated sorted indices of every row.
        indices: Vec<u32>,
        /// Concatenated values, parallel to `indices`.
        values: Vec<f64>,
        /// `rows + 1` entry offsets into `indices` / `values`.
        offsets: Vec<u32>,
        /// Per-row validity.
        validity: ValidityBitmap,
    },
    /// `SEQUENCE` column: owned values (no columnar decomposition).
    Sequence {
        /// Row values (`Value::Sequence` or `Value::Null`).
        rows: Vec<Value>,
    },
}

impl ColumnChunk {
    /// An empty chunk laid out for `dtype`.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnChunk::Int {
                data: Vec::new(),
                validity: ValidityBitmap::new(),
            },
            DataType::Double => ColumnChunk::Double {
                data: Vec::new(),
                validity: ValidityBitmap::new(),
                int_rows: Vec::new(),
            },
            DataType::Text => ColumnChunk::Text {
                bytes: Vec::new(),
                offsets: vec![0],
                validity: ValidityBitmap::new(),
            },
            DataType::DenseVec => ColumnChunk::Dense {
                data: Vec::new(),
                offsets: vec![0],
                validity: ValidityBitmap::new(),
            },
            DataType::SparseVec => ColumnChunk::Sparse {
                indices: Vec::new(),
                values: Vec::new(),
                offsets: vec![0],
                validity: ValidityBitmap::new(),
            },
            DataType::Sequence => ColumnChunk::Sequence { rows: Vec::new() },
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Int { validity, .. }
            | ColumnChunk::Double { validity, .. }
            | ColumnChunk::Text { validity, .. }
            | ColumnChunk::Dense { validity, .. }
            | ColumnChunk::Sparse { validity, .. } => validity.len(),
            ColumnChunk::Sequence { rows } => rows.len(),
        }
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one schema-validated value. The caller guarantees the value's
    /// type matches the chunk's layout (NULLs are always accepted).
    pub(crate) fn push(&mut self, value: &Value) -> Result<(), StorageError> {
        match (self, value) {
            (ColumnChunk::Int { data, validity }, Value::Int(v)) => {
                data.push(*v);
                validity.push(true);
            }
            (ColumnChunk::Int { data, validity }, Value::Null) => {
                data.push(0);
                validity.push(false);
            }
            (ColumnChunk::Double { data, validity, .. }, Value::Double(v)) => {
                data.push(*v);
                validity.push(true);
            }
            (
                ColumnChunk::Double {
                    data,
                    validity,
                    int_rows,
                },
                Value::Int(v),
            ) => {
                int_rows.push((data.len() as u32, *v));
                data.push(*v as f64);
                validity.push(true);
            }
            (ColumnChunk::Double { data, validity, .. }, Value::Null) => {
                data.push(0.0);
                validity.push(false);
            }
            (
                ColumnChunk::Text {
                    bytes,
                    offsets,
                    validity,
                },
                Value::Text(s),
            ) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(
                    u32::try_from(bytes.len())
                        .map_err(|_| corrupt("text chunk exceeds the 4 GiB offset range"))?,
                );
                validity.push(true);
            }
            (
                ColumnChunk::Text {
                    bytes,
                    offsets,
                    validity,
                    ..
                },
                Value::Null,
            ) => {
                offsets.push(bytes.len() as u32);
                validity.push(false);
            }
            (
                ColumnChunk::Dense {
                    data,
                    offsets,
                    validity,
                },
                Value::DenseVec(v),
            ) => {
                data.extend_from_slice(v.as_slice());
                offsets.push(
                    u32::try_from(data.len())
                        .map_err(|_| corrupt("dense chunk exceeds the u32 offset range"))?,
                );
                validity.push(true);
            }
            (
                ColumnChunk::Dense {
                    data,
                    offsets,
                    validity,
                    ..
                },
                Value::Null,
            ) => {
                offsets.push(data.len() as u32);
                validity.push(false);
            }
            (
                ColumnChunk::Sparse {
                    indices,
                    values,
                    offsets,
                    validity,
                },
                Value::SparseVec(v),
            ) => {
                indices.extend_from_slice(v.indices());
                values.extend_from_slice(v.values());
                offsets.push(
                    u32::try_from(indices.len())
                        .map_err(|_| corrupt("sparse chunk exceeds the u32 offset range"))?,
                );
                validity.push(true);
            }
            (
                ColumnChunk::Sparse {
                    indices,
                    offsets,
                    validity,
                    ..
                },
                Value::Null,
            ) => {
                offsets.push(indices.len() as u32);
                validity.push(false);
            }
            (ColumnChunk::Sequence { rows }, v @ (Value::Sequence(_) | Value::Null)) => {
                rows.push(v.clone());
            }
            _ => return Err(corrupt("value type does not match the column chunk layout")),
        }
        Ok(())
    }

    /// Materialize row `i` into `slot`, reusing `slot`'s existing allocation
    /// where the variants line up (the scan path calls this once per row per
    /// column, so a `DENSE_VEC` or `SPARSE_VEC` read is a `memcpy` into the
    /// scratch buffers, not a fresh heap allocation).
    pub(crate) fn read_into(&self, i: usize, slot: &mut Value) {
        match self {
            ColumnChunk::Int { data, validity } => {
                *slot = if validity.is_valid(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                };
            }
            ColumnChunk::Double {
                data,
                validity,
                int_rows,
            } => {
                *slot = if !validity.is_valid(i) {
                    Value::Null
                } else if let Ok(pos) = int_rows.binary_search_by_key(&(i as u32), |&(s, _)| s) {
                    Value::Int(int_rows[pos].1)
                } else {
                    Value::Double(data[i])
                };
            }
            ColumnChunk::Text {
                bytes,
                offsets,
                validity,
            } => {
                if !validity.is_valid(i) {
                    *slot = Value::Null;
                    return;
                }
                let piece = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                let text = std::str::from_utf8(piece).unwrap_or_default();
                if let Value::Text(s) = slot {
                    s.clear();
                    s.push_str(text);
                } else {
                    *slot = Value::Text(text.to_string());
                }
            }
            ColumnChunk::Dense {
                data,
                offsets,
                validity,
            } => {
                if !validity.is_valid(i) {
                    *slot = Value::Null;
                    return;
                }
                let entries = &data[offsets[i] as usize..offsets[i + 1] as usize];
                if let Value::DenseVec(dv) = slot {
                    dv.clear();
                    dv.extend_from_slice(entries);
                } else {
                    *slot = Value::DenseVec(entries.to_vec());
                }
            }
            ColumnChunk::Sparse {
                indices,
                values,
                offsets,
                validity,
            } => {
                if !validity.is_valid(i) {
                    *slot = Value::Null;
                    return;
                }
                let range = offsets[i] as usize..offsets[i + 1] as usize;
                let (indices, values) = (&indices[range.clone()], &values[range]);
                // The entries were validated (sorted, unique) on insert, so
                // the unchecked paths reproduce them as stored.
                if let Value::SparseVec(sv) = slot {
                    sv.refill_sorted(indices, values);
                } else {
                    *slot = Value::SparseVec(SparseVector::from_sorted(
                        indices.to_vec(),
                        values.to_vec(),
                    ));
                }
            }
            ColumnChunk::Sequence { rows } => {
                slot.clone_from(&rows[i]);
            }
        }
    }

    /// The contiguous `f64` payload of a `DENSE_VEC` chunk (all rows' entries
    /// back to back), or `None` for other layouts. This is the slice the
    /// scan-throughput bench and future SIMD kernels stream.
    pub fn dense_data(&self) -> Option<&[f64]> {
        match self {
            ColumnChunk::Dense { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Append this chunk's binary encoding (tag, row count, layout payload).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColumnChunk::Int { data, validity } => {
                out.push(CHUNK_TAG_INT);
                push_le_array(out, data, i64::to_le_bytes);
                validity.encode(out);
            }
            ColumnChunk::Double {
                data,
                validity,
                int_rows,
            } => {
                out.push(CHUNK_TAG_DOUBLE);
                push_le_array(out, data, f64::to_le_bytes);
                validity.encode(out);
                push_le_array(out, int_rows, |(slot, v)| {
                    let mut pair = [0u8; 12];
                    pair[..4].copy_from_slice(&slot.to_le_bytes());
                    pair[4..].copy_from_slice(&v.to_le_bytes());
                    pair
                });
            }
            ColumnChunk::Text {
                bytes,
                offsets,
                validity,
            } => {
                out.push(CHUNK_TAG_TEXT);
                out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                out.extend_from_slice(bytes);
                push_le_array(out, offsets, u32::to_le_bytes);
                validity.encode(out);
            }
            ColumnChunk::Dense {
                data,
                offsets,
                validity,
            } => {
                out.push(CHUNK_TAG_DENSE);
                push_le_array(out, data, f64::to_le_bytes);
                push_le_array(out, offsets, u32::to_le_bytes);
                validity.encode(out);
            }
            ColumnChunk::Sparse {
                indices,
                values,
                offsets,
                validity,
            } => {
                out.push(CHUNK_TAG_SPARSE);
                push_le_array(out, indices, u32::to_le_bytes);
                push_le_array(out, values, f64::to_le_bytes);
                push_le_array(out, offsets, u32::to_le_bytes);
                validity.encode(out);
            }
            ColumnChunk::Sequence { rows } => {
                out.push(CHUNK_TAG_SEQUENCE);
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for row in rows {
                    push_value(out, row);
                }
            }
        }
    }

    /// Decode one chunk (inverse of [`ColumnChunk::encode`]), validating
    /// offsets so a corrupt file can never cause out-of-bounds reads later.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let check_offsets = |offsets: &[u32], rows: usize, payload: usize| {
            if offsets.len() != rows + 1
                || offsets.first() != Some(&0)
                || offsets.last().copied().unwrap_or(1) as usize != payload
                || offsets.windows(2).any(|w| w[0] > w[1])
            {
                return Err(corrupt("chunk offsets are inconsistent"));
            }
            Ok(())
        };
        match r.u8()? {
            CHUNK_TAG_INT => {
                let data = read_le_array(r, i64::from_le_bytes)?;
                let validity = ValidityBitmap::decode(r)?;
                if validity.len() != data.len() {
                    return Err(corrupt("int chunk validity length mismatch"));
                }
                Ok(ColumnChunk::Int { data, validity })
            }
            CHUNK_TAG_DOUBLE => {
                let data = read_le_array(r, f64::from_le_bytes)?;
                let validity = ValidityBitmap::decode(r)?;
                if validity.len() != data.len() {
                    return Err(corrupt("double chunk validity length mismatch"));
                }
                let int_rows = read_le_array(r, |pair: [u8; 12]| {
                    let (slot, v) = pair.split_at(4);
                    (
                        u32::from_le_bytes(slot.try_into().expect("4B")),
                        i64::from_le_bytes(v.try_into().expect("8B")),
                    )
                })?;
                if int_rows
                    .iter()
                    .any(|&(slot, _)| slot as usize >= data.len())
                {
                    return Err(corrupt("double chunk int-row slot out of range"));
                }
                if int_rows.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err(corrupt("double chunk int-rows are not sorted"));
                }
                Ok(ColumnChunk::Double {
                    data,
                    validity,
                    int_rows,
                })
            }
            CHUNK_TAG_TEXT => {
                let len = r.len_prefix(1)?;
                let bytes = r.take(len)?.to_vec();
                let offsets = read_le_array(r, u32::from_le_bytes)?;
                let validity = ValidityBitmap::decode(r)?;
                check_offsets(&offsets, validity.len(), bytes.len())?;
                Ok(ColumnChunk::Text {
                    bytes,
                    offsets,
                    validity,
                })
            }
            CHUNK_TAG_DENSE => {
                let data = read_le_array(r, f64::from_le_bytes)?;
                let offsets = read_le_array(r, u32::from_le_bytes)?;
                let validity = ValidityBitmap::decode(r)?;
                check_offsets(&offsets, validity.len(), data.len())?;
                Ok(ColumnChunk::Dense {
                    data,
                    offsets,
                    validity,
                })
            }
            CHUNK_TAG_SPARSE => {
                let indices = read_le_array(r, u32::from_le_bytes)?;
                let values = read_le_array(r, f64::from_le_bytes)?;
                let offsets = read_le_array(r, u32::from_le_bytes)?;
                if indices.len() != values.len() {
                    return Err(corrupt("sparse chunk index/value length mismatch"));
                }
                let validity = ValidityBitmap::decode(r)?;
                check_offsets(&offsets, validity.len(), indices.len())?;
                Ok(ColumnChunk::Sparse {
                    indices,
                    values,
                    offsets,
                    validity,
                })
            }
            CHUNK_TAG_SEQUENCE => {
                let n = r.len_prefix(1)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = read_value(r)?;
                    if !matches!(v, Value::Sequence(_) | Value::Null) {
                        return Err(corrupt("sequence chunk holds a non-sequence value"));
                    }
                    rows.push(v);
                }
                Ok(ColumnChunk::Sequence { rows })
            }
            tag => Err(corrupt(format!("unknown column-chunk tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_tracks_validity_across_word_boundaries() {
        let mut v = ValidityBitmap::new();
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 130);
        for i in 0..130 {
            assert_eq!(v.is_valid(i), i % 3 != 0, "bit {i}");
        }
        assert!(!v.is_valid(500));
        assert_eq!(v.count_valid(), (0..130).filter(|i| i % 3 != 0).count());
    }

    fn roundtrip(chunk: &ColumnChunk) {
        let mut bytes = Vec::new();
        chunk.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = ColumnChunk::decode(&mut r).unwrap();
        r.finish().unwrap();
        // Compare re-encoded bytes rather than values: the encoding captures
        // f64 bit patterns, so this treats NaN == NaN (bitwise) while
        // remaining exact for everything else.
        let mut back_bytes = Vec::new();
        back.encode(&mut back_bytes);
        assert_eq!(back_bytes, bytes);
    }

    #[test]
    fn chunks_roundtrip_with_nulls() {
        for dtype in [
            DataType::Int,
            DataType::Double,
            DataType::Text,
            DataType::DenseVec,
            DataType::SparseVec,
            DataType::Sequence,
        ] {
            let mut chunk = ColumnChunk::empty(dtype);
            let values: Vec<Value> = match dtype {
                DataType::Int => vec![Value::Int(-3), Value::Null, Value::Int(7)],
                DataType::Double => vec![
                    Value::Double(1.5),
                    Value::Null,
                    Value::Int(i64::MAX - 1),
                    Value::Double(f64::NAN),
                ],
                DataType::Text => vec![Value::from("a,b;c"), Value::Null, Value::from("")],
                DataType::DenseVec => vec![
                    Value::from(vec![1.0, 2.0, 3.0]),
                    Value::Null,
                    Value::from(Vec::<f64>::new()),
                    Value::from(vec![-0.5]),
                ],
                DataType::SparseVec => vec![
                    Value::SparseVec(SparseVector::from_pairs(vec![(2, 1.0), (9, -2.0)])),
                    Value::Null,
                    Value::SparseVec(SparseVector::new()),
                ],
                DataType::Sequence => vec![
                    Value::Sequence(vec![(SparseVector::from_pairs(vec![(0, 1.0)]), 3)]),
                    Value::Null,
                ],
            };
            for v in &values {
                chunk.push(v).unwrap();
            }
            assert_eq!(chunk.len(), values.len());
            roundtrip(&chunk);
            // Materialization reproduces the inserted values exactly
            // (NaN compares unequal; check bit patterns through Debug).
            let mut slot = Value::Null;
            for (i, expected) in values.iter().enumerate() {
                chunk.read_into(i, &mut slot);
                match (expected, &slot) {
                    (Value::Double(a), Value::Double(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "row {i}")
                    }
                    _ => assert_eq!(expected, &slot, "row {i}"),
                }
            }
        }
    }

    #[test]
    fn double_chunk_preserves_integer_values_exactly() {
        let mut chunk = ColumnChunk::empty(DataType::Double);
        // 2^53 + 1 is not representable as f64: the side table must keep it.
        let big = (1i64 << 53) + 1;
        chunk.push(&Value::Int(big)).unwrap();
        chunk.push(&Value::Double(0.5)).unwrap();
        let mut slot = Value::Null;
        chunk.read_into(0, &mut slot);
        assert_eq!(slot, Value::Int(big));
        chunk.read_into(1, &mut slot);
        assert_eq!(slot, Value::Double(0.5));
    }

    #[test]
    fn read_into_reuses_dense_allocation() {
        let mut chunk = ColumnChunk::empty(DataType::DenseVec);
        chunk.push(&Value::from(vec![1.0, 2.0])).unwrap();
        chunk.push(&Value::from(vec![3.0, 4.0])).unwrap();
        let mut slot = Value::from(vec![0.0, 0.0]);
        let before = match &slot {
            Value::DenseVec(v) => v.as_slice().as_ptr(),
            _ => unreachable!(),
        };
        chunk.read_into(1, &mut slot);
        let after = match &slot {
            Value::DenseVec(v) => {
                assert_eq!(v.as_slice(), &[3.0, 4.0]);
                v.as_slice().as_ptr()
            }
            _ => panic!("expected a dense vector"),
        };
        assert_eq!(before, after, "same-size read must reuse the buffer");
    }

    #[test]
    fn read_into_reuses_both_sparse_allocations() {
        let mut chunk = ColumnChunk::empty(DataType::SparseVec);
        for pairs in [
            vec![(1, 1.0), (4, 2.0), (9, 3.0)],
            vec![(0, -1.0), (7, 5.0)],
        ] {
            chunk
                .push(&Value::SparseVec(SparseVector::from_pairs(pairs)))
                .unwrap();
        }
        let buffers = |slot: &Value| match slot {
            Value::SparseVec(v) => (v.indices().as_ptr(), v.values().as_ptr()),
            _ => panic!("expected a sparse vector"),
        };
        let mut slot = Value::Null;
        chunk.read_into(0, &mut slot);
        let warm = buffers(&slot);
        // A second read into the warm slot (no larger than the first) must
        // land in the same two buffers.
        chunk.read_into(1, &mut slot);
        assert_eq!(buffers(&slot), warm, "both buffers must be reused");
        assert_eq!(
            slot,
            Value::SparseVec(SparseVector::from_pairs(vec![(0, -1.0), (7, 5.0)]))
        );
        chunk.read_into(0, &mut slot);
        assert_eq!(buffers(&slot), warm, "capacity was kept across the refill");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut chunk = ColumnChunk::empty(DataType::Int);
        assert!(chunk.push(&Value::from("nope")).is_err());
    }

    #[test]
    fn corrupt_offsets_are_rejected() {
        let mut chunk = ColumnChunk::empty(DataType::Text);
        chunk.push(&Value::from("hello")).unwrap();
        let mut bytes = Vec::new();
        chunk.encode(&mut bytes);
        // Flip a byte inside the offsets array; decoding must error, not
        // produce a chunk whose reads go out of bounds.
        let len = bytes.len();
        bytes[len - 20] ^= 0xff;
        let mut r = Reader::new(&bytes);
        let result = ColumnChunk::decode(&mut r).and_then(|_| r.finish());
        assert!(result.is_err());
    }
}
