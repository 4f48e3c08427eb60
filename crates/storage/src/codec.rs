//! Binary encoding of schemas, values and rows for the durability layer.
//!
//! The WAL and the catalog snapshot both persist tables, so they share one
//! codec. The format is deliberately simple and self-describing: every value
//! starts with a one-byte type tag, integers are little-endian, `f64`s are
//! stored as their IEEE-754 bit patterns (so `NaN`s round-trip bitwise), and
//! variable-length payloads are length-prefixed. Decoding is defensive: a
//! corrupt length can never request an allocation larger than the remaining
//! input, and unknown tags are reported as corruption rather than skipped.

use bismarck_linalg::SparseVector;

use crate::error::StorageError;
use crate::schema::{Column, DataType, Schema};
use crate::value::Value;

/// Incremental little-endian reader with bounds-checked primitives: the one
/// decoder every durable payload (WAL records, snapshots, segments, training
/// checkpoints) is read with. Running off the end of the input, or a length
/// prefix larger than what is left, is [`StorageError::Corrupt`].
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

impl<'a> Reader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("record is truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// The next 4 bytes as a `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// The next 8 bytes as a `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// The next 8 bytes as an `i64`.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// The next 8 bytes as the bit pattern of an `f64` (NaNs survive).
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` length prefix, validated against the remaining input assuming
    /// each counted element occupies at least `min_element_bytes`.
    pub fn len_prefix(&mut self, min_element_bytes: usize) -> Result<usize, StorageError> {
        let len = self.u64()? as usize;
        if len > self.remaining() / min_element_bytes.max(1) {
            return Err(corrupt(format!(
                "length prefix {len} exceeds the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// A `u64` length prefix and that many bytes of UTF-8.
    pub fn string(&mut self) -> Result<String, StorageError> {
        let len = self.len_prefix(1)?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| corrupt("string is not UTF-8"))
    }

    /// Error unless the whole input was consumed.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} trailing bytes after the last field",
                self.bytes.len() - self.pos
            )))
        }
    }
}

pub(crate) fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_sparse(out: &mut Vec<u8>, v: &SparseVector) {
    out.extend_from_slice(&(v.nnz() as u64).to_le_bytes());
    for (i, x) in v.iter() {
        out.extend_from_slice(&(i as u32).to_le_bytes());
        push_f64(out, x);
    }
}

fn read_sparse(r: &mut Reader<'_>) -> Result<SparseVector, StorageError> {
    let nnz = r.len_prefix(12)?;
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.u32()?);
        values.push(r.f64()?);
    }
    SparseVector::try_from_sorted(indices, values)
        .map_err(|e| corrupt(format!("sparse vector layout: {e}")))
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_DENSE: u8 = 4;
const TAG_SPARSE: u8 = 5;
const TAG_SEQUENCE: u8 = 6;

/// Append the binary encoding of one value.
pub(crate) fn push_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Double(v) => {
            out.push(TAG_DOUBLE);
            push_f64(out, *v);
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            push_string(out, s);
        }
        Value::DenseVec(v) => {
            out.push(TAG_DENSE);
            out.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for &x in v.as_slice() {
                push_f64(out, x);
            }
        }
        Value::SparseVec(v) => {
            out.push(TAG_SPARSE);
            push_sparse(out, v);
        }
        Value::Sequence(seq) => {
            out.push(TAG_SEQUENCE);
            out.extend_from_slice(&(seq.len() as u64).to_le_bytes());
            for (features, label) in seq {
                push_sparse(out, features);
                out.extend_from_slice(&label.to_le_bytes());
            }
        }
    }
}

/// Decode one value (inverse of [`push_value`]).
pub(crate) fn read_value(r: &mut Reader<'_>) -> Result<Value, StorageError> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_DOUBLE => Ok(Value::Double(r.f64()?)),
        TAG_TEXT => Ok(Value::Text(r.string()?)),
        TAG_DENSE => {
            let len = r.len_prefix(8)?;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(r.f64()?);
            }
            Ok(Value::DenseVec(values))
        }
        TAG_SPARSE => Ok(Value::SparseVec(read_sparse(r)?)),
        TAG_SEQUENCE => {
            let len = r.len_prefix(12)?;
            let mut seq = Vec::with_capacity(len);
            for _ in 0..len {
                let features = read_sparse(r)?;
                let label = r.u32()?;
                seq.push((features, label));
            }
            Ok(Value::Sequence(seq))
        }
        tag => Err(corrupt(format!("unknown value tag {tag}"))),
    }
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::DenseVec => 3,
        DataType::SparseVec => 4,
        DataType::Sequence => 5,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType, StorageError> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::DenseVec,
        4 => DataType::SparseVec,
        5 => DataType::Sequence,
        other => return Err(corrupt(format!("unknown data-type tag {other}"))),
    })
}

/// Append the binary encoding of a schema.
pub(crate) fn push_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.arity() as u64).to_le_bytes());
    for column in schema.columns() {
        push_string(out, &column.name);
        out.push(dtype_tag(column.dtype));
        out.push(column.nullable as u8);
    }
}

/// Decode a schema (inverse of [`push_schema`]).
pub(crate) fn read_schema(r: &mut Reader<'_>) -> Result<Schema, StorageError> {
    let arity = r.len_prefix(10)?;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.string()?;
        let dtype = dtype_from_tag(r.u8()?)?;
        let nullable = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(corrupt(format!("bad nullability byte {other}"))),
        };
        columns.push(if nullable {
            Column::nullable(name, dtype)
        } else {
            Column::new(name, dtype)
        });
    }
    Schema::new(columns)
}

/// Append the binary encoding of a row of values.
pub(crate) fn push_row(out: &mut Vec<u8>, row: &[Value]) {
    out.extend_from_slice(&(row.len() as u64).to_le_bytes());
    for value in row {
        push_value(out, value);
    }
}

/// Decode a row of values (inverse of [`push_row`]).
pub(crate) fn read_row(r: &mut Reader<'_>) -> Result<Vec<Value>, StorageError> {
    let arity = r.len_prefix(1)?;
    let mut row = Vec::with_capacity(arity);
    for _ in 0..arity {
        row.push(read_value(r)?);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(value: Value) {
        let mut bytes = Vec::new();
        push_value(&mut bytes, &value);
        let mut r = Reader::new(&bytes);
        let back = read_value(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn all_value_variants_roundtrip() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Double(std::f64::consts::PI));
        roundtrip_value(Value::Text("héllo wörld".into()));
        roundtrip_value(Value::from(vec![1.0, -2.5, f64::MIN_POSITIVE]));
        roundtrip_value(Value::SparseVec(SparseVector::from_pairs(vec![
            (3, 1.5),
            (17, -0.25),
        ])));
        roundtrip_value(Value::Sequence(vec![
            (SparseVector::from_pairs(vec![(0, 1.0)]), 2),
            (SparseVector::new(), 0),
        ]));
    }

    #[test]
    fn nan_doubles_roundtrip_bitwise() {
        let mut bytes = Vec::new();
        push_value(&mut bytes, &Value::Double(f64::NAN));
        let mut r = Reader::new(&bytes);
        match read_value(&mut r).unwrap() {
            Value::Double(v) => assert_eq!(v.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected Double, got {other:?}"),
        }
    }

    #[test]
    fn schema_roundtrips() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("vec", DataType::DenseVec),
            Column::new("seq", DataType::Sequence),
        ])
        .unwrap();
        let mut bytes = Vec::new();
        push_schema(&mut bytes, &schema);
        let mut r = Reader::new(&bytes);
        let back = read_schema(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, schema);
    }

    #[test]
    fn rows_roundtrip() {
        let row = vec![Value::Int(7), Value::Null, Value::Text("x".into())];
        let mut bytes = Vec::new();
        push_row(&mut bytes, &row);
        let mut r = Reader::new(&bytes);
        assert_eq!(read_row(&mut r).unwrap(), row);
    }

    #[test]
    fn corrupt_inputs_error_instead_of_allocating() {
        // A length prefix far larger than the input must be rejected before
        // any allocation happens.
        let mut bytes = Vec::new();
        bytes.push(TAG_DENSE);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_value(&mut Reader::new(&bytes)).is_err());

        // Unknown tags are corruption.
        assert!(read_value(&mut Reader::new(&[99])).is_err());

        // Truncated payloads are corruption.
        let mut ok = Vec::new();
        push_value(&mut ok, &Value::Text("hello".into()));
        assert!(read_value(&mut Reader::new(&ok[..ok.len() - 1])).is_err());
    }
}
