//! Column values.
//!
//! The training tables of the paper (e.g. `LabeledPapers(id, vec, label)`)
//! store a key, a feature vector column and a label column. We model that
//! directly: values are NULL, 64-bit integers, doubles, text, or a dense /
//! sparse array of doubles — the "array of floats" column type the MADlib
//! interface expects.

use bismarck_linalg::{FeatureVectorRef, SparseVector};

use crate::schema::DataType;

/// A single column value inside a [`crate::Tuple`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 text.
    Text(String),
    /// Dense array of doubles (feature vector).
    DenseVec(Vec<f64>),
    /// Sparse array of doubles (feature vector in index:value form).
    SparseVec(SparseVector),
    /// A sequence of (token-feature, label) pairs for structured-prediction
    /// tasks; each element stores the per-position sparse feature vector and
    /// its integer label. This is how CoNLL-style chunking rows are stored.
    Sequence(Vec<(SparseVector, u32)>),
}

impl Value {
    /// The declared [`DataType`] this value inhabits, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::DenseVec(_) => Some(DataType::DenseVec),
            Value::SparseVec(_) => Some(DataType::SparseVec),
            Value::Sequence(_) => Some(DataType::Sequence),
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as `f64`, coercing integers; `None` otherwise.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Interpret as `i64`, truncating doubles; `None` otherwise.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Double(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Borrow as text, `None` otherwise.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a zero-copy feature-vector view (dense or sparse).
    ///
    /// The training hot path reads every feature column once per tuple per
    /// epoch, so the view borrows the cell and never heap-allocates. A
    /// caller that needs the vector to outlive the tuple clones the `Value`.
    #[inline]
    pub fn feature_view(&self) -> Option<FeatureVectorRef<'_>> {
        match self {
            Value::DenseVec(v) => Some(FeatureVectorRef::Dense(v)),
            Value::SparseVec(v) => Some(FeatureVectorRef::from(v)),
            _ => None,
        }
    }

    /// Borrow as a label sequence, `None` otherwise.
    pub(crate) fn as_sequence(&self) -> Option<&[(SparseVector, u32)]> {
        match self {
            Value::Sequence(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used for Table 1 style
    /// dataset statistics.
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Text(s) => s.len() + 8,
            Value::DenseVec(v) => v.len() * 8 + 16,
            Value::SparseVec(v) => v.nnz() * 12 + 16,
            Value::Sequence(s) => s.iter().map(|(f, _)| f.nnz() * 12 + 20).sum::<usize>() + 16,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<SparseVector> for Value {
    fn from(v: SparseVector) -> Self {
        Value::SparseVec(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::DenseVec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_mapping() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Double(1.0).data_type(), Some(DataType::Double));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Text));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_double(), Some(3.0));
        assert_eq!(Value::Double(2.7).as_int(), Some(2));
        assert_eq!(Value::from("x").as_double(), None);
    }

    #[test]
    fn feature_view_borrows_both_layouts() {
        let v = Value::from(vec![1.0, 2.0]);
        let fv = v.feature_view().unwrap();
        assert_eq!(fv.dimension(), 2);
        assert!((fv.dot(&[1.0, 1.0]) - 3.0).abs() < 1e-12);
        let sv = Value::from(SparseVector::from_pairs(vec![(7, 1.0)]));
        assert_eq!(sv.feature_view().unwrap().dimension(), 8);
        assert!(Value::Int(3).feature_view().is_none());
        // The views borrow the cells' own buffers: no copy is made.
        match (&v, v.feature_view().unwrap()) {
            (Value::DenseVec(cell), FeatureVectorRef::Dense(view)) => {
                assert!(std::ptr::eq(cell.as_slice(), view))
            }
            other => panic!("dense cell gave {other:?}"),
        }
        match (&sv, sv.feature_view().unwrap()) {
            (Value::SparseVec(cell), FeatureVectorRef::Sparse { indices, values }) => {
                assert!(std::ptr::eq(cell.indices(), indices));
                assert!(std::ptr::eq(cell.values(), values));
            }
            other => panic!("sparse cell gave {other:?}"),
        }
    }

    #[test]
    fn sequence_access() {
        let seq = Value::Sequence(vec![(SparseVector::from_pairs(vec![(0, 1.0)]), 2)]);
        assert_eq!(seq.as_sequence().unwrap().len(), 1);
        assert!(Value::Int(1).as_sequence().is_none());
    }

    #[test]
    fn approx_bytes_monotone_in_payload() {
        let small = Value::from(vec![1.0; 2]);
        let big = Value::from(vec![1.0; 100]);
        assert!(big.approx_bytes() > small.approx_bytes());
        assert!(Value::from("hello").approx_bytes() > Value::Null.approx_bytes());
    }
}
