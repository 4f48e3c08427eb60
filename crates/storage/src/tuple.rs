//! Tuples: rows of values plus typed accessors used by the analytics layer.

use bismarck_linalg::{FeatureVectorRef, SparseVector};

use crate::value::Value;

/// A row of column values.
///
/// The analytics layer reads tuples through typed accessors keyed by column
/// position; the training front-ends translate column *names* to positions
/// once per query, so the per-tuple path never does string lookups.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Double at position `i` (integers are coerced).
    pub fn get_double(&self, i: usize) -> Option<f64> {
        self.values.get(i).and_then(Value::as_double)
    }

    /// Integer at position `i` (doubles are truncated).
    pub fn get_int(&self, i: usize) -> Option<i64> {
        self.values.get(i).and_then(Value::as_int)
    }

    /// Zero-copy feature-vector view (dense or sparse) at position `i`.
    ///
    /// The view borrows the stored payload directly, so reading a feature
    /// column on the per-tuple training path performs no allocation.
    #[inline]
    pub fn feature_view(&self, i: usize) -> Option<FeatureVectorRef<'_>> {
        self.values.get(i).and_then(Value::feature_view)
    }

    /// Label sequence at position `i`.
    pub fn get_sequence(&self, i: usize) -> Option<&[(SparseVector, u32)]> {
        self.values.get(i).and_then(Value::as_sequence)
    }

    /// Approximate in-memory footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.values.iter().map(Value::approx_bytes).sum()
    }

    /// Mutable access for scratch-tuple reuse on the columnar scan path.
    pub(crate) fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bismarck_linalg::SparseVector;

    fn example() -> Tuple {
        Tuple::new(vec![
            Value::Int(7),
            Value::from(vec![1.0, 2.0]),
            Value::Double(-1.0),
            Value::from("paper"),
            Value::from(SparseVector::from_pairs(vec![(3, 1.0)])),
        ])
    }

    #[test]
    fn typed_accessors() {
        let t = example();
        assert_eq!(t.values().len(), 5);
        assert_eq!(t.get_int(0), Some(7));
        assert_eq!(t.get_double(2), Some(-1.0));
        assert_eq!(t.get(3).and_then(Value::as_text), Some("paper"));
        assert_eq!(t.feature_view(1).unwrap().dimension(), 2);
        assert_eq!(t.feature_view(4).unwrap().nnz(), 1);
        assert!(t.get_sequence(0).is_none());
    }

    #[test]
    fn out_of_range_returns_none() {
        let t = example();
        assert!(t.get(9).is_none());
        assert!(t.get_double(9).is_none());
    }

    #[test]
    fn approx_bytes_sums_values() {
        let t = example();
        let total: usize = t.values().iter().map(Value::approx_bytes).sum();
        assert_eq!(t.approx_bytes(), total);
    }
}
