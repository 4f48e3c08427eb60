//! Sparse vectors stored as sorted (index, value) pairs.
//!
//! The DBLife, CoNLL and DBLP datasets of Table 1 are "in sparse-vector
//! format"; sparse updates are also what makes the Hogwild!-style NoLock
//! parallelism effective (conflicting writes are rare when each example
//! touches few coordinates).
//!
//! [`SparseVector`] is the owned, validated storage of a sparse cell; every
//! kernel over it runs on its borrowed [`FeatureVectorRef`] view.

use crate::FeatureVectorRef;

/// Why a pre-sorted index/value pair was rejected by
/// [`SparseVector::try_from_sorted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseLayoutError {
    /// The index and value arrays differ in length.
    LengthMismatch {
        /// Number of indices supplied.
        indices: usize,
        /// Number of values supplied.
        values: usize,
    },
    /// Indices are not strictly increasing at the given position: entry
    /// `position` does not exceed entry `position - 1`.
    NotStrictlyIncreasing {
        /// First offending position (the later of the two entries).
        position: usize,
    },
}

impl std::fmt::Display for SparseLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseLayoutError::LengthMismatch { indices, values } => {
                write!(f, "sparse vector has {indices} indices but {values} values")
            }
            SparseLayoutError::NotStrictlyIncreasing { position } => write!(
                f,
                "sparse indices are not strictly increasing at entry {position}"
            ),
        }
    }
}

impl std::error::Error for SparseLayoutError {}

/// A sparse `f64` vector: strictly increasing indices with their values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Empty sparse vector.
    pub fn new() -> Self {
        SparseVector::default()
    }

    /// Build from (index, value) pairs. Pairs are sorted and duplicate
    /// indices are summed, so any insertion order is accepted.
    ///
    /// This is the one place sort-and-merge semantics live; the result is
    /// handed to [`SparseVector::try_from_sorted`] so the layout invariant is
    /// asserted in every build profile.
    pub fn from_pairs(mut pairs: Vec<(usize, f64)>) -> Self {
        pairs.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i as u32 {
                    *values.last_mut().expect("values tracks indices") += v;
                    continue;
                }
            }
            indices.push(i as u32);
            values.push(v);
        }
        SparseVector::try_from_sorted(indices, values)
            .expect("sorted and merged pairs form a valid sparse layout")
    }

    /// Build from parallel index/value arrays that are already sorted by
    /// strictly increasing index. Panics in debug builds if they are not.
    ///
    /// In release builds the layout is *not* checked; ingest paths that
    /// accept external input must use [`SparseVector::try_from_sorted`] so a
    /// malformed row cannot silently corrupt every later dot product.
    pub fn from_sorted(indices: Vec<u32>, values: Vec<f64>) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        SparseVector { indices, values }
    }

    /// Checked variant of [`SparseVector::from_sorted`]: validates the layout
    /// in every build profile and reports what is wrong instead of debug-only
    /// panicking. Binary-search `get` and merge-style kernels assume strictly
    /// increasing indices, so this is the constructor ingest code must use.
    pub fn try_from_sorted(indices: Vec<u32>, values: Vec<f64>) -> Result<Self, SparseLayoutError> {
        if indices.len() != values.len() {
            return Err(SparseLayoutError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        if let Some(position) = indices.windows(2).position(|w| w[0] >= w[1]) {
            return Err(SparseLayoutError::NotStrictlyIncreasing {
                position: position + 1,
            });
        }
        Ok(SparseVector { indices, values })
    }

    /// Replace the contents with parallel index/value arrays that are already
    /// sorted by strictly increasing index, keeping both buffers' allocations.
    /// Same contract as [`SparseVector::from_sorted`]: checked in debug builds
    /// only, so this is for re-reading entries that were validated on ingest.
    pub fn refill_sorted(&mut self, indices: &[u32], values: &[f64]) {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.values.clear();
        self.values.extend_from_slice(values);
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector stores no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Logical dimension: one past the largest stored index (0 when empty).
    pub fn dimension(&self) -> usize {
        FeatureVectorRef::from(self).dimension()
    }

    /// Stored indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate over (index, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Value at logical index `i` (0.0 if not stored).
    pub fn get(&self, i: usize) -> f64 {
        FeatureVectorRef::from(self).get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[2.0, 1.5]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dimension_of_empty_is_zero() {
        assert_eq!(SparseVector::new().dimension(), 0);
        assert!(SparseVector::new().is_empty());
    }

    #[test]
    fn get_returns_stored_or_zero() {
        let v = SparseVector::from_pairs(vec![(2, 5.0)]);
        assert_eq!(v.get(2), 5.0);
        assert_eq!(v.get(0), 0.0);
        assert_eq!(v.get(100), 0.0);
    }

    #[test]
    fn from_sorted_accepts_valid_input() {
        let v = SparseVector::from_sorted(vec![0, 2], vec![1.0, 2.0]);
        assert_eq!(v.get(2), 2.0);
    }

    #[test]
    fn try_from_sorted_accepts_valid_and_empty_input() {
        let v = SparseVector::try_from_sorted(vec![0, 2, 9], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(9), 3.0);
        assert!(SparseVector::try_from_sorted(vec![], vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn try_from_sorted_rejects_malformed_layouts() {
        assert_eq!(
            SparseVector::try_from_sorted(vec![0, 1], vec![1.0]),
            Err(SparseLayoutError::LengthMismatch {
                indices: 2,
                values: 1
            })
        );
        assert_eq!(
            SparseVector::try_from_sorted(vec![0, 2, 1], vec![1.0, 2.0, 3.0]),
            Err(SparseLayoutError::NotStrictlyIncreasing { position: 2 })
        );
        // Duplicate indices are also rejected: "sorted" means strictly so.
        let dup = SparseVector::try_from_sorted(vec![3, 3], vec![1.0, 2.0]);
        assert_eq!(
            dup,
            Err(SparseLayoutError::NotStrictlyIncreasing { position: 1 })
        );
        assert!(dup.unwrap_err().to_string().contains("strictly increasing"));
    }
}
