//! The vector kernels every Bismarck pass runs on.
//!
//! The paper's transition functions are written in terms of a handful of
//! kernels — `Dot_Product`, `Scale_And_Add`, `Sigmoid` (Figure 4) — applied to
//! either dense feature vectors (e.g. the Forest dataset) or sparse ones
//! (e.g. DBLife, CoNLL). This crate holds exactly one implementation of each:
//!
//! * [`FeatureVectorRef`], the borrowed view of a stored feature vector, is
//!   where the dense and sparse `Dot_Product` / `Scale_And_Add` are written;
//! * [`ops`] holds the unrolled dense slice kernels the view's dense arm (and
//!   the dense model stores) call, and the scalar link functions;
//! * [`projection`] holds the proximal operators of Appendix A that a task
//!   uses: the simplex projection and soft-thresholding;
//! * [`SparseVector`] is the validated owned storage of a sparse cell; its
//!   arithmetic goes through the view.
//!
//! Everything here is deliberately dependency-free and allocation-free on the
//! training path: the transition function runs once per tuple per epoch, so
//! it is the hot loop of the whole system.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ops;
pub mod projection;
mod sparse;

pub use crate::ops::{log1p_exp, log_sum_exp, sigmoid};
pub use crate::projection::project_simplex;
pub use crate::sparse::{SparseLayoutError, SparseVector};

/// A borrowed feature vector: the zero-copy view the per-tuple hot path runs
/// on.
///
/// Storage hands out `FeatureVectorRef`s straight from column payloads
/// ([`Dense`](FeatureVectorRef::Dense) borrows the dense slice,
/// [`Sparse`](FeatureVectorRef::Sparse) borrows the parallel index/value
/// slices), so a gradient step performs **no** heap allocation: the paper's
/// `Dot_Product` / `Scale_And_Add` kernels read directly from the stored
/// tuple. A vector that must outlive its tuple is kept as a cloned cell
/// (a `Value` in `bismarck-storage`), never as a second vector type.
///
/// The view is `Copy` (two words), so passing it by value is free, and both
/// layouts run through one kernel API:
///
/// ```
/// use bismarck_linalg::FeatureVectorRef;
///
/// let dense = FeatureVectorRef::Dense(&[2.0, 0.0, -1.0]);
/// let sparse = FeatureVectorRef::Sparse {
///     indices: &[0, 2],
///     values: &[2.0, -1.0],
/// };
/// let mut w = vec![1.0, 5.0, 3.0];
///
/// assert_eq!(dense.dot(&w), sparse.dot(&w)); // same logical vector
/// sparse.scale_and_add_into(&mut w, 2.0); // w += 2 * x
/// assert_eq!(w, vec![5.0, 5.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureVectorRef<'a> {
    /// Dense feature values, index `i` holds feature `i`.
    Dense(&'a [f64]),
    /// Sparse feature values as parallel sorted index/value slices.
    Sparse {
        /// Strictly increasing stored indices.
        indices: &'a [u32],
        /// Values parallel to `indices`.
        values: &'a [f64],
    },
}

impl<'a> FeatureVectorRef<'a> {
    /// Dot product with a dense model slice (`Dot_Product` in Figure 4).
    /// Sparse indices beyond `w.len()` contribute zero.
    #[inline]
    pub fn dot(&self, w: &[f64]) -> f64 {
        match *self {
            FeatureVectorRef::Dense(x) => ops::dot(x, w),
            FeatureVectorRef::Sparse { indices, values } => {
                let mut acc = 0.0;
                for (&i, &v) in indices.iter().zip(values) {
                    if let Some(&wi) = w.get(i as usize) {
                        acc += wi * v;
                    }
                }
                acc
            }
        }
    }

    /// `w += c * x`, the `Scale_And_Add` kernel from Figure 4. Sparse indices
    /// beyond `w.len()` are ignored.
    #[inline]
    pub fn scale_and_add_into(&self, w: &mut [f64], c: f64) {
        match *self {
            FeatureVectorRef::Dense(x) => ops::scale_and_add(w, x, c),
            FeatureVectorRef::Sparse { indices, values } => {
                for (&i, &v) in indices.iter().zip(values) {
                    if let Some(slot) = w.get_mut(i as usize) {
                        *slot += c * v;
                    }
                }
            }
        }
    }

    /// Number of logical dimensions (highest index + 1 for sparse views).
    pub fn dimension(&self) -> usize {
        match *self {
            FeatureVectorRef::Dense(x) => x.len(),
            FeatureVectorRef::Sparse { indices, .. } => {
                indices.last().map(|&i| i as usize + 1).unwrap_or(0)
            }
        }
    }

    /// Number of stored (possibly zero) entries.
    pub fn nnz(&self) -> usize {
        match *self {
            FeatureVectorRef::Dense(x) => x.len(),
            FeatureVectorRef::Sparse { indices, .. } => indices.len(),
        }
    }

    /// Value at logical index `i` (0.0 if not stored).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        match *self {
            FeatureVectorRef::Dense(x) => x.get(i).copied().unwrap_or(0.0),
            FeatureVectorRef::Sparse { indices, values } => {
                // Indices past u32::MAX cannot be stored, so they are 0.0 by
                // definition; a plain `as u32` cast would wrap and alias a
                // stored entry.
                let Ok(i) = u32::try_from(i) else { return 0.0 };
                match indices.binary_search(&i) {
                    Ok(pos) => values[pos],
                    Err(_) => 0.0,
                }
            }
        }
    }

    /// Materialize into a dense vector of dimension at least `dim`: stored
    /// entries at their indices, zeros elsewhere.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim.max(self.dimension())];
        for (i, v) in self.iter_entries() {
            out[i] = v;
        }
        out
    }

    /// Iterate over (index, value) pairs of the stored entries without
    /// allocating.
    #[inline]
    pub fn iter_entries(&self) -> FeatureEntries<'a> {
        match *self {
            FeatureVectorRef::Dense(x) => FeatureEntries::Dense(x.iter().enumerate()),
            FeatureVectorRef::Sparse { indices, values } => {
                FeatureEntries::Sparse(indices.iter().zip(values.iter()))
            }
        }
    }
}

impl<'a> From<&'a SparseVector> for FeatureVectorRef<'a> {
    fn from(v: &'a SparseVector) -> Self {
        FeatureVectorRef::Sparse {
            indices: v.indices(),
            values: v.values(),
        }
    }
}

/// Concrete (index, value) iterator over a feature vector's stored entries.
///
/// An enum rather than a `Box<dyn Iterator>` so iterating a tuple's features
/// stays allocation-free on the training path.
#[derive(Debug, Clone)]
pub enum FeatureEntries<'a> {
    /// Entries of a dense slice: every position, in order.
    Dense(std::iter::Enumerate<std::slice::Iter<'a, f64>>),
    /// Stored entries of a sparse vector, in increasing index order.
    Sparse(std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, f64>>),
}

impl Iterator for FeatureEntries<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            FeatureEntries::Dense(it) => it.next().map(|(i, &v)| (i, v)),
            FeatureEntries::Sparse(it) => it.next().map(|(&i, &v)| (i as usize, v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            FeatureEntries::Dense(it) => it.size_hint(),
            FeatureEntries::Sparse(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for FeatureEntries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(pairs: Vec<(usize, f64)>) -> SparseVector {
        SparseVector::from_pairs(pairs)
    }

    #[test]
    fn dot_agrees_across_layouts() {
        let dense = FeatureVectorRef::Dense(&[1.0, 0.0, 3.0]);
        let stored = sparse(vec![(0, 1.0), (2, 3.0)]);
        let w = [2.0, 0.5, 1.0];
        assert_eq!(dense.dot(&w), 5.0);
        assert_eq!(FeatureVectorRef::from(&stored).dot(&w), 5.0);
    }

    #[test]
    fn sparse_dot_ignores_indices_past_the_model() {
        let stored = sparse(vec![(0, 1.0), (5, 10.0)]);
        assert_eq!(FeatureVectorRef::from(&stored).dot(&[2.0, 0.0, 0.0]), 2.0);
        // A shorter dense model also stops the dense arm at its end.
        assert_eq!(FeatureVectorRef::Dense(&[1.0, 2.0]).dot(&[10.0]), 10.0);
    }

    #[test]
    fn sparse_axpy_touches_only_stored_coordinates() {
        let stored = sparse(vec![(1, 2.0), (9, 1.0)]);
        let mut w = vec![0.5; 3];
        FeatureVectorRef::from(&stored).scale_and_add_into(&mut w, 3.0);
        assert_eq!(w, vec![0.5, 6.5, 0.5]);
    }

    #[test]
    fn dense_axpy_stops_at_the_shorter_slice() {
        let mut w = vec![1.0, 1.0];
        FeatureVectorRef::Dense(&[2.0, -1.0, 7.0]).scale_and_add_into(&mut w, 0.5);
        assert_eq!(w, vec![2.0, 0.5]);
    }

    #[test]
    fn to_dense_pads_and_honours_the_requested_dim() {
        let stored = sparse(vec![(1, 2.0), (3, -1.0)]);
        let view = FeatureVectorRef::from(&stored);
        assert_eq!(view.to_dense(4), vec![0.0, 2.0, 0.0, -1.0]);
        assert_eq!(view.to_dense(6).len(), 6);
        // A requested dim below the vector's own dimension still holds it.
        assert_eq!(view.to_dense(0), vec![0.0, 2.0, 0.0, -1.0]);
        let dense = FeatureVectorRef::Dense(&[1.0, 2.0]);
        assert_eq!(dense.to_dense(4), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(dense.to_dense(1), vec![1.0, 2.0]);
    }

    #[test]
    fn dimension_and_nnz_for_both_layouts() {
        let dense = FeatureVectorRef::Dense(&[1.0, 0.0, 3.0]);
        assert_eq!((dense.dimension(), dense.nnz()), (3, 3));
        let stored = sparse(vec![(4, 1.0)]);
        let view = FeatureVectorRef::from(&stored);
        assert_eq!((view.dimension(), view.nnz()), (5, 1));
        let empty = SparseVector::new();
        let view = FeatureVectorRef::from(&empty);
        assert_eq!((view.dimension(), view.nnz()), (0, 0));
    }

    #[test]
    fn iter_entries_lists_the_stored_entries() {
        let dense = FeatureVectorRef::Dense(&[3.0, 4.0]);
        assert_eq!(
            dense.iter_entries().collect::<Vec<_>>(),
            vec![(0, 3.0), (1, 4.0)]
        );
        let stored = sparse(vec![(7, -1.0), (1, 2.0)]);
        let view = FeatureVectorRef::from(&stored);
        assert_eq!(view.iter_entries().len(), 2);
        assert_eq!(
            view.iter_entries().collect::<Vec<_>>(),
            vec![(1, 2.0), (7, -1.0)]
        );
    }

    #[test]
    fn view_get_and_ragged_bounds() {
        let stored = sparse(vec![(2, 5.0), (10, 1.0)]);
        let view = FeatureVectorRef::from(&stored);
        assert_eq!(view.get(2), 5.0);
        assert_eq!(view.get(3), 0.0);
        assert_eq!(view.get(100), 0.0);
        // An index past u32::MAX must not wrap onto a stored entry.
        assert_eq!(view.get((1usize << 32) + 2), 0.0);
        // Updates and dots against a shorter model ignore index 10.
        let mut w = vec![0.0; 4];
        view.scale_and_add_into(&mut w, 2.0);
        assert_eq!(w, vec![0.0, 0.0, 10.0, 0.0]);
        assert!((view.dot(&[0.0, 0.0, 3.0]) - 15.0).abs() < 1e-12);

        let dview = FeatureVectorRef::Dense(&[1.0, 2.0]);
        assert_eq!(dview.get(1), 2.0);
        assert_eq!(dview.get(5), 0.0);
    }
}
