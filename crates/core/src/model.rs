//! Model storage abstractions.
//!
//! Every Bismarck task represents its model as a flat vector of `f64`
//! components (a coefficient vector for LR/SVM/CRF, the stacked `L` and `R`
//! factors for matrix factorization, stacked per-timestep states for Kalman
//! smoothing). Tasks perform their gradient step through the [`ModelStore`]
//! trait, so the *same* transition code runs against:
//!
//! * a private dense vector (sequential execution and the pure-UDA segments),
//! * a [`bismarck_storage::SharedModel`] updated without any locking at all
//!   (the Hogwild!-style **NoLock** scheme), or
//! * a shared model updated with per-component compare-and-swap (**AIG**).
//!
//! The whole-model **Lock** discipline does not need its own store: the
//! parallel executor keeps one [`DenseModelStore`] behind a mutex and each
//! worker steps on `&mut *guard` while it holds the lock, so sequential,
//! pure-UDA and Lock passes all run the same dense slice kernels.

use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::SharedModel;

/// Read/update access to a flat model, abstracting over private and shared
/// storage so task transition functions are written once.
///
/// Beyond the per-coordinate primitives, the trait carries the **bulk
/// kernels** the paper's Figure 4 transitions are made of: `dot_view`
/// (`Dot_Product`) and `axpy_view` (`Scale_And_Add`) over a borrowed feature
/// view. Private dense stores override them with single vectorizable slice
/// loops; the shared NoLock/AIG stores keep the per-coordinate defaults,
/// which preserve their racy / compare-and-swap update semantics.
///
/// A full gradient step is two kernel calls:
///
/// ```
/// use bismarck_core::model::{DenseModelStore, ModelStore};
/// use bismarck_linalg::FeatureVectorRef;
///
/// let mut w = DenseModelStore::new(vec![1.0, 0.0, -1.0]);
/// let x = FeatureVectorRef::Dense(&[2.0, 0.0, 1.0]);
///
/// let score = w.dot_view(x); // Dot_Product
/// assert_eq!(score, 1.0);
/// w.axpy_view(x, 0.5); // Scale_And_Add: w += 0.5 * x
/// assert_eq!(w.snapshot(), vec![2.0, 0.0, -0.5]);
/// ```
pub trait ModelStore {
    /// Number of model components.
    fn len(&self) -> usize;

    /// Whether the model has no components.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read component `i`.
    fn read(&self, i: usize) -> f64;

    /// Add `delta` to component `i`.
    fn update(&mut self, i: usize, delta: f64);

    /// Overwrite component `i` with `value`.
    fn write(&mut self, i: usize, value: f64);

    /// `Dot_Product(w, x)` against a borrowed feature view. Entries at or
    /// beyond [`ModelStore::len`] contribute zero, matching the bounds
    /// convention of the per-coordinate path.
    #[inline]
    fn dot_view(&self, x: FeatureVectorRef<'_>) -> f64 {
        let n = self.len();
        let mut acc = 0.0;
        for (i, v) in x.iter_entries() {
            if i < n {
                acc += self.read(i) * v;
            }
        }
        acc
    }

    /// `Scale_And_Add(w, x, c)`: `w += c * x` through the store's update
    /// discipline. Entries at or beyond [`ModelStore::len`] are ignored.
    #[inline]
    fn axpy_view(&mut self, x: FeatureVectorRef<'_>, c: f64) {
        let n = self.len();
        for (i, v) in x.iter_entries() {
            if i < n {
                self.update(i, c * v);
            }
        }
    }

    /// Copy the model into a dense vector (used for loss evaluation and for
    /// applying dense proximal operators).
    fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Copy the model into a caller-owned buffer, reusing its allocation.
    /// Callers that snapshot repeatedly (e.g. the CRF's per-sentence
    /// forward–backward) keep one scratch vector instead of allocating per
    /// tuple.
    fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.len()).map(|i| self.read(i)));
    }
}

/// A private dense model: the ordinary sequential case.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseModelStore {
    values: Vec<f64>,
}

impl DenseModelStore {
    /// Wrap an existing dense model.
    pub fn new(values: Vec<f64>) -> Self {
        DenseModelStore { values }
    }

    /// A zero model of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseModelStore {
            values: vec![0.0; n],
        }
    }

    /// Borrow the underlying components.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutably borrow the underlying components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }
}

impl ModelStore for DenseModelStore {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn read(&self, i: usize) -> f64 {
        self.values[i]
    }

    #[inline]
    fn update(&mut self, i: usize, delta: f64) {
        self.values[i] += delta;
    }

    #[inline]
    fn write(&mut self, i: usize, value: f64) {
        self.values[i] = value;
    }

    // Slice fast paths: one vectorizable loop instead of `d` virtual calls.
    #[inline]
    fn dot_view(&self, x: FeatureVectorRef<'_>) -> f64 {
        x.dot(&self.values)
    }

    #[inline]
    fn axpy_view(&mut self, x: FeatureVectorRef<'_>, c: f64) {
        x.scale_and_add_into(&mut self.values, c);
    }

    fn snapshot(&self) -> Vec<f64> {
        self.values.clone()
    }

    fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.values);
    }
}

/// Shared-memory store with no locking at all: racy read-modify-write, the
/// NoLock (Hogwild!) discipline of Section 3.3.
#[derive(Debug, Clone)]
pub struct NoLockStore {
    shared: SharedModel,
}

impl NoLockStore {
    /// Wrap a shared model.
    pub fn new(shared: SharedModel) -> Self {
        NoLockStore { shared }
    }

    /// The underlying shared model.
    pub fn shared(&self) -> &SharedModel {
        &self.shared
    }
}

// NoLock keeps the default per-coordinate `dot_view`/`axpy_view`: each
// component update must go through `add_racy` individually — that *is* the
// Hogwild! discipline.
impl ModelStore for NoLockStore {
    fn len(&self) -> usize {
        self.shared.len()
    }

    #[inline]
    fn read(&self, i: usize) -> f64 {
        self.shared.load(i)
    }

    #[inline]
    fn update(&mut self, i: usize, delta: f64) {
        self.shared.add_racy(i, delta);
    }

    #[inline]
    fn write(&mut self, i: usize, value: f64) {
        self.shared.store(i, value);
    }

    fn snapshot(&self) -> Vec<f64> {
        self.shared.snapshot()
    }
}

/// Shared-memory store with per-component atomic updates: the Atomic
/// Incremental Gradient (AIG) discipline, which "uses only
/// CompareAndExchange instructions to effectively perform per-component
/// locking".
#[derive(Debug, Clone)]
pub struct AigStore {
    shared: SharedModel,
}

impl AigStore {
    /// Wrap a shared model.
    pub fn new(shared: SharedModel) -> Self {
        AigStore { shared }
    }

    /// The underlying shared model.
    pub fn shared(&self) -> &SharedModel {
        &self.shared
    }
}

// AIG keeps the default per-coordinate `dot_view`/`axpy_view`: per-component
// compare-and-swap is the whole point of the discipline, so the bulk kernels
// must not be collapsed into an unsynchronized slice loop.
impl ModelStore for AigStore {
    fn len(&self) -> usize {
        self.shared.len()
    }

    #[inline]
    fn read(&self, i: usize) -> f64 {
        self.shared.load(i)
    }

    #[inline]
    fn update(&mut self, i: usize, delta: f64) {
        self.shared.add_atomic(i, delta);
    }

    #[inline]
    fn write(&mut self, i: usize, value: f64) {
        self.shared.store(i, value);
    }

    fn snapshot(&self) -> Vec<f64> {
        self.shared.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bismarck_linalg::SparseVector;

    fn exercise<M: ModelStore>(store: &mut M) {
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        store.write(0, 1.0);
        store.update(0, 0.5);
        store.update(2, -1.0);
        assert_eq!(store.read(0), 1.5);
        assert_eq!(store.read(1), 0.0);
        assert_eq!(store.snapshot(), vec![1.5, 0.0, -1.0]);

        // Bulk kernels agree with the per-coordinate primitives, including
        // ragged inputs whose entries run past the model length.
        let dense = [2.0, 1.0, 0.0, 9.0];
        assert_eq!(store.dot_view(FeatureVectorRef::Dense(&dense)), 1.5 * 2.0);
        let sparse = SparseVector::from_pairs(vec![(2, 4.0), (7, 1.0)]);
        assert_eq!(store.dot_view(FeatureVectorRef::from(&sparse)), -4.0);
        store.axpy_view(FeatureVectorRef::from(&sparse), 0.5);
        assert_eq!(store.read(2), 1.0);
        store.axpy_view(FeatureVectorRef::Dense(&dense), 1.0);
        assert_eq!(store.snapshot(), vec![3.5, 1.0, 1.0]);

        let mut scratch = vec![7.0; 10];
        store.snapshot_into(&mut scratch);
        assert_eq!(scratch, vec![3.5, 1.0, 1.0]);

        // Reset to the state the per-store assertions expect.
        store.write(0, 1.5);
        store.write(1, 0.0);
        store.write(2, -1.0);
    }

    #[test]
    fn dense_store_contract() {
        let mut store = DenseModelStore::zeros(3);
        exercise(&mut store);
        assert_eq!(store.into_vec(), vec![1.5, 0.0, -1.0]);
    }

    #[test]
    fn nolock_store_contract_and_shares_memory() {
        let shared = SharedModel::zeros(3);
        let mut store = NoLockStore::new(shared.clone());
        exercise(&mut store);
        assert_eq!(shared.snapshot(), vec![1.5, 0.0, -1.0]);
        assert_eq!(store.shared().len(), 3);
    }

    #[test]
    fn aig_store_contract_and_shares_memory() {
        let shared = SharedModel::zeros(3);
        let mut store = AigStore::new(shared.clone());
        exercise(&mut store);
        assert_eq!(shared.snapshot(), vec![1.5, 0.0, -1.0]);
        assert_eq!(store.shared().len(), 3);
    }

    #[test]
    fn dense_store_from_existing_model() {
        let store = DenseModelStore::new(vec![1.0, 2.0]);
        assert_eq!(store.as_slice(), &[1.0, 2.0]);
        assert_eq!(store.snapshot(), vec![1.0, 2.0]);
    }
}
