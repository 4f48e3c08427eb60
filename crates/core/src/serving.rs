//! Concurrent model serving: epoch-versioned snapshots and batched
//! prediction while training runs.
//!
//! The paper's architecture lives *inside* an RDBMS, where queries score
//! tuples against models while training continues in the background. This
//! module is that read path: a [`ModelHandle`] is a publication point the
//! trainer pushes a fresh [`ModelSnapshot`] through after every healthy
//! epoch (see [`crate::TrainerConfig::with_serving`]), and any number of
//! reader threads pull the latest snapshot and score feature vectors against
//! it — through the same [`ModelStore::dot_view`] slice kernels the gradient
//! hot path uses.
//!
//! # Publication protocol
//!
//! The handle is one lock around one `Arc<ModelSnapshot>`. A publish copies
//! the weights before taking the lock and swaps the pointer under it; a
//! reader clones the pointer under it. The lock therefore guards a few
//! instructions on either side — never a copy of the weights, never a dot
//! product — and the previous snapshot is dropped after the guard, so freeing
//! a model never happens inside it either. Versions are assigned under the
//! same lock, which makes them strictly increasing in publication order, so
//! each reader observes **monotonically non-decreasing versions**. (A
//! double-buffered handle — two slots, an atomic index, a retry loop — was
//! measured against this one on `serve_during_train` and showed no advantage;
//! see ROADMAP.)
//!
//! Only finite models can be published: [`ModelHandle::publish`] rejects any
//! weight vector containing a NaN or infinity, and the trainers only publish
//! epochs that passed their divergence scan — so a served model is never
//! non-finite, even while a run is mid-backoff.
//!
//! # Example
//!
//! ```
//! use bismarck_core::serving::{ModelHandle, ServingTask};
//! use bismarck_linalg::FeatureVectorRef;
//!
//! let handle = ModelHandle::new(ServingTask::Logistic, 3);
//! handle.publish(&[0.5, -0.25, 0.0]).unwrap();
//!
//! let batch = [
//!     FeatureVectorRef::Dense(&[1.0, 0.0, 2.0]),
//!     FeatureVectorRef::Dense(&[0.0, 4.0, 0.0]),
//! ];
//! let mut probs = Vec::new();
//! let snapshot = handle.predict_batch(&batch, &mut probs);
//! assert_eq!(snapshot.version(), 1);
//! assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
//! ```

use std::sync::Arc;

use bismarck_linalg::{sigmoid, FeatureVectorRef};
use parking_lot::Mutex;

use crate::governor::{GuardViolation, QueryGuard};
use crate::model::{DenseModelStore, ModelStore};

/// How many rows a guarded batch predict scores between guard polls: small
/// enough that a cancel or deadline is observed promptly, large enough that
/// the poll is invisible next to the dot products it amortizes over.
const GUARD_CHECK_INTERVAL: usize = 1024;

/// Which linear technique a served model belongs to; determines the link
/// [`ModelSnapshot::predict`] applies to the raw score `wᵀx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingTask {
    /// Logistic regression: predictions are the class-1 probability
    /// `1 / (1 + e^{-wᵀx})`.
    Logistic,
    /// SVM classification: predictions are the class `sign(wᵀx)` as ±1 (a
    /// zero score stays 0); [`ModelSnapshot::score`] is the raw margin.
    Svm,
    /// Least squares / generic linear models: predictions are the raw value.
    LeastSquares,
}

impl ServingTask {
    /// Map a raw linear score to this task's prediction.
    #[inline]
    pub fn apply(self, score: f64) -> f64 {
        match self {
            ServingTask::Logistic => sigmoid(score),
            ServingTask::Svm => {
                if score > 0.0 {
                    1.0
                } else if score < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            ServingTask::LeastSquares => score,
        }
    }
}

/// An immutable, versioned copy of a model as published to a
/// [`ModelHandle`].
///
/// Snapshots are shared via `Arc`, so holding one is cheap and never blocks
/// the trainer: a reader scoring a long batch keeps scoring against the
/// version it acquired while newer epochs publish concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    version: u64,
    task: ServingTask,
    store: DenseModelStore,
}

impl ModelSnapshot {
    /// A free-standing snapshot not tied to any handle (version 0) — used
    /// for models loaded back from persisted tables.
    pub fn detached(task: ServingTask, weights: Vec<f64>) -> Self {
        ModelSnapshot {
            version: 0,
            task,
            store: DenseModelStore::new(weights),
        }
    }

    /// Publication version: 0 for the handle's initial model, incremented on
    /// every successful [`ModelHandle::publish`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The task family the snapshot serves.
    pub fn task(&self) -> ServingTask {
        self.task
    }

    /// Model dimension.
    pub fn dimension(&self) -> usize {
        self.store.len()
    }

    /// The model weights.
    pub fn weights(&self) -> &[f64] {
        self.store.as_slice()
    }

    /// Raw linear score `wᵀx`, computed through the dense slice kernel
    /// ([`ModelStore::dot_view`]); entries past the model dimension
    /// contribute zero.
    #[inline]
    pub fn score(&self, x: FeatureVectorRef<'_>) -> f64 {
        self.store.dot_view(x)
    }

    /// Score one feature vector through the task's link
    /// (LR → probability, SVM → ±1 class, LS → raw value).
    #[inline]
    pub fn predict(&self, x: FeatureVectorRef<'_>) -> f64 {
        self.task.apply(self.score(x))
    }
}

/// Why a [`ModelHandle::publish`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The weight vector contains a NaN or infinity. Serving a non-finite
    /// model is never acceptable; the trainer-side divergence scan should
    /// have caught this before publishing.
    NonFinite,
    /// The weight vector's length does not match the handle's dimension.
    DimensionMismatch {
        /// Dimension the handle was created with.
        expected: usize,
        /// Length of the rejected weight vector.
        got: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::NonFinite => {
                write!(f, "refusing to publish a model with non-finite weights")
            }
            PublishError::DimensionMismatch { expected, got } => write!(
                f,
                "model has {got} weights, the serving handle expects {expected}"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// The state shared by all clones of a handle.
#[derive(Debug)]
struct HandleShared {
    task: ServingTask,
    dimension: usize,
    /// The served snapshot; its `version` is the handle's version.
    current: Mutex<Arc<ModelSnapshot>>,
}

/// The publication point connecting one trainer to any number of prediction
/// readers.
///
/// Cloning a handle is cheap (an `Arc` clone) and every clone addresses the
/// same served snapshot: hand one clone to
/// [`crate::TrainerConfig::with_serving`] and keep others on the serving
/// threads. See the [module docs](self) for the publication protocol and its
/// guarantees.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    shared: Arc<HandleShared>,
}

impl ModelHandle {
    /// A handle serving a zero model of dimension `dimension` at version 0
    /// (predictions are well-defined before the first publish: a zero model
    /// scores every vector as 0).
    pub fn new(task: ServingTask, dimension: usize) -> Self {
        Self::serving(task, DenseModelStore::zeros(dimension))
    }

    /// A handle whose version-0 snapshot is `initial` (e.g. a task's
    /// [`crate::task::IgdTask::initial_model`], or a model loaded from a
    /// checkpoint). Rejects non-finite weights.
    pub fn with_initial(task: ServingTask, initial: Vec<f64>) -> Result<Self, PublishError> {
        if !initial.iter().all(|v| v.is_finite()) {
            return Err(PublishError::NonFinite);
        }
        Ok(Self::serving(task, DenseModelStore::new(initial)))
    }

    fn serving(task: ServingTask, store: DenseModelStore) -> Self {
        ModelHandle {
            shared: Arc::new(HandleShared {
                task,
                dimension: store.len(),
                current: Mutex::new(Arc::new(ModelSnapshot {
                    version: 0,
                    task,
                    store,
                })),
            }),
        }
    }

    /// The task family this handle serves.
    pub fn task(&self) -> ServingTask {
        self.shared.task
    }

    /// Model dimension every published weight vector must match.
    pub fn dimension(&self) -> usize {
        self.shared.dimension
    }

    /// Version of the most recently published snapshot (0 until the first
    /// publish).
    pub fn version(&self) -> u64 {
        self.shared.current.lock().version
    }

    /// Publish a new model, returning its version.
    ///
    /// Rejects non-finite weights ([`PublishError::NonFinite`]) and length
    /// mismatches ([`PublishError::DimensionMismatch`]); on `Err` the served
    /// snapshot is unchanged. Readers concurrently calling
    /// [`Self::snapshot`] see either the previous snapshot or the new one,
    /// never a torn mix.
    pub fn publish(&self, weights: &[f64]) -> Result<u64, PublishError> {
        if weights.len() != self.shared.dimension {
            return Err(PublishError::DimensionMismatch {
                expected: self.shared.dimension,
                got: weights.len(),
            });
        }
        if !weights.iter().all(|v| v.is_finite()) {
            return Err(PublishError::NonFinite);
        }
        // The copy of the weights is made before the lock is taken, and the
        // previous snapshot is freed (if this was its last reference) after
        // it is released: the guard covers the version read and the swap.
        let store = DenseModelStore::new(weights.to_vec());
        let mut current = self.shared.current.lock();
        let version = current.version + 1;
        let snapshot = Arc::new(ModelSnapshot {
            version,
            task: self.shared.task,
            store,
        });
        let previous = std::mem::replace(&mut *current, snapshot);
        drop(current);
        drop(previous);
        Ok(version)
    }

    /// Acquire the latest published snapshot: one pointer clone under the
    /// handle's lock.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.shared.current.lock())
    }

    /// Score a batch of feature vectors against one consistent snapshot
    /// through the task's link; amortizes snapshot acquisition across
    /// the whole batch and reuses `out`'s allocation.
    ///
    /// Returns the snapshot the batch was scored against, so callers can
    /// report which model version produced the predictions.
    pub fn predict_batch(
        &self,
        features: &[FeatureVectorRef<'_>],
        out: &mut Vec<f64>,
    ) -> Arc<ModelSnapshot> {
        let snapshot = self.snapshot();
        out.clear();
        out.extend(features.iter().map(|&x| snapshot.predict(x)));
        snapshot
    }

    /// Governed [`Self::predict_batch`]: scores under a
    /// [`QueryGuard`], polling it before the batch and every
    /// thousand-or-so rows within it, so a cancelled guard (including one
    /// cancelled by [`crate::governor::Governor::shutdown`]) or a passed
    /// deadline stops the batch promptly instead of scoring to the end.
    ///
    /// On `Err`, `out` holds the rows scored before the stop — callers
    /// wanting all-or-nothing semantics should discard it.
    pub fn try_predict_batch(
        &self,
        guard: &QueryGuard,
        features: &[FeatureVectorRef<'_>],
        out: &mut Vec<f64>,
    ) -> Result<Arc<ModelSnapshot>, GuardViolation> {
        out.clear();
        guard.check()?;
        let snapshot = self.snapshot();
        for chunk in features.chunks(GUARD_CHECK_INTERVAL) {
            guard.check()?;
            out.extend(chunk.iter().map(|&x| snapshot.predict(x)));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_handle_serves_version_zero() {
        let handle = ModelHandle::new(ServingTask::LeastSquares, 3);
        assert_eq!(handle.version(), 0);
        assert_eq!(handle.dimension(), 3);
        let snap = handle.snapshot();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.weights(), &[0.0, 0.0, 0.0]);
        assert_eq!(snap.predict(FeatureVectorRef::Dense(&[5.0, 5.0, 5.0])), 0.0);
    }

    #[test]
    fn publish_bumps_version_and_swaps_the_snapshot() {
        let handle = ModelHandle::new(ServingTask::LeastSquares, 2);
        let before = handle.snapshot();
        assert_eq!(handle.publish(&[1.0, 2.0]).unwrap(), 1);
        assert_eq!(handle.publish(&[3.0, 4.0]).unwrap(), 2);
        let after = handle.snapshot();
        assert_eq!(after.version(), 2);
        assert_eq!(after.weights(), &[3.0, 4.0]);
        // The old snapshot is immutable: holders keep scoring against it.
        assert_eq!(before.weights(), &[0.0, 0.0]);
    }

    #[test]
    fn publish_rejects_non_finite_and_wrong_dimension() {
        let handle = ModelHandle::new(ServingTask::Logistic, 2);
        assert_eq!(
            handle.publish(&[1.0, f64::NAN]),
            Err(PublishError::NonFinite)
        );
        assert_eq!(
            handle.publish(&[1.0, f64::INFINITY]),
            Err(PublishError::NonFinite)
        );
        assert_eq!(
            handle.publish(&[1.0]),
            Err(PublishError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        // Rejected publishes leave the served snapshot untouched.
        assert_eq!(handle.version(), 0);
        assert_eq!(handle.snapshot().weights(), &[0.0, 0.0]);
        assert!(ModelHandle::with_initial(ServingTask::Svm, vec![f64::NAN]).is_err());
    }

    #[test]
    fn links_apply_per_task() {
        let weights = vec![1.0, -1.0];
        let x = FeatureVectorRef::Dense(&[2.0, 0.0]); // score 2.0
        let lr = ModelSnapshot::detached(ServingTask::Logistic, weights.clone());
        assert!((lr.predict(x) - sigmoid(2.0)).abs() < 1e-15);
        let svm = ModelSnapshot::detached(ServingTask::Svm, weights.clone());
        assert_eq!(svm.predict(x), 1.0);
        assert_eq!(svm.score(x), 2.0);
        let ls = ModelSnapshot::detached(ServingTask::LeastSquares, weights);
        assert_eq!(ls.predict(x), 2.0);
        assert_eq!(ServingTask::Svm.apply(0.0), 0.0);
        assert_eq!(ServingTask::Svm.apply(-3.5), -1.0);
    }

    #[test]
    fn batched_predict_scores_against_one_version() {
        let handle = ModelHandle::with_initial(ServingTask::Svm, vec![1.0, 0.0]).unwrap();
        handle.publish(&[1.0, -2.0]).unwrap();
        let batch = [
            FeatureVectorRef::Dense(&[1.0, 0.0]),
            FeatureVectorRef::Dense(&[0.0, 1.0]),
            FeatureVectorRef::Sparse {
                indices: &[1],
                values: &[1.0],
            },
        ];
        let mut out = vec![999.0; 1];
        let snap = handle.predict_batch(&batch, &mut out);
        assert_eq!(snap.version(), 1);
        assert_eq!(out, vec![1.0, -1.0, -1.0]);
        let margins: Vec<f64> = batch.iter().map(|&x| snap.score(x)).collect();
        assert_eq!(margins, vec![1.0, -2.0, -2.0]);
    }

    #[test]
    fn guarded_predict_honors_cancellation() {
        use crate::governor::{GuardViolation, QueryGuard};

        let handle = ModelHandle::with_initial(ServingTask::LeastSquares, vec![2.0]).unwrap();
        let batch = [FeatureVectorRef::Dense(&[1.0]); 4];
        let mut out = Vec::new();

        let guard = QueryGuard::unlimited();
        let snap = handle.try_predict_batch(&guard, &batch, &mut out).unwrap();
        assert_eq!(snap.version(), 0);
        assert_eq!(out, vec![2.0; 4]);

        guard.cancel();
        let err = handle
            .try_predict_batch(&guard, &batch, &mut out)
            .unwrap_err();
        assert_eq!(err, GuardViolation::Cancelled);
        assert!(out.is_empty(), "cancelled before any row was scored");
    }

    #[test]
    fn sparse_features_past_the_dimension_contribute_zero() {
        let snap = ModelSnapshot::detached(ServingTask::LeastSquares, vec![2.0, 3.0]);
        let ragged = FeatureVectorRef::Sparse {
            indices: &[0, 7],
            values: &[1.0, 100.0],
        };
        assert_eq!(snap.predict(ragged), 2.0);
    }

    #[test]
    fn concurrent_publishes_and_reads_keep_versions_monotone() {
        let handle = ModelHandle::new(ServingTask::LeastSquares, 4);
        let publishes = 500u64;
        std::thread::scope(|scope| {
            let writer = handle.clone();
            scope.spawn(move || {
                for v in 1..=publishes {
                    writer.publish(&[v as f64; 4]).unwrap();
                }
            });
            for _ in 0..4 {
                let reader = handle.clone();
                scope.spawn(move || {
                    let mut last = 0u64;
                    while last < publishes {
                        let snap = reader.snapshot();
                        assert!(
                            snap.version() >= last,
                            "version went backwards: {} after {last}",
                            snap.version()
                        );
                        // A snapshot is internally consistent: its weights
                        // are exactly the ones published under its version.
                        let expected = snap.version() as f64;
                        assert!(snap.weights().iter().all(|&w| w == expected));
                        last = snap.version();
                    }
                });
            }
        });
        assert_eq!(handle.version(), publishes);
    }
}
