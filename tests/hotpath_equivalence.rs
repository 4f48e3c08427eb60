//! Equivalence proptests for the zero-copy, kernel-based gradient hot path.
//!
//! The transition path was rebuilt around borrowed feature views
//! (`Tuple::feature_view`) and bulk `ModelStore` kernels
//! (`dot_view`/`axpy_view`/`snapshot_into`). These tests pin the refactor to
//! the old semantics three ways, for every task in the zoo, across dense,
//! sparse and ragged-dimension inputs:
//!
//! * the **bulk-kernel** path (`DenseModelStore`, slice fast paths) must
//!   match a **per-coordinate fallback** store that only implements the
//!   required trait methods — i.e. the virtual-call-per-component path the
//!   shared NoLock/AIG stores still use;
//! * both must match a **reference reimplementation** of the transition
//!   written as indexed scalar loops over the stored entries, independent of
//!   the `Dot_Product` / `Scale_And_Add` kernels under test, to within 1e-12;
//! * margins and example losses computed through the view must match the
//!   same quantities computed by those reference loops.

use bismarck_core::model::{DenseModelStore, ModelStore};
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{
    CrfTask, KalmanTask, LeastSquaresTask, LmfTask, LogisticRegressionTask, PortfolioTask, SvmTask,
};
use bismarck_linalg::ops::sigmoid;
use bismarck_linalg::SparseVector;
use bismarck_storage::{Tuple, Value};
use proptest::prelude::*;

const TOL: f64 = 1e-12;

/// A model store that only implements the required trait methods, so every
/// bulk kernel exercises the default per-coordinate implementation.
struct FallbackStore(Vec<f64>);

impl ModelStore for FallbackStore {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn read(&self, i: usize) -> f64 {
        self.0[i]
    }
    fn update(&mut self, i: usize, delta: f64) {
        self.0[i] += delta;
    }
    fn write(&mut self, i: usize, value: f64) {
        self.0[i] = value;
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Run one gradient step through both store implementations and assert they
/// agree within `TOL`; returns the bulk-kernel result.
fn step_both_stores<T: IgdTask>(
    task: &T,
    model: &[f64],
    tuple: &Tuple,
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let mut bulk = DenseModelStore::new(model.to_vec());
    task.gradient_step(&mut bulk, tuple.into(), alpha);
    let bulk = bulk.into_vec();
    let mut fallback = FallbackStore(model.to_vec());
    task.gradient_step(&mut fallback, tuple.into(), alpha);
    prop_assert!(
        max_abs_diff(&bulk, &fallback.0) <= TOL,
        "bulk-kernel vs per-coordinate stores diverged: {bulk:?} vs {:?}",
        fallback.0
    );
    Ok(bulk)
}

/// The stored (index, value) entries of a feature cell, in storage order.
fn entries(x: &Value) -> impl Iterator<Item = (usize, f64)> + '_ {
    x.feature_view().expect("feature column").iter_entries()
}

/// Reference margin: an indexed loop over the stored entries.
fn cloned_margin(model: &[f64], x: &Value) -> f64 {
    let mut wx = 0.0;
    for (i, v) in entries(x) {
        if i < model.len() {
            wx += model[i] * v;
        }
    }
    wx
}

/// Reference scale-and-add: an indexed loop over the stored entries.
fn cloned_axpy(model: &mut [f64], x: &Value, c: f64) {
    for (i, v) in entries(x) {
        if i < model.len() {
            model[i] += c * v;
        }
    }
}

/// Reference densification: stored entries at their indices in a zero
/// vector of `dim` components (entries at or past `dim` are dropped).
fn indexed_dense(x: &Value, dim: usize) -> Vec<f64> {
    let mut out = vec![0.0; dim];
    for (i, v) in entries(x) {
        if i < dim {
            out[i] = v;
        }
    }
    out
}

/// A feature value that is dense, sparse, or sparse with indices past the
/// model dimension (ragged).
fn feature_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop::collection::vec(-3.0f64..3.0, 1..9).prop_map(Value::from),
        prop::collection::vec(((0usize..12), -3.0f64..3.0), 1..7)
            .prop_map(|pairs| Value::from(SparseVector::from_pairs(pairs))),
    ]
}

fn model_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0f64..2.0, dim..=dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LR: margin, gradient step and example loss agree between the kernel
    /// path, the per-coordinate fallback and the cloning reference.
    #[test]
    fn logistic_matches_cloned_path(
        x in feature_strategy(),
        y in prop::sample::select(vec![-1.0f64, 1.0]),
        model in model_strategy(5),
        alpha in 0.01f64..1.0,
    ) {
        let task = LogisticRegressionTask::new(0, 1, 5);
        let tuple = Tuple::new(vec![x.clone(), Value::Double(y)]);

        // Margin through the store kernels vs the cloned loop.
        let store = DenseModelStore::new(model.clone());
        let view = tuple.feature_view(0).unwrap();
        let wx_view = store.dot_view(view);
        let wx_cloned = cloned_margin(&model, &x);
        prop_assert!((wx_view - wx_cloned).abs() <= TOL, "margin {wx_view} vs {wx_cloned}");

        // Gradient step: both stores vs the pre-refactor reference.
        let stepped = step_both_stores(&task, &model, &tuple, alpha)?;
        let mut reference = model.clone();
        let c = alpha * y * sigmoid(-wx_cloned * y);
        cloned_axpy(&mut reference, &x, c);
        prop_assert!(
            max_abs_diff(&stepped, &reference) <= TOL,
            "gradient step diverged: {stepped:?} vs {reference:?}"
        );

        // Example loss from the view path vs the reference margin.
        let loss = task.example_loss(&model, (&tuple).into());
        let reference_loss = bismarck_linalg::log1p_exp(-y * wx_cloned);
        prop_assert!((loss - reference_loss).abs() <= TOL);
    }

    /// SVM: same three-way agreement as LR, including the margin test branch.
    #[test]
    fn svm_matches_cloned_path(
        x in feature_strategy(),
        y in prop::sample::select(vec![-1.0f64, 1.0]),
        model in model_strategy(5),
        alpha in 0.01f64..1.0,
    ) {
        let task = SvmTask::new(0, 1, 5);
        let tuple = Tuple::new(vec![x.clone(), Value::Double(y)]);
        let stepped = step_both_stores(&task, &model, &tuple, alpha)?;

        let wx = cloned_margin(&model, &x);
        let mut reference = model.clone();
        if 1.0 - wx * y > 0.0 {
            cloned_axpy(&mut reference, &x, alpha * y);
        }
        prop_assert!(max_abs_diff(&stepped, &reference) <= TOL);

        let reference_loss = (1.0 - y * wx).max(0.0);
        prop_assert!((task.example_loss(&model, (&tuple).into()) - reference_loss).abs() <= TOL);
    }

    /// Least squares: three-way agreement on step and loss.
    #[test]
    fn least_squares_matches_cloned_path(
        x in feature_strategy(),
        y in -3.0f64..3.0,
        model in model_strategy(4),
        alpha in 0.01f64..0.5,
    ) {
        let task = LeastSquaresTask::new(0, 1, 4);
        let tuple = Tuple::new(vec![x.clone(), Value::Double(y)]);
        let stepped = step_both_stores(&task, &model, &tuple, alpha)?;

        let wx = cloned_margin(&model, &x);
        let mut reference = model.clone();
        cloned_axpy(&mut reference, &x, -alpha * (wx - y));
        prop_assert!(max_abs_diff(&stepped, &reference) <= TOL);

        let reference_loss = 0.5 * (wx - y).powi(2);
        prop_assert!((task.example_loss(&model, (&tuple).into()) - reference_loss).abs() <= TOL);
    }

    /// Portfolio: the centred-exposure transition agrees across stores and
    /// against a cloning reference.
    #[test]
    fn portfolio_matches_cloned_path(
        x in feature_strategy(),
        model in model_strategy(4),
        alpha in 0.01f64..0.5,
    ) {
        let expected = vec![0.05, 0.01, 0.03, 0.02];
        let task = PortfolioTask::new(0, expected.clone(), expected.clone(), 1.5, 10);
        let tuple = Tuple::new(vec![x.clone()]);
        let stepped = step_both_stores(&task, &model, &tuple, alpha)?;

        // Reference: indexed loops over the stored entries.
        let mut reference = model.clone();
        let mut exposure = 0.0;
        for (i, r) in entries(&x) {
            if i < 4 {
                exposure += reference[i] * (r - expected[i]);
            }
        }
        let risk_coeff = 2.0 * 1.5 * exposure;
        for (i, r) in entries(&x) {
            if i < 4 {
                reference[i] -= alpha * risk_coeff * (r - expected[i]);
            }
        }
        for (i, &p) in expected.iter().enumerate() {
            reference[i] += alpha / 10.0 * p;
        }
        prop_assert!(max_abs_diff(&stepped, &reference) <= TOL);

        // Loss via the view equals the loss from the reference loops.
        let mut exp2 = 0.0;
        for (i, r) in entries(&x) {
            if i < 4 {
                exp2 += model[i] * (r - expected[i]);
            }
        }
        let ret: f64 = expected.iter().zip(&model).map(|(p, w)| p * w).sum();
        let reference_loss = 1.5 * exp2 * exp2 - ret / 10.0;
        prop_assert!((task.example_loss(&model, (&tuple).into()) - reference_loss).abs() <= TOL);
    }

    /// Kalman: observation components are now read through the view (no
    /// per-tuple densification); the step must match the old densified path.
    #[test]
    fn kalman_matches_cloned_path(
        x in feature_strategy(),
        t_step in 0usize..3,
        model in model_strategy(9),
        alpha in 0.01f64..0.5,
    ) {
        let task = KalmanTask::new(0, 1, 3, 3, 0.7);
        let tuple = Tuple::new(vec![Value::Int(t_step as i64), x.clone()]);
        let stepped = step_both_stores(&task, &model, &tuple, alpha)?;

        // Reference: densify the observation like the old code did.
        let obs = indexed_dense(&x, 3);
        let mut reference = model.clone();
        for (k, observed) in obs.into_iter().enumerate() {
            let idx = t_step * 3 + k;
            let wt = reference[idx];
            let mut grad_t = 2.0 * (wt - observed);
            if t_step > 0 {
                let prev = (t_step - 1) * 3 + k;
                let diff = wt - reference[prev];
                grad_t += 2.0 * 0.7 * diff;
                reference[prev] += alpha * 2.0 * 0.7 * diff;
            }
            reference[idx] -= alpha * grad_t;
        }
        prop_assert!(max_abs_diff(&stepped, &reference) <= TOL);
    }

    /// LMF reads/updates individual coordinates: the bulk-kernel store and
    /// the fallback store must stay bit-identical.
    #[test]
    fn lmf_is_identical_across_stores(
        i in 0i64..3,
        j in 0i64..3,
        rating in -2.0f64..2.0,
        alpha in 0.01f64..0.5,
    ) {
        let task = LmfTask::new(0, 1, 2, 3, 3, 2);
        let tuple = Tuple::new(vec![Value::Int(i), Value::Int(j), Value::Double(rating)]);
        let model = task.initial_model();
        step_both_stores(&task, &model, &tuple, alpha)?;
    }

    /// CRF snapshots the model once per sentence; the `snapshot_into`-backed
    /// default and the dense override must produce identical steps.
    #[test]
    fn crf_is_identical_across_stores(
        labels in prop::collection::vec(0u32..2, 1..5),
        alpha in 0.01f64..0.5,
    ) {
        let task = CrfTask::new(0, 2, 2);
        let seq: Vec<(SparseVector, u32)> = labels
            .iter()
            .map(|&y| (SparseVector::from_pairs(vec![(y as usize, 1.0)]), y))
            .collect();
        let tuple = Tuple::new(vec![Value::Sequence(seq)]);
        let model = vec![0.1; task.dimension()];
        step_both_stores(&task, &model, &tuple, alpha)?;
    }
}
