//! Logistic regression (LR).
//!
//! Objective (Figure 1(B)): `Σ_i log(1 + exp(−y_i wᵀx_i)) + µ‖w‖₁`, with an
//! optional ridge term `(λ/2)‖w‖²` folded into the per-epoch proximal step.
//! The transition is the paper's Figure 4 `LR_Transition`:
//!
//! ```c
//! wx  = Dot_Product(w, e.x);
//! sig = Sigmoid(-wx * e.y);
//! c   = stepsize * e.y * sig;
//! Scale_And_Add(w, e.x, c);
//! ```

use bismarck_linalg::ops::{log1p_exp, sigmoid};
use bismarck_linalg::projection::soft_threshold_vec;
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::Tuple;

use crate::model::ModelStore;
use crate::task::{ExampleTask, IgdTask, ProximalPolicy};

/// Binary logistic regression over a feature-vector column and a ±1 label
/// column.
#[derive(Debug, Clone)]
pub struct LogisticRegressionTask {
    features_col: usize,
    label_col: usize,
    dimension: usize,
    l1: f64,
    l2: f64,
}

impl LogisticRegressionTask {
    /// Create a task reading features from column `features_col` and the ±1
    /// label from `label_col`, with a model of `dimension` coefficients.
    pub fn new(features_col: usize, label_col: usize, dimension: usize) -> Self {
        LogisticRegressionTask {
            features_col,
            label_col,
            dimension,
            l1: 0.0,
            l2: 0.0,
        }
    }

    /// Add an L1 penalty `µ‖w‖₁` (applied via per-epoch soft thresholding).
    pub fn with_l1(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "L1 penalty must be non-negative");
        self.l1 = mu;
        self
    }

    /// Add a ridge penalty `(λ/2)‖w‖²` (applied via per-epoch shrinkage).
    pub fn with_l2(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "L2 penalty must be non-negative");
        self.l2 = lambda;
        self
    }

    /// Predicted probability of the positive class for a feature vector.
    pub fn predict_probability(model: &[f64], x: FeatureVectorRef<'_>) -> f64 {
        sigmoid(x.dot(model))
    }
}

impl ExampleTask for LogisticRegressionTask {
    fn columns(&self) -> (usize, usize) {
        (self.features_col, self.label_col)
    }

    #[inline]
    fn step(&self, model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        // Figure 4 LR_Transition, as two bulk kernels on the store.
        let wx = model.dot_view(x);
        let sig = sigmoid(-wx * y);
        let c = alpha * y * sig;
        model.axpy_view(x, c);
    }

    #[inline]
    fn loss(&self, model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        log1p_exp(-y * x.dot(model))
    }
}

impl IgdTask for LogisticRegressionTask {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn dimension(&self) -> usize {
        self.dimension
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, tuple: &Tuple, alpha: f64) {
        self.step_tuple(model, tuple, alpha);
    }

    fn example_loss(&self, model: &[f64], tuple: &Tuple) -> f64 {
        self.loss_tuple(model, tuple)
    }

    fn examples(&self) -> Option<&dyn ExampleTask> {
        Some(self)
    }

    fn regularizer(&self, model: &[f64]) -> f64 {
        let l1 = self.l1 * model.iter().map(|v| v.abs()).sum::<f64>();
        let l2 = 0.5 * self.l2 * model.iter().map(|v| v * v).sum::<f64>();
        l1 + l2
    }

    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        if self.l2 > 0.0 {
            let shrink = 1.0 / (1.0 + alpha * self.l2);
            for v in model.iter_mut() {
                *v *= shrink;
            }
        }
        if self.l1 > 0.0 {
            soft_threshold_vec(model, alpha * self.l1);
        }
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        if self.l1 > 0.0 || self.l2 > 0.0 {
            ProximalPolicy::PerEpoch
        } else {
            ProximalPolicy::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DenseModelStore;
    use bismarck_linalg::SparseVector;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    fn dense_table() -> Table {
        // Linearly separable 2-D data: label = sign of first coordinate.
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("lr", schema);
        let pts = [
            (vec![2.0, 0.5], 1.0),
            (vec![1.5, -0.3], 1.0),
            (vec![1.0, 1.0], 1.0),
            (vec![-2.0, 0.2], -1.0),
            (vec![-1.0, -0.5], -1.0),
            (vec![-1.5, 0.8], -1.0),
        ];
        for (x, y) in pts {
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    fn train(task: &LogisticRegressionTask, table: &Table, epochs: usize, alpha: f64) -> Vec<f64> {
        let mut store = DenseModelStore::zeros(task.dimension());
        for _ in 0..epochs {
            for tuple in table.scan() {
                task.gradient_step(&mut store, tuple, alpha);
            }
            let mut model = store.into_vec();
            task.proximal_step(&mut model, alpha);
            store = DenseModelStore::new(model);
        }
        store.into_vec()
    }

    #[test]
    fn loss_decreases_with_training() {
        let t = dense_table();
        let task = LogisticRegressionTask::new(0, 1, 2);
        let zero = vec![0.0, 0.0];
        let initial: f64 = t.scan().map(|tup| task.example_loss(&zero, tup)).sum();
        let model = train(&task, &t, 50, 0.5);
        let trained: f64 = t.scan().map(|tup| task.example_loss(&model, tup)).sum();
        assert!(
            trained < initial * 0.5,
            "trained {trained} vs initial {initial}"
        );
    }

    #[test]
    fn trained_model_separates_classes() {
        let t = dense_table();
        let task = LogisticRegressionTask::new(0, 1, 2);
        let model = train(&task, &t, 100, 0.5);
        for tuple in t.scan() {
            let x = tuple.feature_view(0).unwrap();
            let y = tuple.get_double(1).unwrap();
            let p = LogisticRegressionTask::predict_probability(&model, x);
            if y > 0.0 {
                assert!(p > 0.5, "positive example classified {p}");
            } else {
                assert!(p < 0.5, "negative example classified {p}");
            }
        }
    }

    #[test]
    fn sparse_features_only_touch_their_coordinates() {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::SparseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("lr_sparse", schema);
        t.insert(vec![
            Value::from(SparseVector::from_pairs(vec![(2, 1.0)])),
            Value::Double(1.0),
        ])
        .unwrap();
        let task = LogisticRegressionTask::new(0, 1, 5);
        let mut store = DenseModelStore::zeros(5);
        task.gradient_step(&mut store, t.get(0).unwrap(), 0.1);
        let w = store.into_vec();
        assert!(w[2] > 0.0);
        assert!(w.iter().enumerate().all(|(i, &v)| i == 2 || v == 0.0));
    }

    #[test]
    fn l1_proximal_sparsifies() {
        let task = LogisticRegressionTask::new(0, 1, 3).with_l1(1.0);
        assert_eq!(task.proximal_policy(), ProximalPolicy::PerEpoch);
        let mut w = vec![0.05, -2.0, 0.5];
        task.proximal_step(&mut w, 0.1);
        assert_eq!(w[0], 0.0);
        assert!(w[1] < 0.0 && w[1] > -2.0);
    }

    #[test]
    fn l2_proximal_shrinks() {
        let task = LogisticRegressionTask::new(0, 1, 2).with_l2(1.0);
        let mut w = vec![1.0, -1.0];
        task.proximal_step(&mut w, 1.0);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert!((w[1] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn regularizer_combines_l1_and_l2() {
        let task = LogisticRegressionTask::new(0, 1, 2)
            .with_l1(2.0)
            .with_l2(4.0);
        let w = vec![1.0, -1.0];
        // l1: 2*(1+1)=4; l2: 0.5*4*(1+1)=4
        assert!((task.regularizer(&w) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn missing_columns_are_ignored() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let mut t = Table::new("bad", schema);
        t.insert(vec![Value::Int(1)]).unwrap();
        let task = LogisticRegressionTask::new(0, 1, 2);
        let mut store = DenseModelStore::zeros(2);
        task.gradient_step(&mut store, t.get(0).unwrap(), 0.1);
        assert_eq!(store.as_slice(), &[0.0, 0.0]);
        assert_eq!(task.example_loss(&[0.0, 0.0], t.get(0).unwrap()), 0.0);
    }

    #[test]
    fn without_regularization_policy_is_none() {
        let task = LogisticRegressionTask::new(0, 1, 2);
        assert_eq!(task.proximal_policy(), ProximalPolicy::None);
        assert_eq!(task.name(), "LR");
        assert_eq!(task.regularizer(&[3.0]), 0.0);
    }
}
