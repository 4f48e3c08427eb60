//! Linear least squares: `½ Σ_i (wᵀx_i − y_i)²`.
//!
//! This is the objective of Example 2.1 and of the 1-D CA-TX analysis
//! (Example 3.1 / Figure 5): with `x_i = 1` and labels `+1` for the first
//! half of the data and `−1` for the second, the optimum is the mean `w = 0`,
//! but IGD run in *clustered* order oscillates between `+1` and `−1` and
//! converges far more slowly than under a random order.

use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::Tuple;

use crate::model::ModelStore;
use crate::task::{ExampleTask, IgdTask, ProximalPolicy};

/// Linear least-squares regression over a feature-vector column and a
/// numeric target column.
#[derive(Debug, Clone)]
pub struct LeastSquaresTask {
    features_col: usize,
    label_col: usize,
    dimension: usize,
    l2: f64,
}

impl LeastSquaresTask {
    /// Create a task reading features from column `features_col` and the
    /// target from `label_col`, with a model of `dimension` coefficients.
    pub fn new(features_col: usize, label_col: usize, dimension: usize) -> Self {
        LeastSquaresTask {
            features_col,
            label_col,
            dimension,
            l2: 0.0,
        }
    }

    /// Add a ridge penalty `(λ/2)‖w‖²`.
    pub fn with_l2(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "L2 penalty must be non-negative");
        self.l2 = lambda;
        self
    }

    /// Predicted value `wᵀx`.
    pub fn predict(model: &[f64], x: FeatureVectorRef<'_>) -> f64 {
        x.dot(model)
    }
}

impl ExampleTask for LeastSquaresTask {
    fn columns(&self) -> (usize, usize) {
        (self.features_col, self.label_col)
    }

    #[inline]
    fn step(&self, model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        let residual = model.dot_view(x) - y;
        model.axpy_view(x, -alpha * residual);
    }

    #[inline]
    fn loss(&self, model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        0.5 * (x.dot(model) - y).powi(2)
    }
}

impl IgdTask for LeastSquaresTask {
    fn name(&self) -> &'static str {
        "LS"
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
        0.5 * self.l2 * model.iter().map(|v| v * v).sum::<f64>()
    }

    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        if self.l2 > 0.0 {
            let shrink = 1.0 / (1.0 + alpha * self.l2);
            for v in model.iter_mut() {
                *v *= shrink;
            }
        }
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        if self.l2 > 0.0 {
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
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    /// Example 2.1: 2n points, x_i = 1, labels ±1. `clustered` puts all the
    /// positive labels before the negative ones (the CA-TX pathology);
    /// otherwise the labels alternate (a benign ordering).
    fn ca_tx_table(n: usize, clustered: bool) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("catx", schema);
        for i in 0..2 * n {
            let y = if clustered {
                if i < n {
                    1.0
                } else {
                    -1.0
                }
            } else if i % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            t.insert(vec![Value::from(vec![1.0]), Value::Double(y)])
                .unwrap();
        }
        t
    }

    #[test]
    fn converges_to_mean_on_interleaved_ca_tx() {
        let t = ca_tx_table(50, false);
        let task = LeastSquaresTask::new(0, 1, 1);
        let mut store = DenseModelStore::new(vec![0.8]);
        // Diminishing step size, several epochs.
        for epoch in 0..200 {
            let alpha = 0.5 / (1.0 + epoch as f64);
            for tuple in t.scan() {
                task.gradient_step(&mut store, tuple, alpha);
            }
        }
        assert!(store.read(0).abs() < 0.05, "w = {}", store.read(0));
    }

    #[test]
    fn clustered_ca_tx_converges_much_more_slowly() {
        // The Figure 5 phenomenon: with the same diminishing schedule, the
        // clustered ordering is still far from the optimum (w = 0) when the
        // interleaved ordering has long since converged.
        let task = LeastSquaresTask::new(0, 1, 1);
        let mut end_of_epoch_w = [0.0f64; 2];
        for (slot, clustered) in [false, true].into_iter().enumerate() {
            let t = ca_tx_table(50, clustered);
            let mut store = DenseModelStore::new(vec![0.8]);
            for epoch in 0..50 {
                let alpha = 0.5 / (1.0 + epoch as f64);
                for tuple in t.scan() {
                    task.gradient_step(&mut store, tuple, alpha);
                }
            }
            end_of_epoch_w[slot] = store.read(0).abs();
        }
        assert!(
            end_of_epoch_w[1] > 5.0 * end_of_epoch_w[0],
            "clustered |w|={} should lag interleaved |w|={}",
            end_of_epoch_w[1],
            end_of_epoch_w[0]
        );
    }

    #[test]
    fn clustered_order_oscillates_within_epoch() {
        // After visiting only the positive half, w is pulled towards +1.
        let t = ca_tx_table(100, true);
        let task = LeastSquaresTask::new(0, 1, 1);
        let mut store = DenseModelStore::zeros(1);
        for tuple in t.scan().take(100) {
            task.gradient_step(&mut store, tuple, 0.2);
        }
        assert!(store.read(0) > 0.5);
        for tuple in t.scan().skip(100) {
            task.gradient_step(&mut store, tuple, 0.2);
        }
        assert!(store.read(0) < 0.0);
    }

    #[test]
    fn fits_a_linear_function() {
        // y = 2*x0 - x1
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("lin", schema);
        let xs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.5, 2.0]];
        for x in xs {
            let y = 2.0 * x[0] - x[1];
            t.insert(vec![Value::from(x.to_vec()), Value::Double(y)])
                .unwrap();
        }
        let task = LeastSquaresTask::new(0, 1, 2);
        let mut store = DenseModelStore::zeros(2);
        for _ in 0..500 {
            for tuple in t.scan() {
                task.gradient_step(&mut store, tuple, 0.05);
            }
        }
        let w = store.into_vec();
        assert!((w[0] - 2.0).abs() < 0.05, "w0 = {}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1 = {}", w[1]);
        let loss: f64 = t.scan().map(|tup| task.example_loss(&w, tup)).sum();
        assert!(loss < 1e-2);
    }

    #[test]
    fn ridge_shrinks_model_per_epoch() {
        let task = LeastSquaresTask::new(0, 1, 2).with_l2(1.0);
        assert_eq!(task.proximal_policy(), ProximalPolicy::PerEpoch);
        let mut w = vec![2.0, -2.0];
        task.proximal_step(&mut w, 1.0);
        assert_eq!(w, vec![1.0, -1.0]);
        assert!((task.regularizer(&[2.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn name_and_predict() {
        let task = LeastSquaresTask::new(0, 1, 2);
        assert_eq!(task.name(), "LS");
        let x = [1.0, 2.0];
        let view = FeatureVectorRef::Dense(&x);
        assert!((LeastSquaresTask::predict(&[3.0, 0.5], view) - 4.0).abs() < 1e-12);
    }
}
