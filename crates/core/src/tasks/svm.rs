//! Linear support vector machine classification (SVM).
//!
//! Objective (Figure 1(B)): `Σ_i (1 − y_i wᵀx_i)₊ + µ‖w‖₁` — the hinge loss
//! with an optional L1 penalty; a ridge penalty is also supported since the
//! classic soft-margin SVM uses `(λ/2)‖w‖²`.
//!
//! The transition is the paper's Figure 4 `SVM_Transition` and differs from
//! logistic regression by two lines (the margin test replaces the sigmoid):
//!
//! ```c
//! wx = Dot_Product(w, e.x);
//! c  = stepsize * e.y;
//! if (1 - wx * e.y > 0) { Scale_And_Add(w, e.x, c); }
//! ```

use bismarck_linalg::projection::soft_threshold_vec;
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::Tuple;

use crate::model::ModelStore;
use crate::task::{ExampleTask, IgdTask, ProximalPolicy};

/// Binary linear SVM over a feature-vector column and a ±1 label column.
#[derive(Debug, Clone)]
pub struct SvmTask {
    features_col: usize,
    label_col: usize,
    dimension: usize,
    l1: f64,
    l2: f64,
}

impl SvmTask {
    /// Create a task reading features from column `features_col` and the ±1
    /// label from `label_col`, with a model of `dimension` coefficients.
    pub fn new(features_col: usize, label_col: usize, dimension: usize) -> Self {
        SvmTask {
            features_col,
            label_col,
            dimension,
            l1: 0.0,
            l2: 0.0,
        }
    }

    /// Add an L1 penalty `µ‖w‖₁` (per-epoch soft thresholding).
    pub fn with_l1(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "L1 penalty must be non-negative");
        self.l1 = mu;
        self
    }

    /// Add a ridge penalty `(λ/2)‖w‖²` (per-epoch shrinkage).
    pub fn with_l2(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "L2 penalty must be non-negative");
        self.l2 = lambda;
        self
    }

    /// Decision value `wᵀx`; the predicted class is its sign.
    pub fn decision_value(model: &[f64], x: FeatureVectorRef<'_>) -> f64 {
        x.dot(model)
    }
}

impl ExampleTask for SvmTask {
    fn columns(&self) -> (usize, usize) {
        (self.features_col, self.label_col)
    }

    #[inline]
    fn step(&self, model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        // Figure 4 SVM_Transition: the margin test replaces LR's sigmoid.
        let wx = model.dot_view(x);
        if 1.0 - wx * y > 0.0 {
            model.axpy_view(x, alpha * y);
        }
    }

    #[inline]
    fn loss(&self, model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        (1.0 - y * x.dot(model)).max(0.0)
    }
}

impl IgdTask for SvmTask {
    fn name(&self) -> &'static str {
        "SVM"
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
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("svm", schema);
        let pts = [
            (vec![2.0, 1.0], 1.0),
            (vec![1.5, 2.0], 1.0),
            (vec![3.0, 0.5], 1.0),
            (vec![-2.0, -1.0], -1.0),
            (vec![-1.5, -2.0], -1.0),
            (vec![-3.0, -0.5], -1.0),
        ];
        for (x, y) in pts {
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    fn train(task: &SvmTask, table: &Table, epochs: usize, alpha: f64) -> Vec<f64> {
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
    fn hinge_loss_decreases_and_classes_separate() {
        let t = table();
        let task = SvmTask::new(0, 1, 2);
        let zero = vec![0.0; 2];
        let initial: f64 = t.scan().map(|tup| task.example_loss(&zero, tup)).sum();
        let model = train(&task, &t, 50, 0.1);
        let trained: f64 = t.scan().map(|tup| task.example_loss(&model, tup)).sum();
        assert!(trained < initial);
        for tuple in t.scan() {
            let x = tuple.feature_view(0).unwrap();
            let y = tuple.get_double(1).unwrap();
            assert!(SvmTask::decision_value(&model, x) * y > 0.0);
        }
    }

    #[test]
    fn no_update_when_margin_satisfied() {
        let task = SvmTask::new(0, 1, 2);
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("svm1", schema);
        t.insert(vec![Value::from(vec![1.0, 0.0]), Value::Double(1.0)])
            .unwrap();
        // Model already classifies with margin > 1: w.x*y = 2 > 1.
        let mut store = DenseModelStore::new(vec![2.0, 0.0]);
        task.gradient_step(&mut store, t.get(0).unwrap(), 0.5);
        assert_eq!(store.as_slice(), &[2.0, 0.0]);
        // hinge loss is zero
        assert_eq!(task.example_loss(&[2.0, 0.0], t.get(0).unwrap()), 0.0);
    }

    #[test]
    fn update_applied_inside_margin() {
        let task = SvmTask::new(0, 1, 2);
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("svm1", schema);
        t.insert(vec![Value::from(vec![1.0, 0.0]), Value::Double(-1.0)])
            .unwrap();
        let mut store = DenseModelStore::new(vec![0.5, 0.0]);
        task.gradient_step(&mut store, t.get(0).unwrap(), 0.1);
        // negative example pushes the coefficient down
        assert!(store.read(0) < 0.5);
    }

    #[test]
    fn regularizers_and_policy() {
        let plain = SvmTask::new(0, 1, 2);
        assert_eq!(plain.proximal_policy(), ProximalPolicy::None);
        let reg = SvmTask::new(0, 1, 2).with_l1(1.0).with_l2(2.0);
        assert_eq!(reg.proximal_policy(), ProximalPolicy::PerEpoch);
        let w = vec![2.0, -2.0];
        // l1 = 1*4, l2 = 0.5*2*8 = 8
        assert!((reg.regularizer(&w) - 12.0).abs() < 1e-12);
        let mut wm = w.clone();
        reg.proximal_step(&mut wm, 0.5);
        assert!(wm[0].abs() < w[0].abs());
    }

    #[test]
    fn name_is_svm() {
        assert_eq!(SvmTask::new(0, 1, 2).name(), "SVM");
    }
}
