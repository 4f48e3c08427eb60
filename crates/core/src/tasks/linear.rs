//! Linear models: logistic regression (LR), the linear SVM and least squares
//! (LS) are one task, [`LinearTask`], that differ only by their
//! [`LinearLoss`].
//!
//! Every linear model reads a feature vector `x` and a number `y` per row
//! and fits `w` to `Σ_i f(wᵀx_i, y_i) + µ‖w‖₁ + (λ/2)‖w‖²`. What sets the
//! techniques apart is the loss `f` and its gradient step, the transition of
//! Figure 4; the columns, the penalties and their per-epoch proximal step
//! are written once, here. LR and SVM differ by two lines (the margin test
//! replaces the sigmoid):
//!
//! ```c
//! // LR_Transition                    // SVM_Transition
//! wx  = Dot_Product(w, e.x);          wx = Dot_Product(w, e.x);
//! sig = Sigmoid(-wx * e.y);           c  = stepsize * e.y;
//! c   = stepsize * e.y * sig;         if (1 - wx * e.y > 0) {
//! Scale_And_Add(w, e.x, c);             Scale_And_Add(w, e.x, c); }
//! ```
//!
//! Least squares, `½ Σ_i (wᵀx_i − y_i)²`, is the objective of Example 2.1
//! and of the 1-D CA-TX analysis (Example 3.1 / Figure 5): with `x_i = 1` and
//! labels `+1` for the first half of the data and `−1` for the second, the
//! optimum is the mean `w = 0`, but IGD run in *clustered* order oscillates
//! between `+1` and `−1` and converges far more slowly than under a random
//! order.

use std::marker::PhantomData;

use bismarck_linalg::ops::{log1p_exp, sigmoid};
use bismarck_linalg::projection::soft_threshold_vec;
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{ExampleRows, RowBlock, RowRef};

use crate::model::ModelStore;
use crate::task::{IgdTask, LossSink, ProximalPolicy};

/// What one linear technique adds to [`LinearTask`]: its name, its Figure 4
/// transition and its per-example loss.
pub trait LinearLoss {
    /// The task name checkpoints persist (e.g. `"LR"`, `"SVM"`, `"LS"`).
    const NAME: &'static str;

    /// The weight `µ` of the objective's L1 term `µ‖w‖₁`: `f64`, or `()`
    /// when the objective has none (the task then has no
    /// [`LinearTask::with_l1`]).
    type L1: L1Weight;

    /// One incremental gradient step on the example `(x, y)`.
    fn step(model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64);

    /// The loss of `model` on the example `(x, y)`.
    fn loss(model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64;
}

/// The L1 weight a [`LinearTask`] carries: `f64`, or `()` for a loss whose
/// objective has no L1 term.
pub trait L1Weight: Copy + Default + std::fmt::Debug + Send + Sync {
    /// `µ`, or `0.0` without the term.
    fn mu(self) -> f64;

    /// `µ‖w‖₁ + ridge` — at `µ = 0` too, so a non-finite model gives the
    /// same non-finite value whatever `µ` is — or `ridge` without the term.
    fn add_to(self, ridge: f64, model: &[f64]) -> f64;
}

impl L1Weight for f64 {
    fn mu(self) -> f64 {
        self
    }

    fn add_to(self, ridge: f64, model: &[f64]) -> f64 {
        self * model.iter().map(|v| v.abs()).sum::<f64>() + ridge
    }
}

impl L1Weight for () {
    fn mu(self) -> f64 {
        0.0
    }

    fn add_to(self, ridge: f64, _model: &[f64]) -> f64 {
        ridge
    }
}

/// Logistic regression: `f = log(1 + exp(−y wᵀx))`.
#[derive(Debug, Clone)]
pub struct LogisticLoss;

impl LinearLoss for LogisticLoss {
    const NAME: &'static str = "LR";
    type L1 = f64;

    #[inline]
    fn step(model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        let wx = model.dot_view(x);
        let sig = sigmoid(-wx * y);
        let c = alpha * y * sig;
        model.axpy_view(x, c);
    }

    #[inline]
    fn loss(model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        log1p_exp(-y * x.dot(model))
    }
}

/// The linear SVM's hinge loss: `f = (1 − y wᵀx)₊`.
#[derive(Debug, Clone)]
pub struct HingeLoss;

impl LinearLoss for HingeLoss {
    const NAME: &'static str = "SVM";
    type L1 = f64;

    #[inline]
    fn step(model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        let wx = model.dot_view(x);
        if 1.0 - wx * y > 0.0 {
            model.axpy_view(x, alpha * y);
        }
    }

    #[inline]
    fn loss(model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        (1.0 - y * x.dot(model)).max(0.0)
    }
}

/// Least squares: `f = ½ (wᵀx − y)²`.
#[derive(Debug, Clone)]
pub struct SquaredLoss;

impl LinearLoss for SquaredLoss {
    const NAME: &'static str = "LS";
    type L1 = ();

    #[inline]
    fn step(model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        let residual = model.dot_view(x) - y;
        model.axpy_view(x, -alpha * residual);
    }

    #[inline]
    fn loss(model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        0.5 * (x.dot(model) - y).powi(2)
    }
}

/// Binary logistic regression over a feature-vector column and a ±1 label
/// column.
pub type LogisticRegressionTask = LinearTask<LogisticLoss>;

/// Binary linear SVM over a feature-vector column and a ±1 label column.
pub type SvmTask = LinearTask<HingeLoss>;

/// Linear least-squares regression over a feature-vector column and a
/// numeric target column.
pub type LeastSquaresTask = LinearTask<SquaredLoss>;

/// A linear model trained on the loss `L` over a feature-vector column and a
/// label column, with optional L1 and ridge penalties applied by a per-epoch
/// proximal step.
#[derive(Debug, Clone)]
pub struct LinearTask<L: LinearLoss> {
    features_col: usize,
    label_col: usize,
    dimension: usize,
    l1: L::L1,
    l2: f64,
    loss: PhantomData<fn() -> L>,
}

impl<L: LinearLoss> LinearTask<L> {
    /// Create a task reading features from column `features_col` and the
    /// label from `label_col`, with a model of `dimension` coefficients.
    pub fn new(features_col: usize, label_col: usize, dimension: usize) -> Self {
        LinearTask {
            features_col,
            label_col,
            dimension,
            l1: L::L1::default(),
            l2: 0.0,
            loss: PhantomData,
        }
    }

    /// Add a ridge penalty `(λ/2)‖w‖²` (per-epoch shrinkage).
    pub fn with_l2(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "L2 penalty must be non-negative");
        self.l2 = lambda;
        self
    }

    /// The row's example, or `None` when its features or label is NULL (or
    /// not a vector / a number).
    // `inline(always)`: called out of line, the example comes back through
    // memory on every row (≈ +20 ns/row on a row-store LR pass).
    #[inline(always)]
    fn example<'t>(&self, row: RowRef<'t>) -> Option<(FeatureVectorRef<'t>, f64)> {
        Some((
            row.feature_view(self.features_col)?,
            row.get_double(self.label_col)?,
        ))
    }

    /// The examples of `block` lent straight out of its columns: `Some` for
    /// a columnar block that stores the features as `DENSE_VEC` /
    /// `SPARSE_VEC` and the label as `DOUBLE` / `INT` (see
    /// [`RowBlock::examples`]). The block methods step on those with the
    /// example kernel; any other block goes row by row.
    fn lent<'b>(&self, block: RowBlock<'b>) -> Option<ExampleRows<'b>> {
        block.examples(self.features_col, self.label_col)
    }
}

impl<L: LinearLoss<L1 = f64>> LinearTask<L> {
    /// Add an L1 penalty `µ‖w‖₁` (per-epoch soft thresholding). A loss
    /// whose objective has no L1 term has no such method:
    ///
    /// ```compile_fail
    /// # use bismarck_core::tasks::LeastSquaresTask;
    /// let _ = LeastSquaresTask::new(0, 1, 1).with_l1(0.1);
    /// ```
    pub fn with_l1(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "L1 penalty must be non-negative");
        self.l1 = mu;
        self
    }
}

impl<L: LinearLoss> IgdTask for LinearTask<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn dimension(&self) -> usize {
        self.dimension
    }

    #[inline]
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        if let Some((x, y)) = self.example(row) {
            L::step(model, x, y, alpha);
        }
    }

    #[inline]
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        match self.example(row) {
            Some((x, y)) => L::loss(model, x, y),
            None => 0.0,
        }
    }

    /// The per-example kernel on the examples the block lends, the same
    /// calls in the same order as a step per row.
    #[inline]
    fn step_block<M: ModelStore>(&self, model: &mut M, block: RowBlock<'_>, alpha: f64) {
        match self.lent(block) {
            Some(rows) => {
                for i in 0..rows.len() {
                    if let Some((x, y)) = rows.get(i) {
                        L::step(model, x, y, alpha);
                    }
                }
            }
            None => block
                .rows()
                .for_each(|row| self.gradient_step(model, row, alpha)),
        }
    }

    #[inline]
    fn add_losses(&self, model: &[f64], block: RowBlock<'_>, sink: &mut LossSink<'_>) {
        match self.lent(block) {
            Some(rows) => sink.extend(rows.iter().map(|example| match example {
                Some((x, y)) => L::loss(model, x, y),
                None => 0.0,
            })),
            None => sink.extend(block.rows().map(|row| self.example_loss(model, row))),
        }
    }

    /// `µ‖w‖₁ + (λ/2)‖w‖²`, the first term only when the objective has one.
    fn regularizer(&self, model: &[f64]) -> f64 {
        let l2 = 0.5 * self.l2 * model.iter().map(|v| v * v).sum::<f64>();
        self.l1.add_to(l2, model)
    }

    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        if self.l2 > 0.0 {
            let shrink = 1.0 / (1.0 + alpha * self.l2);
            for v in model.iter_mut() {
                *v *= shrink;
            }
        }
        if self.l1.mu() > 0.0 {
            soft_threshold_vec(model, alpha * self.l1.mu());
        }
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        if self.l1.mu() > 0.0 || self.l2 > 0.0 {
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
    use bismarck_storage::{Column, ColumnarTable, DataType, Schema, Table, TupleScan, Value};

    /// A `(vec DENSE_VEC, label DOUBLE)` table holding `rows` in order.
    fn table(rows: &[(Vec<f64>, f64)]) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("linear", schema);
        for (x, y) in rows {
            t.insert(vec![Value::from(x.clone()), Value::Double(*y)])
                .unwrap();
        }
        t
    }

    /// `epochs` passes over `table` in storage order at step `alpha`, each
    /// followed by the proximal step.
    fn train(task: &dyn IgdTask, table: &Table, epochs: usize, alpha: f64) -> Vec<f64> {
        let mut store = DenseModelStore::zeros(task.dimension());
        for _ in 0..epochs {
            for tuple in table.scan() {
                task.gradient_step(&mut store, tuple.into(), alpha);
            }
            let mut model = store.into_vec();
            task.proximal_step(&mut model, alpha);
            store = DenseModelStore::new(model);
        }
        store.into_vec()
    }

    fn total_loss(task: &dyn IgdTask, model: &[f64], table: &Table) -> f64 {
        table
            .scan()
            .map(|t| task.example_loss(model, t.into()))
            .sum()
    }

    /// `wᵀx` of every row of `table` times its label.
    fn margins(model: &[f64], table: &Table) -> Vec<f64> {
        table
            .scan()
            .map(|t| t.feature_view(0).unwrap().dot(model) * t.get_double(1).unwrap())
            .collect()
    }

    #[test]
    fn every_loss_shares_the_ridge_step_and_skips_rows_without_an_example() {
        let tasks: [(&str, &dyn IgdTask, &dyn IgdTask); 3] = [
            (
                "LR",
                &LogisticRegressionTask::new(0, 1, 2),
                &LogisticRegressionTask::new(0, 1, 2).with_l2(1.0),
            ),
            (
                "SVM",
                &SvmTask::new(0, 1, 2),
                &SvmTask::new(0, 1, 2).with_l2(1.0),
            ),
            (
                "LS",
                &LeastSquaresTask::new(0, 1, 2),
                &LeastSquaresTask::new(0, 1, 2).with_l2(1.0),
            ),
        ];
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
        let mut no_example = Table::new("bad", schema);
        no_example.insert(vec![Value::Int(1)]).unwrap();
        let row = RowRef::from(no_example.get(0).unwrap());
        for (name, plain, ridge) in tasks {
            assert_eq!(plain.name(), name);
            assert_eq!(plain.proximal_policy(), ProximalPolicy::None, "{name}");
            assert_eq!(plain.regularizer(&[3.0, -1.0]), 0.0, "{name}");
            let mut store = DenseModelStore::zeros(2);
            plain.gradient_step(&mut store, row, 0.1);
            assert_eq!(store.as_slice(), &[0.0, 0.0], "{name}");
            assert_eq!(plain.example_loss(&[1.0, 1.0], row), 0.0, "{name}");

            assert_eq!(ridge.proximal_policy(), ProximalPolicy::PerEpoch, "{name}");
            let mut w = vec![2.0, -2.0];
            ridge.proximal_step(&mut w, 1.0);
            assert_eq!(w, [1.0, -1.0], "{name}");
            assert_eq!(ridge.regularizer(&[2.0, 0.0]), 2.0, "{name}");
            // `0·∞` is NaN: with an L1 term the objective reports NaN for an
            // infinite model even at `µ = 0`; least squares, without one, ∞.
            let at_inf = ridge.regularizer(&[f64::INFINITY, 0.0]);
            assert_eq!(at_inf.is_nan(), name != "LS", "{name}: {at_inf}");
        }
    }

    #[test]
    fn l1_soft_thresholds_and_adds_to_the_ridge_term() {
        let tasks: [&dyn IgdTask; 2] = [
            &LogisticRegressionTask::new(0, 1, 3).with_l1(1.0),
            &SvmTask::new(0, 1, 3).with_l1(1.0),
        ];
        for task in tasks {
            assert_eq!(task.proximal_policy(), ProximalPolicy::PerEpoch);
            let mut w = vec![0.05, -2.0, 0.5];
            task.proximal_step(&mut w, 0.1);
            assert_eq!(w[0], 0.0);
            assert!(w[1] < 0.0 && w[1] > -2.0);
        }
        let tasks: [&dyn IgdTask; 2] = [
            &LogisticRegressionTask::new(0, 1, 2)
                .with_l1(2.0)
                .with_l2(4.0),
            &SvmTask::new(0, 1, 2).with_l1(2.0).with_l2(4.0),
        ];
        for task in tasks {
            // l1: 2·(1 + 1) = 4; l2: ½·4·(1 + 1) = 4.
            assert_eq!(task.regularizer(&[1.0, -1.0]), 8.0, "{}", task.name());
        }
    }

    #[test]
    fn classifiers_lower_their_loss_and_separate_the_classes() {
        let lr_rows = table(&[
            (vec![2.0, 0.5], 1.0),
            (vec![1.5, -0.3], 1.0),
            (vec![1.0, 1.0], 1.0),
            (vec![-2.0, 0.2], -1.0),
            (vec![-1.0, -0.5], -1.0),
            (vec![-1.5, 0.8], -1.0),
        ]);
        let svm_rows = table(&[
            (vec![2.0, 1.0], 1.0),
            (vec![1.5, 2.0], 1.0),
            (vec![3.0, 0.5], 1.0),
            (vec![-2.0, -1.0], -1.0),
            (vec![-1.5, -2.0], -1.0),
            (vec![-3.0, -0.5], -1.0),
        ]);
        // (task, rows, step, loss bound as a share of the zero model's,
        // epochs before the loss check, epochs before the separation check)
        let runs: [(&dyn IgdTask, &Table, f64, f64, usize, usize); 2] = [
            (
                &LogisticRegressionTask::new(0, 1, 2),
                &lr_rows,
                0.5,
                0.5,
                50,
                100,
            ),
            (&SvmTask::new(0, 1, 2), &svm_rows, 0.1, 1.0, 50, 50),
        ];
        for (task, rows, alpha, shrink, loss_epochs, separate_epochs) in runs {
            let initial = total_loss(task, &[0.0, 0.0], rows);
            let model = train(task, rows, loss_epochs, alpha);
            let trained = total_loss(task, &model, rows);
            assert!(
                trained < initial * shrink,
                "{}: {trained} vs {initial}",
                task.name()
            );
            let model = train(task, rows, separate_epochs, alpha);
            assert!(
                margins(&model, rows).iter().all(|&m| m > 0.0),
                "{}",
                task.name()
            );
        }
    }

    #[test]
    fn logistic_step_touches_only_a_sparse_rows_coordinates() {
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
        task.gradient_step(&mut store, t.get(0).unwrap().into(), 0.1);
        let w = store.into_vec();
        assert!(w[2] > 0.0);
        assert!(w.iter().enumerate().all(|(i, &v)| i == 2 || v == 0.0));
    }

    #[test]
    fn svm_steps_only_inside_the_margin() {
        let task = SvmTask::new(0, 1, 2);
        // Outside the margin (w·x·y = 2 > 1): no step, zero hinge loss.
        let t = table(&[(vec![1.0, 0.0], 1.0)]);
        let mut store = DenseModelStore::new(vec![2.0, 0.0]);
        task.gradient_step(&mut store, t.get(0).unwrap().into(), 0.5);
        assert_eq!(store.as_slice(), &[2.0, 0.0]);
        assert_eq!(
            task.example_loss(&[2.0, 0.0], t.get(0).unwrap().into()),
            0.0
        );
        // Inside it: a negative example pushes the coefficient down.
        let t = table(&[(vec![1.0, 0.0], -1.0)]);
        let mut store = DenseModelStore::new(vec![0.5, 0.0]);
        task.gradient_step(&mut store, t.get(0).unwrap().into(), 0.1);
        assert!(store.read(0) < 0.5);
    }

    /// Example 2.1: 2n points, x_i = 1, labels ±1. `clustered` puts all the
    /// positive labels before the negative ones (the CA-TX pathology);
    /// otherwise the labels alternate (a benign ordering).
    fn ca_tx_table(n: usize, clustered: bool) -> Table {
        let rows: Vec<_> = (0..2 * n)
            .map(|i| {
                let positive = if clustered { i < n } else { i % 2 == 0 };
                (vec![1.0], if positive { 1.0 } else { -1.0 })
            })
            .collect();
        table(&rows)
    }

    /// `|w|` after `epochs` passes over CA-TX from `w = 0.8` at the
    /// diminishing step `0.5 / (1 + epoch)`.
    fn ca_tx_distance_from_optimum(clustered: bool, epochs: usize) -> f64 {
        let t = ca_tx_table(50, clustered);
        let task = LeastSquaresTask::new(0, 1, 1);
        let mut store = DenseModelStore::new(vec![0.8]);
        for epoch in 0..epochs {
            let alpha = 0.5 / (1.0 + epoch as f64);
            for tuple in t.scan() {
                task.gradient_step(&mut store, tuple.into(), alpha);
            }
        }
        store.read(0).abs()
    }

    #[test]
    fn least_squares_converges_to_the_mean_on_interleaved_ca_tx() {
        let w = ca_tx_distance_from_optimum(false, 200);
        assert!(w < 0.05, "|w| = {w}");
    }

    #[test]
    fn clustered_ca_tx_converges_much_more_slowly() {
        // The Figure 5 phenomenon: with the same diminishing schedule, the
        // clustered ordering is still far from the optimum (w = 0) when the
        // interleaved ordering has long since converged.
        let interleaved = ca_tx_distance_from_optimum(false, 50);
        let clustered = ca_tx_distance_from_optimum(true, 50);
        assert!(
            clustered > 5.0 * interleaved,
            "clustered |w|={clustered} should lag interleaved |w|={interleaved}"
        );
    }

    #[test]
    fn clustered_order_oscillates_within_epoch() {
        // After visiting only the positive half, w is pulled towards +1.
        let t = ca_tx_table(100, true);
        let task = LeastSquaresTask::new(0, 1, 1);
        let mut store = DenseModelStore::zeros(1);
        for tuple in t.scan().take(100) {
            task.gradient_step(&mut store, tuple.into(), 0.2);
        }
        assert!(store.read(0) > 0.5);
        for tuple in t.scan().skip(100) {
            task.gradient_step(&mut store, tuple.into(), 0.2);
        }
        assert!(store.read(0) < 0.0);
    }

    #[test]
    fn least_squares_fits_a_linear_function() {
        // y = 2*x0 - x1
        let xs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.5, 2.0]];
        let t = table(&xs.map(|x| (x.to_vec(), 2.0 * x[0] - x[1])));
        let task = LeastSquaresTask::new(0, 1, 2);
        let w = train(&task, &t, 500, 0.05);
        assert!((w[0] - 2.0).abs() < 0.05, "w0 = {}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1 = {}", w[1]);
        assert!(total_loss(&task, &w, &t) < 1e-2);
    }

    /// Which blocks a linear task steps on with its example kernel: a
    /// columnar block whose features are `DENSE_VEC` / `SPARSE_VEC` and
    /// whose label is `DOUBLE` / `INT`. A row-store block, and any other
    /// column layout, goes row by row — to the same bits.
    #[test]
    fn the_example_kernel_takes_the_blocks_that_lend_both_columns() {
        let schema = Schema::new(vec![
            Column::nullable("dense", DataType::DenseVec),
            Column::nullable("sparse", DataType::SparseVec),
            Column::nullable("y", DataType::Double),
            Column::nullable("k", DataType::Int),
            Column::nullable("text", DataType::Text),
        ])
        .unwrap();
        let mut rows = Table::new("blocks", schema.clone());
        for i in 0..40 {
            let y = if i % 3 == 0 { 1.0 } else { -1.0 };
            let null_or = |keep: bool, value: Value| if keep { value } else { Value::Null };
            rows.insert(vec![
                null_or(i % 7 != 0, Value::from(vec![y + 0.1 * i as f64, -0.5])),
                null_or(
                    i % 5 != 0,
                    SparseVector::from_pairs(vec![(i % 3, y)]).into(),
                ),
                null_or(i % 11 != 0, Value::Double(y)),
                Value::Int(i as i64 % 2 * 2 - 1),
                Value::from("not a vector"),
            ])
            .unwrap();
        }
        let mut columns = ColumnarTable::with_chunk_capacity("blocks", schema, 16);
        columns
            .insert_all(rows.scan().map(|t| t.values().to_vec()))
            .unwrap();
        // (features, label) → whether a columnar block lends both.
        let pairs = [
            ((0, 2), true),
            ((1, 2), true),
            ((0, 3), true),
            ((1, 3), true),
            ((4, 2), false),
            ((0, 4), false),
        ];
        for ((features, label), lends) in pairs {
            let task = SvmTask::new(features, label, 3);
            let walk = |data: &dyn TupleScan, lent: bool| {
                let mut by_block = DenseModelStore::new(vec![0.1, -0.2, 0.3]);
                let mut by_row = by_block.clone();
                data.scan_blocks(0, usize::MAX, &mut |block| {
                    assert_eq!(
                        task.lent(block).map(|rows| rows.len()),
                        lent.then_some(block.len()),
                        "({features}, {label})"
                    );
                    task.step_block(&mut by_block, block, 0.5);
                    for row in block.rows() {
                        task.gradient_step(&mut by_row, row, 0.5);
                    }
                    true
                });
                assert_eq!(by_block, by_row, "({features}, {label})");
            };
            walk(&rows, false);
            walk(&columns, lends);
        }
    }
}
