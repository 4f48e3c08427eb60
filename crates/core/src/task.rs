//! The task abstraction: what a developer writes to add a new analytics
//! technique to Bismarck.
//!
//! Figure 4 of the paper shows that the LR and SVM implementations differ in
//! only a few lines inside the transition function. We capture that with
//! [`IgdTask`]: a task declares its model dimension and initial model, a
//! per-example **gradient step** (Equation 2), a per-example **loss** term,
//! an optional **regularizer** `P(w)`, and an optional **proximal step**
//! `Π_{αP}` (Appendix A). Everything else — epochs, ordering, parallelism,
//! convergence, persistence — is shared infrastructure.
//!
//! A task whose step and loss depend on a row only through one (feature
//! vector, label) pair — every [`crate::tasks::LinearTask`]: LR, SVM, least
//! squares — is also an [`ExampleTask`] and declares it through
//! [`IgdTask::examples`]; the storage-order passes over a columnar table then
//! feed it examples borrowed from the stored columns instead of a tuple
//! rebuilt per row.

use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{ExampleRows, Tuple};

use crate::model::ModelStore;

/// When the proximal / projection operator is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProximalPolicy {
    /// The task has no proximal operator (P = 0 or P folded into the
    /// gradient, e.g. L2 regularization).
    None,
    /// Apply the proximal operator after every gradient step. Required for
    /// hard constraints such as the portfolio simplex.
    PerStep,
    /// Apply the proximal operator once at the end of each epoch. Used by
    /// soft regularizers (e.g. L1) where a per-step application is
    /// unnecessarily expensive, and by the shared-memory parallel executors
    /// where a dense per-step projection would serialize the workers.
    PerEpoch,
}

/// An analytics task expressed as an incremental-gradient program.
///
/// Implementations must be cheap to share across threads: the parallel
/// executors call [`IgdTask::gradient_step`] concurrently from several
/// workers against a shared model store.
pub trait IgdTask: Send + Sync {
    /// Short task name used in experiment output (e.g. `"LR"`, `"SVM"`).
    fn name(&self) -> &'static str;

    /// Dimension of the flat model vector.
    fn dimension(&self) -> usize;

    /// The initial model (usually all zeros, or a model carried over from a
    /// previous training run).
    fn initial_model(&self) -> Vec<f64> {
        vec![0.0; self.dimension()]
    }

    /// Perform one incremental gradient step on one example:
    /// `w ← w − α ∇f_i(w)`, expressed through the model store so the same
    /// code runs sequentially, under a lock, or against shared memory.
    fn gradient_step(&self, model: &mut dyn ModelStore, tuple: &Tuple, alpha: f64);

    /// The loss term `f_i(w)` contributed by one example (excluding the
    /// regularizer `P`).
    fn example_loss(&self, model: &[f64], tuple: &Tuple) -> f64;

    /// The regularizer `P(w)` added once per objective evaluation.
    fn regularizer(&self, _model: &[f64]) -> f64 {
        0.0
    }

    /// The proximal operator `Π_{αP}` applied according to
    /// [`IgdTask::proximal_policy`]. Default: identity.
    fn proximal_step(&self, _model: &mut [f64], _alpha: f64) {}

    /// How often the proximal operator should be applied.
    fn proximal_policy(&self) -> ProximalPolicy {
        ProximalPolicy::None
    }

    /// `Some` when a row enters [`IgdTask::gradient_step`] and
    /// [`IgdTask::example_loss`] only as one (feature vector, label) example:
    /// a storage-order pass over a columnar table then runs
    /// [`ExampleTask::step`] / [`ExampleTask::loss`] on examples borrowed
    /// from the stored columns instead of on a tuple rebuilt per row. The default `None` keeps every
    /// row on the per-tuple methods — so a wrapper that intercepts those and
    /// does not forward this one still sees every step.
    fn examples(&self) -> Option<&dyn ExampleTask> {
        None
    }
}

/// The step and the loss of a task on one `(x, y)` example, wherever the
/// example is borrowed from. The block forms are provided on top; the
/// task's per-tuple [`IgdTask`] methods run the same two on the row's
/// example, so the per-example arithmetic is the same kernel calls in the
/// same order whichever way a row arrives.
///
/// A row whose features or label is NULL (or not a vector / a number) is no
/// example: it takes no step and contributes exactly `0.0` to the loss.
pub trait ExampleTask: Sync {
    /// Ordinal positions of the (features, label) columns.
    fn columns(&self) -> (usize, usize);

    /// One incremental gradient step on one example.
    fn step(&self, model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64);

    /// The loss term of one example.
    fn loss(&self, model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64;

    /// One step per example of `rows`, in order.
    fn step_rows(&self, model: &mut dyn ModelStore, rows: &ExampleRows<'_>, alpha: f64) {
        for i in 0..rows.len() {
            if let Some((x, y)) = rows.get(i) {
                self.step(model, x, y, alpha);
            }
        }
    }

    /// `total` plus the loss of every row of `rows`, added one by one in
    /// order (the sum the per-tuple loss pass forms, bit for bit).
    fn add_losses(&self, model: &[f64], rows: &ExampleRows<'_>, mut total: f64) -> f64 {
        for example in rows.iter() {
            total += match example {
                Some((x, y)) => self.loss(model, x, y),
                None => 0.0,
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DenseModelStore;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    /// A toy task: 1-D mean estimation, `f_i(w) = 0.5 (w - y_i)^2`.
    struct MeanTask;

    impl IgdTask for MeanTask {
        fn name(&self) -> &'static str {
            "MEAN"
        }
        fn dimension(&self) -> usize {
            1
        }
        fn gradient_step(&self, model: &mut dyn ModelStore, tuple: &Tuple, alpha: f64) {
            let y = tuple.get_double(0).unwrap_or(0.0);
            let w = model.read(0);
            model.update(0, -alpha * (w - y));
        }
        fn example_loss(&self, model: &[f64], tuple: &Tuple) -> f64 {
            let y = tuple.get_double(0).unwrap_or(0.0);
            0.5 * (model[0] - y).powi(2)
        }
    }

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Column::new("y", DataType::Double)]).unwrap();
        let mut t = Table::new("t", schema);
        for &v in values {
            t.insert(vec![Value::Double(v)]).unwrap();
        }
        t
    }

    #[test]
    fn default_initial_model_is_zero() {
        assert_eq!(MeanTask.initial_model(), vec![0.0]);
        assert_eq!(MeanTask.proximal_policy(), ProximalPolicy::None);
        assert_eq!(MeanTask.regularizer(&[1.0]), 0.0);
    }

    #[test]
    fn gradient_steps_move_towards_mean() {
        let t = table(&[2.0, 4.0]);
        let mut store = DenseModelStore::zeros(1);
        for _ in 0..200 {
            for tuple in t.scan() {
                MeanTask.gradient_step(&mut store, tuple, 0.1);
            }
        }
        assert!((store.read(0) - 3.0).abs() < 0.2);
    }

    #[test]
    fn proximal_default_is_identity() {
        let mut w = vec![1.0, -2.0];
        MeanTask.proximal_step(&mut w, 0.5);
        assert_eq!(w, vec![1.0, -2.0]);
    }
}
