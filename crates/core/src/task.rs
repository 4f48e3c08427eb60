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
//! A task reads each row where it is stored, through a [`RowRef`]: a
//! row-store tuple as it is, a columnar row a cell at a time out of its
//! chunks. The passes hand a task whole [`RowBlock`]s where no proximal step
//! runs between the steps ([`IgdTask::step_block`], [`IgdTask::add_losses`]);
//! by default those walk the block's rows, and a task that can do better on a
//! block — every [`crate::tasks::LinearTask`] (LR, SVM, least squares) steps
//! on the (feature vector, label) examples a columnar block lends straight
//! out of its columns — overrides them.

use bismarck_storage::{RowBlock, RowRef};

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
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64);

    /// The loss term `f_i(w)` contributed by one example (excluding the
    /// regularizer `P`).
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64;

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

    /// One gradient step per row of `block`, in order, and nothing between
    /// them: a pass that applies a per-step proximal operator walks the
    /// rows itself. An override must leave the model exactly as the
    /// default, [`IgdTask::gradient_step`] on every row, does. Generic over
    /// the store, so that inlined into a pass the loop calls the store's
    /// methods directly, not through `dyn ModelStore` on every row; that
    /// keeps it off a `dyn IgdTask`, which stays usable for the rest.
    #[inline]
    fn step_block<M: ModelStore>(&self, model: &mut M, block: RowBlock<'_>, alpha: f64)
    where
        Self: Sized,
    {
        for row in block.rows() {
            self.gradient_step(model, row, alpha);
        }
    }

    /// Hand the loss term of every row of `block` to `sink`, in order. An
    /// override must hand over the terms of the default,
    /// [`IgdTask::example_loss`] on every row, bit for bit.
    #[inline]
    fn add_losses(&self, model: &[f64], block: RowBlock<'_>, sink: &mut LossSink<'_>) {
        sink.extend(block.rows().map(|row| self.example_loss(model, row)));
    }
}

/// Where a loss pass puts the loss term of each row it reads, in storage
/// order: onto the running objective, or into the row's own slot of a
/// range's chunk, which the caller adds onto the objective in storage order
/// once every range is read. Either way each term is added in the same
/// order, so the objective has the same bits however the pass was split.
#[derive(Debug)]
pub enum LossSink<'a> {
    /// The objective so far.
    Total(&'a mut f64),
    /// The slots of the range's rows not yet read.
    Terms(std::slice::IterMut<'a, f64>),
}

impl LossSink<'_> {
    /// Take the loss terms of the next rows, in storage order.
    #[inline]
    pub fn extend(&mut self, terms: impl Iterator<Item = f64>) {
        match self {
            LossSink::Total(total) => **total = terms.fold(**total, |sum, term| sum + term),
            LossSink::Terms(slots) => {
                for term in terms {
                    let slot = slots.next().expect("a chunk has one slot per row");
                    *slot = term;
                }
            }
        }
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
        fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
            let y = row.get_double(0).unwrap_or(0.0);
            let w = model.read(0);
            model.update(0, -alpha * (w - y));
        }
        fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
            let y = row.get_double(0).unwrap_or(0.0);
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
                MeanTask.gradient_step(&mut store, tuple.into(), 0.1);
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
