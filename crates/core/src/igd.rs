//! Incremental gradient descent packaged as a user-defined aggregate.
//!
//! This is the heart of the paper's architecture (Section 3.1): the UDA state
//! is the model (plus a step counter), `transition` performs one gradient
//! step on one tuple, `terminate` returns the model, and `merge` combines two
//! independently-trained models by (count-weighted) averaging — the
//! Zinkevich-style model averaging that makes IGD "essentially algebraic"
//! and therefore usable with the engine's shared-nothing parallel
//! aggregation.

use bismarck_storage::{RowBlock, RowRef, Tuple};
use bismarck_uda::Aggregate;

use crate::model::DenseModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// Aggregation state: the model being learned plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct IgdState {
    /// The flat model vector.
    pub model: DenseModelStore,
    /// Number of gradient steps taken so far in this aggregation.
    pub steps: u64,
}

impl IgdState {
    /// Wrap an existing model with a zero step count.
    pub(crate) fn from_model(model: Vec<f64>) -> Self {
        IgdState {
            model: DenseModelStore::new(model),
            steps: 0,
        }
    }
}

/// IGD as a UDA over a single epoch.
///
/// The aggregate is configured with the task, the step size to use for this
/// epoch, and the model produced by the previous epoch (or the task's initial
/// model for epoch 0).
#[derive(Debug, Clone)]
pub struct IgdAggregate<'a, T: IgdTask> {
    task: &'a T,
    alpha: f64,
    starting_model: Vec<f64>,
}

impl<'a, T: IgdTask> IgdAggregate<'a, T> {
    /// Create an aggregate for one epoch.
    pub fn new(task: &'a T, alpha: f64, starting_model: Vec<f64>) -> Self {
        IgdAggregate {
            task,
            alpha,
            starting_model,
        }
    }
}

impl<T: IgdTask> IgdAggregate<'_, T> {
    /// One step on `row`, then the proximal operator if it runs per step.
    fn step(&self, state: &mut IgdState, row: RowRef<'_>) {
        self.task.gradient_step(&mut state.model, row, self.alpha);
        if self.task.proximal_policy() == ProximalPolicy::PerStep {
            self.task
                .proximal_step(state.model.as_mut_slice(), self.alpha);
        }
    }
}

impl<T: IgdTask> Aggregate for IgdAggregate<'_, T> {
    type State = IgdState;
    type Output = IgdState;

    fn initialize(&self) -> IgdState {
        IgdState::from_model(self.starting_model.clone())
    }

    fn transition(&self, state: &mut IgdState, tuple: &Tuple) {
        self.step(state, tuple.into());
        state.steps += 1;
    }

    /// The rows are read where the block stores them: the whole block goes
    /// to [`IgdTask::step_block`] unless a proximal operator runs between
    /// the steps. A row without an example takes no step but is counted like
    /// any other (the count-weighted merge weighs segments by rows seen).
    fn transition_block(&self, state: &mut IgdState, block: RowBlock<'_>) {
        if self.task.proximal_policy() == ProximalPolicy::PerStep {
            block.rows().for_each(|row| self.step(state, row));
        } else {
            self.task.step_block(&mut state.model, block, self.alpha);
        }
        state.steps += block.len() as u64;
    }

    /// Each partial model is weighted by the number of gradient steps it
    /// took, so segments of unequal size contribute proportionally.
    fn merge(&self, left: &mut IgdState, right: IgdState) {
        let (wl, wr) = (left.steps as f64, right.steps as f64);
        let total_steps = left.steps + right.steps;
        if wl + wr <= 0.0 {
            left.steps = total_steps;
            return;
        }
        let denom = wl + wr;
        let left_slice = left.model.as_mut_slice();
        let right_slice = right.model.as_slice();
        let n = left_slice.len().min(right_slice.len());
        for i in 0..n {
            left_slice[i] = (left_slice[i] * wl + right_slice[i] * wr) / denom;
        }
        left.steps = total_steps;
    }

    fn terminate(&self, mut state: IgdState) -> IgdState {
        if self.task.proximal_policy() == ProximalPolicy::PerEpoch {
            self.task
                .proximal_step(state.model.as_mut_slice(), self.alpha);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelStore;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};
    use bismarck_uda::{run_segmented, run_segmented_parallel, run_sequential};

    /// 1-D mean estimation used to exercise the aggregate plumbing.
    struct MeanTask {
        prox: ProximalPolicy,
    }

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
        fn proximal_step(&self, model: &mut [f64], _alpha: f64) {
            // clamp to [-1, 1] — a toy projection so tests can observe policy
            for v in model.iter_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
        }
        fn proximal_policy(&self) -> ProximalPolicy {
            self.prox
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
    fn one_epoch_moves_model_and_counts_steps() {
        let t = table(&[1.0; 50]);
        let task = MeanTask {
            prox: ProximalPolicy::None,
        };
        let agg = IgdAggregate::new(&task, 0.1, vec![0.0]);
        let out = run_sequential(&agg, &t, None);
        assert_eq!(out.steps, 50);
        assert!(out.model.read(0) > 0.5, "model should move towards 1.0");
        assert!(out.model.read(0) <= 1.0);
    }

    #[test]
    fn per_step_proximal_is_applied() {
        let t = table(&[100.0; 5]);
        let task = MeanTask {
            prox: ProximalPolicy::PerStep,
        };
        let agg = IgdAggregate::new(&task, 1.0, vec![0.0]);
        let out = run_sequential(&agg, &t, None);
        // Each step would jump to 100 without the projection; the per-step
        // clamp keeps the model inside [-1, 1].
        assert!(out.model.read(0) <= 1.0 + 1e-12);
    }

    #[test]
    fn per_epoch_proximal_applied_only_at_terminate() {
        let t = table(&[100.0; 5]);
        let task = MeanTask {
            prox: ProximalPolicy::PerEpoch,
        };
        let agg = IgdAggregate::new(&task, 1.0, vec![0.0]);
        let out = run_sequential(&agg, &t, None);
        assert!(out.model.read(0) <= 1.0 + 1e-12);
    }

    #[test]
    fn merge_is_count_weighted_average() {
        let task = MeanTask {
            prox: ProximalPolicy::None,
        };
        let agg = IgdAggregate::new(&task, 0.1, vec![0.0]);
        let mut left = IgdState {
            model: DenseModelStore::new(vec![1.0]),
            steps: 3,
        };
        let right = IgdState {
            model: DenseModelStore::new(vec![5.0]),
            steps: 1,
        };
        agg.merge(&mut left, right);
        assert!((left.model.read(0) - 2.0).abs() < 1e-12);
        assert_eq!(left.steps, 4);
    }

    #[test]
    fn merge_with_zero_steps_keeps_left() {
        let task = MeanTask {
            prox: ProximalPolicy::None,
        };
        let agg = IgdAggregate::new(&task, 0.1, vec![0.0]);
        let mut left = IgdState {
            model: DenseModelStore::new(vec![2.0]),
            steps: 0,
        };
        let right = IgdState {
            model: DenseModelStore::new(vec![4.0]),
            steps: 0,
        };
        agg.merge(&mut left, right);
        assert_eq!(left.model.read(0), 2.0);
        assert_eq!(left.steps, 0);
    }

    #[test]
    fn segmented_execution_approximates_sequential() {
        // On a quadratic objective the count-weighted model average after one
        // epoch lands close to the sequential result.
        let values: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let t = table(&values);
        let task = MeanTask {
            prox: ProximalPolicy::None,
        };
        let agg = IgdAggregate::new(&task, 0.05, vec![0.5]);
        let seq = run_sequential(&agg, &t, None);
        let seg = run_segmented(&agg, &t, 4);
        let par = run_segmented_parallel(&agg, &t, 4);
        assert_eq!(seg.steps, 200);
        assert_eq!(par.steps, 200);
        assert!((seq.model.read(0) - seg.model.read(0)).abs() < 0.2);
        // Deterministic plan: parallel and sequential segmented agree exactly.
        assert!((par.model.read(0) - seg.model.read(0)).abs() < 1e-12);
    }
}
