//! Fault-injection harness (compiled only with the `fault-injection`
//! feature).
//!
//! Wraps any [`IgdTask`] and injects a configured fault at the K-th gradient
//! step, counted globally across epochs and workers with an atomic counter.
//! Because the counter keeps advancing past K, each configured fault fires
//! exactly once — so a run that recovers (restores the last-good snapshot
//! and backs off the step size) proceeds cleanly afterwards, which is
//! precisely the scenario the recovery paths need to prove.
//!
//! This module exists for tests; nothing in the fault-free hot path touches
//! it, and it is absent from release builds unless the feature is enabled.

use std::sync::atomic::{AtomicU64, Ordering};

use bismarck_storage::RowRef;

use crate::model::ModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// What to inject, and at which global gradient-step count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside `gradient_step` at step K (0-based).
    PanicAtStep(u64),
    /// Overwrite model component 0 with `NaN` at step K, poisoning the model
    /// so the post-epoch divergence scan trips.
    NanGradientAtStep(u64),
}

/// An [`IgdTask`] decorator that injects one fault at a chosen step.
#[derive(Debug)]
pub struct FaultyTask<T> {
    inner: T,
    fault: Fault,
    steps: AtomicU64,
}

impl<T: IgdTask> FaultyTask<T> {
    /// Wrap `inner`, arming `fault`.
    pub fn new(inner: T, fault: Fault) -> Self {
        FaultyTask {
            inner,
            fault,
            steps: AtomicU64::new(0),
        }
    }
}

impl<T: IgdTask> IgdTask for FaultyTask<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn initial_model(&self) -> Vec<f64> {
        self.inner.initial_model()
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            Fault::PanicAtStep(k) if step == k => {
                panic!("injected fault: panic at gradient step {k}")
            }
            Fault::NanGradientAtStep(k) if step == k => {
                self.inner.gradient_step(model, row, alpha);
                model.write(0, f64::NAN);
            }
            _ => self.inner.gradient_step(model, row, alpha),
        }
    }

    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        self.inner.example_loss(model, row)
    }

    fn regularizer(&self, model: &[f64]) -> f64 {
        self.inner.regularizer(model)
    }

    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        self.inner.proximal_step(model, alpha)
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        self.inner.proximal_policy()
    }
}
