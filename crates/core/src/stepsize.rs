//! Step-size schedules (Appendix B).
//!
//! "In real-world systems, constant step-sizes and fixed number of epochs are
//! usually chosen by an optimization expert"; the convergence proofs use the
//! divergent-series (diminishing) rule `α_k → 0, Σ α_k = ∞` or the geometric
//! rule `α_k = α_0 ρ^k, 0 < ρ < 1`. We support all three, indexed either by
//! epoch (the common practice the paper describes) or by individual gradient
//! step (used by the CA-TX analysis in Figure 5).

/// A rule mapping an epoch (or step) counter to a step size `α ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSizeSchedule {
    /// A fixed step size for the whole run.
    Constant(f64),
    /// The divergent-series rule `α_k = α_0 / (1 + k)`.
    Diminishing {
        /// Step size at `k = 0`.
        initial: f64,
    },
    /// The geometric rule `α_k = α_0 · ρ^k` with `0 < ρ < 1`.
    Geometric {
        /// Step size at `k = 0`.
        initial: f64,
        /// Per-epoch decay factor.
        decay: f64,
    },
}

impl StepSizeSchedule {
    /// Step size for counter `k` (an epoch number or a step number,
    /// depending on how the caller indexes the schedule).
    pub(crate) fn at(&self, k: usize) -> f64 {
        match *self {
            StepSizeSchedule::Constant(alpha) => alpha,
            StepSizeSchedule::Diminishing { initial } => initial / (1.0 + k as f64),
            StepSizeSchedule::Geometric { initial, decay } => initial * decay.powi(k as i32),
        }
    }
}

impl Default for StepSizeSchedule {
    /// A conservative constant step size; tasks typically override this.
    fn default() -> Self {
        StepSizeSchedule::Constant(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        let s = StepSizeSchedule::Constant(0.5);
        assert_eq!(s.at(0), 0.5);
        assert_eq!(s.at(1000), 0.5);
    }

    #[test]
    fn diminishing_decays_harmonically() {
        let s = StepSizeSchedule::Diminishing { initial: 1.0 };
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(1) - 0.5).abs() < 1e-12);
        assert!((s.at(9) - 0.1).abs() < 1e-12);
        // divergent series: partial sums grow without bound
        let sum: f64 = (0..10_000).map(|k| s.at(k)).sum();
        assert!(sum > 9.0);
    }

    #[test]
    fn geometric_decays_exponentially() {
        let s = StepSizeSchedule::Geometric {
            initial: 1.0,
            decay: 0.5,
        };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(3), 0.125);
    }
}
