//! Stopping conditions for the epoch loop.
//!
//! Section 3.1 ("Key Differences: Epochs and Convergence") and Appendix B:
//! Bismarck supports "an arbitrary Boolean function" as the convergence test.
//! The common cases are a fixed number of epochs, a relative drop in the loss
//! value between epochs, and a gradient-norm threshold. The evaluation uses
//! "0.1% tolerance in the objective function value" for completion times.
//!
//! The gradient-norm threshold is not offered: incremental gradient descent
//! takes one step per tuple and never computes the full gradient, so no pass
//! has a norm to report, and a test fed by nothing could only run to its cap.

/// A stopping condition evaluated after every epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvergenceTest {
    /// Stop after exactly this many epochs.
    FixedEpochs(usize),
    /// Stop when the relative decrease in loss between consecutive epochs
    /// falls below `tolerance`, or after `max_epochs`, whichever is first.
    RelativeLossDecrease {
        /// Relative tolerance, e.g. `1e-3` for the paper's 0.1%.
        tolerance: f64,
        /// Upper bound on epochs so training always terminates.
        max_epochs: usize,
    },
    /// Stop when the loss falls at or below an absolute target value, or
    /// after `max_epochs`. Used by experiments that measure "time to reach
    /// X times the optimal objective value" (Figure 10(B)).
    LossBelow {
        /// Absolute loss target.
        target: f64,
        /// Upper bound on epochs.
        max_epochs: usize,
    },
}

impl ConvergenceTest {
    /// The paper's default completion criterion: 0.1% relative tolerance with
    /// a generous epoch cap.
    pub fn paper_default(max_epochs: usize) -> Self {
        ConvergenceTest::RelativeLossDecrease {
            tolerance: 1e-3,
            max_epochs,
        }
    }

    /// The verdict after an epoch, given the loss history of the run so far
    /// (`losses[e]` is the loss measured after epoch `e`; the last entry is
    /// the epoch just run): `None` to run another epoch, `Some(converged)` to
    /// stop, where `converged` says whether the criterion — not the epoch
    /// cap — ended the run.
    ///
    /// # Non-finite losses
    ///
    /// A non-finite *current* loss (`NaN`/`±inf`) means the run has diverged:
    /// no later epoch can recover on its own, so every loss-based test stops
    /// there rather than spinning uselessly until `max_epochs`, and a run whose
    /// final loss is non-finite is never converged. [`Self::FixedEpochs`]
    /// runs its count regardless. A non-finite *previous* loss with a finite
    /// current one (e.g. after a divergence recovery restored an earlier
    /// model) keeps training: the relative-drop ratio is meaningless across
    /// that boundary.
    pub fn verdict(&self, losses: &[f64]) -> Option<bool> {
        let last = *losses.last()?;
        let at_cap = losses.len() >= self.epoch_cap();
        let met = match *self {
            ConvergenceTest::FixedEpochs(_) => at_cap,
            ConvergenceTest::RelativeLossDecrease { tolerance, .. } => {
                !last.is_finite()
                    || match *losses {
                        // Stop only when progress is non-negative and tiny; a
                        // loss increase keeps training.
                        [.., prev, curr] if prev.is_finite() => {
                            (0.0..tolerance).contains(&((prev - curr) / prev.abs().max(1e-12)))
                        }
                        _ => false,
                    }
            }
            ConvergenceTest::LossBelow { target, .. } => !last.is_finite() || last <= target,
        };
        (met || at_cap).then_some(met && last.is_finite())
    }

    /// The maximum number of epochs this test will ever allow.
    pub fn epoch_cap(&self) -> usize {
        match *self {
            ConvergenceTest::FixedEpochs(n) => n,
            ConvergenceTest::RelativeLossDecrease { max_epochs, .. }
            | ConvergenceTest::LossBelow { max_epochs, .. } => max_epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;

    /// Every case the epoch loop relies on: the verdict after the last loss
    /// of each history. `Some(false)` is "stopped, not converged".
    #[test]
    fn verdict_table() {
        let fixed = ConvergenceTest::FixedEpochs;
        let rel = |max_epochs| ConvergenceTest::RelativeLossDecrease {
            tolerance: 1e-3,
            max_epochs,
        };
        let below = |max_epochs| ConvergenceTest::LossBelow {
            target: 3.0,
            max_epochs,
        };
        let (done, cut) = (Some(true), Some(false));
        #[rustfmt::skip]
        let cases: &[(ConvergenceTest, &[f64], Option<bool>, &str)] = &[
            (fixed(3), &[1.0], None, "fixed: before the count"),
            (fixed(3), &[1.0, 0.9], None, "fixed: before the count"),
            (fixed(3), &[1.0, 0.9, 0.8], done, "fixed: the count is convergence"),
            (fixed(3), &[5.0, NAN], None, "fixed: runs on past a NaN"),
            (fixed(2), &[5.0, NAN], cut, "fixed: a NaN at the count"),
            (rel(100), &[10.0], None, "rel: one loss has no drop"),
            (rel(100), &[10.0, 5.0], None, "rel: a big drop keeps going"),
            (rel(100), &[10.0, 5.0, 4.9999], done, "rel: a tiny drop"),
            (rel(100), &[100.0, 50.0, 25.0, 12.5, 12.5], done, "rel: no drop"),
            (rel(100), &[10.0, 5.0, 4.9999, 5.5], None, "rel: a rise keeps going"),
            (rel(4), &[100.0, 50.0, 33.3, 25.0], cut, "rel: the cap, criterion unmet"),
            (rel(2), &[10.0, 10.0], done, "rel: the criterion at the cap"),
            (rel(10), &[INF, 5.0], None, "rel: no ratio across an infinity"),
            (rel(10), &[NAN, 5.0], None, "rel: no ratio across a NaN"),
            (rel(100), &[10.0, 9.0, NAN], cut, "rel: a NaN stops early"),
            (rel(1000), &[5.0, INF], cut, "rel: an infinity stops early"),
            (rel(1000), &[NAN], cut, "rel: a NaN first epoch"),
            (below(50), &[10.0, 8.0, 6.0, 4.0], None, "below: above the target"),
            (below(50), &[10.0, 8.0, 6.0, 4.0, 2.0], done, "below: under the target"),
            (below(50), &[3.0], done, "below: the target itself"),
            (below(2), &[10.0, 8.0], cut, "below: the cap, target unmet"),
            (below(1000), &[5.0, NAN], cut, "below: a NaN stops early"),
        ];
        for &(test, losses, expected, case) in cases {
            assert_eq!(
                test.verdict(losses),
                expected,
                "{case}: {test:?} {losses:?}"
            );
        }
        assert_eq!(fixed(3).verdict(&[]), None, "no epoch, no verdict");
    }

    #[test]
    fn epoch_caps() {
        assert_eq!(ConvergenceTest::FixedEpochs(3).epoch_cap(), 3);
        assert_eq!(ConvergenceTest::paper_default(20).epoch_cap(), 20);
        let below = ConvergenceTest::LossBelow {
            target: 1.0,
            max_epochs: 50,
        };
        assert_eq!(below.epoch_cap(), 50);
    }

    #[test]
    fn paper_default_is_point_one_percent() {
        match ConvergenceTest::paper_default(20) {
            ConvergenceTest::RelativeLossDecrease {
                tolerance,
                max_epochs,
            } => {
                assert!((tolerance - 1e-3).abs() < 1e-15);
                assert_eq!(max_epochs, 20);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
