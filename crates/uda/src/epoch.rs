//! Per-epoch bookkeeping of a training run.
//!
//! IGD differs from `SUM`/`AVG`/`MAX` in that the aggregate "may need to be
//! executed more than once, with the output model of one run being input to
//! the next" (Figure 2). The loop that does so belongs to the trainers
//! (`run_epochs` in `bismarck_core::trainer`); what it leaves behind is one
//! [`EpochRecord`] per epoch in a [`TrainingHistory`]. Wall-clock, shuffle,
//! gradient and loss time are recorded per epoch so the experiments can
//! separate gradient cost from reordering cost (Figure 8(B)) and from the
//! cost of scoring the model.

use std::time::Duration;

/// Bookkeeping for one completed epoch. An epoch restored from a checkpoint
/// carries its loss and zero timings: a checkpoint persists no timings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochRecord {
    /// Zero-based epoch number.
    pub epoch: usize,
    /// Objective value after the epoch.
    pub loss: f64,
    /// Wall-clock time of the whole epoch (shuffle + gradient pass + loss).
    pub duration: Duration,
    /// Portion of `duration` spent shuffling.
    pub shuffle_duration: Duration,
    /// Portion of `duration` spent in the gradient pass; an epoch that needed
    /// divergence retries adds up the passes of all its attempts.
    pub gradient_duration: Duration,
    /// Portion of `duration` spent in the loss pass that scores the epoch's
    /// model, summed over its attempts like `gradient_duration`.
    pub loss_duration: Duration,
    /// Cumulative wall-clock time since training started.
    pub cumulative: Duration,
    /// Divergence recoveries (restore + step-size backoff) consumed while
    /// producing this epoch. Zero on the fault-free path.
    pub retries: u32,
}

/// Loss/timing history of a full training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    records: Vec<EpochRecord>,
    converged: bool,
}

impl TrainingHistory {
    /// All per-epoch records in order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Number of epochs run.
    pub fn epochs(&self) -> usize {
        self.records.len()
    }

    /// Loss values in epoch order.
    pub fn losses(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.loss).collect()
    }

    /// The final loss, if any epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.records.last().map(|r| r.loss)
    }

    /// Total wall-clock time across all epochs.
    pub fn total_duration(&self) -> Duration {
        self.records
            .last()
            .map(|r| r.cumulative)
            .unwrap_or(Duration::ZERO)
    }

    /// Total time spent shuffling across all epochs.
    pub fn total_shuffle_duration(&self) -> Duration {
        self.records.iter().map(|r| r.shuffle_duration).sum()
    }

    /// Whether the convergence test fired before the epoch cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of epochs needed to first reach a loss at or below `target`,
    /// if it was ever reached. Non-finite losses (`NaN`/`±inf` from a
    /// diverged epoch) are skipped: they can never match a finite target and
    /// must not be counted as progress.
    pub fn epochs_to_reach(&self, target: f64) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.loss.is_finite() && r.loss <= target)
            .map(|r| r.epoch + 1)
    }

    /// Cumulative time needed to first reach a loss at or below `target`.
    /// Non-finite losses are skipped, as in [`Self::epochs_to_reach`].
    pub fn time_to_reach(&self, target: f64) -> Option<Duration> {
        self.records
            .iter()
            .find(|r| r.loss.is_finite() && r.loss <= target)
            .map(|r| r.cumulative)
    }

    /// Total divergence recoveries (step-size backoffs) across the run.
    pub fn total_retries(&self) -> u32 {
        self.records.iter().map(|r| r.retries).sum()
    }

    /// Record one epoch.
    pub fn push(&mut self, record: EpochRecord) {
        self.records.push(record);
    }

    /// Mark the run as converged (vs. stopped at the epoch cap).
    pub fn set_converged(&mut self, converged: bool) {
        self.converged = converged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A history of `losses`: epoch `e` ends at `e + 1` ms and shuffled 5 µs.
    fn with_losses(losses: &[f64]) -> TrainingHistory {
        let mut history = TrainingHistory::default();
        for (epoch, &loss) in losses.iter().enumerate() {
            history.push(EpochRecord {
                epoch,
                loss,
                duration: Duration::from_millis(1),
                shuffle_duration: Duration::from_micros(5),
                cumulative: Duration::from_millis(epoch as u64 + 1),
                ..EpochRecord::default()
            });
        }
        history
    }

    #[test]
    fn epochs_and_time_to_reach() {
        let history = with_losses(&[10.0, 9.0, 8.0, 7.0, 6.0]);
        assert_eq!(history.epochs(), 5);
        assert_eq!(history.final_loss(), Some(6.0));
        assert_eq!(history.epochs_to_reach(7.0), Some(4));
        assert_eq!(history.time_to_reach(7.0), Some(Duration::from_millis(4)));
        assert_eq!(history.epochs_to_reach(-100.0), None);
        assert!(history.time_to_reach(-100.0).is_none());
        assert_eq!(history.total_duration(), Duration::from_millis(5));
        assert_eq!(history.total_shuffle_duration(), Duration::from_micros(25));
        assert_eq!(history.total_retries(), 0);
        assert!(
            !history.converged(),
            "only the epoch loop marks convergence"
        );
    }

    #[test]
    fn epochs_to_reach_skips_non_finite_losses() {
        // A NaN epoch can't match a finite target and must not be counted as
        // progress; the first FINITE loss at or below target wins.
        let history = with_losses(&[10.0, f64::NAN, f64::INFINITY, 4.0, 3.0]);
        assert_eq!(history.epochs_to_reach(5.0), Some(4));
        assert_eq!(history.epochs_to_reach(3.5), Some(5));
        assert_eq!(history.epochs_to_reach(1.0), None);
        assert_eq!(history.time_to_reach(5.0), Some(Duration::from_millis(4)));
        assert!(history.time_to_reach(1.0).is_none());
        // All-NaN history reaches nothing.
        let bad = with_losses(&[f64::NAN, f64::NAN]);
        assert_eq!(bad.epochs_to_reach(f64::INFINITY), None);
        assert!(bad.time_to_reach(f64::INFINITY).is_none());
    }
}
