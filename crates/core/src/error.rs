//! Typed errors for the fault-tolerant training runtime.
//!
//! An RDBMS does not abort the server when one operator misbehaves, and
//! neither should an in-RDBMS trainer: every failure mode of a training run
//! — a panicking worker, a diverged (non-finite) model, a checkpoint I/O
//! problem, a cooperative interrupt — is surfaced as a [`TrainError`] that
//! carries the last model known to be healthy, so callers can degrade
//! gracefully instead of losing all progress.

use bismarck_storage::StorageError;

use crate::serving::PublishError;
use crate::trainer::TrainedModel;

/// Why a training run stopped before completing normally.
///
/// The recoverable variants carry `last_good`: the model as of the last
/// epoch that finished with an entirely finite model and loss (the initial
/// model if no epoch completed), together with the history of the epochs
/// that did complete.
#[derive(Debug, Clone)]
pub enum TrainError {
    /// One or more gradient workers panicked mid-epoch. The failing epoch's
    /// partial updates are discarded.
    WorkerPanic {
        /// Epoch (0-based) during which the panic occurred.
        epoch: usize,
        /// Number of workers that panicked.
        failed_workers: usize,
        /// Panic payload of the first failed worker, if it carried a string.
        message: String,
        /// Model and history as of the last healthy epoch.
        last_good: Box<TrainedModel>,
    },
    /// The model or loss went non-finite and the step-size backoff budget
    /// (see [`crate::trainer::TrainerConfig::max_retries`]) was exhausted.
    Diverged {
        /// Epoch (0-based) that diverged past the retry budget.
        epoch: usize,
        /// Divergence recoveries consumed before giving up.
        retries: u32,
        /// Model and history as of the last healthy epoch.
        last_good: Box<TrainedModel>,
    },
    /// A checkpoint could not be written or read back:
    /// [`StorageError::Io`] for the filesystem, [`StorageError::Corrupt`] for
    /// a file that is damaged or belongs to a different run.
    Checkpoint(StorageError),
    /// The serving handle configured via
    /// [`crate::trainer::TrainerConfig::with_serving`] cannot accept this
    /// run's models (its dimension differs from the task's). Detected before
    /// the first epoch, so no training work is lost.
    Serving(PublishError),
    /// The run's guard (see [`crate::trainer::TrainerConfig::with_guard`])
    /// was cancelled or passed its deadline, and the run exited at an epoch
    /// boundary, or between two blocks of the epoch it gave up.
    Interrupted {
        /// Epoch (0-based) that would have run next.
        epoch: usize,
        /// Model and history as of the last completed epoch.
        last_good: Box<TrainedModel>,
    },
}

impl TrainError {
    /// The last healthy model, when the failure mode preserves one.
    pub fn last_good(&self) -> Option<&TrainedModel> {
        match self {
            TrainError::WorkerPanic { last_good, .. }
            | TrainError::Diverged { last_good, .. }
            | TrainError::Interrupted { last_good, .. } => Some(last_good),
            TrainError::Checkpoint(_) | TrainError::Serving(_) => None,
        }
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::WorkerPanic {
                epoch,
                failed_workers,
                message,
                ..
            } => write!(
                f,
                "{failed_workers} worker(s) panicked during epoch {epoch}: {message}"
            ),
            TrainError::Diverged { epoch, retries, .. } => write!(
                f,
                "training diverged at epoch {epoch} after {retries} step-size backoff(s)"
            ),
            TrainError::Checkpoint(e) => write!(f, "training checkpoint: {e}"),
            TrainError::Serving(e) => write!(f, "serving handle rejected the run: {e}"),
            TrainError::Interrupted { epoch, .. } => {
                write!(f, "training interrupted before epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Serving(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PublishError> for TrainError {
    fn from(e: PublishError) -> Self {
        TrainError::Serving(e)
    }
}

impl From<StorageError> for TrainError {
    fn from(e: StorageError) -> Self {
        TrainError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bismarck_uda::TrainingHistory;

    fn dummy_model() -> Box<TrainedModel> {
        Box::new(TrainedModel {
            task_name: "test",
            model: vec![1.0, 2.0],
            history: TrainingHistory::default(),
        })
    }

    #[test]
    fn last_good_is_exposed_when_kept() {
        let err = TrainError::Diverged {
            epoch: 7,
            retries: 3,
            last_good: dummy_model(),
        };
        assert_eq!(err.last_good().unwrap().model, vec![1.0, 2.0]);

        let err = TrainError::Checkpoint(StorageError::Corrupt("bad magic".into()));
        assert!(err.last_good().is_none());
    }

    #[test]
    fn display_messages_are_informative() {
        let err = TrainError::WorkerPanic {
            epoch: 2,
            failed_workers: 1,
            message: "boom".into(),
            last_good: dummy_model(),
        };
        let msg = err.to_string();
        assert!(msg.contains("epoch 2") && msg.contains("boom"), "{msg}");
        assert!(TrainError::Diverged {
            epoch: 1,
            retries: 4,
            last_good: dummy_model(),
        }
        .to_string()
        .contains("4 step-size backoff"));
    }
}
