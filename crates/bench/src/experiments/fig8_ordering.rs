//! Figure 8 — impact of data ordering on sparse LR.
//!
//! Trains the same LR model on the DBLife stand-in (stored clustered by
//! label) under three ordering policies — ShuffleAlways, ShuffleOnce and
//! Clustered — for a fixed number of epochs, and records the objective after
//! every epoch together with cumulative wall-clock time (which includes the
//! shuffle cost). The paper's findings: ShuffleAlways needs the fewest
//! epochs, Clustered the most, but ShuffleOnce wins on wall-clock because it
//! pays the shuffle only once.

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{StepSizeSchedule, TrainerConfig};
use bismarck_storage::ScanOrder;
use bismarck_uda::{ConvergenceTest, TrainingHistory};

use super::scale::Scale;
use super::{datasets, render_table, sampled_losses, train};

/// Result of the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Runs under ShuffleAlways, ShuffleOnce and Clustered (in that order).
    pub curves: Vec<(&'static str, TrainingHistory)>,
    /// The loss target used for the epochs-to / time-to comparison.
    pub target: f64,
}

/// Run the Figure 8 experiment.
pub fn run(scale: Scale) -> Fig8Result {
    let table = datasets::dblife(scale);
    let task = LogisticRegressionTask::new(
        bismarck_datagen::CLASSIFICATION_FEATURES_COL,
        bismarck_datagen::CLASSIFICATION_LABEL_COL,
        datasets::feature_dimension(&table),
    );
    let epochs = scale.scaled(12, 40);
    let curves: Vec<_> = [
        ("ShuffleAlways", ScanOrder::ShuffleAlways { seed: 8 }),
        ("ShuffleOnce", ScanOrder::ShuffleOnce { seed: 8 }),
        ("Clustered", ScanOrder::Clustered),
    ]
    .into_iter()
    .map(|(label, order)| {
        let config = TrainerConfig::default()
            .with_scan_order(order)
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(epochs));
        (label, train(&task, config, None, &table).history)
    })
    .collect();
    // Target: within 2% of the best loss any policy reached.
    let best = curves
        .iter()
        .filter_map(|(_, history)| history.final_loss())
        .fold(f64::INFINITY, f64::min);
    let target = best * 1.02;
    Fig8Result { curves, target }
}

impl std::fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 8 — impact of data ordering (sparse LR on dblife)"
        )?;
        writeln!(
            f,
            "loss target = {:.2} (within 2% of best observed)",
            self.target
        )?;
        let rows: Vec<Vec<String>> = self
            .curves
            .iter()
            .map(|(label, history)| {
                vec![
                    label.to_string(),
                    history
                        .epochs_to_reach(self.target)
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| format!(">{}", history.epochs())),
                    history
                        .time_to_reach(self.target)
                        .map(super::secs)
                        .unwrap_or_else(|| "not reached".into()),
                    super::secs(history.total_shuffle_duration()),
                    format!("{:.2}", history.final_loss().unwrap_or(f64::NAN)),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                &[
                    "Ordering",
                    "Epochs to target",
                    "Time to target",
                    "Shuffle time",
                    "Final loss"
                ],
                &rows
            )
        )?;
        writeln!(f, "loss per epoch:")?;
        for (label, history) in &self.curves {
            writeln!(f, "  {:<14} {}", label, sampled_losses(history))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use std::time::Duration;

    /// One run shared by every test of this module.
    fn small() -> &'static Fig8Result {
        static RESULT: OnceLock<Fig8Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn shuffled_orderings_dominate_clustered_per_epoch() {
        let result = small();
        let by_label = |label: &str| {
            result
                .curves
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, history)| history)
                .unwrap_or_else(|| panic!("missing curve {label}"))
        };
        let always = by_label("ShuffleAlways");
        let once = by_label("ShuffleOnce");
        let clustered = by_label("Clustered");
        // After the full epoch budget, the shuffled runs should be at least as
        // good as the clustered run (the paper's Figure 8(A) shape).
        let last = |c: &TrainingHistory| c.final_loss().unwrap();
        assert!(last(always) <= last(clustered) * 1.05);
        assert!(last(once) <= last(clustered) * 1.05);
        // ShuffleOnce converges similarly to ShuffleAlways (within 10%).
        assert!(last(once) <= last(always) * 1.10);
    }

    #[test]
    fn shuffle_always_pays_more_shuffle_time_than_shuffle_once() {
        let result = small();
        let time = |label: &str| {
            result
                .curves
                .iter()
                .find(|(l, _)| *l == label)
                .unwrap()
                .1
                .total_shuffle_duration()
        };
        assert!(time("ShuffleAlways") >= time("ShuffleOnce"));
        assert_eq!(time("Clustered"), Duration::ZERO);
    }

    #[test]
    fn display_lists_all_orderings() {
        let result = small();
        let text = result.to_string();
        for label in ["ShuffleAlways", "ShuffleOnce", "Clustered"] {
            assert!(text.contains(label));
        }
    }
}
