//! Figure 10 — multiplexed reservoir sampling.
//!
//! (A) Objective over epochs for Subsampling, Clustered (no shuffling at
//! all) and MRS on the sparse LR task with a buffer of roughly 10% of the
//! dataset.
//!
//! (B) Runtime (and epochs) to reach twice the best-known objective value for
//! Subsampling vs MRS at several buffer sizes, plus the Clustered reference.

use bismarck_core::mrs::subsampling_train;
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{ParallelStrategy, StepSizeSchedule, TrainerConfig};
use bismarck_storage::ScanOrder;
use bismarck_uda::{ConvergenceTest, TrainingHistory};

use super::scale::Scale;
use super::{datasets, render_table, sampled_losses, train};

/// One row of the Figure 10(B) buffer-size sweep.
#[derive(Debug, Clone)]
pub struct BufferSweepRow {
    /// Buffer size in tuples.
    pub buffer: usize,
    /// The Subsampling run at this buffer size.
    pub subsampling: TrainingHistory,
    /// The MRS run at this buffer size.
    pub mrs: TrainingHistory,
}

/// Result of the Figure 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Figure 10(A) runs (MRS, Subsampling, Clustered), each with its label.
    pub curves: Vec<(String, TrainingHistory)>,
    /// The 2x-optimal loss target used in part (B).
    pub target: f64,
    /// Figure 10(B) rows.
    pub sweep: Vec<BufferSweepRow>,
}

/// Run the Figure 10 experiment.
pub fn run(scale: Scale) -> Fig10Result {
    let table = datasets::dblife(scale);
    let task = LogisticRegressionTask::new(
        bismarck_datagen::CLASSIFICATION_FEATURES_COL,
        bismarck_datagen::CLASSIFICATION_LABEL_COL,
        datasets::feature_dimension(&table),
    );
    let step_size = StepSizeSchedule::Constant(0.1);
    let convergence = ConvergenceTest::FixedEpochs(scale.scaled(10, 40));
    let config = || {
        TrainerConfig::default()
            .with_step_size(step_size)
            .with_convergence(convergence)
    };
    let clustered = || {
        let config = config().with_scan_order(ScanOrder::Clustered);
        train(&task, config, None, &table).history
    };
    let subsampling =
        |buffer| subsampling_train(&task, &table, buffer, step_size, convergence, 77).history;
    let mrs = |buffer_size| {
        let strategy = ParallelStrategy::Mrs {
            buffer_size,
            seed: 77,
        };
        train(&task, config(), Some(strategy), &table).history
    };
    let ten_percent = (table.len() / 10).max(1);

    // (A) fixed buffer of ~10%.
    let curves = vec![
        (format!("MRS (B={ten_percent})"), mrs(ten_percent)),
        (
            format!("Subsampling (B={ten_percent})"),
            subsampling(ten_percent),
        ),
        ("Clustered".to_string(), clustered()),
    ];

    // Target for (B): twice the best loss any scheme reached in part (A).
    let best = curves
        .iter()
        .flat_map(|(_, history)| history.losses())
        .fold(f64::INFINITY, f64::min);
    let target = best * 2.0;

    // (B) sweep buffer sizes of 5%, 10% and 20%.
    let sweep = [5usize, 10, 20]
        .into_iter()
        .map(|percent| {
            let buffer = (table.len() * percent / 100).max(1);
            BufferSweepRow {
                buffer,
                subsampling: subsampling(buffer),
                mrs: mrs(buffer),
            }
        })
        .collect();

    Fig10Result {
        curves,
        target,
        sweep,
    }
}

impl std::fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 10(A) — objective over epochs (sparse LR, buffer ~10%)"
        )?;
        for (label, history) in &self.curves {
            writeln!(f, "  {:<22} {}", label, sampled_losses(history))?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Figure 10(B) — time (epochs) to reach 2x the best objective ({:.1})",
            self.target
        )?;
        let fmt_cell = |history: &TrainingHistory| match (
            history.time_to_reach(self.target),
            history.epochs_to_reach(self.target),
        ) {
            (Some(t), Some(e)) => format!("{} ({e})", super::secs(t)),
            _ => "not reached".to_string(),
        };
        let rows: Vec<Vec<String>> = self
            .sweep
            .iter()
            .map(|r| {
                vec![
                    r.buffer.to_string(),
                    fmt_cell(&r.subsampling),
                    fmt_cell(&r.mrs),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["Buffer", "Subsampling", "MRS"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Fig10Result {
        static RESULT: OnceLock<Fig10Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn mrs_reaches_a_loss_at_least_as_good_as_subsampling() {
        let result = small();
        let find = |prefix: &str| {
            result
                .curves
                .iter()
                .find(|(label, _)| label.starts_with(prefix))
                .map(|(_, history)| history)
                .unwrap_or_else(|| panic!("missing curve {prefix}"))
        };
        let mrs = find("MRS");
        let sub = find("Subsampling");
        let clustered = find("Clustered");
        let last = |c: &TrainingHistory| c.final_loss().unwrap();
        assert!(
            last(mrs) <= last(sub) * 1.05,
            "MRS {} vs Subsampling {}",
            last(mrs),
            last(sub)
        );
        // MRS should also do no worse than training on clustered data.
        assert!(last(mrs) <= last(clustered) * 1.05);
    }

    #[test]
    fn buffer_sweep_has_three_rows_with_increasing_buffers() {
        let result = small();
        assert_eq!(result.sweep.len(), 3);
        assert!(result.sweep.windows(2).all(|w| w[0].buffer < w[1].buffer));
        // MRS reaches the 2x target at every buffer size at this scale.
        assert!(result
            .sweep
            .iter()
            .all(|r| r.mrs.epochs_to_reach(result.target).is_some()));
    }

    #[test]
    fn display_contains_all_schemes() {
        let result = small();
        let text = result.to_string();
        assert!(text.contains("MRS"));
        assert!(text.contains("Subsampling"));
        assert!(text.contains("Clustered"));
    }
}
