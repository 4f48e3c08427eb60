//! Figure 10 — multiplexed reservoir sampling.
//!
//! (A) Objective over epochs for Subsampling, Clustered (no shuffling at
//! all) and MRS on the sparse LR task with a buffer of roughly 10% of the
//! dataset.
//!
//! (B) Runtime (and epochs) to reach twice the best-known objective value for
//! Subsampling vs MRS at several buffer sizes, plus the Clustered reference.

use std::time::Duration;

use bismarck_core::mrs::subsampling_train;
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainedModel, Trainer, TrainerConfig,
};
use bismarck_storage::{ScanOrder, Table};
use bismarck_uda::ConvergenceTest;

use super::datasets;
use super::render_table;
use super::scale::Scale;

/// A per-epoch curve for one scheme (Figure 10(A)).
#[derive(Debug, Clone)]
pub struct MrsCurve {
    /// Scheme label.
    pub label: String,
    /// Objective after each epoch / pass.
    pub losses: Vec<f64>,
    /// Cumulative wall-clock time after each epoch.
    pub cumulative: Vec<Duration>,
}

impl MrsCurve {
    fn of(label: String, trained: &TrainedModel) -> Self {
        MrsCurve {
            label,
            losses: trained.history.losses(),
            cumulative: trained
                .history
                .records()
                .iter()
                .map(|r| r.cumulative)
                .collect(),
        }
    }

    /// Epochs (1-based) to first reach `target`, if ever.
    pub fn epochs_to(&self, target: f64) -> Option<usize> {
        self.losses.iter().position(|&l| l <= target).map(|i| i + 1)
    }

    /// Wall-clock time to first reach `target`, if ever.
    pub fn time_to(&self, target: f64) -> Option<Duration> {
        self.losses
            .iter()
            .position(|&l| l <= target)
            .map(|i| self.cumulative[i])
    }
}

/// One row of the Figure 10(B) buffer-size sweep.
#[derive(Debug, Clone)]
pub struct BufferSweepRow {
    /// Buffer size in tuples.
    pub buffer: usize,
    /// Subsampling time and epochs to the target, if reached.
    pub subsampling: (Option<Duration>, Option<usize>),
    /// MRS time and epochs to the target, if reached.
    pub mrs: (Option<Duration>, Option<usize>),
}

/// Result of the Figure 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Figure 10(A) curves (MRS, Subsampling, Clustered).
    pub curves: Vec<MrsCurve>,
    /// The 2x-optimal loss target used in part (B).
    pub target: f64,
    /// Figure 10(B) rows.
    pub sweep: Vec<BufferSweepRow>,
}

fn lr_task(dim: usize) -> LogisticRegressionTask {
    LogisticRegressionTask::new(
        bismarck_datagen::CLASSIFICATION_FEATURES_COL,
        bismarck_datagen::CLASSIFICATION_LABEL_COL,
        dim,
    )
}

fn clustered_curve(table: &Table, dim: usize, epochs: usize) -> MrsCurve {
    let task = lr_task(dim);
    let config = TrainerConfig::default()
        .with_scan_order(ScanOrder::Clustered)
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs));
    let trained = Trainer::new(&task, config).train(table);
    MrsCurve::of("Clustered".into(), &trained)
}

fn subsampling_curve(table: &Table, dim: usize, buffer: usize, epochs: usize) -> MrsCurve {
    let task = lr_task(dim);
    let trained = subsampling_train(
        &task,
        table,
        buffer,
        StepSizeSchedule::Constant(0.1),
        ConvergenceTest::FixedEpochs(epochs),
        77,
    );
    MrsCurve::of(format!("Subsampling (B={buffer})"), &trained)
}

fn mrs_curve(table: &Table, dim: usize, buffer: usize, epochs: usize) -> MrsCurve {
    let task = lr_task(dim);
    let config = TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs));
    let strategy = ParallelStrategy::Mrs {
        buffer_size: buffer,
        seed: 77,
    };
    let (trained, _) = ParallelTrainer::new(&task, config, strategy).train(table);
    MrsCurve::of(format!("MRS (B={buffer})"), &trained)
}

/// Run the Figure 10 experiment.
pub fn run(scale: Scale) -> Fig10Result {
    let table = datasets::dblife(scale);
    let dim = datasets::feature_dimension(&table);
    let epochs = scale.scaled(10, 40);
    let ten_percent = (table.len() / 10).max(1);

    // (A) fixed buffer of ~10%.
    let curves = vec![
        mrs_curve(&table, dim, ten_percent, epochs),
        subsampling_curve(&table, dim, ten_percent, epochs),
        clustered_curve(&table, dim, epochs),
    ];

    // Target for (B): twice the best loss any scheme reached in part (A).
    let best = curves
        .iter()
        .flat_map(|c| c.losses.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let target = best * 2.0;

    // (B) sweep buffer sizes of 5%, 10% and 20%.
    let mut sweep = Vec::new();
    for percent in [5usize, 10, 20] {
        let buffer = (table.len() * percent / 100).max(1);
        let sub = subsampling_curve(&table, dim, buffer, epochs);
        let mrs = mrs_curve(&table, dim, buffer, epochs);
        sweep.push(BufferSweepRow {
            buffer,
            subsampling: (sub.time_to(target), sub.epochs_to(target)),
            mrs: (mrs.time_to(target), mrs.epochs_to(target)),
        });
    }

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
        for c in &self.curves {
            let line: Vec<String> = c
                .losses
                .iter()
                .step_by((c.losses.len() / 10).max(1))
                .map(|l| format!("{l:.1}"))
                .collect();
            writeln!(f, "  {:<22} {}", c.label, line.join(" "))?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Figure 10(B) — time (epochs) to reach 2x the best objective ({:.1})",
            self.target
        )?;
        let fmt_cell = |(time, epochs): &(Option<Duration>, Option<usize>)| match (time, epochs) {
            (Some(t), Some(e)) => format!("{} ({e})", super::secs(*t)),
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

    #[test]
    fn mrs_reaches_a_loss_at_least_as_good_as_subsampling() {
        let result = run(Scale::Small);
        let find = |prefix: &str| {
            result
                .curves
                .iter()
                .find(|c| c.label.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing curve {prefix}"))
        };
        let mrs = find("MRS");
        let sub = find("Subsampling");
        let clustered = find("Clustered");
        let last = |c: &MrsCurve| *c.losses.last().unwrap();
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
        let result = run(Scale::Small);
        assert_eq!(result.sweep.len(), 3);
        assert!(result.sweep.windows(2).all(|w| w[0].buffer < w[1].buffer));
        // MRS reaches the 2x target at every buffer size at this scale.
        assert!(result.sweep.iter().all(|r| r.mrs.1.is_some()));
    }

    #[test]
    fn display_contains_all_schemes() {
        let result = run(Scale::Small);
        let text = result.to_string();
        assert!(text.contains("MRS"));
        assert!(text.contains("Subsampling"));
        assert!(text.contains("Clustered"));
    }
}
