//! Figure 7 — benchmark comparison against native analytics tools.
//!
//! (A) End-to-end runtime to convergence (0.1% relative tolerance) for LR,
//! SVM and LMF: Bismarck (shared-memory NoLock, shuffle-once) against the
//! per-task batch algorithms native tools use (IRLS, batch subgradient, ALS).
//! The paper reports "N/A" where a native tool does not support a task; we
//! mark the IRLS baseline N/A on the sparse dataset because a `d × d` Newton
//! solve is infeasible at DBLife's dimensionality — the same reason MADlib's
//! LR is absent from the sparse row of the original figure.
//!
//! (B) CRF convergence over time: Bismarck's IGD CRF against the full-batch
//! trainer standing in for CRF++ / Mallet.

use std::time::Duration;

use bismarck_baselines::{
    als::als_train, batch_svm_train, crf_batch_train, irls_train, AlsConfig, BatchGradientConfig,
    CrfBatchConfig, IrlsConfig,
};
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{CrfTask, LmfTask, LogisticRegressionTask, SvmTask};
use bismarck_core::{ParallelStrategy, StepSizeSchedule, TrainerConfig, UpdateDiscipline};
use bismarck_storage::{ScanOrder, Table};
use bismarck_uda::{ConvergenceTest, TrainingHistory};

use super::scale::Scale;
use super::{datasets, render_table, timed, train};

/// One comparison row of Figure 7(A).
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Dataset name.
    pub dataset: String,
    /// Task name.
    pub task: &'static str,
    /// Bismarck's run; its time is the engine's `total_duration()`.
    pub bismarck: TrainingHistory,
    /// Baseline ("native tool") name.
    pub baseline: &'static str,
    /// Baseline runtime and final objective, `None` when the baseline does
    /// not support the task.
    pub native: Option<(Duration, f64)>,
}

impl BenchmarkRow {
    /// Speed-up of Bismarck over the baseline (`None` when N/A).
    pub fn speedup(&self) -> Option<f64> {
        let bismarck = self.bismarck.total_duration().as_secs_f64().max(1e-9);
        self.native.map(|(time, _)| time.as_secs_f64() / bismarck)
    }
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Figure 7(A): per-task comparison rows.
    pub rows: Vec<BenchmarkRow>,
    /// Figure 7(B): Bismarck's CRF run.
    pub crf_bismarck: TrainingHistory,
    /// Figure 7(B): the batch CRF's loss after each full pass, and the
    /// time of all its passes.
    pub crf_batch: (Vec<f64>, Duration),
}

impl Fig7Result {
    /// Figure 7(B)'s two series as (seconds, loss) points: Bismarck's from
    /// its epoch records, the batch tool's spread evenly over its time.
    fn crf_series(&self) -> [(&'static str, Vec<(f64, f64)>); 2] {
        let bismarck = self.crf_bismarck.records().iter();
        let (losses, total) = &self.crf_batch;
        let per_pass = total.as_secs_f64() / losses.len().max(1) as f64;
        [
            (
                "Bismarck (IGD)",
                bismarck
                    .map(|r| (r.cumulative.as_secs_f64(), r.loss))
                    .collect(),
            ),
            (
                "Batch CRF tool",
                (1..)
                    .zip(losses)
                    .map(|(pass, &loss)| (per_pass * pass as f64, loss))
                    .collect(),
            ),
        ]
    }
}

fn bismarck_config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 99 })
        .with_step_size(StepSizeSchedule::Diminishing { initial: 0.5 })
        .with_convergence(ConvergenceTest::paper_default(epochs))
}

/// Bismarck's run in both panels: shared-memory NoLock over two workers.
fn bismarck<T: IgdTask>(task: &T, config: TrainerConfig, table: &Table) -> TrainingHistory {
    let strategy = ParallelStrategy::SharedMemory {
        workers: 2,
        discipline: UpdateDiscipline::NoLock,
    };
    train(task, config, Some(strategy), table).history
}

/// Run the Figure 7 experiment.
pub fn run(scale: Scale) -> Fig7Result {
    let config = bismarck_config(scale.scaled(15, 30));
    let fcol = bismarck_datagen::CLASSIFICATION_FEATURES_COL;
    let lcol = bismarck_datagen::CLASSIFICATION_LABEL_COL;
    let lr = |dim| LogisticRegressionTask::new(fcol, lcol, dim);
    let svm = |dim| SvmTask::new(fcol, lcol, dim);
    let batch_svm = |dim| BatchGradientConfig {
        iterations: scale.scaled(60, 150),
        step_size: 0.5,
        ..BatchGradientConfig::new(fcol, lcol, dim)
    };

    let forest = datasets::forest(scale);
    let dblife = datasets::dblife(scale);
    let movielens = datasets::movielens(scale);
    let forest_dim = datasets::feature_dimension(&forest);
    let dblife_dim = datasets::feature_dimension(&dblife);
    let (ml_rows, ml_cols, _, ml_rank) = datasets::movielens_shape(scale);
    let lmf = LmfTask::new(
        bismarck_datagen::RATINGS_ROW_COL,
        bismarck_datagen::RATINGS_COL_COL,
        bismarck_datagen::RATINGS_VALUE_COL,
        ml_rows,
        ml_cols,
        ml_rank,
    );

    // One row of (A): Bismarck's run, then the native tool's losses and
    // time (`None` where the tool does not support the task).
    let row = |dataset: &str, task, bismarck, baseline, native: Option<(Vec<f64>, Duration)>| {
        BenchmarkRow {
            dataset: dataset.into(),
            task,
            bismarck,
            baseline,
            native: native.map(|(losses, time)| (time, *losses.last().unwrap_or(&f64::NAN))),
        }
    };
    let rows = vec![
        row(
            "forest",
            "LR",
            bismarck(&lr(forest_dim), config.clone(), &forest),
            "IRLS (Newton)",
            Some(timed(|| {
                irls_train(&forest, IrlsConfig::new(fcol, lcol, forest_dim)).losses
            })),
        ),
        row(
            "forest",
            "SVM",
            bismarck(&svm(forest_dim), config.clone(), &forest),
            "Batch subgradient",
            Some(timed(|| {
                batch_svm_train(&forest, batch_svm(forest_dim)).losses
            })),
        ),
        // IRLS is N/A at DBLife's dimensionality.
        row(
            "dblife",
            "LR",
            bismarck(&lr(dblife_dim), config.clone(), &dblife),
            "IRLS (Newton)",
            None,
        ),
        row(
            "dblife",
            "SVM",
            bismarck(&svm(dblife_dim), config.clone(), &dblife),
            "Batch subgradient",
            Some(timed(|| {
                batch_svm_train(&dblife, batch_svm(dblife_dim)).losses
            })),
        ),
        row(
            "movielens",
            "LMF",
            // LMF needs a gentler step size than the linear models.
            bismarck(
                &lmf,
                config.with_step_size(StepSizeSchedule::Constant(0.02)),
                &movielens,
            ),
            "ALS",
            Some(timed(|| {
                let sweeps = scale.scaled(8, 15);
                let config = AlsConfig::new(ml_rows, ml_cols, ml_rank);
                als_train(&movielens, AlsConfig { sweeps, ..config }).losses
            })),
        ),
    ];

    // --- Figure 7(B): CRF convergence over time --------------------------------
    let conll = datasets::conll(scale);
    let (num_features, num_labels) = datasets::conll_shape(scale);
    let crf_epochs = scale.scaled(8, 20);
    let crf_bismarck = bismarck(
        &CrfTask::new(bismarck_datagen::SEQUENCE_COL, num_features, num_labels),
        TrainerConfig::default()
            .with_scan_order(ScanOrder::ShuffleOnce { seed: 3 })
            .with_step_size(StepSizeSchedule::Constant(0.1))
            .with_convergence(ConvergenceTest::FixedEpochs(crf_epochs)),
        &conll,
    );
    // Batch CRF (CRF++ / Mallet stand-in): one loss point per full pass.
    let crf_batch = timed(|| {
        crf_batch_train(
            &conll,
            CrfBatchConfig {
                iterations: crf_epochs,
                step_size: 0.1,
                ..CrfBatchConfig::new(bismarck_datagen::SEQUENCE_COL, num_features, num_labels)
            },
        )
        .losses
    });

    Fig7Result {
        rows,
        crf_bismarck,
        crf_batch,
    }
}

impl std::fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 7(A) — runtime to convergence: Bismarck vs native-tool baselines"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.task.to_string(),
                    super::secs(r.bismarck.total_duration()),
                    format!("{:.2}", r.bismarck.final_loss().unwrap_or(f64::NAN)),
                    r.baseline.to_string(),
                    r.native
                        .map(|(time, _)| super::secs(time))
                        .unwrap_or_else(|| "N/A".into()),
                    r.native
                        .map(|(_, loss)| format!("{loss:.2}"))
                        .unwrap_or_else(|| "N/A".into()),
                    r.speedup()
                        .map(|s| format!("{s:.1}x"))
                        .unwrap_or_else(|| "N/A".into()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                &[
                    "Dataset",
                    "Task",
                    "Bismarck",
                    "Bismarck loss",
                    "Baseline",
                    "Baseline time",
                    "Baseline loss",
                    "Speedup",
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "Figure 7(B) — CRF objective over time (seconds, -log-likelihood)"
        )?;
        for (name, points) in self.crf_series() {
            let line: Vec<String> = points
                .iter()
                .step_by((points.len() / 8).max(1))
                .map(|(seconds, loss)| format!("({seconds:.2}s, {loss:.1})"))
                .collect();
            writeln!(f, "  {:<18} {}", name, line.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Fig7Result {
        static RESULT: OnceLock<Fig7Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn comparison_covers_all_rows_and_marks_na() {
        let result = small();
        assert_eq!(result.rows.len(), 5);
        // Sparse LR baseline is N/A, everything else has a measurement.
        let na: Vec<&BenchmarkRow> = result.rows.iter().filter(|r| r.native.is_none()).collect();
        assert_eq!(na.len(), 1);
        assert_eq!(na[0].dataset, "dblife");
        assert_eq!(na[0].task, "LR");
        for row in &result.rows {
            assert!(row.bismarck.final_loss().unwrap().is_finite());
            assert!(row.bismarck.total_duration() > Duration::ZERO);
        }
    }

    #[test]
    fn both_crf_series_are_decreasing_overall() {
        for (_, series) in small().crf_series() {
            assert!(series.len() >= 3);
            assert!(series.last().unwrap().1 < series.first().unwrap().1);
            // Time axis is monotone.
            assert!(series.windows(2).all(|w| w[1].0 >= w[0].0));
        }
    }

    #[test]
    fn display_contains_speedups_and_na() {
        let result = small();
        let text = result.to_string();
        assert!(text.contains("N/A"));
        assert!(text.contains("Speedup"));
        assert!(text.contains("Bismarck (IGD)"));
    }
}
