//! Table 4 — scalability study.
//!
//! The paper's Table 4 records, for each task on a large dataset, whether the
//! tool completes (✓) or "either crashes or takes longer than 48 hours" (✗).
//! We reproduce the same shape with a wall-clock budget scaled to the
//! generated datasets: a method earns ✓ when its projected time to run the
//! standard number of passes fits in the budget. Bismarck's per-pass time is
//! the gradient pass the engine records for a one-epoch sequential run; for
//! the batch baselines we time one iteration. Both are extrapolated (running
//! a hopeless configuration to completion would only re-measure the same
//! number many times over).

use std::time::Duration;

use bismarck_baselines::als::als_train;
use bismarck_baselines::{
    batch_lr_train, batch_svm_train, crf_batch_train, AlsConfig, BatchGradientConfig,
    CrfBatchConfig,
};
use bismarck_core::tasks::{CrfTask, LmfTask, LogisticRegressionTask, SvmTask};

use super::scale::Scale;
use super::{datasets, pass_time, render_table, timed};

/// Outcome of one (task, method) cell.
#[derive(Debug, Clone)]
pub struct ScalabilityCell {
    /// Method label.
    pub method: &'static str,
    /// Time of one pass / iteration.
    pub per_pass: Duration,
    /// Projected time for the full run (`per_pass × passes`).
    pub projected_total: Duration,
    /// Whether the projected total fits the budget.
    pub completes: bool,
}

/// One row of Table 4.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Task label.
    pub task: &'static str,
    /// Dataset name.
    pub dataset: String,
    /// Bismarck measurement.
    pub bismarck: ScalabilityCell,
    /// Baseline measurement.
    pub baseline: ScalabilityCell,
}

/// Result of the Table 4 experiment.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// Wall-clock budget representing the paper's 48-hour cut-off.
    pub budget: Duration,
    /// Number of passes assumed for the projection.
    pub passes: usize,
    /// One row per task.
    pub rows: Vec<ScalabilityRow>,
}

fn cell(
    method: &'static str,
    per_pass: Duration,
    passes: usize,
    budget: Duration,
) -> ScalabilityCell {
    let projected_total = per_pass * passes as u32;
    ScalabilityCell {
        method,
        per_pass,
        projected_total,
        completes: projected_total <= budget,
    }
}

/// Run the Table 4 experiment.
pub fn run(scale: Scale) -> Table4Result {
    // The budget plays the role of the paper's 48-hour cut-off, scaled to the
    // generated data sizes.
    let budget = Duration::from_secs_f64(match scale {
        Scale::Small => 20.0,
        Scale::Full => 1_800.0,
    });
    let passes = 20;
    let fcol = bismarck_datagen::CLASSIFICATION_FEATURES_COL;
    let lcol = bismarck_datagen::CLASSIFICATION_LABEL_COL;

    let classify = datasets::classify_large(scale);
    let matrix = datasets::matrix_large(scale);
    let dblp = datasets::dblp(scale);
    let classify_dim = datasets::feature_dimension(&classify);
    let (mx_rows, mx_cols, _, mx_rank) = datasets::matrix_large_shape(scale);
    let (seq_features, seq_labels) = datasets::conll_shape(scale);

    let lmf = LmfTask::new(
        bismarck_datagen::RATINGS_ROW_COL,
        bismarck_datagen::RATINGS_COL_COL,
        bismarck_datagen::RATINGS_VALUE_COL,
        mx_rows,
        mx_cols,
        mx_rank,
    );
    let crf = CrfTask::new(bismarck_datagen::SEQUENCE_COL, seq_features, seq_labels);
    let one_iteration = BatchGradientConfig {
        iterations: 1,
        ..BatchGradientConfig::new(fcol, lcol, classify_dim)
    };

    // One row: Bismarck's sequential pass against one iteration of the
    // baseline, each projected over `passes`.
    let row = |task, dataset: &str, bismarck, method, baseline| ScalabilityRow {
        task,
        dataset: dataset.into(),
        bismarck: cell("Bismarck IGD", bismarck, passes, budget),
        baseline: cell(method, baseline, passes, budget),
    };
    let rows = vec![
        // LR on the Classify300M stand-in: Bismarck vs batch LR.
        row(
            "LR",
            "classify_large",
            pass_time(
                &LogisticRegressionTask::new(fcol, lcol, classify_dim),
                None,
                &classify,
            ),
            "Batch LR",
            timed(|| batch_lr_train(&classify, one_iteration)).1,
        ),
        // SVM on the same dataset: Bismarck vs batch subgradient.
        row(
            "SVM",
            "classify_large",
            pass_time(&SvmTask::new(fcol, lcol, classify_dim), None, &classify),
            "Batch SVM",
            timed(|| batch_svm_train(&classify, one_iteration)).1,
        ),
        // LMF on the Matrix5B stand-in: Bismarck vs ALS.
        row(
            "LMF",
            "matrix_large",
            pass_time(&lmf, None, &matrix),
            "ALS",
            timed(|| {
                als_train(
                    &matrix,
                    AlsConfig {
                        sweeps: 1,
                        ..AlsConfig::new(mx_rows, mx_cols, mx_rank)
                    },
                )
            })
            .1,
        ),
        // CRF on the DBLP stand-in: Bismarck vs batch CRF.
        row(
            "CRF",
            "dblp",
            pass_time(&crf, None, &dblp),
            "Batch CRF",
            timed(|| {
                crf_batch_train(
                    &dblp,
                    CrfBatchConfig {
                        iterations: 1,
                        ..CrfBatchConfig::new(
                            bismarck_datagen::SEQUENCE_COL,
                            seq_features,
                            seq_labels,
                        )
                    },
                )
            })
            .1,
        ),
    ];

    Table4Result {
        budget,
        passes,
        rows,
    }
}

impl std::fmt::Display for Table4Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 4 — scalability: ✓ = projected {} passes fit within the {} budget",
            self.passes,
            super::secs(self.budget)
        )?;
        let mark = |c: &ScalabilityCell| if c.completes { "✓" } else { "✗" };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.task.to_string(),
                    r.dataset.clone(),
                    format!(
                        "{} ({}/pass)",
                        mark(&r.bismarck),
                        super::secs(r.bismarck.per_pass)
                    ),
                    format!(
                        "{} ({}/pass)",
                        mark(&r.baseline),
                        super::secs(r.baseline.per_pass)
                    ),
                    r.baseline.method.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["Task", "Dataset", "Bismarck", "Baseline", "Baseline method"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Table4Result {
        static RESULT: OnceLock<Table4Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn covers_all_four_tasks_and_bismarck_always_completes() {
        let result = small();
        assert_eq!(result.rows.len(), 4);
        let tasks: Vec<&str> = result.rows.iter().map(|r| r.task).collect();
        assert_eq!(tasks, vec!["LR", "SVM", "LMF", "CRF"]);
        // Bismarck's per-epoch cost is linear in the data, so at every scale
        // its projected total fits the (scaled) budget.
        assert!(result.rows.iter().all(|r| r.bismarck.completes));
        assert!(result
            .rows
            .iter()
            .all(|r| r.bismarck.per_pass > Duration::ZERO));
        assert!(result
            .rows
            .iter()
            .all(|r| r.baseline.per_pass > Duration::ZERO));
    }

    #[test]
    fn projection_multiplies_per_pass_time() {
        let result = small();
        for row in &result.rows {
            for cell in [&row.bismarck, &row.baseline] {
                let expected = cell.per_pass * result.passes as u32;
                assert_eq!(cell.projected_total, expected);
            }
        }
    }

    #[test]
    fn display_uses_check_and_cross_marks() {
        let result = small();
        let text = result.to_string();
        assert!(text.contains('✓'));
        assert!(text.contains("Baseline method"));
    }
}
