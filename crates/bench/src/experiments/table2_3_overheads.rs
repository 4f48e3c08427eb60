//! Tables 2 and 3 — single-iteration runtime of each task against the
//! strawman NULL aggregate.
//!
//! Table 2 measures the **pure UDA** implementation (the sequential
//! aggregate pass); Table 3 measures the **shared-memory UDA** variant. A
//! task's time is the gradient pass the engine records for a one-epoch run.
//! Overhead is `(task time − NULL time) / NULL time`, i.e. how much the
//! gradient arithmetic adds on top of scanning the tuples.

use std::time::Duration;

use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{LmfTask, LogisticRegressionTask, SvmTask};
use bismarck_core::{ParallelStrategy, UpdateDiscipline};
use bismarck_storage::{NullAggregate, Table};

use super::scale::Scale;
use super::{datasets, pass_time, render_table, timed};

/// Which UDA implementation an overhead row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdaVariant {
    /// Ordinary (pure) UDA execution — Table 2.
    Pure,
    /// Shared-memory UDA execution — Table 3.
    SharedMemory,
}

impl UdaVariant {
    /// The pass a one-epoch run measures: the sequential aggregate, or
    /// NoLock shared memory over two workers.
    fn strategy(self) -> Option<ParallelStrategy> {
        match self {
            UdaVariant::Pure => None,
            UdaVariant::SharedMemory => Some(ParallelStrategy::SharedMemory {
                workers: 2,
                discipline: UpdateDiscipline::NoLock,
            }),
        }
    }
}

/// One row of Table 2 / Table 3.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Dataset name.
    pub dataset: String,
    /// Task name (`"LR"`, `"SVM"`, `"LMF"`).
    pub task: &'static str,
    /// Single-iteration runtime of the NULL aggregate.
    pub null_time: Duration,
    /// Single-iteration runtime of the task.
    pub task_time: Duration,
}

impl OverheadRow {
    /// Overhead relative to the NULL aggregate, in percent.
    pub fn overhead_percent(&self) -> f64 {
        let null = self.null_time.as_secs_f64().max(1e-9);
        (self.task_time.as_secs_f64() - null) / null * 100.0
    }
}

/// Result of the Table 2 or Table 3 experiment.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Which UDA implementation was measured.
    pub variant: UdaVariant,
    /// One row per (dataset, task) pair.
    pub rows: Vec<OverheadRow>,
}

/// Run the overhead measurement for the chosen UDA variant.
pub fn run(scale: Scale, variant: UdaVariant) -> OverheadResult {
    let forest = datasets::forest(scale);
    let dblife = datasets::dblife(scale);
    let movielens = datasets::movielens(scale);

    let forest_dim = datasets::feature_dimension(&forest);
    let dblife_dim = datasets::feature_dimension(&dblife);
    let (ml_rows, ml_cols, _, ml_rank) = datasets::movielens_shape(scale);

    let fcol = bismarck_datagen::CLASSIFICATION_FEATURES_COL;
    let lcol = bismarck_datagen::CLASSIFICATION_LABEL_COL;

    let lr_forest = LogisticRegressionTask::new(fcol, lcol, forest_dim);
    let svm_forest = SvmTask::new(fcol, lcol, forest_dim);
    let lr_dblife = LogisticRegressionTask::new(fcol, lcol, dblife_dim);
    let svm_dblife = SvmTask::new(fcol, lcol, dblife_dim);
    let lmf = LmfTask::new(
        bismarck_datagen::RATINGS_ROW_COL,
        bismarck_datagen::RATINGS_COL_COL,
        bismarck_datagen::RATINGS_VALUE_COL,
        ml_rows,
        ml_cols,
        ml_rank,
    );

    fn measure<T: IgdTask>(
        variant: UdaVariant,
        dataset: &str,
        task_name: &'static str,
        table: &Table,
        task: &T,
    ) -> OverheadRow {
        let (count, null_time) = timed(|| NullAggregate::run_epoch(table));
        assert_eq!(count, table.len());
        OverheadRow {
            dataset: dataset.to_string(),
            task: task_name,
            null_time,
            task_time: pass_time(task, variant.strategy(), table),
        }
    }

    let rows = vec![
        measure(variant, "forest", "LR", &forest, &lr_forest),
        measure(variant, "forest", "SVM", &forest, &svm_forest),
        measure(variant, "dblife", "LR", &dblife, &lr_dblife),
        measure(variant, "dblife", "SVM", &dblife, &svm_dblife),
        measure(variant, "movielens", "LMF", &movielens, &lmf),
    ];

    OverheadResult { variant, rows }
}

impl std::fmt::Display for OverheadResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let title = match self.variant {
            UdaVariant::Pure => "Table 2 — pure UDA single-iteration overhead vs NULL aggregate",
            UdaVariant::SharedMemory => {
                "Table 3 — shared-memory UDA single-iteration overhead vs NULL aggregate"
            }
        };
        writeln!(f, "{title}")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.task.to_string(),
                    super::secs(r.null_time),
                    super::secs(r.task_time),
                    format!("{:.1}%", r.overhead_percent()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["Dataset", "Task", "NULL time", "Runtime", "Overhead"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_uda_rows_cover_all_task_dataset_pairs() {
        let result = run(Scale::Small, UdaVariant::Pure);
        assert_eq!(result.rows.len(), 5);
        for row in &result.rows {
            assert!(row.task_time >= Duration::ZERO);
            assert!(row.null_time > Duration::ZERO);
            // Gradient arithmetic always costs something relative to a no-op
            // scan (allow small negatives from timer noise on tiny tables).
            assert!(row.overhead_percent() > -50.0);
        }
    }

    #[test]
    fn shared_memory_rows_cover_all_task_dataset_pairs() {
        let result = run(Scale::Small, UdaVariant::SharedMemory);
        assert_eq!(result.rows.len(), 5);
        assert!(result.rows.iter().all(|r| r.task_time > Duration::ZERO));
        let text = result.to_string();
        assert!(text.contains("Table 3"));
        assert!(text.contains("movielens"));
    }

    #[test]
    fn overhead_percent_formula() {
        let row = OverheadRow {
            dataset: "x".into(),
            task: "LR",
            null_time: Duration::from_millis(100),
            task_time: Duration::from_millis(150),
        };
        assert!((row.overhead_percent() - 50.0).abs() < 1.0);
    }
}
