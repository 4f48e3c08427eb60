//! One module per table/figure of the paper's evaluation.
//!
//! Every Bismarck-side number an experiment reports is read from the
//! [`TrainedModel`] the engine returns: losses, cumulative times and
//! per-pass times are its `EpochRecord`s. Only what keeps no epoch records
//! of its own (the native tools and the NULL aggregate) is timed here, by
//! `timed`.

use std::time::{Duration, Instant};

use bismarck_core::task::IgdTask;
use bismarck_core::{
    ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainedModel, Trainer, TrainerConfig,
};
use bismarck_storage::{ScanOrder, Table};
use bismarck_uda::{ConvergenceTest, TrainingHistory};

pub mod datasets;
pub mod fig10_mrs;
pub mod fig5_catx;
pub mod fig7_benchmark;
pub mod fig8_ordering;
pub mod fig9_parallel;
pub mod scale;
pub mod table1_datasets;
pub mod table2_3_overheads;
pub mod table4_scalability;

/// Train `task` on `table`: sequentially when `strategy` is `None`, else
/// through the parallel pass it names. The only place an experiment meets
/// the training façades.
pub(crate) fn train<T: IgdTask>(
    task: &T,
    config: TrainerConfig,
    strategy: Option<ParallelStrategy>,
    table: &Table,
) -> TrainedModel {
    match strategy {
        None => Trainer::new(task, config).train(table),
        Some(strategy) => ParallelTrainer::new(task, config, strategy).train(table).0,
    }
}

/// The time of one gradient pass over `table` in storage order, as the
/// engine records it: the `gradient_duration` of a one-epoch run. The
/// per-pass time of Tables 2–4.
pub(crate) fn pass_time<T: IgdTask>(
    task: &T,
    strategy: Option<ParallelStrategy>,
    table: &Table,
) -> Duration {
    let config = TrainerConfig::default()
        .with_scan_order(ScanOrder::Clustered)
        .with_step_size(StepSizeSchedule::Constant(0.01))
        .with_convergence(ConvergenceTest::FixedEpochs(1));
    train(task, config, strategy, table).history.records()[0].gradient_duration
}

/// Run `f` and time it: for what keeps no epoch records (a native tool,
/// the NULL aggregate).
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `history`'s losses, one decimal each, every `(epochs / 10)`-th epoch's
/// (every epoch's under twenty).
pub(crate) fn sampled_losses(history: &TrainingHistory) -> String {
    let losses = history.losses();
    let line: Vec<String> = losses
        .iter()
        .step_by((losses.len() / 10).max(1))
        .map(|l| format!("{l:.1}"))
        .collect();
    line.join(" ")
}

/// Format a duration in the unit that suits it, to three decimals
/// (`1.500s`, `12.345ms`, `3.210µs`): a sub-millisecond time reads as what
/// it is, not as `0.000s`.
pub fn secs(d: std::time::Duration) -> String {
    format!("{d:.3?}")
}

/// Render a simple aligned text table: a header row followed by data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            } else {
                widths.push(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "22".to_string()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn secs_formats_milliseconds() {
        use std::time::Duration;
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
        assert_eq!(secs(Duration::from_micros(12_345)), "12.345ms");
        assert_eq!(secs(Duration::from_nanos(3_210)), "3.210µs");
    }
}
