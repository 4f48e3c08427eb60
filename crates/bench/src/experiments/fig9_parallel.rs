//! Figure 9 — parallelizing IGD in an RDBMS.
//!
//! (A) Objective over epochs for the pure-UDA (model averaging) scheme and
//! the three shared-memory disciplines (Lock, AIG, NoLock) on the CRF task —
//! model averaging converges more slowly, the shared-memory schemes track
//! each other.
//!
//! (B) Speed-up of the per-epoch gradient pass, as the engine records it, as
//! worker count grows. Its size depends on the host's cores; the harness
//! reports whatever they deliver (see README, "Build, test, bench").

use std::time::Duration;

use bismarck_core::tasks::CrfTask;
use bismarck_core::{ParallelStrategy, StepSizeSchedule, TrainerConfig, UpdateDiscipline};
use bismarck_storage::ScanOrder;
use bismarck_uda::{ConvergenceTest, TrainingHistory};

use super::scale::Scale;
use super::{datasets, render_table, train};

/// Speed-up measurement of one scheme at one worker count (Figure 9(B)).
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Scheme label.
    pub label: &'static str,
    /// Number of workers.
    pub workers: usize,
    /// Per-epoch gradient time.
    pub gradient_time: Duration,
}

/// Result of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Figure 9(A) runs, one per scheme (`"PureUDA"`, `"Lock"`, `"AIG"`,
    /// `"NoLock"`).
    pub curves: Vec<(&'static str, TrainingHistory)>,
    /// Figure 9(B) measurements (grouped by scheme, ascending worker count).
    pub speedups: Vec<SpeedupPoint>,
    /// Worker count used for the convergence comparison.
    pub convergence_workers: usize,
}

fn strategies(workers: usize) -> Vec<(&'static str, ParallelStrategy)> {
    vec![
        ("PureUDA", ParallelStrategy::PureUda { segments: workers }),
        (
            "Lock",
            ParallelStrategy::SharedMemory {
                workers,
                discipline: UpdateDiscipline::Lock,
            },
        ),
        (
            "AIG",
            ParallelStrategy::SharedMemory {
                workers,
                discipline: UpdateDiscipline::Aig,
            },
        ),
        (
            "NoLock",
            ParallelStrategy::SharedMemory {
                workers,
                discipline: UpdateDiscipline::NoLock,
            },
        ),
    ]
}

fn crf_config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 17 })
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

/// Run the Figure 9 experiment.
pub fn run(scale: Scale) -> Fig9Result {
    let table = datasets::conll(scale);
    let (num_features, num_labels) = datasets::conll_shape(scale);
    let task = CrfTask::new(bismarck_datagen::SEQUENCE_COL, num_features, num_labels);
    let convergence_workers = 8;
    let epochs = scale.scaled(6, 20);

    // (A) convergence comparison at a fixed worker count.
    let curves = strategies(convergence_workers)
        .into_iter()
        .map(|(label, strategy)| {
            let trained = train(&task, crf_config(epochs), Some(strategy), &table);
            (label, trained.history)
        })
        .collect();

    // (B) per-epoch gradient time vs worker count (single epoch per point).
    let mut speedups = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        for (label, strategy) in strategies(workers) {
            let trained = train(&task, crf_config(1), Some(strategy), &table);
            let gradient_time = trained.history.records()[0].gradient_duration;
            speedups.push(SpeedupPoint {
                label,
                workers,
                gradient_time,
            });
        }
    }

    Fig9Result {
        curves,
        speedups,
        convergence_workers,
    }
}

impl Fig9Result {
    /// Speed-up of a scheme at a worker count relative to its single-worker
    /// measurement.
    pub fn speedup_of(&self, label: &str, workers: usize) -> Option<f64> {
        let base = self
            .speedups
            .iter()
            .find(|p| p.label == label && p.workers == 1)?
            .gradient_time
            .as_secs_f64();
        let at = self
            .speedups
            .iter()
            .find(|p| p.label == label && p.workers == workers)?
            .gradient_time
            .as_secs_f64();
        Some(base / at.max(1e-9))
    }
}

impl std::fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 9(A) — objective over epochs (CRF, {} workers)",
            self.convergence_workers
        )?;
        let rows: Vec<Vec<String>> = self
            .curves
            .iter()
            .map(|(label, history)| {
                let mut cells = vec![label.to_string()];
                cells.extend(history.records().iter().map(|r| format!("{:.1}", r.loss)));
                cells
            })
            .collect();
        let mut header: Vec<String> = vec!["Scheme".to_string()];
        header.extend(
            (1..=self
                .curves
                .first()
                .map_or(0, |(_, history)| history.epochs()))
                .map(|e| format!("ep{e}")),
        );
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        writeln!(f, "{}", render_table(&header_refs, &rows))?;

        writeln!(
            f,
            "Figure 9(B) — per-epoch gradient time and speed-up vs 1 worker"
        )?;
        let mut rows = Vec::new();
        for p in &self.speedups {
            rows.push(vec![
                p.label.to_string(),
                p.workers.to_string(),
                super::secs(p.gradient_time),
                self.speedup_of(p.label, p.workers)
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        write!(
            f,
            "{}",
            render_table(&["Scheme", "Workers", "Gradient time", "Speed-up"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Fig9Result {
        static RESULT: OnceLock<Fig9Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn all_schemes_converge_and_shared_memory_beats_model_averaging() {
        let result = small();
        assert_eq!(result.curves.len(), 4);
        let by_label = |label: &str| {
            result
                .curves
                .iter()
                .find(|(l, _)| *l == label)
                .expect("curve present")
                .1
                .losses()
        };
        for (_, history) in &result.curves {
            let losses = history.losses();
            assert!(losses.last().unwrap() < losses.first().unwrap());
        }
        // The Figure 9(A) shape: model averaging (PureUDA) ends with a loss no
        // better than the NoLock shared-memory scheme.
        let pure = by_label("PureUDA").last().copied().unwrap();
        let nolock = by_label("NoLock").last().copied().unwrap();
        assert!(nolock <= pure * 1.05, "NoLock {nolock} vs PureUDA {pure}");
    }

    #[test]
    fn speedup_points_cover_all_worker_counts() {
        let result = small();
        assert_eq!(result.speedups.len(), 4 * 4);
        for label in ["PureUDA", "Lock", "AIG", "NoLock"] {
            for workers in [1usize, 2, 4, 8] {
                let point = result
                    .speedups
                    .iter()
                    .find(|p| p.label == label && p.workers == workers)
                    .expect("point present");
                assert!(point.gradient_time > Duration::ZERO);
                // Speed-up is computable and positive (its magnitude depends
                // on the host's core count, so no stronger claim here).
                assert!(result.speedup_of(label, workers).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn display_shows_schemes_and_workers() {
        let result = small();
        let text = result.to_string();
        for label in ["PureUDA", "Lock", "AIG", "NoLock"] {
            assert!(text.contains(label));
        }
        assert!(text.contains("Speed-up"));
    }
}
