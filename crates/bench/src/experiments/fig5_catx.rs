//! Figure 5 — the 1-D CA-TX example: IGD on random vs clustered orderings.
//!
//! Reproduces Example 3.1: 1000 one-dimensional least-squares examples
//! (labels +1 then −1), diminishing step size, and two visit orders. The
//! result records the trajectory of `w` (sub-sampled) and the number of
//! epochs each ordering needs to reach `w² < 0.001`, matching the paper's
//! "Random takes 18 epochs … Clustered takes 48 epochs" narrative.

use bismarck_core::model::{DenseModelStore, ModelStore};
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::LeastSquaresTask;
use bismarck_datagen::ca_tx_table;
use bismarck_storage::{ScanOrder, Table};

use super::render_table;
use super::scale::Scale;

/// Trajectory and convergence summary for one ordering.
#[derive(Debug, Clone)]
pub struct OrderingTrajectory {
    /// Ordering label (`"Random"` / `"Clustered"`).
    pub label: &'static str,
    /// `(gradient step index, w)` samples along the trajectory.
    pub samples: Vec<(usize, f64)>,
    /// Number of epochs until `w² < 0.001`, if reached within the cap.
    pub epochs_to_converge: Option<usize>,
}

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Number of examples (2n).
    pub examples: usize,
    /// Epoch cap used.
    pub max_epochs: usize,
    /// Random-order trajectory.
    pub random: OrderingTrajectory,
    /// Clustered-order trajectory.
    pub clustered: OrderingTrajectory,
}

fn run_ordering(
    table: &Table,
    order: ScanOrder,
    label: &'static str,
    max_epochs: usize,
    w0: f64,
) -> OrderingTrajectory {
    let task = LeastSquaresTask::new(1, 2, 1);
    let n = table.len();
    let sample_every = (n / 10).max(1);
    let mut store = DenseModelStore::new(vec![w0]);
    let mut samples = Vec::new();
    let mut epochs_to_converge = None;
    let mut step = 0usize;
    for epoch in 0..max_epochs {
        // Diminishing step-size rule, as in the paper's example.
        let alpha = 1.0 / (1.0 + epoch as f64);
        let permutation = order.permutation(n, epoch);
        let visit: Box<dyn Iterator<Item = &bismarck_storage::Tuple>> = match &permutation {
            Some(p) => Box::new(table.scan_permuted(p)),
            None => Box::new(table.scan()),
        };
        for tuple in visit {
            task.gradient_step(&mut store, tuple.into(), alpha);
            if step.is_multiple_of(sample_every) {
                samples.push((step, store.read(0)));
            }
            step += 1;
        }
        let w = store.read(0);
        if epochs_to_converge.is_none() && w * w < 0.001 {
            epochs_to_converge = Some(epoch + 1);
            // Keep going a little so the trajectory shows the settled value,
            // then stop to bound runtime.
            if epoch + 1 < max_epochs && samples.len() > 20 {
                break;
            }
        }
    }
    samples.push((step, store.read(0)));
    OrderingTrajectory {
        label,
        samples,
        epochs_to_converge,
    }
}

/// Run the Figure 5 experiment.
pub fn run(scale: Scale) -> Fig5Result {
    let n = scale.scaled(500, 500); // the paper uses 1000 examples (n = 500)
    let table = ca_tx_table(n);
    let max_epochs = scale.scaled(60, 100);
    // Start away from the optimum so the trajectory is informative.
    let w0 = 1.0;
    let random = run_ordering(
        &table,
        ScanOrder::ShuffleAlways { seed: 5 },
        "Random",
        max_epochs,
        w0,
    );
    let clustered = run_ordering(&table, ScanOrder::Clustered, "Clustered", max_epochs, w0);
    Fig5Result {
        examples: table.len(),
        max_epochs,
        random,
        clustered,
    }
}

impl std::fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 5 — 1-D CA-TX: epochs to reach w^2 < 0.001 ({} examples, cap {})",
            self.examples, self.max_epochs
        )?;
        let fmt_epochs = |e: &Option<usize>| {
            e.map(|v| v.to_string())
                .unwrap_or_else(|| format!(">{}", self.max_epochs))
        };
        let rows = vec![
            vec![
                "(1) Random".to_string(),
                fmt_epochs(&self.random.epochs_to_converge),
            ],
            vec![
                "(2) Clustered".to_string(),
                fmt_epochs(&self.clustered.epochs_to_converge),
            ],
        ];
        writeln!(
            f,
            "{}",
            render_table(&["ordering", "epochs to converge"], &rows)
        )?;
        writeln!(f, "w trajectory samples (step, w):")?;
        for traj in [&self.random, &self.clustered] {
            let line: Vec<String> = traj
                .samples
                .iter()
                .step_by((traj.samples.len() / 8).max(1))
                .map(|(s, w)| format!("({s}, {w:+.2})"))
                .collect();
            writeln!(f, "  {:<10} {}", traj.label, line.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One run shared by every test of this module.
    fn small() -> &'static Fig5Result {
        static RESULT: OnceLock<Fig5Result> = OnceLock::new();
        RESULT.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn random_converges_in_fewer_epochs_than_clustered() {
        let result = small();
        let random = result
            .random
            .epochs_to_converge
            .expect("random order converges");
        let clustered = result
            .clustered
            .epochs_to_converge
            .unwrap_or(result.max_epochs + 1);
        assert!(
            random < clustered,
            "random {random} epochs should beat clustered {clustered}"
        );
    }

    #[test]
    fn clustered_trajectory_oscillates() {
        let result = small();
        let ws: Vec<f64> = result.clustered.samples.iter().map(|&(_, w)| w).collect();
        let max = ws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = ws.iter().cloned().fold(f64::INFINITY, f64::min);
        // Within-epoch oscillation between roughly +1 and -1.
        assert!(max > 0.4, "max {max}");
        assert!(min < -0.4, "min {min}");
    }

    #[test]
    fn display_mentions_both_orderings() {
        let result = small();
        let text = result.to_string();
        assert!(text.contains("Random"));
        assert!(text.contains("Clustered"));
    }
}
