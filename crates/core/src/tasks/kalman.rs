//! Kalman-filter style time-series smoothing.
//!
//! Figure 1(B) lists Kalman filters with the objective
//! `Σ_t ‖C w_t − f(y_t)‖² + ‖w_t − A w_{t−1}‖²`: fit a latent state sequence
//! `w_1..w_T` to noisy observations while keeping consecutive states close.
//! We implement the common smoothing instantiation with `C = I`, `A = I` and
//! a tunable smoothness weight `λ` (the paper keeps the general matrices
//! abstract; the identity case already exercises the interesting property —
//! the model is the *whole state trajectory* and each observation's gradient
//! touches two adjacent states).
//!
//! Each tuple is `(t, observation vector)`; the flat model stacks the `T`
//! state vectors, so the dimension is `T · d`.

use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::RowRef;

use crate::model::ModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// Kalman smoothing over `(timestep, observation)` tuples.
#[derive(Debug, Clone)]
pub struct KalmanTask {
    time_col: usize,
    obs_col: usize,
    horizon: usize,
    state_dim: usize,
    smoothness: f64,
}

impl KalmanTask {
    /// Create a smoothing task.
    ///
    /// * `time_col` — tuple position of the integer timestep in `0..horizon`;
    /// * `obs_col` — tuple position of the observation vector;
    /// * `horizon` — number of timesteps `T`;
    /// * `state_dim` — dimensionality `d` of each state/observation;
    /// * `smoothness` — the weight `λ` of `‖w_t − w_{t−1}‖²`.
    pub fn new(
        time_col: usize,
        obs_col: usize,
        horizon: usize,
        state_dim: usize,
        smoothness: f64,
    ) -> Self {
        assert!(
            horizon > 0 && state_dim > 0,
            "horizon and state_dim must be positive"
        );
        assert!(smoothness >= 0.0, "smoothness must be non-negative");
        KalmanTask {
            time_col,
            obs_col,
            horizon,
            state_dim,
            smoothness,
        }
    }

    /// Number of timesteps.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Per-state dimensionality.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Flat offset of component `k` of state `t`.
    #[inline]
    fn offset(&self, t: usize, k: usize) -> usize {
        t * self.state_dim + k
    }

    /// Borrow the observation view for a valid timestep — zero-copy.
    // `inline(always)`: called out of line, the row's example comes back
    // through memory (≈ +15 ns/row on a row-store Kalman pass).
    #[inline(always)]
    fn example<'t>(&self, row: RowRef<'t>) -> Option<(usize, FeatureVectorRef<'t>)> {
        let t = row.get_int(self.time_col)?;
        if t < 0 || t as usize >= self.horizon {
            return None;
        }
        let obs = row.feature_view(self.obs_col)?;
        Some((t as usize, obs))
    }

    /// Extract the smoothed state at timestep `t` from a flat model.
    pub fn state(&self, model: &[f64], t: usize) -> Vec<f64> {
        (0..self.state_dim)
            .map(|k| model[self.offset(t, k)])
            .collect()
    }
}

impl IgdTask for KalmanTask {
    fn name(&self) -> &'static str {
        "KALMAN"
    }

    fn dimension(&self) -> usize {
        self.horizon * self.state_dim
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let Some((t, obs)) = self.example(row) else {
            return;
        };
        // Read observation components straight through the view: no dense
        // materialization per tuple (dense views index directly; sparse ones
        // binary-search their few stored entries).
        for k in 0..self.state_dim {
            let wt = model.read(self.offset(t, k));
            // Observation term: 2 (w_t - y_t)
            let mut grad_t = 2.0 * (wt - obs.get(k));
            // Smoothness with the previous state couples w_t and w_{t-1}.
            if t > 0 {
                let wprev = model.read(self.offset(t - 1, k));
                let diff = wt - wprev;
                grad_t += 2.0 * self.smoothness * diff;
                model.update(self.offset(t - 1, k), alpha * 2.0 * self.smoothness * diff);
            }
            model.update(self.offset(t, k), -alpha * grad_t);
        }
    }

    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        match self.example(row) {
            Some((t, obs)) => {
                let mut loss = 0.0;
                for k in 0..self.state_dim {
                    let wt = model[self.offset(t, k)];
                    loss += (wt - obs.get(k)).powi(2);
                    if t > 0 {
                        let wprev = model[self.offset(t - 1, k)];
                        loss += self.smoothness * (wt - wprev).powi(2);
                    }
                }
                loss
            }
            None => 0.0,
        }
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        ProximalPolicy::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DenseModelStore;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    fn obs_table(observations: &[Vec<f64>]) -> Table {
        let schema = Schema::new(vec![
            Column::new("t", DataType::Int),
            Column::new("obs", DataType::DenseVec),
        ])
        .unwrap();
        let mut table = Table::new("ts", schema);
        for (t, obs) in observations.iter().enumerate() {
            table
                .insert(vec![Value::Int(t as i64), Value::from(obs.clone())])
                .unwrap();
        }
        table
    }

    fn train(task: &KalmanTask, table: &Table, epochs: usize, alpha: f64) -> Vec<f64> {
        let mut store = DenseModelStore::zeros(task.dimension());
        for _ in 0..epochs {
            for tuple in table.scan() {
                task.gradient_step(&mut store, tuple.into(), alpha);
            }
        }
        store.into_vec()
    }

    #[test]
    fn without_smoothing_states_track_observations() {
        let obs = vec![vec![1.0], vec![5.0], vec![-2.0]];
        let table = obs_table(&obs);
        let task = KalmanTask::new(0, 1, 3, 1, 0.0);
        let model = train(&task, &table, 300, 0.1);
        for (t, o) in obs.iter().enumerate() {
            assert!((task.state(&model, t)[0] - o[0]).abs() < 1e-3);
        }
    }

    #[test]
    fn smoothing_pulls_states_towards_each_other() {
        let obs = vec![vec![0.0], vec![10.0]];
        let table = obs_table(&obs);
        let rough = train(&KalmanTask::new(0, 1, 2, 1, 0.0), &table, 400, 0.1);
        let smooth = train(&KalmanTask::new(0, 1, 2, 1, 5.0), &table, 400, 0.05);
        let gap_rough = (rough[1] - rough[0]).abs();
        let gap_smooth = (smooth[1] - smooth[0]).abs();
        assert!(
            gap_smooth < gap_rough,
            "smooth {gap_smooth} vs rough {gap_rough}"
        );
    }

    #[test]
    fn loss_decreases_with_training() {
        let obs: Vec<Vec<f64>> = (0..10).map(|t| vec![(t as f64).sin(), t as f64]).collect();
        let table = obs_table(&obs);
        let task = KalmanTask::new(0, 1, 10, 2, 1.0);
        let zero = vec![0.0; task.dimension()];
        let initial: f64 = table
            .scan()
            .map(|tup| task.example_loss(&zero, tup.into()))
            .sum();
        let model = train(&task, &table, 200, 0.05);
        let trained: f64 = table
            .scan()
            .map(|tup| task.example_loss(&model, tup.into()))
            .sum();
        assert!(trained < initial * 0.5);
    }

    #[test]
    fn out_of_range_timestep_ignored() {
        let schema = Schema::new(vec![
            Column::new("t", DataType::Int),
            Column::new("obs", DataType::DenseVec),
        ])
        .unwrap();
        let mut table = Table::new("ts", schema);
        table
            .insert(vec![Value::Int(99), Value::from(vec![1.0])])
            .unwrap();
        let task = KalmanTask::new(0, 1, 3, 1, 0.0);
        let mut store = DenseModelStore::zeros(task.dimension());
        task.gradient_step(&mut store, table.get(0).unwrap().into(), 0.1);
        assert!(store.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(
            task.example_loss(store.as_slice(), table.get(0).unwrap().into()),
            0.0
        );
    }

    #[test]
    fn accessors() {
        let task = KalmanTask::new(0, 1, 4, 3, 0.5);
        assert_eq!(task.dimension(), 12);
        assert_eq!(task.horizon(), 4);
        assert_eq!(task.state_dim(), 3);
        assert_eq!(task.name(), "KALMAN");
    }
}
