//! Low-rank matrix factorization (LMF) for recommendation.
//!
//! Objective (Figure 1(B)):
//! `Σ_{(i,j)∈Ω} (L_iᵀ R_j − M_ij)² + µ‖L, R‖²_F`.
//!
//! The model is the pair of factor matrices `L (rows × rank)` and
//! `R (cols × rank)` stored as one flat vector `[L | R]`, so the same
//! shared-memory parallel machinery used for linear models applies: each
//! rating touches only `2·rank` coordinates, which is exactly the sparse
//! update pattern where Hogwild!-style NoLock updates shine.
//!
//! This problem is not convex, but as the paper notes it can still be solved
//! with IGD (following Gemulla et al.).

use bismarck_storage::RowRef;

use crate::model::ModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// Low-rank matrix factorization over `(row, col, rating)` tuples.
#[derive(Debug, Clone)]
pub struct LmfTask {
    row_col: usize,
    col_col: usize,
    rating_col: usize,
    rows: usize,
    cols: usize,
    rank: usize,
    mu: f64,
    init_scale: f64,
}

impl LmfTask {
    /// Create a factorization task.
    ///
    /// * `row_col`, `col_col`, `rating_col` — tuple positions of the row
    ///   index, column index and observed rating;
    /// * `rows`, `cols` — matrix dimensions;
    /// * `rank` — latent dimensionality.
    pub fn new(
        row_col: usize,
        col_col: usize,
        rating_col: usize,
        rows: usize,
        cols: usize,
        rank: usize,
    ) -> Self {
        assert!(rank > 0, "rank must be positive");
        LmfTask {
            row_col,
            col_col,
            rating_col,
            rows,
            cols,
            rank,
            mu: 0.0,
            init_scale: 0.1,
        }
    }

    /// Add Frobenius-norm regularization `µ‖L,R‖²_F`.
    pub fn with_regularization(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "regularization must be non-negative");
        self.mu = mu;
        self
    }

    /// Override the magnitude of the deterministic factor initialization.
    pub fn with_init_scale(mut self, scale: f64) -> Self {
        self.init_scale = scale;
        self
    }

    /// Latent rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of rows in the factored matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the factored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Offset of `L_i[k]` in the flat model.
    #[inline]
    fn l_offset(&self, i: usize, k: usize) -> usize {
        i * self.rank + k
    }

    /// Offset of `R_j[k]` in the flat model.
    #[inline]
    fn r_offset(&self, j: usize, k: usize) -> usize {
        self.rows * self.rank + j * self.rank + k
    }

    // `inline(always)`, as `KalmanTask::example`.
    #[inline(always)]
    fn example(&self, row: RowRef<'_>) -> Option<(usize, usize, f64)> {
        let i = row.get_int(self.row_col)?;
        let j = row.get_int(self.col_col)?;
        let m = row.get_double(self.rating_col)?;
        if i < 0 || j < 0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.rows || j >= self.cols {
            return None;
        }
        Some((i, j, m))
    }

    /// Predicted rating `L_i · R_j` from a flat model.
    pub fn predict(&self, model: &[f64], i: usize, j: usize) -> f64 {
        let mut acc = 0.0;
        for k in 0..self.rank {
            acc += model[self.l_offset(i, k)] * model[self.r_offset(j, k)];
        }
        acc
    }
}

impl IgdTask for LmfTask {
    fn name(&self) -> &'static str {
        "LMF"
    }

    fn dimension(&self) -> usize {
        (self.rows + self.cols) * self.rank
    }

    fn initial_model(&self) -> Vec<f64> {
        // A deterministic, non-degenerate initialization: small values that
        // vary with position so the factors are not collinear. (Zero
        // initialization is a saddle point of the factorization objective.)
        let mut model = vec![0.0; self.dimension()];
        for (idx, slot) in model.iter_mut().enumerate() {
            // A cheap hash spread into (0, 1), then scaled.
            let h = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            *slot = self.init_scale * (unit - 0.5);
        }
        model
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let Some((i, j, m)) = self.example(row) else {
            return;
        };
        // error = L_i . R_j - M_ij
        let mut pred = 0.0;
        let mut li = Vec::with_capacity(self.rank);
        let mut rj = Vec::with_capacity(self.rank);
        for k in 0..self.rank {
            let l = model.read(self.l_offset(i, k));
            let r = model.read(self.r_offset(j, k));
            pred += l * r;
            li.push(l);
            rj.push(r);
        }
        let err = pred - m;
        for k in 0..self.rank {
            let grad_l = 2.0 * err * rj[k] + 2.0 * self.mu * li[k];
            let grad_r = 2.0 * err * li[k] + 2.0 * self.mu * rj[k];
            model.update(self.l_offset(i, k), -alpha * grad_l);
            model.update(self.r_offset(j, k), -alpha * grad_r);
        }
    }

    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        match self.example(row) {
            Some((i, j, m)) => {
                let err = self.predict(model, i, j) - m;
                err * err
            }
            None => 0.0,
        }
    }

    fn regularizer(&self, model: &[f64]) -> f64 {
        self.mu * model.iter().map(|v| v * v).sum::<f64>()
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

    fn rating_table(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Table {
        let schema = Schema::new(vec![
            Column::new("row", DataType::Int),
            Column::new("col", DataType::Int),
            Column::new("rating", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("ratings", schema);
        for i in 0..rows {
            for j in 0..cols {
                t.insert(vec![
                    Value::Int(i as i64),
                    Value::Int(j as i64),
                    Value::Double(f(i, j)),
                ])
                .unwrap();
            }
        }
        t
    }

    #[test]
    fn dimension_counts_both_factors() {
        let task = LmfTask::new(0, 1, 2, 10, 7, 3);
        assert_eq!(task.dimension(), (10 + 7) * 3);
        assert_eq!(task.rank(), 3);
        assert_eq!(task.rows(), 10);
        assert_eq!(task.cols(), 7);
    }

    #[test]
    fn initial_model_is_nonzero_and_deterministic() {
        let task = LmfTask::new(0, 1, 2, 4, 4, 2);
        let m1 = task.initial_model();
        let m2 = task.initial_model();
        assert_eq!(m1, m2);
        assert!(m1.iter().any(|&v| v != 0.0));
        assert!(m1.iter().all(|&v| v.abs() <= 0.05 + 1e-12));
    }

    #[test]
    fn factorizes_a_rank_one_matrix() {
        // M_ij = a_i * b_j is exactly rank 1; rank-2 factors can fit it.
        let a = [1.0, 2.0, 0.5, 1.5];
        let b = [1.0, -1.0, 2.0];
        let t = rating_table(4, 3, |i, j| a[i] * b[j]);
        let task = LmfTask::new(0, 1, 2, 4, 3, 2);
        let mut store = DenseModelStore::new(task.initial_model());
        for epoch in 0..400 {
            let alpha = 0.05 / (1.0 + 0.01 * epoch as f64);
            for tuple in t.scan() {
                task.gradient_step(&mut store, tuple.into(), alpha);
            }
        }
        let model = store.into_vec();
        let loss: f64 = t
            .scan()
            .map(|tup| task.example_loss(&model, tup.into()))
            .sum();
        assert!(loss < 0.05, "loss = {loss}");
        assert!((task.predict(&model, 1, 2) - 4.0).abs() < 0.2);
    }

    #[test]
    fn regularization_contributes_to_objective() {
        let task = LmfTask::new(0, 1, 2, 2, 2, 1).with_regularization(0.5);
        let model = vec![1.0, 1.0, 2.0, 0.0];
        assert!((task.regularizer(&model) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let task = LmfTask::new(0, 1, 2, 2, 2, 1);
        let schema = Schema::new(vec![
            Column::new("row", DataType::Int),
            Column::new("col", DataType::Int),
            Column::new("rating", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("bad", schema);
        t.insert(vec![Value::Int(5), Value::Int(0), Value::Double(1.0)])
            .unwrap();
        t.insert(vec![Value::Int(-1), Value::Int(0), Value::Double(1.0)])
            .unwrap();
        let init = task.initial_model();
        let mut store = DenseModelStore::new(init.clone());
        for tuple in t.scan() {
            task.gradient_step(&mut store, tuple.into(), 0.1);
        }
        assert_eq!(store.as_slice(), init.as_slice());
        assert_eq!(task.example_loss(&init, t.get(0).unwrap().into()), 0.0);
    }

    #[test]
    fn gradient_step_touches_only_one_row_and_column() {
        let task = LmfTask::new(0, 1, 2, 3, 3, 2);
        let t = rating_table(1, 1, |_, _| 5.0);
        let init = task.initial_model();
        let mut store = DenseModelStore::new(init.clone());
        task.gradient_step(&mut store, t.get(0).unwrap().into(), 0.1);
        let updated = store.into_vec();
        let changed: Vec<usize> = updated
            .iter()
            .zip(init.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        // Only L_0 (indices 0..2) and R_0 (indices 6..8) may change.
        assert!(
            changed.iter().all(|&i| i < 2 || (6..8).contains(&i)),
            "changed: {changed:?}"
        );
        assert!(!changed.is_empty());
    }
}
