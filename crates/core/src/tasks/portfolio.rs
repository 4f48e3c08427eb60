//! Markowitz-style portfolio optimization with a simplex constraint.
//!
//! Figure 1(B): minimize a risk/return trade-off subject to the allocation
//! lying on the probability simplex `Δ = { w : Σ w_i = 1, w_i ≥ 0 }`. The
//! risk term `wᵀΣw` uses the sample covariance, which decomposes over the
//! historical return observations `r_i` as `Σ_i (wᵀ(r_i − μ))² / N`; that
//! decomposition is what makes the task an incremental-gradient program: each
//! tuple is one day's return vector, and its gradient step is followed by a
//! Euclidean projection onto the simplex — the proximal-point operator of
//! Appendix A.
//!
//! Per-example objective (with `γ` the risk-aversion weight, `p` the expected
//! return vector and `N` the number of observations):
//! `f_i(w) = γ (wᵀ(r_i − μ))² − (pᵀw) / N`.

use bismarck_linalg::projection::project_simplex;
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::RowRef;

use crate::model::ModelStore;
use crate::task::{IgdTask, ProximalPolicy};

/// Simplex-constrained portfolio optimization over daily-return tuples.
#[derive(Debug, Clone)]
pub struct PortfolioTask {
    returns_col: usize,
    num_assets: usize,
    expected_returns: Vec<f64>,
    mean_returns: Vec<f64>,
    risk_aversion: f64,
    num_observations: usize,
}

impl PortfolioTask {
    /// Create a portfolio task.
    ///
    /// * `returns_col` — tuple position of the per-day return vector;
    /// * `expected_returns` — the vector `p` of expected per-asset returns;
    /// * `mean_returns` — the historical mean `μ` used to centre the risk
    ///   term (often equal to `expected_returns`);
    /// * `risk_aversion` — the weight `γ` on the risk term;
    /// * `num_observations` — the number `N` of return tuples, used to scale
    ///   the return term so the full objective is `γ wᵀΣw − pᵀw`.
    pub fn new(
        returns_col: usize,
        expected_returns: Vec<f64>,
        mean_returns: Vec<f64>,
        risk_aversion: f64,
        num_observations: usize,
    ) -> Self {
        assert!(!expected_returns.is_empty(), "need at least one asset");
        assert_eq!(
            expected_returns.len(),
            mean_returns.len(),
            "expected and mean return vectors must agree in length"
        );
        assert!(risk_aversion >= 0.0, "risk aversion must be non-negative");
        assert!(num_observations > 0, "need at least one observation");
        let num_assets = expected_returns.len();
        PortfolioTask {
            returns_col,
            num_assets,
            expected_returns,
            mean_returns,
            risk_aversion,
            num_observations,
        }
    }

    /// Number of assets (model dimension).
    pub fn num_assets(&self) -> usize {
        self.num_assets
    }

    /// Borrow the day's return vector — zero-copy.
    #[inline]
    fn example<'t>(&self, row: RowRef<'t>) -> Option<FeatureVectorRef<'t>> {
        row.feature_view(self.returns_col)
    }

    /// Expected portfolio return `pᵀw` for an allocation.
    pub fn expected_return(&self, w: &[f64]) -> f64 {
        self.expected_returns
            .iter()
            .zip(w.iter())
            .map(|(p, w)| p * w)
            .sum()
    }
}

impl IgdTask for PortfolioTask {
    fn name(&self) -> &'static str {
        "PORTFOLIO"
    }

    fn dimension(&self) -> usize {
        self.num_assets
    }

    fn initial_model(&self) -> Vec<f64> {
        // The uniform allocation is feasible (lies on the simplex).
        vec![1.0 / self.num_assets as f64; self.num_assets]
    }

    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let Some(returns) = self.example(row) else {
            return;
        };
        // centred return c = r - mu; exposure = w . c
        let mut exposure = 0.0;
        for (i, r) in returns.iter_entries() {
            if i < self.num_assets {
                exposure += model.read(i) * (r - self.mean_returns[i]);
            }
        }
        // Risk gradient: 2 γ exposure · c  (only touches observed assets).
        let risk_coeff = 2.0 * self.risk_aversion * exposure;
        for (i, r) in returns.iter_entries() {
            if i < self.num_assets {
                model.update(i, -alpha * risk_coeff * (r - self.mean_returns[i]));
            }
        }
        // Return gradient: −p / N (dense but cheap: num_assets is small).
        let scale = alpha / self.num_observations as f64;
        for (i, &p) in self.expected_returns.iter().enumerate() {
            model.update(i, scale * p);
        }
    }

    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        match self.example(row) {
            Some(returns) => {
                let mut exposure = 0.0;
                for (i, r) in returns.iter_entries() {
                    if i < self.num_assets {
                        exposure += model[i] * (r - self.mean_returns[i]);
                    }
                }
                self.risk_aversion * exposure * exposure
                    - self.expected_return(model) / self.num_observations as f64
            }
            None => 0.0,
        }
    }

    fn proximal_step(&self, model: &mut [f64], _alpha: f64) {
        project_simplex(model);
    }

    fn proximal_policy(&self) -> ProximalPolicy {
        // The simplex is a hard constraint, so project after every step.
        ProximalPolicy::PerStep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igd::IgdAggregate;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};
    use bismarck_uda::run_sequential;

    /// Three assets: asset 0 has high return and high variance, asset 1 low
    /// return and no variance, asset 2 moderate return and low variance.
    fn returns_table(days: usize) -> Table {
        let schema = Schema::new(vec![Column::new("returns", DataType::DenseVec)]).unwrap();
        let mut t = Table::new("returns", schema);
        for d in 0..days {
            let wiggle = if d % 2 == 0 { 1.0 } else { -1.0 };
            let r = vec![0.08 + 0.20 * wiggle, 0.01, 0.04 + 0.02 * wiggle];
            t.insert(vec![Value::from(r)]).unwrap();
        }
        t
    }

    fn task(days: usize, gamma: f64) -> PortfolioTask {
        let expected = vec![0.08, 0.01, 0.04];
        PortfolioTask::new(0, expected.clone(), expected, gamma, days)
    }

    fn train(task: &PortfolioTask, table: &Table, epochs: usize, alpha: f64) -> Vec<f64> {
        let mut model = task.initial_model();
        for _ in 0..epochs {
            let agg = IgdAggregate::new(task, alpha, model);
            model = run_sequential(&agg, table, None).model.into_vec();
        }
        model
    }

    #[test]
    fn allocation_stays_on_simplex() {
        let t = returns_table(40);
        let task = task(40, 1.0);
        let w = train(&task, &t, 30, 0.05);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(w.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn high_risk_aversion_avoids_volatile_asset() {
        let t = returns_table(40);
        let cautious = train(&task(40, 50.0), &t, 200, 0.1);
        let aggressive = train(&task(40, 0.001), &t, 200, 0.1);
        // The cautious portfolio holds less of volatile asset 0 than the
        // aggressive one, which chases expected return.
        assert!(
            cautious[0] < aggressive[0],
            "cautious {cautious:?} aggressive {aggressive:?}"
        );
        // With negligible risk aversion the return term pulls the allocation
        // above its uniform share of the highest-return asset; with strong
        // risk aversion the volatile asset is nearly eliminated.
        assert!(aggressive[0] > 0.5, "aggressive {aggressive:?}");
        assert!(cautious[0] < 0.2, "cautious {cautious:?}");
    }

    #[test]
    fn loss_reflects_risk_and_return() {
        let t = returns_table(4);
        let task = task(4, 1.0);
        let all_in_risky = vec![1.0, 0.0, 0.0];
        let all_in_safe = vec![0.0, 1.0, 0.0];
        let risky_loss: f64 = t
            .scan()
            .map(|tup| task.example_loss(&all_in_risky, tup.into()))
            .sum();
        let safe_loss: f64 = t
            .scan()
            .map(|tup| task.example_loss(&all_in_safe, tup.into()))
            .sum();
        // The risky asset has much higher variance, so with γ = 1 its total
        // objective is worse despite the higher expected return.
        assert!(risky_loss > safe_loss);
    }

    #[test]
    fn initial_model_is_uniform_and_feasible() {
        let task = task(10, 1.0);
        let w = task.initial_model();
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(task.proximal_policy(), ProximalPolicy::PerStep);
        assert_eq!(task.name(), "PORTFOLIO");
        assert_eq!(task.num_assets(), 3);
    }

    #[test]
    fn expected_return_helper() {
        let task = task(10, 1.0);
        assert!((task.expected_return(&[1.0, 0.0, 0.0]) - 0.08).abs() < 1e-12);
        assert!((task.expected_return(&[0.0, 0.0, 1.0]) - 0.04).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "agree in length")]
    fn mismatched_return_vectors_panic() {
        PortfolioTask::new(0, vec![0.1, 0.2], vec![0.1], 1.0, 10);
    }
}
