//! The analytics tasks of Figure 1(B).
//!
//! Each task implements [`crate::task::IgdTask`]; the per-task code is
//! essentially just the objective's gradient on one example. A linear
//! technique is one [`LinearLoss`] impl — its name, its Figure 4 transition
//! and its loss, 15–17 lines each for [`LogisticLoss`], [`HingeLoss`] and
//! [`SquaredLoss`] — and [`LinearTask`] is the rest of the task, written once.
//!
//! | Paper task | Type | Objective |
//! |---|---|---|
//! | Logistic Regression (LR) | [`LogisticRegressionTask`] | `Σ log(1 + exp(−y_i wᵀx_i)) + µ‖w‖₁` |
//! | Classification (SVM) | [`SvmTask`] | `Σ (1 − y_i wᵀx_i)₊ + µ‖w‖₁` |
//! | Recommendation (LMF) | [`LmfTask`] | `Σ_{(i,j)∈Ω} (L_iᵀR_j − M_ij)² + µ‖L,R‖²_F` |
//! | Labeling (CRF) | [`CrfTask`] | `Σ_k [Σ_j w_j F_j(y_k, x_k) − log Z(x_k)]` |
//! | Kalman filters | [`KalmanTask`] | `Σ_t ‖w_t − y_t‖² + λ‖w_t − w_{t−1}‖²` |
//! | Portfolio optimization | [`PortfolioTask`] | `γ wᵀΣw − pᵀw  s.t. w ∈ Δ` |
//! | Least squares | [`LeastSquaresTask`] | `½ Σ (wᵀx_i − y_i)²` (the CA-TX example) |

pub mod crf;
pub mod kalman;
mod linear;
pub mod lmf;
pub mod portfolio;

pub use self::crf::CrfTask;
pub use self::kalman::KalmanTask;
pub use self::linear::{
    HingeLoss, L1Weight, LeastSquaresTask, LinearLoss, LinearTask, LogisticLoss,
    LogisticRegressionTask, SquaredLoss, SvmTask,
};
pub use self::lmf::LmfTask;
pub use self::portfolio::PortfolioTask;
