//! **Bismarck**: a unified architecture for in-RDBMS analytics, reproduced in Rust.
//!
//! The paper's central claim (Feng, Kumar, Recht, Ré — SIGMOD 2012) is that a
//! wide range of analytics tasks are convex programs solvable by incremental
//! gradient descent (IGD), and that IGD's data-access pattern is exactly that
//! of a SQL user-defined aggregate. A single architecture therefore suffices:
//! the *state* of the aggregate is the model, the *transition* function takes
//! one gradient step on one tuple, and the aggregate is re-run over the table
//! (one *epoch* per run) until a convergence test fires.
//!
//! This crate provides:
//!
//! * [`task::IgdTask`] — the handful of functions a developer writes to add a
//!   new analytics technique ("as little as ten lines of C code" in the
//!   paper; comparably small here, see [`tasks::svm`] vs [`tasks::logistic`]);
//! * the [`tasks`] module — every task from Figure 1(B): logistic regression,
//!   SVM classification, low-rank matrix factorization, conditional random
//!   fields, least squares / Kalman smoothing, and portfolio optimization;
//! * [`igd::IgdAggregate`] — IGD packaged as a UDA (initialize / transition /
//!   terminate / merge);
//! * [`trainer`] — the one epoch loop of Figure 2 (stop check, reorder,
//!   gradient pass, loss, divergence backoff, serving publish, checkpoint)
//!   with the data-ordering policies (clustered, shuffle-once,
//!   shuffle-always) of Section 3.2; [`trainer::Trainer`] runs it with the
//!   sequential pass;
//! * [`parallel`] — the pure-UDA (model averaging) and shared-memory (Lock /
//!   AIG / NoLock a.k.a. Hogwild) gradient passes of Section 3.3, which
//!   [`ParallelTrainer`] plugs into that same loop;
//! * [`mrs`] — the multiplexed-reservoir-sampling gradient pass for data
//!   that cannot be shuffled (Section 3.4), a third [`ParallelStrategy`] of
//!   that same loop, plus the plain-subsampling baseline of Figure 10;
//! * [`frontend`] — `SVMTrain`-style entry points that read a training table
//!   from a [`bismarck_storage::Database`] and persist the model back as a
//!   table, mimicking the MADlib-style SQL interface of Section 2.1;
//! * [`checkpoint`] — the resumable state of a run ([`TrainingCheckpoint`]),
//!   written in storage's one whole-file frame and picked back up by
//!   `resume_from`;
//! * [`serving`] — the concurrent read path: epoch-versioned model
//!   snapshots published by the trainers ([`TrainerConfig::with_serving`])
//!   and batched prediction against them while training runs;
//! * [`governor`] — per-statement resource governance: deadlines,
//!   cooperative cancellation via [`QueryGuard`], byte-accounted memory
//!   budgets, admission control and graceful shutdown.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod frontend;
pub mod governor;
pub mod igd;
pub mod metrics;
pub mod model;
pub mod mrs;
pub mod parallel;
pub mod serving;
pub mod stepsize;
pub mod task;
pub mod tasks;
pub mod trainer;

pub use crate::checkpoint::TrainingCheckpoint;
pub use crate::error::TrainError;
#[cfg(feature = "fault-injection")]
pub use crate::fault::{Fault, FaultyTask};
pub use crate::governor::{
    AdmissionError, BudgetExceeded, Governor, GuardViolation, MemoryBudget, QueryGuard,
    QueryLimits, ShutdownReport,
};
pub use crate::igd::{IgdAggregate, IgdState};
pub use crate::model::{AigStore, DenseModelStore, ModelStore, NoLockStore};
pub use crate::parallel::{ParallelStrategy, ParallelTrainer, UpdateDiscipline};
pub use crate::serving::{Link, ModelHandle, ModelSnapshot, PublishError, ServingTask};
pub use crate::stepsize::StepSizeSchedule;
pub use crate::task::{ExampleTask, IgdTask, ProximalPolicy};
pub use crate::trainer::{CheckpointPolicy, TrainedModel, Trainer, TrainerConfig};
