//! The user-defined aggregate (UDA) abstraction and epoch machinery.
//!
//! Figure 3 of the paper describes the standard three phases of a UDA —
//! `initialize(state)`, `transition(state, data)`, `terminate(state)` — plus
//! the optional `merge(state, state)` required for shared-nothing parallel
//! aggregation. Bismarck's key observation is that incremental gradient
//! descent has exactly this shape: the *state* is the model, the *transition*
//! is one gradient step on one tuple.
//!
//! This crate provides:
//!
//! * the [`Aggregate`] trait (the developer-facing 3+1 function abstraction);
//! * execution strategies over a stored table: a sequential scan in a chosen
//!   [`bismarck_storage::ScanOrder`] and a segmented, shared-nothing run that
//!   aggregates each segment independently and merges the partial states;
//! * the epoch loop of Figure 2 — run the aggregate, evaluate the loss,
//!   consult a [`ConvergenceTest`], repeat — together with per-epoch
//!   bookkeeping used by the experiments.

#![warn(missing_docs)]

pub mod aggregate;
pub mod convergence;
pub mod epoch;
pub mod executor;

pub use crate::aggregate::{transition_tuples, Aggregate, CountAggregate};
pub use crate::convergence::ConvergenceTest;
pub use crate::epoch::{EpochOutcome, EpochRecord, EpochRunner, TrainingHistory};
pub use crate::executor::{
    panic_message, run_segmented, run_segmented_parallel, run_sequential, run_sequential_while,
    scan_blocks_while, try_run_segmented_parallel, SegmentPanic,
};
