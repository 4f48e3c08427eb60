//! The user-defined aggregate (UDA) abstraction, its executors, and the
//! bookkeeping of the epochs a training run makes of it.
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
//!   both can be stopped between blocks (or slices of a permutation), and
//!   both end early with one [`PassError`] that says why: stopped, a block
//!   storage could not read, a panicked part, or the aggregate's own error.
//!   The block loop under them, [`scan_blocks_while`], is the one every
//!   engine caller walks a table through, SQL included;
//! * [`run_parts`], the one runner every pass of a training run starts its
//!   threads and catches its panics through;
//! * the [`ConvergenceTest`] whose verdict ends a run, and the per-epoch
//!   [`TrainingHistory`] the experiments read. The epoch loop of Figure 2
//!   itself — run the aggregate, evaluate the loss, ask the test, repeat —
//!   is `run_epochs` in `bismarck_core`'s trainer, the one loop every
//!   trainer enters.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod aggregate;
mod convergence;
mod epoch;
mod executor;

pub use crate::aggregate::{Aggregate, CountAggregate};
pub use crate::convergence::ConvergenceTest;
pub use crate::epoch::{EpochRecord, TrainingHistory};
pub use crate::executor::{
    run_parts, run_segmented, run_segmented_parallel, run_sequential, run_sequential_while,
    scan_blocks_while, scan_permuted_while, segment_workers, try_run_segmented_parallel, PassError,
};
