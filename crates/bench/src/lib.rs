//! Benchmark harness regenerating every table and figure of the Bismarck
//! evaluation (Section 4).
//!
//! The [`experiments`] module contains one entry point per paper artefact;
//! each builds its workload with `bismarck-datagen`, runs the relevant
//! Bismarck configuration (and baseline, where the paper compares against
//! one) and returns a printable result whose rows mirror the paper's table
//! or figure series. The `reproduce` binary drives them from the command
//! line; timings that gate a change are the `e2e` benchmark's (the package
//! under `src/bin/e2e`, declared by the repository's `BENCHMARK.json`).
//!
//! Absolute numbers will differ from the paper (different hardware, a
//! library substrate instead of three commercial RDBMSes, synthetic data) —
//! the *shape* of each result is what is reproduced. See README, "Build,
//! test, bench".

pub mod experiments;

pub use crate::experiments::scale::Scale;
