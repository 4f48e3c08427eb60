//! Parallelizing the IGD aggregate (Section 3.3).
//!
//! Two families of schemes, both built from standard engine facilities:
//!
//! * **Pure UDA** — shared-nothing parallelism through the aggregate's
//!   `merge` function: each segment trains its own model copy over its slice
//!   of the data and the partial models are averaged (Zinkevich et al.).
//!   Near-linear speed-up of the gradient pass, but the model averaging
//!   costs convergence quality (Figure 9(A)).
//! * **Shared-memory UDA** — the model lives in user-managed shared memory
//!   and all workers update it concurrently, with one of three disciplines:
//!   whole-model **Lock**, per-component **AIG** (compare-and-swap), or
//!   **NoLock** (Hogwild!). The paper adopts NoLock for Bismarck because it
//!   converges like Lock but scales like the lock-free scheme. Each worker
//!   reads one contiguous range of storage order block by block — a
//!   lock-free worker hands the task whole blocks
//!   ([`IgdTask::step_block`]), a Lock worker takes the lock per row — and
//!   polls the run's stop signal between its blocks; under a permuted order
//!   a worker walks its slice of the permutation one row at a time and
//!   finishes it.
//!
//! A scheme changes how one aggregate pass is executed and nothing else, so
//! beside the strategy types this module holds only the two pass functions
//! (the third, multiplexed reservoir sampling, is [`crate::mrs`]) and the
//! tails the threaded passes share: spawning the workers and folding their
//! panics into one abort, and the lock-free proximal step. The epoch
//! protocol around them — stop check, reorder, loss, divergence backoff,
//! serving publish, checkpoint — is `run_epochs` in [`crate::trainer`], the
//! one loop [`ParallelTrainer`] and [`crate::Trainer`] both enter; the seven
//! steps are listed there. The loss pass of that loop runs on the same
//! workers helper, split into as many ranges of storage order as the
//! scheme's gradient pass has threads, and its result does not depend on
//! the split: a parallel run's loss is the objective of its model, bit for
//! bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use bismarck_storage::{segment_ranges, RowBlock, TupleScan};
use bismarck_uda::{panic_message, scan_blocks_while, segment_workers, try_run_segmented_parallel};
use parking_lot::Mutex;

use crate::error::TrainError;
use crate::igd::IgdAggregate;
use crate::model::{AigStore, DenseModelStore, LockFreeStore, ModelStore, NoLockStore};
use crate::task::{IgdTask, ProximalPolicy};
use crate::trainer::{
    fresh_start, load_checkpoint, run_epochs, unwrap_trained, EpochAbort, TrainedModel,
    TrainerConfig,
};

/// How shared-memory workers update the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateDiscipline {
    /// Serialize every gradient step behind a whole-model mutex.
    Lock,
    /// Per-component atomic adds (compare-and-swap loops).
    Aig,
    /// No synchronization at all (Hogwild!).
    NoLock,
}

impl UpdateDiscipline {
    /// Human-readable name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            UpdateDiscipline::Lock => "Lock",
            UpdateDiscipline::Aig => "AIG",
            UpdateDiscipline::NoLock => "NoLock",
        }
    }
}

/// Which parallelization scheme to run.
///
/// The two families of Section 3.3 — shared-nothing model averaging
/// ([`PureUda`](Self::PureUda), portable to any engine with UDA `merge`) and
/// shared-memory concurrent updates ([`SharedMemory`](Self::SharedMemory),
/// whose [`UpdateDiscipline`] trades contention against staleness) — and the
/// scheme of Section 3.4 for data too big to shuffle ([`Mrs`](Self::Mrs)).
///
/// ```
/// use bismarck_core::{ParallelStrategy, UpdateDiscipline};
///
/// let averaging = ParallelStrategy::PureUda { segments: 4 };
/// let hogwild = ParallelStrategy::SharedMemory {
///     workers: 4,
///     discipline: UpdateDiscipline::NoLock,
/// };
/// let reservoir = ParallelStrategy::Mrs { buffer_size: 1024, seed: 42 };
/// assert_eq!(averaging.label(), "PureUDA");
/// assert_eq!(hogwild.label(), "NoLock");
/// assert_eq!(averaging.workers(), hogwild.workers());
/// assert_eq!(reservoir.label(), "MRS");
/// assert_eq!(reservoir.workers(), 2); // the I/O Worker and the Memory Worker
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Shared-nothing model averaging through the UDA `merge` function.
    PureUda {
        /// Number of segments (one worker thread per segment).
        segments: usize,
    },
    /// Concurrent updates to a model in shared memory.
    SharedMemory {
        /// Number of worker threads.
        workers: usize,
        /// Update discipline.
        discipline: UpdateDiscipline,
    },
    /// Multiplexed reservoir sampling (see [`crate::mrs`]): a storage-order
    /// scan that steps on the rows its reservoir drops, beside a worker that
    /// steps on the sample the previous pass kept. Ignores
    /// [`TrainerConfig::scan_order`].
    Mrs {
        /// Reservoir / buffer capacity in tuples (the paper uses ~1–10% of
        /// the dataset). Zero is the I/O Worker alone.
        buffer_size: usize,
        /// Base RNG seed of the reservoir; epoch `e` uses `seed + e`.
        seed: u64,
    },
}

impl ParallelStrategy {
    /// Human-readable name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ParallelStrategy::PureUda { .. } => "PureUDA",
            ParallelStrategy::SharedMemory { discipline, .. } => discipline.label(),
            ParallelStrategy::Mrs { .. } => "MRS",
        }
    }

    /// Number of workers the strategy employs.
    pub fn workers(&self) -> usize {
        match *self {
            ParallelStrategy::PureUda { segments } => segments,
            ParallelStrategy::SharedMemory { workers, .. } => workers,
            ParallelStrategy::Mrs { .. } => 2,
        }
    }

    /// How many contiguous ranges of storage order the loss pass of a run
    /// under this strategy splits into: one per thread its gradient pass
    /// runs on (the shared-memory workers, the segmented executor's
    /// threads), except under MRS, whose I/O Worker scans the whole table in
    /// order and whose loss pass does too.
    pub(crate) fn loss_ranges(self) -> usize {
        match self {
            ParallelStrategy::PureUda { segments } => segment_workers(segments),
            ParallelStrategy::SharedMemory { workers, .. } => workers.max(1),
            ParallelStrategy::Mrs { .. } => 1,
        }
    }
}

/// Per-epoch measurements of a parallel run, one per epoch the call ran:
/// the two fields of its [`bismarck_uda::EpochRecord`] that the parallel
/// experiments read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelEpochStats {
    /// Time spent in the parallel gradient pass (excludes shuffle and loss).
    /// When an epoch needed divergence retries, this accumulates the passes.
    pub gradient_duration: Duration,
    /// Divergence recoveries (restore + step-size backoff) consumed while
    /// producing this epoch. Zero on the fault-free path.
    pub retries: u32,
}

/// Trainer that runs each epoch's gradient pass in parallel.
///
/// A drop-in parallel counterpart to [`crate::Trainer`]: same
/// [`TrainerConfig`] and literally the same epoch loop (see
/// [`crate::trainer`]), so every fault-tolerance, serving and checkpoint
/// behavior is shared; only each epoch's gradient pass differs, spread
/// across worker threads according to the chosen [`ParallelStrategy`]:
///
/// ```
/// use bismarck_core::tasks::LogisticRegressionTask;
/// use bismarck_core::{ParallelStrategy, ParallelTrainer, TrainerConfig};
/// use bismarck_storage::{Column, DataType, Schema, Table, Value};
/// use bismarck_uda::ConvergenceTest;
///
/// let schema = Schema::new(vec![
///     Column::new("vec", DataType::DenseVec),
///     Column::new("label", DataType::Double),
/// ])?;
/// let mut table = Table::new("points", schema);
/// for (x, y) in [([2.0, 0.5], 1.0), ([-1.5, 0.8], -1.0), ([1.0, 1.0], 1.0)] {
///     table.insert(vec![Value::from(x.to_vec()), Value::Double(y)])?;
/// }
///
/// let task = LogisticRegressionTask::new(0, 1, 2);
/// let config = TrainerConfig::default()
///     .with_convergence(ConvergenceTest::FixedEpochs(5));
/// let strategy = ParallelStrategy::PureUda { segments: 2 };
/// let (trained, stats) = ParallelTrainer::new(&task, config, strategy).train(&table);
///
/// assert_eq!(trained.epochs(), 5);
/// assert_eq!(stats.len(), 5); // per-epoch parallel-pass measurements
/// # Ok::<(), bismarck_storage::StorageError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelTrainer<'a, T: IgdTask> {
    task: &'a T,
    config: TrainerConfig,
    strategy: ParallelStrategy,
}

impl<'a, T: IgdTask> ParallelTrainer<'a, T> {
    /// Create a parallel trainer.
    pub fn new(task: &'a T, config: TrainerConfig, strategy: ParallelStrategy) -> Self {
        ParallelTrainer {
            task,
            config,
            strategy,
        }
    }

    /// Train on a table starting from the task's initial model.
    ///
    /// Infallible wrapper over [`Self::try_train`]: failures (worker panic,
    /// exhausted divergence budget, checkpoint I/O error) panic with the
    /// error message — the historical behavior — while a cooperative
    /// interrupt returns the last completed epoch's model.
    pub fn train<S: TupleScan + ?Sized>(
        &self,
        data: &S,
    ) -> (TrainedModel, Vec<ParallelEpochStats>) {
        let start = fresh_start(self.task, &self.config, self.task.initial_model());
        let result = run_epochs(self.task, &self.config, Some(self.strategy), data, start);
        with_stats(unwrap_trained(result), 0)
    }

    /// Fallible training from the task's initial model.
    ///
    /// A panic in any gradient worker is caught, the epoch's partial updates
    /// are discarded, and the run reports [`TrainError::WorkerPanic`]
    /// carrying the last completed epoch's (finite) model instead of
    /// aborting the process.
    pub fn try_train<S: TupleScan + ?Sized>(
        &self,
        data: &S,
    ) -> Result<(TrainedModel, Vec<ParallelEpochStats>), TrainError> {
        let start = fresh_start(self.task, &self.config, self.task.initial_model());
        run_epochs(self.task, &self.config, Some(self.strategy), data, start)
            .map(|trained| with_stats(trained, 0))
    }

    /// Resume a checkpointed parallel run. The same validation as
    /// [`crate::Trainer::resume_from`] applies; note that only the `Lock`
    /// discipline (and single-worker runs) are deterministic enough for the
    /// resumed trajectory to match an uninterrupted one bitwise — AIG/NoLock
    /// runs are racy by design, with or without checkpoints. An MRS run
    /// resumes without the buffer its last pass filled (see [`crate::mrs`]);
    /// with `buffer_size: 0` there is none and the resume is bitwise.
    pub fn resume_from<S: TupleScan + ?Sized>(
        &self,
        data: &S,
        path: impl AsRef<Path>,
    ) -> Result<(TrainedModel, Vec<ParallelEpochStats>), TrainError> {
        let start = load_checkpoint(self.task, &self.config, path.as_ref())?;
        let resumed = start.next_epoch;
        run_epochs(self.task, &self.config, Some(self.strategy), data, start)
            .map(|trained| with_stats(trained, resumed))
    }
}

/// Pair a run with one [`ParallelEpochStats`] per epoch it ran: its records
/// after the `resumed` ones a checkpoint restored.
fn with_stats(trained: TrainedModel, resumed: usize) -> (TrainedModel, Vec<ParallelEpochStats>) {
    let stats = trained.history.records()[resumed..]
        .iter()
        .map(|record| ParallelEpochStats {
            gradient_duration: record.gradient_duration,
            retries: record.retries,
        })
        .collect();
    (trained, stats)
}

/// One pure-UDA (shared-nothing) epoch: segment-parallel aggregation with
/// model-averaging merge. Segments see their rows in clustered order, which
/// matches how a parallel engine distributes tuples to segments. A worker
/// panic is isolated by the segmented executor and surfaced as an abort.
pub(crate) fn run_pure_uda_epoch<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    model: Vec<f64>,
    alpha: f64,
    segments: usize,
) -> Result<Vec<f64>, EpochAbort> {
    let aggregate = IgdAggregate::new(task, alpha, model);
    match try_run_segmented_parallel(&aggregate, data, segments.max(1)) {
        Ok(state) => Ok(state.model.into_vec()),
        Err(panic) => Err(EpochAbort::WorkerPanic {
            failed_workers: panic.failed_workers,
            message: panic.message,
        }),
    }
}

/// Rows one shared-memory worker visits: a slice of the permutation, or a
/// contiguous range of storage order (scanned natively — no index
/// materialization).
enum WorkerRows<'p> {
    Range(usize, usize),
    Perm(&'p [usize]),
}

impl WorkerRows<'_> {
    /// Hand `f` the worker's rows as blocks: a range block by block in
    /// storage order, polling `keep_going` between blocks (`false` once it
    /// says stop); a permutation one row at a time, each row the one-tuple
    /// block of the permuted walk, without polling.
    fn visit<S: TupleScan + ?Sized>(
        &self,
        data: &S,
        keep_going: &(dyn Fn() -> bool + Sync),
        mut f: impl FnMut(RowBlock<'_>),
    ) -> bool {
        match *self {
            WorkerRows::Range(start, end) => {
                scan_blocks_while(data, start, end, &mut || keep_going(), &mut f)
            }
            WorkerRows::Perm(perm) => {
                data.scan_tuples_permuted(perm, &mut |tuple| {
                    f(RowBlock::Tuples(std::slice::from_ref(tuple)))
                });
                true
            }
        }
    }
}

/// Run `body` over each worker's part (its rows of a gradient pass, its
/// range and chunk of a loss pass) on its own scoped thread, folding any
/// panics into an [`EpochAbort::WorkerPanic`]; otherwise the workers'
/// results, in the order of `parts`.
///
/// Each body runs under `catch_unwind` so one panicking `gradient_step` or
/// `example_loss` cannot take down the process; the surviving workers finish
/// their part and the attempt reports the failure instead.
///
/// Unwind safety: the state the workers share is plain `f64` data — a
/// `Vec<f64>` behind a `parking_lot::Mutex` (which does not poison; the
/// guard is released during unwind), the `AtomicU64` cells of a
/// [`LockFreeStore`], or a loss pass's running total and per-row chunks,
/// one worker each — with no invariants coupling components. A caught panic
/// can at worst leave a *partially updated* model or loss, and the caller
/// never uses a failed attempt's: it restores the last-good snapshot carried
/// by the error.
/// That makes `AssertUnwindSafe` sound here.
pub(crate) fn run_workers<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    body: impl Fn(P) -> R + Sync,
) -> Result<Vec<R>, EpochAbort> {
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let body = &body;
                scope.spawn(move || catch_unwind(AssertUnwindSafe(|| body(part))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker threads only panic inside catch_unwind")
            })
            .collect::<Vec<_>>()
    });
    fold_worker_outcomes(outcomes)
}

/// Run `body` on the calling thread, isolated like one worker of
/// [`run_workers`]: a panic in it becomes the attempt's abort. The same
/// unwind-safety argument holds: the caller trusts nothing `body` touched
/// once it has failed.
pub(crate) fn isolated<R>(body: impl FnOnce() -> R) -> Result<R, EpochAbort> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| EpochAbort::WorkerPanic {
        failed_workers: 1,
        message: panic_message(payload.as_ref()),
    })
}

/// What each worker's `catch_unwind` returned, folded into one result: the
/// workers' results in order, or the number of workers that panicked and the
/// first one's message.
pub(crate) fn fold_worker_outcomes<R>(
    outcomes: impl IntoIterator<Item = std::thread::Result<R>>,
) -> Result<Vec<R>, EpochAbort> {
    let mut results = Vec::new();
    let mut failed_workers = 0usize;
    let mut message = String::new();
    for outcome in outcomes {
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => {
                failed_workers += 1;
                if message.is_empty() {
                    message = panic_message(payload.as_ref());
                }
            }
        }
    }
    if failed_workers > 0 {
        return Err(EpochAbort::WorkerPanic {
            failed_workers,
            message,
        });
    }
    Ok(results)
}

/// One shared-memory epoch with the chosen update discipline; the
/// disciplines differ only in how [`run_workers`] steps on a block. Returns
/// `None` — the attempt is to be discarded — once `keep_going`, polled
/// between the blocks of every worker's storage-order range, says stop; a
/// permuted pass does not poll.
pub(crate) fn run_shared_memory_epoch<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    permutation: Option<&[usize]>,
    model: Vec<f64>,
    alpha: f64,
    (workers, discipline): (usize, UpdateDiscipline),
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Result<Option<Vec<f64>>, EpochAbort> {
    let rows = permutation.map_or(data.tuple_count(), <[usize]>::len);
    let worker_rows: Vec<WorkerRows> = segment_ranges(rows, workers.max(1))
        .into_iter()
        .map(|(start, end)| match permutation {
            Some(perm) => WorkerRows::Perm(&perm[start..end]),
            None => WorkerRows::Range(start, end),
        })
        .collect();

    let per_step = task.proximal_policy() == ProximalPolicy::PerStep;
    Ok(match discipline {
        UpdateDiscipline::Lock => {
            let locked = Mutex::new(DenseModelStore::new(model));
            // The lock is taken per step, not per block, so the workers
            // interleave as finely as they always did; the per-step operator
            // runs under it.
            let finished = run_workers(&worker_rows, |rows| {
                rows.visit(data, keep_going, |block| {
                    for row in block.rows() {
                        let mut guard = locked.lock();
                        task.gradient_step(&mut *guard, row, alpha);
                        if per_step {
                            task.proximal_step(guard.as_mut_slice(), alpha);
                        }
                    }
                })
            })?;
            all_finished(finished).then(|| {
                let mut model = locked.into_inner().into_vec();
                if task.proximal_policy() == ProximalPolicy::PerEpoch {
                    task.proximal_step(&mut model, alpha);
                }
                model
            })
        }
        UpdateDiscipline::Aig => {
            let shared = AigStore::from_slice(&model);
            lock_free_pass(task, data, &worker_rows, keep_going, shared, alpha)?
        }
        UpdateDiscipline::NoLock => {
            let shared = NoLockStore::from_slice(&model);
            lock_free_pass(task, data, &worker_rows, keep_going, shared, alpha)?
        }
    })
}

/// Whether every worker finished its part.
fn all_finished(finished: Vec<bool>) -> bool {
    finished.into_iter().all(|finished| finished)
}

/// The workers of an AIG or NoLock pass, each stepping on its own clone of
/// `shared` block by block ([`IgdTask::step_block`]: a per-step proximal
/// operator is demoted to per-epoch); returns what the shared cells hold
/// after the pass, its proximal tail applied, or `None` if it was stopped.
fn lock_free_pass<const ATOMIC: bool, T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    worker_rows: &[WorkerRows<'_>],
    keep_going: &(dyn Fn() -> bool + Sync),
    shared: LockFreeStore<ATOMIC>,
    alpha: f64,
) -> Result<Option<Vec<f64>>, EpochAbort> {
    let finished = run_workers(worker_rows, |rows| {
        let mut store = shared.clone();
        rows.visit(data, keep_going, |block| {
            task.step_block(&mut store, block, alpha)
        })
    })?;
    Ok(all_finished(finished).then(|| {
        let mut model = shared.snapshot();
        lock_free_proximal_step(task, &mut model, alpha);
        model
    }))
}

/// The proximal tail of a lock-free pass: the per-epoch step and, as
/// documented in [`crate::task`], the per-step operator demoted to
/// per-epoch.
pub(crate) fn lock_free_proximal_step<T: IgdTask>(task: &T, model: &mut [f64], alpha: f64) {
    if task.proximal_policy() != ProximalPolicy::None {
        task.proximal_step(model, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepsize::StepSizeSchedule;
    use crate::tasks::{LogisticRegressionTask, PortfolioTask, SvmTask};
    use crate::trainer::Trainer;
    use bismarck_storage::{Column, DataType, ScanOrder, Schema, Table, Value};
    use bismarck_uda::ConvergenceTest;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn classification_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("data", schema);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let x = vec![
                y * 1.2 + rng.gen_range(-0.4..0.4),
                -y * 0.7 + rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            ];
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    fn config(epochs: usize) -> TrainerConfig {
        TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(epochs))
    }

    #[test]
    fn pure_uda_trains_to_a_reasonable_model() {
        let table = classification_table(300, 3);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let trainer =
            ParallelTrainer::new(&task, config(10), ParallelStrategy::PureUda { segments: 4 });
        let (trained, stats) = trainer.train(&table);
        assert_eq!(stats.len(), trained.epochs());
        let seq = Trainer::new(&task, config(10)).train(&table);
        // Model averaging loses some quality but should land in the same
        // ballpark as the sequential run.
        assert!(trained.final_loss().unwrap() <= seq.final_loss().unwrap() * 2.0 + 1.0);
    }

    #[test]
    fn all_shared_memory_disciplines_reduce_loss() {
        let table = classification_table(300, 5);
        let task = SvmTask::new(0, 1, 3);
        let zero_loss: f64 = {
            let zero = task.initial_model();
            table
                .scan()
                .map(|tup| task.example_loss(&zero, tup.into()))
                .sum()
        };
        for discipline in [
            UpdateDiscipline::Lock,
            UpdateDiscipline::Aig,
            UpdateDiscipline::NoLock,
        ] {
            let trainer = ParallelTrainer::new(
                &task,
                config(8),
                ParallelStrategy::SharedMemory {
                    workers: 4,
                    discipline,
                },
            );
            let (trained, _) = trainer.train(&table);
            assert!(
                trained.final_loss().unwrap() < zero_loss * 0.5,
                "{} did not reduce loss",
                discipline.label()
            );
        }
    }

    #[test]
    fn shared_memory_respects_scan_order_permutation() {
        let table = classification_table(100, 9);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let cfg = config(3).with_scan_order(ScanOrder::ShuffleAlways { seed: 1 });
        let trainer = ParallelTrainer::new(
            &task,
            cfg,
            ParallelStrategy::SharedMemory {
                workers: 2,
                discipline: UpdateDiscipline::NoLock,
            },
        );
        let (trained, _) = trainer.train(&table);
        assert_eq!(trained.epochs(), 3);
        assert!(trained.final_loss().unwrap().is_finite());
    }

    #[test]
    fn single_worker_shared_memory_matches_sequential_closely() {
        let table = classification_table(150, 2);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let cfg = config(5).with_scan_order(ScanOrder::Clustered);
        let (par, _) = ParallelTrainer::new(
            &task,
            cfg.clone(),
            ParallelStrategy::SharedMemory {
                workers: 1,
                discipline: UpdateDiscipline::Lock,
            },
        )
        .train(&table);
        let seq = Trainer::new(&task, cfg).train(&table);
        let diff: f64 = par
            .model
            .iter()
            .zip(seq.model.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff < 1e-9,
            "single-worker Lock should match sequential exactly, diff={diff}"
        );
    }

    #[test]
    fn portfolio_projection_is_applied_in_all_disciplines() {
        let schema = Schema::new(vec![Column::new("returns", DataType::DenseVec)]).unwrap();
        let mut table = Table::new("returns", schema);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..60 {
            let r = vec![
                0.05 + rng.gen_range(-0.1..0.1),
                0.01 + rng.gen_range(-0.01..0.01),
                0.03 + rng.gen_range(-0.03..0.03),
            ];
            table.insert(vec![Value::from(r)]).unwrap();
        }
        let expected = vec![0.05, 0.01, 0.03];
        let task = PortfolioTask::new(0, expected.clone(), expected, 1.0, 60);
        for strategy in [
            ParallelStrategy::PureUda { segments: 3 },
            ParallelStrategy::SharedMemory {
                workers: 3,
                discipline: UpdateDiscipline::NoLock,
            },
            ParallelStrategy::SharedMemory {
                workers: 3,
                discipline: UpdateDiscipline::Lock,
            },
        ] {
            let (trained, _) = ParallelTrainer::new(&task, config(5), strategy).train(&table);
            let sum: f64 = trained.model.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "{}: sum {sum}", strategy.label());
            assert!(trained.model.iter().all(|&v| v >= -1e-9));
        }
    }

    #[test]
    fn strategy_labels_and_workers() {
        assert_eq!(ParallelStrategy::PureUda { segments: 8 }.label(), "PureUDA");
        assert_eq!(ParallelStrategy::PureUda { segments: 8 }.workers(), 8);
        let sm = ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::Aig,
        };
        assert_eq!(sm.label(), "AIG");
        assert_eq!(sm.workers(), 4);
        assert_eq!(UpdateDiscipline::NoLock.label(), "NoLock");
        assert_eq!(UpdateDiscipline::Lock.label(), "Lock");
    }
}
