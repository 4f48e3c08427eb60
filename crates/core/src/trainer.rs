//! The Bismarck training runtime: epochs, data ordering, convergence and
//! fault tolerance.
//!
//! Figure 2 of the paper is one loop — run the IGD aggregate, evaluate the
//! loss, test convergence — and the parallel schemes of Section 3.3 change
//! only how one aggregate pass is executed. The code says the same thing
//! once: `run_epochs` is the single owner of the epoch protocol, and
//! [`Trainer`] and [`crate::ParallelTrainer`] are thin front ends over it
//! that differ only in the gradient pass they select. Every attempt at an
//! epoch goes through the same seven steps:
//!
//! 1. **Stop check** — the run's one stop signal, its [`QueryGuard`], is
//!    polled (before retries too, and inside every pass: between the blocks
//!    of a storage-order read or the slices of a permuted walk — sequential,
//!    each pure-UDA segment and shared-memory worker, the MRS scan, every
//!    range of the loss pass — where a stop discards the attempt); a stop
//!    persists an interrupt checkpoint of the last recorded epoch and ends
//!    the run with [`TrainError::Interrupted`].
//! 2. **Reorder** — the three ordering policies of Section 3.2 (Clustered,
//!    ShuffleOnce, ShuffleAlways) differ only in which permutation, if any,
//!    is handed to the scan. One is drawn (and its time billed to the epoch)
//!    only when a draw actually happens and the pass reads it.
//! 3. **Gradient pass** — sequential, pure-UDA, shared-memory or MRS
//!    ([`crate::mrs`]); every one runs on one runner,
//!    [`bismarck_uda::run_parts`], which starts the threads of a pass (none
//!    for the sequential one) and isolates it from panics
//!    ([`TrainError::WorkerPanic`]), and reads the table through one block
//!    loop, [`bismarck_uda::scan_blocks_while`], whose one error channel
//!    also carries a block storage cannot read ([`TrainError::Storage`]).
//!    In storage order it hands the task the
//!    table block by block ([`IgdTask::step_block`]), each row read where
//!    the block stores it ([`bismarck_storage::RowRef`]); a pass that runs a
//!    per-step proximal operator, the MRS scan (which offers every row to its
//!    reservoir) and a permuted order step row by row.
//! 4. **Loss pass** — the full objective, for the convergence test; always
//!    in storage order, block by block ([`IgdTask::add_losses`]), and isolated from
//!    panics like the gradient pass. A run whose gradient pass is split over
//!    threads splits it the same way — shared-memory workers and pure-UDA
//!    threads each read one contiguous range of storage order, on the same
//!    runner; the sequential and MRS passes read one range on the calling
//!    thread. The
//!    first range adds its terms onto the regularizer as it reads them, the
//!    others keep theirs per row, and those are added on in storage order
//!    afterwards: the same sum in the same order, so the loss keeps its bits
//!    whatever the split.
//! 5. **Divergence scan** — a non-finite model or loss restores the last
//!    healthy model and retries with a halved step
//!    ([`TrainerConfig::with_backoff`]).
//! 6. **Serving publish** — healthy models (and restored ones) go to the
//!    configured [`ModelHandle`]; readers never observe a non-finite model.
//! 7. **Checkpoint** — progress is persisted every N healthy epochs
//!    ([`CheckpointPolicy`]) and picked back up with
//!    [`Trainer::resume_from`].
//!
//! All of it stays off the per-row hot path: the extra work is one
//! `catch_unwind` frame per part of a pass (in `run_parts`), one O(d)
//! snapshot and one O(d) finiteness scan per *epoch*, and one stop check per
//! *block* or permutation slice. A run
//! that splits its loss pass also holds one buffer of 8 bytes per row
//! outside its first range, allocated once per run, where the workers of
//! the other ranges write the per-row terms.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bismarck_storage::durable::parent_dir;
use bismarck_storage::{segment_ranges, ScanOrder, StorageError, Tuple, TupleScan};
use bismarck_uda::{
    run_parts, run_sequential_while, scan_blocks_while, ConvergenceTest, EpochRecord, PassError,
    TrainingHistory,
};

use crate::checkpoint::TrainingCheckpoint;
use crate::error::TrainError;
use crate::governor::QueryGuard;
use crate::igd::IgdAggregate;
use crate::mrs::run_mrs_epoch;
use crate::parallel::{run_pure_uda_epoch, run_shared_memory_epoch, ParallelStrategy};
use crate::serving::{ModelHandle, PublishError};
use crate::stepsize::StepSizeSchedule;
use crate::task::{IgdTask, LossSink};

/// Multiplier a divergence recovery applies to the effective step size:
/// each restore-and-retry halves it, the classic backoff.
const BACKOFF_FACTOR: f64 = 0.5;

/// When and where to persist training checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// File the checkpoint is (atomically and durably) written to; each
    /// write replaces the previous checkpoint, so this path always holds the
    /// newest one.
    pub path: PathBuf,
    /// Write after every `every` completed epochs. Zero disables writing.
    pub every: usize,
    /// How many checkpoints to retain (minimum 1). With `keep == 1` only
    /// [`CheckpointPolicy::path`] exists. With `keep > 1`, each write also
    /// produces an epoch-stamped sibling `<path>.e<N>` (so `path` always
    /// aliases the newest stamp), and stamps older than the newest `keep`
    /// are deleted — strictly *after* the newest write has been durably
    /// synced, so retention can never reduce the set of good checkpoints
    /// below `keep`.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Whether the cadence asks for a write once `next_epoch` epochs are done.
    fn due(&self, next_epoch: usize) -> bool {
        self.every != 0 && next_epoch.is_multiple_of(self.every)
    }

    /// Write `checkpoint` as the newest checkpoint, then apply retention.
    pub(crate) fn write(&self, checkpoint: &TrainingCheckpoint) -> Result<(), StorageError> {
        checkpoint.write(&self.path)?;
        if self.keep > 1 {
            checkpoint.write(&generation_path(&self.path, checkpoint.next_epoch))?;
            // Both writes above are durable (atomic temp → fsync → rename →
            // dir fsync), so pruning older generations is now safe. Pruning
            // itself is best-effort: a failure leaves extra checkpoints, not
            // missing ones.
            prune_generations(&self.path, self.keep);
        }
        Ok(())
    }
}

/// Epoch-stamped sibling of a checkpoint path: `model.ckpt` → `model.ckpt.e7`.
fn generation_path(path: &Path, epoch: usize) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".e{epoch}"));
    path.with_file_name(name)
}

/// The epoch stamp of `candidate` if it is a generation sibling of `path`.
fn generation_epoch(path: &Path, candidate: &Path) -> Option<usize> {
    let base = path.file_name()?.to_str()?;
    let name = candidate.file_name()?.to_str()?;
    name.strip_prefix(base)?.strip_prefix(".e")?.parse().ok()
}

/// Delete all but the newest `keep_generations` epoch-stamped siblings.
fn prune_generations(path: &Path, keep_generations: usize) {
    let Some(parent) = parent_dir(path) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(parent) else {
        return;
    };
    let mut generations: Vec<(usize, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let p = entry.path();
            generation_epoch(path, &p).map(|epoch| (epoch, p))
        })
        .collect();
    generations.sort_by_key(|g| std::cmp::Reverse(g.0));
    for (_, old) in generations.into_iter().skip(keep_generations) {
        let _ = std::fs::remove_file(old);
    }
}

/// Configuration shared by the sequential and parallel trainers.
///
/// Built with [`TrainerConfig::default`] plus the `with_*` builder methods,
/// each of which consumes and returns the config:
///
/// ```
/// use bismarck_core::trainer::TrainerConfig;
/// use bismarck_core::stepsize::StepSizeSchedule;
/// use bismarck_uda::ConvergenceTest;
///
/// let config = TrainerConfig::default()
///     .with_step_size(StepSizeSchedule::Constant(0.1))
///     .with_convergence(ConvergenceTest::FixedEpochs(5));
/// ```
///
/// Cloning is cheap, and a clone *shares* its serving handle and guard with
/// the original (they are `Arc`-backed).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Step-size schedule indexed by epoch.
    pub step_size: StepSizeSchedule,
    /// Data ordering policy.
    pub scan_order: ScanOrder,
    /// Stopping condition.
    pub convergence: ConvergenceTest,
    /// Divergence-recovery budget: how many times a run may restore its
    /// last-good model and halve the step size after a non-finite model or
    /// loss. Zero (the default) disables the machinery entirely: a diverged
    /// epoch is recorded as-is and the convergence test stops the run,
    /// un-converged.
    pub max_retries: u32,
    /// Periodic checkpointing policy (none by default).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Serving publication point: when set, the trainer publishes the model
    /// to this handle after every healthy epoch and re-asserts the last-good
    /// model after every divergence recovery, so concurrent readers never
    /// observe a non-finite model (none by default).
    pub serving: Option<ModelHandle>,
    /// Resource-governance guard, the run's one stop signal: a passed
    /// deadline or a cancellation ends the run with
    /// [`TrainError::Interrupted`] carrying the last-good model (see
    /// [`Self::with_guard`] for where it is polled; none by default).
    pub guard: Option<QueryGuard>,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            step_size: StepSizeSchedule::default(),
            scan_order: ScanOrder::ShuffleOnce { seed: 42 },
            convergence: ConvergenceTest::paper_default(20),
            max_retries: 0,
            checkpoint: None,
            serving: None,
            guard: None,
        }
    }
}

impl TrainerConfig {
    /// Builder-style override of the step-size schedule.
    pub fn with_step_size(mut self, step_size: StepSizeSchedule) -> Self {
        self.step_size = step_size;
        self
    }

    /// Builder-style override of the scan order.
    pub fn with_scan_order(mut self, scan_order: ScanOrder) -> Self {
        self.scan_order = scan_order;
        self
    }

    /// Builder-style override of the convergence test.
    pub fn with_convergence(mut self, convergence: ConvergenceTest) -> Self {
        self.convergence = convergence;
        self
    }

    /// Enable divergence recovery: up to `max_retries` restore-and-halve
    /// retries per run (see [`TrainerConfig::max_retries`]); each retry
    /// halves the step size.
    ///
    /// ```
    /// use bismarck_core::trainer::TrainerConfig;
    ///
    /// let config = TrainerConfig::default().with_backoff(5);
    /// assert_eq!(config.max_retries, 5);
    /// ```
    pub fn with_backoff(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Persist a checkpoint to `path` after every `every` completed epochs.
    ///
    /// ```
    /// use bismarck_core::trainer::TrainerConfig;
    ///
    /// let path = std::env::temp_dir().join("bismarck-doc-example.ckpt");
    /// let config = TrainerConfig::default().with_checkpoints(&path, 10);
    /// let policy = config.checkpoint.as_ref().unwrap();
    /// assert_eq!(policy.path, path);
    /// assert_eq!(policy.every, 10);
    /// ```
    pub fn with_checkpoints(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every,
            keep: 1,
        });
        self
    }

    /// Like [`TrainerConfig::with_checkpoints`], but retains the `keep`
    /// newest checkpoints instead of only the latest: each write also leaves
    /// an epoch-stamped `<path>.e<N>` sibling, and older siblings are pruned
    /// only after the newest write is durably on disk.
    ///
    /// ```
    /// use bismarck_core::trainer::TrainerConfig;
    ///
    /// let path = std::env::temp_dir().join("bismarck-doc-retention.ckpt");
    /// let config = TrainerConfig::default().with_checkpoint_retention(&path, 10, 3);
    /// assert_eq!(config.checkpoint.as_ref().unwrap().keep, 3);
    /// ```
    pub fn with_checkpoint_retention(
        mut self,
        path: impl Into<PathBuf>,
        every: usize,
        keep: usize,
    ) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            path: path.into(),
            every,
            keep: keep.max(1),
        });
        self
    }

    /// Publish every healthy epoch's model to `handle`, making it available
    /// to concurrent [`crate::serving`] readers while the run progresses.
    ///
    /// The handle's dimension must match the task's model dimension; the
    /// trainers check this once at the start of a run and report a mismatch
    /// as a failed run rather than publishing garbage.
    ///
    /// ```
    /// use bismarck_core::serving::{ModelHandle, ServingTask};
    /// use bismarck_core::trainer::TrainerConfig;
    ///
    /// let handle = ModelHandle::new(ServingTask::Logistic, 3);
    /// let config = TrainerConfig::default().with_serving(handle.clone());
    /// // `handle.snapshot()` on any thread now tracks the training run.
    /// # assert!(config.serving.is_some());
    /// ```
    pub fn with_serving(mut self, handle: ModelHandle) -> Self {
        self.serving = Some(handle);
        self
    }

    /// Run under a resource-governance [`QueryGuard`], the run's one stop
    /// signal. The trainers poll it at every epoch boundary and inside every
    /// pass — between the blocks of a storage-order read (the sequential
    /// pass, each pure-UDA segment and shared-memory worker, the MRS scan,
    /// every range of the loss pass) or the slices of a permuted walk — so a
    /// deadline or a cancellation —
    /// including one issued by [`crate::governor::Governor::shutdown`] — ends
    /// the run there with [`TrainError::Interrupted`] carrying the last
    /// completed epoch's model, after writing a final checkpoint if a policy
    /// is configured. Works
    /// under all five parallel passes (pure UDA, the three shared-memory
    /// disciplines, MRS). A stop button is [`QueryGuard::unlimited`] and
    /// [`QueryGuard::cancel`] on a clone.
    ///
    /// ```
    /// use std::time::Duration;
    /// use bismarck_core::governor::{QueryGuard, QueryLimits};
    /// use bismarck_core::trainer::TrainerConfig;
    ///
    /// let guard = QueryGuard::new(QueryLimits::none().with_timeout(Duration::from_millis(50)));
    /// let config = TrainerConfig::default().with_guard(guard.clone());
    /// # assert!(config.guard.is_some());
    /// ```
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = Some(guard);
        self
    }
}

/// A trained model plus the per-epoch history that produced it.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Name of the task that produced the model.
    pub task_name: &'static str,
    /// The flat model vector.
    pub model: Vec<f64>,
    /// Per-epoch loss and timing records.
    pub history: TrainingHistory,
}

impl TrainedModel {
    /// Final objective value, if at least one epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.history.final_loss()
    }

    /// Number of epochs run.
    pub fn epochs(&self) -> usize {
        self.history.epochs()
    }
}

/// The sequential trainer.
///
/// Owns the epoch loop of Figure 2: scan the table in the configured
/// [`ScanOrder`], take one gradient step per tuple, evaluate the loss, and
/// consult the convergence test. End to end on a tiny separable problem:
///
/// ```
/// use bismarck_core::tasks::LogisticRegressionTask;
/// use bismarck_core::{StepSizeSchedule, Trainer, TrainerConfig};
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
/// let task = LogisticRegressionTask::new(0, 1, 2); // features col, label col, dim
/// let config = TrainerConfig::default()
///     .with_step_size(StepSizeSchedule::Constant(0.5))
///     .with_convergence(ConvergenceTest::FixedEpochs(20));
/// let trained = Trainer::new(&task, config).train(&table);
///
/// assert_eq!(trained.epochs(), 20);
/// assert!(trained.final_loss().unwrap() < 1.0);
/// assert!(trained.model[0] > 0.0); // label follows the first coordinate
/// # Ok::<(), bismarck_storage::StorageError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trainer<'a, T: IgdTask> {
    task: &'a T,
    config: TrainerConfig,
}

impl<'a, T: IgdTask> Trainer<'a, T> {
    /// Create a trainer for a task with the given configuration.
    pub fn new(task: &'a T, config: TrainerConfig) -> Self {
        Trainer { task, config }
    }

    /// Full objective (`Σ_i f_i(w) + P(w)`) of a model over a tuple source.
    ///
    /// # Panics
    ///
    /// On a block of `data` that cannot be read: an entry point for tables
    /// the caller built; the engine's loss statements go through
    /// [`crate::frontend::loss`], which returns the error.
    pub fn objective<S: TupleScan + ?Sized>(&self, model: &[f64], data: &S) -> f64 {
        objective(self.task, model, data).unwrap_or_else(|e| panic!("objective: {e}"))
    }

    /// Train on a table starting from the task's initial model.
    ///
    /// Infallible wrapper over [`Self::try_train`] preserving the historical
    /// behavior: the one exception to a panic is a cooperative interrupt,
    /// which returns the last completed epoch's model — stopping on request
    /// is not a failure.
    ///
    /// # Panics
    ///
    /// On any other [`TrainError`] (worker panic, unreadable block,
    /// exhausted divergence budget, checkpoint I/O error), with its message,
    /// exactly as the pre-fault-tolerance trainer would have aborted.
    pub fn train<S: TupleScan + ?Sized>(&self, data: &S) -> TrainedModel {
        unwrap_trained(self.try_train(data))
    }

    /// Fallible training from the task's initial model.
    pub fn try_train<S: TupleScan + ?Sized>(&self, data: &S) -> Result<TrainedModel, TrainError> {
        self.try_train_from(data, self.task.initial_model())
    }

    /// Fallible training from a caller-provided model.
    ///
    /// On failure, the returned [`TrainError`] carries the model of the last
    /// epoch that completed with a fully finite model and loss (the initial
    /// model if none did), plus the history of the completed epochs.
    pub fn try_train_from<S: TupleScan + ?Sized>(
        &self,
        data: &S,
        initial_model: Vec<f64>,
    ) -> Result<TrainedModel, TrainError> {
        let start = fresh_start(self.task, &self.config, initial_model);
        run_epochs(self.task, &self.config, None, data, start)
    }

    /// Resume a checkpointed run, continuing bit-compatibly with an
    /// uninterrupted one: the resumed run replays the same tuple order (scan
    /// orders derive each epoch's permutation deterministically from their
    /// persisted seed), the same step sizes, and the same convergence
    /// decisions, so the final model is bitwise identical to a run that was
    /// never interrupted.
    ///
    /// The checkpoint must match this trainer: same task name, model
    /// dimension, scan order and step-size schedule; a mismatch reports
    /// [`StorageError::Corrupt`] via [`TrainError::Checkpoint`].
    pub fn resume_from<S: TupleScan + ?Sized>(
        &self,
        data: &S,
        path: impl AsRef<Path>,
    ) -> Result<TrainedModel, TrainError> {
        let start = load_checkpoint(self.task, &self.config, path.as_ref())?;
        run_epochs(self.task, &self.config, None, data, start)
    }
}

/// The one epoch loop: every run of [`Trainer`] (`strategy == None`) and of
/// [`crate::ParallelTrainer`] (`Some`) executes the seven-step protocol of
/// the module docs here, and the strategy selects nothing but the gradient
/// pass of step 3 (and with it whether step 2's permutation is read).
/// `start` is the state the run picks up from, in the shape it is
/// checkpointed in: [`fresh_start`] for a new run, [`load_checkpoint`] for a
/// resumed one. The returned model's history holds one [`EpochRecord`] per
/// epoch: those `start` restored (their losses, no timings), then those this
/// call ran.
pub(crate) fn run_epochs<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    config: &TrainerConfig,
    strategy: Option<ParallelStrategy>,
    data: &S,
    start: TrainingCheckpoint,
) -> Result<TrainedModel, TrainError> {
    validate_serving(config, start.model.len())?;
    // `good` is the run as of its last recorded epoch, holding the last
    // *healthy* model: exactly what a checkpoint persists and what an error
    // carries. `model` is the working copy each pass consumes.
    let mut good = start;
    let mut model = good.model.clone();
    let mut history = TrainingHistory::default();
    for (epoch, &loss) in good.losses.iter().enumerate() {
        history.push(EpochRecord {
            epoch,
            loss,
            ..EpochRecord::default()
        });
    }
    // Pure UDA segments and the MRS I/O Worker scan storage order and never
    // read a permutation.
    let reads_permutation = !matches!(
        strategy,
        Some(ParallelStrategy::PureUda { .. } | ParallelStrategy::Mrs { .. })
    );
    let mut permutation: Option<Vec<usize>> = None;
    // Step 4 reads storage order in as many contiguous ranges as the
    // gradient pass has threads (see `ParallelStrategy::loss_ranges`); the
    // ranges after the first write their rows' loss terms into the one
    // buffer below.
    let rows = data.tuple_count();
    let loss_ranges = segment_ranges(rows, strategy.map_or(1, ParallelStrategy::loss_ranges));
    let mut loss_terms = vec![0.0; rows - loss_ranges[0].1];
    // MRS: the sample the previous epoch's pass kept, which this epoch's
    // Memory Worker sweeps. Not checkpointed: a resumed run starts without.
    let mut buffer: Vec<Tuple> = Vec::new();

    let started = Instant::now();
    // The epoch whose attempt ended the run, and why.
    let aborted = 'run: {
        for epoch in good.next_epoch..config.convergence.epoch_cap() {
            let epoch_start = Instant::now();
            let mut retries = 0u32;
            let mut shuffle_duration = Duration::ZERO;
            let mut gradient_duration = Duration::ZERO;
            let mut loss_duration = Duration::ZERO;
            let loss = loop {
                // 1. Stop check, before every attempt — and again inside
                // every pass below, between its blocks or permutation
                // slices, where a stop discards the attempt. The interrupt
                // checkpoint ignores the cadence so a resume loses no epoch.
                if stop_requested(config) {
                    break 'run Some((epoch, interrupt(config, &good)));
                }

                // 2. Reorder: once per run under ShuffleOnce, once per epoch
                // under ShuffleAlways (retries replay the epoch's order).
                let draw = reads_permutation
                    && match config.scan_order {
                        ScanOrder::Clustered => false,
                        ScanOrder::ShuffleOnce { .. } => permutation.is_none(),
                        ScanOrder::ShuffleAlways { .. } => retries == 0,
                    };
                if draw {
                    let shuffle_start = Instant::now();
                    permutation = config.scan_order.permutation(data.tuple_count(), epoch);
                    shuffle_duration = shuffle_start.elapsed();
                }
                let order = permutation.as_deref();

                // 3. One epoch of IGD as a UDA. Every pass isolates panics
                // and surfaces them as an abort: a failed epoch's partial
                // updates are discarded and the only state trusted
                // afterwards is `good`, carried by the error.
                let alpha = config.step_size.at(epoch) * good.alpha_scale;
                let current = std::mem::take(&mut model);
                // The sample an MRS pass draws becomes `buffer` only once
                // the epoch is recorded: a retry sweeps the same buffer.
                let mut sample = Vec::new();
                let gradient_start = Instant::now();
                let keep_going = || !stop_requested(config);
                let pass = match strategy {
                    // The sequential pass is one part: it runs on this thread.
                    None => run_parts([current], |current| {
                        let aggregate = IgdAggregate::new(task, alpha, current);
                        run_sequential_while(&aggregate, data, order, &mut || keep_going())
                    })
                    .map(|mut passes| passes.remove(0).model.into_vec()),
                    Some(ParallelStrategy::PureUda { segments }) => {
                        run_pure_uda_epoch(task, data, current, alpha, segments, &keep_going)
                    }
                    Some(ParallelStrategy::SharedMemory {
                        workers,
                        discipline,
                    }) => {
                        let workers = (workers, discipline);
                        run_shared_memory_epoch(
                            task,
                            data,
                            order,
                            current,
                            alpha,
                            workers,
                            &keep_going,
                        )
                    }
                    Some(ParallelStrategy::Mrs { buffer_size, seed }) => {
                        let reservoir = (buffer_size, seed.wrapping_add(epoch as u64));
                        let pass = run_mrs_epoch(
                            task,
                            data,
                            &current,
                            alpha,
                            &buffer,
                            reservoir,
                            &keep_going,
                        );
                        pass.map(|(stepped, kept)| {
                            sample = kept;
                            stepped
                        })
                    }
                };
                gradient_duration += gradient_start.elapsed();
                model = match pass {
                    Ok(stepped) => stepped,
                    Err(end) => break 'run Some((epoch, abort(config, &good, end))),
                };

                // 4. Evaluate the objective for the convergence test, isolated
                // like the gradient pass.
                let loss_start = Instant::now();
                let pass = objective_while(
                    task,
                    &model,
                    data,
                    &loss_ranges,
                    &mut loss_terms,
                    &keep_going,
                );
                loss_duration += loss_start.elapsed();
                let loss = match pass {
                    Ok(loss) => loss,
                    Err(end) => break 'run Some((epoch, abort(config, &good, end))),
                };

                // 5. Divergence scan + recovery.
                let healthy = loss.is_finite() && model.iter().all(|v| v.is_finite());
                if !healthy && good.retries_used < config.max_retries {
                    good.retries_used += 1;
                    retries += 1;
                    good.alpha_scale *= BACKOFF_FACTOR;
                    model.clone_from(&good.model);
                    // Re-assert the restored model to the serving handle:
                    // readers keep seeing a finite model while the retry runs.
                    publish_serving(config, &model);
                    continue;
                }
                if !healthy && config.max_retries > 0 {
                    let diverged = EpochAbort::Diverged {
                        retries: good.retries_used,
                    };
                    break 'run Some((epoch, diverged));
                }
                // With backoff disabled a diverged epoch is recorded as-is
                // and left to the convergence test; it is never published,
                // checkpointed or kept as the last-good model.
                good.next_epoch = epoch + 1;
                good.losses.push(loss);
                buffer = sample;
                if healthy {
                    good.model.clone_from(&model);
                    // 6. Serving publish.
                    publish_serving(config, &model);
                    // 7. Periodic checkpoint.
                    let due = config.checkpoint.as_ref().filter(|p| p.due(epoch + 1));
                    if let Some(Err(e)) = due.map(|policy| policy.write(&good)) {
                        break 'run Some((epoch, EpochAbort::Checkpoint(e)));
                    }
                }
                break loss;
            };
            history.push(EpochRecord {
                epoch,
                loss,
                duration: epoch_start.elapsed(),
                shuffle_duration,
                gradient_duration,
                loss_duration,
                cumulative: started.elapsed(),
                retries,
            });
            if let Some(converged) = config.convergence.verdict(&good.losses) {
                history.set_converged(converged);
                break;
            }
        }
        None
    };

    let trained = |model| TrainedModel {
        task_name: task.name(),
        model,
        history,
    };
    match aborted {
        None => Ok(trained(model)),
        Some((epoch, abort)) => Err(abort.into_train_error(epoch, trained(good.model))),
    }
}

/// Full objective (`Σ_i f_i(w) + P(w)`) of `model` over `data`: one range
/// on the calling thread, as the loss pass of a sequential run reads it.
pub(crate) fn objective<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    model: &[f64],
    data: &S,
) -> Result<f64, StorageError> {
    let mut total = task.regularizer(model);
    let sink = &mut LossSink::Total(&mut total);
    data.scan_blocks(0, usize::MAX, &mut |block| {
        task.add_losses(model, block, sink);
        true
    })?;
    Ok(total)
}

/// Step 4, the loss pass of a run: [`objective`] read in `ranges`, the
/// contiguous ranges of storage order that cover `data` (at least one), one
/// part of [`run_parts`] each, polling `keep_going` between the blocks of
/// each.
///
/// The first range, on the calling thread, adds its terms onto the
/// regularizer as it reads them. Each range after the first writes its
/// rows' terms into its own chunk of `terms` (one slot per row outside the
/// first range), which are added on in storage order once every range is
/// read. That is the same sum in the same order, so the loss has the same
/// bits whatever the split.
fn objective_while<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    model: &[f64],
    data: &S,
    ranges: &[(usize, usize)],
    terms: &mut [f64],
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Result<f64, PassError> {
    let mut chunks = &mut *terms;
    let parts = ranges.iter().enumerate().map(|(i, &(start, end))| {
        let chunk = (i > 0).then(|| {
            let (chunk, tail) = std::mem::take(&mut chunks).split_at_mut(end - start);
            chunks = tail;
            chunk
        });
        ((start, end), chunk)
    });
    let totals = run_parts(parts, |((start, end), chunk)| {
        let mut total = 0.0;
        let mut sink = match chunk {
            None => {
                total = task.regularizer(model);
                LossSink::Total(&mut total)
            }
            Some(chunk) => LossSink::Terms(chunk.iter_mut()),
        };
        scan_blocks_while(data, start, end, &mut || keep_going(), &mut |block| {
            task.add_losses(model, block, &mut sink);
            Ok(true)
        })?;
        Ok(total)
    })?;
    Ok(terms.iter().fold(totals[0], |sum, term| sum + term))
}

/// Abort an attempt on a stop request: persist `good`, the run as of its
/// last recorded epoch, if a checkpoint policy is configured.
fn interrupt(config: &TrainerConfig, good: &TrainingCheckpoint) -> EpochAbort {
    match config.checkpoint.as_ref().map(|policy| policy.write(good)) {
        Some(Err(e)) => EpochAbort::Checkpoint(e),
        _ => EpochAbort::Interrupted,
    }
}

/// Abort an attempt on a pass that did not finish: a stop is an
/// [`interrupt`], a storage fault or a panicked part fails the run.
fn abort(config: &TrainerConfig, good: &TrainingCheckpoint, end: PassError) -> EpochAbort {
    match end {
        PassError::Stopped => interrupt(config, good),
        PassError::Storage(e) => EpochAbort::Storage(e),
        PassError::Panicked {
            failed_workers,
            message,
        } => EpochAbort::WorkerPanic {
            failed_workers,
            message,
        },
        PassError::Failed(never) => match never {},
    }
}

/// The state of a run that has completed no epoch, from `model`.
pub(crate) fn fresh_start<T: IgdTask>(
    task: &T,
    config: &TrainerConfig,
    model: Vec<f64>,
) -> TrainingCheckpoint {
    TrainingCheckpoint {
        task_name: task.name().to_string(),
        next_epoch: 0,
        model,
        alpha_scale: 1.0,
        retries_used: 0,
        losses: Vec::new(),
        scan_order: config.scan_order,
        step_size: config.step_size,
    }
}

/// Read the checkpoint at `path` and reject it unless an equivalent run
/// produced it: resuming under a different task, dimension, scan order or
/// step-size schedule would silently break bit-compatibility.
pub(crate) fn load_checkpoint<T: IgdTask>(
    task: &T,
    config: &TrainerConfig,
    path: &Path,
) -> Result<TrainingCheckpoint, TrainError> {
    let checkpoint = TrainingCheckpoint::read(path)?;
    let corrupt = |msg: String| Err(TrainError::Checkpoint(StorageError::Corrupt(msg)));
    if checkpoint.task_name != task.name() {
        return corrupt(format!(
            "checkpoint is for task '{}', trainer runs '{}'",
            checkpoint.task_name,
            task.name()
        ));
    }
    if checkpoint.model.len() != task.dimension() {
        return corrupt(format!(
            "checkpoint model has dimension {}, task expects {}",
            checkpoint.model.len(),
            task.dimension()
        ));
    }
    if checkpoint.scan_order != config.scan_order {
        return corrupt(format!(
            "checkpoint scan order {:?} differs from the trainer's {:?}",
            checkpoint.scan_order, config.scan_order
        ));
    }
    if checkpoint.step_size != config.step_size {
        return corrupt(format!(
            "checkpoint step-size schedule {:?} differs from the trainer's {:?}",
            checkpoint.step_size, config.step_size
        ));
    }
    Ok(checkpoint)
}

/// Internal abort reason raised inside the epoch closure; converted into a
/// [`TrainError`] (which additionally carries the last-good model) once the
/// partial history is available.
pub(crate) enum EpochAbort {
    WorkerPanic {
        failed_workers: usize,
        message: String,
    },
    Storage(StorageError),
    Diverged {
        retries: u32,
    },
    Checkpoint(StorageError),
    Interrupted,
}

impl EpochAbort {
    fn into_train_error(self, epoch: usize, last_good: TrainedModel) -> TrainError {
        match self {
            EpochAbort::WorkerPanic {
                failed_workers,
                message,
            } => TrainError::WorkerPanic {
                epoch,
                failed_workers,
                message,
                last_good: Box::new(last_good),
            },
            EpochAbort::Storage(error) => TrainError::Storage {
                epoch,
                error,
                last_good: Box::new(last_good),
            },
            EpochAbort::Diverged { retries } => TrainError::Diverged {
                epoch,
                retries,
                last_good: Box::new(last_good),
            },
            EpochAbort::Checkpoint(e) => TrainError::Checkpoint(e),
            EpochAbort::Interrupted => TrainError::Interrupted {
                epoch,
                last_good: Box::new(last_good),
            },
        }
    }
}

/// Unwrap a training result for the infallible `train` entry points: failures
/// panic (the historical behavior), a cooperative interrupt yields the last
/// completed epoch's model.
pub(crate) fn unwrap_trained(result: Result<TrainedModel, TrainError>) -> TrainedModel {
    match result {
        Ok(trained) => trained,
        Err(TrainError::Interrupted { last_good, .. }) => *last_good,
        Err(err) => panic!("training failed: {err}"),
    }
}

fn stop_requested(config: &TrainerConfig) -> bool {
    config.guard.as_ref().is_some_and(QueryGuard::should_stop)
}

/// Reject a run whose serving handle cannot accept the task's models before
/// any epoch runs, so the in-loop publishes cannot fail.
fn validate_serving(config: &TrainerConfig, dimension: usize) -> Result<(), TrainError> {
    match &config.serving {
        Some(handle) if handle.dimension() != dimension => {
            Err(TrainError::Serving(PublishError::DimensionMismatch {
                expected: handle.dimension(),
                got: dimension,
            }))
        }
        _ => Ok(()),
    }
}

/// Publish a healthy (finite, dimension-checked) model to the serving
/// handle, if one is configured.
fn publish_serving(config: &TrainerConfig, model: &[f64]) {
    if let Some(handle) = &config.serving {
        handle
            .publish(model)
            .expect("dimension validated at run start and only finite models are published");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{LeastSquaresTask, LogisticRegressionTask, SvmTask};
    use crate::{ParallelTrainer, UpdateDiscipline};
    use bismarck_storage::{Column, DataType, Schema, Table, Value};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// A small linearly separable classification table; `clustered` controls
    /// whether positives all precede negatives (the pathological order).
    fn classification_table(n: usize, clustered: bool, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("data", schema);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for i in 0..n {
            let y = if i < n / 2 { 1.0 } else { -1.0 };
            let x = vec![
                y * 1.5 + rng.gen_range(-0.5..0.5),
                -y * 0.8 + rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ];
            rows.push((x, y));
        }
        if !clustered {
            // interleave classes
            rows.sort_by_key(|(x, _)| (x[2] * 1e6) as i64);
        }
        for (x, y) in rows {
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    #[test]
    fn lr_training_converges_and_reduces_loss() {
        let table = classification_table(200, false, 7);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::paper_default(40));
        let trainer = Trainer::new(&task, config);
        let initial = trainer.objective(&task.initial_model(), &table);
        let trained = trainer.train(&table);
        assert!(trained.epochs() >= 1);
        let final_loss = trained.final_loss().unwrap();
        assert!(
            final_loss < initial * 0.5,
            "final {final_loss} vs initial {initial}"
        );
        assert_eq!(trained.task_name, "LR");
    }

    #[test]
    fn svm_training_with_fixed_epochs_runs_exactly_that_many() {
        let table = classification_table(100, false, 3);
        let task = SvmTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.05))
            .with_convergence(ConvergenceTest::FixedEpochs(5));
        let trainer = Trainer::new(&task, config);
        let trained = trainer.train(&table);
        assert_eq!(trained.epochs(), 5);
    }

    #[test]
    fn shuffle_once_converges_in_fewer_epochs_than_clustered() {
        // The CA-TX phenomenon on a classification table clustered by label.
        let table = classification_table(400, true, 11);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let base = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.5))
            .with_convergence(ConvergenceTest::FixedEpochs(15));

        let clustered =
            Trainer::new(&task, base.clone().with_scan_order(ScanOrder::Clustered)).train(&table);
        let shuffled = Trainer::new(
            &task,
            base.with_scan_order(ScanOrder::ShuffleOnce { seed: 5 }),
        )
        .train(&table);

        // Compare the loss reached after the same number of epochs.
        let target = shuffled.final_loss().unwrap();
        let clustered_final = clustered.final_loss().unwrap();
        assert!(
            target <= clustered_final * 1.05,
            "shuffled {target} should be no worse than clustered {clustered_final}"
        );
    }

    #[test]
    fn shuffle_always_records_shuffle_time_every_epoch() {
        let table = classification_table(100, false, 1);
        let task = LeastSquaresTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_scan_order(ScanOrder::ShuffleAlways { seed: 2 })
            .with_step_size(StepSizeSchedule::Constant(0.01))
            .with_convergence(ConvergenceTest::FixedEpochs(4));
        let trained = Trainer::new(&task, config).train(&table);
        let with_shuffle = trained
            .history
            .records()
            .iter()
            .filter(|r| r.shuffle_duration > Duration::ZERO)
            .count();
        assert_eq!(with_shuffle, 4);

        let once = TrainerConfig::default()
            .with_scan_order(ScanOrder::ShuffleOnce { seed: 2 })
            .with_step_size(StepSizeSchedule::Constant(0.01))
            .with_convergence(ConvergenceTest::FixedEpochs(4));
        let trained_once = Trainer::new(&task, once).train(&table);
        let with_shuffle_once = trained_once
            .history
            .records()
            .iter()
            .filter(|r| r.shuffle_duration > Duration::ZERO)
            .count();
        assert_eq!(with_shuffle_once, 1);
    }

    #[test]
    fn train_from_continues_from_previous_model() {
        let table = classification_table(100, false, 9);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(3));
        let trainer = Trainer::new(&task, config);
        let first = trainer.train(&table);
        let resumed = trainer.try_train_from(&table, first.model.clone()).unwrap();
        assert!(resumed.final_loss().unwrap() <= first.final_loss().unwrap() + 1e-9);
    }

    #[test]
    fn default_config_shuffles_once() {
        assert_eq!(TrainerConfig::default().scan_order.label(), "ShuffleOnce");
    }

    fn temp_ckpt(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "bismarck-trainer-{}-{name}.ckpt",
            std::process::id()
        ));
        p
    }

    #[test]
    fn divergent_step_size_stops_early_without_backoff() {
        // A wildly oversized constant step makes least squares blow up; the
        // fixed convergence semantics stop the run at the first non-finite
        // loss instead of spinning to the cap, and the run is not converged.
        let table = classification_table(100, false, 21);
        let task = LeastSquaresTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(1e12))
            .with_convergence(ConvergenceTest::paper_default(500));
        let trained = Trainer::new(&task, config).try_train(&table).unwrap();
        assert!(trained.epochs() < 500, "must not spin to the cap");
        assert!(!trained.history.converged());
        assert!(!trained.final_loss().unwrap().is_finite());
    }

    #[test]
    fn backoff_recovers_a_divergent_run() {
        let table = classification_table(100, false, 21);
        let task = LeastSquaresTask::new(0, 1, 3);
        // Diverges at full step size; the backoff halves it until the run is
        // stable, restoring the last-good (here: initial) model each time.
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(20.0))
            .with_convergence(ConvergenceTest::FixedEpochs(6))
            .with_backoff(40);
        let trained = Trainer::new(&task, config).try_train(&table).unwrap();
        let final_loss = trained.final_loss().unwrap();
        assert!(final_loss.is_finite());
        assert!(trained.model.iter().all(|v| v.is_finite()));
        let retries = trained.history.total_retries();
        assert!(retries > 0, "the run must actually have backed off");
        assert!(
            trained.history.records().iter().any(|r| r.retries > 0),
            "recoveries must be attributed to the epoch that needed them"
        );
    }

    #[test]
    fn exhausted_backoff_budget_reports_divergence_with_last_good_model() {
        let table = classification_table(100, false, 21);
        let task = LeastSquaresTask::new(0, 1, 3);
        // A budget of 1 cannot save a step size this hot.
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(1e30))
            .with_convergence(ConvergenceTest::FixedEpochs(6))
            .with_backoff(1);
        let err = Trainer::new(&task, config)
            .try_train(&table)
            .expect_err("budget of 1 must be exhausted");
        match &err {
            TrainError::Diverged {
                retries, last_good, ..
            } => {
                assert_eq!(*retries, 1);
                assert!(last_good.model.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn cancelled_guard_interrupts_at_an_epoch_boundary() {
        let table = classification_table(100, false, 9);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let guard = QueryGuard::unlimited();
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(50))
            .with_guard(guard.clone());
        guard.cancel();
        let err = Trainer::new(&task, config)
            .try_train(&table)
            .expect_err("a cancelled guard must interrupt immediately");
        match err {
            TrainError::Interrupted { epoch, last_good } => {
                assert_eq!(epoch, 0);
                assert_eq!(last_good.epochs(), 0);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn checkpoints_are_written_on_schedule_and_resume_continues() {
        let path = temp_ckpt("on-schedule");
        let table = classification_table(120, false, 13);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(10))
            .with_checkpoints(&path, 4);
        let trainer = Trainer::new(&task, config);
        let full = trainer.try_train(&table).unwrap();

        // The surviving checkpoint is the one written after epoch 8.
        let cp = crate::checkpoint::TrainingCheckpoint::read(&path).unwrap();
        assert_eq!(cp.next_epoch, 8);
        assert_eq!(cp.losses.len(), 8);
        assert_eq!(cp.task_name, "LR");

        // Resuming runs epochs 8 and 9 and lands on the exact same model.
        let resumed = trainer.resume_from(&table, &path).unwrap();
        assert_eq!(resumed.epochs(), 10);
        assert_eq!(
            resumed.model, full.model,
            "resume must be bit-compatible with the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_retention_keeps_last_k_generations() {
        let dir = std::env::temp_dir().join(format!(
            "bismarck-ckpt-retention-test-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let table = classification_table(120, false, 13);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(10))
            .with_checkpoint_retention(&path, 2, 3);
        Trainer::new(&task, config).try_train(&table).unwrap();

        // Writes happened after epochs 2, 4, 6, 8 and 10; with keep = 3 the
        // three newest stamps survive (path aliases the newest) and the
        // epoch-2 and epoch-4 stamps are pruned.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "model.ckpt".to_string(),
                "model.ckpt.e10".to_string(),
                "model.ckpt.e6".to_string(),
                "model.ckpt.e8".to_string(),
            ]
        );
        // Every retained generation is independently readable.
        for name in ["model.ckpt.e6", "model.ckpt.e8", "model.ckpt.e10"] {
            let cp = crate::checkpoint::TrainingCheckpoint::read(&dir.join(name)).unwrap();
            assert_eq!(cp.task_name, "LR");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_trainer() {
        let path = temp_ckpt("mismatch");
        let table = classification_table(60, false, 3);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.1))
            .with_convergence(ConvergenceTest::FixedEpochs(4))
            .with_checkpoints(&path, 2);
        Trainer::new(&task, config.clone())
            .try_train(&table)
            .unwrap();

        // Different step size ⇒ the resumed run would not be bit-compatible.
        let other = config.with_step_size(StepSizeSchedule::Constant(0.05));
        let err = Trainer::new(&task, other)
            .resume_from(&table, &path)
            .expect_err("step-size mismatch must be rejected");
        assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");

        // Different task ⇒ rejected by name before anything runs.
        let svm = SvmTask::new(0, 1, 3);
        let svm_config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.1))
            .with_convergence(ConvergenceTest::FixedEpochs(4));
        let err = Trainer::new(&svm, svm_config)
            .resume_from(&table, &path)
            .expect_err("task mismatch must be rejected");
        assert!(err.to_string().contains("task"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A `FixedEpochs(2)` run checkpointed every epoch and resumed under a
    /// loss-based test ends exactly where the straight run under that test
    /// does: the verdict after the first resumed epoch reads the losses
    /// restored from before the resume.
    #[test]
    fn resume_under_a_loss_based_test_matches_the_straight_run() {
        let path = temp_ckpt("loss-based-resume");
        let table = classification_table(120, false, 13);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let base = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_scan_order(ScanOrder::Clustered);
        let run = |pass: Option<ParallelStrategy>, config: TrainerConfig, resume: Option<&Path>| {
            let result = match (pass, resume) {
                (None, None) => Trainer::new(&task, config).try_train(&table),
                (None, Some(path)) => Trainer::new(&task, config).resume_from(&table, path),
                (Some(strategy), None) => ParallelTrainer::new(&task, config, strategy)
                    .try_train(&table)
                    .map(|(trained, _)| trained),
                (Some(strategy), Some(path)) => ParallelTrainer::new(&task, config, strategy)
                    .resume_from(&table, path)
                    .map(|(trained, _)| trained),
            };
            result.expect("the run completes")
        };
        // Criteria a straight run meets after a few epochs, not at the cap.
        let fixed = base
            .clone()
            .with_convergence(ConvergenceTest::FixedEpochs(8));
        let losses = run(None, fixed, None).history.losses();
        let drop = |e: usize| (losses[e - 1] - losses[e]) / losses[e - 1];
        let tests = [
            ConvergenceTest::RelativeLossDecrease {
                tolerance: (drop(3) + drop(4)) / 2.0,
                max_epochs: 30,
            },
            ConvergenceTest::LossBelow {
                target: losses[4],
                max_epochs: 30,
            },
        ];
        let bits = |trained: &TrainedModel| {
            let losses = trained.history.losses().into_iter();
            let model = trained.model.iter().copied();
            losses.chain(model).map(f64::to_bits).collect::<Vec<_>>()
        };
        let lock = ParallelStrategy::SharedMemory {
            workers: 1,
            discipline: UpdateDiscipline::Lock,
        };
        for pass in [None, Some(lock)] {
            for test in tests {
                let label = format!("{pass:?}, {test:?}");
                let straight = run(pass, base.clone().with_convergence(test), None);
                assert!(straight.history.converged(), "[{label}]");
                assert!((3..30).contains(&straight.epochs()), "[{label}]");
                let two = base
                    .clone()
                    .with_convergence(ConvergenceTest::FixedEpochs(2))
                    .with_checkpoints(&path, 1);
                run(pass, two, None);
                let resumed = run(pass, base.clone().with_convergence(test), Some(&path));
                assert_eq!(bits(&resumed), bits(&straight), "[{label}]");
                assert_eq!(resumed.epochs(), straight.epochs(), "[{label}]");
                assert_eq!(
                    resumed.history.converged(),
                    straight.history.converged(),
                    "[{label}]"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The timings a run records, checked on a real `ShuffleAlways` run
    /// resumed from a checkpoint, through both façades and every kind of
    /// pass: a restored epoch has none; an epoch this call ran holds its
    /// gradient and loss spans (and its shuffle span where the pass reads a
    /// permutation), and the run's clock covers every epoch this call ran.
    /// A parallel run's stats are the records of exactly those epochs.
    #[test]
    fn a_resumed_run_times_the_epochs_it_ran() {
        let path = temp_ckpt("timings");
        let table = classification_table(100, false, 5);
        let task = LogisticRegressionTask::new(0, 1, 3);
        let base = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_scan_order(ScanOrder::ShuffleAlways { seed: 4 });
        let two = base
            .clone()
            .with_convergence(ConvergenceTest::FixedEpochs(2))
            .with_checkpoints(&path, 1);
        let five = base.with_convergence(ConvergenceTest::FixedEpochs(5));
        let shared = |workers, discipline| ParallelStrategy::SharedMemory {
            workers,
            discipline,
        };
        for pass in [
            None,
            Some(shared(1, UpdateDiscipline::Lock)),
            Some(shared(2, UpdateDiscipline::NoLock)),
            Some(ParallelStrategy::PureUda { segments: 2 }),
            Some(ParallelStrategy::Mrs {
                buffer_size: 0,
                seed: 6,
            }),
        ] {
            let (resumed, stats) = match pass {
                None => {
                    Trainer::new(&task, two.clone()).try_train(&table).unwrap();
                    let trainer = Trainer::new(&task, five.clone());
                    (trainer.resume_from(&table, &path).unwrap(), None)
                }
                Some(strategy) => {
                    ParallelTrainer::new(&task, two.clone(), strategy)
                        .try_train(&table)
                        .unwrap();
                    let trainer = ParallelTrainer::new(&task, five.clone(), strategy);
                    let (trained, stats) = trainer.resume_from(&table, &path).unwrap();
                    (trained, Some(stats))
                }
            };
            let records = resumed.history.records();
            assert_eq!(records.len(), 5, "[{pass:?}]");
            let (restored, ran) = records.split_at(2);
            for record in restored {
                assert_eq!(record.duration, Duration::ZERO, "[{pass:?}] {record:?}");
                assert_eq!(record.shuffle_duration, Duration::ZERO, "[{pass:?}]");
                assert_eq!(record.gradient_duration, Duration::ZERO, "[{pass:?}]");
                assert_eq!(record.loss_duration, Duration::ZERO, "[{pass:?}]");
                assert_eq!(record.cumulative, Duration::ZERO, "[{pass:?}]");
            }
            let mut elapsed = Duration::ZERO;
            let mut previous = Duration::ZERO;
            // Pure-UDA segments and the MRS I/O Worker read storage order,
            // so only the other passes draw (and time) a permutation.
            let reads_permutation = !matches!(
                pass,
                Some(ParallelStrategy::PureUda { .. } | ParallelStrategy::Mrs { .. })
            );
            for record in ran {
                assert_eq!(
                    record.shuffle_duration > Duration::ZERO,
                    reads_permutation,
                    "[{pass:?}] {record:?}"
                );
                assert!(
                    record.gradient_duration > Duration::ZERO,
                    "[{pass:?}] {record:?}"
                );
                assert!(
                    record.loss_duration > Duration::ZERO,
                    "[{pass:?}] {record:?}"
                );
                assert!(
                    record.duration
                        >= record.shuffle_duration
                            + record.gradient_duration
                            + record.loss_duration,
                    "[{pass:?}] {record:?}"
                );
                assert!(record.cumulative >= previous, "[{pass:?}] {record:?}");
                elapsed += record.duration;
                assert!(record.cumulative >= elapsed, "[{pass:?}] {record:?}");
                previous = record.cumulative;
            }
            assert_eq!(resumed.history.total_duration(), previous, "[{pass:?}]");
            if let Some(stats) = stats {
                assert_eq!(stats.len(), ran.len());
                for (stat, record) in stats.iter().zip(ran) {
                    assert_eq!(stat.gradient_duration, record.gradient_duration);
                    assert_eq!(stat.retries, record.retries);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
