//! Fault-tolerance integration tests.
//!
//! These prove the three recovery paths of the fault-tolerant runtime
//! end-to-end: a panicking gradient worker is isolated into a typed error
//! that carries the last healthy model, an injected NaN gradient is healed
//! by divergence backoff, and a checkpointed run killed mid-way resumes
//! bit-compatibly with an uninterrupted one. The `every_pass_*` tests at the
//! end run one runtime contract over every gradient pass the single epoch
//! loop can select.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use bismarck_core::model::ModelStore;
use bismarck_core::parallel::ParallelEpochStats;
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdTask, ModelHandle, ParallelStrategy, ParallelTrainer, ProximalPolicy, QueryGuard,
    ServingTask, StepSizeSchedule, TrainError, TrainedModel, Trainer, TrainerConfig,
    TrainingCheckpoint, UpdateDiscipline,
};
use bismarck_datagen::{dense_classification, DenseClassificationConfig};
use bismarck_storage::{RowRef, ScanOrder, Table};
use bismarck_uda::ConvergenceTest;

fn table(n: usize) -> Table {
    dense_classification(
        "faults",
        DenseClassificationConfig {
            examples: n,
            dimension: 4,
            clustered_by_label: false,
            ..Default::default()
        },
    )
}

fn config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
        .with_scan_order(ScanOrder::Clustered)
}

/// A unique on-disk checkpoint path per test, cleaned up by the caller.
fn ckpt_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bismarck_ft_{}_{name}.ckpt", std::process::id()))
}

/// Suppress the default panic hook's stderr spew for intentionally injected
/// panics; restores the hook when dropped.
struct QuietPanics;

impl QuietPanics {
    fn new() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// What to inject, and at which global gradient-step count.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Panic inside `gradient_step` at step K (0-based).
    PanicAtStep(u64),
    /// Overwrite model component 0 with `NaN` at step K, poisoning the model
    /// so the post-epoch divergence scan trips.
    NanGradientAtStep(u64),
}

/// An `IgdTask` decorator that injects one fault at the K-th gradient step,
/// counted across epochs and workers. The counter keeps advancing past K,
/// so the fault fires exactly once: a run that recovers (restores the
/// last-good snapshot and backs off the step size) proceeds cleanly
/// afterwards, which is the scenario the recovery paths need to prove.
struct FaultyTask<T> {
    inner: T,
    fault: Fault,
    steps: AtomicU64,
}

impl<T: IgdTask> FaultyTask<T> {
    fn new(inner: T, fault: Fault) -> Self {
        FaultyTask {
            inner,
            fault,
            steps: AtomicU64::new(0),
        }
    }
}

impl<T: IgdTask> IgdTask for FaultyTask<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn initial_model(&self) -> Vec<f64> {
        self.inner.initial_model()
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        let step = self.steps.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            Fault::PanicAtStep(k) if step == k => {
                panic!("injected fault: panic at gradient step {k}")
            }
            Fault::NanGradientAtStep(k) if step == k => {
                self.inner.gradient_step(model, row, alpha);
                model.write(0, f64::NAN);
            }
            _ => self.inner.gradient_step(model, row, alpha),
        }
    }
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        self.inner.example_loss(model, row)
    }
    fn regularizer(&self, model: &[f64]) -> f64 {
        self.inner.regularizer(model)
    }
    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        self.inner.proximal_step(model, alpha)
    }
    fn proximal_policy(&self) -> ProximalPolicy {
        self.inner.proximal_policy()
    }
}

#[test]
fn sequential_worker_panic_yields_last_good_model() {
    let _quiet = QuietPanics::new();
    let data = table(120);
    // Panic during epoch 2 (steps 0..120 are epoch 0, etc.).
    let task = FaultyTask::new(
        LogisticRegressionTask::new(1, 2, 4),
        Fault::PanicAtStep(2 * 120 + 17),
    );
    let err = Trainer::new(&task, config(6)).try_train(&data).unwrap_err();
    let TrainError::WorkerPanic {
        epoch,
        failed_workers,
        message,
        last_good,
    } = err
    else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    assert_eq!(epoch, 2);
    assert_eq!(failed_workers, 1);
    assert!(message.contains("injected fault"), "message: {message}");
    // The carried model is the last healthy epoch's: two epochs completed,
    // all components finite.
    assert_eq!(last_good.epochs(), 2);
    assert!(last_good.model.iter().all(|v| v.is_finite()));
    assert!(last_good.final_loss().unwrap().is_finite());
}

#[test]
fn parallel_worker_panic_is_isolated_under_every_strategy() {
    let _quiet = QuietPanics::new();
    let data = table(200);
    for strategy in [
        ParallelStrategy::PureUda { segments: 4 },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::Lock,
        },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::Aig,
        },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::NoLock,
        },
        // Step 250 is in epoch 1, the first where both MRS workers run.
        ParallelStrategy::Mrs {
            buffer_size: 20,
            seed: 5,
        },
    ] {
        // Fresh wrapper per strategy: the step counter is global.
        let task = FaultyTask::new(
            LogisticRegressionTask::new(1, 2, 4),
            Fault::PanicAtStep(200 + 50),
        );
        let err = ParallelTrainer::new(&task, config(4), strategy)
            .try_train(&data)
            .unwrap_err();
        let TrainError::WorkerPanic {
            epoch,
            failed_workers,
            last_good,
            ..
        } = err
        else {
            panic!("[{}] expected WorkerPanic, got {err:?}", strategy.label());
        };
        assert_eq!(epoch, 1, "[{}]", strategy.label());
        assert!(failed_workers >= 1, "[{}]", strategy.label());
        assert_eq!(last_good.epochs(), 1, "[{}]", strategy.label());
        assert!(
            last_good.model.iter().all(|v| v.is_finite()),
            "[{}] last-good model must be finite",
            strategy.label()
        );
    }
}

#[test]
fn nan_gradient_recovers_through_backoff_and_converges() {
    let data = table(150);
    let task = FaultyTask::new(
        LogisticRegressionTask::new(1, 2, 4),
        Fault::NanGradientAtStep(40),
    );
    let trained = Trainer::new(&task, config(8).with_backoff(2))
        .try_train(&data)
        .expect("backoff should absorb a single NaN epoch");
    // The poisoned epoch was retried once (with a halved step size) and the
    // recovery is visible in the history.
    assert_eq!(trained.history.total_retries(), 1);
    assert_eq!(trained.history.records()[0].retries, 1);
    assert_eq!(trained.epochs(), 8);
    assert!(trained.final_loss().unwrap().is_finite());
    assert!(trained.model.iter().all(|v| v.is_finite()));
    // Every recorded loss is finite: the diverged attempt was discarded,
    // not recorded.
    assert!(trained.history.losses().iter().all(|l| l.is_finite()));
}

#[test]
fn nan_gradient_without_backoff_stops_unconverged() {
    let data = table(150);
    let task = FaultyTask::new(
        LogisticRegressionTask::new(1, 2, 4),
        Fault::NanGradientAtStep(40),
    );
    // Default config has no backoff budget: the non-finite epoch is recorded
    // and the convergence test reads it as a stop signal.
    let trained = Trainer::new(
        &task,
        config(8).with_convergence(ConvergenceTest::RelativeLossDecrease {
            tolerance: 1e-12,
            max_epochs: 8,
        }),
    )
    .try_train(&data)
    .expect("without a backoff budget divergence is recorded, not an error");
    assert!(!trained.history.converged());
    assert!(trained.final_loss().unwrap().is_nan());
}

#[test]
fn exhausted_backoff_budget_reports_diverged_with_last_good() {
    let data = table(100);
    // Inject a NaN in every epoch's first step by wrapping twice — simpler:
    // a NaN at step 0 with a zero retry budget via with_backoff(0) would be
    // recorded, so instead use backoff(1) and poison both attempts: steps 0
    // and 100 both fall in attempt 0 and the retry of epoch 0.
    let task = FaultyTask::new(
        LogisticRegressionTask::new(1, 2, 4),
        Fault::NanGradientAtStep(0),
    );
    let inner = FaultyTask::new(task, Fault::NanGradientAtStep(100));
    let err = Trainer::new(&inner, config(4).with_backoff(1))
        .try_train(&data)
        .unwrap_err();
    let TrainError::Diverged {
        epoch,
        retries,
        last_good,
    } = err
    else {
        panic!("expected Diverged, got {err:?}");
    };
    assert_eq!(epoch, 0);
    assert_eq!(retries, 1);
    // No epoch completed: last-good is the initial model with empty history.
    assert_eq!(last_good.epochs(), 0);
    assert!(last_good.model.iter().all(|v| v.is_finite()));
}

#[test]
fn interrupted_run_resumes_bit_compatibly_with_an_uninterrupted_one() {
    let data = table(130);
    let path = ckpt_path("resume");
    let task = LogisticRegressionTask::new(1, 2, 4);
    // Shuffle-always plus a diminishing step size: resume must reconstruct
    // both the per-epoch permutation and the epoch-indexed alpha.
    let full_config = TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Diminishing { initial: 0.2 })
        .with_scan_order(ScanOrder::ShuffleAlways { seed: 42 })
        .with_convergence(ConvergenceTest::FixedEpochs(9));
    let full = Trainer::new(&task, full_config.clone()).train(&data);

    // "Kill" a checkpointed run after 4 epochs by running a truncated
    // convergence cap with the same everything-else.
    let partial = Trainer::new(
        &task,
        full_config
            .clone()
            .with_convergence(ConvergenceTest::FixedEpochs(4))
            .with_checkpoints(&path, 2),
    )
    .train(&data);
    assert_eq!(partial.epochs(), 4);

    let resumed = Trainer::new(&task, full_config)
        .resume_from(&data, &path)
        .expect("resume from a healthy checkpoint");
    assert_eq!(resumed.epochs(), 9);
    assert_eq!(
        resumed.model, full.model,
        "resumed run must be bitwise identical to the uninterrupted one"
    );
    assert_eq!(resumed.history.losses(), full.history.losses());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancelled_guard_interrupts_at_an_epoch_boundary_and_checkpoint_resumes() {
    let data = table(110);
    let path = ckpt_path("cancelled");
    let task = LogisticRegressionTask::new(1, 2, 4);
    let guard = QueryGuard::unlimited();
    guard.cancel(); // before the run: stop immediately
    let err = Trainer::new(
        &task,
        config(6).with_checkpoints(&path, 3).with_guard(guard),
    )
    .try_train(&data)
    .unwrap_err();
    let TrainError::Interrupted { epoch, last_good } = err else {
        panic!("expected Interrupted, got {err:?}");
    };
    assert_eq!(epoch, 0);
    assert_eq!(last_good.epochs(), 0);

    // The interrupt checkpoint lets a fresh trainer pick the run back up;
    // without the guard it completes all 6 epochs, matching a run that was
    // never interrupted.
    let resumed = Trainer::new(&task, config(6))
        .resume_from(&data, &path)
        .expect("resume from interrupt checkpoint");
    let uninterrupted = Trainer::new(&task, config(6)).train(&data);
    assert_eq!(resumed.epochs(), 6);
    assert_eq!(resumed.model, uninterrupted.model);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn poisoned_checkpoint_is_rejected_with_a_checksum_error() {
    let data = table(90);
    let path = ckpt_path("poisoned");
    let task = LogisticRegressionTask::new(1, 2, 4);
    Trainer::new(&task, config(4).with_checkpoints(&path, 2)).train(&data);

    // Flip one byte in the middle of the file.
    let mut bytes = std::fs::read(&path).expect("checkpoint was written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let err = Trainer::new(&task, config(4))
        .resume_from(&data, &path)
        .unwrap_err();
    assert!(
        matches!(
            &err,
            TrainError::Checkpoint(bismarck_storage::StorageError::Corrupt(msg))
                if msg.contains("checksum mismatch")
        ),
        "got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn parallel_lock_single_worker_resumes_bit_compatibly() {
    let data = table(140);
    let path = ckpt_path("parallel_resume");
    let task = LogisticRegressionTask::new(1, 2, 4);
    let strategy = ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::Lock,
    };
    let (full, _) = ParallelTrainer::new(&task, config(8), strategy).train(&data);
    let (partial, _) =
        ParallelTrainer::new(&task, config(4).with_checkpoints(&path, 4), strategy).train(&data);
    assert_eq!(partial.epochs(), 4);
    let (resumed, stats) = ParallelTrainer::new(&task, config(8), strategy)
        .resume_from(&data, &path)
        .expect("resume parallel run");
    assert_eq!(resumed.epochs(), 8);
    assert_eq!(stats.len(), 4, "stats cover only the resumed epochs");
    assert_eq!(resumed.model, full.model);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// One runtime contract over every gradient pass.
//
// `Trainer` and `ParallelTrainer` run the same epoch loop and differ only in
// the pass it calls, so every scenario below runs unchanged over the whole
// table. The shared-memory rows use one worker and the MRS row no buffer
// (so no Memory Worker): that keeps each pass deterministic (models can be
// compared bitwise) and an injected NaN cannot be overwritten by a racing
// NoLock update.
// ---------------------------------------------------------------------------

/// `None` is the sequential pass of `Trainer`.
const PASSES: [Option<ParallelStrategy>; 6] = [
    None,
    Some(ParallelStrategy::PureUda { segments: 3 }),
    Some(ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::Lock,
    }),
    Some(ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::Aig,
    }),
    Some(ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::NoLock,
    }),
    Some(ParallelStrategy::Mrs {
        buffer_size: 0,
        seed: 5,
    }),
];

fn pass_label(pass: Option<ParallelStrategy>) -> &'static str {
    pass.map_or("Sequential", |strategy| strategy.label())
}

/// Whether the pass scans in the configured order (Pure UDA segments and the
/// MRS I/O Worker always scan storage order).
fn reads_permutation(pass: Option<ParallelStrategy>) -> bool {
    !matches!(
        pass,
        Some(ParallelStrategy::PureUda { .. } | ParallelStrategy::Mrs { .. })
    )
}

/// Train (or, given a checkpoint path, resume) with the trainer that owns
/// `pass`; the sequential trainer reports no per-epoch parallel stats.
fn run_pass<T: IgdTask>(
    pass: Option<ParallelStrategy>,
    task: &T,
    config: TrainerConfig,
    data: &Table,
    resume: Option<&Path>,
) -> Result<(TrainedModel, Option<Vec<ParallelEpochStats>>), TrainError> {
    match (pass, resume) {
        (None, None) => Trainer::new(task, config)
            .try_train(data)
            .map(|t| (t, None)),
        (None, Some(path)) => Trainer::new(task, config)
            .resume_from(data, path)
            .map(|t| (t, None)),
        (Some(strategy), None) => ParallelTrainer::new(task, config, strategy)
            .try_train(data)
            .map(|(t, stats)| (t, Some(stats))),
        (Some(strategy), Some(path)) => ParallelTrainer::new(task, config, strategy)
            .resume_from(data, path)
            .map(|(t, stats)| (t, Some(stats))),
    }
}

/// Cancels `guard` once the objective has been evaluated `after` times,
/// i.e. deterministically at the end of epoch `after - 1` of a fault-free
/// run. Everything else is delegated.
struct StopAfter<T> {
    inner: T,
    after: usize,
    loss_passes: AtomicUsize,
    guard: QueryGuard,
}

impl<T: IgdTask> IgdTask for StopAfter<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn initial_model(&self) -> Vec<f64> {
        self.inner.initial_model()
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        self.inner.gradient_step(model, row, alpha)
    }
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        self.inner.example_loss(model, row)
    }
    fn regularizer(&self, model: &[f64]) -> f64 {
        if self.loss_passes.fetch_add(1, Ordering::SeqCst) + 1 == self.after {
            self.guard.cancel();
        }
        self.inner.regularizer(model)
    }
    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        self.inner.proximal_step(model, alpha)
    }
    fn proximal_policy(&self) -> ProximalPolicy {
        self.inner.proximal_policy()
    }
}

#[test]
fn every_pass_recovers_a_nan_epoch_and_serves_only_finite_models() {
    let data = table(150);
    for pass in PASSES {
        let label = pass_label(pass);
        // Every attempt takes exactly 150 gradient steps, so step 340 falls
        // in the first attempt at epoch 2 under every pass.
        let task = FaultyTask::new(
            LogisticRegressionTask::new(1, 2, 4),
            Fault::NanGradientAtStep(2 * 150 + 40),
        );
        let handle = ModelHandle::new(ServingTask::Logistic, 4);
        let (trained, stats) = run_pass(
            pass,
            &task,
            config(8).with_backoff(2).with_serving(handle.clone()),
            &data,
            None,
        )
        .unwrap_or_else(|e| panic!("[{label}] backoff should absorb one NaN epoch: {e}"));

        // The recovery is attributed to the epoch that needed it, in both
        // the history and the per-epoch parallel stats.
        let expected = [0, 0, 1, 0, 0, 0, 0, 0];
        let recorded: Vec<u32> = trained
            .history
            .records()
            .iter()
            .map(|r| r.retries)
            .collect();
        assert_eq!(recorded, expected, "[{label}] EpochRecord::retries");
        if let Some(stats) = stats {
            let counted: Vec<u32> = stats.iter().map(|s| s.retries).collect();
            assert_eq!(counted, expected, "[{label}] ParallelEpochStats::retries");
        }
        assert!(
            trained.history.losses().iter().all(|l| l.is_finite()),
            "[{label}] the diverged attempt must be discarded, not recorded"
        );

        // One publish per healthy epoch plus one re-assert per recovery; the
        // diverged model itself never reaches the handle (`publish` rejects
        // non-finite weights and the loop treats a rejection as a bug).
        assert_eq!(handle.version(), 8 + 1, "[{label}] publish count");
        let served = handle.snapshot();
        assert_eq!(served.weights(), trained.model.as_slice(), "[{label}]");
        assert!(served.weights().iter().all(|w| w.is_finite()), "[{label}]");
    }
}

#[test]
fn every_pass_interrupts_checkpoints_and_resumes_to_the_full_run() {
    let data = table(110);
    for pass in PASSES {
        let label = pass_label(pass);
        let path = ckpt_path(&format!("contract_stop_{label}"));
        let guard = QueryGuard::unlimited();
        let task = StopAfter {
            inner: LogisticRegressionTask::new(1, 2, 4),
            after: 3,
            loss_passes: AtomicUsize::new(0),
            guard: guard.clone(),
        };
        // A cadence of 100 is never due in a 6-epoch run: the only write is
        // the interrupt's.
        let err = run_pass(
            pass,
            &task,
            config(6).with_checkpoints(&path, 100).with_guard(guard),
            &data,
            None,
        )
        .expect_err("the cancelled guard must interrupt the run");
        let TrainError::Interrupted { epoch, last_good } = err else {
            panic!("[{label}] expected Interrupted, got {err:?}");
        };
        assert_eq!(epoch, 3, "[{label}]");
        assert_eq!(last_good.epochs(), 3, "[{label}]");
        let checkpoint = TrainingCheckpoint::read(&path)
            .unwrap_or_else(|e| panic!("[{label}] interrupt checkpoint: {e}"));
        assert_eq!(checkpoint.next_epoch, 3, "[{label}]");
        assert_eq!(checkpoint.model, last_good.model, "[{label}]");

        let (resumed, stats) = run_pass(pass, &task.inner, config(6), &data, Some(&path))
            .unwrap_or_else(|e| panic!("[{label}] resume: {e}"));
        let (uninterrupted, _) = run_pass(pass, &task.inner, config(6), &data, None).unwrap();
        assert_eq!(resumed.epochs(), 6, "[{label}]");
        assert_eq!(resumed.model, uninterrupted.model, "[{label}]");
        assert_eq!(
            resumed.history.losses(),
            uninterrupted.history.losses(),
            "[{label}]"
        );
        if let Some(stats) = stats {
            assert_eq!(
                stats.len(),
                3,
                "[{label}] stats cover only the resumed epochs"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

fn shuffle_times(trained: &TrainedModel) -> Vec<Duration> {
    let records = trained.history.records();
    records.iter().map(|r| r.shuffle_duration).collect()
}

#[test]
fn every_pass_bills_shuffle_time_to_the_epoch_that_drew_a_permutation() {
    let data = table(200);
    let task = LogisticRegressionTask::new(1, 2, 4);
    for pass in PASSES {
        let label = pass_label(pass);

        // ShuffleAlways draws every epoch — unless the pass never reads a
        // permutation, in which case none is built or billed.
        let always = config(4).with_scan_order(ScanOrder::ShuffleAlways { seed: 3 });
        let (trained, _) = run_pass(pass, &task, always, &data, None).unwrap();
        for (epoch, time) in shuffle_times(&trained).into_iter().enumerate() {
            assert_eq!(
                time > Duration::ZERO,
                reads_permutation(pass),
                "[{label}] ShuffleAlways epoch {epoch}: {time:?}"
            );
        }

        // A resumed ShuffleOnce run draws its one permutation in the first
        // epoch it runs, and that epoch — not epoch 0 — pays for it.
        let path = ckpt_path(&format!("contract_shuffle_{label}"));
        let once = config(5).with_scan_order(ScanOrder::ShuffleOnce { seed: 3 });
        let partial = once
            .clone()
            .with_convergence(ConvergenceTest::FixedEpochs(2))
            .with_checkpoints(&path, 2);
        run_pass(pass, &task, partial, &data, None).unwrap();
        let (resumed, _) = run_pass(pass, &task, once, &data, Some(&path)).unwrap();
        let times = shuffle_times(&resumed);
        assert_eq!(times.len(), 5, "[{label}]");
        for (epoch, time) in times.into_iter().enumerate() {
            assert_eq!(
                time > Duration::ZERO,
                epoch == 2 && reads_permutation(pass),
                "[{label}] resumed ShuffleOnce epoch {epoch}: {time:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
