//! The loss pass of a run, whichever way it is split.
//!
//! A run whose gradient pass is spread over threads (pure-UDA segments,
//! shared-memory workers) reads its loss pass in as many contiguous ranges,
//! one thread each, and adds the per-row terms onto the regularizer in
//! storage order afterwards: the same sum in the same order as one thread
//! reading the whole table. Three claims are pinned here, over row, columnar
//! and paged tables of dense and sparse rows with NULL features and labels:
//!
//! 1. Every run's loss is the objective of its model, bit for bit — racy
//!    runs included, since both are read from the model the run hands back.
//! 2. A deterministic run's loss after epoch `e` is the objective of the
//!    model a `FixedEpochs(e)` run ends with.
//! 3. A panic in the loss pass is isolated like one in a gradient pass: the
//!    run reports `TrainError::WorkerPanic` with the last recorded epoch.
//!
//! Each epoch's record also accounts for its loss pass: shuffle, gradient
//! and loss time fit in the epoch's duration.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdTask, ModelStore, ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainError,
    TrainedModel, Trainer, TrainerConfig, UpdateDiscipline,
};
use bismarck_linalg::SparseVector;
use bismarck_storage::{
    Column, ColumnarTable, DataType, ScanOrder, Schema, Table, Tuple, TupleScan, Value,
};
use bismarck_uda::ConvergenceTest;

/// Rows per columnar segment, and segments the paged cache holds.
const CHUNK: usize = 16;
const CACHE: usize = 2;
const EPOCHS: usize = 3;
/// Row counts: none, one, fewer than the widest split, and one divisible
/// by neither 2 nor 3 that spans many more segments than the cache holds.
const ROW_COUNTS: [usize; 4] = [0, 1, 2, 301];
const DIMENSION: usize = 12;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bismarck-loss-pass-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `(vec, label)` rows, dense (d = 3) or sparse (d = 12), with a NULL `vec`
/// in every 7th row and a NULL `label` in every 11th.
fn rows(n: usize, sparse: bool) -> (Schema, Vec<Vec<Value>>) {
    let features = if sparse {
        DataType::SparseVec
    } else {
        DataType::DenseVec
    };
    let schema = Schema::new(vec![
        Column::nullable("vec", features),
        Column::nullable("label", DataType::Double),
    ])
    .unwrap();
    let rows = (0..n)
        .map(|i| {
            let y = if i % 3 == 0 { -1.0 } else { 1.0 };
            let noise = ((i * 37) % 101) as f64 / 101.0 - 0.5;
            let vec = if i % 7 == 3 {
                Value::Null
            } else if sparse {
                let pairs = vec![(i % 5, y * 1.5 + noise), (5 + i % 7, noise - y)];
                Value::SparseVec(SparseVector::from_pairs(pairs))
            } else {
                Value::from(vec![y * 1.5 + noise, noise - y, noise])
            };
            let label = if i % 11 == 6 {
                Value::Null
            } else {
                Value::Double(y)
            };
            vec![vec, label]
        })
        .collect();
    (schema, rows)
}

/// The same rows as a row-store table, an in-memory columnar table and a
/// paged one at `dir`.
fn layouts(n: usize, sparse: bool, dir: &Path) -> Vec<(&'static str, Box<dyn TupleScan>)> {
    let (schema, rows) = rows(n, sparse);
    let mut table = Table::new("d", schema.clone());
    table.insert_all(rows.iter().cloned()).unwrap();
    let mut columnar = ColumnarTable::with_chunk_capacity("d", schema.clone(), CHUNK);
    columnar.insert_all(rows.iter().cloned()).unwrap();
    let mut paged = ColumnarTable::create_paged("d", schema, dir, CHUNK, CACHE).unwrap();
    paged.insert_all(rows).unwrap();
    paged.flush().unwrap();
    if n > CHUNK * CACHE * 4 {
        assert!(
            paged.segment_count() > CACHE * 4,
            "the table dwarfs the cache"
        );
    }
    vec![
        ("row", Box::new(table)),
        ("columnar", Box::new(columnar)),
        ("paged", Box::new(paged)),
    ]
}

fn shared(workers: usize, discipline: UpdateDiscipline) -> Option<ParallelStrategy> {
    Some(ParallelStrategy::SharedMemory {
        workers,
        discipline,
    })
}

const MRS_IO_ALONE: Option<ParallelStrategy> = Some(ParallelStrategy::Mrs {
    buffer_size: 0,
    seed: 5,
});

/// Every pass: `None` is `Trainer`.
fn all_passes() -> Vec<Option<ParallelStrategy>> {
    let mut passes = vec![
        None,
        Some(ParallelStrategy::PureUda { segments: 2 }),
        Some(ParallelStrategy::PureUda { segments: 3 }),
        MRS_IO_ALONE,
    ];
    for discipline in [
        UpdateDiscipline::Lock,
        UpdateDiscipline::Aig,
        UpdateDiscipline::NoLock,
    ] {
        passes.extend((1..=3).map(|workers| shared(workers, discipline)));
    }
    passes
}

/// The passes whose model does not depend on thread timing.
fn deterministic_passes() -> Vec<Option<ParallelStrategy>> {
    let mut passes = vec![
        None,
        Some(ParallelStrategy::PureUda { segments: 2 }),
        Some(ParallelStrategy::PureUda { segments: 3 }),
        MRS_IO_ALONE,
    ];
    passes.extend(
        [
            UpdateDiscipline::Lock,
            UpdateDiscipline::Aig,
            UpdateDiscipline::NoLock,
        ]
        .map(|discipline| shared(1, discipline)),
    );
    passes
}

/// LR with a ridge term, so the regularizer the terms are added onto is not
/// zero.
fn task() -> LogisticRegressionTask {
    LogisticRegressionTask::new(0, 1, DIMENSION).with_l2(0.01)
}

fn config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 9 })
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

fn try_train<T: IgdTask>(
    task: &T,
    pass: Option<ParallelStrategy>,
    config: TrainerConfig,
    data: &dyn TupleScan,
) -> Result<TrainedModel, TrainError> {
    match pass {
        None => Trainer::new(task, config).try_train(data),
        Some(strategy) => ParallelTrainer::new(task, config, strategy)
            .try_train(data)
            .map(|(trained, _)| trained),
    }
}

fn objective<T: IgdTask>(task: &T, model: &[f64], data: &dyn TupleScan) -> f64 {
    Trainer::new(task, config(1)).objective(model, data)
}

/// Claim 1, and each record's timings.
#[test]
fn the_loss_of_every_run_is_the_objective_of_its_model() {
    let task = task();
    for sparse in [false, true] {
        for n in ROW_COUNTS {
            let dir = temp_dir(&format!("every-{sparse}-{n}"));
            for (layout, data) in layouts(n, sparse, &dir) {
                for pass in all_passes() {
                    let label = format!("{layout}, sparse {sparse}, {n} rows, {pass:?}");
                    let trained = try_train(&task, pass, config(EPOCHS), data.as_ref())
                        .unwrap_or_else(|e| panic!("[{label}] {e}"));
                    assert_eq!(trained.epochs(), EPOCHS, "[{label}]");
                    let loss = trained.final_loss().unwrap();
                    let scored = objective(&task, &trained.model, data.as_ref());
                    assert_eq!(
                        loss.to_bits(),
                        scored.to_bits(),
                        "[{label}] {loss} vs {scored}"
                    );
                    for record in trained.history.records() {
                        let parts = record.shuffle_duration
                            + record.gradient_duration
                            + record.loss_duration;
                        assert!(parts <= record.duration, "[{label}] {record:?}");
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Claim 2: the run's losses are the objectives of its epochs' models.
#[test]
fn each_epoch_s_loss_is_the_objective_of_that_epoch_s_model() {
    let task = task();
    for sparse in [false, true] {
        for n in ROW_COUNTS {
            let dir = temp_dir(&format!("epochs-{sparse}-{n}"));
            for (layout, data) in layouts(n, sparse, &dir) {
                for pass in deterministic_passes() {
                    let label = format!("{layout}, sparse {sparse}, {n} rows, {pass:?}");
                    let run = |epochs| try_train(&task, pass, config(epochs), data.as_ref());
                    let losses = run(EPOCHS).unwrap().history.losses();
                    for (epoch, loss) in losses.into_iter().enumerate() {
                        let model = run(epoch + 1).unwrap().model;
                        let scored = objective(&task, &model, data.as_ref());
                        assert_eq!(loss.to_bits(), scored.to_bits(), "[{label}] epoch {epoch}");
                    }
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// LR whose `example_loss` panics from call `after` on, and which declares
/// no examples, so that every row reaches it whatever the layout.
struct PanicsInLoss {
    inner: LogisticRegressionTask,
    calls: AtomicUsize,
    after: usize,
}

impl IgdTask for PanicsInLoss {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, tuple: &Tuple, alpha: f64) {
        self.inner.gradient_step(model, tuple, alpha)
    }
    fn example_loss(&self, model: &[f64], tuple: &Tuple) -> f64 {
        if self.calls.fetch_add(1, Ordering::SeqCst) >= self.after {
            panic!("injected fault in the loss pass");
        }
        self.inner.example_loss(model, tuple)
    }
    fn regularizer(&self, model: &[f64]) -> f64 {
        self.inner.regularizer(model)
    }
    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        self.inner.proximal_step(model, alpha)
    }
    fn proximal_policy(&self) -> bismarck_core::ProximalPolicy {
        self.inner.proximal_policy()
    }
}

/// Claim 3: the second epoch's loss pass panics, and the run reports it as
/// a worker panic at epoch 1 carrying the first epoch's run.
#[test]
fn a_panic_in_the_loss_pass_is_a_worker_panic() {
    const ROWS: usize = 301;
    let dir = temp_dir("panic");
    let nolock = shared(2, UpdateDiscipline::NoLock);
    let pure_uda = Some(ParallelStrategy::PureUda { segments: 2 });
    for (layout, data) in layouts(ROWS, false, &dir).into_iter().take(2) {
        for pass in [None, nolock, pure_uda] {
            let label = format!("{layout}, {pass:?}");
            let task = PanicsInLoss {
                inner: task(),
                calls: AtomicUsize::new(0),
                // The first loss pass reads every row once.
                after: ROWS,
            };
            let err = try_train(&task, pass, config(EPOCHS), data.as_ref())
                .expect_err("the second loss pass panics");
            let TrainError::WorkerPanic {
                epoch,
                failed_workers,
                message,
                last_good,
            } = err
            else {
                panic!("[{label}] expected WorkerPanic, got {err:?}");
            };
            assert_eq!(epoch, 1, "[{label}]");
            assert!(failed_workers >= 1, "[{label}]");
            assert!(message.contains("injected fault"), "[{label}] {message}");
            assert_eq!(last_good.epochs(), 1, "[{label}]");
            let loss = last_good.final_loss().unwrap();
            let scored = objective(&task.inner, &last_good.model, data.as_ref());
            assert_eq!(loss.to_bits(), scored.to_bits(), "[{label}]");
            if pass != nolock {
                let one = try_train(&task.inner, pass, config(1), data.as_ref()).unwrap();
                assert_eq!(last_good.model, one.model, "[{label}]");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
