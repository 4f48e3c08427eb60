//! Integration tests for the performance-critical behaviours the paper
//! studies: data ordering (Section 3.2), parallel execution (Section 3.3) and
//! multiplexed reservoir sampling (Section 3.4), exercised across crates on
//! generated workloads.

use bismarck_core::mrs::subsampling_train;
use bismarck_core::tasks::{LogisticRegressionTask, SvmTask};
use bismarck_core::{
    IgdTask, ModelStore, ParallelStrategy, ParallelTrainer, StepSizeSchedule, Trainer,
    TrainerConfig, UpdateDiscipline,
};
use bismarck_datagen::{sparse_classification, SparseClassificationConfig};
use bismarck_storage::{RowRef, ScanOrder, Table};
use bismarck_uda::ConvergenceTest;
use std::sync::atomic::{AtomicUsize, Ordering};

fn clustered_sparse(n: usize) -> Table {
    sparse_classification(
        "dblife",
        SparseClassificationConfig {
            examples: n,
            vocabulary: 3_000,
            clustered_by_label: true,
            ..Default::default()
        },
    )
}

fn config(epochs: usize, order: ScanOrder) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(order)
        .with_step_size(StepSizeSchedule::Constant(0.2))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

#[test]
fn shuffle_once_matches_shuffle_always_quality_at_equal_epochs() {
    let table = clustered_sparse(1_500);
    let dim = bismarck_core::frontend::infer_dimension(&table, 1);
    let task = LogisticRegressionTask::new(1, 2, dim);
    let epochs = 8;
    let always =
        Trainer::new(&task, config(epochs, ScanOrder::ShuffleAlways { seed: 1 })).train(&table);
    let once =
        Trainer::new(&task, config(epochs, ScanOrder::ShuffleOnce { seed: 1 })).train(&table);
    let clustered = Trainer::new(&task, config(epochs, ScanOrder::Clustered)).train(&table);

    let (a, o, c) = (
        always.final_loss().unwrap(),
        once.final_loss().unwrap(),
        clustered.final_loss().unwrap(),
    );
    // ShuffleOnce is within 10% of ShuffleAlways and both beat (or match)
    // the clustered order.
    assert!(o <= a * 1.10, "once {o} vs always {a}");
    assert!(a <= c * 1.05, "always {a} vs clustered {c}");
    assert!(o <= c * 1.05, "once {o} vs clustered {c}");
    // Clustered never pays a shuffle; ShuffleAlways pays one per epoch.
    assert_eq!(clustered.history.total_shuffle_duration().as_nanos(), 0);
    assert!(always.history.total_shuffle_duration() >= once.history.total_shuffle_duration());
}

#[test]
fn all_parallel_schemes_agree_with_sequential_on_final_quality() {
    let table = clustered_sparse(1_000);
    let dim = bismarck_core::frontend::infer_dimension(&table, 1);
    let task = SvmTask::new(1, 2, dim);
    let epochs = 6;
    let cfg = config(epochs, ScanOrder::ShuffleOnce { seed: 4 });
    let trainer = Trainer::new(&task, cfg.clone());
    let initial = trainer.objective(&task.initial_model(), &table);
    let sequential = trainer.train(&table).final_loss().unwrap();

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
    ] {
        let (trained, stats) = ParallelTrainer::new(&task, cfg.clone(), strategy).train(&table);
        let loss = trained.final_loss().unwrap();
        // Every scheme must make substantial progress from the zero model
        // (model averaging is allowed to lag, exactly as in Figure 9(A)).
        assert!(
            loss <= initial * 0.05,
            "{} finished at {loss}, initial {initial}, sequential {sequential}",
            strategy.label()
        );
        assert_eq!(stats.len(), epochs);
        // The shared-memory disciplines should track sequential quality closely.
        if matches!(strategy, ParallelStrategy::SharedMemory { .. }) {
            assert!(
                loss <= sequential.max(initial * 0.005) * 1.5 + 1e-6,
                "{} at {loss} vs sequential {sequential}",
                strategy.label()
            );
        }
    }
}

/// LR that counts its gradient steps, across epochs and workers.
struct CountingLr {
    inner: LogisticRegressionTask,
    steps: AtomicUsize,
}

impl IgdTask for CountingLr {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient_step(model, row, alpha);
    }
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        self.inner.example_loss(model, row)
    }
    fn regularizer(&self, model: &[f64]) -> f64 {
        self.inner.regularizer(model)
    }
}

#[test]
fn mrs_beats_plain_subsampling_on_clustered_data() {
    let table = clustered_sparse(2_000);
    let dim = bismarck_core::frontend::infer_dimension(&table, 1);
    let task = CountingLr {
        inner: LogisticRegressionTask::new(1, 2, dim),
        steps: AtomicUsize::new(0),
    };
    let buffer = table.len() / 10;
    let epochs = 6;

    let strategy = ParallelStrategy::Mrs {
        buffer_size: buffer,
        seed: 9,
    };
    let trainer = ParallelTrainer::new(&task, config(epochs, ScanOrder::Clustered), strategy);
    let (mrs, _) = trainer.train(&table);
    // The I/O Worker steps on the rows its reservoir drops in every pass;
    // the Memory Worker sweeps the buffer at least once in every pass but
    // the first.
    let steps = task.steps.load(Ordering::Relaxed);
    assert!(
        steps >= epochs * (table.len() - buffer) + (epochs - 1) * buffer,
        "{steps} steps"
    );
    // The history reports the loss of the model that is handed back.
    assert_eq!(
        Trainer::new(&task, config(epochs, ScanOrder::Clustered))
            .objective(&mrs.model, &table)
            .to_bits(),
        mrs.final_loss().unwrap().to_bits()
    );
    let sub = subsampling_train(
        &task,
        &table,
        buffer,
        StepSizeSchedule::Constant(0.2),
        ConvergenceTest::FixedEpochs(epochs),
        9,
    )
    .unwrap();

    // The full objective over all data: MRS sees every tuple, subsampling
    // only the buffer, so MRS should be at least as good (Figure 10(A)).
    assert!(
        mrs.final_loss().unwrap() <= sub.final_loss().unwrap() * 1.05,
        "mrs {} vs subsampling {}",
        mrs.final_loss().unwrap(),
        sub.final_loss().unwrap()
    );
}

#[test]
fn pure_uda_convergence_is_no_better_than_nolock_shared_memory() {
    // Figure 9(A): model averaging converges more slowly than shared-memory
    // updates at the same epoch budget.
    let table = clustered_sparse(1_200);
    let dim = bismarck_core::frontend::infer_dimension(&table, 1);
    let task = LogisticRegressionTask::new(1, 2, dim);
    let cfg = config(4, ScanOrder::ShuffleOnce { seed: 2 });
    let (pure, _) = ParallelTrainer::new(
        &task,
        cfg.clone(),
        ParallelStrategy::PureUda { segments: 8 },
    )
    .train(&table);
    let (nolock, _) = ParallelTrainer::new(
        &task,
        cfg,
        ParallelStrategy::SharedMemory {
            workers: 8,
            discipline: UpdateDiscipline::NoLock,
        },
    )
    .train(&table);
    assert!(
        nolock.final_loss().unwrap() <= pure.final_loss().unwrap() * 1.05,
        "NoLock {} vs PureUDA {}",
        nolock.final_loss().unwrap(),
        pure.final_loss().unwrap()
    );
}
