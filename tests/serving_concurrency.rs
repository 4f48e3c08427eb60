//! Train-and-serve under fire: reader threads hammer a [`ModelHandle`]'s
//! batched predict path while a [`ParallelTrainer`] epoch loop publishes
//! snapshots into the same handle, for every parallelization scheme from
//! Section 3.3 (pure-UDA and all three shared-memory disciplines).
//!
//! The invariant under test is the snapshot publication protocol: readers
//! only ever observe fully-published models. Concretely, from each reader's
//! point of view the snapshot version is monotonically non-decreasing, every
//! served weight vector is entirely finite, and logistic predictions are
//! valid probabilities — no torn, partial, or diverged model is ever visible,
//! no matter how the trainer's workers interleave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    IgdTask, ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainerConfig, UpdateDiscipline,
};
use bismarck_datagen::{
    dense_classification, DenseClassificationConfig, CLASSIFICATION_FEATURES_COL,
    CLASSIFICATION_LABEL_COL,
};
use bismarck_linalg::FeatureVectorRef;
use bismarck_uda::ConvergenceTest;

const DIM: usize = 3;
const EPOCHS: usize = 30;
const READERS: usize = 4;

fn every_strategy() -> Vec<ParallelStrategy> {
    let mut strategies = vec![ParallelStrategy::PureUda { segments: 4 }];
    for discipline in [
        UpdateDiscipline::Lock,
        UpdateDiscipline::Aig,
        UpdateDiscipline::NoLock,
    ] {
        strategies.push(ParallelStrategy::SharedMemory {
            workers: 4,
            discipline,
        });
    }
    strategies.push(ParallelStrategy::Mrs {
        buffer_size: 40,
        seed: 7,
    });
    strategies
}

#[test]
fn readers_only_observe_fully_published_snapshots_under_every_strategy() {
    let table = dense_classification(
        "serve_lr",
        DenseClassificationConfig {
            examples: 400,
            dimension: DIM,
            separation: 3.0,
            clustered_by_label: false,
            seed: 7,
            ..Default::default()
        },
    );
    let task =
        LogisticRegressionTask::new(CLASSIFICATION_FEATURES_COL, CLASSIFICATION_LABEL_COL, DIM);

    for strategy in every_strategy() {
        let label = format!("{} ({} workers)", strategy.label(), strategy.workers());
        let handle = ModelHandle::with_initial(ServingTask::Logistic, task.initial_model())
            .expect("zero model is finite");
        let config = TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(EPOCHS))
            .with_serving(handle.clone());

        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let handle = handle.clone();
                let done = Arc::clone(&done);
                let label = label.clone();
                thread::spawn(move || {
                    // A fixed probe batch, scored over and over while the
                    // trainer races to publish fresher models underneath.
                    let dense = [1.0, -0.5, 0.25];
                    let indices = [0u32, 2];
                    let values = [2.0, -1.0];
                    let batch = [
                        FeatureVectorRef::Dense(&dense),
                        FeatureVectorRef::Sparse {
                            indices: &indices,
                            values: &values,
                        },
                    ];
                    let mut out = Vec::new();
                    let mut last_version = 0u64;
                    let mut observed = 0usize;
                    while !done.load(Ordering::Acquire) {
                        let snapshot = handle.predict_batch(&batch, &mut out);
                        assert!(
                            snapshot.version() >= last_version,
                            "{label} reader {reader}: version went backwards \
                             ({} after {last_version})",
                            snapshot.version()
                        );
                        last_version = snapshot.version();
                        assert!(
                            snapshot.weights().iter().all(|w| w.is_finite()),
                            "{label} reader {reader}: served non-finite weights \
                             at version {last_version}"
                        );
                        assert!(
                            out.len() == batch.len() && out.iter().all(|p| (0.0..=1.0).contains(p)),
                            "{label} reader {reader}: invalid probabilities {out:?} \
                             at version {last_version}"
                        );
                        observed += 1;
                    }
                    (last_version, observed)
                })
            })
            .collect();

        let trainer = ParallelTrainer::new(&task, config, strategy);
        let (trained, _) = trainer.train(&table);
        done.store(true, Ordering::Release);

        for reader in readers {
            let (last_version, observed) = reader.join().expect("reader panicked");
            assert!(observed > 0, "{label}: reader made no observations");
            assert!(
                last_version <= EPOCHS as u64,
                "{label}: reader saw version {last_version} past epoch count"
            );
        }

        // Every healthy epoch published exactly one snapshot, and the final
        // published model is the trained model.
        assert_eq!(trained.epochs(), EPOCHS, "{label}: wrong epoch count");
        let served = handle.snapshot();
        assert_eq!(
            served.version(),
            EPOCHS as u64,
            "{label}: wrong final version"
        );
        assert_eq!(
            served.weights(),
            trained.model.as_slice(),
            "{label}: served model differs from trained model"
        );
    }
}

#[test]
fn sequential_trainer_publishes_through_the_same_handle() {
    let table = dense_classification(
        "serve_seq",
        DenseClassificationConfig {
            examples: 200,
            dimension: DIM,
            separation: 3.0,
            clustered_by_label: false,
            seed: 11,
            ..Default::default()
        },
    );
    let task =
        LogisticRegressionTask::new(CLASSIFICATION_FEATURES_COL, CLASSIFICATION_LABEL_COL, DIM);
    let handle = ModelHandle::new(ServingTask::Logistic, DIM);
    let config = TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.2))
        .with_convergence(ConvergenceTest::FixedEpochs(10))
        .with_serving(handle.clone());

    let trained = bismarck_core::Trainer::new(&task, config).train(&table);
    let served = handle.snapshot();
    assert_eq!(served.version(), 10);
    assert_eq!(served.weights(), trained.model.as_slice());
}

#[test]
fn dimension_mismatch_is_rejected_before_any_epoch_runs() {
    let table = dense_classification(
        "serve_dim",
        DenseClassificationConfig {
            examples: 50,
            dimension: DIM,
            separation: 3.0,
            clustered_by_label: false,
            seed: 13,
            ..Default::default()
        },
    );
    let task =
        LogisticRegressionTask::new(CLASSIFICATION_FEATURES_COL, CLASSIFICATION_LABEL_COL, DIM);
    let wrong = ModelHandle::new(ServingTask::Logistic, DIM + 2);
    let config = TrainerConfig::default()
        .with_convergence(ConvergenceTest::FixedEpochs(5))
        .with_serving(wrong.clone());

    let err = ParallelTrainer::new(&task, config, ParallelStrategy::PureUda { segments: 2 })
        .try_train(&table)
        .expect_err("mismatched handle must be rejected");
    assert!(err.to_string().contains("serving handle"), "{err}");
    assert!(err.last_good().is_none(), "no training work should be lost");
    // The handle never saw a publish: still the zero model at version 0.
    assert_eq!(wrong.snapshot().version(), 0);
}
