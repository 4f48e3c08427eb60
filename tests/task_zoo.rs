//! Integration test: every task of Figure 1(B) trains end-to-end through the
//! same architecture — generated data goes into a storage table, the trainer
//! runs IGD as a UDA over it, and the objective drops.

use bismarck_core::frontend;
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{
    CrfTask, KalmanTask, LeastSquaresTask, LinearLoss, LinearTask, LmfTask, LogisticRegressionTask,
    PortfolioTask, SvmTask,
};
use bismarck_core::{ModelStore, ServingTask, StepSizeSchedule, Trainer, TrainerConfig};
use bismarck_datagen::{
    dense_classification, labeled_sequences, ratings_table, returns_table, sparse_classification,
    timeseries_table, DenseClassificationConfig, RatingsConfig, ReturnsConfig, SequenceConfig,
    SparseClassificationConfig, TimeSeriesConfig,
};
use bismarck_linalg::FeatureVectorRef;
use bismarck_sql::SqlSession;
use bismarck_storage::{Column, ColumnarTable, DataType, ScanOrder, Schema, Table, Value};
use bismarck_uda::ConvergenceTest;

fn config(epochs: usize, step: StepSizeSchedule) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 11 })
        .with_step_size(step)
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

/// Train a task and assert the objective improved by at least `factor`.
fn assert_improves<T: IgdTask>(task: &T, table: &Table, cfg: TrainerConfig, factor: f64) {
    let trainer = Trainer::new(task, cfg);
    let initial = trainer.objective(&task.initial_model(), table);
    let trained = trainer.train(table);
    let final_loss = trained.final_loss().expect("at least one epoch ran");
    assert!(
        final_loss < initial * factor,
        "{}: final {final_loss} vs initial {initial} (factor {factor})",
        task.name()
    );
}

#[test]
fn logistic_regression_on_dense_data() {
    let table = dense_classification(
        "forest",
        DenseClassificationConfig {
            examples: 1_000,
            dimension: 20,
            ..Default::default()
        },
    );
    let task = LogisticRegressionTask::new(1, 2, 20);
    assert_improves(
        &task,
        &table,
        config(10, StepSizeSchedule::Constant(0.3)),
        0.6,
    );
}

#[test]
fn svm_on_sparse_data() {
    let table = sparse_classification(
        "dblife",
        SparseClassificationConfig {
            examples: 800,
            vocabulary: 3_000,
            ..Default::default()
        },
    );
    let dim = bismarck_core::frontend::infer_dimension(&table, 1);
    let task = SvmTask::new(1, 2, dim);
    assert_improves(
        &task,
        &table,
        config(10, StepSizeSchedule::Constant(0.2)),
        0.6,
    );
}

#[test]
fn least_squares_regression() {
    let table = dense_classification(
        "reg",
        DenseClassificationConfig {
            examples: 500,
            dimension: 10,
            separation: 2.0,
            ..Default::default()
        },
    );
    // Treat the ±1 label as a regression target.
    let task = LeastSquaresTask::new(1, 2, 10);
    assert_improves(
        &task,
        &table,
        config(15, StepSizeSchedule::Constant(0.05)),
        0.7,
    );
}

#[test]
fn low_rank_matrix_factorization() {
    let table = ratings_table(
        "ml",
        RatingsConfig {
            rows: 80,
            cols: 60,
            ratings: 4_000,
            true_rank: 4,
            noise: 0.05,
            seed: 2,
        },
    );
    let task = LmfTask::new(0, 1, 2, 80, 60, 6).with_regularization(0.001);
    assert_improves(
        &task,
        &table,
        config(25, StepSizeSchedule::Constant(0.03)),
        0.3,
    );
}

#[test]
fn conditional_random_field_labeling() {
    let table = labeled_sequences(
        "conll",
        SequenceConfig {
            sentences: 120,
            num_features: 400,
            num_labels: 4,
            seed: 5,
            ..Default::default()
        },
    );
    let task = CrfTask::new(0, 400, 4);
    assert_improves(
        &task,
        &table,
        config(8, StepSizeSchedule::Constant(0.15)),
        0.7,
    );
}

#[test]
fn kalman_smoothing_of_time_series() {
    let table = timeseries_table(
        "ts",
        TimeSeriesConfig {
            horizon: 100,
            state_dim: 2,
            amplitude: 1.5,
            noise: 0.2,
            seed: 6,
        },
    );
    let task = KalmanTask::new(0, 1, 100, 2, 1.0);
    assert_improves(
        &task,
        &table,
        config(40, StepSizeSchedule::Constant(0.05)),
        0.3,
    );
}

#[test]
fn portfolio_optimization_respects_simplex() {
    let rc = ReturnsConfig::default();
    let table = returns_table("returns", &rc);
    let task = PortfolioTask::new(
        0,
        rc.mean_returns.clone(),
        rc.mean_returns.clone(),
        5.0,
        table.len(),
    );
    let trainer = Trainer::new(
        &task,
        config(20, StepSizeSchedule::Diminishing { initial: 0.5 }),
    );
    let trained = trainer.train(&table);
    let sum: f64 = trained.model.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "allocation must stay on the simplex, sum {sum}"
    );
    assert!(trained.model.iter().all(|&w| w >= -1e-9));
    // The optimizer should also have improved on the uniform allocation.
    let uniform_obj = trainer.objective(&task.initial_model(), &table);
    assert!(trained.final_loss().unwrap() <= uniform_obj + 1e-9);
}

#[test]
fn developer_effort_is_small_across_tasks() {
    // A smoke test of the paper's "few lines per task" claim in API terms:
    // every task is driven through the identical Trainer interface with no
    // task-specific code beyond construction.
    let table = dense_classification(
        "forest",
        DenseClassificationConfig {
            examples: 300,
            dimension: 8,
            ..Default::default()
        },
    );
    let lr = LogisticRegressionTask::new(1, 2, 8);
    let svm = SvmTask::new(1, 2, 8);
    let ls = LeastSquaresTask::new(1, 2, 8);
    let cfg = config(3, StepSizeSchedule::Constant(0.1));
    for trained in [
        Trainer::new(&lr, cfg.clone()).train(&table),
        Trainer::new(&svm, cfg.clone()).train(&table),
        Trainer::new(&ls, cfg).train(&table),
    ] {
        assert_eq!(trained.epochs(), 3);
        assert!(trained.final_loss().unwrap().is_finite());
        assert_eq!(trained.model.len(), 8);
    }
}

/// A fourth linear technique, written outside the crate: the squared hinge
/// `max(0, 1 − y·wᵀx)²`. Its name, transition and loss are all it takes.
struct SquaredHingeLoss;

impl LinearLoss for SquaredHingeLoss {
    const NAME: &'static str = "SQH";
    type L1 = f64;

    fn step(model: &mut dyn ModelStore, x: FeatureVectorRef<'_>, y: f64, alpha: f64) {
        let m = 1.0 - y * model.dot_view(x);
        if m > 0.0 {
            model.axpy_view(x, 2.0 * alpha * y * m);
        }
    }

    fn loss(model: &[f64], x: FeatureVectorRef<'_>, y: f64) -> f64 {
        (1.0 - y * x.dot(model)).max(0.0).powi(2)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_new_linear_technique_is_one_loss_impl() {
    // Separable: |x0| ≥ 0.2 and its sign is the label. One row has no
    // example (NULL features).
    let schema = Schema::new(vec![
        Column::nullable("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();
    let mut rows = Table::new("separable", schema);
    for i in 0..300 {
        let (a, b) = ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos());
        let y = if a >= 0.0 { 1.0 } else { -1.0 };
        let x = vec![a + 0.2 * y, b];
        rows.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
    }
    rows.insert(vec![Value::Null, Value::Double(1.0)]).unwrap();
    let columns = ColumnarTable::from_table(&rows).unwrap();

    // `LinearTask`'s block methods serve it as is: over the columnar table
    // it steps on the examples the blocks lend.
    let task = LinearTask::<SquaredHingeLoss>::new(0, 1, 2).with_l1(1e-3);
    let cfg = TrainerConfig::default()
        .with_scan_order(ScanOrder::Clustered)
        .with_step_size(StepSizeSchedule::Constant(0.05))
        .with_convergence(ConvergenceTest::FixedEpochs(10));
    let trainer = Trainer::new(&task, cfg.clone());
    let on_rows = trainer.train(&rows);
    let on_columns = trainer.train(&columns);
    assert_eq!(on_rows.task_name, "SQH");
    assert_eq!(bits(&on_rows.model), bits(&on_columns.model));
    assert_eq!(
        bits(&on_rows.history.losses()),
        bits(&on_columns.history.losses())
    );

    let zero = trainer.objective(&task.initial_model(), &rows);
    let trained = on_rows.final_loss().unwrap();
    assert!(
        trained < 0.1 * zero,
        "trained {trained} vs zero model {zero}"
    );

    // The same technique from a SQL session's catalog, through the generic
    // front-end calls: trained and persisted as `sqh`, evaluated, and scored
    // exactly as `PREDICT` scores it.
    let mut session = SqlSession::new();
    session.register_table(rows).unwrap();
    let db = session.database_mut();
    let task = frontend::linear_task::<SquaredHingeLoss>(db, "separable", "vec", "label").unwrap();
    let summary = frontend::train(db, "sqh", "separable", &task, cfg).unwrap();
    assert_eq!(summary.task, "SQH");
    let loss = frontend::loss(db, "sqh", "separable", &task).unwrap();
    assert_eq!(loss.to_bits(), summary.final_loss.to_bits());
    let scores = frontend::predict(db, "sqh", "separable", "vec", ServingTask::LeastSquares);
    let scores = scores.unwrap();
    let served = session
        .execute("SELECT PREDICT('sqh', vec) FROM separable WHERE vec IS NOT NULL")
        .unwrap();
    // The last row's features are NULL: `PREDICT` does not score it, and
    // `predict` gives it the link of a zero score.
    let (null, scores) = scores.split_last().unwrap();
    assert_eq!(*null, 0.0);
    assert_eq!(served.rows.len(), scores.len());
    for (row, score) in served.rows.iter().zip(scores) {
        assert_eq!(row[0].as_double().unwrap().to_bits(), score.to_bits());
    }
}
