//! Integration test: the SQL-style front-end round trip — train via
//! `frontend::train`, persist the model as a table, reload it, predict, and verify
//! quality — across the storage, UDA, core and datagen crates.

use bismarck_core::frontend::{
    infer_dimension, linear_task, load_model, persist_model, predict, train, FrontendError,
    TrainSummary,
};
use bismarck_core::metrics::{classification_accuracy, rmse};
use bismarck_core::tasks::{HingeLoss, LinearLoss, LogisticLoss};
use bismarck_core::{ServingTask, StepSizeSchedule, TrainerConfig};
use bismarck_datagen::{
    dense_classification, sparse_classification, DenseClassificationConfig,
    SparseClassificationConfig,
};
use bismarck_storage::{Database, ScanOrder};
use bismarck_uda::ConvergenceTest;

fn fast_config() -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 3 })
        .with_step_size(StepSizeSchedule::Constant(0.3))
        .with_convergence(ConvergenceTest::FixedEpochs(12))
}

/// `SELECT …Train(model, table, 'vec', 'label')` for the loss `L`.
fn train_linear<L: LinearLoss>(
    db: &mut Database,
    model: &str,
    table: &str,
) -> Result<TrainSummary, FrontendError> {
    let task = linear_task::<L>(db, table, "vec", "label")?;
    train(db, model, table, &task, fast_config())
}

fn dense_db(n: usize) -> Database {
    let mut db = Database::new();
    db.register_table(dense_classification(
        "train",
        DenseClassificationConfig {
            examples: n,
            dimension: 12,
            separation: 2.0,
            ..Default::default()
        },
    ))
    .unwrap();
    db
}

#[test]
fn svm_round_trip_reaches_high_accuracy() {
    let mut db = dense_db(1_500);
    let summary = train_linear::<HingeLoss>(&mut db, "svm_model", "train").unwrap();
    assert_eq!(summary.dimension, 12);
    assert!(db.contains("svm_model"));
    assert_eq!(db.table("svm_model").unwrap().len(), 12);

    let preds = predict(&db, "svm_model", "train", "vec", ServingTask::Svm).unwrap();
    let labels: Vec<f64> = db
        .table("train")
        .unwrap()
        .scan()
        .map(|t| t.get_double(2).unwrap())
        .collect();
    assert!(classification_accuracy(&preds, &labels) > 0.9);
}

#[test]
fn logistic_round_trip_on_sparse_data() {
    let mut db = Database::new();
    db.register_table(sparse_classification(
        "papers",
        SparseClassificationConfig {
            examples: 1_200,
            vocabulary: 4_000,
            ..Default::default()
        },
    ))
    .unwrap();
    let summary = train_linear::<LogisticLoss>(&mut db, "lr_model", "papers").unwrap();
    assert!(summary.final_loss.is_finite());
    assert_eq!(
        summary.dimension,
        infer_dimension(db.table("papers").unwrap(), 1)
    );

    let probs = predict(&db, "lr_model", "papers", "vec", ServingTask::Logistic).unwrap();
    assert_eq!(probs.len(), 1_200);
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    let labels: Vec<f64> = db
        .table("papers")
        .unwrap()
        .scan()
        .map(|t| t.get_double(2).unwrap())
        .collect();
    let hard: Vec<f64> = probs
        .iter()
        .map(|&p| if p > 0.5 { 1.0 } else { -1.0 })
        .collect();
    assert!(classification_accuracy(&hard, &labels) > 0.85);
}

#[test]
fn persisted_model_reload_is_exact() {
    let mut db = dense_db(200);
    train_linear::<HingeLoss>(&mut db, "m", "train").unwrap();
    let loaded = load_model(&db, "m").unwrap();
    // Re-persist under a new name and reload — must be identical.
    persist_model(&mut db, "m2", &loaded).unwrap();
    let reloaded = load_model(&db, "m2").unwrap();
    assert_eq!(loaded, reloaded);
    assert!(rmse(&loaded, &reloaded) < 1e-15);
}

#[test]
fn linear_predict_matches_manual_dot_products() {
    let mut db = dense_db(100);
    train_linear::<HingeLoss>(&mut db, "m", "train").unwrap();
    let model = load_model(&db, "m").unwrap();
    let preds = predict(&db, "m", "train", "vec", ServingTask::LeastSquares).unwrap();
    for (tuple, pred) in db.table("train").unwrap().scan().zip(preds.iter()) {
        let manual = tuple.feature_view(1).unwrap().dot(&model);
        assert!((manual - pred).abs() < 1e-12);
    }
}

#[test]
fn training_on_same_data_twice_is_deterministic() {
    let mut db1 = dense_db(400);
    let mut db2 = dense_db(400);
    train_linear::<HingeLoss>(&mut db1, "m", "train").unwrap();
    train_linear::<HingeLoss>(&mut db2, "m", "train").unwrap();
    assert_eq!(
        load_model(&db1, "m").unwrap(),
        load_model(&db2, "m").unwrap()
    );
}
