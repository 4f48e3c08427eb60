//! Quickstart: train an SVM inside the mini-RDBMS exactly the way the paper's
//! end-user does it —
//! `SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label')` — then apply
//! the persisted model to the data and report accuracy.
//!
//! Run with `cargo run --release --example quickstart`.

use bismarck_core::frontend::{linear_task, predict, train};
use bismarck_core::metrics::classification_accuracy;
use bismarck_core::tasks::HingeLoss;
use bismarck_core::{ServingTask, StepSizeSchedule, TrainerConfig};
use bismarck_datagen::{dense_classification, DenseClassificationConfig};
use bismarck_storage::{Database, ScanOrder};
use bismarck_uda::ConvergenceTest;

fn main() {
    // 1. A database with a labeled training table (Forest-like: 54 dense
    //    features, ±1 labels, stored clustered by label as an RDBMS might).
    let mut db = Database::new();
    let table = dense_classification(
        "LabeledPapers",
        DenseClassificationConfig {
            examples: 5_000,
            dimension: 54,
            ..Default::default()
        },
    );
    db.register_table(table).unwrap();

    // 2. Train: the Bismarck IGD-as-UDA architecture with the paper's
    //    recommended shuffle-once policy and 0.1% convergence tolerance.
    let config = TrainerConfig::default()
        .with_scan_order(ScanOrder::ShuffleOnce { seed: 7 })
        .with_step_size(StepSizeSchedule::Diminishing { initial: 0.5 })
        .with_convergence(ConvergenceTest::paper_default(30));
    let task = linear_task::<HingeLoss>(&db, "LabeledPapers", "vec", "label").expect("columns");
    let summary =
        train(&mut db, "myModel", "LabeledPapers", &task, config).expect("training succeeds");
    println!(
        "trained {} model: dimension={}, epochs={}, converged={}, final objective={:.2}",
        summary.task, summary.dimension, summary.epochs, summary.converged, summary.final_loss
    );

    // 3. Predict with the persisted model table and measure training accuracy.
    let predictions =
        predict(&db, "myModel", "LabeledPapers", "vec", ServingTask::Svm).expect("predict");
    let labels: Vec<f64> = db
        .table("LabeledPapers")
        .expect("table exists")
        .scan()
        .map(|t| t.get_double(2).unwrap_or(0.0))
        .collect();
    let accuracy = classification_accuracy(&predictions, &labels);
    println!("training accuracy: {:.1}%", accuracy * 100.0);
    println!(
        "model persisted as table 'myModel' ({} rows)",
        db.table("myModel").unwrap().len()
    );
}
