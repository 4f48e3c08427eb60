//! Integration tests for the SQL front-end working against generated
//! workloads: the paper's Section 2.1 user experience (train via
//! `SELECT SVMTrain(...)`, model persisted as a table, predict via
//! `SVMPredict(...)`) exercised across the datagen, storage, core and sql
//! crates together.

use bismarck_core::metrics::classification_accuracy;
use bismarck_core::{StepSizeSchedule, TrainerConfig};
use bismarck_datagen::{
    dense_classification, labeled_sequences, ratings_table, sparse_classification,
    DenseClassificationConfig, RatingsConfig, SequenceConfig, SparseClassificationConfig,
};
use bismarck_sql::{SqlError, SqlSession};
use bismarck_storage::Value;
use bismarck_uda::ConvergenceTest;

fn fast_config() -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.2))
        .with_convergence(ConvergenceTest::FixedEpochs(8))
}

#[test]
fn svm_on_generated_dense_data_reaches_high_accuracy_via_sql() {
    let mut session = SqlSession::with_seed(1).with_trainer_config(fast_config());
    session
        .register_table(dense_classification(
            "forest",
            DenseClassificationConfig {
                examples: 2_000,
                dimension: 20,
                ..Default::default()
            },
        ))
        .unwrap();

    let summary = session
        .execute("SELECT SVMTrain('svm_model', 'forest', 'vec', 'label')")
        .expect("training");
    assert_eq!(summary.len(), 1);
    let converged_idx = summary.column_index("converged").unwrap();
    assert!(matches!(
        summary.rows[0][converged_idx],
        Value::Int(0) | Value::Int(1)
    ));

    // The persisted model is queryable and has one row per dimension.
    let n = session.execute("SELECT COUNT(*) FROM svm_model").unwrap();
    assert_eq!(n.single_value(), Some(&Value::Int(20)));

    // Predictions line up with labels on the training data.
    let predictions = session
        .execute("SELECT SVMPredict('svm_model', 'forest', 'vec')")
        .expect("prediction");
    let predicted: Vec<f64> = predictions
        .column_values("prediction")
        .unwrap()
        .iter()
        .map(|v| v.as_double().unwrap())
        .collect();
    let labels: Vec<f64> = session
        .database()
        .table("forest")
        .unwrap()
        .scan()
        .map(|t| t.get_double(2).unwrap())
        .collect();
    assert!(classification_accuracy(&predicted, &labels) > 0.9);
}

#[test]
fn logistic_regression_on_sparse_data_via_sql() {
    let mut session = SqlSession::with_seed(2).with_trainer_config(fast_config());
    session
        .register_table(sparse_classification(
            "dblife",
            SparseClassificationConfig {
                examples: 800,
                vocabulary: 2_000,
                ..Default::default()
            },
        ))
        .unwrap();
    let summary = session
        .execute("SELECT LogisticRegressionTrain('lr_model', 'dblife', 'vec', 'label', 0.2, 10)")
        .expect("training");
    let loss_idx = summary.column_index("final_loss").unwrap();
    let final_loss = summary.rows[0][loss_idx].as_double().unwrap();
    assert!(final_loss.is_finite() && final_loss >= 0.0);

    let probabilities = session
        .execute("SELECT LRPredict('lr_model', 'dblife', 'vec')")
        .expect("prediction");
    assert_eq!(probabilities.len(), 800);
    assert!(probabilities
        .column_values("probability")
        .unwrap()
        .iter()
        .all(|v| (0.0..=1.0).contains(&v.as_double().unwrap())));
}

#[test]
fn lmf_training_via_sql_persists_stacked_factors() {
    let mut session = SqlSession::with_seed(3)
        .with_trainer_config(fast_config().with_step_size(StepSizeSchedule::Constant(0.05)));
    let config = RatingsConfig {
        rows: 30,
        cols: 20,
        ratings: 600,
        true_rank: 3,
        ..Default::default()
    };
    session
        .register_table(ratings_table("movielens", config))
        .unwrap();

    let summary = session
        .execute("SELECT LMFTrain('factors', 'movielens', 'row', 'col', 'rating', 30, 20, 4)")
        .expect("training");
    let dim_idx = summary.column_index("dimension").unwrap();
    assert_eq!(summary.rows[0][dim_idx], Value::Int((30 + 20) * 4));
    let rows = session.execute("SELECT COUNT(*) FROM factors").unwrap();
    assert_eq!(rows.single_value(), Some(&Value::Int((30 + 20) * 4)));
}

#[test]
fn crf_training_and_viterbi_prediction_via_sql() {
    let mut session = SqlSession::with_seed(4)
        .with_trainer_config(fast_config().with_step_size(StepSizeSchedule::Constant(0.3)));
    session
        .register_table(labeled_sequences(
            "conll",
            SequenceConfig {
                sentences: 60,
                ..Default::default()
            },
        ))
        .unwrap();
    let summary = session
        .execute("SELECT CRFTrain('crf_model', 'conll', 'sentence')")
        .expect("training");
    assert_eq!(summary.len(), 1);

    let labelings = session
        .execute("SELECT CRFPredict('crf_model', 'conll', 'sentence')")
        .expect("prediction");
    assert_eq!(labelings.len(), 60);
    // Every labeling is a space-separated list of label ids.
    assert!(labelings.column_values("labels").unwrap().iter().all(|v| {
        v.as_text()
            .map(|s| s.split_whitespace().all(|tok| tok.parse::<usize>().is_ok()))
            .unwrap_or(false)
    }));
}

#[test]
fn relational_queries_over_generated_tables() {
    let mut session = SqlSession::with_seed(5);
    session
        .register_table(dense_classification(
            "forest",
            DenseClassificationConfig {
                examples: 500,
                dimension: 10,
                ..Default::default()
            },
        ))
        .unwrap();

    // Class balance through GROUP BY.
    let by_label = session
        .execute("SELECT label, COUNT(*) AS n FROM forest GROUP BY label ORDER BY label")
        .unwrap();
    assert_eq!(by_label.len(), 2);
    let total: i64 = by_label
        .column_values("n")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .sum();
    assert_eq!(total, 500);

    // ORDER BY RANDOM() LIMIT produces a sample of the requested size with
    // valid ids.
    let sample = session
        .execute("SELECT id FROM forest ORDER BY RANDOM() LIMIT 25")
        .unwrap();
    assert_eq!(sample.len(), 25);
    assert!(sample
        .column_values("id")
        .unwrap()
        .iter()
        .all(|v| (0..500).contains(&v.as_int().unwrap())));

    // The vector helper functions work on stored feature vectors.
    let dims = session
        .execute("SELECT MIN(DIM(vec)) AS lo, MAX(DIM(vec)) AS hi FROM forest")
        .unwrap();
    assert_eq!(dims.rows[0][0], Value::Int(10));
    assert_eq!(dims.rows[0][1], Value::Int(10));
}

#[test]
fn errors_from_each_layer_are_distinguishable() {
    let mut session = SqlSession::new();
    assert!(matches!(
        session.execute("SELEC 1").unwrap_err(),
        SqlError::Parse { .. }
    ));
    assert!(matches!(
        session.execute("SELECT 'oops").unwrap_err(),
        SqlError::Lex { .. }
    ));
    assert!(matches!(
        session.execute("SELECT * FROM nowhere").unwrap_err(),
        SqlError::Storage(_)
    ));
    assert!(matches!(
        session
            .execute("SELECT SVMTrain('m', 'nowhere', 'vec', 'label')")
            .unwrap_err(),
        SqlError::Analytics(_)
    ));
    assert!(matches!(
        session.execute("SELECT 1/0").unwrap_err(),
        SqlError::Evaluation(_)
    ));
}

#[test]
fn a_model_table_with_an_idx_out_of_range_is_an_error_not_a_panic() {
    // A negative idx once wrapped the model's size to 0, and i64::MAX
    // overflows it; 10^12 fits but would ask for terabytes.
    for idx in ["-1", "9223372036854775807", "1000000000000"] {
        let mut session = SqlSession::new();
        for sql in [
            "CREATE TABLE m (idx INT, weight DOUBLE)".to_string(),
            "INSERT INTO m VALUES (0, 0.25)".to_string(),
            format!("INSERT INTO m VALUES ({idx}, 0.5)"),
            "CREATE TABLE d (id INT, vec DENSE_VEC)".to_string(),
            "INSERT INTO d VALUES (1, ARRAY[1.0, 2.0])".to_string(),
        ] {
            session
                .execute(&sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        for sql in [
            "SELECT PREDICT('m', vec) FROM d",
            "SELECT SVMPredict('m', 'd', 'vec')",
        ] {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(sql)))
                    .unwrap_or_else(|_| panic!("[idx {idx}] {sql} panicked"));
            assert!(result.is_err(), "[idx {idx}] {sql} must fail");
            session
                .execute("SELECT COUNT(*) FROM d")
                .unwrap_or_else(|e| {
                    panic!("[idx {idx}] after {sql} the session must still answer: {e}")
                });
        }
    }
}

/// Runs `sql` under `catch_unwind`: it must return an error, not panic, and
/// the session must answer the statement after it.
fn fails_without_panicking(session: &mut SqlSession, sql: &str, next: &str) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(sql)))
        .unwrap_or_else(|_| panic!("{sql} panicked"));
    assert!(result.is_err(), "{sql} must fail, got {result:?}");
    session
        .execute(next)
        .unwrap_or_else(|e| panic!("after {sql} the session must still answer: {e}"));
}

/// A session holding `r (i INT, j INT, v DOUBLE)` with a few ratings.
fn ratings_session() -> SqlSession {
    let mut session = SqlSession::new();
    for sql in [
        "CREATE TABLE r (i INT, j INT, v DOUBLE)",
        "INSERT INTO r VALUES (0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)",
    ] {
        session.execute(sql).unwrap();
    }
    session
}

#[test]
fn lmf_with_rank_zero_is_an_error_not_a_panic() {
    let mut session = ratings_session();
    fails_without_panicking(
        &mut session,
        "SELECT LMFTrain('m', 'r', 'i', 'j', 'v', 2, 2, 0)",
        "SELECT COUNT(*) FROM r",
    );
}

#[test]
fn lmf_whose_model_size_overflows_is_an_error_not_a_panic() {
    // (2^62 + 0) × 4 overflows a usize.
    let mut session = ratings_session();
    fails_without_panicking(
        &mut session,
        "SELECT LMFTrain('m', 'r', 'i', 'j', 'v', 4611686018427387904, 0, 4)",
        "SELECT COUNT(*) FROM r",
    );
}

#[test]
fn lmf_whose_model_cannot_be_allocated_is_an_error_not_a_panic() {
    // 2^61 + 2 components fit a usize, but not 8 bytes each in an
    // allocation.
    let mut session = ratings_session();
    fails_without_panicking(
        &mut session,
        "SELECT LMFTrain('m', 'r', 'i', 'j', 'v', 2305843009213693952, 2, 1)",
        "SELECT COUNT(*) FROM r",
    );
}

#[test]
fn crf_whose_label_alphabet_overflows_the_model_is_an_error_not_a_panic() {
    use bismarck_linalg::SparseVector;
    use bismarck_storage::{Column, DataType, Schema, Table};

    let schema = Schema::new(vec![Column::new("s", DataType::Sequence)]).unwrap();
    let mut seqs = Table::new("seqs", schema);
    let position = (SparseVector::from_pairs(vec![(0, 1.0)]), u32::MAX);
    seqs.insert(vec![Value::Sequence(vec![position])]).unwrap();
    let mut session = SqlSession::new();
    session.register_table(seqs).unwrap();
    fails_without_panicking(
        &mut session,
        "SELECT CRFTrain('m', 'seqs', 's')",
        "SELECT COUNT(*) FROM seqs",
    );
}

#[test]
fn an_infinite_step_size_is_an_error_and_persists_no_model() {
    // `+inf` passed the old `step > 0` test: the run diverged to NaN and
    // its NaN weights were persisted as `m`.
    for step in ["1e999", "POWER(10.0, 400.0)", "EXP(1000.0)"] {
        let mut session = SqlSession::new();
        for sql in [
            "CREATE TABLE d (vec DENSE_VEC, label DOUBLE)",
            "INSERT INTO d VALUES (ARRAY[1.0, 0.5], 1.0), (ARRAY[-1.0, 0.2], -1.0), \
             (ARRAY[0.8, -0.4], 1.0)",
        ] {
            session.execute(sql).unwrap();
        }
        let sql = format!("SELECT LRTrain('m', 'd', 'vec', 'label', {step}, 3)");
        let err = session.execute(&sql).unwrap_err();
        assert!(
            matches!(&err, SqlError::Analytics(m) if m.contains("positive finite number")),
            "{sql}: {err:?}"
        );
        assert!(!session.database().contains("m"), "{sql} persisted a model");
        session
            .execute("SELECT COUNT(*) FROM d")
            .unwrap_or_else(|e| panic!("after {sql} the session must still answer: {e}"));
    }
}

/// A session holding `d (vec DENSE_VEC, label DOUBLE)` with three rows.
fn three_row_session(session: &mut SqlSession) {
    for sql in [
        "CREATE TABLE d (vec DENSE_VEC, label DOUBLE)",
        "INSERT INTO d VALUES (ARRAY[1.0, 0.5], 1.0), (ARRAY[-1.0, 0.2], -1.0), \
         (ARRAY[0.8, -0.4], 1.0)",
    ] {
        session.execute(sql).unwrap();
    }
}

/// The bits of every weight of the model table `m`, in `idx` order.
fn model_bits(session: &mut SqlSession, m: &str) -> Vec<u64> {
    let result = session
        .execute(&format!("SELECT weight FROM {m} ORDER BY idx"))
        .unwrap();
    result
        .rows
        .iter()
        .map(|row| row[0].as_double().unwrap().to_bits())
        .collect()
}

#[test]
fn a_training_statement_replaces_only_a_model_table() {
    let dir = std::env::temp_dir().join(format!(
        "bismarck-sql-e2e-{}-model-replaces-model",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut session = SqlSession::open(&dir).unwrap();
        three_row_session(&mut session);
        session
            .execute("CREATE TABLE c STORAGE = COLUMNAR AS SELECT * FROM d")
            .unwrap();
        let rows = session.execute("SELECT * FROM d").unwrap();
        let columns = session.execute("SELECT * FROM c").unwrap();
        // A data table of either layout is never a training target, its
        // own source included.
        for sql in [
            "SELECT LRTrain('d', 'd', 'vec', 'label', 0.1, 2)",
            "SELECT SVMTrain('c', 'd', 'vec', 'label', 0.1, 2)",
            "SELECT LRTrain('d', 'c', 'vec', 'label', 0.1, 2)",
        ] {
            let err = session.execute(sql).unwrap_err();
            assert!(
                matches!(&err, SqlError::Analytics(m) if m.contains("not a model table")),
                "{sql}: {err:?}"
            );
        }
        assert_eq!(session.execute("SELECT * FROM d").unwrap(), rows);
        assert_eq!(session.execute("SELECT * FROM c").unwrap(), columns);
        // A model is replaced by the next model of that name.
        session
            .execute("SELECT LRTrain('m', 'd', 'vec', 'label', 0.1, 2)")
            .unwrap();
        session
            .execute("SELECT SVMTrain('m', 'c', 'vec', 'label', 0.2, 3)")
            .unwrap();
    }
    let mut session = SqlSession::open(&dir).unwrap();
    let before = model_bits(&mut session, "m");
    session
        .execute("SELECT LRTrain('m', 'd', 'vec', 'label', 0.1, 2)")
        .unwrap();
    assert_ne!(model_bits(&mut session, "m"), before, "m was retrained");
    assert!(session
        .execute("SELECT LRTrain('d', 'd', 'vec', 'label')")
        .is_err());
    assert_eq!(
        session.execute("SELECT COUNT(*) FROM d").unwrap().rows[0][0],
        Value::Int(3)
    );
    drop(session);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_persists_a_served_model_only_over_a_model_table() {
    use bismarck_core::governor::Governor;
    use bismarck_core::serving::{ModelHandle, ServingTask};
    use std::time::{Duration, Instant};

    let mut session = SqlSession::new();
    three_row_session(&mut session);
    let rows = session.execute("SELECT * FROM d").unwrap();
    let handle = ModelHandle::new(ServingTask::Logistic, 2);
    handle.publish(&[0.5, -0.5]).unwrap();
    session.register_model_handle("d", handle);
    let err = session
        .shutdown(&Governor::new(1), Instant::now() + Duration::from_secs(5))
        .unwrap_err();
    assert!(matches!(&err, SqlError::Analytics(m) if m.contains("not a model table")));
    assert_eq!(session.execute("SELECT * FROM d").unwrap(), rows);
}

#[test]
fn a_diverged_run_persists_no_model() {
    let mut session = SqlSession::new();
    three_row_session(&mut session);
    session
        .execute("SELECT LRTrain('m2', 'd', 'vec', 'label', 0.1, 3)")
        .unwrap();
    let before = model_bits(&mut session, "m2");
    // The last loss of this run is NaN: a check on the weights alone would
    // not do.
    let err = session
        .execute("SELECT LRTrain('m2', 'd', 'vec', 'label', 1e155, 3)")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::Analytics(m) if m.contains("diverged")),
        "{err:?}"
    );
    assert_eq!(model_bits(&mut session, "m2"), before);
    let err = session
        .execute("SELECT LRTrain('m3', 'd', 'vec', 'label', 1e155, 3)")
        .unwrap_err();
    assert!(matches!(err, SqlError::Analytics(_)), "{err:?}");
    assert!(!session.database().contains("m3"));
}

#[test]
fn predict_and_loss_apply_one_width_rule() {
    let mut session = SqlSession::new();
    three_row_session(&mut session);
    for sql in [
        "SELECT LRTrain('m', 'd', 'vec', 'label', 0.1, 2)",
        "CREATE TABLE wide (vec DENSE_VEC, label DOUBLE)",
        "INSERT INTO wide VALUES (ARRAY[1.0, 0.5, 2.0], 1.0)",
        "CREATE TABLE sparse (vec SPARSE_VEC, label DOUBLE)",
        "INSERT INTO sparse VALUES ({0: 1.0, 7: 2.0}, 1.0)",
    ] {
        session.execute(sql).unwrap();
    }
    for table in ["wide", "sparse"] {
        for call in [
            "LRLoss('m', '{t}', 'vec', 'label')",
            "SVMLoss('m', '{t}', 'vec', 'label')",
            "LRPredict('m', '{t}', 'vec')",
            "SVMPredict('m', '{t}', 'vec')",
            "LinearPredict('m', '{t}', 'vec')",
        ] {
            let sql = format!("SELECT {}", call.replace("{t}", table));
            let err = session.execute(&sql).unwrap_err();
            assert!(
                matches!(&err, SqlError::Analytics(m) if m.contains("has dimension 2, expected")),
                "{sql}: {err:?}"
            );
        }
    }
    // A model at least as wide as the table scores it.
    for sql in [
        "SELECT LRLoss('m', 'd', 'vec', 'label')",
        "SELECT LRPredict('m', 'd', 'vec')",
        "SELECT LinearPredict('m', 'd', 'vec')",
    ] {
        session.execute(sql).unwrap();
    }
}

/// Caps this process's address space at `bytes`, so an allocation past it
/// fails whatever memory the machine has.
#[cfg(target_os = "linux")]
fn cap_address_space(bytes: u64) {
    #[repr(C)]
    struct RLimit {
        current: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    let limit = RLimit {
        current: bytes,
        max: bytes,
    };
    // SAFETY: `limit` is a valid `struct rlimit` for the call's duration.
    assert_eq!(unsafe { setrlimit(RLIMIT_AS, &limit) }, 0);
}

#[cfg(target_os = "linux")]
#[test]
fn a_model_too_large_to_allocate_is_an_error_not_an_abort() {
    // The sparse index u32::MAX makes a 2^32-weight LR model: 32 GiB. The
    // statement runs in a child process whose address space is capped at
    // 4 GiB, so the allocation fails on any machine; an abort would kill
    // only the child.
    const CHILD: &str = "BISMARCK_TOO_LARGE_MODEL_CHILD";
    const NAME: &str = "a_model_too_large_to_allocate_is_an_error_not_an_abort";
    if std::env::var_os(CHILD).is_none() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME, "--test-threads", "1"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(
            child.status.success(),
            "the child did not exit normally: {}\n{}{}",
            child.status,
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    cap_address_space(4 << 30);
    let mut session = SqlSession::new();
    for sql in [
        "CREATE TABLE s (vec SPARSE_VEC, label DOUBLE)",
        "INSERT INTO s VALUES ({4294967295: 1.0}, 1.0)",
    ] {
        session.execute(sql).unwrap();
    }
    let err = session
        .execute("SELECT LRTrain('m', 's', 'vec', 'label')")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::Analytics(m) if m.contains("LR model is too large to allocate")),
        "{err:?}"
    );
    assert!(!session.database().contains("m"));
    assert_eq!(
        session.execute("SELECT COUNT(*) FROM s").unwrap().rows[0][0],
        Value::Int(1)
    );
}
