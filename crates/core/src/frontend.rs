//! SQL-style front-end functions.
//!
//! Section 2.1: the end-user trains a model with a query like
//! `SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label')` and the
//! learned coefficients are "persisted as a user table 'myModel'". This
//! module is the Rust side of those statements, one path for every
//! technique: [`train`] runs a task over a stored table and persists the
//! model, [`loss`] evaluates a persisted model's objective and [`predict`]
//! scores a table with a persisted linear model. What differs per technique
//! is only how its task is built from the statement's arguments:
//! [`linear_task`], [`lmf_task`] and [`crf_task`] resolve column names
//! against the catalog and take the model's shape from the table (a linear
//! model is as wide as the widest vector in its feature column, kept as
//! table metadata — no scan). Every scan here returns the storage error of a
//! block it cannot read, a torn segment of a paged table, as
//! [`FrontendError::Storage`]; a training run reports it as
//! [`TrainError::Storage`], which maps to the same.

use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{
    Column, DataType, Database, Schema, StorageError, StoredTable, Table, TupleScan, Value,
};
use bismarck_uda::TrainingHistory;

use crate::error::TrainError;
use crate::serving::{ModelSnapshot, ServingTask};
use crate::task::IgdTask;
use crate::tasks::{CrfTask, LinearLoss, LinearTask, LmfTask};
use crate::trainer::{objective, Trainer, TrainerConfig};

/// Errors surfaced by the front-end functions.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// A catalog or schema problem (missing table/column, bad types, ...),
    /// or a block of a table that could not be read.
    Storage(StorageError),
    /// The training table is empty or otherwise unusable.
    InvalidInput(String),
    /// The training run itself failed (worker panic, divergence, checkpoint
    /// I/O); carries the rendered [`TrainError`] message. A run that could
    /// not read its table is [`FrontendError::Storage`] instead.
    Training(String),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Storage(e) => write!(f, "storage error: {e}"),
            FrontendError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            FrontendError::Training(msg) => write!(f, "training failed: {msg}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<StorageError> for FrontendError {
    fn from(e: StorageError) -> Self {
        FrontendError::Storage(e)
    }
}

impl From<TrainError> for FrontendError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Storage { error, .. } => FrontendError::Storage(error),
            e => FrontendError::Training(e.to_string()),
        }
    }
}

/// Summary returned by [`train`].
#[derive(Debug, Clone)]
pub struct TrainSummary {
    /// Task that was trained (`"LR"`, `"SVM"`, `"LMF"`, ...).
    pub task: &'static str,
    /// Name of the table the model was persisted to.
    pub model_table: String,
    /// Model dimension.
    pub dimension: usize,
    /// Final objective value.
    pub final_loss: f64,
    /// Number of epochs run.
    pub epochs: usize,
    /// Whether the convergence criterion (not just the epoch cap) fired.
    pub converged: bool,
    /// Per-epoch history for diagnostics.
    pub history: TrainingHistory,
}

/// The feature dimension of a feature-vector column: the largest vector in
/// it (sparse rows count `max index + 1`), which every layout keeps as table
/// metadata ([`TupleScan::vector_width`]) — no row is read.
pub fn infer_dimension<S: TupleScan + ?Sized>(source: &S, features_col: usize) -> usize {
    source.vector_width(features_col)
}

/// The columns of a model table: one `(idx, weight)` row per weight.
const MODEL_COLUMNS: [(&str, DataType); 2] = [("idx", DataType::Int), ("weight", DataType::Double)];

/// Errors unless `model_name` is free or names a model table: a model
/// replaces only a model, never a data table (its own source included).
fn check_model_name(db: &Database, model_name: &str) -> Result<(), FrontendError> {
    let Ok(existing) = db.stored(model_name) else {
        return Ok(());
    };
    let columns = existing.schema().columns().iter();
    if columns
        .map(|c| (c.name.as_str(), c.dtype))
        .eq(MODEL_COLUMNS)
    {
        return Ok(());
    }
    Err(FrontendError::InvalidInput(format!(
        "table '{model_name}' is not a model table (idx INT, weight DOUBLE); \
         a model replaces only a model"
    )))
}

/// Persist a flat model as a `(idx INT, weight DOUBLE)` table named
/// `model_name`, replacing an existing table of that name only if it is a
/// model table too.
pub fn persist_model(
    db: &mut Database,
    model_name: &str,
    model: &[f64],
) -> Result<(), FrontendError> {
    check_model_name(db, model_name)?;
    let columns = MODEL_COLUMNS.map(|(name, dtype)| Column::new(name, dtype));
    let mut table = Table::new(model_name, Schema::new(columns.to_vec())?);
    for (i, &w) in model.iter().enumerate() {
        table.insert(vec![Value::Int(i as i64), Value::Double(w)])?;
    }
    db.register_table(table)?;
    Ok(())
}

/// Load a model previously persisted with [`persist_model`]. A model table
/// holds one row per weight, so every `idx` must lie in `0..rows`: the model
/// is never sized past the table that stores it.
pub fn load_model(db: &Database, model_name: &str) -> Result<Vec<f64>, FrontendError> {
    let table = db.stored(model_name)?;
    let idx_col = table.column_index("idx")?;
    let weight_col = table.column_index("weight")?;
    let rows = table.len();
    let mut pairs: Vec<(usize, f64)> = Vec::with_capacity(rows);
    let mut malformed = None;
    table.scan_blocks(0, usize::MAX, &mut |block| {
        block.rows().all(|row| {
            match (row.get_int(idx_col), row.get_double(weight_col)) {
                (Some(idx), Some(weight)) => match usize::try_from(idx) {
                    Ok(i) if i < rows => pairs.push((i, weight)),
                    _ => {
                        malformed = Some(format!(
                            "model idx {idx} is outside 0..{rows}, the rows of the model table"
                        ))
                    }
                },
                (None, _) => malformed = Some("model idx is not an integer".into()),
                (_, None) => malformed = Some("model weight is not a double".into()),
            }
            malformed.is_none()
        })
    })?;
    if let Some(msg) = malformed {
        return Err(FrontendError::InvalidInput(msg));
    }
    let dim = pairs.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
    let mut model = vec![0.0; dim];
    for (i, w) in pairs {
        model[i] = w;
    }
    Ok(model)
}

/// The stored table named `table_name`, which must hold at least one row.
fn training_table<'a>(
    db: &'a Database,
    table_name: &str,
) -> Result<&'a StoredTable, FrontendError> {
    let table = db.stored(table_name)?;
    if table.is_empty() {
        return Err(FrontendError::InvalidInput(format!(
            "training table '{table_name}' is empty"
        )));
    }
    Ok(table)
}

/// Checks, before any training, that a model of `dimension` components —
/// `None` when computing it overflowed — can be held: the model is reserved
/// fallibly, so a size the allocator refuses is an error, not an abort.
/// `shape` names the model in the error.
fn reserve_model(dimension: Option<usize>, shape: &str) -> Result<(), FrontendError> {
    let too_large = || FrontendError::InvalidInput(format!("{shape} is too large to allocate"));
    let dimension = dimension.ok_or_else(too_large)?;
    Vec::<f64>::new()
        .try_reserve_exact(dimension)
        .map_err(|_| too_large())
}

/// `SELECT …Train(model, table, …)`: train `task` over the stored table
/// `table_name` (whatever its layout), persist the model as `model_name`,
/// and summarize the run.
///
/// Nothing is trained unless `model_name` is free or a model table and the
/// model can be allocated; nothing is persisted when the run ends with a
/// non-finite loss or weight, so an earlier model of that name stays.
pub fn train<T: IgdTask>(
    db: &mut Database,
    model_name: &str,
    table_name: &str,
    task: &T,
    config: TrainerConfig,
) -> Result<TrainSummary, FrontendError> {
    check_model_name(db, model_name)?;
    reserve_model(Some(task.dimension()), &format!("{} model", task.name()))?;
    let trained = Trainer::new(task, config).try_train(db.stored(table_name)?)?;
    let final_loss = trained.final_loss();
    if final_loss.is_some_and(|loss| !loss.is_finite())
        || !trained.model.iter().all(|w| w.is_finite())
    {
        return Err(FrontendError::Training(format!(
            "the run diverged (final loss {}); model '{model_name}' is not persisted",
            final_loss.unwrap_or(f64::NAN)
        )));
    }
    persist_model(db, model_name, &trained.model)?;
    Ok(TrainSummary {
        task: task.name(),
        model_table: model_name.to_string(),
        dimension: task.dimension(),
        final_loss: final_loss.unwrap_or(f64::NAN),
        epochs: trained.epochs(),
        converged: trained.history.converged(),
        history: trained.history,
    })
}

/// Errors unless the persisted model `model_name` is at least `width`
/// components wide: the one width rule [`loss`] and [`predict`] share.
fn check_width(model_name: &str, model: &[f64], width: usize) -> Result<(), FrontendError> {
    if model.len() < width {
        return Err(FrontendError::InvalidInput(format!(
            "model '{model_name}' has dimension {}, expected {width}",
            model.len()
        )));
    }
    Ok(())
}

/// `SELECT …Loss(model, table, …)`: the full objective `Σ_i f_i(w) + P(w)`
/// of the persisted model `model_name` under `task` over `table_name` — the
/// "loss UDA" of Section 3.1. The model must be at least as wide as the
/// task's.
pub fn loss<T: IgdTask>(
    db: &Database,
    model_name: &str,
    table_name: &str,
    task: &T,
) -> Result<f64, FrontendError> {
    let model = load_model(db, model_name)?;
    check_width(model_name, &model, task.dimension())?;
    Ok(objective(task, &model, db.stored(table_name)?)?)
}

/// `SELECT …Predict(model, table, features)`: score every row of
/// `table_name` in storage order with the persisted linear model
/// `model_name` through `task`'s link — the raw `wᵀx`, an LR probability or
/// an SVM class — over column blocks, with the kernel `PREDICT` uses. The
/// model must be at least as wide as the feature column's widest vector; a
/// row whose features are NULL scores `task.apply(0.0)`.
pub fn predict(
    db: &Database,
    model_name: &str,
    table_name: &str,
    features_col: &str,
    task: ServingTask,
) -> Result<Vec<f64>, FrontendError> {
    let table = db.stored(table_name)?;
    let model = load_model(db, model_name)?;
    let fcol = table.column_index(features_col)?;
    check_width(model_name, &model, infer_dimension(table, fcol))?;
    let snapshot = ModelSnapshot::detached(task, model);
    let null = task.apply(0.0);
    let score = |x: Option<FeatureVectorRef<'_>>| x.map_or(null, |x| snapshot.predict(x));
    let mut out = Vec::with_capacity(table.len());
    table.scan_blocks(0, usize::MAX, &mut |block| {
        match block.features(fcol) {
            Some(rows) => out.extend((0..rows.len()).map(|i| score(rows.get(i)))),
            None => out.extend(block.rows().map(|row| score(row.feature_view(fcol)))),
        }
        true
    })?;
    Ok(out)
}

/// The linear task `L` (e.g. [`crate::tasks::HingeLoss`] for `SVMTrain`)
/// over the columns `features_col` and `label_col` of the non-empty table
/// `table_name`, its model as wide as the widest feature vector.
pub fn linear_task<L: LinearLoss>(
    db: &Database,
    table_name: &str,
    features_col: &str,
    label_col: &str,
) -> Result<LinearTask<L>, FrontendError> {
    let table = training_table(db, table_name)?;
    let fcol = table.column_index(features_col)?;
    let lcol = table.column_index(label_col)?;
    let dim = infer_dimension(table, fcol);
    if dim == 0 {
        return Err(FrontendError::InvalidInput(format!(
            "column '{features_col}' holds no feature vectors"
        )));
    }
    Ok(LinearTask::new(fcol, lcol, dim))
}

/// The low-rank factorization of `LMFTrain(model, table, row, col, rating,
/// rows, cols, rank)`: `rows × rank` and `cols × rank` factors over the
/// ratings in the non-empty table `table_name`.
#[allow(clippy::too_many_arguments)]
pub fn lmf_task(
    db: &Database,
    table_name: &str,
    row_col: &str,
    col_col: &str,
    rating_col: &str,
    rows: usize,
    cols: usize,
    rank: usize,
) -> Result<LmfTask, FrontendError> {
    let table = training_table(db, table_name)?;
    let rcol = table.column_index(row_col)?;
    let ccol = table.column_index(col_col)?;
    let vcol = table.column_index(rating_col)?;
    if rank == 0 {
        return Err(FrontendError::InvalidInput(
            "LMF rank must be positive".into(),
        ));
    }
    let dimension = rows.checked_add(cols).and_then(|n| n.checked_mul(rank));
    reserve_model(
        dimension,
        &format!("LMF model of ({rows} + {cols}) x {rank}"),
    )?;
    Ok(LmfTask::new(rcol, ccol, vcol, rows, cols, rank))
}

/// Infer the shape of a sequence-labeling column: `(num_features, num_labels)`
/// as `max feature index + 1` and `max label + 1` over every position of
/// every sequence.
pub(crate) fn infer_sequence_shape<S: TupleScan + ?Sized>(
    source: &S,
    sequence_col: usize,
) -> Result<(usize, usize), StorageError> {
    let mut num_features = 0usize;
    let mut num_labels = 0usize;
    source.scan_blocks(0, usize::MAX, &mut |block| {
        for row in block.rows() {
            for (features, label) in row.get_sequence(sequence_col).unwrap_or_default() {
                num_features = num_features.max(features.dimension());
                num_labels = num_labels.max(*label as usize + 1);
            }
        }
        true
    })?;
    Ok((num_features, num_labels))
}

/// The CRF task whose feature and label alphabets are inferred from the
/// sequences in `table`.
fn crf_task_for(table: &StoredTable, sequence_col: &str) -> Result<CrfTask, FrontendError> {
    let scol = table.column_index(sequence_col)?;
    let (num_features, num_labels) = infer_sequence_shape(table, scol)?;
    if num_features == 0 || num_labels == 0 {
        return Err(FrontendError::InvalidInput(format!(
            "column '{sequence_col}' holds no labeled sequences"
        )));
    }
    // features × labels emission weights plus labels × labels transitions.
    let dimension = num_features
        .checked_add(num_labels)
        .and_then(|n| n.checked_mul(num_labels));
    let shape = format!("CRF model of ({num_features} + {num_labels}) x {num_labels}");
    reserve_model(dimension, &shape)?;
    Ok(CrfTask::new(scol, num_features, num_labels))
}

/// The linear-chain CRF of `CRFTrain(model, table, sequence)`, its feature
/// and label alphabets inferred from the sequences of the non-empty table
/// `table_name`.
pub fn crf_task(
    db: &Database,
    table_name: &str,
    sequence_col: &str,
) -> Result<CrfTask, FrontendError> {
    crf_task_for(training_table(db, table_name)?, sequence_col)
}

/// Apply a persisted CRF model to every sequence of a data table, returning
/// the Viterbi label sequence for each row in storage order. Rows whose
/// sequence column is NULL produce an empty labeling.
pub fn crf_predict(
    db: &Database,
    model_name: &str,
    table_name: &str,
    sequence_col: &str,
) -> Result<Vec<Vec<usize>>, FrontendError> {
    let model = load_model(db, model_name)?;
    let table = db.stored(table_name)?;
    let task = crf_task_for(table, sequence_col)?;
    if model.len() != task.dimension() {
        return Err(FrontendError::InvalidInput(format!(
            "model '{model_name}' has dimension {}, expected {} for this table",
            model.len(),
            task.dimension()
        )));
    }
    let scol = table.column_index(sequence_col)?;
    let mut labelings = Vec::with_capacity(table.len());
    table.scan_blocks(0, usize::MAX, &mut |block| {
        labelings.extend(block.rows().map(|row| match row.get_sequence(scol) {
            Some(sequence) => task.viterbi(&model, sequence),
            None => Vec::new(),
        }));
        true
    })?;
    Ok(labelings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::classification_accuracy;
    use crate::stepsize::StepSizeSchedule;
    use crate::tasks::{HingeLoss, LogisticLoss, SvmTask};
    use bismarck_uda::ConvergenceTest;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn setup_db(n: usize) -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut table = Table::new("LabeledPapers", schema);
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..n {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let x = vec![
                y + rng.gen_range(-0.3..0.3),
                -y * 0.5 + rng.gen_range(-0.3..0.3),
            ];
            table
                .insert(vec![Value::Int(i as i64), Value::from(x), Value::Double(y)])
                .unwrap();
        }
        db.register_table(table).unwrap();
        db
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.2))
            .with_convergence(ConvergenceTest::FixedEpochs(10))
    }

    /// `SELECT …Train(model, 'LabeledPapers', 'vec', 'label')` for the loss `L`.
    fn train_linear<L: LinearLoss>(
        db: &mut Database,
        model_name: &str,
        table_name: &str,
        features_col: &str,
    ) -> Result<TrainSummary, FrontendError> {
        let task = linear_task::<L>(db, table_name, features_col, "label")?;
        train(db, model_name, table_name, &task, fast_config())
    }

    #[test]
    fn svm_train_and_predict_roundtrip() {
        let mut db = setup_db(200);
        let summary =
            train_linear::<HingeLoss>(&mut db, "myModel", "LabeledPapers", "vec").unwrap();
        assert_eq!(summary.task, "SVM");
        assert_eq!(summary.dimension, 2);
        assert_eq!(summary.epochs, 10);
        assert!(db.contains("myModel"));

        let preds = predict(&db, "myModel", "LabeledPapers", "vec", ServingTask::Svm).unwrap();
        let labels: Vec<f64> = db
            .table("LabeledPapers")
            .unwrap()
            .scan()
            .map(|t| t.get_double(2).unwrap())
            .collect();
        assert!(classification_accuracy(&preds, &labels) > 0.9);
    }

    #[test]
    fn logistic_train_and_probabilities() {
        let mut db = setup_db(200);
        let summary =
            train_linear::<LogisticLoss>(&mut db, "lrModel", "LabeledPapers", "vec").unwrap();
        assert_eq!(summary.task, "LR");
        assert!(summary.final_loss.is_finite());
        let probs = predict(
            &db,
            "lrModel",
            "LabeledPapers",
            "vec",
            ServingTask::Logistic,
        )
        .unwrap();
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        // Positive examples (even ids) should receive higher probabilities.
        let mean_pos: f64 = probs.iter().step_by(2).sum::<f64>() / (probs.len() / 2) as f64;
        let mean_neg: f64 = probs.iter().skip(1).step_by(2).sum::<f64>() / (probs.len() / 2) as f64;
        assert!(mean_pos > mean_neg);
    }

    #[test]
    fn lmf_train_persists_factors() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("row", DataType::Int),
            Column::new("col", DataType::Int),
            Column::new("rating", DataType::Double),
        ])
        .unwrap();
        let mut table = Table::new("Ratings", schema);
        for i in 0..5 {
            for j in 0..4 {
                table
                    .insert(vec![
                        Value::Int(i),
                        Value::Int(j),
                        Value::Double((i + 1) as f64 * 0.5 + (j + 1) as f64 * 0.25),
                    ])
                    .unwrap();
            }
        }
        db.register_table(table).unwrap();
        let task = lmf_task(&db, "Ratings", "row", "col", "rating", 5, 4, 2).unwrap();
        let config = fast_config().with_step_size(StepSizeSchedule::Constant(0.05));
        let summary = train(&mut db, "factors", "Ratings", &task, config).unwrap();
        assert_eq!(summary.dimension, (5 + 4) * 2);
        let model = load_model(&db, "factors").unwrap();
        assert_eq!(model.len(), summary.dimension);
    }

    #[test]
    fn loss_frontends_match_a_direct_objective_computation() {
        let mut db = setup_db(150);
        train_linear::<HingeLoss>(&mut db, "svmM", "LabeledPapers", "vec").unwrap();
        train_linear::<LogisticLoss>(&mut db, "lrM", "LabeledPapers", "vec").unwrap();

        let svm_task = linear_task::<HingeLoss>(&db, "LabeledPapers", "vec", "label").unwrap();
        let lr_task = linear_task::<LogisticLoss>(&db, "LabeledPapers", "vec", "label").unwrap();
        let svm_value = loss(&db, "svmM", "LabeledPapers", &svm_task).unwrap();
        let lr_value = loss(&db, "lrM", "LabeledPapers", &lr_task).unwrap();
        assert!(svm_value.is_finite() && svm_value >= 0.0);
        assert!(lr_value.is_finite() && lr_value >= 0.0);

        // Cross-check against a hand-rolled sum of per-example losses.
        let model = load_model(&db, "svmM").unwrap();
        let task = SvmTask::new(1, 2, model.len());
        let expected: f64 = db
            .table("LabeledPapers")
            .unwrap()
            .scan()
            .map(|t| task.example_loss(&model, t.into()))
            .sum::<f64>()
            + task.regularizer(&model);
        assert!((svm_value - expected).abs() < 1e-9);

        // A model whose dimension disagrees with the data is rejected.
        persist_model(&mut db, "tinyModel", &[0.5]).unwrap();
        assert!(loss(&db, "tinyModel", "LabeledPapers", &svm_task).is_err());
        assert!(predict(&db, "tinyModel", "LabeledPapers", "vec", ServingTask::Svm).is_err());
    }

    #[test]
    fn crf_train_and_viterbi_predict_roundtrip() {
        use bismarck_linalg::SparseVector;
        // Two-label chunking toy: feature 0 marks label 0, feature 1 marks
        // label 1; sequences alternate.
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("sentence", DataType::Sequence),
        ])
        .unwrap();
        let mut table = Table::new("Chunks", schema);
        for i in 0..40i64 {
            let seq: Vec<(SparseVector, u32)> = (0..6)
                .map(|p| {
                    let label = ((i as usize + p) % 2) as u32;
                    (SparseVector::from_pairs(vec![(label as usize, 1.0)]), label)
                })
                .collect();
            table
                .insert(vec![Value::Int(i), Value::Sequence(seq)])
                .unwrap();
        }
        db.register_table(table).unwrap();

        let task = crf_task(&db, "Chunks", "sentence").unwrap();
        let config = fast_config().with_step_size(StepSizeSchedule::Constant(0.5));
        let summary = train(&mut db, "crfModel", "Chunks", &task, config).unwrap();
        assert_eq!(summary.task, "CRF");
        assert!(summary.final_loss.is_finite());
        assert!(db.contains("crfModel"));

        let labelings = crf_predict(&db, "crfModel", "Chunks", "sentence").unwrap();
        assert_eq!(labelings.len(), 40);
        // The indicative features should make Viterbi recover the labels.
        let table = db.table("Chunks").unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (tuple, predicted) in table.scan().zip(&labelings) {
            let truth = tuple.get_sequence(1).unwrap();
            for ((_, gold), pred) in truth.iter().zip(predicted) {
                total += 1;
                if *gold as usize == *pred {
                    correct += 1;
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "accuracy {correct}/{total}"
        );
    }

    #[test]
    fn infer_sequence_shape_reads_features_and_labels() {
        use bismarck_linalg::SparseVector;
        let schema = Schema::new(vec![Column::new("seq", DataType::Sequence)]).unwrap();
        let mut table = Table::new("S", schema);
        table
            .insert(vec![Value::Sequence(vec![
                (SparseVector::from_pairs(vec![(7, 1.0)]), 2),
                (SparseVector::from_pairs(vec![(3, 1.0)]), 0),
            ])])
            .unwrap();
        assert_eq!(infer_sequence_shape(&table, 0), Ok((8, 3)));
        // Empty table yields zero shape and trains are rejected.
        let empty = Table::new(
            "E",
            Schema::new(vec![Column::new("seq", DataType::Sequence)]).unwrap(),
        );
        assert_eq!(infer_sequence_shape(&empty, 0), Ok((0, 0)));
    }

    #[test]
    fn crf_predict_rejects_mismatched_model() {
        use bismarck_linalg::SparseVector;
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("seq", DataType::Sequence)]).unwrap();
        let mut table = Table::new("S", schema);
        table
            .insert(vec![Value::Sequence(vec![(
                SparseVector::from_pairs(vec![(0, 1.0)]),
                1,
            )])])
            .unwrap();
        db.register_table(table).unwrap();
        persist_model(&mut db, "tiny", &[0.1, 0.2, 0.3]).unwrap();
        let err = crf_predict(&db, "tiny", "S", "seq").unwrap_err();
        assert!(matches!(err, FrontendError::InvalidInput(_)));
    }

    #[test]
    fn persist_and_load_model_roundtrip() {
        let mut db = Database::new();
        let model = vec![0.5, -1.5, 0.0, 3.0];
        persist_model(&mut db, "m", &model).unwrap();
        assert_eq!(load_model(&db, "m").unwrap(), model);
    }

    #[test]
    fn a_model_is_never_sized_past_its_table() {
        let model_table = |rows: &[(i64, f64)]| {
            let mut db = Database::new();
            let schema = Schema::new(vec![
                Column::new("idx", DataType::Int),
                Column::new("weight", DataType::Double),
            ])
            .unwrap();
            let mut table = Table::new("m", schema);
            for &(idx, weight) in rows {
                table
                    .insert(vec![Value::Int(idx), Value::Double(weight)])
                    .unwrap();
            }
            db.register_table(table).unwrap();
            load_model(&db, "m")
        };
        // Rows in any order fill their slots.
        assert_eq!(
            model_table(&[(2, 0.3), (0, 0.1), (1, 0.2)]).unwrap(),
            vec![0.1, 0.2, 0.3]
        );
        // An idx at or past the row count, or negative, is an error.
        for idx in [-1, 2, 1 << 40, i64::MAX] {
            let err = model_table(&[(0, 0.1), (idx, 0.2)]).unwrap_err();
            assert!(
                matches!(err, FrontendError::InvalidInput(_)),
                "{idx}: {err}"
            );
        }
    }

    #[test]
    fn errors_for_missing_tables_and_columns() {
        let mut db = setup_db(10);
        assert!(matches!(
            train_linear::<HingeLoss>(&mut db, "m", "NoSuchTable", "vec"),
            Err(FrontendError::Storage(StorageError::UnknownTable(_)))
        ));
        assert!(matches!(
            train_linear::<HingeLoss>(&mut db, "m", "LabeledPapers", "nope"),
            Err(FrontendError::Storage(StorageError::UnknownColumn(_)))
        ));
        assert!(load_model(&db, "missingModel").is_err());
    }

    #[test]
    fn empty_training_table_is_rejected() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        db.register_table(Table::new("Empty", schema)).unwrap();
        let err = train_linear::<HingeLoss>(&mut db, "m", "Empty", "vec").unwrap_err();
        assert!(matches!(err, FrontendError::InvalidInput(_)));
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn infer_dimension_handles_sparse_and_empty() {
        let db = setup_db(10);
        let table = db.table("LabeledPapers").unwrap();
        assert_eq!(infer_dimension(table, 1), 2);
        // Non-vector column yields zero.
        assert_eq!(infer_dimension(table, 0), 0);
    }
}
