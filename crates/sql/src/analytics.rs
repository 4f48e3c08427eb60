//! The analytics function registry: the glue between `SELECT SVMTrain(...)`
//! style calls and the Bismarck front-end in `bismarck-core`.
//!
//! This is the user-facing surface Section 2.1 of the paper describes — the
//! same call shape as MADlib's SQL functions — implemented over the unified
//! IGD architecture instead of per-task code paths: every SQL name is one
//! row of [`FUNCTIONS`], and a linear technique's rows are the generic
//! handlers instantiated at its loss.

use bismarck_core::frontend;
use bismarck_core::serving::ServingTask;
use bismarck_core::task::IgdTask;
use bismarck_core::tasks::{HingeLoss, LinearLoss, LogisticLoss};
use bismarck_core::{StepSizeSchedule, TrainerConfig};
use bismarck_storage::{Database, Value};
use bismarck_uda::ConvergenceTest;

use crate::error::{Result, SqlError};
use crate::result::QueryResult;

/// Runs one analytics call: the database, the session's trainer
/// configuration, the name as written and the evaluated arguments.
type Handler = fn(&mut Database, TrainerConfig, &str, &[Value]) -> Result<QueryResult>;

/// Every analytics function, one row per SQL name. Names are upper case
/// here and resolved case-insensitively, so the paper's mixed-case spelling
/// and a user's lower-case one both work.
const FUNCTIONS: [(&str, Handler); 13] = [
    ("SVMTRAIN", train_linear::<HingeLoss>),
    ("LRTRAIN", train_linear::<LogisticLoss>),
    ("LOGISTICREGRESSIONTRAIN", train_linear::<LogisticLoss>),
    ("LMFTRAIN", train_lmf),
    ("CRFTRAIN", train_crf),
    ("SVMPREDICT", |db, _, name, args| {
        predict_linear(db, name, args, ServingTask::Svm, "prediction")
    }),
    ("LRPREDICT", |db, _, name, args| {
        predict_linear(db, name, args, ServingTask::Logistic, "probability")
    }),
    ("LOGISTICREGRESSIONPREDICT", |db, _, name, args| {
        predict_linear(db, name, args, ServingTask::Logistic, "probability")
    }),
    ("LINEARPREDICT", |db, _, name, args| {
        predict_linear(db, name, args, ServingTask::LeastSquares, "score")
    }),
    ("CRFPREDICT", predict_crf),
    ("SVMLOSS", loss_linear::<HingeLoss>),
    ("LRLOSS", loss_linear::<LogisticLoss>),
    ("LOGISTICREGRESSIONLOSS", loss_linear::<LogisticLoss>),
];

/// The handler of the analytics function `name`, if there is one.
fn handler(name: &str) -> Option<Handler> {
    FUNCTIONS
        .iter()
        .find(|(function, _)| function.eq_ignore_ascii_case(name))
        .map(|&(_, run)| run)
}

/// True if `name` resolves to one of the analytics functions handled by
/// [`execute_analytics`].
pub(crate) fn is_analytics_function(name: &str) -> bool {
    handler(name).is_some()
}

/// Execute one analytics function call with already-evaluated arguments.
///
/// Training functions persist the model back into `db` and return a one-row
/// summary; prediction functions return one row per input tuple. The data
/// table is resolved by name in `db`, whatever its physical layout.
pub(crate) fn execute_analytics(
    db: &mut Database,
    base_config: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let run = handler(name).ok_or_else(|| {
        SqlError::Analytics(format!(
            "unknown analytics function {}()",
            name.to_ascii_uppercase()
        ))
    })?;
    run(db, base_config, name, args)
}

fn text_arg(args: &[Value], index: usize, function: &str, what: &str) -> Result<String> {
    args.get(index)
        .and_then(|v| v.as_text().map(str::to_string))
        .ok_or_else(|| {
            SqlError::Analytics(format!(
                "{function}() argument {index} must be the {what} (text)"
            ))
        })
}

fn int_arg(args: &[Value], index: usize, function: &str, what: &str) -> Result<usize> {
    args.get(index)
        .and_then(Value::as_int)
        .filter(|&v| v >= 0)
        .map(|v| v as usize)
        .ok_or_else(|| {
            SqlError::Analytics(format!(
                "{function}() argument {index} must be the {what} (non-negative integer)"
            ))
        })
}

/// Errors if `function` got more than `most` arguments.
fn at_most(args: &[Value], most: usize, function: &str) -> Result<()> {
    if args.len() > most {
        return Err(SqlError::Analytics(format!(
            "{function}() takes {most} arguments, got {}",
            args.len()
        )));
    }
    Ok(())
}

/// Apply optional trailing `(step_size, epochs)` overrides to the session's
/// default trainer configuration. Either may be omitted.
fn config_with_overrides(
    base: TrainerConfig,
    args: &[Value],
    first_optional: usize,
    function: &str,
) -> Result<TrainerConfig> {
    let mut config = base;
    if let Some(step) = args.get(first_optional) {
        let step = step
            .as_double()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| {
                SqlError::Analytics(format!(
                    "{function}() optional step-size argument must be a positive finite number"
                ))
            })?;
        config = config.with_step_size(StepSizeSchedule::Constant(step));
    }
    if let Some(epochs) = args.get(first_optional + 1) {
        let epochs = epochs.as_int().filter(|e| *e > 0).ok_or_else(|| {
            SqlError::Analytics(format!(
                "{function}() optional epoch-count argument must be a positive integer"
            ))
        })?;
        config = config.with_convergence(ConvergenceTest::FixedEpochs(epochs as usize));
    }
    if args.len() > first_optional + 2 {
        return Err(SqlError::Analytics(format!(
            "{function}() takes at most {} arguments, got {}",
            first_optional + 2,
            args.len()
        )));
    }
    Ok(config)
}

/// Train `task` over `table`, persist its model as `model` and return the
/// run's one-row summary.
fn train<T: IgdTask>(
    db: &mut Database,
    model: &str,
    table: &str,
    task: &T,
    config: TrainerConfig,
) -> Result<QueryResult> {
    let summary = frontend::train(db, model, table, task, config)?;
    Ok(QueryResult::with_rows(
        vec![
            "model".into(),
            "task".into(),
            "dimension".into(),
            "epochs".into(),
            "final_loss".into(),
            "converged".into(),
        ],
        vec![vec![
            Value::Text(summary.model_table),
            Value::Text(summary.task.to_string()),
            Value::Int(summary.dimension as i64),
            Value::Int(summary.epochs as i64),
            Value::Double(summary.final_loss),
            Value::Int(i64::from(summary.converged)),
        ]],
    ))
}

/// `…Train(model, table, features, label [, step, epochs])` of the linear
/// technique whose loss is `L`.
fn train_linear<L: LinearLoss>(
    db: &mut Database,
    base_config: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "training table")?;
    let features = text_arg(args, 2, name, "feature column")?;
    let label = text_arg(args, 3, name, "label column")?;
    let config = config_with_overrides(base_config, args, 4, name)?;
    let task = frontend::linear_task::<L>(db, &table, &features, &label)?;
    train(db, &model, &table, &task, config)
}

/// `…Train(model, table, row, col, rating, rows, cols, rank [, step,
/// epochs])` of a low-rank factorization.
fn train_lmf(
    db: &mut Database,
    base_config: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "ratings table")?;
    let row_col = text_arg(args, 2, name, "row-id column")?;
    let col_col = text_arg(args, 3, name, "column-id column")?;
    let rating_col = text_arg(args, 4, name, "rating column")?;
    let rows = int_arg(args, 5, name, "number of rows")?;
    let cols = int_arg(args, 6, name, "number of columns")?;
    let rank = int_arg(args, 7, name, "factorization rank")?;
    let config = config_with_overrides(base_config, args, 8, name)?;
    let task = frontend::lmf_task(
        db,
        &table,
        &row_col,
        &col_col,
        &rating_col,
        rows,
        cols,
        rank,
    )?;
    train(db, &model, &table, &task, config)
}

/// `…Train(model, table, sequence [, step, epochs])` of a linear-chain CRF.
fn train_crf(
    db: &mut Database,
    base_config: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "training table")?;
    let sequence = text_arg(args, 2, name, "sequence column")?;
    let config = config_with_overrides(base_config, args, 3, name)?;
    let task = frontend::crf_task(db, &table, &sequence)?;
    train(db, &model, &table, &task, config)
}

/// `…Predict(model, table, features)` of a linear model: one `(row,
/// column)` row per tuple, scored through `task`'s link.
fn predict_linear(
    db: &mut Database,
    name: &str,
    args: &[Value],
    task: ServingTask,
    column: &str,
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "data table")?;
    let features = text_arg(args, 2, name, "feature column")?;
    at_most(args, 3, name)?;
    let scores = frontend::predict(db, &model, &table, &features, task)?;
    Ok(QueryResult::with_rows(
        vec!["row".into(), column.into()],
        scores
            .into_iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::Double(s)])
            .collect(),
    ))
}

/// `…Loss(model, table, features, label)`: the objective of the persisted
/// model under the loss `L`.
fn loss_linear<L: LinearLoss>(
    db: &mut Database,
    _: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "data table")?;
    let features = text_arg(args, 2, name, "feature column")?;
    let label = text_arg(args, 3, name, "label column")?;
    at_most(args, 4, name)?;
    let task = frontend::linear_task::<L>(db, &table, &features, &label)?;
    let loss = frontend::loss(db, &model, &table, &task)?;
    Ok(QueryResult::with_rows(
        vec!["loss".into()],
        vec![vec![Value::Double(loss)]],
    ))
}

/// `…Predict(model, table, sequence)` of a CRF: each row's Viterbi labeling,
/// as space-separated label ids.
fn predict_crf(
    db: &mut Database,
    _: TrainerConfig,
    name: &str,
    args: &[Value],
) -> Result<QueryResult> {
    let model = text_arg(args, 0, name, "model name")?;
    let table = text_arg(args, 1, name, "data table")?;
    let sequence = text_arg(args, 2, name, "sequence column")?;
    at_most(args, 3, name)?;
    let labelings = frontend::crf_predict(db, &model, &table, &sequence)?;
    let rows = labelings
        .into_iter()
        .enumerate()
        .map(|(i, labels)| {
            let rendered = labels
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            vec![Value::Int(i as i64), Value::Text(rendered)]
        })
        .collect();
    Ok(QueryResult::with_rows(
        vec!["row".into(), "labels".into()],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bismarck_storage::{Column, DataType, Schema, Table};

    fn classification_db(n: usize) -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut table = Table::new("LabeledPapers", schema);
        for i in 0..n {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            table
                .insert(vec![
                    Value::Int(i as i64),
                    Value::from(vec![y * 2.0, -y]),
                    Value::Double(y),
                ])
                .unwrap();
        }
        db.register_table(table).unwrap();
        db
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig::default().with_convergence(ConvergenceTest::FixedEpochs(5))
    }

    #[test]
    fn analytics_function_names_are_case_insensitive() {
        assert!(is_analytics_function("SVMTrain"));
        assert!(is_analytics_function("svmtrain"));
        assert!(is_analytics_function("CRFPredict"));
        assert!(!is_analytics_function("COUNT"));
        assert!(!is_analytics_function("Frobnicate"));
        // Each row's name is upper case and appears once.
        for (i, (name, _)) in FUNCTIONS.iter().enumerate() {
            assert_eq!(*name, name.to_ascii_uppercase());
            assert!(FUNCTIONS[..i].iter().all(|(other, _)| other != name));
        }
    }

    #[test]
    fn svm_train_returns_one_row_summary_and_persists_model() {
        let mut db = classification_db(100);
        let args = vec![
            Value::Text("myModel".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
        ];
        let result = execute_analytics(&mut db, fast_config(), "SVMTrain", &args).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.columns[0], "model");
        assert!(db.contains("myModel"));
        let loss_idx = result.column_index("final_loss").unwrap();
        assert!(result.rows[0][loss_idx].as_double().unwrap().is_finite());
    }

    #[test]
    fn optional_step_and_epoch_overrides_are_honoured() {
        let mut db = classification_db(60);
        let args = vec![
            Value::Text("m".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
            Value::Double(0.5),
            Value::Int(3),
        ];
        let result = execute_analytics(&mut db, fast_config(), "LRTrain", &args).unwrap();
        let epochs_idx = result.column_index("epochs").unwrap();
        assert_eq!(result.rows[0][epochs_idx], Value::Int(3));
    }

    #[test]
    fn too_many_arguments_is_an_error() {
        let mut db = classification_db(10);
        let mut args = vec![
            Value::Text("m".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
            Value::Double(0.5),
            Value::Int(3),
            Value::Int(99),
        ];
        let err = execute_analytics(&mut db, fast_config(), "SVMTrain", &args).unwrap_err();
        assert!(err.to_string().contains("at most"));
        args.truncate(4);
        args[0] = Value::Int(12); // model name must be text
        let err = execute_analytics(&mut db, fast_config(), "SVMTrain", &args).unwrap_err();
        assert!(err.to_string().contains("model name"));
    }

    #[test]
    fn predict_after_train_produces_one_row_per_tuple() {
        let mut db = classification_db(80);
        let train_args = vec![
            Value::Text("m".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
        ];
        execute_analytics(&mut db, fast_config(), "SVMTrain", &train_args).unwrap();
        let predict_args = vec![
            Value::Text("m".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
        ];
        let result =
            execute_analytics(&mut db, fast_config(), "SVMPredict", &predict_args).unwrap();
        assert_eq!(result.len(), 80);
        assert_eq!(
            result.columns,
            vec!["row".to_string(), "prediction".to_string()]
        );
        let predictions = result.column_values("prediction").unwrap();
        assert!(predictions.iter().all(|v| {
            let p = v.as_double().unwrap();
            p == 1.0 || p == -1.0 || p == 0.0
        }));

        let probs = execute_analytics(&mut db, fast_config(), "LRPredict", &predict_args).unwrap();
        assert_eq!(probs.columns[1], "probability");
    }

    #[test]
    fn loss_functions_return_a_single_finite_value() {
        let mut db = classification_db(100);
        let train_args = vec![
            Value::Text("m".into()),
            Value::Text("LabeledPapers".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
        ];
        execute_analytics(&mut db, fast_config(), "SVMTrain", &train_args).unwrap();
        let loss = execute_analytics(&mut db, fast_config(), "SVMLoss", &train_args).unwrap();
        assert_eq!(loss.columns, vec!["loss".to_string()]);
        let value = loss.single_value().unwrap().as_double().unwrap();
        assert!(value.is_finite() && value >= 0.0);

        execute_analytics(&mut db, fast_config(), "LRTrain", &train_args).unwrap();
        let lr_loss = execute_analytics(&mut db, fast_config(), "LRLoss", &train_args).unwrap();
        assert!(lr_loss
            .single_value()
            .unwrap()
            .as_double()
            .unwrap()
            .is_finite());
    }

    #[test]
    fn unknown_table_surfaces_as_analytics_error() {
        let mut db = Database::new();
        let args = vec![
            Value::Text("m".into()),
            Value::Text("NoSuchTable".into()),
            Value::Text("vec".into()),
            Value::Text("label".into()),
        ];
        let err = execute_analytics(&mut db, fast_config(), "SVMTrain", &args).unwrap_err();
        assert!(matches!(err, SqlError::Analytics(_)));
    }
}
