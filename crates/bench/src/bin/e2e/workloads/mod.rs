//! The six workloads, and the statement helpers the SQL ones share.

use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{StepSizeSchedule, Trainer, TrainerConfig};
use bismarck_sql::{QueryResult, SqlSession};
use bismarck_storage::TupleScan;
use bismarck_uda::ConvergenceTest;

use crate::data::{self, FEATURES_COL, LABEL_COL};
use crate::harness::{Ctx, Outcome, RunConfig};
use crate::spec::DENSE_DIM;
use crate::trace::Tracer;

mod ingest;
mod par_sparse;
mod serve;
mod sql_dense;

/// Step size of every training run in the benchmark.
pub const STEP_SIZE: f64 = 0.01;

/// The target loss is this multiple of the loss the reference run reaches.
pub const TARGET_SLACK: f64 = 1.02;

/// A run-to-target may take this many times the reference's epochs before it
/// stops unconverged (and fails validation).
pub const TARGET_EPOCH_FACTOR: usize = 4;

/// Run one workload by name.
pub fn run(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    match cfg.workload.as_str() {
        "row_shuffle_dense" => sql_dense::run(cfg, sql_dense::Layout::Row),
        "col_clustered_dense" => sql_dense::run(cfg, sql_dense::Layout::Columnar),
        "paged_clustered_dense" => sql_dense::run(cfg, sql_dense::Layout::Paged),
        "par_nolock_sparse" => par_sparse::run(cfg),
        "serve_during_train" => serve::run(cfg),
        "durable_ingest_reopen" => ingest::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The dense logistic-regression task over the generated schema.
pub fn dense_lr_task() -> LogisticRegressionTask {
    LogisticRegressionTask::new(FEATURES_COL, LABEL_COL, DENSE_DIM)
}

/// `base` with the benchmark's step size and a fixed epoch count: the
/// configuration a `LRTrain(..., 0.01, epochs)` statement runs under.
pub fn fixed_epochs_config(base: &TrainerConfig, epochs: usize) -> TrainerConfig {
    base.clone()
        .with_step_size(StepSizeSchedule::Constant(STEP_SIZE))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

/// What the harness's own sequential run over the same rows produced; every
/// sequential statement must reproduce it bit for bit, whatever the layout.
#[derive(Debug, Clone)]
pub struct Reference {
    pub weights: Vec<f64>,
    /// Loss after each epoch of the fixed-length run.
    pub losses: Vec<f64>,
    /// [`TARGET_SLACK`] times the final loss.
    pub target: f64,
    /// Loss of the all-zero model, which every trained model must beat.
    pub zero_loss: f64,
}

impl Reference {
    /// Train `epochs` epochs of dense LR over `source` through the Rust API.
    pub fn dense_lr<S: TupleScan + ?Sized>(
        source: &S,
        base: &TrainerConfig,
        epochs: usize,
    ) -> Reference {
        let task = dense_lr_task();
        let trained = Trainer::new(&task, fixed_epochs_config(base, epochs)).train(source);
        let losses = trained.history.losses();
        let last = losses.last().copied().unwrap_or(f64::NAN);
        Reference {
            weights: trained.model,
            target: TARGET_SLACK * last,
            losses,
            zero_loss: source.tuple_count() as f64 * std::f64::consts::LN_2,
        }
    }

    pub fn final_loss(&self) -> f64 {
        self.losses.last().copied().unwrap_or(f64::NAN)
    }

    /// Epochs the same run needs to first reach the target.
    pub fn epochs_to_target(&self) -> usize {
        self.losses
            .iter()
            .position(|&l| l <= self.target)
            .map_or(self.losses.len(), |i| i + 1)
    }

    /// The convergence test of a run-to-target statement.
    pub fn target_test(&self) -> ConvergenceTest {
        ConvergenceTest::LossBelow {
            target: self.target,
            max_epochs: TARGET_EPOCH_FACTOR * self.losses.len().max(1),
        }
    }
}

/// `epochs` and `final_loss` of a training statement's one-row summary.
pub fn train_summary(result: &QueryResult) -> Result<(usize, f64), String> {
    let row = result
        .rows
        .first()
        .ok_or("training returned no summary row")?;
    let field = |name: &str| {
        result
            .column_index(name)
            .and_then(|i| row.get(i))
            .ok_or_else(|| format!("training summary lacks '{name}'"))
    };
    let epochs = field("epochs")?
        .as_int()
        .ok_or("epochs is not an integer")?;
    let loss = field("final_loss")?
        .as_double()
        .ok_or("final_loss is not a number")?;
    Ok((epochs as usize, loss))
}

/// Validate a sequential training summary against the reference: finite,
/// positive, strictly below the zero-model loss, and bit-equal to the
/// reference's loss after the same number of epochs.
pub fn check_sequential_summary(
    reference: &Reference,
    epochs: usize,
    loss: f64,
) -> Result<(), String> {
    if !(loss.is_finite() && loss > 0.0 && loss < reference.zero_loss) {
        return Err(format!(
            "final loss {loss} is not in (0, zero-model loss {})",
            reference.zero_loss
        ));
    }
    match reference.losses.get(epochs.wrapping_sub(1)) {
        Some(expected) if expected.to_bits() == loss.to_bits() => Ok(()),
        Some(expected) => Err(format!(
            "loss after {epochs} epochs is {loss}, the reference run gives {expected}"
        )),
        None => Err(format!(
            "statement ran {epochs} epochs, the reference only {}",
            reference.losses.len()
        )),
    }
}

/// Issue `LRTrain` for `epochs` epochs (`None`: to the session's target) and
/// validate its summary. Returns `(epochs run, wall seconds)` on success.
pub fn train_statement(
    ctx: &mut Ctx,
    session: &mut SqlSession,
    op: &'static str,
    reference: &Reference,
    model: &str,
    table: &str,
    epochs: Option<usize>,
) -> Option<(usize, f64)> {
    let sql = train_sql(model, table, epochs);
    let (result, secs) = ctx.op(op, || session.execute(&sql));
    let verdict = result
        .map_err(|e| format!("{sql}: {e}"))
        .and_then(|r| train_summary(&r))
        .and_then(|(ran, loss)| {
            match epochs {
                Some(asked) if asked != ran => {
                    return Err(format!("{sql}: ran {ran} epochs"));
                }
                None if loss > reference.target => {
                    return Err(format!("{sql}: stopped at loss {loss} above the target"));
                }
                _ => {}
            }
            check_sequential_summary(reference, ran, loss).map(|()| ran)
        });
    let ran = verdict.as_ref().ok().copied();
    ctx.settle(verdict.map(|_| ()));
    ran.map(|ran| (ran, secs))
}

/// The text of an `LRTrain` statement.
pub fn train_sql(model: &str, table: &str, epochs: Option<usize>) -> String {
    match epochs {
        Some(e) => {
            format!("SELECT LRTrain('{model}', '{table}', 'vec', 'label', {STEP_SIZE}, {e})")
        }
        None => format!("SELECT LRTrain('{model}', '{table}', 'vec', 'label', {STEP_SIZE})"),
    }
}

/// Issue `SELECT PREDICT(model, vec) FROM table` and validate the row count
/// and a sample of scores against the reference `w·x` (a persisted model
/// scores raw). Returns the wall seconds on success.
pub fn predict_statement(
    ctx: &mut Ctx,
    session: &mut SqlSession,
    model: &str,
    table: &str,
    features: &[Vec<f64>],
    weights: &[f64],
) -> Option<f64> {
    let sql = format!("SELECT PREDICT('{model}', vec) FROM {table}");
    let (result, secs) = ctx.op("sql.exec.predict", || session.execute(&sql));
    let verdict = result.map_err(|e| format!("{sql}: {e}")).and_then(|r| {
        let scores: Vec<f64> = r
            .rows
            .iter()
            .map(|row| row.first().and_then(|v| v.as_double()).unwrap_or(f64::NAN))
            .collect();
        data::check_scores(&scores, features, weights, |s| s)
    });
    let ok = verdict.is_ok();
    ctx.settle(verdict);
    ok.then_some(secs)
}

/// `SELECT COUNT(*) FROM table WHERE PREDICT(model, vec) > 0`: scoring with
/// no result rows. Returns `(count, wall seconds)`; the count must equal the
/// reference's.
pub fn count_predict_statement(
    ctx: &mut Ctx,
    session: &mut SqlSession,
    model: &str,
    table: &str,
    expected: usize,
) -> Option<f64> {
    let sql = format!("SELECT COUNT(*) FROM {table} WHERE PREDICT('{model}', vec) > 0");
    let (result, secs) = ctx.op("sql.exec.count_predict", || session.execute(&sql));
    let verdict = result
        .map_err(|e| format!("{sql}: {e}"))
        .and_then(|r| single_count(&r))
        .and_then(|count| {
            if count == expected {
                Ok(())
            } else {
                Err(format!(
                    "{sql}: counted {count}, reference counts {expected}"
                ))
            }
        });
    let ok = verdict.is_ok();
    ctx.settle(verdict);
    ok.then_some(secs)
}

/// The single integer of a `COUNT(*)` result.
pub fn single_count(result: &QueryResult) -> Result<usize, String> {
    result
        .single_value()
        .and_then(|v| v.as_int())
        .map(|v| v as usize)
        .ok_or_else(|| "COUNT(*) did not return one integer".to_string())
}

/// Rows of `features` the reference model scores above zero.
pub fn reference_positive_count(features: &[Vec<f64>], weights: &[f64]) -> usize {
    features
        .iter()
        .filter(|x| data::reference_dot(weights, x) > 0.0)
        .count()
}

/// Compare a persisted model table with the reference weights, bit for bit.
pub fn check_persisted_model(
    session: &mut SqlSession,
    model: &str,
    reference: &Reference,
) -> Result<(), String> {
    let result = session
        .execute(&format!("SELECT weight FROM {model} ORDER BY idx"))
        .map_err(|e| format!("read model '{model}': {e}"))?;
    let same = result.rows.len() == reference.weights.len()
        && result.rows.iter().zip(&reference.weights).all(|(row, w)| {
            row.first()
                .and_then(|v| v.as_double())
                .is_some_and(|v| v.to_bits() == w.to_bits())
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "model '{model}' differs from the reference sequential run on a ROW copy"
        ))
    }
}
