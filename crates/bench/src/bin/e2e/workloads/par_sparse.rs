//! `par_nolock_sparse`: the paper's second factor. A sparse SVM trained
//! through the Rust API sequentially and with two NoLock shared-memory
//! workers, scored through a serving handle, and trained to a target.

use bismarck_core::tasks::SvmTask;
use bismarck_core::{
    ModelHandle, ParallelStrategy, ParallelTrainer, ServingTask, StepSizeSchedule, Trainer,
    TrainerConfig, UpdateDiscipline,
};
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{ScanOrder, Table};
use bismarck_uda::ConvergenceTest;

use super::{STEP_SIZE, TARGET_EPOCH_FACTOR};
use crate::data::{sparse_table, FEATURES_COL, LABEL_COL, PREDICT_SAMPLE};
use crate::harness::{run_cycles, Ctx, Outcome, RunConfig};
use crate::probes;
use crate::trace::Tracer;

/// Vocabulary of the sparse generator, which is the model dimension.
const VOCABULARY: usize = 20_000;

/// A NoLock run's final loss may exceed the sequential run's by at most this
/// share of the zero-model loss.
const NOLOCK_LOSS_SLACK: f64 = 0.01;

/// Margins closer to zero than this are skipped when checking predicted
/// signs: the engine's unrolled dot may round them to the other side.
const SIGN_MARGIN: f64 = 1e-9;

const NOLOCK: ParallelStrategy = ParallelStrategy::SharedMemory {
    workers: 2,
    discipline: UpdateDiscipline::NoLock,
};

fn config(convergence: ConvergenceTest) -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(STEP_SIZE))
        .with_scan_order(ScanOrder::Clustered)
        .with_convergence(convergence)
}

/// The harness's own `w·x` over a sparse row.
fn reference_margin(weights: &[f64], x: FeatureVectorRef<'_>) -> f64 {
    x.iter_entries().map(|(i, v)| weights[i] * v).sum()
}

fn check_predictions(
    predictions: &[f64],
    views: &[FeatureVectorRef<'_>],
    weights: &[f64],
) -> Result<(), String> {
    if predictions.len() != views.len() {
        return Err(format!(
            "predict_batch returned {} rows for {} inputs",
            predictions.len(),
            views.len()
        ));
    }
    if let Some(bad) = predictions.iter().position(|p| !p.is_finite()) {
        return Err(format!("prediction {bad} is not finite"));
    }
    let stride = (views.len() / PREDICT_SAMPLE).max(1);
    for i in (0..views.len()).step_by(stride) {
        let margin = reference_margin(weights, views[i]);
        if margin.abs() > SIGN_MARGIN && predictions[i] != margin.signum() {
            return Err(format!(
                "row {i}: predicted {}, reference margin {margin}",
                predictions[i]
            ));
        }
    }
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let rows = cfg.sizes.sparse_rows;
    let epochs = cfg.sizes.sparse_epochs.max(2);
    let mut ctx = Ctx::new(cfg.trace);

    let table: Table = ctx.timed_setup(&cfg.sizes, || sparse_table("s", rows, cfg.seed));
    let task = SvmTask::new(FEATURES_COL, LABEL_COL, VOCABULARY);
    let fixed = config(ConvergenceTest::FixedEpochs(epochs));
    let zero_loss = rows as f64;

    // Reference: the sequential run. The target sits between its first and
    // second epoch (their geometric mean), where the loss still falls by
    // several times per epoch, so a parallel run of equal quality needs two.
    let reference = Trainer::new(&task, fixed.clone()).train(&table);
    let seq_losses = reference.history.losses();
    let target = (seq_losses[0] * seq_losses[1]).sqrt();
    let seq_final = seq_losses[epochs - 1];
    let to_target = config(ConvergenceTest::LossBelow {
        target,
        max_epochs: TARGET_EPOCH_FACTOR * epochs,
    });

    let views: Vec<FeatureVectorRef<'_>> = table
        .scan()
        .map(|t| {
            t.feature_view(FEATURES_COL)
                .expect("generated feature vector")
        })
        .collect();
    let handle = ModelHandle::new(ServingTask::Svm, VOCABULARY);
    let mut predictions = Vec::with_capacity(rows);
    let mut last_version = 0;
    let tuples = (rows * epochs) as f64;

    let trace_overhead = run_cycles(&mut ctx, cfg, |ctx, _| {
        // Sequential run, bit-identical to the reference.
        let (seq, seq_s) = ctx.op("core.trainer.train", || {
            Trainer::new(&task, fixed.clone()).try_train(&table)
        });
        ctx.settle(seq.map_err(|e| e.to_string()).and_then(|m| {
            if m.model == reference.model {
                Ok(())
            } else {
                Err("sequential run is not deterministic".to_string())
            }
        }));
        ctx.sample("seq_tuples_per_s", tuples / seq_s);

        // The same epochs on two NoLock workers.
        let (par, par_s) = ctx.op("core.parallel.train", || {
            ParallelTrainer::new(&task, fixed.clone(), NOLOCK).try_train(&table)
        });
        let model = match par {
            Ok((trained, epoch_stats)) => {
                let loss = trained.final_loss().unwrap_or(f64::NAN);
                let allowed = seq_final + NOLOCK_LOSS_SLACK * zero_loss;
                ctx.settle(if loss.is_finite() && loss >= 0.0 && loss <= allowed {
                    Ok(())
                } else {
                    Err(format!(
                        "NoLock loss {loss} exceeds sequential {seq_final} by more than \
                         {NOLOCK_LOSS_SLACK} of the zero-model loss {zero_loss}"
                    ))
                });
                ctx.sample("train_tuples_per_s", tuples / par_s);
                ctx.sample(
                    "nolock_first_epoch_loss_ratio",
                    trained.history.losses()[0] / seq_losses[0],
                );
                for stat in &epoch_stats {
                    ctx.sample(
                        "parallel_gradient_ms",
                        stat.gradient_duration.as_secs_f64() * 1e3,
                    );
                }
                Some(trained.model)
            }
            Err(e) => {
                ctx.settle(Err(e.to_string()));
                None
            }
        };

        // Score every row with the freshly trained model.
        if let Some(model) = model {
            let published = handle.publish(&model);
            let (snapshot, secs) = ctx.op("core.serving.predict_batch", || {
                handle.predict_batch(&views, &mut predictions)
            });
            let version = snapshot.version();
            ctx.settle(
                published
                    .map_err(|e| e.to_string())
                    .and_then(|_| check_predictions(&predictions, &views, &model))
                    .and_then(|()| {
                        if version >= last_version {
                            Ok(())
                        } else {
                            Err(format!(
                                "snapshot version fell from {last_version} to {version}"
                            ))
                        }
                    }),
            );
            last_version = version;
            ctx.sample("predict_rows_per_s", rows as f64 / secs);
        }

        // NoLock run to the target.
        let (run, secs) = ctx.op("core.parallel.train_to_target", || {
            ParallelTrainer::new(&task, to_target.clone(), NOLOCK).try_train(&table)
        });
        let verdict = run.map_err(|e| e.to_string()).and_then(|(trained, _)| {
            let loss = trained.final_loss().unwrap_or(f64::NAN);
            if loss <= target {
                ctx.sample("time_to_target_s", secs);
                ctx.sample("epochs_to_target", trained.epochs() as f64);
                Ok(())
            } else {
                Err(format!(
                    "NoLock run stopped after {} epochs at loss {loss}, above the target {target}",
                    trained.epochs()
                ))
            }
        });
        ctx.settle(verdict);
    });

    let mut metrics = ctx.end_to_end();

    if cfg.trace {
        metrics.insert("bench.trace_overhead_frac", trace_overhead);
        let nnz: usize = views.iter().map(|v| v.nnz()).sum();
        probes::spanned(&mut ctx, "machine", || {
            probes::machine(&mut metrics, nnz * 12)
        });
        probes::spanned(&mut ctx, "linalg.sparse", || {
            probes::sparse_kernel(&mut metrics, &table, VOCABULARY)
        });
        probes::spanned(&mut ctx, "storage.scan", || {
            probes::scan_row(&mut metrics, &table)
        });
        probes::spanned(&mut ctx, "uda.executor", || {
            probes::executor(&mut metrics, &table)
        });
        probes::spanned(&mut ctx, "core.trainer", || {
            probes::trainer_split(&mut metrics, &task, &fixed, &table)
        });
        let seq_rate = ctx.median("seq_tuples_per_s");
        metrics.insert(
            "core.parallel.gradient_ms_per_epoch",
            ctx.median("parallel_gradient_ms"),
        );
        metrics.insert(
            "core.parallel.speedup_vs_seq",
            ctx.median("train_tuples_per_s") / seq_rate,
        );
        metrics.insert(
            "core.parallel.loss_ratio_vs_seq",
            ctx.median("nolock_first_epoch_loss_ratio"),
        );
        // One shared-nothing (model averaging) set for the layer metric.
        let pure_uda = ParallelStrategy::PureUda { segments: 2 };
        for _ in 0..3 {
            let (run, secs) = ctx.op("core.parallel.train_pure_uda", || {
                ParallelTrainer::new(&task, fixed.clone(), pure_uda).try_train(&table)
            });
            ctx.settle(run.map(|_| ()).map_err(|e| e.to_string()));
            ctx.sample("pure_uda_tuples_per_s", tuples / secs);
        }
        metrics.insert(
            "core.parallel.pureuda_speedup_vs_seq",
            ctx.median("pure_uda_tuples_per_s") / seq_rate,
        );
    }
    let note = format!(
        "reference: sequential losses {:?}, target {target} (between epochs 1 and 2), \
         {} hardware threads",
        &seq_losses[..epochs.min(4)],
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    Ok(ctx.finish(metrics, note))
}
