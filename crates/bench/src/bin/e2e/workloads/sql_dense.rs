//! The three SQL dense workloads: the same `LRTrain` / `PREDICT` / train-to-
//! target cycle over a ROW table (shuffled), a COLUMNAR table and a paged
//! columnar table (both clustered). They stay separate workloads so a gain on
//! one layout cannot hide a loss on another.

use std::path::Path;
use std::time::Instant;

use bismarck_core::TrainerConfig;
use bismarck_sql::SqlSession;
use bismarck_storage::{ColumnarTable, ScanOrder, Table, TupleScan};

use super::{
    check_persisted_model, count_predict_statement, dense_lr_task, fixed_epochs_config,
    predict_statement, reference_positive_count, train_sql, train_statement, Reference,
};
use crate::data::{self, dense_features, dense_table};
use crate::harness::{dir_bytes, median_secs, run_cycles, Ctx, Metrics, Outcome, RunConfig};
use crate::probes;
use crate::spec::DENSE_DIM;
use crate::stats;
use crate::trace::Tracer;

/// Physical layout of the training and score tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Row,
    Columnar,
    Paged,
}

/// Model names cycle through this many tables, so the catalog stays bounded.
const MODEL_NAMES: usize = 24;

/// The loaded system plus what set-up learned on the way.
struct Loaded {
    session: SqlSession,
    train_table: &'static str,
    score_table: &'static str,
    /// The generated ROW copy, kept where the session does not hold one, for
    /// the reference run.
    row_copy: Option<Table>,
    score_features: Vec<Vec<f64>>,
    /// Rows per second of the layout-specific load step (CTAS or paged build).
    load_rows_per_s: f64,
}

struct Plan {
    layout: Layout,
    rows: usize,
    score_rows: usize,
    epochs: usize,
    chunk: usize,
}

impl Plan {
    fn new(cfg: &RunConfig, layout: Layout) -> Plan {
        let s = &cfg.sizes;
        match layout {
            Layout::Row => Plan {
                layout,
                rows: s.row_rows,
                score_rows: s.row_score_rows,
                epochs: s.row_epochs,
                chunk: 0,
            },
            Layout::Columnar => Plan {
                layout,
                rows: s.col_rows,
                score_rows: s.col_score_rows,
                epochs: s.col_epochs,
                chunk: 0,
            },
            Layout::Paged => Plan {
                layout,
                rows: s.paged_rows,
                score_rows: s.paged_score_rows,
                epochs: s.paged_epochs,
                chunk: s.paged_chunk,
            },
        }
    }

    /// The session's base trainer configuration: the default (ShuffleOnce)
    /// for the ROW workload, Clustered for the columnar ones.
    fn base_config(&self) -> TrainerConfig {
        match self.layout {
            Layout::Row => TrainerConfig::default(),
            Layout::Columnar | Layout::Paged => {
                TrainerConfig::default().with_scan_order(ScanOrder::Clustered)
            }
        }
    }

    /// Segments a paged table's cache holds: an eighth of its segments.
    fn cache_segments(&self, rows: usize) -> usize {
        (rows.div_ceil(self.chunk.max(1)) / 8).max(1)
    }
}

/// Build a paged copy of `table` under `dir`, flushed.
fn build_paged(
    table: &Table,
    name: &str,
    dir: &Path,
    plan: &Plan,
) -> Result<ColumnarTable, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut paged = ColumnarTable::create_paged(
        name,
        table.schema().clone(),
        dir,
        plan.chunk,
        plan.cache_segments(table.len()),
    )
    .map_err(|e| format!("create paged table: {e}"))?;
    for tuple in table.scan() {
        paged
            .insert(tuple.values().to_vec())
            .map_err(|e| format!("insert into paged table: {e}"))?;
    }
    paged
        .flush()
        .map_err(|e| format!("flush paged table: {e}"))?;
    Ok(paged)
}

/// Seed → generated data → tables loaded.
fn load(cfg: &RunConfig, plan: &Plan, scratch: &Path) -> Result<Loaded, String> {
    let train = dense_table("t", plan.rows, cfg.seed);
    let score = dense_table("score", plan.score_rows, cfg.seed.wrapping_add(1));
    let score_features = dense_features(&score);
    let mut session = SqlSession::new().with_trainer_config(plan.base_config());
    let exec = |session: &mut SqlSession, sql: &str| {
        session
            .execute(sql)
            .map(|_| ())
            .map_err(|e| format!("{sql}: {e}"))
    };
    match plan.layout {
        Layout::Row => {
            session.register_table(train).map_err(|e| e.to_string())?;
            session.register_table(score).map_err(|e| e.to_string())?;
            Ok(Loaded {
                session,
                train_table: "t",
                score_table: "score",
                row_copy: None,
                score_features,
                load_rows_per_s: 0.0,
            })
        }
        Layout::Columnar => {
            session.register_table(train).map_err(|e| e.to_string())?;
            session.register_table(score).map_err(|e| e.to_string())?;
            let start = Instant::now();
            exec(
                &mut session,
                "CREATE TABLE c STORAGE = COLUMNAR AS SELECT * FROM t",
            )?;
            let ctas_s = start.elapsed().as_secs_f64();
            exec(
                &mut session,
                "CREATE TABLE cscore STORAGE = COLUMNAR AS SELECT * FROM score",
            )?;
            Ok(Loaded {
                session,
                train_table: "c",
                score_table: "cscore",
                row_copy: None,
                score_features,
                load_rows_per_s: plan.rows as f64 / ctas_s,
            })
        }
        Layout::Paged => {
            let start = Instant::now();
            let paged = build_paged(&train, "p", &scratch.join("train"), plan)?;
            let build_s = start.elapsed().as_secs_f64();
            let paged_score = build_paged(&score, "pscore", &scratch.join("score"), plan)?;
            session
                .register_columnar_table(paged)
                .map_err(|e| e.to_string())?;
            session
                .register_columnar_table(paged_score)
                .map_err(|e| e.to_string())?;
            Ok(Loaded {
                session,
                train_table: "p",
                score_table: "pscore",
                row_copy: Some(train),
                score_features,
                load_rows_per_s: plan.rows as f64 / build_s,
            })
        }
    }
}

pub fn run(cfg: &RunConfig, layout: Layout) -> Result<(Outcome, Tracer), String> {
    let plan = Plan::new(cfg, layout);
    let scratch = cfg.scratch_dir()?;
    let mut ctx = Ctx::new(cfg.trace);

    let loaded = ctx.timed_setup(&cfg.sizes, || load(cfg, &plan, scratch.path()));
    let Loaded {
        mut session,
        train_table,
        score_table,
        row_copy,
        score_features,
        load_rows_per_s,
    } = loaded?;

    // The reference sequential run on the ROW copy, through the Rust API.
    let base = plan.base_config();
    let reference = {
        let row: &Table = match &row_copy {
            Some(table) => table,
            None => session.database().table("t").map_err(|e| e.to_string())?,
        };
        Reference::dense_lr(row, &base, plan.epochs)
    };
    drop(row_copy);
    session = session.with_trainer_config(base.clone().with_convergence(reference.target_test()));

    let rows = plan.rows as f64;
    let trace_overhead = run_cycles(&mut ctx, cfg, |ctx, index| {
        let model = format!("m_{}", index % MODEL_NAMES);
        if let Some((epochs, secs)) = train_statement(
            ctx,
            &mut session,
            "sql.exec.train",
            &reference,
            &model,
            train_table,
            Some(plan.epochs),
        ) {
            ctx.sample("train_tuples_per_s", rows * epochs as f64 / secs);
        }
        // Straight after the training statement, so both run over a table
        // that is as warm as the other leaves it, whatever PREDICT touched.
        if let Some((epochs, secs)) = train_statement(
            ctx,
            &mut session,
            "sql.exec.train_to_target",
            &reference,
            "m_target",
            train_table,
            None,
        ) {
            ctx.sample("time_to_target_s", secs);
            ctx.sample("epochs_to_target", epochs as f64);
        }
        for _ in 0..cfg.sizes.predicts_per_cycle {
            if let Some(secs) = predict_statement(
                ctx,
                &mut session,
                "m_0",
                score_table,
                &score_features,
                &reference.weights,
            ) {
                ctx.sample("predict_rows_per_s", plan.score_rows as f64 / secs);
            }
        }
    });

    // Same statement, another layout: the persisted model must equal the
    // reference run on the ROW copy bit for bit.
    let verdict = check_persisted_model(&mut session, "m_0", &reference);
    ctx.check(verdict);

    let mut metrics = ctx.end_to_end();

    if cfg.trace {
        metrics.insert("bench.trace_overhead_frac", trace_overhead);
        layer_metrics(
            &mut ctx,
            &mut metrics,
            cfg,
            &plan,
            &mut session,
            &reference,
            &LayerInputs {
                train_table,
                score_table,
                score_features: &score_features,
                load_rows_per_s,
                scratch: scratch.path(),
            },
        )?;
    }
    let note = format!(
        "reference: {} epochs, final loss {}, target {} reached after {} epoch(s)",
        plan.epochs,
        reference.final_loss(),
        reference.target,
        reference.epochs_to_target()
    );
    Ok(ctx.finish(metrics, note))
}

struct LayerInputs<'a> {
    train_table: &'static str,
    score_table: &'static str,
    score_features: &'a [Vec<f64>],
    load_rows_per_s: f64,
    scratch: &'a Path,
}

/// The traced run's per-layer probes for a SQL dense workload.
fn layer_metrics(
    ctx: &mut Ctx,
    metrics: &mut Metrics,
    cfg: &RunConfig,
    plan: &Plan,
    session: &mut SqlSession,
    reference: &Reference,
    inputs: &LayerInputs<'_>,
) -> Result<(), String> {
    let feature_bytes = plan.rows * DENSE_DIM * 8;
    probes::spanned(ctx, "machine", || probes::machine(metrics, feature_bytes));
    probes::spanned(ctx, "linalg.ops", || {
        probes::dense_kernels(metrics, feature_bytes, cfg.sizes.probe_calls)
    });

    // Scoring without result rows, for the split of the PREDICT statement.
    let expected_positive = reference_positive_count(inputs.score_features, &reference.weights);
    for _ in 0..cfg.sizes.predicts_per_cycle.max(3) {
        count_predict_statement(ctx, session, "m_0", inputs.score_table, expected_positive);
    }
    let score_rows = plan.score_rows as f64;
    metrics.insert(
        "sql.exec.count_predict_ns_per_row",
        ctx.median("sql.exec.count_predict") * 1e9 / score_rows,
    );

    // PREDICT statement against predict_batch over the same rows.
    let handle = bismarck_core::ModelHandle::with_initial(
        bismarck_core::ServingTask::LeastSquares,
        reference.weights.clone(),
    )
    .map_err(|e| e.to_string())?;
    let views: Vec<bismarck_linalg::FeatureVectorRef<'_>> = inputs
        .score_features
        .iter()
        .map(|x| bismarck_linalg::FeatureVectorRef::Dense(x))
        .collect();
    let mut out = Vec::with_capacity(views.len());
    let batch_s = probes::spanned(ctx, "core.serving", || {
        median_secs(7, || {
            std::hint::black_box(handle.predict_batch(&views, &mut out));
        })
    });
    let predict_s = ctx.samples("sql.exec.predict").to_vec();
    metrics.insert(
        "sql.exec.predict_overhead_ns_per_row",
        (stats::median(&predict_s) - batch_s) * 1e9 / score_rows,
    );
    metrics.insert(
        "sql.exec.predict_stmt_ms_p90",
        stats::percentile(&predict_s, 90.0) * 1e3,
    );
    let train_s = ctx.samples("sql.exec.train").to_vec();
    metrics.insert(
        "sql.exec.train_stmt_ms_p90",
        stats::percentile(&train_s, 90.0) * 1e3,
    );
    let parse_train_s = probes::spanned(ctx, "sql.parser", || {
        probes::parse_s(&train_sql("m_0", inputs.train_table, Some(plan.epochs)))
    });
    metrics.insert("sql.parser.train_stmt_us", parse_train_s * 1e6);

    // The layers under the training statement, on the workload's own table.
    let direct_s = match plan.layout {
        Layout::Row => {
            let table = session.database().table("t").map_err(|e| e.to_string())?;
            probes::spanned(ctx, "storage.scan", || probes::scan_row(metrics, table));
            let direct_s = training_layers(ctx, metrics, plan, table, reference);
            let beyond_l2 = dense_table("beyond_l2", cfg.sizes.beyond_l2_rows, cfg.seed);
            probes::spanned(ctx, "core.trainer", || {
                probes::epoch_beyond_l2(
                    metrics,
                    &dense_lr_task(),
                    &fixed_epochs_config(&plan.base_config(), plan.epochs),
                    &beyond_l2,
                )
            });
            direct_s
        }
        Layout::Columnar => {
            let row = session.database().table("t").map_err(|e| e.to_string())?;
            let from_table_s = probes::spanned(ctx, "storage.columnar", || {
                median_secs(3, || {
                    std::hint::black_box(ColumnarTable::from_table(row).expect("valid rows"));
                })
            });
            metrics.insert(
                "storage.columnar.from_table_rows_per_s",
                plan.rows as f64 / from_table_s,
            );
            metrics.insert("sql.exec.ctas_columnar_rows_per_s", inputs.load_rows_per_s);
            let table = session
                .columnar_table("c")
                .ok_or("columnar table 'c' is not registered")?;
            probes::spanned(ctx, "storage.scan", || {
                probes::scan_columnar(metrics, table)
            });
            training_layers(ctx, metrics, plan, table, reference)
        }
        Layout::Paged => {
            let dir = inputs.scratch.join("train");
            metrics.insert(
                "storage.columnar.paged_build_rows_per_s",
                inputs.load_rows_per_s,
            );
            metrics.insert(
                "storage.columnar.paged_bytes_per_user_byte",
                dir_bytes(&dir) as f64 / data::dense_user_bytes(plan.rows),
            );
            let cache = plan.cache_segments(plan.rows);
            let open_s = probes::spanned(ctx, "storage.columnar", || {
                median_secs(7, || {
                    std::hint::black_box(
                        ColumnarTable::open_paged(&dir, cache).expect("reopen the paged table"),
                    );
                })
            });
            metrics.insert("storage.columnar.open_paged_ms", open_s * 1e3);
            let table = session
                .columnar_table("p")
                .ok_or("paged table 'p' is not registered")?;
            probes::spanned(ctx, "storage.pager", || probes::scan_paged(metrics, table));
            training_layers(ctx, metrics, plan, table, reference)
        }
    };
    metrics.insert(
        "core.frontend.sql_overhead_ms",
        (stats::median(&train_s) - direct_s) * 1e3,
    );
    Ok(())
}

/// The executor, front-end and trainer probes over the training table in
/// whatever layout; returns the median wall of a direct `Trainer` run of the
/// statement's epochs, in seconds.
fn training_layers<S: TupleScan + ?Sized>(
    ctx: &mut Ctx,
    metrics: &mut Metrics,
    plan: &Plan,
    table: &S,
    reference: &Reference,
) -> f64 {
    let task = dense_lr_task();
    let config = fixed_epochs_config(&plan.base_config(), plan.epochs);
    probes::spanned(ctx, "uda.executor", || probes::executor(metrics, table));
    probes::spanned(ctx, "core.frontend", || {
        probes::frontend(metrics, table, &reference.weights)
    });
    probes::spanned(ctx, "core.trainer", || {
        probes::trainer_split(metrics, &task, &config, table)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_cache_holds_an_eighth_of_the_segments() {
        let cfg = RunConfig {
            workload: "paged_clustered_dense".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            sizes: crate::spec::FULL,
            scratch_root: crate::harness::default_scratch_root(),
        };
        let plan = Plan::new(&cfg, Layout::Paged);
        assert_eq!(plan.cache_segments(16_384), 2);
        assert_eq!(plan.cache_segments(100), 1);
    }
}
