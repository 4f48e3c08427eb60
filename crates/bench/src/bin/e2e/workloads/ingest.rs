//! `durable_ingest_reopen`: the write path beside the scan path. Each cycle
//! fills a fresh durable session through `INSERT ... VALUES` text (fsync per
//! append, default compaction threshold), trains, scores, closes, reopens the
//! directory and checks that nothing acknowledged was lost.

use std::path::Path;

use bismarck_core::TrainerConfig;
use bismarck_sql::SqlSession;
use bismarck_storage::ScanOrder;

use super::{
    count_predict_statement, reference_positive_count, single_count, train_sql, train_statement,
    Reference,
};
use crate::data::{
    create_dense_table_sql, dense_features, dense_table, dense_user_bytes, insert_statements,
};
use crate::harness::{dir_bytes, run_cycles, Ctx, Outcome, RunConfig};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

/// The generated inputs: the statements a client would send, and what the
/// harness needs to validate the answers.
struct Inputs {
    statements: Vec<String>,
    features: Vec<Vec<f64>>,
    reference: Reference,
}

fn base_config() -> TrainerConfig {
    TrainerConfig::default().with_scan_order(ScanOrder::Clustered)
}

fn generate(cfg: &RunConfig) -> Inputs {
    let rows = cfg.sizes.ingest_batches * cfg.sizes.ingest_batch_rows;
    let table = dense_table("src", rows, cfg.seed);
    Inputs {
        statements: insert_statements(&table, "d", cfg.sizes.ingest_batch_rows),
        features: dense_features(&table),
        // The SQL text carries every bit of every value, so training on the
        // ingested table must reproduce training on the generated one.
        reference: Reference::dense_lr(&table, &base_config(), cfg.sizes.ingest_epochs),
    }
}

/// `COUNT(*)` of table `d`, which must equal `expected`.
fn check_row_count(ctx: &mut Ctx, session: &mut SqlSession, expected: usize) {
    let (result, _) = ctx.op("sql.exec.count", || {
        session.execute("SELECT COUNT(*) FROM d")
    });
    ctx.settle(
        result
            .map_err(|e| e.to_string())
            .and_then(|r| single_count(&r))
            .and_then(|count| {
                if count == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "table d holds {count} rows, {expected} were acknowledged"
                    ))
                }
            }),
    );
}

fn open_session(
    ctx: &mut Ctx,
    op: &'static str,
    dir: &Path,
    inputs: &Inputs,
) -> Option<SqlSession> {
    let (opened, _) = ctx.op(op, || SqlSession::open(dir));
    match opened {
        Ok(session) => {
            ctx.settle(Ok(()));
            Some(session.with_trainer_config(
                base_config().with_convergence(inputs.reference.target_test()),
            ))
        }
        Err(e) => {
            ctx.settle(Err(format!("open {}: {e}", dir.display())));
            None
        }
    }
}

/// One cycle: ingest, train, score, close, reopen, verify.
fn cycle(ctx: &mut Ctx, cfg: &RunConfig, inputs: &Inputs, dir: &Path, expected_positive: usize) {
    let rows = inputs.features.len();
    let _ = std::fs::remove_dir_all(dir);
    let Some(mut session) = open_session(ctx, "sql.exec.open_fresh", dir, inputs) else {
        return;
    };
    let (created, _) = ctx.op("sql.exec.create_table", || {
        session.execute(&create_dense_table_sql("d"))
    });
    ctx.settle(created.map(|_| ()).map_err(|e| e.to_string()));

    let mut ingest_s = 0.0;
    for statement in &inputs.statements {
        let (result, secs) = ctx.op("sql.exec.insert", || session.execute(statement));
        ingest_s += secs;
        ctx.settle(result.map(|_| ()).map_err(|e| format!("INSERT: {e}")));
    }
    ctx.sample("ingest_rows_per_s", rows as f64 / ingest_s);

    let epochs = cfg.sizes.ingest_epochs;
    for _ in 0..cfg.sizes.ingest_statement_repeats {
        if let Some((ran, secs)) = train_statement(
            ctx,
            &mut session,
            "sql.exec.train",
            &inputs.reference,
            "m",
            "d",
            Some(epochs),
        ) {
            ctx.sample("train_tuples_per_s", (rows * ran) as f64 / secs);
        }
        if let Some((ran, secs)) = train_statement(
            ctx,
            &mut session,
            "sql.exec.train_to_target",
            &inputs.reference,
            "m_target",
            "d",
            None,
        ) {
            ctx.sample("time_to_target_s", secs);
            ctx.sample("epochs_to_target", ran as f64);
        }
        if let Some(secs) = count_predict_statement(ctx, &mut session, "m", "d", expected_positive)
        {
            ctx.sample("predict_rows_per_s", rows as f64 / secs);
        }
    }
    check_row_count(ctx, &mut session, rows);
    drop(session);
    ctx.sample(
        "disk_bytes_per_user_byte",
        dir_bytes(dir) as f64 / dense_user_bytes(rows),
    );

    // Recovery: every reopen must see the same rows and the same model.
    let mut reopened = None;
    for _ in 0..cfg.sizes.reopens {
        drop(reopened.take());
        reopened = open_session(ctx, "sql.exec.reopen", dir, inputs);
    }
    if let Some(mut session) = reopened {
        check_row_count(ctx, &mut session, rows);
        count_predict_statement(ctx, &mut session, "m", "d", expected_positive);
    }
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let scratch = cfg.scratch_dir()?;
    let dir = scratch.path().join("db");
    let mut ctx = Ctx::new(cfg.trace);

    let inputs = ctx.timed_setup(&cfg.sizes, || generate(cfg));
    let expected_positive = reference_positive_count(&inputs.features, &inputs.reference.weights);
    let rows = inputs.features.len();

    let trace_overhead = run_cycles(&mut ctx, cfg, |ctx, _| {
        cycle(ctx, cfg, &inputs, &dir, expected_positive)
    });

    let mut metrics = ctx.end_to_end();

    if cfg.trace {
        metrics.insert("bench.trace_overhead_frac", trace_overhead);
        let insert_s = ctx.samples("sql.exec.insert").to_vec();
        metrics.insert(
            "sql.exec.ingest_rows_per_s",
            ctx.median("ingest_rows_per_s"),
        );
        metrics.insert(
            "sql.exec.ingest_stmt_ms_p50",
            stats::median(&insert_s) * 1e3,
        );
        metrics.insert(
            "sql.exec.ingest_stmt_ms_p90",
            stats::percentile(&insert_s, 90.0) * 1e3,
        );
        metrics.insert(
            "sql.exec.reopen_ms_p50",
            ctx.median("sql.exec.reopen") * 1e3,
        );
        metrics.insert(
            "sql.exec.train_stmt_ms_p90",
            stats::percentile(ctx.samples("sql.exec.train"), 90.0) * 1e3,
        );
        metrics.insert(
            "sql.exec.count_predict_ns_per_row",
            ctx.median("sql.exec.count_predict") * 1e9 / rows as f64,
        );
        metrics.insert(
            "storage.catalog.disk_bytes_per_user_byte",
            ctx.median("disk_bytes_per_user_byte"),
        );

        let statement = &inputs.statements[0];
        let parse_insert_s = probes::spanned(&mut ctx, "sql.parser", || probes::parse_s(statement));
        let parse_train_s = probes::spanned(&mut ctx, "sql.parser", || {
            probes::parse_s(&train_sql("m", "d", Some(cfg.sizes.ingest_epochs)))
        });
        metrics.insert(
            "sql.parser.insert_mb_per_s",
            statement.len() as f64 / parse_insert_s / 1e6,
        );
        metrics.insert("sql.parser.train_stmt_us", parse_train_s * 1e6);
        // The last cycle's directory is still populated: probe the log and
        // the catalog where the workload wrote them.
        probes::spanned(&mut ctx, "storage.wal", || {
            probes::wal_append(&mut metrics, scratch.path())
        });
        let batch_bytes = dense_user_bytes(cfg.sizes.ingest_batch_rows) as usize;
        let append_s = probes::spanned(&mut ctx, "storage.wal", || {
            probes::wal_append_s(scratch.path(), batch_bytes)
        });
        metrics.insert(
            "sql.exec.insert_exec_ms_p50",
            (stats::median(&insert_s) - parse_insert_s - append_s) * 1e3,
        );
        probes::spanned(&mut ctx, "storage.catalog", || {
            probes::catalog(&mut metrics, &dir)
        });
    }
    let note = format!(
        "per cycle: {} INSERTs of {} rows ({} bytes of SQL each), {} reopens; flush policy: \
         fsync per WAL append; compaction threshold: the default",
        inputs.statements.len(),
        cfg.sizes.ingest_batch_rows,
        inputs.statements[0].len(),
        cfg.sizes.reopens,
    );
    Ok(ctx.finish(metrics, note))
}
