//! `serve_during_train`: one `ModelHandle`, one `predict_batch` reader, and a
//! sequential trainer thread publishing every epoch. Each cycle measures the
//! reader alone, then the reader beside one training run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bismarck_core::{ModelHandle, ServingTask, Trainer, TrainerConfig};
use bismarck_linalg::FeatureVectorRef;
use bismarck_storage::{ScanOrder, Table};

use super::{dense_lr_task, fixed_epochs_config, Reference};
use crate::data::{dense_table, FEATURES_COL};
use crate::harness::{run_cycles, Ctx, Outcome, RunConfig};
use crate::probes;
use crate::spec::DENSE_DIM;
use crate::trace::Tracer;

/// What one reader window saw.
struct Window {
    rows: u64,
    /// First violated invariant, if any.
    fault: Option<String>,
}

/// The reader: scores batches of `batch` rows round-robin over `views`,
/// checking that outputs are finite and snapshot versions never fall.
struct Reader<'a> {
    handle: &'a ModelHandle,
    views: &'a [FeatureVectorRef<'a>],
    batch: usize,
    next: usize,
    out: Vec<f64>,
    last_version: u64,
}

impl Reader<'_> {
    fn score_one_batch(&mut self, window: &mut Window) {
        let end = (self.next + self.batch).min(self.views.len());
        let snapshot = self
            .handle
            .predict_batch(&self.views[self.next..end], &mut self.out);
        window.rows += (end - self.next) as u64;
        self.next = if end == self.views.len() { 0 } else { end };
        if window.fault.is_none() {
            if !self.out.iter().sum::<f64>().is_finite() {
                window.fault = Some("a served prediction is not finite".into());
            } else if snapshot.version() < self.last_version {
                window.fault = Some(format!(
                    "snapshot version fell from {} to {}",
                    self.last_version,
                    snapshot.version()
                ));
            }
        }
        self.last_version = self.last_version.max(snapshot.version());
    }
}

pub fn run(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let rows = cfg.sizes.serve_rows;
    let epochs = cfg.sizes.serve_epochs;
    let mut ctx = Ctx::new(cfg.trace);

    let table: Table = ctx.timed_setup(&cfg.sizes, || dense_table("t", rows, cfg.seed));
    let task = dense_lr_task();
    let base = TrainerConfig::default().with_scan_order(ScanOrder::Clustered);
    let reference = Reference::dense_lr(&table, &base, epochs);
    let handle = ModelHandle::new(ServingTask::Logistic, DENSE_DIM);
    let train_config = fixed_epochs_config(&base, epochs).with_serving(handle.clone());

    let views: Vec<FeatureVectorRef<'_>> = table
        .scan()
        .map(|t| {
            t.feature_view(FEATURES_COL)
                .expect("generated feature vector")
        })
        .collect();
    let mut reader = Reader {
        handle: &handle,
        views: &views,
        batch: cfg.sizes.serve_batch,
        next: 0,
        out: Vec::with_capacity(cfg.sizes.serve_batch),
        last_version: 0,
    };
    let tuples = (rows * epochs) as f64;
    let mut runs = 0u64;

    let trace_overhead = run_cycles(&mut ctx, cfg, |ctx, index| {
        // The reader alone.
        let mut idle = Window {
            rows: 0,
            fault: None,
        };
        let (_, idle_s) = ctx.op("core.serving.idle_window", || {
            for _ in 0..cfg.sizes.serve_idle_batches {
                reader.score_one_batch(&mut idle);
            }
        });
        ctx.settle(idle.fault.map_or(Ok(()), Err));
        ctx.sample("idle_rows_per_s", idle.rows as f64 / idle_s);

        // The reader beside one training run publishing every epoch.
        let mut busy = Window {
            rows: 0,
            fault: None,
        };
        let done = AtomicBool::new(false);
        let timer = ctx.begin("core.serving.busy_window");
        let (trained, train_start, train_end) = std::thread::scope(|scope| {
            let trainer = scope.spawn(|| {
                let start = Instant::now();
                let trained = Trainer::new(&task, train_config.clone()).try_train(&table);
                let end = Instant::now();
                // Release pairs with the reader's Acquire: the reader stops
                // only after the last publish is visible.
                done.store(true, Ordering::Release);
                (trained, start, end)
            });
            while !done.load(Ordering::Acquire) {
                reader.score_one_batch(&mut busy);
            }
            trainer.join().expect("the trainer thread does not panic")
        });
        ctx.tracer
            .record("core.trainer.train", index as u64, train_start, train_end);
        let busy_s = ctx.end(timer);
        ctx.settle(busy.fault.map_or(Ok(()), Err));
        ctx.sample("predict_rows_per_s", busy.rows as f64 / busy_s);

        let train_s = (train_end - train_start).as_secs_f64();
        runs += 1;
        let verdict = trained.map_err(|e| e.to_string()).and_then(|trained| {
            if trained.model != reference.weights {
                return Err("training beside a reader changed the model".to_string());
            }
            let history = &trained.history;
            match (
                history.time_to_reach(reference.target),
                history.epochs_to_reach(reference.target),
            ) {
                (Some(time), Some(epochs)) => {
                    ctx.sample("time_to_target_s", time.as_secs_f64());
                    ctx.sample("epochs_to_target", epochs as f64);
                    Ok(())
                }
                _ => Err("the training run never reached its target".to_string()),
            }
        });
        ctx.check(verdict);
        ctx.sample("train_tuples_per_s", tuples / train_s);
    });

    // Every healthy epoch of every run was published exactly once.
    let expected_version = runs * epochs as u64;
    ctx.check(if handle.version() == expected_version {
        Ok(())
    } else {
        Err(format!(
            "handle is at version {}, {runs} runs of {epochs} epochs publish {expected_version}",
            handle.version()
        ))
    });

    let mut metrics = ctx.end_to_end();

    if cfg.trace {
        metrics.insert("bench.trace_overhead_frac", trace_overhead);
        let idle = ctx.median("idle_rows_per_s");
        let busy = ctx.median("predict_rows_per_s");
        metrics.insert("core.serving.idle_rows_per_s", idle);
        metrics.insert("core.serving.busy_rows_per_s", busy);
        metrics.insert("core.serving.retained_frac", busy / idle);
        metrics.insert(
            "core.serving.versions_per_s",
            epochs as f64 / ctx.median("core.serving.busy_window"),
        );
        let feature_bytes = rows * DENSE_DIM * 8;
        probes::spanned(&mut ctx, "machine", || {
            probes::machine(&mut metrics, feature_bytes)
        });
        probes::spanned(&mut ctx, "linalg.ops", || {
            probes::dense_kernels(&mut metrics, feature_bytes, cfg.sizes.probe_calls)
        });
        probes::spanned(&mut ctx, "storage.scan", || {
            probes::scan_row(&mut metrics, &table)
        });
        probes::spanned(&mut ctx, "core.trainer", || {
            probes::trainer_split(
                &mut metrics,
                &task,
                &fixed_epochs_config(&base, epochs),
                &table,
            )
        });
        // On its own handle, so the workload's version count stays exact.
        let probe_handle = ModelHandle::new(ServingTask::Logistic, DENSE_DIM);
        probes::spanned(&mut ctx, "core.serving", || {
            probes::serving_primitives(&mut metrics, &probe_handle, cfg.sizes.probe_calls)
        });
    }
    let note = format!(
        "reference: {epochs} epochs, final loss {}, target {}; reader and trainer are one \
         thread each on {} hardware threads",
        reference.final_loss(),
        reference.target,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    Ok(ctx.finish(metrics, note))
}
