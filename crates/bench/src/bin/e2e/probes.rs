//! Per-layer probes for the traced run: each times one layer's public
//! functions from outside, on the workload's own inputs, and files the result
//! under that layer's metric names.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bismarck_core::frontend::{infer_dimension, persist_model};
use bismarck_core::serving::ModelHandle;
use bismarck_core::task::IgdTask;
use bismarck_core::{Trainer, TrainerConfig};
use bismarck_linalg::ops::{dot, scale_and_add};
use bismarck_sql::parse_statement;
use bismarck_storage::scan::shuffled_indices;
use bismarck_storage::wal::WalWriter;
use bismarck_storage::{
    ColumnarTable, Database, NullAggregate, PagerStats, ScanOrder, Table, TupleScan,
};
use bismarck_uda::{run_segmented_parallel, run_sequential, CountAggregate};

use crate::data::FEATURES_COL;
use crate::harness::{median_secs, Ctx, Metrics};
use crate::spec::DENSE_DIM;
use crate::stats;

/// Repetitions of a probe that takes milliseconds.
const REPS: usize = 7;

/// Largest buffer the bandwidth ceilings stream over.
const MAX_CEILING_BYTES: usize = 64 << 20;

/// Run `probe` inside a span named after its layer, so the trace shows where
/// the traced run's extra time went.
pub fn spanned<T>(ctx: &mut Ctx, layer: &'static str, probe: impl FnOnce() -> T) -> T {
    let token = ctx.tracer.enter(layer, 0);
    let out = probe();
    ctx.tracer.exit(token);
    out
}

/// Sum over eight independent accumulators: one dependent chain of adds is
/// bound by the add latency, not by memory, and would understate the ceiling.
fn sum_lanes(data: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = data.chunks_exact(8);
    let tail: f64 = chunks.remainder().iter().sum();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v;
        }
    }
    lanes.iter().sum::<f64>() + tail
}

/// Same-run bandwidth ceilings over a buffer the size of the feature data: a
/// sum and a copy. Denominators only.
pub fn machine(metrics: &mut Metrics, feature_bytes: usize) {
    let len = (feature_bytes.clamp(1 << 20, MAX_CEILING_BYTES) / 8).max(1);
    let src: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
    let mut dst = vec![0.0f64; len];
    let bytes = (len * 8) as f64;
    let sum_s = median_secs(REPS, || {
        black_box(sum_lanes(black_box(&src)));
    });
    let copy_s = median_secs(REPS, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    metrics.insert("machine.sum_gb_per_s", bytes / sum_s / 1e9);
    // A copy reads and writes every byte.
    metrics.insert("machine.memcpy_gb_per_s", 2.0 * bytes / copy_s / 1e9);
}

/// The dense kernels at the benchmark's dimension, cache-resident, and `dot`
/// streaming over arrays the size of the feature data.
pub fn dense_kernels(metrics: &mut Metrics, feature_bytes: usize, calls: usize) {
    const VECTORS: usize = 64;
    let xs: Vec<Vec<f64>> = (0..VECTORS)
        .map(|v| {
            (0..DENSE_DIM)
                .map(|i| ((v * 31 + i) % 17) as f64 * 0.01)
                .collect()
        })
        .collect();
    let mut w = vec![0.01f64; DENSE_DIM];
    let dot_s = median_secs(REPS, || {
        let mut acc = 0.0;
        for call in 0..calls {
            acc += dot(black_box(&w), &xs[call % VECTORS]);
        }
        black_box(acc);
    });
    let axpy_s = median_secs(REPS, || {
        for call in 0..calls {
            scale_and_add(black_box(&mut w), &xs[call % VECTORS], 1e-9);
        }
    });
    metrics.insert("linalg.ops.dot_d54_ns", dot_s * 1e9 / calls as f64);
    metrics.insert("linalg.ops.axpy_d54_ns", axpy_s * 1e9 / calls as f64);

    let len = (feature_bytes.clamp(1 << 20, MAX_CEILING_BYTES) / 16).max(1);
    let a: Vec<f64> = (0..len).map(|i| i as f64 * 1e-6).collect();
    let b = vec![0.5f64; len];
    let stream_s = median_secs(REPS, || {
        black_box(dot(black_box(&a), black_box(&b)));
    });
    metrics.insert(
        "linalg.ops.dot_stream_gb_per_s",
        (len * 16) as f64 / stream_s / 1e9,
    );
}

/// The sparse dot against a dense model, per row of the workload's table.
pub fn sparse_kernel(metrics: &mut Metrics, table: &Table, dimension: usize) {
    let w = vec![0.01f64; dimension];
    let secs = median_secs(REPS, || {
        let mut acc = 0.0;
        for tuple in table.scan() {
            if let Some(x) = tuple.feature_view(FEATURES_COL) {
                acc += x.dot(black_box(&w));
            }
        }
        black_box(acc);
    });
    // Includes the walk over the row store's tuples, which is how the kernel
    // is reached in training.
    metrics.insert(
        "linalg.sparse.dot_nnz40_ns",
        secs * 1e9 / table.len().max(1) as f64,
    );
}

/// Seconds per tuple of the NULL aggregate over `source`, in storage order or
/// following `order`.
fn null_scan_s<S: TupleScan + ?Sized>(source: &S, order: Option<&[usize]>, reps: usize) -> f64 {
    let secs = median_secs(reps, || {
        black_box(match order {
            Some(order) => NullAggregate::run_epoch_permuted(source, order),
            None => NullAggregate::run_epoch(source),
        });
    });
    secs / source.tuple_count().max(1) as f64
}

/// The permutation a `ShuffleOnce` epoch follows, and what generating it
/// costs.
fn shuffle_permutation(metrics: &mut Metrics, rows: usize) -> Vec<usize> {
    let secs = median_secs(REPS, || {
        black_box(shuffled_indices(rows, 42));
    });
    metrics.insert("storage.scan.shuffle_perm_ms", secs * 1e3);
    shuffled_indices(rows, 42)
}

/// NULL-aggregate scans over a ROW table, clustered and permuted.
pub fn scan_row(metrics: &mut Metrics, table: &Table) {
    let order = shuffle_permutation(metrics, table.len());
    metrics.insert(
        "storage.scan.row_clustered_ns_per_tuple",
        null_scan_s(table, None, REPS) * 1e9,
    );
    metrics.insert(
        "storage.scan.row_permuted_ns_per_tuple",
        null_scan_s(table, Some(&order), REPS) * 1e9,
    );
}

/// Bytes per second of `scan_dense_column` over the feature column.
fn dense_slice_bytes_per_s(table: &ColumnarTable, reps: usize) -> f64 {
    let mut bytes = 0usize;
    let secs = median_secs(reps, || {
        bytes = 0;
        let mut acc = 0.0;
        table
            .scan_dense_column(FEATURES_COL, &mut |slice| {
                bytes += slice.len() * 8;
                acc += sum_lanes(slice);
            })
            .expect("the feature column is DENSE_VEC");
        black_box(acc);
    });
    bytes as f64 / secs
}

/// NULL-aggregate and dense-slice scans over an in-memory COLUMNAR table.
/// Needs `machine.sum_gb_per_s` in `metrics` for the bandwidth fraction.
pub fn scan_columnar(metrics: &mut Metrics, table: &ColumnarTable) {
    let order = shuffle_permutation(metrics, table.len());
    metrics.insert(
        "storage.scan.col_clustered_ns_per_tuple",
        null_scan_s(table, None, REPS) * 1e9,
    );
    metrics.insert(
        "storage.scan.col_permuted_ns_per_tuple",
        null_scan_s(table, Some(&order), REPS) * 1e9,
    );
    let slice_gb = dense_slice_bytes_per_s(table, REPS) / 1e9;
    metrics.insert("storage.scan.col_dense_slice_gb_per_s", slice_gb);
    if let Some(&sum_gb) = metrics.get("machine.sum_gb_per_s") {
        metrics.insert("storage.scan.col_slice_frac_of_sum_bw", slice_gb / sum_gb);
    }
}

fn pager_delta(after: PagerStats, before: PagerStats) -> PagerStats {
    PagerStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        prefetches: after.prefetches - before.prefetches,
        bytes_read: after.bytes_read - before.bytes_read,
    }
}

/// Scans over a paged table, the pager's counters per clustered pass, and the
/// cost of a miss: the paged pass minus the same pass over an in-memory copy,
/// per miss.
pub fn scan_paged(metrics: &mut Metrics, paged: &ColumnarTable) {
    const PAGED_REPS: usize = 3;
    let before = paged.pager_stats().expect("table is paged");
    let paged_s = null_scan_s(paged, None, PAGED_REPS);
    let after = paged.pager_stats().expect("table is paged");
    let delta = pager_delta(after, before);
    let passes = PAGED_REPS as f64;
    metrics.insert("storage.scan.paged_clustered_ns_per_tuple", paged_s * 1e9);
    metrics.insert(
        "storage.scan.paged_dense_slice_gb_per_s",
        dense_slice_bytes_per_s(paged, PAGED_REPS) / 1e9,
    );
    let fetches = (delta.hits + delta.misses).max(1) as f64;
    metrics.insert("storage.pager.hit_rate", delta.hits as f64 / fetches);
    metrics.insert(
        "storage.pager.misses_per_epoch",
        delta.misses as f64 / passes,
    );
    metrics.insert(
        "storage.pager.evictions_per_epoch",
        delta.evictions as f64 / passes,
    );
    metrics.insert(
        "storage.pager.prefetches_per_epoch",
        delta.prefetches as f64 / passes,
    );
    metrics.insert(
        "storage.pager.bytes_read_per_epoch",
        delta.bytes_read as f64 / passes,
    );

    let mut resident = ColumnarTable::with_chunk_capacity(
        "resident",
        paged.schema().clone(),
        paged.chunk_capacity(),
    );
    paged.scan_tuples(&mut |tuple| {
        resident
            .insert(tuple.values().to_vec())
            .expect("rows of a valid table are valid");
    });
    let resident_s = null_scan_s(&resident, None, REPS);
    let misses_per_pass = (delta.misses as f64 / passes).max(1.0);
    let rows = paged.len() as f64;
    metrics.insert(
        "storage.pager.miss_us",
        (paged_s - resident_s).max(0.0) * rows / misses_per_pass * 1e6,
    );
}

/// The UDA executor with a counting aggregate: one thread, and two segments
/// on two threads.
pub fn executor<S: TupleScan + ?Sized>(metrics: &mut Metrics, source: &S) {
    let rows = source.tuple_count().max(1) as f64;
    let seq_s = median_secs(REPS, || {
        black_box(run_sequential(&CountAggregate, source, None));
    });
    let par_s = median_secs(REPS, || {
        black_box(run_segmented_parallel(&CountAggregate, source, 2));
    });
    metrics.insert("uda.executor.null_seq_ns_per_tuple", seq_s * 1e9 / rows);
    metrics.insert("uda.executor.null_par2_ns_per_tuple", par_s * 1e9 / rows);
}

/// Split of a sequential training run, taken from the history a direct
/// `Trainer` run returns and a separately timed loss pass. Returns the median
/// wall time of the whole run in seconds.
pub fn trainer_split<T: IgdTask, S: TupleScan + ?Sized>(
    metrics: &mut Metrics,
    task: &T,
    config: &TrainerConfig,
    source: &S,
) -> f64 {
    const RUNS: usize = 5;
    let rows = source.tuple_count().max(1) as f64;
    let trainer = Trainer::new(task, config.clone());
    let mut run_walls = Vec::with_capacity(RUNS);
    let mut epoch_s = Vec::new();
    let mut shuffle_s = Vec::new();
    let mut model = task.initial_model();
    for _ in 0..RUNS {
        let start = Instant::now();
        let trained = trainer.train(source);
        run_walls.push(start.elapsed().as_secs_f64());
        let records = trained.history.records();
        epoch_s.extend(records.iter().map(|r| r.duration.as_secs_f64()));
        shuffle_s.push(
            trained.history.total_shuffle_duration().as_secs_f64() / records.len().max(1) as f64,
        );
        model = trained.model;
    }
    let loss_s = median_secs(REPS, || {
        black_box(trainer.objective(black_box(&model), source));
    });
    let epoch_p50 = stats::median(&epoch_s);
    let shuffle_per_epoch = stats::median(&shuffle_s);
    let null_s = match config.scan_order {
        ScanOrder::Clustered => null_scan_s(source, None, 3),
        _ => null_scan_s(source, Some(&shuffled_indices(source.tuple_count(), 42)), 3),
    } * rows;
    metrics.insert("core.trainer.epoch_ms_p50", epoch_p50 * 1e3);
    metrics.insert("core.trainer.shuffle_ms_per_epoch", shuffle_per_epoch * 1e3);
    metrics.insert("core.trainer.loss_pass_ns_per_tuple", loss_s * 1e9 / rows);
    metrics.insert(
        "core.trainer.gradient_ns_per_tuple",
        (epoch_p50 - shuffle_per_epoch - loss_s).max(0.0) * 1e9 / rows,
    );
    metrics.insert("core.trainer.overhead_vs_null", epoch_p50 / null_s);
    stats::median(&run_walls)
}

/// Epoch time per tuple of direct `Trainer` runs over a ROW table larger than
/// L2: set against `core.trainer.epoch_ms_p50` over the workload's own small
/// table it shows what the scan order costs in memory stalls once the walk
/// leaves the core's own cache. Not gated; on a shared host it moves with the
/// neighbours.
pub fn epoch_beyond_l2<T: IgdTask>(
    metrics: &mut Metrics,
    task: &T,
    config: &TrainerConfig,
    table: &Table,
) {
    const RUNS: usize = 3;
    let trainer = Trainer::new(task, config.clone());
    let mut epoch_s = Vec::new();
    for _ in 0..RUNS {
        let trained = trainer.train(table);
        epoch_s.extend(
            trained
                .history
                .records()
                .iter()
                .map(|r| r.duration.as_secs_f64()),
        );
    }
    metrics.insert(
        "core.trainer.epoch_32k_rows_ns_per_tuple",
        stats::median(&epoch_s) * 1e9 / table.len().max(1) as f64,
    );
}

/// The front end's fixed costs around a training run: the dimension-inferring
/// scan and persisting the model as a table.
pub fn frontend<S: TupleScan + ?Sized>(metrics: &mut Metrics, source: &S, weights: &[f64]) {
    let infer_s = median_secs(REPS, || {
        black_box(infer_dimension(source, FEATURES_COL));
    });
    let mut db = Database::new();
    let persist_s = median_secs(REPS, || {
        persist_model(&mut db, "probe_model", black_box(weights)).expect("in-memory persist");
    });
    metrics.insert("core.frontend.infer_dimension_ms", infer_s * 1e3);
    metrics.insert("core.frontend.persist_ms", persist_s * 1e3);
}

/// Seconds to parse `sql` (median).
pub fn parse_s(sql: &str) -> f64 {
    median_secs(REPS, || {
        black_box(parse_statement(black_box(sql)).expect("the harness's statements parse"));
    })
}

/// The serving handle's primitives: acquiring a snapshot and publishing a
/// model of the handle's dimension.
pub fn serving_primitives(metrics: &mut Metrics, handle: &ModelHandle, calls: usize) {
    let publishes = (calls / 100).max(10);
    let snapshot_s = median_secs(REPS, || {
        for _ in 0..calls {
            black_box(handle.snapshot());
        }
    });
    let weights = vec![0.25f64; handle.dimension()];
    let publish_us: Vec<f64> = (0..publishes)
        .map(|_| {
            let start = Instant::now();
            handle.publish(black_box(&weights)).expect("finite model");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.insert("core.serving.snapshot_ns", snapshot_s * 1e9 / calls as f64);
    metrics.insert("core.serving.publish_us_p50", stats::median(&publish_us));
}

/// `WalWriter::append` of a 4 KiB operation, fsync included, in `dir`.
pub fn wal_append(metrics: &mut Metrics, dir: &Path) {
    const APPENDS: usize = 100;
    const OP_BYTES: usize = 4096;
    let path = dir.join("probe.wal");
    let mut writer = WalWriter::create(&path).expect("create probe WAL");
    let op = vec![0xA5u8; OP_BYTES];
    let append_us: Vec<f64> = (0..APPENDS)
        .map(|_| {
            let start = Instant::now();
            writer.append(black_box(&op)).expect("append to probe WAL");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.insert("storage.wal.append_us_p50", stats::median(&append_us));
    metrics.insert(
        "storage.wal.append_us_p90",
        stats::percentile(&append_us, 90.0),
    );
    metrics.insert(
        "storage.wal.bytes_per_user_byte",
        (writer.size_bytes() - bismarck_storage::wal::WAL_HEADER_LEN) as f64
            / (APPENDS * OP_BYTES) as f64,
    );
}

/// Seconds one `WalWriter::append` of `op_bytes` takes in `dir` (median); what
/// an INSERT statement of that size spends on the log.
pub fn wal_append_s(dir: &Path, op_bytes: usize) -> f64 {
    let mut writer = WalWriter::create(&dir.join("probe-large.wal")).expect("create probe WAL");
    let op = vec![0x5Au8; op_bytes];
    median_secs(REPS, || {
        writer.append(black_box(&op)).expect("append to probe WAL");
    })
}

/// `Database::open` on a populated directory and `Database::compact` of it.
pub fn catalog(metrics: &mut Metrics, dir: &Path) {
    let mut replayed = 0;
    let open_s = median_secs(REPS, || {
        let (db, report) = Database::open(dir).expect("reopen the populated directory");
        replayed = report.records_replayed;
        black_box(db);
    });
    let (mut db, _) = Database::open(dir).expect("reopen the populated directory");
    let compact_s = median_secs(3, || {
        db.compact().expect("compact the populated directory");
    });
    metrics.insert("storage.catalog.open_ms", open_s * 1e3);
    metrics.insert("storage.catalog.compact_ms", compact_s * 1e3);
    metrics.insert("storage.catalog.replayed_records", replayed as f64);
}
