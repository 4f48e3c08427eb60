//! The benchmark's fixed vocabulary: workloads, metric names and input sizes.
//!
//! `BENCHMARK.json` at the repository root is the published copy of the
//! workload and metric tables; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before it counts as a regression; per-layer metrics carry 0 (no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cycle_ms", "ms", Lower, 0.25),
    e2e("train_tuples_per_s", "tuples/s", Higher, 0.25),
    e2e("predict_rows_per_s", "rows/s", Higher, 0.25),
    e2e("time_to_target_s", "s", Lower, 0.25),
    e2e("epochs_to_target", "count", Lower, 0.1),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer measurements from the traced run. A workload reports 0 for a
/// layer it does not exercise.
pub const PER_LAYER: &[Metric] = &[
    layer("machine.sum_gb_per_s", "GB/s", Higher),
    layer("machine.memcpy_gb_per_s", "GB/s", Higher),
    layer("linalg.ops.dot_d54_ns", "ns", Lower),
    layer("linalg.ops.axpy_d54_ns", "ns", Lower),
    layer("linalg.ops.dot_stream_gb_per_s", "GB/s", Higher),
    layer("linalg.sparse.dot_nnz40_ns", "ns", Lower),
    layer("storage.scan.row_clustered_ns_per_tuple", "ns", Lower),
    layer("storage.scan.row_permuted_ns_per_tuple", "ns", Lower),
    layer("storage.scan.col_clustered_ns_per_tuple", "ns", Lower),
    layer("storage.scan.col_permuted_ns_per_tuple", "ns", Lower),
    layer("storage.scan.paged_clustered_ns_per_tuple", "ns", Lower),
    layer("storage.scan.col_dense_slice_gb_per_s", "GB/s", Higher),
    layer("storage.scan.paged_dense_slice_gb_per_s", "GB/s", Higher),
    layer("storage.scan.col_slice_frac_of_sum_bw", "ratio", Higher),
    layer("storage.scan.shuffle_perm_ms", "ms", Lower),
    layer("storage.pager.hit_rate", "ratio", Higher),
    layer("storage.pager.misses_per_epoch", "count", Lower),
    layer("storage.pager.evictions_per_epoch", "count", Lower),
    layer("storage.pager.prefetches_per_epoch", "count", Higher),
    layer("storage.pager.bytes_read_per_epoch", "bytes", Lower),
    layer("storage.pager.miss_us", "us", Lower),
    layer("storage.columnar.from_table_rows_per_s", "rows/s", Higher),
    layer("storage.columnar.paged_build_rows_per_s", "rows/s", Higher),
    layer("storage.columnar.open_paged_ms", "ms", Lower),
    layer("storage.columnar.paged_bytes_per_user_byte", "ratio", Lower),
    layer("storage.wal.append_us_p50", "us", Lower),
    layer("storage.wal.append_us_p90", "us", Lower),
    layer("storage.wal.bytes_per_user_byte", "ratio", Lower),
    layer("storage.catalog.open_ms", "ms", Lower),
    layer("storage.catalog.compact_ms", "ms", Lower),
    layer("storage.catalog.replayed_records", "count", Lower),
    layer("storage.catalog.disk_bytes_per_user_byte", "ratio", Lower),
    layer("uda.executor.null_seq_ns_per_tuple", "ns", Lower),
    layer("uda.executor.null_par2_ns_per_tuple", "ns", Lower),
    layer("core.trainer.epoch_ms_p50", "ms", Lower),
    layer("core.trainer.epoch_32k_rows_ns_per_tuple", "ns", Lower),
    layer("core.trainer.shuffle_ms_per_epoch", "ms", Lower),
    layer("core.trainer.loss_pass_ns_per_tuple", "ns", Lower),
    layer("core.trainer.gradient_ns_per_tuple", "ns", Lower),
    layer("core.trainer.overhead_vs_null", "ratio", Lower),
    layer("core.parallel.gradient_ms_per_epoch", "ms", Lower),
    layer("core.parallel.speedup_vs_seq", "ratio", Higher),
    layer("core.parallel.pureuda_speedup_vs_seq", "ratio", Higher),
    layer("core.parallel.loss_ratio_vs_seq", "ratio", Lower),
    layer("core.frontend.sql_overhead_ms", "ms", Lower),
    layer("core.frontend.infer_dimension_ms", "ms", Lower),
    layer("core.frontend.persist_ms", "ms", Lower),
    layer("core.serving.idle_rows_per_s", "rows/s", Higher),
    layer("core.serving.busy_rows_per_s", "rows/s", Higher),
    layer("core.serving.retained_frac", "ratio", Higher),
    layer("core.serving.publish_us_p50", "us", Lower),
    layer("core.serving.snapshot_ns", "ns", Lower),
    layer("core.serving.versions_per_s", "1/s", Higher),
    layer("sql.parser.train_stmt_us", "us", Lower),
    layer("sql.parser.insert_mb_per_s", "MB/s", Higher),
    layer("sql.exec.predict_overhead_ns_per_row", "ns", Lower),
    layer("sql.exec.count_predict_ns_per_row", "ns", Lower),
    layer("sql.exec.predict_stmt_ms_p90", "ms", Lower),
    layer("sql.exec.train_stmt_ms_p90", "ms", Lower),
    layer("sql.exec.ingest_stmt_ms_p50", "ms", Lower),
    layer("sql.exec.ingest_stmt_ms_p90", "ms", Lower),
    layer("sql.exec.ingest_rows_per_s", "rows/s", Higher),
    layer("sql.exec.reopen_ms_p50", "ms", Lower),
    layer("sql.exec.ctas_columnar_rows_per_s", "rows/s", Higher),
    layer("sql.exec.insert_exec_ms_p50", "ms", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// `(name, why)` of every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "row_shuffle_dense",
        "SQL LRTrain + PREDICT on a ROW table under the session-default ShuffleOnce: what a user gets by default, the permuted walk over heap tuples; table sized to the core's L2 so neighbours cannot move it",
    ),
    (
        "col_clustered_dense",
        "the same kind of data, 32 768 rows, as a COLUMNAR table scanned Clustered: the sequential path where per-tuple materialisation and the dot/axpy kernel dominate",
    ),
    (
        "paged_clustered_dense",
        "paged columnar table with a cache of 1/8 of its segments: working set larger than the program's own cache, segment decode on miss dominates",
    ),
    (
        "par_nolock_sparse",
        "Rust API SVM on sparse rows with 2 NoLock shared-memory workers: core.parallel, the per-coordinate store and sparse kernels, which the dense SQL workloads bypass",
    ),
    (
        "serve_during_train",
        "predict_batch reader beside a sequential trainer publishing every epoch to one ModelHandle: reads beside writes on core.serving",
    ),
    (
        "durable_ingest_reopen",
        "durable session: INSERTs of literal rows with fsync per append and snapshot compaction, train, PREDICT, close, reopen: the write and recovery path beside the scan path",
    ),
];

/// Feature dimension of the dense (Forest-like) datasets.
pub const DENSE_DIM: usize = 54;

/// Input sizes of every workload. `FULL` is what `BENCHMARK.json` measures;
/// `QUICK` is the smoke size the unit test and `--quick` use.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// ROW workload: rows of the training table and of the table `PREDICT`
    /// scores. Both stay inside one core's 2 MiB L2 (a heap tuple is about
    /// 600 bytes): the permuted walk over a table that lives in the host's
    /// shared L3 ran up to 1.8x slower whenever a neighbour filled that cache.
    pub row_rows: usize,
    pub row_score_rows: usize,
    /// COLUMNAR workload: rows of the training table and of the score table.
    pub col_rows: usize,
    pub col_score_rows: usize,
    /// Rows of the ROW table the traced `row_shuffle_dense` run trains over
    /// beside its own: larger than L2, so the memory cost of the scan order
    /// stays visible as a per-layer number.
    pub beyond_l2_rows: usize,
    /// Epochs of one `LRTrain` statement on the ROW / COLUMNAR / paged table.
    pub row_epochs: usize,
    pub col_epochs: usize,
    pub paged_epochs: usize,
    /// `PREDICT` statements per cycle.
    pub predicts_per_cycle: usize,
    /// Rows, segment size and score rows of the paged workload; its cache
    /// holds an eighth of the segments.
    pub paged_rows: usize,
    pub paged_chunk: usize,
    pub paged_score_rows: usize,
    /// Sparse workload: rows and epochs per training run.
    pub sparse_rows: usize,
    pub sparse_epochs: usize,
    /// Serving workload: training rows, epochs per training run, rows per
    /// `predict_batch` call and calls in the idle window of a cycle.
    pub serve_rows: usize,
    pub serve_epochs: usize,
    pub serve_batch: usize,
    pub serve_idle_batches: usize,
    /// Ingest workload: INSERT statements per cycle, rows per statement,
    /// epochs of its fixed-length train statement and reopens per cycle.
    pub ingest_batches: usize,
    pub ingest_batch_rows: usize,
    pub ingest_epochs: usize,
    pub reopens: usize,
    /// Times a cycle repeats its train / train-to-target / PREDICT statements
    /// over the ingested table, so a run of few, long cycles still takes
    /// enough samples of each.
    pub ingest_statement_repeats: usize,
    /// Calls per repetition of the cache-resident kernel and serving probes.
    pub probe_calls: usize,
    /// Set-up is repeated at least this often, and until this much time has
    /// gone into it (the median is reported). Set-up is allocation and
    /// first-touch page faults, which on the shared sandbox run up to 2x
    /// slower for a second or so at a time; the repeats span longer than
    /// that, so such a burst is outvoted in the median instead of becoming it.
    pub setup_repeats: usize,
    pub setup_budget_s: f64,
    /// Cycles every run completes even when the time budget is already spent.
    pub min_cycles: usize,
}

pub const FULL: Sizes = Sizes {
    row_rows: 2_048,
    row_score_rows: 2_048,
    col_rows: 32_768,
    col_score_rows: 8_192,
    beyond_l2_rows: 32_768,
    row_epochs: 4,
    col_epochs: 12,
    paged_epochs: 3,
    predicts_per_cycle: 4,
    paged_rows: 32_768,
    paged_chunk: 1024,
    paged_score_rows: 8_192,
    sparse_rows: 32_768,
    sparse_epochs: 8,
    serve_rows: 32_768,
    serve_epochs: 8,
    serve_batch: 256,
    serve_idle_batches: 2_000,
    ingest_batches: 64,
    ingest_batch_rows: 512,
    ingest_epochs: 4,
    reopens: 3,
    ingest_statement_repeats: 3,
    probe_calls: 400_000,
    setup_repeats: 5,
    setup_budget_s: 2.0,
    min_cycles: 3,
};

pub const QUICK: Sizes = Sizes {
    row_rows: 600,
    row_score_rows: 200,
    col_rows: 600,
    col_score_rows: 200,
    beyond_l2_rows: 600,
    row_epochs: 2,
    col_epochs: 2,
    paged_epochs: 2,
    predicts_per_cycle: 2,
    paged_rows: 512,
    paged_chunk: 32,
    paged_score_rows: 128,
    sparse_rows: 400,
    sparse_epochs: 2,
    serve_rows: 600,
    serve_epochs: 2,
    serve_batch: 64,
    serve_idle_batches: 4,
    ingest_batches: 3,
    ingest_batch_rows: 20,
    ingest_epochs: 2,
    reopens: 2,
    ingest_statement_repeats: 1,
    probe_calls: 2_000,
    setup_repeats: 2,
    setup_budget_s: 0.0,
    min_cycles: 2,
};

impl Sizes {
    /// The sizes as `name=value` pairs, recorded with every result.
    pub fn describe(&self) -> String {
        format!("{self:?}")
            .trim_start_matches("Sizes ")
            .replace(['{', '}'], "")
            .replace(": ", "=")
            .trim()
            .to_string()
    }
}
