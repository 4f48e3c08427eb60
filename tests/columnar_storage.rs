//! Columnar chunked storage: text-format round-trip identity, scan
//! equivalence against the row-store, and out-of-core training.
//!
//! Seven claims are pinned here:
//!
//! 1. `tuples_to_string` → `table_from_str` is the identity for every value
//!    the storage layer can hold — including adversarial TEXT payloads full
//!    of delimiters, quotes, newlines and `#` — and renders the *same* bytes
//!    whether the rows live in a row-store `Table` or a `ColumnarTable`.
//! 2. Every `TupleScan` order (clustered, permuted, range) over a columnar
//!    table yields tuple-for-tuple the same sequence as the row-store, and
//!    the examples a block scan lends out in place are, row for row, what
//!    the tuple scan reads from its materialized rows.
//! 3. LR, SVM and least squares trained over a columnar table — in memory,
//!    or **paged** with a segment cache far smaller than the dataset —
//!    produce bit-identical models and loss histories to the same run over
//!    the row-store, for every sequential-equivalent pass and both Clustered
//!    and ShuffleOnce scan orders; the cases the block path does not cover
//!    fall back to the per-tuple path and a torn segment surfaces as a
//!    worker fault.
//! 4. A paged directory written with frame version 1 (FNV-1a, per-value
//!    codec) still opens, holds byte-for-byte the payloads the current
//!    codec writes, and trains to the same bits as its version-2 rewrite.
//! 5. Multiplexed reservoir sampling reads all three layouts: bit for bit
//!    alike where the scheme is deterministic, and over the paged table —
//!    the data it exists for — to a loss no worse than a storage-order pass.
//! 6. Every layout keeps each column's widest vector as metadata, so a SQL
//!    training statement over a paged table reads it exactly as often as
//!    its passes do — twice for one epoch, counted in misses and bytes —
//!    and a torn segment fails the statement, not the caller.
//! 7. A NULL feature vector scores what no features score, the link at 0,
//!    in `PREDICT` as in `LRPredict`, over every layout.

use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_core::task::LossSink;
use bismarck_core::tasks::{LeastSquaresTask, LogisticRegressionTask, SvmTask};
use bismarck_core::{
    IgdTask, ModelStore, ParallelStrategy, ParallelTrainer, ProximalPolicy, StepSizeSchedule,
    TrainError, TrainedModel, Trainer, TrainerConfig, UpdateDiscipline,
};
use bismarck_linalg::{FeatureVectorRef, SparseVector};
use bismarck_sql::{SqlError, SqlSession};
use bismarck_storage::csv::{table_from_str, tuples_to_string};
use bismarck_storage::{
    Column, ColumnarTable, DataType, RowBlock, RowRef, ScanOrder, Schema, StorageError, Table,
    Tuple, TupleScan, Value,
};
use bismarck_uda::ConvergenceTest;
use proptest::prelude::*;

fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("id", DataType::Int),
        Column::nullable("x", DataType::Double),
        Column::nullable("note", DataType::Text),
        Column::nullable("vec", DataType::DenseVec),
    ])
    .unwrap()
}

/// One nullable value per column of [`mixed_schema`]. TEXT draws from the
/// full printable-ASCII-plus-control alphabet, so quotes, commas,
/// semicolons, leading `#` and embedded newlines all occur.
fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            (-1e6f64..1e6).prop_map(Value::Double),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            ".{0,12}".prop_map(Value::Text),
            prop::sample::select(vec![
                "null".to_string(),
                "NULL".to_string(),
                String::new(),
                "#comment?".to_string(),
                "a,b;c\"d\\e".to_string(),
                "line\nbreak".to_string(),
            ])
            .prop_map(Value::Text),
        ],
        prop_oneof![
            prop::sample::select(vec![Value::Null]),
            prop::collection::vec(-100.0f64..100.0, 1..4).prop_map(Value::from),
        ],
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

fn build_both(rows: &[Vec<Value>], chunk_capacity: usize) -> (Table, ColumnarTable) {
    let mut table = Table::new("t", mixed_schema());
    let mut columnar = ColumnarTable::with_chunk_capacity("t", mixed_schema(), chunk_capacity);
    for row in rows {
        table.insert(row.clone()).unwrap();
        columnar.insert(row.clone()).unwrap();
    }
    (table, columnar)
}

fn all_tuples<S: TupleScan + ?Sized>(source: &S) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    source.scan_tuples(&mut |t| out.push(t.values().to_vec()));
    out
}

/// Rows `start..end` (clamped) of `source` in storage order, each
/// materialized from its block as `scan_tuples` hands it over.
fn range_tuples<S: TupleScan + ?Sized>(source: &S, start: usize, end: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut scratch = Tuple::default();
    source
        .scan_blocks(start, end, &mut |block| {
            block.for_each_tuple(&mut scratch, &mut |t| out.push(t.values().to_vec()));
            true
        })
        .unwrap();
    out
}

/// The widest vector of each of the first `arity` columns, found by reading
/// every row: what [`TupleScan::vector_width`] must answer without reading
/// one.
fn walked_widths<S: TupleScan + ?Sized>(source: &S, arity: usize) -> Vec<usize> {
    let mut widths = vec![0; arity];
    source.scan_tuples(&mut |t| {
        for (col, width) in widths.iter_mut().enumerate() {
            *width = (*width).max(t.feature_view(col).map_or(0, |x| x.dimension()));
        }
    });
    widths
}

/// The widths `source` keeps as metadata, for the first `arity` columns.
fn kept_widths<S: TupleScan + ?Sized>(source: &S, arity: usize) -> Vec<usize> {
    (0..arity).map(|col| source.vector_width(col)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `tuples_to_string` → `table_from_str` is the identity, and the rendered
    /// text is byte-identical between row-store and columnar sources.
    #[test]
    fn text_format_roundtrips_row_and_columnar(
        rows in prop::collection::vec(row_strategy(), 0..24),
        chunk in 1usize..6,
    ) {
        let (table, columnar) = build_both(&rows, chunk);
        let text = tuples_to_string(&table).unwrap();
        // The rendered text must not depend on the physical layout.
        prop_assert_eq!(&text, &tuples_to_string(&columnar).unwrap());

        // And parsing it back must be the identity.
        let back = table_from_str("t", mixed_schema(), &text).unwrap();
        let restored = all_tuples(&back);
        prop_assert_eq!(restored, rows);
    }

    /// Clustered, permuted and range scans over a columnar table are
    /// tuple-for-tuple identical to the row-store scans.
    #[test]
    fn scan_orders_match_row_store(
        rows in prop::collection::vec(row_strategy(), 1..40),
        chunk in 1usize..8,
        seed in 0u64..1000,
        bounds in (0usize..45, 0usize..45),
    ) {
        let (table, columnar) = build_both(&rows, chunk);

        prop_assert_eq!(all_tuples(&table), all_tuples(&columnar));

        // A permutation with some out-of-range ids sprinkled in: both
        // scans must visit valid ids in order and skip the rest.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Deterministic Fisher-Yates on the seed, no external RNG needed.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.push(rows.len() + 3); // invalid id: skipped by both
        let mut from_row = Vec::new();
        table.scan_tuples_permuted(&order, &mut |t| from_row.push(t.values().to_vec())).unwrap();
        let mut from_col = Vec::new();
        columnar.scan_tuples_permuted(&order, &mut |t| from_col.push(t.values().to_vec())).unwrap();
        prop_assert_eq!(from_row, from_col);

        let (start, end) = bounds;
        prop_assert_eq!(range_tuples(&table, start, end), range_tuples(&columnar, start, end));
    }
}

proptest! {
    // Each case writes three paged tables, one of them a file per row.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The block entry point lends out, row for row, the examples the tuple
    /// scan reads from its materialized rows — over every backing, chunk
    /// capacity and range, the row-store adapter included.
    #[test]
    fn block_scan_examples_match_tuple_scan(
        rows in prop::collection::vec(example_row_strategy(), 1..300),
        bounds in (0usize..310, 0usize..310),
    ) {
        let mut table = Table::new("e", example_schema());
        table.insert_all(rows.iter().cloned()).unwrap();
        let (start, end) = bounds;
        // Whole table; the drawn range (may be empty, inverted or run past
        // the end); and one that starts and ends inside a 7-row segment.
        let ranges = [(0, usize::MAX), (start, end), (3, rows.len().saturating_sub(2))];
        check_block_scan(&table, &table, &ranges)?;

        for chunk in [1, 7, 128] {
            let mut columnar = ColumnarTable::with_chunk_capacity("e", example_schema(), chunk);
            columnar.insert_all(rows.iter().cloned()).unwrap();
            check_block_scan(&table, &columnar, &ranges)?;

            let dir = temp_dir("block_scan");
            let mut paged =
                ColumnarTable::create_paged("e", example_schema(), &dir, chunk, 1).unwrap();
            paged.insert_all(rows.iter().cloned()).unwrap();
            paged.flush().unwrap();
            check_block_scan(&table, &paged, &ranges)?;
            drop(paged);
            // Reopened: a partial tail segment is pulled back into the builder.
            let reopened = ColumnarTable::open_paged(&dir, 1).unwrap();
            prop_assert_eq!(reopened.len(), rows.len());
            check_block_scan(&table, &reopened, &ranges)?;
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Two feature columns and two label columns, all nullable: every
/// (features, label) pairing is one chunk-layout combination the block path
/// lends out (`Dense|Sparse` × `Double|Int`).
fn example_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("dense", DataType::DenseVec),
        Column::nullable("sparse", DataType::SparseVec),
        Column::nullable("y", DataType::Double),
        Column::nullable("k", DataType::Int),
    ])
    .unwrap()
}

const EXAMPLE_PAIRS: [(usize, usize); 4] = [(0, 2), (1, 2), (0, 3), (1, 3)];

/// Dense and sparse features (empty ones included), NULL features, NULL
/// labels, `INT` values in the `DOUBLE` label column — one beyond 2^53, which
/// must read as the same rounded `f64` either way.
fn example_row_strategy() -> impl Strategy<Value = Vec<Value>> {
    let null = || prop::sample::select(vec![Value::Null]);
    (
        prop_oneof![
            null(),
            prop::collection::vec(-100.0f64..100.0, 0..5).prop_map(Value::from),
        ],
        prop_oneof![
            null(),
            prop::collection::vec((0usize..40, -100.0f64..100.0), 0..5)
                .prop_map(|pairs| Value::SparseVec(SparseVector::from_pairs(pairs))),
        ],
        prop_oneof![
            null(),
            (-10.0f64..10.0).prop_map(Value::Double),
            prop::sample::select(vec![-1i64, 1, (1 << 53) + 1]).prop_map(Value::Int),
        ],
        prop_oneof![null(), (-3i64..4).prop_map(Value::Int)],
    )
        .prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bismarck_columnar_{name}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// An example with every `f64` as its bit pattern: `(sparse indices, feature
/// bits, label bits)`, or `None` where a row is no example.
type ExampleBits = Option<(Option<Vec<u32>>, Vec<u64>, u64)>;

fn example_bits(example: Option<(FeatureVectorRef<'_>, f64)>) -> ExampleBits {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
    example.map(|(x, y)| match x {
        FeatureVectorRef::Dense(values) => (None, bits(values), y.to_bits()),
        FeatureVectorRef::Sparse { indices, values } => {
            (Some(indices.to_vec()), bits(values), y.to_bits())
        }
    })
}

/// Over each range and column pairing: the examples of `source`'s blocks
/// equal what `reference`'s tuple scan reads, and so does the widest vector
/// the blocks lend. And the width `source` keeps of each column — what
/// `infer_dimension` answers — is the widest vector of the whole table.
fn check_block_scan<S: TupleScan + ?Sized>(
    reference: &Table,
    source: &S,
    ranges: &[(usize, usize)],
) -> Result<(), String> {
    let arity = reference.schema().arity();
    prop_assert_eq!(kept_widths(source, arity), walked_widths(reference, arity));
    for &(start, end) in ranges {
        for (features, label) in EXAMPLE_PAIRS {
            let mut from_tuples = Vec::new();
            let mut width = 0;
            for t in range_tuples(reference, start, end)
                .into_iter()
                .map(Tuple::new)
            {
                let x = t.feature_view(features);
                width = width.max(x.map_or(0, |x| x.dimension()));
                from_tuples.push(example_bits(x.zip(t.get_double(label))));
            }
            let mut from_blocks = Vec::new();
            let mut block_width = 0;
            let mut scratch = Tuple::default();
            source
                .scan_blocks(start, end, &mut |block| {
                    assert!(!block.is_empty(), "no block is empty");
                    match block.examples(features, label) {
                        Some(rows) => {
                            assert_eq!(rows.len(), block.len());
                            from_blocks.extend(rows.iter().map(example_bits));
                            let lent = block.features(features).unwrap();
                            block_width = block_width.max(lent.max_dimension());
                        }
                        // Only the row store lends nothing: its tuples are the view.
                        None => {
                            assert!(matches!(block, RowBlock::Tuples(_)));
                            block.for_each_tuple(&mut scratch, &mut |t| {
                                let x = t.feature_view(features);
                                block_width = block_width.max(x.map_or(0, |x| x.dimension()));
                                from_blocks.push(example_bits(x.zip(t.get_double(label))));
                            });
                        }
                    }
                    true
                })
                .unwrap();
            prop_assert!(
                from_tuples == from_blocks,
                "rows {start}..{end}, columns ({features}, {label}): \
                 {from_tuples:?} != {from_blocks:?}"
            );
            prop_assert_eq!(width, block_width);
        }
        // Tuples materialized from the same blocks agree with the row store.
        prop_assert_eq!(
            range_tuples(reference, start, end),
            range_tuples(source, start, end)
        );
    }
    Ok(())
}

/// Training rows `(id, vec, label)`: features dense (d = 3) or sparse
/// (d = 12), about 2 % of the rows with a NULL `vec` or a NULL `label`, and
/// some labels stored as `INT` in the `DOUBLE` column.
fn training_rows(sparse: bool) -> (Schema, Vec<Vec<Value>>) {
    let features = if sparse {
        DataType::SparseVec
    } else {
        DataType::DenseVec
    };
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("vec", features),
        Column::nullable("label", DataType::Double),
    ])
    .unwrap();
    let rows = (0..TRAIN_ROWS)
        .map(|i| {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            let noise = ((i * 37) % 101) as f64 / 101.0 - 0.5;
            let vec = if i % 97 == 5 {
                Value::Null
            } else if sparse {
                let pairs = vec![(i % 5, y * 2.0 + noise), (5 + i % 7, -y + noise)];
                Value::SparseVec(SparseVector::from_pairs(pairs))
            } else {
                Value::from(vec![y * 2.0 + noise, -y + noise, noise])
            };
            let label = match i {
                _ if i % 89 == 11 => Value::Null,
                _ if i % 53 == 0 => Value::Int(y as i64),
                _ => Value::Double(y),
            };
            vec![Value::Int(i as i64), vec, label]
        })
        .collect();
    (schema, rows)
}

const TRAIN_ROWS: usize = 1_500;
const TRAIN_CHUNK: usize = 64; // ~24 segments
const TRAIN_CACHE: usize = 3; // far fewer than the sealed segment count
const TRAIN_EPOCHS: usize = 4;

/// The same rows as a row-store table, an in-memory columnar table and a
/// paged one (at `dir`) whose cache dwarfs neither.
fn three_layouts(
    schema: &Schema,
    rows: &[Vec<Value>],
    dir: &std::path::Path,
) -> (Table, ColumnarTable, ColumnarTable) {
    let mut table = Table::new("d", schema.clone());
    table.insert_all(rows.iter().cloned()).unwrap();
    let mut columnar = ColumnarTable::with_chunk_capacity("d", schema.clone(), TRAIN_CHUNK);
    columnar.insert_all(rows.iter().cloned()).unwrap();
    let mut paged =
        ColumnarTable::create_paged("d", schema.clone(), dir, TRAIN_CHUNK, TRAIN_CACHE).unwrap();
    paged.insert_all(rows.iter().cloned()).unwrap();
    paged.flush().unwrap();
    assert!(
        paged.segment_count() > TRAIN_CACHE * 4,
        "dataset must dwarf the chunk cache for this test to mean anything"
    );
    (table, columnar, paged)
}

/// MRS without a buffer: the I/O Worker alone.
const MRS_IO_ALONE: ParallelStrategy = ParallelStrategy::Mrs {
    buffer_size: 0,
    seed: 11,
};

/// The passes that are deterministic, so that layouts can be compared bit
/// for bit: sequential, shared-nothing segments, one locked worker, MRS
/// with no Memory Worker.
const PASSES: [Option<ParallelStrategy>; 4] = [
    None,
    Some(ParallelStrategy::PureUda { segments: 3 }),
    Some(ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::Lock,
    }),
    Some(MRS_IO_ALONE),
];

fn train_config(order: ScanOrder) -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.05))
        .with_scan_order(order)
        .with_convergence(ConvergenceTest::FixedEpochs(TRAIN_EPOCHS))
}

fn train<T: IgdTask>(
    task: &T,
    pass: Option<ParallelStrategy>,
    config: TrainerConfig,
    data: &dyn TupleScan,
) -> TrainedModel {
    match pass {
        None => Trainer::new(task, config).train(data),
        Some(strategy) => ParallelTrainer::new(task, config, strategy).train(data).0,
    }
}

/// Final model and loss history of a run, every `f64` as its bit pattern.
fn bits_of(trained: &TrainedModel) -> (Vec<u64>, Vec<u64>) {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
    (bits(&trained.model), bits(&trained.history.losses()))
}

fn train_bits<T: IgdTask>(
    task: &T,
    pass: Option<ParallelStrategy>,
    order: ScanOrder,
    data: &dyn TupleScan,
) -> (Vec<u64>, Vec<u64>) {
    bits_of(&train(task, pass, train_config(order), data))
}

/// One task over the three layouts: every pass and order must reproduce the
/// row store's model and loss history bit for bit.
fn assert_layouts_train_alike<T: IgdTask>(
    task: &T,
    what: &str,
    table: &Table,
    others: [(&str, &ColumnarTable); 2],
) {
    for pass in PASSES {
        for order in [ScanOrder::Clustered, ScanOrder::ShuffleOnce { seed: 7 }] {
            let reference = train_bits(task, pass, order, table);
            let (model, losses) = &reference;
            assert_eq!(losses.len(), TRAIN_EPOCHS);
            assert!(model.iter().any(|&w| f64::from_bits(w) != 0.0));
            assert!(model
                .iter()
                .chain(losses)
                .all(|&v| f64::from_bits(v).is_finite()));
            for (layout, data) in others {
                assert_eq!(
                    train_bits(task, pass, order, data),
                    reference,
                    "{what} over the {layout} table diverged from the row store \
                     under {pass:?}, {order:?}"
                );
            }
        }
    }
}

/// Out-of-core acceptance: LR, SVM and least squares — dense and sparse
/// features, NULL rows, an L2 penalty applied per epoch — trained over an
/// in-memory columnar table and over a paged one whose chunk cache holds a
/// fraction of the segments produce **bit-identical** models and loss
/// histories to the in-memory row-store, under every deterministic pass and
/// both Clustered and ShuffleOnce.
#[test]
fn paged_training_is_bit_identical_to_row_store() {
    for sparse in [false, true] {
        let (schema, rows) = training_rows(sparse);
        let dir = temp_dir("train");
        let (table, columnar, paged) = three_layouts(&schema, &rows, &dir);
        let others = [("columnar", &columnar), ("paged", &paged)];
        let dimension = if sparse { 12 } else { 3 };
        let what = |task: &str| format!("{task}, sparse = {sparse}");

        let lr = LogisticRegressionTask::new(1, 2, dimension).with_l2(1e-3);
        assert_layouts_train_alike(&lr, &what("LR"), &table, others);
        let svm = SvmTask::new(1, 2, dimension).with_l2(1e-3);
        assert_layouts_train_alike(&svm, &what("SVM"), &table, others);
        let ls = LeastSquaresTask::new(1, 2, dimension).with_l2(1e-3);
        assert_layouts_train_alike(&ls, &what("LS"), &table, others);

        // The scans genuinely paged: the cache saw misses and evictions.
        let stats = paged.pager_stats().unwrap();
        assert!(stats.misses > 0, "expected paging activity: {stats:?}");
        assert!(stats.evictions > 0, "expected evictions: {stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// MRS (Section 3.4) is for the table that cannot be shuffled, and here that
/// is the paged one. Where the scheme is deterministic the layout is
/// invisible bit for bit: with no buffer the pass *is* one NoLock worker
/// over the whole table, and the first epoch of any run has no Memory Worker
/// yet while its sample depends on the seed, the epoch and the row count
/// alone. With both workers running the pass is racy, and must simply train
/// — out of core — at least as well as a sequential pass in storage order.
#[test]
fn mrs_reads_every_layout_alike_and_trains_out_of_core() {
    for sparse in [false, true] {
        let (schema, rows) = training_rows(sparse);
        let dir = temp_dir("mrs");
        let (table, columnar, paged) = three_layouts(&schema, &rows, &dir);
        let layouts: [(&str, &dyn TupleScan); 3] =
            [("row", &table), ("columnar", &columnar), ("paged", &paged)];
        let dimension = if sparse { 12 } else { 3 };
        let lr = LogisticRegressionTask::new(1, 2, dimension).with_l2(1e-3);
        let clustered = || train_config(ScanOrder::Clustered);

        let one_nolock_worker = Some(ParallelStrategy::SharedMemory {
            workers: 1,
            discipline: UpdateDiscipline::NoLock,
        });
        let buffered = Some(ParallelStrategy::Mrs {
            buffer_size: TRAIN_ROWS / 10,
            seed: 11,
        });
        let one_epoch = || clustered().with_convergence(ConvergenceTest::FixedEpochs(1));
        let first_epoch = bits_of(&train(&lr, buffered, one_epoch(), &table));
        for (layout, data) in layouts {
            assert_eq!(
                train_bits(&lr, Some(MRS_IO_ALONE), ScanOrder::Clustered, data),
                train_bits(&lr, one_nolock_worker, ScanOrder::Clustered, data),
                "sparse = {sparse}, {layout}: MRS without a buffer is one NoLock worker"
            );
            assert_eq!(
                bits_of(&train(&lr, buffered, one_epoch(), data)),
                first_epoch,
                "sparse = {sparse}, {layout}: the first MRS epoch"
            );
        }
        // The sample was taken out of the pass: it is not the buffer-less one.
        assert_ne!(
            first_epoch,
            bits_of(&train(&lr, Some(MRS_IO_ALONE), one_epoch(), &table))
        );

        let six_epochs = || clustered().with_convergence(ConvergenceTest::FixedEpochs(6));
        let before = paged.pager_stats().unwrap();
        let mrs = train(&lr, buffered, six_epochs(), &paged);
        let after = paged.pager_stats().unwrap();
        assert!(after.misses > before.misses && after.evictions > before.evictions);
        let sequential = train(&lr, None, six_epochs(), &paged);
        let (mrs, sequential) = (mrs.final_loss().unwrap(), sequential.final_loss().unwrap());
        assert!(
            mrs <= sequential * 1.05,
            "sparse = {sparse}: MRS {mrs} vs Clustered {sequential} on the paged table"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Counts the rows a pass hands the task one at a time (whole blocks go on
/// to the wrapped task's own block methods, which never call this
/// wrapper's `gradient_step`), and can claim a per-step proximal operator
/// for the wrapped task's.
struct Probe<T> {
    inner: T,
    per_step: bool,
    row_steps: AtomicUsize,
}

impl<T: IgdTask> Probe<T> {
    fn new(inner: T, per_step: bool) -> Self {
        Probe {
            inner,
            per_step,
            row_steps: AtomicUsize::new(0),
        }
    }

    fn row_steps(&self) -> usize {
        self.row_steps.swap(0, Ordering::Relaxed)
    }
}

impl<T: IgdTask> IgdTask for Probe<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        self.row_steps.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient_step(model, row, alpha)
    }
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        self.inner.example_loss(model, row)
    }
    fn step_block<M: ModelStore>(&self, model: &mut M, block: RowBlock<'_>, alpha: f64) {
        self.inner.step_block(model, block, alpha)
    }
    fn add_losses(&self, model: &[f64], block: RowBlock<'_>, sink: &mut LossSink<'_>) {
        self.inner.add_losses(model, block, sink)
    }
    fn regularizer(&self, model: &[f64]) -> f64 {
        self.inner.regularizer(model)
    }
    fn proximal_step(&self, model: &mut [f64], alpha: f64) {
        self.inner.proximal_step(model, alpha)
    }
    fn proximal_policy(&self) -> ProximalPolicy {
        if self.per_step {
            ProximalPolicy::PerStep
        } else {
            self.inner.proximal_policy()
        }
    }
}

/// Which rows a pass walks one at a time instead of handing the task their
/// block is decided from what the pass sees, and everything trains to the
/// same bits: a per-step proximal operator and a permuted order go row by
/// row, and a feature column the chunks cannot lend out goes to the task's
/// block method like any other (which of those blocks `LinearTask` steps on
/// with its example kernel is pinned in `tasks/linear.rs`). A torn segment
/// under the block path is a worker fault carrying the last-good model.
#[test]
fn block_path_falls_back_per_tuple_and_surfaces_torn_segments() {
    let (schema, rows) = training_rows(false);
    let dir = temp_dir("fallback");
    let (table, columnar, paged) = three_layouts(&schema, &rows, &dir);
    let every_row = TRAIN_ROWS * TRAIN_EPOCHS;
    let lr = || LogisticRegressionTask::new(1, 2, 3).with_l2(1e-3);

    // The block path: every layout's blocks go to the task whole — the row
    // store's heap pages as much as a columnar segment.
    let probe = Probe::new(lr(), false);
    let reference = train_bits(&lr(), None, ScanOrder::Clustered, &table);
    for data in [&table as &dyn TupleScan, &columnar, &paged] {
        assert_eq!(
            train_bits(&probe, None, ScanOrder::Clustered, data),
            reference
        );
        assert_eq!(probe.row_steps(), 0);
    }
    // A permuted order has no blocks.
    let order = ScanOrder::ShuffleOnce { seed: 7 };
    let shuffled = train_bits(&lr(), None, order, &table);
    assert_eq!(train_bits(&probe, None, order, &columnar), shuffled);
    assert_eq!(probe.row_steps(), every_row);

    // A proximal operator between the steps: row by row, every pass.
    let per_step = Probe::new(lr(), true);
    for pass in PASSES {
        let reference = train_bits(&per_step, pass, ScanOrder::Clustered, &table);
        assert_eq!(per_step.row_steps(), every_row, "{pass:?}");
        // The operator did run between the steps — except under the
        // lock-free MRS pass, which demotes it to where `lr()` has it.
        assert_eq!(
            reference == train_bits(&lr(), pass, ScanOrder::Clustered, &table),
            pass == Some(MRS_IO_ALONE),
            "{pass:?}"
        );
        for data in [&columnar, &paged] {
            let bits = train_bits(&per_step, pass, ScanOrder::Clustered, data);
            assert_eq!(bits, reference, "{pass:?}");
            assert_eq!(per_step.row_steps(), every_row, "{pass:?}");
        }
    }
    // The lock-free passes demote the operator to per-epoch, so they hand
    // the task whole blocks.
    let no_lock = Some(ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::NoLock,
    });
    let reference = train_bits(&per_step, no_lock, ScanOrder::Clustered, &table);
    for data in [&table as &dyn TupleScan, &columnar, &paged] {
        assert_eq!(
            train_bits(&per_step, no_lock, ScanOrder::Clustered, data),
            reference
        );
        assert_eq!(per_step.row_steps(), 0);
    }

    // A TEXT "features" column: the chunks lend nothing out, and the rows
    // hold no example, exactly as over the row store.
    let text_schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("vec", DataType::Text),
        Column::nullable("label", DataType::Double),
    ])
    .unwrap();
    let text_rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| vec![row[0].clone(), Value::from("not a vector"), row[2].clone()])
        .collect();
    let text_dir = temp_dir("fallback_text");
    let (text_table, text_columnar, _) = three_layouts(&text_schema, &text_rows, &text_dir);
    let reference = train_bits(&probe, None, ScanOrder::Clustered, &text_table);
    assert!(reference.0.iter().all(|&w| w == 0), "no row is an example");
    for pass in PASSES {
        assert_eq!(
            train_bits(&probe, pass, ScanOrder::Clustered, &text_columnar),
            train_bits(&probe, pass, ScanOrder::Clustered, &text_table),
            "{pass:?}"
        );
    }
    probe.row_steps();
    std::fs::remove_dir_all(&text_dir).ok();

    // Two good epochs of each deterministic-enough pass, checkpointed; then
    // segment 2 is torn behind a cold cache. The resumed run's first block
    // read of it fails inside the gradient pass, which ends the run with the
    // storage error, carrying the model of the two good epochs.
    drop(paged);
    let torn_passes = [
        None,
        Some(ParallelStrategy::PureUda { segments: 2 }),
        Some(ParallelStrategy::SharedMemory {
            workers: 2,
            discipline: UpdateDiscipline::NoLock,
        }),
        Some(MRS_IO_ALONE),
    ];
    let checkpoint = |pass: Option<ParallelStrategy>| dir.join(format!("good-{pass:?}.ckpt"));
    let two_epochs =
        train_config(ScanOrder::Clustered).with_convergence(ConvergenceTest::FixedEpochs(2));
    let good: Vec<TrainedModel> = torn_passes
        .iter()
        .map(|&pass| {
            let config = two_epochs.clone().with_checkpoints(checkpoint(pass), 1);
            train(&probe, pass, config, &columnar)
        })
        .collect();
    tear_segment_2(&dir);
    for (pass, good) in torn_passes.into_iter().zip(good) {
        let torn = ColumnarTable::open_paged(&dir, TRAIN_CACHE).unwrap();
        probe.row_steps();
        let config = train_config(ScanOrder::Clustered);
        let resumed = match pass {
            None => Trainer::new(&probe, config).resume_from(&torn, checkpoint(pass)),
            Some(strategy) => ParallelTrainer::new(&probe, config, strategy)
                .resume_from(&torn, checkpoint(pass))
                .map(|(trained, _)| trained),
        };
        let err = resumed.expect_err("a torn segment must fail the run");
        let TrainError::Storage {
            epoch,
            error,
            last_good,
        } = err
        else {
            panic!("{pass:?}: expected a storage error, got {err:?}");
        };
        assert_eq!(epoch, 2, "{pass:?}");
        assert!(
            error.to_string().contains("seg-000002"),
            "{pass:?}: {error}"
        );
        assert_eq!(last_good.model, good.model, "{pass:?}");
        assert_eq!(
            last_good.history.losses(),
            good.history.losses(),
            "{pass:?}"
        );
        // Only the MRS scan steps row by row; every other pass failed on
        // the block path.
        assert_eq!(
            probe.row_steps() > 0,
            pass == Some(MRS_IO_ALONE),
            "{pass:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A SQL training statement reads its table first in the gradient pass, so
/// a torn segment of a paged table fails the statement with the storage
/// error, and the session goes on answering.
#[test]
fn torn_segment_fails_a_sql_training_statement_with_an_error() {
    let (schema, rows) = training_rows(false);
    let dir = temp_dir("torn_sql");
    drop(three_layouts(&schema, &rows, &dir));
    let mut session = SqlSession::new();
    session
        .register_columnar_table(ColumnarTable::open_paged(&dir, 1).unwrap())
        .unwrap();
    session
        .execute_script("CREATE TABLE other (x INT); INSERT INTO other VALUES (1), (2)")
        .unwrap();
    tear_segment_2(&dir);

    for statement in [
        "SELECT LRTrain('m', 'd', 'vec', 'label')",
        "SELECT SVMTrain('m', 'd', 'vec', 'label')",
    ] {
        match session.execute(statement) {
            Err(SqlError::Storage(error)) => assert!(
                error.to_string().contains("seg-000002"),
                "{statement}: {error}"
            ),
            other => panic!("{statement}: expected a storage error, got {other:?}"),
        }
    }
    let count = session.execute("SELECT COUNT(*) FROM other").unwrap();
    assert_eq!(count.single_value(), Some(&Value::Int(2)));
    assert!(!session.database().contains("m"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Flip one byte in the middle of segment 2 of the paged table at `dir`.
fn tear_segment_2(dir: &std::path::Path) {
    let segment = dir.join("seg-000002.col");
    let mut bytes = std::fs::read(&segment).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&segment, bytes).unwrap();
}

/// No storage fault reaches the caller as a panic: every statement that
/// reads a torn paged table — a scan, an aggregate, a sort, `PREDICT`, a
/// materialization, an export, each analytics call — returns the storage
/// error naming the torn file, creates nothing, and leaves the session
/// answering.
#[test]
fn every_statement_over_a_torn_paged_table_returns_a_storage_error() {
    let (schema, rows) = training_rows(false);
    let dir = temp_dir("torn_matrix");
    drop(three_layouts(&schema, &rows, &dir));
    // A SEQUENCE table of the same shape: one short labeled sequence a row.
    let seq_dir = temp_dir("torn_matrix_seq");
    let seq_schema = Schema::new(vec![Column::new("seq", DataType::Sequence)]).unwrap();
    let mut sequences =
        ColumnarTable::create_paged("s", seq_schema, &seq_dir, TRAIN_CHUNK, TRAIN_CACHE).unwrap();
    sequences
        .insert_all((0..TRAIN_ROWS).map(|i| {
            let position =
                |j: usize| (SparseVector::from_pairs(vec![(j % 4, 1.0)]), (j % 3) as u32);
            vec![Value::Sequence((i..i + 3).map(position).collect())]
        }))
        .unwrap();
    sequences.flush().unwrap();
    drop(sequences);

    let mut session = SqlSession::new();
    for dir in [&dir, &seq_dir] {
        let table = ColumnarTable::open_paged(dir, TRAIN_CACHE).unwrap();
        session.register_columnar_table(table).unwrap();
    }
    session
        .execute_script(
            "CREATE TABLE other (x INT); INSERT INTO other VALUES (1), (2);
             SELECT LRTrain('good', 'd', 'vec', 'label', 0.05, 1);
             SELECT CRFTrain('crf', 's', 'seq', 0.05, 1)",
        )
        .unwrap();
    // Reopened with cold caches, so every statement reads segment 2 anew.
    for (dir, name) in [(&dir, "d"), (&seq_dir, "s")] {
        tear_segment_2(dir);
        let table = ColumnarTable::open_paged(dir, TRAIN_CACHE).unwrap();
        assert_eq!(table.name(), name);
        session.register_columnar_table(table).unwrap();
    }
    let export = temp_dir("torn_matrix_export.csv");
    let statements = [
        "SELECT * FROM d".to_string(),
        "SELECT COUNT(*) FROM d".into(),
        "SELECT label, COUNT(*) FROM d GROUP BY label".into(),
        "SELECT id FROM d ORDER BY id DESC LIMIT 3".into(),
        "SELECT PREDICT('good', vec) FROM d WHERE vec IS NOT NULL".into(),
        "CREATE TABLE made AS SELECT id, label FROM d".into(),
        format!("COPY d TO '{}'", export.display()),
        "SELECT LRPredict('good', 'd', 'vec')".into(),
        "SELECT LRLoss('good', 'd', 'vec', 'label')".into(),
        "SELECT LRTrain('made', 'd', 'vec', 'label')".into(),
        "SELECT CRFPredict('crf', 's', 'seq')".into(),
    ];
    for statement in &statements {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(statement)));
        match outcome {
            Ok(Err(SqlError::Storage(error))) => assert!(
                error.to_string().contains("seg-000002"),
                "{statement}: {error}"
            ),
            Ok(other) => panic!("{statement}: expected a storage error, got {other:?}"),
            Err(_) => panic!("{statement}: panicked"),
        }
        assert!(!session.database().contains("made"), "{statement}");
        let count = session.execute("SELECT COUNT(*) FROM other").unwrap();
        assert_eq!(count.single_value(), Some(&Value::Int(2)), "{statement}");
    }
    assert!(!export.exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&seq_dir).ok();
}

/// `PREDICT` over a table with NULL `vec` rows scores them as `ARRAY[]`,
/// the link at 0 — 0 through a persisted model (identity link), ½ through a
/// logistic handle — and a logistic handle scores every row the bits
/// `LRPredict` gives for the same weights, over every layout.
#[test]
fn predict_scores_a_null_vector_as_no_features() {
    let (schema, rows) = training_rows(false);
    let nulls = rows.iter().filter(|row| row[1].is_null()).count();
    assert!(nulls > 0);
    let dir = temp_dir("predict_null");
    let (table, columnar, paged) = three_layouts(&schema, &rows, &dir);
    let mut sessions = [SqlSession::new(), SqlSession::new(), SqlSession::new()];
    sessions[0].register_table(table).unwrap();
    sessions[1].register_columnar_table(columnar).unwrap();
    sessions[2].register_columnar_table(paged).unwrap();
    let weights = [0.5, -0.25, 1.0];
    for (layout, session) in ["row", "columnar", "paged"].iter().zip(&mut sessions) {
        session
            .execute_script(
                "CREATE TABLE m (idx INT, weight DOUBLE);
                 INSERT INTO m VALUES (0, 0.5), (1, -0.25), (2, 1.0)",
            )
            .unwrap();
        let handle = ModelHandle::new(ServingTask::Logistic, weights.len());
        handle.publish(&weights).unwrap();
        session.register_model_handle("h", handle);

        let scored = session
            .execute("SELECT PREDICT('m', vec), PREDICT('h', vec) FROM d WHERE vec IS NULL")
            .unwrap();
        assert_eq!(scored.len(), nulls, "{layout}");
        for row in &scored.rows {
            assert_eq!(row, &[Value::Double(0.0), Value::Double(0.5)], "{layout}");
        }
        let served = session.execute("SELECT PREDICT('h', vec) FROM d").unwrap();
        let predicted = session
            .execute("SELECT LRPredict('m', 'd', 'vec')")
            .unwrap();
        assert_eq!(served.len(), TRAIN_ROWS, "{layout}");
        for (served, predicted) in served.rows.iter().zip(&predicted.rows) {
            assert_eq!(served[0], predicted[1], "{layout}");
        }
    }
    drop(sessions);
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact I/O on any machine: a one-epoch training statement over a paged
/// table whose cache holds a few of its segments moves the pager's misses
/// and bytes read by exactly two passes — gradient and loss — and not a
/// third for the dimension. One pass is measured here, by a block scan from
/// the cache state every full pass leaves behind (the last segments cached,
/// the first ones it needs not).
#[test]
fn one_epoch_sql_statement_pages_the_table_in_twice() {
    let (schema, rows) = training_rows(false);
    let dir = temp_dir("two_passes");
    drop(three_layouts(&schema, &rows, &dir));
    let clustered = TrainerConfig::default().with_scan_order(ScanOrder::Clustered);
    let mut session = SqlSession::new().with_trainer_config(clustered);
    session
        .register_columnar_table(ColumnarTable::open_paged(&dir, TRAIN_CACHE).unwrap())
        .unwrap();
    let io = |session: &SqlSession| {
        let stats = session.columnar_table("d").unwrap().pager_stats().unwrap();
        [stats.misses, stats.bytes_read]
    };
    let pass = |session: &SqlSession| {
        let (before, table) = (io(session), session.columnar_table("d").unwrap());
        table.scan_blocks(0, usize::MAX, &mut |_| true).unwrap();
        let after = io(session);
        [after[0] - before[0], after[1] - before[1]]
    };
    pass(&session); // from the state open left: the tail cached, nothing else
    let one_pass = pass(&session);
    assert_eq!(pass(&session), one_pass, "a full pass ends where it began");
    assert!(one_pass[0] > TRAIN_CACHE as u64 && one_pass[1] > 0);

    let before = io(&session);
    session
        .execute("SELECT LRTrain('m', 'd', 'vec', 'label', 0.05, 1)")
        .unwrap();
    let after = io(&session);
    assert_eq!(
        [after[0] - before[0], after[1] - before[1]],
        one_pass.map(|n| 2 * n),
        "[misses, bytes read] of the statement against twice one pass {one_pass:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged table reopened from disk serves the same tuples it was built
/// with — the scan surface works straight off the on-disk segments.
#[test]
fn reopened_paged_table_scans_identically() {
    let schema = mixed_schema();
    let dir =
        std::env::temp_dir().join(format!("bismarck_paged_reopen_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut paged = ColumnarTable::create_paged("t", schema.clone(), &dir, 4, 2).unwrap();
    let rows: Vec<Vec<Value>> = (0..37)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Double(i as f64 * 0.5),
                Value::Text(format!("row #{i}, \"quoted\"\nline")),
                Value::from(vec![i as f64, -(i as f64)]),
            ]
        })
        .collect();
    for row in &rows {
        paged.insert(row.clone()).unwrap();
    }
    paged.flush().unwrap();
    drop(paged);

    let reopened = ColumnarTable::open_paged(&dir, 2).unwrap();
    assert_eq!(reopened.len(), rows.len());
    assert_eq!(all_tuples(&reopened), rows);

    std::fs::remove_dir_all(&dir).ok();
}

/// Every chunk layout, each with NULLs (plus an `INT` in a `DOUBLE` column
/// beyond 2^53, empty vectors and an empty string), and a non-null
/// `vec`/`label` pair to train on.
fn fixture_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("id", DataType::Int),
        Column::new("label", DataType::Double),
        Column::nullable("x", DataType::Double),
        Column::nullable("note", DataType::Text),
        Column::new("vec", DataType::DenseVec),
        Column::nullable("dv", DataType::DenseVec),
        Column::nullable("sv", DataType::SparseVec),
        Column::nullable("seq", DataType::Sequence),
    ])
    .unwrap()
}

fn fixture_row(i: usize) -> Vec<Value> {
    let y = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    let unless = |null: bool, value: Value| if null { Value::Null } else { value };
    let note = if i == 5 {
        String::new()
    } else {
        format!("n{i},\"q\"")
    };
    let sparse = if i == 3 {
        SparseVector::new()
    } else {
        SparseVector::from_pairs(vec![(i, 1.5), (i + 7, -2.0)])
    };
    let sequence = vec![(SparseVector::from_pairs(vec![(0, 1.0)]), i as u32)];
    vec![
        unless(i == 1, Value::Int(i as i64 - 2)),
        Value::Double(y),
        match i {
            0 | 3 => Value::Null,
            4 => Value::Int((1 << 53) + 1),
            _ => Value::Double(i as f64 * -0.25),
        },
        unless(i == 2, Value::Text(note)),
        Value::from(vec![y * 2.0 + i as f64 * 0.125, -y]),
        unless(
            i % 2 == 1,
            Value::from(if i == 4 { vec![] } else { vec![i as f64] }),
        ),
        unless(i == 0, Value::SparseVec(sparse)),
        unless(i == 1 || i == 5, Value::Sequence(sequence)),
    ]
}

/// `create_paged("fixture", fixture_schema(), dir, 4, 2)`, rows 0..6
/// inserted, `flush` — as written by the commit before frame version 2.
const V1_FIXTURE: [(&str, &str); 3] = [
    (
        "columnar.meta",
        "42434f4c018d0000000000000007000000000000006669787475726508000000000000000200000000000000\
        6964000105000000000000006c6162656c0100010000000000000078010104000000000000006e6f74650201\
        0300000000000000766563030002000000000000006476030102000000000000007376040103000000000000\
        00736571050104000000000000000600000000000000a95e56ca68e671f6",
    ),
    (
        "seg-000000.col",
        "4253454701a60200000000000004000000000000000800000000000000000400000000000000feffffffffff\
        ffff00000000000000000000000000000000010000000000000004000000000000000d000000000000000104\
        00000000000000000000000000f03f000000000000f0bf000000000000f03f000000000000f0bf0400000000\
        0000000f0000000000000000000000000000000104000000000000000000000000000000000000000000d0bf\
        000000000000e0bf000000000000000004000000000000000600000000000000000000000000000002120000\
        00000000006e302c2271226e312c2271226e332c227122050000000000000000000000060000000c0000000c\
        0000001200000004000000000000000b00000000000000030800000000000000000000000000004000000000\
        0000f0bf000000000000febf000000000000f03f0000000000000240000000000000f0bf000000000000fabf\
        000000000000f03f050000000000000000000000020000000400000006000000080000000400000000000000\
        0f00000000000000030200000000000000000000000000000000000000000000400500000000000000000000\
        0001000000010000000200000002000000040000000000000005000000000000000404000000000000000100\
        00000800000002000000090000000400000000000000000000000000f83f00000000000000c0000000000000\
        f83f00000000000000c005000000000000000000000000000000020000000400000004000000040000000000\
        00000e0000000000000005040000000000000006010000000000000001000000000000000000000000000000\
        0000f03f0000000000060100000000000000010000000000000000000000000000000000f03f020000000601\
        00000000000000010000000000000000000000000000000000f03f03000000a6dba6ef326d8fbb",
    ),
    (
        "seg-000001.col",
        "4253454701e40100000000000002000000000000000800000000000000000200000000000000020000000000\
        0000030000000000000002000000000000000300000000000000010200000000000000000000000000f03f00\
        0000000000f0bf02000000000000000300000000000000000000000000000001020000000000000000000000\
        00004043000000000000f4bf0200000000000000030000000000000001000000000000000000000001000000\
        000020000206000000000000006e342c22712203000000000000000000000006000000060000000200000000\
        00000003000000000000000304000000000000000000000000000440000000000000f0bf000000000000f6bf\
        000000000000f03f030000000000000000000000020000000400000002000000000000000300000000000000\
        0300000000000000000300000000000000000000000000000000000000020000000000000001000000000000\
        00040400000000000000040000000b000000050000000c0000000400000000000000000000000000f83f0000\
        0000000000c0000000000000f83f00000000000000c003000000000000000000000002000000040000000200\
        0000000000000300000000000000050200000000000000060100000000000000010000000000000000000000\
        000000000000f03f0400000000b9ea99154f53b475",
    ),
];

/// A version-1 directory opens and scans the rows it was built from, with
/// the column widths its manifest predates computed at open; the current
/// codec writes byte-for-byte the same payloads (only the frame's version
/// byte and checksum differ, and a version-3 manifest appends the widths);
/// training over either gives the same bits; and a version-1 directory keeps
/// accepting inserts, its rewritten files coming out in the current versions
/// beside the untouched version-1 segment.
#[test]
fn version_1_directory_opens_scans_and_trains_like_its_version_2_rewrite() {
    let unhex = |text: &str| -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    };
    let temp = |name: &str| {
        let dir = std::env::temp_dir().join(format!(
            "bismarck_paged_fixture_{name}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };
    let rows: Vec<Vec<Value>> = (0..9).map(fixture_row).collect();

    let v1_dir = temp("v1");
    for (file, hex) in V1_FIXTURE {
        std::fs::write(v1_dir.join(file), unhex(hex)).unwrap();
    }
    let arity = fixture_schema().arity();
    // The widths a legacy manifest lacks cost one walk over the sealed
    // segments at open, so a torn one fails the open: an error, not a panic.
    let torn_dir = temp("v1-torn");
    for (file, hex) in V1_FIXTURE {
        let mut bytes = unhex(hex);
        if file == "seg-000000.col" {
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0x01;
        }
        std::fs::write(torn_dir.join(file), bytes).unwrap();
    }
    assert!(matches!(
        ColumnarTable::open_paged(&torn_dir, 2),
        Err(StorageError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&torn_dir).ok();

    let mut v1 = ColumnarTable::open_paged(&v1_dir, 2).unwrap();
    assert_eq!((v1.name(), v1.chunk_capacity()), ("fixture", 4));
    assert_eq!(all_tuples(&v1), rows[..6]);
    // `vec` is 2 wide, `dv` at most 1, `sv` reaches index 12 (row 5).
    let widths = vec![0, 0, 0, 0, 2, 1, 13, 0];
    assert_eq!(kept_widths(&v1, arity), widths);

    let v2_dir = temp("v2");
    let mut v2 = ColumnarTable::create_paged("fixture", fixture_schema(), &v2_dir, 4, 2).unwrap();
    v2.insert_all(rows[..6].iter().cloned()).unwrap();
    v2.flush().unwrap();
    for (file, hex) in V1_FIXTURE {
        let (old, new) = (unhex(hex), std::fs::read(v2_dir.join(file)).unwrap());
        let manifest = file == "columnar.meta";
        let version = if manifest { 3 } else { 2 };
        assert_eq!((old[4], new[4]), (1, version), "{file}: frame versions");
        assert_eq!(old[..4], new[..4], "{file}: magic");
        // A payload sits between the 13-byte header and the 8-byte checksum.
        let appended: Vec<u8> = if manifest {
            widths
                .iter()
                .flat_map(|&w| (w as u64).to_le_bytes())
                .collect()
        } else {
            Vec::new()
        };
        assert_eq!(
            [&old[13..old.len() - 8], &appended[..]].concat(),
            new[13..new.len() - 8],
            "{file}: the payload must be byte-identical, a manifest's widths appended"
        );
        assert_ne!(
            old[old.len() - 8..],
            new[new.len() - 8..],
            "{file}: checksum"
        );
    }

    let task = SvmTask::new(4, 1, 2);
    let train = |table: &ColumnarTable| -> Vec<u64> {
        let config = TrainerConfig::default().with_convergence(ConvergenceTest::FixedEpochs(3));
        let trained = Trainer::new(&task, config).train(table);
        trained.model.iter().map(|w| w.to_bits()).collect()
    };
    let v2 = ColumnarTable::open_paged(&v2_dir, 2).unwrap();
    assert_eq!(kept_widths(&v2, arity), widths);
    assert_eq!(train(&v1), train(&v2));
    assert!(train(&v1).iter().any(|&bits| f64::from_bits(bits) != 0.0));

    // Inserts into the version-1 directory: the tail is rewritten as version
    // 2 and the manifest as 3, sealed segment 0 stays version 1 on disk.
    v1.insert_all(rows[6..].iter().cloned()).unwrap();
    v1.flush().unwrap();
    drop(v1);
    let version = |file: &str| std::fs::read(v1_dir.join(file)).unwrap()[4];
    assert_eq!(
        [
            "seg-000000.col",
            "seg-000001.col",
            "seg-000002.col",
            "columnar.meta"
        ]
        .map(version),
        [1, 2, 2, 3]
    );
    let rewritten = ColumnarTable::open_paged(&v1_dir, 1).unwrap();
    assert_eq!(all_tuples(&rewritten), rows);
    // Row 8's sparse vector reaches index 15; the rest is unchanged.
    assert_eq!(kept_widths(&rewritten, arity), [0, 0, 0, 0, 2, 1, 16, 0]);
    assert_eq!(
        walked_widths(&rewritten, arity),
        kept_widths(&rewritten, arity)
    );

    std::fs::remove_dir_all(&v1_dir).ok();
    std::fs::remove_dir_all(&v2_dir).ok();
}
