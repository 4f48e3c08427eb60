//! Exact cost counts of the training passes: heap allocations, counted by
//! the process's global allocator. A count does not move between builds or
//! machines the way a timing does, so a per-row copy that creeps back into a
//! pass fails here deterministically.
//!
//! The claim, per (task × layout × pass): one more epoch of a run costs at
//! most [`PER_BLOCK_OR_WORKER`] allocations per block of the table and per
//! thread of the pass — never one per row. Rows outnumber that bound several
//! times over, so a single allocation per row breaks it. Known per-row
//! allocators are listed in [`EXEMPT`], each with the item that removes it;
//! for those the test asserts the opposite, so the exemption is deleted in
//! the change that makes it stale.
//!
//! One test, alone in its binary and run serially: the counter is the
//! process's, so the threads a pass spawns count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_core::mrs::subsampling_train;
use bismarck_core::tasks::{CrfTask, KalmanTask, LmfTask, PortfolioTask};
use bismarck_core::{
    IgdTask, ModelStore, ParallelStrategy, ParallelTrainer, StepSizeSchedule, Trainer,
    TrainerConfig, UpdateDiscipline,
};
use bismarck_linalg::SparseVector;
use bismarck_storage::{
    Column, ColumnarTable, DataType, RowRef, ScanOrder, Schema, Table, TupleScan, Value,
};
use bismarck_uda::ConvergenceTest;

/// Allocations (and reallocations) made by every thread of the process.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic, so touching it
// neither allocates nor depends on the calling thread's state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` / `System.realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `run` makes.
fn allocations(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

const ROWS: usize = 4096;
/// Rows per columnar segment: 8 segments.
const CHUNK: usize = 512;
/// Segments the paged table's cache holds: every pass pages most of it in.
const CACHE: usize = 2;
/// Epochs of the shorter of the two runs compared.
const EPOCHS: usize = 2;
/// What one more epoch may allocate per block of the table and per thread
/// of its pass: the epoch's model copies and records, a thread's spawn, and
/// the decoded chunks of a paged segment, on each of the epoch's two passes.
const PER_BLOCK_OR_WORKER: usize = 48;

/// The per-row allocators the table exempts, and the item that removes them.
const EXEMPT: [(&str, &str); 2] = [
    ("LMF", "two Vecs per rating (ROADMAP 12(b))"),
    ("CRF", "its α / β lattices per sentence (ROADMAP 12(b))"),
];

/// `rows` rows of `columns`, row `r` being `row(r)`.
fn table(columns: Vec<Column>, row: impl Fn(usize) -> Vec<Value>) -> Table {
    let mut table = Table::new("costs", Schema::new(columns).unwrap());
    table.insert_all((0..ROWS).map(row)).unwrap();
    table
}

/// `table` as an in-memory columnar table and as a paged one in `dir` whose
/// cache holds `cache` segments.
fn layouts(table: &Table, dir: &Path, cache: usize) -> (ColumnarTable, ColumnarTable) {
    let schema = table.schema().clone();
    let values = || table.scan().map(|t| t.values().to_vec());
    let mut columnar = ColumnarTable::with_chunk_capacity("costs", schema.clone(), CHUNK);
    columnar.insert_all(values()).unwrap();
    let mut paged = ColumnarTable::create_paged("costs", schema, dir, CHUNK, cache).unwrap();
    paged.insert_all(values()).unwrap();
    paged.flush().unwrap();
    (columnar, paged)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bismarck_cost_counts_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A task that reads nothing but a `SEQUENCE` cell: it steps the one weight
/// towards the sentence's length.
struct SentenceLength;

impl IgdTask for SentenceLength {
    fn name(&self) -> &'static str {
        "SENTENCE_LENGTH"
    }
    fn dimension(&self) -> usize {
        1
    }
    fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
        if let Some(sentence) = row.get_sequence(0) {
            let w = model.read(0);
            model.update(0, -alpha * (w - sentence.len() as f64));
        }
    }
    fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
        row.get_sequence(0).map_or(0.0, |sentence| {
            0.5 * (model[0] - sentence.len() as f64).powi(2)
        })
    }
}

fn config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_scan_order(ScanOrder::Clustered)
        .with_step_size(StepSizeSchedule::Constant(0.01))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

/// The passes, with the threads each runs an epoch's two passes on.
const PASSES: [(&str, Option<ParallelStrategy>, usize); 3] = [
    ("sequential", None, 1),
    (
        "NoLock x 2",
        Some(ParallelStrategy::SharedMemory {
            workers: 2,
            discipline: UpdateDiscipline::NoLock,
        }),
        2,
    ),
    (
        "MRS, no buffer",
        Some(ParallelStrategy::Mrs {
            buffer_size: 0,
            seed: 1,
        }),
        1,
    ),
];

/// Allocations of one more epoch: an `EPOCHS + 1`-epoch run's beyond an
/// `EPOCHS`-epoch run's, after a one-epoch run has warmed up whatever the
/// first pass touches.
fn epoch_cost(run: impl Fn(usize)) -> usize {
    run(1);
    let short = allocations(|| run(EPOCHS));
    let long = allocations(|| run(EPOCHS + 1));
    long.saturating_sub(short)
}

fn blocks(data: &dyn TupleScan) -> usize {
    let mut blocks = 0;
    data.scan_blocks(0, usize::MAX, &mut |_| {
        blocks += 1;
        true
    });
    blocks
}

/// One row of the table: the cost of one more epoch of `task` under every
/// pass over `data`, against the bound or, for an exempt task, against one
/// allocation per row.
fn check_task<T: IgdTask>(task: &T, layout: &str, data: &dyn TupleScan) {
    let blocks = blocks(data);
    let exemption = EXEMPT.iter().find(|(name, _)| *name == task.name());
    for (pass, strategy, workers) in PASSES {
        let cost = epoch_cost(|epochs| match strategy {
            None => drop(Trainer::new(task, config(epochs)).train(data)),
            Some(strategy) => {
                drop(ParallelTrainer::new(task, config(epochs), strategy).train(data))
            }
        });
        let bound = PER_BLOCK_OR_WORKER * (blocks + workers);
        let case = format!("{} over the {layout} table, {pass}", task.name());
        eprintln!("{case}: {cost} allocations per epoch (bound {bound})");
        match exemption {
            None => assert!(
                cost <= bound,
                "{case}: one more epoch allocates {cost} times, more than {bound} \
                 ({blocks} blocks, {workers} thread(s)) — a copy per row?"
            ),
            Some((_, why)) => assert!(
                cost >= ROWS,
                "{case}: one more epoch allocates {cost} times, fewer than one per row: \
                 the exemption for {why} is stale, delete it"
            ),
        }
    }
}

#[test]
fn one_more_epoch_allocates_per_block_and_thread_not_per_row() {
    // A Kalman / portfolio observation and an LMF rating per row.
    let numbers = table(
        vec![
            Column::new("t", DataType::Int),
            Column::new("obs", DataType::DenseVec),
            Column::new("i", DataType::Int),
            Column::new("j", DataType::Int),
            Column::new("rating", DataType::Double),
        ],
        |r| {
            let x = (r as f64 * 0.37).sin();
            vec![
                Value::Int((r % 256) as i64),
                Value::from(vec![0.05 + 0.1 * x, 0.01 - 0.02 * x]),
                Value::Int((r % 32) as i64),
                Value::Int((r * 7 % 32) as i64),
                Value::Double(1.0 + x),
            ]
        },
    );
    // A labelled sentence of three words per row.
    let sentences = table(vec![Column::new("seq", DataType::Sequence)], |r| {
        let words = (0..3).map(|p| {
            let word = SparseVector::from_pairs(vec![((r + p) % 8, 1.0)]);
            (word, (r + p) as u32 % 3)
        });
        vec![Value::Sequence(words.collect())]
    });
    let dir = temp_dir("numbers");
    let (columnar, paged) = layouts(&numbers, &dir, CACHE);
    // A SEQUENCE chunk is stored as owned values and decodes every sentence
    // anew on each page-in: a cost of paging it, not of the pass, so this
    // paged table keeps all its segments once they are in.
    let sentence_dir = temp_dir("sentences");
    let (sentence_columnar, sentence_paged) = layouts(&sentences, &sentence_dir, ROWS / CHUNK);
    assert!(
        PER_BLOCK_OR_WORKER * (blocks(&columnar) + 2) < ROWS / 2,
        "the bound must stay far below one allocation per row"
    );

    let kalman = KalmanTask::new(0, 1, 256, 2, 0.5);
    let lmf = LmfTask::new(2, 3, 4, 32, 32, 3);
    let crf = CrfTask::new(0, 8, 3);
    for (layout, numbers, sentences) in [
        ("columnar", &columnar, &sentence_columnar),
        ("paged", &paged, &sentence_paged),
    ] {
        check_task(&kalman, layout, numbers);
        check_task(&lmf, layout, numbers);
        check_task(&SentenceLength, layout, sentences);
        check_task(&crf, layout, sentences);
    }

    // The subsampling baseline projects onto the simplex after every step
    // on its sample, in place.
    let means = vec![0.05, 0.01];
    let portfolio = PortfolioTask::new(1, means.clone(), means, 1.0, ROWS);
    for (layout, data) in [("columnar", &columnar), ("paged", &paged)] {
        let cost = epoch_cost(|epochs| {
            drop(subsampling_train(
                &portfolio,
                data,
                ROWS / 2,
                StepSizeSchedule::Constant(0.01),
                ConvergenceTest::FixedEpochs(epochs),
                7,
            ))
        });
        let bound = PER_BLOCK_OR_WORKER * (blocks(data) + 1);
        eprintln!("PORTFOLIO subsampling over the {layout} table: {cost} (bound {bound})");
        assert!(
            cost <= bound,
            "PORTFOLIO subsampling over the {layout} table: one more epoch allocates \
             {cost} times, more than {bound} — a copy per step?"
        );
    }
    drop((paged, sentence_paged));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&sentence_dir).ok();
}
