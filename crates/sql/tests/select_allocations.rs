//! A `SELECT`'s heap allocations, counted: evaluating a bound expression
//! allocates only for a value it creates, so scoring a table costs one
//! allocation per *output* row (the row itself), and a statement that folds
//! its rows — an aggregate, grouped or not — costs the same allocations
//! however many rows it reads. Checked over the row, columnar and paged
//! layouts.
//!
//! One test, alone in its binary: the counter is the process's global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_sql::SqlSession;
use bismarck_storage::{Column, ColumnarTable, DataType, Schema, Table, Value};

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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bismarck_select_allocations_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Rows per segment of the `SELECT` tables: the row store's page.
const SELECT_CHUNK: usize = 256;

/// A session holding table `t` of `rows` rows `(id, vec, label)` in
/// `layout` — a paged one in `dir`, its cache holding every segment — and
/// model `m`. Every segment is read once, so a statement reads them from the
/// cache.
fn select_session(rows: usize, layout: &str, dir: &Path) -> SqlSession {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();
    let values = (0..rows).map(|i| {
        let x = i as f64 - rows as f64 / 2.0;
        let label = if i % 2 == 0 { 1.0 } else { -1.0 };
        vec![
            Value::Int(i as i64),
            Value::DenseVec(vec![x, 1.0, -x, 0.5]),
            Value::Double(label),
        ]
    });
    let mut session = SqlSession::with_seed(1);
    match layout {
        "row" => {
            let mut table = Table::new("t", schema);
            table.insert_all(values).unwrap();
            session.register_table(table).unwrap();
        }
        "columnar" => {
            let mut table = ColumnarTable::with_chunk_capacity("t", schema, SELECT_CHUNK);
            table.insert_all(values).unwrap();
            session.register_columnar_table(table).unwrap();
        }
        _ => {
            let cache = rows / SELECT_CHUNK + 1;
            let mut table =
                ColumnarTable::create_paged("t", schema, dir, SELECT_CHUNK, cache).unwrap();
            table.insert_all(values).unwrap();
            table.flush().unwrap();
            session.register_columnar_table(table).unwrap();
        }
    }
    let model = ModelHandle::new(ServingTask::LeastSquares, 4);
    model.publish(&[1.0, 0.0, 0.5, -1.0]).unwrap();
    session.register_model_handle("m", model);
    session.execute("SELECT COUNT(*) FROM t").unwrap();
    session
}

/// Allocations `sql` makes, and how many rows it returns.
fn allocations(session: &mut SqlSession, sql: &str) -> (usize, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = session.execute(sql).unwrap();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result.len())
}

/// The same statements over `n` and `2n` rows, over every layout.
#[test]
fn a_select_allocates_per_output_row_and_nothing_per_input_row() {
    let n = 4096;
    // Folded as the scan goes: no row is kept, none is allocated for — by
    // one group or by several, and by the expressions that read a column in
    // place.
    let folding = [
        "SELECT COUNT(*) FROM t WHERE PREDICT('m', vec) > 0",
        "SELECT SUM(DOT(vec, vec)), MAX(DIM(vec) + id), AVG(PREDICT('m', id, 1, 2, 3)) \
         FROM t WHERE NNZ(vec) = 4 AND id >= 0",
        "SELECT label, COUNT(*), AVG(PREDICT('m', vec)) FROM t GROUP BY label",
    ];
    for layout in ["row", "columnar", "paged"] {
        let (small_dir, large_dir) = (temp_dir("n"), temp_dir("2n"));
        let mut small = select_session(n, layout, &small_dir);
        let mut large = select_session(2 * n, layout, &large_dir);

        // One allocation per output row, plus the result's own amortised
        // growth.
        let scoring = "SELECT PREDICT('m', vec) FROM t";
        let (a, rows) = allocations(&mut small, scoring);
        assert_eq!(rows, n, "{layout}");
        let (b, rows) = allocations(&mut large, scoring);
        assert_eq!(rows, 2 * n, "{layout}");
        eprintln!("{scoring} over the {layout} table: {a}, then {b} over twice the rows");
        assert!(
            b > a,
            "{layout}: the result rows are allocated: {a} and {b}"
        );
        assert!(
            (b - a) as f64 <= 1.1 * n as f64,
            "{layout}: {n} more rows cost {} more allocations",
            b - a
        );

        for statement in folding {
            let (a, _) = allocations(&mut small, statement);
            let (b, _) = allocations(&mut large, statement);
            eprintln!("{statement} over the {layout} table: {a}, then {b} over twice the rows");
            assert_eq!(
                a, b,
                "{statement} over the {layout} table: twice the rows, the same allocations"
            );
        }
        drop((small, large));
        std::fs::remove_dir_all(&small_dir).ok();
        std::fs::remove_dir_all(&large_dir).ok();
    }
}
