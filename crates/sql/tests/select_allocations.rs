//! A `SELECT`'s heap allocations, counted: evaluating a bound expression
//! allocates only for a value it creates, so scoring a table costs one
//! allocation per *output* row (the row itself) and a folded aggregate costs
//! none per row. One test, alone in its binary, because the counter is the
//! process's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_sql::SqlSession;
use bismarck_storage::{Column, ColumnarTable, DataType, Schema, Value};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell`, so touching it neither allocates nor can it be torn down while the
// thread still allocates (`try_with` covers thread exit).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` / `System.realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A session holding columnar table `t` of `rows` rows `(id, vec)` over
/// several segments, and model `m`.
fn session(rows: usize) -> SqlSession {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("vec", DataType::DenseVec),
    ])
    .unwrap();
    let mut table = ColumnarTable::with_chunk_capacity("t", schema, 256);
    for i in 0..rows {
        let x = i as f64 - rows as f64 / 2.0;
        table
            .insert(vec![
                Value::Int(i as i64),
                Value::DenseVec(vec![x, 1.0, -x, 0.5]),
            ])
            .unwrap();
    }
    let mut session = SqlSession::with_seed(1);
    session.register_columnar_table(table).unwrap();
    let model = ModelHandle::new(ServingTask::LeastSquares, 4);
    model.publish(&[1.0, 0.0, 0.5, -1.0]).unwrap();
    session.register_model_handle("m", model);
    session
}

/// Allocations `sql` makes, and how many rows it returns.
fn allocations(session: &mut SqlSession, sql: &str) -> (usize, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = session.execute(sql).unwrap();
    (ALLOCATIONS.with(Cell::get) - before, result.len())
}

#[test]
fn a_select_allocates_per_output_row_and_nothing_per_input_row() {
    let n = 4096;
    let mut small = session(n);
    let mut large = session(2 * n);

    // One allocation per output row, plus the result's own amortised growth.
    let scoring = "SELECT PREDICT('m', vec) FROM t";
    let (a, rows) = allocations(&mut small, scoring);
    assert_eq!(rows, n);
    let (b, rows) = allocations(&mut large, scoring);
    assert_eq!(rows, 2 * n);
    assert!(b > a, "the result rows are allocated: {a} and {b}");
    assert!(
        (b - a) as f64 <= 1.1 * n as f64,
        "{n} more rows cost {} more allocations",
        b - a
    );

    // Folded as the scan goes: no row is kept, none is allocated for.
    let counting = "SELECT COUNT(*) FROM t WHERE PREDICT('m', vec) > 0";
    let (a, _) = allocations(&mut small, counting);
    let (b, _) = allocations(&mut large, counting);
    assert_eq!(a, b, "twice the rows, the same allocations");

    // The same holds for the other expressions that read a column in place.
    let folding = "SELECT SUM(DOT(vec, vec)), MAX(DIM(vec) + id), AVG(PREDICT('m', id, 1, 2, 3)) \
                   FROM t WHERE NNZ(vec) = 4 AND id >= 0";
    let (a, _) = allocations(&mut small, folding);
    let (b, _) = allocations(&mut large, folding);
    assert_eq!(a, b, "twice the rows, the same allocations");
}
