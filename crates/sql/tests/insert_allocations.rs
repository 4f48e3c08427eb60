//! An `INSERT`'s heap allocations, counted: when its `VALUES` rows call
//! `PREDICT`, a persisted model is loaded once per statement, not once per
//! row.
//!
//! One test, alone in its binary: the counter is the process's global
//! allocator.

mod counting;

use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_sql::SqlSession;

use counting::allocations;

/// A session holding the four-weight model `m` — a persisted model table, or
/// a registered serving handle — and an empty table `s` to insert into.
fn insert_session(persisted: bool) -> SqlSession {
    let mut session = SqlSession::with_seed(1);
    session
        .execute_script("CREATE TABLE s (id INT, score DOUBLE)")
        .unwrap();
    if persisted {
        session
            .execute_script(
                "CREATE TABLE m (idx INT, weight DOUBLE);
                 INSERT INTO m VALUES (0, 1.0), (1, 0.0), (2, 0.5), (3, -1.0)",
            )
            .unwrap();
    } else {
        let model = ModelHandle::new(ServingTask::LeastSquares, 4);
        model.publish(&[1.0, 0.0, 0.5, -1.0]).unwrap();
        session.register_model_handle("m", model);
    }
    session
}

/// `INSERT INTO s VALUES` of `rows` rows, each scored by `PREDICT('m', …)`.
fn scoring_insert(rows: usize) -> String {
    let values: Vec<String> = (0..rows)
        .map(|i| format!("({i}, PREDICT('m', ARRAY[{i}.0, 1.0, -{i}.0, 0.5]))"))
        .collect();
    format!("INSERT INTO s VALUES {}", values.join(", "))
}

/// The same `INSERT`s of `n` and `2n` rows against a persisted model and
/// against a handle, which needs no load: what the persisted model costs on
/// top is its one load, so it does not grow with the rows.
#[test]
fn an_insert_loads_its_persisted_model_once() {
    let n = 512;
    let (small, large) = (scoring_insert(n), scoring_insert(2 * n));
    let mut extra = Vec::new();
    for sql in [&small, &large] {
        let (persisted, _) = allocations(&mut insert_session(true), sql);
        let (handle, _) = allocations(&mut insert_session(false), sql);
        eprintln!(
            "{} VALUES rows: {persisted} against the table, {handle} against the handle",
            sql.matches("PREDICT").count()
        );
        assert!(
            persisted > handle,
            "loading the table allocates: {persisted} vs {handle}"
        );
        extra.push(persisted - handle);
    }
    assert_eq!(
        extra[0], extra[1],
        "the model table's extra allocations grew with the rows: {extra:?}"
    );
}
