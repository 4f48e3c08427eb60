//! Resource-governance integration tests: deadlines, cooperative
//! cancellation, memory budgets, admission control and graceful shutdown,
//! exercised across the SQL, training and serving layers.
//!
//! Three layers of coverage:
//!
//! * deadline/cancel semantics — a guard tripping mid-run ends training at
//!   the next epoch boundary (or inside a pass: between two blocks, or two
//!   slices of a permuted walk) with
//!   `TrainError::Interrupted` (carrying a finite last-good model) under
//!   every parallelization discipline, and ends SQL statements with typed
//!   `SqlError::Timeout` / `Cancelled` without poisoning the session;
//! * memory budgets — an oversized materialization is rejected with
//!   `SqlError::MemoryBudget`, the reservation is returned, and the next
//!   statement runs normally;
//! * graceful shutdown — `Governor::shutdown` drains in-flight guards,
//!   `SqlSession::shutdown` persists last-published serving models and
//!   compacts the durable catalog; a crash at *every* byte-level fault
//!   point inside shutdown still leaves a catalog that recovers to a
//!   consistent state, and a write fault while persisting is the storage
//!   error it was.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bismarck_core::governor::{AdmissionError, Governor, QueryGuard, QueryLimits};
use bismarck_core::serving::{ModelHandle, ServingTask};
use bismarck_core::tasks::LogisticRegressionTask;
use bismarck_core::{
    ParallelStrategy, ParallelTrainer, StepSizeSchedule, TrainError, Trainer, TrainerConfig,
    UpdateDiscipline,
};
use bismarck_datagen::{dense_classification, DenseClassificationConfig};
use bismarck_sql::{SqlError, SqlSession};
use bismarck_storage::{
    ColumnarTable, RowBlock, ScanOrder, StorageError, Table, Tuple, TupleScan, Value,
};
use bismarck_uda::{segment_workers, ConvergenceTest};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bismarck-governance-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn data(n: usize) -> Table {
    dense_classification(
        "gov",
        DenseClassificationConfig {
            examples: n,
            dimension: 4,
            ..Default::default()
        },
    )
}

fn config(epochs: usize) -> TrainerConfig {
    TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.1))
        .with_convergence(ConvergenceTest::FixedEpochs(epochs))
}

/// A guard whose deadline has already passed: the very first check trips,
/// making guard-path tests deterministic (no sleeps, no timing races).
fn expired_guard() -> QueryGuard {
    QueryGuard::new(QueryLimits::none().with_deadline(Instant::now() - Duration::from_millis(1)))
}

// ---------------------------------------------------------------------------
// Training: deadlines and cancellation end runs at epoch boundaries.
// ---------------------------------------------------------------------------

#[test]
fn expired_deadline_interrupts_sequential_training_with_last_good_model() {
    let table = data(120);
    let task = LogisticRegressionTask::new(1, 2, 4);
    let err = Trainer::new(&task, config(50).with_guard(expired_guard()))
        .try_train(&table)
        .unwrap_err();
    let TrainError::Interrupted { epoch, last_good } = err else {
        panic!("expected Interrupted, got {err:?}");
    };
    assert_eq!(epoch, 0, "pre-expired deadline must stop before epoch 1");
    assert!(last_good.model.iter().all(|v| v.is_finite()));
}

#[test]
fn deadline_mid_run_interrupts_every_parallel_discipline() {
    let table = data(300);
    for strategy in [
        ParallelStrategy::PureUda { segments: 4 },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::Lock,
        },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::Aig,
        },
        ParallelStrategy::SharedMemory {
            workers: 4,
            discipline: UpdateDiscipline::NoLock,
        },
        // That `try_train` returns at all says no Memory Worker outlives it.
        ParallelStrategy::Mrs {
            buffer_size: 30,
            seed: 3,
        },
    ] {
        let task = LogisticRegressionTask::new(1, 2, 4);
        // Short real deadline with an epoch budget far beyond it: the run
        // must end early, at an epoch boundary, with a usable model.
        let guard = QueryGuard::new(QueryLimits::none().with_timeout(Duration::from_millis(30)));
        let started = Instant::now();
        let err = ParallelTrainer::new(&task, config(1_000_000).with_guard(guard), strategy)
            .try_train(&table)
            .unwrap_err();
        let elapsed = started.elapsed();
        let TrainError::Interrupted { epoch, last_good } = err else {
            panic!("[{}] expected Interrupted, got {err:?}", strategy.label());
        };
        assert!(
            epoch < 1_000_000,
            "[{}] run was not cut short",
            strategy.label()
        );
        assert!(
            last_good.model.iter().all(|v| v.is_finite()),
            "[{}] last-good model must be finite",
            strategy.label()
        );
        // Generous bound: "near the deadline" means seconds, not the full
        // million-epoch run (which would take minutes).
        assert!(
            elapsed < Duration::from_secs(30),
            "[{}] took {elapsed:?}, guard did not fire",
            strategy.label()
        );
    }
}

#[test]
fn cancelling_a_guard_clone_stops_training() {
    let table = data(200);
    let task = LogisticRegressionTask::new(1, 2, 4);
    let guard = QueryGuard::unlimited();
    let remote = guard.clone();
    remote.cancel(); // any clone reaches the shared flag
    let err = Trainer::new(&task, config(50).with_guard(guard))
        .try_train(&table)
        .unwrap_err();
    assert!(matches!(err, TrainError::Interrupted { .. }), "got {err:?}");
}

/// Serves a table, cancelling `guard` while it serves unit number `stop_at`
/// (counted from 0 across all passes of the run): a block of a storage-order
/// read or, if `rows`, a row of a permuted walk.
struct StopAt<'a> {
    inner: &'a ColumnarTable,
    rows: bool,
    stop_at: usize,
    served: AtomicUsize,
    guard: QueryGuard,
}

impl StopAt<'_> {
    fn serve(&self) {
        if self.served.fetch_add(1, Ordering::SeqCst) == self.stop_at {
            self.guard.cancel();
        }
    }
}

impl TupleScan for StopAt<'_> {
    fn tuple_count(&self) -> usize {
        self.inner.tuple_count()
    }
    fn vector_width(&self, col: usize) -> usize {
        self.inner.vector_width(col)
    }
    fn scan_blocks(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(RowBlock<'_>) -> bool,
    ) -> Result<(), StorageError> {
        self.inner.scan_blocks(start, end, &mut |block| {
            if !self.rows {
                self.serve();
            }
            f(block)
        })
    }
    fn scan_tuples_permuted(
        &self,
        order: &[usize],
        f: &mut dyn FnMut(&Tuple),
    ) -> Result<(), StorageError> {
        self.inner.scan_tuples_permuted(order, &mut |tuple| {
            if self.rows {
                self.serve();
            }
            f(tuple)
        })
    }
}

/// A stop request binds inside an epoch: every pass — the sequential one,
/// the MRS one (its I/O Worker's scan), a pure-UDA segment, a shared-memory
/// worker and the loss pass (every range of it, when a pure-UDA run splits
/// it over threads) — polls it between blocks, or between slices of a
/// permuted walk, discards the attempt, and reports it exactly like a stop
/// at the epoch boundary — so resuming loses nothing.
#[test]
fn stop_flag_binds_between_the_blocks_of_a_sequential_pass() {
    const SEGMENTS: usize = 24;
    const ROWS: usize = SEGMENTS * 50;
    // Rows a permuted walk hands over between two polls: a row-store page.
    const SLICE: usize = 256;
    let rows = data(ROWS);
    let dir = temp_dir("stop-mid-epoch");
    let mut paged = ColumnarTable::create_paged("gov", rows.schema().clone(), &dir, 50, 3).unwrap();
    paged
        .insert_all(rows.scan().map(|t| t.values().to_vec()))
        .unwrap();
    paged.flush().unwrap();
    assert_eq!(paged.segment_count(), SEGMENTS);

    let task = LogisticRegressionTask::new(1, 2, 4);
    // `None` is `Trainer`; MRS without a buffer, pure UDA and one NoLock
    // worker are deterministic, so their runs compare bitwise too. A
    // checkpoint path resumes from it.
    let mrs = ParallelStrategy::Mrs {
        buffer_size: 0,
        seed: 3,
    };
    let pure_uda = ParallelStrategy::PureUda { segments: 2 };
    let no_lock = ParallelStrategy::SharedMemory {
        workers: 1,
        discipline: UpdateDiscipline::NoLock,
    };
    // A pure-UDA run reads each pass in as many ranges at once as it has
    // threads; the others read one.
    let ranges = |trainer: Option<ParallelStrategy>| match trainer {
        Some(ParallelStrategy::PureUda { segments }) => segment_workers(segments),
        _ => 1,
    };
    let run = |trainer: Option<ParallelStrategy>,
               config: TrainerConfig,
               data: &dyn TupleScan,
               resume: Option<&Path>| match (trainer, resume) {
        (None, None) => Trainer::new(&task, config).try_train(data),
        (None, Some(path)) => Trainer::new(&task, config).resume_from(data, path),
        (Some(strategy), resume) => {
            let trainer = ParallelTrainer::new(&task, config, strategy);
            match resume {
                None => trainer.try_train(data),
                Some(path) => trainer.resume_from(data, path),
            }
            .map(|(trained, _)| trained)
        }
    };
    let shuffled = ScanOrder::ShuffleOnce { seed: 7 };
    let cases = [
        (None, ScanOrder::Clustered),
        (Some(mrs), ScanOrder::Clustered),
        (Some(pure_uda), ScanOrder::Clustered),
        (Some(no_lock), ScanOrder::Clustered),
        (None, shuffled),
        (Some(no_lock), shuffled),
    ];
    for (trainer, order) in cases {
        let configured = |epochs| config(epochs).with_scan_order(order);
        let uninterrupted = run(trainer, configured(5), &paged, None).unwrap();
        let two_epochs = run(trainer, configured(2), &paged, None).unwrap();

        // In storage order an epoch is a gradient pass and a loss pass of 24
        // blocks each; stop inside epoch 2's gradient pass, then inside its
        // loss pass. A permuted gradient pass walks 1 200 rows: stop at its
        // row 300, inside its second slice.
        let passes = match order {
            ScanOrder::Clustered => vec![("gradient", 2 * 48 + 10), ("loss", 2 * 48 + 24 + 10)],
            _ => vec![("permuted gradient", 2 * ROWS + 300)],
        };
        for (pass, stop_at) in passes {
            let pass = format!("{trainer:?}, {pass}");
            let checkpoint = dir.join("stop.ckpt");
            let guard = QueryGuard::unlimited();
            let scan = StopAt {
                inner: &paged,
                rows: order != ScanOrder::Clustered,
                stop_at,
                served: AtomicUsize::new(0),
                guard: guard.clone(),
            };
            // A cadence of 100 is never due: the only write is the interrupt's.
            let config = configured(5)
                .with_guard(guard)
                .with_checkpoints(&checkpoint, 100);
            let err = run(trainer, config, &scan, None).unwrap_err();
            let TrainError::Interrupted { epoch, last_good } = err else {
                panic!("[{pass}] expected Interrupted, got {err:?}");
            };
            // Units `0..=stop_at` are served by the time the guard is
            // cancelled. Each range polls before every block but its first
            // (`scan_blocks_while`), so the range that cancelled serves no
            // more blocks, and each other range at most one: the one it had
            // already polled for, or its unconditional first. A permuted
            // walk polls between slices, so it serves at most the rest of
            // the slice it is in.
            let served = scan.served.load(Ordering::SeqCst);
            let after_cancel = served - (stop_at + 1);
            let bound = if scan.rows { SLICE } else { ranges(trainer) };
            assert!(
                after_cancel <= bound,
                "[{pass}] {after_cancel} units served after the guard was cancelled \
                 during unit {stop_at}, more than {bound}"
            );
            assert_eq!(epoch, 2, "[{pass}]");
            assert_eq!(last_good.epochs(), 2, "[{pass}]");
            assert_eq!(last_good.model, two_epochs.model, "[{pass}]");
            assert_eq!(
                last_good.history.losses(),
                two_epochs.history.losses(),
                "[{pass}]"
            );

            let resumed = run(trainer, configured(5), &paged, Some(&checkpoint)).unwrap();
            assert_eq!(resumed.model, uninterrupted.model, "[{pass}]");
            assert_eq!(
                resumed.history.losses(),
                uninterrupted.history.losses(),
                "[{pass}]"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// SQL: typed governance errors, sessions stay usable.
// ---------------------------------------------------------------------------

#[test]
fn fifty_ms_deadline_times_out_a_training_statement_near_the_deadline() {
    let mut session = SqlSession::with_seed(5);
    session.register_table(data(500)).unwrap();

    let guard = QueryGuard::new(QueryLimits::none().with_timeout(Duration::from_millis(50)));
    let started = Instant::now();
    // An epoch budget this large would run for minutes unguarded.
    let err = session
        .execute_with(
            "SELECT SVMTrain('m', 'gov', 'vec', 'label', 0.1, 1000000)",
            &guard,
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(err, SqlError::Timeout, "got {err:?}");
    assert!(
        elapsed < Duration::from_secs(30),
        "statement ran {elapsed:?} past a 50ms deadline"
    );
    // The failed run persisted nothing and the session still works.
    assert!(!session.database().contains("m"));
    session
        .execute("SELECT SVMTrain('m', 'gov', 'vec', 'label', 0.1, 2)")
        .expect("unguarded statement after a timeout");
    assert!(session.database().contains("m"));
}

#[test]
fn expired_deadline_times_out_scans_and_cancel_surfaces_cancelled() {
    let mut session = SqlSession::with_seed(6);
    session.register_table(data(100)).unwrap();

    let err = session
        .execute_with("SELECT COUNT(*) FROM gov", &expired_guard())
        .unwrap_err();
    assert_eq!(err, SqlError::Timeout);

    let cancelled = QueryGuard::unlimited();
    cancelled.cancel();
    let err = session
        .execute_with("SELECT COUNT(*) FROM gov", &cancelled)
        .unwrap_err();
    assert_eq!(err, SqlError::Cancelled);

    // Cancellation wins over an expired deadline (matches the governor's
    // check order), and the session is unaffected either way.
    let both = expired_guard();
    both.cancel();
    let err = session
        .execute_with("SELECT COUNT(*) FROM gov", &both)
        .unwrap_err();
    assert_eq!(err, SqlError::Cancelled);
    let n = session.execute("SELECT COUNT(*) FROM gov").unwrap();
    assert_eq!(n.single_value(), Some(&Value::Int(100)));
}

#[test]
fn memory_budget_rejects_oversized_ctas_without_poisoning_the_session() {
    let mut session = SqlSession::with_seed(7);
    session.register_table(data(500)).unwrap();

    // 500 rows of 4-dim dense vectors is far beyond 1 KiB.
    let tight = QueryGuard::new(QueryLimits::none().with_memory_limit(1024));
    let err = session
        .execute_with("CREATE TABLE gov_copy AS SELECT * FROM gov", &tight)
        .unwrap_err();
    let SqlError::MemoryBudget(exceeded) = err else {
        panic!("expected MemoryBudget, got {err:?}");
    };
    assert_eq!(exceeded.limit, 1024);
    assert!(!session.database().contains("gov_copy"), "no partial CTAS");
    // The failed statement returned its reservation to the budget...
    assert_eq!(tight.budget().reserved(), 0);
    // ...so a statement that fits still runs under the same guard,
    let small = session
        .execute_with("SELECT COUNT(*) FROM gov WHERE id < 3", &tight)
        .unwrap();
    assert_eq!(small.single_value(), Some(&Value::Int(3)));
    // and an unguarded CTAS of the same shape succeeds.
    session
        .execute("CREATE TABLE gov_copy AS SELECT * FROM gov")
        .unwrap();
    let n = session.execute("SELECT COUNT(*) FROM gov_copy").unwrap();
    assert_eq!(n.single_value(), Some(&Value::Int(500)));
}

#[test]
fn memory_budget_charges_what_a_select_keeps_and_only_that() {
    let mut session = SqlSession::with_seed(7);
    session.register_table(data(500)).unwrap();
    let handle = ModelHandle::new(ServingTask::LeastSquares, 4);
    handle.publish(&[0.5, -0.25, 1.0, 2.0]).unwrap();
    session.register_model_handle("m", handle);

    // Room for 500 one-integer rows (a `Value` each), not for 500 rows that
    // hold a 4-dim vector (a `Value` and 32 bytes for the vector alone).
    let limit = 500 * std::mem::size_of::<Value>() * 5 / 4;
    let guard = QueryGuard::new(QueryLimits::none().with_memory_limit(limit));
    let mut run = |sql: &str| {
        let result = session.execute_with(sql, &guard);
        assert_eq!(guard.budget().reserved(), 0, "`{sql}` released its charge");
        result
    };

    // The scan lends rows; only what is projected is kept and charged.
    assert_eq!(run("SELECT id FROM gov").unwrap().len(), 500);
    // An aggregate folds as the scan goes and keeps no row at all.
    let positives = run("SELECT COUNT(*) FROM gov WHERE PREDICT('m', vec) > 0").unwrap();
    assert!(positives.single_value().and_then(Value::as_int).unwrap() > 0);
    // Grouping is charged per group: two groups fit, one group per row of
    // (key, first-row value, output row) does not.
    assert_eq!(
        run("SELECT label, COUNT(*) FROM gov GROUP BY label")
            .unwrap()
            .len(),
        2
    );
    for refused in [
        "SELECT * FROM gov",
        "SELECT vec FROM gov ORDER BY id",
        "SELECT id, COUNT(*) FROM gov GROUP BY id",
        "SELECT MIN(vec), id FROM gov GROUP BY id",
    ] {
        match run(refused) {
            Err(SqlError::MemoryBudget(exceeded)) => assert_eq!(exceeded.limit, limit),
            other => panic!("`{refused}`: expected MemoryBudget, got {other:?}"),
        }
    }
    // MIN / MAX hold one value at a time, and give back the one they drop.
    assert_eq!(run("SELECT MAX(vec), MIN(id) FROM gov").unwrap().len(), 1);
}

#[test]
fn a_constant_insert_is_charged_row_by_row_and_polls_its_guard() {
    // 10 000 rows the parser reads as constants: their values are moved into
    // the rows, not evaluated — and must still be metered on the way.
    let mut session = SqlSession::with_seed(7);
    session
        .execute("CREATE TABLE big (id INT, vec DENSE_VEC, label DOUBLE)")
        .unwrap();
    let rows: Vec<String> = (0..10_000)
        .map(|r| format!("({r}, ARRAY[0.5, -1.25, {r}.0, 4.0], -1.0)"))
        .collect();
    let insert = format!("INSERT INTO big VALUES {}", rows.join(", "));
    let count = |session: &mut SqlSession| {
        let n = session.execute("SELECT COUNT(*) FROM big").unwrap();
        n.single_value().and_then(Value::as_int)
    };

    let limit = 64 * 1024;
    let tight = QueryGuard::new(QueryLimits::none().with_memory_limit(limit));
    let err = session.execute_with(&insert, &tight).unwrap_err();
    let SqlError::MemoryBudget(exceeded) = err else {
        panic!("expected MemoryBudget, got {err:?}");
    };
    // The rows before the one that did not fit had each been charged.
    assert!(exceeded.reserved > limit / 2 && exceeded.reserved <= limit);
    assert!(exceeded.requested < 1024, "one row: {exceeded}");
    assert_eq!(count(&mut session), Some(0), "all-or-nothing batch");
    assert_eq!(tight.budget().reserved(), 0, "reservation released");

    let cancelled = QueryGuard::unlimited();
    cancelled.cancel();
    let err = session.execute_with(&insert, &cancelled).unwrap_err();
    assert_eq!(err, SqlError::Cancelled);
    assert_eq!(count(&mut session), Some(0));

    // The same statement fits a budget sized for it, and releases it.
    let roomy = QueryGuard::new(QueryLimits::none().with_memory_limit(16 << 20));
    session.execute_with(&insert, &roomy).unwrap();
    assert_eq!(count(&mut session), Some(10_000));
    assert_eq!(roomy.budget().reserved(), 0);
}

#[test]
fn cancelled_multi_batch_insert_leaves_a_recoverable_durable_catalog() {
    let dir = temp_dir("cancel-insert");
    {
        let mut session = SqlSession::open(&dir).unwrap();
        session
            .execute_script(
                "CREATE TABLE t (id INT);
                 INSERT INTO t VALUES (1), (2), (3);",
            )
            .unwrap();

        // A cancelled guard stops the next INSERT before any row reaches
        // the WAL: the statement's materialization phase checks the guard
        // ahead of the storage write, so the batch is all-or-nothing.
        let cancelled = QueryGuard::unlimited();
        cancelled.cancel();
        let err = session
            .execute_with("INSERT INTO t VALUES (4), (5), (6), (7)", &cancelled)
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled);

        // The session keeps working after the cancellation.
        session.execute("INSERT INTO t VALUES (8)").unwrap();
    }

    // Reopen: recovery must see exactly the acknowledged rows — the
    // cancelled batch contributes nothing, the later insert survives.
    let mut session = SqlSession::open(&dir).unwrap();
    let report = session.recovery_report().unwrap().clone();
    assert_eq!(report.bytes_truncated, 0, "no torn tail: {report}");
    let ids: Vec<i64> = session
        .execute("SELECT id FROM t ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 8]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn copy_racing_a_cancel_is_atomic_in_the_durable_catalog() {
    let dir = temp_dir("cancel-copy");
    let csv_path = dir.with_extension("csv");
    {
        let mut session = SqlSession::open(&dir).unwrap();
        session.execute("CREATE TABLE t (id INT)").unwrap();
        let mut csv = String::new();
        for i in 0..5_000 {
            csv.push_str(&format!("{i}\n"));
        }
        std::fs::write(&csv_path, csv).unwrap();

        // Cancel from another thread while COPY runs: whichever side wins,
        // the catalog must hold all 5000 rows or none of them.
        let guard = QueryGuard::unlimited();
        let remote = guard.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            remote.cancel();
        });
        let result = session.execute_with(
            &format!("COPY t FROM '{}'", csv_path.to_str().unwrap()),
            &guard,
        );
        canceller.join().unwrap();
        match result {
            Ok(_) => {}
            Err(SqlError::Cancelled) => {}
            Err(other) => panic!("expected success or Cancelled, got {other:?}"),
        }
    }

    let mut session = SqlSession::open(&dir).unwrap();
    let n = session
        .execute("SELECT COUNT(*) FROM t")
        .unwrap()
        .single_value()
        .unwrap()
        .as_int()
        .unwrap();
    assert!(
        n == 0 || n == 5_000,
        "COPY must be all-or-nothing under cancellation, found {n} rows"
    );
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Admission control and shutdown.
// ---------------------------------------------------------------------------

#[test]
fn admission_sheds_excess_statements_and_frees_slots_on_drop() {
    let governor = Governor::new(2);
    let g1 = governor.admit(QueryLimits::none()).unwrap();
    let _g2 = governor.admit(QueryLimits::none()).unwrap();
    let err = governor.admit(QueryLimits::none()).unwrap_err();
    let AdmissionError::Shed {
        active,
        max_concurrent,
    } = err
    else {
        panic!("expected Shed, got {err:?}");
    };
    assert_eq!((active, max_concurrent), (2, 2));
    // The typed error maps into the SQL error space for callers that
    // surface admission failures through statement results.
    assert!(matches!(SqlError::from(err), SqlError::Admission(_)));

    // A clone keeps the slot; dropping the last clone frees it.
    let keep = g1.clone();
    drop(g1);
    assert_eq!(governor.active(), 2);
    drop(keep);
    assert_eq!(governor.active(), 1);
    governor.admit(QueryLimits::none()).unwrap();
}

#[test]
fn shutdown_persists_serving_models_compacts_and_recovers_identically() {
    let dir = temp_dir("shutdown");
    let expected_weights = vec![0.25, -1.5, 3.0];
    let prediction_sql = "SELECT PREDICT('m', 1.0, 2.0, -1.0)";
    let before;
    {
        let mut session = SqlSession::open(&dir).unwrap();
        session.register_table(data(200)).unwrap();
        session
            .execute("SELECT SVMTrain('m', 'gov', 'vec', 'label', 0.1, 3)")
            .unwrap();
        before = session
            .execute(prediction_sql)
            .unwrap()
            .single_value()
            .unwrap()
            .as_double()
            .unwrap();

        // A live serving handle with a published model: shutdown must
        // persist its latest snapshot under the registered name.
        let handle = ModelHandle::new(ServingTask::Logistic, 3);
        handle.publish(&expected_weights).unwrap();
        session.register_model_handle("live", handle);
        // An unpublished handle has no model to persist and is skipped.
        session.register_model_handle("empty", ModelHandle::new(ServingTask::Svm, 2));

        let governor = Governor::new(4);
        let in_flight = governor.admit(QueryLimits::none()).unwrap();
        drop(in_flight); // finished statement frees its slot
        let report = session
            .shutdown(&governor, Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert!(report.drained, "nothing in flight: {report:?}");
        assert!(governor.is_shutting_down());
        assert!(matches!(
            governor.admit(QueryLimits::none()),
            Err(AdmissionError::ShuttingDown)
        ));
    }

    let mut session = SqlSession::open(&dir).unwrap();
    let report = session.recovery_report().unwrap().clone();
    // Clean recovery from the compacted snapshot: no WAL replay, no torn
    // bytes.
    assert_eq!(report.records_replayed, 0, "{report}");
    assert_eq!(report.bytes_truncated, 0, "{report}");

    // Identical predictions from the persisted trained model...
    let after = session
        .execute(prediction_sql)
        .unwrap()
        .single_value()
        .unwrap()
        .as_double()
        .unwrap();
    assert_eq!(before, after);

    // ...and the serving handle's last-published weights are in the catalog.
    let weights: Vec<f64> = session
        .execute("SELECT weight FROM live ORDER BY idx")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_double().unwrap())
        .collect();
    assert_eq!(weights, expected_weights);
    assert!(!session.database().contains("empty"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_cancels_outstanding_guards_and_reports_undrained_work() {
    let governor = Governor::new(4);
    let stuck = governor.admit(QueryLimits::none()).unwrap();
    // A statement that never finishes: its guard stays alive across the
    // shutdown deadline.
    let report = governor.shutdown(Instant::now() + Duration::from_millis(20));
    assert!(!report.drained);
    assert_eq!(report.in_flight, 1);
    assert!(
        stuck.is_cancelled(),
        "shutdown must cancel outstanding guards so their loops exit"
    );
    // The cancelled statement observes the cancellation as a typed error at
    // its next check point.
    assert_eq!(
        SqlError::from(stuck.check().unwrap_err()),
        SqlError::Cancelled
    );
}

// ---------------------------------------------------------------------------
// Shutdown under the byte-granular crash matrix: a crash at any fault point
// inside `SqlSession::shutdown`'s persist + compact sequence must leave a
// catalog that recovers to a consistent state — either the pre-shutdown
// catalog or one that additionally contains the persisted serving model.
// ---------------------------------------------------------------------------

mod shutdown_crash_matrix {
    use super::*;
    use bismarck_storage::durable::fault::{self, Mode};
    use bismarck_storage::Database;

    fn fingerprint(db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
        let mut names = db.table_names();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let rows = db
                    .table(&name)
                    .unwrap()
                    .scan()
                    .map(|tuple| tuple.values().to_vec())
                    .collect();
                (name, rows)
            })
            .collect()
    }

    /// Build a durable session with a trained model and a published serving
    /// handle, ready for shutdown. Returns the session and its governor.
    fn build(dir: &std::path::Path) -> (SqlSession, Governor) {
        let mut session = SqlSession::open(dir).unwrap();
        session.register_table(data(60)).unwrap();
        session
            .execute("SELECT SVMTrain('m', 'gov', 'vec', 'label', 0.1, 2)")
            .unwrap();
        let handle = ModelHandle::new(ServingTask::Logistic, 2);
        handle.publish(&[1.0, -2.0]).unwrap();
        session.register_model_handle("live", handle);
        (session, Governor::new(2))
    }

    /// A write that fails while shutdown persists a serving model is the
    /// storage error, as it is when `…Train` persists one.
    #[test]
    fn a_write_fault_while_persisting_a_serving_model_is_a_storage_error() {
        let dir = temp_dir("shutdown-persist-fault");
        let (mut session, governor) = build(&dir);
        let (outcome, run) = fault::armed(Mode::FailOnce, 0, || {
            session.shutdown(&governor, Instant::now() + Duration::from_secs(5))
        });
        assert!(run.fired);
        assert!(
            matches!(outcome, Err(SqlError::Storage(StorageError::Io(_)))),
            "{outcome:?}"
        );
        drop(session);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_crash_point_during_shutdown_recovers_consistently() {
        // Shutdown's fault points, pinned: one more write or fsync on its
        // persist + compact path fails here on any machine.
        let total = 4_532;
        let count_dir = temp_dir("shutdown-matrix-count");
        let (mut session, governor) = build(&count_dir);
        let pre_state = fingerprint(session.database());
        let (outcome, run) = fault::armed(Mode::Crash, u64::MAX, || {
            session.shutdown(&governor, Instant::now() + Duration::from_secs(5))
        });
        outcome.unwrap();
        assert_eq!((run.consumed, run.fired), (total, false), "fault points");
        drop(session);
        // The fault-free shutdown persisted the serving model.
        let (db, _) = Database::open(&count_dir).unwrap();
        let post_state = fingerprint(&db);
        assert_ne!(post_state, pre_state, "'live' was persisted");
        drop(db);
        std::fs::remove_dir_all(&count_dir).ok();

        for point in 0..total {
            let dir = temp_dir(&format!("shutdown-matrix-k{point}"));
            let (mut session, governor) = build(&dir);
            // Failures are expected: the crash mode stops the world.
            let (_, run) = fault::armed(Mode::Crash, point, || {
                session.shutdown(&governor, Instant::now() + Duration::from_secs(5))
            });
            assert!(run.fired, "crash point {point} of {total} never fired");
            drop(session);

            let (recovered, _report) = Database::open(&dir)
                .unwrap_or_else(|e| panic!("crash point {point} of {total}: recovery failed: {e}"));
            let state = fingerprint(&recovered);
            assert!(
                state == pre_state || state == post_state,
                "crash point {point} of {total} recovered a torn state: {state:?}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
