//! Durability and crash-recovery tests for the storage WAL + snapshot
//! subsystem and its wiring up through the SQL session.
//!
//! Three layers of coverage:
//!
//! * WAL replay edge cases (torn tails, duplicate create/drop sequences,
//!   missing logs, checksum-corrupt middle records) driven by corrupting
//!   real on-disk files — these run in every test pass;
//! * the paper's user experience surviving a restart: train via
//!   `SELECT SVMTrain(...)`, drop the session, reopen the directory, and
//!   `SVMPredict(...)` must return identical predictions;
//! * a byte-granular crash-point matrix: every byte written and every
//!   metadata syscall is a crash point, and recovery after a crash at
//!   *any* of them must restore a state some prefix of the acknowledged
//!   operations explains — never anything torn.

use std::path::PathBuf;

use bismarck_storage::{
    Column, ColumnarTable, DataType, Database, Schema, StorageError, StoredTable, TupleScan, Value,
    SNAPSHOT_FILE, WAL_FILE,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bismarck-durability-crash-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn schema() -> Schema {
    Schema::new(vec![Column::new("id", DataType::Int)]).unwrap()
}

fn row(i: i64) -> Vec<Value> {
    vec![Value::Int(i)]
}

/// Every row of a stored table, in scan order.
fn rows_of(table: &StoredTable) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    table.scan_tuples(&mut |tuple| rows.push(tuple.values().to_vec()));
    rows
}

/// The widest vector of each of the first `arity` columns as `table` keeps
/// it: metadata, no row read.
fn kept_widths<S: TupleScan + ?Sized>(table: &S, arity: usize) -> Vec<usize> {
    (0..arity).map(|col| table.vector_width(col)).collect()
}

/// The same widths, recomputed from every row.
fn walked_widths<S: TupleScan + ?Sized>(table: &S, arity: usize) -> Vec<usize> {
    let mut widths = vec![0; arity];
    table.scan_tuples(&mut |tuple| {
        for (col, width) in widths.iter_mut().enumerate() {
            *width = (*width).max(tuple.feature_view(col).map_or(0, |x| x.dimension()));
        }
    });
    widths
}

/// A comparable description of the full catalog contents: sorted table
/// names, each with its layout (chunk capacity of a columnar table), the
/// widths it keeps, and every row in scan order.
type Fingerprint = Vec<(String, Option<usize>, Vec<usize>, Vec<Vec<Value>>)>;

fn fingerprint(db: &Database) -> Fingerprint {
    db.tables()
        .map(|table| {
            let chunk_capacity = table.as_columnar().map(ColumnarTable::chunk_capacity);
            let widths = kept_widths(table, table.schema().arity());
            (
                table.name().to_string(),
                chunk_capacity,
                widths,
                rows_of(table),
            )
        })
        .collect()
}

#[test]
fn fresh_directory_recovers_empty() {
    let dir = temp_dir("fresh");
    {
        let (db, report) = Database::open(&dir).unwrap();
        assert!(db.is_empty());
        assert_eq!(report.tables_restored, 0);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.bytes_truncated, 0);
        assert!(!report.snapshot_loaded);
    }
    // Reopening an empty-but-initialised directory is also clean.
    let (db, report) = Database::open(&dir).unwrap();
    assert!(db.is_empty());
    assert_eq!(report.records_replayed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_byte_wal_file_recovers_empty() {
    let dir = temp_dir("zero-byte");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(WAL_FILE), b"").unwrap();
    let (mut db, report) = Database::open(&dir).unwrap();
    assert!(db.is_empty());
    assert_eq!(report.bytes_truncated, 0);
    // The recreated log is writable.
    db.create_table("t", schema()).unwrap();
    drop(db);
    let (db, _) = Database::open(&dir).unwrap();
    assert!(db.contains("t"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_record_at_end_is_truncated_and_reported() {
    let dir = temp_dir("torn-tail");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(1), row(2)]).unwrap();
    }
    // Cut into the last record, as a crash mid-append would.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

    let (db, report) = Database::open(&dir).unwrap();
    assert!(report.bytes_truncated > 0);
    assert_eq!(report.records_replayed, 1);
    // The torn insert is gone; the create survived.
    assert!(db.contains("t"));
    assert!(db.table("t").unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trailing_garbage_is_truncated_and_earlier_records_survive() {
    let dir = temp_dir("garbage-tail");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(7)]).unwrap();
    }
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 5]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let (db, report) = Database::open(&dir).unwrap();
    assert_eq!(report.bytes_truncated, 5);
    assert_eq!(db.table("t").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_create_drop_sequences_replay_cleanly() {
    let dir = temp_dir("create-drop");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.drop_table("t").unwrap();
        db.create_table("t", schema()).unwrap();
        db.drop_table("t").unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(5)]).unwrap();
    }
    let (db, report) = Database::open(&dir).unwrap();
    assert_eq!(report.records_replayed, 6);
    assert_eq!(report.tables_restored, 1);
    assert_eq!(db.table("t").unwrap().get(0).unwrap().get_int(0), Some(5));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_present_but_log_missing_restores_from_snapshot() {
    let dir = temp_dir("snap-no-log");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.set_compact_threshold(1); // snapshot after every operation
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(1), row(2), row(3)]).unwrap();
    }
    std::fs::remove_file(dir.join(WAL_FILE)).unwrap();

    let (mut db, report) = Database::open(&dir).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(db.table("t").unwrap().len(), 3);
    // The recreated log continues from the snapshot's LSN: new operations
    // must survive another reopen rather than being skipped as stale.
    db.insert_rows("t", vec![row(4)]).unwrap();
    drop(db);
    let (db, _) = Database::open(&dir).unwrap();
    assert_eq!(db.table("t").unwrap().len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checksum_corrupt_middle_record_is_a_hard_error() {
    let dir = temp_dir("corrupt-middle");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(1)]).unwrap();
    }
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Header is 8 bytes; the first record is [u32 len][payload][u64 fnv].
    // Flip a payload byte of record one — record two still follows, so this
    // is damage no crash can explain and must NOT be silently truncated.
    let flip_at = 8 + 4 + 9;
    assert!(flip_at < bytes.len());
    bytes[flip_at] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    match Database::open(&dir) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected hard corruption error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_is_a_hard_error() {
    let dir = temp_dir("corrupt-snap");
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(1)]).unwrap();
        db.compact().unwrap();
    }
    let snap_path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap_path, &bytes).unwrap();

    match Database::open(&dir) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected hard corruption error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's Section 2.1 experience across a process restart: train and
/// persist a model, "exit" (drop the session), reopen the same directory,
/// and predict — the model and training table both come back from disk.
#[test]
fn train_restart_predict_roundtrip() {
    use bismarck_core::{StepSizeSchedule, TrainerConfig};
    use bismarck_datagen::{dense_classification, DenseClassificationConfig};
    use bismarck_sql::SqlSession;
    use bismarck_uda::ConvergenceTest;

    let fast = TrainerConfig::default()
        .with_step_size(StepSizeSchedule::Constant(0.2))
        .with_convergence(ConvergenceTest::FixedEpochs(8));

    let dir = temp_dir("roundtrip");
    let before = {
        let mut session = SqlSession::open(&dir).unwrap().with_trainer_config(fast);
        session
            .register_table(dense_classification(
                "forest",
                DenseClassificationConfig {
                    examples: 400,
                    dimension: 8,
                    ..Default::default()
                },
            ))
            .unwrap();
        session
            .execute("SELECT SVMTrain('svm_model', 'forest', 'vec', 'label')")
            .expect("training");
        session
            .execute("SELECT SVMPredict('svm_model', 'forest', 'vec')")
            .expect("prediction before restart")
    };

    // A new session over the same directory recovers the catalog from disk.
    let mut session = SqlSession::open(&dir).unwrap();
    let report = session.recovery_report().expect("opened durably").clone();
    assert_eq!(report.tables_restored, 2, "training table + model table");

    let after = session
        .execute("SELECT SVMPredict('svm_model', 'forest', 'vec')")
        .expect("prediction after restart");
    assert_eq!(before.columns, after.columns);
    assert_eq!(
        before.rows, after.rows,
        "recovered model must predict identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The unified catalog through the SQL surface: a `STORAGE = COLUMNAR` table
/// created, filled, copied and shuffled by SQL text — and one built in Rust
/// and registered — survives `SqlSession::open` — and a forced `compact()` —
/// with its layout, chunk capacity, the vector widths it keeps (those of its
/// rows), its rows tuple-for-tuple, and bit-identical retrained weights.
#[test]
fn sql_created_columnar_tables_survive_reopen_and_compaction() {
    use bismarck_sql::SqlSession;

    let dir = temp_dir("sql-columnar");
    let train = "SELECT LRTrain('m', 'dcopy', 'vec', 'label', 0.2, 4)";
    let weights = |session: &mut SqlSession| {
        session.execute(train).expect("training");
        session
            .execute("SELECT weight FROM m ORDER BY idx")
            .expect("weights")
            .rows
    };

    let (catalog_before, weights_before) = {
        let mut session = SqlSession::open(&dir).unwrap();
        session
            .execute("CREATE TABLE d (id INT, vec DENSE_VEC, label DOUBLE) STORAGE = COLUMNAR")
            .unwrap();
        let values: Vec<String> = (0..40)
            .map(|i| {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                format!("({i}, ARRAY[{}, {}], {y})", y * 2.0 + i as f64 * 0.01, -y)
            })
            .collect();
        session
            .execute(&format!("INSERT INTO d VALUES {}", values.join(", ")))
            .unwrap();
        session
            .execute("CREATE TABLE dcopy STORAGE = COLUMNAR AS SELECT * FROM d WHERE id < 30")
            .unwrap();
        session.execute("SHUFFLE TABLE dcopy SEED 9").unwrap();
        let mut registered = ColumnarTable::with_chunk_capacity("reg", schema(), 4);
        registered.insert_all((0..10).map(row)).unwrap();
        session.register_columnar_table(registered).unwrap();
        let weights = weights(&mut session);
        (fingerprint(session.database()), weights)
    };
    assert_eq!(catalog_before.len(), 4, "d, dcopy, reg and the model m");
    // INSERT filled `d`, CTAS copied it, SHUFFLE rewrote the copy: each
    // keeps `vec` 2 wide.
    let widths: Vec<_> = catalog_before
        .iter()
        .map(|t| (&t.0[..], &t.2[..]))
        .collect();
    assert_eq!(
        widths,
        [
            ("d", &[0, 2, 0][..]),
            ("dcopy", &[0, 2, 0]),
            ("m", &[0, 0]),
            ("reg", &[0])
        ]
    );

    for compact_first in [false, true] {
        let mut session = SqlSession::open(&dir).unwrap();
        assert_eq!(
            session.recovery_report().unwrap().snapshot_loaded,
            compact_first
        );
        for name in ["d", "dcopy", "reg"] {
            assert!(
                session.columnar_table(name).is_some(),
                "'{name}' must still be columnar after reopen"
            );
        }
        let reg = session.columnar_table("reg").unwrap();
        assert_eq!((reg.chunk_capacity(), reg.segment_count()), (4, 3));
        assert_eq!(fingerprint(session.database()), catalog_before);
        for table in session.database().tables() {
            let arity = table.schema().arity();
            assert_eq!(kept_widths(table, arity), walked_widths(table, arity));
        }
        assert_eq!(weights(&mut session), weights_before, "retrained weights");
        session.database_mut().compact().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged columnar table is attached to a durable catalog *by reference*:
/// the log holds its name, directory and cache size, its rows stay in its own
/// segment files, and `DROP` detaches it without touching them.
#[test]
fn paged_tables_attach_by_reference_and_drop_detaches() {
    let dir = temp_dir("paged-catalog");
    let seg_dir = temp_dir("paged-segments");
    let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        let mut paged = ColumnarTable::create_paged("p", schema(), &seg_dir, 4, 2).unwrap();
        paged.insert_all((0..6).map(row)).unwrap();
        // Registration flushes the partial tail, so the reference is whole.
        db.register_table(paged).unwrap();
        assert!(wal_len() < 200, "a reference, not the rows");
        // Inserts go to the table's own files, not the log.
        let before = wal_len();
        db.insert_rows("p", vec![row(6)]).unwrap();
        assert_eq!(wal_len(), before);
        // Its segments are immutable on disk: no physical rewrite.
        assert!(matches!(
            db.stored("p").unwrap().empty_like(),
            Err(StorageError::Unsupported(_))
        ));
    }
    // First from the log, then — after compacting — from the snapshot.
    for from_snapshot in [false, true] {
        let (mut db, report) = Database::open(&dir).unwrap();
        assert_eq!(report.snapshot_loaded, from_snapshot);
        let p = db.stored("p").unwrap();
        assert_eq!(
            p.as_columnar().and_then(ColumnarTable::paged_location),
            Some((seg_dir.as_path(), 2))
        );
        assert_eq!(rows_of(p), (0..7).map(row).collect::<Vec<_>>());
        db.compact().unwrap();
    }
    // DROP detaches: the files stay, and a log that still mentions the
    // table replays even after they are gone.
    {
        let (mut db, _) = Database::open(&dir).unwrap();
        db.register_table(ColumnarTable::open_paged(&seg_dir, 2).unwrap())
            .unwrap();
        db.drop_table("p").unwrap();
        assert!(ColumnarTable::open_paged(&seg_dir, 2).is_ok());
    }
    std::fs::remove_dir_all(&seg_dir).unwrap();
    let (db, report) = Database::open(&dir).unwrap();
    assert!(report.records_replayed >= 2);
    assert!(db.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// The training table behind the `CKPT_V1` fixture below: nothing random and
/// nothing but exact binary fractions, so every machine computes the same
/// model bits from it.
fn checkpoint_fixture_table() -> bismarck_storage::Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("vec", DataType::DenseVec),
        Column::new("label", DataType::Double),
    ])
    .unwrap();
    let mut table = bismarck_storage::Table::new("ckpt_data", schema);
    for i in 0..12i64 {
        let y = if (i * 3) % 7 < 3 { 1.0 } else { -1.0 };
        let x = vec![
            (i % 5) as f64 * 0.25 - 0.5,
            ((i * 7) % 4) as f64 * 0.5 - 0.75,
        ];
        table
            .insert(vec![Value::Int(i), Value::DenseVec(x), Value::Double(y)])
            .unwrap();
    }
    table
}

/// The run behind `CKPT_V1`, for `epochs` epochs: an SVM (features in column
/// 1, label in column 2) over [`checkpoint_fixture_table`] at a constant step
/// of 1/8 under `ShuffleOnce { seed: 5 }`.
fn checkpoint_fixture_config(epochs: usize) -> bismarck_core::TrainerConfig {
    bismarck_core::TrainerConfig::default()
        .with_step_size(bismarck_core::StepSizeSchedule::Constant(0.125))
        .with_convergence(bismarck_uda::ConvergenceTest::FixedEpochs(epochs))
        .with_scan_order(bismarck_storage::ScanOrder::ShuffleOnce { seed: 5 })
}

/// Files in every layout an earlier commit wrote — bytes embedded below —
/// must still open: a directory from *before* tables carried a layout
/// (snapshot version 1, WAL tags 1–4; every table a row table), a snapshot
/// version 2 and a checkpoint version 1 from the last commit before the
/// shared frame. The next fold rewrites a snapshot in the current version.
/// (The paged tables' version-1 files are in `tests/columnar_storage.rs`.)
#[test]
fn directory_written_before_layouts_still_opens() {
    // Written by: create `snapped`, insert 2 rows, compact; then (WAL only)
    // create `t`, insert 1 row, register `model` (1 row), create + drop `gone`.
    const SNAP_V1: &str = "42534e5001000000020000000000000001000000000000000700000000000000\
        736e6170706564020000000000000002000000000000006964000001000000000000007701010200\
        000000000000020000000000000001010000000000000002000000000000e03f0200000000000000\
        01020000000000000000d1f1a10e7b19d181";
    const WAL_TAGS_1_TO_4: &str = "4257414c0100000031000000030000000000000001010000000000\
        00007402000000000000000200000000000000696400000100000000000000770101eba54fc7f548\
        68f9340000000400000000000000030100000000000000740100000000000000020000000000000001\
        070000000000000002000000000000f4bfa5deaa1191fb3c795700000005000000000000000405000000\
        000000006d6f64656c02000000000000000200000000000000696400000100000000000000770101\
        01000000000000000200000000000000010000000000000000020000000000000840e16322cf640b\
        a308340000000600000000000000010400000000000000676f6e65020000000000000002000000000000\
        00696400000100000000000000770101f083f88c820242a415000000070000000000000002040000\
        0000000000676f6e651340a822f1f04de1";
    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    let dir = temp_dir("pre-layout");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(SNAPSHOT_FILE), unhex(SNAP_V1)).unwrap();
    std::fs::write(dir.join(WAL_FILE), unhex(WAL_TAGS_1_TO_4)).unwrap();

    let (mut db, report) = Database::open(&dir).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_replayed, 5);
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(db.table_names(), vec!["model", "snapped", "t"]);
    assert!(db.tables().all(|t| t.as_row().is_some()));
    assert_eq!(
        rows_of(db.stored("snapped").unwrap()),
        vec![
            vec![Value::Int(1), Value::Double(0.5)],
            vec![Value::Int(2), Value::Null],
        ]
    );
    assert_eq!(
        rows_of(db.stored("t").unwrap()),
        vec![vec![Value::Int(7), Value::Double(-1.25)]]
    );
    assert_eq!(
        rows_of(db.stored("model").unwrap()),
        vec![vec![Value::Int(0), Value::Double(3.0)]]
    );

    // The old log keeps accepting appends, and compaction rewrites the
    // snapshot in the current version without losing anything.
    db.insert_rows("t", vec![vec![Value::Int(8), Value::Null]])
        .unwrap();
    let before = fingerprint(&db);
    db.compact().unwrap();
    drop(db);
    assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap()[4], 3);
    assert_eq!(fingerprint(&Database::open(&dir).unwrap().0), before);
    std::fs::remove_dir_all(&dir).ok();

    // Written by the parent of the shared frame: create row table `r`,
    // insert 2 rows, create columnar `c` (chunk capacity 2), insert 3 rows
    // (the last an INT in the DOUBLE column), compact.
    const SNAP_V2: &str = "42534e500200000004000000000000000200000000000000010200000000\
        00000001000000000000006302000000000000000200000000000000696400000100000000000000\
        7701010300000000000000020000000000000001030000000000000002000000000000f4bf020000\
        00000000000104000000000000000002000000000000000105000000000000000107000000000000\
        00000100000000000000720200000000000000020000000000000069640000010000000000000077\
        01010200000000000000020000000000000001010000000000000002000000000000e03f02000000\
        0000000001020000000000000000b4e86be50e469378";
    let dir = temp_dir("snapshot-v2");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(SNAPSHOT_FILE), unhex(SNAP_V2)).unwrap();
    let (mut db, report) = Database::open(&dir).unwrap();
    assert!(report.snapshot_loaded);
    let opened = fingerprint(&db);
    let int = Value::Int;
    assert_eq!(
        opened,
        vec![
            (
                "c".to_string(),
                Some(2),
                vec![0, 0],
                vec![
                    vec![int(3), Value::Double(-1.25)],
                    vec![int(4), Value::Null],
                    vec![int(5), int(7)],
                ]
            ),
            (
                "r".to_string(),
                None,
                vec![0, 0],
                vec![vec![int(1), Value::Double(0.5)], vec![int(2), Value::Null]]
            ),
        ]
    );
    db.compact().unwrap();
    drop(db);
    assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap()[4], 3);
    let (db, report) = Database::open(&dir).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(fingerprint(&db), opened);
    std::fs::remove_dir_all(&dir).ok();

    // Written by the same commit: `checkpoint_fixture_config(2)`,
    // checkpointed after the second epoch. Resuming it to five must land on
    // the bits of five uninterrupted epochs, and the run's own checkpoints
    // (version 2) sit beside the old file.
    const CKPT_V1: &str = "424d434b0100000065000000000000000300000053564d02000000000000\
        00000000000000f03f0000000001050000000000000000000000000000c03f000000000000000002\
        00000000000000000000000000dcbf000000000000c0bf020000000000000000000000002c274000\
        000000005826406b2bb807a17beee8";
    use bismarck_core::tasks::SvmTask;
    use bismarck_core::{Trainer, TrainingCheckpoint};
    let dir = temp_dir("checkpoint-v1");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.ckpt");
    std::fs::write(&old, unhex(CKPT_V1)).unwrap();
    assert_eq!(TrainingCheckpoint::read(&old).unwrap().next_epoch, 2);
    let config = checkpoint_fixture_config(5);
    let task = SvmTask::new(1, 2, 2);
    let data = checkpoint_fixture_table();
    let uninterrupted = Trainer::new(&task, config.clone()).train(&data);
    assert_eq!(uninterrupted.model, vec![-1.09375, -0.3125]);
    let new = dir.join("new.ckpt");
    let resumed = Trainer::new(&task, config.with_checkpoints(&new, 1))
        .resume_from(&data, &old)
        .unwrap();
    assert_eq!(resumed.epochs(), 5);
    assert_eq!(resumed.model, uninterrupted.model);
    assert_eq!(resumed.history.losses(), uninterrupted.history.losses());
    assert_eq!(std::fs::read(&new).unwrap()[4], 2);
    assert_eq!(
        std::fs::read(&old).unwrap(),
        unhex(CKPT_V1),
        "never rewritten"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-granular crash injection through `durable::fault`.
mod crash_matrix {
    use super::*;
    use bismarck_storage::durable::fault::{self, Mode};
    use bismarck_storage::Table;

    type Op = fn(&mut Database) -> Result<(), StorageError>;

    /// A scenario mixing every logged operation kind. Each step tolerates
    /// earlier steps having failed (crash mode stops the world mid-run).
    fn ops() -> Vec<Op> {
        vec![
            |db| db.create_table("t", schema()).map(|_| ()),
            |db| db.insert_rows("t", vec![row(1), row(2)]).map(|_| ()),
            |db| {
                let mut model = Table::new("model", schema());
                model.insert(row(10)).unwrap();
                db.register_table(model)
            },
            |db| db.insert_rows("t", vec![row(3)]).map(|_| ()),
            |db| db.drop_table("model").map(|_| ()),
            |db| db.create_table("u", schema()).map(|_| ()),
            // The same three logged operations over the columnar layout.
            |db| db.create_stored(ColumnarTable::with_chunk_capacity("c", schema(), 2)),
            |db| {
                db.insert_rows("c", vec![row(4), row(5), row(6)])
                    .map(|_| ())
            },
            |db| {
                let mut registered = ColumnarTable::new("cr", schema());
                registered.insert(row(11)).unwrap();
                db.register_table(registered)
            },
        ]
    }

    /// Every catalog state some prefix of the scenario's operations
    /// explains, computed against a plain in-memory database.
    fn prefix_states() -> Vec<Fingerprint> {
        let mut db = Database::new();
        let mut states = vec![fingerprint(&db)];
        for op in ops() {
            op(&mut db).unwrap();
            states.push(fingerprint(&db));
        }
        states
    }

    /// Run `scenario` armed at a point it never reaches and return how many
    /// fault points it consumed.
    fn count_points<R>(scenario: impl FnOnce() -> R) -> (R, u64) {
        let (result, run) = fault::armed(Mode::Crash, u64::MAX, scenario);
        assert!(!run.fired);
        (result, run.consumed)
    }

    /// Run the scenario with a crash injected at every fault point in turn.
    /// After each crash, reopening the directory must recover one of the
    /// valid prefix states — the operation in flight either happened
    /// entirely or not at all, and nothing earlier is ever lost.
    ///
    /// `total` is the scenario's fault-point count, pinned: one more write
    /// or fsync on the catalog's durable path fails here on any machine.
    fn run_matrix(name: &str, compact_threshold: Option<u64>, total: u64) {
        let states = prefix_states();

        let count_dir = temp_dir(&format!("{name}-count"));
        let (mut db, _) = Database::open(&count_dir).unwrap();
        if let Some(threshold) = compact_threshold {
            db.set_compact_threshold(threshold);
        }
        let ((), points) = count_points(|| {
            for op in ops() {
                op(&mut db).expect("counting run must not fail");
            }
        });
        assert_eq!(points, total, "fault points of the catalog scenario");
        drop(db);
        assert_eq!(
            fingerprint(&Database::open(&count_dir).unwrap().0),
            *states.last().unwrap(),
            "fault-free run must recover the final state"
        );
        std::fs::remove_dir_all(&count_dir).ok();

        for point in 0..total {
            let dir = temp_dir(&format!("{name}-k{point}"));
            let (mut db, _) = Database::open(&dir).unwrap();
            if let Some(threshold) = compact_threshold {
                db.set_compact_threshold(threshold);
            }
            let ((), run) = fault::armed(Mode::Crash, point, || {
                for op in ops() {
                    let _ = op(&mut db); // failures expected at and after the crash
                }
            });
            assert!(run.fired, "crash point {point} of {total} never fired");
            drop(db);

            let (recovered, _report) = Database::open(&dir)
                .unwrap_or_else(|e| panic!("crash point {point} of {total}: recovery failed: {e}"));
            let state = fingerprint(&recovered);
            assert!(
                states.contains(&state),
                "crash point {point} of {total} recovered a non-prefix state: {state:?}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_crash_point_recovers_a_prefix_state() {
        run_matrix("matrix", None, 609);
    }

    #[test]
    fn every_crash_point_recovers_a_prefix_state_under_constant_compaction() {
        // Threshold 1 makes every operation trigger a compaction, so the
        // matrix also crashes inside snapshot writes and WAL truncation.
        run_matrix("matrix-compact", Some(1), 2_286);
    }

    /// Row counts a paged table is durable at in [`paged_scenario`]: the
    /// create, each seal (every 4th row) and each flush (at 10 and 13 rows).
    const PAGED_BOUNDARIES: [usize; 6] = [0, 4, 8, 10, 12, 13];

    /// `(id, vec)`, where row `i`'s sparse vector reaches index `i`: the
    /// `vec` width of a table of `n` such rows is `n`, so a manifest whose
    /// widths were a seal or flush ahead of (or behind) its rows shows.
    fn paged_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::SparseVec),
        ])
        .unwrap()
    }

    fn paged_row(i: i64) -> Vec<Value> {
        let vec = bismarck_linalg::SparseVector::from_pairs(vec![(i.max(0) as usize, 1.0)]);
        vec![Value::Int(i), Value::SparseVec(vec)]
    }

    /// Create a paged table, insert across two seals, flush, insert across
    /// a third, flush. Returns the last boundary acknowledged with `Ok`
    /// (`None`: not even the create was), stopping at the first failure as
    /// a crashed process would.
    fn paged_scenario(dir: &std::path::Path) -> Option<usize> {
        let mut paged = ColumnarTable::create_paged("p", paged_schema(), dir, 4, 1).ok()?;
        let mut acked = 0;
        for i in 0..13 {
            if i == 10 {
                if paged.flush().is_err() {
                    return Some(acked);
                }
                acked = 10;
            }
            if paged.insert(paged_row(i as i64)).is_err() {
                return Some(acked);
            }
            if (i + 1) % 4 == 0 {
                acked = i + 1; // the insert sealed a segment
            }
        }
        Some(if paged.flush().is_ok() { 13 } else { acked })
    }

    /// The pager's multi-file writes — every seal and flush is a segment
    /// file, then the manifest — crashed at every fault point in turn.
    /// `open_paged` must succeed on whatever is left, hold exactly the rows
    /// of a seal/flush boundary no older than the last acknowledged one
    /// (every segment re-read from disk and verified by the scan) with the
    /// widths of exactly those rows, and keep accepting writes.
    #[test]
    fn every_pager_crash_point_recovers_a_seal_or_flush_boundary() {
        // The directory's create and its parent's fsync, then the files.
        let total = 2 + 1_509;
        let count_dir = temp_dir("pager-count");
        let (acked, points) = count_points(|| paged_scenario(&count_dir));
        assert_eq!((acked, points), (Some(13), total), "fault points");
        std::fs::remove_dir_all(&count_dir).ok();

        for point in 0..total {
            let dir = temp_dir(&format!("pager-k{point}"));
            let (acked, run) = fault::armed(Mode::Crash, point, || paged_scenario(&dir));
            assert!(run.fired, "crash point {point} of {total} never fired");

            let Some(acked) = acked else {
                // Crashed inside `create_paged`: there may be no table yet,
                // but if one opens it is the empty one.
                if let Ok(table) = ColumnarTable::open_paged(&dir, 1) {
                    assert!(table.is_empty(), "crash point {point}");
                }
                std::fs::remove_dir_all(&dir).ok();
                continue;
            };
            let mut recovered = ColumnarTable::open_paged(&dir, 1)
                .unwrap_or_else(|e| panic!("crash point {point} of {total}: open failed: {e}"));
            let n = recovered.len();
            assert!(
                PAGED_BOUNDARIES.contains(&n) && n >= acked,
                "crash point {point} of {total}: {n} rows recovered, {acked} acknowledged"
            );
            assert_eq!(
                kept_widths(&recovered, 2),
                walked_widths(&recovered, 2),
                "crash point {point} of {total}"
            );
            recovered.insert(paged_row(-1)).unwrap();
            recovered.flush().unwrap();
            let reopened = ColumnarTable::open_paged(&dir, 1).unwrap();
            let fingerprint = (kept_widths(&reopened, 2), rows_of(&reopened.into()));
            assert_eq!(
                fingerprint,
                (
                    vec![0, n.max(1)],
                    (0..n as i64).chain([-1]).map(paged_row).collect::<Vec<_>>()
                ),
                "crash point {point} of {total}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Training checkpoints under retention are a two-file sequence per
    /// epoch (`path`, then its `.eN` sibling, then pruning), crashed here at
    /// every fault point of a four-epoch run. Whatever is left under a final
    /// name loads; once `n` epochs' writes were acknowledged, `path` holds
    /// epoch `n` or later and at least `min(n, keep)` generations survive;
    /// and resuming from `path` reaches the uninterrupted run's bits.
    #[test]
    fn every_checkpoint_crash_point_leaves_keep_loadable_generations() {
        use bismarck_core::tasks::SvmTask;
        use bismarck_core::{TrainError, Trainer, TrainingCheckpoint};

        const EPOCHS: usize = 4;
        const KEEP: usize = 2;
        let data = checkpoint_fixture_table();
        let task = SvmTask::new(1, 2, 2);
        let checkpointed = |dir: &std::path::Path, epochs| {
            std::fs::create_dir_all(dir).unwrap();
            Trainer::new(
                &task,
                checkpoint_fixture_config(epochs).with_checkpoint_retention(
                    dir.join("model.ckpt"),
                    1,
                    KEEP,
                ),
            )
            .try_train(&data)
        };
        let uninterrupted = Trainer::new(&task, checkpoint_fixture_config(EPOCHS)).train(&data);

        // Fault points consumed once `n` epochs' checkpoints are written (a
        // run of `n` epochs is a prefix of a longer one), pinned.
        let acknowledged_at = [0, 236, 488, 756, 1_040];
        for (epochs, at) in acknowledged_at.into_iter().enumerate() {
            let dir = temp_dir("ckpt-count");
            let (outcome, points) = count_points(|| checkpointed(&dir, epochs));
            outcome.expect("counting run must not fail");
            assert_eq!(points, at, "fault points of {epochs} checkpointed epochs");
            std::fs::remove_dir_all(&dir).ok();
        }
        let total = acknowledged_at[EPOCHS];

        for point in 0..total {
            let dir = temp_dir(&format!("ckpt-k{point}"));
            let (outcome, run) = fault::armed(Mode::Crash, point, || checkpointed(&dir, EPOCHS));
            assert!(run.fired, "crash point {point} of {total} never fired");
            assert!(
                matches!(outcome, Err(TrainError::Checkpoint(_))),
                "crash point {point} of {total}: {outcome:?}"
            );
            let acknowledged = acknowledged_at.iter().rposition(|&at| at <= point).unwrap();

            // Every file under a final name is whole, `.eN` holds epoch N.
            let path = dir.join("model.ckpt");
            let mut generations = Vec::new();
            for entry in std::fs::read_dir(&dir).unwrap() {
                let file = entry.unwrap().path();
                let name = file.file_name().unwrap().to_str().unwrap().to_string();
                if let Some(stamp) = name.strip_prefix("model.ckpt.e") {
                    let loaded = TrainingCheckpoint::read(&file).unwrap_or_else(|e| {
                        panic!("crash point {point} of {total}: {name} does not load: {e}")
                    });
                    assert_eq!(loaded.next_epoch, stamp.parse::<usize>().unwrap());
                    generations.push(loaded.next_epoch);
                }
            }
            generations.sort_unstable();
            assert!(
                generations.len() >= acknowledged.min(KEEP)
                    && generations
                        .iter()
                        .rev()
                        .take(KEEP)
                        .all(|&g| g + KEEP > acknowledged),
                "crash point {point} of {total}: {acknowledged} epochs acknowledged, \
                 generations {generations:?} left"
            );
            if !path.exists() {
                assert_eq!(acknowledged, 0, "crash point {point} of {total}");
                assert!(generations.is_empty(), "crash point {point} of {total}");
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let newest = TrainingCheckpoint::read(&path)
                .unwrap_or_else(|e| panic!("crash point {point} of {total}: {e}"));
            assert!(
                (acknowledged..=acknowledged + 1).contains(&newest.next_epoch),
                "crash point {point} of {total}: {acknowledged} epochs acknowledged, \
                 model.ckpt holds epoch {}",
                newest.next_epoch
            );
            let resumed = Trainer::new(&task, checkpoint_fixture_config(EPOCHS))
                .resume_from(&data, &path)
                .unwrap();
            assert_eq!(resumed.epochs(), EPOCHS);
            assert_eq!(resumed.model, uninterrupted.model, "crash point {point}");
            assert_eq!(resumed.history.losses(), uninterrupted.history.losses());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn transient_fault_surfaces_error_and_catalog_stays_consistent() {
        let dir = temp_dir("fail-once");
        let (mut db, _) = Database::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![row(1)]).unwrap();

        let ((), run) = fault::armed(Mode::FailOnce, 3, || {
            let err = db.insert_rows("t", vec![row(2)]);
            assert!(err.is_err(), "injected fault must surface as an error");
            // Still armed, but FailOnce heals after firing: the same session
            // keeps working and the failed batch left nothing behind.
            db.insert_rows("t", vec![row(3)]).unwrap();
        });
        assert!(run.fired);
        assert_eq!(db.table("t").unwrap().len(), 2);
        drop(db);

        let (db, report) = Database::open(&dir).unwrap();
        assert_eq!(report.bytes_truncated, 0, "failed append was rolled back");
        let rows: Vec<_> = db
            .table("t")
            .unwrap()
            .scan()
            .map(|tuple| tuple.get_int(0).unwrap())
            .collect();
        assert_eq!(rows, vec![1, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
