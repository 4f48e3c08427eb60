//! The database catalog: a named collection of tables, optionally durable.
//!
//! A catalog created with [`Database::new`] is purely in-memory, exactly as
//! before. A catalog created with [`Database::open`] is bound to a directory
//! and **write-ahead logged**: every `CREATE TABLE`, `DROP TABLE`, row batch
//! insert and table registration is appended (and fsynced) to
//! `catalog.wal` *before* it is applied in memory, and a size-triggered
//! compaction periodically folds the log into an atomically-written
//! `catalog.snap` snapshot. Reopening the directory replays snapshot + log
//! and reconstructs the exact catalog the last successful operation left —
//! including persisted model tables, which is what lets a training session
//! survive a process restart.
//!
//! ## When the log is folded
//!
//! A fold rewrites the *whole* catalog, so how often it runs decides what a
//! small durable write costs. The log is folded when it has **outgrown what
//! it sits on**: after an operation, if
//! `catalog.wal ≥ max(DEFAULT_COMPACT_THRESHOLD, catalog.snap)` in bytes
//! (the snapshot's length is remembered from [`Database::open`] and from the
//! last fold; no snapshot counts as 0). Three bounds follow:
//!
//! - **log size** — the log never exceeds the larger of 1 MiB and its
//!   snapshot by more than one record;
//! - **recovery work** — reopening reads the snapshot plus a log no larger
//!   than it (or than 1 MiB): at most ≈ 2× the live data;
//! - **write amplification** — a fold writes about the old snapshot plus the
//!   log it retires, and that log is at least as large as the old snapshot,
//!   so a fold writes at most ≈ 2 bytes per log byte it retires, whatever the
//!   size of the catalog. For a catalog that only grows, each fold at least
//!   doubles the snapshot and the snapshot bytes ever written form a
//!   geometric series: ≤ ≈ 2× the final catalog. A fixed byte threshold
//!   instead rewrites a growing table every fixed number of bytes, so total
//!   snapshot bytes grow with the *square* of the table (12 folds and 93 MB
//!   of snapshot writes to ingest 15 MB in 64 statements, against 4 folds
//!   and 18 MB under this rule).
//!
//! This is the stratified merge of Vertica's Tuple Mover and the
//! append-only tail of L-Store reduced to one level: a tuple is rewritten a
//! bounded number of times. [`Database::set_compact_threshold`] overrides
//! the rule with an exact byte count (tests use `1`: fold after every
//! operation); [`Database::compact`] folds on demand.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::codec::{push_row, push_string, read_row, read_schema, Reader};
use crate::durable;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::snapshot;
use crate::stored::{Decoded, StoredTable, KIND_ROW};
use crate::table::Table;
use crate::value::Value;
use crate::wal::{self, WalWriter};

/// File name of the write-ahead log inside a durable catalog directory.
pub const WAL_FILE: &str = "catalog.wal";

/// File name of the catalog snapshot inside a durable catalog directory.
pub const SNAPSHOT_FILE: &str = "catalog.snap";

/// Smallest WAL size (bytes) at which the default rule folds the log into a
/// snapshot; above it the threshold is the snapshot's own size (module docs).
pub(crate) const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// `CREATE` of an empty row table, as written before tables carried a layout
/// (replayed, never written).
const OP_CREATE_ROW: u8 = 1;
const OP_DROP: u8 = 2;
const OP_INSERT: u8 = 3;
/// `REGISTER` of a row table, as written before tables carried a layout
/// (replayed, never written).
const OP_REGISTER_ROW: u8 = 4;
/// Add a table (layout byte + encoding); the name must be free.
const OP_CREATE: u8 = 5;
/// Add or replace a table (layout byte + encoding).
const OP_REGISTER: u8 = 6;

/// What [`Database::open`] reconstructed from disk — surfaced up through
/// `SqlSession::open` so operators can see what a restart recovered.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Number of tables in the catalog after recovery.
    pub tables_restored: usize,
    /// WAL records applied on top of the snapshot (0 on a fresh directory
    /// or when the snapshot already covered the whole log).
    pub records_replayed: usize,
    /// Bytes dropped from the log's torn tail (non-zero only after a crash
    /// mid-append; the interrupted operation was never acknowledged).
    pub bytes_truncated: u64,
    /// Whether a snapshot file was loaded as the replay base.
    pub snapshot_loaded: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} table(s): {} WAL record(s) replayed on top of {}, \
             {} byte(s) of torn tail discarded",
            self.tables_restored,
            self.records_replayed,
            if self.snapshot_loaded {
                "a snapshot"
            } else {
                "an empty catalog"
            },
            self.bytes_truncated,
        )
    }
}

#[derive(Debug)]
struct DurabilityState {
    wal: WalWriter,
    snapshot_path: PathBuf,
    /// Length of the snapshot file on disk; 0 while there is none.
    snapshot_bytes: u64,
    /// `Some(n)`: fold at exactly `n` log bytes
    /// ([`Database::set_compact_threshold`]); `None`: the default rule.
    compact_threshold: Option<u64>,
}

/// An in-process database: a catalog of stored tables.
///
/// This is the object the Bismarck front-ends (`LogisticRegressionTrain`,
/// `SvmTrain`, ...) operate on: they read a training table from the catalog
/// and persist the learned model back into it as a new table, mirroring the
/// paper's `SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label')`.
///
/// Every table, whatever its physical layout, lives in this one map and goes
/// through the same log: a table's layout is recorded with it, so a columnar
/// table is logged, compacted and replayed exactly like a row table. A
/// *paged* columnar table is recorded by reference (name, directory, cache
/// size) — its segment files are already its durability — so dropping it
/// detaches it without deleting those files.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, StoredTable>,
    durability: Option<DurabilityState>,
}

impl Database {
    /// An empty, purely in-memory database (nothing is persisted).
    pub fn new() -> Self {
        Database::default()
    }

    /// Open (or create) a durable database in `dir`.
    ///
    /// Recovery order: load `catalog.snap` if present, then replay
    /// `catalog.wal` records with LSNs above the snapshot's, truncating a
    /// torn tail left by a crash mid-append. Damage that no crash can
    /// explain — a checksum-corrupt record *followed by* valid data, a
    /// corrupt snapshot, replayed operations that contradict the catalog —
    /// is a hard [`StorageError::Corrupt`], never silently repaired.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Database, RecoveryReport), StorageError> {
        let dir = dir.as_ref();
        durable::create_dir(dir)
            .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let mut tables = BTreeMap::new();
        let mut snap_lsn = 0;
        let mut snapshot_bytes = 0;
        let mut snapshot_loaded = false;
        if let Some(snap) = snapshot::read(&snapshot_path)? {
            snap_lsn = snap.last_lsn;
            snapshot_bytes = snap.encoded_len;
            snapshot_loaded = true;
            for table in snap.tables {
                tables.insert(table.name().to_string(), table);
            }
        }

        let mut records_replayed = 0;
        let mut bytes_truncated = 0;
        let wal = match durable::read_file(&wal_path) {
            Ok(bytes) => {
                let replayed = wal::replay(&bytes)?;
                bytes_truncated = replayed.truncated_bytes;
                let next_lsn = replayed.next_lsn().max(snap_lsn + 1);
                for record in &replayed.records {
                    if record.lsn <= snap_lsn {
                        continue; // already folded into the snapshot
                    }
                    apply_op(&mut tables, &record.op)?;
                    records_replayed += 1;
                }
                WalWriter::open(&wal_path, replayed.valid_len, next_lsn)?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Fresh directory, or a snapshot whose post-compaction state
                // never got a new log (both are consistent states).
                let mut writer = WalWriter::create(&wal_path)?;
                if snap_lsn > 0 {
                    writer = WalWriter::open(&wal_path, wal::WAL_HEADER_LEN, snap_lsn + 1)?;
                }
                writer
            }
            Err(e) => {
                return Err(StorageError::Io(format!(
                    "read WAL {}: {e}",
                    wal_path.display()
                )))
            }
        };

        // Paged references are opened only now: one that a later record
        // dropped or replaced no longer needs its directory.
        let tables = tables
            .into_iter()
            .map(|(name, table)| Ok((name, table.open()?)))
            .collect::<Result<BTreeMap<_, _>, StorageError>>()?;

        let report = RecoveryReport {
            tables_restored: tables.len(),
            records_replayed,
            bytes_truncated,
            snapshot_loaded,
        };
        Ok((
            Database {
                tables,
                durability: Some(DurabilityState {
                    wal,
                    snapshot_path,
                    snapshot_bytes,
                    compact_threshold: None,
                }),
            },
            report,
        ))
    }

    /// Whether this catalog is backed by a durable directory.
    pub(crate) fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Fold the log whenever it reaches exactly `bytes`, instead of when it
    /// outgrows its snapshot (durable catalogs only; no-op otherwise). Mainly
    /// for tests: `1` folds after every operation.
    pub fn set_compact_threshold(&mut self, bytes: u64) {
        if let Some(d) = self.durability.as_mut() {
            d.compact_threshold = Some(bytes);
        }
    }

    /// Append one operation to the WAL (fsynced) before it is applied. The
    /// record is only built when there is a log to append it to.
    fn log_op(
        &mut self,
        encode: impl FnOnce() -> Result<Vec<u8>, StorageError>,
    ) -> Result<(), StorageError> {
        match self.durability.as_mut() {
            Some(d) => d.wal.append(&encode()?).map(|_lsn| ()),
            None => Ok(()),
        }
    }

    /// Compact if the log has outgrown what it sits on (module docs) or
    /// reached an explicit threshold. Best-effort: a failed
    /// compaction leaves both the log and the snapshot in their previous
    /// consistent states, so the error is not worth failing the (already
    /// durable) triggering operation for.
    fn maybe_compact(&mut self) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        let fold_at = d
            .compact_threshold
            .unwrap_or_else(|| DEFAULT_COMPACT_THRESHOLD.max(d.snapshot_bytes));
        if d.wal.size_bytes() >= fold_at {
            let _ = compact_state(d, &self.tables);
        }
    }

    /// Fold the current catalog into a fresh snapshot and truncate the WAL.
    ///
    /// Crash-safe in both directions: the snapshot is written atomically, and
    /// because it records the last LSN it incorporates, a crash *between* the
    /// snapshot rename and the log truncation only leaves stale records that
    /// the next [`Database::open`] skips by LSN.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        match self.durability.as_mut() {
            Some(d) => compact_state(d, &self.tables),
            None => Ok(()),
        }
    }

    /// Create an empty row-store table; fails if the name is taken.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), StorageError> {
        self.create_stored(Table::new(name, schema))
    }

    /// Add an already-built table of any layout; fails if the name is taken.
    pub fn create_stored(&mut self, table: impl Into<StoredTable>) -> Result<(), StorageError> {
        let table = table.into();
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        self.put(OP_CREATE, table)
    }

    /// Register an already-built table of any layout (e.g. from a dataset
    /// generator, a trained model, or a paged columnar table built from
    /// Rust); replaces any table of the same name, mirroring `CREATE OR
    /// REPLACE`. On a durable catalog the full table contents are logged —
    /// which is how trained models survive restarts — except for a paged
    /// table, which is flushed and logged by reference.
    pub fn register_table(&mut self, table: impl Into<StoredTable>) -> Result<(), StorageError> {
        self.put(OP_REGISTER, table.into())
    }

    fn put(&mut self, tag: u8, mut table: StoredTable) -> Result<(), StorageError> {
        if self.is_durable() {
            // A by-reference record promises the directory holds every row.
            table.flush()?;
        }
        self.log_op(|| {
            let mut op = vec![tag];
            table.encode(&mut op)?;
            Ok(op)
        })?;
        self.tables.insert(table.name().to_string(), table);
        self.maybe_compact();
        Ok(())
    }

    /// Validate and append a batch of rows to a table. Either every row is
    /// accepted or none is. The batch is write-ahead logged as one record —
    /// except into a paged table, whose own segment files are its
    /// durability: there the rows are inserted and flushed to its directory.
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, StorageError> {
        let table = self.stored(name)?;
        for row in &rows {
            table.schema().validate(row)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let paged = table.paged_location().is_some();
        if !paged {
            self.log_op(|| Ok(encode_insert(name, &rows)))?;
        }
        let table = self.tables.get_mut(name).expect("existence checked above");
        let count = table.insert_all(rows)?;
        if paged {
            table.flush()?;
        }
        self.maybe_compact();
        Ok(count)
    }

    /// Look up a table of any layout by name.
    pub fn stored(&self, name: &str) -> Result<&StoredTable, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Look up a **row-store** table by name (the typed accessor for code
    /// that needs `Table`'s borrowing iterators); a columnar table of that
    /// name is [`StorageError::Unsupported`] — read it through
    /// [`Database::stored`].
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.stored(name)?.as_row().ok_or_else(|| {
            StorageError::Unsupported(format!("table '{name}' is columnar, not a row-store table"))
        })
    }

    /// Remove a table; returns it if present.
    pub fn drop_table(&mut self, name: &str) -> Result<StoredTable, StorageError> {
        if !self.tables.contains_key(name) {
            return Err(StorageError::UnknownTable(name.to_string()));
        }
        self.log_op(|| Ok(encode_drop(name)))?;
        let table = self.tables.remove(name).expect("existence checked above");
        self.maybe_compact();
        Ok(table)
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Every table, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &StoredTable> {
        self.tables.values()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

fn compact_state(
    d: &mut DurabilityState,
    tables: &BTreeMap<String, StoredTable>,
) -> Result<(), StorageError> {
    let last_lsn = d.wal.next_lsn() - 1;
    d.snapshot_bytes = snapshot::write(&d.snapshot_path, last_lsn, tables.values())?;
    d.wal.reset()
}

fn encode_drop(name: &str) -> Vec<u8> {
    let mut op = vec![OP_DROP];
    push_string(&mut op, name);
    op
}

fn encode_insert(name: &str, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut op = vec![OP_INSERT];
    push_string(&mut op, name);
    op.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        push_row(&mut op, row);
    }
    op
}

/// Apply one replayed WAL operation. Inconsistencies (creating a table that
/// exists, dropping or inserting into one that does not) mean the log and
/// the catalog disagree — hard corruption, since the log was the only writer.
fn apply_op(tables: &mut BTreeMap<String, Decoded>, op: &[u8]) -> Result<(), StorageError> {
    let corrupt = |msg: String| StorageError::Corrupt(msg);
    let mut r = Reader::new(op);
    let tag = r.u8()?;
    match tag {
        OP_CREATE_ROW | OP_REGISTER_ROW | OP_CREATE | OP_REGISTER => {
            let table = if tag == OP_CREATE_ROW {
                // The old CREATE record ends after the schema: an empty table.
                Decoded::Resident(Table::new(r.string()?, read_schema(&mut r)?).into())
            } else {
                let kind = if tag == OP_REGISTER_ROW {
                    KIND_ROW
                } else {
                    r.u8()?
                };
                StoredTable::decode(&mut r, kind)?
            };
            r.finish()?;
            if matches!(tag, OP_CREATE_ROW | OP_CREATE) && tables.contains_key(table.name()) {
                return Err(corrupt(format!(
                    "replayed CREATE TABLE for already-existing table '{}'",
                    table.name()
                )));
            }
            tables.insert(table.name().to_string(), table);
        }
        OP_DROP => {
            let name = r.string()?;
            r.finish()?;
            if tables.remove(&name).is_none() {
                return Err(corrupt(format!(
                    "replayed DROP TABLE for unknown table '{name}'"
                )));
            }
        }
        OP_INSERT => {
            let name = r.string()?;
            let count = r.len_prefix(8)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(read_row(&mut r)?);
            }
            r.finish()?;
            // Inserts into a paged table go to its own files, never the log.
            let Some(Decoded::Resident(table)) = tables.get_mut(&name) else {
                return Err(corrupt(format!(
                    "replayed INSERT into unknown table '{name}'"
                )));
            };
            table
                .insert_all(rows)
                .map_err(|e| corrupt(format!("replayed row violates schema of '{name}': {e}")))?;
        }
        tag => return Err(corrupt(format!("unknown WAL operation tag {tag}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int)]).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bismarck-catalog-test-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        assert!(db.contains("t"));
        assert_eq!(db.table("t").unwrap().len(), 0);
        assert!(db.table("missing").is_err());
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
        assert!(!db.is_durable());
    }

    #[test]
    fn create_duplicate_fails() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        assert!(matches!(
            db.create_table("t", schema()),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn register_replaces() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        db.insert_rows("t", vec![vec![Value::Int(1)]]).unwrap();
        let replacement = Table::new("t", schema());
        db.register_table(replacement).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    #[test]
    fn drop_table_removes() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        let t = db.drop_table("t").unwrap();
        assert_eq!(t.name(), "t");
        assert!(!db.contains("t"));
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new();
        db.create_table("b", schema()).unwrap();
        db.create_table("a", schema()).unwrap();
        assert_eq!(db.table_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn insert_rows_is_all_or_nothing() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        let err = db
            .insert_rows("t", vec![vec![Value::Int(1)], vec![Value::Double(2.0)]])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert!(db.table("t").unwrap().is_empty());
        assert_eq!(
            db.insert_rows("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
                .unwrap(),
            2
        );
        assert_eq!(db.table("t").unwrap().len(), 2);
    }

    #[test]
    fn durable_catalog_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let (mut db, report) = Database::open(&dir).unwrap();
            assert!(db.is_durable());
            assert_eq!(report, RecoveryReport::default());
            db.create_table("t", schema()).unwrap();
            db.insert_rows("t", vec![vec![Value::Int(7)], vec![Value::Int(8)]])
                .unwrap();
            db.create_table("gone", schema()).unwrap();
            db.drop_table("gone").unwrap();
        }
        let (db, report) = Database::open(&dir).unwrap();
        assert_eq!(report.tables_restored, 1);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.bytes_truncated, 0);
        assert!(!report.snapshot_loaded);
        let t = db.table("t").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).unwrap().get_int(0), Some(8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_snapshots_and_truncates_then_reopens() {
        let dir = temp_dir("compact");
        {
            let (mut db, _) = Database::open(&dir).unwrap();
            db.set_compact_threshold(1); // compact after every operation
            db.create_table("t", schema()).unwrap();
            for i in 0..10 {
                db.insert_rows("t", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        let (db, report) = Database::open(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(db.table("t").unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_log_is_folded_when_it_outgrows_its_snapshot() {
        const MIB: u64 = DEFAULT_COMPACT_THRESHOLD;
        const APPENDS: i64 = 64;
        const BATCH: i64 = 512;
        let dir = temp_dir("fold-schedule");
        let file_len = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
        // 512 rows of 54 doubles: the ≈ 239 KB record of the durable ingest
        // workload's INSERT.
        let batch = |k: i64| -> Vec<Vec<Value>> {
            (k * BATCH..(k + 1) * BATCH)
                .map(|id| {
                    vec![
                        Value::Int(id),
                        Value::DenseVec(vec![id as f64; 54]),
                        Value::Double(1.0),
                    ]
                })
                .collect()
        };

        let (mut db, _) = Database::open(&dir).unwrap();
        let vector_schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        db.create_table("d", vector_schema).unwrap();
        let empty_log = file_len(WAL_FILE);

        let mut record = 0;
        let mut folds = Vec::new();
        let mut snapshot_bytes_written = 0;
        let mut snapshot = 0;
        for k in 0..APPENDS {
            db.insert_rows("d", batch(k)).unwrap();
            if k == 0 {
                record = file_len(WAL_FILE) - empty_log;
                assert!((230_000..250_000).contains(&record), "{record}");
            }
            let on_disk = file_len(SNAPSHOT_FILE);
            if on_disk != snapshot {
                folds.push(k + 1);
                snapshot_bytes_written += on_disk;
                snapshot = on_disk;
                assert_eq!(file_len(WAL_FILE), wal::WAL_HEADER_LEN);
            }
            // The log never outgrows the larger of 1 MiB and its snapshot by
            // more than the record that tipped it over.
            assert!(file_len(WAL_FILE) < MIB.max(snapshot) + record);
            // Every acknowledged row is there after a restart — and the
            // reopened catalog carries the schedule on: it remembers the
            // snapshot's length from `open`.
            drop(db);
            let (reopened, report) = Database::open(&dir).unwrap();
            let table = reopened.table("d").unwrap();
            assert_eq!(table.len() as i64, (k + 1) * BATCH);
            let last = table.get(table.len() - 1).unwrap();
            assert_eq!(last.get_int(0), Some((k + 1) * BATCH - 1));
            assert_eq!(report.snapshot_loaded, snapshot > 0);
            db = reopened;
        }
        assert_eq!(folds, vec![5, 10, 20, 40]);
        // A geometric series, not one rewrite of the table per MiB logged.
        let final_catalog = snapshot + file_len(WAL_FILE);
        assert!(snapshot_bytes_written <= 2 * final_catalog);

        // An explicit threshold is exact, not a floor under the rule.
        db.set_compact_threshold(1);
        for id in 0..3 {
            let before = file_len(SNAPSHOT_FILE);
            db.insert_rows(
                "d",
                vec![vec![
                    Value::Int(id),
                    Value::DenseVec(vec![0.0]),
                    Value::Double(0.0),
                ]],
            )
            .unwrap();
            assert_eq!(file_len(WAL_FILE), wal::WAL_HEADER_LEN);
            assert!(file_len(SNAPSHOT_FILE) > before);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_table_is_replayed_with_contents() {
        let dir = temp_dir("register");
        {
            let (mut db, _) = Database::open(&dir).unwrap();
            let mut t = Table::new("model", schema());
            t.insert(vec![Value::Int(41)]).unwrap();
            db.register_table(t).unwrap();
        }
        let (db, _) = Database::open(&dir).unwrap();
        assert_eq!(
            db.table("model").unwrap().get(0).unwrap().get_int(0),
            Some(41)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_catalog_never_builds_log_records() {
        let mut db = Database::new();
        let encoded = std::cell::Cell::new(false);
        db.log_op(|| {
            encoded.set(true);
            Ok(Vec::new())
        })
        .unwrap();
        assert!(!encoded.get());
    }

    #[test]
    fn recovery_report_display_is_readable() {
        let report = RecoveryReport {
            tables_restored: 2,
            records_replayed: 5,
            bytes_truncated: 17,
            snapshot_loaded: true,
        };
        let text = report.to_string();
        assert!(text.contains("2 table(s)"));
        assert!(text.contains("5 WAL record(s)"));
        assert!(text.contains("17 byte(s)"));
    }
}
