//! Full-catalog snapshots: the compaction target of the WAL.
//!
//! A snapshot is a single file holding every table in the catalog plus the
//! **LSN of the last WAL record it incorporates**. Recovery loads the
//! snapshot first and then replays only WAL records with a higher LSN, which
//! makes the compaction sequence crash-safe: if the process dies after the
//! snapshot is renamed into place but before the log is truncated, the stale
//! log records are simply skipped on the next open instead of being applied
//! twice.
//!
//! The file is one [`FileKind::Snapshot`] frame ([`crate::durable::frame`])
//! whose payload is, all integers little-endian:
//!
//! ```text
//! u64 last LSN incorporated
//! u64 table count, then per table:
//!   a layout byte and the table's encoding (`crate::stored`):
//!   by value for in-memory tables, by reference for paged ones
//! ```
//!
//! Frame version 1 (written before tables carried a layout) has no layout
//! byte: every table is a row table. It is still read, never written.
//!
//! Snapshots are written exclusively through [`crate::durable::atomic_write`],
//! so the file under the snapshot path is always a complete generation.

use std::path::Path;

use crate::codec::Reader;
use crate::durable::{self, FileKind};
use crate::error::StorageError;
use crate::stored::{Decoded, StoredTable, KIND_ROW};

/// A decoded snapshot: the catalog state as of `last_lsn`.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// LSN of the last WAL record this snapshot incorporates (0 = none).
    pub(crate) last_lsn: u64,
    /// The tables, in encoding order (paged references still unopened).
    pub(crate) tables: Vec<Decoded>,
    /// Length of the encoded snapshot, framing included.
    pub(crate) encoded_len: u64,
}

/// Serialize the catalog (`last_lsn` plus every table) into a snapshot payload.
fn encode<'a>(
    last_lsn: u64,
    tables: impl Iterator<Item = &'a StoredTable>,
) -> Result<Vec<u8>, StorageError> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&last_lsn.to_le_bytes());
    let count_at = payload.len();
    payload.extend_from_slice(&0u64.to_le_bytes());
    let mut count: u64 = 0;
    for table in tables {
        table.encode(&mut payload)?;
        count += 1;
    }
    payload[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    Ok(payload)
}

/// Decode and validate snapshot bytes. Any damage — to the frame, or rows
/// that no longer satisfy their schema — is a hard [`StorageError::Corrupt`]:
/// a snapshot is written atomically, so unlike a WAL tail there is no benign
/// way for it to be partial.
pub(crate) fn decode(bytes: &[u8]) -> Result<Snapshot, StorageError> {
    let (version, payload) = durable::unframe(FileKind::Snapshot, bytes)?;
    let mut r = Reader::new(payload);
    let last_lsn = r.u64()?;
    let table_count = r.len_prefix(1)?;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let kind = if version == 1 { KIND_ROW } else { r.u8()? };
        tables.push(StoredTable::decode(&mut r, kind)?);
    }
    r.finish()?;
    Ok(Snapshot {
        last_lsn,
        tables,
        encoded_len: bytes.len() as u64,
    })
}

/// Atomically write a snapshot file; returns its length in bytes.
pub(crate) fn write<'a>(
    path: &Path,
    last_lsn: u64,
    tables: impl Iterator<Item = &'a StoredTable>,
) -> Result<u64, StorageError> {
    durable::write_framed(path, FileKind::Snapshot, &encode(last_lsn, tables)?)
}

/// Read a snapshot file if it exists; `Ok(None)` when there is none yet.
pub(crate) fn read(path: &Path) -> Result<Option<Snapshot>, StorageError> {
    match durable::read_file(path) {
        Ok(bytes) => decode(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StorageError::Io(format!(
            "read snapshot {}: {e}",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::TupleScan;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn sample_table(name: &str, rows: usize) -> StoredTable {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("w", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new(name, schema);
        for i in 0..rows {
            t.insert(vec![Value::Int(i as i64), Value::Double(i as f64 * 0.5)])
                .unwrap();
        }
        t.into()
    }

    fn encoded<'a>(last_lsn: u64, tables: impl Iterator<Item = &'a StoredTable>) -> Vec<u8> {
        durable::frame(FileKind::Snapshot, &encode(last_lsn, tables).unwrap())
    }

    fn opened(snap: Snapshot) -> Vec<StoredTable> {
        snap.tables.into_iter().map(|t| t.open().unwrap()).collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = sample_table("alpha", 3);
        let b = sample_table("beta", 0);
        let bytes = encoded(42, [&a, &b].into_iter());
        let snap = decode(&bytes).unwrap();
        assert_eq!(snap.last_lsn, 42);
        let tables = opened(snap);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name(), "alpha");
        assert_eq!(tables[0].len(), 3);
        let mut last = None;
        tables[0].scan_tuples_range(2, 3, &mut |t| last = t.get_double(1));
        assert_eq!(last, Some(1.0));
        assert_eq!(tables[1].name(), "beta");
        assert!(tables[1].is_empty());
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let snap = decode(&encoded(0, std::iter::empty())).unwrap();
        assert_eq!(snap.last_lsn, 0);
        assert!(snap.tables.is_empty());
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let t = sample_table("t", 2);
        let good = encoded(7, std::iter::once(&t));
        for pos in [0usize, 5, 9, 20, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode(&bad).is_err(),
                "flip at byte {pos} should be detected"
            );
        }
    }

    #[test]
    fn truncated_snapshot_is_corrupt() {
        let t = sample_table("t", 2);
        let good = encoded(7, std::iter::once(&t));
        assert!(decode(&good[..good.len() - 3]).is_err());
        assert!(decode(&good[..10]).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir =
            std::env::temp_dir().join(format!("bismarck-snapshot-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.snap");
        assert!(read(&path).unwrap().is_none());
        let t = sample_table("t", 4);
        write(&path, 11, std::iter::once(&t)).unwrap();
        let snap = read(&path).unwrap().unwrap();
        assert_eq!(snap.last_lsn, 11);
        assert_eq!(opened(snap)[0].len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
