//! Append-only write-ahead log with checksummed records and torn-tail
//! recovery.
//!
//! The catalog logs every mutation here *before* applying it in memory, so a
//! restart can replay the log and land in exactly the state the last
//! successful operation left behind. On-disk layout, all integers
//! little-endian:
//!
//! ```text
//! [0..4)  magic b"BWAL"
//! [4..8)  format version (u32), currently 1
//! then zero or more records:
//!   [u32]  payload length n
//!   [n]    payload = [u64 LSN] + operation bytes
//!   [u64]  FNV-1a 64-bit checksum of the payload
//! ```
//!
//! The `u32` length prefix bounds one record's payload at 4 GiB − 1: an
//! operation that would need more is refused with
//! [`StorageError::RecordTooLarge`] before a byte of it is written.
//!
//! Every record carries a monotonically increasing **log sequence number**.
//! The catalog snapshot stores the LSN it incorporates, so replay after a
//! crash between "snapshot renamed" and "log truncated" simply skips records
//! the snapshot already contains instead of re-applying them.
//!
//! Recovery distinguishes two kinds of damage:
//!
//! - a **torn tail** — the file ends inside a record, exactly what a crash
//!   mid-append leaves behind. The tail is dropped and replay succeeds; the
//!   byte count is surfaced in the recovery report.
//! - a **corrupt interior** — a record whose checksum fails but which is
//!   *followed by more log data*. No crash produces that shape (appends only
//!   tear the end), so it means bit rot or tampering and replay refuses with
//!   a hard error rather than silently dropping committed operations.

use std::io::{Seek as _, SeekFrom};
use std::path::{Path, PathBuf};

use crate::durable::{self, fnv1a64};
use crate::error::StorageError;

/// Magic bytes identifying a Bismarck WAL file.
const WAL_MAGIC: [u8; 4] = *b"BWAL";

/// Current WAL format version.
const WAL_VERSION: u32 = 1;

/// Size of the file header preceding the first record.
pub const WAL_HEADER_LEN: u64 = 8;

/// Bytes of fixed framing around each record payload (length prefix +
/// checksum).
const RECORD_OVERHEAD: usize = 4 + 8;

/// The length prefix of a record whose payload is `payload_len` bytes, or
/// [`StorageError::RecordTooLarge`] when the prefix cannot hold it: writing
/// the wrapped length would acknowledge a record that [`replay`] later
/// rejects as corruption.
fn length_prefix(payload_len: usize) -> Result<u32, StorageError> {
    u32::try_from(payload_len).map_err(|_| StorageError::RecordTooLarge {
        bytes: payload_len as u64,
        limit: u64::from(u32::MAX),
    })
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{op} {}: {e}", path.display()))
}

fn header_bytes() -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Opaque operation payload (decoded by the catalog layer).
    pub op: Vec<u8>,
}

/// The outcome of scanning a WAL file during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalReplay {
    /// Records recovered, in log order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix of the file; the writer reopens at this
    /// offset, physically dropping anything beyond it.
    pub valid_len: u64,
    /// Bytes discarded from the torn tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
}

impl WalReplay {
    /// The LSN the next append should use, considering only the log itself
    /// (the caller takes the max with the snapshot's LSN).
    pub(crate) fn next_lsn(&self) -> u64 {
        self.records.last().map_or(1, |r| r.lsn + 1)
    }
}

/// Scan the raw bytes of a WAL file, validating framing and checksums.
///
/// Returns the decoded records plus the valid prefix length. A file shorter
/// than the header (a crash during creation) recovers as empty with
/// `valid_len == 0`; a full header with the wrong magic or version is a hard
/// error — that file is not ours to truncate.
pub(crate) fn replay(bytes: &[u8]) -> Result<WalReplay, StorageError> {
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(StorageError::Corrupt(
            "not a WAL file (bad magic)".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4B"));
    if version != WAL_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported WAL format version {version}"
        )));
    }

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 4 {
            break; // torn length prefix
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4B")) as usize;
        if len < 8 {
            // An append writes the (correct) length prefix before the
            // payload, and payloads always start with an 8-byte LSN, so no
            // crash produces a complete prefix claiming less than 8 bytes.
            return Err(StorageError::Corrupt(format!(
                "WAL record at byte {pos} claims impossible payload length {len}"
            )));
        }
        let Some(total) = len.checked_add(RECORD_OVERHEAD) else {
            return Err(StorageError::Corrupt(format!(
                "WAL record at byte {pos} claims overflowing payload length {len}"
            )));
        };
        if total > remaining {
            break; // torn payload or checksum
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let stored = u64::from_le_bytes(bytes[pos + 4 + len..pos + total].try_into().expect("8B"));
        if fnv1a64(payload) != stored {
            if pos + total == bytes.len() {
                break; // checksum-bad final record: torn tail
            }
            return Err(StorageError::Corrupt(format!(
                "WAL record at byte {pos} fails its checksum but is not the \
                 last record — the log interior is corrupt"
            )));
        }
        let lsn = u64::from_le_bytes(payload[..8].try_into().expect("8B"));
        if let Some(last) = records.last() {
            let last: &WalRecord = last;
            if lsn <= last.lsn {
                return Err(StorageError::Corrupt(format!(
                    "WAL LSNs are not increasing ({} then {lsn})",
                    last.lsn
                )));
            }
        }
        records.push(WalRecord {
            lsn,
            op: payload[8..].to_vec(),
        });
        pos += total;
    }

    Ok(WalReplay {
        records,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    })
}

/// Appends records to the log, fsyncing each one before the caller applies
/// the operation in memory.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
    next_lsn: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Create a fresh, empty log at `path` (header only, durably synced).
    pub fn create(path: &Path) -> Result<WalWriter, StorageError> {
        let mut file = durable::create_file(path).map_err(|e| io_err("create", path, e))?;
        durable::write_all(&mut file, &header_bytes()).map_err(|e| io_err("write", path, e))?;
        durable::sync_file(&file).map_err(|e| io_err("sync", path, e))?;
        if let Some(parent) = durable::parent_dir(path) {
            durable::sync_dir(parent).map_err(|e| io_err("sync dir", path, e))?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: WAL_HEADER_LEN,
            next_lsn: 1,
            poisoned: false,
        })
    }

    /// Reopen an existing log after [`replay`], dropping anything beyond the
    /// valid prefix so new appends extend good data. A `valid_len` below the
    /// header length (crash during creation) rewrites the header.
    pub(crate) fn open(
        path: &Path,
        valid_len: u64,
        next_lsn: u64,
    ) -> Result<WalWriter, StorageError> {
        if valid_len < WAL_HEADER_LEN {
            let mut writer = WalWriter::create(path)?;
            writer.next_lsn = next_lsn;
            return Ok(writer);
        }
        let mut file = durable::open_append(path).map_err(|e| io_err("open", path, e))?;
        let actual = file.metadata().map_err(|e| io_err("stat", path, e))?.len();
        if actual != valid_len {
            durable::truncate_file(&file, valid_len).map_err(|e| io_err("truncate", path, e))?;
            durable::sync_file(&file).map_err(|e| io_err("sync", path, e))?;
        }
        // `set_len` and `open` leave the cursor wherever it was; appends must
        // start exactly at the valid prefix's end.
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| io_err("seek", path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            len: valid_len,
            next_lsn,
            poisoned: false,
        })
    }

    /// Current file length in bytes (the compaction trigger input).
    pub fn size_bytes(&self) -> u64 {
        self.len
    }

    /// The LSN the next append will stamp.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append one operation record and fsync it. Returns the record's LSN.
    ///
    /// An operation too large for one record is refused before anything is
    /// written ([`StorageError::RecordTooLarge`]); the writer stays usable.
    ///
    /// On failure the writer first tries to truncate the file back to its
    /// pre-append length so the log stays clean; if even that fails (e.g. the
    /// injected fault models a process crash) the writer is *poisoned* — all
    /// further appends fail — because the on-disk tail is no longer known to
    /// be well-formed. Reopening the database recovers via torn-tail
    /// truncation.
    pub fn append(&mut self, op: &[u8]) -> Result<u64, StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(format!(
                "WAL writer for {} is poisoned by an earlier failed append; \
                 reopen the database to recover",
                self.path.display()
            )));
        }
        let lsn = self.next_lsn;
        let prefix = length_prefix(8 + op.len())?;
        let mut payload = Vec::with_capacity(8 + op.len());
        payload.extend_from_slice(&lsn.to_le_bytes());
        payload.extend_from_slice(op);
        let mut record = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        record.extend_from_slice(&prefix.to_le_bytes());
        record.extend_from_slice(&payload);
        record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());

        let result = durable::write_all(&mut self.file, &record)
            .map_err(|e| io_err("append", &self.path, e))
            .and_then(|()| {
                durable::sync_file(&self.file).map_err(|e| io_err("sync", &self.path, e))
            });
        match result {
            Ok(()) => {
                self.len += record.len() as u64;
                self.next_lsn += 1;
                Ok(lsn)
            }
            Err(e) => {
                // Scrub the possibly-torn record so the log stays appendable.
                let cleaned = durable::truncate_file(&self.file, self.len)
                    .and_then(|()| durable::sync_file(&self.file))
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
                if cleaned.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Truncate the log back to its header after a snapshot has durably
    /// captured everything up to the current LSN. LSNs keep increasing across
    /// the reset so snapshot/log consistency checks stay monotone.
    pub(crate) fn reset(&mut self) -> Result<(), StorageError> {
        durable::truncate_file(&self.file, WAL_HEADER_LEN)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        durable::sync_file(&self.file).map_err(|e| io_err("sync", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.len = WAL_HEADER_LEN;
        self.poisoned = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bismarck-wal-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.wal"))
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create(&path).unwrap();
        assert_eq!(w.append(b"first op").unwrap(), 1);
        assert_eq!(w.append(b"second, longer operation").unwrap(), 2);
        let replayed = replay(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(replayed.truncated_bytes, 0);
        assert_eq!(replayed.valid_len, w.size_bytes());
        assert_eq!(replayed.next_lsn(), 3);
        assert_eq!(
            replayed.records,
            vec![
                WalRecord {
                    lsn: 1,
                    op: b"first op".to_vec()
                },
                WalRecord {
                    lsn: 2,
                    op: b"second, longer operation".to_vec()
                },
            ]
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_wal("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"kept").unwrap();
        let good_len = w.size_bytes();
        w.append(b"this record will be torn").unwrap();
        drop(w);
        let bytes = fs::read(&path).unwrap();
        // Cut the second record mid-payload, as a crash mid-append would.
        let torn = &bytes[..good_len as usize + 7];
        let replayed = replay(torn).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].op, b"kept");
        assert_eq!(replayed.valid_len, good_len);
        assert_eq!(replayed.truncated_bytes, 7);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = temp_wal("interior");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        let first_end = w.size_bytes() as usize;
        w.append(b"second").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload bit inside the *first* record.
        bytes[first_end - 10] ^= 0x01;
        match replay(&bytes) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected hard corruption error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_bad_final_record_is_torn_tail() {
        let path = temp_wal("final-bad");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"kept").unwrap();
        let good_len = w.size_bytes();
        w.append(b"damaged").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 10;
        bytes[last] ^= 0x01; // corrupt the final record's checksum region
        let replayed = replay(&bytes).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.valid_len, good_len);
        assert!(replayed.truncated_bytes > 0);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_drops_tail_and_continues_lsns() {
        let path = temp_wal("reopen");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"one").unwrap();
        w.append(b"two").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]); // torn garbage after the records
        fs::write(&path, &bytes).unwrap();
        let replayed = replay(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(replayed.truncated_bytes, 5);
        let mut w = WalWriter::open(&path, replayed.valid_len, replayed.next_lsn()).unwrap();
        assert_eq!(w.append(b"three").unwrap(), 3);
        let clean = replay(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(clean.truncated_bytes, 0);
        assert_eq!(clean.records.len(), 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn short_file_recovers_as_empty() {
        let replayed = replay(b"BW").unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_len, 0);
        assert_eq!(replayed.truncated_bytes, 2);
    }

    #[test]
    fn foreign_file_is_rejected() {
        assert!(matches!(
            replay(b"NOTAWALFILE!"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_record_is_refused_not_written_with_a_wrapped_length() {
        // `append` asks `length_prefix` before it builds or writes anything;
        // testing the check itself needs no 4 GiB operation.
        assert_eq!(length_prefix(8), Ok(8));
        assert_eq!(length_prefix(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        for too_large in [u32::MAX as usize + 1, (u32::MAX as usize + 1) * 2 + 20] {
            // `as u32` made these 0 and 20: records `replay` then rejects.
            assert_eq!(
                length_prefix(too_large),
                Err(StorageError::RecordTooLarge {
                    bytes: too_large as u64,
                    limit: u64::from(u32::MAX),
                })
            );
        }
    }

    #[test]
    fn reset_truncates_to_header() {
        let path = temp_wal("reset");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"compacted away").unwrap();
        w.reset().unwrap();
        assert_eq!(w.size_bytes(), WAL_HEADER_LEN);
        assert_eq!(w.append(b"after").unwrap(), 2);
        let replayed = replay(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].lsn, 2);
        fs::remove_file(&path).ok();
    }
}
