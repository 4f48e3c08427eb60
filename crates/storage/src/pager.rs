//! Out-of-core paging for columnar segments.
//!
//! Each sealed segment of a paged [`crate::columnar::ColumnarTable`] lives
//! in its own file under the table directory:
//!
//! ```text
//! <dir>/columnar.meta   manifest: name, schema, chunk capacity, row count, widths
//! <dir>/seg-000000.col  segment 0
//! <dir>/seg-000001.col  segment 1
//! ...
//! ```
//!
//! Each file is one frame ([`crate::durable::frame`], layout in
//! `docs/disk-format.md`) written through [`crate::durable::atomic_write`],
//! so a crash leaves the previous complete file, never a torn one. A write
//! that spans two files (a segment, then the manifest) commits at the
//! manifest's rename: see [`crate::columnar::ColumnarTable::open_paged`].
//!
//! Reads go through a small **pinned-segment LRU cache**: fetching returns
//! an `Arc<Segment>`, so a segment a scan is mid-way through stays alive
//! (pinned by the outstanding `Arc`) even if the cache evicts it — eviction
//! only drops the cache's own reference. A miss is one exact-size read, one
//! [`crate::durable::checksum64`] pass over the whole payload, and a bulk
//! copy of each column array. Sequential fetch patterns also load the next segment, the
//! access shape every clustered epoch scan produces; that read-ahead runs
//! synchronously inside `fetch`, under the pager lock — it batches two loads
//! into one call and overlaps nothing with the scan.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec::{push_schema, push_string, read_schema, Reader};
use crate::columnar::Segment;
use crate::durable::{create_dir, read_file, unframe, write_framed, FileKind};
use crate::error::StorageError;
use crate::schema::Schema;

/// Manifest file name inside a paged table directory.
pub const MANIFEST_FILE: &str = "columnar.meta";

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Corrupt(msg.into())
}

fn io_err(path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{}: {e}", path.display()))
}

/// The manifest of a paged columnar table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Schema,
    /// Rows per segment.
    pub chunk_capacity: u64,
    /// Total rows (the last segment may be partial).
    pub row_count: u64,
    /// The widest vector of each column over those rows
    /// (`TupleScan::vector_width`); `None` only when read from a legacy
    /// manifest (frame versions 1 and 2), which predates them.
    pub widths: Option<Vec<usize>>,
}

/// The first manifest version whose payload ends with the column widths.
const MANIFEST_WIDTHS_VERSION: u8 = 3;

/// The widest vector a chunk can store: `u32` offsets bound a dense one,
/// `u32` indices a sparse one (`u32::MAX + 1`).
const MAX_WIDTH: u64 = 1 << 32;

impl Manifest {
    /// Atomically write the manifest into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), StorageError> {
        let widths = self
            .widths
            .as_deref()
            .expect("only a legacy manifest lacks widths, and none is written back");
        let mut payload = Vec::new();
        push_string(&mut payload, &self.name);
        push_schema(&mut payload, &self.schema);
        payload.extend_from_slice(&self.chunk_capacity.to_le_bytes());
        payload.extend_from_slice(&self.row_count.to_le_bytes());
        for &width in widths {
            payload.extend_from_slice(&(width as u64).to_le_bytes());
        }
        write_framed(&dir.join(MANIFEST_FILE), FileKind::Manifest, &payload).map(|_| ())
    }

    /// Read and validate the manifest from `dir`.
    pub fn read(dir: &Path) -> Result<Self, StorageError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = read_file(&path).map_err(|e| io_err(&path, e))?;
        let (version, payload) = unframe(FileKind::Manifest, &bytes)?;
        let mut r = Reader::new(payload);
        let name = r.string()?;
        let schema = read_schema(&mut r)?;
        let chunk_capacity = r.u64()?;
        let row_count = r.u64()?;
        let widths = if version >= MANIFEST_WIDTHS_VERSION {
            // A width becomes the size of a model: refuse one no stored
            // vector can have (offsets and sparse indices are `u32`).
            let widths = (0..schema.arity()).map(|_| {
                let width = r.u64()?;
                usize::try_from(width)
                    .ok()
                    .filter(|_| width <= MAX_WIDTH)
                    .ok_or_else(|| corrupt(format!("columnar manifest: column width {width}")))
            });
            Some(widths.collect::<Result<_, StorageError>>()?)
        } else {
            None
        };
        r.finish()?;
        if chunk_capacity == 0 {
            return Err(corrupt("columnar manifest: zero chunk capacity"));
        }
        Ok(Manifest {
            name,
            schema,
            chunk_capacity,
            row_count,
            widths,
        })
    }
}

/// Cache and I/O counters of a pager. All counters are cumulative since
/// the pager was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Fetches served from the cache.
    pub hits: u64,
    /// Fetches that had to read a segment file.
    pub misses: u64,
    /// Segments dropped from the cache to respect its capacity.
    pub evictions: u64,
    /// Segments loaded by sequential read-ahead before being requested.
    pub prefetches: u64,
    /// Total bytes read from segment files (including read-ahead).
    pub bytes_read: u64,
}

struct CacheEntry {
    segment: Arc<Segment>,
    last_used: u64,
}

struct PagerInner {
    cache: HashMap<usize, CacheEntry>,
    tick: u64,
    last_fetch: Option<usize>,
}

/// Segment file store with a pinned-segment LRU cache.
#[derive(Debug)]
pub(crate) struct Pager {
    dir: PathBuf,
    capacity: usize,
    inner: Mutex<PagerInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetches: AtomicU64,
    bytes_read: AtomicU64,
}

impl std::fmt::Debug for PagerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagerInner")
            .field("cached", &self.cache.len())
            .finish()
    }
}

impl Pager {
    /// Create a pager over `dir` (created if missing) holding at most
    /// `capacity` segments in memory (clamped to at least 1).
    pub fn create(dir: &Path, capacity: usize) -> Result<Self, StorageError> {
        create_dir(dir).map_err(|e| io_err(dir, e))?;
        Ok(Pager {
            dir: dir.to_path_buf(),
            capacity: capacity.max(1),
            inner: Mutex::new(PagerInner {
                cache: HashMap::new(),
                tick: 0,
                last_fetch: None,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The table directory this pager serves.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Maximum number of segments held in memory.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn seg_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:06}.col"))
    }

    /// Durably write the file of segment `idx` without caching it: all that
    /// `flush` needs for the still-open tail, which no fetch asks for until
    /// it seals.
    pub fn write_file(&self, idx: usize, segment: &Segment) -> Result<(), StorageError> {
        let mut payload = Vec::new();
        segment.encode(&mut payload);
        write_framed(&self.seg_path(idx), FileKind::Segment, &payload).map(|_| ())
    }

    /// Durably write sealed segment `idx` and (re)cache it.
    pub fn write_segment(&self, idx: usize, segment: Arc<Segment>) -> Result<(), StorageError> {
        self.write_file(idx, &segment)?;
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.cache.insert(
            idx,
            CacheEntry {
                segment,
                last_used: tick,
            },
        );
        self.enforce_capacity(&mut inner);
        Ok(())
    }

    fn load(&self, idx: usize) -> Result<Arc<Segment>, StorageError> {
        let path = self.seg_path(idx);
        let bytes = read_file(&path).map_err(|e| io_err(&path, e))?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let (_, payload) = unframe(FileKind::Segment, &bytes)?;
        let mut r = Reader::new(payload);
        let segment = Segment::decode(&mut r)?;
        r.finish()?;
        Ok(Arc::new(segment))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PagerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enforce_capacity(&self, inner: &mut PagerInner) {
        while inner.cache.len() > self.capacity {
            let Some((&victim, _)) = inner.cache.iter().min_by_key(|(_, entry)| entry.last_used)
            else {
                return;
            };
            // Eviction drops only the cache's Arc: a scan holding the
            // segment keeps it alive (that outstanding clone is the "pin").
            inner.cache.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fetch segment `idx`, from cache or disk. `sealed` bounds the
    /// sequential read-ahead (segments `>= sealed` do not exist yet).
    pub fn fetch(&self, idx: usize, sealed: usize) -> Result<Arc<Segment>, StorageError> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let sequential = inner.last_fetch.is_none_or(|prev| idx == prev + 1);
        inner.last_fetch = Some(idx);
        if let Some(entry) = inner.cache.get_mut(&idx) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.segment.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let segment = self.load(idx)?;
        inner.cache.insert(
            idx,
            CacheEntry {
                segment: segment.clone(),
                last_used: tick,
            },
        );
        self.enforce_capacity(&mut inner);
        // Sequential read-ahead: a clustered epoch fetches segments in
        // order, so the next one is overwhelmingly likely to be needed;
        // pull it in while the cache still has this access pattern hot.
        let next = idx + 1;
        if sequential && next < sealed && self.capacity > 1 && !inner.cache.contains_key(&next) {
            if let Ok(ahead) = self.load(next) {
                self.prefetches.fetch_add(1, Ordering::Relaxed);
                inner.cache.insert(
                    next,
                    CacheEntry {
                        segment: ahead,
                        last_used: tick,
                    },
                );
                self.enforce_capacity(&mut inner);
            }
        }
        Ok(segment)
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::frame;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bismarck-pager-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Double)]).unwrap()
    }

    fn segment(base: f64, rows: usize) -> Arc<Segment> {
        let mut seg = Segment::empty(&schema());
        for i in 0..rows {
            seg.push_row(&[Value::Double(base + i as f64)]).unwrap();
        }
        Arc::new(seg)
    }

    #[test]
    fn manifest_roundtrips() {
        let dir = temp_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest {
            name: "events".into(),
            schema: schema(),
            chunk_capacity: 512,
            row_count: 12_345,
            widths: Some(vec![7]),
        };
        manifest.write(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), manifest);
        // The widest vector a chunk can hold reads back; one wider is not a
        // width any write produced, and would size a model.
        for (width, readable) in [(1 << 32, true), ((1 << 32) + 1, false)] {
            let wide = Manifest {
                widths: Some(vec![width]),
                ..manifest.clone()
            };
            wide.write(&dir).unwrap();
            match Manifest::read(&dir) {
                Ok(read) => assert!(readable && read == wide),
                Err(e) => assert!(!readable && matches!(e, StorageError::Corrupt(_))),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A version-2 manifest (the frame around a payload without widths)
    /// still reads, with no widths. The version byte is outside the
    /// checksum, so a flip between 2 and 3 reaches this decoder, which then
    /// finds the widths missing or left over: corrupt either way.
    #[test]
    fn manifest_version_flip_is_detected() {
        let dir = temp_dir("manifest-versions");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let manifest = Manifest {
            name: "t".into(),
            schema: schema(),
            chunk_capacity: 4,
            row_count: 8,
            widths: Some(vec![3]),
        };
        manifest.write(&dir).unwrap();
        let v3 = std::fs::read(&path).unwrap();
        assert_eq!(v3[4], 3);
        // Header 13 bytes, then the payload, its last 8 bytes the one width.
        let mut v2 = frame(FileKind::Manifest, &v3[13..v3.len() - 16]);
        v2[4] = 2;
        std::fs::write(&path, &v2).unwrap();
        let legacy = Manifest {
            widths: None,
            ..manifest
        };
        assert_eq!(Manifest::read(&dir).unwrap(), legacy);
        for (mut bytes, flipped) in [(v3, 2), (v2, 3)] {
            bytes[4] = flipped;
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                Manifest::read(&dir),
                Err(StorageError::Corrupt(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_detected() {
        let dir = temp_dir("manifest-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = Manifest {
            name: "t".into(),
            schema: schema(),
            chunk_capacity: 4,
            row_count: 8,
            widths: Some(vec![0]),
        };
        manifest.write(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::read(&dir),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fetch_caches_evicts_and_prefetches() {
        let dir = temp_dir("fetch");
        let pager = Pager::create(&dir, 2).unwrap();
        for idx in 0..4 {
            pager
                .write_segment(idx, segment(idx as f64 * 100.0, 3))
                .unwrap();
        }
        // Writing 4 segments through a 2-slot cache already evicted some.
        assert!(pager.stats().evictions >= 2);

        // A sequential pass: every fetch of 0..4 either misses (and
        // prefetches the successor) or hits the prefetched entry.
        let pager = Pager::create(&dir, 2).unwrap();
        for idx in 0..4 {
            let seg = pager.fetch(idx, 4).unwrap();
            assert_eq!(seg.len(), 3);
        }
        let stats = pager.stats();
        assert!(stats.misses > 0);
        assert!(stats.prefetches > 0, "sequential scan should read ahead");
        assert!(stats.hits > 0, "read-ahead segments should be cache hits");
        assert!(stats.bytes_read > 0);

        // Pinning: hold a segment across evictions; it stays readable.
        let pinned = pager.fetch(0, 4).unwrap();
        for idx in 1..4 {
            pager.fetch(idx, 4).unwrap();
        }
        assert_eq!(pinned.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_is_detected() {
        let dir = temp_dir("seg-corrupt");
        let pager = Pager::create(&dir, 1).unwrap();
        pager.write_segment(0, segment(0.0, 5)).unwrap();
        let path = dir.join("seg-000000.col");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let pager = Pager::create(&dir, 1).unwrap();
        assert!(matches!(pager.fetch(0, 1), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
