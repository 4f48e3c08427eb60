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
//! Reads go through a small **pinned-segment cache**: fetching returns an
//! `Arc<Segment>`, so a segment a scan is mid-way through stays alive
//! (pinned by the outstanding `Arc`) even if the cache evicts it — eviction
//! only drops the cache's own reference. A miss is one load: one exact-size
//! read, one [`crate::durable::checksum64`] pass over the whole payload, and
//! a bulk copy of each column array, made after the victim is evicted, so
//! the cache never holds more than its capacity. A sequential fetch
//! (`idx == previous + 1`, the access shape of every clustered epoch scan)
//! evicts the most recently loaded segment: a cyclic walk over a table
//! larger than the cache then keeps its first `capacity - 1` segments
//! resident for the next pass, where LRU would evict each one just before
//! it is needed. Any other fetch evicts the least recently used segment.

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
pub(crate) const MANIFEST_FILE: &str = "columnar.meta";

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
    pub(crate) fn write(&self, dir: &Path) -> Result<(), StorageError> {
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
    pub(crate) fn read(dir: &Path) -> Result<Self, StorageError> {
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
    /// Always 0 since sequential read-ahead was removed: every load is a
    /// miss. Kept for the readers of the field.
    pub prefetches: u64,
    /// Total bytes read from segment files.
    pub bytes_read: u64,
}

struct CacheEntry {
    segment: Arc<Segment>,
    /// Tick of the last fetch or write that touched it.
    last_used: u64,
    /// Tick at which it entered the cache.
    loaded: u64,
}

struct PagerInner {
    cache: HashMap<usize, CacheEntry>,
    tick: u64,
    last_fetch: Option<usize>,
}

/// Segment file store with a pinned-segment cache that evicts the most
/// recently loaded segment on sequential fetches and the least recently
/// used one otherwise.
#[derive(Debug)]
pub(crate) struct Pager {
    dir: PathBuf,
    capacity: usize,
    inner: Mutex<PagerInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
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
    pub(crate) fn create(dir: &Path, capacity: usize) -> Result<Self, StorageError> {
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
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The table directory this pager serves.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Maximum number of segments held in memory.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    fn seg_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:06}.col"))
    }

    /// Durably write the file of segment `idx` without caching it: all that
    /// `flush` needs for the still-open tail, which no fetch asks for until
    /// it seals.
    pub(crate) fn write_file(&self, idx: usize, segment: &Segment) -> Result<(), StorageError> {
        let mut payload = Vec::new();
        segment.encode(&mut payload);
        write_framed(&self.seg_path(idx), FileKind::Segment, &payload).map(|_| ())
    }

    /// Durably write sealed segment `idx` and (re)cache it.
    pub(crate) fn write_segment(
        &self,
        idx: usize,
        segment: Arc<Segment>,
    ) -> Result<(), StorageError> {
        self.write_file(idx, &segment)?;
        let mut inner = self.lock();
        inner.cache.remove(&idx);
        self.make_room(&mut inner, false);
        self.insert(&mut inner, idx, segment);
        Ok(())
    }

    /// Read segment `idx` from its file; a damaged file is an error that
    /// names it, as an unreadable one is.
    fn load(&self, idx: usize) -> Result<Arc<Segment>, StorageError> {
        let path = self.seg_path(idx);
        let bytes = read_file(&path).map_err(|e| io_err(&path, e))?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let decoded = unframe(FileKind::Segment, &bytes).and_then(|(_, payload)| {
            let mut r = Reader::new(payload);
            let segment = Segment::decode(&mut r)?;
            r.finish()?;
            Ok(segment)
        });
        decoded.map(Arc::new).map_err(|e| match e {
            StorageError::Corrupt(msg) => corrupt(format!("{}: {msg}", path.display())),
            other => other,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PagerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Evict until one more segment fits: the most recently loaded one
    /// when `sequential`, else the least recently used.
    fn make_room(&self, inner: &mut PagerInner, sequential: bool) {
        while inner.cache.len() >= self.capacity {
            let entries = inner.cache.iter();
            let victim = if sequential {
                entries.max_by_key(|(_, entry)| entry.loaded)
            } else {
                entries.min_by_key(|(_, entry)| entry.last_used)
            };
            let Some((&victim, _)) = victim else {
                return;
            };
            // Eviction drops only the cache's Arc: a scan holding the
            // segment keeps it alive (that outstanding clone is the "pin").
            inner.cache.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn insert(&self, inner: &mut PagerInner, idx: usize, segment: Arc<Segment>) {
        inner.tick += 1;
        let tick = inner.tick;
        inner.cache.insert(
            idx,
            CacheEntry {
                segment,
                last_used: tick,
                loaded: tick,
            },
        );
    }

    /// Fetch segment `idx`, from cache or disk.
    pub(crate) fn fetch(&self, idx: usize) -> Result<Arc<Segment>, StorageError> {
        let mut inner = self.lock();
        let sequential = inner.last_fetch.is_none_or(|prev| idx == prev + 1);
        inner.last_fetch = Some(idx);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.cache.get_mut(&idx) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry.segment.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.make_room(&mut inner, sequential);
        let segment = self.load(idx)?;
        self.insert(&mut inner, idx, segment.clone());
        Ok(segment)
    }

    /// Snapshot the cumulative counters.
    pub(crate) fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefetches: 0,
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

    /// Write segments `0..count` of three rows each into `dir` and return a
    /// fresh pager over them, its cache empty.
    fn pager_over(dir: &Path, count: usize, capacity: usize) -> Pager {
        let writer = Pager::create(dir, capacity).unwrap();
        for idx in 0..count {
            writer
                .write_segment(idx, segment(idx as f64 * 100.0, 3))
                .unwrap();
        }
        Pager::create(dir, capacity).unwrap()
    }

    fn cached(pager: &Pager) -> Vec<usize> {
        let mut cached: Vec<usize> = pager.lock().cache.keys().copied().collect();
        cached.sort_unstable();
        cached
    }

    /// Two clustered passes over 8 segments through a 3-segment cache: the
    /// second keeps the first two segments resident and loads only the
    /// other six, one load per miss.
    #[test]
    fn clustered_passes_keep_the_head_of_the_table() {
        let dir = temp_dir("clustered");
        let pager = pager_over(&dir, 8, 3);
        let file_len = std::fs::metadata(pager.seg_path(0)).unwrap().len();
        let pass = |pager: &Pager| {
            let before = pager.stats();
            for idx in 0..8 {
                assert_eq!(pager.fetch(idx).unwrap().len(), 3);
                assert!(pager.lock().cache.len() <= pager.capacity());
            }
            let after = pager.stats();
            (
                after.misses - before.misses,
                after.hits - before.hits,
                after.bytes_read - before.bytes_read,
            )
        };
        assert_eq!(pass(&pager), (8, 0, 8 * file_len));
        assert_eq!(cached(&pager), vec![0, 1, 7]);
        assert_eq!(pass(&pager), (6, 2, 6 * file_len));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fetch that does not follow its predecessor evicts the least
    /// recently used segment, and a segment held across evictions stays
    /// readable.
    #[test]
    fn scattered_fetches_evict_lru_and_pins_survive() {
        let dir = temp_dir("scattered");
        let pager = pager_over(&dir, 8, 3);
        let pinned = pager.fetch(0).unwrap();
        pager.fetch(2).unwrap();
        pager.fetch(4).unwrap();
        pager.fetch(0).unwrap();
        assert_eq!(pager.stats().hits, 1);
        pager.fetch(6).unwrap();
        assert_eq!(cached(&pager), vec![0, 4, 6], "2 was least recently used");
        for idx in [1, 3, 5, 7] {
            pager.fetch(idx).unwrap();
            assert!(pager.lock().cache.len() <= pager.capacity());
        }
        assert!(!cached(&pager).contains(&0));
        assert_eq!(*pinned, *segment(0.0, 3));
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
        match pager.fetch(0) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("seg-000000.col"), "{msg}"),
            other => panic!("expected a corrupt segment, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
