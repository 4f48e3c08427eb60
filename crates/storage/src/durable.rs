//! The atomic write protocol, the whole-file frame, and the fault-injection
//! hooks under both.
//!
//! Everything the durability subsystem puts on disk — catalog snapshots,
//! training checkpoints, paged segments and manifests, WAL resets — goes
//! through one protocol:
//!
//! 1. write the full payload to `<path>.tmp` in the same directory,
//! 2. `fsync` the temp file so the *data* is durable,
//! 3. `rename` the temp file over `path` (atomic on POSIX filesystems),
//! 4. `fsync` the parent directory so the *rename* is durable.
//!
//! A crash at any point leaves either the previous complete file or the new
//! complete one under `path` — never a torn or half-renamed file. Step 4 is
//! the one naive implementations skip: without it, a power loss can undo the
//! rename even though the data bytes made it to the platter.
//!
//! Every byte and every syscall in this module is routed through the
//! `fault` hooks, so a test can fail, short-write, or "crash" the process at
//! any byte boundary and then prove that recovery restores a consistent
//! state. A hook is one thread-local read of an `Option` before the write,
//! fsync, create, rename or truncate it guards; reads have none.
//!
//! Every file replaced as a whole is one **frame** (`frame` / [`unframe`],
//! layout in `docs/disk-format.md`): magic, format version, payload length,
//! payload, `checksum64` of the payload. This module is the only place that
//! knows that layout, and the only place that still reads the layouts older
//! commits wrote. The WAL is a log, not a whole file: it keeps its own record
//! frame in [`crate::wal`].

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use crate::error::StorageError;

/// Fault-injection hooks for the durability layer.
///
/// The injector is a step counter of the thread that arms it: every *byte*
/// that thread writes through the durable layer consumes one fault point,
/// and every metadata operation it makes (create, sync, rename, truncate,
/// directory create or sync) consumes one more. [`fault::armed`] runs a
/// scenario with the injector armed at point `k`; when the counter reaches
/// `k`, the in-flight operation fails — short-writing its buffer if it was a
/// write — and, in [`fault::Mode::Crash`], every later operation fails too,
/// which is exactly what a process that died at that instant would have
/// done to the filesystem. Re-opening the database afterwards simulates the
/// post-crash restart.
///
/// Durable I/O on any other thread is neither counted nor failed, so tests
/// arm side by side without serialising, and a scenario must do its durable
/// I/O on the thread that arms.
pub mod fault {
    use std::cell::Cell;
    use std::io;

    /// What happens once the armed fault point is reached.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mode {
        /// The operation at the fault point fails and **every subsequent
        /// operation fails too** — the filesystem is frozen in the state a
        /// process crash would have left it in.
        Crash,
        /// The operation at the fault point fails once (short-writing if it
        /// was a write); later operations succeed. Models a transient I/O
        /// error the caller is expected to surface and survive.
        FailOnce,
    }

    /// What a scenario run under [`armed`] did to the injector.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Armed {
        /// Fault points the scenario consumed, the one that fired included.
        pub consumed: u64,
        /// Whether the fault fired.
        pub fired: bool,
    }

    #[derive(Clone, Copy)]
    struct Injector {
        mode: Mode,
        fault_at: u64,
        run: Armed,
    }

    thread_local! {
        /// `None` while this thread is not inside [`armed`].
        static INJECTOR: Cell<Option<Injector>> = const { Cell::new(None) };
    }

    /// Run `scenario` on this thread with the injector armed: the fault
    /// fires once `at_point` fault points have been consumed. Arming at
    /// `u64::MAX` never fires and is the idiom for *counting* how many fault
    /// points a scenario has. The injector is disarmed when `scenario`
    /// returns or unwinds.
    pub fn armed<R>(mode: Mode, at_point: u64, scenario: impl FnOnce() -> R) -> (R, Armed) {
        /// Puts back what the thread had before, on return and on unwind.
        struct Restore(Option<Injector>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INJECTOR.set(self.0);
            }
        }
        let _restore = Restore(INJECTOR.replace(Some(Injector {
            mode,
            fault_at: at_point,
            run: Armed {
                consumed: 0,
                fired: false,
            },
        })));
        let result = scenario();
        let run = INJECTOR.get().expect("armed for the whole scenario").run;
        (result, run)
    }

    pub(crate) fn injected() -> io::Error {
        io::Error::other("injected I/O fault")
    }

    /// Consume `points` fault points of this thread's scenario. `Err(prefix)`
    /// fails the operation after its first `prefix` points: the fault fires
    /// inside it, or a crash has already fired.
    fn consume(points: u64) -> Result<(), u64> {
        let Some(mut injector) = INJECTOR.get() else {
            return Ok(());
        };
        if injector.run.fired {
            // After the first failure: Crash keeps failing, FailOnce heals.
            return match injector.mode {
                Mode::Crash => Err(0),
                Mode::FailOnce => Ok(()),
            };
        }
        let start = injector.run.consumed;
        injector.run.consumed = start.saturating_add(points);
        let outcome = if injector.run.consumed <= injector.fault_at {
            Ok(())
        } else {
            injector.run.fired = true;
            Err(injector.fault_at - start)
        };
        INJECTOR.set(Some(injector));
        outcome
    }

    /// Consume one fault point for a metadata operation (create, sync,
    /// rename, truncate, directory create or sync).
    pub(crate) fn metadata_op() -> io::Result<()> {
        consume(1).map_err(|_| injected())
    }

    /// Consume one fault point per byte of a `len`-byte write. `Err(prefix)`
    /// when the fault lands inside the buffer: the caller must write exactly
    /// `prefix` bytes (the torn write) and then fail.
    pub(crate) fn admit_write(len: usize) -> Result<(), usize> {
        consume(len as u64).map_err(|prefix| prefix as usize)
    }
}

/// Write `buf` to `file`, honouring the fault injector's byte-granular
/// short-write decisions.
pub(crate) fn write_all(file: &mut File, buf: &[u8]) -> io::Result<()> {
    if let Err(prefix) = fault::admit_write(buf.len()) {
        // The torn write: the prefix reaches the file, the rest — and every
        // fsync that would have made it durable — does not.
        let _ = file.write_all(&buf[..prefix]);
        let _ = file.flush();
        return Err(fault::injected());
    }
    file.write_all(buf)
}

/// `fsync` a file's data and metadata.
pub(crate) fn sync_file(file: &File) -> io::Result<()> {
    fault::metadata_op()?;
    file.sync_all()
}

/// Create (truncating) a file for writing.
pub(crate) fn create_file(path: &Path) -> io::Result<File> {
    fault::metadata_op()?;
    File::create(path)
}

/// Open a file for appending without truncating it.
pub(crate) fn open_append(path: &Path) -> io::Result<File> {
    fault::metadata_op()?;
    OpenOptions::new().read(true).write(true).open(path)
}

/// Atomically rename `from` over `to`.
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    fault::metadata_op()?;
    fs::rename(from, to)
}

/// Truncate an open file to `len` bytes.
pub(crate) fn truncate_file(file: &File, len: u64) -> io::Result<()> {
    fault::metadata_op()?;
    file.set_len(len)
}

/// `fsync` a directory so a rename or create inside it is durable. On
/// platforms where directories cannot be opened for syncing this degrades to
/// a no-op, matching what portable databases do.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    fault::metadata_op()?;
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        // Windows cannot open directories this way; accept the weaker
        // guarantee there rather than failing every write.
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

/// Create the directory `path` (and any missing ancestors) durably: the new
/// entry is fsynced into its parent, so a power loss after this returns
/// cannot lose the directory and everything later renamed inside it. An
/// existing directory costs nothing.
pub(crate) fn create_dir(path: &Path) -> io::Result<()> {
    if path.is_dir() {
        return Ok(());
    }
    fault::metadata_op()?;
    fs::create_dir_all(path)?;
    match parent_dir(path) {
        Some(parent) => sync_dir(parent),
        None => Ok(()),
    }
}

/// Atomically and durably replace the file at `path` with `bytes`.
///
/// This is the four-step protocol described at module level: temp file →
/// fsync file → rename → fsync parent directory. After it returns, the new
/// contents survive a crash; if it errors (or the process dies inside it),
/// `path` still holds its previous complete contents — the temp file may be
/// left behind and is ignored/overwritten by the next write.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = create_file(&tmp)?;
        write_all(&mut file, bytes)?;
        sync_file(&file)?;
    }
    rename(&tmp, path)?;
    if let Some(parent) = parent_dir(path) {
        sync_dir(parent)?;
    }
    Ok(())
}

/// The directory that holds `path`, for fsyncing it or listing siblings.
/// `Path::parent` reports a bare relative file name (`model.ckpt`) as the
/// empty path, which no directory call accepts; that file lives in the
/// current directory, `.`. `None` only for a root or an empty path.
pub fn parent_dir(path: &Path) -> Option<&Path> {
    path.parent().map(|parent| {
        if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        }
    })
}

/// Read a whole file with one exact-size read, routed through the durable
/// layer for symmetry (reads are not fault points: recovery code must see
/// whatever is on disk). Every file read here is either replaced atomically
/// or owned by this process, so its length cannot change under the read.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| io::Error::other("file does not fit in memory"))?;
    let mut bytes = vec![0; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

const CHECKSUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const CHECKSUM_MUL: u64 = 0x9E37_79B1_85EB_CA87;
const CHECKSUM_FINAL_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One checksum step: absorb `word` into `state`. For a fixed `word` it is a
/// bijection of `state`, and for a fixed `state` a bijection of `word` (xor,
/// multiplication by an odd constant and rotation are each invertible).
#[inline(always)]
fn checksum_mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(CHECKSUM_MUL).rotate_left(31)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// 64-bit checksum of `bytes` at memory bandwidth: the checksum of every
/// [`frame`] (see `docs/disk-format.md`).
///
/// The input is read as little-endian 8-byte words. Whole 32-byte stripes
/// feed four independent lanes (word `i` of a stripe goes to lane `i`), so
/// four multiplies are in flight at once instead of FNV-1a's one byte per
/// dependent multiply. The lanes are then folded into one state, which
/// absorbs the remaining whole words, the last partial word (zero-padded)
/// and finally the input length, and is avalanched.
///
/// Guarantee (the one FNV-1a gave, kept): two inputs of equal length that
/// differ only inside one aligned 8-byte word never share a checksum — the
/// differing word enters through `checksum_mix`, and every later step is a
/// bijection of the state it entered. Inputs of different length differ in
/// the length word; the frame around the payload also checks the exact file
/// size, so truncation and extension are always detected.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = checksum_mix(*lane, le_word(word));
        }
    }
    let [first, rest @ ..] = lanes;
    let mut state = rest.into_iter().fold(first, checksum_mix);
    for word in stripes.remainder().chunks(8) {
        state = checksum_mix(state, le_word(word));
    }
    state = checksum_mix(state, bytes.len() as u64);
    state ^= state >> 29;
    state = state.wrapping_mul(CHECKSUM_FINAL_MUL);
    state ^ (state >> 32)
}

/// FNV-1a 64: the checksum of a WAL record, and of the whole-file layouts
/// written before [`checksum64`] (still read by [`unframe`], never written).
/// One byte per dependent multiply, so it runs far below memory bandwidth.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The file families written as one whole-file frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A segment of a paged columnar table (`seg-NNNNNN.col`).
    Segment,
    /// The manifest of a paged columnar table (`columnar.meta`).
    Manifest,
    /// A catalog snapshot (`catalog.snap`).
    Snapshot,
    /// A training checkpoint.
    Checkpoint,
}

/// Where a `(magic, version)` pair keeps its version, length and checksum.
struct Layout {
    /// Width of the version field after the magic: `u8`, or a `u32` whose
    /// upper three bytes are zero.
    version_bytes: usize,
    /// Whether a `u64` payload length follows the version.
    length_field: bool,
    checksum: fn(&[u8]) -> u64,
}

/// The layout written today, whatever the family.
const FRAME: Layout = Layout {
    version_bytes: 1,
    length_field: true,
    checksum: checksum64,
};

impl FileKind {
    /// The family's magic, the version [`frame`] writes, and its name in
    /// error messages.
    const fn header(self) -> ([u8; 4], u8, &'static str) {
        match self {
            FileKind::Segment => (*b"BSEG", 2, "columnar segment"),
            FileKind::Manifest => (*b"BCOL", 3, "columnar manifest"),
            FileKind::Snapshot => (*b"BSNP", 3, "snapshot"),
            FileKind::Checkpoint => (*b"BMCK", 2, "checkpoint"),
        }
    }

    /// The layout of `version` of this family; `None` for a version no
    /// commit wrote. Everything but [`FRAME`] is legacy and read-only.
    fn layout(self, version: u8) -> Option<Layout> {
        // A manifest's payload gained the column widths in version 3; its
        // version 2 is the same frame around the shorter payload.
        if version == self.header().1 || (self, version) == (FileKind::Manifest, 2) {
            return Some(FRAME);
        }
        let (version_bytes, length_field) = match (self, version) {
            // The frame, before `checksum64`.
            (FileKind::Segment | FileKind::Manifest, 1) => (1, true),
            // Version 1 predates the per-table layout byte; neither has a length.
            (FileKind::Snapshot, 1 | 2) => (4, false),
            (FileKind::Checkpoint, 1) => (4, true),
            _ => return None,
        };
        Some(Layout {
            version_bytes,
            length_field,
            checksum: fnv1a64,
        })
    }
}

/// Frame `payload` as a file of `kind`: magic, the family's current version
/// (`u8`), payload length (`u64`), payload, `checksum64` of the payload.
pub(crate) fn frame(kind: FileKind, payload: &[u8]) -> Vec<u8> {
    let (magic, version, _) = kind.header();
    let mut bytes = Vec::with_capacity(payload.len() + 4 + 1 + 8 + 8);
    bytes.extend_from_slice(&magic);
    bytes.push(version);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&checksum64(payload).to_le_bytes());
    bytes
}

/// Validate a file of `kind` — magic, version, exact length, then the
/// checksum of the whole payload — and return its version and payload. Any
/// mismatch is [`StorageError::Corrupt`]: these files are replaced
/// atomically, so no crash explains a partial one.
pub fn unframe(kind: FileKind, bytes: &[u8]) -> Result<(u8, &[u8]), StorageError> {
    let (magic, _, what) = kind.header();
    let corrupt = |msg: String| StorageError::Corrupt(format!("{what}: {msg}"));
    if bytes.len() < 5 || bytes[..4] != magic {
        return Err(corrupt("bad or missing header".into()));
    }
    let version = bytes[4];
    let Some(layout) = kind.layout(version) else {
        return Err(corrupt(format!("unsupported format version {version}")));
    };
    let length_at = 4 + layout.version_bytes;
    let payload_at = length_at + if layout.length_field { 8 } else { 0 };
    let Some(payload_len) = bytes.len().checked_sub(payload_at + 8) else {
        return Err(corrupt("file is shorter than its header".into()));
    };
    if bytes[5..length_at].iter().any(|&b| b != 0) {
        return Err(corrupt("unsupported format version".into()));
    }
    if layout.length_field {
        let len = u64::from_le_bytes(bytes[length_at..payload_at].try_into().expect("8B"));
        // The length field is unchecked input: compare without adding to it.
        if u64::try_from(payload_len) != Ok(len) {
            return Err(corrupt(format!(
                "payload length {len} does not match file size {}",
                bytes.len()
            )));
        }
    }
    let (payload, stored) = bytes[payload_at..].split_at(payload_len);
    if (layout.checksum)(payload) != u64::from_le_bytes(stored.try_into().expect("8B")) {
        return Err(corrupt("checksum mismatch".into()));
    }
    Ok((version, payload))
}

/// Frame `payload` and atomically, durably replace the file at `path` with
/// it (`atomic_write`). Returns the length of the file written.
pub fn write_framed(path: &Path, kind: FileKind, payload: &[u8]) -> Result<u64, StorageError> {
    let bytes = frame(kind, payload);
    atomic_write(path, &bytes)
        .map_err(|e| StorageError::Io(format!("write {}: {e}", path.display())))?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bismarck-durable-test-{}-{name}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = temp_dir("replace");
        let path = dir.join("file.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second, longer payload");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parent_dir_resolves_a_bare_file_name_to_the_current_directory() {
        for (path, parent) in [
            ("model.ckpt", Some(".")),
            ("./model.ckpt", Some(".")),
            ("dir/model.ckpt", Some("dir")),
            ("/model.ckpt", Some("/")),
            ("/", None),
            ("", None),
        ] {
            assert_eq!(parent_dir(Path::new(path)), parent.map(Path::new), "{path}");
        }
    }

    #[test]
    fn atomic_write_into_missing_directory_errors() {
        let path = std::env::temp_dir()
            .join("bismarck-definitely-missing-dir")
            .join("file.bin");
        assert!(atomic_write(&path, b"x").is_err());
    }

    #[test]
    fn temp_file_is_ignored_by_reads_of_the_target() {
        let dir = temp_dir("tmpfile");
        let path = dir.join("file.bin");
        atomic_write(&path, b"durable").unwrap();
        // A stale temp file (as a crash between steps 1 and 3 would leave)
        // does not affect the committed contents.
        fs::write(path.with_extension("tmp"), b"torn garbage").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"durable");
        atomic_write(&path, b"next").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"next");
        fs::remove_dir_all(&dir).ok();
    }

    /// Byte `i` of the test pattern is `31 * i + 7 (mod 256)`; the expected
    /// values were computed by an independent implementation of the
    /// definition in `docs/disk-format.md`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn checksum64_known_answers() {
        assert_eq!(checksum64(b""), 0x76D7_14F3_5337_2C9D);
        assert_eq!(checksum64(&[0]), 0xAA98_4B71_FF14_C09D);
        assert_eq!(checksum64(b"a"), 0xB0DD_642B_3B29_B541);
        assert_eq!(checksum64(&pattern(31)), 0x7DB4_5014_B869_58C0);
        assert_eq!(checksum64(&pattern(32)), 0x7FA1_5384_FD30_B06C);
        assert_eq!(checksum64(&pattern(33)), 0x0B80_468D_9217_F8EA);
        assert_eq!(checksum64(&pattern(1 << 20)), 0x34EF_EBF3_D1BB_90C9);
    }

    const KINDS: [FileKind; 4] = [
        FileKind::Segment,
        FileKind::Manifest,
        FileKind::Snapshot,
        FileKind::Checkpoint,
    ];

    #[test]
    fn frame_round_trips_through_a_file_and_names_its_version() {
        let dir = temp_dir("frame");
        let path = dir.join("framed.bin");
        for kind in KINDS {
            for payload in [&b""[..], b"payload", &pattern(1000)] {
                let len = write_framed(&path, kind, payload).unwrap();
                let bytes = read_file(&path).unwrap();
                assert_eq!(bytes.len() as u64, len);
                assert_eq!(bytes, frame(kind, payload));
                assert_eq!(unframe(kind, &bytes).unwrap(), (kind.header().1, payload));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_of_another_family_or_an_unknown_version_is_corrupt() {
        let bytes = frame(FileKind::Checkpoint, b"data");
        for kind in [FileKind::Segment, FileKind::Manifest, FileKind::Snapshot] {
            assert!(matches!(
                unframe(kind, &bytes),
                Err(StorageError::Corrupt(_))
            ));
        }
        for kind in KINDS {
            let mut bytes = frame(kind, b"data");
            bytes[4] = 99;
            let err = unframe(kind, &bytes).unwrap_err();
            assert!(err.to_string().contains("version 99"), "{err}");
        }
    }

    #[test]
    fn absurd_length_field_is_corruption_not_overflow() {
        let mut bytes = frame(FileKind::Segment, b"payload");
        bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            unframe(FileKind::Segment, &bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// Every way of damaging one byte of a frame, truncating it or extending
    /// it is reported as corruption: never accepted, never a panic. Masks
    /// `0x01` and `0x03` turn each family's version byte into another
    /// version that family reads (a legacy layout), which must then fail on
    /// its own terms. The one exception is a manifest's version 3 flipped to
    /// 2: both are this frame, and the version byte is outside the checksum,
    /// so `unframe` hands the payload on as version 2 — and the manifest
    /// decoder rejects it for the widths it then has left over
    /// (`pager.rs`'s `manifest_version_flip_is_detected`).
    #[test]
    fn every_byte_flip_truncation_and_extension_of_a_frame_is_detected() {
        for kind in KINDS {
            let clean = frame(kind, &pattern(45));
            let check = |damaged: &[u8], what: String| match unframe(kind, damaged) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("{kind:?}, {what}: expected Corrupt, got {other:?}"),
            };
            for at in 0..clean.len() {
                for mask in [0x01, 0x03, 0x80, 0xFF] {
                    let mut damaged = clean.clone();
                    damaged[at] ^= mask;
                    if kind == FileKind::Manifest && damaged[4] == 2 {
                        assert_eq!(unframe(kind, &damaged).unwrap(), (2, &pattern(45)[..]));
                        continue;
                    }
                    check(&damaged, format!("byte {at} ^ {mask:#04x}"));
                }
                check(&clean[..at], format!("truncated to {at} bytes"));
            }
            let mut extended = clean.clone();
            extended.push(0);
            check(&extended, "extended by one byte".into());
        }
    }

    /// A file in one of the layouts older commits wrote: `version` as a `u8`
    /// or a `u32`, an optional `u64` length, the payload, its FNV-1a.
    fn legacy(magic: &[u8; 4], version: &[u8], length_field: bool, payload: &[u8]) -> Vec<u8> {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(version);
        if length_field {
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes
    }

    #[test]
    fn legacy_layouts_are_still_read_and_still_checked() {
        let payload = pattern(45);
        let files = [
            (FileKind::Segment, 1, legacy(b"BSEG", &[1], true, &payload)),
            (FileKind::Manifest, 1, legacy(b"BCOL", &[1], true, &payload)),
            // The current frame around a manifest without its widths.
            (FileKind::Manifest, 2, {
                let mut v2 = frame(FileKind::Manifest, &payload);
                v2[4] = 2;
                v2
            }),
            (
                FileKind::Snapshot,
                1,
                legacy(b"BSNP", &[1, 0, 0, 0], false, &payload),
            ),
            (
                FileKind::Snapshot,
                2,
                legacy(b"BSNP", &[2, 0, 0, 0], false, &payload),
            ),
            (
                FileKind::Checkpoint,
                1,
                legacy(b"BMCK", &[1, 0, 0, 0], true, &payload),
            ),
        ];
        for (kind, version, clean) in files {
            assert_eq!(unframe(kind, &clean).unwrap(), (version, &payload[..]));
            for at in 0..clean.len() {
                let mut damaged = clean.clone();
                damaged[at] ^= 0x10;
                assert!(
                    matches!(unframe(kind, &damaged), Err(StorageError::Corrupt(_))),
                    "{kind:?} v{version}: byte {at}"
                );
                assert!(
                    unframe(kind, &clean[..at]).is_err(),
                    "{kind:?} v{version}: cut at {at}"
                );
            }
            let mut extended = clean.clone();
            extended.push(0);
            assert!(
                unframe(kind, &extended).is_err(),
                "{kind:?} v{version}: extended"
            );
        }
    }

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The guarantee the frame relies on: damage confined to one aligned
    /// 8-byte word (here: every single-bit flip and every whole-word rewrite
    /// in a buffer covering stripes, tail words and a partial last word)
    /// always changes the checksum, as does any change of length.
    #[test]
    fn checksum64_detects_any_single_word_damage_and_any_resize() {
        let clean = pattern(32 * 3 + 8 * 2 + 5);
        let expected = checksum64(&clean);
        for bit in 0..clean.len() * 8 {
            let mut damaged = clean.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&damaged), expected, "bit {bit}");
        }
        for start in (0..clean.len()).step_by(8) {
            let word = start..clean.len().min(start + 8);
            for fill in [0x00, 0xFF, 0x5A] {
                let mut damaged = clean.clone();
                damaged[word.clone()].fill(fill);
                if damaged != clean {
                    assert_ne!(checksum64(&damaged), expected, "word {word:?} = {fill:#x}");
                }
            }
        }
        for len in 0..clean.len() {
            assert_ne!(checksum64(&clean[..len]), expected, "truncated to {len}");
        }
        let mut extended = clean.clone();
        extended.push(0);
        assert_ne!(checksum64(&extended), expected, "zero-extended");
    }

    mod injector {
        use super::*;
        use crate::{Column, ColumnarTable, DataType, Database, Schema};
        use fault::Mode;

        /// Another thread's durable I/O is neither counted nor failed: it
        /// cannot use up, or trip, the fault point of the thread that armed.
        #[test]
        fn only_the_arming_thread_is_counted_and_failed() {
            let dir = temp_dir("fault-thread");
            let path = dir.join("file.bin");
            let (other, run) = fault::armed(Mode::Crash, 0, || {
                std::thread::scope(|s| s.spawn(|| atomic_write(&path, b"other")).join().unwrap())
            });
            other.unwrap();
            assert_eq!((run.consumed, run.fired), (0, false));
            let (own, run) = fault::armed(Mode::Crash, 0, || atomic_write(&path, b"own"));
            assert!(own.is_err());
            assert_eq!((run.consumed, run.fired), (1, true));
            assert_eq!(read_file(&path).unwrap(), b"other");
            fs::remove_dir_all(&dir).ok();
        }

        /// A scenario that panics (a failed assertion) leaves its thread
        /// disarmed, not crashed for whatever runs on it next.
        #[test]
        fn a_scenario_that_unwinds_disarms_its_thread() {
            let dir = temp_dir("fault-unwind");
            let unwound = std::panic::catch_unwind(|| {
                fault::armed::<()>(Mode::Crash, 0, || panic!("scenario failed"))
            });
            assert!(unwound.is_err());
            atomic_write(&dir.join("file.bin"), b"after").unwrap();
            fs::remove_dir_all(&dir).ok();
        }

        /// A directory the durable layer creates is a fault point before it
        /// exists, so a crash there leaves none; an existing one costs none.
        #[test]
        fn a_crash_before_a_fresh_directory_leaves_none() {
            let root = temp_dir("fault-create-dir");
            let schema = Schema::new(vec![Column::new("id", DataType::Int)]).unwrap();
            let paged = root.join("paged");
            let (created, _) = fault::armed(Mode::Crash, 0, || {
                ColumnarTable::create_paged("p", schema, &paged, 4, 1)
            });
            assert!(created.is_err() && !paged.exists());
            let catalog = root.join("catalog");
            let (opened, _) = fault::armed(Mode::Crash, 0, || Database::open(&catalog));
            assert!(opened.is_err() && !catalog.exists());
            let (existing, run) = fault::armed(Mode::Crash, 0, || create_dir(&root));
            existing.unwrap();
            assert!(!run.fired);
            fs::remove_dir_all(&root).ok();
        }
    }
}
