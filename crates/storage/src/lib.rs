//! A minimal in-process RDBMS substrate for the Bismarck reproduction.
//!
//! The paper implements Bismarck on top of PostgreSQL and two commercial
//! engines, and asks very little of them: **scans** of a stored table, in
//! whatever order the data happens to be clustered on disk (plus `ORDER BY
//! RANDOM()` to shuffle), and **user-defined aggregates** run over those
//! scans, segment by segment for shared-nothing parallelism.
//!
//! This crate offers exactly the storage side of that: one catalog of stored
//! tables (row-store or columnar — layout is a property of a table, see
//! [`StoredTable`]), scans honouring storage order or a random permutation,
//! table segmentation for shared-nothing execution, a strawman NULL
//! aggregate that measures framework overhead, and durable storage. The
//! aggregates themselves are `bismarck-uda`'s. The shared memory a model is
//! updated in concurrently (Section 3.3) and the reservoir of multiplexed
//! reservoir sampling (Section 3.4) are user-space mechanisms of Bismarck,
//! not of the engine, so they live in `bismarck-core`.
//!
//! It is intentionally *not* a SQL engine: Bismarck's contribution is the
//! analytics architecture above these facilities, so we keep the substrate
//! small, deterministic and easy to test.
//!
//! The catalog can be **durable**: [`Database::open`] binds it to a
//! directory where every mutation is write-ahead logged ([`wal`]) and
//! periodically compacted into an atomic snapshot, so tables — including
//! persisted model tables — survive process restarts. [`durable`] holds the
//! temp-file → fsync → rename → fsync-dir protocol and the one frame (magic,
//! version, length, payload, checksum) that every file replaced as a whole —
//! snapshot, paged segment and manifest, training checkpoint — is written
//! in.
//!
//! A module is public only where another crate names a path through it
//! (`csv`, `durable`, `scan`, `wal`); everything else is reached through the
//! root re-exports.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod catalog;
mod chunk;
mod codec;
mod columnar;
pub mod csv;
pub mod durable;
mod error;
mod null_agg;
mod pager;
pub mod scan;
mod schema;
mod snapshot;
mod stored;
mod table;
mod tuple;
mod value;
pub mod wal;

pub use crate::catalog::{Database, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};
pub use crate::chunk::{ColumnChunk, ValidityBitmap};
pub use crate::codec::Reader;
pub use crate::columnar::ColumnarTable;
pub use crate::error::StorageError;
pub use crate::null_agg::NullAggregate;
pub use crate::pager::PagerStats;
pub use crate::scan::{segment_ranges, ExampleRows, RowBlock, RowRef, ScanOrder, TupleScan};
pub use crate::schema::{Column, DataType, Schema};
pub use crate::stored::StoredTable;
pub use crate::table::Table;
pub use crate::tuple::Tuple;
pub use crate::value::Value;
