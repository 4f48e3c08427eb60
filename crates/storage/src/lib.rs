//! A minimal in-process RDBMS substrate for the Bismarck reproduction.
//!
//! The paper implements Bismarck on top of PostgreSQL and two commercial
//! engines, relying on only three engine facilities:
//!
//! 1. **tuple-at-a-time scans** of a stored table, in whatever order the data
//!    happens to be clustered on disk (plus `ORDER BY RANDOM()` to shuffle);
//! 2. **user-defined aggregates** — `initialize` / `transition` / `terminate`
//!    and, for shared-nothing parallelism, `merge`;
//! 3. optional **shared memory** managed in user space so a model can be
//!    updated concurrently by several workers.
//!
//! This crate provides exactly those facilities as a library: one catalog of
//! stored tables (row-store or columnar — layout is a property of a table,
//! see [`StoredTable`]), scan iterators honouring storage order or a random
//! permutation, table segmentation for shared-nothing execution, reservoir
//! sampling, a strawman NULL aggregate used to measure framework overhead,
//! and an atomically-updatable shared model region.
//!
//! It is intentionally *not* a SQL engine: Bismarck's contribution is the
//! analytics architecture above these facilities, so we keep the substrate
//! small, deterministic and easy to test.
//!
//! Since PR 8 the catalog can also be **durable**: [`Database::open`] binds
//! it to a directory where every mutation is write-ahead logged
//! ([`wal`]) and periodically compacted into an atomic snapshot, so tables —
//! including persisted model tables — survive process restarts. [`durable`]
//! holds the temp-file → fsync → rename → fsync-dir protocol and the one
//! frame (magic, version, length, payload, checksum) that every file replaced
//! as a whole — snapshot, paged segment and manifest, training checkpoint —
//! is written in.

#![warn(missing_docs)]

pub mod catalog;
pub mod chunk;
mod codec;
pub mod columnar;
pub mod csv;
pub mod durable;
pub mod error;
pub mod null_agg;
mod pager;
pub mod reservoir;
pub mod scan;
pub mod schema;
pub mod shared;
mod snapshot;
pub mod stored;
pub mod table;
pub mod tuple;
pub mod value;
pub mod wal;

pub use crate::catalog::{Database, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};
pub use crate::chunk::{ColumnChunk, ValidityBitmap};
pub use crate::codec::Reader;
pub use crate::columnar::{ColumnarTable, Segment, DEFAULT_CHUNK_CAPACITY};
pub use crate::error::StorageError;
pub use crate::null_agg::NullAggregate;
pub use crate::pager::PagerStats;
pub use crate::reservoir::ReservoirSampler;
pub use crate::scan::{
    segment_ranges, ExampleRows, FeatureRows, RowBlock, RowRef, ScanOrder, TupleScan,
};
pub use crate::schema::{Column, DataType, Schema};
pub use crate::shared::SharedModel;
pub use crate::stored::StoredTable;
pub use crate::table::Table;
pub use crate::tuple::Tuple;
pub use crate::value::Value;

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
