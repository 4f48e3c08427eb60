//! The one table type the catalog stores.
//!
//! Physical layout is a *property* of a stored table, not a second kind of
//! table: [`StoredTable`] wraps the row-store [`Table`] and the chunked
//! [`ColumnarTable`] behind the handful of operations both share, and
//! implements [`TupleScan`], so the catalog, the SQL executor and the
//! analytics front end are written once against it.
//!
//! This module also owns the binary encoding the WAL and the snapshot use
//! for a whole table. An in-memory table is stored by value (layout, chunk
//! capacity, schema, rows); a **paged** columnar table is stored *by
//! reference* (name, directory, cache size) because its segment files are
//! already its durability.

use std::path::Path;

use crate::codec::{push_row, push_schema, push_string, read_row, read_schema, Reader};
use crate::columnar::ColumnarTable;
use crate::error::StorageError;
use crate::scan::{RowBlock, TupleScan};
use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;

/// Layout byte of a row-store table — also what a pre-layout (snapshot
/// version 1, WAL tags 1 and 4) record implies.
pub(crate) const KIND_ROW: u8 = 0;
const KIND_COLUMNAR: u8 = 1;
const KIND_PAGED: u8 = 2;

/// A table as the catalog holds it: one logical table in one of the physical
/// layouts.
#[derive(Debug)]
pub enum StoredTable {
    /// Heap pages of tuples in insertion order.
    Row(Table),
    /// Per-column chunks, in memory or paged from disk.
    Columnar(ColumnarTable),
}

impl From<Table> for StoredTable {
    fn from(table: Table) -> Self {
        StoredTable::Row(table)
    }
}

impl From<ColumnarTable> for StoredTable {
    fn from(table: ColumnarTable) -> Self {
        StoredTable::Columnar(table)
    }
}

impl StoredTable {
    /// Table name.
    pub fn name(&self) -> &str {
        match self {
            StoredTable::Row(t) => t.name(),
            StoredTable::Columnar(t) => t.name(),
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        match self {
            StoredTable::Row(t) => t.schema(),
            StoredTable::Columnar(t) => t.schema(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tuple_count()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve a column name to its ordinal position.
    pub fn column_index(&self, name: &str) -> Result<usize, StorageError> {
        self.schema().index_of(name)
    }

    /// Append a batch of rows; stops at the first invalid row.
    pub fn insert_all(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize, StorageError> {
        match self {
            StoredTable::Row(t) => t.insert_all(rows),
            StoredTable::Columnar(t) => t.insert_all(rows),
        }
    }

    /// The physical table behind the shared scan surface.
    fn layout(&self) -> &dyn TupleScan {
        match self {
            StoredTable::Row(t) => t,
            StoredTable::Columnar(t) => t,
        }
    }

    /// The row-store table, if that is the layout.
    pub fn as_row(&self) -> Option<&Table> {
        match self {
            StoredTable::Row(t) => Some(t),
            StoredTable::Columnar(_) => None,
        }
    }

    /// The columnar table, if that is the layout.
    pub fn as_columnar(&self) -> Option<&ColumnarTable> {
        match self {
            StoredTable::Row(_) => None,
            StoredTable::Columnar(t) => Some(t),
        }
    }

    /// `(directory, cache size in segments)` of a paged table; `None` for a
    /// table whose rows live in memory.
    pub(crate) fn paged_location(&self) -> Option<(&Path, usize)> {
        self.as_columnar().and_then(ColumnarTable::paged_location)
    }

    /// Write a paged table's partial tail segment and manifest to its
    /// directory; a no-op for in-memory tables.
    pub(crate) fn flush(&mut self) -> Result<(), StorageError> {
        match self {
            StoredTable::Row(_) => Ok(()),
            StoredTable::Columnar(t) => t.flush(),
        }
    }

    /// An empty table with this table's name, schema, layout and chunk
    /// capacity — the target of a physical rewrite (`SHUFFLE` / `CLUSTER
    /// TABLE`), filled with [`StoredTable::insert_all`] and registered over
    /// the original. A paged table is refused: its segments are immutable on
    /// disk, and trainers shuffle it through scan permutations instead.
    pub fn empty_like(&self) -> Result<StoredTable, StorageError> {
        let (name, schema) = (self.name(), self.schema().clone());
        match self {
            StoredTable::Row(_) => Ok(Table::new(name, schema).into()),
            StoredTable::Columnar(t) if t.paged_location().is_none() => {
                Ok(ColumnarTable::with_chunk_capacity(name, schema, t.chunk_capacity()).into())
            }
            StoredTable::Columnar(_) => Err(StorageError::Unsupported(format!(
                "cannot physically rewrite paged columnar table '{name}'; \
                 trainers shuffle it via scan permutations instead"
            ))),
        }
    }

    /// Append the table's durable encoding: a layout byte, then the table by
    /// value (in memory) or by reference (paged).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) -> Result<(), StorageError> {
        if let Some((dir, cache_segments)) = self.paged_location() {
            let dir = dir.to_str().ok_or_else(|| {
                StorageError::Io(format!(
                    "paged table directory {} is not UTF-8 and cannot be logged",
                    dir.display()
                ))
            })?;
            out.push(KIND_PAGED);
            push_string(out, self.name());
            push_string(out, dir);
            out.extend_from_slice(&(cache_segments as u64).to_le_bytes());
            return Ok(());
        }
        match self {
            StoredTable::Row(_) => out.push(KIND_ROW),
            StoredTable::Columnar(t) => {
                out.push(KIND_COLUMNAR);
                out.extend_from_slice(&(t.chunk_capacity() as u64).to_le_bytes());
            }
        }
        push_string(out, self.name());
        push_schema(out, self.schema());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        self.scan_tuples(&mut |tuple| push_row(out, tuple.values()));
        Ok(())
    }

    /// Decode a table of layout `kind` (inverse of [`StoredTable::encode`]
    /// after its layout byte).
    pub(crate) fn decode(r: &mut Reader<'_>, kind: u8) -> Result<Decoded, StorageError> {
        let corrupt = |msg: String| StorageError::Corrupt(msg);
        let mut table: StoredTable = match kind {
            KIND_ROW => Table::new(r.string()?, read_schema(r)?).into(),
            KIND_COLUMNAR => {
                let chunk_capacity = r.u64()? as usize;
                ColumnarTable::with_chunk_capacity(r.string()?, read_schema(r)?, chunk_capacity)
                    .into()
            }
            KIND_PAGED => {
                return Ok(Decoded::PagedRef {
                    name: r.string()?,
                    dir: r.string()?,
                    cache_segments: r.u64()? as usize,
                })
            }
            other => return Err(corrupt(format!("unknown table layout byte {other}"))),
        };
        let count = r.len_prefix(1)?;
        for _ in 0..count {
            let row = read_row(r)?;
            table.insert_all([row]).map_err(|e| {
                corrupt(format!(
                    "stored row violates schema of '{}': {e}",
                    table.name()
                ))
            })?;
        }
        Ok(Decoded::Resident(table))
    }
}

/// A decoded table: resident, or a reference to a paged table's directory
/// that has not been opened yet. Recovery keeps references unopened until
/// the whole log is replayed, so a paged table that was later dropped or
/// replaced never needs its directory to still exist.
// Boxing the resident table, as the lint asks, is one more small allocation
// per decoded table, made after its rows: it moved `durable_ingest_reopen`'s
// peak RSS by up to +7 MB (heap placement), unboxed it reads as before.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Decoded {
    /// Rows decoded into memory.
    Resident(StoredTable),
    /// A paged table's name, directory and cache size.
    PagedRef {
        name: String,
        dir: String,
        cache_segments: usize,
    },
}

impl Decoded {
    pub(crate) fn name(&self) -> &str {
        match self {
            Decoded::Resident(table) => table.name(),
            Decoded::PagedRef { name, .. } => name,
        }
    }

    /// The table itself, re-opening a paged reference's directory.
    pub(crate) fn open(self) -> Result<StoredTable, StorageError> {
        match self {
            Decoded::Resident(table) => Ok(table),
            Decoded::PagedRef {
                name,
                dir,
                cache_segments,
            } => {
                let table = ColumnarTable::open_paged(Path::new(&dir), cache_segments)?;
                if table.name() != name {
                    return Err(StorageError::Corrupt(format!(
                        "paged table directory {dir} holds '{}', the catalog expects '{name}'",
                        table.name()
                    )));
                }
                Ok(table.into())
            }
        }
    }
}

impl TupleScan for StoredTable {
    fn tuple_count(&self) -> usize {
        self.layout().tuple_count()
    }

    fn vector_width(&self, col: usize) -> usize {
        self.layout().vector_width(col)
    }

    fn scan_blocks(&self, start: usize, end: usize, f: &mut dyn FnMut(RowBlock<'_>) -> bool) {
        self.layout().scan_blocks(start, end, f)
    }

    fn scan_tuples_permuted(&self, order: &[usize], f: &mut dyn FnMut(&Tuple)) {
        self.layout().scan_tuples_permuted(order, f)
    }
}
