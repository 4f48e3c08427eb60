//! Paged row-store tables.
//!
//! Data is stored in fixed-capacity pages in *insertion order*; that order is
//! the "clustered order" the paper warns about (e.g. all positive examples
//! before all negative ones). Scans either follow storage order or follow an
//! explicit row permutation produced by [`crate::scan::ScanOrder`], which is
//! our stand-in for `ORDER BY RANDOM()`.

use crate::error::StorageError;
use crate::scan::{widen, RowBlock, TupleScan};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Number of tuples per page. Small enough that multi-page behaviour is
/// exercised by unit tests, large enough to amortize the per-page overhead.
pub(crate) const PAGE_CAPACITY: usize = 256;

/// A page holding up to [`PAGE_CAPACITY`] tuples.
#[derive(Debug, Clone, Default)]
struct Page {
    tuples: Vec<Tuple>,
}

impl Page {
    fn with_capacity() -> Self {
        Page {
            tuples: Vec::with_capacity(PAGE_CAPACITY),
        }
    }

    fn is_full(&self) -> bool {
        self.tuples.len() >= PAGE_CAPACITY
    }
}

/// A heap table: a schema plus pages of tuples in insertion order.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    pages: Vec<Page>,
    row_count: usize,
    /// [`TupleScan::vector_width`] of each column.
    widths: Vec<usize>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            widths: vec![0; schema.arity()],
            schema,
            pages: Vec::new(),
            row_count: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_count
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Validate and append a row, returning its row id (position in storage
    /// order).
    pub fn insert(&mut self, values: Vec<Value>) -> Result<usize, StorageError> {
        self.schema.validate(&values)?;
        widen(&mut self.widths, &values);
        if self.pages.last().is_none_or(Page::is_full) {
            self.pages.push(Page::with_capacity());
        }
        self.pages
            .last_mut()
            .expect("a page was just ensured")
            .tuples
            .push(Tuple::new(values));
        let id = self.row_count;
        self.row_count += 1;
        Ok(id)
    }

    /// Append a batch of rows; stops at the first invalid row.
    pub fn insert_all(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize, StorageError> {
        let mut inserted = 0;
        for row in rows {
            self.insert(row)?;
            inserted += 1;
        }
        Ok(inserted)
    }

    /// Fetch the tuple at `row` (storage order).
    pub fn get(&self, row: usize) -> Result<&Tuple, StorageError> {
        if row >= self.row_count {
            return Err(StorageError::RowOutOfRange {
                row,
                len: self.row_count,
            });
        }
        let page = row / PAGE_CAPACITY;
        let slot = row % PAGE_CAPACITY;
        Ok(&self.pages[page].tuples[slot])
    }

    /// Iterate over tuples in storage (clustered) order.
    pub fn scan(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.pages.iter().flat_map(|p| p.tuples.iter())
    }

    /// Iterate over tuples following an explicit row permutation. Invalid
    /// row ids are skipped, so a stale permutation degrades gracefully.
    pub fn scan_permuted<'a>(&'a self, order: &'a [usize]) -> impl Iterator<Item = &'a Tuple> + 'a {
        order.iter().filter_map(move |&row| self.get(row).ok())
    }

    /// Total approximate size of the stored tuples in bytes (Table 1 stats).
    pub fn approx_bytes(&self) -> usize {
        self.scan().map(Tuple::approx_bytes).sum()
    }
}

impl TupleScan for Table {
    fn tuple_count(&self) -> usize {
        self.row_count
    }

    fn vector_width(&self, col: usize) -> usize {
        self.widths.get(col).copied().unwrap_or(0)
    }

    /// One block per page: every page but the last is full, so row `r` is
    /// slot `r % PAGE_CAPACITY` of page `r / PAGE_CAPACITY`.
    fn scan_blocks(&self, start: usize, end: usize, f: &mut dyn FnMut(RowBlock<'_>) -> bool) {
        let end = end.min(self.row_count);
        let mut row = start.min(end);
        while row < end {
            let page = &self.pages[row / PAGE_CAPACITY].tuples;
            let slot = row % PAGE_CAPACITY;
            let run = &page[slot..page.len().min(slot + (end - row))];
            if !f(RowBlock::Tuples(run)) {
                return;
            }
            row += run.len();
        }
    }

    fn scan_tuples_permuted(&self, order: &[usize], f: &mut dyn FnMut(&Tuple)) {
        for tuple in self.scan_permuted(order) {
            f(tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        Table::new("t", schema)
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        let id0 = t.insert(vec![Value::Int(0), Value::Double(1.0)]).unwrap();
        let id1 = t.insert(vec![Value::Int(1), Value::Double(-1.0)]).unwrap();
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1).unwrap().get_double(1), Some(-1.0));
        assert!(matches!(t.get(2), Err(StorageError::RowOutOfRange { .. })));
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(0)]).is_err());
        assert!(t
            .insert(vec![Value::from("x"), Value::Double(0.0)])
            .is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn pages_roll_over() {
        let mut t = table();
        let n = PAGE_CAPACITY * 2 + 10;
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Double(i as f64)])
                .unwrap();
        }
        assert_eq!(t.len(), n);
        // Storage order is insertion order across pages.
        let ids: Vec<i64> = t.scan().map(|tup| tup.get_int(0).unwrap()).collect();
        assert_eq!(ids.len(), n);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(
            t.get(PAGE_CAPACITY).unwrap().get_int(0),
            Some(PAGE_CAPACITY as i64)
        );
    }

    #[test]
    fn scan_permuted_follows_order_and_skips_invalid() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Double(0.0)]).unwrap();
        }
        let order = vec![4, 2, 0, 99];
        let ids: Vec<i64> = t
            .scan_permuted(&order)
            .map(|tup| tup.get_int(0).unwrap())
            .collect();
        assert_eq!(ids, vec![4, 2, 0]);
    }

    #[test]
    fn insert_all_counts() {
        let mut t = table();
        let rows = (0..4).map(|i| vec![Value::Int(i), Value::Double(0.0)]);
        assert_eq!(t.insert_all(rows).unwrap(), 4);
    }
}
