//! The strawman "NULL aggregate" of Section 4.1.
//!
//! To measure the runtime overhead that Bismarck's gradient computation adds
//! on top of the engine's own scan + aggregation machinery, the paper
//! compares every task against an aggregate that "sees the same data, but
//! computes no values". Tables 2 and 3 report task runtime relative to this
//! NULL aggregate. We reproduce it as an aggregate that touches each tuple
//! (forcing the scan and accessor work) but performs no model arithmetic.

use crate::scan::TupleScan;
use crate::tuple::Tuple;

/// A no-op aggregate used as the overhead baseline.
#[derive(Debug, Default, Clone)]
pub struct NullAggregate {
    tuples_seen: usize,
    bytes_seen: usize,
}

impl NullAggregate {
    /// Fresh aggregate state.
    pub(crate) fn new() -> Self {
        NullAggregate::default()
    }

    /// Transition: observe one tuple without computing anything.
    ///
    /// "Sees the same data" means the engine still pays the per-tuple cost of
    /// materializing the aggregate's arguments even though it ignores them.
    /// We model that by touching every column value through the same
    /// zero-copy accessors the real tasks use — borrowing array payloads,
    /// not cloning them, exactly like the kernel-based gradient path — and
    /// discarding the result. Without this, the baseline would measure a
    /// bare pointer walk and wildly overstate the relative cost of the
    /// gradient arithmetic.
    #[inline]
    pub(crate) fn transition(&mut self, tuple: &Tuple) {
        self.tuples_seen += 1;
        let mut bytes = 0usize;
        for value in tuple.values() {
            if let Some(fv) = value.feature_view() {
                bytes += fv.nnz() * 8;
            } else {
                bytes += value.approx_bytes();
            }
        }
        self.bytes_seen += bytes;
    }

    /// Terminate: report how many tuples were seen.
    pub(crate) fn terminate(&self) -> usize {
        self.tuples_seen
    }

    /// Run one full pass over a tuple source (row-store or columnar) and
    /// return the tuple count. This is the "single-iteration runtime of the
    /// NULL aggregate" measured in Tables 2 and 3.
    pub fn run_epoch<S: TupleScan + ?Sized>(data: &S) -> usize {
        let mut agg = NullAggregate::new();
        data.scan_tuples(&mut |tuple| agg.transition(tuple));
        agg.terminate()
    }

    /// Run one pass following an explicit row permutation.
    pub fn run_epoch_permuted<S: TupleScan + ?Sized>(data: &S, order: &[usize]) -> usize {
        let mut agg = NullAggregate::new();
        data.scan_tuples_permuted(order, &mut |tuple| agg.transition(tuple));
        agg.terminate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use crate::table::Table;
    use crate::value::Value;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Double(1.0)])
                .unwrap();
        }
        t
    }

    #[test]
    fn counts_all_tuples() {
        let t = table(300);
        assert_eq!(NullAggregate::run_epoch(&t), 300);
    }

    #[test]
    fn permuted_epoch_sees_whole_permutation() {
        let t = table(10);
        let order: Vec<usize> = (0..10).rev().collect();
        assert_eq!(NullAggregate::run_epoch_permuted(&t, &order), 10);
    }
}
