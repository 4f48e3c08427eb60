//! The developer-facing aggregate abstraction (Figure 3).

use bismarck_storage::{RowBlock, RowRef};

/// A user-defined aggregate in the standard three-phase form, plus `merge`
/// for shared-nothing parallelism.
///
/// PostgreSQL calls these `initcond` / `sfunc` / `finalfunc`; DB2 and the
/// commercial engines in the paper use analogous names. Implementations hold
/// the per-task configuration (step size, regularization, column positions)
/// in `&self`; everything that changes during aggregation lives in `State`.
///
/// The four phases compose like so (here with the bundled [`CountAggregate`],
/// `COUNT(*)` as a UDA — an IGD task is the same shape with the model as
/// `State`):
///
/// ```
/// use bismarck_storage::{RowRef, Tuple, Value};
/// use bismarck_uda::{Aggregate, CountAggregate};
///
/// let agg = CountAggregate;
/// let tuple = Tuple::new(vec![Value::Int(7)]);
/// let row = RowRef::from(&tuple);
///
/// // Two shared-nothing segments aggregate independently...
/// let mut left = agg.initialize();
/// let Ok(()) = agg.transition(&mut left, row);
/// let mut right = agg.initialize();
/// let Ok(()) = agg.transition(&mut right, row);
/// let Ok(()) = agg.transition(&mut right, row);
///
/// // ...and their states merge before terminate produces the output.
/// agg.merge(&mut left, right);
/// assert_eq!(agg.terminate(left), 3);
/// ```
pub trait Aggregate {
    /// The aggregation context (for IGD: the model plus step counters).
    type State;
    /// What `terminate` produces (usually the trained model).
    type Output;
    /// What a transition can fail with: [`std::convert::Infallible`] for an
    /// aggregate that cannot fail (IGD, `COUNT(*)`), so the drivers' error
    /// paths compile away on its hot loop.
    type Error;

    /// Create the initial aggregation state (e.g. a zero model or a model
    /// carried over from the previous epoch).
    fn initialize(&self) -> Self::State;

    /// Fold one row, read where it is stored, into the state. For IGD this
    /// computes the gradient of the objective on this example and takes one
    /// step (Equation 2).
    fn transition(&self, state: &mut Self::State, row: RowRef<'_>) -> Result<(), Self::Error>;

    /// Fold a block of consecutive rows into the state; the executors hand a
    /// storage-order pass over block by block. Must leave the state exactly
    /// as [`Aggregate::transition`] on each row in order would — which is
    /// the default — and stop at the first error. An aggregate that can do
    /// better on a whole block overrides it.
    fn transition_block(
        &self,
        state: &mut Self::State,
        block: RowBlock<'_>,
    ) -> Result<(), Self::Error> {
        block.rows().try_for_each(|row| self.transition(state, row))
    }

    /// Combine two states that were aggregated independently over disjoint
    /// parts of the data. The default panics, so purely sequential
    /// aggregates don't have to provide one.
    fn merge(&self, _left: &mut Self::State, _right: Self::State) {
        unimplemented!("this aggregate does not support shared-nothing merging")
    }

    /// Finish the aggregation and produce the output.
    fn terminate(&self, state: Self::State) -> Self::Output;
}

/// A simple counting aggregate used in tests, the benchmark harness and as
/// documentation of the trait's contract: `COUNT(*)` as a UDA. SQL's own
/// `COUNT(*)` is a reduction of the grouped-`SELECT` aggregate, which the
/// same drivers run; it does not go through this type.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountAggregate;

impl Aggregate for CountAggregate {
    type State = u64;
    type Output = u64;
    type Error = std::convert::Infallible;

    fn initialize(&self) -> u64 {
        0
    }

    fn transition(&self, state: &mut u64, _row: RowRef<'_>) -> Result<(), Self::Error> {
        *state += 1;
        Ok(())
    }

    fn merge(&self, left: &mut u64, right: u64) {
        *left += right;
    }

    fn terminate(&self, state: u64) -> u64 {
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bismarck_storage::{Column, DataType, Schema, Table, Value};

    fn table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Column::nullable("x", DataType::Double)]).unwrap();
        let mut t = Table::new("t", schema);
        for &v in values {
            t.insert(vec![Value::Double(v)]).unwrap();
        }
        t
    }

    #[test]
    fn count_aggregate_counts() {
        let t = table(&[1.0, 2.0, 3.0]);
        let agg = CountAggregate;
        let mut state = agg.initialize();
        for tup in t.scan() {
            let Ok(()) = agg.transition(&mut state, tup.into());
        }
        assert_eq!(agg.terminate(state), 3);
    }

    #[test]
    fn count_merge_adds() {
        let agg = CountAggregate;
        let mut a = 2u64;
        agg.merge(&mut a, 5);
        assert_eq!(a, 7);
    }
}
