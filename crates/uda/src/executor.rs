//! Execution strategies for aggregates over stored tables.
//!
//! * [`run_sequential`] — the ordinary single-threaded aggregation path every
//!   RDBMS provides, optionally following an explicit row permutation (the
//!   substrate's `ORDER BY RANDOM()`).
//! * [`run_segmented`] — shared-nothing execution: the table is split into
//!   contiguous segments, each segment is aggregated independently starting
//!   from its own `initialize()`, and the partial states are combined with
//!   `merge`. This is how the paper's "pure UDA" parallelism works on the
//!   parallel DBMS B (8 segments).
//! * [`run_segmented_parallel`] — the same plan executed on worker threads.
//!
//! Every storage-order pass hands the aggregate one borrowed
//! [`RowBlock`] at a time ([`Aggregate::transition_block`], whose default is
//! the per-tuple loop); only a permuted pass goes tuple by tuple.

use bismarck_storage::{segment_ranges, RowBlock, TupleScan};

use crate::aggregate::Aggregate;

/// Hand rows `start..end` (clamped) to `f` block by block in storage order,
/// polling `keep_going` between blocks — before every block but the first,
/// so a pass of one block has no interior point to stop at. Returns whether
/// every block was handed over (`false`: `keep_going` said stop).
pub fn scan_blocks_while<S: TupleScan + ?Sized>(
    data: &S,
    start: usize,
    end: usize,
    keep_going: &mut dyn FnMut() -> bool,
    f: &mut dyn FnMut(RowBlock<'_>),
) -> bool {
    let mut first = true;
    let mut finished = true;
    data.scan_blocks(start, end, &mut |block| {
        finished = std::mem::take(&mut first) || keep_going();
        if finished {
            f(block);
        }
        finished
    });
    finished
}

/// Run an aggregate over the whole table in one pass.
///
/// If `order` is `Some`, tuples are visited following that row permutation;
/// otherwise they are visited in storage (clustered) order, block by block.
pub fn run_sequential<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    order: Option<&[usize]>,
) -> A::Output {
    run_sequential_while(agg, data, order, &mut || true)
        .expect("a pass that is never told to stop finishes")
}

/// [`run_sequential`] that can be cut short: a storage-order pass polls
/// `keep_going` between blocks (see [`scan_blocks_while`]) and returns `None`,
/// discarding the partial state, once it says stop. A permuted pass has no
/// blocks and always finishes.
pub fn run_sequential_while<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    order: Option<&[usize]>,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<A::Output> {
    let mut state = agg.initialize();
    let finished = match order {
        Some(order) => {
            data.scan_tuples_permuted(order, &mut |tuple| agg.transition(&mut state, tuple));
            true
        }
        None => scan_blocks_while(data, 0, usize::MAX, keep_going, &mut |block| {
            agg.transition_block(&mut state, block)
        }),
    };
    finished.then(|| agg.terminate(state))
}

/// One segment's partial state: a fresh `initialize()` folded over rows
/// `start..end` in storage order.
fn aggregate_range<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    (start, end): (usize, usize),
) -> A::State {
    let mut state = agg.initialize();
    data.scan_blocks(start, end, &mut |block| {
        agg.transition_block(&mut state, block);
        true
    });
    state
}

/// Shared-nothing execution plan: aggregate each of `segments` contiguous
/// ranges independently and merge the partial states left to right.
///
/// Deterministic and single-threaded — useful for testing merge correctness
/// in isolation from scheduling effects.
pub fn run_segmented<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    segments: usize,
) -> A::Output {
    let ranges = segment_ranges(data.tuple_count(), segments.max(1));
    let mut partials = ranges
        .into_iter()
        .map(|range| aggregate_range(agg, data, range));
    let mut merged = partials.next().unwrap_or_else(|| agg.initialize());
    for partial in partials {
        agg.merge(&mut merged, partial);
    }
    agg.terminate(merged)
}

/// The same shared-nothing plan as [`run_segmented`], but executed on worker
/// threads. Partial states are merged in segment order so the result is
/// identical to the sequential segmented plan whenever `merge` is
/// deterministic.
///
/// Panics if any worker panics; use [`try_run_segmented_parallel`] to turn a
/// worker panic into an error instead.
///
/// The number of OS threads is capped at
/// [`std::thread::available_parallelism`]: asking for 100 segments on an
/// 8-core box runs 100 logical segments on at most 8 workers (each worker
/// takes a contiguous block of segments and aggregates them independently),
/// instead of paying 100 thread spawns for no extra parallelism.
pub fn run_segmented_parallel<A, S>(agg: &A, data: &S, segments: usize) -> A::Output
where
    A: Aggregate + Sync,
    A::State: Send,
    S: TupleScan + ?Sized,
{
    try_run_segmented_parallel(agg, data, segments)
        .unwrap_or_else(|p| panic!("segment worker panicked: {}", p.message))
}

/// One or more worker threads of a parallel segmented run panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPanic {
    /// Number of workers that panicked.
    pub failed_workers: usize,
    /// Panic payload of the first failed worker, if it carried a string.
    pub message: String,
}

impl std::fmt::Display for SegmentPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} segment worker(s) panicked: {}",
            self.failed_workers, self.message
        )
    }
}

impl std::error::Error for SegmentPanic {}

/// Render a panic payload (from `catch_unwind` or `JoinHandle::join`) as a
/// human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many OS threads [`try_run_segmented_parallel`] runs `segments`
/// segments on: one per segment, at most
/// [`std::thread::available_parallelism`].
pub fn segment_workers(segments: usize) -> usize {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hardware.min(segments.max(1))
}

/// Fallible variant of [`run_segmented_parallel`]: a panicking worker is
/// isolated instead of aborting the process. Each worker's panic is caught by
/// joining its handle and inspecting the `Err` payload (joining a handle
/// consumes the panic, so `std::thread::scope` does not re-raise it); the
/// partial states of panicked workers are discarded and the run reports
/// [`SegmentPanic`] rather than a (meaningless) merged output.
pub fn try_run_segmented_parallel<A, S>(
    agg: &A,
    data: &S,
    segments: usize,
) -> Result<A::Output, SegmentPanic>
where
    A: Aggregate + Sync,
    A::State: Send,
    S: TupleScan + ?Sized,
{
    let ranges = segment_ranges(data.tuple_count(), segments.max(1));
    let workers = segment_workers(segments);
    // Contiguous blocks of segments per worker: concatenating the per-worker
    // results in worker order reproduces the global segment order, which the
    // merge below depends on.
    let per_worker = ranges.len().div_ceil(workers);

    let mut partials: Vec<A::State> = Vec::with_capacity(ranges.len());
    let mut failed_workers = 0usize;
    let mut message = String::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for block in ranges.chunks(per_worker) {
            handles.push(scope.spawn(move || {
                block
                    .iter()
                    .map(|&range| aggregate_range(agg, data, range))
                    .collect::<Vec<A::State>>()
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(states) => partials.extend(states),
                Err(payload) => {
                    failed_workers += 1;
                    if message.is_empty() {
                        message = panic_message(payload.as_ref());
                    }
                }
            }
        }
    });
    if failed_workers > 0 {
        return Err(SegmentPanic {
            failed_workers,
            message,
        });
    }

    let mut iter = partials.into_iter();
    let mut merged = iter.next().unwrap_or_else(|| agg.initialize());
    for partial in iter {
        agg.merge(&mut merged, partial);
    }
    Ok(agg.terminate(merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountAggregate;
    use bismarck_storage::{Column, DataType, ScanOrder, Schema, Table, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("x", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Double(i as f64)])
                .unwrap();
        }
        t
    }

    /// `AVG(column)` over a double column: a stateful merge (sum and count
    /// are the "sufficient statistics" mentioned in Section 3.3).
    #[derive(Debug, Clone, Copy)]
    struct AvgAggregate {
        column: usize,
    }

    /// Running sum and count of non-NULL values for [`AvgAggregate`].
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct AvgState {
        sum: f64,
        count: u64,
    }

    impl Aggregate for AvgAggregate {
        type State = AvgState;
        type Output = Option<f64>;

        fn initialize(&self) -> AvgState {
            AvgState::default()
        }

        fn transition(&self, state: &mut AvgState, tuple: &bismarck_storage::Tuple) {
            if let Some(v) = tuple.get_double(self.column) {
                state.sum += v;
                state.count += 1;
            }
        }

        fn merge(&self, left: &mut AvgState, right: AvgState) {
            left.sum += right.sum;
            left.count += right.count;
        }

        fn terminate(&self, state: AvgState) -> Option<f64> {
            (state.count > 0).then(|| state.sum / state.count as f64)
        }
    }

    #[test]
    fn avg_of_nothing_is_none_and_merge_adds_sufficient_statistics() {
        let agg = AvgAggregate { column: 0 };
        assert_eq!(agg.terminate(agg.initialize()), None);
        let mut left = AvgState { sum: 3.0, count: 2 };
        agg.merge(&mut left, AvgState { sum: 9.0, count: 1 });
        assert_eq!(agg.terminate(left), Some(4.0));
    }

    #[test]
    fn sequential_clustered_and_permuted_agree_for_commutative_aggs() {
        let t = table(100);
        let agg = AvgAggregate { column: 1 };
        let clustered = run_sequential(&agg, &t, None).unwrap();
        let order = ScanOrder::ShuffleOnce { seed: 1 }
            .permutation(t.len(), 0)
            .unwrap();
        let shuffled = run_sequential(&agg, &t, Some(&order)).unwrap();
        assert!((clustered - shuffled).abs() < 1e-9);
        assert!((clustered - 49.5).abs() < 1e-9);
    }

    #[test]
    fn segmented_matches_sequential_for_algebraic_aggs() {
        let t = table(57);
        let agg = AvgAggregate { column: 1 };
        let seq = run_sequential(&agg, &t, None).unwrap();
        for segments in [1, 2, 3, 8, 100] {
            let seg = run_segmented(&agg, &t, segments).unwrap();
            assert!((seq - seg).abs() < 1e-9, "segments={segments}");
        }
    }

    #[test]
    fn segmented_parallel_matches_sequential() {
        let t = table(203);
        let count = run_segmented_parallel(&CountAggregate, &t, 4);
        assert_eq!(count, 203);
        let avg = run_segmented_parallel(&AvgAggregate { column: 1 }, &t, 4).unwrap();
        assert!((avg - 101.0).abs() < 1e-9);
    }

    #[test]
    fn segment_counts_far_beyond_core_count_still_merge_in_order() {
        // More segments than any machine has cores: the executor must chunk
        // them across capped workers and still match the deterministic
        // single-threaded segmented plan segment for segment.
        let t = table(517);
        for segments in [100, 256] {
            let seq = run_segmented(&AvgAggregate { column: 1 }, &t, segments).unwrap();
            let par = run_segmented_parallel(&AvgAggregate { column: 1 }, &t, segments).unwrap();
            assert!((seq - par).abs() < 1e-9, "segments={segments}");
            assert_eq!(
                run_segmented_parallel(&CountAggregate, &t, segments),
                517,
                "segments={segments}"
            );
        }
    }

    /// Counts tuples but panics when it sees a configured `id` value.
    struct PanicOnId(i64);

    impl Aggregate for PanicOnId {
        type State = u64;
        type Output = u64;

        fn initialize(&self) -> u64 {
            0
        }

        fn transition(&self, state: &mut u64, tuple: &bismarck_storage::Tuple) {
            if tuple.get_int(0) == Some(self.0) {
                panic!("injected fault at id {}", self.0);
            }
            *state += 1;
        }

        fn merge(&self, left: &mut u64, right: u64) {
            *left += right;
        }

        fn terminate(&self, state: u64) -> u64 {
            state
        }
    }

    #[test]
    fn worker_panic_is_isolated_into_an_error() {
        let t = table(100);
        let err = try_run_segmented_parallel(&PanicOnId(17), &t, 4)
            .expect_err("a worker must have panicked");
        assert!(err.failed_workers >= 1);
        assert!(err.message.contains("injected fault at id 17"), "{err}");
        // The same plan without the poisoned tuple still succeeds.
        assert_eq!(try_run_segmented_parallel(&PanicOnId(-1), &t, 4), Ok(100));
    }

    #[test]
    fn zero_segments_treated_as_one() {
        let t = table(10);
        assert_eq!(run_segmented(&CountAggregate, &t, 0), 10);
    }

    #[test]
    fn empty_table_produces_initialized_state() {
        let t = table(0);
        assert_eq!(run_sequential(&CountAggregate, &t, None), 0);
        assert_eq!(run_segmented(&CountAggregate, &t, 4), 0);
        assert_eq!(run_segmented_parallel(&CountAggregate, &t, 4), 0);
    }
}
