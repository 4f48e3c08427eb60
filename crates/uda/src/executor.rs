//! Execution strategies for aggregates over stored tables, and the one
//! runner every parallel pass starts its threads through.
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
//! * [`run_parts`] — the runner: one part on the calling thread, the others
//!   on scoped threads, each under `catch_unwind`. Every pass of a training
//!   run, sequential or parallel, goes through it.
//!
//! Every storage-order pass hands the aggregate one borrowed
//! [`RowBlock`] at a time ([`Aggregate::transition_block`], whose default is
//! the per-tuple loop) and can be stopped between blocks
//! ([`scan_blocks_while`]); a permuted pass goes tuple by tuple and can be
//! stopped between slices of the permutation ([`scan_permuted_while`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use bismarck_storage::{segment_ranges, RowBlock, Tuple, TupleScan};

use crate::aggregate::Aggregate;

/// Rows of a permutation [`scan_permuted_while`] walks between two polls:
/// the row store's page, so a permuted pass stops as promptly as a
/// storage-order one.
const PERMUTED_SLICE: usize = 256;

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

/// Hand the rows of `order` to `f` one by one, in that order, polling
/// `keep_going` between slices of 256 rows (a row-store page) — before every
/// slice but the first, as [`scan_blocks_while`] polls between blocks.
/// Returns whether every row was handed over.
pub fn scan_permuted_while<S: TupleScan + ?Sized>(
    data: &S,
    order: &[usize],
    keep_going: &mut dyn FnMut() -> bool,
    f: &mut dyn FnMut(&Tuple),
) -> bool {
    order.chunks(PERMUTED_SLICE).enumerate().all(|(i, slice)| {
        let go = i == 0 || keep_going();
        if go {
            data.scan_tuples_permuted(slice, f);
        }
        go
    })
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

/// [`run_sequential`] that can be cut short: it polls `keep_going` between
/// blocks (storage order, [`scan_blocks_while`]) or between slices of the
/// permutation ([`scan_permuted_while`]) and returns `None`, discarding the
/// partial state, once it says stop.
pub fn run_sequential_while<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    order: Option<&[usize]>,
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<A::Output> {
    let mut state = agg.initialize();
    let finished = match order {
        Some(order) => scan_permuted_while(data, order, keep_going, &mut |tuple| {
            agg.transition(&mut state, tuple)
        }),
        None => scan_blocks_while(data, 0, usize::MAX, keep_going, &mut |block| {
            agg.transition_block(&mut state, block)
        }),
    };
    finished.then(|| agg.terminate(state))
}

/// One segment's partial state: a fresh `initialize()` folded over rows
/// `start..end` in storage order, or `None` once `keep_going` says stop.
fn aggregate_range<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    (start, end): (usize, usize),
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<A::State> {
    let mut state = agg.initialize();
    scan_blocks_while(data, start, end, keep_going, &mut |block| {
        agg.transition_block(&mut state, block)
    })
    .then_some(state)
}

/// The partial states merged left to right and terminated.
fn merge_partials<A: Aggregate>(
    agg: &A,
    partials: impl IntoIterator<Item = A::State>,
) -> A::Output {
    let mut partials = partials.into_iter();
    let mut merged = partials.next().unwrap_or_else(|| agg.initialize());
    for partial in partials {
        agg.merge(&mut merged, partial);
    }
    agg.terminate(merged)
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
    let partials = ranges
        .into_iter()
        .map(|range| aggregate_range(agg, data, range, &mut || true).expect("never told to stop"));
    merge_partials(agg, partials)
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
    try_run_segmented_parallel(agg, data, segments, &|| true)
        .unwrap_or_else(|panic| panic!("{panic}"))
        .expect("never told to stop")
}

/// One or more parts of a [`run_parts`] call panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Number of parts that panicked.
    pub failed_workers: usize,
    /// Panic payload of the first failed part, if it carried a string.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s) panicked: {}",
            self.failed_workers, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Run `body` over each of `parts`: every part but the first on a scoped
/// thread of its own, started first, then the first on the calling thread —
/// so the first part may wait on the others, and a pass of one part starts
/// no thread. Returns the results in the order of `parts` or, if any part
/// panicked, how many did and the first one's message.
///
/// Each part runs under `catch_unwind`, so a panicking part cannot take down
/// the process; the other parts still finish theirs. Unwind safety: callers
/// share only plain data between parts — `f64` models behind a
/// non-poisoning lock or in atomic cells, a loss pass's per-row slots, one
/// part each — with no invariant coupling two values, and they trust
/// nothing a failed call touched. That makes `AssertUnwindSafe` sound here.
pub fn run_parts<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    body: impl Fn(P) -> R + Sync,
) -> Result<Vec<R>, WorkerPanic> {
    let run = |part| catch_unwind(AssertUnwindSafe(|| body(part)));
    let mut parts = parts.into_iter();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let first = parts.next();
        let others: Vec<_> = parts.map(|part| scope.spawn(move || run(part))).collect();
        let first = first.map(run);
        let others = others.into_iter().map(|handle| {
            handle
                .join()
                .expect("a part panics only inside catch_unwind")
        });
        first.into_iter().chain(others).collect()
    });
    let mut results = Vec::with_capacity(outcomes.len());
    let mut panic: Option<WorkerPanic> = None;
    for outcome in outcomes {
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => {
                let panic = panic.get_or_insert_with(|| WorkerPanic {
                    failed_workers: 0,
                    message: payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string()),
                });
                panic.failed_workers += 1;
            }
        }
    }
    panic.map_or(Ok(results), Err)
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

/// Fallible, stoppable variant of [`run_segmented_parallel`], on
/// [`run_parts`]: a panicking worker is isolated instead of aborting the
/// process, and every segment polls `keep_going` between its blocks. Returns
/// `Ok(None)`, discarding every partial state, once it says stop, and the
/// [`WorkerPanic`] rather than a (meaningless) merged output if a worker
/// panicked.
pub fn try_run_segmented_parallel<A, S>(
    agg: &A,
    data: &S,
    segments: usize,
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Result<Option<A::Output>, WorkerPanic>
where
    A: Aggregate + Sync,
    A::State: Send,
    S: TupleScan + ?Sized,
{
    let ranges = segment_ranges(data.tuple_count(), segments.max(1));
    // Contiguous blocks of segments per worker: concatenating the per-worker
    // results in worker order reproduces the global segment order, which the
    // merge below depends on.
    let per_worker = ranges.len().div_ceil(segment_workers(segments));
    let workers = run_parts(ranges.chunks(per_worker), |block| {
        block
            .iter()
            .map(|&range| aggregate_range(agg, data, range, &mut || keep_going()))
            .collect::<Option<Vec<A::State>>>()
    })?;
    let partials: Option<Vec<Vec<A::State>>> = workers.into_iter().collect();
    Ok(partials.map(|partials| merge_partials(agg, partials.into_iter().flatten())))
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
        let err = try_run_segmented_parallel(&PanicOnId(17), &t, 4, &|| true)
            .expect_err("a worker must have panicked");
        assert!(err.failed_workers >= 1);
        assert!(err.message.contains("injected fault at id 17"), "{err}");
        // The same plan without the poisoned tuple still succeeds.
        let ok = try_run_segmented_parallel(&PanicOnId(-1), &t, 4, &|| true);
        assert_eq!(ok, Ok(Some(100)));
    }

    #[test]
    fn a_stopped_pass_hands_over_one_block_or_slice_and_returns_none() {
        // Four pages of the row store; `keep_going` says stop at its first poll.
        let t = table(4 * 256);
        let reversed: Vec<usize> = (0..t.len()).rev().collect();
        let mut rows = 0;
        let count_block = &mut |block: RowBlock<'_>| rows += block.rows().count();
        assert!(!scan_blocks_while(
            &t,
            0,
            usize::MAX,
            &mut || false,
            count_block
        ));
        assert_eq!(rows, 256);
        rows = 0;
        assert!(!scan_permuted_while(
            &t,
            &reversed,
            &mut || false,
            &mut |_| rows += 1
        ));
        assert_eq!(rows, 256);
        for order in [None, Some(&reversed[..])] {
            let stopped = run_sequential_while(&CountAggregate, &t, order, &mut || false);
            assert_eq!(stopped, None);
        }
        let stopped = try_run_segmented_parallel(&CountAggregate, &t, 2, &|| false);
        assert_eq!(stopped, Ok(None));
    }

    #[test]
    fn run_parts_returns_results_in_part_order_with_part_0_on_the_caller() {
        let caller = std::thread::current().id();
        let results = run_parts(0..6, |i| (i, std::thread::current().id() == caller)).unwrap();
        let on_caller: Vec<bool> = results.iter().map(|&(_, on)| on).collect();
        assert_eq!(
            results.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(on_caller, [true, false, false, false, false, false]);
        assert_eq!(run_parts(std::iter::empty::<()>(), |()| 1), Ok(Vec::new()));
    }

    #[test]
    fn part_0_may_wait_on_a_later_part() {
        // Part 0 waits until part 1 has run: deadlocks if part 1 is only
        // started after part 0 returns.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let results = run_parts([0, 1], |i| match i {
            0 => rx.lock().unwrap().recv().unwrap(),
            _ => tx.send(7).map(|()| 1).unwrap(),
        });
        assert_eq!(results, Ok(vec![7, 1]));
    }

    #[test]
    fn panics_are_counted_and_the_other_parts_still_finish() {
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let err = run_parts(0..5, |i| {
            if i % 2 == 1 {
                panic!("part {i} failed");
            }
            finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        })
        .expect_err("two parts panicked");
        assert_eq!(err.failed_workers, 2);
        assert!(err.message.starts_with("part "), "{err}");
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 3);
        // Part 0 on the calling thread is caught too.
        let err = run_parts([0], |_| -> () { panic!("{}", String::from("owned")) });
        assert_eq!(err.unwrap_err().message, "owned");
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
