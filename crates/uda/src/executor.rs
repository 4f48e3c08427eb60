//! Execution strategies for aggregates over stored tables, and the one
//! runner every parallel pass starts its threads through.
//!
//! * [`run_sequential_while`] — the ordinary single-threaded aggregation path
//!   every RDBMS provides, optionally following an explicit row permutation
//!   (the substrate's `ORDER BY RANDOM()`). A training epoch and a grouped
//!   SQL `SELECT` are both run by it.
//! * [`run_segmented`] — shared-nothing execution: the table is split into
//!   contiguous segments, each segment is aggregated independently starting
//!   from its own `initialize()`, and the partial states are combined with
//!   `merge`. This is how the paper's "pure UDA" parallelism works on the
//!   parallel DBMS B (8 segments).
//! * [`try_run_segmented_parallel`] — the same plan executed on worker
//!   threads.
//! * [`run_parts`] — the runner: one part on the calling thread, the others
//!   on scoped threads, each under `catch_unwind`. Every pass of a training
//!   run, sequential or parallel, goes through it.
//!
//! Every storage-order pass hands the aggregate one borrowed [`RowBlock`] at
//! a time ([`Aggregate::transition_block`]) through the one block loop,
//! [`scan_blocks_while`], which SQL's plain `SELECT`, CTAS and reorders visit
//! tables through too; a permuted pass goes tuple by tuple
//! ([`scan_permuted_while`]). Both can be stopped between blocks (or slices
//! of the permutation), and a pass that does not finish says why in one
//! [`PassError`]: stopped by its poll, a block storage could not read, a
//! panicked part, or the aggregate's own error.
//!
//! [`run_sequential`], [`run_segmented`] and [`run_segmented_parallel`] are
//! the same plans for an aggregate that cannot fail, run by a caller with
//! no use for a storage error — tests and the benchmark harness, over tables
//! they built: they panic on one.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bismarck_storage::{segment_ranges, RowBlock, StorageError, Tuple, TupleScan};

use crate::aggregate::Aggregate;

/// Rows of a permutation [`scan_permuted_while`] walks between two polls:
/// the row store's page, so a permuted pass stops as promptly as a
/// storage-order one.
const PERMUTED_SLICE: usize = 256;

/// Why a pass over a table ended before it finished; `E` is what the
/// aggregate (or visitor) itself fails with.
#[derive(Debug, Clone, PartialEq)]
pub enum PassError<E = Infallible> {
    /// The pass's `keep_going` poll said stop; what it folded is discarded.
    Stopped,
    /// A block could not be read (a torn or unreadable paged segment).
    Storage(StorageError),
    /// One or more parts of a [`run_parts`] call panicked.
    Panicked {
        /// Number of parts that panicked.
        failed_workers: usize,
        /// Panic payload of the first failed part, if it carried a string.
        message: String,
    },
    /// The aggregate or visitor returned an error of its own.
    Failed(E),
}

/// Hand rows `start..end` (clamped) to `f` block by block in storage order,
/// until `f` returns `Ok(false)` (it has what it needs) or rows run out.
/// `keep_going` is polled before every block but the first, once the block
/// is read — so a pass of one block has no interior point to stop at, and a
/// visitor that ends the scan from inside a block causes no further read.
pub fn scan_blocks_while<S: TupleScan + ?Sized, E>(
    data: &S,
    start: usize,
    end: usize,
    keep_going: &mut dyn FnMut() -> bool,
    f: &mut dyn FnMut(RowBlock<'_>) -> Result<bool, E>,
) -> Result<(), PassError<E>> {
    let mut first = true;
    let mut ended = Ok(());
    data.scan_blocks(start, end, &mut |block| {
        if !std::mem::take(&mut first) && !keep_going() {
            ended = Err(PassError::Stopped);
            return false;
        }
        f(block).unwrap_or_else(|e| {
            ended = Err(PassError::Failed(e));
            false
        })
    })
    .map_err(PassError::Storage)?;
    ended
}

/// Hand the rows of `order` to `f` one by one, in that order, polling
/// `keep_going` between slices of 256 rows (a row-store page) — before every
/// slice but the first, as [`scan_blocks_while`] polls between blocks. An
/// error of `f` ends the walk at the end of its slice, the rest of which
/// `f` is not handed.
pub fn scan_permuted_while<S: TupleScan + ?Sized, E>(
    data: &S,
    order: &[usize],
    keep_going: &mut dyn FnMut() -> bool,
    f: &mut dyn FnMut(&Tuple) -> Result<(), E>,
) -> Result<(), PassError<E>> {
    for (i, slice) in order.chunks(PERMUTED_SLICE).enumerate() {
        if i > 0 && !keep_going() {
            return Err(PassError::Stopped);
        }
        let mut walked = Ok(());
        data.scan_tuples_permuted(slice, &mut |tuple| {
            if walked.is_ok() {
                walked = f(tuple);
            }
        })
        .map_err(PassError::Storage)?;
        walked.map_err(PassError::Failed)?;
    }
    Ok(())
}

/// Run an aggregate over the whole table in one pass, polling `keep_going`
/// between blocks (storage order, [`scan_blocks_while`]) or between slices
/// of the permutation `order` ([`scan_permuted_while`]). A pass that ends
/// early discards the partial state.
pub fn run_sequential_while<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    order: Option<&[usize]>,
    keep_going: &mut dyn FnMut() -> bool,
) -> Result<A::Output, PassError<A::Error>> {
    let mut state = agg.initialize();
    match order {
        Some(order) => scan_permuted_while(data, order, keep_going, &mut |tuple| {
            agg.transition(&mut state, tuple.into())
        })?,
        None => scan_blocks_while(data, 0, usize::MAX, keep_going, &mut |block| {
            agg.transition_block(&mut state, block).map(|()| true)
        })?,
    }
    Ok(agg.terminate(state))
}

/// [`run_sequential_while`] of an aggregate that cannot fail, never told to
/// stop.
///
/// # Panics
///
/// On a block storage cannot read.
pub fn run_sequential<A: Aggregate<Error = Infallible>, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    order: Option<&[usize]>,
) -> A::Output {
    run_sequential_while(agg, data, order, &mut || true).expect("the table reads")
}

/// One segment's partial state: a fresh `initialize()` folded over rows
/// `start..end` in storage order.
fn aggregate_range<A: Aggregate, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    (start, end): (usize, usize),
    keep_going: &mut dyn FnMut() -> bool,
) -> Result<A::State, PassError<A::Error>> {
    let mut state = agg.initialize();
    scan_blocks_while(data, start, end, keep_going, &mut |block| {
        agg.transition_block(&mut state, block).map(|()| true)
    })?;
    Ok(state)
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
///
/// # Panics
///
/// On a block storage cannot read, as [`run_sequential`].
pub fn run_segmented<A: Aggregate<Error = Infallible>, S: TupleScan + ?Sized>(
    agg: &A,
    data: &S,
    segments: usize,
) -> A::Output {
    let ranges = segment_ranges(data.tuple_count(), segments.max(1));
    let partials = ranges
        .into_iter()
        .map(|range| aggregate_range(agg, data, range, &mut || true).expect("the table reads"));
    merge_partials(agg, partials)
}

/// [`try_run_segmented_parallel`] of an aggregate that cannot fail, never
/// told to stop.
///
/// # Panics
///
/// On a block storage cannot read or a worker's panic.
pub fn run_segmented_parallel<A, S>(agg: &A, data: &S, segments: usize) -> A::Output
where
    A: Aggregate<Error = Infallible> + Sync,
    A::State: Send,
    S: TupleScan + ?Sized,
{
    try_run_segmented_parallel(agg, data, segments, &|| true).expect("no part failed")
}

/// Run `body` over each of `parts`: every part but the first on a scoped
/// thread of its own, started first, then the first on the calling thread —
/// so the first part may wait on the others, and a pass of one part starts
/// no thread. Returns the results in the order of `parts`; if a part
/// panicked, [`PassError::Panicked`] with how many did and the first one's
/// message; else the error of the first part, in part order, that failed.
///
/// Each part runs under `catch_unwind`, so a panicking part cannot take down
/// the process; the other parts still finish theirs. Unwind safety: callers
/// share only plain data between parts — `f64` models behind a
/// non-poisoning lock or in atomic cells, a loss pass's per-row slots, one
/// part each — with no invariant coupling two values, and they trust
/// nothing a failed call touched. That makes `AssertUnwindSafe` sound here.
pub fn run_parts<P: Send, R: Send, E: Send>(
    parts: impl IntoIterator<Item = P>,
    body: impl Fn(P) -> Result<R, PassError<E>> + Sync,
) -> Result<Vec<R>, PassError<E>> {
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
    let (finished, panicked): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    if let Some(Err(payload)) = panicked.first() {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let failed_workers = panicked.len();
        return Err(PassError::Panicked {
            failed_workers,
            message,
        });
    }
    finished.into_iter().flatten().collect()
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

/// The shared-nothing plan of [`run_segmented`] executed on worker threads,
/// on [`run_parts`]: a panicking worker is isolated instead of aborting the
/// process, and every segment polls `keep_going` between its blocks. Partial
/// states are merged in segment order, so the result is identical to the
/// sequential segmented plan whenever `merge` is deterministic; a pass that
/// ends early discards every partial state.
///
/// The number of OS threads is capped at
/// [`std::thread::available_parallelism`]: asking for 100 segments on an
/// 8-core box runs 100 logical segments on at most 8 workers (each worker
/// takes a contiguous block of segments and aggregates them independently),
/// instead of paying 100 thread spawns for no extra parallelism.
pub fn try_run_segmented_parallel<A, S>(
    agg: &A,
    data: &S,
    segments: usize,
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Result<A::Output, PassError<A::Error>>
where
    A: Aggregate + Sync,
    A::State: Send,
    A::Error: Send,
    S: TupleScan + ?Sized,
{
    let ranges = segment_ranges(data.tuple_count(), segments.max(1));
    // Contiguous blocks of segments per worker: concatenating the per-worker
    // results in worker order reproduces the global segment order, which the
    // merge below depends on.
    let per_worker = ranges.len().div_ceil(segment_workers(segments));
    let partials = run_parts(ranges.chunks(per_worker), |block| {
        block
            .iter()
            .map(|&range| aggregate_range(agg, data, range, &mut || keep_going()))
            .collect::<Result<Vec<A::State>, _>>()
    })?;
    Ok(merge_partials(agg, partials.into_iter().flatten()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountAggregate;
    use bismarck_storage::{Column, DataType, RowRef, ScanOrder, Schema, Table, Value};

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
        type Error = Infallible;

        fn initialize(&self) -> AvgState {
            AvgState::default()
        }

        fn transition(&self, state: &mut AvgState, row: RowRef<'_>) -> Result<(), Infallible> {
            if let Some(v) = row.get_double(self.column) {
                state.sum += v;
                state.count += 1;
            }
            Ok(())
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
        type Error = Infallible;

        fn initialize(&self) -> u64 {
            0
        }

        fn transition(&self, state: &mut u64, row: RowRef<'_>) -> Result<(), Infallible> {
            if row.get_int(0) == Some(self.0) {
                panic!("injected fault at id {}", self.0);
            }
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

    #[test]
    fn worker_panic_is_isolated_into_an_error() {
        let t = table(100);
        let err = try_run_segmented_parallel(&PanicOnId(17), &t, 4, &|| true)
            .expect_err("a worker must have panicked");
        let PassError::Panicked {
            failed_workers,
            message,
        } = &err
        else {
            panic!("expected a panicked part, got {err:?}");
        };
        assert!(*failed_workers >= 1);
        assert!(message.contains("injected fault at id 17"), "{err:?}");
        // The same plan without the poisoned tuple still succeeds.
        let ok = try_run_segmented_parallel(&PanicOnId(-1), &t, 4, &|| true);
        assert_eq!(ok, Ok(100));
    }

    #[test]
    fn a_stopped_pass_hands_over_one_block_or_slice_and_returns_none() {
        // Four pages of the row store; `keep_going` says stop at its first poll.
        let t = table(4 * 256);
        let reversed: Vec<usize> = (0..t.len()).rev().collect();
        let mut rows = 0;
        let stopped = scan_blocks_while(&t, 0, usize::MAX, &mut || false, &mut |block| {
            rows += block.len();
            Ok::<_, Infallible>(true)
        });
        assert_eq!((stopped, rows), (Err(PassError::Stopped), 256));
        rows = 0;
        let stopped = scan_permuted_while(&t, &reversed, &mut || false, &mut |_| {
            rows += 1;
            Ok::<_, Infallible>(())
        });
        assert_eq!((stopped, rows), (Err(PassError::Stopped), 256));
        for order in [None, Some(&reversed[..])] {
            let stopped = run_sequential_while(&CountAggregate, &t, order, &mut || false);
            assert_eq!(stopped, Err(PassError::Stopped));
        }
        let stopped = try_run_segmented_parallel(&CountAggregate, &t, 2, &|| false);
        assert_eq!(stopped, Err(PassError::Stopped));
    }

    /// A visitor ends a scan from inside a block without a further read,
    /// and its error, or the aggregate's, ends the pass as the error.
    #[test]
    fn a_visitor_or_an_aggregate_ends_the_pass_from_inside_a_block() {
        let t = table(4 * 256);
        let mut blocks = 0;
        let ended = scan_blocks_while(&t, 0, usize::MAX, &mut || true, &mut |_| {
            blocks += 1;
            Ok::<_, Infallible>(blocks < 2)
        });
        assert_eq!((ended, blocks), (Ok(()), 2));
        let failed = scan_blocks_while(&t, 0, usize::MAX, &mut || true, &mut |_| Err("no"));
        assert_eq!(failed, Err(PassError::Failed("no")));
        let reversed: Vec<usize> = (0..t.len()).rev().collect();
        let failed = scan_permuted_while(&t, &reversed, &mut || true, &mut |tuple| match tuple
            .get_int(0)
        {
            Some(1000) => Err("no"),
            _ => Ok(()),
        });
        assert_eq!(failed, Err(PassError::Failed("no")));
    }

    #[test]
    fn run_parts_returns_results_in_part_order_with_part_0_on_the_caller() {
        let caller = std::thread::current().id();
        let results = run_parts(0..6, |i| {
            Ok::<_, PassError>((i, std::thread::current().id() == caller))
        })
        .unwrap();
        let on_caller: Vec<bool> = results.iter().map(|&(_, on)| on).collect();
        assert_eq!(
            results.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(on_caller, [true, false, false, false, false, false]);
        let none = run_parts(std::iter::empty::<()>(), |()| Ok::<_, PassError>(1));
        assert_eq!(none, Ok(Vec::new()));
    }

    #[test]
    fn part_0_may_wait_on_a_later_part() {
        // Part 0 waits until part 1 has run: deadlocks if part 1 is only
        // started after part 0 returns.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let results = run_parts([0, 1], |i| {
            Ok::<_, PassError>(match i {
                0 => rx.lock().unwrap().recv().unwrap(),
                _ => tx.send(7).map(|()| 1).unwrap(),
            })
        });
        assert_eq!(results, Ok(vec![7, 1]));
    }

    #[test]
    fn panics_are_counted_and_the_other_parts_still_finish() {
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let err = run_parts(0..5, |i| {
            match i {
                1 | 3 => panic!("part {i} failed"),
                // A part's own error gives way to the panics.
                2 => return Err(PassError::Stopped),
                _ => {}
            }
            finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok::<_, PassError>(())
        })
        .expect_err("two parts panicked");
        let PassError::Panicked {
            failed_workers,
            message,
        } = &err
        else {
            panic!("expected a panicked part, got {err:?}");
        };
        assert_eq!(*failed_workers, 2);
        assert!(message.starts_with("part "), "{err:?}");
        assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 2);
        // Part 0 on the calling thread is caught too.
        let err = run_parts([0], |_| -> Result<(), PassError> {
            panic!("{}", String::from("owned"))
        });
        let message = String::from("owned");
        assert_eq!(
            err,
            Err(PassError::Panicked {
                failed_workers: 1,
                message
            })
        );
        // Without a panic, the first part in part order that failed.
        let err = run_parts(0..3, |i| match i {
            0 => Ok(()),
            i => Err(PassError::<usize>::Failed(i)),
        });
        assert_eq!(err, Err(PassError::Failed(1)));
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
