//! Multiplexed reservoir sampling (MRS) — Section 3.4 and Figure 6.
//!
//! When a dataset is too large to shuffle even once, the classical fallback
//! is to subsample it with a reservoir and train only on the sample — but the
//! reservoir throws away data that could have helped the model converge.
//! MRS multiplexes gradient steps over *both* streams, and like the schemes
//! of Section 3.3 it changes only how one pass over the data runs: it is the
//! gradient pass [`crate::ParallelStrategy::Mrs`] selects inside the one
//! epoch loop of [`crate::trainer`], which owns everything else (stop check,
//! loss, divergence backoff, serving publish, checkpoint). One pass is:
//!
//! * the **I/O Worker** scans the table in storage order — any
//!   [`TupleScan`]: row store, columnar, paged — offers each tuple to a
//!   reservoir, and performs a gradient step on every tuple the reservoir
//!   does *not* keep (the "dropped example d" of Figure 6). The reservoir
//!   (Vitter's Algorithm R, private to this module) borrows what it is
//!   offered and clones only the rows it keeps: a rejected row is stepped
//!   on in place, an evicted occupant is handed back owned;
//! * the **Memory Worker** lives for that scan only (which starts once the
//!   worker's thread runs, so that even a table crossed faster than a thread
//!   starts is multiplexed): it sweeps the buffer the *previous* pass filled,
//!   stepping on that without-replacement sample at the same epoch's step
//!   size, until the scan ends — and always finishes the sweep it is in, so
//!   a non-empty buffer is swept at least once per pass however the two
//!   threads are scheduled, with no timed wait;
//! * both update a model in shared memory with NoLock (Hogwild!) updates —
//!   clones of one `NoLockStore` (`model.rs`);
//! * after the pass the buffers swap: the sample just drawn is what the next
//!   pass's Memory Worker sweeps.
//!
//! The reservoir of epoch `e` is seeded from `seed + e`, so which rows a pass
//! keeps depends on the seed, the epoch and the row count alone — not on the
//! layout, nor on what ran before. The first pass has nothing sampled yet
//! and a `buffer_size` of zero never has: both are the I/O Worker alone and
//! deterministic, and with nothing kept either the pass is, bit for bit, the
//! NoLock pass of one worker over the whole table. With a Memory Worker the
//! pass is racy by design, like NoLock on several workers.
//!
//! [`TrainerConfig::scan_order`](crate::TrainerConfig::scan_order) is not
//! read: MRS exists for data that cannot be permuted, so no permutation is
//! drawn and no shuffle time is billed. The buffer is working state of the
//! loop, not of the run: a checkpoint does not hold it, so a run picked up
//! with `resume_from` starts its first epoch with an empty previous buffer
//! (the I/O Worker alone, as in epoch 0); a divergence-backoff retry discards
//! the failed attempt's reservoir and sweeps the same previous buffer again.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use bismarck_storage::{Tuple, TupleScan};
use bismarck_uda::{scan_blocks_while, ConvergenceTest, EpochRecord, TrainingHistory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{DenseModelStore, ModelStore, NoLockStore};
use crate::parallel::{fold_worker_outcomes, lock_free_proximal_step};
use crate::stepsize::StepSizeSchedule;
use crate::task::{IgdTask, ProximalPolicy};
use crate::trainer::{objective, EpochAbort, TrainedModel};

/// Reservoir sampling (Vitter's Algorithm R, Section 3.4): one pass over
/// `N ≥ m` offered items leaves a uniform without-replacement sample of `m`
/// of them. MRS also needs, for every offer, the item that did *not* end up
/// in the buffer — the offered one, or the occupant it displaced — because
/// the I/O Worker steps on exactly those.
#[derive(Debug)]
struct ReservoirSampler<T> {
    capacity: usize,
    seen: usize,
    items: Vec<T>,
    rng: StdRng,
}

impl<T: Clone> ReservoirSampler<T> {
    /// A sampler holding at most `capacity` items, drawing from a seeded RNG
    /// so a run is reproducible.
    fn new(capacity: usize, seed: u64) -> Self {
        ReservoirSampler {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offer one item, as the paper describes: the first `m` items fill the
    /// reservoir; for the `k`-th one after them draw `s` in `[0, m + k)` and
    /// keep the item in slot `s` if `s < m`. Only an item that is kept is
    /// cloned. Returns what stays out of the buffer: `None` when the item
    /// filled an empty slot, `Borrowed(item)` when it was rejected, and
    /// `Owned(occupant)` when it evicted one.
    fn offer<'a>(&mut self, item: &'a T) -> Option<Cow<'a, T>> {
        self.seen += 1;
        if self.capacity == 0 {
            return Some(Cow::Borrowed(item));
        }
        if self.items.len() < self.capacity {
            self.items.push(item.clone());
            return None;
        }
        let s = self.rng.gen_range(0..self.seen);
        if s < self.capacity {
            Some(Cow::Owned(std::mem::replace(
                &mut self.items[s],
                item.clone(),
            )))
        } else {
            Some(Cow::Borrowed(item))
        }
    }

    /// The sample.
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// The model an MRS pass stepped to, and the sample its reservoir kept.
pub(crate) type SteppedAndKept = (Vec<f64>, Vec<Tuple>);

/// One MRS epoch (Figure 6) from `model` at step size `alpha`: `buffer` is
/// the sample the previous pass kept, and the pass fills a reservoir of
/// `capacity` rows drawn with `seed`. Returns the stepped model and the
/// sample this pass kept, or `None` — the attempt is to be discarded — once
/// `keep_going`, polled between the blocks of the scan, says stop.
///
/// Both workers run under `catch_unwind`; see `run_workers` in
/// [`crate::parallel`] for why that is sound over a shared model.
pub(crate) fn run_mrs_epoch<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    model: &[f64],
    alpha: f64,
    buffer: &[Tuple],
    (capacity, seed): (usize, u64),
    keep_going: &mut dyn FnMut() -> bool,
) -> Result<Option<SteppedAndKept>, EpochAbort> {
    let shared = NoLockStore::from_slice(model);
    let mut reservoir = ReservoirSampler::new(capacity, seed);
    let scanning = AtomicBool::new(true);
    let running = Barrier::new(2);
    let mut finished = false;
    let outcomes = std::thread::scope(|scope| {
        let memory_worker = (!buffer.is_empty()).then(|| {
            let handle = scope.spawn(|| {
                running.wait();
                catch_unwind(AssertUnwindSafe(|| {
                    let mut store = shared.clone();
                    // Sweep, then look: the sweep under way when the scan
                    // ends is finished, and there is always one.
                    loop {
                        for tuple in buffer {
                            task.gradient_step(&mut store, tuple, alpha);
                        }
                        if !scanning.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }))
            });
            // A small table would be crossed before the thread starts.
            running.wait();
            handle
        });
        // The I/O Worker is this thread.
        let io_worker = catch_unwind(AssertUnwindSafe(|| {
            let mut store = shared.clone();
            let mut scratch = Tuple::default();
            finished = scan_blocks_while(data, 0, usize::MAX, keep_going, &mut |block| {
                block.for_each_tuple(&mut scratch, &mut |tuple| {
                    if let Some(dropped) = reservoir.offer(tuple) {
                        task.gradient_step(&mut store, &dropped, alpha);
                    }
                    true
                });
            });
        }));
        scanning.store(false, Ordering::Release);
        let memory_worker = memory_worker.map(|handle| {
            handle
                .join()
                .expect("the worker only panics inside catch_unwind")
        });
        std::iter::once(io_worker).chain(memory_worker)
    });
    fold_worker_outcomes(outcomes)?;
    if !finished {
        return Ok(None);
    }
    let mut model = shared.snapshot();
    lock_free_proximal_step(task, &mut model, alpha);
    Ok(Some((model, reservoir.into_items())))
}

/// Plain subsampling baseline: fill a reservoir in one pass, then train only
/// on the sample for the remaining epochs. This is the "Subsampling" line of
/// Figure 10 — the reference MRS is compared against, not an engine path.
pub fn subsampling_train<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    buffer_size: usize,
    step_size: StepSizeSchedule,
    convergence: ConvergenceTest,
    seed: u64,
) -> TrainedModel {
    // One pass to build the without-replacement sample.
    let mut reservoir = ReservoirSampler::new(buffer_size, seed);
    data.scan_tuples(&mut |tuple| {
        reservoir.offer(tuple);
    });
    let sample = reservoir.into_items();

    let mut model = task.initial_model();
    let mut history = TrainingHistory::default();
    let started = Instant::now();
    for epoch in 0..convergence.epoch_cap() {
        let epoch_start = Instant::now();
        let alpha = step_size.at(epoch);
        let mut store = DenseModelStore::new(std::mem::take(&mut model));
        for tuple in &sample {
            task.gradient_step(&mut store, tuple, alpha);
            if task.proximal_policy() == ProximalPolicy::PerStep {
                let mut snapshot = store.snapshot();
                task.proximal_step(&mut snapshot, alpha);
                store = DenseModelStore::new(snapshot);
            }
        }
        model = store.into_vec();
        if task.proximal_policy() == ProximalPolicy::PerEpoch {
            task.proximal_step(&mut model, alpha);
        }
        let gradient_duration = epoch_start.elapsed();
        // Loss is still measured over the FULL table: the question Figure 10
        // asks is how well the subsample-trained model does on all the data.
        let loss_start = Instant::now();
        let loss = objective(task, &model, data);
        let loss_duration = loss_start.elapsed();
        history.push(EpochRecord {
            epoch,
            loss,
            duration: epoch_start.elapsed(),
            gradient_duration,
            loss_duration,
            cumulative: started.elapsed(),
            ..EpochRecord::default()
        });
        if let Some(converged) = convergence.verdict(&history.losses()) {
            history.set_converged(converged);
            break;
        }
    }

    TrainedModel {
        task_name: task.name(),
        model,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::LogisticRegressionTask;
    use crate::{ParallelStrategy, ParallelTrainer, Trainer, TrainerConfig, UpdateDiscipline};
    use bismarck_storage::{Column, DataType, ScanOrder, Schema, Table, Value};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Clustered (label-sorted) classification data: the regime MRS targets.
    fn clustered_table(n: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Column::new("vec", DataType::DenseVec),
            Column::new("label", DataType::Double),
        ])
        .unwrap();
        let mut t = Table::new("data", schema);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let y = if i < n / 2 { 1.0 } else { -1.0 };
            let x = vec![
                y * 1.5 + rng.gen_range(-0.5..0.5),
                -y + rng.gen_range(-0.5..0.5),
            ];
            t.insert(vec![Value::from(x), Value::Double(y)]).unwrap();
        }
        t
    }

    /// LR that counts its gradient steps, across epochs and workers.
    struct CountingLr {
        inner: LogisticRegressionTask,
        steps: AtomicU64,
    }

    impl IgdTask for CountingLr {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn dimension(&self) -> usize {
            self.inner.dimension()
        }
        fn gradient_step(&self, model: &mut dyn ModelStore, tuple: &Tuple, alpha: f64) {
            self.steps.fetch_add(1, Ordering::Relaxed);
            self.inner.gradient_step(model, tuple, alpha);
        }
        fn example_loss(&self, model: &[f64], tuple: &Tuple) -> f64 {
            self.inner.example_loss(model, tuple)
        }
        fn regularizer(&self, model: &[f64]) -> f64 {
            self.inner.regularizer(model)
        }
    }

    fn lr_task() -> CountingLr {
        CountingLr {
            inner: LogisticRegressionTask::new(0, 1, 2),
            steps: AtomicU64::new(0),
        }
    }

    fn config(epochs: usize) -> TrainerConfig {
        TrainerConfig::default()
            .with_step_size(StepSizeSchedule::Constant(0.1))
            .with_convergence(ConvergenceTest::FixedEpochs(epochs))
    }

    #[test]
    fn reservoir_fills_then_keeps_a_uniform_sample_and_hands_back_the_rest() {
        // Every offered item ends up in the sample or is handed back, once.
        let mut r = ReservoirSampler::new(5, 3);
        let items: Vec<i32> = (0..50).collect();
        let mut handed_back = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match r.offer(item) {
                None => assert!(i < 5, "offer {i} filled an empty slot"),
                Some(out) => handed_back.push(out.into_owned()),
            }
        }
        let mut all = r.into_items();
        assert_eq!(all.len(), 5);
        all.extend(handed_back);
        all.sort_unstable();
        assert_eq!(all, items);

        // A zero-capacity reservoir keeps nothing.
        let mut r = ReservoirSampler::new(0, 1);
        assert!(matches!(r.offer(&5), Some(Cow::Borrowed(&5))));
        assert!(r.into_items().is_empty());

        // Both halves of the stream are kept at comparable rates: a sampler
        // biased to the head (or the tail) fails this.
        let mut first_half = 0usize;
        for seed in 0..200u64 {
            let mut r = ReservoirSampler::new(10, seed);
            for i in 0..100 {
                r.offer(&i);
            }
            first_half += r.into_items().iter().filter(|&&i| i < 50).count();
        }
        let frac = first_half as f64 / 2000.0;
        assert!((0.42..=0.58).contains(&frac), "first-half fraction {frac}");
    }

    /// An item that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted<'c>(&'c AtomicU64);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::Relaxed);
            Counted(self.0)
        }
    }

    #[test]
    fn reservoir_clones_only_the_offers_it_keeps() {
        let clones = AtomicU64::new(0);
        let items: Vec<Counted> = (0..1000).map(|_| Counted(&clones)).collect();
        let mut r = ReservoirSampler::new(10, 7);
        let mut kept = 0;
        let mut rejected = 0;
        for item in &items {
            match r.offer(item) {
                None | Some(Cow::Owned(_)) => kept += 1,
                Some(Cow::Borrowed(back)) => {
                    // The caller's own item, not a copy of it.
                    assert!(std::ptr::eq(back, item));
                    rejected += 1;
                }
            }
        }
        assert_eq!(clones.load(Ordering::Relaxed), kept);
        assert!(
            kept >= 10 && rejected > 0,
            "{kept} kept, {rejected} rejected"
        );
        assert_eq!(kept + rejected, 1000);
    }

    #[test]
    fn mrs_reduces_loss_and_reports_stats() {
        let table = clustered_table(400, 3);
        let task = lr_task();
        let strategy = ParallelStrategy::Mrs {
            buffer_size: 40,
            seed: 7,
        };
        let trainer = Trainer::new(&task, config(5));
        let zero_loss = trainer.objective(&task.initial_model(), &table);
        let (trained, stats) = ParallelTrainer::new(&task, config(5), strategy).train(&table);
        assert!(trained.final_loss().unwrap() < zero_loss * 0.7);
        // Every pass, the I/O Worker steps on the n − m rows its reservoir
        // drops; every pass but the first, the Memory Worker sweeps the m
        // buffered ones at least once.
        let steps = task.steps.load(Ordering::Relaxed);
        assert!(steps >= 5 * (400 - 40) + 4 * 40, "{steps} steps");
        assert_eq!(stats.len(), 5);
        assert_eq!(trained.epochs(), 5);
        // The loss pass runs on a quiescent model: what the history reports
        // is the objective of the model handed back.
        assert_eq!(
            trainer.objective(&trained.model, &table).to_bits(),
            trained.final_loss().unwrap().to_bits()
        );
    }

    #[test]
    fn mrs_without_memory_worker_still_trains() {
        // `buffer_size: 0` is the I/O Worker alone: one step per row and
        // pass, and bit for bit the NoLock pass of one worker.
        let table = clustered_table(200, 5);
        let task = lr_task();
        let strategy = ParallelStrategy::Mrs {
            buffer_size: 0,
            seed: 1,
        };
        let (trained, _) = ParallelTrainer::new(&task, config(3), strategy).train(&table);
        assert_eq!(task.steps.load(Ordering::Relaxed), 3 * 200);
        assert!(trained.final_loss().unwrap().is_finite());

        let one_nolock_worker = ParallelStrategy::SharedMemory {
            workers: 1,
            discipline: UpdateDiscipline::NoLock,
        };
        let clustered = config(3).with_scan_order(ScanOrder::Clustered);
        let (nolock, _) = ParallelTrainer::new(&task, clustered, one_nolock_worker).train(&table);
        assert_eq!(trained.model, nolock.model);
        assert_eq!(trained.history.losses(), nolock.history.losses());
    }

    #[test]
    fn subsampling_trains_only_on_the_sample() {
        let table = clustered_table(300, 9);
        let task = lr_task();
        let trained = subsampling_train(
            &task,
            &table,
            30,
            StepSizeSchedule::Constant(0.1),
            ConvergenceTest::FixedEpochs(10),
            11,
        );
        assert_eq!(trained.epochs(), 10);
        assert!(trained.final_loss().unwrap().is_finite());
        // Every epoch is timed: its gradient pass inside its duration, and the
        // run's clock covering all the epochs before it.
        let mut elapsed = Duration::ZERO;
        for record in trained.history.records() {
            assert!(record.gradient_duration > Duration::ZERO, "{record:?}");
            assert!(record.duration >= record.gradient_duration, "{record:?}");
            elapsed += record.duration;
            assert!(record.cumulative >= elapsed, "{record:?}");
        }
    }

    #[test]
    fn mrs_converges_at_least_as_well_as_subsampling_on_clustered_data() {
        let table = clustered_table(600, 13);
        let task = lr_task();
        let epochs = 6;
        let buffer = 60;
        let strategy = ParallelStrategy::Mrs {
            buffer_size: buffer,
            seed: 21,
        };
        let (mrs, _) = ParallelTrainer::new(&task, config(epochs), strategy).train(&table);
        let sub = subsampling_train(
            &task,
            &table,
            buffer,
            StepSizeSchedule::Constant(0.1),
            ConvergenceTest::FixedEpochs(epochs),
            21,
        );
        // MRS uses strictly more data per pass, so after the same number of
        // passes it should not be meaningfully worse.
        assert!(mrs.final_loss().unwrap() <= sub.final_loss().unwrap() * 1.1);
    }
}
