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
//!   [`TupleScan`]: row store, columnar, paged — offers each row to a
//!   reservoir, and performs a gradient step on every row the reservoir
//!   does *not* keep (the "dropped example d" of Figure 6). The reservoir
//!   (Vitter's Algorithm R, private to this module) is offered each row
//!   where the block stores it ([`bismarck_storage::RowRef`]) and owns only
//!   the rows it keeps (`RowRef::to_tuple`): a rejected row is stepped on in
//!   place, an evicted occupant is handed back owned;
//! * the **Memory Worker** lives for that scan only (which starts once the
//!   worker's thread runs, so that even a table crossed faster than a thread
//!   starts is multiplexed; a scan that panics still ends the sweeps): it
//!   sweeps the buffer the *previous* pass filled,
//!   stepping on that without-replacement sample at the same epoch's step
//!   size, until the scan ends — and always finishes the sweep it is in, so
//!   a non-empty buffer is swept at least once per pass however the two
//!   threads are scheduled, with no timed wait;
//! * both update a model in shared memory with NoLock (Hogwild!) updates —
//!   clones of one `NoLockStore` (`model.rs`);
//! * after the pass the buffers swap: the sample just drawn is what the next
//!   pass's Memory Worker sweeps.
//!
//! The two workers are the two parts of one [`run_parts`] call, the runner
//! every pass goes through: the I/O Worker on the calling thread, the Memory
//! Worker on a thread of its own, each isolated from the other's panic.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use bismarck_storage::{RowBlock, StorageError, Tuple, TupleScan};
use bismarck_uda::{
    run_parts, scan_blocks_while, ConvergenceTest, EpochRecord, PassError, TrainingHistory,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{DenseModelStore, ModelStore, NoLockStore};
use crate::parallel::lock_free_proximal_step;
use crate::stepsize::StepSizeSchedule;
use crate::task::{IgdTask, ProximalPolicy};
use crate::trainer::{objective, TrainedModel};

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

/// What an offer to a full reservoir leaves out of the buffer.
#[derive(Debug, PartialEq)]
enum Left<B, T> {
    /// The offered item itself, as it was offered.
    Rejected(B),
    /// The occupant the offered item displaced.
    Evicted(T),
}

impl<T> ReservoirSampler<T> {
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
    /// made an owned one, by `own`. Returns what stays out of the buffer:
    /// `None` when the item filled an empty slot.
    fn offer<B>(&mut self, item: B, own: impl FnOnce(B) -> T) -> Option<Left<B, T>> {
        self.seen += 1;
        if self.capacity == 0 {
            return Some(Left::Rejected(item));
        }
        if self.items.len() < self.capacity {
            self.items.push(own(item));
            return None;
        }
        let s = self.rng.gen_range(0..self.seen);
        if s < self.capacity {
            Some(Left::Evicted(std::mem::replace(
                &mut self.items[s],
                own(item),
            )))
        } else {
            Some(Left::Rejected(item))
        }
    }

    /// The sample.
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// The model an MRS pass stepped to, and the sample its reservoir kept.
pub(crate) type SteppedAndKept = (Vec<f64>, Vec<Tuple>);

/// The two workers of an MRS pass.
enum Worker {
    Io,
    Memory,
}

/// Clears the flag it holds when dropped — on unwinding too, so a Memory
/// Worker sweeping "until the scan ends" is never left waiting on a scan
/// that panicked.
struct ClearOnDrop<'a>(&'a AtomicBool);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// One MRS epoch (Figure 6) from `model` at step size `alpha`: `buffer` is
/// the sample the previous pass kept, and the pass fills a reservoir of
/// `capacity` rows drawn with `seed`. Returns the stepped model and the
/// sample this pass kept; `keep_going` is polled between the blocks of the
/// scan.
///
/// The pass is `[I/O Worker, Memory Worker]` on [`run_parts`]: the I/O
/// Worker on the calling thread, the Memory Worker (only if there is a
/// buffer to sweep) on a thread of its own.
pub(crate) fn run_mrs_epoch<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    model: &[f64],
    alpha: f64,
    buffer: &[Tuple],
    (capacity, seed): (usize, u64),
    keep_going: &(dyn Fn() -> bool + Sync),
) -> Result<SteppedAndKept, PassError> {
    let shared = NoLockStore::from_slice(model);
    let scanning = AtomicBool::new(true);
    let running = Barrier::new(2);
    let workers: &[Worker] = if buffer.is_empty() {
        &[Worker::Io]
    } else {
        &[Worker::Io, Worker::Memory]
    };
    let multiplexed = workers.len() == 2;
    let kept = run_parts(workers, |worker| {
        let mut store = shared.clone();
        // A small table would be crossed before the other thread starts.
        if multiplexed {
            running.wait();
        }
        match worker {
            Worker::Io => {
                let _scanned = ClearOnDrop(&scanning);
                let mut reservoir = ReservoirSampler::new(capacity, seed);
                let mut step = |block: RowBlock<'_>| {
                    for row in block.rows() {
                        match reservoir.offer(row, |row| row.to_tuple()) {
                            Some(Left::Rejected(row)) => task.gradient_step(&mut store, row, alpha),
                            Some(Left::Evicted(tuple)) => {
                                task.gradient_step(&mut store, (&tuple).into(), alpha)
                            }
                            None => {}
                        }
                    }
                    Ok(true)
                };
                scan_blocks_while(data, 0, usize::MAX, &mut || keep_going(), &mut step)?;
                Ok(reservoir.into_items())
            }
            Worker::Memory => {
                // Sweep, then look: the sweep under way when the scan ends
                // is finished, and there is always one.
                loop {
                    for tuple in buffer {
                        task.gradient_step(&mut store, tuple.into(), alpha);
                    }
                    if !scanning.load(Ordering::Acquire) {
                        break Ok(Vec::new());
                    }
                }
            }
        }
    })?;
    let kept = kept.into_iter().next().expect("the I/O Worker is part 0");
    let mut model = shared.snapshot();
    lock_free_proximal_step(task, &mut model, alpha);
    Ok((model, kept))
}

/// Plain subsampling baseline: fill a reservoir in one pass, then train only
/// on the sample for the remaining epochs. This is the "Subsampling" line of
/// Figure 10 — the reference MRS is compared against, not an engine path.
/// Errors if a block of `data` cannot be read.
pub fn subsampling_train<T: IgdTask, S: TupleScan + ?Sized>(
    task: &T,
    data: &S,
    buffer_size: usize,
    step_size: StepSizeSchedule,
    convergence: ConvergenceTest,
    seed: u64,
) -> Result<TrainedModel, StorageError> {
    // One pass to build the without-replacement sample.
    let mut reservoir = ReservoirSampler::new(buffer_size, seed);
    data.scan_blocks(0, usize::MAX, &mut |block| {
        for row in block.rows() {
            reservoir.offer(row, |row| row.to_tuple());
        }
        true
    })?;
    let sample = reservoir.into_items();

    let mut model = task.initial_model();
    let mut history = TrainingHistory::default();
    let started = Instant::now();
    for epoch in 0..convergence.epoch_cap() {
        let epoch_start = Instant::now();
        let alpha = step_size.at(epoch);
        let mut store = DenseModelStore::new(std::mem::take(&mut model));
        for tuple in &sample {
            task.gradient_step(&mut store, tuple.into(), alpha);
            if task.proximal_policy() == ProximalPolicy::PerStep {
                task.proximal_step(store.as_mut_slice(), alpha);
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
        let loss = objective(task, &model, data)?;
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

    Ok(TrainedModel {
        task_name: task.name(),
        model,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::LogisticRegressionTask;
    use crate::{
        ParallelStrategy, ParallelTrainer, TrainError, Trainer, TrainerConfig, UpdateDiscipline,
    };
    use bismarck_storage::{Column, DataType, RowRef, ScanOrder, Schema, Table, Value};
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
        fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
            self.steps.fetch_add(1, Ordering::Relaxed);
            self.inner.gradient_step(model, row, alpha);
        }
        fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
            self.inner.example_loss(model, row)
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
            match r.offer(item, Clone::clone) {
                None => assert!(i < 5, "offer {i} filled an empty slot"),
                Some(Left::Rejected(&out) | Left::Evicted(out)) => handed_back.push(out),
            }
        }
        let mut all = r.into_items();
        assert_eq!(all.len(), 5);
        all.extend(handed_back);
        all.sort_unstable();
        assert_eq!(all, items);

        // A zero-capacity reservoir keeps nothing.
        let mut r = ReservoirSampler::new(0, 1);
        assert_eq!(r.offer(&5, Clone::clone), Some(Left::Rejected(&5)));
        assert!(r.into_items().is_empty());

        // Both halves of the stream are kept at comparable rates: a sampler
        // biased to the head (or the tail) fails this.
        let mut first_half = 0usize;
        for seed in 0..200u64 {
            let mut r = ReservoirSampler::new(10, seed);
            for i in 0..100 {
                r.offer(i, |i| i);
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
            match r.offer(item, Clone::clone) {
                None | Some(Left::Evicted(_)) => kept += 1,
                Some(Left::Rejected(back)) => {
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

    /// LR that panics on the thread named `mrs-io` once that thread has
    /// stepped `after` times: in an MRS run started there, on the I/O Worker
    /// alone.
    struct PanicsOnTheScan {
        inner: CountingLr,
        after: u64,
    }

    impl IgdTask for PanicsOnTheScan {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn dimension(&self) -> usize {
            self.inner.dimension()
        }
        fn gradient_step(&self, model: &mut dyn ModelStore, row: RowRef<'_>, alpha: f64) {
            if std::thread::current().name() == Some("mrs-io") {
                let steps = self.inner.steps.fetch_add(1, Ordering::Relaxed);
                assert!(steps < self.after, "the scan failed");
            }
            self.inner.inner.gradient_step(model, row, alpha);
        }
        fn example_loss(&self, model: &[f64], row: RowRef<'_>) -> f64 {
            self.inner.example_loss(model, row)
        }
    }

    #[test]
    fn a_scan_that_panics_beside_a_memory_worker_ends_the_run() {
        // Epoch 0 fills the buffer and steps the I/O Worker 200 − 20 times;
        // epoch 1's scan panics on its first step while the Memory Worker
        // sweeps that buffer "until the scan ends" — which must still come.
        let table = clustered_table(200, 17);
        let task = PanicsOnTheScan {
            inner: lr_task(),
            after: 200 - 20,
        };
        let strategy = ParallelStrategy::Mrs {
            buffer_size: 20,
            seed: 5,
        };
        let (done, result) = std::sync::mpsc::channel();
        let io = std::thread::Builder::new().name("mrs-io".to_string());
        let _run = io
            .spawn(move || {
                let trainer = ParallelTrainer::new(&task, config(3), strategy);
                let err = trainer.try_train(&table).map(|_| ()).unwrap_err();
                done.send(err).unwrap();
            })
            .unwrap();
        let err = result
            .recv_timeout(Duration::from_secs(60))
            .expect("the run ends instead of hanging on the Memory Worker");
        match err {
            TrainError::WorkerPanic {
                epoch,
                failed_workers,
                message,
                last_good,
            } => {
                assert_eq!((epoch, failed_workers), (1, 1));
                assert_eq!(message, "the scan failed");
                assert_eq!(last_good.epochs(), 1);
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
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
        )
        .unwrap();
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
        )
        .unwrap();
        // MRS uses strictly more data per pass, so after the same number of
        // passes it should not be meaningfully worse.
        assert!(mrs.final_loss().unwrap() <= sub.final_loss().unwrap() * 1.1);
    }
}
