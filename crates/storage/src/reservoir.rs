//! Reservoir sampling (Vitter's Algorithm R), as described in Section 3.4.
//!
//! Given an in-memory buffer of size `m`, one pass over `N ≥ m` items yields
//! a uniform without-replacement sample of size `m`. The multiplexed
//! reservoir sampling (MRS) scheme additionally needs to know, for every
//! offered item, whether it was *kept* (displacing a previous occupant) or
//! *dropped*, because the I/O worker performs a gradient step on exactly the
//! tuples that do not enter the buffer.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Outcome of offering one item to the reservoir.
#[derive(Debug, Clone, PartialEq)]
pub enum ReservoirOutcome<T> {
    /// The item was stored in the (not yet full) reservoir.
    StoredInEmptySlot,
    /// The item replaced a previous occupant, which is returned.
    Replaced(T),
    /// The item was not admitted to the reservoir and is returned.
    Rejected(T),
}

/// A fixed-capacity uniform without-replacement sampler.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    capacity: usize,
    seen: usize,
    items: Vec<T>,
    rng: StdRng,
}

impl<T> ReservoirSampler<T> {
    /// Create a sampler holding at most `capacity` items, using a seeded RNG
    /// so experiments are reproducible.
    pub fn new(capacity: usize, seed: u64) -> Self {
        ReservoirSampler {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Buffer capacity `m`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items offered so far (`N` after a full pass).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Number of items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume the sampler and return the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Offer one item. Follows the paper's description: read the first `m`
    /// items into the reservoir; for the `k`-th additional item pick a random
    /// integer `s` in `[0, m + k)` and keep the item at slot `s` if `s < m`.
    pub fn offer(&mut self, item: T) -> ReservoirOutcome<T> {
        self.seen += 1;
        if self.capacity == 0 {
            return ReservoirOutcome::Rejected(item);
        }
        if self.items.len() < self.capacity {
            self.items.push(item);
            return ReservoirOutcome::StoredInEmptySlot;
        }
        let s = self.rng.gen_range(0..self.seen);
        if s < self.capacity {
            let old = std::mem::replace(&mut self.items[s], item);
            ReservoirOutcome::Replaced(old)
        } else {
            ReservoirOutcome::Rejected(item)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_samples() {
        let mut r = ReservoirSampler::new(3, 42);
        for i in 0..3 {
            assert_eq!(r.offer(i), ReservoirOutcome::StoredInEmptySlot);
        }
        assert_eq!(r.len(), 3);
        let outcome = r.offer(99);
        match outcome {
            ReservoirOutcome::Replaced(_) | ReservoirOutcome::Rejected(99) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(r.seen(), 4);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut r = ReservoirSampler::new(0, 1);
        assert_eq!(r.offer(5), ReservoirOutcome::Rejected(5));
        assert!(r.is_empty());
    }

    #[test]
    fn sample_size_never_exceeds_capacity() {
        let mut r = ReservoirSampler::new(10, 7);
        for i in 0..1000 {
            r.offer(i);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 1000);
        // All retained items are from the offered universe.
        assert!(r.items().iter().all(|&i| i < 1000));
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Offer 0..100 into a reservoir of 10 many times and check that both
        // halves of the stream are retained at comparable rates: a biased
        // sampler (e.g. one that always keeps the head) fails this test.
        let mut first_half = 0usize;
        let mut second_half = 0usize;
        for seed in 0..200u64 {
            let mut r = ReservoirSampler::new(10, seed);
            for i in 0..100 {
                r.offer(i);
            }
            for &item in r.items() {
                if item < 50 {
                    first_half += 1;
                } else {
                    second_half += 1;
                }
            }
        }
        let total = (first_half + second_half) as f64;
        let frac = first_half as f64 / total;
        assert!((0.42..=0.58).contains(&frac), "first-half fraction {frac}");
    }

    #[test]
    fn outcomes_partition_the_stream() {
        let mut r = ReservoirSampler::new(5, 3);
        let mut kept_elsewhere = Vec::new();
        for i in 0..50 {
            match r.offer(i) {
                ReservoirOutcome::StoredInEmptySlot => {}
                ReservoirOutcome::Replaced(old) => kept_elsewhere.push(old),
                ReservoirOutcome::Rejected(item) => kept_elsewhere.push(item),
            }
        }
        // Every offered item is either in the reservoir or was handed back.
        let mut all: Vec<i32> = r.items().to_vec();
        all.extend(kept_elsewhere);
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn into_items_returns_buffer() {
        let mut r = ReservoirSampler::new(2, 11);
        r.offer("a");
        r.offer("b");
        let items = r.into_items();
        assert_eq!(items.len(), 2);
    }
}
