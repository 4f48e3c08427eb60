//! Scan orders and segmentation.
//!
//! Section 3.2 of the paper studies three ways to order the tuples an IGD
//! epoch visits:
//!
//! * **Clustered** — the order the data is stored on disk (often pathological,
//!   e.g. sorted by class label);
//! * **ShuffleOnce** — one random permutation drawn before the first epoch and
//!   reused for every epoch (the paper's recommended policy);
//! * **ShuffleAlways** — a fresh random permutation before every epoch (best
//!   per-epoch convergence, but the reshuffle dominates runtime).
//!
//! [`segment_ranges`] splits a table into contiguous segments for the
//! shared-nothing ("pure UDA") parallelism of Section 3.3, mirroring how a
//! parallel database assigns tuples to segments.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::tuple::Tuple;

/// A tuple source an epoch can stream, independent of physical layout.
///
/// Both the row-store [`crate::Table`] and the chunked
/// [`crate::ColumnarTable`] implement this, so trainers, executors, and the
/// NULL-aggregate baseline are written once against it. The interface is
/// callback-based (rather than returning iterators of `&Tuple`) because a
/// paged columnar table materializes tuples into a scratch row whose
/// borrow cannot outlive one callback invocation.
///
/// # Semantics shared by all implementations
///
/// * `scan_tuples_permuted` silently skips out-of-range row ids, matching
///   `Table::scan_permuted`'s historical behaviour.
/// * `scan_tuples_range` clamps `end` to the row count and `start` to `end`.
///
/// # Panics
///
/// Paged implementations **panic** if a segment read fails mid-scan (I/O
/// error or checksum mismatch) — the trait has no error channel by design,
/// keeping the per-tuple hot path free of `Result` plumbing. The training
/// runtime already wraps epoch bodies in `catch_unwind`, so a torn page
/// surfaces as a worker fault with the last good model preserved.
pub trait TupleScan: Sync {
    /// Number of rows the scan will visit.
    fn tuple_count(&self) -> usize;

    /// Visit rows in storage order until `f` returns `false` or rows run out.
    fn scan_tuples_while(&self, f: &mut dyn FnMut(&Tuple) -> bool);

    /// Visit every row in storage order.
    fn scan_tuples(&self, f: &mut dyn FnMut(&Tuple)) {
        self.scan_tuples_while(&mut |t| {
            f(t);
            true
        });
    }

    /// Visit rows in the order given by `order`, skipping invalid ids.
    fn scan_tuples_permuted(&self, order: &[usize], f: &mut dyn FnMut(&Tuple));

    /// Visit rows in `start..end` (clamped) in storage order.
    fn scan_tuples_range(&self, start: usize, end: usize, f: &mut dyn FnMut(&Tuple));
}

/// The order in which an epoch visits the rows of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Visit rows in storage (clustered / insertion) order.
    Clustered,
    /// Shuffle the rows once with the given seed and reuse that permutation
    /// for every epoch.
    ShuffleOnce {
        /// RNG seed so experiments are reproducible.
        seed: u64,
    },
    /// Draw a fresh permutation before every epoch, seeded from `seed` and
    /// the epoch number.
    ShuffleAlways {
        /// Base RNG seed; epoch `e` uses `seed + e`.
        seed: u64,
    },
}

impl ScanOrder {
    /// Produce the row-visit order for `epoch` over a table of `len` rows.
    ///
    /// Returns `None` for [`ScanOrder::Clustered`], signalling that callers
    /// should use the table's native scan (which avoids materializing a
    /// permutation); otherwise returns the explicit permutation.
    pub fn permutation(&self, len: usize, epoch: usize) -> Option<Vec<usize>> {
        match self {
            ScanOrder::Clustered => None,
            ScanOrder::ShuffleOnce { seed } => Some(shuffled_indices(len, *seed)),
            ScanOrder::ShuffleAlways { seed } => {
                Some(shuffled_indices(len, seed.wrapping_add(epoch as u64)))
            }
        }
    }

    /// Human-readable name used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ScanOrder::Clustered => "Clustered",
            ScanOrder::ShuffleOnce { .. } => "ShuffleOnce",
            ScanOrder::ShuffleAlways { .. } => "ShuffleAlways",
        }
    }
}

/// A uniformly random permutation of `0..len` produced with a seeded RNG.
pub fn shuffled_indices(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    order
}

/// Split `len` rows into `segments` contiguous `[start, end)` ranges whose
/// sizes differ by at most one; empty ranges are produced when there are more
/// segments than rows. Zero segments yields an empty vector.
pub fn segment_ranges(len: usize, segments: usize) -> Vec<(usize, usize)> {
    if segments == 0 {
        return Vec::new();
    }
    let base = len / segments;
    let extra = len % segments;
    let mut ranges = Vec::with_capacity(segments);
    let mut start = 0;
    for s in 0..segments {
        let size = base + usize::from(s < extra);
        ranges.push((start, start + size));
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn clustered_has_no_permutation_and_never_shuffles() {
        let order = ScanOrder::Clustered;
        assert!(order.permutation(10, 0).is_none());
        assert_eq!(order.label(), "Clustered");
    }

    #[test]
    fn shuffle_once_is_stable_across_epochs() {
        let order = ScanOrder::ShuffleOnce { seed: 7 };
        let p0 = order.permutation(100, 0).unwrap();
        let p5 = order.permutation(100, 5).unwrap();
        assert_eq!(p0, p5);
    }

    #[test]
    fn shuffle_always_differs_across_epochs() {
        let order = ScanOrder::ShuffleAlways { seed: 7 };
        let p0 = order.permutation(100, 0).unwrap();
        let p1 = order.permutation(100, 1).unwrap();
        assert_ne!(p0, p1);
    }

    #[test]
    fn permutations_are_valid() {
        for seed in 0..5u64 {
            let p = shuffled_indices(50, seed);
            let set: BTreeSet<usize> = p.iter().copied().collect();
            assert_eq!(set.len(), 50);
            assert_eq!(*set.iter().next().unwrap(), 0);
            assert_eq!(*set.iter().last().unwrap(), 49);
        }
    }

    #[test]
    fn same_seed_same_permutation() {
        assert_eq!(shuffled_indices(32, 3), shuffled_indices(32, 3));
        assert_ne!(shuffled_indices(32, 3), shuffled_indices(32, 4));
    }

    #[test]
    fn segments_cover_and_balance() {
        let ranges = segment_ranges(10, 3);
        assert_eq!(ranges, vec![(0, 4), (4, 7), (7, 10)]);
        let total: usize = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 10);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn segments_edge_cases() {
        assert!(segment_ranges(10, 0).is_empty());
        let ranges = segment_ranges(2, 4);
        assert_eq!(ranges.len(), 4);
        let nonempty: usize = ranges.iter().filter(|(s, e)| e > s).count();
        assert_eq!(nonempty, 2);
        assert_eq!(segment_ranges(0, 3), vec![(0, 0), (0, 0), (0, 0)]);
    }
}
