//! Spatial range-count indexes for spatial-fairness auditing.
//!
//! The paper's complexity analysis (§3) is `O(M · N · Q)` where `Q` is
//! "the average cost of a spatial range-count query". This crate
//! answers *"how many observations — and how many positives — fall in
//! region `R`?"* with one spatial index and its test oracle:
//!
//! * [`KdTree`] — median-split kd-tree with per-node `(n, p)`
//!   aggregates; prunes whole subtrees when a node's box is fully
//!   inside/outside the query region. The default backend.
//! * [`BruteForceIndex`] — the oracle the kd-tree is tested against;
//!   `O(N)` per query.
//!
//! Alongside the index:
//!
//! * [`SummedAreaTable`] — `O(1)` *exact* counts for grid-aligned cell
//!   ranges (the paper's §4.2 grid partitionings).
//! * [`Membership`] — precomputed region→member-id lists that make the
//!   Monte Carlo loop cheap: `n(R)` never changes across worlds, so
//!   each world only recounts `p(R)` against a fresh label bitset —
//!   and a nested region only its ring, adding its parent's count.
//! * [`BlockedMembership`] — the membership rings compiled into
//!   word-aligned `(block, mask)` popcnt runs over the [`BitLabels`]
//!   block array (with a Morton-order id layout, [`morton_layout`],
//!   that packs compact regions into dense masks), turning the
//!   per-world recount into ~64-ids-per-instruction popcounts.
//!
//! The audit queries the index once per region at prepare time, to
//! list its members, and counts every simulated world through the
//! membership rings and masks; only the `Requery` counting strategy
//! (the test oracle for those paths) queries the index per world.
//!
//! Labels are stored out-of-band in a [`BitLabels`] bitset so the same
//! spatial structure serves both the real world and the simulated ones.
//!
//! # Example
//!
//! ```rust
//! use sfgeo::{Point, Rect, Region};
//! use sfindex::{BitLabels, KdTree, RangeCount};
//!
//! let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0), Point::new(5.0, 5.0)];
//! let labels = BitLabels::from_bools(&[true, false, true]);
//! let index = KdTree::build(points, labels);
//!
//! let region: Region = Rect::from_coords(-1.0, -1.0, 2.0, 2.0).into();
//! let counts = index.count(&region);
//! assert_eq!((counts.n, counts.p), (2, 1)); // two points inside, one positive
//! ```

pub mod blocked;
pub mod brute;
pub mod kdtree;
pub mod kernel;
pub mod labels;
pub mod membership;
pub mod sat;
pub mod substrate;

pub use blocked::{
    morton_layout, shard_word_bounds, BlockedBuildError, BlockedMembership, MAX_FUSED_WORLDS,
};
pub use brute::BruteForceIndex;
pub use kdtree::KdTree;
pub use kernel::{CountingKernel, KernelSelect, ParseKernelError};
pub use labels::BitLabels;
pub use membership::Membership;
pub use sat::SummedAreaTable;
pub use substrate::{CountingSubstrate, IndexBackend, ParseBackendError, Substrate};

use sfgeo::Region;

/// A pair of counts for a region: observations and positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CountPair {
    /// Number of observations (`n(R)` in the paper).
    pub n: u64,
    /// Number of positive observations (`p(R)` in the paper).
    pub p: u64,
}

impl CountPair {
    /// Creates a count pair.
    ///
    /// # Panics
    /// Panics if `p > n`.
    #[inline]
    pub fn new(n: u64, p: u64) -> Self {
        assert!(p <= n, "positives ({p}) cannot exceed observations ({n})");
        CountPair { n, p }
    }

    /// Component-wise addition.
    #[inline]
    pub fn add(&mut self, other: CountPair) {
        self.n += other.n;
        self.p += other.p;
    }
}

impl std::ops::Add for CountPair {
    type Output = CountPair;
    fn add(self, rhs: CountPair) -> CountPair {
        CountPair {
            n: self.n + rhs.n,
            p: self.p + rhs.p,
        }
    }
}

/// A spatial structure that can count observations and positives in a
/// region, with labels fixed at build time.
pub trait RangeCount {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Returns `true` if no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals over the whole dataset (`N`, `P`).
    fn total(&self) -> CountPair;

    /// Counts observations and positives in `region` (`n(R)`, `p(R)`).
    fn count(&self, region: &Region) -> CountPair;
}

/// A spatial structure that can enumerate the point ids in a region.
///
/// Used to materialise [`Membership`] lists for the Monte Carlo loop
/// and to recount positives against alternate-world labels.
pub trait PointVisit {
    /// Invokes `visit` with the id of every point whose location lies
    /// inside `region`. Order is unspecified.
    fn for_each_in(&self, region: &Region, visit: &mut dyn FnMut(u32));

    /// Collects (sorted) ids of the points inside `region`.
    fn ids_in(&self, region: &Region) -> Vec<u32> {
        let mut ids = Vec::new();
        self.for_each_in(region, &mut |id| ids.push(id));
        ids.sort_unstable();
        ids
    }

    /// Counts observations and positives in `region` against an
    /// *external* label set (as used in simulated worlds).
    fn count_with(&self, region: &Region, labels: &BitLabels) -> CountPair {
        let mut n = 0u64;
        let mut p = 0u64;
        self.for_each_in(region, &mut |id| {
            n += 1;
            p += labels.get(id as usize) as u64;
        });
        CountPair { n, p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_pair_add() {
        let mut a = CountPair::new(10, 4);
        a.add(CountPair::new(5, 5));
        assert_eq!(a, CountPair::new(15, 9));
        let b = CountPair::new(1, 0) + CountPair::new(2, 2);
        assert_eq!(b, CountPair::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn count_pair_validates() {
        let _ = CountPair::new(3, 4);
    }
}
