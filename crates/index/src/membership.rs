//! Precomputed region-membership rings for the Monte Carlo loop.
//!
//! The key observation (DESIGN.md §5): across simulated worlds the
//! *locations* never change — only the labels do. Therefore `n(R)` is
//! world-invariant and only `p(R)` needs recomputation. Enumerating
//! each region's member ids once turns a world evaluation into a dense
//! sweep `p(R) = Σ labels[id]` over cached, sorted id lists against a
//! label bitset that fits in cache.
//!
//! The lists hold whatever ids the visitor enumerates, and the label
//! bitset must be indexed the same way. A scan engine enumerates
//! through a view that reports each point's Morton position, so its
//! lists hold positions in its world layout.
//!
//! # Containment deltas
//!
//! Scan families are nested: the paper's squares are centre-major with
//! increasing side lengths (and `circles` likewise by radius), so each
//! region is the previous one plus a thin ring. At build time region
//! `r`'s *parent* is `r − 1` when `r − 1`'s member list is a non-empty
//! subset of `r`'s; its *ring* is then `members(r) \ members(r − 1)`,
//! and otherwise (a *root*) its ring is its whole list. A world sweep
//! computes `p(r) = p(parent) + Σ labels[ring(r)]` in region order,
//! reading each ring once instead of every full list. The rule reads
//! only the sorted lists, never geometry; partitions such as grid cells
//! get no parents and sweep their full lists. Counts are exact integer
//! sums, so every `p(R)` is the same number the full lists give.
//!
//! Only the rings and `n(R)` are kept: the build holds two full lists
//! at a time (the previous region's and the current one's) and drops
//! them once the ring is taken.

use crate::{blocked::BlockedBuildError, labels::BitLabels, PointVisit};
use sfgeo::Region;

/// Per-region member rings with world-invariant `n(R)` counts: the
/// containment-delta plan the per-world sweep counts through (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Membership {
    /// Whether region `r − 1` is region `r`'s parent.
    nested: Vec<bool>,
    /// Ring CSR: `ring_offsets[r]..ring_offsets[r+1]` indexes
    /// `ring_ids` (a root region's ring is its full member list).
    ring_offsets: Vec<u64>,
    ring_ids: Vec<u32>,
    /// `n(R)`, the full member count of region `r`.
    region_n: Vec<u64>,
    num_points: usize,
}

impl Membership {
    /// Enumerates each region's members through any id-enumerating
    /// index, validates the full list, and keeps its ring: one sorted
    /// merge against the previous region's list decides the parent.
    ///
    /// # Errors
    /// [`BlockedBuildError::DuplicateId`] for the first region whose
    /// enumeration repeats an id, and
    /// [`BlockedBuildError::IdOutOfRange`] for one that enumerates an
    /// id `>= num_points`. Validating here — once, at construction — is
    /// what lets the per-world hot loop ([`BitLabels::count_at`]) trust
    /// every ring, which holds no id its full list did not.
    pub fn build<I: PointVisit + ?Sized>(
        index: &I,
        num_points: usize,
        regions: &[Region],
    ) -> Result<Self, BlockedBuildError> {
        let mut m = Membership {
            nested: Vec::with_capacity(regions.len()),
            ring_offsets: Vec::with_capacity(regions.len() + 1),
            ring_ids: Vec::new(),
            region_n: Vec::with_capacity(regions.len()),
            num_points,
        };
        m.ring_offsets.push(0);
        // The previous region's full list and the current one's: the
        // only full lists the build ever holds.
        let (mut prev, mut list) = (Vec::new(), Vec::new());
        for (r, region) in regions.iter().enumerate() {
            list.clear();
            index.for_each_in(region, &mut |id| list.push(id));
            // Sorted member lists give sequential bitset access.
            list.sort_unstable();
            if let Some(pair) = list.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(BlockedBuildError::DuplicateId {
                    region: r,
                    id: pair[0],
                });
            }
            // Sorted, so the last id is the maximum for this region.
            if let Some(&id) = list.last().filter(|&&id| id as usize >= num_points) {
                return Err(BlockedBuildError::IdOutOfRange {
                    region: r,
                    id,
                    num_points,
                });
            }
            let nested = r > 0 && ring_into(&prev, &list, &mut m.ring_ids);
            if !nested {
                m.ring_ids.extend_from_slice(&list);
            }
            m.nested.push(nested);
            m.ring_offsets.push(m.ring_ids.len() as u64);
            m.region_n.push(list.len() as u64);
            std::mem::swap(&mut prev, &mut list);
        }
        Ok(m)
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.region_n.len()
    }

    /// Number of points the lists refer to.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Region `r`'s parent in the containment-delta plan: `Some(r − 1)`
    /// when `members(r − 1)` is a non-empty subset of `members(r)`.
    pub fn parent(&self, r: usize) -> Option<usize> {
        self.nested[r].then(|| r - 1)
    }

    /// The ids region `r`'s sweep step reads (sorted):
    /// `members(r) \ members(parent)` when it has a parent, otherwise
    /// its full member list.
    pub fn ring(&self, r: usize) -> &[u32] {
        let (s, e) = (
            self.ring_offsets[r] as usize,
            self.ring_offsets[r + 1] as usize,
        );
        &self.ring_ids[s..e]
    }

    /// World-invariant observation count `n(R)` of region `r`.
    pub fn n_of(&self, r: usize) -> u64 {
        self.region_n[r]
    }

    /// Counts `p(R)` for *all* regions against a label set, reusing the
    /// output buffer. This is the per-world hot loop: regions are swept
    /// in order as `out[r] = out[parent] + Σ labels[ring(r)]`, so each
    /// world reads [`Membership::total_ids`] ids.
    pub fn count_all_into(&self, labels: &BitLabels, out: &mut Vec<u64>) {
        assert_eq!(
            labels.len(),
            self.num_points,
            "label set length must match the indexed point count"
        );
        out.clear();
        out.reserve(self.num_regions());
        let mut p = 0u64;
        for r in 0..self.num_regions() {
            if !self.nested[r] {
                p = 0;
            }
            p += labels.count_at(self.ring(r));
            out.push(p);
        }
    }

    /// Ids one [`Membership::count_all_into`] sweep reads: the sum of
    /// ring lengths. Without nesting this is `Σ n(R)`.
    pub fn total_ids(&self) -> usize {
        self.ring_ids.len()
    }
}

/// Appends `outer \ inner` to `ring` and returns `true` when the sorted
/// list `inner` is a non-empty subset of `outer`; otherwise leaves
/// `ring` as it was and returns `false`. One merge over both lists.
fn ring_into(inner: &[u32], outer: &[u32], ring: &mut Vec<u32>) -> bool {
    if inner.is_empty() || inner.len() > outer.len() {
        return false;
    }
    let start = ring.len();
    let mut rest = inner;
    for &id in outer {
        match rest.first() {
            Some(&next) if next == id => rest = &rest[1..],
            Some(&next) if next < id => break,
            _ => ring.push(id),
        }
    }
    if rest.is_empty() {
        true
    } else {
        ring.truncate(start);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceIndex, RangeCount};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Circle, Point, Rect};

    fn setup() -> (BruteForceIndex, Vec<Region>, usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 1000;
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let labels = BitLabels::from_fn(n, |_| rng.gen_bool(0.5));
        let idx = BruteForceIndex::build(points, labels);
        let mut regions: Vec<Region> = Vec::new();
        for _ in 0..30 {
            let cx = rng.gen_range(0.0..10.0);
            let cy = rng.gen_range(0.0..10.0);
            regions.push(Rect::square(Point::new(cx, cy), rng.gen_range(0.5..4.0)).into());
        }
        regions.push(Circle::new(Point::new(5.0, 5.0), 2.0).into());
        (idx, regions, n)
    }

    #[test]
    fn n_counts_match_direct_queries() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions).unwrap();
        assert_eq!(mem.num_regions(), regions.len());
        for (r_idx, region) in regions.iter().enumerate() {
            let direct = idx.count(region);
            assert_eq!(mem.n_of(r_idx), direct.n, "n mismatch for region {r_idx}");
        }
    }

    #[test]
    fn alternate_world_counts_match_requery() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut out = Vec::new();
        for _ in 0..5 {
            let world = BitLabels::from_fn(n, |_| rng.gen_bool(0.62));
            mem.count_all_into(&world, &mut out);
            assert_eq!(out.len(), regions.len());
            for (r_idx, region) in regions.iter().enumerate() {
                assert_eq!(
                    out[r_idx],
                    idx.count_with(region, &world).p,
                    "region {r_idx}"
                );
            }
        }
        // Buffer reuse: a second call must not grow.
        let cap = out.capacity();
        mem.count_all_into(&BitLabels::zeros(n), &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn rings_are_sorted_and_unique() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions).unwrap();
        for r in 0..mem.num_regions() {
            let ring = mem.ring(r);
            assert!(
                ring.windows(2).all(|w| w[0] < w[1]),
                "region {r} not sorted/unique"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_label_length_rejected() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions).unwrap();
        mem.count_all_into(&BitLabels::zeros(n + 1), &mut Vec::new());
    }

    /// An index that enumerates a fixed id list for every region.
    struct FixedIndex(&'static [u32]);

    impl PointVisit for FixedIndex {
        fn for_each_in(&self, _region: &Region, visit: &mut dyn FnMut(u32)) {
            self.0.iter().for_each(|&id| visit(id));
        }
    }

    #[test]
    fn invalid_enumerations_are_rejected_at_construction() {
        let regions: Vec<Region> = vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0).into(); 2];
        let err = Membership::build(&FixedIndex(&[3, 1000]), 10, &regions).unwrap_err();
        let num_points = 10;
        assert_eq!(
            err,
            BlockedBuildError::IdOutOfRange {
                region: 0,
                id: 1000,
                num_points
            }
        );
        let err = Membership::build(&FixedIndex(&[7, 3, 7]), 10, &regions).unwrap_err();
        assert_eq!(err, BlockedBuildError::DuplicateId { region: 0, id: 7 });
    }

    #[test]
    fn empty_regions_have_zero_counts() {
        let (idx, _, n) = setup();
        let far: Vec<Region> = vec![Rect::from_coords(99.0, 99.0, 100.0, 100.0).into()];
        let mem = Membership::build(&idx, n, &far).unwrap();
        assert_eq!(mem.n_of(0), 0);
        let mut out = Vec::new();
        mem.count_all_into(&BitLabels::from_fn(n, |_| true), &mut out);
        assert_eq!(out, [0]);
    }

    #[test]
    fn nested_squares_chain_and_partitions_do_not() {
        let (idx, _, n) = setup();
        let c = Point::new(5.0, 5.0);
        let regions: Vec<Region> = vec![
            Rect::square(c, 1.0).into(),
            Rect::square(c, 2.0).into(),
            Rect::square(c, 2.0).into(),
            Rect::square(c, 4.0).into(),
            // Smaller than its predecessor, then a disjoint neighbour.
            Rect::square(c, 3.0).into(),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0).into(),
        ];
        let mem = Membership::build(&idx, n, &regions).unwrap();
        let parents: Vec<_> = (0..regions.len()).map(|r| mem.parent(r)).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), None, None]);
        assert!(
            mem.ring(2).is_empty(),
            "identical lists leave an empty ring"
        );
        // Full lists from the brute-force enumeration, the oracle.
        for (r, region) in regions.iter().enumerate() {
            let mut full: Vec<u32> = mem.ring(r).to_vec();
            if let Some(p) = mem.parent(r) {
                full.extend(idx.ids_in(&regions[p]));
                full.sort_unstable();
            }
            assert_eq!(full, idx.ids_in(region), "region {r}");
        }
        let rings: usize = (0..regions.len()).map(|r| mem.ring(r).len()).sum();
        assert_eq!(mem.total_ids(), rings);
        assert!(mem.total_ids() < (0..regions.len()).map(|r| mem.n_of(r) as usize).sum());
    }

    #[test]
    fn ring_merge_rejects_non_subsets() {
        let mut ring = vec![7];
        assert!(ring_into(&[2, 5], &[1, 2, 3, 5], &mut ring));
        assert_eq!(ring, [7, 1, 3]);
        for (inner, outer) in [
            (&[][..], &[1, 2][..]),
            (&[1, 2, 3][..], &[1, 2][..]),
            (&[2, 4][..], &[1, 2, 3, 5][..]),
            (&[6][..], &[1, 2, 3, 5][..]),
        ] {
            assert!(!ring_into(inner, outer, &mut ring), "{inner:?} ⊄ {outer:?}");
            assert_eq!(
                ring,
                [7, 1, 3],
                "a rejected merge leaves the ring untouched"
            );
        }
    }
}
