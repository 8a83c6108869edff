//! Precomputed region-membership lists for the Monte Carlo loop.
//!
//! The key observation (DESIGN.md §5): across simulated worlds the
//! *locations* never change — only the labels do. Therefore `n(R)` is
//! world-invariant and only `p(R)` needs recomputation. Materialising
//! each region's member ids once turns a world evaluation into a dense
//! sweep `p(R) = Σ labels[id]` over cached, sorted id lists against a
//! label bitset that fits in cache.
//!
//! # Containment deltas
//!
//! Scan families are nested: the paper's squares are centre-major with
//! increasing side lengths (and `circles` likewise by radius), so each
//! region is the previous one plus a thin ring. At build time region
//! `r`'s *parent* is `r − 1` when `r − 1`'s member list is a non-empty
//! subset of `r`'s; its *ring* is then `members(r) \ members(r − 1)`,
//! and otherwise its ring is its whole list. A world sweep computes
//! `p(r) = p(parent) + Σ labels[ring(r)]` in region order, reading each
//! ring once instead of every full list. The rule reads only the sorted
//! lists, never geometry; partitions such as grid cells get no parents
//! and sweep exactly as before. Counts are exact integer sums, so every
//! `p(R)` is the same number the full lists give.

use crate::{labels::BitLabels, CountPair, PointVisit};
use sfgeo::Region;

/// Region→member-ids lists with world-invariant `n(R)` counts, plus the
/// containment-delta plan the per-world sweep counts through (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Membership {
    /// CSR layout: `offsets[r]..offsets[r+1]` indexes `ids`.
    offsets: Vec<u64>,
    ids: Vec<u32>,
    /// Whether region `r − 1` is region `r`'s parent.
    nested: Vec<bool>,
    /// Ring CSR for nested regions: `ring_offsets[r]..ring_offsets[r+1]`
    /// indexes `ring_ids` (an empty range for regions without a parent,
    /// whose ring is their full member list).
    ring_offsets: Vec<u64>,
    ring_ids: Vec<u32>,
    num_points: usize,
}

impl Membership {
    /// Builds membership lists for `regions` using any id-enumerating
    /// index, then derives each region's parent and ring with one
    /// sorted merge against the previous region's list.
    ///
    /// # Panics
    /// Panics if the index enumerates an id `>= num_points`. Validating
    /// here — once, at construction — is what lets the per-world hot
    /// loop ([`BitLabels::count_at`]) index label blocks directly with
    /// no per-id bounds check.
    pub fn build<I: PointVisit + ?Sized>(index: &I, num_points: usize, regions: &[Region]) -> Self {
        let mut offsets = Vec::with_capacity(regions.len() + 1);
        offsets.push(0u64);
        let mut ids: Vec<u32> = Vec::new();
        for (r, region) in regions.iter().enumerate() {
            let before = ids.len();
            index.for_each_in(region, &mut |id| ids.push(id));
            // Sorted member lists give sequential bitset access.
            ids[before..].sort_unstable();
            // Sorted, so the last id is the maximum for this region.
            if let Some(&max_id) = ids.last().filter(|_| ids.len() > before) {
                assert!(
                    (max_id as usize) < num_points,
                    "index enumerated member id {max_id} for region {r}, \
                     but only {num_points} points are indexed"
                );
            }
            offsets.push(ids.len() as u64);
        }
        // The containment-delta plan: one merge against the previous
        // region's list decides the parent and yields the ring.
        let list = |r: usize| &ids[offsets[r] as usize..offsets[r + 1] as usize];
        let mut nested = Vec::with_capacity(regions.len());
        let mut ring_offsets = Vec::with_capacity(regions.len() + 1);
        ring_offsets.push(0u64);
        let mut ring_ids = Vec::new();
        for r in 0..regions.len() {
            nested.push(r > 0 && ring_into(list(r - 1), list(r), &mut ring_ids));
            ring_offsets.push(ring_ids.len() as u64);
        }
        Membership {
            offsets,
            ids,
            nested,
            ring_offsets,
            ring_ids,
            num_points,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of points the lists refer to.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Member ids of region `r` (sorted) — the full list, whatever the
    /// region's parent.
    pub fn members(&self, r: usize) -> &[u32] {
        let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        &self.ids[s..e]
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
        if self.nested[r] {
            let (s, e) = (
                self.ring_offsets[r] as usize,
                self.ring_offsets[r + 1] as usize,
            );
            &self.ring_ids[s..e]
        } else {
            self.members(r)
        }
    }

    /// World-invariant observation count `n(R)` of region `r`.
    pub fn n_of(&self, r: usize) -> u64 {
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Counts `(n(R), p(R))` of region `r` against a label set, reading
    /// its full member list.
    pub fn count(&self, r: usize, labels: &BitLabels) -> CountPair {
        assert_eq!(
            labels.len(),
            self.num_points,
            "label set length must match the indexed point count"
        );
        CountPair {
            n: self.n_of(r),
            p: labels.count_at(self.members(r)),
        }
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
        (0..self.num_regions()).map(|r| self.ring(r).len()).sum()
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
        let mem = Membership::build(&idx, n, &regions);
        assert_eq!(mem.num_regions(), regions.len());
        for (r_idx, region) in regions.iter().enumerate() {
            let direct = idx.count(region);
            assert_eq!(mem.n_of(r_idx), direct.n, "n mismatch for region {r_idx}");
        }
    }

    #[test]
    fn alternate_world_counts_match_requery() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..5 {
            let world = BitLabels::from_fn(n, |_| rng.gen_bool(0.62));
            for (r_idx, region) in regions.iter().enumerate() {
                let by_mem = mem.count(r_idx, &world);
                let by_query = idx.count_with(region, &world);
                assert_eq!(by_mem, by_query, "region {r_idx}");
            }
        }
    }

    #[test]
    fn count_all_into_matches_individual_counts() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions);
        let world = BitLabels::from_fn(n, |i| i % 2 == 0);
        let mut out = Vec::new();
        mem.count_all_into(&world, &mut out);
        assert_eq!(out.len(), regions.len());
        for (r_idx, &p) in out.iter().enumerate() {
            assert_eq!(p, mem.count(r_idx, &world).p);
        }
        // Buffer reuse: second call must not grow.
        let cap = out.capacity();
        mem.count_all_into(&world, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn members_are_sorted_and_unique() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions);
        for r in 0..mem.num_regions() {
            let m = mem.members(r);
            assert!(
                m.windows(2).all(|w| w[0] < w[1]),
                "region {r} not sorted/unique"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_label_length_rejected() {
        let (idx, regions, n) = setup();
        let mem = Membership::build(&idx, n, &regions);
        let bad = BitLabels::zeros(n + 1);
        let _ = mem.count(0, &bad);
    }

    /// An index that enumerates ids past the declared point count —
    /// the construction-time input [`Membership::build`] must reject.
    struct OutOfRangeIndex;

    impl PointVisit for OutOfRangeIndex {
        fn for_each_in(&self, _region: &Region, visit: &mut dyn FnMut(u32)) {
            visit(3);
            visit(1000);
        }
    }

    #[test]
    #[should_panic(expected = "enumerated member id 1000")]
    fn out_of_range_member_id_rejected_at_construction() {
        let regions: Vec<Region> = vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0).into()];
        let _ = Membership::build(&OutOfRangeIndex, 10, &regions);
    }

    #[test]
    fn empty_regions_have_zero_counts() {
        let (idx, _, n) = setup();
        let far: Vec<Region> = vec![Rect::from_coords(99.0, 99.0, 100.0, 100.0).into()];
        let mem = Membership::build(&idx, n, &far);
        assert_eq!(mem.n_of(0), 0);
        let world = BitLabels::from_fn(n, |_| true);
        assert_eq!(mem.count(0, &world), CountPair::default());
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
        let mem = Membership::build(&idx, n, &regions);
        let parents: Vec<_> = (0..regions.len()).map(|r| mem.parent(r)).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), None, None]);
        assert!(
            mem.ring(2).is_empty(),
            "identical lists leave an empty ring"
        );
        for r in 0..regions.len() {
            let mut full: Vec<u32> = mem.ring(r).to_vec();
            if let Some(p) = mem.parent(r) {
                full.extend_from_slice(mem.members(p));
                full.sort_unstable();
            }
            assert_eq!(full, mem.members(r), "region {r}");
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
