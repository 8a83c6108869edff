//! Containment-delta counting: the ring sweep behind
//! [`Membership::count_all_into`], and the ring-compiled masks of
//! [`BlockedMembership::compile`], must give every region the count its
//! full member list gives, on region families that nest, repeat, empty
//! out, shrink, and interleave with partitions.

use proptest::prelude::*;
use sfgeo::{Circle, Point, Rect, Region};
use sfindex::{
    shard_word_bounds, BitLabels, BlockedMembership, CountingKernel, KdTree, Membership,
    MAX_FUSED_WORLDS,
};
use std::collections::HashSet;

/// One run of consecutive regions in a generated family.
#[derive(Debug, Clone)]
enum Piece {
    /// Nested squares at one centre, sides increasing.
    Squares(Point, Vec<f64>),
    /// Nested circles at one centre, radii increasing.
    Circles(Point, Vec<f64>),
    /// The previous region again: identical member sets, empty ring.
    Repeat,
    /// A region no point falls in.
    Empty,
    /// A larger square followed by a smaller one: no parent.
    Shrink(Point, f64, f64),
    /// Cells of a 4×4 partition of the data bounds, from cell `k`.
    Grid(usize, usize),
}

fn centre() -> impl Strategy<Value = Point> {
    ((-50.0..50.0f64), (-50.0..50.0f64)).prop_map(|(x, y)| Point::new(x, y))
}

fn increasing_sizes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.5..60.0f64, 1..6).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v
    })
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        (centre(), increasing_sizes()).prop_map(|(c, s)| Piece::Squares(c, s)),
        (centre(), increasing_sizes()).prop_map(|(c, r)| Piece::Circles(c, r)),
        Just(Piece::Repeat),
        Just(Piece::Empty),
        (centre(), 1.0..60.0f64, 0.0..1.0f64).prop_map(|(c, s, f)| Piece::Shrink(c, s, f)),
        (0usize..16, 1usize..6).prop_map(|(k, len)| Piece::Grid(k, len)),
    ]
}

fn regions_of(pieces: &[Piece]) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    for piece in pieces {
        match piece {
            Piece::Squares(c, sides) => {
                regions.extend(sides.iter().map(|&s| Region::from(Rect::square(*c, s))))
            }
            Piece::Circles(c, radii) => {
                regions.extend(radii.iter().map(|&r| Region::from(Circle::new(*c, r))))
            }
            Piece::Repeat => {
                if let Some(last) = regions.last().cloned() {
                    regions.push(last);
                }
            }
            Piece::Empty => regions.push(Rect::from_coords(90.0, 90.0, 95.0, 95.0).into()),
            Piece::Shrink(c, s, f) => {
                regions.push(Rect::square(*c, *s).into());
                regions.push(Rect::square(*c, s * f).into());
            }
            Piece::Grid(k, len) => {
                for cell in (*k..k + len).map(|i| i % 16) {
                    let (x, y) = (
                        -50.0 + 25.0 * (cell % 4) as f64,
                        -50.0 + 25.0 * (cell / 4) as f64,
                    );
                    regions.push(Rect::from_coords(x, y, x + 25.0, y + 25.0).into());
                }
            }
        }
    }
    regions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ring_sweep_equals_full_list_counts(
        points in prop::collection::vec(((-50.0..50.0f64), (-50.0..50.0f64)), 0..300),
        pieces in prop::collection::vec(arb_piece(), 1..8),
        worlds in prop::collection::vec(prop::collection::vec(any::<bool>(), 300), 1..4),
    ) {
        let n = points.len();
        let points: Vec<Point> = points.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let regions = regions_of(&pieces);
        let kd = KdTree::build(points, BitLabels::zeros(n));
        let mem = Membership::build(&kd, n, &regions);

        // The plan follows the rule: r − 1 is r's parent exactly when its
        // list is a non-empty subset of r's, and a ring holds the ids the
        // parent lacks.
        let mut sweep_ids = 0u64;
        for r in 0..regions.len() {
            let own: HashSet<u32> = mem.members(r).iter().copied().collect();
            let contained = r > 0
                && mem.n_of(r - 1) > 0
                && mem.members(r - 1).iter().all(|id| own.contains(id));
            prop_assert_eq!(mem.parent(r), contained.then(|| r - 1), "region {}", r);
            let ring_len = match mem.parent(r) {
                Some(p) => mem.n_of(r) - mem.n_of(p),
                None => mem.n_of(r),
            };
            prop_assert_eq!(mem.ring(r).len() as u64, ring_len, "region {}", r);
            sweep_ids += ring_len;
        }
        prop_assert_eq!(mem.total_ids() as u64, sweep_ids);

        let mut out = Vec::new();
        for world in &worlds {
            let world = BitLabels::from_bools(&world[..n]);
            mem.count_all_into(&world, &mut out);
            prop_assert_eq!(out.len(), regions.len());
            for (r, &p) in out.iter().enumerate() {
                prop_assert_eq!(p, mem.count(r, &world).p, "region {}", r);
            }
        }
    }

    #[test]
    fn ring_masks_count_full_regions(
        points in prop::collection::vec(((-50.0..50.0f64), (-50.0..50.0f64)), 0..300),
        pieces in prop::collection::vec(arb_piece(), 1..8),
        worlds in prop::collection::vec(
            prop::collection::vec(any::<bool>(), 300),
            MAX_FUSED_WORLDS + 1,
        ),
        cuts in prop::collection::vec(any::<u16>(), 0..5),
    ) {
        let n = points.len();
        let points: Vec<Point> = points.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let regions = regions_of(&pieces);
        let kd = KdTree::build(points, BitLabels::zeros(n));
        let mem = Membership::build(&kd, n, &regions);
        let masks = BlockedMembership::compile(&mem).unwrap();
        let lists = BlockedMembership::from_lists((0..regions.len()).map(|r| mem.members(r)), n)
            .unwrap();

        // Rings never read more words than full lists; n(R) and its
        // total keep their full-region meaning.
        prop_assert!(masks.touched_words() <= lists.touched_words());
        prop_assert_eq!(masks.total_ids(), lists.total_ids());
        for r in 0..regions.len() {
            prop_assert_eq!(masks.parent(r), mem.parent(r), "region {}", r);
            prop_assert_eq!(masks.n_of(r), mem.n_of(r), "region {}", r);
        }

        let worlds: Vec<BitLabels> = worlds.iter().map(|w| BitLabels::from_bools(&w[..n])).collect();
        // The oracle: each full member list, gathered id by id.
        let expected: Vec<Vec<u64>> = worlds
            .iter()
            .map(|world| (0..regions.len()).map(|r| world.count_at(mem.members(r))).collect())
            .collect();
        let kernels: Vec<CountingKernel> =
            CountingKernel::ALL.into_iter().filter(|k| k.is_supported()).collect();
        let mut out = Vec::new();
        for (world, want) in worlds.iter().zip(&expected) {
            for (r, &p) in want.iter().enumerate() {
                prop_assert_eq!(masks.count(r, world), p, "region {}", r);
                for &kernel in &kernels {
                    prop_assert_eq!(masks.count_with(r, world, kernel), p, "{} {}", kernel, r);
                }
            }
            for &kernel in &kernels {
                masks.count_all_into_with(world, kernel, &mut out);
                prop_assert_eq!(&out, want, "{}", kernel);
            }
        }
        // Fused widths 1..=9 cross the MAX_FUSED_WORLDS sweep boundary.
        for width in 1..=worlds.len() {
            let refs: Vec<&BitLabels> = worlds[..width].iter().collect();
            for &kernel in &kernels {
                masks.count_all_many_into(&refs, kernel, &mut out);
                let mut one = vec![0u64; width];
                for r in 0..regions.len() {
                    masks.count_many_into(r, &refs, kernel, &mut one);
                    for w in 0..width {
                        prop_assert_eq!(out[r * width + w], expected[w][r], "width {} region {}", width, r);
                        prop_assert_eq!(one[w], expected[w][r], "width {} region {}", width, r);
                    }
                }
            }
        }

        // Views clipped over a random word partition sum to the
        // unclipped counts and n(R).
        let words = masks.num_label_words();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (words + 1)).collect();
        bounds.extend([0, words]);
        bounds.sort_unstable();
        let views: Vec<BlockedMembership> =
            bounds.windows(2).map(|w| masks.clip_to_words(w[0], w[1])).collect();
        let refs: Vec<&BitLabels> = worlds.iter().collect();
        let mut summed = vec![0u64; regions.len() * refs.len()];
        for view in &views {
            view.count_all_many_into(&refs, CountingKernel::Scalar, &mut out);
            for (acc, &p) in summed.iter_mut().zip(&out) {
                *acc += p;
            }
        }
        for r in 0..regions.len() {
            let n_sum: u64 = views.iter().map(|v| v.n_of(r)).sum();
            prop_assert_eq!(n_sum, mem.n_of(r), "region {}", r);
            for (w, world) in worlds.iter().enumerate() {
                let p_sum: u64 = views.iter().map(|v| v.count(r, world)).sum();
                prop_assert_eq!(p_sum, expected[w][r], "region {} world {}", r, w);
                prop_assert_eq!(summed[r * refs.len() + w], expected[w][r]);
            }
        }
        // The even shard windows are one such partition.
        let shards = shard_word_bounds(words, 3);
        let total: u64 = shards.iter().map(|&(lo, hi)| masks.clip_to_words(lo, hi).total_ids()).sum();
        prop_assert_eq!(total, masks.total_ids());
    }
}
