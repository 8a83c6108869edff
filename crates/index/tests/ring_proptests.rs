//! Containment-delta counting: the ring sweep behind
//! [`Membership::count_all_into`] must give every region the count its
//! full member list gives, on region families that nest, repeat, empty
//! out, shrink, and interleave with partitions.

use proptest::prelude::*;
use sfgeo::{Circle, Point, Rect, Region};
use sfindex::{BitLabels, KdTree, Membership};
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
}
