//! Differential property tests: the kd-tree must agree with the
//! brute-force oracle on arbitrary data and regions.

use proptest::prelude::*;
use sfgeo::{Circle, ConvexPolygon, Point, Rect, Region};
use sfindex::{BitLabels, BruteForceIndex, KdTree, Membership, PointVisit, RangeCount};

fn arb_dataset() -> impl Strategy<Value = (Vec<Point>, Vec<bool>)> {
    prop::collection::vec(((-50.0..50.0f64), (-50.0..50.0f64), any::<bool>()), 0..300).prop_map(
        |rows| {
            let points = rows.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            let labels = rows.iter().map(|&(_, _, l)| l).collect();
            (points, labels)
        },
    )
}

fn arb_region() -> impl Strategy<Value = Region> {
    prop_oneof![
        (
            (-60.0..60.0f64),
            (-60.0..60.0f64),
            (-60.0..60.0f64),
            (-60.0..60.0f64)
        )
            .prop_map(|(a, b, c, d)| Region::Rect(Rect::from_coords(a, b, c, d))),
        ((-60.0..60.0f64), (-60.0..60.0f64), (0.0..80.0f64))
            .prop_map(|(x, y, r)| Region::Circle(Circle::new(Point::new(x, y), r))),
        // Regular convex polygons (always valid) of 3..10 vertices.
        (
            (-60.0..60.0f64),
            (-60.0..60.0f64),
            (0.1..80.0f64),
            3usize..10
        )
            .prop_map(|(x, y, r, n)| Region::Polygon(ConvexPolygon::regular(
                Point::new(x, y),
                r,
                n
            )),),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_agrees_with_brute_force(
        (points, labels) in arb_dataset(),
        regions in prop::collection::vec(arb_region(), 1..8),
    ) {
        let bits = BitLabels::from_bools(&labels);
        let brute = BruteForceIndex::build(points.clone(), bits.clone());
        let kd = KdTree::build(points, bits);

        prop_assert_eq!(kd.total(), brute.total());

        for region in &regions {
            let expected = brute.count(region);
            prop_assert_eq!(kd.count(region), expected, "kd mismatch for {}", region);

            let expected_ids = brute.ids_in(region);
            prop_assert_eq!(kd.ids_in(region), expected_ids);
        }
    }

    #[test]
    fn membership_counts_agree_with_requery_under_new_labels(
        (points, labels) in arb_dataset(),
        regions in prop::collection::vec(arb_region(), 1..6),
        world in prop::collection::vec(any::<bool>(), 300),
    ) {
        let n = points.len();
        let bits = BitLabels::from_bools(&labels);
        let kd = KdTree::build(points.clone(), bits);
        let mem = Membership::build(&kd, n, &regions);
        let world_bits = BitLabels::from_bools(&world[..n]);
        for (r, region) in regions.iter().enumerate() {
            let by_mem = mem.count(r, &world_bits);
            let by_query = kd.count_with(region, &world_bits);
            prop_assert_eq!(by_mem, by_query);
        }
    }

    #[test]
    fn count_is_monotone_in_region_growth(
        (points, labels) in arb_dataset(),
        cx in -50.0..50.0f64,
        cy in -50.0..50.0f64,
        s1 in 0.0..40.0f64,
        s2 in 0.0..40.0f64,
    ) {
        let bits = BitLabels::from_bools(&labels);
        let kd = KdTree::build(points, bits);
        let (small, large) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let a = kd.count(&Rect::square(Point::new(cx, cy), small).into());
        let b = kd.count(&Rect::square(Point::new(cx, cy), large).into());
        prop_assert!(a.n <= b.n);
        prop_assert!(a.p <= b.p);
    }
}
