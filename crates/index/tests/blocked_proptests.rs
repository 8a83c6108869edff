//! Property tests pinning blocked counting to the scalar paths.
//!
//! The blocked substrate's contract is bit-identity: for any label
//! set and any valid member list, the masked-popcount sweep must
//! return exactly what the scalar `count_at` gather returns. These
//! tests drive random label sets, adversarial region shapes (empty,
//! single-id, full-span, word-boundary-straddling), label `refill`
//! reuse, and permuted layouts against that contract.

use proptest::prelude::*;
use sfgeo::{Point, Rect, Region};
use sfindex::{
    morton_layout, BitLabels, BlockedBuildError, BlockedMembership, BruteForceIndex, Membership,
    PointVisit,
};

/// A random sorted/unique id list over `0..n`.
fn arb_id_list(n: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..n as u32, 0..n.min(256)).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

/// Deterministic scalar oracle.
fn scalar(labels: &BitLabels, ids: &[u32]) -> u64 {
    ids.iter().map(|&id| labels.get(id as usize) as u64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_equals_scalar_on_random_lists(
        lists in prop::collection::vec(arb_id_list(300), 1..12),
        label_bits in prop::collection::vec(any::<bool>(), 300),
    ) {
        let labels = BitLabels::from_bools(&label_bits);
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let blocked = BlockedMembership::from_lists(refs.iter().copied(), 300).unwrap();
        for (r, ids) in lists.iter().enumerate() {
            prop_assert_eq!(blocked.count(r, &labels), scalar(&labels, ids));
            prop_assert_eq!(blocked.count(r, &labels), labels.count_at(ids));
            prop_assert_eq!(blocked.n_of(r), ids.len() as u64);
        }
    }

    #[test]
    fn blocked_equals_scalar_after_refill(
        lists in prop::collection::vec(arb_id_list(200), 1..6),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let blocked = BlockedMembership::from_lists(refs.iter().copied(), 200).unwrap();
        let mut labels = BitLabels::from_fn(200, |i| (seed_a >> (i % 64)) & 1 == 1);
        for (r, ids) in lists.iter().enumerate() {
            prop_assert_eq!(blocked.count(r, &labels), labels.count_at(ids));
        }
        // Reusing the allocation must not leak stale bits into counts.
        labels.refill(|i| (seed_b >> (i % 64)) & 1 == 1);
        for (r, ids) in lists.iter().enumerate() {
            prop_assert_eq!(blocked.count(r, &labels), labels.count_at(ids));
        }
    }

    #[test]
    fn layout_compilation_preserves_counts(
        rows in prop::collection::vec(((0.0..8.0f64), (0.0..8.0f64), any::<bool>()), 30..200),
        rx in 0.0..6.0f64,
        ry in 0.0..6.0f64,
        half in 0.3..3.0f64,
    ) {
        let points: Vec<Point> = rows.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
        let bools: Vec<bool> = rows.iter().map(|&(_, _, l)| l).collect();
        let n = points.len();
        let idx = BruteForceIndex::build(points.clone(), BitLabels::from_bools(&bools));
        let regions: Vec<Region> = vec![
            Rect::square(Point::new(rx, ry), half).into(),
            Rect::from_coords(-1.0, -1.0, 9.0, 9.0).into(), // full span
            Rect::from_coords(50.0, 50.0, 51.0, 51.0).into(), // empty
        ];
        let membership = Membership::build(&idx, n, &regions).unwrap();
        let flat = BlockedMembership::compile(&membership).unwrap();
        // Morton positions: every listed id and every label moves to
        // `to_pos[id]`.
        let to_pos = morton_layout(&points);
        let lists: Vec<Vec<u32>> = regions
            .iter()
            .map(|region| {
                let mut list: Vec<u32> =
                    idx.ids_in(region).iter().map(|&id| to_pos[id as usize]).collect();
                list.sort_unstable();
                list
            })
            .collect();
        let morton = BlockedMembership::from_lists(lists.iter().map(Vec::as_slice), n).unwrap();
        let world = BitLabels::from_bools(&bools);
        let mut layout_world = BitLabels::zeros(n);
        for (&label, &pos) in bools.iter().zip(&to_pos) {
            layout_world.set(pos as usize, label);
        }
        for (r, region) in regions.iter().enumerate() {
            let expected = idx.count_with(region, &world).p;
            prop_assert_eq!(flat.count(r, &world), expected, "flat, region {}", r);
            prop_assert_eq!(morton.count(r, &layout_world), expected, "morton, region {}", r);
        }
    }
}

#[test]
fn adversarial_shapes_match_scalar() {
    // Shapes chosen to stress every run kind: empty, single-id,
    // full-span (dense ranges), word-boundary straddles, exact word
    // edges, and the 0/63/64 corners.
    let n = 384; // 6 words exactly
    let shapes: Vec<Vec<u32>> = vec![
        vec![],
        vec![0],
        vec![63],
        vec![64],
        vec![383],
        (0..n as u32).collect(),
        (60..70).collect(),
        (63..=64).collect(),
        (0..64).collect(),
        (64..192).collect(),
        (1..n as u32).step_by(2).collect(),
        vec![0, 63, 64, 127, 128, 191, 192, 255, 256, 319, 320, 383],
    ];
    let refs: Vec<&[u32]> = shapes.iter().map(|l| l.as_slice()).collect();
    let blocked = BlockedMembership::from_lists(refs.iter().copied(), n).unwrap();
    let mut labels = BitLabels::zeros(n);
    for round in 0..4u64 {
        labels.refill(|i| {
            (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ round)
                .is_multiple_of(3)
        });
        for (r, ids) in shapes.iter().enumerate() {
            assert_eq!(
                blocked.count(r, &labels),
                labels.count_at(ids),
                "shape {r}, round {round}"
            );
        }
    }
}

#[test]
fn invalid_lists_are_rejected_not_miscounted() {
    type ErrorPredicate = fn(&BlockedBuildError) -> bool;
    let cases: Vec<(Vec<u32>, ErrorPredicate)> = vec![
        (vec![4, 2], |e| {
            matches!(e, BlockedBuildError::UnsortedIds { .. })
        }),
        (vec![2, 2], |e| {
            matches!(e, BlockedBuildError::DuplicateId { .. })
        }),
        (vec![9, 10], |e| {
            matches!(e, BlockedBuildError::IdOutOfRange { .. })
        }),
    ];
    for (list, matches) in cases {
        let err = BlockedMembership::from_lists([list.as_slice()].into_iter(), 10)
            .expect_err("invalid list must not compile");
        assert!(matches(&err), "{list:?} -> {err}");
    }
}
