//! Containment-delta counting end to end: nested square and circle
//! families, whose membership engines count every world through
//! ring-compiled masks, must audit bit-identically to blocked counting
//! and to requery (which never builds membership lists), under both
//! world generators, however dense or sparse the masks are.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::engine::ScanEngine;
use spatial_fairness::scan::{CountingStrategy, Direction, NullModel, WorldGen};

/// Clustered data with one depressed-rate blob.
fn outcomes(n: usize, seed: u64) -> SpatialOutcomes {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let blobs = [(0.6, 0.6, 0.5), (1.4, 1.3, 0.5), (1.5, 0.5, 0.3)];
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let (cx, cy, rate) = blobs[rng.gen_range(0..blobs.len())];
        points.push(Point::new(
            cx + rng.gen_range(-0.5..0.5),
            cy + rng.gen_range(-0.5..0.5),
        ));
        labels.push(rng.gen_bool(rate));
    }
    SpatialOutcomes::new(points, labels).unwrap()
}

fn centres() -> Vec<Point> {
    [(0.6, 0.6), (1.4, 1.3), (1.5, 0.5), (1.0, 1.0), (0.3, 1.6)]
        .iter()
        .map(|&(x, y)| Point::new(x, y))
        .collect()
}

/// The nested families: the paper's side lengths per centre, and
/// Kulldorff-style circles of increasing radius.
fn families() -> [(&'static str, RegionSet); 2] {
    let radii: Vec<f64> = (1..=12).map(|i| i as f64 * 0.08).collect();
    [
        (
            "squares",
            RegionSet::squares(centres(), &RegionSet::paper_side_lengths()),
        ),
        ("circles", RegionSet::circles(centres(), &radii)),
    ]
}

#[test]
fn nested_families_audit_identically_through_rings() {
    let o = outcomes(2500, 7);
    for (name, regions) in families() {
        // The membership engine's rings hold under a third of the
        // listed ids, and the masks it sweeps are compiled from them.
        let engine = ScanEngine::build(&o, &regions, CountingStrategy::Membership).unwrap();
        let m = engine.membership().unwrap();
        let full: u64 = (0..m.num_regions()).map(|r| m.n_of(r)).sum();
        assert!(
            (m.total_ids() as u64) * 3 < full,
            "{name}: {} sweep ids vs {full} listed",
            m.total_ids()
        );
        let masks = engine.blocked().unwrap();
        assert!(
            (0..m.num_regions()).any(|r| masks.parent(r).is_some()),
            "{name}"
        );
        for worldgen in [WorldGen::Scalar, WorldGen::Word] {
            for (direction, null_model) in [
                (Direction::TwoSided, NullModel::Bernoulli),
                (Direction::Low, NullModel::Permutation),
            ] {
                let base = AuditConfig::new(0.05)
                    .with_worlds(99)
                    .with_seed(13)
                    .with_worldgen(worldgen)
                    .with_direction(direction)
                    .with_null_model(null_model);
                let audit = |strategy| {
                    Auditor::new(base.with_strategy(strategy))
                        .audit(&o, &regions)
                        .unwrap()
                };
                let rings = audit(CountingStrategy::Membership);
                for strategy in [CountingStrategy::Blocked, CountingStrategy::Requery] {
                    let other = audit(strategy);
                    let what = format!("{name} {worldgen:?} {direction} vs {strategy:?}");
                    assert_eq!(rings.tau.to_bits(), other.tau.to_bits(), "{what}");
                    assert_eq!(rings.p_value.to_bits(), other.p_value.to_bits(), "{what}");
                    let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&rings.simulated), bits(&other.simulated), "{what}");
                    assert_eq!(rings.findings, other.findings, "{what}");
                }
            }
        }
    }
}

/// A membership-requested engine sweeps ring-compiled masks — dense or
/// sparse, nested or not — and audits bit-identically to requery (which
/// builds no lists, rings or masks).
#[test]
fn membership_engines_sweep_ring_masks_and_match_requery() {
    let o = outcomes(2500, 7);
    let [(_, squares), (_, circles)] = families();
    let grid = RegionSet::regular_grid(o.expanded_bounding_box(), 16, 16);
    let singles = RegionSet::from_regions(
        o.points()
            .iter()
            .step_by(50)
            .map(|p| Rect::square(*p, 1e-6).into())
            .collect(),
    );
    // Small nested squares around scattered points: a few ids per ring,
    // spread over the layout.
    let tiny_sides: Vec<f64> = (1..=6).map(|i| i as f64 * 0.004).collect();
    let sparse_squares = RegionSet::squares(
        o.points().iter().step_by(100).copied().collect(),
        &tiny_sides,
    );
    for (name, regions, nested, dense) in [
        ("squares", squares, true, true),
        ("circles", circles, true, true),
        ("grid", grid, false, true),
        ("singles", singles, false, false),
        ("sparse squares", sparse_squares, true, false),
    ] {
        let engine = ScanEngine::build(&o, &regions, CountingStrategy::Membership).unwrap();
        assert!(engine.membership().is_some(), "{name}");
        assert_eq!(
            engine.resolved_strategy(),
            CountingStrategy::Blocked,
            "{name}"
        );
        let masks = engine.blocked().unwrap();
        let has_parents = (0..regions.len()).any(|r| masks.parent(r).is_some());
        assert_eq!(has_parents, nested, "{name}");
        // Sparse families read under four ring ids per mask word.
        let density = masks.ids_per_word();
        assert_eq!(density >= 4.0, dense, "{name}: {density} ids per word");
        for worldgen in [WorldGen::Scalar, WorldGen::Word] {
            let base = AuditConfig::new(0.05)
                .with_worlds(99)
                .with_seed(17)
                .with_worldgen(worldgen);
            let audit = |strategy| {
                Auditor::new(base.with_strategy(strategy))
                    .audit(&o, &regions)
                    .unwrap()
            };
            let (swept, oracle) = (
                audit(CountingStrategy::Membership),
                audit(CountingStrategy::Requery),
            );
            let what = format!("{name} {worldgen:?}");
            let bits = |s: &[f64]| s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(swept.tau.to_bits(), oracle.tau.to_bits(), "{what}");
            assert_eq!(swept.p_value.to_bits(), oracle.p_value.to_bits(), "{what}");
            assert_eq!(bits(&swept.simulated), bits(&oracle.simulated), "{what}");
            assert_eq!(swept.findings, oracle.findings, "{what}");
        }
    }
}
