//! Containment-delta counting end to end: nested square and circle
//! families, whose membership engines count every world through rings,
//! must audit bit-identically to blocked counting and to requery (which
//! never builds membership lists), under both world generators.

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
        // The membership engine really counts through rings here.
        let engine = ScanEngine::build(&o, &regions, CountingStrategy::Membership).unwrap();
        let m = engine.membership().unwrap();
        let full: u64 = (0..m.num_regions()).map(|r| m.n_of(r)).sum();
        assert!(
            (m.total_ids() as u64) * 3 < full,
            "{name}: {} sweep ids vs {full} listed",
            m.total_ids()
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
