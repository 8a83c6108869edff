//! The kd-vs-brute engine oracle the integration tests share: every
//! audit builds its engine over the kd-tree, and the same engine built
//! over the brute-force index through `ScanEngine::from_index` must
//! agree with it on everything an audit reads.

use spatial_fairness::index::{BitLabels, BruteForceIndex};
use spatial_fairness::prelude::*;
use spatial_fairness::scan::engine::ScanEngine;
use spatial_fairness::scan::{CountingStrategy, NullModel, Statistic, WorldGen};
use spatial_fairness::stats::rng::world_rng;

/// `strategy` engines over the kd-tree (what every audit builds) and
/// over the brute-force oracle index.
pub fn kd_and_brute(
    outcomes: &SpatialOutcomes,
    regions: &RegionSet,
    strategy: CountingStrategy,
) -> (ScanEngine, ScanEngine) {
    let kd = ScanEngine::build(outcomes, regions, strategy).unwrap();
    let brute = BruteForceIndex::build(outcomes.points().to_vec(), outcomes.bit_labels());
    let brute = ScanEngine::from_index(brute, outcomes, regions, strategy).unwrap();
    (kd, brute)
}

/// Worlds `0..count` of the class `(null_model, worldgen, seed)`,
/// drawn by `engine`.
pub fn draw_worlds(
    engine: &ScanEngine,
    null_model: NullModel,
    worldgen: WorldGen,
    seed: u64,
    count: u64,
) -> Vec<BitLabels> {
    (0..count)
        .map(|w| engine.generate_world_with(null_model, worldgen, &mut world_rng(seed, w)))
        .collect()
}

/// Asserts that two engines over the same data agree bit for bit on
/// `n(R)`, the real world, the rings and their parents, the real scan
/// and every direction's `τ` of `worlds`, all under `statistic`.
pub fn assert_engines_agree(
    kd: &ScanEngine,
    brute: &ScanEngine,
    statistic: Statistic,
    worlds: &[BitLabels],
) {
    assert_eq!(kd.region_n(), brute.region_n());
    assert_eq!(kd.real_world(), brute.real_world());
    assert_eq!(kd.resolved_strategy(), brute.resolved_strategy());
    if let (Some(a), Some(b)) = (kd.membership(), brute.membership()) {
        for r in 0..a.num_regions() {
            assert_eq!(a.parent(r), b.parent(r), "region {r}");
            assert_eq!(a.ring(r), b.ring(r), "region {r}");
        }
    }
    for d in Direction::ALL {
        let (a, b) = (
            kd.scan_real_with(statistic, d),
            brute.scan_real_with(statistic, d),
        );
        assert_eq!(a.counts, b.counts, "{d}");
        assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "{d}");
        assert_eq!(a.best_index, b.best_index, "{d}");
    }
    let refs: Vec<&BitLabels> = worlds.iter().collect();
    let mut taus = [Vec::new(), Vec::new()];
    for (engine, out) in [kd, brute].into_iter().zip(&mut taus) {
        out.resize(refs.len() * Direction::ALL.len(), 0.0);
        engine.eval(statistic, &refs, &Direction::ALL, out, false);
    }
    let bits = |taus: &[f64]| taus.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&taus[0]), bits(&taus[1]));
}
