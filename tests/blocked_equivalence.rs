//! Bit-identity of blocked world counting across the whole engine
//! stack: over the kd-tree and over the brute-force oracle index (built
//! through `ScanEngine::from_index`), `blocked == membership == requery`
//! — for the real-world scan and for `ScanEngine::eval`, both with one
//! direction per call and with the multi-direction batches batched
//! serving runs on, and for the shard-partial (`fine`) fold.
//!
//! Each engine generates its own worlds, so the property under test is
//! exactly the serving layer's invariant: per-world labels and `τ`
//! values are a function of `(seed, null model, direction)` only, never
//! of the counting strategy or index.

use proptest::prelude::*;
use spatial_fairness::index::{BitLabels, BruteForceIndex};
use spatial_fairness::prelude::*;
use spatial_fairness::scan::engine::ScanEngine;
use spatial_fairness::scan::{CountingStrategy, NullModel, Shards};

/// Arbitrary outcome sets with both classes present.
fn arb_outcomes() -> impl Strategy<Value = SpatialOutcomes> {
    prop::collection::vec(((0.0..12.0f64), (0.0..12.0f64), any::<bool>()), 40..300).prop_map(
        |mut rows| {
            rows[0].2 = true;
            rows[1].2 = false;
            let points = rows.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            let labels = rows.iter().map(|&(_, _, l)| l).collect();
            SpatialOutcomes::new(points, labels).unwrap()
        },
    )
}

/// One world's `τ` per direction, with the engine's default statistic;
/// `fine` selects the shard-partial fold.
fn taus(engine: &ScanEngine, world: &BitLabels, dirs: &[Direction], fine: bool) -> Vec<f64> {
    let mut out = vec![0.0; dirs.len()];
    engine.eval(engine.statistic(), &[world], dirs, &mut out, fine);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blocked_matches_scalar_strategies_across_backends(
        outcomes in arb_outcomes(),
        nx in 2usize..6,
        ny in 2usize..6,
        seed in 0u64..500,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), nx, ny);
        let reference =
            ScanEngine::build(&outcomes, &regions, CountingStrategy::Membership).unwrap();
        let ref_real = reference.scan_real(Direction::TwoSided);
        let dirs = [Direction::TwoSided, Direction::High, Direction::Low];
        for backend in ["kdtree", "brute"] {
            let build = |strategy| match backend {
                "kdtree" => ScanEngine::build(&outcomes, &regions, strategy).unwrap(),
                _ => {
                    let index =
                        BruteForceIndex::build(outcomes.points().to_vec(), outcomes.bit_labels());
                    ScanEngine::from_index(index, &outcomes, &regions, strategy).unwrap()
                }
            };
            let blocked = build(CountingStrategy::Blocked);
            let requery = build(CountingStrategy::Requery);
            let sharded = build(CountingStrategy::Blocked).with_shards(Shards::Fixed(3));
            prop_assert_eq!(blocked.region_n(), reference.region_n());
            prop_assert_eq!(requery.region_n(), reference.region_n());
            let (rings, want) = (blocked.membership().unwrap(), reference.membership().unwrap());
            for r in 0..rings.num_regions() {
                prop_assert_eq!(rings.parent(r), want.parent(r));
                prop_assert_eq!(rings.ring(r), want.ring(r));
            }
            prop_assert_eq!(blocked.real_world(), reference.real_world());
            prop_assert_eq!(requery.real_world(), reference.real_world());
            let real = blocked.scan_real(Direction::TwoSided);
            prop_assert_eq!(&real.counts, &ref_real.counts);
            prop_assert_eq!(&real.llrs, &ref_real.llrs);
            prop_assert_eq!(real.tau, ref_real.tau);

            for (w, null_model) in [NullModel::Bernoulli, NullModel::Permutation]
                .into_iter()
                .enumerate()
            {
                let mut rng = spatial_fairness::stats::rng::world_rng(seed, w as u64);
                let ref_world = reference.generate_world(null_model, &mut rng);
                let mut rng = spatial_fairness::stats::rng::world_rng(seed, w as u64);
                let blk_world = blocked.generate_world(null_model, &mut rng);
                let mut rng = spatial_fairness::stats::rng::world_rng(seed, w as u64);
                let req_world = requery.generate_world(null_model, &mut rng);

                // One world layout: the same bitset from every engine.
                prop_assert_eq!(&ref_world, &blk_world);
                prop_assert_eq!(&ref_world, &req_world);

                let ref_taus = taus(&reference, &ref_world, &dirs, false);
                let blk_taus = taus(&blocked, &blk_world, &dirs, false);
                let req_taus = taus(&requery, &req_world, &dirs, false);
                let fine_taus = taus(&sharded, &blk_world, &dirs, true);
                prop_assert_eq!(&ref_taus, &blk_taus, "blocked vs membership, {:?}", backend);
                prop_assert_eq!(&ref_taus, &req_taus, "requery vs membership, {:?}", backend);
                prop_assert_eq!(&ref_taus, &fine_taus, "shard-partial vs plain, {:?}", backend);

                for &d in &dirs {
                    prop_assert_eq!(
                        taus(&blocked, &blk_world, &[d], false),
                        taus(&reference, &ref_world, &[d], false)
                    );
                }
            }
        }
    }

    #[test]
    fn full_audits_agree_between_blocked_and_membership(
        outcomes in arb_outcomes(),
        seed in 0u64..100,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 4, 4);
        let base = AuditConfig::new(0.1).with_worlds(19).with_seed(seed);
        let mem = Auditor::new(base.with_strategy(CountingStrategy::Membership))
            .audit(&outcomes, &regions)
            .unwrap();
        let mut blk = Auditor::new(base.with_strategy(CountingStrategy::Blocked))
            .audit(&outcomes, &regions)
            .unwrap();
        // The report embeds its config; align the strategy knob so the
        // comparison checks the *results* are bit-identical.
        blk.config.strategy = mem.config.strategy;
        prop_assert_eq!(blk, mem);
    }
}
