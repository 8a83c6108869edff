//! Sharded-engine equivalence: the full audit pipeline under any
//! shard count must be **bit-identical** to the unsharded engine —
//! every τ, p-value, critical value, finding, and simulated-world
//! prefix — across every index backend, every explicit counting
//! strategy, and both world-generation versions, sequential and
//! parallel alike. Sharding (like the backend and the parallel knob)
//! is a pure execution-layout choice; only the `shards` field of the
//! embedded config may differ.

use proptest::prelude::*;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{CountingStrategy, IndexBackend, NullModel, Shards, WorldGen};

/// Arbitrary outcome sets with both classes present.
fn arb_outcomes() -> impl Strategy<Value = SpatialOutcomes> {
    prop::collection::vec(((0.0..10.0f64), (0.0..10.0f64), any::<bool>()), 80..300).prop_map(
        |mut rows| {
            rows[0].2 = false;
            rows[1].2 = true;
            let points = rows.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            let labels = rows.iter().map(|&(_, _, l)| l).collect::<Vec<bool>>();
            SpatialOutcomes::new(points, labels).unwrap()
        },
    )
}

/// Audits `outcomes` with `config` plus the given shard count and
/// returns the report with the shard knob normalised away, so reports
/// from different shard counts can be compared with `==`.
fn audit_with_shards(
    outcomes: &SpatialOutcomes,
    regions: &RegionSet,
    config: AuditConfig,
    shards: Shards,
) -> AuditReport {
    let mut report = Auditor::new(config.with_shards(shards))
        .audit(outcomes, regions)
        .unwrap();
    report.config.shards = Shards::Auto;
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full matrix: 2 backends x 3 explicit strategies x 2
    /// worldgens, each audited unsharded and with several shard
    /// counts (including more shards than label words, which clamps).
    #[test]
    fn sharded_audits_are_bit_identical_across_the_matrix(
        outcomes in arb_outcomes(),
        seed in 0u64..200,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        for backend in IndexBackend::ALL {
            for strategy in [
                CountingStrategy::Membership,
                CountingStrategy::Requery,
                CountingStrategy::Blocked,
            ] {
                for worldgen in [WorldGen::Scalar, WorldGen::Word] {
                    let config = AuditConfig::new(0.05)
                        .with_worlds(19)
                        .with_seed(seed)
                        .with_backend(backend)
                        .with_strategy(strategy)
                        .with_worldgen(worldgen);
                    let unsharded =
                        audit_with_shards(&outcomes, &regions, config, Shards::Fixed(1));
                    for k in [2usize, 3, 64] {
                        let sharded = audit_with_shards(
                            &outcomes,
                            &regions,
                            config,
                            Shards::Fixed(k),
                        );
                        prop_assert_eq!(
                            &unsharded,
                            &sharded,
                            "{} {:?} {:?} diverged at {} shards",
                            backend,
                            strategy,
                            worldgen,
                            k
                        );
                    }
                }
            }
        }
    }

    /// Sequential vs parallel execution under sharding: all four
    /// combinations of (parallel, sharded) produce the same bytes,
    /// for both null models.
    #[test]
    fn parallel_and_sequential_sharded_runs_agree(
        outcomes in arb_outcomes(),
        seed in 0u64..200,
        permutation in any::<bool>(),
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        let null_model = if permutation {
            NullModel::Permutation
        } else {
            NullModel::Bernoulli
        };
        let config = AuditConfig::new(0.05)
            .with_worlds(19)
            .with_seed(seed)
            .with_strategy(CountingStrategy::Blocked)
            .with_null_model(null_model);
        let mut reports = vec![
            audit_with_shards(&outcomes, &regions, config, Shards::Fixed(1)),
            audit_with_shards(&outcomes, &regions, config, Shards::Fixed(4)),
            audit_with_shards(&outcomes, &regions, config.sequential(), Shards::Fixed(1)),
            audit_with_shards(&outcomes, &regions, config.sequential(), Shards::Fixed(4)),
        ];
        for report in &mut reports {
            report.config.parallel = true;
        }
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
        prop_assert_eq!(&reports[0], &reports[3]);
    }
}

/// The `Shards::Auto` default resolves to whatever the machine offers
/// and still reproduces the `Fixed(1)` bytes.
#[test]
fn auto_sharding_matches_fixed_one() {
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for i in 0..1100usize {
        points.push(Point::new((i % 40) as f64 / 4.0, (i / 40) as f64 / 3.0));
        labels.push((i * 11 + i / 7) % 4 == 0);
    }
    let outcomes = SpatialOutcomes::new(points, labels).unwrap();
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 4, 4);
    let config = AuditConfig::new(0.05)
        .with_worlds(49)
        .with_seed(13)
        .with_strategy(CountingStrategy::Blocked);
    let auto = audit_with_shards(&outcomes, &regions, config, Shards::Auto);
    let one = audit_with_shards(&outcomes, &regions, config, Shards::Fixed(1));
    assert_eq!(auto, one);
}
