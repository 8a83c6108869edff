//! Sharded-engine equivalence: the full audit pipeline under any
//! shard count must be **bit-identical** to the unsharded engine —
//! every τ, p-value, critical value, finding, and simulated-world
//! prefix — across every explicit counting strategy and both
//! world-generation versions, in batches and in standalone runs alike.
//! Sharding is a pure execution-layout choice; only the `shards` field
//! of the embedded config may differ.

use proptest::prelude::*;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{CountingStrategy, NullModel, Shards, WorldGen};

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

    /// The full matrix: 3 explicit strategies x 2 worldgens, each
    /// audited unsharded and with several shard counts (including more
    /// shards than label words, which clamps).
    #[test]
    fn sharded_audits_are_bit_identical_across_the_matrix(
        outcomes in arb_outcomes(),
        seed in 0u64..200,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        for strategy in [
            CountingStrategy::Membership,
            CountingStrategy::Requery,
            CountingStrategy::Blocked,
        ] {
            for worldgen in [WorldGen::Scalar, WorldGen::Word] {
                let config = AuditConfig::new(0.05)
                    .with_worlds(19)
                    .with_seed(seed)
                    .with_strategy(strategy)
                    .with_worldgen(worldgen);
                let unsharded = audit_with_shards(&outcomes, &regions, config, Shards::Fixed(1));
                for k in [2usize, 3, 64] {
                    let sharded = audit_with_shards(&outcomes, &regions, config, Shards::Fixed(k));
                    prop_assert_eq!(
                        &unsharded,
                        &sharded,
                        "{:?} {:?} diverged at {} shards",
                        strategy,
                        worldgen,
                        k
                    );
                }
            }
        }
    }

    /// Batched vs standalone execution under sharding: a batch whose
    /// world classes fan out in parallel, and each of its requests run
    /// alone (one class, walked on its own), produce the same bytes
    /// sharded and unsharded, for both null models.
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
        let request = AuditRequest::from_config(&config);
        let requests = [
            request,
            request.with_seed(seed + 1).with_direction(Direction::High),
            request.with_worldgen(WorldGen::Scalar),
        ];
        let mut runs = Vec::new();
        for k in [1usize, 4] {
            let prepared =
                PreparedAudit::prepare(&outcomes, &regions, config.with_shards(Shards::Fixed(k)))
                    .unwrap();
            let standalone: Vec<AuditReport> = requests.iter().map(|r| prepared.run(r)).collect();
            runs.push(prepared.run_batch(&requests));
            runs.push(standalone);
        }
        for run in &mut runs {
            for report in run.iter_mut() {
                report.config.shards = Shards::Auto;
            }
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert_eq!(&runs[0], &runs[2]);
        prop_assert_eq!(&runs[0], &runs[3]);
        prop_assert_eq!(&runs[0][0], &audit_with_shards(&outcomes, &regions, config, Shards::Fixed(1)));
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
