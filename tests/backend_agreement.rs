//! Index and strategy agreement: the counting strategy is a pure
//! performance knob — every strategy must produce **bit-identical**
//! audits — and the kd-tree every audit builds must count exactly what
//! the brute-force oracle index counts. Strategies are compared end to
//! end through the public API; the two indexes at the engine level,
//! through `ScanEngine::from_index`. Both run over mixed region shapes
//! (rectangles and circles) that exercise the kd-tree's pruning paths.

mod common;

use common::{assert_engines_agree, draw_worlds, kd_and_brute};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{run_suite, CountingStrategy, McStrategy, NullModel, WorldGen};

/// Clustered, mildly unfair data: three blobs, one with a depressed
/// positive rate.
fn outcomes(n: usize, seed: u64) -> SpatialOutcomes {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers = [(2.0, 2.0, 0.55), (7.0, 7.0, 0.55), (8.0, 2.0, 0.25)];
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let (cx, cy, rate) = centers[rng.gen_range(0..centers.len())];
        points.push(sfgeo::Point::new(
            cx + rng.gen_range(-1.5..1.5),
            cy + rng.gen_range(-1.5..1.5),
        ));
        labels.push(rng.gen_bool(rate));
    }
    SpatialOutcomes::new(points, labels).unwrap()
}

/// Grid cells plus circles: regions that stress rectangle fast paths
/// and exact circle containment alike.
fn mixed_regions(outcomes: &SpatialOutcomes) -> RegionSet {
    let bb = outcomes.expanded_bounding_box();
    let mut regions: Vec<sfgeo::Region> = RegionSet::regular_grid(bb, 5, 5).regions().to_vec();
    for (cx, cy) in [(2.0, 2.0), (7.0, 7.0), (8.0, 2.0), (5.0, 5.0)] {
        regions.push(sfgeo::Circle::new(sfgeo::Point::new(cx, cy), 1.2).into());
    }
    RegionSet::from_regions(regions)
}

#[test]
fn every_backend_and_strategy_yields_bit_identical_reports() {
    let o = outcomes(3000, 1);
    let regions = mixed_regions(&o);
    let base = AuditConfig::new(0.05).with_worlds(99).with_seed(3);
    let reference = Auditor::new(base).audit(&o, &regions).unwrap();
    assert!(reference.is_unfair(), "p={}", reference.p_value);

    for strategy in CountingStrategy::ALL {
        let mut report = Auditor::new(base.with_strategy(strategy))
            .audit(&o, &regions)
            .unwrap();
        // The report embeds its config; align the strategy knob so the
        // comparison checks the *results* are bit-identical.
        report.config.strategy = reference.config.strategy;
        assert_eq!(report, reference, "{strategy:?}");

        let (kd, brute) = kd_and_brute(&o, &regions, strategy);
        let worlds = draw_worlds(&kd, NullModel::Bernoulli, WorldGen::Word, 3, 12);
        assert_engines_agree(&kd, &brute, Statistic::BernoulliLlr, &worlds);
    }
}

#[test]
fn backend_agreement_holds_under_permutation_null_and_directions() {
    let o = outcomes(1500, 2);
    let regions = mixed_regions(&o);
    for strategy in CountingStrategy::ALL {
        let (kd, brute) = kd_and_brute(&o, &regions, strategy);
        for worldgen in WorldGen::ALL {
            // Every direction's τ of every world is compared.
            let worlds = draw_worlds(&kd, NullModel::Permutation, worldgen, 11, 12);
            assert_engines_agree(&kd, &brute, Statistic::BernoulliLlr, &worlds);
        }
    }
}

#[test]
fn suite_reports_are_backend_invariant() {
    let o = outcomes(1200, 4);
    let regions = mixed_regions(&o);
    let base = AuditConfig::new(0.05).with_worlds(49).with_seed(5);
    let reference = run_suite(base, &o, &regions).unwrap();
    for strategy in CountingStrategy::ALL {
        let suite = run_suite(base.with_strategy(strategy), &o, &regions).unwrap();
        for (dir, ref_dir) in [
            (&suite.two_sided, &reference.two_sided),
            (&suite.low, &reference.low),
            (&suite.high, &reference.high),
        ] {
            assert_eq!(dir.report.tau, ref_dir.report.tau, "{strategy:?}");
            assert_eq!(dir.report.p_value, ref_dir.report.p_value, "{strategy:?}");
            assert_eq!(dir.report.findings, ref_dir.report.findings, "{strategy:?}");
            assert_eq!(dir.evidence, ref_dir.evidence, "{strategy:?}");
        }
    }
    // The suite's three directions under every statistic, kd-tree
    // against brute force.
    let (kd, brute) = kd_and_brute(&o, &regions, CountingStrategy::Membership);
    let worlds = draw_worlds(&kd, NullModel::Bernoulli, WorldGen::Word, 5, 12);
    for statistic in Statistic::ALL {
        assert_engines_agree(&kd, &brute, statistic, &worlds);
    }
}

#[test]
fn early_stop_is_backend_invariant_and_verdict_preserving() {
    let o = outcomes(2500, 6);
    let regions = mixed_regions(&o);
    let base = AuditConfig::new(0.05).with_worlds(199).with_seed(8);
    let full = Auditor::new(base).audit(&o, &regions).unwrap();
    let mut stopped_reports = Vec::new();
    for strategy in CountingStrategy::ALL {
        let cfg = base
            .with_strategy(strategy)
            .with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 });
        let report = Auditor::new(cfg).audit(&o, &regions).unwrap();
        assert_eq!(report.verdict(), full.verdict(), "{strategy:?}");
        // Evaluated worlds are a prefix of the full run's.
        assert_eq!(
            full.simulated[..report.worlds_evaluated],
            report.simulated[..],
            "{strategy:?}"
        );
        stopped_reports.push((strategy, report));
    }
    // Every strategy stops at the same batch with the same truncated
    // distribution.
    let (_, first) = &stopped_reports[0];
    for (strategy, report) in &stopped_reports[1..] {
        assert_eq!(
            report.worlds_evaluated, first.worlds_evaluated,
            "{strategy:?}"
        );
        assert_eq!(report.p_value, first.p_value, "{strategy:?}");
    }
}

#[test]
fn auto_strategy_report_matches_reference_json() {
    // Belt and braces: Auto must not even perturb serialization-level
    // content (beyond the recorded strategy knob itself).
    let o = outcomes(900, 9);
    let regions = mixed_regions(&o);
    let base = AuditConfig::new(0.05).with_worlds(49).with_seed(13);
    let reference = Auditor::new(base).audit(&o, &regions).unwrap();
    let mut auto = Auditor::new(base.with_strategy(CountingStrategy::Auto))
        .audit(&o, &regions)
        .unwrap();
    auto.config.strategy = reference.config.strategy;
    assert_eq!(auto.to_json(), reference.to_json());
}
