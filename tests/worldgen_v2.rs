//! WorldGen v2 contract tests: the word-parallel generator's exactness
//! (`Permutation` worlds carry exactly `P` positives), its statistical
//! equivalence to the scalar generator (Bernoulli totals follow the
//! same binomial law), its bit-identity across every index backend,
//! counting strategy and generation path, and the world-class
//! separation that keeps `Scalar` and `Word` τ-prefixes from ever being
//! spliced in the world cache.

use proptest::prelude::*;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::engine::ScanEngine;
use spatial_fairness::scan::{
    CountingStrategy, IndexBackend, McStrategy, NullModel, WorldCache, WorldGen,
};
use spatial_fairness::stats::rng::world_rng;

/// Arbitrary outcome sets with both classes present; `dense` flips the
/// labels so the positive rate crosses 1/2 (exercising the word
/// permutation generator's complement path).
fn arb_outcomes() -> impl Strategy<Value = SpatialOutcomes> {
    (
        prop::collection::vec(((0.0..12.0f64), (0.0..12.0f64), 0u8..4), 40..260),
        any::<bool>(),
    )
        .prop_map(|(mut rows, dense)| {
            rows[0].2 = 0;
            rows[1].2 = 3;
            let points = rows.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            // Base rate 1/4; `dense` inverts to 3/4.
            let labels = rows
                .iter()
                .map(|&(_, _, l)| (l == 0) ^ dense)
                .collect::<Vec<bool>>();
            SpatialOutcomes::new(points, labels).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (c) `Word` worlds are bit-identical across both backends and
    /// all explicit counting strategies: the same bitset (every engine
    /// stores worlds in one layout) and the same multi-direction τ
    /// fold.
    #[test]
    fn word_worlds_are_bit_identical_across_backends_and_strategies(
        outcomes in arb_outcomes(),
        nx in 2usize..6,
        ny in 2usize..6,
        seed in 0u64..500,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), nx, ny);
        let reference =
            ScanEngine::build(&outcomes, &regions, CountingStrategy::Membership).unwrap();
        let dirs = [Direction::TwoSided, Direction::High, Direction::Low];
        for backend in IndexBackend::ALL {
            for strategy in [
                CountingStrategy::Membership,
                CountingStrategy::Requery,
                CountingStrategy::Blocked,
            ] {
                let engine =
                    ScanEngine::build_with(&outcomes, &regions, backend, strategy).unwrap();
                for (w, null_model) in [NullModel::Bernoulli, NullModel::Permutation]
                    .into_iter()
                    .enumerate()
                {
                    let mut rng = world_rng(seed, w as u64);
                    let world = engine.generate_world_with(null_model, WorldGen::Word, &mut rng);
                    let mut ref_rng = world_rng(seed, w as u64);
                    let ref_world =
                        reference.generate_world_with(null_model, WorldGen::Word, &mut ref_rng);
                    prop_assert_eq!(&world, &ref_world, "{} {:?}", backend, strategy);
                    let mut taus = [0.0; 3];
                    let mut ref_taus = [0.0; 3];
                    engine.eval(engine.statistic(), &[&world], &dirs, &mut taus, false);
                    reference.eval(reference.statistic(), &[&ref_world], &dirs, &mut ref_taus, false);
                    prop_assert_eq!(
                        taus, ref_taus,
                        "{} {:?} {:?} diverged", backend, strategy, null_model
                    );
                }
            }
        }
    }

    /// (e) One world layout on every generation path: for Membership,
    /// Blocked and Requery engines, both null models and both
    /// generators, `generate_world_with`, `generate_world_par` and the
    /// words inside a `generate_world_window` are the Membership
    /// engine's bitset, and full audits are identical.
    #[test]
    fn every_generation_path_draws_the_same_bitset(
        outcomes in arb_outcomes(),
        seed in 0u64..500,
        ends in (0usize..6, 0usize..6),
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        let num_words = outcomes.len().div_ceil(64);
        let (a, b) = (ends.0.min(num_words), ends.1.min(num_words));
        let (word_lo, word_hi) = (a.min(b), a.max(b));
        let strategies = [
            CountingStrategy::Membership,
            CountingStrategy::Blocked,
            CountingStrategy::Requery,
        ];
        let engines = strategies.map(|s| ScanEngine::build(&outcomes, &regions, s).unwrap());
        for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
            for worldgen in [WorldGen::Scalar, WorldGen::Word] {
                let reference =
                    engines[0].generate_world_with(null_model, worldgen, &mut world_rng(seed, 3));
                for (engine, strategy) in engines.iter().zip(strategies) {
                    let label = format!("{strategy:?} {null_model:?} {worldgen:?}");
                    let world =
                        engine.generate_world_with(null_model, worldgen, &mut world_rng(seed, 3));
                    prop_assert_eq!(&world, &reference, "with: {}", &label);
                    let world =
                        engine.generate_world_par(null_model, worldgen, &mut world_rng(seed, 3));
                    prop_assert_eq!(&world, &reference, "par: {}", &label);
                    let window = engine.generate_world_window(
                        null_model,
                        worldgen,
                        &mut world_rng(seed, 3),
                        word_lo,
                        word_hi,
                    );
                    prop_assert_eq!(
                        &window.blocks()[word_lo..word_hi],
                        &reference.blocks()[word_lo..word_hi],
                        "window {}..{}: {}", word_lo, word_hi, &label
                    );
                }
                let base = AuditConfig::new(0.1)
                    .with_worlds(19)
                    .with_seed(seed)
                    .with_null_model(null_model)
                    .with_worldgen(worldgen);
                let expected = Auditor::new(base.with_strategy(strategies[0]))
                    .audit(&outcomes, &regions)
                    .unwrap();
                for strategy in &strategies[1..] {
                    let mut report = Auditor::new(base.with_strategy(*strategy))
                        .audit(&outcomes, &regions)
                        .unwrap();
                    // The report embeds its config; align the strategy
                    // knob so the comparison checks the results.
                    report.config.strategy = expected.config.strategy;
                    prop_assert_eq!(&report, &expected, "{:?}", strategy);
                }
            }
        }
    }

    /// (a) The exact-P invariant: every `Word` permutation world
    /// carries exactly the observed number of positives, on both
    /// sides of the ρ = 1/2 complement switch.
    #[test]
    fn word_permutation_worlds_have_exactly_p_positives(
        outcomes in arb_outcomes(),
        seed in 0u64..1000,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        for strategy in [CountingStrategy::Membership, CountingStrategy::Blocked] {
            let engine = ScanEngine::build(&outcomes, &regions, strategy).unwrap();
            for w in 0..8u64 {
                let mut rng = world_rng(seed, w);
                let world =
                    engine.generate_world_with(NullModel::Permutation, WorldGen::Word, &mut rng);
                prop_assert_eq!(world.count_ones(), outcomes.positives(), "{:?}", strategy);
            }
        }
    }

    /// (d) Cache keys never mix generator versions: a cache warmed by
    /// one version replays nothing for the other, and both versions'
    /// replays stay bit-identical to their own cold runs.
    #[test]
    fn cached_batches_never_splice_scalar_and_word_prefixes(
        outcomes in arb_outcomes(),
        seed in 0u64..100,
    ) {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 3, 3);
        let base = AuditConfig::new(0.05).with_worlds(29).with_seed(seed);
        let prepared = PreparedAudit::prepare(&outcomes, &regions, base).unwrap();
        let scalar = AuditRequest::from_config(&base).with_worldgen(WorldGen::Scalar);
        let word = scalar.with_worldgen(WorldGen::Word);
        let mut cache = WorldCache::new();
        let (word_cold, s1) = prepared.run_batch_cached(std::slice::from_ref(&word), &mut cache);
        prop_assert_eq!(s1.worlds_replayed, 0);
        prop_assert_eq!(s1.unique_worlds, 29);
        // The scalar request shares (null model, seed) but NOT the
        // generator version: full simulation, no replay.
        let (scalar_cold, s2) =
            prepared.run_batch_cached(std::slice::from_ref(&scalar), &mut cache);
        prop_assert_eq!(s2.worlds_replayed, 0, "scalar must not replay word rows");
        prop_assert_eq!(s2.unique_worlds, 29);
        // Both classes now replay from their own prefixes, bit-identically.
        let (word_warm, s3) = prepared.run_batch_cached(std::slice::from_ref(&word), &mut cache);
        prop_assert_eq!(s3.unique_worlds, 0);
        prop_assert_eq!(s3.worlds_replayed, 29);
        prop_assert_eq!(&word_warm, &word_cold);
        let (scalar_warm, s4) =
            prepared.run_batch_cached(std::slice::from_ref(&scalar), &mut cache);
        prop_assert_eq!(s4.unique_worlds, 0);
        prop_assert_eq!(&scalar_warm, &scalar_cold);
        // And the streams themselves are genuinely different.
        prop_assert_ne!(&word_cold[0].simulated, &scalar_cold[0].simulated);
        // Both stay bit-identical to standalone audits of their version.
        prop_assert_eq!(&word_cold[0], &Auditor::new(word.apply_to(base))
            .audit(&outcomes, &regions).unwrap());
        prop_assert_eq!(&scalar_cold[0], &Auditor::new(scalar.apply_to(base))
            .audit(&outcomes, &regions).unwrap());
    }
}

/// (b) Statistical equivalence of the generators: `Word` Bernoulli
/// world totals follow the same Binomial(N, ρ̂) law as `Scalar` ones —
/// matching mean and variance, and a two-sample Kolmogorov–Smirnov
/// distance within the deterministic-seed bound.
#[test]
fn word_bernoulli_totals_match_the_scalar_binomial_law() {
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for i in 0..4000usize {
        points.push(Point::new((i % 64) as f64, (i / 64) as f64));
        labels.push(i % 10 < 3); // ρ̂ = 0.3
    }
    let outcomes = SpatialOutcomes::new(points, labels).unwrap();
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 4, 4);
    let engine = ScanEngine::build(&outcomes, &regions, CountingStrategy::Blocked).unwrap();
    let n = outcomes.len() as f64;
    let rho = outcomes.rate();
    let worlds = 400usize;
    let totals = |worldgen: WorldGen| -> Vec<f64> {
        (0..worlds)
            .map(|w| {
                let mut rng = world_rng(77, w as u64);
                engine
                    .generate_world_with(NullModel::Bernoulli, worldgen, &mut rng)
                    .count_ones() as f64
            })
            .collect()
    };
    let scalar = totals(WorldGen::Scalar);
    let word = totals(WorldGen::Word);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var = |v: &[f64]| {
        let m = mean(v);
        v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64
    };
    let expected_mean = n * rho;
    let expected_var = n * rho * (1.0 - rho);
    let sd_of_mean = (expected_var / worlds as f64).sqrt();
    for (name, sample) in [("scalar", &scalar), ("word", &word)] {
        let m = mean(sample);
        assert!(
            (m - expected_mean).abs() < 5.0 * sd_of_mean,
            "{name} mean {m} vs binomial {expected_mean}"
        );
        let v = var(sample);
        assert!(
            v > 0.5 * expected_var && v < 1.6 * expected_var,
            "{name} variance {v} vs binomial {expected_var}"
        );
    }
    // Two-sample KS distance between the empirical total distributions.
    let mut a = scalar.clone();
    let mut b = word.clone();
    a.sort_by(|x, y| x.partial_cmp(y).unwrap());
    b.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let grid: Vec<f64> = a.iter().chain(&b).copied().collect();
    let cdf = |sorted: &[f64], x: f64| -> f64 {
        sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64
    };
    let ks = grid
        .iter()
        .map(|&x| (cdf(&a, x) - cdf(&b, x)).abs())
        .fold(0.0f64, f64::max);
    // α = 0.001 critical value for n = m = 400 is ~0.138.
    assert!(
        ks < 0.138,
        "KS distance {ks} between scalar and word totals"
    );
}

/// The serving stack end to end: mixed Scalar/Word batches through an
/// `AuditService` session stay bit-identical to standalone audits and
/// account their world classes separately.
#[test]
fn mixed_worldgen_service_batches_are_bit_identical_and_separately_cached() {
    use spatial_fairness::serve::AuditService;
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for i in 0..1500usize {
        points.push(Point::new((i % 50) as f64 / 5.0, (i / 50) as f64 / 3.0));
        labels.push((i * 7 + i / 13) % 5 < 2);
    }
    let outcomes = SpatialOutcomes::new(points, labels).unwrap();
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 4, 4);
    let base = AuditConfig::new(0.05).with_worlds(49).with_seed(9);
    let mut service = AuditService::new();
    let handle = service.register(&outcomes, &regions, base).unwrap();
    let scalar = AuditRequest::from_config(&base).with_worldgen(WorldGen::Scalar);
    let requests = [
        scalar,
        scalar.with_worldgen(WorldGen::Word),
        scalar
            .with_worldgen(WorldGen::Word)
            .with_direction(Direction::High),
        scalar.with_mc_strategy(McStrategy::EarlyStop { batch_size: 8 }),
    ];
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| service.submit(handle, *r).unwrap())
        .collect();
    service.flush();
    // Scalar class + word class: 49 worlds each (the word directions
    // share one stream; the early stopper rides the scalar stream).
    assert_eq!(service.stats().unique_worlds, 2 * 49);
    for (request, ticket) in requests.iter().zip(tickets) {
        let response = service.take(ticket).unwrap();
        let expected = Auditor::new(request.apply_to(base))
            .audit(&outcomes, &regions)
            .unwrap();
        assert_eq!(response.report, expected, "request {request:?}");
    }
    // Warm repeats of both versions replay from their own classes.
    let before = service.stats().unique_worlds;
    for request in &requests {
        service.submit(handle, *request).unwrap();
    }
    service.flush();
    assert_eq!(service.stats().unique_worlds, before);
}
