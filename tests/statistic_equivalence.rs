//! Pluggable-statistic contracts, pinned end to end.
//!
//! The `TauKernel` refactor threads the per-region test statistic
//! through every execution path — engine fold, fused sweep, shard
//! reduce, world cache, wire. Four contracts keep it honest:
//!
//! 1. **BernoulliLlr is the pre-refactor audit, bit for bit**, on
//!    every backend × counting strategy × world generator × shard
//!    count — the kernel indirection must cost nothing semantically.
//! 2. **Statistics are distinct world-cache classes**: same null
//!    model, seed, and generator under a different statistic must
//!    never replay a cached τ-stream (a cached row stores the
//!    *scored* τ, not the counts).
//! 3. **v1 wire lines replay bit-identically**: request payloads
//!    without a `"statistic"` field decode as Bernoulli LLR, and a
//!    default-statistic request serialises without the field at all.
//! 4. **The new statistics run end to end** through submit → drain
//!    with early stopping, warm world-cache replays, and sharding.

use spatial_fairness::prelude::*;
use spatial_fairness::scan::prepared::ExecutionPlan;
use spatial_fairness::scan::{CountingStrategy, IndexBackend, McStrategy, Shards, WorldGen};

fn outcomes(n: usize, seed: u64) -> SpatialOutcomes {
    // Deterministic unfair layout: left half is positive-rich, with a
    // mild hash-mixed sprinkle so no region is degenerate.
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        let x = (h % 1000) as f64 / 100.0;
        let y = ((h >> 10) % 1000) as f64 / 100.0;
        points.push(Point::new(x, y));
        let five = h.is_multiple_of(5);
        labels.push(if x < 5.0 { !five } else { five });
    }
    SpatialOutcomes::new(points, labels).unwrap()
}

fn grid() -> RegionSet {
    RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
}

#[test]
fn bernoulli_llr_is_bit_identical_on_every_execution_path() {
    let o = outcomes(1000, 3);
    let regions = grid();
    let strategies = [
        CountingStrategy::Membership,
        CountingStrategy::Requery,
        CountingStrategy::Blocked,
    ];
    for worldgen in [WorldGen::Scalar, WorldGen::Word] {
        // The reference: default backend/strategy, unsharded, with the
        // statistic left at its default (the pre-refactor fold).
        let base = AuditConfig::new(0.05)
            .with_worlds(49)
            .with_seed(11)
            .with_worldgen(worldgen);
        let reference = Auditor::new(base.with_shards(Shards::Fixed(1)))
            .audit(&o, &regions)
            .unwrap();
        for backend in IndexBackend::ALL {
            for strategy in strategies {
                for shards in [1usize, 4] {
                    let config = base
                        .with_backend(backend)
                        .with_strategy(strategy)
                        .with_shards(Shards::Fixed(shards))
                        .with_statistic(Statistic::BernoulliLlr);
                    let report = Auditor::new(config).audit(&o, &regions).unwrap();
                    let label = format!("{backend}/{strategy:?}/{worldgen:?}/shards={shards}");
                    assert_eq!(report.tau, reference.tau, "{label}");
                    assert_eq!(report.p_value, reference.p_value, "{label}");
                    assert_eq!(report.simulated, reference.simulated, "{label}");
                    assert_eq!(report.findings, reference.findings, "{label}");
                }
            }
        }
    }
}

#[test]
fn statistics_are_distinct_world_classes_and_never_cross_replay() {
    let o = outcomes(800, 7);
    let regions = grid();
    let base = AuditConfig::new(0.05).with_worlds(39).with_seed(5);

    // Plan level: identical knobs except the statistic must split into
    // separate world-sharing groups…
    let request = AuditRequest::from_config(&base);
    let split = ExecutionPlan::new(vec![
        request,
        request.with_statistic(Statistic::EqualOppTpr),
        request.with_statistic(Statistic::MeanResidual),
    ]);
    assert_eq!(split.groups().len(), 3, "one group per statistic");
    // …while a same-statistic pair still shares.
    let shared = ExecutionPlan::new(vec![request, request.with_direction(Direction::High)]);
    assert_eq!(shared.groups().len(), 1);

    // Cache level: a warmed Bernoulli-LLR session must not replay its
    // τ-stream for a different statistic under the same (null model,
    // seed, worldgen).
    let mut service = AuditService::new();
    let handle = service.register(&o, &regions, base).unwrap();
    let llr = service.submit(handle, request).unwrap();
    service.flush();
    let after_llr = service.stats();
    service.take(llr).unwrap();

    let eo = service
        .submit(handle, request.with_statistic(Statistic::EqualOppTpr))
        .unwrap();
    service.flush();
    let after_eo = service.stats();
    service.take(eo).unwrap();
    assert!(
        after_eo.unique_worlds > after_llr.unique_worlds,
        "a new statistic must simulate its own worlds, not replay LLR τ"
    );
    assert_eq!(after_eo.cache_hits, after_llr.cache_hits);

    // A strict repeat of the equal-opportunity request IS a cache hit.
    let repeat = service
        .submit(handle, request.with_statistic(Statistic::EqualOppTpr))
        .unwrap();
    service.flush();
    let after_repeat = service.stats();
    service.take(repeat).unwrap();
    assert_eq!(after_repeat.unique_worlds, after_eo.unique_worlds);
    assert!(after_repeat.cache_hits > after_eo.cache_hits);
}

#[test]
fn v1_wire_lines_replay_bit_identically() {
    let o = outcomes(900, 9);
    let regions = grid();
    let base = AuditConfig::new(0.05).with_worlds(49).with_seed(13);
    let mut service = AuditService::new();
    let handle = service.register(&o, &regions, base).unwrap();

    // A hardcoded v1 request line: no "statistic", no "worldgen" — the
    // pre-refactor wire shape.
    let v1_line = format!(
        "{{\"handle\": {}, \"request\": {{\"alpha\": 0.05, \"worlds\": 49, \"seed\": 13, \
         \"direction\": \"TwoSided\", \"null_model\": \"Bernoulli\", \
         \"mc_strategy\": \"FullBudget\"}}}}",
        handle.0
    );
    let ticket = service.submit_json(&v1_line).unwrap();
    service.flush();
    let report = service.take(ticket).unwrap().report;
    assert_eq!(report.config.statistic, Statistic::BernoulliLlr);
    assert_eq!(report.config.worldgen, WorldGen::Scalar);
    let expected = Auditor::new(
        base.with_worldgen(WorldGen::Scalar)
            .with_statistic(Statistic::BernoulliLlr),
    )
    .audit(&o, &regions)
    .unwrap();
    assert_eq!(report, expected, "v1 lines replay the v1 audit bit for bit");

    // A default-statistic request serialises WITHOUT the field, so
    // today's envelopes are byte-compatible with v1 consumers…
    let request = service.default_request(handle).unwrap();
    let line = spatial_fairness::serve::RequestEnvelope::new(handle, request).to_json();
    assert!(!line.contains("statistic"), "{line}");
    // …and a non-default statistic declares itself on the wire and
    // round-trips.
    let eo_line = spatial_fairness::serve::RequestEnvelope::new(
        handle,
        request.with_statistic(Statistic::EqualOppTpr),
    )
    .to_json();
    assert!(
        eo_line.contains("\"statistic\":\"equal-opp-tpr\""),
        "{eo_line}"
    );
    let back = spatial_fairness::serve::RequestEnvelope::from_json(&eo_line).unwrap();
    assert_eq!(back.request.statistic, Statistic::EqualOppTpr);
}

#[test]
fn new_statistics_run_end_to_end_with_early_stop_cache_and_shards() {
    let o = outcomes(1200, 21);
    let regions = grid();
    for statistic in [Statistic::EqualOppTpr, Statistic::MeanResidual] {
        let base = AuditConfig::new(0.05)
            .with_worlds(99)
            .with_seed(17)
            .with_statistic(statistic)
            .with_shards(Shards::Fixed(4));
        let mut service = AuditService::new();
        let handle = service.register(&o, &regions, base).unwrap();
        let request = service.default_request(handle).unwrap();
        let cold = service.submit(handle, request).unwrap();
        let stopped = service
            .submit(
                handle,
                request.with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
            )
            .unwrap();
        service.flush();
        let cold_report = service.take(cold).unwrap().report;
        let stopped_report = service.take(stopped).unwrap().report;
        assert_eq!(cold_report.config.statistic, statistic);
        assert!(cold_report.p_value > 0.0 && cold_report.p_value <= 1.0);
        assert!(cold_report.tau.is_finite());
        // Early stopping evaluates a prefix of the full τ-stream and
        // preserves the verdict.
        assert!(stopped_report.worlds_evaluated <= cold_report.worlds_evaluated);
        assert_eq!(
            cold_report.simulated[..stopped_report.worlds_evaluated],
            stopped_report.simulated[..]
        );
        assert_eq!(stopped_report.verdict(), cold_report.verdict());
        // A repeat is answered warm from the statistic's own cache
        // class: zero new worlds, bit-identical report.
        let before = service.stats();
        let warm = service.submit(handle, request).unwrap();
        service.flush();
        let after = service.stats();
        assert_eq!(service.take(warm).unwrap().report, cold_report);
        assert_eq!(after.unique_worlds, before.unique_worlds);
        assert!(after.cache_hits > before.cache_hits);
        // Sharded equals unsharded under the new statistic too.
        let unsharded = Auditor::new(base.with_shards(Shards::Fixed(1)).sequential())
            .audit(&o, &regions)
            .unwrap();
        assert_eq!(cold_report.tau, unsharded.tau, "{statistic}");
        assert_eq!(cold_report.p_value, unsharded.p_value, "{statistic}");
        assert_eq!(cold_report.simulated, unsharded.simulated, "{statistic}");
        assert_eq!(cold_report.findings, unsharded.findings, "{statistic}");
    }

    // On identical binary outcomes the equal-opportunity fold IS the
    // Bernoulli LLR (the conditioning happens upstream in
    // `SpatialOutcomes::from_predictions`), so the two reports differ
    // only in the config's statistic tag. MeanResidual genuinely
    // rescores.
    let base = AuditConfig::new(0.05).with_worlds(49).with_seed(29);
    let llr = Auditor::new(base).audit(&o, &regions).unwrap();
    let mut eo = Auditor::new(base.with_statistic(Statistic::EqualOppTpr))
        .audit(&o, &regions)
        .unwrap();
    assert_eq!(eo.config.statistic, Statistic::EqualOppTpr);
    eo.config.statistic = Statistic::BernoulliLlr;
    assert_eq!(eo, llr);
    let mr = Auditor::new(base.with_statistic(Statistic::MeanResidual))
        .audit(&o, &regions)
        .unwrap();
    assert_ne!(mr.tau, llr.tau, "mean-residual is a different score");
}
