//! Ablation: Monte Carlo design choices (DESIGN.md §4).
//!
//! * Null model: Bernoulli label redraw (the paper's §3 choice) vs
//!   permutation conditioning on `P` (Kulldorff's choice).
//! * Counting strategy: membership-list replay vs per-world re-query.
//! * Budget strategy: full budget vs batched early stopping (the
//!   printed `worlds evaluated` lines quantify the saving — fewer
//!   worlds on clearly-unfair *and* clearly-fair inputs, identical
//!   verdicts).

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use sfbench::{small_lar, two_sided_tau};
use sfgeo::Point;
use sfscan::engine::ScanEngine;
use sfscan::outcomes::SpatialOutcomes;
use sfscan::{AuditConfig, Auditor, CountingStrategy, McStrategy, NullModel, RegionSet};
use sfstats::rng::world_rng;

fn bench(c: &mut Criterion) {
    let lar = small_lar();
    let regions = RegionSet::regular_grid(lar.outcomes.expanded_bounding_box(), 40, 20);
    let mem_engine =
        ScanEngine::build(&lar.outcomes, &regions, CountingStrategy::Membership).unwrap();
    let req_engine = ScanEngine::build(&lar.outcomes, &regions, CountingStrategy::Requery).unwrap();

    let mut g = c.benchmark_group("world_generation_10k_points");
    g.bench_function("bernoulli", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = world_rng(1, i);
            black_box(mem_engine.generate_world(NullModel::Bernoulli, &mut rng))
        })
    });
    g.bench_function("permutation", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = world_rng(1, i);
            black_box(mem_engine.generate_world(NullModel::Permutation, &mut rng))
        })
    });
    g.finish();

    let mut rng = world_rng(2, 0);
    let labels = mem_engine.generate_world(NullModel::Bernoulli, &mut rng);

    let mut g = c.benchmark_group("world_eval_800_regions_10k_points");
    g.bench_function("membership_replay", |b| {
        b.iter(|| black_box(two_sided_tau(&mem_engine, black_box(&labels))))
    });
    g.bench_function("requery", |b| {
        b.iter(|| black_box(two_sided_tau(&req_engine, black_box(&labels))))
    });
    g.finish();

    // Budget strategies on a clearly-unfair input (LAR) and a
    // clearly-fair one: early stopping must evaluate fewer worlds in
    // both regimes while returning the same verdict.
    let fair = {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let n = 10_000;
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let labs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        SpatialOutcomes::new(points, labs).expect("valid outcomes")
    };
    let fair_regions = RegionSet::regular_grid(fair.expanded_bounding_box(), 20, 10);
    let unfair_regions = RegionSet::regular_grid(lar.outcomes.expanded_bounding_box(), 20, 10);

    let mut g = c.benchmark_group("mc_budget_strategies_199_worlds");
    g.sample_size(10);
    for (label, outcomes, regions) in [
        ("unfair_lar", &lar.outcomes, &unfair_regions),
        ("fair_uniform", &fair, &fair_regions),
    ] {
        for (strat_label, strategy) in [
            ("full_budget", McStrategy::FullBudget),
            ("early_stop", McStrategy::early_stop()),
        ] {
            let cfg = AuditConfig::new(0.05)
                .with_worlds(199)
                .with_seed(9)
                .with_mc_strategy(strategy);
            let report = Auditor::new(cfg)
                .audit(outcomes, regions)
                .expect("auditable");
            println!(
                "mc_budget_strategies/{label}/{strat_label}: verdict {}, {} of {} worlds evaluated",
                report.verdict(),
                report.worlds_evaluated,
                cfg.worlds
            );
            g.bench_with_input(BenchmarkId::new(label, strat_label), &cfg, |b, cfg| {
                b.iter(|| {
                    Auditor::new(*cfg)
                        .audit(black_box(outcomes), black_box(regions))
                        .expect("auditable")
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench
}
criterion_main!(benches);
