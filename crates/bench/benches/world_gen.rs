//! World *generation* in isolation: scalar per-point draws vs the
//! word-parallel v2 generator, across null models.
//!
//! PR 3 made world counting a masked-popcount sweep, which moved the
//! cold-path bottleneck to label generation. This group isolates that
//! pass on one workload:
//!
//! * `scalar_*` — [`WorldGen::Scalar`]: one `gen_bool` / Fisher–Yates
//!   draw per point (the v1 stream).
//! * `word_*` — [`WorldGen::Word`]: Bernoulli labels 64 per
//!   threshold-refinement pass, written as whole words into the
//!   Morton-layout label blocks (dense side of permutations likewise
//!   whole-word initialised).
//!
//! Every counting strategy stores worlds in the same layout, so one
//! engine stands for all of them.
//!
//! Both world sizes of the end-to-end benchmark are covered: the 20k
//! point SynthGrid (ρ ≈ 0.46, 20 generation chunks) and the 10k point
//! small SynthLAR (its lower approval-denial rate, 10 chunks).

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sfdata::lar::{LarConfig, LarDataset};
use sfdata::synth::SynthConfig;
use sfscan::engine::ScanEngine;
use sfscan::{CountingStrategy, NullModel, RegionSet, WorldGen};
use sfstats::rng::world_rng;

fn bench(c: &mut Criterion) {
    let outcomes = SynthConfig {
        per_half: 10_000,
        ..SynthConfig::paper()
    }
    .generate(29);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 16);
    let engine =
        ScanEngine::build(&outcomes, &regions, CountingStrategy::Membership).expect("auditable");

    let mut g = c.benchmark_group("world_gen_20k_points");
    let cases: [(&str, NullModel, WorldGen); 4] = [
        ("scalar_bernoulli", NullModel::Bernoulli, WorldGen::Scalar),
        ("word_bernoulli", NullModel::Bernoulli, WorldGen::Word),
        (
            "scalar_permutation",
            NullModel::Permutation,
            WorldGen::Scalar,
        ),
        ("word_permutation", NullModel::Permutation, WorldGen::Word),
    ];
    for (name, null_model, worldgen) in cases {
        g.bench_function(name, |b| {
            let mut world = 0u64;
            b.iter(|| {
                world = world.wrapping_add(1);
                let mut rng = world_rng(11, world);
                let labels = engine.generate_world_with(null_model, worldgen, &mut rng);
                black_box(labels.count_ones())
            })
        });
    }
    g.finish();

    let lar = LarDataset::generate(&LarConfig::small()).outcomes;
    let regions = RegionSet::regular_grid(lar.expanded_bounding_box(), 16, 16);
    let engine =
        ScanEngine::build(&lar, &regions, CountingStrategy::Membership).expect("auditable");
    let mut g = c.benchmark_group("world_gen_10k_lar");
    for (name, worldgen) in [
        ("scalar_bernoulli", WorldGen::Scalar),
        ("word_bernoulli", WorldGen::Word),
    ] {
        g.bench_function(name, |b| {
            let mut world = 0u64;
            b.iter(|| {
                world = world.wrapping_add(1);
                let mut rng = world_rng(11, world);
                let labels = engine.generate_world_with(NullModel::Bernoulli, worldgen, &mut rng);
                black_box(labels.count_ones())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
