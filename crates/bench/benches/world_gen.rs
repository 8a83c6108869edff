//! World *generation* in isolation: scalar per-point draws vs the
//! word-parallel v2 generator, across null models and storage layouts.
//!
//! PR 3 made world counting a masked-popcount sweep, which moved the
//! cold-path bottleneck to label generation. This group isolates that
//! pass on one workload:
//!
//! * `scalar_*` — [`WorldGen::Scalar`]: one `gen_bool` / Fisher–Yates
//!   draw per point (the v1 stream).
//! * `word_*` — [`WorldGen::Word`]: Bernoulli labels 64 per
//!   threshold-refinement pass, written as whole words (dense side of
//!   permutations likewise whole-word initialised).
//! * `*_identity` — a membership-strategy engine (identity layout:
//!   word draws scatter set lanes back to ids).
//! * `*_morton` — a blocked engine (Morton layout: word draws land
//!   directly in the layout-space label blocks — the serve fast path).
//!
//! The `serve-bench` experiments subcommand measures the same
//! comparison inside the full serving workload and persists
//! `BENCH_PR5.json`.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sfbench::two_sided_tau;
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
    let identity =
        ScanEngine::build(&outcomes, &regions, CountingStrategy::Membership).expect("auditable");
    let morton =
        ScanEngine::build(&outcomes, &regions, CountingStrategy::Blocked).expect("auditable");

    // Word worlds must agree across layouts before timing anything
    // (same physical labels, different bit positions).
    for w in 0..8u64 {
        for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
            let mut rng = world_rng(3, w);
            let a = identity.generate_world_with(null_model, WorldGen::Word, &mut rng);
            let mut rng = world_rng(3, w);
            let b = morton.generate_world_with(null_model, WorldGen::Word, &mut rng);
            assert_eq!(a.count_ones(), b.count_ones());
            assert_eq!(
                two_sided_tau(&identity, &a),
                two_sided_tau(&morton, &b),
                "{null_model:?} world {w}"
            );
        }
    }

    let mut g = c.benchmark_group("world_gen_20k_points");
    let cases: [(&str, &ScanEngine, NullModel, WorldGen); 8] = [
        (
            "scalar_bernoulli_identity",
            &identity,
            NullModel::Bernoulli,
            WorldGen::Scalar,
        ),
        (
            "word_bernoulli_identity",
            &identity,
            NullModel::Bernoulli,
            WorldGen::Word,
        ),
        (
            "scalar_bernoulli_morton",
            &morton,
            NullModel::Bernoulli,
            WorldGen::Scalar,
        ),
        (
            "word_bernoulli_morton",
            &morton,
            NullModel::Bernoulli,
            WorldGen::Word,
        ),
        (
            "scalar_permutation_identity",
            &identity,
            NullModel::Permutation,
            WorldGen::Scalar,
        ),
        (
            "word_permutation_identity",
            &identity,
            NullModel::Permutation,
            WorldGen::Word,
        ),
        (
            "scalar_permutation_morton",
            &morton,
            NullModel::Permutation,
            WorldGen::Scalar,
        ),
        (
            "word_permutation_morton",
            &morton,
            NullModel::Permutation,
            WorldGen::Word,
        ),
    ];
    for (name, engine, null_model, worldgen) in cases {
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
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
