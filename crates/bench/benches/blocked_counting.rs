//! Blocked world counting vs the scalar membership gather.
//!
//! The Monte Carlo hot path is `p(R)` recounting per world. This group
//! compares, on one workload, the three ways to run it:
//!
//! * `membership_scalar` — [`Membership::count_all_into`]: one bitset
//!   read per member id (the pre-blocked hot path).
//! * `blocked_flat` — [`BlockedMembership`] compiled in dataset id
//!   order: masked popcounts, but scattered ids keep masks sparse.
//! * `blocked_morton` — the production configuration: a blocked
//!   [`ScanEngine`]'s masks over Morton positions, so compact regions
//!   own dense runs and each popcnt covers up to 64 ids.
//!
//! `membership_scalar` reads a membership engine's lists, which hold
//! the same Morton positions. All three are asserted bit-identical
//! before timing. The `serve-bench` experiments subcommand measures
//! the same comparison inside the full serving workload and persists
//! `BENCH_PR3.json`.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sfbench::clustered_points;
use sfgeo::BoundingBox;
use sfindex::{BitLabels, BlockedMembership, IndexBackend, KdTree, Membership};
use sfscan::engine::ScanEngine;
use sfscan::{CountingStrategy, RegionSet, SpatialOutcomes};

fn bench(c: &mut Criterion) {
    let (points, _) = clustered_points(50_000, 40, 23);
    let n = points.len();
    let bounds = BoundingBox::of_points_expanded(&points, 1e-9).unwrap();
    let regions = RegionSet::regular_grid(bounds, 40, 20);
    // One simulated world, used as each engine's real labels.
    let bools: Vec<bool> = (0..n)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 5 < 2)
        .collect();
    let world = BitLabels::from_bools(&bools);
    let kd = KdTree::build(points.clone(), world.clone());
    let flat = BlockedMembership::compile(&Membership::build(&kd, n, regions.regions()))
        .expect("membership lists are valid");
    let outcomes = SpatialOutcomes::new(points, bools).expect("valid outcomes");
    let engine = |strategy| {
        ScanEngine::build_with(&outcomes, &regions, IndexBackend::KdTree, strategy)
            .expect("auditable")
    };
    let membership_engine = engine(CountingStrategy::Membership);
    let blocked_engine = engine(CountingStrategy::Blocked);
    let membership = membership_engine.membership().expect("membership engine");
    let morton = blocked_engine.blocked().expect("blocked engine");
    let morton_world = blocked_engine.real_world();

    // Bit-identity before timing anything.
    let mut scalar_counts = Vec::new();
    let mut flat_counts = Vec::new();
    let mut morton_counts = Vec::new();
    let mut scratch = Vec::new();
    membership.count_all_into(morton_world, &mut scalar_counts);
    flat.count_all_into(&world, &mut flat_counts);
    morton.count_all_into(morton_world, &mut morton_counts);
    assert_eq!(scalar_counts, flat_counts);
    assert_eq!(scalar_counts, morton_counts);

    let mut g = c.benchmark_group("blocked_counting_800_regions_50k_points");
    g.bench_function("membership_scalar", |b| {
        b.iter(|| {
            membership.count_all_into(black_box(morton_world), &mut scratch);
            black_box(scratch.last().copied())
        })
    });
    g.bench_function("blocked_flat", |b| {
        b.iter(|| {
            flat.count_all_into(black_box(&world), &mut scratch);
            black_box(scratch.last().copied())
        })
    });
    g.bench_function("blocked_morton", |b| {
        b.iter(|| {
            morton.count_all_into(black_box(morton_world), &mut scratch);
            black_box(scratch.last().copied())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
