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
//! before timing.
//!
//! A second group, `ring_gather_vs_sweep`, measures why every engine
//! built from membership lists sweeps its ring masks: for region
//! families whose masks span a range of densities, it counts one world
//! and one evaluation batch of [`MAX_FUSED_WORLDS`] worlds by the
//! scalar ring `gather` ([`Membership::count_all_into`] per world) and
//! by the fused mask `sweep`
//! ([`BlockedMembership::count_all_many_into`]), after asserting both
//! agree. Engines count full batches; each family's measured ids per
//! ring word is printed before its timings.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sfbench::clustered_points;
use sfgeo::BoundingBox;
use sfgeo::{Point, Rect};
use sfindex::{
    BitLabels, BlockedMembership, IndexBackend, KdTree, KernelSelect, Membership, MAX_FUSED_WORLDS,
};
use sfscan::engine::ScanEngine;
use sfscan::{CountingStrategy, NullModel, RegionSet, SpatialOutcomes};

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

fn gather_vs_sweep(c: &mut Criterion) {
    let (points, labels) = clustered_points(50_000, 40, 23);
    let bools: Vec<bool> = (0..points.len()).map(|i| labels.get(i)).collect();
    let outcomes = SpatialOutcomes::new(points.clone(), bools).expect("valid outcomes");
    let bounds = outcomes.expanded_bounding_box();
    let centres: Vec<Point> = points.iter().step_by(500).copied().collect();
    let tiny_sides: Vec<f64> = (1..=10).map(|i| i as f64 * 0.01).collect();
    let families = [
        ("grid_40x20", RegionSet::regular_grid(bounds, 40, 20)),
        (
            "squares_paper",
            RegionSet::squares(centres.clone(), &RegionSet::paper_side_lengths()),
        ),
        ("grid_200x200", RegionSet::regular_grid(bounds, 200, 200)),
        ("squares_tiny", RegionSet::squares(centres, &tiny_sides)),
        ("grid_800x800", RegionSet::regular_grid(bounds, 800, 800)),
        (
            "singles",
            RegionSet::from_regions(
                points
                    .iter()
                    .step_by(50)
                    .map(|p| Rect::square(*p, 1e-6).into())
                    .collect(),
            ),
        ),
    ];
    let kernel = KernelSelect::Auto.resolve();
    let mut g = c.benchmark_group("ring_gather_vs_sweep_50k_points");
    for (name, regions) in families {
        let engine =
            ScanEngine::build(&outcomes, &regions, CountingStrategy::Blocked).expect("auditable");
        let (m, masks) = (engine.membership().unwrap(), engine.blocked().unwrap());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let worlds: Vec<BitLabels> = (0..MAX_FUSED_WORLDS)
            .map(|_| engine.generate_world(NullModel::Bernoulli, &mut rng))
            .collect();
        let refs: Vec<&BitLabels> = worlds.iter().collect();
        let (mut one, mut fused) = (Vec::new(), Vec::new());
        masks.count_all_many_into(&refs, kernel, &mut fused);
        for (w, world) in refs.iter().enumerate() {
            m.count_all_into(world, &mut one);
            for (r, &p) in one.iter().enumerate() {
                assert_eq!(fused[r * refs.len() + w], p, "{name}");
            }
        }
        eprintln!(
            "{name}: {} regions, {:.2} ring ids per ring word",
            regions.len(),
            masks.ids_per_word()
        );
        for width in [1, MAX_FUSED_WORLDS] {
            let batch = &refs[..width];
            g.bench_function(format!("{name}/gather_x{width}"), |b| {
                b.iter(|| {
                    for world in batch {
                        m.count_all_into(black_box(world), &mut one);
                    }
                    black_box(one.last().copied())
                })
            });
            g.bench_function(format!("{name}/sweep_x{width}"), |b| {
                b.iter(|| {
                    masks.count_all_many_into(black_box(batch), kernel, &mut fused);
                    black_box(fused.last().copied())
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench, gather_vs_sweep
}
criterion_main!(benches);
