//! Substrate performance: k-means, random forest, summed-area tables,
//! membership construction.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sfbench::{clustered_points, small_lar};
use sfcluster::{KMeans, KMeansConfig};
use sfdata::crime::{CrimeConfig, CrimeData};
use sfgeo::UniformGrid;
use sfindex::{IndexBackend, KdTree, Membership, Substrate, SummedAreaTable};
use sfml::RandomForestConfig;
use sfscan::RegionSet;

fn bench(c: &mut Criterion) {
    let lar = small_lar();

    let mut g = c.benchmark_group("substrates");
    g.sample_size(10);

    g.bench_function("kmeans_k50_on_2500_locations", |b| {
        b.iter(|| {
            black_box(KMeans::fit(
                black_box(&lar.locations),
                &KMeansConfig::new(50, 21),
            ))
        })
    });

    let crime = CrimeData::generate(&CrimeConfig {
        incidents: 8_000,
        ..CrimeConfig::small()
    });
    let mut rf = RandomForestConfig::new(5, 22);
    rf.tree.max_depth = 8;
    g.bench_function("random_forest_5_trees_8k_rows", |b| {
        b.iter(|| black_box(sfml::RandomForest::fit(black_box(&crime.features), &rf)))
    });

    let (points, labels) = clustered_points(50_000, 40, 23);
    let grid = UniformGrid::new(
        sfgeo::BoundingBox::of_points_expanded(&points, 1e-9).unwrap(),
        100,
        50,
    );
    g.bench_function("summed_area_table_build_50k_points_100x50", |b| {
        b.iter(|| {
            black_box(SummedAreaTable::build(
                black_box(&points),
                black_box(&labels),
                grid.clone(),
            ))
        })
    });

    let alias = sfstats::alias::AliasTable::new(&(1..=400).map(|i| i as f64).collect::<Vec<_>>());
    g.bench_function("alias_multinomial_100k_draws_400_cells", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut rng = sfstats::rng::world_rng(24, i);
            black_box(alias.sample_counts(100_000, &mut rng))
        })
    });

    let kd = KdTree::build(points.clone(), labels.clone());
    let regions = RegionSet::regular_grid(grid.bounds(), 40, 20);
    g.bench_function("membership_build_800_regions_50k_points", |b| {
        b.iter(|| {
            black_box(Membership::build(
                black_box(&kd),
                points.len(),
                black_box(regions.regions()),
            ))
        })
    });

    // Runtime-selected substrate construction: the build-cost side of
    // the backend choice.
    for backend in IndexBackend::ALL {
        g.bench_function(
            format!("substrate_build_50k_points/{}", backend.name()),
            |b| {
                b.iter(|| {
                    black_box(Substrate::build(
                        backend,
                        black_box(points.clone()),
                        black_box(labels.clone()),
                    ))
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
