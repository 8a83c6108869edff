//! §3 complexity model: `O(M · N · Q)`.
//!
//! `M − 1` Monte Carlo worlds × `N` regions × `Q` per range-count.
//! This harness measures wall-clock while sweeping each factor
//! independently, and compares the kd-tree against its brute-force
//! oracle on the `Q` factor (one range count per query).

use crate::common::{banner, Options};
use sfdata::lar::{LarConfig, LarDataset};
use sfgeo::Region;
use sfindex::{BitLabels, BruteForceIndex, KdTree, RangeCount};
use sfscan::{AuditConfig, Auditor, RegionSet};
use sfstats::rng::derive_seed;
use std::time::Instant;

pub fn run(opts: &Options) {
    banner("§3 complexity — O(M*N*Q) measurements");
    // A mid-size LAR so sweeps stay fast.
    let lar = LarDataset::generate(&LarConfig {
        observations: if opts.quick { 10_000 } else { 50_000 },
        locations: if opts.quick { 2_500 } else { 12_000 },
        seed: opts.seed,
    });
    let outcomes = &lar.outcomes;
    println!("  dataset: N={} observations", outcomes.len());

    // --- sweep M (Monte Carlo worlds), fixed regions ---
    println!("\n  sweep M (worlds), fixed N=400 grid regions:");
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 20, 20);
    for worlds in [99, 199, 399, 799] {
        let config = opts.decorate(
            AuditConfig::new(0.01)
                .with_worlds(worlds)
                .with_seed(derive_seed(opts.seed, "complexity-m")),
        );
        let t = Instant::now();
        let _ = Auditor::new(config)
            .audit(outcomes, &regions)
            .expect("auditable");
        println!("    M-1 = {worlds:>4} worlds: {:>10.1?}", t.elapsed());
    }

    // --- sweep N (number of regions), fixed worlds ---
    println!("\n  sweep N (regions), fixed M-1=199 worlds:");
    for (nx, ny) in [(10, 5), (20, 10), (40, 20), (80, 40)] {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), nx, ny);
        let config = opts.decorate(
            AuditConfig::new(0.01)
                .with_worlds(199)
                .with_seed(derive_seed(opts.seed, "complexity-n")),
        );
        let t = Instant::now();
        let _ = Auditor::new(config)
            .audit(outcomes, &regions)
            .expect("auditable");
        println!(
            "    N = {:>5} regions: {:>10.1?}",
            regions.len(),
            t.elapsed()
        );
    }

    // --- compare Q (range-count backends) ---
    println!("\n  compare Q (brute force vs kd-tree), square queries:");
    let points = outcomes.points().to_vec();
    let labels = BitLabels::from_bools(outcomes.labels());
    let queries: Vec<Region> = {
        let km = sfcluster::KMeans::fit(
            &lar.locations,
            &sfcluster::KMeansConfig::new(if opts.quick { 20 } else { 100 }, opts.seed),
        );
        RegionSet::squares(km.centers, &RegionSet::paper_side_lengths())
            .regions()
            .to_vec()
    };
    let t = Instant::now();
    let brute = BruteForceIndex::build(points.clone(), labels.clone());
    let build_brute = t.elapsed();
    let t = Instant::now();
    let kd = KdTree::build(points.clone(), labels.clone());
    let build_kd = t.elapsed();

    let bench = |index: &dyn RangeCount| {
        let t = Instant::now();
        let mut acc = 0u64;
        for q in &queries {
            acc = acc.wrapping_add(index.count(q).n);
        }
        (t.elapsed(), acc)
    };
    let (t_brute, a) = bench(&brute);
    let (t_kd, b) = bench(&kd);
    assert_eq!(a, b, "backends disagree");
    println!(
        "    brute force: build {build_brute:>9.1?}, {} queries {t_brute:>9.1?}",
        queries.len()
    );
    println!(
        "    kd-tree:     build {build_kd:>9.1?}, {} queries {t_kd:>9.1?}",
        queries.len()
    );
    println!("\n  (criterion benches in crates/bench cover the same ablations with statistics)");
}
