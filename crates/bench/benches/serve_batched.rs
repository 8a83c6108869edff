//! Serving-layer throughput: batched multi-audit execution over one
//! shared engine vs rebuilding the engine per request.
//!
//! A reduced-scale criterion group; `perfbench/`'s `grid-batch`
//! workload measures batched serving end to end.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sfdata::synth::SynthConfig;
use sfscan::prepared::{AuditRequest, PreparedAudit};
use sfscan::{AuditConfig, Auditor, Direction, McStrategy, RegionSet, WorldCache};

fn request_mix(base: &AuditConfig, count: usize) -> Vec<AuditRequest> {
    let directions = [Direction::TwoSided, Direction::High, Direction::Low];
    (0..count)
        .map(|i| {
            let mut request = AuditRequest::from_config(base)
                .with_direction(directions[i % directions.len()])
                .with_seed(base.seed + (i / 12) as u64);
            if i % 8 == 7 {
                request = request.with_mc_strategy(McStrategy::early_stop());
            }
            request
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let outcomes = SynthConfig {
        per_half: 2_000,
        ..SynthConfig::paper()
    }
    .generate(11);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 8, 8);
    let base = AuditConfig::new(0.05).with_worlds(99).with_seed(3);
    let requests = request_mix(&base, 16);

    // Sanity: both paths agree bit for bit (the proptests pin this
    // exhaustively; the bench asserts it on its own workload).
    let prepared = PreparedAudit::prepare(&outcomes, &regions, base).expect("auditable");
    let batched = prepared.run_batch(&requests);
    for (request, report) in requests.iter().zip(&batched) {
        let solo = Auditor::new(request.apply_to(base))
            .audit(&outcomes, &regions)
            .expect("auditable");
        assert_eq!(*report, solo);
    }

    let mut g = c.benchmark_group("serve_16_requests_4k_points");
    g.sample_size(10);
    g.bench_function("rebuild_per_request", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|request| {
                    Auditor::new(request.apply_to(base))
                        .audit(black_box(&outcomes), black_box(&regions))
                        .expect("auditable")
                })
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("batched_shared_engine", |b| {
        b.iter(|| {
            let prepared = PreparedAudit::prepare(black_box(&outcomes), black_box(&regions), base)
                .expect("auditable");
            prepared.run_batch(black_box(&requests))
        })
    });
    // Serving amortizes preparation entirely when the engine is
    // long-lived; measure the steady-state drain cost too.
    g.bench_function("batched_prepared_once", |b| {
        b.iter(|| prepared.run_batch(black_box(&requests)))
    });
    // The cross-batch cache hit: one cold batch warms the cache, then
    // every iteration replays its τ-streams — zero simulated worlds.
    let mut warm_cache = WorldCache::new();
    let (warm_reports, _) = prepared.run_batch_cached(&requests, &mut warm_cache);
    assert_eq!(warm_reports, batched, "cached path stays bit-identical");
    g.bench_function("batched_warm_cache", |b| {
        b.iter(|| {
            let (reports, stats) = prepared.run_batch_cached(black_box(&requests), &mut warm_cache);
            assert_eq!(stats.unique_worlds, 0, "warm drains simulate nothing");
            reports
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
