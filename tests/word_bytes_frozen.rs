//! Frozen world bytes: the FNV-1a-64 hash of every Bernoulli
//! `WorldGen::Word` world drawn on the sequential, `generate_world_par`
//! and `generate_world_window` paths must equal the hash recorded in
//! `tests/golden/word_worlds.txt`, and the hash of every `WorldGen::Word`
//! permutation world and every `WorldGen::Scalar` world (both null
//! models) the hash recorded in `tests/golden/other_worlds.txt`.
//!
//! The cross-path suites compare the generation paths with each other;
//! this fixture pins them to fixed bytes, across world sizes that span
//! one partial chunk (130 points) up to 20 chunks plus a one-label tail
//! (20,001 points), and positive rates from 0 to 1. The interior rates
//! are realised as `P = round(ρ·N)`, clamped to `1..=N−1`.
//!
//! `word_worlds.txt` lines are `n p seed world path hash`, where `path`
//! is `seq`, `par` or `window:<lo>..<hi>` (the hash then covers only the
//! words `lo..hi`). `other_worlds.txt` lines are `n p seed world stream
//! hash`, where `stream` is `word:perm`, `scalar:bern` or `scalar:perm`;
//! those streams have one generation path, so each hash covers a
//! sequentially drawn world.

use spatial_fairness::prelude::*;
use spatial_fairness::scan::engine::ScanEngine;
use spatial_fairness::scan::{CountingStrategy, NullModel, WorldGen};
use spatial_fairness::stats::rng::world_rng;

const WORD_FIXTURE: &str = include_str!("golden/word_worlds.txt");
const OTHER_FIXTURE: &str = include_str!("golden/other_worlds.txt");

const SIZES: [usize; 5] = [130, 1_000, 10_000, 20_000, 20_001];
const RATES: [f64; 7] = [0.5, 0.7, 1.0 / 3.0, 1e-4, 0.999, 0.0, 1.0];
/// `(seed, world index)` pairs fed to `world_rng`.
const WORLDS: [(u64, u64); 3] = [(3, 0), (11, 41), (7_340_033, 998)];

fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `n` points in the unit square from a SplitMix64 stream; the first
/// `p` carry a positive label.
fn outcomes(n: usize, p: usize) -> SpatialOutcomes {
    let mut state = 0x5eed_u64;
    let mut unit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let points = (0..n).map(|_| Point::new(unit(), unit())).collect();
    let labels = (0..n).map(|i| i < p).collect();
    SpatialOutcomes::new(points, labels).unwrap()
}

fn positives(n: usize, rate: f64) -> usize {
    if rate == 0.0 || rate == 1.0 {
        return (rate * n as f64) as usize;
    }
    ((rate * n as f64).round() as usize).clamp(1, n - 1)
}

/// Calls `visit(n, p, engine)` for every fixture size and rate, in
/// fixture order.
fn for_each_engine(mut visit: impl FnMut(usize, usize, &ScanEngine)) {
    for n in SIZES {
        for rate in RATES {
            let p = positives(n, rate);
            let data = outcomes(n, p);
            let regions = RegionSet::regular_grid(data.expanded_bounding_box(), 2, 2);
            let engine = ScanEngine::build(&data, &regions, CountingStrategy::Membership).unwrap();
            visit(n, p, &engine);
        }
    }
}

fn render_word() -> String {
    let mut out = String::new();
    for_each_engine(|n, p, engine| {
        let num_words = n.div_ceil(64);
        let windows = [
            (num_words / 3, (2 * num_words / 3 + 1).min(num_words)),
            (num_words - 1, num_words),
        ];
        for (seed, world) in WORLDS {
            let mut line = |path: String, words: &[u64]| {
                out.push_str(&format!(
                    "{n} {p} {seed} {world} {path} {:016x}\n",
                    fnv1a(words)
                ));
            };
            let bern = NullModel::Bernoulli;
            let seq = engine.generate_world_with(bern, WorldGen::Word, &mut world_rng(seed, world));
            line("seq".into(), seq.blocks());
            let par = engine.generate_world_par(bern, WorldGen::Word, &mut world_rng(seed, world));
            line("par".into(), par.blocks());
            for (lo, hi) in windows {
                let window = engine.generate_world_window(
                    bern,
                    WorldGen::Word,
                    &mut world_rng(seed, world),
                    lo,
                    hi,
                );
                line(format!("window:{lo}..{hi}"), &window.blocks()[lo..hi]);
            }
        }
    });
    out
}

fn render_other() -> String {
    let streams = [
        ("word:perm", NullModel::Permutation, WorldGen::Word),
        ("scalar:bern", NullModel::Bernoulli, WorldGen::Scalar),
        ("scalar:perm", NullModel::Permutation, WorldGen::Scalar),
    ];
    let mut out = String::new();
    for_each_engine(|n, p, engine| {
        for (seed, world) in WORLDS {
            for (name, null_model, worldgen) in streams {
                let labels =
                    engine.generate_world_with(null_model, worldgen, &mut world_rng(seed, world));
                out.push_str(&format!(
                    "{n} {p} {seed} {world} {name} {:016x}\n",
                    fnv1a(labels.blocks())
                ));
            }
        }
    });
    out
}

/// Compares rendered lines with a fixture, printing every mismatch.
fn assert_matches(rendered: &str, fixture: &str) {
    let mut mismatches = 0;
    for (got, want) in rendered.lines().zip(fixture.lines()) {
        if got != want {
            mismatches += 1;
            eprintln!("want {want}\n got {got}");
        }
    }
    assert_eq!(mismatches, 0, "{mismatches} world hashes changed");
    assert_eq!(
        rendered.lines().count(),
        fixture.lines().count(),
        "fixture line count"
    );
}

#[test]
fn word_worlds_hash_to_the_recorded_bytes() {
    assert_matches(&render_word(), WORD_FIXTURE);
}

#[test]
fn permutation_and_scalar_worlds_hash_to_the_recorded_bytes() {
    assert_matches(&render_other(), OTHER_FIXTURE);
}
