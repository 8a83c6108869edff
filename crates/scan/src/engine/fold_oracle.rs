//! The world fold against its oracle: for every statistic, direction
//! list (permutations and repeats included), batch width and count
//! matrix, [`fold_matrix`] must write the bits of the plain
//! per-region loop — `τ = max(0, max over non-empty regions of
//! TauKernel::score)` per world and direction.
//!
//! Widths run from 1 to 24 worlds, so the fold's lane groups of
//! [`FOLD_LANES`] are covered whole, short, and several to a matrix.
//! Count pairs are drawn at the edges that matter to the fold:
//! regions of one observation, of all but one, and of the whole
//! world; positives at the bottom and top of their feasible range and
//! next to the world's rate (where `d = p·N − n·P` changes sign);
//! world totals `P ∈ {0, 1, N−1, N}`; and `N` up to 2^40, including
//! the largest size whose deviation the fold takes in `f64`
//! ([`F64_EXACT_MAX_N`]) and its neighbours. A second property builds
//! float ties: unequal exact rates that round to the same `f64`.

use crate::direction::Direction;
use proptest::prelude::*;
use sfstats::kernel::{fold_matrix, Statistic, TauKernel, F64_EXACT_MAX_N, FOLD_LANES};

/// Asserts the fold writes the oracle's bits for one case.
fn assert_matches_oracle(
    statistic: Statistic,
    n_total: u64,
    region_n: &[u64],
    p_worlds: &[u64],
    counts: &[u64],
    directions: &[Direction],
) -> Result<(), TestCaseError> {
    let mut out = vec![f64::NAN; p_worlds.len() * directions.len()];
    fold_matrix(
        statistic, n_total, region_n, p_worlds, counts, directions, &mut out,
    );
    let expected = oracle(statistic, n_total, region_n, p_worlds, counts, directions);
    for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{} slot {} ({:?}): fold {} vs oracle {}; N={} P={:?} n={:?} counts={:?}",
            statistic,
            i,
            directions[i % directions.len()],
            got,
            want,
            n_total,
            p_worlds,
            region_n,
            counts
        );
    }
    Ok(())
}

/// SplitMix64: the case's count stream, from one generated seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A world size: tiny, small, large, at the `f64`-exact cutoff or
/// one either side of it (where the fold's deviation moves from `f64`
/// to integers), at 2^31, or past 2^32 (where `p·N` no longer fits a
/// `u64` and `d` is taken in `u128`).
fn world_size(s: &mut Stream) -> u64 {
    match s.next() % 6 {
        0 => s.range(1, 8),
        1 => s.range(9, 5_000),
        2 => s.range(1 << 26, 1 << 31),
        3 => F64_EXACT_MAX_N - 1 + s.range(0, 2),
        4 => 1 << 31,
        _ => s.range(1 << 32, 1 << 40),
    }
}

/// A world's positive total.
fn world_positives(s: &mut Stream, n_total: u64) -> u64 {
    match s.next() % 6 {
        0 => 0,
        1 => 1.min(n_total),
        2 => n_total - 1,
        3 => n_total,
        4 => n_total / 2 + s.range(0, 1).min(n_total - n_total / 2),
        _ => s.range(0, n_total),
    }
}

/// `a⁻¹ mod m`, when `a` and `m > 1` are coprime.
fn inverse_mod(a: u64, m: u64) -> Option<u64> {
    let (mut r0, mut r1) = (i128::from(m), i128::from(a % m));
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    (r0 == 1 && m > 1).then(|| t0.rem_euclid(i128::from(m)) as u64)
}

/// A region size (0 sometimes: the fold must skip empty regions).
fn region_size(s: &mut Stream, n_total: u64) -> u64 {
    match s.next() % 6 {
        0 => 1,
        1 => n_total - 1,
        2 => n_total,
        3 => 0,
        _ => s.range(1, n_total),
    }
}

/// A feasible positive count for a region of `n_r` in a world of
/// `(n_total, p_total)`: at either bound, next to the world's rate, or
/// anywhere between.
fn region_positives(s: &mut Stream, n_r: u64, n_total: u64, p_total: u64) -> u64 {
    let lo = p_total.saturating_sub(n_total - n_r);
    let hi = n_r.min(p_total);
    let proportional = ((u128::from(n_r) * u128::from(p_total)) / u128::from(n_total)) as u64;
    let near = proportional + s.range(0, 2);
    match s.next() % 5 {
        0 => lo,
        1 => hi,
        2 | 3 => near.saturating_sub(1).clamp(lo, hi),
        _ => s.range(lo, hi),
    }
}

/// The oracle: every region, every direction, through `score`.
fn oracle(
    statistic: Statistic,
    n_total: u64,
    region_n: &[u64],
    p_worlds: &[u64],
    counts: &[u64],
    directions: &[Direction],
) -> Vec<f64> {
    let width = p_worlds.len();
    let mut out = vec![0.0; width * directions.len()];
    for (w, &p_world) in p_worlds.iter().enumerate() {
        let kernel = TauKernel::new(statistic, n_total, p_world);
        let tau = &mut out[w * directions.len()..(w + 1) * directions.len()];
        for (r, &n_r) in region_n.iter().enumerate() {
            if n_r == 0 {
                continue;
            }
            for (t, &direction) in tau.iter_mut().zip(directions) {
                let score = kernel.score(n_r, counts[r * width + w], direction);
                if score > *t {
                    *t = score;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn fold_matches_the_per_region_oracle(
        seed in any::<u64>(),
        statistic in 0usize..3,
        width in 1usize..=3 * FOLD_LANES,
        regions in 1usize..=24,
        directions in prop::collection::vec(0usize..3, 1..=5),
    ) {
        let statistic = Statistic::ALL[statistic];
        let directions: Vec<Direction> = directions.iter().map(|&d| Direction::ALL[d]).collect();
        let mut s = Stream(seed);
        let n_total = world_size(&mut s);
        let region_n: Vec<u64> = (0..regions).map(|_| region_size(&mut s, n_total)).collect();
        let p_worlds: Vec<u64> = (0..width).map(|_| world_positives(&mut s, n_total)).collect();
        let mut counts = vec![0u64; regions * width];
        for (r, &n_r) in region_n.iter().enumerate() {
            for (w, &p_world) in p_worlds.iter().enumerate() {
                counts[r * width + w] = region_positives(&mut s, n_r, n_total, p_world);
            }
        }
        assert_matches_oracle(statistic, n_total, &region_n, &p_worlds, &counts, &directions)?;
    }

    #[test]
    fn float_ties_score_zero_like_the_oracle(
        seed in any::<u64>(),
        statistic in 0usize..3,
        directions in prop::collection::vec(0usize..3, 1..=5),
    ) {
        // P ≡ r·n⁻¹ (mod N) for a small r, so the region with
        // p = (n·P − r)/N positives has d = −r: unequal exact rates
        // that, once p·(N−n) passes 2^53, round to the same f64. The
        // oracle scores such a tie 0; the logs alone would not.
        let statistic = Statistic::ALL[statistic];
        let directions: Vec<Direction> = directions.iter().map(|&d| Direction::ALL[d]).collect();
        let mut s = Stream(seed);
        let n_total = s.range(1 << 27, 1 << 31);
        let n_r = s.range(n_total / 8, n_total - n_total / 8);
        let r = s.range(1, 8);
        let Some(inverse) = inverse_mod(n_r, n_total) else {
            return Ok(());
        };
        let p_total = ((u128::from(r) * u128::from(inverse)) % u128::from(n_total)) as u64;
        let p_r = ((u128::from(n_r) * u128::from(p_total) - u128::from(r)) / u128::from(n_total)) as u64;
        assert_matches_oracle(statistic, n_total, &[n_r], &[p_total], &[p_r], &directions)?;
    }
}
