//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sfstats::binomial::{binomial_cdf, binomial_pmf, ln_choose, ln_factorial};
use sfstats::descriptive::{mean_variance_population, quantile};
use sfstats::llr::{bernoulli_llr, bernoulli_llr_directed, Counts2x2};
use sfstats::montecarlo::{McStrategy, MonteCarlo};
use sfstats::pvalue::{critical_value, largest_significant_rank, rank_p_value};
use sfstats::Direction;

/// Strategy producing a consistent 2x2 count table.
fn arb_counts() -> impl Strategy<Value = Counts2x2> {
    (1u64..500, 1u64..500).prop_flat_map(|(n_in, n_out)| {
        let n_total = n_in + n_out;
        (0..=n_in, 0..=n_out)
            .prop_map(move |(p_in, p_out)| Counts2x2::new(n_in, p_in, n_total, p_in + p_out))
    })
}

/// The sort-based `critical_value` that linear-time selection
/// replaced, kept as the oracle whose bits the selection must return.
fn critical_value_by_sort(simulated: &[f64], alpha: f64) -> f64 {
    let m = largest_significant_rank(alpha, simulated.len() + 1);
    if m < 1 {
        return f64::INFINITY;
    }
    let mut sorted: Vec<f64> = simulated.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("statistics must not be NaN"));
    sorted[m - 1]
}

/// A value from a small pool, so that ties, mixes of `+0.0` and
/// `-0.0`, and `±∞` are common; codes `0..2` give only signed zeros.
fn tie_heavy_value(code: u8) -> f64 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        c => f64::from(c) - 7.5,
    }
}

/// Simulated values with heavy ties: each case draws from the first
/// `pool` codes of [`tie_heavy_value`].
fn arb_tied_sims() -> impl Strategy<Value = Vec<f64>> {
    (2u8..=12).prop_flat_map(|pool| {
        prop::collection::vec(0..pool, 1..=2000)
            .prop_map(|codes| codes.into_iter().map(tie_heavy_value).collect())
    })
}

/// An alpha for `len` simulated worlds: `mode` 0 gives `m < 1`, 1 gives
/// `m = 1`, 2 gives `m = len`, and 3 uses `free` as it is.
fn alpha_for(len: usize, mode: u8, free: f64) -> f64 {
    let w = (len + 1) as f64;
    match mode {
        0 => 0.5 / w,
        1 => 1.0 / w,
        2 => len as f64 / w,
        _ => free,
    }
}

proptest! {
    #[test]
    fn critical_value_selection_matches_the_stable_sort(
        sims in arb_tied_sims(),
        mode in 0u8..4,
        free in 0.001..0.999f64,
    ) {
        let alpha = alpha_for(sims.len(), mode, free);
        let m = largest_significant_rank(alpha, sims.len() + 1);
        match mode {
            0 => prop_assert_eq!(m, 0),
            1 => prop_assert_eq!(m, 1),
            2 => prop_assert_eq!(m, sims.len()),
            _ => {}
        }
        let got = critical_value(&sims, alpha);
        let want = critical_value_by_sort(&sims, alpha);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "m={}, got {}, want {}", m, got, want);
    }

    #[test]
    fn llr_is_non_negative_and_finite(c in arb_counts()) {
        let llr = bernoulli_llr(&c);
        prop_assert!(llr >= 0.0);
        prop_assert!(llr.is_finite());
    }

    #[test]
    fn llr_zero_iff_rates_equal(c in arb_counts()) {
        let llr = bernoulli_llr(&c);
        let equal = c.rate_in() == c.rate_out();
        if equal {
            prop_assert_eq!(llr, 0.0);
        } else {
            prop_assert!(llr > 0.0, "rates {} vs {} but llr 0", c.rate_in(), c.rate_out());
        }
    }

    #[test]
    fn directed_llrs_partition_the_two_sided(c in arb_counts()) {
        let two = bernoulli_llr(&c);
        let hi = bernoulli_llr_directed(&c, Direction::High);
        let lo = bernoulli_llr_directed(&c, Direction::Low);
        // Exactly one direction carries the two-sided value (or both are
        // zero when rates coincide).
        prop_assert!(hi == 0.0 || lo == 0.0);
        prop_assert_eq!(hi.max(lo), two);
    }

    #[test]
    fn llr_symmetric_under_complement(c in arb_counts()) {
        let comp = Counts2x2::new(
            c.n_out(), c.p_out(), c.n_total, c.p_total,
        );
        let a = bernoulli_llr(&c);
        let b = bernoulli_llr(&comp);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn llr_label_flip_invariance(c in arb_counts()) {
        // Swapping the meaning of positive/negative labels leaves the
        // two-sided statistic unchanged.
        let flipped = Counts2x2::new(
            c.n_in, c.n_in - c.p_in, c.n_total, c.n_total - c.p_total,
        );
        let a = bernoulli_llr(&c);
        let b = bernoulli_llr(&flipped);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn p_value_bounds(obs in 0.0..100.0f64, sims in prop::collection::vec(0.0..100.0f64, 1..200)) {
        let p = rank_p_value(obs, &sims);
        let w = sims.len() + 1;
        prop_assert!(p >= 1.0 / w as f64 - 1e-12);
        prop_assert!(p <= 1.0 + 1e-12);
    }

    #[test]
    fn p_value_monotone_in_observation(
        a in 0.0..100.0f64,
        b in 0.0..100.0f64,
        sims in prop::collection::vec(0.0..100.0f64, 1..200),
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(rank_p_value(hi, &sims) <= rank_p_value(lo, &sims));
    }

    #[test]
    fn critical_value_agrees_with_p_value(
        sims in prop::collection::vec(0.0..100.0f64, 19..400),
        t in 0.0..120.0f64,
        alpha_i in 1usize..20,
    ) {
        let alpha = alpha_i as f64 / 100.0;
        let c = critical_value(&sims, alpha);
        let sig_by_p = rank_p_value(t, &sims) <= alpha;
        let sig_by_c = t > c;
        prop_assert_eq!(sig_by_p, sig_by_c, "t={}, c={}, alpha={}", t, c, alpha);
    }

    #[test]
    fn ln_factorial_recurrence(n in 1u64..5000) {
        let lhs = ln_factorial(n);
        let rhs = ln_factorial(n - 1) + (n as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-7, "n={n}: {lhs} vs {rhs}");
    }

    #[test]
    fn ln_choose_symmetry(n in 0u64..300, k in 0u64..300) {
        prop_assume!(k <= n);
        let a = ln_choose(n, k);
        let b = ln_choose(n, n - k);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn pmf_in_unit_interval(n in 1u64..200, k in 0u64..200, rho in 0.01..0.99f64) {
        prop_assume!(k <= n);
        let p = binomial_pmf(k, n, rho);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
    }

    #[test]
    fn cdf_bounds_and_monotonicity(n in 1u64..100, rho in 0.01..0.99f64) {
        let mut prev = 0.0;
        for k in 0..=n {
            let c = binomial_cdf(k, n, rho);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
        prop_assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variance_non_negative_and_shift_invariant(
        vals in prop::collection::vec(-100.0..100.0f64, 2..100),
        shift in -1000.0..1000.0f64,
    ) {
        let (_, v1) = mean_variance_population(&vals);
        let shifted: Vec<f64> = vals.iter().map(|x| x + shift).collect();
        let (_, v2) = mean_variance_population(&shifted);
        prop_assert!(v1 >= 0.0);
        prop_assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1), "{v1} vs {v2}");
    }

    #[test]
    fn quantile_within_range(vals in prop::collection::vec(-50.0..50.0f64, 1..100), q in 0.0..=1.0f64) {
        let qv = quantile(&vals, q);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(qv >= min - 1e-12 && qv <= max + 1e-12);
    }

    #[test]
    fn early_stop_always_agrees_with_full_budget_on_significance(
        worlds in 1usize..250,
        seed in 0u64..1_000,
        batch in 1usize..64,
        alpha_num in 1usize..40,
        observed in 0.0..1.2f64,
    ) {
        // The core early-termination contract: for ANY budget, seed,
        // batch size, stopping level, and observed statistic, the
        // early-stopped run reaches the same is_significant verdict as
        // spending the full budget — and the worlds it did evaluate
        // are a bit-identical prefix of the full run's.
        let alpha = alpha_num as f64 / 41.0; // (0, 1)
        let eval = |rng: &mut ChaCha8Rng| -> f64 { rng.gen::<f64>() };
        let full = MonteCarlo::new(worlds, seed).run(observed, eval);
        let adaptive = MonteCarlo::new(worlds, seed)
            .with_strategy(McStrategy::EarlyStop { batch_size: batch })
            .run_adaptive(observed, alpha, eval);
        prop_assert_eq!(
            full.is_significant(alpha),
            adaptive.is_significant(alpha),
            "worlds={}, seed={}, batch={}, alpha={}, observed={}, evaluated={}",
            worlds, seed, batch, alpha, observed, adaptive.worlds_evaluated
        );
        prop_assert!(adaptive.worlds_evaluated <= full.worlds_evaluated);
        prop_assert_eq!(
            &full.simulated[..adaptive.worlds_evaluated],
            &adaptive.simulated[..]
        );
    }

    #[test]
    fn early_stop_sequential_p_value_sides_with_the_verdict(
        worlds in 10usize..200,
        seed in 0u64..500,
        batch in 1usize..32,
        alpha_num in 1usize..20,
        observed in 0.0..1.2f64,
    ) {
        // The truncated rank p-value must land on the same side of the
        // stopping alpha as the full-budget p-value (module docs give
        // the proof; this pins it numerically).
        let alpha = alpha_num as f64 / 21.0;
        let eval = |rng: &mut ChaCha8Rng| -> f64 { rng.gen::<f64>() };
        let full = MonteCarlo::new(worlds, seed).run(observed, eval);
        let adaptive = MonteCarlo::new(worlds, seed)
            .with_strategy(McStrategy::EarlyStop { batch_size: batch })
            .run_adaptive(observed, alpha, eval);
        prop_assert_eq!(
            full.p_value() <= alpha,
            adaptive.p_value() <= alpha,
            "full p={}, adaptive p={} at alpha={}",
            full.p_value(), adaptive.p_value(), alpha
        );
    }
}

/// 999 tied simulated values with a NaN at `at`.
fn sims_with_nan_at(at: usize) -> Vec<f64> {
    let mut sims: Vec<f64> = (0..999u16)
        .map(|i| tie_heavy_value((i % 12) as u8))
        .collect();
    sims[at] = f64::NAN;
    sims
}

#[test]
#[should_panic(expected = "statistics must not be NaN")]
fn critical_value_rejects_a_leading_nan() {
    critical_value(&sims_with_nan_at(0), 0.005);
}

#[test]
#[should_panic(expected = "statistics must not be NaN")]
fn critical_value_rejects_a_middle_nan() {
    critical_value(&sims_with_nan_at(499), 0.005);
}

#[test]
#[should_panic(expected = "statistics must not be NaN")]
fn critical_value_rejects_a_trailing_nan() {
    critical_value(&sims_with_nan_at(998), 0.005);
}
