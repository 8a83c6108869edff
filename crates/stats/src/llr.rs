//! The Bernoulli scan-statistic kernel (paper §3, Eq. 1).
//!
//! Given a region `R`, let `n = n(R)` be the number of observations
//! inside and `p = p(R)` the number of positives inside; `N`, `P` are
//! the global totals. The null hypothesis H0 says positives everywhere
//! follow `Binomial(·, ρ)` with the single global rate `ρ = P/N`; the
//! alternate H1 allows a different success probability inside vs
//! outside `R`.
//!
//! The *log-likelihood ratio* of the best-fit H1 over the best-fit H0:
//!
//! ```text
//! LLR(R) = [ xlogy(p, ρ̂0) + xlogy(n−p, 1−ρ̂0)
//!          + xlogy(P−p, ρ̂1) + xlogy(N−n−(P−p), 1−ρ̂1) ]
//!        − [ xlogy(P, ρ̂)  + xlogy(N−P, 1−ρ̂) ]
//! ```
//!
//! with `ρ̂0 = p/n`, `ρ̂1 = (P−p)/(N−n)`, `ρ̂ = P/N` and the convention
//! `xlogy(0, ·) = 0`. Eq. 1's "otherwise" branch (no difference between
//! the rates) and the degenerate regions (`n = 0` or `n = N`) yield
//! `LLR = 0`.
//!
//! The paper's SUL is the maximised H1 likelihood; since the H0
//! maximum is a dataset constant, ranking regions by SUL and by LLR is
//! equivalent, and all public APIs work in log space for numerical
//! stability (the paper: "in practice, we compute and determine the
//! difference of log-likelihoods").
//!
//! # The Pearson X² bound
//!
//! The LLR is `N` times a Kullback–Leibler divergence: `LLR(R) =
//! n·KL(ρ̂0‖ρ̂) + (N−n)·KL(ρ̂1‖ρ̂)`, and `KL(a‖b) ≤ (a−b)²/(b(1−b))` (KL
//! never exceeds the χ² divergence). With the exact integer deviation
//! `d = p·N − n·P` we have `ρ̂0 − ρ̂ = d/(nN)` and `ρ̂1 − ρ̂ =
//! −d/((N−n)N)`, so the two terms sum to Pearson's statistic of the
//! region's 2×2 table:
//!
//! ```text
//! LLR(R) ≤ X²(R) = N·d² / (n·(N−n)·P·(N−P))
//! ```
//!
//! No logarithm is needed to evaluate `X²`, and `d` also decides the
//! direction: `d > 0` exactly when the inside rate is above the
//! outside rate (the global rate is their weighted average). The
//! world fold in [`crate::kernel`] uses both facts to take logs only
//! for regions whose bound can still beat the running maximum; the
//! bound holds for the *computed* LLR up to a rounding margin
//! (`llr_rounding_margin`).

use serde::{Deserialize, Serialize};

use crate::pvalue::Direction;

/// The 2×2 sufficient statistic of a region: counts inside the region
/// and in the whole dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counts2x2 {
    /// Observations inside the region (`n(R)`).
    pub n_in: u64,
    /// Positives inside the region (`p(R)`).
    pub p_in: u64,
    /// Total observations (`N`).
    pub n_total: u64,
    /// Total positives (`P`).
    pub p_total: u64,
}

impl Counts2x2 {
    /// Creates and validates the counts.
    ///
    /// # Panics
    /// Panics if any count is inconsistent (`p_in > n_in`,
    /// `n_in > n_total`, `p_total > n_total`, or the outside positives
    /// would be negative / exceed the outside observations).
    pub fn new(n_in: u64, p_in: u64, n_total: u64, p_total: u64) -> Self {
        assert!(
            p_in <= n_in,
            "positives inside ({p_in}) exceed observations inside ({n_in})"
        );
        assert!(
            n_in <= n_total,
            "inside count ({n_in}) exceeds total ({n_total})"
        );
        assert!(
            p_total <= n_total,
            "total positives ({p_total}) exceed total ({n_total})"
        );
        assert!(
            p_in <= p_total,
            "positives inside ({p_in}) exceed total positives ({p_total})"
        );
        assert!(
            p_total - p_in <= n_total - n_in,
            "positives outside exceed observations outside"
        );
        Counts2x2 {
            n_in,
            p_in,
            n_total,
            p_total,
        }
    }

    /// Observations outside the region.
    #[inline]
    pub fn n_out(&self) -> u64 {
        self.n_total - self.n_in
    }

    /// Positives outside the region.
    #[inline]
    pub fn p_out(&self) -> u64 {
        self.p_total - self.p_in
    }

    /// Observed positive rate inside (`ρ̂0`), `NaN` when `n_in = 0`.
    #[inline]
    pub fn rate_in(&self) -> f64 {
        self.p_in as f64 / self.n_in as f64
    }

    /// Observed positive rate outside (`ρ̂1`), `NaN` when the region is
    /// the whole space.
    #[inline]
    pub fn rate_out(&self) -> f64 {
        self.p_out() as f64 / self.n_out() as f64
    }

    /// Global positive rate (`ρ̂`), `NaN` for empty data.
    #[inline]
    pub fn rate_global(&self) -> f64 {
        self.p_total as f64 / self.n_total as f64
    }
}

/// `x · ln(y)` with the convention `xlogy(0, ·) = 0`.
///
/// This is the standard guard for Bernoulli log-likelihoods at the
/// boundary of the parameter space (all-positive or all-negative cells).
#[inline]
pub fn xlogy(x: f64, y: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x * y.ln()
    }
}

/// Log-likelihood of observing `p` successes in `n` Bernoulli trials
/// with success probability equal to the MLE `p/n`.
#[inline]
fn ll_at_mle(n: f64, p: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    let rho = p / n;
    xlogy(p, rho) + xlogy(n - p, 1.0 - rho)
}

/// Two-sided Bernoulli scan LLR of a region (paper Eq. 1, in logs).
///
/// Returns `max(log L1) − max(log L0) ≥ 0`; zero when the inside and
/// outside rates coincide or the region is degenerate. Does **not**
/// care about the direction of the deviation, matching the paper:
/// "an important difference is that we do not care for the direction
/// of change of the statistic inside and outside a region".
#[inline]
pub fn bernoulli_llr(c: &Counts2x2) -> f64 {
    llr_impl(c, Direction::TwoSided)
}

/// Directional Bernoulli scan LLR (paper §B.2).
///
/// * [`Direction::High`] — only regions whose inside rate exceeds the
///   outside rate score (> 0): the "green" regions of Figure 12.
/// * [`Direction::Low`] — only regions whose inside rate is below the
///   outside rate score: the "red" regions of Figure 11.
/// * [`Direction::TwoSided`] — same as [`bernoulli_llr`].
#[inline]
pub fn bernoulli_llr_directed(c: &Counts2x2, direction: Direction) -> f64 {
    llr_impl(c, direction)
}

fn llr_impl(c: &Counts2x2, direction: Direction) -> f64 {
    let (n, p) = (c.n_in as f64, c.p_in as f64);
    let (nn, pp) = (c.n_total as f64, c.p_total as f64);
    if c.n_total == 0 || c.n_in == 0 || c.n_in == c.n_total {
        // Empty data, empty region, or region == whole space: H1 cannot
        // do better than H0 (no "outside" to differ from).
        return 0.0;
    }
    let n_out = nn - n;
    let p_out = pp - p;
    let rate_in = p / n;
    let rate_out = p_out / n_out;
    match direction {
        Direction::TwoSided => {}
        Direction::High => {
            if rate_in <= rate_out {
                return 0.0;
            }
        }
        Direction::Low => {
            if rate_in >= rate_out {
                return 0.0;
            }
        }
    }
    if rate_in == rate_out {
        // Eq. 1's "otherwise" branch: L1 collapses to L0.
        return 0.0;
    }
    llr_given_null(n, p, n_out, p_out, ll_at_mle(nn, pp))
}

/// The LLR of a region whose inside and outside rates differ, given
/// the world's null log-likelihood `l0 = ll_at_mle(N, P)`: the log
/// arithmetic [`bernoulli_llr_directed`] runs after its gates, shared
/// with the world fold so both produce the same bits.
#[inline]
pub(crate) fn llr_given_null(n: f64, p: f64, n_out: f64, p_out: f64, l0: f64) -> f64 {
    let l1 = ll_at_mle(n, p) + ll_at_mle(n_out, p_out);
    // Guard tiny negative values from floating-point cancellation.
    (l1 - l0).max(0.0)
}

/// An absolute bound on how far the *computed* LLR of any region of a
/// world with `N = n_total` observations and null log-likelihood `l0`
/// can exceed the exact one: `64·ε·(|l0| + N)`.
///
/// Every `xlogy` term of `l1` and `l0` is `≤ 0` (a count times the log
/// of a rate in `[0, 1]`), and `l1 ≥ l0`, so `|l1| ≤ |l0|`. A term
/// `x·ln(y)` with a correctly rounded rate `y` is off by at most `2ε`
/// of its magnitude (the product and the log's own rounding) plus `x·ε`
/// from the rate's rounding — and for `y = 1 − p/n` the subtraction
/// amplifies `p/n`'s error by `p/(n−p)`, which the factor `x = n−p`
/// turns back into `p·ε`. Each `ll_at_mle(n, p)` is therefore within
/// `3ε·|ll| + 2n·ε`, the two-term `l1` within `4ε·|l1| + 2N·ε`, and the
/// final subtraction adds `ε` relative. In all, `computed LLR ≤
/// (1 + ε)·LLR + 8ε·|l0| + 5N·ε`, which the margin covers eight times
/// over (the relative `ε` is left to the caller's relative slack).
#[inline]
pub(crate) fn llr_rounding_margin(l0: f64, n_total: f64) -> f64 {
    64.0 * f64::EPSILON * (l0.abs() + n_total)
}

/// The log-likelihood of the *null* hypothesis at its maximum
/// (`L0^max` of the paper, in logs): `xlogy(P, ρ̂) + xlogy(N−P, 1−ρ̂)`.
///
/// Useful to reconstruct the paper's SUL (`log L1^max = LLR + log L0^max`).
#[inline]
pub fn null_log_likelihood(n_total: u64, p_total: u64) -> f64 {
    ll_at_mle(n_total as f64, p_total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n_in: u64, p_in: u64, n_total: u64, p_total: u64) -> Counts2x2 {
        Counts2x2::new(n_in, p_in, n_total, p_total)
    }

    #[test]
    fn xlogy_zero_convention() {
        assert_eq!(xlogy(0.0, 0.0), 0.0);
        assert_eq!(xlogy(0.0, 5.0), 0.0);
        assert!((xlogy(2.0, std::f64::consts::E) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn llr_zero_when_rates_equal() {
        // Inside rate = outside rate = 0.5 exactly.
        let c = counts(10, 5, 100, 50);
        assert_eq!(bernoulli_llr(&c), 0.0);
    }

    #[test]
    fn llr_zero_for_degenerate_regions() {
        assert_eq!(bernoulli_llr(&counts(0, 0, 100, 50)), 0.0);
        assert_eq!(bernoulli_llr(&counts(100, 50, 100, 50)), 0.0);
    }

    #[test]
    fn llr_positive_when_rates_differ() {
        let c = counts(10, 9, 100, 50);
        assert!(bernoulli_llr(&c) > 0.0);
    }

    #[test]
    fn llr_is_symmetric_in_region_complement() {
        // Scanning R and scanning its complement give the same LLR:
        // H1 is symmetric in inside/outside.
        let a = counts(10, 9, 100, 50);
        let b = counts(90, 41, 100, 50);
        assert!((bernoulli_llr(&a) - bernoulli_llr(&b)).abs() < 1e-10);
    }

    #[test]
    fn llr_grows_with_deviation() {
        // Same region size, increasingly extreme inside rate.
        let base = bernoulli_llr(&counts(20, 12, 1000, 500));
        let more = bernoulli_llr(&counts(20, 16, 1000, 500));
        let most = bernoulli_llr(&counts(20, 20, 1000, 500));
        assert!(base < more && more < most, "{base} {more} {most}");
    }

    #[test]
    fn llr_grows_with_evidence_at_fixed_rate() {
        // Inside rate fixed at 0.9 vs global 0.5: more observations at
        // the same deviation are stronger evidence.
        let small = bernoulli_llr(&counts(10, 9, 1000, 500));
        let large = bernoulli_llr(&counts(100, 90, 1000, 500));
        assert!(large > small);
    }

    #[test]
    fn llr_matches_hand_computation() {
        // n=10, p=8 inside; N=100, P=50.
        // rho0=0.8, rho1=42/90, rho=0.5
        let c = counts(10, 8, 100, 50);
        let l1 = 8.0 * (0.8f64).ln()
            + 2.0 * (0.2f64).ln()
            + 42.0 * (42.0f64 / 90.0).ln()
            + 48.0 * (48.0f64 / 90.0).ln();
        let l0 = 100.0 * (0.5f64).ln();
        assert!((bernoulli_llr(&c) - (l1 - l0)).abs() < 1e-10);
    }

    #[test]
    fn paper_example_five_negatives_is_weak_evidence() {
        // Figure 2(a): a partition with 5 negatives and no positives in
        // LAR-scale data (N=206418, P=127286). The exact LLR of an
        // all-negative m-point region is ≈ -m·ln(1-ρ) (the outside
        // correction is negligible at this scale): ≈ 4.79 for m=5.
        // (The paper quotes "0.96" for this cell, which equals the
        // single-observation value -ln(1-0.62); see EXPERIMENTS.md.)
        // Either way the cell is far below the paper's significance
        // threshold of 9.6 at the 0.005 level — that is the claim.
        let c = counts(5, 0, 206_418, 127_286);
        let llr = bernoulli_llr(&c);
        let rho = 127_286.0 / 206_418.0;
        let approx = -5.0 * (1.0f64 - rho).ln();
        assert!((llr - approx).abs() < 0.01, "got {llr}, approx {approx}");
        assert!(llr < 9.6, "five negatives must not be significant at 0.005");
    }

    #[test]
    fn paper_example_dense_region_is_strong_evidence() {
        // Figure 2(b): ~8000 observations, 84% positive, global 0.62 —
        // the paper reports a log-likelihood difference of about 1000.
        let c = counts(8000, 6720, 206_418, 127_286);
        let llr = bernoulli_llr(&c);
        assert!(llr > 800.0 && llr < 1300.0, "got {llr}");
    }

    #[test]
    fn directed_high_only_scores_elevated_regions() {
        let elevated = counts(10, 9, 100, 50);
        let depressed = counts(10, 1, 100, 50);
        assert!(bernoulli_llr_directed(&elevated, Direction::High) > 0.0);
        assert_eq!(bernoulli_llr_directed(&depressed, Direction::High), 0.0);
        assert_eq!(bernoulli_llr_directed(&elevated, Direction::Low), 0.0);
        assert!(bernoulli_llr_directed(&depressed, Direction::Low) > 0.0);
    }

    #[test]
    fn directed_agrees_with_two_sided_when_direction_matches() {
        let c = counts(10, 9, 100, 50);
        assert_eq!(
            bernoulli_llr_directed(&c, Direction::High),
            bernoulli_llr(&c)
        );
    }

    #[test]
    fn all_positive_region_in_all_positive_world_is_null() {
        let c = counts(10, 10, 100, 100);
        assert_eq!(bernoulli_llr(&c), 0.0);
    }

    #[test]
    fn boundary_rates_are_finite() {
        // All-positive region in a mixed world.
        let c = counts(10, 10, 100, 50);
        let llr = bernoulli_llr(&c);
        assert!(llr.is_finite() && llr > 0.0);
        // All-negative region.
        let c = counts(10, 0, 100, 50);
        let llr = bernoulli_llr(&c);
        assert!(llr.is_finite() && llr > 0.0);
    }

    #[test]
    fn counts_accessors() {
        let c = counts(10, 8, 100, 50);
        assert_eq!(c.n_out(), 90);
        assert_eq!(c.p_out(), 42);
        assert!((c.rate_in() - 0.8).abs() < 1e-12);
        assert!((c.rate_out() - 42.0 / 90.0).abs() < 1e-12);
        assert!((c.rate_global() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn counts_validate_p_in() {
        let _ = counts(5, 6, 100, 50);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed")]
    fn counts_validate_outside() {
        // inside 50 obs 0 pos; outside 50 obs but 60 positives claimed.
        let _ = Counts2x2::new(50, 0, 100, 60);
    }

    /// Pearson's X² of a region's 2×2 table from the exact deviation.
    fn pearson_x2(n: u64, p: u64, nn: u64, pp: u64) -> f64 {
        let d = (i128::from(p) * i128::from(nn) - i128::from(n) * i128::from(pp)).unsigned_abs();
        let d = d as f64;
        nn as f64 * d * d / (n as f64 * (nn - n) as f64 * pp as f64 * (nn - pp) as f64)
    }

    /// `computed LLR ≤ X²·(1 + 10⁻⁹) + margin`, the inequality the world
    /// fold's skip relies on.
    fn assert_bounded(n: u64, p: u64, nn: u64, pp: u64) -> bool {
        let llr = bernoulli_llr(&counts(n, p, nn, pp));
        if llr == 0.0 {
            return false;
        }
        let x2 = pearson_x2(n, p, nn, pp);
        let margin = llr_rounding_margin(null_log_likelihood(nn, pp), nn as f64);
        assert!(
            llr <= x2 * (1.0 + 1e-9) + margin,
            "n={n} p={p} N={nn} P={pp}: llr {llr} > X² {x2} + {margin}"
        );
        llr > x2
    }

    #[test]
    fn pearson_x2_bounds_the_computed_llr() {
        // Every table of every world up to N = 40.
        for nn in 2..=40u64 {
            for pp in 1..nn {
                for n in 1..nn {
                    for p in pp.saturating_sub(nn - n)..=n.min(pp) {
                        assert_bounded(n, p, nn, pp);
                    }
                }
            }
        }
        // Near-ties at N up to 2^31, where the exact LLR is ~0 and the
        // computed one is all rounding: there the margin, not X², is
        // what bounds it.
        let mut margin_needed = false;
        for k in 0..4_000u64 {
            let nn = (1u64 << 31) - 1 - k * 7_919;
            let pp = nn / 3 + k * 104_729;
            let n = nn / 5 + k * 15_485_863 % (nn / 2);
            let p = ((u128::from(n) * u128::from(pp)) / u128::from(nn)) as u64;
            margin_needed |= assert_bounded(n, p, nn, pp);
        }
        assert!(margin_needed, "no near-tie exercised the rounding margin");
    }

    #[test]
    fn null_log_likelihood_matches_definition() {
        let l0 = null_log_likelihood(100, 50);
        assert!((l0 - 100.0 * (0.5f64).ln()).abs() < 1e-10);
        assert_eq!(null_log_likelihood(0, 0), 0.0);
        assert_eq!(null_log_likelihood(10, 0), 0.0); // rho=0: xlogy guards
    }
}
