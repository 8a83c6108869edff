//! Pluggable per-region test-statistic kernels.
//!
//! The scan pipeline is statistic-agnostic everywhere except one small
//! fold: given a region's count pair `(n(R), p(R))` and the world
//! totals `(N, P)`, produce the region's score, whose maximum over
//! regions is the test statistic `τ`. [`TauKernel`] owns exactly that
//! fold, so every statistic automatically inherits the engine's fused
//! counting, sharded reduces, world caching, batching, and
//! Besag–Clifford early stopping — none of which look inside the
//! score.
//!
//! Three kernels ship:
//!
//! * [`Statistic::BernoulliLlr`] — the paper's statistic (§3, Eq. 1):
//!   the directed Bernoulli scan LLR of [`crate::llr`]. The pinned
//!   default; every pre-kernel result is reproduced bit for bit.
//! * [`Statistic::EqualOppTpr`] — equal opportunity: the same LLR
//!   fold, but the audited stream is conditioned on `y_true` so
//!   `p(R)/n(R)` is the region's *true-positive rate*. The
//!   conditioning happens at data preparation
//!   (`SpatialOutcomes::from_predictions` in `sfscan` keeps only the
//!   ground-truth-positive observations); the kernel identity keeps
//!   TPR world streams from ever mixing with decision-rate streams in
//!   a shared world cache.
//! * [`Statistic::MeanResidual`] — continuous outcomes: the region's
//!   standardized mean residual. With `ρ = P/N` the world's mean
//!   label, each observation's residual is `y_i − ρ` and the region
//!   score is `|mean residual| · √n(R) / √(ρ(1−ρ))` (one- or
//!   two-sided per the direction). This ranks regions by *average
//!   deviation per observation* — a genuinely different ordering from
//!   the LLR, which rewards large regions logarithmically — and pairs
//!   naturally with permutation nulls, where every world holds `P`
//!   fixed. Continuous outcome streams enter by centering/thresholding
//!   at preparation time (the `meanvar` moment machinery in `sfscan`).
//!
//! # The exact world fold
//!
//! [`TauKernel::score`] scores one region in one direction; it is the
//! per-region path of a real-data scan and the oracle for
//! [`TauKernel::fold_tau`], which produces a whole world's `τ` for
//! every requested direction with the same bits as the
//! `max`-of-`score` loop. For the two LLR statistics it scores each
//! region once:
//!
//! * **One score per region.** A region's LLR does not depend on the
//!   direction; the direction only gates it. The exact integer
//!   `d = p·N − n·P` (in `u64`, or `u128` when a product overflows)
//!   decides the gate: `d = 0` means equal
//!   rates and a zero score, `d > 0` routes the single LLR to the
//!   `TwoSided` and `High` slots, `d < 0` to `TwoSided` and `Low`.
//!   Division rounding is monotone, so the float rates `llr` compares
//!   can tie but never cross the exact order; the fold keeps `llr`'s
//!   float `rate_in == rate_out` check, so a tie (possible once
//!   `N ≥ 2^27`) still scores zero everywhere.
//! * **Logs only where they can win.** `τ` is a maximum, and a score
//!   that cannot beat every slot it feeds cannot change a bit of it.
//!   The LLR never exceeds Pearson's `X²` (see [`crate::llr`]), so the
//!   fold takes the logs only when `X²·(1 + 10⁻⁹) + margin` reaches the
//!   smallest running `τ` among those slots, compared without a
//!   division. The margin (`llr_rounding_margin`, `64·ε·(|l0| + N)`)
//!   bounds how far rounding can lift a computed LLR above the exact
//!   one; the `10⁻⁹` covers the rounding of `X²` itself.
//!
//! The per-world constants (`l0`, `P·(N−P)`, the margin) are computed
//! once per [`TauKernel::fold_tau`] call, i.e. once per world. The
//! mean residual takes no logs and runs the plain `score` loop.

use crate::llr::{
    bernoulli_llr_directed, llr_given_null, llr_rounding_margin, null_log_likelihood, Counts2x2,
};
use crate::pvalue::Direction;
use serde::{Deserialize, Serialize};

/// Which per-region test statistic an audit maximises.
///
/// The statistic is part of the *world-class identity* wherever worlds
/// are shared or cached: two requests agreeing on `(null model, seed,
/// worldgen)` but not on the statistic draw the same label worlds yet
/// produce different τ streams, so they must never share cached rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Statistic {
    /// The paper's directed Bernoulli scan LLR (the v1 statistic; the
    /// default, and what every payload without a `statistic` field
    /// means).
    #[default]
    BernoulliLlr,
    /// Equal opportunity: Bernoulli scan LLR over the
    /// `y_true`-conditioned stream, auditing per-region TPR.
    EqualOppTpr,
    /// Standardized per-region mean residual (continuous outcomes).
    MeanResidual,
}

impl Statistic {
    /// All selectable statistics (drives parse-error messages and
    /// bench sweeps).
    pub const ALL: [Statistic; 3] = [
        Statistic::BernoulliLlr,
        Statistic::EqualOppTpr,
        Statistic::MeanResidual,
    ];

    /// Stable kebab-case name (CLI/wire/bench token).
    pub fn name(&self) -> &'static str {
        match self {
            Statistic::BernoulliLlr => "bernoulli-llr",
            Statistic::EqualOppTpr => "equal-opp-tpr",
            Statistic::MeanResidual => "mean-residual",
        }
    }
}

impl std::fmt::Display for Statistic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`Statistic`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStatisticError {
    input: String,
}

impl std::fmt::Display for ParseStatisticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown statistic {:?}; valid values: ", self.input)?;
        for (i, statistic) in Statistic::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(statistic.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseStatisticError {}

impl std::str::FromStr for Statistic {
    type Err = ParseStatisticError;

    /// Parses the [`Display`](std::fmt::Display) name back
    /// (`bernoulli-llr`, `equal-opp-tpr`, `mean-residual`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Statistic::ALL
            .into_iter()
            .find(|statistic| statistic.name() == s.trim())
            .ok_or_else(|| ParseStatisticError {
                input: s.to_string(),
            })
    }
}

// The wire form is the kebab token itself, shared with the CLI, so a
// transcript grep for "equal-opp-tpr" finds both.
impl Serialize for Statistic {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(String::from(self.name()))
    }
}

impl Deserialize for Statistic {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some(s) => s
                .parse()
                .map_err(|e: ParseStatisticError| serde::Error::msg(e.to_string())),
            None => Err(serde::Error::msg(format!(
                "expected a statistic name string, got {}",
                value.kind()
            ))),
        }
    }
}

/// The per-region score fold of one world: world totals plus the
/// statistic, scoring count pairs.
///
/// Build one per evaluated world (`N` is world-invariant; `P` is that
/// world's positive total) and fold it over the per-region counts the
/// engine produces. Scores are `≥ 0`, `0` for degenerate regions
/// (`n(R) = 0` or `n(R) = N`), and direction-gated exactly like the
/// directed LLR, so `max` over regions is well-defined for every
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauKernel {
    statistic: Statistic,
    n_total: u64,
    p_total: u64,
}

impl TauKernel {
    /// A kernel scoring regions against the world totals `(n_total,
    /// p_total)`.
    pub fn new(statistic: Statistic, n_total: u64, p_total: u64) -> Self {
        TauKernel {
            statistic,
            n_total,
            p_total,
        }
    }

    /// The statistic this kernel computes.
    pub fn statistic(&self) -> Statistic {
        self.statistic
    }

    /// Scores one region's count pair. The τ contribution: the test
    /// statistic is the maximum of this over all regions.
    #[inline]
    pub fn score(&self, n_r: u64, p_r: u64, direction: Direction) -> f64 {
        match self.statistic {
            // EqualOppTpr is the LLR fold over the conditioned stream:
            // identical arithmetic (bit-identical to v1 on identical
            // counts), distinct identity for cache separation.
            Statistic::BernoulliLlr | Statistic::EqualOppTpr => bernoulli_llr_directed(
                &Counts2x2::new(n_r, p_r, self.n_total, self.p_total),
                direction,
            ),
            Statistic::MeanResidual => self.mean_residual(n_r, p_r, direction),
        }
    }

    /// Writes this world's `τ` for each of `directions` into `tau`:
    /// `tau[i]` is the maximum over `regions` of
    /// `self.score(n_r, p_r, directions[i])`, or `0` when no region
    /// scores above it. Bit-identical to that loop for any direction
    /// list, permutations and repeats included; for the LLR statistics
    /// each region is scored once and the logs are skipped wherever its
    /// `X²` bound shows the region cannot raise a slot (see the module
    /// docs). Every `(n_r, p_r)` pair is validated exactly as `score`
    /// validates it.
    ///
    /// # Panics
    /// Panics if `tau.len() != directions.len()`, or (LLR statistics)
    /// on a count pair [`Counts2x2::new`] rejects.
    pub fn fold_tau<I>(&self, regions: I, directions: &[Direction], tau: &mut [f64])
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        assert_eq!(tau.len(), directions.len(), "one τ slot per direction");
        tau.fill(0.0);
        match self.statistic {
            Statistic::BernoulliLlr | Statistic::EqualOppTpr => {
                self.fold_llr(regions, directions, tau)
            }
            Statistic::MeanResidual => {
                for (n_r, p_r) in regions {
                    for (t, &direction) in tau.iter_mut().zip(directions) {
                        let score = self.score(n_r, p_r, direction);
                        if score > *t {
                            *t = score;
                        }
                    }
                }
            }
        }
    }

    fn fold_llr<I>(&self, regions: I, directions: &[Direction], tau: &mut [f64])
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let (big_n, big_p) = (self.n_total, self.p_total);
        let (nn, pp) = (big_n as f64, big_p as f64);
        let l0 = null_log_likelihood(big_n, big_p);
        let margin = llr_rounding_margin(l0, nn);
        let pq = pp * (nn - pp);
        let scale = nn * (1.0 + X2_SLACK);
        // Per side (above, below), the smallest running τ among the
        // slots it feeds (+∞ when it feeds none): a score below it
        // changes nothing.
        let mut floors = side_floors(directions, tau);
        for (n_r, p_r) in regions {
            Counts2x2::new(n_r, p_r, big_n, big_p);
            if n_r == 0 || n_r == big_n {
                continue;
            }
            // The sign of d picks the side. d = 0 (equal rates) gets no
            // branch of its own: its bound is at most the margin, and a
            // region the bound does not skip meets the rate check below,
            // which equal rates never pass.
            let (low, dev) = deviation(n_r, p_r, big_n, big_p);
            let (n, p) = (n_r as f64, p_r as f64);
            // X² = N·d² / den, compared against the floor without the
            // division: den > 0 whenever d ≠ 0 (0 < n < N, and d ≠ 0
            // forces 0 < P < N).
            let den = n * (nn - n) * pq;
            let floor = floors[usize::from(low)];
            if scale * dev * dev + margin * den < floor * den {
                continue;
            }
            let (n_out, p_out) = (nn - n, pp - p);
            if p / n == p_out / n_out {
                continue;
            }
            let score = llr_given_null(n, p, n_out, p_out, l0);
            let mut raised = false;
            for (t, &direction) in tau.iter_mut().zip(directions) {
                if feeds(direction, low) && score > *t {
                    *t = score;
                    raised = true;
                }
            }
            if raised {
                floors = side_floors(directions, tau);
            }
        }
    }

    /// Standardized mean residual: with `ρ = P/N`, the region's mean
    /// residual is `p/n − ρ` and its null standard error `√(ρ(1−ρ)/n)`,
    /// giving the z-style score `(p/n − ρ)·√n / √(ρ(1−ρ))`.
    #[inline]
    fn mean_residual(&self, n_r: u64, p_r: u64, direction: Direction) -> f64 {
        debug_assert!(p_r <= n_r, "positives ({p_r}) exceed observations ({n_r})");
        debug_assert!(n_r <= self.n_total, "region larger than the world");
        if self.n_total == 0 || n_r == 0 || n_r == self.n_total {
            // Same degeneracy rule as the LLR: no "outside" to deviate
            // from.
            return 0.0;
        }
        let rho = self.p_total as f64 / self.n_total as f64;
        let var = rho * (1.0 - rho);
        if var <= 0.0 {
            // All-positive or all-negative world: every residual is 0.
            return 0.0;
        }
        let z = (p_r as f64 / n_r as f64 - rho) * (n_r as f64).sqrt() / var.sqrt();
        match direction {
            Direction::TwoSided => z.abs(),
            Direction::High => z.max(0.0),
            Direction::Low => (-z).max(0.0),
        }
    }
}

/// Relative slack on the computed `X²` in the fold's skip test: far
/// above the few-ulp rounding of its products, far below any margin
/// that would make the skip useless.
const X2_SLACK: f64 = 1e-9;

/// The exact deviation `d = p·N − n·P` as (`d < 0`, `|d|` rounded to
/// `f64` once): in `u64` when both products fit (every dataset under
/// 2^32 points), in `u128` otherwise.
#[inline]
fn deviation(n_r: u64, p_r: u64, big_n: u64, big_p: u64) -> (bool, f64) {
    match (p_r.checked_mul(big_n), n_r.checked_mul(big_p)) {
        (Some(above), Some(below)) => (above < below, above.abs_diff(below) as f64),
        _ => {
            let above = u128::from(p_r) * u128::from(big_n);
            let below = u128::from(n_r) * u128::from(big_p);
            (above < below, above.abs_diff(below) as f64)
        }
    }
}

/// Whether a region whose inside rate is below (`low`) or above the
/// outside rate scores in `direction`.
#[inline]
fn feeds(direction: Direction, low: bool) -> bool {
    match direction {
        Direction::TwoSided => true,
        Direction::High => !low,
        Direction::Low => low,
    }
}

/// The smallest running τ among the slots each side feeds, indexed by
/// `low` (+∞ for a side that feeds none).
fn side_floors(directions: &[Direction], tau: &[f64]) -> [f64; 2] {
    [false, true].map(|low| {
        directions
            .iter()
            .zip(tau)
            .filter(|(&direction, _)| feeds(direction, low))
            .fold(f64::INFINITY, |floor, (_, &t)| floor.min(t))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for statistic in Statistic::ALL {
            assert_eq!(
                statistic.to_string().parse::<Statistic>().unwrap(),
                statistic
            );
        }
        let err = "gini".parse::<Statistic>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gini"), "{msg}");
        for statistic in Statistic::ALL {
            assert!(msg.contains(statistic.name()), "{msg}");
        }
    }

    #[test]
    fn serde_round_trips_as_kebab_tokens() {
        for statistic in Statistic::ALL {
            let json = serde_json::to_string(&statistic).unwrap();
            assert_eq!(json, format!("\"{}\"", statistic.name()));
            let back: Statistic = serde_json::from_str(&json).unwrap();
            assert_eq!(back, statistic);
        }
        assert!(serde_json::from_str::<Statistic>("\"chi-squared\"").is_err());
        assert!(serde_json::from_str::<Statistic>("7").is_err());
    }

    #[test]
    fn default_is_the_paper_statistic() {
        assert_eq!(Statistic::default(), Statistic::BernoulliLlr);
    }

    #[test]
    fn bernoulli_kernel_is_exactly_the_llr() {
        let kernel = TauKernel::new(Statistic::BernoulliLlr, 1000, 500);
        for (n, p) in [(20u64, 16u64), (10, 0), (300, 150), (1000, 500), (0, 0)] {
            for direction in Direction::ALL {
                let expected = bernoulli_llr_directed(&Counts2x2::new(n, p, 1000, 500), direction);
                assert_eq!(kernel.score(n, p, direction), expected, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn equal_opp_kernel_matches_llr_on_identical_counts() {
        // The conditioning lives in the data stream; on equal counts
        // the fold itself is bit-identical to the Bernoulli LLR.
        let llr = TauKernel::new(Statistic::BernoulliLlr, 400, 170);
        let tpr = TauKernel::new(Statistic::EqualOppTpr, 400, 170);
        for (n, p) in [(40u64, 35u64), (40, 5), (1, 1), (399, 170)] {
            for direction in Direction::ALL {
                assert_eq!(
                    tpr.score(n, p, direction),
                    llr.score(n, p, direction),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn mean_residual_matches_hand_computation() {
        // N=100, P=25: rho=0.25, var=0.1875. Region n=16, p=8:
        // mean residual 0.25, z = 0.25*4/sqrt(0.1875).
        let kernel = TauKernel::new(Statistic::MeanResidual, 100, 25);
        let z = 0.25 * 4.0 / 0.1875f64.sqrt();
        assert!((kernel.score(16, 8, Direction::TwoSided) - z).abs() < 1e-12);
        assert!((kernel.score(16, 8, Direction::High) - z).abs() < 1e-12);
        assert_eq!(kernel.score(16, 8, Direction::Low), 0.0);
        // Depressed region: n=16, p=0 → mean residual −0.25.
        assert!((kernel.score(16, 0, Direction::Low) - z).abs() < 1e-12);
        assert_eq!(kernel.score(16, 0, Direction::High), 0.0);
        assert!((kernel.score(16, 0, Direction::TwoSided) - z).abs() < 1e-12);
    }

    #[test]
    fn mean_residual_degenerate_regions_score_zero() {
        let kernel = TauKernel::new(Statistic::MeanResidual, 100, 25);
        assert_eq!(kernel.score(0, 0, Direction::TwoSided), 0.0);
        assert_eq!(kernel.score(100, 25, Direction::TwoSided), 0.0);
        // Degenerate worlds: zero variance.
        let all_pos = TauKernel::new(Statistic::MeanResidual, 100, 100);
        assert_eq!(all_pos.score(10, 10, Direction::TwoSided), 0.0);
        let empty = TauKernel::new(Statistic::MeanResidual, 0, 0);
        assert_eq!(empty.score(0, 0, Direction::TwoSided), 0.0);
    }

    #[test]
    fn mean_residual_ranks_by_average_deviation_not_mass() {
        // A small extreme region beats a big mild one under the mean
        // residual — the opposite of what the LLR's evidence-mass
        // ranking does on the same worlds. N=1000, P=500: the 16/16
        // region has z = 0.5·√16/0.5 = 4.0, the 239-of-400 region has
        // z = 0.0975·√400/0.5 = 3.9 but carries far more total
        // log-likelihood evidence (≈12.7 vs ≈11.2).
        let mr = TauKernel::new(Statistic::MeanResidual, 1000, 500);
        let small_extreme = mr.score(16, 16, Direction::High);
        let big_mild = mr.score(400, 239, Direction::High);
        assert!(small_extreme > big_mild, "{small_extreme} vs {big_mild}");
        let llr = TauKernel::new(Statistic::BernoulliLlr, 1000, 500);
        let llr_small = llr.score(16, 16, Direction::High);
        let llr_big = llr.score(400, 239, Direction::High);
        assert!(llr_big > llr_small, "{llr_big} vs {llr_small}");
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        for statistic in Statistic::ALL {
            let kernel = TauKernel::new(statistic, 128, 37);
            for n in [0u64, 1, 37, 64, 127, 128] {
                for p in [0u64, 1, n.min(37)] {
                    // Skip count pairs no world can produce: positives
                    // must fit inside the region and negatives must
                    // fit outside it (Counts2x2's invariants).
                    if p > n || n - p > 128 - 37 {
                        continue;
                    }
                    for direction in Direction::ALL {
                        let score = kernel.score(n, p, direction);
                        assert!(
                            score.is_finite() && score >= 0.0,
                            "{statistic} n={n} p={p} {direction:?}: {score}"
                        );
                    }
                }
            }
        }
    }
}
