//! Rank-based Monte Carlo p-values and critical values.
//!
//! The paper (§3): "Suppose we simulate `w − 1` worlds, and the `τ`
//! statistic of the real world ranks at the `k`-th highest position
//! among all worlds. Then the p-value of the real world's statistic is
//! `k/w`." A region-level result is *significant at level α* when its
//! statistic exceeds the critical value derived from the same simulated
//! distribution — this is how the paper's §4.2 obtains "log-likelihood
//! differences beyond 9.6 are significant at the 0.005 level".

use serde::{Deserialize, Serialize};

/// Direction of the deviation the audit is sensitive to.
///
/// The paper's main test is two-sided; §B.2 audits one-sided variants
/// ("red" regions with significantly fewer positives inside, "green"
/// regions with significantly more).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Direction {
    /// Deviations in either direction count (the paper's main setting).
    #[default]
    TwoSided,
    /// Only inside-rate *above* outside-rate counts ("green", Fig. 12).
    High,
    /// Only inside-rate *below* outside-rate counts ("red", Fig. 11).
    Low,
}

impl Direction {
    /// All directions, in a stable order (drives sweeps and the
    /// constant-time direction→lane tables of the batched executor).
    pub const ALL: [Direction; 3] = [Direction::TwoSided, Direction::High, Direction::Low];

    /// This direction's index in [`Direction::ALL`] — a dense ordinal
    /// for array-backed lookup tables.
    #[inline]
    pub fn ordinal(&self) -> usize {
        match self {
            Direction::TwoSided => 0,
            Direction::High => 1,
            Direction::Low => 2,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::TwoSided => write!(f, "two-sided"),
            Direction::High => write!(f, "high (green)"),
            Direction::Low => write!(f, "low (red)"),
        }
    }
}

/// Monte Carlo rank p-value `k/w`.
///
/// `observed` is the real world's statistic; `simulated` holds the
/// `w − 1` simulated statistics. The real world's rank `k` counts ties
/// conservatively (a simulated value equal to the observed one pushes
/// the observed rank down), so the p-value is never understated.
///
/// The returned value lies in `[1/w, 1]`.
///
/// # Panics
/// Panics if `simulated` is empty or `observed` is NaN.
pub fn rank_p_value(observed: f64, simulated: &[f64]) -> f64 {
    assert!(!simulated.is_empty(), "need at least one simulated world");
    assert!(!observed.is_nan(), "observed statistic must not be NaN");
    let w = simulated.len() + 1;
    let k = 1 + simulated.iter().filter(|&&s| s >= observed).count();
    k as f64 / w as f64
}

/// The largest rank `k` with `k/w ≤ alpha` under the exact
/// floating-point comparison [`rank_p_value`] verdicts use. Returns 0
/// when even rank 1 (`1/w`) is not significant.
///
/// This deliberately does NOT use `⌊α·w⌋`: the multiply can round
/// across an integer boundary (e.g. `α` one ulp below `0.9` with
/// `w = 10` gives `α·10.0 == 9.0` exactly), and every consumer —
/// [`critical_value`] here, the early-stopping rule in
/// [`crate::montecarlo`] — must agree with the division-based verdict
/// comparison bit for bit.
pub fn largest_significant_rank(alpha: f64, w: usize) -> usize {
    // Start from the floor estimate, then correct for the multiply's
    // rounding in either direction.
    let mut k = ((alpha * w as f64).floor() as usize).min(w);
    while k > 0 && (k as f64) / (w as f64) > alpha {
        k -= 1;
    }
    while k < w && ((k + 1) as f64) / (w as f64) <= alpha {
        k += 1;
    }
    k
}

/// Critical value at level `alpha` from the simulated max-statistic
/// distribution: the smallest threshold `c` such that any statistic
/// strictly greater than `c` has rank p-value ≤ `alpha`.
///
/// With `w = len + 1` worlds, a statistic `t` is significant iff its
/// rank `#{sims ≥ t} + 1` is at most [`largest_significant_rank`]
/// `m`; the threshold is the `m`-th largest simulated value. Returns
/// `f64::INFINITY` when the Monte Carlo budget is too small to ever
/// reach significance (`m < 1`), mirroring the fact that with too few
/// worlds nothing can be declared significant.
///
/// The threshold is found by linear-time selection, and it has exactly
/// the bits that index `m − 1` of a stable descending sort would hold.
/// The one case where equal values differ in bits is zero: when the
/// threshold is zero, the result is the zero a stable sort places at
/// `m − 1`, the `(m − 1 − #{sims > 0})`-th zero in input order.
///
/// # Panics
/// Panics if `simulated` is empty or `alpha` is outside `(0, 1)`, and
/// when `m ≥ 1` if any simulated value is NaN.
pub fn critical_value(simulated: &[f64], alpha: f64) -> f64 {
    assert!(!simulated.is_empty(), "need at least one simulated world");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "alpha must be in (0,1), got {alpha}"
    );
    let w = simulated.len() + 1;
    let m = largest_significant_rank(alpha, w);
    if m < 1 {
        return f64::INFINITY;
    }
    assert!(
        !simulated.iter().any(|s| s.is_nan()),
        "statistics must not be NaN"
    );
    // m-th largest simulated value. `total_cmp` orders -0 below +0,
    // which only decides which zero is picked; that is fixed below.
    let mut scratch: Vec<f64> = simulated.to_vec();
    let (_, &mut c, _) = scratch.select_nth_unstable_by(m - 1, |a, b| b.total_cmp(a));
    if c != 0.0 {
        return c;
    }
    let above = simulated.iter().filter(|&&s| s > 0.0).count();
    simulated
        .iter()
        .copied()
        .filter(|&s| s == 0.0)
        .nth(m - 1 - above)
        .expect("the m-th largest value is a zero")
}

/// Returns `true` when a statistic is significant at `alpha` given the
/// simulated distribution, consistently with [`critical_value`] and
/// [`rank_p_value`].
pub fn is_significant(statistic: f64, simulated: &[f64], alpha: f64) -> bool {
    rank_p_value(statistic, simulated) <= alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_value_when_observed_is_highest() {
        let sims = vec![1.0, 2.0, 3.0];
        assert_eq!(rank_p_value(10.0, &sims), 0.25); // k=1, w=4
    }

    #[test]
    fn p_value_when_observed_is_lowest() {
        let sims = vec![1.0, 2.0, 3.0];
        assert_eq!(rank_p_value(0.0, &sims), 1.0); // k=4, w=4
    }

    #[test]
    fn p_value_counts_ties_conservatively() {
        let sims = vec![5.0, 5.0, 1.0];
        // observed 5.0 ties with two sims -> k = 3, w = 4.
        assert_eq!(rank_p_value(5.0, &sims), 0.75);
    }

    #[test]
    fn p_value_min_is_one_over_w() {
        let sims = vec![0.0; 999];
        assert_eq!(rank_p_value(1.0, &sims), 1.0 / 1000.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn p_value_requires_sims() {
        let _ = rank_p_value(1.0, &[]);
    }

    #[test]
    fn critical_value_matches_paper_setup() {
        // w = 1000 (999 sims), alpha = 0.005 -> m = 5 -> 5th largest.
        let mut sims: Vec<f64> = (1..=999).map(|i| i as f64).collect();
        sims.reverse();
        let c = critical_value(&sims, 0.005);
        assert_eq!(c, 995.0); // 5th largest of 1..=999
                              // Anything above c is significant:
        assert!(is_significant(995.1, &sims, 0.005));
        // c itself is NOT (tie counts against): k = 1 + 5 = 6 > 5.
        assert!(!is_significant(995.0, &sims, 0.005));
    }

    #[test]
    fn critical_value_infinite_when_budget_too_small() {
        // 99 sims (w=100) cannot reach alpha = 0.005.
        let sims = vec![1.0; 99];
        assert_eq!(critical_value(&sims, 0.005), f64::INFINITY);
        assert!(!is_significant(f64::MAX, &sims, 0.005));
    }

    #[test]
    fn critical_value_alpha_05_with_19_sims() {
        // w=20, alpha=0.05 -> m=1 -> largest sim is the threshold.
        let sims: Vec<f64> = (1..=19).map(|i| i as f64).collect();
        assert_eq!(critical_value(&sims, 0.05), 19.0);
        assert!(is_significant(19.5, &sims, 0.05));
        assert!(!is_significant(19.0, &sims, 0.05));
    }

    #[test]
    fn significance_consistent_with_p_value() {
        let sims: Vec<f64> = (0..999).map(|i| (i as f64) * 0.01).collect();
        let alpha = 0.005;
        let c = critical_value(&sims, alpha);
        for t in [0.0, 5.0, 9.9, 9.94, 9.95, 9.98, 20.0] {
            let by_p = rank_p_value(t, &sims) <= alpha;
            let by_c = t > c;
            assert_eq!(by_p, by_c, "inconsistent at t={t}, c={c}");
        }
    }

    #[test]
    fn critical_value_consistent_at_ulp_alpha_boundaries() {
        // Regression: alpha one ulp below 9/10 with w = 10 made the old
        // floor(alpha*w) rank round UP to 9, flagging statistics whose
        // rank p-value exceeds alpha. The rank must come from the same
        // k/w <= alpha comparison the verdict uses.
        let sims: Vec<f64> = (1..=9).map(|i| i as f64).collect(); // w = 10
        let alpha = f64::from_bits(0.9f64.to_bits() - 1);
        assert_eq!(largest_significant_rank(alpha, 10), 8);
        let c = critical_value(&sims, alpha);
        assert_eq!(c, 2.0); // 8th largest, not the 9th (= 1.0)
        for t in [0.5, 1.5, 2.0, 2.5, 5.0, 9.5] {
            assert_eq!(
                is_significant(t, &sims, alpha),
                t > c,
                "inconsistent at t={t}, c={c}"
            );
        }
    }

    #[test]
    fn critical_zero_is_the_one_a_stable_sort_places() {
        // A stable descending sort keeps -0.0, 0.0, -0.0 in input order
        // after 1.0: w = 5, alpha = 2/5 -> m = 2 -> the first zero.
        let sims = [-0.0, 1.0, 0.0, -0.0];
        assert_eq!(critical_value(&sims, 0.4).to_bits(), (-0.0f64).to_bits());
        assert_eq!(critical_value(&sims, 0.6).to_bits(), 0.0f64.to_bits());
        assert_eq!(critical_value(&sims, 0.8).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn largest_significant_rank_basics() {
        // Paper setting: w = 1000, alpha = 0.005 -> rank 5.
        assert_eq!(largest_significant_rank(0.005, 1000), 5);
        // Budget too small: rank 0.
        assert_eq!(largest_significant_rank(0.005, 100), 0);
        // Exact boundary alpha keeps its rank.
        assert_eq!(largest_significant_rank(0.9, 10), 9);
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::TwoSided.to_string(), "two-sided");
        assert_eq!(Direction::High.to_string(), "high (green)");
        assert_eq!(Direction::Low.to_string(), "low (red)");
    }
}
