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
//! [`fold_matrix`], which produces the `τ` of a whole batch of worlds,
//! for every requested direction, with the same bits as the
//! `max`-of-`score` loop. Its input is the region-major count matrix
//! `counts[r·W + w]`, so one region's counts under `W` worlds are
//! contiguous. For the two LLR statistics:
//!
//! * **Eight worlds per region row.** Worlds are folded in lane groups
//!   of [`FOLD_LANES`] (the last group may be shorter). A group's
//!   per-world constants (`P`, `l0`, the margin, `P·(N−P)` and the
//!   two side floors below) sit in `[f64; 8]` arrays, and the fold
//!   walks the regions once per group. Each region row gets one
//!   branch-free pass over its lanes that validates every count
//!   exactly as [`Counts2x2::new`] does and evaluates the `X²` screen
//!   below; a row where no lane survives costs no per-lane branch.
//!   Every world still sees its regions in ascending order, so its
//!   running `τ` and floors evolve exactly as in a world-at-a-time
//!   loop.
//! * **One score per region.** A region's LLR does not depend on the
//!   direction; the direction only gates it. The exact deviation
//!   `d = p·N − n·P` decides the gate: `d = 0` means equal rates and a
//!   zero score, `d > 0` routes the single LLR to the `TwoSided` and
//!   `High` slots, `d < 0` to `TwoSided` and `Low`. When `N² ≤ 2^53`
//!   every product in `d` is an integer below `2^53`, so `d` is exact
//!   in `f64`, and on x86_64 the row pass runs in SSE2, two lanes per
//!   instruction. Larger worlds, and other targets, take `d` in `u64`,
//!   or `u128` when a product overflows; both passes give the same
//!   result, bit for bit. Division rounding is monotone, so the float
//!   rates `llr` compares can tie but never cross the exact order; the
//!   fold keeps `llr`'s float `rate_in == rate_out` check, so a tie
//!   (possible once `N ≥ 2^27`) still scores zero everywhere.
//! * **Logs only where they can win.** `τ` is a maximum, and a score
//!   that cannot beat every slot it feeds cannot change a bit of it;
//!   call the smallest running `τ` among those slots the side's
//!   *floor*. Two upper bounds on the LLR screen a region before its
//!   four logs, each inflated by a relative slack of `10⁻⁹` (far above
//!   the few-ulp rounding of the bound itself) plus
//!   `llr_rounding_margin`, `64·ε·(|l0| + N)` (how far rounding can
//!   lift a computed LLR above the exact one):
//!   1. Pearson's `X² = N·d² / (n·(N−n)·P·(N−P))` (see [`crate::llr`]),
//!      compared against the floor without a division, in every lane.
//!   2. For the lanes that pass, the tighter second-order bound below,
//!      which is about `X²/2` near the null.
//!
//! ## The second bound
//!
//! With `a = p/n`, `b = (P−p)/(N−n)` and `ρ = P/N`, the LLR is
//! `n·KL(a‖ρ) + (N−n)·KL(b‖ρ)`. As a function of `a`, `f(a) =
//! KL(a‖ρ)` has `f(ρ) = f'(ρ) = 0` and `f''(t) = 1/(t(1−t))`, so
//! Taylor's theorem with integral remainder gives
//!
//! ```text
//! KL(a‖ρ) = ∫_ρ^a (a − t) / (t(1−t)) dt ≤ (a − ρ)² / (2·min_{t∈[a,ρ]} t(1−t))
//! ```
//!
//! and `t(1−t)` is concave, so its minimum on `[a, ρ]` sits at an
//! endpoint: `KL(a‖ρ) ≤ (a − ρ)² / (2·min(a(1−a), ρ(1−ρ)))`. With
//! `a − ρ = d/(n·N)` and `b − ρ = −d/((N−n)·N)` the two terms sum to
//!
//! ```text
//! LLR ≤ d²/(2N²) · (1/(n·m_in) + 1/((N−n)·m_out)),
//! m_in  = min(p(n−p)/n², P(N−P)/N²),
//! m_out = min((P−p)(N−n−P+p)/(N−n)², P(N−P)/N²).
//! ```
//!
//! Taking the `P(N−P)/N²` side of both minima gives exactly `X²/2`,
//! so the bound is at least `X²/2`, and close to it near the null,
//! where both rates sit close to `ρ`. It needs both `m > 0`: a
//! region or complement whose rate is 0 or 1 has no finite bound and
//! goes straight to the logs. The fold takes `p(n−p)`,
//! `(P−p)(N−n−P+p)` and `P(N−P)` as exact integer products rounded
//! once, so the computed bound is within a few ulps of the exact one.
//!
//! The mean residual takes no logs and runs the plain `score` loop
//! over the same lane groups.

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
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.name());
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
    ///
    /// # Panics
    /// With [`Counts2x2::new`]'s message when the counts are
    /// inconsistent, for every statistic.
    #[inline]
    pub fn score(&self, n_r: u64, p_r: u64, direction: Direction) -> f64 {
        let counts = Counts2x2::new(n_r, p_r, self.n_total, self.p_total);
        match self.statistic {
            // EqualOppTpr is the LLR fold over the conditioned stream:
            // identical arithmetic (bit-identical to v1 on identical
            // counts), distinct identity for cache separation.
            Statistic::BernoulliLlr | Statistic::EqualOppTpr => {
                bernoulli_llr_directed(&counts, direction)
            }
            Statistic::MeanResidual => mean_residual(&counts, direction),
        }
    }
}

/// Standardized mean residual: with `ρ = P/N`, the region's mean
/// residual is `p/n − ρ` and its null standard error `√(ρ(1−ρ)/n)`,
/// giving the z-style score `(p/n − ρ)·√n / √(ρ(1−ρ))`.
#[inline]
fn mean_residual(c: &Counts2x2, direction: Direction) -> f64 {
    let (n_r, p_r) = (c.n_in, c.p_in);
    if c.n_total == 0 || n_r == 0 || n_r == c.n_total {
        // Same degeneracy rule as the LLR: no "outside" to deviate
        // from.
        return 0.0;
    }
    let rho = c.p_total as f64 / c.n_total as f64;
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

/// Worlds per lane group of [`fold_matrix`]: one pass over a region
/// row screens the region under this many worlds. Equal to the
/// engine's fused counting batch, so one counted batch is one group.
pub const FOLD_LANES: usize = 8;

/// The largest world size `N` whose deviation [`fold_matrix`] takes in
/// `f64` (its row pass in SSE2 on x86_64): `⌊√(2^53)⌋`, so `N² ≤ 2^53`
/// and the products `p·N` and `n·P` of any valid counts are integers
/// that `f64` holds exactly.
pub const F64_EXACT_MAX_N: u64 = 94_906_265;

/// Relative slack on both computed bounds in the fold's skip tests:
/// far above the few-ulp rounding of their products and quotients,
/// far below any margin that would make the skip useless.
const BOUND_SLACK: f64 = 1e-9;

/// Writes the `τ` of every world of a region-major count matrix.
///
/// `counts[r * W + w]` is region `r`'s positive count under world `w`,
/// `p_worlds[w]` that world's positive total (`W = p_worlds.len()`),
/// `region_n[r]` the region's size and `n_total` the world size `N`.
/// `out[w * D + i]` receives world `w`'s `τ` in `directions[i]`: the
/// maximum over the non-empty regions of
/// `TauKernel::new(statistic, n_total, p_worlds[w]).score(n_r, p_r,
/// directions[i])`, or `0` when no region scores above it.
/// Bit-identical to that loop for any direction list, permutations and
/// repeats included; for the LLR statistics each region is scored once
/// per world and the logs are skipped wherever a bound shows the
/// region cannot raise a slot (see the module docs).
///
/// # Panics
/// Panics when `counts` or `out` has the wrong length, or with
/// [`Counts2x2::new`]'s message on the count of a non-empty region
/// that it rejects (every statistic).
pub fn fold_matrix(
    statistic: Statistic,
    n_total: u64,
    region_n: &[u64],
    p_worlds: &[u64],
    counts: &[u64],
    directions: &[Direction],
    out: &mut [f64],
) {
    let width = p_worlds.len();
    let stride = directions.len();
    assert_eq!(
        out.len(),
        width * stride,
        "one output slot per (world, direction)"
    );
    assert_eq!(
        counts.len(),
        region_n.len() * width,
        "one count per (region, world)"
    );
    out.fill(0.0);
    let matrix = Matrix {
        n_total,
        region_n,
        counts,
        width,
        directions,
    };
    for (g, p_group) in p_worlds.chunks(FOLD_LANES).enumerate() {
        let w0 = g * FOLD_LANES;
        let tau = &mut out[w0 * stride..(w0 + p_group.len()) * stride];
        match statistic {
            Statistic::BernoulliLlr | Statistic::EqualOppTpr if n_total <= F64_EXACT_MAX_N => {
                matrix.fold_llr::<true>(w0, p_group, tau)
            }
            Statistic::BernoulliLlr | Statistic::EqualOppTpr => {
                matrix.fold_llr::<false>(w0, p_group, tau)
            }
            Statistic::MeanResidual => matrix.fold_scores(statistic, w0, p_group, tau),
        }
    }
}

/// What every lane group of one [`fold_matrix`] call shares.
struct Matrix<'a> {
    n_total: u64,
    region_n: &'a [u64],
    counts: &'a [u64],
    width: usize,
    directions: &'a [Direction],
}

impl Matrix<'_> {
    /// Region `r`'s counts under the `lanes` worlds from `w0`, padded
    /// with zeros to a full group.
    #[inline]
    fn row(&self, r: usize, w0: usize, lanes: usize) -> [u64; FOLD_LANES] {
        let start = r * self.width + w0;
        let counts = &self.counts[start..start + lanes];
        // A full group loads as one fixed-size array.
        if let Ok(row) = counts.try_into() {
            return row;
        }
        let mut row = [0; FOLD_LANES];
        row[..lanes].copy_from_slice(counts);
        row
    }

    /// The plain per-region, per-direction `score` loop over one group.
    fn fold_scores(&self, statistic: Statistic, w0: usize, p_group: &[u64], tau: &mut [f64]) {
        let stride = self.directions.len();
        for (r, &n_r) in self.region_n.iter().enumerate() {
            if n_r == 0 {
                continue;
            }
            let row = self.row(r, w0, p_group.len());
            for (l, &p_world) in p_group.iter().enumerate() {
                let kernel = TauKernel::new(statistic, self.n_total, p_world);
                let slots = &mut tau[l * stride..(l + 1) * stride];
                for (t, &direction) in slots.iter_mut().zip(self.directions) {
                    let score = kernel.score(n_r, row[l], direction);
                    if score > *t {
                        *t = score;
                    }
                }
            }
        }
    }

    /// The LLR fold of one group of at most [`FOLD_LANES`] worlds, the
    /// worlds from `w0` with positive totals `p_group`; `tau` holds
    /// their slots, zeroed. With `F64_EXACT` (`N ≤ F64_EXACT_MAX_N`)
    /// the deviation is taken in `f64` (the row pass in SSE2 on
    /// x86_64), otherwise in integers.
    fn fold_llr<const F64_EXACT: bool>(&self, w0: usize, p_group: &[u64], tau: &mut [f64]) {
        let (big_n, directions) = (self.n_total, self.directions);
        let stride = directions.len();
        let lanes = p_group.len();
        let active = u8::MAX >> (FOLD_LANES - lanes);
        let nn = big_n as f64;
        let nn2 = nn * nn;
        // Per-world constants, one lane each; padding lanes hold P = 0
        // and never survive the `active` mask.
        let mut big_p = [0u64; FOLD_LANES];
        big_p[..lanes].copy_from_slice(p_group);
        let pp = big_p.map(|p| p as f64);
        let l0 = big_p.map(|p| null_log_likelihood(big_n, p));
        let margin = l0.map(|l0| llr_rounding_margin(l0, nn));
        let pq = big_p.map(|p| product(p, big_n.wrapping_sub(p)));
        let p_invalid = p_group.iter().any(|&p| p > big_n);
        let mut floors = Floors {
            reach: [[f64::INFINITY; FOLD_LANES]; 2],
            limit: [[f64::INFINITY; FOLD_LANES]; 2],
        };
        for l in 0..lanes {
            let slots = &tau[l * stride..(l + 1) * stride];
            floors.set(l, directions, slots, margin[l], pq[l]);
        }
        for (r, &n_r) in self.region_n.iter().enumerate() {
            if n_r == 0 {
                continue;
            }
            let row = self.row(r, w0, lanes);
            // Every lane at once: Counts2x2::new's rules, and the X²
            // screen against each lane's limit.
            let (invalid, passed) = match () {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: SSE2 is part of the x86_64 baseline, so every
                // CPU this code runs on has it.
                () if F64_EXACT => unsafe { screen_f64(&row, n_r, big_n, &pp, &floors.limit) },
                _ => screen_integers(&row, n_r, big_n, &big_p, &floors.limit),
            };
            if invalid || p_invalid {
                // Counts2x2::new's own checks, lane by lane, raise its
                // message.
                for (&p_r, &p_world) in row.iter().zip(p_group) {
                    Counts2x2::new(n_r, p_r, big_n, p_world);
                }
                unreachable!("Counts2x2::new accepts every lane of a row it rejects");
            }
            if n_r == big_n {
                continue;
            }
            let n_out_r = big_n - n_r;
            let (n, n_out) = (n_r as f64, n_out_r as f64);
            // The lanes that pass meet the second bound, then the
            // rate check and the logs, in lane order.
            let mut survivors = passed & active;
            while survivors != 0 {
                let l = survivors.trailing_zeros() as usize;
                survivors &= survivors - 1;
                let (low, d) = if F64_EXACT {
                    // Exact, as in `screen_f64`.
                    let d = row[l] as f64 * nn - n * pp[l];
                    (d < 0.0, d.abs())
                } else {
                    deviation(n_r, row[l], big_n, big_p[l])
                };
                let (pq_in, pq_out) = if F64_EXACT {
                    // Integers below 2^53: exact.
                    let p = row[l] as f64;
                    let p_out = pp[l] - p;
                    (p * (n - p), p_out * (n_out - p_out))
                } else {
                    let p_out_r = big_p[l] - row[l];
                    (
                        product(row[l], n_r - row[l]),
                        product(p_out_r, n_out_r - p_out_r),
                    )
                };
                let bound = second_bound(d, n, n_out, nn2, pq[l], pq_in, pq_out);
                if second_bound_skips(bound, floors.reach[usize::from(low)][l]) {
                    continue;
                }
                // The LLR's own arithmetic, as `bernoulli_llr_directed`
                // runs it.
                let p = row[l] as f64;
                let (n_out, p_out) = (nn - n, pp[l] - p);
                if p / n == p_out / n_out {
                    continue;
                }
                let score = llr_given_null(n, p, n_out, p_out, l0[l]);
                let slots = &mut tau[l * stride..(l + 1) * stride];
                let mut raised = false;
                for (t, &direction) in slots.iter_mut().zip(directions) {
                    if feeds(direction, low) && score > *t {
                        *t = score;
                        raised = true;
                    }
                }
                if raised {
                    floors.set(l, directions, slots, margin[l], pq[l]);
                }
            }
        }
    }
}

/// One region row's lane pass with the deviation in integers: whether
/// any lane breaks a [`Counts2x2::new`] rule for region size `n_r`
/// (`p ≤ n`, `n ≤ N`, `p ≤ P`, `P − p ≤ N − n`; `P ≤ N` is the
/// caller's), and the mask of lanes the X² screen passes.
///
/// The screen compares `X² = N·d² / (n·(N−n)·P(N−P))` with the lane's
/// [`Floors::limit`] without the division, `N·(1 + slack)·d² <
/// n·(N−n)·limit` skipping. `d = 0` (equal rates) gets no branch of
/// its own: its bound is 0, and a lane the screen passes meets the
/// rate check, which equal rates never pass. Padding lanes (count and
/// `P` both 0) are valid; the caller masks them out.
#[inline]
fn screen_integers(
    row: &[u64; FOLD_LANES],
    n_r: u64,
    big_n: u64,
    big_p: &[u64; FOLD_LANES],
    limit: &[[f64; FOLD_LANES]; 2],
) -> (bool, u8) {
    let n_out_r = big_n.wrapping_sub(n_r);
    let nn = big_n as f64;
    let scale = nn * (1.0 + BOUND_SLACK);
    let spread = n_r as f64 * n_out_r as f64;
    let mut invalid = n_r > big_n;
    let mut passed = 0u8;
    for (l, (&p_r, &p_world)) in row.iter().zip(big_p).enumerate() {
        invalid |= (p_r > n_r) | (p_r > p_world) | (p_world.wrapping_sub(p_r) > n_out_r);
        let (low, d) = deviation(n_r, p_r, big_n, p_world);
        let skip = scale * d * d < spread * limit[usize::from(low)][l];
        passed |= u8::from(!skip) << l;
    }
    (invalid, passed)
}

/// [`screen_integers`] for `N ≤ F64_EXACT_MAX_N`, two lanes per SSE2
/// instruction, with `pp` the lanes' `P` as `f64`; same result, bit for
/// bit.
///
/// With `N ≤ F64_EXACT_MAX_N < 2^31`, `n`, `P` and `N − n` are exact in
/// `f64`, and a count of `2^31` or more breaks `p ≤ n`, so the pass
/// flags any such count and converts the rest exactly through `i32`.
/// Then `p ≤ min(n, P)` and `p ≥ P − (N − n)` compare exactly, and so
/// does `d = p·N − n·P`: both products are integers of at most `N² ≤
/// 2^53`. The screen is the same expression as in
/// [`screen_integers`], lane for lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn screen_f64(
    row: &[u64; FOLD_LANES],
    n_r: u64,
    big_n: u64,
    pp: &[f64; FOLD_LANES],
    limit: &[[f64; FOLD_LANES]; 2],
) -> (bool, u8) {
    use std::arch::x86_64::*;
    let (n, n_out, nn) = (n_r as f64, big_n.wrapping_sub(n_r) as f64, big_n as f64);
    let (n2, n_out2, nn2) = (_mm_set1_pd(n), _mm_set1_pd(n_out), _mm_set1_pd(nn));
    let scale = _mm_set1_pd(nn * (1.0 + BOUND_SLACK));
    let spread = _mm_set1_pd(n * n_out);
    let zero = _mm_setzero_pd();
    let (mut wide, mut bad, mut passed) = (_mm_setzero_si128(), zero, 0);
    for k in (0..FOLD_LANES).step_by(2) {
        let counts = _mm_set_epi64x(row[k + 1] as i64, row[k] as i64);
        wide = _mm_or_si128(wide, counts);
        let p = _mm_cvtepi32_pd(_mm_shuffle_epi32::<0b10_00>(counts));
        let big_p = _mm_set_pd(pp[k + 1], pp[k]);
        let above_hi = _mm_cmpgt_pd(p, _mm_min_pd(n2, big_p));
        let below_lo = _mm_cmplt_pd(p, _mm_sub_pd(big_p, n_out2));
        bad = _mm_or_pd(bad, _mm_or_pd(above_hi, below_lo));
        let d = _mm_sub_pd(_mm_mul_pd(p, nn2), _mm_mul_pd(n2, big_p));
        let low = _mm_cmplt_pd(d, zero);
        let lane_limit = _mm_or_pd(
            _mm_and_pd(low, _mm_set_pd(limit[1][k + 1], limit[1][k])),
            _mm_andnot_pd(low, _mm_set_pd(limit[0][k + 1], limit[0][k])),
        );
        let skip = _mm_cmplt_pd(
            _mm_mul_pd(_mm_mul_pd(scale, d), d),
            _mm_mul_pd(spread, lane_limit),
        );
        passed |= (!_mm_movemask_pd(skip) & 0b11) << k;
    }
    let narrow = _mm_cmpeq_epi32(_mm_srli_epi64::<31>(wide), _mm_setzero_si128());
    let invalid = n_r > big_n || _mm_movemask_epi8(narrow) != 0xFFFF || _mm_movemask_pd(bad) != 0;
    (invalid, passed as u8)
}

/// The second bound on a region's LLR (see *The second bound* in the
/// module docs) as a fraction `(num, den)`, from `|d|`, `n`, `N − n`,
/// `N²` and the products `P(N−P)`, `p(n−p)` and `(P−p)(N−n−P+p)`.
/// `den` is 0 where the bound is infinite (`p(n−p)` or
/// `(P−p)(N−n−P+p)` is 0).
///
/// With `A = min(p(n−p)·N², P(N−P)·n²) = n²·N²·m_in` and `B` the same
/// outside, the bound is `d²/2 · (n/A + (N−n)/B) = num/den` with
/// `num = d²/2 · (n·B + (N−n)·A)` and `den = A·B`. Every input is an
/// integer rounded to `f64` at most once, and `num` and `den` take
/// about ten more roundings, so `num/den` is within `≈ 20ε` relative
/// of the exact bound. Nothing overflows: `A`, `B < 2^255` for any
/// `u64` counts, so `den < 2^510`.
#[inline]
fn second_bound(
    d: f64,
    n: f64,
    n_out: f64,
    nn2: f64,
    pq: f64,
    pq_in: f64,
    pq_out: f64,
) -> (f64, f64) {
    let a = (pq_in * nn2).min(pq * n * n);
    let b = (pq_out * nn2).min(pq * n_out * n_out);
    (0.5 * d * d * (n * b + n_out * a), a * b)
}

/// Whether a region whose [`second_bound`] is `num/den` falls short of
/// `reach` (a floor less the rounding margin): `num/den · (1 +
/// BOUND_SLACK) < reach`, compared without the division. Never true
/// when `den = 0` (no finite bound): the right-hand side is then `±0`
/// or NaN, and `num ≥ 0`.
#[inline]
fn second_bound_skips((num, den): (f64, f64), reach: f64) -> bool {
    num * (1.0 + BOUND_SLACK) < reach * den
}

/// `a·b` rounded to `f64` once: in `u64` when it fits, in `u128`
/// otherwise.
#[inline]
fn product(a: u64, b: u64) -> f64 {
    match a.checked_mul(b) {
        Some(ab) => ab as f64,
        None => (u128::from(a) * u128::from(b)) as f64,
    }
}

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

/// The side floors of a lane group, as what a region's LLR bound must
/// reach to matter, per side (index 0 for `d > 0`, 1 for `d < 0`) and
/// lane.
///
/// A side's *floor* is the smallest running τ among the slots it feeds
/// (+∞ when it feeds none); a score below it changes nothing. A bound
/// `b` on the exact LLR lets the fold skip the logs when
/// `b·(1 + BOUND_SLACK) + margin < floor`, i.e. `b·(1 + BOUND_SLACK)
/// < reach` with `reach = floor − margin`. `limit = reach·P(N−P)`
/// is the same for the X² screen, whose denominator holds `P(N−P)`.
/// Rounding `reach` and `limit` costs a few ulps, which the slack
/// covers; a side that feeds nothing has `reach = limit = +∞` (or NaN
/// when `P(N−P) = 0`, where every `d` is 0 and no screen skips).
struct Floors {
    reach: [[f64; FOLD_LANES]; 2],
    limit: [[f64; FOLD_LANES]; 2],
}

impl Floors {
    /// Sets lane `l` from its slots `tau`, margin and `P(N−P)`.
    fn set(&mut self, l: usize, directions: &[Direction], tau: &[f64], margin: f64, pq: f64) {
        for (s, low) in [false, true].into_iter().enumerate() {
            let floor = directions
                .iter()
                .zip(tau)
                .filter(|(&direction, _)| feeds(direction, low))
                .fold(f64::INFINITY, |floor, (_, &t)| floor.min(t));
            self.reach[s][l] = floor - margin;
            self.limit[s][l] = (floor - margin) * pq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Folds, past the `f64`-exact cutoff (so the lanes take `d` in
    /// integers), one region of half the world under 9 worlds (a full
    /// lane group and a tail of one), each with `P = n` and `p = n/2`
    /// except world `w`, which has `p_world` and `p_r`.
    fn fold_integer_lanes_with_one_bad_world(w: usize, p_world: u64, p_r: u64) {
        let big_n = F64_EXACT_MAX_N + 1;
        let n = big_n / 2;
        let mut p_worlds = vec![n; 9];
        let mut counts = vec![n / 2; 9];
        p_worlds[w] = p_world;
        counts[w] = p_r;
        let mut out = vec![0.0; 9];
        fold_matrix(
            Statistic::BernoulliLlr,
            big_n,
            &[n],
            &p_worlds,
            &counts,
            &[Direction::TwoSided],
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "positives inside (47453134) exceed observations inside (47453133)")]
    fn integer_lanes_reject_more_positives_than_the_region_holds() {
        fold_integer_lanes_with_one_bad_world(3, 47_453_134, 47_453_134);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed observations outside")]
    fn integer_lanes_reject_more_outside_positives_than_outside_points() {
        fold_integer_lanes_with_one_bad_world(8, F64_EXACT_MAX_N, 0);
    }

    /// A lane count: valid for `(n, N, P)` or not — past `n` or `P`,
    /// short of `P − (N − n)`, at or past 2^31 where `screen_f64`
    /// stops converting, or past 2^53 where `f64` stops counting.
    fn lane_count(pick: u64, n_r: u64, big_n: u64, big_p: u64) -> u64 {
        let lo = big_p.saturating_sub(big_n - n_r);
        let hi = n_r.min(big_p);
        let near = (u128::from(n_r) * u128::from(big_p) / u128::from(big_n)) as u64;
        match pick % 32 {
            0 => hi + 1,
            1 => lo.saturating_sub(1),
            2 => (1 << 31) + pick % 3,
            3 => (1 << 53) + 1,
            4 => u64::MAX - pick % 2,
            _ => edge_pick(pick / 32, lo, hi, near),
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The SSE2 lanes flag the same rows as the integer lanes, and
        /// pass the same lanes of every valid row, wherever they run
        /// (`N ≤ F64_EXACT_MAX_N`), floors finite, infinite or not yet
        /// above the margin.
        #[test]
        fn f64_lanes_screen_like_integer_lanes(
            big_n in prop_oneof![1u64..=64, 65u64..=F64_EXACT_MAX_N, Just(F64_EXACT_MAX_N)],
            n_pick in any::<u64>(),
            p_picks in prop::collection::vec(any::<u64>(), 8),
            picks in prop::collection::vec(any::<u64>(), 8),
            limits in prop::collection::vec(prop_oneof![
                Just(f64::INFINITY),
                Just(-1e-9),
                0.0f64..1e6,
            ], 16),
        ) {
            let n_r = n_pick % (big_n + 1);
            let mut big_p = [0u64; FOLD_LANES];
            let mut row = [0u64; FOLD_LANES];
            let mut limit = [[0.0; FOLD_LANES]; 2];
            for l in 0..FOLD_LANES {
                big_p[l] = p_picks[l] % (big_n + 1);
                row[l] = if n_r == 0 { 0 } else { lane_count(picks[l], n_r, big_n, big_p[l]) };
                let pq = product(big_p[l], big_n - big_p[l]);
                limit[0][l] = limits[l] * pq;
                limit[1][l] = limits[FOLD_LANES + l] * pq;
            }
            let pp = big_p.map(|p| p as f64);
            // SAFETY: SSE2 is part of the x86_64 baseline.
            let f64_lanes = unsafe { screen_f64(&row, n_r, big_n, &pp, &limit) };
            let integer_lanes = screen_integers(&row, n_r, big_n, &big_p, &limit);
            // A row flagged invalid panics in the fold, whatever its
            // mask says.
            let valid = !integer_lanes.0;
            prop_assert_eq!(
                (f64_lanes.0, valid.then_some(f64_lanes.1)),
                (integer_lanes.0, valid.then_some(integer_lanes.1)),
                "n={} N={} P={:?} counts={:?}",
                n_r,
                big_n,
                big_p,
                row
            );
        }
    }

    /// A world size: small, at the `f64`-exact cutoff or one either
    /// side of it, or large enough that the fold takes `d` in integers.
    fn edge_world() -> impl Strategy<Value = u64> {
        prop_oneof![
            2u64..=64,
            65u64..=1_000_000,
            (F64_EXACT_MAX_N - 1)..=(F64_EXACT_MAX_N + 1),
            (1u64 << 31)..=(1u64 << 40),
        ]
    }

    /// Picks from `lo..=hi` by `pick`: the ends, next to `near`, or
    /// anywhere between.
    fn edge_pick(pick: u64, lo: u64, hi: u64, near: u64) -> u64 {
        match pick % 6 {
            0 => lo,
            1 => hi,
            2 => near.saturating_sub(1).clamp(lo, hi),
            3 => near.clamp(lo, hi),
            4 => near.saturating_add(1).clamp(lo, hi),
            _ => lo + pick / 6 % (hi - lo + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The second bound, as the fold computes and applies it, never
        /// skips a region whose computed LLR reaches the floor: over
        /// regions of one observation and of all but one, `P ∈ {1,
        /// N−1}`, and `p` at its feasible bounds and next to the world
        /// rate, `bound·(1 + slack) + margin` is at least the computed
        /// `llr_given_null`, and a floor equal to that LLR is not
        /// skipped.
        #[test]
        fn second_bound_covers_the_computed_llr(
            big_n in edge_world(),
            n_pick in any::<u64>(),
            p_world_pick in any::<u64>(),
            p_pick in any::<u64>(),
        ) {
            let n_r = match n_pick % 3 {
                0 => 1,
                1 => big_n - 1,
                _ => 1 + n_pick / 3 % (big_n - 1),
            };
            let big_p = match p_world_pick % 3 {
                0 => 1,
                1 => big_n - 1,
                _ => 1 + p_world_pick / 3 % (big_n - 1),
            };
            let lo = big_p.saturating_sub(big_n - n_r);
            let hi = n_r.min(big_p);
            let near = (u128::from(n_r) * u128::from(big_p) / u128::from(big_n)) as u64;
            let p_r = edge_pick(p_pick, lo, hi, near);

            // The fold's inputs, rounded the way the fold rounds them.
            let (nn, pp) = (big_n as f64, big_p as f64);
            let (n, n_out) = (n_r as f64, (big_n - n_r) as f64);
            let (low, dev) = deviation(n_r, p_r, big_n, big_p);
            let d = if low { -dev } else { dev };
            let p_out_r = big_p - p_r;
            let bound = second_bound(
                d,
                n,
                n_out,
                nn * nn,
                product(big_p, big_n - big_p),
                product(p_r, n_r - p_r),
                product(p_out_r, big_n - n_r - p_out_r),
            );
            let l0 = null_log_likelihood(big_n, big_p);
            let margin = llr_rounding_margin(l0, nn);
            let p = p_r as f64;
            let llr = llr_given_null(n, p, nn - n, pp - p, l0);

            let (num, den) = bound;
            if den > 0.0 {
                prop_assert!(
                    num / den * (1.0 + BOUND_SLACK) + margin >= llr,
                    "bound {} + margin {} < llr {}; n={} p={} N={} P={}",
                    num / den, margin, llr, n_r, p_r, big_n, big_p
                );
            }
            prop_assert!(
                !second_bound_skips(bound, llr - margin),
                "skips a region at its own LLR {}; n={} p={} N={} P={}",
                llr, n_r, p_r, big_n, big_p
            );
        }
    }
}
