//! Rate audits over area-level counts (Poisson model; extension).
//!
//! The paper's crime-forecasting motivation (§1): "we require the
//! predicted crime rate to not differ greatly than the observed crime
//! rate in all areas". When only *area-level counts* are available —
//! observed events `c_i` and exposure/expected events `e_i` per cell —
//! the Bernoulli machinery does not apply; the natural instrument is
//! Kulldorff's **Poisson scan statistic** (cited by the paper in
//! §2.3, implemented in [`sfstats::poisson`]).
//!
//! This module provides the audit loop for that setting: candidate
//! regions are unions of cells, the statistic is the Poisson LLR, and
//! significance is calibrated by conditioning on the total event count
//! and redistributing events multinomially by exposure (an exact
//! sample from the null, drawn in O(C + K) per world via the alias
//! method).

use crate::config::AuditConfig;
use crate::direction::Direction;
use crate::error::ScanError;
use crate::prepared::{distinct_directions, run_world_group, AuditRequest};
use crate::worldcache::TauRows;
use serde::{Deserialize, Serialize};
use sfgeo::Rect;
use sfstats::alias::AliasTable;
use sfstats::poisson::{poisson_llr_directed, PoissonCounts};
use sfstats::rng::world_rng;

/// Area-level count data: one entry per cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCounts {
    /// Cell geometries (for reporting; the audit itself is topology-free).
    pub cells: Vec<Rect>,
    /// Observed event count per cell (`c_i`).
    pub observed: Vec<u64>,
    /// Exposure / expected share per cell (`e_i`, any positive scale).
    pub exposure: Vec<f64>,
}

impl CellCounts {
    /// Validates and wraps the inputs.
    pub fn new(
        cells: Vec<Rect>,
        observed: Vec<u64>,
        exposure: Vec<f64>,
    ) -> Result<Self, ScanError> {
        if cells.is_empty() {
            return Err(ScanError::EmptyOutcomes);
        }
        if cells.len() != observed.len() || cells.len() != exposure.len() {
            return Err(ScanError::LengthMismatch {
                points: cells.len(),
                labels: observed.len().min(exposure.len()),
            });
        }
        if exposure.iter().any(|e| !e.is_finite() || *e < 0.0) {
            return Err(ScanError::NonFiniteLocation { index: 0 });
        }
        Ok(CellCounts {
            cells,
            observed,
            exposure,
        })
    }

    /// Total observed events.
    pub fn total_observed(&self) -> u64 {
        self.observed.iter().sum()
    }

    /// Total exposure.
    pub fn total_exposure(&self) -> f64 {
        self.exposure.iter().sum()
    }
}

/// A flagged cell group in a rate audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateFinding {
    /// Index of the cell (regions are single cells in this auditor).
    pub cell: usize,
    /// Cell geometry.
    pub rect: Rect,
    /// Observed events.
    pub observed: u64,
    /// Expected events under the global rate.
    pub expected: f64,
    /// Relative risk `observed / expected`.
    pub relative_risk: f64,
    /// Poisson LLR.
    pub llr: f64,
}

/// Result of a rate audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateReport {
    /// Test statistic (max Poisson LLR over cells).
    pub tau: f64,
    /// Monte Carlo p-value.
    pub p_value: f64,
    /// Per-cell critical value at the configured `alpha`.
    pub critical_value: f64,
    /// Significance level used.
    pub alpha: f64,
    /// Monte Carlo worlds actually evaluated (fewer than the budget
    /// when early stopping decided the verdict sooner).
    pub worlds_evaluated: usize,
    /// Significant cells, ranked by LLR descending.
    pub findings: Vec<RateFinding>,
}

impl RateReport {
    /// `true` iff the rate surface is declared spatially unfair.
    pub fn is_unfair(&self) -> bool {
        self.p_value <= self.alpha
    }
}

/// Audits an area-level rate surface for spatial homogeneity.
///
/// Uses `config.alpha`, `config.worlds`, `config.seed`,
/// `config.direction` and `config.mc_strategy`; the Bernoulli-specific
/// fields (null model, counting strategy, shards, statistic) do not
/// apply here.
///
/// A thin client of the batched path: equivalent to
/// [`audit_rates_batch`] with the one request the config denotes.
pub fn audit_rates(config: &AuditConfig, data: &CellCounts) -> Result<RateReport, ScanError> {
    let mut reports = audit_rates_batch(data, &[AuditRequest::from_config(config)])?;
    Ok(reports.pop().expect("one request yields one report"))
}

/// Batched rate audits over one shared null-world stream.
///
/// The Poisson null conditions on the total event count and
/// redistributes events multinomially by exposure — a sampled world
/// depends only on `(seed, world index)`, so requests sharing a seed
/// share every sampled world: each world's counts are drawn **once**
/// and scored per distinct request direction (`null_model` does not
/// apply to rate audits and is ignored). Per-request early stopping is
/// replayed on [`WorldLane`](sfstats::montecarlo::WorldLane)s over the
/// shared stream, with
/// [`BudgetScheduler`](sfstats::montecarlo::BudgetScheduler) spans
/// reallocating worlds freed by futility
/// stops to still-contested requests — the same machinery the
/// Bernoulli serving layer uses, so every report is bit-identical to
/// running its request alone.
///
/// Reports come back in request order.
///
/// # Errors
/// [`ScanError::DegenerateOutcomes`] when the surface has no events,
/// [`ScanError::InvalidRequest`] when a request carries invalid knobs.
pub fn audit_rates_batch(
    data: &CellCounts,
    requests: &[AuditRequest],
) -> Result<Vec<RateReport>, ScanError> {
    let c_total = data.total_observed();
    let mu_total = data.total_exposure();
    if c_total == 0 || mu_total <= 0.0 {
        return Err(ScanError::DegenerateOutcomes {
            n: data.cells.len() as u64,
            p: c_total,
        });
    }
    for request in requests {
        request.validate()?;
    }
    let eval_into = |observed: &[u64], directions: &[Direction], out: &mut [f64]| {
        out.fill(0.0);
        for (i, &c) in observed.iter().enumerate() {
            let counts = PoissonCounts::new(c as f64, data.exposure[i], c_total as f64, mu_total);
            for (tau, &direction) in out.iter_mut().zip(directions) {
                let llr = poisson_llr_directed(&counts, direction);
                if llr > *tau {
                    *tau = llr;
                }
            }
        }
    };

    // Plan: group requests by seed (the rate-audit world class), then
    // run each group's shared stream on the serving layer's common
    // lane/scheduler loop.
    let mut reports: Vec<Option<RateReport>> = Vec::new();
    reports.resize_with(requests.len(), || None);
    let mut seeds_seen: Vec<u64> = Vec::new();
    for request in requests {
        if !seeds_seen.contains(&request.seed) {
            seeds_seen.push(request.seed);
        }
    }
    let alias = AliasTable::new(&data.exposure);
    for seed in seeds_seen {
        let members: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].seed == seed)
            .collect();
        let (directions, lane_dirs) = distinct_directions(requests, &members);
        let mut observed_taus = vec![0.0; directions.len()];
        eval_into(&data.observed, &directions, &mut observed_taus);
        // Rate worlds have no finer parallel axis (one alias-table
        // sample per world) and no fused counting path — the fine
        // flag is moot and a batch just walks its worlds one by one
        // (per-world RNG streams keep the stream identical to the
        // per-world loop).
        let eval_batch = |first: usize, out: &mut [f64], _fine: bool| {
            for (k, out) in out.chunks_mut(directions.len()).enumerate() {
                let mut rng = world_rng(seed, (first + k) as u64);
                let world = alias.sample_counts(c_total, &mut rng);
                eval_into(&world, &directions, out);
            }
        };
        let run = run_world_group(
            requests,
            &members,
            &lane_dirs,
            &observed_taus,
            &TauRows::new(directions.len()),
            false,
            eval_batch,
        );

        for ((result, &ri), &di) in run.results.into_iter().zip(&members).zip(&lane_dirs) {
            let request = &requests[ri];
            let p_value = result.p_value();
            let critical_value = result.critical_value(request.alpha);
            let direction = directions[di];
            let mut findings: Vec<RateFinding> = data
                .observed
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| {
                    let counts =
                        PoissonCounts::new(c as f64, data.exposure[i], c_total as f64, mu_total);
                    let llr = poisson_llr_directed(&counts, direction);
                    if llr > critical_value {
                        let expected = counts.mu_in_calibrated();
                        Some(RateFinding {
                            cell: i,
                            rect: data.cells[i],
                            observed: c,
                            expected,
                            relative_risk: c as f64 / expected,
                            llr,
                        })
                    } else {
                        None
                    }
                })
                .collect();
            findings.sort_by(|a, b| b.llr.partial_cmp(&a.llr).expect("finite LLRs"));
            reports[ri] = Some(RateReport {
                tau: observed_taus[di],
                p_value,
                critical_value,
                alpha: request.alpha,
                worlds_evaluated: result.worlds_evaluated,
                findings,
            });
        }
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("every request belongs to exactly one seed group"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Direction;
    use rand::Rng;
    use sfstats::rng::seeded_rng;

    /// A 10x10 city; exposure uniform; events Poisson-ish via binomial
    /// thinning of a big total.
    fn city(hotspot_boost: f64, seed: u64) -> CellCounts {
        let mut rng = seeded_rng(seed);
        let mut cells = Vec::new();
        let mut observed = Vec::new();
        let mut exposure = Vec::new();
        for iy in 0..10 {
            for ix in 0..10 {
                cells.push(Rect::from_coords(
                    ix as f64,
                    iy as f64,
                    (ix + 1) as f64,
                    (iy + 1) as f64,
                ));
                // Base intensity 100 events per cell; the 3x3 block at
                // the north-east corner is boosted.
                let hot = ix >= 7 && iy >= 7;
                let lambda = if hot { 100.0 * hotspot_boost } else { 100.0 };
                // Simple Poisson via sum of Bernoulli thinning.
                let mut c = 0u64;
                for _ in 0..(lambda * 4.0) as usize {
                    if rng.gen_bool(0.25) {
                        c += 1;
                    }
                }
                observed.push(c);
                exposure.push(1.0);
            }
        }
        CellCounts::new(cells, observed, exposure).unwrap()
    }

    fn config() -> AuditConfig {
        AuditConfig::new(0.01).with_worlds(199).with_seed(11)
    }

    #[test]
    fn homogeneous_surface_is_fair() {
        let data = city(1.0, 1);
        let report = audit_rates(&config(), &data).unwrap();
        assert!(!report.is_unfair(), "p={}", report.p_value);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn hotspot_is_detected_and_localised() {
        let data = city(1.6, 2);
        let report = audit_rates(&config(), &data).unwrap();
        assert!(report.is_unfair(), "p={}", report.p_value);
        assert!(!report.findings.is_empty());
        // Every finding lies in the boosted 3x3 corner.
        for f in &report.findings {
            assert!(
                f.rect.min.x >= 7.0 && f.rect.min.y >= 7.0,
                "false positive at {:?}",
                f.rect
            );
            assert!(f.relative_risk > 1.2);
        }
    }

    #[test]
    fn direction_low_finds_cold_spots() {
        // Boost everything EXCEPT the corner -> the corner is cold.
        let mut data = city(1.0, 3);
        for (i, c) in data.observed.iter_mut().enumerate() {
            let (ix, iy) = (i % 10, i / 10);
            if !(ix >= 7 && iy >= 7) {
                *c += 60;
            }
        }
        let cfg = config().with_direction(Direction::Low);
        let report = audit_rates(&cfg, &data).unwrap();
        assert!(report.is_unfair());
        for f in &report.findings {
            assert!(f.rect.min.x >= 7.0 && f.rect.min.y >= 7.0);
            assert!(f.relative_risk < 1.0);
        }
    }

    #[test]
    fn exposure_scaling_does_not_change_the_statistic() {
        let data = city(1.5, 4);
        let mut scaled = data.clone();
        for e in &mut scaled.exposure {
            *e *= 1234.5;
        }
        let a = audit_rates(&config(), &data).unwrap();
        let b = audit_rates(&config(), &scaled).unwrap();
        assert!((a.tau - b.tau).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_exposure_is_respected() {
        // Cell 0 has 10x the exposure and ~10x the events: fair.
        let cells = vec![
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            Rect::from_coords(1.0, 0.0, 2.0, 1.0),
            Rect::from_coords(2.0, 0.0, 3.0, 1.0),
        ];
        let observed = vec![1000, 100, 100];
        let exposure = vec![10.0, 1.0, 1.0];
        let data = CellCounts::new(cells, observed, exposure).unwrap();
        let report = audit_rates(&config(), &data).unwrap();
        assert!(!report.is_unfair(), "p={}", report.p_value);
    }

    #[test]
    fn deterministic() {
        let data = city(1.4, 5);
        let a = audit_rates(&config(), &data).unwrap();
        let b = audit_rates(&config(), &data).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_rate_audits_match_standalone_runs() {
        use sfstats::montecarlo::McStrategy;
        let data = city(1.5, 6);
        let base = config();
        let requests = vec![
            AuditRequest::from_config(&base),
            AuditRequest::from_config(&base).with_direction(Direction::High),
            AuditRequest::from_config(&base).with_direction(Direction::Low),
            AuditRequest::from_config(&base).with_seed(99),
            AuditRequest::from_config(&base)
                .with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
        ];
        let batch = audit_rates_batch(&data, &requests).unwrap();
        assert_eq!(batch.len(), requests.len());
        for (request, report) in requests.iter().zip(&batch) {
            let mut cfg = base;
            cfg.alpha = request.alpha;
            cfg.worlds = request.worlds;
            cfg.seed = request.seed;
            cfg.direction = request.direction;
            cfg.mc_strategy = request.mc_strategy;
            let expected = audit_rates(&cfg, &data).unwrap();
            assert_eq!(*report, expected, "request {request:?}");
        }
    }

    #[test]
    fn validation_errors() {
        assert!(CellCounts::new(vec![], vec![], vec![]).is_err());
        let cells = vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0)];
        assert!(CellCounts::new(cells.clone(), vec![1, 2], vec![1.0]).is_err());
        assert!(CellCounts::new(cells.clone(), vec![1], vec![-1.0]).is_err());
        // All-zero observed counts are degenerate.
        let data = CellCounts::new(cells, vec![0], vec![1.0]).unwrap();
        assert!(audit_rates(&config(), &data).is_err());
    }
}
