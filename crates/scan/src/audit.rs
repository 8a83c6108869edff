//! The audit driver.
//!
//! [`Auditor::audit`] executes the full §3 pipeline:
//!
//! 1. scan the real world: per-region `(n, p)` counts and LLRs, and
//!    the test statistic `τ = max_R LLR(R)`;
//! 2. calibrate `τ` with a Monte Carlo simulation over alternate
//!    worlds drawn from the null model;
//! 3. derive the p-value (`k/w`) and the per-region critical value;
//! 4. assemble the evidence: all individually significant regions
//!    ranked by their likelihood ratio (SUL ranking).
//!
//! Since the serving-layer refactor this type is a thin client of the
//! prepare/plan/execute path in [`crate::prepared`]: one audit is a
//! [`PreparedAudit`] serving a single-request batch. Callers running
//! many audits over one dataset should hold the [`PreparedAudit`]
//! (or an `sfserve::AuditService` session) instead of looping over
//! [`Auditor::audit`], which rebuilds the engine every call.

use crate::config::AuditConfig;
use crate::error::ScanError;
use crate::outcomes::SpatialOutcomes;
use crate::prepared::{AuditRequest, PreparedAudit};
use crate::regions::RegionSet;
use crate::report::AuditReport;

/// Executes spatial-fairness audits.
#[derive(Debug, Clone, Copy)]
pub struct Auditor {
    config: AuditConfig,
}

impl Auditor {
    /// Creates an auditor with the given configuration.
    pub fn new(config: AuditConfig) -> Self {
        Auditor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Runs the audit of `outcomes` over the candidate `regions`.
    ///
    /// # Errors
    /// * [`ScanError::EmptyRegionSet`] — no regions to scan.
    /// * [`ScanError::DegenerateOutcomes`] — all labels equal; the
    ///   scan statistic is vacuous.
    pub fn audit(
        &self,
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
    ) -> Result<AuditReport, ScanError> {
        let prepared = PreparedAudit::prepare(outcomes, regions, self.config)?;
        Ok(prepared.run(&AuditRequest::from_config(&self.config)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CountingStrategy, NullModel};
    use crate::direction::Direction;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Point, Rect};

    /// Unfair by design: uniform locations, left half rate 0.9, right
    /// half rate 0.1.
    fn unfair_outcomes(n: usize, seed: u64) -> SpatialOutcomes {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let y: f64 = rng.gen_range(0.0..10.0);
            let rate = if x < 5.0 { 0.9 } else { 0.1 };
            points.push(Point::new(x, y));
            labels.push(rng.gen_bool(rate));
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    /// Fair by design: same locations, every label Bernoulli(0.5).
    fn fair_outcomes(n: usize, seed: u64) -> SpatialOutcomes {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(Point::new(
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ));
            labels.push(rng.gen_bool(0.5));
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    fn grid() -> RegionSet {
        RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
    }

    fn config() -> AuditConfig {
        AuditConfig::new(0.05).with_worlds(199).with_seed(7)
    }

    #[test]
    fn unfair_data_is_declared_unfair() {
        let report = Auditor::new(config())
            .audit(&unfair_outcomes(2000, 1), &grid())
            .unwrap();
        assert!(report.is_unfair(), "p={}", report.p_value);
        assert_eq!(report.p_value, 1.0 / 200.0);
        assert!(!report.findings.is_empty());
        // Every finding is individually significant.
        for f in &report.findings {
            assert!(f.llr > report.critical_value);
        }
        // Findings are sorted by LLR descending.
        for w in report.findings.windows(2) {
            assert!(w[0].llr >= w[1].llr);
        }
        // The best region is the top finding.
        assert_eq!(report.findings[0].index, report.best_region_index);
    }

    #[test]
    fn fair_data_is_declared_fair() {
        let report = Auditor::new(config())
            .audit(&fair_outcomes(2000, 2), &grid())
            .unwrap();
        assert!(report.is_fair(), "p={}", report.p_value);
        assert!(
            report.findings.is_empty(),
            "no region should be significant"
        );
    }

    #[test]
    fn audit_is_deterministic() {
        let o = unfair_outcomes(500, 3);
        let a = Auditor::new(config()).audit(&o, &grid()).unwrap();
        let b = Auditor::new(config()).audit(&o, &grid()).unwrap();
        assert_eq!(a, b);
        let mut seq = Auditor::new(config().sequential())
            .audit(&o, &grid())
            .unwrap();
        // The report embeds its config; align the parallelism flag so
        // the comparison checks the *results* are bit-identical.
        seq.config.parallel = true;
        assert_eq!(a, seq, "parallel and sequential audits must agree exactly");
    }

    #[test]
    fn strategies_agree() {
        let o = unfair_outcomes(500, 4);
        let mem = Auditor::new(config().with_strategy(CountingStrategy::Membership))
            .audit(&o, &grid())
            .unwrap();
        let req = Auditor::new(config().with_strategy(CountingStrategy::Requery))
            .audit(&o, &grid())
            .unwrap();
        assert_eq!(mem.tau, req.tau);
        assert_eq!(mem.p_value, req.p_value);
        assert_eq!(mem.findings, req.findings);
    }

    #[test]
    fn permutation_null_also_works() {
        let o = unfair_outcomes(1000, 5);
        let report = Auditor::new(config().with_null_model(NullModel::Permutation))
            .audit(&o, &grid())
            .unwrap();
        assert!(report.is_unfair());
        let fair = Auditor::new(config().with_null_model(NullModel::Permutation))
            .audit(&fair_outcomes(1000, 6), &grid())
            .unwrap();
        assert!(fair.is_fair(), "p={}", fair.p_value);
    }

    #[test]
    fn directed_audits_find_the_right_half() {
        let o = unfair_outcomes(2000, 7);
        let high = Auditor::new(config().with_direction(Direction::High))
            .audit(&o, &grid())
            .unwrap();
        assert!(high.is_unfair());
        // All "green" findings are in the left (high-rate) half.
        for f in &high.findings {
            assert!(f.region.center().x < 5.0, "green finding at {}", f.region);
            assert!(f.rate > o.rate());
        }
        let low = Auditor::new(config().with_direction(Direction::Low))
            .audit(&o, &grid())
            .unwrap();
        assert!(low.is_unfair());
        for f in &low.findings {
            assert!(f.region.center().x > 5.0, "red finding at {}", f.region);
            assert!(f.rate < o.rate());
        }
    }

    #[test]
    fn backends_produce_bit_identical_reports() {
        use sfindex::IndexBackend;
        let o = unfair_outcomes(1500, 21);
        let reference = Auditor::new(config()).audit(&o, &grid()).unwrap();
        for backend in IndexBackend::ALL {
            let mut report = Auditor::new(config().with_backend(backend))
                .audit(&o, &grid())
                .unwrap();
            // The report embeds its config; align the backend knob so
            // the comparison checks the *results* are bit-identical.
            report.config.backend = reference.config.backend;
            assert_eq!(report, reference, "backend {backend} diverged");
        }
    }

    #[test]
    fn auto_strategy_matches_explicit_membership() {
        let o = unfair_outcomes(800, 22);
        let mem = Auditor::new(config().with_strategy(CountingStrategy::Membership))
            .audit(&o, &grid())
            .unwrap();
        let mut auto = Auditor::new(config().with_strategy(CountingStrategy::Auto))
            .audit(&o, &grid())
            .unwrap();
        auto.config.strategy = mem.config.strategy;
        assert_eq!(auto, mem);
    }

    #[test]
    fn early_stop_agrees_and_saves_worlds() {
        use sfstats::montecarlo::McStrategy;
        // Clearly unfair: certainty stop fires before the budget.
        let o = unfair_outcomes(2000, 23);
        let full = Auditor::new(config()).audit(&o, &grid()).unwrap();
        let stopped =
            Auditor::new(config().with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }))
                .audit(&o, &grid())
                .unwrap();
        assert!(full.is_unfair());
        assert_eq!(stopped.is_unfair(), full.is_unfair());
        assert_eq!(full.worlds_evaluated, 199);
        assert!(
            stopped.worlds_evaluated < full.worlds_evaluated,
            "certainty stop should save worlds ({} vs {})",
            stopped.worlds_evaluated,
            full.worlds_evaluated
        );
        // Evaluated worlds are a prefix of the full run (bit-identical
        // per-world values regardless of stopping).
        assert_eq!(
            full.simulated[..stopped.worlds_evaluated],
            stopped.simulated[..]
        );

        // Clearly fair: futility stop fires much earlier.
        let o = fair_outcomes(2000, 24);
        let full = Auditor::new(config()).audit(&o, &grid()).unwrap();
        let stopped =
            Auditor::new(config().with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }))
                .audit(&o, &grid())
                .unwrap();
        assert!(full.is_fair());
        assert_eq!(stopped.is_fair(), full.is_fair());
        assert!(
            stopped.worlds_evaluated <= 64,
            "futility stop should fire fast, used {}",
            stopped.worlds_evaluated
        );
    }

    #[test]
    fn degenerate_outcomes_error() {
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let o = SpatialOutcomes::new(points, vec![true, true]).unwrap();
        let err = Auditor::new(config()).audit(&o, &grid()).unwrap_err();
        assert!(matches!(err, ScanError::DegenerateOutcomes { .. }));
    }

    #[test]
    fn empty_region_set_error() {
        let o = fair_outcomes(100, 8);
        let rs = RegionSet::from_regions(vec![]);
        let err = Auditor::new(config()).audit(&o, &rs).unwrap_err();
        assert_eq!(err, ScanError::EmptyRegionSet);
    }

    #[test]
    fn type_one_error_rate_is_controlled() {
        // Audit many fair datasets at alpha = 0.1 and check the
        // rejection rate is near alpha (the statistical soundness of
        // the whole pipeline).
        let cfg = AuditConfig::new(0.1).with_worlds(59).with_seed(100);
        let trials = 60;
        let mut rejections = 0;
        for t in 0..trials {
            let o = fair_outcomes(300, 1000 + t);
            let small_grid = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 3, 3);
            let report = Auditor::new(cfg.with_seed(t))
                .audit(&o, &small_grid)
                .unwrap();
            if report.is_unfair() {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / trials as f64;
        assert!(
            rate < 0.25,
            "type-I error rate {rate} should be near alpha=0.1"
        );
    }

    #[test]
    fn power_grows_with_sample_size() {
        // With a weak signal, more data should give a smaller p-value.
        let weak = |n: usize, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut points = Vec::with_capacity(n);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                let x: f64 = rng.gen_range(0.0..10.0);
                let y: f64 = rng.gen_range(0.0..10.0);
                let rate = if x < 5.0 { 0.55 } else { 0.45 };
                points.push(Point::new(x, y));
                labels.push(rng.gen_bool(rate));
            }
            SpatialOutcomes::new(points, labels).unwrap()
        };
        let cfg = AuditConfig::new(0.05).with_worlds(199).with_seed(11);
        let small = Auditor::new(cfg).audit(&weak(200, 12), &grid()).unwrap();
        let large = Auditor::new(cfg).audit(&weak(20_000, 12), &grid()).unwrap();
        assert!(
            large.p_value <= small.p_value,
            "large-n p {} vs small-n p {}",
            large.p_value,
            small.p_value
        );
        assert!(
            large.is_unfair(),
            "20k observations of a 10-point gap is detectable"
        );
    }
}
