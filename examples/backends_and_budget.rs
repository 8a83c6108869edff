//! Runtime counting substrates and adaptive Monte Carlo budgets.
//!
//! ```sh
//! cargo run --release --example backends_and_budget
//! ```
//!
//! Demonstrates the two audit-throughput knobs:
//!
//! 1. **Index backend** (`AuditConfig::with_backend`): the `Q` in the
//!    paper's `O(M·N·Q)` cost — the kd-tree, or the brute-force oracle
//!    it is tested against. Both are exact, so reports are
//!    bit-identical — the choice is purely about speed.
//! 2. **Monte Carlo budget** (`AuditConfig::with_early_stop`): batched
//!    Besag–Clifford-style sequential stopping ends the calibration at
//!    the first batch where the verdict at `α` is decided. Verdicts
//!    always match the full-budget run; `worlds_evaluated` records the
//!    saving.

use spatial_fairness::prelude::*;
use spatial_fairness::scan::{CountingStrategy, IndexBackend};

fn main() {
    // Unfair-by-design data (paper Fig. 1b) over a modest grid.
    let outcomes = sfdata::synth::SynthConfig::paper().generate(42);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 8);
    let base = AuditConfig::new(0.005).with_worlds(999).with_seed(7);

    // --- 1. Same audit, every backend: identical reports. -------------
    println!("backend sweep (identical answers, different cost):");
    let reference = Auditor::new(base).audit(&outcomes, &regions).unwrap();
    for backend in IndexBackend::ALL {
        let t = std::time::Instant::now();
        let report = Auditor::new(base.with_backend(backend))
            .audit(&outcomes, &regions)
            .unwrap();
        assert_eq!(report.tau, reference.tau);
        assert_eq!(report.p_value, reference.p_value);
        assert_eq!(report.findings, reference.findings);
        println!(
            "  {backend:<9} verdict {} p={:.4}  ({:.1?})",
            report.verdict(),
            report.p_value,
            t.elapsed()
        );
    }

    // --- 2. Auto counting strategy. ------------------------------------
    // Auto measures the membership density Σ n(R) against its M·N worst
    // case at build time and picks Membership or Requery accordingly.
    let auto = Auditor::new(base.with_strategy(CountingStrategy::Auto))
        .audit(&outcomes, &regions)
        .unwrap();
    assert_eq!(auto.p_value, reference.p_value);
    println!("\nCountingStrategy::Auto: same report, self-tuned counting path");

    // --- 3. Early-stopping Monte Carlo. --------------------------------
    // The saving depends on the regime. On *unfair* data the stop is a
    // certainty stop, which can save at most ⌊α·w⌋ worlds; on *fair*
    // data the stop is a futility stop, which usually fires within a
    // few batches. Use a batch of 16 at α=0.05 to make both visible.
    let demo = AuditConfig::new(0.05)
        .with_worlds(999)
        .with_seed(7)
        .with_mc_strategy(spatial_fairness::stats::montecarlo::McStrategy::EarlyStop {
            batch_size: 16,
        });

    let t = std::time::Instant::now();
    let stopped = Auditor::new(demo).audit(&outcomes, &regions).unwrap();
    println!(
        "\nearly stop on unfair data: verdict {} after {} of {} worlds ({:.1?})",
        stopped.verdict(),
        stopped.worlds_evaluated,
        demo.worlds,
        t.elapsed()
    );

    let fair = sfdata::semisynth::SemiSynthConfig::paper().generate_from_lar(
        &sfdata::lar::LarDataset::generate(&sfdata::lar::LarConfig::small()),
        43,
    );
    let fair_regions = RegionSet::regular_grid(fair.expanded_bounding_box(), 16, 8);
    let t = std::time::Instant::now();
    let fair_report = Auditor::new(demo).audit(&fair, &fair_regions).unwrap();
    println!(
        "early stop on fair data:   verdict {} after {} of {} worlds ({:.1?})",
        fair_report.verdict(),
        fair_report.worlds_evaluated,
        demo.worlds,
        t.elapsed()
    );
}
