//! Quickstart: audit a dataset for spatial fairness in ~30 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates the paper's two headline datasets — SemiSynth (fair by
//! design) and Synth (unfair by design) — and audits both. The auditor
//! must clear SemiSynth and reject Synth.

use spatial_fairness::prelude::*;

fn main() {
    // --- 1. Data: (location, binary outcome) pairs. -------------------
    // Synth (paper Fig. 1b): uniform locations; the left half of the
    // space receives twice as many positive outcomes as the right half.
    let synth = sfdata::synth::SynthConfig::paper().generate(42);

    // SemiSynth (paper Fig. 1a): strongly clustered Florida locations,
    // but every outcome is an independent fair coin — fair by design.
    let lar = sfdata::lar::LarDataset::generate(&sfdata::lar::LarConfig::small());
    let semisynth = sfdata::semisynth::SemiSynthConfig::paper().generate_from_lar(&lar, 43);

    // --- 2. Candidate regions: a grid over the data's extent. ---------
    // (Any RegionSet works: grids, random partitionings, square scans.)
    let audit = |name: &str, outcomes: &SpatialOutcomes| {
        let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 8);

        // --- 3. Audit: Monte Carlo-calibrated likelihood-ratio test. --
        // (See examples/backends_and_budget.rs for the counting-strategy
        // and early-stopping Monte Carlo knobs.)
        let config = AuditConfig::new(0.005) // the paper's significance level
            .with_worlds(999) //                999 simulated fair worlds
            .with_seed(7);
        let report = Auditor::new(config)
            .audit(outcomes, &regions)
            .expect("auditable data");

        println!("--- {name} ---");
        println!(
            "verdict: {} (p-value {:.3}, tau {:.1}, critical LLR {:.1})",
            report.verdict(),
            report.p_value,
            report.tau,
            report.critical_value
        );
        for finding in report.top_k(3) {
            println!("  evidence: {finding}");
        }
        println!();
    };

    audit("Synth (unfair by design)", &synth);
    audit("SemiSynth (fair by design)", &semisynth);
}
