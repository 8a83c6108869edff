//! # sfscan — auditing algorithmic outcomes for spatial fairness
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Auditing for Spatial Fairness*, EDBT 2023): a statistically
//! principled framework that answers two questions about the outcomes
//! of an algorithm whose protected attribute is **location**:
//!
//! 1. **"Is it fair?"** — Spatial fairness is defined as statistical
//!    independence of outcomes from location: for every region, the
//!    outcome distribution inside must match the outside. The audit
//!    compares the null hypothesis (one global Bernoulli rate) against
//!    the alternative (a region with a different rate) with a
//!    likelihood-ratio test whose significance is calibrated by Monte
//!    Carlo simulation.
//! 2. **"Where is it unfair?"** — If fairness is rejected, the regions
//!    whose log-likelihood ratio exceeds the Monte-Carlo critical
//!    value are returned as evidence, ranked by their spatial
//!    unfairness likelihood (SUL), with a non-overlapping selection
//!    pass for presentation.
//!
//! The crate also implements the **`MeanVar` baseline** (Xie et al.,
//! AAAI 2022) that the paper compares against, so the paper's
//! experiments can be reproduced end to end.
//!
//! ## Module map
//!
//! * [`outcomes`] — the audited data: locations plus binary outcomes,
//!   with the fairness views of §3 (statistical parity, equal
//!   opportunity, equal odds, mean residual) named by the
//!   [`config::Statistic`] they are audited under.
//! * [`regions`] — candidate region enumeration: grid partitions,
//!   random rectangular partitionings, §4.3 square scans around
//!   k-means centers, circles.
//! * [`engine`] — region counting over the kd-tree (or any
//!   [`sfindex::CountingSubstrate`], such as the brute-force oracle
//!   tests plug in) and the fast membership-based Monte Carlo world
//!   evaluation: the rings of nested regions, and masked popcounts over
//!   the Morton-blocked ring masks, which every engine built from
//!   membership lists sweeps. [`config::CountingStrategy::Auto`]
//!   resolves Membership vs
//!   Requery counting from the measured membership density `Σ n(R)` vs
//!   `M·N`.
//! * [`audit`] — the [`audit::Auditor`] driver tying it together.
//!   With [`config::McStrategy::EarlyStop`], the Monte Carlo
//!   calibration evaluates worlds in batches and stops at the first
//!   batch where the verdict at `α` is decided (Besag–Clifford-style
//!   sequential stopping); the verdict always matches the full-budget
//!   run, and [`report::AuditReport::worlds_evaluated`] records the
//!   spend.
//! * [`identify`] — evidence selection: top-k and the §4.3
//!   non-overlapping greedy pass.
//! * [`meanvar`] — the baseline and its per-partition contribution
//!   ranking.
//! * [`report`] — the [`report::AuditReport`] result type (serialisable).
//! * [`config`] — [`config::AuditConfig`] knobs: significance level,
//!   Monte Carlo budget, seed, direction, null model, counting
//!   strategy.
//! * [`suite`] — one-call three-direction audits with confidence
//!   intervals on every finding (extension).
//! * [`rates`] — Poisson-model audits of area-level count surfaces
//!   (the paper's crime-forecasting motivation; extension).

pub mod audit;
pub mod config;
pub mod direction;
pub mod engine;
pub mod error;
pub mod identify;
pub mod meanvar;
pub mod outcomes;
pub mod prepared;
pub mod rates;
pub mod regions;
pub mod report;
pub mod suite;
pub mod worldcache;

pub use audit::Auditor;
pub use config::{
    AuditConfig, CountingKernel, CountingStrategy, McStrategy, NullModel, ParseShardsError,
    ParseStatisticError, ParseStrategyError, Shards, Statistic, TauKernel, WorldGen,
};
pub use direction::Direction;
pub use error::ScanError;
pub use meanvar::{MeanVar, MeanVarResult, PartitionContribution};
pub use outcomes::SpatialOutcomes;
pub use prepared::{
    AuditRequest, BatchStats, ExecutionPlan, PlanGroup, PreparedAudit, WorldClass, WorldEvaluator,
};
pub use rates::{audit_rates, audit_rates_batch, CellCounts, RateReport};
pub use regions::RegionSet;
pub use report::{AuditReport, RegionFinding, Verdict};
pub use suite::{run_suite, SuiteReport};
pub use worldcache::{CacheStats, TauRows, WorldCache};
