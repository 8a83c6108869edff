//! # spatial-fairness
//!
//! A production-quality Rust implementation of **“Auditing for Spatial
//! Fairness”** (Sacharidis, Giannopoulos, Papastefanatos, Stefanidis —
//! EDBT 2023).
//!
//! This facade crate re-exports every workspace crate under one roof so
//! downstream users can depend on a single package:
//!
//! * [`geo`] — geometry (points, rectangles, circles, grids,
//!   partitionings).
//! * [`stats`] — scan-statistic kernels (Bernoulli LLR), Monte Carlo
//!   significance machinery, descriptive statistics.
//! * [`index`] — spatial range-count indexes (kd-tree, quadtree, grid,
//!   summed-area table, membership lists).
//! * [`cluster`] — k-means (scan-region center selection).
//! * [`ml`] — decision trees and random forests (the Crime experiment's
//!   classifier substrate).
//! * [`scan`] — **the paper's contribution**: the spatial-fairness
//!   auditor, region enumeration, evidence identification, and the
//!   `MeanVar` baseline — plus the prepare/plan/execute serving layer
//!   ([`scan::prepared`]).
//! * [`serve`] — the audit serving surface: a multi-dataset
//!   [`serve::AuditService`] with ticketed submission, deterministic
//!   drain policies, a cross-batch world cache, and JSONL wire
//!   envelopes.
//! * [`data`] — dataset generators calibrated to the paper's evaluation
//!   (Synth, SemiSynth, synthetic LAR and Crime clones).
//!
//! ## Quickstart
//!
//! ```rust
//! use spatial_fairness::prelude::*;
//!
//! // The unfair-by-design dataset of the paper's Figure 1(b): uniform
//! // locations, left half has twice the positives of the right half.
//! let outcomes = sfdata::synth::SynthConfig::small().generate(42);
//!
//! // Scan the partitions of a regular grid. (The small demo dataset
//! // has 1,000 points; coarse cells keep per-region evidence strong.)
//! let regions = RegionSet::regular_grid(outcomes.bounding_box(), 2, 2);
//!
//! // Audit at the paper's significance level with a small Monte Carlo
//! // budget (use 999 worlds for real audits).
//! let config = AuditConfig::new(0.05).with_worlds(99).with_seed(7);
//! let report = Auditor::new(config).audit(&outcomes, &regions).unwrap();
//!
//! assert!(report.is_unfair(), "Synth is unfair by design");
//! println!("{report}");
//! ```

pub use sfcluster as cluster;
pub use sfdata as data;
pub use sfgeo as geo;
pub use sfindex as index;
pub use sfml as ml;
pub use sfscan as scan;
pub use sfserve as serve;
pub use sfstats as stats;

/// Convenience re-exports of the most frequently used types.
pub mod prelude {
    pub use sfdata;
    pub use sfgeo::{BoundingBox, Circle, Partitioning, Point, Rect, Region, UniformGrid};
    pub use sfscan::{
        audit::Auditor,
        config::{AuditConfig, Statistic},
        direction::Direction,
        meanvar::MeanVar,
        outcomes::SpatialOutcomes,
        prepared::{AuditRequest, PreparedAudit},
        regions::RegionSet,
        report::AuditReport,
    };
    pub use sfserve::{
        AuditResponse, AuditService, DatasetHandle, DrainPolicy, ServerStats, Status, SubmitError,
        Ticket,
    };
    pub use sfstats::llr::bernoulli_llr;
}
