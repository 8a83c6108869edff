//! The audit serving layer: **prepare → plan → execute**.
//!
//! A spatial-fairness audit is read-mostly: the expensive artifacts —
//! the spatial index, the region membership lists, the world-invariant
//! `n(R)` totals — depend only on the *dataset and regions*, while each
//! audit request varies only cheap knobs (direction, `α`, seed, Monte
//! Carlo budget, null model). This module splits the one-shot
//! [`Auditor::audit`](crate::audit::Auditor) pipeline into three phases
//! so those artifacts are built once and served many times:
//!
//! 1. **prepare** — [`PreparedAudit::prepare`] builds the immutable
//!    engine (membership rings and masks + totals) from the dataset,
//!    regions, and the expensive [`AuditConfig`] knobs (counting
//!    strategy, shards).
//! 2. **plan** — [`ExecutionPlan::new`] groups a batch of
//!    [`AuditRequest`]s into *world classes* `(null model, seed,
//!    worldgen, statistic)`: requests in one class draw and score
//!    exactly the same simulated worlds, so
//!    each world is generated and recounted **once** and its per-region
//!    positives are replayed against every member request's direction.
//! 3. **execute** — [`PreparedAudit::execute`] walks each group's
//!    shared world stream in spans chosen by
//!    [`sfstats::montecarlo::BudgetScheduler`]:
//!    every span ends at the nearest early-stop checkpoint of any
//!    still-contested request, so worlds freed by futility/certainty
//!    stops are spent only on requests whose verdicts are still open.
//!    Worlds within a span are evaluated in parallel (rayon) with
//!    deterministic per-world RNG streams.
//!
//! **Bit-identity guarantee.** Every per-request
//! [`AuditReport`] — verdict, p-value, critical value, findings, and
//! the `simulated` prefix — is exactly what a standalone
//! [`Auditor::audit`](crate::audit::Auditor) with the equivalent
//! config produces. World values depend only on `(seed, index, null
//! model)`; every world is scored by the same fold
//! ([`ScanEngine::fold_counts`], behind [`ScanEngine::eval`]); and the
//! stopping rule is replayed by the same
//! [`sfstats::montecarlo::WorldLane`] a standalone adaptive
//! run uses. The cross-checks live in the
//! `serve_equivalence` proptests.

use crate::config::{AuditConfig, NullModel, Statistic, WorldGen};
use crate::direction::Direction;
use crate::engine::{RealScan, ScanEngine};
use crate::error::ScanError;
use crate::outcomes::SpatialOutcomes;
use crate::regions::RegionSet;
use crate::report::{AuditReport, RegionFinding};
use crate::worldcache::{ResumePoint, TauRows, WorldCache};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sfindex::{BitLabels, MAX_FUSED_WORLDS};
use sfstats::montecarlo::{BudgetScheduler, McStrategy, MonteCarloResult, WorldLane};
use sfstats::rng::world_rng;
use std::sync::OnceLock;

/// Largest Monte Carlo budget [`AuditRequest::validate`] accepts. A
/// request's simulated worlds are allocated up front, so an unbounded
/// budget read off the wire would abort the process on allocation.
pub const MAX_WORLDS: usize = 1 << 20;

/// One audit request: the cheap per-query knobs of an audit. The
/// expensive knobs (dataset, regions, counting strategy, shards) live
/// in the [`PreparedAudit`] the request runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRequest {
    /// Significance level `α`.
    pub alpha: f64,
    /// Monte Carlo budget (`w − 1` simulated worlds).
    pub worlds: usize,
    /// Base RNG seed. Requests sharing `(null_model, seed, worldgen)`
    /// draw the same worlds and are served from one shared stream.
    pub seed: u64,
    /// Deviation direction the audit is sensitive to.
    pub direction: Direction,
    /// Alternate-world label model.
    pub null_model: NullModel,
    /// Monte Carlo budget strategy.
    pub mc_strategy: McStrategy,
    /// World-generation algorithm version (part of the world-class
    /// identity: [`WorldGen::Scalar`] and [`WorldGen::Word`] consume
    /// the RNG stream differently, so they never share worlds).
    pub worldgen: WorldGen,
    /// Per-region test statistic (part of the world-class identity:
    /// two statistics score the same label worlds differently, so
    /// their τ streams must never share cached rows).
    pub statistic: Statistic,
}

// Manual wire impls instead of the derive: `worldgen` and `statistic`
// were added after the v1 wire format shipped, so request payloads
// without the fields must keep decoding (they mean the v1 Scalar
// generator and the paper's Bernoulli LLR). The derive would
// hard-error on the missing fields. `statistic` is additionally
// *omitted when default*, so a Bernoulli-LLR request serializes
// byte-identically to the pre-statistic wire format.
impl Serialize for AuditRequest {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("alpha", &self.alpha);
        w.field("worlds", &self.worlds);
        w.field("seed", &self.seed);
        w.field("direction", &self.direction);
        w.field("null_model", &self.null_model);
        w.field("mc_strategy", &self.mc_strategy);
        w.field("worldgen", &self.worldgen);
        if self.statistic != Statistic::BernoulliLlr {
            w.field("statistic", &self.statistic);
        }
        w.end_object();
    }
}

impl Deserialize for AuditRequest {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(AuditRequest {
            alpha: serde::get_field(value, "alpha")?,
            worlds: serde::get_field(value, "worlds")?,
            seed: serde::get_field(value, "seed")?,
            direction: serde::get_field(value, "direction")?,
            null_model: serde::get_field(value, "null_model")?,
            mc_strategy: serde::get_field(value, "mc_strategy")?,
            worldgen: match value.get("worldgen") {
                Some(v) => WorldGen::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `worldgen`: {}", e.message)))?,
                // Absent on v1 payloads: the v1 generator.
                None => WorldGen::Scalar,
            },
            statistic: match value.get("statistic") {
                Some(v) => Statistic::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `statistic`: {}", e.message)))?,
                // Absent on pre-statistic payloads: the paper's LLR.
                None => Statistic::BernoulliLlr,
            },
        })
    }
}

impl AuditRequest {
    /// A request at significance level `alpha` with the base config's
    /// defaults: 999 worlds, seed 0, two-sided, Bernoulli null, full
    /// budget, word world generation.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        AuditRequest {
            alpha,
            worlds: 999,
            seed: 0,
            direction: Direction::TwoSided,
            null_model: NullModel::Bernoulli,
            mc_strategy: McStrategy::FullBudget,
            worldgen: WorldGen::Word,
            statistic: Statistic::BernoulliLlr,
        }
    }

    /// The request equivalent to `config`'s per-query knobs.
    pub fn from_config(config: &AuditConfig) -> Self {
        AuditRequest {
            alpha: config.alpha,
            worlds: config.worlds,
            seed: config.seed,
            direction: config.direction,
            null_model: config.null_model,
            mc_strategy: config.mc_strategy,
            worldgen: config.worldgen,
            statistic: config.statistic,
        }
    }

    /// Sets the Monte Carlo budget.
    pub fn with_worlds(mut self, worlds: usize) -> Self {
        assert!(worlds > 0, "need at least one simulated world");
        self.worlds = worlds;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the deviation direction.
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the null model.
    pub fn with_null_model(mut self, null_model: NullModel) -> Self {
        self.null_model = null_model;
        self
    }

    /// Sets the Monte Carlo budget strategy.
    pub fn with_mc_strategy(mut self, mc_strategy: McStrategy) -> Self {
        if let McStrategy::EarlyStop { batch_size } = mc_strategy {
            assert!(batch_size > 0, "batch_size must be positive");
        }
        self.mc_strategy = mc_strategy;
        self
    }

    /// Sets the world-generation algorithm version.
    pub fn with_worldgen(mut self, worldgen: WorldGen) -> Self {
        self.worldgen = worldgen;
        self
    }

    /// Sets the per-region test statistic.
    pub fn with_statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// The full [`AuditConfig`] this request denotes against `base`
    /// (the prepared engine's expensive knobs + this request's cheap
    /// ones) — also the config a bit-identical standalone
    /// [`Auditor`](crate::audit::Auditor) run would use.
    pub fn apply_to(&self, mut base: AuditConfig) -> AuditConfig {
        base.alpha = self.alpha;
        base.worlds = self.worlds;
        base.seed = self.seed;
        base.direction = self.direction;
        base.null_model = self.null_model;
        base.mc_strategy = self.mc_strategy;
        base.worldgen = self.worldgen;
        base.statistic = self.statistic;
        base
    }

    /// Validates field invariants without panicking. The builders
    /// assert these, but the fields are pub and wire-deserializable —
    /// serving layers should call this on untrusted requests *before*
    /// queueing them (a queue that defers validation to execution
    /// would lose its whole batch to one malformed payload).
    ///
    /// # Errors
    /// [`ScanError::InvalidRequest`] naming the offending knob:
    /// `alpha` outside `(0, 1)`, zero `worlds` or more than
    /// [`MAX_WORLDS`], or a zero early-stop batch size.
    pub fn validate(&self) -> Result<(), ScanError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ScanError::invalid_request(format!(
                "alpha must be in (0,1), got {}",
                self.alpha
            )));
        }
        if self.worlds == 0 {
            return Err(ScanError::invalid_request(
                "need at least one simulated world",
            ));
        }
        if self.worlds > MAX_WORLDS {
            return Err(ScanError::invalid_request(format!(
                "worlds must be at most {MAX_WORLDS}, got {}",
                self.worlds
            )));
        }
        if let McStrategy::EarlyStop { batch_size } = self.mc_strategy {
            if batch_size == 0 {
                return Err(ScanError::invalid_request("batch_size must be positive"));
            }
        }
        Ok(())
    }

    /// The world class this request draws simulated worlds from:
    /// requests agreeing on it share every world. The generator
    /// version is part of the class — `Scalar` and `Word` streams are
    /// statistically equivalent but value-wise disjoint — and so is
    /// the statistic: two statistics draw identical label worlds but
    /// score them differently, so their τ streams must never mix.
    fn world_class(&self) -> (NullModel, u64, WorldGen, Statistic) {
        (self.null_model, self.seed, self.worldgen, self.statistic)
    }
}

impl Default for AuditRequest {
    /// The paper's setting: `α = 0.005`, 999 worlds.
    fn default() -> Self {
        AuditRequest::new(0.005)
    }
}

/// The identity of one simulated world stream: the four knobs that
/// fully determine every world in it. Two requests share worlds iff
/// their classes are equal, and a world's labels depend only on
/// `(null_model, seed, worldgen)` plus its index — `statistic` rides
/// along because it picks the τ kernel the counts are folded through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldClass {
    /// Null model the worlds are drawn from.
    pub null_model: NullModel,
    /// Seed of the world stream.
    pub seed: u64,
    /// Generator version of the world stream.
    pub worldgen: WorldGen,
    /// Test statistic the worlds are scored with.
    pub statistic: Statistic,
}

/// A replaceable world-evaluation backend: fills a span of the world
/// stream's τ matrix exactly as the in-process engine would.
///
/// This is the seam a distributed coordinator plugs into. The
/// contract is **bit-identity**: for every world `w` in
/// `first..first + out.len() / eval_dirs.len()` and direction `d`,
/// `out[(w - first) * eval_dirs.len() + d]` must equal what
/// [`PreparedAudit`]'s own evaluator computes — generate world `w`
/// from `world_rng(class.seed, w)`, count it, fold through the
/// [`TauKernel`](sfstats::kernel::TauKernel). Implementations that
/// sum exact integer count partials over a word-window partition and
/// replay the same fold (see `ScanEngine::fold_counts`) satisfy this
/// by construction.
///
/// `fine` is the caller's axis hint (span narrower than the thread
/// pool); implementations may ignore it — it never changes values,
/// only scheduling.
///
/// Calls may arrive concurrently from rayon workers (group fan-out ×
/// span chunks), hence `Send + Sync`. `Debug` keeps the owning
/// service's derive intact.
pub trait WorldEvaluator: Send + Sync + std::fmt::Debug {
    /// Evaluates worlds `first..` into the world-major matrix `out`
    /// (`out.len()` = span length × `eval_dirs.len()`).
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        fine: bool,
    );
}

/// One world-sharing group of an [`ExecutionPlan`]: the requests that
/// draw from one simulated world stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGroup {
    /// Null model every member draws worlds from.
    pub null_model: NullModel,
    /// Seed of the shared world stream.
    pub seed: u64,
    /// Generator version of the shared world stream.
    pub worldgen: WorldGen,
    /// Test statistic every member scores worlds with.
    pub statistic: Statistic,
    /// Indices into the planned request batch, in submission order.
    pub members: Vec<usize>,
    /// Distinct member directions in first-appearance order; each
    /// world is counted once and its LLR folded per entry here.
    pub directions: Vec<Direction>,
    /// Largest member budget — the most worlds this group can need.
    pub max_budget: usize,
}

/// A batch of requests grouped into world classes, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    requests: Vec<AuditRequest>,
    groups: Vec<PlanGroup>,
}

impl ExecutionPlan {
    /// Plans a batch: groups requests by `(null model, seed, worldgen,
    /// statistic)` in first-appearance order, recording each group's
    /// distinct directions and maximum budget.
    ///
    /// # Panics
    /// Panics if any request carries invalid knobs (see
    /// [`AuditRequest::validate`] — serving layers validate untrusted
    /// requests before they get here).
    pub fn new(requests: Vec<AuditRequest>) -> Self {
        let mut groups: Vec<PlanGroup> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if let Err(e) = request.validate() {
                panic!("{e}");
            }
            let class = request.world_class();
            let group = match groups
                .iter_mut()
                .find(|g| (g.null_model, g.seed, g.worldgen, g.statistic) == class)
            {
                Some(group) => group,
                None => {
                    groups.push(PlanGroup {
                        null_model: request.null_model,
                        seed: request.seed,
                        worldgen: request.worldgen,
                        statistic: request.statistic,
                        members: Vec::new(),
                        directions: Vec::new(),
                        max_budget: 0,
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.members.push(i);
            if !group.directions.contains(&request.direction) {
                group.directions.push(request.direction);
            }
            group.max_budget = group.max_budget.max(request.worlds);
        }
        ExecutionPlan { requests, groups }
    }

    /// The planned requests, in submission order.
    pub fn requests(&self) -> &[AuditRequest] {
        &self.requests
    }

    /// The world-sharing groups.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// Total worlds the batch would cost without sharing or early
    /// stopping (`Σ` member budgets).
    pub fn budget_total(&self) -> usize {
        self.requests.iter().map(|r| r.worlds).sum()
    }

    /// Upper bound on unique worlds with sharing (`Σ` group max
    /// budgets); the shortfall vs [`ExecutionPlan::budget_total`] is
    /// the work sharing saves before early stopping saves more.
    pub fn shared_budget_total(&self) -> usize {
        self.groups.iter().map(|g| g.max_budget).sum()
    }
}

/// Accounting for one executed batch. Counters are `u64` end-to-end
/// so lifetime aggregation (`ServerStats` in `sfserve`) absorbs them
/// without a single lossy cast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchStats {
    /// Requests served.
    pub requests: u64,
    /// World-sharing groups the batch planned into.
    pub groups: u64,
    /// Worlds actually generated and counted this batch (each one
    /// serving every compatible request).
    pub unique_worlds: u64,
    /// Worlds answered from a prior batch's cached τ-stream instead of
    /// being simulated (the cross-batch [`WorldCache`] resume path).
    pub worlds_replayed: u64,
    /// Groups that replayed at least one cached world.
    pub cache_hits: u64,
    /// `Σ` per-request `worlds_evaluated` — what sequential single
    /// audits would have generated and counted.
    pub lane_worlds: u64,
    /// `Σ` per-request budgets — the cost ceiling without sharing or
    /// early stopping.
    pub budget_total: u64,
}

impl BatchStats {
    /// Lane-worlds that were *replayed* from this batch's shared
    /// streams instead of being regenerated
    /// (`lane_worlds − unique_worlds − worlds_replayed`).
    pub fn worlds_shared(&self) -> u64 {
        self.lane_worlds
            .saturating_sub(self.unique_worlds + self.worlds_replayed)
    }

    /// Worlds early stopping saved across the batch
    /// (`budget_total − lane_worlds`).
    pub fn worlds_saved(&self) -> u64 {
        self.budget_total.saturating_sub(self.lane_worlds)
    }
}

/// The immutable phase-1 artifact: everything an audit needs that
/// depends only on the dataset and regions.
///
/// Build it once with [`PreparedAudit::prepare`], then serve any number
/// of [`AuditRequest`]s with [`PreparedAudit::run`] /
/// [`PreparedAudit::run_batch`] — no per-request index or membership
/// construction, and batched requests share simulated worlds whenever
/// their world class matches.
pub struct PreparedAudit {
    engine: ScanEngine,
    regions: RegionSet,
    base: AuditConfig,
    n_total: u64,
    p_total: u64,
    rate: f64,
    /// The real labels' scan per (statistic, direction), filled on
    /// first use (see [`PreparedAudit::real_scan`]).
    reals: [OnceLock<RealScan>; REAL_SCANS],
}

/// One real-data scan slot per (statistic, direction).
const REAL_SCANS: usize = Statistic::ALL.len() * Direction::ALL.len();

impl std::fmt::Debug for PreparedAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedAudit")
            .field("n_total", &self.n_total)
            .field("p_total", &self.p_total)
            .field("num_regions", &self.regions.len())
            .field("resolved_strategy", &self.engine.resolved_strategy())
            .finish_non_exhaustive()
    }
}

// The sfnet executor shares one prepared artifact per session across
// its worker pool as `Arc<PreparedAudit>`. Enforce the contract at
// compile time so a future non-Sync field (an `Rc`, a `RefCell`
// scratch buffer) fails here, at the definition, instead of deep in
// the server's spawn sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<PreparedAudit>;
};

impl PreparedAudit {
    /// Phase 1: validates the inputs and builds the scan engine from
    /// the expensive `config` knobs (counting strategy, shards).
    /// The remaining config fields become the base every request's
    /// report config is derived from.
    ///
    /// # Errors
    /// * [`ScanError::EmptyRegionSet`] — no regions to scan.
    /// * [`ScanError::DegenerateOutcomes`] — all labels equal; the scan
    ///   statistic is vacuous.
    /// * [`ScanError::CountIntegrity`] — the index's aggregate
    ///   counts disagree with its id enumeration (engine build
    ///   cross-validates them once rather than letting every simulated
    ///   `τ` silently corrupt).
    pub fn prepare(
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        config: AuditConfig,
    ) -> Result<Self, ScanError> {
        outcomes.check_auditable()?;
        if regions.is_empty() {
            return Err(ScanError::EmptyRegionSet);
        }
        let engine = ScanEngine::build(outcomes, regions, config.strategy)?
            .with_shards(config.shards)
            .with_statistic(config.statistic);
        Ok(PreparedAudit {
            engine,
            regions: regions.clone(),
            base: config,
            n_total: outcomes.len() as u64,
            p_total: outcomes.positives(),
            rate: outcomes.rate(),
            reals: Default::default(),
        })
    }

    /// The real labels' scan under `statistic` in `direction`. The real
    /// labels never change, so it is computed on the first request
    /// that needs it, not in [`PreparedAudit::prepare`], and every later
    /// request reads the same scan.
    fn real_scan(&self, statistic: Statistic, direction: Direction) -> &RealScan {
        let slot = statistic as usize * Direction::ALL.len() + direction.ordinal();
        self.reals[slot].get_or_init(|| self.engine.scan_real_with(statistic, direction))
    }

    /// The base config requests are completed against.
    pub fn base_config(&self) -> &AuditConfig {
        &self.base
    }

    /// The shared scan engine.
    pub fn engine(&self) -> &ScanEngine {
        &self.engine
    }

    /// Number of candidate regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of audited observations.
    pub fn num_points(&self) -> usize {
        self.n_total as usize
    }

    /// Runs one request. Equivalent to a single-element
    /// [`PreparedAudit::run_batch`] — and bit-identical to
    /// [`Auditor::audit`](crate::audit::Auditor) with
    /// [`AuditRequest::apply_to`]`(base_config)`.
    pub fn run(&self, request: &AuditRequest) -> AuditReport {
        self.run_batch(std::slice::from_ref(request))
            .pop()
            .expect("one request yields one report")
    }

    /// Phases 2+3 for a batch: plans the requests into world-sharing
    /// groups and executes them, returning one report per request in
    /// submission order.
    pub fn run_batch(&self, requests: &[AuditRequest]) -> Vec<AuditReport> {
        self.run_batch_with_stats(requests).0
    }

    /// [`PreparedAudit::run_batch`] plus the batch accounting.
    pub fn run_batch_with_stats(
        &self,
        requests: &[AuditRequest],
    ) -> (Vec<AuditReport>, BatchStats) {
        self.execute(&ExecutionPlan::new(requests.to_vec()))
    }

    /// [`PreparedAudit::run_batch_with_stats`] resuming from (and
    /// extending) a cross-batch [`WorldCache`].
    pub fn run_batch_cached(
        &self,
        requests: &[AuditRequest],
        cache: &mut WorldCache,
    ) -> (Vec<AuditReport>, BatchStats) {
        self.execute_cached(&ExecutionPlan::new(requests.to_vec()), cache)
    }

    /// [`PreparedAudit::run_batch_cached`] with an optional
    /// [`WorldEvaluator`] backend replacing the in-process world
    /// simulation. `None` is exactly `run_batch_cached`.
    pub fn run_batch_cached_with(
        &self,
        requests: &[AuditRequest],
        cache: &mut WorldCache,
        evaluator: Option<&dyn WorldEvaluator>,
    ) -> (Vec<AuditReport>, BatchStats) {
        self.execute_inner(
            &ExecutionPlan::new(requests.to_vec()),
            Some(cache),
            evaluator,
        )
    }

    /// Phase 3: executes a plan against the shared engine. Reports come
    /// back in the plan's request order.
    pub fn execute(&self, plan: &ExecutionPlan) -> (Vec<AuditReport>, BatchStats) {
        self.execute_inner(plan, None, None)
    }

    /// Phase 3 with cross-batch world caching: each group replays the
    /// cached τ-stream prefix of its world class through the ordinary
    /// lane stopping rule and simulates only the un-cached suffix,
    /// which is then committed back so the *next* batch resumes even
    /// further in. Reports are bit-identical to [`PreparedAudit::execute`]
    /// by construction — the lanes consume the same values in the same
    /// order whether a world was replayed or simulated.
    ///
    /// The cache must only ever be used with the engine that filled it
    /// (cached τ values are meaningless against other data); keep one
    /// cache per `PreparedAudit`.
    pub fn execute_cached(
        &self,
        plan: &ExecutionPlan,
        cache: &mut WorldCache,
    ) -> (Vec<AuditReport>, BatchStats) {
        self.execute_inner(plan, Some(cache), None)
    }

    /// One loop for both phase-3 paths: a cold run is a resume with no
    /// cache to consult and nothing retained for one.
    ///
    /// When the plan holds several world classes, execution is staged:
    /// every group's cache resume happens first (the only step needing
    /// `&mut` cache access), the groups themselves — each with its own
    /// seeded, scheduling-independent world stream — fan out over the
    /// rayon pool, and the commits land back in plan order (transient
    /// memory: every in-flight group's fresh rows, the price of the
    /// fan-out). A single group streams resume → execute → commit.
    /// Results are bit-identical on both paths, because nothing a group
    /// computes depends on any other group.
    fn execute_inner(
        &self,
        plan: &ExecutionPlan,
        mut cache: Option<&mut WorldCache>,
        evaluator: Option<&dyn WorldEvaluator>,
    ) -> (Vec<AuditReport>, BatchStats) {
        let mut reports: Vec<Option<AuditReport>> = Vec::new();
        reports.resize_with(plan.requests().len(), || None);
        let mut stats = BatchStats {
            requests: plan.requests().len() as u64,
            groups: plan.groups().len() as u64,
            ..BatchStats::default()
        };
        let collect_fresh = cache.is_some();
        // Resume: move a class's cached prefix out (a no-copy move;
        // the commit reinstalls it). Groups are distinct world
        // classes, so their resume points are disjoint.
        let resume_group = |cache: &mut Option<&mut WorldCache>, group: &PlanGroup| match cache {
            Some(cache) => cache.resume(
                group.null_model,
                group.seed,
                group.worldgen,
                group.statistic,
                &group.directions,
            ),
            None => ResumePoint {
                eval_dirs: group.directions.clone(),
                prefix: TauRows::new(group.directions.len()),
            },
        };
        // Commit + assemble, in plan order on both paths.
        let mut finish = |cache: &mut Option<&mut WorldCache>,
                          group: &PlanGroup,
                          resume: ResumePoint,
                          output: GroupOutput| {
            stats.unique_worlds += output.unique_worlds as u64;
            stats.worlds_replayed += output.replayed as u64;
            stats.lane_worlds += output.lane_worlds;
            stats.budget_total += output.budget_total;
            if output.replayed > 0 {
                stats.cache_hits += 1;
            }
            if let Some(cache) = cache {
                cache.commit(
                    group.null_model,
                    group.seed,
                    group.worldgen,
                    group.statistic,
                    resume.eval_dirs,
                    resume.prefix,
                    output.replayed,
                    output.fresh,
                );
            }
            for (ri, report) in output.reports {
                reports[ri] = Some(report);
            }
        };
        if plan.groups().len() > 1 {
            // Fan the classes out. This nests with the per-span
            // parallelism inside run_world_group on purpose: batches
            // usually hold far fewer classes than the machine has
            // cores, so class-only parallelism would leave most cores
            // idle, while the nested fan-out stays CPU-bound with
            // bounded oversubscription (classes × cores worst case) —
            // measured faster than either level alone on the serve
            // workload.
            let resumes: Vec<ResumePoint> = plan
                .groups()
                .iter()
                .map(|group| resume_group(&mut cache, group))
                .collect();
            let run_group = |gi: usize| -> GroupOutput {
                self.execute_group(
                    plan,
                    &plan.groups()[gi],
                    &resumes[gi],
                    collect_fresh,
                    evaluator,
                )
            };
            let outputs: Vec<GroupOutput> = (0..plan.groups().len())
                .into_par_iter()
                .map(run_group)
                .collect();
            for ((group, resume), output) in plan.groups().iter().zip(resumes).zip(outputs) {
                finish(&mut cache, group, resume, output);
            }
        } else {
            for group in plan.groups() {
                let resume = resume_group(&mut cache, group);
                let output = self.execute_group(plan, group, &resume, collect_fresh, evaluator);
                finish(&mut cache, group, resume, output);
            }
        }
        let reports = reports
            .into_iter()
            .map(|r| r.expect("every request belongs to exactly one group"))
            .collect();
        (reports, stats)
    }

    /// Executes one world-sharing group: reads the real scan of each
    /// distinct member direction, then walks the shared world stream through
    /// [`run_world_group`] — replaying the class's cached prefix first,
    /// simulating the rest — folding each world's per-region counts
    /// into every member lane that still needs it. Pure with respect
    /// to the cache and the other groups, which is what lets
    /// [`PreparedAudit::execute_inner`] fan world classes out in
    /// parallel.
    fn execute_group(
        &self,
        plan: &ExecutionPlan,
        group: &PlanGroup,
        resume: &ResumePoint,
        collect_fresh: bool,
        evaluator: Option<&dyn WorldEvaluator>,
    ) -> GroupOutput {
        // The cache dictates the per-world direction list: a superset
        // of the group's needs, so replayed rows line up and fresh rows
        // stay column-complete for future batches. Extra directions
        // cost one more LLR fold per region — counting dominates.
        let eval_dirs = &resume.eval_dirs;
        let lane_dirs = member_direction_indices(plan.requests(), &group.members, eval_dirs);
        // Real-world scans are direction-dependent but request-invariant:
        // one per direction some member actually uses, kept in the
        // prepared audit for every later request. Cache-carried
        // directions no member requests this batch get no scan (worlds
        // still evaluate them — the cheap LLR fold — to keep cached
        // rows column-complete); their observed slot is NaN and, by
        // construction, never read.
        let mut reals: Vec<Option<&RealScan>> = vec![None; eval_dirs.len()];
        for &di in &lane_dirs {
            reals[di] = Some(self.real_scan(group.statistic, eval_dirs[di]));
        }
        let observed: Vec<f64> = reals
            .iter()
            .map(|r| r.map_or(f64::NAN, |real| real.tau))
            .collect();
        // `fine` is the work-splitter's axis choice (see
        // [`run_world_group`]): when a span holds fewer worlds than
        // the pool has threads, each world fans its own generation
        // chunks and shard partials out instead. Both paths are
        // bit-identical (chunk substreams are absolutely positioned;
        // shard partials are exact integer sums), so the choice is
        // pure scheduling.
        let eval_batch = |first: usize, out: &mut [f64], fine: bool| {
            // A plugged-in evaluator (e.g. a distributed coordinator)
            // replaces exactly this sweep; its contract is to produce
            // the same bits (see [`WorldEvaluator`]).
            if let Some(evaluator) = evaluator {
                evaluator.eval_span(
                    WorldClass {
                        null_model: group.null_model,
                        seed: group.seed,
                        worldgen: group.worldgen,
                        statistic: group.statistic,
                    },
                    eval_dirs,
                    first,
                    out,
                    fine,
                );
                return;
            }
            // One fused sweep per batch: generate the batch's worlds
            // (per-world RNG streams — world w's labels are identical
            // whatever batch it lands in), then count and fold them all
            // in one ScanEngine::eval call.
            let count = out.len() / eval_dirs.len();
            let mut worlds = Vec::with_capacity(count);
            for k in 0..count {
                let mut rng = world_rng(group.seed, (first + k) as u64);
                worlds.push(if fine {
                    self.engine
                        .generate_world_par(group.null_model, group.worldgen, &mut rng)
                } else {
                    self.engine
                        .generate_world_with(group.null_model, group.worldgen, &mut rng)
                });
            }
            let refs: Vec<&BitLabels> = worlds.iter().collect();
            self.engine
                .eval(group.statistic, &refs, eval_dirs, out, fine);
        };
        let run = run_world_group(
            plan.requests(),
            &group.members,
            &lane_dirs,
            &observed,
            &resume.prefix,
            collect_fresh,
            eval_batch,
        );

        // Assemble per-request reports from each lane's truncated
        // distribution and its direction's shared real scan.
        let mut lane_worlds = 0u64;
        let mut budget_total = 0u64;
        let mut reports = Vec::with_capacity(group.members.len());
        for ((result, &ri), &di) in run.results.into_iter().zip(&group.members).zip(&lane_dirs) {
            let request = &plan.requests()[ri];
            lane_worlds += result.worlds_evaluated as u64;
            budget_total += request.worlds as u64;
            let real = reals[di].expect("member directions are scanned");
            let p_value = result.p_value();
            let critical_value = result.critical_value(request.alpha);
            reports.push((
                ri,
                AuditReport {
                    config: request.apply_to(self.base),
                    n_total: self.n_total,
                    p_total: self.p_total,
                    rate: self.rate,
                    num_regions: self.regions.len(),
                    region_set: self.regions.description().to_string(),
                    tau: real.tau,
                    best_region_index: real.best_index,
                    p_value,
                    critical_value,
                    findings: build_findings(real, &self.regions, critical_value),
                    worlds_evaluated: result.worlds_evaluated,
                    simulated: result.simulated,
                },
            ));
        }
        GroupOutput {
            reports,
            replayed: run.replayed,
            unique_worlds: run.unique_worlds,
            fresh: run.fresh,
            lane_worlds,
            budget_total,
        }
    }
}

/// Everything one executed group hands back to the sequential
/// commit/assembly stage: per-request reports tagged with their batch
/// position, plus the world accounting the cache and [`BatchStats`]
/// need.
struct GroupOutput {
    reports: Vec<(usize, AuditReport)>,
    replayed: usize,
    unique_worlds: usize,
    fresh: TauRows,
    lane_worlds: u64,
    budget_total: u64,
}

/// Distinct member directions in first-appearance order, paired with
/// each member's index into that list.
pub(crate) fn distinct_directions(
    requests: &[AuditRequest],
    members: &[usize],
) -> (Vec<Direction>, Vec<usize>) {
    let mut directions: Vec<Direction> = Vec::new();
    for &i in members {
        if !directions.contains(&requests[i].direction) {
            directions.push(requests[i].direction);
        }
    }
    let lane_dirs = member_direction_indices(requests, members, &directions);
    (directions, lane_dirs)
}

/// Each member's index into `directions` — a constant-time table
/// lookup per member. The table is built once per group (O(D) over
/// the tiny direction alphabet), replacing the old per-member rescan
/// of the direction list (O(members × D) position() calls).
fn member_direction_indices(
    requests: &[AuditRequest],
    members: &[usize],
    directions: &[Direction],
) -> Vec<usize> {
    let mut table = [usize::MAX; Direction::ALL.len()];
    for (i, d) in directions.iter().enumerate() {
        let slot = &mut table[d.ordinal()];
        if *slot == usize::MAX {
            *slot = i;
        }
    }
    members
        .iter()
        .map(|&i| {
            let di = table[requests[i].direction.ordinal()];
            assert_ne!(di, usize::MAX, "every member direction is recorded");
            di
        })
        .collect()
}

/// Outcome of [`run_world_group`]: per-member results plus the world
/// accounting a cross-batch cache needs to commit the run.
pub(crate) struct GroupRun {
    /// One [`MonteCarloResult`] per member, in `members` order — each
    /// bit-identical to a standalone adaptive run of that request.
    pub results: Vec<MonteCarloResult>,
    /// Worlds served from the cached prefix instead of simulated.
    pub replayed: usize,
    /// Worlds newly simulated.
    pub unique_worlds: usize,
    /// The newly simulated per-direction rows, in stream order starting
    /// at world index `replayed` (the cached prefix is consumed first).
    /// Empty unless `collect_fresh` was set — retaining every row only
    /// pays off when a cache will commit them.
    pub fresh: TauRows,
}

/// The engine-agnostic core of batched execution: walks one shared
/// world stream for a group of member requests, resuming from an
/// optional cached stream prefix.
///
/// Builds a [`WorldLane`] per member (observed statistic taken from its
/// direction's entry in `observed`), then evaluates
/// [`BudgetScheduler`] spans. Worlds whose index falls inside `cached`
/// are *replayed* — their flat per-direction rows are fed to the lanes
/// as-is ([`WorldLane::feed_strided`]), no simulation — and only
/// indices past the cached prefix call `eval_worlds` (in parallel;
/// per-world independent RNG streams inside `eval_worlds` keep that
/// deterministic). Because the lanes cannot
/// tell a replayed value from a simulated one, a resumed run is
/// bit-identical to a cold run by construction.
///
/// `eval_worlds` receives the index of a *batch's* first world, an
/// output slot spanning the whole batch (`W · stride` values,
/// world-major: world `k` of the batch owns
/// `out[k * stride..(k + 1) * stride]`, one `τ` per entry of the
/// group's evaluated direction list; `lane_dirs[m]` maps member `m`
/// into it, and `cached` rows must align with the same list) — and
/// the work-splitter's axis flag: `false` means the caller is already
/// fanning *batches* out (the coarse axis) and the evaluation must
/// stay sequential inside; `true` means the span holds fewer batches
/// than the pool has threads, batches are walked sequentially, and
/// the evaluation should fan its own finer axes (generation chunks,
/// engine shards) out instead. Batches hold up to
/// [`MAX_FUSED_WORLDS`] worlds (the last batch of a span shorter), so
/// a fused counting engine loads each CSR run once per batch instead
/// of once per world; the callback derives the batch's world count
/// from `out.len()`. The splitter prefers the coarse axis whenever it
/// can fill the machine — one task per batch has no per-batch
/// coordination overhead — and both axes are bit-identical by
/// construction (world `w`'s RNG stream and fold are independent of
/// which batch evaluates it), so the flag is pure scheduling. Each
/// span is evaluated into **one flat reusable buffer** carved into
/// per-batch chunks, so the span loop performs no per-world heap
/// allocation (the old `Vec<Vec<f64>>` boxes). With `collect_fresh`,
/// the simulated rows are appended to the flat [`GroupRun::fresh`]
/// matrix for a cache commit; without it the buffer is simply reused
/// span after span.
///
/// Both the Bernoulli executor above and the Poisson rate batch
/// ([`crate::rates::audit_rates_batch`]) run on this loop, so the
/// stopping/scheduling semantics cannot drift between them.
pub(crate) fn run_world_group<F>(
    requests: &[AuditRequest],
    members: &[usize],
    lane_dirs: &[usize],
    observed: &[f64],
    cached: &TauRows,
    collect_fresh: bool,
    eval_worlds: F,
) -> GroupRun
where
    F: Fn(usize, &mut [f64], bool) + Sync,
{
    let stride = observed.len();
    debug_assert!(stride > 0, "a group evaluates at least one direction");
    debug_assert!(
        cached.is_empty() || cached.stride() == stride,
        "cached rows must align with the evaluated direction list"
    );
    let mut lanes: Vec<WorldLane> = members
        .iter()
        .zip(lane_dirs)
        .map(|(&i, &di)| {
            let r = &requests[i];
            WorldLane::new(observed[di], r.alpha, r.mc_strategy, r.worlds)
        })
        .collect();
    let mut fresh = TauRows::new(stride);
    let mut span_buf: Vec<f64> = Vec::new();
    let mut replayed = 0usize;
    let mut unique_worlds = 0usize;
    let mut scheduler = BudgetScheduler::new();
    while let Some(span) = scheduler.next_span(&lanes) {
        // Spans are contiguous from 0, so the cached prefix is consumed
        // exactly once, in order, before any world is simulated.
        let cut = span.end.min(cached.worlds()).max(span.start);
        let simulated = span.end - cut;
        span_buf.clear();
        span_buf.resize(simulated * stride, 0.0);
        let batch = stride * MAX_FUSED_WORLDS;
        if simulated == 0 {
            // A span served wholly from cached rows simulates nothing,
            // so it needs no split.
        } else if simulated >= MAX_FUSED_WORLDS * rayon::current_num_threads() {
            // Coarse axis: enough world batches to fill the machine
            // (the core count is probed once per process, not per span).
            span_buf
                .par_chunks_mut(batch)
                .enumerate()
                .for_each(|(c, out)| eval_worlds(cut + c * MAX_FUSED_WORLDS, out, false));
        } else {
            // Fine axis: a short span (early-stop tail, tiny budget)
            // cannot feed every core one batch — walk batches in order
            // and let each one fan generation chunks/shard partials
            // out instead.
            for (c, out) in span_buf.chunks_mut(batch).enumerate() {
                eval_worlds(cut + c * MAX_FUSED_WORLDS, out, true);
            }
        }
        replayed += cut - span.start;
        unique_worlds += simulated;
        // Every active lane sits at the span start and is committed to
        // the whole span (scheduler invariant), so feeding the cached
        // segment then the simulated segment per lane pushes exactly
        // the values the per-world loop used to; done lanes consume
        // nothing.
        let cached_part = if cut > span.start {
            &cached.values()[span.start * stride..cut * stride]
        } else {
            &[][..]
        };
        for (lane, &di) in lanes.iter_mut().zip(lane_dirs) {
            lane.feed_strided(cached_part, stride, di);
            lane.feed_strided(&span_buf, stride, di);
        }
        if collect_fresh {
            fresh.extend_from_values(&span_buf);
        }
    }
    GroupRun {
        results: lanes.into_iter().map(WorldLane::into_result).collect(),
        replayed,
        unique_worlds,
        fresh,
    }
}

/// Evidence assembly shared by every execution path: individually
/// significant regions, ranked by LLR descending (SUL ranking).
pub(crate) fn build_findings(
    real: &RealScan,
    regions: &RegionSet,
    critical_value: f64,
) -> Vec<RegionFinding> {
    let mut findings: Vec<RegionFinding> = real
        .llrs
        .iter()
        .enumerate()
        .filter(|(_, &llr)| llr > critical_value)
        .map(|(i, &llr)| {
            let c = real.counts[i];
            RegionFinding {
                index: i,
                region: regions.regions()[i].clone(),
                center_id: regions.center_id(i),
                n: c.n,
                p: c.p,
                rate: if c.n == 0 {
                    f64::NAN
                } else {
                    c.p as f64 / c.n as f64
                },
                llr,
            }
        })
        .collect();
    findings.sort_by(|a, b| b.llr.partial_cmp(&a.llr).expect("LLRs are finite"));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Auditor;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Point, Rect};

    fn outcomes(n: usize, seed: u64, split: bool) -> SpatialOutcomes {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let y: f64 = rng.gen_range(0.0..10.0);
            let rate = if split && x < 5.0 { 0.85 } else { 0.3 };
            points.push(Point::new(x, y));
            labels.push(rng.gen_bool(rate));
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    fn grid() -> RegionSet {
        RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
    }

    fn base() -> AuditConfig {
        AuditConfig::new(0.05).with_worlds(99).with_seed(3)
    }

    #[test]
    fn plan_groups_by_world_class() {
        let r = AuditRequest::new(0.05).with_worlds(99);
        let batch = vec![
            r.with_seed(1),
            r.with_seed(1).with_direction(Direction::High),
            r.with_seed(2),
            r.with_seed(1).with_null_model(NullModel::Permutation),
            r.with_seed(1).with_worlds(199),
        ];
        let plan = ExecutionPlan::new(batch);
        assert_eq!(plan.groups().len(), 3);
        let g0 = &plan.groups()[0];
        assert_eq!(g0.members, vec![0, 1, 4]);
        assert_eq!(g0.directions, vec![Direction::TwoSided, Direction::High]);
        assert_eq!(g0.max_budget, 199);
        assert_eq!(plan.groups()[1].members, vec![2]);
        assert_eq!(plan.groups()[2].members, vec![3]);
        assert_eq!(plan.budget_total(), 99 * 4 + 199);
        assert_eq!(plan.shared_budget_total(), 199 + 99 + 99);
    }

    #[test]
    fn batched_reports_match_standalone_audits() {
        let o = outcomes(1200, 1, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let requests = vec![
            AuditRequest::from_config(&base()),
            AuditRequest::from_config(&base()).with_direction(Direction::High),
            AuditRequest::from_config(&base()).with_direction(Direction::Low),
            AuditRequest::from_config(&base()).with_seed(9),
            AuditRequest::from_config(&base())
                .with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
        ];
        let (reports, stats) = prepared.run_batch_with_stats(&requests);
        assert_eq!(reports.len(), requests.len());
        for (request, report) in requests.iter().zip(&reports) {
            let expected = Auditor::new(request.apply_to(base()))
                .audit(&o, &rs)
                .unwrap();
            assert_eq!(*report, expected, "request {request:?}");
        }
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.groups, 2);
        assert!(
            stats.worlds_shared() > 0,
            "same-class requests must share worlds: {stats:?}"
        );
    }

    /// The real scan is computed on first use, never in `prepare`, and
    /// a repeated request, alone or in a batch with another seed, gets
    /// the report of a cold `Auditor::audit` under every statistic and
    /// direction.
    #[test]
    fn repeated_requests_match_cold_audits_for_every_statistic_and_direction() {
        let o = outcomes(900, 4, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        assert!(prepared.reals.iter().all(|slot| slot.get().is_none()));
        for statistic in Statistic::ALL {
            for direction in Direction::ALL {
                let request = AuditRequest::from_config(&base())
                    .with_worlds(19)
                    .with_direction(direction)
                    .with_statistic(statistic);
                let cold = Auditor::new(request.apply_to(base()))
                    .audit(&o, &rs)
                    .unwrap();
                let first = prepared.run(&request);
                let again = prepared.run_batch(&[request.with_seed(8), request]);
                assert_eq!(first, cold, "{statistic} {direction:?}");
                assert_eq!(again[1], cold, "{statistic} {direction:?}, repeated");
            }
        }
        assert!(prepared.reals.iter().all(|slot| slot.get().is_some()));
    }

    #[test]
    fn single_run_equals_batch_of_one() {
        let o = outcomes(600, 2, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let request = AuditRequest::from_config(&base());
        let solo = prepared.run(&request);
        let batch = prepared.run_batch(std::slice::from_ref(&request));
        assert_eq!(batch, vec![solo]);
    }

    #[test]
    fn batch_order_is_request_order() {
        let o = outcomes(600, 3, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let a = AuditRequest::from_config(&base()).with_seed(1);
        let b = AuditRequest::from_config(&base()).with_seed(2);
        let fwd = prepared.run_batch(&[a, b]);
        let rev = prepared.run_batch(&[b, a]);
        assert_eq!(fwd[0], rev[1]);
        assert_eq!(fwd[1], rev[0]);
    }

    #[test]
    fn early_stop_savings_are_reallocated_not_lost() {
        // Fair data: the futility stop fires fast for early-stop lanes
        // while a full-budget lane keeps the stream alive; unique
        // worlds stay bounded by the largest single need.
        let o = outcomes(1500, 4, false);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let stopper = AuditRequest::from_config(&base())
            .with_mc_strategy(McStrategy::EarlyStop { batch_size: 8 });
        let full = AuditRequest::from_config(&base());
        let (reports, stats) = prepared.run_batch_with_stats(&[stopper, full]);
        assert!(reports[0].worlds_evaluated < reports[1].worlds_evaluated);
        assert_eq!(reports[1].worlds_evaluated, 99);
        assert_eq!(stats.unique_worlds, 99, "shared stream generated once");
        assert_eq!(
            stats.lane_worlds,
            (reports[0].worlds_evaluated + reports[1].worlds_evaluated) as u64
        );
        assert!(stats.worlds_saved() > 0);
    }

    #[test]
    fn prepare_validates_inputs() {
        let o = outcomes(100, 6, false);
        let empty = RegionSet::from_regions(vec![]);
        assert_eq!(
            PreparedAudit::prepare(&o, &empty, base()).unwrap_err(),
            ScanError::EmptyRegionSet
        );
        let degenerate = SpatialOutcomes::new(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)],
            vec![true, true],
        )
        .unwrap();
        assert!(matches!(
            PreparedAudit::prepare(&degenerate, &grid(), base()).unwrap_err(),
            ScanError::DegenerateOutcomes { .. }
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let o = outcomes(200, 7, false);
        let prepared = PreparedAudit::prepare(&o, &grid(), base()).unwrap();
        let (reports, stats) = prepared.run_batch_with_stats(&[]);
        assert!(reports.is_empty());
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.unique_worlds, 0);
    }

    #[test]
    fn repeated_batch_is_served_from_the_world_cache() {
        let o = outcomes(900, 8, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let requests = vec![
            AuditRequest::from_config(&base()),
            AuditRequest::from_config(&base()).with_direction(Direction::High),
        ];
        let mut cache = WorldCache::new();
        let (cold, cold_stats) = prepared.run_batch_cached(&requests, &mut cache);
        assert_eq!(cold_stats.worlds_replayed, 0);
        assert_eq!(cold_stats.unique_worlds, 99);
        // The exact same batch again: zero new simulated worlds, every
        // report bit-identical.
        let (warm, warm_stats) = prepared.run_batch_cached(&requests, &mut cache);
        assert_eq!(warm, cold);
        assert_eq!(warm_stats.unique_worlds, 0, "{warm_stats:?}");
        assert_eq!(warm_stats.worlds_replayed, 99);
        assert_eq!(warm_stats.cache_hits, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().worlds_replayed, 99);
    }

    #[test]
    fn extended_budget_simulates_only_the_uncached_suffix() {
        let o = outcomes(700, 9, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let small = AuditRequest::from_config(&base()).with_worlds(40);
        let big = AuditRequest::from_config(&base()).with_worlds(99);
        let mut cache = WorldCache::new();
        let (_, s1) = prepared.run_batch_cached(std::slice::from_ref(&small), &mut cache);
        assert_eq!(s1.unique_worlds, 40);
        let (extended, s2) = prepared.run_batch_cached(std::slice::from_ref(&big), &mut cache);
        assert_eq!(s2.worlds_replayed, 40);
        assert_eq!(s2.unique_worlds, 99 - 40, "only the suffix is simulated");
        // And a smaller budget afterwards costs nothing new.
        let (shrunk, s3) = prepared.run_batch_cached(std::slice::from_ref(&small), &mut cache);
        assert_eq!(s3.unique_worlds, 0);
        assert_eq!(s3.worlds_replayed, 40);
        // Both resumed runs are bit-identical to cold standalone runs.
        assert_eq!(extended[0], prepared.run(&big));
        assert_eq!(shrunk[0], prepared.run(&small));
    }

    #[test]
    fn new_direction_resimulates_then_covers_the_union() {
        let o = outcomes(800, 10, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let two_sided = AuditRequest::from_config(&base());
        let high = AuditRequest::from_config(&base()).with_direction(Direction::High);
        let mut cache = WorldCache::new();
        prepared.run_batch_cached(std::slice::from_ref(&two_sided), &mut cache);
        // A direction the cache has not seen: full re-simulation…
        let (r_high, s_high) = prepared.run_batch_cached(std::slice::from_ref(&high), &mut cache);
        assert_eq!(s_high.worlds_replayed, 0);
        assert_eq!(s_high.unique_worlds, 99);
        assert_eq!(r_high[0], prepared.run(&high));
        // …after which the entry covers BOTH directions.
        let both = vec![two_sided, high];
        let (warm, s_both) = prepared.run_batch_cached(&both, &mut cache);
        assert_eq!(s_both.unique_worlds, 0, "{s_both:?}");
        assert_eq!(warm, prepared.run_batch(&both));
    }

    #[test]
    fn cached_early_stop_replays_to_the_same_stopping_world() {
        // Fair data: the early stopper fires futility fast; the cached
        // prefix must replay it to exactly the same stopping point.
        let o = outcomes(1000, 11, false);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let stopper = AuditRequest::from_config(&base())
            .with_mc_strategy(McStrategy::EarlyStop { batch_size: 8 });
        let mut cache = WorldCache::new();
        let (cold, s_cold) = prepared.run_batch_cached(std::slice::from_ref(&stopper), &mut cache);
        let (warm, s_warm) = prepared.run_batch_cached(std::slice::from_ref(&stopper), &mut cache);
        assert_eq!(warm, cold);
        assert_eq!(s_warm.unique_worlds, 0);
        assert_eq!(
            s_warm.worlds_replayed as usize, cold[0].worlds_evaluated,
            "replay stops exactly where the cold run stopped ({s_cold:?})"
        );
    }

    #[test]
    fn worldgen_versions_are_distinct_world_classes() {
        let r = AuditRequest::new(0.05)
            .with_worlds(99)
            .with_worldgen(WorldGen::Scalar);
        let plan = ExecutionPlan::new(vec![
            r,
            r.with_worldgen(WorldGen::Word),
            r,
            r.with_worldgen(WorldGen::Word)
                .with_direction(Direction::High),
        ]);
        assert_eq!(plan.groups().len(), 2, "scalar and word never share worlds");
        assert_eq!(plan.groups()[0].worldgen, WorldGen::Scalar);
        assert_eq!(plan.groups()[0].members, vec![0, 2]);
        assert_eq!(plan.groups()[1].worldgen, WorldGen::Word);
        assert_eq!(plan.groups()[1].members, vec![1, 3]);
    }

    #[test]
    fn word_batches_match_standalone_word_audits() {
        let o = outcomes(900, 12, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let requests = vec![
            AuditRequest::from_config(&base()).with_worldgen(WorldGen::Word),
            AuditRequest::from_config(&base())
                .with_worldgen(WorldGen::Word)
                .with_direction(Direction::High),
            // A scalar rider in the same batch (worldgen is explicit:
            // the default is Word now).
            AuditRequest::from_config(&base()).with_worldgen(WorldGen::Scalar),
        ];
        let (reports, stats) = prepared.run_batch_with_stats(&requests);
        assert_eq!(stats.groups, 2);
        for (request, report) in requests.iter().zip(&reports) {
            let expected = Auditor::new(request.apply_to(base()))
                .audit(&o, &rs)
                .unwrap();
            assert_eq!(*report, expected, "request {request:?}");
        }
        // Word and Scalar simulated streams are genuinely different.
        assert_ne!(reports[0].simulated, reports[2].simulated);
    }

    #[test]
    fn word_world_cache_replays_word_batches() {
        let o = outcomes(700, 13, true);
        let rs = grid();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        let word = AuditRequest::from_config(&base()).with_worldgen(WorldGen::Word);
        let mut cache = WorldCache::new();
        let (cold, s_cold) = prepared.run_batch_cached(std::slice::from_ref(&word), &mut cache);
        assert_eq!(s_cold.unique_worlds, 99);
        // The same request replays entirely; a Scalar request of the
        // same (null model, seed) must NOT touch the Word prefix.
        let scalar = AuditRequest::from_config(&base()).with_worldgen(WorldGen::Scalar);
        let (warm, s_warm) = prepared.run_batch_cached(std::slice::from_ref(&word), &mut cache);
        assert_eq!(warm, cold);
        assert_eq!(s_warm.unique_worlds, 0);
        assert_eq!(s_warm.worlds_replayed, 99);
        let (_, s_scalar) = prepared.run_batch_cached(std::slice::from_ref(&scalar), &mut cache);
        assert_eq!(
            s_scalar.worlds_replayed, 0,
            "scalar classes never replay word prefixes"
        );
        assert_eq!(s_scalar.unique_worlds, 99);
    }

    /// Each request run alone: one world class, so no class fan-out.
    fn standalone(prepared: &PreparedAudit, requests: &[AuditRequest]) -> Vec<AuditReport> {
        requests.iter().map(|r| prepared.run(r)).collect()
    }

    #[test]
    fn class_fan_out_matches_standalone_runs() {
        // Many distinct world classes in one batch: the rayon fan-out
        // over classes must be bit-identical to running each alone.
        let o = outcomes(800, 14, true);
        let rs = grid();
        let requests: Vec<AuditRequest> = (0..6)
            .map(|i| {
                let mut r = AuditRequest::from_config(&base()).with_seed(100 + i as u64);
                if i % 2 == 0 {
                    r = r.with_worldgen(WorldGen::Word);
                }
                if i % 3 == 0 {
                    r = r.with_null_model(NullModel::Permutation);
                }
                r
            })
            .collect();
        let prepared = PreparedAudit::prepare(&o, &rs, base()).unwrap();
        assert_eq!(
            prepared.run_batch(&requests),
            standalone(&prepared, &requests)
        );
    }

    #[test]
    fn sharded_prepared_audits_are_bit_identical_to_unsharded() {
        use crate::config::{CountingStrategy, Shards};
        // The sharded engine must reproduce every report byte — τ,
        // p-value, critical value, findings, simulated prefix — across
        // world classes and directions, for every shard count.
        let o = outcomes(900, 15, true);
        let rs = grid();
        let blocked = base().with_strategy(CountingStrategy::Blocked);
        let requests = vec![
            AuditRequest::from_config(&blocked),
            AuditRequest::from_config(&blocked).with_direction(Direction::High),
            AuditRequest::from_config(&blocked).with_worldgen(WorldGen::Scalar),
            AuditRequest::from_config(&blocked).with_null_model(NullModel::Permutation),
            AuditRequest::from_config(&blocked)
                .with_mc_strategy(McStrategy::EarlyStop { batch_size: 8 }),
        ];
        let unsharded = PreparedAudit::prepare(&o, &rs, blocked.with_shards(Shards::Fixed(1)))
            .unwrap()
            .run_batch(&requests);
        for k in [2usize, 3, 7] {
            let sharded = PreparedAudit::prepare(&o, &rs, blocked.with_shards(Shards::Fixed(k)))
                .unwrap()
                .run_batch(&requests);
            for (a, mut b) in unsharded.iter().zip(sharded) {
                // The shard knob is recorded in the report config but
                // must change nothing else.
                b.config.shards = a.config.shards;
                assert_eq!(*a, b, "shards={k}");
            }
        }
    }

    /// Classes fanned out in parallel while each short span fans its
    /// shard partials out (the fine axis), with more classes than
    /// threads: every report matches its request run alone.
    #[test]
    fn fanned_classes_over_fine_sharded_spans_match_standalone_runs() {
        use crate::config::{CountingStrategy, Shards};
        let o = outcomes(900, 21, true);
        let rs = grid();
        let config = base()
            .with_strategy(CountingStrategy::Blocked)
            .with_shards(Shards::Fixed(3));
        // Budgets below one batch per thread take the fine axis.
        let fine = MAX_FUSED_WORLDS * rayon::current_num_threads().max(2) - 1;
        let requests: Vec<AuditRequest> = (0..rayon::current_num_threads() as u64 + 3)
            .flat_map(|seed| {
                let request = AuditRequest::from_config(&config)
                    .with_seed(seed)
                    .with_worlds(fine);
                [
                    request,
                    request
                        .with_direction(Direction::Low)
                        .with_mc_strategy(McStrategy::EarlyStop { batch_size: 4 }),
                ]
            })
            .collect();
        let prepared = PreparedAudit::prepare(&o, &rs, config).unwrap();
        assert_eq!(
            prepared.run_batch(&requests),
            standalone(&prepared, &requests)
        );
    }

    #[test]
    fn request_serde_defaults_missing_worldgen_to_scalar() {
        // v1 wire payloads (no "worldgen" key) must keep decoding as
        // the v1 generator; the new field round-trips when present.
        let v1 = r#"{"alpha": 0.05, "worlds": 99, "seed": 3, "direction": "TwoSided",
                     "null_model": "Bernoulli", "mc_strategy": "FullBudget"}"#;
        let request: AuditRequest = serde_json::from_str(v1).unwrap();
        assert_eq!(request.worldgen, WorldGen::Scalar);
        assert_eq!(request.worlds, 99);
        let word = AuditRequest::new(0.05).with_worldgen(WorldGen::Word);
        let json = serde_json::to_string(&word).unwrap();
        assert!(json.contains("\"worldgen\":\"Word\""), "{json}");
        let back: AuditRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, word);
    }

    #[test]
    fn request_serde_round_trip() {
        let request = AuditRequest::new(0.01)
            .with_worlds(199)
            .with_seed(5)
            .with_direction(Direction::Low)
            .with_null_model(NullModel::Permutation)
            .with_mc_strategy(McStrategy::early_stop())
            .with_worldgen(WorldGen::Word);
        let json = serde_json::to_string(&request).unwrap();
        let back: AuditRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn world_budget_is_capped() {
        let mut request = AuditRequest::new(0.05);
        request.worlds = MAX_WORLDS;
        assert_eq!(request.validate(), Ok(()));
        for worlds in [MAX_WORLDS + 1, 1_000_000_000_000] {
            request.worlds = worlds;
            let err = request.validate().unwrap_err();
            assert!(matches!(err, ScanError::InvalidRequest { .. }), "{err}");
            assert!(err.to_string().contains("at most"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_request_alpha_rejected_at_plan_time() {
        let mut request = AuditRequest::new(0.05);
        request.alpha = 2.0;
        let _ = ExecutionPlan::new(vec![request]);
    }
}
