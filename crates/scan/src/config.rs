//! Audit configuration.

use crate::direction::Direction;
use serde::{Deserialize, Serialize};
pub use sfindex::CountingKernel;
pub use sfstats::bulk::WorldGen;
pub use sfstats::kernel::{ParseStatisticError, Statistic, TauKernel};
pub use sfstats::montecarlo::McStrategy;

/// How alternate-world labels are generated for the Monte Carlo
/// calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NullModel {
    /// The paper's model (§3): every label is an independent
    /// `Bernoulli(ρ̂)` draw, so the total number of positives varies
    /// across worlds.
    #[default]
    Bernoulli,
    /// Kulldorff-style conditioning: each world is a uniformly random
    /// permutation of the *observed* labels, so every world has exactly
    /// `P` positives. Provided as an extension and ablated in the
    /// benches.
    Permutation,
}

/// How per-world region counts are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CountingStrategy {
    /// Materialise each region's member ids (and the rings of nested
    /// regions) once; every world only recounts positives against a
    /// fresh label bitset (fast; memory proportional to total
    /// membership). Worlds are counted by sweeping the rings compiled
    /// into word-aligned masks, exactly as under
    /// [`CountingStrategy::Blocked`], which the engine reports as its
    /// resolved strategy.
    #[default]
    Membership,
    /// Re-run a spatial range query per region per world (no extra
    /// memory; slower). Exists mainly as the ablation baseline proving
    /// the membership path is an optimisation, not a semantic change.
    Requery,
    /// Membership lists whose rings are compiled into word-aligned
    /// `(block, mask)` popcnt runs over the label bitset's block array,
    /// laid out in Morton id order so compact regions own dense masks
    /// ([`sfindex::BlockedMembership`]). The per-world recount becomes
    /// a branch-free masked-popcount sweep — up to 64 ids per
    /// instruction instead of one bitset read per id — with each nested
    /// region adding its parent's count. Engines build the same
    /// structure for [`CountingStrategy::Membership`]; the two names
    /// differ only in the strategy a report echoes. Counts are
    /// bit-identical to the other strategies.
    Blocked,
    /// Measure the membership density `Σ n(R)` against its `M·N` worst
    /// case at build time and pick: [`CountingStrategy::Membership`]
    /// while the id lists stay cheap, [`CountingStrategy::Requery`]
    /// once materialising them would approach the dense extreme (see
    /// `ScanEngine`'s docs for the exact rule). Counts are identical in every case — this knob only trades
    /// memory against per-world constant factors.
    Auto,
}

impl CountingStrategy {
    /// All selectable strategies (drives parse-error messages and
    /// ablation sweeps).
    pub const ALL: [CountingStrategy; 4] = [
        CountingStrategy::Membership,
        CountingStrategy::Requery,
        CountingStrategy::Blocked,
        CountingStrategy::Auto,
    ];

    /// Stable lowercase name (CLI/bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            CountingStrategy::Membership => "membership",
            CountingStrategy::Requery => "requery",
            CountingStrategy::Blocked => "blocked",
            CountingStrategy::Auto => "auto",
        }
    }
}

impl std::fmt::Display for CountingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`CountingStrategy`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    input: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown counting strategy {:?}; valid values: ",
            self.input
        )?;
        for (i, strategy) in CountingStrategy::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(strategy.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for CountingStrategy {
    type Err = ParseStrategyError;

    /// Parses the [`Display`](std::fmt::Display) name back
    /// (`membership`, `requery`, `blocked`, `auto`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CountingStrategy::ALL
            .into_iter()
            .find(|strategy| strategy.name() == s.trim())
            .ok_or_else(|| ParseStrategyError {
                input: s.to_string(),
            })
    }
}

/// How many contiguous Morton-rank shards the engine partitions its
/// blocked counting structures into.
///
/// Sharding splits the label-word axis into contiguous windows, each
/// owning a clipped view of the blocked membership CSR
/// ([`sfindex::BlockedMembership::clip_to_words`]); a region count
/// becomes the sum of per-shard popcnt partials, which lets one world
/// evaluation fan out across cores. Results are **bit-identical** for
/// every shard count — integer partial sums reassociate exactly, and
/// world generation draws fixed-size chunk substreams that are
/// independent of the shard layout — so this knob only trades
/// parallelism against per-shard overhead, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Shards {
    /// One shard per available core, clamped to the label-word count.
    #[default]
    Auto,
    /// A fixed shard count (at least 1).
    Fixed(usize),
}

impl Shards {
    /// The concrete shard count for an engine spanning `num_words`
    /// label words: `Auto` resolves to the worker-thread count of the
    /// parallel runtime (the core count, probed once per process), and
    /// every request is clamped to `[1, max(num_words, 1)]` (a shard
    /// narrower than one word can never own anything).
    pub fn resolve(&self, num_words: usize) -> usize {
        let requested = match self {
            Shards::Auto => rayon::current_num_threads(),
            Shards::Fixed(k) => *k,
        };
        requested.clamp(1, num_words.max(1))
    }
}

impl std::fmt::Display for Shards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shards::Auto => f.write_str("auto"),
            Shards::Fixed(k) => write!(f, "{k}"),
        }
    }
}

/// Error from parsing a [`Shards`] value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseShardsError {
    input: String,
}

impl std::fmt::Display for ParseShardsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid shard count {:?}; expected \"auto\" or a positive integer",
            self.input
        )
    }
}

impl std::error::Error for ParseShardsError {}

impl std::str::FromStr for Shards {
    type Err = ParseShardsError;

    /// Parses the [`Display`](std::fmt::Display) form back (`auto` or
    /// a positive integer).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s == "auto" {
            return Ok(Shards::Auto);
        }
        match s.parse::<usize>() {
            Ok(k) if k >= 1 => Ok(Shards::Fixed(k)),
            _ => Err(ParseShardsError {
                input: s.to_string(),
            }),
        }
    }
}

impl Serialize for Shards {
    fn serialize(&self, w: &mut serde::Writer) {
        match self {
            Shards::Auto => w.str("auto"),
            Shards::Fixed(k) => w.u64(*k as u64),
        }
    }
}

impl Deserialize for Shards {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(s) = value.as_str() {
            return s
                .parse()
                .map_err(|e: ParseShardsError| serde::Error::msg(e.to_string()));
        }
        match value.as_u64() {
            Some(k) if k >= 1 => Ok(Shards::Fixed(k as usize)),
            _ => Err(serde::Error::msg(format!(
                "expected \"auto\" or a positive shard count, got {}",
                value.kind()
            ))),
        }
    }
}

/// Knobs for a spatial-fairness audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditConfig {
    /// Significance level `α` (the paper's experiments use 0.005).
    pub alpha: f64,
    /// Number of simulated Monte Carlo worlds (`w − 1`). Must satisfy
    /// `⌊α·(worlds+1)⌋ ≥ 1` for significance to be reachable; 999 is
    /// the customary choice for `α = 0.005`.
    pub worlds: usize,
    /// Base RNG seed (worlds use independent derived streams).
    pub seed: u64,
    /// Which deviation direction the audit is sensitive to.
    pub direction: Direction,
    /// Alternate-world label model.
    pub null_model: NullModel,
    /// Per-world counting strategy.
    pub strategy: CountingStrategy,
    /// Monte Carlo budget strategy: spend the full budget, or stop at
    /// the first batch where the verdict at `alpha` is decided.
    pub mc_strategy: McStrategy,
    /// World-generation algorithm version. [`WorldGen::Word`] (the
    /// default) draws Bernoulli labels 64 at a time from absolutely
    /// positioned chunk substreams, directly into the engine's
    /// layout-space label words; [`WorldGen::Scalar`] is the v1
    /// generator (one RNG value per point), kept selectable for
    /// replaying v1 results. The versions are statistically equivalent
    /// but consume the RNG stream differently, so this knob is part of
    /// the world-class identity `(null model, seed, worldgen)`
    /// everywhere worlds are shared or cached.
    pub worldgen: WorldGen,
    /// Shard count for the engine's blocked counting structures (see
    /// [`Shards`]). Results are bit-identical for every value; absent
    /// on pre-sharding wire payloads, which decode as [`Shards::Auto`].
    pub shards: Shards,
    /// Per-region test statistic the audit maximises (see
    /// [`Statistic`]). Unlike `shards` this knob *changes results*, so
    /// it is part of the world-class identity everywhere worlds are
    /// shared or cached. Absent on pre-statistic wire payloads, which
    /// decode as [`Statistic::BernoulliLlr`] — the paper's statistic,
    /// reproduced bit for bit.
    pub statistic: Statistic,
}

// Manual wire impls instead of the derive: `worldgen`, `shards` and
// `statistic` were added after the v1 wire format shipped, and configs
// are embedded in every serialized `AuditReport`/response envelope —
// older payloads without the fields must keep decoding (`worldgen`
// absent means the v1 Scalar generator; `shards` absent means Auto;
// `statistic` absent means the paper's Bernoulli LLR). The derive
// would hard-error on the missing fields. `statistic` is additionally
// *omitted when default*, so every response embedding a Bernoulli-LLR
// config serializes byte-identically to the pre-statistic wire format.
// The decoder reads only the keys below, so the `"kernel"`, `"backend"`
// and `"parallel"` fields that configs carried while those were knobs
// are ignored.
impl Serialize for AuditConfig {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("alpha", &self.alpha);
        w.field("worlds", &self.worlds);
        w.field("seed", &self.seed);
        w.field("direction", &self.direction);
        w.field("null_model", &self.null_model);
        w.field("strategy", &self.strategy);
        w.field("mc_strategy", &self.mc_strategy);
        w.field("worldgen", &self.worldgen);
        w.field("shards", &self.shards);
        if self.statistic != Statistic::BernoulliLlr {
            w.field("statistic", &self.statistic);
        }
        w.end_object();
    }
}

impl Deserialize for AuditConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(AuditConfig {
            alpha: serde::get_field(value, "alpha")?,
            worlds: serde::get_field(value, "worlds")?,
            seed: serde::get_field(value, "seed")?,
            direction: serde::get_field(value, "direction")?,
            null_model: serde::get_field(value, "null_model")?,
            strategy: serde::get_field(value, "strategy")?,
            mc_strategy: serde::get_field(value, "mc_strategy")?,
            worldgen: match value.get("worldgen") {
                Some(v) => WorldGen::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `worldgen`: {}", e.message)))?,
                // Absent on v1 payloads: the v1 generator.
                None => WorldGen::Scalar,
            },
            shards: match value.get("shards") {
                Some(v) => Shards::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `shards`: {}", e.message)))?,
                // Absent on pre-sharding payloads.
                None => Shards::Auto,
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

impl AuditConfig {
    /// Creates a config at significance level `alpha` with the paper's
    /// defaults: 999 worlds, two-sided, Bernoulli null, membership
    /// counting, full Monte Carlo budget, word world generation, auto
    /// sharding.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        AuditConfig {
            alpha,
            worlds: 999,
            seed: 0,
            direction: Direction::TwoSided,
            null_model: NullModel::Bernoulli,
            strategy: CountingStrategy::Membership,
            mc_strategy: McStrategy::FullBudget,
            worldgen: WorldGen::Word,
            shards: Shards::Auto,
            statistic: Statistic::BernoulliLlr,
        }
    }

    /// The paper's experimental setting: `α = 0.005`, 999 worlds.
    pub fn paper() -> Self {
        Self::new(0.005)
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

    /// Sets the counting strategy.
    pub fn with_strategy(mut self, strategy: CountingStrategy) -> Self {
        self.strategy = strategy;
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

    /// Enables batched early-stopping Monte Carlo with the default
    /// batch size (see [`McStrategy::EarlyStop`]).
    pub fn with_early_stop(self) -> Self {
        self.with_mc_strategy(McStrategy::early_stop())
    }

    /// Sets the world-generation algorithm version.
    pub fn with_worldgen(mut self, worldgen: WorldGen) -> Self {
        self.worldgen = worldgen;
        self
    }

    /// Sets the engine shard count (results are identical for every
    /// value; see [`Shards`]).
    pub fn with_shards(mut self, shards: Shards) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-region test statistic (this knob *changes
    /// results*; see [`Statistic`]).
    pub fn with_statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// Returns `true` when the Monte Carlo budget can reach
    /// significance at this `alpha` (i.e. `⌊α·w⌋ ≥ 1`).
    pub fn budget_sufficient(&self) -> bool {
        (self.alpha * (self.worlds + 1) as f64).floor() >= 1.0
    }
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AuditConfig::paper();
        assert_eq!(c.alpha, 0.005);
        assert_eq!(c.worlds, 999);
        assert_eq!(c.direction, Direction::TwoSided);
        assert_eq!(c.null_model, NullModel::Bernoulli);
        assert_eq!(c.mc_strategy, McStrategy::FullBudget);
        assert_eq!(
            c.worldgen,
            WorldGen::Word,
            "word-parallel v2 generation is the default; scalar remains \
             the v1 replay escape hatch"
        );
        assert_eq!(c.shards, Shards::Auto);
        assert!(c.budget_sufficient());
    }

    #[test]
    fn worldgen_selectable() {
        let c = AuditConfig::new(0.05).with_worldgen(WorldGen::Word);
        assert_eq!(c.worldgen, WorldGen::Word);
        for gen in WorldGen::ALL {
            assert_eq!(gen.to_string().parse::<WorldGen>().unwrap(), gen);
        }
    }

    #[test]
    fn builders_chain() {
        let c = AuditConfig::new(0.05)
            .with_worlds(99)
            .with_seed(7)
            .with_direction(Direction::Low)
            .with_null_model(NullModel::Permutation)
            .with_strategy(CountingStrategy::Requery)
            .with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 })
            .with_shards(Shards::Fixed(3));
        assert_eq!(c.worlds, 99);
        assert_eq!(c.seed, 7);
        assert_eq!(c.direction, Direction::Low);
        assert_eq!(c.null_model, NullModel::Permutation);
        assert_eq!(c.strategy, CountingStrategy::Requery);
        assert_eq!(c.mc_strategy, McStrategy::EarlyStop { batch_size: 16 });
        assert_eq!(c.shards, Shards::Fixed(3));
        assert!(c.budget_sufficient());
    }

    #[test]
    fn early_stop_convenience() {
        let c = AuditConfig::new(0.05).with_early_stop();
        assert_eq!(c.mc_strategy, McStrategy::early_stop());
    }

    #[test]
    fn auto_strategy_selectable() {
        let c = AuditConfig::new(0.05).with_strategy(CountingStrategy::Auto);
        assert_eq!(c.strategy, CountingStrategy::Auto);
    }

    #[test]
    fn strategy_parse_round_trips() {
        for strategy in CountingStrategy::ALL {
            let shown = strategy.to_string();
            assert_eq!(shown.parse::<CountingStrategy>().unwrap(), strategy);
        }
        let err = "bitmap".parse::<CountingStrategy>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bitmap"), "{msg}");
        for strategy in CountingStrategy::ALL {
            assert!(msg.contains(strategy.name()), "{msg}");
        }
    }

    #[test]
    fn config_serde_round_trips_and_defaults_missing_worldgen() {
        let config = AuditConfig::new(0.01)
            .with_worlds(199)
            .with_seed(5)
            .with_strategy(CountingStrategy::Blocked)
            .with_worldgen(WorldGen::Word);
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("\"worldgen\":\"Word\""), "{json}");
        let back: AuditConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // A v1 config payload (no "worldgen" key — the shape embedded
        // in every pre-v2 serialized AuditReport) keeps decoding and
        // means the v1 Scalar generator.
        let v1 = r#"{"alpha": 0.005, "worlds": 999, "seed": 0,
                     "direction": "TwoSided", "null_model": "Bernoulli",
                     "strategy": "Membership", "backend": "KdTree",
                     "mc_strategy": "FullBudget", "parallel": true}"#;
        let config: AuditConfig = serde_json::from_str(v1).unwrap();
        assert_eq!(config.worldgen, WorldGen::Scalar);
        assert_eq!(config.shards, Shards::Auto);
        assert_eq!(
            config,
            AuditConfig::paper().with_worldgen(WorldGen::Scalar),
            "a v1 payload is today's defaults with the v1 generator"
        );
    }

    /// Configs and reports serialized while the index backend and the
    /// world parallelism were knobs carry `"backend"` and `"parallel"`
    /// fields; whatever they hold, they decode to what the same payload
    /// without them decodes to.
    #[test]
    fn legacy_backend_and_parallel_fields_are_ignored() {
        let legacy_fields = [
            "\"backend\":\"KdTree\",",
            "\"backend\":\"Brute\",",
            "\"backend\":\"QuadTree\",",
            "\"parallel\":true,",
            "\"parallel\":false,",
            "\"backend\":\"Brute\",\"parallel\":false,",
        ];
        for config in [
            AuditConfig::paper(),
            AuditConfig::new(0.05)
                .with_strategy(CountingStrategy::Requery)
                .with_statistic(Statistic::MeanResidual),
        ] {
            let json = serde_json::to_string(&config).unwrap();
            assert!(!json.contains("backend"), "{json}");
            assert!(!json.contains("parallel"), "{json}");
            for field in legacy_fields {
                let legacy =
                    json.replacen("\"mc_strategy\"", &format!("{field}\"mc_strategy\""), 1);
                assert_ne!(legacy, json, "no `mc_strategy` key to insert before");
                let back: AuditConfig =
                    serde_json::from_str(&legacy).unwrap_or_else(|e| panic!("{legacy}: {e}"));
                assert_eq!(back, config, "{legacy}");
            }
        }
    }

    #[test]
    fn shards_parse_and_resolve() {
        assert_eq!("auto".parse::<Shards>().unwrap(), Shards::Auto);
        assert_eq!(" 8 ".parse::<Shards>().unwrap(), Shards::Fixed(8));
        assert!("0".parse::<Shards>().is_err());
        assert!("-2".parse::<Shards>().is_err());
        assert!("many".parse::<Shards>().is_err());
        for shards in [Shards::Auto, Shards::Fixed(1), Shards::Fixed(12)] {
            assert_eq!(shards.to_string().parse::<Shards>().unwrap(), shards);
        }
        // Fixed counts clamp to the word axis; Auto always resolves to
        // at least one shard.
        assert_eq!(Shards::Fixed(7).resolve(100), 7);
        assert_eq!(Shards::Fixed(7).resolve(3), 3);
        assert_eq!(Shards::Fixed(1).resolve(0), 1);
        assert!(Shards::Auto.resolve(1_000_000) >= 1);
        assert_eq!(Shards::Auto.resolve(1), 1);
    }

    #[test]
    fn shards_serde_round_trips_and_defaults_missing_field() {
        let fixed = AuditConfig::new(0.05).with_shards(Shards::Fixed(4));
        let json = serde_json::to_string(&fixed).unwrap();
        assert!(json.contains("\"shards\":4"), "{json}");
        let back: AuditConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, Shards::Fixed(4));
        let auto = AuditConfig::new(0.05);
        let json = serde_json::to_string(&auto).unwrap();
        assert!(json.contains("\"shards\":\"auto\""), "{json}");
        let back: AuditConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, Shards::Auto);
        assert!(serde_json::from_str::<Shards>("0").is_err());
        assert!(serde_json::from_str::<Shards>("\"several\"").is_err());
    }

    /// Configs and reports serialized while the counting kernel was a
    /// knob carry a `"kernel"` field in the config; whatever it holds,
    /// they decode to what the same payload without it decodes to.
    #[test]
    fn legacy_kernel_field_is_ignored() {
        use crate::report::AuditReport;
        let legacy_kernels = [
            "\"Auto\"",
            "\"Scalar\"",
            "\"Avx2\"",
            "\"Avx512\"",
            "\"Portable\"",
            "3",
        ];
        let with_legacy_kernel = |json: &str, kernel: &str| {
            let legacy = json.replacen("\"shards\"", &format!("\"kernel\":{kernel},\"shards\""), 1);
            assert_ne!(legacy, json, "no `shards` key to insert before");
            legacy
        };
        for config in [
            AuditConfig::new(0.05),
            AuditConfig::paper()
                .with_statistic(Statistic::EqualOppTpr)
                .with_shards(Shards::Fixed(3)),
        ] {
            let json = serde_json::to_string(&config).unwrap();
            assert!(!json.contains("kernel"), "{json}");
            let report = AuditReport {
                config,
                n_total: 10,
                p_total: 4,
                rate: 0.4,
                num_regions: 0,
                region_set: "none".into(),
                tau: 0.0,
                best_region_index: 0,
                p_value: 1.0,
                critical_value: 0.0,
                findings: Vec::new(),
                worlds_evaluated: 2,
                simulated: vec![0.0, 0.5],
            };
            let report_json = report.to_json();
            for kernel in legacy_kernels {
                let legacy = with_legacy_kernel(&json, kernel);
                let back: AuditConfig =
                    serde_json::from_str(&legacy).unwrap_or_else(|e| panic!("{legacy}: {e}"));
                assert_eq!(back, config, "{legacy}");
                let legacy = with_legacy_kernel(&report_json, kernel);
                let back: AuditReport =
                    serde_json::from_str(&legacy).unwrap_or_else(|e| panic!("{legacy}: {e}"));
                assert_eq!(back, report, "{legacy}");
            }
        }
    }

    #[test]
    fn statistic_serde_skips_default_and_round_trips() {
        // The default statistic is OMITTED, so a Bernoulli-LLR config
        // serializes byte-identically to the pre-statistic format.
        let default = AuditConfig::new(0.05);
        let json = serde_json::to_string(&default).unwrap();
        assert!(!json.contains("statistic"), "{json}");
        let back: AuditConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.statistic, Statistic::BernoulliLlr);
        // Non-default statistics serialize their kebab token and round
        // trip.
        for statistic in [Statistic::EqualOppTpr, Statistic::MeanResidual] {
            let config = AuditConfig::new(0.05).with_statistic(statistic);
            let json = serde_json::to_string(&config).unwrap();
            assert!(
                json.contains(&format!("\"statistic\":\"{}\"", statistic.name())),
                "{json}"
            );
            let back: AuditConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config);
        }
        // Pre-statistic payloads keep decoding and mean the LLR.
        let v1 = r#"{"alpha": 0.005, "worlds": 999, "seed": 0,
                     "direction": "TwoSided", "null_model": "Bernoulli",
                     "strategy": "Membership", "backend": "KdTree",
                     "mc_strategy": "FullBudget", "parallel": true}"#;
        let config: AuditConfig = serde_json::from_str(v1).unwrap();
        assert_eq!(config.statistic, Statistic::BernoulliLlr);
        assert!(serde_json::from_str::<Statistic>("\"poisson\"").is_err());
    }

    #[test]
    fn insufficient_budget_detected() {
        // 99 worlds cannot certify at alpha = 0.005 (floor(0.5) = 0).
        let c = AuditConfig::new(0.005).with_worlds(99);
        assert!(!c.budget_sufficient());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = AuditConfig::new(1.5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_worlds_rejected() {
        let _ = AuditConfig::new(0.05).with_worlds(0);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_rejected() {
        let _ = AuditConfig::new(0.05).with_mc_strategy(McStrategy::EarlyStop { batch_size: 0 });
    }
}
