//! Region counting and Monte Carlo world evaluation.
//!
//! The scan engine precomputes everything that is *world-invariant*:
//! each region's membership ring, the masks compiled from the rings,
//! and therefore every `n(R)`. A Monte Carlo world then only needs to
//! (a) draw labels from the null model and (b) recount `p(R)` per
//! region — a cache-friendly sweep over the masks against a label
//! bitset.
//!
//! # Pluggable substrates
//!
//! [`ScanEngine::build`] builds a kd-tree over the outcomes; library
//! users and tests with another [`CountingSubstrate`] (any index
//! providing exact range counts and member-id enumeration, such as the
//! brute-force oracle the kd-tree is tested against) use
//! [`ScanEngine::from_index`]. The index is queried once per region at
//! build time, to list its members. An engine built from those lists
//! then keeps only the rings and masks: the index, the full lists and
//! the region geometry are dropped once the rings are taken. Only a
//! requery engine keeps the index and the regions, and queries them
//! again per world. Indexes are exact, so every choice produces
//! **bit-identical** audits — the kd-vs-brute engine tests pin that
//! property.
//!
//! # World layout
//!
//! Every engine stores a world in one layout: point `id`'s label is bit
//! `to_pos[id]`, the Morton (Z-order) rank of its location
//! ([`morton_layout`]), so a spatially compact region owns dense runs
//! of bit positions. [`ScanEngine::from_index`] enumerates each
//! region's members once, through a view of the substrate that reports
//! every member as its position: membership rings hold positions, the
//! masks compiled from the rings are word-aligned
//! `(block, mask)` popcnt runs over them
//! ([`sfindex::BlockedMembership`]), and requery engines recount worlds
//! through the same view. The real labels are laid out once, at build
//! ([`ScanEngine::real_world`]).
//!
//! Worlds are drawn by a versioned generator ([`WorldGen`]). `Scalar`
//! is the v1 stream: one RNG value per point, in id order, each written
//! to its point's position. `Word` draws Bernoulli labels 64 at a time
//! ([`sfstats::bulk::BulkBernoulli`]) in position order, in fixed
//! [`GEN_CHUNK_WORDS`]-word chunks, each from its own absolutely
//! positioned substream ([`sfstats::rng::chunk_rng`], keyed by a
//! single tag value off the world stream): whole-word stores with no
//! per-bit writes. Word permutation worlds write the dense majority
//! side as whole words and Fisher–Yates-select only the minority. The versions are
//! statistically equivalent but consume the RNG stream differently;
//! within a version, every strategy and index draws the same bitset,
//! so every `τ` is bit-identical.
//!
//! # Containment-delta counting
//!
//! Scan families nest: [`RegionSet::squares`] and
//! [`RegionSet::circles`] list each centre's regions from smallest to
//! largest, so a region is its predecessor plus a thin ring. When
//! [`Membership::build`] finds region `r − 1`'s sorted member list to
//! be a non-empty subset of region `r`'s (one merge per region at
//! prepare time, no geometry), `r − 1` becomes `r`'s parent and `r`
//! stores the ring `members(r) \ members(r − 1)`. [`ScanEngine::eval`]
//! then counts every world as `p(r) = p(parent) + count(ring(r))` in
//! region order, sweeping each ring's masks (see *Counting
//! representation*): on the paper's 100 centres × 20 sides over the
//! small SynthLAR the rings hold 22,901 ids in 2,497 mask words, against
//! 306,981 ids in the full lists. Grid cells and other partitions get no
//! parents and count their full lists as before. The adds are exact
//! integers, so every `τ` is bit-identical. [`ScanEngine::scan_real`]
//! counts the real world through the same rings
//! ([`Membership::count_all_into`]); the independent check on both
//! sweeps is a requery engine, which recounts every region through the
//! index.
//!
//! # Exact τ fold
//!
//! A world's `τ` is the maximum region score, so only a score that
//! beats the running maximum can change it. [`ScanEngine::fold_counts`]
//! (behind [`ScanEngine::eval`], the distributed coordinator and every
//! other world path) hands the region-major count matrix to
//! [`fold_matrix`], which walks it one region row at a time, eight
//! worlds per row: one branch-free pass validates the row's counts and
//! screens every world lane with the region's Pearson `X²`, an upper
//! bound on the LLR. The exact deviation `d = p·N − n·P` routes each
//! region's single LLR to `TwoSided` plus `High` (`d > 0`) or `Low`
//! (`d < 0`); a lane that passes the screen meets a tighter
//! second-order bound, and the logs are taken only when that bound,
//! plus a rounding margin, reaches the smallest running `τ` among the
//! slots the region feeds. Mean-residual scores take no logs and run
//! the plain per-direction loop. Skipped regions are exactly those
//! whose score could not have won, each world still sees its regions
//! in ascending order, and the LLR formula is unchanged, so every `τ`
//! is bit-identical to the per-region, per-direction
//! [`TauKernel::score`] loop that [`ScanEngine::scan_real_with`] still
//! runs; the `fold_oracle` property tests pin the two against each
//! other.
//!
//! # Counting representation
//!
//! Every engine built from membership lists —
//! [`CountingStrategy::Membership`], [`CountingStrategy::Blocked`] and
//! Auto's membership leg — counts worlds through one structure: the
//! masks [`BlockedMembership::compile`] builds from the [`Membership`]
//! rings, each ring as word-aligned popcnt runs and each region adding
//! its parent's count. [`ScanEngine::eval`] sweeps them one batch of
//! worlds at a time, loading each `(block, mask)` pair once for the
//! whole batch. On the 16×16 grid over 20,000 points a sweep reads 571
//! mask words instead of 20,000 ids. The fused sweep of a full batch
//! beats gathering the same ring ids world by world on every family
//! the `blocked_counting` bench measures, down to one id per mask word.
//!
//! [`CountingStrategy::Auto`] resolves Membership vs Requery from the
//! measured membership density: with `M` regions over `N` points,
//! materialised id lists hold `Σ n(R)` of the `M·N` possible entries
//! (4 bytes each). Auto picks Membership while that stays cheap
//! (`Σ n(R) ≤ 2^26` ids, i.e. 256 MiB) and falls back to Requery when
//! the lists grow past the cap *or* past half the dense `M·N` extreme on
//! large inputs — the regime where the lists lose their cache advantage
//! and the memory bill dominates.
//!
//! [`ScanEngine::resolved_strategy`] reports `Blocked` for every
//! engine built from lists, all of which answer
//! [`ScanEngine::membership`] and [`ScanEngine::blocked`].
//!
//! # Sharded counting
//!
//! [`ScanEngine::with_shards`] partitions a mask-sweeping engine's
//! label-word axis into contiguous shards, each owning a clipped view
//! of the masks; [`ScanEngine::eval`] with `fine` set fans a
//! batch's recount across the shards and sums exact integer partials,
//! and the chunked `Word` generator fills label chunks in parallel
//! ([`ScanEngine::generate_world_par`]). Every `τ` is bit-identical to
//! the unsharded engine's for every shard count.
//!
//! # Count integrity
//!
//! The requery path trusts two *independent* answers from the
//! substrate: the aggregate `count(R).n` measured once at build
//! (world-invariant `n(R)`) and the per-world id enumeration behind
//! `count_with`. A substrate bug that makes them disagree would
//! silently corrupt every simulated `τ` in release builds, so engine
//! construction cross-validates them once per region — in every build
//! profile — and returns [`ScanError::CountIntegrity`] instead of an
//! engine rather than serve corrupt counts. Under every strategy, an
//! enumerated id past the point count is
//! [`ScanError::MembershipIntegrity`]; so is an id enumerated twice for
//! a region, which [`Membership::build`] catches while it still holds
//! the full list.

use crate::config::{CountingStrategy, NullModel, Shards, WorldGen};
use crate::direction::Direction;
use crate::error::ScanError;
use crate::outcomes::SpatialOutcomes;
use crate::regions::RegionSet;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use sfindex::{
    morton_layout, shard_word_bounds, BitLabels, BlockedBuildError, BlockedMembership, CountPair,
    CountingKernel, CountingSubstrate, KdTree, Membership, PointVisit, MAX_FUSED_WORLDS,
};
use sfstats::bulk::{BulkBernoulli, GEN_CHUNK_WORDS};
use sfstats::kernel::{fold_matrix, Statistic, TauKernel, FOLD_LANES};
use std::cell::{Cell, RefCell};

/// Membership id cap for [`CountingStrategy::Auto`]: 2^26 ids
/// (256 MiB of `u32`s).
const AUTO_MAX_MEMBERSHIP_IDS: u64 = 1 << 26;

/// Density threshold for [`CountingStrategy::Auto`] on large inputs:
/// above half the dense `M·N` extreme, requery wins on memory without
/// losing asymptotics.
const AUTO_DENSITY_CAP: f64 = 0.5;

/// When the *measured* membership total `Σ n(R)` is below this many
/// ids, Auto always takes Membership (density is irrelevant when the
/// materialized lists fit in cache).
const AUTO_SMALL_INPUT_IDS: u64 = 1 << 22;

/// Largest capacity (in ids) the per-thread Fisher–Yates scratch
/// keeps between worlds: 2^22 ids = 16 MiB per worker thread. Audits
/// beyond this size re-allocate per world rather than pinning the
/// buffer for the thread's lifetime.
const FISHER_YATES_RETAIN_CAP: usize = 1 << 22;

thread_local! {
    /// Reusable partial-Fisher–Yates index buffer: permutation worlds
    /// need a `0..n` id array to sample exactly `P` positive positions;
    /// reusing one buffer per thread removes an `O(n)` allocation from
    /// every world while keeping results bit-identical (the buffer is
    /// deterministically re-initialised per world).
    static FISHER_YATES_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Result of scanning the *real* world: per-region statistics.
#[derive(Debug, Clone)]
pub struct RealScan {
    /// Per-region `(n(R), p(R))`.
    pub counts: Vec<CountPair>,
    /// Per-region log-likelihood ratios.
    pub llrs: Vec<f64>,
    /// The test statistic `τ = max LLR`.
    pub tau: f64,
    /// Index of the region attaining `τ`.
    pub best_index: usize,
}

/// The per-world counting structure actually in effect after strategy
/// resolution.
enum Counting {
    /// Membership rings, plus the masks compiled from them that every
    /// world is counted through (see *Counting representation* in the
    /// module docs).
    Lists {
        membership: Membership,
        masks: Box<BlockedMembership>,
    },
    /// Range query per region per world, through the index the engine
    /// was built over.
    Requery {
        index: Box<dyn CountingSubstrate>,
        regions: Vec<sfgeo::Region>,
    },
}

/// Precomputed scan state shared by the real-world pass and every
/// Monte Carlo world.
pub struct ScanEngine {
    counting: Counting,
    region_n: Vec<u64>,
    n_total: u64,
    p_total: u64,
    /// The world layout, `id → bit position` (see the module docs).
    to_pos: Vec<u32>,
    /// The real labels in the world layout.
    real_world: BitLabels,
    /// Clipped per-shard counting views over the swept masks
    /// ([`BlockedMembership::clip_to_words`]), tiling the label-word
    /// axis. Empty when unsharded (a requery engine, or a shard count
    /// that resolved to 1) — see [`ScanEngine::with_shards`].
    shard_views: Vec<BlockedMembership>,
    /// The `(word_lo, word_hi)` window of each entry in `shard_views`.
    shard_bounds: Vec<(usize, usize)>,
    /// The counting tile body the mask sweeps run on, picked from the
    /// CPU at build ([`CountingKernel::detect`]). Both bodies produce
    /// bit-identical counts; requery engines ignore it (they have no
    /// masks to popcount).
    kernel: CountingKernel,
    /// The engine's *default* per-region test statistic, used by
    /// [`ScanEngine::scan_real`]. [`ScanEngine::eval`] and
    /// [`ScanEngine::scan_real_with`] take an explicit [`Statistic`],
    /// which the batched executor uses to serve mixed-statistic
    /// batches off one engine.
    statistic: Statistic,
}

impl ScanEngine {
    /// Builds the engine over a kd-tree: membership rings and masks
    /// (unless the strategy is requery), world-invariant `n(R)`.
    ///
    /// # Errors
    /// See [`ScanEngine::from_index`].
    pub fn build(
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        strategy: CountingStrategy,
    ) -> Result<Self, ScanError> {
        let index = KdTree::build(outcomes.points().to_vec(), outcomes.bit_labels());
        Self::from_index(index, outcomes, regions, strategy)
    }

    /// Builds the engine over a caller-provided substrate (custom
    /// indexes and the brute-force oracle plug in here). Engines built
    /// from membership lists drop the substrate once their rings are
    /// taken; requery engines keep it.
    ///
    /// # Errors
    /// * [`ScanError::CountIntegrity`] — the substrate's aggregate
    ///   `count(R).n` disagrees with its member-id enumeration for some
    ///   region. The requery world loop trusts both answers, so the
    ///   engine cross-validates them here, once, in every build profile
    ///   (a `debug_assert` alone would let the corruption through in
    ///   release).
    /// * [`ScanError::MembershipIntegrity`] — the substrate enumerated
    ///   an id `>= N`, or the same id twice for one region.
    ///
    /// # Panics
    /// Panics if the substrate indexes a different number of points
    /// than `outcomes` holds (programmer error, not data-dependent).
    pub fn from_index<I: CountingSubstrate + 'static>(
        index: I,
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        strategy: CountingStrategy,
    ) -> Result<Self, ScanError> {
        assert_eq!(
            index.len(),
            outcomes.len(),
            "substrate must index exactly the audited points"
        );
        let regions = regions.regions();
        // Every strategy enumerates members through `positions`, so
        // rings, masks and requery recounts all address the Morton
        // layout the generators write.
        let to_pos = morton_layout(outcomes.points());
        let positions = Positions::new(&index, &to_pos);
        // World-invariant n(R). The list-building paths read it from
        // the lists they build anyway; Requery/Auto measure it
        // with one range-count query per region (for Auto that
        // measurement IS the membership density the resolution rule
        // decides on).
        let (build_lists, measured_n) = match strategy {
            CountingStrategy::Membership | CountingStrategy::Blocked => (true, None),
            CountingStrategy::Requery | CountingStrategy::Auto => {
                let region_n: Vec<u64> = regions.iter().map(|r| index.count(r).n).collect();
                let total_ids: u64 = region_n.iter().sum();
                let resolved = resolve_strategy(
                    strategy,
                    total_ids,
                    regions.len() as u64,
                    outcomes.len() as u64,
                );
                (resolved == CountingStrategy::Membership, Some(region_n))
            }
        };
        let (counting, region_n) = if build_lists {
            let membership = Membership::build(&positions, outcomes.len(), regions);
            positions.check()?;
            let membership = membership.map_err(|e| membership_integrity(e, &to_pos))?;
            let masks = BlockedMembership::compile(&membership)
                .map_err(|e| membership_integrity(e, &to_pos))?;
            let region_n: Vec<u64> = (0..membership.num_regions())
                .map(|r| membership.n_of(r))
                .collect();
            // Auto's aggregate counts, which drove the density decision,
            // must agree with the enumeration the worlds will actually
            // be counted with — otherwise scan_real and the Monte Carlo
            // fold would silently use different n(R).
            if let Some(aggregate) = measured_n {
                if let Some(r) = (0..region_n.len()).find(|&r| aggregate[r] != region_n[r]) {
                    return Err(ScanError::CountIntegrity {
                        region: r,
                        aggregate_n: aggregate[r],
                        enumerated_n: region_n[r],
                    });
                }
            }
            let masks = Box::new(masks);
            (Counting::Lists { membership, masks }, region_n)
        } else {
            let region_n = measured_n.expect("requery engines measure n(R)");
            validate_count_integrity(&positions, regions, &region_n)?;
            // Requery alone keeps the index and the regions; every
            // other engine drops them at the end of this build.
            let index = Box::new(index);
            (
                Counting::Requery {
                    index,
                    regions: regions.to_vec(),
                },
                region_n,
            )
        };
        let mut real_world = BitLabels::zeros(outcomes.len());
        for (&label, &pos) in outcomes.labels().iter().zip(&to_pos) {
            if label {
                real_world.set(pos as usize, true);
            }
        }
        Ok(ScanEngine {
            counting,
            region_n,
            n_total: outcomes.len() as u64,
            p_total: outcomes.positives(),
            to_pos,
            real_world,
            shard_views: Vec::new(),
            shard_bounds: Vec::new(),
            kernel: CountingKernel::detect(),
            statistic: Statistic::BernoulliLlr,
        })
    }

    /// Partitions this engine's masks into contiguous label-word
    /// shards (see [`Shards`]): each shard owns a clipped view of the
    /// masks, and [`ScanEngine::eval`] with `fine` set sums per-shard
    /// popcnt partials in parallel. Requery engines have no word axis
    /// to shard; for them — or when the count resolves to 1 — this is
    /// a no-op. Results are bit-identical for every value.
    pub fn with_shards(mut self, shards: Shards) -> Self {
        self.shard_views.clear();
        self.shard_bounds.clear();
        if let Some(b) = self.blocked() {
            let num_words = b.num_label_words();
            let k = shards.resolve(num_words);
            if k > 1 {
                let bounds = shard_word_bounds(num_words, k);
                self.shard_views = bounds
                    .iter()
                    .map(|&(lo, hi)| b.clip_to_words(lo, hi))
                    .collect();
                self.shard_bounds = bounds;
            }
        }
        self
    }

    /// The counting tile body the mask sweeps run on: the one
    /// [`CountingKernel::detect`] picked from the CPU at build.
    pub fn kernel(&self) -> CountingKernel {
        self.kernel
    }

    /// Sets the engine's default per-region test statistic (what
    /// [`ScanEngine::scan_real`] computes; [`ScanEngine::eval`] and
    /// [`ScanEngine::scan_real_with`] take one per call). Unlike
    /// `with_shards` this knob *changes results* — see
    /// [`Statistic`].
    pub fn with_statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = statistic;
        self
    }

    /// The engine's default per-region test statistic.
    pub fn statistic(&self) -> Statistic {
        self.statistic
    }

    /// Number of shards the world-evaluation sweep fans out over
    /// (1 = unsharded).
    pub fn num_shards(&self) -> usize {
        self.shard_views.len().max(1)
    }

    /// The `(word_lo, word_hi)` windows of the engine's shards (empty
    /// when unsharded).
    pub fn shard_bounds(&self) -> &[(usize, usize)] {
        &self.shard_bounds
    }

    /// Number of points.
    pub fn num_points(&self) -> usize {
        self.n_total as usize
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.region_n.len()
    }

    /// Global totals `(N, P)`.
    pub fn totals(&self) -> CountPair {
        CountPair {
            n: self.n_total,
            p: self.p_total,
        }
    }

    /// World-invariant region observation counts.
    pub fn region_n(&self) -> &[u64] {
        &self.region_n
    }

    /// Total membership ids `Σ n(R)` — the measured density numerator
    /// that [`CountingStrategy::Auto`] decides on.
    pub fn total_membership_ids(&self) -> u64 {
        self.region_n.iter().sum()
    }

    /// The counting path in effect after resolving
    /// [`CountingStrategy::Auto`]: `Blocked` for every engine built
    /// from membership lists (they all sweep masks), `Requery`
    /// otherwise.
    pub fn resolved_strategy(&self) -> CountingStrategy {
        match &self.counting {
            Counting::Lists { .. } => CountingStrategy::Blocked,
            Counting::Requery { .. } => CountingStrategy::Requery,
        }
    }

    /// Measured density of the swept masks (ring ids per ring word),
    /// for engines built from membership lists.
    pub fn blocked_ids_per_word(&self) -> Option<f64> {
        self.blocked().map(BlockedMembership::ids_per_word)
    }

    /// The membership rings of every engine built from membership
    /// lists (every strategy but requery). They hold world-layout
    /// positions, not point ids.
    pub fn membership(&self) -> Option<&Membership> {
        match &self.counting {
            Counting::Lists { membership, .. } => Some(membership),
            Counting::Requery { .. } => None,
        }
    }

    /// The ring-compiled masks this engine sweeps per world, for every
    /// engine built from membership lists.
    pub fn blocked(&self) -> Option<&BlockedMembership> {
        match &self.counting {
            Counting::Lists { masks, .. } => Some(masks),
            Counting::Requery { .. } => None,
        }
    }

    /// The real labels as a world in this engine's layout: what
    /// [`ScanEngine::scan_real_with`] counts, and what to hand
    /// [`ScanEngine::eval`] to score the observed data as a world.
    pub fn real_world(&self) -> &BitLabels {
        &self.real_world
    }

    /// Scans the real world: per-region counts, scores, and `τ`, with
    /// the engine's default statistic.
    pub fn scan_real(&self, direction: Direction) -> RealScan {
        self.scan_real_with(self.statistic, direction)
    }

    /// Scans the real world with an explicit statistic: per-region
    /// counts, scores, and `τ = max score`.
    pub fn scan_real_with(&self, statistic: Statistic, direction: Direction) -> RealScan {
        // The rings' scalar sweep, not the masks; a requery engine
        // counts through its index, the independent check on both.
        let counts: Vec<CountPair> = match &self.counting {
            Counting::Lists { membership, .. } => {
                let mut p = Vec::new();
                membership.count_all_into(&self.real_world, &mut p);
                let n = self.region_n.iter();
                n.zip(p).map(|(&n, p)| CountPair { n, p }).collect()
            }
            Counting::Requery { index, regions } => {
                regions.iter().map(|r| index.count(r)).collect()
            }
        };
        let kernel = TauKernel::new(statistic, self.n_total, self.p_total);
        let mut llrs = Vec::with_capacity(counts.len());
        let mut tau = 0.0f64;
        let mut best_index = 0usize;
        for (i, c) in counts.iter().enumerate() {
            let llr = kernel.score(c.n, c.p, direction);
            if llr > tau {
                tau = llr;
                best_index = i;
            }
            llrs.push(llr);
        }
        RealScan {
            counts,
            llrs,
            tau,
            best_index,
        }
    }

    /// Draws one alternate world with the v1 [`WorldGen::Scalar`]
    /// generator — shorthand for [`ScanEngine::generate_world_with`]
    /// with [`WorldGen::Scalar`] (the stream every released artifact
    /// was computed under).
    pub fn generate_world(&self, null_model: NullModel, rng: &mut ChaCha8Rng) -> BitLabels {
        self.generate_world_with(null_model, WorldGen::Scalar, rng)
    }

    /// Draws one alternate world's labels from the null model with the
    /// given generator version.
    ///
    /// * [`NullModel::Bernoulli`] — each label is `Bernoulli(ρ̂)`
    ///   (the paper's model; world totals vary).
    /// * [`NullModel::Permutation`] — a uniform permutation of the
    ///   observed labels (exactly `P` positives per world), sampled by
    ///   a partial Fisher–Yates over a reusable per-thread scratch
    ///   buffer (no per-world allocation).
    ///
    /// The returned bitset is in the engine's world layout (see the
    /// module docs): point `id`'s label is bit `to_pos[id]`.
    ///
    /// **Generator versions.** [`WorldGen::Scalar`] draws one RNG
    /// value per point, in id order; [`WorldGen::Word`] draws
    /// Bernoulli labels 64 at a time ([`BulkBernoulli`]) in position
    /// order, chunked into absolutely positioned substreams (one tag
    /// draw from the world stream keys them all), one whole-word store
    /// per 64 labels. Word permutation worlds select positions by
    /// partial Fisher–Yates, initialising the dense majority side with
    /// whole-word writes and setting only the minority (`min(P, N−P)`
    /// bits). The two versions consume the RNG stream differently, so
    /// they are distinct world classes — but *within* each version,
    /// every strategy and index draws the same bitset, which is what
    /// keeps every strategy's `τ` bit-identical.
    pub fn generate_world_with(
        &self,
        null_model: NullModel,
        worldgen: WorldGen,
        rng: &mut ChaCha8Rng,
    ) -> BitLabels {
        match worldgen {
            WorldGen::Scalar => self.generate_world_scalar(null_model, rng),
            WorldGen::Word => self.generate_world_word(null_model, rng),
        }
    }

    /// Draws one world like [`ScanEngine::generate_world_with`], with
    /// the generation work itself fanned out across the rayon pool
    /// when the generator admits it: Bernoulli [`WorldGen::Word`]
    /// worlds fill their label chunks in parallel, one contiguous
    /// group of chunks per thread (each chunk substream is positioned
    /// absolutely — see [`sfstats::rng::chunk_rng`]). Every other
    /// (generator, null model) combination delegates to the
    /// sequential path: Fisher–Yates permutation draws couple
    /// sequentially by construction, and Scalar is the pinned v1
    /// stream. The returned labels are bit-identical to the sequential
    /// path's in every case.
    pub fn generate_world_par(
        &self,
        null_model: NullModel,
        worldgen: WorldGen,
        rng: &mut ChaCha8Rng,
    ) -> BitLabels {
        if worldgen != WorldGen::Word || null_model != NullModel::Bernoulli {
            return self.generate_world_with(null_model, worldgen, rng);
        }
        let n = self.n_total as usize;
        let mut labels = BitLabels::zeros(n);
        let rho = self.p_total as f64 / self.n_total as f64;
        let sampler = BulkBernoulli::new(rho);
        let tag = rng.next_u64();
        let chunks = n.div_ceil(64).div_ceil(GEN_CHUNK_WORDS);
        let group = chunks.div_ceil(rayon::current_num_threads()).max(1);
        labels
            .blocks_mut()
            .par_chunks_mut(group * GEN_CHUNK_WORDS)
            .enumerate()
            .for_each(|(g, words)| fill_chunks(&sampler, tag, g * group, words, n));
        labels
    }

    /// Draws only the label words `word_lo..word_hi` of one world —
    /// the shard-local generation a distributed count-partial worker
    /// runs: a worker owning a [`BlockedMembership::clip_to_words`]
    /// window regenerates exactly the words its clipped CSR can read,
    /// not the whole world.
    ///
    /// The window path applies to Bernoulli [`WorldGen::Word`] worlds,
    /// whose labels come from absolutely positioned chunk substreams
    /// ([`sfstats::rng::chunk_rng`]): the generator consumes the same
    /// single tag draw from `rng` as the full-world path and fills only
    /// the [`GEN_CHUNK_WORDS`]-aligned chunks overlapping the window
    /// (in one chunk-range fill), so every word **inside** the window
    /// is bit-identical to [`ScanEngine::generate_world_with`]'s.
    /// Words outside the requested chunks stay zero — callers must only
    /// read the window (a clipped counting view does by construction;
    /// window popcounts use [`BitLabels::count_ones_in_words`]).
    ///
    /// Every other (generator, null model) combination couples its
    /// draws sequentially (Fisher–Yates permutation, the pinned v1
    /// Scalar stream) and falls back to generating the full world —
    /// still deterministic in `(seed, world)`, so a re-dispatched span
    /// regenerates bit-identical labels; the window is then simply a
    /// view of it.
    pub fn generate_world_window(
        &self,
        null_model: NullModel,
        worldgen: WorldGen,
        rng: &mut ChaCha8Rng,
        word_lo: usize,
        word_hi: usize,
    ) -> BitLabels {
        if worldgen != WorldGen::Word || null_model != NullModel::Bernoulli {
            return self.generate_world_with(null_model, worldgen, rng);
        }
        let n = self.n_total as usize;
        let num_words = n.div_ceil(64);
        let word_hi = word_hi.min(num_words);
        let mut labels = BitLabels::zeros(n);
        let rho = self.p_total as f64 / self.n_total as f64;
        let sampler = BulkBernoulli::new(rho);
        let tag = rng.next_u64();
        let c_lo = word_lo / GEN_CHUNK_WORDS;
        let c_hi = word_hi.div_ceil(GEN_CHUNK_WORDS);
        if c_lo < c_hi {
            let words = &mut labels.blocks_mut()
                [c_lo * GEN_CHUNK_WORDS..(c_hi * GEN_CHUNK_WORDS).min(num_words)];
            fill_chunks(&sampler, tag, c_lo, words, n);
        }
        labels
    }

    /// The v1 per-point generator (see
    /// [`ScanEngine::generate_world_with`]).
    fn generate_world_scalar(&self, null_model: NullModel, rng: &mut ChaCha8Rng) -> BitLabels {
        let n = self.n_total as usize;
        match null_model {
            NullModel::Bernoulli => {
                let rho = self.p_total as f64 / self.n_total as f64;
                let mut labels = BitLabels::zeros(n);
                for &pos in &self.to_pos {
                    if rng.gen_bool(rho) {
                        labels.set(pos as usize, true);
                    }
                }
                labels
            }
            NullModel::Permutation => {
                // Partial Fisher-Yates: choose exactly P ids.
                let p = self.p_total as usize;
                let mut labels = BitLabels::zeros(n);
                with_fisher_yates_scratch(n, |idx| {
                    for i in 0..p {
                        let j = rng.gen_range(i..n);
                        idx.swap(i, j);
                        labels.set(self.to_pos[idx[i] as usize] as usize, true);
                    }
                });
                labels
            }
        }
    }

    /// The v2 word-parallel generator (see
    /// [`ScanEngine::generate_world_with`]). Lane `j` of drawn word
    /// `w` is the label at position `64·w + j`.
    ///
    /// Bernoulli worlds consume exactly **one** value from the world
    /// stream: a 64-bit *tag* keying the absolutely positioned chunk
    /// substreams ([`sfstats::rng::chunk_rng`]) the labels are actually
    /// drawn from, [`GEN_CHUNK_WORDS`] words per chunk. Chunk `c`'s
    /// substream does not depend on how many draws chunks `0..c`
    /// consumed, so chunks can fill sequentially, in parallel
    /// ([`ScanEngine::generate_world_par`]), or split across engine
    /// shards — all bit-identically.
    fn generate_world_word(&self, null_model: NullModel, rng: &mut ChaCha8Rng) -> BitLabels {
        let n = self.n_total as usize;
        let mut labels = BitLabels::zeros(n);
        match null_model {
            NullModel::Bernoulli => {
                let rho = self.p_total as f64 / self.n_total as f64;
                let sampler = BulkBernoulli::new(rho);
                let tag = rng.next_u64();
                fill_chunks(&sampler, tag, 0, labels.blocks_mut(), n);
            }
            NullModel::Permutation => {
                // Word-masked partial Fisher–Yates over positions:
                // write the dense majority side as whole words, then
                // select and set only the minority side — min(P, N−P)
                // single-bit writes and RNG draws instead of P. The
                // polarity dispatch is hoisted out of the selection
                // loop so each variant is a tight swap-and-set.
                let p = self.p_total as usize;
                let (select, dense_ones) = if 2 * p <= n {
                    (p, false)
                } else {
                    (n - p, true)
                };
                if dense_ones {
                    for w in 0..labels.num_blocks() {
                        labels.set_word(w, !0);
                    }
                }
                with_fisher_yates_scratch(n, |idx| {
                    if dense_ones {
                        for i in 0..select {
                            let j = rng.gen_range(i..n);
                            idx.swap(i, j);
                            labels.set(idx[i] as usize, false);
                        }
                    } else {
                        for i in 0..select {
                            let j = rng.gen_range(i..n);
                            idx.swap(i, j);
                            labels.set(idx[i] as usize, true);
                        }
                    }
                });
            }
        }
        labels
    }

    /// Evaluates a batch of worlds: recounts `p(R)` per region under
    /// every world, then writes world `w`'s `τ` for `directions[d]`
    /// into `out[w * directions.len() + d]` (world-major — the layout
    /// the batched executor's span buffer already uses). Each `τ` is
    /// computed against its world's own totals, as the statistic is a
    /// function of the observed data.
    ///
    /// Counting fills the region-major matrix `counts[r * W + w]` and
    /// [`ScanEngine::fold_counts`] scores it, so every evaluation path
    /// shares one fold. Recounting is the expensive,
    /// direction-independent part of a world; the per-direction score
    /// is cheap arithmetic on the same `(n, p)` pair, so one counting
    /// pass serves every direction. How the matrix is filled depends
    /// on the counting strategy:
    ///
    /// * engines built from membership lists count the worlds eight per
    ///   pass over the ring masks
    ///   ([`BlockedMembership::count_all_many_into`]): each lane group
    ///   is transposed into a tile of one 64-byte line per label word,
    ///   and each run costs one line for all eight worlds. With `fine`
    ///   set on an engine with more than one shard, one rayon task per
    ///   shard runs that sweep over its clipped CSR view (whose tile
    ///   holds only its own word window) and the exact integer partials
    ///   are summed in shard order. Each region's count is its parent's count plus
    ///   its ring's (see *Containment-delta counting* in the module
    ///   docs);
    /// * requery engines query world by world.
    ///
    /// `fine` is the work-splitter's axis flag (see
    /// [`WorldEvaluator::eval_span`](crate::prepared::WorldEvaluator)):
    /// set when the caller walks batches sequentially and the
    /// evaluation should fan its shards out instead. It moves only
    /// scheduling. Every `τ` is bit-identical whatever the strategy,
    /// batch width, shard count or `fine`: counts are exact integers,
    /// and each world's scores are compared in region order through
    /// the same [`TauKernel`].
    ///
    /// **Layout contract:** every world must be in the world layout
    /// (see the module docs): drawn by an engine over the same dataset,
    /// or [`ScanEngine::real_world`]. A bitset indexed by point id
    /// type-checks but counts the wrong bits.
    ///
    /// # Panics
    /// Panics if `out.len() != worlds.len() * directions.len()`, or if
    /// any world is not one bit per indexed point (a wrong-length world
    /// would silently undercount in release builds otherwise).
    pub fn eval(
        &self,
        statistic: Statistic,
        worlds: &[&BitLabels],
        directions: &[Direction],
        out: &mut [f64],
        fine: bool,
    ) {
        assert_eq!(
            out.len(),
            worlds.len() * directions.len(),
            "one output slot per (world, direction)"
        );
        for labels in worlds {
            assert_eq!(
                labels.len(),
                self.n_total as usize,
                "world label set must be one bit per indexed point"
            );
        }
        let width = worlds.len();
        let len = self.region_n.len() * width;
        // The mask sweep sizes the matrix and stores every slot, so it
        // starts empty, not zeroed: only the shard fan-out (which adds
        // into it) and Requery (which skips empty regions) zero it.
        let mut counts = Vec::new();
        match &self.counting {
            Counting::Lists { .. } if fine && self.shard_views.len() > 1 => {
                let partials: Vec<Vec<u64>> = (0..self.shard_views.len())
                    .into_par_iter()
                    .map(|s| {
                        let mut counts = Vec::new();
                        self.shard_views[s].count_all_many_into(worlds, self.kernel, &mut counts);
                        counts
                    })
                    .collect();
                counts.resize(len, 0);
                for shard in &partials {
                    for (acc, &c) in counts.iter_mut().zip(shard) {
                        *acc += c;
                    }
                }
            }
            Counting::Lists { masks, .. } => {
                masks.count_all_many_into(worlds, self.kernel, &mut counts)
            }
            Counting::Requery { index, regions } => {
                counts.resize(len, 0);
                let positions = Positions::new(index.as_ref(), &self.to_pos);
                for (w, labels) in worlds.iter().enumerate() {
                    for (r, (region, &n_r)) in regions.iter().zip(&self.region_n).enumerate() {
                        if n_r == 0 {
                            continue;
                        }
                        let c = positions.count_with(region, labels);
                        // Unreachable after the build-time integrity
                        // check (count_with's n is label-independent);
                        // kept as a debug-build tripwire only.
                        debug_assert_eq!(c.n, n_r, "region n must be world-invariant");
                        counts[r * width + w] = c.p;
                    }
                }
            }
        }
        let p_worlds: Vec<u64> = worlds.iter().map(|labels| labels.count_ones()).collect();
        self.fold_counts(statistic, &p_worlds, &counts, directions, out);
    }

    /// The world fold — the only place a simulated world's `τ` is
    /// scored: `counts[r * W + w]` is `p(R_r)` under world `w`,
    /// `p_worlds[w]` that world's total positives. [`fold_matrix`]
    /// walks the matrix region row by region row, eight worlds per
    /// row, and writes exactly the per-direction maximum of
    /// [`TauKernel::score`] over the non-empty regions while scoring
    /// each region once and skipping the logs of regions that cannot
    /// win (see *Exact τ fold* in the module docs) — so a caller that
    /// reduces exact integer count partials from *anywhere* (engine
    /// shards, shard-worker processes, a degraded local recount) and
    /// feeds them here gets `τ` values bit-identical to
    /// [`ScanEngine::eval`]. This is the distributed coordinator's
    /// folding half.
    ///
    /// # Panics
    /// Panics when the matrix dimensions disagree with
    /// `p_worlds.len() × directions.len()` / the region count, or on a
    /// count the statistic's validation rejects (a region holding more
    /// positives than observations, or than the world), with
    /// [`Counts2x2::new`](sfstats::Counts2x2::new)'s message.
    pub fn fold_counts(
        &self,
        statistic: Statistic,
        p_worlds: &[u64],
        counts: &[u64],
        directions: &[Direction],
        out: &mut [f64],
    ) {
        fold_matrix(
            statistic,
            self.n_total,
            &self.region_n,
            p_worlds,
            counts,
            directions,
            out,
        );
    }
}

// One fused counting batch is exactly one lane group of the fold.
const _: () = assert!(FOLD_LANES == MAX_FUSED_WORLDS);

/// Fills the label words of the generation chunks `first_chunk..`
/// that `words` covers ([`GEN_CHUNK_WORDS`] words per chunk; the last
/// chunk of the world shorter). `n` is the engine's total label count:
/// the label count passed on trims the world's final word, preserving
/// the zero-tail invariant of [`BitLabels::blocks`].
fn fill_chunks(sampler: &BulkBernoulli, tag: u64, first_chunk: usize, words: &mut [u64], n: usize) {
    let n_words = (n - first_chunk * GEN_CHUNK_WORDS * 64).min(words.len() * 64);
    sampler.fill_chunks(tag, first_chunk, words, n_words);
}

/// Runs `f` over the per-thread Fisher–Yates index buffer,
/// deterministically re-initialised to `0..n` (same contents as a
/// fresh `(0..n).collect()`, without the alloc), then bounds the
/// retained capacity so one huge audit cannot pin a worker-lifetime
/// buffer in a long-lived process.
fn with_fisher_yates_scratch(n: usize, f: impl FnOnce(&mut Vec<u32>)) {
    FISHER_YATES_SCRATCH.with(|scratch| {
        let mut idx = scratch.borrow_mut();
        idx.clear();
        idx.extend(0..n as u32);
        f(&mut idx);
        if idx.capacity() > FISHER_YATES_RETAIN_CAP {
            idx.clear();
            idx.shrink_to(FISHER_YATES_RETAIN_CAP);
        }
    });
}

/// A substrate seen in the world layout: it enumerates every member
/// as its position `to_pos[id]`, so membership lists, blocked masks and
/// requery recounts all address the bits the generators write. An id
/// `>= N` is not passed on; the first one is kept for
/// [`Positions::check`].
struct Positions<'a, I: ?Sized> {
    index: &'a I,
    to_pos: &'a [u32],
    out_of_range: Cell<Option<u32>>,
}

impl<'a, I: PointVisit + ?Sized> Positions<'a, I> {
    fn new(index: &'a I, to_pos: &'a [u32]) -> Self {
        Positions {
            index,
            to_pos,
            out_of_range: Cell::new(None),
        }
    }

    /// [`ScanError::MembershipIntegrity`] if an enumeration so far
    /// produced an id `>= N`.
    fn check(&self) -> Result<(), ScanError> {
        match self.out_of_range.get() {
            None => Ok(()),
            Some(id) => Err(ScanError::MembershipIntegrity {
                reason: format!(
                    "member id {id} enumerated, but only {} points are indexed",
                    self.to_pos.len()
                ),
            }),
        }
    }
}

impl<I: PointVisit + ?Sized> PointVisit for Positions<'_, I> {
    fn for_each_in(&self, region: &sfgeo::Region, visit: &mut dyn FnMut(u32)) {
        self.index
            .for_each_in(region, &mut |id| match self.to_pos.get(id as usize) {
                Some(&pos) => visit(pos),
                None => self.out_of_range.set(self.out_of_range.get().or(Some(id))),
            });
    }
}

/// [`ScanError::MembershipIntegrity`] for lists the membership build
/// or the mask compiler rejected. A region whose enumeration repeats
/// an id would double-count `p(R)` (and inflate `n(R)`) in every
/// world; the lists hold positions, so the error names the point id
/// stored at the repeated one.
fn membership_integrity(err: BlockedBuildError, to_pos: &[u32]) -> ScanError {
    let reason = match err {
        BlockedBuildError::DuplicateId { region, id: pos } => {
            let id = to_pos
                .iter()
                .position(|&p| p == pos)
                .expect("every listed position is some id's");
            format!("region {region}: duplicate member id {id}")
        }
        err => err.to_string(),
    };
    ScanError::MembershipIntegrity { reason }
}

/// Cross-validates the substrate's aggregate region counts against its
/// member-id enumeration — the two answers the requery world loop
/// trusts to agree. Runs once per engine build, in release builds too
/// (this is the promotion of the old hot-loop `debug_assert`, moved
/// where it costs one enumeration instead of one branch per region per
/// world).
fn validate_count_integrity<I: PointVisit + ?Sized>(
    positions: &Positions<'_, I>,
    regions: &[sfgeo::Region],
    region_n: &[u64],
) -> Result<(), ScanError> {
    for (r, (region, &aggregate_n)) in regions.iter().zip(region_n).enumerate() {
        let mut enumerated_n = 0u64;
        positions.for_each_in(region, &mut |_| enumerated_n += 1);
        positions.check()?;
        if enumerated_n != aggregate_n {
            return Err(ScanError::CountIntegrity {
                region: r,
                aggregate_n,
                enumerated_n,
            });
        }
    }
    Ok(())
}

/// Resolves [`CountingStrategy::Auto`] from the measured membership
/// density (see the module docs for the rule and rationale).
fn resolve_strategy(
    requested: CountingStrategy,
    total_ids: u64,
    num_regions: u64,
    num_points: u64,
) -> CountingStrategy {
    match requested {
        CountingStrategy::Membership | CountingStrategy::Requery | CountingStrategy::Blocked => {
            requested
        }
        CountingStrategy::Auto => {
            if total_ids <= AUTO_SMALL_INPUT_IDS {
                return CountingStrategy::Membership;
            }
            if total_ids > AUTO_MAX_MEMBERSHIP_IDS {
                return CountingStrategy::Requery;
            }
            let dense_extreme = (num_regions as f64) * (num_points as f64);
            let density = total_ids as f64 / dense_extreme.max(1.0);
            if density > AUTO_DENSITY_CAP {
                CountingStrategy::Requery
            } else {
                CountingStrategy::Membership
            }
        }
    }
}

#[cfg(test)]
mod fold_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::RegionSet;
    use sfgeo::{Point, Rect};

    /// 100 points on a 10x10 grid; left half positive.
    fn outcomes() -> SpatialOutcomes {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for iy in 0..10 {
            for ix in 0..10 {
                points.push(Point::new(ix as f64 + 0.5, iy as f64 + 0.5));
                labels.push(ix < 5);
            }
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    fn region_set() -> RegionSet {
        RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 2, 1)
    }

    /// One world's `τ` per direction through [`ScanEngine::eval`], with
    /// the engine's default statistic.
    fn eval_one(e: &ScanEngine, labels: &BitLabels, dirs: &[Direction], fine: bool) -> Vec<f64> {
        let mut out = vec![0.0; dirs.len()];
        e.eval(e.statistic(), &[labels], dirs, &mut out, fine);
        out
    }

    /// One world's `τ` for a single direction.
    fn tau(e: &ScanEngine, labels: &BitLabels, d: Direction) -> f64 {
        eval_one(e, labels, &[d], false)[0]
    }

    /// `strategy` engines over the kd-tree (what [`ScanEngine::build`]
    /// builds) and over the brute-force oracle index.
    fn kd_and_brute(
        o: &SpatialOutcomes,
        regions: &RegionSet,
        strategy: CountingStrategy,
    ) -> [(&'static str, ScanEngine); 2] {
        let brute = sfindex::BruteForceIndex::build(o.points().to_vec(), o.bit_labels());
        [
            ("kdtree", ScanEngine::build(o, regions, strategy).unwrap()),
            (
                "brute",
                ScanEngine::from_index(brute, o, regions, strategy).unwrap(),
            ),
        ]
    }

    #[test]
    fn real_scan_counts_are_exact() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let real = e.scan_real(Direction::TwoSided);
        // Left half: 50 obs, all positive. Right half: 50 obs, none.
        assert_eq!(real.counts[0], CountPair::new(50, 50));
        assert_eq!(real.counts[1], CountPair::new(50, 0));
        // Perfect split: LLR = N ln 2 (both halves deterministic vs rho=0.5).
        let expected = 100.0 * (2.0f64).ln();
        assert!((real.tau - expected).abs() < 1e-9, "tau {}", real.tau);
        assert!(real.llrs[0] > 0.0 && real.llrs[1] > 0.0);
    }

    #[test]
    fn membership_and_requery_agree() {
        let o = outcomes();
        let mem = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let req = ScanEngine::build(&o, &region_set(), CountingStrategy::Requery).unwrap();
        let a = mem.scan_real(Direction::TwoSided);
        let b = req.scan_real(Direction::TwoSided);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.llrs, b.llrs);
        assert_eq!(mem.real_world(), req.real_world());
        // And for simulated worlds: both engines draw the same bitset.
        let mut rng = sfstats::rng::world_rng(5, 0);
        let labels = mem.generate_world(NullModel::Bernoulli, &mut rng);
        let mut rng = sfstats::rng::world_rng(5, 0);
        assert_eq!(req.generate_world(NullModel::Bernoulli, &mut rng), labels);
        let ta = tau(&mem, &labels, Direction::TwoSided);
        let tb = tau(&req, &labels, Direction::TwoSided);
        assert_eq!(ta, tb);
    }

    #[test]
    fn kd_and_brute_engines_produce_identical_scans_and_worlds() {
        let o = outcomes();
        let reference = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let ref_real = reference.scan_real(Direction::TwoSided);
        for strategy in CountingStrategy::ALL {
            for (backend, e) in kd_and_brute(&o, &region_set(), strategy) {
                assert_eq!(e.region_n(), reference.region_n(), "{backend} {strategy:?}");
                assert_eq!(
                    e.real_world(),
                    reference.real_world(),
                    "{backend} {strategy:?}"
                );
                if let Some(m) = e.membership() {
                    let want = reference.membership().unwrap();
                    for r in 0..m.num_regions() {
                        assert_eq!(m.parent(r), want.parent(r), "{backend} {strategy:?}");
                        assert_eq!(m.ring(r), want.ring(r), "{backend} {strategy:?}");
                    }
                }
                let real = e.scan_real(Direction::TwoSided);
                assert_eq!(real.counts, ref_real.counts, "{backend} {strategy:?}");
                assert_eq!(real.llrs, ref_real.llrs, "{backend} {strategy:?}");
                assert_eq!(real.tau, ref_real.tau, "{backend} {strategy:?}");
                for world in 0..5 {
                    let mut rng = sfstats::rng::world_rng(9, world);
                    let labels = e.generate_world(NullModel::Permutation, &mut rng);
                    let mut ref_rng = sfstats::rng::world_rng(9, world);
                    let ref_labels = reference.generate_world(NullModel::Permutation, &mut ref_rng);
                    assert_eq!(labels, ref_labels, "{backend} {strategy:?}");
                    assert_eq!(
                        tau(&e, &labels, Direction::TwoSided),
                        tau(&reference, &ref_labels, Direction::TwoSided),
                        "{backend} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_upgrades_dense_small_inputs_to_blocked() {
        // 100 grid points, two half-plane regions: the Morton layout
        // packs each half into a handful of words, so Auto's
        // membership pick upgrades to blocked counting.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Auto).unwrap();
        assert_eq!(e.resolved_strategy(), CountingStrategy::Blocked);
        assert_eq!(e.total_membership_ids(), 100);
        assert!(
            e.blocked_ids_per_word().unwrap() >= 4.0,
            "density {:?}",
            e.blocked_ids_per_word()
        );
    }

    #[test]
    fn auto_sweeps_masks_even_when_sparse() {
        // One-point regions: every mask holds a single bit. A fused
        // batch sweep still reads no more than the id gather did, so
        // Auto's membership pick sweeps these masks too, and counts
        // them exactly.
        let o = outcomes();
        let singles = RegionSet::from_regions(
            o.points()
                .iter()
                .step_by(7)
                .map(|p| sfgeo::Region::Rect(Rect::square(*p, 0.2)))
                .collect(),
        );
        let e = ScanEngine::build(&o, &singles, CountingStrategy::Auto).unwrap();
        assert_eq!(e.resolved_strategy(), CountingStrategy::Blocked);
        assert_eq!(e.blocked_ids_per_word(), Some(1.0));
        let oracle = ScanEngine::build(&o, &singles, CountingStrategy::Requery).unwrap();
        for d in [Direction::TwoSided, Direction::Low] {
            let want = tau(&oracle, oracle.real_world(), d).to_bits();
            assert_eq!(tau(&e, e.real_world(), d).to_bits(), want, "{d}");
        }
    }

    #[test]
    fn blocked_strategy_matches_membership_taus() {
        let o = outcomes();
        let mem = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let blk = ScanEngine::build(&o, &region_set(), CountingStrategy::Blocked).unwrap();
        assert_eq!(blk.resolved_strategy(), CountingStrategy::Blocked);
        let a = mem.scan_real(Direction::TwoSided);
        let b = blk.scan_real(Direction::TwoSided);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.llrs, b.llrs);
        for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
            for w in 0..10 {
                let mut rng = sfstats::rng::world_rng(31, w);
                let mem_world = mem.generate_world(null_model, &mut rng);
                let mut rng = sfstats::rng::world_rng(31, w);
                let blk_world = blk.generate_world(null_model, &mut rng);
                assert_eq!(mem_world, blk_world);
                assert_eq!(
                    tau(&mem, &mem_world, Direction::TwoSided),
                    tau(&blk, &blk_world, Direction::TwoSided),
                    "{null_model:?} world {w}"
                );
            }
        }
    }

    #[test]
    fn fused_world_batches_match_per_world_eval() {
        let o = outcomes();
        let directions = [Direction::TwoSided, Direction::High, Direction::Low];
        for strategy in [CountingStrategy::Blocked, CountingStrategy::Membership] {
            for shards in [Shards::Fixed(1), Shards::Fixed(3)] {
                let e = ScanEngine::build(&o, &region_set(), strategy)
                    .unwrap()
                    .with_shards(shards);
                for (batch, fine) in [1usize, 3, 8, 11]
                    .into_iter()
                    .flat_map(|batch| [(batch, false), (batch, true)])
                {
                    let worlds: Vec<BitLabels> = (0..batch)
                        .map(|w| {
                            let mut rng = sfstats::rng::world_rng(53, w as u64);
                            e.generate_world(NullModel::Permutation, &mut rng)
                        })
                        .collect();
                    let refs: Vec<&BitLabels> = worlds.iter().collect();
                    let mut fused = vec![0.0f64; batch * directions.len()];
                    e.eval(e.statistic(), &refs, &directions, &mut fused, fine);
                    for (w, labels) in worlds.iter().enumerate() {
                        let single = eval_one(&e, labels, &directions, fine);
                        assert_eq!(
                            &fused[w * directions.len()..(w + 1) * directions.len()],
                            &single[..],
                            "{strategy:?} {shards:?} batch {batch} fine {fine} world {w}"
                        );
                    }
                }
            }
        }
    }

    /// A substrate whose aggregate counts lie relative to its id
    /// enumeration — the corruption class the build-time integrity
    /// check exists to catch (in release builds, where a
    /// `debug_assert` would wave it through).
    struct LyingIndex {
        inner: sfindex::BruteForceIndex,
    }

    impl sfindex::RangeCount for LyingIndex {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn total(&self) -> CountPair {
            self.inner.total()
        }
        fn count(&self, region: &sfgeo::Region) -> CountPair {
            let c = self.inner.count(region);
            // Inflate n(R): enumeration will disagree.
            CountPair { n: c.n + 1, p: c.p }
        }
    }

    impl sfindex::PointVisit for LyingIndex {
        fn for_each_in(&self, region: &sfgeo::Region, visit: &mut dyn FnMut(u32)) {
            self.inner.for_each_in(region, visit)
        }
    }

    #[test]
    fn count_integrity_violation_is_rejected_at_build() {
        // Both strategies that consult aggregate counts must refuse a
        // lying substrate: Requery (worlds re-enumerate against the
        // aggregate n(R)) and Auto (the aggregate drives the density
        // decision but enumeration does the counting).
        let o = outcomes();
        for strategy in [CountingStrategy::Requery, CountingStrategy::Auto] {
            let index = LyingIndex {
                inner: sfindex::BruteForceIndex::build(o.points().to_vec(), o.bit_labels()),
            };
            let err = ScanEngine::from_index(index, &o, &region_set(), strategy)
                .err()
                .expect("a lying substrate must not produce an engine");
            // This must hold in release builds too — it replaced a
            // debug_assert in the world-evaluation hot path.
            assert!(
                matches!(
                    err,
                    ScanError::CountIntegrity {
                        region: 0,
                        aggregate_n: 51,
                        enumerated_n: 50,
                    }
                ),
                "unexpected error {err:?} for {strategy:?}"
            );
            assert!(err.to_string().contains("count integrity"));
        }
    }

    /// A substrate that enumerates an id twice — `Membership::build`
    /// sorts and range-checks but cannot reject duplicates, so the
    /// blocked compilation is the backstop.
    struct DoubleVisitIndex {
        inner: sfindex::BruteForceIndex,
    }

    impl sfindex::RangeCount for DoubleVisitIndex {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn total(&self) -> CountPair {
            self.inner.total()
        }
        fn count(&self, region: &sfgeo::Region) -> CountPair {
            self.inner.count(region)
        }
    }

    impl sfindex::PointVisit for DoubleVisitIndex {
        fn for_each_in(&self, region: &sfgeo::Region, visit: &mut dyn FnMut(u32)) {
            // Repeat the last member of every region.
            let mut last = None;
            self.inner.for_each_in(region, &mut |id| {
                visit(id);
                last = Some(id);
            });
            if let Some(id) = last {
                visit(id);
            }
        }
    }

    #[test]
    fn duplicate_enumeration_is_an_error_not_a_panic() {
        let o = outcomes();
        for strategy in [CountingStrategy::Blocked, CountingStrategy::Membership] {
            let index = DoubleVisitIndex {
                inner: sfindex::BruteForceIndex::build(o.points().to_vec(), o.bit_labels()),
            };
            let err = ScanEngine::from_index(index, &o, &region_set(), strategy)
                .err()
                .expect("duplicate member ids must not count");
            assert!(
                matches!(err, ScanError::MembershipIntegrity { .. }),
                "unexpected error {err:?} for {strategy:?}"
            );
            // The error names the repeated point (id 94, the left
            // half's last), not the bit position it is stored at.
            assert_ne!(morton_layout(o.points())[94], 94);
            assert!(
                err.to_string().contains("region 0: duplicate member id 94"),
                "{err}"
            );
        }
    }

    /// A substrate that enumerates one id past the point count in
    /// every region.
    struct OutOfRangeIndex {
        inner: sfindex::BruteForceIndex,
    }

    impl sfindex::RangeCount for OutOfRangeIndex {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn total(&self) -> CountPair {
            self.inner.total()
        }
        fn count(&self, region: &sfgeo::Region) -> CountPair {
            self.inner.count(region)
        }
    }

    impl sfindex::PointVisit for OutOfRangeIndex {
        fn for_each_in(&self, region: &sfgeo::Region, visit: &mut dyn FnMut(u32)) {
            self.inner.for_each_in(region, visit);
            visit(sfindex::RangeCount::len(&self.inner) as u32);
        }
    }

    #[test]
    fn out_of_range_enumeration_is_an_error_not_a_panic() {
        let o = outcomes();
        for strategy in CountingStrategy::ALL {
            let index = OutOfRangeIndex {
                inner: sfindex::BruteForceIndex::build(o.points().to_vec(), o.bit_labels()),
            };
            let err = ScanEngine::from_index(index, &o, &region_set(), strategy)
                .err()
                .expect("an id past the point count must not count");
            assert!(
                matches!(err, ScanError::MembershipIntegrity { .. }),
                "unexpected error {err:?} for {strategy:?}"
            );
            assert!(err.to_string().contains("member id 100"), "{err}");
        }
    }

    #[test]
    fn auto_resolution_rule() {
        use CountingStrategy::*;
        // Small inputs: always membership, even at density 1.
        assert_eq!(
            resolve_strategy(Auto, 1 << 20, 1 << 10, 1 << 10),
            Membership
        );
        // Over the absolute id cap: requery.
        assert_eq!(
            resolve_strategy(Auto, (1 << 26) + 1, 1 << 13, 1 << 20),
            Requery
        );
        // Large but sparse: membership.
        assert_eq!(
            resolve_strategy(Auto, 1 << 24, 1 << 10, 1 << 20),
            Membership
        );
        // Large and dense (> half of M*N): requery.
        assert_eq!(resolve_strategy(Auto, 1 << 24, 1 << 4, 1 << 20), Requery);
        // Explicit strategies pass through untouched.
        assert_eq!(resolve_strategy(Membership, u64::MAX, 1, 1), Membership);
        assert_eq!(resolve_strategy(Requery, 0, 1, 1), Requery);
        assert_eq!(resolve_strategy(Blocked, u64::MAX, 1, 1), Blocked);
    }

    /// 100 grid points, 70% positive — exercises the Word permutation
    /// generator's dense-majority complement path (`2P > N`).
    fn dense_outcomes() -> SpatialOutcomes {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for iy in 0..10 {
            for ix in 0..10 {
                points.push(Point::new(ix as f64 + 0.5, iy as f64 + 0.5));
                labels.push((ix + 10 * iy) % 10 < 7);
            }
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    #[test]
    fn word_generator_is_bit_identical_across_strategies_and_indexes() {
        // The Word tentpole invariant: same (seed, null model) => same
        // per-point labels and same τ, whatever the storage layout,
        // counting strategy, or index.
        for o in [outcomes(), dense_outcomes()] {
            let reference =
                ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
            for strategy in CountingStrategy::ALL {
                for (backend, e) in kd_and_brute(&o, &region_set(), strategy) {
                    for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
                        for w in 0..5 {
                            let mut rng = sfstats::rng::world_rng(13, w);
                            let labels =
                                e.generate_world_with(null_model, WorldGen::Word, &mut rng);
                            let mut ref_rng = sfstats::rng::world_rng(13, w);
                            let ref_labels = reference.generate_world_with(
                                null_model,
                                WorldGen::Word,
                                &mut ref_rng,
                            );
                            assert_eq!(labels, ref_labels, "{backend} {strategy:?}");
                            assert_eq!(
                                tau(&e, &labels, Direction::TwoSided),
                                tau(&reference, &ref_labels, Direction::TwoSided),
                                "{backend} {strategy:?} {null_model:?} world {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_permutation_preserves_exact_totals_on_both_density_sides() {
        // Exactly P positives whether the generator scatters positives
        // (sparse side) or negatives (dense-majority complement side).
        for o in [outcomes(), dense_outcomes()] {
            for strategy in [CountingStrategy::Membership, CountingStrategy::Blocked] {
                let e = ScanEngine::build(&o, &region_set(), strategy).unwrap();
                for w in 0..20 {
                    let mut rng = sfstats::rng::world_rng(15, w);
                    let labels =
                        e.generate_world_with(NullModel::Permutation, WorldGen::Word, &mut rng);
                    assert_eq!(labels.count_ones(), o.positives(), "{strategy:?} world {w}");
                }
            }
        }
    }

    #[test]
    fn word_and_scalar_are_distinct_streams_but_same_distribution_family() {
        // Different RNG consumption => different worlds (why worldgen
        // is part of the world-class key); totals still hover around
        // the same ρ̂·N.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let mut scalar_total = 0u64;
        let mut word_total = 0u64;
        let mut identical = true;
        for w in 0..40 {
            let mut rng = sfstats::rng::world_rng(17, w);
            let scalar = e.generate_world_with(NullModel::Bernoulli, WorldGen::Scalar, &mut rng);
            let mut rng = sfstats::rng::world_rng(17, w);
            let word = e.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);
            scalar_total += scalar.count_ones();
            word_total += word.count_ones();
            identical &= scalar == word;
        }
        assert!(!identical, "the two generators must not alias one stream");
        let (s, w) = (scalar_total as f64 / 4000.0, word_total as f64 / 4000.0);
        assert!((s - 0.5).abs() < 0.05, "scalar rate {s}");
        assert!((w - 0.5).abs() < 0.05, "word rate {w}");
    }

    #[test]
    fn word_generation_is_deterministic() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Blocked).unwrap();
        for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
            let draws: Vec<BitLabels> = (0..3)
                .map(|_| {
                    let mut rng = sfstats::rng::world_rng(19, 4);
                    e.generate_world_with(null_model, WorldGen::Word, &mut rng)
                })
                .collect();
            assert_eq!(draws[0], draws[1]);
            assert_eq!(draws[1], draws[2]);
        }
    }

    #[test]
    fn sharded_eval_is_bit_identical_for_every_shard_count() {
        let dirs = [Direction::TwoSided, Direction::High, Direction::Low];
        for o in [outcomes(), dense_outcomes()] {
            let base = ScanEngine::build(&o, &region_set(), CountingStrategy::Blocked).unwrap();
            let num_words = o.len().div_ceil(64);
            for k in [1usize, 2, 3, 5, num_words, num_words + 7] {
                let sharded = ScanEngine::build(&o, &region_set(), CountingStrategy::Blocked)
                    .unwrap()
                    .with_shards(Shards::Fixed(k));
                assert!(sharded.num_shards() <= num_words.max(1));
                for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
                    for worldgen in [WorldGen::Scalar, WorldGen::Word] {
                        for w in 0..5 {
                            let mut rng = sfstats::rng::world_rng(23, w);
                            let labels = base.generate_world_with(null_model, worldgen, &mut rng);
                            let expected = eval_one(&base, &labels, &dirs, false);
                            let got = eval_one(&sharded, &labels, &dirs, true);
                            assert_eq!(
                                got, expected,
                                "shards={k} {null_model:?} {worldgen:?} world {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sharding_is_a_noop_off_the_blocked_path() {
        // Requery engines have no masks, so no word axis to shard.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Requery)
            .unwrap()
            .with_shards(Shards::Fixed(4));
        assert!(e.blocked().is_none());
        assert_eq!(e.num_shards(), 1);
        assert!(e.shard_bounds().is_empty());
        // A membership engine sweeps masks, so it shards like a
        // blocked one.
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership)
            .unwrap()
            .with_shards(Shards::Fixed(4));
        assert_eq!(e.num_shards(), 2);
        // Resolving to a single shard keeps the unsharded sweep too.
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Blocked)
            .unwrap()
            .with_shards(Shards::Fixed(1));
        assert_eq!(e.num_shards(), 1);
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        for o in [outcomes(), dense_outcomes()] {
            for strategy in [CountingStrategy::Blocked, CountingStrategy::Membership] {
                let e = ScanEngine::build(&o, &region_set(), strategy).unwrap();
                for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
                    for worldgen in [WorldGen::Scalar, WorldGen::Word] {
                        for w in 0..5 {
                            let mut rng = sfstats::rng::world_rng(27, w);
                            let seq = e.generate_world_with(null_model, worldgen, &mut rng);
                            let mut rng = sfstats::rng::world_rng(27, w);
                            let par = e.generate_world_par(null_model, worldgen, &mut rng);
                            assert_eq!(seq, par, "{strategy:?} {null_model:?} {worldgen:?} {w}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_bernoulli_consumes_exactly_one_world_draw() {
        // The chunked generator must advance the world stream by one
        // tag value and nothing else, whatever the engine layout —
        // that is what makes shard- and chunk-parallel generation
        // order-independent.
        let o = outcomes();
        for strategy in [CountingStrategy::Blocked, CountingStrategy::Membership] {
            let e = ScanEngine::build(&o, &region_set(), strategy).unwrap();
            let mut rng = sfstats::rng::world_rng(29, 0);
            let _ = e.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);
            let after: u64 = rng.gen();
            let mut reference = sfstats::rng::world_rng(29, 0);
            let _: u64 = reference.gen(); // the tag
            assert_eq!(after, reference.gen::<u64>(), "{strategy:?}");
        }
    }

    #[test]
    fn bernoulli_worlds_vary_in_totals() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let mut totals = std::collections::HashSet::new();
        for w in 0..20 {
            let mut rng = sfstats::rng::world_rng(1, w);
            let labels = e.generate_world(NullModel::Bernoulli, &mut rng);
            totals.insert(labels.count_ones());
        }
        assert!(totals.len() > 1, "Bernoulli worlds should vary in P");
    }

    #[test]
    fn permutation_worlds_preserve_totals() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        for w in 0..20 {
            let mut rng = sfstats::rng::world_rng(1, w);
            let labels = e.generate_world(NullModel::Permutation, &mut rng);
            assert_eq!(labels.count_ones(), o.positives());
        }
    }

    #[test]
    fn permutation_worlds_shuffle_positions() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let mut rng = sfstats::rng::world_rng(2, 0);
        let a = e.generate_world(NullModel::Permutation, &mut rng);
        let mut rng = sfstats::rng::world_rng(2, 1);
        let b = e.generate_world(NullModel::Permutation, &mut rng);
        assert_ne!(a, b, "different worlds must differ");
    }

    #[test]
    fn permutation_scratch_reuse_is_deterministic() {
        // Generating the same world repeatedly on one thread (dirty
        // scratch buffer) must give identical labels every time.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let draws: Vec<BitLabels> = (0..3)
            .map(|_| {
                let mut rng = sfstats::rng::world_rng(4, 7);
                e.generate_world(NullModel::Permutation, &mut rng)
            })
            .collect();
        assert_eq!(draws[0], draws[1]);
        assert_eq!(draws[1], draws[2]);
        // And interleaving different worlds does not cross-contaminate.
        let mut rng = sfstats::rng::world_rng(4, 8);
        let other = e.generate_world(NullModel::Permutation, &mut rng);
        let mut rng = sfstats::rng::world_rng(4, 7);
        let again = e.generate_world(NullModel::Permutation, &mut rng);
        assert_ne!(other, draws[0]);
        assert_eq!(again, draws[0]);
    }

    #[test]
    fn multi_direction_eval_matches_single_direction() {
        let o = outcomes();
        let dirs = [Direction::TwoSided, Direction::High, Direction::Low];
        for strategy in [
            CountingStrategy::Membership,
            CountingStrategy::Requery,
            CountingStrategy::Blocked,
        ] {
            let e = ScanEngine::build(&o, &region_set(), strategy).unwrap();
            for w in 0..10 {
                let mut rng = sfstats::rng::world_rng(6, w);
                let labels = e.generate_world(NullModel::Bernoulli, &mut rng);
                let out = eval_one(&e, &labels, &dirs, false);
                for (t, &d) in out.iter().zip(&dirs) {
                    assert_eq!(*t, tau(&e, &labels, d), "world {w}, {d}, {strategy:?}");
                }
            }
        }
    }

    /// 900 points on a 30x30 grid (15 label words, so three shards
    /// really split) with scattered labels, scanned by a 4x4 grid.
    fn scattered_outcomes() -> SpatialOutcomes {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for iy in 0..30 {
            for ix in 0..30 {
                points.push(Point::new(ix as f64 / 3.0 + 0.1, iy as f64 / 3.0 + 0.1));
                labels.push((ix * 7 + iy * 13) % 11 < 4 + ix / 10);
            }
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    #[test]
    fn fold_matches_scan_real_on_the_real_labels() {
        // Every evaluation path scores through `fold_counts`, while
        // `scan_real_with` keeps its own score loop — so evaluating the
        // real labels as a world is the independent check on the fold.
        // Engines built from lists count nested squares and circles
        // through their rings in both passes, so the oracle is a
        // requery engine's real scan, which recounts through the index.
        let grid = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4);
        let centres = vec![
            Point::new(2.0, 3.0),
            Point::new(6.5, 6.5),
            Point::new(8.0, 1.5),
        ];
        let mut nested = RegionSet::squares(centres.clone(), &[0.5, 1.0, 2.0, 4.0, 8.0])
            .regions()
            .to_vec();
        nested.extend_from_slice(RegionSet::circles(centres, &[0.7, 1.5, 3.0]).regions());
        let nested = RegionSet::from_regions(nested);
        let m = ScanEngine::build(&scattered_outcomes(), &nested, CountingStrategy::Membership)
            .unwrap();
        let m = m.membership().unwrap();
        assert!(m.total_ids() < (0..m.num_regions()).map(|r| m.n_of(r) as usize).sum());
        for (o, regions) in [
            (outcomes(), region_set()),
            (dense_outcomes(), region_set()),
            (scattered_outcomes(), grid),
            (scattered_outcomes(), nested),
        ] {
            for strategy in [
                CountingStrategy::Membership,
                CountingStrategy::Requery,
                CountingStrategy::Blocked,
            ] {
                let oracle = ScanEngine::build(&o, &regions, CountingStrategy::Requery).unwrap();
                for shards in [1, 3] {
                    let e = ScanEngine::build(&o, &regions, strategy)
                        .unwrap()
                        .with_shards(Shards::Fixed(shards));
                    let real = e.real_world();
                    for fine in [false, true] {
                        for statistic in Statistic::ALL {
                            let mut out = [0.0; Direction::ALL.len()];
                            e.eval(statistic, &[real], &Direction::ALL, &mut out, fine);
                            for (tau, &d) in out.iter().zip(&Direction::ALL) {
                                let want = oracle.scan_real_with(statistic, d).tau.to_bits();
                                let label = format!("{strategy:?} shards {shards} fine {fine}");
                                assert_eq!(tau.to_bits(), want, "{label} {statistic} {d}");
                                let real = e.scan_real_with(statistic, d).tau.to_bits();
                                assert_eq!(real, want, "{label} {statistic} {d}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot")]
    fn multi_direction_eval_validates_slots() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let labels = BitLabels::from_bools(o.labels());
        let mut out = [0.0; 1];
        e.eval(
            e.statistic(),
            &[&labels],
            &[Direction::High, Direction::Low],
            &mut out,
            false,
        );
    }

    #[test]
    #[should_panic(expected = "one bit per indexed point")]
    fn eval_rejects_wrong_length_labels() {
        // A 70-bit world over a 100-point engine occupies the same
        // number of blocks, so without the explicit length check the
        // tail ids would silently read zero — this must fail fast in
        // release builds too.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let short = BitLabels::from_fn(70, |i| i % 2 == 0);
        let _ = tau(&e, &short, Direction::TwoSided);
    }

    #[test]
    fn simulated_taus_are_small_for_fair_worlds() {
        // The real data is maximally unfair; simulated fair worlds must
        // have much smaller taus.
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        let real = e.scan_real(Direction::TwoSided);
        for w in 0..30 {
            let mut rng = sfstats::rng::world_rng(3, w);
            let labels = e.generate_world(NullModel::Bernoulli, &mut rng);
            let tau_w = tau(&e, &labels, Direction::TwoSided);
            assert!(
                tau_w < real.tau * 0.5,
                "world {w}: tau {tau_w} vs real {}",
                real.tau
            );
        }
    }

    #[test]
    fn direction_filters_the_best_region() {
        let o = outcomes();
        let e = ScanEngine::build(&o, &region_set(), CountingStrategy::Membership).unwrap();
        // Left half (index 0) is the HIGH region; right half is LOW.
        let high = e.scan_real(Direction::High);
        assert_eq!(high.best_index, 0);
        assert_eq!(high.llrs[1], 0.0);
        let low = e.scan_real(Direction::Low);
        assert_eq!(low.best_index, 1);
        assert_eq!(low.llrs[0], 0.0);
    }

    #[test]
    fn empty_regions_do_not_contribute() {
        let o = outcomes();
        let rs = RegionSet::from_regions(vec![
            sfgeo::Region::Rect(Rect::from_coords(50.0, 50.0, 60.0, 60.0)), // empty
            sfgeo::Region::Rect(Rect::from_coords(0.0, 0.0, 5.0, 10.0)),    // left half
        ]);
        let e = ScanEngine::build(&o, &rs, CountingStrategy::Membership).unwrap();
        let real = e.scan_real(Direction::TwoSided);
        assert_eq!(real.counts[0], CountPair::default());
        assert_eq!(real.llrs[0], 0.0);
        assert_eq!(real.best_index, 1);
    }

    /// Folds an 11-world matrix over the two 50-point halves (a full
    /// lane group of 8 worlds, then a tail of 3) in which every world
    /// has 50 positives, 25 per half, except world `w`: it has
    /// `p_world` positives, `p_left` of them in the left half. The
    /// fold scores the matrix under `statistic`.
    fn fold_with_one_bad_world(statistic: Statistic, w: usize, p_world: u64, p_left: u64) {
        let e =
            ScanEngine::build(&outcomes(), &region_set(), CountingStrategy::Membership).unwrap();
        let width = 11;
        let mut p_worlds = vec![50; width];
        let mut counts = vec![25; 2 * width];
        p_worlds[w] = p_world;
        counts[w] = p_left;
        let mut out = vec![0.0; width];
        e.fold_counts(
            statistic,
            &p_worlds,
            &counts,
            &[Direction::TwoSided],
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "positives inside (51) exceed observations inside (50)")]
    fn fold_rejects_more_positives_than_the_region_holds_in_a_full_group() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 5, 60, 51);
    }

    #[test]
    #[should_panic(expected = "positives inside (51) exceed observations inside (50)")]
    fn fold_rejects_more_positives_than_the_region_holds_in_the_tail() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 9, 60, 51);
    }

    #[test]
    #[should_panic(expected = "positives inside (30) exceed total positives (20)")]
    fn fold_rejects_more_positives_than_the_world_holds_in_a_full_group() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 2, 20, 30);
    }

    #[test]
    #[should_panic(expected = "positives inside (30) exceed total positives (20)")]
    fn fold_rejects_more_positives_than_the_world_holds_in_the_tail() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 10, 20, 30);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed observations outside")]
    fn fold_rejects_more_outside_positives_than_outside_points_in_a_full_group() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 7, 80, 10);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed observations outside")]
    fn fold_rejects_more_outside_positives_than_outside_points_in_the_tail() {
        fold_with_one_bad_world(Statistic::BernoulliLlr, 8, 80, 10);
    }

    #[test]
    #[should_panic(
        expected = "positives inside (9007199254740993) exceed observations inside (50)"
    )]
    fn fold_rejects_a_count_past_f64_precision_in_a_full_group() {
        // 2^53 + 1 has no f64: the lanes, which compare counts as f64,
        // see it rounded to 2^53, still above the region's 50 points.
        fold_with_one_bad_world(Statistic::BernoulliLlr, 0, 60, (1 << 53) + 1);
    }

    #[test]
    #[should_panic(
        expected = "positives inside (18446744073709551615) exceed observations inside (50)"
    )]
    fn fold_rejects_a_count_past_f64_precision_in_the_tail() {
        // u64::MAX rounds to 2^64 as f64.
        fold_with_one_bad_world(Statistic::BernoulliLlr, 10, 60, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positives inside (51) exceed observations inside (50)")]
    fn fold_rejects_mean_residual_positives_past_the_region_in_a_full_group() {
        fold_with_one_bad_world(Statistic::MeanResidual, 5, 60, 51);
    }

    #[test]
    #[should_panic(expected = "positives inside (51) exceed observations inside (50)")]
    fn fold_rejects_mean_residual_positives_past_the_region_in_the_tail() {
        fold_with_one_bad_world(Statistic::MeanResidual, 9, 60, 51);
    }

    #[test]
    #[should_panic(expected = "positives inside (30) exceed total positives (20)")]
    fn fold_rejects_mean_residual_positives_past_the_world_in_a_full_group() {
        fold_with_one_bad_world(Statistic::MeanResidual, 2, 20, 30);
    }

    #[test]
    #[should_panic(expected = "positives inside (30) exceed total positives (20)")]
    fn fold_rejects_mean_residual_positives_past_the_world_in_the_tail() {
        fold_with_one_bad_world(Statistic::MeanResidual, 10, 20, 30);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed observations outside")]
    fn fold_rejects_mean_residual_outside_positives_past_outside_points_in_a_full_group() {
        fold_with_one_bad_world(Statistic::MeanResidual, 7, 80, 10);
    }

    #[test]
    #[should_panic(expected = "positives outside exceed observations outside")]
    fn fold_rejects_mean_residual_outside_positives_past_outside_points_in_the_tail() {
        fold_with_one_bad_world(Statistic::MeanResidual, 8, 80, 10);
    }
}
