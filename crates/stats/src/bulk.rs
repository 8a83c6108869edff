//! Bulk Bernoulli sampling: 64 labels per threshold-refinement pass.
//!
//! The Monte Carlo hot loop draws one Bernoulli label per audited
//! point per world. The scalar generator (`rng.gen_bool(ρ)`) costs one
//! `next_u64` **per bit**; this module's [`BulkBernoulli`] draws a
//! whole 64-lane word of independent labels from a handful of random
//! words, so label generation stops being the per-world bottleneck
//! once counting is blocked/popcnt-fast.
//!
//! # Algorithm
//!
//! A Bernoulli(ρ) label is `U < T` for a uniform 53-bit integer `U`
//! and the fixed threshold `T = ⌈ρ·2^53⌉` — exactly the comparison the
//! scalar `gen_bool` path performs (53 mantissa bits against `ρ`), so
//! the word sampler's marginal distribution is *identical* to the
//! scalar one, not merely close. The comparison is resolved lazily,
//! most-significant bit first, across 64 lanes at once:
//!
//! * one `next_u64` supplies bit `b` of all 64 lanes' `U`s;
//! * where `T`'s bit `b` is 1, lanes whose `U`-bit is 0 decide *true*
//!   (`U < T` is settled) and lanes with 1 stay open;
//! * where `T`'s bit is 0, lanes whose `U`-bit is 1 decide *false*
//!   and lanes with 0 stay open.
//!
//! Each pass halves the open-lane count in expectation, so a word of
//! 64 labels costs ~`log₂ 64 + 2 ≈ 8` RNG words instead of 64 — and
//! the loop is **exact**: the per-word fixup for the fractional tail
//! of ρ is simply running the refinement down to `T`'s last bit, where
//! any still-open lane has `U = T` and decides *false*. No label is
//! ever approximated.
//!
//! The scan engine's `WorldGen::Word` generator fills its layout-space
//! label blocks in fixed-size chunks of [`GEN_CHUNK_WORDS`] words via
//! [`BulkBernoulli::fill_chunks`], one independent ChaCha substream per
//! chunk — which makes the drawn stream independent of shard count and
//! thread count (any partition of the chunk set reproduces it bit for
//! bit). [`BulkBernoulli::sample_word`] is the lazy word-at-a-time
//! reference the chunk fill is pinned against.
//!
//! # The chunk fill
//!
//! Every chunk substream shares the world's key, so `fill_chunks`
//! derives it once and computes each chunk's first sixteen keystream
//! blocks in one [`rand_chacha::blocks16`] call (one zmm pass where the
//! CPU has AVX-512F, two ymm passes where it has AVX2). Every pass is
//! `decided |= open & !w & tm` and `open &= !(w ^ tm)`, where `tm` is
//! all ones when `T`'s bit is 1, and a word ends when `open` is 0 or
//! after `T`'s last bit (53 passes). The body is picked per call:
//!
//! * **Lanes of chunks (AVX-512F).** Each `u64` lane of a zmm register
//!   refines one chunk, eight chunks per register. Each iteration runs
//!   exactly one pass in every lane, and a pass always consumes one
//!   keystream word, so at iteration `t` every lane reads word `t` of
//!   its own stream: no address depends on the data. The group's
//!   sixteen blocks per chunk are transposed (8×8 `u64` transposes)
//!   into iteration-major rows, `row[t][lane]`, so each pass is one
//!   aligned load. The lane state stays in registers: `decided`,
//!   `open`, and the threshold bits still to compare (`tm` is their
//!   sign bit) over a sentinel bit that reaches the sign bit after the
//!   53rd pass; a lane whose word ends starts its next word. Every
//!   iteration stores the `decided` row and sets the done lanes' bits
//!   in a per-lane bitmap, and every 64 iterations the finished words
//!   are copied out in word order. When the lanes read past their
//!   sixteen buffered blocks, the body leaves the hot loop, computes
//!   one scalar [`rand_chacha::block`] for each lane still refining,
//!   and resumes on those rows.
//! * **One chunk at a time (elsewhere, and everywhere under the
//!   `portable` feature).** The scalar body, and the oracle the zmm
//!   body is tested against, runs eight passes per step with no
//!   data-dependent branch. This is exact because a closed word
//!   is a fixed point — once `open` is 0 neither update changes
//!   anything — and `open` never gains bits, so the words `sample_word`
//!   would consume are precisely the passes that began with
//!   `open != 0` (capped at `T`'s last bit). The stream position
//!   advances by that count, and the next word reads on from there,
//!   exactly as `sample_word` does. Past the buffered blocks it appends
//!   one scalar block at a time.

use crate::rng::chunk_key;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Versioned world-generation algorithm.
///
/// The two versions draw **statistically equivalent** worlds (same
/// per-label distribution, pinned by the workspace's distribution
/// tests) but consume the RNG stream differently, so their simulated
/// `τ`-streams differ value by value. Any layer that caches or shares
/// simulated worlds must therefore key them by `(null model, seed,
/// worldgen)` — mixing versions inside one world class would silently
/// splice two different streams.
///
/// Within one version, worlds are bit-identical across every index
/// and counting strategy (the same cross-engine harness that
/// pins [`McStrategy`](crate::montecarlo::McStrategy)-independent
/// world values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WorldGen {
    /// One RNG draw per label (`gen_bool` / per-id Fisher–Yates) — the
    /// v1 stream every released artifact was computed under. No longer
    /// the default; kept as the exact-replay escape hatch (wire
    /// payloads without a `worldgen` field still decode as Scalar).
    Scalar,
    /// Word-parallel v2 (the default): Bernoulli labels 64 at a time
    /// via [`BulkBernoulli`], drawn in fixed-size chunks of
    /// [`GEN_CHUNK_WORDS`] layout-space words, each chunk from its own
    /// ChaCha substream — so chunk values are independent of shard
    /// count and thread count, and the concatenated chunk draws *are*
    /// the Word stream. Permutation worlds select ranks with a
    /// complement-aware partial Fisher–Yates that initialises the
    /// dense side with whole-word writes.
    #[default]
    Word,
}

impl WorldGen {
    /// All generator versions (drives parse-error messages and
    /// ablation sweeps).
    pub const ALL: [WorldGen; 2] = [WorldGen::Scalar, WorldGen::Word];

    /// Stable lowercase name (CLI/bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            WorldGen::Scalar => "scalar",
            WorldGen::Word => "word",
        }
    }
}

impl std::fmt::Display for WorldGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`WorldGen`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorldGenError {
    input: String,
}

impl std::fmt::Display for ParseWorldGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown world generator {:?}; valid values: ",
            self.input
        )?;
        for (i, gen) in WorldGen::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(gen.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseWorldGenError {}

impl std::str::FromStr for WorldGen {
    type Err = ParseWorldGenError;

    /// Parses the [`Display`](std::fmt::Display) name back (`scalar`,
    /// `word`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WorldGen::ALL
            .into_iter()
            .find(|gen| gen.name() == s.trim())
            .ok_or_else(|| ParseWorldGenError {
                input: s.to_string(),
            })
    }
}

/// Number of significand bits in the threshold (and in the uniform
/// each lane compares against) — the same 53-bit resolution the scalar
/// `gen_bool` comparison has.
const THRESHOLD_BITS: u32 = 53;

/// Number of 64-label words in one Word-Bernoulli generation chunk
/// (1024 labels). Each chunk is drawn from its own ChaCha substream
/// (key = the world's 64-bit tag, stream = the chunk index), so a
/// chunk's value does not depend on how many chunks precede it, which
/// worker evaluates it, or how the engine is sharded: the concatenated
/// chunk draws define the Word stream, and any partition of the chunk
/// set reproduces it bit for bit.
pub const GEN_CHUNK_WORDS: usize = 16;

/// Word-parallel exact Bernoulli sampler (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkBernoulli {
    /// `⌈p·2^53⌉`, in `[0, 2^53]`. A lane is *true* iff its uniform
    /// 53-bit integer is `< threshold`.
    threshold: u64,
}

impl BulkBernoulli {
    /// A sampler for success probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]` (mirrors `Rng::gen_bool`).
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        // Multiplying by a power of two is exact; ceil keeps the
        // acceptance set {u : u/2^53 < p} — the same set the scalar
        // comparison `(next_u64 >> 11)·2^-53 < p` accepts, so Scalar
        // and Word draw from the identical per-label distribution.
        BulkBernoulli {
            threshold: (p * (1u64 << THRESHOLD_BITS) as f64).ceil() as u64,
        }
    }

    /// The fixed-point acceptance threshold `⌈p·2^53⌉`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Draws 64 independent Bernoulli labels as one word (lane `i` =
    /// label `i`).
    ///
    /// Consumes a *variable* number of `next_u64` draws (expected ≈ 8,
    /// at most 53): one per refinement pass while any lane's
    /// comparison is still open. The consumption is a deterministic
    /// function of the RNG stream, so replays are reproducible — but
    /// it differs from 64 scalar `gen_bool` draws, which is why the
    /// generator version is part of the world-class identity.
    #[inline]
    pub fn sample_word<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.threshold >= 1u64 << THRESHOLD_BITS {
            // p == 1: every uniform is below the threshold.
            return !0;
        }
        if self.threshold == 0 {
            return 0;
        }
        let mut decided = 0u64; // lanes settled true
        let mut open = !0u64; // lanes still comparing
        let mut bit = THRESHOLD_BITS - 1;
        loop {
            let w = rng.next_u64();
            if (self.threshold >> bit) & 1 == 1 {
                // U-bit 0 under a T-bit 1: U < T settled true.
                decided |= open & !w;
                open &= w;
            } else {
                // U-bit 1 over a T-bit 0: U > T settled false.
                open &= !w;
            }
            if open == 0 || bit == 0 {
                // Lanes still open after T's last bit have U == T in
                // every compared position, hence U >= T: false. This
                // is the exact fixup for ρ's fractional tail.
                break;
            }
            bit -= 1;
        }
        decided
    }

    /// Fills the label words of consecutive generation chunks of the
    /// world keyed by `tag`: `words` starts at chunk `first_chunk`'s
    /// first word and holds `n` labels (lane `i` of word `w` = label
    /// `64·w + i`). Every lane at position `>= n` is zeroed, so the
    /// result drops into a tail-invariant bitset block array unchanged.
    ///
    /// Chunk `c`'s words are bit-identical to a
    /// [`sample_word`](Self::sample_word) loop over
    /// [`chunk_rng`](crate::rng::chunk_rng)`(tag, c)` (see the module
    /// docs), so any partition of a world's chunks into calls draws the
    /// same world.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `⌈n/64⌉` blocks.
    pub fn fill_chunks(&self, tag: u64, first_chunk: usize, words: &mut [u64], n: usize) {
        self.fill_chunks_from(&chunk_key(tag), first_chunk, words, n);
    }

    /// [`fill_chunks`](Self::fill_chunks) over any [`Keystream`]: the
    /// zmm body where the CPU has AVX-512F, the scalar body elsewhere
    /// and under the `portable` feature.
    fn fill_chunks_from<K: Keystream>(
        &self,
        keys: &K,
        first_chunk: usize,
        words: &mut [u64],
        n: usize,
    ) {
        assert_eq!(
            words.len(),
            n.div_ceil(64),
            "need one 64-label word per 64 labels"
        );
        #[cfg(target_arch = "x86_64")]
        if !cfg!(feature = "portable") && self.refines() && zmm_refine_supported() {
            // SAFETY: the CPU supports AVX-512F (checked above).
            unsafe { zmm::fill_chunks(self.threshold, keys, first_chunk, words, |_| {}) };
            if let Some(last) = words.len().checked_sub(1) {
                words[last] &= tail_mask(n, last);
            }
            return;
        }
        self.fill_chunks_scalar(keys, first_chunk, words, n);
    }

    /// Whether a word takes refinement passes: `0 < T < 2^53`. At `p`
    /// of 0 or 1 `sample_word` draws nothing and returns a constant.
    fn refines(&self) -> bool {
        self.threshold != 0 && self.threshold < 1u64 << THRESHOLD_BITS
    }

    /// The scalar body of [`fill_chunks`](Self::fill_chunks): one chunk
    /// at a time through [`fill_chunk`](Self::fill_chunk).
    fn fill_chunks_scalar<K: Keystream>(
        &self,
        keys: &K,
        first_chunk: usize,
        words: &mut [u64],
        n: usize,
    ) {
        let bit_masks = self.bit_masks();
        for (i, chunk) in words.chunks_mut(GEN_CHUNK_WORDS).enumerate() {
            let n_chunk = (n - i * GEN_CHUNK_WORDS * 64).min(chunk.len() * 64);
            self.fill_chunk(keys, &bit_masks, (first_chunk + i) as u64, chunk, n_chunk);
        }
    }

    /// `tm` for every refinement pass: entry `k` is all ones iff `T`'s
    /// bit `52 − k` is 1, and zero past `T`'s last bit.
    fn bit_masks(&self) -> [u64; 64] {
        std::array::from_fn(|k| {
            let bit = (THRESHOLD_BITS as usize).wrapping_sub(1 + k);
            if k < THRESHOLD_BITS as usize && (self.threshold >> bit) & 1 == 1 {
                !0
            } else {
                0
            }
        })
    }

    /// Fills one chunk's words from its substream and returns how many
    /// keystream words the refinement consumed (a `sample_word` loop's
    /// `next_u64` count).
    fn fill_chunk<K: Keystream>(
        &self,
        keys: &K,
        bit_masks: &[u64; 64],
        chunk: u64,
        words: &mut [u64],
        n: usize,
    ) -> usize {
        if !self.refines() {
            // p is 0 or 1: sample_word draws nothing and returns a
            // constant word.
            let fill = if self.threshold == 0 { 0 } else { !0 };
            for (w, word) in words.iter_mut().enumerate() {
                *word = fill & tail_mask(n, w);
            }
            return 0;
        }
        // Blocks 0..CHUNK_BLOCKS in one call, then one block of slack
        // so every step's eight reads stay in bounds (words past `len`
        // are stale and never consumed).
        let mut buf = [[0u64; 8]; CHUNK_BLOCKS + 1];
        keys.blocks16(chunk, buf.first_chunk_mut().unwrap());
        let (mut pos, mut len, mut next_block) = (0, CHUNK_BLOCKS * 8, CHUNK_BLOCKS as u64);
        let mut consumed = 0;
        for (w, word) in words.iter_mut().enumerate() {
            // One word, PASS_GROUP passes per step (see the module docs
            // for why this equals `sample_word`).
            let mut decided = 0u64;
            let mut open = !0u64;
            let mut pass = 0;
            while pass < THRESHOLD_BITS as usize {
                let u: &[u64; PASS_GROUP] = buf.as_flattened()[pos..pos + PASS_GROUP]
                    .try_into()
                    .unwrap();
                let tm: &[u64; PASS_GROUP] = bit_masks[pass..pass + PASS_GROUP].try_into().unwrap();
                let (mut d, mut o, mut live) = (decided, open, 0);
                for k in 0..PASS_GROUP {
                    live += (o != 0) as usize;
                    d |= o & !u[k] & tm[k];
                    o &= !(u[k] ^ tm[k]);
                }
                let used = live.min(THRESHOLD_BITS as usize - pass);
                if pos + used > len {
                    // The step read past the buffered stream: append
                    // the next block (scalar) and redo the step.
                    let flat = buf.as_flattened_mut();
                    flat.copy_within(pos..len, 0);
                    len -= pos;
                    pos = 0;
                    let block = keys.block(next_block, chunk);
                    flat[len..len + 8].copy_from_slice(&block);
                    len += 8;
                    next_block += 1;
                    continue;
                }
                pos += used;
                consumed += used;
                (decided, open) = (d, o);
                if open == 0 {
                    break;
                }
                pass += PASS_GROUP;
            }
            *word = decided & tail_mask(n, w);
        }
        consumed
    }
}

/// Refinement passes resolved per branch-free step.
const PASS_GROUP: usize = 8;

/// Keystream blocks computed up front for every chunk, short final
/// chunks included, by one [`rand_chacha::blocks16`] call: one block
/// (8 words) per label word covers the ≈8 words a 64-label word
/// consumes on average. A chunk that needs more draws scalar blocks
/// past them.
const CHUNK_BLOCKS: usize = 16;

/// Where the chunk fill reads each chunk's keystream: sixteen buffered
/// blocks up front, then one block at a time. Every body reads through
/// it, so a test can drive a body with words ChaCha8 all but never
/// emits (a word that runs to `T`'s last bit).
trait Keystream {
    /// Block `counter` of chunk `chunk`'s stream.
    fn block(&self, counter: u64, chunk: u64) -> [u64; 8];

    /// Blocks `0..CHUNK_BLOCKS` of chunk `chunk`'s stream.
    fn blocks16(&self, chunk: u64, out: &mut [[u64; 8]; CHUNK_BLOCKS]) {
        for (j, block) in out.iter_mut().enumerate() {
            *block = self.block(j as u64, chunk);
        }
    }
}

/// The ChaCha8 key of a world's chunk substreams ([`chunk_key`]): chunk
/// `c` reads stream `c`.
impl Keystream for [u32; 8] {
    fn block(&self, counter: u64, chunk: u64) -> [u64; 8] {
        rand_chacha::block(self, counter, chunk)
    }

    fn blocks16(&self, chunk: u64, out: &mut [[u64; 8]; CHUNK_BLOCKS]) {
        rand_chacha::blocks16(self, 0, chunk, out);
    }
}

/// Whether [`BulkBernoulli::fill_chunks`] runs its zmm body here: a
/// CPU with AVX-512F.
#[cfg(target_arch = "x86_64")]
fn zmm_refine_supported() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// The valid-lane mask of word `w` in an `n`-label array: all ones
/// except for the final partial word, whose lanes past `n` are zero.
#[inline]
pub fn tail_mask(n: usize, word: usize) -> u64 {
    let remaining = n.saturating_sub(word * 64);
    if remaining >= 64 {
        !0
    } else {
        (1u64 << remaining) - 1
    }
}

/// The AVX-512F body of [`BulkBernoulli::fill_chunks`]: eight chunks
/// refined side by side, one per `u64` lane (see the module docs).
#[cfg(target_arch = "x86_64")]
mod zmm {
    use super::{Keystream, CHUNK_BLOCKS, GEN_CHUNK_WORDS, THRESHOLD_BITS};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Chunks refined side by side: the `u64` lanes of a zmm register.
    const LANES: usize = 8;

    /// Passes per lane between two liveness checks: one keystream block.
    const STEP: usize = 8;

    /// Keystream words buffered per chunk before the refill path.
    const BUFFERED: usize = CHUNK_BLOCKS * 8;

    /// Iterations per done bitmap: one bit per iteration in each lane.
    const WINDOW: usize = 64;

    /// Rows of eight `u64`s, one per lane, aligned for zmm loads.
    #[repr(C, align(64))]
    struct Rows<const N: usize>([[u64; LANES]; N]);

    impl<const N: usize> Rows<N> {
        fn new() -> Self {
            Rows([[0; LANES]; N])
        }
    }

    /// Fills `words` (whole chunks from `first_chunk`, the last one
    /// possibly shorter) with the words [`sample_word`] draws from each
    /// chunk's stream of `keys` at threshold `0 < T < 2^53`, and calls
    /// `draws` with each chunk's keystream consumption in chunk order.
    /// Lanes past the final label are not masked.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    ///
    /// [`sample_word`]: super::BulkBernoulli::sample_word
    pub(super) unsafe fn fill_chunks<K: Keystream>(
        threshold: u64,
        keys: &K,
        first_chunk: usize,
        words: &mut [u64],
        mut draws: impl FnMut(usize),
    ) {
        debug_assert!(threshold != 0 && threshold < 1 << THRESHOLD_BITS);
        SCRATCH.with(|scratch| {
            // SAFETY: the caller guarantees AVX-512F.
            unsafe {
                fill_groups(
                    threshold,
                    keys,
                    first_chunk,
                    words,
                    &mut draws,
                    &mut scratch.borrow_mut(),
                )
            }
        });
    }

    /// [`fill_chunks`] over `scratch`, one group of [`LANES`] chunks at
    /// a time.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    unsafe fn fill_groups<K: Keystream>(
        threshold: u64,
        keys: &K,
        first_chunk: usize,
        words: &mut [u64],
        draws: &mut impl FnMut(usize),
        scratch: &mut Scratch,
    ) {
        let Scratch {
            blocks,
            stream,
            refill,
            decided,
        } = scratch;
        for (g, group) in words.chunks_mut(LANES * GEN_CHUNK_WORDS).enumerate() {
            let chunk0 = (first_chunk + g * LANES) as u64;
            let lanes = group.len().div_ceil(GEN_CHUNK_WORDS);
            for (l, out) in blocks[..lanes].iter_mut().enumerate() {
                keys.blocks16(chunk0 + l as u64, out);
            }
            // Iteration-major: row `t` holds word `t` of every lane's
            // stream. Unused lanes transpose stale blocks that are never
            // read back.
            for (j, rows) in stream.0.chunks_exact_mut(8).enumerate() {
                // SAFETY: AVX-512F is enabled for this function.
                unsafe { transpose8(std::array::from_fn(|l| &blocks[l][j]), rows) };
            }
            let len = std::array::from_fn(|l| {
                let start = l * GEN_CHUNK_WORDS;
                group.len().saturating_sub(start).min(GEN_CHUNK_WORDS)
            });
            // SAFETY: AVX-512F is enabled for this function.
            let used = unsafe {
                refine(
                    threshold, keys, chunk0, &len, stream, refill, decided, group,
                )
            };
            used[..lanes].iter().for_each(|&u| draws(u));
        }
    }

    /// A thread's group buffers, zeroed once per thread instead of on
    /// every call. Every row is written before it is read.
    struct Scratch {
        blocks: [[[u64; 8]; CHUNK_BLOCKS]; LANES],
        stream: Rows<BUFFERED>,
        refill: Rows<STEP>,
        decided: Rows<WINDOW>,
    }

    thread_local! {
        static SCRATCH: RefCell<Box<Scratch>> = RefCell::new(Box::new(Scratch {
            blocks: [[[0; 8]; CHUNK_BLOCKS]; LANES],
            stream: Rows::new(),
            refill: Rows::new(),
            decided: Rows::new(),
        }));
    }

    /// Refines one group of chunks (`len[l]` words in lane `l`, lanes
    /// with none left empty) into `out` ([`GEN_CHUNK_WORDS`] words per
    /// lane), reading the iteration-major `stream`, then single blocks
    /// through `refill`; `decided` holds a window's `decided` rows.
    /// Returns each lane's keystream consumption.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn refine<K: Keystream>(
        threshold: u64,
        keys: &K,
        chunk0: u64,
        len: &[usize; LANES],
        stream: &Rows<BUFFERED>,
        refill: &mut Rows<STEP>,
        decided_rows: &mut Rows<WINDOW>,
        out: &mut [u64],
    ) -> [usize; LANES] {
        let zero = _mm512_setzero_si512();
        let ones = _mm512_set1_epi64(-1);
        // The threshold bits still to compare, the next one at the sign
        // bit, over a sentinel bit that reaches the sign bit when all 53
        // passes have run.
        let spare = 64 - THRESHOLD_BITS;
        let fresh = _mm512_set1_epi64((threshold << spare | 1 << (spare - 1)) as i64);
        let capped = _mm512_set1_epi64(i64::MIN);
        let step_bit: [__m512i; STEP] = std::array::from_fn(|k| _mm512_set1_epi64(1 << k));
        let mut decided = zero;
        let mut open = ones;
        let mut tbits = fresh;
        // Words each lane has still to finish. A lane at zero or below
        // runs on data it never reads back, and its done bits are
        // ignored.
        // SAFETY: eight readable u64s.
        let mut left = unsafe { _mm512_loadu_si512(len.map(|n| n as u64).as_ptr().cast()) };
        let mut done_bits = zero;
        let mut rows: &[[u64; LANES]] = &stream.0;
        let (mut base, mut t) = (0, 0);
        let mut written = [0usize; LANES];
        let mut used = [0usize; LANES];
        loop {
            // Window and buffer ends are multiples of STEP.
            let stop = (base + rows.len()).min((t / WINDOW + 1) * WINDOW);
            let mut live = true;
            // The hot loop: one `sample_word` pass per lane per
            // iteration, no call and no data-dependent address.
            while live && t < stop {
                let step: &[[u64; LANES]; STEP] = rows[t - base..][..STEP].try_into().unwrap();
                let slot = t % WINDOW;
                let kept: &mut [[u64; LANES]; STEP] =
                    (&mut decided_rows.0[slot..slot + STEP]).try_into().unwrap();
                let mut step_done = zero;
                for k in 0..STEP {
                    // SAFETY: `Rows` are 64-byte aligned rows of eight u64s.
                    let u = unsafe { _mm512_load_si512(step[k].as_ptr().cast()) };
                    let tm = _mm512_srai_epi64::<63>(tbits);
                    // decided |= open & !u & tm; open &= !(u ^ tm).
                    decided = _mm512_ternarylogic_epi64::<0xF8>(
                        decided,
                        open,
                        _mm512_andnot_si512(u, tm),
                    );
                    open = _mm512_ternarylogic_epi64::<0x90>(open, u, tm);
                    tbits = _mm512_slli_epi64::<1>(tbits);
                    let done = _mm512_cmpeq_epi64_mask(open, zero)
                        | _mm512_cmpeq_epi64_mask(tbits, capped);
                    // SAFETY: as for the load.
                    unsafe { _mm512_store_si512(kept[k].as_mut_ptr().cast(), decided) };
                    step_done = _mm512_mask_or_epi64(step_done, done, step_done, step_bit[k]);
                    decided = _mm512_mask_mov_epi64(decided, done, zero);
                    open = _mm512_mask_mov_epi64(open, done, ones);
                    tbits = _mm512_mask_mov_epi64(tbits, done, fresh);
                    left = _mm512_mask_sub_epi64(left, done, left, _mm512_set1_epi64(1));
                }
                let shift = _mm_cvtsi64_si128(slot as i64);
                done_bits = _mm512_or_si512(done_bits, _mm512_sll_epi64(step_done, shift));
                live = _mm512_cmpgt_epi64_mask(left, zero) != 0;
                t += STEP;
            }
            if !live || t % WINDOW == 0 {
                // Copy the window's finished words out in word order.
                let mut bits = [0u64; LANES];
                // SAFETY: eight writable u64s.
                unsafe { _mm512_storeu_si512(bits.as_mut_ptr().cast(), done_bits) };
                done_bits = zero;
                let window = (t - 1) / WINDOW * WINDOW;
                for (l, mut bits) in bits.into_iter().enumerate() {
                    while bits != 0 && written[l] < len[l] {
                        let i = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        out[l * GEN_CHUNK_WORDS + written[l]] = decided_rows.0[i][l];
                        written[l] += 1;
                        used[l] = window + i + 1;
                    }
                }
            }
            if !live {
                return used;
            }
            if t == base + rows.len() {
                // Past the buffered words: the next block of every lane
                // still refining.
                for l in (0..LANES).filter(|&l| written[l] < len[l]) {
                    let block = keys.block((t / 8) as u64, chunk0 + l as u64);
                    for (row, word) in refill.0.iter_mut().zip(block) {
                        row[l] = word;
                    }
                }
                rows = &refill.0;
                base = t;
            }
        }
    }

    /// Transposes an 8×8 `u64` block: `out[i][l] = rows[l][i]`.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose8(rows: [&[u64; 8]; LANES], out: &mut [[u64; LANES]]) {
        // SAFETY: every row is eight readable u64s.
        let a: [__m512i; 8] =
            std::array::from_fn(|l| unsafe { _mm512_loadu_si512(rows[l].as_ptr().cast()) });
        // Pairs of rows: t[2k] holds their even words, t[2k + 1] their
        // odd words.
        let t: [__m512i; 8] = std::array::from_fn(|k| {
            let (x, y) = (a[k & !1], a[k | 1]);
            if k & 1 == 0 {
                _mm512_unpacklo_epi64(x, y)
            } else {
                _mm512_unpackhi_epi64(x, y)
            }
        });
        // Then 128-bit lanes: u[k] holds words {0, 4}, {2, 6}, {1, 5}
        // and {3, 7} of rows 0..4, v[k] the same of rows 4..8.
        let u = [
            _mm512_shuffle_i64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0xDD>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_i64x2::<0xDD>(t[1], t[3]),
        ];
        let v = [
            _mm512_shuffle_i64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0xDD>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_i64x2::<0xDD>(t[5], t[7]),
        ];
        for (k, word) in [0, 2, 1, 3].into_iter().enumerate() {
            let lo = _mm512_shuffle_i64x2::<0x88>(u[k], v[k]);
            let hi = _mm512_shuffle_i64x2::<0xDD>(u[k], v[k]);
            // SAFETY: `out` has eight rows of eight u64s.
            unsafe {
                _mm512_storeu_si512(out[word].as_mut_ptr().cast(), lo);
                _mm512_storeu_si512(out[word + 4].as_mut_ptr().cast(), hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{chunk_rng, seeded_rng};
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn worldgen_parse_round_trips() {
        for gen in WorldGen::ALL {
            assert_eq!(gen.to_string().parse::<WorldGen>().unwrap(), gen);
        }
        let err = "simd".parse::<WorldGen>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("simd"), "{msg}");
        assert!(msg.contains("scalar") && msg.contains("word"), "{msg}");
        assert_eq!(WorldGen::default(), WorldGen::Word);
    }

    #[test]
    fn worldgen_serde_round_trips() {
        for gen in WorldGen::ALL {
            let json = serde_json::to_string(&gen).unwrap();
            let back: WorldGen = serde_json::from_str(&json).unwrap();
            assert_eq!(back, gen);
        }
    }

    #[test]
    fn threshold_matches_scalar_acceptance_set() {
        // The sampler accepts u iff u < ceil(p*2^53); the scalar path
        // accepts u iff u * 2^-53 < p. Same set, checked around the
        // boundary for assorted p.
        for p in [0.005, 0.25, 0.3, 0.5, 1.0 / 3.0, 0.9999] {
            let t = BulkBernoulli::new(p).threshold();
            for u in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1] {
                if u >= 1u64 << THRESHOLD_BITS {
                    continue;
                }
                let scalar = (u as f64) * (1.0 / (1u64 << THRESHOLD_BITS) as f64) < p;
                assert_eq!(u < t, scalar, "p={p}, u={u}, t={t}");
            }
        }
    }

    #[test]
    fn extreme_probabilities() {
        let mut rng = seeded_rng(1);
        assert_eq!(BulkBernoulli::new(1.0).sample_word(&mut rng), !0);
        assert_eq!(BulkBernoulli::new(0.0).sample_word(&mut rng), 0);
    }

    /// Counts the `next_u64` draws made through it.
    struct Counting<R> {
        inner: R,
        draws: usize,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    /// The oracle for chunks `first_chunk..` holding `n` labels: a
    /// `sample_word` loop over each chunk's generator `rng(chunk)`, and
    /// the draws each chunk consumed.
    fn oracle<R: RngCore>(
        sampler: &BulkBernoulli,
        first_chunk: usize,
        n: usize,
        rng: impl Fn(u64) -> R,
    ) -> (Vec<u64>, Vec<usize>) {
        let mut words = Vec::new();
        let mut draws = Vec::new();
        let num_words = n.div_ceil(64);
        for (i, start) in (0..num_words).step_by(GEN_CHUNK_WORDS).enumerate() {
            let mut rng = Counting {
                inner: rng((first_chunk + i) as u64),
                draws: 0,
            };
            for w in start..(start + GEN_CHUNK_WORDS).min(num_words) {
                words.push(sampler.sample_word(&mut rng) & tail_mask(n, w));
            }
            draws.push(rng.draws);
        }
        (words, draws)
    }

    /// One body of the chunk fill over chunks `first_chunk..` of
    /// keystream `K` holding `n` labels: its words, and the keystream
    /// words each chunk consumed.
    type Body<K> = fn(&BulkBernoulli, &K, usize, usize) -> (Vec<u64>, Vec<usize>);

    /// The scalar body: [`BulkBernoulli::fill_chunks_scalar`]'s words
    /// and each chunk's consumption from `fill_chunk`.
    fn scalar_body<K: Keystream>(
        sampler: &BulkBernoulli,
        keys: &K,
        first_chunk: usize,
        n: usize,
    ) -> (Vec<u64>, Vec<usize>) {
        let mut words = vec![0u64; n.div_ceil(64)];
        sampler.fill_chunks_scalar(keys, first_chunk, &mut words, n);
        let masks = sampler.bit_masks();
        let mut again = words.clone();
        let draws = again
            .chunks_mut(GEN_CHUNK_WORDS)
            .enumerate()
            .map(|(i, chunk)| {
                let n_chunk = (n - i * GEN_CHUNK_WORDS * 64).min(chunk.len() * 64);
                sampler.fill_chunk(keys, &masks, (first_chunk + i) as u64, chunk, n_chunk)
            })
            .collect();
        assert_eq!(again, words, "fill_chunk and fill_chunks_scalar disagree");
        (words, draws)
    }

    /// The zmm body, its final word masked as `fill_chunks` masks it.
    #[cfg(target_arch = "x86_64")]
    fn zmm_body<K: Keystream>(
        sampler: &BulkBernoulli,
        keys: &K,
        first_chunk: usize,
        n: usize,
    ) -> (Vec<u64>, Vec<usize>) {
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut draws = Vec::new();
        // SAFETY: `bodies` lists this body only where AVX-512F was
        // detected.
        unsafe {
            zmm::fill_chunks(sampler.threshold, keys, first_chunk, &mut words, |d| {
                draws.push(d)
            })
        };
        let last = words.len() - 1;
        words[last] &= tail_mask(n, last);
        (words, draws)
    }

    /// Every chunk-fill body this CPU can run at `sampler`'s
    /// threshold, by name: the scalar body, and the zmm body where the
    /// CPU has AVX-512F and a word takes refinement passes.
    fn bodies<K: Keystream>(sampler: &BulkBernoulli) -> Vec<(&'static str, Body<K>)> {
        let mut bodies: Vec<(&'static str, Body<K>)> = vec![("scalar", scalar_body::<K>)];
        #[cfg(target_arch = "x86_64")]
        if sampler.refines() && zmm_refine_supported() {
            bodies.push(("zmm", zmm_body::<K>));
        }
        bodies
    }

    /// Checks every body and the dispatching `fill_chunks_from` over
    /// chunks `first_chunk..` of `keys` holding `n` labels against the
    /// oracle over the generators `rng(chunk)`, and returns the
    /// oracle's words and per-chunk draws.
    fn check_bodies_with<K: Keystream, R: RngCore>(
        sampler: &BulkBernoulli,
        keys: &K,
        first_chunk: usize,
        n: usize,
        rng: impl Fn(u64) -> R,
    ) -> (Vec<u64>, Vec<usize>) {
        let expected = oracle(sampler, first_chunk, n, rng);
        let context = format!(
            "threshold {:#x}, n {n}, chunk {first_chunk}",
            sampler.threshold
        );
        for (name, body) in bodies::<K>(sampler) {
            assert_eq!(
                body(sampler, keys, first_chunk, n),
                expected,
                "{name}: {context}"
            );
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        sampler.fill_chunks_from(keys, first_chunk, &mut words, n);
        assert_eq!(words, expected.0, "fill_chunks: {context}");
        expected
    }

    /// [`check_bodies_with`] over the ChaCha8 chunk substreams of the
    /// world `tag`, the oracle reading each chunk's `chunk_rng`; the
    /// public `fill_chunks` must agree too.
    fn check_bodies(
        sampler: &BulkBernoulli,
        tag: u64,
        first_chunk: usize,
        n: usize,
    ) -> (Vec<u64>, Vec<usize>) {
        let expected = check_bodies_with(sampler, &chunk_key(tag), first_chunk, n, |chunk| {
            chunk_rng(tag, chunk)
        });
        let mut words = vec![0u64; n.div_ceil(64)];
        sampler.fill_chunks(tag, first_chunk, &mut words, n);
        assert_eq!(words, expected.0, "fill_chunks: tag {tag:#x}");
        expected
    }

    /// A keystream that holds words open: word `k` of every chunk is
    /// `T`'s pass mask for pass `k mod 53`, so a word that starts on a
    /// multiple of 53 stays fully open through all 53 passes, with each
    /// bit flipped with probability `2^-noise` (none at 0).
    struct OpenStream {
        masks: [u64; 64],
        noise: u32,
        seed: u64,
    }

    impl OpenStream {
        fn word(&self, chunk: u64, k: u64) -> u64 {
            let flips = (0..self.noise).fold(!0u64, |acc, i| {
                let mut rng = seeded_rng(self.seed ^ chunk << 40 ^ k << 8 ^ i as u64);
                acc & rng.next_u64()
            });
            let flips = if self.noise == 0 { 0 } else { flips };
            self.masks[(k % THRESHOLD_BITS as u64) as usize] ^ flips
        }
    }

    impl Keystream for OpenStream {
        fn block(&self, counter: u64, chunk: u64) -> [u64; 8] {
            std::array::from_fn(|i| self.word(chunk, counter * 8 + i as u64))
        }
    }

    /// Reads one chunk of an [`OpenStream`] as a generator.
    struct OpenRng<'a> {
        stream: &'a OpenStream,
        chunk: u64,
        pos: u64,
    }

    impl RngCore for OpenRng<'_> {
        fn next_u32(&mut self) -> u32 {
            unreachable!("sample_word draws whole words")
        }
        fn next_u64(&mut self) -> u64 {
            self.pos += 1;
            self.stream.word(self.chunk, self.pos - 1)
        }
    }

    #[test]
    fn fill_chunks_is_deterministic_and_tail_clean() {
        let sampler = BulkBernoulli::new(0.37);
        let n = 200usize; // 3 words + 8-lane tail
        let mut a = vec![0u64; n.div_ceil(64)];
        let mut b = vec![0u64; n.div_ceil(64)];
        sampler.fill_chunks(9, 3, &mut a, n);
        sampler.fill_chunks(9, 3, &mut b, n);
        assert_eq!(a, b);
        assert_eq!(a[3] & !tail_mask(n, 3), 0, "tail lanes must be zero");
        assert_eq!(tail_mask(n, 3), (1u64 << 8) - 1);
        assert_eq!(tail_mask(n, 0), !0);
    }

    #[test]
    fn chunk_fill_matches_sample_word_at_every_threshold() {
        // Edge thresholds (never true, one uniform of 2^53, exactly
        // 1/2, all but one, always true) and random ones, over sizes
        // from one word to 20 chunks plus a one-label tail: every body
        // gives the same words and the same draws per chunk as the
        // oracle.
        let mut rng = seeded_rng(0xf111);
        let mut thresholds = vec![0, 1, 1 << 52, (1 << 53) - 1, 1 << 53];
        thresholds.extend((0..8).map(|_| rng.next_u64() >> 11));
        for threshold in thresholds {
            let sampler = BulkBernoulli { threshold };
            for n in [1usize, 64, 130, 1000, 3 * 1024 + 5, 20_001] {
                for first_chunk in [0usize, 3] {
                    for _ in 0..3 {
                        check_bodies(&sampler, rng.next_u64(), first_chunk, n);
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_fill_matches_sample_word_at_every_final_chunk_length() {
        // Two full chunks and a final chunk of every length from 1 to
        // 16 words, its last word full, one label or partial: the same
        // words and draws per chunk as the oracle.
        let mut rng = seeded_rng(0xf1a1);
        let mut thresholds = vec![1, 1 << 52, (1 << 53) - 1];
        thresholds.extend((0..3).map(|_| rng.next_u64() >> 11));
        for threshold in thresholds {
            let sampler = BulkBernoulli { threshold };
            for final_words in 1..=GEN_CHUNK_WORDS {
                for last_labels in [64, 1, 37] {
                    let n = 2 * 1024 + (final_words - 1) * 64 + last_labels;
                    for first_chunk in [0usize, 5] {
                        check_bodies(&sampler, rng.next_u64(), first_chunk, n);
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_fill_splits_and_overflows_exactly() {
        // Any split of a world's chunks into fill calls draws the same
        // world, and the test tags drive full chunks past the buffered
        // blocks (onto the scalar overflow blocks) with words and draws
        // unchanged in every body.
        let n = 20 * 1024 + 6 * 64; // 20 full chunks and a 6-word one
        let mut rng = seeded_rng(0x0f10);
        for p in [0.5, 0.123] {
            let sampler = BulkBernoulli::new(p);
            let mut overflows = 0;
            for _ in 0..100 {
                let tag = rng.next_u64();
                let (words, draws) = check_bodies(&sampler, tag, 0, n);
                let mut split = vec![0u64; words.len()];
                let (head, tail) = split.split_at_mut(7 * GEN_CHUNK_WORDS);
                sampler.fill_chunks(tag, 0, head, 7 * 1024);
                sampler.fill_chunks(tag, 7, tail, n - 7 * 1024);
                assert_eq!(split, words, "tag {tag:#x}");
                overflows += draws.iter().filter(|&&d| d > 8 * CHUNK_BLOCKS).count();
            }
            assert!(overflows > 0, "p={p}: no chunk overflowed");
        }
    }

    #[test]
    fn chunk_fill_runs_words_to_the_pass_cap() {
        // Keystreams that hold lanes open: without flips every word
        // stays open through all 53 passes and ends at the cap as 0,
        // so each chunk reads 53 words per label word, far past its
        // sixteen buffered blocks; with sparse flips, words end at the
        // cap or before it, and later words start at any offset. Every
        // body gives the oracle's words and draws.
        let mut rng = seeded_rng(0xca9);
        let mut thresholds = vec![1, 1 << 52, (1 << 53) - 1];
        thresholds.extend((0..3).map(|_| rng.next_u64() >> 11));
        for threshold in thresholds {
            let sampler = BulkBernoulli { threshold };
            for noise in [0, 6, 4, 2] {
                let stream = OpenStream {
                    masks: sampler.bit_masks(),
                    noise,
                    seed: rng.next_u64(),
                };
                for (first_chunk, n) in [(0, 1), (2, 9 * 1024 + 37), (5, 17 * 1024)] {
                    let (words, draws) =
                        check_bodies_with(&sampler, &stream, first_chunk, n, |chunk| OpenRng {
                            stream: &stream,
                            chunk,
                            pos: 0,
                        });
                    if noise == 0 {
                        assert!(words.iter().all(|&w| w == 0), "T {threshold:#x}");
                        let per_chunk = words.chunks(GEN_CHUNK_WORDS).map(|c| 53 * c.len());
                        assert!(draws.iter().copied().eq(per_chunk), "T {threshold:#x}");
                    }
                }
            }
        }
    }

    /// A threshold pick: the edges where a word's first pass settles
    /// no lane true (T = 1), compares one 1 bit and then only zeros
    /// (T = 2^52), or compares only 1 bits (T = 2^53 − 1); or any
    /// refining threshold.
    fn arb_threshold() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(1u64),
            Just(1u64 << 52),
            Just((1u64 << 53) - 1),
            1u64..1 << 53,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every body draws the oracle's words and per-chunk draws over
        /// whole chunks and a final chunk of any length, its last word
        /// full, one label, 37 labels or any count, from any first
        /// chunk; and a split of the chunks into up to three calls of
        /// each body draws the same words.
        #[test]
        fn chunk_fill_bodies_match_the_oracle(
            threshold in arb_threshold(),
            full_chunks in 0usize..10,
            final_words in 1usize..=GEN_CHUNK_WORDS,
            last_labels in prop_oneof![Just(64usize), Just(1), Just(37), 1usize..=64],
            first_chunk in 0usize..12,
            tag in any::<u64>(),
            split_picks in prop::collection::vec(any::<usize>(), 2),
        ) {
            let sampler = BulkBernoulli { threshold };
            let n = full_chunks * 1024 + (final_words - 1) * 64 + last_labels;
            let (words, _) = check_bodies(&sampler, tag, first_chunk, n);
            let key = chunk_key(tag);
            let mut cuts: Vec<usize> = split_picks.iter().map(|p| p % (full_chunks + 1)).collect();
            cuts.sort_unstable();
            cuts.push(full_chunks + 1);
            for (name, body) in bodies::<[u32; 8]>(&sampler) {
                let mut joined = Vec::new();
                let mut from = 0;
                for &to in &cuts {
                    if to > from {
                        let labels = (to * 1024).min(n) - from * 1024;
                        joined.extend(body(&sampler, &key, first_chunk + from, labels).0);
                        from = to;
                    }
                }
                prop_assert_eq!(&joined, &words, "{} cut at chunks {:?}", name, cuts);
            }
        }
    }

    /// Says which chunk-fill bodies the body-vs-oracle tests compare
    /// on this CPU; the zmm body is skipped where it lacks AVX-512F.
    #[test]
    fn zmm_refine_runs_here() {
        let names: Vec<_> = bodies::<[u32; 8]>(&BulkBernoulli::new(0.5))
            .iter()
            .map(|(name, _)| *name)
            .collect();
        if names.contains(&"zmm") {
            eprintln!("fill_chunks: AVX-512F detected, bodies compared: {names:?}");
        } else {
            eprintln!(
                "fill_chunks: no AVX-512F on this CPU, zmm body skipped; bodies compared: {names:?}"
            );
        }
    }

    #[test]
    fn word_popcounts_match_the_binomial_distribution() {
        // χ² goodness-of-fit of per-word popcounts against
        // Binomial(64, p), coarsely bucketed. Deterministic seed; the
        // bound is loose enough to be stable and tight enough to catch
        // a biased or correlated sampler.
        for (p, seed) in [(0.2, 11u64), (0.5, 12), (0.73, 13)] {
            let sampler = BulkBernoulli::new(p);
            let mut rng = seeded_rng(seed);
            let words = 4000usize;
            let mean = 64.0 * p;
            let sd = (64.0 * p * (1.0 - p)).sqrt();
            // Buckets: (-inf, m-s), [m-s, m), [m, m+s), [m+s, inf).
            let edges = [mean - sd, mean, mean + sd];
            let mut observed = [0f64; 4];
            for _ in 0..words {
                let k = sampler.sample_word(&mut rng).count_ones() as f64;
                let bucket = edges.iter().filter(|&&e| k >= e).count();
                observed[bucket] += 1.0;
            }
            // Expected bucket masses from the exact binomial pmf.
            let ln_fact = |k: u64| -> f64 { (1..=k).map(|i| (i as f64).ln()).sum() };
            let mut expected = [0f64; 4];
            for k in 0..=64u64 {
                let ln_pmf = ln_fact(64) - ln_fact(k) - ln_fact(64 - k)
                    + k as f64 * p.ln()
                    + (64 - k) as f64 * (1.0 - p).ln();
                let bucket = edges.iter().filter(|&&e| k as f64 >= e).count();
                expected[bucket] += ln_pmf.exp() * words as f64;
            }
            let chi2: f64 = observed
                .iter()
                .zip(&expected)
                .map(|(o, e)| (o - e) * (o - e) / e)
                .sum();
            // 3 degrees of freedom; the 99.9% quantile is ~16.27.
            assert!(chi2 < 16.27, "p={p}: chi2={chi2}, obs={observed:?}");
        }
    }

    #[test]
    fn lanes_are_independent_of_each_other() {
        // Adjacent-lane correlation over many words should vanish; a
        // sampler that reuses one comparison across lanes would show
        // strong positive correlation.
        let sampler = BulkBernoulli::new(0.4);
        let mut rng = seeded_rng(21);
        let (mut n11, mut n1x, mut nx1, mut total) = (0f64, 0f64, 0f64, 0f64);
        for _ in 0..2000 {
            let w = sampler.sample_word(&mut rng);
            for lane in 0..63 {
                let a = (w >> lane) & 1;
                let b = (w >> (lane + 1)) & 1;
                n11 += (a & b) as f64;
                n1x += a as f64;
                nx1 += b as f64;
                total += 1.0;
            }
        }
        let (pa, pb, pab) = (n1x / total, nx1 / total, n11 / total);
        let corr = (pab - pa * pb) / ((pa * (1.0 - pa) * pb * (1.0 - pb)).sqrt());
        assert!(corr.abs() < 0.02, "adjacent-lane correlation {corr}");
    }

    #[test]
    fn mean_rate_matches_scalar_generator() {
        // Same marginal distribution as gen_bool: long-run rates agree
        // within Monte Carlo noise.
        let p = 0.31;
        let sampler = BulkBernoulli::new(p);
        let mut rng = seeded_rng(33);
        let word_ones: u64 = (0..2000)
            .map(|_| sampler.sample_word(&mut rng).count_ones() as u64)
            .sum();
        let word_rate = word_ones as f64 / (2000.0 * 64.0);
        let mut rng = seeded_rng(34);
        let scalar_ones = (0..128_000).filter(|_| rng.gen_bool(p)).count();
        let scalar_rate = scalar_ones as f64 / 128_000.0;
        assert!((word_rate - p).abs() < 0.01, "word rate {word_rate}");
        assert!(
            (word_rate - scalar_rate).abs() < 0.01,
            "word {word_rate} vs scalar {scalar_rate}"
        );
    }

    #[test]
    fn rng_consumption_is_bounded_and_small() {
        // Count draws per word: expected ~8, never more than 53.
        let sampler = BulkBernoulli::new(0.3);
        let mut rng = Counting {
            inner: seeded_rng(44),
            draws: 0,
        };
        let words = 1000;
        for _ in 0..words {
            sampler.sample_word(&mut rng);
        }
        let per_word = rng.draws as f64 / words as f64;
        assert!(per_word <= 53.0, "hard bound violated: {per_word}");
        assert!(
            per_word < 12.0,
            "expected ~8 draws per 64 labels, measured {per_word}"
        );
    }
}
