//! Blocked-bitset world counting: popcnt over the membership CSR.
//!
//! The Monte Carlo hot loop recounts `p(R) = Σ labels[id]` per region
//! per world. [`Membership`] replays each region's sorted ring with
//! one bitset read per id; this module compiles those rings into
//! word-aligned masks over the [`BitLabels`] block array so a world
//! recount becomes a branch-free sweep of
//! `(labels_block & mask).count_ones()` — up to 64 ids per popcnt
//! instruction instead of one id per gather.
//!
//! # Representation
//!
//! Per region, the sorted ring positions are grouped by 64-bit block
//! and split into two run kinds:
//!
//! * **full ranges** `(start_block, len)` — maximal runs of blocks the
//!   region covers entirely; counted as plain popcounts, no mask load.
//! * **partial runs** `(block_index, mask)` — blocks the region covers
//!   partially; counted as `(block & mask).count_ones()`.
//!
//! # Ring masks
//!
//! [`BlockedMembership::compile`] takes the containment-delta plan
//! [`Membership::build`] derived: a region with a parent (`r − 1`,
//! whose members are a non-empty subset of `r`'s) compiles only its
//! ring `members(r) \ members(r − 1)`, and every counting method adds
//! the parent's count to the ring's. Regions are counted in order, so a
//! parent is always counted before its child; the adds are exact
//! integers, so every method returns the same full-region `p(R)` the
//! full lists give. On nested square scans the rings touch a fraction
//! of the words the full lists do; partitions (grid cells) get no
//! parents and compile exactly as before.
//!
//! # Lane tile
//!
//! The Monte Carlo path, [`BlockedMembership::count_all_many_into`],
//! counts worlds in lane groups of [`MAX_FUSED_WORLDS`]. A group is
//! transposed into a word-major tile — one 64-byte line per label word,
//! lane `l` holding world `l`'s word — so every full word and every
//! partial run costs one line load and one lane-wise popcount for all
//! eight worlds, and a region's eight counts are one accumulator.
//!
//! # Id layout
//!
//! Mask density — ring ids per touched word — is what one popcnt
//! buys over reading ids one at a time. Dataset-order ids scatter a
//! compact region's members across the whole bitset; ranking points by
//! the Morton (Z-order) code of their location ([`morton_layout`])
//! makes spatially compact regions own dense runs of bit positions
//! instead. The masks count whatever positions the lists hold: a scan
//! engine enumerates every member as its Morton position, so its lists,
//! masks and worlds share one layout. Counts are layout-invariant (a
//! permutation reorders the summands of `p(R)`).
//!
//! # Validation
//!
//! [`Membership::members`] is documented sorted/unique, but compilation
//! does not trust its input silently: unsorted, duplicate, or
//! out-of-range ids are rejected with a [`BlockedBuildError`] instead
//! of silently producing wrong masks.

use crate::{kernel::CountingKernel, labels::BitLabels, membership::Membership};
use sfgeo::{BoundingBox, Point};
use std::{cell::RefCell, ops::Range};

/// Worlds per fused counting sweep: the lanes of one tile line, so the
/// widest batch [`BlockedMembership::count_all_many_into`] counts in
/// one CSR pass. Eight `u64` lanes are one 64-byte line and one
/// 512-bit register: a region's eight counts are one accumulator and
/// one row of the fold's matrix. Wider batches run as several lane
/// groups.
pub const MAX_FUSED_WORLDS: usize = 8;

/// One label word of a lane group's tile: lane `l` is world `l`'s word.
/// 64-byte aligned, so a line is exactly one cache line and one aligned
/// 512-bit load.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct TileLine([u64; MAX_FUSED_WORLDS]);

// The AVX-512 tile body loads and counts a line as one 512-bit vector.
const _: () = assert!(std::mem::size_of::<TileLine>() == 64);

/// Largest tile (in lines) the per-thread scratch keeps between calls:
/// 2^14 lines = 1 MiB, a window of 2^20 points. Larger windows
/// re-allocate per call rather than pinning the buffer for the
/// thread's lifetime.
const TILE_RETAIN_LINES: usize = 1 << 14;

thread_local! {
    /// Reusable tile buffer for [`BlockedMembership::count_all_many_into`].
    /// A call rewrites the lanes of the worlds it counts; lanes past them
    /// may hold an earlier call's words, which no body ever stores.
    static TILE_SCRATCH: RefCell<Vec<TileLine>> = const { RefCell::new(Vec::new()) };
}

/// Tile lines [`BlockedMembership::fill_tile`] fills per block: 4 KiB.
const FILL_LINES: usize = 64;

/// Writes the first `row.len()` lanes of `acc` to `row`. A row as wide
/// as `acc` is one fixed-size copy; a variable-length `copy_from_slice`
/// here would be a `memcpy` call per region.
#[inline]
fn store_row<const L: usize>(row: &mut [u64], acc: &[u64; L]) {
    match <&mut [u64; L]>::try_from(&mut *row) {
        Ok(row) => *row = *acc,
        Err(_) => row.copy_from_slice(&acc[..row.len()]),
    }
}

/// Runs `f` over the per-thread tile buffer, then bounds the retained
/// capacity.
fn with_tile_scratch(f: impl FnOnce(&mut Vec<TileLine>)) {
    TILE_SCRATCH.with(|scratch| {
        let mut tile = scratch.borrow_mut();
        f(&mut tile);
        if tile.capacity() > TILE_RETAIN_LINES {
            tile.clear();
            tile.shrink_to(TILE_RETAIN_LINES);
        }
    });
}

/// Error from compiling member-id lists into blocked masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedBuildError {
    /// A region's id list is not in strictly increasing order.
    UnsortedIds {
        /// Region whose list is out of order.
        region: usize,
        /// Index within the list where order breaks.
        position: usize,
    },
    /// A region's id list contains the same id twice.
    DuplicateId {
        /// Region whose list repeats an id.
        region: usize,
        /// The repeated id.
        id: u32,
    },
    /// A member id is `>= num_points`.
    IdOutOfRange {
        /// Region holding the offending id.
        region: usize,
        /// The out-of-range id.
        id: u32,
        /// Number of points the lists may refer to.
        num_points: usize,
    },
}

impl std::fmt::Display for BlockedBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedBuildError::UnsortedIds { region, position } => write!(
                f,
                "region {region}: member ids not strictly increasing at position {position}"
            ),
            BlockedBuildError::DuplicateId { region, id } => {
                write!(f, "region {region}: duplicate member id {id}")
            }
            BlockedBuildError::IdOutOfRange {
                region,
                id,
                num_points,
            } => write!(
                f,
                "region {region}: member id {id} out of range for {num_points} points"
            ),
        }
    }
}

impl std::error::Error for BlockedBuildError {}

/// Region membership compiled to word-aligned popcnt runs over the
/// [`BitLabels`] block array: one region's runs cover its ring, and a
/// region with a parent adds the parent's count (see the module docs).
#[derive(Debug, Clone)]
pub struct BlockedMembership {
    /// CSR into `full_starts`/`full_lens`: region `r`'s full-word
    /// ranges are `full_offsets[r]..full_offsets[r+1]`.
    full_offsets: Vec<u32>,
    full_starts: Vec<u32>,
    full_lens: Vec<u32>,
    /// CSR into `run_blocks`/`run_masks`: region `r`'s partial runs
    /// are `run_offsets[r]..run_offsets[r+1]`.
    run_offsets: Vec<u32>,
    run_blocks: Vec<u32>,
    run_masks: Vec<u64>,
    /// Whether region `r − 1` is region `r`'s parent: `r`'s runs then
    /// hold only its ring, and its count adds the parent's.
    nested: Vec<bool>,
    /// World-invariant `n(R)` of the full region (ring plus parent).
    region_n: Vec<u64>,
    num_points: usize,
    /// The label words every run lies in: all of them for a compiled
    /// membership, the window of a [`BlockedMembership::clip_to_words`]
    /// view. The counting tile holds exactly these words.
    word_lo: usize,
    word_hi: usize,
}

impl BlockedMembership {
    /// Compiles a [`Membership`] through its containment-delta plan:
    /// each region's ring ([`Membership::ring`]) becomes its runs and
    /// its parent ([`Membership::parent`]) is recorded, so counting adds
    /// the parent's count (see *Ring masks* in the module docs). Bit
    /// positions are the ids the lists hold, so the masks count the same
    /// label bitsets the scalar path reads.
    ///
    /// # Errors
    /// [`BlockedBuildError`] if any full member list is unsorted,
    /// contains duplicates, or references an id `>= num_points` — wrong
    /// masks are never produced silently.
    pub fn compile(membership: &Membership) -> Result<Self, BlockedBuildError> {
        let mut b = Self::empty(membership.num_points());
        for r in 0..membership.num_regions() {
            validate_list(r, membership.members(r), b.num_points)?;
            b.push_region(
                membership.ring(r),
                membership.parent(r).is_some(),
                membership.n_of(r),
            );
        }
        Ok(b)
    }

    /// Compiles raw per-region id lists, each into its own full-list
    /// runs with no parents (the low-level entry; exposed for
    /// direct/blocked equivalence tests and custom pipelines):
    /// validates each list, then folds its positions into full ranges
    /// and partial runs.
    ///
    /// # Errors
    /// See [`BlockedMembership::compile`].
    pub fn from_lists<'a, I>(lists: I, num_points: usize) -> Result<Self, BlockedBuildError>
    where
        I: Iterator<Item = &'a [u32]>,
    {
        let mut b = Self::empty(num_points);
        for (region, list) in lists.enumerate() {
            validate_list(region, list, num_points)?;
            b.push_region(list, false, list.len() as u64);
        }
        Ok(b)
    }

    fn empty(num_points: usize) -> Self {
        BlockedMembership {
            full_offsets: vec![0],
            full_starts: Vec::new(),
            full_lens: Vec::new(),
            run_offsets: vec![0],
            run_blocks: Vec::new(),
            run_masks: Vec::new(),
            nested: Vec::new(),
            region_n: Vec::new(),
            num_points,
            word_lo: 0,
            word_hi: num_points.div_ceil(64),
        }
    }

    /// Appends one region's sorted, validated ring positions as runs,
    /// with its parent flag and full `n(R)`.
    fn push_region(&mut self, positions: &[u32], nested: bool, n: u64) {
        // Full ranges may merge only within this region's own runs.
        let full_floor = self.full_starts.len();
        let mut cur_block: Option<u32> = None;
        let mut cur_mask = 0u64;
        for &pos in positions {
            let block = pos >> 6;
            if cur_block != Some(block) {
                if let Some(b) = cur_block {
                    self.flush_run(full_floor, b, cur_mask);
                }
                cur_block = Some(block);
                cur_mask = 0;
            }
            cur_mask |= 1u64 << (pos & 63);
        }
        if let Some(b) = cur_block {
            self.flush_run(full_floor, b, cur_mask);
        }
        self.full_offsets.push(self.full_starts.len() as u32);
        self.run_offsets.push(self.run_blocks.len() as u32);
        self.nested.push(nested);
        self.region_n.push(n);
    }

    /// Files one completed `(block, mask)` run: full words extend or
    /// open a dense `(start, len)` range (the per-block fast path —
    /// counted with no mask load); partial words become masked runs.
    fn flush_run(&mut self, full_floor: usize, block: u32, mask: u64) {
        if mask == u64::MAX {
            if self.full_starts.len() > full_floor {
                let last = self.full_starts.len() - 1;
                if self.full_starts[last] + self.full_lens[last] == block {
                    self.full_lens[last] += 1;
                    return;
                }
            }
            self.full_starts.push(block);
            self.full_lens.push(1);
        } else {
            self.run_blocks.push(block);
            self.run_masks.push(mask);
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.region_n.len()
    }

    /// Number of points the masks refer to.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// World-invariant observation count `n(R)` of region `r`.
    pub fn n_of(&self, r: usize) -> u64 {
        self.region_n[r]
    }

    /// Region `r`'s parent: `Some(r − 1)` when `r` was compiled as a
    /// ring over `r − 1` (see the module docs).
    pub fn parent(&self, r: usize) -> Option<usize> {
        self.nested[r].then(|| r - 1)
    }

    /// The first region of `r`'s parent chain: counting `first..=r`'s
    /// rings sums to `p(R_r)`.
    fn chain_start(&self, r: usize) -> usize {
        let mut q = r;
        while self.nested[q] {
            q -= 1;
        }
        q
    }

    /// Counts `p(R)` of region `r` against a label bitset: the rings of
    /// its parent chain, each as popcnt over full ranges plus masked
    /// popcnt over partial runs. This is the pinned one-world reference
    /// every tile body of [`BlockedMembership::count_all_many_into`] is
    /// held to.
    #[inline]
    pub fn count(&self, r: usize, labels: &BitLabels) -> u64 {
        debug_assert_eq!(
            labels.len(),
            self.num_points,
            "label set length must match the compiled point count"
        );
        (self.chain_start(r)..=r)
            .map(|q| self.ring_count(q, labels.blocks()))
            .sum()
    }

    /// Counts region `r`'s own runs (its ring) against `blocks`: one
    /// `count_ones` per full word, in order, then one AND and one
    /// `count_ones` per partial run.
    #[inline]
    fn ring_count(&self, r: usize, blocks: &[u64]) -> u64 {
        let mut acc = 0u64;
        let (fs, fe) = (
            self.full_offsets[r] as usize,
            self.full_offsets[r + 1] as usize,
        );
        for i in fs..fe {
            let start = self.full_starts[i] as usize;
            let len = self.full_lens[i] as usize;
            for &word in &blocks[start..start + len] {
                acc += word.count_ones() as u64;
            }
        }
        let (s, e) = (
            self.run_offsets[r] as usize,
            self.run_offsets[r + 1] as usize,
        );
        for i in s..e {
            acc += (blocks[self.run_blocks[i] as usize] & self.run_masks[i]).count_ones() as u64;
        }
        acc
    }

    /// Counts `p(R)` for *all* regions against a label set, reusing
    /// the output buffer: [`BlockedMembership::count`] of every region,
    /// each ring counted once.
    pub fn count_all_into(&self, labels: &BitLabels, out: &mut Vec<u64>) {
        assert_eq!(
            labels.len(),
            self.num_points,
            "label set length must match the compiled point count"
        );
        out.clear();
        out.reserve(self.num_regions());
        let blocks = labels.blocks();
        let mut p = 0u64;
        for r in 0..self.num_regions() {
            if !self.nested[r] {
                p = 0;
            }
            p += self.ring_count(r, blocks);
            out.push(p);
        }
    }

    /// Fused multi-world count of **all** regions:
    /// `out[r * worlds.len() + w] = p(R_r)` under `worlds[w]` (row per
    /// region, column per world) — the batched executor's inner loop,
    /// replacing `worlds.len()` separate
    /// [`BlockedMembership::count_all_into`] passes.
    ///
    /// Worlds are counted in lane groups of up to [`MAX_FUSED_WORLDS`].
    /// Each group is first transposed into a word-major *tile*: one
    /// 64-byte line per label word of this compilation's window, lane
    /// `l` holding world `l`'s word. One CSR pass then counts the whole
    /// group: a full word is one line load and one lane-wise popcount,
    /// a partial run one line load ANDed with the broadcast mask, and a
    /// region's counts stay in one accumulator whose first
    /// `worlds.len()` lanes are stored as its row.
    /// [`CountingKernel::Avx512`] runs that sweep with one `vpopcntq`
    /// per line; every other kernel runs the portable lane loop over
    /// only the lanes the group needs. A
    /// [`clip_to_words`](BlockedMembership::clip_to_words) view
    /// transposes only its own window.
    ///
    /// Exactly equal to `count(r, worlds[w])` for every `(r, w)`:
    /// per-lane sums are independent integer folds, so neither the tile
    /// nor the kernel can change them.
    ///
    /// # Panics
    /// Panics if any world's length disagrees with the compiled point
    /// count.
    pub fn count_all_many_into(
        &self,
        worlds: &[&BitLabels],
        kernel: CountingKernel,
        out: &mut Vec<u64>,
    ) {
        for world in worlds {
            assert_eq!(
                world.len(),
                self.num_points,
                "label set length must match the compiled point count"
            );
        }
        let width = worlds.len();
        out.clear();
        out.resize(self.num_regions() * width, 0);
        with_tile_scratch(|tile| {
            for (group, worlds) in worlds.chunks(MAX_FUSED_WORLDS).enumerate() {
                self.fill_tile(tile, worlds);
                let cols = group * MAX_FUSED_WORLDS..group * MAX_FUSED_WORLDS + worlds.len();
                self.sweep_tile(tile, kernel, cols, width, out);
            }
        });
    }

    /// Transposes up to [`MAX_FUSED_WORLDS`] worlds' words of this
    /// compilation's window into `tile`: line `i`, lane `l` becomes word
    /// `word_lo + i` of `worlds[l]`. Lanes past `worlds.len()` keep
    /// whatever they held; the bodies never store them. Lines are
    /// filled [`FILL_LINES`] at a time, so each world's strided writes
    /// land in lines that stay in L1.
    fn fill_tile(&self, tile: &mut Vec<TileLine>, worlds: &[&BitLabels]) {
        debug_assert!(worlds.len() <= MAX_FUSED_WORLDS);
        tile.resize(self.word_hi - self.word_lo, TileLine::default());
        for (chunk, lines) in tile.chunks_mut(FILL_LINES).enumerate() {
            let first = self.word_lo + chunk * FILL_LINES;
            for (lane, world) in worlds.iter().enumerate() {
                for (line, &word) in lines.iter_mut().zip(&world.blocks()[first..]) {
                    line.0[lane] = word;
                }
            }
        }
    }

    /// Counts every region against a filled tile through the tile body
    /// `kernel` selects: [`CountingKernel::Avx512`] runs the VPOPCNTDQ
    /// body, every other kernel the portable body over only as many
    /// lanes (1, 2, 4 or 8) as `cols` needs. The tile's first
    /// `cols.len()` lanes are the matrix columns `cols`: region `r`'s
    /// counts go to `out[r * width + cols.start..r * width + cols.end]`.
    fn sweep_tile(
        &self,
        tile: &[TileLine],
        kernel: CountingKernel,
        cols: Range<usize>,
        width: usize,
        out: &mut [u64],
    ) {
        match (kernel, cols.len()) {
            (CountingKernel::Avx512, _) => {
                // Once per lane group: the variant is public, so only
                // this check proves the CPU can run the tile body.
                assert!(kernel.is_supported(), "avx512 kernel on a non-avx512 cpu");
                // SAFETY: AVX-512F and AVX-512VPOPCNTDQ were just
                // detected at runtime.
                unsafe { self.sweep_tile_avx512(tile, cols, width, out) }
            }
            (_, 1) => self.sweep_tile_portable::<1>(tile, cols, width, out),
            (_, 2) => self.sweep_tile_portable::<2>(tile, cols, width, out),
            (_, 3..=4) => self.sweep_tile_portable::<4>(tile, cols, width, out),
            _ => self.sweep_tile_portable::<8>(tile, cols, width, out),
        }
    }

    /// The portable tile body over the first `L` lanes: one `[u64; L]`
    /// accumulator per region, one `count_ones` per lane per line. Each
    /// ring is summed in a fresh accumulator and then added to its
    /// parent's counts: with the loop-carried `acc` summed into
    /// directly, the compiler reshuffled its lanes on every line.
    fn sweep_tile_portable<const L: usize>(
        &self,
        tile: &[TileLine],
        cols: Range<usize>,
        width: usize,
        out: &mut [u64],
    ) {
        debug_assert!(cols.len() <= L && L <= MAX_FUSED_WORLDS);
        let lo = self.word_lo;
        let mut acc = [0u64; L];
        for r in 0..self.num_regions() {
            // A child starts from its parent's counts, still in `acc`.
            if !self.nested[r] {
                acc = [0; L];
            }
            let mut ring = [0u64; L];
            let (fs, fe) = (
                self.full_offsets[r] as usize,
                self.full_offsets[r + 1] as usize,
            );
            for (&start, &len) in self.full_starts[fs..fe].iter().zip(&self.full_lens[fs..fe]) {
                let start = start as usize - lo;
                for line in &tile[start..start + len as usize] {
                    for (a, &word) in ring.iter_mut().zip(&line.0[..L]) {
                        *a += word.count_ones() as u64;
                    }
                }
            }
            let (s, e) = (
                self.run_offsets[r] as usize,
                self.run_offsets[r + 1] as usize,
            );
            for (&block, &mask) in self.run_blocks[s..e].iter().zip(&self.run_masks[s..e]) {
                let line = &tile[block as usize - lo];
                for (a, &word) in ring.iter_mut().zip(&line.0[..L]) {
                    *a += (word & mask).count_ones() as u64;
                }
            }
            for (a, &c) in acc.iter_mut().zip(&ring) {
                *a += c;
            }
            store_row(&mut out[r * width + cols.start..r * width + cols.end], &acc);
        }
    }

    /// The AVX-512 tile body: the region accumulator lives in one zmm
    /// register, each line is one aligned load and one `vpopcntq`, and
    /// each row is one masked store of its `cols.len()` counts.
    ///
    /// # Safety
    /// Requires AVX-512F and AVX-512VPOPCNTDQ at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn sweep_tile_avx512(
        &self,
        tile: &[TileLine],
        cols: Range<usize>,
        width: usize,
        out: &mut [u64],
    ) {
        use std::arch::x86_64::*;
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load(line: &TileLine) -> __m512i {
            // SAFETY: a `TileLine` is 64 bytes, 64-byte aligned.
            unsafe { _mm512_load_si512(line.0.as_ptr() as *const __m512i) }
        }
        let lo = self.word_lo;
        let store_mask = ((1u16 << cols.len()) - 1) as __mmask8;
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        for r in 0..self.num_regions() {
            // A child starts from its parent's counts, still in `acc`.
            if !self.nested[r] {
                acc = zero;
            }
            let (fs, fe) = (
                self.full_offsets[r] as usize,
                self.full_offsets[r + 1] as usize,
            );
            for (&start, &len) in self.full_starts[fs..fe].iter().zip(&self.full_lens[fs..fe]) {
                let start = start as usize - lo;
                for line in &tile[start..start + len as usize] {
                    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(load(line)));
                }
            }
            let (s, e) = (
                self.run_offsets[r] as usize,
                self.run_offsets[r + 1] as usize,
            );
            for (&block, &mask) in self.run_blocks[s..e].iter().zip(&self.run_masks[s..e]) {
                let word = _mm512_and_si512(
                    load(&tile[block as usize - lo]),
                    _mm512_set1_epi64(mask as i64),
                );
                acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(word));
            }
            let row = &mut out[r * width + cols.start..r * width + cols.end];
            // SAFETY: `row` holds exactly the slots the mask selects.
            unsafe { _mm512_mask_storeu_epi64(row.as_mut_ptr() as *mut i64, store_mask, acc) };
        }
    }

    /// Never compiled on x86_64; the unreachable stub keeps the
    /// dispatch total elsewhere (where `Avx512` is never resolved).
    #[cfg(not(target_arch = "x86_64"))]
    unsafe fn sweep_tile_avx512(&self, _: &[TileLine], _: Range<usize>, _: usize, _: &mut [u64]) {
        unreachable!("avx512 kernel is x86_64-only")
    }

    /// Number of 64-bit label words the compiled positions span
    /// (`⌈num_points/64⌉`) — the axis [`BlockedMembership::clip_to_words`]
    /// shards partition.
    pub fn num_label_words(&self) -> usize {
        self.num_points.div_ceil(64)
    }

    /// A counting view of this compilation restricted to label words
    /// `word_lo..word_hi`: full ranges are clipped at the boundaries
    /// and partial runs outside the window are dropped. Block indices
    /// stay **absolute**, so the view counts against the *full* label
    /// array — and because every word belongs to exactly one window
    /// of a partition, summing the views' counts
    /// over a partition of `0..num_label_words()` reproduces the
    /// unsharded count exactly (integer addition, no rounding).
    ///
    /// Regions keep their parents: a view's count adds the view's own
    /// count of the parent, and window-local sums are linear, so the
    /// partition property holds for ring-compiled regions too. The
    /// view's `n_of`/`total_ids` are window-local full-region counts
    /// (they sum to the unclipped ones across a partition).
    ///
    /// # Panics
    /// Panics on an inverted window (`word_lo > word_hi`) or one
    /// reaching past [`BlockedMembership::num_label_words`] — an
    /// oversized window would silently produce a valid-looking view
    /// whose extra words can never hold members, masking a sharding
    /// arithmetic bug at the call site.
    pub fn clip_to_words(&self, word_lo: usize, word_hi: usize) -> BlockedMembership {
        assert!(word_lo <= word_hi, "inverted word window");
        assert!(
            word_hi <= self.num_label_words(),
            "word window {word_lo}..{word_hi} exceeds the {} label words",
            self.num_label_words()
        );
        let (lo, hi) = (word_lo as u64, word_hi as u64);
        let mut clipped = Self {
            word_lo,
            word_hi,
            ..Self::empty(self.num_points)
        };
        for r in 0..self.num_regions() {
            let mut n = match self.parent(r) {
                Some(p) => clipped.region_n[p],
                None => 0,
            };
            let (fs, fe) = (
                self.full_offsets[r] as usize,
                self.full_offsets[r + 1] as usize,
            );
            for i in fs..fe {
                let start = (self.full_starts[i] as u64).max(lo);
                let end = (self.full_starts[i] as u64 + self.full_lens[i] as u64).min(hi);
                if start < end {
                    clipped.full_starts.push(start as u32);
                    clipped.full_lens.push((end - start) as u32);
                    n += (end - start) * 64;
                }
            }
            let (s, e) = (
                self.run_offsets[r] as usize,
                self.run_offsets[r + 1] as usize,
            );
            for i in s..e {
                let block = self.run_blocks[i] as u64;
                if (lo..hi).contains(&block) {
                    clipped.run_blocks.push(self.run_blocks[i]);
                    clipped.run_masks.push(self.run_masks[i]);
                    n += self.run_masks[i].count_ones() as u64;
                }
            }
            clipped.full_offsets.push(clipped.full_starts.len() as u32);
            clipped.run_offsets.push(clipped.run_blocks.len() as u32);
            clipped.nested.push(self.nested[r]);
            clipped.region_n.push(n);
        }
        clipped
    }

    /// Total member ids across all regions (`Σ n(R)` of the full
    /// regions, whatever their parents).
    pub fn total_ids(&self) -> u64 {
        self.region_n.iter().sum()
    }

    /// Words one counting sweep reads per world: the full blocks plus
    /// partial runs of every region's ring.
    pub fn touched_words(&self) -> u64 {
        self.full_lens.iter().map(|&l| l as u64).sum::<u64>() + self.run_masks.len() as u64
    }

    /// Measured mask density: ring ids per ring word, in `[1, 64]` (0
    /// for empty memberships). Gathering the ring ids costs one read
    /// per id; the sweep one AND+popcnt per ring word — so this ratio
    /// bounds what the masks save per world.
    pub fn ids_per_word(&self) -> f64 {
        let words = self.touched_words();
        if words == 0 {
            return 0.0;
        }
        let full_ids = 64 * self.full_lens.iter().map(|&l| l as u64).sum::<u64>();
        let run_ids: u64 = self.run_masks.iter().map(|m| m.count_ones() as u64).sum();
        (full_ids + run_ids) as f64 / words as f64
    }
}

/// Validates one region's raw id list: strictly increasing (sorted,
/// duplicate-free) and in range.
fn validate_list(region: usize, list: &[u32], num_points: usize) -> Result<(), BlockedBuildError> {
    for (position, pair) in list.windows(2).enumerate() {
        if pair[0] == pair[1] {
            return Err(BlockedBuildError::DuplicateId {
                region,
                id: pair[0],
            });
        }
        if pair[0] > pair[1] {
            return Err(BlockedBuildError::UnsortedIds {
                region,
                position: position + 1,
            });
        }
    }
    if let Some(&last) = list.last() {
        if last as usize >= num_points {
            return Err(BlockedBuildError::IdOutOfRange {
                region,
                id: last,
                num_points,
            });
        }
    }
    Ok(())
}

/// A spatially coherent id layout: ranks points by Morton (Z-order)
/// code so neighbours in space become neighbours in bit-position
/// space, giving compact regions dense blocked masks. Returns
/// `to_pos[id] = rank` (ties broken by id, so the layout is
/// deterministic).
pub fn morton_layout(points: &[Point]) -> Vec<u32> {
    let Some(bounds) = BoundingBox::of_points(points) else {
        return Vec::new();
    };
    let width = bounds.width().max(f64::MIN_POSITIVE);
    let height = bounds.height().max(f64::MIN_POSITIVE);
    let quantize = |v: f64| -> u32 { ((v.clamp(0.0, 1.0)) * 65535.0) as u32 };
    let code = |p: &Point| -> u32 {
        let qx = quantize((p.x - bounds.min.x) / width);
        let qy = quantize((p.y - bounds.min.y) / height);
        interleave_u16(qx) | (interleave_u16(qy) << 1)
    };
    let mut order: Vec<u32> = (0..points.len() as u32).collect();
    order.sort_unstable_by_key(|&id| (code(&points[id as usize]), id));
    let mut to_pos = vec![0u32; points.len()];
    for (rank, &id) in order.iter().enumerate() {
        to_pos[id as usize] = rank as u32;
    }
    to_pos
}

/// Partitions the word axis `0..num_words` into `shards` contiguous
/// windows, as even as possible: the first `num_words % shards`
/// windows get one extra word. Windows may be empty when
/// `shards > num_words`; the windows always tile the axis exactly, so
/// [`BlockedMembership::clip_to_words`] views over them sum to the
/// unsharded counts.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn shard_word_bounds(num_words: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "need at least one shard");
    let base = num_words / shards;
    let extra = num_words % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

/// Spreads the low 16 bits of `v` into the even bit positions.
fn interleave_u16(v: u32) -> u32 {
    let mut v = v & 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    (v | (v << 1)) & 0x5555_5555
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BruteForceIndex, PointVisit};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Circle, Rect, Region};

    fn scalar_count(labels: &BitLabels, ids: &[u32]) -> u64 {
        ids.iter().map(|&id| labels.get(id as usize) as u64).sum()
    }

    #[test]
    fn identity_compilation_matches_scalar_counts() {
        let lists: Vec<Vec<u32>> = vec![
            vec![],                         // empty region
            vec![7],                        // single id
            (0..=299).collect(),            // full span: dense fast path
            vec![60, 61, 62, 63, 64, 65],   // word-boundary straddle
            (64..128).collect(),            // exactly one full word
            vec![0, 63, 64, 127, 128, 255], // sparse across words
            (0..300).filter(|i| i % 3 == 0).collect(),
        ];
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let b = BlockedMembership::from_lists(refs.iter().copied(), 300).unwrap();
        assert_eq!(b.num_regions(), lists.len());
        let labels = BitLabels::from_fn(300, |i| i % 7 == 0 || i > 250);
        for (r, ids) in lists.iter().enumerate() {
            assert_eq!(b.n_of(r), ids.len() as u64, "region {r}");
            assert_eq!(
                b.count(r, &labels),
                scalar_count(&labels, ids),
                "region {r}"
            );
        }
        let mut out = Vec::new();
        b.count_all_into(&labels, &mut out);
        let expected: Vec<u64> = lists.iter().map(|ids| scalar_count(&labels, ids)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn full_ranges_are_merged() {
        let full: Vec<u32> = (0..256).collect(); // 4 full words
        let b = BlockedMembership::from_lists([full.as_slice()].into_iter(), 256).unwrap();
        assert_eq!(b.full_starts, vec![0]);
        assert_eq!(b.full_lens, vec![4]);
        assert!(b.run_masks.is_empty());
        assert_eq!(b.touched_words(), 4);
        assert_eq!(b.ids_per_word(), 64.0);
    }

    #[test]
    fn full_ranges_do_not_merge_across_regions() {
        let a: Vec<u32> = (0..64).collect();
        let c: Vec<u32> = (64..128).collect();
        let b =
            BlockedMembership::from_lists([a.as_slice(), c.as_slice()].into_iter(), 128).unwrap();
        assert_eq!(b.full_starts, vec![0, 1]);
        assert_eq!(b.full_lens, vec![1, 1]);
        let labels = BitLabels::from_fn(128, |i| i < 100);
        assert_eq!(b.count(0, &labels), 64);
        assert_eq!(b.count(1, &labels), 36);
    }

    #[test]
    fn unsorted_ids_rejected() {
        let err =
            BlockedMembership::from_lists([[5u32, 3, 8].as_slice()].into_iter(), 10).unwrap_err();
        assert_eq!(
            err,
            BlockedBuildError::UnsortedIds {
                region: 0,
                position: 1
            }
        );
        assert!(err.to_string().contains("not strictly increasing"));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err =
            BlockedMembership::from_lists([[].as_slice(), [3u32, 3].as_slice()].into_iter(), 10)
                .unwrap_err();
        assert_eq!(err, BlockedBuildError::DuplicateId { region: 1, id: 3 });
    }

    #[test]
    fn out_of_range_ids_rejected() {
        let err =
            BlockedMembership::from_lists([[2u32, 10].as_slice()].into_iter(), 10).unwrap_err();
        assert_eq!(
            err,
            BlockedBuildError::IdOutOfRange {
                region: 0,
                id: 10,
                num_points: 10
            }
        );
    }

    fn membership_fixture() -> Membership {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 700;
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let labels = BitLabels::from_fn(n, |_| rng.gen_bool(0.5));
        let idx = BruteForceIndex::build(points, labels);
        let regions: Vec<Region> = vec![
            Rect::from_coords(0.0, 0.0, 5.0, 10.0).into(),
            Rect::from_coords(2.0, 2.0, 3.0, 3.0).into(),
            Circle::new(Point::new(5.0, 5.0), 2.5).into(),
            Rect::from_coords(40.0, 40.0, 50.0, 50.0).into(), // empty
        ];
        Membership::build(&idx, n, &regions)
    }

    #[test]
    fn compile_matches_membership_counts_across_worlds() {
        let m = membership_fixture();
        let b = BlockedMembership::compile(&m).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let mut world = BitLabels::zeros(m.num_points());
        for _ in 0..5 {
            let rho = rng.gen_range(0.05..0.95);
            world.refill(|_| rng.gen_bool(rho));
            for r in 0..m.num_regions() {
                assert_eq!(b.count(r, &world), m.count(r, &world).p);
                assert_eq!(b.n_of(r), m.n_of(r));
            }
        }
    }

    /// A uniformly random permutation of `0..n`.
    fn shuffled_layout(n: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
        let mut layout: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            layout.swap(i, j);
        }
        layout
    }

    /// Compiles `m`'s lists with every id moved to `to_pos[id]`.
    fn compile_permuted(m: &Membership, to_pos: &[u32]) -> BlockedMembership {
        let lists: Vec<Vec<u32>> = (0..m.num_regions())
            .map(|r| {
                let mut list: Vec<u32> =
                    m.members(r).iter().map(|&id| to_pos[id as usize]).collect();
                list.sort_unstable();
                list
            })
            .collect();
        BlockedMembership::from_lists(lists.iter().map(Vec::as_slice), m.num_points()).unwrap()
    }

    /// `labels[id]` placed at bit `to_pos[id]`.
    fn permuted_world(labels: &[bool], to_pos: &[u32]) -> BitLabels {
        let mut world = BitLabels::zeros(labels.len());
        for (&label, &pos) in labels.iter().zip(to_pos) {
            world.set(pos as usize, label);
        }
        world
    }

    #[test]
    fn layout_compilation_matches_scalar_counts() {
        let m = membership_fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        // An arbitrary permutation — correctness must not depend on the
        // layout being spatially meaningful.
        let n = m.num_points();
        let layout = shuffled_layout(n, &mut rng);
        let b = compile_permuted(&m, &layout);
        let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        let world = BitLabels::from_bools(&bools);
        let layout_world = permuted_world(&bools, &layout);
        assert_eq!(world.count_ones(), layout_world.count_ones());
        for r in 0..m.num_regions() {
            assert_eq!(
                b.count(r, &layout_world),
                m.count(r, &world).p,
                "region {r}"
            );
        }
    }

    #[test]
    fn morton_layout_is_a_dense_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let points: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let mut layout = morton_layout(&points);
        layout.sort_unstable();
        assert!(layout.iter().copied().eq(0..points.len() as u32));
        assert!(morton_layout(&[]).is_empty());
    }

    #[test]
    fn morton_layout_improves_mask_density() {
        // Uniform points, partition-grid regions: dataset-order ids
        // scatter each cell's members (~1 id/word); Morton order packs
        // them into contiguous position runs.
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let n = 20_000;
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..16.0), rng.gen_range(0.0..16.0)))
            .collect();
        let labels = BitLabels::from_fn(n, |_| rng.gen_bool(0.5));
        let idx = BruteForceIndex::build(points.clone(), labels);
        let mut regions: Vec<Region> = Vec::new();
        for gx in 0..16 {
            for gy in 0..16 {
                regions.push(
                    Rect::from_coords(gx as f64, gy as f64, (gx + 1) as f64, (gy + 1) as f64)
                        .into(),
                );
            }
        }
        let m = Membership::build(&idx, n, &regions);
        let flat = BlockedMembership::compile(&m).unwrap();
        let to_pos = morton_layout(&points);
        let morton = compile_permuted(&m, &to_pos);
        assert_eq!(flat.total_ids(), morton.total_ids());
        assert!(
            morton.ids_per_word() > 8.0 * flat.ids_per_word(),
            "morton {} vs flat {}",
            morton.ids_per_word(),
            flat.ids_per_word()
        );
        // Counts stay identical between the two layouts.
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let flat_world = BitLabels::from_bools(&bools);
        let morton_world = permuted_world(&bools, &to_pos);
        for r in 0..m.num_regions() {
            assert_eq!(flat.count(r, &flat_world), morton.count(r, &morton_world));
        }
    }

    #[test]
    fn shard_word_bounds_tile_the_axis() {
        for (words, shards) in [
            (0usize, 1usize),
            (1, 1),
            (5, 2),
            (64, 3),
            (7, 9),
            (100, 100),
        ] {
            let bounds = shard_word_bounds(words, shards);
            assert_eq!(bounds.len(), shards);
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds[shards - 1].1, words);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "windows must abut");
            }
            // Even split: window lengths differ by at most one.
            let lens: Vec<usize> = bounds.iter().map(|&(lo, hi)| hi - lo).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "{lens:?}");
        }
    }

    #[test]
    fn clipped_views_sum_to_the_unsharded_counts() {
        let m = membership_fixture();
        let layout = shuffled_layout(m.num_points(), &mut ChaCha8Rng::seed_from_u64(83));
        let b = compile_permuted(&m, &layout);
        let words = b.num_label_words();
        let mut rng = ChaCha8Rng::seed_from_u64(84);
        let world = BitLabels::from_fn(b.num_points(), |_| rng.gen_bool(0.4));
        // Shard counts beyond the word count produce empty windows.
        for shards in [1usize, 2, 3, 5, words, words + 4] {
            let views: Vec<BlockedMembership> = shard_word_bounds(words, shards)
                .into_iter()
                .map(|(lo, hi)| b.clip_to_words(lo, hi))
                .collect();
            for r in 0..b.num_regions() {
                let n_sum: u64 = views.iter().map(|v| v.n_of(r)).sum();
                assert_eq!(n_sum, b.n_of(r), "n(R) must partition, region {r}");
                let p_sum: u64 = views.iter().map(|v| v.count(r, &world)).sum();
                assert_eq!(p_sum, b.count(r, &world), "p(R) must partition, region {r}");
            }
            let ids_sum: u64 = views.iter().map(|v| v.total_ids()).sum();
            assert_eq!(ids_sum, b.total_ids());
        }
        // A full-axis view counts exactly like the parent.
        let full = b.clip_to_words(0, words);
        for r in 0..b.num_regions() {
            assert_eq!(full.count(r, &world), b.count(r, &world));
        }
        // An empty view counts zero everywhere.
        let empty = b.clip_to_words(3, 3);
        for r in 0..b.num_regions() {
            assert_eq!(empty.count(r, &world), 0);
            assert_eq!(empty.n_of(r), 0);
        }
    }

    #[test]
    fn clipping_splits_full_ranges_at_word_boundaries() {
        // One region covering 4 full words; clip mid-range.
        let full: Vec<u32> = (0..256).collect();
        let b = BlockedMembership::from_lists([full.as_slice()].into_iter(), 256).unwrap();
        let left = b.clip_to_words(0, 2);
        let right = b.clip_to_words(2, 4);
        assert_eq!(left.n_of(0), 128);
        assert_eq!(right.n_of(0), 128);
        let labels = BitLabels::from_fn(256, |i| i % 2 == 0);
        assert_eq!(left.count(0, &labels) + right.count(0, &labels), 128);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn clip_to_words_rejects_oversized_windows() {
        // Regression: an oversized window used to silently yield a
        // valid-looking view whose tail words can never hold members.
        let m = membership_fixture();
        let b = BlockedMembership::compile(&m).unwrap();
        let words = b.num_label_words();
        let _ = b.clip_to_words(0, words + 1);
    }

    #[test]
    fn fused_counting_equals_per_world_counting() {
        use crate::kernel::CountingKernel;
        let m = membership_fixture();
        let b = BlockedMembership::compile(&m).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        // 1..=MAX_FUSED_WORLDS+2 exercises partial, exact, and
        // multi-sweep batches.
        for batch in 1..=MAX_FUSED_WORLDS + 2 {
            let worlds: Vec<BitLabels> = (0..batch)
                .map(|_| {
                    let rho = rng.gen_range(0.05..0.95);
                    BitLabels::from_fn(b.num_points(), |_| rng.gen_bool(rho))
                })
                .collect();
            let views: Vec<&BitLabels> = worlds.iter().collect();
            for kernel in CountingKernel::ALL {
                if !kernel.is_supported() {
                    continue;
                }
                let mut fused = Vec::new();
                b.count_all_many_into(&views, kernel, &mut fused);
                assert_eq!(fused.len(), b.num_regions() * batch);
                for r in 0..b.num_regions() {
                    for (w, world) in worlds.iter().enumerate() {
                        assert_eq!(
                            fused[r * batch + w],
                            b.count(r, world),
                            "kernel {kernel} batch {batch} region {r} world {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_counting_works_on_clipped_views() {
        use crate::kernel::CountingKernel;
        let m = membership_fixture();
        let b = BlockedMembership::compile(&m).unwrap();
        let words = b.num_label_words();
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let worlds: Vec<BitLabels> = (0..3)
            .map(|_| BitLabels::from_fn(b.num_points(), |_| rng.gen_bool(0.5)))
            .collect();
        let views: Vec<&BitLabels> = worlds.iter().collect();
        for shards in [1usize, 2, 5] {
            let mut summed = vec![0u64; b.num_regions() * worlds.len()];
            for (lo, hi) in shard_word_bounds(words, shards) {
                let clipped = b.clip_to_words(lo, hi);
                let mut partial = Vec::new();
                clipped.count_all_many_into(&views, CountingKernel::Portable, &mut partial);
                for (acc, p) in summed.iter_mut().zip(&partial) {
                    *acc += p;
                }
            }
            for r in 0..b.num_regions() {
                for (w, world) in worlds.iter().enumerate() {
                    assert_eq!(summed[r * worlds.len() + w], b.count(r, world));
                }
            }
        }
    }

    /// Ring-compiled nested squares followed by a 4×4 grid partition
    /// over `n` random points: the two region families the tile sweeps,
    /// in one compilation.
    fn nested_and_partition_fixture(n: usize, seed: u64) -> BlockedMembership {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)))
            .collect();
        let idx = BruteForceIndex::build(points, BitLabels::zeros(n));
        let mut regions: Vec<Region> = Vec::new();
        for centre in [Point::new(2.0, 2.0), Point::new(5.5, 4.0)] {
            for side in [0.5, 1.5, 3.0, 5.0, 9.0] {
                regions.push(Rect::square(centre, side).into());
            }
        }
        for gx in 0..4 {
            for gy in 0..4 {
                let (x, y) = (2.0 * gx as f64, 2.0 * gy as f64);
                regions.push(Rect::from_coords(x, y, x + 2.0, y + 2.0).into());
            }
        }
        let m = Membership::build(&idx, n, &regions);
        assert!((1..m.num_regions()).any(|r| m.parent(r).is_some()));
        BlockedMembership::compile(&m).unwrap()
    }

    /// Every tile body this CPU runs, called directly on a filled tile
    /// through the kernel dispatch, against the per-world reference
    /// `count(r, world)`: every width 1..=8 (so the 1-, 2-, 4- and
    /// 8-lane portable bodies), label lengths ≡ 0, 1 and 63 mod 64,
    /// nested rings and partitions, and clipped views down to
    /// single-word windows. The AVX-512 body is skipped on a CPU
    /// without VPOPCNTDQ.
    #[test]
    fn avx512_and_portable_tile_agree() {
        let kernels: Vec<CountingKernel> = CountingKernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        for n in [640, 641, 703, 64, 65, 127] {
            let b = nested_and_partition_fixture(n, n as u64);
            let words = b.num_label_words();
            let mut views = vec![b.clone()];
            for shards in [3, words] {
                views.extend(
                    shard_word_bounds(words, shards)
                        .into_iter()
                        .map(|(lo, hi)| b.clip_to_words(lo, hi)),
                );
            }
            for width in 1..=MAX_FUSED_WORLDS {
                let worlds: Vec<BitLabels> = (0..width)
                    .map(|_| {
                        let rho = rng.gen_range(0.05..0.95);
                        BitLabels::from_fn(n, |_| rng.gen_bool(rho))
                    })
                    .collect();
                let refs: Vec<&BitLabels> = worlds.iter().collect();
                for view in &views {
                    let expected: Vec<u64> = (0..view.num_regions())
                        .flat_map(|r| worlds.iter().map(move |world| view.count(r, world)))
                        .collect();
                    let mut tile = Vec::new();
                    view.fill_tile(&mut tile, &refs);
                    for &kernel in &kernels {
                        let mut out = vec![0; expected.len()];
                        view.sweep_tile(&tile, kernel, 0..width, width, &mut out);
                        assert_eq!(out, expected, "{kernel}: n {n}, width {width}");
                    }
                }
            }
        }
    }

    /// A narrower lane group after a full one on the same thread: the
    /// reused tile still holds the earlier worlds in lanes 3..8, and
    /// every count of the narrow batch equals the per-world reference.
    #[test]
    fn stale_lanes_never_leak_into_a_narrower_batch() {
        let b = nested_and_partition_fixture(703, 94);
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        let worlds: Vec<BitLabels> = (0..MAX_FUSED_WORLDS)
            .map(|_| BitLabels::from_fn(b.num_points(), |_| rng.gen_bool(0.9)))
            .collect();
        let refs: Vec<&BitLabels> = worlds.iter().collect();
        for kernel in CountingKernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let mut out = Vec::new();
            b.count_all_many_into(&refs, kernel, &mut out);
            b.count_all_many_into(&refs[..3], kernel, &mut out);
            assert_eq!(out.len(), b.num_regions() * 3);
            for r in 0..b.num_regions() {
                for (w, world) in refs[..3].iter().enumerate() {
                    assert_eq!(out[r * 3 + w], b.count(r, world), "{kernel} region {r}");
                }
            }
        }
    }

    #[test]
    fn membership_output_always_compiles() {
        // The production path: Membership::build output satisfies the
        // sorted/unique/in-range contract by construction.
        let m = membership_fixture();
        assert!(BlockedMembership::compile(&m).is_ok());
    }

    /// An index that lies about enumeration order — the kind of input
    /// compile must reject rather than mask incorrectly.
    struct UnsortedIndex;
    impl PointVisit for UnsortedIndex {
        fn for_each_in(&self, _region: &Region, visit: &mut dyn FnMut(u32)) {
            visit(5);
            visit(2);
        }
    }

    #[test]
    fn raw_lists_from_misbehaving_enumeration_rejected() {
        let ids = UnsortedIndex.ids_in(&Rect::from_coords(0.0, 0.0, 1.0, 1.0).into());
        // ids_in sorts, so simulate the unsorted raw stream directly.
        let mut raw = Vec::new();
        UnsortedIndex.for_each_in(&Rect::from_coords(0.0, 0.0, 1.0, 1.0).into(), &mut |id| {
            raw.push(id)
        });
        assert_ne!(raw, ids);
        let err = BlockedMembership::from_lists([raw.as_slice()].into_iter(), 10).unwrap_err();
        assert!(matches!(err, BlockedBuildError::UnsortedIds { .. }));
    }
}
