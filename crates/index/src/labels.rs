//! Compact bitset of binary outcome labels.
//!
//! Labels are stored out-of-band from the spatial structures so the
//! Monte Carlo simulation can redraw them without touching geometry.
//! For LAR-scale data (206k observations) the whole bitset is ~26 KB —
//! it fits in L1/L2 cache, which is what makes membership-list
//! recounting fast.

/// A fixed-length bitset of outcome labels (`true` = positive class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitLabels {
    blocks: Vec<u64>,
    len: usize,
}

impl BitLabels {
    /// Creates an all-negative label set of the given length.
    pub fn zeros(len: usize) -> Self {
        BitLabels {
            blocks: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from a bool slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut l = BitLabels::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                l.set(i, true);
            }
        }
        l
    }

    /// Builds by evaluating `f(i)` for every index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut l = BitLabels::zeros(len);
        for i in 0..len {
            if f(i) {
                l.set(i, true);
            }
        }
        l
    }

    /// Number of labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no labels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads label `i`.
    ///
    /// # Panics
    /// Panics (in debug builds via the indexing, in release via the
    /// explicit assert) if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "label index {i} out of bounds (len {})",
            self.len
        );
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes label `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "label index {i} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Total number of positive labels (`P`).
    pub fn count_ones(&self) -> u64 {
        self.blocks.iter().map(|b| b.count_ones() as u64).sum()
    }

    /// Positive labels whose bit falls in blocks `word_lo..word_hi` —
    /// one shard's contribution to `P`. Because every block belongs to
    /// exactly one window of a partition of `0..num_blocks()`, summing
    /// the windows' counts reproduces [`BitLabels::count_ones`] exactly
    /// (integer addition; the zero-tail invariant means the final
    /// block never over-counts).
    ///
    /// # Panics
    /// Panics on an inverted or out-of-range window, mirroring
    /// `BlockedMembership::clip_to_words` so the two shard axes cannot
    /// silently disagree.
    pub fn count_ones_in_words(&self, word_lo: usize, word_hi: usize) -> u64 {
        assert!(word_lo <= word_hi, "inverted word window");
        assert!(
            word_hi <= self.blocks.len(),
            "word window {word_lo}..{word_hi} exceeds the {} label blocks",
            self.blocks.len()
        );
        self.blocks[word_lo..word_hi]
            .iter()
            .map(|b| b.count_ones() as u64)
            .sum()
    }

    /// The raw 64-bit blocks backing the bitset, little-endian within
    /// each block (bit `i % 64` of block `i / 64` is label `i`).
    ///
    /// Invariant: bits at positions `>= len` are always zero — every
    /// mutation path ([`BitLabels::set`], [`BitLabels::refill`],
    /// [`BitLabels::clear`]) preserves this, so popcount-style
    /// consumers ([`crate::BlockedMembership`]) can AND whole blocks
    /// without masking off the tail.
    #[inline]
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of 64-bit blocks backing the bitset (`⌈len/64⌉`).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Mutable access to the raw blocks, for bulk parallel fills
    /// (chunked world generation writes disjoint block ranges from
    /// multiple workers).
    ///
    /// The caller takes over the zero-tail invariant of
    /// [`BitLabels::blocks`]: any lane at position `>= len` written
    /// through this slice must be left zero. Bulk fillers get this for
    /// free by masking their final word with the valid-lane tail mask
    /// (as `BulkBernoulli::fill_chunks` does).
    #[inline]
    pub fn blocks_mut(&mut self) -> &mut [u64] {
        &mut self.blocks
    }

    /// Writes 64 labels at once: lane `i` of `bits` becomes label
    /// `64·w + i`. Lanes at positions `>= len` are masked off, so the
    /// zero-tail invariant of [`BitLabels::blocks`] holds no matter
    /// what the caller puts in the tail lanes — this is the
    /// word-parallel write path of bulk world generation
    /// (`WorldGen::Word` fills a whole layout-space world with one
    /// store per 64 labels instead of one [`BitLabels::set`] per bit).
    ///
    /// # Panics
    /// Panics if `w` is not a valid block index.
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        assert!(
            w < self.blocks.len(),
            "block index {w} out of bounds ({} blocks)",
            self.blocks.len()
        );
        let remaining = self.len - w * 64;
        let mask = if remaining >= 64 {
            !0
        } else {
            (1u64 << remaining) - 1
        };
        self.blocks[w] = bits & mask;
    }

    /// Resets every label to negative, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Refills by evaluating `f(i)` for every index (allocation reuse
    /// for per-world label generation).
    pub fn refill(&mut self, mut f: impl FnMut(usize) -> bool) {
        self.clear();
        for i in 0..self.len {
            if f(i) {
                self.set(i, true);
            }
        }
    }

    /// Sums the labels at the given (unique) indices — the per-region
    /// positive count `p(R)` for a membership list.
    ///
    /// This is the per-world hot loop of membership counting, so ids
    /// are read by direct block indexing with no per-id bounds assert:
    /// callers must guarantee `id < len` for every id. [`Membership`]
    /// (the only production caller) validates that once at
    /// construction, which is where genuinely out-of-range input is
    /// rejected. Debug builds keep the per-id check.
    ///
    /// [`Membership`]: crate::Membership
    #[inline]
    pub fn count_at(&self, ids: &[u32]) -> u64 {
        let mut acc = 0u64;
        for &id in ids {
            debug_assert!(
                (id as usize) < self.len,
                "label index {id} out of bounds (len {})",
                self.len
            );
            acc += (self.blocks[(id >> 6) as usize] >> (id & 63)) & 1;
        }
        acc
    }

    /// Iterates over the indices of positive labels.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(move |(bi, &block)| {
                let mut b = block;
                std::iter::from_fn(move || {
                    if b == 0 {
                        None
                    } else {
                        let tz = b.trailing_zeros() as usize;
                        b &= b - 1;
                        Some(bi * 64 + tz)
                    }
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut l = BitLabels::zeros(130);
        assert_eq!(l.len(), 130);
        assert_eq!(l.count_ones(), 0);
        l.set(0, true);
        l.set(64, true);
        l.set(129, true);
        assert!(l.get(0) && l.get(64) && l.get(129));
        assert!(!l.get(1) && !l.get(63) && !l.get(128));
        assert_eq!(l.count_ones(), 3);
        l.set(64, false);
        assert!(!l.get(64));
        assert_eq!(l.count_ones(), 2);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bools: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let l = BitLabels::from_bools(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(l.get(i), b, "mismatch at {i}");
        }
        assert_eq!(l.count_ones(), bools.iter().filter(|&&b| b).count() as u64);
    }

    #[test]
    fn from_fn_matches_from_bools() {
        let a = BitLabels::from_fn(100, |i| i % 7 == 0);
        let bools: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        assert_eq!(a, BitLabels::from_bools(&bools));
    }

    #[test]
    fn count_at_sums_selected() {
        let l = BitLabels::from_fn(50, |i| i < 10);
        assert_eq!(l.count_at(&[0, 5, 9]), 3);
        assert_eq!(l.count_at(&[10, 20, 30]), 0);
        assert_eq!(l.count_at(&[9, 10]), 1);
        assert_eq!(l.count_at(&[]), 0);
    }

    #[test]
    fn refill_reuses_allocation() {
        let mut l = BitLabels::from_fn(100, |_| true);
        assert_eq!(l.count_ones(), 100);
        l.refill(|i| i == 42);
        assert_eq!(l.count_ones(), 1);
        assert!(l.get(42));
    }

    #[test]
    fn iter_ones_yields_sorted_positions() {
        let l = BitLabels::from_fn(300, |i| i % 67 == 1);
        let ones: Vec<usize> = l.iter_ones().collect();
        assert_eq!(ones, vec![1, 68, 135, 202, 269]);
    }

    #[test]
    fn empty_bitset() {
        let l = BitLabels::zeros(0);
        assert!(l.is_empty());
        assert_eq!(l.count_ones(), 0);
        assert_eq!(l.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let l = BitLabels::zeros(10);
        let _ = l.get(10);
    }

    #[test]
    fn blocks_expose_exact_bits_with_zero_tail() {
        let mut l = BitLabels::from_fn(70, |i| i % 2 == 0);
        assert_eq!(l.blocks().len(), 2);
        // Tail bits (70..128) stay zero through every mutation path.
        l.set(69, true);
        l.set(69, false);
        l.refill(|i| i >= 64);
        assert_eq!(l.blocks()[0], 0);
        assert_eq!(l.blocks()[1], 0b11_1111);
        let total: u64 = l.blocks().iter().map(|b| b.count_ones() as u64).sum();
        assert_eq!(total, l.count_ones());
    }

    #[test]
    fn set_word_writes_whole_blocks_and_masks_the_tail() {
        let mut l = BitLabels::zeros(70);
        assert_eq!(l.num_blocks(), 2);
        l.set_word(0, 0xDEAD_BEEF_0123_4567);
        assert_eq!(l.blocks()[0], 0xDEAD_BEEF_0123_4567);
        // Tail word: only the low 6 lanes are real labels.
        l.set_word(1, !0);
        assert_eq!(l.blocks()[1], 0b11_1111, "tail lanes must be masked");
        assert_eq!(
            l.count_ones(),
            0xDEAD_BEEF_0123_4567u64.count_ones() as u64 + 6
        );
        // Word writes and bit writes see the same storage.
        let mut bitwise = BitLabels::zeros(70);
        for i in 0..70 {
            bitwise.set(i, l.get(i));
        }
        assert_eq!(bitwise, l);
        // Overwrite clears previous content.
        l.set_word(0, 0);
        assert_eq!(l.blocks()[0], 0);
    }

    #[test]
    #[should_panic(expected = "block index")]
    fn set_word_out_of_bounds_panics() {
        let mut l = BitLabels::zeros(64);
        l.set_word(1, 0);
    }

    #[test]
    fn count_at_matches_get_on_valid_ids() {
        let l = BitLabels::from_fn(200, |i| i % 5 == 0 || i % 7 == 0);
        let ids: Vec<u32> = (0..200).step_by(3).map(|i| i as u32).collect();
        let expected: u64 = ids.iter().map(|&i| l.get(i as usize) as u64).sum();
        assert_eq!(l.count_at(&ids), expected);
    }
}
