//! Counting kernels: which body of the eight-world counting tile runs.
//!
//! [`BlockedMembership`](crate::BlockedMembership) turns a world
//! recount into two streams of work: *dense full ranges* (contiguous
//! label words counted whole) and *partial runs* (single words counted
//! under a mask). It counts them two ways:
//!
//! * **One world** ([`count`](crate::BlockedMembership::count),
//!   [`count_all_into`](crate::BlockedMembership::count_all_into)): the
//!   pinned scalar reference — one `count_ones` per full word, one AND
//!   and one `count_ones` per partial run, in order. No kernel applies.
//! * **A lane group of eight worlds**
//!   ([`count_all_many_into`](crate::BlockedMembership::count_all_many_into),
//!   the Monte Carlo path): the worlds are transposed into a tile of
//!   64-byte lines, one per label word, and full words and partial runs
//!   alike cost one line each. The kernel picks the tile body that
//!   counts a line.
//!
//! There are two bodies, and the CPU picks between them
//! ([`CountingKernel::detect`]); no knob does:
//!
//! * [`CountingKernel::Portable`] — one `count_ones` per lane, over
//!   only as many lanes (1, 2, 4 or 8) as the group needs.
//! * [`CountingKernel::Avx512`] — one `vpopcntq` per line, the
//!   accumulator in one zmm register. Requires AVX-512F and
//!   AVX-512VPOPCNTDQ.
//!
//! The `portable` cargo feature makes [`CountingKernel::detect`] return
//! `Portable` on every CPU, so a test build can run the fallback end to
//! end. Counts are exact integers, so the two bodies must return the
//! one-world reference's `u64` for every region and world: the
//! proptests in `crates/index/tests/kernel_proptests.rs` pin this on
//! adversarial geometries, and the `blocked` unit tests call both tile
//! bodies directly.

/// Which tile body blocked counting runs. [`CountingKernel::detect`]
/// picks the one this CPU runs best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountingKernel {
    /// The portable lane loop: one `count_ones` per lane.
    Portable,
    /// `vpopcntq`: hardware per-lane popcount of a whole line.
    Avx512,
}

impl CountingKernel {
    /// Both kernels, for test matrices and bench sweeps.
    pub const ALL: [CountingKernel; 2] = [CountingKernel::Portable, CountingKernel::Avx512];

    /// The kernel this CPU runs: `Avx512` where AVX-512F and
    /// AVX-512VPOPCNTDQ are detected, `Portable` otherwise or when the
    /// `portable` feature is on.
    pub fn detect() -> CountingKernel {
        if !cfg!(feature = "portable") && CountingKernel::Avx512.is_supported() {
            CountingKernel::Avx512
        } else {
            CountingKernel::Portable
        }
    }

    /// Stable lowercase name (bench artifact key).
    pub fn name(self) -> &'static str {
        match self {
            CountingKernel::Portable => "portable",
            CountingKernel::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this kernel. `Portable` runs
    /// everywhere; `Avx512` consults the runtime feature flags (and is
    /// never supported off x86_64).
    pub fn is_supported(self) -> bool {
        match self {
            CountingKernel::Portable => true,
            CountingKernel::Avx512 => avx512_detected(),
        }
    }
}

impl std::fmt::Display for CountingKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_detected() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitLabels, BlockedMembership, MAX_FUSED_WORLDS};

    #[test]
    fn detect_picks_a_supported_kernel() {
        let kernel = CountingKernel::detect();
        assert!(kernel.is_supported(), "{kernel}");
        if cfg!(feature = "portable") {
            assert_eq!(kernel, CountingKernel::Portable);
        }
    }

    /// Every tile body this CPU runs, on a fixed adversarial case,
    /// against the one-world reference [`BlockedMembership::count`]:
    /// 703 points (a 63-bit tail word), a full-span region, single-bit,
    /// alternating and word-straddling regions and an empty one, eight
    /// mixed-density worlds counted at every width 1..=8, on the whole
    /// compilation and on a clipped view.
    #[test]
    fn probe_accepts_every_supported_kernel() {
        const N: u32 = 703;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // SplitMix64 step: well-mixed, deterministic, dependency-free.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let random: Vec<u32> = (0..N).filter(|_| next() % 3 == 0).collect();
        let lists: [Vec<u32>; 6] = [
            (0..N).collect(),
            vec![N - 1],
            (0..N).step_by(2).collect(),
            (60..200).collect(),
            random,
            Vec::new(),
        ];
        let full =
            BlockedMembership::from_lists(lists.iter().map(Vec::as_slice), N as usize).unwrap();
        let worlds: Vec<BitLabels> = (0..MAX_FUSED_WORLDS as u64)
            .map(|w| BitLabels::from_fn(N as usize, |_| next() % 8 <= w))
            .collect();
        let refs: Vec<&BitLabels> = worlds.iter().collect();
        let mut out = Vec::new();
        for kernel in CountingKernel::ALL.into_iter().filter(|k| k.is_supported()) {
            for b in [full.clone(), full.clip_to_words(2, 7)] {
                for width in 1..=MAX_FUSED_WORLDS {
                    b.count_all_many_into(&refs[..width], kernel, &mut out);
                    for r in 0..b.num_regions() {
                        for w in 0..width {
                            assert_eq!(
                                out[r * width + w],
                                b.count(r, refs[w]),
                                "{kernel}: width {width}, region {r}, world {w}"
                            );
                        }
                    }
                }
            }
        }
    }
}
