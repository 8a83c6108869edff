//! Counting kernels: the popcount inner loops of blocked counting.
//!
//! [`BlockedMembership`](crate::BlockedMembership) turns a world
//! recount into two streams of work: *dense full ranges* (contiguous
//! label words counted whole) and *partial runs* (single words counted
//! under a mask). The partial runs are a gather — one word, one AND,
//! one popcnt — and stay scalar everywhere. The dense ranges are where
//! instruction-level choice matters, and this module makes that choice
//! explicit:
//!
//! * [`CountingKernel::Scalar`] — the pinned reference loop: one
//!   `count_ones` per word, in order. Every other kernel is defined as
//!   "bit-identical to this, faster".
//! * [`CountingKernel::Portable`] — a 8-word unrolled loop with four
//!   independent accumulators; plain Rust that the autovectorizer can
//!   turn into whatever the target offers.
//! * [`CountingKernel::Avx2`] — Harley–Seal carry-save popcount over
//!   256-bit lanes (16 vectors per reduction round), nibble-LUT
//!   `popcnt` per lane. Runtime-dispatched; requires AVX2.
//! * [`CountingKernel::Avx512`] — one `vpopcntdq` per 8 words.
//!   Runtime-dispatched; requires AVX-512F + AVX-512VPOPCNTDQ.
//!
//! Counts are exact integers, so kernel equivalence is **equality**,
//! not tolerance: every kernel must return the same `u64` as
//! [`CountingKernel::Scalar`] on every input. The proptests in
//! `crates/index/tests/kernel_proptests.rs` pin this on adversarial
//! geometries, and [`KernelSelect::Auto`] re-checks it at resolve time
//! with a self-probe before trusting a SIMD kernel.
//!
//! [`KernelSelect`] is the user-facing knob (config / wire / CLI): it
//! names a *preference*, which [`KernelSelect::resolve`] degrades to
//! the best kernel the running CPU actually supports. Because all
//! kernels are bit-identical, the knob is pure performance — results
//! never depend on it.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The resolved counting kernel: which popcount inner loop blocked
/// counting runs. Obtain one via [`KernelSelect::resolve`] — a
/// `CountingKernel` value is a proof that the variant was either
/// checked against the CPU's feature flags or needs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingKernel {
    /// Pinned scalar reference loop.
    #[default]
    Scalar,
    /// Unrolled multi-accumulator loop; autovectorizes.
    Portable,
    /// Harley–Seal / CSA popcount over 256-bit lanes.
    Avx2,
    /// `vpopcntdq`: hardware per-lane popcount over 512-bit lanes.
    Avx512,
}

impl CountingKernel {
    /// Every kernel variant, for test matrices and bench sweeps.
    pub const ALL: [CountingKernel; 4] = [
        CountingKernel::Scalar,
        CountingKernel::Portable,
        CountingKernel::Avx2,
        CountingKernel::Avx512,
    ];

    /// Stable lowercase name (CLI value, bench artifact key).
    pub fn name(self) -> &'static str {
        match self {
            CountingKernel::Scalar => "scalar",
            CountingKernel::Portable => "portable",
            CountingKernel::Avx2 => "avx2",
            CountingKernel::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this kernel. `Scalar` and
    /// `Portable` are always supported; the SIMD kernels consult the
    /// runtime feature flags (and are never supported off x86_64).
    pub fn is_supported(self) -> bool {
        match self {
            CountingKernel::Scalar | CountingKernel::Portable => true,
            CountingKernel::Avx2 => avx2_detected(),
            CountingKernel::Avx512 => avx512_detected(),
        }
    }

    /// Popcount of a dense word range — the kernel's whole job.
    ///
    /// # Panics
    /// Panics (via the dispatch `debug_assert!` in debug builds, and
    /// the probe-backed resolve path in release) only if called on an
    /// unsupported SIMD variant; [`KernelSelect::resolve`] never hands
    /// one out.
    #[inline]
    pub fn popcount(self, words: &[u64]) -> u64 {
        match self {
            CountingKernel::Scalar => popcount_scalar(words),
            CountingKernel::Portable => popcount_portable(words),
            CountingKernel::Avx2 => {
                debug_assert!(self.is_supported(), "avx2 kernel on a non-avx2 cpu");
                // SAFETY: resolve() only yields Avx2 when the feature
                // is detected at runtime.
                unsafe { popcount_avx2(words) }
            }
            CountingKernel::Avx512 => {
                debug_assert!(self.is_supported(), "avx512 kernel on a non-avx512 cpu");
                // SAFETY: resolve() only yields Avx512 when the
                // features are detected at runtime.
                unsafe { popcount_avx512(words) }
            }
        }
    }
}

impl std::fmt::Display for CountingKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The counting-kernel *selection* knob: what the user asked for,
/// before it meets the CPU. Threads through `AuditConfig`, the wire
/// format, and `--kernel`; resolve with [`KernelSelect::resolve`].
///
/// An explicit SIMD selection degrades gracefully: `Avx512` on a CPU
/// without it resolves to `Avx2`, and `Avx2` without AVX2 resolves to
/// `Portable`. Kernels are bit-identical, so degradation can never
/// change a result — only its speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSelect {
    /// Best detected kernel, validated by a self-probe at resolve time.
    #[default]
    Auto,
    /// Force the pinned scalar reference loop.
    Scalar,
    /// Force AVX2 Harley–Seal (degrades to `Portable` if undetected).
    Avx2,
    /// Force AVX-512 `vpopcntdq` (degrades toward `Portable`).
    Avx512,
    /// Force the portable unrolled loop.
    Portable,
}

impl KernelSelect {
    /// Every selection, for CLI help and test matrices.
    pub const ALL: [KernelSelect; 5] = [
        KernelSelect::Auto,
        KernelSelect::Scalar,
        KernelSelect::Avx2,
        KernelSelect::Avx512,
        KernelSelect::Portable,
    ];

    /// Stable name (serde value; parsed case-insensitively).
    pub fn name(&self) -> &'static str {
        match self {
            KernelSelect::Auto => "Auto",
            KernelSelect::Scalar => "Scalar",
            KernelSelect::Avx2 => "Avx2",
            KernelSelect::Avx512 => "Avx512",
            KernelSelect::Portable => "Portable",
        }
    }

    /// Resolves the selection against the running CPU:
    ///
    /// * `Scalar` / `Portable` — themselves, unconditionally.
    /// * `Avx512` → `Avx2` → `Portable` — the best *detected* kernel at
    ///   or below the request (a forced SIMD kernel on hardware
    ///   without it would be UB, and silently wrong results are not on
    ///   the menu — counts are bit-identical across kernels, so
    ///   degrading is safe).
    /// * `Auto` — the best detected kernel that also passes a one-time
    ///   self-probe comparing it against `Scalar` on an adversarial
    ///   bit pattern; a kernel that disagrees is skipped. The probe
    ///   result is cached for the process.
    pub fn resolve(self) -> CountingKernel {
        match self {
            KernelSelect::Scalar => CountingKernel::Scalar,
            KernelSelect::Portable => CountingKernel::Portable,
            KernelSelect::Avx2 => {
                if CountingKernel::Avx2.is_supported() {
                    CountingKernel::Avx2
                } else {
                    CountingKernel::Portable
                }
            }
            KernelSelect::Avx512 => {
                if CountingKernel::Avx512.is_supported() {
                    CountingKernel::Avx512
                } else {
                    KernelSelect::Avx2.resolve()
                }
            }
            KernelSelect::Auto => auto_kernel(),
        }
    }
}

impl std::fmt::Display for KernelSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`KernelSelect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown kernel `{}` (expected auto, scalar, avx2, avx512, or portable)",
            self.input
        )
    }
}

impl std::error::Error for ParseKernelError {}

impl std::str::FromStr for KernelSelect {
    type Err = ParseKernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelSelect::Auto),
            "scalar" => Ok(KernelSelect::Scalar),
            "avx2" => Ok(KernelSelect::Avx2),
            "avx512" => Ok(KernelSelect::Avx512),
            "portable" => Ok(KernelSelect::Portable),
            _ => Err(ParseKernelError {
                input: s.to_string(),
            }),
        }
    }
}

// Wire encoding: the selection's name as a string, parsed back
// case-insensitively. The knob rides inside `AuditConfig` (absent on
// pre-kernel payloads, which decode as `Auto` — see the config serde).
impl Serialize for KernelSelect {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.name());
    }
}

impl Deserialize for KernelSelect {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let Some(s) = value.as_str() else {
            return Err(serde::Error::msg("kernel must be a string"));
        };
        s.parse()
            .map_err(|e: ParseKernelError| serde::Error::msg(e.to_string()))
    }
}

/// The `Auto` resolution, computed once per process: best detected
/// kernel that agrees with the scalar reference on a probe pattern.
fn auto_kernel() -> CountingKernel {
    static AUTO: OnceLock<CountingKernel> = OnceLock::new();
    *AUTO.get_or_init(|| {
        for kernel in [
            CountingKernel::Avx512,
            CountingKernel::Avx2,
            CountingKernel::Portable,
        ] {
            if kernel.is_supported() && probe_agrees_with_scalar(kernel) {
                return kernel;
            }
        }
        CountingKernel::Scalar
    })
}

/// Checks a kernel against the scalar reference on a deterministic
/// adversarial pattern: every slice length 0..=129 (covers the SIMD
/// kernels' 64-word Harley–Seal blocks, their 4/8-word vector tails,
/// and the scalar remainders) over mixed dense/sparse/alternating
/// words. A kernel that fails here is never selected by `Auto`.
fn probe_agrees_with_scalar(kernel: CountingKernel) -> bool {
    let mut words = [0u64; 129];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for (i, w) in words.iter_mut().enumerate() {
        // SplitMix64 step: well-mixed, deterministic, dependency-free.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w = match i % 5 {
            0 => z,
            1 => u64::MAX,
            2 => 0,
            3 => 0xAAAA_AAAA_AAAA_AAAA,
            _ => z ^ (z >> 1),
        };
    }
    (0..=words.len()).all(|len| {
        let slice = &words[..len];
        kernel.popcount(slice) == popcount_scalar(slice)
    })
}

/// The pinned scalar reference: one `count_ones` per word, in order.
#[inline]
fn popcount_scalar(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for w in words {
        acc += w.count_ones() as u64;
    }
    acc
}

/// Unrolled 8-words-per-iteration loop with four independent
/// accumulators — enough ILP for the autovectorizer (or the scalar
/// popcnt unit) to keep multiple chains in flight.
#[inline]
fn popcount_portable(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(8);
    let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
    for ch in &mut chunks {
        a += ch[0].count_ones() as u64 + ch[4].count_ones() as u64;
        b += ch[1].count_ones() as u64 + ch[5].count_ones() as u64;
        c += ch[2].count_ones() as u64 + ch[6].count_ones() as u64;
        d += ch[3].count_ones() as u64 + ch[7].count_ones() as u64;
    }
    let mut acc = (a + b) + (c + d);
    for w in chunks.remainder() {
        acc += w.count_ones() as u64;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
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

/// AVX2 Harley–Seal popcount (Muła–Kurz–Lemire): carry-save adders
/// compress 16 input vectors per round into `sixteens`, whose popcount
/// is taken once per 64 words; the residual `ones/twos/fours/eights`
/// accumulators are popcounted once at the end with their weights.
/// Per-lane popcount is the nibble-LUT `pshufb` + `psadbw` reduction.
///
/// # Safety
/// Requires AVX2 at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn popcount_avx2(words: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt256(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        // Horizontal bytes → one u64 per 64-bit lane.
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        let high = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
        let low = _mm256_xor_si256(u, c);
        (high, low)
    }

    let n = words.len();
    let ptr = words.as_ptr();
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(ptr: *const u64, word: usize) -> __m256i {
        _mm256_loadu_si256(ptr.add(word) as *const __m256i)
    }

    let zero = _mm256_setzero_si256();
    let mut total = zero;
    let mut ones = zero;
    let mut twos = zero;
    let mut fours = zero;
    let mut eights = zero;
    let mut i = 0;
    // 16 vectors × 4 words per Harley–Seal round.
    while i + 64 <= n {
        let (twos_a, o) = csa(ones, load(ptr, i), load(ptr, i + 4));
        let (twos_b, o) = csa(o, load(ptr, i + 8), load(ptr, i + 12));
        let (fours_a, t) = csa(twos, twos_a, twos_b);
        let (twos_a, o) = csa(o, load(ptr, i + 16), load(ptr, i + 20));
        let (twos_b, o) = csa(o, load(ptr, i + 24), load(ptr, i + 28));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_a, f) = csa(fours, fours_a, fours_b);
        let (twos_a, o) = csa(o, load(ptr, i + 32), load(ptr, i + 36));
        let (twos_b, o) = csa(o, load(ptr, i + 40), load(ptr, i + 44));
        let (fours_a, t) = csa(t, twos_a, twos_b);
        let (twos_a, o) = csa(o, load(ptr, i + 48), load(ptr, i + 52));
        let (twos_b, o) = csa(o, load(ptr, i + 56), load(ptr, i + 60));
        let (fours_b, t) = csa(t, twos_a, twos_b);
        let (eights_b, f) = csa(f, fours_a, fours_b);
        let (sixteens, e) = csa(eights, eights_a, eights_b);
        ones = o;
        twos = t;
        fours = f;
        eights = e;
        total = _mm256_add_epi64(total, popcnt256(sixteens));
        i += 64;
    }
    total = _mm256_slli_epi64::<4>(total);
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<3>(popcnt256(eights)));
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<2>(popcnt256(fours)));
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<1>(popcnt256(twos)));
    total = _mm256_add_epi64(total, popcnt256(ones));
    // Whole vectors the CSA rounds didn't cover.
    while i + 4 <= n {
        total = _mm256_add_epi64(total, popcnt256(load(ptr, i)));
        i += 4;
    }
    // Horizontal sum of the four u64 lanes.
    let lo = _mm256_castsi256_si128(total);
    let hi = _mm256_extracti128_si256::<1>(total);
    let pair = _mm_add_epi64(lo, hi);
    let mut acc = (_mm_cvtsi128_si64(pair) as u64)
        .wrapping_add(_mm_cvtsi128_si64(_mm_unpackhi_epi64(pair, pair)) as u64);
    // Scalar tail (< 4 words).
    while i < n {
        acc += (*ptr.add(i)).count_ones() as u64;
        i += 1;
    }
    acc
}

/// AVX-512 popcount: one `vpopcntdq` per 8 words, lane-wise
/// accumulation, one horizontal reduce at the end.
///
/// # Safety
/// Requires AVX-512F and AVX-512VPOPCNTDQ at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcount_avx512(words: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    let n = words.len();
    let ptr = words.as_ptr();
    let mut acc = _mm512_setzero_si512();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm512_loadu_si512(ptr.add(i) as *const __m512i);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        i += 8;
    }
    let mut total = _mm512_reduce_add_epi64(acc) as u64;
    while i < n {
        total += (*ptr.add(i)).count_ones() as u64;
        i += 1;
    }
    total
}

/// Never compiled on x86_64; the unreachable stub keeps the dispatch
/// total on other architectures (where `is_supported()` is `false`, so
/// these variants are never produced by `resolve()`).
#[cfg(not(target_arch = "x86_64"))]
unsafe fn popcount_avx2(_words: &[u64]) -> u64 {
    unreachable!("avx2 kernel is x86_64-only")
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn popcount_avx512(_words: &[u64]) -> u64 {
    unreachable!("avx512 kernel is x86_64-only")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns() -> Vec<Vec<u64>> {
        let mut out = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![1, 2, 4, 8],
            vec![u64::MAX; 63],
            vec![u64::MAX; 64],
            vec![u64::MAX; 65],
            vec![0x5555_5555_5555_5555; 200],
        ];
        // Deterministic mixed pattern over an awkward length.
        let mut x = 1u64;
        out.push(
            (0..137)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect(),
        );
        out
    }

    #[test]
    fn supported_kernels_match_scalar_exactly() {
        for kernel in CountingKernel::ALL {
            if !kernel.is_supported() {
                continue;
            }
            for pattern in patterns() {
                // Every suffix, to hit every tail length.
                for start in 0..=pattern.len() {
                    let slice = &pattern[start..];
                    assert_eq!(
                        kernel.popcount(slice),
                        popcount_scalar(slice),
                        "kernel {kernel} diverged on len {}",
                        slice.len()
                    );
                }
            }
        }
    }

    #[test]
    fn probe_accepts_every_supported_kernel() {
        for kernel in CountingKernel::ALL {
            if kernel.is_supported() {
                assert!(probe_agrees_with_scalar(kernel), "probe rejected {kernel}");
            }
        }
    }

    #[test]
    fn resolve_degrades_to_supported_kernels() {
        for select in KernelSelect::ALL {
            let kernel = select.resolve();
            assert!(
                kernel.is_supported(),
                "{select} resolved unsupported {kernel}"
            );
        }
        assert_eq!(KernelSelect::Scalar.resolve(), CountingKernel::Scalar);
        assert_eq!(KernelSelect::Portable.resolve(), CountingKernel::Portable);
        // Auto never falls all the way back to Scalar in practice
        // (Portable is always supported and always agrees).
        assert_ne!(KernelSelect::Auto.resolve(), CountingKernel::Scalar);
    }

    #[test]
    fn parse_roundtrip_and_case_insensitivity() {
        for select in KernelSelect::ALL {
            assert_eq!(select.name().parse::<KernelSelect>().unwrap(), select);
            assert_eq!(
                select
                    .name()
                    .to_ascii_lowercase()
                    .parse::<KernelSelect>()
                    .unwrap(),
                select
            );
        }
        assert!("neon".parse::<KernelSelect>().is_err());
        let err = "mmx".parse::<KernelSelect>().unwrap_err();
        assert!(err.to_string().contains("portable"));
    }

    #[test]
    fn serde_roundtrip_via_names() {
        for select in KernelSelect::ALL {
            let json = serde_json::to_string(&select).unwrap();
            assert_eq!(serde_json::from_str::<KernelSelect>(&json).unwrap(), select);
        }
        let err = KernelSelect::from_value(&serde::Value::U64(3)).unwrap_err();
        assert!(err.message.contains("string"));
    }
}
