//! Counting kernels: which body of the eight-world counting tile runs.
//!
//! [`BlockedMembership`] turns a world recount into two streams of
//! work: *dense full ranges* (contiguous label words counted whole) and
//! *partial runs* (single words counted under a mask). It counts them
//! two ways:
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
//! The variants:
//!
//! * [`CountingKernel::Scalar`], [`CountingKernel::Portable`] and
//!   [`CountingKernel::Avx2`] — the portable lane loop: one
//!   `count_ones` per lane, over only as many lanes (1, 2, 4 or 8) as
//!   the group needs. `Avx2` keeps its name and its resolution (only
//!   where the CPU has AVX2) for the [`KernelSelect`] knob, but runs no
//!   AVX2 instruction.
//! * [`CountingKernel::Avx512`] — one `vpopcntq` per line, the
//!   accumulator in one zmm register. Runtime-dispatched; requires
//!   AVX-512F + AVX-512VPOPCNTDQ.
//!
//! Counts are exact integers, so kernel equivalence is **equality**,
//! not tolerance: every tile body must return the one-world reference's
//! `u64` for every region and world. The proptests in
//! `crates/index/tests/kernel_proptests.rs` pin this on adversarial
//! geometries, the `blocked` unit tests call every tile body directly,
//! and [`KernelSelect::Auto`] re-checks the body it is about to select
//! at resolve time with a self-probe.
//!
//! [`KernelSelect`] is the user-facing knob (config / wire / CLI): it
//! names a *preference*, which [`KernelSelect::resolve`] degrades to
//! the best kernel the running CPU actually supports. Because all
//! kernels are bit-identical, the knob is pure performance — results
//! never depend on it.

use crate::{labels::BitLabels, BlockedMembership, MAX_FUSED_WORLDS};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The resolved counting kernel: which tile body blocked counting
/// runs. Obtain one via [`KernelSelect::resolve`] — a
/// `CountingKernel` value is a proof that the variant was either
/// checked against the CPU's feature flags or needs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingKernel {
    /// The portable lane loop (the same body as `Portable`).
    #[default]
    Scalar,
    /// The portable lane loop: one `count_ones` per lane.
    Portable,
    /// The portable lane loop; resolved only where AVX2 is detected.
    Avx2,
    /// `vpopcntq`: hardware per-lane popcount of a whole line.
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
    /// Force the portable lane loop (as `Portable`).
    Scalar,
    /// Force `CountingKernel::Avx2`, which runs the portable lane loop
    /// (degrades to `Portable` if AVX2 is undetected).
    Avx2,
    /// Force the AVX-512 `vpopcntq` tile body (degrades toward
    /// `Portable`).
    Avx512,
    /// Force the portable lane loop.
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
    /// * `Auto` — the best detected kernel whose tile body also passes
    ///   a one-time self-probe against the one-world reference count;
    ///   a kernel that disagrees is skipped. The probe result is cached
    ///   for the process.
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

/// The `Auto` resolution, computed once per process: the best detected
/// kernel whose tile body agrees with the one-world reference.
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

/// Runs the tile body `kernel` selects on a fixed adversarial case and
/// compares every count with the one-world reference
/// [`BlockedMembership::count`]: 703 points (a 63-bit tail word), a
/// full-span region, single-bit, alternating and word-straddling
/// regions and an empty one, eight mixed-density worlds counted at
/// every width 1..=8, on the whole compilation and on a clipped view.
/// A kernel that fails here is never selected by `Auto`.
fn probe_agrees_with_scalar(kernel: CountingKernel) -> bool {
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
    let Ok(full) = BlockedMembership::from_lists(lists.iter().map(Vec::as_slice), N as usize)
    else {
        return false;
    };
    let worlds: Vec<BitLabels> = (0..MAX_FUSED_WORLDS as u64)
        .map(|w| BitLabels::from_fn(N as usize, |_| next() % 8 <= w))
        .collect();
    let refs: Vec<&BitLabels> = worlds.iter().collect();
    let mut out = Vec::new();
    [full.clone(), full.clip_to_words(2, 7)].iter().all(|b| {
        (1..=MAX_FUSED_WORLDS).all(|width| {
            b.count_all_many_into(&refs[..width], kernel, &mut out);
            (0..b.num_regions())
                .all(|r| (0..width).all(|w| out[r * width + w] == b.count(r, refs[w])))
        })
    })
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

#[cfg(test)]
mod tests {
    use super::*;

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
