//! Kernel-equivalence property tests: the tile body of every supported
//! counting kernel must produce the one-world reference count's
//! *exact* integers — counts are exact, so equivalence is equality,
//! never tolerance.
//!
//! The geometries are chosen adversarially for SIMD popcount paths:
//! empty member lists, full-span lists (maximal dense ranges),
//! non-64-aligned label tails (partial last words), single-word shard
//! views (clips that degenerate every range), and dense vs sparse
//! label sets. Batches run below, at and above the eight-lane tile,
//! on clipped views too.

use proptest::prelude::*;
use sfindex::{shard_word_bounds, BitLabels, BlockedMembership, CountingKernel, MAX_FUSED_WORLDS};

/// Every kernel this CPU can actually run (Portable always, AVX-512
/// when detected).
fn supported_kernels() -> Vec<CountingKernel> {
    CountingKernel::ALL
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

/// A member-list suite over `0..n` that always includes the
/// adversarial extremes alongside random lists: the empty region, the
/// full-span region (one maximal dense range), and a last-id region
/// (a single-bit mask in the unaligned tail word).
fn arb_lists(n: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..n as u32, 0..n.min(192)), 1..6).prop_map(
        move |mut lists| {
            for ids in &mut lists {
                ids.sort_unstable();
                ids.dedup();
            }
            lists.push(Vec::new());
            lists.push((0..n as u32).collect());
            lists.push(vec![(n - 1) as u32]);
            lists
        },
    )
}

/// Labels of tunable density — `density` near 0 exercises sparse
/// worlds, near 1 dense ones (both sides of the popcount cascade).
fn arb_labels(n: usize, density: f64) -> impl Strategy<Value = BitLabels> {
    let density = density.clamp(0.05, 0.95);
    prop::collection::vec(0.0..1.0f64, n).prop_map(move |draws| {
        let bits: Vec<bool> = draws.iter().map(|&v| v < density).collect();
        BitLabels::from_bools(&bits)
    })
}

/// One complete counting scenario: a label length straddling word
/// boundaries (rarely a multiple of 64 → partial tail words), a
/// member-list suite with the adversarial extremes, and one world.
fn arb_case() -> impl Strategy<Value = (Vec<Vec<u32>>, BitLabels)> {
    (65usize..1200, 0.0..1.0f64)
        .prop_flat_map(|(n, density)| (arb_lists(n), arb_labels(n, density)))
}

/// A scenario with a whole batch of worlds of mixed densities —
/// below, at, and above [`MAX_FUSED_WORLDS`] wide.
fn arb_batch_case() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<BitLabels>)> {
    (65usize..900, 1usize..(2 * MAX_FUSED_WORLDS + 2)).prop_flat_map(|(n, w)| {
        (
            arb_lists(n),
            prop::collection::vec((0.02..0.98f64).prop_flat_map(move |d| arb_labels(n, d)), w),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-region counts of one world: the reference equals an id-by-id
    /// gather of each list, and every kernel's one-lane tile equals the
    /// reference on every region.
    #[test]
    fn kernels_equal_the_scalar_reference((lists, labels) in arb_case()) {
        let n = labels.len();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let blocked = BlockedMembership::from_lists(refs.iter().copied(), n).unwrap();
        let mut all = Vec::new();
        blocked.count_all_into(&labels, &mut all);
        for (r, list) in lists.iter().enumerate() {
            prop_assert_eq!(blocked.count(r, &labels), labels.count_at(list));
            prop_assert_eq!(all[r], labels.count_at(list));
        }
        for kernel in supported_kernels() {
            blocked.count_all_many_into(&[&labels], kernel, &mut all);
            for (r, &counted) in all.iter().enumerate() {
                prop_assert_eq!(
                    counted,
                    blocked.count(r, &labels),
                    "kernel {} diverged on region {} (n={})",
                    kernel, r, n
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused multi-world counting: for every batch width and every
    /// kernel, the fused sweep equals W independent per-world counts.
    #[test]
    fn fused_sweeps_equal_per_world_counts((lists, worlds) in arb_batch_case()) {
        let n = worlds[0].len();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let blocked = BlockedMembership::from_lists(refs.iter().copied(), n).unwrap();
        let world_refs: Vec<&BitLabels> = worlds.iter().collect();
        for kernel in supported_kernels() {
            let mut matrix = Vec::new();
            blocked.count_all_many_into(&world_refs, kernel, &mut matrix);
            for r in 0..lists.len() {
                for (w, world) in world_refs.iter().enumerate() {
                    prop_assert_eq!(
                        matrix[r * world_refs.len() + w],
                        blocked.count(r, world),
                        "kernel {} fused count diverged: region {}, world {}",
                        kernel, r, w
                    );
                }
            }
        }
    }

    /// Clipped shard views: per-shard partials summed in shard order
    /// equal the unsharded count for every shard granularity, down to
    /// single-word shards (every dense range degenerates to at most one
    /// word per view — the hardest case for a kernel that wants long
    /// runs). Every kernel's tile is held to the same sum on the same
    /// views.
    #[test]
    fn clipped_views_sum_to_unsharded_counts((lists, labels) in arb_case()) {
        let n = labels.len();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let blocked = BlockedMembership::from_lists(refs.iter().copied(), n).unwrap();
        let num_words = blocked.num_label_words();
        // 1 = unsharded, 3 = coarse, num_words = single-word shards.
        for k in [1usize, 3, num_words] {
            let views: Vec<BlockedMembership> = shard_word_bounds(num_words, k)
                .into_iter()
                .map(|(lo, hi)| blocked.clip_to_words(lo, hi))
                .collect();
            for r in 0..lists.len() {
                let total: u64 = views.iter().map(|v| v.count(r, &labels)).sum();
                prop_assert_eq!(
                    total,
                    blocked.count(r, &labels),
                    "sharded sum diverged: region {}, {} shards",
                    r, k
                );
            }
            for kernel in supported_kernels() {
                // Fused across the same views.
                let world_refs = [&labels, &labels];
                let mut matrix = Vec::new();
                let mut totals = vec![0u64; lists.len() * world_refs.len()];
                for view in &views {
                    view.count_all_many_into(&world_refs, kernel, &mut matrix);
                    for (acc, &c) in totals.iter_mut().zip(&matrix) {
                        *acc += c;
                    }
                }
                for r in 0..lists.len() {
                    for w in 0..world_refs.len() {
                        prop_assert_eq!(
                            totals[r * world_refs.len() + w],
                            blocked.count(r, &labels),
                            "kernel {} sharded sum diverged: region {}, {} shards",
                            kernel, r, k
                        );
                    }
                }
            }
        }
    }
}

/// The explicit single-word-shard tail case, pinned without
/// randomness: 129 labels = two full words plus a one-bit tail word.
#[test]
fn single_word_shards_cover_the_unaligned_tail() {
    let n = 129usize;
    let ids: Vec<u32> = (0..n as u32).collect();
    let blocked = BlockedMembership::from_lists([ids.as_slice()].into_iter(), n).unwrap();
    let labels = BitLabels::from_fn(n, |i| i % 3 == 0);
    assert_eq!(blocked.num_label_words(), 3);
    let mut out = Vec::new();
    for kernel in supported_kernels() {
        let total: u64 = (0..3)
            .map(|w| {
                blocked
                    .clip_to_words(w, w + 1)
                    .count_all_many_into(&[&labels], kernel, &mut out);
                out[0]
            })
            .sum();
        assert_eq!(total, blocked.count(0, &labels), "kernel {kernel}");
        assert_eq!(total, labels.count_ones(), "kernel {kernel}");
    }
}
