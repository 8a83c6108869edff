//! A fixed-size log-linear latency histogram.
//!
//! The serving layers record one submission→drain latency per request
//! for as long as they run, so the record must not grow with traffic
//! and must not be re-sorted under a shared lock on every batch.
//! [`LatencyHistogram`] allocates its buckets once at construction,
//! records in O(1), and answers nearest-rank percentiles only when
//! they are read.
//!
//! Layout (HDR-style): every value below [`LatencyHistogram::EXACT_BELOW`]
//! owns a bucket of its own, so small latencies — and every
//! deterministic tick count the tests assert on — are exact. Each
//! power-of-two octave above is split into 64 equal sub-buckets, and a
//! percentile landing there reports its bucket's midpoint: within
//! [`LatencyHistogram::RELATIVE_ERROR`] (1/128) of the exact
//! nearest-rank sample, across the whole `u64` range.

/// Values below `2^EXACT_BITS` are recorded exactly.
const EXACT_BITS: u32 = 10;
/// Each octave at or above `2^EXACT_BITS` has `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 6;
const EXACT: u64 = 1 << EXACT_BITS;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets, then one row of sub-buckets per octave `10..=63`.
const BUCKETS: usize = EXACT as usize + ((64 - EXACT_BITS as usize) << SUB_BITS);

/// Bounded-memory latency distribution with O(1) recording and
/// nearest-rank percentiles (see the module docs for the precision).
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    samples: u64,
}

impl LatencyHistogram {
    /// Every recorded value below this is reported exactly.
    pub const EXACT_BELOW: u64 = EXACT;
    /// Bound on `|reported − exact| / exact` for a percentile at or
    /// above [`LatencyHistogram::EXACT_BELOW`].
    pub const RELATIVE_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    /// An empty histogram; its buckets (≈35 KB) are allocated here
    /// and never again.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            samples: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.samples += 1;
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), with the same rank
    /// rule as [`percentile`](crate::percentile); 0 when empty. Exact
    /// below [`LatencyHistogram::EXACT_BELOW`], within
    /// [`LatencyHistogram::RELATIVE_ERROR`] above it.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = nearest_rank(self.samples, q);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return midpoint_of(bucket);
            }
        }
        unreachable!("the bucket counts sum to `samples`")
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("samples", &self.samples)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

/// 1-based nearest rank of quantile `q` among `n > 0` samples.
pub(crate) fn nearest_rank(n: u64, q: f64) -> u64 {
    (((n as f64) * q).ceil() as u64).clamp(1, n)
}

fn bucket_of(value: u64) -> usize {
    if value < EXACT {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros();
    let shift = octave - SUB_BITS;
    let sub = (value >> shift) - SUB;
    EXACT as usize + (((octave - EXACT_BITS) as usize) << SUB_BITS) + sub as usize
}

/// A bucket's `(low, width)`: it holds exactly the values
/// `low..=low + (width - 1)`.
fn span_of(bucket: usize) -> (u64, u64) {
    let Some(row) = bucket.checked_sub(EXACT as usize) else {
        return (bucket as u64, 1);
    };
    let octave = EXACT_BITS + (row >> SUB_BITS) as u32;
    let shift = octave - SUB_BITS;
    ((SUB + (row as u64 & (SUB - 1))) << shift, 1 << shift)
}

/// The value a bucket reports: itself in the exact range, else the
/// middle of its span.
fn midpoint_of(bucket: usize) -> u64 {
    let (low, width) = span_of(bucket);
    low + width / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile;
    use proptest::prelude::*;

    fn filled(samples: &[u64]) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for &sample in samples {
            histogram.record(sample);
        }
        histogram
    }

    fn sorted(samples: &[u64]) -> Vec<u64> {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted
    }

    const QUANTILES: [f64; 8] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

    #[test]
    fn buckets_tile_the_whole_u64_range() {
        let mut next_low = 0u64;
        for bucket in 0..BUCKETS {
            let (low, width) = span_of(bucket);
            assert_eq!(low, next_low, "no gap before bucket {bucket}");
            let high = low + (width - 1);
            assert_eq!(bucket_of(low), bucket);
            assert_eq!(bucket_of(high), bucket);
            // Half a bucket is at most RELATIVE_ERROR of its low end.
            assert!(
                width == 1 || (width / 2) as f64 <= LatencyHistogram::RELATIVE_ERROR * low as f64
            );
            next_low = high.wrapping_add(1);
        }
        assert_eq!(next_low, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn exact_range_matches_the_sorted_percentile_on_the_edge_cases() {
        // Empty, singleton, ties, and the degenerate quantiles: the
        // same cases `percentile` itself is pinned on.
        let cases: [&[u64]; 7] = [&[], &[7], &[42], &[3, 9], &[5, 5, 5, 9], &[4; 16], &[1_000]];
        for samples in cases {
            let histogram = filled(samples);
            for q in QUANTILES {
                assert_eq!(
                    histogram.percentile(q),
                    percentile(&sorted(samples), q),
                    "{samples:?} q={q}"
                );
            }
        }
        let ramp: Vec<u64> = (1..=100).collect();
        let histogram = filled(&ramp);
        assert_eq!(histogram.percentile(0.5), 50);
        assert_eq!(histogram.percentile(0.99), 99);
        assert_eq!(histogram.samples(), 100);
    }

    #[test]
    fn memory_is_allocated_once_and_never_grows() {
        let mut histogram = filled(&[1; 10]);
        let (buckets, len) = (histogram.counts.as_ptr(), histogram.counts.len());
        for i in 0..1_000_000u64 {
            histogram.record(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64));
        }
        assert_eq!(histogram.samples(), 1_000_010);
        assert_eq!(histogram.counts.as_ptr(), buckets);
        assert_eq!(histogram.counts.len(), len);
        assert_eq!(len, BUCKETS);
    }

    proptest! {
        #[test]
        fn below_the_threshold_every_percentile_is_exact(
            samples in prop::collection::vec(0u64..EXACT, 1..400),
            q in 0.0..=1.0f64,
        ) {
            let exact = percentile(&sorted(&samples), q);
            prop_assert_eq!(filled(&samples).percentile(q), exact);
        }

        #[test]
        fn above_the_threshold_percentiles_stay_within_the_stated_error(
            // Log-uniform over the whole u64 range: a uniform word
            // shifted right by a uniform amount.
            samples in prop::collection::vec(
                (any::<u64>(), 0u32..64).prop_map(|(word, shift)| word >> shift),
                1..400,
            ),
            q in 0.0..=1.0f64,
        ) {
            let exact = percentile(&sorted(&samples), q);
            let reported = filled(&samples).percentile(q);
            if exact < EXACT {
                prop_assert_eq!(reported, exact);
            } else {
                let error = (reported as f64 - exact as f64).abs() / exact as f64;
                prop_assert!(
                    error <= LatencyHistogram::RELATIVE_ERROR,
                    "exact {} reported {} error {}", exact, reported, error
                );
            }
        }
    }
}
