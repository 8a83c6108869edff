//! The shard-span count kernel shared by worker processes and the
//! coordinator's degraded-local fallback.
//!
//! A *span* is a rectangle of the distributed count matrix: a run of
//! consecutive world indices (`first .. first + count`) crossed with a
//! word window (`word_lo .. word_hi`) of the Morton-ordered label
//! bitset. [`SpanCounter::count_span`] produces the exact integer
//! region-count partials of that rectangle, and the two invariants
//! that make the distributed audit bit-identical to the single-process
//! engine hold *by construction*:
//!
//! - **World identity.** World `w`'s labels depend only on
//!   `(null_model, seed, worldgen, w)` — never on which worker
//!   generates them, nor on how word windows partition the bitset
//!   ([`ScanEngine::generate_world_window`] draws the window's
//!   generation chunks from their absolutely-positioned substreams).
//! - **Partition sums.** Region counts and per-world positive totals
//!   over the clipped CSR views sum exactly (integer addition) across
//!   any partition of the label words, so the coordinator's reduction
//!   reproduces the unsharded counts bit for bit.
//!
//! [`ScanEngine::generate_world_window`]: sfscan::prepared::PreparedAudit

use sfindex::{BitLabels, BlockedMembership, MAX_FUSED_WORLDS};
use sfscan::prepared::{PreparedAudit, MAX_WORLDS};
use sfscan::{NullModel, WorldGen};
use sfstats::rng::world_rng;
use std::sync::{Arc, Mutex};

/// One span of the distributed count matrix: worlds
/// `first .. first + count` of the `(null_model, seed, worldgen)`
/// stream, restricted to label words `word_lo .. word_hi`. The local
/// twin of the wire's count request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSpec {
    pub null_model: NullModel,
    pub worldgen: WorldGen,
    pub seed: u64,
    pub first: usize,
    pub count: usize,
    pub word_lo: usize,
    pub word_hi: usize,
}

/// The exact integer partials of one counted span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanPartials {
    /// Region-major count partials: `counts[r * count + k]` is region
    /// `r`'s positive count within the word window under world
    /// `first + k`.
    pub counts: Vec<u64>,
    /// Per-world positive totals within the word window:
    /// `p_partials[k]` under world `first + k`.
    pub p_partials: Vec<u64>,
}

/// What one word window can hold: each region's members inside it and
/// the window's point count. A partial beyond these could not have come
/// from counting, so a coordinator rejects the reply carrying it
/// instead of folding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowCapacity {
    /// `region_n[r]`: region `r`'s members inside the window.
    pub(crate) region_n: Vec<u64>,
    /// Points inside the window.
    pub(crate) points: u64,
}

impl WindowCapacity {
    /// Checks a span's partials (`counts[r * W + k]`, `p_partials[k]`,
    /// dimensions already matched) against the window: for every world
    /// `k`, `p_partials[k] ≤ points`, and for every region `r`, its
    /// count fits inside the region (`≤ region_n[r]`), inside the
    /// window's positives (`≤ p_partials[k]`), and leaves no more
    /// positives outside the region than there are points
    /// (`p_partials[k] − count + region_n[r] ≤ points`). Partials that
    /// pass in every window sum to counts every statistic accepts.
    pub(crate) fn check(&self, counts: &[u64], p_partials: &[u64]) -> Result<(), String> {
        let width = p_partials.len();
        for (k, &p) in p_partials.iter().enumerate() {
            if p > self.points {
                return Err(format!(
                    "world {k}: {p} positives in a window of {} points",
                    self.points
                ));
            }
            for (r, &n_r) in self.region_n.iter().enumerate() {
                let c = counts[r * width + k];
                if c > n_r || c > p || p - c + n_r > self.points {
                    return Err(format!(
                        "world {k}, region {r}: {c} positives for {n_r} members \
                         ({p} positives, {} points in the window)",
                        self.points
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Errors a span request can hit before any counting happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// The engine counts by requery, so there are no masks to clip.
    /// Distributed counting requires an engine built from membership
    /// lists ([`ScanEngine::blocked`](sfscan::engine::ScanEngine::blocked)).
    NotBlocked,
    /// The word window is inverted or exceeds the label words.
    BadWindow { word_lo: usize, word_hi: usize },
    /// The span is empty.
    EmptySpan,
    /// The span asks for more than [`MAX_WORLDS`] worlds.
    TooManyWorlds { count: usize },
    /// The span's last world index `first + count` overflows.
    WorldOverflow { first: usize, count: usize },
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanError::NotBlocked => write!(
                f,
                "distributed counting requires the blocked counting strategy"
            ),
            SpanError::BadWindow { word_lo, word_hi } => {
                write!(f, "bad word window {word_lo}..{word_hi}")
            }
            SpanError::EmptySpan => write!(f, "empty world span"),
            SpanError::TooManyWorlds { count } => {
                write!(
                    f,
                    "span of {count} worlds exceeds the limit of {MAX_WORLDS}"
                )
            }
            SpanError::WorldOverflow { first, count } => {
                write!(f, "world span {first} + {count} overflows")
            }
        }
    }
}

impl std::error::Error for SpanError {}

/// Clipped views a [`SpanCounter`] keeps. A coordinator sends each
/// worker one window, and its degraded path counts the windows of dead
/// workers, so with up to eight workers every window in use stays
/// cached; past that a miss only costs a re-clip.
const VIEW_SLOTS: usize = 8;

/// A clipped view and the word window it covers.
type CachedView = ((usize, usize), Arc<BlockedMembership>);

/// Counts world-span × word-window rectangles against one prepared
/// engine, caching the clipped CSR views (a worker serves the same
/// window for every span of an audit; the coordinator's degraded path
/// revisits windows across retries).
#[derive(Debug)]
pub struct SpanCounter {
    prepared: Arc<PreparedAudit>,
    /// The [`VIEW_SLOTS`] most recently used clipped views, least
    /// recent first. A view is an O(window) CSR slice, so the cache
    /// trades a few MB for not re-clipping on every span, and the bound
    /// keeps a client that sends many distinct windows from growing it.
    views: Mutex<Vec<CachedView>>,
}

impl SpanCounter {
    /// Wraps a prepared engine. Fails on a requery engine — only
    /// engines built from membership lists have masks to clip into
    /// word-window views.
    pub fn new(prepared: Arc<PreparedAudit>) -> Result<Self, SpanError> {
        if prepared.engine().blocked().is_none() {
            return Err(SpanError::NotBlocked);
        }
        Ok(SpanCounter {
            prepared,
            views: Mutex::new(Vec::with_capacity(VIEW_SLOTS)),
        })
    }

    /// The engine this counter reads.
    pub fn prepared(&self) -> &Arc<PreparedAudit> {
        &self.prepared
    }

    /// Total label words — the axis [`sfindex::shard_word_bounds`]
    /// partitions.
    pub fn num_label_words(&self) -> usize {
        self.prepared
            .engine()
            .blocked()
            .expect("constructor verified the blocked substrate")
            .num_label_words()
    }

    /// Number of candidate regions (rows of the count matrix).
    pub fn num_regions(&self) -> usize {
        self.prepared.num_regions()
    }

    /// Number of indexed points (dataset-identity check for workers).
    pub fn num_points(&self) -> usize {
        self.prepared.num_points()
    }

    /// What word window `word_lo..word_hi` can hold (see
    /// [`WindowCapacity`]). Clips the CSR once and keeps only the sizes.
    ///
    /// # Panics
    /// Panics on a window [`BlockedMembership::clip_to_words`] rejects.
    pub(crate) fn window_capacity(&self, word_lo: usize, word_hi: usize) -> WindowCapacity {
        let view = self
            .prepared
            .engine()
            .blocked()
            .expect("constructor verified the blocked substrate")
            .clip_to_words(word_lo, word_hi);
        let n = self.num_points();
        WindowCapacity {
            region_n: (0..view.num_regions()).map(|r| view.n_of(r)).collect(),
            points: ((word_hi * 64).min(n) - (word_lo * 64).min(n)) as u64,
        }
    }

    fn view(&self, word_lo: usize, word_hi: usize) -> Arc<BlockedMembership> {
        let mut views = self.views.lock().expect("view cache lock");
        let entry = match views.iter().position(|(w, _)| *w == (word_lo, word_hi)) {
            Some(i) => views.remove(i),
            None => {
                if views.len() == VIEW_SLOTS {
                    views.remove(0);
                }
                let view = self
                    .prepared
                    .engine()
                    .blocked()
                    .expect("constructor verified the blocked substrate")
                    .clip_to_words(word_lo, word_hi);
                ((word_lo, word_hi), Arc::new(view))
            }
        };
        let view = entry.1.clone();
        views.push(entry);
        view
    }

    /// Counts one span: generates the spec's worlds
    /// (window-restricted generation when the stream supports it, full
    /// generation otherwise — the window's words are identical either
    /// way) and recounts them against the clipped CSR view of its word
    /// window, one lane group of [`MAX_FUSED_WORLDS`] worlds at a time,
    /// so a span holds at most that many worlds' labels whatever its
    /// length.
    pub fn count_span(&self, spec: SpanSpec) -> Result<SpanPartials, SpanError> {
        let SpanSpec {
            null_model,
            worldgen,
            seed,
            first,
            count,
            word_lo,
            word_hi,
        } = spec;
        if count == 0 {
            return Err(SpanError::EmptySpan);
        }
        if count > MAX_WORLDS {
            return Err(SpanError::TooManyWorlds { count });
        }
        if first.checked_add(count).is_none() {
            return Err(SpanError::WorldOverflow { first, count });
        }
        if word_lo > word_hi || word_hi > self.num_label_words() {
            return Err(SpanError::BadWindow { word_lo, word_hi });
        }
        let engine = self.prepared.engine();
        let view = self.view(word_lo, word_hi);
        let mut counts = vec![0; view.num_regions() * count];
        let mut p_partials = Vec::with_capacity(count);
        let mut group_counts = Vec::new();
        for g0 in (0..count).step_by(MAX_FUSED_WORLDS) {
            let worlds: Vec<BitLabels> = (g0..count.min(g0 + MAX_FUSED_WORLDS))
                .map(|k| {
                    let mut rng = world_rng(seed, (first + k) as u64);
                    engine.generate_world_window(null_model, worldgen, &mut rng, word_lo, word_hi)
                })
                .collect();
            let refs: Vec<&BitLabels> = worlds.iter().collect();
            view.count_all_many_into(&refs, engine.kernel(), &mut group_counts);
            // The group's columns of the region-major reply.
            for (row, group_row) in counts
                .chunks_exact_mut(count)
                .zip(group_counts.chunks_exact(worlds.len()))
            {
                row[g0..g0 + worlds.len()].copy_from_slice(group_row);
            }
            p_partials.extend(
                worlds
                    .iter()
                    .map(|labels| labels.count_ones_in_words(word_lo, word_hi)),
            );
        }
        Ok(SpanPartials { counts, p_partials })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgeo::{Point, Rect};
    use sfscan::{AuditConfig, CountingStrategy, RegionSet, SpatialOutcomes};

    /// A blocked engine over `n` scattered points and a 4×4 grid.
    fn counter(n: usize) -> SpanCounter {
        let points = (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                Point::new((h % 1000) as f64 / 100.0, ((h >> 10) % 1000) as f64 / 100.0)
            })
            .collect();
        let labels = (0..n).map(|i| i % 3 == 0).collect();
        let data = SpatialOutcomes::new(points, labels).unwrap();
        let grid = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4);
        let config = AuditConfig::new(0.05).with_strategy(CountingStrategy::Blocked);
        SpanCounter::new(Arc::new(
            PreparedAudit::prepare(&data, &grid, config).unwrap(),
        ))
        .unwrap()
    }

    fn spec(first: usize, count: usize, word_lo: usize, word_hi: usize) -> SpanSpec {
        SpanSpec {
            null_model: NullModel::Bernoulli,
            worldgen: WorldGen::Word,
            seed: 5,
            first,
            count,
            word_lo,
            word_hi,
        }
    }

    #[test]
    fn oversized_and_overflowing_spans_are_typed_errors() {
        let counter = counter(500);
        let words = counter.num_label_words();
        assert_eq!(
            counter.count_span(spec(0, 1 << 40, 0, words)),
            Err(SpanError::TooManyWorlds { count: 1 << 40 })
        );
        assert_eq!(
            counter.count_span(spec(0, MAX_WORLDS + 1, 0, words)),
            Err(SpanError::TooManyWorlds {
                count: MAX_WORLDS + 1
            })
        );
        assert_eq!(
            counter.count_span(spec(usize::MAX - 1, 4, 0, words)),
            Err(SpanError::WorldOverflow {
                first: usize::MAX - 1,
                count: 4
            })
        );
        assert!(counter
            .count_span(spec(usize::MAX - 4, 4, 0, words))
            .is_ok());
    }

    #[test]
    fn view_cache_stays_bounded_and_partials_match_a_fresh_counter() {
        let counter = counter(3000);
        let words = counter.num_label_words();
        let windows: Vec<(usize, usize)> = (0..words)
            .flat_map(|lo| (lo + 1..=words).map(move |hi| (lo, hi)))
            .take(200)
            .collect();
        assert_eq!(windows.len(), 200, "{words} words give too few windows");
        // Every window twice, so some spans hit the cache and some miss
        // after an eviction.
        for (i, &(lo, hi)) in windows.iter().chain(&windows[..20]).enumerate() {
            let got = counter.count_span(spec(i, 3, lo, hi)).unwrap();
            let fresh = SpanCounter::new(counter.prepared().clone())
                .unwrap()
                .count_span(spec(i, 3, lo, hi))
                .unwrap();
            assert_eq!(got, fresh, "window {lo}..{hi}");
            assert!(counter.views.lock().unwrap().len() <= VIEW_SLOTS);
        }
        // A window in use stays cached across spans.
        let (lo, hi) = windows[0];
        counter.count_span(spec(0, 1, lo, hi)).unwrap();
        let cached = counter.view(lo, hi);
        assert!(Arc::ptr_eq(&cached, &counter.view(lo, hi)));
    }

    #[test]
    fn lane_group_partials_match_a_one_shot_count() {
        // Spans counted eight worlds at a time give the partials of
        // generating every world first and counting them in one call,
        // over whole, partial and several lane groups, in the full
        // window and a narrow one.
        let counter = counter(3000);
        let words = counter.num_label_words();
        let engine = counter.prepared().engine();
        for (word_lo, word_hi) in [(0, words), (words / 3, words / 3 + 2)] {
            let view = counter.view(word_lo, word_hi);
            for count in [1, 7, 8, 9, 17] {
                let spec = spec(11, count, word_lo, word_hi);
                let worlds: Vec<BitLabels> = (0..count)
                    .map(|k| {
                        let mut rng = world_rng(spec.seed, (spec.first + k) as u64);
                        engine.generate_world_window(
                            spec.null_model,
                            spec.worldgen,
                            &mut rng,
                            word_lo,
                            word_hi,
                        )
                    })
                    .collect();
                let refs: Vec<&BitLabels> = worlds.iter().collect();
                let mut counts = Vec::new();
                view.count_all_many_into(&refs, engine.kernel(), &mut counts);
                let p_partials = worlds
                    .iter()
                    .map(|labels| labels.count_ones_in_words(word_lo, word_hi))
                    .collect();
                assert_eq!(
                    counter.count_span(spec).unwrap(),
                    SpanPartials { counts, p_partials },
                    "count {count}, window {word_lo}..{word_hi}"
                );
            }
        }
    }

    #[test]
    fn window_capacity_rejects_impossible_partials() {
        // Two regions of 3 and 0 members in a 10-point window, two worlds.
        let cap = WindowCapacity {
            region_n: vec![3, 0],
            points: 10,
        };
        // counts[r * 2 + k]: region 0 holds 2 and 3 positives, region 1 none.
        assert_eq!(cap.check(&[2, 3, 0, 0], &[4, 10]), Ok(()));
        // More positives than members.
        assert!(cap.check(&[4, 3, 0, 0], &[4, 10]).is_err());
        assert!(cap.check(&[2, 3, 1, 0], &[4, 10]).is_err());
        // More positives than the window's.
        assert!(cap.check(&[2, 3, 0, 0], &[1, 10]).is_err());
        assert!(cap.check(&[2, 3, 0, 0], &[4, 11]).is_err());
        // All 10 points positive, yet region 0 reports only 2 of its 3.
        assert!(cap.check(&[3, 2, 0, 0], &[4, 10]).is_err());
    }
}
