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

use sfindex::BlockedMembership;
use sfscan::prepared::PreparedAudit;
use sfscan::{NullModel, WorldGen};
use sfstats::rng::world_rng;
use std::collections::HashMap;
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
        }
    }
}

impl std::error::Error for SpanError {}

/// Counts world-span × word-window rectangles against one prepared
/// engine, caching the clipped CSR views (a worker serves the same
/// window for every span of an audit; the coordinator's degraded path
/// revisits windows across retries).
#[derive(Debug)]
pub struct SpanCounter {
    prepared: Arc<PreparedAudit>,
    /// Clipped views keyed by word window. Built lazily; a view is an
    /// O(window) CSR slice, so the cache trades a few MB for not
    /// re-clipping on every span.
    views: Mutex<HashMap<(usize, usize), Arc<BlockedMembership>>>,
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
            views: Mutex::new(HashMap::new()),
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
        views
            .entry((word_lo, word_hi))
            .or_insert_with(|| {
                Arc::new(
                    self.prepared
                        .engine()
                        .blocked()
                        .expect("constructor verified the blocked substrate")
                        .clip_to_words(word_lo, word_hi),
                )
            })
            .clone()
    }

    /// Counts one span: generates the spec's worlds
    /// (window-restricted generation when the stream supports it, full
    /// generation otherwise — the window's words are identical either
    /// way) and recounts them against the clipped CSR view of its word
    /// window.
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
        if word_lo > word_hi || word_hi > self.num_label_words() {
            return Err(SpanError::BadWindow { word_lo, word_hi });
        }
        let engine = self.prepared.engine();
        let mut worlds = Vec::with_capacity(count);
        for k in 0..count {
            let mut rng = world_rng(seed, (first + k) as u64);
            worlds.push(
                engine.generate_world_window(null_model, worldgen, &mut rng, word_lo, word_hi),
            );
        }
        let refs: Vec<&sfindex::BitLabels> = worlds.iter().collect();
        let view = self.view(word_lo, word_hi);
        let mut counts = Vec::new();
        view.count_all_many_into(&refs, engine.kernel(), &mut counts);
        let p_partials = worlds
            .iter()
            .map(|labels| labels.count_ones_in_words(word_lo, word_hi))
            .collect();
        Ok(SpanPartials { counts, p_partials })
    }
}

#[cfg(test)]
mod tests {
    use super::WindowCapacity;

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
