//! Pluggable counting substrates.
//!
//! * [`CountingSubstrate`] — the capability a scan engine needs from
//!   an index: exact range counts ([`RangeCount`]) *and* member-id
//!   enumeration ([`PointVisit`], used to materialize membership lists
//!   and, under the `Requery` strategy, to recount simulated worlds).
//!   Blanket-implemented, so tests and custom indexes plug in.
//! * [`IndexBackend`] — a serializable config knob naming a backend:
//!   the kd-tree (the default) or its brute-force oracle.
//! * [`Substrate`] — the runtime-selected backend, dispatching to the
//!   concrete index structure.
//!
//! The audit queries the substrate once per region at prepare time;
//! every simulated world is then counted through membership rings and
//! masks, so the backend sets prepare time only. On the two benchmark
//! datasets (a 16×16 grid over 20k points, 2,000 squares over 10k)
//! the kd-tree prepares within a few milliseconds of the other spatial
//! indexes tried (quad-tree, R-tree, uniform grid) and 3–8× faster
//! than brute force (see the README's "Picking an index backend").
//!
//! [`SummedAreaTable`](crate::SummedAreaTable) is deliberately *not* a
//! substrate: it only answers grid-aligned cell ranges and cannot
//! enumerate member ids, so it keeps its specialized role in
//! partition-based pipelines.
//!
//! Both substrates are exact — they differ in build and query cost
//! only, never in results. The differential proptests in this crate
//! and the cross-backend audit tests in `sfscan` hold them to
//! bit-identical answers.

use crate::{BitLabels, BruteForceIndex, CountPair, KdTree, PointVisit, RangeCount};
use serde::{Deserialize, Serialize};
use sfgeo::{Point, Region};

/// Everything a scan engine needs from a spatial index: exact range
/// counts plus member-id enumeration.
///
/// Blanket-implemented for every type providing both capabilities, so
/// custom backends participate automatically.
pub trait CountingSubstrate: RangeCount + PointVisit + Send + Sync {}

impl<T: RangeCount + PointVisit + Send + Sync> CountingSubstrate for T {}

/// Config knob selecting a counting backend.
///
/// Both backends return bit-identical counts; they differ in build
/// time, memory, and per-query cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IndexBackend {
    /// Linear scan per query; no build cost. The differential-testing
    /// oracle.
    Brute,
    /// Median-split kd-tree with per-node aggregates (the default).
    #[default]
    KdTree,
}

impl IndexBackend {
    /// All selectable backends (used by cross-backend tests and the
    /// comparison benches).
    pub const ALL: [IndexBackend; 2] = [IndexBackend::Brute, IndexBackend::KdTree];

    /// Stable lowercase name (CLI/bench labels).
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Brute => "brute",
            IndexBackend::KdTree => "kdtree",
        }
    }
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing an [`IndexBackend`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    input: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown index backend {:?}; valid values: ", self.input)?;
        for (i, backend) in IndexBackend::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(backend.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for IndexBackend {
    type Err = ParseBackendError;

    /// Parses the [`Display`](std::fmt::Display) name back (`brute`,
    /// `kdtree`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IndexBackend::ALL
            .into_iter()
            .find(|backend| backend.name() == s.trim())
            .ok_or_else(|| ParseBackendError {
                input: s.to_string(),
            })
    }
}

/// A runtime-selected counting backend.
///
/// Built from an [`IndexBackend`] knob via [`Substrate::build`];
/// dispatches [`RangeCount`] and [`PointVisit`] to the concrete index.
#[derive(Debug, Clone)]
pub enum Substrate {
    /// Brute-force linear scans.
    Brute(BruteForceIndex),
    /// kd-tree.
    KdTree(KdTree),
}

impl Substrate {
    /// Builds the backend named by `backend` over `points`/`labels`.
    pub fn build(backend: IndexBackend, points: Vec<Point>, labels: BitLabels) -> Self {
        match backend {
            IndexBackend::Brute => Substrate::Brute(BruteForceIndex::build(points, labels)),
            IndexBackend::KdTree => Substrate::KdTree(KdTree::build(points, labels)),
        }
    }

    /// The knob this substrate was built from.
    pub fn backend(&self) -> IndexBackend {
        match self {
            Substrate::Brute(_) => IndexBackend::Brute,
            Substrate::KdTree(_) => IndexBackend::KdTree,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Substrate::Brute($inner) => $body,
            Substrate::KdTree($inner) => $body,
        }
    };
}

impl RangeCount for Substrate {
    fn len(&self) -> usize {
        dispatch!(self, inner => inner.len())
    }

    fn total(&self) -> CountPair {
        dispatch!(self, inner => inner.total())
    }

    fn count(&self, region: &Region) -> CountPair {
        dispatch!(self, inner => inner.count(region))
    }
}

impl PointVisit for Substrate {
    fn for_each_in(&self, region: &Region, visit: &mut dyn FnMut(u32)) {
        dispatch!(self, inner => inner.for_each_in(region, visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Circle, Rect};

    fn dataset(n: usize, seed: u64) -> (Vec<Point>, BitLabels) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let points = (0..n)
            .map(|_| Point::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)))
            .collect();
        let labels = BitLabels::from_fn(n, |_| rng.gen_bool(0.4));
        (points, labels)
    }

    fn regions() -> Vec<Region> {
        vec![
            Rect::from_coords(-8.0, -8.0, 0.0, 8.0).into(),
            Rect::from_coords(-1.0, -1.0, 1.0, 1.0).into(),
            Circle::new(Point::new(2.0, 2.0), 3.0).into(),
            Rect::from_coords(20.0, 20.0, 30.0, 30.0).into(), // empty
        ]
    }

    #[test]
    fn every_backend_is_constructible_and_exact() {
        let (points, labels) = dataset(800, 1);
        let oracle = BruteForceIndex::build(points.clone(), labels.clone());
        for backend in IndexBackend::ALL {
            let substrate = Substrate::build(backend, points.clone(), labels.clone());
            assert_eq!(substrate.backend(), backend);
            assert_eq!(substrate.len(), oracle.len(), "{backend}");
            assert_eq!(substrate.total(), oracle.total(), "{backend}");
            for region in &regions() {
                assert_eq!(substrate.count(region), oracle.count(region), "{backend}");
                assert_eq!(substrate.ids_in(region), oracle.ids_in(region), "{backend}");
            }
        }
    }

    #[test]
    fn substrate_serves_alternate_world_counts() {
        let (points, labels) = dataset(500, 2);
        let n = points.len();
        let world = BitLabels::from_fn(n, |i| i % 3 == 0);
        let oracle = BruteForceIndex::build(points.clone(), labels.clone());
        for backend in IndexBackend::ALL {
            let substrate = Substrate::build(backend, points.clone(), labels.clone());
            for region in &regions() {
                assert_eq!(
                    substrate.count_with(region, &world),
                    oracle.count_with(region, &world),
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn backend_knob_serializes_by_name() {
        for backend in IndexBackend::ALL {
            let json = serde_json::to_string(&backend).unwrap();
            let back: IndexBackend = serde_json::from_str(&json).unwrap();
            assert_eq!(back, backend);
        }
        assert_eq!(IndexBackend::default(), IndexBackend::KdTree);
        assert_eq!(IndexBackend::Brute.to_string(), "brute");
    }

    #[test]
    fn backend_parse_round_trips() {
        for backend in IndexBackend::ALL {
            let shown = backend.to_string();
            assert_eq!(shown.parse::<IndexBackend>().unwrap(), backend);
        }
        let err = "ball-tree".parse::<IndexBackend>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("ball-tree"), "{msg}");
        for backend in IndexBackend::ALL {
            assert!(msg.contains(backend.name()), "{msg} missing {backend}");
        }
    }

    #[test]
    fn retired_backend_names_are_rejected() {
        for name in ["quadtree", "QuadTree", "rtree", "RTree", "grid", "Grid"] {
            let msg = name.parse::<IndexBackend>().unwrap_err().to_string();
            assert!(msg.contains(name), "{msg}");
            assert!(msg.ends_with("valid values: brute, kdtree"), "{msg}");
            let wire = serde_json::from_str::<IndexBackend>(&format!("{name:?}")).unwrap_err();
            let msg = wire.to_string();
            assert!(msg.contains(name), "{msg}");
            assert!(msg.ends_with("valid values: Brute, KdTree"), "{msg}");
        }
    }

    #[test]
    fn empty_dataset_supported() {
        for backend in IndexBackend::ALL {
            let substrate = Substrate::build(backend, Vec::new(), BitLabels::zeros(0));
            assert!(substrate.is_empty(), "{backend}");
            assert_eq!(substrate.count(&regions()[0]), CountPair::default());
        }
    }
}
