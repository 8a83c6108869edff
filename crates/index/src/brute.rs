//! Brute-force range counting — the correctness oracle.

use crate::{labels::BitLabels, CountPair, PointVisit, RangeCount};
use sfgeo::{Point, Region};

/// Linear-scan index: `O(N)` per query, trivially correct.
///
/// The kd-tree is differential-tested against this one; tests plug it
/// into a scan engine through `ScanEngine::from_index` as the oracle
/// index.
#[derive(Debug, Clone)]
pub struct BruteForceIndex {
    points: Vec<Point>,
    labels: BitLabels,
    positives: u64,
}

impl BruteForceIndex {
    /// Builds the index over `points` with build-time `labels`.
    ///
    /// # Panics
    /// Panics if `labels.len() != points.len()`.
    pub fn build(points: Vec<Point>, labels: BitLabels) -> Self {
        assert_eq!(
            points.len(),
            labels.len(),
            "points and labels must have equal length"
        );
        let positives = labels.count_ones();
        BruteForceIndex {
            points,
            labels,
            positives,
        }
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }
}

impl RangeCount for BruteForceIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn total(&self) -> CountPair {
        CountPair {
            n: self.points.len() as u64,
            p: self.positives,
        }
    }

    fn count(&self, region: &Region) -> CountPair {
        let mut n = 0u64;
        let mut p = 0u64;
        for (i, pt) in self.points.iter().enumerate() {
            if region.contains(pt) {
                n += 1;
                p += self.labels.get(i) as u64;
            }
        }
        CountPair { n, p }
    }
}

impl PointVisit for BruteForceIndex {
    fn for_each_in(&self, region: &Region, visit: &mut dyn FnMut(u32)) {
        for (i, pt) in self.points.iter().enumerate() {
            if region.contains(pt) {
                visit(i as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfgeo::{Circle, Rect};

    fn make() -> BruteForceIndex {
        // 4 points on a line, alternating labels.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let labels = BitLabels::from_bools(&[true, false, true, false]);
        BruteForceIndex::build(pts, labels)
    }

    #[test]
    fn totals() {
        let idx = make();
        assert_eq!(idx.total(), CountPair::new(4, 2));
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn rect_count() {
        let idx = make();
        let r: Region = Rect::from_coords(0.5, -1.0, 2.5, 1.0).into();
        assert_eq!(idx.count(&r), CountPair::new(2, 1));
    }

    #[test]
    fn circle_count() {
        let idx = make();
        let c: Region = Circle::new(Point::new(0.0, 0.0), 1.0).into();
        assert_eq!(idx.count(&c), CountPair::new(2, 1)); // points at 0 and 1
    }

    #[test]
    fn empty_region() {
        let idx = make();
        let r: Region = Rect::from_coords(10.0, 10.0, 11.0, 11.0).into();
        assert_eq!(idx.count(&r), CountPair::default());
    }

    #[test]
    fn whole_space() {
        let idx = make();
        let r: Region = Rect::from_coords(-10.0, -10.0, 10.0, 10.0).into();
        assert_eq!(idx.count(&r), idx.total());
    }

    #[test]
    fn visit_and_count_with_alternate_labels() {
        let idx = make();
        let r: Region = Rect::from_coords(0.5, -1.0, 3.5, 1.0).into();
        assert_eq!(idx.ids_in(&r), vec![1, 2, 3]);
        // Alternate world: all positive.
        let world = BitLabels::from_fn(4, |_| true);
        assert_eq!(idx.count_with(&r, &world), CountPair::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_rejected() {
        let _ = BruteForceIndex::build(vec![Point::ORIGIN], BitLabels::zeros(2));
    }
}
