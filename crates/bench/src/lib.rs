//! Shared fixtures for the criterion benches.
//!
//! Every bench works on reduced-scale versions of the paper's
//! workloads so `cargo bench --workspace` completes in minutes while
//! preserving the shape of each experiment (the full-scale runs live
//! in the `experiments` harness).

use sfdata::lar::{LarConfig, LarDataset};
use sfgeo::Point;
use sfindex::BitLabels;
use sfscan::engine::ScanEngine;
use sfscan::Direction;
use sfstats::rng::seeded_rng;

use rand::Rng;

/// Deterministic reduced-scale SynthLAR (10k observations).
pub fn small_lar() -> LarDataset {
    LarDataset::generate(&LarConfig::small())
}

/// One world's two-sided `τ` under the engine's default statistic.
pub fn two_sided_tau(engine: &ScanEngine, labels: &BitLabels) -> f64 {
    let mut tau = [0.0];
    engine.eval(
        engine.statistic(),
        &[labels],
        &[Direction::TwoSided],
        &mut tau,
        false,
    );
    tau[0]
}

/// Clustered points (mixture of tight blobs), for index benches that
/// should resemble LAR's density profile.
pub fn clustered_points(n: usize, clusters: usize, seed: u64) -> (Vec<Point>, BitLabels) {
    let mut rng = seeded_rng(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
        .collect();
    let points: Vec<Point> = (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            Point::new(
                c.x + rng.gen_range(-0.5..0.5),
                c.y + rng.gen_range(-0.5..0.5),
            )
        })
        .collect();
    let labels = BitLabels::from_fn(n, |_| rng.gen_bool(0.62));
    (points, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (c1, l1) = clustered_points(100, 5, 2);
        let (c2, l2) = clustered_points(100, 5, 2);
        assert_eq!(c1, c2);
        assert_eq!(l1, l2);
    }
}
