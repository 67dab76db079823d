//! K-distance parameter estimation.
//!
//! The paper sets (ε, τ) per dataset "based on a K-distance graph" (Ester
//! et al. '96, Schubert et al. '17, cited as the Table II methodology): plot
//! every point's distance to its k-th nearest neighbour in descending
//! order; the curve's knee separates noise (large k-distances) from cluster
//! interiors (small ones) and is a good ε. This module implements that
//! procedure over a sample of a stream, plus the companion heuristic the
//! paper uses for DTG (τ = average number of in-range neighbours at the
//! chosen ε).

use disc_geom::{Point, PointId};
use disc_index::{RTree, SpatialBackend};
use disc_window::Record;

/// Result of parameter estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Suggested distance threshold ε.
    pub eps: f64,
    /// Suggested density threshold τ (self-inclusive), paired to `eps`.
    pub tau: usize,
    /// The k used for the K-distance curve.
    pub k: usize,
}

/// Sorted (descending) k-distance curve over `records` (or a sample of at
/// most `max_sample` of them, evenly spaced).
pub fn kdistance_curve<const D: usize>(
    records: &[Record<D>],
    k: usize,
    max_sample: usize,
) -> Vec<f64> {
    assert!(k >= 1, "k must be at least 1");
    let step = (records.len() / max_sample.max(1)).max(1);
    let sample: Vec<(PointId, Point<D>)> = records
        .iter()
        .step_by(step)
        .enumerate()
        .map(|(i, r)| (PointId(i as u64), r.point))
        .collect();
    let mut tree = RTree::bulk_load(sample.clone());
    let mut dists: Vec<f64> = sample
        .iter()
        .filter_map(|(_, p)| tree.kth_distance(p, k + 1)) // +1: self is nearest
        .collect();
    dists.sort_by(|a, b| b.total_cmp(a));
    dists
}

/// The knee of a descending curve by the maximum-distance-to-chord rule:
/// the index whose point is farthest from the straight line connecting the
/// curve's endpoints.
pub fn knee_index(curve: &[f64]) -> usize {
    if curve.len() < 3 {
        return curve.len() / 2;
    }
    let n = (curve.len() - 1) as f64;
    let (y0, y1) = (curve[0], curve[curve.len() - 1]);
    let mut best = 0usize;
    let mut best_d = f64::NEG_INFINITY;
    for (i, &y) in curve.iter().enumerate() {
        let x = i as f64 / n;
        // Distance from (x, y_norm) to the chord (0, 1)-(1, 0) after
        // normalising the y range.
        let y_norm = if y1 < y0 { (y - y1) / (y0 - y1) } else { 0.5 };
        let d = (1.0 - x - y_norm).abs() / std::f64::consts::SQRT_2;
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Estimates (ε, τ) for a stream sample, following the paper's Table II
/// methodology:
///
/// 1. ε = the knee of the k-distance curve (k defaults to `2·D`, the
///    MinPts rule of thumb from Ester et al.);
/// 2. τ = the average self-inclusive number of ε-neighbours, the rule the
///    paper uses for DTG's density threshold.
/// ```
/// use disc_core::kdistance;
/// use disc_window::datasets;
///
/// let stream = datasets::gaussian_blobs::<2>(2_000, 3, 0.5, 7);
/// let est = kdistance::estimate(&stream, 500);
/// assert!(est.eps > 0.0 && est.tau >= 2);
/// ```
pub fn estimate<const D: usize>(records: &[Record<D>], max_sample: usize) -> Estimate {
    let k = 2 * D;
    let curve = kdistance_curve(records, k, max_sample);
    assert!(!curve.is_empty(), "cannot estimate from an empty stream");
    let eps = curve[knee_index(&curve)].max(f64::MIN_POSITIVE);

    // τ: mean ε-neighbour count over the same sample.
    let step = (records.len() / max_sample.max(1)).max(1);
    let sample: Vec<(PointId, Point<D>)> = records
        .iter()
        .step_by(step)
        .enumerate()
        .map(|(i, r)| (PointId(i as u64), r.point))
        .collect();
    let mut tree = RTree::bulk_load(sample.clone());
    let total: usize = sample.iter().map(|(_, p)| tree.ball_count(p, eps)).sum();
    let tau = (total as f64 / sample.len() as f64).round().max(2.0) as usize;
    Estimate { eps, tau, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_window::datasets;

    #[test]
    fn curve_is_descending_and_sized() {
        let recs = datasets::gaussian_blobs::<2>(600, 3, 0.5, 5);
        let curve = kdistance_curve(&recs, 4, 300);
        assert!(curve.len() >= 290 && curve.len() <= 300);
        for w in curve.windows(2) {
            assert!(w[0] >= w[1], "curve must be non-increasing");
        }
    }

    #[test]
    fn knee_finds_the_bend_of_a_hockey_stick() {
        // 20 noise values descending from 10, then 200 values near 1.
        let mut curve: Vec<f64> = (0..20).map(|i| 10.0 - 0.2 * i as f64).collect();
        curve.extend((0..200).map(|i| 1.0 - 0.001 * i as f64));
        let knee = knee_index(&curve);
        assert!(
            (10..40).contains(&knee),
            "knee at {knee}, expected near the bend"
        );
    }

    #[test]
    fn knee_degenerate_inputs() {
        assert_eq!(knee_index(&[]), 0);
        assert_eq!(knee_index(&[1.0]), 0);
        assert_eq!(knee_index(&[2.0, 1.0]), 1);
    }

    #[test]
    fn estimate_separates_blobs_from_noise() {
        // Dense blobs + sparse noise: ε must be large enough to hold blob
        // interiors together and far below the noise spacing.
        let mut recs = datasets::gaussian_blobs::<2>(1500, 3, 0.4, 11);
        recs.extend(datasets::uniform::<2>(150, 60.0, 13));
        let est = estimate(&recs, 800);
        assert!(est.eps > 0.05 && est.eps < 8.0, "eps = {}", est.eps);
        assert!(est.tau >= 2, "tau = {}", est.tau);

        // The estimate must actually work: DISC with it finds the 3 blobs.
        use crate::{Disc, DiscConfig};
        use disc_window::SlidingWindow;
        let mut w = SlidingWindow::new(recs, 600, 120);
        let mut disc = Disc::new(DiscConfig::new(est.eps, est.tau));
        disc.apply(&w.fill());
        while let Some(b) = w.advance() {
            disc.apply(&b);
        }
        let clusters = disc.num_clusters();
        assert!(
            (3..=12).contains(&clusters),
            "expected a handful of clusters, got {clusters}"
        );
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = kdistance_curve::<2>(&[], 0, 10);
    }
}
