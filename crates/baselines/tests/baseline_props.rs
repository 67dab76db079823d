//! Property tests for the baseline implementations.

use disc_baselines::{Dbscan, ExtraN, IncDbscan, RhoDbscan, WindowClusterer};
use disc_geom::{FxHashMap, PointId};
use disc_window::{datasets, SlidingWindow};
use proptest::prelude::*;

/// Connected-in-exact ⇒ connected-in-ρ₂: the approximation may only merge
/// clusters that exact DBSCAN separates (slack edges in `(ε, ε(1+ρ)]`),
/// never split what exact DBSCAN joins. Core/noise status is exact.
#[test]
fn rho2_is_a_coarsening_of_exact_dbscan() {
    for seed in [3u64, 17, 99] {
        let recs = datasets::covid_like(900, seed);
        let (eps, tau) = (1.2, 4);
        let window = 400;
        let stride = 100;

        let mut exact = Dbscan::new(eps, tau);
        let mut rho = RhoDbscan::new(eps, tau, 0.5); // generous slack
        let mut w = SlidingWindow::new(recs, window, stride);
        let fill = w.fill();
        WindowClusterer::apply(&mut exact, &fill);
        WindowClusterer::apply(&mut rho, &fill);
        loop {
            let a: FxHashMap<PointId, i64> =
                WindowClusterer::assignments(&exact).into_iter().collect();
            let b: FxHashMap<PointId, i64> =
                WindowClusterer::assignments(&rho).into_iter().collect();
            // Noise agreement is exact (core counting is exact in rho2 and
            // borders adopt within plain ε on both sides).
            for (id, &la) in &a {
                let lb = b[id];
                assert_eq!(la < 0, lb < 0, "{id}: exact={la} rho2={lb}");
            }
            // Coarsening: two points sharing an exact cluster share a rho2
            // cluster.
            let mut exact_to_rho: FxHashMap<i64, i64> = FxHashMap::default();
            for (id, &la) in &a {
                if la < 0 {
                    continue;
                }
                let lb = b[id];
                if let Some(&prev) = exact_to_rho.get(&la) {
                    assert_eq!(prev, lb, "exact cluster {la} maps to rho2 {prev} and {lb}");
                } else {
                    exact_to_rho.insert(la, lb);
                }
            }
            match w.advance() {
                Some(batch) => {
                    WindowClusterer::apply(&mut exact, &batch);
                    WindowClusterer::apply(&mut rho, &batch);
                }
                None => break,
            }
        }
    }
}

/// IncDBSCAN drives the DISC engine with singleton slides, so each
/// departing core and each arrival that becomes a core has its ball reused
/// by CLUSTER. It must stay DBSCAN-equivalent to the from-scratch oracle
/// (core partition, noise set, border attachments) after every stride.
#[test]
fn incdbscan_matches_the_dbscan_oracle() {
    use disc_metrics::{assert_dbscan_equivalent, Labeling};
    let mut recs = datasets::gaussian_blobs::<2>(1200, 3, 0.8, 41);
    let noise = datasets::uniform::<2>(300, 25.0, 43);
    for (i, n) in noise.into_iter().enumerate() {
        recs.insert((i * 5) % recs.len(), n);
    }
    let (eps, tau) = (0.9, 4);
    let mut db = Dbscan::new(eps, tau);
    let mut inc = IncDbscan::new(eps, tau);
    let mut w = SlidingWindow::new(recs, 300, 60);
    let mut batch = Some(w.fill());
    while let Some(b) = batch {
        WindowClusterer::apply(&mut db, &b);
        WindowClusterer::apply(&mut inc, &b);
        let points: Vec<_> = w.current().collect();
        let side = |assignment| Labeling {
            points: &points,
            assignment,
        };
        assert_dbscan_equivalent(
            &side(&WindowClusterer::assignments(&db)),
            &side(&WindowClusterer::assignments(&inc)),
            eps,
            tau,
        );
        batch = w.advance();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// IncDBSCAN and EXTRA-N agree with DBSCAN on noise flags and cluster
    /// counts for random windows/strides over blob+noise streams.
    #[test]
    fn exact_baselines_agree(
        seed in 0u64..1000,
        window in 80usize..200,
        stride_frac in 1usize..5,
    ) {
        let stride = (window * stride_frac / 5).max(1);
        // EXTRA-N needs the stride to tile the window.
        let window = stride * (window / stride).max(1);
        let mut recs = datasets::gaussian_blobs::<2>(window * 3, 3, 0.8, seed);
        let noise = datasets::uniform::<2>(window / 2, 30.0, seed ^ 0xabc);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 7) % recs.len(), n);
        }
        let (eps, tau) = (1.0, 4);

        let mut db = Dbscan::new(eps, tau);
        let mut inc = IncDbscan::new(eps, tau);
        let mut exn = ExtraN::new(eps, tau, window, stride);
        let mut w = SlidingWindow::new(recs, window, stride);
        let fill = w.fill();
        WindowClusterer::apply(&mut db, &fill);
        WindowClusterer::apply(&mut inc, &fill);
        WindowClusterer::apply(&mut exn, &fill);
        loop {
            let a = WindowClusterer::assignments(&db);
            for other in [
                WindowClusterer::assignments(&inc),
                WindowClusterer::assignments(&exn),
            ] {
                prop_assert_eq!(a.len(), other.len());
                for ((ida, la), (idb, lb)) in a.iter().zip(other.iter()) {
                    prop_assert_eq!(ida, idb);
                    prop_assert_eq!(*la < 0, *lb < 0, "{:?}: {} vs {}", ida, la, lb);
                }
                let ca: std::collections::HashSet<i64> =
                    a.iter().map(|(_, l)| *l).filter(|&l| l >= 0).collect();
                let cb: std::collections::HashSet<i64> =
                    other.iter().map(|(_, l)| *l).filter(|&l| l >= 0).collect();
                prop_assert_eq!(ca.len(), cb.len());
            }
            match w.advance() {
                Some(batch) => {
                    WindowClusterer::apply(&mut db, &batch);
                    WindowClusterer::apply(&mut inc, &batch);
                    WindowClusterer::apply(&mut exn, &batch);
                }
                None => break,
            }
        }
    }
}
