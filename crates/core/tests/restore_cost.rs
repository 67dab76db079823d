//! A restored engine must slide at live cost. `from_state` rebuilds the
//! spatial index from scratch, so its first slides run on a freshly packed
//! tree while the live engine's tree has been shaped by many slides of
//! churn. A poorly packed rebuild shows up as restored slides that make
//! far more distance checks than the live engine's (packing along one
//! axis makes 1.68× here; Sort-Tile-Recursive packing makes 1.15×).

use disc_core::{Disc, DiscConfig};
use disc_window::{datasets, SlidingWindow};

#[test]
fn restored_rtree_engine_slides_at_live_cost() {
    // The benchmark's maze shape: w=16 000, s=800, ε=0.6, τ=6.
    let recs = datasets::maze(16_000 + 40 * 800, 60, 1);
    let mut w = SlidingWindow::new(recs, 16_000, 800);
    let cfg = DiscConfig {
        threads: 1,
        ..DiscConfig::new(0.6, 6)
    };
    let mut live: Disc<2> = Disc::with_index(cfg);
    live.apply(&w.fill());
    // Enough churn that the live tree is no longer the one the fill built.
    for _ in 0..30 {
        live.apply(&w.advance().expect("stream outlasts the churn"));
    }
    let mut restored: Disc<2> = Disc::from_state(live.export_state()).unwrap();

    // Summed over several slides: a single slide's count swings with the
    // leaves its batch happens to hit (1.0–1.5× between a packed and a
    // churned tree of the same window).
    let (mut live_checks, mut restored_checks) = (0u64, 0u64);
    for _ in 0..8 {
        let batch = w.advance().expect("stream outlasts the churn");
        for (disc, checks) in [
            (&mut live, &mut live_checks),
            (&mut restored, &mut restored_checks),
        ] {
            let before = disc.index_stats().distance_checks;
            disc.apply(&batch);
            *checks += disc.index_stats().distance_checks - before;
        }
        assert_eq!(restored.assignments(), live.assignments());
    }
    assert!(
        restored_checks as f64 <= 1.25 * live_checks as f64,
        "restored slides made {restored_checks} distance checks, live {live_checks}"
    );
}
