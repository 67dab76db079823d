//! `try_apply` atomicity: a rejected slide must leave the engine exactly
//! as it was — assignments, cluster count, census, index statistics, the
//! full exported state image — for every rejection kind and both index
//! backends, and the engine must keep working normally afterwards.

use disc_core::{Disc, DiscConfig, SlideError};
use disc_geom::{Point, PointId};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_window::{datasets, SlideBatch, SlidingWindow};
use proptest::prelude::*;

/// Everything observable about an engine, captured for comparison.
type Observation<const D: usize> = (
    Vec<(PointId, i64)>,
    usize,
    (usize, usize, usize),
    disc_index::Stats,
    Vec<(Point<D>, i64)>,
    disc_core::EngineState<D>,
);

fn observe<const D: usize, B: SpatialBackend<D>>(disc: &Disc<D, B>) -> Observation<D> {
    (
        disc.assignments(),
        disc.num_clusters(),
        disc.census(),
        *disc.index_stats(),
        disc.snapshot(),
        disc.export_state(),
    )
}

/// Builds the four kinds of invalid batch against a live engine. Each
/// also carries valid incoming *and* outgoing entries, so a non-atomic
/// implementation that mutates before validating would be caught.
fn poison_batches<const D: usize, B: SpatialBackend<D>>(
    disc: &Disc<D, B>,
    kind: usize,
) -> (SlideBatch<D>, SlideError) {
    let first = disc.export_state().points[0];
    let (victim_id, victim_pt) = (first.id, first.point);
    let fresh_a = PointId(1_000_000);
    let fresh_b = PointId(1_000_001);
    let mut near = victim_pt;
    near[0] += 0.1;
    match kind {
        0 => {
            let mut bad = near;
            bad[0] = f64::NAN;
            (
                SlideBatch {
                    incoming: vec![(fresh_a, near), (fresh_b, bad)],
                    outgoing: vec![(victim_id, victim_pt)],
                },
                SlideError::NonFinite(fresh_b),
            )
        }
        1 => (
            SlideBatch {
                incoming: vec![(fresh_a, near), (fresh_a, near)],
                outgoing: vec![(victim_id, victim_pt)],
            },
            SlideError::DuplicateIncoming(fresh_a),
        ),
        2 => {
            let ghost = PointId(2_000_000);
            (
                SlideBatch {
                    incoming: vec![(fresh_a, near)],
                    outgoing: vec![(victim_id, victim_pt), (ghost, victim_pt)],
                },
                SlideError::UnknownOutgoing(ghost),
            )
        }
        _ => {
            // A core departs and its id re-enters at once.
            let core = disc
                .export_state()
                .points
                .into_iter()
                .find(|p| disc.is_core(p.id))
                .expect("the window holds a core");
            let mut moved = core.point;
            moved[0] += 0.1;
            (
                SlideBatch {
                    incoming: vec![(fresh_a, near), (core.id, moved)],
                    outgoing: vec![(core.id, core.point)],
                },
                SlideError::ReenteringCore(core.id),
            )
        }
    }
}

fn assert_rejection_is_atomic<const D: usize, B: SpatialBackend<D>>(seed: u64, kind: usize) {
    let recs = datasets::gaussian_blobs::<D>(260, 3, 0.8, seed);
    let mut w = SlidingWindow::new(recs, 140, 30);
    let mut disc: Disc<D, B> = Disc::with_index(DiscConfig::new(1.0, 4));
    disc.apply(&w.fill());
    disc.apply(&w.advance().unwrap());

    let before = observe(&disc);
    let (batch, expected) = poison_batches(&disc, kind);
    match disc.try_apply(&batch) {
        Err(e) => assert_eq!(e, expected, "seed {seed} kind {kind}"),
        Ok(_) => panic!("seed {seed} kind {kind}: poisoned batch accepted"),
    }
    let after = observe(&disc);
    assert_eq!(
        before, after,
        "seed {seed} kind {kind}: rejection mutated state"
    );

    // The engine still works: the next valid slide applies cleanly.
    let next = w.advance().unwrap();
    disc.try_apply(&next)
        .expect("engine unusable after a rejected slide");
    disc.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rejected_slides_leave_no_trace_on_rtree(seed in 0u64..2000, kind in 0usize..4) {
        assert_rejection_is_atomic::<2, RTree<2>>(seed, kind);
    }

    #[test]
    fn rejected_slides_leave_no_trace_on_grid(seed in 0u64..2000, kind in 0usize..4) {
        assert_rejection_is_atomic::<2, GridIndex<2>>(seed, kind);
    }
}

/// All four rejection kinds, deterministically, in 3-d as well.
#[test]
fn all_rejection_kinds_are_atomic_in_3d() {
    for kind in 0..4 {
        assert_rejection_is_atomic::<3, RTree<3>>(99, kind);
        assert_rejection_is_atomic::<3, GridIndex<3>>(99, kind);
    }
}
