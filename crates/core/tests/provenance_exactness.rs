//! Provenance exactness: the causal event stream must agree with a
//! from-scratch DBSCAN diff of consecutive windows.
//!
//! The oracle is deliberately naive — O(n²) neighbourhood counts over the
//! mirrored window, no incremental state — so the events are checked
//! against the *definitions* (Def. 1 ex-core, Def. 2 neo-core), not
//! against the machinery that emitted them.

use disc_core::{Disc, DiscConfig};
use disc_geom::{Point, PointId};
use disc_telemetry::{JsonlRecord, MemorySink, ProvenanceEvent, ProvenanceKind, Registry};
use disc_window::{datasets, SlideBatch, SlidingWindow};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn instrumented(cfg: DiscConfig) -> (Disc<2>, Arc<MemorySink<ProvenanceEvent>>) {
    let sink = Arc::new(MemorySink::new());
    let reg = Arc::new(Registry::new().with_provenance(Box::new(sink.clone())));
    (Disc::new(cfg).with_recorder(reg), sink)
}

/// Self-inclusive ε-neighbourhood counts → the core set of `window`.
fn core_set(window: &BTreeMap<PointId, Point<2>>, eps: f64, tau: usize) -> BTreeSet<PointId> {
    window
        .iter()
        .filter(|(_, p)| window.values().filter(|q| p.within(q, eps)).count() >= tau)
        .map(|(id, _)| *id)
        .collect()
}

/// Number of connected components of the core graph (cluster count).
fn component_count(window: &BTreeMap<PointId, Point<2>>, eps: f64, tau: usize) -> usize {
    let cores: Vec<(PointId, Point<2>)> = core_set(window, eps, tau)
        .into_iter()
        .map(|id| (id, window[&id]))
        .collect();
    let mut comp: Vec<Option<usize>> = vec![None; cores.len()];
    let mut next = 0;
    for s in 0..cores.len() {
        if comp[s].is_some() {
            continue;
        }
        comp[s] = Some(next);
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for v in 0..cores.len() {
                if comp[v].is_none() && cores[u].1.within(&cores[v].1, eps) {
                    comp[v] = Some(next);
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    next
}

fn mirror(window: &mut BTreeMap<PointId, Point<2>>, batch: &SlideBatch<2>) {
    for (id, _) in &batch.outgoing {
        window.remove(id);
    }
    for (id, p) in &batch.incoming {
        window.insert(*id, *p);
    }
}

/// Drives one slide and checks the slide's events against the oracle diff.
fn check_slide(
    disc: &mut Disc<2>,
    sink: &MemorySink<ProvenanceEvent>,
    window: &mut BTreeMap<PointId, Point<2>>,
    batch: &SlideBatch<2>,
    slide: u64,
) {
    let cfg = *disc.config();
    let (eps, tau) = (cfg.eps, cfg.tau);
    let cores_before = core_set(window, eps, tau);
    mirror(window, batch);
    let cores_after = core_set(window, eps, tau);
    disc.apply(batch);

    let events: Vec<ProvenanceEvent> = sink
        .events()
        .into_iter()
        .filter(|e| e.slide == slide)
        .collect();
    let mut got_ex = BTreeSet::new();
    let mut got_neo = BTreeSet::new();
    for e in &events {
        ProvenanceEvent::validate_jsonl(&e.to_jsonl()).unwrap();
        match e.kind {
            ProvenanceKind::ExCoreDetected { id } => {
                assert!(got_ex.insert(PointId(id)), "duplicate ex-core event {id}");
            }
            ProvenanceKind::NeoCoreDetected { id } => {
                assert!(got_neo.insert(PointId(id)), "duplicate neo-core event {id}");
            }
            ProvenanceKind::Adoption { border, core } => {
                // An adoption must bind a window non-core to an in-range
                // core of the *new* window.
                let (b, c) = (PointId(border), PointId(core));
                assert!(!cores_after.contains(&b), "adopted point {b} is a core");
                assert!(cores_after.contains(&c), "adopter {c} is not a core");
                assert!(
                    window[&b].within(&window[&c], eps),
                    "adopter {c} out of range of {b}"
                );
            }
            _ => {}
        }
    }
    // Def. 1 / Def. 2, computed from scratch on both windows.
    let want_ex: BTreeSet<PointId> = cores_before.difference(&cores_after).copied().collect();
    let want_neo: BTreeSet<PointId> = cores_after.difference(&cores_before).copied().collect();
    assert_eq!(got_ex, want_ex, "slide {slide}: ex-core set diverged");
    assert_eq!(got_neo, want_neo, "slide {slide}: neo-core set diverged");

    // Event counts line up with the slide's own stats, and the engine's
    // cluster count with the oracle's component count.
    let count =
        |pred: &dyn Fn(&ProvenanceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let s = *disc.last_stats();
    assert_eq!(
        count(&|k| matches!(k, ProvenanceKind::ClusterSplit { .. })),
        s.splits,
        "slide {slide}"
    );
    assert_eq!(
        count(&|k| matches!(k, ProvenanceKind::ClusterMerge { .. })),
        s.merges,
        "slide {slide}"
    );
    assert_eq!(
        count(&|k| matches!(k, ProvenanceKind::ClusterEmerged { .. })),
        s.emerged,
        "slide {slide}"
    );
    assert_eq!(
        disc.num_clusters(),
        component_count(window, eps, tau),
        "slide {slide}: cluster count diverged from the oracle"
    );
}

#[test]
fn stream_events_match_the_oracle_diff() {
    for (records, w, s, eps, tau) in [
        (datasets::maze(900, 10, 3), 250, 60, 0.6, 5),
        (
            datasets::gaussian_blobs::<2>(900, 3, 0.6, 9),
            220,
            220,
            1.0,
            5,
        ),
        (datasets::covid_like(800, 11), 250, 70, 1.2, 5),
    ] {
        let (mut disc, sink) = instrumented(DiscConfig::new(eps, tau));
        let mut sw = SlidingWindow::new(records, w, s);
        let mut window = BTreeMap::new();
        let mut slide = 1u64;
        check_slide(&mut disc, &sink, &mut window, &sw.fill(), slide);
        while let Some(batch) = sw.advance() {
            slide += 1;
            check_slide(&mut disc, &sink, &mut window, &batch, slide);
        }
        assert!(slide > 3, "stream too short to exercise evolution");
    }
}

/// A scripted stream whose every evolution step is known in advance: the
/// narrative must name the specific ex-/neo-cores behind each transition.
#[test]
fn crafted_stream_names_the_causes() {
    let b = |incoming: &[(u64, f64)], outgoing: &[(u64, f64)]| SlideBatch::<2> {
        incoming: incoming
            .iter()
            .map(|&(i, x)| (PointId(i), Point::new([x, 0.0])))
            .collect(),
        outgoing: outgoing
            .iter()
            .map(|&(i, x)| (PointId(i), Point::new([x, 0.0])))
            .collect(),
    };
    let (mut disc, sink) = instrumented(DiscConfig::new(0.6, 3));
    let by_slide = |sink: &MemorySink<ProvenanceEvent>, s: u64| -> Vec<ProvenanceKind> {
        sink.events()
            .into_iter()
            .filter(|e| e.slide == s)
            .map(|e| e.kind)
            .collect()
    };

    // Slide 1: a 9-point line emerges as one cluster.
    let line: Vec<(u64, f64)> = (0..9).map(|i| (i, i as f64 * 0.5)).collect();
    disc.apply(&b(&line, &[]));
    let evs = by_slide(&sink, 1);
    assert_eq!(
        evs.iter()
            .filter(|k| matches!(k, ProvenanceKind::ClusterEmerged { .. }))
            .count(),
        1
    );

    // Slide 2: the bridge departs; the split names ex-cores 3, 4, 5.
    disc.apply(&b(&[], &[(4, 2.0)]));
    let evs = by_slide(&sink, 2);
    let ex: BTreeSet<u64> = evs
        .iter()
        .filter_map(|k| match k {
            ProvenanceKind::ExCoreDetected { id } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(ex, BTreeSet::from([3, 4, 5]));
    assert!(evs
        .iter()
        .any(|k| matches!(k, ProvenanceKind::ClusterSplit { parts: 2, .. })));
    assert!(evs
        .iter()
        .any(|k| matches!(k, ProvenanceKind::RetroClassFormed { .. })));

    // Slide 3: the bridge returns; the merge names neo-cores 3, 4, 5.
    disc.apply(&b(&[(14, 2.0)], &[]));
    let evs = by_slide(&sink, 3);
    let neo: BTreeSet<u64> = evs
        .iter()
        .filter_map(|k| match k {
            ProvenanceKind::NeoCoreDetected { id } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(neo, BTreeSet::from([3, 5, 14]));
    assert!(evs
        .iter()
        .any(|k| matches!(k, ProvenanceKind::ClusterMerge { merged: 2, .. })));

    // Slide 4: a far triangle emerges as its own cluster. (Pairwise
    // distances 0.25/0.25/0.5 keep every pair strictly inside ε = 0.6 —
    // no float-boundary coin flips.)
    disc.apply(&b(&[(20, 50.0), (21, 50.25), (22, 50.5)], &[]));
    let evs = by_slide(&sink, 4);
    let emerged: Vec<u64> = evs
        .iter()
        .filter_map(|k| match k {
            ProvenanceKind::ClusterEmerged { size, .. } => Some(*size),
            _ => None,
        })
        .collect();
    assert_eq!(emerged, vec![3], "one emergence of exactly the triangle");

    // Slide 5: the triangle departs entirely — the cluster dies, and its
    // retro class counts all three ex-cores.
    disc.apply(&b(&[], &[(20, 50.0), (21, 50.25), (22, 50.5)]));
    let evs = by_slide(&sink, 5);
    let died: Vec<u64> = evs
        .iter()
        .filter_map(|k| match k {
            ProvenanceKind::ClusterDied { size, .. } => Some(*size),
            _ => None,
        })
        .collect();
    assert_eq!(died, vec![3], "one dissipation covering the whole triangle");
    assert_eq!(disc.num_clusters(), 1, "only the line remains");
}
