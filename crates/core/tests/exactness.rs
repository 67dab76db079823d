//! DISC exactness: after every slide, the clustering must be equivalent to
//! running DBSCAN from scratch on the current window.
//!
//! The oracle here is a deliberately naive O(n²) DBSCAN, independent of all
//! the machinery under test (no R-tree, no incremental state).

use disc_core::{Disc, DiscConfig, PointLabel};
use disc_geom::{Point, PointId};
use disc_index::{GridIndex, SpatialBackend};
use disc_window::{datasets, Record, SlidingWindow};
use proptest::prelude::*;

/// Naive DBSCAN: returns, for every input point, `Core(comp)`,
/// `Border(comp)`, or `Noise`, where `comp` is an arbitrary but consistent
/// component number of the core graph.
fn naive_dbscan<const D: usize>(
    pts: &[(PointId, Point<D>)],
    eps: f64,
    tau: usize,
) -> Vec<(PointId, NaiveLabel)> {
    let n = pts.len();
    let mut neigh: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if pts[i].1.within(&pts[j].1, eps) {
                neigh[i].push(j); // includes i itself
            }
        }
    }
    let is_core: Vec<bool> = (0..n).map(|i| neigh[i].len() >= tau).collect();
    // Components of the core graph.
    let mut comp: Vec<Option<usize>> = vec![None; n];
    let mut next = 0usize;
    for s in 0..n {
        if !is_core[s] || comp[s].is_some() {
            continue;
        }
        let c = next;
        next += 1;
        let mut stack = vec![s];
        comp[s] = Some(c);
        while let Some(u) = stack.pop() {
            for &v in &neigh[u] {
                if is_core[v] && comp[v].is_none() {
                    comp[v] = Some(c);
                    stack.push(v);
                }
            }
        }
    }
    (0..n)
        .map(|i| {
            let label = if is_core[i] {
                NaiveLabel::Core(comp[i].unwrap())
            } else {
                // Border candidates: all clusters with a core in range.
                let mut cands: Vec<usize> = neigh[i]
                    .iter()
                    .filter(|&&j| is_core[j])
                    .map(|&j| comp[j].unwrap())
                    .collect();
                cands.sort_unstable();
                cands.dedup();
                if cands.is_empty() {
                    NaiveLabel::Noise
                } else {
                    NaiveLabel::Border(cands)
                }
            };
            (pts[i].0, label)
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
enum NaiveLabel {
    Core(usize),
    /// DBSCAN leaves multi-cluster borders ambiguous: any listed component
    /// is a legal assignment.
    Border(Vec<usize>),
    Noise,
}

/// Asserts DBSCAN-equivalence of DISC's current labelling.
fn assert_equivalent<const D: usize, B: SpatialBackend<D>>(
    disc: &Disc<D, B>,
    window: &[(PointId, Point<D>)],
) {
    let cfg = *disc.config();
    let oracle = naive_dbscan(window, cfg.eps, cfg.tau);
    let got: std::collections::BTreeMap<PointId, PointLabel> = disc.labels().into_iter().collect();
    assert_eq!(got.len(), window.len(), "window population mismatch");

    // Map DISC cluster ids <-> oracle component ids via the cores:
    // the correspondence must be a bijection.
    let mut disc_to_naive: std::collections::BTreeMap<u32, usize> = Default::default();
    let mut naive_to_disc: std::collections::BTreeMap<usize, u32> = Default::default();
    for (id, naive) in &oracle {
        let mine = got
            .get(id)
            .unwrap_or_else(|| panic!("{id} missing from DISC"));
        match (naive, mine) {
            (NaiveLabel::Core(c), PointLabel::Core(d)) => {
                if let Some(prev) = disc_to_naive.insert(d.0, *c) {
                    assert_eq!(prev, *c, "DISC cluster {d} spans oracle components");
                }
                if let Some(prev) = naive_to_disc.insert(*c, d.0) {
                    assert_eq!(prev, d.0, "oracle component {c} split across DISC ids");
                }
            }
            (NaiveLabel::Core(_), other) => {
                panic!("{id} must be a core, DISC says {other:?}")
            }
            (NaiveLabel::Border(cands), PointLabel::Border(d)) => {
                // The assigned cluster must correspond to one of the legal
                // components. (Checked after the core bijection is built,
                // see below — record for the second pass.)
                let _ = (cands, d);
            }
            (NaiveLabel::Border(_), other) => {
                panic!("{id} must be a border, DISC says {other:?}")
            }
            (NaiveLabel::Noise, PointLabel::Noise) => {}
            (NaiveLabel::Noise, other) => {
                panic!("{id} must be noise, DISC says {other:?}")
            }
        }
    }
    // Second pass: border assignments must map to a legal component.
    for (id, naive) in &oracle {
        if let NaiveLabel::Border(cands) = naive {
            if let PointLabel::Border(d) = got[id] {
                let mapped = disc_to_naive
                    .get(&d.0)
                    .unwrap_or_else(|| panic!("border {id} assigned to coreless cluster {d}"));
                assert!(
                    cands.contains(mapped),
                    "border {id} assigned to cluster {d} (oracle comp {mapped}), legal: {cands:?}"
                );
            }
        }
    }
}

fn run_stream_on<const D: usize, B: SpatialBackend<D>>(
    records: Vec<Record<D>>,
    window: usize,
    stride: usize,
    eps: f64,
    tau: usize,
    cfg_mod: impl Fn(DiscConfig) -> DiscConfig,
) {
    let mut w = SlidingWindow::new(records, window, stride);
    let mut disc: Disc<D, B> = Disc::with_index(cfg_mod(DiscConfig::new(eps, tau)));
    disc.apply(&w.fill());
    let snapshot: Vec<(PointId, Point<D>)> = w.current().collect();
    assert_equivalent(&disc, &snapshot);
    disc.check_invariants();
    while let Some(batch) = w.advance() {
        disc.apply(&batch);
        let snapshot: Vec<(PointId, Point<D>)> = w.current().collect();
        assert_equivalent(&disc, &snapshot);
        disc.check_invariants();
    }
}

fn run_stream<const D: usize>(
    records: Vec<Record<D>>,
    window: usize,
    stride: usize,
    eps: f64,
    tau: usize,
    cfg_mod: impl Fn(DiscConfig) -> DiscConfig,
) {
    run_stream_on::<D, disc_index::RTree<D>>(records, window, stride, eps, tau, cfg_mod);
}

#[test]
fn blobs_stream_is_exact() {
    let recs = datasets::gaussian_blobs::<2>(1200, 4, 0.6, 7);
    run_stream(recs, 300, 60, 1.0, 5, |c| c);
}

#[test]
fn maze_stream_is_exact() {
    let recs = datasets::maze(1500, 12, 3);
    run_stream(recs, 400, 80, 0.6, 5, |c| c);
}

#[test]
fn dtg_stream_is_exact() {
    let recs = datasets::dtg_like(1500, 5);
    run_stream(recs, 500, 100, 0.6, 4, |c| c);
}

#[test]
fn covid_stream_is_exact_with_heavy_noise() {
    let recs = datasets::covid_like(1200, 11);
    run_stream(recs, 400, 50, 1.2, 5, |c| c);
}

#[test]
fn iris_4d_stream_is_exact() {
    let recs = datasets::iris_like(900, 13);
    run_stream(recs, 300, 60, 2.0, 5, |c| c);
}

#[test]
fn geolife_3d_stream_is_exact() {
    let recs = datasets::geolife_like(900, 17);
    run_stream(recs, 300, 60, 1.0, 5, |c| c);
}

#[test]
fn exactness_holds_without_msbfs() {
    let recs = datasets::maze(1000, 10, 23);
    run_stream(recs, 300, 60, 0.6, 5, |c| c.without_msbfs());
}

#[test]
fn exactness_holds_without_epoch_probe() {
    let recs = datasets::maze(1000, 10, 29);
    run_stream(recs, 300, 60, 0.6, 5, |c| c.without_epoch_probe());
}

#[test]
fn exactness_holds_without_any_optimisation() {
    let recs = datasets::maze(1000, 10, 31);
    run_stream(recs, 300, 60, 0.6, 5, |c| {
        c.without_msbfs().without_epoch_probe()
    });
}

/// The grid backend must satisfy the same oracle lockstep as the R-tree on
/// a mixed workload (blobs + maze + heavy noise styles), slide by slide.
#[test]
fn grid_backend_blobs_stream_is_exact() {
    let recs = datasets::gaussian_blobs::<2>(1200, 4, 0.6, 7);
    run_stream_on::<2, GridIndex<2>>(recs, 300, 60, 1.0, 5, |c| c);
}

#[test]
fn grid_backend_maze_stream_is_exact() {
    let recs = datasets::maze(1500, 12, 3);
    run_stream_on::<2, GridIndex<2>>(recs, 400, 80, 0.6, 5, |c| c);
}

#[test]
fn grid_backend_covid_stream_is_exact_with_heavy_noise() {
    let recs = datasets::covid_like(1200, 11);
    run_stream_on::<2, GridIndex<2>>(recs, 400, 50, 1.2, 5, |c| c);
}

#[test]
fn grid_backend_geolife_3d_stream_is_exact() {
    let recs = datasets::geolife_like(900, 17);
    run_stream_on::<3, GridIndex<3>>(recs, 300, 60, 1.0, 5, |c| c);
}

#[test]
fn grid_backend_iris_4d_stream_is_exact() {
    let recs = datasets::iris_like(900, 13);
    run_stream_on::<4, GridIndex<4>>(recs, 300, 60, 2.0, 5, |c| c);
}

#[test]
fn grid_backend_exact_without_any_optimisation() {
    let recs = datasets::maze(1000, 10, 31);
    run_stream_on::<2, GridIndex<2>>(recs, 300, 60, 0.6, 5, |c| {
        c.without_msbfs().without_epoch_probe()
    });
}

/// Backend agreement on a fixed mixed workload: for every slide of the
/// stream, grid-backend clustering == R-tree-backend clustering (ids
/// included) == from-scratch DBSCAN (via each backend's own oracle run
/// above; here the two engines are compared directly).
#[test]
fn grid_and_rtree_backends_agree_exactly() {
    for (window, stride) in [(300, 30), (300, 150), (200, 200)] {
        let mut recs = datasets::gaussian_blobs::<2>(900, 3, 0.8, 59);
        let noise = datasets::uniform::<2>(150, 25.0, 61);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 5) % recs.len(), n);
        }
        let mut w = SlidingWindow::new(recs, window, stride);
        let mut rtree: Disc<2> = Disc::new(DiscConfig::new(0.9, 4));
        let mut grid: Disc<2, GridIndex<2>> = Disc::with_index(DiscConfig::new(0.9, 4));
        let fill = w.fill();
        rtree.apply(&fill);
        grid.apply(&fill);
        loop {
            assert_eq!(
                rtree.assignments(),
                grid.assignments(),
                "backends diverged at window={window} stride={stride}"
            );
            let snapshot: Vec<(PointId, Point<2>)> = w.current().collect();
            assert_equivalent(&grid, &snapshot);
            match w.advance() {
                Some(batch) => {
                    rtree.apply(&batch);
                    grid.apply(&batch);
                }
                None => break,
            }
        }
    }
}

#[test]
fn large_stride_full_turnover_is_exact() {
    // stride == window: every slide replaces the whole population.
    let recs = datasets::gaussian_blobs::<2>(800, 3, 0.5, 41);
    run_stream(recs, 200, 200, 1.0, 5, |c| c);
}

#[test]
fn tiny_stride_is_exact() {
    let recs = datasets::gaussian_blobs::<2>(500, 3, 0.5, 43);
    run_stream(recs, 200, 5, 1.0, 5, |c| c);
}

#[test]
fn tau_one_makes_everything_a_core() {
    let recs = datasets::uniform::<2>(300, 30.0, 3);
    run_stream(recs, 100, 20, 2.0, 1, |c| c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hard randomised case: clustered points plus noise in a small box
    /// so that clusters split and merge constantly as the window slides.
    #[test]
    fn random_streams_are_exact(
        seed in 0u64..5000,
        eps in 0.6..2.0f64,
        tau in 2usize..6,
        window in 60usize..160,
        stride_frac in 1usize..10,
        all_opts in prop::bool::ANY,
    ) {
        let stride = (window * stride_frac / 10).max(1);
        let mut recs = datasets::gaussian_blobs::<2>(400, 3, 1.0, seed);
        // Salt with uniform noise to exercise border/noise churn.
        let noise = datasets::uniform::<2>(100, 25.0, seed ^ 0xdead);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 5) % recs.len(), n);
        }
        let cfg_mod = move |c: DiscConfig| {
            if all_opts {
                c
            } else {
                c.without_msbfs().without_epoch_probe()
            }
        };
        run_stream(recs, window, stride, eps, tau, cfg_mod);
    }

    /// Random slide sequences must produce identical clusterings and
    /// identical ex-/neo-core counts under the R-tree and grid backends —
    /// the backends answer the same queries, so every density decision
    /// must coincide. Assignments are compared after canonical cluster
    /// renumbering (first appearance in ascending id order): internal
    /// cluster-id *allocation* order legitimately varies with hash-set
    /// iteration, but the induced partition may not.
    #[test]
    fn backends_agree_on_random_streams(
        seed in 0u64..5000,
        eps in 0.6..2.0f64,
        tau in 2usize..6,
        window in 60usize..160,
        stride_frac in 1usize..10,
    ) {
        let stride = (window * stride_frac / 10).max(1);
        let mut recs = datasets::gaussian_blobs::<2>(400, 3, 1.0, seed);
        let noise = datasets::uniform::<2>(100, 25.0, seed ^ 0xdead);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 5) % recs.len(), n);
        }
        let mut w = SlidingWindow::new(recs, window, stride);
        let mut rtree: Disc<2> = Disc::new(DiscConfig::new(eps, tau));
        let mut grid: Disc<2, GridIndex<2>> = Disc::with_index(DiscConfig::new(eps, tau));
        let fill = w.fill();
        let sa = rtree.apply(&fill);
        let sb = grid.apply(&fill);
        prop_assert_eq!(sa.ex_cores, sb.ex_cores);
        prop_assert_eq!(sa.neo_cores, sb.neo_cores);
        prop_assert_eq!(
            canonical(&rtree.assignments()),
            canonical(&grid.assignments())
        );
        while let Some(batch) = w.advance() {
            let sa = rtree.apply(&batch);
            let sb = grid.apply(&batch);
            prop_assert_eq!(sa.ex_cores, sb.ex_cores, "ex-cores diverged (seed {})", seed);
            prop_assert_eq!(sa.neo_cores, sb.neo_cores, "neo-cores diverged (seed {})", seed);
            prop_assert_eq!(
                canonical(&rtree.assignments()),
                canonical(&grid.assignments()),
                "partitions diverged (seed {})", seed
            );
        }
    }
}

/// CLUSTER reads the ε-balls COLLECT already enumerated (and debug builds
/// check each against a fresh search). A 3-D stream with noise, on both
/// backends: the balls of departed cores and arriving neo-cores in three
/// dimensions must give the oracle's clustering slide by slide.
#[test]
fn ball_reuse_is_exact_on_a_3d_stream() {
    let mut recs = datasets::gaussian_blobs::<3>(1500, 4, 0.7, 23);
    let noise = datasets::uniform::<3>(300, 20.0, 29);
    for (i, n) in noise.into_iter().enumerate() {
        recs.insert((i * 5) % recs.len(), n);
    }
    run_stream(recs.clone(), 400, 100, 1.0, 5, |c| c);
    run_stream_on::<3, GridIndex<3>>(recs, 400, 100, 1.0, 5, |c| c);
}

/// A slide whose Δin and Δout share ids records no balls: CLUSTER falls
/// back to fresh searches. Here departing noise points re-enter under
/// their own ids at new positions, next to fresh arrivals, and the result
/// must match the oracle after every slide.
#[test]
fn ball_reuse_falls_back_when_ids_depart_and_arrive_at_once() {
    let mut recs = datasets::gaussian_blobs::<2>(1600, 3, 0.8, 31);
    let noise = datasets::uniform::<2>(400, 25.0, 37);
    for (i, n) in noise.into_iter().enumerate() {
        recs.insert((i * 4) % recs.len(), n);
    }
    let positions: Vec<Point<2>> = recs.iter().map(|r| r.point).collect();
    let (window, stride) = (300, 60);
    let mut disc: Disc<2> = Disc::new(DiscConfig::new(0.9, 4));
    // Oldest first, as a sliding window holds them.
    let mut live: std::collections::VecDeque<(PointId, Point<2>)> = positions[..window]
        .iter()
        .enumerate()
        .map(|(i, p)| (PointId(i as u64), *p))
        .collect();
    disc.apply(&disc_window::SlideBatch {
        incoming: live.iter().copied().collect(),
        outgoing: Vec::new(),
    });
    let (mut next, mut next_id) = (window, window as u64);
    let mut shared = 0;
    while next + stride <= positions.len() {
        let outgoing: Vec<(PointId, Point<2>)> = live.drain(..stride).collect();
        let mut incoming = Vec::with_capacity(stride);
        for (id, _) in &outgoing {
            let id = if disc.label_of(*id) == Some(PointLabel::Noise) {
                shared += 1;
                *id
            } else {
                next_id += 1;
                PointId(next_id)
            };
            incoming.push((id, positions[next]));
            next += 1;
        }
        live.extend(incoming.iter().copied());
        disc.apply(&disc_window::SlideBatch { incoming, outgoing });
        let snapshot: Vec<(PointId, Point<2>)> = live.iter().copied().collect();
        assert_equivalent(&disc, &snapshot);
        disc.check_invariants();
    }
    assert!(shared > 0, "no slide re-admitted a departing id");
}

/// Renumbers cluster ids by first appearance in ascending point-id order;
/// noise stays `-1`. Two assignment vectors are canonically equal iff they
/// induce the same partition with the same noise set.
fn canonical(assignments: &[(PointId, i64)]) -> Vec<(PointId, i64)> {
    let mut rename: std::collections::BTreeMap<i64, i64> = Default::default();
    assignments
        .iter()
        .map(|&(id, l)| {
            if l < 0 {
                (id, -1)
            } else {
                let next = rename.len() as i64;
                (id, *rename.entry(l).or_insert(next))
            }
        })
        .collect()
}

/// Regression: one previous cluster cut by several disjoint ex-core classes
/// in a single slide. Per-class connectivity checks each let their own
/// survivor keep the old cluster id, leaving two now-disconnected fragments
/// with the same id; the fix pools the M⁻ sets per previous cluster.
/// (Found by `random_streams_are_exact` at this exact configuration.)
#[test]
fn multi_class_split_keeps_one_survivor() {
    let seed = 1035u64;
    let mut recs = datasets::gaussian_blobs::<2>(400, 3, 1.0, seed);
    let noise = datasets::uniform::<2>(100, 25.0, seed ^ 0xdead);
    for (i, n) in noise.into_iter().enumerate() {
        recs.insert((i * 5) % recs.len(), n);
    }
    run_stream(recs.clone(), 135, 81, 0.6, 2, |c| {
        c.without_msbfs().without_epoch_probe()
    });
    run_stream(recs, 135, 81, 0.6, 2, |c| c);
}

/// DISC under the TIME-based window model (§II-B): bursty arrival rates
/// make slide populations swing wildly; exactness must hold regardless.
#[test]
fn time_based_window_is_exact() {
    use disc_window::timewindow::{stamp_with_gaps, TimeWindow};
    let recs = datasets::gaussian_blobs::<2>(900, 3, 0.6, 51);
    // Bursty: mostly 1-unit gaps with occasional long silences and bursts.
    let stamped = stamp_with_gaps(recs, &[1.0, 1.0, 0.05, 0.05, 0.05, 7.0, 1.0]);
    let mut w = TimeWindow::new(stamped, 120.0, 17.0);
    let mut disc = Disc::new(DiscConfig::new(1.0, 5));
    disc.apply(&w.fill());
    loop {
        let snapshot: Vec<(PointId, Point<2>)> = w.current().collect();
        assert_equivalent(&disc, &snapshot);
        disc.check_invariants();
        match w.advance() {
            Some(batch) => {
                disc.apply(&batch);
            }
            None => break,
        }
    }
}

/// Density-contrast stress: blobs whose densities differ by an order of
/// magnitude cause splits/dissipations at very different rates; exactness
/// must hold at a single (ε, τ) regardless.
#[test]
fn multi_density_stream_is_exact() {
    let recs = datasets::multi_density::<2>(1200, 3, 47);
    run_stream(recs, 400, 80, 0.8, 4, |c| c);
}

/// The materialised-graph strawman must stay in lockstep with DISC on
/// randomised streams (noise flags and cluster counts per slide).
#[test]
fn graph_disc_matches_disc_on_random_streams() {
    use disc_core::GraphDisc;
    for seed in [7u64, 1035, 4242] {
        let mut recs = datasets::gaussian_blobs::<2>(600, 3, 1.0, seed);
        let noise = datasets::uniform::<2>(150, 25.0, seed ^ 0xbeef);
        for (i, n) in noise.into_iter().enumerate() {
            recs.insert((i * 5) % recs.len(), n);
        }
        let mut w = SlidingWindow::new(recs, 200, 40);
        let mut a = Disc::new(DiscConfig::new(0.9, 3));
        let mut b = GraphDisc::new(DiscConfig::new(0.9, 3));
        let fill = w.fill();
        a.apply(&fill);
        b.apply(&fill);
        loop {
            let la = a.assignments();
            let lb = b.assignments();
            assert_eq!(la.len(), lb.len());
            for ((ida, x), (idb, y)) in la.iter().zip(lb.iter()) {
                assert_eq!(ida, idb);
                assert_eq!(*x < 0, *y < 0, "seed {seed}: {ida} noise flag");
            }
            let ca: std::collections::HashSet<i64> =
                la.iter().map(|(_, l)| *l).filter(|&l| l >= 0).collect();
            let cb: std::collections::HashSet<i64> =
                lb.iter().map(|(_, l)| *l).filter(|&l| l >= 0).collect();
            assert_eq!(ca.len(), cb.len(), "seed {seed}: cluster count");
            match w.advance() {
                Some(batch) => {
                    a.apply(&batch);
                    b.apply(&batch);
                }
                None => break,
            }
        }
    }
}
