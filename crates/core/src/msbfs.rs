//! Connectivity checking over the (non-materialised) core graph.
//!
//! Whether an ex-core splits its cluster reduces to: are the minimal
//! bonding cores `M⁻` still density-connected in the current window? The
//! vertices of the graph are the current core points, edges are ε-proximity,
//! and edges are discovered by range searches — the paper deliberately does
//! *not* materialise the graph (Ω(n²) maintenance).
//!
//! Four strategies are provided, selected by [`DiscConfig`]'s two toggles
//! (the Fig. 8 ablation grid):
//!
//! * **MS-BFS** (§IV-A, Alg. 3): one BFS per starter, advanced round-robin;
//!   searches that meet merge their queues (tracked in a thread union-find).
//!   Terminates as soon as one search remains — a *shrink* is confirmed
//!   after exploring only the region between the starters, not the whole
//!   cluster. Before any probe, starters within ε of each other are linked
//!   into groups: such a pair of cores shares a core-graph edge, so the
//!   merge their threads' first probes would find is already certain. One
//!   group answers the check with no index work at all; otherwise each
//!   group runs as one thread, all its members pre-marked and queued.
//! * **sequential BFS** (ablation): full single-source BFS per component.
//! * each of the above with or without **epoch-based probing** of the
//!   R-tree (visited marks in the index vs. a side hash set).
//!
//! [`DiscConfig`]: crate::DiscConfig

use crate::dsu::Dsu;
use crate::engine::Disc;
use disc_geom::{FxHashMap, Point, PointId};
use disc_index::{ProbeOutcome, SpatialBackend};
use std::collections::VecDeque;

/// Result of a connectivity check over a starter set.
#[derive(Debug)]
pub struct Connectivity {
    /// Number of connected components among the starters.
    pub ncc: usize,
    /// Fully-enumerated components that must be relabelled with fresh
    /// cluster ids. The surviving component (which keeps the old id) is
    /// *not* listed — MS-BFS never fully explores it. Lists may contain a
    /// few duplicate ids; relabelling is idempotent.
    pub detached: Vec<Vec<PointId>>,
    /// A representative core of the surviving component (used by the
    /// cross-class split fixup, see `cluster.rs`).
    pub survivor_rep: PointId,
    /// Queue expansions (vertex pops) this check performed, under the
    /// *same* accounting for every strategy: each dequeued vertex counts
    /// once, whether popped by a round-robin MS-BFS thread or a sequential
    /// BFS. Identical inputs explored to completion therefore report
    /// identical rounds across strategies (early termination is the only
    /// legitimate source of divergence), which is what makes the Fig. 8
    /// ablation numbers comparable. The telemetry layer aggregates these
    /// per slide.
    pub rounds: usize,
}

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Checks how many connected components of the current core graph the
    /// `starters` fall into, dispatching on the configured strategy.
    ///
    /// `starters` must be current core points, pairwise distinct. CLUSTER
    /// checks only starter sets of two or more; MS-BFS answers a single
    /// starter, like any set of linked starters, with no index work.
    pub(crate) fn check_connectivity(&mut self, starters: &[PointId]) -> Connectivity {
        debug_assert!(!starters.is_empty());
        match (self.cfg.enable_msbfs, self.cfg.enable_epoch_probe) {
            (true, true) => self.msbfs(starters, true),
            (true, false) => self.msbfs(starters, false),
            (false, true) => self.sequential_bfs(starters, true),
            (false, false) => self.sequential_bfs(starters, false),
        }
    }

    /// Multi-starter BFS (Alg. 3). `use_epoch` selects the probing flavour.
    ///
    /// Starters within ε of each other are grouped first (see
    /// [`link_starters`]): one group means the check is already answered,
    /// with no index work at all; otherwise each group runs as one thread.
    fn msbfs(&mut self, starters: &[PointId], use_epoch: bool) -> Connectivity {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        let centers: Vec<Point<D>> = starters.iter().map(|&s| self.points.point_at(s)).collect();
        let (group_of, groups) = link_starters(&centers, eps);
        if groups == 1 {
            return Connectivity {
                ncc: 1,
                detached: Vec::new(),
                survivor_rep: starters[0],
                rounds: 0,
            };
        }

        let mut threads = Dsu::new();
        let mut queues: Vec<VecDeque<PointId>> = vec![VecDeque::new(); groups];
        let mut visited: Vec<Vec<PointId>> = vec![Vec::new(); groups];
        for _ in 0..groups {
            threads.alloc();
        }
        // Side ownership map for the non-epoch flavour.
        let mut owner_of: FxHashMap<PointId, u32> = FxHashMap::default();

        let probe = if use_epoch {
            Some(self.tree.begin_epoch())
        } else {
            None
        };
        for ((&s, center), &t) in starters.iter().zip(&centers).zip(&group_of) {
            queues[t as usize].push_back(s);
            visited[t as usize].push(s);
            // Starters count as visited from the outset (Alg. 3 line 4):
            // the first probe that reaches a foreign starter merges the two
            // searches without that starter ever probing on its own.
            match probe {
                Some(probe) => {
                    let marked = self.tree.mark_visited(probe, center, s, t);
                    debug_assert!(marked, "starter {s} missing from the index");
                }
                None => {
                    owner_of.insert(s, t);
                }
            }
        }
        let mut out = ProbeOutcome::default();
        let mut plain_hits: Vec<PointId> = Vec::new();

        let mut active: Vec<u32> = (0..groups as u32).collect();
        let mut detached: Vec<Vec<PointId>> = Vec::new();
        let mut rounds = 0usize;

        while active.len() > 1 {
            let mut made_progress = false;
            let mut slot_idx = 0;
            while slot_idx < active.len() {
                if active.len() <= 1 {
                    break;
                }
                let t = active[slot_idx];
                // The slot may have been merged into another active root
                // during this round.
                if threads.find(t) != t {
                    active.swap_remove(slot_idx);
                    continue;
                }
                let Some(r) = queues[t as usize].pop_front() else {
                    // Exhausted: this thread fully enumerated a component
                    // that detaches from the cluster (Alg. 3 line 6).
                    detached.push(std::mem::take(&mut visited[t as usize]));
                    active.swap_remove(slot_idx);
                    continue;
                };
                rounds += 1;
                made_progress = true;

                let center = self.points.point_at(r);
                let mut merge_with: Vec<u32> = Vec::new();

                if let Some(probe) = probe {
                    out.clear();
                    let points = &self.points;
                    let threads_ref = &mut threads;
                    let mut is_vertex =
                        |id: PointId| points.meta_of(id).is_some_and(|m| m.is_core(tau));
                    let mut resolve = |o: u32| threads_ref.find(o);
                    self.tree.epoch_probe(
                        probe,
                        &center,
                        eps,
                        t,
                        &mut resolve,
                        &mut is_vertex,
                        &mut out,
                    );
                    for &(id, _) in &out.fresh {
                        visited[t as usize].push(id);
                        queues[t as usize].push_back(id);
                    }
                    for &(_, other) in &out.foreign {
                        merge_with.push(other);
                    }
                } else {
                    plain_hits.clear();
                    let points = &self.points;
                    self.tree.for_each_in_ball(&center, eps, |id, _| {
                        if points.meta_of(id).is_some_and(|m| m.is_core(tau)) {
                            plain_hits.push(id);
                        }
                    });
                    for &id in &plain_hits {
                        match owner_of.get(&id) {
                            None => {
                                owner_of.insert(id, t);
                                visited[t as usize].push(id);
                                queues[t as usize].push_back(id);
                            }
                            Some(&o) => {
                                if threads.find(o) != threads.find(t) {
                                    merge_with.push(o);
                                }
                            }
                        }
                    }
                }

                // Merge the threads that met (Alg. 3 lines 10-11).
                for other in merge_with {
                    let ra = threads.find(t);
                    let rb = threads.find(other);
                    if ra == rb {
                        continue;
                    }
                    let winner = threads.union(ra, rb);
                    let loser = if winner == ra { rb } else { ra };
                    let q = std::mem::take(&mut queues[loser as usize]);
                    queues[winner as usize].extend(q);
                    let v = std::mem::take(&mut visited[loser as usize]);
                    visited[winner as usize].extend(v);
                }
                // `t` may have lost its root status in the merge.
                if threads.find(t) != t {
                    active.swap_remove(slot_idx);
                } else {
                    slot_idx += 1;
                }
            }
            debug_assert!(
                made_progress || active.len() <= 1,
                "MS-BFS made no progress with multiple active threads"
            );
        }

        // Exactly one thread survives the loop; any of its starters
        // represents the surviving component.
        let root = threads.find(active[0]);
        let survivor_rep = visited[root as usize][0];
        Connectivity {
            ncc: detached.len() + 1,
            detached,
            survivor_rep,
            rounds,
        }
    }

    /// Ablation baseline: full single-source BFS per component, no early
    /// termination. The first component found keeps the old cluster id.
    fn sequential_bfs(&mut self, starters: &[PointId], use_epoch: bool) -> Connectivity {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        let probe = if use_epoch {
            Some(self.tree.begin_epoch())
        } else {
            None
        };
        let mut seen: FxHashMap<PointId, ()> = FxHashMap::default();
        let mut components: Vec<Vec<PointId>> = Vec::new();
        let mut out = ProbeOutcome::default();
        let mut plain_hits: Vec<PointId> = Vec::new();
        let mut threads = Dsu::new(); // one slot per component for the probe
        let mut rounds = 0usize;

        for &s in starters {
            if seen.contains_key(&s) {
                continue;
            }
            let slot = threads.alloc();
            let mut comp = vec![s];
            seen.insert(s, ());
            // Pre-mark the starter, exactly as `msbfs` does (Alg. 3
            // line 4): without this its own first probe reports it fresh,
            // re-enqueues it, and pays one extra pop plus one extra range
            // search per component.
            if let Some(probe) = probe {
                let marked = self
                    .tree
                    .mark_visited(probe, &self.points.point_at(s), s, slot);
                debug_assert!(marked, "starter {s} missing from the index");
            }
            let mut queue: VecDeque<PointId> = VecDeque::new();
            queue.push_back(s);
            while let Some(r) = queue.pop_front() {
                rounds += 1;
                let center = self.points.point_at(r);
                if let Some(probe) = probe {
                    out.clear();
                    let points = &self.points;
                    let mut is_vertex =
                        |id: PointId| points.meta_of(id).is_some_and(|m| m.is_core(tau));
                    let mut resolve = |o: u32| o;
                    self.tree.epoch_probe(
                        probe,
                        &center,
                        eps,
                        slot,
                        &mut resolve,
                        &mut is_vertex,
                        &mut out,
                    );
                    debug_assert!(
                        out.foreign.is_empty(),
                        "maximal components cannot touch each other"
                    );
                    for &(id, _) in &out.fresh {
                        seen.insert(id, ());
                        comp.push(id);
                        queue.push_back(id);
                    }
                } else {
                    plain_hits.clear();
                    let points = &self.points;
                    self.tree.for_each_in_ball(&center, eps, |id, _| {
                        if points.meta_of(id).is_some_and(|m| m.is_core(tau)) {
                            plain_hits.push(id);
                        }
                    });
                    for &id in &plain_hits {
                        if seen.insert(id, ()).is_none() {
                            comp.push(id);
                            queue.push_back(id);
                        }
                    }
                }
            }
            components.push(comp);
        }

        let ncc = components.len();
        let survivor_rep = components[0][0];
        // Keep the old id for the first component; relabel the rest.
        let detached = components.split_off(1);
        Connectivity {
            ncc,
            detached,
            survivor_rep,
            rounds,
        }
    }
}

/// Groups MS-BFS starters by their direct ε-links, returning each
/// starter's group and the number of groups. Groups are numbered in order
/// of their first starter.
///
/// Two starters within ε of each other are both current cores, so they
/// share an edge of the core graph: the merge MS-BFS's first probes would
/// find between their threads is certain before any probe runs. The links
/// are found by a sweep along the axis where the starters spread widest,
/// comparing only pairs closer than ε on that axis, and linking stops as
/// soon as one group remains.
fn link_starters<const D: usize>(centers: &[Point<D>], eps: f64) -> (Vec<u32>, usize) {
    let k = centers.len();
    let spread = |axis: usize| {
        let (lo, hi) = centers
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p[axis]), hi.max(p[axis]))
            });
        hi - lo
    };
    let axis = (0..D)
        .max_by(|&a, &b| spread(a).total_cmp(&spread(b)))
        .unwrap_or(0);
    let mut order: Vec<u32> = (0..k as u32).collect();
    order
        .sort_unstable_by(|&a, &b| centers[a as usize][axis].total_cmp(&centers[b as usize][axis]));

    let eps2 = eps * eps;
    let mut links = Dsu::new();
    for _ in 0..k {
        links.alloc();
    }
    let mut groups = k;
    'sweep: for (i, &a) in order.iter().enumerate() {
        let pa = &centers[a as usize];
        for &b in &order[i + 1..] {
            let pb = &centers[b as usize];
            // The squared gap on one axis never exceeds the squared
            // distance, so past this point no pair can be within ε.
            let gap = pb[axis] - pa[axis];
            if gap * gap > eps2 {
                break;
            }
            if pa.dist2(pb) <= eps2 && !links.same(a, b) {
                links.union(a, b);
                groups -= 1;
                if groups == 1 {
                    break 'sweep;
                }
            }
        }
    }

    let mut number_of_root = vec![u32::MAX; k];
    let mut next = 0u32;
    let group_of = (0..k as u32)
        .map(|s| {
            let root = links.find(s) as usize;
            if number_of_root[root] == u32::MAX {
                number_of_root[root] = next;
                next += 1;
            }
            number_of_root[root]
        })
        .collect();
    (group_of, groups)
}

#[cfg(test)]
mod tests {
    use crate::config::DiscConfig;
    use crate::engine::Disc;
    use disc_geom::{Point, PointId};
    use disc_window::SlideBatch;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Builds an engine over a fixed point set (eps 1.2, tau 3: interior
    /// line points are cores).
    fn engine(cfg: DiscConfig, pts: &[(u64, f64, f64)]) -> Disc<2> {
        let mut disc = Disc::new(cfg);
        disc.apply(&SlideBatch {
            incoming: pts
                .iter()
                .map(|&(i, x, y)| (PointId(i), Point::new([x, y])))
                .collect(),
            outgoing: vec![],
        });
        disc
    }

    fn configs() -> [DiscConfig; 4] {
        let c = DiscConfig::new(1.2, 3);
        [
            c,
            c.without_msbfs(),
            c.without_epoch_probe(),
            c.without_msbfs().without_epoch_probe(),
        ]
    }

    /// Two line clusters; starters drawn from both must yield ncc = 2 under
    /// every strategy, with consistent detached/survivor bookkeeping.
    #[test]
    fn all_variants_count_two_components() {
        for cfg in configs() {
            let pts: Vec<(u64, f64, f64)> = (0..5)
                .map(|i| (i, i as f64, 0.0))
                .chain((0..5).map(|i| (10 + i, 20.0 + i as f64, 0.0)))
                .collect();
            let mut disc = engine(cfg, &pts);
            // Cores: interior points of each line (ids 1..4 and 11..14).
            let starters = vec![PointId(2), PointId(12)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 2, "config {cfg:?}");
            assert_eq!(conn.detached.len(), 1);
            // The detached side plus the survivor cover both starters.
            let detached_has_2 = conn.detached[0].contains(&PointId(2));
            let detached_has_12 = conn.detached[0].contains(&PointId(12));
            assert!(detached_has_2 ^ detached_has_12);
            assert!(
                !conn.detached[0].contains(&conn.survivor_rep),
                "survivor must not be in the detached component"
            );
        }
    }

    /// Starters of one component must always merge to ncc = 1 without
    /// enumerating anything.
    #[test]
    fn all_variants_agree_on_connected_starters() {
        for cfg in configs() {
            let pts: Vec<(u64, f64, f64)> = (0..9).map(|i| (i, i as f64, 0.0)).collect();
            let mut disc = engine(cfg, &pts);
            let starters = vec![PointId(1), PointId(4), PointId(7)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 1, "config {cfg:?}");
            assert!(conn.detached.is_empty());
            assert!(starters.contains(&conn.survivor_rep));
        }
    }

    /// Three separate components: ncc = 3 and exactly two enumerated.
    #[test]
    fn all_variants_count_three_components() {
        for cfg in configs() {
            let pts: Vec<(u64, f64, f64)> = (0..4)
                .map(|i| (i, i as f64, 0.0))
                .chain((0..4).map(|i| (10 + i, 50.0 + i as f64, 0.0)))
                .chain((0..4).map(|i| (20 + i, 100.0 + i as f64, 0.0)))
                .collect();
            let mut disc = engine(cfg, &pts);
            let starters = vec![PointId(1), PointId(11), PointId(21)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 3, "config {cfg:?}");
            assert_eq!(conn.detached.len(), 2);
        }
    }

    /// A single starter short-circuits with no searches at all.
    #[test]
    fn single_starter_short_circuits() {
        let pts: Vec<(u64, f64, f64)> = (0..4).map(|i| (i, i as f64, 0.0)).collect();
        let mut disc = engine(DiscConfig::new(1.2, 3), &pts);
        let before = disc.index_stats().range_searches;
        let conn = disc.check_connectivity(&[PointId(1)]);
        assert_eq!(conn.ncc, 1);
        assert_eq!(conn.survivor_rep, PointId(1));
        assert_eq!(disc.index_stats().range_searches, before);
    }

    /// The `rounds` counter uses the same accounting — one unit per
    /// dequeued vertex — in every strategy. On fully-enumerated inputs
    /// (disjoint singleton-core components: no early termination is
    /// possible) all four config variants must therefore report the *same*
    /// ncc, survivor and rounds, and rounds must equal the number of cores
    /// expanded.
    #[test]
    fn rounds_agree_across_strategies_when_enumeration_is_exhaustive() {
        // k components, each a lone core (center + 2 borders within ε):
        // every BFS thread pops exactly its starter and finds no further
        // core, so each strategy performs exactly k expansions.
        let k = 4u64;
        let pts: Vec<(u64, f64, f64)> = (0..k)
            .flat_map(|i| {
                let x = i as f64 * 100.0;
                // Borders sit 2.0 apart (> ε), so only the center reaches
                // n_ε = 3 ≥ τ; each component holds exactly one core.
                [
                    (10 * i, x, 0.0),
                    (10 * i + 1, x + 1.0, 0.0),
                    (10 * i + 2, x - 1.0, 0.0),
                ]
            })
            .collect();
        let starters: Vec<PointId> = (0..k).map(|i| PointId(10 * i)).collect();
        let mut seen: Option<(usize, usize)> = None;
        for cfg in configs() {
            let mut disc = engine(cfg, &pts);
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, k as usize, "config {cfg:?}");
            assert_eq!(conn.rounds, k as usize, "one pop per core, {cfg:?}");
            match seen {
                None => seen = Some((conn.ncc, conn.rounds)),
                Some(prev) => assert_eq!(prev, (conn.ncc, conn.rounds), "config {cfg:?}"),
            }
        }
    }

    /// Full streams driven through the round-robin and sequential variants
    /// must agree on the per-slide instance and starter counts (the checks
    /// run are determined by the classes, not the strategy). Rounds now
    /// share one unit — vertex pops — so the round-robin count can only be
    /// *lower* (early termination stops enumerating the surviving
    /// component), never higher and never a different unit.
    #[test]
    fn stream_instances_and_starters_match_between_strategies() {
        let pts: Vec<(u64, f64, f64)> = (0..9).map(|i| (i, i as f64 * 0.5, 0.0)).collect();
        let mut fast = engine(DiscConfig::new(0.6, 3), &pts);
        let mut slow = engine(DiscConfig::new(0.6, 3).without_msbfs(), &pts);
        // Remove the bridge: one split, detected by both variants.
        let cut = SlideBatch {
            incoming: vec![],
            outgoing: vec![(PointId(4), Point::new([2.0, 0.0]))],
        };
        let sf = fast.apply(&cut);
        let ss = slow.apply(&cut);
        assert_eq!(sf.splits, 1);
        assert_eq!(sf.splits, ss.splits);
        assert_eq!(sf.msbfs_instances, ss.msbfs_instances);
        assert_eq!(sf.msbfs_starters, ss.msbfs_starters);
        assert!(sf.msbfs_rounds >= 1);
        assert!(
            sf.msbfs_rounds <= ss.msbfs_rounds,
            "round-robin may stop early but never pops more: {} vs {}",
            sf.msbfs_rounds,
            ss.msbfs_rounds
        );
        // The partitions must match; which fragment keeps the old label is
        // a strategy-dependent (and semantically arbitrary) choice.
        let partition = |a: Vec<(PointId, i64)>| {
            let mut groups: std::collections::BTreeMap<i64, Vec<PointId>> =
                std::collections::BTreeMap::new();
            for (id, label) in a {
                groups.entry(label).or_default().push(id);
            }
            let mut parts: Vec<Vec<PointId>> = groups.into_values().collect();
            parts.sort();
            parts
        };
        assert_eq!(partition(fast.assignments()), partition(slow.assignments()));
    }

    /// MS-BFS with epoch probing must issue far fewer searches than the
    /// exhaustive sequential variant when starters share a component
    /// through a large cluster.
    #[test]
    fn msbfs_terminates_early_on_shrink() {
        let line: Vec<(u64, f64, f64)> = (0..120).map(|i| (i, i as f64 * 0.5, 0.0)).collect();
        let mut fast = engine(DiscConfig::new(1.2, 3), &line);
        let mut slow = engine(DiscConfig::new(1.2, 3).without_msbfs(), &line);
        // Adjacent starters near one end of a long line.
        let starters = vec![PointId(10), PointId(12)];
        let f0 = fast.index_stats().range_searches;
        fast.check_connectivity(&starters);
        let fast_probes = fast.index_stats().range_searches - f0;
        let s0 = slow.index_stats().range_searches;
        slow.check_connectivity(&starters);
        let slow_probes = slow.index_stats().range_searches - s0;
        assert!(
            fast_probes * 5 < slow_probes,
            "early exit: {fast_probes} vs full traversal {slow_probes}"
        );
    }

    /// Starters within ε of each other certify their own connectivity:
    /// both MS-BFS flavours answer without touching the index at all.
    #[test]
    fn linked_starters_cost_no_index_work() {
        let c = DiscConfig::new(1.2, 3);
        for cfg in [c, c.without_epoch_probe()] {
            let pts: Vec<(u64, f64, f64)> = (0..9).map(|i| (i, i as f64, 0.0)).collect();
            let mut disc = engine(cfg, &pts);
            let before = *disc.index_stats();
            // 2-3-4-5 form one chain of ε-links (spacing 1 < ε = 1.2).
            let starters = vec![PointId(3), PointId(5), PointId(2), PointId(4)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 1, "config {cfg:?}");
            assert_eq!(conn.rounds, 0);
            assert_eq!(conn.survivor_rep, PointId(3));
            assert!(conn.detached.is_empty());
            assert_eq!(*disc.index_stats(), before, "config {cfg:?}");
        }
    }

    /// Two groups of linked starters, joined only through cores that are
    /// not starters: the groups' threads must still meet.
    #[test]
    fn linked_groups_joined_through_a_non_starter_core_are_connected() {
        for cfg in configs() {
            let pts: Vec<(u64, f64, f64)> = (0..10).map(|i| (i, i as f64, 0.0)).collect();
            let mut disc = engine(cfg, &pts);
            // {1, 2} and {6, 7} are linked within; 3, 4 and 5 join them.
            let starters = vec![PointId(1), PointId(6), PointId(2), PointId(7)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 1, "config {cfg:?}");
            assert!(conn.detached.is_empty());
            assert!(starters.contains(&conn.survivor_rep));
        }
    }

    /// A real split with linked starters on both sides: the detached list
    /// holds every core of its side, and none of the other.
    #[test]
    fn split_between_linked_groups_detaches_a_whole_side() {
        for cfg in configs() {
            let pts: Vec<(u64, f64, f64)> = (0..7)
                .map(|i| (i, i as f64, 0.0))
                .chain((0..7).map(|i| (10 + i, 20.0 + i as f64, 0.0)))
                .collect();
            let mut disc = engine(cfg, &pts);
            let left: BTreeSet<PointId> = (1..6).map(PointId).collect();
            let right: BTreeSet<PointId> = (11..16).map(PointId).collect();
            let starters = vec![PointId(2), PointId(12), PointId(3), PointId(13)];
            let conn = disc.check_connectivity(&starters);
            assert_eq!(conn.ncc, 2, "config {cfg:?}");
            assert_eq!(conn.detached.len(), 1);
            let detached: BTreeSet<PointId> = conn.detached[0].iter().copied().collect();
            assert!(detached == left || detached == right, "config {cfg:?}");
            assert!(!detached.contains(&conn.survivor_rep));
        }
    }

    /// The starters, partitioned by the component each check put them in:
    /// the survivor's component holds those no detached list names.
    fn starter_partition(
        starters: &[PointId],
        conn: &super::Connectivity,
    ) -> BTreeSet<BTreeSet<PointId>> {
        let mut parts: BTreeSet<BTreeSet<PointId>> = conn
            .detached
            .iter()
            .map(|comp| {
                starters
                    .iter()
                    .copied()
                    .filter(|s| comp.contains(s))
                    .collect()
            })
            .collect();
        let survivors: BTreeSet<PointId> = starters
            .iter()
            .copied()
            .filter(|s| !conn.detached.iter().any(|comp| comp.contains(s)))
            .collect();
        assert!(survivors.contains(&conn.survivor_rep));
        parts.insert(survivors);
        parts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random point sets and starter subsets, MS-BFS with linked
        /// starters finds the components the exhaustive sequential BFS
        /// finds, with and without epoch probing.
        #[test]
        fn linked_msbfs_matches_sequential_bfs(
            coords in prop::collection::vec((0.0f64..12.0, 0.0f64..12.0), 20..120),
            picks in prop::collection::vec(prop::bool::ANY, 120),
        ) {
            let pts: Vec<(u64, f64, f64)> = coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (i as u64, x, y))
                .collect();
            let base = DiscConfig::new(1.2, 3);
            for use_epoch in [true, false] {
                let (fast_cfg, slow_cfg) = if use_epoch {
                    (base, base.without_msbfs())
                } else {
                    (
                        base.without_epoch_probe(),
                        base.without_msbfs().without_epoch_probe(),
                    )
                };
                let mut fast = engine(fast_cfg, &pts);
                let mut slow = engine(slow_cfg, &pts);
                let starters: Vec<PointId> = (0..pts.len() as u64)
                    .map(PointId)
                    .filter(|&id| picks[id.0 as usize] && fast.is_core(id))
                    .collect();
                if starters.is_empty() {
                    continue;
                }
                let f = fast.check_connectivity(&starters);
                let s = slow.check_connectivity(&starters);
                prop_assert_eq!(f.ncc, s.ncc, "use_epoch {}", use_epoch);
                prop_assert_eq!(
                    starter_partition(&starters, &f),
                    starter_partition(&starters, &s),
                    "use_epoch {}",
                    use_epoch
                );
            }
        }
    }
}
