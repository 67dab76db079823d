//! The CLUSTER step (paper Alg. 2): cluster evolution from ex-cores and
//! neo-cores, plus label maintenance (§V).

use crate::balls::BallStore;
use crate::collect::CollectOutcome;
use crate::engine::Disc;
use crate::label::ClusterId;
use crate::stats::SlideStats;
use crate::store::PointStore;
use disc_geom::{Point, PointId};
use disc_index::SpatialBackend;

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Runs CLUSTER for one slide. The final adoption pass is a separate
    /// call from `apply` so its duration is measured on its own.
    pub(crate) fn cluster(&mut self, outcome: &CollectOutcome, stats: &mut SlideStats) {
        self.ex_core_phase(&outcome.ex_cores, stats);

        // Alg. 2 line 8: the departed ex-cores are no longer needed once
        // every retro-reachable class has been examined. One bulk removal,
        // like COLLECT's eviction of the other departures.
        let ghosts: Vec<(PointId, Point<D>)> = outcome
            .ghosts
            .iter()
            .map(|id| {
                let rec = self.points.remove(*id).expect("ghost record vanished");
                (*id, rec.point)
            })
            .collect();
        let removed = self.tree.bulk_remove(&ghosts);
        debug_assert_eq!(removed, ghosts.len(), "ghosts must be indexed");

        self.neo_core_phase(&outcome.neo_cores, stats);
        self.balls = BallStore::default();
    }

    // ------------------------------------------------------------------
    // Ex-cores: splits, shrinks, dissipations (Alg. 2 lines 1-8)
    // ------------------------------------------------------------------

    fn ex_core_phase(&mut self, ex_cores: &[PointId], stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        // `absorbed` marks the ex-cores already in a class, and each class
        // draws the next stamp to mark the members of its M⁻. The two mark
        // disjoint points (ex-cores, cores of both windows), so they share
        // the meta field; classes never outnumber ex-cores.
        let absorbed = self.fresh_stamps(1 + ex_cores.len());
        let mut m_seen = absorbed;
        // Buffers reused across classes.
        let mut r_minus: Vec<PointId> = Vec::new();
        let mut m_minus: Vec<PointId> = Vec::new();
        let mut ball_buf: Vec<PointId> = Vec::new();
        // Classes gathered in pass 1: `(previous cluster root, M⁻)`. The
        // roots must be read *before* any relabelling, so the connectivity
        // checks are deferred to pass 2.
        let mut classes: Vec<(u32, Vec<PointId>)> = Vec::new();

        // Seeds in slice order (ghosts first, then ids ascending — see
        // COLLECT's canonical classification).
        for &seed in ex_cores {
            if !absorb(&mut self.points, seed, absorbed) {
                continue; // already absorbed into an earlier class
            }
            stats.ex_classes += 1;
            r_minus.clear();
            m_minus.clear();
            m_seen += 1;

            // Gather R⁻(seed) by BFS over directly retro-reachable ex-cores
            // (one range search per member — Theorem 1 guarantees no other
            // ex-core of the class will ever be searched again), collecting
            // the minimal bonding cores M⁻ on the way.
            r_minus.push(seed);
            let mut i = 0;
            while i < r_minus.len() {
                let r = r_minus[i];
                i += 1;

                // The scan doubles as label maintenance for the ex-core
                // itself: any current core in range can adopt it.
                let mut my_adopter: Option<PointId> = None;
                let ball = ball_of(
                    &self.balls,
                    &mut self.tree,
                    &self.points,
                    eps,
                    r,
                    &mut ball_buf,
                );
                for &qid in ball {
                    if qid == r {
                        continue;
                    }
                    let Some(q) = self.points.get_mut(qid) else {
                        continue;
                    };
                    if q.is_ex_core(tau) {
                        if q.stamp != absorbed {
                            q.stamp = absorbed;
                            r_minus.push(qid);
                        }
                    } else if q.core_in_both(tau) {
                        if q.stamp != m_seen {
                            q.stamp = m_seen;
                            m_minus.push(qid);
                        }
                        // Smallest qualifying id wins, so the adopter does
                        // not depend on the index's traversal order.
                        if my_adopter.is_none_or(|a| qid < a) {
                            my_adopter = Some(qid);
                        }
                    } else if q.is_core(tau) {
                        // A neo-core: not part of M⁻ (Def. 4 requires core
                        // in both windows) but a legal adopter.
                        if my_adopter.is_none_or(|a| qid < a) {
                            my_adopter = Some(qid);
                        }
                    } else if q.in_window && q.adopter == Some(r) {
                        // A border that leaned on this ex-core.
                        q.adopter = None;
                        self.needs_adoption.push(qid);
                    }
                }
                // The ball held every core in range: no adopter means noise.
                if let Some(rec) = self.points.get_mut(r) {
                    if rec.in_window {
                        rec.adopter = my_adopter;
                    }
                }
            }

            // M⁻ empty means the region dissipated — nothing to relabel.
            // Otherwise record the class under its previous cluster's root
            // (still untouched by any relabelling at this point).
            if let Some(&first) = m_minus.first() {
                let root = self.clusters.find(self.points.meta_at(first).cid.0);
                classes.push((root, m_minus.clone()));
                self.emit_prov(disc_telemetry::ProvenanceKind::RetroClassFormed {
                    rep: seed.0,
                    size: r_minus.len() as u64,
                });
            } else {
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterDied {
                    rep: seed.0,
                    size: r_minus.len() as u64,
                });
            }
        }

        // Pass 2: decide the evolution type per class (Alg. 2 lines 4-6).
        // A single bonding core cannot witness a split on its own (every
        // previous path through the class can be respliced through that one
        // core); two or more get a density-connectedness check.
        // Only splitting checks contribute survivor reps: a fragment that
        // disconnected from its cluster necessarily flanks some break whose
        // class's check saw ≥2 components, so every candidate holder of the
        // old id is the survivor of a *splitting* check (or was enumerated
        // and relabelled). Shrink-only classes never produce extra holders.
        let mut outcomes: Vec<(u32, PointId)> = Vec::new();
        for (root, m_minus) in &classes {
            if m_minus.len() < 2 {
                continue; // a single bonding core is respliceable: shrink
            }
            let conn = self.instrumented_connectivity(m_minus, stats);
            if conn.ncc > 1 {
                stats.splits += 1;
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterSplit {
                    old: *root as u64,
                    parts: conn.ncc as u64,
                    rep: conn.survivor_rep.0,
                });
                self.relabel_detached(&conn.detached, tau);
                outcomes.push((*root, conn.survivor_rep));
            }
        }

        // Cross-class split fixup. Per-class checks detect every split (if
        // all classes of a cluster report their M⁻ connected, any broken
        // previous path can be respliced segment-by-segment through the
        // connected M⁻ of the segment's class — so the cluster cannot have
        // split). But when a cluster IS cut by several classes at once, each
        // check independently lets its own survivor keep the old id, which
        // can leave two now-disconnected fragments carrying it. For every
        // previous cluster touched by ≥2 classes of which ≥1 split, one
        // more connectivity check over the survivors' representatives
        // detaches all but one of them. Split slides are rare, so the
        // common shrink-only path never pays for this.
        outcomes.sort_unstable_by_key(|(root, _)| *root);
        let mut i = 0;
        while i < outcomes.len() {
            let root = outcomes[i].0;
            let mut j = i;
            while j < outcomes.len() && outcomes[j].0 == root {
                j += 1;
            }
            if j - i >= 2 {
                let mut reps: Vec<PointId> = outcomes[i..j].iter().map(|(_, rep)| *rep).collect();
                reps.sort_unstable();
                reps.dedup();
                // A rep whose component was since relabelled by another
                // class's check no longer holds the old id — only actual
                // holders need disambiguation.
                reps.retain(|rep| {
                    let cid = self.points.meta_at(*rep).cid.0;
                    self.clusters.find(cid) == root
                });
                if reps.len() >= 2 {
                    let conn = self.instrumented_connectivity(&reps, stats);
                    if conn.ncc > 1 {
                        self.emit_prov(disc_telemetry::ProvenanceKind::ClusterSplit {
                            old: root as u64,
                            parts: conn.ncc as u64,
                            rep: conn.survivor_rep.0,
                        });
                        self.relabel_detached(&conn.detached, tau);
                    }
                }
            }
            i = j;
        }
    }

    /// One connectivity check with its full observability envelope: the
    /// per-slide MS-BFS counters, a `msbfs` span carrying the check's index
    /// work, and the `msbfs_started` / `msbfs_terminated` provenance pair.
    /// `AllMet` is Alg. 3's early termination (all starters met in one
    /// component); `Exhausted` means some thread enumerated a detached
    /// component to the end.
    fn instrumented_connectivity(
        &mut self,
        starters: &[PointId],
        stats: &mut SlideStats,
    ) -> crate::msbfs::Connectivity {
        let rep = starters[0].0;
        self.emit_prov(disc_telemetry::ProvenanceKind::MsBfsStarted {
            rep,
            starters: starters.len() as u64,
        });
        let sp = self.tracer.begin("msbfs");
        let before = self.tracer.enabled().then(|| *self.tree.stats());
        let conn = self.check_connectivity(starters);
        if let Some(b) = before {
            let mut args = self.tree.stats().since(&b).span_args();
            args.push(("starters", starters.len() as u64));
            args.push(("rounds", conn.rounds as u64));
            args.push(("ncc", conn.ncc as u64));
            self.tracer.end_with_args(sp, &args);
        }
        stats.msbfs_instances += 1;
        stats.msbfs_starters += starters.len();
        stats.msbfs_rounds += conn.rounds;
        self.emit_prov(disc_telemetry::ProvenanceKind::MsBfsTerminated {
            rep,
            reason: if conn.ncc == 1 {
                disc_telemetry::MsBfsReason::AllMet
            } else {
                disc_telemetry::MsBfsReason::Exhausted
            },
            rounds: conn.rounds as u64,
        });
        conn
    }

    /// Assigns one fresh cluster id per detached component.
    fn relabel_detached(&mut self, detached: &[Vec<PointId>], tau: usize) {
        for comp in detached {
            let fresh = ClusterId(self.clusters.alloc());
            for id in comp {
                if let Some(rec) = self.points.get_mut(*id) {
                    debug_assert!(rec.is_core(tau));
                    rec.cid = fresh;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Neo-cores: merges, expansions, emergences (Alg. 2 lines 9-13)
    // ------------------------------------------------------------------

    fn neo_core_phase(&mut self, neo_cores: &[PointId], stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;

        // As in the ex-core phase, `absorbed` marks the neo-cores already in
        // a class. `adopted_here` marks the orphans adopted during this
        // phase: when several neo-cores reach the same orphan, the smallest
        // id must win regardless of the order the classes are visited in
        // (backend-independent determinism). Adopters that survived from
        // earlier slides are never replaced. Neo-cores and orphans are
        // disjoint, so the two stamps share the meta field.
        let absorbed = self.fresh_stamps(2);
        let adopted_here = absorbed + 1;
        let mut r_plus: Vec<PointId> = Vec::new();
        let mut m_cids: Vec<u32> = Vec::new();
        let mut ball_buf: Vec<PointId> = Vec::new();

        // Seeds in slice order (ids ascending), like the ex-core phase.
        for &seed in neo_cores {
            if !absorb(&mut self.points, seed, absorbed) {
                continue; // already absorbed into an earlier class
            }
            stats.neo_classes += 1;
            r_plus.clear();
            m_cids.clear();

            // Gather R⁺(seed) over directly nascent-reachable neo-cores;
            // M⁺ members only contribute their cluster ids — unlike M⁻,
            // no connectivity check is ever needed (§III-C).
            r_plus.push(seed);
            let mut i = 0;
            while i < r_plus.len() {
                let r = r_plus[i];
                i += 1;

                let ball = ball_of(
                    &self.balls,
                    &mut self.tree,
                    &self.points,
                    eps,
                    r,
                    &mut ball_buf,
                );
                for &qid in ball {
                    if qid == r {
                        continue;
                    }
                    let Some(q) = self.points.get_mut(qid) else {
                        continue;
                    };
                    if q.is_neo_core(tau) {
                        if q.stamp != absorbed {
                            q.stamp = absorbed;
                            r_plus.push(qid);
                        }
                    } else if q.core_in_both(tau) {
                        m_cids.push(q.cid.0);
                    } else if q.in_window && !q.is_core(tau) {
                        // Label maintenance: the neo-core adopts nearby
                        // orphaned non-cores on the spot (§V). Among the
                        // neo-cores competing this slide the smallest id
                        // wins; adopters from earlier slides stand.
                        if q.adopter.is_none() {
                            q.adopter = Some(r);
                            q.stamp = adopted_here;
                        } else if q.stamp == adopted_here && q.adopter > Some(r) {
                            q.adopter = Some(r);
                        }
                    }
                }
            }

            // Resolve the class's cluster id.
            let assigned = if m_cids.is_empty() {
                // Emergence: a brand-new cluster of neo-cores only.
                stats.emerged += 1;
                let fresh = ClusterId(self.clusters.alloc());
                self.emit_prov(disc_telemetry::ProvenanceKind::ClusterEmerged {
                    cluster: fresh.0 as u64,
                    rep: seed.0,
                    size: r_plus.len() as u64,
                });
                fresh
            } else {
                let mut root = self.clusters.find(m_cids[0]);
                let mut distinct = 1;
                for &c in &m_cids[1..] {
                    let rc = self.clusters.find(c);
                    if rc != root {
                        distinct += 1;
                        root = self.clusters.union(root, rc);
                    }
                }
                if distinct > 1 {
                    stats.merges += 1;
                    self.emit_prov(disc_telemetry::ProvenanceKind::ClusterMerge {
                        winner: root as u64,
                        merged: distinct as u64,
                        rep: seed.0,
                    });
                }
                ClusterId(root)
            };
            for id in &r_plus {
                let rec = self.points.get_mut(*id).expect("neo-core vanished");
                debug_assert!(rec.is_core(tau));
                rec.cid = assigned;
                // A neo-core sheds any border bookkeeping it carried; if it
                // is queued for adoption, the pass skips it as a core.
                rec.adopter = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Final adoption pass (§V, "updated later by examining neighbours")
    // ------------------------------------------------------------------

    pub(crate) fn adoption_pass(&mut self, stats: &mut SlideStats) {
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;
        let mut pending = std::mem::take(&mut self.needs_adoption);
        // Canonical order (the list is in release order, an artifact of
        // traversal order). The pass only writes each pending point's own
        // adopter, so neither the searched set nor any result depends on
        // order — but pinning it keeps the provenance stream identical
        // across runs.
        pending.sort_unstable();
        debug_assert!(
            pending.windows(2).all(|w| w[0] < w[1]),
            "a point was queued for adoption twice"
        );
        // Skip the departed, the cores and the already adopted; the checks
        // are stable for the same reason, so they can run up front.
        pending.retain(|&id| {
            self.points
                .meta_of(id) // departed this slide → gone
                .is_some_and(|rec| !rec.is_core(tau) && rec.adopter.is_none() && rec.in_window)
        });
        let mut ball: Vec<PointId> = Vec::new();
        for &id in &pending {
            let center = self.points.point_at(id);
            stats.adoption_searches += 1;
            ball.clear();
            self.tree
                .for_each_in_ball(&center, eps, |qid, _| ball.push(qid));
            let mut adopter: Option<PointId> = None;
            for &qid in &ball {
                if qid != id
                    && adopter.is_none_or(|a| qid < a)
                    && self.points.meta_of(qid).is_some_and(|q| q.is_core(tau))
                {
                    adopter = Some(qid);
                }
            }
            self.points.get_mut(id).expect("record vanished").adopter = adopter;
            if let Some(core) = adopter {
                self.emit_prov(disc_telemetry::ProvenanceKind::Adoption {
                    border: id.0,
                    core: core.0,
                });
            }
        }
        // Hand the buffer back, so its capacity serves the next slide.
        pending.clear();
        self.needs_adoption = pending;
    }
}

/// Marks `id` absorbed into a class; `false` if it already was.
fn absorb<const D: usize>(points: &mut PointStore<D>, id: PointId, absorbed: u32) -> bool {
    let rec = points.get_mut(id).expect("class member vanished");
    let fresh = rec.stamp != absorbed;
    rec.stamp = absorbed;
    fresh
}

/// The ε-ball of `center` as the cluster phases read it: the ball COLLECT
/// recorded, else a fresh search into `buf`. A free function over the
/// engine's parts, so the caller can keep mutating records while it reads
/// the ball.
fn ball_of<'a, const D: usize, B: SpatialBackend<D>>(
    balls: &'a BallStore,
    tree: &mut B,
    points: &PointStore<D>,
    eps: f64,
    center: PointId,
    buf: &'a mut Vec<PointId>,
) -> &'a [PointId] {
    if let Some(ball) = balls.get(center) {
        #[cfg(debug_assertions)]
        assert_fresh_ball(tree, points, eps, center, ball);
        return ball;
    }
    buf.clear();
    tree.for_each_in_ball(&points.point_at(center), eps, |qid, _| buf.push(qid));
    buf
}

/// Debug builds check every reused ball against a fresh search, as a set:
/// all of it for an arrival's ball, its previous-window cores for a
/// ghost's (see `balls.rs`). The search runs on private counters, so the
/// index statistics (Fig. 7) read the same in debug and release builds.
#[cfg(debug_assertions)]
fn assert_fresh_ball<const D: usize, B: SpatialBackend<D>>(
    tree: &B,
    points: &PointStore<D>,
    eps: f64,
    center: PointId,
    ball: &[PointId],
) {
    let ghost = !points.meta_at(center).in_window;
    let mut fresh: Vec<PointId> = Vec::new();
    let mut scratch = disc_index::Stats::default();
    tree.scan_ball(
        &points.point_at(center),
        eps,
        |qid, _| {
            if !ghost || points.meta_at(qid).prev_core {
                fresh.push(qid);
            }
        },
        &mut scratch,
    );
    let mut reused = ball.to_vec();
    fresh.sort_unstable();
    reused.sort_unstable();
    assert_eq!(
        reused, fresh,
        "reused ball of {center} differs from a search"
    );
}

#[cfg(test)]
mod tests {
    //! The adoption pass only searches where an adopter can exist. These
    //! crafted windows pin `SlideStats::adoption_searches` for every case
    //! the pass skips or keeps (DESIGN.md §3, "Border adoption").

    use crate::config::DiscConfig;
    use crate::engine::Disc;
    use crate::label::PointLabel;
    use disc_geom::{Point, PointId};
    use disc_window::SlideBatch;

    fn batch(incoming: &[(u64, f64)], outgoing: &[(u64, f64)]) -> SlideBatch<2> {
        let rows = |r: &[(u64, f64)]| {
            r.iter()
                .map(|&(i, x)| (PointId(i), Point::new([x, 0.0])))
                .collect()
        };
        SlideBatch {
            incoming: rows(incoming),
            outgoing: rows(outgoing),
        }
    }

    fn adopter(disc: &Disc<2>, id: u64) -> Option<PointId> {
        disc.points.at(PointId(id)).adopter
    }

    #[test]
    fn noise_touched_every_slide_costs_no_search() {
        // Point 0 stays noise while a lone neighbour comes and goes on
        // alternating sides of it: it is touched every slide, and so is
        // every fresh neighbour, yet no core is ever in range of either.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        let s = disc.apply(&batch(&[(0, 0.0), (1, 0.9)], &[]));
        assert_eq!(s.adoption_searches, 0);
        let mut prev = (1, 0.9);
        for id in 2..12u64 {
            let x = if id % 2 == 0 { -0.9 } else { 0.9 };
            let s = disc.apply(&batch(&[(id, x)], &[prev]));
            assert_eq!(disc.points.at(PointId(0)).n_eps, 2);
            assert_eq!(s.adoption_searches, 0, "slide adding {id}");
            assert_eq!(disc.label_of(PointId(0)), Some(PointLabel::Noise));
            disc.check_invariants();
            prev = (id, x);
        }
    }

    #[test]
    fn border_whose_adopter_departs_is_searched_and_readopted() {
        // A block of eight cores (τ = 5); border 9 reaches the three
        // rightmost, 6 < 7 < 8, and leans on 6.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 5));
        let block = [
            (1, 0.0),
            (2, 0.02),
            (3, 0.04),
            (4, 0.06),
            (5, 0.08),
            (6, 0.15),
            (7, 0.2),
            (8, 0.25),
        ];
        let mut first: Vec<(u64, f64)> = block.to_vec();
        first.push((9, 1.14));
        let s = disc.apply(&batch(&first, &[]));
        assert_eq!(s.adoption_searches, 0, "the neo-core phase adopts 9");
        assert_eq!(adopter(&disc, 9), Some(PointId(6)));

        // 6 leaves; the block stays core. One search re-adopts 9, and the
        // smallest remaining core in range wins.
        let s = disc.apply(&batch(&[], &[(6, 0.15)]));
        assert_eq!(s.adoption_searches, 1);
        assert_eq!(adopter(&disc, 9), Some(PointId(7)));
        assert!(matches!(
            disc.label_of(PointId(9)),
            Some(PointLabel::Border(_))
        ));
        disc.check_invariants();
    }

    #[test]
    fn ex_core_with_no_core_in_range_becomes_noise_without_search() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(&[(0, 0.0), (1, 0.5), (2, 1.0)], &[]));
        assert!(disc.is_core(PointId(1)) && disc.is_core(PointId(2)));
        // 0 leaves: 1 and 2 drop to n_ε = 2 and no core is left anywhere.
        let s = disc.apply(&batch(&[], &[(0, 0.0)]));
        assert_eq!(s.ex_cores, 3);
        assert_eq!(s.adoption_searches, 0);
        assert_eq!(disc.label_of(PointId(1)), Some(PointLabel::Noise));
        assert_eq!(disc.label_of(PointId(2)), Some(PointLabel::Noise));
        disc.check_invariants();
    }

    #[test]
    fn old_noise_is_adopted_by_a_neo_core_without_search() {
        // Point 0 is noise, then four newcomers form a cluster two of whose
        // cores (4 < 5) reach it; τ = 4 keeps 0 itself a non-core.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 4));
        disc.apply(&batch(&[(0, 0.0)], &[]));
        assert_eq!(disc.label_of(PointId(0)), Some(PointLabel::Noise));
        let s = disc.apply(&batch(&[(4, 1.0), (5, 0.95), (6, 1.2), (7, 1.4)], &[]));
        assert_eq!(s.neo_cores, 4);
        assert_eq!(s.adoption_searches, 0);
        assert_eq!(adopter(&disc, 0), Some(PointId(4)));
        assert!(matches!(
            disc.label_of(PointId(0)),
            Some(PointLabel::Border(_))
        ));
        disc.check_invariants();
    }

    #[test]
    fn settled_counts_adopt_newcomers_without_search() {
        // Core 0 (τ = 4) loses two neighbours and regains two in the same
        // stride. Newcomer 10 is in range of 0 only, which is one short of τ
        // until 11 and 12 arrive: COLLECT picks adopters on settled counts,
        // so 0 adopts 10 and the adoption pass has nothing to search.
        let fill = batch(&[(0, 0.0), (1, -0.2), (2, -0.4), (3, -0.6)], &[]);
        let slide = batch(
            &[(10, 0.9), (11, -0.3), (12, -0.5)],
            &[(1, -0.2), (2, -0.4)],
        );
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 4));
        disc.apply(&fill);
        let s = disc.apply(&slide);
        assert!(disc.points.at(PointId(0)).core_in_both(4));
        assert_eq!(adopter(&disc, 10), Some(PointId(0)));
        assert_eq!(s.adoption_searches, 0);
        disc.check_invariants();
    }
}
