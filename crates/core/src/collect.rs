//! The COLLECT step (paper Alg. 1).
//!
//! Maintains `n_ε` for every affected point, keeps the R-tree in sync with
//! the window, and identifies the ex-cores and neo-cores that drive the
//! CLUSTER step. Ex-cores that *left* the window (`C_out`) keep their R-tree
//! entry and record until the ex-core phase of CLUSTER is done, because
//! retro-reachability is defined over the previous window.

use crate::balls::UNRECORDED;
use crate::engine::Disc;
use crate::record::PointRecord;
use disc_geom::{Point, PointId};
use disc_index::SpatialBackend;
use disc_window::SlideBatch;

/// What COLLECT hands to CLUSTER.
#[derive(Debug, Default)]
pub struct CollectOutcome {
    /// All ex-cores (Def. 1), both departed (`C_out`) and in-window.
    pub ex_cores: Vec<PointId>,
    /// All neo-cores (Def. 2).
    pub neo_cores: Vec<PointId>,
    /// The departed ex-cores — still in the R-tree, to be removed after the
    /// ex-core phase (Alg. 2 line 8).
    pub ghosts: Vec<PointId>,
}

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Runs COLLECT for one slide batch: bulk index mutations plus one
    /// multi-center ε-ball traversal per phase. A singleton batch is
    /// Alg. 1 read literally.
    ///
    /// Its bookkeeping is stamps in the meta column: one marks the stayers
    /// the slide touched, and the next `incoming.len()` name the arrivals
    /// by centre index (see [`insert_batched`](Self::insert_batched)).
    pub(crate) fn collect(&mut self, batch: &SlideBatch<D>) -> CollectOutcome {
        let tau = self.cfg.tau;
        let mut out = CollectOutcome::default();
        self.touched.clear();
        self.needs_adoption.clear();
        let touch = self.fresh_stamps(1 + batch.incoming.len());
        // The traversals record the balls CLUSTER will read (see
        // `balls.rs`), except during a fill, whose every arrival may become
        // a neo-core (transient memory would be O(window · ball)), and in a
        // slide where an id departs and arrives at once, which would name
        // two balls with one id.
        debug_assert!(self.balls.is_empty(), "balls outlived their slide");
        let record = !self.points.is_empty()
            && !batch
                .incoming
                .iter()
                .any(|(id, _)| self.points.contains(*id));

        let sp = self.tracer.begin("delete");
        let before = self.tracer.enabled().then(|| *self.tree.stats());
        self.delete_batched(batch, record, touch, &mut out);
        if let Some(b) = before {
            self.tracer
                .end_with_args(sp, &self.tree.stats().since(&b).span_args());
        }

        let sp = self.tracer.begin("insert");
        let before = self.tracer.enabled().then(|| *self.tree.stats());
        self.insert_batched(batch, record, touch);
        if let Some(b) = before {
            self.tracer
                .end_with_args(sp, &self.tree.stats().since(&b).span_args());
        }

        // --- Classification (Alg. 1 line 13) -----------------------------
        // Departed ex-cores first (they are never in `touched`).
        out.ex_cores.extend(out.ghosts.iter().copied());
        // Canonical order: `touched` lists points in first-touch order, an
        // artifact of traversal order, which the parallel gather path
        // changes. Sorting pins the classification order — and with it every
        // downstream seed order and cluster-id allocation — to the point ids
        // alone, so sequential and parallel slides emit identical output.
        self.touched.sort_unstable();
        // Unadopted non-cores are not queued: only a neo-core can be in range
        // of one, and it adopts it (invariant I, DESIGN.md §3).
        for id in &self.touched {
            let rec = self.points.meta_at(*id);
            if rec.is_ex_core(tau) {
                out.ex_cores.push(*id);
            } else if rec.is_neo_core(tau) {
                out.neo_cores.push(*id);
            }
        }
        if self.prov_on {
            for id in &out.ex_cores {
                self.emit_prov(disc_telemetry::ProvenanceKind::ExCoreDetected { id: id.0 });
            }
            for id in &out.neo_cores {
                self.emit_prov(disc_telemetry::ProvenanceKind::NeoCoreDetected { id: id.0 });
            }
        }
        out
    }

    /// Deletions via one multi-center traversal plus one bulk tree removal.
    ///
    /// Every departure is marked out of the window first. Between slides no
    /// record is out of the window (ghosts go at the end of CLUSTER), so a
    /// hit on one is a departure. All decrements run *before* any record is
    /// retired, so hits between two departing points are skipped — their
    /// effects are unobservable either way, because a departing ex-core
    /// resets its count to zero and every other departure drops its record
    /// entirely. Adopter invalidations on fellow departures are likewise
    /// skipped: the adoption pass ignores retired records.
    ///
    /// With `record`, every departing prev-core's hits that were cores of
    /// the previous window — stayers and fellow ghosts — go into its ball
    /// (`balls.rs` says why no others are needed). Its previous `n_ε`
    /// counts all its hits, so the ball is sized before the traversal
    /// writes it.
    fn delete_batched(
        &mut self,
        batch: &SlideBatch<D>,
        record: bool,
        touch: u32,
        out: &mut CollectOutcome,
    ) {
        if batch.outgoing.is_empty() {
            return;
        }
        let eps = self.cfg.eps;
        let mut ids: Vec<PointId> = Vec::with_capacity(batch.outgoing.len());
        let mut centers: Vec<Point<D>> = Vec::with_capacity(batch.outgoing.len());
        // Per-center ball size, then write cursor; the heads seal them below.
        let mut cursors: Vec<usize> = Vec::with_capacity(batch.outgoing.len());
        for (id, _) in &batch.outgoing {
            let rec = self
                .points
                .get_mut(*id)
                .unwrap_or_else(|| panic!("outgoing point {id} is not in the window"));
            debug_assert!(rec.in_window, "outgoing point {id} already retired");
            rec.in_window = false;
            cursors.push(if record && rec.prev_core {
                rec.n_eps as usize
            } else {
                UNRECORDED
            });
            ids.push(*id);
            centers.push(self.points.point_at(*id));
        }
        self.balls.open_all(&mut cursors);
        let heads = cursors.clone();

        // Wide path: gather raw hits over a frozen snapshot, replay the
        // effects sequentially. Every effect here is commutative across
        // hits (decrement, first-touch mark, single-match adopter
        // invalidation), and each center's hits keep their traversal order,
        // so the chunked hit order is equivalent to the single bulk
        // traversal's.
        let wide_hits = (self.pool.width() > 1).then(|| self.par_ball_hits(&centers));
        let points = &mut self.points;
        let touched = &mut self.touched;
        let needs_adoption = &mut self.needs_adoption;
        let balls = &mut self.balls;
        let mut on_hit = |ci: usize, qid: PointId| {
            let Some(q) = points.get_mut(qid) else {
                return;
            };
            // Every previous-window core joins the ball: stayers and ghosts
            // (the center itself among them) alike.
            let cursor = &mut cursors[ci];
            if q.prev_core && *cursor != UNRECORDED {
                balls.write(cursor, qid);
            }
            if !q.in_window {
                return; // a departure: the center or a fellow
            }
            q.n_eps -= 1;
            if q.stamp != touch {
                q.stamp = touch;
                touched.push(qid);
            }
            if q.adopter == Some(ids[ci]) {
                q.adopter = None;
                needs_adoption.push(qid);
            }
        };
        match wide_hits {
            Some(hits) => hits
                .into_iter()
                .for_each(|(ci, qid)| on_hit(ci as usize, qid)),
            None => self
                .tree
                .for_each_in_balls(&centers, eps, |ci, qid, _| on_hit(ci, qid)),
        }

        // Retire the records, then sync the tree with one bulk removal.
        // Departed ex-cores keep their entries (C_out ghosts).
        let mut evict: Vec<(PointId, Point<D>)> = Vec::new();
        for (ci, id) in ids.iter().enumerate() {
            let rec = self.points.get_mut(*id).expect("record vanished");
            if rec.prev_core {
                rec.n_eps = 0;
                out.ghosts.push(*id);
                if record {
                    self.balls.close(*id, heads[ci], cursors[ci]);
                }
            } else {
                evict.push((*id, centers[ci]));
                self.points.remove(*id);
            }
        }
        let evicted = self.tree.bulk_remove(&evict);
        debug_assert_eq!(evicted, evict.len(), "departing points must be indexed");
    }

    /// Insertions via one bulk tree insert plus one multi-center traversal.
    ///
    /// The whole stride is indexed and stored first, then a single
    /// traversal resolves every neighbourhood. Arrival `i` is stored with
    /// stamp `touch + 1 + i`, so the one store lookup a hit costs both
    /// tells an arrival from a stayer and names its centre; its count and
    /// adopter are settled after the traversal. A pair of Δin points shows
    /// up twice (once from each center), so the count is applied on one
    /// orientation only: every pair is counted once. Opportunistic adopters
    /// are chosen after the traversal, on settled counts: the smallest-id
    /// established neighbour that is a final core. A newcomer without one
    /// can only have neo-cores in range, which adopt it in the neo-core
    /// phase, so it is never queued for the adoption pass.
    ///
    /// With `record`, every arrival that became a neo-core gets its ball.
    fn insert_batched(&mut self, batch: &SlideBatch<D>, record: bool, touch: u32) {
        if batch.incoming.is_empty() {
            return;
        }
        let eps = self.cfg.eps;
        let tau = self.cfg.tau;
        for (id, point) in &batch.incoming {
            debug_assert!(
                !self.points.contains(*id),
                "incoming point {id} already in the window"
            );
            // Finiteness is enforced up front by `Disc::validate`, before
            // any deletion mutated state; by the time COLLECT runs this can
            // only fire on an engine-internal bug.
            debug_assert!(
                point.is_finite(),
                "incoming point {id} has non-finite coordinates"
            );
        }
        self.tree.bulk_insert(batch.incoming.clone());
        let first = touch + 1;
        let arrivals = batch.incoming.len() as u32;
        for (i, (id, point)) in batch.incoming.iter().enumerate() {
            self.points.insert(*id, PointRecord::new(*point)).stamp = first + i as u32;
            self.touched.push(*id);
        }

        let centers: Vec<Point<D>> = batch.incoming.iter().map(|(_, p)| *p).collect();
        let mut gained = vec![0u32; centers.len()];
        let mut hits: Vec<(u32, PointId)> = Vec::new();
        let mut intra: Vec<(u32, u32)> = Vec::new();
        // Wide, as in `delete_batched`: all effects are commutative and the
        // adopter choice below runs on settled counts, so hit order is
        // immaterial.
        let wide_hits = (self.pool.width() > 1).then(|| self.par_ball_hits(&centers));
        let points = &mut self.points;
        let touched = &mut self.touched;
        let mut on_hit = |ci: usize, qid: PointId| {
            let Some(q) = points.get_mut(qid) else {
                return;
            };
            // A stamp older than `first` wraps to at least `arrivals`.
            let qi = q.stamp.wrapping_sub(first);
            if qi < arrivals {
                // Δin-Δin pair: record one orientation, apply both ends
                // later. `qi == ci` is the center finding itself.
                if (ci as u32) < qi {
                    intra.push((ci as u32, qi));
                }
                return;
            }
            if q.in_window {
                q.n_eps += 1;
                gained[ci] += 1;
                if q.stamp != touch {
                    q.stamp = touch;
                    touched.push(qid);
                }
                hits.push((ci as u32, qid));
            }
        };
        match wide_hits {
            Some(wide) => wide
                .into_iter()
                .for_each(|(ci, qid)| on_hit(ci as usize, qid)),
            None => self
                .tree
                .for_each_in_balls(&centers, eps, |ci, qid, _| on_hit(ci, qid)),
        }
        for &(a, b) in &intra {
            gained[a as usize] += 1;
            gained[b as usize] += 1;
        }
        // Opportunistic adoption on settled counts: a pre-existing neighbour
        // whose final `n_ε` meets τ is a core of the new window and may adopt
        // the fresh point. Deciding after the scan (rather than mid-scan)
        // keeps the candidate set — and the min-id winner — independent of
        // the index's traversal order, so all spatial backends agree.
        let mut adopters: Vec<Option<PointId>> = vec![None; centers.len()];
        for &(ci, qid) in &hits {
            let q = self.points.at(qid);
            if q.n_eps as usize >= tau && adopters[ci as usize].is_none_or(|a| qid < a) {
                adopters[ci as usize] = Some(qid);
            }
        }
        if record {
            self.record_neo_balls(batch, &gained, &hits, &intra);
        }

        for (i, (id, _)) in batch.incoming.iter().enumerate() {
            let fresh = self.points.get_mut(*id).expect("arrival vanished");
            fresh.n_eps += gained[i];
            fresh.adopter = adopters[i];
        }
    }

    /// Records the ball of every arrival whose settled count meets τ (a
    /// neo-core): itself, the stayers it hit, then its fellow arrivals in
    /// range — exactly `n_ε` ids. The fellow arrivals are written in two
    /// passes, one per pair orientation, so each ball's order follows its
    /// own center's hits alone — never the interleaving of centers, which
    /// differs between the bulk and the chunked wide traversal.
    fn record_neo_balls(
        &mut self,
        batch: &SlideBatch<D>,
        gained: &[u32],
        hits: &[(u32, PointId)],
        intra: &[(u32, u32)],
    ) {
        let tau = self.cfg.tau;
        let id_of = |i: u32| batch.incoming[i as usize].0;
        let mut cursors: Vec<usize> = gained
            .iter()
            .map(|&g| match 1 + g as usize {
                n_eps if n_eps >= tau => n_eps,
                _ => UNRECORDED,
            })
            .collect();
        self.balls.open_all(&mut cursors);
        let heads = cursors.clone();
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if *cursor != UNRECORDED {
                self.balls.write(cursor, id_of(i as u32));
            }
        }
        for &(ci, qid) in hits {
            let cursor = &mut cursors[ci as usize];
            if *cursor != UNRECORDED {
                self.balls.write(cursor, qid);
            }
        }
        for (from, to) in [(0, 1), (1, 0)] {
            for pair in intra {
                let ends = [pair.0, pair.1];
                let cursor = &mut cursors[ends[from] as usize];
                if *cursor != UNRECORDED {
                    self.balls.write(cursor, id_of(ends[to]));
                }
            }
        }
        for (i, (&head, &cursor)) in heads.iter().zip(&cursors).enumerate() {
            if head != UNRECORDED {
                debug_assert_eq!(cursor - head, 1 + gained[i] as usize, "ball size is n_ε");
                self.balls.close(id_of(i as u32), head, cursor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DiscConfig;
    use crate::engine::Disc;
    use disc_geom::{Point, PointId};
    use disc_index::SpatialBackend;
    use disc_window::SlideBatch;

    fn batch(incoming: &[(u64, f64)], outgoing: &[(u64, f64)]) -> SlideBatch<2> {
        SlideBatch {
            incoming: incoming
                .iter()
                .map(|&(i, x)| (PointId(i), Point::new([x, 0.0])))
                .collect(),
            outgoing: outgoing
                .iter()
                .map(|&(i, x)| (PointId(i), Point::new([x, 0.0])))
                .collect(),
        }
    }

    #[test]
    fn collect_counts_are_self_inclusive() {
        // Three mutually-in-range points: every n_ε is 3 (self + 2).
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        let b = batch(&[(0, 0.0), (1, 0.5), (2, 1.0)], &[]);
        let outcome = disc.collect(&b);
        // ε is inclusive: |0.0 − 1.0| = ε, so all three are mutual
        // neighbours and every count is 3.
        for i in 0..3u64 {
            assert_eq!(disc.points.at(PointId(i)).n_eps, 3, "point {i}");
        }
        // All reach τ=2 and none were cores before: all neo-cores.
        assert_eq!(outcome.neo_cores.len(), 3);
        assert!(outcome.ex_cores.is_empty());
        assert!(outcome.ghosts.is_empty());
    }

    #[test]
    fn departing_core_becomes_a_ghost_until_cluster_runs() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&batch(&[(0, 0.0), (1, 0.5), (2, 1.0)], &[]));
        // Run COLLECT alone for the departure of core 1.
        let b = batch(&[], &[(1, 0.5)]);
        let outcome = disc.collect(&b);
        assert_eq!(outcome.ghosts, vec![PointId(1)]);
        assert!(outcome.ex_cores.contains(&PointId(1)));
        // The ghost is still present with in_window = false; neighbours
        // were decremented.
        let ghost = disc.points.at(PointId(1));
        assert!(!ghost.in_window);
        // 0 and 2 are still neighbours of each other (dist = ε, inclusive).
        assert_eq!(disc.points.at(PointId(0)).n_eps, 2);
        assert_eq!(disc.points.at(PointId(2)).n_eps, 2);
    }

    #[test]
    fn departing_border_leaves_immediately() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        // 0,1,2 tight; 9 hangs off as a border of core 2.
        disc.apply(&batch(&[(0, 0.0), (1, 0.5), (2, 1.0), (9, 1.9)], &[]));
        let b = batch(&[], &[(9, 1.9)]);
        let outcome = disc.collect(&b);
        assert!(outcome.ghosts.is_empty(), "borders never become ghosts");
        assert!(disc.points.get(PointId(9)).is_none());
    }

    #[test]
    fn demoted_point_is_an_ex_core_without_leaving() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(&[(0, 0.0), (1, 0.5), (2, 1.0)], &[]));
        assert!(disc.is_core(PointId(1)));
        // Remove 0: point 1 drops to n=2 < 3 → in-window ex-core.
        let outcome = disc.collect(&batch(&[], &[(0, 0.0)]));
        assert!(outcome.ex_cores.contains(&PointId(1)));
        assert!(disc.points.at(PointId(1)).in_window);
    }

    #[test]
    fn opportunistic_adopters_are_set_at_insert_time() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(&[(0, 0.0), (1, 0.5), (2, 1.0)], &[]));
        // Newcomer lands within ε of established core 2 but stays non-core.
        let outcome = disc.collect(&batch(&[(9, 1.9)], &[]));
        let rec = disc.points.at(PointId(9));
        assert!(rec.adopter.is_some(), "must adopt an existing core");
        assert!(!outcome.neo_cores.contains(&PointId(9)));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinates_are_rejected() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.apply(&SlideBatch {
            incoming: vec![(PointId(0), Point::new([f64::NAN, 0.0]))],
            outgoing: vec![],
        });
    }

    /// The ball CLUSTER would get from a fresh search right now, as a set.
    fn fresh_ball(disc: &mut Disc<2>, id: u64) -> Vec<PointId> {
        let center = disc.points.point_at(PointId(id));
        let mut ball = Vec::new();
        disc.tree.ball_ids_into(&center, 1.0, &mut ball);
        ball.sort_unstable();
        ball
    }

    fn recorded_ball(disc: &Disc<2>, id: u64) -> Option<Vec<PointId>> {
        let mut ball = disc.balls.get(PointId(id))?.to_vec();
        ball.sort_unstable();
        Some(ball)
    }

    #[test]
    fn batched_collect_records_the_balls_cluster_reads() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        let fill = batch(&[(0, 0.0), (1, 0.5), (2, 1.0), (3, -0.9), (5, 5.0)], &[]);
        disc.apply(&fill);
        // Core 0 departs, leaving border 3; 6 and 7 arrive as neo-cores;
        // 8 arrives next to 3 and stays a non-core.
        let out = disc.collect(&batch(&[(6, 1.4), (7, 1.8), (8, -0.8)], &[(0, 0.0)]));
        assert_eq!(out.ghosts, vec![PointId(0)]);
        assert_eq!(out.neo_cores, vec![PointId(6), PointId(7)]);
        // The ghost's ball holds the previous window's cores in range: a
        // search also finds border 3 and arrival 8, which the ex-core phase
        // has no use for.
        let ghost = recorded_ball(&disc, 0).expect("ghost ball recorded");
        assert_eq!(ghost, [0, 1, 2].map(PointId));
        let mut fresh = fresh_ball(&mut disc, 0);
        assert_eq!(fresh, [0, 1, 2, 3, 8].map(PointId));
        fresh.retain(|q| disc.points.at(*q).prev_core);
        assert_eq!(ghost, fresh);
        for neo in [6, 7] {
            let ball = recorded_ball(&disc, neo).expect("neo-core ball recorded");
            assert_eq!(ball.len(), disc.points.at(PointId(neo)).n_eps as usize);
            assert_eq!(ball, fresh_ball(&mut disc, neo));
        }
        // Neither a non-core arrival nor a stayer has a recorded ball.
        assert!(recorded_ball(&disc, 8).is_none());
        assert!(recorded_ball(&disc, 1).is_none());
    }

    #[test]
    fn fills_and_id_sharing_slides_record_no_balls() {
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        let fill = batch(&[(0, 0.0), (1, 0.5), (2, 1.0), (5, 5.0)], &[]);
        disc.collect(&fill);
        assert!((0..6).all(|i| recorded_ball(&disc, i).is_none()));

        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&fill);
        // Noise 5 leaves and re-enters under its own id: the slide falls
        // back to fresh searches, ghost 0 included.
        let out = disc.collect(&batch(&[(5, 1.3)], &[(0, 0.0), (5, 5.0)]));
        assert_eq!(out.ghosts, vec![PointId(0)]);
        assert!((0..6).all(|i| recorded_ball(&disc, i).is_none()));
    }

    /// The touched list, which must name each point once.
    fn touched(disc: &Disc<2>) -> Vec<u64> {
        let mut ids: Vec<u64> = disc.touched.iter().map(|id| id.0).collect();
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "listed twice: {ids:?}");
        ids
    }

    #[test]
    fn departing_border_and_noise_ids_may_reenter_in_their_own_slide() {
        // 0, 1, 2 are cores; 9 borders 2; 5 is noise.
        let fill = batch(&[(0, 0.0), (1, 0.5), (2, 1.0), (9, 1.9), (5, 5.0)], &[]);
        let slide = batch(&[(9, 0.25), (5, 7.0)], &[(9, 1.9), (5, 5.0)]);
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&fill);
        assert_eq!(disc.points.at(PointId(2)).n_eps, 4);
        // Both leave and come back at new places: 9 beside core 1, 5 on its
        // own again. The arrivals must be told from the records they
        // replace, which are gone before the insert traversal runs.
        let out = disc.collect(&slide);
        assert!(out.ghosts.is_empty() && out.ex_cores.is_empty());
        assert_eq!(out.neo_cores, [PointId(9)]);
        for (id, n) in [(0, 4), (1, 4), (2, 4), (9, 4), (5, 1)] {
            assert_eq!(disc.points.at(PointId(id)).n_eps, n, "point {id}");
        }
        assert_eq!(disc.points.at(PointId(9)).point[0], 0.25);
        assert_eq!(touched(&disc), [0, 1, 2, 5, 9]);

        // Through the whole slide: 9 is a neo-core of the same cluster.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&fill);
        let s = disc.apply(&slide);
        assert_eq!(s.neo_cores, 1);
        assert!(disc.is_core(PointId(9)));
        assert_eq!(disc.label_of(PointId(9)), disc.label_of(PointId(0)));
        disc.check_invariants();
    }

    #[test]
    fn a_stayer_touched_by_both_traversals_is_classified_once() {
        // τ = 3: 1 is a non-core with one neighbour (0). It loses 0 and
        // gains 7 and 8 in the same slide, so both traversals touch it.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(&[(0, -0.9), (1, 0.0)], &[]));
        let out = disc.collect(&batch(&[(7, 0.5), (8, 0.9)], &[(0, -0.9)]));
        assert_eq!(out.neo_cores, [1, 7, 8].map(PointId));
        assert_eq!(touched(&disc), [1, 7, 8]);
        assert_eq!(disc.points.at(PointId(1)).n_eps, 3);

        // The mirror image: core 1 loses two neighbours and gains one, and
        // is one ex-core.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.apply(&batch(&[(0, -0.9), (1, 0.0), (2, -0.5)], &[]));
        let out = disc.collect(&batch(&[(7, 0.9)], &[(0, -0.9), (2, -0.5)]));
        assert_eq!(out.ex_cores, [0, 2, 1].map(PointId));
        assert_eq!(out.ghosts, [0, 2].map(PointId));
        assert_eq!(touched(&disc), [1, 7]);
    }

    #[test]
    fn collect_alone_draws_its_own_stamp() {
        // Two COLLECTs with no slide around them: the second must not take
        // the points the first touched as touched already.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 3));
        disc.collect(&batch(&[(0, 0.0), (1, 0.5)], &[]));
        assert_eq!(touched(&disc), [0, 1]);
        let out = disc.collect(&batch(&[(2, 1.0)], &[]));
        assert_eq!(touched(&disc), [0, 1, 2]);
        assert_eq!(out.neo_cores, [0, 1, 2].map(PointId));
        for id in 0..3 {
            assert_eq!(disc.points.at(PointId(id)).n_eps, 3, "point {id}");
        }
    }

    #[test]
    fn intra_batch_pairs_are_counted_once() {
        // Two Δin points within ε of each other: each ends with n_ε = 2.
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 2));
        disc.collect(&batch(&[(0, 0.0), (1, 0.5)], &[]));
        assert_eq!(disc.points.at(PointId(0)).n_eps, 2);
        assert_eq!(disc.points.at(PointId(1)).n_eps, 2);
    }
}
