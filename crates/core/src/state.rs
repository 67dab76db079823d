//! Engine state snapshot/restore — the in-memory half of durability.
//!
//! [`EngineState`] is a plain-data image of everything a [`Disc`] engine
//! needs to resume exactly where it stopped: the configuration, the slide
//! counter, every window point's record, and the raw cluster union-find.
//! The spatial index is deliberately *not* serialized structurally — it is
//! derived data, rebuilt from the window points via `bulk_insert` on
//! restore, which keeps the format backend-independent (one checkpoint
//! restores into either `Disc<D>` or `Disc<D, GridIndex<D>>`).
//!
//! [`Disc::from_state`] validates the image before constructing anything:
//! a checkpoint decoded from disk is untrusted input, and a malformed one
//! must produce a typed [`StateError`], never a partially-built engine.

use crate::config::{DiscConfig, IndexBackend};
use crate::dsu::Dsu;
use crate::engine::{Disc, SlideError};
use crate::label::ClusterId;
use crate::record::PointRecord;
use crate::store::PointStore;
use disc_geom::{FxHashSet, Point, PointId};
use disc_index::SpatialBackend;
use disc_window::SlideBatch;

/// One window point as serialized into a checkpoint.
///
/// `in_window` is omitted: between slides every live record is in the
/// window (ghosts exist only mid-slide, and state is only exported between
/// slides).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointState<const D: usize> {
    /// Stable arrival id.
    pub id: PointId,
    /// Spatial location.
    pub point: Point<D>,
    /// Self-inclusive ε-neighbour count.
    pub n_eps: u32,
    /// Core status frozen at the end of the last slide.
    pub prev_core: bool,
    /// Raw cluster id (`u32::MAX` when never clustered).
    pub cid: u32,
    /// Adopter core for border points.
    pub adopter: Option<PointId>,
}

/// A complete, self-contained image of a [`Disc`] engine between slides.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineState<const D: usize> {
    /// The configuration in force.
    pub config: DiscConfig,
    /// Committed slides so far.
    pub slide_seq: u64,
    /// Every window point, sorted by arrival id.
    pub points: Vec<PointState<D>>,
    /// Cluster union-find parent vector.
    pub dsu_parent: Vec<u32>,
    /// Cluster union-find size vector.
    pub dsu_size: Vec<u32>,
}

/// Why an [`EngineState`] cannot be restored.
///
/// Returned by [`Disc::from_state`]; every variant names the part of the
/// image that failed validation so corrupted checkpoints are diagnosable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The configuration is unusable (non-positive ε, zero τ, …).
    InvalidConfig(String),
    /// The union-find vectors are malformed (length mismatch,
    /// out-of-bounds parent, cycle).
    InvalidDsu(String),
    /// A point record is malformed; names the offending id.
    InvalidRecord(PointId, String),
    /// Replaying a WAL batch on top of the restored state failed — the log
    /// does not continue the checkpoint it was paired with.
    Replay {
        /// 1-based sequence number of the slide that failed to apply.
        slide: u64,
        /// The underlying rejection.
        error: SlideError,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            StateError::InvalidDsu(msg) => write!(f, "invalid cluster union-find: {msg}"),
            StateError::InvalidRecord(id, msg) => write!(f, "invalid record for {id}: {msg}"),
            StateError::Replay { slide, error } => {
                write!(f, "replaying slide {slide}: {error}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl<const D: usize, B: SpatialBackend<D>> Disc<D, B> {
    /// Exports a complete image of the engine's state.
    ///
    /// Must be called *between* slides (the only time a `&self` method can
    /// run), when no ghosts are live and every record is in the window.
    /// Points are sorted by id so the image — and any checkpoint written
    /// from it — is byte-deterministic for a given engine state.
    pub fn export_state(&self) -> EngineState<D> {
        let mut points: Vec<PointState<D>> = self
            .points
            .iter()
            .map(|(id, rec)| {
                debug_assert!(rec.in_window, "ghost {id} live during export");
                PointState {
                    id,
                    point: rec.point,
                    n_eps: rec.n_eps,
                    prev_core: rec.prev_core,
                    cid: rec.cid.0,
                    adopter: rec.adopter,
                }
            })
            .collect();
        points.sort_unstable_by_key(|p| p.id);
        EngineState {
            config: self.cfg,
            slide_seq: self.slide_seq(),
            points,
            dsu_parent: self.clusters.parent_slice().to_vec(),
            dsu_size: self.clusters.size_slice().to_vec(),
        }
    }

    /// Rebuilds an engine from an exported image.
    ///
    /// Validates the image exhaustively first — configuration bounds,
    /// union-find well-formedness, per-record finiteness, cluster-id
    /// bounds, adopter resolvability, duplicate ids — and only then
    /// constructs the engine, rebuilding the spatial index from the window
    /// points via `bulk_insert`. On `Err` nothing is constructed; a
    /// corrupt image can never yield a partially-restored engine.
    ///
    /// The restored engine reports exactly the same `assignments()`,
    /// `num_clusters()`, `census()` and `snapshot()` as the engine that
    /// exported the image.
    pub fn from_state(state: EngineState<D>) -> Result<Self, StateError> {
        let cfg = state.config;
        if !(cfg.eps > 0.0 && cfg.eps.is_finite()) {
            return Err(StateError::InvalidConfig(format!(
                "eps must be positive and finite, got {}",
                cfg.eps
            )));
        }
        if cfg.tau < 1 {
            return Err(StateError::InvalidConfig("tau must be at least 1".into()));
        }

        let clusters =
            Dsu::from_parts(state.dsu_parent, state.dsu_size).map_err(StateError::InvalidDsu)?;
        let dsu_len = clusters.len() as u32;

        // Every id first, so the adopter check below is one lookup however
        // the image orders a border and its adopter.
        let ids: FxHashSet<PointId> = state.points.iter().map(|p| p.id).collect();
        let mut seen: FxHashSet<PointId> = FxHashSet::default();
        for p in &state.points {
            if !seen.insert(p.id) {
                return Err(StateError::InvalidRecord(p.id, "duplicate id".into()));
            }
            if !p.point.is_finite() {
                return Err(StateError::InvalidRecord(
                    p.id,
                    "non-finite coordinates".into(),
                ));
            }
            if p.n_eps < 1 {
                return Err(StateError::InvalidRecord(
                    p.id,
                    "n_eps below the self-count of 1".into(),
                ));
            }
            let is_core = p.n_eps as usize >= cfg.tau;
            if is_core && p.cid >= dsu_len {
                return Err(StateError::InvalidRecord(
                    p.id,
                    format!("core cluster id {} outside dsu of {dsu_len} slots", p.cid),
                ));
            }
            if p.cid != u32::MAX && p.cid >= dsu_len {
                return Err(StateError::InvalidRecord(
                    p.id,
                    format!("cluster id {} outside dsu of {dsu_len} slots", p.cid),
                ));
            }
            if let Some(a) = p.adopter {
                if is_core {
                    return Err(StateError::InvalidRecord(
                        p.id,
                        format!("core point carries adopter {a}"),
                    ));
                }
                if !ids.contains(&a) {
                    return Err(StateError::InvalidRecord(
                        p.id,
                        format!("adopter {a} is not in the window"),
                    ));
                }
            }
        }

        // Validation passed: build the engine in one go.
        let mut points: PointStore<D> = PointStore::new();
        if let (Some(first), Some(last)) = (state.points.first(), state.points.last()) {
            let span = (last.id.raw() - first.id.raw() + 1) as usize;
            points.reserve_span(span.max(state.points.len()));
        }
        let mut items: Vec<(PointId, Point<D>)> = Vec::with_capacity(state.points.len());
        for p in &state.points {
            items.push((p.id, p.point));
            points.insert(
                p.id,
                PointRecord {
                    point: p.point,
                    n_eps: p.n_eps,
                    in_window: true,
                    prev_core: p.prev_core,
                    cid: ClusterId(p.cid),
                    adopter: p.adopter,
                },
            );
        }
        let mut tree = B::with_eps_hint(cfg.eps);
        tree.bulk_insert(items);

        let mut disc = Disc::with_index(cfg);
        disc.points = points;
        disc.tree = tree;
        disc.clusters = clusters;
        disc.set_slide_seq(state.slide_seq);
        Ok(disc)
    }

    /// Restores an engine from `state` and replays `tail` — the committed
    /// slide batches logged *after* the state was exported, in order.
    ///
    /// This is the recovery path: load the last checkpoint, then replay the
    /// WAL tail. Returns the recovered engine and the number of replayed
    /// slides. A batch the engine rejects turns into
    /// [`StateError::Replay`] naming the failing slide — a WAL that does
    /// not continue its checkpoint fails loudly instead of silently
    /// producing a diverged clustering.
    pub fn recover<I>(state: EngineState<D>, tail: I) -> Result<(Self, u64), StateError>
    where
        I: IntoIterator<Item = SlideBatch<D>>,
    {
        let mut disc = Self::from_state(state)?;
        let mut replayed = 0u64;
        for batch in tail {
            let slide = disc.slide_seq() + 1;
            disc.try_apply(&batch)
                .map_err(|error| StateError::Replay { slide, error })?;
            replayed += 1;
        }
        Ok((disc, replayed))
    }
}

/// Declares which engine instantiation a checkpoint restores into; used by
/// drivers to reject a checkpoint written for the other backend *type*
/// before attempting a restore (the format itself is backend-independent).
pub fn backend_of<const D: usize>(state: &EngineState<D>) -> IndexBackend {
    state.config.backend
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_index::{GridIndex, RTree};

    fn stream(n: u64) -> Vec<(PointId, Point<2>)> {
        (0..n)
            .map(|i| {
                (
                    PointId(i),
                    Point::new([(i % 13) as f64 * 0.4, (i / 13) as f64 * 0.4]),
                )
            })
            .collect()
    }

    fn engine_after_slides<B: SpatialBackend<2>>(slides: usize) -> Disc<2, B> {
        let pts = stream(120);
        let mut disc: Disc<2, B> = Disc::with_index(DiscConfig::new(0.9, 4));
        disc.apply(&SlideBatch {
            incoming: pts[..60].to_vec(),
            outgoing: Vec::new(),
        });
        for s in 0..slides {
            let lo = s * 10;
            disc.apply(&SlideBatch {
                incoming: pts[60 + lo..70 + lo].to_vec(),
                outgoing: pts[lo..lo + 10].to_vec(),
            });
        }
        disc
    }

    fn roundtrip<B: SpatialBackend<2>>() {
        let disc: Disc<2, B> = engine_after_slides(3);
        let state = disc.export_state();
        assert_eq!(state.slide_seq, 4);
        assert!(state.points.windows(2).all(|w| w[0].id < w[1].id));
        let mut back: Disc<2, B> = Disc::from_state(state.clone()).unwrap();
        assert_eq!(back.slide_seq(), disc.slide_seq());
        assert_eq!(back.assignments(), disc.assignments());
        assert_eq!(back.num_clusters(), disc.num_clusters());
        assert_eq!(back.census(), disc.census());
        assert_eq!(back.snapshot(), disc.snapshot());
        back.check_invariants();
        // The image itself is stable under a second export.
        assert_eq!(back.export_state(), state);
    }

    #[test]
    fn export_restores_identically_on_rtree() {
        roundtrip::<RTree<2>>();
    }

    #[test]
    fn export_restores_identically_on_grid() {
        roundtrip::<GridIndex<2>>();
    }

    #[test]
    fn restored_engine_continues_like_the_original() {
        let pts = stream(120);
        let mut original: Disc<2> = engine_after_slides(2);
        let mut restored: Disc<2> = Disc::from_state(original.export_state()).unwrap();
        for s in 2..4 {
            let lo = s * 10;
            let batch = SlideBatch {
                incoming: pts[60 + lo..70 + lo].to_vec(),
                outgoing: pts[lo..lo + 10].to_vec(),
            };
            original.apply(&batch);
            restored.apply(&batch);
            assert_eq!(original.assignments(), restored.assignments());
        }
        restored.check_invariants();
    }

    #[test]
    fn recover_replays_the_tail() {
        let pts = stream(120);
        let mut original: Disc<2> = engine_after_slides(1);
        let state = original.export_state();
        let mut tail = Vec::new();
        for s in 1..4 {
            let lo = s * 10;
            let batch = SlideBatch {
                incoming: pts[60 + lo..70 + lo].to_vec(),
                outgoing: pts[lo..lo + 10].to_vec(),
            };
            original.apply(&batch);
            tail.push(batch);
        }
        let (mut recovered, replayed) = Disc::<2>::recover(state, tail).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(recovered.slide_seq(), original.slide_seq());
        assert_eq!(recovered.assignments(), original.assignments());
        recovered.check_invariants();
    }

    #[test]
    fn recover_rejects_a_wal_that_does_not_continue_the_checkpoint() {
        let disc: Disc<2> = engine_after_slides(1);
        let state = disc.export_state();
        // A batch retiring a point that is not in the window cannot be a
        // committed continuation of this checkpoint.
        let bogus = SlideBatch::<2> {
            incoming: Vec::new(),
            outgoing: vec![(PointId(9999), Point::new([0.0, 0.0]))],
        };
        let err = match Disc::<2>::recover(state, vec![bogus]) {
            Ok(_) => panic!("bogus tail replayed"),
            Err(e) => e,
        };
        match err {
            StateError::Replay { slide, error } => {
                assert_eq!(slide, 3);
                assert_eq!(error, SlideError::UnknownOutgoing(PointId(9999)));
            }
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    #[test]
    fn malformed_images_are_rejected() {
        let disc: Disc<2> = engine_after_slides(1);
        let good = disc.export_state();

        let mut bad = good.clone();
        bad.config.eps = f64::NAN;
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidConfig(_))
        ));

        let mut bad = good.clone();
        bad.config.tau = 0;
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidConfig(_))
        ));

        let mut bad = good.clone();
        bad.dsu_parent[0] = 9999;
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidDsu(_))
        ));

        let mut bad = good.clone();
        let n = bad.dsu_parent.len();
        if n >= 2 {
            bad.dsu_parent[0] = 1;
            bad.dsu_parent[1] = 0;
            assert!(matches!(
                Disc::<2>::from_state(bad),
                Err(StateError::InvalidDsu(_))
            ));
        }

        let mut bad = good.clone();
        bad.points[0].point = Point::new([f64::INFINITY, 0.0]);
        let id = bad.points[0].id;
        match Disc::<2>::from_state(bad) {
            Err(StateError::InvalidRecord(bad_id, msg)) => {
                assert_eq!(bad_id, id);
                assert_eq!(msg, "non-finite coordinates");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("non-finite image restored"),
        }

        let mut bad = good.clone();
        let dup = bad.points[0];
        bad.points.push(dup);
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidRecord(_, _))
        ));

        let mut bad = good.clone();
        bad.points[0].n_eps = 0;
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidRecord(_, _))
        ));

        let mut bad = good.clone();
        let core_idx = bad
            .points
            .iter()
            .position(|p| p.n_eps as usize >= bad.config.tau)
            .expect("stream produces cores");
        bad.points[core_idx].cid = u32::MAX - 1;
        assert!(matches!(
            Disc::<2>::from_state(bad),
            Err(StateError::InvalidRecord(_, _))
        ));

        let mut bad = good.clone();
        let border_idx = bad.points.iter().position(|p| p.adopter.is_some());
        if let Some(i) = border_idx {
            bad.points[i].adopter = Some(PointId(123_456));
            assert!(matches!(
                Disc::<2>::from_state(bad),
                Err(StateError::InvalidRecord(_, _))
            ));
        }

        // The pristine image still restores.
        assert!(Disc::<2>::from_state(good).is_ok());
    }

    #[test]
    fn forward_adopters_restore_and_a_missing_one_is_named() {
        // Border 0 leans on core 1, which sorts after it in the image.
        let row = |i: u64, x: f64| (PointId(i), Point::new([x, 0.0]));
        let mut disc: Disc<2> = Disc::new(DiscConfig::new(1.0, 4));
        disc.apply(&SlideBatch {
            incoming: vec![
                row(0, 0.05),
                row(1, 1.0),
                row(2, 1.1),
                row(3, 1.2),
                row(4, 1.3),
            ],
            outgoing: Vec::new(),
        });
        let good = disc.export_state();
        assert_eq!(good.points[0].adopter, Some(PointId(1)));
        let back: Disc<2> = Disc::from_state(good.clone()).unwrap();
        assert_eq!(back.assignments(), disc.assignments());

        let mut bad = good;
        bad.points[0].adopter = Some(PointId(77));
        match Disc::<2>::from_state(bad) {
            Err(StateError::InvalidRecord(id, msg)) => {
                assert_eq!(id, PointId(0));
                assert!(msg.contains("adopter p77 is not in the window"), "{msg}");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("image with a missing adopter restored"),
        }
    }

    #[test]
    fn backend_of_reads_the_declared_backend() {
        let disc: Disc<2> = engine_after_slides(0);
        assert_eq!(backend_of(&disc.export_state()), IndexBackend::RTree);
    }
}
