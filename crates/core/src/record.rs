//! Per-point state of the current window.

use crate::label::ClusterId;
use disc_geom::{Point, PointId};

/// Everything DISC tracks about one point.
///
/// Core status is *derived*: a point is a core of the current window iff it
/// is still in the window and `n_eps >= tau`. `prev_core` freezes that
/// predicate as of the end of the previous slide, which is what the
/// ex-core / neo-core definitions (Defs. 1–2) compare against.
#[derive(Clone, Copy, Debug)]
pub struct PointRecord<const D: usize> {
    /// Spatial location.
    pub point: Point<D>,
    /// Self-inclusive ε-neighbour count `n_ε(p)`.
    pub n_eps: u32,
    /// Whether the point is in the current window. Ex-cores of `Δout` keep
    /// a record (and their R-tree entry) with `in_window = false` until the
    /// ex-core phase is done — the paper's `C_out` set.
    pub in_window: bool,
    /// Core status at the end of the previous slide.
    pub prev_core: bool,
    /// Raw cluster id, meaningful while the point is a core. Resolve
    /// through the cluster DSU for the canonical id.
    pub cid: ClusterId,
    /// For non-core points: a core within ε whose cluster this point
    /// borders. `None` means noise (or not yet resolved during a slide).
    pub adopter: Option<PointId>,
}

/// The non-spatial half of a [`PointRecord`].
///
/// The window store keeps coordinates in struct-of-arrays columns (see
/// `disc_geom::soa`) and the algorithmic state in a parallel `PointMeta`
/// column; `PointRecord` is the assembled-on-read AoS *view* the engine
/// APIs keep exposing. Mutation paths go straight at the meta column — the
/// hot loops of COLLECT/CLUSTER never rewrite coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointMeta {
    /// Self-inclusive ε-neighbour count `n_ε(p)`.
    pub n_eps: u32,
    /// Whether the point is in the current window (`C_out` ghosts: false).
    pub in_window: bool,
    /// Core status at the end of the previous slide.
    pub prev_core: bool,
    /// Raw cluster id; resolve through the cluster DSU.
    pub cid: ClusterId,
    /// Adopting core for non-core points; `None` = noise/unresolved.
    pub adopter: Option<PointId>,
    /// Slide scratch: the last stamp the engine marked this point with
    /// (COLLECT's touched mark and arrival index, CLUSTER's absorbed and
    /// seen marks). Meaningful only against a value drawn in the current
    /// phase, so it is never cleared, never exported and never compared
    /// across slides. It sits in what was padding: the meta stays 32 B.
    pub stamp: u32,
}

impl PointMeta {
    /// Fresh meta for a point entering the window.
    pub fn new() -> Self {
        PointMeta {
            n_eps: 1, // the point itself
            in_window: true,
            prev_core: false,
            cid: ClusterId(u32::MAX),
            adopter: None,
            stamp: 0,
        }
    }

    /// Core predicate for the *current* window given τ.
    #[inline]
    pub fn is_core(&self, tau: usize) -> bool {
        self.in_window && self.n_eps as usize >= tau
    }

    /// "Core in both windows" — the membership test of `M⁻`/`M⁺`.
    #[inline]
    pub fn core_in_both(&self, tau: usize) -> bool {
        self.prev_core && self.is_core(tau)
    }

    /// Ex-core predicate (Def. 1).
    #[inline]
    pub fn is_ex_core(&self, tau: usize) -> bool {
        self.prev_core && !self.is_core(tau)
    }

    /// Neo-core predicate (Def. 2).
    #[inline]
    pub fn is_neo_core(&self, tau: usize) -> bool {
        !self.prev_core && self.is_core(tau)
    }
}

impl Default for PointMeta {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> PointRecord<D> {
    /// Fresh record for a point entering the window.
    pub fn new(point: Point<D>) -> Self {
        Self::from_parts(point, PointMeta::new())
    }

    /// Assembles the AoS view from a coordinate and its meta column entry.
    #[inline]
    pub fn from_parts(point: Point<D>, meta: PointMeta) -> Self {
        PointRecord {
            point,
            n_eps: meta.n_eps,
            in_window: meta.in_window,
            prev_core: meta.prev_core,
            cid: meta.cid,
            adopter: meta.adopter,
        }
    }

    /// The non-spatial half, column-ready, with a blank stamp.
    #[inline]
    pub fn meta(&self) -> PointMeta {
        PointMeta {
            n_eps: self.n_eps,
            in_window: self.in_window,
            prev_core: self.prev_core,
            cid: self.cid,
            adopter: self.adopter,
            stamp: 0,
        }
    }

    /// Core predicate for the *current* window given τ.
    #[inline]
    pub fn is_core(&self, tau: usize) -> bool {
        self.in_window && self.n_eps as usize >= tau
    }

    /// "Core in both windows" — the membership test of `M⁻`/`M⁺`
    /// (Defs. 4 and 6).
    #[inline]
    pub fn core_in_both(&self, tau: usize) -> bool {
        self.prev_core && self.is_core(tau)
    }

    /// Ex-core predicate (Def. 1): was a core, and either left the window
    /// or is no longer a core.
    #[inline]
    pub fn is_ex_core(&self, tau: usize) -> bool {
        self.prev_core && !self.is_core(tau)
    }

    /// Neo-core predicate (Def. 2): is a core now but was not one before.
    #[inline]
    pub fn is_neo_core(&self, tau: usize) -> bool {
        !self.prev_core && self.is_core(tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_counts_itself() {
        let r: PointRecord<2> = PointRecord::new(Point::new([0.0, 0.0]));
        assert_eq!(r.n_eps, 1);
        assert!(r.in_window);
        assert!(!r.prev_core);
        assert!(r.is_neo_core(1), "tau=1 makes every point a core");
        assert!(!r.is_neo_core(2));
    }

    #[test]
    fn the_stamp_fits_in_the_padding() {
        // Every window slot carries one meta: a field that widened it
        // would cost 8 B per slot in `experiments memory`.
        assert_eq!(std::mem::size_of::<PointMeta>(), 32);
    }

    #[test]
    fn predicates_cover_the_status_matrix() {
        let mut r: PointRecord<2> = PointRecord::new(Point::new([0.0, 0.0]));
        r.n_eps = 5;
        r.prev_core = true;
        assert!(r.core_in_both(5));
        assert!(!r.is_ex_core(5));
        assert!(!r.is_neo_core(5));

        r.n_eps = 4; // lost density
        assert!(r.is_ex_core(5));
        assert!(!r.core_in_both(5));

        r.n_eps = 5;
        r.in_window = false; // left the window
        assert!(r.is_ex_core(5));

        r.in_window = true;
        r.prev_core = false; // gained status
        assert!(r.is_neo_core(5));
    }
}
