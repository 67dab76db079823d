//! The ε-balls a slide's COLLECT has already enumerated, kept for CLUSTER.
//!
//! The batched COLLECT traversals (`delete_batched`, `insert_batched`)
//! visit every point in range of every departing and every arriving point.
//! Most of CLUSTER's range searches are centred on exactly those points:
//! the departed cores (ghosts) seed the ex-core phase, and the arrivals
//! that became cores seed the neo-core phase. This store keeps their balls
//! so the phases read them instead of searching again (DESIGN.md §3,
//! "Ball reuse"):
//!
//! * a **ghost** keeps the delete traversal's hits that were cores of the
//!   previous window: the stayers among them and its fellow ghosts. Those
//!   are the only points in its ball the ex-core phase acts on (it gathers
//!   ex-cores and cores of both windows; a ghost takes no adopter, and the
//!   borders that leaned on it were released during COLLECT), so this is
//!   exactly a search's result during that phase filtered to
//!   previous-window cores. The arrivals in range are never such cores.
//! * an **arrival that became a neo-core** keeps itself, the stayers it hit
//!   and its fellow arrivals in range — exactly the index content within ε
//!   during the neo-core phase, after the ghosts left.
//!
//! Every ball is written straight into one flat id column, into room sized
//! before the write: a ghost's previous `n_ε` bounds its hits, and an
//! arrival's settled `n_ε` is its ball's size. Within a ball the order is a
//! pure function of the index and the batch, never of the worker count, so
//! a wide COLLECT records the very same balls.

use disc_geom::{FxHashMap, PointId};

/// Marks a traversal centre whose ball is not recorded.
pub(crate) const UNRECORDED: usize = usize::MAX;

/// The balls recorded during one slide. Dropped when CLUSTER is done: it
/// is O(stride · ball) slide scratch, not window state.
#[derive(Debug, Default)]
pub(crate) struct BallStore {
    /// Each recorded ball as its range in `ids`.
    spans: FxHashMap<PointId, std::ops::Range<usize>>,
    ids: Vec<PointId>,
}

impl BallStore {
    /// Whether no ball is recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// `center`'s recorded ball.
    pub(crate) fn get(&self, center: PointId) -> Option<&[PointId]> {
        // A fill records nothing and looks up every center: skip the hash.
        if self.is_empty() {
            return None;
        }
        Some(&self.ids[self.spans.get(&center)?.clone()])
    }

    /// Opens one ball per entry of `sizes` other than [`UNRECORDED`], after
    /// reserving room for all of them, and turns each size into its ball's
    /// write cursor; [`close`](Self::close) seals a ball.
    pub(crate) fn open_all(&mut self, sizes: &mut [usize]) {
        let open = sizes.iter().filter(|&&n| n != UNRECORDED);
        self.spans.reserve(open.clone().count());
        self.ids.reserve(open.sum());
        for slot in sizes.iter_mut().filter(|n| **n != UNRECORDED) {
            let head = self.ids.len();
            self.ids.resize(head + *slot, PointId(0));
            *slot = head;
        }
    }

    /// Writes one hit at `cursor` and advances it.
    #[inline]
    pub(crate) fn write(&mut self, cursor: &mut usize, id: PointId) {
        self.ids[*cursor] = id;
        *cursor += 1;
    }

    /// Seals `center`'s ball as the slots from `head` up to `cursor`.
    pub(crate) fn close(&mut self, center: PointId, head: usize, cursor: usize) {
        self.spans.insert(center, head..cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balls_read_back_as_written() {
        let mut store = BallStore::default();
        let (g, a) = (PointId(7), PointId(40));
        // A ghost with room for 3 hits that gets 2, a skipped center, and
        // an arrival with exactly 2.
        let mut cursors = [3, UNRECORDED, 2];
        store.open_all(&mut cursors);
        let heads = cursors;
        assert_eq!(cursors[1], UNRECORDED);
        store.write(&mut cursors[0], g);
        store.write(&mut cursors[0], PointId(2));
        store.write(&mut cursors[2], a);
        store.write(&mut cursors[2], PointId(2));
        store.close(g, heads[0], cursors[0]);
        store.close(a, heads[2], cursors[2]);

        assert_eq!(store.get(g), Some(&[g, PointId(2)][..]));
        assert_eq!(store.get(a), Some(&[a, PointId(2)][..]));
        assert!(store.get(PointId(2)).is_none());
    }
}
