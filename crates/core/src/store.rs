//! A ring-buffer point store over struct-of-arrays columns.
//!
//! Under the count-based sliding window, live point ids always fall in a
//! span of at most `window + stride` consecutive arrival indices (window
//! contents plus the in-flight slide's ghosts). That makes a hash map
//! needlessly slow for the per-neighbour lookups on DISC's hot paths: this
//! store maps `id → slot = id mod capacity`, giving O(1) array access with
//! no hashing. Capacity doubles transparently if a slide ever widens the
//! live span (e.g. a first window smaller than later strides).
//!
//! Storage is split columnar (see [`disc_geom::soa`]): coordinates live in
//! one contiguous `Vec<f64>` per dimension (the id column doubles as the
//! occupancy map, [`EMPTY_ROW`] marking free slots), and the algorithmic
//! per-point state lives in a parallel [`PointMeta`] column. Reads
//! reassemble the familiar [`PointRecord`] *view* by value — `PointRecord`
//! is `Copy` and two cache lines wide, so the view costs no more than the
//! old `&PointRecord` double-indirection did — while mutation goes through
//! [`get_mut`](PointStore::get_mut) straight at the meta column without
//! touching coordinates.

use crate::record::{PointMeta, PointRecord};
use disc_geom::soa::{PointStore as SoaColumns, EMPTY_ROW};
use disc_geom::{Point, PointId};

/// Dense id-indexed storage for the window's [`PointRecord`]s.
#[derive(Clone, Debug)]
pub struct PointStore<const D: usize> {
    /// Coordinate + id columns; `ids[slot] == EMPTY_ROW` marks a free slot.
    coords: SoaColumns<D>,
    /// Algorithmic state, parallel to the coordinate rows.
    meta: Vec<PointMeta>,
    len: usize,
}

impl<const D: usize> Default for PointStore<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> PointStore<D> {
    /// An empty store.
    pub fn new() -> Self {
        let mut coords = SoaColumns::new();
        coords.resize_rows(1024);
        PointStore {
            coords,
            meta: vec![PointMeta::new(); 1024],
            len: 0,
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, id: PointId) -> usize {
        (id.raw() as usize) & (self.coords.len() - 1)
    }

    #[inline]
    fn slot_of(&self, id: PointId) -> Option<usize> {
        let slot = self.slot(id);
        (self.coords.id_at(slot) == id.raw()).then_some(slot)
    }

    /// Read access (assembled by value); `None` if `id` is not stored.
    #[inline]
    pub fn get(&self, id: PointId) -> Option<PointRecord<D>> {
        let slot = self.slot_of(id)?;
        Some(PointRecord::from_parts(
            self.coords.point_at(slot),
            self.meta[slot],
        ))
    }

    /// Mutable access to the algorithmic state; `None` if `id` is not
    /// stored. Coordinates are immutable once inserted.
    #[inline]
    pub fn get_mut(&mut self, id: PointId) -> Option<&mut PointMeta> {
        let slot = self.slot_of(id)?;
        Some(&mut self.meta[slot])
    }

    /// Read access that panics on a missing id (hot-path `[]` analogue).
    #[inline]
    pub fn at(&self, id: PointId) -> PointRecord<D> {
        self.get(id)
            .unwrap_or_else(|| panic!("point {id} not in the store"))
    }

    /// Coordinate-only read, skipping meta assembly (hot-path helper for
    /// the many `at(id).point` sites). Panics on a missing id.
    #[inline]
    pub fn point_at(&self, id: PointId) -> Point<D> {
        match self.slot_of(id) {
            Some(slot) => self.coords.point_at(slot),
            None => panic!("point {id} not in the store"),
        }
    }

    /// Meta-only read by value. Panics on a missing id.
    #[inline]
    pub fn meta_at(&self, id: PointId) -> PointMeta {
        match self.slot_of(id) {
            Some(slot) => self.meta[slot],
            None => panic!("point {id} not in the store"),
        }
    }

    /// Meta-only read by reference; `None` if `id` is not stored. Touches
    /// the id and meta columns only, never the coordinates.
    #[inline]
    pub fn meta_of(&self, id: PointId) -> Option<&PointMeta> {
        let slot = self.slot_of(id)?;
        Some(&self.meta[slot])
    }

    /// Whether `id` is stored.
    #[inline]
    pub fn contains(&self, id: PointId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Inserts a record and returns its meta. Panics if `id` is already
    /// present (the window driver guarantees unique arrivals). Grows if the
    /// slot is taken by a different live id — the live span exceeded the
    /// capacity.
    pub fn insert(&mut self, id: PointId, rec: PointRecord<D>) -> &mut PointMeta {
        loop {
            let slot = self.slot(id);
            let occupant = self.coords.id_at(slot);
            if occupant == EMPTY_ROW {
                self.coords.set_row(slot, id.raw(), &rec.point);
                self.meta[slot] = rec.meta();
                self.len += 1;
                return &mut self.meta[slot];
            }
            if occupant == id.raw() {
                panic!("point {id} inserted twice");
            }
            self.grow();
        }
    }

    /// Removes and returns the record for `id`.
    pub fn remove(&mut self, id: PointId) -> Option<PointRecord<D>> {
        let slot = self.slot_of(id)?;
        let rec = PointRecord::from_parts(self.coords.point_at(slot), self.meta[slot]);
        self.coords.clear_row(slot);
        self.len -= 1;
        Some(rec)
    }

    fn grow(&mut self) {
        let old_cap = self.coords.len();
        let new_cap = old_cap * 2;
        let mut coords = SoaColumns::new();
        coords.resize_rows(new_cap);
        let mut meta = vec![PointMeta::new(); new_cap];
        for slot in 0..old_cap {
            let raw = self.coords.id_at(slot);
            if raw == EMPTY_ROW {
                continue;
            }
            let new_slot = (raw as usize) & (new_cap - 1);
            debug_assert!(
                coords.id_at(new_slot) == EMPTY_ROW,
                "live span exceeds doubled capacity"
            );
            let p = self.coords.point_at(slot);
            coords.set_row(new_slot, raw, &p);
            meta[new_slot] = self.meta[slot];
        }
        self.coords = coords;
        self.meta = meta;
    }

    /// Iterates over `(id, record)` pairs (records by value) in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, PointRecord<D>)> + '_ {
        (0..self.coords.len()).filter_map(move |slot| {
            let raw = self.coords.id_at(slot);
            (raw != EMPTY_ROW).then(|| {
                (
                    PointId(raw),
                    PointRecord::from_parts(self.coords.point_at(slot), self.meta[slot]),
                )
            })
        })
    }

    /// Iterates over `(id, meta)` pairs in unspecified order (the same
    /// slot order as [`iter`](PointStore::iter)). Walks the id and meta
    /// columns only, so a read-out that needs no coordinates streams a
    /// fraction of the memory `iter` assembles.
    pub fn iter_meta(&self) -> impl Iterator<Item = (PointId, &PointMeta)> + '_ {
        self.coords
            .ids()
            .iter()
            .zip(&self.meta)
            .filter(|&(&raw, _)| raw != EMPTY_ROW)
            .map(|(&raw, meta)| (PointId(raw), meta))
    }

    /// Blanks every slot's stamp (the engine's stamp counter wrapped).
    pub fn clear_stamps(&mut self) {
        self.meta.iter_mut().for_each(|m| m.stamp = 0);
    }

    /// Pre-sizes the store for an expected live span.
    pub fn reserve_span(&mut self, span: usize) {
        while self.coords.len() < span.next_power_of_two() {
            self.grow();
        }
    }
}

impl<const D: usize> disc_telemetry::MemoryFootprint for PointStore<D> {
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        use disc_telemetry::FootprintNode;
        FootprintNode::branch(
            "points",
            vec![
                FootprintNode::leaf("coords", self.coords.heap_bytes()),
                FootprintNode::leaf(
                    "meta",
                    self.meta.capacity() * std::mem::size_of::<PointMeta>(),
                ),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_geom::Point;

    fn rec(x: f64) -> PointRecord<2> {
        PointRecord::new(Point::new([x, 0.0]))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: PointStore<2> = PointStore::new();
        for i in 0..500u64 {
            s.insert(PointId(i), rec(i as f64));
        }
        assert_eq!(s.len(), 500);
        assert_eq!(s.at(PointId(42)).point[0], 42.0);
        assert_eq!(s.point_at(PointId(42))[0], 42.0);
        assert!(s.get(PointId(9999)).is_none());
        assert_eq!(s.remove(PointId(42)).unwrap().point[0], 42.0);
        assert!(s.get(PointId(42)).is_none());
        assert_eq!(s.len(), 499);
        assert!(s.remove(PointId(42)).is_none());
    }

    #[test]
    fn sliding_id_ranges_reuse_slots() {
        // Simulate a long stream with a small live span: ids wrap around
        // the ring without collisions.
        let mut s: PointStore<2> = PointStore::new();
        let window = 600u64;
        for i in 0..20_000u64 {
            s.insert(PointId(i), rec(i as f64));
            if i >= window {
                assert!(s.remove(PointId(i - window)).is_some());
            }
        }
        assert_eq!(s.len() as u64, window);
        assert_eq!(s.at(PointId(19_999)).point[0], 19_999.0);
    }

    #[test]
    fn grows_when_span_exceeds_capacity() {
        let mut s: PointStore<2> = PointStore::new();
        // 3000 concurrent live ids exceed the initial 1024 slots.
        for i in 0..3000u64 {
            s.insert(PointId(i), rec(i as f64));
        }
        assert_eq!(s.len(), 3000);
        for i in 0..3000u64 {
            assert_eq!(s.at(PointId(i)).point[0], i as f64);
        }
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s: PointStore<2> = PointStore::new();
        s.insert(PointId(7), rec(1.0));
        s.get_mut(PointId(7)).unwrap().n_eps = 99;
        assert_eq!(s.at(PointId(7)).n_eps, 99);
        assert_eq!(s.meta_at(PointId(7)).n_eps, 99);
        assert!(s.get_mut(PointId(8)).is_none());
    }

    #[test]
    fn meta_survives_growth() {
        let mut s: PointStore<2> = PointStore::new();
        for i in 0..2000u64 {
            s.insert(PointId(i), rec(i as f64));
            s.get_mut(PointId(i)).unwrap().n_eps = i as u32 + 10;
        }
        for i in 0..2000u64 {
            let r = s.at(PointId(i));
            assert_eq!(r.n_eps, i as u32 + 10);
            assert_eq!(r.point[0], i as f64);
        }
    }

    #[test]
    fn iter_visits_every_live_record_once() {
        let mut s: PointStore<2> = PointStore::new();
        for i in 100..200u64 {
            s.insert(PointId(i), rec(i as f64));
        }
        let mut ids: Vec<u64> = s.iter().map(|(id, _)| id.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (100..200).collect::<Vec<_>>());
    }

    #[test]
    fn iter_meta_matches_iter_in_slot_order() {
        let mut s: PointStore<2> = PointStore::new();
        for i in 900..1400u64 {
            s.insert(PointId(i), rec(i as f64));
            s.get_mut(PointId(i)).unwrap().n_eps = i as u32;
            if i % 3 == 0 {
                s.remove(PointId(i - 50));
            }
        }
        let full: Vec<(PointId, PointMeta)> = s.iter().map(|(id, r)| (id, r.meta())).collect();
        let metas: Vec<(PointId, PointMeta)> = s.iter_meta().map(|(id, m)| (id, *m)).collect();
        assert_eq!(full, metas);
        assert_eq!(metas.len(), s.len());
        assert_eq!(s.meta_of(PointId(1399)).map(|m| m.n_eps), Some(1399));
        assert!(s.meta_of(PointId(5000)).is_none());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut s: PointStore<2> = PointStore::new();
        s.insert(PointId(1), rec(0.0));
        s.insert(PointId(1), rec(0.0));
    }

    #[test]
    fn reserve_span_presizes() {
        let mut s: PointStore<2> = PointStore::new();
        s.reserve_span(50_000);
        for i in 0..50_000u64 {
            s.insert(PointId(i), rec(0.0));
        }
        assert_eq!(s.len(), 50_000);
    }
}
