//! Struct-of-arrays point storage.
//!
//! The AoS `Point<D>` layout interleaves dimensions, so a scan that only
//! needs one coordinate strides through memory `D` doubles at a time. This
//! module stores each dimension in its own contiguous `Vec<f64>` plus a
//! parallel id column. Rows are addressed positionally; the engine's window
//! store (`disc-core`) uses them as `id mod capacity` slots, with the id
//! column doubling as the occupancy map ([`EMPTY_ROW`] marks a free slot).

use crate::point::Point;

/// Row id meaning "no row stored here" (free slot in slot-addressed uses).
pub const EMPTY_ROW: u64 = u64::MAX;

/// Struct-of-arrays storage for `D`-dimensional points: one contiguous
/// coordinate column per dimension plus a parallel id column.
#[derive(Clone, Debug)]
pub struct PointStore<const D: usize> {
    cols: [Vec<f64>; D],
    ids: Vec<u64>,
}

impl<const D: usize> Default for PointStore<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> PointStore<D> {
    /// An empty store.
    pub fn new() -> Self {
        PointStore {
            cols: std::array::from_fn(|_| Vec::new()),
            ids: Vec::new(),
        }
    }

    /// Number of rows (including [`EMPTY_ROW`] slots).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes held across all columns (capacity accounting).
    pub fn heap_bytes(&self) -> usize {
        let f64s: usize = self.cols.iter().map(Vec::capacity).sum();
        (f64s + self.ids.capacity()) * std::mem::size_of::<u64>()
    }

    /// Overwrites the row at `row`.
    pub fn set_row(&mut self, row: usize, id: u64, p: &Point<D>) {
        for (d, c) in self.cols.iter_mut().enumerate() {
            c[row] = p[d];
        }
        self.ids[row] = id;
    }

    /// Grows (or shrinks) to exactly `n` rows; new rows are [`EMPTY_ROW`]
    /// at the origin.
    pub fn resize_rows(&mut self, n: usize) {
        for c in &mut self.cols {
            c.resize(n, 0.0);
        }
        self.ids.resize(n, EMPTY_ROW);
    }

    /// Raw id of a row ([`EMPTY_ROW`] marks a free slot).
    #[inline]
    pub fn id_at(&self, row: usize) -> u64 {
        self.ids[row]
    }

    /// Marks a row free ([`EMPTY_ROW`]).
    #[inline]
    pub fn clear_row(&mut self, row: usize) {
        self.ids[row] = EMPTY_ROW;
    }

    /// Reassembles the AoS view of a row.
    #[inline]
    pub fn point_at(&self, row: usize) -> Point<D> {
        Point::new(std::array::from_fn(|d| self.cols[d][row]))
    }

    /// The id column.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

impl<const D: usize> disc_telemetry::MemoryFootprint for PointStore<D> {
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        disc_telemetry::FootprintNode::leaf("soa", self.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_bytes_counts_every_column_capacity() {
        use disc_telemetry::MemoryFootprint;
        let mut s: PointStore<3> = PointStore::new();
        s.resize_rows(100);
        // 3 coord columns + ids, all 8-byte elements.
        assert_eq!(s.heap_bytes(), 100 * 8 * 4);
        for i in 0..10 {
            s.set_row(i, i as u64, &Point::new([i as f64, 0.0, 0.0]));
        }
        assert_eq!(s.heap_bytes(), 100 * 8 * 4, "writes within capacity");
        assert_eq!(s.mem_bytes(), s.heap_bytes() as u64);
        assert_eq!(PointStore::<2>::new().heap_bytes(), 0);
    }

    #[test]
    fn slots_roundtrip_rows() {
        let mut s: PointStore<3> = PointStore::new();
        s.resize_rows(4);
        assert_eq!(s.len(), 4);
        assert!(s.ids().iter().all(|&id| id == EMPTY_ROW));
        let p = Point::new([1.0, 2.0, 3.0]);
        let q = Point::new([4.0, 5.0, 6.0]);
        s.set_row(1, 7, &p);
        s.set_row(3, 8, &q);
        assert_eq!(s.point_at(1), p);
        assert_eq!(s.point_at(3), q);
        assert_eq!(s.ids(), &[EMPTY_ROW, 7, EMPTY_ROW, 8]);
        s.clear_row(1);
        assert_eq!(s.id_at(1), EMPTY_ROW);
        s.resize_rows(8);
        assert_eq!(s.point_at(3), q, "growing keeps existing rows");
        assert_eq!(s.id_at(7), EMPTY_ROW);
        assert_eq!(s.point_at(7), Point::new([0.0; 3]));
    }
}
