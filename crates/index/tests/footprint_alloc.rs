//! Counting-allocator cross-check for the `MemoryFootprint` estimates.
//!
//! The footprint trait reports *estimated* heap bytes from capacities and
//! layout arithmetic; this harness swaps in a `#[global_allocator]` wrapper
//! (scoped to this test binary only) that tracks live bytes, and asserts the
//! estimate lands within ±15% of the real allocation delta retained by each
//! backend across construction + bulk load, for both backends over the
//! standard datasets. A model that drifts from the real allocator — say the
//! hash-map bucket arithmetic going stale after a std upgrade — fails here
//! long before it mis-ranks an ablation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use disc_geom::{Point, PointId};
use disc_index::{GridIndex, RTree, SpatialBackend};
use disc_window::datasets;

/// Live heap bytes (allocated minus freed) since process start.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

// SAFETY: defers every operation to `System` verbatim; only the byte
// accounting is added, and only on successful (non-null) returns.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::SeqCst);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Loads `items` into a fresh backend while watching the live-byte counter.
///
/// The input clone is allocated *and* freed inside the measurement window,
/// so it cancels out of the delta; everything the backend retains does not.
fn check_backend<B: SpatialBackend<2>>(eps: f64, items: &[(PointId, Point<2>)], dataset: &str) {
    let before = LIVE.load(Ordering::SeqCst);
    let mut ix = B::with_eps_hint(eps);
    ix.bulk_insert(items.to_vec());
    let after = LIVE.load(Ordering::SeqCst);

    let measured = (after - before) as f64;
    assert!(
        measured > 0.0,
        "{}/{dataset}: allocator saw no retained bytes",
        B::NAME
    );
    let estimated = ix.mem_bytes() as f64;
    let ratio = estimated / measured;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "{}/{dataset}: footprint estimate {estimated} vs measured {measured} \
         (ratio {ratio:.3}) is outside the +/-15% band:\n{}",
        B::NAME,
        ix.footprint().render()
    );
    drop(ix);
}

fn as_items<const D: usize>(records: Vec<disc_window::Record<D>>) -> Vec<(PointId, Point<D>)> {
    records
        .into_iter()
        .enumerate()
        .map(|(i, r)| (PointId(i as u64), r.point))
        .collect()
}

/// One test function on purpose: the live-byte counter is process-global, and
/// Rust runs `#[test]` functions in parallel — concurrent measurement windows
/// would see each other's allocations. Sequential sections keep each window
/// clean.
#[test]
fn footprint_estimates_match_real_allocations() {
    let uniform = as_items(datasets::uniform::<2>(4_000, 100.0, 7));
    let blobs = as_items(datasets::gaussian_blobs::<2>(4_000, 8, 0.5, 11));

    for (dataset, items, eps) in [("uniform", &uniform, 2.0), ("blobs", &blobs, 0.8)] {
        check_backend::<RTree<2>>(eps, items, dataset);
        check_backend::<GridIndex<2>>(eps, items, dataset);
    }
}
