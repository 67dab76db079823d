//! Neighborhood indexes purpose-built for DISC (ICDE 2021).
//!
//! The paper implements its own in-memory R-tree because two of its key
//! techniques need index internals:
//!
//! * **range-search accounting** — the evaluation (Fig. 7) counts the number
//!   of ε-range searches each clustering method executes, so every query
//!   entry point updates [`Stats`];
//! * **epoch-based probing** (Alg. 4) — "visited" marks for the MS-BFS
//!   connectivity check are stored *inside* index entries as monotonically
//!   increasing epochs, letting a probe skip whole subtrees that the current
//!   MS-BFS instance has already explored, with no per-instance reset cost.
//!
//! Nothing in DISC's correctness argument depends on the index *structure*,
//! though — only on exact ε-range answers plus the visited-mark probing
//! contract. That contract is the [`SpatialBackend`] trait, and the trait is
//! the index API: each backend defines every operation exactly once, inside
//! its `impl SpatialBackend`, and the counted queries (`for_each_in_ball`,
//! `ball_ids_into`, `ball_count`, `for_each_in_balls`) are provided once by
//! the trait over the backends' read-only `scan_*` methods. Bring the trait
//! into scope to query a concrete index:
//!
//! ```
//! use disc_geom::{Point, PointId};
//! use disc_index::{GridIndex, SpatialBackend};
//!
//! let mut grid: GridIndex<2> = GridIndex::with_eps_hint(1.0);
//! grid.insert(PointId(0), Point::new([0.0, 0.0]));
//! grid.insert(PointId(1), Point::new([0.5, 0.0]));
//! assert_eq!(grid.ball_count(&Point::new([0.0, 0.0]), 1.0), 2);
//! ```
//!
//! Two implementors ship:
//!
//! * [`RTree`] — a classic quadratic-split R-tree over `D`-dimensional points
//!   with insert, delete (condense + reinsert), batched insert and bulk load
//!   packed by one Sort-Tile-Recursive tiler, plain ε-range queries, and the
//!   epoch probe. One deliberate deviation from the paper's
//!   Alg. 4 is documented in [`epoch`]: entries store an *(epoch, owner)*
//!   pair instead of a bare epoch so that two MS-BFS threads can still detect
//!   that they met inside an already-visited subtree. Its only inherent
//!   extras are `new`, `height`, `bulk_load` and the kNN queries of [`knn`].
//! * [`GridIndex`] — a uniform grid with ε-aligned cells, 3^D-neighbourhood
//!   range answering, and grid-native epoch marks stored per cell entry.
//!   Its only inherent extras are `with_cell`, `cell_width` and
//!   `occupied_cells`.

pub mod bulk;
pub mod epoch;
pub mod grid;
pub mod knn;
pub mod node;
pub mod stats;
pub mod traits;
pub mod tree;

pub use epoch::{EpochProbe, ProbeOutcome};
pub use grid::GridIndex;
pub use stats::Stats;
pub use traits::SpatialBackend;
pub use tree::RTree;

pub(crate) const MAX_ENTRIES: usize = 16;
pub(crate) const MIN_ENTRIES: usize = 6;
