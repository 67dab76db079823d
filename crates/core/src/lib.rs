//! `disc-core` — the DISC algorithm (ICDE 2021).
//!
//! DISC (*Density-based Incremental Striding Cluster*) maintains an **exact**
//! DBSCAN clustering of a sliding window over a point stream. Whenever the
//! window advances by one stride, [`Disc::apply`] ingests the batch of
//! entering (`Δin`) and leaving (`Δout`) points and updates the clustering in
//! two steps that mirror the paper:
//!
//! 1. **COLLECT** (Alg. 1, [`collect`]): update every affected point's
//!    neighbour count `n_ε`, maintain the R-tree, and identify the
//!    *ex-cores* (cores that lost core status or left) and *neo-cores*
//!    (points that just gained core status).
//! 2. **CLUSTER** (Alg. 2, [`cluster`]): for one representative of every
//!    retro-reachable class of ex-cores, check whether its *minimal bonding
//!    cores* `M⁻` stay density-connected (split vs. shrink), using the
//!    **MS-BFS** early-terminating multi-starter search ([`msbfs`]) and the
//!    R-tree's epoch-based probing; then process neo-cores, merging or
//!    emerging clusters by inspecting the labels of `M⁺`.
//!
//! The result after every slide is guaranteed to be DBSCAN-equivalent: the
//! core partition is identical and every border is attached to a cluster
//! with a core in its ε-neighbourhood (DBSCAN itself leaves multi-cluster
//! borders ambiguous). The property tests in this crate and the
//! `disc-baselines` crate verify that equivalence against a from-scratch
//! DBSCAN oracle on randomised streams.
//!
//! # Quick start
//!
//! ```
//! use disc_core::{Disc, DiscConfig, PointLabel};
//! use disc_window::{SlidingWindow, datasets};
//!
//! let records = datasets::gaussian_blobs::<2>(2_000, 3, 0.5, 42);
//! let mut window = SlidingWindow::new(records, 800, 40);
//! let mut disc = Disc::new(DiscConfig::new(1.0, 5));
//!
//! disc.apply(&window.fill());
//! while let Some(batch) = window.advance() {
//!     disc.apply(&batch);
//! }
//! let clusters = disc.num_clusters();
//! assert!(clusters >= 3, "three blobs expected, found {clusters}");
//! ```

mod balls;
pub mod cluster;
pub mod collect;
pub mod config;
pub mod dsu;
pub mod engine;
pub mod kdistance;
pub mod label;
pub mod materialized;
pub mod msbfs;
pub mod record;
pub mod state;
pub mod stats;
pub mod store;

pub use config::{DiscConfig, IndexBackend};
pub use engine::{Disc, SlideError};
pub use label::{ClusterId, PointLabel};
pub use materialized::GraphDisc;
pub use state::{backend_of, EngineState, PointState, StateError};
pub use stats::SlideStats;
