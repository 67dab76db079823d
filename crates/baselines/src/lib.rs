//! Baseline clustering methods the paper compares DISC against (§VI).
//!
//! **Exact** methods — all produce DBSCAN-equivalent clusterings:
//!
//! * [`Dbscan`] — from-scratch DBSCAN per slide (the evaluation's baseline
//!   denominator);
//! * [`IncDbscan`] — Incremental DBSCAN (Ester et al., VLDB '98), updating
//!   clusters one point at a time; like the paper's own implementation it
//!   runs "with MS-BFS in its own favor";
//! * [`ExtraN`] — EXTRA-N (Yang et al., EDBT '09), the sub-window /
//!   predicted-view method that eliminates deletion range searches at the
//!   cost of `O(window/stride)` state per point.
//!
//! **Approximate / summarisation** methods:
//!
//! * [`RhoDbscan`] — ρ-double-approximate DBSCAN (Gan & Tao), grid-based,
//!   exact core counting with ρ-approximate connectivity;
//! * [`DbStream`] — shared-density micro-cluster streaming clusterer
//!   (Hahsler & Bolaños, TKDE '16), insertion-only with exponential decay;
//! * [`EdmStream`] — density-peak dependency-tree streaming clusterer
//!   (Gong et al., VLDB '17), insertion-only with exponential decay.
//!
//! Every method implements [`WindowClusterer`], the uniform driver interface
//! used by the benchmark harness.

pub mod dbscan;
pub mod dbstream;
pub mod edmstream;
pub mod extran;
pub mod incdbscan;
pub mod rho2;
pub mod traits;

pub use dbscan::Dbscan;
pub use dbstream::{DbStream, DbStreamConfig};
pub use edmstream::{EdmStream, EdmStreamConfig};
pub use extran::ExtraN;
pub use incdbscan::IncDbscan;
pub use rho2::RhoDbscan;
pub use traits::WindowClusterer;
