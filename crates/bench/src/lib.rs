//! Benchmark harness regenerating every table and figure of the DISC paper.
//!
//! The `experiments` binary (this crate's `src/bin/experiments.rs`) drives
//! the [`suites`], one per paper artefact:
//!
//! | id | artefact | suite |
//! |----|----------|-------|
//! | `table2` | Table II — thresholds & windows | [`suites::table2`] |
//! | `fig4` | speedup over DBSCAN vs stride | [`suites::fig4`] |
//! | `fig5` | speedup over DBSCAN vs window | [`suites::fig5`] |
//! | `fig6` | threshold effects (ε, τ) | [`suites::fig6`] |
//! | `fig7` | range searches executed | [`suites::fig7`] |
//! | `fig8` | MS-BFS / epoch ablation | [`suites::fig8`] |
//! | `fig9` | Maze ARI & latency | [`suites::fig9`] |
//! | `fig10` | DTG ARI & latency | [`suites::fig10`] |
//! | `fig11` | latency vs ε (DISC vs ρ₂) | [`suites::fig11`] |
//! | `fig12` | cluster snapshots | [`suites::fig12`] |
//! | `graph` | materialised-graph strawman | [`suites::graph_ablation`] |
//! | `backend` | R-tree vs uniform-grid index | [`suites::backend_ablation`] |
//! | `memory` | DISC vs EXTRA-N peak footprint | [`suites::memory_ablation`] |
//!
//! `experiments ab <REF>` ([`ab`]) is the perf gate: paired runs of the
//! pipeline benchmark (`BENCHMARK.json`) on `REF` and the working tree.
//!
//! Workloads are the synthetic substitutes documented in `DESIGN.md` §4,
//! at laptop scale; `--scale` multiplies every window size. Absolute times
//! are machine-dependent; the *shapes* (who wins, by what factor, where
//! crossovers fall) are what reproduce the paper.

pub mod ab;
pub mod report;
pub mod runner;
pub mod suites;

/// Scale factor applied to every window size (CLI `--scale`).
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// Applies the factor to a base population size.
    pub fn apply(&self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(64)
    }
}
