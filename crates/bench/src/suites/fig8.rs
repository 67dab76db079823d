//! Fig. 8 — effect of the two §IV optimisations (ablation).
//!
//! DISC with {neither, epoch-probing only, MS-BFS only, both}, per dataset,
//! stride 5%. Expected shape: each optimisation helps on its own, both
//! together are best. Every variant runs the same batched COLLECT (bulk
//! index mutations + one multi-center traversal per phase). Each cell is
//! the median slide time over `REPS` fresh passes of `SLIDES` slides: one
//! five-slide mean moved single cells up to 2× between back-to-back runs,
//! more than the effects the table compares.

use crate::report::{fmt_duration, Table};
use crate::runner::{measure_repeated, records_needed, tile};
use crate::suites::{SEED, SLIDES};
use crate::Scale;
use disc_core::{Disc, DiscConfig};
use disc_window::datasets::{self, Profile};
use disc_window::Record;

/// Fresh passes per cell.
const REPS: u32 = 21;

fn per_dataset<const D: usize>(
    gen: impl Fn(usize) -> Vec<Record<D>>,
    prof: Profile,
    scale: Scale,
    table: &mut Table,
) {
    let base = scale.apply(prof.window);
    let (window, stride) = tile(base, (base / 20).max(1));
    let n = records_needed(window, stride, SLIDES);
    let recs = gen(n);
    let cfg = DiscConfig::new(prof.eps, prof.tau);
    let variants: [(&str, DiscConfig); 4] = [
        ("none", cfg.without_msbfs().without_epoch_probe()),
        ("epoch only", cfg.without_msbfs()),
        ("MS-BFS only", cfg.without_epoch_probe()),
        ("both", cfg),
    ];
    let mut cells = vec![prof.name.to_string()];
    for (_, v) in &variants {
        let m = measure_repeated(|| Disc::new(*v), &recs, window, stride, SLIDES, REPS);
        cells.push(fmt_duration(m.p50_slide()));
    }
    table.row(cells);
}

/// Runs the Fig. 8 suite.
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig. 8: optimisation ablation (median slide time, stride 5%)",
        &["dataset", "none", "epoch only", "MS-BFS only", "both"],
    );
    per_dataset(
        |n| datasets::dtg_like(n, SEED),
        datasets::DTG_PROFILE,
        scale,
        &mut t,
    );
    per_dataset(
        |n| datasets::geolife_like(n, SEED),
        datasets::GEOLIFE_PROFILE,
        scale,
        &mut t,
    );
    per_dataset(
        |n| datasets::covid_like(n, SEED),
        datasets::COVID_PROFILE,
        scale,
        &mut t,
    );
    per_dataset(
        |n| datasets::iris_like(n, SEED),
        datasets::IRIS_PROFILE,
        scale,
        &mut t,
    );
    t.print();
    let _ = t.write_csv("fig8_ablation");
    t
}
