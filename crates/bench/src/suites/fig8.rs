//! Fig. 8 — effect of the two §IV optimisations (ablation).
//!
//! DISC with {neither, epoch-probing only, MS-BFS only, both}, per dataset,
//! stride 5%. Expected shape: each optimisation helps on its own, both
//! together are best. Every variant runs the same batched COLLECT (bulk
//! index mutations + one multi-center traversal per phase).
//!
//! Each of `REPS` passes runs the four variants back to back over the same
//! `SLIDES` slides, starting at a different variant each pass, so host
//! drift reaches all four alike. A time cell is the median over passes of
//! the pass's mean slide (exact, where a 5-slide histogram p50 is a bucket
//! bound up to 3% off); a ratio cell is the median over passes of that
//! pass's variant ÷ none. Whole runs drift together on a shared host, so
//! the ratios, not the times, are what two builds can be compared on.

use crate::report::{fmt_duration, Table};
use crate::runner::{measure, records_needed, tile};
use crate::suites::{SEED, SLIDES};
use crate::Scale;
use disc_core::{Disc, DiscConfig};
use disc_window::datasets::{self, Profile};
use disc_window::Record;
use std::time::Duration;

/// Passes per dataset.
const REPS: usize = 21;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

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
    let variants: [DiscConfig; 4] = [
        cfg.without_msbfs().without_epoch_probe(),
        cfg.without_msbfs(),
        cfg.without_epoch_probe(),
        cfg,
    ];
    // mean[variant][pass], in seconds.
    let mut mean = vec![Vec::with_capacity(REPS); variants.len()];
    for pass in 0..REPS {
        for k in 0..variants.len() {
            let v = (pass + k) % variants.len();
            let m = measure(Disc::new(variants[v]), &recs, window, stride, SLIDES);
            mean[v].push(m.avg_slide.as_secs_f64());
        }
    }
    let mut cells = vec![prof.name.to_string()];
    for times in &mean {
        cells.push(fmt_duration(Duration::from_secs_f64(median(times.clone()))));
    }
    for times in &mean[1..] {
        let ratios = times.iter().zip(&mean[0]).map(|(t, none)| t / none);
        cells.push(format!("{:.2}", median(ratios.collect())));
    }
    table.row(cells);
}

/// Runs the Fig. 8 suite.
pub fn run(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig. 8: optimisation ablation (median slide time, stride 5%)",
        &[
            "dataset",
            "none",
            "epoch only",
            "MS-BFS only",
            "both",
            "epoch ÷ none",
            "MS-BFS ÷ none",
            "both ÷ none",
        ],
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_cell_is_finite_and_positive() {
        let t = run(Scale(0.02));
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            for cell in &row[5..] {
                let ratio: f64 = cell.parse().unwrap();
                assert!(ratio.is_finite() && ratio > 0.0, "{row:?}");
            }
        }
    }
}
