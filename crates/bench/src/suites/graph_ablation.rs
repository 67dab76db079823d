//! Extension experiment — the §IV materialised-graph strawman, measured.
//!
//! The paper rejects materialising the ε-adjacency graph because of its
//! maintenance cost. [`GraphDisc`] implements that rejected design; this
//! suite compares it against DISC across ε on the DTG workload: the graph
//! variant eliminates nearly all range searches, but its memory and its
//! per-slide list-surgery cost inflate with the neighbourhood size. Both
//! memory columns are accounted footprints ([`MemoryFootprint`]).
//!
//! [`MemoryFootprint`]: disc_telemetry::MemoryFootprint
//!
//! [`GraphDisc`]: disc_core::GraphDisc

use crate::report::{fmt_bytes, fmt_duration, Table};
use crate::runner::{records_needed, tile};
use crate::suites::{SEED, SLIDES};
use crate::Scale;
use disc_core::{Disc, DiscConfig, GraphDisc};
use disc_telemetry::MemoryFootprint;
use disc_window::{datasets, SlidingWindow};
use std::time::{Duration, Instant};

/// Runs the graph-materialisation ablation.
pub fn run(scale: Scale) -> Table {
    let prof = datasets::DTG_PROFILE;
    let mut t = Table::new(
        "Extension: DISC vs materialised-graph DISC (DTG, stride 5%)",
        &[
            "eps",
            "DISC/slide",
            "graph/slide",
            "DISC searches",
            "graph searches",
            "DISC mem",
            "graph mem",
        ],
    );
    let base = scale.apply(prof.window);
    let (window, stride) = tile(base, (base / 20).max(1));
    let n = records_needed(window, stride, SLIDES);
    let recs = datasets::dtg_like(n, SEED);

    for factor in [0.5, 1.0, 2.0, 4.0] {
        let eps = prof.eps * factor;

        let mut w = SlidingWindow::new(recs.clone(), window, stride);
        let mut disc = Disc::new(DiscConfig::new(eps, prof.tau));
        disc.apply(&w.fill());
        let s0 = disc.index_stats().range_searches;
        let mut disc_time = Duration::ZERO;
        let mut slides = 0u32;
        while slides < SLIDES {
            let Some(b) = w.advance() else { break };
            let t0 = Instant::now();
            disc.apply(&b);
            disc_time += t0.elapsed();
            slides += 1;
        }
        let disc_searches = (disc.index_stats().range_searches - s0) as f64 / slides.max(1) as f64;

        let mut w = SlidingWindow::new(recs.clone(), window, stride);
        let mut graph = GraphDisc::new(DiscConfig::new(eps, prof.tau));
        graph.apply(&w.fill());
        let g0 = graph.range_searches();
        let mut graph_time = Duration::ZERO;
        let mut gslides = 0u32;
        while gslides < SLIDES {
            let Some(b) = w.advance() else { break };
            let t0 = Instant::now();
            graph.apply(&b);
            graph_time += t0.elapsed();
            gslides += 1;
        }
        let graph_searches = (graph.range_searches() - g0) as f64 / gslides.max(1) as f64;

        t.row(vec![
            format!("{eps:.3}"),
            fmt_duration(disc_time / slides.max(1)),
            fmt_duration(graph_time / gslides.max(1)),
            format!("{disc_searches:.0}"),
            format!("{graph_searches:.0}"),
            fmt_bytes(disc.mem_bytes() as usize),
            fmt_bytes(graph.memory_bytes()),
        ]);
    }
    t.print();
    let _ = t.write_csv("graph_ablation");
    t
}
