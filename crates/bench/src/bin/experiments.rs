//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p disc-bench --bin experiments -- all
//! cargo run --release -p disc-bench --bin experiments -- fig4 fig7 --scale 0.5
//! ```
//!
//! Results are printed as aligned tables and written as CSV under `out/`.

use disc_bench::{ab, suites, Scale};

const USAGE: &str = "usage: experiments [table2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|graph|backend|memory|evolution|all]... [--scale X]
       experiments ab <REF>

`ab` is the perf gate: it runs the pipeline benchmark (BENCHMARK.json) in
10 alternating pairs on REF (checked out under .bench_build/) and on the
working tree, prints one verdict per workload and end-to-end metric, and
writes .bench_build/ab.json. Exit code 1 when a metric reads worse, 2 when
a build or run failed.";

/// A suite's target name and its runner.
type Suite = (&'static str, fn(Scale));

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("ab") {
        let [_, base] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        std::process::exit(ab::run(base));
    }
    let mut targets: Vec<String> = Vec::new();
    let mut scale = Scale(1.0);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("{USAGE}");
                        std::process::exit(2);
                    });
                assert!(v > 0.0, "--scale must be positive");
                scale = Scale(v);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    let suites: [Suite; 14] = [
        ("table2", |s| drop(suites::table2::run(s))),
        ("fig4", |s| drop(suites::fig4::run(s))),
        ("fig5", |s| drop(suites::fig5::run(s))),
        ("fig6", |s| drop(suites::fig6::run(s))),
        ("fig7", |s| drop(suites::fig7::run(s))),
        ("fig8", |s| drop(suites::fig8::run(s))),
        ("fig9", |s| drop(suites::fig9::run(s))),
        ("fig10", |s| drop(suites::fig10::run(s))),
        ("fig11", |s| drop(suites::fig11::run(s))),
        ("fig12", |s| drop(suites::fig12::run(s))),
        ("graph", |s| drop(suites::graph_ablation::run(s))),
        ("backend", |s| drop(suites::backend_ablation::run(s))),
        ("memory", |s| drop(suites::memory_ablation::run(s))),
        ("evolution", |s| drop(suites::evolution_stats::run(s))),
    ];
    if let Some(t) = (targets.iter()).find(|t| *t != "all" && !suites.iter().any(|(n, _)| n == t)) {
        eprintln!("unknown target {t:?}\n{USAGE}");
        std::process::exit(2);
    }
    let all = targets.is_empty() || targets.iter().any(|t| t == "all");
    let t0 = std::time::Instant::now();
    println!(
        "DISC experiment harness (scale {:.2}; synthetic analogues per DESIGN.md §4)\n",
        scale.0
    );
    for (name, run) in suites {
        if all || targets.iter().any(|t| t == name) {
            run(scale);
        }
    }
    println!("\ntotal harness time: {:?}", t0.elapsed());
}
