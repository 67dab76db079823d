//! `pipebench`: a closed-loop, single-process benchmark of the DISC
//! pipeline. It links the library crates, composes the stages the CLI
//! composes, and times each stage from its own code.
//!
//! ```text
//! pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--state-dir <tmpfs dir>]
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! README.md beside this file for the workloads and what each metric
//! should move.

mod feed;
mod pipeline;
mod probe;
mod procfs;
mod recorder;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Metric, Options, Shape, Stop, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--state-dir <tmpfs dir>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut state) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag} {value:?}: bad value\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                if !stats::valid_name(value) {
                    return Err(bad());
                }
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--state-dir" => state = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let need = |name: &str| format!("{name} is required\n{}", usage());
    let state = match state {
        // An explicit state directory must be a tmpfs: never fall back to
        // disk when memory-backed storage was asked for.
        Some(dir) => {
            let fs =
                procfs::fs_type(&dir).map_err(|e| format!("--state-dir {}: {e}", dir.display()))?;
            if fs != "tmpfs" {
                return Err(format!(
                    "--state-dir {} is on {fs}, not tmpfs; refusing to fall back to disk",
                    dir.display()
                ));
            }
            dir.join("pipebench")
        }
        // The checkout the benchmark was built in.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.pipebench"),
    };
    Ok(Options {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        stop: Stop::After(Duration::from_secs_f64(
            seconds.ok_or_else(|| need("--seconds"))?,
        )),
        trace: trace.ok_or_else(|| need("--trace"))?,
        shape: Shape::FULL,
        state,
    })
}

/// Renders the result line. Every name and unit is checked against the
/// naming rules, and every value must be finite.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !stats::valid_name(m.name) || !stats::valid_unit(m.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: &[String]) -> Result<String, String> {
    let opts = parse_args(args)?;
    std::fs::create_dir_all(&opts.state).map_err(|e| format!("{}: {e}", opts.state.display()))?;
    let run = workload::execute(&opts)?;
    for note in &run.notes {
        println!("{}: {note}", opts.workload.name());
    }
    for failure in &run.check_failures {
        eprintln!("{}: CHECK FAILED: {failure}", opts.workload.name());
    }
    let metrics = if opts.trace {
        let path = opts.state.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        workload::write_trace(&run, &path)?;
        println!("wrote the traced run's spans to {}", path.display());
        run.per_layer()?
    } else {
        run.end_to_end(opts.shape.stride)?
    };
    for m in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let ok = run.ok_slides();
    result_json(
        run.check_failures.is_empty() && ok == run.attempted,
        run.attempted,
        run.attempted - ok,
        &metrics,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let o = parse_args(&args(
            "--workload maze-resume --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::MazeResume);
        assert_eq!(o.seed, 9);
        assert!(o.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload dtg-plain --seed -1 --seconds 1 --trace 0",
            "--workload dtg-plain --seed 1 --seconds 0 --trace 0",
            "--workload dtg-plain --seed 1 --seconds 1 --trace 2",
            "--workload dtg-plain --seed 1 --seconds 1",
            "--workload dtg-plain --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload dtg-plain --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_state_dir_that_is_missing_or_on_disk_is_refused() {
        let missing = "--workload dtg-plain --seed 1 --seconds 1 --trace 0 \
                       --state-dir /nonexistent/pipebench";
        assert!(parse_args(&args(missing)).is_err());
        let here = env!("CARGO_MANIFEST_DIR");
        if procfs::fs_type(std::path::Path::new(here)).unwrap() != "tmpfs" {
            let disk =
                format!("--workload dtg-plain --seed 1 --seconds 1 --trace 0 --state-dir {here}");
            let err = parse_args(&args(&disk)).unwrap_err();
            assert!(err.contains("not tmpfs"), "{err}");
        }
    }

    #[test]
    fn workload_names_are_valid_and_round_trip() {
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn result_line_has_the_required_keys_and_refuses_bad_metrics() {
        let m = |name, value| Metric {
            name,
            value,
            unit: "us",
        };
        let line = result_json(true, 3, 0, &[m("slide_p50_us", 1.5)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"slide_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
        assert!(result_json(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_json(true, 1, 0, &[m("nan_metric", f64::NAN)]).is_err());
    }
}
