//! `experiments ab <REF>`: a paired A/B run of the pipeline benchmark.
//!
//! `REF` is checked out as a detached `git worktree` under the git-ignored
//! `.bench_build/<sha>` (reused when there). Both trees are built and run
//! with `BENCHMARK.json`'s command from their own roots. Pair *i* runs seed
//! *i* on both sides, workload by workload, the parent first in odd pairs;
//! `judge` gives each (workload, metric) its verdict (`DESIGN.md` §10).
//! The table is printed and written as `.bench_build/ab.json`.

use crate::report::Table;
use disc_telemetry::{json::escape, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Pairs per comparison: a verdict needs ≥ 9 of 10 pairs.
const PAIRS: u64 = 10;

/// One end-to-end metric of `BENCHMARK.json`; `bound` is the largest
/// tolerated worsening, as a share of the parent's value.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// The parts of `BENCHMARK.json` an A/B run reads.
#[derive(Debug)]
struct Spec {
    /// The `cargo run ... --` argv that runs pipebench from a tree's root.
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let bad = |what: &str| format!("BENCHMARK.json: bad or missing {what}");
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(key))
        };
        let get = |item: &Json, key: &str| item.get(key).cloned().ok_or_else(|| bad(key));
        let string = |item: &Json, key: &str| match get(item, key)? {
            Json::Str(s) => Ok(s),
            _ => Err(bad(key)),
        };
        let number = |item: &Json, key: &str| get(item, key)?.as_f64().ok_or_else(|| bad(key));
        let command = array("command")?
            .iter()
            .map(|a| a.as_str().map(String::from));
        let command: Vec<String> = command.collect::<Option<_>>().unwrap_or_default();
        if command.first().is_none_or(|c| c != "cargo") || !command.contains(&"run".into()) {
            return Err(bad("`cargo run` command"));
        }
        let metric = |m: &Json| {
            Ok(Metric {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                higher_is_better: match string(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    _ => return Err(bad("better")),
                },
                bound: number(m, "bound")?,
            })
        };
        Ok(Spec {
            command,
            run_seconds: number(&doc, "run_seconds")?,
            workloads: array("workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            metrics: array("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, String>>()?,
        })
    }

    /// The build step: `command` with `run` as `build` and no program
    /// arguments.
    fn build_argv(&self) -> Vec<String> {
        let mut argv: Vec<String> = self
            .command
            .iter()
            .take_while(|a| *a != "--")
            .cloned()
            .collect();
        argv.iter_mut()
            .filter(|a| *a == "run")
            .for_each(|a| *a = "build".into());
        argv
    }
}

/// Reads pipebench's result line (the last line of its standard output)
/// into `(metric, value)` pairs, refusing a run whose outputs failed the
/// benchmark's checks.
fn parse_result(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.trim_end().lines().last().ok_or("no result line")?;
    let doc = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("outputs failed the checks (correct is not true)".into());
    }
    match doc.get("failed").and_then(Json::as_u64) {
        Some(0) => {}
        Some(n) => return Err(format!("{n} slide(s) failed")),
        None => return Err("result line has no \"failed\" count".into()),
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no \"metrics\" object".into());
    };
    let value = |(name, m): &(String, Json)| match m.get("value").and_then(Json::as_f64) {
        Some(v) => Ok((name.clone(), v)),
        None => Err(format!("metric {name:?} has no value")),
    };
    metrics.iter().map(value).collect()
}

/// One (workload, metric) row of the report. `ratios` are change ÷
/// parent per pair (1 where the two are equal or either is 0); `better`,
/// `worse` and `tied` count pairs in the metric's direction;
/// `parent_spread` is the parent's interquartile range over its median.
#[derive(Clone, Debug)]
struct Row {
    workload: String,
    metric: Metric,
    parent: Vec<f64>,
    change: Vec<f64>,
    ratios: Vec<f64>,
    /// Quartiles (q1, median, q3) of the ratios.
    ratio_quartiles: [f64; 3],
    better: usize,
    worse: usize,
    tied: usize,
    parent_median: f64,
    parent_spread: f64,
    /// `worse`, `better`, `unresolved` or `unchanged`.
    verdict: &'static str,
}

/// Quartiles (q1, median, q3) by the exclusive method, as Python's
/// `statistics.quantiles` takes them, so `ab` and `steadiness.py` read
/// one spread alike.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [at(1), (v[(n - 1) / 2] + v[n / 2]) / 2.0, at(3)]
}

/// Judges one (workload, metric) from its paired values:
/// - worse: the median ratio is past the bound in the worse direction and
///   ≥ 9 of 10 pairs read worse;
/// - better: ≥ 9 of 10 pairs read better and the median ratio is further
///   from 1 than the parent's spread;
/// - unresolved: the parent's spread is wider than the bound;
/// - otherwise unchanged.
fn judge(workload: &str, metric: &Metric, parent: &[f64], change: &[f64]) -> Row {
    assert_eq!(parent.len(), change.len(), "unpaired runs");
    let ratio = |(&p, &c): (&f64, &f64)| if p == c || p * c == 0.0 { 1.0 } else { c / p };
    let ratios: Vec<f64> = parent.iter().zip(change).map(ratio).collect();
    // How much worse a ratio reads, as a share of the parent.
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let worsening = |r: f64| sign * (r - 1.0);
    let better = ratios.iter().filter(|&&r| worsening(r) < 0.0).count();
    let worse = ratios.iter().filter(|&&r| worsening(r) > 0.0).count();
    let n = ratios.len();
    let ratio_quartiles = quartiles(&ratios);
    let median = ratio_quartiles[1];
    let [q1, parent_median, q3] = quartiles(parent);
    let parent_spread = (q3 - q1) / parent_median.abs().max(f64::MIN_POSITIVE);
    let nine_tenths = |k: usize| n > 0 && k * 10 >= n * 9;
    let verdict = if worsening(median) > metric.bound && nine_tenths(worse) {
        "worse"
    } else if nine_tenths(better) && (median - 1.0).abs() > parent_spread {
        "better"
    } else if parent_spread > metric.bound {
        "unresolved"
    } else {
        "unchanged"
    };
    Row {
        workload: workload.to_string(),
        metric: metric.clone(),
        parent: parent.to_vec(),
        change: change.to_vec(),
        tied: n - better - worse,
        ratios,
        ratio_quartiles,
        better,
        worse,
        parent_median,
        parent_spread,
        verdict,
    }
}

/// The report as a table, one row per (workload, metric); its columns are
/// also the keys of `ab.json`.
fn table(rows: &[Row]) -> Table {
    let header = "workload metric unit better bound parent_p50 ratio_p50 ratio_iqr pairs_better \
                  pairs_worse pairs_tied parent_spread verdict";
    let mut t = Table::new(
        "A/B: change ÷ parent per pair",
        &header.split_whitespace().collect::<Vec<_>>(),
    );
    for r in rows {
        let [q1, median, q3] = r.ratio_quartiles;
        t.row(vec![
            r.workload.clone(),
            r.metric.name.clone(),
            r.metric.unit.clone(),
            ["lower", "higher"][usize::from(r.metric.higher_is_better)].into(),
            r.metric.bound.to_string(),
            format!("{:.6}", r.parent_median),
            format!("{median:.4}"),
            format!("{:.4}", q3 - q1),
            r.better.to_string(),
            r.worse.to_string(),
            r.tied.to_string(),
            format!("{:.4}", r.parent_spread),
            r.verdict.into(),
        ]);
    }
    t
}

/// The printed report: the table, then one line per verdict other than
/// unchanged, naming the workload and metric.
fn render(rows: &[Row]) -> String {
    let mut out = table(rows).render();
    for r in rows.iter().filter(|r| r.verdict != "unchanged") {
        out += &format!(
            "{}: {} {} (median ratio {:.3}, {}/{} pairs better, {} worse, parent spread {:.3}, \
             bound {})\n",
            r.verdict,
            r.workload,
            r.metric.name,
            r.ratio_quartiles[1],
            r.better,
            r.ratios.len(),
            r.worse,
            r.parent_spread,
            r.metric.bound
        );
    }
    out
}

/// The exit code for a finished comparison: 1 if any verdict is worse.
fn exit_code(rows: &[Row]) -> i32 {
    i32::from(rows.iter().any(|r| r.verdict == "worse"))
}

/// `ab.json`: the table's rows as objects (numbers as numbers), each with
/// the per-pair `parent` and `change` values.
fn to_json(base: &str, rows: &[Row]) -> String {
    let t = table(rows);
    let value = |cell: &str| match cell.parse::<f64>() {
        Ok(v) => v.to_string(),
        Err(_) => format!("\"{}\"", escape(cell)),
    };
    let objects: Vec<String> = (t.rows.iter().zip(rows))
        .map(|(cells, r)| {
            let fields = t
                .header
                .iter()
                .zip(cells)
                .map(|(k, c)| format!("\"{k}\": {}", value(c)));
            let fields: Vec<String> = fields.collect();
            format!(
                "  {{{}, \"parent\": {:?}, \"change\": {:?}}}",
                fields.join(", "),
                r.parent,
                r.change
            )
        })
        .collect();
    format!(
        "{{\"base\": \"{}\", \"pairs\": {PAIRS}, \"rows\": [\n{}\n]}}\n",
        escape(base),
        objects.join(",\n")
    )
}

/// Runs `argv` in `dir`, returning its standard output; a non-zero exit
/// becomes an error carrying its standard error.
fn run_in(dir: &Path, argv: &[String]) -> Result<String, String> {
    let out = Command::new(&argv[0])
        .args(&argv[1..])
        .current_dir(dir)
        .output();
    let out = out.map_err(|e| format!("{}: {e}", argv.join(" ")))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (argv, dir, status) = (argv.join(" "), dir.display(), out.status);
        return Err(format!("`{argv}` in {dir} failed ({status}):\n{stderr}"));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = ["git"].iter().chain(args).map(|a| a.to_string()).collect();
    Ok(run_in(dir, &argv)?.trim().to_string())
}

/// One pipebench run of `tree`: its end-to-end values in `spec`'s metric
/// order.
fn bench_once(tree: &Path, spec: &Spec, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let args = format!(
        "--workload {workload} --seed {seed} --seconds {} --trace 0",
        spec.run_seconds
    );
    let argv: Vec<String> = spec
        .command
        .iter()
        .map(|a| a.to_string())
        .chain(args.split(' ').map(String::from))
        .collect();
    let context = |e: String| format!("{workload} seed {seed} in {}: {e}", tree.display());
    let values = parse_result(&run_in(tree, &argv)?).map_err(context)?;
    let value = |m: &Metric| {
        let found = values.iter().find(|(name, _)| *name == m.name);
        found
            .map(|(_, v)| *v)
            .ok_or_else(|| context(format!("no metric {:?}", m.name)))
    };
    spec.metrics.iter().map(value).collect()
}

/// Builds both trees and runs the pairs: the base's sha and the rows in
/// workload × metric order.
fn compare(root: &Path, base_ref: &str) -> Result<(String, Vec<Row>), String> {
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"));
    let spec = Spec::parse(&spec.map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let commit = format!("{base_ref}^{{commit}}");
    let sha = git(root, &["rev-parse", "--verify", &commit])?;
    let base: PathBuf = root.join(".bench_build").join(&sha);
    let dir = base.to_string_lossy();
    if !base.join(".git").exists() {
        git(root, &["worktree", "add", "--detach", &dir, &sha])?;
    }
    let sides = [("parent", base.as_path()), ("change", root)];
    for (side, tree) in sides {
        println!("building the {side} ({})", tree.display());
        run_in(tree, &spec.build_argv())?;
    }
    // values[side][workload][metric][pair]
    let mut values = vec![vec![vec![Vec::new(); spec.metrics.len()]; spec.workloads.len()]; 2];
    for seed in 1..=PAIRS {
        for (w, workload) in spec.workloads.iter().enumerate() {
            for side in if seed % 2 == 1 { [0, 1] } else { [1, 0] } {
                let (name, started) = (sides[side].0, std::time::Instant::now());
                let run = bench_once(sides[side].1, &spec, workload, seed)?;
                let secs = started.elapsed().as_secs_f64();
                let mut line = format!("pair {seed:>2} {workload:<22} {name:<6} {secs:6.1} s");
                for (m, v) in run.into_iter().enumerate() {
                    line += &format!("  {}={v:.6}", spec.metrics[m].name);
                    values[side][w][m].push(v);
                }
                println!("{line}");
            }
        }
    }
    let mut rows = Vec::new();
    for (w, workload) in spec.workloads.iter().enumerate() {
        for (m, metric) in spec.metrics.iter().enumerate() {
            rows.push(judge(workload, metric, &values[0][w][m], &values[1][w][m]));
        }
    }
    Ok((sha, rows))
}

/// `experiments ab <base_ref>`: returns the process exit code (0 when no
/// metric reads worse, 1 when one does, 2 when a build or run failed).
pub fn run(base_ref: &str) -> i32 {
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let result = git(&cwd, &["rev-parse", "--show-toplevel"]).and_then(|top| {
        let root = PathBuf::from(top);
        let (sha, rows) = compare(&root, base_ref)?;
        let path = root.join(".bench_build").join("ab.json");
        let written = std::fs::write(&path, to_json(&sha, &rows));
        written.map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\n{}\nwrote {}", render(&rows), path.display());
        Ok(rows)
    });
    result.map(|rows| exit_code(&rows)).unwrap_or_else(|e| {
        eprintln!("experiments ab: {e}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"),
        )
        .unwrap();
        Spec::parse(&text).unwrap()
    }

    fn metric(name: &str) -> Metric {
        spec().metrics.into_iter().find(|m| m.name == name).unwrap()
    }

    /// A parent series with about 2% spread around `level`.
    fn noisy(level: f64) -> Vec<f64> {
        [1.00, 0.98, 1.02, 0.99, 1.01, 1.00, 0.97, 1.03, 1.01, 0.99]
            .iter()
            .map(|f| f * level)
            .collect()
    }

    #[test]
    fn the_committed_spec_parses() {
        let s = spec();
        assert_eq!(s.command[0], "cargo");
        assert!(s.command.contains(&"--offline".to_string()));
        assert!(s.build_argv().contains(&"build".to_string()));
        assert!(!s.build_argv().contains(&"--".to_string()));
        assert_eq!(s.workloads.len(), 3);
        assert!(s
            .metrics
            .iter()
            .any(|m| m.name == "slide_p50_us" && !m.higher_is_better));
        assert!(s.metrics.iter().all(|m| m.bound > 0.0));
    }

    #[test]
    fn a_result_line_parses_and_failed_runs_are_refused() {
        let stdout = "dtg-plain: unscaled: slide_p50_us 2700.1; host 1.0\n\
             slide_p50_us                        2685.2000 us\n\
             {\"correct\": true, \"attempted\": 412, \"failed\": 0, \"metrics\": \
             {\"throughput_rps\": {\"value\": 301234.5, \"unit\": \"records/s\"}, \
             \"slide_p50_us\": {\"value\": 2685.2, \"unit\": \"us\"}}}\n";
        let values = parse_result(stdout).unwrap();
        assert_eq!(
            values,
            vec![
                ("throughput_rps".to_string(), 301234.5),
                ("slide_p50_us".to_string(), 2685.2)
            ]
        );
        let incorrect = stdout.replace("\"correct\": true", "\"correct\": false");
        assert!(parse_result(&incorrect).unwrap_err().contains("checks"));
        let failed = stdout.replace("\"failed\": 0", "\"failed\": 1");
        assert!(parse_result(&failed)
            .unwrap_err()
            .contains("1 slide(s) failed"));
        assert!(parse_result("").is_err());
        assert!(parse_result("not json\n").is_err());
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), [1.0, 3.0, 4.0]);
    }

    #[test]
    fn a_to_a_noise_is_unchanged() {
        let m = metric("slide_p50_us");
        let parent = noisy(4000.0);
        let mut change = parent.clone();
        change.rotate_left(3);
        let row = judge("dtg-plain", &m, &parent, &change);
        assert_eq!(row.verdict, "unchanged", "{row:?}");
        assert!(render(std::slice::from_ref(&row)).contains("unchanged"));
        assert_eq!(exit_code(&[row]), 0);
    }

    #[test]
    fn ten_of_ten_pairs_thirty_percent_slower_is_worse() {
        let m = metric("slide_p50_us");
        let parent = noisy(4000.0);
        let change: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        let row = judge("maze-resume", &m, &parent, &change);
        assert_eq!(row.verdict, "worse");
        assert_eq!((row.better, row.worse, row.tied), (0, 10, 0));
        let text = render(std::slice::from_ref(&row));
        assert!(text.contains("worse: maze-resume slide_p50_us"), "{text}");
        assert_eq!(exit_code(&[row]), 1);
    }

    #[test]
    fn a_median_past_the_bound_with_six_worse_pairs_is_not_worse() {
        let m = metric("slide_p50_us");
        let parent = noisy(4000.0);
        let factors = [1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 0.9, 0.9, 0.9, 0.9];
        let change: Vec<f64> = parent.iter().zip(factors).map(|(v, f)| v * f).collect();
        let row = judge("dtg-plain", &m, &parent, &change);
        assert!(row.ratio_quartiles[1] > 1.0 + m.bound);
        assert_eq!(row.worse, 6);
        assert_ne!(row.verdict, "worse");
    }

    #[test]
    fn higher_is_better_metrics_are_oriented() {
        for name in ["throughput_rps", "slide_ok_frac"] {
            let m = metric(name);
            assert!(m.higher_is_better, "{name}");
            let parent = noisy(100.0);
            let up: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
            let down: Vec<f64> = parent.iter().map(|v| v * 0.7).collect();
            let row = judge("dtg-plain", &m, &parent, &up);
            assert_eq!((row.verdict, row.better), ("better", 10), "{name}");
            let row = judge("dtg-plain", &m, &parent, &down);
            assert_eq!((row.verdict, row.worse), ("worse", 10), "{name}");
        }
        // The same gain on a lower-is-better metric is a loss.
        let m = metric("slide_p99_us");
        let parent = noisy(100.0);
        let up: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge("dtg-plain", &m, &parent, &up).verdict, "worse");
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let m = metric("peak_rss_mb");
        let parent: Vec<f64> = [
            60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0,
        ]
        .to_vec();
        let mut change = parent.clone();
        change.rotate_left(1);
        let row = judge("maze-resume", &m, &parent, &change);
        assert!(row.parent_spread > m.bound);
        assert_eq!(row.verdict, "unresolved");
    }

    #[test]
    fn zero_or_equal_pairs_read_as_ratio_one() {
        let m = metric("setup_s");
        let parent = [0.0, 2.0, 0.0, 2.0, 2.0, 2.0];
        let change = [0.0, 2.0, 1.5, 0.0, 2.0, 2.0];
        let row = judge("dtg-plain", &m, &parent, &change);
        assert_eq!(row.ratios, vec![1.0; 6]);
        assert_eq!((row.better, row.worse, row.tied), (0, 0, 6));
    }

    #[test]
    fn the_json_report_parses() {
        let m = metric("slide_p50_us");
        let rows = vec![judge("dtg-plain", &m, &noisy(10.0), &noisy(11.0))];
        let doc = Json::parse(&to_json("abc123", &rows)).unwrap();
        assert_eq!(doc.get("base").and_then(Json::as_str), Some("abc123"));
        let row = &doc.get("rows").and_then(Json::as_array).unwrap()[0];
        assert_eq!(row.get("verdict").and_then(Json::as_str), Some("unchanged"));
        assert_eq!(row.get("pairs_worse").and_then(Json::as_u64), Some(10));
        let parent = row.get("parent").and_then(Json::as_array).unwrap();
        assert_eq!(parent.len(), 10);
    }
}
