//! `disc` — sliding-window density clustering from the command line.
//! `disc --help` lists each command with the flags it takes (`disc COMMAND
//! --help` lists one command), as the flag
//! table in `flags.rs` states them.
//!
//! Input CSV: one point per row, `dim` coordinate columns, optionally a
//! trailing integer ground-truth label. Output snapshots carry a header
//! `x0,..,cluster` with `-1` for noise.

use flags::Opts;
use std::process::ExitCode;

/// `println!` through [`write_stdout`]; evaluates to `Result<(), String>`.
macro_rules! say {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*))).map(|_| ())
    };
}

mod cmd;
mod durable;
mod flags;
mod health;
mod ingest;
mod pipeline;
mod top;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(format!("missing command\n{}", flags::usage()));
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return say!("{}", flags::usage());
    }
    if args[1..]
        .iter()
        .any(|a| matches!(a.as_str(), "--help" | "-h"))
    {
        if let Some(help) = flags::command_usage(command) {
            return say!("{help}");
        }
    }
    let opts = Opts::parse(command, &args[1..])?;
    match command.as_str() {
        "cluster" | "run" => dispatch_dim(&opts, cmd::ClusterCmd),
        "resume" => dispatch_dim(&opts, durable::ResumeCmd),
        "diffsnap" => dispatch_dim(&opts, durable::DiffsnapCmd),
        "explain" => cmd::explain(&opts),
        "top" => top::top(&opts),
        "estimate" => dispatch_dim(&opts, cmd::EstimateCmd),
        "generate" => cmd::generate(&opts),
        _ => unreachable!("Opts::parse refuses unknown commands"),
    }
}

/// Writes to stdout: every line the CLI prints goes through here. A reader
/// that stops early (`disc --help | head -1`) closes the pipe, which is not
/// an error: the write returns `Ok(false)`, so the command carries on (its
/// files still get written) or, if it only prints, can stop.
fn write_stdout(args: std::fmt::Arguments) -> Result<bool, String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// Runs a dimension-generic command for the `--dim` in force (2, 3 or 4).
fn dispatch_dim<C: cmd::DimCommand>(opts: &Opts, cmd: C) -> Result<(), String> {
    match opts.dim {
        2 => cmd.run::<2>(opts),
        3 => cmd.run::<3>(opts),
        4 => cmd.run::<4>(opts),
        d => Err(format!("unsupported --dim {d} (2, 3 or 4)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_telemetry::JsonlRecord;

    /// `cluster` gets its required flags first.
    fn parse(command: &str, args: &[&str]) -> Result<Opts, String> {
        if command == "cluster" {
            return flags::parse_cluster(args);
        }
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse(command, &owned)
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse("cluster", &[]).unwrap();
        assert_eq!(o.dim, 2);
        assert_eq!(o.method, "disc");
        assert_eq!(o.index, None);
        assert_eq!(o.rho, 0.001);
        assert!(!o.quiet);
    }

    #[test]
    fn full_cluster_flag_set_parses() {
        let o = parse(
            "cluster",
            &[
                "--input", "in.csv", "--dim", "3", "--eps", "0.5", "--tau", "7", "--window",
                "1000", "--stride", "50", "--method", "rho2", "--rho", "0.1", "--out", "out.csv",
                "--quiet",
            ],
        )
        .unwrap();
        assert_eq!(o.input.to_str(), Some("in.csv"));
        assert_eq!(o.dim, 3);
        assert_eq!(o.eps, Some(0.5));
        assert_eq!(o.tau, Some(7));
        assert_eq!(o.window, Some(1000));
        assert_eq!(o.stride, Some(50));
        assert_eq!(o.method, "rho2");
        assert_eq!(o.rho, 0.1);
        assert!(o.quiet);
        // ρ²-DBSCAN ignores the backend, so `--index` goes with a method
        // built over it.
        let o = parse("cluster", &["--method", "dbscan", "--index", "grid"]).unwrap();
        assert_eq!(o.index.as_deref(), Some("grid"));
    }

    #[test]
    fn invalid_index_error_lists_all_backends() {
        // The durable branch resolves the backend before touching the
        // input, so the error is reachable without a stream on disk.
        // `curve` names a backend that no longer exists; it is refused
        // like any other unknown name.
        use cmd::DimCommand;
        for index in ["kdtree", "curve"] {
            let o = parse(
                "cluster",
                &["--index", index, "--checkpoint-dir", "/tmp/unused"],
            )
            .unwrap();
            let err = cmd::ClusterCmd.run::<2>(&o).unwrap_err();
            assert!(
                err.contains(&format!("{index:?}")) && err.contains("rtree or grid"),
                "error must name the input and every backend: {err}"
            );
        }
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = parse(
            "cluster",
            &[
                "--metrics-out",
                "m.jsonl",
                "--prom-addr",
                "127.0.0.1:9977",
                "--stats-every",
                "10",
            ],
        )
        .unwrap();
        assert_eq!(o.metrics_out.as_ref().unwrap().to_str(), Some("m.jsonl"));
        assert_eq!(o.prom_addr.as_deref(), Some("127.0.0.1:9977"));
        assert_eq!(o.stats_every, 10);
        let o = parse("cluster", &[]).unwrap();
        assert!(o.metrics_out.is_none());
        assert!(o.prom_addr.is_none());
        assert_eq!(o.stats_every, 0);
    }

    #[test]
    fn threads_flag_parses() {
        let threads = |args: &[&str]| parse("cluster", args).map(|o| o.threads);
        assert_eq!(threads(&[]).unwrap(), None);
        assert_eq!(threads(&["--threads", "4"]).unwrap(), Some(4));
        // 0 is the documented "auto" sentinel, not an error.
        assert_eq!(threads(&["--threads", "0"]).unwrap(), Some(0));
        assert!(threads(&["--threads", "-1"]).is_err());
        assert!(threads(&["--threads", "many"]).is_err());
    }

    /// The tentpole's user-facing guarantee: the same stream clustered at
    /// width 1 and width 4 produces the identical partition. `diffsnap`
    /// is the certifier, as in the crash-recovery walkthrough.
    #[test]
    fn threads_do_not_change_the_partition() {
        let dir = std::env::temp_dir().join("disc_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("stream.csv");
        let seq = dir.join("seq.csv");
        let wide = dir.join("wide.csv");
        run_strs(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        for (threads, out) in [("1", &seq), ("4", &wide)] {
            run_strs(&[
                "cluster",
                "--input",
                data.to_str().unwrap(),
                "--eps",
                "1.0",
                "--tau",
                "4",
                "--window",
                "300",
                "--stride",
                "100",
                "--quiet",
                "--threads",
                threads,
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
        }
        run_strs(&[
            "diffsnap",
            "--a",
            seq.to_str().unwrap(),
            "--b",
            wide.to_str().unwrap(),
        ])
        .unwrap();
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("cluster", &["--eps"]).is_err());
        assert!(parse("cluster", &["--eps", "not_a_number"]).is_err());
        assert!(parse("cluster", &["--bogus"]).is_err());
    }

    #[test]
    fn unknown_command_is_rejected() {
        let args: Vec<String> = vec!["frobnicate".into()];
        assert!(run(&args).is_err());
        let none: Vec<String> = vec![];
        assert!(run(&none).is_err());
    }

    #[test]
    fn cluster_requires_all_core_flags() {
        // --input exists but eps/tau/window/stride missing → error.
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("pts.csv");
        std::fs::write(&input, "0.0,0.0,\n1.0,0.0,\n").unwrap();
        let args: Vec<String> = vec![
            "cluster".into(),
            "--input".into(),
            input.to_str().unwrap().into(),
        ];
        let err = run(&args).unwrap_err();
        assert!(err.contains("--eps"), "got: {err}");
    }

    #[test]
    fn generate_and_recluster_roundtrip() {
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("gen.csv");
        let snap = dir.join("snap.csv");
        let args: Vec<String> = [
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let args: Vec<String> = [
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--dim",
            "2",
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--out",
            snap.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let text = std::fs::read_to_string(&snap).unwrap();
        assert!(text.starts_with("x0,x1,cluster"));
        assert_eq!(text.lines().count(), 301, "header + window points");
    }

    #[test]
    fn cluster_accepts_grid_index_backend() {
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("grid.csv");
        let args: Vec<String> = [
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let mut args: Vec<String> = [
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--dim",
            "2",
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--index",
            "grid",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        // And an unknown backend is rejected up front.
        let n = args.len();
        args[n - 1] = "quadtree".into();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--index"), "got: {err}");
    }

    #[test]
    fn metrics_out_writes_schema_valid_jsonl() {
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("tele.csv");
        let metrics = dir.join("tele.jsonl");
        let args: Vec<String> = [
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let args: Vec<String> = [
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--dim",
            "2",
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--stats-every",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Fill + 3 advances = 4 slides, one event per slide.
        assert_eq!(lines.len(), 4, "one JSONL event per slide");
        for (i, line) in lines.iter().enumerate() {
            disc_telemetry::SlideEvent::validate_jsonl(line).unwrap();
            let ev = disc_telemetry::SlideEvent::from_jsonl(line).unwrap();
            assert_eq!(ev.seq, i as u64 + 1);
            assert_eq!(ev.engine, "disc");
            assert_eq!(ev.backend, "rtree");
            assert!(ev.total_ns > 0);
            assert!(ev.range_searches > 0);
            assert!(ev.mem_bytes > 0, "engine must account its memory");
        }
        // The produced stream is immediately `disc top`-able.
        let args: Vec<String> = ["top", "--metrics", metrics.to_str().unwrap(), "--once"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }

    #[test]
    fn top_flags_parse_and_require_a_source() {
        let o = parse("top", &["--metrics", "m.jsonl", "--refresh", "250"]).unwrap();
        assert_eq!(o.metrics.as_ref().unwrap().to_str(), Some("m.jsonl"));
        assert_eq!(o.refresh, 250);
        assert!(
            parse("top", &["--metrics", "m.jsonl", "--once"])
                .unwrap()
                .once
        );
        let o = parse("top", &[]).unwrap();
        assert!(o.metrics.is_none());
        assert_eq!(o.refresh, 1000);
        assert!(!o.once);
        let err = run(&["top".to_string()]).unwrap_err();
        assert!(
            err.contains("--metrics") && err.contains("--prom-addr"),
            "{err}"
        );
    }

    #[test]
    fn observability_flags_parse() {
        let o = parse(
            "cluster",
            &[
                "--trace-out",
                "t.json",
                "--folded-out",
                "f.txt",
                "--provenance-out",
                "p.jsonl",
            ],
        )
        .unwrap();
        assert_eq!(o.trace_out.as_ref().unwrap().to_str(), Some("t.json"));
        assert_eq!(o.folded_out.as_ref().unwrap().to_str(), Some("f.txt"));
        assert_eq!(o.provenance_out.as_ref().unwrap().to_str(), Some("p.jsonl"));
        let o = parse("explain", &["--trace", "p.jsonl", "--slide", "17"]).unwrap();
        assert_eq!(o.trace.to_str(), Some("p.jsonl"));
        assert_eq!(o.slide, Some(17));
        let o = parse("cluster", &[]).unwrap();
        assert!(o.trace_out.is_none() && o.provenance_out.is_none());
        assert!(parse("explain", &["--trace", "p.jsonl"])
            .unwrap()
            .slide
            .is_none());
    }

    /// End-to-end: `disc run --trace-out --folded-out --provenance-out`
    /// produces a Chrome-loadable trace, a folded-stack profile, and a
    /// schema-valid provenance stream that `disc explain` can narrate.
    #[test]
    fn run_traces_and_explain_narrates() {
        let dir = std::env::temp_dir().join("disc_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("obs.csv");
        let trace = dir.join("obs_trace.json");
        let folded = dir.join("obs_folded.txt");
        let prov = dir.join("obs_prov.jsonl");
        let gen: Vec<String> = [
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&gen).unwrap();
        // `run` is the documented alias for `cluster`.
        let args: Vec<String> = [
            "run",
            "--input",
            data.to_str().unwrap(),
            "--dim",
            "2",
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--trace-out",
            trace.to_str().unwrap(),
            "--folded-out",
            folded.to_str().unwrap(),
            "--provenance-out",
            prov.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();

        // The chrome trace validates and holds all four slides' hierarchies.
        let text = std::fs::read_to_string(&trace).unwrap();
        let n = disc_telemetry::validate_chrome_trace(&text).unwrap();
        assert!(n > 0, "trace holds events");
        assert_eq!(text.matches("\"name\": \"slide\"").count(), 4);
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        assert!(folded_text.contains("slide;collect"), "{folded_text}");
        assert!(folded_text.contains("slide;cluster"), "{folded_text}");

        // Every provenance line passes the schema validator.
        let prov_text = std::fs::read_to_string(&prov).unwrap();
        assert!(!prov_text.is_empty(), "blobs stream emits provenance");
        for line in prov_text.lines() {
            disc_telemetry::ProvenanceEvent::validate_jsonl(line).unwrap();
        }

        // `explain` summarises the run and narrates a single slide,
        // naming the specific points behind it.
        let args: Vec<String> = ["explain", "--trace", prov.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
        let first =
            disc_telemetry::ProvenanceEvent::from_jsonl(prov_text.lines().next().unwrap()).unwrap();
        let args: Vec<String> = [
            "explain",
            "--trace",
            prov.to_str().unwrap(),
            "--slide",
            &first.slide.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();

        // Asking for a slide past the stream's end is an error, not silence.
        let args: Vec<String> = [
            "explain",
            "--trace",
            prov.to_str().unwrap(),
            "--slide",
            "9999",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("9999"), "got: {err}");
        // And a malformed stream is rejected with a line number.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"slide\": 1}\n").unwrap();
        let args: Vec<String> = ["explain", "--trace", bad.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).is_err());
    }

    #[test]
    fn health_flags_parse() {
        let o = parse(
            "cluster",
            &[
                "--audit-every",
                "8",
                "--alerts",
                "rules.toml",
                "--alerts-out",
                "a.jsonl",
                "--alerts-fatal",
                "--health-out",
                "h.jsonl",
            ],
        )
        .unwrap();
        assert_eq!(o.audit_every, 8);
        assert_eq!(o.alerts.as_ref().unwrap().to_str(), Some("rules.toml"));
        assert_eq!(o.alerts_out.as_ref().unwrap().to_str(), Some("a.jsonl"));
        assert!(o.alerts_fatal);
        assert_eq!(o.health_out.as_ref().unwrap().to_str(), Some("h.jsonl"));
        let o = parse("top", &["--metrics", "m.jsonl", "--health", "h.jsonl"]).unwrap();
        assert_eq!(o.health.as_ref().unwrap().to_str(), Some("h.jsonl"));
        let o = parse("cluster", &[]).unwrap();
        assert_eq!(o.audit_every, 0);
        assert!(o.alerts.is_none() && o.alerts_out.is_none() && o.health_out.is_none());
        assert!(!o.alerts_fatal);
    }

    /// The tentpole, end to end: a `disc run` over the adversarial
    /// split-merge stream with the auditor, alert engine and health sink
    /// on. The alert JSONL must hold at least one firing→resolved cycle,
    /// every health line must validate, `--alerts-fatal` must flip the
    /// exit into an error, and the streams must feed `disc top`'s health
    /// pane in tail mode.
    #[test]
    fn health_pipeline_end_to_end() {
        let dir = std::env::temp_dir().join("disc_cli_health_e2e_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("sm.csv");
        let rules = dir.join("rules.toml");
        let metrics = dir.join("m.jsonl");
        let alerts = dir.join("alerts.jsonl");
        let health = dir.join("health.jsonl");
        run_strs(&[
            "generate",
            "--dataset",
            "split_merge",
            "--n",
            "4000",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        // The two blobs drift apart and back together once over the
        // stream, so a cluster-count rule must fire and then resolve.
        std::fs::write(
            &rules,
            "[[rule]]\nname = \"split\"\nmetric = \"disc_cluster_count\"\n\
             op = \"gt\"\nthreshold = 1.5\nfor_slides = 2\nclear_slides = 2\n",
        )
        .unwrap();
        let base = [
            "run",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "0.6",
            "--tau",
            "5",
            "--window",
            "1000",
            "--stride",
            "200",
            "--quiet",
            "--audit-every",
            "8",
            "--alerts",
            rules.to_str().unwrap(),
            "--alerts-out",
            alerts.to_str().unwrap(),
            "--health-out",
            health.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ];
        run_strs(&base).unwrap();

        // ≥1 firing→resolved cycle, schema-valid throughout.
        let alert_text = std::fs::read_to_string(&alerts).unwrap();
        let mut states = Vec::new();
        for line in alert_text.lines() {
            disc_telemetry::AlertEvent::validate_jsonl(line).unwrap();
            let ev = disc_telemetry::AlertEvent::from_jsonl(line).unwrap();
            assert_eq!(ev.rule, "split");
            states.push(ev.state);
        }
        let fired = states.iter().position(|s| *s == "firing").unwrap();
        assert!(
            states[fired..].contains(&"resolved"),
            "need a firing→resolved cycle, got {states:?}"
        );

        // One schema-valid health line per slide, with audited slides
        // carrying quality scores.
        let health_text = std::fs::read_to_string(&health).unwrap();
        // 4000 records, window 1000, stride 200 → fill + 15 advances.
        assert_eq!(health_text.lines().count(), 16);
        let mut audited = 0;
        for line in health_text.lines() {
            disc_telemetry::HealthEvent::validate_jsonl(line).unwrap();
            let ev = disc_telemetry::HealthEvent::from_jsonl(line).unwrap();
            if ev.audited == 1 {
                audited += 1;
                assert!(ev.ari_ppm > 0, "audited slide carries quality: {line}");
            }
        }
        assert_eq!(audited, 2, "slides 8 and 16 are audited");

        // Both streams feed the live view's health pane.
        run_strs(&[
            "top",
            "--metrics",
            metrics.to_str().unwrap(),
            "--health",
            health.to_str().unwrap(),
            "--once",
        ])
        .unwrap();

        // CI mode: the same run with --alerts-fatal exits non-zero,
        // naming the count of fired alerts.
        let mut fatal: Vec<&str> = base.to_vec();
        fatal.push("--alerts-fatal");
        let err = run_strs(&fatal).unwrap_err();
        assert!(err.contains("--alerts-fatal"), "got: {err}");
    }

    /// The hostile-stream tentpole, end to end through the CLI: generate
    /// a disordered/duplicated/corrupted timed stream and its clean twin,
    /// run both through `disc run --timed` (the hostile one behind the
    /// full admission flag family with journal, ingest JSONL and a
    /// watermark-lag alert rule), certify the partitions identical with
    /// `diffsnap`, validate every emitted surface, then crash-and-resume
    /// the hostile run and certify again.
    #[test]
    fn hostile_stream_pipeline_end_to_end() {
        let dir = std::env::temp_dir().join("disc_cli_hostile_e2e_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("sm_clean.csv");
        let hostile = dir.join("sm_hostile.csv");
        let rules = dir.join("rules.toml");
        let (snap_ref, snap_hostile) = (dir.join("ref.csv"), dir.join("hostile.csv"));
        let (journal, ingest_jsonl) = (dir.join("admissions.ingj"), dir.join("ingest.jsonl"));
        let (metrics, alerts) = (dir.join("m.jsonl"), dir.join("alerts.jsonl"));

        // Same dataset seed → same clean payload under both files.
        for (out, extra) in [
            (&clean, vec![]),
            (
                &hostile,
                vec![
                    "--disorder",
                    "16",
                    "--dup-prob",
                    "0.05",
                    "--corrupt-prob",
                    "0.02",
                ],
            ),
        ] {
            let mut args = vec![
                "generate",
                "--dataset",
                "split_merge",
                "--n",
                "3000",
                "--timed",
                "--out",
                out.to_str().unwrap(),
            ];
            args.extend(extra);
            run_strs(&args).unwrap();
        }
        // Mid-run the reorder buffer trails the clock by ~the lateness
        // bound, so a watermark-lag rule must fire; the end-of-stream
        // flush drains the buffer to zero lag, so it must resolve.
        std::fs::write(
            &rules,
            "[[rule]]\nname = \"wm_lag\"\nmetric = \"disc_ingest_watermark_lag\"\n\
             op = \"gt\"\nthreshold = 1.0\nfor_slides = 2\nclear_slides = 1\n",
        )
        .unwrap();

        // Clean oracle: ordered timed stream, default admission.
        run_strs(&[
            "run",
            "--input",
            clean.to_str().unwrap(),
            "--timed",
            "--eps",
            "0.6",
            "--tau",
            "5",
            "--window",
            "1000",
            "--stride",
            "200",
            "--quiet",
            "--out",
            snap_ref.to_str().unwrap(),
        ])
        .unwrap();
        // Hostile run: skew 16 ≤ lateness 16, dedup ring on, journal +
        // JSONL + alerts + metrics all flowing.
        run_strs(&[
            "run",
            "--input",
            hostile.to_str().unwrap(),
            "--timed",
            "--lateness",
            "16",
            "--dedup",
            "64",
            "--eps",
            "0.6",
            "--tau",
            "5",
            "--window",
            "1000",
            "--stride",
            "200",
            "--quiet",
            "--ingest-journal",
            journal.to_str().unwrap(),
            "--ingest-out",
            ingest_jsonl.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--alerts",
            rules.to_str().unwrap(),
            "--alerts-out",
            alerts.to_str().unwrap(),
            "--out",
            snap_hostile.to_str().unwrap(),
        ])
        .unwrap();

        // The exactness guarantee, certified at the partition level.
        run_strs(&[
            "diffsnap",
            "--a",
            snap_ref.to_str().unwrap(),
            "--b",
            snap_hostile.to_str().unwrap(),
        ])
        .unwrap();

        // One schema-valid ingest line per slide, cumulative counters
        // landing on the full stream.
        let text = std::fs::read_to_string(&ingest_jsonl).unwrap();
        assert_eq!(text.lines().count(), 11, "fill + 10 advances");
        let mut last = None;
        for line in text.lines() {
            disc_telemetry::IngestEvent::validate_jsonl(line).unwrap();
            last = Some(disc_telemetry::IngestEvent::from_jsonl(line).unwrap());
        }
        let last = last.unwrap();
        assert_eq!(last.admitted, 3000, "every clean record admitted");
        assert!(last.records > 3000, "chaos inserted dups and garbage");
        assert!(last.deduped > 0 && last.malformed > 0 && last.reordered > 0);
        assert_eq!(last.late_dropped, 0, "skew ≤ lateness: never late");
        assert_eq!(last.buffered, 0, "end-of-stream flush drains the buffer");

        // The watermark-lag alert fired and resolved.
        let alert_text = std::fs::read_to_string(&alerts).unwrap();
        let mut states = Vec::new();
        for line in alert_text.lines() {
            disc_telemetry::AlertEvent::validate_jsonl(line).unwrap();
            let ev = disc_telemetry::AlertEvent::from_jsonl(line).unwrap();
            assert_eq!(ev.rule, "wm_lag");
            states.push(ev.state);
        }
        let fired = states
            .iter()
            .position(|s| *s == "firing")
            .unwrap_or_else(|| panic!("wm_lag never fired: {states:?}"));
        assert!(
            states[fired..].contains(&"resolved"),
            "need a firing→resolved cycle, got {states:?}"
        );

        // The journal holds one decision per raw line and replays clean.
        let scan = disc_persist::read_ingest_journal(&journal).unwrap();
        assert_eq!(scan.torn_tail_at, None);
        assert_eq!(scan.decisions.len() as u64, last.records);

        // Both JSONL trails feed the live view.
        run_strs(&[
            "top",
            "--metrics",
            metrics.to_str().unwrap(),
            "--ingest",
            ingest_jsonl.to_str().unwrap(),
            "--once",
        ])
        .unwrap();

        // Crash-and-resume under active disorder: a durable run that only
        // ever saw the first 60% of the hostile arrivals (exactly what a
        // kill mid-stream leaves), resumed against the full stream with
        // the same admission flags, must verify the journaled decision
        // prefix and land on the identical partition.
        let prefix = dir.join("hostile_prefix.csv");
        let all = std::fs::read_to_string(&hostile).unwrap();
        let keep = all.lines().count() * 6 / 10;
        let head: String = all.lines().take(keep).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
        std::fs::write(&prefix, head).unwrap();
        let ckpts = dir.join("ckpts");
        let wal = dir.join("slides.wal");
        let journal2 = dir.join("resume.ingj");
        let snap_resumed = dir.join("resumed.csv");
        run_strs(&[
            "run",
            "--input",
            prefix.to_str().unwrap(),
            "--timed",
            "--lateness",
            "16",
            "--dedup",
            "64",
            "--eps",
            "0.6",
            "--tau",
            "5",
            "--window",
            "1000",
            "--stride",
            "200",
            "--quiet",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--checkpoint-every",
            "2",
            "--wal",
            wal.to_str().unwrap(),
            "--fsync",
            "every=2",
            "--ingest-journal",
            journal2.to_str().unwrap(),
        ])
        .unwrap();
        run_strs(&[
            "resume",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--input",
            hostile.to_str().unwrap(),
            "--timed",
            "--lateness",
            "16",
            "--dedup",
            "64",
            "--quiet",
            "--ingest-journal",
            journal2.to_str().unwrap(),
            "--out",
            snap_resumed.to_str().unwrap(),
        ])
        .unwrap();
        run_strs(&[
            "diffsnap",
            "--a",
            snap_ref.to_str().unwrap(),
            "--b",
            snap_resumed.to_str().unwrap(),
        ])
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_prom_addr_is_reported() {
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("prom.csv");
        std::fs::write(&data, "0.0,0.0,\n1.0,0.0,\n0.5,0.5,\n").unwrap();
        let args: Vec<String> = [
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "2",
            "--window",
            "2",
            "--stride",
            "1",
            "--quiet",
            "--prom-addr",
            "not-an-address",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--prom-addr"), "got: {err}");
    }

    #[test]
    fn durability_flags_parse() {
        let o = parse(
            "cluster",
            &[
                "--checkpoint-dir",
                "ckpts",
                "--checkpoint-every",
                "5",
                "--wal",
                "slides.wal",
                "--fsync",
                "every=8",
            ],
        )
        .unwrap();
        assert_eq!(o.checkpoint_dir.as_ref().unwrap().to_str(), Some("ckpts"));
        assert_eq!(o.checkpoint_every, Some(5));
        assert_eq!(o.wal.as_ref().unwrap().to_str(), Some("slides.wal"));
        assert_eq!(o.fsync.as_deref(), Some("every=8"));
        let o = parse("diffsnap", &["--a", "a.csv", "--b", "b.csv"]).unwrap();
        assert_eq!(o.snap_a.to_str(), Some("a.csv"));
        assert_eq!(o.snap_b.to_str(), Some("b.csv"));
        let o = parse("cluster", &[]).unwrap();
        assert!(o.checkpoint_dir.is_none() && o.wal.is_none());
        assert_eq!(o.checkpoint_every, None);
        assert_eq!(o.fsync, None);
    }

    fn run_strs(args: &[&str]) -> Result<(), String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    /// End-to-end crash walkthrough, in-process: a durable run on a prefix
    /// of the stream stands in for a run killed mid-stream (its final
    /// checkpoint + WAL survive on disk exactly as a kill would leave
    /// them); `disc resume` picks up against the full stream, and
    /// `disc diffsnap` certifies the result against an uninterrupted run.
    /// The CI `recovery` job repeats this with a real `kill -9`.
    #[test]
    fn durable_run_resume_and_diffsnap_roundtrip() {
        let dir = std::env::temp_dir().join("disc_cli_durable_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("stream.csv");
        let prefix = dir.join("prefix.csv");
        let ckpts = dir.join("ckpts");
        let wal = dir.join("slides.wal");
        let snap_full = dir.join("full.csv");
        let snap_resumed = dir.join("resumed.csv");

        run_strs(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        // The reference: one uninterrupted durable run over the whole
        // stream (durable, so the label-allocation history matches the
        // crashed-and-resumed engine's).
        let ref_ckpts = dir.join("ref_ckpts");
        run_strs(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--checkpoint-dir",
            ref_ckpts.to_str().unwrap(),
            "--out",
            snap_full.to_str().unwrap(),
        ])
        .unwrap();

        // The "crashed" run only ever saw the first 400 records.
        let text = std::fs::read_to_string(&data).unwrap();
        let head: String = text.lines().take(400).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
        std::fs::write(&prefix, head).unwrap();
        run_strs(&[
            "run",
            "--input",
            prefix.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--checkpoint-every",
            "2",
            "--wal",
            wal.to_str().unwrap(),
            "--fsync",
            "every=2",
        ])
        .unwrap();
        assert!(wal.exists());
        assert!(
            std::fs::read_dir(&ckpts).unwrap().count() >= 1,
            "durable run left checkpoints behind"
        );

        // Resume against the full stream and finish the remaining slides.
        run_strs(&[
            "resume",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--quiet",
            "--out",
            snap_resumed.to_str().unwrap(),
        ])
        .unwrap();

        // The resumed run must induce the identical partition.
        run_strs(&[
            "diffsnap",
            "--a",
            snap_full.to_str().unwrap(),
            "--b",
            snap_resumed.to_str().unwrap(),
        ])
        .unwrap();
    }

    /// A resume that finds no slide left writes an empty
    /// `--provenance-out`; `disc explain` must read it (0 events, exit 0)
    /// and refuse only a `--slide` the file cannot cover.
    #[test]
    fn explain_reads_the_empty_provenance_of_a_resume_with_nothing_left() {
        let dir = std::env::temp_dir().join("disc_cli_empty_provenance_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("stream.csv");
        let ckpts = dir.join("ckpts");
        let wal = dir.join("slides.wal");
        let prov = dir.join("prov.jsonl");
        let (data_s, ckpts_s, wal_s, prov_s) = (
            data.to_str().unwrap(),
            ckpts.to_str().unwrap(),
            wal.to_str().unwrap(),
            prov.to_str().unwrap(),
        );
        run_strs(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            data_s,
        ])
        .unwrap();
        // A durable run that finishes the whole stream...
        run_strs(&[
            "run",
            "--input",
            data_s,
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--checkpoint-dir",
            ckpts_s,
            "--wal",
            wal_s,
        ])
        .unwrap();
        // ...so the resume after it applies nothing and traces nothing.
        run_strs(&[
            "resume",
            "--checkpoint-dir",
            ckpts_s,
            "--wal",
            wal_s,
            "--input",
            data_s,
            "--quiet",
            "--provenance-out",
            prov_s,
        ])
        .unwrap();
        assert_eq!(std::fs::read_to_string(&prov).unwrap(), "");

        run_strs(&["explain", "--trace", prov_s]).unwrap();
        let err = run_strs(&["explain", "--trace", prov_s, "--slide", "1"]).unwrap_err();
        assert!(err.contains("covers no slides"), "got: {err}");
    }

    #[test]
    fn corrupted_checkpoint_fails_resume_loudly() {
        let dir = std::env::temp_dir().join("disc_cli_corrupt_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("stream.csv");
        let ckpts = dir.join("ckpts");
        run_strs(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "500",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run_strs(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
        ])
        .unwrap();
        // Flip one byte in the middle of the newest checkpoint.
        let newest = std::fs::read_dir(&ckpts)
            .unwrap()
            .map(|e| e.unwrap().path())
            .max()
            .unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, bytes).unwrap();
        let err = run_strs(&[
            "resume",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--input",
            data.to_str().unwrap(),
            "--quiet",
        ])
        .unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("corrupt") || err.contains("truncated"),
            "expected a typed corruption error, got: {err}"
        );
    }

    #[test]
    fn diffsnap_reports_divergence_and_tolerates_relabeling() {
        let dir = std::env::temp_dir().join("disc_cli_diffsnap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        let c = dir.join("c.csv");
        // b is a with clusters renamed (7↔3): canonically identical.
        std::fs::write(&a, "x0,x1,cluster\n0,0,3\n1,0,3\n5,5,7\n9,9,-1\n").unwrap();
        std::fs::write(&b, "x0,x1,cluster\n0,0,7\n1,0,7\n5,5,3\n9,9,-1\n").unwrap();
        // c moves a point between clusters: a real divergence.
        std::fs::write(&c, "x0,x1,cluster\n0,0,3\n1,0,7\n5,5,7\n9,9,-1\n").unwrap();
        run_strs(&[
            "diffsnap",
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_strs(&[
            "diffsnap",
            "--a",
            a.to_str().unwrap(),
            "--b",
            c.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("diverge"), "got: {err}");
        // Length mismatch is reported as such.
        std::fs::write(&c, "x0,x1,cluster\n0,0,3\n").unwrap();
        let err = run_strs(&[
            "diffsnap",
            "--a",
            a.to_str().unwrap(),
            "--b",
            c.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("points"), "got: {err}");
    }

    #[test]
    fn durable_flags_reject_non_disc_methods() {
        let dir = std::env::temp_dir().join("disc_cli_durable_method_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("pts.csv");
        std::fs::write(&data, "0.0,0.0,\n1.0,0.0,\n0.5,0.5,\n").unwrap();
        let err = run_strs(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "2",
            "--window",
            "2",
            "--stride",
            "1",
            "--method",
            "incdbscan",
            "--checkpoint-dir",
            dir.join("ckpts").to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("--method disc"), "got: {err}");
        // A WAL without a checkpoint dir cannot be recovered from; reject it.
        let err = run_strs(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "1.0",
            "--tau",
            "2",
            "--window",
            "2",
            "--stride",
            "1",
            "--wal",
            dir.join("slides.wal").to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "got: {err}");
    }

    #[test]
    fn estimate_runs_on_generated_data() {
        let dir = std::env::temp_dir().join("disc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("est.csv");
        let args: Vec<String> = [
            "generate",
            "--dataset",
            "maze",
            "--n",
            "800",
            "--out",
            data.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let args: Vec<String> = ["estimate", "--input", data.to_str().unwrap(), "--dim", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run(&args).unwrap();
    }
}
