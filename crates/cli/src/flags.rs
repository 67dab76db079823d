//! The flag table: the one statement of which command takes which flag.
//!
//! Each [`Flag`] row names a flag, its value placeholder (or none, for a
//! switch), the commands that take it, the setter that parses its value
//! into [`Opts`], its default, the flags it needs or refuses, and the
//! `--method` values it affects. [`Opts::parse`], `disc --help` and every
//! refusal read the table and nothing else, so a flag a command would
//! drop is an error before the command runs, never a silent no-op.

use std::path::PathBuf;
use std::str::FromStr;

/// Parsed command-line options: one typed field per flag, set by its
/// [`FLAGS`] row. Only the fields of the running command's flags are set.
#[derive(Default)]
pub struct Opts {
    pub input: Option<PathBuf>,
    pub out: Option<PathBuf>,
    pub dim: usize,
    pub eps: Option<f64>,
    pub tau: Option<usize>,
    pub window: Option<usize>,
    pub stride: Option<usize>,
    pub method: String,
    /// `None` when `--index` is not given, so `disc resume` can tell a
    /// request from the default (`rtree`).
    pub index: Option<String>,
    /// `None` leaves the engine on its default (the `DISC_THREADS` env
    /// var, else sequential); 0 is auto. Output is bit-identical at every
    /// width.
    pub threads: Option<usize>,
    pub rho: f64,
    pub quiet: bool,
    pub stats_every: u64,
    // Telemetry, span and provenance outputs.
    pub metrics_out: Option<PathBuf>,
    pub prom_addr: Option<String>,
    pub trace_out: Option<PathBuf>,
    pub folded_out: Option<PathBuf>,
    pub provenance_out: Option<PathBuf>,
    // Stream health.
    pub audit_every: u64,
    pub alerts: Option<PathBuf>,
    pub alerts_out: Option<PathBuf>,
    pub alerts_fatal: bool,
    pub health_out: Option<PathBuf>,
    // Durability; `--checkpoint-every` defaults to 1 and `--fsync` to
    // `always` where they are read.
    pub checkpoint_dir: Option<PathBuf>,
    pub checkpoint_every: Option<u64>,
    pub wal: Option<PathBuf>,
    pub fsync: Option<String>,
    // Event-time admission (DESIGN.md §16).
    pub timed: bool,
    pub lateness: Option<f64>,
    pub reorder_cap: Option<usize>,
    pub max_skew: Option<f64>,
    pub on_late: Option<String>,
    pub dedup: Option<usize>,
    pub shed: Option<String>,
    pub ingest_journal: Option<PathBuf>,
    pub ingest_out: Option<PathBuf>,
    // `diffsnap`, `explain` and `top` inputs.
    pub snap_a: Option<PathBuf>,
    pub snap_b: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    pub slide: Option<u64>,
    pub metrics: Option<PathBuf>,
    pub health: Option<PathBuf>,
    pub ingest: Option<PathBuf>,
    pub refresh: u64,
    pub once: bool,
    // `estimate` and `generate`.
    pub sample: usize,
    pub dataset: Option<String>,
    pub n: usize,
    pub seed: u64,
    pub disorder: Option<f64>,
    pub dup_prob: f64,
    pub corrupt_prob: f64,
}

/// The commands in `--help` order; a row's `commands` has bit `i` set when
/// `COMMANDS[i]` takes the flag. `disc run` parses as `cluster`.
#[rustfmt::skip]
const COMMANDS: [(&str, &str); 7] = [
    ("cluster", "cluster --input; needs --eps --tau --window --stride (alias: run)"),
    ("resume", "continue the run in --checkpoint-dir (+ --wal) over its --input;\n  \
                --eps, --tau, --window, --stride and --index, if given, must match it"),
    ("diffsnap", "compare the snapshots --a and --b up to cluster renaming"),
    ("explain", "narrate the --provenance-out stream --trace"),
    ("top", "live view of a --metrics file or a --prom-addr endpoint"),
    ("estimate", "suggest --eps and --tau for --input (K-distance)"),
    ("generate", "write --n points of --dataset to --out"),
];
const CLUSTER: u8 = 1;
const RESUME: u8 = 1 << 1;
const DIFFSNAP: u8 = 1 << 2;
const EXPLAIN: u8 = 1 << 3;
const TOP: u8 = 1 << 4;
const ESTIMATE: u8 = 1 << 5;
const GENERATE: u8 = 1 << 6;
/// Both commands that drive the slide pipeline.
const RUN: u8 = CLUSTER | RESUME;

/// Only DISC exports its state, records spans and emits provenance.
const DISC: &[&str] = &["disc"];
/// The methods built over the `--index` backend; they also publish slide
/// events.
const INDEXED: &[&str] = &["disc", "extran", "dbscan"];
/// The admission flags govern event time.
const TIMED: &[&str] = &["--timed"];

/// Parses a flag's value into its [`Opts`] field; `None` if it does not
/// parse. A switch receives `"true"`.
type Set = fn(&mut Opts, &str) -> Option<()>;

/// One row of [`FLAGS`].
struct Flag {
    name: &'static str,
    /// The value placeholder for `--help`; `None` for a switch.
    value: Option<&'static str>,
    commands: u8,
    set: Set,
    default: Option<&'static str>,
    /// Given, the flag needs one of these given too.
    requires: &'static [&'static str],
    /// Given, the flag refuses these.
    conflicts: &'static [&'static str],
    /// The `--method` values the flag affects; empty for all of them.
    methods: &'static [&'static str],
}

const fn flag(name: &'static str, value: &'static str, commands: u8, set: Set) -> Flag {
    Flag::new(name, Some(value), commands, set)
}

const fn switch(name: &'static str, commands: u8, set: Set) -> Flag {
    Flag::new(name, None, commands, set)
}

// One-line builders, so that each row of the table reads as one statement.
#[rustfmt::skip]
impl Flag {
    const fn new(name: &'static str, value: Option<&'static str>, commands: u8, set: Set) -> Flag {
        Flag { name, value, commands, set, default: None, requires: &[], conflicts: &[], methods: &[] }
    }
    const fn default(self, value: &'static str) -> Flag { Flag { default: Some(value), ..self } }
    const fn requires(self, requires: &'static [&'static str]) -> Flag { Flag { requires, ..self } }
    const fn conflicts(self, conflicts: &'static [&'static str]) -> Flag { Flag { conflicts, ..self } }
    const fn methods(self, methods: &'static [&'static str]) -> Flag { Flag { methods, ..self } }
}

impl Flag {
    /// The row's `--help` item: `[--flag VALUE (notes)]`.
    fn help(&self) -> String {
        let notes = [
            self.default.map(|d| format!("default {d}")),
            (!self.requires.is_empty()).then(|| format!("needs {}", self.requires.join(" or "))),
            (!self.conflicts.is_empty()).then(|| format!("not with {}", self.conflicts.join(", "))),
            (!self.methods.is_empty()).then(|| format!("--method {}", or_list(self.methods))),
        ];
        let notes: Vec<String> = notes.into_iter().flatten().collect();
        let value = self.value.map_or(String::new(), |v| format!(" {v}"));
        match notes.is_empty() {
            true => format!("[{}{value}]", self.name),
            false => format!("[{}{value} ({})]", self.name, notes.join("; ")),
        }
    }
}

fn set<T: FromStr>(slot: &mut T, value: &str) -> Option<()> {
    *slot = value.parse().ok()?;
    Some(())
}

fn some<T: FromStr>(slot: &mut Option<T>, value: &str) -> Option<()> {
    *slot = Some(value.parse().ok()?);
    Some(())
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--input", "F", RUN | ESTIMATE, |o, v| some(&mut o.input, v)),
    flag("--out", "F", RUN | GENERATE, |o, v| some(&mut o.out, v)),
    flag("--dim", "D", RUN | DIFFSNAP | ESTIMATE, |o, v| set(&mut o.dim, v)).default("2"),
    flag("--eps", "X", RUN, |o, v| some(&mut o.eps, v)),
    flag("--tau", "N", RUN, |o, v| some(&mut o.tau, v)),
    flag("--window", "W", RUN, |o, v| some(&mut o.window, v)),
    flag("--stride", "S", RUN, |o, v| some(&mut o.stride, v)),
    flag("--method", "disc|incdbscan|extran|dbscan|rho2", RUN, |o, v| set(&mut o.method, v))
        .default("disc"),
    flag("--index", "rtree|grid", RUN, |o, v| some(&mut o.index, v)).methods(INDEXED),
    flag("--threads", "N", RUN, |o, v| some(&mut o.threads, v)).methods(DISC),
    flag("--rho", "X", CLUSTER, |o, v| set(&mut o.rho, v)).default("0.001").methods(&["rho2"]),
    switch("--quiet", RUN, |o, v| set(&mut o.quiet, v)),
    flag("--stats-every", "N", RUN, |o, v| set(&mut o.stats_every, v)), // a summary every N slides; 0 = off
    flag("--metrics-out", "F.jsonl", RUN, |o, v| some(&mut o.metrics_out, v)).methods(INDEXED),
    flag("--prom-addr", "HOST:PORT", RUN | TOP, |o, v| some(&mut o.prom_addr, v)),
    flag("--trace-out", "F.json", RUN, |o, v| some(&mut o.trace_out, v)).methods(DISC), // for chrome://tracing
    flag("--folded-out", "F.txt", RUN, |o, v| some(&mut o.folded_out, v)).methods(DISC), // for flamegraph tools
    flag("--provenance-out", "F.jsonl", RUN, |o, v| some(&mut o.provenance_out, v)).methods(DISC),
    flag("--audit-every", "K", RUN, |o, v| set(&mut o.audit_every, v)), // 0 = off
    flag("--alerts", "RULES", RUN, |o, v| some(&mut o.alerts, v)), // TOML or JSON
    flag("--alerts-out", "F.jsonl", RUN, |o, v| some(&mut o.alerts_out, v)).requires(&["--alerts"]),
    switch("--alerts-fatal", RUN, |o, v| set(&mut o.alerts_fatal, v)).requires(&["--alerts"]), // exit 2 if any fired
    flag("--health-out", "F.jsonl", RUN, |o, v| some(&mut o.health_out, v)),
    flag("--checkpoint-dir", "DIR", RUN, |o, v| some(&mut o.checkpoint_dir, v)).methods(DISC),
    flag("--checkpoint-every", "N", RUN, |o, v| some(&mut o.checkpoint_every, v))
        .requires(&["--checkpoint-dir"]),
    flag("--wal", "F", RUN, |o, v| some(&mut o.wal, v)).requires(&["--checkpoint-dir"]),
    flag("--fsync", "always|never|every=N", RUN, |o, v| some(&mut o.fsync, v))
        .requires(&["--wal", "--ingest-journal"]), // always if not given
    switch("--timed", RUN | ESTIMATE | GENERATE, |o, v| set(&mut o.timed, v)), // column 0 is an event time
    flag("--lateness", "X", RUN, |o, v| some(&mut o.lateness, v)).requires(TIMED), // behind the newest event time
    flag("--reorder-cap", "N", RUN, |o, v| some(&mut o.reorder_cap, v)).requires(TIMED), // in records
    flag("--max-skew", "X", RUN, |o, v| some(&mut o.max_skew, v)).requires(TIMED), // in event time
    flag("--on-late", "drop|deadletter|upsert", RUN, |o, v| some(&mut o.on_late, v)).requires(TIMED),
    flag("--dedup", "N", RUN, |o, v| some(&mut o.dedup, v)).requires(TIMED), // ring size; 0 = off
    flag("--shed", "HIGH:LOW", RUN, |o, v| some(&mut o.shed, v)).requires(TIMED), // water marks, in records
    flag("--ingest-journal", "F", RUN, |o, v| some(&mut o.ingest_journal, v)).requires(TIMED),
    flag("--ingest-out", "F.jsonl", RUN, |o, v| some(&mut o.ingest_out, v)).requires(TIMED),
    flag("--a", "F", DIFFSNAP, |o, v| some(&mut o.snap_a, v)),
    flag("--b", "F", DIFFSNAP, |o, v| some(&mut o.snap_b, v)),
    flag("--trace", "F.jsonl", EXPLAIN, |o, v| some(&mut o.trace, v)),
    flag("--slide", "N", EXPLAIN, |o, v| some(&mut o.slide, v)),
    flag("--metrics", "F.jsonl", TOP, |o, v| some(&mut o.metrics, v)).conflicts(&["--prom-addr"]),
    flag("--health", "F.jsonl", TOP, |o, v| some(&mut o.health, v)).requires(&["--metrics"]),
    flag("--ingest", "F.jsonl", TOP, |o, v| some(&mut o.ingest, v)).requires(&["--metrics"]),
    flag("--refresh", "MS", TOP, |o, v| set(&mut o.refresh, v)).default("1000").conflicts(&["--once"]),
    switch("--once", TOP, |o, v| set(&mut o.once, v)),
    flag("--sample", "N", ESTIMATE, |o, v| set(&mut o.sample, v)).default("2000"),
    flag("--dataset", "maze|dtg|geolife|covid|iris|netflow|blobs|split_merge", GENERATE,
         |o, v| some(&mut o.dataset, v)),
    flag("--n", "N", GENERATE, |o, v| set(&mut o.n, v)).default("10000"),
    flag("--seed", "N", GENERATE, |o, v| set(&mut o.seed, v)).default("42"),
    flag("--disorder", "SKEW", GENERATE, |o, v| some(&mut o.disorder, v)), // shuffle within this skew
    flag("--dup-prob", "P", GENERATE, |o, v| set(&mut o.dup_prob, v)), // per record
    flag("--corrupt-prob", "P", GENERATE, |o, v| set(&mut o.corrupt_prob, v)), // per line
];

/// `a`, `a or b`, `a, b or c`.
fn or_list(items: &[&str]) -> String {
    match items.split_last() {
        Some((last, [])) => last.to_string(),
        Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
        None => String::new(),
    }
}

/// `disc --help`: each command's line and the rows of the flags it takes.
pub(crate) fn usage() -> String {
    let mut out = String::from(
        "usage: disc COMMAND [FLAGS] | disc --help\n\
         A command refuses every flag not listed under it.\n",
    );
    for (i, (name, about)) in COMMANDS.iter().enumerate() {
        out.push_str(&format!("\ndisc {name}: {about}\n"));
        let mut line = String::from(" ");
        for f in FLAGS.iter().filter(|f| f.commands & (1 << i) != 0) {
            let item = f.help();
            if line.len() + item.len() > 78 {
                out.push_str(&format!("{line}\n"));
                line = String::from(" ");
            }
            line.push_str(&format!(" {item}"));
        }
        out.push_str(&format!("{line}\n"));
    }
    out
}

impl Opts {
    /// Parses `command`'s flags against [`FLAGS`]. A repeated flag keeps
    /// its last value. Refuses an unknown command, a flag the command does
    /// not take, a value that does not parse, and a given flag whose
    /// `requires`, `conflicts` or `--method` values its row does not allow.
    pub fn parse(command: &str, args: &[String]) -> Result<Opts, String> {
        let name = if command == "run" { "cluster" } else { command };
        let Some(i) = COMMANDS.iter().position(|(c, _)| *c == name) else {
            return Err(format!("unknown command {command:?}\n{}", usage()));
        };
        let bit = 1u8 << i;
        let mut opts = Opts::default();
        for (f, default) in FLAGS.iter().filter_map(|f| Some((f, f.default?))) {
            (f.set)(&mut opts, default).expect("every default parses");
        }
        let mut given: Vec<&Flag> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(f) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown flag {arg:?}\n{}", usage()));
            };
            if f.commands & bit == 0 {
                let takers = (0..COMMANDS.len()).filter(|i| f.commands & (1 << i) != 0);
                let takers: Vec<&str> = takers.map(|i| COMMANDS[i].0).collect();
                let takers = takers.join(", ");
                return Err(format!(
                    "disc {command} does not take {arg} ({takers} only)"
                ));
            }
            let missing = || format!("flag {arg} needs a value");
            let value = match f.value {
                Some(_) => it.next().ok_or_else(missing)?,
                None => "true",
            };
            (f.set)(&mut opts, value)
                .ok_or_else(|| format!("flag {arg}: cannot parse {value:?}"))?;
            given.push(f);
        }
        let has = |name: &str| given.iter().any(|g| g.name == name);
        for f in &given {
            let (name, method) = (f.name, &opts.method);
            let refusal = if let Some(c) = f.conflicts.iter().find(|c| has(c)) {
                format!("{name} and {c} cannot be combined")
            } else if !f.requires.is_empty() && !f.requires.iter().any(|r| has(r)) {
                format!("{name} needs {}", f.requires.join(" or "))
            } else if !f.methods.is_empty() && !f.methods.contains(&method.as_str()) {
                format!(
                    "{name} requires --method {} (got {method:?})",
                    or_list(f.methods)
                )
            } else {
                continue;
            };
            return Err(format!("disc {command}: {refusal}"));
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(args: &[&str]) -> Result<(), String> {
        crate::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn row(name: &str) -> &'static Flag {
        FLAGS.iter().find(|f| f.name == name).unwrap()
    }

    /// `f` as given on a command line: its name, then a value its setter
    /// accepts (the first of `a|b` alternatives, else `1`).
    fn given(f: &Flag) -> Vec<String> {
        let mut args = vec![f.name.to_string()];
        if let Some(v) = f.value {
            let first = v.split_once('|').map_or("1", |(first, _)| first);
            args.push(first.to_string());
        }
        args
    }

    /// `f` plus what its row asks for: the first flag of `requires`, and so
    /// on down, and the first `--method` value it affects.
    fn taken(f: &Flag) -> Vec<String> {
        let mut args = given(f);
        if let Some(r) = f.requires.first() {
            args.extend(taken(row(r)));
        }
        if let Some(m) = f.methods.first() {
            args.extend(["--method".to_string(), m.to_string()]);
        }
        args
    }

    fn is_empty(dir: &Path) -> bool {
        std::fs::read_dir(dir).unwrap().next().is_none()
    }

    /// Inputs for every command's base invocation: a blob stream, the
    /// snapshot, metrics and provenance of a durable run over it, and its
    /// checkpoint directory.
    fn inputs(dir: &Path) -> [String; 5] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let [data, snap, metrics, prov, ck] = ["b.csv", "s.csv", "m.jsonl", "p.jsonl", "ck"].map(p);
        run(&[
            "generate",
            "--dataset",
            "blobs",
            "--n",
            "600",
            "--out",
            &data,
        ])
        .unwrap();
        run(&[
            "cluster",
            "--input",
            &data,
            "--eps",
            "1",
            "--tau",
            "4",
            "--window",
            "300",
            "--stride",
            "100",
            "--quiet",
            "--out",
            &snap,
            "--metrics-out",
            &metrics,
            "--provenance-out",
            &prov,
            "--checkpoint-dir",
            &ck,
        ])
        .unwrap();
        [data, snap, metrics, prov, ck]
    }

    /// Every (command, flag) pair, `run` counted as `cluster`: a pair in
    /// the table parses; any other pair fails before the command runs,
    /// naming the command and the flag, and writes nothing. Each base
    /// invocation works on its own, so the refusal is the flag's.
    #[test]
    fn every_command_flag_pair_is_taken_or_refused_by_name() {
        let tmp = std::env::temp_dir();
        let [data, snap, metrics, prov, ck] = inputs(&tmp.join("disc_cli_flag_pairs_inputs"));
        let dir = tmp.join("disc_cli_flag_pairs");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.csv").to_str().unwrap().to_string();
        let artifact = dir.join("artifact").to_str().unwrap().to_string();
        let run_base = ["--input", &data, "--quiet", "--out", &out];
        let window = [
            "--eps", "1", "--tau", "4", "--window", "300", "--stride", "100",
        ];
        let bases: [(&str, Vec<&str>); 8] = [
            ("cluster", [&run_base[..], &window].concat()),
            ("run", [&run_base[..], &window].concat()),
            (
                "resume",
                [&run_base[..], &["--checkpoint-dir", &ck]].concat(),
            ),
            ("diffsnap", vec!["--a", &snap, "--b", &snap]),
            ("explain", vec!["--trace", &prov]),
            ("top", vec!["--metrics", &metrics, "--once"]),
            ("estimate", vec!["--input", &data]),
            (
                "generate",
                vec!["--dataset", "blobs", "--n", "50", "--out", &out],
            ),
        ];
        for (command, base) in &bases {
            let bit = if *command == "run" {
                CLUSTER
            } else {
                1 << COMMANDS.iter().position(|(c, _)| c == command).unwrap()
            };
            for f in FLAGS {
                if f.commands & bit != 0 {
                    let args = taken(f);
                    if let Err(e) = Opts::parse(command, &args) {
                        panic!("disc {command} {args:?}: {e}");
                    }
                    continue;
                }
                let mut args = [&[*command][..], base].concat();
                args.push(f.name);
                if f.value.is_some() {
                    args.push(&artifact);
                }
                let err = run(&args).unwrap_err();
                let named = format!("disc {command} does not take {} (", f.name);
                assert!(err.starts_with(&named), "{args:?}: {err}");
                assert!(is_empty(&dir), "{args:?} wrote into {}", dir.display());
            }
        }
        for (command, base) in &bases {
            run(&[&[*command][..], base].concat()).unwrap_or_else(|e| panic!("{command}: {e}"));
            let _ = std::fs::remove_file(&out);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs that a build without the table accepted and then dropped a
    /// flag of: each is refused by name and writes nothing.
    #[test]
    fn dropped_flag_probes_are_refused() {
        let tmp = std::env::temp_dir();
        let [data, snap, metrics, _, _] = inputs(&tmp.join("disc_cli_probe_inputs"));
        let dir = tmp.join("disc_cli_probes");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (g, w, m, o) = (p("g.csv"), p("w.wal"), p("m.jsonl"), p("o.csv"));
        let cluster = [
            "cluster", "--input", &data, "--eps", "1", "--tau", "4", "--window", "300", "--stride",
            "100", "--quiet", "--out", &o,
        ];
        let generate = ["generate", "--dataset", "blobs", "--n", "600", "--out", &g];
        let probes: [(Vec<&str>, &[&str]); 8] = [
            (
                [
                    &generate[..],
                    &["--wal", &w, "--threads", "4", "--metrics-out", &m],
                ]
                .concat(),
                &["--wal"],
            ),
            (vec!["estimate", "--input", &data, "--out", &o], &["--out"]),
            (
                [
                    &cluster[..],
                    &["--once", "--refresh", "5", "--slide", "3", "--sample", "9"],
                ]
                .concat(),
                &["--once"],
            ),
            (
                vec!["top", "--metrics", &metrics, "--once", "--wal", &w],
                &["--wal"],
            ),
            (
                [
                    &cluster[..],
                    &[
                        "--method",
                        "incdbscan",
                        "--index",
                        "grid",
                        "--threads",
                        "4",
                        "--rho",
                        "0.5",
                    ],
                ]
                .concat(),
                &["--index", "incdbscan"],
            ),
            (
                vec![
                    "top",
                    "--metrics",
                    &metrics,
                    "--prom-addr",
                    "127.0.0.1:1",
                    "--once",
                ],
                &["--metrics", "--prom-addr"],
            ),
            ([&generate[..], &["--dim", "3"]].concat(), &["--dim"]),
            (
                vec![
                    "diffsnap", "--a", &snap, "--b", &snap, "--eps", "3", "--timed",
                ],
                &["--eps"],
            ),
        ];
        for (args, named) in probes {
            let err = run(&args).unwrap_err();
            for part in [args[0]].iter().chain(named) {
                assert!(err.contains(part), "{args:?}: {err}");
            }
            assert!(is_empty(&dir), "{args:?} wrote into {}", dir.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--index` only where a method is built over the backend, `--threads`
    /// only for DISC, `--rho` only for ρ²-DBSCAN.
    #[test]
    fn index_threads_and_rho_follow_the_method() {
        let parse = |args: &[&str]| {
            Opts::parse(
                "cluster",
                &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        let refused = |args: &[&str], named: &[&str]| {
            let err = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} parsed"));
            for part in named {
                assert!(err.contains(part), "{args:?}: {err}");
            }
        };
        for method in ["incdbscan", "rho2"] {
            let named = ["--index", "--method disc, extran or dbscan", method];
            refused(&["--method", method, "--index", "grid"], &named);
        }
        for method in ["incdbscan", "extran", "dbscan", "rho2"] {
            refused(
                &["--threads", "2", "--method", method],
                &["--threads", "--method disc", method],
            );
        }
        for method in ["disc", "dbscan"] {
            refused(
                &["--method", method, "--rho", "0.1"],
                &["--rho", "--method rho2", method],
            );
        }
        refused(&["--rho", "0.1"], &["--rho", "--method rho2"]);
        for method in ["disc", "extran", "dbscan"] {
            assert!(
                parse(&["--method", method, "--index", "grid"]).is_ok(),
                "{method}"
            );
        }
        assert_eq!(parse(&["--threads", "2"]).unwrap().threads, Some(2));
        assert_eq!(
            parse(&["--method", "rho2", "--rho", "0.1"]).unwrap().rho,
            0.1
        );
    }

    #[test]
    fn repeated_flags_keep_the_last_value_and_defaults_come_from_the_table() {
        let args: Vec<String> = ["--eps", "1", "--eps", "9"].map(String::from).to_vec();
        assert_eq!(Opts::parse("resume", &args).unwrap().eps, Some(9.0));
        let o = Opts::parse("generate", &[]).unwrap();
        assert_eq!(
            (o.n, o.seed, o.dim, o.method.as_str()),
            (10_000, 42, 2, "disc")
        );
        let help = usage();
        for f in FLAGS {
            assert!(
                help.contains(&format!("[{}", f.name)),
                "{} missing from --help",
                f.name
            );
        }
    }
}
