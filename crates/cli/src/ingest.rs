//! Hostile-stream admission for the CLI (`--timed` plus the ingest flag
//! family).
//!
//! With `--timed`, the input CSV carries an event time in column 0 and is
//! allowed to be *messy*: out of order, duplicated, malformed, bursty.
//! This module runs the whole file through the `disc-window` admission
//! layer (reorder buffer, watermark, late/duplicate/malformed policies,
//! overload shedding — DESIGN.md §16) before any clustering happens, and
//! keeps a per-slide timeline of the admission state so the slide loops
//! can publish evolving `disc_ingest_*` metrics, feed the alert engine,
//! and append schema-valid [`IngestEvent`] JSONL lines.
//!
//! Admission is deterministic (a pure function of the raw byte stream and
//! the [`AdmissionConfig`]), so running it eagerly up front yields
//! bit-for-bit the decisions a record-at-a-time pipeline would make; the
//! timeline snapshots are taken at exactly the instants each slide's worth
//! of admitted data became available. The same determinism is what makes
//! the `--ingest-journal` usable for crash recovery: `disc resume`
//! re-derives every decision from the raw stream and verifies the
//! journaled prefix with [`disc_persist::verify_replay`] before extending
//! it.

use crate::health::JsonlWriter;
use crate::Opts;
use disc_persist::{FsyncPolicy, IngestJournalWriter};
use disc_telemetry::{lag_ppm, IngestEvent, JsonlRecord, Recorder, Registry};
use disc_window::reorder::IngestStats;
use disc_window::{csv, AdmissionConfig, Decision, Ingest, LatePolicy, Record};
use std::path::PathBuf;

/// The parsed ingest flag family.
#[derive(Debug)]
pub struct IngestOpts {
    /// Admission-layer configuration (`--lateness`, `--reorder-cap`,
    /// `--max-skew`, `--on-late`, `--dedup`, `--shed`).
    pub cfg: AdmissionConfig,
    /// Admission-decision journal (`--ingest-journal`).
    pub journal: Option<PathBuf>,
    /// Per-slide ingest JSONL sink (`--ingest-out`).
    pub out: Option<PathBuf>,
}

/// Parses the ingest flags; `Ok(None)` without `--timed` (the flag table
/// refuses them there).
pub fn ingest_opts(opts: &Opts) -> Result<Option<IngestOpts>, String> {
    if !opts.timed {
        return Ok(None);
    }
    let d = AdmissionConfig::default();
    let mut cfg = AdmissionConfig {
        lateness: opts.lateness.unwrap_or(d.lateness),
        reorder_cap: opts.reorder_cap.unwrap_or(d.reorder_cap),
        max_skew: opts.max_skew.unwrap_or(d.max_skew),
        dedup: opts.dedup.unwrap_or(d.dedup),
        ..d
    };
    if let Some(p) = &opts.on_late {
        cfg.late = LatePolicy::parse(p)
            .ok_or_else(|| format!("--on-late {p:?}: expected drop, deadletter, or upsert"))?;
    }
    if let Some(spec) = &opts.shed {
        let (high, low) = spec
            .split_once(':')
            .ok_or_else(|| format!("--shed {spec:?}: expected HIGH:LOW record counts"))?;
        cfg.shed_high = high
            .parse()
            .map_err(|_| format!("--shed {spec:?}: bad high-water {high:?}"))?;
        cfg.shed_low = low
            .parse()
            .map_err(|_| format!("--shed {spec:?}: bad low-water {low:?}"))?;
    }
    cfg.validate().map_err(|e| format!("ingest config: {e}"))?;
    Ok(Some(IngestOpts {
        cfg,
        journal: opts.ingest_journal.clone(),
        out: opts.ingest_out.clone(),
    }))
}

/// One point on the admission timeline: the buffer state at the instant a
/// slide's worth of admitted records became available.
#[derive(Clone, Copy, Debug)]
struct Snap {
    stats: IngestStats,
    buffered: u64,
    ready: u64,
    lag: f64,
    shedding: bool,
    watermark: f64,
}

impl Snap {
    fn of<const D: usize>(ing: &Ingest<D>) -> Snap {
        Snap {
            stats: *ing.stats(),
            buffered: ing.buffered_len() as u64,
            ready: ing.ready_len() as u64,
            lag: ing.watermark_lag(),
            shedding: ing.shedding(),
            watermark: ing.watermark(),
        }
    }
}

/// Loads the stream for a run: plain CSV normally, the full admission
/// pipeline under `--timed`. `resume` switches the journal handling from
/// create-and-write to verify-prefix-then-extend.
pub fn load_stream<const D: usize>(
    opts: &Opts,
    window: usize,
    stride: usize,
    resume: bool,
) -> Result<(Vec<Record<D>>, Option<IngestPipeline>), String> {
    match ingest_opts(opts)? {
        None => Ok((crate::cmd::load::<D>(opts)?, None)),
        Some(io) => {
            let input = opts
                .input
                .as_ref()
                .ok_or("--input is required".to_string())?;
            let rows = csv::read_timed_records_lossy::<D>(input)
                .map_err(|e| format!("{}: {e}", input.display()))?;
            let mut ing = Ingest::<D>::new(io.cfg);
            let mut admitted: Vec<Record<D>> = Vec::new();
            let mut decisions: Vec<Decision> = Vec::new();
            let mut snaps: Vec<Snap> = Vec::new();
            // Slide k's data is complete when `window + (k-1)*stride`
            // records have been admitted; snapshot the buffer there.
            let mut next_boundary = window;
            let mut drain =
                |ing: &mut Ingest<D>, admitted: &mut Vec<Record<D>>, snaps: &mut Vec<Snap>| {
                    while let Some(tr) = ing.pop() {
                        admitted.push(tr.record);
                        if admitted.len() == next_boundary {
                            snaps.push(Snap::of(ing));
                            next_boundary += stride;
                        }
                    }
                };
            for row in rows {
                let d = match row {
                    Ok(tr) => ing.push(tr),
                    Err(_) => ing.push_malformed(),
                };
                decisions.push(d);
                drain(&mut ing, &mut admitted, &mut snaps);
            }
            ing.finish();
            drain(&mut ing, &mut admitted, &mut snaps);
            let final_snap = Snap::of(&ing);

            if admitted.is_empty() {
                return Err("no records survived admission (is the stream all \
                            malformed, late, or shed?)"
                    .to_string());
            }
            let journal = match &io.journal {
                Some(path) => {
                    let policy = crate::pipeline::fsync_policy(opts)?;
                    let appended = write_journal(path, policy, &decisions, resume)?;
                    Some((path.clone(), appended))
                }
                None => None,
            };
            let out = io.out.as_deref().map(JsonlWriter::create).transpose()?;
            let pipeline = IngestPipeline {
                snaps,
                final_snap,
                published: IngestStats::default(),
                out,
                dead: ing.dead_letters().len(),
                journal,
                decisions: decisions.len() as u64,
            };
            Ok((admitted, Some(pipeline)))
        }
    }
}

/// Journals the derived decisions. Fresh runs create the file; resumes
/// (or reruns over an existing journal) verify that the journaled prefix
/// matches the derived decisions bit-for-bit, then append only the tail.
/// Returns how many decisions were newly appended.
fn write_journal(
    path: &std::path::Path,
    policy: FsyncPolicy,
    decisions: &[Decision],
    resume: bool,
) -> Result<u64, String> {
    let fail = |e: disc_persist::PersistError| format!("--ingest-journal {}: {e}", path.display());
    let (mut writer, already) = if resume && path.exists() {
        let (writer, scan) = IngestJournalWriter::open_append(path, policy).map_err(fail)?;
        disc_persist::verify_replay(&scan.decisions, decisions).map_err(fail)?;
        let n = scan.decisions.len();
        (writer, n)
    } else {
        (IngestJournalWriter::create(path, policy).map_err(fail)?, 0)
    };
    for d in &decisions[already..] {
        writer.append(*d).map_err(fail)?;
    }
    writer.sync().map_err(fail)?;
    Ok((decisions.len() - already) as u64)
}

/// The admission timeline handed to the slide loops: publishes cumulative
/// `disc_ingest_*` metrics per slide (so alert rules and `disc top` see
/// them evolve) and appends one [`IngestEvent`] JSONL line per slide.
#[derive(Debug)]
pub struct IngestPipeline {
    snaps: Vec<Snap>,
    final_snap: Snap,
    published: IngestStats,
    out: Option<JsonlWriter>,
    dead: usize,
    journal: Option<(PathBuf, u64)>,
    decisions: u64,
}

impl IngestPipeline {
    fn snap_for(&self, slide: u64) -> Snap {
        let idx = (slide.max(1) - 1) as usize;
        self.snaps.get(idx).copied().unwrap_or(self.final_snap)
    }

    /// Publishes slide `slide`'s admission state: counter deltas (keeping
    /// registry totals monotone across slides), the buffer gauges, and the
    /// JSONL event.
    pub fn on_slide(&mut self, slide: u64, registry: &Registry) -> Result<(), String> {
        let snap = self.snap_for(slide);
        let (s, p) = (&snap.stats, &self.published);
        registry.counter_add("disc_ingest_records_total", s.pushed - p.pushed);
        registry.counter_add("disc_ingest_admitted_total", s.admitted - p.admitted);
        registry.counter_add("disc_ingest_reordered_total", s.reordered - p.reordered);
        registry.counter_add(
            "disc_ingest_late_dropped_total",
            s.late_dropped - p.late_dropped,
        );
        registry.counter_add(
            "disc_ingest_dead_lettered_total",
            s.dead_lettered - p.dead_lettered,
        );
        registry.counter_add(
            "disc_ingest_late_upserts_total",
            s.late_upserts - p.late_upserts,
        );
        registry.counter_add("disc_ingest_deduped_total", s.deduped - p.deduped);
        registry.counter_add("disc_ingest_shed_total", s.shed - p.shed);
        registry.counter_add("disc_ingest_malformed_total", s.malformed - p.malformed);
        self.published = snap.stats;
        registry.gauge_set("disc_ingest_buffered", snap.buffered as f64);
        registry.gauge_set("disc_ingest_ready", snap.ready as f64);
        registry.gauge_set("disc_ingest_watermark_lag", snap.lag);
        registry.gauge_set("disc_ingest_shedding", snap.shedding as u64 as f64);
        if snap.watermark.is_finite() {
            registry.gauge_set("disc_ingest_watermark", snap.watermark);
        }
        if let Some(out) = &mut self.out {
            let ev = IngestEvent {
                slide,
                records: s.pushed,
                admitted: s.admitted,
                reordered: s.reordered,
                late_dropped: s.late_dropped,
                dead_lettered: s.dead_lettered,
                late_upserts: s.late_upserts,
                deduped: s.deduped,
                shed: s.shed,
                malformed: s.malformed,
                buffered: snap.buffered,
                watermark_lag_ppm: lag_ppm(snap.lag),
                shedding: snap.shedding as u64,
            };
            out.line(&ev.to_jsonl())?;
        }
        Ok(())
    }

    /// Flushes the JSONL sink and prints the admission summary.
    pub fn finish(&mut self, quiet: bool) -> Result<(), String> {
        if let Some(out) = &mut self.out {
            out.flush()?;
        }
        if quiet {
            return Ok(());
        }
        let s = self.final_snap.stats;
        println!(
            "ingest: {} records -> {} admitted ({} reordered), {} late-dropped, \
             {} dead-lettered, {} late-upserts, {} duplicates, {} shed, {} malformed",
            s.pushed,
            s.admitted,
            s.reordered,
            s.late_dropped,
            self.dead,
            s.late_upserts,
            s.deduped,
            s.shed,
            s.malformed
        );
        if let Some((path, appended)) = &self.journal {
            println!(
                "ingest journal {}: {} decision(s) total, {} appended this run \
                 (prefix verified bit-for-bit)",
                path.display(),
                self.decisions,
                appended
            );
        }
        if let Some(out) = &self.out {
            println!("wrote per-slide ingest events to {}", out.path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse("cluster", &owned)
    }

    fn opts(args: &[&str]) -> Opts {
        parse(args).unwrap()
    }

    #[test]
    fn ingest_flags_require_timed() {
        let err = parse(&["--lateness", "5"]).err().unwrap();
        assert!(err.contains("--timed"), "{err}");
        assert!(ingest_opts(&opts(&[])).unwrap().is_none());
    }

    #[test]
    fn full_flag_family_parses_into_the_config() {
        let o = opts(&[
            "--timed",
            "--lateness",
            "6.5",
            "--reorder-cap",
            "128",
            "--max-skew",
            "32",
            "--on-late",
            "upsert",
            "--dedup",
            "64",
            "--shed",
            "1000:200",
            "--ingest-journal",
            "adm.ingj",
            "--ingest-out",
            "ing.jsonl",
        ]);
        let io = ingest_opts(&o).unwrap().unwrap();
        assert_eq!(io.cfg.lateness, 6.5);
        assert_eq!(io.cfg.reorder_cap, 128);
        assert_eq!(io.cfg.max_skew, 32.0);
        assert_eq!(io.cfg.late, LatePolicy::Upsert);
        assert_eq!(io.cfg.dedup, 64);
        assert_eq!((io.cfg.shed_high, io.cfg.shed_low), (1000, 200));
        assert_eq!(io.journal.as_ref().unwrap().to_str(), Some("adm.ingj"));
        assert_eq!(io.out.as_ref().unwrap().to_str(), Some("ing.jsonl"));
    }

    #[test]
    fn bad_ingest_flags_are_rejected() {
        let err = ingest_opts(&opts(&["--timed", "--on-late", "punt"])).unwrap_err();
        assert!(err.contains("punt"), "{err}");
        let err = ingest_opts(&opts(&["--timed", "--shed", "500"])).unwrap_err();
        assert!(err.contains("HIGH:LOW"), "{err}");
        let err = ingest_opts(&opts(&["--timed", "--shed", "200:500"])).unwrap_err();
        assert!(err.contains("high-water"), "{err}");
        let err = ingest_opts(&opts(&["--timed", "--lateness", "-1"])).unwrap_err();
        assert!(err.contains("lateness"), "{err}");
    }

    /// The timeline must snapshot once per slide boundary and publish
    /// monotone counters across slides.
    #[test]
    fn timeline_publishes_per_slide_and_emits_jsonl() {
        let dir = std::env::temp_dir().join("disc_cli_ingest_timeline_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("timed.csv");
        let out = dir.join("ing.jsonl");
        // 12 in-order timed records, one malformed line in the middle.
        let mut text = String::new();
        for t in 0..6 {
            text.push_str(&format!("{t}.0,{t}.0,0.0\n"));
        }
        text.push_str("not,a,record\n");
        for t in 6..12 {
            text.push_str(&format!("{t}.0,{t}.0,0.0\n"));
        }
        std::fs::write(&input, text).unwrap();
        let o = opts(&[
            "--input",
            input.to_str().unwrap(),
            "--timed",
            "--ingest-out",
            out.to_str().unwrap(),
        ]);
        // window 6, stride 3 → slides complete at 6, 9, 12 admitted.
        let (records, pipeline) = load_stream::<2>(&o, 6, 3, false).unwrap();
        let mut pipeline = pipeline.unwrap();
        assert_eq!(records.len(), 12);
        assert_eq!(pipeline.snaps.len(), 3);
        let registry = Registry::new();
        for slide in 1..=3 {
            pipeline.on_slide(slide, &registry).unwrap();
        }
        pipeline.finish(true).unwrap();
        assert_eq!(registry.counter_value("disc_ingest_records_total"), 13);
        assert_eq!(registry.counter_value("disc_ingest_admitted_total"), 12);
        assert_eq!(registry.counter_value("disc_ingest_malformed_total"), 1);
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            IngestEvent::assert_valid_jsonl(line);
            let ev = IngestEvent::from_jsonl(line).unwrap();
            assert_eq!(ev.slide, i as u64 + 1);
            assert_eq!(ev.admitted, 6 + 3 * i as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fresh run writes the journal; a resume over the same stream
    /// verifies and appends nothing; a tampered journal fails loudly.
    #[test]
    fn journal_roundtrip_verify_and_divergence() {
        let dir = std::env::temp_dir().join("disc_cli_ingest_journal_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("timed.csv");
        let journal = dir.join("adm.ingj");
        let mut text = String::new();
        for t in 0..10 {
            text.push_str(&format!("{t}.0,{t}.0,1.0\n"));
        }
        std::fs::write(&input, text).unwrap();
        let o = opts(&[
            "--input",
            input.to_str().unwrap(),
            "--timed",
            "--ingest-journal",
            journal.to_str().unwrap(),
        ]);
        let (_, p) = load_stream::<2>(&o, 5, 5, false).unwrap();
        assert_eq!(p.unwrap().decisions, 10);
        // Resume: the journaled prefix must verify, nothing new appended.
        let (_, p) = load_stream::<2>(&o, 5, 5, true).unwrap();
        let p = p.unwrap();
        assert_eq!(p.journal.as_ref().unwrap().1, 0, "no new decisions");
        // Corrupt one decision byte mid-journal → resume refuses.
        let mut bytes = std::fs::read(&journal).unwrap();
        let off = bytes.len() - 9; // code byte of the last record
        bytes[off] = 2; // admit → late-drop, with a now-stale CRC
        std::fs::write(&journal, bytes).unwrap();
        let err = load_stream::<2>(&o, 5, 5, true).unwrap_err();
        assert!(
            err.contains("corrupt") || err.contains("diverged"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
