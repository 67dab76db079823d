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
//! and hand out schema-valid [`IngestEvent`] lines for `--ingest-out`.
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

use crate::Opts;
use disc_persist::{FsyncPolicy, IngestJournalWriter};
use disc_telemetry::{IngestEvent, Registry};
use disc_window::{
    csv, AdmissionConfig, Decision, Ingest, IngestSnapshot, IngestStats, LatePolicy, Record,
};
use std::path::PathBuf;

/// The parsed ingest flag family.
#[derive(Debug)]
pub struct IngestOpts {
    /// Admission-layer configuration (`--lateness`, `--reorder-cap`,
    /// `--max-skew`, `--on-late`, `--dedup`, `--shed`).
    pub cfg: AdmissionConfig,
    /// Admission-decision journal (`--ingest-journal`).
    pub journal: Option<PathBuf>,
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
    }))
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
            let input = &opts.input;
            let rows = csv::read_timed_records_lossy::<D>(input)
                .map_err(|e| format!("{}: {e}", input.display()))?;
            let mut ing = Ingest::<D>::new(io.cfg);
            let mut admitted: Vec<Record<D>> = Vec::new();
            let mut decisions: Vec<Decision> = Vec::new();
            let mut snaps: Vec<IngestSnapshot> = Vec::new();
            // Slide k's data is complete when `window + (k-1)*stride`
            // records have been admitted; snapshot the buffer there.
            let mut next_boundary = window;
            let mut drain = |ing: &mut Ingest<D>,
                             admitted: &mut Vec<Record<D>>,
                             snaps: &mut Vec<IngestSnapshot>| {
                while let Some(tr) = ing.pop() {
                    admitted.push(tr.record);
                    if admitted.len() == next_boundary {
                        snaps.push(ing.snapshot());
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
            let final_snap = ing.snapshot();

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
            let pipeline = IngestPipeline {
                snaps,
                final_snap,
                published: IngestStats::default(),
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
/// them evolve) and gives each slide's [`IngestEvent`] line.
#[derive(Debug)]
pub struct IngestPipeline {
    snaps: Vec<IngestSnapshot>,
    final_snap: IngestSnapshot,
    published: IngestStats,
    dead: usize,
    journal: Option<(PathBuf, u64)>,
    decisions: u64,
}

impl IngestPipeline {
    /// Publishes slide `slide`'s admission state, counters as deltas so
    /// registry totals stay monotone across slides, and returns its line.
    pub fn on_slide(&mut self, slide: u64, registry: &Registry) -> IngestEvent {
        let idx = (slide.max(1) - 1) as usize;
        let snap = self.snaps.get(idx).copied().unwrap_or(self.final_snap);
        snap.publish(&self.published, registry);
        self.published = snap.stats;
        snap.event(slide)
    }

    /// Prints the admission summary.
    pub fn summary(&self) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        crate::flags::parse_cluster(args)
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
    fn timeline_publishes_per_slide_and_gives_its_events() {
        let dir = std::env::temp_dir().join("disc_cli_ingest_timeline_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("timed.csv");
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
        let o = opts(&["--input", input.to_str().unwrap(), "--timed"]);
        // window 6, stride 3 → slides complete at 6, 9, 12 admitted.
        let (records, pipeline) = load_stream::<2>(&o, 6, 3, false).unwrap();
        let mut pipeline = pipeline.unwrap();
        assert_eq!(records.len(), 12);
        assert_eq!(pipeline.snaps.len(), 3);
        let registry = Registry::new();
        for slide in 1..=3 {
            let ev = pipeline.on_slide(slide, &registry);
            assert_eq!(ev.slide, slide);
            assert_eq!(ev.admitted, 3 + 3 * slide);
        }
        assert_eq!(registry.counter_value("disc_ingest_records_total"), 13);
        assert_eq!(registry.counter_value("disc_ingest_admitted_total"), 12);
        assert_eq!(registry.counter_value("disc_ingest_malformed_total"), 1);
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
