//! `disc resume` and `disc diffsnap`: continuing a durable run from its
//! checkpoint + WAL through the shared slide pipeline, and certifying the
//! result against an uninterrupted run.

use crate::cmd::{effective_workers, DimCommand};
use crate::pipeline::{build_engine, drive, Durable, Origin, Run};
use crate::Opts;
use disc_persist::{checkpoint_path, latest_checkpoint_seq, load_checkpoint};
use disc_window::{csv, SlidingWindow};
use std::fmt::Display;
use std::path::PathBuf;

/// `disc resume --checkpoint-dir DIR [--wal F] --input F`.
pub struct ResumeCmd;

impl DimCommand for ResumeCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let dir = (opts.checkpoint_dir.as_ref()).expect("the flag table requires --checkpoint-dir");
        let started = std::time::Instant::now();
        let seq = latest_checkpoint_seq(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .ok_or_else(|| format!("no checkpoint found in {}", dir.display()))?;
        // Peek at the checkpoint for the run's parameters and backend;
        // recovery proper reloads it together with the WAL tail.
        let ckpt = load_checkpoint::<D>(&checkpoint_path(dir, seq))
            .map_err(|e| format!("checkpoint {seq}: {e}"))?;
        let driver = ckpt.driver.ok_or(
            "checkpoint carries no driver position (written by a library user?); \
             cannot resume the stream",
        )?;
        let cfg = ckpt.state.config;
        let (window, stride) = (driver.window as usize, driver.stride as usize);
        // A resume continues the checkpointed run; a flag asking for
        // anything else would be silently dropped, so it is refused.
        same_as_checkpoint("--eps", opts.eps, cfg.eps)?;
        same_as_checkpoint("--tau", opts.tau, cfg.tau)?;
        same_as_checkpoint("--window", opts.window, window)?;
        same_as_checkpoint("--stride", opts.stride, stride)?;
        same_as_checkpoint("--index", opts.index.as_deref(), cfg.backend.name())?;

        let workers = effective_workers(opts);
        let recovered = Origin::Recovered(dir, opts.wal.as_deref());
        let (engine, report) = build_engine::<D>(cfg.backend, recovered, opts, workers)?;
        let report = report.expect("recovery reports");
        say!(
            "recovered slide {}: checkpoint {} + {} WAL slide(s){} in {:?}",
            report.checkpoint_seq + report.replayed,
            report.checkpoint_seq,
            report.replayed,
            if report.torn_tail {
                " (discarded a torn WAL tail)"
            } else {
                ""
            },
            started.elapsed()
        )?;

        // Under `--timed`, admission is re-derived over the raw stream and
        // the journal prefix is verified bit-for-bit before the admitted
        // records (identical to the crashed run's, by determinism) re-feed
        // the window.
        let (records, ingest) = crate::ingest::load_stream::<D>(opts, window, stride, true)?;
        let start = driver.start + report.replayed * driver.stride;
        if start as usize + window > records.len() {
            return Err(format!(
                "recovered window starts at record {start} but the stream has only {} points \
                 — is --input the same stream the checkpoint was taken from?",
                records.len()
            ));
        }
        let run = Run {
            engine,
            window: SlidingWindow::resume_at(records, window, stride, start as usize),
            durable: Durable::from_opts(opts, true)?,
            ingest,
            recovery: Some(report),
            eps: cfg.eps,
            tau: cfg.tau,
            workers,
        };
        drive(opts, run)
    }
}

/// Refuses `flag` when given with a value other than the checkpoint's.
fn same_as_checkpoint<T: PartialEq + Display>(
    flag: &str,
    given: Option<T>,
    saved: T,
) -> Result<(), String> {
    match given {
        Some(v) if v != saved => Err(format!(
            "{flag} {v} differs from the checkpoint's {saved}; \
             disc resume continues the checkpointed run"
        )),
        _ => Ok(()),
    }
}

/// `disc diffsnap --a F --b F [--dim D]` — canonical snapshot comparison.
///
/// Raw cluster ids are allocation artifacts (they vary with hash-set
/// iteration history), so a `diff` of two snapshot files is meaningless
/// across a crash/recovery boundary. This compares what is actually
/// guaranteed: same points in the same order, the same noise set, and the
/// same induced partition after renumbering clusters by first appearance.
pub struct DiffsnapCmd;

impl DimCommand for DiffsnapCmd {
    fn run<const D: usize>(&self, opts: &Opts) -> Result<(), String> {
        let (a, b) = (&opts.snap_a, &opts.snap_b);
        let read =
            |p: &PathBuf| csv::read_snapshot::<D>(p).map_err(|e| format!("{}: {e}", p.display()));
        let (mut ra, mut rb) = (read(a)?, read(b)?);
        // Snapshot row order is an engine-internal artifact (it follows the
        // point store's insertion history, which a crash/recovery changes),
        // so compare coordinate-sorted rows. The readers reject non-finite
        // coordinates, so `partial_cmp` is total here.
        let by_coords = |x: &(disc_geom::Point<D>, i64), y: &(disc_geom::Point<D>, i64)| {
            x.0.coords().partial_cmp(&y.0.coords()).unwrap()
        };
        ra.sort_by(by_coords);
        rb.sort_by(by_coords);
        if ra.len() != rb.len() {
            return Err(format!(
                "snapshots differ: {} has {} points, {} has {}",
                a.display(),
                ra.len(),
                b.display(),
                rb.len()
            ));
        }
        let canon = |rows: &[(disc_geom::Point<D>, i64)]| -> Vec<(disc_geom::Point<D>, i64)> {
            let mut rename: std::collections::BTreeMap<i64, i64> = Default::default();
            rows.iter()
                .map(|&(p, l)| {
                    if l < 0 {
                        (p, -1)
                    } else {
                        let next = rename.len() as i64;
                        (p, *rename.entry(l).or_insert(next))
                    }
                })
                .collect()
        };
        let (ca, cb) = (canon(&ra), canon(&rb));
        for (i, (x, y)) in ca.iter().zip(cb.iter()).enumerate() {
            if x != y {
                return Err(format!(
                    "snapshots diverge at point {} (coordinate order): \
                     {:?} cluster {} vs {:?} cluster {}",
                    i + 1,
                    x.0.coords(),
                    x.1,
                    y.0.coords(),
                    y.1
                ));
            }
        }
        let clusters = ca
            .iter()
            .map(|&(_, l)| l)
            .filter(|&l| l >= 0)
            .max()
            .map_or(0, |m| m + 1);
        say!(
            "snapshots agree: {} points, {} clusters, {} noise",
            ca.len(),
            clusters,
            ca.iter().filter(|&&(_, l)| l < 0).count()
        )?;
        Ok(())
    }
}
