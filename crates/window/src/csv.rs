//! Minimal CSV import/export for point streams and cluster snapshots.
//!
//! Used by the Fig. 12 reproduction (cluster illustrations) to dump
//! `(coords..., cluster)` rows that any plotting tool can render, and to let
//! users feed their own point streams into the examples.
//!
//! Two input disciplines coexist:
//!
//! * the **strict** readers ([`read_records`], [`read_timed_records`],
//!   [`read_snapshot`]) reject the whole file on the first malformed line
//!   — right for trusted, machine-written files;
//! * the **lossy** timed reader ([`read_timed_records_lossy`]) returns
//!   every line as `Ok(record)` or `Err(reason)`, never aborting and
//!   never panicking — the front door for hostile streams, feeding the
//!   [`reorder`](crate::reorder) admission layer's malformed policy.

use crate::disorder::HostileRecord;
use crate::stream::Record;
use crate::timewindow::TimedRecord;
use disc_geom::Point;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Writes records as CSV: one row per point, `D` coordinate columns followed
/// by an optional integer label column (empty when unlabelled).
pub fn write_records<const D: usize>(path: &Path, records: &[Record<D>]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for r in records {
        for i in 0..D {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(out, "{}", r.point[i])?;
        }
        match r.truth {
            Some(l) => writeln!(out, ",{l}")?,
            None => writeln!(out, ",")?,
        }
    }
    out.flush()
}

/// Writes a labelled snapshot: coordinates plus a cluster label, with `-1`
/// standing for noise.
pub fn write_snapshot<const D: usize>(path: &Path, rows: &[(Point<D>, i64)]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    writeln!(out, "{}", snapshot_header::<D>())?;
    for (p, label) in rows {
        for i in 0..D {
            write!(out, "{},", p[i])?;
        }
        writeln!(out, "{label}")?;
    }
    out.flush()
}

/// A snapshot's first line: `x0,..,x{D-1},cluster`.
fn snapshot_header<const D: usize>() -> String {
    (0..D).map(|i| format!("x{i},")).collect::<String>() + "cluster"
}

/// Parses one coordinate cell, rejecting anything the engine itself would
/// reject: `f64::parse` happily accepts `NaN`, `inf`, and overflow
/// spellings like `1e999`, none of which are valid point coordinates.
fn parse_finite(field: &str, lineno: usize) -> io::Result<f64> {
    let v = field.trim().parse::<f64>().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {}: bad coordinate {field:?}: {e}", lineno + 1),
        )
    })?;
    if !v.is_finite() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line {}: non-finite coordinate {field:?}", lineno + 1),
        ));
    }
    Ok(v)
}

/// Reads records written by [`write_records`]. Rows with a trailing label
/// column become labelled records.
///
/// Every malformed input — wrong arity, non-numeric or non-finite cells,
/// binary garbage — yields an [`io::Error`] naming the offending line;
/// this function never panics on hostile bytes.
pub fn read_records<const D: usize>(path: &Path) -> io::Result<Vec<Record<D>>> {
    let file = std::fs::File::open(path)?;
    let reader = io::BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < D || fields.len() > D + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: expected {} coordinates plus an optional label, found {} fields",
                    lineno + 1,
                    D,
                    fields.len()
                ),
            ));
        }
        let mut coords = [0.0; D];
        for (i, c) in coords.iter_mut().enumerate() {
            *c = parse_finite(fields[i], lineno)?;
        }
        let truth = fields
            .get(D)
            .map(|s| s.trim())
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<u32>().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {}: bad label {s:?}: {e}", lineno + 1),
                    )
                })
            })
            .transpose()?;
        out.push(Record {
            point: Point::new(coords),
            truth,
        });
    }
    Ok(out)
}

/// Writes timed records as CSV: a timestamp column, `D` coordinate
/// columns, then the optional label column (empty when unlabelled).
pub fn write_timed_records<const D: usize>(
    path: &Path,
    records: &[TimedRecord<D>],
) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for r in records {
        write_timed_row(&mut out, r)?;
    }
    out.flush()
}

fn write_timed_row<const D: usize, W: Write>(out: &mut W, r: &TimedRecord<D>) -> io::Result<()> {
    write!(out, "{}", r.time)?;
    for i in 0..D {
        write!(out, ",{}", r.record.point[i])?;
    }
    match r.record.truth {
        Some(l) => writeln!(out, ",{l}"),
        None => writeln!(out, ","),
    }
}

/// Writes a hostile arrival sequence as timed CSV, materialising each
/// [`HostileRecord::Malformed`] kind as a different flavour of garbage
/// line — the chaos generator's file format, and the lossy reader's
/// acid test.
pub fn write_hostile_records<const D: usize>(
    path: &Path,
    records: &[HostileRecord<D>],
) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for r in records {
        match r {
            HostileRecord::Ok(rec) => write_timed_row(&mut out, rec)?,
            HostileRecord::Malformed(kind) => {
                let garbage: String = match kind % crate::disorder::MALFORMED_KINDS {
                    0 => "### not a record ###".to_string(),
                    1 => "1.0".to_string(), // wrong arity
                    2 => {
                        // Non-finite coordinate in an otherwise valid row.
                        let coords = vec!["NaN"; D].join(",");
                        format!("1.0,{coords},")
                    }
                    _ => {
                        // Non-finite timestamp.
                        let coords = vec!["0.0"; D].join(",");
                        format!("inf,{coords},")
                    }
                };
                writeln!(out, "{garbage}")?;
            }
        }
    }
    out.flush()
}

/// Reads timed records leniently: one entry per non-empty line, either
/// the parsed record or a human-readable rejection. Invalid UTF-8 is
/// handled by lossy conversion (the affected cells fail to parse), so the
/// only `Err` return is a genuine I/O failure. Never panics.
pub fn read_timed_records_lossy<const D: usize>(
    path: &Path,
) -> io::Result<Vec<Result<TimedRecord<D>, String>>> {
    let file = std::fs::File::open(path)?;
    let mut reader = io::BufReader::new(file);
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(out);
        }
        lineno += 1;
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_timed_line::<D>(line, lineno));
    }
}

/// Reads timed records strictly: the first malformed line fails the whole
/// file with [`io::ErrorKind::InvalidData`], mirroring [`read_records`].
pub fn read_timed_records<const D: usize>(path: &Path) -> io::Result<Vec<TimedRecord<D>>> {
    read_timed_records_lossy(path)?
        .into_iter()
        .map(|r| r.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)))
        .collect()
}

fn parse_timed_line<const D: usize>(line: &str, lineno: usize) -> Result<TimedRecord<D>, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() < D + 1 || fields.len() > D + 2 {
        return Err(format!(
            "line {lineno}: expected a timestamp, {D} coordinates and an \
             optional label, found {} fields",
            fields.len()
        ));
    }
    let fin = |field: &str, what: &str| -> Result<f64, String> {
        let v = field
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("line {lineno}: bad {what} {field:?}: {e}"))?;
        if !v.is_finite() {
            return Err(format!("line {lineno}: non-finite {what} {field:?}"));
        }
        Ok(v)
    };
    let time = fin(fields[0], "timestamp")?;
    let mut coords = [0.0; D];
    for (i, c) in coords.iter_mut().enumerate() {
        *c = fin(fields[i + 1], "coordinate")?;
    }
    let truth = fields
        .get(D + 1)
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<u32>()
                .map_err(|e| format!("line {lineno}: bad label {s:?}: {e}"))
        })
        .transpose()?;
    Ok(TimedRecord {
        time,
        record: Record {
            point: Point::new(coords),
            truth,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_csv() {
        let dir = std::env::temp_dir().join("disc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        let recs = vec![
            Record::labelled(Point::new([1.5, -2.25]), 3),
            Record::unlabelled(Point::new([0.0, 10.0])),
        ];
        write_records(&path, &recs).unwrap();
        let back: Vec<Record<2>> = read_records(&path).unwrap();
        assert_eq!(back, recs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_has_header_and_noise_rows() {
        let dir = std::env::temp_dir().join("disc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.csv");
        write_snapshot(
            &path,
            &[(Point::new([1.0, 2.0]), 5), (Point::new([3.0, 4.0]), -1)],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "x0,x1,cluster");
        assert_eq!(lines[1], "1,2,5");
        assert_eq!(lines[2], "3,4,-1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let dir = std::env::temp_dir().join("disc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "1.0,not_a_number\n").unwrap();
        assert!(read_records::<2>(&path).is_err());
        std::fs::write(&path, "1.0\n").unwrap();
        assert!(read_records::<2>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}

/// Reads a snapshot written by [`write_snapshot`] back into
/// `(point, cluster)` rows. Line 1 must be the header that writer puts
/// there, `x0,..,x{D-1},cluster`: a file without it, or with another
/// dimension's, is `InvalidData` naming line 1, never a first row lost.
pub fn read_snapshot<const D: usize>(path: &Path) -> io::Result<Vec<(Point<D>, i64)>> {
    let file = std::fs::File::open(path)?;
    let mut lines = io::BufReader::new(file).lines();
    let header = snapshot_header::<D>();
    if lines.next().transpose()?.as_deref().map(str::trim_end) != Some(&header) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line 1: expected the snapshot header {header:?}"),
        ));
    }
    let mut out = Vec::new();
    for (lineno, line) in lines.enumerate().map(|(i, l)| (i + 1, l)) {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != D + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected {} columns", lineno + 1, D + 1),
            ));
        }
        let mut coords = [0.0; D];
        for (i, c) in coords.iter_mut().enumerate() {
            *c = parse_finite(fields[i], lineno)?;
        }
        let label = fields[D].trim().parse::<i64>().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad cluster label: {e}", lineno + 1),
            )
        })?;
        out.push((Point::new(coords), label));
    }
    Ok(out)
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let dir = std::env::temp_dir().join("disc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap_roundtrip.csv");
        let rows = vec![
            (Point::new([1.25, -3.5]), 4i64),
            (Point::new([0.0, 0.0]), -1),
        ];
        write_snapshot(&path, &rows).unwrap();
        let back: Vec<(Point<2>, i64)> = read_snapshot(&path).unwrap();
        assert_eq!(back, rows);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_with_wrong_arity_is_rejected() {
        let dir = std::env::temp_dir().join("disc_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap_bad.csv");
        std::fs::write(&path, "x0,x1,cluster\n1.0,2.0\n").unwrap();
        assert!(read_snapshot::<2>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}

#[cfg(test)]
mod hardening_tests {
    use super::*;
    use proptest::prelude::*;

    fn write_corpus(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("disc_csv_hardening");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Curated hostile inputs: every one must come back as `io::Error`
    /// with `InvalidData`, never a panic and never a silently-accepted
    /// record.
    #[test]
    fn corpus_of_malformed_streams_is_rejected() {
        let corpus: &[(&str, &[u8])] = &[
            ("overlong_row.csv", b"1.0,2.0,3,junk\n"),
            ("way_too_many.csv", b"1,2,3,4,5,6,7,8,9\n"),
            ("non_numeric.csv", b"1.0,two\n"),
            ("nan_coord.csv", b"NaN,2.0\n"),
            ("inf_coord.csv", b"1.0,inf\n"),
            ("neg_inf_coord.csv", b"-inf,2.0\n"),
            ("overflow_coord.csv", b"1e999,2.0\n"),
            ("embedded_nul.csv", b"1.0,2.\x000\n"),
            ("nul_field.csv", b"\0,\0\n"),
            ("bad_label.csv", b"1.0,2.0,minus-one\n"),
            ("short_row.csv", b"1.0\n"),
            ("invalid_utf8.csv", &[0x31, 0x2c, 0xff, 0xfe, 0x0a]),
        ];
        for (name, bytes) in corpus {
            let path = write_corpus(name, bytes);
            match read_records::<2>(&path) {
                Err(e) => assert!(
                    e.kind() == io::ErrorKind::InvalidData,
                    "{name}: wrong error kind {:?}",
                    e.kind()
                ),
                Ok(recs) => panic!("{name}: accepted as {recs:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corpus_of_malformed_snapshots_is_rejected() {
        let corpus: &[(&str, &[u8])] = &[
            ("s_overlong.csv", b"x0,x1,cluster\n1.0,2.0,3,extra\n"),
            ("s_nan.csv", b"x0,x1,cluster\nNaN,2.0,3\n"),
            ("s_inf.csv", b"x0,x1,cluster\n1.0,1e999,3\n"),
            ("s_nul.csv", b"x0,x1,cluster\n1.0,\0,3\n"),
            ("s_float_label.csv", b"x0,x1,cluster\n1.0,2.0,3.5\n"),
            ("s_short.csv", b"x0,x1,cluster\n1.0\n"),
            // A headerless file: line 1 is a row, not a header to skip.
            ("s_headerless.csv", b"1.0,2.0,3\n4.0,5.0,-1\n"),
            ("s_wrong_dim_header.csv", b"x0,x1,x2,cluster\n1.0,2.0,3\n"),
            ("s_empty.csv", b""),
        ];
        for (name, bytes) in corpus {
            let path = write_corpus(name, bytes);
            match read_snapshot::<2>(&path) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name}: {e}"),
                Ok(rows) => panic!("{name}: accepted as {rows:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Round-trip: any finite stream survives write → read unchanged.
        #[test]
        fn record_roundtrip_is_lossless(
            xs in prop::collection::vec(-1.0e9..1.0e9f64, 2..40),
            labelled in prop::bool::ANY,
            case in 0u64..u64::MAX,
        ) {
            let recs: Vec<Record<2>> = xs
                .chunks_exact(2)
                .enumerate()
                .map(|(i, c)| {
                    let p = Point::new([c[0], c[1]]);
                    if labelled {
                        Record::labelled(p, i as u32)
                    } else {
                        Record::unlabelled(p)
                    }
                })
                .collect();
            let path = write_corpus(&format!("rt_{case}.csv"), b"");
            write_records(&path, &recs).unwrap();
            let back: Vec<Record<2>> = read_records(&path).unwrap();
            prop_assert_eq!(back, recs);
            std::fs::remove_file(&path).unwrap();
        }

        /// Arbitrary bytes fed to the readers must return — Ok or Err —
        /// without panicking.
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            case in 0u64..u64::MAX,
        ) {
            let path = write_corpus(&format!("fuzz_{case}.csv"), &bytes);
            let _ = read_records::<2>(&path);
            let _ = read_records::<4>(&path);
            let _ = read_snapshot::<2>(&path);
            let _ = read_snapshot::<3>(&path);
            std::fs::remove_file(&path).unwrap();
        }

        /// The timed readers inherit the same never-panic guarantee, and
        /// the lossy one additionally never returns `Err` on garbage —
        /// every hostile line becomes a per-record rejection.
        #[test]
        fn timed_readers_never_panic_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            case in 0u64..u64::MAX,
        ) {
            let path = write_corpus(&format!("tfuzz_{case}.csv"), &bytes);
            let _ = read_timed_records::<2>(&path);
            let _ = read_timed_records::<3>(&path);
            prop_assert!(read_timed_records_lossy::<2>(&path).is_ok());
            std::fs::remove_file(&path).unwrap();
        }
    }
}

#[cfg(test)]
mod timed_tests {
    use super::*;
    use crate::disorder::{disorder, DisorderConfig, HostileRecord, MALFORMED_KINDS};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("disc_csv_timed");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn timed(n: usize) -> Vec<TimedRecord<2>> {
        (0..n)
            .map(|i| TimedRecord {
                time: i as f64 * 0.5 + 1.0,
                record: if i % 2 == 0 {
                    Record::labelled(Point::new([i as f64, -(i as f64)]), i as u32)
                } else {
                    Record::unlabelled(Point::new([i as f64, 0.25]))
                },
            })
            .collect()
    }

    #[test]
    fn timed_records_roundtrip() {
        let path = tmp("roundtrip.csv");
        let recs = timed(7);
        write_timed_records(&path, &recs).unwrap();
        let back: Vec<TimedRecord<2>> = read_timed_records(&path).unwrap();
        assert_eq!(back, recs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lossy_reader_isolates_malformed_lines() {
        let path = tmp("lossy.csv");
        std::fs::write(
            &path,
            "1.0,2.0,3.0,\n### garbage ###\n2.0,4.0,5.0,9\nNaN,1.0,1.0,\n3.0,inf,0.0,\n4.0\n",
        )
        .unwrap();
        let rows = read_timed_records_lossy::<2>(&path).unwrap();
        assert_eq!(rows.len(), 6);
        let ok: Vec<&TimedRecord<2>> = rows.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].time, 1.0);
        assert_eq!(ok[1].record.truth, Some(9));
        assert!(rows[1].as_ref().unwrap_err().contains("line 2"));
        assert!(rows[3].as_ref().unwrap_err().contains("timestamp"));
        assert!(rows[4].as_ref().unwrap_err().contains("coordinate"));
        // Strict reader rejects the same file outright.
        assert!(read_timed_records::<2>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_hostile_flavour_writes_as_a_rejected_line() {
        let path = tmp("flavours.csv");
        let hostile: Vec<HostileRecord<2>> =
            (0..MALFORMED_KINDS).map(HostileRecord::Malformed).collect();
        write_hostile_records(&path, &hostile).unwrap();
        let rows = read_timed_records_lossy::<2>(&path).unwrap();
        assert_eq!(rows.len(), MALFORMED_KINDS as usize);
        for (i, row) in rows.iter().enumerate() {
            assert!(row.is_err(), "flavour {i} was accepted: {row:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_stream_roundtrips_through_csv() {
        // generate --disorder in miniature: chaos → file → lossy read
        // recovers exactly the Ok records and flags exactly the garbage.
        let path = tmp("hostile_rt.csv");
        let clean = crate::disorder::stamp_unit(
            (0..200)
                .map(|i| Record::labelled(Point::new([i as f64, 0.5]), (i % 5) as u32))
                .collect(),
        );
        let cfg = DisorderConfig {
            seed: 4,
            skew: 5.0,
            dup_prob: 0.1,
            corrupt_prob: 0.1,
        };
        let hostile = disorder(&clean, &cfg);
        write_hostile_records(&path, &hostile).unwrap();
        let rows = read_timed_records_lossy::<2>(&path).unwrap();
        assert_eq!(rows.len(), hostile.len());
        for (row, h) in rows.iter().zip(&hostile) {
            match h {
                HostileRecord::Ok(r) => assert_eq!(row.as_ref().unwrap(), r),
                HostileRecord::Malformed(_) => assert!(row.is_err()),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
