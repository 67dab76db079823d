//! The per-slide ingestion-health event (`--ingest-out`, `disc top
//! --ingest`).
//!
//! One [`IngestEvent`] JSONL line per committed slide summarises what the
//! admission layer (DESIGN.md §16) did to the raw stream so far:
//! cumulative decision counters plus the instantaneous buffer gauges. The
//! line goes through the one JSONL codec ([`JsonlRecord`]) like every
//! other stream; every value is a non-negative integer. Time-valued
//! gauges are scaled to ppm (micro-time-units) so the all-integers
//! contract holds.

use crate::record::{field, Field, JsonlRecord};

/// One ingestion-health JSONL line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestEvent {
    /// Slide sequence number (matches the slide-event `seq`).
    pub slide: u64,
    /// Raw records pushed so far (well-formed or not).
    pub records: u64,
    /// Records admitted into the stream so far.
    pub admitted: u64,
    /// Admitted records that arrived out of order.
    pub reordered: u64,
    /// Late records dropped.
    pub late_dropped: u64,
    /// Late records dead-lettered.
    pub dead_lettered: u64,
    /// Late records upserted at the watermark.
    pub late_upserts: u64,
    /// Duplicates rejected by the dedup ring.
    pub deduped: u64,
    /// Records dropped by overload shedding.
    pub shed: u64,
    /// Malformed records rejected.
    pub malformed: u64,
    /// Records currently held in the reorder buffer.
    pub buffered: u64,
    /// Watermark lag (time depth of the reorder buffer) in ppm of a time
    /// unit, saturated at 2^53.
    pub watermark_lag_ppm: u64,
    /// 1 while overload shedding is engaged.
    pub shedding: u64,
}

/// The line: every key a non-negative integer.
impl JsonlRecord for IngestEvent {
    const NAME: &'static str = "ingest";
    const FIELDS: &'static [Field<Self>] = &[
        field!(uint slide),
        field!(uint records),
        field!(uint admitted),
        field!(uint reordered),
        field!(uint late_dropped),
        field!(uint dead_lettered),
        field!(uint late_upserts),
        field!(uint deduped),
        field!(uint shed),
        field!(uint malformed),
        field!(uint buffered),
        field!(uint watermark_lag_ppm),
        field!(uint shedding),
    ];
}

/// Largest gauge value the JSONL reader round-trips: 2^53, beyond which
/// an f64-backed JSON number no longer holds every integer.
const LAG_PPM_MAX: u64 = 1 << 53;

/// Saturating ppm scaling for time-valued gauges. Saturates at 2^53 (an
/// epoch-nanosecond lag, or an infinite one) so every value written reads
/// back through [`IngestEvent::from_jsonl`].
pub fn lag_ppm(lag: f64) -> u64 {
    if lag.is_nan() || lag <= 0.0 {
        return 0;
    }
    (lag * 1e6).min(LAG_PPM_MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IngestEvent {
        IngestEvent {
            slide: 12,
            records: 1_000,
            admitted: 950,
            reordered: 40,
            late_dropped: 20,
            dead_lettered: 5,
            late_upserts: 3,
            deduped: 12,
            shed: 7,
            malformed: 3,
            buffered: 17,
            watermark_lag_ppm: 2_500_000,
            shedding: 1,
        }
    }

    #[test]
    fn jsonl_roundtrip_and_validation() {
        let ev = sample();
        let line = ev.to_jsonl();
        IngestEvent::assert_valid_jsonl(&line);
        assert_eq!(IngestEvent::from_jsonl(&line).unwrap(), ev);
        IngestEvent::assert_valid_jsonl(&IngestEvent::default().to_jsonl());
    }

    #[test]
    fn validation_rejects_drifted_schemas() {
        assert!(IngestEvent::validate_jsonl("not json").is_err());
        assert!(IngestEvent::validate_jsonl("[1,2]").is_err());
        // Missing key.
        let line = sample().to_jsonl().replace("\"shed\":7,", "");
        assert!(IngestEvent::validate_jsonl(&line)
            .unwrap_err()
            .contains("shed"));
        // Unknown key.
        let line = sample().to_jsonl().replacen("{", "{\"bogus\":1,", 1);
        assert!(IngestEvent::validate_jsonl(&line)
            .unwrap_err()
            .contains("bogus"));
        // Negative value.
        let line = sample().to_jsonl().replace("\"shed\":7", "\"shed\":-7");
        assert!(IngestEvent::validate_jsonl(&line).is_err());
    }

    #[test]
    fn lag_ppm_saturates_and_clamps() {
        assert_eq!(lag_ppm(0.0), 0);
        assert_eq!(lag_ppm(-3.0), 0);
        assert_eq!(lag_ppm(f64::NAN), 0);
        assert_eq!(lag_ppm(2.5), 2_500_000);
        assert_eq!(lag_ppm(f64::INFINITY), LAG_PPM_MAX);
    }

    #[test]
    fn lag_ppm_round_trips_through_the_ingest_reader() {
        for lag in [0.0, 2.5, 2e10, f64::INFINITY] {
            let ev = IngestEvent {
                watermark_lag_ppm: lag_ppm(lag),
                ..sample()
            };
            let back = IngestEvent::from_jsonl(&ev.to_jsonl())
                .unwrap_or_else(|e| panic!("lag {lag} did not read back: {e}"));
            assert_eq!(back, ev, "lag {lag}");
        }
    }
}
