//! The disorder-tolerant admission layer: a bounded reorder buffer behind
//! a watermark, with explicit policies for everything the buffer cannot
//! fix.
//!
//! The paper scopes DISC to a clean, arrival-ordered stream; production
//! streams are not. [`Ingest`] sits between a hostile source and the
//! window drivers and guarantees that whatever crosses it is **sorted by
//! event time and free of duplicates and garbage** — so everything past
//! admission stays exact, and everything before it degrades gracefully
//! and observably.
//!
//! # The watermark
//!
//! The watermark is `max_event_time - lateness`: once a record with time
//! `t` has been observed, the stream promises (within the configured
//! lateness bound) that nothing older than `t - lateness` is still in
//! flight. Buffered records at or behind the watermark are released in
//! `(time, arrival)` order; records arriving *behind* it are **late** and
//! handled by [`LatePolicy`]. Advancement is punctuated: every observed
//! well-formed record moves the clock, including shed ones.
//!
//! # Bounds and policies
//!
//! The buffer is bounded twice — in records (`reorder_cap`: the oldest
//! records are force-released once the buffer overflows, narrowing the
//! effective lateness rather than growing memory) and in time-skew
//! (`max_skew`: records older than `max_time - max_skew` are released
//! even if the watermark has not reached them). Overload shedding bounds
//! the admission queue with high/low hysteresis: once `shed_high` records
//! are buffered, *new* records are dropped (observably — they still
//! advance the watermark clock) until occupancy falls to `shed_low`, so a
//! burst degrades coverage instead of latency or memory.
//!
//! # Determinism
//!
//! Every [`Decision`] is a pure function of the configuration and the raw
//! record sequence pushed so far — never of when the consumer drains the
//! ready queue. Re-running the same raw prefix through a fresh [`Ingest`]
//! reproduces every decision bit-for-bit, which is what lets
//! `disc-persist` journal admissions and verify them on crash recovery.

use crate::timewindow::TimedRecord;
use disc_geom::FxHashSet;
use disc_telemetry::{map_bytes, FootprintNode, MemoryFootprint, Recorder, Registry};
use std::collections::{BTreeMap, VecDeque};

/// What to do with a record that arrives behind the watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Drop it, counted (`disc_ingest_late_dropped_total`).
    #[default]
    Drop,
    /// Keep it out of the stream but retain it in the dead-letter queue
    /// ([`Ingest::dead_letters`]) for offline inspection.
    DeadLetter,
    /// Admit it anyway, re-stamped at the watermark, so it joins the
    /// current slide instead of a window that has already closed.
    Upsert,
}

impl LatePolicy {
    /// Parses the CLI spelling (`drop | deadletter | upsert`).
    pub fn parse(s: &str) -> Option<LatePolicy> {
        match s {
            "drop" => Some(LatePolicy::Drop),
            "deadletter" => Some(LatePolicy::DeadLetter),
            "upsert" => Some(LatePolicy::Upsert),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            LatePolicy::Drop => "drop",
            LatePolicy::DeadLetter => "deadletter",
            LatePolicy::Upsert => "upsert",
        }
    }
}

/// Admission-layer configuration. The defaults admit everything in
/// arrival order (no lateness allowance, no dedup, no shedding), which
/// makes a well-ordered stream pass through untouched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Allowed lateness: the watermark trails the newest observed event
    /// time by this much. Records older than the watermark are late.
    pub lateness: f64,
    /// Reorder-buffer capacity in records; the oldest buffered records
    /// are force-released beyond it.
    pub reorder_cap: usize,
    /// Reorder-buffer capacity in time-skew: records older than
    /// `max_time - max_skew` are force-released even if the watermark has
    /// not reached them. `INFINITY` disables the bound.
    pub max_skew: f64,
    /// Policy for records behind the watermark.
    pub late: LatePolicy,
    /// Dedup ring size in records (`0` disables dedup). A record whose
    /// `(time, coords, truth)` key matches one of the last `dedup`
    /// admitted keys is rejected as a duplicate.
    pub dedup: usize,
    /// Shedding high-water mark in buffered records; `0` disables
    /// shedding.
    pub shed_high: usize,
    /// Shedding low-water mark: shedding stops once buffer occupancy
    /// falls back to this level.
    pub shed_low: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            lateness: 0.0,
            reorder_cap: 4096,
            max_skew: f64::INFINITY,
            late: LatePolicy::Drop,
            dedup: 0,
            shed_high: 0,
            shed_low: 0,
        }
    }
}

impl AdmissionConfig {
    /// Validates field ranges, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.lateness < 0.0 || !self.lateness.is_finite() {
            return Err(format!(
                "lateness must be finite and >= 0, got {}",
                self.lateness
            ));
        }
        if self.reorder_cap == 0 {
            return Err("reorder capacity must be >= 1".to_string());
        }
        if self.max_skew <= 0.0 || self.max_skew.is_nan() {
            return Err(format!("max skew must be > 0, got {}", self.max_skew));
        }
        if self.shed_high > 0 && self.shed_low >= self.shed_high {
            return Err(format!(
                "shed low-water ({}) must be below high-water ({})",
                self.shed_low, self.shed_high
            ));
        }
        Ok(())
    }
}

/// The admission verdict for one pushed record. Codes are stable — they
/// are what `disc-persist` journals — so variants must never be reordered
/// or removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Decision {
    /// Admitted in order.
    Admit = 0,
    /// Admitted, but arrived behind a newer record (re-sorted in the
    /// buffer).
    AdmitReordered = 1,
    /// Behind the watermark, dropped.
    LateDrop = 2,
    /// Behind the watermark, dead-lettered.
    LateDeadLetter = 3,
    /// Behind the watermark, upserted into the current slide at the
    /// watermark timestamp.
    LateUpsert = 4,
    /// Rejected by the dedup ring.
    Duplicate = 5,
    /// Dropped by overload shedding.
    Shed = 6,
    /// Malformed (non-finite time/coordinates, or an unparseable line).
    Malformed = 7,
}

impl Decision {
    /// Stable journal byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Decision::code).
    pub fn from_code(code: u8) -> Option<Decision> {
        Some(match code {
            0 => Decision::Admit,
            1 => Decision::AdmitReordered,
            2 => Decision::LateDrop,
            3 => Decision::LateDeadLetter,
            4 => Decision::LateUpsert,
            5 => Decision::Duplicate,
            6 => Decision::Shed,
            7 => Decision::Malformed,
            _ => return None,
        })
    }

    /// Whether the record entered the admitted stream.
    pub fn admitted(self) -> bool {
        matches!(
            self,
            Decision::Admit | Decision::AdmitReordered | Decision::LateUpsert
        )
    }

    /// Human-readable name (journal dumps, error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            Decision::Admit => "admit",
            Decision::AdmitReordered => "admit-reordered",
            Decision::LateDrop => "late-drop",
            Decision::LateDeadLetter => "late-deadletter",
            Decision::LateUpsert => "late-upsert",
            Decision::Duplicate => "duplicate",
            Decision::Shed => "shed",
            Decision::Malformed => "malformed",
        }
    }
}

/// Cumulative admission counters, mirrored to `disc_ingest_*` metrics by
/// [`Ingest::publish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records pushed (well-formed or not).
    pub pushed: u64,
    /// Records admitted into the stream (includes reordered + upserts).
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
}

/// `f64` event time with a total order (times are guaranteed finite by
/// the malformed filter before they reach the buffer).
#[derive(Clone, Copy, Debug, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Dedup key: exact bits of `(time, coords, truth)`. Inline and `Copy`,
/// so keying a record allocates nothing. Hashed with FxHash rather than
/// SipHash: the set never holds more than `dedup` keys, so even crafted
/// collisions cost at most O(`dedup`) per lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct DedupKey<const D: usize> {
    time: u64,
    coords: [u64; D],
    truth: Option<u32>,
}

impl<const D: usize> DedupKey<D> {
    fn of(rec: &TimedRecord<D>) -> Self {
        DedupKey {
            time: rec.time.to_bits(),
            coords: rec.record.point.coords().map(f64::to_bits),
            truth: rec.record.truth,
        }
    }
}

/// The admission pipeline: push raw records in arrival order, pop
/// admitted records in event-time order.
///
/// See the [module docs](self) for semantics. The consumer contract is
/// pull-based: [`push`](Ingest::push) each raw record (journaling the
/// returned [`Decision`] if durability is on), [`pop`](Ingest::pop)
/// whatever the watermark has released, and call
/// [`finish`](Ingest::finish) once at end of stream to flush the buffer.
#[derive(Debug)]
pub struct Ingest<const D: usize> {
    cfg: AdmissionConfig,
    /// Records awaiting the watermark, ordered by `(time, arrival)`.
    buf: BTreeMap<(TimeKey, u64), TimedRecord<D>>,
    /// Released records awaiting the consumer.
    ready: VecDeque<TimedRecord<D>>,
    /// Dead-lettered late records, in arrival order.
    dead: Vec<TimedRecord<D>>,
    dedup_ring: VecDeque<DedupKey<D>>,
    dedup_set: FxHashSet<DedupKey<D>>,
    /// Newest observed event time (the watermark clock).
    max_time: f64,
    shedding: bool,
    stats: IngestStats,
    /// Counter values already mirrored to the registry, for delta
    /// publishing.
    published: IngestStats,
}

impl<const D: usize> Ingest<D> {
    /// A pipeline with the given policies. Panics on an invalid
    /// configuration — call [`AdmissionConfig::validate`] first to get a
    /// `Result` instead.
    pub fn new(cfg: AdmissionConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid admission config: {e}");
        }
        Ingest {
            cfg,
            buf: BTreeMap::new(),
            ready: VecDeque::new(),
            dead: Vec::new(),
            dedup_ring: VecDeque::new(),
            dedup_set: FxHashSet::default(),
            max_time: f64::NEG_INFINITY,
            shedding: false,
            stats: IngestStats::default(),
            published: IngestStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The current watermark, `NEG_INFINITY` before the first record.
    pub fn watermark(&self) -> f64 {
        self.max_time - self.cfg.lateness
    }

    /// Newest observed event time, `NEG_INFINITY` before the first record.
    pub fn max_time(&self) -> f64 {
        self.max_time
    }

    /// Time depth of the reorder buffer: how far behind the newest event
    /// the oldest unreleased record is. `0` when the buffer is empty —
    /// the stream is keeping up.
    pub fn watermark_lag(&self) -> f64 {
        match self.buf.first_key_value() {
            Some((&(TimeKey(t), _), _)) => (self.max_time - t).max(0.0),
            None => 0.0,
        }
    }

    /// Records currently held in the reorder buffer.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Released records not yet popped by the consumer.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Whether overload shedding is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// Cumulative decision counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Dead-lettered late records, in arrival order.
    pub fn dead_letters(&self) -> &[TimedRecord<D>] {
        &self.dead
    }

    /// Pushes one raw record, returning its admission verdict. The
    /// verdict depends only on the configuration and the records pushed
    /// before this one — never on the pop schedule — so replaying the
    /// same raw prefix reproduces it exactly.
    pub fn push(&mut self, rec: TimedRecord<D>) -> Decision {
        self.stats.pushed += 1;
        let arrival = self.stats.pushed;
        if !rec.time.is_finite() || !rec.record.point.is_finite() {
            self.stats.malformed += 1;
            return Decision::Malformed;
        }
        if self.cfg.dedup > 0 {
            let key = DedupKey::of(&rec);
            if self.dedup_set.contains(&key) {
                self.stats.deduped += 1;
                return Decision::Duplicate;
            }
            self.dedup_ring.push_back(key);
            self.dedup_set.insert(key);
            if self.dedup_ring.len() > self.cfg.dedup {
                let old = self.dedup_ring.pop_front().expect("non-empty ring");
                self.dedup_set.remove(&old);
            }
        }
        // Every well-formed record advances the watermark clock, even
        // ones about to be shed — otherwise a shedding episode would
        // freeze the watermark and the buffer could never drain.
        let reordered = rec.time < self.max_time;
        if rec.time > self.max_time {
            self.max_time = rec.time;
        }
        let wm = self.watermark();
        if rec.time < wm {
            let decision = match self.cfg.late {
                LatePolicy::Drop => {
                    self.stats.late_dropped += 1;
                    Decision::LateDrop
                }
                LatePolicy::DeadLetter => {
                    self.stats.dead_lettered += 1;
                    self.dead.push(rec);
                    Decision::LateDeadLetter
                }
                LatePolicy::Upsert => {
                    self.stats.late_upserts += 1;
                    self.stats.admitted += 1;
                    // Re-stamped at the watermark: the released stream
                    // stays time-sorted and the record joins the current
                    // slide instead of a window that already closed.
                    self.ready.push_back(TimedRecord {
                        time: wm,
                        record: rec.record,
                    });
                    Decision::LateUpsert
                }
            };
            self.drain();
            return decision;
        }
        if self.cfg.shed_high > 0 {
            if self.buf.len() >= self.cfg.shed_high {
                self.shedding = true;
            } else if self.buf.len() <= self.cfg.shed_low {
                self.shedding = false;
            }
            if self.shedding {
                self.stats.shed += 1;
                self.drain();
                return Decision::Shed;
            }
        }
        self.buf.insert((TimeKey(rec.time), arrival), rec);
        self.stats.admitted += 1;
        if reordered {
            self.stats.reordered += 1;
        }
        self.drain();
        if reordered {
            Decision::AdmitReordered
        } else {
            Decision::Admit
        }
    }

    /// Records a malformed raw input (a line the parser rejected) without
    /// touching the watermark. Returns [`Decision::Malformed`] so callers
    /// can journal it like any other verdict.
    pub fn push_malformed(&mut self) -> Decision {
        self.stats.pushed += 1;
        self.stats.malformed += 1;
        Decision::Malformed
    }

    /// Releases everything the watermark (or a capacity bound) allows,
    /// oldest first.
    fn drain(&mut self) {
        // Time-based releases: the watermark, tightened by the skew
        // capacity when configured.
        let cut = if self.cfg.max_skew.is_finite() {
            self.watermark().max(self.max_time - self.cfg.max_skew)
        } else {
            self.watermark()
        };
        while let Some((&(TimeKey(t), _), _)) = self.buf.first_key_value() {
            if t <= cut {
                let (_, rec) = self.buf.pop_first().expect("non-empty buffer");
                self.ready.push_back(rec);
            } else {
                break;
            }
        }
        // Record-capacity overflow: force-release the oldest, narrowing
        // the effective lateness instead of growing memory.
        while self.buf.len() > self.cfg.reorder_cap {
            let (_, rec) = self.buf.pop_first().expect("non-empty buffer");
            self.ready.push_back(rec);
        }
    }

    /// Flushes the reorder buffer at end of stream: every held record is
    /// released in `(time, arrival)` order. Idempotent.
    pub fn finish(&mut self) {
        while let Some((_, rec)) = self.buf.pop_first() {
            self.ready.push_back(rec);
        }
    }

    /// Pops the next released record, event-time order.
    pub fn pop(&mut self) -> Option<TimedRecord<D>> {
        self.ready.pop_front()
    }

    /// Mirrors the counters and gauges to `disc_ingest_*` metrics.
    /// Counters are published as deltas since the previous call, so the
    /// registry sees monotone totals.
    pub fn publish(&mut self, registry: &Registry) {
        let s = &self.stats;
        let p = &self.published;
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
        self.published = self.stats;
        registry.gauge_set("disc_ingest_buffered", self.buf.len() as f64);
        registry.gauge_set("disc_ingest_ready", self.ready.len() as f64);
        registry.gauge_set("disc_ingest_watermark_lag", self.watermark_lag());
        registry.gauge_set("disc_ingest_shedding", self.shedding as u64 as f64);
        if self.max_time.is_finite() {
            registry.gauge_set("disc_ingest_watermark", self.watermark());
        }
    }
}

impl<const D: usize> MemoryFootprint for Ingest<D> {
    fn footprint(&self) -> FootprintNode {
        let entry = std::mem::size_of::<((TimeKey, u64), TimedRecord<D>)>();
        // BTreeMap nodes hold up to 11 entries; model as entry bytes plus
        // two words of node overhead per entry.
        let buf = self.buf.len() * (entry + 16);
        let ready = self.ready.capacity() * std::mem::size_of::<TimedRecord<D>>();
        let dead = self.dead.capacity() * std::mem::size_of::<TimedRecord<D>>();
        let key = std::mem::size_of::<DedupKey<D>>();
        let dedup = self.dedup_ring.capacity() * key + map_bytes(self.dedup_set.capacity(), key);
        FootprintNode::branch(
            "ingest",
            vec![
                FootprintNode::leaf("buffer", buf),
                FootprintNode::leaf("ready", ready),
                FootprintNode::leaf("dead", dead),
                FootprintNode::leaf("dedup", dedup),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Record;
    use disc_geom::Point;

    fn rec(time: f64, x: f64) -> TimedRecord<1> {
        TimedRecord {
            time,
            record: Record::unlabelled(Point::new([x])),
        }
    }

    fn drain_all<const D: usize>(ing: &mut Ingest<D>) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(r) = ing.pop() {
            out.push(r.time);
        }
        out
    }

    #[test]
    fn ordered_stream_passes_through() {
        let mut ing = Ingest::new(AdmissionConfig::default());
        for t in 0..5 {
            assert_eq!(ing.push(rec(t as f64, 0.0)), Decision::Admit);
        }
        ing.finish();
        assert_eq!(drain_all(&mut ing), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ing.stats().admitted, 5);
        assert_eq!(ing.stats().reordered, 0);
    }

    #[test]
    fn reorders_within_lateness() {
        let cfg = AdmissionConfig {
            lateness: 2.0,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        for &t in &[1.0, 3.0, 2.0, 4.0, 3.5, 6.0] {
            let d = ing.push(rec(t, 0.0));
            assert!(d.admitted(), "{t} -> {d:?}");
        }
        ing.finish();
        assert_eq!(drain_all(&mut ing), vec![1.0, 2.0, 3.0, 3.5, 4.0, 6.0]);
        assert_eq!(ing.stats().reordered, 2);
    }

    #[test]
    fn late_record_dropped_and_counted() {
        let cfg = AdmissionConfig {
            lateness: 1.0,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        ing.push(rec(10.0, 0.0));
        // Watermark is 9: a record at 5 is late.
        assert_eq!(ing.push(rec(5.0, 0.0)), Decision::LateDrop);
        ing.finish();
        assert_eq!(drain_all(&mut ing), vec![10.0]);
        assert_eq!(ing.stats().late_dropped, 1);
    }

    #[test]
    fn late_record_dead_lettered() {
        let cfg = AdmissionConfig {
            lateness: 1.0,
            late: LatePolicy::DeadLetter,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        ing.push(rec(10.0, 0.0));
        assert_eq!(ing.push(rec(5.0, 7.0)), Decision::LateDeadLetter);
        assert_eq!(ing.dead_letters().len(), 1);
        assert_eq!(ing.dead_letters()[0].time, 5.0);
        ing.finish();
        assert_eq!(drain_all(&mut ing), vec![10.0]);
    }

    #[test]
    fn late_record_upserted_at_watermark() {
        let cfg = AdmissionConfig {
            lateness: 1.0,
            late: LatePolicy::Upsert,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        ing.push(rec(10.0, 0.0));
        assert_eq!(ing.push(rec(5.0, 7.0)), Decision::LateUpsert);
        ing.finish();
        // The upsert is re-stamped at the watermark (9.0) and released
        // immediately; the buffered record at 10 follows at finish.
        assert_eq!(drain_all(&mut ing), vec![9.0, 10.0]);
        assert_eq!(ing.stats().late_upserts, 1);
    }

    #[test]
    fn duplicates_rejected_by_ring() {
        let cfg = AdmissionConfig {
            lateness: 10.0,
            dedup: 1,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        assert_eq!(ing.push(rec(1.0, 5.0)), Decision::Admit);
        assert_eq!(ing.push(rec(1.0, 5.0)), Decision::Duplicate);
        // Same coords at a different time is not a duplicate.
        assert_eq!(ing.push(rec(2.0, 5.0)), Decision::Admit);
        // The ring holds 1 key: the (1.0, 5.0) key has been evicted, so
        // its reappearance is admitted (reordered: it is behind 2.0).
        assert_eq!(ing.push(rec(1.0, 5.0)), Decision::AdmitReordered);
        assert_eq!(ing.stats().deduped, 1);
    }

    fn rec3(time: f64, coords: [f64; 3], truth: Option<u32>) -> TimedRecord<3> {
        TimedRecord {
            time,
            record: Record {
                point: Point::new(coords),
                truth,
            },
        }
    }

    #[test]
    fn dedup_keys_on_exact_bits_at_three_dimensions() {
        let cfg = AdmissionConfig {
            lateness: 10.0,
            dedup: 16,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        let base = rec3(1.0, [0.5, -2.0, 7.25], Some(3));
        assert_eq!(ing.push(base), Decision::Admit);
        // An exact repeat is a duplicate.
        assert_eq!(ing.push(base), Decision::Duplicate);
        // Differing only in the ground-truth label: distinct.
        assert!(ing.push(rec3(1.0, [0.5, -2.0, 7.25], Some(4))).admitted());
        assert!(ing.push(rec3(1.0, [0.5, -2.0, 7.25], None)).admitted());
        // Differing in one coordinate's last place: distinct.
        let nudged = f64::from_bits(7.25f64.to_bits() + 1);
        assert!(ing.push(rec3(1.0, [0.5, -2.0, nudged], Some(3))).admitted());
        // 0.0 and -0.0 compare equal as floats but differ in bits: distinct,
        // in every coordinate and in time.
        assert!(ing.push(rec3(2.0, [0.0, 0.0, 0.0], None)).admitted());
        assert!(ing.push(rec3(2.0, [-0.0, 0.0, 0.0], None)).admitted());
        assert!(ing.push(rec3(2.0, [0.0, -0.0, 0.0], None)).admitted());
        assert!(ing.push(rec3(2.0, [0.0, 0.0, -0.0], None)).admitted());
        assert!(ing.push(rec3(0.0, [1.0, 1.0, 1.0], None)).admitted());
        assert!(ing.push(rec3(-0.0, [1.0, 1.0, 1.0], None)).admitted());
        // ...while each of them repeated exactly is caught.
        assert_eq!(
            ing.push(rec3(2.0, [0.0, -0.0, 0.0], None)),
            Decision::Duplicate
        );
        assert_eq!(
            ing.push(rec3(-0.0, [1.0, 1.0, 1.0], None)),
            Decision::Duplicate
        );
        assert_eq!(ing.stats().deduped, 3);
    }

    #[test]
    fn dedup_evicts_exactly_at_ring_capacity() {
        const RING: usize = 4;
        let cfg = AdmissionConfig {
            lateness: 100.0,
            dedup: RING,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        let key = |i: usize| rec3(50.0, [i as f64, 0.0, 0.0], None);
        for i in 0..RING {
            assert!(ing.push(key(i)).admitted());
        }
        // The ring holds exactly `RING` keys: all of them still dedup.
        for i in 0..RING {
            assert_eq!(ing.push(key(i)), Decision::Duplicate, "key {i}");
        }
        // Duplicates are not admitted, so they did not enter the ring; one
        // more admitted key evicts the oldest and only the oldest.
        assert!(ing.push(key(RING)).admitted());
        assert!(ing.push(key(0)).admitted());
        // Re-admitting key 0 evicted key 1, so key 1 is admitted again;
        // key RING is still held.
        assert!(ing.push(key(1)).admitted());
        assert_eq!(ing.push(key(RING)), Decision::Duplicate);
        assert_eq!(ing.stats().deduped, RING as u64 + 1);
    }

    #[test]
    fn dedup_footprint_counts_inline_keys() {
        // A key is the time bits, D coordinate bit patterns and the truth
        // label, held inline: no heap bytes beyond the key itself.
        assert_eq!(std::mem::size_of::<DedupKey<3>>(), 8 + 3 * 8 + 8);
        let cfg = AdmissionConfig {
            lateness: 0.0,
            dedup: 32,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        for t in 0..100 {
            ing.push(rec3(t as f64, [t as f64, 1.0, 2.0], None));
        }
        while ing.pop().is_some() {}
        let key = std::mem::size_of::<DedupKey<3>>();
        let expected = ing.dedup_ring.capacity() * key + map_bytes(ing.dedup_set.capacity(), key);
        let dedup = ing
            .footprint()
            .children
            .iter()
            .find(|c| c.label == "dedup")
            .map(|c| c.bytes as usize)
            .expect("dedup component");
        assert_eq!(dedup, expected);
        assert!(dedup >= 32 * key);
    }

    #[test]
    fn malformed_rejected_never_panics() {
        let mut ing = Ingest::new(AdmissionConfig::default());
        assert_eq!(ing.push(rec(f64::NAN, 0.0)), Decision::Malformed);
        assert_eq!(ing.push(rec(1.0, f64::INFINITY)), Decision::Malformed);
        assert_eq!(ing.push_malformed(), Decision::Malformed);
        assert_eq!(ing.stats().malformed, 3);
        assert_eq!(ing.stats().admitted, 0);
    }

    #[test]
    fn record_capacity_force_releases_oldest() {
        let cfg = AdmissionConfig {
            lateness: 100.0,
            reorder_cap: 2,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        for &t in &[3.0, 1.0, 2.0] {
            ing.push(rec(t, 0.0));
        }
        // Cap 2: pushing the third buffered record force-releases t=1.
        assert_eq!(ing.buffered_len(), 2);
        assert_eq!(ing.pop().map(|r| r.time), Some(1.0));
        ing.finish();
        assert_eq!(drain_all(&mut ing), vec![2.0, 3.0]);
    }

    #[test]
    fn skew_capacity_releases_old_records_early() {
        let cfg = AdmissionConfig {
            lateness: 100.0,
            max_skew: 2.0,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        ing.push(rec(1.0, 0.0));
        ing.push(rec(2.0, 0.0));
        assert_eq!(ing.buffered_len(), 2);
        // max_time 10: everything older than 8 is released despite the
        // generous lateness.
        ing.push(rec(10.0, 0.0));
        assert_eq!(drain_all(&mut ing), vec![1.0, 2.0]);
        assert_eq!(ing.buffered_len(), 1);
    }

    #[test]
    fn shedding_hysteresis_drops_then_recovers() {
        let cfg = AdmissionConfig {
            lateness: 10.0,
            shed_high: 3,
            shed_low: 1,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        // A burst within the lateness horizon: nothing can release, the
        // buffer fills to the high-water mark.
        for &t in &[5.0, 5.1, 5.2] {
            assert!(ing.push(rec(t, 0.0)).admitted());
        }
        assert_eq!(ing.buffered_len(), 3);
        assert_eq!(ing.push(rec(5.3, 0.0)), Decision::Shed);
        assert!(ing.shedding());
        // Shed records still advance the clock: a record far enough in
        // the future drains the buffer below the low-water mark...
        assert_eq!(ing.push(rec(30.0, 0.0)), Decision::Shed);
        assert_eq!(ing.buffered_len(), 0);
        // ...and the next push is admitted again.
        assert_eq!(ing.push(rec(31.0, 0.0)), Decision::Admit);
        assert!(!ing.shedding());
        assert_eq!(ing.stats().shed, 2);
    }

    #[test]
    fn decisions_replay_bit_for_bit() {
        // The journal contract: decisions are a pure function of the raw
        // prefix, independent of the pop schedule.
        let cfg = AdmissionConfig {
            lateness: 1.5,
            dedup: 8,
            shed_high: 4,
            shed_low: 1,
            ..AdmissionConfig::default()
        };
        let raw: Vec<TimedRecord<1>> = [3.0, 1.0, 2.0, 2.0, 9.0, 4.0, 9.1, 9.2, 9.3, 9.25, 12.0]
            .iter()
            .map(|&t| rec(t, t))
            .collect();
        let mut eager = Ingest::new(cfg);
        let eager_decisions: Vec<Decision> = raw.iter().map(|r| eager.push(*r)).collect();
        eager.finish();
        let eager_admitted = drain_all(&mut eager);
        // Replay popping after every push.
        let mut lazy = Ingest::new(cfg);
        let mut lazy_decisions = Vec::new();
        let mut lazy_admitted = Vec::new();
        for r in &raw {
            lazy_decisions.push(lazy.push(*r));
            lazy_admitted.append(&mut drain_all(&mut lazy));
        }
        lazy.finish();
        lazy_admitted.append(&mut drain_all(&mut lazy));
        assert_eq!(eager_decisions, lazy_decisions);
        // And the admitted sequences agree too.
        assert_eq!(eager_admitted, lazy_admitted);
    }

    #[test]
    fn released_stream_is_time_sorted_when_skew_within_lateness() {
        let cfg = AdmissionConfig {
            lateness: 4.0,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        // Inversions of at most 4 time units.
        let times = [2.0, 0.5, 1.0, 4.0, 3.0, 2.5, 6.0, 5.5, 8.0, 7.0];
        let mut out = Vec::new();
        for &t in &times {
            assert!(ing.push(rec(t, 0.0)).admitted());
            while let Some(r) = ing.pop() {
                out.push(r.time);
            }
        }
        ing.finish();
        while let Some(r) = ing.pop() {
            out.push(r.time);
        }
        let mut sorted = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(out, sorted);
    }

    #[test]
    fn publish_mirrors_counters_as_deltas() {
        let registry = Registry::new();
        let cfg = AdmissionConfig {
            lateness: 1.0,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        ing.push(rec(10.0, 0.0));
        ing.push(rec(5.0, 0.0));
        ing.publish(&registry);
        assert_eq!(registry.counter_value("disc_ingest_records_total"), 2);
        assert_eq!(registry.counter_value("disc_ingest_late_dropped_total"), 1);
        ing.push(rec(11.0, 0.0));
        ing.publish(&registry);
        assert_eq!(registry.counter_value("disc_ingest_records_total"), 3);
        assert_eq!(registry.counter_value("disc_ingest_admitted_total"), 2);
        assert!(registry.gauge_value("disc_ingest_watermark").is_some());
    }

    #[test]
    fn footprint_tracks_buffer_occupancy() {
        let cfg = AdmissionConfig {
            lateness: 1000.0,
            dedup: 64,
            ..AdmissionConfig::default()
        };
        let mut ing = Ingest::new(cfg);
        let empty = ing.mem_bytes();
        for t in 0..100 {
            ing.push(rec(t as f64, t as f64));
        }
        assert!(ing.mem_bytes() > empty);
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(AdmissionConfig {
            lateness: -1.0,
            ..AdmissionConfig::default()
        }
        .validate()
        .is_err());
        assert!(AdmissionConfig {
            reorder_cap: 0,
            ..AdmissionConfig::default()
        }
        .validate()
        .is_err());
        assert!(AdmissionConfig {
            shed_high: 2,
            shed_low: 2,
            ..AdmissionConfig::default()
        }
        .validate()
        .is_err());
        assert!(AdmissionConfig::default().validate().is_ok());
    }
}
