//! Stream sources and the count window the benchmark drives.
//!
//! `SlidingWindow` replays a stream it holds whole, so a run of tens of
//! thousands of slides would need gigabytes of records. The benchmark
//! instead parses a base stream of a fixed size once, cycles through it
//! and assigns fresh arrival ids, so the window never holds two copies of
//! one arrival and every run parses the same input whatever its length.

use disc_geom::{Point, PointId};
use disc_persist::{DriverState, IngestJournalWriter};
use disc_window::{Decision, Ingest, SlideBatch, TimedRecord};
use std::collections::VecDeque;

/// A count-based window fed stride by stride: ids are arrival indices,
/// exactly as `SlidingWindow` assigns them.
pub struct Feed {
    window: VecDeque<(PointId, Point<2>)>,
    size: usize,
    stride: usize,
    next_id: u64,
}

impl Feed {
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(stride > 0 && stride <= size, "stride must tile the window");
        Feed {
            window: VecDeque::with_capacity(size + stride),
            size,
            stride,
            next_id: 0,
        }
    }

    /// Re-creates the window as a checkpoint's driver position left it,
    /// drawing the window's points from `source`.
    pub fn resume(driver: &DriverState, replayed: u64, source: &Cyclic) -> Self {
        let mut feed = Feed::new(driver.window as usize, driver.stride as usize);
        feed.next_id = driver.start + replayed * driver.stride;
        feed.window = (feed.next_id..feed.next_id + driver.window)
            .map(|id| (PointId(id), source.at(id)))
            .collect();
        feed.next_id += driver.window;
        feed
    }

    /// Admits `points` as the next arrivals. The first call must bring a
    /// whole window (the fill), every later one exactly a stride.
    pub fn admit(&mut self, points: impl IntoIterator<Item = Point<2>>) -> SlideBatch<2> {
        let filled = !self.window.is_empty();
        let incoming: Vec<(PointId, Point<2>)> = points
            .into_iter()
            .zip(self.next_id..)
            .map(|(p, id)| (PointId(id), p))
            .collect();
        let expected = if filled { self.stride } else { self.size };
        assert_eq!(incoming.len(), expected, "slide of the wrong size");
        self.next_id += incoming.len() as u64;
        let outgoing = if filled {
            self.window.drain(..self.stride).collect()
        } else {
            Vec::new()
        };
        self.window.extend(incoming.iter().copied());
        SlideBatch { incoming, outgoing }
    }

    /// The arrival id the next admitted point gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The driver position a checkpoint of the current window records.
    pub fn driver(&self) -> DriverState {
        DriverState {
            window: self.size as u64,
            stride: self.stride as u64,
            start: self.next_id - self.size as u64,
        }
    }

    /// The points of the current window.
    pub fn points(&self) -> Vec<(PointId, Point<2>)> {
        self.window.iter().copied().collect()
    }
}

/// A clean stream replayed cyclically: arrival `id` carries point
/// `points[id mod len]`.
pub struct Cyclic {
    points: Vec<Point<2>>,
}

impl Cyclic {
    pub fn new(points: Vec<Point<2>>) -> Self {
        assert!(!points.is_empty(), "empty base stream");
        Cyclic { points }
    }

    pub fn at(&self, id: u64) -> Point<2> {
        self.points[(id % self.points.len() as u64) as usize]
    }

    /// The `n` points arriving from `id` on.
    pub fn take(&self, id: u64, n: usize) -> impl Iterator<Item = Point<2>> + '_ {
        (id..id + n as u64).map(|i| self.at(i))
    }
}

/// A hostile arrival sequence replayed cyclically through admission.
///
/// Cycle `c` shifts every event time by `c * period`, the clean stream's
/// length, so its records follow the previous cycle's in event time and
/// never collide with them in the dedup ring. Rows the CSV reader
/// rejected stay rejected in every cycle.
pub struct Hostile {
    rows: Vec<Result<TimedRecord<2>, String>>,
    period: f64,
    next_row: u64,
    pub ingest: Ingest<2>,
    ready: VecDeque<TimedRecord<2>>,
    /// Decisions of the current slide, in push order.
    pub decisions: Vec<Decision>,
    /// Largest reorder-buffer occupancy seen after a push.
    pub buffer_max: usize,
}

impl Hostile {
    pub fn new(
        rows: Vec<Result<TimedRecord<2>, String>>,
        period: usize,
        ingest: Ingest<2>,
    ) -> Self {
        assert!(!rows.is_empty(), "empty hostile stream");
        Hostile {
            rows,
            period: period as f64,
            next_row: 0,
            ingest,
            ready: VecDeque::new(),
            decisions: Vec::new(),
            buffer_max: 0,
        }
    }

    /// Pushes raw rows until `n` admitted records are ready, then pops
    /// them. The slide's decisions land in [`decisions`](Self::decisions).
    pub fn admit(&mut self, n: usize) -> Vec<TimedRecord<2>> {
        self.decisions.clear();
        let len = self.rows.len() as u64;
        while self.ready.len() < n {
            let cycle = self.next_row / len;
            let decision = match &self.rows[(self.next_row % len) as usize] {
                Ok(r) => self.ingest.push(TimedRecord {
                    time: r.time + cycle as f64 * self.period,
                    record: r.record,
                }),
                Err(_) => self.ingest.push_malformed(),
            };
            self.next_row += 1;
            self.decisions.push(decision);
            self.buffer_max = self.buffer_max.max(self.ingest.buffered_len());
            while let Some(r) = self.ingest.pop() {
                self.ready.push_back(r);
            }
        }
        self.ready.drain(..n).collect()
    }

    /// Appends the current slide's decisions to the ingest journal.
    pub fn journal(&self, journal: &mut IngestJournalWriter) -> Result<(), String> {
        for &d in &self.decisions {
            journal
                .append(d)
                .map_err(|e| format!("ingest journal append: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_window::{AdmissionConfig, Record};

    fn pt(i: u64) -> Point<2> {
        Point::new([i as f64, 0.0])
    }

    #[test]
    fn feed_slides_by_stride_with_arrival_ids() {
        let source = Cyclic::new((0..10).map(pt).collect());
        let mut feed = Feed::new(4, 2);
        let fill = feed.admit(source.take(0, 4));
        assert_eq!(fill.incoming.len(), 4);
        assert!(fill.outgoing.is_empty());
        let slide = feed.admit(source.take(feed.next_id(), 2));
        let ids = |v: &[(PointId, Point<2>)]| v.iter().map(|(id, _)| id.raw()).collect::<Vec<_>>();
        assert_eq!(ids(&slide.outgoing), [0, 1]);
        assert_eq!(ids(&slide.incoming), [4, 5]);
        assert_eq!(feed.driver().start, 2);
        // Arrival 12 wraps onto base point 2.
        assert_eq!(source.at(12), pt(2));

        let resumed = Feed::resume(&feed.driver(), 0, &source);
        assert_eq!(resumed.points(), feed.points());
        assert_eq!(resumed.next_id(), feed.next_id());
    }

    #[test]
    fn hostile_cycles_shift_event_times_past_the_previous_cycle() {
        let rows: Vec<Result<TimedRecord<2>, String>> = vec![
            Ok(TimedRecord {
                time: 2.0,
                record: Record::unlabelled(pt(2)),
            }),
            Ok(TimedRecord {
                time: 1.0,
                record: Record::unlabelled(pt(1)),
            }),
            Err("garbage".into()),
            Ok(TimedRecord {
                time: 3.0,
                record: Record::unlabelled(pt(3)),
            }),
        ];
        let cfg = AdmissionConfig {
            lateness: 2.0,
            dedup: 4,
            ..AdmissionConfig::default()
        };
        let mut h = Hostile::new(rows, 3, Ingest::new(cfg));
        let times: Vec<f64> = h.admit(5).iter().map(|r| r.time).collect();
        assert_eq!(times, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(h.ingest.stats().malformed, 2);
        assert_eq!(h.ingest.stats().late_dropped, 0);
    }
}
