//! `disc top` — a live terminal view of a running stream.
//!
//! Two sources, zero dependencies:
//!
//! * `--metrics F.jsonl` tails the per-slide [`SlideEvent`] stream a
//!   `disc cluster --metrics-out` run is appending to, and renders
//!   per-phase latency tails (p50/p99/max over a rolling window of
//!   slides) plus the engine's accounted memory curve.
//! * `--prom-addr HOST:PORT` scrapes a running `PromServer` over plain
//!   HTTP and renders the `disc_mem_bytes{component=...}` gauge tree
//!   next to the cumulative latency histogram.
//!
//! Rendering is plain ANSI (clear-screen + home between frames); pass
//! `--once` to print a single frame and exit (what the tests and CI do),
//! `--refresh MS` to change the cadence (default one second).

use crate::Opts;
use disc_telemetry::mem::fmt_bytes;
use disc_telemetry::{parse_prometheus, HealthEvent, IngestEvent, JsonlRecord, Sample, SlideEvent};
use std::io::{Read, Seek, SeekFrom, Write};

/// How many recent slides feed the rolling latency/memory view.
const ROLLING: usize = 512;

/// How often a failed scrape is retried before `disc top` gives up.
const SCRAPE_ATTEMPTS: u32 = 3;
/// Per-attempt connect/read deadline — a wedged exporter must not hang
/// the view forever.
const SCRAPE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);
/// Base backoff between attempts (doubled each retry).
const SCRAPE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(200);

/// `disc top` entry point.
pub fn top(opts: &Opts) -> Result<(), String> {
    let refresh = std::time::Duration::from_millis(opts.refresh.max(50));
    match (&opts.metrics, &opts.prom_addr) {
        (Some(path), _) => tail_jsonl(opts, path, refresh),
        (None, Some(addr)) => watch_prom(addr, refresh, opts.once),
        (None, None) => Err("disc top needs --metrics F.jsonl or --prom-addr HOST:PORT".into()),
    }
}

/// Tail mode: follow a growing `--metrics-out` JSONL file, plus the
/// `--health-out` / `--ingest-out` streams when `--health` / `--ingest`
/// name them.
fn tail_jsonl(
    opts: &Opts,
    path: &std::path::Path,
    refresh: std::time::Duration,
) -> Result<(), String> {
    let mut events = Tail::<SlideEvent>::new(path);
    // The health/ingest streams may appear after the run's first slide,
    // so their absence is no error.
    let mut health = opts.health.as_deref().map(Tail::<HealthEvent>::new);
    let mut ingest = opts.ingest.as_deref().map(Tail::<IngestEvent>::new);
    loop {
        events.poll(true)?;
        if let Some(tail) = &mut health {
            tail.poll(false)?;
        }
        if let Some(tail) = &mut ingest {
            tail.poll(false)?;
        }
        let frame = render_events(
            &events.events,
            health.as_ref().map_or(&[], |t| &t.events),
            ingest.as_ref().map_or(&[], |t| &t.events),
            &path.display().to_string(),
        );
        emit_frame(&frame, opts.once);
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(refresh);
    }
}

/// A JSONL file being followed: how far it has been read, the
/// unterminated line at its end, and the last [`ROLLING`] records.
struct Tail<T> {
    path: std::path::PathBuf,
    offset: u64,
    partial: String,
    events: Vec<T>,
}

impl<T: JsonlRecord> Tail<T> {
    fn new(path: &std::path::Path) -> Self {
        Tail {
            path: path.to_path_buf(),
            offset: 0,
            partial: String::new(),
            events: Vec::new(),
        }
    }

    /// Parses every line completed since the last poll. The file is
    /// reopened each time (cheap at refresh cadence); a missing one is an
    /// error only when `required`.
    fn poll(&mut self, required: bool) -> Result<(), String> {
        let path = self.path.display();
        let mut file = match std::fs::File::open(&self.path) {
            Ok(file) => file,
            Err(_) if !required => return Ok(()),
            Err(e) => return Err(format!("{path}: {e}")),
        };
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| format!("{path}: {e}"))?;
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)
            .map_err(|e| format!("{path}: {e}"))?;
        self.offset += chunk.len() as u64;
        self.partial.push_str(&chunk);
        // Only consume terminated lines; the writer may be mid-append.
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            let line = line.trim();
            if !line.is_empty() {
                self.events
                    .push(T::from_jsonl(line).map_err(|e| format!("{path}: {e}"))?);
            }
        }
        self.events
            .drain(..self.events.len().saturating_sub(ROLLING));
        Ok(())
    }
}

/// One frame of the JSONL view.
fn render_events(
    events: &[SlideEvent],
    health: &[HealthEvent],
    ingest: &[IngestEvent],
    source: &str,
) -> String {
    let mut out = String::new();
    let Some(last) = events.last() else {
        out.push_str(&format!(
            "disc top — {source}\n(waiting for the first slide event)\n"
        ));
        return out;
    };
    out.push_str(&format!(
        "disc top — {source}\n{} on {} | slide {} | window {} pts | last {} slides in view\n\n",
        last.engine,
        if last.backend.is_empty() {
            "-"
        } else {
            last.backend
        },
        last.seq,
        last.window_len,
        events.len(),
    ));
    out.push_str("phase      p50         p99         max\n");
    for (name, pick) in [
        (
            "collect",
            &(|e: &SlideEvent| e.collect_ns) as &dyn Fn(&SlideEvent) -> u64,
        ),
        ("cluster", &|e: &SlideEvent| e.cluster_ns),
        ("adoption", &|e: &SlideEvent| e.adoption_ns),
        ("slide", &|e: &SlideEvent| e.total_ns),
    ] {
        let mut vals: Vec<u64> = events.iter().map(pick).collect();
        vals.sort_unstable();
        out.push_str(&format!(
            "{name:<9}  {:<10}  {:<10}  {:<10}\n",
            fmt_ns(pct(&vals, 0.50)),
            fmt_ns(pct(&vals, 0.99)),
            fmt_ns(*vals.last().unwrap()),
        ));
    }
    let mems: Vec<u64> = events.iter().map(|e| e.mem_bytes).collect();
    let peak = mems.iter().copied().max().unwrap_or(0);
    out.push_str(&format!(
        "\nmemory     {:<10}  peak {:<10}  {}\n",
        fmt_bytes(last.mem_bytes),
        fmt_bytes(peak),
        spark(&mems),
    ));
    out.push_str(&format!(
        "activity   +{} -{} pts | {} range searches | {} ex / {} neo cores\n",
        last.inserted, last.removed, last.range_searches, last.ex_cores, last.neo_cores,
    ));
    if let Some(h) = health.last() {
        out.push_str(&format!(
            "\nhealth     {} clusters | churn {:.1}% | noise {:.1}% | \
             drift {:.2}\u{3c3} | {} alert(s) active\n",
            h.clusters,
            h.churn_ppm as f64 / 1e4,
            h.noise_ppm as f64 / 1e4,
            h.drift_ppm as f64 / 1e6,
            h.alerts_active,
        ));
        // The quality sparkline only holds audited slides — between audits
        // the gauge would just repeat itself.
        let aris: Vec<u64> = health
            .iter()
            .filter(|h| h.audited == 1)
            .map(|h| h.ari_ppm)
            .collect();
        if let Some(&latest) = aris.last() {
            out.push_str(&format!(
                "quality    ari {:.3}  {}\n",
                latest as f64 / 1e6,
                spark(&aris),
            ));
        }
    }
    if let Some(i) = ingest.last() {
        out.push_str(&render_ingest_pane(i));
        // The lag sparkline shows the reorder buffer breathing over time.
        let lags: Vec<u64> = ingest.iter().map(|i| i.watermark_lag_ppm).collect();
        if lags.iter().any(|&l| l > 0) {
            out.push_str(&format!("lag        {}\n", spark(&lags)));
        }
    }
    out
}

/// The shared ingestion-health pane (tail mode reads the JSONL event,
/// prom mode reconstructs one from the `disc_ingest_*` series).
fn render_ingest_pane(i: &IngestEvent) -> String {
    let mut line = format!(
        "\ningest     {}/{} admitted | {} reordered | {} late | {} dup | \
         {} shed | {} malformed\n",
        i.admitted,
        i.records,
        i.reordered,
        i.late_dropped + i.dead_lettered + i.late_upserts,
        i.deduped,
        i.shed,
        i.malformed,
    );
    line.push_str(&format!(
        "buffer     {} buffered | watermark lag {:.2}{}\n",
        i.buffered,
        i.watermark_lag_ppm as f64 / 1e6,
        if i.shedding == 1 { " | SHEDDING" } else { "" },
    ));
    line
}

/// Scrape mode: poll a `PromServer` `/metrics` endpoint.
fn watch_prom(addr: &str, refresh: std::time::Duration, once: bool) -> Result<(), String> {
    loop {
        let body = scrape_with_retry(addr, SCRAPE_ATTEMPTS, SCRAPE_TIMEOUT, SCRAPE_BACKOFF)?;
        let samples =
            parse_prometheus(&body).map_err(|e| format!("{addr}: bad exposition: {e}"))?;
        emit_frame(&render_prom(&samples, addr), once);
        if once {
            return Ok(());
        }
        std::thread::sleep(refresh);
    }
}

/// Scrapes with a bounded retry budget and exponential backoff: transient
/// failures (a restarting exporter, a dropped accept) ride through,
/// persistent ones surface the *last* error with the attempt count.
fn scrape_with_retry(
    addr: &str,
    attempts: u32,
    timeout: std::time::Duration,
    backoff: std::time::Duration,
) -> Result<String, String> {
    let mut wait = backoff;
    let mut last = String::new();
    for attempt in 1..=attempts.max(1) {
        match scrape(addr, timeout) {
            Ok(body) => return Ok(body),
            Err(e) => last = e,
        }
        if attempt < attempts {
            std::thread::sleep(wait);
            wait *= 2;
        }
    }
    Err(format!("{last} (after {} attempt(s))", attempts.max(1)))
}

/// One plain-HTTP GET against `addr`'s `/metrics`, returning the body.
/// Both the connect and the read are bounded by `timeout` so a wedged
/// exporter cannot hang the caller.
fn scrape(addr: &str, timeout: std::time::Duration) -> Result<String, String> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no address resolved"))?;
    let mut stream =
        std::net::TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("{addr}: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{addr}: scrape failed: {status}"));
    }
    Ok(body.to_string())
}

/// One frame of the Prometheus view.
fn render_prom(samples: &[Sample], source: &str) -> String {
    let mut out = String::new();
    let slides = value_of(samples, "disc_slides_total").unwrap_or(0.0);
    out.push_str(&format!(
        "disc top — scraping {source}\n{slides:.0} slides committed\n\n"
    ));

    // Cumulative latency from the histogram series.
    let count = value_of(samples, "disc_slide_seconds_count").unwrap_or(0.0);
    let sum = value_of(samples, "disc_slide_seconds_sum").unwrap_or(0.0);
    if count > 0.0 {
        let buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.name == "disc_slide_seconds_bucket")
            .filter_map(|s| {
                let le = s.label("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        out.push_str(&format!(
            "slide latency  mean {}  p50 ≤{}  p99 ≤{}\n\n",
            fmt_ns((sum / count * 1e9) as u64),
            fmt_ns((bucket_quantile(&buckets, count, 0.50) * 1e9) as u64),
            fmt_ns((bucket_quantile(&buckets, count, 0.99) * 1e9) as u64),
        ));
    }

    // The per-component memory tree, indented by path depth.
    let mut components: Vec<(&str, f64)> = samples
        .iter()
        .filter(|s| s.name == "disc_mem_bytes")
        .filter_map(|s| Some((s.label("component")?, s.value)))
        .collect();
    components.sort_by(|a, b| a.0.cmp(b.0));
    if components.is_empty() {
        out.push_str("memory: no disc_mem_bytes gauges yet (has a slide committed?)\n");
    } else {
        out.push_str("memory by component\n");
        for (path, bytes) in &components {
            let depth = path.matches('/').count();
            let label = path.rsplit('/').next().unwrap_or(path);
            out.push_str(&format!(
                "{:indent$}{label:<14} {}\n",
                "",
                fmt_bytes(*bytes as u64),
                indent = 2 + depth * 2,
            ));
        }
    }
    if let Some(rss) = value_of(samples, "disc_rss_bytes") {
        out.push_str(&format!("  process RSS    {}\n", fmt_bytes(rss as u64)));
    }
    // The health pane, when the run carries the stream-health driver
    // (`--audit-every`/`--alerts`/`--health-out`).
    if let Some(drift) = value_of(samples, "disc_drift_score") {
        let churn = value_of(samples, "disc_label_churn").unwrap_or(0.0);
        let noise = value_of(samples, "disc_noise_fraction").unwrap_or(0.0);
        let clusters = value_of(samples, "disc_cluster_count").unwrap_or(0.0);
        out.push_str(&format!(
            "\nhealth     {clusters:.0} clusters | churn {:.1}% | noise {:.1}% | drift {drift:.2}\u{3c3}\n",
            churn * 100.0,
            noise * 100.0,
        ));
        if let Some(ari) = value_of(samples, "disc_quality_ari") {
            out.push_str(&format!(
                "quality    ari {ari:.3}  nmi {:.3}  purity {:.3}  ({:.0} audits)\n",
                value_of(samples, "disc_quality_nmi").unwrap_or(0.0),
                value_of(samples, "disc_quality_purity").unwrap_or(0.0),
                value_of(samples, "disc_quality_audits_total").unwrap_or(0.0),
            ));
        }
        let mut rules: Vec<(&str, bool)> = samples
            .iter()
            .filter(|s| s.name == "disc_alert_active")
            .filter_map(|s| Some((s.label("rule")?, s.value >= 1.0)))
            .collect();
        rules.sort_unstable();
        if !rules.is_empty() {
            let firing: Vec<&str> = rules
                .iter()
                .filter(|(_, active)| *active)
                .map(|(rule, _)| *rule)
                .collect();
            if firing.is_empty() {
                out.push_str(&format!(
                    "alerts     none of {} rule(s) firing\n",
                    rules.len()
                ));
            } else {
                out.push_str(&format!(
                    "alerts     {} of {} firing: {}\n",
                    firing.len(),
                    rules.len(),
                    firing.join(", "),
                ));
            }
        }
    }
    // The ingestion pane, when the run admits a hostile stream (`--timed`).
    if let Some(records) = value_of(samples, "disc_ingest_records_total") {
        let count = |name: &str| value_of(samples, name).unwrap_or(0.0) as u64;
        let i = IngestEvent {
            slide: 0,
            records: records as u64,
            admitted: count("disc_ingest_admitted_total"),
            reordered: count("disc_ingest_reordered_total"),
            late_dropped: count("disc_ingest_late_dropped_total"),
            dead_lettered: count("disc_ingest_dead_lettered_total"),
            late_upserts: count("disc_ingest_late_upserts_total"),
            deduped: count("disc_ingest_deduped_total"),
            shed: count("disc_ingest_shed_total"),
            malformed: count("disc_ingest_malformed_total"),
            buffered: count("disc_ingest_buffered"),
            watermark_lag_ppm: disc_telemetry::lag_ppm(
                value_of(samples, "disc_ingest_watermark_lag").unwrap_or(0.0),
            ),
            shedding: count("disc_ingest_shedding"),
        };
        out.push_str(&render_ingest_pane(&i));
    }
    out
}

fn value_of(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

/// Upper bound of the first cumulative bucket covering quantile `q`
/// (the classic Prometheus `histogram_quantile` upper-bound estimate;
/// the last finite bound stands in for the `+Inf` bucket).
fn bucket_quantile(buckets: &[(f64, f64)], count: f64, q: f64) -> f64 {
    let rank = q * count;
    let mut last_finite = 0.0;
    for &(bound, cumulative) in buckets {
        if bound.is_finite() {
            last_finite = bound;
        }
        if cumulative >= rank {
            return if bound.is_finite() {
                bound
            } else {
                last_finite
            };
        }
    }
    last_finite
}

/// Nearest-rank percentile over an already-sorted slice.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A block-character sparkline of `values`, scaled to the observed max.
fn spark(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    // One glyph per slide, downsampled (max per cell) to fit a terminal.
    const WIDTH: usize = 48;
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    let cell = values.len().div_ceil(WIDTH);
    values
        .chunks(cell)
        .map(|c| {
            let v = c.iter().copied().max().unwrap_or(0);
            BARS[((v * 7).div_ceil(max) as usize).min(7)]
        })
        .collect()
}

/// Humanises a nanosecond latency.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Prints one frame: clear-and-home ANSI in live mode, plain in `--once`
/// mode so piped/captured output stays readable.
fn emit_frame(frame: &str, once: bool) {
    if once {
        print!("{frame}");
    } else {
        print!("\x1b[2J\x1b[H{frame}");
    }
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, total_ns: u64, mem: u64) -> SlideEvent {
        SlideEvent {
            seq,
            engine: "disc",
            backend: "rtree",
            window_len: 1000,
            inserted: 50,
            removed: 50,
            collect_ns: total_ns / 2,
            cluster_ns: total_ns / 3,
            adoption_ns: total_ns / 6,
            total_ns,
            range_searches: 120,
            mem_bytes: mem,
            ..Default::default()
        }
    }

    /// `disc top`'s refusal of `args`, which must name every flag in `named`.
    fn top_refusal(args: &[&str], named: &[&str]) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let err = crate::Opts::parse("top", &args).err().unwrap();
        for flag in named {
            assert!(err.contains(flag) && err.contains("disc top"), "{err}");
        }
    }

    /// Tail mode never reads the scrape address.
    #[test]
    fn top_refuses_prom_addr_with_metrics() {
        top_refusal(
            &["--metrics", "m.jsonl", "--prom-addr", "127.0.0.1:1"],
            &["--metrics", "--prom-addr"],
        );
    }

    /// Scrape mode has no health file to read.
    #[test]
    fn top_refuses_health_without_metrics() {
        top_refusal(
            &["--prom-addr", "127.0.0.1:1", "--health", "h.jsonl"],
            &["--health", "--metrics"],
        );
        top_refusal(&["--health", "h.jsonl"], &["--health", "--metrics"]);
    }

    /// Scrape mode has no ingest file to read.
    #[test]
    fn top_refuses_ingest_without_metrics() {
        top_refusal(
            &["--prom-addr", "127.0.0.1:1", "--ingest", "i.jsonl"],
            &["--ingest", "--metrics"],
        );
        top_refusal(&["--ingest", "i.jsonl"], &["--ingest", "--metrics"]);
    }

    /// One frame has no refresh cadence.
    #[test]
    fn top_refuses_refresh_with_once() {
        top_refusal(
            &["--metrics", "m.jsonl", "--refresh", "5", "--once"],
            &["--refresh", "--once"],
        );
    }

    #[test]
    fn jsonl_frame_shows_tails_and_memory() {
        let events: Vec<SlideEvent> = (1..=100)
            .map(|i| ev(i, i * 1_000, 1_000_000 + i * 10_000))
            .collect();
        let frame = render_events(&events, &[], &[], "m.jsonl");
        assert!(frame.contains("disc top — m.jsonl"), "{frame}");
        assert!(frame.contains("disc on rtree | slide 100"), "{frame}");
        // p50 of 1..=100 µs is 50µs; p99 is 99µs; max 100µs.
        assert!(
            frame.contains("slide      50.0µs      99.0µs      100.0µs"),
            "{frame}"
        );
        // Latest and peak memory are the same here (monotone growth).
        assert!(frame.contains("peak 1.91 MiB"), "{frame}");
        assert!(frame.contains('█'), "sparkline present: {frame}");
        assert!(
            frame.contains("+50 -50 pts | 120 range searches"),
            "{frame}"
        );
    }

    #[test]
    fn empty_stream_renders_a_waiting_frame() {
        let frame = render_events(&[], &[], &[], "m.jsonl");
        assert!(
            frame.contains("waiting for the first slide event"),
            "{frame}"
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&v, 0.50), 50);
        assert_eq!(pct(&v, 0.99), 99);
        assert_eq!(pct(&v, 1.0), 100);
        assert_eq!(pct(&[7], 0.5), 7);
        assert_eq!(pct(&[], 0.5), 0);
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(spark(&[]), "");
        let s = spark(&[0, 50, 100]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        // 1000 values still fit the fixed width.
        let long: Vec<u64> = (0..1000).collect();
        assert!(spark(&long).chars().count() <= 48);
    }

    #[test]
    fn prom_frame_renders_the_component_tree() {
        use disc_telemetry::{Recorder, Registry};
        let reg = Registry::new();
        reg.counter_add("disc_slides_total", 12);
        reg.record_nanos("disc_slide_seconds", 2_000_000);
        reg.gauge_set_labeled("disc_mem_bytes", "component", "engine", 3_000_000.0);
        reg.gauge_set_labeled("disc_mem_bytes", "component", "engine/points", 1_000_000.0);
        reg.gauge_set_labeled("disc_mem_bytes", "component", "engine/index", 2_000_000.0);
        reg.gauge_set("disc_rss_bytes", 64.0 * 1024.0 * 1024.0);
        let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
        let frame = render_prom(&samples, "127.0.0.1:9");
        assert!(frame.contains("12 slides committed"), "{frame}");
        assert!(frame.contains("slide latency  mean 2.0ms"), "{frame}");
        assert!(frame.contains("engine         2.86 MiB"), "{frame}");
        // Children are indented under their parent path.
        assert!(frame.contains("\n    points         976.6 KiB"), "{frame}");
        assert!(frame.contains("process RSS    64.00 MiB"), "{frame}");
    }

    #[test]
    fn jsonl_frame_shows_the_health_pane() {
        let events: Vec<SlideEvent> = (1..=8).map(|i| ev(i, i * 1_000, 1_000)).collect();
        let health: Vec<HealthEvent> = (1..=8)
            .map(|i| HealthEvent {
                slide: i,
                clusters: 3,
                churn_ppm: 125_000, // 12.5%
                noise_ppm: 40_000,  // 4.0%
                drift_ppm: 1_750_000,
                audited: u64::from(i % 4 == 0),
                ari_ppm: 980_000,
                nmi_ppm: 990_000,
                purity_ppm: 1_000_000,
                alerts_active: 2,
                ..Default::default()
            })
            .collect();
        let frame = render_events(&events, &health, &[], "m.jsonl");
        assert!(
            frame.contains("health     3 clusters | churn 12.5% | noise 4.0% | drift 1.75σ | 2 alert(s) active"),
            "{frame}"
        );
        assert!(frame.contains("quality    ari 0.980"), "{frame}");
        // Only the two audited slides feed the quality sparkline.
        let quality_line = frame.lines().find(|l| l.starts_with("quality")).unwrap();
        assert_eq!(quality_line.chars().filter(|c| *c == '█').count(), 2);
        // Without health events the pane stays absent.
        let bare = render_events(&events, &[], &[], "m.jsonl");
        assert!(!bare.contains("health"), "{bare}");
    }

    #[test]
    fn prom_frame_shows_the_health_pane() {
        use disc_telemetry::{Recorder, Registry};
        let reg = Registry::new();
        reg.counter_add("disc_slides_total", 4);
        reg.gauge_set("disc_drift_score", 0.42);
        reg.gauge_set("disc_label_churn", 0.03);
        reg.gauge_set("disc_noise_fraction", 0.10);
        reg.gauge_set("disc_cluster_count", 5.0);
        reg.gauge_set("disc_quality_ari", 0.875);
        reg.gauge_set("disc_quality_nmi", 0.9);
        reg.gauge_set("disc_quality_purity", 1.0);
        reg.counter_add("disc_quality_audits_total", 2);
        reg.gauge_set_labeled("disc_alert_active", "rule", "split", 1.0);
        reg.gauge_set_labeled("disc_alert_active", "rule", "noisy", 0.0);
        let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
        let frame = render_prom(&samples, "127.0.0.1:9");
        assert!(
            frame.contains("health     5 clusters | churn 3.0% | noise 10.0% | drift 0.42σ"),
            "{frame}"
        );
        assert!(
            frame.contains("quality    ari 0.875  nmi 0.900  purity 1.000  (2 audits)"),
            "{frame}"
        );
        assert!(frame.contains("alerts     1 of 2 firing: split"), "{frame}");
        // No drift gauge → no pane (a run without the health driver).
        let bare = Registry::new();
        bare.counter_add("disc_slides_total", 1);
        let samples = parse_prometheus(&bare.render_prometheus()).unwrap();
        assert!(!render_prom(&samples, "x").contains("health"));
    }

    #[test]
    fn prom_frame_flags_missing_memory_gauges() {
        use disc_telemetry::{Recorder, Registry};
        let reg = Registry::new();
        reg.counter_add("disc_slides_total", 1);
        let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
        let frame = render_prom(&samples, "x");
        assert!(frame.contains("no disc_mem_bytes gauges yet"), "{frame}");
    }

    #[test]
    fn bucket_quantile_uses_upper_bounds() {
        // 10 samples: 4 ≤ 0.001, 9 ≤ 0.01, 10 ≤ +Inf.
        let b = vec![(0.001, 4.0), (0.01, 9.0), (f64::INFINITY, 10.0)];
        assert_eq!(bucket_quantile(&b, 10.0, 0.50), 0.01);
        assert_eq!(bucket_quantile(&b, 10.0, 0.30), 0.001);
        // The +Inf bucket reports the last finite bound.
        assert_eq!(bucket_quantile(&b, 10.0, 0.999), 0.01);
    }

    #[test]
    fn tailing_resumes_mid_line_appends() {
        let dir = std::env::temp_dir().join("disc_top_tail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let line = ev(1, 1000, 500).to_jsonl();
        // First write: one full line plus the head of a second.
        let second = ev(2, 2000, 600).to_jsonl();
        let (head, rest) = second.split_at(20);
        std::fs::write(&path, format!("{line}\n{head}")).unwrap();
        let mut tail = Tail::<SlideEvent>::new(&path);
        tail.poll(true).unwrap();
        assert_eq!(tail.events.len(), 1, "partial line must not parse yet");
        // The writer finishes the second line; the tail picks it up.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{rest}").unwrap();
        drop(f);
        tail.poll(true).unwrap();
        let events = tail.events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn ingest_ev(slide: u64) -> IngestEvent {
        IngestEvent {
            slide,
            records: 1_200,
            admitted: 1_000,
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
    fn jsonl_frame_shows_the_ingest_pane() {
        let events: Vec<SlideEvent> = (1..=4).map(|i| ev(i, 1_000, 1_000)).collect();
        let ingest: Vec<IngestEvent> = (1..=4).map(ingest_ev).collect();
        let frame = render_events(&events, &[], &ingest, "m.jsonl");
        assert!(
            frame.contains(
                "ingest     1000/1200 admitted | 40 reordered | 28 late | \
                 12 dup | 7 shed | 3 malformed"
            ),
            "{frame}"
        );
        assert!(
            frame.contains("buffer     17 buffered | watermark lag 2.50 | SHEDDING"),
            "{frame}"
        );
        assert!(
            frame.lines().any(|l| l.starts_with("lag")),
            "lag sparkline present: {frame}"
        );
        // Without ingest events the pane stays absent.
        let bare = render_events(&events, &[], &[], "m.jsonl");
        assert!(!bare.contains("ingest"), "{bare}");
    }

    #[test]
    fn prom_frame_shows_the_ingest_pane() {
        use disc_telemetry::{Recorder, Registry};
        let reg = Registry::new();
        reg.counter_add("disc_slides_total", 3);
        reg.counter_add("disc_ingest_records_total", 500);
        reg.counter_add("disc_ingest_admitted_total", 480);
        reg.counter_add("disc_ingest_reordered_total", 15);
        reg.counter_add("disc_ingest_late_dropped_total", 10);
        reg.counter_add("disc_ingest_deduped_total", 6);
        reg.counter_add("disc_ingest_malformed_total", 4);
        reg.gauge_set("disc_ingest_buffered", 9.0);
        reg.gauge_set("disc_ingest_watermark_lag", 1.25);
        reg.gauge_set("disc_ingest_shedding", 0.0);
        let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
        let frame = render_prom(&samples, "127.0.0.1:9");
        assert!(
            frame.contains(
                "ingest     480/500 admitted | 15 reordered | 10 late | \
                 6 dup | 0 shed | 4 malformed"
            ),
            "{frame}"
        );
        assert!(
            frame.contains("buffer     9 buffered | watermark lag 1.25\n"),
            "no shedding marker when off: {frame}"
        );
    }

    /// Satellite: a flaky exporter — the first connection is accepted and
    /// dropped, the second serves — must ride through the retry budget,
    /// and a server that never responds must bound the wait via the read
    /// timeout rather than hang.
    #[test]
    fn scrape_retries_flaky_servers_and_bounds_hangs() {
        use std::io::Write as _;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let body = "# TYPE disc_slides_total counter\ndisc_slides_total 7\n";
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let handle = std::thread::spawn(move || {
            // First connection: accept and slam shut (a restarting server).
            let (first, _) = listener.accept().unwrap();
            drop(first);
            // Second: serve a well-formed exposition.
            let (mut second, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = second.read(&mut buf);
            second.write_all(response.as_bytes()).unwrap();
        });
        let scraped = scrape_with_retry(
            &addr,
            3,
            std::time::Duration::from_secs(2),
            std::time::Duration::from_millis(10),
        )
        .unwrap();
        assert!(scraped.contains("disc_slides_total 7"), "{scraped}");
        handle.join().unwrap();

        // A listener that accepts but never responds: the read timeout
        // must cut the wait and the retry budget must be named.
        let mute = TcpListener::bind("127.0.0.1:0").unwrap();
        let mute_addr = mute.local_addr().unwrap().to_string();
        let mute_handle = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Hold both connections open, never writing a byte.
            for _ in 0..2 {
                if let Ok((s, _)) = mute.accept() {
                    held.push(s);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
            drop(held);
        });
        let start = std::time::Instant::now();
        let err = scrape_with_retry(
            &mute_addr,
            2,
            std::time::Duration::from_millis(100),
            std::time::Duration::from_millis(10),
        )
        .unwrap_err();
        assert!(err.contains("2 attempt(s)"), "{err}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "read timeout must bound the wait, took {:?}",
            start.elapsed()
        );
        mute_handle.join().unwrap();
    }

    #[test]
    fn scrape_reads_a_live_prom_server() {
        use disc_telemetry::{PromServer, Recorder, Registry};
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        reg.gauge_set_labeled("disc_mem_bytes", "component", "engine", 1234.0);
        let server = PromServer::spawn("127.0.0.1:0", reg).unwrap();
        let addr = server.local_addr().to_string();
        let body = scrape(&addr, SCRAPE_TIMEOUT).unwrap();
        assert!(body.contains("# TYPE disc_mem_bytes gauge"), "{body}");
        let samples = parse_prometheus(&body).unwrap();
        let frame = render_prom(&samples, &addr);
        assert!(frame.contains("engine         1.2 KiB"), "{frame}");
        server.shutdown();
    }
}
