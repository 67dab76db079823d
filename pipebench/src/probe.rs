//! A host-speed probe: a fixed memory-bound loop, timed on the pipeline
//! thread's CPU clock, that the harness runs between slides to see how
//! fast the shared host is at that moment.
//!
//! On the host the benchmark was tuned on, the CPU clock of one and the
//! same slide swings between two levels about 45% apart, switching every
//! few seconds as the neighbours' load comes and goes. A run's median
//! lands on one level or the other depending on how its seconds split
//! between them. The swing is a contention for the shared caches: a
//! register-only loop slows by 5% in the slow periods, while random
//! accesses over a few MiB slow by 30–60%, as the slides do.
//!
//! The probe's work never changes and it shares no data with the program,
//! so a change to the program leaves the probe's time alone. Its buffer is
//! touched once, untimed, before every timed pass, so the timed pass does
//! not depend on what the slide before it left in the caches. The probe
//! does evict the engine's data from the private cache; the harness leaves
//! the slide right after each probe out of the samples.

use crate::procfs::CpuClock;
use std::hint::black_box;

/// The probe's buffer: 4 MiB of `u32`, twice the private L2 of the
/// tuning host, so the timed pass reaches the shared L3.
const WORDS: usize = 1 << 20;
/// The buffer's size. Every page of it is resident from the first probe
/// on, so the reported peak RSS leaves it out.
pub const BYTES: u64 = (WORDS * std::mem::size_of::<u32>()) as u64;
/// The inner quarter (1 MiB), which fits in the private L2.
const INNER: usize = WORDS / 4;
/// Accesses per timed pass: three in the inner quarter for each one over
/// the whole buffer. The engine's working set spans both cache levels; a
/// probe that sees only one of them over- or under-corrects.
const INNER_ACCESSES: usize = 150_000;
const OUTER_ACCESSES: usize = 50_000;

/// The probe's time in µs on the tuning host, a shared 2-vCPU Xeon VM
/// (Linux 6.18, 2 MiB L2 per core, 105 MiB shared L3), in its quiet
/// periods: the 10th percentile of the probe's times read 1.26–1.34 ms
/// over five 30 s runs. Scaled times read as µs on that host when quiet.
pub const REFERENCE_US: f64 = 1_300.0;

pub struct HostProbe {
    buf: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> Self {
        HostProbe {
            buf: vec![0; WORDS],
        }
    }

    /// One warm, untimed pass over the buffer, then the timed pass.
    /// Returns the timed pass's CPU time in µs.
    pub fn measure(&mut self) -> f64 {
        // Warm: one read-modify-write per 64-byte line.
        for j in (0..WORDS).step_by(16) {
            self.buf[j] = self.buf[j].wrapping_add(1);
        }
        let clock = CpuClock::start();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut sum = 0u64;
        for (accesses, mask) in [(INNER_ACCESSES, INNER - 1), (OUTER_ACCESSES, WORDS - 1)] {
            for _ in 0..accesses {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = x as usize & mask;
                sum = sum.wrapping_add(u64::from(self.buf[j]));
                self.buf[j] = self.buf[j].wrapping_add(1);
            }
        }
        black_box(sum);
        clock.elapsed().as_secs_f64() * 1e6
    }
}

/// How strongly slide times follow the probe. Regressing log slide time
/// on log probe time over blocks of 64 slides gave slopes of about 1.0
/// (`dtg-plain`), 0.8 (`dtg-durable-hostile`) and 0.7 (`maze-resume`), and
/// the slowest slides, which set the p99, follow it less than the median
/// ones. Over thirteen 30 s `dtg-plain` runs, exponent 1 left the p99
/// spread at 9.4%, exponent 0.75 at 5.6%, with the p50 at 5.4% and 6.0%.
const EXPONENT: f64 = 0.75;

/// The factor that turns a CPU time measured between two probes into
/// reference-host µs.
pub fn scale(before_us: f64, after_us: f64) -> f64 {
    (2.0 * REFERENCE_US / (before_us + after_us)).powf(EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_times_are_positive_and_a_slower_host_scales_down() {
        let mut p = HostProbe::new();
        assert!(p.measure() > 0.0);
        assert_eq!(scale(REFERENCE_US, REFERENCE_US), 1.0);
        assert!(scale(2.0 * REFERENCE_US, 2.0 * REFERENCE_US) < 1.0);
    }
}
