//! Process facts: the calling thread's CPU clock, and, read from `/proc`,
//! the memory high-water mark, CPU time, the filesystem under a directory
//! and the core count.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has consumed, user plus system, at
/// nanosecond resolution.
///
/// Under paravirtualized steal accounting the kernel leaves out of this
/// clock the time the hypervisor gave the vCPU to other guests. On a
/// shared host that stolen time, not the program, sets the wall-clock
/// tail; the harness times slides and set-up with this clock instead.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch on the calling thread's CPU clock.
#[derive(Clone, Copy)]
pub struct CpuClock(Duration);

impl CpuClock {
    pub fn start() -> Self {
        CpuClock(thread_cpu_time())
    }

    pub fn elapsed(self) -> Duration {
        thread_cpu_time().saturating_sub(self.0)
    }
}

/// The process's peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable {line:?}"))?;
    Ok(kib * 1024)
}

/// User plus system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields count from the
    // last ')'. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    // Fields after ')' start at field 3, so utime (14) is index 11. Linux
    // reports them in USER_HZ, which is 100 on every supported target.
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// The filesystem type of the mount holding `dir`, from
/// `/proc/self/mountinfo` (the longest mount point prefixing the path).
pub fn fs_type(dir: &Path) -> Result<String, String> {
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let info = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("/proc/self/mountinfo: {e}"))?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if dir.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
        .ok_or_else(|| format!("no mount holds {}", dir.display()))
}

/// Refuses an engine width the host cannot run on separate cores.
pub fn check_width(width: usize) -> Result<(), String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .map_err(|e| format!("cannot count cores: {e}"))?;
    if width > cores {
        return Err(format!(
            "engine width {width} exceeds the {cores} core(s) of this host; \
             refusing to time an oversubscribed engine"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let clock = CpuClock::start();
        std::thread::sleep(Duration::from_millis(30));
        assert!(clock.elapsed() < Duration::from_millis(15));
        let clock = CpuClock::start();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(clock.elapsed() > Duration::from_millis(5));
    }

    #[test]
    fn procfs_facts_are_readable() {
        assert!(peak_rss_bytes().unwrap() > 0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(!fs_type(Path::new("/")).unwrap().is_empty());
    }

    #[test]
    fn oversubscribed_width_is_refused() {
        assert!(check_width(1).is_ok());
        let err = check_width(100_000).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}
