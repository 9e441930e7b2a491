//! Host clocks and counters read from outside the program: the driving
//! thread's CPU clock, its run-queue wait, and the process's peak RSS.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// Unlike the wall clock it excludes time the thread spent runnable but
/// waiting for a CPU, which on a small shared host is most of the
/// run-to-run noise.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds the calling thread has spent runnable but waiting on a
/// run queue (field 2 of `/proc/thread-self/schedstat`); 0 where the
/// kernel does not expose it.
fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported on Linux");
    kib / 1024.0
}

/// One reading of every clock a measured section is judged by.
#[derive(Clone, Copy)]
pub struct Stamp {
    cpu_ns: u64,
    wall: Instant,
    runq_ns: u64,
}

/// Clock deltas of one measured section.
#[derive(Clone, Copy, Default)]
pub struct Elapsed {
    /// Thread CPU time.
    pub cpu_ns: u64,
    /// Monotonic wall time.
    pub wall_ns: u64,
    /// Run-queue wait (wall time the thread was runnable but not on a
    /// CPU).
    pub runq_ns: u64,
}

impl Stamp {
    /// Reads every clock now.
    pub fn now() -> Self {
        Self {
            runq_ns: runqueue_wait_ns(),
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Clock deltas since this stamp.
    pub fn elapsed(&self) -> Elapsed {
        let cpu_ns = thread_cpu_ns() - self.cpu_ns;
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        Elapsed {
            cpu_ns,
            wall_ns,
            runq_ns: runqueue_wait_ns().saturating_sub(self.runq_ns),
        }
    }
}
