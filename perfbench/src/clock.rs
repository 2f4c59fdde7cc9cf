//! The clock every end-to-end timing is read from: this thread's CPU time.
//!
//! The benchmark is single-threaded and never blocks, so the thread's CPU
//! time is the time its work took. Unlike wall time it leaves out the
//! periods the thread was not running: preemption by other processes and,
//! on a virtual machine whose kernel accounts steal time
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), the periods the host ran another
//! guest on this vCPU. Slowdowns that happen while the thread runs, such as
//! a cache shared with a busy neighbour, still show; [`crate::probe`]
//! measures those.

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// This thread's CPU time so far, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A started CPU-time stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(u64);

impl CpuTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        CpuTimer(thread_cpu_ns())
    }

    /// CPU nanoseconds since [`CpuTimer::start`].
    pub fn elapsed_ns(self) -> u64 {
        thread_cpu_ns().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_busy_time_and_not_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(t.elapsed_ns() < 20_000_000, "sleep counted as CPU time");
        let t = CpuTimer::start();
        let mut x = 0u64;
        while t.elapsed_ns() < 5_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
