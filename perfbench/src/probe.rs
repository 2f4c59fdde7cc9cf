//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! The 2-core VMs this benchmark was sized on share their cores' caches
//! with other guests. When a neighbour's cache-heavy load runs, the
//! simulator slows by 1.4× or more, for seconds to minutes at a time, and
//! by how much depends on the neighbour. A chain of multiplies runs at the
//! same speed throughout, and a random walk over 256 KiB runs up to 6×
//! slower, so the cause is the shared cache, not the clock rate. Thread CPU
//! time ([`crate::clock`]) cannot see this: the thread is running, only
//! slower.
//!
//! The probe is the simulator's own hottest access pattern rebuilt from the
//! standard library alone: pop-and-push on a binary heap of 64 Ki
//! events of 48 bytes (3 MiB), like the engine's event queue on the n=256
//! workload. It shares no code with the program, so a change to the
//! program cannot move it. The benchmark runs it between windows of work
//! and scales each window's times by [`REFERENCE_NS`] over the probe's time
//! right after it (see `run.rs`). Across runs of churn256 whose raw run
//! time spread by 17 %, the scaled time spread by 3.5 %.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::CpuTimer;

/// Events in the probe's heap.
const EVENTS: u64 = 1 << 16;
/// Pop-and-push steps in one probe sample.
const STEPS: usize = 4000;
/// CPU nanoseconds one probe sample takes on the reference host (2-core
/// x86-64 VM, `Intel(R) Xeon(R) Processor`) with no neighbour load. Scaled
/// times are times on that host.
pub const REFERENCE_NS: f64 = 2.3e6;

/// One probe event: a due time and a payload the size of an engine event.
type Event = Reverse<(u64, [u64; 5])>;

/// The probe's heap and its samples.
#[derive(Debug)]
pub struct HostProbe {
    heap: BinaryHeap<Event>,
    rng: u64,
    /// CPU nanoseconds of every sample taken, in order.
    pub samples: Vec<u64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            heap: (0..EVENTS)
                .map(|i| Reverse((i * 7919 % EVENTS, [i; 5])))
                .collect(),
            rng: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
        }
    }
}

impl HostProbe {
    /// Runs the kernel once and records its CPU time.
    pub fn sample(&mut self) {
        let start = CpuTimer::start();
        let mut x = self.rng;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if let Some(Reverse((due, _))) = self.heap.pop() {
                self.heap.push(Reverse((due + (x >> 44), [x; 5])));
            }
        }
        self.rng = x;
        self.samples.push(start.elapsed_ns());
    }

    /// The factor that scales work timed just before sample `index` to the
    /// reference host: [`REFERENCE_NS`] over the median of that sample and
    /// its two neighbours. A host state lasts seconds and three samples
    /// span about 0.1 s, so the median follows the state and drops a single
    /// disturbed sample. 1 when there are no samples.
    pub fn factor(&self, index: usize) -> f64 {
        let last = match self.samples.len() {
            0 => return 1.0,
            len => len - 1,
        };
        let at = index.min(last);
        let around = &self.samples[at.saturating_sub(1)..=(at + 1).min(last)];
        let mut ns: Vec<u64> = around.to_vec();
        ns.sort_unstable();
        match ns[ns.len() / 2] {
            0 => 1.0,
            mid => REFERENCE_NS / mid as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_of_neighbouring_samples() {
        let mut probe = HostProbe::default();
        assert_eq!(probe.factor(0), 1.0);
        probe.samples = vec![100, 400, 200, 200];
        let f = |ns: f64| REFERENCE_NS / ns;
        assert_eq!(probe.factor(0), f(400.0)); // {100, 400}: the upper one
        assert_eq!(probe.factor(1), f(200.0)); // {100, 400, 200}
        assert_eq!(probe.factor(3), f(200.0)); // {200, 200}
        assert_eq!(probe.factor(9), f(200.0)); // past the end: last sample
        probe.sample();
        assert_eq!(probe.samples.len(), 5);
        assert!(probe.samples[4] > 0);
    }
}
