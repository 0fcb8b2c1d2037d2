//! Host-speed probe.
//!
//! On a shared host the speed of the benchmark's CPU drifts by a quarter
//! or more over minutes, for every workload at once. It is not time
//! slicing: user time stays equal to wall time, so the CPU itself runs
//! slower under the other load. Medians within a run cannot remove a
//! drift that lasts longer than the run. The probe is a fixed kernel of the
//! benchmark's own — a binary-heap event loop with random table writes
//! and small allocations, the host profile of a discrete-event
//! simulator — that touches no code of the program under test. It runs
//! between repetitions, and each repetition's host times are scaled by
//! [`REF_PROBE_S`] over the mean of the probe times just before and just
//! after it. A change to the program moves its host times in full; a
//! change in host speed moves the probe too and cancels out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Probe time, in seconds, of the reference host the scaled host times
/// refer to: about the median probe time on a 2-vCPU Xeon VM at 2.0 GHz.
pub const REF_PROBE_S: f64 = 0.03;

/// Events the probe simulates.
const EVENTS: usize = 120_000;

/// Share of a repetition's time spent probing after it. Only
/// repetitions of a second or more get more than one probe run.
pub const PROBE_SHARE: f64 = 0.03;

/// The probe and the table it writes, allocated once.
pub struct Probe {
    table: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe with its 4 MiB table.
    pub fn new() -> Probe {
        Probe {
            table: vec![1; 1 << 19],
        }
    }

    /// Runs the kernel once and returns its host seconds. The work is the
    /// same on every call.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap = BinaryHeap::with_capacity(4096);
        for id in 0..4096_u64 {
            heap.push(Reverse((step() % 1000, id)));
        }
        let mask = self.table.len() - 1;
        let mut ring: Vec<Vec<u64>> = (0..256).map(|_| Vec::new()).collect();
        for k in 0..EVENTS {
            let Reverse((at, id)) = heap.pop().expect("heap stays full");
            let r = step();
            let slot = (r as usize ^ id as usize) & mask;
            self.table[slot] = self.table[slot].wrapping_mul(31).wrapping_add(id);
            let mut v = Vec::with_capacity((r % 48) as usize + 1);
            v.push(self.table[slot]);
            ring[k & 255] = v;
            heap.push(Reverse((at + r % 1000 + (self.table[slot] & 7), id)));
        }
        std::hint::black_box((&self.table, &ring));
        t.elapsed().as_secs_f64()
    }

    /// Probe time at one moment between repetitions: the median of as
    /// many runs as fit in [`PROBE_SHARE`] of `rep_s`, at least one. A
    /// single run swings by a fifth, which is noise against the few
    /// multi-second repetitions of a long workload.
    pub fn sample(&mut self, rep_s: f64) -> f64 {
        let mut runs = vec![self.run()];
        while runs.iter().sum::<f64>() < PROBE_SHARE * rep_s {
            runs.push(self.run());
        }
        runs.sort_by(f64::total_cmp);
        let n = runs.len();
        (runs[(n - 1) / 2] + runs[n / 2]) / 2.0
    }
}
