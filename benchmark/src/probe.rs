//! Machine-drift probe: is this a slow program or a slow ten minutes?
//!
//! Between repetitions the harness times two fixed loops that touch none
//! of the program under test: a register-only xorshift loop (CPU) and a
//! chain of dependent loads over a 64 MiB cycle (shared L3 / DRAM). On the
//! shared box the benchmark was calibrated on, either can be the one that
//! moves: some half hours the CPU loop stays within ~1 % while the memory
//! loop drifts by 10 %; in others the CPU loop flips between ~1.80 and
//! ~2.00 ns per step (the core's clock) and the workloads follow it. The
//! probe is diagnostic only: `ops_per_s` is never normalised by it.

use std::hint::black_box;
use std::time::Instant;

/// xorshift64 steps per CPU sample.
const CPU_STEPS: u64 = 2_000_000;
/// Dependent loads per memory sample.
const MEM_LOADS: u32 = 40_000;
/// Entries of the load cycle: 16 Mi x 4 B = 64 MiB, far beyond the
/// private L2 and inside the shared L3 the neighbours compete for.
const CYCLE_LEN: usize = 1 << 24;

#[derive(Debug)]
pub struct Probe {
    next: Vec<u32>,
    at: u32,
    state: u64,
    /// ns per xorshift step, one value per sample.
    pub cpu_ns: Vec<f64>,
    /// ns per dependent load, one value per sample.
    pub mem_ns: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        // i -> a*i + c (mod 2^24) with a = 1 (mod 4) and c odd is a
        // full-period LCG: one cycle through every entry, in an order no
        // stride prefetcher follows.
        let mask = (CYCLE_LEN - 1) as u32;
        let next = (0..CYCLE_LEN as u32)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & mask)
            .collect();
        Probe {
            next,
            at: 0,
            state: 0x9E37_79B9_7F4A_7C15,
            cpu_ns: Vec::new(),
            mem_ns: Vec::new(),
        }
    }

    /// Takes one CPU and one memory sample (about 10 ms together).
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = self.state;
        for _ in 0..CPU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.state = black_box(x);
        self.cpu_ns
            .push(t.elapsed().as_nanos() as f64 / CPU_STEPS as f64);

        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..MEM_LOADS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        self.mem_ns
            .push(t.elapsed().as_nanos() as f64 / f64::from(MEM_LOADS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_cycle_visits_every_entry_once() {
        let p = Probe::new();
        let mut seen = vec![false; CYCLE_LEN];
        let mut at = 0u32;
        for _ in 0..CYCLE_LEN {
            assert!(!seen[at as usize], "cycle shorter than the table");
            seen[at as usize] = true;
            at = p.next[at as usize];
        }
        assert_eq!(at, 0);
    }
}
