//! The machine-speed yardstick.
//!
//! On a shared 2-vCPU box, single-threaded CPU work drifts by 20–60%
//! within minutes, every model at once (a fixed lint workload took
//! 425 ms per pass in one 10 s window and 710 ms in another, two minutes
//! apart). No amount of work per run averages that out between runs. So
//! a yardstick is timed before and after every pass and every set-up, and
//! the CPU-bound timings are scaled by `REFERENCE_MS / yardstick`.
//!
//! The yardstick is the geometric mean of two fixed kernels: a random
//! read-modify-write walk over a 4 MiB table (the access pattern of the
//! BDD unique table and the bitsets) and a dependent multiply-xorshift
//! chain (pure ALU). Over a 150 s trace, 10-sample window means of
//! full lint (muddy5 + dining) drifted with a coefficient of variation of
//! 0.133 raw and 0.075 scaled; of an explicit muddy6 solve, 0.068 raw and
//! 0.032 scaled. Either kernel alone tracked one of the two workloads
//! worse than no scaling at all.
//!
//! The yardstick lives in the benchmark, so no change to the program can
//! move it. Scaled times read "milliseconds at the speed where the
//! yardstick takes `REFERENCE_MS`"; raw wall times and the yardstick's
//! range are printed on standard error next to them.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on a quiet machine of the kind the benchmark was
/// tuned on (2 vCPU x86-64): the speed every scaled figure refers to.
pub const REFERENCE_MS: f64 = 1.4;

/// Table size: 4 MiB of `u64`, larger than a vCPU's share of L2.
const WORDS: usize = 1 << 19;
/// Dependent accesses per memory-kernel run (~1.4 ms).
const MEMORY_STEPS: usize = 400_000;
/// Multiply-xorshift steps per ALU-kernel run (~1.4 ms).
const ALU_STEPS: usize = 800_000;
/// Runs of each kernel per sample; the sample uses their medians.
const RUNS: usize = 9;

/// The yardstick's table and the samples taken so far.
pub struct Yardstick {
    table: Vec<u64>,
    state: u64,
    /// Every sample taken, in ms.
    pub samples: Vec<f64>,
}

impl Yardstick {
    /// A fresh table.
    pub fn new() -> Self {
        Yardstick {
            table: (0..WORDS as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::new(),
        }
    }

    fn memory(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % WORDS as u64) as usize;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        self.state = black_box(x);
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    fn alu(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.state | 1;
        for _ in 0..ALU_STEPS {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 29;
        }
        self.state = black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Time the yardstick now: the geometric mean of each kernel's median
    /// over `RUNS` runs, in ms.
    pub fn sample(&mut self) -> f64 {
        let mut memory: Vec<f64> = (0..RUNS).map(|_| self.memory()).collect();
        let mut alu: Vec<f64> = (0..RUNS).map(|_| self.alu()).collect();
        memory.sort_by(f64::total_cmp);
        alu.sort_by(f64::total_cmp);
        let ms = (memory[RUNS / 2] * alu[RUNS / 2]).sqrt();
        self.samples.push(ms);
        ms
    }
}

/// The scale factor for work done between two samples.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_MS / (0.5 * (before + after))
}
