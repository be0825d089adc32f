//! Host-speed calibration.
//!
//! On a shared 2-core host the same binary's speed drifts by ±20 % over
//! seconds to minutes while steal time reads zero: other tenants contend
//! for the physical cores, caches and memory. Runs of 20–60 s still
//! spread 17–25 % (quartile distance over median), and a longer run does
//! not average the drift away.
//!
//! So every episode is bracketed by a fixed calibration loop, written
//! here in benchmark code that no change to the program touches: a
//! dependent random walk over a buffer larger than L2, then a dependent
//! arithmetic chain in registers, so it slows under memory contention and
//! under core contention as the workloads do. The episode's times are
//! multiplied by `REFERENCE_S / mean of the two calibration times`: they
//! read as times on a host running at the reference speed. On the host
//! the bounds were sized on this halves the run-to-run spread. The raw
//! calibration time is reported as the per-layer metric
//! `host.calibration_ms`.

use std::time::Instant;

/// Calibration time at the reference host speed: about the median
/// measured on the 2.1 GHz Xeon (2 vCPUs, Firecracker) the bounds were
/// sized on.
pub const REFERENCE_S: f64 = 0.095;

const WALK_STEPS: u64 = 2_000_000;
const CHAIN_STEPS: u64 = 3_000_000;
/// 4 MiB of words.
const WORDS: usize = 1 << 19;

pub struct Calibration {
    buf: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Runs the fixed loop once; returns its wall time (s).
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut idx = 1usize;
        let mut acc = 0u64;
        for i in 0..WALK_STEPS {
            idx = ((idx as u64 ^ acc).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % WORDS;
            acc = acc.wrapping_add(self.buf[idx]);
            self.buf[idx] ^= acc.rotate_left(7) ^ i;
        }
        let mut x = [1.0f64, 1.1, 1.2, 1.3];
        for i in 0..CHAIN_STEPS {
            acc = (acc ^ i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            let k = (acc & 3) as usize;
            x[k] = (x[k] * 1.000_000_1 + (acc >> 60) as f64 * 1e-9).sqrt() + 0.5;
        }
        std::hint::black_box((acc, x));
        t.elapsed().as_secs_f64()
    }
}
