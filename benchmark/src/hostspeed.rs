//! Host-speed calibration.
//!
//! The shared host this benchmark was defined on moves, every few
//! seconds to minutes, between core clocks about 26 % apart (base and
//! turbo, by the look of it); every CPU-bound number moves with it, and
//! ten runs of one workload spread by 10–20 % however long each measures.
//! A fixed piece of work timed beside the measurement tracks the clock
//! closely (rate × kernel time stays within ±2.5 % while the rate swings
//! 25 %), so CPU-bound metrics are reported **at a reference host
//! speed**: scaled by how fast this kernel ran next to them. The factor
//! is printed with every result, so the raw value is one multiplication
//! away.

use std::hint::black_box;
use std::time::Instant;

/// How long the kernel takes on the reference host, ns. Arbitrary but
/// fixed: between the two speeds of the defining host (175 and 221 µs),
/// so its results scale by about ±12 %.
pub const REFERENCE_NS: f64 = 200_000.0;

/// The kernel runs this often, costing 0.2 % of the measured time.
const EVERY_NS: u64 = 100_000_000;

const WORDS: usize = 8192;
const ROUNDS: u64 = 40;

pub struct Calibrator {
    buf: Vec<u64>,
    /// (when, kernel nanoseconds)
    samples: Vec<(u64, u64)>,
    next_ns: u64,
}

impl Calibrator {
    /// Room for `seconds` of ticks; nothing is allocated after this.
    pub fn new(seconds: f64) -> Self {
        Self {
            buf: vec![1; WORDS],
            samples: Vec::with_capacity((seconds * 1e9) as usize / EVERY_NS as usize + 16),
            next_ns: 0,
        }
    }

    /// The fixed work: a dependent rotate-XOR-multiply chain over 64 KiB,
    /// core-bound like the datapath it stands in for.
    fn kernel(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for round in 0..ROUNDS {
            for x in &mut self.buf {
                acc = acc.rotate_left(5) ^ *x;
                *x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(round);
            }
        }
        black_box(acc);
        t0.elapsed().as_nanos() as u64
    }

    /// Run the kernel if it is due. Called from the measuring loop.
    #[inline]
    pub fn tick(&mut self, now_ns: u64) {
        if now_ns >= self.next_ns && self.samples.len() < self.samples.capacity() {
            self.next_ns = now_ns + EVERY_NS;
            let ns = self.kernel();
            self.samples.push((now_ns, ns));
        }
    }

    /// Run the kernel `n` times back to back at time 0 (around work too
    /// short to tick inside, like the set-up rounds).
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            let ns = self.kernel();
            self.samples.push((0, ns));
        }
    }

    /// Host speed over `[from_ns, to_ns]` relative to the reference
    /// (above 1 = faster): from the median kernel time of the samples
    /// taken in that interval or within one tick of it.
    pub fn speed(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut near: Vec<u64> = self
            .samples
            .iter()
            .filter(|(t, _)| t + EVERY_NS >= from_ns && *t <= to_ns + EVERY_NS)
            .map(|&(_, ns)| ns)
            .collect();
        if near.is_empty() {
            return 1.0;
        }
        near.sort_unstable();
        REFERENCE_NS / near[near.len() / 2] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_uses_samples_near_the_interval() {
        let mut c = Calibrator::new(1.0);
        c.samples = vec![
            (0, 400_000),
            (EVERY_NS, 100_000),
            (2 * EVERY_NS, 100_000),
            (3 * EVERY_NS, 100_000),
            (9 * EVERY_NS, 400_000),
        ];
        // Samples at 1, 2 and 3 ticks: kernel ran in half the reference time.
        assert_eq!(c.speed(2 * EVERY_NS, 2 * EVERY_NS + 5), 2.0);
        // Only the slow sample is near.
        assert_eq!(c.speed(9 * EVERY_NS + 1, 10 * EVERY_NS), 0.5);
        // Nothing near: no correction.
        assert_eq!(c.speed(6 * EVERY_NS, 6 * EVERY_NS + 1), 1.0);
    }

    #[test]
    fn ticks_are_spaced_and_bounded() {
        let mut c = Calibrator::new(0.0);
        c.tick(5);
        c.tick(6);
        assert_eq!(c.samples.len(), 1);
        c.tick(5 + EVERY_NS);
        assert_eq!(c.samples.len(), 2);
        assert!(c.samples.iter().all(|&(_, ns)| ns > 0));
        let s = c.speed(0, EVERY_NS);
        assert!(s > 0.0 && s.is_finite());
    }
}
