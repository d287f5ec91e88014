//! Seeded inputs: independent sub-seeds for each random stream of a run,
//! and the open-loop Poisson arrival schedule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An independent seed for stream `stream` of a run seeded with `seed`
/// (SplitMix64 finalizer), so peer choice, arrivals, injected faults and
/// payload bytes do not share a sequence.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrivals at a fixed mean rate: exponential gaps from a seeded
/// generator. The schedule depends on the seed and the rate only, never
/// on how fast the system under test answers.
pub struct Poisson {
    rng: SmallRng,
    mean_gap_ns: f64,
    next_due_ns: f64,
}

impl Poisson {
    pub fn new(seed: u64, rate_per_s: f64, start_ns: u64) -> Self {
        let mut p = Self {
            rng: SmallRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due_ns: start_ns as f64,
        };
        p.advance();
        p
    }

    /// When the next request is due.
    #[inline]
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns as u64
    }

    /// Move on to the following arrival.
    #[inline]
    pub fn advance(&mut self) {
        let u: f64 = self.rng.gen();
        self.next_due_ns += -(1.0 - u).ln() * self.mean_gap_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: usize) -> Vec<u64> {
        let mut p = Poisson::new(seed, 500_000.0, 1_000);
        (0..n)
            .map(|_| {
                let due = p.next_due_ns();
                p.advance();
                due
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7, 10_000), schedule(7, 10_000));
        assert_ne!(schedule(7, 100), schedule(8, 100));
    }

    #[test]
    fn mean_rate_within_one_percent() {
        let n = 1_000_000;
        let s = schedule(3, n);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "schedule goes back");
        let rate = (n - 1) as f64 / ((s[n - 1] - s[0]) as f64 / 1e9);
        assert!((rate / 500_000.0 - 1.0).abs() < 0.01, "rate {rate}");
        // Exponential gaps: the standard deviation equals the mean.
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.02,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
