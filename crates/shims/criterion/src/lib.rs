//! Std-only shim for the subset of `criterion` 0.5 this workspace uses:
//! `Criterion::bench_function` + `Bencher::iter`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros. No statistics engine —
//! it times a warmup window, then a measurement window, and prints the
//! mean ns/iteration. Good enough for the micro-benchmarks' "tens of
//! nanoseconds" sanity gauges.
//!
//! A name filter on the command line (`cargo bench --bench micro --
//! large`: the first argument not starting with `-`) runs only the group
//! targets whose function name contains it; without one every target runs.

// This crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark harness configuration (warmup + measurement windows).
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            warm_up: self.warm_up_time,
            per_sample: self.measurement_time / self.sample_size as u32,
            samples: self.sample_size,
            mean_ns: Vec::new(),
        };
        f(&mut b);
        if b.mean_ns.is_empty() {
            // lint:allow(no-print): criterion-compatible console report
            // is this shim's entire purpose.
            println!("{name:<40} (no iterations recorded)");
            return self;
        }
        b.mean_ns.sort_by(|a, c| a.total_cmp(c));
        let median = b.mean_ns[b.mean_ns.len() / 2];
        let min = b.mean_ns.first().copied().unwrap_or(median);
        let max = b.mean_ns.last().copied().unwrap_or(median);
        // lint:allow(no-print): criterion-compatible console report.
        println!("{name:<40} time: [{min:>10.1} ns {median:>10.1} ns {max:>10.1} ns]");
        self
    }
}

/// Passed to the closure given to `bench_function`.
pub struct Bencher {
    warm_up: Duration,
    per_sample: Duration,
    samples: usize,
    mean_ns: Vec<f64>,
}

impl Bencher {
    /// Run `f` repeatedly: warm up, then `samples` timed windows; records
    /// the mean ns/iteration of each window.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let warm_end = Instant::now() + self.warm_up;
        while Instant::now() < warm_end {
            black_box(f());
        }
        for _ in 0..self.samples {
            let mut iters = 0u64;
            let t0 = Instant::now();
            let end = t0 + self.per_sample;
            loop {
                // Batch 64 calls per clock check so timing overhead does
                // not dominate nanosecond-scale bodies.
                for _ in 0..64 {
                    black_box(f());
                }
                iters += 64;
                if Instant::now() >= end {
                    break;
                }
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            self.mean_ns.push(elapsed / iters as f64);
        }
    }
}

/// Declares a function running a list of benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            let mut c = $config;
            $(
                if filter.as_deref().is_none_or(|f| stringify!($target).contains(f)) {
                    $target(&mut c);
                }
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_records() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(6));
        let mut count = 0u64;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert!(count > 0);
    }
}
