//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so this shim reproduces
//! the subset of criterion's API that the `nassc-bench` benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], `criterion_group!`
//! and `criterion_main!` — with plain wall-clock timing instead of
//! statistics. Each benchmark runs one untimed warm-up call, then times its
//! `sample_size` iterations in ten consecutive batches and prints the median
//! batch's per-iteration time with the fastest and slowest batch's, so a
//! one-off stall shows as spread instead of moving a single mean. Swap in
//! the real criterion (same manifest entry, registry source) when network
//! access is available for publication-grade numbers.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Timed batches per benchmark (fewer when it has fewer iterations).
const BATCHES: u64 = 10;

/// Measurement state handed to the `|b| b.iter(...)` closure.
pub struct Bencher {
    iterations: u64,
    /// The per-iteration time of each timed batch.
    batch_times: Vec<Duration>,
}

impl Bencher {
    /// Times `iterations` calls of `routine` in up to ten batches of
    /// near-equal size, keeping each return value alive until after the
    /// measurement so it cannot be optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up call, untimed.
        black_box(routine());
        let batches = BATCHES.min(self.iterations);
        self.batch_times.clear();
        for batch in 0..batches {
            let size = self.iterations * (batch + 1) / batches - self.iterations * batch / batches;
            let start = Instant::now();
            for _ in 0..size {
                black_box(routine());
            }
            self.batch_times.push(start.elapsed().div_f64(size as f64));
        }
    }
}

/// Identity function that defeats constant-folding of benchmark results.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifies one benchmark within a group, e.g. `sabre/grover_n4`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Joins a function name and a parameter into `function/parameter`.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Top-level harness object, one per bench binary.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

const DEFAULT_SAMPLE_SIZE: u64 = 10;

fn run_one(label: &str, sample_size: u64, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        iterations: sample_size.max(1),
        batch_times: Vec::new(),
    };
    f(&mut bencher);
    let mut times = bencher.batch_times;
    if times.is_empty() {
        println!("{label:<40} (the closure timed nothing)");
        return;
    }
    times.sort_unstable();
    let micros = |time: Duration| time.as_secs_f64() * 1e6;
    println!(
        "{label:<40} time: {:>12.3} µs/iter [{:.3} – {:.3}] ({} iters in {} batches)",
        micros(times[times.len() / 2]),
        micros(times[0]),
        micros(times[times.len() - 1]),
        bencher.iterations,
        times.len()
    );
}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, DEFAULT_SAMPLE_SIZE, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }
}

/// A group of benchmarks sharing configuration such as `sample_size`.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    sample_size: u64,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Runs a benchmark over one input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("  {}", id.id), self.sample_size, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (report flushing in real criterion; a no-op here).
    pub fn finish(self) {}
}

/// Declares a function running every listed benchmark against one
/// [`Criterion`] instance.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running every listed group.
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
    fn bench_function_runs_the_closure() {
        let mut runs = 0u64;
        Criterion::default().bench_function("counter", |b| b.iter(|| runs += 1));
        // One warm-up call plus DEFAULT_SAMPLE_SIZE timed calls.
        assert_eq!(runs, DEFAULT_SAMPLE_SIZE + 1);
    }

    #[test]
    fn batches_split_the_iterations_exactly() {
        for iterations in [1, 3, 10, 25, 20_000] {
            let mut bencher = Bencher {
                iterations,
                batch_times: Vec::new(),
            };
            let mut runs = 0u64;
            bencher.iter(|| runs += 1);
            assert_eq!(runs, iterations + 1, "{iterations} iterations");
            assert_eq!(
                bencher.batch_times.len() as u64,
                BATCHES.min(iterations),
                "{iterations} iterations"
            );
        }
    }

    #[test]
    fn groups_respect_sample_size() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("g");
        group.sample_size(3);
        let mut runs = 0u64;
        group.bench_with_input(BenchmarkId::new("f", "x"), &2u64, |b, step| {
            b.iter(|| runs += step)
        });
        group.finish();
        assert_eq!(runs, 2 * (3 + 1));
    }
}
