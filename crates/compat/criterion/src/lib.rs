//! Minimal vendored stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no network access to crates.io, so this
//! crate implements the subset of criterion's API the workspace benches
//! use — `criterion_group!` / `criterion_main!`, benchmark groups with
//! `sample_size` / `measurement_time`, `bench_function` /
//! `bench_with_input`, and `Bencher::{iter, iter_batched}`.
//!
//! Instead of criterion's statistical analysis it times a fixed number
//! of iterations per benchmark (one warmup plus `sample_size` measured
//! runs) and prints `group/id  mean ± spread` lines to stdout. That
//! keeps `cargo bench` runnable and its output greppable without any
//! external dependency; absolute numbers are comparable only within a
//! single run.

#![forbid(unsafe_code)]

use std::fmt;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// An opaque value barrier, re-exported for benches that use it.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How `iter_batched` amortizes setup cost. The shim runs one setup per
/// measured iteration regardless, so the variants only document intent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id `"{name}/{parameter}"`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Runs one benchmark's timing loop.
pub struct Bencher {
    samples: usize,
    /// Mean and spread (min..max) of the measured samples.
    result: Option<(Duration, Duration, Duration)>,
}

impl Bencher {
    fn new(samples: usize) -> Bencher {
        Bencher {
            samples,
            result: None,
        }
    }

    /// Times `routine` directly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std_black_box(routine()); // warmup
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std_black_box(routine());
            times.push(start.elapsed());
        }
        self.record(times);
    }

    /// Times `routine` on fresh inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        std_black_box(routine(setup())); // warmup
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            times.push(start.elapsed());
        }
        self.record(times);
    }

    fn record(&mut self, times: Vec<Duration>) {
        let total: Duration = times.iter().sum();
        let mean = total / times.len().max(1) as u32;
        let min = times.iter().min().copied().unwrap_or_default();
        let max = times.iter().max().copied().unwrap_or_default();
        self.result = Some((mean, min, max));
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Accepted for API compatibility; the shim's run length is set by
    /// [`BenchmarkGroup::sample_size`] alone.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs `f` as the benchmark `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id.id), self.sample_size, f);
        self
    }

    /// Runs `f` with `input` as the benchmark `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_one(
            &format!("{}/{}", self.name, id.id),
            self.sample_size,
            |b: &mut Bencher| f(b, input),
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut b = Bencher::new(samples);
    f(&mut b);
    match b.result {
        Some((mean, min, max)) => {
            println!(
                "{label:<52} {:>12?} (min {:?} .. max {:?}, n={samples})",
                mean, min, max
            );
            append_json_line(label, samples, mean, min, max);
        }
        None => println!("{label:<52} (no measurement recorded)"),
    }
}

/// When `BSOR_BENCH_JSON` names a file, every benchmark also appends one
/// JSON line there — the same shape the `bsor-sweep` harness records in
/// `BENCH_sweep.json` timing fields — so CI can collect micro-benchmark
/// trajectories without scraping stdout.
fn append_json_line(label: &str, samples: usize, mean: Duration, min: Duration, max: Duration) {
    let Ok(path) = std::env::var("BSOR_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}}}\n",
        label.replace('\\', "\\\\").replace('"', "\\\""),
        mean.as_nanos(),
        min.as_nanos(),
        max.as_nanos(),
        samples
    );
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("criterion shim: cannot append to {path}: {e}");
    }
}

/// The harness entry point handed to each benchmark function.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Accepted for API compatibility; the shim has no CLI options.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            _criterion: self,
        }
    }

    /// Runs `f` as a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&id.id, self.default_sample_size, f);
        self
    }
}

/// Bundles benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
