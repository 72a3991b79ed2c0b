//! A self-contained, dependency-free stand-in for the subset of the
//! `criterion` crate API this workspace's benches use.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors a small wall-clock harness with the same surface:
//! [`Criterion::benchmark_group`], `sample_size`, `throughput`,
//! `bench_function` / `bench_with_input`, [`Bencher::iter`] and
//! [`Bencher::iter_batched`], plus the [`criterion_group!`] /
//! [`criterion_main!`] macros. It measures means and standard deviations
//! over adaptively-sized samples — no outlier analysis or HTML reports.
//!
//! Set `CRITERION_JSON_OUT=<path>` (or pass `--metrics-out <path>` to the
//! bench binary) to additionally write every measured **minimum** as a JSON
//! object `{"bench/name": min_ns, ...}` — the workspace's checked-in
//! baselines (`BENCH_throughput.json`, `BENCH_incremental.json`, …) are produced
//! that way. The digest uses the fastest sample rather than the mean
//! because CI gates on it with few samples: timing noise on a busy runner
//! is strictly additive (preemption only ever slows an iteration down), so
//! the minimum is the lowest-variance estimate of the code's true cost.
//!
//! Every digest also carries [`CALIBRATION_KEY`]: the fastest sample of a
//! fixed workload that no change to the workspace touches. Comparing it
//! between two digests measures the speed of the machines alone, which is
//! what `compare_bench` normalizes by.
//!
//! Set `CRITERION_QUICK=1` (or pass `--quick`) to cap every benchmark at 5
//! samples — the CI smoke-test mode, where relative ordering matters but
//! tight confidence intervals do not.

#![forbid(unsafe_code)]

use std::fmt;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The digest key of the calibration bench (see the crate docs).
pub const CALIBRATION_KEY: &str = "calibration/fixed_work";

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/name`).
    pub id: String,
    /// Mean wall time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, in nanoseconds (what the JSON digest reports).
    pub min_ns: f64,
    /// Standard deviation across samples, in nanoseconds.
    pub stddev_ns: f64,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

/// The benchmark driver: collects results, prints a summary line per
/// benchmark, and optionally writes the JSON digest.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// A fresh driver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let mut group = self.benchmark_group("");
        group.bench_function(name, f);
        group.finish();
        self
    }

    /// All results measured so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes the JSON digest when `CRITERION_JSON_OUT` or `--metrics-out`
    /// is set; called by [`criterion_main!`] after all groups ran.
    pub fn finalize(&self) {
        let Some(path) = json_out_path() else {
            return;
        };
        let calibration = (CALIBRATION_KEY.to_string(), calibration_ns());
        let entries: Vec<(String, f64)> = self
            .results
            .iter()
            .map(|r| (r.id.replace('"', "'"), r.min_ns))
            .chain([calibration])
            .collect();
        let mut body = String::from("{\n");
        for (i, (id, ns)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            body.push_str(&format!("  \"{id}\": {ns:.1}{comma}\n"));
        }
        body.push_str("}\n");
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => eprintln!("(criterion json: {path})"),
            Err(err) => eprintln!("warning: cannot write {path}: {err}"),
        }
    }

    fn record(&mut self, result: BenchResult) {
        let per_iter = format_ns(result.mean_ns);
        let spread = format_ns(result.stddev_ns);
        let rate = match result.throughput {
            Some(Throughput::Elements(n)) if result.mean_ns > 0.0 => {
                format!("  {:.0} elem/s", n as f64 / (result.mean_ns / 1e9))
            }
            Some(Throughput::Bytes(n) | Throughput::BytesDecimal(n)) if result.mean_ns > 0.0 => {
                format!("  {:.0} B/s", n as f64 / (result.mean_ns / 1e9))
            }
            _ => String::new(),
        };
        println!("{:<48} time: [{per_iter} ± {spread}]{rate}", result.id);
        self.results.push(result);
    }
}

/// The fastest sample of the calibration workload, in nanoseconds: a chain
/// of dependent loads over a fixed 8 MiB table (memory latency, as the
/// trust-matrix kernels see it) with an integer mix per step (arithmetic).
fn calibration_ns() -> f64 {
    const SLOTS: usize = 1 << 20;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let table: Vec<u64> = (0..SLOTS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        })
        .collect();
    let mut bencher = Bencher::with_sample_size(20);
    bencher.iter(|| {
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..(1 << 16) {
            let v = table[at];
            acc = acc.rotate_left(7) ^ v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            at = (v as usize ^ acc as usize) & (SLOTS - 1);
        }
        acc
    });
    bencher.statistics().1
}

/// Where the JSON digest goes: the `CRITERION_JSON_OUT` env var wins, then
/// a `--metrics-out PATH` / `--metrics-out=PATH` command-line argument.
fn json_out_path() -> Option<String> {
    if let Ok(path) = std::env::var("CRITERION_JSON_OUT") {
        return Some(path);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-out" {
            return args.next();
        }
        if let Some(p) = arg.strip_prefix("--metrics-out=") {
            return Some(p.to_string());
        }
    }
    None
}

/// Whether quick mode is on: `CRITERION_QUICK` set non-empty (and not `0`)
/// or `--quick` on the command line.
fn quick_mode() -> bool {
    match std::env::var("CRITERION_QUICK") {
        Ok(v) if !v.is_empty() && v != "0" => return true,
        _ => {}
    }
    std::env::args().skip(1).any(|a| a == "--quick")
}

/// Samples per benchmark after the quick-mode cap.
fn effective_sample_size(requested: usize) -> usize {
    capped_sample_size(requested, quick_mode())
}

fn capped_sample_size(requested: usize, quick: bool) -> usize {
    if quick {
        requested.min(5)
    } else {
        requested
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes (binary prefixes).
    Bytes(u64),
    /// Iterations process this many bytes (decimal prefixes).
    BytesDecimal(u64),
}

/// How `iter_batched` amortizes setup cost (the shim times each routine
/// call individually, so the variants behave identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A benchmark identifier (`BenchmarkId::new("name", param)` or
/// `BenchmarkId::from_parameter(param)`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// A named set of benchmarks sharing sample settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (minimum 5).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::with_sample_size(self.sample_size);
        f(&mut bencher);
        self.push(id, &bencher);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::with_sample_size(self.sample_size);
        f(&mut bencher, input);
        self.push(id, &bencher);
        self
    }

    /// Ends the group (kept for API parity; recording happens eagerly).
    pub fn finish(&mut self) {}

    fn push(&mut self, id: impl fmt::Display, bencher: &Bencher) {
        let (mean, min, stddev) = bencher.statistics();
        let full_id = if self.name.is_empty() {
            id.to_string()
        } else {
            format!("{}/{id}", self.name)
        };
        self.criterion.record(BenchResult {
            id: full_id,
            mean_ns: mean,
            min_ns: min,
            stddev_ns: stddev,
            throughput: self.throughput,
        });
    }
}

/// Runs the measured closure and collects per-iteration timings.
#[derive(Debug)]
pub struct Bencher {
    /// Nanoseconds per iteration, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    fn with_sample_size(requested: usize) -> Self {
        Self {
            samples: Vec::new(),
            sample_size: effective_sample_size(requested),
        }
    }

    /// Times `f`, amortizing over enough iterations per sample to make the
    /// clock resolution irrelevant.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fill ~5 ms?
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let iters =
            (Duration::from_millis(5).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;

        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let nanos = start.elapsed().as_nanos() as f64 / iters as f64;
            self.samples.push(nanos);
        }
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement, and so is dropping the routine's
    /// output (upstream criterion accumulates outputs per batch and drops
    /// them outside the timed region — freeing a large state clone can
    /// cost more than the routine under test).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.samples.push(start.elapsed().as_nanos() as f64);
            drop(output);
        }
    }

    fn statistics(&self) -> (f64, f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = self.samples.len() as f64;
        let mean = self.samples.iter().sum::<f64>() / n;
        let var = self.samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (mean, min, var.sqrt())
    }
}

/// Declares a function running each listed benchmark against one
/// [`Criterion`] driver.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main`: runs each group and finalizes the driver.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::new();
            $($group(&mut criterion);)+
            criterion.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion::new();
        {
            let mut group = c.benchmark_group("shim");
            group.sample_size(5);
            group.throughput(Throughput::Elements(64));
            group.bench_with_input(BenchmarkId::from_parameter(64), &64u64, |b, &n| {
                b.iter(|| (0..n).map(black_box).sum::<u64>());
            });
            group.bench_function("batched", |b| {
                b.iter_batched(
                    || vec![1u64; 32],
                    |v| v.iter().sum::<u64>(),
                    BatchSize::SmallInput,
                );
            });
            group.finish();
        }
        assert_eq!(c.results().len(), 2);
        assert!(c.results().iter().all(|r| r.mean_ns > 0.0));
        assert_eq!(c.results()[0].id, "shim/64");
    }

    #[test]
    fn calibration_measures_a_positive_time() {
        assert!(calibration_ns() > 0.0);
    }

    #[test]
    fn quick_mode_caps_samples() {
        assert_eq!(capped_sample_size(100, true), 5);
        assert_eq!(capped_sample_size(3, true), 3);
        assert_eq!(capped_sample_size(100, false), 100);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
