//! A monotonic-clock micro-benchmark harness: the std-only replacement
//! for Criterion in this workspace.
//!
//! Each benchmark runs a warmup, then takes `samples` timing samples on
//! [`std::time::Instant`]; fast bodies are batched so every sample spans
//! at least [`BenchConfig::min_sample_ns`]. Results print as a table and
//! are appended as JSON-lines to the file named by `--out FILE` (if
//! given), one object per benchmark, so CI can archive and diff runs;
//! `--samples N` overrides the sample count. Both go after the `--`:
//! `cargo bench -p legodb-bench --bench machinery -- --samples 10 --out FILE`.
//!
//! ```no_run
//! let mut bench = legodb_util::bench::Bench::from_args();
//! bench.bench_function("fib_20", |b| b.iter(|| fibonacci(20)));
//! bench.finish();
//! # fn fibonacci(_: u32) -> u64 { 0 }
//! ```
//!
//! Full measurement requires the `--bench` flag, which `cargo bench`
//! passes to `harness = false` targets. Without it (`cargo test
//! --benches`, or running the binary directly) the harness is in smoke
//! mode: every body runs exactly once and no statistics are reported —
//! the same convention Criterion uses, so benches double as tests.

pub use std::hint::black_box;

use crate::json::JsonObject;
use std::io::Write as _;
use std::time::Instant;

/// Harness settings; [`Bench::from_args`] takes `samples` from `--samples`.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Calls of the body before measurement starts.
    pub warmup_iters: u64,
    /// Timing samples per benchmark.
    pub samples: usize,
    /// Batch the body until one sample spans at least this long.
    pub min_sample_ns: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            warmup_iters: 5,
            samples: 30,
            min_sample_ns: 50_000,
        }
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Benchmark name.
    pub name: String,
    /// Timing samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub batch: u64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

impl Summary {
    fn to_json_line(&self) -> String {
        JsonObject::new()
            .str("name", &self.name)
            .u64("samples", self.samples as u64)
            .u64("batch", self.batch)
            .f64("min_ns", self.min_ns)
            .f64("median_ns", self.median_ns)
            .f64("p95_ns", self.p95_ns)
            .f64("mean_ns", self.mean_ns)
            .finish()
    }
}

/// The harness: create with [`Bench::from_args`], register benchmarks
/// with [`Bench::bench_function`], and call [`Bench::finish`].
#[derive(Debug)]
pub struct Bench {
    config: BenchConfig,
    test_mode: bool,
    json_path: Option<std::path::PathBuf>,
    filter: Option<String>,
    results: Vec<Summary>,
}

impl Bench {
    /// A harness honoring the CLI contract of `harness = false` targets:
    /// `--bench` (passed by `cargo bench`) enables full measurement,
    /// anything else — including `cargo test --benches` — gets smoke
    /// mode; a bare argument filters benchmarks by substring,
    /// `--samples N` sets the sample count and `--out FILE` names the
    /// JSON-lines output. A bad `--samples` or `--out` exits with status 2.
    pub fn from_args() -> Bench {
        let mut bench_mode = false;
        let mut test_mode = false;
        let mut filter = None;
        let mut config = BenchConfig::default();
        let mut json_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => bench_mode = true,
                "--test" => test_mode = true,
                "--samples" => match args.next().and_then(|n| n.parse().ok()) {
                    Some(n) if n > 0 => config.samples = n,
                    _ => usage_error("--samples needs a positive integer"),
                },
                "--out" => match args.next() {
                    Some(path) => json_path = Some(path.into()),
                    None => usage_error("--out needs a file"),
                },
                a if !a.starts_with('-') => filter = Some(a.to_string()),
                _ => {}
            }
        }
        let test_mode = test_mode || !bench_mode;
        Bench {
            config,
            test_mode,
            json_path,
            filter,
            results: Vec::new(),
        }
    }

    /// A harness with explicit settings (no CLI/env parsing).
    pub fn with_config(config: BenchConfig) -> Bench {
        Bench {
            config,
            test_mode: false,
            json_path: None,
            filter: None,
            results: Vec::new(),
        }
    }

    /// Run one benchmark. The closure receives a [`Bencher`] and must
    /// call [`Bencher::iter`] with the body to measure.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Bench {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            config: self.config.clone(),
            test_mode: self.test_mode,
            times_ns: Vec::new(),
            batch: 1,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("{name:<40} ok (smoke)");
            return self;
        }
        let summary = bencher.summarize(name);
        println!(
            "{name:<40} median {:>10}  p95 {:>10}  min {:>10}  ({} samples x {} iters)",
            fmt_ns(summary.median_ns),
            fmt_ns(summary.p95_ns),
            fmt_ns(summary.min_ns),
            summary.samples,
            summary.batch,
        );
        self.results.push(summary);
        self
    }

    /// Flush JSON-lines output (when configured) and return the results.
    pub fn finish(&mut self) -> Vec<Summary> {
        if let Some(path) = &self.json_path {
            if !self.results.is_empty() {
                match append_json_lines(path, self.results.iter().map(Summary::to_json_line)) {
                    Ok(()) => eprintln!(
                        "bench: appended {} records to {}",
                        self.results.len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("bench: cannot write {}: {e}", path.display()),
                }
            }
        }
        std::mem::take(&mut self.results)
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(2)
}

/// Measurement context handed to the benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    config: BenchConfig,
    test_mode: bool,
    times_ns: Vec<u64>,
    batch: u64,
}

impl Bencher {
    /// Measure `f`: warmup, batch calibration, then timed samples. In
    /// smoke mode, runs `f` once.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        if self.test_mode {
            black_box(f());
            return;
        }
        for _ in 0..self.config.warmup_iters {
            black_box(f());
        }
        // Grow the batch until one sample is long enough to time reliably.
        let mut batch = 1u64;
        loop {
            let t = time_batch(&mut f, batch);
            if t >= self.config.min_sample_ns || batch >= (1 << 24) {
                break;
            }
            batch *= 2;
        }
        self.batch = batch;
        self.times_ns = (0..self.config.samples)
            .map(|_| time_batch(&mut f, batch))
            .collect();
    }

    fn summarize(self, name: &str) -> Summary {
        assert!(
            !self.times_ns.is_empty(),
            "bench_function body never called Bencher::iter"
        );
        let mut per_iter: Vec<f64> = self
            .times_ns
            .iter()
            .map(|&t| t as f64 / self.batch as f64)
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let n = per_iter.len();
        Summary {
            name: name.to_string(),
            samples: n,
            batch: self.batch,
            min_ns: per_iter[0],
            median_ns: percentile(&per_iter, 0.50),
            p95_ns: percentile(&per_iter, 0.95),
            mean_ns: per_iter.iter().sum::<f64>() / n as f64,
        }
    }
}

fn time_batch<R>(f: &mut impl FnMut() -> R, batch: u64) -> u64 {
    let start = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    start.elapsed().as_nanos() as u64
}

/// Nearest-rank percentile of an ascending-sorted slice; `q` in `[0, 1]`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Run `f` once, returning its result and wall time — for coarse
/// whole-experiment timing (the `fig*`/`tab*` binaries).
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Append pre-rendered JSON lines to `path`, creating parents as needed.
pub fn append_json_lines(
    path: &std::path::Path,
    lines: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for line in lines {
        writeln!(file, "{line}")?;
    }
    Ok(())
}

/// Human-readable nanoseconds (`412ns`, `3.21µs`, `15.4ms`, `2.05s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BenchConfig {
        BenchConfig {
            warmup_iters: 1,
            samples: 8,
            min_sample_ns: 1_000,
        }
    }

    #[test]
    fn measures_and_summarizes() {
        let mut bench = Bench::with_config(quick_config());
        bench.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let results = bench.finish();
        assert_eq!(results.len(), 1);
        let s = &results[0];
        assert_eq!(s.name, "spin");
        assert_eq!(s.samples, 8);
        assert!(s.batch >= 1);
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
    }

    #[test]
    fn percentiles_of_known_data() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&data, 0.5), 51.0);
        assert_eq!(percentile(&data, 0.95), 95.0);
    }

    #[test]
    fn json_lines_append_and_accumulate() {
        let dir = std::env::temp_dir().join(format!("legodb-util-bench-{}", std::process::id()));
        let path = dir.join("bench.jsonl");
        let _ = std::fs::remove_file(&path);
        append_json_lines(&path, ["{\"a\":1}".to_string()]).unwrap();
        append_json_lines(&path, ["{\"b\":2}".to_string()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formats_time_scales() {
        assert_eq!(fmt_ns(412.0), "412ns");
        assert_eq!(fmt_ns(3_210.0), "3.21µs");
        assert_eq!(fmt_ns(15_400_000.0), "15.40ms");
        assert_eq!(fmt_ns(2_050_000_000.0), "2.05s");
    }

    #[test]
    fn time_once_returns_the_result() {
        let (value, elapsed) = time_once(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(elapsed.as_nanos() > 0);
    }
}
