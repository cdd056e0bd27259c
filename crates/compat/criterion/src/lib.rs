//! Minimal vendored benchmark harness exposing the subset of the
//! `criterion` API this workspace's benches use: [`Criterion`],
//! [`BenchmarkGroup`], [`BenchmarkId`], [`Throughput`], [`black_box`], and
//! the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement is a plain wall-clock loop (short warm-up, then a fixed
//! sample of timed iterations) reporting mean ns/iter and, when a
//! throughput was declared, derived elements-or-bytes per second. No
//! statistics, plots, or saved baselines.
//!
//! Two environment variables serve CI:
//!
//! * `SAQL_BENCH_QUICK=1` — quick mode: every benchmark runs three timed
//!   samples (after the usual one-iteration warm-up) and reports the
//!   **minimum**, regardless of configured sample sizes. A single timed
//!   iteration jitters up to ~2x from cold caches and scheduling; min-of-3
//!   is a far steadier capability estimate at quarter the cost of the full
//!   sample sizes. Numbers are still smoke-level, but every bench body
//!   executes, which is what a per-PR perf-tracking job needs.
//! * `SAQL_BENCH_JSON=path` — after the last group, the bench binary
//!   writes a JSON summary of every measurement to `path` (one object
//!   with a `benches` array; see [`write_json_summary`]).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Results accumulated by every [`run_one`] call in this bench binary,
/// drained by [`write_json_summary`].
static RESULTS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

#[derive(Debug, Clone)]
struct Record {
    label: String,
    ns_per_iter: u128,
    per_sec: Option<(&'static str, f64)>,
}

fn quick_mode() -> bool {
    std::env::var("SAQL_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()) == Ok(true)
}

/// Opaque value barrier preventing the optimizer from deleting benchmark
/// work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work volume of one iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
}

/// A benchmark's display identity: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Runs closures under timing; handed to bench bodies.
pub struct Bencher {
    samples: u64,
    /// Quick mode: time each sample separately and keep the fastest,
    /// instead of the mean over one fused timing loop.
    min_of_samples: bool,
    /// Reported duration of one iteration, filled in by [`Bencher::iter`].
    elapsed_per_iter: Duration,
}

impl Bencher {
    /// Time `routine`, keeping its return value alive via [`black_box`].
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: one untimed run (also pre-faults lazy state).
        black_box(routine());
        if self.min_of_samples {
            let mut best = Duration::MAX;
            for _ in 0..self.samples {
                let start = Instant::now();
                black_box(routine());
                best = best.min(start.elapsed());
            }
            self.elapsed_per_iter = best;
        } else {
            let start = Instant::now();
            for _ in 0..self.samples {
                black_box(routine());
            }
            self.elapsed_per_iter = start.elapsed() / (self.samples as u32);
        }
    }
}

/// How much input [`Bencher::iter_batched`] may set up ahead of time
/// upstream. The shim always sets up one input per timed call; the type
/// exists so call sites read as they would against upstream criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    LargeInput,
}

impl Bencher {
    /// Time `routine` on a fresh `setup()` value per call; the setup (and
    /// the drop of the routine's output) stay outside the timing.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        let (mut best, mut total) = (Duration::MAX, Duration::ZERO);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            let took = start.elapsed();
            drop(output);
            best = best.min(took);
            total += took;
        }
        self.elapsed_per_iter = if self.min_of_samples {
            best
        } else {
            total / (self.samples as u32)
        };
    }
}

/// Top-level harness state; one per bench binary.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
            throughput: None,
            sample_size: None,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let id = id.into();
        run_one(&id.label, self.sample_size, None, f);
    }
}

/// A named set of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
    sample_size: Option<u64>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1) as u64);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&label, self.effective_samples(), self.throughput, f);
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&label, self.effective_samples(), self.throughput, |b| {
            f(b, input)
        });
    }

    pub fn finish(self) {}

    fn effective_samples(&self) -> u64 {
        self.sample_size.unwrap_or(self.criterion.sample_size)
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    samples: u64,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let quick = quick_mode();
    let samples = if quick { 3 } else { samples };
    let mut bencher = Bencher {
        samples,
        min_of_samples: quick,
        elapsed_per_iter: Duration::ZERO,
    };
    f(&mut bencher);
    let ns = bencher.elapsed_per_iter.as_nanos().max(1);
    let per_sec = throughput.map(|t| match t {
        Throughput::Elements(n) => ("elements", n as f64 / (ns as f64 / 1e9)),
    });
    let rate = per_sec.map(|(_, rate)| format!("  {rate:.0} elem/s"));
    println!(
        "bench {label:<48} {ns:>12} ns/iter{}",
        rate.unwrap_or_default()
    );
    RESULTS.lock().unwrap().push(Record {
        label: label.to_string(),
        ns_per_iter: ns,
        per_sec,
    });
}

/// Escape a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// When `SAQL_BENCH_JSON` names a path, write every recorded measurement
/// there as one JSON document:
///
/// ```json
/// {"quick":true,"benches":[
///   {"id":"e11_parallel/serial/64","ns_per_iter":1,"throughput_unit":"elements","throughput_per_sec":2.0}
/// ]}
/// ```
///
/// Called by [`criterion_main!`] after the last group; a no-op without the
/// env var. Write failures print to stderr but never fail the bench run.
pub fn write_json_summary() {
    let Ok(path) = std::env::var("SAQL_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let records = RESULTS.lock().unwrap();
    let mut out = String::new();
    out.push_str(&format!("{{\"quick\":{},\"benches\":[\n", quick_mode()));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"ns_per_iter\":{}",
            json_string(&r.label),
            r.ns_per_iter
        ));
        match r.per_sec {
            Some((unit, rate)) => out.push_str(&format!(
                ",\"throughput_unit\":{},\"throughput_per_sec\":{rate:.1}}}",
                json_string(unit)
            )),
            None => out.push_str(",\"throughput_unit\":null,\"throughput_per_sec\":null}"),
        }
    }
    out.push_str("\n]}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion: cannot write {path}: {e}");
    }
}

/// Bundle bench functions into one runnable group, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit the bench binary's `main`, running each group in order. Accepts and
/// ignores harness CLI arguments (`--bench`, filters) so `cargo bench`
/// drives it unmodified. After the last group it writes the JSON summary
/// when `SAQL_BENCH_JSON` requests one.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or write the `SAQL_BENCH_*` env vars.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn quick_mode_runs_min_of_three_samples() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAQL_BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut runs = 0u32;
        c.bench_function("quick-probe", |b| b.iter(|| runs += 1));
        std::env::remove_var("SAQL_BENCH_QUICK");
        // One warm-up iteration plus exactly three timed samples (the
        // reported figure is the fastest of the three).
        assert_eq!(runs, 4, "quick mode must clamp sampling to min-of-3");
    }

    #[test]
    fn json_summary_written_on_request() {
        let _guard = ENV_LOCK.lock().unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("criterion-compat-{}.json", std::process::id()));
        std::env::set_var("SAQL_BENCH_JSON", &path);
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("jsontest");
        group.throughput(Throughput::Elements(10)).sample_size(1);
        group.bench_function("probe \"quoted\"", |b| b.iter(|| 1u32));
        group.finish();
        write_json_summary();
        std::env::remove_var("SAQL_BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            text.contains("\"id\":\"jsontest/probe \\\"quoted\\\"\""),
            "escaped id missing: {text}"
        );
        assert!(text.contains("\"ns_per_iter\":"), "{text}");
        assert!(text.contains("\"throughput_unit\":\"elements\""), "{text}");
        assert!(text.trim_end().ends_with("]}"), "{text}");
    }

    #[test]
    fn group_and_function_apis_run() {
        let _guard = ENV_LOCK.lock().unwrap();
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4)).sample_size(3);
        let mut runs = 0u32;
        group.bench_with_input(BenchmarkId::new("f", 4), &4u64, |b, &n| {
            b.iter(|| {
                runs += 1;
                n * 2
            });
        });
        group.bench_function("plain", |b| b.iter(|| 1u32));
        group.finish();
        c.bench_function(BenchmarkId::from_parameter("top"), |b| b.iter(|| 1u32));
        assert!(runs >= 3, "bench body should have been sampled");
    }
}
