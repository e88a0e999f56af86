//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync_rounds|train_paper|serve_storm --seed N --seconds S --trace 0|1 \
//!     [--record FILE]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). See `perfbench/README.md` for what each metric and
//! workload means.

mod layers;
mod serve;
mod stats;
mod sync;
mod trace;
mod train;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use trace::Tracer;

/// Counts allocator calls while [`COUNTING`] is set, so the traced run can
/// report allocations per synchronization round. The untraced run leaves
/// counting off and pays one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter has no effect on the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made by `f` (counting is on only inside the call).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

/// End-to-end metrics: `(name, unit)`. Every run with `--trace 0` reports
/// all of them; `BENCHMARK.json` carries the same names, units, direction
/// and bounds.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("turnaround_mean_s", "s"),
    ("recovery_s", "s"),
    ("sim_time_to_target_s", "s"),
    ("accuracy", "share"),
    ("wire_bits_per_elem", "bits/elem"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every run with `--trace 1` reports
/// all of them.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.triad_gb_per_s", "GB/s"),
    ("tensor.pack_ns_per_elem", "ns/elem"),
    ("tensor.transient_ns_per_elem", "ns/elem"),
    ("tensor.transient_nondyadic_ns_per_elem", "ns/elem"),
    ("tensor.pack_bw_fraction", "share"),
    ("core.sync_ring8_ms", "ms"),
    ("core.sync_torus_k_ms", "ms"),
    ("core.sync_ring7_ms", "ms"),
    ("core.sync_faulty_ms", "ms"),
    ("core.sync_full_precision_ms", "ms"),
    ("core.sync_train_shape_ms", "ms"),
    ("core.sync_aligned_control_ms", "ms"),
    ("core.allocs_per_round", "count"),
    ("collectives.wire_bytes_per_round", "count"),
    ("collectives.retransmits_per_round", "count"),
    ("telemetry.events_per_round", "count"),
    ("telemetry.recording_overhead_ratio", "ratio"),
    ("models.grad_ms", "ms"),
    ("models.eval_ms", "ms"),
    ("datagen.datasets_s", "s"),
    ("trainsim.new_s", "s"),
    ("trainsim.step_ms", "ms"),
    ("trainsim.unattributed_ms", "ms"),
    ("trainsim.snapshot_ms", "ms"),
    ("trainsim.restore_ms", "ms"),
    ("trainsim.snapshot_bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.shard_round_p50_ms", "ms"),
    ("serve.shard_round_p90_ms", "ms"),
    ("serve.migrations", "count"),
    ("serve.migration_ms", "ms"),
    ("serve.pool_hit_rate", "share"),
    ("serve.journal_encode_mb_per_s", "MB/s"),
    ("serve.journal_bytes_per_job", "bytes"),
    ("serve.replay_mb_per_s", "MB/s"),
    ("serve.resume_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
    ("simnet.wire_encode_mb_per_s", "MB/s"),
    ("simnet.wire_decode_mb_per_s", "MB/s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["sync_rounds", "train_paper", "serve_storm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

/// Everything one run measured and checked.
struct Run {
    args: Args,
    tracer: Tracer,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Scratch directory inside the checkout (journals); removed at exit.
    scratch: PathBuf,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// A metric measured earlier in this run (NaN, which fails the run,
    /// if it was not).
    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Counts `n` operations attempted.
    fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed or wrong operation (it must also have been
    /// counted by [`Self::attempt`]).
    fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: FAILED: {why}");
        self.failures.push(why);
    }

    /// Checks `ok`, counting one attempted operation.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(why());
        }
    }

    /// A percentile metric; a refused percentile is a failed measurement.
    fn set_percentile(&mut self, name: &'static str, sorted: &[f64], q: f64) {
        match stats::percentile(sorted, q) {
            Some(v) => self.set(name, v),
            None => self.fail(format!(
                "{name}: {} samples cannot support percentile {q}",
                sorted.len()
            )),
        }
    }
}

/// Median wall seconds of one call to `f` over `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// STREAM-triad bandwidth in GB/s over three arrays of `n` floats (two
/// streamed reads and one write per element), median of `reps`.
fn triad_gb_per_s(n: usize, reps: usize) -> f64 {
    let b: Vec<f32> = (0..n).map(|i| (i % 1021) as f32 * 0.5).collect();
    let c: Vec<f32> = (0..n).map(|i| (i % 4093) as f32 * 0.25).collect();
    let mut a = vec![0.0f32; n];
    let secs = median_secs(reps, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + 3.0 * *ci;
        }
        black_box(&mut a);
    });
    (n * 3 * std::mem::size_of::<f32>()) as f64 / secs / 1e9
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn result_json(run: &Run, correct: bool, table: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (name, unit) in table {
        if let Some(v) = run.metrics.get(name).filter(|v| v.is_finite()) {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#
            );
        }
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        run.attempted.max(1),
        run.failures.len()
    )
}

/// Appends the result and its provenance to `path`, refusing a tree with
/// uncommitted changes: a recorded baseline must name the code it measured.
fn record(path: &Path, provenance: &str, result: &str) -> Result<(), String> {
    let describe = git_describe();
    if describe.ends_with("-dirty") || describe == "unknown" {
        return Err(format!(
            "refusing to record a baseline from tree {describe}: commit first"
        ));
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(
        file,
        r#"{{"provenance": {provenance}, "result": {result}}}"#
    )
    .and_then(|()| file.sync_all())
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Arrays of the sync workload's d: the triad moves data at the scale
    // the sync layer streams one worker's update.
    let triad = triad_gb_per_s(sync::D, 9);
    let provenance = format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {nproc}, "git_describe": "{}", "triad_gb_per_s": {triad}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_describe(),
    );
    println!("provenance {provenance}");
    let mut run = Run {
        tracer: Tracer::new(args.trace),
        args,
        metrics: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
        scratch,
    };
    if run.args.trace {
        run.set("host.triad_gb_per_s", triad);
    }
    let wall = Instant::now();
    match run.args.workload.as_str() {
        "sync_rounds" => sync::run(&mut run),
        "train_paper" => train::run(&mut run),
        _ => serve::run(&mut run),
    }
    if run.args.trace {
        layers::run(&mut run);
        let spans = PathBuf::from(".perfbench").join(format!(
            "spans-{}-seed{}.jsonl",
            run.args.workload, run.args.seed
        ));
        if let Err(e) = std::fs::write(&spans, run.tracer.to_jsonl()) {
            run.fail(format!("cannot write {}: {e}", spans.display()));
        }
    } else {
        match peak_rss_mb() {
            Some(mb) => run.set("peak_rss_mb", mb),
            None => run.fail("peak RSS unavailable (/proc/self/status)"),
        }
    }
    std::fs::remove_dir_all(&run.scratch).ok();
    std::fs::remove_dir(".perfbench").ok();

    let table = if run.args.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    for (name, _) in table {
        match run.metrics.get(name) {
            None => run.fail(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => run.fail(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    let correct = run.failures.is_empty();
    let result = result_json(&run, correct, table);
    eprintln!(
        "perfbench: {} seed {} done in {:.1}s",
        run.args.workload,
        run.args.seed,
        wall.elapsed().as_secs_f64()
    );
    if let Some(path) = &run.args.record {
        if let Err(e) = record(path, &provenance, &result) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    println!("{result}");
    std::process::exit(i32::from(!correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_metric_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let declared = |name: &str, unit: &str| {
            BENCHMARK_JSON.contains(&format!(r#"{{"name": "{name}", "unit": "{unit}""#))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for workload in WORKLOADS {
            assert!(
                BENCHMARK_JSON.contains(&format!(r#"{{"name": "{workload}", "why": "#)),
                "workload {workload} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            BENCHMARK_JSON.matches(r#"{"name": "#).count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
