//! `perfbench` — closed-loop, layer-by-layer benchmark of the qcp2p
//! simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--ops <n>] [--inject-violation <op>]
//!           [--spans <path>] [--rev <git revision>]
//! ```
//!
//! One process runs one workload. It builds the workload's world several
//! times (the median is `setup_s`), runs a few untimed warm-up ops, then
//! issues ops back to back for `--seconds` of op time. Every op is checked
//! for correctness after it is timed; an op fails only when a check fails.
//! The last line of standard output is the result as one JSON object.
//!
//! With `--trace 1` the run instead reports per-layer metrics: every
//! other op runs inside named spans (see [`trace`]) with recorders
//! attached, and the untraced ops in between give the tracer's own
//! overhead.
//!
//! `--ops` replaces the time budget with a fixed op count and
//! `--inject-violation` corrupts one op's output before it is checked;
//! both exist for the benchmark's self-tests.

mod analysis;
mod fig8;
mod metrics;
mod query;
mod trace;

use metrics::{Digest, Metrics, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, percentile, Phase, Tracer};

/// Set-ups per run: one untimed (it pays the process's first page faults),
/// then timed ones, at least `MIN_SETUPS` and more until they have taken
/// `SETUP_BUDGET_S` in total (at most `MAX_SETUPS`). `setup_s` is the
/// median of the timed ones.
const MIN_SETUPS: u32 = 3;
const MAX_SETUPS: u32 = 1000;
const SETUP_BUDGET_S: f64 = 2.0;
/// Untimed ops before the timed window.
const WARMUP_OPS: u64 = 3;

/// World size: `Full` is the benchmark; `Tiny` keeps self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run context shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub size: Size,
    pub seed: u64,
    /// Compute threads the parallel workloads use (pool workers + caller).
    pub width: usize,
}

/// One benchmark workload: a world built once, then uniform ops.
pub trait Workload: Sized {
    type Out;
    /// Builds everything the ops need.
    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self;
    /// One op: a fixed batch of work, its inputs derived from `i`.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Self::Out;
    /// Correctness checks on one op's output (untimed). Returns the
    /// violations; also tallies per-layer counters into `tr`.
    fn check(&mut self, i: u64, out: &Self::Out, tr: &mut Tracer) -> Vec<String>;
    /// Breaks one invariant in `out` (self-tests).
    fn corrupt(out: &mut Self::Out);
    /// Folds the op's output into the run digest.
    fn digest(out: &Self::Out, d: &mut Digest);
    /// Checks that need the whole run (recorder reconciliation).
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Adds the ratios of a traced run to `m`, which already holds the
    /// span times (`<layer>.<stage>_s`) and the per-op counters.
    fn layer_metrics(&self, tr: &Tracer, m: &mut Metrics);
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    ops: Option<u64>,
    inject: Option<u64>,
    spans: Option<String>,
    rev: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        ops: None,
        inject: None,
        spans: None,
        rev: "unknown".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |s: String| s.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = num(val()?)?,
            "--seconds" => o.seconds = num(val()?)? as f64,
            "--trace" => o.trace = num(val()?)? != 0,
            "--size" => {
                o.size = match val()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--ops" => o.ops = Some(num(val()?)?),
            "--inject-violation" => o.inject = Some(num(val()?)?),
            "--spans" => o.spans = Some(val()?),
            "--rev" => o.rev = val()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads), in seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Runs `f`, turning a panic into a violation message.
pub fn guarded(what: &str, f: impl FnOnce()) -> Option<String> {
    catch_unwind(AssertUnwindSafe(f))
        .err()
        .map(|e| format!("{what}: {}", panic_text(e.as_ref())))
}

/// Result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run<W: Workload>(o: &Opts, width: usize) -> Outcome {
    let ctx = Ctx {
        size: o.size,
        seed: o.seed,
        width,
    };
    let mut tr = Tracer::new(o.trace);

    // Set-up, several times; the last world is the one measured.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut world: Option<W> = None;
    for k in 0..=MAX_SETUPS {
        if k > MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        tr.set_phase(Phase::Setup(k));
        drop(world.take());
        let t = Instant::now();
        world = Some(W::setup(&ctx, &mut tr));
        if k > 0 {
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    let Some(mut w) = world else {
        unreachable!("MIN_SETUPS > 0")
    };

    let mut digest = Digest::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // (op seconds, traced) for every timed op.
    let mut timed: Vec<(f64, bool)> = Vec::new();
    let mut op_time = 0.0f64;
    let mut traced_cpu = 0.0f64;
    let mut i = 0u64;
    loop {
        let warm = i < WARMUP_OPS;
        let done = match o.ops {
            Some(n) => i >= WARMUP_OPS + n,
            None => !warm && op_time >= o.seconds,
        };
        if done {
            break;
        }
        // The traced run traces every other timed op; the rest run plain
        // and measure what tracing costs.
        let traced = o.trace && !warm && i % 2 == 1;
        tr.set_on(traced);
        tr.set_phase(Phase::Op(i));
        attempted += 1;
        let cpu0 = if traced { process_cpu_s() } else { 0.0 };
        let result = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let mut out = w.op(i, &mut tr);
            let dt = t.elapsed().as_secs_f64();
            if o.inject == Some(i) {
                W::corrupt(&mut out);
            }
            (dt, out)
        }));
        let cpu1 = if traced { process_cpu_s() } else { 0.0 };
        let (dt, out) = match result {
            Ok(v) => v,
            Err(e) => {
                eprintln!("op {i} panicked: {}", panic_text(e.as_ref()));
                failed += 1;
                break; // the world may be half-updated; stop here
            }
        };
        let violations = match catch_unwind(AssertUnwindSafe(|| w.check(i, &out, &mut tr))) {
            Ok(v) => v,
            Err(e) => vec![format!("check panicked: {}", panic_text(e.as_ref()))],
        };
        if !violations.is_empty() {
            failed += 1;
            for v in &violations {
                eprintln!("op {i}: {v}");
            }
        }
        W::digest(&out, &mut digest);
        if !warm {
            timed.push((dt, traced));
            op_time += dt;
            if traced {
                traced_cpu += cpu1 - cpu0;
            }
        }
        i += 1;
    }
    tr.set_on(o.trace);
    let final_violations = w.finish();
    if !final_violations.is_empty() {
        failed += 1;
        for v in &final_violations {
            eprintln!("run: {v}");
        }
    }

    let mut m = Metrics::default();
    let all: Vec<f64> = timed.iter().map(|t| t.0).collect();
    let plain: Vec<f64> = timed.iter().filter(|t| !t.1).map(|t| t.0).collect();
    let traced: Vec<f64> = timed.iter().filter(|t| t.1).map(|t| t.0).collect();
    let rate = |v: &[f64]| v.len() as f64 / v.iter().sum::<f64>().max(1e-12);
    if o.trace {
        for (name, unit) in PER_LAYER {
            m.set(name, 0.0, unit);
        }
        let traced_ops = traced.len() as u64;
        let traced_wall: f64 = traced.iter().sum();
        for (name, v) in tr.time_metrics(traced_ops) {
            m.set(&name, v, "s");
        }
        // Declared counters, per traced op (the rest feed ratios).
        for (name, v) in tr.counters() {
            if PER_LAYER.contains(&(name, "count")) {
                m.set(name, v / traced_ops.max(1) as f64, "count");
            }
        }
        w.layer_metrics(&tr, &mut m);
        // p90 needs a quiet host to repeat within a bound, so it is
        // reported here, beside the layer metrics, rather than end to end.
        let ms: Vec<f64> = all.iter().map(|s| s * 1e3).collect();
        m.set("op.p90_ms", percentile(&ms, 90.0), "ms");
        m.set("op.timed", all.len() as f64, "count");
        m.set("xpar.nproc", nproc() as f64, "count");
        m.set("xpar.width", width as f64, "count");
        m.set(
            "xpar.cpu_util",
            traced_cpu / (traced_wall * width as f64).max(1e-12),
            "ratio",
        );
        m.set(
            "xpar.idle_s",
            (traced_wall * width as f64 - traced_cpu).max(0.0) / traced_ops.max(1) as f64,
            "s",
        );
        m.set(
            "obs.trace_overhead",
            1.0 - rate(&traced) / rate(&plain),
            "ratio",
        );
        let covered = tr.op_covered_s();
        let coverage = covered / traced_wall.max(1e-12);
        m.set("obs.coverage", coverage, "ratio");
        m.set_share("harness", 1.0 - coverage);
        for (layer, s) in tr.op_layer_self_s() {
            m.set_share(layer, s / traced_wall.max(1e-12));
        }
        if let Some(path) = &o.spans {
            if let Err(e) = std::fs::write(path, tr.spans_tsv()) {
                eprintln!("could not write spans to {path}: {e}");
            }
        }
    } else {
        m.set("setup_s", median(&setup_s), "s");
        m.set("ops_per_s", rate(&all), "op/s");
        let ms: Vec<f64> = all.iter().map(|s| s * 1e3).collect();
        m.set("op_p50_ms", percentile(&ms, 50.0), "ms");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    println!(
        "run workload={} seed={} nproc={} width={} rev={} size={:?} ops={} timed_ops={} digest={}",
        o.workload,
        o.seed,
        nproc(),
        width,
        o.rev,
        o.size,
        attempted,
        timed.len(),
        digest.hex()
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Parallel workloads use `nproc - 1` pool workers; the calling thread
    // drains tasks too, so exactly `nproc` threads compute.
    let workers = nproc().saturating_sub(1).max(1);
    let width = workers + 1;
    let out = match o.workload.as_str() {
        "fig8-sweep" => run::<fig8::Fig8Sweep>(&o, width),
        "churn-repair" => run::<fig8::ChurnRepair>(&o, width),
        "query-mix" => run::<query::QueryMix>(&o, 1),
        "trace-analysis" => run::<analysis::TraceAnalysis>(&o, 1),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let expected: Vec<&str> = if o.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    if let Some(extra) = out.metrics.names().find(|n| !expected.contains(n)) {
        eprintln!("perfbench: metric {extra} is not declared");
        return ExitCode::from(3);
    }
    println!(
        "{}",
        out.metrics
            .result_json(out.failed == 0, out.attempted, out.failed)
    );
    ExitCode::SUCCESS
}
