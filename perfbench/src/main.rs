//! The newsdiff benchmark: model freshness and request latency, end to
//! end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `predict_closed`: two keep-alive clients in a closed loop, Zipf
//!   traffic over eight 308-wide fixture MLPs, cache-busting 8-row
//!   requests, cache off, 2 shards and 2 batch workers.
//! - `predict_open`: Poisson arrivals at a fixed rate from two senders,
//!   cache-friendly single-row requests, cache on.
//! - `freshness`: a server with a stream retrainer attached, advanced
//!   slice by slice from a cold stream cache while an open-loop sender
//!   probes `/predict` at a low fixed rate.
//!
//! Every workload reports the same end-to-end metrics; what one
//! operation is differs per workload (`perfbench/metric_map.json`):
//!
//! | metric | predict_* | freshness |
//! |---|---|---|
//! | `setup_s` | boot + checkpoints + prime | boot + seed checkpoint + prime |
//! | `goodput_per_s` | correct answers/s | slices served/s in catch-up |
//! | `p50_ms` | request p50 | advance → first new-version answer |
//!
//! The batch staged `Pipeline` is measured per layer only (see `batch`).
//!
//! `--trace 1` runs the workload untraced and then traced, records
//! spans around calls into each layer's public functions, and reports
//! the per-layer metrics. The Chrome trace and a self-time table are
//! written under `.perfbench/traces/`; every run's record goes to
//! `.perfbench/results/`. The last stdout line is the JSON result.

mod batch;
mod fresh;
mod request;
mod stats;
mod trace;

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Thread count pinned for every nd-par kernel.
const PINNED_THREADS: &str = "2";

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Tiny inputs and short phases, for the benchmark's own tests.
    pub quick: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operation counts plus the correctness verdict of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (requests, advances, pipeline runs).
    pub attempted: u64,
    /// Operations that failed: a 503, a transport error, a non-200
    /// advance, or a wrong answer.
    pub failed: u64,
    /// Wrong answers and failed output checks, with a reason each.
    pub wrong: Vec<String>,
    /// Validity problems with the measurement itself.
    pub invalid: Vec<String>,
}

impl Tally {
    /// Records a failed operation that produced a wrong answer.
    pub fn wrong(&mut self, why: String) {
        self.failed += 1;
        if self.wrong.len() < 20 {
            self.wrong.push(why);
        }
    }

    /// Records an output check that failed outside any one operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok && self.wrong.len() < 20 {
            self.wrong.push(why());
        }
    }

    /// Adds another tally's counts and findings.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.invalid.extend(other.invalid);
    }
}

/// What one workload scenario measured.
pub struct Scenario {
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub e2e: Vec<Metric>,
    /// The workload's own named metrics (informational).
    pub named: Vec<Metric>,
    /// Per-layer metrics the scenario itself observes.
    pub layers: Vec<Metric>,
    /// Raw samples behind the end-to-end medians, for the run record.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Counts and checks.
    pub tally: Tally,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

const WORKLOADS: [&str; 3] = ["predict_closed", "predict_open", "freshness"];

fn scenario(opts: &Opts, work: &Path, tracer: Option<&Tracer>) -> Scenario {
    match opts.workload.as_str() {
        "predict_closed" => request::closed(opts, work, tracer),
        "predict_open" => request::open(opts, work, tracer),
        _ => fresh::scenario(opts, work, tracer).0,
    }
}

/// End-to-end metrics every timed run reports, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("goodput_per_s", "1/s"), ("p50_ms", "ms")];

/// Per-layer metrics every traced run reports, with their units, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("serve.http.read_request_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.http.write_response_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.batcher.submit_rtt_us", "us"),
    ("serve.batcher.rows_per_forward", "rows"),
    ("serve.batcher.overload_rejections", "count"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.registry.refresh_ms", "ms"),
    ("serve.loadgen.late_ratio", "ratio"),
    ("serve.uncovered_us", "us"),
    ("neural.predict_batch_us", "us"),
    ("neural.predict_row_us", "us"),
    ("neural.train_ms", "ms"),
    ("core.fold.collect_ms", "ms"),
    ("core.fold.preprocess_ms", "ms"),
    ("core.fold.vectorize_ms", "ms"),
    ("core.fold.topics_ms", "ms"),
    ("core.fold.events_ms", "ms"),
    ("core.fold.embed_ms", "ms"),
    ("core.replay.head_ms", "ms"),
    ("core.project.trending_ms", "ms"),
    ("core.project.correlate_ms", "ms"),
    ("core.project.assign_ms", "ms"),
    ("core.project.dataset_ms", "ms"),
    ("core.checkpoint.save_ms", "ms"),
    ("store.artifact.bytes_written", "bytes"),
    ("fresh.uncovered_ms", "ms"),
    ("core.pipeline.cold_ms", "ms"),
    ("core.pipeline.warm_ms", "ms"),
    ("core.stage.collect_ms", "ms"),
    ("core.stage.preprocess_ms", "ms"),
    ("core.stage.topics_ms", "ms"),
    ("core.stage.events_ms", "ms"),
    ("core.stage.embeddings_ms", "ms"),
    ("core.stage.trending_ms", "ms"),
    ("core.stage.correlation_ms", "ms"),
    ("core.stage.features_ms", "ms"),
    ("core.stage.patterns_ms", "ms"),
    ("core.stage.collect_replay_ms", "ms"),
    ("core.stage.preprocess_replay_ms", "ms"),
    ("core.stage.topics_replay_ms", "ms"),
    ("core.stage.events_replay_ms", "ms"),
    ("core.stage.embeddings_replay_ms", "ms"),
    ("core.stage.trending_replay_ms", "ms"),
    ("core.stage.correlation_replay_ms", "ms"),
    ("core.stage.features_replay_ms", "ms"),
    ("core.stage.patterns_replay_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// `metrics` in the order and units of `declared`; a declared metric
/// the run did not measure fails the run's checks.
fn in_order(
    metrics: &[Metric],
    declared: &[(&str, &'static str)],
    tally: &mut Tally,
) -> Vec<Metric> {
    declared
        .iter()
        .map(|(name, unit)| {
            let found = metrics.iter().find(|m| m.name == *name);
            tally.check(found.is_some(), || format!("the run measured no {name}"));
            metric(*name, found.map_or(0.0, |m| m.value), unit)
        })
        .collect()
}

/// The traced run: the scenario untraced, then traced, then the layer
/// probes, all recorded into one tracer. Returns the traced scenario,
/// every per-layer metric in `PER_LAYER` order, and table notes.
fn traced(opts: &Opts, work: &Path, tracer: &Tracer) -> (Scenario, Vec<Metric>, Vec<String>) {
    let plain = scenario(opts, &work.join("plain"), None);
    let traced_work = work.join("traced");
    let (mut run, fresh_state) = match opts.workload.as_str() {
        "freshness" => fresh::scenario(opts, &traced_work, Some(tracer)),
        _ => (scenario(opts, &traced_work, Some(tracer)), None),
    };
    run.tally.merge(plain.tally.clone());

    let mut layers = Vec::new();
    let mut notes = Vec::new();
    let req = request::probes(opts, tracer, &run);
    let fp = fresh::probes(
        opts,
        &work.join("fresh-probe"),
        tracer,
        fresh_state.as_ref(),
    );
    let bp = batch::probes(opts, &work.join("batch-probe"), tracer);
    for probe in [req, fp, bp] {
        layers.extend(probe.metrics);
        run.tally.merge(probe.tally);
        notes.extend(probe.notes);
    }

    // Tracing overhead: traced end-to-end numbers minus untraced ones.
    for (t, p) in run.e2e.iter().zip(&plain.e2e) {
        notes.push(format!(
            "tracing overhead {}: traced {:.6} - untraced {:.6} = {:+.6} {}",
            t.name,
            t.value,
            p.value,
            t.value - p.value,
            t.unit
        ));
    }
    let (traced_p50, plain_p50) = (value_of(&run.e2e, "p50_ms"), value_of(&plain.e2e, "p50_ms"));
    layers.push(metric(
        "trace.overhead_p50_ms",
        traced_p50 - plain_p50,
        "ms",
    ));
    layers.push(metric(
        "trace.overhead_ratio",
        stats::ratio(traced_p50 - plain_p50, plain_p50),
        "ratio",
    ));

    let ordered = in_order(&layers, &PER_LAYER, &mut run.tally);
    (run, ordered, notes)
}

/// FNV-1a over every source file the benchmark builds against, so a
/// record identifies the code even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The commit of the checkout, when it is a git work tree.
fn commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().into()),
        None => Some(head.to_string()),
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let map: serde_json::Map = metrics
        .iter()
        .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
        .collect();
    Value::Object(map)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Fixed inputs: the kernel thread count is pinned, whatever the
    // caller's environment says.
    std::env::set_var("NEWSDIFF_THREADS", PINNED_THREADS);
    let root = std::env::current_dir().expect("current directory is readable");
    let state = root.join(".perfbench");
    let work = state
        .join("work")
        .join(format!("{}-{}", opts.workload, std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).expect("create work directory");
    let started = Instant::now();

    let tracer = Tracer::new();
    let (run, reported, notes) = if opts.trace {
        traced(&opts, &work, &tracer)
    } else {
        let mut run = scenario(&opts, &work, None);
        let e2e = in_order(&run.e2e, &END_TO_END, &mut run.tally);
        (run, e2e, Vec::new())
    };
    std::fs::remove_dir_all(&work).ok();

    let tally = &run.tally;
    let correct = tally.wrong.is_empty() && tally.invalid.is_empty();
    for w in &tally.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }
    for w in &tally.invalid {
        eprintln!("perfbench: INVALID: {w}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    if opts.trace {
        let dir = state.join("traces");
        std::fs::create_dir_all(&dir).expect("create trace directory");
        let trace_path = dir.join(format!("{tag}.trace.json"));
        std::fs::write(&trace_path, tracer.chrome_json().to_string()).expect("write trace");
        let mut table = format!(
            "# self time, {} (seed {}), spans recorded around public calls\n{:<44} {:>8} {:>12} {:>12}\n",
            opts.workload, opts.seed, "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in tracer.self_times() {
            table.push_str(&format!(
                "{name:<44} {n:>8} {:>12.3} {:>12.3}\n",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        for note in &notes {
            table.push_str(&format!("# {note}\n"));
        }
        std::fs::write(dir.join(format!("{tag}.selftime.txt")), &table).expect("write table");
        eprint!("{table}");
    }
    let record = json!({
        "workload": opts.workload.as_str(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "quick": opts.quick,
        "newsdiff_threads": PINNED_THREADS,
        "nproc": nproc,
        "commit": commit(&root).map_or(Value::Null, Value::from),
        "source_fnv": source_digest(&root),
        "wall_s": started.elapsed().as_secs_f64(),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong.clone(),
        "invalid": tally.invalid.clone(),
        "metrics": metrics_json(&reported),
        "named": metrics_json(&run.named),
        "samples": Value::Object(
            run.samples.iter().map(|(k, v)| (k.to_string(), json!(v.clone()))).collect(),
        ),
    });
    let results = state.join("results");
    std::fs::create_dir_all(&results).expect("create results directory");
    std::fs::write(results.join(format!("{tag}.json")), record.to_string()).expect("write record");

    for m in run.named.iter().chain(&reported) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let line = json!({
        "correct": correct,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": metrics_json(&reported),
    });
    println!("{line}");
}
