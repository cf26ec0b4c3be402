//! Throughput-at-p99 SLO harness for the sharded serving layer.
//!
//! Two phases, both driving the multi-model fixture from
//! `nd_serve::loadgen` at 1 shard and at 4 shards:
//!
//! 1. **Hot-skew saturation** — closed-loop, 16 connections, Zipf
//!    hot-model skew, cache-busting 8-row requests at paper-scale
//!    width (308). Measures raw sustainable throughput and p99 when
//!    every request costs a real forward pass. On a one-core CI box
//!    the two layouts are expected to be close here (per-request
//!    JSON/HTTP work dominates and cores are shared); the records are
//!    advisory.
//! 2. **Hot-flood isolation** — the headline. A closed-loop flood
//!    hammers the hottest model with oversized batches while a small
//!    closed-loop probe serves a *cold* model. With one global
//!    admission queue the probe waits behind (or is shed with) the
//!    flood's backlog; with per-shard queues the flood saturates only
//!    its own shard and the probe's shard stays empty. The probe's
//!    per-request wall time is the gated pair
//!    (`slo_cold_probe_ns_per_req/shards_threads/{1,4}`): the 4-shard
//!    configuration must beat single-shard, and bench-compare fails
//!    if it ever regresses past 1.10x.
//!
//! ```bash
//! ND_BENCH_JSON=BENCH_slo.json cargo bench -p nd-bench --bench slo
//! cargo run -q --release -p nd-bench --bin bench-compare -- BENCH_slo.json
//! ```

use nd_serve::loadgen::{boot_fixture, closed_loop, fixture_models};
use nd_serve::{BatchConfig, ServeConfig, ShardConfig, TrafficMix};
use std::time::Duration;

const MODELS: usize = 8;
/// Paper-scale feature width (Doc2Vec 300 + engineered metadata).
const DIM: usize = 308;
const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 12;
/// Rows per request in the hot-skew phase: a realistic batch-predict.
const ROWS_PER_REQUEST: usize = 8;
const REPEATS: usize = 3;
/// The SLO: p99 per-request latency budget, microseconds.
const P99_BUDGET_US: u64 = 100_000;

fn config_for(shards: usize, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        // Equal resources per layout: 4 total batch workers, pooled
        // behind one queue or one per shard; cache disabled so every
        // request costs a forward pass.
        batch: BatchConfig { workers: 4, queue_capacity, ..BatchConfig::default() },
        cache_rows: 0,
        shard: ShardConfig { shards, ..ShardConfig::default() },
        ..ServeConfig::default()
    }
}

struct HotSkewResult {
    ns_per_req: Vec<f64>,
    p99_us: Vec<u64>,
    rps: Vec<f64>,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn run_hot_skew(shards: usize) -> HotSkewResult {
    let dir = std::env::temp_dir()
        .join(format!("nd-slo-hot-{}-{}", std::process::id(), shards));
    std::fs::remove_dir_all(&dir).ok();
    let server =
        boot_fixture(&dir, MODELS, DIM, config_for(shards, 1024)).expect("boot fixture");
    let addr = server.addr();
    let mut mix = TrafficMix::hot_skew(fixture_models(MODELS), DIM);
    mix.batch_rows = ROWS_PER_REQUEST;

    // Warm-up: fault in code paths, spin up handler threads.
    let warm = closed_loop(addr, 4, 5, &mix, 0x5107 + shards as u64);
    assert_eq!(warm.errors, 0, "warm-up must be clean");

    let mut result =
        HotSkewResult { ns_per_req: Vec::new(), p99_us: Vec::new(), rps: Vec::new() };
    for repeat in 0..REPEATS {
        let summary = closed_loop(
            addr,
            CLIENTS,
            REQUESTS_PER_CLIENT,
            &mix,
            0xbeef + (shards as u64) * 100 + repeat as u64,
        );
        assert_eq!(summary.errors, 0, "load run must be clean");
        assert_eq!(summary.sent, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
        result.ns_per_req.push(summary.wall_ms as f64 * 1e6 / summary.sent as f64);
        result.p99_us.push(summary.p99_us);
        result.rps.push(summary.rps);
        println!(
            "hot-skew shards={shards} repeat={repeat}: {:.0} req/s  p50 {}us  p99 {}us  shed {}",
            summary.rps, summary.p50_us, summary.p99_us, summary.shed
        );
    }
    let metrics = server.metrics();
    let batches = metrics.batches.get().max(1);
    println!(
        "hot-skew shards={shards}: {:.1} rows per forward pass",
        metrics.predictions.get() as f64 / batches as f64
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    result
}

struct IsolationResult {
    probe_ns_per_req: Vec<f64>,
    probe_p99_us: Vec<u64>,
    probe_goodput: Vec<f64>,
    probe_shed: u64,
}

fn run_isolation(shards: usize) -> IsolationResult {
    let dir = std::env::temp_dir()
        .join(format!("nd-slo-iso-{}-{}", std::process::id(), shards));
    std::fs::remove_dir_all(&dir).ok();
    // Deep admission queue: the flood builds a real backlog in it.
    let server =
        boot_fixture(&dir, MODELS, DIM, config_for(shards, 512)).expect("boot fixture");
    let addr = server.addr();

    // The probe serves a model on a different shard than the flood
    // target (any other model when there is only one shard).
    let hot = "m0".to_string();
    let cold = fixture_models(MODELS)
        .into_iter()
        .skip(1)
        .find(|m| server.shard_for(m) != server.shard_for(&hot))
        .unwrap_or_else(|| "m1".to_string());

    let probe_mix = TrafficMix {
        models: vec![cold.clone()],
        skew: 0.0,
        dim: DIM,
        cache_bust: true,
        batch_rows: 1,
        row_pool: 1,
    };

    let mut result = IsolationResult {
        probe_ns_per_req: Vec::new(),
        probe_p99_us: Vec::new(),
        probe_goodput: Vec::new(),
        probe_shed: 0,
    };
    for repeat in 0..REPEATS {
        // 24 flood clients, each request carrying 32 rows: up to 768
        // rows in flight against a 512-row queue keeps the hot
        // admission queue deep for the whole probe window.
        let flood = std::thread::spawn(move || {
            closed_loop(addr, 24, 40, &flood_mix_clone(), 0xf100d + repeat as u64)
        });
        // Let the flood establish its backlog before probing.
        std::thread::sleep(Duration::from_millis(400));
        let probe =
            closed_loop(addr, 2, 15, &probe_mix, 0xc01d + (shards * 10 + repeat) as u64);
        let flood_summary = flood.join().expect("flood thread");
        assert_eq!(probe.errors, 0, "probe must see only 200s and 503s");
        assert_eq!(flood_summary.errors, 0, "flood must see only 200s and 503s");
        result.probe_ns_per_req.push(probe.wall_ms as f64 * 1e6 / probe.sent.max(1) as f64);
        result.probe_p99_us.push(probe.p99_us);
        result.probe_goodput.push(probe.ok as f64 / (probe.wall_ms as f64 / 1e3).max(1e-9));
        result.probe_shed += probe.shed;
        println!(
            "isolation shards={shards} repeat={repeat}: cold-probe {:.0} ok/s  \
             p99 {}us  shed {}/{}  (flood: {:.0} req/s, shed {})",
            result.probe_goodput.last().copied().unwrap_or(0.0),
            probe.p99_us,
            probe.shed,
            probe.sent,
            flood_summary.rps,
            flood_summary.shed,
        );
    }
    println!("isolation shards={shards}: cold model '{cold}' probed against hot 'm0'");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    result
}

// Closures passed to threads need owned mixes; cheapest is rebuilding
// the constant flood mix (it is deterministic).
fn flood_mix_clone() -> TrafficMix {
    TrafficMix {
        models: vec!["m0".to_string()],
        skew: 0.0,
        dim: DIM,
        cache_bust: true,
        batch_rows: 32,
        row_pool: 1,
    }
}

/// Appends records in the vendored-criterion `ND_BENCH_JSON` format.
fn append_records(path: &str, records: &[(String, Vec<f64>)]) {
    use std::io::Write;
    let mut out = String::from("[");
    for (i, (name, xs)) in records.iter().enumerate() {
        let mut v = xs.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"min_ns\":{:.1},\"samples\":{}}}",
            name,
            mean,
            v[v.len() / 2],
            v[0],
            v.len()
        ));
    }
    out.push_str("]\n");
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = f.write_all(out.as_bytes());
    }
}

fn main() {
    println!(
        "SLO harness: {MODELS} models, dim {DIM}, {REPEATS} repeats per phase\n\
         phase 1: hot-skew saturation ({CLIENTS} clients x {REQUESTS_PER_CLIENT} x \
         {ROWS_PER_REQUEST} rows)\n\
         phase 2: hot-flood isolation (24x32-row flood vs 2-client cold probe)"
    );
    let hot1 = run_hot_skew(1);
    let hot4 = run_hot_skew(4);
    let iso1 = run_isolation(1);
    let iso4 = run_isolation(4);

    let hot_rps1 = median(&hot1.rps);
    let hot_rps4 = median(&hot4.rps);
    let hot_p99_1 = *hot1.p99_us.iter().min().unwrap_or(&0);
    let hot_p99_4 = *hot4.p99_us.iter().min().unwrap_or(&0);
    let good1 = median(&iso1.probe_goodput);
    let good4 = median(&iso4.probe_goodput);
    let iso_p99_1 = *iso1.probe_p99_us.iter().min().unwrap_or(&0);
    let iso_p99_4 = *iso4.probe_p99_us.iter().min().unwrap_or(&0);

    println!("----------------------------------------------------------------");
    println!("hot-skew saturation (advisory; one shared core):");
    println!(
        "  1 shard : {hot_rps1:>7.0} req/s   best p99 {hot_p99_1:>7}us   within {}ms budget: {}",
        P99_BUDGET_US / 1000,
        hot_p99_1 <= P99_BUDGET_US
    );
    println!(
        "  4 shards: {hot_rps4:>7.0} req/s   best p99 {hot_p99_4:>7}us   within {}ms budget: {}",
        P99_BUDGET_US / 1000,
        hot_p99_4 <= P99_BUDGET_US
    );
    println!("headline — cold-model goodput under hot-model flood:");
    println!(
        "  1 shard : {good1:>7.0} ok/s   best p99 {iso_p99_1:>7}us   shed {}",
        iso1.probe_shed
    );
    println!(
        "  4 shards: {good4:>7.0} ok/s   best p99 {iso_p99_4:>7}us   shed {}",
        iso4.probe_shed
    );
    println!(
        "  isolation speedup: {:.2}x goodput, {:.2}x p99 (target >= 2x goodput)",
        good4 / good1.max(1e-9),
        iso_p99_1 as f64 / (iso_p99_4 as f64).max(1e-9),
    );

    if let Ok(path) = std::env::var("ND_BENCH_JSON") {
        if !path.is_empty() {
            let p99_ns = |v: &[u64]| -> Vec<f64> { v.iter().map(|&us| us as f64 * 1e3).collect() };
            append_records(
                &path,
                &[
                    // Gated pair: per-request wall time of the cold
                    // probe while the hot flood runs. The 4-shard
                    // layout must never regress past 1.10x of
                    // single-shard here.
                    (
                        "slo_cold_probe_ns_per_req/shards_threads/1".to_string(),
                        iso1.probe_ns_per_req.clone(),
                    ),
                    (
                        "slo_cold_probe_ns_per_req/shards_threads/4".to_string(),
                        iso4.probe_ns_per_req.clone(),
                    ),
                    // Advisory records (not named …threads/…, so not
                    // gated): saturation throughput and tails.
                    ("slo_hotskew_c16_ns_per_req/shards/1".to_string(), hot1.ns_per_req),
                    ("slo_hotskew_c16_ns_per_req/shards/4".to_string(), hot4.ns_per_req),
                    ("slo_hotskew_p99_ns/shards/1".to_string(), p99_ns(&hot1.p99_us)),
                    ("slo_hotskew_p99_ns/shards/4".to_string(), p99_ns(&hot4.p99_us)),
                    ("slo_cold_probe_p99_ns/shards/1".to_string(), p99_ns(&iso1.probe_p99_us)),
                    ("slo_cold_probe_p99_ns/shards/4".to_string(), p99_ns(&iso4.probe_p99_us)),
                ],
            );
            println!("wrote {path}");
        }
    }
}
