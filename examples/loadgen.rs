//! Load generator for the sharded serving layer: boots a disposable
//! multi-model server, then drives it with the SLO harness's traffic
//! profiles and prints a latency/throughput summary per profile.
//!
//! ```bash
//! cargo run --release --example loadgen                    # all profiles
//! cargo run --release --example loadgen -- --mode closed   # one profile
//! cargo run --release --example loadgen -- --mode swap     # hot swap under load
//! cargo run --release --example loadgen -- --smoke         # fast CI mode
//! cargo run --release --example loadgen -- --json          # JSON summaries
//! ```
//!
//! Profiles (`--mode`): `closed` (fixed concurrency, hot-model skew,
//! cache-busting rows), `open` (Poisson arrivals at `--rps`), `burst`
//! (open loop with periodic rate spikes), `loris` (slow-loris
//! adversaries while a healthy probe keeps measuring), `swap` (closed
//! loop while a new version of `m0` is checkpointed and hot-swapped in
//! with `POST /admin/reload`), or `all`.
//!
//! Other flags: `--shards N`, `--models N`, `--dim N`, `--clients N`,
//! `--requests N` (per client), `--rps N`, `--duration-ms N`,
//! `--skew S`, `--seed N`. `--smoke` shrinks everything and asserts
//! the run was healthy: no transport errors or non-503 failures, loris
//! connections cut, the healthy probe's p99 under the loris phase
//! below the head deadline, and the swap listed by the reload and
//! served by `GET /models`.

use newsdiff::core::checkpoint::save_checkpoint;
use newsdiff::core::predict::build_mlp;
use newsdiff::serve::loadgen::{
    boot_fixture, closed_loop, fixture_models, open_loop, slow_loris, BurstProfile,
    LoadSummary, TrafficMix,
};
use newsdiff::serve::shard::ShardConfig;
use newsdiff::serve::{BatchConfig, Client, ServeConfig};
use serde_json::{json, Value};
use std::error::Error;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Options {
    mode: String,
    smoke: bool,
    json: bool,
    shards: usize,
    models: usize,
    dim: usize,
    clients: usize,
    requests: usize,
    rps: f64,
    duration: Duration,
    skew: f64,
    seed: u64,
    rows: usize,
    workers: usize,
    cache_rows: usize,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let num = |name: &str, default: f64| {
        value_of(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let smoke = flag("--smoke");
    Options {
        mode: value_of("--mode").unwrap_or_else(|| "all".to_string()),
        smoke,
        json: flag("--json"),
        shards: num("--shards", 4.0) as usize,
        models: num("--models", 8.0) as usize,
        dim: num("--dim", if smoke { 16.0 } else { 64.0 }) as usize,
        clients: num("--clients", if smoke { 4.0 } else { 16.0 }) as usize,
        requests: num("--requests", if smoke { 40.0 } else { 400.0 }) as usize,
        rps: num("--rps", if smoke { 150.0 } else { 500.0 }),
        duration: Duration::from_millis(num(
            "--duration-ms",
            if smoke { 800.0 } else { 4000.0 },
        ) as u64),
        skew: num("--skew", 1.2),
        seed: num("--seed", 42.0) as u64,
        rows: num("--rows", 1.0) as usize,
        workers: num("--workers", 2.0) as usize,
        cache_rows: num("--cache-rows", 4096.0) as usize,
    }
}

fn print_summary(title: &str, s: &LoadSummary, json: bool) {
    if json {
        println!("{}", serde_json::json!({"profile": title, "summary": s.to_json()}));
        return;
    }
    println!("-- {title} --");
    println!(
        "  sent {:>7}  ok {:>7}  shed {:>5}  errors {:>3}  late {:>5}",
        s.sent, s.ok, s.shed, s.errors, s.late
    );
    println!(
        "  {:>8.0} req/s   p50 {:>7}us   p99 {:>8}us   p99.9 {:>8}us   max {:>8}us",
        s.rps, s.p50_us, s.p99_us, s.p999_us, s.max_us
    );
}

/// Checkpoints a new version of `m0` into the fixture's directory, hot-swaps
/// it in with `POST /admin/reload`, and checks that the reply lists the
/// swap and that `GET /models` then serves the new version.
fn swap_m0(dir: &Path, addr: SocketAddr, dim: usize) -> Result<u64, Box<dyn Error>> {
    let version = save_checkpoint(dir, "m0", &build_mlp(dim, 2000))?;
    // Whether `list` holds an entry naming m0 under `key` at `version` under `at`.
    let lists = |list: &Value, key: &str, at: &str| {
        list.as_array().is_some_and(|items| {
            items
                .iter()
                .any(|e| e[key].as_str() == Some("m0") && e[at].as_u64() == Some(version))
        })
    };
    let mut admin = Client::connect(addr)?;
    let reload = admin.post_json("/admin/reload", &json!({}))?.json()?;
    if !lists(&reload["swapped"], "model", "to") {
        return Err(format!("reload did not list m0 -> v{version}: {reload}").into());
    }
    let models = admin.get("/models")?.json()?;
    if !lists(&models["models"], "name", "version") {
        return Err(format!("GET /models does not serve m0 v{version}: {models}").into());
    }
    Ok(version)
}

fn main() {
    let options = parse_args();
    let dir: PathBuf = std::env::temp_dir()
        .join(format!("nd-loadgen-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Tight head deadline so the loris profile resolves quickly.
    let head_deadline = Duration::from_millis(if options.smoke { 300 } else { 1000 });
    let config = ServeConfig {
        batch: BatchConfig { workers: options.workers, ..BatchConfig::default() },
        cache_rows: options.cache_rows,
        shard: ShardConfig { shards: options.shards, ..ShardConfig::default() },
        head_deadline,
        ..ServeConfig::default()
    };
    let server = match boot_fixture(&dir, options.models, options.dim, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to boot fixture server: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    if !options.json {
        println!(
            "serving {} models (dim {}) on {} across {} shards",
            options.models, options.dim, addr, options.shards
        );
    }

    let mut mix = TrafficMix::hot_skew(fixture_models(options.models), options.dim);
    mix.skew = options.skew;
    mix.batch_rows = options.rows;
    let run_all = options.mode == "all";
    let mut healthy = true;

    if run_all || options.mode == "closed" {
        let s = closed_loop(addr, options.clients, options.requests, &mix, options.seed);
        healthy &= s.errors == 0 && s.ok > 0;
        print_summary("closed-loop hot-skew cache-bust", &s, options.json);
    }
    if run_all || options.mode == "open" {
        let s = open_loop(
            addr,
            options.rps,
            options.duration,
            options.clients,
            &mix,
            options.seed,
            None,
        );
        healthy &= s.errors == 0 && s.ok > 0;
        print_summary("open-loop poisson", &s, options.json);
    }
    if run_all || options.mode == "burst" {
        let burst = BurstProfile {
            period: Duration::from_millis(500),
            burst_len: Duration::from_millis(100),
            multiplier: 4.0,
        };
        let s = open_loop(
            addr,
            options.rps,
            options.duration,
            options.clients,
            &mix,
            options.seed,
            Some(&burst),
        );
        // Bursts may legitimately shed; transport errors still count
        // against health.
        healthy &= s.errors == 0 && s.ok > 0;
        print_summary("open-loop poisson bursts", &s, options.json);
    }
    if run_all || options.mode == "loris" {
        let loris_addr: SocketAddr = addr;
        let hold = if options.smoke {
            Duration::from_millis(1000)
        } else {
            Duration::from_millis(2500)
        };
        let adversary = std::thread::spawn(move || slow_loris(loris_addr, 8, hold));
        // Healthy probe traffic while the adversaries squat.
        let s = closed_loop(addr, 2, options.requests.min(100), &mix, options.seed ^ 1);
        let report = match adversary.join() {
            Ok(r) => r,
            Err(_) => {
                eprintln!("loris thread panicked");
                std::process::exit(1);
            }
        };
        // A probe whose p99 reaches the head deadline waited behind a
        // loris connection until the deadline cut it.
        let probe_p99 = Duration::from_micros(s.p99_us);
        healthy &= s.errors == 0
            && s.ok > 0
            && report.dropped == report.opened
            && probe_p99 < head_deadline;
        if options.json {
            println!(
                "{}",
                serde_json::json!({
                    "profile": "slow-loris",
                    "opened": report.opened,
                    "dropped": report.dropped,
                    "healthy_probe": s.to_json(),
                })
            );
        } else {
            println!("-- slow-loris --");
            println!(
                "  adversaries opened {}  dropped by server {}",
                report.opened, report.dropped
            );
            print_summary("  healthy probe during loris", &s, false);
        }
    }

    if run_all || options.mode == "swap" {
        // Closed-loop rounds run back to back until the swap has
        // landed, so the reload always meets live traffic.
        let swapper = {
            let (dir, dim) = (dir.clone(), options.dim);
            std::thread::spawn(move || swap_m0(&dir, addr, dim).map_err(|e| e.to_string()))
        };
        let mut rounds = Vec::new();
        while rounds.is_empty() || !swapper.is_finished() {
            let seed = options.seed ^ (2 + rounds.len() as u64);
            rounds.push(closed_loop(
                addr,
                options.clients,
                options.requests,
                &mix,
                seed,
            ));
        }
        let swap = swapper
            .join()
            .unwrap_or_else(|_| Err("swap thread panicked".to_string()));
        healthy &= swap.is_ok() && rounds.iter().all(|s| s.errors == 0 && s.ok > 0);
        let title = match &swap {
            Ok(version) => format!("closed loop across a hot swap of m0 to v{version}"),
            Err(e) => format!("closed loop across a FAILED hot swap of m0 ({e})"),
        };
        for (i, s) in rounds.iter().enumerate() {
            print_summary(&format!("{title}, round {}", i + 1), s, options.json);
        }
    }

    // Final shed/served accounting straight from the server.
    let metrics = server.metrics();
    if !options.json {
        println!(
            "server totals: {} predictions, {} batches, {} overload 503s",
            metrics.predictions.get(),
            metrics.batches.get(),
            metrics.overload_rejections.get(),
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    if options.smoke {
        if !healthy {
            eprintln!(
                "SMOKE FAILED: transport errors, surviving loris connections, a loris-phase \
                 probe p99 at the head deadline, or a failed hot swap"
            );
            std::process::exit(1);
        }
        println!("SMOKE OK");
    }
}
