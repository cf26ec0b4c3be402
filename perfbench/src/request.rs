//! Request-latency workloads (`predict_closed`, `predict_open`) and the
//! request-path layer probes.
//!
//! The generator runs in this process next to the server, with at most
//! `nproc` threads and one keep-alive connection per thread. It builds
//! its own request bodies (the same shapes as `nd_serve::TrafficMix`)
//! so that it can keep answers and check them against offline
//! `Network::predict_batch` on the fixture checkpoints.

use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{metric, Metric, Opts, Scenario, Tally};
use nd_core::predict::build_mlp;
use nd_linalg::Mat;
use nd_neural::Network;
use nd_serve::http::{read_request, write_response, ConnBufs, ReadOutcome, ReadParams};
use nd_serve::loadgen::{boot_fixture, fixture_models, Rng};
use nd_serve::{
    BatchConfig, Batcher, Client, LruCache, Metrics, ModelHandle, ServeConfig, Server, ShardConfig,
    TrafficMix,
};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixture models behind the request workloads.
const N_MODELS: usize = 8;
/// Feature width of the fixture models.
const DIM: usize = 308;
/// Rows per `predict_closed` request.
const CLOSED_ROWS: usize = 8;
/// Offered rate of `predict_open`, well below closed-loop capacity.
const OPEN_RPS: f64 = 1000.0;
/// Boot-and-prime repetitions; `setup_s` is their median.
const SETUPS: usize = 5;
/// Priming requests per closed-loop client.
const PRIME_REQUESTS: usize = 100;
/// Every n-th answer is kept and checked bit for bit after the run.
const SAMPLE_EVERY: u64 = 16;
/// Largest share of open-loop sends that may start >10 ms behind
/// schedule before the run is flagged invalid.
pub const LATE_LIMIT: f64 = 0.05;
/// Successes below which a p99 has fewer than ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1000;

/// Generator threads (and connections): two, never more than `nproc`.
pub fn generator_threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = 2.min(nproc);
    assert!(
        threads <= nproc,
        "load generator must not use more threads than nproc"
    );
    threads
}

/// The closed-loop traffic: Zipf hot skew, cache-busting 8-row requests.
pub fn closed_mix() -> TrafficMix {
    TrafficMix {
        batch_rows: CLOSED_ROWS,
        ..TrafficMix::hot_skew(fixture_models(N_MODELS), DIM)
    }
}

/// The open-loop traffic: cache-friendly single-row requests.
pub fn open_mix() -> TrafficMix {
    TrafficMix::cache_friendly(fixture_models(N_MODELS), DIM)
}

fn mix_for(opts: &Opts) -> TrafficMix {
    match opts.workload.as_str() {
        "predict_open" => open_mix(),
        "freshness" => crate::fresh::probe_mix(),
        _ => closed_mix(),
    }
}

/// The offline twins of the fixture checkpoints `boot_fixture` writes.
pub fn fixture_networks(n: usize, dim: usize) -> Vec<Network> {
    (0..n).map(|i| build_mlp(dim, 1000 + i as u64)).collect()
}

/// One generated request: model index, rows, and pool keys when rows
/// come from the recycled pool.
#[derive(Debug, Clone)]
pub struct Req {
    /// Index into the mix's model list.
    pub model: usize,
    /// Feature rows.
    pub rows: Vec<Vec<f64>>,
    /// Pool index of each row (cache-friendly traffic only).
    pub keys: Vec<usize>,
}

/// Request generator with the `TrafficMix` semantics.
pub struct Gen {
    mix: TrafficMix,
    cum: Vec<f64>,
    rng: Rng,
}

impl Gen {
    /// A generator over `mix` seeded with `seed`.
    pub fn new(mix: &TrafficMix, seed: u64) -> Gen {
        let mut cum = Vec::with_capacity(mix.models.len());
        let mut total = 0.0;
        for i in 0..mix.models.len() {
            total += 1.0 / ((i + 1) as f64).powf(mix.skew);
            cum.push(total);
        }
        Gen {
            mix: mix.clone(),
            cum,
            rng: Rng::new(seed),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let total = self.cum.last().copied().unwrap_or(0.0);
        let r = self.rng.next_f64() * total;
        let model = self
            .cum
            .partition_point(|&w| w < r)
            .min(self.mix.models.len() - 1);
        let mut keys = Vec::new();
        let rows = (0..self.mix.batch_rows.max(1))
            .map(|_| {
                if self.mix.cache_bust {
                    (0..self.mix.dim).map(|_| self.rng.next_f64()).collect()
                } else {
                    let k = self.rng.below(self.mix.row_pool.max(1));
                    keys.push(k);
                    pool_row(k, self.mix.dim)
                }
            })
            .collect();
        Req { model, rows, keys }
    }

    /// The `/predict` body of `req`.
    pub fn body(&self, req: &Req) -> Value {
        json!({"model": self.mix.models[req.model].as_str(), "rows": req.rows.clone()})
    }
}

/// Row `k` of the recycled pool (the `TrafficMix::cache_friendly` rows).
fn pool_row(k: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|j| ((k as f64 + j as f64) % 17.0) * 0.1)
        .collect()
}

/// A kept answer, checked after the timed phase.
pub struct Sample {
    /// The request.
    pub req: Req,
    /// Raw response body.
    pub body: Vec<u8>,
}

/// What a load loop saw.
#[derive(Default)]
pub struct LoopOut {
    /// Latency of every `200`, ms.
    pub lat_ms: Vec<f64>,
    /// Completion time of every `200`, s since the loop's origin.
    pub done_s: Vec<f64>,
    /// Start of the loop, shared by its threads.
    pub origin: Option<Instant>,
    /// Requests sent.
    pub sent: u64,
    /// `200` answers.
    pub ok: u64,
    /// `503`s, other statuses and transport errors.
    pub failed: u64,
    /// Open loop: sends that started >10 ms behind schedule.
    pub late: u64,
    /// Kept answers.
    pub samples: Vec<Sample>,
    /// Wall time of the loop, s.
    pub wall_s: f64,
}

impl LoopOut {
    fn new(origin: Instant) -> LoopOut {
        LoopOut {
            origin: Some(origin),
            ..LoopOut::default()
        }
    }

    fn absorb(&mut self, other: LoopOut) {
        self.lat_ms.extend(other.lat_ms);
        self.done_s.extend(other.done_s);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.late += other.late;
        self.samples.extend(other.samples);
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this long.
    After(Duration),
    /// After this many requests per client.
    Count(usize),
}

/// Sends one request and records it; reconnects after a transport error.
/// Latency runs from `due` (the scheduled arrival, open loop) or, when
/// `None`, from the send itself once the body is built (closed loop).
#[allow(clippy::too_many_arguments)]
pub fn send(
    client: &mut Client,
    addr: SocketAddr,
    gen: &Gen,
    req: Req,
    due: Option<Instant>,
    out: &mut LoopOut,
    keep: bool,
    tracer: Option<&Tracer>,
) {
    let body = gen.body(&req);
    let due = due.unwrap_or_else(Instant::now);
    let span = tracer.map(|t| t.open("serve.request", None));
    let res = client.post_json("/predict", &body);
    let ms = due.elapsed().as_secs_f64() * 1e3;
    if let Some(span) = span {
        span.end_with(vec![("rows", req.rows.len() as u64)]);
    }
    out.sent += 1;
    match res {
        Ok(r) if r.status == 200 => {
            out.ok += 1;
            out.lat_ms.push(ms);
            if let Some(origin) = out.origin {
                out.done_s.push(origin.elapsed().as_secs_f64());
            }
            if keep {
                out.samples.push(Sample { req, body: r.body });
            }
        }
        Ok(_) => out.failed += 1,
        Err(_) => {
            out.failed += 1;
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
        }
    }
}

/// Closed loop: each client sends its next request when the previous
/// answer lands.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &TrafficMix,
    seed: u64,
    stop: Stop,
    tracer: Option<&Tracer>,
) -> LoopOut {
    let clients = generator_threads();
    let started = Instant::now();
    let mut out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut gen = Gen::new(mix, seed ^ ((c as u64 + 1) << 32));
                    let mut out = LoopOut::new(started);
                    let Ok(mut client) = Client::connect(addr) else {
                        out.sent = 1;
                        out.failed = 1;
                        return out;
                    };
                    let mut n = 0u64;
                    loop {
                        let done = match stop {
                            Stop::After(d) => started.elapsed() >= d,
                            Stop::Count(k) => n as usize >= k,
                        };
                        if done {
                            break;
                        }
                        let req = gen.next_req();
                        let keep = n.is_multiple_of(SAMPLE_EVERY);
                        send(&mut client, addr, &gen, req, None, &mut out, keep, tracer);
                        n += 1;
                    }
                    out
                })
            })
            .collect();
        let mut all = LoopOut::default();
        for h in handles {
            all.absorb(h.join().expect("closed-loop client panicked"));
        }
        all
    });
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Open loop: Poisson arrivals at `rps` for `duration`, strided over
/// the senders; latency is charged from the scheduled arrival.
pub fn open_loop(
    addr: SocketAddr,
    mix: &TrafficMix,
    seed: u64,
    rps: f64,
    duration: Duration,
    senders: usize,
    tracer: Option<&Tracer>,
) -> LoopOut {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        senders <= nproc,
        "load generator must not use more threads than nproc"
    );
    let mut rng = Rng::new(seed ^ 0x0a11_7e5c);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.next_f64().max(1e-12).ln() / rps;
        if t >= duration.as_secs_f64() {
            break;
        }
        arrivals.push(Duration::from_secs_f64(t));
    }
    let start = Instant::now() + Duration::from_millis(5);
    let mut out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders.max(1))
            .map(|i| {
                let mine: Vec<Duration> = arrivals
                    .iter()
                    .skip(i)
                    .step_by(senders.max(1))
                    .copied()
                    .collect();
                s.spawn(move || {
                    let mut gen = Gen::new(mix, seed ^ ((i as u64 + 1) << 40));
                    let mut out = LoopOut::new(start);
                    let Ok(mut client) = Client::connect(addr) else {
                        out.sent = mine.len() as u64;
                        out.failed = mine.len() as u64;
                        return out;
                    };
                    for (n, at) in mine.into_iter().enumerate() {
                        let due = start + at;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now > due + Duration::from_millis(10) {
                            out.late += 1;
                        }
                        let req = gen.next_req();
                        let keep = (n as u64).is_multiple_of(SAMPLE_EVERY);
                        send(
                            &mut client,
                            addr,
                            &gen,
                            req,
                            Some(due),
                            &mut out,
                            keep,
                            tracer,
                        );
                    }
                    out
                })
            })
            .collect();
        let mut all = LoopOut::default();
        for h in handles {
            all.absorb(h.join().expect("open-loop sender panicked"));
        }
        all
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Bit patterns of one score vector.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Parses `body` as a batch `/predict` answer: `(model, version, scores per row)`.
pub fn parse_answer(body: &[u8]) -> Option<(String, u64, Vec<Vec<f64>>)> {
    let v: Value = serde_json::from_slice(body).ok()?;
    let model = v["model"].as_str()?.to_string();
    let version = v["version"].as_u64()?;
    let rows = v["predictions"]
        .as_array()?
        .iter()
        .map(|p| {
            p["scores"]
                .as_array()
                .map(|s| s.iter().filter_map(Value::as_f64).collect())
        })
        .collect::<Option<Vec<Vec<f64>>>>()?;
    Some((model, version, rows))
}

/// Checks a kept answer against offline inference on `network`.
pub fn check_answer(
    body: &[u8],
    model: &str,
    version: u64,
    rows: &[Vec<f64>],
    network: &Network,
) -> Result<Vec<Vec<f64>>, String> {
    let (got_model, got_version, scores) =
        parse_answer(body).ok_or_else(|| "unparseable /predict answer".to_string())?;
    if got_model != model || got_version != version {
        return Err(format!(
            "answer for {got_model} v{got_version}, expected {model} v{version}"
        ));
    }
    let x = Mat::from_rows(rows).map_err(|e| format!("bad rows: {e}"))?;
    let offline = network.predict_batch(&x);
    if scores.len() != rows.len() {
        return Err(format!(
            "{} predictions for {} rows",
            scores.len(),
            rows.len()
        ));
    }
    for (i, s) in scores.iter().enumerate() {
        if bits(s) != bits(offline.row(i)) {
            return Err(format!(
                "{model} v{version} row {i}: served scores differ from offline predict_batch"
            ));
        }
    }
    Ok(scores)
}

/// Boots the fixture `SETUPS` times (priming each), keeps the last
/// server, and returns it with every setup time.
fn boot_primed(
    opts: &Opts,
    work: &Path,
    config: &ServeConfig,
    prime: &dyn Fn(SocketAddr, &mut Tally),
    tally: &mut Tally,
) -> (Server, Vec<f64>) {
    let setups = if opts.quick { 2 } else { SETUPS };
    let mut times = Vec::new();
    for i in 0..setups {
        let dir = work.join(format!("fixture-{i}"));
        std::fs::remove_dir_all(&dir).ok();
        let t = Instant::now();
        let server =
            boot_fixture(&dir, N_MODELS, DIM, config.clone()).expect("boot the fixture server");
        prime(server.addr(), tally);
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == setups {
            return (server, times);
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    unreachable!("at least one setup runs")
}

fn serve_config(cache_rows: usize) -> ServeConfig {
    ServeConfig {
        cache_rows,
        batch: BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        },
        shard: ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Snapshot (or difference) of the server counters behind the
/// request-path ratios.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    hits: u64,
    misses: u64,
    predictions: u64,
    batches: u64,
    rejections: u64,
}

impl Counters {
    /// Reads the server's counters.
    pub fn read(m: &Metrics) -> Counters {
        Counters {
            hits: m.cache_hits.get(),
            misses: m.cache_misses.get(),
            predictions: m.predictions.get(),
            batches: m.batches.get(),
            rejections: m.overload_rejections.get(),
        }
    }

    /// Counts between `before` and this snapshot.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            predictions: self.predictions - before.predictions,
            batches: self.batches - before.batches,
            rejections: self.rejections - before.rejections,
        }
    }

    /// Sum of two differences.
    pub fn plus(self, o: Counters) -> Counters {
        Counters {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            predictions: self.predictions + o.predictions,
            batches: self.batches + o.batches,
            rejections: self.rejections + o.rejections,
        }
    }

    /// Hit ratio, rows per forward pass and overload rejections.
    pub fn layers(self) -> Vec<Metric> {
        let (hits, misses) = (self.hits as f64, self.misses as f64);
        vec![
            metric("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
            metric(
                "serve.batcher.rows_per_forward",
                ratio(self.predictions as f64, self.batches as f64),
                "rows",
            ),
            metric(
                "serve.batcher.overload_rejections",
                self.rejections as f64,
                "count",
            ),
        ]
    }
}

/// Turns a timed loop into the request workloads' metrics.
fn finish(
    opts: &Opts,
    setups: Vec<f64>,
    timed: LoopOut,
    counted: Counters,
    mut tally: Tally,
    wrong_samples: u64,
) -> Scenario {
    tally.attempted += timed.sent;
    tally.failed += timed.failed;
    // Medians over one-second windows, so that a burst of interference
    // from outside the benchmark moves a few windows, not the result.
    let correct_share = ratio(
        timed.ok.saturating_sub(wrong_samples) as f64,
        timed.ok as f64,
    );
    let windows = (timed.wall_s.floor() as usize).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&done, &ms) in timed.done_s.iter().zip(&timed.lat_ms) {
        if let Some(w) = per_window.get_mut(done as usize) {
            w.push(ms);
        }
    }
    let window_p50: Vec<f64> = per_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    let window_goodput: Vec<f64> = per_window
        .iter()
        .map(|w| w.len() as f64 * correct_share)
        .collect();
    let p50 = median(&window_p50);
    let p99 = quantile(&timed.lat_ms, 0.99);
    let goodput = median(&window_goodput);
    if timed.lat_ms.len() < P99_MIN_SAMPLES && !opts.quick {
        tally.invalid.push(format!(
            "p99 over {} successes has fewer than ten samples beyond it",
            timed.lat_ms.len()
        ));
    }
    let late_ratio = ratio(timed.late as f64, timed.sent as f64);
    if late_ratio > LATE_LIMIT {
        tally.invalid.push(format!(
            "generator ran late on {:.1}% of sends (limit {:.1}%)",
            late_ratio * 100.0,
            LATE_LIMIT * 100.0
        ));
    }
    let mut layers = counted.layers();
    layers.push(metric("serve.loadgen.late_ratio", late_ratio, "ratio"));
    Scenario {
        e2e: vec![
            metric("setup_s", median(&setups), "s"),
            metric("goodput_per_s", goodput, "1/s"),
            metric("p50_ms", p50, "ms"),
        ],
        named: vec![
            metric("goodput_rps", goodput, "req/s"),
            metric("req_p50_ms", p50, "ms"),
            metric("req_p99_ms", p99, "ms"),
            metric("req_successes", timed.lat_ms.len() as f64, "count"),
        ],
        layers,
        samples: vec![
            ("setup_s", setups),
            ("window_goodput", window_goodput),
            ("window_p50_ms", window_p50),
        ],
        tally,
    }
}

/// `predict_closed`: capacity of the forward-heavy request path.
pub fn closed(opts: &Opts, work: &Path, tracer: Option<&Tracer>) -> Scenario {
    let mix = closed_mix();
    let nets = fixture_networks(N_MODELS, DIM);
    let mut tally = Tally::default();
    let prime_seed = opts.seed ^ 0x9_1111;
    let prime = |addr: SocketAddr, tally: &mut Tally| {
        let count = if opts.quick { 10 } else { PRIME_REQUESTS };
        let warm = closed_loop(addr, &mix, prime_seed, Stop::Count(count), None);
        tally.attempted += warm.sent;
        tally.failed += warm.failed;
    };
    let (server, setups) = boot_primed(opts, work, &serve_config(0), &prime, &mut tally);
    let metrics = server.metrics();
    let before = Counters::read(&metrics);
    let secs = if opts.quick { 0.5 } else { opts.seconds };
    let timed = closed_loop(
        server.addr(),
        &mix,
        opts.seed,
        Stop::After(Duration::from_secs_f64(secs)),
        tracer,
    );
    let counted = Counters::read(&metrics).since(before);
    server.shutdown();
    let mut wrong = 0;
    for s in &timed.samples {
        let name = &mix.models[s.req.model];
        if let Err(e) = check_answer(&s.body, name, 1, &s.req.rows, &nets[s.req.model]) {
            wrong += 1;
            tally.wrong(e);
        }
    }
    tally.check(!timed.samples.is_empty(), || {
        "no answers were kept for checking".into()
    });
    finish(opts, setups, timed, counted, tally, wrong)
}

/// `predict_open`: fixed-rate Poisson arrivals over the cache hit path.
pub fn open(opts: &Opts, work: &Path, tracer: Option<&Tracer>) -> Scenario {
    let mix = open_mix();
    let nets = fixture_networks(N_MODELS, DIM);
    let mut tally = Tally::default();
    // Priming sends every (model, pool row) once; those answers are
    // forward passes, and every later hit must equal them.
    let primed: std::sync::Mutex<HashMap<(usize, usize), Vec<u64>>> = Default::default();
    let prime = |addr: SocketAddr, tally: &mut Tally| {
        let mut client = Client::connect(addr).expect("connect to the fixture server");
        let gen = Gen::new(&mix, 0);
        let mut seen = HashMap::new();
        for (m, (name, net)) in mix.models.iter().zip(&nets).enumerate() {
            for k in 0..mix.row_pool {
                let req = Req {
                    model: m,
                    rows: vec![pool_row(k, mix.dim)],
                    keys: vec![k],
                };
                tally.attempted += 1;
                let res = client.post_json("/predict", &gen.body(&req));
                match res {
                    Ok(r) if r.status == 200 => {
                        match check_answer(&r.body, name, 1, &req.rows, net) {
                            Ok(scores) => {
                                seen.insert((m, k), bits(&scores[0]));
                            }
                            Err(e) => tally.wrong(e),
                        }
                    }
                    _ => tally.failed += 1,
                }
            }
        }
        *primed.lock().expect("prime map lock") = seen;
    };
    let (server, setups) = boot_primed(opts, work, &serve_config(4096), &prime, &mut tally);
    let primed = primed.into_inner().expect("prime map lock");
    let metrics = server.metrics();
    let before = Counters::read(&metrics);
    let secs = if opts.quick { 0.5 } else { opts.seconds };
    let senders = generator_threads();
    let timed = open_loop(
        server.addr(),
        &mix,
        opts.seed,
        OPEN_RPS,
        Duration::from_secs_f64(secs),
        senders,
        tracer,
    );
    let counted = Counters::read(&metrics).since(before);
    server.shutdown();
    let mut wrong = 0;
    for s in &timed.samples {
        let m = s.req.model;
        match check_answer(&s.body, &mix.models[m], 1, &s.req.rows, &nets[m]) {
            Ok(scores) => {
                let forward = primed.get(&(m, s.req.keys[0]));
                if forward != Some(&bits(&scores[0])) {
                    wrong += 1;
                    tally.wrong(format!(
                        "cached answer for m{m} row {} differs from its forward pass",
                        s.req.keys[0]
                    ));
                }
            }
            Err(e) => {
                wrong += 1;
                tally.wrong(e);
            }
        }
    }
    tally.check(!timed.samples.is_empty(), || {
        "no answers were kept for checking".into()
    });
    finish(opts, setups, timed, counted, tally, wrong)
}

/// Result of a probe group.
#[derive(Default)]
pub struct Probe {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Checks made on probe outputs.
    pub tally: Tally,
    /// Lines for the self-time table.
    pub notes: Vec<String>,
}

/// A connected loopback socket pair `(client side, server side)`.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let client = TcpStream::connect(addr).expect("connect loopback");
    let (server, _) = listener.accept().expect("accept loopback");
    (client, server)
}

fn raw_request(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nHost: nd-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Times the request path's public calls on inputs recorded from the
/// workload's traffic: HTTP read, JSON parse, cache lookup, batcher
/// round trip, HTTP write, and the forward pass.
pub fn probes(opts: &Opts, tracer: &Tracer, run: &Scenario) -> Probe {
    let mix = mix_for(opts);
    let nets = fixture_networks(mix.models.len(), mix.dim);
    let root = tracer.open("probe.request", None);
    let parent = Some(root.id());
    let n = if opts.quick { 8 } else { 64 };
    let mut gen = Gen::new(&mix, opts.seed ^ 0x0090_0be5);
    let reqs: Vec<Req> = (0..n).map(|_| gen.next_req()).collect();
    let bodies: Vec<String> = reqs.iter().map(|r| gen.body(r).to_string()).collect();
    let mut probe = Probe::default();

    // HTTP read + JSON parse, on one keep-alive connection.
    let (mut tx, rx) = socket_pair();
    let raw: Vec<Vec<u8>> = bodies.iter().map(|b| raw_request(b)).collect();
    let (mut read_us, mut parse_us) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        s.spawn(move || {
            for r in &raw {
                tx.write_all(r).expect("write recorded request");
            }
        });
        let mut reader = BufReader::new(rx);
        let mut bufs = ConnBufs::new();
        let params = ReadParams {
            max_body: 1 << 24,
            ..ReadParams::default()
        };
        for req in &reqs {
            let (outcome, ns) = tracer.time("serve.http.read_request", parent, || {
                read_request(&mut reader, &mut bufs, &params)
            });
            read_us.push(us(ns));
            let ready = matches!(outcome, Ok(ReadOutcome::Ready));
            probe.tally.check(ready, || {
                "read_request did not return a whole request".into()
            });
            let (parsed, ns) = tracer.time("serve.json.parse", parent, || bufs.json());
            parse_us.push(us(ns));
            let rows = parsed.ok().and_then(|v| v["rows"].as_array().map(Vec::len));
            probe.tally.check(rows == Some(req.rows.len()), || {
                "parsed body lost rows".into()
            });
        }
    });
    probe
        .metrics
        .push(metric("serve.http.read_request_us", median(&read_us), "us"));
    probe
        .metrics
        .push(metric("serve.json.parse_us", median(&parse_us), "us"));

    // Offline answers, rendered the way the server renders them.
    let answers: Vec<Mat> = reqs
        .iter()
        .map(|r| nets[r.model].predict_batch(&Mat::from_rows(&r.rows).expect("rectangular rows")))
        .collect();
    let responses: Vec<Vec<u8>> = reqs
        .iter()
        .zip(&answers)
        .map(|(r, a)| {
            let preds: Vec<Value> = (0..a.rows())
                .map(|i| {
                    let s = a.row(i).to_vec();
                    let class = s
                        .iter()
                        .enumerate()
                        .max_by(|x, y| x.1.total_cmp(y.1))
                        .map_or(0, |(i, _)| i);
                    json!({"scores": s, "class": class})
                })
                .collect();
            json!({"model": mix.models[r.model].as_str(), "version": 1, "predictions": preds})
                .to_string()
                .into_bytes()
        })
        .collect();

    // HTTP write into a loopback socket drained by another thread.
    let (mut tx, mut rx) = socket_pair();
    let mut write_us = Vec::new();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut sink = [0u8; 1 << 16];
            while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
        });
        for body in &responses {
            let (res, ns) = tracer.time("serve.http.write_response", parent, || {
                write_response(&mut tx, 200, "application/json", &[], body, true)
            });
            write_us.push(us(ns));
            probe
                .tally
                .check(res.is_ok(), || "write_response failed".into());
        }
        drop(tx);
    });
    probe.metrics.push(metric(
        "serve.http.write_response_us",
        median(&write_us),
        "us",
    ));

    // Cache lookups on a cache filled from the row pool, one forward
    // pass per row as single-row requests fill it.
    let mut cache = LruCache::new(4096);
    for (m, net) in nets.iter().enumerate() {
        for k in 0..mix.row_pool {
            let row = pool_row(k, mix.dim);
            let out =
                net.predict_batch(&Mat::from_rows(std::slice::from_ref(&row)).expect("one row"));
            cache.insert(&mix.models[m], 1, &row, out.row(0).to_vec());
        }
    }
    let mut get_us = Vec::new();
    for (r, a) in reqs.iter().zip(&answers) {
        for (i, row) in r.rows.iter().enumerate() {
            let (hit, ns) = tracer.time("serve.cache.get", parent, || {
                cache.get(&mix.models[r.model], 1, row)
            });
            get_us.push(us(ns));
            if let Some(hit) = hit {
                probe.tally.check(bits(&hit) == bits(a.row(i)), || {
                    "cache hit differs from the forward pass".into()
                });
            }
        }
    }
    probe
        .metrics
        .push(metric("serve.cache.get_us", median(&get_us), "us"));

    // Batcher round trip on a standalone batcher (one shard's worker).
    let batcher = Batcher::start(
        BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
        Arc::new(Metrics::default()),
    )
    .expect("start batcher");
    let handles: Vec<Arc<ModelHandle>> = mix
        .models
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Arc::new(ModelHandle {
                name: name.clone(),
                version: 1,
                input_dim: mix.dim,
                n_params: 0,
                network: build_mlp(mix.dim, 1000 + i as u64),
            })
        })
        .collect();
    let mut submit_us = Vec::new();
    for (r, a) in reqs.iter().zip(&answers) {
        let rows = r.rows.clone();
        let handle = Arc::clone(&handles[r.model]);
        let (out, ns) = tracer.time("serve.batcher.submit", parent, || {
            batcher
                .submit(handle, rows)
                .ok()
                .and_then(|rx| rx.recv().ok())
        });
        submit_us.push(us(ns));
        let same = out.is_some_and(|o| {
            o.len() == r.rows.len() && o.iter().enumerate().all(|(i, s)| bits(s) == bits(a.row(i)))
        });
        probe.tally.check(same, || {
            "batcher output differs from offline predict_batch".into()
        });
    }
    batcher.drain();
    probe.metrics.push(metric(
        "serve.batcher.submit_rtt_us",
        median(&submit_us),
        "us",
    ));

    // Forward pass at the two request shapes.
    let wide = fixture_networks(1, DIM).remove(0);
    let mut g = Gen::new(&closed_mix(), opts.seed ^ 0x0f0d);
    let batch = Mat::from_rows(&g.next_req().rows).expect("rectangular rows");
    let single = Mat::from_rows(
        &batch
            .row_iter()
            .take(1)
            .map(<[f64]>::to_vec)
            .collect::<Vec<_>>(),
    )
    .expect("one row");
    let reps = if opts.quick { 5 } else { 200 };
    let fwd = |name: &str, net: &Network, x: &Mat| {
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                us(tracer
                    .time(name, parent, || std::hint::black_box(net.predict_batch(x)))
                    .1)
            })
            .collect();
        median(&times)
    };
    probe.metrics.push(metric(
        "neural.predict_batch_us",
        fwd("neural.predict_batch", &wide, &batch),
        "us",
    ));
    probe.metrics.push(metric(
        "neural.predict_row_us",
        fwd("neural.predict_row", &wide, &single),
        "us",
    ));
    let shape = Mat::from_rows(&reqs[0].rows).expect("rectangular rows");
    let forward_us = fwd("neural.predict_request", &nets[reqs[0].model], &shape);

    // The request median and server counters come from the workload's
    // own traffic.
    let p50_ms = run
        .named
        .iter()
        .find(|m| m.name == "req_p50_ms")
        .map_or(0.0, |m| m.value);
    probe.metrics.extend(run.layers.iter().cloned());
    let p50_us = p50_ms * 1e3;

    // DESIGN §16's "HTTP/JSON is ~10x the forward pass", measured: the
    // request median over the forward pass at the same shape.
    probe.metrics.push(metric(
        "serve.overhead_ratio",
        ratio(p50_us - forward_us, forward_us),
        "ratio",
    ));

    // The part of the request median that the parse, cache, submit and
    // write probes do not cover.
    let get = |name: &str| {
        probe
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let covered = get("serve.http.read_request_us")
        + get("serve.json.parse_us")
        + get("serve.cache.get_us") * mix.batch_rows as f64
        + get("serve.batcher.submit_rtt_us") * (1.0 - get("serve.cache.hit_ratio"))
        + get("serve.http.write_response_us");
    probe
        .metrics
        .push(metric("serve.uncovered_us", p50_us - covered, "us"));
    probe.notes.push(format!(
        "request path: p50 {p50_us:.1} us, probes cover {covered:.1} us, uncovered {:.1} us",
        p50_us - covered
    ));
    root.end();
    probe
}
