//! Deterministic load generation against a running server.
//!
//! Built as a library module (not just example code) so the SLO bench
//! harness, the `loadgen` example, and the tests all drive identical
//! traffic — and so the generator itself is held to the serving
//! crate's lint bar (no panic paths, bounded growth).
//!
//! Two driving disciplines:
//!
//! - [`closed_loop`]: N clients, each firing its next request the
//!   moment the previous response lands. Measures sustainable
//!   throughput at a fixed concurrency.
//! - [`open_loop`]: requests fire on a precomputed Poisson arrival
//!   schedule regardless of response progress, with optional
//!   [`BurstProfile`] rate spikes. Latency is measured from the
//!   *scheduled* arrival, not the actual send, so queueing delay from
//!   a stalled server is charged to the server (no coordinated
//!   omission).
//!
//! Traffic shape comes from [`TrafficMix`]: a Zipf-skewed model
//! popularity curve (hot-model skew), optional cache-busting (every
//! row unique, forcing real forward passes), or a small recycled row
//! pool (cache-friendly). All randomness is a seeded xorshift64*, so
//! two runs with the same seed produce the same request sequence.
//!
//! [`slow_loris`] is the adversarial client: connections that trickle
//! bytes forever, verifying the server cuts them off at its head
//! deadline without stalling real traffic.

use crate::client::Client;
use crate::registry::{ModelSpec, Registry};
use crate::server::{ServeConfig, Server};
use crate::ServeError;
use serde_json::{json, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* generator — load patterns must replay
/// identically for a given seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (`0` is remapped — xorshift fixpoint).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; returns 0 for `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }
}

/// What the generated requests look like.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// Model names to spread load over.
    pub models: Vec<String>,
    /// Zipf exponent for model popularity (`0` = uniform; `~1.2` =
    /// strong hot-model skew).
    pub skew: f64,
    /// Feature vector width.
    pub dim: usize,
    /// When `true` every row is unique — a cache-busting flood that
    /// forces a forward pass per row.
    pub cache_bust: bool,
    /// Rows per `/predict` request.
    pub batch_rows: usize,
    /// Size of the recycled row pool when not cache-busting.
    pub row_pool: usize,
}

impl TrafficMix {
    /// The headline mix: strong hot-model skew, unique rows, single-
    /// row requests — the worst case for a global FIFO batcher and the
    /// case sharding is built for.
    pub fn hot_skew(models: Vec<String>, dim: usize) -> TrafficMix {
        TrafficMix { models, skew: 1.2, dim, cache_bust: true, batch_rows: 1, row_pool: 512 }
    }

    /// Cache-friendly variant: rows recycle through a small pool.
    pub fn cache_friendly(models: Vec<String>, dim: usize) -> TrafficMix {
        TrafficMix { models, skew: 1.2, dim, cache_bust: false, batch_rows: 1, row_pool: 64 }
    }

    /// Cumulative Zipf weights over the model list.
    fn weights(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.models.len());
        let mut total = 0.0;
        for i in 0..self.models.len() {
            total += 1.0 / ((i + 1) as f64).powf(self.skew);
            cum.push(total);
        }
        cum
    }

    /// Picks a model index by skewed popularity.
    fn pick_model(&self, cum: &[f64], rng: &mut Rng) -> usize {
        let Some(&total) = cum.last() else { return 0 };
        let r = rng.next_f64() * total;
        cum.partition_point(|&w| w < r).min(self.models.len().saturating_sub(1))
    }

    /// Builds one request body.
    fn make_body(&self, cum: &[f64], rng: &mut Rng) -> Value {
        let model = self.models.get(self.pick_model(cum, rng)).cloned().unwrap_or_default();
        let rows: Vec<Vec<f64>> = (0..self.batch_rows.max(1))
            .map(|_| {
                if self.cache_bust {
                    (0..self.dim).map(|_| rng.next_f64()).collect()
                } else {
                    // Recycle rows from a small deterministic pool so
                    // repeats hit the prediction cache.
                    let k = rng.below(self.row_pool.max(1)) as f64;
                    (0..self.dim).map(|j| ((k + j as f64) % 17.0) * 0.1).collect()
                }
            })
            .collect();
        json!({"model": model, "rows": rows})
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Requests attempted.
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses (shed by admission control).
    pub shed: u64,
    /// Transport failures and non-200/503 statuses.
    pub errors: u64,
    /// Open-loop only: requests whose send started >10ms behind their
    /// scheduled arrival (the generator, not the server, fell behind).
    pub late: u64,
    /// Wall-clock time of the whole run, milliseconds.
    pub wall_ms: u64,
    /// Successful requests per second over the run.
    pub rps: f64,
    /// Latency percentiles over successful requests, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// Worst observed latency (µs).
    pub max_us: u64,
    /// Mean latency (µs).
    pub mean_us: u64,
}

impl LoadSummary {
    /// JSON rendering for `--json` output and BENCH files.
    pub fn to_json(&self) -> Value {
        json!({
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "late": self.late,
            "wall_ms": self.wall_ms,
            "rps": self.rps,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "max_us": self.max_us,
            "mean_us": self.mean_us,
        })
    }
}

/// Exact nearest-rank percentile over an already-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0)
}

fn summarize(
    mut latencies: Vec<u64>,
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    late: u64,
    wall: Duration,
) -> LoadSummary {
    latencies.sort_unstable();
    let sum: u64 = latencies.iter().sum();
    let wall_s = wall.as_secs_f64().max(1e-9);
    LoadSummary {
        sent,
        ok,
        shed,
        errors,
        late,
        wall_ms: wall.as_millis().min(u64::MAX as u128) as u64,
        rps: ok as f64 / wall_s,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        max_us: latencies.last().copied().unwrap_or(0),
        mean_us: if latencies.is_empty() { 0 } else { sum / latencies.len() as u64 },
    }
}

/// Per-thread tally merged into the final summary.
#[derive(Debug, Default)]
struct Tally {
    latencies: Vec<u64>,
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    late: u64,
}

impl Tally {
    fn record(&mut self, status: Option<u16>, us: u64) {
        self.sent += 1;
        match status {
            Some(200) => {
                self.ok += 1;
                self.latencies.push(us);
            }
            Some(503) => self.shed += 1,
            _ => self.errors += 1,
        }
    }
}

/// Closed-loop run: `clients` keep-alive connections, each sending
/// `requests` back-to-back requests. Deterministic per seed.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    mix: &TrafficMix,
    seed: u64,
) -> LoadSummary {
    let started = Instant::now();
    let workers: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let mix = mix.clone();
            let mut rng = Rng::new(seed ^ ((c as u64 + 1) << 32));
            std::thread::spawn(move || {
                let cum = mix.weights();
                let mut tally = Tally::default();
                let Ok(mut client) = Client::connect(addr) else {
                    tally.sent = requests as u64;
                    tally.errors = requests as u64;
                    return tally;
                };
                for _ in 0..requests {
                    let body = mix.make_body(&cum, &mut rng);
                    let t0 = Instant::now();
                    let status = client.post_json("/predict", &body).ok().map(|r| r.status);
                    let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    tally.record(status, us);
                    // A transport error kills the connection; reconnect
                    // so one hiccup doesn't void the remaining plan.
                    if status.is_none() {
                        if let Ok(fresh) = Client::connect(addr) {
                            client = fresh;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    collect(workers, started)
}

/// Rate spikes layered onto the open-loop schedule: for the first
/// `burst_len` of every `period`, the arrival rate is multiplied.
#[derive(Debug, Clone)]
pub struct BurstProfile {
    /// Burst cycle length.
    pub period: Duration,
    /// Burst duration at the start of each cycle.
    pub burst_len: Duration,
    /// Rate multiplier inside the burst.
    pub multiplier: f64,
}

/// Open-loop run: Poisson arrivals at `rps` (optionally bursty) for
/// `duration`, spread over `senders` connections. Latency is charged
/// from the scheduled arrival time.
pub fn open_loop(
    addr: SocketAddr,
    rps: f64,
    duration: Duration,
    senders: usize,
    mix: &TrafficMix,
    seed: u64,
    burst: Option<&BurstProfile>,
) -> LoadSummary {
    // Precompute the full arrival schedule so sender threads do no
    // arithmetic (or allocation) on the timing path.
    let mut arrivals: Vec<Duration> = Vec::new();
    let mut rng = Rng::new(seed);
    let mut t = Duration::ZERO;
    while t < duration {
        let rate = match burst {
            Some(b) if !b.period.is_zero() => {
                let phase = Duration::from_nanos(
                    (t.as_nanos() % b.period.as_nanos().max(1)) as u64,
                );
                if phase < b.burst_len {
                    rps * b.multiplier
                } else {
                    rps
                }
            }
            _ => rps,
        };
        let rate = rate.max(1e-3);
        // Exponential inter-arrival: -ln(U)/rate.
        let u = rng.next_f64().max(1e-12);
        t += Duration::from_secs_f64((-u.ln()) / rate);
        // nd-lint: allow(unbounded-growth) — capped by the duration cutoff in the loop condition
        arrivals.push(t);
    }

    let senders = senders.max(1);
    let started = Instant::now();
    let workers: Vec<_> = (0..senders)
        .map(|s| {
            let mix = mix.clone();
            let mut rng = Rng::new(seed ^ ((s as u64 + 1) << 40));
            // Strided split of the shared schedule.
            let mine: Vec<Duration> =
                arrivals.iter().skip(s).step_by(senders).copied().collect();
            std::thread::spawn(move || {
                let cum = mix.weights();
                let mut tally = Tally::default();
                let Ok(mut client) = Client::connect(addr) else {
                    tally.sent = mine.len() as u64;
                    tally.errors = mine.len() as u64;
                    return tally;
                };
                let t0 = Instant::now();
                for at in mine {
                    let now = t0.elapsed();
                    if now < at {
                        std::thread::sleep(at - now);
                    } else if now > at + Duration::from_millis(10) {
                        tally.late += 1;
                    }
                    let body = mix.make_body(&cum, &mut rng);
                    let status = client.post_json("/predict", &body).ok().map(|r| r.status);
                    // Charge from the scheduled arrival: a server that
                    // stalls the previous response pays for the delay
                    // it imposed on this one.
                    let us = t0
                        .elapsed()
                        .saturating_sub(at)
                        .as_micros()
                        .min(u64::MAX as u128) as u64;
                    tally.record(status, us);
                    if status.is_none() {
                        if let Ok(fresh) = Client::connect(addr) {
                            client = fresh;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    collect(workers, started)
}

fn collect(workers: Vec<std::thread::JoinHandle<Tally>>, started: Instant) -> LoadSummary {
    let mut latencies = Vec::new();
    let (mut sent, mut ok, mut shed, mut errors, mut late) = (0, 0, 0, 0, 0);
    for worker in workers {
        if let Ok(tally) = worker.join() {
            latencies.extend(tally.latencies);
            sent += tally.sent;
            ok += tally.ok;
            shed += tally.shed;
            errors += tally.errors;
            late += tally.late;
        }
    }
    summarize(latencies, sent, ok, shed, errors, late, started.elapsed())
}

/// Result of a slow-loris probe.
#[derive(Debug, Clone, Copy)]
pub struct LorisSummary {
    /// Connections successfully opened.
    pub opened: usize,
    /// Connections the server cut off (response-then-close or reset)
    /// within the observation window.
    pub dropped: usize,
}

/// Opens `conns` connections that trickle one header byte at a time,
/// then reports how many the server dropped within `hold`. A healthy
/// server drops all of them shortly after its head deadline.
pub fn slow_loris(addr: SocketAddr, conns: usize, hold: Duration) -> LorisSummary {
    let mut streams: Vec<Option<TcpStream>> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let stream = TcpStream::connect(addr).ok().and_then(|s| {
            s.set_read_timeout(Some(Duration::from_millis(25))).ok()?;
            s.set_write_timeout(Some(Duration::from_millis(250))).ok()?;
            Some(s)
        });
        streams.push(stream);
    }
    let opened = streams.iter().filter(|s| s.is_some()).count();
    let started = Instant::now();
    // Trickle: a fragment of a request line every 50ms, never
    // finishing the head.
    while started.elapsed() < hold {
        for slot in streams.iter_mut() {
            let dead = match slot {
                Some(stream) => stream.write_all(b"G").is_err(),
                None => false,
            };
            if dead {
                *slot = None;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Final sweep: a connection still writable may have an unread
    // error response + FIN queued; a read distinguishes alive (timeout)
    // from dropped (EOF, data-then-EOF, or reset).
    let mut alive = 0;
    for stream in streams.iter_mut().flatten() {
        let mut scratch = [0u8; 256];
        match stream.read(&mut scratch) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                alive += 1;
            }
            // EOF, an error reply, or a reset all mean the server
            // ended this connection.
            _ => {}
        }
    }
    LorisSummary { opened, dropped: opened.saturating_sub(alive) }
}

/// Boots a disposable server over `n_models` freshly checkpointed
/// MLPs (named `m0..m{n-1}`, input width `dim`) in `dir`. Shared by
/// the loadgen example, the SLO bench, and the tests so they all
/// measure the same fixture.
pub fn boot_fixture(
    dir: &Path,
    n_models: usize,
    dim: usize,
    config: ServeConfig,
) -> Result<Server, ServeError> {
    use nd_core::checkpoint::save_checkpoint;
    use nd_core::predict::build_mlp;
    let mut db = nd_store::Database::open(dir)?;
    let mut specs = Vec::with_capacity(n_models);
    for i in 0..n_models {
        let name = format!("m{i}");
        save_checkpoint(&mut db, &name, &build_mlp(dim, 1000 + i as u64))?;
        specs.push(ModelSpec::new(&name, dim, move || build_mlp(dim, 0)));
    }
    drop(db);
    let registry = Registry::load(dir, specs, 2)?;
    Server::start(config, registry)
}

/// Model name list for an `n_models` fixture.
pub fn fixture_models(n_models: usize) -> Vec<String> {
    (0..n_models).map(|i| format!("m{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn zipf_pick_is_skewed_toward_head() {
        let mix = TrafficMix::hot_skew(fixture_models(8), 4);
        let cum = mix.weights();
        let mut rng = Rng::new(7);
        let mut counts = vec![0usize; 8];
        for _ in 0..4000 {
            counts[mix.pick_model(&cum, &mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[7] * 3,
            "head model must dominate tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "tail still sampled: {counts:?}");
    }

    #[test]
    fn bodies_are_deterministic_per_seed() {
        let mix = TrafficMix::hot_skew(fixture_models(4), 6);
        let cum = mix.weights();
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..20 {
            assert_eq!(mix.make_body(&cum, &mut a), mix.make_body(&cum, &mut b));
        }
    }

    #[test]
    fn cache_friendly_rows_recycle() {
        let mix = TrafficMix::cache_friendly(fixture_models(2), 4);
        let cum = mix.weights();
        let mut rng = Rng::new(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let body = mix.make_body(&cum, &mut rng);
            seen.insert(body["rows"].to_string());
        }
        assert!(seen.len() <= mix.row_pool, "rows recycle through the pool");
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn summary_math() {
        let s = summarize(
            vec![100, 200, 300, 400],
            6,
            4,
            1,
            1,
            0,
            Duration::from_secs(2),
        );
        assert_eq!(s.ok, 4);
        assert_eq!(s.shed, 1);
        assert_eq!(s.errors, 1);
        assert!((s.rps - 2.0).abs() < 1e-9);
        assert_eq!(s.mean_us, 250);
        assert_eq!(s.max_us, 400);
        let j = s.to_json();
        assert_eq!(j["ok"].as_u64(), Some(4));
    }
}
