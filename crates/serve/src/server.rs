//! The HTTP listener: routing, validation, backpressure and graceful
//! shutdown.
//!
//! Threading layout: one acceptor blocks in `accept` and gives each
//! connection its own handler thread, up to `MAX_CONNECTIONS` (256)
//! open at once. Handlers run the keep-alive loop with one reusable
//! [`ConnBufs`] per connection. Predictions route by model name
//! through the [`ShardSet`]'s consistent-hash ring to that model's
//! shard, whose own batcher and cache serve it, whichever thread read
//! the request — there is no globally locked queue anywhere on the
//! request path.
//!
//! Admission control is layered: a connection past the cap is shed at
//! the door with an immediate best-effort 503; a full per-shard
//! batcher queue sheds `/predict` with 503 plus a `Retry-After`
//! estimated from that shard's queue depth and drain rate, and a
//! request that needs more rows admitted than the whole queue holds
//! gets `413`, since no retry could succeed. Accepted work is never
//! dropped.
//!
//! Shutdown order: set the flag and wake the acceptor with one
//! connection to the bound address; join the acceptor, which returns
//! once every handler has (a request already read is still answered,
//! with `Connection: close`); then drain every shard's batcher in
//! shard order so every admitted row is answered.

use crate::batcher::{BatchConfig, SubmitError};
use crate::http::{read_request, write_response, write_response_with, ConnBufs, ReadOutcome, ReadParams};
use crate::metrics::{render_quantiles, Endpoint, Metrics};
use crate::registry::{ModelHandle, Registry, SwapEvent};
use crate::retrain::{
    retrain_from_run, RetrainSpec, SliceRetrain, StreamRetrainSpec, StreamRetrainer,
};
use crate::shard::{Shard, ShardConfig, ShardSet};
use crate::hist::HistSnapshot;
use crate::ServeError;
use nd_core::patterns_module::PatternsOutput;
use nd_core::{RunReport, StageReport};
use nd_linalg::vecops::argmax;
use nd_patterns::{symbol_label, PatternCategory};
use serde_json::{json, Map, Value};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Micro-batching parameters. `workers` and the cache capacity
    /// are totals divided across shards.
    pub batch: BatchConfig,
    /// Prediction-cache capacity in rows across all shards (`0`
    /// disables).
    pub cache_rows: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Enables reload-with-retrain: `POST /admin/reload` with a
    /// `run_dir` body re-runs the pipeline against that artifact
    /// cache, retrains these models, and hot-swaps them (`None` =
    /// plain checkpoint refresh only).
    pub retrain: Option<RetrainSpec>,
    /// Enables the streaming refresh loop: `POST /admin/reload` with
    /// an `advance_stream` body folds the next firehose slice through
    /// the incremental DAG, retrains these models on the new head,
    /// and hot-swaps them (`None` = no stream attached).
    pub stream: Option<StreamRetrainSpec>,
    /// Shard topology: shard count and replication.
    pub shard: ShardConfig,
    /// How long a partially received request may trickle in before
    /// the connection is dropped (the slow-loris bound).
    pub head_deadline: Duration,
    /// Idle keep-alive connections are closed after this long,
    /// freeing their handler thread and connection slot.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchConfig::default(),
            cache_rows: 4096,
            max_body_bytes: 1 << 20,
            retrain: None,
            stream: None,
            shard: ShardConfig::default(),
            head_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Most connections served at once, one handler thread each; a
/// connection past it gets a best-effort 503 at the door. 256 keeps
/// the capacity of the default 4 shards × 64 pooled handlers that
/// per-connection threads replaced.
const MAX_CONNECTIONS: usize = 256;

/// Pause after a failed `accept` (out of file descriptors, say), so
/// the acceptor retries instead of spinning.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// Per-connection read timeout; bounds how long an idle keep-alive
/// connection can ignore shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

struct Shared {
    registry: Registry,
    shards: ShardSet,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    read_params: ReadParams,
    idle_timeout: Duration,
    retrain: Option<RetrainSpec>,
    /// The per-slice refresh loop, when a stream is attached.
    stream: Option<StreamRetrainer>,
    /// Per-stage report of the most recent reload-with-retrain,
    /// rendered into `GET /metrics`.
    last_run: Mutex<Option<RunReport>>,
    /// Record of the most recent stream advance, rendered into
    /// `GET /metrics` as per-slice fold and staleness gauges.
    last_slice: Mutex<Option<SliceRetrain>>,
    /// Pattern catalog mined by the most recent reload-with-retrain,
    /// served at `GET /patterns` and summarized in `GET /metrics`.
    patterns: Mutex<Option<Arc<PatternsOutput>>>,
}

impl Shared {
    fn apply_swaps(&self, events: &[SwapEvent]) {
        self.metrics.model_swaps.add(events.len() as u64);
        let pruned: usize = events.iter().map(|e| e.pruned).sum();
        self.metrics.checkpoints_pruned.add(pruned as u64);
    }
}

/// Best-effort 503 for a connection shed at the door. The write races
/// the client's own send; a client that sees a reset instead of the
/// reply treats it the same way (retry later).
fn shed_connection(mut stream: TcpStream) {
    // nd-lint: allow(result-dropped) — the connection is being dropped either way
    let _ = write_response(
        &mut stream,
        503,
        "application/json",
        &[("Retry-After", "1".to_string())],
        b"{\"error\":\"too many connections\"}",
        false,
    );
}

/// A running server. Dropping it signals shutdown; call
/// [`Server::shutdown`] for the full graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `registry` in background threads.
    pub fn start(config: ServeConfig, registry: Registry) -> Result<Server, ServeError> {
        Server::start_capped(config, registry, MAX_CONNECTIONS)
    }

    /// [`Server::start`] with `max_conns` in place of
    /// [`MAX_CONNECTIONS`], so tests can reach the cap.
    fn start_capped(
        config: ServeConfig,
        registry: Registry,
        max_conns: usize,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::default());
        let shards =
            ShardSet::start(&config.shard, &config.batch, config.cache_rows, &metrics)?;
        let shared = Arc::new(Shared {
            registry,
            shards,
            metrics,
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            read_params: ReadParams {
                max_body: config.max_body_bytes,
                head_deadline: config.head_deadline,
            },
            idle_timeout: config.idle_timeout,
            retrain: config.retrain.clone(),
            stream: config.stream.clone().map(StreamRetrainer::new),
            last_run: Mutex::new(None),
            last_slice: Mutex::new(None),
            patterns: Mutex::new(None),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nd-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, max_conns))
                .map_err(ServeError::Io)?
        };
        Ok(Server { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The model registry.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Number of serving shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard id owning `model` (primary, ignoring replication).
    pub fn shard_for(&self, model: &str) -> usize {
        self.shared.shards.owner_id(model)
    }

    /// Graceful shutdown: stop accepting, let in-flight connections
    /// finish, answer every admitted prediction, join all threads.
    pub fn shutdown(mut self) {
        // Handlers see the flag within one read timeout and answer a
        // request already read with `Connection: close`; the acceptor
        // returns once every handler has, so joining it is the wait
        // for in-flight work.
        if let Some(acceptor) = self.stop_accepting() {
            // nd-lint: allow(result-dropped) — join only errs if a thread panicked; shutdown proceeds either way
            let _ = acceptor.join();
        }
        self.shared.shards.drain();
    }

    /// Sets the shutdown flag and wakes the acceptor blocked in
    /// `accept`. Returns the acceptor to join, or `None` when it is
    /// gone already or the wake failed (joining would then block).
    fn stop_accepting(&mut self) -> Option<JoinHandle<()>> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let acceptor = self.acceptor.take()?;
        wake(self.addr).then_some(acceptor)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The acceptor and its handlers exit on their own once woken.
        drop(self.stop_accepting());
    }
}

/// Wakes an acceptor blocked in `accept` with one throwaway
/// connection to `addr`, through loopback when the bound IP is a
/// wildcard (`0.0.0.0`, `::`). Returns whether the connection was made.
fn wake(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr =
            if addr.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        addr.set_ip(loopback);
    }
    TcpStream::connect(addr).is_ok()
}

/// Accepts connections until shutdown, one handler thread each, and
/// sheds a connection at the door while `max_conns` are open. The
/// handlers run in a thread scope, so this returns only once every one
/// of them has.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, max_conns: usize) {
    std::thread::scope(|scope| loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        if shared.open_conns.load(Ordering::SeqCst) >= max_conns {
            shed_connection(stream);
            continue;
        }
        shared.open_conns.fetch_add(1, Ordering::SeqCst);
        let spawned = std::thread::Builder::new()
            .name("nd-serve-conn".to_string())
            .spawn_scoped(scope, move || {
                handle_connection(shared, stream);
                shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // No thread: the connection closed with the closure.
            shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    });
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // nd-lint: allow(result-dropped) — nodelay is an advisory latency tweak; serving works without it
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    // One set of parse buffers and one response-head scratch for the
    // whole keep-alive session: the steady state allocates nothing.
    let mut bufs = ConnBufs::new();
    let mut scratch = String::new();
    let mut idle_since = Instant::now();
    loop {
        match read_request(&mut reader, &mut bufs, &shared.read_params) {
            Ok(ReadOutcome::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst)
                    || idle_since.elapsed() > shared.idle_timeout
                {
                    return;
                }
            }
            Ok(ReadOutcome::TooLarge) => {
                // nd-lint: allow(result-dropped) — best-effort error reply; the connection closes right after
                let _ = respond_json(
                    &mut writer,
                    &mut scratch,
                    413,
                    &[],
                    &json!({"error": "request too large"}),
                    false,
                );
                return;
            }
            Ok(ReadOutcome::Malformed) => {
                // nd-lint: allow(result-dropped) — best-effort error reply; the connection closes right after
                let _ = respond_json(
                    &mut writer,
                    &mut scratch,
                    400,
                    &[],
                    &json!({"error": "malformed request"}),
                    false,
                );
                return;
            }
            Ok(ReadOutcome::Ready) => {
                idle_since = Instant::now();
                // During shutdown the response still goes out, but the
                // connection closes behind it.
                let keep_alive =
                    bufs.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                if handle_request(shared, &bufs, &mut writer, &mut scratch, keep_alive)
                    .is_err()
                    || !keep_alive
                {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) | Err(_) => return,
        }
    }
}

fn respond_json(
    stream: &mut TcpStream,
    scratch: &mut String,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &Value,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(
        stream,
        scratch,
        status,
        "application/json",
        extra_headers,
        body.to_string().as_bytes(),
        keep_alive,
    )
}

fn handle_request(
    shared: &Arc<Shared>,
    request: &ConnBufs,
    writer: &mut TcpStream,
    scratch: &mut String,
    keep_alive: bool,
) -> std::io::Result<()> {
    let started = Instant::now();
    let path = request.path().split('?').next().unwrap_or("");
    let endpoint = match (request.method(), path) {
        ("POST", "/predict") => Endpoint::Predict,
        ("GET", "/models") => Endpoint::Models,
        ("GET", "/healthz") => Endpoint::Healthz,
        ("GET", "/metrics") => Endpoint::Metrics,
        ("POST", "/admin/reload") => Endpoint::Reload,
        ("GET", "/patterns") => Endpoint::Patterns,
        _ => Endpoint::Other,
    };
    shared.metrics.request(endpoint);

    if endpoint == Endpoint::Metrics {
        let text = render_metrics(shared);
        let result = write_response_with(
            writer,
            scratch,
            200,
            "text/plain; version=0.0.4",
            &[],
            text.as_bytes(),
            keep_alive,
        );
        observe_elapsed(shared, endpoint, started);
        return result;
    }

    let (status, extra, body) = match endpoint {
        Endpoint::Predict => handle_predict(shared, request),
        Endpoint::Models => handle_models(shared),
        Endpoint::Healthz => {
            (200, Vec::new(), json!({"status": "ok", "models": shared.registry.list().len()}))
        }
        Endpoint::Reload => handle_reload(shared, request),
        Endpoint::Patterns => handle_patterns(shared, request),
        // Already answered above; if routing ever regresses, a wrong
        // 500 beats a panic that kills the connection thread.
        Endpoint::Metrics => (500, Vec::new(), json!({"error": "metrics routed past its handler"})),
        Endpoint::Other => {
            let known = matches!(path, "/predict" | "/models" | "/healthz" | "/metrics" | "/admin/reload" | "/patterns");
            if known {
                (405, Vec::new(), json!({"error": "method not allowed"}))
            } else {
                (404, Vec::new(), json!({"error": "no such route"}))
            }
        }
    };
    if status >= 400 {
        shared.metrics.error(endpoint);
    }
    let extra: Vec<(&str, String)> =
        extra.iter().map(|(n, v)| (*n, v.clone())).collect();
    let result = respond_json(writer, scratch, status, &extra, &body, keep_alive);
    observe_elapsed(shared, endpoint, started);
    result
}

fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u64::MAX as u128) as u64
}

fn observe_elapsed(shared: &Arc<Shared>, endpoint: Endpoint, started: Instant) {
    shared.metrics.observe_latency(endpoint, elapsed_us(started));
}

fn render_metrics(shared: &Arc<Shared>) -> String {
    let mut gauges = vec![
        ("nd_serve_queue_depth".to_string(), shared.shards.queue_depth() as u64),
        (
            "nd_serve_open_connections".to_string(),
            shared.open_conns.load(Ordering::SeqCst) as u64,
        ),
        ("nd_serve_cache_entries".to_string(), shared.shards.cache_entries() as u64),
        ("nd_serve_shards".to_string(), shared.shards.len() as u64),
    ];
    for shard in shared.shards.iter() {
        let label = format!("{{shard=\"{}\"}}", shard.id);
        gauges.push((
            format!("nd_serve_shard_queue_rows{label}"),
            shard.batcher.queue_depth() as u64,
        ));
        gauges.push((
            format!("nd_serve_shard_rows_completed_total{label}"),
            shard.batcher.completed_rows(),
        ));
        gauges.push((
            format!("nd_serve_shard_cache_entries{label}"),
            shard.cache.lock().unwrap_or_else(PoisonError::into_inner).len() as u64,
        ));
        gauges.push((format!("nd_serve_shard_retry_after_s{label}"), shard.retry_after_secs()));
    }
    for handle in shared.registry.list() {
        gauges.push((
            format!("nd_serve_model_version{{model=\"{}\"}}", handle.name),
            handle.version,
        ));
        gauges.push((
            format!("nd_serve_model_shard{{model=\"{}\"}}", handle.name),
            shared.shards.owner_id(&handle.name) as u64,
        ));
    }
    let patterns = shared.patterns.lock().unwrap_or_else(PoisonError::into_inner).clone();
    if let Some(out) = patterns {
        gauges.push((
            "nd_patterns_catalog_size".to_string(),
            out.catalog.patterns.len() as u64,
        ));
        for (category, count) in out.catalog.category_counts() {
            gauges.push((
                format!("nd_patterns_catalog_patterns{{category=\"{}\"}}", category.label()),
                count as u64,
            ));
        }
        gauges.push((
            "nd_patterns_planted_signatures".to_string(),
            out.planted.len() as u64,
        ));
    }
    // Clone out under brief locks; rendering happens lock-free.
    let last_run = shared.last_run.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let last_slice = shared.last_slice.lock().unwrap_or_else(PoisonError::into_inner).clone();
    if let Some(slice) = &last_slice {
        gauges.push(("nd_stream_head_slice".to_string(), slice.head as u64));
        gauges.push((
            "nd_stream_slices_polled".to_string(),
            slice.stream.slices_polled as u64,
        ));
        gauges.push(("nd_stream_dataset_rows".to_string(), slice.dataset_rows as u64));
        gauges.push(("nd_stream_models_trained".to_string(), slice.trained as u64));
        gauges.push(("nd_stream_train_ms".to_string(), slice.train_ms as u64));
        gauges.push((
            "nd_stream_staleness_ms".to_string(),
            slice.completed_at.elapsed().as_millis().min(u64::MAX as u128) as u64,
        ));
    }
    // Batch stage records are labelled by stage, stream fold records
    // by `{stage, slice}`.
    let stage_gauges =
        ["nd_pipeline_stage_wall_ms", "nd_pipeline_stage_cache_hit", "nd_pipeline_artifact_bytes"];
    let fold_gauges = ["nd_stream_fold_wall_ms", "nd_stream_fold_cache_hit", "nd_stream_fold_bytes"];
    let records = [
        (last_run.as_ref(), false, stage_gauges),
        (last_slice.as_ref().map(|s| &s.stream), true, fold_gauges),
    ];
    for (report, sliced, [wall, hit, bytes]) in records {
        for r in report.iter().flat_map(|report| &report.stages) {
            let label = if sliced {
                format!("{{stage=\"{}\",slice=\"{}\"}}", r.stage, r.slice)
            } else {
                format!("{{stage=\"{}\"}}", r.stage)
            };
            gauges.push((format!("{wall}{label}"), r.wall_ms as u64));
            gauges.push((format!("{hit}{label}"), u64::from(!r.cache.executed())));
            gauges.push((format!("{bytes}{label}"), r.bytes));
        }
    }
    let mut text = shared.metrics.render(&gauges);
    // Per-shard predict quantiles, then the cross-shard merge. Shards
    // are visited in fixed id order so the merged series is
    // deterministic for a given set of per-shard snapshots.
    let mut merged = HistSnapshot::empty();
    for shard in shared.shards.iter() {
        let snap = shard.latency.snapshot();
        if snap.count > 0 {
            let id = shard.id.to_string();
            render_quantiles(
                &mut text,
                "nd_serve_shard_predict_latency_us",
                &[("shard", id.as_str())],
                &snap,
            );
        }
        merged.merge(&snap);
    }
    if merged.count > 0 {
        render_quantiles(&mut text, "nd_serve_predict_quantiles_us", &[], &merged);
    }
    text
}

fn handle_models(shared: &Arc<Shared>) -> (u16, Vec<(&'static str, String)>, Value) {
    let models: Vec<Value> = shared
        .registry
        .list()
        .iter()
        .map(|h| {
            json!({
                "name": h.name,
                "version": h.version,
                "input_dim": h.input_dim,
                "n_params": h.n_params,
                "shard": shared.shards.owner_id(&h.name),
            })
        })
        .collect();
    (200, Vec::new(), json!({"models": models}))
}

/// One record of a reload's run report, as the response renders it;
/// stream fold records also carry their slice.
fn record_json(r: &StageReport, sliced: bool) -> Value {
    let mut record = Map::from([
        ("stage".to_string(), json!(r.stage)),
        ("cache".to_string(), json!(r.cache.as_str())),
        ("wall_ms".to_string(), json!(r.wall_ms)),
        ("bytes".to_string(), json!(r.bytes)),
    ]);
    if sliced {
        record.insert("slice".to_string(), json!(r.slice));
    }
    Value::Object(record)
}

fn handle_reload(
    shared: &Arc<Shared>,
    request: &ConnBufs,
) -> (u16, Vec<(&'static str, String)>, Value) {
    // `{"advance_stream": true}` folds the next firehose slice;
    // `{"run_dir": "..."}` selects batch reload-with-retrain; any
    // other body (including empty) is the plain checkpoint refresh.
    // Each kind yields its swaps plus its own response sections, or an
    // error status.
    let body_json = serde_json::from_slice::<Value>(request.body()).ok();
    let advance_stream = body_json
        .as_ref()
        .and_then(|v| v.get("advance_stream").and_then(Value::as_bool))
        .unwrap_or(false);
    let run_dir = body_json
        .as_ref()
        .and_then(|v| v.get("run_dir").and_then(Value::as_str).map(PathBuf::from));
    let reloaded: Result<(Vec<SwapEvent>, Map), (u16, String)> = if advance_stream {
        let Some(retrainer) = shared.stream.as_ref() else {
            return (
                400,
                Vec::new(),
                json!({"error": "server has no stream retrain spec configured"}),
            );
        };
        match retrainer.advance(&shared.registry) {
            Ok(slice) => {
                let executed = slice.stream.executed();
                let folds: Vec<Value> =
                    slice.stream.stages.iter().map(|r| record_json(r, true)).collect();
                let section = json!({
                    "head": slice.head,
                    "horizon": retrainer.horizon(),
                    "executed": executed,
                    "replayed": slice.stream.stages.len() - executed,
                    "slices_polled": slice.stream.slices_polled,
                    "total_ms": slice.stream.total_ms,
                    "dataset_rows": slice.dataset_rows,
                    "trained": slice.trained,
                    "train_ms": slice.train_ms,
                    "folds": folds,
                });
                let swapped = slice.swapped.clone();
                *shared.last_slice.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(slice);
                Ok((swapped, Map::from([("stream".to_string(), section)])))
            }
            Err(e @ ServeError::Config(_)) => Err((400, e.to_string())),
            Err(e) => Err((500, e.to_string())),
        }
    } else if let Some(run_dir) = run_dir {
        let Some(spec) = shared.retrain.as_ref() else {
            return (
                400,
                Vec::new(),
                json!({"error": "server has no retrain spec configured"}),
            );
        };
        match retrain_from_run(&shared.registry, spec, &run_dir) {
            Ok((report, events, patterns)) => {
                let executed = report.executed();
                let stages: Vec<Value> =
                    report.stages.iter().map(|r| record_json(r, false)).collect();
                let pipeline = json!({
                    "executed": executed,
                    "replayed": report.stages.len() - executed,
                    "total_ms": report.total_ms,
                    "stages": stages,
                });
                let patterns_section = json!({
                    "cataloged": patterns.catalog.patterns.len(),
                    "planted": patterns.planted.len(),
                });
                *shared.last_run.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
                *shared.patterns.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(Arc::new(patterns));
                Ok((
                    events,
                    Map::from([
                        ("pipeline".to_string(), pipeline),
                        ("patterns".to_string(), patterns_section),
                    ]),
                ))
            }
            Err(e) => Err((500, e.to_string())),
        }
    } else {
        match shared.registry.refresh() {
            Ok(events) => Ok((events, Map::new())),
            Err(e) => Err((500, e.to_string())),
        }
    };
    match reloaded {
        Ok((events, mut body)) => {
            shared.apply_swaps(&events);
            let swapped: Vec<Value> = events
                .iter()
                .map(|e| json!({"model": e.name, "from": e.from, "to": e.to, "pruned": e.pruned}))
                .collect();
            body.insert("swapped".to_string(), Value::Array(swapped));
            (200, Vec::new(), Value::Object(body))
        }
        Err((status, error)) => (status, Vec::new(), json!({"error": error})),
    }
}

/// Extracts a `key=value` query parameter from a raw query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Default number of patterns returned when `?limit=` is absent.
const PATTERNS_DEFAULT_LIMIT: usize = 20;

/// Co-occurrence pairs returned alongside the patterns.
const PATTERNS_PAIR_LIMIT: usize = 10;

fn handle_patterns(
    shared: &Arc<Shared>,
    request: &ConnBufs,
) -> (u16, Vec<(&'static str, String)>, Value) {
    let snapshot = shared.patterns.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let Some(out) = snapshot else {
        return (
            404,
            Vec::new(),
            json!({"error": "no pattern catalog loaded; POST /admin/reload with a run_dir to mine one"}),
        );
    };
    let query = request.path().split('?').nth(1).unwrap_or("");
    let category = match query_param(query, "category") {
        Some(raw) => match PatternCategory::parse(raw) {
            Some(c) => Some(c),
            None => {
                return (
                    400,
                    Vec::new(),
                    json!({"error": format!("unknown category: {raw}")}),
                )
            }
        },
        None => None,
    };
    let limit = query_param(query, "limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(PATTERNS_DEFAULT_LIMIT);

    let catalog = &out.catalog;
    let patterns: Vec<Value> = catalog
        .patterns
        .iter()
        .filter(|p| category.is_none_or(|c| p.category == c))
        .take(limit)
        .map(|p| {
            json!({
                "id": format!("{:016x}", p.id),
                "pattern": p.render(),
                "category": p.category.label(),
                "users": p.user_count,
                "support": p.support,
                "score": p.score,
            })
        })
        .collect();
    let categories: Value = catalog
        .category_counts()
        .iter()
        .map(|(c, n)| (c.label().to_string(), json!(n)))
        .collect::<serde_json::Map<_, _>>()
        .into();
    let pairs: Vec<Value> = catalog
        .pairs
        .iter()
        .take(PATTERNS_PAIR_LIMIT)
        .map(|p| {
            json!({
                "a": symbol_label(p.a),
                "b": symbol_label(p.b),
                "users": p.count,
                "jaccard": p.jaccard,
            })
        })
        .collect();
    (
        200,
        Vec::new(),
        json!({
            "n_users": catalog.n_users,
            "total_patterns": catalog.patterns.len(),
            "returned": patterns.len(),
            "categories": categories,
            "patterns": patterns,
            "top_pairs": pairs,
        }),
    )
}

/// A ready-to-serialize response: status, extra headers, JSON body.
type Response = (u16, Vec<(&'static str, String)>, Value);

/// A typed `/predict` failure. Each variant maps to exactly one HTTP
/// status, so the request path never panics and never invents ad-hoc
/// codes — the `?` operator carries failures here and
/// [`RequestError::response`] is the single place they become wire
/// bytes.
#[derive(Debug)]
enum RequestError {
    /// Malformed body, wrong feature width, missing fields → 400.
    BadRequest(String),
    /// Named model is not in the registry → 404.
    UnknownModel(String),
    /// Multiple models served but no `model` field → 400.
    ModelRequired,
    /// The target shard's admission queue is full → 503 +
    /// `Retry-After` from that shard's queue depth and drain rate.
    Overloaded {
        /// Rows queued at rejection time (returned to the client).
        queued_rows: usize,
        /// The shard's Retry-After estimate, in seconds.
        retry_after_s: u64,
    },
    /// The request's uncached rows exceed the shard's whole admission
    /// bound, so no retry can succeed → 413, no `Retry-After`.
    TooLarge {
        /// Rows the request needed admitted.
        rows: usize,
        /// The shard's admission bound, in rows.
        capacity: usize,
    },
    /// Batcher is draining for shutdown → 503 + Retry-After.
    ShuttingDown,
    /// A batch worker dropped the reply channel → 500.
    WorkerFailed,
    /// A server-side invariant broke; the message is static so no
    /// internal state leaks to the client → 500.
    Internal(&'static str),
}

impl RequestError {
    fn response(self) -> Response {
        match self {
            RequestError::BadRequest(msg) => (400, Vec::new(), json!({"error": msg})),
            RequestError::UnknownModel(name) => {
                (404, Vec::new(), json!({"error": format!("unknown model: {name}")}))
            }
            RequestError::ModelRequired => (
                400,
                Vec::new(),
                json!({"error": "model field is required when serving multiple models"}),
            ),
            RequestError::Overloaded { queued_rows, retry_after_s } => (
                503,
                vec![("Retry-After", retry_after_s.to_string())],
                json!({
                    "error": "overloaded",
                    "queued_rows": queued_rows,
                    "retry_after_s": retry_after_s,
                }),
            ),
            RequestError::TooLarge { rows, capacity } => (
                413,
                Vec::new(),
                json!({
                    "error": format!(
                        "request needs {rows} rows admitted; a shard admits at most {capacity}"
                    ),
                    "rows": rows,
                    "capacity": capacity,
                }),
            ),
            RequestError::ShuttingDown => (
                503,
                vec![("Retry-After", "1".to_string())],
                json!({"error": "shutting down"}),
            ),
            RequestError::WorkerFailed => {
                (500, Vec::new(), json!({"error": "prediction worker failed"}))
            }
            RequestError::Internal(what) => (500, Vec::new(), json!({"error": what})),
        }
    }
}

fn parse_row(value: &Value) -> Option<Vec<f64>> {
    let items = value.as_array()?;
    let row: Vec<f64> = items.iter().filter_map(Value::as_f64).collect();
    (row.len() == items.len() && !row.is_empty()).then_some(row)
}

/// Extracts `(rows, is_batch)` from a predict body.
fn parse_rows(body: &Value) -> Result<(Vec<Vec<f64>>, bool), &'static str> {
    if let Some(raw) = body["rows"].as_array() {
        if raw.is_empty() {
            return Err("rows must be a non-empty array of number arrays");
        }
        let rows: Option<Vec<Vec<f64>>> = raw.iter().map(parse_row).collect();
        match rows {
            Some(rows) => Ok((rows, true)),
            None => Err("rows must be a non-empty array of number arrays"),
        }
    } else if body.get("features").is_some() {
        match parse_row(&body["features"]) {
            Some(row) => Ok((vec![row], false)),
            None => Err("features must be a non-empty number array"),
        }
    } else {
        Err("body needs a features array or a rows array of arrays")
    }
}

/// `(model, rows, is_batch)` as read from a predict body.
type PredictBody<'a> = (Option<&'a str>, Vec<Vec<f64>>, bool);

/// Reads the predict bodies clients send straight into
/// `(model, rows, is_batch)`, without building a `Value` tree: one
/// object with either `"rows"` (non-empty arrays of numbers) or
/// `"features"` (one such array), and an optional `"model"` string, in
/// any key order and with any JSON whitespace. Every other body —
/// escapes, non-ASCII bytes, a non-string `model`, unknown or repeated
/// keys, both row keys, empty or nested arrays, trailing bytes —
/// returns `None`, and the caller parses it with `ConnBufs::json` and
/// [`parse_rows`] instead, so errors keep their status and text.
fn scan_predict(body: &[u8]) -> Option<PredictBody<'_>> {
    let mut scan = Scan { text: std::str::from_utf8(body).ok()?, pos: 0 };
    scan.eat(b'{')?;
    let mut model = None;
    let mut rows = None;
    loop {
        let key = scan.string()?;
        scan.eat(b':')?;
        match key {
            "model" if model.is_none() => model = Some(scan.string()?),
            "rows" if rows.is_none() => rows = Some((scan.array(Scan::row)?, true)),
            "features" if rows.is_none() => rows = Some((vec![scan.row()?], false)),
            _ => return None,
        }
        match scan.byte()? {
            b',' => {}
            b'}' => break,
            _ => return None,
        }
    }
    scan.skip_ws();
    let (rows, is_batch) = rows?;
    (scan.pos == scan.text.len()).then_some((model, rows, is_batch))
}

/// Cursor over a predict body for [`scan_predict`].
struct Scan<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.text.as_bytes().get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next byte after any whitespace.
    fn byte(&mut self) -> Option<u8> {
        self.skip_ws();
        let b = *self.text.as_bytes().get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Consumes `want` after any whitespace.
    fn eat(&mut self, want: u8) -> Option<()> {
        (self.byte()? == want).then_some(())
    }

    /// A string of ASCII bytes without escapes.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        let rest = self.text.get(self.pos..)?;
        let len = rest.bytes().position(|b| b == b'"' || b == b'\\' || !b.is_ascii())?;
        if rest.as_bytes().get(len) != Some(&b'"') {
            return None;
        }
        self.pos += len + 1;
        rest.get(..len)
    }

    /// A non-empty array whose items `item` reads.
    fn array<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        loop {
            // nd-lint: allow(unbounded-growth) — each item consumes body bytes, and bodies are capped at `max_body_bytes`
            items.push(item(self)?);
            match self.byte()? {
                b',' => {}
                b']' => return Some(items),
                _ => return None,
            }
        }
    }

    fn row(&mut self) -> Option<Vec<f64>> {
        self.array(Scan::number)
    }

    /// One number, tokenized and converted exactly as the vendored
    /// `serde_json` parser does it: the greedy token `-?[0-9.eE+-]*`;
    /// without `.`, `e`, `E`, `+` or an inner `-` it tries `u64`, then
    /// `i64`, before `f64`. The order shows in the bits: `-0` parses
    /// as the integer 0 and becomes `+0.0`, not `-0.0`.
    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let rest = self.text.get(self.pos..)?;
        let sign = usize::from(rest.starts_with('-'));
        let tail = rest.as_bytes().get(sign..)?;
        if sign == 0 && !tail.first()?.is_ascii_digit() {
            return None;
        }
        let len = tail
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(tail.len());
        let integer = tail.get(..len)?.iter().all(u8::is_ascii_digit);
        let token = rest.get(..sign + len)?;
        self.pos += sign + len;
        if integer {
            if let Ok(n) = token.parse::<u64>() {
                return Some(n as f64);
            }
            if let Ok(n) = token.parse::<i64>() {
                return Some(n as f64);
            }
        }
        token.parse::<f64>().ok()
    }
}

/// The handle serving `name`, or the only model when no name is given.
fn lookup_model(shared: &Shared, name: Option<&str>) -> Result<Arc<ModelHandle>, RequestError> {
    match name {
        Some(name) => {
            shared.registry.get(name).ok_or_else(|| RequestError::UnknownModel(name.to_string()))
        }
        None => shared.registry.single().ok_or(RequestError::ModelRequired),
    }
}

fn handle_predict(shared: &Arc<Shared>, request: &ConnBufs) -> Response {
    predict_inner(shared, request).unwrap_or_else(RequestError::response)
}

fn predict_inner(
    shared: &Arc<Shared>,
    request: &ConnBufs,
) -> Result<Response, RequestError> {
    let started = Instant::now();

    let (handle, rows, is_batch) = match scan_predict(request.body()) {
        Some((model, rows, is_batch)) => (lookup_model(shared, model)?, rows, is_batch),
        None => {
            let body = request
                .json()
                .map_err(|e| RequestError::BadRequest(format!("invalid JSON: {e}")))?;
            let handle = lookup_model(shared, body["model"].as_str())?;
            let (rows, is_batch) =
                parse_rows(&body).map_err(|msg| RequestError::BadRequest(msg.into()))?;
            (handle, rows, is_batch)
        }
    };
    if let Some(bad) = rows.iter().find(|r| r.len() != handle.input_dim) {
        return Err(RequestError::BadRequest(format!(
            "feature vector has {} values, model {} expects {}",
            bad.len(),
            handle.name,
            handle.input_dim
        )));
    }
    // `1e999` parses to infinity; a non-finite input would come back
    // as non-finite scores, which serialize as 0.0.
    if rows.iter().flatten().any(|x| !x.is_finite()) {
        return Err(RequestError::BadRequest("feature values must be finite".into()));
    }

    // Route to the model's shard: its cache, its batcher, its queue.
    let shard: Arc<Shard> = shared.shards.route(&handle.name);

    // Cache pass. The admitted handle pins the version: a hot swap
    // between here and the forward pass changes nothing for this
    // request.
    let mut scores: Vec<Option<Vec<f64>>> = Vec::with_capacity(rows.len());
    let mut miss_indices = Vec::new();
    {
        let mut cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
        for (i, row) in rows.iter().enumerate() {
            match cache.get(&handle.name, handle.version, row) {
                Some(hit) => scores.push(Some(hit)),
                None => {
                    scores.push(None);
                    miss_indices.push(i);
                }
            }
        }
    }
    let hits = rows.len() - miss_indices.len();
    shared.metrics.cache_hits.add(hits as u64);
    shared.metrics.cache_misses.add(miss_indices.len() as u64);

    if !miss_indices.is_empty() {
        let miss_rows: Vec<Vec<f64>> =
            miss_indices.iter().map(|&i| rows[i].clone()).collect();
        let receiver =
            shard.batcher.submit(Arc::clone(&handle), miss_rows).map_err(|e| match e {
                SubmitError::Overloaded { queued_rows } => RequestError::Overloaded {
                    queued_rows,
                    retry_after_s: shard.retry_after_secs(),
                },
                SubmitError::TooLarge { rows, capacity } => {
                    RequestError::TooLarge { rows, capacity }
                }
                SubmitError::ShuttingDown => RequestError::ShuttingDown,
            })?;
        let outputs = receiver.recv().map_err(|_| RequestError::WorkerFailed)?;
        // Finite features can still overflow inside the forward pass
        // (±5e307 in alternate columns of a 308-wide MLP gives NaN);
        // a non-finite score would serialize as 0.0, so it is refused
        // before it reaches the cache.
        if outputs.iter().flatten().any(|x| !x.is_finite()) {
            return Err(RequestError::BadRequest(
                "feature values overflow the model's scores".into(),
            ));
        }
        let mut cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
        for (&i, output) in miss_indices.iter().zip(outputs) {
            cache.insert(&handle.name, handle.version, &rows[i], output.clone());
            scores[i] = Some(output);
        }
    }

    shared.metrics.predictions.add(rows.len() as u64);
    shard.latency.observe(elapsed_us(started));

    let mut results: Vec<(Vec<f64>, usize)> = Vec::with_capacity(scores.len());
    for s in scores {
        let s = s.ok_or(RequestError::Internal("row resolved by neither cache nor batcher"))?;
        let class = argmax(&s).unwrap_or(0);
        results.push((s, class));
    }
    let body = if is_batch {
        let predictions: Vec<Value> = results
            .iter()
            .map(|(s, class)| json!({"scores": s, "class": class}))
            .collect();
        json!({
            "model": handle.name,
            "version": handle.version,
            "predictions": predictions,
        })
    } else {
        let (s, class) =
            results.first().ok_or(RequestError::Internal("empty result set"))?;
        json!({
            "model": handle.name,
            "version": handle.version,
            "scores": s,
            "class": class,
        })
    };
    Ok((200, Vec::new(), body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::registry::ModelSpec;
    use nd_core::checkpoint::save_checkpoint;
    use nd_core::predict::build_mlp;
    use nd_linalg::Mat;
    use nd_store::Database;
    use std::io::{Read, Write};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ndsrv-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn boot(dir: &PathBuf, dim: usize) -> Server {
        boot_with(dir, dim, ServeConfig::default())
    }

    fn boot_with(dir: &PathBuf, dim: usize, config: ServeConfig) -> Server {
        Server::start(config, likes_registry(dir, dim)).unwrap()
    }

    fn likes_registry(dir: &PathBuf, dim: usize) -> Registry {
        {
            let mut db = Database::open(dir).unwrap();
            save_checkpoint(&mut db, "likes", &build_mlp(dim, 11)).unwrap();
        }
        let spec = ModelSpec::new("likes", dim, move || build_mlp(dim, 0));
        Registry::load(dir, vec![spec], 2).unwrap()
    }

    #[test]
    fn healthz_models_and_metrics_respond() {
        let dir = tmpdir("basic");
        let server = boot(&dir, 6);
        let mut client = Client::connect(server.addr()).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.json().unwrap()["status"].as_str(), Some("ok"));

        let models = client.get("/models").unwrap();
        assert_eq!(models.status, 200);
        let list = models.json().unwrap();
        assert_eq!(list["models"][0]["name"].as_str(), Some("likes"));
        assert_eq!(list["models"][0]["version"].as_u64(), Some(1));
        let owner = list["models"][0]["shard"].as_u64().unwrap();
        assert!(owner < 4, "owner shard in range: {owner}");

        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let text = metrics.text();
        assert!(text.contains("nd_serve_requests_total{endpoint=\"healthz\"} 1"), "{text}");
        assert!(text.contains("nd_serve_model_version{model=\"likes\"} 1"));
        assert!(text.contains("nd_serve_shards 4"), "{text}");
        assert!(text.contains("nd_serve_shard_queue_rows{shard=\"0\"}"), "{text}");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connection_past_the_cap_gets_503_at_the_door() {
        let dir = tmpdir("cap");
        let server =
            Server::start_capped(ServeConfig::default(), likes_registry(&dir, 6), 2).unwrap();
        let addr = server.addr();
        // The acceptor takes connections in order and counts each one
        // before its next `accept`, so two idle connections fill the
        // cap before a third arrives.
        let mut held: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut third = TcpStream::connect(addr).unwrap();
        let mut reply = String::new();
        third.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
        assert!(reply.contains("\r\nRetry-After: 1\r\n"), "{reply}");

        // Closing one frees its slot once its handler has seen the EOF.
        drop(held.pop());
        while server.shared.open_conns.load(Ordering::SeqCst) > 1 {
            std::thread::yield_now();
        }
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);

        drop((held, client));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_wakes_an_acceptor_bound_to_the_wildcard_address() {
        let dir = tmpdir("wildcard");
        let config = ServeConfig { addr: "0.0.0.0:0".to_string(), ..ServeConfig::default() };
        let server = boot_with(&dir, 6, config);
        assert!(server.addr().ip().is_unspecified(), "{}", server.addr());
        let loopback = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        let mut client = Client::connect(loopback).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);

        // Returning at all shows the wake reached `accept`; the
        // acceptor dropped the listener on its way out.
        server.shutdown();
        let refused = TcpStream::connect(loopback).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused, "{refused}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_single_matches_offline() {
        let dir = tmpdir("predict");
        let server = boot(&dir, 6);
        let handle = server.registry().get("likes").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let features: Vec<f64> = (0..6).map(|j| 0.25 * j as f64 - 0.5).collect();
        let response = client
            .post_json("/predict", &json!({"features": features}))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let body = response.json().unwrap();

        let offline = handle
            .network
            .predict_batch(&Mat::from_rows(std::slice::from_ref(&features)).unwrap());
        let served: Vec<f64> = body["scores"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(served, offline.row(0).to_vec(), "served scores must be bit-identical");
        assert_eq!(body["class"].as_u64(), Some(argmax(offline.row(0)).unwrap() as u64));
        assert_eq!(body["version"].as_u64(), Some(1));

        // The predict latency surfaced in per-shard and merged series.
        let metrics = client.get("/metrics").unwrap();
        let text = metrics.text();
        assert!(text.contains("nd_serve_predict_quantiles_us{quantile=\"0.99\"}"), "{text}");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_predict_is_observed_once_per_series_and_no_bucket_series_renders() {
        let dir = tmpdir("observed");
        let server = boot(&dir, 6);
        let mut client = Client::connect(server.addr()).unwrap();
        let n = 5;
        for i in 0..n {
            let features: Vec<f64> = (0..6).map(|j| (i * 6 + j) as f64 * 0.1).collect();
            let response = client.post_json("/predict", &json!({"features": features})).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
        // One connection: its handler observes each predict's latency
        // before it reads the scrape.
        let text = client.get("/metrics").unwrap().text();
        let value = |series: &str| -> Option<u64> {
            let line = text.lines().find(|l| l.starts_with(series))?;
            line.rsplit(' ').next()?.parse().ok()
        };
        assert_eq!(value("nd_serve_predict_quantiles_us_count{"), Some(n), "{text}");
        assert_eq!(value("nd_serve_latency_us_count{endpoint=\"predict\"}"), Some(n), "{text}");
        // No series carries an `le` bucket label (`model="` also ends
        // in `le="`, so match the label name at a label boundary).
        assert!(!text.contains("{le=\"") && !text.contains(",le=\""), "{text}");

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_validation_errors() {
        let dir = tmpdir("validate");
        let server = boot(&dir, 6);
        let mut client = Client::connect(server.addr()).unwrap();

        let bad_dim = client
            .post_json("/predict", &json!({"features": [1.0, 2.0]}))
            .unwrap();
        assert_eq!(bad_dim.status, 400);
        assert!(bad_dim.json().unwrap()["error"].as_str().unwrap().contains("expects 6"));

        let no_rows = client.post_json("/predict", &json!({"rows": []})).unwrap();
        assert_eq!(no_rows.status, 400);

        let unknown = client
            .post_json("/predict", &json!({"model": "ghost", "features": vec![0.0; 6]}))
            .unwrap();
        assert_eq!(unknown.status, 404);

        let not_json = client.request("POST", "/predict", None).unwrap();
        assert_eq!(not_json.status, 400);

        let wrong_method = client.get("/predict").unwrap();
        assert_eq!(wrong_method.status, 405);

        let missing = client.get("/nope").unwrap();
        assert_eq!(missing.status, 404);

        // `1e999` parses to infinity. `post_json` takes a `Value`,
        // which cannot carry the literal, so these bodies go out raw:
        // the first through the scanner, the second (an escaped model
        // name) through the `Value` path.
        for body in [
            r#"{"model":"likes","features":[1e999,0.5,0.25,0.3,0.1,0.2]}"#,
            r#"{"model":"lik\u0065s","rows":[[0.5,0.25,0.3,0.1,0.2,-1e999]]}"#,
        ] {
            let raw = post_raw(&server, body);
            assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
            assert!(raw.ends_with(r#"{"error":"feature values must be finite"}"#), "{raw}");
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        // Finite features can still overflow inside the forward pass:
        // ±5e307 in alternate columns of a 308-wide row sums past
        // f64::MAX, and the scores come out NaN.
        let dir = tmpdir("validate-wide");
        let server = boot(&dir, 308);
        let row: Vec<f64> = (0..308).map(|j| if j % 2 == 0 { 5e307 } else { -5e307 }).collect();
        let offline = build_mlp(308, 11).predict_batch(&Mat::from_rows(&[row]).unwrap());
        assert!(offline.row(0).iter().all(|x| x.is_nan()), "{:?}", offline.row(0));
        let features = ["5e307", "-5e307"].repeat(154).join(",");
        let body = format!(r#"{{"features":[{features}]}}"#);
        let raw = post_raw(&server, &body);
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
        assert!(raw.ends_with(r#"{"error":"feature values overflow the model's scores"}"#));
        // The refused scores never reached the cache.
        assert!(post_raw(&server, &body).starts_with("HTTP/1.1 400 "));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sends `body` to `/predict` as raw bytes on a fresh connection
    /// and returns the raw response.
    fn post_raw(server: &Server, body: &str) -> String {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let head = format!("Content-Length: {}\r\nConnection: close", body.len());
        write!(stream, "POST /predict HTTP/1.1\r\n{head}\r\n\r\n{body}").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
    }

    /// `(model, is_batch, row bits)` as the `Value` path reads `body`:
    /// `ConnBufs::json`, the `model` field and [`parse_rows`]; `None`
    /// where that path rejects it.
    fn value_path(body: &[u8]) -> Option<(Option<String>, bool, Vec<Vec<u64>>)> {
        let value = ConnBufs::with_body(body).json().ok()?;
        let (rows, is_batch) = parse_rows(&value).ok()?;
        Some((value["model"].as_str().map(String::from), is_batch, bits(&rows)))
    }

    /// Whether the scanner accepts `body`, after checking that an
    /// accepted body reads exactly as on the `Value` path.
    fn scanned_alike(body: &[u8]) -> bool {
        let Some((model, rows, is_batch)) = scan_predict(body) else { return false };
        let text = String::from_utf8_lossy(body);
        let reference = value_path(body)
            .unwrap_or_else(|| panic!("scanner accepted a body the Value path rejects: {text}"));
        let got = (model.map(String::from), is_batch, bits(&rows));
        assert_eq!(got, reference, "{text}");
        true
    }

    #[test]
    fn scanner_matches_the_value_path() {
        let accepts = |body: &str| assert!(scanned_alike(body.as_bytes()), "declined {body}");
        let declines = |body: &[u8]| {
            assert!(!scanned_alike(body), "accepted {}", String::from_utf8_lossy(body));
        };
        // Number tokens: `-0` is the integer 0 (+0.0, where a plain
        // `parse::<f64>()` gives -0.0); integers past i64/u64 fall
        // through to f64; `1e999` is infinity; `01` is 1.
        for n in [
            "-0", "1", "-9223372036854775809", "18446744073709551616", "1e999", "1E-400",
            "0.1e+2", "01", "-0.0", "9007199254740993", "0.30000000000000004", "-.5", "2.",
        ] {
            accepts(&format!(r#"{{"model":"m1","features":[{n}]}}"#));
        }
        for n in ["1-2", "-", "+1", ".5", "1e", "--1", "1.2.3", "0x1", "NaN", "1 2", "\"1\""] {
            let body = format!(r#"{{"model":"m1","features":[{n}]}}"#);
            assert!(value_path(body.as_bytes()).is_none(), "{body}");
            declines(body.as_bytes());
        }
        // Shapes: any whitespace, any key order, ragged rows (the width
        // check rejects those later, on both paths).
        accepts(" \t{\n\"model\" :\r\"m1\" , \"rows\" : [ [ 1 , 2 ] ,\n[ 3 , 4 ] ] }\r\n ");
        accepts(r#"{"rows":[[1,2]],"model":"m1"}"#);
        accepts(r#"{"features":[1,2],"model":""}"#);
        accepts(r#"{"features":[1]}"#);
        accepts(" { \"rows\" : [[1]] } ");
        accepts(r#"{"model":"m1","rows":[[1,2],[3]]}"#);
        let declined: &[&[u8]] = &[
            br#"{"model":"m1","rows":[[1]],"features":[1]}"#,
            br#"{"model":"m1","model":"m2","features":[1]}"#,
            br#"{"model":"m1","rows":[[1]],"rows":[[2]]}"#,
            br#"{"model":"m1","features":[1],"extra":0}"#,
            br#"{"model":null,"features":[1]}"#,
            br#"{"model":7,"features":[1]}"#,
            br#"{"model":"m1"}"#,
            br#"{"model":"m\u0031","features":[1]}"#,
            br#"{"model":"m\"1","features":[1]}"#,
            br#"{"m\u006fdel":"m1","features":[1]}"#,
            "{\"model\":\"m\u{e9}\",\"features\":[1]}".as_bytes(),
            br#"{"model":"m1","rows":[]}"#,
            br#"{"model":"m1","rows":[[]]}"#,
            br#"{"model":"m1","features":[]}"#,
            br#"{"model":"m1","rows":[1]}"#,
            br#"{"model":"m1","features":[[1]]}"#,
            br#"{"model":"m1","rows":[[1,[2]]]}"#,
            br#"{"model":"m1","features":[1]}x"#,
            br#"{"model":"m1","features":[1]}{}"#,
            b"{\"model\":\"m\xff\",\"features\":[1]}",
            b"{\"model\":\"m1\",\"features\":[1]}\xc3",
            br#"[{"model":"m1","features":[1]}]"#,
            b"",
        ];
        for &body in declined {
            declines(body);
        }

        // Every truncation of a valid body.
        let base = br#"{"model":"m7","rows":[[-0,1.5e3,-2E-2],[0.25,-7,12]]}"#;
        assert!(scanned_alike(base));
        for end in 0..base.len() {
            declines(&base[..end]);
        }

        // Single-byte replacements, insertions and deletions drawn from
        // JSON-significant bytes; many mutants stay valid, and each one
        // must read alike or be declined.
        let significant = b"{}[],:\"\\ \t\n\r-+.eE0123456789mrowfeatunl\x00\x80\xc3\xff";
        let mut rng = crate::loadgen::Rng::new(17);
        let mut accepted = 0;
        for _ in 0..12_000 {
            let mut body = base.to_vec();
            let at = rng.below(body.len() + 1);
            let byte = significant[rng.below(significant.len())];
            match (rng.below(3), at < body.len()) {
                (0, true) => body[at] = byte,
                (1, true) => {
                    body.remove(at);
                }
                _ => body.insert(at, byte),
            }
            accepted += usize::from(scanned_alike(&body));
        }
        assert!(accepted > 1_000, "only {accepted} mutants were read");

        // Random rows in Display, exponent and integer spellings.
        for _ in 0..200 {
            let mut rows = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let row: Vec<String> = (0..1 + rng.below(8))
                    .map(|_| {
                        let x = (rng.next_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20);
                        match rng.below(5) {
                            0 => format!("{x}"),
                            1 => format!("{x:e}"),
                            2 => format!("{x:E}"),
                            3 => format!("{}", rng.next_u64()),
                            _ => format!("-{}", rng.next_u64() >> rng.below(64)),
                        }
                    })
                    .collect();
                rows.push(format!("[{}]", row.join(",")));
            }
            accepts(&format!(r#"{{"model":"m1","rows":[{}]}}"#, rows.join(",")));
        }
    }

    #[test]
    fn batch_predict_and_cache_hits() {
        let dir = tmpdir("batchcache");
        let server = boot(&dir, 6);
        let metrics = server.metrics();
        let mut client = Client::connect(server.addr()).unwrap();

        let rows = vec![vec![0.0_f64; 6], vec![1.0; 6], vec![2.0; 6]];
        let body = json!({"rows": rows});
        let first = client.post_json("/predict", &body).unwrap();
        assert_eq!(first.status, 200, "{}", first.text());
        assert_eq!(first.json().unwrap()["predictions"].as_array().unwrap().len(), 3);
        assert_eq!(metrics.cache_misses.get(), 3);

        let second = client.post_json("/predict", &body).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(metrics.cache_hits.get(), 3, "repeat rows must hit the cache");
        assert_eq!(
            first.json().unwrap()["predictions"],
            second.json().unwrap()["predictions"],
            "cached scores are the same bytes"
        );

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_to_new_checkpoint() {
        let dir = tmpdir("reload");
        let server = boot(&dir, 6);
        let mut client = Client::connect(server.addr()).unwrap();

        let noop = client.post_json("/admin/reload", &json!({})).unwrap();
        assert_eq!(noop.status, 200);
        assert_eq!(noop.json().unwrap()["swapped"].as_array().unwrap().len(), 0);

        {
            let mut db = Database::open(&dir).unwrap();
            save_checkpoint(&mut db, "likes", &build_mlp(6, 77)).unwrap();
        }
        let reload = client.post_json("/admin/reload", &json!({})).unwrap();
        assert_eq!(reload.status, 200);
        let swapped = reload.json().unwrap();
        assert_eq!(swapped["swapped"][0]["to"].as_u64(), Some(2));
        assert_eq!(server.registry().get("likes").unwrap().version, 2);
        assert_eq!(server.metrics().model_swaps.get(), 1);

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_config_still_serves() {
        let dir = tmpdir("oneshard");
        let server = boot_with(
            &dir,
            6,
            ServeConfig {
                shard: ShardConfig { shards: 1, ..ShardConfig::default() },
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.shard_count(), 1);
        let mut client = Client::connect(server.addr()).unwrap();
        let response = client
            .post_json("/predict", &json!({"features": vec![0.5; 6]}))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_larger_than_the_queue_gets_413_not_503() {
        let dir = tmpdir("toolarge");
        let server = boot_with(
            &dir,
            3,
            ServeConfig {
                batch: BatchConfig { queue_capacity: 8, ..BatchConfig::default() },
                ..ServeConfig::default()
            },
        );
        let mut client = Client::connect(server.addr()).unwrap();
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, 0.5, -0.5]).collect();

        // Nine uncached rows can never fit an 8-row queue: a retry
        // cannot help, so no 503 and no Retry-After.
        let too_large = client.post_json("/predict", &json!({"rows": rows})).unwrap();
        assert_eq!(too_large.status, 413, "{}", too_large.text());
        assert_eq!(too_large.header("retry-after"), None);
        let body = too_large.json().unwrap();
        assert_eq!(body["rows"].as_u64(), Some(9), "{body}");
        assert_eq!(body["capacity"].as_u64(), Some(8), "{body}");
        let error = body["error"].as_str().unwrap();
        assert!(error.contains('9') && error.contains('8'), "{error}");
        assert_eq!(server.metrics().overload_rejections.get(), 0);

        // Exactly the bound fits an idle shard.
        let fits = client.post_json("/predict", &json!({"rows": rows[..8]})).unwrap();
        assert_eq!(fits.status, 200, "{}", fits.text());
        assert_eq!(fits.json().unwrap()["predictions"].as_array().unwrap().len(), 8);

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
