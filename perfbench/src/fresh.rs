//! The `freshness` workload and the fold / projection / training probes.
//!
//! A server with a stream retrainer attached is advanced through the
//! whole firehose horizon, one `POST /admin/reload
//! {"advance_stream":true}` per slice, from a cold stream cache. After
//! each advance that swaps the model, the benchmark probes `/predict` until
//! the new version answers. Meanwhile one open-loop sender sends
//! cache-busting single-row predicts at a fixed low rate.
//!
//! The probes replay the call sequence of `StreamRetrainer::advance`
//! from outside: decode → fold → artifact save → projections → fit →
//! checkpoint save → registry refresh → first predict, each in a span.

use crate::request::{
    check_answer, generator_threads, parse_answer, Counters, Gen, LoopOut, Probe, Req, LATE_LIMIT,
};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{metric, Opts, Scenario, Tally};
use nd_core::checkpoint::save_checkpoint;
use nd_core::correlate::correlate;
use nd_core::features::{assign_tweets, build_dataset, DatasetVariant};
use nd_core::incremental::{fold_stages, FoldStage, StreamArtifact, StreamConfig, StreamPipeline};
use nd_core::predict::{NetworkKind, PredictConfig, Target};
use nd_core::stage::correlated_events;
use nd_core::trending::extract_trending;
use nd_neural::{Trainer, TrainerConfig};
use nd_serve::loadgen::Rng;
use nd_serve::{
    BatchConfig, Client, ModelHandle, ModelSpec, Registry, RetrainModel, ServeConfig, Server,
    ShardConfig, StreamRetrainSpec, TrafficMix,
};
use nd_store::{ArtifactStore, ByteReader, ByteWriter, Database};
use nd_synth::{FirehoseConfig, WorldConfig};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streaming embedding width, which is also the served model's input.
const EMBED_DIM: usize = 16;
/// The served, retrained model.
const MODEL: &str = "likes";
/// Offered rate of the background probe sender.
const PROBE_RPS: f64 = 100.0;
/// Catch-up cycles per run, at least (each one boots its own server).
const MIN_CYCLES: usize = 3;
/// Priming predicts sent during set-up.
const PRIME_REQUESTS: usize = 200;
/// Tries to see a new version answer before the advance counts as failed.
const MAX_PROBES: usize = 1000;

/// The single-row cache-busting traffic of the probe sender.
pub fn probe_mix() -> TrafficMix {
    TrafficMix {
        models: vec![MODEL.to_string()],
        skew: 0.0,
        dim: EMBED_DIM,
        cache_bust: true,
        batch_rows: 1,
        row_pool: 1,
    }
}

/// The retrain spec: a multi-day firehose in 24-hour slices (`--quick`:
/// 4 slices of 48 hours). The world is fixed: fold and training work
/// differ by ~20% from one world seed to the next, more than any bound,
/// so the workload seed drives only the request traffic.
pub fn spec(opts: &Opts, cache_dir: Option<&Path>) -> StreamRetrainSpec {
    let (days, slice_hours) = if opts.quick { (8, 48) } else { (12, 24) };
    let stream = StreamConfig {
        firehose: FirehoseConfig {
            world: WorldConfig {
                days,
                n_users: 150,
                min_influencers: 15,
                ..WorldConfig::small()
            },
            slice_hours,
        },
        refine_iters: 20,
        embed_dim: EMBED_DIM,
        embed_epochs: 2,
        ..StreamConfig::small()
    };
    StreamRetrainSpec {
        stream: match cache_dir {
            Some(dir) => stream.with_cache_dir(dir),
            None => stream,
        },
        variant: DatasetVariant::A1,
        predict: PredictConfig {
            batch_size: 512,
            max_epochs: 3,
            early_stopping: None,
            val_fraction: 0.2,
            seed: 7,
        },
        models: vec![RetrainModel {
            name: MODEL.to_string(),
            kind: NetworkKind::Mlp1,
            target: Target::Likes,
        }],
        dataset_seed: 11,
        trending_threshold: 0.3,
        correlation_threshold: 0.3,
    }
}

/// Writes checkpoint version 1 and loads a registry over it.
fn seeded_registry(db: &Path) -> Registry {
    let mut store = Database::open(db).expect("open the model store");
    save_checkpoint(&mut store, MODEL, &NetworkKind::Mlp1.build(EMBED_DIM, 7))
        .expect("write the seed checkpoint");
    drop(store);
    let model = ModelSpec::new(MODEL, EMBED_DIM, || NetworkKind::Mlp1.build(EMBED_DIM, 7));
    Registry::load(db, vec![model], 2).expect("load the registry")
}

fn serve_config(stream: Option<StreamRetrainSpec>) -> ServeConfig {
    ServeConfig {
        stream,
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

/// What the freshness scenario leaves for the probes.
pub struct FreshState {
    /// The last cycle's stream cache, complete over the horizon.
    pub cache: PathBuf,
    /// Per slice, mean over cycles: advance send → first answer on the
    /// new version (or the advance round trip when it did not swap), ms.
    pub per_slice_ms: Vec<f64>,
}

/// One catch-up from a cold stream cache.
struct Cycle {
    setup_s: f64,
    catchup_s: f64,
    fresh_ms: Vec<f64>,
    per_slice_ms: Vec<f64>,
    sender: LoopOut,
    counted: Counters,
    cache: PathBuf,
}

/// Sends one single-row predict; returns the answer body on a `200`.
fn predict(client: &mut Client, gen: &Gen, req: &Req) -> Option<Vec<u8>> {
    match client.post_json("/predict", &gen.body(req)) {
        Ok(r) if r.status == 200 => Some(r.body),
        _ => None,
    }
}

/// Open-loop single-row sender at `PROBE_RPS` until `stop` is set;
/// latency is charged from the scheduled arrival.
fn probe_sender(
    addr: SocketAddr,
    seed: u64,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> LoopOut {
    let mix = probe_mix();
    let mut gen = Gen::new(&mix, seed);
    let mut rng = Rng::new(seed ^ 0x5e4d);
    let start = Instant::now();
    let mut out = LoopOut {
        origin: Some(start),
        ..LoopOut::default()
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.sent = 1;
        out.failed = 1;
        return out;
    };
    let mut due = Duration::ZERO;
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        due += Duration::from_secs_f64(-rng.next_f64().max(1e-12).ln() / PROBE_RPS);
        let at = start + due;
        let now = Instant::now();
        if now < at {
            std::thread::sleep(at - now);
        } else if now > at + Duration::from_millis(10) {
            out.late += 1;
        }
        let req = gen.next_req();
        crate::request::send(
            &mut client,
            addr,
            &gen,
            req,
            Some(at),
            &mut out,
            n.is_multiple_of(8),
            tracer,
        );
        n += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

fn cycle(
    opts: &Opts,
    dir: &Path,
    index: usize,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Cycle {
    std::fs::remove_dir_all(dir).ok();
    let cache = dir.join("stream-cache");
    let spec = spec(opts, Some(&cache));
    let horizon = spec.stream.firehose.n_slices();
    let mix = probe_mix();
    let mut gen = Gen::new(&mix, opts.seed ^ ((index as u64 + 1) << 20));

    // Set-up: seed checkpoint, registry, server, primed request path.
    let t = Instant::now();
    let server = Server::start(serve_config(Some(spec)), seeded_registry(&dir.join("db")))
        .expect("start the streaming server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect to the streaming server");
    for _ in 0..if opts.quick { 10 } else { PRIME_REQUESTS } {
        let req = gen.next_req();
        tally.attempted += 1;
        if predict(&mut client, &gen, &req).is_none() {
            tally.failed += 1;
        }
    }
    let setup_s = t.elapsed().as_secs_f64();

    let handle = |version: u64| -> Option<Arc<ModelHandle>> {
        server
            .registry()
            .get(MODEL)
            .filter(|h| h.version == version)
    };
    let mut handles: HashMap<u64, Arc<ModelHandle>> = HashMap::new();
    handles.extend(handle(1).map(|h| (1, h)));
    let mut fresh_ms = Vec::new();
    let mut per_slice_ms = Vec::new();
    let mut version = 1u64;
    let metrics = server.metrics();
    let before = Counters::read(&metrics);
    let stop = AtomicBool::new(false);
    let cycle_span = tracer.map(|t| t.open("fresh.catchup", None));
    let parent = cycle_span.as_ref().map(|s| s.id());
    let start = Instant::now();
    let mut served_at = start;
    let sender = std::thread::scope(|s| {
        let sender = (generator_threads() >= 2).then(|| {
            let stop = &stop;
            s.spawn(move || {
                probe_sender(addr, opts.seed ^ ((index as u64 + 7) << 24), stop, tracer)
            })
        });
        for k in 0..horizon {
            let sent = Instant::now();
            tally.attempted += 1;
            let span = tracer.map(|t| t.open("fresh.advance", parent));
            let res = client.post_json("/admin/reload", &json!({"advance_stream": true}));
            if let Some(span) = span {
                span.end_with(vec![("slice", k as u64)]);
            }
            let body: Option<Value> = match res {
                Ok(r) if r.status == 200 => r.json().ok(),
                _ => None,
            };
            let Some(body) = body else {
                tally.failed += 1;
                if let Ok(fresh) = Client::connect(addr) {
                    client = fresh;
                }
                continue;
            };
            let stream = &body["stream"];
            if stream["head"].as_u64() != Some(k as u64 + 1)
                || stream["executed"].as_u64() != Some(6)
            {
                tally.wrong(format!("advance {k} folded the wrong slice: {stream}"));
                continue;
            }
            let swapped = body["swapped"].as_array().cloned().unwrap_or_default();
            if swapped.is_empty() {
                per_slice_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                served_at = Instant::now();
                continue;
            }
            let expected = version + 1;
            let (from, to) = (swapped[0]["from"].as_u64(), swapped[0]["to"].as_u64());
            if swapped.len() != 1 || from != Some(version) || to != Some(expected) {
                tally.wrong(format!(
                    "advance {k} swapped {swapped:?}, expected v{version} -> v{expected}"
                ));
            }
            // First answer on the new version.
            let probe_span = tracer.map(|t| t.open("fresh.first_predict", parent));
            let mut seen = None;
            for _ in 0..MAX_PROBES {
                let req = gen.next_req();
                tally.attempted += 1;
                match predict(&mut client, &gen, &req) {
                    Some(answer) => {
                        if parse_answer(&answer).map(|a| a.1) == Some(expected) {
                            seen = Some((req, answer));
                            break;
                        }
                    }
                    None => tally.failed += 1,
                }
            }
            if let Some(span) = probe_span {
                span.end();
            }
            let Some((req, answer)) = seen else {
                tally.wrong(format!("v{expected} never answered after advance {k}"));
                continue;
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            fresh_ms.push(ms);
            per_slice_ms.push(ms);
            served_at = Instant::now();
            version = expected;
            match handle(expected) {
                Some(h) => {
                    if let Err(e) = check_answer(&answer, MODEL, expected, &req.rows, &h.network) {
                        tally.wrong(e);
                    }
                    handles.insert(expected, h);
                }
                None => tally.wrong(format!(
                    "registry does not serve v{expected} after its answer"
                )),
            }
        }
        stop.store(true, Ordering::SeqCst);
        sender.map_or_else(LoopOut::default, |h| {
            h.join().expect("probe sender panicked")
        })
    });
    let catchup_s = served_at.duration_since(start).as_secs_f64();
    if let Some(span) = cycle_span {
        span.end();
    }
    let counted = Counters::read(&metrics).since(before);
    server.shutdown();
    tally.attempted += sender.sent;
    tally.failed += sender.failed;
    // Sampled sender answers against the checkpoint that served them.
    for s in &sender.samples {
        match parse_answer(&s.body).and_then(|a| handles.get(&a.1).map(|h| (a.1, h))) {
            Some((v, h)) => {
                if let Err(e) = check_answer(&s.body, MODEL, v, &s.req.rows, &h.network) {
                    tally.wrong(e);
                }
            }
            None => tally.wrong("probe answer names a version that was never served".into()),
        }
    }
    Cycle {
        setup_s,
        catchup_s,
        fresh_ms,
        per_slice_ms,
        sender,
        counted,
        cache,
    }
}

/// Runs catch-up cycles for `--seconds` (at least `MIN_CYCLES`), then
/// checks every cycle's head against a cold, uncached run.
pub fn scenario(
    opts: &Opts,
    work: &Path,
    tracer: Option<&Tracer>,
) -> (Scenario, Option<FreshState>) {
    let mut tally = Tally::default();
    let min_cycles = if opts.quick { 1 } else { MIN_CYCLES };
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut timed = 0.0;
    while cycles.len() < min_cycles || (timed < opts.seconds && !opts.quick) {
        let c = cycle(
            opts,
            &work.join(format!("cycle-{}", cycles.len())),
            cycles.len(),
            tracer,
            &mut tally,
        );
        timed += c.catchup_s;
        cycles.push(c);
    }

    // Correctness: the cached head of every cycle equals a cold,
    // uncached run over the whole horizon, and replays without folding.
    let reference = spec(opts, None);
    let horizon = reference.stream.firehose.n_slices();
    let cold = StreamPipeline::new(reference.stream)
        .run(horizon)
        .expect("cold stream run");
    let want = cold.0.content_digest();
    for c in &cycles {
        let cached = spec(opts, Some(&c.cache)).stream;
        match StreamPipeline::new(cached).run(horizon) {
            Ok((state, report)) => {
                tally.check(report.executed() == 0, || {
                    "warm stream replay folded".into()
                });
                tally.check(state.content_digest() == want, || {
                    "streamed head differs from a cold uncached run".into()
                });
            }
            Err(e) => tally.wrong(format!("stream replay failed: {e}")),
        }
    }

    let fresh: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.fresh_ms.iter().copied())
        .collect();
    tally.check(!fresh.is_empty(), || "no advance swapped the model".into());
    let mut sender = LoopOut::default();
    let mut counted = Counters::default();
    for c in &cycles {
        counted = counted.plus(c.counted);
        sender.lat_ms.extend(&c.sender.lat_ms);
        sender.sent += c.sender.sent;
        sender.ok += c.sender.ok;
        sender.late += c.sender.late;
        sender.wall_s += c.sender.wall_s;
    }
    let late_ratio = ratio(sender.late as f64, sender.sent as f64);
    if late_ratio > LATE_LIMIT {
        tally.invalid.push(format!(
            "probe sender ran late on {:.1}% of sends",
            late_ratio * 100.0
        ));
    }
    let setup = median(&cycles.iter().map(|c| c.setup_s).collect::<Vec<_>>());
    let catchup = median(&cycles.iter().map(|c| c.catchup_s).collect::<Vec<_>>());
    // Slices served per second of catch-up over all cycles: a cycle's
    // time swings ±20% with scheduling, and the pooled rate spreads about
    // a third less from run to run than a median over ~9 cycles.
    let slices_per_s = ratio(
        (horizon * cycles.len()) as f64,
        cycles.iter().map(|c| c.catchup_s).sum(),
    );
    let fresh_p50 = median(&fresh);
    let probe_p99 = quantile(&sender.lat_ms, 0.99);
    let whole: Vec<&Cycle> = cycles
        .iter()
        .filter(|c| c.per_slice_ms.len() == horizon)
        .collect();
    let per_slice_ms: Vec<f64> = (0..horizon)
        .map(|k| crate::stats::mean(&whole.iter().map(|c| c.per_slice_ms[k]).collect::<Vec<_>>()))
        .collect();
    let last = cycles.pop().expect("at least one cycle ran");
    for c in &cycles {
        std::fs::remove_dir_all(c.cache.parent().unwrap_or(&c.cache)).ok();
    }
    let scenario = Scenario {
        e2e: vec![
            metric("setup_s", setup, "s"),
            metric("goodput_per_s", slices_per_s, "1/s"),
            metric("p50_ms", fresh_p50, "ms"),
        ],
        named: vec![
            metric("fresh_p50_ms", fresh_p50, "ms"),
            metric("catchup_s", catchup, "s"),
            metric("fresh_samples", fresh.len() as f64, "count"),
            metric(
                "goodput_rps",
                ratio(sender.ok as f64, sender.wall_s),
                "req/s",
            ),
            metric("req_p50_ms", median(&sender.lat_ms), "ms"),
            metric("req_p99_ms", probe_p99, "ms"),
        ],
        layers: [
            counted.layers(),
            vec![metric("serve.loadgen.late_ratio", late_ratio, "ratio")],
        ]
        .concat(),
        samples: vec![
            (
                "setup_s",
                cycles.iter().chain([&last]).map(|c| c.setup_s).collect(),
            ),
            (
                "catchup_s",
                cycles.iter().chain([&last]).map(|c| c.catchup_s).collect(),
            ),
            ("fresh_ms", fresh),
        ],
        tally,
    };
    (
        scenario,
        Some(FreshState {
            cache: last.cache,
            per_slice_ms,
        }),
    )
}

/// Short stage name for metric names: `stream-topics` → `topics`.
fn short(stage: &dyn FoldStage) -> &'static str {
    let name = stage.name();
    name.strip_prefix("stream-").unwrap_or(name)
}

fn load(
    store: &ArtifactStore,
    stage: &dyn FoldStage,
    k: usize,
    fp: u64,
) -> Option<(StreamArtifact, Vec<u8>)> {
    let payload = store.load(&format!("{}@{k}", stage.name()), fp)?;
    let value = stage.decode(&mut ByteReader::new(&payload)).ok()?;
    Some((value, payload))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Replays `StreamRetrainer::advance` slice by slice on inputs decoded
/// from a complete stream cache (the scenario's, or one built here),
/// timing each layer call.
pub fn probes(opts: &Opts, work: &Path, tracer: &Tracer, state: Option<&FreshState>) -> Probe {
    let mut probe = Probe::default();
    let root = tracer.open("probe.fresh", None);
    let rid = Some(root.id());
    // Workloads other than freshness catch up once over HTTP here, for
    // a complete stream cache and per-advance end-to-end times.
    let own;
    let state = match state {
        Some(s) => s,
        None => {
            let c = cycle(
                opts,
                &work.join("catchup"),
                0,
                Some(tracer),
                &mut probe.tally,
            );
            own = FreshState {
                cache: c.cache,
                per_slice_ms: c.per_slice_ms,
            };
            &own
        }
    };
    let cache = state.cache.clone();
    let spec = spec(opts, Some(&cache));
    let config = spec.stream.clone();
    let pipeline = StreamPipeline::new(config.clone());
    let horizon = pipeline.firehose().n_slices();
    let fps = pipeline.fingerprints(horizon);
    let store = ArtifactStore::open(&cache).expect("open the stream cache");
    let graph = fold_stages();

    // Warm head replay: six decodes, zero folds.
    let reps = if opts.quick { 1 } else { 3 };
    let mut replay = Vec::new();
    for _ in 0..reps {
        let (res, ns) = tracer.time("core.replay.head", rid, || pipeline.run(horizon));
        replay.push(ms(ns));
        probe
            .tally
            .check(res.is_ok_and(|(_, r)| r.executed() == 0), || {
                "head replay folded".into()
            });
    }

    // A plain server over a fresh store, for refresh + first predict.
    let db = work.join("replay-db");
    std::fs::remove_dir_all(&db).ok();
    let server =
        Server::start(serve_config(None), seeded_registry(&db)).expect("start replay server");
    let mut client = Client::connect(server.addr()).expect("connect to the replay server");
    let saves = ArtifactStore::open(work.join("replay-store")).expect("open replay artifact store");
    let mut gen = Gen::new(&probe_mix(), opts.seed ^ 0xf2e5);
    let trainer = Trainer::new(TrainerConfig {
        batch_size: spec.predict.batch_size,
        max_epochs: spec.predict.max_epochs,
        early_stopping: spec.predict.early_stopping.clone(),
        seed: spec.predict.seed,
    });

    let mut fold_ms = [0.0f64; 6];
    let mut project_ms = [0.0f64; 4];
    let (mut train_ms, mut save_ms, mut bytes) = (0.0, 0.0, 0u64);
    let mut refresh_ms = Vec::new();
    let mut covered_ms = Vec::new();
    let mut version = 1u64;
    for k in 0..horizon {
        let slice_span = tracer.open("replay.advance", rid);
        let sid = Some(slice_span.id());
        let mut covered = 0u64;
        let (slice, ns) = tracer.time("synth.firehose.poll", sid, || pipeline.firehose().poll(k));
        covered += ns;
        let mut outs: Vec<StreamArtifact> = Vec::with_capacity(graph.len());
        for (si, stage) in graph.iter().enumerate() {
            let prev = if k > 0 {
                let (p, ns) = tracer.time("core.replay.decode", sid, || {
                    load(&store, *stage, k - 1, fps[si][k - 1])
                });
                covered += ns;
                match p {
                    Some((p, _)) => Some(p),
                    None => {
                        probe.tally.wrong(format!(
                            "{}@{} missing from the stream cache",
                            stage.name(),
                            k - 1
                        ));
                        None
                    }
                }
            } else {
                None
            };
            let ups: Vec<&StreamArtifact> = stage
                .deps()
                .iter()
                .filter_map(|d| {
                    graph
                        .iter()
                        .position(|g| g.name() == *d)
                        .and_then(|i| outs.get(i))
                })
                .collect();
            let (value, ns) = tracer.time(&format!("core.fold.{}", short(*stage)), sid, || {
                stage.fold(&config, prev.as_ref(), &ups, &slice)
            });
            covered += ns;
            fold_ms[si] += ms(ns);
            let value = value.expect("fold on cached inputs");
            let (written, ns) = tracer.time("store.artifact.save", sid, || {
                let mut w = ByteWriter::new();
                stage.encode(&value, &mut w).expect("encode fold output");
                saves
                    .save(&format!("{}@{k}", stage.name()), fps[si][k], w.as_bytes())
                    .expect("save artifact");
                w.into_bytes()
            });
            covered += ns;
            bytes += written.len() as u64;
            let cached = load(&store, *stage, k, fps[si][k]).map(|(_, p)| p);
            probe
                .tally
                .check(cached.as_deref() == Some(written.as_slice()), || {
                    format!(
                        "{}@{k} refolded differently from the cached artifact",
                        stage.name()
                    )
                });
            outs.push(value);
        }

        // Projections over the head state, as StreamRetrainer does.
        let world = outs[0].as_world().expect("collect artifact");
        let corpora = outs[1].as_corpora().expect("preprocess artifact");
        let topics = outs[3].as_topics().expect("topics artifact");
        let events = &outs[4].as_events().expect("events artifact").events;
        let vectors = &outs[5].as_vectors().expect("embed artifact").vectors;
        let (trending, ns) = tracer.time("core.project.trending", sid, || {
            extract_trending(
                &topics.topics,
                &events.news,
                vectors,
                spec.trending_threshold,
            )
        });
        project_ms[0] += ms(ns);
        covered += ns;
        let (correlated, ns) = tracer.time("core.project.correlate", sid, || {
            let forward = correlate(
                &trending,
                &events.twitter,
                vectors,
                spec.correlation_threshold,
            );
            correlated_events(&forward, &events.twitter)
        });
        project_ms[1] += ms(ns);
        covered += ns;
        let (assignments, ns) = tracer.time("core.project.assign", sid, || {
            assign_tweets(&correlated, &world.tweets, &corpora.twitter_ed)
        });
        project_ms[2] += ms(ns);
        covered += ns;
        let (dataset, ns) = tracer.time("core.project.dataset", sid, || {
            build_dataset(
                spec.variant,
                &correlated,
                &assignments,
                &world.tweets,
                &corpora.twitter_ed,
                vectors,
                spec.dataset_seed,
            )
        });
        project_ms[3] += ms(ns);
        covered += ns;

        if !dataset.is_empty() {
            for model in &spec.models {
                let (network, ns) = tracer.time("neural.train", sid, || {
                    let mut network = model.kind.build(dataset.x.cols(), spec.predict.seed);
                    let mut optimizer = model.kind.optimizer();
                    let y = match model.target {
                        Target::Likes => &dataset.y_likes,
                        Target::Retweets => &dataset.y_retweets,
                    };
                    trainer.fit(&mut network, &dataset.x, y, optimizer.as_mut());
                    network
                });
                train_ms += ms(ns);
                covered += ns;
                let (saved, ns) = tracer.time("core.checkpoint.save", sid, || {
                    let mut db = Database::open(&db)?;
                    save_checkpoint(&mut db, &model.name, &network)
                });
                save_ms += ms(ns);
                covered += ns;
                probe
                    .tally
                    .check(saved.is_ok(), || "checkpoint save failed".into());
            }
            let (swaps, ns) = tracer.time("serve.registry.refresh", sid, || {
                server.registry().refresh()
            });
            refresh_ms.push(ms(ns));
            covered += ns;
            let expected = version + 1;
            let swapped_once = swaps
                .as_ref()
                .is_ok_and(|s| s.len() == 1 && s[0].to == expected);
            probe.tally.check(swapped_once, || {
                format!("refresh at slice {k} did not swap to v{expected}")
            });
            version = expected;
            let req = gen.next_req();
            let (answer, ns) = tracer.time("serve.first_predict", sid, || {
                predict(&mut client, &gen, &req)
            });
            covered += ns;
            let served = answer.and_then(|a| parse_answer(&a)).map(|a| a.1);
            probe.tally.check(served == Some(expected), || {
                format!("first predict after refresh served {served:?}")
            });
        }
        slice_span.end();
        covered_ms.push(ms(covered));
    }
    server.shutdown();
    root.end();

    for (si, stage) in graph.iter().enumerate() {
        probe.metrics.push(metric(
            format!("core.fold.{}_ms", short(*stage)),
            fold_ms[si],
            "ms",
        ));
    }
    probe
        .metrics
        .push(metric("core.replay.head_ms", median(&replay), "ms"));
    for (i, name) in ["trending", "correlate", "assign", "dataset"]
        .iter()
        .enumerate()
    {
        probe.metrics.push(metric(
            format!("core.project.{name}_ms"),
            project_ms[i],
            "ms",
        ));
    }
    probe
        .metrics
        .push(metric("neural.train_ms", train_ms, "ms"));
    probe
        .metrics
        .push(metric("core.checkpoint.save_ms", save_ms, "ms"));
    probe.metrics.push(metric(
        "serve.registry.refresh_ms",
        median(&refresh_ms),
        "ms",
    ));
    probe.metrics.push(metric(
        "store.artifact.bytes_written",
        bytes as f64,
        "bytes",
    ));

    // Freshness remainder: per advance, the end-to-end time the HTTP
    // path took minus what the replayed layer calls cover.
    let gaps: Vec<f64> = state
        .per_slice_ms
        .iter()
        .zip(&covered_ms)
        .map(|(e, c)| e - c)
        .collect();
    probe.tally.check(gaps.len() == horizon, || {
        "per-advance times do not cover the horizon".into()
    });
    let uncovered = crate::stats::mean(&gaps);
    probe.notes.push(format!(
        "freshness: per advance end-to-end {:.1} ms, replayed calls cover {:.1} ms, uncovered {uncovered:.1} ms (means over {} slices)",
        crate::stats::mean(&state.per_slice_ms),
        crate::stats::mean(&covered_ms),
        gaps.len()
    ));
    probe
        .metrics
        .push(metric("fresh.uncovered_ms", uncovered, "ms"));
    probe
}
