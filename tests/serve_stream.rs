//! Streaming refresh loop, end to end: `POST /admin/reload
//! {"advance_stream": true}` folds one firehose slice per call
//! through the incremental DAG onto the head state the retrainer holds
//! in memory (nothing replays), retrains the served model on the new
//! head state, hot-swaps the checkpoint, and surfaces per-slice
//! fold/staleness gauges on `GET /metrics`.

use newsdiff::core::checkpoint::save_checkpoint;
use newsdiff::core::features::DatasetVariant;
use newsdiff::core::incremental::StreamConfig;
use newsdiff::core::predict::{NetworkKind, PredictConfig, Target};
use newsdiff::serve::{
    Client, ModelSpec, Registry, RetrainModel, ServeConfig, Server, StreamRetrainSpec,
};
use newsdiff::store::Database;
use newsdiff::synth::{FirehoseConfig, WorldConfig};
use serde_json::json;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ndstream-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

const EMBED_DIM: usize = 16;

/// An 8-day world in 48-hour slices (4 slices): big enough for MABED
/// to find bursts and the projections to correlate them, small enough
/// that one advance folds in well under a second.
fn stream_spec(cache_dir: PathBuf) -> StreamRetrainSpec {
    StreamRetrainSpec {
        stream: StreamConfig {
            firehose: FirehoseConfig {
                world: WorldConfig {
                    days: 8,
                    n_users: 150,
                    min_influencers: 15,
                    ..WorldConfig::small()
                },
                slice_hours: 48,
            },
            refine_iters: 20,
            embed_dim: EMBED_DIM,
            embed_epochs: 2,
            ..StreamConfig::small()
        }
        .with_cache_dir(cache_dir),
        variant: DatasetVariant::A1,
        predict: PredictConfig {
            batch_size: 512,
            max_epochs: 3,
            early_stopping: None,
            val_fraction: 0.2,
            seed: 7,
        },
        models: vec![RetrainModel {
            name: "likes".to_string(),
            kind: NetworkKind::Mlp1,
            target: Target::Likes,
        }],
        dataset_seed: 11,
        trending_threshold: 0.3,
        correlation_threshold: 0.3,
    }
}

#[test]
fn advance_stream_folds_retrains_and_swaps_slice_by_slice() {
    let db_dir = tmpdir("stream-db");
    let cache_dir = tmpdir("stream-cache");
    let spec = stream_spec(cache_dir.clone());
    let horizon = spec.stream.firehose.n_slices();
    assert_eq!(horizon, 4);

    // Seed checkpoint version 1 so the registry has something to serve
    // before the first slice ever arrives.
    {
        let mut db = Database::open(&db_dir).expect("open db");
        let network = NetworkKind::Mlp1.build(EMBED_DIM, 7);
        save_checkpoint(&mut db, "likes", &network).expect("seed checkpoint");
    }
    let model_spec = ModelSpec::new("likes", EMBED_DIM, || NetworkKind::Mlp1.build(EMBED_DIM, 7));
    let registry = Registry::load(&db_dir, vec![model_spec], 2).expect("registry");
    let config = ServeConfig { stream: Some(spec), ..ServeConfig::default() };
    let server = Server::start(config, registry).expect("start server");

    let mut client = Client::connect(server.addr()).expect("connect");
    let mut total_trained = 0u64;
    for k in 0..horizon {
        let res = client
            .post_json("/admin/reload", &json!({"advance_stream": true}))
            .expect("advance");
        assert_eq!(res.status, 200, "{}", String::from_utf8_lossy(&res.body));
        let body: serde_json::Value = serde_json::from_slice(&res.body).expect("json body");
        let stream = &body["stream"];
        assert_eq!(stream["head"].as_u64(), Some(k as u64 + 1));
        assert_eq!(stream["horizon"].as_u64(), Some(horizon as u64));
        // Each advance folds exactly the six stages of the new slice
        // onto the held head; no earlier slice replays.
        assert_eq!(stream["executed"].as_u64(), Some(6), "{stream}");
        assert_eq!(stream["slices_polled"].as_u64(), Some(1), "lazy poll: one new slice");
        for fold in stream["folds"].as_array().expect("folds") {
            if fold["cache"].as_str() == Some("miss") {
                assert_eq!(fold["slice"].as_u64(), Some(k as u64), "{fold}");
            }
        }
        total_trained += stream["trained"].as_u64().unwrap_or(0);
    }
    assert!(total_trained >= 1, "at least one advance must yield a trainable dataset");

    // The retrained checkpoints hot-swapped: the serving version moved
    // past the seeded version 1.
    let models = client.get("/models").expect("models");
    let mbody: serde_json::Value = serde_json::from_slice(&models.body).expect("models json");
    let version = mbody["models"][0]["version"].as_u64().expect("version");
    assert!(version > 1, "seed version must have been superseded: {mbody}");

    // Per-slice gauges are live on /metrics.
    let metrics = client.get("/metrics").expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    assert!(text.contains(&format!("nd_stream_head_slice {horizon}")), "{text}");
    assert!(text.contains("nd_stream_staleness_ms"), "{text}");
    assert!(text.contains("nd_stream_dataset_rows"), "{text}");
    let last = horizon - 1;
    for stage in ["stream-collect", "stream-topics", "stream-embed"] {
        let gauge = format!("nd_stream_fold_wall_ms{{stage=\"{stage}\",slice=\"{last}\"}}");
        assert!(text.contains(&gauge), "missing {gauge} in:\n{text}");
    }
    assert!(
        text.contains(&format!("nd_stream_fold_cache_hit{{stage=\"stream-topics\",slice=\"{last}\"}} 0")),
        "the head fold executed, it must not read as a cache hit:\n{text}"
    );

    // The firehose is finite: advancing past the horizon is a client
    // error, not a crash.
    let res = client
        .post_json("/admin/reload", &json!({"advance_stream": true}))
        .expect("exhausted advance");
    assert_eq!(res.status, 400, "{}", String::from_utf8_lossy(&res.body));

    // A server without a stream spec rejects the verb outright.
    server.shutdown();
    std::fs::remove_dir_all(&db_dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn advance_stream_requires_a_stream_spec() {
    let db_dir = tmpdir("stream-unconfigured");
    {
        let mut db = Database::open(&db_dir).expect("open db");
        save_checkpoint(&mut db, "likes", &NetworkKind::Mlp1.build(8, 7)).expect("seed");
    }
    let spec = ModelSpec::new("likes", 8, || NetworkKind::Mlp1.build(8, 7));
    let registry = Registry::load(&db_dir, vec![spec], 2).expect("registry");
    let server = Server::start(ServeConfig::default(), registry).expect("start server");

    let mut client = Client::connect(server.addr()).expect("connect");
    let res = client
        .post_json("/admin/reload", &json!({"advance_stream": true}))
        .expect("reload");
    assert_eq!(res.status, 400);

    server.shutdown();
    std::fs::remove_dir_all(&db_dir).ok();
}
