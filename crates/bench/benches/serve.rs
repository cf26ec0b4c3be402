//! Criterion benchmarks of the serving tier.
//!
//! The headline comparison is micro-batched throughput against
//! batch-size-1: the same 64 feature rows pushed through the batcher
//! with `max_batch = 1` (every row its own forward pass) versus
//! `max_batch = 64` (rows coalesce into shared passes). Per-pass
//! overhead — thread dispatch, per-layer setup, cache-unfriendly
//! 1-row matmuls — dominates single-row serving, so coalescing is
//! worth well over the 3x the serving design targets. An end-to-end
//! HTTP pair (cold rows vs cache hits) rounds out the picture.

use criterion::{criterion_group, criterion_main, Criterion};
use nd_core::checkpoint::save_checkpoint;
use nd_core::predict::build_mlp;
use nd_linalg::Mat;
use nd_serve::{
    BatchConfig, Batcher, Client, Metrics, ModelHandle, ModelSpec, Registry, ServeConfig,
    Server,
};
use serde_json::json;
use std::hint::black_box;
use std::sync::Arc;

/// Paper-scale feature width (Doc2Vec 300 + engineered metadata).
const DIM: usize = 308;
const ROWS: usize = 64;

fn handle() -> Arc<ModelHandle> {
    let network = build_mlp(DIM, 42);
    Arc::new(ModelHandle {
        name: "likes".to_string(),
        version: 1,
        input_dim: DIM,
        n_params: network.n_params(),
        network,
    })
}

fn feature_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let m = Mat::random_normal(n, DIM, 0.0, 1.0, seed);
    (0..n).map(|i| m.row(i).to_vec()).collect()
}

fn bench_microbatch(c: &mut Criterion) {
    let h = handle();
    let rows = feature_rows(ROWS, 7);

    let batch1 = Batcher::start(
        BatchConfig { max_batch: 1, queue_capacity: 4096, workers: 1 },
        Arc::new(Metrics::default()),
    )
    .unwrap();
    c.bench_function("serve_predict_64rows_batch1", |b| {
        b.iter(|| {
            let receivers: Vec<_> = rows
                .iter()
                .map(|row| batch1.submit(Arc::clone(&h), vec![row.clone()]).unwrap())
                .collect();
            for rx in receivers {
                black_box(rx.recv().unwrap());
            }
        })
    });
    batch1.drain();

    let batch64 = Batcher::start(
        BatchConfig { max_batch: ROWS, queue_capacity: 4096, workers: 1 },
        Arc::new(Metrics::default()),
    )
    .unwrap();
    c.bench_function("serve_predict_64rows_batch64", |b| {
        b.iter(|| {
            let receivers: Vec<_> = rows
                .iter()
                .map(|row| batch64.submit(Arc::clone(&h), vec![row.clone()]).unwrap())
                .collect();
            for rx in receivers {
                black_box(rx.recv().unwrap());
            }
        })
    });
    batch64.drain();
}

fn bench_http_roundtrip(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ndbench-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_checkpoint(&dir, "likes", &build_mlp(DIM, 42)).unwrap();

    // Cold path: cache disabled, every request runs a forward pass.
    let registry =
        Registry::load(&dir, vec![ModelSpec::new("likes", DIM, || build_mlp(DIM, 0))], 2)
            .unwrap();
    let server = Server::start(
        ServeConfig {
            cache_rows: 0,
            ..ServeConfig::default()
        },
        registry,
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let row = feature_rows(1, 3).remove(0);
    let body = json!({"features": row});
    c.bench_function("serve_http_predict_uncached", |b| {
        b.iter(|| {
            let response = client.post_json("/predict", &body).unwrap();
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    drop(client);
    server.shutdown();

    // Hot path: default cache, identical row every time.
    let registry =
        Registry::load(&dir, vec![ModelSpec::new("likes", DIM, || build_mlp(DIM, 0))], 2)
            .unwrap();
    let server = Server::start(ServeConfig::default(), registry).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    c.bench_function("serve_http_predict_cached", |b| {
        b.iter(|| {
            let response = client.post_json("/predict", &body).unwrap();
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-connection setup: a keep-alive connection parses every request
/// after its first into recycled `ConnBufs` allocations, while a fresh
/// connection pays the TCP handshake, the spawn of its handler thread
/// and cold buffers each time. The gap between the two rows is that
/// whole per-connection cost, not buffer reuse alone.
fn bench_keepalive_reuse(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ndbench-keep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_checkpoint(&dir, "likes", &build_mlp(DIM, 42)).unwrap();
    let registry =
        Registry::load(&dir, vec![ModelSpec::new("likes", DIM, || build_mlp(DIM, 0))], 2)
            .unwrap();
    // Default cache on and one identical row per request: after warm-up
    // every request is a cache hit, so HTTP read/parse/write dominates
    // and the buffer-reuse effect is visible.
    let server = Server::start(ServeConfig::default(), registry).unwrap();
    let addr = server.addr();
    let row = feature_rows(1, 9).remove(0);
    let body = json!({"features": row});

    let mut group = c.benchmark_group("serve_http_keepalive_reuse");
    let mut client = Client::connect(addr).unwrap();
    client.post_json("/predict", &body).unwrap();
    group.bench_function("keepalive", |b| {
        b.iter(|| {
            let response = client.post_json("/predict", &body).unwrap();
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    drop(client);
    group.bench_function("fresh_conn", |b| {
        b.iter(|| {
            let mut fresh = Client::connect(addr).unwrap();
            let response = fresh.post_json("/predict", &body).unwrap();
            assert_eq!(response.status, 200);
            black_box(response.body.len())
        })
    });
    group.finish();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    name = serve;
    config = Criterion::default().sample_size(10);
    targets = bench_microbatch, bench_http_roundtrip, bench_keepalive_reuse
);
criterion_main!(serve);
