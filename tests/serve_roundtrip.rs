//! End-to-end serving test: train a model, checkpoint it into the
//! store, boot the HTTP server on an ephemeral port, and verify that
//! concurrent clients receive predictions bit-identical to offline
//! inference — across cache hits, micro-batched passes, overload
//! shedding, and a hot model swap happening mid-traffic.

use newsdiff::linalg::vecops::argmax;
use newsdiff::linalg::Mat;
use newsdiff::neural::{Network, Sgd};
use newsdiff::serve::{BatchConfig, Client, Endpoint, ModelSpec, Registry, ServeConfig, Server};
use newsdiff::store::Database;
use serde_json::json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;
use common::Gate;

use newsdiff::core::checkpoint::save_checkpoint;
use newsdiff::core::predict::build_mlp;

const DIM: usize = 24;

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ndrt-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A small but genuinely trained model: synthetic features whose
/// class depends on the sign structure of the row.
fn train_model(seed: u64) -> Network {
    let x = Mat::random_normal(96, DIM, 0.0, 1.0, seed);
    let y: Vec<usize> = (0..x.rows())
        .map(|i| {
            let s: f64 = x.row(i).iter().sum();
            if s < -1.0 {
                0
            } else if s < 1.0 {
                1
            } else {
                2
            }
        })
        .collect();
    let mut network = build_mlp(DIM, seed);
    let mut opt = Sgd::new(0.1);
    for _ in 0..20 {
        network.train_batch(&x, &y, &mut opt);
    }
    network
}

fn probe_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let m = Mat::random_normal(n, DIM, 0.0, 1.0, seed);
    (0..n).map(|i| m.row(i).to_vec()).collect()
}

/// `network` with `gate` appended, when there is one.
fn gated(network: Network, gate: Option<&Gate>) -> Network {
    match gate {
        Some(gate) => network.add(gate.clone()),
        None => network,
    }
}

/// Serves `train_model(7)` as "likes" and returns it for offline
/// checks. With a gate, the served network (checkpoint and spec alike)
/// ends in it; its scores are the same.
fn boot(dir: &PathBuf, config: ServeConfig, gate: Option<Gate>) -> (Server, Arc<Network>) {
    let trained = train_model(7);
    {
        let mut db = Database::open(dir).unwrap();
        save_checkpoint(&mut db, "likes", &gated(train_model(7), gate.as_ref())).unwrap();
    }
    let spec = ModelSpec::new("likes", DIM, move || gated(build_mlp(DIM, 0), gate.as_ref()));
    let registry = Registry::load(dir, vec![spec], 2).unwrap();
    (Server::start(config, registry).unwrap(), Arc::new(trained))
}

#[test]
fn concurrent_clients_get_bit_identical_predictions() {
    let dir = tmpdir("bitident");
    let (server, trained) = boot(&dir, ServeConfig::default(), None);
    let addr = server.addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let trained = Arc::clone(&trained);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let rows = probe_rows(12, 100 + c);
                // Mix of single and batch requests per client.
                for (i, row) in rows.iter().enumerate() {
                    let offline = trained
                        .predict_batch(&Mat::from_rows(std::slice::from_ref(row)).unwrap());
                    let expected: Vec<f64> = offline.row(0).to_vec();
                    let response = if i % 3 == 0 {
                        client
                            .post_json("/predict", &json!({"rows": vec![row.clone()]}))
                            .unwrap()
                    } else {
                        client.post_json("/predict", &json!({"features": row})).unwrap()
                    };
                    assert_eq!(response.status, 200, "{}", response.text());
                    let body = response.json().unwrap();
                    let scores = if i % 3 == 0 {
                        body["predictions"][0]["scores"].clone()
                    } else {
                        body["scores"].clone()
                    };
                    let served: Vec<f64> = scores
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|v| v.as_f64().unwrap())
                        .collect();
                    assert_eq!(
                        served, expected,
                        "served scores must be bit-identical to offline inference"
                    );
                    let class = if i % 3 == 0 {
                        body["predictions"][0]["class"].as_u64()
                    } else {
                        body["class"].as_u64()
                    };
                    assert_eq!(class, Some(argmax(&expected).unwrap() as u64));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let metrics = server.metrics();
    assert!(metrics.batches.get() > 0, "micro-batcher must have run");
    assert_eq!(metrics.predictions.get(), 4 * 12);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_mid_traffic_is_never_torn() {
    let dir = tmpdir("hotswap");
    let (server, v1) = boot(&dir, ServeConfig::default(), None);
    let addr = server.addr();

    let v2 = Arc::new(train_model(99));
    let stop = Arc::new(AtomicBool::new(false));

    // Traffic threads: every response must be *exactly* version 1's
    // output or *exactly* version 2's output, tagged with the matching
    // version number — never a mixture, never a torn read.
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let (v1, v2, stop) = (Arc::clone(&v1), Arc::clone(&v2), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let rows = probe_rows(6, 500 + w);
                let mut seen_v2 = false;
                while !stop.load(Ordering::SeqCst) {
                    for row in &rows {
                        let response =
                            client.post_json("/predict", &json!({"features": row})).unwrap();
                        assert_eq!(response.status, 200, "{}", response.text());
                        let body = response.json().unwrap();
                        let served: Vec<f64> = body["scores"]
                            .as_array()
                            .unwrap()
                            .iter()
                            .map(|v| v.as_f64().unwrap())
                            .collect();
                        let input = Mat::from_rows(std::slice::from_ref(row)).unwrap();
                        let version = body["version"].as_u64().unwrap();
                        let expected = match version {
                            1 => v1.predict_batch(&input),
                            2 => {
                                seen_v2 = true;
                                v2.predict_batch(&input)
                            }
                            other => panic!("impossible version {other}"),
                        };
                        assert_eq!(
                            served,
                            expected.row(0).to_vec(),
                            "response mixed versions during hot swap"
                        );
                    }
                }
                seen_v2
            })
        })
        .collect();

    // Let traffic flow on v1, then checkpoint v2 and swap mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    {
        let mut db = Database::open(&dir).unwrap();
        save_checkpoint(&mut db, "likes", &v2).unwrap();
    }
    let mut admin = Client::connect(addr).unwrap();
    let reload = admin.post_json("/admin/reload", &json!({})).unwrap();
    assert_eq!(reload.status, 200);
    assert_eq!(reload.json().unwrap()["swapped"][0]["to"].as_u64(), Some(2));

    // Keep traffic flowing on v2 for a bit, then stop.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::SeqCst);
    let mut any_seen_v2 = false;
    for w in workers {
        any_seen_v2 |= w.join().unwrap();
    }
    assert!(any_seen_v2, "swap must become visible to traffic");
    assert_eq!(server.metrics().model_swaps.get(), 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_503_and_inflight_complete() {
    let dir = tmpdir("overload");
    // A tiny queue behind a worker parked in its first pass: the
    // queue fills, and everything else is shed until the gate opens.
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 4, queue_capacity: 8, workers: 1 },
        cache_rows: 0, // every request must take the batcher path
        ..ServeConfig::default()
    };
    let gate = Gate::default();
    let (server, trained) = boot(&dir, config, Some(gate.clone()));
    let addr = server.addr();
    let (shed_tx, shed_rx) = mpsc::channel();

    let shooters: Vec<_> = (0..8)
        .map(|s| {
            let trained = Arc::clone(&trained);
            let shed_tx = shed_tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let rows = probe_rows(8, 900 + s);
                let mut rejected = 0usize;
                for row in &rows {
                    let response = client
                        .post_json("/predict", &json!({"rows": vec![row.clone(); 3]}))
                        .unwrap();
                    match response.status {
                        200 => {
                            let body = response.json().unwrap();
                            let offline = trained
                                .predict_batch(&Mat::from_rows(std::slice::from_ref(row)).unwrap());
                            for p in body["predictions"].as_array().unwrap() {
                                let served: Vec<f64> = p["scores"]
                                    .as_array()
                                    .unwrap()
                                    .iter()
                                    .map(|v| v.as_f64().unwrap())
                                    .collect();
                                assert_eq!(served, offline.row(0).to_vec());
                            }
                        }
                        503 => {
                            // Retry-After is derived from queue depth
                            // and drain rate — any positive integer
                            // number of seconds is valid.
                            let retry: u64 = response
                                .header("retry-after")
                                .and_then(|v| v.parse().ok())
                                .expect("503 must carry an integer Retry-After");
                            assert!(
                                (1..=30).contains(&retry),
                                "Retry-After out of range: {retry}"
                            );
                            rejected += 1;
                            // The test stops listening after the first.
                            shed_tx.send(()).ok();
                        }
                        other => panic!("unexpected status {other}: {}", response.text()),
                    }
                }
                rejected
            })
        })
        .collect();

    // The first 503 shows the queue full behind the parked pass.
    drop(shed_tx);
    shed_rx.recv().unwrap();
    gate.open();
    let rejected: usize = shooters.into_iter().map(|s| s.join().unwrap()).sum();
    let metrics = server.metrics();
    assert_eq!(
        rejected as u64,
        metrics.overload_rejections.get(),
        "every rejection surfaces as exactly one 503"
    );
    assert!(rejected > 0, "queue_capacity=8 under 8x8x3 rows must shed load");
    // Accepted requests all completed: accepted = total - rejected.
    assert_eq!(metrics.predictions.get(), (8 * 8 - rejected as u64) * 3);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_answers_inflight_work() {
    let dir = tmpdir("drain");
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 64, queue_capacity: 1024, workers: 1 },
        cache_rows: 0,
        ..ServeConfig::default()
    };
    // The gate holds the first pass shut until shutdown has begun, so
    // every request is deliberately in flight then.
    let gate = Gate::default();
    let (server, trained) = boot(&dir, config, Some(gate.clone()));
    let addr = server.addr();

    // An idle keep-alive connection: the server closes it only once
    // shutdown has begun, so reading it to the end waits for that.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: nd-serve\r\n\r\n").unwrap();

    let senders: Vec<_> = (0..4)
        .map(|s| {
            let trained = Arc::clone(&trained);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let row = probe_rows(1, 40 + s).remove(0);
                let response =
                    client.post_json("/predict", &json!({"features": row})).unwrap();
                assert_eq!(response.status, 200, "in-flight request dropped: {}", response.text());
                let offline =
                    trained.predict_batch(&Mat::from_rows(std::slice::from_ref(&row)).unwrap());
                let served: Vec<f64> = response.json().unwrap()["scores"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect();
                assert_eq!(served, offline.row(0).to_vec());
            })
        })
        .collect();

    // A handler that has read a request answers it, so shutdown
    // starts once all four are read.
    let metrics = server.metrics();
    while metrics.requests_for(Endpoint::Predict) < 4 {
        std::thread::yield_now();
    }
    let stopper = std::thread::spawn(move || server.shutdown());
    let mut idle_reply = Vec::new();
    idle.read_to_end(&mut idle_reply).unwrap();
    assert!(idle_reply.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&idle_reply));
    gate.open();
    for s in senders {
        s.join().unwrap();
    }
    stopper.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
