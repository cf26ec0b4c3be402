//! SLO-harness tests for the sharded serving layer: adversarial
//! clients (slow-loris, header floods) must be cut off without
//! stalling the accept loop or leaking connection slots, overload must
//! shed with a drain-rate-derived `Retry-After` while accepted work
//! always completes, and predictions must stay bit-identical to
//! offline inference across shard counts.

use newsdiff::core::checkpoint::save_checkpoint;
use newsdiff::core::predict::build_mlp;
use newsdiff::linalg::Mat;
use newsdiff::serve::loadgen::{boot_fixture, fixture_models, slow_loris};
use newsdiff::serve::shard::ShardConfig;
use newsdiff::serve::{BatchConfig, Client, ModelSpec, Registry, ServeConfig, Server};
use newsdiff::store::Database;
use serde_json::json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

mod common;
use common::Gate;

fn tmpdir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("ndslo-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn probe_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let m = Mat::random_normal(n, dim, 0.0, 1.0, seed);
    (0..n).map(|i| m.row(i).to_vec()).collect()
}

/// `boot_fixture`'s two models, `m0` and `m1`, with `gate` appended to
/// each served network (checkpoint and spec alike).
fn boot_gated_fixture(dir: &Path, dim: usize, config: ServeConfig, gate: &Gate) -> Server {
    let mut db = Database::open(dir).unwrap();
    let specs = fixture_models(2)
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            let network = build_mlp(dim, 1000 + i as u64).add(gate.clone());
            save_checkpoint(&mut db, &name, &network).unwrap();
            let gate = gate.clone();
            ModelSpec::new(name, dim, move || build_mlp(dim, 0).add(gate.clone()))
        })
        .collect();
    drop(db);
    Server::start(config, Registry::load(dir, specs, 2).unwrap()).unwrap()
}

/// Reads the `nd_serve_open_connections` gauge off `/metrics`.
fn open_connections(addr: std::net::SocketAddr) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200);
    response
        .text()
        .lines()
        .find_map(|l| l.strip_prefix("nd_serve_open_connections "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(u64::MAX)
}

#[test]
fn slow_loris_is_cut_off_without_stalling_serving() {
    let dir = tmpdir("loris");
    let config = ServeConfig {
        shard: ShardConfig { shards: 2, ..ShardConfig::default() },
        // Short head deadline so the test ends quickly; production
        // default is 5s.
        head_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    const DIM: usize = 8;
    let server = boot_fixture(&dir, 2, DIM, config).unwrap();
    let addr = server.addr();

    // Adversary: 6 connections trickling one byte at a time, held for
    // well past the head deadline.
    let loris =
        std::thread::spawn(move || slow_loris(addr, 6, Duration::from_millis(1200)));

    // Healthy traffic keeps flowing at full rate the whole time.
    let mut client = Client::connect(addr).unwrap();
    let rows = probe_rows(4, DIM, 42);
    let deadline = Instant::now() + Duration::from_millis(1200);
    let mut served = 0u32;
    while Instant::now() < deadline {
        let response =
            client.post_json("/predict", &json!({"model": "m0", "rows": rows})).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        served += 1;
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(served >= 10, "healthy client must keep being served: {served}");

    let report = loris.join().unwrap();
    assert_eq!(report.opened, 6, "all adversarial connections opened");
    assert_eq!(
        report.dropped, report.opened,
        "every slow-loris connection must be cut off at the head deadline"
    );

    // No leaked connection slots: once the adversaries are gone, the
    // gauge settles back to just this test's own probes.
    drop(client);
    let settle = Instant::now() + Duration::from_secs(5);
    let mut last = u64::MAX;
    while Instant::now() < settle {
        last = open_connections(addr);
        if last <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(last <= 1, "loris slots must be reclaimed, gauge stuck at {last}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthy_connection_is_served_while_earlier_connections_stall() {
    let dir = tmpdir("stalled");
    let config = ServeConfig {
        shard: ShardConfig { shards: 2, ..ShardConfig::default() },
        head_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    const DIM: usize = 8;
    let server = boot_fixture(&dir, 2, DIM, config).unwrap();
    let addr = server.addr();

    // Served-and-closed connections first, one at a time: a server
    // that parks idle handler threads between connections has some
    // parked now.
    for _ in 0..4 {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }
    // Connections that start a request head and stall inside it.
    let stalled: Vec<TcpStream> = (0..6)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"POST /predict HTTP/1.1\r\n").unwrap();
            stream
        })
        .collect();

    // The healthy request is answered while every stalled connection
    // is still open, i.e. before the head deadline cut any of them.
    let mut client = Client::connect(addr).unwrap();
    let rows = probe_rows(2, DIM, 11);
    let response = client.post_json("/predict", &json!({"model": "m1", "rows": rows})).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    for (i, mut stream) in stalled.iter().enumerate() {
        stream.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("stalled connection {i} was already ended: {other:?}"),
        }
    }

    drop((stalled, client));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn header_flood_is_rejected_and_slot_reclaimed() {
    let dir = tmpdir("flood");
    let config = ServeConfig {
        shard: ShardConfig { shards: 2, ..ShardConfig::default() },
        ..ServeConfig::default()
    };
    const DIM: usize = 8;
    let server = boot_fixture(&dir, 1, DIM, config).unwrap();
    let addr = server.addr();

    // Raw connection spraying headers far past the 16 KiB head budget.
    let mut flood = TcpStream::connect(addr).unwrap();
    flood.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Flood: {}\r\n", "z".repeat(60));
    let mut sent_any_error = false;
    for _ in 0..2000 {
        if flood.write_all(filler.as_bytes()).is_err() {
            // Server already reset us mid-flood — also a pass.
            sent_any_error = true;
            break;
        }
    }
    // The server must answer 413 (or have reset the stream) and close.
    flood.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = Vec::new();
    let got = flood.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    assert!(
        sent_any_error || got.is_err() || text.starts_with("HTTP/1.1 413"),
        "flood must be rejected, got: {text:.120}"
    );

    // The listener keeps serving fresh clients afterwards.
    let mut client = Client::connect(addr).unwrap();
    let rows = probe_rows(2, DIM, 9);
    let response =
        client.post_json("/predict", &json!({"model": "m0", "rows": rows})).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_retry_after_is_dynamic_and_accepted_work_completes() {
    let dir = tmpdir("retryafter");
    // Tiny queues behind workers parked in their first pass force
    // shedding until the gate opens.
    let config = ServeConfig {
        batch: BatchConfig { max_batch: 4, queue_capacity: 8, workers: 1 },
        cache_rows: 0,
        shard: ShardConfig { shards: 2, ..ShardConfig::default() },
        ..ServeConfig::default()
    };
    const DIM: usize = 12;
    let gate = Gate::default();
    let server = boot_gated_fixture(&dir, DIM, config, &gate);
    let addr = server.addr();
    let (shed_tx, shed_rx) = mpsc::channel();

    let workers: Vec<_> = (0..8)
        .map(|c| {
            let shed_tx = shed_tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let rows = probe_rows(6, DIM, 300 + c);
                let mut ok = 0u64;
                let mut shed = 0u64;
                for _ in 0..6 {
                    let response = client
                        .post_json(
                            "/predict",
                            &json!({"model": format!("m{}", c % 2), "rows": rows}),
                        )
                        .unwrap();
                    match response.status {
                        200 => ok += 1,
                        503 => {
                            let retry: u64 = response
                                .header("retry-after")
                                .and_then(|v| v.parse().ok())
                                .expect("503 must carry an integer Retry-After");
                            assert!(
                                (1..=30).contains(&retry),
                                "Retry-After out of range: {retry}"
                            );
                            // The JSON body mirrors the header.
                            let body = response.json().unwrap();
                            assert_eq!(body["retry_after_s"].as_u64(), Some(retry));
                            assert!(body["queued_rows"].as_u64().is_some(), "{body}");
                            shed += 1;
                            // The test stops listening after the first.
                            shed_tx.send(()).ok();
                        }
                        other => panic!("unexpected status {other}: {}", response.text()),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    // The first 503 shows a queue full behind its parked pass.
    drop(shed_tx);
    shed_rx.recv().unwrap();
    gate.open();
    let mut total_ok = 0;
    let mut total_shed = 0;
    for w in workers {
        let (ok, shed) = w.join().unwrap();
        total_ok += ok;
        total_shed += shed;
    }
    assert!(total_shed > 0, "queue_capacity=8 under 8x6x6 rows must shed load");
    // Every request either completed with real scores or was shed —
    // nothing vanished in the queue.
    assert_eq!(total_ok + total_shed, 8 * 6);

    let metrics = server.metrics();
    assert_eq!(metrics.overload_rejections.get(), total_shed);
    // Accepted rows all produced predictions.
    assert_eq!(metrics.predictions.get(), total_ok * 6);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predictions_bit_identical_across_shard_counts() {
    const DIM: usize = 16;
    const MODELS: usize = 3;
    let rows = probe_rows(10, DIM, 77);
    let x = Mat::from_rows(&rows).unwrap();

    // Offline ground truth: the exact networks boot_fixture checkpoints.
    let offline: Vec<Vec<Vec<f64>>> = (0..MODELS)
        .map(|i| {
            let net = build_mlp(DIM, 1000 + i as u64);
            let scores = net.predict_batch(&x);
            (0..scores.rows()).map(|r| scores.row(r).to_vec()).collect()
        })
        .collect();

    for shards in [1usize, 2, 8] {
        let dir = tmpdir(&format!("bitident{shards}"));
        let config = ServeConfig {
            shard: ShardConfig { shards, ..ShardConfig::default() },
            ..ServeConfig::default()
        };
        let server = boot_fixture(&dir, MODELS, DIM, config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for (i, model) in fixture_models(MODELS).iter().enumerate() {
            let response = client
                .post_json("/predict", &json!({"model": model, "rows": rows}))
                .unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
            let body = response.json().unwrap();
            let served: Vec<Vec<f64>> = body["predictions"]
                .as_array()
                .unwrap()
                .iter()
                .map(|p| {
                    p["scores"]
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|v| v.as_f64().unwrap())
                        .collect()
                })
                .collect();
            assert_eq!(
                served, offline[i],
                "shards={shards} model={model}: served scores must be \
                 bit-identical to offline predict_batch"
            );
        }
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
