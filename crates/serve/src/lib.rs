//! Online audience-interest prediction service.
//!
//! The paper's deployed system retrains every two hours as new
//! social-media reactions arrive and serves interest predictions for
//! incoming news topics continuously. `nd-serve` is that serving
//! tier: a dependency-free HTTP/1.1 server over
//! [`std::net::TcpListener`] that loads trained checkpoints (one
//! NDART02 frame per model version, see `nd_core::checkpoint`) from a
//! directory and answers `POST /predict` with the
//! exact scores an offline [`nd_neural::Network::predict_batch`] call
//! would produce.
//!
//! Layout, front to back:
//!
//! - [`http`] — minimal HTTP/1.1 framing (request parsing, response
//!   writing, keep-alive, read-timeout polling, per-connection buffer
//!   reuse, slow-loris head deadlines).
//! - [`server`] — the listener: one handler thread per connection up
//!   to a fixed cap, routing, validation, graceful shutdown.
//! - [`shard`] — consistent-hash partitioning of models across
//!   independent worker groups, each with its own batcher, cache, and
//!   admission queue; `Retry-After` from queue depth over the
//!   batcher's per-pass drain rate.
//! - [`cache`] — LRU over exact feature-vector bit patterns; repeat
//!   queries for trending topics skip the network entirely.
//! - [`batcher`] — micro-batching: requests queued while a pass runs
//!   coalesce into the next one, bounded queues shed overload as `503`.
//! - [`registry`] — versioned models behind swappable [`std::sync::Arc`]
//!   handles; hot swap never tears an in-flight request.
//! - [`metrics`] — lock-free counters/histograms for `GET /metrics`.
//! - [`hist`] — log-linear latency histograms behind the p50/p99/p999
//!   quantile series, mergeable across shards.
//! - [`retrain`] — the refresh loop behind both reload kinds: re-run
//!   the staged pipeline from a cached run directory, or fold the
//!   next firehose slice through the incremental DAG onto the head
//!   the previous advance held in memory; then one shared train →
//!   checkpoint → swap step refits the served models and hot-swaps
//!   them.
//! - [`client`] — a small blocking client used by the tests and the
//!   load generator.
//! - [`loadgen`] — deterministic closed/open-loop load generation and
//!   adversarial probes for the SLO harness.
//!
//! # Endpoints
//!
//! | Route                | Purpose                                    |
//! |----------------------|--------------------------------------------|
//! | `POST /predict`      | Single (`features`) or batch (`rows`)      |
//! | `GET /models`        | Serving versions and parameter counts      |
//! | `GET /healthz`       | Liveness                                   |
//! | `GET /metrics`       | Prometheus-style exposition text           |
//! | `GET /patterns`      | Mined pattern catalog (`?category=`, `?limit=`) |
//! | `POST /admin/reload` | Checkpoint refresh + hot swap; with a `run_dir` body, retrain from that cached pipeline run first; with `{"advance_stream": true}`, fold the next firehose slice and retrain first |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod hist;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod registry;
pub mod retrain;
pub mod server;
pub mod shard;

pub use batcher::{BatchConfig, Batcher, SubmitError};
pub use cache::LruCache;
pub use client::{Client, Response};
pub use hist::{HistSnapshot, LatencyHist};
pub use loadgen::{BurstProfile, LoadSummary, TrafficMix};
pub use metrics::{Endpoint, Metrics};
pub use registry::{ModelHandle, ModelSpec, Registry, SwapEvent};
pub use retrain::{
    retrain_from_run, RetrainModel, RetrainSpec, SliceRetrain, StreamRetrainSpec,
    StreamRetrainer,
};
pub use server::{ServeConfig, Server};
pub use shard::{Shard, ShardConfig, ShardSet};

/// Errors surfaced while configuring or running the service.
#[derive(Debug)]
pub enum ServeError {
    /// Bad configuration (no specs, missing checkpoints, bad bind
    /// address).
    Config(String),
    /// Checkpoint save/load/prune failed.
    Core(nd_core::CoreError),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "config error: {msg}"),
            ServeError::Core(e) => write!(f, "checkpoint error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<nd_core::CoreError> for ServeError {
    fn from(e: nd_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
