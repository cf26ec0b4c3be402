//! Service metrics: lock-free counters and log-bucketed histograms
//! ([`LatencyHist`]), rendered at `GET /metrics` in a Prometheus-style
//! text format.
//!
//! Everything is `AtomicU64` with relaxed ordering — metrics are
//! advisory and must never contend with the request path.

use crate::hist::{HistSnapshot, LatencyHist};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The service endpoints tracked per-endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /predict`.
    Predict,
    /// `GET /models`.
    Models,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /admin/reload`.
    Reload,
    /// `GET /patterns`.
    Patterns,
    /// Anything else (404/405 traffic).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 7] = [
        Endpoint::Predict,
        Endpoint::Models,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Reload,
        Endpoint::Patterns,
        Endpoint::Other,
    ];

    /// The `endpoint="…"` label value used on `/metrics`.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Predict => "predict",
            Endpoint::Models => "models",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Reload => "reload",
            Endpoint::Patterns => "patterns",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|&e| e == self).unwrap_or(6)
    }
}

/// All metrics for one server instance.
#[derive(Debug)]
pub struct Metrics {
    /// Requests received, per endpoint.
    requests: [Counter; 7],
    /// Errors (4xx/5xx) returned, per endpoint.
    errors: [Counter; 7],
    /// 503s returned because the admission queue was full.
    pub overload_rejections: Counter,
    /// Feature rows predicted (cache hits included).
    pub predictions: Counter,
    /// Forward passes run by the micro-batcher.
    pub batches: Counter,
    /// Prediction-cache hits.
    pub cache_hits: Counter,
    /// Prediction-cache misses.
    pub cache_misses: Counter,
    /// Completed hot model swaps.
    pub model_swaps: Counter,
    /// Checkpoints pruned after swaps.
    pub checkpoints_pruned: Counter,
    /// Rows per forward pass.
    pub batch_rows: LatencyHist,
    /// Per-endpoint latency (µs) on the fine log-linear grid, for the
    /// p50/p99/p999 quantile series.
    endpoint_latency: [LatencyHist; 7],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Default::default(),
            errors: Default::default(),
            overload_rejections: Counter::default(),
            predictions: Counter::default(),
            batches: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            model_swaps: Counter::default(),
            checkpoints_pruned: Counter::default(),
            batch_rows: LatencyHist::new(),
            endpoint_latency: std::array::from_fn(|_| LatencyHist::new()),
        }
    }
}

impl Metrics {
    /// Records an arrived request.
    pub fn request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].inc();
    }

    /// Records a non-2xx response.
    pub fn error(&self, endpoint: Endpoint) {
        self.errors[endpoint.index()].inc();
    }

    /// Requests seen on `endpoint`.
    pub fn requests_for(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.index()].get()
    }

    /// Records one end-to-end latency observation for `endpoint`.
    pub fn observe_latency(&self, endpoint: Endpoint, us: u64) {
        self.endpoint_latency[endpoint.index()].observe(us);
    }

    /// Renders the exposition text. `gauges` carries point-in-time
    /// values owned elsewhere (queue depth, open connections, model
    /// versions).
    pub fn render(&self, gauges: &[(String, u64)]) -> String {
        let mut out = String::with_capacity(2048);
        for e in Endpoint::ALL {
            let _ = writeln!(
                out,
                "nd_serve_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.requests[e.index()].get()
            );
        }
        for e in Endpoint::ALL {
            let _ = writeln!(
                out,
                "nd_serve_errors_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.errors[e.index()].get()
            );
        }
        let scalars: [(&str, &Counter); 7] = [
            ("nd_serve_overload_rejections_total", &self.overload_rejections),
            ("nd_serve_predictions_total", &self.predictions),
            ("nd_serve_batches_total", &self.batches),
            ("nd_serve_cache_hits_total", &self.cache_hits),
            ("nd_serve_cache_misses_total", &self.cache_misses),
            ("nd_serve_model_swaps_total", &self.model_swaps),
            ("nd_serve_checkpoints_pruned_total", &self.checkpoints_pruned),
        ];
        for (name, counter) in scalars {
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        render_quantiles(&mut out, "nd_serve_batch_rows", &[], &self.batch_rows.snapshot());
        for e in Endpoint::ALL {
            let snap = self.endpoint_latency[e.index()].snapshot();
            if snap.count == 0 {
                continue;
            }
            render_quantiles(&mut out, "nd_serve_latency_us", &[("endpoint", e.label())], &snap);
        }
        for (name, value) in gauges {
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

/// Writes a Prometheus-summary-style quantile series (p50/p99/p999
/// plus `_sum`/`_count`) for one labelled histogram snapshot.
pub fn render_quantiles(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    snap: &HistSnapshot,
) {
    let mut label_text = String::new();
    for (k, v) in labels {
        if !label_text.is_empty() {
            label_text.push(',');
        }
        let _ = write!(label_text, "{k}=\"{v}\"");
    }
    let sep = if label_text.is_empty() { "" } else { "," };
    for (q, qv) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
        let _ = writeln!(
            out,
            "{name}{{{label_text}{sep}quantile=\"{q}\"}} {}",
            snap.quantile(qv)
        );
    }
    let _ = writeln!(out, "{name}_sum{{{label_text}}} {}", snap.sum);
    let _ = writeln!(out, "{name}_count{{{label_text}}} {}", snap.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.request(Endpoint::Predict);
        m.request(Endpoint::Predict);
        m.error(Endpoint::Predict);
        assert_eq!(m.requests_for(Endpoint::Predict), 2);
        let text = m.render(&[]);
        assert!(text.contains("nd_serve_requests_total{endpoint=\"predict\"} 2"), "{text}");
        assert!(text.contains("nd_serve_errors_total{endpoint=\"predict\"} 1"));
    }

    #[test]
    fn endpoint_quantile_series_rendered() {
        let m = Metrics::default();
        for us in [100u64, 200, 300, 400, 50_000] {
            m.observe_latency(Endpoint::Predict, us);
        }
        let text = m.render(&[]);
        assert!(
            text.contains("nd_serve_latency_us{endpoint=\"predict\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("nd_serve_latency_us_count{endpoint=\"predict\"} 5"), "{text}");
        // Endpoints with no traffic emit nothing.
        assert!(!text.contains("endpoint=\"reload\",quantile"), "{text}");
        let p99: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("nd_serve_latency_us{endpoint=\"predict\",quantile=\"0.99\"} "))
            .and_then(|v| v.parse().ok())
            .expect("predict p99 line");
        assert!(p99 >= 50_000, "p99 covers the outlier: {p99}");
    }

    #[test]
    fn gauges_appended() {
        let m = Metrics::default();
        let text = m.render(&[("nd_serve_queue_depth".to_string(), 7)]);
        assert!(text.contains("nd_serve_queue_depth 7"));
    }
}
