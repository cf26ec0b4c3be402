//! Log-bucketed latency histograms over plain atomics: nd-serve's one
//! histogram type.
//!
//! The serving tier needs p50/p99/p999 *per shard and per endpoint*
//! without putting a lock on the request path (the micro-batcher's
//! rows per forward pass use the same grid). Each histogram is a
//! fixed array of 256 relaxed `AtomicU64` buckets on a log-linear
//! grid (4 sub-buckets per power of two, values in microseconds), so
//! `observe` is one index computation plus three `fetch_add`s — no
//! allocation, no contention beyond cache-line traffic.
//!
//! Scrapes read a [`HistSnapshot`] per histogram and merge snapshots
//! in a caller-fixed order (shard 0, 1, … — see `render_metrics`),
//! so the merged quantiles on `/metrics` are deterministic for a
//! given set of per-shard counts regardless of scrape concurrency.
//! Quantiles report the *upper bound* of the bucket holding the rank,
//! which bounds the relative error at 25% — plenty for an SLO gate
//! that compares p99s an order of magnitude apart.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: values 0–7 µs get unit buckets, everything above
/// lands in 4 sub-buckets per octave up to `u64::MAX`.
pub const N_BUCKETS: usize = 256;

/// Index of the bucket covering `v` (microseconds).
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (octave - 2)) & 3) as usize;
    8 + (octave - 3) * 4 + sub
}

/// Inclusive upper bound of bucket `idx`, `u64::MAX` for the last.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let group = (idx - 8) / 4;
    let sub = ((idx - 8) % 4) as u64;
    if group + 3 >= 63 {
        return u64::MAX;
    }
    let width = 1u64 << (group + 1);
    (1u64 << (group + 3)) + sub * width + (width - 1)
}

/// A lock-free-ish log-bucketed histogram of microsecond latencies.
#[derive(Debug)]
pub struct LatencyHist {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHist::default()
    }

    /// Records one latency observation (microseconds).
    pub fn observe(&self, us: u64) {
        let idx = bucket_index(us).min(N_BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the buckets for merging and quantiles.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.total.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's buckets. Merging snapshots is plain
/// integer addition, so merge order cannot change the result — the
/// scraper still merges in fixed shard order for auditability.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    /// Sum of all observed values (µs).
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { counts: vec![0; N_BUCKETS], sum: 0, count: 0 }
    }
}

impl HistSnapshot {
    /// An empty snapshot to merge into.
    pub fn empty() -> Self {
        HistSnapshot::default()
    }

    /// Adds `other`'s buckets into this snapshot.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (acc, v) in self.counts.iter_mut().zip(other.counts.iter()) {
            *acc += v;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The latency (µs) at quantile `q` in `[0, 1]`: the upper bound
    /// of the bucket containing the rank-`ceil(q·count)` observation.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(N_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_axis() {
        // Every value maps to a bucket whose bound is >= the value,
        // and bucket indexes are monotone in the value.
        let mut prev_idx = 0usize;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index must be monotone at {v}");
            assert!(bucket_bound(idx) >= v, "bound({idx}) covers {v}");
            if idx > 8 {
                // The previous bucket must end strictly below v.
                assert!(bucket_bound(idx - 1) < v, "bucket {idx} is the first covering {v}");
            }
            prev_idx = idx;
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [10u64, 33, 97, 1_000, 54_321, 9_999_999] {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            assert!(
                (bound - v) as f64 <= 0.25 * v as f64,
                "bound {bound} for {v} exceeds 25% error"
            );
        }
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let h = LatencyHist::new();
        for us in 1..=1000u64 {
            h.observe(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        let p999 = s.quantile(0.999);
        // Upper bucket bounds: within 25% above the exact rank value.
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        assert!((990..=1250).contains(&p99), "p99 = {p99}");
        assert!(p999 >= p99, "p999 {p999} < p99 {p99}");
    }

    #[test]
    fn merge_is_order_independent_addition() {
        let a = LatencyHist::new();
        let b = LatencyHist::new();
        for v in [5u64, 50, 500] {
            a.observe(v);
        }
        for v in [7u64, 70, 700, 7000] {
            b.observe(v);
        }
        let mut ab = HistSnapshot::empty();
        ab.merge(&a.snapshot());
        ab.merge(&b.snapshot());
        let mut ba = HistSnapshot::empty();
        ba.merge(&b.snapshot());
        ba.merge(&a.snapshot());
        assert_eq!(ab.count, 7);
        assert_eq!(ab.sum, ba.sum);
        assert_eq!(ab.quantile(0.5), ba.quantile(0.5));
        assert_eq!(ab.quantile(0.99), ba.quantile(0.99));
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistSnapshot::empty().quantile(0.99), 0);
    }
}
