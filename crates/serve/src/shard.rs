//! Horizontal sharding of the serving data plane.
//!
//! A [`ShardSet`] partitions models across N independent shards, each
//! owning its own [`Batcher`] (bounded admission queue + workers) and
//! its own [`LruCache`]. Routing is consistent hashing on the model
//! name over a 64-vnode-per-shard ring, so adding a shard moves only
//! `~1/N` of the models and two servers with the same config agree on
//! placement without coordination.
//!
//! Why this wins even on one core: the global batcher coalesces only
//! the *front run* of same-model jobs, so a hot-skew mix that
//! interleaves models fragments every forward pass down to a couple of
//! rows. Partitioning the queue by model keeps each shard's queue
//! homogeneous-ish, which restores long runs and therefore large
//! batches — 64 rows coalesced into 64-row passes run ~5.7x faster
//! than the same rows as 64 single-row passes (median of
//! `serve_predict_64rows_batch1` over `serve_predict_64rows_batch64`
//! in `BENCH_serve.json`).
//!
//! Models listed in [`ShardConfig::replicated`] are served by
//! `replicas` distinct shards; requests for them spill via "power of
//! two choices": probe two candidate owners (rotating deterministic
//! pair) and pick the shorter queue. Everything else has exactly one
//! owner, preserving single-queue overload semantics.

use crate::batcher::{BatchConfig, Batcher};
use crate::cache::LruCache;
use crate::hist::LatencyHist;
use crate::metrics::Metrics;
use crate::ServeError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Virtual nodes per shard on the hash ring. 64 keeps the expected
/// per-shard load imbalance under ~15% for small shard counts.
const VNODES: usize = 64;

/// Sharding knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of independent shards (batcher + cache + queue each).
    pub shards: usize,
    /// Model names replicated across several shards for p2c spill.
    pub replicated: Vec<String>,
    /// Shards serving each replicated model.
    pub replicas: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, replicated: Vec::new(), replicas: 2 }
    }
}

/// FNV-1a over bytes with a splitmix64 finalizer — stable across runs
/// and platforms, which keeps ring placement (and therefore bench
/// numbers) reproducible. The finalizer matters: raw FNV-1a has weak
/// avalanche in the high bits for short, similar strings (exactly what
/// vnode labels are), which skews the ring badly.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Consistent-hash ring: sorted (hash, shard) points, one per vnode.
#[derive(Debug, Clone)]
pub struct Ring {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds a ring over `shards` shards with `VNODES` virtual
    /// nodes each.
    pub fn new(shards: usize) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for vnode in 0..VNODES {
                let label = format!("shard-{shard}-vnode-{vnode}");
                points.push((fnv1a(label.as_bytes()), shard));
            }
        }
        // Tie-break on shard id so equal hashes (vanishingly rare)
        // still sort deterministically.
        points.sort_unstable();
        Ring { points, shards }
    }

    fn successor(&self, hash: u64) -> usize {
        // First ring point at or after the key's hash, wrapping.
        let idx = self.points.partition_point(|&(h, _)| h < hash);
        let at = if idx == self.points.len() { 0 } else { idx };
        self.points.get(at).map(|&(_, s)| s).unwrap_or(0)
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: &str) -> usize {
        self.successor(fnv1a(key.as_bytes()))
    }

    /// The first `n` *distinct* shards walking the ring from `key`'s
    /// position — the replica set for a replicated model. The primary
    /// owner is always first.
    pub fn owners(&self, key: &str, n: usize) -> Vec<usize> {
        let n = n.clamp(1, self.shards);
        let hash = fnv1a(key.as_bytes());
        let start = self.points.partition_point(|&(h, _)| h < hash);
        let mut out: Vec<usize> = Vec::with_capacity(n);
        let mut step = 0;
        // Bounded by the ring size: every shard appears within one
        // full revolution, so the walk always terminates.
        while out.len() < n && step < self.points.len() {
            let at = (start + step) % self.points.len();
            if let Some(&(_, shard)) = self.points.get(at) {
                if !out.contains(&shard) {
                    out.push(shard);
                }
            }
            step += 1;
        }
        out
    }
}

/// Seconds a shedding client should wait: queued work over drain
/// rate, clamped to `[1, 30]`. With no drain evidence yet (cold shard)
/// the estimate is optimistic — 1 second — because an idle shard's
/// worker takes its whole queue (up to `max_batch` rows) into the next
/// forward pass at once.
fn retry_after_from(queued_rows: usize, rate: f64) -> u64 {
    if rate <= f64::EPSILON {
        return 1;
    }
    let secs = (queued_rows as f64 / rate).ceil();
    if secs < 1.0 {
        1
    } else if secs > 30.0 {
        30
    } else {
        secs as u64
    }
}

/// One shard: a batcher, a cache, and its latency histogram.
pub struct Shard {
    /// Stable shard index, `0..shards`.
    pub id: usize,
    /// This shard's micro-batching queue and workers.
    pub batcher: Batcher,
    /// This shard's prediction cache.
    pub cache: Mutex<LruCache>,
    /// Predict latency observed by this shard's requests (µs), shared
    /// with `/metrics`.
    pub latency: LatencyHist,
}

impl Shard {
    /// Current Retry-After estimate (seconds) from this shard's queue
    /// depth and its batcher's drain rate.
    pub fn retry_after_secs(&self) -> u64 {
        retry_after_from(self.batcher.queue_depth(), self.batcher.drain_rate())
    }
}

/// The full set of shards plus the routing ring.
pub struct ShardSet {
    shards: Vec<Arc<Shard>>,
    ring: Ring,
    replicated: Vec<String>,
    replicas: usize,
    spill_tick: AtomicUsize,
}

impl ShardSet {
    /// Starts `config.shards` shards. The worker budget in
    /// `batch.workers` and the `cache_rows` capacity are *totals*,
    /// divided across shards (at least one worker and one cached row
    /// each unless caching is disabled outright), so thread count and
    /// memory stay comparable to the unsharded server regardless of
    /// shard count. All shards share the one global [`Metrics`] so
    /// aggregate counters stay meaningful.
    pub fn start(
        config: &ShardConfig,
        batch: &BatchConfig,
        cache_rows: usize,
        metrics: &Arc<Metrics>,
    ) -> Result<ShardSet, ServeError> {
        let n = config.shards.max(1);
        let per_shard = BatchConfig {
            workers: (batch.workers / n).max(1),
            ..batch.clone()
        };
        let per_shard_cache = if cache_rows == 0 { 0 } else { (cache_rows / n).max(1) };
        let mut shards = Vec::with_capacity(n);
        for id in 0..n {
            let batcher = Batcher::start(per_shard.clone(), Arc::clone(metrics))?;
            shards.push(Arc::new(Shard {
                id,
                batcher,
                cache: Mutex::new(LruCache::new(per_shard_cache)),
                latency: LatencyHist::new(),
            }));
        }
        Ok(ShardSet {
            shards,
            ring: Ring::new(n),
            replicated: config.replicated.clone(),
            replicas: config.replicas.max(1),
            spill_tick: AtomicUsize::new(0),
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the set is empty (never, in practice — `start`
    /// creates at least one shard).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All shards in fixed id order, for metrics scrapes and drains.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Shard>> {
        self.shards.iter()
    }

    /// The shard at `id`, if any.
    pub fn get(&self, id: usize) -> Option<&Arc<Shard>> {
        self.shards.get(id)
    }

    /// The primary owner shard id for `model` (ignores replication).
    pub fn owner_id(&self, model: &str) -> usize {
        self.ring.owner(model)
    }

    /// Routes `model` to a shard. Unreplicated models go straight to
    /// their ring owner. Replicated models pick the shorter of two
    /// candidate owners' queues ("power of two choices"); the rotating
    /// tick makes candidate choice deterministic for tests while still
    /// spreading probes across the replica set.
    pub fn route(&self, model: &str) -> Arc<Shard> {
        let replicated = self.replicated.iter().any(|m| m == model);
        if !replicated || self.replicas < 2 {
            let id = self.ring.owner(model);
            return self.shard_or_first(id);
        }
        let owners = self.ring.owners(model, self.replicas);
        let k = owners.len();
        if k < 2 {
            let id = owners.first().copied().unwrap_or(0);
            return self.shard_or_first(id);
        }
        let tick = self.spill_tick.fetch_add(1, Ordering::Relaxed);
        let a = owners.get(tick % k).copied().unwrap_or(0);
        let b = owners.get((tick + 1) % k).copied().unwrap_or(0);
        let (sa, sb) = (self.shard_or_first(a), self.shard_or_first(b));
        let (da, db) = (sa.batcher.queue_depth(), sb.batcher.queue_depth());
        // Tie goes to the candidate earlier in replica order — the
        // primary when it is one of the pair.
        let pick_b = db < da
            || (db == da
                && owners.iter().position(|&s| s == b) < owners.iter().position(|&s| s == a));
        if pick_b {
            sb
        } else {
            sa
        }
    }

    fn shard_or_first(&self, id: usize) -> Arc<Shard> {
        match self.shards.get(id).or_else(|| self.shards.first()) {
            Some(s) => Arc::clone(s),
            // Unreachable: `start` always creates at least one shard.
            // Abort rather than panic so the invariant breaking loudly
            // can never poison a lock some handler is waiting on.
            None => std::process::abort(),
        }
    }

    /// Total rows queued across all shards (for the legacy aggregate
    /// gauge).
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.batcher.queue_depth()).sum()
    }

    /// Total cached rows across all shards.
    pub fn cache_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.cache.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Drains every shard's batcher in shard order. Idempotent.
    pub fn drain(&self) {
        for shard in &self.shards {
            shard.batcher.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_owner_is_deterministic_and_stable() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        for key in ["interest", "topic-7", "breaking-news", "sports"] {
            assert_eq!(a.owner(key), b.owner(key), "{key}");
            assert!(a.owner(key) < 4);
        }
    }

    #[test]
    fn ring_balance_is_reasonable() {
        let ring = Ring::new(8);
        let mut counts = vec![0usize; 8];
        for i in 0..4000 {
            counts[ring.owner(&format!("model-{i}"))] += 1;
        }
        let min = counts.iter().copied().min().unwrap();
        let max = counts.iter().copied().max().unwrap();
        assert!(min > 0, "every shard owns something: {counts:?}");
        assert!(max < 3 * min, "imbalance too high: {counts:?}");
    }

    #[test]
    fn owners_are_distinct_and_start_with_primary() {
        let ring = Ring::new(6);
        for key in ["a", "bb", "ccc", "model-42"] {
            let owners = ring.owners(key, 3);
            assert_eq!(owners.len(), 3);
            assert_eq!(owners[0], ring.owner(key), "primary first for {key}");
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners distinct for {key}");
        }
    }

    #[test]
    fn owners_clamped_to_shard_count() {
        let ring = Ring::new(2);
        assert_eq!(ring.owners("x", 5).len(), 2);
        assert_eq!(ring.owners("x", 0).len(), 1);
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = Ring::new(1);
        for key in ["a", "b", "c"] {
            assert_eq!(ring.owner(key), 0);
        }
    }

    #[test]
    fn retry_after_estimates() {
        // No drain evidence yet: optimistic 1s.
        assert_eq!(retry_after_from(500, 0.0), 1);
        // 200 rows queued, draining 100 rows/s -> 2s.
        assert_eq!(retry_after_from(200, 100.0), 2);
        // Partial second rounds up, floor 1.
        assert_eq!(retry_after_from(10, 100.0), 1);
        // Deep queue, slow drain: clamped at 30.
        assert_eq!(retry_after_from(10_000, 10.0), 30);
    }

    #[test]
    fn shard_set_routes_unreplicated_to_single_owner() {
        let metrics = Arc::new(Metrics::default());
        let set = ShardSet::start(
            &ShardConfig { shards: 4, ..ShardConfig::default() },
            &BatchConfig::default(),
            64,
            &metrics,
        )
        .unwrap();
        let first = set.route("some-model").id;
        for _ in 0..10 {
            assert_eq!(set.route("some-model").id, first);
        }
        assert_eq!(first, set.owner_id("some-model"));
        set.drain();
    }

    #[test]
    fn shard_set_spills_replicated_models_within_replica_set() {
        let metrics = Arc::new(Metrics::default());
        let set = ShardSet::start(
            &ShardConfig { shards: 4, replicated: vec!["hot".into()], replicas: 2 },
            &BatchConfig::default(),
            64,
            &metrics,
        )
        .unwrap();
        let allowed = set.ring.owners("hot", 2);
        for _ in 0..20 {
            let id = set.route("hot").id;
            assert!(allowed.contains(&id), "{id} not in replica set {allowed:?}");
        }
        set.drain();
    }
}
