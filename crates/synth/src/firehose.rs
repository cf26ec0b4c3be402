//! Deterministic firehose: the world as a sequence of time slices.
//!
//! `World::generate` materializes the whole collection window in one
//! pass from a single RNG stream, which makes any incremental
//! consumer replay history to reach hour *h*. The firehose instead
//! carves the window into fixed-width slices and gives **every slice
//! its own seeded RNG stream**, derived only from the master seed and
//! the slice index. Two consequences the incremental pipeline
//! (DESIGN.md §17) is built on:
//!
//! * **Draw-order independence.** `poll(k)` returns bit-identical
//!   content whether it is the first slice drawn or the last, polled
//!   once or a hundred times, from this process or another.
//! * **No history replay.** Producing slice *k* costs only slice *k*'s
//!   generation work; the planted events, topic inventory, and user
//!   population are fixed once at construction.
//!
//! Article and tweet ids are **slice-local** (dense, time-ordered
//! within the slice); the collect fold globalizes them by offsetting
//! with the cumulative counts of earlier slices.

use crate::events::GroundTruthEvent;
use crate::time::HOUR;
#[cfg(test)]
use crate::topics::TopicKind;
use crate::topics::TopicSpec;
use crate::users::User;
use crate::world::{GroundTruth, NewsArticle, Tweet, WorldConfig};
use nd_linalg::rng::SplitMix64;

/// Firehose parameters: a world configuration plus the slice width.
#[derive(Debug, Clone)]
pub struct FirehoseConfig {
    /// The underlying world (horizon, rates, population, seed).
    pub world: WorldConfig,
    /// Slice width in hours. The horizon `world.days * 24` is carved
    /// into `ceil(hours / slice_hours)` slices; the last slice may be
    /// short.
    pub slice_hours: u64,
}

impl FirehoseConfig {
    /// A scaled-down stream for unit/integration tests: a two-week
    /// horizon in 48-hour slices (7 slices).
    pub fn small() -> Self {
        FirehoseConfig { world: WorldConfig::small(), slice_hours: 48 }
    }

    /// Number of slices covering the horizon.
    pub fn n_slices(&self) -> usize {
        let hours = self.world.days * 24;
        (hours.div_ceil(self.slice_hours.max(1))) as usize
    }

    /// FNV-compatible fingerprint of everything that determines slice
    /// content. Two configs with equal fingerprints produce bit-equal
    /// slices.
    pub fn fingerprint(&self) -> u64 {
        let c = &self.world;
        let mut out = Vec::new();
        for v in [
            c.start,
            c.days,
            c.n_users as u64,
            c.min_influencers as u64,
            c.news_base_rate.to_bits(),
            c.tweet_base_rate.to_bits(),
            c.engagement.w_content.to_bits(),
            c.engagement.w_followers.to_bits(),
            c.engagement.w_day.to_bits(),
            c.engagement.w_noise.to_bits(),
            c.engagement.t_low.to_bits(),
            c.engagement.t_high.to_bits(),
            c.seed,
            self.slice_hours,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        nd_store::fnv1a64(&out)
    }
}

/// One poll result: everything published inside `[start, end)`.
///
/// Articles and tweets are sorted by timestamp with dense slice-local
/// ids starting at 0.
#[derive(Debug, Clone)]
pub struct TimeSlice {
    /// Slice index within the horizon.
    pub index: usize,
    /// Slice start (unix seconds, inclusive).
    pub start: u64,
    /// Slice end (unix seconds, exclusive).
    pub end: u64,
    /// Articles published in the slice.
    pub articles: Vec<NewsArticle>,
    /// Tweets posted in the slice.
    pub tweets: Vec<Tweet>,
}

/// The firehose itself. Construction fixes the ground truth (topics,
/// planted events, users); [`Firehose::poll`] generates slices on
/// demand from per-slice RNG streams.
#[derive(Debug, Clone)]
pub struct Firehose {
    config: FirehoseConfig,
    truth: GroundTruth,
}

impl Firehose {
    /// Builds the firehose: plants events and generates the user
    /// population over the full horizon, with the same ground truth
    /// `World::generate` builds.
    pub fn new(config: FirehoseConfig) -> Firehose {
        let truth = GroundTruth::new(&config.world);
        Firehose { config, truth }
    }

    /// The configuration the firehose was built from.
    pub fn config(&self) -> &FirehoseConfig {
        &self.config
    }

    /// Number of slices in the horizon.
    pub fn n_slices(&self) -> usize {
        self.config.n_slices()
    }

    /// Topic inventory (index space for `gt_topic`).
    pub fn topics(&self) -> &[TopicSpec] {
        &self.truth.topics
    }

    /// Planted ground-truth events.
    pub fn events(&self) -> &[GroundTruthEvent] {
        &self.truth.events
    }

    /// User population.
    pub fn users(&self) -> &[User] {
        &self.truth.users
    }

    /// `[start, end)` bounds of slice `k` in unix seconds.
    ///
    /// # Panics
    /// When `k` is outside the horizon.
    pub fn slice_bounds(&self, k: usize) -> (u64, u64) {
        assert!(k < self.n_slices(), "slice {k} outside horizon of {}", self.n_slices());
        let horizon_end = self.config.world.start + self.config.world.days * 24 * HOUR;
        let start = self.config.world.start + k as u64 * self.config.slice_hours * HOUR;
        let end = (start + self.config.slice_hours * HOUR).min(horizon_end);
        (start, end)
    }

    /// RNG stream for slice `k`: a function of the master seed and the
    /// slice index only.
    fn slice_rng(&self, k: usize) -> SplitMix64 {
        let mixed = (k as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.config.world.seed ^ 0x0F1E_405E);
        SplitMix64::new(mixed)
    }

    /// Generates slice `k`. Bit-identical for the same `(config, k)`
    /// regardless of when — or how often — it is drawn.
    ///
    /// The per-hour emission is `World::generate`'s own routine (burst
    /// envelopes, virality, engagement sampling); only the RNG stream
    /// is slice-scoped.
    ///
    /// # Panics
    /// When `k` is outside the horizon.
    pub fn poll(&self, k: usize) -> TimeSlice {
        let (start, end) = self.slice_bounds(k);
        let (articles, tweets) =
            self.truth.emit(&self.config.world, start, end, &mut self.slice_rng(k));
        TimeSlice { index: k, start, end, articles, tweets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hose() -> Firehose {
        let mut cfg = FirehoseConfig::small();
        cfg.world.days = 8;
        cfg.slice_hours = 24;
        Firehose::new(cfg)
    }

    fn slice_digest(s: &TimeSlice) -> u64 {
        let mut w = nd_store::ByteWriter::new();
        crate::serial::encode_articles(&s.articles, &mut w);
        crate::serial::encode_tweets(&s.tweets, &mut w);
        nd_store::fnv1a64(&w.into_bytes())
    }

    #[test]
    fn slices_tile_the_horizon() {
        let fh = small_hose();
        assert_eq!(fh.n_slices(), 8);
        let mut expected = fh.config().world.start;
        for k in 0..fh.n_slices() {
            let (s, e) = fh.slice_bounds(k);
            assert_eq!(s, expected);
            assert!(e > s);
            expected = e;
        }
        assert_eq!(expected, fh.config().world.start + 8 * 24 * HOUR);
    }

    #[test]
    fn poll_is_independent_of_draw_order() {
        let fh = small_hose();
        // Draw 3 after 0..8 forward, then again after a reverse sweep,
        // then from a fresh firehose: all bit-identical.
        let forward: Vec<u64> = (0..fh.n_slices()).map(|k| slice_digest(&fh.poll(k))).collect();
        let reverse: Vec<u64> =
            (0..fh.n_slices()).rev().map(|k| slice_digest(&fh.poll(k))).collect();
        for (k, d) in forward.iter().enumerate() {
            assert_eq!(*d, reverse[fh.n_slices() - 1 - k], "slice {k} depends on draw order");
        }
        let fresh = Firehose::new(fh.config().clone());
        assert_eq!(slice_digest(&fresh.poll(3)), forward[3]);
    }

    #[test]
    fn slice_content_stays_inside_bounds_with_dense_local_ids() {
        let fh = small_hose();
        for k in 0..fh.n_slices() {
            let s = fh.poll(k);
            for (i, a) in s.articles.iter().enumerate() {
                assert_eq!(a.id, i as u64);
                assert!(a.timestamp >= s.start && a.timestamp < s.end);
            }
            for (i, t) in s.tweets.iter().enumerate() {
                assert_eq!(t.id, i as u64);
                assert!(t.timestamp >= s.start && t.timestamp < s.end);
            }
        }
    }

    #[test]
    fn distinct_slices_have_distinct_content() {
        let fh = small_hose();
        let a = fh.poll(0);
        let b = fh.poll(1);
        assert!(!a.articles.is_empty() && !b.articles.is_empty());
        assert_ne!(slice_digest(&a), slice_digest(&b));
    }

    #[test]
    fn union_covers_every_topic_kind() {
        let fh = small_hose();
        let mut news_topics = std::collections::BTreeSet::new();
        let mut tweet_topics = std::collections::BTreeSet::new();
        for k in 0..fh.n_slices() {
            let s = fh.poll(k);
            news_topics.extend(s.articles.iter().map(|a| a.gt_topic));
            tweet_topics.extend(s.tweets.iter().map(|t| t.gt_topic));
        }
        // News only from NewsAndTwitter topics; Twitter-only topics
        // appear among tweets.
        assert!(news_topics
            .iter()
            .all(|&t| fh.topics()[t].kind == TopicKind::NewsAndTwitter));
        assert!(tweet_topics
            .iter()
            .any(|&t| fh.topics()[t].kind == TopicKind::TwitterOnly));
    }
}
