//! The assembled synthetic world.
//!
//! `World::generate` plants events, creates the user population, then
//! walks the collection window hour by hour emitting news articles and
//! tweets whose rates follow the planted burst envelopes. Engagement
//! (likes/retweets) is drawn from the calibrated ground-truth model.
//! The firehose shares the same ground truth and emission routine
//! (`GroundTruth`), with one RNG stream per slice.

use crate::engagement::EngagementModel;
use crate::events::{plant_events, GroundTruthEvent};
use crate::news_gen;
use crate::time::{HOUR, MAY_2019};
use crate::topics::{topic_inventory, TopicKind, TopicSpec};
use crate::tweet_gen;
use crate::users::{generate_users, User};
use nd_linalg::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// World-generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Window start (unix seconds).
    pub start: u64,
    /// Window length in days (the paper collected for ~5 months).
    pub days: u64,
    /// Twitter user population size.
    pub n_users: usize,
    /// Guaranteed influencer count within the population.
    pub min_influencers: usize,
    /// Baseline news articles per topic per hour.
    pub news_base_rate: f64,
    /// Baseline tweets per topic per hour.
    pub tweet_base_rate: f64,
    /// Engagement ground-truth parameters.
    pub engagement: EngagementModel,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            start: MAY_2019,
            days: 150,
            n_users: 4_000,
            min_influencers: 120,
            news_base_rate: 0.35,
            tweet_base_rate: 0.25,
            engagement: EngagementModel::default(),
            seed: 42,
        }
    }
}

impl WorldConfig {
    /// A scaled-down world for unit/integration tests (≈ 2 weeks).
    pub fn small() -> Self {
        WorldConfig {
            days: 14,
            n_users: 400,
            min_influencers: 30,
            news_base_rate: 0.3,
            tweet_base_rate: 0.25,
            ..Default::default()
        }
    }
}

/// A generated news article.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NewsArticle {
    /// Dense article id.
    pub id: u64,
    /// Publication time (unix seconds).
    pub timestamp: u64,
    /// Source outlet handle.
    pub source: String,
    /// Headline.
    pub title: String,
    /// Full body (what the scraper recovers).
    pub content: String,
    /// Truncated first paragraph (what NewsAPI returns).
    pub snippet: String,
    /// Ground truth: generating topic index (evaluation only — the
    /// pipeline never reads this).
    pub gt_topic: usize,
}

/// A generated tweet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tweet {
    /// Dense tweet id.
    pub id: u64,
    /// Post time (unix seconds).
    pub timestamp: u64,
    /// Author's user id.
    pub author_id: u32,
    /// Author handle (denormalized, as the Twitter API returns it).
    pub author_handle: String,
    /// Author follower count at post time.
    pub author_followers: u64,
    /// Tweet text.
    pub text: String,
    /// Likes (favorites).
    pub likes: u64,
    /// Retweets.
    pub retweets: u64,
    /// Ground truth: generating topic index (evaluation only).
    pub gt_topic: usize,
    /// Ground truth: content virality fed to the engagement model
    /// (evaluation only).
    pub gt_virality: f64,
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// Configuration used.
    pub config: WorldConfig,
    /// Topic inventory (index space for `gt_topic`).
    pub topics: Vec<TopicSpec>,
    /// Planted ground-truth events.
    pub events: Vec<GroundTruthEvent>,
    /// User population.
    pub users: Vec<User>,
    /// News corpus, ordered by timestamp.
    pub articles: Vec<NewsArticle>,
    /// Tweet corpus, ordered by timestamp.
    pub tweets: Vec<Tweet>,
}

/// The ground truth every generator shares: the topic inventory, the
/// planted events, the user population and the authors' sampling
/// weights. [`World::generate`] emits the whole window from it in one
/// RNG stream; the firehose emits each slice from its own stream.
#[derive(Debug, Clone)]
pub(crate) struct GroundTruth {
    pub(crate) topics: Vec<TopicSpec>,
    pub(crate) events: Vec<GroundTruthEvent>,
    pub(crate) users: Vec<User>,
    author_weights: Vec<f64>,
}

impl GroundTruth {
    /// Plants events and generates the users over the full horizon.
    pub(crate) fn new(config: &WorldConfig) -> Self {
        let topics = topic_inventory();
        let events = plant_events(&topics, config.start, config.days, config.seed);
        let users = generate_users(config.n_users, config.min_influencers, config.seed);
        // Author sampling weights: influencers tweet more.
        let author_weights =
            users.iter().map(|u| 1.0 + (u.followers as f64).sqrt() / 40.0).collect();
        GroundTruth { topics, events, users, author_weights }
    }

    /// Walks `[start, end)` hour by hour, emitting news articles and
    /// tweets whose rates follow the planted burst envelopes, with
    /// every draw taken from `rng`. Both corpora come back sorted by
    /// timestamp with dense ids from 0.
    pub(crate) fn emit(
        &self,
        config: &WorldConfig,
        start: u64,
        end: u64,
        rng: &mut SplitMix64,
    ) -> (Vec<NewsArticle>, Vec<Tweet>) {
        let mut articles = Vec::new();
        let mut tweets = Vec::new();
        let mut ts_hour = start;
        while ts_hour < end {
            for (topic_idx, spec) in self.topics.iter().enumerate() {
                // Strongest active burst envelope for this topic —
                // news sees the envelope directly, Twitter sees it
                // after the per-event echo lag.
                let topic_events = || self.events.iter().filter(move |e| e.topic == topic_idx);
                let news_burst: f64 =
                    topic_events().map(|e| e.envelope(ts_hour)).fold(0.0, f64::max);
                let burst: f64 =
                    topic_events().map(|e| e.twitter_envelope(ts_hour)).fold(0.0, f64::max);

                // --- News ---
                if spec.kind == TopicKind::NewsAndTwitter {
                    let rate = config.news_base_rate * (1.0 + news_burst);
                    for _ in 0..news_gen::sample_poisson(rate, rng) {
                        let ts = ts_hour + rng.next_usize(HOUR as usize) as u64;
                        let content = news_gen::article_body(spec.keywords, rng);
                        articles.push(NewsArticle {
                            id: articles.len() as u64,
                            timestamp: ts,
                            source: news_gen::pick_source(rng).to_string(),
                            title: news_gen::headline(spec.keywords, rng),
                            snippet: news_gen::snippet_of(&content),
                            content,
                            gt_topic: topic_idx,
                        });
                    }
                }

                // --- Tweets ---
                let tweet_burst_gain =
                    if spec.kind == TopicKind::NewsAndTwitter { 1.3 } else { 1.0 };
                let rate = config.tweet_base_rate * (1.0 + tweet_burst_gain * burst);
                // Content virality is a property of the *story*, not
                // of the instant: inside a burst it is the topic base
                // scaled by the burst's peak intensity (constant over
                // the event — the signal a per-event document
                // embedding can actually recover); background chatter
                // gets the dampened topic base.
                let peak: f64 = topic_events()
                    .filter(|e| e.twitter_envelope(ts_hour) > 0.0)
                    .map(|e| e.intensity)
                    .fold(0.0, f64::max);
                let virality = if peak > 0.0 {
                    spec.virality * (0.45 + 0.55 * (peak / 10.0).min(1.0))
                } else {
                    spec.virality * 0.35
                };
                for _ in 0..news_gen::sample_poisson(rate, rng) {
                    let ts = ts_hour + rng.next_usize(HOUR as usize) as u64;
                    let author = &self.users[rng.sample_weighted(&self.author_weights)];
                    let engagement =
                        config.engagement.sample(virality, author.follower_bucket(), ts, rng);
                    tweets.push(Tweet {
                        id: tweets.len() as u64,
                        timestamp: ts,
                        author_id: author.id,
                        author_handle: author.handle.clone(),
                        author_followers: author.followers,
                        text: tweet_gen::tweet_text(spec.keywords, rng),
                        likes: engagement.likes,
                        retweets: engagement.retweets,
                        gt_topic: topic_idx,
                        gt_virality: virality,
                    });
                }
            }
            ts_hour += HOUR;
        }

        articles.sort_by_key(|a| a.timestamp);
        tweets.sort_by_key(|t| t.timestamp);
        // Re-assign ids in time order (stable, deterministic).
        for (i, a) in articles.iter_mut().enumerate() {
            a.id = i as u64;
        }
        for (i, t) in tweets.iter_mut().enumerate() {
            t.id = i as u64;
        }
        (articles, tweets)
    }
}

impl World {
    /// Generates a world deterministically from the configuration.
    pub fn generate(config: WorldConfig) -> World {
        let truth = GroundTruth::new(&config);
        let mut rng = SplitMix64::new(config.seed ^ 0xA11CE);
        let end = config.start + config.days * 24 * HOUR;
        let (articles, tweets) = truth.emit(&config, config.start, end, &mut rng);
        let GroundTruth { topics, events, users, .. } = truth;
        World { config, topics, events, users, articles, tweets }
    }

    /// End of the collection window.
    pub fn end(&self) -> u64 {
        self.config.start + self.config.days * crate::time::DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::generate(WorldConfig::small())
    }

    #[test]
    fn generates_nonempty_corpora() {
        let w = small_world();
        assert!(w.articles.len() > 500, "articles: {}", w.articles.len());
        assert!(w.tweets.len() > 500, "tweets: {}", w.tweets.len());
    }

    #[test]
    fn corpora_sorted_and_ids_dense() {
        let w = small_world();
        for pair in w.articles.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
        for (i, t) in w.tweets.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn timestamps_inside_window() {
        let w = small_world();
        for a in &w.articles {
            assert!(a.timestamp >= w.config.start && a.timestamp < w.end());
        }
        for t in &w.tweets {
            assert!(t.timestamp >= w.config.start && t.timestamp < w.end());
        }
    }

    #[test]
    fn twitter_only_topics_never_in_news() {
        let w = small_world();
        for a in &w.articles {
            assert_eq!(w.topics[a.gt_topic].kind, TopicKind::NewsAndTwitter);
        }
        // But they do exist on Twitter.
        let twitter_only_tweets = w
            .tweets
            .iter()
            .filter(|t| w.topics[t.gt_topic].kind == TopicKind::TwitterOnly)
            .count();
        assert!(twitter_only_tweets > 50);
    }

    #[test]
    fn bursts_raise_volume() {
        let w = small_world();
        // Pick a news event; compare in-burst vs out-of-burst hourly
        // article volume for its topic.
        let ev = w
            .events
            .iter()
            .find(|e| {
                w.topics[e.topic].kind == TopicKind::NewsAndTwitter
                    && e.end <= w.end()
                    && e.intensity >= 5.0
            })
            .expect("some strong news event inside the window");
        let len_h = ((ev.end - ev.start) / HOUR).max(1);
        let inside = w
            .articles
            .iter()
            .filter(|a| a.gt_topic == ev.topic && a.timestamp >= ev.start && a.timestamp < ev.end)
            .count() as f64
            / len_h as f64;
        let total_h = w.config.days * 24;
        let outside = w
            .articles
            .iter()
            .filter(|a| {
                a.gt_topic == ev.topic && !(a.timestamp >= ev.start && a.timestamp < ev.end)
            })
            .count() as f64
            / (total_h - len_h).max(1) as f64;
        assert!(
            inside > outside * 1.5,
            "burst volume {inside:.3}/h vs baseline {outside:.3}/h"
        );
    }

    #[test]
    fn tweet_engagement_fields_consistent() {
        let w = small_world();
        for t in w.tweets.iter().take(500) {
            assert!((0.0..=1.0).contains(&t.gt_virality));
            let author = &w.users[t.author_id as usize];
            assert_eq!(author.followers, t.author_followers);
            assert_eq!(author.handle, t.author_handle);
        }
    }

    #[test]
    fn deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.articles.len(), b.articles.len());
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.tweets[0].text, b.tweets[0].text);
        assert_eq!(a.tweets[0].likes, b.tweets[0].likes);
    }

    #[test]
    fn snippet_is_prefix_of_content() {
        let w = small_world();
        for a in w.articles.iter().take(100) {
            assert!(a.content.starts_with(a.snippet.as_str()));
            assert!(a.snippet.len() <= a.content.len());
        }
    }
}
