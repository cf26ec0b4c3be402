//! The pipeline stage graph (paper Figure 1 as an explicit DAG).
//!
//! Each box of the architecture diagram is a [`Stage`]: a named node
//! with typed input/output artifacts, a content [fingerprint], and a
//! `run` body. The executor in [`crate::pipeline`] walks the graph in
//! topological order, consulting the content-addressed artifact cache
//! (`nd-store`'s [`ArtifactStore`](nd_store::ArtifactStore)) before
//! executing a body — so a re-run with only a downstream knob changed
//! replays every upstream stage from disk, bit for bit.
//!
//! [fingerprint]: Stage::fingerprint
//!
//! ## Fingerprint recipe
//!
//! A stage's fingerprint is [`crate::cache::fingerprint`] — the one
//! recipe the stream DAG uses too — over, in order: the cache format
//! version, the stage name, its code-version constant (bumped by hand
//! when a stage body changes semantics), its own config fingerprint,
//! zero for the slice words, and the fingerprints of its dependencies
//! in declaration order. Upstream changes therefore cascade: editing
//! the world seed re-fingerprints every stage, while editing
//! `correlation_threshold` re-fingerprints only `correlation` and
//! `features`, and a mining knob re-fingerprints only `patterns`.
//! The cache directory ([`crate::cache::CacheConfig`]) is
//! deliberately excluded.

use crate::correlate::{correlate, correlate_reverse, CorrelationOutput};
use crate::correlate::{decode_correlation, encode_correlation};
use crate::error::{CoreError, Result};
use crate::event_module::{
    decode_events, detect_news_events, detect_twitter_events, encode_events, DetectedEvents,
};
use crate::features::{assign_tweets, decode_assignments, encode_assignments, EventAssignment};
use crate::patterns_module::{decode_patterns, encode_patterns, mine_patterns, PatternsOutput};
use crate::pipeline::PipelineConfig;
use crate::preprocess::{decode_corpora, encode_corpora, Corpora};
use crate::pretrained::{decode_vectors, encode_vectors, train_pretrained};
use crate::topic_module::{decode_topics, encode_topics, extract_topics, NewsTopics};
use crate::trending::{decode_trending, encode_trending, extract_trending, TrendingTopic};
use nd_embed::WordVectors;
use nd_events::Event;
use nd_store::{fnv1a64, ArtifactError, ByteReader, ByteWriter};
use nd_synth::{decode_world, encode_world, World};
use std::collections::BTreeMap;

/// One artifact — the output of exactly one stage.
#[derive(Debug, Clone)]
pub enum ArtifactValue {
    /// `collect`: the generated world.
    World(World),
    /// `preprocess`: the three corpora.
    Corpora(Corpora),
    /// `topics`: NMF news topics.
    Topics(NewsTopics),
    /// `events`: both MABED passes.
    Events(DetectedEvents),
    /// `embeddings`: the pretrained word vectors.
    Vectors(WordVectors),
    /// `trending`: trending news topics.
    Trending(Vec<TrendingTopic>),
    /// `correlation`: forward + reverse correlation.
    Correlation(CorrelationOutput),
    /// `features`: tweet-to-event assignments.
    Assignments(Vec<EventAssignment>),
    /// `patterns`: the mined audience-pattern catalog + ground truth.
    Patterns(PatternsOutput),
}

macro_rules! artifact_accessors {
    ($($get:ident, $take:ident, $variant:ident => $ty:ty, $name:literal;)*) => {
        $(
            /// Borrows the artifact, erroring when absent or mistyped.
            ///
            /// # Errors
            /// [`CoreError::Artifact`] when the stage has not run.
            pub fn $get(&self) -> Result<&$ty> {
                match self.map.get($name) {
                    Some(ArtifactValue::$variant(v)) => Ok(v),
                    _ => Err(CoreError::Artifact(format!(
                        "artifact `{}` not materialized", $name
                    ))),
                }
            }

            /// Removes and returns the artifact.
            ///
            /// # Errors
            /// [`CoreError::Artifact`] when the stage has not run.
            pub fn $take(&mut self) -> Result<$ty> {
                match self.map.remove($name) {
                    Some(ArtifactValue::$variant(v)) => Ok(v),
                    _ => Err(CoreError::Artifact(format!(
                        "artifact `{}` not materialized", $name
                    ))),
                }
            }
        )*
    };
}

/// The artifacts materialized so far in one pipeline run, keyed by
/// stage name.
#[derive(Debug, Default)]
pub struct ArtifactSet {
    map: BTreeMap<&'static str, ArtifactValue>,
}

impl ArtifactSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a stage's output.
    pub fn insert(&mut self, name: &'static str, value: ArtifactValue) {
        self.map.insert(name, value);
    }

    artifact_accessors! {
        world, take_world, World => World, "collect";
        corpora, take_corpora, Corpora => Corpora, "preprocess";
        topics, take_topics, Topics => NewsTopics, "topics";
        events, take_events, Events => DetectedEvents, "events";
        vectors, take_vectors, Vectors => WordVectors, "embeddings";
        trending, take_trending, Trending => Vec<TrendingTopic>, "trending";
        correlation, take_correlation, Correlation => CorrelationOutput, "correlation";
        assignments, take_assignments, Assignments => Vec<EventAssignment>, "features";
        patterns, take_patterns, Patterns => PatternsOutput, "patterns";
    }
}

/// One node of the pipeline DAG.
pub trait Stage {
    /// Stable stage name — the artifact id and cache key prefix.
    fn name(&self) -> &'static str;

    /// Upstream stage names, in fingerprint order. Every dependency
    /// appears earlier in [`stages`] (the declaration order is the
    /// topological order).
    fn deps(&self) -> &'static [&'static str];

    /// Bumped by hand when the stage body's semantics change, so old
    /// cached artifacts stop matching.
    fn code_version(&self) -> u64;

    /// Fingerprint of the slice of [`PipelineConfig`] this stage
    /// reads. Cache-control knobs must not contribute.
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64;

    /// The stage's cache key: the shared [`crate::cache::fingerprint`]
    /// recipe, unsliced (slice and previous fingerprints are 0).
    fn fingerprint(&self, config: &PipelineConfig, input_fps: &[u64]) -> u64 {
        let config_fp = self.config_fingerprint(config);
        crate::cache::fingerprint(self.name(), self.code_version(), config_fp, 0, 0, input_fps)
    }

    /// Executes the stage body against already-materialized inputs.
    ///
    /// # Errors
    /// Stage-specific [`CoreError`]s (empty inputs, no output, ...).
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue>;

    /// Serializes the stage's artifact.
    ///
    /// # Errors
    /// [`CoreError::Artifact`] when handed another stage's variant.
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()>;

    /// Deserializes the stage's artifact. Any error reads as a cache
    /// miss upstream.
    ///
    /// # Errors
    /// [`ArtifactError`] on truncation or structural drift.
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError>;
}

/// Hashes a sub-config through its `Debug` rendering — stable for a
/// fixed config, and float-precise enough because every knob prints
/// with shortest-roundtrip formatting.
pub(crate) fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

fn threshold_fingerprint(threshold: f64) -> u64 {
    fnv1a64(&threshold.to_bits().to_le_bytes())
}

fn wrong_variant(stage: &'static str) -> CoreError {
    CoreError::Artifact(format!("stage `{stage}` handed a foreign artifact variant"))
}

/// Stage 1 — data generation / collection (paper §4.1).
#[derive(Debug, Clone, Copy)]
pub struct CollectStage;

impl Stage for CollectStage {
    fn name(&self) -> &'static str {
        "collect"
    }
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        debug_fingerprint(&config.world)
    }
    fn run(&self, config: &PipelineConfig, _inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let world = World::generate(config.world.clone());
        if world.articles.is_empty() || world.tweets.is_empty() {
            return Err(CoreError::EmptyInput("world generation"));
        }
        Ok(ArtifactValue::World(world))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::World(w) => {
                encode_world(w, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_world(r).map(ArtifactValue::World)
    }
}

/// Stage 2 — preprocessing into the three corpora (paper §4.2).
#[derive(Debug, Clone, Copy)]
pub struct PreprocessStage;

impl Stage for PreprocessStage {
    fn name(&self) -> &'static str {
        "preprocess"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["collect"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, _config: &PipelineConfig) -> u64 {
        0
    }
    fn run(&self, _config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let world = inputs.world()?;
        Ok(ArtifactValue::Corpora(Corpora::build(&world.articles, &world.tweets)))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Corpora(c) => {
                encode_corpora(c, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_corpora(r).map(ArtifactValue::Corpora)
    }
}

/// Stage 3 — topic modeling (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct TopicStage;

impl Stage for TopicStage {
    fn name(&self) -> &'static str {
        "topics"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        debug_fingerprint(&config.topic)
    }
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let corpora = inputs.corpora()?;
        Ok(ArtifactValue::Topics(extract_topics(&corpora.news_tm, &config.topic)))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Topics(t) => {
                encode_topics(t, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_topics(r).map(ArtifactValue::Topics)
    }
}

/// Stage 4 — event detection, both MABED passes (paper §4.4).
#[derive(Debug, Clone, Copy)]
pub struct EventStage;

impl Stage for EventStage {
    fn name(&self) -> &'static str {
        "events"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        debug_fingerprint(&config.event)
    }
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let corpora = inputs.corpora()?;
        let news = detect_news_events(&corpora.news_ed, &config.event);
        if news.is_empty() {
            return Err(CoreError::NoOutput("news event detection"));
        }
        let twitter = detect_twitter_events(&corpora.twitter_ed, &config.event);
        if twitter.is_empty() {
            return Err(CoreError::NoOutput("twitter event detection"));
        }
        Ok(ArtifactValue::Events(DetectedEvents { news, twitter }))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Events(e) => {
                encode_events(e, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_events(r).map(ArtifactValue::Events)
    }
}

/// Stage 5 — the pretrained embedding model (paper §4.9). Depends on
/// no other stage: the background corpus is config-generated.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingStage;

impl Stage for EmbeddingStage {
    fn name(&self) -> &'static str {
        "embeddings"
    }
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        debug_fingerprint(&config.pretrained)
    }
    fn run(&self, config: &PipelineConfig, _inputs: &ArtifactSet) -> Result<ArtifactValue> {
        Ok(ArtifactValue::Vectors(train_pretrained(&config.pretrained)))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Vectors(v) => {
                encode_vectors(v, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_vectors(r).map(ArtifactValue::Vectors)
    }
}

/// Stage 6 — trending news topics (paper §4.5).
#[derive(Debug, Clone, Copy)]
pub struct TrendingStage;

impl Stage for TrendingStage {
    fn name(&self) -> &'static str {
        "trending"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["topics", "events", "embeddings"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        threshold_fingerprint(config.trending_threshold)
    }
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let topics = inputs.topics()?;
        let events = inputs.events()?;
        let vectors = inputs.vectors()?;
        let trending =
            extract_trending(&topics.topics, &events.news, vectors, config.trending_threshold);
        if trending.is_empty() {
            return Err(CoreError::NoOutput("trending extraction"));
        }
        Ok(ArtifactValue::Trending(trending))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Trending(t) => {
                encode_trending(t, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_trending(r).map(ArtifactValue::Trending)
    }
}

/// Stage 7 — correlation, both directions (paper §4.6).
#[derive(Debug, Clone, Copy)]
pub struct CorrelationStage;

impl Stage for CorrelationStage {
    fn name(&self) -> &'static str {
        "correlation"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["trending", "events", "embeddings"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        threshold_fingerprint(config.correlation_threshold)
    }
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let trending = inputs.trending()?;
        let events = inputs.events()?;
        let vectors = inputs.vectors()?;
        let forward =
            correlate(trending, &events.twitter, vectors, config.correlation_threshold);
        let reverse =
            correlate_reverse(trending, &events.twitter, vectors, config.correlation_threshold);
        Ok(ArtifactValue::Correlation(CorrelationOutput { forward, reverse }))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Correlation(c) => {
                encode_correlation(&c.forward, out);
                encode_correlation(&c.reverse, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        Ok(ArtifactValue::Correlation(CorrelationOutput {
            forward: decode_correlation(r)?,
            reverse: decode_correlation(r)?,
        }))
    }
}

/// Stage 8 — feature creation: tweet-to-event assignment (paper §4.7).
#[derive(Debug, Clone, Copy)]
pub struct FeatureStage;

impl Stage for FeatureStage {
    fn name(&self) -> &'static str {
        "features"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["correlation", "events", "collect", "preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, _config: &PipelineConfig) -> u64 {
        0
    }
    fn run(&self, _config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let correlation = inputs.correlation()?;
        let events = inputs.events()?;
        let world = inputs.world()?;
        let corpora = inputs.corpora()?;
        let correlated = correlated_events(&correlation.forward, &events.twitter);
        Ok(ArtifactValue::Assignments(assign_tweets(
            &correlated,
            &world.tweets,
            &corpora.twitter_ed,
        )))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Assignments(a) => {
                encode_assignments(a, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_assignments(r).map(ArtifactValue::Assignments)
    }
}

/// Stage 9 — temporal audience-pattern mining (ROADMAP item 5; not a
/// paper module). Depends only on `collect`: trajectories are seeded
/// from the world, and the mined catalog is independent of the
/// text-side stages.
#[derive(Debug, Clone, Copy)]
pub struct PatternsStage;

impl Stage for PatternsStage {
    fn name(&self) -> &'static str {
        "patterns"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["collect"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &PipelineConfig) -> u64 {
        debug_fingerprint(&config.patterns)
    }
    fn run(&self, config: &PipelineConfig, inputs: &ArtifactSet) -> Result<ArtifactValue> {
        let world = inputs.world()?;
        let output = mine_patterns(world, &config.patterns);
        if output.catalog.patterns.is_empty() {
            return Err(CoreError::NoOutput("pattern mining"));
        }
        Ok(ArtifactValue::Patterns(output))
    }
    fn encode(&self, value: &ArtifactValue, out: &mut ByteWriter) -> Result<()> {
        match value {
            ArtifactValue::Patterns(p) => {
                encode_patterns(p, out);
                Ok(())
            }
            _ => Err(wrong_variant(self.name())),
        }
    }
    fn decode(&self, r: &mut ByteReader<'_>) -> std::result::Result<ArtifactValue, ArtifactError> {
        decode_patterns(r).map(ArtifactValue::Patterns)
    }
}

/// The correlated Twitter events — the forward pair set's event
/// targets, in index order. Derived (not cached): it is a cheap
/// projection of the correlation artifact over the event artifact.
pub fn correlated_events(
    forward: &crate::correlate::CorrelationResult,
    twitter_events: &[Event],
) -> Vec<Event> {
    let mut idx: Vec<usize> = forward.pairs.iter().map(|p| p.twitter_idx).collect();
    idx.sort_unstable();
    idx.dedup();
    idx.into_iter().map(|i| twitter_events[i].clone()).collect()
}

/// The full stage graph in topological (declaration) order.
pub fn stages() -> [&'static dyn Stage; 9] {
    [
        &CollectStage,
        &PreprocessStage,
        &TopicStage,
        &EventStage,
        &EmbeddingStage,
        &TrendingStage,
        &CorrelationStage,
        &FeatureStage,
        &PatternsStage,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_order_is_topological() {
        let all = stages();
        let mut seen = std::collections::HashSet::new();
        for stage in all {
            for dep in stage.deps() {
                assert!(seen.contains(dep), "{} depends on later stage {dep}", stage.name());
            }
            assert!(seen.insert(stage.name()), "duplicate stage {}", stage.name());
        }
    }

    #[test]
    fn fingerprints_differ_across_stages_and_configs() {
        let config = PipelineConfig::small();
        let all = stages();
        let fps: Vec<u64> = all.iter().map(|s| s.fingerprint(&config, &[])).collect();
        let unique: std::collections::HashSet<u64> = fps.iter().copied().collect();
        assert_eq!(unique.len(), fps.len(), "stage fingerprints collide");

        let mut changed = config.clone();
        changed.trending_threshold = 0.42;
        assert_ne!(
            TrendingStage.fingerprint(&config, &[1, 2, 3]),
            TrendingStage.fingerprint(&changed, &[1, 2, 3]),
            "threshold change must re-fingerprint trending"
        );
        assert_eq!(
            CorrelationStage.fingerprint(&config, &[1, 2, 3]),
            CorrelationStage.fingerprint(&changed, &[1, 2, 3]),
            "trending threshold must not touch correlation's own config"
        );
    }

    #[test]
    fn fingerprint_depends_on_inputs() {
        let config = PipelineConfig::small();
        assert_ne!(
            PreprocessStage.fingerprint(&config, &[1]),
            PreprocessStage.fingerprint(&config, &[2])
        );
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let config = PipelineConfig::small();
        for stage in stages() {
            assert_eq!(
                stage.fingerprint(&config, &[7, 9]),
                stage.fingerprint(&config, &[7, 9])
            );
        }
    }

    #[test]
    fn cache_knobs_do_not_fingerprint() {
        let config = PipelineConfig::small();
        let mut cached = config.clone();
        cached.cache.dir = Some(std::path::PathBuf::from("/tmp/x"));
        for stage in stages() {
            assert_eq!(
                stage.fingerprint(&config, &[3]),
                stage.fingerprint(&cached, &[3]),
                "cache knobs leaked into {}'s fingerprint",
                stage.name()
            );
        }
    }
}
