//! End-to-end pipeline: the whole of paper Figure 1 on one world,
//! driven as an explicit stage DAG with a content-addressed artifact
//! cache.
//!
//! The executor walks [`stages`] in topological
//! order. For each stage it computes the fingerprint (config + code
//! version + upstream fingerprints), consults the cache when a
//! [`CacheConfig::dir`] is set, and only executes the stage body on a
//! miss; the per-stage cache path is [`crate::cache`]'s, shared with
//! the stream executor. A warm re-run therefore executes zero stage
//! bodies and is bit-identical to the cold run; a re-run with one knob
//! changed recomputes exactly the downstream cone of that knob.

use crate::cache::{ms_since, ArtifactCache, CacheConfig, RunReport};
use crate::correlate::CorrelationResult;
use crate::error::Result;
use crate::event_module::{encode_event_list, EventModuleConfig};
use crate::features::{build_dataset, encode_assignments, Dataset, DatasetVariant, EventAssignment};
use crate::patterns_module::{encode_patterns, PatternStageConfig, PatternsOutput};
use crate::pretrained::{encode_vectors, PretrainedConfig};
use crate::stage::{correlated_events, stages, ArtifactSet};
use crate::topic_module::{encode_topics, NewsTopics, TopicModuleConfig};
use crate::trending::{encode_trending, TrendingTopic};
use nd_embed::WordVectors;
use nd_events::Event;
use nd_store::{fnv1a64, ByteWriter};
use nd_synth::{encode_world, World, WorldConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic-world parameters.
    pub world: WorldConfig,
    /// Topic-modeling parameters.
    pub topic: TopicModuleConfig,
    /// Event-detection parameters.
    pub event: EventModuleConfig,
    /// Pretrained-embedding parameters.
    pub pretrained: PretrainedConfig,
    /// News-topic ↔ news-event threshold (paper: 0.7).
    pub trending_threshold: f64,
    /// Trending ↔ Twitter-event threshold (paper: 0.65).
    pub correlation_threshold: f64,
    /// Audience-pattern mining parameters (stage 9).
    pub patterns: PatternStageConfig,
    /// Artifact-cache controls (excluded from stage fingerprints).
    pub cache: CacheConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            world: WorldConfig::default(),
            topic: TopicModuleConfig::default(),
            event: EventModuleConfig::default(),
            pretrained: PretrainedConfig::default(),
            trending_threshold: 0.7,
            correlation_threshold: 0.65,
            patterns: PatternStageConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests and examples: two simulated
    /// weeks, 32-dimension embeddings.
    pub fn small() -> Self {
        PipelineConfig {
            world: WorldConfig::small(),
            topic: TopicModuleConfig { n_topics: 10, max_iter: 120, ..Default::default() },
            event: EventModuleConfig::default(),
            pretrained: PretrainedConfig {
                dim: 32,
                n_sentences: 1_500,
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Enables the artifact cache under `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache.dir = Some(dir.into());
        self
    }

    /// The workspace-shared run directory (`target/nd-run-cache`):
    /// test suites point here so the small world is trained once per
    /// workspace test pass and replayed everywhere else.
    pub fn shared_run_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/nd-run-cache")
    }
}

/// Everything the pipeline produced, stage by stage.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The generated world (ground truth attached).
    pub world: World,
    /// NMF news topics.
    pub topics: NewsTopics,
    /// MABED news events.
    pub news_events: Vec<Event>,
    /// MABED Twitter events (≥ 10 tweets each).
    pub twitter_events: Vec<Event>,
    /// Trending news topics (topic ↔ news-event pairs ≥ 0.7).
    pub trending: Vec<TrendingTopic>,
    /// Forward correlation result (trending → Twitter events).
    pub correlation: CorrelationResult,
    /// Reverse correlation result (Twitter events → trending).
    pub reverse_correlation: CorrelationResult,
    /// Correlated Twitter events (the ones feeding feature creation).
    pub correlated_events: Vec<Event>,
    /// Tweet-to-event assignments over `correlated_events`.
    pub assignments: Vec<EventAssignment>,
    /// The pretrained word vectors.
    pub vectors: WordVectors,
    /// TwitterED token streams, aligned with `world.tweets` (moved
    /// out of the preprocessing artifact — never copied).
    pub tweet_tokens: Vec<Vec<String>>,
    /// The mined audience-pattern catalog + planted ground truth.
    pub patterns: PatternsOutput,
}

/// The pipeline runner.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a runner.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// Runs every stage of Figure 1 and returns the intermediate and
    /// final artifacts.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::NoOutput`] when a stage that later
    /// stages depend on produces nothing (e.g. no Twitter events
    /// survive the 10-tweet rule).
    pub fn run(&self) -> Result<PipelineOutput> {
        self.run_with_report().map(|(output, _)| output)
    }

    /// Like [`run`](Pipeline::run), also returning the per-stage
    /// cache/timing report.
    ///
    /// # Errors
    /// As [`run`](Pipeline::run).
    pub fn run_with_report(&self) -> Result<(PipelineOutput, RunReport)> {
        let (mut artifacts, report) = self.execute()?;
        let output = PipelineOutput::assemble(&mut artifacts)?;
        Ok((output, report))
    }

    /// Walks the stage DAG in declaration order, running each stage
    /// through the shared cache path ([`crate::cache`]): replay on a
    /// hit, execute the body on a miss.
    ///
    /// # Errors
    /// [`crate::CoreError::Artifact`] for an unusable cache directory;
    /// stage-body errors propagate unchanged.
    pub fn execute(&self) -> Result<(ArtifactSet, RunReport)> {
        let cfg = &self.config;
        let cache = ArtifactCache::open(&cfg.cache)?;
        let run_start = Instant::now();
        let mut fingerprints: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut artifacts = ArtifactSet::new();
        let mut report = RunReport::default();

        for stage in stages() {
            let input_fps: Vec<u64> =
                stage.deps().iter().map(|d| fingerprints[d]).collect();
            let fp = stage.fingerprint(cfg, &input_fps);
            fingerprints.insert(stage.name(), fp);
            let (value, record) = cache.node(
                stage.name(),
                None,
                fp,
                |r| stage.decode(r),
                || stage.run(cfg, &artifacts),
                |v, w| stage.encode(v, w),
            )?;
            artifacts.insert(stage.name(), value);
            report.stages.push(record);
        }

        report.total_ms = ms_since(run_start);
        if let Some(store) = cache.store() {
            store.write_text("run_report.json", &report.to_json())?;
        }
        Ok((artifacts, report))
    }
}

impl PipelineOutput {
    /// Assembles the public output from a fully-materialized artifact
    /// set, moving every artifact out (tweet tokens are moved from the
    /// preprocessing corpus, never cloned).
    ///
    /// # Errors
    /// [`crate::CoreError::Artifact`] when a stage artifact is absent.
    pub fn assemble(artifacts: &mut ArtifactSet) -> Result<PipelineOutput> {
        let world = artifacts.take_world()?;
        let corpora = artifacts.take_corpora()?;
        let topics = artifacts.take_topics()?;
        let events = artifacts.take_events()?;
        let vectors = artifacts.take_vectors()?;
        let trending = artifacts.take_trending()?;
        let correlation_out = artifacts.take_correlation()?;
        let assignments = artifacts.take_assignments()?;
        let patterns = artifacts.take_patterns()?;

        let correlated = correlated_events(&correlation_out.forward, &events.twitter);
        let tweet_tokens: Vec<Vec<String>> =
            corpora.twitter_ed.into_iter().map(|d| d.tokens).collect();
        Ok(PipelineOutput {
            world,
            topics,
            news_events: events.news,
            twitter_events: events.twitter,
            trending,
            correlation: correlation_out.forward,
            reverse_correlation: correlation_out.reverse,
            correlated_events: correlated,
            assignments,
            vectors,
            tweet_tokens,
            patterns,
        })
    }

    /// Builds one of the §5.6 dataset variants from this run.
    pub fn dataset(&self, variant: DatasetVariant, seed: u64) -> Dataset {
        build_dataset(
            variant,
            &self.correlated_events,
            &self.assignments,
            &self.world.tweets,
            &self.tweet_tokens,
            &self.vectors,
            seed,
        )
    }

    /// A stable 64-bit digest over every artifact (all floats hashed
    /// via their bit patterns). Two runs are bit-identical iff their
    /// digests agree — the determinism suite's warm ≡ cold check.
    pub fn content_digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        encode_world(&self.world, &mut w);
        encode_topics(&self.topics, &mut w);
        encode_event_list(&self.news_events, &mut w);
        encode_event_list(&self.twitter_events, &mut w);
        encode_trending(&self.trending, &mut w);
        crate::correlate::encode_correlation(&self.correlation, &mut w);
        crate::correlate::encode_correlation(&self.reverse_correlation, &mut w);
        encode_event_list(&self.correlated_events, &mut w);
        encode_assignments(&self.assignments, &mut w);
        encode_vectors(&self.vectors, &mut w);
        w.put_usize(self.tweet_tokens.len());
        for tokens in &self.tweet_tokens {
            w.put_str_list(tokens);
        }
        encode_patterns(&self.patterns, &mut w);
        fnv1a64(w.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The small pipeline is expensive enough that tests share a run —
    /// and all suites share one on-disk run directory, so the world is
    /// trained at most once per workspace test pass.
    fn output() -> &'static PipelineOutput {
        static OUT: OnceLock<PipelineOutput> = OnceLock::new();
        OUT.get_or_init(|| {
            Pipeline::new(
                PipelineConfig::small().with_cache_dir(PipelineConfig::shared_run_dir()),
            )
            .run()
            .expect("pipeline")
        })
    }

    #[test]
    fn all_stages_produce_output() {
        let o = output();
        assert!(!o.topics.topics.is_empty());
        assert!(!o.news_events.is_empty());
        assert!(!o.twitter_events.is_empty());
        assert!(!o.trending.is_empty());
        assert!(!o.correlation.pairs.is_empty());
        assert!(!o.assignments.is_empty());
    }

    #[test]
    fn every_trending_topic_matches_a_twitter_event() {
        // Paper §5.5: "all the trending news topics have correlations
        // with at least one Twitter event".
        let o = output();
        let matched: std::collections::HashSet<usize> =
            o.correlation.pairs.iter().map(|p| p.trending_idx).collect();
        for (i, t) in o.trending.iter().enumerate() {
            assert!(
                matched.contains(&i),
                "trending topic {i} ({}) matches no Twitter event",
                t.event.main_word
            );
        }
    }

    #[test]
    fn reverse_correlation_same_pair_set() {
        // Paper §5.5/§5.8.
        let o = output();
        let mut fwd: Vec<(usize, usize)> =
            o.correlation.pairs.iter().map(|p| (p.trending_idx, p.twitter_idx)).collect();
        let mut rev: Vec<(usize, usize)> = o
            .reverse_correlation
            .pairs
            .iter()
            .map(|p| (p.trending_idx, p.twitter_idx))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn some_twitter_events_unrelated_to_news() {
        // Paper §5.5: "multiple Twitter events have no correlated
        // trending news topics" (the Table 7 set).
        let o = output();
        assert!(
            !o.correlation.unmatched_twitter.is_empty(),
            "expected unmatched Twitter chatter events"
        );
    }

    #[test]
    fn datasets_build_with_expected_shapes() {
        let o = output();
        let a1 = o.dataset(DatasetVariant::A1, 0);
        let a2 = o.dataset(DatasetVariant::A2, 0);
        assert!(!a1.is_empty());
        assert_eq!(a1.len(), a2.len());
        assert_eq!(a2.x.cols(), a1.x.cols() + 8);
        assert_eq!(a1.y_likes.len(), a1.len());
        assert!(a1.y_likes.iter().all(|&y| y < 3));
    }
}
