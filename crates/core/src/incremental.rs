//! Streaming ingestion & incremental recompute (DESIGN.md §17).
//!
//! The batch pipeline of [`crate::pipeline`] consumes one fully
//! generated world. This module replaces that single shot with a
//! *fold over time slices*: `nd-synth`'s [`Firehose`] emits slice
//! `k`'s articles and tweets on demand, and each stage of a six-node
//! stream DAG consumes `(its own artifact at slice k − 1, upstream
//! artifacts at slice k)` and produces its artifact at slice `k`.
//!
//! ## Canonical semantics: the fold *is* the pipeline
//!
//! The stream pipeline's ground truth is the sequential left fold
//! from the empty state over slices `0..n`. Every fold step is a
//! deterministic pure function of `(slice index, previous artifact,
//! upstream artifacts)`, and every artifact serializes bit-exactly
//! (`f64::to_bits` throughout), so:
//!
//! * replaying slices `0..k` from cache and folding slice `k` live is
//!   **bit-identical** to folding all of `0..=k` cold — the cached
//!   prefix decodes to exactly the bytes the cold fold would have
//!   produced in memory;
//! * folding slice `k` onto the head state a run over `0..k` returned
//!   ([`StreamPipeline::run_from`]) is bit-identical as well: that
//!   state holds exactly the values the run computed or decoded;
//! * the digest of the head state ([`StreamState::content_digest`])
//!   is invariant to which prefix came from disk or memory and to
//!   `NEWSDIFF_THREADS`.
//!
//! ## Per-slice fingerprint chaining
//!
//! A stage's cache key at slice `k` is the shared
//! [`crate::cache::fingerprint`] recipe over: the format version, the
//! stage name hash, its code version, its config fingerprint, the
//! slice fingerprint (firehose config + index + bounds), its **own
//! fingerprint at slice `k − 1`** (0 at the origin), and its
//! dependencies' fingerprints at slice `k`. The chain is pure
//! metadata — computable without reading any payload — so a fully
//! warm run loads only the head-slice artifacts (six decodes, zero
//! folds), and invalidating anything at slice `j` transitively
//! re-keys every `(stage, k ≥ j)` in its cone.
//!
//! ## Healing
//!
//! The executor materializes artifacts demand-first through the shared
//! per-node cache path ([`crate::cache`]): probe the cache at
//! `(stage, k)`; on any defect (missing file, torn frame, codec drift,
//! trailing bytes) recurse to `(stage, k − 1)` and the slice-`k`
//! dependencies, poll slice `k` lazily, fold, and re-save. A
//! corrupted artifact therefore costs exactly the recomputation of its
//! cone — nothing upstream or on unrelated slices re-executes.

use crate::cache::{artifact_id, fingerprint, ms_since, ArtifactCache, CacheConfig, RunReport};
use crate::error::{CoreError, Result};
use crate::event_module::{
    decode_events, detect_news_events, detect_twitter_events, encode_events, DetectedEvents,
    EventModuleConfig,
};
use crate::preprocess::{
    build_news_ed, build_news_tm, build_twitter_ed, decode_corpora, decode_timestamped,
    encode_corpora, encode_timestamped, Corpora,
};
use crate::stage::debug_fingerprint;
use crate::topic_module::{decode_topics, encode_topics, NewsTopics, TopicModuleConfig};
use nd_embed::{Word2Vec, Word2VecConfig, WordVectors};
use nd_events::SlidingWindow;
use nd_store::{
    chain_fingerprint, fnv1a64, ArtifactError, ArtifactStore, ByteReader, ByteWriter,
};
use nd_synth::{
    decode_articles, decode_tweets, encode_articles, encode_tweets, Firehose, FirehoseConfig,
    NewsArticle, TimeSlice, Tweet,
};
use nd_topics::{Nmf, NmfConfig, WarmStart};
use nd_vectorize::{IncrementalDtm, Weighting};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full streaming-pipeline configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The firehose: world parameters plus the slice width.
    pub firehose: FirehoseConfig,
    /// Topic-modeling parameters (`max_iter` applies to the cold
    /// origin fold; later folds warm-start and use `refine_iters`).
    pub topic: TopicModuleConfig,
    /// NMF iterations per warm-started fold.
    pub refine_iters: usize,
    /// Event-detection parameters (slice widths, thresholds).
    pub event: EventModuleConfig,
    /// MABED detection horizon, in stream slices: documents older
    /// than `window_slices * slice_hours` are evicted before
    /// detection.
    pub window_slices: u64,
    /// Streaming embedding dimensionality.
    pub embed_dim: usize,
    /// Word2Vec epochs per fold.
    pub embed_epochs: usize,
    /// Artifact-cache controls (excluded from fingerprints).
    pub cache: CacheConfig,
}

impl StreamConfig {
    /// A scaled-down stream for tests and benches: the small world in
    /// 48-hour slices, warm folds refining for a fraction of the cold
    /// iteration budget.
    pub fn small() -> Self {
        StreamConfig {
            firehose: FirehoseConfig::small(),
            topic: TopicModuleConfig { n_topics: 10, max_iter: 120, ..Default::default() },
            refine_iters: 30,
            event: EventModuleConfig::default(),
            window_slices: 4,
            embed_dim: 16,
            embed_epochs: 2,
            cache: CacheConfig::default(),
        }
    }

    /// Enables the artifact cache under `dir`.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache.dir = Some(dir.into());
        self
    }
}

/// The collect stage's fold state: everything the firehose has
/// emitted so far, plus per-slice bookkeeping. The paper's "Storage"
/// box, grown one slice at a time.
#[derive(Debug, Clone, Default)]
pub struct StreamWorld {
    /// One record per folded slice, in slice order.
    pub slices: Vec<SliceMeta>,
    /// All articles so far, slice-major then timestamp-sorted.
    pub articles: Vec<NewsArticle>,
    /// All tweets so far, slice-major then timestamp-sorted.
    pub tweets: Vec<Tweet>,
}

/// Bookkeeping for one folded slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMeta {
    /// Slice index within the horizon.
    pub index: usize,
    /// Slice start (unix seconds, inclusive).
    pub start: u64,
    /// Slice end (unix seconds, exclusive).
    pub end: u64,
    /// Articles the slice contributed.
    pub n_articles: usize,
    /// Tweets the slice contributed.
    pub n_tweets: usize,
}

/// The event stage's fold state: both MABED sliding windows plus the
/// latest detection over them. The windows count their own history
/// (`evicted + buffered = documents consumed`), so the fold knows how
/// far into the upstream corpora it has read without extra counters.
#[derive(Debug, Clone)]
pub struct StreamEvents {
    /// NewsED documents inside the detection horizon.
    pub news_window: SlidingWindow,
    /// TwitterED documents inside the detection horizon.
    pub twitter_window: SlidingWindow,
    /// Events detected over the current windows. Unlike the batch
    /// stage, empty detections are *not* errors: early slices may
    /// legitimately contain no burst.
    pub events: DetectedEvents,
}

/// The embedding stage's fold state: the continuously trained
/// vectors plus high-water marks into the upstream corpora.
#[derive(Debug, Clone)]
pub struct StreamVectors {
    /// The streaming word vectors.
    pub vectors: WordVectors,
    /// NewsTM documents consumed so far.
    pub seen_news: usize,
    /// TwitterED documents consumed so far.
    pub seen_twitter: usize,
}

/// One artifact of the stream DAG — the output of exactly one fold
/// stage at one slice.
#[derive(Debug, Clone)]
pub enum StreamArtifact {
    /// `stream-collect`: the accumulated world.
    World(StreamWorld),
    /// `stream-preprocess`: the accumulated three corpora.
    Corpora(Corpora),
    /// `stream-vectorize`: the incremental document-term matrix.
    Dtm(IncrementalDtm),
    /// `stream-topics`: the warm-started NMF topics.
    Topics(NewsTopics),
    /// `stream-events`: sliding windows + current detections.
    Events(StreamEvents),
    /// `stream-embed`: continuously trained word vectors.
    Vectors(StreamVectors),
}

macro_rules! stream_accessors {
    ($($as:ident, $into:ident, $variant:ident => $ty:ty;)*) => {
        $(
            /// Borrows the typed artifact, erroring on a foreign variant.
            ///
            /// # Errors
            /// [`CoreError::Artifact`] when the variant mismatches.
            pub fn $as(&self) -> Result<&$ty> {
                match self {
                    StreamArtifact::$variant(v) => Ok(v),
                    _ => Err(CoreError::Artifact(format!(
                        "stream artifact is not `{}`", stringify!($variant)
                    ))),
                }
            }

            /// Unwraps the typed artifact, erroring on a foreign variant.
            ///
            /// # Errors
            /// [`CoreError::Artifact`] when the variant mismatches.
            pub fn $into(self) -> Result<$ty> {
                match self {
                    StreamArtifact::$variant(v) => Ok(v),
                    _ => Err(CoreError::Artifact(format!(
                        "stream artifact is not `{}`", stringify!($variant)
                    ))),
                }
            }
        )*
    };
}

impl StreamArtifact {
    stream_accessors! {
        as_world, into_world, World => StreamWorld;
        as_corpora, into_corpora, Corpora => Corpora;
        as_dtm, into_dtm, Dtm => IncrementalDtm;
        as_topics, into_topics, Topics => NewsTopics;
        as_events, into_events, Events => StreamEvents;
        as_vectors, into_vectors, Vectors => StreamVectors;
    }
}

/// One node of the stream DAG: a named fold step with chained
/// fingerprints and a bit-exact codec.
pub trait FoldStage: Sync {
    /// Stable stage name — the artifact id is `{name}@{slice}`.
    fn name(&self) -> &'static str;

    /// Upstream stream-stage names, in fingerprint order.
    fn deps(&self) -> &'static [&'static str];

    /// Bumped by hand when the fold body's semantics change.
    fn code_version(&self) -> u64;

    /// Fingerprint of the slice of [`StreamConfig`] this stage reads.
    /// Cache-control knobs must not contribute.
    fn config_fingerprint(&self, config: &StreamConfig) -> u64;

    /// Consumes `(previous own artifact, upstream artifacts at this
    /// slice, the new slice)` and produces the artifact at this
    /// slice. `prev` is `None` exactly at slice 0. It arrives by value,
    /// so a stage whose state only grows (collect, preprocess,
    /// vectorize, events) extends it in place instead of copying the
    /// whole history first.
    ///
    /// # Errors
    /// Stage-specific [`CoreError`]s.
    fn fold_owned(
        &self,
        config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        slice: &TimeSlice,
    ) -> Result<StreamArtifact>;

    /// [`fold_owned`](Self::fold_owned) on a clone of `prev`, for a
    /// caller that still needs `prev` afterwards; the output is the
    /// same, bit for bit. The executor moves `prev` instead wherever no
    /// other node reads it again. perfbench's replay probe refolds
    /// cached artifacts through this method.
    ///
    /// # Errors
    /// As [`fold_owned`](Self::fold_owned).
    fn fold(
        &self,
        config: &StreamConfig,
        prev: Option<&StreamArtifact>,
        ups: &[&StreamArtifact],
        slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        self.fold_owned(config, prev.cloned(), ups, slice)
    }

    /// Serializes the stage's artifact bit-exactly.
    ///
    /// # Errors
    /// [`CoreError::Artifact`] when handed a foreign variant.
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()>;

    /// Deserializes the stage's artifact. Any error reads as a cache
    /// miss upstream.
    ///
    /// # Errors
    /// [`ArtifactError`] on truncation or structural drift.
    fn decode(&self, r: &mut ByteReader<'_>)
        -> std::result::Result<StreamArtifact, ArtifactError>;
}

fn wrong_stream_variant(stage: &'static str) -> CoreError {
    CoreError::Artifact(format!("stream stage `{stage}` handed a foreign artifact variant"))
}

// ---------------------------------------------------------------- collect

/// Stream stage 1 — firehose ingestion into accumulated storage.
#[derive(Debug, Clone, Copy)]
pub struct StreamCollectStage;

fn encode_stream_world(w: &StreamWorld, out: &mut ByteWriter) {
    out.put_usize(w.slices.len());
    for m in &w.slices {
        out.put_usize(m.index);
        out.put_u64(m.start);
        out.put_u64(m.end);
        out.put_usize(m.n_articles);
        out.put_usize(m.n_tweets);
    }
    encode_articles(&w.articles, out);
    encode_tweets(&w.tweets, out);
}

fn decode_stream_world(r: &mut ByteReader<'_>) -> std::result::Result<StreamWorld, ArtifactError> {
    let n = r.len_prefix()?;
    let mut slices = Vec::with_capacity(n);
    for _ in 0..n {
        slices.push(SliceMeta {
            index: r.usize()?,
            start: r.u64()?,
            end: r.u64()?,
            n_articles: r.usize()?,
            n_tweets: r.usize()?,
        });
    }
    Ok(StreamWorld { slices, articles: decode_articles(r)?, tweets: decode_tweets(r)? })
}

impl FoldStage for StreamCollectStage {
    fn name(&self) -> &'static str {
        "stream-collect"
    }
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &StreamConfig) -> u64 {
        config.firehose.fingerprint()
    }
    fn fold_owned(
        &self,
        _config: &StreamConfig,
        prev: Option<StreamArtifact>,
        _ups: &[&StreamArtifact],
        slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let mut world = match prev {
            Some(p) => p.into_world()?,
            None => StreamWorld::default(),
        };
        world.slices.push(SliceMeta {
            index: slice.index,
            start: slice.start,
            end: slice.end,
            n_articles: slice.articles.len(),
            n_tweets: slice.tweets.len(),
        });
        world.articles.extend(slice.articles.iter().cloned());
        world.tweets.extend(slice.tweets.iter().cloned());
        Ok(StreamArtifact::World(world))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::World(w) => {
                encode_stream_world(w, out);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        decode_stream_world(r).map(StreamArtifact::World)
    }
}

// ------------------------------------------------------------- preprocess

/// Stream stage 2 — incremental preprocessing: only documents the
/// corpora have not yet seen run through the text pipelines.
#[derive(Debug, Clone, Copy)]
pub struct StreamPreprocessStage;

impl FoldStage for StreamPreprocessStage {
    fn name(&self) -> &'static str {
        "stream-preprocess"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["stream-collect"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, _config: &StreamConfig) -> u64 {
        0
    }
    fn fold_owned(
        &self,
        _config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        _slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let world = ups[0].as_world()?;
        let mut corpora = match prev {
            Some(p) => p.into_corpora()?,
            None => Corpora { news_tm: Vec::new(), news_ed: Vec::new(), twitter_ed: Vec::new() },
        };
        let new_articles = &world.articles[corpora.news_tm.len()..];
        let new_tweets = &world.tweets[corpora.twitter_ed.len()..];
        corpora.news_tm.extend(build_news_tm(new_articles));
        corpora.news_ed.extend(build_news_ed(new_articles));
        corpora.twitter_ed.extend(build_twitter_ed(new_tweets));
        Ok(StreamArtifact::Corpora(corpora))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::Corpora(c) => {
                encode_corpora(c, out);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        decode_corpora(r).map(StreamArtifact::Corpora)
    }
}

// -------------------------------------------------------------- vectorize

/// Stream stage 3 — the incremental TF-IDF matrix: vocabulary grows
/// append-only (term ids stay stable), document frequencies fold in,
/// and the cached IDF vector is maintained touched-terms-only.
#[derive(Debug, Clone, Copy)]
pub struct StreamVectorizeStage;

fn weighting_tag(w: Weighting) -> u8 {
    match w {
        Weighting::Tf => 0,
        Weighting::Binary => 1,
        Weighting::LogTf => 2,
        Weighting::TfIdf => 3,
        Weighting::TfIdfNormalized => 4,
    }
}

fn weighting_from_tag(tag: u8) -> std::result::Result<Weighting, ArtifactError> {
    Ok(match tag {
        0 => Weighting::Tf,
        1 => Weighting::Binary,
        2 => Weighting::LogTf,
        3 => Weighting::TfIdf,
        4 => Weighting::TfIdfNormalized,
        _ => return Err(ArtifactError::Malformed("unknown weighting scheme tag")),
    })
}

fn encode_dtm(dtm: &IncrementalDtm, out: &mut ByteWriter) {
    let (scheme, terms, df, idf, rows) = dtm.parts();
    out.put_u8(weighting_tag(scheme));
    out.put_usize(terms.len());
    for t in &terms {
        out.put_str(t);
    }
    out.put_usize(df.len());
    for &d in df {
        out.put_usize(d);
    }
    out.put_f64_slice(idf);
    out.put_usize(rows.len());
    for row in rows {
        out.put_usize(row.len());
        for &(id, v) in row {
            out.put_usize(id);
            out.put_f64(v);
        }
    }
}

fn decode_dtm(r: &mut ByteReader<'_>) -> std::result::Result<IncrementalDtm, ArtifactError> {
    let scheme = weighting_from_tag(r.u8()?)?;
    let n_terms = r.len_prefix()?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(r.str()?);
    }
    let n_df = r.len_prefix()?;
    if n_df != n_terms {
        return Err(ArtifactError::Malformed("df length mismatches vocabulary"));
    }
    let mut df = Vec::with_capacity(n_df);
    for _ in 0..n_df {
        df.push(r.usize()?);
    }
    let idf = r.f64_vec()?;
    if idf.len() != n_terms {
        return Err(ArtifactError::Malformed("idf length mismatches vocabulary"));
    }
    let n_rows = r.len_prefix()?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let nnz = r.len_prefix()?;
        let mut row = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let id = r.usize()?;
            if id >= n_terms {
                return Err(ArtifactError::Malformed("term id out of vocabulary"));
            }
            row.push((id, r.f64()?));
        }
        rows.push(row);
    }
    Ok(IncrementalDtm::from_parts(scheme, &terms, df, idf, rows))
}

impl FoldStage for StreamVectorizeStage {
    fn name(&self) -> &'static str {
        "stream-vectorize"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["stream-preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, _config: &StreamConfig) -> u64 {
        0
    }
    fn fold_owned(
        &self,
        _config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        _slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let corpora = ups[0].as_corpora()?;
        let mut dtm = match prev {
            Some(p) => p.into_dtm()?,
            None => IncrementalDtm::new(Weighting::TfIdfNormalized),
        };
        dtm.push_docs(&corpora.news_tm[dtm.n_docs()..]);
        Ok(StreamArtifact::Dtm(dtm))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::Dtm(d) => {
                encode_dtm(d, out);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        decode_dtm(r).map(StreamArtifact::Dtm)
    }
}

// ----------------------------------------------------------------- topics

/// Stream stage 4 — warm-started NMF: the previous factors seed the
/// prefix of the new ones (stable term ids make the old `H` a valid
/// prefix), and warm folds run [`StreamConfig::refine_iters`]
/// iterations instead of the cold budget.
#[derive(Debug, Clone, Copy)]
pub struct StreamTopicStage;

impl FoldStage for StreamTopicStage {
    fn name(&self) -> &'static str {
        "stream-topics"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["stream-vectorize"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &StreamConfig) -> u64 {
        chain_fingerprint(&[debug_fingerprint(&config.topic), config.refine_iters as u64])
    }
    fn fold_owned(
        &self,
        config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        _slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let dtm = ups[0].as_dtm()?;
        let a = dtm.weighted(config.topic.min_df, config.topic.max_df_ratio);
        let warm_topics = match &prev {
            Some(p) => Some(p.as_topics()?),
            None => None,
        };
        let max_iter =
            if warm_topics.is_some() { config.refine_iters } else { config.topic.max_iter };
        let nmf = Nmf::new(NmfConfig {
            n_topics: config.topic.n_topics,
            max_iter,
            tol: 1e-5,
            seed: config.topic.seed,
        });
        let warm = warm_topics.map(|t| WarmStart {
            doc_topic: &t.model.doc_topic,
            topic_term: &t.model.topic_term,
        });
        let model = nmf.fit_warm(&a, dtm.vocab(), warm);
        let topics = model.topics(config.topic.keywords_per_topic);
        Ok(StreamArtifact::Topics(NewsTopics { model, topics }))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::Topics(t) => {
                encode_topics(t, out);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        decode_topics(r).map(StreamArtifact::Topics)
    }
}

// ----------------------------------------------------------------- events

/// Stream stage 5 — sliding-window MABED: each fold pushes the new
/// slice's documents, evicts what aged out of the horizon, and
/// re-detects over the bounded buffer only.
#[derive(Debug, Clone, Copy)]
pub struct StreamEventStage;

fn encode_window(w: &SlidingWindow, out: &mut ByteWriter) {
    let (secs, head, docs, evicted) = w.parts();
    out.put_u64(secs);
    out.put_u64(head);
    encode_timestamped(docs, out);
    out.put_usize(evicted);
}

fn decode_window(r: &mut ByteReader<'_>) -> std::result::Result<SlidingWindow, ArtifactError> {
    let secs = r.u64()?;
    let head = r.u64()?;
    let docs = decode_timestamped(r)?;
    let evicted = r.usize()?;
    Ok(SlidingWindow::from_parts(secs, head, docs, evicted))
}

/// Documents a window has consumed over its lifetime: still buffered
/// plus already evicted. This is the fold's high-water mark into the
/// upstream corpus.
fn window_consumed(w: &SlidingWindow) -> usize {
    w.evicted() + w.docs().len()
}

impl FoldStage for StreamEventStage {
    fn name(&self) -> &'static str {
        "stream-events"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["stream-preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &StreamConfig) -> u64 {
        chain_fingerprint(&[debug_fingerprint(&config.event), config.window_slices])
    }
    fn fold_owned(
        &self,
        config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let corpora = ups[0].as_corpora()?;
        let horizon = config.window_slices * config.firehose.slice_hours * 3600;
        let mut ev = match prev {
            Some(p) => p.into_events()?,
            None => StreamEvents {
                news_window: SlidingWindow::new(horizon),
                twitter_window: SlidingWindow::new(horizon),
                events: DetectedEvents { news: Vec::new(), twitter: Vec::new() },
            },
        };
        let seen_news = window_consumed(&ev.news_window);
        let seen_twitter = window_consumed(&ev.twitter_window);
        ev.news_window.push_slice(corpora.news_ed[seen_news..].iter().cloned(), slice.end);
        ev.twitter_window
            .push_slice(corpora.twitter_ed[seen_twitter..].iter().cloned(), slice.end);

        // Unlike the batch stage, a quiet window is not an error —
        // detection over an empty window simply yields nothing until a
        // burst enters.
        let news = detect_news_events(ev.news_window.docs(), &config.event);
        let twitter = detect_twitter_events(ev.twitter_window.docs(), &config.event);
        ev.events = DetectedEvents { news, twitter };
        Ok(StreamArtifact::Events(ev))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::Events(e) => {
                encode_window(&e.news_window, out);
                encode_window(&e.twitter_window, out);
                encode_events(&e.events, out);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        Ok(StreamArtifact::Events(StreamEvents {
            news_window: decode_window(r)?,
            twitter_window: decode_window(r)?,
            events: decode_events(r)?,
        }))
    }
}

// ------------------------------------------------------------------ embed

/// Stream stage 6 — online Word2Vec continuation: each fold trains on
/// the slice's new documents only, seeding known words from the
/// previous vectors; words absent from the slice keep their vectors.
#[derive(Debug, Clone, Copy)]
pub struct StreamEmbedStage;

impl StreamEmbedStage {
    fn w2v_config(config: &StreamConfig, slice_index: usize) -> Word2VecConfig {
        Word2VecConfig {
            dim: config.embed_dim,
            epochs: config.embed_epochs,
            min_count: 1,
            // Decorrelate per-slice negative sampling; the fold stays a
            // pure function of (slice index, prev, upstream).
            seed: config
                .firehose
                .world
                .seed
                .wrapping_add((slice_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ 0xE4BD,
            ..Default::default()
        }
    }
}

impl FoldStage for StreamEmbedStage {
    fn name(&self) -> &'static str {
        "stream-embed"
    }
    fn deps(&self) -> &'static [&'static str] {
        &["stream-preprocess"]
    }
    fn code_version(&self) -> u64 {
        1
    }
    fn config_fingerprint(&self, config: &StreamConfig) -> u64 {
        chain_fingerprint(&[
            config.embed_dim as u64,
            config.embed_epochs as u64,
            config.firehose.world.seed,
        ])
    }
    fn fold_owned(
        &self,
        config: &StreamConfig,
        prev: Option<StreamArtifact>,
        ups: &[&StreamArtifact],
        slice: &TimeSlice,
    ) -> Result<StreamArtifact> {
        let corpora = ups[0].as_corpora()?;
        let (prev_vectors, seen_news, seen_twitter) = match &prev {
            Some(p) => {
                let v = p.as_vectors()?;
                (Some(&v.vectors), v.seen_news, v.seen_twitter)
            }
            None => (None, 0, 0),
        };
        let mut docs: Vec<Vec<String>> = corpora.news_tm[seen_news..].to_vec();
        docs.extend(corpora.twitter_ed[seen_twitter..].iter().map(|d| d.tokens.clone()));
        let vectors = if docs.is_empty() {
            match prev_vectors {
                Some(v) => v.clone(),
                None => WordVectors::new(config.embed_dim),
            }
        } else {
            let w2v = Word2Vec::new(Self::w2v_config(config, slice.index));
            match prev_vectors {
                Some(v) => w2v.train_continue(&docs, v),
                None => w2v.train(&docs),
            }
        };
        Ok(StreamArtifact::Vectors(StreamVectors {
            vectors,
            seen_news: corpora.news_tm.len(),
            seen_twitter: corpora.twitter_ed.len(),
        }))
    }
    fn encode(&self, value: &StreamArtifact, out: &mut ByteWriter) -> Result<()> {
        match value {
            StreamArtifact::Vectors(v) => {
                crate::pretrained::encode_vectors(&v.vectors, out);
                out.put_usize(v.seen_news);
                out.put_usize(v.seen_twitter);
                Ok(())
            }
            _ => Err(wrong_stream_variant(self.name())),
        }
    }
    fn decode(
        &self,
        r: &mut ByteReader<'_>,
    ) -> std::result::Result<StreamArtifact, ArtifactError> {
        Ok(StreamArtifact::Vectors(StreamVectors {
            vectors: crate::pretrained::decode_vectors(r)?,
            seen_news: r.usize()?,
            seen_twitter: r.usize()?,
        }))
    }
}

/// The stream DAG in topological (declaration) order.
pub fn fold_stages() -> [&'static dyn FoldStage; 6] {
    [
        &StreamCollectStage,
        &StreamPreprocessStage,
        &StreamVectorizeStage,
        &StreamTopicStage,
        &StreamEventStage,
        &StreamEmbedStage,
    ]
}

// --------------------------------------------------------------- executor

/// The head state after folding `0..head`: every stage's artifact at
/// the final slice, unwrapped.
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Number of slices folded.
    pub head: usize,
    /// Each stage's chained fingerprint at slice `head - 1`, in
    /// [`fold_stages`] order. [`StreamPipeline::run_from`] folds the
    /// next slice onto this state only where these equal its own chain,
    /// trusting that the artifacts below are still the ones the run
    /// that recorded them produced.
    pub fingerprints: [u64; 6],
    /// Accumulated world.
    pub world: StreamWorld,
    /// Accumulated corpora.
    pub corpora: Corpora,
    /// Incremental document-term matrix.
    pub dtm: IncrementalDtm,
    /// Warm-started topics.
    pub topics: NewsTopics,
    /// Sliding-window events.
    pub events: StreamEvents,
    /// Streaming embeddings.
    pub vectors: StreamVectors,
}

impl StreamState {
    /// A stable 64-bit digest over every head artifact (all floats
    /// hashed via their bit patterns). Two runs are bit-identical iff
    /// their digests agree — the replay-equals-cold contract.
    pub fn content_digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        encode_stream_world(&self.world, &mut w);
        encode_corpora(&self.corpora, &mut w);
        encode_dtm(&self.dtm, &mut w);
        encode_topics(&self.topics, &mut w);
        encode_window(&self.events.news_window, &mut w);
        encode_window(&self.events.twitter_window, &mut w);
        encode_events(&self.events.events, &mut w);
        crate::pretrained::encode_vectors(&self.vectors.vectors, &mut w);
        w.put_usize(self.vectors.seen_news);
        w.put_usize(self.vectors.seen_twitter);
        fnv1a64(w.as_bytes())
    }

    /// The six head artifacts, in [`fold_stages`] order.
    fn into_artifacts(self) -> [StreamArtifact; 6] {
        [
            StreamArtifact::World(self.world),
            StreamArtifact::Corpora(self.corpora),
            StreamArtifact::Dtm(self.dtm),
            StreamArtifact::Topics(self.topics),
            StreamArtifact::Events(self.events),
            StreamArtifact::Vectors(self.vectors),
        ]
    }
}

/// The streaming-pipeline runner: a demand-driven, memoized executor
/// over the fold DAG (see the module docs for the caching contract).
#[derive(Debug, Clone)]
pub struct StreamPipeline {
    config: StreamConfig,
    firehose: Firehose,
}

impl StreamPipeline {
    /// Builds the firehose (fixing ground truth) and the runner.
    pub fn new(config: StreamConfig) -> Self {
        let firehose = Firehose::new(config.firehose.clone());
        StreamPipeline { config, firehose }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The underlying firehose (ground truth attached).
    pub fn firehose(&self) -> &Firehose {
        &self.firehose
    }

    /// Per-stage chained fingerprints for slices `0..n_slices`:
    /// `result[stage_index][k]`, stages in [`fold_stages`] order.
    /// Pure metadata — no slice is polled, no artifact read.
    pub fn fingerprints(&self, n_slices: usize) -> Vec<Vec<u64>> {
        let graph = fold_stages();
        let dep_idx = resolve_deps(&graph);
        let firehose_fp = self.config.firehose.fingerprint();
        let mut fps: Vec<Vec<u64>> = vec![Vec::with_capacity(n_slices); graph.len()];
        for k in 0..n_slices {
            let (start, end) = self.firehose.slice_bounds(k);
            let slice_fp = chain_fingerprint(&[firehose_fp, k as u64, start, end]);
            for (si, stage) in graph.iter().enumerate() {
                let prev_fp = if k > 0 { fps[si][k - 1] } else { 0 };
                let dep_fps: Vec<u64> = dep_idx[si].iter().map(|&d| fps[d][k]).collect();
                let config_fp = stage.config_fingerprint(&self.config);
                let code = stage.code_version();
                let fp = fingerprint(stage.name(), code, config_fp, slice_fp, prev_fp, &dep_fps);
                fps[si].push(fp);
            }
        }
        fps
    }

    /// The chained fingerprint of `(stage, slice)`, by stage name.
    pub fn fingerprint(&self, stage: &str, slice: usize) -> Option<u64> {
        let graph = fold_stages();
        let si = graph.iter().position(|s| s.name() == stage)?;
        self.fingerprints(slice + 1)[si].get(slice).copied()
    }

    /// The on-disk artifact path of `(stage, slice)` under the
    /// configured cache directory, if caching is enabled.
    pub fn artifact_path(&self, stage: &str, slice: usize) -> Option<PathBuf> {
        let dir = self.config.cache.dir.as_ref()?;
        let fp = self.fingerprint(stage, slice)?;
        Some(ArtifactStore::open(dir).ok()?.path_for(&artifact_id(stage, Some(slice)), fp))
    }

    /// Folds slices `0..n_slices` and returns the head state plus the
    /// per-fold report. With a cache directory configured, cached
    /// prefixes replay from disk and only the missing cone folds.
    ///
    /// # Errors
    /// [`CoreError::EmptyInput`] for `n_slices == 0`,
    /// [`CoreError::Artifact`] past the horizon or on an unusable
    /// cache directory; fold-body errors propagate unchanged.
    pub fn run(&self, n_slices: usize) -> Result<(StreamState, RunReport)> {
        self.run_from(n_slices, None)
    }

    /// [`run`](Self::run), starting from `held`, the head state of an
    /// earlier run over `n_slices - 1` slices. When `held`'s
    /// fingerprints equal this pipeline's chain at slice
    /// `n_slices - 2`, its six artifacts move into the run in place of
    /// replaying or refolding that slice, so only slice `n_slices - 1`
    /// folds, nothing is decoded, and each fold extends or reads its
    /// held artifact without copying it. Any other state is dropped unused
    /// and the run is exactly `run(n_slices)`. The head state is
    /// bit-identical either way, and every fold still persists its
    /// artifact to the cache.
    ///
    /// # Errors
    /// As [`run`](Self::run).
    pub fn run_from(
        &self,
        n_slices: usize,
        held: Option<StreamState>,
    ) -> Result<(StreamState, RunReport)> {
        if n_slices == 0 {
            return Err(CoreError::EmptyInput("stream run of zero slices"));
        }
        if n_slices > self.firehose.n_slices() {
            return Err(CoreError::Artifact(format!(
                "stream run of {n_slices} slices exceeds the {}-slice horizon",
                self.firehose.n_slices()
            )));
        }
        let run_start = Instant::now();
        let graph = fold_stages();
        let cache = ArtifactCache::open(&self.config.cache)?;
        let fps = self.fingerprints(n_slices);
        let mut memo = HashMap::new();
        if let (Some(held), Some(k)) = (held, n_slices.checked_sub(2)) {
            // The chain at slice k keys slice k alone, so a match also
            // pins the held state's position.
            if fps.iter().zip(&held.fingerprints).all(|(chain, &fp)| chain[k] == fp) {
                let artifacts = held.into_artifacts().into_iter().enumerate();
                memo.extend(artifacts.map(|(si, artifact)| ((si, k), artifact)));
            }
        }
        let mut exec = Exec {
            config: &self.config,
            firehose: &self.firehose,
            graph,
            dep_idx: resolve_deps(&graph),
            fps,
            cache: &cache,
            memo,
            slices: HashMap::new(),
            report: RunReport::default(),
        };
        let head = n_slices - 1;
        for si in 0..graph.len() {
            exec.materialize(si, head)?;
        }
        let fingerprints = std::array::from_fn(|si| exec.fps[si][head]);
        let mut take = |si: usize| exec.memo.remove(&(si, head)).expect("materialized");
        let state = StreamState {
            head: n_slices,
            fingerprints,
            world: take(0).into_world()?,
            corpora: take(1).into_corpora()?,
            dtm: take(2).into_dtm()?,
            topics: take(3).into_topics()?,
            events: take(4).into_events()?,
            vectors: take(5).into_vectors()?,
        };
        exec.report.slices_polled = exec.slices.len();
        exec.report.total_ms = ms_since(run_start);
        Ok((state, exec.report))
    }
}

fn resolve_deps(graph: &[&'static dyn FoldStage; 6]) -> Vec<Vec<usize>> {
    graph
        .iter()
        .map(|s| {
            s.deps()
                .iter()
                .map(|d| {
                    graph
                        .iter()
                        .position(|g| g.name() == *d)
                        .expect("stream dep declared before use")
                })
                .collect()
        })
        .collect()
}

/// One run's working set: memoized artifacts, lazily polled slices,
/// and the fold log.
struct Exec<'a> {
    config: &'a StreamConfig,
    firehose: &'a Firehose,
    graph: [&'static dyn FoldStage; 6],
    dep_idx: Vec<Vec<usize>>,
    fps: Vec<Vec<u64>>,
    cache: &'a ArtifactCache,
    memo: HashMap<(usize, usize), StreamArtifact>,
    slices: HashMap<usize, TimeSlice>,
    report: RunReport,
}

impl Exec<'_> {
    /// Materializes `(stage si, slice k)` into the memo through the
    /// shared cache path: replay when possible, otherwise
    /// [`fold`](Exec::fold).
    fn materialize(&mut self, si: usize, k: usize) -> Result<()> {
        if self.memo.contains_key(&(si, k)) {
            return Ok(());
        }
        let (stage, fp, cache) = (self.graph[si], self.fps[si][k], self.cache);
        // A fold materializes its own predecessor and dependencies
        // first, and each of those logs its own record; `nested` marks
        // where they start so this record keeps only its own time.
        let nested = self.report.stages.len();
        let (value, mut record) = cache.node(
            stage.name(),
            Some(k),
            fp,
            |r| stage.decode(r),
            || self.fold(si, k),
            |v, w| stage.encode(v, w),
        )?;
        let nested_ms: f64 = self.report.stages[nested..].iter().map(|r| r.wall_ms).sum();
        record.wall_ms -= nested_ms;
        self.memo.insert((si, k), value);
        self.report.stages.push(record);
        Ok(())
    }

    /// Recurses to `(si, k − 1)` and the slice-`k` dependencies, polls
    /// slice `k` if no earlier fold did, and folds.
    ///
    /// `(si, k − 1)` moves out of the memo into the fold when every
    /// stage that depends on `si` already holds its slice-`k − 1`
    /// artifact: then no later node reads it. Otherwise the fold gets a
    /// clone. An advance from a held head moves all six.
    fn fold(&mut self, si: usize, k: usize) -> Result<StreamArtifact> {
        if k > 0 {
            self.materialize(si, k - 1)?;
        }
        let deps = self.dep_idx[si].clone();
        for &d in &deps {
            self.materialize(d, k)?;
        }
        let slice = self.slices.entry(k).or_insert_with(|| self.firehose.poll(k));
        let prev = k.checked_sub(1).and_then(|j| {
            let mut dependents = self.dep_idx.iter().enumerate().filter(|(_, ds)| ds.contains(&si));
            if dependents.all(|(d, _)| self.memo.contains_key(&(d, j))) {
                self.memo.remove(&(si, j))
            } else {
                self.memo.get(&(si, j)).cloned()
            }
        });
        let ups: Vec<&StreamArtifact> = deps.iter().map(|&d| &self.memo[&(d, k)]).collect();
        self.graph[si].fold_owned(self.config, prev, &ups, slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_synth::WorldConfig;

    /// A deliberately tiny stream: 4 days in 48-hour slices → 2
    /// slices, cheap NMF/Word2Vec budgets.
    fn tiny_config() -> StreamConfig {
        StreamConfig {
            firehose: FirehoseConfig {
                world: WorldConfig {
                    days: 4,
                    n_users: 60,
                    min_influencers: 6,
                    ..WorldConfig::small()
                },
                slice_hours: 48,
            },
            topic: TopicModuleConfig { n_topics: 6, max_iter: 40, ..Default::default() },
            refine_iters: 12,
            event: EventModuleConfig::default(),
            window_slices: 4,
            embed_dim: 8,
            embed_epochs: 1,
            cache: CacheConfig::default(),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("nd-stream-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn declaration_order_is_topological_and_names_unique() {
        let mut seen = std::collections::HashSet::new();
        for stage in fold_stages() {
            for dep in stage.deps() {
                assert!(seen.contains(dep), "{} depends on later stage {dep}", stage.name());
            }
            assert!(seen.insert(stage.name()), "duplicate stream stage {}", stage.name());
        }
    }

    #[test]
    fn fingerprints_chain_across_slices_and_cascade() {
        let pipeline = StreamPipeline::new(tiny_config());
        let fps = pipeline.fingerprints(2);
        // All (stage, slice) keys distinct.
        let flat: std::collections::HashSet<u64> =
            fps.iter().flatten().copied().collect();
        assert_eq!(flat.len(), 12, "stream fingerprints collide");
        // A topic-config change re-keys topics at every slice but
        // leaves its upstream untouched.
        let mut changed = tiny_config();
        changed.topic.seed = 1234;
        let fps2 = StreamPipeline::new(changed).fingerprints(2);
        assert_eq!(fps[2], fps2[2], "vectorize must not see topic config");
        assert_ne!(fps[3][0], fps2[3][0]);
        assert_ne!(fps[3][1], fps2[3][1]);
        // Cache knobs never fingerprint.
        let mut cached = tiny_config();
        cached.cache.dir = Some(PathBuf::from("/tmp/x"));
        assert_eq!(fps, StreamPipeline::new(cached).fingerprints(2));
    }

    #[test]
    fn uncached_runs_are_deterministic_and_incremental_state_is_consistent() {
        let pipeline = StreamPipeline::new(tiny_config());
        let (a, ra) = pipeline.run(2).expect("run");
        let (b, _) = pipeline.run(2).expect("run");
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(ra.executed(), 12, "uncached run folds everything");
        assert_eq!(ra.slices_polled, 2);
        // Accumulated state is aligned across stages.
        assert_eq!(a.head, 2);
        assert_eq!(a.world.slices.len(), 2);
        assert_eq!(a.corpora.news_tm.len(), a.world.articles.len());
        assert_eq!(a.corpora.twitter_ed.len(), a.world.tweets.len());
        assert_eq!(a.dtm.n_docs(), a.corpora.news_tm.len());
        assert_eq!(a.topics.model.doc_topic.rows(), a.dtm.n_docs());
        assert_eq!(a.vectors.seen_news, a.corpora.news_tm.len());
        assert!(!a.vectors.vectors.is_empty(), "streaming vectors trained");
    }

    #[test]
    fn fold_wall_times_exclude_nested_folds() {
        let (_, report) = StreamPipeline::new(tiny_config()).run(2).expect("run");
        assert_eq!(report.executed(), 12);
        let sum: f64 = report.stages.iter().map(|s| s.wall_ms).sum();
        assert!(
            sum <= report.total_ms + 1e-6,
            "fold wall times sum to {sum} ms inside a {} ms run",
            report.total_ms
        );
    }

    #[test]
    fn warm_replay_loads_head_only_and_is_bit_identical() {
        let dir = tmpdir("warm");
        let config = tiny_config().with_cache_dir(&dir);
        let pipeline = StreamPipeline::new(config);
        let (cold, _) = pipeline.run(2).expect("cold");
        let (warm, report) = pipeline.run(2).expect("warm");
        assert_eq!(cold.content_digest(), warm.content_digest());
        assert_eq!(report.executed(), 0, "warm run must fold nothing");
        assert_eq!(report.stages.len(), 6, "warm run loads only the head slice");
        assert_eq!(report.slices_polled, 0, "warm run must not poll the firehose");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extending_a_cached_prefix_folds_only_the_new_slice() {
        let dir = tmpdir("extend");
        let config = tiny_config().with_cache_dir(&dir);
        let pipeline = StreamPipeline::new(config);
        pipeline.run(1).expect("prefix");
        let (state, report) = pipeline.run(2).expect("extend");
        let executed = report.executed_folds();
        assert!(
            executed.iter().all(|&(_, k)| k == 1),
            "only slice 1 may fold, got {executed:?}"
        );
        assert_eq!(executed.len(), 6);
        // Bit-identity with a cold fold over both slices.
        let cold_pipeline = StreamPipeline::new(tiny_config());
        let (cold, _) = cold_pipeline.run(2).expect("cold");
        assert_eq!(state.content_digest(), cold.content_digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn folding_from_the_held_head_equals_a_cold_run() {
        let (cold, _) = StreamPipeline::new(tiny_config()).run(2).expect("cold");
        let dir = tmpdir("held");
        for config in [tiny_config(), tiny_config().with_cache_dir(&dir)] {
            let pipeline = StreamPipeline::new(config);
            let (held, _) = pipeline.run(1).expect("head 1");
            let (state, report) = pipeline.run_from(2, Some(held)).expect("advance");
            assert_eq!(state.content_digest(), cold.content_digest());
            assert_eq!(report.stages.len(), 6, "{report:?}");
            assert!(
                report.stages.iter().all(|s| s.cache == crate::CacheStatus::Miss && s.slice == 1),
                "only slice 1 may fold, and nothing may replay: {report:?}"
            );
            assert_eq!(report.slices_polled, 1);
            let chain: Vec<u64> = pipeline.fingerprints(2).iter().map(|fps| fps[1]).collect();
            assert_eq!(state.fingerprints.to_vec(), chain);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_state_that_does_not_chain_is_ignored() {
        let pipeline = StreamPipeline::new(tiny_config());
        let (head1, _) = pipeline.run(1).expect("head 1");
        let (head2, _) = pipeline.run(2).expect("head 2");
        let mut reseeded = tiny_config();
        reseeded.topic.seed = 1234;
        let (foreign, _) = StreamPipeline::new(reseeded).run(1).expect("foreign head");
        let cases = [
            ("another config", &pipeline, 2, foreign, &head2),
            ("the same head", &pipeline, 2, head2.clone(), &head2),
            ("a later head", &pipeline, 1, head2.clone(), &head1),
        ];
        for (case, runner, n, held, cold) in cases {
            let (state, report) = runner.run_from(n, Some(held)).expect("run");
            assert_eq!(state.content_digest(), cold.content_digest(), "{case}");
            assert_eq!(report.executed(), 6 * n, "{case} must not seed the run: {report:?}");
        }
    }

    #[test]
    fn an_advance_from_the_held_head_reuses_its_buffers() {
        let dir = tmpdir("moved");
        for config in [tiny_config(), tiny_config().with_cache_dir(&dir)] {
            let pipeline = StreamPipeline::new(config);
            let (held, _) = pipeline.run(1).expect("head 1");
            let article = held.world.articles.iter().find(|a| !a.content.is_empty());
            let article = article.expect("an article").content.as_ptr();
            let news_tm = held.corpora.news_tm.iter().find(|d| !d.is_empty());
            let news_tm = news_tm.expect("a NewsTM document").as_ptr();
            let row = held.dtm.parts().4.iter().find(|r| !r.is_empty()).expect("a row").as_ptr();
            let window = held.events.news_window.docs().iter().rev();
            let newest = window.map(|d| &d.tokens).find(|t| !t.is_empty());
            let tokens = newest.expect("a windowed document").as_ptr();
            let (state, _) = pipeline.run_from(2, Some(held)).expect("advance");
            assert!(state.world.articles.iter().any(|a| a.content.as_ptr() == article));
            assert!(state.corpora.news_tm.iter().any(|d| d.as_ptr() == news_tm));
            assert!(state.dtm.parts().4.iter().any(|r| r.as_ptr() == row));
            let docs = state.events.news_window.docs();
            assert!(docs.iter().any(|d| d.tokens.as_ptr() == tokens), "window doc was copied");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn folding_by_reference_equals_folding_by_value() {
        let mut config = tiny_config();
        config.firehose.slice_hours = 24;
        let pipeline = StreamPipeline::new(config.clone());
        let (state, _) = pipeline.run(2).expect("head 2");
        let prevs = state.into_artifacts();
        let slice = pipeline.firehose().poll(2);
        let graph = fold_stages();
        let dep_idx = resolve_deps(&graph);
        let encode = |si: usize, value: &StreamArtifact| {
            let mut w = ByteWriter::new();
            graph[si].encode(value, &mut w).expect("encode");
            w.into_bytes()
        };
        let mut outs: Vec<StreamArtifact> = Vec::new();
        for (si, stage) in graph.iter().enumerate() {
            let ups: Vec<&StreamArtifact> = dep_idx[si].iter().map(|&d| &outs[d]).collect();
            let before = encode(si, &prevs[si]);
            let by_ref = stage.fold(&config, Some(&prevs[si]), &ups, &slice).expect("fold");
            assert_eq!(encode(si, &prevs[si]), before, "{} changed prev", stage.name());
            let owned = stage.fold_owned(&config, Some(prevs[si].clone()), &ups, &slice);
            let by_value = owned.expect("fold_owned");
            assert_eq!(encode(si, &by_ref), encode(si, &by_value), "{}", stage.name());
            outs.push(by_value);
        }
    }

    #[test]
    fn run_bounds_are_checked() {
        let pipeline = StreamPipeline::new(tiny_config());
        assert!(matches!(pipeline.run(0), Err(CoreError::EmptyInput(_))));
        let horizon = pipeline.firehose().n_slices();
        assert!(pipeline.run(horizon + 1).is_err());
    }

    #[test]
    fn dtm_codec_roundtrips_bit_exactly() {
        let mut dtm = IncrementalDtm::new(Weighting::TfIdfNormalized);
        dtm.push_docs(&[
            vec!["brexit".into(), "vote".into(), "brexit".into()],
            vec!["tariff".into(), "vote".into()],
        ]);
        let mut w = ByteWriter::new();
        encode_dtm(&dtm, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_dtm(&mut r).expect("decode");
        assert!(r.is_empty());
        let mut w2 = ByteWriter::new();
        encode_dtm(&back, &mut w2);
        assert_eq!(bytes, w2.into_bytes(), "dtm codec must be bit-stable");
    }
}
