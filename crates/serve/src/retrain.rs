//! The paper's two-hourly refresh loop, in both of its reload kinds.
//!
//! - **Batch** ([`retrain_from_run`]): `POST /admin/reload` with a
//!   `run_dir` body re-executes the nd-core pipeline against that
//!   artifact cache. A warm cache replays every stage from disk (zero
//!   stage bodies run), so the expensive part of a refresh collapses
//!   to feature assembly + network training; a cache dirtied by new
//!   data or changed knobs recomputes exactly the invalidated cone.
//! - **Stream** ([`StreamRetrainer::advance`]): `POST /admin/reload
//!   {"advance_stream": true}` folds the next firehose slice onto the
//!   head state the previous advance left in memory (the first advance
//!   after a start, or after a failed one, replays that head from the
//!   artifact cache instead) and recomputes the cheap projections —
//!   trending, correlation, feature assembly — over the new head
//!   state. They are deliberately *not* fold stages: O(events ×
//!   topics) over the head state, orders of magnitude below one NMF
//!   refine, so recomputing them per hot-swap is cheaper than caching
//!   them.
//!
//! Both then run the same loop: fit every configured model, checkpoint
//! it into the registry's store, and hot-swap the registry without
//! dropping in-flight requests (they keep the version they admitted
//! with). The run's [`RunReport`] is surfaced on `GET /metrics`: per
//! stage for a batch run, per `{stage, slice}` plus a wall-clock
//! staleness gauge (`nd_stream_staleness_ms` — time since the serving
//! models last caught up with the firehose head) for a stream advance.

use crate::registry::{Registry, SwapEvent};
use crate::ServeError;
use nd_core::checkpoint::save_checkpoint;
use nd_core::correlate::correlate;
use nd_core::features::{assign_tweets, build_dataset, Dataset, DatasetVariant};
use nd_core::incremental::{StreamConfig, StreamPipeline, StreamState};
use nd_core::patterns_module::PatternsOutput;
use nd_core::pipeline::{Pipeline, PipelineConfig};
use nd_core::predict::{NetworkKind, PredictConfig, Target};
use nd_core::stage::correlated_events;
use nd_core::trending::extract_trending;
use nd_core::RunReport;
use nd_neural::{Trainer, TrainerConfig};
use nd_store::Database;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One model to retrain and checkpoint on every refresh.
#[derive(Debug, Clone)]
pub struct RetrainModel {
    /// Checkpoint name — must match a served [`crate::ModelSpec`] for
    /// the refresh to swap it in.
    pub name: String,
    /// Network architecture (paper Tables 8–9 columns).
    pub kind: NetworkKind,
    /// Label set to fit (likes or retweets).
    pub target: Target,
}

/// Everything a reload-with-retrain needs besides the run directory.
#[derive(Debug, Clone)]
pub struct RetrainSpec {
    /// Pipeline knobs; the cache directory inside is overridden by the
    /// request's `run_dir`.
    pub pipeline: PipelineConfig,
    /// Which feature table to build (paper Table 2).
    pub variant: DatasetVariant,
    /// Training protocol (batch size, epochs, early stopping, seed).
    pub predict: PredictConfig,
    /// Models to retrain, in order.
    pub models: Vec<RetrainModel>,
    /// Seed for dataset assembly (subsampling / shuffling).
    pub dataset_seed: u64,
}

/// Everything the per-slice refresh loop needs.
#[derive(Debug, Clone)]
pub struct StreamRetrainSpec {
    /// Incremental pipeline knobs. Each advance folds one slice onto
    /// the head the previous one held; a cache directory keeps that
    /// head across a restart or a failed advance, and without one the
    /// first advance after either folds from slice 0.
    pub stream: StreamConfig,
    /// Which feature table to build (paper Table 2).
    pub variant: DatasetVariant,
    /// Training protocol (batch size, epochs, early stopping, seed).
    pub predict: PredictConfig,
    /// Models to retrain on every advance.
    pub models: Vec<RetrainModel>,
    /// Seed for feature assembly.
    pub dataset_seed: u64,
    /// Topic ↔ news-event similarity threshold (paper: 0.7).
    pub trending_threshold: f64,
    /// Trending ↔ Twitter-event similarity threshold (paper: 0.7).
    pub correlation_threshold: f64,
}

/// The one retrain loop behind both reload kinds: fits every model on
/// `dataset`, checkpoints each into the registry's store, and
/// hot-swaps the registry to the new versions.
fn train_and_swap(
    registry: &Registry,
    predict: &PredictConfig,
    models: &[RetrainModel],
    dataset: &Dataset,
) -> Result<Vec<SwapEvent>, ServeError> {
    let mut db = Database::open(registry.db_dir())?;
    let trainer = Trainer::new(TrainerConfig {
        batch_size: predict.batch_size,
        max_epochs: predict.max_epochs,
        early_stopping: predict.early_stopping.clone(),
        seed: predict.seed,
    });
    for model in models {
        let mut network = model.kind.build(dataset.x.cols(), predict.seed);
        let mut optimizer = model.kind.optimizer();
        let y = match model.target {
            Target::Likes => &dataset.y_likes,
            Target::Retweets => &dataset.y_retweets,
        };
        trainer.fit(&mut network, &dataset.x, y, optimizer.as_mut());
        save_checkpoint(&mut db, &model.name, &network)?;
    }
    drop(db);
    registry.refresh()
}

/// Runs the pipeline against `run_dir`'s artifact cache, retrains every
/// model in `spec`, checkpoints the results into the registry's store,
/// and hot-swaps the registry to the new versions.
///
/// Returns the pipeline's per-stage report (cache status, wall time,
/// artifact bytes), the registry swap events, and the run's mined
/// pattern catalog (served at `GET /patterns`).
pub fn retrain_from_run(
    registry: &Registry,
    spec: &RetrainSpec,
    run_dir: &Path,
) -> Result<(RunReport, Vec<SwapEvent>, PatternsOutput), ServeError> {
    let mut config = spec.pipeline.clone();
    config.cache.dir = Some(run_dir.to_path_buf());
    let (output, report) = Pipeline::new(config).run_with_report()?;

    let dataset = output.dataset(spec.variant, spec.dataset_seed);
    if dataset.is_empty() {
        return Err(ServeError::Config("retraining dataset is empty".to_string()));
    }
    let events = train_and_swap(registry, &spec.predict, &spec.models, &dataset)?;
    Ok((report, events, output.patterns))
}

/// What one slice advance did.
#[derive(Debug, Clone)]
pub struct SliceRetrain {
    /// Slices folded so far (the new head is slice `head - 1`).
    pub head: usize,
    /// Per-fold cache record of the advancing run.
    pub stream: RunReport,
    /// Feature rows the head state yielded. `0` means the early
    /// stream had no correlated events yet — the models keep serving
    /// their previous version rather than training on nothing.
    pub dataset_rows: usize,
    /// Models retrained and checkpointed.
    pub trained: usize,
    /// Wall time of projection + training + checkpointing.
    pub train_ms: f64,
    /// Registry swaps the refresh produced.
    pub swapped: Vec<SwapEvent>,
    /// When the advance completed (drives the staleness gauge).
    pub completed_at: Instant,
}

/// The per-slice refresh loop: owns the stream head position and
/// advances it one firehose slice per call.
///
/// Between advances it holds the decoded head [`StreamState`] the last
/// advance trained on, so the next one folds its slice from memory
/// instead of decoding six artifacts from disk. That costs one head in
/// memory for the retrainer's lifetime, growing with the stream: about
/// twice the head's encoded artifact bytes, ~20 MB of heap at
/// perfbench's 12-slice freshness head (~10 MB encoded).
pub struct StreamRetrainer {
    spec: StreamRetrainSpec,
    pipeline: StreamPipeline,
    head: Mutex<Head>,
}

/// Slices folded so far, and the head state of the last successful
/// advance (`None` before the first one and after a failed one).
#[derive(Default)]
struct Head {
    slices: usize,
    state: Option<StreamState>,
}

impl StreamRetrainer {
    /// Creates the retrainer at head 0 (nothing folded yet).
    pub fn new(spec: StreamRetrainSpec) -> Self {
        let pipeline = StreamPipeline::new(spec.stream.clone());
        StreamRetrainer { spec, pipeline, head: Mutex::new(Head::default()) }
    }

    /// Slices folded so far.
    pub fn head(&self) -> usize {
        self.head.lock().unwrap_or_else(PoisonError::into_inner).slices
    }

    /// Total slices the configured firehose will ever emit.
    pub fn horizon(&self) -> usize {
        self.spec.stream.firehose.n_slices()
    }

    /// Folds the next firehose slice onto the held head, rebuilds the
    /// feature dataset from the new head state, retrains and
    /// checkpoints every configured model, and hot-swaps the registry.
    /// On success the new head is held for the next advance; on error
    /// none is, and the next advance replays its head from the cache.
    ///
    /// Serialized on the head lock: concurrent reloads advance one
    /// slice each, in order.
    ///
    /// # Errors
    /// [`ServeError::Config`] when the firehose is exhausted;
    /// [`ServeError::Core`] / [`ServeError::Store`] when a fold or
    /// checkpoint write fails.
    pub fn advance(&self, registry: &Registry) -> Result<SliceRetrain, ServeError> {
        let mut head = self.head.lock().unwrap_or_else(PoisonError::into_inner);
        if head.slices >= self.horizon() {
            return Err(ServeError::Config(format!(
                "firehose exhausted: all {} slices already folded",
                self.horizon()
            )));
        }
        let next = head.slices + 1;
        // The head lock IS the advance serialization: it must span the
        // fold, the checkpoint write, and the swap, or two concurrent
        // reloads would race to fold the same slice and double-advance.
        // It is never taken on the request path — an admin reload
        // blocking another admin reload is the intended behavior, not a
        // latency hazard.
        // nd-lint: allow(lock-order)
        let (state, stream) = self.pipeline.run_from(next, head.state.take())?;

        let started = Instant::now();
        let spec = &self.spec;
        let dataset = head_dataset(spec, &state);
        let (trained, swapped) = if dataset.is_empty() {
            (0, Vec::new())
        } else {
            // nd-lint: allow(lock-order) — the head lock spans the swap too (see the fold).
            let swapped = train_and_swap(registry, &spec.predict, &spec.models, &dataset)?;
            (spec.models.len(), swapped)
        };
        let train_ms = started.elapsed().as_secs_f64() * 1e3;

        *head = Head { slices: next, state: Some(state) };
        Ok(SliceRetrain {
            head: next,
            stream,
            dataset_rows: dataset.len(),
            trained,
            train_ms,
            swapped,
            completed_at: Instant::now(),
        })
    }
}

/// Recomputes the cheap projections (trending → correlation → feature
/// assembly) over a stream head state and assembles the dataset.
fn head_dataset(spec: &StreamRetrainSpec, state: &StreamState) -> Dataset {
    let vectors = &state.vectors.vectors;
    let trending = extract_trending(
        &state.topics.topics,
        &state.events.events.news,
        vectors,
        spec.trending_threshold,
    );
    let forward = correlate(
        &trending,
        &state.events.events.twitter,
        vectors,
        spec.correlation_threshold,
    );
    let correlated = correlated_events(&forward, &state.events.events.twitter);
    let assignments =
        assign_tweets(&correlated, &state.world.tweets, &state.corpora.twitter_ed);
    build_dataset(
        spec.variant,
        &correlated,
        &assignments,
        &state.world.tweets,
        &state.corpora.twitter_ed,
        vectors,
        spec.dataset_seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use nd_core::CacheStatus;

    #[test]
    fn every_advance_folds_exactly_its_own_slice_without_a_cache() {
        let db_dir =
            std::env::temp_dir().join(format!("ndretrain-{}-held", std::process::id()));
        std::fs::remove_dir_all(&db_dir).ok();
        // Three 48-hour slices of a small world, with no cache dir: a
        // slice the retrainer does not hold must refold from slice 0.
        let mut stream = StreamConfig::small();
        stream.firehose.world.days = 6;
        stream.firehose.world.n_users = 60;
        stream.firehose.world.min_influencers = 6;
        stream.topic.max_iter = 40;
        stream.refine_iters = 12;
        stream.embed_dim = 8;
        stream.embed_epochs = 1;
        let dim = stream.embed_dim;
        let build = move || NetworkKind::Mlp1.build(dim, 7);
        {
            let mut db = Database::open(&db_dir).expect("open store");
            save_checkpoint(&mut db, "likes", &build()).expect("seed checkpoint");
        }
        let specs = vec![ModelSpec::new("likes", dim, build)];
        let registry = Registry::load(&db_dir, specs, 2).expect("registry");
        let retrainer = StreamRetrainer::new(StreamRetrainSpec {
            stream,
            variant: DatasetVariant::A1,
            predict: PredictConfig::default(),
            models: Vec::new(),
            dataset_seed: 11,
            trending_threshold: 0.3,
            correlation_threshold: 0.3,
        });
        assert_eq!(retrainer.horizon(), 3);
        for k in 0..retrainer.horizon() {
            let slice = retrainer.advance(&registry).expect("advance");
            assert_eq!(slice.head, k + 1);
            let report = &slice.stream;
            assert_eq!(report.stages.len(), 6, "advance {k}: {report:?}");
            assert!(
                report.stages.iter().all(|s| s.cache == CacheStatus::Miss && s.slice == k),
                "advance {k} must fold only slice {k}: {report:?}"
            );
            assert_eq!(report.slices_polled, 1);
        }
        std::fs::remove_dir_all(&db_dir).ok();
    }
}
