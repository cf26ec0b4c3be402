//! Artifact-cache correctness suite for the staged pipeline DAG.
//!
//! Uses a process-private run directory (cleaned at first use) so
//! cold/warm expectations are exact regardless of what earlier test
//! passes left in the workspace-shared cache. Tests share the cache
//! directory, so they serialize through a file-local mutex.

use newsdiff::core::cache::{CacheStatus, RunReport};
use newsdiff::core::pipeline::{Pipeline, PipelineConfig};
use newsdiff::store::ArtifactStore;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

const UPSTREAM: [&str; 5] = ["collect", "preprocess", "topics", "events", "embeddings"];

fn dir() -> PathBuf {
    std::env::temp_dir().join(format!("nd-pipeline-cache-{}", std::process::id()))
}

fn config() -> PipelineConfig {
    PipelineConfig::small().with_cache_dir(dir())
}

/// Cold-populates the private cache exactly once; returns the
/// baseline content digest.
fn baseline_digest() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| {
        std::fs::remove_dir_all(dir()).ok();
        let (out, report) = Pipeline::new(config()).run_with_report().expect("cold run");
        assert!(
            report.stages.iter().all(|s| s.cache == CacheStatus::Miss),
            "fresh directory must miss everywhere: {report:?}"
        );
        out.content_digest()
    })
}

fn status_of(report: &RunReport, stage: &str) -> CacheStatus {
    report.stage(stage).unwrap_or_else(|| panic!("no report for {stage}")).cache
}

/// The two ways the heal tests damage a cached artifact.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Truncate the file mid-payload: the NDART01 frame check rejects it.
    Truncate,
    /// Re-save the valid payload plus one byte under the same id and
    /// fingerprint: the frame is sound, so only the executors' "payload
    /// fully consumed" rule can reject it.
    TrailingByte,
}

fn damage(store: &ArtifactStore, id: &str, fingerprint: u64, how: Damage) {
    match how {
        Damage::Truncate => {
            let path = store.path_for(id, fingerprint);
            let full = std::fs::metadata(&path).expect("metadata").len();
            let file = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
            file.set_len(full / 2).expect("truncate");
        }
        Damage::TrailingByte => {
            let mut payload = store.load(id, fingerprint).expect("valid cached payload");
            payload.push(0);
            store.save(id, fingerprint, &payload).expect("re-save with a trailing byte");
        }
    }
}

#[test]
fn warm_rerun_replays_every_stage_bit_identically() {
    let _guard = LOCK.lock().unwrap();
    let cold = baseline_digest();
    let (out, report) = Pipeline::new(config()).run_with_report().expect("warm run");
    assert_eq!(report.executed(), 0, "warm run executed stage bodies: {report:?}");
    assert!(report.stages.iter().all(|s| s.cache == CacheStatus::Hit));
    assert_eq!(out.content_digest(), cold, "warm output must be bit-identical");
    // Every stage replayed a non-empty artifact payload.
    assert!(report.stages.iter().all(|s| s.bytes > 0));
}

#[test]
fn trending_threshold_change_recomputes_only_downstream_cone() {
    let _guard = LOCK.lock().unwrap();
    baseline_digest();
    let mut cfg = config();
    cfg.trending_threshold = 0.65; // lower than small()'s 0.7: keeps a superset
    let (_, report) = Pipeline::new(cfg.clone()).run_with_report().expect("dirty run");
    for stage in UPSTREAM {
        assert_eq!(status_of(&report, stage), CacheStatus::Hit, "{stage} must replay");
    }
    for stage in ["trending", "correlation", "features"] {
        assert_eq!(status_of(&report, stage), CacheStatus::Miss, "{stage} must recompute");
    }
    // The recomputation was itself cached: same config now fully hits.
    let (_, again) = Pipeline::new(cfg).run_with_report().expect("re-run");
    assert_eq!(again.executed(), 0);
}

#[test]
fn correlation_threshold_change_recomputes_exactly_correlation_and_features() {
    let _guard = LOCK.lock().unwrap();
    baseline_digest();
    let mut cfg = config();
    cfg.correlation_threshold = 0.6;
    let (_, report) = Pipeline::new(cfg).run_with_report().expect("dirty run");
    for stage in UPSTREAM {
        assert_eq!(status_of(&report, stage), CacheStatus::Hit, "{stage} must replay");
    }
    assert_eq!(
        status_of(&report, "trending"),
        CacheStatus::Hit,
        "correlation threshold must not dirty trending"
    );
    for stage in ["correlation", "features"] {
        assert_eq!(status_of(&report, stage), CacheStatus::Miss, "{stage} must recompute");
    }
}

#[test]
fn pattern_min_support_change_recomputes_exactly_the_patterns_stage() {
    let _guard = LOCK.lock().unwrap();
    baseline_digest();
    let mut cfg = config();
    cfg.patterns.mining.min_support = 0.08; // small()'s default is 0.05
    let (_, report) = Pipeline::new(cfg.clone()).run_with_report().expect("dirty run");
    for stage in UPSTREAM {
        assert_eq!(status_of(&report, stage), CacheStatus::Hit, "{stage} must replay");
    }
    for stage in ["trending", "correlation", "features"] {
        assert_eq!(
            status_of(&report, stage),
            CacheStatus::Hit,
            "a mining knob must not dirty {stage}"
        );
    }
    assert_eq!(status_of(&report, "patterns"), CacheStatus::Miss, "patterns must recompute");
    assert_eq!(report.executed(), 1, "only the patterns stage executes: {report:?}");
    // The recomputation was itself cached: same config now fully hits.
    let (_, again) = Pipeline::new(cfg).run_with_report().expect("re-run");
    assert_eq!(again.executed(), 0);
}

#[test]
fn corrupted_artifact_recomputes_and_heals_instead_of_erroring() {
    let _guard = LOCK.lock().unwrap();
    let cold = baseline_digest();
    let (_, warm) = Pipeline::new(config()).run_with_report().expect("warm run");
    let fp = warm.stage("trending").expect("trending report").fingerprint;
    let store = ArtifactStore::open(dir()).expect("cache dir");
    let victim = store.path_for("trending", fp);
    let full = std::fs::metadata(&victim).expect("metadata").len();

    for how in [Damage::Truncate, Damage::TrailingByte] {
        damage(&store, "trending", fp, how);

        // The damaged artifact reads as a miss: only trending
        // recomputes (its fingerprint is unchanged, so downstream
        // stages still hit), and the output is still bit-identical to
        // the cold run.
        let (out, report) = Pipeline::new(config()).run_with_report().expect("healing run");
        assert_eq!(status_of(&report, "trending"), CacheStatus::Miss, "{how:?} = miss");
        assert_eq!(report.executed(), 1, "{how:?}: only the damaged stage recomputes: {report:?}");
        assert_eq!(out.content_digest(), cold, "{how:?}");

        // The recomputation healed the cache in place.
        let (_, healed) = Pipeline::new(config()).run_with_report().expect("healed run");
        assert_eq!(healed.executed(), 0, "{how:?}");
        assert_eq!(std::fs::metadata(&victim).expect("metadata").len(), full, "{how:?}");
    }
}

/// Streaming counterpart of the heal test above: damaging one slice
/// artifact in the incremental cache must recompute exactly that
/// artifact's cone — the corrupted `(stage, slice)` plus the folds
/// that demand it — and nothing upstream or on unrelated stages.
#[test]
fn corrupted_stream_slice_artifact_heals_by_recomputing_exactly_its_cone() {
    use newsdiff::core::incremental::{StreamConfig, StreamPipeline};
    use newsdiff::synth::{FirehoseConfig, WorldConfig};

    // Private to this test (its own directory), so no mutex needed.
    let dir = std::env::temp_dir().join(format!("nd-stream-heal-{}", std::process::id()));

    // A 6-day world in 48-hour slices: 3 slices, cheap fold budgets.
    let base = StreamConfig {
        firehose: FirehoseConfig {
            world: WorldConfig {
                days: 6,
                n_users: 60,
                min_influencers: 6,
                ..WorldConfig::small()
            },
            slice_hours: 48,
        },
        refine_iters: 12,
        embed_dim: 8,
        embed_epochs: 1,
        ..StreamConfig::small()
    };
    let pipeline = StreamPipeline::new(base.clone().with_cache_dir(&dir));

    // Reference: a cold, uncached fold over all three slices.
    let (cold, _) = StreamPipeline::new(base).run(3).expect("cold run");
    let cold_digest = cold.content_digest();

    for how in [Damage::Truncate, Damage::TrailingByte] {
        // Populate slices 0..2, then damage the head topics artifact.
        std::fs::remove_dir_all(&dir).ok();
        pipeline.run(2).expect("prefix run");
        let fp = pipeline.fingerprint("stream-topics", 1).expect("topics@1 fingerprint");
        let victim = pipeline.artifact_path("stream-topics", 1).expect("victim path");
        let full = std::fs::metadata(&victim).expect("metadata").len();
        damage(&ArtifactStore::open(&dir).expect("cache dir"), "stream-topics@1", fp, how);

        // Extending to slice 2 demands topics@1: the damaged artifact
        // reads as a miss, topics@1 refolds from topics@0 + vectorize@1
        // (both replayed hits), and every stage folds slice 2. Exactly
        // that cone — seven folds — executes.
        let (state, report) = pipeline.run(3).expect("healing run");
        assert_eq!(
            report.executed_folds(),
            vec![
                ("stream-collect", 2),
                ("stream-embed", 2),
                ("stream-events", 2),
                ("stream-preprocess", 2),
                ("stream-topics", 1),
                ("stream-topics", 2),
                ("stream-vectorize", 2),
            ],
            "{how:?}: healing must recompute exactly the corrupted cone: {report:?}"
        );
        let hit = |stage: &str, k: usize| {
            report.fold(stage, k).unwrap_or_else(|| panic!("no fold record for {stage}@{k}")).cache
        };
        assert_eq!(hit("stream-topics", 0), CacheStatus::Hit, "topics@0 must replay");
        assert_eq!(hit("stream-vectorize", 1), CacheStatus::Hit, "vectorize@1 must replay");
        assert!(
            report.fold("stream-collect", 0).is_none(),
            "collect@0 is outside the demanded cone and must not even be probed"
        );
        assert_eq!(state.content_digest(), cold_digest, "{how:?}: healed fold must equal cold");

        // The refold healed the cache in place: fully warm, artifact
        // rewritten.
        let (_, healed) = pipeline.run(3).expect("healed run");
        assert_eq!(healed.executed(), 0, "{how:?}");
        assert_eq!(std::fs::metadata(&victim).expect("metadata").len(), full, "{how:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
