//! The artifact-cache layer both executors share (DESIGN.md §11, §17).
//!
//! The batch executor ([`crate::pipeline`]) walks nine stages in eager
//! topological order; the stream executor ([`crate::incremental`])
//! recurses demand-first over six fold stages and their slices. Per
//! node they do the same thing, and it lives here once: key the node
//! with [`fingerprint`], replay its cached artifact when the payload
//! decodes completely, otherwise run the body and persist its output
//! (`ArtifactCache::node`), and log one [`StageReport`] into the
//! run's [`RunReport`].

use crate::error::Result;
use nd_store::{chain_fingerprint, fnv1a64, ArtifactError, ArtifactStore, ByteReader, ByteWriter};
use std::path::PathBuf;
use std::time::Instant;

/// Bumped when the artifact framing or the fingerprint recipe changes;
/// invalidates every cached artifact, batch and stream, at once.
pub const FORMAT_VERSION: u64 = 1;

/// The one cache-key recipe. Chains, via [`chain_fingerprint`]: the
/// [`FORMAT_VERSION`], the stage-name hash, the stage's code version,
/// its config fingerprint, the slice fingerprint, its own fingerprint
/// at the previous slice, and its dependencies' fingerprints in
/// declaration order. Batch stages are unsliced and pass 0 for both
/// slice words. Pure metadata: no artifact payload contributes.
pub fn fingerprint(
    name: &str,
    code_version: u64,
    config_fp: u64,
    slice_fp: u64,
    prev_fp: u64,
    dep_fps: &[u64],
) -> u64 {
    let mut words =
        vec![FORMAT_VERSION, fnv1a64(name.as_bytes()), code_version, config_fp, slice_fp, prev_fp];
    words.extend_from_slice(dep_fps);
    chain_fingerprint(&words)
}

/// Artifact-cache control. It does not contribute to fingerprints: it
/// steers *whether* cached artifacts are used, not *what* is computed.
/// A cold run is a run over an empty directory.
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Run directory holding `<id>-<fingerprint>.art` files. `None`
    /// disables caching (every node recomputes in memory, nothing is
    /// persisted).
    pub dir: Option<PathBuf>,
}

/// Cache disposition of one node in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Replayed from a cached artifact; the body did not execute.
    Hit,
    /// No usable cached artifact; the body executed.
    Miss,
}

impl CacheStatus {
    /// Stable lowercase label (JSON / metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }

    /// Whether the node body executed.
    pub fn executed(self) -> bool {
        self == CacheStatus::Miss
    }
}

/// Observability record of one node: a batch stage, or a fold stage at
/// one slice.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name.
    pub stage: &'static str,
    /// Slice index (always 0 for batch stages).
    pub slice: usize,
    /// The node's cache fingerprint for this run.
    pub fingerprint: u64,
    /// What the executor did.
    pub cache: CacheStatus,
    /// Wall time of the body or cache replay: the node's own time,
    /// excluding nested nodes (a fold's predecessor and dependencies),
    /// which log their own records.
    pub wall_ms: f64,
    /// Serialized artifact payload size (0 when uncached).
    pub bytes: u64,
}

/// What one run did, node by node, in materialization order.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-node records.
    pub stages: Vec<StageReport>,
    /// Slices polled from the firehose (lazy: a fully warm stream run
    /// polls none; batch runs poll none).
    pub slices_polled: usize,
    /// End-to-end wall time.
    pub total_ms: f64,
}

impl RunReport {
    /// Looks up one stage's (first) record.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Looks up one `(stage, slice)` record.
    pub fn fold(&self, stage: &str, slice: usize) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage && s.slice == slice)
    }

    /// How many node bodies executed (the misses).
    pub fn executed(&self) -> usize {
        self.stages.iter().filter(|s| s.cache.executed()).count()
    }

    /// `(stage, slice)` pairs whose bodies executed, sorted.
    pub fn executed_folds(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = self
            .stages
            .iter()
            .filter(|s| s.cache.executed())
            .map(|s| (s.stage, s.slice))
            .collect();
        out.sort_unstable();
        out
    }

    /// JSON rendering (the batch `run_report.json` sidecar format).
    pub fn to_json(&self) -> String {
        let stages: Vec<serde_json::Value> = self
            .stages
            .iter()
            .map(|s| {
                serde_json::json!({
                    "stage": s.stage,
                    "fingerprint": format!("{:016x}", s.fingerprint),
                    "cache": s.cache.as_str(),
                    "wall_ms": s.wall_ms,
                    "bytes": s.bytes,
                })
            })
            .collect();
        serde_json::json!({ "stages": stages, "total_ms": self.total_ms }).to_string()
    }
}

/// A node's artifact id: the bare stage name for a batch stage,
/// `{stage}@{slice}` for a fold stage at one slice.
pub(crate) fn artifact_id(stage: &str, slice: Option<usize>) -> String {
    match slice {
        Some(k) => format!("{stage}@{k}"),
        None => stage.to_string(),
    }
}

/// Milliseconds since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// An opened [`CacheConfig`]: the artifact store, absent when caching
/// is off.
pub(crate) struct ArtifactCache {
    store: Option<ArtifactStore>,
}

impl ArtifactCache {
    /// Opens (creating if needed) the configured run directory.
    pub(crate) fn open(config: &CacheConfig) -> Result<Self> {
        let store = match &config.dir {
            Some(dir) => Some(ArtifactStore::open(dir)?),
            None => None,
        };
        Ok(ArtifactCache { store })
    }

    /// The store backing this cache, when caching is on.
    pub(crate) fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The per-node cache path, under [`artifact_id`]`(stage, slice)`.
    ///
    /// A cached artifact is usable only when it decodes fully:
    /// truncation, codec drift, or trailing bytes after decode all read
    /// as misses and fall through to `run`, whose output overwrites the
    /// cache.
    ///
    /// # Errors
    /// Errors from `run` propagate unchanged; encode or save failures
    /// surface as [`crate::CoreError`]s.
    pub(crate) fn node<T>(
        &self,
        stage: &'static str,
        slice: Option<usize>,
        fingerprint: u64,
        decode: impl FnOnce(&mut ByteReader<'_>) -> std::result::Result<T, ArtifactError>,
        run: impl FnOnce() -> Result<T>,
        encode: impl FnOnce(&T, &mut ByteWriter) -> Result<()>,
    ) -> Result<(T, StageReport)> {
        let start = Instant::now();
        let id = artifact_id(stage, slice);
        let replayed = self
            .store
            .as_ref()
            .and_then(|store| store.load(&id, fingerprint))
            .and_then(|payload| {
                let mut r = ByteReader::new(&payload);
                let value = decode(&mut r).ok().filter(|_| r.is_empty())?;
                Some((value, payload.len() as u64))
            });
        let (value, cache, bytes) = match replayed {
            Some((value, bytes)) => (value, CacheStatus::Hit, bytes),
            None => {
                let value = run()?;
                let mut bytes = 0;
                if let Some(store) = &self.store {
                    let mut w = ByteWriter::new();
                    encode(&value, &mut w)?;
                    bytes = w.len() as u64;
                    store.save(&id, fingerprint, w.as_bytes())?;
                }
                (value, CacheStatus::Miss, bytes)
            }
        };
        let report = StageReport {
            stage,
            slice: slice.unwrap_or(0),
            fingerprint,
            cache,
            wall_ms: ms_since(start),
            bytes,
        };
        Ok((value, report))
    }
}
