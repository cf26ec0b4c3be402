//! Versioned model registry with hot swap.
//!
//! Each served model is an immutable [`ModelHandle`] behind an `Arc`:
//! request handlers resolve the handle once at admission and keep it
//! for the request's whole life, so a swap never tears a response —
//! in-flight work finishes on the version it started with while new
//! admissions see the fresh handle. Swaps load the newest
//! `nd-core::checkpoint` frame in the registry's directory into a
//! freshly built architecture (paper §4.9: retraining continues from
//! checkpoints as data arrives; the serving tier picks the results up
//! without a restart) and then delete superseded frames.
//!
//! The registry holds no open file, and frames land by synced rename,
//! so a trainer in any process can save between or during refreshes.
//! A defective newest frame fails the refresh and the serving version
//! stays.

use crate::ServeError;
use nd_core::checkpoint::{latest_version, load_checkpoint, prune_checkpoints};
use nd_neural::Network;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};

/// How to (re)build a served model's architecture; checkpoint
/// parameters are loaded on top.
pub struct ModelSpec {
    /// Checkpoint name: frames `<name>-<version:016x>.art`.
    pub name: String,
    /// Expected feature-vector width (request validation).
    pub input_dim: usize,
    builder: Box<dyn Fn() -> Network + Send + Sync>,
}

impl ModelSpec {
    /// Creates a spec. `builder` must construct the same architecture
    /// the checkpoints under `name` were exported from (its init seed
    /// is irrelevant — parameters are overwritten on load).
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        builder: impl Fn() -> Network + Send + Sync + 'static,
    ) -> Self {
        ModelSpec { name: name.into(), input_dim, builder: Box::new(builder) }
    }
}

/// An immutable loaded model version.
pub struct ModelHandle {
    /// Model name.
    pub name: String,
    /// Loaded checkpoint version.
    pub version: u64,
    /// Feature-vector width.
    pub input_dim: usize,
    /// Trainable parameter count.
    pub n_params: usize,
    /// The frozen network (inference via `predict_batch(&self)`).
    pub network: Network,
}

/// One completed hot swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapEvent {
    /// Model name.
    pub name: String,
    /// Version serving before the swap.
    pub from: u64,
    /// Version serving after the swap.
    pub to: u64,
    /// Superseded checkpoint frames deleted after the swap.
    pub pruned: usize,
}

/// The live model table.
pub struct Registry {
    db_dir: PathBuf,
    specs: BTreeMap<String, ModelSpec>,
    models: RwLock<BTreeMap<String, Arc<ModelHandle>>>,
    keep_checkpoints: usize,
}

impl Registry {
    /// Loads the newest checkpoint in `db_dir` for every spec, and
    /// prunes superseded versions. Fails fast when any spec has no
    /// checkpoint — a server with nothing to serve is a deploy error.
    pub fn load(
        db_dir: impl Into<PathBuf>,
        specs: Vec<ModelSpec>,
        keep_checkpoints: usize,
    ) -> Result<Registry, ServeError> {
        if specs.is_empty() {
            return Err(ServeError::Config("at least one model spec is required".into()));
        }
        let registry = Registry {
            db_dir: db_dir.into(),
            specs: specs.into_iter().map(|s| (s.name.clone(), s)).collect(),
            models: RwLock::new(BTreeMap::new()),
            keep_checkpoints: keep_checkpoints.max(1),
        };
        registry.refresh()?;
        let missing: Vec<&str> = registry
            .specs
            .keys()
            .filter(|n| registry.get(n).is_none())
            .map(String::as_str)
            .collect();
        if !missing.is_empty() {
            return Err(ServeError::Config(format!(
                "no checkpoint found for model(s): {}",
                missing.join(", ")
            )));
        }
        Ok(registry)
    }

    /// Directory holding the checkpoint frames.
    pub fn db_dir(&self) -> &Path {
        &self.db_dir
    }

    /// The live handle for `name`.
    pub fn get(&self, name: &str) -> Option<Arc<ModelHandle>> {
        // Poison recovery on every lock: the table only ever holds
        // complete `Arc<ModelHandle>` entries (the single mutation is
        // one `insert`), so a panic elsewhere cannot leave it torn.
        self.models.read().unwrap_or_else(PoisonError::into_inner).get(name).cloned()
    }

    /// The only model, when exactly one is served (lets single-model
    /// deployments omit the `model` request field).
    pub fn single(&self) -> Option<Arc<ModelHandle>> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        if models.len() == 1 {
            models.values().next().cloned()
        } else {
            None
        }
    }

    /// All live handles, name-ordered.
    pub fn list(&self) -> Vec<Arc<ModelHandle>> {
        self.models.read().unwrap_or_else(PoisonError::into_inner).values().cloned().collect()
    }

    /// Hot-swaps every model whose newest checkpoint is ahead of the
    /// serving version, pruning superseded checkpoints afterwards.
    /// Returns one event per swap. In-flight requests keep their
    /// admitted handle; only new admissions see the swapped version.
    ///
    /// # Errors
    /// When the directory cannot be listed, or a newest frame is
    /// defective or does not fit its spec's architecture; that model
    /// keeps serving its current version.
    pub fn refresh(&self) -> Result<Vec<SwapEvent>, ServeError> {
        let mut events = Vec::new();
        for (name, spec) in &self.specs {
            let serving = self.get(name).map(|h| h.version).unwrap_or(0);
            let newest = latest_version(&self.db_dir, name)?.unwrap_or(0);
            if newest <= serving {
                continue;
            }
            // Build + load outside the lock: the write lock is held
            // only for the pointer swap.
            let mut network = (spec.builder)();
            let version = load_checkpoint(&self.db_dir, name, &mut network)?;
            let handle = Arc::new(ModelHandle {
                name: name.clone(),
                version,
                input_dim: spec.input_dim,
                n_params: network.n_params(),
                network,
            });
            self.models
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name.clone(), handle);
            let pruned = prune_checkpoints(&self.db_dir, name, self.keep_checkpoints)?;
            events.push(SwapEvent { name: name.clone(), from: serving, to: version, pruned });
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_core::checkpoint::save_checkpoint;
    use nd_core::predict::build_mlp;
    use nd_linalg::Mat;
    use nd_store::ArtifactStore;

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ndreg-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn spec(dim: usize) -> ModelSpec {
        ModelSpec::new("likes", dim, move || build_mlp(dim, 0))
    }

    fn versions(dir: &Path, name: &str) -> Vec<u64> {
        ArtifactStore::open(dir).unwrap().fingerprints(name).unwrap()
    }

    #[test]
    fn loads_latest_and_serves_it() {
        let dir = tmpdir("load");
        let trained = build_mlp(6, 7);
        save_checkpoint(&dir, "likes", &build_mlp(6, 1)).unwrap();
        save_checkpoint(&dir, "likes", &trained).unwrap();
        let reg = Registry::load(&dir, vec![spec(6)], 3).unwrap();
        let h = reg.get("likes").unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(h.input_dim, 6);
        let x = Mat::random_normal(3, 6, 0.0, 1.0, 1);
        assert_eq!(h.network.predict_batch(&x), trained.predict_batch(&x));
        assert!(reg.single().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_fails_fast() {
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = Registry::load(&dir, vec![spec(6)], 3).err().expect("must fail");
        assert!(err.to_string().contains("likes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_swaps_in_newer_version_and_prunes() {
        let dir = tmpdir("swap");
        save_checkpoint(&dir, "likes", &build_mlp(6, 1)).unwrap();
        let reg = Registry::load(&dir, vec![spec(6)], 1).unwrap();
        let old = reg.get("likes").unwrap();
        assert_eq!(old.version, 1);
        assert!(reg.refresh().unwrap().is_empty(), "no new version yet");

        let newer = build_mlp(6, 99);
        save_checkpoint(&dir, "likes", &newer).unwrap();
        save_checkpoint(&dir, "likes", &newer).unwrap();
        let events = reg.refresh().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].from, events[0].to), (1, 3));
        assert_eq!(events[0].pruned, 2, "keep_last=1 prunes versions 1 and 2");
        assert_eq!(reg.get("likes").unwrap().version, 3);
        // The old Arc still works: in-flight requests are unaffected.
        let x = Mat::random_normal(2, 6, 0.0, 1.0, 2);
        let _ = old.network.predict_batch(&x);

        assert_eq!(versions(&dir, "likes").len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_is_none_with_two_models() {
        let dir = tmpdir("two");
        save_checkpoint(&dir, "likes", &build_mlp(4, 1)).unwrap();
        save_checkpoint(&dir, "retweets", &build_mlp(4, 2)).unwrap();
        let specs = vec![
            ModelSpec::new("likes", 4, || build_mlp(4, 0)),
            ModelSpec::new("retweets", 4, || build_mlp(4, 0)),
        ];
        let reg = Registry::load(&dir, specs, 3).unwrap();
        assert!(reg.single().is_none());
        assert_eq!(reg.list().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defective_newest_frame_fails_refresh_and_keeps_serving() {
        let dir = tmpdir("defect");
        let x = Mat::random_normal(2, 6, 0.0, 1.0, 3);
        let v1 = build_mlp(6, 1);
        save_checkpoint(&dir, "likes", &v1).unwrap();
        let reg = Registry::load(&dir, vec![spec(6)], 2).unwrap();
        save_checkpoint(&dir, "likes", &build_mlp(6, 2)).unwrap();
        let path = ArtifactStore::open(&dir).unwrap().path_for("likes", 2);
        let full = std::fs::read(&path).unwrap();
        let mut flipped = full.clone();
        flipped[full.len() - 8] ^= 0x10;
        for bad in [flipped, full[..full.len() - 100].to_vec()] {
            std::fs::write(&path, &bad).unwrap();
            assert!(reg.refresh().is_err(), "a defective newest frame must fail the refresh");
            let h = reg.get("likes").expect("still serving");
            assert_eq!(h.version, 1);
            assert_eq!(h.network.predict_batch(&x), v1.predict_batch(&x));
        }
        // A later good save swaps in over the defective frame.
        let v3 = build_mlp(6, 3);
        assert_eq!(save_checkpoint(&dir, "likes", &v3).unwrap(), 3);
        let events = reg.refresh().unwrap();
        assert_eq!((events[0].from, events[0].to, events[0].pruned), (1, 3, 1));
        assert_eq!(reg.get("likes").unwrap().network.predict_batch(&x), v3.predict_batch(&x));
        assert_eq!(versions(&dir, "likes"), vec![2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unlistable_directory_fails_refresh_and_keeps_serving() {
        let dir = tmpdir("unlistable");
        save_checkpoint(&dir, "likes", &build_mlp(6, 1)).unwrap();
        let reg = Registry::load(&dir, vec![spec(6)], 2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        assert!(reg.refresh().is_err(), "an unlistable directory must fail the refresh");
        assert_eq!(reg.get("likes").expect("still serving").version, 1);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn other_files_in_the_directory_do_not_change_versions() {
        let dir = tmpdir("neighbours");
        save_checkpoint(&dir, "likes", &build_mlp(4, 1)).unwrap();
        for _ in 0..3 {
            save_checkpoint(&dir, "likes-mlp", &build_mlp(4, 2)).unwrap();
        }
        std::fs::write(dir.join(".likes-0000000000000007.42.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("wal.log"), b"not a frame").unwrap();
        let reg = Registry::load(&dir, vec![spec(4)], 1).unwrap();
        assert_eq!(reg.get("likes").unwrap().version, 1);
        assert!(reg.refresh().unwrap().is_empty());
        save_checkpoint(&dir, "likes", &build_mlp(4, 3)).unwrap();
        let events = reg.refresh().unwrap();
        assert_eq!((events[0].from, events[0].to, events[0].pruned), (1, 2, 1));
        assert_eq!(versions(&dir, "likes"), vec![2]);
        assert_eq!(versions(&dir, "likes-mlp"), vec![1, 2, 3], "another model's frames stay");
        assert!(dir.join(".likes-0000000000000007.42.tmp").exists());
        assert!(dir.join("wal.log").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_refresh_cycles_keep_the_store_bounded() {
        // One paper-width MLP (48,003 parameters) at keep = 2: the
        // directory must stay at two frames however many cycles run.
        let dir = tmpdir("bounded");
        let dim = 308;
        save_checkpoint(&dir, "likes", &build_mlp(dim, 0)).unwrap();
        let reg = Registry::load(&dir, vec![spec(dim)], 2).unwrap();
        let frame_bytes =
            std::fs::metadata(ArtifactStore::open(&dir).unwrap().path_for("likes", 1))
                .unwrap()
                .len();
        for cycle in 2..=51 {
            save_checkpoint(&dir, "likes", &build_mlp(dim, cycle)).unwrap();
            let events = reg.refresh().unwrap();
            assert_eq!((events.len(), events[0].to), (1, cycle));
        }
        assert_eq!(versions(&dir, "likes"), vec![50, 51]);
        let dir_bytes: u64 =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();
        assert!(dir_bytes <= 2 * frame_bytes + 4096, "{dir_bytes} bytes on disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
