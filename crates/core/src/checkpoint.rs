//! Model checkpointing (paper §4.9).
//!
//! The deployed system refreshes its datasets every two hours and
//! "uses checkpoints to continue the training as new data is added in
//! real time", swapping models in as retraining finishes. Each saved
//! version of a network is one NDART02 frame `<name>-<version:016x>.art`
//! in a store directory: the layer count, then each layer's parameters
//! as `f64::to_bits` words, so a restored network is bit-identical and
//! a restarted process resumes from the last checkpoint instead of
//! retraining from scratch. Versions start at 1 and rise by 1; saves
//! under one name must come from one writer at a time.

use crate::error::{CoreError, Result};
use nd_neural::Network;
use nd_store::{ArtifactError, ArtifactStore, ByteReader, ByteWriter};
use std::path::Path;

/// The store in `dir` and the versions saved under `name`, ascending.
fn versions(dir: &Path, name: &str) -> Result<(ArtifactStore, Vec<u64>)> {
    if name.is_empty() || name.contains(std::path::is_separator) {
        return Err(CoreError::Artifact(format!(
            "checkpoint name {name:?} is empty or contains a path separator"
        )));
    }
    let store = ArtifactStore::open(dir)?;
    let versions = store.fingerprints(name)?;
    Ok((store, versions))
}

/// Saves a network checkpoint under `name` in the store directory
/// `dir`, durably, returning its version (one above the newest).
pub fn save_checkpoint(dir: impl AsRef<Path>, name: &str, network: &Network) -> Result<u64> {
    let (store, versions) = versions(dir.as_ref(), name)?;
    let version = versions.last().map_or(Some(1), |v| v.checked_add(1)).ok_or_else(|| {
        CoreError::Artifact(format!("checkpoint {name}: a frame holds the last version"))
    })?;
    let params = network.export_params();
    let mut w = ByteWriter::new();
    w.put_usize(params.len());
    params.iter().for_each(|layer| w.put_f64_slice(layer));
    store.save(name, version, w.as_bytes())?;
    Ok(version)
}

/// Highest checkpoint version stored under `name`; `None` when there
/// is none.
///
/// # Errors
/// [`CoreError::Artifact`] for an invalid name; a store error when the
/// directory cannot be created or listed.
pub fn latest_version(dir: impl AsRef<Path>, name: &str) -> Result<Option<u64>> {
    Ok(versions(dir.as_ref(), name)?.1.last().copied())
}

/// Decodes a payload written by [`save_checkpoint`].
fn decode_params(payload: &[u8]) -> std::result::Result<Vec<Vec<f64>>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let n_layers = r.len_prefix()?;
    let params = (0..n_layers).map(|_| r.f64_vec()).collect::<std::result::Result<_, _>>()?;
    if !r.is_empty() {
        return Err(ArtifactError::Malformed("trailing bytes after the last layer"));
    }
    Ok(params)
}

/// Loads the newest checkpoint for `name` into `network` (which must
/// have the same architecture it was saved from). Returns the restored
/// version.
///
/// # Errors
/// [`CoreError::NoOutput`] when no checkpoint exists;
/// [`CoreError::Artifact`] for an invalid name or a defective newest
/// frame; [`CoreError::EmptyInput`] when the stored parameters do not
/// fit the network.
pub fn load_checkpoint(dir: impl AsRef<Path>, name: &str, network: &mut Network) -> Result<u64> {
    let (store, versions) = versions(dir.as_ref(), name)?;
    let version = *versions.last().ok_or(CoreError::NoOutput("checkpoint load: name not found"))?;
    let params = store
        .load(name, version)
        .ok_or(ArtifactError::Malformed("frame is torn, truncated or fails its checksum"))
        .and_then(|payload| decode_params(&payload))
        .map_err(|e| CoreError::Artifact(format!("checkpoint {name} v{version}: {e}")))?;
    network
        .import_params(&params)
        .map_err(|_| CoreError::EmptyInput("checkpoint load: architecture mismatch"))?;
    Ok(version)
}

/// Deletes all but the newest `keep` checkpoints of `name` (the 2-hour
/// retraining loop would otherwise grow the directory without bound),
/// returning how many it deleted.
pub fn prune_checkpoints(dir: impl AsRef<Path>, name: &str, keep: usize) -> Result<usize> {
    let (store, versions) = versions(dir.as_ref(), name)?;
    let stale = versions.len().saturating_sub(keep);
    for &version in versions.iter().take(stale) {
        store.remove(name, version)?;
    }
    Ok(stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::build_mlp;
    use nd_linalg::Mat;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("ndckpt-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn frames(dir: &Path, name: &str) -> usize {
        ArtifactStore::open(dir).unwrap().fingerprints(name).unwrap().len()
    }

    #[test]
    fn save_load_roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let mut original = build_mlp(12, 1);
        let x = Mat::random_normal(4, 12, 0.0, 1.0, 2);
        let expected = original.predict(&x);
        assert_eq!(save_checkpoint(&dir, "likes-mlp", &original).unwrap(), 1);
        let mut restored = build_mlp(12, 999); // different init seed
        let v = load_checkpoint(&dir, "likes-mlp", &mut restored).unwrap();
        assert_eq!(v, 1);
        assert_eq!(restored.predict(&x), expected);
        let bits = |n: &Network| -> Vec<u64> {
            n.export_params().iter().flatten().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(&restored), bits(&original));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn versions_increase_and_latest_wins() {
        let dir = tmpdir("versions");
        let net_a = build_mlp(6, 1);
        let net_b = build_mlp(6, 2);
        assert_eq!(save_checkpoint(&dir, "m", &net_a).unwrap(), 1);
        assert_eq!(save_checkpoint(&dir, "m", &net_b).unwrap(), 2);
        assert_eq!(latest_version(&dir, "m").unwrap(), Some(2));

        let mut restored = build_mlp(6, 3);
        load_checkpoint(&dir, "m", &mut restored).unwrap();
        assert_eq!(restored.export_params(), net_b.export_params());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_mismatched_checkpoints_error() {
        let dir = tmpdir("missing");
        let mut net = build_mlp(6, 1);
        assert!(load_checkpoint(&dir, "ghost", &mut net).is_err());
        // Save a 6-input model, try restoring into an 8-input one.
        save_checkpoint(&dir, "m", &net).unwrap();
        let mut wrong = build_mlp(8, 1);
        assert!(load_checkpoint(&dir, "m", &mut wrong).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defective_frames_are_typed_errors() {
        let dir = tmpdir("defect");
        let net = build_mlp(6, 1);
        save_checkpoint(&dir, "m", &net).unwrap();
        let path = ArtifactStore::open(&dir).unwrap().path_for("m", 1);
        let full = std::fs::read(&path).unwrap();
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        // An NDART01 frame: the older magic and its byte-wise checksum.
        let mut ndart01 = full.clone();
        ndart01[..8].copy_from_slice(b"NDART01\n");
        ndart01[24..32].copy_from_slice(&nd_store::fnv1a64(&full[32..]).to_le_bytes());
        for bad in [flipped, full[..full.len() / 2].to_vec(), ndart01] {
            std::fs::write(&path, &bad).unwrap();
            let mut restored = build_mlp(6, 2);
            let err = load_checkpoint(&dir, "m", &mut restored).unwrap_err();
            assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        }
        // A frame whose checksum holds but whose payload does not
        // decode (a layer length past the end) is typed too.
        let store = ArtifactStore::open(&dir).unwrap();
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_usize(1 << 40);
        store.save("m", 2, w.as_bytes()).unwrap();
        let mut restored = build_mlp(6, 2);
        let err = load_checkpoint(&dir, "m", &mut restored).unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        // A stray frame at the last version leaves no version to save.
        store.save("m", u64::MAX, b"").unwrap();
        assert!(matches!(save_checkpoint(&dir, "m", &net), Err(CoreError::Artifact(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_names_are_rejected() {
        let dir = tmpdir("names-invalid");
        let mut net = build_mlp(4, 1);
        for name in ["", "a/b", "/abs"] {
            assert!(matches!(save_checkpoint(&dir, name, &net), Err(CoreError::Artifact(_))));
            assert!(matches!(load_checkpoint(&dir, name, &mut net), Err(CoreError::Artifact(_))));
            assert!(matches!(prune_checkpoints(&dir, name, 1), Err(CoreError::Artifact(_))));
            assert!(matches!(latest_version(&dir, name), Err(CoreError::Artifact(_))));
        }
        assert!(!dir.join("a").exists(), "a rejected name creates no subdirectory");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmpdir("prune");
        let net = build_mlp(4, 1);
        for _ in 0..5 {
            save_checkpoint(&dir, "m", &net).unwrap();
        }
        let removed = prune_checkpoints(&dir, "m", 2).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(latest_version(&dir, "m").unwrap(), Some(5));
        assert_eq!(frames(&dir, "m"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn names_are_namespaced() {
        let dir = tmpdir("names");
        let net = build_mlp(4, 1);
        save_checkpoint(&dir, "likes", &net).unwrap();
        save_checkpoint(&dir, "retweets", &net).unwrap();
        save_checkpoint(&dir, "likes", &net).unwrap();
        save_checkpoint(&dir, "likes-mlp", &net).unwrap();
        assert_eq!(latest_version(&dir, "likes").unwrap(), Some(2));
        assert_eq!(latest_version(&dir, "retweets").unwrap(), Some(1));
        assert_eq!(latest_version(&dir, "likes-mlp").unwrap(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
