//! The database: named collections + WAL + snapshot persistence.
//!
//! Layout on disk (one directory per database):
//!
//! ```text
//! <dir>/snapshot.json   # full state at the last checkpoint
//! <dir>/wal.log         # mutations since the snapshot
//! ```
//!
//! `open` loads the snapshot (if any) and replays the WAL on top;
//! `persist` flushes pending mutations to the WAL and fsyncs;
//! `compact` rewrites the snapshot and truncates the WAL.

use crate::collection::Collection;
use crate::error::Result;
use crate::wal::{Wal, WalRecord};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// An embedded document database.
#[derive(Debug)]
pub struct Database {
    dir: PathBuf,
    collections: BTreeMap<String, Collection>,
    wal: Wal,
    generation: u64,
}

impl Database {
    /// Opens (creating if needed) a database in `dir`, replaying any
    /// existing snapshot and WAL.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut collections: BTreeMap<String, Collection> = BTreeMap::new();
        let mut generation = 0;

        // Load snapshot.
        let snap_path = dir.join("snapshot.json");
        if snap_path.exists() {
            let raw = std::fs::read(&snap_path)?;
            let snap: Value = serde_json::from_slice(&raw)?;
            generation = snap["generation"].as_u64().unwrap_or(0);
            if let Some(colls) = snap["collections"].as_object() {
                for (name, docs) in colls {
                    let coll = collections
                        .entry(name.clone())
                        .or_insert_with(|| Collection::new(name.clone()));
                    if let Some(items) = docs.as_array() {
                        for doc in items {
                            if let Some(id) = doc.get("_id").and_then(Value::as_u64) {
                                coll.apply_insert(id, doc.clone());
                            }
                        }
                    }
                }
            }
        }

        // Replay WAL on top.
        let wal_path = dir.join("wal.log");
        for record in Wal::replay(&wal_path)? {
            match record {
                WalRecord::Insert { collection, id, doc } => {
                    collections
                        .entry(collection.clone())
                        .or_insert_with(|| Collection::new(collection))
                        .apply_insert(id, doc);
                }
                WalRecord::Delete { collection, id } => {
                    if let Some(c) = collections.get_mut(&collection) {
                        c.apply_delete(id);
                    }
                }
                WalRecord::Checkpoint { generation: g } => generation = generation.max(g),
            }
        }

        let wal = Wal::open(wal_path)?;
        Ok(Database { dir, collections, wal, generation })
    }

    /// Gets (creating if absent) a collection by name.
    pub fn collection(&mut self, name: &str) -> &mut Collection {
        self.collections
            .entry(name.to_string())
            .or_insert_with(|| Collection::new(name.to_string()))
    }

    /// Read-only access to a collection, if it exists.
    pub fn get_collection(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name)
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    /// Flushes pending mutations to the WAL and fsyncs.
    pub fn persist(&mut self) -> Result<()> {
        for coll in self.collections.values_mut() {
            for record in coll.drain_pending() {
                self.wal.append(&record)?;
            }
        }
        self.wal.sync()
    }

    /// Writes a fresh snapshot and truncates the WAL. Implies
    /// [`Database::persist`] semantics for pending mutations (they end
    /// up in the snapshot).
    pub fn compact(&mut self) -> Result<()> {
        // Drop pending records — the snapshot captures their effects.
        for coll in self.collections.values_mut() {
            coll.drain_pending();
        }
        self.generation += 1;
        let mut colls = serde_json::Map::new();
        for (name, coll) in &self.collections {
            let docs: Vec<Value> = coll.iter().cloned().collect();
            colls.insert(name.clone(), Value::Array(docs));
        }
        let snap = serde_json::json!({
            "generation": self.generation,
            "collections": Value::Object(colls),
        });
        // Write-then-rename for atomicity.
        let tmp = self.dir.join("snapshot.json.tmp");
        std::fs::write(&tmp, serde_json::to_vec(&snap)?)?;
        std::fs::rename(&tmp, self.dir.join("snapshot.json"))?;
        self.wal.reset()?;
        self.wal.append(&WalRecord::Checkpoint { generation: self.generation })?;
        self.wal.sync()
    }

    /// Snapshot generation (increments on every [`Database::compact`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The directory backing the database, so it can be passed where a
/// store directory is expected (the checkpoint functions).
impl AsRef<Path> for Database {
    fn as_ref(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Filter;
    use serde_json::json;

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("nddb-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn insert_persist_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut db = Database::open(&dir).unwrap();
            let tweets = db.collection("tweets");
            tweets.insert(json!({"text": "hello", "likes": 5})).unwrap();
            tweets.insert(json!({"text": "world", "likes": 500})).unwrap();
            db.persist().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            let tweets = db.get_collection("tweets").unwrap();
            assert_eq!(tweets.len(), 2);
            let hot = tweets.find(&Filter::range("likes", Some(100.0), None));
            assert_eq!(hot.len(), 1);
            assert_eq!(hot[0]["text"], json!("world"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deletes_survive_reopen() {
        let dir = tmpdir("deletes");
        {
            let mut db = Database::open(&dir).unwrap();
            let c = db.collection("c");
            let id = c.insert(json!({"v": 1})).unwrap();
            c.insert(json!({"v": 2})).unwrap();
            c.delete(id).unwrap();
            db.persist().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.get_collection("c").unwrap().len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unpersisted_mutations_lost_on_reopen() {
        let dir = tmpdir("unpersisted");
        {
            let mut db = Database::open(&dir).unwrap();
            db.collection("c").insert(json!({"v": 1})).unwrap();
            db.persist().unwrap();
            db.collection("c").insert(json!({"v": 2})).unwrap();
            // no persist for the second insert
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.get_collection("c").unwrap().len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_then_reopen() {
        let dir = tmpdir("compact");
        {
            let mut db = Database::open(&dir).unwrap();
            for i in 0..20 {
                db.collection("news").insert(json!({"i": i})).unwrap();
            }
            db.compact().unwrap();
            // More writes after the snapshot.
            db.collection("news").insert(json!({"i": 100})).unwrap();
            db.persist().unwrap();
            assert_eq!(db.generation(), 1);
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.get_collection("news").unwrap().len(), 21);
            assert_eq!(db.generation(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ids_continue_after_reopen() {
        let dir = tmpdir("ids");
        {
            let mut db = Database::open(&dir).unwrap();
            db.collection("c").insert(json!({})).unwrap();
            db.persist().unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let id = db.collection("c").insert(json!({})).unwrap();
            assert_eq!(id, 1, "ids must not be reused after reopen");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiple_collections() {
        let dir = tmpdir("multi");
        let mut db = Database::open(&dir).unwrap();
        db.collection("a").insert(json!({})).unwrap();
        db.collection("b").insert(json!({})).unwrap();
        assert_eq!(db.collection_names(), vec!["a", "b"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_database_reopen() {
        let dir = tmpdir("empty");
        {
            Database::open(&dir).unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert!(db.collection_names().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
