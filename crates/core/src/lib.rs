//! # nd-core
//!
//! The paper's proposed solution (§4, Figure 1), assembled from the
//! workspace substrates. Each module mirrors one box of the
//! architecture diagram:
//!
//! | paper module | here |
//! |---|---|
//! | Data Collection | [`collect`] |
//! | Storage (MongoDB) | [`collect`] writing into `nd-store` |
//! | Preprocessing (NewsTM / NewsED / TwitterED) | [`preprocess`] |
//! | Topic Modeling (TFIDF_N + NMF) | [`topic_module`] |
//! | Event Detection (MABED ×2) | [`event_module`] |
//! | Trending News (topic↔news-event correlation) | [`trending`] |
//! | Correlation (trending ↔ Twitter events) | [`correlate`] |
//! | Feature Creation (SW/RND/SWM + metadata, Table 2) | [`features`] |
//! | Audience Interest Prediction (MLP / CNN) | [`predict`] |
//!
//! [`stage`] carves the architecture into an explicit DAG of
//! fingerprinted stages; [`pipeline`] drives that graph over a
//! content-addressed artifact cache, so warm re-runs replay stages
//! from disk bit for bit; [`incremental`] folds the same pipeline one
//! firehose slice at a time. Both executors share one per-node cache
//! path, fingerprint recipe and run report ([`cache`]).
//! [`matching`] implements the minimum-cost-flow matching the paper
//! lists as future work; [`report`] renders the tables the benches
//! print.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod collect;
pub mod correlate;
pub mod error;
pub mod event_module;
pub mod features;
pub mod incremental;
pub mod matching;
pub mod patterns_module;
pub mod pipeline;
pub mod predict;
pub mod preprocess;
pub mod pretrained;
pub mod report;
pub mod stage;
pub mod topic_module;
pub mod trending;

pub use error::{CoreError, Result};
pub use cache::{CacheConfig, CacheStatus, RunReport, StageReport};
pub use pipeline::{Pipeline, PipelineConfig, PipelineOutput};
pub use incremental::{
    fold_stages, FoldStage, StreamArtifact, StreamConfig, StreamPipeline, StreamState,
};
pub use stage::{ArtifactSet, ArtifactValue, Stage};
