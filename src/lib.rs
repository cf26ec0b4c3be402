//! # newsdiff
//!
//! A from-scratch Rust reproduction of *“A Deep Learning Architecture
//! for Audience Interest Prediction of News Topic on Social Media”*
//! (Truică, Apostol, Ștefu & Karras, EDBT 2021).
//!
//! The system predicts whether a news topic becomes viral on social
//! media: it extracts news topics (NMF over normalized TF-IDF),
//! detects news and Twitter events (MABED), correlates them through
//! averaged word-embedding cosine similarity, engineers features from
//! event-scoped tweet embeddings plus author/day metadata, and trains
//! MLP/CNN classifiers to predict likes and retweets buckets.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable module names. See `DESIGN.md` for the architecture map and
//! `EXPERIMENTS.md` for the paper-vs-measured reproduction record.
//!
//! ```no_run
//! use newsdiff::core::pipeline::{Pipeline, PipelineConfig};
//!
//! // A scaled-down end-to-end run (takes a few seconds in release).
//! let output = Pipeline::new(PipelineConfig::small()).run().unwrap();
//! assert!(!output.trending.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Dense linear algebra (matrices, SVD, statistics, seeded RNG).
pub use nd_linalg as linalg;

/// Text preprocessing (tokenizer, lemmatizer, NER, the paper's three
/// pipelines).
pub use nd_text as text;

/// Document vectorization (vocabulary, CSR matrices, TF-IDF family).
pub use nd_vectorize as vectorize;

/// Topic models (NMF, LDA, LSA, PLSI, coherence metrics).
pub use nd_topics as topics;

/// Event detection (time slicing, MABED).
pub use nd_events as events;

/// Embeddings (Word2Vec, Doc2Vec, averaged document embeddings).
pub use nd_embed as embed;

/// Neural networks (layers, losses, optimizers, training, metrics).
pub use nd_neural as neural;

/// Temporal audience-pattern mining (PrefixSpan, co-occurrence,
/// categorized pattern catalogs).
pub use nd_patterns as patterns;

/// Embedded document store (collections, filters, indexes, WAL).
pub use nd_store as store;

/// Synthetic world model (topics, events, users, engagement, APIs).
pub use nd_synth as synth;

/// Online prediction service (HTTP API, micro-batching, hot model
/// swap, backpressure).
pub use nd_serve as serve;

/// The assembled paper architecture (Figure 1) and experiment
/// utilities.
pub use nd_core as core;
