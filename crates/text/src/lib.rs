//! # nd-text
//!
//! Text preprocessing for the `newsdiff` workspace — the SpaCy
//! substitute described in DESIGN.md §1.
//!
//! The paper (§4.2) builds three corpora with two distinct pipelines:
//!
//! * **NewsTM** (news articles, for topic modeling): extract named
//!   entities as single concepts, lemmatize, drop punctuation and
//!   stopwords.
//! * **NewsED / TwitterED** (for MABED event detection): drop
//!   punctuation, tokenize — deliberately minimal, replicating the
//!   original MABED preprocessing.
//!
//! This crate provides those pipelines ([`pipeline`]) and the pieces
//! they are built from: a social-media-aware [`tokenizer`], a
//! rule-plus-exception English [`lemmatizer`], a standard English
//! [stopword list](stopwords), and a heuristic capitalized-span
//! [named-entity recognizer](ner).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lemmatizer;
pub mod ner;
pub mod pipeline;
pub mod sentence;
pub mod stopwords;
pub mod tokenizer;

pub use lemmatizer::lemmatize;
pub use ner::extract_entities;
pub use pipeline::{preprocess_event_detection, preprocess_topic_modeling};
pub use stopwords::is_stopword;
pub use tokenizer::{tokenize, Token, TokenKind};
