//! The paper's three preprocessing pipelines (§4.2).
//!
//! * [`preprocess_topic_modeling`] — the **NewsTM** pipeline:
//!   1. extract named entities and treat them as single concepts,
//!   2. lemmatize the remaining words,
//!   3. drop punctuation and stopwords.
//! * [`preprocess_event_detection`] — the **NewsED / TwitterED**
//!   pipeline: drop punctuation, tokenize (lowercase). Deliberately
//!   minimal to replicate the original MABED preprocessing.

use crate::lemmatizer::lemmatize;
use crate::ner::{default_extractor, EntityExtractor};
use crate::stopwords::is_stopword;
use crate::tokenizer::{tokenize, TokenKind};
use std::collections::HashSet;

/// NewsTM pipeline: entities-as-concepts + lemmas, stopwords and
/// punctuation removed. Returns the processed token stream.
pub fn preprocess_topic_modeling(text: &str) -> Vec<String> {
    preprocess_topic_modeling_with(default_extractor(), text)
}

/// [`preprocess_topic_modeling`] with a caller-supplied entity
/// extractor (e.g. one with a domain gazetteer).
pub fn preprocess_topic_modeling_with(extractor: &EntityExtractor, text: &str) -> Vec<String> {
    let entities = extractor.extract(text);
    // Words consumed by multi-word entities should not re-appear as
    // single terms; single-word entities replace their plain form.
    let entity_parts: HashSet<&str> = entities.iter().flat_map(|e| e.split('_')).collect();

    let mut out = Vec::new();
    let mut emitted_entities: HashSet<&str> = HashSet::new();

    for tok in tokenize(text) {
        match tok.kind {
            TokenKind::Word => {
                let lower = tok.lower();
                if entity_parts.contains(lower.as_str()) {
                    // Emit the next not-yet-emitted entity the first
                    // time one of its parts is reached; subsequent
                    // parts of the same entity are skipped.
                    if let Some(ent) =
                        entities.iter().find(|e| e.split('_').any(|p| p == lower))
                    {
                        if emitted_entities.insert(ent.as_str()) {
                            out.push(ent.clone());
                        }
                        continue;
                    }
                }
                if is_stopword(&lower) {
                    continue;
                }
                let lemma = lemmatize(&lower);
                if !is_stopword(&lemma) && !lemma.is_empty() {
                    out.push(lemma);
                }
            }
            TokenKind::Hashtag => {
                let tag = tok.text[1..].to_lowercase();
                if !tag.is_empty() && !is_stopword(&tag) {
                    out.push(lemmatize(&tag));
                }
            }
            TokenKind::Number => out.push(tok.text),
            // punctuation, urls, mentions, emoticons: dropped for TM
            _ => {}
        }
    }
    out
}

/// NewsED / TwitterED pipeline: punctuation removal + tokenization,
/// lowercased. URLs, emoticons and `@mentions` are dropped from the
/// token stream — MABED consumes mentions only through their *count*
/// (see [`count_mentions`]), exactly like the original pyMABED
/// preprocessing. Hashtags keep their tag text.
pub fn preprocess_event_detection(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|t| match t.kind {
            TokenKind::Word | TokenKind::Number => Some(t.lower()),
            TokenKind::Hashtag => Some(t.text[1..].to_lowercase()),
            TokenKind::Mention | TokenKind::Url | TokenKind::Punct | TokenKind::Emoticon => {
                None
            }
        })
        .filter(|t| !t.is_empty())
        .collect()
}

/// Counts `@mentions` in a tweet — the signal MABED's anomaly measure
/// is built on.
pub fn count_mentions(text: &str) -> usize {
    tokenize(text).iter().filter(|t| t.kind == TokenKind::Mention).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tm_pipeline_removes_stopwords_and_punct() {
        let toks = preprocess_topic_modeling("The tariffs were imposed, and markets fell!");
        assert!(!toks.iter().any(|t| t == "the" || t == "and" || t == ","));
        assert!(toks.contains(&"tariff".to_string()));
        assert!(toks.contains(&"impose".to_string()));
        assert!(toks.contains(&"market".to_string()));
        assert!(toks.contains(&"fall".to_string()));
    }

    #[test]
    fn tm_pipeline_entities_as_concepts() {
        let toks =
            preprocess_topic_modeling("Leaders met in New York. New York hosted the summit.");
        assert!(toks.contains(&"new_york".to_string()), "{toks:?}");
        // The parts must not appear as separate terms.
        assert!(!toks.contains(&"york".to_string()), "{toks:?}");
    }

    #[test]
    fn tm_pipeline_lemmatizes() {
        let toks = preprocess_topic_modeling("voters voted in elections");
        assert!(toks.contains(&"voter".to_string()));
        assert!(toks.contains(&"vote".to_string()));
        assert!(toks.contains(&"election".to_string()));
    }

    #[test]
    fn ed_pipeline_minimal() {
        let toks = preprocess_event_detection("Big news: tariffs UP 25%! http://t.co/x");
        assert_eq!(toks, vec!["big", "news", "tariffs", "up", "25"]);
    }

    #[test]
    fn ed_pipeline_keeps_stopwords() {
        let toks = preprocess_event_detection("the end of an era");
        assert_eq!(toks, vec!["the", "end", "of", "an", "era"]);
    }

    #[test]
    fn ed_pipeline_drops_mentions_keeps_hashtags() {
        let toks = preprocess_event_detection("@nytimes reports on #Brexit");
        assert_eq!(toks, vec!["reports", "on", "brexit"]);
    }

    #[test]
    fn count_mentions_works() {
        assert_eq!(count_mentions("@a talks to @b about @c"), 3);
        assert_eq!(count_mentions("no mentions here"), 0);
    }

    #[test]
    fn empty_inputs() {
        assert!(preprocess_topic_modeling("").is_empty());
        assert!(preprocess_event_detection("").is_empty());
    }

    #[test]
    fn tm_pipeline_keeps_numbers() {
        let toks = preprocess_topic_modeling("tariffs of 25 percent");
        assert!(toks.contains(&"25".to_string()));
    }
}
