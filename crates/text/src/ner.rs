//! Heuristic named-entity recognition.
//!
//! The NewsTM pipeline (paper §4.2) extracts named entities "to treat
//! them as concepts and not as simple terms". Without SpaCy, we use
//! the classic capitalized-span heuristic: maximal runs of capitalized
//! words (allowing internal connectors like "of" inside a run) are
//! entity candidates, except at sentence starts where capitalization
//! is uninformative unless the word also appears capitalized mid-
//! sentence elsewhere or is in the gazetteer.
//!
//! Multi-word entities are normalized by joining with `_`
//! (`"New York" → "new_york"`) so downstream vectorizers treat them as
//! single vocabulary items — exactly the "concept" behaviour the paper
//! wants.

use crate::sentence::split_sentences;
use crate::tokenizer::{tokenize, TokenKind};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Connector words allowed *inside* a capitalized run
/// ("Department of Justice").
const CONNECTORS: &[&str] = &["of", "the", "for", "and", "de", "la", "al"];

/// A small gazetteer of entities that may appear lowercase-ambiguous or
/// sentence-initial in news text. Users can extend it via
/// [`EntityExtractor::with_gazetteer`].
const DEFAULT_GAZETTEER: &[&str] = &[
    "brexit", "twitter", "huawei", "google", "iran", "israel", "gaza", "japan", "china",
    "alabama", "kentucky", "manchester", "washington", "congress", "senate", "tehran",
    "jerusalem", "tokyo", "reuters", "facebook", "whatsapp", "android", "eu",
];

/// Configurable entity extractor.
#[derive(Debug, Clone)]
pub struct EntityExtractor {
    gazetteer: HashSet<String>,
}

impl Default for EntityExtractor {
    fn default() -> Self {
        EntityExtractor {
            gazetteer: DEFAULT_GAZETTEER.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl EntityExtractor {
    /// Extractor with the built-in news gazetteer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds extra gazetteer entries (case-insensitive).
    pub fn with_gazetteer<I: IntoIterator<Item = S>, S: Into<String>>(mut self, extra: I) -> Self {
        self.gazetteer.extend(extra.into_iter().map(|s| s.into().to_lowercase()));
        self
    }

    /// Extracts entity spans from `text`, returned in normalized form
    /// (lowercase, multi-word joined by `_`), in order of appearance
    /// and deduplicated.
    pub fn extract(&self, text: &str) -> Vec<String> {
        // Each sentence's word tokens as (surface, lowercase) pairs,
        // tokenized once and shared by both passes.
        let sentences: Vec<Vec<(String, String)>> = split_sentences(text)
            .iter()
            .map(|sent| {
                tokenize(sent)
                    .into_iter()
                    .filter(|t| t.kind == TokenKind::Word)
                    .map(|t| {
                        let lower = t.lower();
                        (t.text, lower)
                    })
                    .collect()
            })
            .collect();

        // Pass 1: collect words seen capitalized mid-sentence, so that
        // sentence-initial capitals can be validated.
        let mut midsentence_caps: HashSet<&str> = HashSet::new();
        for words in &sentences {
            for (surface, lower) in words.iter().skip(1) {
                if starts_upper(surface) {
                    midsentence_caps.insert(lower);
                }
            }
        }

        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for words in &sentences {
            let mut i = 0;
            while i < words.len() {
                let (surface, lower) = &words[i];
                let cap = starts_upper(surface);
                let confirm = i > 0
                    || midsentence_caps.contains(lower.as_str())
                    || self.gazetteer.contains(lower);
                if cap && confirm {
                    // Extend the run.
                    let mut j = i + 1;
                    let mut last_cap = i;
                    while j < words.len() {
                        if starts_upper(&words[j].0) {
                            last_cap = j;
                            j += 1;
                        } else if CONNECTORS.contains(&words[j].1.as_str())
                            && j + 1 < words.len()
                            && starts_upper(&words[j + 1].0)
                        {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    let span: Vec<&str> =
                        words[i..=last_cap].iter().map(|(_, l)| l.as_str()).collect();
                    // Single stopword-like capitals ("The") are not entities.
                    let is_entity = span.len() > 1
                        || (!crate::stopwords::is_stopword(span[0])
                            && span[0].chars().count() > 1);
                    if is_entity {
                        let norm = span.join("_");
                        if seen.insert(norm.clone()) {
                            out.push(norm);
                        }
                    }
                    i = last_cap + 1;
                } else {
                    // Gazetteer hit on a lowercase word.
                    if self.gazetteer.contains(lower) && seen.insert(lower.clone()) {
                        out.push(lower.clone());
                    }
                    i += 1;
                }
            }
        }
        out
    }
}

/// The default extractor, built once and shared by every document the
/// pipelines process.
pub(crate) fn default_extractor() -> &'static EntityExtractor {
    static DEFAULT: OnceLock<EntityExtractor> = OnceLock::new();
    DEFAULT.get_or_init(EntityExtractor::default)
}

fn starts_upper(w: &str) -> bool {
    w.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Extracts entities with the default extractor. See [`EntityExtractor`].
pub fn extract_entities(text: &str) -> Vec<String> {
    default_extractor().extract(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiword_entity_joined() {
        let e = extract_entities("Protesters gathered in New York yesterday.");
        assert!(e.contains(&"new_york".to_string()), "{e:?}");
    }

    #[test]
    fn connector_inside_entity() {
        let e = extract_entities("A ruling by the Department of Justice was issued.");
        assert!(e.contains(&"department_of_justice".to_string()), "{e:?}");
    }

    #[test]
    fn sentence_initial_capital_ignored_without_evidence() {
        let e = extract_entities("Yesterday the markets fell sharply.");
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn sentence_initial_entity_confirmed_by_midsentence_use() {
        let text = "Huawei faces a ban. The ban on Huawei starts today.";
        let e = extract_entities(text);
        assert!(e.contains(&"huawei".to_string()), "{e:?}");
    }

    #[test]
    fn gazetteer_confirms_sentence_initial() {
        let e = extract_entities("Brexit talks resumed this morning.");
        assert!(e.contains(&"brexit".to_string()), "{e:?}");
    }

    #[test]
    fn person_names() {
        let e = extract_entities("Speaker Nancy Pelosi opened the impeachment inquiry.");
        assert!(e.iter().any(|x| x.contains("nancy_pelosi")), "{e:?}");
    }

    #[test]
    fn deduplication_keeps_first_occurrence() {
        let e = extract_entities("Iran issued a warning. Later Iran repeated it.");
        assert_eq!(e.iter().filter(|x| x.as_str() == "iran").count(), 1);
    }

    #[test]
    fn custom_gazetteer() {
        let ex = EntityExtractor::new().with_gazetteer(["ronews"]);
        let e = ex.extract("ronews launched a new product.");
        assert!(e.contains(&"ronews".to_string()));
    }

    #[test]
    fn the_alone_is_not_entity() {
        let e = extract_entities("He said. The end came quickly.");
        assert!(!e.contains(&"the".to_string()), "{e:?}");
    }

    #[test]
    fn empty_text() {
        assert!(extract_entities("").is_empty());
    }
}
