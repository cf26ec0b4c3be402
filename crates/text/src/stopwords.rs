//! English stopword list.
//!
//! The NewsTM pipeline (paper §4.2) removes stopwords "because they do
//! not add any information gain". The list below is the standard
//! English function-word inventory (determiners, pronouns, auxiliaries,
//! prepositions, conjunctions, common adverbs) plus the contracted
//! forms the tokenizer keeps whole.

use std::collections::HashSet;
use std::sync::OnceLock;

/// The raw stopword inventory. Kept sorted for readability; membership
/// checks go through the hashed set in [`is_stopword`].
pub const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "ain't", "all", "also", "am", "an",
    "and", "any", "are", "aren't", "as", "at", "be", "because", "been", "before", "being",
    "below", "between", "both", "but", "by", "can", "can't", "cannot", "could", "couldn't",
    "did", "didn't", "do", "does", "doesn't", "doing", "don't", "down", "during", "each",
    "few", "for", "from", "further", "had", "hadn't", "has", "hasn't", "have", "haven't",
    "having", "he", "he'd", "he'll", "he's", "her", "here", "here's", "hers", "herself",
    "him", "himself", "his", "how", "how's", "i", "i'd", "i'll", "i'm", "i've", "if", "in",
    "into", "is", "isn't", "it", "it's", "its", "itself", "just", "let's", "me", "more",
    "most", "mustn't", "my", "myself", "no", "nor", "not", "now", "of", "off", "on", "once",
    "only", "or", "other", "ought", "our", "ours", "ourselves", "out", "over", "own", "same",
    "shan't", "she", "she'd", "she'll", "she's", "should", "shouldn't", "so", "some", "such",
    "than", "that", "that's", "the", "their", "theirs", "them", "themselves", "then",
    "there", "there's", "these", "they", "they'd", "they'll", "they're", "they've", "this",
    "those", "through", "to", "too", "under", "until", "up", "very", "was", "wasn't", "we",
    "we'd", "we'll", "we're", "we've", "were", "weren't", "what", "what's", "when",
    "when's", "where", "where's", "which", "while", "who", "who's", "whom", "why", "why's",
    "will", "with", "won't", "would", "wouldn't", "you", "you'd", "you'll", "you're",
    "you've", "your", "yours", "yourself", "yourselves",
];

fn set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// Case-insensitive stopword membership test.
pub fn is_stopword(word: &str) -> bool {
    if set().contains(word) {
        return true;
    }
    // Avoid allocating for the common already-lowercase case.
    if word.chars().any(|c| c.is_uppercase()) {
        set().contains(word.to_lowercase().as_str())
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "is", "and", "of", "to", "don't", "you're"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["brexit", "tariff", "election", "huawei", "derby"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn case_insensitive() {
        assert!(is_stopword("The"));
        assert!(is_stopword("AND"));
        assert!(!is_stopword("Brexit"));
    }

    #[test]
    fn list_has_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert!(seen.insert(w), "duplicate stopword {w}");
        }
    }

    #[test]
    fn list_is_all_lowercase() {
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase());
        }
    }
}
