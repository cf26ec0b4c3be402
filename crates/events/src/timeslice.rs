//! Time-slicing of timestamped document streams.
//!
//! MABED operates on per-slice word statistics: the paper uses 60-min
//! slices for news and 30-min slices for tweets (§5.3–5.4).

use std::collections::HashMap;

/// A preprocessed document with its publication timestamp.
#[derive(Debug, Clone)]
pub struct TimestampedDoc {
    /// Unix timestamp (seconds).
    pub timestamp: u64,
    /// Preprocessed tokens (event-detection pipeline output).
    pub tokens: Vec<String>,
    /// Number of `@mentions` in the raw text (0 for news articles).
    pub mentions: usize,
}

impl TimestampedDoc {
    /// Convenience constructor.
    pub fn new(timestamp: u64, tokens: Vec<String>, mentions: usize) -> Self {
        TimestampedDoc { timestamp, tokens, mentions }
    }
}

impl AsRef<[String]> for TimestampedDoc {
    /// A doc *is* its token stream for consumers that only need the
    /// tokens — lets downstream modules borrow corpora in place
    /// instead of re-materializing `Vec<Vec<String>>` copies.
    fn as_ref(&self) -> &[String] {
        &self.tokens
    }
}

/// Per-word, per-slice statistics for one corpus.
///
/// Words are interned: a word's id is its rank in lexicographic order,
/// so ascending id order is word order, and every per-word table is a
/// `Vec` indexed by id.
#[derive(Debug, Clone)]
pub struct SlicedCorpus {
    /// Slice width in seconds.
    pub slice_secs: u64,
    /// Timestamp where slice 0 begins.
    pub origin: u64,
    /// Number of slices.
    pub n_slices: usize,
    /// Total number of documents.
    pub n_docs: usize,
    /// Documents per slice.
    pub docs_per_slice: Vec<u32>,
    /// Distinct words, sorted; index = word id. Downstream event
    /// ranking iterates words in this order and must be bit-stable run
    /// to run.
    words: Vec<String>,
    /// For each word id: per-slice count of documents containing it
    /// (`N_t^i` in the paper), plus the same restricted to documents
    /// with ≥1 mention (`M_t^i`), plus totals.
    stats: Vec<WordStats>,
    /// Document index per slice (indices into the input corpus), used
    /// to gather event keyword candidates.
    slice_docs: Vec<Vec<u32>>,
    /// Word ids of every document, sorted and deduplicated, retained
    /// for co-occurrence lookups.
    doc_words: Vec<Vec<u32>>,
}

/// Per-word statistics.
#[derive(Debug, Clone, Default)]
pub struct WordStats {
    /// Documents containing the word, per slice (`N_t^i`).
    pub presence: Vec<u32>,
    /// Mentioning documents containing the word, per slice (`M_t^i`).
    pub mention: Vec<u32>,
    /// Total documents containing the word.
    pub total_presence: u64,
    /// Total mentioning documents containing the word.
    pub total_mention: u64,
}

impl SlicedCorpus {
    /// Builds slice statistics from documents.
    ///
    /// Empty corpora produce a zero-slice result. Slices cover
    /// `[min_ts, max_ts]` inclusive at `slice_secs` width.
    ///
    /// # Panics
    /// Panics if `slice_secs == 0` (a configuration error).
    pub fn build(docs: &[TimestampedDoc], slice_secs: u64) -> Self {
        assert!(slice_secs > 0, "slice width must be positive");
        if docs.is_empty() {
            return SlicedCorpus {
                slice_secs,
                origin: 0,
                n_slices: 0,
                n_docs: 0,
                docs_per_slice: Vec::new(),
                words: Vec::new(),
                stats: Vec::new(),
                slice_docs: Vec::new(),
                doc_words: Vec::new(),
            };
        }
        let origin = docs.iter().map(|d| d.timestamp).min().expect("non-empty");
        let max_ts = docs.iter().map(|d| d.timestamp).max().expect("non-empty");
        let n_slices = ((max_ts - origin) / slice_secs + 1) as usize;

        // Intern every token under a first-seen id (the map is only
        // probed, never iterated), then renumber by lexicographic rank.
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let mut doc_words: Vec<Vec<u32>> = Vec::with_capacity(docs.len());
        for doc in docs {
            let mut ids = Vec::with_capacity(doc.tokens.len());
            for tok in &doc.tokens {
                let id = *first_seen.entry(tok.as_str()).or_insert_with(|| {
                    distinct.push(tok);
                    (distinct.len() - 1) as u32
                });
                ids.push(id);
            }
            doc_words.push(ids);
        }
        let mut by_word: Vec<u32> = (0..distinct.len() as u32).collect();
        by_word.sort_unstable_by_key(|&id| distinct[id as usize]);
        let mut rank = vec![0u32; distinct.len()];
        for (r, &id) in by_word.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let words: Vec<String> =
            by_word.iter().map(|&id| distinct[id as usize].to_string()).collect();

        let mut docs_per_slice = vec![0u32; n_slices];
        let mut stats = vec![
            WordStats {
                presence: vec![0; n_slices],
                mention: vec![0; n_slices],
                total_presence: 0,
                total_mention: 0,
            };
            words.len()
        ];
        let mut slice_docs: Vec<Vec<u32>> = vec![Vec::new(); n_slices];
        for (doc_id, (doc, ids)) in docs.iter().zip(&mut doc_words).enumerate() {
            let slice = ((doc.timestamp - origin) / slice_secs) as usize;
            docs_per_slice[slice] += 1;
            slice_docs[slice].push(doc_id as u32);
            let has_mention = doc.mentions > 0;

            // Unique words per document.
            for id in ids.iter_mut() {
                *id = rank[*id as usize];
            }
            ids.sort_unstable();
            ids.dedup();
            for &id in ids.iter() {
                let stats = &mut stats[id as usize];
                stats.presence[slice] += 1;
                stats.total_presence += 1;
                if has_mention {
                    stats.mention[slice] += 1;
                    stats.total_mention += 1;
                }
            }
        }

        SlicedCorpus {
            slice_secs,
            origin,
            n_slices,
            n_docs: docs.len(),
            docs_per_slice,
            words,
            stats,
            slice_docs,
            doc_words,
        }
    }

    /// Statistics for `word`, if it occurs in the corpus.
    pub fn word(&self, word: &str) -> Option<&WordStats> {
        self.words.binary_search_by(|w| w.as_str().cmp(word)).ok().map(|id| &self.stats[id])
    }

    /// Iterator over `(word, stats)` pairs in lexicographic word
    /// order (deterministic across runs and platforms), which is also
    /// ascending word-id order.
    pub fn iter_words(&self) -> impl Iterator<Item = (&str, &WordStats)> {
        self.words.iter().map(String::as_str).zip(&self.stats)
    }

    /// Number of distinct words; word ids are `0..n_words()`.
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// The word with id `id`.
    pub fn word_text(&self, id: u32) -> &str {
        &self.words[id as usize]
    }

    /// Statistics of the word with id `id`.
    pub fn word_stats(&self, id: u32) -> &WordStats {
        &self.stats[id as usize]
    }

    /// Document ids falling in slice range `[from, to]` (inclusive).
    pub fn docs_in_slices(&self, from: usize, to: usize) -> Vec<u32> {
        let to = to.min(self.n_slices.saturating_sub(1));
        let mut out = Vec::new();
        for s in from..=to {
            out.extend_from_slice(&self.slice_docs[s]);
        }
        out
    }

    /// Distinct word ids of document `doc_id`, ascending.
    pub fn doc_word_ids(&self, doc_id: u32) -> &[u32] {
        &self.doc_words[doc_id as usize]
    }

    /// Timestamp at which slice `i` begins.
    pub fn slice_start(&self, i: usize) -> u64 {
        self.origin + i as u64 * self.slice_secs
    }

    /// Timestamp at which slice `i` ends (exclusive).
    pub fn slice_end(&self, i: usize) -> u64 {
        self.slice_start(i) + self.slice_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ts: u64, words: &[&str], mentions: usize) -> TimestampedDoc {
        TimestampedDoc::new(ts, words.iter().map(|s| s.to_string()).collect(), mentions)
    }

    #[test]
    fn slices_cover_time_range() {
        let docs = vec![doc(100, &["a"], 0), doc(250, &["b"], 0), doc(399, &["c"], 0)];
        let sc = SlicedCorpus::build(&docs, 100);
        assert_eq!(sc.origin, 100);
        assert_eq!(sc.n_slices, 3);
        assert_eq!(sc.docs_per_slice, vec![1, 1, 1]);
        assert_eq!(sc.slice_start(1), 200);
        assert_eq!(sc.slice_end(1), 300);
    }

    #[test]
    fn word_presence_counts() {
        let docs = vec![
            doc(0, &["brexit", "vote"], 1),
            doc(10, &["brexit"], 0),
            doc(100, &["brexit"], 1),
        ];
        let sc = SlicedCorpus::build(&docs, 100);
        let w = sc.word("brexit").unwrap();
        assert_eq!(w.presence, vec![2, 1]);
        assert_eq!(w.mention, vec![1, 1]);
        assert_eq!(w.total_presence, 3);
        assert_eq!(w.total_mention, 2);
        assert!(sc.word("unknown").is_none());
    }

    #[test]
    fn duplicate_tokens_in_doc_counted_once() {
        let docs = vec![doc(0, &["x", "x", "x"], 0)];
        let sc = SlicedCorpus::build(&docs, 60);
        assert_eq!(sc.word("x").unwrap().total_presence, 1);
    }

    #[test]
    fn docs_in_slices_gathers_range() {
        let docs = vec![doc(0, &["a"], 0), doc(150, &["b"], 0), doc(250, &["c"], 0)];
        let sc = SlicedCorpus::build(&docs, 100);
        assert_eq!(sc.docs_in_slices(0, 1), vec![0, 1]);
        assert_eq!(sc.docs_in_slices(1, 99), vec![1, 2], "range end clamped");
    }

    #[test]
    fn empty_corpus() {
        let sc = SlicedCorpus::build(&[], 60);
        assert_eq!(sc.n_slices, 0);
        assert_eq!(sc.n_docs, 0);
        assert_eq!(sc.n_words(), 0);
    }

    #[test]
    #[should_panic(expected = "slice width")]
    fn zero_slice_width_panics() {
        SlicedCorpus::build(&[], 0);
    }

    #[test]
    fn single_doc_single_slice() {
        let sc = SlicedCorpus::build(&[doc(1_000_000, &["only"], 0)], 1800);
        assert_eq!(sc.n_slices, 1);
        assert_eq!(sc.docs_per_slice, vec![1]);
    }
}
