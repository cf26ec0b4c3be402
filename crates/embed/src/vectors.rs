//! Word-vector lookup table.

use nd_linalg::vecops::cosine;
use std::collections::HashMap;

/// A trained word-embedding table: `word → dense vector`.
///
/// This is the only interface the rest of the pipeline sees — whether
/// the vectors came from our Word2Vec trainer or anywhere else.
#[derive(Debug, Clone)]
pub struct WordVectors {
    dim: usize,
    index: HashMap<String, usize>,
    /// Words in row order — the insertion order, kept alongside the
    /// hash index so [`WordVectors::iter`] is deterministic without
    /// giving up O(1) lookup.
    words: Vec<String>,
    /// Flat row-major storage, one row per word.
    data: Vec<f64>,
}

impl WordVectors {
    /// Creates an empty table of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        WordVectors { dim, index: HashMap::new(), words: Vec::new(), data: Vec::new() }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of words in the table.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when the table contains no words.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts (or replaces) a word's vector.
    ///
    /// # Panics
    /// Panics when `vector.len() != dim` — table construction is
    /// internal code, a mismatch is a logic error.
    pub fn insert(&mut self, word: impl Into<String>, vector: &[f64]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let word = word.into();
        match self.index.get(&word) {
            Some(&row) => {
                self.data[row * self.dim..(row + 1) * self.dim].copy_from_slice(vector);
            }
            None => {
                let row = self.index.len();
                self.index.insert(word.clone(), row);
                self.words.push(word);
                self.data.extend_from_slice(vector);
            }
        }
    }

    /// The vector for `word`, if present.
    pub fn get(&self, word: &str) -> Option<&[f64]> {
        self.index.get(word).map(|&row| &self.data[row * self.dim..(row + 1) * self.dim])
    }

    /// `true` when `word` is in the vocabulary.
    pub fn contains(&self, word: &str) -> bool {
        self.index.contains_key(word)
    }

    /// Iterator over `(word, vector)` pairs in insertion order —
    /// deterministic, since trainers insert in sorted-vocabulary
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.words
            .iter()
            .enumerate()
            .map(move |(row, w)| (w.as_str(), &self.data[row * self.dim..(row + 1) * self.dim]))
    }

    /// Cosine similarity between two words; `None` if either is
    /// missing.
    pub fn similarity(&self, a: &str, b: &str) -> Option<f64> {
        Some(cosine(self.get(a)?, self.get(b)?))
    }

    /// The `k` nearest words to `word` by cosine similarity
    /// (excluding the word itself); empty when `word` is unknown.
    pub fn most_similar(&self, word: &str, k: usize) -> Vec<(String, f64)> {
        let Some(target) = self.get(word) else {
            return Vec::new();
        };
        let mut scored: Vec<(String, f64)> = self
            .iter()
            .filter(|(w, _)| *w != word)
            .map(|(w, v)| (w.to_string(), cosine(target, v)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    /// Removes the common component: subtracts the mean vector from
    /// every entry ("all-but-the-top", Mu & Viswanath 2018).
    ///
    /// Word2Vec tables trained on topical corpora develop a large
    /// shared direction (everything co-occurs with function words);
    /// without centering, cosine similarity between *any* two averaged
    /// document embeddings saturates near 1 and the correlation
    /// thresholds of the paper (0.7 / 0.65) stop discriminating.
    pub fn center(&mut self) {
        let n = self.index.len();
        if n == 0 {
            return;
        }
        let mut mean = vec![0.0; self.dim];
        for row in 0..n {
            for (m, &v) in mean.iter_mut().zip(&self.data[row * self.dim..(row + 1) * self.dim]) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        for row in 0..n {
            for (v, &m) in self.data[row * self.dim..(row + 1) * self.dim]
                .iter_mut()
                .zip(&mean)
            {
                *v -= m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> WordVectors {
        let mut wv = WordVectors::new(3);
        wv.insert("a", &[1.0, 0.0, 0.0]);
        wv.insert("b", &[0.9, 0.1, 0.0]);
        wv.insert("c", &[0.0, 0.0, 1.0]);
        wv
    }

    #[test]
    fn insert_get_roundtrip() {
        let wv = table();
        assert_eq!(wv.len(), 3);
        assert_eq!(wv.get("a"), Some(&[1.0, 0.0, 0.0][..]));
        assert_eq!(wv.get("missing"), None);
        assert!(wv.contains("b"));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut wv = table();
        wv.insert("a", &[0.0, 1.0, 0.0]);
        assert_eq!(wv.len(), 3);
        assert_eq!(wv.get("a"), Some(&[0.0, 1.0, 0.0][..]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut wv = WordVectors::new(3);
        wv.insert("x", &[1.0]);
    }

    #[test]
    fn similarity_and_neighbors() {
        let wv = table();
        let sim_ab = wv.similarity("a", "b").unwrap();
        let sim_ac = wv.similarity("a", "c").unwrap();
        assert!(sim_ab > sim_ac);
        assert_eq!(wv.similarity("a", "zzz"), None);

        let near = wv.most_similar("a", 1);
        assert_eq!(near[0].0, "b");
        assert!(wv.most_similar("zzz", 3).is_empty());
    }

    #[test]
    fn center_removes_mean() {
        let mut wv = table();
        wv.center();
        let dim = wv.dim();
        let mut mean = vec![0.0; dim];
        for (_, v) in wv.iter() {
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mean {
            assert!((m / wv.len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn center_empty_table_safe() {
        let mut wv = WordVectors::new(4);
        wv.center();
        assert!(wv.is_empty());
    }
}
