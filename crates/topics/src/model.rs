//! Common output type for all topic-model algorithms.

use nd_linalg::Mat;
use nd_vectorize::Vocabulary;

/// A single extracted topic: ranked keywords with weights.
#[derive(Debug, Clone)]
pub struct Topic {
    /// Topic index within the model.
    pub id: usize,
    /// Top keywords, descending by weight.
    pub keywords: Vec<String>,
    /// Weights parallel to `keywords`.
    pub weights: Vec<f64>,
}

/// The result of fitting any topic model: the factor matrices and the
/// vocabulary used to decode term indices.
#[derive(Debug, Clone)]
pub struct TopicModel {
    /// Document-topic memberships `W` (`n_docs x k`).
    pub doc_topic: Mat,
    /// Topic-term importances `H` (`k x n_terms`).
    pub topic_term: Mat,
    /// Vocabulary decoding term columns.
    pub vocab: Vocabulary,
    /// Final objective value (algorithm-specific: Frobenius error for
    /// NMF/LSA, negative log-likelihood for LDA/PLSI).
    pub objective: f64,
    /// Iterations actually performed.
    pub iterations: usize,
}

impl TopicModel {
    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.topic_term.rows()
    }

    /// Extracts topic `t` with its `top_n` keywords.
    ///
    /// Returns `None` when `t` is out of range.
    pub fn topic(&self, t: usize, top_n: usize) -> Option<Topic> {
        if t >= self.n_topics() {
            return None;
        }
        let idx = self.topic_term.row_top_k(t, top_n);
        let keywords = idx
            .iter()
            .filter_map(|&j| self.vocab.term(j).map(str::to_string))
            .collect();
        let weights = idx.iter().map(|&j| self.topic_term.get(t, j)).collect();
        Some(Topic { id: t, keywords, weights })
    }

    /// All topics with `top_n` keywords each.
    pub fn topics(&self, top_n: usize) -> Vec<Topic> {
        (0..self.n_topics()).filter_map(|t| self.topic(t, top_n)).collect()
    }

    /// The dominant topic of document `d`, or `None` when the document
    /// has zero membership everywhere (e.g. it was fully pruned).
    pub fn dominant_topic(&self, d: usize) -> Option<usize> {
        let row = self.doc_topic.row(d);
        let best = nd_linalg::vecops::argmax(row)?;
        (row[best] > 0.0).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TopicModel {
        let mut vocab = Vocabulary::new();
        for t in ["brexit", "vote", "tariff", "trade"] {
            vocab.intern(t);
        }
        TopicModel {
            doc_topic: Mat::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.0, 0.0]).unwrap(),
            topic_term: Mat::from_vec(
                2,
                4,
                vec![
                    0.7, 0.3, 0.0, 0.0, // topic 0: brexit vote
                    0.0, 0.1, 0.6, 0.3, // topic 1: tariff trade
                ],
            )
            .unwrap(),
            vocab,
            objective: 0.0,
            iterations: 1,
        }
    }

    #[test]
    fn topic_keywords_ranked() {
        let m = tiny_model();
        let t0 = m.topic(0, 2).unwrap();
        assert_eq!(t0.keywords, vec!["brexit", "vote"]);
        assert!(t0.weights[0] >= t0.weights[1]);
        let t1 = m.topic(1, 2).unwrap();
        assert_eq!(t1.keywords, vec!["tariff", "trade"]);
    }

    #[test]
    fn topic_out_of_range() {
        assert!(tiny_model().topic(5, 3).is_none());
    }

    #[test]
    fn dominant_topic_assignment() {
        let m = tiny_model();
        assert_eq!(m.dominant_topic(0), Some(0));
        assert_eq!(m.dominant_topic(1), Some(1));
        assert_eq!(m.dominant_topic(2), None, "all-zero row has no dominant topic");
    }

    #[test]
    fn topics_returns_all() {
        let m = tiny_model();
        assert_eq!(m.topics(3).len(), 2);
    }
}
