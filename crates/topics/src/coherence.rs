//! Topic-coherence metric.
//!
//! Used by the `ablation_topics` bench to compare NMF / LDA / LSA /
//! PLSI quantitatively, mirroring the short-text topic-mining
//! comparison the paper cites (Chen et al. 2019).
//!
//! **UMass coherence** (Mimno et al. 2011): sum of
//! `log((D(wi, wj) + 1) / D(wj))` over ordered keyword pairs —
//! intrinsic, uses the training corpus itself. Higher is better.

use std::collections::{HashMap, HashSet};

/// Document-frequency statistics needed by the coherence measures.
#[derive(Debug, Clone)]
pub struct CoherenceStats {
    doc_freq: HashMap<String, usize>,
    pair_freq: HashMap<(String, String), usize>,
}

impl CoherenceStats {
    /// Precomputes document and co-document frequencies for the given
    /// keyword universe over a tokenized corpus. Only pairs of words in
    /// `keywords` are counted, keeping the pair table small.
    pub fn compute(docs: &[Vec<String>], keywords: &HashSet<String>) -> Self {
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        let mut pair_freq: HashMap<(String, String), usize> = HashMap::new();
        for doc in docs {
            // sort+dedup instead of a HashSet round-trip: same unique
            // set, no arbitrary-order intermediate.
            let present: Vec<&String> = {
                let mut v: Vec<&String> =
                    doc.iter().filter(|t| keywords.contains(*t)).collect();
                v.sort();
                v.dedup();
                v
            };
            for w in &present {
                *doc_freq.entry((*w).clone()).or_insert(0) += 1;
            }
            for i in 0..present.len() {
                for j in (i + 1)..present.len() {
                    let key = (present[i].clone(), present[j].clone());
                    *pair_freq.entry(key).or_insert(0) += 1;
                }
            }
        }
        CoherenceStats { doc_freq, pair_freq }
    }

    fn df(&self, w: &str) -> usize {
        self.doc_freq.get(w).copied().unwrap_or(0)
    }

    fn co_df(&self, a: &str, b: &str) -> usize {
        let key = if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        };
        self.pair_freq.get(&key).copied().unwrap_or(0)
    }

    /// UMass coherence of one topic's keyword list.
    pub fn umass(&self, keywords: &[String]) -> f64 {
        let mut score = 0.0;
        let mut pairs = 0usize;
        for i in 1..keywords.len() {
            for j in 0..i {
                let dj = self.df(&keywords[j]);
                if dj == 0 {
                    continue;
                }
                let co = self.co_df(&keywords[i], &keywords[j]);
                score += ((co as f64 + 1.0) / dj as f64).ln();
                pairs += 1;
            }
        }
        if pairs == 0 {
            0.0
        } else {
            score / pairs as f64
        }
    }
}

/// Mean UMass coherence over a whole model's topics.
pub fn mean_umass(docs: &[Vec<String>], topics: &[crate::model::Topic]) -> f64 {
    let keywords: HashSet<String> =
        topics.iter().flat_map(|t| t.keywords.iter().cloned()).collect();
    let stats = CoherenceStats::compute(docs, &keywords);
    if topics.is_empty() {
        return 0.0;
    }
    // nd-lint: allow(fp-reduction-order) — serial sum over topics in model order.
    topics.iter().map(|t| stats.umass(&t.keywords)).sum::<f64>() / topics.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<String>> {
        let to_vec = |s: &str| s.split_whitespace().map(str::to_string).collect();
        vec![
            to_vec("brexit vote party"),
            to_vec("brexit vote"),
            to_vec("brexit party"),
            to_vec("tariff trade"),
            to_vec("tariff trade china"),
            to_vec("derby horse"),
        ]
    }

    fn all_keywords() -> HashSet<String> {
        ["brexit", "vote", "party", "tariff", "trade", "china", "derby", "horse"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn coherent_topic_scores_higher_than_random_mix() {
        let stats = CoherenceStats::compute(&corpus(), &all_keywords());
        let coherent: Vec<String> =
            ["brexit", "vote", "party"].iter().map(|s| s.to_string()).collect();
        let mixed: Vec<String> =
            ["brexit", "tariff", "horse"].iter().map(|s| s.to_string()).collect();
        assert!(
            stats.umass(&coherent) > stats.umass(&mixed),
            "umass coherent {} vs mixed {}",
            stats.umass(&coherent),
            stats.umass(&mixed)
        );
    }

    #[test]
    fn frequencies_correct() {
        let stats = CoherenceStats::compute(&corpus(), &all_keywords());
        assert_eq!(stats.df("brexit"), 3);
        assert_eq!(stats.df("vote"), 2);
        assert_eq!(stats.co_df("brexit", "vote"), 2);
        assert_eq!(stats.co_df("vote", "brexit"), 2, "pair lookup must be symmetric");
        assert_eq!(stats.co_df("brexit", "horse"), 0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let stats = CoherenceStats::compute(&[], &all_keywords());
        assert_eq!(stats.umass(&[]), 0.0);
    }

    #[test]
    fn unknown_keywords_skipped() {
        let stats = CoherenceStats::compute(&corpus(), &all_keywords());
        let kws: Vec<String> = ["unknown1", "unknown2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(stats.umass(&kws), 0.0);
    }

    #[test]
    fn mean_umass_over_topics() {
        use crate::model::Topic;
        let topics = vec![
            Topic {
                id: 0,
                keywords: ["brexit", "vote"].iter().map(|s| s.to_string()).collect(),
                weights: vec![1.0, 0.5],
            },
            Topic {
                id: 1,
                keywords: ["tariff", "trade"].iter().map(|s| s.to_string()).collect(),
                weights: vec![1.0, 0.5],
            },
        ];
        let m = mean_umass(&corpus(), &topics);
        assert!(m.is_finite());
        assert!(m > -5.0);
    }
}
