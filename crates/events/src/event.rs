//! The event type produced by MABED.

/// A detected event: main word (label), weighted related words, and
/// the period of interest (paper §4.4).
#[derive(Debug, Clone)]
pub struct Event {
    /// The main word — the event's label.
    pub main_word: String,
    /// Related words with their Eq. (9) weights, descending by weight.
    pub related: Vec<(String, f64)>,
    /// Event start (unix seconds, inclusive).
    pub start: u64,
    /// Event end (unix seconds, exclusive).
    pub end: u64,
    /// Magnitude of impact — the summed anomaly over the period; the
    /// score events are ranked by.
    pub magnitude: f64,
    /// Number of documents that fall in the period and contain the
    /// main word.
    pub n_docs: usize,
}

impl Event {
    /// All event terms: main word first, then related words.
    pub fn all_terms(&self) -> Vec<String> {
        let mut v = Vec::with_capacity(1 + self.related.len());
        v.push(self.main_word.clone());
        v.extend(self.related.iter().map(|(w, _)| w.clone()));
        v
    }

    /// `true` when `ts` falls inside the event period.
    pub fn contains_time(&self, ts: u64) -> bool {
        ts >= self.start && ts < self.end
    }

    /// The paper's tweet-membership rule (§4.7): the document was
    /// posted during the event period, contains the main word, and
    /// contains at least `related_fraction` (default 0.2 in the paper)
    /// of the related words.
    pub fn matches_document(&self, ts: u64, tokens: &[String], related_fraction: f64) -> bool {
        if !self.contains_time(ts) {
            return false;
        }
        if !tokens.contains(&self.main_word) {
            return false;
        }
        if self.related.is_empty() {
            return true;
        }
        let needed = (related_fraction * self.related.len() as f64).ceil() as usize;
        let hits = self
            .related
            .iter()
            .filter(|(w, _)| tokens.iter().any(|t| t == w))
            .count();
        hits >= needed.max(1).min(self.related.len())
    }

    /// Fraction of overlap between this event's period and another's,
    /// relative to the shorter period. Used by redundancy merging.
    pub fn period_overlap(&self, other: &Event) -> f64 {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if hi <= lo {
            return 0.0;
        }
        let overlap = (hi - lo) as f64;
        let len_a = (self.end - self.start) as f64;
        let len_b = (other.end - other.start) as f64;
        overlap / len_a.min(len_b).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> Event {
        Event {
            main_word: "brexit".into(),
            related: vec![
                ("vote".into(), 0.9),
                ("party".into(), 0.85),
                ("election".into(), 0.8),
                ("poll".into(), 0.75),
                ("seat".into(), 0.72),
            ],
            start: 1000,
            end: 2000,
            magnitude: 50.0,
            n_docs: 42,
        }
    }

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_terms_main_word_first() {
        let e = event();
        assert_eq!(e.all_terms()[0], "brexit");
        assert_eq!(e.all_terms().len(), 6);
    }

    #[test]
    fn contains_time_bounds() {
        let e = event();
        assert!(e.contains_time(1000));
        assert!(e.contains_time(1999));
        assert!(!e.contains_time(2000));
        assert!(!e.contains_time(999));
    }

    #[test]
    fn matches_document_rule() {
        let e = event();
        // In window, main word + 1 of 5 related (20%) -> match.
        assert!(e.matches_document(1500, &toks(&["brexit", "vote", "noise"]), 0.2));
        // Missing main word -> no match even with related words.
        assert!(!e.matches_document(1500, &toks(&["vote", "party", "election"]), 0.2));
        // Out of window -> no match.
        assert!(!e.matches_document(5000, &toks(&["brexit", "vote"]), 0.2));
        // Main word but zero related words -> below 20% threshold.
        assert!(!e.matches_document(1500, &toks(&["brexit", "noise"]), 0.2));
    }

    #[test]
    fn matches_document_higher_fraction() {
        let e = event();
        let t = toks(&["brexit", "vote", "party"]);
        assert!(e.matches_document(1500, &t, 0.4)); // needs 2 of 5
        assert!(!e.matches_document(1500, &t, 0.8)); // needs 4 of 5
    }

    #[test]
    fn no_related_words_only_main_required() {
        let mut e = event();
        e.related.clear();
        assert!(e.matches_document(1500, &toks(&["brexit"]), 0.2));
    }

    #[test]
    fn period_overlap_values() {
        let a = event();
        let mut b = event();
        // Identical periods -> 1.0
        assert!((a.period_overlap(&b) - 1.0).abs() < 1e-12);
        // Disjoint -> 0.0
        b.start = 3000;
        b.end = 4000;
        assert_eq!(a.period_overlap(&b), 0.0);
        // Half overlap relative to shorter.
        b.start = 1500;
        b.end = 2500;
        assert!((a.period_overlap(&b) - 0.5).abs() < 1e-12);
    }
}
