//! Mention-Anomaly-Based Event Detection (Guille & Favre 2014).
//!
//! For every sufficiently-frequent word `t`:
//!
//! 1. Build the per-slice **anomaly series**
//!    `anomaly_t^i = O_t^i − E_t^i`, where `O_t^i` is the observed
//!    number of engaging documents containing `t` in slice `i`
//!    ("engaging" = carrying a `@mention` in [`AnomalySource::Mentions`]
//!    mode, every document in [`AnomalySource::Presence`] mode), and
//!    `E_t^i = docs_in_slice_i · (total_engaging_t / n_docs)` is the
//!    count expected if `t`'s engagement were uniform over time.
//! 2. Find the contiguous interval `I = [a, b]` maximizing the
//!    **magnitude of impact** `Σ_{i∈I} anomaly_t^i` (Kadane's
//!    maximum-sum subarray), bounded by `max_duration_slices`.
//! 3. Rank words by magnitude; the top words become event **main
//!    words**.
//! 4. For each event, score candidate **related words** (words
//!    co-occurring with the main word inside `I`) with the weight of
//!    paper Eq. (9)–(10) — the Erdem first-order autocorrelation of
//!    the two presence series over `I`, mapped to `[0, 1]` — and keep
//!    those above `theta`.
//! 5. Drop redundant events (same or mutually-related main words with
//!    overlapping periods).

use crate::event::Event;
use crate::timeslice::SlicedCorpus;
use nd_linalg::stats::erdem_weight;

/// Which engagement signal drives the anomaly measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalySource {
    /// Documents containing `@mentions` (original MABED; use for
    /// tweets).
    Mentions,
    /// Every document counts (use for news articles, which carry no
    /// mentions).
    Presence,
}

/// MABED configuration.
#[derive(Debug, Clone)]
pub struct MabedConfig {
    /// Number of events to detect (top-k by magnitude).
    pub n_events: usize,
    /// Maximum related words per event.
    pub max_related: usize,
    /// Related-word weight threshold `theta` ∈ [0, 1].
    pub theta: f64,
    /// Minimum total documents containing a word for it to be a main
    /// word (absolute count).
    pub min_word_docs: u64,
    /// Maximum fraction of the corpus a main word may appear in
    /// (filters ubiquitous terms).
    pub max_word_doc_ratio: f64,
    /// Maximum event duration, in slices (`sigma`); `0` = unbounded.
    pub max_duration_slices: usize,
    /// Engagement signal.
    pub source: AnomalySource,
    /// Period-overlap fraction above which two events with mutually
    /// related main words are merged.
    pub merge_overlap: f64,
    /// Exclude stopwords from main and related words (pyMABED ships a
    /// stopword list and applies exactly this filter; without it the
    /// highest-anomaly "events" are function words whose series track
    /// total volume).
    pub filter_stopwords: bool,
}

impl Default for MabedConfig {
    fn default() -> Self {
        MabedConfig {
            n_events: 10,
            max_related: 10,
            theta: 0.7,
            min_word_docs: 10,
            max_word_doc_ratio: 0.5,
            max_duration_slices: 0,
            source: AnomalySource::Mentions,
            merge_overlap: 0.5,
            filter_stopwords: true,
        }
    }
}

/// The MABED detector.
#[derive(Debug, Clone)]
pub struct Mabed {
    config: MabedConfig,
}

/// A candidate main word (by corpus word id) with its best burst
/// interval.
struct Candidate {
    word: u32,
    magnitude: f64,
    from: usize,
    to: usize,
}

impl Mabed {
    /// Creates a detector with the given configuration.
    pub fn new(config: MabedConfig) -> Self {
        Mabed { config }
    }

    /// Detects the top events in a sliced corpus, ordered by
    /// descending magnitude of impact.
    pub fn detect(&self, corpus: &SlicedCorpus) -> Vec<Event> {
        if corpus.n_slices == 0 || corpus.n_docs == 0 {
            return Vec::new();
        }
        let candidates = self.rank_candidates(corpus);
        let mut events: Vec<Event> = Vec::new();

        for cand in candidates {
            if events.len() >= self.config.n_events {
                break;
            }
            let event = self.build_event(corpus, &cand);
            if self.is_redundant(&event, &events) {
                continue;
            }
            events.push(event);
        }
        events
    }

    /// Computes each eligible word's anomaly series, finds its maximal
    /// burst, and ranks by magnitude.
    fn rank_candidates(&self, corpus: &SlicedCorpus) -> Vec<Candidate> {
        let n_docs = corpus.n_docs as f64;
        let max_docs = (self.config.max_word_doc_ratio * n_docs).ceil() as u64;
        let mut candidates = Vec::new();

        for (id, (word, stats)) in corpus.iter_words().enumerate() {
            if stats.total_presence < self.config.min_word_docs
                || stats.total_presence > max_docs
            {
                continue;
            }
            if self.config.filter_stopwords
                && (nd_text::is_stopword(word) || word.chars().all(|c| c.is_ascii_digit()))
            {
                continue;
            }
            let (observed, total_engaged) = match self.config.source {
                AnomalySource::Mentions => (&stats.mention, stats.total_mention),
                AnomalySource::Presence => (&stats.presence, stats.total_presence),
            };
            if total_engaged == 0 {
                continue;
            }
            let rate = total_engaged as f64 / n_docs;
            // anomaly_i = O_i - N_i * rate
            let anomaly: Vec<f64> = observed
                .iter()
                .zip(&corpus.docs_per_slice)
                .map(|(&o, &n)| o as f64 - n as f64 * rate)
                .collect();
            let (magnitude, from, to) =
                max_sum_interval(&anomaly, self.config.max_duration_slices);
            if magnitude <= 0.0 {
                continue;
            }
            candidates.push(Candidate { word: id as u32, magnitude, from, to });
        }
        // Ids are lexicographic ranks: the tie-break is word order.
        candidates.sort_by(|a, b| {
            b.magnitude
                .partial_cmp(&a.magnitude)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.word.cmp(&b.word))
        });
        candidates
    }

    /// Selects the related words of a candidate event by the Eq. (9)
    /// co-movement weight over the event interval.
    fn build_event(&self, corpus: &SlicedCorpus, cand: &Candidate) -> Event {
        let series = |id: u32| -> Vec<f64> {
            corpus.word_stats(id).presence[cand.from..=cand.to].iter().map(|&v| v as f64).collect()
        };
        let main_series = series(cand.word);

        // Candidate related words: co-occurring with the main word in
        // documents inside the interval, counted by word id.
        let mut cooc = vec![0u32; corpus.n_words()];
        let mut n_docs_with_main = 0usize;
        for doc_id in corpus.docs_in_slices(cand.from, cand.to) {
            let ids = corpus.doc_word_ids(doc_id);
            if ids.binary_search(&cand.word).is_err() {
                continue;
            }
            n_docs_with_main += 1;
            for &id in ids {
                if id != cand.word {
                    cooc[id as usize] += 1;
                }
            }
        }

        // Weight each co-occurring word; require it in at least 10% of
        // the main word's documents to avoid one-off noise.
        let min_cooc = (n_docs_with_main as f64 * 0.1).ceil().max(1.0) as u32;
        let mut related: Vec<(String, f64)> = Vec::new();
        for (id, &count) in cooc.iter().enumerate() {
            if count < min_cooc {
                continue;
            }
            let word = corpus.word_text(id as u32);
            if self.config.filter_stopwords
                && (nd_text::is_stopword(word) || word.chars().all(|c| c.is_ascii_digit()))
            {
                continue;
            }
            let w = erdem_weight(&main_series, &series(id as u32));
            if w >= self.config.theta {
                related.push((word.to_string(), w));
            }
        }
        related.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        related.truncate(self.config.max_related);

        Event {
            main_word: corpus.word_text(cand.word).to_string(),
            related,
            start: corpus.slice_start(cand.from),
            end: corpus.slice_end(cand.to),
            magnitude: cand.magnitude,
            n_docs: n_docs_with_main,
        }
    }

    /// An event is redundant when an already-accepted event has an
    /// overlapping period and either shares the main word or lists it
    /// among its related words (and vice versa).
    fn is_redundant(&self, event: &Event, accepted: &[Event]) -> bool {
        accepted.iter().any(|a| {
            if a.period_overlap(event) < self.config.merge_overlap {
                return false;
            }
            a.main_word == event.main_word
                || a.related.iter().any(|(w, _)| *w == event.main_word)
                || event.related.iter().any(|(w, _)| *w == a.main_word)
        })
    }
}

/// Kadane's maximum-sum contiguous subarray, optionally bounded to
/// `max_len` elements (`0` = unbounded). Returns `(sum, from, to)`
/// with inclusive indices; for an all-negative series returns the
/// single largest element.
fn max_sum_interval(xs: &[f64], max_len: usize) -> (f64, usize, usize) {
    debug_assert!(!xs.is_empty());
    if max_len == 0 {
        // Classic Kadane.
        let mut best = xs[0];
        let (mut best_from, mut best_to) = (0, 0);
        let mut cur = xs[0];
        let mut cur_from = 0;
        for (i, &x) in xs.iter().enumerate().skip(1) {
            if cur + x < x {
                cur = x;
                cur_from = i;
            } else {
                cur += x;
            }
            if cur > best {
                best = cur;
                best_from = cur_from;
                best_to = i;
            }
        }
        (best, best_from, best_to)
    } else {
        // Bounded length: sliding-window prefix-sum scan, O(n·1) via a
        // monotone minimum over the window of prefix sums.
        let n = xs.len();
        let mut prefix = vec![0.0; n + 1];
        for i in 0..n {
            prefix[i + 1] = prefix[i] + xs[i];
        }
        let mut best = f64::NEG_INFINITY;
        let (mut bf, mut bt) = (0, 0);
        for to in 0..n {
            let lo = to.saturating_sub(max_len - 1);
            for from in lo..=to {
                let s = prefix[to + 1] - prefix[from];
                if s > best {
                    best = s;
                    bf = from;
                    bt = to;
                }
            }
        }
        (best, bf, bt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeslice::TimestampedDoc;

    const HOUR: u64 = 3600;

    fn doc(ts: u64, words: &[&str], mentions: usize) -> TimestampedDoc {
        TimestampedDoc::new(ts, words.iter().map(|s| s.to_string()).collect(), mentions)
    }

    /// A corpus with background chatter plus one planted burst of
    /// "brexit vote" around hours 10–14.
    fn bursty_corpus() -> Vec<TimestampedDoc> {
        let mut docs = Vec::new();
        for h in 0..48u64 {
            // Constant background: 5 docs/hour talking about weather.
            for k in 0..5 {
                docs.push(doc(h * HOUR + k * 60, &["weather", "sunny", "day"], 1));
            }
            // Burst between hours 10..14: 20 extra docs/hour on brexit.
            if (10..14).contains(&h) {
                for k in 0..20 {
                    docs.push(doc(
                        h * HOUR + k * 120 + 7,
                        &["brexit", "vote", "party", "referendum"],
                        1,
                    ));
                }
            }
        }
        docs
    }

    fn detect(config: MabedConfig) -> Vec<Event> {
        let corpus = SlicedCorpus::build(&bursty_corpus(), HOUR);
        Mabed::new(config).detect(&corpus)
    }

    #[test]
    fn detects_planted_burst() {
        let events = detect(MabedConfig {
            n_events: 3,
            min_word_docs: 10,
            theta: 0.5,
            ..Default::default()
        });
        assert!(!events.is_empty());
        let top = &events[0];
        assert!(
            ["brexit", "vote", "party", "referendum"].contains(&top.main_word.as_str()),
            "unexpected main word {}",
            top.main_word
        );
        // Period should cover the planted burst hours (10..14).
        assert!(top.start <= 10 * HOUR, "start {}", top.start);
        assert!(top.end >= 13 * HOUR, "end {}", top.end);
    }

    #[test]
    fn related_words_come_from_burst_vocabulary() {
        let events = detect(MabedConfig {
            n_events: 1,
            min_word_docs: 10,
            theta: 0.5,
            ..Default::default()
        });
        let top = &events[0];
        let related: Vec<&str> = top.related.iter().map(|(w, _)| w.as_str()).collect();
        assert!(!related.is_empty());
        for w in &related {
            assert!(
                ["brexit", "vote", "party", "referendum"].contains(w),
                "unexpected related word {w}"
            );
        }
        // Weights in [theta, 1].
        for (_, w) in &top.related {
            assert!((0.5..=1.0).contains(w));
        }
    }

    #[test]
    fn steady_background_word_not_an_event() {
        let events = detect(MabedConfig {
            n_events: 10,
            min_word_docs: 5,
            theta: 0.5,
            ..Default::default()
        });
        // "weather" has a flat profile; its anomaly is ~0 everywhere.
        // It must not outrank the burst words.
        assert_ne!(events[0].main_word, "weather");
    }

    #[test]
    fn redundant_events_merged() {
        // brexit/vote/party/referendum all burst together; after
        // dedup we should get far fewer than 4 events for them.
        let events = detect(MabedConfig {
            n_events: 10,
            min_word_docs: 10,
            theta: 0.5,
            ..Default::default()
        });
        let burst_mains = events
            .iter()
            .filter(|e| ["brexit", "vote", "party", "referendum"].contains(&e.main_word.as_str()))
            .count();
        assert!(burst_mains <= 2, "expected dedup, got {burst_mains} burst events");
    }

    #[test]
    fn presence_mode_works_without_mentions() {
        // Same corpus but zero mentions everywhere: Mentions mode
        // finds nothing, Presence mode still finds the burst.
        let docs: Vec<TimestampedDoc> = bursty_corpus()
            .into_iter()
            .map(|mut d| {
                d.mentions = 0;
                d
            })
            .collect();
        let corpus = SlicedCorpus::build(&docs, HOUR);
        let none = Mabed::new(MabedConfig {
            source: AnomalySource::Mentions,
            min_word_docs: 10,
            ..Default::default()
        })
        .detect(&corpus);
        assert!(none.is_empty());
        let events = Mabed::new(MabedConfig {
            source: AnomalySource::Presence,
            min_word_docs: 10,
            theta: 0.5,
            ..Default::default()
        })
        .detect(&corpus);
        assert!(!events.is_empty());
    }

    #[test]
    fn max_duration_bounds_period() {
        let events = detect(MabedConfig {
            n_events: 1,
            min_word_docs: 10,
            theta: 0.5,
            max_duration_slices: 2,
            ..Default::default()
        });
        let top = &events[0];
        assert!(top.end - top.start <= 2 * HOUR);
    }

    #[test]
    fn empty_corpus_no_events() {
        let corpus = SlicedCorpus::build(&[], HOUR);
        assert!(Mabed::new(MabedConfig::default()).detect(&corpus).is_empty());
    }

    #[test]
    fn events_sorted_by_magnitude() {
        let events = detect(MabedConfig {
            n_events: 10,
            min_word_docs: 5,
            theta: 0.3,
            ..Default::default()
        });
        for pair in events.windows(2) {
            assert!(pair[0].magnitude >= pair[1].magnitude);
        }
    }

    #[test]
    fn kadane_unbounded() {
        assert_eq!(max_sum_interval(&[1.0, -2.0, 3.0, 4.0, -1.0], 0), (7.0, 2, 3));
        assert_eq!(max_sum_interval(&[-5.0, -1.0, -3.0], 0), (-1.0, 1, 1));
        assert_eq!(max_sum_interval(&[2.0], 0), (2.0, 0, 0));
    }

    #[test]
    fn kadane_bounded() {
        let (s, f, t) = max_sum_interval(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(s, 2.0);
        assert_eq!(t - f, 1);
        let (s, _, _) = max_sum_interval(&[5.0, -1.0, 5.0], 3);
        assert_eq!(s, 9.0);
    }

    #[test]
    fn deterministic() {
        let a = detect(MabedConfig { min_word_docs: 10, theta: 0.5, ..Default::default() });
        let b = detect(MabedConfig { min_word_docs: 10, theta: 0.5, ..Default::default() });
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.main_word, y.main_word);
            assert_eq!(x.start, y.start);
        }
    }
}
