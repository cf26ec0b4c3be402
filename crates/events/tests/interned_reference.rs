//! The interned corpus and the id-based MABED against a string-keyed
//! reference.
//!
//! `reference` below is the earlier implementation, rewritten against
//! the crate's public types: a `BTreeMap<String, WordStats>` corpus
//! that keeps every document's deduplicated tokens, and a detector
//! whose co-occurrence loop counts into a `BTreeMap<&str, u32>` after
//! a linear search for the main word. Over random corpora, the
//! production `SlicedCorpus` must yield the same words with the same
//! statistics, and `Mabed::detect` the same events, bit for bit.

use nd_events::timeslice::WordStats;
use nd_events::{AnomalySource, Event, Mabed, MabedConfig, SlicedCorpus, TimestampedDoc};
use proptest::prelude::*;

mod reference {
    use nd_events::timeslice::WordStats;
    use nd_events::{AnomalySource, Event, MabedConfig, TimestampedDoc};
    use nd_linalg::stats::erdem_weight;
    use std::collections::BTreeMap;

    /// Word statistics keyed by word; documents keep their sorted,
    /// deduplicated tokens.
    pub struct Corpus {
        pub slice_secs: u64,
        pub origin: u64,
        pub n_slices: usize,
        pub n_docs: usize,
        pub docs_per_slice: Vec<u32>,
        pub words: BTreeMap<String, WordStats>,
        slice_docs: Vec<Vec<u32>>,
        doc_tokens: Vec<Vec<String>>,
    }

    impl Corpus {
        pub fn build(docs: &[TimestampedDoc], slice_secs: u64) -> Corpus {
            if docs.is_empty() {
                return Corpus {
                    slice_secs,
                    origin: 0,
                    n_slices: 0,
                    n_docs: 0,
                    docs_per_slice: Vec::new(),
                    words: BTreeMap::new(),
                    slice_docs: Vec::new(),
                    doc_tokens: Vec::new(),
                };
            }
            let origin = docs.iter().map(|d| d.timestamp).min().unwrap();
            let max_ts = docs.iter().map(|d| d.timestamp).max().unwrap();
            let n_slices = ((max_ts - origin) / slice_secs + 1) as usize;

            let mut docs_per_slice = vec![0u32; n_slices];
            let mut words: BTreeMap<String, WordStats> = BTreeMap::new();
            let mut slice_docs: Vec<Vec<u32>> = vec![Vec::new(); n_slices];
            let mut doc_tokens: Vec<Vec<String>> = Vec::with_capacity(docs.len());

            for (doc_id, doc) in docs.iter().enumerate() {
                let slice = ((doc.timestamp - origin) / slice_secs) as usize;
                docs_per_slice[slice] += 1;
                slice_docs[slice].push(doc_id as u32);
                let has_mention = doc.mentions > 0;

                let mut uniq: Vec<String> = doc.tokens.clone();
                uniq.sort_unstable();
                uniq.dedup();
                for tok in &uniq {
                    let stats = words.entry(tok.clone()).or_insert_with(|| WordStats {
                        presence: vec![0; n_slices],
                        mention: vec![0; n_slices],
                        total_presence: 0,
                        total_mention: 0,
                    });
                    stats.presence[slice] += 1;
                    stats.total_presence += 1;
                    if has_mention {
                        stats.mention[slice] += 1;
                        stats.total_mention += 1;
                    }
                }
                doc_tokens.push(uniq);
            }
            Corpus {
                slice_secs,
                origin,
                n_slices,
                n_docs: docs.len(),
                docs_per_slice,
                words,
                slice_docs,
                doc_tokens,
            }
        }

        fn docs_in_slices(&self, from: usize, to: usize) -> Vec<u32> {
            let to = to.min(self.n_slices.saturating_sub(1));
            (from..=to).flat_map(|s| self.slice_docs[s].iter().copied()).collect()
        }

        fn slice_start(&self, i: usize) -> u64 {
            self.origin + i as u64 * self.slice_secs
        }
    }

    struct Candidate {
        word: String,
        magnitude: f64,
        from: usize,
        to: usize,
    }

    fn excluded(config: &MabedConfig, word: &str) -> bool {
        config.filter_stopwords
            && (nd_text::is_stopword(word) || word.chars().all(|c| c.is_ascii_digit()))
    }

    pub fn detect(config: &MabedConfig, corpus: &Corpus) -> Vec<Event> {
        if corpus.n_slices == 0 || corpus.n_docs == 0 {
            return Vec::new();
        }
        let mut events: Vec<Event> = Vec::new();
        for cand in rank_candidates(config, corpus) {
            if events.len() >= config.n_events {
                break;
            }
            let event = build_event(config, corpus, &cand);
            let redundant = events.iter().any(|a| {
                a.period_overlap(&event) >= config.merge_overlap
                    && (a.main_word == event.main_word
                        || a.related.iter().any(|(w, _)| *w == event.main_word)
                        || event.related.iter().any(|(w, _)| *w == a.main_word))
            });
            if !redundant {
                events.push(event);
            }
        }
        events
    }

    fn rank_candidates(config: &MabedConfig, corpus: &Corpus) -> Vec<Candidate> {
        let n_docs = corpus.n_docs as f64;
        let max_docs = (config.max_word_doc_ratio * n_docs).ceil() as u64;
        let mut candidates = Vec::new();
        for (word, stats) in &corpus.words {
            if stats.total_presence < config.min_word_docs || stats.total_presence > max_docs {
                continue;
            }
            if excluded(config, word) {
                continue;
            }
            let (observed, total_engaged) = match config.source {
                AnomalySource::Mentions => (&stats.mention, stats.total_mention),
                AnomalySource::Presence => (&stats.presence, stats.total_presence),
            };
            if total_engaged == 0 {
                continue;
            }
            let rate = total_engaged as f64 / n_docs;
            let anomaly: Vec<f64> = observed
                .iter()
                .zip(&corpus.docs_per_slice)
                .map(|(&o, &n)| o as f64 - n as f64 * rate)
                .collect();
            let (magnitude, from, to) = max_sum_interval(&anomaly, config.max_duration_slices);
            if magnitude <= 0.0 {
                continue;
            }
            candidates.push(Candidate { word: word.clone(), magnitude, from, to });
        }
        candidates.sort_by(|a, b| {
            b.magnitude
                .partial_cmp(&a.magnitude)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.word.cmp(&b.word))
        });
        candidates
    }

    fn build_event(config: &MabedConfig, corpus: &Corpus, cand: &Candidate) -> Event {
        let series = |word: &str| -> Vec<f64> {
            corpus.words[word].presence[cand.from..=cand.to].iter().map(|&v| v as f64).collect()
        };
        let main_series = series(&cand.word);

        let mut cooc: BTreeMap<&str, u32> = BTreeMap::new();
        let mut n_docs_with_main = 0usize;
        for doc_id in corpus.docs_in_slices(cand.from, cand.to) {
            let toks = &corpus.doc_tokens[doc_id as usize];
            if !toks.contains(&cand.word) {
                continue;
            }
            n_docs_with_main += 1;
            for t in toks {
                if *t != cand.word {
                    *cooc.entry(t.as_str()).or_insert(0) += 1;
                }
            }
        }

        let min_cooc = (n_docs_with_main as f64 * 0.1).ceil().max(1.0) as u32;
        let mut related: Vec<(String, f64)> = Vec::new();
        for (word, count) in cooc {
            if count < min_cooc || excluded(config, word) {
                continue;
            }
            let w = erdem_weight(&main_series, &series(word));
            if w >= config.theta {
                related.push((word.to_string(), w));
            }
        }
        related.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        related.truncate(config.max_related);

        Event {
            main_word: cand.word.clone(),
            related,
            start: corpus.slice_start(cand.from),
            end: corpus.slice_start(cand.to) + corpus.slice_secs,
            magnitude: cand.magnitude,
            n_docs: n_docs_with_main,
        }
    }

    fn max_sum_interval(xs: &[f64], max_len: usize) -> (f64, usize, usize) {
        if max_len == 0 {
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
            let n = xs.len();
            let mut prefix = vec![0.0; n + 1];
            for i in 0..n {
                prefix[i + 1] = prefix[i] + xs[i];
            }
            let mut best = f64::NEG_INFINITY;
            let (mut bf, mut bt) = (0, 0);
            for to in 0..n {
                for from in to.saturating_sub(max_len - 1)..=to {
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
}

/// Fixed tokens whose byte order is easy to get wrong: shared prefixes
/// (`a` < `ab` < `abc` < `b`), upper case before lower case, multi-byte
/// chars after ASCII, stopwords and digit-only words.
const POOL: &[&str] = &[
    "a", "ab", "abc", "b", "ba", "bb", "B", "Ab", "the", "of", "and", "1", "12", "2", "a1",
    "é", "éa", "zz",
];

/// Random corpora: 0–50 documents of 0–7 tokens (repeats included)
/// drawn from [`POOL`] or a small generated alphabet, timestamps over a
/// few hours, 0–2 mentions each.
fn arb_docs() -> impl Strategy<Value = Vec<TimestampedDoc>> {
    prop::collection::vec(
        (
            0u64..20_000,
            prop::collection::vec((0usize..POOL.len() + 4, "[a-c]{1,3}"), 0..8),
            0usize..3,
        ),
        0..50,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(ts, picks, mentions)| {
                let tokens = picks
                    .into_iter()
                    .map(|(i, generated)| POOL.get(i).map_or(generated, |w| w.to_string()))
                    .collect();
                TimestampedDoc::new(ts, tokens, mentions)
            })
            .collect()
    })
}

/// Detector settings: both anomaly sources, bounded and unbounded
/// periods, stopword filter on and off, and small `max_related` cuts so
/// weight ties land on the cut.
fn arb_config() -> impl Strategy<Value = MabedConfig> {
    (
        (0usize..2, 0usize..4, 0usize..2),
        (0.0f64..1.0, 1usize..8, 1usize..5, 1u64..4, 0.3f64..1.0),
    )
        .prop_map(
            |((source, max_duration, filter), (theta, n_events, max_related, min_docs, ratio))| {
                MabedConfig {
                    n_events,
                    max_related,
                    theta,
                    min_word_docs: min_docs,
                    max_word_doc_ratio: ratio,
                    max_duration_slices: max_duration,
                    source: if source == 0 {
                        AnomalySource::Mentions
                    } else {
                        AnomalySource::Presence
                    },
                    filter_stopwords: filter == 1,
                    ..Default::default()
                }
            },
        )
}

fn same_stats(a: &WordStats, b: &WordStats) -> bool {
    a.presence == b.presence
        && a.mention == b.mention
        && a.total_presence == b.total_presence
        && a.total_mention == b.total_mention
}

/// Events as comparable bits: main word, related words in order with
/// weight bits, magnitude bits, `n_docs`, `start`, `end`.
type EventBits = (String, Vec<(String, u64)>, u64, usize, u64, u64);

fn event_bits(events: &[Event]) -> Vec<EventBits> {
    events
        .iter()
        .map(|e| {
            (
                e.main_word.clone(),
                e.related.iter().map(|(w, x)| (w.clone(), x.to_bits())).collect(),
                e.magnitude.to_bits(),
                e.n_docs,
                e.start,
                e.end,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interned_corpus_matches_reference(docs in arb_docs(), slice_secs in 300u64..4_000) {
        let sc = SlicedCorpus::build(&docs, slice_secs);
        let want = reference::Corpus::build(&docs, slice_secs);
        prop_assert_eq!(sc.origin, want.origin);
        prop_assert_eq!(sc.n_slices, want.n_slices);
        prop_assert_eq!(sc.n_docs, want.n_docs);
        prop_assert_eq!(&sc.docs_per_slice, &want.docs_per_slice);
        prop_assert_eq!(sc.n_words(), want.words.len());
        for ((w, s), (rw, rs)) in sc.iter_words().zip(&want.words) {
            prop_assert_eq!(w, rw.as_str());
            prop_assert!(same_stats(s, rs), "stats of {w:?} differ: {s:?} vs {rs:?}");
            prop_assert!(sc.word(w).is_some_and(|x| same_stats(x, rs)), "lookup of {w:?}");
        }
        for probe in ["", "abcd", "c", "zzz", "Z", "éé"] {
            prop_assert_eq!(sc.word(probe).is_some(), want.words.contains_key(probe));
        }
    }

    #[test]
    fn interned_mabed_matches_reference(
        docs in arb_docs(),
        config in arb_config(),
        slice_secs in 300u64..4_000,
    ) {
        let got = Mabed::new(config.clone()).detect(&SlicedCorpus::build(&docs, slice_secs));
        let want = reference::detect(&config, &reference::Corpus::build(&docs, slice_secs));
        let (got, want) = (event_bits(&got), event_bits(&want));
        prop_assert!(got == want, "config {config:?}: {got:?} vs {want:?}");
    }
}
