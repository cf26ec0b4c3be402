//! Ranked, categorized, serializable pattern catalogs.
//!
//! The catalog is the subsystem's durable artifact: mined sequential
//! patterns ranked by `support × length`, each categorized by shape
//! (churn, error chain, funnel, engagement), plus the co-occurrence
//! pair table. It round-trips bit-exactly through the nd-store
//! `ByteWriter`/`ByteReader` codec so the pipeline can cache it in
//! `NDART02` artifact frames, and it supports matching fresh event slices
//! against the cataloged patterns.

use crate::cooccur::CoPair;
use crate::event::{
    funnel_stage, is_amplification, is_api_error, is_silence, pattern_id, render_sequence,
    symbol_topic,
};
use crate::prefixspan::MinedPattern;
use nd_store::artifact::{ArtifactError, ByteReader, ByteWriter};

/// Behavioral shape of a mined pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternCategory {
    /// Ends in sustained silence: the user walked away.
    Churn,
    /// Contains repeated API errors (and did not end in silence).
    ErrorChain,
    /// A strictly deepening engagement ladder on one topic
    /// (view → like → share → reply, at least three stages).
    Funnel,
    /// Ends in amplification (share/reply) after prior activity.
    Engagement,
    /// None of the above.
    Other,
}

impl PatternCategory {
    /// All categories, in the order used for counters and metrics.
    pub const ALL: [PatternCategory; 5] = [
        PatternCategory::Churn,
        PatternCategory::ErrorChain,
        PatternCategory::Funnel,
        PatternCategory::Engagement,
        PatternCategory::Other,
    ];

    /// Stable lowercase label (metrics, JSON, query parameter).
    pub fn label(self) -> &'static str {
        match self {
            PatternCategory::Churn => "churn",
            PatternCategory::ErrorChain => "error_chain",
            PatternCategory::Funnel => "funnel",
            PatternCategory::Engagement => "engagement",
            PatternCategory::Other => "other",
        }
    }

    /// Parses a [`PatternCategory::label`] string.
    pub fn parse(s: &str) -> Option<PatternCategory> {
        PatternCategory::ALL.into_iter().find(|c| c.label() == s)
    }

    fn code(self) -> u8 {
        match self {
            PatternCategory::Churn => 0,
            PatternCategory::ErrorChain => 1,
            PatternCategory::Funnel => 2,
            PatternCategory::Engagement => 3,
            PatternCategory::Other => 4,
        }
    }

    fn from_code(code: u8) -> Result<PatternCategory, ArtifactError> {
        PatternCategory::ALL
            .into_iter()
            .find(|c| c.code() == code)
            .ok_or(ArtifactError::Malformed("unknown pattern category code"))
    }
}

/// Classifies a symbol sequence. Checks run in priority order — a
/// pattern that both errors and churns reads as churn, because the
/// terminal silence is the operationally urgent part.
pub fn categorize(seq: &[u32]) -> PatternCategory {
    if seq.is_empty() {
        return PatternCategory::Other;
    }
    if is_silence(seq[seq.len() - 1]) {
        return PatternCategory::Churn;
    }
    if seq.iter().filter(|&&s| is_api_error(s)).count() >= 2 {
        return PatternCategory::ErrorChain;
    }
    if has_funnel(seq) {
        return PatternCategory::Funnel;
    }
    if seq.len() >= 2 && is_amplification(seq[seq.len() - 1]) {
        return PatternCategory::Engagement;
    }
    PatternCategory::Other
}

/// True when some topic carries a strictly increasing engagement-stage
/// run of length ≥ 3 (e.g. `V:t → K:t → S:t`). Runs reset whenever the
/// stage fails to deepen, so browsing plateaus don't qualify.
fn has_funnel(seq: &[u32]) -> bool {
    // Per-topic (stage, run-length) trackers; topics are u16 so a
    // sorted small vec is plenty and keeps iteration deterministic.
    let mut runs: Vec<(u16, u8, u8)> = Vec::new();
    for &sym in seq {
        let stage = funnel_stage(sym);
        if stage == 0 {
            continue;
        }
        let topic = symbol_topic(sym);
        let slot = match runs.binary_search_by_key(&topic, |r| r.0) {
            Ok(i) => &mut runs[i],
            Err(i) => {
                runs.insert(i, (topic, 0, 0));
                &mut runs[i]
            }
        };
        if stage > slot.1 {
            slot.2 += 1;
        } else {
            slot.2 = 1;
        }
        slot.1 = stage;
        if slot.2 >= 3 {
            return true;
        }
    }
    false
}

/// One cataloged pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalPattern {
    /// Stable identity: FNV-1a over the symbol bytes
    /// ([`crate::event::pattern_id`]).
    pub id: u64,
    /// The pattern's symbols, in order.
    pub sequence: Vec<u32>,
    /// Distinct users whose sequences contain the pattern.
    pub user_count: u32,
    /// `user_count / catalog.n_users`.
    pub support: f64,
    /// Ranking key: `support × sequence length`.
    pub score: f64,
    /// Behavioral shape.
    pub category: PatternCategory,
}

impl TemporalPattern {
    /// Human-readable rendering, e.g. `L → E → E → X`.
    pub fn render(&self) -> String {
        render_sequence(&self.sequence)
    }
}

/// The mined artifact: ranked patterns plus the co-occurrence table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternCatalog {
    /// Support denominator: user sequences mined.
    pub n_users: u32,
    /// Patterns, ranked score-desc / user-count-desc / sequence-asc.
    pub patterns: Vec<TemporalPattern>,
    /// Co-occurring symbol pairs (count-desc, then symbols-asc).
    pub pairs: Vec<CoPair>,
}

impl PatternCatalog {
    /// Ranks mined patterns into a catalog, keeping at most
    /// `max_patterns` entries. The sort key is total — score, then
    /// user count, then the sequence itself — so ties cannot
    /// reorder between runs.
    pub fn build(
        n_users: usize,
        mined: Vec<MinedPattern>,
        pairs: Vec<CoPair>,
        max_patterns: usize,
    ) -> PatternCatalog {
        let denom = (n_users as f64).max(1.0);
        let mut patterns: Vec<TemporalPattern> = mined
            .into_iter()
            .map(|m| {
                let support = f64::from(m.support) / denom;
                let score = support * m.sequence.len() as f64;
                TemporalPattern {
                    id: pattern_id(&m.sequence),
                    category: categorize(&m.sequence),
                    user_count: m.support,
                    support,
                    score,
                    sequence: m.sequence,
                }
            })
            .collect();
        patterns.sort_by(|x, y| {
            y.score
                .total_cmp(&x.score)
                .then_with(|| y.user_count.cmp(&x.user_count))
                .then_with(|| x.sequence.cmp(&y.sequence))
        });
        patterns.truncate(max_patterns);
        PatternCatalog { n_users: n_users.min(u32::MAX as usize) as u32, patterns, pairs }
    }

    /// Looks a pattern up by id.
    pub fn find(&self, id: u64) -> Option<&TemporalPattern> {
        self.patterns.iter().find(|p| p.id == id)
    }

    /// All cataloged patterns contained in `slice` as (gap-allowed)
    /// subsequences — the online matching entry point for classifying
    /// a fresh event window against known behavior.
    pub fn match_slice(&self, slice: &[u32]) -> Vec<&TemporalPattern> {
        self.patterns.iter().filter(|p| is_subsequence(&p.sequence, slice)).collect()
    }

    /// Pattern count per category, in [`PatternCategory::ALL`] order.
    pub fn category_counts(&self) -> [(PatternCategory, usize); 5] {
        PatternCategory::ALL
            .map(|c| (c, self.patterns.iter().filter(|p| p.category == c).count()))
    }

    /// Serializes the catalog (bit-exact round trip).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.n_users);
        w.put_usize(self.patterns.len());
        for p in &self.patterns {
            w.put_u64(p.id);
            w.put_usize(p.sequence.len());
            for &s in &p.sequence {
                w.put_u32(s);
            }
            w.put_u32(p.user_count);
            w.put_f64(p.support);
            w.put_f64(p.score);
            w.put_u8(p.category.code());
        }
        w.put_usize(self.pairs.len());
        for pair in &self.pairs {
            w.put_u32(pair.a);
            w.put_u32(pair.b);
            w.put_u32(pair.count);
            w.put_f64(pair.jaccard);
        }
    }

    /// Deserializes a catalog written by [`PatternCatalog::encode`].
    pub fn decode(r: &mut ByteReader) -> Result<PatternCatalog, ArtifactError> {
        let n_users = r.u32()?;
        let n_patterns = r.len_prefix()?;
        let mut patterns = Vec::with_capacity(n_patterns.min(1 << 20));
        for _ in 0..n_patterns {
            let id = r.u64()?;
            let len = r.len_prefix()?;
            let mut sequence = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                sequence.push(r.u32()?);
            }
            let user_count = r.u32()?;
            let support = r.f64()?;
            let score = r.f64()?;
            let category = PatternCategory::from_code(r.u8()?)?;
            patterns.push(TemporalPattern { id, sequence, user_count, support, score, category });
        }
        let n_pairs = r.len_prefix()?;
        let mut pairs = Vec::with_capacity(n_pairs.min(1 << 20));
        for _ in 0..n_pairs {
            pairs.push(CoPair {
                a: r.u32()?,
                b: r.u32()?,
                count: r.u32()?,
                jaccard: r.f64()?,
            });
        }
        Ok(PatternCatalog { n_users, patterns, pairs })
    }
}

/// True when `pattern` occurs within `slice` allowing gaps.
pub fn is_subsequence(pattern: &[u32], slice: &[u32]) -> bool {
    let mut it = slice.iter();
    pattern.iter().all(|p| it.any(|s| s == p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PatternEvent;

    fn syms(events: &[PatternEvent]) -> Vec<u32> {
        events.iter().map(|e| e.symbol()).collect()
    }

    #[test]
    fn categorization_matches_planted_signature_shapes() {
        use PatternEvent::*;
        let cases: [(&[PatternEvent], PatternCategory); 6] = [
            (&[Login, ApiError, ApiError, Silence], PatternCategory::Churn),
            (&[Login, ApiError, ApiError, Login, ApiError], PatternCategory::ErrorChain),
            (&[View(3), Like(3), Share(3), Reply(3)], PatternCategory::Funnel),
            (&[Login, View(2), View(2), Share(2)], PatternCategory::Engagement),
            (&[Login, View(1)], PatternCategory::Other),
            // Deepening across *different* topics is not a funnel —
            // but it still ends in amplification, so: engagement.
            (&[View(1), Like(2), Share(3)], PatternCategory::Engagement),
        ];
        for (events, want) in cases {
            assert_eq!(categorize(&syms(events)), want, "{events:?}");
        }
    }

    #[test]
    fn funnel_requires_strict_deepening_on_one_topic() {
        use PatternEvent::*;
        // Plateau (Like, Like) resets the run, leaving only a
        // two-step chain: not a funnel.
        assert_eq!(
            categorize(&syms(&[View(1), Like(1), Like(1), Reply(1)])),
            PatternCategory::Engagement
        );
        // Re-entry after a reset still qualifies once it deepens 3x.
        assert_eq!(
            categorize(&syms(&[Like(1), View(1), Like(1), Share(1), Login])),
            PatternCategory::Funnel
        );
    }

    #[test]
    fn build_ranks_by_score_then_users_then_sequence() {
        let mined = vec![
            MinedPattern { sequence: vec![9], support: 4 },
            MinedPattern { sequence: vec![1, 2], support: 4 },
            MinedPattern { sequence: vec![1, 3], support: 4 },
            MinedPattern { sequence: vec![5], support: 8 },
        ];
        let cat = PatternCatalog::build(8, mined, Vec::new(), 16);
        let order: Vec<&[u32]> = cat.patterns.iter().map(|p| p.sequence.as_slice()).collect();
        // scores: [9]→0.5, [1,2]→1.0, [1,3]→1.0, [5]→1.0; [5] has more users;
        // [1,2] < [1,3] lexicographically.
        assert_eq!(order, vec![&[5][..], &[1, 2][..], &[1, 3][..], &[9][..]]);
        assert_eq!(cat.patterns[0].support, 1.0);
    }

    #[test]
    fn max_patterns_truncates_after_ranking() {
        let mined = (0..10u32)
            .map(|i| MinedPattern { sequence: vec![i], support: i + 1 })
            .collect();
        let cat = PatternCatalog::build(10, mined, Vec::new(), 3);
        assert_eq!(cat.patterns.len(), 3);
        assert_eq!(cat.patterns[0].user_count, 10, "highest support survives");
    }

    #[test]
    fn encode_decode_roundtrips_bit_exactly() {
        let mined = vec![
            MinedPattern { sequence: syms(&[PatternEvent::Login, PatternEvent::Silence]), support: 7 },
            MinedPattern { sequence: syms(&[PatternEvent::View(3)]), support: 5 },
        ];
        let pairs = vec![CoPair { a: 1, b: 2, count: 3, jaccard: 0.75 }];
        let cat = PatternCatalog::build(20, mined, pairs, 16);
        let mut w = ByteWriter::new();
        cat.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = PatternCatalog::decode(&mut r).expect("decode");
        assert!(r.is_empty(), "trailing bytes");
        assert_eq!(back, cat);

        // Re-encoding the decoded catalog reproduces identical bytes.
        let mut w2 = ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let cat = PatternCatalog::build(
            4,
            vec![MinedPattern { sequence: vec![1, 2, 3], support: 2 }],
            Vec::new(),
            8,
        );
        let mut w = ByteWriter::new();
        cat.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                PatternCatalog::decode(&mut ByteReader::new(&bytes[..cut])).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn match_slice_and_find_agree_with_subsequence_semantics() {
        let mined = vec![
            MinedPattern { sequence: vec![1, 3], support: 2 },
            MinedPattern { sequence: vec![2, 4], support: 2 },
        ];
        let cat = PatternCatalog::build(4, mined, Vec::new(), 8);
        let hits = cat.match_slice(&[1, 2, 3]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].sequence, vec![1, 3]);
        assert!(cat.find(hits[0].id).is_some());
        assert!(cat.find(0xDEAD_BEEF).is_none());
    }

    #[test]
    fn category_labels_roundtrip() {
        for c in PatternCategory::ALL {
            assert_eq!(PatternCategory::parse(c.label()), Some(c));
        }
        assert_eq!(PatternCategory::parse("nope"), None);
    }
}
