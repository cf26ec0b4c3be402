//! Typed audience events and their compressed symbol encoding.
//!
//! Every per-user event is compressed to a `u32` **symbol** before
//! mining: the high 16 bits carry the event tag, the low 16 bits the
//! topic id (zero for topic-free events). Symbols order first by tag,
//! then by topic, which gives the miner a stable, meaningful iteration
//! order for free via `BTreeMap`.

use nd_store::artifact::fnv1a64;

/// One typed event in a user's behavioral stream.
///
/// The topic payload identifies *which* news topic the interaction
/// touched; session-level events (`Login`, `ApiError`, `Silence`)
/// carry none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternEvent {
    /// Session start (app open / first request of a visit).
    Login,
    /// Read an article or topic page.
    View(u16),
    /// Lightweight engagement (like / favourite).
    Like(u16),
    /// Amplification (retweet / share).
    Share(u16),
    /// Conversational engagement (reply / quote).
    Reply(u16),
    /// A failed request observed in the user's session.
    ApiError,
    /// Sustained inactivity marker (no events for the silence window).
    Silence,
}

/// Event tags, i.e. the high half of a symbol. Tag 0 is reserved so a
/// valid symbol is never zero.
const TAG_LOGIN: u32 = 1;
const TAG_VIEW: u32 = 2;
const TAG_LIKE: u32 = 3;
const TAG_SHARE: u32 = 4;
const TAG_REPLY: u32 = 5;
const TAG_API_ERROR: u32 = 6;
const TAG_SILENCE: u32 = 7;

impl PatternEvent {
    /// Compresses the event to its `u32` mining symbol.
    pub fn symbol(self) -> u32 {
        match self {
            PatternEvent::Login => TAG_LOGIN << 16,
            PatternEvent::View(t) => TAG_VIEW << 16 | u32::from(t),
            PatternEvent::Like(t) => TAG_LIKE << 16 | u32::from(t),
            PatternEvent::Share(t) => TAG_SHARE << 16 | u32::from(t),
            PatternEvent::Reply(t) => TAG_REPLY << 16 | u32::from(t),
            PatternEvent::ApiError => TAG_API_ERROR << 16,
            PatternEvent::Silence => TAG_SILENCE << 16,
        }
    }

    /// Reverses [`PatternEvent::symbol`]; `None` for malformed input
    /// (unknown tag, or a topic on a topic-free tag).
    pub fn from_symbol(sym: u32) -> Option<PatternEvent> {
        let topic = (sym & 0xFFFF) as u16;
        match sym >> 16 {
            TAG_LOGIN if topic == 0 => Some(PatternEvent::Login),
            TAG_VIEW => Some(PatternEvent::View(topic)),
            TAG_LIKE => Some(PatternEvent::Like(topic)),
            TAG_SHARE => Some(PatternEvent::Share(topic)),
            TAG_REPLY => Some(PatternEvent::Reply(topic)),
            TAG_API_ERROR if topic == 0 => Some(PatternEvent::ApiError),
            TAG_SILENCE if topic == 0 => Some(PatternEvent::Silence),
            _ => None,
        }
    }
}

/// Returns the symbol's topic id (low 16 bits).
pub fn symbol_topic(sym: u32) -> u16 {
    (sym & 0xFFFF) as u16
}

/// True when the symbol is a `Silence` marker.
pub fn is_silence(sym: u32) -> bool {
    sym >> 16 == TAG_SILENCE
}

/// True when the symbol is an `ApiError`.
pub fn is_api_error(sym: u32) -> bool {
    sym >> 16 == TAG_API_ERROR
}

/// Engagement-funnel stage of a symbol: `View`=1, `Like`=2, `Share`=3,
/// `Reply`=4; zero for everything else. Strictly increasing stage runs
/// on one topic are what [`crate::catalog`] classifies as funnels.
pub fn funnel_stage(sym: u32) -> u8 {
    match sym >> 16 {
        TAG_VIEW => 1,
        TAG_LIKE => 2,
        TAG_SHARE => 3,
        TAG_REPLY => 4,
        _ => 0,
    }
}

/// True when the symbol ends an engagement arc (`Share` or `Reply`).
pub fn is_amplification(sym: u32) -> bool {
    matches!(sym >> 16, TAG_SHARE | TAG_REPLY)
}

/// Renders a symbol as the short label used in logs, docs, and the
/// `/patterns` endpoint: `L`, `V:3`, `K:3`, `S:3`, `R:3`, `E`, `X`.
pub fn symbol_label(sym: u32) -> String {
    let topic = sym & 0xFFFF;
    match sym >> 16 {
        TAG_LOGIN => "L".to_string(),
        TAG_VIEW => format!("V:{topic}"),
        TAG_LIKE => format!("K:{topic}"),
        TAG_SHARE => format!("S:{topic}"),
        TAG_REPLY => format!("R:{topic}"),
        TAG_API_ERROR => "E".to_string(),
        TAG_SILENCE => "X".to_string(),
        tag => format!("?{tag}:{topic}"),
    }
}

/// Renders a whole sequence, e.g. `L → E → E → X`.
pub fn render_sequence(seq: &[u32]) -> String {
    let labels: Vec<String> = seq.iter().map(|&s| symbol_label(s)).collect();
    labels.join(" → ")
}

/// Stable identity of a pattern: FNV-1a over the little-endian symbol
/// bytes. The synth generator computes the same id for its planted
/// signatures, so recovery tests assert on ids, not on floats.
pub fn pattern_id(seq: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(seq.len() * 4);
    for &s in seq {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_roundtrip_all_variants() {
        let events = [
            PatternEvent::Login,
            PatternEvent::View(0),
            PatternEvent::View(41),
            PatternEvent::Like(7),
            PatternEvent::Share(65_535),
            PatternEvent::Reply(3),
            PatternEvent::ApiError,
            PatternEvent::Silence,
        ];
        for e in events {
            assert_eq!(PatternEvent::from_symbol(e.symbol()), Some(e), "{e:?}");
        }
    }

    #[test]
    fn malformed_symbols_rejected() {
        assert_eq!(PatternEvent::from_symbol(0), None);
        assert_eq!(PatternEvent::from_symbol(TAG_LOGIN << 16 | 5), None);
        assert_eq!(PatternEvent::from_symbol(TAG_SILENCE << 16 | 1), None);
        assert_eq!(PatternEvent::from_symbol(0xFF << 16), None);
    }

    #[test]
    fn labels_match_documented_grammar() {
        assert_eq!(symbol_label(PatternEvent::Login.symbol()), "L");
        assert_eq!(symbol_label(PatternEvent::View(3).symbol()), "V:3");
        assert_eq!(symbol_label(PatternEvent::Silence.symbol()), "X");
        assert_eq!(
            render_sequence(&[
                PatternEvent::Login.symbol(),
                PatternEvent::ApiError.symbol(),
                PatternEvent::Silence.symbol(),
            ]),
            "L → E → X"
        );
    }

    #[test]
    fn pattern_id_is_order_and_content_sensitive() {
        let a = [PatternEvent::Login.symbol(), PatternEvent::Silence.symbol()];
        let b = [PatternEvent::Silence.symbol(), PatternEvent::Login.symbol()];
        assert_ne!(pattern_id(&a), pattern_id(&b));
        assert_eq!(pattern_id(&a), pattern_id(&a));
        assert_ne!(pattern_id(&a), pattern_id(&a[..1]));
    }

    #[test]
    fn funnel_stages_are_monotone_over_the_engagement_ladder() {
        let ladder = [
            PatternEvent::View(2),
            PatternEvent::Like(2),
            PatternEvent::Share(2),
            PatternEvent::Reply(2),
        ];
        let stages: Vec<u8> = ladder.iter().map(|e| funnel_stage(e.symbol())).collect();
        assert_eq!(stages, [1, 2, 3, 4]);
        assert_eq!(funnel_stage(PatternEvent::Login.symbol()), 0);
    }
}
