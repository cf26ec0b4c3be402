//! Rule-plus-exception English lemmatizer.
//!
//! The NewsTM pipeline (paper §4.2) "extracts lemmas to minimize the
//! vocabulary and store only the base root". Lacking SpaCy, we use a
//! two-tier lemmatizer: a table of irregular forms (common verbs and
//! nouns) backed by ordered suffix-rewrite rules with a small
//! morphological sanity check (a candidate lemma must keep at least
//! one vowel and three characters, or the rule is skipped).

use std::collections::HashMap;
use std::sync::OnceLock;

/// Irregular form → lemma table. Covers the high-frequency irregular
/// verbs/nouns that dominate news prose; everything else goes through
/// the suffix rules.
const IRREGULAR: &[(&str, &str)] = &[
    // be / have / do and friends
    ("am", "be"), ("is", "be"), ("are", "be"), ("was", "be"), ("were", "be"),
    ("been", "be"), ("being", "be"),
    ("has", "have"), ("had", "have"), ("having", "have"),
    ("does", "do"), ("did", "do"), ("done", "do"), ("doing", "do"),
    // common irregular verbs
    ("went", "go"), ("gone", "go"), ("goes", "go"),
    ("said", "say"), ("says", "say"),
    ("made", "make"), ("making", "make"),
    ("took", "take"), ("taken", "take"), ("taking", "take"),
    ("came", "come"), ("coming", "come"),
    ("saw", "see"), ("seen", "see"), ("seeing", "see"),
    ("got", "get"), ("gotten", "get"), ("getting", "get"),
    ("gave", "give"), ("given", "give"), ("giving", "give"),
    ("found", "find"), ("finding", "find"),
    ("told", "tell"), ("telling", "tell"),
    ("became", "become"), ("becoming", "become"),
    ("left", "leave"), ("leaving", "leave"),
    ("felt", "feel"), ("feeling", "feel"),
    ("brought", "bring"), ("bringing", "bring"),
    ("began", "begin"), ("begun", "begin"), ("beginning", "begin"),
    ("kept", "keep"), ("keeping", "keep"),
    ("held", "hold"), ("holding", "hold"),
    ("wrote", "write"), ("written", "write"), ("writing", "write"),
    ("stood", "stand"), ("standing", "stand"),
    ("heard", "hear"), ("hearing", "hear"),
    ("let", "let"), ("met", "meet"), ("meeting", "meet"),
    ("ran", "run"), ("running", "run"),
    ("paid", "pay"), ("paying", "pay"),
    ("sat", "sit"), ("sitting", "sit"),
    ("spoke", "speak"), ("spoken", "speak"), ("speaking", "speak"),
    ("lay", "lie"), ("lain", "lie"),
    ("led", "lead"), ("leading", "lead"),
    ("grew", "grow"), ("grown", "grow"), ("growing", "grow"),
    ("lost", "lose"), ("losing", "lose"),
    ("fell", "fall"), ("fallen", "fall"), ("falling", "fall"),
    ("sent", "send"), ("sending", "send"),
    ("built", "build"), ("building", "build"),
    ("understood", "understand"),
    ("drew", "draw"), ("drawn", "draw"),
    ("broke", "break"), ("broken", "break"), ("breaking", "break"),
    ("spent", "spend"), ("spending", "spend"),
    ("cut", "cut"), ("cutting", "cut"),
    ("rose", "rise"), ("risen", "rise"), ("rising", "rise"),
    ("drove", "drive"), ("driven", "drive"), ("driving", "drive"),
    ("bought", "buy"), ("buying", "buy"),
    ("wore", "wear"), ("worn", "wear"),
    ("chose", "choose"), ("chosen", "choose"), ("choosing", "choose"),
    ("fought", "fight"), ("fighting", "fight"),
    ("threw", "throw"), ("thrown", "throw"), ("throwing", "throw"),
    ("caught", "catch"), ("catching", "catch"),
    ("dealt", "deal"), ("dealing", "deal"),
    ("won", "win"), ("winning", "win"),
    ("sought", "seek"), ("seeking", "seek"),
    ("voted", "vote"), ("voting", "vote"), ("votes", "vote"),
    ("imposed", "impose"), ("imposing", "impose"), ("imposes", "impose"),
    // common irregular nouns
    ("men", "man"), ("women", "woman"), ("children", "child"),
    ("people", "person"), ("feet", "foot"), ("teeth", "tooth"),
    ("mice", "mouse"), ("geese", "goose"),
    ("media", "medium"), ("data", "datum"), ("crises", "crisis"),
    ("analyses", "analysis"), ("countries", "country"), ("parties", "party"),
    ("companies", "company"), ("policies", "policy"), ("economies", "economy"),
    ("authorities", "authority"), ("securities", "security"),
    ("lives", "life"), ("leaves", "leaf"), ("wives", "wife"),
    // comparatives worth normalizing in news text
    ("better", "good"), ("best", "good"), ("worse", "bad"), ("worst", "bad"),
    ("larger", "large"), ("largest", "large"),
    ("higher", "high"), ("highest", "high"),
    ("lower", "low"), ("lowest", "low"),
];

fn irregular_map() -> &'static HashMap<&'static str, &'static str> {
    static MAP: OnceLock<HashMap<&'static str, &'static str>> = OnceLock::new();
    MAP.get_or_init(|| IRREGULAR.iter().copied().collect())
}

fn has_vowel(s: &str) -> bool {
    s.chars().any(|c| matches!(c, 'a' | 'e' | 'i' | 'o' | 'u' | 'y'))
}

fn is_consonant_byte(b: u8) -> bool {
    b.is_ascii_lowercase() && !matches!(b, b'a' | b'e' | b'i' | b'o' | b'u')
}

/// Lemmatizes a single lower-cased word. Words with uppercase letters
/// are lower-cased first; non-alphabetic tokens pass through.
pub fn lemmatize(word: &str) -> String {
    let w = if word.chars().any(|c| c.is_uppercase()) {
        word.to_lowercase()
    } else {
        word.to_string()
    };

    if let Some(&lemma) = irregular_map().get(w.as_str()) {
        return lemma.to_string();
    }
    if w.len() <= 3 || !w.bytes().all(|b| b.is_ascii_lowercase()) {
        return w;
    }

    // --- -ies -> -y (parties handled above; generic rule for the rest)
    if w.ends_with("ies") && w.len() > 4 {
        return format!("{}y", &w[..w.len() - 3]);
    }
    // --- -sses / -shes / -ches / -xes / -zes -> strip "es"
    if (w.ends_with("sses")
        || w.ends_with("shes")
        || w.ends_with("ches")
        || w.ends_with("xes")
        || w.ends_with("zes"))
        && w.len() > 4
    {
        return w[..w.len() - 2].to_string();
    }
    // --- -ing
    if w.ends_with("ing") && w.len() > 5 {
        let stem = &w[..w.len() - 3];
        if has_vowel(stem) {
            // doubled final consonant: running -> run
            let sb = stem.as_bytes();
            if sb.len() >= 2
                && sb[sb.len() - 1] == sb[sb.len() - 2]
                && is_consonant_byte(sb[sb.len() - 1])
                && !matches!(sb[sb.len() - 1], b'l' | b's' | b'z')
            {
                return stem[..stem.len() - 1].to_string();
            }
            // CVC pattern usually dropped a silent e: making -> make
            if ends_cvce_candidate(sb) {
                return format!("{stem}e");
            }
            return stem.to_string();
        }
    }
    // --- -ed
    if w.ends_with("ed") && w.len() > 4 {
        let stem = &w[..w.len() - 2];
        if has_vowel(stem) {
            let sb = stem.as_bytes();
            if sb.len() >= 2
                && sb[sb.len() - 1] == sb[sb.len() - 2]
                && is_consonant_byte(sb[sb.len() - 1])
                && !matches!(sb[sb.len() - 1], b'l' | b's' | b'z')
            {
                return stem[..stem.len() - 1].to_string();
            }
            if ends_cvce_candidate(sb) {
                return format!("{stem}e");
            }
            return stem.to_string();
        }
    }
    // --- plural -s (but not -ss, -us, -is)
    if w.ends_with('s')
        && !w.ends_with("ss")
        && !w.ends_with("us")
        && !w.ends_with("is")
        && w.len() > 3
    {
        return w[..w.len() - 1].to_string();
    }
    w
}

/// Heuristic: stems ending consonant-vowel-consonant (last consonant
/// not w/x/y) usually came from a silent-e word (mak+ing -> make).
fn ends_cvce_candidate(stem: &[u8]) -> bool {
    let n = stem.len();
    if n < 3 {
        return false;
    }
    let (c1, v, c2) = (stem[n - 3], stem[n - 2], stem[n - 1]);
    is_consonant_byte(c1)
        && !is_consonant_byte(v)
        && is_consonant_byte(c2)
        && !matches!(c2, b'w' | b'x' | b'y')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregular_verbs() {
        assert_eq!(lemmatize("was"), "be");
        assert_eq!(lemmatize("went"), "go");
        assert_eq!(lemmatize("said"), "say");
        assert_eq!(lemmatize("brought"), "bring");
        assert_eq!(lemmatize("won"), "win");
    }

    #[test]
    fn irregular_nouns() {
        assert_eq!(lemmatize("children"), "child");
        assert_eq!(lemmatize("women"), "woman");
        assert_eq!(lemmatize("parties"), "party");
        assert_eq!(lemmatize("policies"), "policy");
    }

    #[test]
    fn regular_plurals() {
        assert_eq!(lemmatize("tariffs"), "tariff");
        assert_eq!(lemmatize("elections"), "election");
        assert_eq!(lemmatize("topics"), "topic");
        assert_eq!(lemmatize("stories"), "story");
        assert_eq!(lemmatize("churches"), "church");
        assert_eq!(lemmatize("boxes"), "box");
    }

    #[test]
    fn s_endings_preserved() {
        assert_eq!(lemmatize("crisis"), "crisis");
        assert_eq!(lemmatize("chaos"), "chao"); // known limitation of rule lemmatizers
        assert_eq!(lemmatize("press"), "press");
        assert_eq!(lemmatize("virus"), "virus");
    }

    #[test]
    fn ing_forms() {
        assert_eq!(lemmatize("running"), "run");
        assert_eq!(lemmatize("making"), "make");
        assert_eq!(lemmatize("walking"), "walk");
        assert_eq!(lemmatize("falling"), "fall");
        // too short to be a gerund
        assert_eq!(lemmatize("sing"), "sing");
        assert_eq!(lemmatize("ring"), "ring");
    }

    #[test]
    fn ed_forms() {
        assert_eq!(lemmatize("walked"), "walk");
        assert_eq!(lemmatize("stopped"), "stop");
        assert_eq!(lemmatize("hoped"), "hope");
        assert_eq!(lemmatize("voted"), "vote");
    }

    #[test]
    fn comparatives() {
        assert_eq!(lemmatize("best"), "good");
        assert_eq!(lemmatize("highest"), "high");
    }

    #[test]
    fn case_folding() {
        assert_eq!(lemmatize("Elections"), "election");
        assert_eq!(lemmatize("WAS"), "be");
    }

    #[test]
    fn short_and_non_alpha_passthrough() {
        assert_eq!(lemmatize("eu"), "eu");
        assert_eq!(lemmatize("25"), "25");
        assert_eq!(lemmatize("u.s"), "u.s");
    }

    #[test]
    fn idempotent() {
        for w in ["election", "party", "vote", "make", "run", "tariff"] {
            assert_eq!(lemmatize(w), lemmatize(&lemmatize(w)));
        }
    }
}
