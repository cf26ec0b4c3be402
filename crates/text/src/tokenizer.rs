//! Social-media-aware tokenizer.
//!
//! Splits raw text into typed tokens. Tweets need more care than news
//! prose: URLs, `@mentions` and `#hashtags` must survive as single
//! tokens (MABED counts mention anomalies; the feature builder matches
//! hashtag keywords), while ordinary punctuation is split off so the
//! event-detection pipelines can drop it.

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic or alphanumeric word.
    Word,
    /// Number (integer or decimal, possibly with `%`/`,` inside).
    Number,
    /// Twitter-style `@user` mention.
    Mention,
    /// Twitter-style `#tag` hashtag.
    Hashtag,
    /// `http(s)://…` or `www.…` URL.
    Url,
    /// Punctuation run.
    Punct,
    /// Emoticon such as `:)` (detected for completeness; dropped by
    /// every pipeline in this workspace).
    Emoticon,
}

/// A token: its surface text and lexical class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Surface form, unmodified (case preserved).
    pub text: String,
    /// Lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Convenience constructor.
    pub fn new(text: impl Into<String>, kind: TokenKind) -> Self {
        Token { text: text.into(), kind }
    }

    /// Lower-cased surface form.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }
}

const EMOTICONS: &[&str] = &[
    ":)", ":(", ":D", ":P", ";)", ":-)", ":-(", ":-D", ":'(", "<3", ":o", ":O",
];

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '\'' || c == '-' || c == '_'
}

fn classify_word(w: &str) -> TokenKind {
    let digits = w.chars().filter(|c| c.is_ascii_digit()).count();
    let alpha = w.chars().filter(|c| c.is_alphabetic()).count();
    if digits > 0 && alpha == 0 {
        TokenKind::Number
    } else {
        TokenKind::Word
    }
}

/// Tokenizes `text` into typed tokens.
///
/// Guarantees:
/// * URLs, mentions and hashtags are preserved as single tokens;
/// * contractions keep their apostrophe (`don't` is one `Word`);
/// * hyphenated compounds stay together (`state-of-the-art`);
/// * each punctuation run becomes one `Punct` token;
/// * whitespace never appears inside a token.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut i = 0;

    while i < n {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // URL?
        if c == 'h' || c == 'w' {
            if let Some(len) = match_url(&chars[i..]) {
                tokens.push(Token::new(chars[i..i + len].iter().collect::<String>(), TokenKind::Url));
                i += len;
                continue;
            }
        }

        // Mention / hashtag?
        if (c == '@' || c == '#') && i + 1 < n && is_word_char(chars[i + 1]) {
            let start = i;
            i += 1;
            while i < n && is_word_char(chars[i]) {
                i += 1;
            }
            let kind = if c == '@' { TokenKind::Mention } else { TokenKind::Hashtag };
            tokens.push(Token::new(chars[start..i].iter().collect::<String>(), kind));
            continue;
        }

        // Emoticon?
        if let Some(emo) = EMOTICONS.iter().find(|e| starts_with_str(&chars[i..], e)) {
            tokens.push(Token::new(*emo, TokenKind::Emoticon));
            i += emo.chars().count();
            continue;
        }

        // Word / number?
        if is_word_char(c) && c != '\'' && c != '-' {
            let start = i;
            while i < n && is_word_char(chars[i]) {
                i += 1;
            }
            // Trim trailing apostrophes/hyphens (e.g. from `rock-'`).
            let mut end = i;
            while end > start && matches!(chars[end - 1], '\'' | '-') {
                end -= 1;
            }
            let word: String = chars[start..end].iter().collect();
            if !word.is_empty() {
                let kind = classify_word(&word);
                tokens.push(Token::new(word, kind));
            }
            // Emit trimmed trailing punctuation.
            if end < i {
                tokens.push(Token::new(chars[end..i].iter().collect::<String>(), TokenKind::Punct));
            }
            continue;
        }

        // Punctuation run (anything else).
        let start = i;
        while i < n
            && !chars[i].is_whitespace()
            && !is_word_char(chars[i])
            && chars[i] != '@'
            && chars[i] != '#'
        {
            i += 1;
        }
        if i == start {
            // Lone apostrophe/hyphen or stray @/# — consume one char.
            i += 1;
        }
        tokens.push(Token::new(chars[start..i].iter().collect::<String>(), TokenKind::Punct));
    }
    tokens
}

/// Whether `chars` begins with the characters of `prefix`, compared in
/// place (no per-probe allocation).
fn starts_with_str(chars: &[char], prefix: &str) -> bool {
    let mut rest = chars.iter();
    prefix.chars().all(|p| rest.next() == Some(&p))
}

/// Returns the char-length of a URL starting at the slice head, if any.
fn match_url(chars: &[char]) -> Option<usize> {
    let prefixed = ["http://", "https://", "www."].iter().any(|p| starts_with_str(chars, p));
    if !prefixed {
        return None;
    }
    let mut len = 0;
    for &c in chars {
        if c.is_whitespace() {
            break;
        }
        len += 1;
    }
    // Strip trailing sentence punctuation from the URL.
    while len > 0 && matches!(chars[len - 1], '.' | ',' | '!' | '?' | ')' | ';' | ':') {
        len -= 1;
    }
    (len > 4).then_some(len)
}

/// Lower-cased word-like tokens only (words, numbers, hashtags without
/// the `#`); the representation the event-detection pipelines feed to
/// MABED.
pub fn word_tokens_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter_map(|t| match t.kind {
            TokenKind::Word | TokenKind::Number => Some(t.lower()),
            TokenKind::Hashtag => Some(t.text[1..].to_lowercase()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(tokens: &[Token]) -> Vec<&str> {
        tokens.iter().map(|t| t.text.as_str()).collect()
    }

    #[test]
    fn simple_sentence() {
        let toks = tokenize("The quick brown fox.");
        assert_eq!(texts(&toks), vec!["The", "quick", "brown", "fox", "."]);
        assert_eq!(toks[4].kind, TokenKind::Punct);
    }

    #[test]
    fn contractions_stay_whole() {
        let toks = tokenize("don't can't won't");
        assert_eq!(texts(&toks), vec!["don't", "can't", "won't"]);
        assert!(toks.iter().all(|t| t.kind == TokenKind::Word));
    }

    #[test]
    fn hyphenated_compound() {
        let toks = tokenize("state-of-the-art system");
        assert_eq!(texts(&toks), vec!["state-of-the-art", "system"]);
    }

    #[test]
    fn mentions_and_hashtags() {
        let toks = tokenize("@nytimes covers #Brexit today");
        assert_eq!(toks[0].kind, TokenKind::Mention);
        assert_eq!(toks[0].text, "@nytimes");
        assert_eq!(toks[1].kind, TokenKind::Word);
        assert_eq!(toks[2].kind, TokenKind::Hashtag);
        assert_eq!(toks[2].text, "#Brexit");
    }

    #[test]
    fn urls_survive() {
        let toks = tokenize("read https://example.com/a?b=1 now");
        assert_eq!(toks[1].kind, TokenKind::Url);
        assert_eq!(toks[1].text, "https://example.com/a?b=1");
        let toks = tokenize("see www.reuters.com.");
        assert_eq!(toks[1].kind, TokenKind::Url);
        assert_eq!(toks[1].text, "www.reuters.com");
        assert_eq!(toks[2].kind, TokenKind::Punct);
    }

    #[test]
    fn bare_word_starting_with_h_or_w_not_url() {
        let toks = tokenize("however winter");
        assert!(toks.iter().all(|t| t.kind == TokenKind::Word));
    }

    #[test]
    fn numbers_classified() {
        let toks = tokenize("tariffs rose 25 percent in 2019");
        assert_eq!(toks[2].kind, TokenKind::Number);
        assert_eq!(toks[5].kind, TokenKind::Number);
    }

    #[test]
    fn emoticons_detected() {
        let toks = tokenize("great news :) wow");
        assert_eq!(toks[2].kind, TokenKind::Emoticon);
    }

    #[test]
    fn punctuation_runs_grouped() {
        let toks = tokenize("what?! really...");
        assert_eq!(texts(&toks), vec!["what", "?!", "really", "..."]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn unicode_words() {
        let toks = tokenize("café naïve Zürich");
        assert_eq!(texts(&toks), vec!["café", "naïve", "Zürich"]);
    }

    #[test]
    fn word_tokens_lower_filters_and_lowercases() {
        let ws = word_tokens_lower("RT @user: Brexit VOTE #Politics http://t.co/x !");
        assert_eq!(ws, vec!["rt", "brexit", "vote", "politics"]);
    }

    #[test]
    fn stray_at_sign_is_punct() {
        let toks = tokenize("a @ b");
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    fn pairs(text: &str) -> Vec<(String, TokenKind)> {
        tokenize(text).into_iter().map(|t| (t.text, t.kind)).collect()
    }

    fn assert_tokens(cases: &[(&str, &[(&str, TokenKind)])]) {
        for (text, want) in cases {
            let want: Vec<(String, TokenKind)> =
                want.iter().map(|&(t, k)| (t.to_string(), k)).collect();
            assert_eq!(pairs(text), want, "tokens of {text:?}");
        }
    }

    /// Emoticon and URL prefixes cut off by the end of the text fall
    /// back to punctuation and words.
    #[test]
    fn truncated_emoticon_and_url_prefixes() {
        use TokenKind::*;
        assert_tokens(&[
            (":", &[(":", Punct)]),
            (":-", &[(":", Punct), ("-", Punct)]),
            (":'", &[(":", Punct), ("'", Punct)]),
            ("<", &[("<", Punct)]),
            ("htt", &[("htt", Word)]),
            ("http:", &[("http", Word), (":", Punct)]),
            ("http:/", &[("http", Word), (":/", Punct)]),
            ("www", &[("www", Word)]),
            ("www.", &[("www", Word), (".", Punct)]),
            ("https://", &[("https://", Url)]),
            ("www.ab", &[("www.ab", Url)]),
            (":oops", &[(":o", Emoticon), ("ops", Word)]),
        ]);
    }

    /// The probes compare chars, not bytes: a multi-byte neighbour
    /// neither hides nor fakes a prefix.
    #[test]
    fn prefixes_next_to_multibyte_chars() {
        use TokenKind::*;
        assert_tokens(&[
            ("é:)", &[("é", Word), (":)", Emoticon)]),
            ("hé:-)x", &[("hé", Word), (":-)", Emoticon), ("x", Word)]),
            ("wé", &[("wé", Word)]),
            ("wéé.x", &[("wéé", Word), (".", Punct), ("x", Word)]),
            ("http://é", &[("http://é", Url)]),
        ]);
    }

    #[test]
    fn hashtag_or_mention_right_after_emoticon() {
        use TokenKind::*;
        assert_tokens(&[
            (":)#tag", &[(":)", Emoticon), ("#tag", Hashtag)]),
            (":)@user", &[(":)", Emoticon), ("@user", Mention)]),
            (";)#Tag!", &[(";)", Emoticon), ("#Tag", Hashtag), ("!", Punct)]),
            ("<3@a", &[("<3", Emoticon), ("@a", Mention)]),
            (":-D#x", &[(":-D", Emoticon), ("#x", Hashtag)]),
            (":)#", &[(":)", Emoticon), ("#", Punct)]),
        ]);
    }

    #[test]
    fn no_token_contains_whitespace() {
        let toks = tokenize("mixed   input with\nnewlines\tand tabs");
        assert!(toks.iter().all(|t| !t.text.chars().any(char::is_whitespace)));
    }
}
