//! Gnutella-protocol tokenization.
//!
//! The Gnutella v0.6 query-routing specification tokenizes names and query
//! strings by splitting on any character that is not alphanumeric, then
//! lower-casing. Multi-byte UTF-8 letters (the crawl in the paper observed
//! UTF-8 names) are kept: any Unicode alphanumeric counts as token content.
//! Tokens shorter than a configurable minimum are dropped, mirroring the
//! QRP rule that ignores very short words.

/// Tokenizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TokenizerConfig {
    /// Minimum token length in characters; shorter tokens are dropped.
    pub min_len: usize,
    /// Whether tokens are lower-cased (the protocol behaviour).
    pub lowercase: bool,
    /// Whether pure-numeric tokens are dropped (track numbers, bitrates —
    /// the paper's "0 Track" example shows these carry no identity).
    pub drop_numeric: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            min_len: 2,
            lowercase: true,
            drop_numeric: false,
        }
    }
}

/// Tokenizes with the default (protocol) configuration.
///
/// ```
/// use qcp_terms::tokenize;
///
/// assert_eq!(
///     tokenize("Aaron Neville - I Don't Know Much.mp3"),
///     vec!["aaron", "neville", "don", "know", "much", "mp3"]
/// );
/// ```
pub fn tokenize(input: &str) -> Vec<String> {
    tokenize_with(input, TokenizerConfig::default())
}

/// Tokenizes `input` according to `config`.
pub fn tokenize_with(input: &str, config: TokenizerConfig) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token_with(input, config, |t| tokens.push(t.to_string()));
    tokens
}

/// Calls `f` with each token of `input` under `config`, in order.
///
/// A token that the configuration leaves unchanged (no case to fold) is
/// passed as a slice of `input`; the others are built in one buffer that
/// every token of the call reuses, so the call allocates at most that
/// buffer. ASCII characters take a fast path (`is_ascii_alphanumeric`,
/// `to_ascii_lowercase`), which is exact because those agree with the
/// Unicode predicates on ASCII; every other character goes through
/// `char::is_alphanumeric` and `char::to_lowercase`. `min_len` counts
/// the token's characters after lower-casing.
///
/// ```
/// use qcp_terms::tokenize::{for_each_token_with, TokenizerConfig};
///
/// let mut terms = Vec::new();
/// for_each_token_with("AC/DC - Back in Black", TokenizerConfig::default(), |t| {
///     terms.push(t.len())
/// });
/// assert_eq!(terms, vec![2, 2, 4, 2, 5]);
/// ```
pub fn for_each_token_with<F: FnMut(&str)>(input: &str, config: TokenizerConfig, mut f: F) {
    let mut token = Token::default();
    for (at, ch) in input.char_indices() {
        if ch.is_ascii() {
            if !ch.is_ascii_alphanumeric() {
                token.end(input, at, config, &mut f);
            } else if config.lowercase && ch.is_ascii_uppercase() {
                token.push_changed(input, at, ch.to_ascii_lowercase());
            } else {
                token.push_same(at, ch, ch.is_ascii_digit());
            }
        } else if !ch.is_alphanumeric() {
            token.end(input, at, config, &mut f);
        } else if !config.lowercase {
            token.push_same(at, ch, ch.is_numeric());
        } else {
            let mut lower = ch.to_lowercase();
            let first = lower.next();
            if first == Some(ch) && lower.len() == 0 {
                token.push_same(at, ch, ch.is_numeric());
            } else {
                for lc in first.into_iter().chain(lower) {
                    token.push_changed(input, at, lc);
                }
            }
        }
    }
    token.end(input, input.len(), config, &mut f);
}

/// The token being scanned: a slice of the input until a character
/// changes under lower-casing, then a copy in `text`.
#[derive(Default)]
struct Token {
    /// Byte offset of the token's first character (meaningful when `chars > 0`).
    start: usize,
    /// Whether the token lives in `text` rather than in the input.
    copied: bool,
    /// The lower-cased copy (when `copied`).
    text: String,
    /// Characters so far, after lower-casing.
    chars: usize,
    /// Whether every character so far is numeric.
    numeric: bool,
}

// `#[inline]` on the per-character methods: `for_each_token_with` is
// generic, so it is compiled in each caller's crate, where these would
// otherwise be out-of-line calls.
impl Token {
    /// Appends input character `ch` at byte `at`, unchanged.
    #[inline]
    fn push_same(&mut self, at: usize, ch: char, numeric: bool) {
        self.begin(at);
        if self.copied {
            self.text.push(ch);
        }
        self.chars += 1;
        self.numeric &= numeric;
    }

    /// Appends `ch`, a changed form of the input character at byte `at`.
    #[inline]
    fn push_changed(&mut self, input: &str, at: usize, ch: char) {
        self.begin(at);
        if !self.copied {
            self.text.clear();
            self.text.push_str(&input[self.start..at]);
            self.copied = true;
        }
        self.text.push(ch);
        self.chars += 1;
        self.numeric &= ch.is_numeric();
    }

    #[inline]
    fn begin(&mut self, at: usize) {
        if self.chars == 0 {
            self.start = at;
            self.numeric = true;
        }
    }

    /// Ends the token at byte `at` (if one is open) and passes it to `f`
    /// unless `config` drops it.
    fn end<F: FnMut(&str)>(&mut self, input: &str, at: usize, config: TokenizerConfig, f: &mut F) {
        if self.chars == 0 {
            return;
        }
        if self.chars >= config.min_len && !(config.drop_numeric && self.numeric) {
            f(if self.copied {
                &self.text
            } else {
                &input[self.start..at]
            });
        }
        self.chars = 0;
        self.copied = false;
    }
}

/// Tokenizes and deduplicates, preserving first-occurrence order — the term
/// *set* of a name, which is what annotation-level analysis counts.
pub fn token_set(input: &str) -> Vec<String> {
    let mut seen = qcp_util::FxHashSet::default();
    tokenize(input)
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let t = tokenize("Aaron Neville - I Don't Know Much.mp3");
        assert_eq!(t, vec!["aaron", "neville", "don", "know", "much", "mp3"]);
    }

    #[test]
    fn single_char_tokens_dropped_by_default() {
        let t = tokenize("a b cd");
        assert_eq!(t, vec!["cd"]);
    }

    #[test]
    fn lowercases_by_default() {
        let t = tokenize("MADONNA Like A Prayer");
        assert_eq!(t, vec!["madonna", "like", "prayer"]);
    }

    #[test]
    fn preserves_case_when_configured() {
        let cfg = TokenizerConfig {
            lowercase: false,
            ..Default::default()
        };
        let t = tokenize_with("MiXeD Case", cfg);
        assert_eq!(t, vec!["MiXeD", "Case"]);
    }

    #[test]
    fn utf8_names_tokenize() {
        let t = tokenize("Björk — Jóga.mp3");
        assert_eq!(t, vec!["björk", "jóga", "mp3"]);
    }

    #[test]
    fn numerics_kept_by_default_dropped_on_request() {
        assert_eq!(tokenize("01 Track 128kbps"), vec!["01", "track", "128kbps"]);
        let cfg = TokenizerConfig {
            drop_numeric: true,
            ..Default::default()
        };
        assert_eq!(
            tokenize_with("01 Track 128kbps", cfg),
            vec!["track", "128kbps"]
        );
    }

    #[test]
    fn empty_and_separator_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ... ///").is_empty());
    }

    #[test]
    fn min_len_counts_chars_not_bytes() {
        // 'é' is 2 bytes but 1 char; "éa" has 2 chars and must survive.
        let t = tokenize("éa x");
        assert_eq!(t, vec!["éa"]);
    }

    #[test]
    fn token_set_deduplicates_preserving_order() {
        let t = token_set("la la land la");
        assert_eq!(t, vec!["la", "land"]);
    }

    #[test]
    fn apostrophes_split_words() {
        // Gnutella treats ' as a separator: "don't" -> "don", "t" (dropped).
        let t = tokenize("don't");
        assert_eq!(t, vec!["don"]);
    }
}
