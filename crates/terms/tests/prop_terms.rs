//! Property tests tying the tokenizer, sanitizer and matcher together.

use proptest::prelude::*;
use qcp_terms::{
    for_each_token_with, matches_all_terms, sanitize_name, tokenize, Query, TermDict,
    TokenizerConfig,
};

/// The allocating tokenizer that `for_each_token_with` replaced, kept
/// verbatim as the oracle.
fn oracle_tokenize_with(input: &str, config: TokenizerConfig) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in input.chars() {
        if ch.is_alphanumeric() {
            if config.lowercase {
                current.extend(ch.to_lowercase());
            } else {
                current.push(ch);
            }
        } else if !current.is_empty() {
            oracle_push_token(&mut tokens, std::mem::take(&mut current), config);
        }
    }
    if !current.is_empty() {
        oracle_push_token(&mut tokens, current, config);
    }
    tokens
}

fn oracle_push_token(tokens: &mut Vec<String>, token: String, config: TokenizerConfig) {
    if token.chars().count() < config.min_len {
        return;
    }
    if config.drop_numeric && token.chars().all(|c| c.is_numeric()) {
        return;
    }
    tokens.push(token);
}

/// The character loop that `sanitize_name` replaced, kept as the oracle.
fn oracle_sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut pending_space = false;
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.extend(ch.to_lowercase());
        } else {
            pending_space = true;
        }
    }
    out
}

/// Every `TokenizerConfig`: `min_len` 1–3 × `lowercase` × `drop_numeric`.
fn all_configs() -> Vec<TokenizerConfig> {
    let mut configs = Vec::new();
    for min_len in 1..=3 {
        for lowercase in [false, true] {
            for drop_numeric in [false, true] {
                configs.push(TokenizerConfig {
                    min_len,
                    lowercase,
                    drop_numeric,
                });
            }
        }
    }
    configs
}

fn streamed(input: &str, config: TokenizerConfig) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token_with(input, config, |t| tokens.push(t.to_string()));
    tokens
}

/// Characters that stress the two tokenizer paths: ASCII letters of both
/// cases, digits and separators, letters whose lower case expands ('İ')
/// or changes script block ('ẞ', 'K' Kelvin), Greek capital sigma,
/// non-ASCII digits and numerals with case ('٣', 'Ⅻ'), caseless letters,
/// combining marks and non-ASCII separators.
const POOL: &[char] = &[
    'a', 'Z', 'q', 'M', '0', '7', ' ', '-', '.', '\'', '_', 'İ', 'ẞ', 'ß', 'Σ', 'σ', 'ς',
    '\u{212a}', 'é', 'É', '٣', 'Ⅻ', 'ⅻ', '²', '中', '\u{0301}', '\u{00a0}', '—', '🎵', 'Ǆ',
];

fn check_all_configs(input: &str) -> Result<(), TestCaseError> {
    for config in all_configs() {
        prop_assert_eq!(
            streamed(input, config),
            oracle_tokenize_with(input, config),
            "input {:?} config {:?}",
            input,
            config
        );
    }
    prop_assert_eq!(sanitize_name(input), oracle_sanitize_name(input));
    Ok(())
}

#[test]
fn streamed_tokenizer_matches_the_oracle_on_hand_cases() {
    for input in [
        "",
        "İstanbul",
        "İ",
        "xİ",
        "İİ 2İ",
        "STRAẞE straße",
        "ΣΟΦΙΑ σοφία ΟΔΟΣ",
        "Σ",
        "\u{212a}elvin",
        "01 Track 128kbps",
        "٣٤ 12 ⅫⅫ Ⅻa",
        "Björk — Jóga.mp3",
        "MiXeD/ÄSCII-ünd ÜTF8",
        "abcDEF ghi",
        "a b cd",
        "中文 日本語",
        "e\u{0301}clair",
        "ǄEMAL",
        "🎵🎵 a🎵b",
    ] {
        check_all_configs(input).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The streamed tokenizer and the sanitizer built on it give the
    /// oracle's tokens under every configuration, over strings mixing
    /// the stress pool with ASCII and separators.
    #[test]
    fn streamed_tokenizer_matches_the_oracle(picks in proptest::collection::vec(0usize..POOL.len(), 0..40)) {
        let input: String = picks.iter().map(|&i| POOL[i]).collect();
        check_all_configs(&input)?;
    }

    /// The same over arbitrary code points (every plane) and the `.`
    /// pattern's printable mix.
    #[test]
    fn streamed_tokenizer_matches_the_oracle_on_any_unicode(
        codes in proptest::collection::vec(any::<u32>(), 0..24),
        dotted in ".{0,60}",
    ) {
        let input: String = codes
            .iter()
            .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect();
        check_all_configs(&input)?;
        check_all_configs(&dotted)?;
        check_all_configs(&(input + &dotted))?;
    }

    /// Sanitization and tokenization are the same normalization at
    /// different granularities: tokenizing the sanitized name yields
    /// exactly the tokens of the raw name.
    #[test]
    fn tokenize_commutes_with_sanitize(name in ".{0,100}") {
        prop_assert_eq!(tokenize(&sanitize_name(&name)), tokenize(&name));
    }

    /// A query built from an object's own name always matches that object
    /// (provided the name produced at least one token).
    #[test]
    fn self_query_always_matches(name in "[a-zA-Z0-9 .'_-]{2,60}") {
        let mut dict = TermDict::new();
        let mut object: Vec<_> = tokenize(&name).iter().map(|t| dict.intern(t)).collect();
        object.sort_unstable();
        object.dedup();
        let query = Query::parse(&name, |t| dict.intern(t));
        if !query.is_empty() {
            prop_assert!(query.matches(&object), "query from '{}' must match itself", name);
        }
    }

    /// Adding terms to a query can only shrink its match set.
    #[test]
    fn query_matching_is_antitone_in_terms(
        object in proptest::collection::vec(0u32..50, 1..20),
        query in proptest::collection::vec(0u32..50, 1..10),
        extra in 0u32..50,
    ) {
        use qcp_util::Symbol;
        let mut obj: Vec<Symbol> = object.iter().map(|&x| Symbol(x)).collect();
        obj.sort_unstable();
        obj.dedup();
        let mut q: Vec<Symbol> = query.iter().map(|&x| Symbol(x)).collect();
        q.sort_unstable();
        q.dedup();
        let mut q_more = q.clone();
        if let Err(pos) = q_more.binary_search(&Symbol(extra)) {
            q_more.insert(pos, Symbol(extra));
        }
        // If the larger query matches, the smaller must too.
        if matches_all_terms(&q_more, &obj) {
            prop_assert!(matches_all_terms(&q, &obj));
        }
    }

    /// Dictionary counting is exact regardless of interleaving.
    #[test]
    fn dict_occurrence_counts_are_exact(terms in proptest::collection::vec("[a-z]{2,6}", 1..100)) {
        let mut dict = TermDict::new();
        for t in &terms {
            dict.observe(t);
        }
        let mut expected: std::collections::HashMap<&str, u64> = Default::default();
        for t in &terms {
            *expected.entry(t.as_str()).or_insert(0) += 1;
        }
        for (t, &count) in &expected {
            let sym = dict.get(t).unwrap();
            prop_assert_eq!(dict.occurrences(sym), count);
        }
        prop_assert_eq!(dict.len(), expected.len());
    }

    /// top_by_occurrence is sorted by count descending.
    #[test]
    fn top_terms_sorted_by_count(terms in proptest::collection::vec("[a-c]{2}", 1..60)) {
        let mut dict = TermDict::new();
        for t in &terms {
            dict.observe(t);
        }
        let top = dict.top_by_occurrence(dict.len());
        for w in top.windows(2) {
            prop_assert!(dict.occurrences(w[0]) >= dict.occurrences(w[1]));
        }
    }
}
