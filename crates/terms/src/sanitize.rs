//! Filename sanitization (the paper's Figure 2 transform).
//!
//! "We also sanitized the file names by removing capitalization and special
//! characters such as dashes" — after sanitization, two names are replicas
//! of the same object iff the sanitized strings are identical. Sanitizing
//! merges e.g. `"Aaron Neville - I Don't Know Much.MP3"` and
//! `"aaron neville i dont know much.mp3"`.

use crate::tokenize::{for_each_token_with, TokenizerConfig};

/// Sanitizes an object name: lower-cases, treats every non-alphanumeric
/// character as a separator, collapses separator runs to a single space,
/// and trims. The result is a canonical form for replica matching:
///
/// ```
/// use qcp_terms::sanitize_name;
///
/// assert_eq!(sanitize_name("Artist - Song.mp3"), "artist song mp3");
/// assert_eq!(sanitize_name("ARTIST_SONG.mp3"), "artist song mp3");
/// ```
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    sanitize_into(name, &mut out);
    out
}

/// [`sanitize_name`] into a caller-owned buffer, which is cleared first;
/// a loop over many names reuses one allocation.
///
/// The sanitized name is the protocol tokenization with every token kept
/// (`min_len` 1) joined by single spaces.
pub fn sanitize_into(name: &str, out: &mut String) {
    out.clear();
    let every_token = TokenizerConfig {
        min_len: 1,
        lowercase: true,
        drop_numeric: false,
    };
    for_each_token_with(name, every_token, |token| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_separates_punctuation() {
        assert_eq!(
            sanitize_name("Aaron Neville - I Don't Know Much.MP3"),
            "aaron neville i don t know much mp3"
        );
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(sanitize_name("too   many    spaces"), "too many spaces");
    }

    #[test]
    fn trims_leading_and_trailing_separators() {
        assert_eq!(sanitize_name("  -- hello --  "), "hello");
    }

    #[test]
    fn merges_case_variants() {
        let a = sanitize_name("Like A Prayer");
        let b = sanitize_name("like a PRAYER");
        assert_eq!(a, b);
    }

    #[test]
    fn merges_dash_variants() {
        let a = sanitize_name("Artist - Song.mp3");
        let b = sanitize_name("Artist Song.mp3");
        assert_eq!(a, b);
    }

    #[test]
    fn does_not_merge_genuinely_different_names() {
        assert_ne!(
            sanitize_name("Aaron Neville - Don't Know Much"),
            sanitize_name("Aaron Neville - I Don't Know Much")
        );
    }

    #[test]
    fn punctuation_inside_words_becomes_separator() {
        assert_eq!(sanitize_name("AC/DC"), "ac dc");
        assert_eq!(sanitize_name("don't"), "don t");
    }

    #[test]
    fn separator_style_variants_all_merge() {
        let a = sanitize_name("Artist - Song.mp3");
        let b = sanitize_name("artist_song.MP3");
        let c = sanitize_name("ARTIST.SONG.mp3");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a, "artist song mp3");
    }

    #[test]
    fn empty_and_symbol_only() {
        assert_eq!(sanitize_name(""), "");
        assert_eq!(sanitize_name("!!!"), "");
    }

    #[test]
    fn unicode_preserved() {
        assert_eq!(sanitize_name("Björk — Jóga"), "björk jóga");
    }

    #[test]
    fn idempotent() {
        let once = sanitize_name("Some -- Name.MP3");
        let twice = sanitize_name(&once);
        assert_eq!(once, twice);
    }
}
