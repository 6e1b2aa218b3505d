//! `qcp-terms` — tokenization, sanitization and term dictionaries.
//!
//! Section II of the paper works at the granularity of *terms*: Gnutella
//! object names are split "using the Gnutella protocol tokenization
//! mechanism", sanitized variants remove capitalization and special
//! characters (Figure 2), and queries match objects when every query term
//! appears in the object's name (Gnutella AND semantics).
//!
//! * [`tokenize`](mod@tokenize) — the protocol tokenizer (UTF-8 aware, splits on
//!   non-alphanumeric separators, drops extensions-like noise only via the
//!   configurable minimum length);
//! * [`sanitize`] — the Figure-2 name sanitizer;
//! * [`dict`] — interned term dictionaries with per-term occurrence and
//!   peer counts;
//! * [`query`] — query representation and AND-matching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dict;
pub mod query;
pub mod sanitize;
pub mod tokenize;

pub use dict::TermDict;
pub use query::{matches_all_terms, Query};
pub use sanitize::{sanitize_into, sanitize_name};
pub use tokenize::{for_each_token_with, tokenize, tokenize_with, TokenizerConfig};
