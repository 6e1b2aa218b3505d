//! `qcp-sketch` — probabilistic set sketches.
//!
//! The paper's position (Section VII and the authors' follow-up work, their
//! ref \[9\]) is that unstructured overlays should carry per-peer *synopses*
//! of content, adapted to observed query-term popularity. This crate
//! provides the synopsis machinery:
//!
//! * [`bloom`] — plain Bloom filters with double hashing;
//! * [`counting`] — counting Bloom filters supporting removal (needed when
//!   synopses are rebuilt incrementally as content churns);
//! * [`attenuated`] — attenuated (multi-level) Bloom filters summarizing
//!   content at increasing hop distances, the classic unstructured-routing
//!   hint structure;
//! * [`synopsis`] — a budgeted, weight-aware term synopsis: given a space
//!   budget, admits the highest-weight terms first. The *query-centric*
//!   search system weights terms by query popularity rather than by local
//!   frequency — that single difference is the paper's thesis, made code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attenuated;
pub mod bloom;
pub mod counting;
pub mod synopsis;

/// Domain tag for the second probe hash of the double-hashed Bloom
/// variants (the splitmix64 golden gamma). `BloomFilter` and
/// `CountingBloom` share it *deliberately*: a counting filter sized
/// like a plain filter must probe the same cells for the same key, so
/// membership answers agree between the two representations.
pub(crate) const PROBE_H2_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

pub use attenuated::AttenuatedBloom;
pub use bloom::BloomFilter;
pub use counting::CountingBloom;
pub use synopsis::{SynopsisBudget, TermSynopsis};
