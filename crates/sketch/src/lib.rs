//! `qcp-sketch` — probabilistic set sketches.
//!
//! The paper's position (Section VII and the authors' follow-up work, their
//! ref \[9\]) is that unstructured overlays should carry per-peer *synopses*
//! of content, adapted to observed query-term popularity. This crate
//! provides the synopsis machinery:
//!
//! * [`bloom`] — plain Bloom filters with double hashing;
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
pub mod synopsis;

/// Domain tag for the second probe hash of [`BloomFilter`]'s double
/// hashing (the splitmix64 golden gamma). Every Bloom filter in the
/// crate, attenuated levels included, probes through it, so changing it
/// moves every synopsis and QRP answer.
pub(crate) const PROBE_H2_TAG: u64 = 0x9e37_79b9_7f4a_7c15;

pub use attenuated::AttenuatedBloom;
pub use bloom::BloomFilter;
pub use synopsis::{SynopsisBudget, TermSynopsis};
