//! `qcp-analysis` — the paper's measurement pipeline.
//!
//! This crate *is* the system the paper describes: given a file crawl and a
//! query trace (synthetic here, since the originals were never released),
//! it computes every distribution and similarity series in the evaluation:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig 1/2 — clients per object, raw & sanitized names | [`replication`] |
//! | Fig 3 — clients per name term | [`replication`] |
//! | Fig 4 — iTunes clients per song/genre/album/artist | [`annotations`] |
//! | Fig 5 — transiently popular query terms over time | [`transient`] |
//! | Fig 6 — popular-set stability (Jaccard) over time | [`stability`] |
//! | Fig 7 — query-term vs file-term similarity over time | [`mismatch`] |
//! | §III/§IV in-text claims (T1/T2) | [`summary`] |
//!
//! The pipeline consumes *strings with timestamps/peers* — never
//! generator-side ground truth — so the same code would run unchanged on
//! the real traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotations;
pub mod intervals;
pub mod mismatch;
pub mod popularity;
pub mod queries;
pub mod replication;
pub mod stability;
pub mod summary;
pub mod transient;

pub use annotations::AnnotationAnalysis;
pub use intervals::{IntervalCounts, IntervalIndex, QueryTerms};
pub use mismatch::{MismatchSeries, PopularFileTerms};
pub use popularity::PopularityRule;
pub use queries::QueryStringAnalysis;
pub use replication::{file_term_peer_counts, ReplicationAnalysis, TermReplicationAnalysis};
pub use stability::StabilitySeries;
pub use summary::{CrawlSummary, QuerySummary};
pub use transient::{TransientConfig, TransientSeries};
