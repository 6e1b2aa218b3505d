//! Shared substrate for the `qcp2p` workspace.
//!
//! This crate provides the low-level building blocks that every other crate
//! in the reproduction leans on:
//!
//! * [`hash`] — an Fx-style multiply-xor hasher plus `FxHashMap`/`FxHashSet`
//!   aliases; keys in the measurement pipeline are small integers and short
//!   interned strings, for which SipHash is needlessly slow (see the Rust
//!   Performance Book, "Hashing").
//! * [`rng`] — deterministic `SplitMix64` and `Pcg64` generators, so every
//!   experiment is reproducible from a single `u64` seed and can derive
//!   independent child streams.
//! * [`stats`] — descriptive statistics, percentiles and ordinary
//!   least-squares regression (used for log-log Zipf fits).
//! * [`hist`] — histograms, rank-frequency series and CCDFs, the raw
//!   material for every figure in the paper.
//! * [`jaccard`] — the set-similarity index used throughout Section IV of
//!   the paper.
//! * [`intern`] — a string interner so term-level analysis works on dense
//!   `u32` symbols instead of heap strings.
//! * [`table`] — CSV and aligned-text emission for experiment reports.
//! * [`plot`] — ASCII scatter/line plots with optional log axes, used by the
//!   `repro` binary to render figures in the terminal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod hist;
pub mod intern;
pub mod jaccard;
pub mod plot;
pub mod rng;
pub mod stats;
pub mod table;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hist::{ccdf, rank_counts, Histogram};
pub use intern::{Interner, Symbol};
pub use jaccard::{jaccard_sets, jaccard_sorted};
pub use rng::{Pcg64, SplitMix64};
pub use stats::{linear_fit, Summary};
pub use table::Table;
