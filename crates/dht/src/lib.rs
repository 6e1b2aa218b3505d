//! `qcp-dht` — a Chord-style structured overlay simulator.
//!
//! Hybrid P2P systems (the paper's §V and its refs \[5\], \[20\], \[21\]) fall
//! back to a DHT when the unstructured flood fails. To evaluate that
//! crossover honestly the reproduction needs a real structured substrate:
//!
//! * [`ring`] — 64-bit identifier-ring arithmetic;
//! * [`chord`] — the ring network: sorted node ids, per-node finger
//!   tables, greedy `O(log n)` lookup with hop accounting, and node
//!   join/leave;
//! * [`pastry`] — Pastry-style base-16 prefix routing with leaf sets
//!   (the paper's ref \[1\]), for structured-overlay comparisons;
//! * [`index`] — a distributed inverted keyword index over the ring
//!   (term → posting list at `successor(hash(term))`), with multi-term
//!   AND queries and message-cost accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod index;
pub mod pastry;
pub mod ring;

pub use chord::{
    ChordNetwork, FaultyLookupResult, LookupResult, TimedLookupResult, DEFAULT_SUCC_LEN,
};
pub use index::{DhtIndex, DhtQueryOutcome, TimedQueryOutcome};
pub use pastry::{PastryNetwork, RouteResult};
pub use ring::{distance_cw, in_interval_oc, key_for_name, key_for_term};
