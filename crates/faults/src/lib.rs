//! `qcp-faults` — the deterministic fault-injection layer.
//!
//! The paper's §V conclusion (hybrid flood+DHT search is strictly worse
//! than DHT-only under Zipf replica placement, Figure 8) is derived on a
//! *perfect* network. Its companion work on fault-tolerant overlays (the
//! paper's ref \[14\]) and the replication surveys in PAPERS.md treat
//! failure-resilience as the defining property of unstructured search —
//! so this crate supplies the machinery to stress every reproduced
//! number:
//!
//! * [`plan`] — the seeded [`FaultPlan`]: per-edge message-drop
//!   probabilities, a per-link latency model, and a node up/down
//!   *session schedule* that fires mid-workload;
//! * [`capacity`] — the seeded [`CapacityPlan`]: heterogeneous per-node
//!   service rates on the Gia ladder, bounded FIFO queues with
//!   pluggable shedding policies, and token-style admission control —
//!   the deterministic overload model;
//! * [`stats`] — [`FaultStats`] degraded-mode accounting (drops, dead
//!   targets, retries, timeouts, staleness misses, elapsed ticks) and
//!   the [`RetryPolicy`] bounded-retry-with-exponential-backoff
//!   contract.
//!
//! # Determinism contract
//!
//! Every fault decision is a **pure function** of `(plan seed, edge,
//! message nonce)` or `(plan seed, node, time)` — computed by stateless
//! hashing, never by drawing from a shared mutable RNG. Consequences:
//!
//! * the same seed reproduces the same faults bit-for-bit, run after run;
//! * fault draws are independent of traversal order, chunking, and thread
//!   count, so parallel sweeps stay bit-identical across pool widths;
//! * a [`FaultPlan::none`](plan::FaultPlan::none) plan (loss = 0,
//!   churn = 0) drops nothing and kills nobody, so fault-aware code paths
//!   reproduce the fault-free numbers *exactly* (pinned down by
//!   `tests/determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod plan;
pub mod stats;

pub use capacity::{CapacityConfig, CapacityModel, CapacityPlan, ShedPolicy};
pub use plan::{FaultConfig, FaultPlan};
pub use stats::{FaultStats, RetryPolicy};
