//! `qcp-overlay` — unstructured overlay simulation substrate.
//!
//! Section V of the paper backs its position with "a simple simulation":
//! a 40,000-node Gnutella network, objects placed either uniformly with a
//! fixed replica count or with the measured Zipf replica distribution, and
//! TTL-limited flooding. This crate is that simulator, built properly:
//!
//! * [`graph`] — compact CSR adjacency with degree/connectivity helpers;
//! * [`topology`] — generators: two-tier ultrapeer/leaf Gnutella,
//!   Erdős–Rényi, Barabási–Albert preferential attachment, and random
//!   regular graphs;
//! * [`placement`] — object→peer placement models: uniform-k replicas and
//!   power-law (Zipf) replica counts;
//! * [`flood`] — TTL-limited BFS flooding with message accounting and a
//!   reusable engine (epoch-stamped visit marks, zero per-query allocation
//!   in the hot path);
//! * [`batch`] — the bit-parallel batch census: up to 64 loss-free
//!   floods in one level-synchronous traversal, one bit per trial;
//! * [`walk`] — k-walker random walks;
//! * [`event`] — the calendar engine: one event-driven flood and one
//!   k-walker on the `qcp-vtime` calendar, with per-link latencies,
//!   per-message fault checks and deadline cutoffs, generic over how
//!   arrivals are delivered;
//! * [`overload`] — the queued delivery model: bounded per-node queues,
//!   per-node service rates on the Gia ladder, and load shedding (the
//!   `qcp-faults` `CapacityPlan` overload model);
//! * [`expanding`] — expanding-ring (iterative deepening) search;
//! * [`replicate`] — pluggable replication schemes (owner-only, path,
//!   random-walk, square-root/proportional allocation, Gia one-hop):
//!   deterministic `Placement → Placement` transforms under an exact
//!   extra-copy budget — the Figure-8 counterfactual;
//! * [`sim`] — parallel trial sweeps producing success-rate curves
//!   (Figure 8) with deterministic per-trial seeds;
//! * [`repair`] — self-healing maintenance: deterministic pruning of dead
//!   edges and degree-band re-wiring (the `repro soak` recovery loop).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod churn;
pub mod event;
pub mod expanding;
pub mod flood;
pub mod graph;
pub mod metrics;
pub mod overload;
pub mod placement;
pub mod repair;
pub mod replicate;
pub mod sim;
pub mod topology;
pub mod walk;

pub use batch::{BatchCensus, BatchLane, BatchOutcome, BATCH_LANES};
pub use churn::{fail_highest_degree, fail_random, ChurnedOverlay};
pub use event::{EventEngine, EventFloodOutcome, EventWalkOutcome};
pub use expanding::{expanding_ring_search, ExpandingOutcome};
pub use flood::{
    CensusBuf, CensusOutcome, FloodEngine, FloodFaults, FloodOutcome, FloodSpec, VisitedRepr,
    BITSET_THRESHOLD,
};
pub use graph::Graph;
pub use metrics::{graph_metrics, GraphMetrics};
pub use overload::OverloadOutcome;
pub use placement::{Placement, PlacementBuilder, PlacementModel};
pub use repair::{
    check_repair_invariants, repair_round, Attachment, Maintainer, MaintenancePolicy, RepairStats,
};
pub use replicate::{Popularity, ReplicationPlan, ReplicationScheme};
pub use sim::{
    sweep_reference, sweep_ttl, sweep_ttl_faulty, sweep_ttl_faulty_rec, sweep_ttl_rec, SimConfig,
    SweepPoint, TargetModel,
};
pub use topology::TopologyConfig;
pub use walk::{random_walk_search, WalkOutcome};
