//! `qcp-search` — search systems over unstructured overlays.
//!
//! Everything Section V of the paper reasons about, as runnable systems
//! sharing one interface:
//!
//! * [`world`] — the shared simulation world: topology, object placement,
//!   per-object term sets, inverted posting lists, and a query workload
//!   model with the planted query/file popularity mismatch;
//! * [`systems`] — the [`SearchSystem`] trait and the unstructured
//!   baselines (TTL flooding, k-walker random walks, expanding ring) as
//!   one [`UnstructuredSearch`] system;
//! * [`spec`] — the unified [`SearchSpec`] builder: the sole entry
//!   point for every baseline system, with optional fault contexts,
//!   maintenance schedules, replication plans, and instrumentation
//!   recorders;
//! * [`gia`] — the Gia baseline (paper ref \[17\]): capacity-weighted
//!   topology roles, one-hop replication, biased walks;
//! * [`hybrid`] — the DHT-backed systems as one [`DhtSearch`]: pure
//!   Chord inverted-index search, and flood-then-DHT hybrid search with
//!   the Loo et al. rare-query rule (paper ref \[5\]), whose flood phase
//!   is the flood strategy's run;
//! * [`advertise`] — ASAP-style advertisement-based search (paper ref
//!   \[21\]): content pushed ahead of queries, the content-centric push
//!   counterpart to the synopsis pull;
//! * [`qrp`] — Gnutella's deployed Query Routing Protocol: leaf keyword
//!   tables gating flood deliveries (prunes misses; cannot create hits);
//! * [`synopsis`] — synopsis-directed walks with two weighting policies:
//!   content-centric (advertise what you store) and **query-centric**
//!   (advertise what users ask for) — the paper's position, plus the
//!   adaptive variant that re-weights from the observed query stream;
//! * [`eval`] — a workload evaluator that runs the same query set through
//!   every system and tabulates success rates and message costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advertise;
pub mod eval;
pub mod gia;
pub mod hybrid;
pub mod qrp;
pub mod spec;
pub mod synopsis;
pub mod systems;
pub mod world;

pub use advertise::AdvertiseSearch;
pub use eval::{evaluate, gen_queries, ComparisonRow, WorkloadConfig};
pub use gia::GiaSearch;
pub use hybrid::DhtSearch;
pub use qcp_faults::{CapacityConfig, CapacityModel, CapacityPlan, ShedPolicy};
pub use qcp_overlay::{Popularity, ReplicationPlan, ReplicationScheme};
pub use qrp::QrpFloodSearch;
pub use spec::{Built, SearchSpec};
pub use synopsis::{SynopsisPolicy, SynopsisSearch};
pub use systems::{
    FaultContext, MaintenanceSchedule, OverloadStats, SearchOutcome, SearchSystem,
    UnstructuredSearch,
};
pub use world::{QuerySpec, SearchWorld, WorldConfig};
