//! The unified search-system builder: one [`SearchSpec`] entry point
//! replacing the `new`/`with_faults` constructor pairs.
//!
//! ```
//! use qcp_search::{SearchSpec, SearchSystem};
//! use qcp_search::world::{SearchWorld, WorldConfig};
//! use qcp_util::rng::Pcg64;
//!
//! let world = SearchWorld::generate(&WorldConfig {
//!     num_peers: 200,
//!     num_objects: 1_000,
//!     num_terms: 2_000,
//!     head_size: 40,
//!     seed: 7,
//!     ..Default::default()
//! });
//! let mut flood = SearchSpec::flood(3).build(&world);
//! let mut rng = Pcg64::new(1);
//! let q = world.sample_query(&mut rng);
//! let out = flood.search(&world, &q, &mut rng);
//! assert!(out.messages > 0 || out.success);
//! ```
//!
//! Attach a fault context with [`SearchSpec::faults`], a repair schedule
//! with [`SearchSpec::maintenance`] (DHT-backed systems only), and an
//! instrumentation recorder with [`SearchSpec::recorder`]:
//!
//! ```ignore
//! let sys = SearchSpec::hybrid(2, 5, 42)
//!     .faults(ctx)
//!     .maintenance(MaintenanceSchedule::every(20))
//!     .recorder(MetricsRecorder::new())
//!     .build(&world);
//! ```
//!
//! The builder is the sole entry point (the `new`/`with_faults`
//! constructor pairs it replaced are gone); building is deterministic —
//! two identical specs produce bitwise-identical systems (pinned by
//! `rebuilds_are_bitwise_identical`).
//!
//! [`SearchSpec::replication`] attaches a replication plan to the
//! unstructured kinds: the built system searches over the plan's
//! replicated placement, records the plan's budget as `CopiesPlaced`,
//! and counts `CopiesHit` — queries that succeed against the replicated
//! placement but would have missed against the owner-only base.

use crate::hybrid::{DhtOnlySearch, HybridSearch};
use crate::systems::{
    FaultContext, MaintenanceSchedule, SearchOutcome, SearchSystem, Strategy, UnstructuredSearch,
};
use crate::world::{QuerySpec, SearchWorld};
use qcp_faults::CapacityPlan;
use qcp_obs::{NoopRecorder, Recorder};
use qcp_overlay::ReplicationPlan;
use qcp_util::rng::Pcg64;
use qcp_vtime::Deadline;

/// Which system a [`SearchSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Flooding, k-walker random walks or iterative-deepening rings.
    Unstructured(Strategy),
    /// Flood-then-DHT hybrid.
    Hybrid {
        flood_ttl: u32,
        rare_threshold: u32,
        seed: u64,
    },
    /// Pure structured search.
    DhtOnly { seed: u64 },
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Unstructured(strategy) => strategy.kind_name(),
            Kind::Hybrid { .. } => "hybrid",
            Kind::DhtOnly { .. } => "dht-only",
        }
    }
}

/// Builder for every search system in the crate's baseline suite.
///
/// Start from a kind constructor ([`Self::flood`], [`Self::walk`],
/// [`Self::expanding_ring`], [`Self::hybrid`], [`Self::dht_only`]),
/// chain optional attachments, then [`Self::build`] against a world.
/// The recorder defaults to [`NoopRecorder`], which monomorphizes all
/// instrumentation away — an unrecorded build is exactly the
/// pre-observability system.
#[derive(Debug)]
pub struct SearchSpec<R: Recorder = NoopRecorder> {
    kind: Kind,
    faults: Option<FaultContext>,
    maintenance: Option<MaintenanceSchedule>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    replication: Option<ReplicationPlan>,
    recorder: R,
}

impl SearchSpec<NoopRecorder> {
    fn of(kind: Kind) -> Self {
        Self {
            kind,
            faults: None,
            maintenance: None,
            deadline: None,
            capacity: None,
            replication: None,
            recorder: NoopRecorder,
        }
    }

    /// Gnutella-style flooding with the given TTL.
    pub fn flood(ttl: u32) -> Self {
        Self::of(Kind::Unstructured(Strategy::Flood { ttl }))
    }

    /// `walkers` random walkers of `ttl` steps each.
    pub fn walk(walkers: usize, ttl: u32) -> Self {
        Self::of(Kind::Unstructured(Strategy::Walk { walkers, ttl }))
    }

    /// Expanding-ring (iterative deepening) floods up to `max_ttl`.
    pub fn expanding_ring(max_ttl: u32) -> Self {
        Self::of(Kind::Unstructured(Strategy::Ring { max_ttl }))
    }

    /// Flood-then-DHT hybrid (Loo et al. rare-query rule).
    pub fn hybrid(flood_ttl: u32, rare_threshold: u32, seed: u64) -> Self {
        Self::of(Kind::Hybrid {
            flood_ttl,
            rare_threshold,
            seed,
        })
    }

    /// Pure structured (Chord inverted-index) search.
    pub fn dht_only(seed: u64) -> Self {
        Self::of(Kind::DhtOnly { seed })
    }
}

impl<R: Recorder> SearchSpec<R> {
    /// Runs the system under `faults`: flood/walk phases are
    /// fire-and-forget, DHT phases request/response with
    /// retry/backoff per `faults.policy`.
    pub fn faults(mut self, faults: FaultContext) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a mid-workload repair schedule. Only the DHT-backed
    /// kinds ([`Self::hybrid`], [`Self::dht_only`]) run repair passes;
    /// [`Self::build`] rejects the attachment on any other kind.
    pub fn maintenance(mut self, schedule: MaintenanceSchedule) -> Self {
        self.maintenance = Some(schedule);
        self
    }

    /// Attaches a virtual-time deadline: the system answers with
    /// whatever it has by `deadline.ticks` ticks into each query and
    /// reports `deadline_exceeded` when the clock — not the search —
    /// ended it. Deadline queries run on the calendar engine, so a
    /// fault context is required ([`Self::build`] rejects a deadline
    /// without one); attach `FaultPlan::none` for a pure-latency run.
    ///
    /// [`FaultPlan::none`]: qcp_faults::FaultPlan::none
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a capacity plan: every node serves its queue at the
    /// plan's per-node rate behind a bounded FIFO, overflow is shed by
    /// the plan's policy, and query ingress passes token-style admission
    /// control. Outcomes gain [`OverloadStats`] and compose with
    /// [`Self::deadline`] best-so-far answers. Capacity runs on the
    /// calendar engine, so it requires both a fault context and a deadline
    /// ([`Self::build`] rejects anything less); an
    /// [`unlimited`](CapacityPlan::unlimited) plan is bitwise the plain
    /// deadline path.
    ///
    /// [`OverloadStats`]: crate::systems::OverloadStats
    pub fn capacity(mut self, capacity: CapacityPlan) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Attaches a replication plan: [`Self::build`] applies the plan's
    /// scheme to the world's placement once (an exact-budget,
    /// deterministic `Placement → Placement` transform — see
    /// [`ReplicationPlan`]) and the built system searches over the
    /// replicated holders. The plan's budget is recorded as
    /// `CopiesPlaced`; every query that succeeds against the replicated
    /// placement but would have missed against the owner-only base (the
    /// identical engine run, replayed recorder-free) counts one
    /// `CopiesHit` — the replication-rescued successes.
    ///
    /// Only the unstructured kinds ([`Self::flood`], [`Self::walk`],
    /// [`Self::expanding_ring`]) accept a plan; [`Self::build`] rejects
    /// it elsewhere. The paper's counterfactual concerns the
    /// unstructured phase — the DHT-backed kinds publish a complete
    /// index and re-replicate through maintenance instead.
    pub fn replication(mut self, plan: ReplicationPlan) -> Self {
        self.replication = Some(plan);
        self
    }

    /// Swaps in an instrumentation recorder (type-changing: the built
    /// system is monomorphized over the recorder, so a
    /// [`NoopRecorder`] build stays zero-overhead).
    pub fn recorder<R2: Recorder>(self, recorder: R2) -> SearchSpec<R2> {
        SearchSpec {
            kind: self.kind,
            faults: self.faults,
            maintenance: self.maintenance,
            deadline: self.deadline,
            capacity: self.capacity,
            replication: self.replication,
            recorder,
        }
    }

    /// Builds the described system against `world`.
    pub fn build(self, world: &SearchWorld) -> Built<R> {
        let SearchSpec {
            kind,
            faults,
            maintenance,
            deadline,
            capacity,
            replication,
            recorder,
        } = self;
        assert!(
            maintenance.is_none() || matches!(kind, Kind::Hybrid { .. } | Kind::DhtOnly { .. }),
            "maintenance schedules apply only to the DHT-backed systems, not {}",
            kind.name()
        );
        assert!(
            replication.is_none() || matches!(kind, Kind::Unstructured(_)),
            "replication plans apply only to the unstructured systems, not {}",
            kind.name()
        );
        assert!(
            deadline.is_none() || faults.is_some(),
            "a deadline needs a fault context for its latency model \
             (attach FaultPlan::none for a pure-latency run)"
        );
        assert!(
            capacity.is_none() || (faults.is_some() && deadline.is_some()),
            "a capacity plan runs on the calendar engine: attach a fault \
             context and a deadline first"
        );
        match kind {
            Kind::Unstructured(strategy) => Built::Unstructured(UnstructuredSearch::assemble(
                world,
                strategy,
                faults,
                deadline,
                capacity,
                replication,
                recorder,
            )),
            Kind::Hybrid {
                flood_ttl,
                rare_threshold,
                seed,
            } => {
                let mut sys = HybridSearch::assemble(
                    world,
                    flood_ttl,
                    rare_threshold,
                    seed,
                    faults,
                    deadline,
                    capacity,
                    recorder,
                );
                if let Some(m) = maintenance {
                    sys = sys.with_maintenance(m);
                }
                Built::Hybrid(sys)
            }
            Kind::DhtOnly { seed } => {
                let mut sys =
                    DhtOnlySearch::assemble(world, seed, faults, deadline, capacity, recorder);
                if let Some(m) = maintenance {
                    sys = sys.with_maintenance(m);
                }
                Built::DhtOnly(sys)
            }
        }
    }
}

/// A system built from a [`SearchSpec`]: use it directly through
/// [`SearchSystem`] (it delegates to the inner system) and read its
/// metrics back with [`Self::recorder`]. [`Self::into_hybrid`] and
/// [`Self::into_dht_only`] unwrap the DHT-backed systems for their
/// reporting fields (fallback and maintenance-pass counts).
#[derive(Debug)]
pub enum Built<R: Recorder = NoopRecorder> {
    /// [`SearchSpec::flood`], [`SearchSpec::walk`] or
    /// [`SearchSpec::expanding_ring`].
    Unstructured(UnstructuredSearch<R>),
    /// [`SearchSpec::hybrid`].
    Hybrid(HybridSearch<R>),
    /// [`SearchSpec::dht_only`].
    DhtOnly(DhtOnlySearch<R>),
}

impl<R: Recorder> Built<R> {
    /// Unwraps a [`SearchSpec::hybrid`] build.
    pub fn into_hybrid(self) -> HybridSearch<R> {
        match self {
            Built::Hybrid(s) => s,
            // qcplint: allow(panic) — extractor misuse fails fast.
            other => panic!("built system is {}, not hybrid", other.name()),
        }
    }

    /// Unwraps a [`SearchSpec::dht_only`] build.
    pub fn into_dht_only(self) -> DhtOnlySearch<R> {
        match self {
            Built::DhtOnly(s) => s,
            // qcplint: allow(panic) — extractor misuse fails fast.
            other => panic!("built system is {}, not dht-only", other.name()),
        }
    }

    /// The recorder the inner system has been writing into.
    pub fn recorder(&self) -> &R {
        match self {
            Built::Unstructured(s) => s.recorder(),
            Built::Hybrid(s) => s.recorder(),
            Built::DhtOnly(s) => s.recorder(),
        }
    }

    /// Consumes the system, returning its recorder.
    pub fn into_recorder(self) -> R {
        match self {
            Built::Unstructured(s) => s.into_recorder(),
            Built::Hybrid(s) => s.into_recorder(),
            Built::DhtOnly(s) => s.into_recorder(),
        }
    }
}

impl<R: Recorder> SearchSystem for Built<R> {
    fn name(&self) -> String {
        match self {
            Built::Unstructured(s) => s.name(),
            Built::Hybrid(s) => s.name(),
            Built::DhtOnly(s) => s.name(),
        }
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        match self {
            Built::Unstructured(s) => s.search(world, query, rng),
            Built::Hybrid(s) => s.search(world, query, rng),
            Built::DhtOnly(s) => s.search(world, query, rng),
        }
    }

    fn maintenance_messages(&self) -> u64 {
        match self {
            Built::Unstructured(s) => s.maintenance_messages(),
            Built::Hybrid(s) => s.maintenance_messages(),
            Built::DhtOnly(s) => s.maintenance_messages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use qcp_faults::{FaultConfig, FaultPlan, RetryPolicy};
    use qcp_obs::{Counter, Event, Kernel, MetricsRecorder};

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 99,
            ..Default::default()
        })
    }

    fn ctx(seed: u64) -> FaultContext {
        FaultContext::new(
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss: 0.2,
                    churn: 0.2,
                    seed,
                    ..Default::default()
                },
            ),
            RetryPolicy::default(),
            seed ^ 0x0c7e,
        )
    }

    fn queries(w: &SearchWorld, n: usize) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(13);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    /// Runs a query set and collects the raw outcomes.
    fn outcomes(
        sys: &mut dyn SearchSystem,
        w: &SearchWorld,
        qs: &[QuerySpec],
    ) -> Vec<SearchOutcome> {
        let mut rng = Pcg64::new(77);
        qs.iter().map(|q| sys.search(w, q, &mut rng)).collect()
    }

    /// Building is deterministic: two identical specs produce systems
    /// with bitwise-identical outcome streams, for every kind, faulty
    /// and not. (Successor of the retired shim==builder pins, now that
    /// the builder is the sole entry point.)
    #[test]
    fn rebuilds_are_bitwise_identical() {
        let w = world();
        let qs = queries(&w, 60);
        // Two independent builds of the same spec, per kind.
        let pairs: Vec<(Box<dyn SearchSystem>, Box<dyn SearchSystem>)> = vec![
            (
                Box::new(SearchSpec::flood(3).build(&w)),
                Box::new(SearchSpec::flood(3).build(&w)),
            ),
            (
                Box::new(SearchSpec::flood(3).faults(ctx(5)).build(&w)),
                Box::new(SearchSpec::flood(3).faults(ctx(5)).build(&w)),
            ),
            (
                Box::new(SearchSpec::walk(4, 20).build(&w)),
                Box::new(SearchSpec::walk(4, 20).build(&w)),
            ),
            (
                Box::new(SearchSpec::walk(4, 20).faults(ctx(6)).build(&w)),
                Box::new(SearchSpec::walk(4, 20).faults(ctx(6)).build(&w)),
            ),
            (
                Box::new(SearchSpec::expanding_ring(4).build(&w)),
                Box::new(SearchSpec::expanding_ring(4).build(&w)),
            ),
            (
                Box::new(SearchSpec::expanding_ring(4).faults(ctx(7)).build(&w)),
                Box::new(SearchSpec::expanding_ring(4).faults(ctx(7)).build(&w)),
            ),
            (
                Box::new(SearchSpec::hybrid(2, 5, 11).build(&w)),
                Box::new(SearchSpec::hybrid(2, 5, 11).build(&w)),
            ),
            (
                Box::new(SearchSpec::hybrid(2, 5, 11).faults(ctx(8)).build(&w)),
                Box::new(SearchSpec::hybrid(2, 5, 11).faults(ctx(8)).build(&w)),
            ),
            (
                Box::new(SearchSpec::dht_only(9).build(&w)),
                Box::new(SearchSpec::dht_only(9).build(&w)),
            ),
            (
                Box::new(SearchSpec::dht_only(9).faults(ctx(9)).build(&w)),
                Box::new(SearchSpec::dht_only(9).faults(ctx(9)).build(&w)),
            ),
        ];
        for (mut first, mut second) in pairs {
            assert_eq!(first.name(), second.name());
            let a = outcomes(first.as_mut(), &w, &qs);
            let b = outcomes(second.as_mut(), &w, &qs);
            assert_eq!(a, b, "rebuild diverged for {}", first.name());
        }
    }

    /// Extractors hand back the DHT-backed systems with their
    /// reporting fields intact.
    #[test]
    fn extractors_return_concrete_systems() {
        let w = world();
        let hybrid = SearchSpec::hybrid(2, 5, 1).build(&w).into_hybrid();
        assert_eq!((hybrid.flood_ttl, hybrid.rare_threshold), (2, 5));
        let _ = SearchSpec::dht_only(1).build(&w).into_dht_only();
    }

    #[test]
    #[should_panic(expected = "built system is walk(k=1,ttl=5), not hybrid")]
    fn wrong_extractor_fails_fast() {
        let w = world();
        let _ = SearchSpec::walk(1, 5).build(&w).into_hybrid();
    }

    #[test]
    #[should_panic(expected = "maintenance schedules apply only")]
    fn maintenance_on_flood_rejected() {
        let w = world();
        let _ = SearchSpec::flood(3)
            .maintenance(MaintenanceSchedule::every(10))
            .build(&w);
    }

    /// Recording is write-only: a [`MetricsRecorder`] build returns the
    /// same outcome stream (bitwise) as the default `NoopRecorder`
    /// build, for every kind, with and without faults.
    #[test]
    fn metrics_recorder_never_perturbs_outcomes() {
        let w = world();
        let qs = queries(&w, 50);
        let specs: Vec<(Box<dyn SearchSystem>, Box<dyn SearchSystem>)> = vec![
            (
                Box::new(SearchSpec::flood(3).build(&w)),
                Box::new(
                    SearchSpec::flood(3)
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
            (
                Box::new(SearchSpec::flood(3).faults(ctx(21)).build(&w)),
                Box::new(
                    SearchSpec::flood(3)
                        .faults(ctx(21))
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
            (
                Box::new(SearchSpec::walk(4, 20).faults(ctx(22)).build(&w)),
                Box::new(
                    SearchSpec::walk(4, 20)
                        .faults(ctx(22))
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
            (
                Box::new(SearchSpec::expanding_ring(4).faults(ctx(23)).build(&w)),
                Box::new(
                    SearchSpec::expanding_ring(4)
                        .faults(ctx(23))
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
            (
                Box::new(SearchSpec::hybrid(2, 5, 11).faults(ctx(24)).build(&w)),
                Box::new(
                    SearchSpec::hybrid(2, 5, 11)
                        .faults(ctx(24))
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
            (
                Box::new(SearchSpec::dht_only(9).faults(ctx(25)).build(&w)),
                Box::new(
                    SearchSpec::dht_only(9)
                        .faults(ctx(25))
                        .recorder(MetricsRecorder::new())
                        .build(&w),
                ),
            ),
        ];
        for (mut plain, mut recorded) in specs {
            let name = plain.name();
            let a = outcomes(plain.as_mut(), &w, &qs);
            let b = outcomes(recorded.as_mut(), &w, &qs);
            assert_eq!(a, b, "recording perturbed outcomes for {name}");
        }
    }

    /// Recorded message totals reconcile exactly with the outcome
    /// stream's message counts, per system kind.
    #[test]
    fn recorded_messages_reconcile_with_outcomes() {
        let w = world();
        let qs = queries(&w, 50);
        // Flood: everything lands under Kernel::Flood.
        let mut flood = SearchSpec::flood(3)
            .faults(ctx(31))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let out = outcomes(&mut flood, &w, &qs);
        let total: u64 = out.iter().map(|o| o.messages).sum();
        let rec = flood.recorder();
        assert_eq!(rec.total(Kernel::Flood, Counter::Messages), total);
        assert_eq!(rec.spans(Kernel::Flood), qs.len() as u64);
        let hits = out.iter().filter(|o| o.success).count() as u64;
        let dead = rec.event_count(Kernel::Flood, Event::DeadSource);
        assert_eq!(rec.event_count(Kernel::Flood, Event::Hit), hits);
        assert_eq!(
            rec.event_count(Kernel::Flood, Event::Miss) + dead + hits,
            qs.len() as u64
        );
        // Walk.
        let mut walk = SearchSpec::walk(4, 20)
            .faults(ctx(32))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let out = outcomes(&mut walk, &w, &qs);
        let total: u64 = out.iter().map(|o| o.messages).sum();
        assert_eq!(
            walk.recorder().total(Kernel::Walk, Counter::Messages),
            total
        );
        // Hybrid: flood + chord-lookup kernels partition the cost.
        let mut hybrid = SearchSpec::hybrid(2, 5, 11)
            .faults(ctx(33))
            .recorder(MetricsRecorder::new())
            .build(&w)
            .into_hybrid();
        let out = outcomes(&mut hybrid, &w, &qs);
        let total: u64 = out.iter().map(|o| o.messages).sum();
        let rec = hybrid.recorder();
        assert_eq!(
            rec.total(Kernel::Flood, Counter::Messages)
                + rec.total(Kernel::ChordLookup, Counter::Messages),
            total
        );
        assert_eq!(
            rec.event_count(Kernel::ChordLookup, Event::Fallback),
            hybrid.fallbacks
        );
        // DHT-only: lookups under ChordLookup; fault totals mirrored.
        let mut dht = SearchSpec::dht_only(9)
            .faults(ctx(34))
            .recorder(MetricsRecorder::new())
            .build(&w)
            .into_dht_only();
        let out = outcomes(&mut dht, &w, &qs);
        let total: u64 = out.iter().map(|o| o.messages).sum();
        let mut faults = qcp_faults::FaultStats::default();
        for o in &out {
            faults.absorb(&o.faults);
        }
        let rec = dht.recorder();
        assert_eq!(rec.total(Kernel::ChordLookup, Counter::Messages), total);
        assert_eq!(rec.fault_stats(Kernel::ChordLookup), faults);
    }

    /// A deadline without a fault context has no latency model to run
    /// against: `build` rejects it.
    #[test]
    #[should_panic(expected = "deadline needs a fault context")]
    fn deadline_without_faults_rejected() {
        let w = world();
        let _ = SearchSpec::flood(3)
            .deadline(qcp_vtime::Deadline::after(10))
            .build(&w);
    }

    /// `Built` delegates maintenance accounting and supports the
    /// maintenance attachment for DHT-backed kinds.
    #[test]
    fn built_delegates_maintenance() {
        let w = world();
        let qs = queries(&w, 60);
        let mut sys = SearchSpec::dht_only(9)
            .faults(ctx(41))
            .maintenance(MaintenanceSchedule::every(10))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let before = sys.maintenance_messages();
        let _ = outcomes(&mut sys, &w, &qs);
        assert!(sys.maintenance_messages() >= before);
        let dht = sys.into_dht_only();
        assert!(dht.maintenance_passes() > 0);
        // Repair passes recorded one span each.
        assert_eq!(
            dht.recorder().spans(Kernel::Repair),
            dht.maintenance_passes()
        );
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use crate::world::WorldConfig;
    use qcp_faults::{FaultConfig, FaultPlan, RetryPolicy};
    use qcp_obs::{Counter, Event, Kernel, MetricsRecorder};
    use qcp_vtime::Deadline;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 99,
            ..Default::default()
        })
    }

    /// A fault context with real link latency (and optionally loss).
    fn latent_ctx(mean_latency: u32, loss: f64, seed: u64) -> FaultContext {
        FaultContext::new(
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss,
                    mean_latency,
                    seed,
                    ..Default::default()
                },
            ),
            RetryPolicy::default(),
            seed ^ 0x0c7e,
        )
    }

    fn none_ctx() -> FaultContext {
        FaultContext::new(FaultPlan::none(400), RetryPolicy::default(), 1)
    }

    fn queries(w: &SearchWorld, n: usize) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(13);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    fn outcomes(
        sys: &mut dyn SearchSystem,
        w: &SearchWorld,
        qs: &[QuerySpec],
    ) -> Vec<SearchOutcome> {
        let mut rng = Pcg64::new(77);
        qs.iter().map(|q| sys.search(w, q, &mut rng)).collect()
    }

    /// Under a unit-latency fault-free plan with a generous deadline the
    /// event flood is bitwise the census, so the deadline path agrees
    /// with the synchronous faulty path on every reported figure, and
    /// `elapsed` is exactly the hit hop.
    #[test]
    fn generous_deadline_flood_matches_the_synchronous_path() {
        let w = world();
        let qs = queries(&w, 80);
        let mut sync = SearchSpec::flood(3).faults(none_ctx()).build(&w);
        let mut timed = SearchSpec::flood(3)
            .faults(none_ctx())
            .deadline(Deadline::after(1_000_000))
            .build(&w);
        let a = outcomes(&mut sync, &w, &qs);
        let b = outcomes(&mut timed, &w, &qs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.success, y.success);
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.hops, y.hops);
            assert!(!y.deadline_exceeded);
            if let Some(h) = y.hops {
                assert_eq!(y.elapsed, u64::from(h), "unit latency: ticks == hops");
            }
        }
    }

    /// Same agreement for the DHT-only system: with nothing dropped and
    /// unit latency, the timed engine routes exactly like the retry
    /// engine and no timer ever outruns a reply.
    #[test]
    fn generous_deadline_dht_matches_the_synchronous_path() {
        let w = world();
        let qs = queries(&w, 60);
        let mut sync = SearchSpec::dht_only(9).faults(none_ctx()).build(&w);
        let mut timed = SearchSpec::dht_only(9)
            .faults(none_ctx())
            .deadline(Deadline::after(1_000_000))
            .build(&w);
        let a = outcomes(&mut sync, &w, &qs);
        let b = outcomes(&mut timed, &w, &qs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.success, y.success);
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.hops, y.hops);
            assert!(!y.deadline_exceeded);
        }
    }

    /// Every deadline system is deterministic: identical outcome streams
    /// on a re-run, for all five kinds, under latency + loss.
    #[test]
    fn deadline_systems_are_deterministic() {
        let w = world();
        let qs = queries(&w, 40);
        let build: Vec<fn() -> SearchSpec> = vec![
            || SearchSpec::flood(3),
            || SearchSpec::walk(4, 20),
            || SearchSpec::expanding_ring(4),
            || SearchSpec::hybrid(2, 5, 11),
            || SearchSpec::dht_only(9),
        ];
        for mk in build {
            let run = || {
                let mut sys = mk()
                    .faults(latent_ctx(4, 0.1, 31))
                    .deadline(Deadline::after(48))
                    .build(&w);
                outcomes(&mut sys, &w, &qs)
            };
            let a = run();
            assert_eq!(a, run(), "deadline path must be deterministic");
            assert!(
                a.iter().all(|o| o.elapsed <= 48 + 8 * 2),
                "elapsed can overshoot the deadline by at most one in-flight reply"
            );
        }
    }

    /// Tightening the deadline only costs success; loosening it only
    /// retires deadline misses. The hybrid degrades to explicit
    /// `deadline_exceeded` outcomes that still carry partial results.
    #[test]
    fn hybrid_degrades_monotonically_with_the_deadline() {
        let w = world();
        let qs = queries(&w, 120);
        let run = |ticks: u64| {
            let mut sys = SearchSpec::hybrid(2, 5, 11)
                .faults(latent_ctx(4, 0.0, 7))
                .deadline(Deadline::after(ticks))
                .build(&w);
            let out = outcomes(&mut sys, &w, &qs);
            let hits = out.iter().filter(|o| o.success).count();
            let missed = out.iter().filter(|o| o.deadline_exceeded).count();
            (hits, missed, out)
        };
        let (hits_tight, missed_tight, _) = run(8);
        let (hits_mid, missed_mid, out_mid) = run(64);
        let (hits_loose, missed_loose, _) = run(100_000);
        assert!(hits_tight <= hits_mid && hits_mid <= hits_loose);
        assert!(missed_tight >= missed_mid && missed_mid >= missed_loose);
        assert_eq!(missed_loose, 0, "no budget pressure, no misses");
        assert!(missed_tight > 0, "8 ticks cannot finish a DHT fallback");
        // Partial results: a mid-budget miss can still answer.
        assert!(
            out_mid
                .iter()
                .any(|o| o.deadline_exceeded && (o.success || o.messages > 0)),
            "deadline misses must surface best-so-far work"
        );
    }

    /// Recording the deadline path is write-only (outcomes bitwise equal
    /// to the Noop build) and the recorder sees the DeadlineExceeded
    /// events plus a populated time histogram.
    #[test]
    fn deadline_recording_is_write_only_and_reconciles() {
        let w = world();
        let qs = queries(&w, 80);
        let mut plain = SearchSpec::dht_only(9)
            .faults(latent_ctx(6, 0.1, 17))
            .deadline(Deadline::after(40))
            .build(&w);
        let mut recorded = SearchSpec::dht_only(9)
            .faults(latent_ctx(6, 0.1, 17))
            .deadline(Deadline::after(40))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let a = outcomes(&mut plain, &w, &qs);
        let b = outcomes(&mut recorded, &w, &qs);
        assert_eq!(a, b, "recording must not perturb deadline outcomes");
        let rec = recorded.into_recorder();
        let missed = a.iter().filter(|o| o.deadline_exceeded).count() as u64;
        assert_eq!(
            rec.event_count(Kernel::ChordLookup, Event::DeadlineExceeded),
            missed
        );
        let successes: Vec<&SearchOutcome> = a.iter().filter(|o| o.success).collect();
        assert_eq!(
            rec.time_weight(Kernel::ChordLookup),
            successes.len() as u64,
            "one time-to-first-hit sample per success"
        );
        let mass: u64 = rec
            .time_histogram(Kernel::ChordLookup)
            .iter()
            .enumerate()
            .map(|(i, &n)| i as u64 * n)
            .sum();
        let expect: u64 = successes.iter().map(|o| o.elapsed).sum();
        assert_eq!(mass, expect, "histogram mass is the summed hit times");
    }

    /// The walk deadline path stops walkers at the cutoff: elapsed and
    /// messages are bounded, and a loose deadline strictly dominates a
    /// tight one on success.
    #[test]
    fn walk_deadline_truncates_and_degrades() {
        let w = world();
        let qs = queries(&w, 100);
        let run = |ticks: u64| {
            let mut sys = SearchSpec::walk(4, 30)
                .faults(latent_ctx(5, 0.0, 23))
                .deadline(Deadline::after(ticks))
                .build(&w);
            outcomes(&mut sys, &w, &qs)
        };
        let tight = run(10);
        let loose = run(100_000);
        let hits = |v: &[SearchOutcome]| v.iter().filter(|o| o.success).count();
        assert!(hits(&tight) <= hits(&loose));
        assert!(tight.iter().all(|o| o.elapsed <= 10));
        assert!(loose.iter().all(|o| !o.deadline_exceeded));
        assert!(
            tight.iter().any(|o| o.deadline_exceeded),
            "10 ticks at mean latency 5 must truncate some walks"
        );
    }

    /// The expanding ring spends its budget ring by ring: with a tight
    /// deadline the deep rings never run, so rare (distant) content is
    /// the first casualty — the paper's query-centric trade-off under a
    /// clock.
    #[test]
    fn expanding_ring_deadline_limits_depth() {
        let w = world();
        let qs = queries(&w, 100);
        let run = |ticks: u64| {
            let mut sys = SearchSpec::expanding_ring(5)
                .faults(latent_ctx(4, 0.0, 29))
                .deadline(Deadline::after(ticks))
                .recorder(MetricsRecorder::new())
                .build(&w);
            let out = outcomes(&mut sys, &w, &qs);
            let rings = sys.recorder().total(Kernel::ExpandingRing, Counter::Rings);
            (out, rings)
        };
        let (tight, rings_tight) = run(12);
        let (loose, rings_loose) = run(100_000);
        let hits = |v: &[SearchOutcome]| v.iter().filter(|o| o.success).count();
        assert!(hits(&tight) <= hits(&loose));
        assert!(
            rings_tight < rings_loose,
            "budget pressure must cut rings: {rings_tight} vs {rings_loose}"
        );
        assert!(tight.iter().any(|o| o.deadline_exceeded));
        assert!(loose.iter().all(|o| !o.deadline_exceeded));
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::systems::OverloadStats;
    use crate::world::WorldConfig;
    use qcp_faults::{
        CapacityConfig, CapacityModel, CapacityPlan, FaultConfig, FaultPlan, RetryPolicy,
        ShedPolicy,
    };
    use qcp_obs::{Counter, Event, Kernel, MetricsRecorder};
    use qcp_vtime::Deadline;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 99,
            ..Default::default()
        })
    }

    fn latent_ctx(mean_latency: u32, loss: f64, seed: u64) -> FaultContext {
        FaultContext::new(
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss,
                    mean_latency,
                    seed,
                    ..Default::default()
                },
            ),
            RetryPolicy::default(),
            seed ^ 0x0c7e,
        )
    }

    fn heavy_cap(load: f64, seed: u64) -> CapacityPlan {
        CapacityPlan::build(&CapacityConfig {
            offered_load: load,
            queue_bound: 4,
            policy: ShedPolicy::DropNewest,
            model: CapacityModel::GiaLadder,
            seed,
        })
    }

    fn queries(w: &SearchWorld, n: usize) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(13);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    fn outcomes(
        sys: &mut dyn SearchSystem,
        w: &SearchWorld,
        qs: &[QuerySpec],
    ) -> Vec<SearchOutcome> {
        let mut rng = Pcg64::new(77);
        qs.iter().map(|q| sys.search(w, q, &mut rng)).collect()
    }

    fn all_kinds() -> Vec<fn() -> SearchSpec> {
        vec![
            || SearchSpec::flood(3),
            || SearchSpec::walk(4, 20),
            || SearchSpec::expanding_ring(4),
            || SearchSpec::hybrid(2, 5, 11),
            || SearchSpec::dht_only(9),
        ]
    }

    /// An unlimited capacity plan is the plain deadline path, bitwise,
    /// for every system kind: same outcomes, all-zero overload stats.
    #[test]
    fn unlimited_capacity_is_bitwise_the_deadline_path() {
        let w = world();
        let qs = queries(&w, 40);
        for mk in all_kinds() {
            let mut plain = mk()
                .faults(latent_ctx(4, 0.1, 31))
                .deadline(Deadline::after(48))
                .build(&w);
            let mut capped = mk()
                .faults(latent_ctx(4, 0.1, 31))
                .deadline(Deadline::after(48))
                .capacity(CapacityPlan::unlimited())
                .build(&w);
            let a = outcomes(&mut plain, &w, &qs);
            let b = outcomes(&mut capped, &w, &qs);
            assert_eq!(a, b, "unlimited capacity must be a perfect no-op");
            assert!(b.iter().all(|o| o.overload == OverloadStats::default()));
        }
    }

    /// A zero-tick deadline is the degenerate endpoint: every system
    /// answers immediately with best-so-far (nothing, usually), charges
    /// zero virtual time, and marks the cut-off explicitly.
    #[test]
    fn zero_tick_deadline_degrades_immediately_on_all_systems() {
        let w = world();
        let qs = queries(&w, 60);
        for mk in all_kinds() {
            let run = || {
                let mut sys = mk()
                    .faults(latent_ctx(4, 0.0, 31))
                    .deadline(Deadline::after(0))
                    .build(&w);
                outcomes(&mut sys, &w, &qs)
            };
            let out = run();
            let name = mk().build(&w).name();
            assert!(
                out.iter().all(|o| o.elapsed == 0),
                "{name}: zero budget cannot consume time"
            );
            assert!(
                out.iter().any(|o| o.deadline_exceeded),
                "{name}: a zero budget must cut off real work"
            );
            assert_eq!(out, run(), "{name}: endpoint must be deterministic");
        }
    }

    /// At zero ticks the flood still answers from local knowledge: a
    /// query issued by a holder is an instant hit at hop 0.
    #[test]
    fn zero_tick_deadline_keeps_the_instant_source_hit() {
        let w = world();
        let obj = 5u32;
        let holder = w.placement.holders(obj)[0];
        let q = QuerySpec {
            terms: w.object_terms[obj as usize].clone(),
            source: holder,
        };
        let mut sys = SearchSpec::flood(3)
            .faults(latent_ctx(4, 0.0, 31))
            .deadline(Deadline::after(0))
            .build(&w);
        let mut rng = Pcg64::new(1);
        let out = sys.search(&w, &q, &mut rng);
        assert!(out.success, "the source's own shelf needs no budget");
        assert_eq!(out.hops, Some(0));
        assert_eq!(out.elapsed, 0);
    }

    /// Overload under pressure: a small queue bound and a hot offered
    /// load shed real work, flag the outcomes, and reconcile with the
    /// recorder's Overloaded events and AdmissionRejected counter.
    #[test]
    fn limited_capacity_sheds_and_flags_overload() {
        let w = world();
        let qs = queries(&w, 80);
        let mut sys = SearchSpec::flood(3)
            .faults(latent_ctx(4, 0.0, 31))
            .deadline(Deadline::after(48))
            .capacity(heavy_cap(32.0, 0xca9))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let out = outcomes(&mut sys, &w, &qs);
        let overloaded = out.iter().filter(|o| o.overload.overloaded).count() as u64;
        let rejected: u64 = out.iter().map(|o| o.overload.admission_rejected).sum();
        let shed: u64 = out.iter().map(|o| o.overload.shed).sum();
        assert!(shed > 0, "offered load 32 against bound 4 must shed");
        assert!(rejected > 0, "tier-0 issuers must fail the admission gate");
        assert!(overloaded > 0);
        let rec = sys.into_recorder();
        assert_eq!(
            rec.event_count(Kernel::Flood, Event::Overloaded),
            overloaded
        );
        assert_eq!(
            rec.total(Kernel::Flood, Counter::AdmissionRejected),
            rejected
        );
        assert_eq!(rec.total(Kernel::Flood, Counter::Shed), shed);
        assert_eq!(rec.spans(Kernel::Flood), qs.len() as u64);
    }

    /// Recording the capacity path is write-only: MetricsRecorder and
    /// NoopRecorder builds return bitwise-identical outcome streams.
    #[test]
    fn capacity_recording_is_write_only() {
        let w = world();
        let qs = queries(&w, 40);
        for mk in all_kinds() {
            let mut plain = mk()
                .faults(latent_ctx(4, 0.1, 37))
                .deadline(Deadline::after(48))
                .capacity(heavy_cap(8.0, 0x0ca))
                .build(&w);
            let mut recorded = mk()
                .faults(latent_ctx(4, 0.1, 37))
                .deadline(Deadline::after(48))
                .capacity(heavy_cap(8.0, 0x0ca))
                .recorder(MetricsRecorder::new())
                .build(&w);
            let a = outcomes(&mut plain, &w, &qs);
            let b = outcomes(&mut recorded, &w, &qs);
            assert_eq!(a, b, "recording must not perturb capacity outcomes");
        }
    }

    #[test]
    #[should_panic(expected = "capacity plan runs on the calendar engine")]
    fn capacity_without_faults_rejected() {
        let w = world();
        let _ = SearchSpec::flood(3)
            .capacity(CapacityPlan::unlimited())
            .build(&w);
    }

    #[test]
    #[should_panic(expected = "capacity plan runs on the calendar engine")]
    fn capacity_without_deadline_rejected() {
        let w = world();
        let _ = SearchSpec::flood(3)
            .faults(latent_ctx(4, 0.0, 1))
            .capacity(CapacityPlan::unlimited())
            .build(&w);
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;
    use crate::world::WorldConfig;
    use qcp_faults::{FaultConfig, FaultPlan, RetryPolicy};
    use qcp_obs::{Counter, Kernel, MetricsRecorder};
    use qcp_overlay::{ReplicationPlan, ReplicationScheme};
    use qcp_vtime::Deadline;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 99,
            ..Default::default()
        })
    }

    fn ctx(seed: u64) -> FaultContext {
        FaultContext::new(
            FaultPlan::build(
                400,
                &FaultConfig {
                    loss: 0.1,
                    mean_latency: 4,
                    seed,
                    ..Default::default()
                },
            ),
            RetryPolicy::default(),
            seed ^ 0x0c7e,
        )
    }

    fn queries(w: &SearchWorld, n: usize) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(13);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    fn outcomes(
        sys: &mut dyn SearchSystem,
        w: &SearchWorld,
        qs: &[QuerySpec],
    ) -> Vec<SearchOutcome> {
        let mut rng = Pcg64::new(77);
        qs.iter().map(|q| sys.search(w, q, &mut rng)).collect()
    }

    /// An owner-only plan (budget 0) is bitwise inert on every
    /// unstructured kind: same outcome stream as no plan at all, and
    /// zero copies-hit (the shadow always agrees with the primary).
    #[test]
    fn owner_only_replication_is_bitwise_inert() {
        let w = world();
        let qs = queries(&w, 60);
        let kinds: Vec<fn() -> SearchSpec> =
            vec![|| SearchSpec::flood(3), || SearchSpec::walk(4, 20), || {
                SearchSpec::expanding_ring(4)
            }];
        for mk in kinds {
            let mut plain = mk().build(&w);
            let mut owner = mk()
                .replication(ReplicationPlan::owner_only(0xf198))
                .recorder(MetricsRecorder::new())
                .build(&w);
            let name = plain.name();
            let a = outcomes(&mut plain, &w, &qs);
            let b = outcomes(&mut owner, &w, &qs);
            assert_eq!(a, b, "owner-only plan perturbed {name}");
        }
    }

    /// Fault-free flood: the replicated census reaches the same node
    /// set, so copies-hit is exactly the success-rate gain over the
    /// plain build, and copies-placed is exactly the plan budget.
    #[test]
    fn flood_copies_hit_reconciles_exactly() {
        let w = world();
        let qs = queries(&w, 120);
        let budget = 6_000u64;
        let mut plain = SearchSpec::flood(2).build(&w);
        let mut repl = SearchSpec::flood(2)
            .replication(ReplicationPlan::new(
                ReplicationScheme::SqrtAllocation,
                budget,
                0xf1f8,
            ))
            .recorder(MetricsRecorder::new())
            .build(&w);
        let a = outcomes(&mut plain, &w, &qs);
        let b = outcomes(&mut repl, &w, &qs);
        let hits_plain = a.iter().filter(|o| o.success).count() as u64;
        let hits_repl = b.iter().filter(|o| o.success).count() as u64;
        assert!(
            hits_repl >= hits_plain,
            "extra holders cannot cost flood successes: {hits_repl} < {hits_plain}"
        );
        let rec = repl.into_recorder();
        assert_eq!(rec.total(Kernel::Flood, Counter::CopiesPlaced), budget);
        assert_eq!(
            rec.total(Kernel::Flood, Counter::CopiesHit),
            hits_repl - hits_plain,
            "flood reach is holder-independent, so every extra hit is a rescue"
        );
    }

    /// Replication composes with faults + deadline + capacity on every
    /// unstructured kind: the stack runs, stays deterministic, and the
    /// rescue counter never exceeds the success count.
    #[test]
    fn replication_composes_with_the_full_stack() {
        let w = world();
        let qs = queries(&w, 40);
        let kinds: Vec<(Kernel, fn() -> SearchSpec)> = vec![
            (Kernel::Flood, || SearchSpec::flood(3)),
            (Kernel::Walk, || SearchSpec::walk(4, 20)),
            (Kernel::ExpandingRing, || SearchSpec::expanding_ring(4)),
        ];
        for (kernel, mk) in kinds {
            let run = || {
                let mut sys = mk()
                    .faults(ctx(31))
                    .deadline(Deadline::after(48))
                    .capacity(qcp_faults::CapacityPlan::unlimited())
                    .replication(ReplicationPlan::new(ReplicationScheme::Path, 2_000, 0xf1f8))
                    .recorder(MetricsRecorder::new())
                    .build(&w);
                let out = outcomes(&mut sys, &w, &qs);
                let rec = sys.into_recorder();
                let hits = out.iter().filter(|o| o.success).count() as u64;
                (out, rec.total(kernel, Counter::CopiesHit), hits)
            };
            let (a, hit_a, hits) = run();
            let (b, hit_b, _) = run();
            assert_eq!(a, b, "replicated stack must be deterministic");
            assert_eq!(hit_a, hit_b);
            assert!(
                hit_a <= hits,
                "rescues are a subset of successes: {hit_a} > {hits}"
            );
        }
    }

    /// Recording the replicated paths is write-only: MetricsRecorder
    /// and NoopRecorder builds return bitwise-identical outcomes.
    #[test]
    fn replication_recording_is_write_only() {
        let w = world();
        let qs = queries(&w, 50);
        let plan = || ReplicationPlan::new(ReplicationScheme::RandomWalk, 3_000, 0xf1f8);
        let mut plain = SearchSpec::walk(4, 20)
            .faults(ctx(21))
            .replication(plan())
            .build(&w);
        let mut recorded = SearchSpec::walk(4, 20)
            .faults(ctx(21))
            .replication(plan())
            .recorder(MetricsRecorder::new())
            .build(&w);
        let a = outcomes(&mut plain, &w, &qs);
        let b = outcomes(&mut recorded, &w, &qs);
        assert_eq!(a, b, "recording perturbed replicated walk outcomes");
    }

    #[test]
    #[should_panic(expected = "replication plans apply only")]
    fn replication_on_hybrid_rejected() {
        let w = world();
        let _ = SearchSpec::hybrid(2, 5, 11)
            .replication(ReplicationPlan::owner_only(1))
            .build(&w);
    }

    #[test]
    #[should_panic(expected = "replication plans apply only")]
    fn replication_on_dht_only_rejected() {
        let w = world();
        let _ = SearchSpec::dht_only(9)
            .replication(ReplicationPlan::owner_only(1))
            .build(&w);
    }
}
