//! The search-system interface and the two classic baselines.

#[cfg(any(test, doc))]
use crate::spec::SearchSpec;
use crate::world::{QuerySpec, SearchWorld};
use qcp_faults::{CapacityPlan, FaultPlan, FaultStats, RetryPolicy};
use qcp_obs::{Counter, Event, Kernel, NoopRecorder, Recorder};
use qcp_overlay::expanding::expanding_ring_search;
use qcp_overlay::flood::{FloodEngine, FloodFaults, FloodSpec};
use qcp_overlay::walk::random_walk_search;
use qcp_overlay::{EventEngine, OverloadOutcome, Placement, ReplicationPlan};
use qcp_util::hash::mix64;
use qcp_util::rng::{child_seed, Pcg64};
use qcp_vtime::Deadline;

/// The replicated placement a [`SearchSpec::replication`] build searches
/// over: the plan applied once against the world's base placement at
/// build time, plus the copy count for the `CopiesPlaced` counter.
///
/// Holder lookups go through [`Self::holders_of`] instead of
/// [`SearchWorld::holders_of`]; the world's own placement stays the
/// owner-only ground truth, which the copies-hit shadow runs replay
/// against.
#[derive(Debug)]
pub(crate) struct ReplicaSet {
    placement: Placement,
    /// Extra copies the plan placed (== the plan's budget, exactly).
    copies: u64,
}

impl ReplicaSet {
    pub(crate) fn build(world: &SearchWorld, plan: &ReplicationPlan) -> Self {
        Self {
            placement: plan.apply(&world.topology.graph, &world.placement),
            copies: plan.budget,
        }
    }

    /// Sorted, deduplicated union of the replicated holder lists
    /// (mirrors [`SearchWorld::holders_of`] over the grown placement).
    pub(crate) fn holders_of(&self, objects: &[u32]) -> Vec<u32> {
        let mut peers: Vec<u32> = objects
            .iter()
            .flat_map(|&o| self.placement.holders(o).iter().copied())
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }
}

/// Records the one-time `CopiesPlaced` total at assemble time and hands
/// the recorder back (shared by the three unstructured assembles).
fn note_copies_placed<R: Recorder>(kernel: Kernel, replication: Option<&ReplicaSet>, rec: &mut R) {
    if let Some(r) = replication {
        rec.rec_count(kernel, Counter::CopiesPlaced, r.copies);
    }
}

/// Result of one query through one system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchOutcome {
    /// Whether a peer holding a matching object was located.
    pub success: bool,
    /// Query messages spent.
    pub messages: u64,
    /// Hop distance at which the result was found (if any).
    pub hops: Option<u32>,
    /// Degraded-mode accounting for this query (all zero in fault-free
    /// runs: drops, retries, timeouts, stale index misses, ticks).
    pub faults: FaultStats,
    /// Virtual time consumed, in ticks of the fault plan's latency model.
    /// Under a [`Deadline`] this is the time of the first hit (the
    /// time-to-first-hit metric) when the query succeeds, and the total
    /// time spent when it fails; synchronous fault paths report the
    /// engine ticks; 0 without a fault context.
    pub elapsed: u64,
    /// Whether a [`Deadline`] cut the query off before its engines
    /// drained. Best-so-far results are still reported, so `success`
    /// and `deadline_exceeded` can both be true (a partial answer that
    /// arrived in time, with work still pending at the cutoff).
    pub deadline_exceeded: bool,
    /// Overload accounting under a [`CapacityPlan`] (all zero without
    /// one, and under an unlimited plan).
    pub overload: OverloadStats,
}

/// Per-query overload accounting, populated when a [`CapacityPlan`] is
/// attached (see `SearchSpec::capacity`). Composes with [`Deadline`]
/// best-so-far answers: an overloaded query still reports whatever it
/// found before shedding cost it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadStats {
    /// Query messages admitted into a node queue.
    pub enqueued: u64,
    /// Query messages dequeued and processed at their node's rate.
    pub served: u64,
    /// Query messages evicted by the shedding policy.
    pub shed: u64,
    /// Synthetic background entries this query's arrivals displaced
    /// from full queues — refused background work.
    pub displaced: u64,
    /// Synthetic background entries seeded into queues the query
    /// touched — the background work offered alongside the query.
    pub backlog_seeded: u64,
    /// Total ticks the query's messages waited in queues.
    pub queue_delay: u64,
    /// 1 when the ingress admission gate rejected the query outright.
    pub admission_rejected: u64,
    /// Degraded flag: the query lost work to shedding or was refused
    /// admission. The answer (if any) is best-so-far, not exhaustive.
    pub overloaded: bool,
}

impl OverloadStats {
    /// Accounting for a query rejected at the admission gate.
    pub fn rejected() -> Self {
        Self {
            admission_rejected: 1,
            overloaded: true,
            ..Self::default()
        }
    }

    /// Folds one kernel run's overload outcome into this query's stats.
    pub fn absorb_outcome(&mut self, o: &OverloadOutcome) {
        self.enqueued += o.enqueued;
        self.served += o.served;
        self.shed += o.shed;
        self.displaced += o.displaced;
        self.backlog_seeded += o.backlog_seeded;
        self.queue_delay += o.queue_delay;
        self.overloaded |= o.shed > 0;
    }

    /// Stats for a single kernel run.
    pub fn from_outcome(o: &OverloadOutcome) -> Self {
        let mut s = Self::default();
        s.absorb_outcome(o);
        s
    }

    /// Aggregates another query's stats (for workload-level reporting).
    pub fn absorb(&mut self, other: &OverloadStats) {
        self.enqueued += other.enqueued;
        self.served += other.served;
        self.shed += other.shed;
        self.displaced += other.displaced;
        self.backlog_seeded += other.backlog_seeded;
        self.queue_delay += other.queue_delay;
        self.admission_rejected += other.admission_rejected;
        self.overloaded |= other.overloaded;
    }
}

/// The outcome of a query the admission gate refused: zero cost, zero
/// answer, explicitly overloaded. Records the span (the query still
/// happened), the rejection counter, and the overload event.
pub(crate) fn reject_admission<R: Recorder>(kernel: Kernel, rec: &mut R) -> SearchOutcome {
    rec.rec_span(kernel);
    rec.rec_count(kernel, Counter::AdmissionRejected, 1);
    rec.rec_event(kernel, Event::Overloaded);
    SearchOutcome {
        overload: OverloadStats::rejected(),
        ..SearchOutcome::default()
    }
}

/// Closes a deadline-path kernel run: a `truncated` run that found
/// nothing was ended by the clock, and a run that shed work is
/// overloaded. Sets both flags on `out` and records them.
fn close_timed<R: Recorder>(
    kernel: Kernel,
    mut out: SearchOutcome,
    truncated: bool,
    over: &OverloadOutcome,
    rec: &mut R,
) -> SearchOutcome {
    out.deadline_exceeded = truncated && !out.success;
    if out.deadline_exceeded {
        rec.rec_event(kernel, Event::DeadlineExceeded);
    }
    out.overload = OverloadStats::from_outcome(over);
    if out.overload.overloaded {
        rec.rec_event(kernel, Event::Overloaded);
    }
    out
}

/// Per-system fault context: the shared [`FaultPlan`], the retry policy
/// for request/response engines, and a query clock.
///
/// Each query the system serves advances the clock by one tick (wrapping
/// at the plan horizon), so the plan's churn schedule plays out across a
/// workload; per-query fault nonces come from a dedicated `child_seed`
/// stream, so attaching faults never perturbs the query RNG.
#[derive(Debug, Clone)]
pub struct FaultContext {
    /// The fault plan every transmission consults.
    pub plan: FaultPlan,
    /// Retry/backoff policy for DHT-style request/response hops.
    pub policy: RetryPolicy,
    clock: u64,
    nonce_seed: u64,
}

impl FaultContext {
    /// Creates a context at tick 0.
    pub fn new(plan: FaultPlan, policy: RetryPolicy, nonce_seed: u64) -> Self {
        Self {
            plan,
            policy,
            clock: 0,
            nonce_seed,
        }
    }

    /// Advances the query clock; returns `(time, nonce)` for this query.
    pub fn next_query(&mut self) -> (u64, u64) {
        let time = self.clock % self.plan.horizon().max(1);
        let nonce = child_seed(self.nonce_seed, self.clock);
        self.clock = self.clock.wrapping_add(1);
        (time, nonce)
    }
}

/// The kernels' fault context for one query: the plan at the query's
/// `(time, nonce)` draw, or `None` for a fault-free system.
pub(crate) fn query_faults(
    faults: Option<&FaultContext>,
    draw: Option<(u64, u64)>,
) -> Option<FloodFaults<'_>> {
    let (ctx, (time, nonce)) = faults.zip(draw)?;
    Some(FloodFaults {
        plan: &ctx.plan,
        time,
        nonce,
    })
}

/// A periodic maintenance schedule driven by the query clock.
///
/// Systems that accept one (see [`HybridSearch::with_maintenance`] and
/// [`DhtOnlySearch::with_maintenance`]) run a repair pass immediately
/// before every `period`-th query, so a degraded index heals *mid*
/// workload instead of only between experiments: stale-miss counters
/// decay as re-replication catches up with the fault plan's churn.
///
/// The schedule is pure bookkeeping — it decides *when*, the owning
/// system decides *what* (for the DHT-backed systems: one
/// [`re_replicate`](qcp_dht::DhtIndex::re_replicate) pass against the
/// plan's alive mask at the current tick). Firing depends only on the
/// count of queries served, never on query outcomes, so attaching a
/// schedule cannot perturb per-query fault draws.
///
/// [`HybridSearch::with_maintenance`]: crate::hybrid::HybridSearch::with_maintenance
/// [`DhtOnlySearch::with_maintenance`]: crate::hybrid::DhtOnlySearch::with_maintenance
#[derive(Debug, Clone)]
pub struct MaintenanceSchedule {
    period: u64,
    served: u64,
    /// Maintenance passes fired so far (for reports).
    pub passes: u64,
}

impl MaintenanceSchedule {
    /// A pass before every `period`-th query (the first pass fires just
    /// before query number `period`, counting from 1 — never before the
    /// very first query, whose index is still fresh by construction).
    pub fn every(period: u64) -> Self {
        assert!(period > 0, "maintenance period must be positive");
        Self {
            period,
            served: 0,
            passes: 0,
        }
    }

    /// Advances the served-query count; returns whether a maintenance
    /// pass is due before this query.
    pub fn due(&mut self) -> bool {
        let fire = self.served > 0 && self.served.is_multiple_of(self.period);
        self.served = self.served.wrapping_add(1);
        if fire {
            self.passes += 1;
        }
        fire
    }
}

/// A search system: given a world and a query, locate a matching peer.
pub trait SearchSystem {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Executes one query.
    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome;

    /// One-time/maintenance message cost this system has accumulated
    /// outside of queries (index publication, synopsis gossip). Reported
    /// separately from per-query cost.
    fn maintenance_messages(&self) -> u64 {
        0
    }
}

/// Gnutella-style TTL-limited flooding.
///
/// Generic over an instrumentation [`Recorder`]; the default
/// [`NoopRecorder`] monomorphizes every recording call away, so the
/// uninstrumented system is exactly the pre-recorder code.
#[derive(Debug)]
pub struct FloodSearch<R: Recorder = NoopRecorder> {
    /// Flood TTL.
    pub ttl: u32,
    engine: FloodEngine,
    events: EventEngine,
    forwarders: Vec<bool>,
    faults: Option<FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    replication: Option<ReplicaSet>,
    recorder: R,
}

impl<R: Recorder> FloodSearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::flood`]).
    pub(crate) fn assemble(
        world: &SearchWorld,
        ttl: u32,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        replication: Option<ReplicaSet>,
        mut recorder: R,
    ) -> Self {
        note_copies_placed(Kernel::Flood, replication.as_ref(), &mut recorder);
        Self {
            ttl,
            engine: FloodEngine::new(world.num_peers()),
            events: EventEngine::new(),
            forwarders: world.topology.forwarders(),
            faults,
            deadline,
            capacity,
            replication,
            recorder,
        }
    }

    /// The recorder this system has been writing into.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Consumes the system, returning its recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }
}

/// One flood query against an explicit holder set: the engine body
/// shared by the recorded primary run and the owner-only shadow run
/// that [`SearchSpec::replication`] uses for copies-hit accounting.
/// Admission control, engine selection (calendar on the deadline path,
/// census otherwise) and event recording all happen here, against
/// whichever recorder is passed.
#[allow(clippy::too_many_arguments)]
fn flood_once<R: Recorder>(
    engine: &mut FloodEngine,
    events: &mut EventEngine,
    forwarders: &[bool],
    faults: Option<&FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<&CapacityPlan>,
    ttl: u32,
    world: &SearchWorld,
    query: &QuerySpec,
    holders: &[u32],
    draw: Option<(u64, u64)>,
    rec: &mut R,
) -> SearchOutcome {
    let plan = query_faults(faults, draw);
    if let (Some(deadline), Some(plan)) = (deadline, plan) {
        // Deadline path: the event-driven flood on real link latencies,
        // cut off at the deadline; a capacity plan queues arrivals
        // (bitwise direct delivery when unlimited) behind ingress
        // admission control.
        if capacity.is_some_and(|cap| !cap.admit(query.source, plan.nonce)) {
            return reject_admission(Kernel::Flood, rec);
        }
        let (out, stats, over) = events.flood(
            &world.topology.graph,
            query.source,
            ttl,
            holders,
            Some(forwarders),
            plan,
            capacity,
            Some(deadline.ticks),
            rec,
        );
        let timed = SearchOutcome {
            success: out.flood.found,
            messages: out.flood.messages,
            hops: out.flood.found_at_hop,
            faults: stats,
            elapsed: out.first_hit_time.unwrap_or(out.completion_time),
            ..SearchOutcome::default()
        };
        return close_timed(Kernel::Flood, timed, out.truncated, &over, rec);
    }
    let spec = FloodSpec {
        plan,
        ..FloodSpec::new(ttl)
    };
    let (census, stats) = engine.run(
        &world.topology.graph,
        query.source,
        holders,
        Some(forwarders),
        &spec,
        rec,
    );
    let out = census.at(ttl);
    let level = ttl.min(census.levels()) as usize;
    SearchOutcome {
        success: out.found,
        messages: out.messages,
        hops: out.found_at_hop,
        faults: stats[level],
        elapsed: stats[level].ticks,
        ..SearchOutcome::default()
    }
}

impl<R: Recorder> SearchSystem for FloodSearch<R> {
    fn name(&self) -> String {
        format!("flood(ttl={})", self.ttl)
    }

    fn search(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        _rng: &mut Pcg64,
    ) -> SearchOutcome {
        let matching = world.matching_objects(&query.terms);
        let holders = match &self.replication {
            Some(r) => r.holders_of(&matching),
            None => world.holders_of(&matching),
        };
        // Draw the fault clock first (field-disjoint from engine/recorder),
        // then run the one unified flood entry point: the census at
        // `ttl` reconstructs the standalone flood bitwise (the BFS
        // prefix property, pinned in qcp-overlay).
        let draw = self.faults.as_mut().map(FaultContext::next_query);
        let out = flood_once(
            &mut self.engine,
            &mut self.events,
            &self.forwarders,
            self.faults.as_ref(),
            self.deadline,
            self.capacity.as_ref(),
            self.ttl,
            world,
            query,
            &holders,
            draw,
            &mut self.recorder,
        );
        if out.success && self.replication.is_some() {
            // Copies-hit accounting: replay the identical engine run
            // (same draws, same deadline/capacity path) over the
            // owner-only holders, recorder-free. A miss there means
            // replication rescued this query.
            let base = world.holders_of(&matching);
            let mut noop = NoopRecorder;
            let shadow = flood_once(
                &mut self.engine,
                &mut self.events,
                &self.forwarders,
                self.faults.as_ref(),
                self.deadline,
                self.capacity.as_ref(),
                self.ttl,
                world,
                query,
                &base,
                draw,
                &mut noop,
            );
            if !shadow.success {
                self.recorder
                    .rec_count(Kernel::Flood, Counter::CopiesHit, 1);
            }
        }
        out
    }
}

/// k-walker random walk search.
#[derive(Debug)]
pub struct RandomWalkSearch<R: Recorder = NoopRecorder> {
    /// Number of walkers.
    pub walkers: usize,
    /// Steps per walker.
    pub ttl: u32,
    events: EventEngine,
    faults: Option<FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    replication: Option<ReplicaSet>,
    recorder: R,
}

impl<R: Recorder> RandomWalkSearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::walk`]).
    pub(crate) fn assemble(
        walkers: usize,
        ttl: u32,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        replication: Option<ReplicaSet>,
        mut recorder: R,
    ) -> Self {
        note_copies_placed(Kernel::Walk, replication.as_ref(), &mut recorder);
        Self {
            walkers,
            ttl,
            events: EventEngine::new(),
            faults,
            deadline,
            capacity,
            replication,
            recorder,
        }
    }

    /// The recorder this system has been writing into.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Consumes the system, returning its recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }
}

/// One walk query against an explicit holder set (see [`flood_once`]):
/// draws the walk seed (deadline path) or walker steps (sync paths)
/// from `rng`, so the copies-hit shadow passes a pre-primary clone to
/// replay the exact walker trajectories over the owner-only holders.
#[allow(clippy::too_many_arguments)]
fn walk_once<R: Recorder>(
    events: &mut EventEngine,
    walkers: usize,
    ttl: u32,
    faults: Option<&FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<&CapacityPlan>,
    world: &SearchWorld,
    query: &QuerySpec,
    holders: &[u32],
    draw: Option<(u64, u64)>,
    rng: &mut Pcg64,
    rec: &mut R,
) -> SearchOutcome {
    let plan = query_faults(faults, draw);
    if let (Some(deadline), Some(plan)) = (deadline, plan) {
        // Deadline path: walkers race over real link latencies on the
        // event calendar; each walker draws from its own seeded
        // stream, so this path's one extra `rng` draw (the walk seed)
        // is its only RNG footprint. The seed is drawn before the
        // admission gate, so rejection never shifts later queries'
        // draws.
        let walk_seed = rng.next();
        if capacity.is_some_and(|cap| !cap.admit(query.source, plan.nonce)) {
            return reject_admission(Kernel::Walk, rec);
        }
        let (out, stats, over) = events.walk(
            &world.topology.graph,
            query.source,
            walkers,
            ttl,
            holders,
            walk_seed,
            plan,
            capacity,
            Some(deadline.ticks),
            rec,
        );
        let timed = SearchOutcome {
            success: out.walk.found,
            messages: out.walk.messages,
            hops: out.walk.found_at_step,
            faults: stats,
            elapsed: out.first_hit_time.unwrap_or(out.completion_time),
            ..SearchOutcome::default()
        };
        return close_timed(Kernel::Walk, timed, out.truncated, &over, rec);
    }
    let (out, stats) = random_walk_search(
        &world.topology.graph,
        query.source,
        walkers,
        ttl,
        holders,
        rng,
        plan,
        rec,
    );
    SearchOutcome {
        success: out.found,
        messages: out.messages,
        hops: out.found_at_step,
        faults: stats,
        elapsed: stats.ticks,
        ..SearchOutcome::default()
    }
}

impl<R: Recorder> SearchSystem for RandomWalkSearch<R> {
    fn name(&self) -> String {
        format!("walk(k={},ttl={})", self.walkers, self.ttl)
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        let matching = world.matching_objects(&query.terms);
        let holders = match &self.replication {
            Some(r) => r.holders_of(&matching),
            None => world.holders_of(&matching),
        };
        let draw = self.faults.as_mut().map(FaultContext::next_query);
        // Snapshot the walker RNG before the primary run so the shadow
        // replays the identical trajectories (the clone is dropped
        // unused when the query fails or replication is off).
        let mut shadow_rng = self.replication.as_ref().map(|_| rng.clone());
        let out = walk_once(
            &mut self.events,
            self.walkers,
            self.ttl,
            self.faults.as_ref(),
            self.deadline,
            self.capacity.as_ref(),
            world,
            query,
            &holders,
            draw,
            rng,
            &mut self.recorder,
        );
        if let (true, Some(srng)) = (out.success, shadow_rng.as_mut()) {
            let base = world.holders_of(&matching);
            let mut noop = NoopRecorder;
            let shadow = walk_once(
                &mut self.events,
                self.walkers,
                self.ttl,
                self.faults.as_ref(),
                self.deadline,
                self.capacity.as_ref(),
                world,
                query,
                &base,
                draw,
                srng,
                &mut noop,
            );
            if !shadow.success {
                self.recorder.rec_count(Kernel::Walk, Counter::CopiesHit, 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SearchWorld, WorldConfig};

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

    /// A query that matches an object held by a known peer.
    fn query_for_object(world: &SearchWorld, obj: u32) -> QuerySpec {
        QuerySpec {
            terms: world.object_terms[obj as usize].clone(),
            source: 0,
        }
    }

    #[test]
    fn flood_from_holder_succeeds_immediately() {
        let w = world();
        let obj = 5u32;
        let holder = w.placement.holders(obj)[0];
        let mut sys = SearchSpec::flood(0).build(&w).into_flood();
        let q = QuerySpec {
            terms: w.object_terms[obj as usize].clone(),
            source: holder,
        };
        let mut rng = Pcg64::new(1);
        let out = sys.search(&w, &q, &mut rng);
        assert!(out.success);
        assert_eq!(out.hops, Some(0));
    }

    #[test]
    fn flood_success_grows_with_ttl() {
        let w = world();
        let mut rng = Pcg64::new(2);
        let queries: Vec<QuerySpec> = (0..150).map(|_| w.sample_query(&mut rng)).collect();
        let mut hits_low = 0;
        let mut hits_high = 0;
        let mut low = SearchSpec::flood(1).build(&w).into_flood();
        let mut high = SearchSpec::flood(5).build(&w).into_flood();
        for q in &queries {
            if low.search(&w, q, &mut rng).success {
                hits_low += 1;
            }
            if high.search(&w, q, &mut rng).success {
                hits_high += 1;
            }
        }
        assert!(hits_high >= hits_low);
        assert!(hits_high > 0);
    }

    #[test]
    fn unsatisfiable_query_fails_everywhere() {
        let w = world();
        let q = QuerySpec {
            terms: vec![999_999],
            source: 3,
        };
        let mut rng = Pcg64::new(3);
        let mut flood = SearchSpec::flood(6).build(&w).into_flood();
        let mut walk = SearchSpec::walk(8, 100).build(&w).into_walk();
        assert!(!flood.search(&w, &q, &mut rng).success);
        assert!(!walk.search(&w, &q, &mut rng).success);
    }

    #[test]
    fn walk_costs_less_than_flood_at_scale() {
        let w = world();
        let mut rng = Pcg64::new(4);
        let q = query_for_object(&w, 100);
        let mut flood = SearchSpec::flood(5).build(&w).into_flood();
        let mut walk = SearchSpec::walk(4, 20).build(&w).into_walk();
        let f = flood.search(&w, &q, &mut rng);
        let wk = walk.search(&w, &q, &mut rng);
        assert!(
            wk.messages < f.messages,
            "walk {} flood {}",
            wk.messages,
            f.messages
        );
    }

    #[test]
    fn names_describe_parameters() {
        let w = world();
        assert_eq!(
            SearchSpec::flood(3).build(&w).into_flood().name(),
            "flood(ttl=3)"
        );
        assert_eq!(
            SearchSpec::walk(2, 7).build(&w).into_walk().name(),
            "walk(k=2,ttl=7)"
        );
    }
}

/// Expanding-ring (iterative-deepening) search: floods with TTL 1, 2, …
/// `max_ttl`, stopping at the first ring that finds a match. Cheap for
/// nearby content, wasteful for distant content — §V's observation that
/// "lower TTL values … rapidly identify rare queries" is this system's
/// failure mode under Zipf placement.
#[derive(Debug)]
pub struct ExpandingRingSearch<R: Recorder = NoopRecorder> {
    /// Deepest ring to try.
    pub max_ttl: u32,
    engine: FloodEngine,
    events: EventEngine,
    forwarders: Vec<bool>,
    faults: Option<FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    replication: Option<ReplicaSet>,
    recorder: R,
    /// Total rings attempted across every query served (for reports):
    /// `rings_attempted / queries` is the mean iterative-deepening depth,
    /// the knob §V's "rapidly identify rare queries" observation turns on.
    pub rings_attempted: u64,
    /// Total queries served.
    pub queries: u64,
}

impl<R: Recorder> ExpandingRingSearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::expanding_ring`]).
    pub(crate) fn assemble(
        world: &SearchWorld,
        max_ttl: u32,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        replication: Option<ReplicaSet>,
        mut recorder: R,
    ) -> Self {
        note_copies_placed(Kernel::ExpandingRing, replication.as_ref(), &mut recorder);
        Self {
            max_ttl,
            engine: FloodEngine::new(world.num_peers()),
            events: EventEngine::new(),
            forwarders: world.topology.forwarders(),
            faults,
            deadline,
            capacity,
            replication,
            recorder,
            rings_attempted: 0,
            queries: 0,
        }
    }

    /// Mean number of rings a query needed (0.0 before any query).
    pub fn mean_rings(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.rings_attempted as f64 / self.queries as f64
    }

    /// The recorder this system has been writing into.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Consumes the system, returning its recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }
}

/// One expanding-ring query against an explicit holder set (see
/// [`flood_once`]): returns the outcome plus the number of rings
/// attempted, which only the recorded primary run folds into the
/// system's depth accounting.
///
/// The deadline path runs rings as sequential event floods on one
/// virtual timeline, each cut off at whatever budget the earlier rings
/// left. Iterative deepening under a clock is exactly the paper's
/// trade-off — cheap rings first, but every miss burns time the deeper
/// rings no longer have.
#[allow(clippy::too_many_arguments)]
fn ring_once<R: Recorder>(
    engine: &mut FloodEngine,
    events: &mut EventEngine,
    forwarders: &[bool],
    faults: Option<&FaultContext>,
    deadline: Option<Deadline>,
    capacity: Option<&CapacityPlan>,
    max_ttl: u32,
    world: &SearchWorld,
    query: &QuerySpec,
    holders: &[u32],
    draw: Option<(u64, u64)>,
    rec: &mut R,
) -> (SearchOutcome, u64) {
    let plan = query_faults(faults, draw);
    if let (Some(deadline), Some(plan)) = (deadline, plan) {
        // Admission control gates the whole deepening schedule: a
        // rejected query never issues its first ring.
        if capacity.is_some_and(|cap| !cap.admit(query.source, plan.nonce)) {
            return (reject_admission(Kernel::ExpandingRing, rec), 0);
        }
        rec.rec_span(Kernel::ExpandingRing);
        if !plan.plan.alive_at(query.source, plan.time) {
            rec.rec_event(Kernel::ExpandingRing, Event::DeadSource);
            return (SearchOutcome::default(), 0);
        }
        let mut out = SearchOutcome::default();
        let mut spent = 0u64;
        let mut rings = 0u64;
        for ttl in 1..=max_ttl {
            // Each ring is an independent flood with its own drop-stream
            // position, as in the synchronous schedule's re-floods.
            let ring = FloodFaults {
                nonce: mix64(plan.nonce ^ u64::from(ttl)),
                ..plan
            };
            let (flood, ring_stats, over) = events.flood(
                &world.topology.graph,
                query.source,
                ttl,
                holders,
                Some(forwarders),
                ring,
                capacity,
                Some(deadline.ticks - spent),
                rec,
            );
            rings += 1;
            out.messages += flood.flood.messages;
            out.faults.absorb(&ring_stats);
            out.overload.absorb_outcome(&over);
            if flood.flood.found {
                out.success = true;
                out.hops = flood.flood.found_at_hop;
                out.elapsed = spent + flood.first_hit_time.unwrap_or(flood.completion_time);
                break;
            }
            spent += flood.completion_time;
            out.elapsed = spent;
            if flood.truncated || spent >= deadline.ticks {
                out.deadline_exceeded = true;
                break;
            }
        }
        // Answer-time semantics: the schedule stops at the hit, so its
        // consumed time is `elapsed`, not the sum of full ring drains.
        out.faults.ticks = out.elapsed;
        rec.rec_count(Kernel::ExpandingRing, Counter::Messages, out.messages);
        rec.rec_count(Kernel::ExpandingRing, Counter::Rings, rings);
        rec.rec_faults(Kernel::ExpandingRing, &out.faults);
        if let Some(h) = out.hops {
            rec.rec_hop(Kernel::ExpandingRing, h, 1);
        }
        if out.success {
            rec.rec_time(Kernel::ExpandingRing, out.elapsed, 1);
        }
        rec.rec_event(
            Kernel::ExpandingRing,
            if out.success { Event::Hit } else { Event::Miss },
        );
        if out.deadline_exceeded {
            rec.rec_event(Kernel::ExpandingRing, Event::DeadlineExceeded);
        }
        if out.overload.overloaded {
            rec.rec_event(Kernel::ExpandingRing, Event::Overloaded);
        }
        return (out, rings);
    }
    let (out, stats) = expanding_ring_search(
        engine,
        &world.topology.graph,
        query.source,
        max_ttl,
        holders,
        Some(forwarders),
        plan,
        rec,
    );
    (
        SearchOutcome {
            success: out.found,
            messages: out.messages,
            hops: out.found_at_ttl,
            faults: stats,
            elapsed: stats.ticks,
            ..SearchOutcome::default()
        },
        out.rings as u64,
    )
}

impl<R: Recorder> SearchSystem for ExpandingRingSearch<R> {
    fn name(&self) -> String {
        format!("expanding-ring(max={})", self.max_ttl)
    }

    fn search(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        _rng: &mut Pcg64,
    ) -> SearchOutcome {
        self.queries += 1;
        let matching = world.matching_objects(&query.terms);
        let holders = match &self.replication {
            Some(r) => r.holders_of(&matching),
            None => world.holders_of(&matching),
        };
        let draw = self.faults.as_mut().map(FaultContext::next_query);
        let (out, rings) = ring_once(
            &mut self.engine,
            &mut self.events,
            &self.forwarders,
            self.faults.as_ref(),
            self.deadline,
            self.capacity.as_ref(),
            self.max_ttl,
            world,
            query,
            &holders,
            draw,
            &mut self.recorder,
        );
        self.rings_attempted += rings;
        if out.success && self.replication.is_some() {
            // Copies-hit accounting (see FloodSearch::search): the
            // shadow's rings are not depth accounting, so they are
            // dropped along with its recording.
            let base = world.holders_of(&matching);
            let mut noop = NoopRecorder;
            let (shadow, _) = ring_once(
                &mut self.engine,
                &mut self.events,
                &self.forwarders,
                self.faults.as_ref(),
                self.deadline,
                self.capacity.as_ref(),
                self.max_ttl,
                world,
                query,
                &base,
                draw,
                &mut noop,
            );
            if !shadow.success {
                self.recorder
                    .rec_count(Kernel::ExpandingRing, Counter::CopiesHit, 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod expanding_tests {
    use super::*;
    use crate::world::{SearchWorld, WorldConfig};

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

    #[test]
    fn expanding_ring_matches_flood_success_at_equal_depth() {
        let w = world();
        let mut rng = Pcg64::new(1);
        let queries: Vec<QuerySpec> = (0..150).map(|_| w.sample_query(&mut rng)).collect();
        let mut ring = SearchSpec::expanding_ring(4)
            .build(&w)
            .into_expanding_ring();
        let mut flood = SearchSpec::flood(4).build(&w).into_flood();
        for q in &queries {
            let a = ring.search(&w, q, &mut rng);
            let b = flood.search(&w, q, &mut rng);
            assert_eq!(
                a.success, b.success,
                "ring and flood must agree on reachability"
            );
        }
    }

    #[test]
    fn expanding_ring_cheaper_for_nearby_content() {
        let w = world();
        let mut rng = Pcg64::new(2);
        // Query issued by a direct neighbor of a holder: ring stops at 1.
        let obj = 40u32;
        let holder = w.placement.holders(obj)[0];
        let neighbor = w.topology.graph.neighbors(holder)[0];
        let q = QuerySpec {
            terms: w.object_terms[obj as usize].clone(),
            source: neighbor,
        };
        let mut ring = SearchSpec::expanding_ring(5)
            .build(&w)
            .into_expanding_ring();
        let mut flood = SearchSpec::flood(5).build(&w).into_flood();
        let a = ring.search(&w, &q, &mut rng);
        let b = flood.search(&w, &q, &mut rng);
        assert!(a.success);
        assert!(
            a.messages < b.messages,
            "ring {} should be cheaper than full flood {}",
            a.messages,
            b.messages
        );
    }

    #[test]
    fn ring_depth_accounting_tracks_queries() {
        let w = world();
        let mut rng = Pcg64::new(3);
        let mut ring = SearchSpec::expanding_ring(4)
            .build(&w)
            .into_expanding_ring();
        assert_eq!(ring.mean_rings(), 0.0, "no queries yet");
        let queries: Vec<QuerySpec> = (0..50).map(|_| w.sample_query(&mut rng)).collect();
        for q in &queries {
            ring.search(&w, q, &mut rng);
        }
        assert_eq!(ring.queries, 50);
        assert!(ring.rings_attempted >= 50, "every query tries >=1 ring");
        assert!(ring.rings_attempted <= 50 * 4, "bounded by max_ttl");
        let mean = ring.mean_rings();
        assert!((1.0..=4.0).contains(&mean), "mean depth {mean}");
    }
}
