//! The search-system interface and the unstructured baselines of §V:
//! flooding, k-walker random walks and expanding ring, as one system.

#[cfg(any(test, doc))]
use crate::spec::SearchSpec;
use crate::world::{holders_in, QuerySpec, SearchWorld};
use qcp_faults::{CapacityPlan, FaultPlan, FaultStats, RetryPolicy};
use qcp_obs::{Counter, Event, Kernel, NoopRecorder, Recorder};
use qcp_overlay::expanding::expanding_ring_search;
use qcp_overlay::flood::{FloodEngine, FloodFaults, FloodSpec};
use qcp_overlay::walk::random_walk_search;
use qcp_overlay::{EventEngine, Graph, OverloadOutcome, Placement, ReplicationPlan};
use qcp_util::hash::mix64;
use qcp_util::rng::{child_seed, Pcg64};
use qcp_vtime::Deadline;

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

/// Which search an [`UnstructuredSearch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// Gnutella-style TTL-limited flooding ([`SearchSpec::flood`]).
    Flood { ttl: u32 },
    /// `walkers` random walkers of `ttl` steps each ([`SearchSpec::walk`]).
    Walk { walkers: usize, ttl: u32 },
    /// Expanding-ring (iterative-deepening) search
    /// ([`SearchSpec::expanding_ring`]): floods with TTL 1, 2, …
    /// `max_ttl`, stopping at the first ring that finds a match. Cheap
    /// for nearby content, wasteful for distant content — §V's
    /// observation that "lower TTL values … rapidly identify rare
    /// queries" is this strategy's failure mode under Zipf placement.
    Ring { max_ttl: u32 },
}

impl Strategy {
    /// The kernel this strategy records under.
    fn kernel(self) -> Kernel {
        match self {
            Strategy::Flood { .. } => Kernel::Flood,
            Strategy::Walk { .. } => Kernel::Walk,
            Strategy::Ring { .. } => Kernel::ExpandingRing,
        }
    }

    /// The builder's name for this kind of system.
    pub(crate) fn kind_name(self) -> &'static str {
        match self {
            Strategy::Flood { .. } => "flood",
            Strategy::Walk { .. } => "walk",
            Strategy::Ring { .. } => "expanding-ring",
        }
    }
}

/// The unstructured baselines of §V — TTL flooding, k-walker random
/// walks and expanding ring — as one system: a strategy, one copy of
/// each layer (faults, deadline, capacity, replication, recorder) and
/// one search frame. Built by [`SearchSpec::flood`],
/// [`SearchSpec::walk`] and [`SearchSpec::expanding_ring`].
///
/// Generic over an instrumentation [`Recorder`]; the default
/// [`NoopRecorder`] monomorphizes every recording call away, so the
/// uninstrumented system is exactly the pre-recorder code.
#[derive(Debug)]
pub struct UnstructuredSearch<R: Recorder = NoopRecorder> {
    runner: Runner,
    faults: Option<FaultContext>,
    /// The placement a [`SearchSpec::replication`] build searches over:
    /// the plan applied once to the world's placement at build time. The
    /// world's own placement stays the owner-only ground truth, which
    /// the copies-hit shadow runs replay against.
    replicated: Option<Placement>,
    recorder: R,
}

/// What an engine run reads besides its [`QueryRun`] and recorder: the
/// strategy, its engines, and the deadline and capacity layers.
#[derive(Debug)]
struct Runner {
    strategy: Strategy,
    engine: FloodEngine,
    events: EventEngine,
    forwarders: Vec<bool>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
}

/// One engine run's inputs: the overlay, the issuing peer, the holders
/// searched for and the fault plan at the query's clock draw. The
/// copies-hit shadow reruns the primary's inputs with only the holders
/// swapped.
#[derive(Clone, Copy)]
struct QueryRun<'a> {
    graph: &'a Graph,
    source: u32,
    holders: &'a [u32],
    plan: Option<FloodFaults<'a>>,
}

impl<R: Recorder> UnstructuredSearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::build`]): applies
    /// the replication plan, if any, and records its `CopiesPlaced`.
    pub(crate) fn assemble(
        world: &SearchWorld,
        strategy: Strategy,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        replication: Option<ReplicationPlan>,
        mut recorder: R,
    ) -> Self {
        // The plan places exactly its budget of extra copies.
        if let Some(plan) = replication {
            recorder.rec_count(strategy.kernel(), Counter::CopiesPlaced, plan.budget);
        }
        let replicated =
            replication.map(|plan| plan.apply(&world.topology.graph, &world.placement));
        Self {
            runner: Runner {
                strategy,
                engine: FloodEngine::new(world.num_peers()),
                events: EventEngine::new(),
                forwarders: world.topology.forwarders(),
                deadline,
                capacity,
            },
            faults,
            replicated,
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

impl<R: Recorder> SearchSystem for UnstructuredSearch<R> {
    fn name(&self) -> String {
        match self.runner.strategy {
            Strategy::Flood { ttl } => format!("flood(ttl={ttl})"),
            Strategy::Walk { walkers, ttl } => format!("walk(k={walkers},ttl={ttl})"),
            Strategy::Ring { max_ttl } => format!("expanding-ring(max={max_ttl})"),
        }
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        let matching = world.matching_objects(&query.terms);
        let placement = self.replicated.as_ref().unwrap_or(&world.placement);
        let holders = holders_in(placement, &matching);
        let draw = self.faults.as_mut().map(FaultContext::next_query);
        let primary = QueryRun {
            graph: &world.topology.graph,
            source: query.source,
            holders: &holders,
            plan: query_faults(self.faults.as_ref(), draw),
        };
        // Snapshot the walker RNG before the primary run so the shadow
        // replays the identical trajectories (floods and rings never draw
        // from it; the clone is dropped unused when the query fails).
        let walk = matches!(self.runner.strategy, Strategy::Walk { .. });
        let mut shadow_rng = (walk && self.replicated.is_some()).then(|| rng.clone());
        let out = self.runner.run(&primary, rng, &mut self.recorder);
        if out.success && self.replicated.is_some() {
            // Copies-hit accounting: replay the identical engine run
            // (same draws, same deadline/capacity path) over the
            // owner-only holders, recorder-free. A miss there means
            // replication rescued this query.
            let base = world.holders_of(&matching);
            let owner_only = QueryRun {
                holders: &base,
                ..primary
            };
            let shadow_rng = shadow_rng.as_mut().unwrap_or(rng);
            let shadow = self.runner.run(&owner_only, shadow_rng, &mut NoopRecorder);
            if !shadow.success {
                let kernel = self.runner.strategy.kernel();
                self.recorder.rec_count(kernel, Counter::CopiesHit, 1);
            }
        }
        out
    }
}

impl Runner {
    /// One engine run, recorded into `rec`. With a deadline (and so a
    /// fault context) attached, the strategy runs on the calendar engine
    /// behind the admission gate, cut off at the deadline, with a
    /// capacity plan queueing its arrivals (bitwise direct delivery when
    /// unlimited); otherwise it takes the synchronous path.
    fn run<R: Recorder>(
        &mut self,
        run: &QueryRun<'_>,
        rng: &mut Pcg64,
        rec: &mut R,
    ) -> SearchOutcome {
        let Some((deadline, plan)) = self.deadline.zip(run.plan) else {
            return self.run_sync(run, rng, rec);
        };
        let kernel = self.strategy.kernel();
        // The walk's one draw on this path is its calendar seed (each
        // walker then draws from its own seeded stream). It comes before
        // the admission gate, so a rejection never shifts later queries'
        // draws.
        let walk_seed = match self.strategy {
            Strategy::Walk { .. } => rng.next(),
            _ => 0,
        };
        let capacity = self.capacity.as_ref();
        if capacity.is_some_and(|cap| !cap.admit(run.source, plan.nonce)) {
            return reject_admission(kernel, rec);
        }
        let cutoff = Some(deadline.ticks);
        let (mut out, truncated, over) = match self.strategy {
            Strategy::Flood { ttl } => {
                let (o, stats, over) = self.events.flood(
                    run.graph,
                    run.source,
                    ttl,
                    run.holders,
                    Some(&self.forwarders),
                    plan,
                    capacity,
                    cutoff,
                    rec,
                );
                let out = SearchOutcome {
                    success: o.flood.found,
                    messages: o.flood.messages,
                    hops: o.flood.found_at_hop,
                    faults: stats,
                    elapsed: o.first_hit_time.unwrap_or(o.completion_time),
                    ..SearchOutcome::default()
                };
                (out, o.truncated, over)
            }
            Strategy::Walk { walkers, ttl } => {
                let (o, stats, over) = self.events.walk(
                    run.graph,
                    run.source,
                    walkers,
                    ttl,
                    run.holders,
                    walk_seed,
                    plan,
                    capacity,
                    cutoff,
                    rec,
                );
                let out = SearchOutcome {
                    success: o.walk.found,
                    messages: o.walk.messages,
                    hops: o.walk.found_at_step,
                    faults: stats,
                    elapsed: o.first_hit_time.unwrap_or(o.completion_time),
                    ..SearchOutcome::default()
                };
                (out, o.truncated, over)
            }
            Strategy::Ring { max_ttl } => {
                return self.ring_timed(max_ttl, run, plan, deadline, rec)
            }
        };
        // A truncated run that found nothing was ended by the clock; a
        // run that shed work is overloaded.
        out.deadline_exceeded = truncated && !out.success;
        if out.deadline_exceeded {
            rec.rec_event(kernel, Event::DeadlineExceeded);
        }
        out.overload = OverloadStats::from_outcome(&over);
        if out.overload.overloaded {
            rec.rec_event(kernel, Event::Overloaded);
        }
        out
    }

    /// The synchronous path: the flood census (whose level `ttl`
    /// reconstructs the standalone flood bitwise — the BFS prefix
    /// property, pinned in qcp-overlay), stepped walkers drawing from
    /// `rng`, or the census-backed ring schedule.
    fn run_sync<R: Recorder>(
        &mut self,
        run: &QueryRun<'_>,
        rng: &mut Pcg64,
        rec: &mut R,
    ) -> SearchOutcome {
        let QueryRun {
            graph,
            source,
            holders,
            plan,
        } = *run;
        let (success, messages, hops, faults) = match self.strategy {
            Strategy::Flood { ttl } => {
                let spec = FloodSpec {
                    plan,
                    ..FloodSpec::new(ttl)
                };
                let forwarders = Some(self.forwarders.as_slice());
                let (census, stats) = self
                    .engine
                    .run(graph, source, holders, forwarders, &spec, rec);
                let out = census.at(ttl);
                let level = ttl.min(census.levels()) as usize;
                (out.found, out.messages, out.found_at_hop, stats[level])
            }
            Strategy::Walk { walkers, ttl } => {
                let (out, stats) =
                    random_walk_search(graph, source, walkers, ttl, holders, rng, plan, rec);
                (out.found, out.messages, out.found_at_step, stats)
            }
            Strategy::Ring { max_ttl } => {
                let (out, stats) = expanding_ring_search(
                    &mut self.engine,
                    graph,
                    source,
                    max_ttl,
                    holders,
                    Some(&self.forwarders),
                    plan,
                    rec,
                );
                (out.found, out.messages, out.found_at_ttl, stats)
            }
        };
        SearchOutcome {
            success,
            messages,
            hops,
            faults,
            elapsed: faults.ticks,
            ..SearchOutcome::default()
        }
    }

    /// The ring schedule on the deadline path, past the admission gate:
    /// rings run as sequential event floods on one virtual timeline,
    /// each cut off at whatever budget the earlier rings left. The
    /// schedule closes itself: its counters sum every ring, and it
    /// exceeds the deadline when a ring was cut off or the rings used up
    /// the budget before a hit. Iterative deepening under a clock is
    /// exactly the paper's trade-off — cheap rings first, but every miss
    /// burns time the deeper rings no longer have.
    fn ring_timed<R: Recorder>(
        &mut self,
        max_ttl: u32,
        run: &QueryRun<'_>,
        plan: FloodFaults<'_>,
        deadline: Deadline,
        rec: &mut R,
    ) -> SearchOutcome {
        let kernel = Kernel::ExpandingRing;
        rec.rec_span(kernel);
        if !plan.plan.alive_at(run.source, plan.time) {
            rec.rec_event(kernel, Event::DeadSource);
            return SearchOutcome::default();
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
            let (flood, ring_stats, over) = self.events.flood(
                run.graph,
                run.source,
                ttl,
                run.holders,
                Some(&self.forwarders),
                ring,
                self.capacity.as_ref(),
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
        rec.rec_count(kernel, Counter::Messages, out.messages);
        rec.rec_count(kernel, Counter::Rings, rings);
        rec.rec_faults(kernel, &out.faults);
        if let Some(h) = out.hops {
            rec.rec_hop(kernel, h, 1);
        }
        if out.success {
            rec.rec_time(kernel, out.elapsed, 1);
        }
        rec.rec_event(kernel, if out.success { Event::Hit } else { Event::Miss });
        if out.deadline_exceeded {
            rec.rec_event(kernel, Event::DeadlineExceeded);
        }
        if out.overload.overloaded {
            rec.rec_event(kernel, Event::Overloaded);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SearchWorld, WorldConfig};
    use qcp_faults::FaultConfig;
    use qcp_obs::MetricsRecorder;
    use qcp_overlay::ReplicationScheme;

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
        let mut sys = SearchSpec::flood(0).build(&w);
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
        let mut low = SearchSpec::flood(1).build(&w);
        let mut high = SearchSpec::flood(5).build(&w);
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
        let mut flood = SearchSpec::flood(6).build(&w);
        let mut walk = SearchSpec::walk(8, 100).build(&w);
        assert!(!flood.search(&w, &q, &mut rng).success);
        assert!(!walk.search(&w, &q, &mut rng).success);
    }

    #[test]
    fn walk_costs_less_than_flood_at_scale() {
        let w = world();
        let mut rng = Pcg64::new(4);
        let q = query_for_object(&w, 100);
        let mut flood = SearchSpec::flood(5).build(&w);
        let mut walk = SearchSpec::walk(4, 20).build(&w);
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
        assert_eq!(SearchSpec::flood(3).build(&w).name(), "flood(ttl=3)");
        assert_eq!(SearchSpec::walk(2, 7).build(&w).name(), "walk(k=2,ttl=7)");
        assert_eq!(
            SearchSpec::expanding_ring(5).build(&w).name(),
            "expanding-ring(max=5)"
        );
    }

    #[test]
    fn expanding_ring_matches_flood_success_at_equal_depth() {
        let w = world();
        let mut rng = Pcg64::new(1);
        let queries: Vec<QuerySpec> = (0..150).map(|_| w.sample_query(&mut rng)).collect();
        let mut ring = SearchSpec::expanding_ring(4).build(&w);
        let mut flood = SearchSpec::flood(4).build(&w);
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
        let mut ring = SearchSpec::expanding_ring(5).build(&w);
        let mut flood = SearchSpec::flood(5).build(&w);
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

    /// The recorder's `Rings` total is the iterative-deepening depth
    /// accounting: every query tries at least one ring and at most
    /// `max_ttl`.
    #[test]
    fn ring_depth_accounting_tracks_queries() {
        let w = world();
        let mut rng = Pcg64::new(3);
        let mut ring = SearchSpec::expanding_ring(4)
            .recorder(MetricsRecorder::new())
            .build(&w);
        let rings = |r: &MetricsRecorder| r.total(Kernel::ExpandingRing, Counter::Rings);
        assert_eq!(rings(ring.recorder()), 0, "no queries yet");
        let queries: Vec<QuerySpec> = (0..50).map(|_| w.sample_query(&mut rng)).collect();
        for q in &queries {
            ring.search(&w, q, &mut rng);
        }
        let rec = ring.recorder();
        assert_eq!(rec.spans(Kernel::ExpandingRing), 50);
        assert!(rings(rec) >= 50, "every query tries >=1 ring");
        assert!(rings(rec) <= 50 * 4, "bounded by max_ttl");
    }

    /// The copies-hit shadow runs recorder-free, so it adds no rings: a
    /// replicated build records exactly the rings of a plain build over
    /// a world whose placement already holds the copies — on the
    /// synchronous path and on the deadline path, with rescues to
    /// replay in both.
    #[test]
    fn copies_hit_shadow_adds_no_rings() {
        let w = world();
        let plan = ReplicationPlan::new(ReplicationScheme::Path, 6_000, 0xf1f8);
        let mut grown = world();
        grown.placement = plan.apply(&w.topology.graph, &w.placement);
        let mut rng = Pcg64::new(5);
        let queries: Vec<QuerySpec> = (0..120).map(|_| w.sample_query(&mut rng)).collect();
        let ctx = || {
            let cfg = FaultConfig {
                loss: 0.1,
                mean_latency: 4,
                seed: 7,
                ..Default::default()
            };
            FaultContext::new(FaultPlan::build(400, &cfg), RetryPolicy::default(), 8)
        };
        for timed in [false, true] {
            let layered = |spec: SearchSpec| match timed {
                true => spec.faults(ctx()).deadline(Deadline::after(40)),
                false => spec,
            };
            let mut repl = layered(SearchSpec::expanding_ring(2))
                .replication(plan)
                .recorder(MetricsRecorder::new())
                .build(&w);
            let mut plain = layered(SearchSpec::expanding_ring(2))
                .recorder(MetricsRecorder::new())
                .build(&grown);
            for (i, q) in queries.iter().enumerate() {
                let a = repl.search(&w, q, &mut Pcg64::new(i as u64));
                let b = plain.search(&grown, q, &mut Pcg64::new(i as u64));
                assert_eq!(a, b, "the replicated build searches the grown placement");
            }
            let (repl, plain) = (repl.recorder(), plain.recorder());
            let total = |r: &MetricsRecorder, c| r.total(Kernel::ExpandingRing, c);
            assert!(
                total(repl, Counter::CopiesHit) > 0,
                "timed={timed}: shadows must run"
            );
            assert_eq!(
                total(repl, Counter::Rings),
                total(plain, Counter::Rings),
                "timed={timed}: shadow rings leaked into the depth accounting"
            );
        }
    }
}
