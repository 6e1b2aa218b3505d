//! Hybrid flood + DHT search (Loo et al., IPTPS'04 — the paper's ref \[5\]).
//!
//! The hybrid strategy: flood with a small TTL first (cheap for popular
//! content); if the flood returns fewer than `rare_threshold` results the
//! query is deemed *rare* and re-issued over the structured overlay, whose
//! global inverted index always finds published content in `O(log n)` hops
//! per term.
//!
//! The paper's §V claim, which `repro table3` reproduces: under the real
//! (Zipf) replica distribution almost every query is "rare", so the hybrid
//! pays the flood *and* the DHT cost and ends up strictly worse than a
//! pure DHT. The [`DhtOnlySearch`] baseline makes that comparison direct.

#[cfg(any(test, doc))]
use crate::spec::SearchSpec;
use crate::systems::{
    query_faults, reject_admission, FaultContext, MaintenanceSchedule, OverloadStats,
    SearchOutcome, SearchSystem,
};
use crate::world::{QuerySpec, SearchWorld};
use qcp_dht::{ChordNetwork, DhtIndex};
use qcp_faults::{CapacityPlan, FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, NoopRecorder, Recorder};
use qcp_overlay::flood::{FloodEngine, FloodFaults, FloodSpec};
use qcp_overlay::EventEngine;
use qcp_util::hash::mix64;
use qcp_util::rng::Pcg64;
use qcp_vtime::Deadline;

/// Ring key for a world term id.
#[inline]
fn term_key(term: u32) -> u64 {
    mix64(term as u64 ^ 0xd47_0000_7e21)
}

/// Domain tag deriving the DHT-phase nonce from a query's fault nonce.
/// The synchronous fallback and the deadline fallback share it
/// *deliberately*: both paths must address the same per-query fault
/// stream, or a generous deadline could not reproduce the synchronous
/// outcome (pinned by `spec::deadline_tests`).
const DHT_PHASE_TAG: u64 = 0xd47;

/// Builds the global DHT index for a world: every object published under
/// every one of its terms, from one of its holders.
fn build_index(world: &SearchWorld, net: &ChordNetwork) -> DhtIndex {
    let mut index = DhtIndex::new(net);
    for obj in 0..world.num_objects() as u32 {
        let holders = world.placement.holders(obj);
        if holders.is_empty() {
            continue;
        }
        let publisher = holders[0];
        for &t in &world.object_terms[obj as usize] {
            index.publish_key(net, publisher, term_key(t), obj);
        }
    }
    index
}

/// The DHT keys of a query's terms.
fn query_keys(query: &QuerySpec) -> Vec<u64> {
    query.terms.iter().map(|&t| term_key(t)).collect()
}

/// Runs one maintenance pass if `schedule` has one due before this
/// query: posting lists stranded on departed owners move to their first
/// alive successor (against the plan's alive mask at tick `time`), so
/// later lookups stop missing stale. Records the pass under
/// [`Kernel::Repair`] and returns its transfer messages (0 when no pass
/// was due).
fn maintain<R: Recorder>(
    schedule: Option<&mut MaintenanceSchedule>,
    index: &mut DhtIndex,
    net: &ChordNetwork,
    plan: &FaultPlan,
    time: u64,
    rec: &mut R,
) -> u64 {
    if !schedule.is_some_and(|s| s.due()) {
        return 0;
    }
    let (_, messages) = index.re_replicate(net, &plan.alive_mask_at(time));
    rec.rec_span(Kernel::Repair);
    rec.rec_count(Kernel::Repair, Counter::Messages, messages);
    messages
}

/// Records one structured query under [`Kernel::ChordLookup`]
/// (record-after style: the query's own accounting is the source of
/// truth, the recorder only mirrors it, so recording cannot perturb the
/// query): one span, `event` (a hit, a miss or a hybrid's fallback), the
/// `(messages, hops)` of its term lookups, its fault counters (all zero,
/// and so no change, for a fault-free query), the virtual time when the
/// DHT answered it under a deadline, and whether the deadline cut it
/// short.
fn record_lookup<R: Recorder>(
    rec: &mut R,
    event: Event,
    (messages, hops): (u64, u32),
    faults: &FaultStats,
    time: Option<u64>,
    deadline_exceeded: bool,
) {
    rec.rec_span(Kernel::ChordLookup);
    rec.rec_event(Kernel::ChordLookup, event);
    rec.rec_count(Kernel::ChordLookup, Counter::Messages, messages);
    rec.rec_hop(Kernel::ChordLookup, hops, 1);
    rec.rec_faults(Kernel::ChordLookup, faults);
    if let Some(time) = time {
        rec.rec_time(Kernel::ChordLookup, time, 1);
    }
    if deadline_exceeded {
        rec.rec_event(Kernel::ChordLookup, Event::DeadlineExceeded);
    }
}

/// Flood-then-DHT hybrid search.
///
/// Generic over an instrumentation [`Recorder`] (default
/// [`NoopRecorder`], which compiles recording away): the flood phase
/// records in-kernel under [`Kernel::Flood`]; the structured fallback
/// and repair passes record after the fact under
/// [`Kernel::ChordLookup`] / [`Kernel::Repair`].
#[derive(Debug)]
pub struct HybridSearch<R: Recorder = NoopRecorder> {
    /// Unstructured phase TTL.
    pub flood_ttl: u32,
    /// Result-count threshold below which the query is "rare".
    pub rare_threshold: u32,
    net: ChordNetwork,
    index: DhtIndex,
    engine: FloodEngine,
    events: EventEngine,
    forwarders: Vec<bool>,
    faults: Option<FaultContext>,
    maintenance: Option<MaintenanceSchedule>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    repair_messages: u64,
    recorder: R,
    /// Queries that fell back to the DHT (for reports).
    pub fallbacks: u64,
    /// Total queries served.
    pub queries: u64,
}

impl<R: Recorder> HybridSearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::hybrid`]). The
    /// parameter list mirrors the spec's fields one-to-one; callers go
    /// through the builder, never this signature.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        world: &SearchWorld,
        flood_ttl: u32,
        rare_threshold: u32,
        seed: u64,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        recorder: R,
    ) -> Self {
        let net = ChordNetwork::new(world.num_peers(), seed ^ 0xcd);
        let index = build_index(world, &net);
        Self {
            flood_ttl,
            rare_threshold,
            net,
            index,
            engine: FloodEngine::new(world.num_peers()),
            events: EventEngine::new(),
            forwarders: world.topology.forwarders(),
            faults,
            maintenance: None,
            deadline,
            capacity,
            repair_messages: 0,
            recorder,
            fallbacks: 0,
            queries: 0,
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

    /// Attaches a maintenance schedule: before every `schedule`-th query
    /// the index re-replicates posting lists stranded on departed owners
    /// (against the plan's alive mask at that query's tick), so stale
    /// misses decay mid-workload. Only meaningful together with a fault
    /// context ([`SearchSpec::faults`]); without one there is no alive
    /// mask and no pass runs.
    pub fn with_maintenance(mut self, schedule: MaintenanceSchedule) -> Self {
        self.maintenance = Some(schedule);
        self
    }

    /// Maintenance passes fired so far (0 without a schedule).
    pub fn maintenance_passes(&self) -> u64 {
        self.maintenance.as_ref().map_or(0, |m| m.passes)
    }

    /// Fraction of queries that needed the structured fallback.
    pub fn fallback_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.fallbacks as f64 / self.queries as f64
    }

    /// The synchronous query path, fault-free or faulty: the flood phase
    /// is one census at `flood_ttl`; rare queries fall back to the DHT,
    /// with retry/backoff per hop under faults.
    fn search_sync(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        draw: Option<(u64, u64)>,
    ) -> SearchOutcome {
        let plan = query_faults(self.faults.as_ref(), draw);
        if plan.is_some_and(|f| !f.plan.alive_at(query.source, f.time)) {
            // A departed peer issues nothing.
            self.recorder.rec_span(Kernel::Flood);
            self.recorder.rec_event(Kernel::Flood, Event::DeadSource);
            return SearchOutcome::default();
        }
        let matching = world.matching_objects(&query.terms);
        let holders = world.holders_of(&matching);
        // The census at `flood_ttl` is the standalone flood at that TTL,
        // bitwise (BFS prefix property).
        let spec = FloodSpec {
            plan,
            ..FloodSpec::new(self.flood_ttl)
        };
        let (census, level_stats) = self.engine.run(
            &world.topology.graph,
            query.source,
            &holders,
            Some(&self.forwarders),
            &spec,
            &mut self.recorder,
        );
        let flood = census.at(self.flood_ttl);
        let mut stats = level_stats[self.flood_ttl.min(census.levels()) as usize];
        if self.engine.hits_in_last_flood(&holders) >= self.rare_threshold {
            return SearchOutcome {
                success: flood.found,
                messages: flood.messages,
                hops: flood.found_at_hop,
                faults: stats,
                elapsed: stats.ticks,
                ..SearchOutcome::default()
            };
        }
        // Rare query: re-issue over the DHT.
        self.fallbacks += 1;
        let keys = query_keys(query);
        let (dht, dht_stats) = match self.faults.as_ref().zip(draw) {
            Some((ctx, (time, nonce))) => self.index.query_keys_faulty(
                &self.net,
                query.source,
                &keys,
                &ctx.plan,
                &ctx.policy,
                time,
                mix64(nonce ^ DHT_PHASE_TAG),
            ),
            None => (
                self.index.query_keys(&self.net, query.source, &keys),
                FaultStats::default(),
            ),
        };
        stats.absorb(&dht_stats);
        record_lookup(
            &mut self.recorder,
            Event::Fallback,
            (dht.messages, dht.hops),
            &dht_stats,
            None,
            false,
        );
        SearchOutcome {
            success: flood.found || !dht.results.is_empty(),
            messages: flood.messages + dht.messages,
            hops: flood.found_at_hop.or(Some(dht.hops)),
            faults: stats,
            elapsed: stats.ticks,
            ..SearchOutcome::default()
        }
    }

    /// The deadline query path: an event-driven flood phase cut off at
    /// the deadline, then — for rare queries — the timed DHT fallback
    /// against whatever budget the flood left. A query that runs out of
    /// time degrades to its best-so-far answer: the flood's hit if it
    /// had one, or the DHT's partial intersection, with
    /// `deadline_exceeded` marking that the clock ended the search.
    fn search_deadline(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        deadline: Deadline,
        (time, nonce): (u64, u64),
    ) -> SearchOutcome {
        // qcplint: allow(panic) — build() rejects deadline sans faults.
        let ctx = self.faults.as_ref().expect("deadline requires faults");
        if let Some(cap) = &self.capacity {
            // Ingress admission control: a refused query pays nothing
            // and skips both phases.
            if !cap.admit(query.source, nonce) {
                return reject_admission(Kernel::Flood, &mut self.recorder);
            }
        }
        if !ctx.plan.alive_at(query.source, time) {
            self.recorder.rec_span(Kernel::Flood);
            self.recorder.rec_event(Kernel::Flood, Event::DeadSource);
            return SearchOutcome::default();
        }
        let matching = world.matching_objects(&query.terms);
        let holders = world.holders_of(&matching);
        // The flood phase alone is capacity-bound; the structured
        // fallback models provisioned infrastructure and keeps its
        // retry/timeout semantics.
        let (flood, mut stats, over) = self.events.flood(
            &world.topology.graph,
            query.source,
            self.flood_ttl,
            &holders,
            Some(&self.forwarders),
            FloodFaults {
                plan: &ctx.plan,
                time,
                nonce,
            },
            self.capacity.as_ref(),
            Some(deadline.ticks),
            &mut self.recorder,
        );
        let overload = OverloadStats::from_outcome(&over);
        if overload.overloaded {
            self.recorder.rec_event(Kernel::Flood, Event::Overloaded);
        }
        if flood.holders_reached >= self.rare_threshold {
            let exceeded = flood.truncated && !flood.flood.found;
            if exceeded {
                self.recorder
                    .rec_event(Kernel::Flood, Event::DeadlineExceeded);
            }
            return SearchOutcome {
                success: flood.flood.found,
                messages: flood.flood.messages,
                hops: flood.flood.found_at_hop,
                faults: stats,
                elapsed: flood.first_hit_time.unwrap_or(flood.completion_time),
                deadline_exceeded: exceeded,
                overload,
            };
        }
        // Rare query: the timed DHT phase starts when the flood drains
        // (or is cut off) and inherits only the remaining budget.
        self.fallbacks += 1;
        let keys = query_keys(query);
        let budget = deadline.ticks.saturating_sub(flood.completion_time);
        let (dht, dht_stats) = self.index.query_keys_timed(
            &self.net,
            query.source,
            &keys,
            &ctx.plan,
            &ctx.policy,
            time,
            mix64(nonce ^ DHT_PHASE_TAG),
            Some(budget),
        );
        stats.absorb(&dht_stats);
        let success = flood.flood.found || !dht.results.is_empty();
        let elapsed = if flood.flood.found {
            // qcplint: allow(panic) — `found` implies a hit time.
            flood.first_hit_time.expect("flood hit carries a time")
        } else {
            flood.completion_time + dht.elapsed
        };
        record_lookup(
            &mut self.recorder,
            Event::Fallback,
            (dht.messages, dht.hops),
            &dht_stats,
            (success && !flood.flood.found).then_some(elapsed),
            dht.deadline_exceeded,
        );
        SearchOutcome {
            success,
            messages: flood.flood.messages + dht.messages,
            hops: flood.flood.found_at_hop.or(Some(dht.hops)),
            faults: stats,
            elapsed,
            deadline_exceeded: dht.deadline_exceeded,
            overload,
        }
    }
}

impl<R: Recorder> SearchSystem for HybridSearch<R> {
    fn name(&self) -> String {
        format!(
            "hybrid(ttl={},rare<{})",
            self.flood_ttl, self.rare_threshold
        )
    }

    fn search(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        _rng: &mut Pcg64,
    ) -> SearchOutcome {
        self.queries += 1;
        let draw = self.faults.as_mut().map(FaultContext::next_query);
        if let (Some(ctx), Some((time, _))) = (&self.faults, draw) {
            // The repair daemon runs on the query clock, independent of
            // the issuer.
            self.repair_messages += maintain(
                self.maintenance.as_mut(),
                &mut self.index,
                &self.net,
                &ctx.plan,
                time,
                &mut self.recorder,
            );
        }
        match (self.deadline, draw) {
            (Some(deadline), Some(draw)) => self.search_deadline(world, query, deadline, draw),
            _ => self.search_sync(world, query, draw),
        }
    }

    fn maintenance_messages(&self) -> u64 {
        self.index.publish_hops() + self.repair_messages
    }
}

/// Pure structured search: every query goes straight to the DHT index.
///
/// Generic over an instrumentation [`Recorder`] (default
/// [`NoopRecorder`]); lookups record after the fact under
/// [`Kernel::ChordLookup`], repair passes under [`Kernel::Repair`].
#[derive(Debug)]
pub struct DhtOnlySearch<R: Recorder = NoopRecorder> {
    net: ChordNetwork,
    index: DhtIndex,
    faults: Option<FaultContext>,
    maintenance: Option<MaintenanceSchedule>,
    deadline: Option<Deadline>,
    capacity: Option<CapacityPlan>,
    repair_messages: u64,
    recorder: R,
}

impl<R: Recorder> DhtOnlySearch<R> {
    /// Builder-internal constructor (see [`SearchSpec::dht_only`]).
    pub(crate) fn assemble(
        world: &SearchWorld,
        seed: u64,
        faults: Option<FaultContext>,
        deadline: Option<Deadline>,
        capacity: Option<CapacityPlan>,
        recorder: R,
    ) -> Self {
        let net = ChordNetwork::new(world.num_peers(), seed ^ 0xcd);
        let index = build_index(world, &net);
        Self {
            net,
            index,
            faults,
            maintenance: None,
            deadline,
            capacity,
            repair_messages: 0,
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

    /// Attaches a maintenance schedule (see
    /// [`HybridSearch::with_maintenance`]): the index heals mid-workload
    /// by re-replicating orphaned posting lists every `schedule`-th query.
    pub fn with_maintenance(mut self, schedule: MaintenanceSchedule) -> Self {
        self.maintenance = Some(schedule);
        self
    }

    /// Maintenance passes fired so far (0 without a schedule).
    pub fn maintenance_passes(&self) -> u64 {
        self.maintenance.as_ref().map_or(0, |m| m.passes)
    }
}

impl<R: Recorder> SearchSystem for DhtOnlySearch<R> {
    fn name(&self) -> String {
        "dht-only".to_string()
    }

    fn search(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        _rng: &mut Pcg64,
    ) -> SearchOutcome {
        let _ = world;
        let keys = query_keys(query);
        // (messages, hops, found, faults, deadline exceeded); a query's
        // virtual time is its fault tally's `ticks` on every path.
        let (messages, hops, success, faults, deadline_exceeded) = match &mut self.faults {
            None => {
                let out = self.index.query_keys(&self.net, query.source, &keys);
                let found = !out.results.is_empty();
                (out.messages, out.hops, found, FaultStats::default(), false)
            }
            Some(ctx) => {
                let (time, nonce) = ctx.next_query();
                self.repair_messages += maintain(
                    self.maintenance.as_mut(),
                    &mut self.index,
                    &self.net,
                    &ctx.plan,
                    time,
                    &mut self.recorder,
                );
                if let Some(deadline) = self.deadline {
                    // The DHT is provisioned infrastructure: no queueing
                    // model, but the ingress admission gate still applies.
                    if let Some(cap) = &self.capacity {
                        if !cap.admit(query.source, nonce) {
                            return reject_admission(Kernel::ChordLookup, &mut self.recorder);
                        }
                    }
                    // Deadline path: per-hop timeouts race replies on the
                    // virtual clock, degrading to a partial (per-term
                    // best-so-far) intersection when the budget runs out.
                    let (out, stats) = self.index.query_keys_timed(
                        &self.net,
                        query.source,
                        &keys,
                        &ctx.plan,
                        &ctx.policy,
                        time,
                        nonce,
                        Some(deadline.ticks),
                    );
                    let found = !out.results.is_empty();
                    (out.messages, out.hops, found, stats, out.deadline_exceeded)
                } else {
                    let (out, stats) = self.index.query_keys_faulty(
                        &self.net,
                        query.source,
                        &keys,
                        &ctx.plan,
                        &ctx.policy,
                        time,
                        nonce,
                    );
                    let found = !out.results.is_empty();
                    (out.messages, out.hops, found, stats, false)
                }
            }
        };
        record_lookup(
            &mut self.recorder,
            if success { Event::Hit } else { Event::Miss },
            (messages, hops),
            &faults,
            // A deadline implies a fault plan (the builder rejects one
            // without it), so this is the timed path's answer time.
            (success && self.deadline.is_some()).then_some(faults.ticks),
            deadline_exceeded,
        );
        SearchOutcome {
            success,
            messages,
            hops: Some(hops),
            faults,
            elapsed: faults.ticks,
            deadline_exceeded,
            ..SearchOutcome::default()
        }
    }

    fn maintenance_messages(&self) -> u64 {
        self.index.publish_hops() + self.repair_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 500,
            num_objects: 4_000,
            num_terms: 5_000,
            head_size: 100,
            seed: 55,
            ..Default::default()
        })
    }

    #[test]
    fn dht_only_always_finds_published_content() {
        let w = world();
        let mut dht = SearchSpec::dht_only(1).build(&w).into_dht_only();
        let mut rng = Pcg64::new(2);
        for obj in [3u32, 77, 512] {
            let q = QuerySpec {
                terms: w.object_terms[obj as usize].clone(),
                source: 9,
            };
            let out = dht.search(&w, &q, &mut rng);
            assert!(out.success, "object {obj} must be findable via DHT");
        }
    }

    #[test]
    fn dht_only_fails_cleanly_for_absent_terms() {
        let w = world();
        let mut dht = SearchSpec::dht_only(1).build(&w).into_dht_only();
        let mut rng = Pcg64::new(3);
        let out = dht.search(
            &w,
            &QuerySpec {
                terms: vec![4_999_999],
                source: 0,
            },
            &mut rng,
        );
        assert!(!out.success);
    }

    #[test]
    fn hybrid_succeeds_via_fallback_for_rare_objects() {
        let w = world();
        // Find a singleton object (rare by construction under Zipf).
        let rare_obj = (0..w.num_objects() as u32)
            .find(|&o| w.placement.replicas(o) == 1)
            .expect("zipf placement has singletons");
        let mut hybrid = SearchSpec::hybrid(2, 5, 4).build(&w).into_hybrid();
        let mut rng = Pcg64::new(5);
        let q = QuerySpec {
            terms: w.object_terms[rare_obj as usize].clone(),
            source: 0,
        };
        let out = hybrid.search(&w, &q, &mut rng);
        assert!(out.success, "hybrid must find rare content via the DHT");
        assert_eq!(hybrid.fallbacks, 1);
    }

    #[test]
    fn hybrid_pays_more_than_dht_when_floods_fail() {
        let w = world();
        let mut hybrid = SearchSpec::hybrid(3, 20, 6).build(&w).into_hybrid();
        let mut dht = SearchSpec::dht_only(6).build(&w).into_dht_only();
        let mut rng = Pcg64::new(7);
        let queries: Vec<QuerySpec> = (0..150).map(|_| w.sample_query(&mut rng)).collect();
        let mut hybrid_msgs = 0u64;
        let mut dht_msgs = 0u64;
        for q in &queries {
            hybrid_msgs += hybrid.search(&w, q, &mut rng).messages;
            dht_msgs += dht.search(&w, q, &mut rng).messages;
        }
        // Under Zipf replicas + Loo's threshold, nearly every query falls
        // back: hybrid cost strictly dominates pure DHT (the paper's §V).
        assert!(
            hybrid.fallback_rate() > 0.8,
            "fallback {}",
            hybrid.fallback_rate()
        );
        assert!(
            hybrid_msgs > dht_msgs,
            "hybrid {hybrid_msgs} must exceed dht {dht_msgs}"
        );
    }

    #[test]
    fn well_replicated_query_avoids_fallback() {
        let w = world();
        // Most-replicated object.
        let popular = (0..w.num_objects() as u32)
            .max_by_key(|&o| w.placement.replicas(o))
            .unwrap();
        assert!(w.placement.replicas(popular) >= 10, "need a popular object");
        let mut hybrid = SearchSpec::hybrid(4, 3, 8).build(&w).into_hybrid();
        let mut rng = Pcg64::new(9);
        let q = QuerySpec {
            terms: w.object_terms[popular as usize].clone(),
            source: 1,
        };
        let out = hybrid.search(&w, &q, &mut rng);
        assert!(out.success);
        assert_eq!(
            hybrid.fallbacks, 0,
            "popular content should resolve in the flood phase"
        );
    }

    #[test]
    fn zero_threshold_hybrid_reports_no_success_without_a_hit() {
        // With `rare_threshold == 0` no query is rare, so the flood phase
        // alone answers; a query matching nothing must still fail, on
        // the fault-free, the faulty and the deadline path alike.
        let w = world();
        let q = QuerySpec {
            terms: vec![4_999_999],
            source: 0,
        };
        let none = || {
            FaultContext::new(
                qcp_faults::FaultPlan::none(500),
                qcp_faults::RetryPolicy::default(),
                1,
            )
        };
        let systems = [
            SearchSpec::hybrid(2, 0, 4).build(&w),
            SearchSpec::hybrid(2, 0, 4).faults(none()).build(&w),
            SearchSpec::hybrid(2, 0, 4)
                .faults(none())
                .deadline(Deadline::after(50))
                .build(&w),
        ];
        let mut rng = Pcg64::new(4);
        for mut sys in systems {
            let out = sys.search(&w, &q, &mut rng);
            assert!(!out.success, "{}: nothing matched", sys.name());
            assert_eq!(out.hops, None);
            assert_eq!(sys.into_hybrid().fallbacks, 0, "threshold 0: never rare");
        }
    }

    #[test]
    fn maintenance_cost_reported() {
        let w = world();
        let hybrid = SearchSpec::hybrid(2, 10, 10).build(&w).into_hybrid();
        assert!(hybrid.maintenance_messages() > 0);
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use crate::world::WorldConfig;
    use qcp_faults::{FaultConfig, FaultPlan, FaultStats, RetryPolicy};

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 500,
            num_objects: 4_000,
            num_terms: 5_000,
            head_size: 100,
            seed: 55,
            ..Default::default()
        })
    }

    fn ctx(n: usize, loss: f64, churn: f64, seed: u64) -> FaultContext {
        FaultContext::new(
            FaultPlan::build(
                n,
                &FaultConfig {
                    loss,
                    churn,
                    seed,
                    ..Default::default()
                },
            ),
            RetryPolicy::default(),
            seed ^ 0x0c7e,
        )
    }

    /// Runs `queries` through a system, returning (success rate, stats).
    fn run(
        sys: &mut dyn SearchSystem,
        w: &SearchWorld,
        queries: &[QuerySpec],
    ) -> (f64, FaultStats) {
        let mut rng = Pcg64::new(77);
        let mut hits = 0usize;
        let mut stats = FaultStats::default();
        for q in queries {
            let out = sys.search(w, q, &mut rng);
            hits += out.success as usize;
            stats.absorb(&out.faults);
        }
        (hits as f64 / queries.len() as f64, stats)
    }

    fn queries(w: &SearchWorld, n: usize) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(13);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    #[test]
    fn none_plan_hybrid_matches_fault_free_success() {
        let w = world();
        let qs = queries(&w, 120);
        let mut plain = SearchSpec::hybrid(2, 5, 4).build(&w).into_hybrid();
        let mut faulty = SearchSpec::hybrid(2, 5, 4)
            .faults(FaultContext::new(
                FaultPlan::none(500),
                RetryPolicy::default(),
                1,
            ))
            .build(&w)
            .into_hybrid();
        let mut rng = Pcg64::new(9);
        for q in &qs {
            let a = plain.search(&w, q, &mut rng);
            let b = faulty.search(&w, q, &mut rng);
            assert_eq!(a.success, b.success, "none plan must not change outcomes");
            // Latency ticks are charged even without faults; everything
            // else must be zero.
            assert_eq!(b.faults.wasted(), 0);
            assert_eq!(b.faults.retries, 0);
            assert_eq!(b.faults.timeouts, 0);
            assert_eq!(b.faults.stale_misses, 0);
        }
        assert_eq!(plain.fallbacks, faulty.fallbacks);
    }

    #[test]
    fn hybrid_success_falls_monotonically_with_loss() {
        let w = world();
        let qs = queries(&w, 200);
        let mut rates = Vec::new();
        for loss in [0.0f64, 0.25, 0.6] {
            let mut sys = SearchSpec::hybrid(2, 5, 4)
                .faults(ctx(500, loss, 0.0, 21))
                .build(&w)
                .into_hybrid();
            rates.push(run(&mut sys, &w, &qs).0);
        }
        for wnd in rates.windows(2) {
            assert!(
                wnd[1] <= wnd[0] + 0.03,
                "success must fall (within noise) as loss rises: {rates:?}"
            );
        }
        assert!(
            rates[2] < rates[0] - 0.05,
            "60% loss must visibly hurt: {rates:?}"
        );
    }

    #[test]
    fn hybrid_success_falls_monotonically_with_churn() {
        let w = world();
        let qs = queries(&w, 200);
        let mut rates = Vec::new();
        for churn in [0.0f64, 0.25, 0.6] {
            let mut sys = SearchSpec::hybrid(2, 5, 4)
                .faults(ctx(500, 0.0, churn, 22))
                .build(&w)
                .into_hybrid();
            rates.push(run(&mut sys, &w, &qs).0);
        }
        for wnd in rates.windows(2) {
            assert!(
                wnd[1] <= wnd[0] + 0.03,
                "success must fall (within noise) as churn rises: {rates:?}"
            );
        }
        assert!(
            rates[2] < rates[0] - 0.05,
            "60% churn must visibly hurt: {rates:?}"
        );
    }

    #[test]
    fn hybrid_counters_respect_the_accounting_identities() {
        let w = world();
        let qs = queries(&w, 150);
        let mut sys = SearchSpec::hybrid(2, 5, 4)
            .faults(ctx(500, 0.3, 0.2, 23))
            .build(&w)
            .into_hybrid();
        let (_, stats) = run(&mut sys, &w, &qs);
        assert!(stats.dropped > 0, "30% loss must drop");
        assert!(stats.retries > 0, "DHT fallback must retry");
        assert!(stats.timeouts > 0, "some retry budgets must exhaust");
        assert_eq!(stats.wasted(), stats.dropped + stats.dead_targets);
        // The flood phase is fire-and-forget (drops never retried); the
        // DHT phase retries every drop. So across the hybrid:
        assert!(
            stats.retries + stats.timeouts <= stats.dropped,
            "only the DHT share of drops is retried: {stats:?}"
        );
        assert!(stats.ticks > 0, "timeouts and latency must consume time");
    }

    #[test]
    fn dht_only_drops_are_all_retried_or_timed_out() {
        let w = world();
        let qs = queries(&w, 120);
        let mut sys = SearchSpec::dht_only(6)
            .faults(ctx(500, 0.3, 0.0, 24))
            .build(&w)
            .into_dht_only();
        let (rate, stats) = run(&mut sys, &w, &qs);
        assert!(stats.dropped > 0);
        assert_eq!(
            stats.dropped,
            stats.retries + stats.timeouts,
            "request/response engine: every drop is retried or times out"
        );
        // Retries keep the DHT useful under 30% loss.
        let mut clean = SearchSpec::dht_only(6).build(&w).into_dht_only();
        let (clean_rate, _) = run(&mut clean, &w, &qs);
        assert!(rate > clean_rate * 0.5, "{rate} vs clean {clean_rate}");
    }

    #[test]
    fn stale_misses_surface_under_churn() {
        let w = world();
        let qs = queries(&w, 250);
        let mut sys = SearchSpec::dht_only(6)
            .faults(ctx(500, 0.0, 0.5, 25))
            .build(&w)
            .into_dht_only();
        let (_, stats) = run(&mut sys, &w, &qs);
        assert!(
            stats.stale_misses > 0,
            "50% churn strands postings on departed owners: {stats:?}"
        );
    }

    #[test]
    fn maintenance_heals_the_index_mid_workload() {
        let w = world();
        let qs = queries(&w, 300);
        // Same plan both times: churn strands postings; only one system
        // runs the repair daemon.
        let mut plain = SearchSpec::dht_only(6)
            .faults(ctx(500, 0.0, 0.5, 25))
            .build(&w)
            .into_dht_only();
        let mut healed = SearchSpec::dht_only(6)
            .faults(ctx(500, 0.0, 0.5, 25))
            .maintenance(crate::systems::MaintenanceSchedule::every(20))
            .build(&w)
            .into_dht_only();
        let (rate_plain, stats_plain) = run(&mut plain, &w, &qs);
        let (rate_healed, stats_healed) = run(&mut healed, &w, &qs);
        assert!(stats_plain.stale_misses > 0, "churn must strand postings");
        assert!(
            stats_healed.stale_misses < stats_plain.stale_misses,
            "re-replication must decay stale misses: {} vs {}",
            stats_healed.stale_misses,
            stats_plain.stale_misses
        );
        assert!(
            rate_healed >= rate_plain,
            "healing cannot hurt success: {rate_healed} vs {rate_plain}"
        );
        assert_eq!(healed.maintenance_passes(), (qs.len() as u64 - 1) / 20);
        assert!(
            healed.maintenance_messages() > plain.maintenance_messages(),
            "repair transfers are accounted as maintenance cost"
        );
    }

    #[test]
    fn hybrid_accepts_a_maintenance_schedule() {
        let w = world();
        let qs = queries(&w, 200);
        let mut sys = SearchSpec::hybrid(2, 5, 4)
            .faults(ctx(500, 0.0, 0.5, 27))
            .maintenance(crate::systems::MaintenanceSchedule::every(25))
            .build(&w)
            .into_hybrid();
        let publish_cost = sys.maintenance_messages();
        let (_, stats) = run(&mut sys, &w, &qs);
        assert!(sys.maintenance_passes() > 0);
        assert!(
            sys.maintenance_messages() > publish_cost,
            "passes under churn must move at least one list"
        );
        // Zero loss: nothing is dropped, so nothing retries or times out —
        // the daemon adds no fault noise of its own.
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.retries + stats.timeouts, 0);
    }

    #[test]
    fn maintenance_under_none_plan_is_inert() {
        let w = world();
        let qs = queries(&w, 80);
        let none = || FaultContext::new(FaultPlan::none(500), RetryPolicy::default(), 1);
        let mut bare = SearchSpec::dht_only(9)
            .faults(none())
            .build(&w)
            .into_dht_only();
        let mut scheduled = SearchSpec::dht_only(9)
            .faults(none())
            .maintenance(crate::systems::MaintenanceSchedule::every(10))
            .build(&w)
            .into_dht_only();
        let mut rng = Pcg64::new(31);
        for q in &qs {
            let a = bare.search(&w, q, &mut rng);
            let b = scheduled.search(&w, q, &mut rng);
            assert_eq!(a, b, "all-alive maintenance must be a perfect no-op");
        }
        assert_eq!(
            bare.maintenance_messages(),
            scheduled.maintenance_messages()
        );
        assert!(scheduled.maintenance_passes() > 0, "schedule still fires");
    }

    #[test]
    #[should_panic(expected = "maintenance period must be positive")]
    fn zero_period_schedule_rejected() {
        let _ = crate::systems::MaintenanceSchedule::every(0);
    }

    #[test]
    fn eval_rows_carry_fault_counters() {
        let w = world();
        let qs = queries(&w, 60);
        let mut faulty = SearchSpec::hybrid(2, 5, 4)
            .faults(ctx(500, 0.3, 0.2, 26))
            .build(&w)
            .into_hybrid();
        let mut plain = SearchSpec::hybrid(2, 5, 4).build(&w).into_hybrid();
        let rows = crate::eval::evaluate(
            &w,
            &mut [&mut faulty as &mut dyn SearchSystem, &mut plain],
            &qs,
            3,
        );
        assert!(rows[0].faults.wasted() > 0, "faulty row must degrade");
        assert_eq!(rows[1].faults, FaultStats::default());
    }
}
