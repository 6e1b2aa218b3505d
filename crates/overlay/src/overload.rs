//! The queued delivery model: bounded per-node queues, service rates,
//! and load shedding under a [`CapacityPlan`].
//!
//! Direct delivery (the [`EventEngine`] without a plan, or with
//! [`CapacityPlan::unlimited`]) processes every arriving message
//! instantly — nodes have infinite capacity, so offered load is
//! invisible. Given a limited plan, the engine runs the same flood and
//! walk loops with this model in its place:
//!
//! * an **arriving** message (having already survived the fault plan's
//!   liveness and drop checks, exactly as under direct delivery) joins
//!   its target node's bounded FIFO queue;
//! * each node **serves** one queued message every
//!   [`CapacityPlan::service_interval`] ticks — marking, holder checks,
//!   walker moves, and forwarding all happen at *service* time, so a
//!   congested node stretches the query's timeline;
//! * a **full queue** invokes the plan's [`ShedPolicy`]; shed messages
//!   are gone (walks treat a shed step like a drop: the walker strands
//!   for that step and re-picks from where it stands, and a walker whose
//!   queued step is evicted resumes the same way);
//! * the plan's **offered background load** materializes as a synthetic
//!   standing backlog seeded into each node's queue on first touch
//!   (drawn statelessly per `(node, query nonce)`), so real messages
//!   queue behind the traffic the offered load implies. Synthetic
//!   entries consume service slots but are invisible to the accounting
//!   identity below — they model *other* queries' load, not this one's.
//!
//! # Accounting identity
//!
//! Counting only this query's (real) messages:
//!
//! ```text
//! messages == served + dead_targets + dropped + shed + in_flight
//! ```
//!
//! where `in_flight` is the number of real messages still in the
//! calendar or queued when a cutoff truncates the run (0 when the run
//! drains). Pinned by proptests in `tests/overload.rs`.
//!
//! # Unlimited capacity
//!
//! An unlimited plan selects direct delivery, so it is bitwise a run
//! with no plan at all *by construction*, and its overload accounting is
//! all zeros.
//!
//! # Determinism
//!
//! The queueing layer adds no randomness of its own: service tiers and
//! backlogs come from the plan's stateless hashes, service events are
//! keyed by the node id on their own tie stream ([`SERVE_TAG`]), and
//! every walker RNG draw still happens in that walker's own totally
//! ordered chain (a walker has at most one step outstanding — in the
//! calendar *or* in a queue).
//!
//! [`EventEngine`]: crate::EventEngine

use crate::event::{Admit, Delivery, Ev, Msg};
use qcp_faults::capacity::ShedPolicy;
use qcp_faults::CapacityPlan;
use qcp_obs::{Counter, Kernel, Recorder};
use qcp_vtime::{tie_break, Calendar};
use std::collections::VecDeque;

/// Tie stream tag for per-node service events (distinct from message
/// ties, which hash the message index).
pub const SERVE_TAG: u64 = 0x5e1f_5e2e_7a61_ca90;

/// Overload accounting for one kernel run. All zeros under direct
/// delivery (no plan, or an unlimited one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadOutcome {
    /// Real messages admitted into a queue.
    pub enqueued: u64,
    /// Real messages dequeued and processed at their node's rate.
    pub served: u64,
    /// Real messages evicted by the shedding policy (full queue).
    pub shed: u64,
    /// Synthetic background entries evicted by the shedding policy to
    /// make room — refused background work. Kept out of [`shed`]
    /// (which the accounting identity ties to real messages) so the
    /// identity stays exact.
    ///
    /// [`shed`]: OverloadOutcome::shed
    pub displaced: u64,
    /// Total ticks real messages waited in queues before service.
    pub queue_delay: u64,
    /// Real messages still in the calendar or queued at truncation.
    pub in_flight: u64,
    /// Synthetic background-load entries seeded across touched queues.
    pub backlog_seeded: u64,
}

/// Queued work at a node: a real message awaiting service, or (`None`)
/// a synthetic background entry.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    arrived: u64,
    msg: Option<Msg>,
}

impl QEntry {
    /// Remaining forwarding budget, the [`ShedPolicy::TtlPriority`]
    /// key. Synthetic backlog models other queries' traffic with no
    /// TTL claim of its own, so it is always the first evicted.
    fn remaining_ttl(&self, max_ttl: u32) -> u32 {
        self.msg.map_or(0, |m| max_ttl.saturating_sub(m.hop))
    }
}

/// The per-node queue state the engine keeps across runs.
#[derive(Debug, Default)]
pub(crate) struct QueueArena {
    queues: Vec<VecDeque<QEntry>>,
    busy: Vec<bool>,
    seeded: Vec<bool>,
    touched: Vec<u32>,
}

impl QueueArena {
    /// Drains the queues the last run touched and sizes the arena for an
    /// `n`-node run, retaining every allocation.
    fn reset(&mut self, n: usize) {
        if self.queues.len() < n {
            self.queues.resize_with(n, VecDeque::new);
            self.busy.resize(n, false);
            self.seeded.resize(n, false);
        }
        for &node in &self.touched {
            self.queues[node as usize].clear();
            self.busy[node as usize] = false;
            self.seeded[node as usize] = false;
        }
        self.touched.clear();
    }
}

/// The queued delivery model for one run under a limited plan.
pub(crate) struct Queued<'a> {
    arena: &'a mut QueueArena,
    cap: &'a CapacityPlan,
    nonce: u64,
    /// Real messages currently in the calendar.
    in_cal: u64,
    over: OverloadOutcome,
}

impl<'a> Queued<'a> {
    /// Rewinds `arena` for an `n`-node run of the query named by `nonce`.
    pub(crate) fn new(
        arena: &'a mut QueueArena,
        cap: &'a CapacityPlan,
        nonce: u64,
        n: usize,
    ) -> Self {
        arena.reset(n);
        Self {
            arena,
            cap,
            nonce,
            in_cal: 0,
            over: OverloadOutcome::default(),
        }
    }

    /// Starts `node`'s service clock if it is idle.
    fn wake(&mut self, cal: &mut Calendar<Ev>, node: u32) {
        if !self.arena.busy[node as usize] {
            self.arena.busy[node as usize] = true;
            self.schedule_serve(cal, node);
        }
    }

    fn schedule_serve(&self, cal: &mut Calendar<Ev>, node: u32) {
        cal.schedule_after(
            self.cap.service_interval(node),
            tie_break(SERVE_TAG ^ u64::from(node)),
            Ev::Serve(node),
        );
    }

    /// First touch of a node's queue this run: seed the synthetic
    /// standing backlog the offered load implies and start its service
    /// clock.
    fn touch(&mut self, cal: &mut Calendar<Ev>, node: u32, now: u64) {
        if self.arena.seeded[node as usize] {
            return;
        }
        self.arena.seeded[node as usize] = true;
        self.arena.touched.push(node);
        let backlog = self.cap.backlog(node, self.nonce);
        let background = QEntry {
            arrived: now,
            msg: None,
        };
        self.arena.queues[node as usize].extend((0..backlog).map(|_| background));
        if backlog > 0 {
            self.wake(cal, node);
        }
        self.over.backlog_seeded += u64::from(backlog);
    }

    /// Evicts an entry from `node`'s full queue to make room for
    /// `entry`, per the plan's policy. Returns the victim, or `None` when
    /// the policy sheds the arrival itself.
    fn evict(&mut self, node: u32, entry: &QEntry, max_ttl: u32) -> Option<QEntry> {
        let q = &mut self.arena.queues[node as usize];
        match self.cap.policy() {
            ShedPolicy::DropNewest => None,
            // qcplint: allow(panic) — queue_bound >= 1, so a full queue
            // is non-empty.
            ShedPolicy::DropOldest => Some(q.pop_front().expect("full queue has a head")),
            ShedPolicy::TtlPriority => {
                let (idx, weakest) = q
                    .iter()
                    .map(|e| e.remaining_ttl(max_ttl))
                    .enumerate()
                    .min_by_key(|&(i, ttl)| (ttl, i))
                    // qcplint: allow(panic) — queue_bound >= 1, so a
                    // full queue has a minimum.
                    .expect("full queue has a minimum");
                // The arriving message competes on the same key: if it
                // has no more budget than the weakest queued entry, it
                // is the one shed.
                if entry.remaining_ttl(max_ttl) <= weakest {
                    return None;
                }
                q.remove(idx)
            }
        }
    }
}

impl Delivery for Queued<'_> {
    fn sent(&mut self) {
        self.in_cal += 1;
    }

    fn landed(&mut self) {
        self.in_cal -= 1;
    }

    fn arrive<R: Recorder>(
        &mut self,
        cal: &mut Calendar<Ev>,
        now: u64,
        m: Msg,
        max_ttl: u32,
        kernel: Kernel,
        rec: &mut R,
    ) -> Admit {
        self.touch(cal, m.to, now);
        let entry = QEntry {
            arrived: now,
            msg: Some(m),
        };
        let len = self.arena.queues[m.to as usize].len();
        rec.rec_queue(kernel, len as u32, 1);
        let mut evicted = None;
        if len >= self.cap.queue_bound() as usize {
            let Some(victim) = self.evict(m.to, &entry, max_ttl) else {
                self.over.shed += 1;
                return Admit::Shed;
            };
            match victim.msg {
                Some(real) => {
                    self.over.shed += 1;
                    evicted = Some(real);
                }
                None => self.over.displaced += 1,
            }
        }
        self.over.enqueued += 1;
        self.arena.queues[m.to as usize].push_back(entry);
        self.wake(cal, m.to);
        evicted.map_or(Admit::Queued, Admit::Evicted)
    }

    fn serve(&mut self, cal: &mut Calendar<Ev>, now: u64, node: u32) -> Option<Msg> {
        let entry = self.arena.queues[node as usize]
            .pop_front()
            // qcplint: allow(panic) — a Serve is only scheduled while
            // its queue is non-empty.
            .expect("serve on empty queue");
        // Keep the service clock running while work remains.
        if self.arena.queues[node as usize].is_empty() {
            self.arena.busy[node as usize] = false;
        } else {
            self.schedule_serve(cal, node);
        }
        // A synthetic entry consumes the slot and nothing else.
        let m = entry.msg?;
        self.over.served += 1;
        self.over.queue_delay += now - entry.arrived;
        Some(m)
    }

    fn finish<R: Recorder>(&mut self, kernel: Kernel, rec: &mut R) -> OverloadOutcome {
        let arena = &*self.arena;
        let queued: u64 = arena
            .touched
            .iter()
            .map(|&n| {
                arena.queues[n as usize]
                    .iter()
                    .filter(|e| e.msg.is_some())
                    .count() as u64
            })
            .sum();
        self.over.in_flight = self.in_cal + queued;
        rec.rec_count(kernel, Counter::Enqueued, self.over.enqueued);
        rec.rec_count(kernel, Counter::Served, self.over.served);
        rec.rec_count(kernel, Counter::Shed, self.over.shed);
        rec.rec_count(kernel, Counter::QueueDelay, self.over.queue_delay);
        self.over
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventEngine, EventFloodOutcome, EventWalkOutcome};
    use crate::flood::FloodFaults;
    use crate::graph::Graph;
    use qcp_faults::capacity::{CapacityConfig, CapacityModel};
    use qcp_faults::{FaultPlan, FaultStats};
    use qcp_obs::NoopRecorder;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    fn limited(load: f64, policy: ShedPolicy) -> CapacityPlan {
        CapacityPlan::build(&CapacityConfig {
            offered_load: load,
            queue_bound: 4,
            policy,
            model: CapacityModel::Uniform,
            seed: 0xbeef,
        })
    }

    /// A flood from `source` with no forwarder mask, at tick 0.
    #[allow(clippy::too_many_arguments)]
    fn flood(
        eng: &mut EventEngine,
        g: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        plan: &FaultPlan,
        cap: Option<&CapacityPlan>,
        nonce: u64,
        cutoff: Option<u64>,
    ) -> (EventFloodOutcome, FaultStats, OverloadOutcome) {
        let faults = FloodFaults {
            plan,
            time: 0,
            nonce,
        };
        eng.flood(
            g,
            source,
            ttl,
            holders,
            None,
            faults,
            cap,
            cutoff,
            &mut NoopRecorder,
        )
    }

    /// A 20-or-30-step walk from node 5 at tick 0, nonce 9.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        eng: &mut EventEngine,
        g: &Graph,
        k: usize,
        ttl: u32,
        seed: u64,
        plan: &FaultPlan,
        cap: Option<&CapacityPlan>,
        cutoff: Option<u64>,
    ) -> (EventWalkOutcome, FaultStats, OverloadOutcome) {
        let faults = FloodFaults {
            plan,
            time: 0,
            nonce: 9,
        };
        eng.walk(
            g,
            5,
            k,
            ttl,
            &[160],
            seed,
            faults,
            cap,
            cutoff,
            &mut NoopRecorder,
        )
    }

    #[test]
    fn unlimited_flood_delegates_bitwise() {
        let g = crate::topology::erdos_renyi(300, 5.0, 3).graph;
        let plan = FaultPlan::none(300);
        let cap = CapacityPlan::unlimited();
        let mut eng = EventEngine::new();
        for ttl in 0..=5 {
            let a = flood(&mut eng, &g, 7, ttl, &[50, 200], &plan, None, 1, None);
            let b = flood(&mut eng, &g, 7, ttl, &[50, 200], &plan, Some(&cap), 1, None);
            assert_eq!(a, b);
            assert_eq!(b.2, OverloadOutcome::default());
        }
    }

    #[test]
    fn zero_load_uniform_capacity_only_adds_service_time() {
        // With no background load and huge queues nothing sheds; the
        // flood's message/coverage accounting matches direct delivery,
        // only the timeline stretches by the service intervals.
        let g = path(6);
        let plan = FaultPlan::none(6);
        let cap = limited(0.0, ShedPolicy::DropNewest);
        let mut eng = EventEngine::new();
        let (free, _, _) = flood(&mut eng, &g, 0, 5, &[4], &plan, None, 7, None);
        let (out, stats, over) = flood(&mut eng, &g, 0, 5, &[4], &plan, Some(&cap), 7, None);
        assert_eq!(out.flood, free.flood);
        assert_eq!(over.shed, 0);
        assert_eq!(over.backlog_seeded, 0);
        assert_eq!(over.enqueued, over.served + over.in_flight);
        // Uniform tier-2 service: each hop pays latency 1 + service 4.
        assert_eq!(out.first_hit_time, Some(4 * 5));
        assert_eq!(stats.ticks, out.completion_time);
    }

    #[test]
    fn heavy_load_sheds_and_accounting_identity_holds() {
        let g = crate::topology::erdos_renyi(200, 6.0, 11).graph;
        let plan = FaultPlan::none(200);
        let mut eng = EventEngine::new();
        for policy in ShedPolicy::ALL {
            let cap = limited(64.0, policy);
            let (out, stats, over) =
                flood(&mut eng, &g, 3, 4, &[150], &plan, Some(&cap), 42, Some(200));
            assert_eq!(
                out.flood.messages,
                over.served + stats.dead_targets + stats.dropped + over.shed + over.in_flight,
                "identity violated under {policy:?}"
            );
            assert!(over.shed > 0, "load 64 must shed under {policy:?}");
            assert!(over.backlog_seeded > 0);
        }
    }

    #[test]
    fn walk_identity_and_determinism_under_load() {
        let g = crate::topology::erdos_renyi(200, 6.0, 13).graph;
        let plan = FaultPlan::build(
            200,
            &qcp_faults::FaultConfig {
                loss: 0.15,
                mean_latency: 3,
                ..Default::default()
            },
        );
        let cap = limited(16.0, ShedPolicy::TtlPriority);
        let run = || {
            walk(
                &mut EventEngine::new(),
                &g,
                8,
                30,
                0xabc,
                &plan,
                Some(&cap),
                Some(400),
            )
        };
        let (a, sa, oa) = run();
        let (b, sb, ob) = run();
        assert_eq!((a, sa, oa), (b, sb, ob));
        assert_eq!(
            a.walk.messages,
            oa.served + sa.dead_targets + sa.dropped + oa.shed + oa.in_flight,
        );
    }

    #[test]
    fn unlimited_walk_delegates_bitwise() {
        let g = crate::topology::erdos_renyi(200, 6.0, 13).graph;
        let plan = FaultPlan::none(200);
        let cap = CapacityPlan::unlimited();
        let mut eng = EventEngine::new();
        let a = walk(&mut eng, &g, 4, 20, 7, &plan, None, Some(100));
        let b = walk(&mut eng, &g, 4, 20, 7, &plan, Some(&cap), Some(100));
        assert_eq!(a, b);
        assert_eq!(b.2, OverloadOutcome::default());
    }

    #[test]
    fn drop_oldest_keeps_arrivals_and_ttl_priority_prefers_budget() {
        // On a path under heavy synthetic backlog, drop-newest sheds
        // the real arrivals at the door while drop-oldest lets them in
        // (evicting backlog first) — so drop-oldest must serve at least
        // as many real messages.
        let g = path(8);
        let plan = FaultPlan::none(8);
        let mut eng = EventEngine::new();
        let mut run = |policy| {
            let cap = limited(256.0, policy);
            flood(&mut eng, &g, 0, 7, &[7], &plan, Some(&cap), 3, Some(400)).2
        };
        let newest = run(ShedPolicy::DropNewest);
        let oldest = run(ShedPolicy::DropOldest);
        let ttlp = run(ShedPolicy::TtlPriority);
        assert!(oldest.served >= newest.served);
        assert!(ttlp.served >= newest.served);
    }
}
