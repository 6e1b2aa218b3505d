//! Capacity-aware event kernels: bounded per-node queues, service
//! rates, and load shedding over the [`event`](crate::event) machinery.
//!
//! The PR 7 event kernels deliver every arriving message instantly —
//! nodes have infinite capacity, so offered load is invisible. The
//! [`OverloadEngine`] here re-expresses the same flood and walk on a
//! queueing model governed by a [`CapacityPlan`]:
//!
//! * an **arriving** message (having already survived the fault plan's
//!   liveness and drop checks, exactly as in the PR 7 kernels) joins
//!   its target node's bounded FIFO queue;
//! * each node **serves** one queued message every
//!   [`CapacityPlan::service_interval`] ticks — marking, holder checks,
//!   walker moves, and forwarding all happen at *service* time, so a
//!   congested node stretches the query's timeline;
//! * a **full queue** invokes the plan's [`ShedPolicy`]; shed messages
//!   are gone (walks treat a shed step like a drop: the walker strands
//!   for that step and re-picks from where it stands);
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
//! # Bitwise equivalence when unlimited
//!
//! Under [`CapacityPlan::unlimited`] both entry points delegate to the
//! event-driven kernels verbatim — [`event_flood`] / [`event_walk`] —
//! so an unlimited run is bitwise identical to a capacity-free run *by
//! construction*, and the overload accounting is all zeros.
//!
//! # Determinism
//!
//! The queueing layer adds no randomness of its own: service tiers and
//! backlogs come from the plan's stateless hashes, service events are
//! keyed by the node id on their own tie stream ([`SERVE_TAG`]), and
//! every walker RNG draw still happens in that walker's own totally
//! ordered chain (a walker has at most one step outstanding — in the
//! calendar *or* in a queue).

use crate::event::{event_flood, event_walk, step_tie, EventFloodOutcome, EventWalkOutcome};
use crate::flood::FloodOutcome;
use crate::graph::Graph;
use crate::walk::{pick_next, WalkOutcome};
use qcp_faults::capacity::ShedPolicy;
use qcp_faults::{CapacityPlan, FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::rng::Pcg64;
use qcp_vtime::{tie_break, Calendar};
use std::collections::VecDeque;

/// Tie stream tag for per-node service events (distinct from message
/// ties, which hash the message index).
pub const SERVE_TAG: u64 = 0x5e1f_5e2e_7a61_ca90;

/// Overload accounting for one kernel run. All zeros when the plan is
/// unlimited (or nothing queued).
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

/// Queued work at a node: a synthetic background entry, a flood
/// delivery awaiting service, or a walker step awaiting service.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Background,
    Flood { hop: u32 },
    Walk { walker: u32, step: u32, from: u32 },
}

#[derive(Debug, Clone, Copy)]
struct QEntry {
    arrived: u64,
    payload: Payload,
}

impl QEntry {
    /// Remaining forwarding budget, the [`ShedPolicy::TtlPriority`]
    /// key. Synthetic backlog models other queries' traffic with no
    /// TTL claim of its own, so it is always the first evicted.
    fn remaining_ttl(&self, max_ttl: u32) -> u32 {
        match self.payload {
            Payload::Background => 0,
            Payload::Flood { hop, .. } => max_ttl.saturating_sub(hop),
            Payload::Walk { step, .. } => max_ttl.saturating_sub(step),
        }
    }

    fn is_real(&self) -> bool {
        !matches!(self.payload, Payload::Background)
    }
}

/// Calendar events of the capacity-aware kernels. Ordered fields are
/// never consulted by the calendar (the `(time, tie, seq)` key is a
/// strict total order); the derive only satisfies the `E: Ord` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A flood message arriving at `to` (mirrors the PR 7 `Deliver`).
    Flood {
        from: u32,
        to: u32,
        hop: u32,
        msg: u64,
    },
    /// A walker step arriving at `to` (mirrors the PR 7 `Step`).
    Walk {
        walker: u32,
        step: u32,
        from: u32,
        to: u32,
        msg: u64,
    },
    /// Node `0` dequeues its next message.
    Serve(u32),
}

struct WalkerState {
    rng: Pcg64,
    current: u32,
    previous: u32,
}

/// Reusable capacity-aware flood/walk engine. Holds the calendar,
/// per-node queues, and visit marks across runs; [`reset`] rewinds
/// everything while retaining every allocation, so steady-state reuse
/// allocates nothing (the PR 8 arena discipline, backed by
/// [`Calendar::reset`]).
///
/// [`reset`]: OverloadEngine::reset
#[derive(Debug)]
pub struct OverloadEngine {
    cal: Calendar<Ev>,
    queues: Vec<VecDeque<QEntry>>,
    busy: Vec<bool>,
    seeded: Vec<bool>,
    touched: Vec<u32>,
    marked: Vec<bool>,
    marked_list: Vec<u32>,
}

impl Default for OverloadEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OverloadEngine {
    /// An empty engine; per-node state grows on first use.
    pub fn new() -> Self {
        Self {
            cal: Calendar::new(),
            queues: Vec::new(),
            busy: Vec::new(),
            seeded: Vec::new(),
            touched: Vec::new(),
            marked: Vec::new(),
            marked_list: Vec::new(),
        }
    }

    /// Rewinds the engine for the next run: drains touched queues,
    /// clears visit marks, and resets the calendar to virtual time 0.
    /// Every allocation (calendar heap, queue rings, mark bitmaps) is
    /// retained.
    fn reset(&mut self, n: usize) {
        self.cal.reset();
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
        if self.marked.len() < n {
            self.marked.resize(n, false);
        }
        for &node in &self.marked_list {
            self.marked[node as usize] = false;
        }
        self.marked_list.clear();
    }

    fn mark(&mut self, node: u32) {
        self.marked[node as usize] = true;
        self.marked_list.push(node);
    }

    /// First touch of a node's queue this run: seed the synthetic
    /// standing backlog the offered load implies and start its service
    /// clock. Returns the number of synthetic entries seeded.
    fn touch(&mut self, node: u32, now: u64, nonce: u64, cap: &CapacityPlan) -> u64 {
        if self.seeded[node as usize] {
            return 0;
        }
        self.seeded[node as usize] = true;
        self.touched.push(node);
        let backlog = cap.backlog(node, nonce);
        for _ in 0..backlog {
            self.queues[node as usize].push_back(QEntry {
                arrived: now,
                payload: Payload::Background,
            });
        }
        if backlog > 0 && !self.busy[node as usize] {
            self.busy[node as usize] = true;
            self.cal.schedule_after(
                cap.service_interval(node),
                tie_break(SERVE_TAG ^ u64::from(node)),
                Ev::Serve(node),
            );
        }
        u64::from(backlog)
    }

    /// Admits an arriving real message into `node`'s queue, shedding
    /// per policy when full. Returns the evicted real entry, if the
    /// policy displaced one (walk evictions resume their walker), and
    /// whether the *arriving* message itself was shed.
    #[allow(clippy::too_many_arguments)] // queueing site: node + entry + plan + accounting
    fn enqueue<R: Recorder>(
        &mut self,
        kernel: Kernel,
        node: u32,
        entry: QEntry,
        max_ttl: u32,
        cap: &CapacityPlan,
        out: &mut OverloadOutcome,
        rec: &mut R,
    ) -> (Option<QEntry>, bool) {
        let q = &mut self.queues[node as usize];
        rec.rec_queue(kernel, q.len() as u32, 1);
        let mut evicted = None;
        if q.len() >= cap.queue_bound() as usize {
            match cap.policy() {
                ShedPolicy::DropNewest => {
                    out.shed += 1;
                    return (None, true);
                }
                ShedPolicy::DropOldest => {
                    // qcplint: allow(panic) — queue_bound >= 1, so a
                    // full queue is non-empty.
                    let victim = q.pop_front().expect("full queue has a head");
                    if victim.is_real() {
                        out.shed += 1;
                        evicted = Some(victim);
                    } else {
                        out.displaced += 1;
                    }
                }
                ShedPolicy::TtlPriority => {
                    let (idx, _) = q
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, e)| (e.remaining_ttl(max_ttl), *i))
                        .expect("full queue has a minimum"); // qcplint: allow(panic) — queue_bound >= 1
                                                             // The arriving message competes on the same key: if
                                                             // it has no more budget than the weakest queued
                                                             // entry, it is the one shed.
                    if entry.remaining_ttl(max_ttl) <= q[idx].remaining_ttl(max_ttl) {
                        out.shed += 1;
                        return (None, true);
                    }
                    let victim = q.remove(idx).expect("indexed entry exists"); // qcplint: allow(panic) — idx < len
                    if victim.is_real() {
                        out.shed += 1;
                        evicted = Some(victim);
                    } else {
                        out.displaced += 1;
                    }
                }
            }
        }
        out.enqueued += 1;
        self.queues[node as usize].push_back(entry);
        if !self.busy[node as usize] {
            self.busy[node as usize] = true;
            self.cal.schedule_after(
                cap.service_interval(node),
                tie_break(SERVE_TAG ^ u64::from(node)),
                Ev::Serve(node),
            );
        }
        (evicted, false)
    }

    /// After a serve event at `node`, keep its service clock running if
    /// work remains.
    fn reschedule_service(&mut self, node: u32, cap: &CapacityPlan) {
        if self.queues[node as usize].is_empty() {
            self.busy[node as usize] = false;
        } else {
            self.cal.schedule_after(
                cap.service_interval(node),
                tie_break(SERVE_TAG ^ u64::from(node)),
                Ev::Serve(node),
            );
        }
    }

    /// Capacity-aware event flood. With an unlimited `cap` this is
    /// [`event_flood`] verbatim (bitwise, by delegation); otherwise
    /// arrivals queue at their target and are marked/forwarded at
    /// service time. Parameters mirror [`event_flood`].
    #[allow(clippy::too_many_arguments)] // mirrors event_flood + the capacity plan
    pub fn flood_rec<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        plan: &FaultPlan,
        cap: &CapacityPlan,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventFloodOutcome, FaultStats, OverloadOutcome) {
        if cap.is_unlimited() {
            let (out, stats) = event_flood(
                graph, source, max_ttl, holders, forwarders, plan, time, nonce, cutoff, rec,
            );
            return (out, stats, OverloadOutcome::default());
        }
        debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Flood);
        let mut stats = FaultStats::default();
        let mut over = OverloadOutcome::default();
        if !plan.alive_at(source, time) {
            rec.rec_event(Kernel::Flood, Event::DeadSource);
            return (
                EventFloodOutcome {
                    flood: FloodOutcome {
                        found: false,
                        found_at_hop: None,
                        reached: 0,
                        messages: 0,
                    },
                    first_hit_time: None,
                    completion_time: 0,
                    truncated: false,
                    holders_reached: 0,
                },
                stats,
                over,
            );
        }
        self.reset(graph.num_nodes());
        let mut reached = 1u32;
        let mut messages = 0u64;
        let mut in_cal = 0u64; // real messages currently in the calendar
        let mut found_at_hop = None;
        let mut first_hit_time = None;
        let mut holders_reached = 0u32;
        self.mark(source);
        if holders.binary_search(&source).is_ok() {
            found_at_hop = Some(0);
            first_hit_time = Some(0);
            holders_reached = 1;
        }
        // The querying node pays its own backlog too: its send round is
        // instant (as in PR 7 — sends are counted, not queued at the
        // sender), but replies arriving back at it will queue.
        if max_ttl > 0 {
            for &v in graph.neighbors(source) {
                messages += 1;
                in_cal += 1;
                let msg = messages;
                self.cal.schedule_after(
                    plan.latency(source, v),
                    tie_break(msg),
                    Ev::Flood {
                        from: source,
                        to: v,
                        hop: 1,
                        msg,
                    },
                );
            }
        }
        let mut truncated = false;
        while let Some(t) = self.cal.peek_time() {
            if cutoff.is_some_and(|c| t > c) {
                truncated = true;
                break;
            }
            // qcplint: allow(panic) — peek_time returned Some on this
            // single-threaded calendar, so an event is pending.
            let (t, ev) = self.cal.pop().expect("peeked event vanished");
            match ev {
                Ev::Flood { from, to, hop, msg } => {
                    in_cal -= 1;
                    if !plan.alive_at(to, time) {
                        stats.dead_targets += 1;
                        continue;
                    }
                    if plan.drop_message(from, to, nonce, msg) {
                        stats.dropped += 1;
                        continue;
                    }
                    over.backlog_seeded += self.touch(to, t, nonce, cap);
                    let entry = QEntry {
                        arrived: t,
                        payload: Payload::Flood { hop },
                    };
                    // Flood evictions just die (no walker to resume).
                    let _ = self.enqueue(Kernel::Flood, to, entry, max_ttl, cap, &mut over, rec);
                }
                Ev::Serve(node) => {
                    let entry = self.queues[node as usize]
                        .pop_front()
                        // qcplint: allow(panic) — a Serve is only
                        // scheduled while its queue is non-empty.
                        .expect("serve on empty queue");
                    self.reschedule_service(node, cap);
                    if let Payload::Flood { hop } = entry.payload {
                        over.served += 1;
                        over.queue_delay += t - entry.arrived;
                        if self.marked[node as usize] {
                            continue; // duplicate: consumed capacity, no forward
                        }
                        self.mark(node);
                        reached += 1;
                        if holders.binary_search(&node).is_ok() {
                            holders_reached += 1;
                            if found_at_hop.is_none() {
                                found_at_hop = Some(hop);
                                first_hit_time = Some(t);
                            }
                        }
                        let forwards = forwarders.is_none_or(|m| m[node as usize]);
                        if hop < max_ttl && forwards {
                            for &v in graph.neighbors(node) {
                                messages += 1;
                                in_cal += 1;
                                let msg = messages;
                                self.cal.schedule_after(
                                    plan.latency(node, v),
                                    tie_break(msg),
                                    Ev::Flood {
                                        from: node,
                                        to: v,
                                        hop: hop + 1,
                                        msg,
                                    },
                                );
                            }
                        }
                    }
                    // Synthetic backlog: the slot is consumed, nothing
                    // else happens.
                }
                // Walk events are never scheduled by the flood kernel.
                Ev::Walk { .. } => unreachable!("walk event in flood run"),
            }
        }
        over.in_flight = in_cal
            + self
                .touched
                .iter()
                .map(|&n| {
                    self.queues[n as usize]
                        .iter()
                        .filter(|e| e.is_real())
                        .count() as u64
                })
                .sum::<u64>();
        let completion_time = match cutoff {
            Some(c) if truncated => c,
            _ => self.cal.now(),
        };
        stats.ticks = completion_time;
        rec.rec_count(Kernel::Flood, Counter::Messages, messages);
        rec.rec_faults(Kernel::Flood, &stats);
        rec.rec_count(Kernel::Flood, Counter::Enqueued, over.enqueued);
        rec.rec_count(Kernel::Flood, Counter::Served, over.served);
        rec.rec_count(Kernel::Flood, Counter::Shed, over.shed);
        rec.rec_count(Kernel::Flood, Counter::QueueDelay, over.queue_delay);
        if let Some(h) = found_at_hop {
            rec.rec_hop(Kernel::Flood, h, 1);
        }
        if let Some(t) = first_hit_time {
            rec.rec_time(Kernel::Flood, t, 1);
        }
        rec.rec_event(
            Kernel::Flood,
            if found_at_hop.is_some() {
                Event::Hit
            } else {
                Event::Miss
            },
        );
        (
            EventFloodOutcome {
                flood: FloodOutcome {
                    found: found_at_hop.is_some(),
                    found_at_hop,
                    reached,
                    messages,
                },
                first_hit_time,
                completion_time,
                truncated,
                holders_reached,
            },
            stats,
            over,
        )
    }

    /// Capacity-aware event walk. With an unlimited `cap` this is
    /// [`event_walk`] verbatim (bitwise, by delegation); otherwise
    /// arriving steps queue at their target and the walker moves at
    /// service time. A shed step strands its walker for that step (the
    /// drop semantics); an *evicted* queued step resumes its walker
    /// from where it stands at eviction time. Parameters mirror
    /// [`event_walk`].
    #[allow(clippy::too_many_arguments)] // mirrors event_walk + the capacity plan
    pub fn walk_rec<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        k: usize,
        ttl: u32,
        holders: &[u32],
        seed: u64,
        plan: &FaultPlan,
        cap: &CapacityPlan,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventWalkOutcome, FaultStats, OverloadOutcome) {
        if cap.is_unlimited() {
            let (out, stats) = event_walk(
                graph, source, k, ttl, holders, seed, plan, time, nonce, cutoff, rec,
            );
            return (out, stats, OverloadOutcome::default());
        }
        debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Walk);
        let mut stats = FaultStats::default();
        let mut over = OverloadOutcome::default();
        if !plan.alive_at(source, time) {
            rec.rec_event(Kernel::Walk, Event::DeadSource);
            return (
                EventWalkOutcome {
                    walk: WalkOutcome {
                        found: false,
                        found_at_step: None,
                        messages: 0,
                        visited: 0,
                    },
                    first_hit_time: None,
                    completion_time: 0,
                    truncated: false,
                },
                stats,
                over,
            );
        }
        if holders.binary_search(&source).is_ok() {
            rec.rec_hop(Kernel::Walk, 0, 1);
            rec.rec_time(Kernel::Walk, 0, 1);
            rec.rec_event(Kernel::Walk, Event::Hit);
            return (
                EventWalkOutcome {
                    walk: WalkOutcome {
                        found: true,
                        found_at_step: Some(0),
                        messages: 0,
                        visited: 1,
                    },
                    first_hit_time: Some(0),
                    completion_time: 0,
                    truncated: false,
                },
                stats,
                over,
            );
        }
        self.reset(graph.num_nodes());
        let mut messages = 0u64;
        let mut in_cal = 0u64;
        let mut visited: Vec<u32> = vec![source];
        let mut found_at_step: Option<u32> = None;
        let mut first_hit_time: Option<u64> = None;
        let mut walkers: Vec<WalkerState> = Vec::with_capacity(k);
        for w in 0..k {
            let mut walker = WalkerState {
                rng: Pcg64::with_stream(seed, w as u64),
                current: source,
                previous: u32::MAX,
            };
            let neighbors = graph.neighbors(source);
            if ttl > 0 && !neighbors.is_empty() {
                let next = pick_next(neighbors, walker.previous, &mut walker.rng);
                messages += 1;
                in_cal += 1;
                self.cal.schedule_after(
                    plan.latency(source, next),
                    step_tie(w as u32, 1),
                    Ev::Walk {
                        walker: w as u32,
                        step: 1,
                        from: source,
                        to: next,
                        msg: messages,
                    },
                );
            }
            walkers.push(walker);
        }
        let mut truncated = false;
        while let Some(t) = self.cal.peek_time() {
            if cutoff.is_some_and(|c| t > c) {
                truncated = true;
                break;
            }
            // qcplint: allow(panic) — peek_time returned Some on this
            // single-threaded calendar, so an event is pending.
            let (t, ev) = self.cal.pop().expect("peeked event vanished");
            match ev {
                Ev::Walk {
                    walker: w,
                    step,
                    from,
                    to,
                    msg,
                } => {
                    in_cal -= 1;
                    let mut stranded = false;
                    if !plan.alive_at(to, time) {
                        stats.dead_targets += 1;
                        stranded = true;
                    } else if plan.drop_message(from, to, nonce, msg) {
                        stats.dropped += 1;
                        stranded = true;
                    } else {
                        over.backlog_seeded += self.touch(to, t, nonce, cap);
                        let entry = QEntry {
                            arrived: t,
                            payload: Payload::Walk {
                                walker: w,
                                step,
                                from,
                            },
                        };
                        let (evicted, arriving_shed) =
                            self.enqueue(Kernel::Walk, to, entry, ttl, cap, &mut over, rec);
                        if arriving_shed {
                            // Shed at the door: the drop semantics.
                            stranded = true;
                        }
                        if let Some(QEntry {
                            payload:
                                Payload::Walk {
                                    walker: ew,
                                    step: es,
                                    ..
                                },
                            ..
                        }) = evicted
                        {
                            // The evicted step never got serviced, so
                            // its walker never moved: resume it from
                            // where it stands, step number consumed.
                            Self::resume_walker(
                                &mut self.cal,
                                graph,
                                plan,
                                &mut walkers[ew as usize],
                                ew,
                                es,
                                ttl,
                                &mut messages,
                                &mut in_cal,
                            );
                        }
                    }
                    if stranded {
                        // Walker stays put; the step number is consumed.
                        Self::resume_walker(
                            &mut self.cal,
                            graph,
                            plan,
                            &mut walkers[w as usize],
                            w,
                            step,
                            ttl,
                            &mut messages,
                            &mut in_cal,
                        );
                    }
                }
                Ev::Serve(node) => {
                    let entry = self.queues[node as usize]
                        .pop_front()
                        // qcplint: allow(panic) — a Serve is only
                        // scheduled while its queue is non-empty.
                        .expect("serve on empty queue");
                    self.reschedule_service(node, cap);
                    if let Payload::Walk {
                        walker: w,
                        step,
                        from,
                    } = entry.payload
                    {
                        over.served += 1;
                        over.queue_delay += t - entry.arrived;
                        let walker = &mut walkers[w as usize];
                        walker.previous = from;
                        walker.current = node;
                        visited.push(node);
                        if holders.binary_search(&node).is_ok() {
                            if found_at_step.is_none() {
                                found_at_step = Some(step);
                                first_hit_time = Some(t);
                            }
                            continue; // this walker stops on its own success
                        }
                        Self::resume_walker(
                            &mut self.cal,
                            graph,
                            plan,
                            walker,
                            w,
                            step,
                            ttl,
                            &mut messages,
                            &mut in_cal,
                        );
                    }
                }
                // Flood events are never scheduled by the walk kernel.
                Ev::Flood { .. } => unreachable!("flood event in walk run"),
            }
        }
        visited.sort_unstable();
        visited.dedup();
        over.in_flight = in_cal
            + self
                .touched
                .iter()
                .map(|&n| {
                    self.queues[n as usize]
                        .iter()
                        .filter(|e| e.is_real())
                        .count() as u64
                })
                .sum::<u64>();
        let completion_time = match cutoff {
            Some(c) if truncated => c,
            _ => self.cal.now(),
        };
        stats.ticks = completion_time;
        rec.rec_count(Kernel::Walk, Counter::Messages, messages);
        rec.rec_faults(Kernel::Walk, &stats);
        rec.rec_count(Kernel::Walk, Counter::Enqueued, over.enqueued);
        rec.rec_count(Kernel::Walk, Counter::Served, over.served);
        rec.rec_count(Kernel::Walk, Counter::Shed, over.shed);
        rec.rec_count(Kernel::Walk, Counter::QueueDelay, over.queue_delay);
        if let Some(step) = found_at_step {
            rec.rec_hop(Kernel::Walk, step, 1);
        }
        if let Some(t) = first_hit_time {
            rec.rec_time(Kernel::Walk, t, 1);
        }
        rec.rec_event(
            Kernel::Walk,
            if found_at_step.is_some() {
                Event::Hit
            } else {
                Event::Miss
            },
        );
        (
            EventWalkOutcome {
                walk: WalkOutcome {
                    found: found_at_step.is_some(),
                    found_at_step,
                    messages,
                    visited: visited.len() as u32,
                },
                first_hit_time,
                completion_time,
                truncated,
            },
            stats,
            over,
        )
    }

    /// Schedules walker `w`'s next step from wherever it stands (after
    /// a successful move, a strand, or an eviction), if budget remains.
    #[allow(clippy::too_many_arguments)] // one continuation site, three callers
    fn resume_walker(
        cal: &mut Calendar<Ev>,
        graph: &Graph,
        plan: &FaultPlan,
        walker: &mut WalkerState,
        w: u32,
        step: u32,
        ttl: u32,
        messages: &mut u64,
        in_cal: &mut u64,
    ) {
        if step >= ttl {
            return;
        }
        let neighbors = graph.neighbors(walker.current);
        if neighbors.is_empty() {
            return;
        }
        let next = pick_next(neighbors, walker.previous, &mut walker.rng);
        *messages += 1;
        *in_cal += 1;
        cal.schedule_after(
            plan.latency(walker.current, next),
            step_tie(w, step + 1),
            Ev::Walk {
                walker: w,
                step: step + 1,
                from: walker.current,
                to: next,
                msg: *messages,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_faults::capacity::{CapacityConfig, CapacityModel};
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

    #[test]
    fn unlimited_flood_delegates_bitwise() {
        let g = crate::topology::erdos_renyi(300, 5.0, 3).graph;
        let plan = FaultPlan::none(300);
        let cap = CapacityPlan::unlimited();
        let mut eng = OverloadEngine::new();
        for ttl in 0..=5 {
            let (a, sa) = crate::event::event_flood(
                &g,
                7,
                ttl,
                &[50, 200],
                None,
                &plan,
                0,
                1,
                None,
                &mut NoopRecorder,
            );
            let (b, sb, over) = eng.flood_rec(
                &g,
                7,
                ttl,
                &[50, 200],
                None,
                &plan,
                &cap,
                0,
                1,
                None,
                &mut NoopRecorder,
            );
            assert_eq!(a, b);
            assert_eq!(sa, sb);
            assert_eq!(over, OverloadOutcome::default());
        }
    }

    #[test]
    fn zero_load_uniform_capacity_only_adds_service_time() {
        // With no background load and huge queues nothing sheds; the
        // flood's message/coverage accounting matches the PR 7 kernel,
        // only the timeline stretches by the service intervals.
        let g = path(6);
        let plan = FaultPlan::none(6);
        let cap = limited(0.0, ShedPolicy::DropNewest);
        let mut eng = OverloadEngine::new();
        let (free, _) =
            crate::event::event_flood(&g, 0, 5, &[4], None, &plan, 0, 7, None, &mut NoopRecorder);
        let (out, stats, over) = eng.flood_rec(
            &g,
            0,
            5,
            &[4],
            None,
            &plan,
            &cap,
            0,
            7,
            None,
            &mut NoopRecorder,
        );
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
        let mut eng = OverloadEngine::new();
        for policy in ShedPolicy::ALL {
            let cap = limited(64.0, policy);
            let (out, stats, over) = eng.flood_rec(
                &g,
                3,
                4,
                &[150],
                None,
                &plan,
                &cap,
                0,
                42,
                Some(200),
                &mut NoopRecorder,
            );
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
            let mut eng = OverloadEngine::new();
            eng.walk_rec(
                &g,
                5,
                8,
                30,
                &[160],
                0xabc,
                &plan,
                &cap,
                0,
                9,
                Some(400),
                &mut NoopRecorder,
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
        let mut eng = OverloadEngine::new();
        let (a, sa) = crate::event::event_walk(
            &g,
            5,
            4,
            20,
            &[160],
            7,
            &plan,
            0,
            9,
            Some(100),
            &mut NoopRecorder,
        );
        let (b, sb, over) = eng.walk_rec(
            &g,
            5,
            4,
            20,
            &[160],
            7,
            &plan,
            &cap,
            0,
            9,
            Some(100),
            &mut NoopRecorder,
        );
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(over, OverloadOutcome::default());
    }

    #[test]
    fn engine_reuse_is_bitwise_stable_and_reset_retains_capacity() {
        let g = crate::topology::erdos_renyi(150, 5.0, 17).graph;
        let plan = FaultPlan::none(150);
        let cap = limited(8.0, ShedPolicy::DropOldest);
        let mut eng = OverloadEngine::new();
        let first = eng.flood_rec(
            &g,
            2,
            4,
            &[100],
            None,
            &plan,
            &cap,
            0,
            5,
            Some(300),
            &mut NoopRecorder,
        );
        let heap_cap = eng.cal.capacity();
        // Ten reuses of the same engine reproduce the first run and
        // never grow the calendar: the arena discipline.
        for _ in 0..10 {
            let again = eng.flood_rec(
                &g,
                2,
                4,
                &[100],
                None,
                &plan,
                &cap,
                0,
                5,
                Some(300),
                &mut NoopRecorder,
            );
            assert_eq!(first, again);
            assert_eq!(eng.cal.capacity(), heap_cap);
        }
    }

    #[test]
    fn drop_oldest_keeps_arrivals_and_ttl_priority_prefers_budget() {
        // On a path under heavy synthetic backlog, drop-newest sheds
        // the real arrivals at the door while drop-oldest lets them in
        // (evicting backlog first) — so drop-oldest must serve at least
        // as many real messages.
        let g = path(8);
        let plan = FaultPlan::none(8);
        let mut eng = OverloadEngine::new();
        let run = |eng: &mut OverloadEngine, policy| {
            let cap = limited(256.0, policy);
            eng.flood_rec(
                &g,
                0,
                7,
                &[7],
                None,
                &plan,
                &cap,
                0,
                3,
                Some(400),
                &mut NoopRecorder,
            )
        };
        let (_, _, newest) = run(&mut eng, ShedPolicy::DropNewest);
        let (_, _, oldest) = run(&mut eng, ShedPolicy::DropOldest);
        let (_, _, ttlp) = run(&mut eng, ShedPolicy::TtlPriority);
        assert!(oldest.served >= newest.served);
        assert!(ttlp.served >= newest.served);
    }
}
