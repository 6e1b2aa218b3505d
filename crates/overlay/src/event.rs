//! The calendar engine: event-driven flood and k-walker on the
//! `qcp-vtime` calendar.
//!
//! The synchronous kernels in [`flood`](crate::flood) and
//! [`walk`](crate::walk) advance the whole network one hop at a time —
//! correct for message accounting, blind to *when* messages arrive. The
//! [`EventEngine`] re-expresses the same searches on a [`Calendar`]:
//! every transmission arrives at `now + plan.latency(u, v)`, and its
//! fault checks (churn liveness, Bernoulli drops) decide its *arrival*,
//! not its send. Both kernels take their [`Recorder`] directly (pass
//! [`qcp_obs::NoopRecorder`] for an unrecorded run); the recorder is
//! write-only, so outcomes never depend on it.
//!
//! # One loop per strategy, two delivery models
//!
//! [`EventEngine::flood`] and [`EventEngine::walk`] each hold the one
//! calendar loop for their strategy. What happens to an arrival that
//! survives the fault checks is a crate-private *delivery model*, chosen
//! once per query from the caller's `Option<&CapacityPlan>`:
//!
//! * **`Direct`** (no plan, or [`CapacityPlan::is_unlimited`]) — the
//!   message is processed on arrival: nodes have infinite capacity. This
//!   model is zero-sized and records no queue counters, and a flood
//!   under it settles each message when it is sent (below).
//! * **`Queued`** (a limited plan; see [`overload`](crate::overload)) —
//!   arrivals join their target's bounded queue, and the same `process`
//!   step (mark and forward, or move the walker) runs when the node
//!   serves the entry. Every message is a calendar event here, because
//!   a duplicate still takes a queue slot.
//!
//! The loop is generic over the model, so each model is its own
//! monomorphized kernel and the direct path carries no queueing code.
//!
//! # Settling a direct flood message at send
//!
//! A direct flood decides each message's fate when it is sent, and only
//! a possible first arrival at a forwarder enters the calendar. On a
//! two-tier overlay, where most peers are leaves that only receive, that
//! keeps nearly every message out of the calendar. The outcome is the
//! arrival-time loop's bit for bit, because
//!
//! * the fault draws are stateless in `(u, v, msg)` and the query tick,
//!   so drawing them early draws the same values;
//! * churn is frozen within a query and visit marks only grow, so a
//!   message to a node already marked when it is sent arrives as a
//!   duplicate;
//! * latencies are at least one tick and `tie_break = mix64` is a
//!   bijection on distinct message indices, so `(time, tie)` is a strict
//!   order over one flood's messages, and the calendar pops in it.
//!
//! A send arriving at `t` past the cutoff only sets `truncated`: the
//! arrival loop would stop on it undelivered. Otherwise `t` raises the
//! completion time and the fault checks run, counting dead targets and
//! drops as they would at pop; a lost message or a marked target ends
//! it. Each node keeps its best pending key `(t, tie)`, and a send no
//! better than it ends there. A forwarder with a better key is
//! scheduled; its stale events pop later and find it marked. A node
//! that does not forward never sends, so it is resolved on the spot:
//! its first key counts it as reached (and as a holder reached), and a
//! holder's key competes for the earliest leaf hit. The flood's hit is
//! the smaller `(time, tie)` of the calendar's first hit and that leaf
//! hit. A test-only delivery model with every default (the arrival-time
//! loop) is the oracle the module's proptest pins this against.
//!
//! # Accounting contract
//!
//! * **Messages are counted at send time.** The running counter doubles
//!   as the message index in the plan's drop stream (exactly as the
//!   synchronous kernels use it), and a send scheduled before a deadline
//!   cutoff is paid for even if the cutoff lands before its delivery.
//! * **Fault checks are counted once per message that arrives by the
//!   cutoff**, at send under direct flood delivery and at pop otherwise.
//! * **Churn is frozen within a query.** `plan.alive_at(node, time)`
//!   keys on the workload tick `time`, which does not advance during a
//!   single query; checking liveness at delivery therefore matches the
//!   synchronous kernels' send-time check node for node.
//! * **`FaultStats::ticks` carries the completion time** (the last
//!   arrival, or the cutoff when truncated) — the virtual elapsed time
//!   of the query.
//!
//! # Bitwise equivalence with the hop census
//!
//! Under a unit-latency, fault-free plan and direct delivery every send
//! scheduled at virtual time `t` delivers at `t + 1`, so deliveries
//! drain in exact BFS level order and a node is first marked at its hop
//! distance. The per-delivery tie-break order *within* a level differs
//! from the census's frontier scan order, but every aggregate the
//! outcome exposes — `reached`, `messages`, the first-hit hop — is
//! level-cumulative and therefore order-independent inside a level. A
//! direct [`EventEngine::flood`] with `FaultPlan::none` and
//! `max_ttl = t` is thus bit-identical to the hop census's `.at(t)`
//! (pinned by the proptests in `tests/event_flood.rs` and at 40k-node
//! scale in `tests/determinism.rs`).
//!
//! [`CapacityPlan::is_unlimited`]: qcp_faults::CapacityPlan::is_unlimited

use crate::flood::{Faults, FloodFaults, FloodOutcome};
use crate::graph::Graph;
use crate::overload::{OverloadOutcome, QueueArena, Queued};
use crate::walk::{pick_next, WalkOutcome};
use qcp_faults::{CapacityPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::rng::Pcg64;
use qcp_vtime::{tie_break, Calendar};

/// Outcome of one event-driven flood: the synchronous [`FloodOutcome`]
/// quadruple plus the virtual-time facts the calendar adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventFloodOutcome {
    /// The flood quadruple (`found`, `found_at_hop`, `reached`,
    /// `messages`) — bit-compatible with the synchronous kernels.
    pub flood: FloodOutcome,
    /// Virtual time at which the first holder was reached, if any.
    pub first_hit_time: Option<u64>,
    /// Virtual time at which the flood drained (or the cutoff, when
    /// truncated).
    pub completion_time: u64,
    /// Whether a `cutoff` stopped delivery before the calendar drained.
    pub truncated: bool,
    /// Distinct holders marked by the flood (the hybrid rare-query rule's
    /// hit count — `hits_in_last_flood` for the synchronous engine).
    pub holders_reached: u32,
}

/// Outcome of one event-driven walk: the synchronous [`WalkOutcome`]
/// shape plus virtual-time facts. Unlike the synchronous kernel (which
/// reports the *minimum* hit step across walkers), `found_at_step` here
/// is the step of the *temporally first* hit — the honest answer when
/// walkers race over real latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventWalkOutcome {
    /// The walk quadruple (`found`, `found_at_step`, `messages`,
    /// `visited`).
    pub walk: WalkOutcome,
    /// Virtual time of the first hit, if any.
    pub first_hit_time: Option<u64>,
    /// Virtual time at which every walker finished (or the cutoff).
    pub completion_time: u64,
    /// Whether a `cutoff` stopped the walkers early.
    pub truncated: bool,
}

/// One query message in flight: a flood delivery or a walker step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Msg {
    pub(crate) from: u32,
    pub(crate) to: u32,
    /// Hop (flood) or step (walk) index at which this message arrives.
    pub(crate) hop: u32,
    /// The stepping walker (walks only; 0 for floods).
    pub(crate) walker: u32,
    /// 1-based index in the plan's drop stream (assigned at send).
    pub(crate) msg: u64,
}

/// Calendar events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A message arriving at its target.
    Arrive(Msg),
    /// The node dequeues its next queued entry (queued delivery only).
    Serve(u32),
}

/// What a delivery model did with an arrival that survived the fault
/// checks.
pub(crate) enum Admit {
    /// Process it now.
    Now,
    /// Queued; the model hands it back from [`Delivery::serve`].
    Queued,
    /// Refused at the door by a full queue (a walk treats a message lost
    /// to the fault plan the same way).
    Shed,
    /// Queued, evicting this earlier real message (which never gets
    /// processed).
    Evicted(Msg),
}

/// How an arrival that survived the fault checks reaches the kernel's
/// `process` step. See the module docs. The provided methods are direct
/// delivery.
pub(crate) trait Delivery {
    /// Whether a flood settles each message when it is sent rather than
    /// when it arrives (see the module docs). Only a model that processes
    /// every arrival on the spot may: a queue spends a slot on each
    /// duplicate, so it needs every arrival in the calendar.
    const SETTLE_AT_SEND: bool = false;
    /// Ledger hook: one message entered the calendar.
    fn sent(&mut self) {}
    /// Ledger hook: one message left the calendar.
    fn landed(&mut self) {}
    /// Admits `m`, arriving at `m.to` at virtual time `now`. `max_ttl`
    /// is the run's forwarding budget (the TTL-priority shed key).
    fn arrive<R: Recorder>(
        &mut self,
        _cal: &mut Calendar<Ev>,
        _now: u64,
        _m: Msg,
        _max_ttl: u32,
        _kernel: Kernel,
        _rec: &mut R,
    ) -> Admit {
        Admit::Now
    }
    /// A `Serve` event at `node`: the queued real message to process
    /// now, if the dequeued entry is one.
    fn serve(&mut self, _cal: &mut Calendar<Ev>, _now: u64, _node: u32) -> Option<Msg> {
        None
    }
    /// Closes the run: overload accounting, recorded under `kernel`.
    fn finish<R: Recorder>(&mut self, _kernel: Kernel, _rec: &mut R) -> OverloadOutcome {
        OverloadOutcome::default()
    }
}

/// Infinite capacity: every arrival is processed on the spot, no
/// `Serve` event is ever scheduled, and nothing is queued or recorded.
/// A flood settles its messages at send.
struct Direct;

impl Delivery for Direct {
    const SETTLE_AT_SEND: bool = true;
}

/// The parameters both calendar kernels share for one query.
struct Query<'q> {
    graph: &'q Graph,
    source: u32,
    /// Flood TTL, or steps per walker.
    ttl: u32,
    holders: &'q [u32],
    faults: FloodFaults<'q>,
    cutoff: Option<u64>,
}

impl Query<'_> {
    fn holds(&self, node: u32) -> bool {
        self.holders.binary_search(&node).is_ok()
    }
}

/// Per-run tallies both kernels keep.
#[derive(Default)]
struct Tally {
    messages: u64,
    stats: FaultStats,
    /// `(hop or step, virtual time)` of the first hit.
    hit: Option<(u32, u64)>,
    truncated: bool,
}

impl Tally {
    /// The run's epilogue: stamps the completion time, closes the
    /// delivery model's ledger, and makes the closing recorder calls.
    fn finish<D: Delivery, R: Recorder>(
        &mut self,
        q: &Query<'_>,
        now: u64,
        kernel: Kernel,
        d: &mut D,
        rec: &mut R,
    ) -> (u64, OverloadOutcome) {
        let completion = match q.cutoff {
            Some(c) if self.truncated => c,
            _ => now,
        };
        self.stats.ticks = completion;
        rec.rec_count(kernel, Counter::Messages, self.messages);
        rec.rec_faults(kernel, &self.stats);
        let over = d.finish(kernel, rec);
        if let Some((hop, time)) = self.hit {
            rec.rec_hop(kernel, hop, 1);
            rec.rec_time(kernel, time, 1);
        }
        rec.rec_event(kernel, self.hit.map_or(Event::Miss, |_| Event::Hit));
        (completion, over)
    }
}

#[derive(Debug)]
struct Walker {
    rng: Pcg64,
    current: u32,
    previous: u32,
}

/// Calendar tie-break of walker `walker`'s step `step`.
fn step_tie(walker: u32, step: u32) -> u64 {
    tie_break(((walker as u64) << 32) | step as u64)
}

/// A flood's running totals beyond the shared [`Tally`].
#[derive(Default)]
struct FloodRun<'f> {
    tally: Tally,
    /// Leaf mask (`None`: every node forwards).
    forwarders: Option<&'f [bool]>,
    reached: u32,
    holders_reached: u32,
    /// `(time, tie, hop)` of the first holder marked off the calendar.
    /// The source's own hit is `(0, 0, 0)`, ahead of every message:
    /// latencies are at least one tick.
    hit: Option<(u64, u64, u32)>,
    /// Settled at send: `(time, tie, hop)` of the earliest arrival at a
    /// holder that does not forward.
    leaf_hit: Option<(u64, u64, u32)>,
    /// Settled at send: the latest arrival at or before the cutoff.
    last: u64,
}

impl FloodRun<'_> {
    fn forwards(&self, node: u32) -> bool {
        self.forwarders.is_none_or(|f| f[node as usize])
    }
}

/// The per-run state every delivery model shares: calendar, visit marks,
/// walkers and the walk's visit log.
#[derive(Debug, Default)]
struct Arena {
    cal: Calendar<Ev>,
    marked: Vec<bool>,
    marked_list: Vec<u32>,
    /// Settled at send: each node's best pending arrival key
    /// `(time, tie)`, and the nodes that hold one.
    best: Vec<Option<(u64, u64)>>,
    best_list: Vec<u32>,
    walkers: Vec<Walker>,
    visited: Vec<u32>,
}

/// Reusable calendar flood/walk engine. Holds the calendar, visit marks,
/// walker state and per-node queues across runs, and rewinds them at the
/// start of each run while retaining every allocation, so steady-state
/// reuse allocates nothing (the PR 8 arena discipline, backed by
/// [`Calendar::reset`]).
#[derive(Debug, Default)]
pub struct EventEngine {
    arena: Arena,
    queues: QueueArena,
}

impl EventEngine {
    /// An empty engine; per-node state grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Event-driven TTL-limited flood. See the module docs for the
    /// accounting contract, the delivery models and the
    /// census-equivalence argument.
    ///
    /// * `forwarders` — leaf mask (the source always forwards);
    /// * `faults` — the plan, workload tick and drop-stream nonce;
    /// * `capacity` — `None` or an unlimited plan delivers directly
    ///   (the overload outcome is all zeros); a limited plan queues;
    /// * `cutoff` — optional virtual-time deadline: events past it are
    ///   not delivered and the outcome reports `truncated = true`;
    /// * `rec` — write-only instrumentation: outcomes and stats are
    ///   bit-identical for any recorder.
    #[allow(clippy::too_many_arguments)] // the flood + fault context, capacity, cutoff and recorder
    pub fn flood<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        faults: FloodFaults<'_>,
        capacity: Option<&CapacityPlan>,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventFloodOutcome, FaultStats, OverloadOutcome) {
        let q = Query {
            graph,
            source,
            ttl: max_ttl,
            holders,
            faults,
            cutoff,
        };
        match capacity.filter(|c| !c.is_unlimited()) {
            None => self.arena.flood(&q, forwarders, &mut Direct, rec),
            Some(cap) => {
                let mut d = Queued::new(&mut self.queues, cap, faults.nonce, graph.num_nodes());
                self.arena.flood(&q, forwarders, &mut d, rec)
            }
        }
    }

    /// Event-driven k-walker random walk. Each walker draws from its own
    /// `Pcg64::with_stream(seed, walker)` stream, and every draw happens
    /// in the walker's own event chain — a walker has at most one step
    /// outstanding, in the calendar or in a queue — so interleaving
    /// across walkers cannot perturb any stream.
    ///
    /// Fault semantics mirror [`random_walk_search`]'s: a dead target or
    /// in-flight drop wastes the message and strands the walker in place
    /// for that step; walks never retry. Under a limited `capacity` a
    /// step shed at the door strands its walker the same way, and a
    /// queued step evicted by a later arrival resumes its walker from
    /// where it stands. Other parameters as in [`Self::flood`].
    ///
    /// [`random_walk_search`]: crate::walk::random_walk_search
    #[allow(clippy::too_many_arguments)] // the walk + fault context, capacity, cutoff and recorder
    pub fn walk<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        k: usize,
        ttl: u32,
        holders: &[u32],
        seed: u64,
        faults: FloodFaults<'_>,
        capacity: Option<&CapacityPlan>,
        cutoff: Option<u64>,
        rec: &mut R,
    ) -> (EventWalkOutcome, FaultStats, OverloadOutcome) {
        let q = Query {
            graph,
            source,
            ttl,
            holders,
            faults,
            cutoff,
        };
        match capacity.filter(|c| !c.is_unlimited()) {
            None => self.arena.walk(&q, k, seed, &mut Direct, rec),
            Some(cap) => {
                let mut d = Queued::new(&mut self.queues, cap, faults.nonce, graph.num_nodes());
                self.arena.walk(&q, k, seed, &mut d, rec)
            }
        }
    }
}

impl Arena {
    /// Rewinds the calendar and clears the visit marks for an `n`-node
    /// run, retaining every allocation.
    fn reset(&mut self, n: usize) {
        self.cal.reset();
        if self.marked.len() < n {
            self.marked.resize(n, false);
            self.best.resize(n, None);
        }
        for &node in &self.marked_list {
            self.marked[node as usize] = false;
        }
        self.marked_list.clear();
        for &node in &self.best_list {
            self.best[node as usize] = None;
        }
        self.best_list.clear();
    }

    /// Marks `node`; returns whether it was unmarked.
    fn mark(&mut self, node: u32) -> bool {
        if self.marked[node as usize] {
            return false;
        }
        self.marked[node as usize] = true;
        self.marked_list.push(node);
        true
    }

    /// The one calendar flood loop.
    fn flood<D: Delivery, R: Recorder>(
        &mut self,
        q: &Query<'_>,
        forwarders: Option<&[bool]>,
        d: &mut D,
        rec: &mut R,
    ) -> (EventFloodOutcome, FaultStats, OverloadOutcome) {
        debug_assert!(q.holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Flood);
        if !q.faults.alive(q.source) {
            rec.rec_event(Kernel::Flood, Event::DeadSource);
            return Default::default();
        }
        self.reset(q.graph.num_nodes());
        let mut run = FloodRun {
            forwarders,
            reached: 1,
            ..Default::default()
        };
        self.mark(q.source);
        if q.holds(q.source) {
            run.hit = Some((0, 0, 0));
            run.holders_reached = 1;
        }
        // The querying node's send round is instant: sends are counted,
        // not queued at the sender.
        self.send_round(q, d, &mut run, q.source, 0);
        while let Some(t) = self.cal.peek_time() {
            // Settled sends never schedule past the cutoff.
            if q.cutoff.is_some_and(|c| t > c) {
                run.tally.truncated = true;
                break;
            }
            // qcplint: allow(panic) — peek_time returned Some on this
            // single-threaded calendar, so an event is pending.
            let (t, ev) = self.cal.pop().expect("peeked event vanished");
            let m = match ev {
                Ev::Arrive(m) => {
                    d.landed();
                    // A settled message passed its fault checks at send.
                    if !D::SETTLE_AT_SEND
                        && !q.faults.deliver(m.from, m.to, m.msg, &mut run.tally.stats)
                    {
                        continue;
                    }
                    match d.arrive(&mut self.cal, t, m, q.ttl, Kernel::Flood, rec) {
                        Admit::Now => m,
                        // Queued for service, or gone (a flood has no
                        // walker to resume).
                        Admit::Queued | Admit::Shed | Admit::Evicted(_) => continue,
                    }
                }
                Ev::Serve(node) => match d.serve(&mut self.cal, t, node) {
                    Some(m) => m,
                    None => continue,
                },
            };
            // Process: a duplicate (or a settled arrival a better one
            // beat) consumed its delivery, nothing more.
            if !self.mark(m.to) {
                continue;
            }
            run.reached += 1;
            if q.holds(m.to) {
                run.holders_reached += 1;
                run.hit.get_or_insert((t, tie_break(m.msg), m.hop));
            }
            // Only forwarders expand (the source never re-arrives fresh).
            if run.forwards(m.to) {
                self.send_round(q, d, &mut run, m.to, m.hop);
            }
        }
        let hit = match (run.hit, run.leaf_hit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        run.tally.hit = hit.map(|(time, _, hop)| (hop, time));
        let end = if D::SETTLE_AT_SEND {
            run.last
        } else {
            self.cal.now()
        };
        let (completion_time, over) = run.tally.finish(q, end, Kernel::Flood, d, rec);
        let out = EventFloodOutcome {
            flood: FloodOutcome {
                found: hit.is_some(),
                found_at_hop: hit.map(|(_, _, hop)| hop),
                reached: run.reached,
                messages: run.tally.messages,
            },
            first_hit_time: hit.map(|(time, _, _)| time),
            completion_time,
            truncated: run.tally.truncated,
            holders_reached: run.holders_reached,
        };
        (out, run.tally.stats, over)
    }

    /// `u`, marked at hop `hop`, forwards to every neighbor if the TTL
    /// allows; each message delivers after its link latency.
    fn send_round<D: Delivery>(
        &mut self,
        q: &Query<'_>,
        d: &mut D,
        run: &mut FloodRun<'_>,
        u: u32,
        hop: u32,
    ) {
        if hop >= q.ttl {
            return;
        }
        let now = self.cal.now();
        for &v in q.graph.neighbors(u) {
            run.tally.messages += 1;
            d.sent();
            let msg = run.tally.messages;
            let m = Msg {
                from: u,
                to: v,
                hop: hop + 1,
                walker: 0,
                msg,
            };
            let t = now.saturating_add(q.faults.plan.latency(u, v));
            if D::SETTLE_AT_SEND {
                self.settle(q, run, t, m);
            } else {
                self.cal.schedule_at(t, tie_break(msg), Ev::Arrive(m));
            }
        }
    }

    /// Settles `m`, sent now to arrive at `t`, exactly as the arrival
    /// loop would at its pop (see the module docs): only a possible
    /// first arrival at a forwarder enters the calendar, and a node
    /// that does not forward is resolved on the spot.
    fn settle(&mut self, q: &Query<'_>, run: &mut FloodRun<'_>, t: u64, m: Msg) {
        if q.cutoff.is_some_and(|c| t > c) {
            run.tally.truncated = true;
            return;
        }
        run.last = run.last.max(t);
        if !q.faults.deliver(m.from, m.to, m.msg, &mut run.tally.stats)
            || self.marked[m.to as usize]
        {
            return;
        }
        let key = (t, tie_break(m.msg));
        let best = &mut self.best[m.to as usize];
        let first = best.is_none();
        if best.is_some_and(|b| b <= key) {
            return;
        }
        *best = Some(key);
        if first {
            self.best_list.push(m.to);
        }
        if run.forwards(m.to) {
            self.cal.schedule_at(t, key.1, Ev::Arrive(m));
            return;
        }
        let holds = q.holds(m.to);
        if first {
            run.reached += 1;
            run.holders_reached += u32::from(holds);
        }
        if holds {
            let hit = (t, key.1, m.hop);
            run.leaf_hit = Some(run.leaf_hit.map_or(hit, |h| h.min(hit)));
        }
    }

    /// The one calendar k-walker loop.
    fn walk<D: Delivery, R: Recorder>(
        &mut self,
        q: &Query<'_>,
        k: usize,
        seed: u64,
        d: &mut D,
        rec: &mut R,
    ) -> (EventWalkOutcome, FaultStats, OverloadOutcome) {
        debug_assert!(q.holders.windows(2).all(|w| w[0] < w[1]));
        rec.rec_span(Kernel::Walk);
        if !q.faults.alive(q.source) {
            rec.rec_event(Kernel::Walk, Event::DeadSource);
            return Default::default();
        }
        if q.holds(q.source) {
            rec.rec_hop(Kernel::Walk, 0, 1);
            rec.rec_time(Kernel::Walk, 0, 1);
            rec.rec_event(Kernel::Walk, Event::Hit);
            let out = EventWalkOutcome {
                walk: WalkOutcome {
                    found: true,
                    found_at_step: Some(0),
                    messages: 0,
                    visited: 1,
                },
                first_hit_time: Some(0),
                ..Default::default()
            };
            return (out, FaultStats::default(), OverloadOutcome::default());
        }
        self.reset(q.graph.num_nodes());
        let mut tally = Tally::default();
        self.visited.clear();
        self.visited.push(q.source);
        self.walkers.clear();
        for w in 0..k {
            self.walkers.push(Walker {
                rng: Pcg64::with_stream(seed, w as u64),
                current: q.source,
                previous: u32::MAX,
            });
            self.step(q, d, w as u32, 0, &mut tally.messages);
        }
        while let Some(t) = self.cal.peek_time() {
            if q.cutoff.is_some_and(|c| t > c) {
                tally.truncated = true;
                break;
            }
            // qcplint: allow(panic) — peek_time returned Some on this
            // single-threaded calendar, so an event is pending.
            let (t, ev) = self.cal.pop().expect("peeked event vanished");
            let m = match ev {
                Ev::Arrive(m) => {
                    d.landed();
                    let admit = if q.faults.deliver(m.from, m.to, m.msg, &mut tally.stats) {
                        d.arrive(&mut self.cal, t, m, q.ttl, Kernel::Walk, rec)
                    } else {
                        Admit::Shed
                    };
                    match admit {
                        Admit::Now => m,
                        Admit::Queued => continue,
                        // Lost or shed: the walker stays put and the
                        // step number is consumed.
                        Admit::Shed => {
                            self.step(q, d, m.walker, m.hop, &mut tally.messages);
                            continue;
                        }
                        // The evicted step never got processed, so its
                        // walker never moved: resume it from where it
                        // stands, step number consumed.
                        Admit::Evicted(e) => {
                            self.step(q, d, e.walker, e.hop, &mut tally.messages);
                            continue;
                        }
                    }
                }
                Ev::Serve(node) => match d.serve(&mut self.cal, t, node) {
                    Some(m) => m,
                    None => continue,
                },
            };
            // Process: the walker moves.
            let walker = &mut self.walkers[m.walker as usize];
            walker.previous = m.from;
            walker.current = m.to;
            self.visited.push(m.to);
            if q.holds(m.to) {
                tally.hit.get_or_insert((m.hop, t));
                continue; // this walker stops on its own success
            }
            self.step(q, d, m.walker, m.hop, &mut tally.messages);
        }
        self.visited.sort_unstable();
        self.visited.dedup();
        let (completion_time, over) = tally.finish(q, self.cal.now(), Kernel::Walk, d, rec);
        let out = EventWalkOutcome {
            walk: WalkOutcome {
                found: tally.hit.is_some(),
                found_at_step: tally.hit.map(|(step, _)| step),
                messages: tally.messages,
                visited: self.visited.len() as u32,
            },
            first_hit_time: tally.hit.map(|(_, time)| time),
            completion_time,
            truncated: tally.truncated,
        };
        (out, tally.stats, over)
    }

    /// Schedules walker `w`'s step `step + 1` from wherever it stands
    /// (at launch, after a move, a strand or an eviction), if budget
    /// and neighbors remain.
    fn step<D: Delivery>(
        &mut self,
        q: &Query<'_>,
        d: &mut D,
        w: u32,
        step: u32,
        messages: &mut u64,
    ) {
        if step >= q.ttl {
            return;
        }
        let walker = &mut self.walkers[w as usize];
        let neighbors = q.graph.neighbors(walker.current);
        if neighbors.is_empty() {
            return;
        }
        let next = pick_next(neighbors, walker.previous, &mut walker.rng);
        *messages += 1;
        d.sent();
        self.cal.schedule_after(
            q.faults.plan.latency(walker.current, next),
            step_tie(w, step + 1),
            Ev::Arrive(Msg {
                from: walker.current,
                to: next,
                hop: step + 1,
                walker: w,
                msg: *messages,
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::{FloodEngine, FloodSpec};
    use qcp_faults::{FaultConfig, FaultPlan};
    use qcp_obs::{MetricsRecorder, NoopRecorder};

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    fn at(plan: &FaultPlan, time: u64, nonce: u64) -> FloodFaults<'_> {
        FloodFaults { plan, time, nonce }
    }

    /// A direct-delivery flood on a fresh engine.
    #[allow(clippy::too_many_arguments)]
    fn flood(
        g: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        plan: &FaultPlan,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
    ) -> (EventFloodOutcome, FaultStats) {
        let (out, stats, _) = EventEngine::new().flood(
            g,
            source,
            ttl,
            holders,
            None,
            at(plan, time, nonce),
            None,
            cutoff,
            &mut NoopRecorder,
        );
        (out, stats)
    }

    /// A direct-delivery walk on a fresh engine.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        g: &Graph,
        source: u32,
        k: usize,
        ttl: u32,
        holders: &[u32],
        seed: u64,
        plan: &FaultPlan,
        time: u64,
        cutoff: Option<u64>,
    ) -> (EventWalkOutcome, FaultStats) {
        let (out, stats, _) = EventEngine::new().walk(
            g,
            source,
            k,
            ttl,
            holders,
            seed,
            at(plan, time, 9),
            None,
            cutoff,
            &mut NoopRecorder,
        );
        (out, stats)
    }

    #[test]
    fn unit_latency_flood_matches_census_on_a_path() {
        let g = path(6);
        let plan = FaultPlan::none(6);
        let mut engine = FloodEngine::new(6);
        let census = engine
            .run(&g, 0, &[4], None, &FloodSpec::new(5), &mut NoopRecorder)
            .0;
        for ttl in 0..=5 {
            let (out, _) = flood(&g, 0, ttl, &[4], &plan, 0, 7, None);
            assert_eq!(out.flood, census.at(ttl), "ttl {ttl}");
            assert!(!out.truncated);
            // Unit latency: completion is the deepest delivered hop.
            assert_eq!(out.completion_time, ttl.min(5) as u64);
        }
        let (out, stats) = flood(&g, 0, 5, &[4], &plan, 0, 7, None);
        assert_eq!(out.first_hit_time, Some(4));
        assert_eq!(out.holders_reached, 1);
        assert_eq!(stats.ticks, out.completion_time);
    }

    #[test]
    fn unit_latency_flood_matches_census_on_er_graph() {
        let g = crate::topology::erdos_renyi(300, 5.0, 3).graph;
        let plan = FaultPlan::none(300);
        let mut engine = FloodEngine::new(300);
        let holders = [50u32, 200u32];
        let census = engine
            .run(&g, 7, &holders, None, &FloodSpec::new(6), &mut NoopRecorder)
            .0;
        // One reused engine: the arena reset must leave no trace.
        let mut events = EventEngine::new();
        for ttl in 0..=6 {
            let (out, _, _) = events.flood(
                &g,
                7,
                ttl,
                &holders,
                None,
                at(&plan, 0, 1),
                None,
                None,
                &mut NoopRecorder,
            );
            assert_eq!(out.flood, census.at(ttl), "ttl {ttl}");
        }
    }

    #[test]
    fn latency_stretches_first_hit_time_beyond_hop_count() {
        let g = path(5);
        let plan = FaultPlan::build(
            5,
            &FaultConfig {
                mean_latency: 8,
                ..Default::default()
            },
        );
        let (out, _) = flood(&g, 0, 4, &[4], &plan, 0, 2, None);
        assert!(out.flood.found);
        let hit = out.first_hit_time.expect("path flood must hit");
        assert!(
            hit > 4,
            "mean latency 8 must stretch 4 hops past 4 ticks (got {hit})"
        );
        assert!(out.completion_time >= hit);
    }

    #[test]
    fn cutoff_truncates_and_reports_partial_coverage() {
        let g = path(10);
        let plan = FaultPlan::none(10);
        let (full, _) = flood(&g, 0, 9, &[9], &plan, 0, 3, None);
        assert!(full.flood.found);
        let (cut, _) = flood(&g, 0, 9, &[9], &plan, 0, 3, Some(4));
        assert!(cut.truncated);
        assert!(!cut.flood.found);
        assert_eq!(cut.completion_time, 4);
        // Reached exactly the 4-tick ball: nodes 0..=4.
        assert_eq!(cut.flood.reached, 5);
        assert!(cut.flood.reached < full.flood.reached);
    }

    #[test]
    fn event_flood_is_deterministic_under_faults() {
        let g = crate::topology::erdos_renyi(200, 6.0, 11).graph;
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.2,
                churn: 0.1,
                horizon: 64,
                mean_latency: 4,
                ..Default::default()
            },
        );
        let run = || flood(&g, 3, 5, &[150], &plan, 9, 42, Some(40));
        assert_eq!(run(), run());
    }

    #[test]
    fn dead_flood_source_sends_nothing() {
        let g = path(4);
        let plan = FaultPlan::build(
            4,
            &FaultConfig {
                churn: 1.0,
                horizon: 2,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..2u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let (out, stats) = flood(&g, 0, 3, &[3], &plan, t, 0, None);
        assert_eq!(out.flood.messages, 0);
        assert_eq!(out.flood.reached, 0);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn event_walk_on_path_marches_forward_in_time() {
        let g = path(5);
        let plan = FaultPlan::none(5);
        let (out, _) = walk(&g, 0, 1, 10, &[4], 2, &plan, 0, None);
        assert!(out.walk.found);
        assert_eq!(out.walk.found_at_step, Some(4));
        // Unit latency: time equals steps.
        assert_eq!(out.first_hit_time, Some(4));
        assert_eq!(out.walk.messages, 4);
    }

    #[test]
    fn event_walk_source_holder_is_instant() {
        let g = path(5);
        let plan = FaultPlan::none(5);
        let (out, _) = walk(&g, 2, 4, 10, &[2], 1, &plan, 0, None);
        assert_eq!(out.first_hit_time, Some(0));
        assert_eq!(out.walk.messages, 0);
        assert_eq!(out.walk.visited, 1);
    }

    #[test]
    fn event_walk_cutoff_truncates() {
        let g = path(50);
        let plan = FaultPlan::none(50);
        let (out, _) = walk(&g, 0, 1, 40, &[49], 3, &plan, 0, Some(5));
        assert!(out.truncated);
        assert!(!out.walk.found);
        assert_eq!(out.completion_time, 5);
        assert!(out.walk.messages <= 6);
    }

    #[test]
    fn event_walk_is_deterministic_and_walker_streams_are_independent() {
        let g = crate::topology::erdos_renyi(200, 6.0, 13).graph;
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.15,
                mean_latency: 3,
                ..Default::default()
            },
        );
        let run = |k: usize| walk(&g, 5, k, 30, &[160], 0xabc, &plan, 0, Some(100));
        assert_eq!(run(8), run(8));
        // Walker w's stream does not depend on how many walkers run:
        // k=1 outcome is reproducible inside the k=8 run's first stream.
        let (one, _) = walk(&g, 5, 1, 30, &[], 0xabc, &plan, 0, None);
        let (eight, _) = walk(&g, 5, 8, 30, &[], 0xabc, &plan, 0, None);
        assert!(eight.walk.messages >= one.walk.messages);
    }

    #[test]
    fn engine_reuse_is_bitwise_stable_and_reset_retains_capacity() {
        let g = crate::topology::erdos_renyi(150, 5.0, 17).graph;
        let plan = FaultPlan::none(150);
        let cap = CapacityPlan::build(&qcp_faults::CapacityConfig {
            offered_load: 8.0,
            queue_bound: 4,
            policy: qcp_faults::ShedPolicy::DropOldest,
            model: qcp_faults::CapacityModel::Uniform,
            seed: 0xbeef,
        });
        let mut eng = EventEngine::new();
        let run = |eng: &mut EventEngine| {
            eng.flood(
                &g,
                2,
                4,
                &[100],
                None,
                at(&plan, 0, 5),
                Some(&cap),
                Some(300),
                &mut NoopRecorder,
            )
        };
        let first = run(&mut eng);
        let heap_cap = eng.arena.cal.capacity();
        // Ten reuses of the same engine reproduce the first run and
        // never grow the calendar: the arena discipline.
        for _ in 0..10 {
            assert_eq!(first, run(&mut eng));
            assert_eq!(eng.arena.cal.capacity(), heap_cap);
        }
    }

    #[test]
    fn dead_walk_source_issues_no_walkers() {
        let g = path(5);
        let plan = FaultPlan::build(
            5,
            &FaultConfig {
                churn: 1.0,
                horizon: 2,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..2u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let (out, _) = walk(&g, 0, 4, 10, &[4], 0, &plan, t, None);
        assert!(!out.walk.found);
        assert_eq!(out.walk.messages, 0);
    }

    /// The arrival-time flood: all `Delivery` defaults, so each message
    /// enters the calendar and its fault checks run at pop. The oracle
    /// for [`Direct`]'s send-time settlement.
    struct ArrivalTime;

    impl Delivery for ArrivalTime {}

    /// One flood's outcome, fault stats and recorder state.
    type Pair = (EventFloodOutcome, FaultStats, MetricsRecorder);

    /// Runs one query on `engine` down both paths:
    /// `(direct, arrival-time)`.
    #[allow(clippy::too_many_arguments)]
    fn both_paths(
        engine: &mut EventEngine,
        g: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        faults: FloodFaults<'_>,
        cutoff: Option<u64>,
    ) -> (Pair, Pair) {
        let mut rec = MetricsRecorder::new();
        let (out, stats, over) = engine.flood(
            g, source, ttl, holders, forwarders, faults, None, cutoff, &mut rec,
        );
        assert_eq!(over, OverloadOutcome::default());
        let q = Query {
            graph: g,
            source,
            ttl,
            holders,
            faults,
            cutoff,
        };
        let mut oracle_rec = MetricsRecorder::new();
        let (o_out, o_stats, o_over) =
            engine
                .arena
                .flood(&q, forwarders, &mut ArrivalTime, &mut oracle_rec);
        assert_eq!(o_over, OverloadOutcome::default());
        ((out, stats, rec), (o_out, o_stats, oracle_rec))
    }

    /// A leaf holder and a forwarding holder first reached on the same
    /// tick: the hit is the arrival with the smaller `(time, tie)`, in
    /// either role. Node 0 sends message 1 to node 1 and message 2 to
    /// node 2, which sends message 3 back to 0 and message 4 to node 3;
    /// latencies are chosen so messages 1 and 4 land on one tick.
    #[test]
    fn same_tick_leaf_and_forwarder_holders_merge_on_time_then_tie() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let plan = (0u64..)
            .map(|seed| {
                FaultPlan::build(
                    4,
                    &FaultConfig {
                        loss: 0.0,
                        churn: 0.0,
                        mean_latency: 4,
                        seed,
                        ..Default::default()
                    },
                )
            })
            .find(|p| p.latency(0, 1) == p.latency(0, 2) + p.latency(2, 3))
            .expect("some seed lines the two holders up on one tick");
        let tick = plan.latency(0, 1);
        let hop = if tie_break(1) < tie_break(4) { 1 } else { 2 };
        let mut engine = EventEngine::new();
        // Node 1 forwards and node 3 is a leaf, then the other way round:
        // one of the two runs has the leaf win and the other the
        // forwarder.
        for mask in [[true, true, true, false], [true, false, true, true]] {
            let ((out, stats, rec), oracle) = both_paths(
                &mut engine,
                &g,
                0,
                3,
                &[1, 3],
                Some(&mask),
                at(&plan, 0, 0),
                None,
            );
            assert_eq!(out.first_hit_time, Some(tick), "mask {mask:?}");
            assert_eq!(out.flood.found_at_hop, Some(hop), "mask {mask:?}");
            assert_eq!(out.holders_reached, 2);
            assert_eq!((out, stats, rec), oracle, "mask {mask:?}");
        }
    }

    std::thread_local! {
        /// The proptest's one engine, reused across every case.
        static ORACLE_ENGINE: std::cell::RefCell<EventEngine> =
            std::cell::RefCell::new(EventEngine::new());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Send-time settlement is bitwise the arrival-time flood: every
        /// outcome field, the fault stats and the recorder state, over
        /// two-tier and ER graphs with and without a forwarder mask,
        /// lossy and churned plans, cutoffs and holder sets.
        #[test]
        fn settling_at_send_matches_the_arrival_time_flood(
            graph_kind in 0u8..4,
            n in 12usize..160,
            loss_pct in 0u32..40,
            churn_pct in 0u32..40,
            mean_latency in 1u32..=8,
            cutoff_kind in 0u8..3,
            ttl in 0u32..=6,
            holder_kind in 0u8..4,
            seed in proptest::prelude::any::<u64>()
        ) {
            let (g, mask) = match graph_kind {
                0 | 1 => {
                    let topo = crate::topology::gnutella_two_tier(
                        &crate::topology::TopologyConfig {
                            num_nodes: n,
                            ultrapeer_fraction: 0.15,
                            ultra_mesh_degree: 3 + (seed % 6) as usize,
                            leaf_degree: 1 + (seed % 3) as usize,
                            seed,
                        },
                    );
                    let mask = topo.forwarders();
                    (topo.graph, (graph_kind == 0).then_some(mask))
                }
                _ => {
                    let g = crate::topology::erdos_renyi(n, 2.0 + (seed % 5) as f64, seed).graph;
                    let mask = (0..n as u64).map(|v| !qcp_util::hash::mix64(seed ^ v).is_multiple_of(3));
                    (g, (graph_kind == 3).then(|| mask.collect::<Vec<bool>>()))
                }
            };
            let plan = FaultPlan::build(
                n,
                &FaultConfig {
                    loss: f64::from(loss_pct) / 100.0,
                    churn: f64::from(churn_pct) / 100.0,
                    horizon: 16,
                    mean_latency,
                    rejoin: true,
                    seed: seed.rotate_left(17),
                },
            );
            let m = u64::from(mean_latency);
            let leaf = |v: u32| mask.as_ref().is_some_and(|f| !f[v as usize]);
            // Sixteen queries per world, each with its own source, tick,
            // nonce, cutoff and holders.
            for i in 0..16 {
                let r = qcp_util::hash::mix64(seed ^ i);
                let source = (r % n as u64) as u32;
                let cutoff = match cutoff_kind {
                    0 => None,
                    1 => Some(1 + r % (2 * m)),
                    _ => Some(m * u64::from(ttl.max(1)) + r % (2 * m)),
                };
                // Holder density 1, 1/2, 1/4 or 1/8.
                let sparsity = 1 << ((r >> 8) % 4);
                let pick = |v: u32| qcp_util::hash::mix64(r ^ u64::from(v)).is_multiple_of(sparsity);
                let holders: Vec<u32> = match holder_kind {
                    0 => Vec::new(),
                    1 => vec![source],
                    2 => (0..n as u32).filter(|&v| leaf(v) && pick(v)).collect(),
                    _ => (0..n as u32).filter(|&v| pick(v)).collect(),
                };
                let (direct, oracle) = ORACLE_ENGINE.with_borrow_mut(|engine| {
                    both_paths(
                        engine,
                        &g,
                        source,
                        ttl,
                        &holders,
                        mask.as_deref(),
                        at(&plan, r % 16, r >> 32),
                        cutoff,
                    )
                });
                proptest::prop_assert_eq!(direct, oracle, "query {}", i);
            }
        }
    }
}
