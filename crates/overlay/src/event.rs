//! Event-driven flood and walk kernels on the virtual-time calendar.
//!
//! The synchronous kernels in [`flood`](crate::flood) and
//! [`walk`](crate::walk) advance the whole network one hop at a time —
//! correct for message accounting, blind to *when* messages arrive. The
//! kernels here re-express the same searches on the [`Calendar`] from
//! `qcp-vtime`: every transmission is a `Deliver` event scheduled at
//! `now + plan.latency(u, v)`, and fault checks (churn liveness, Bernoulli
//! drops) run when the message *arrives*, not when it is sent. Both
//! kernels take their [`Recorder`] directly (pass
//! [`qcp_obs::NoopRecorder`] for an unrecorded run); the recorder is
//! write-only, so outcomes never depend on it.
//!
//! # Accounting contract
//!
//! * **Messages are counted at send time.** The running counter doubles
//!   as the message index in the plan's drop stream (exactly as the
//!   synchronous kernels use it), and a send scheduled before a deadline
//!   cutoff is paid for even if the cutoff lands before its delivery.
//! * **Churn is frozen within a query.** `plan.alive_at(node, time)`
//!   keys on the workload tick `time`, which does not advance during a
//!   single query; checking liveness at delivery therefore matches the
//!   synchronous kernels' send-time check node for node.
//! * **`FaultStats::ticks` carries the completion time** (the last
//!   delivery processed, or the cutoff when truncated) — the virtual
//!   elapsed time of the query.
//!
//! # Bitwise equivalence with the hop census
//!
//! Under a unit-latency, fault-free plan every send scheduled at virtual
//! time `t` delivers at `t + 1`, so deliveries drain in exact BFS level
//! order and a node is first marked at its hop distance. The
//! per-delivery tie-break order *within* a level differs from the
//! census's frontier scan order, but every aggregate the outcome exposes
//! — `reached`, `messages`, the first-hit hop — is level-cumulative and
//! therefore order-independent inside a level. [`event_flood`] with
//! `FaultPlan::none` and `max_ttl = t` is thus bit-identical to the hop
//! census's `.at(t)` (pinned by the proptests in
//! `tests/event_flood.rs` and at 40k-node scale in
//! `tests/determinism.rs`).

use crate::flood::FloodOutcome;
use crate::graph::Graph;
use crate::walk::{pick_next, WalkOutcome};
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::rng::Pcg64;
use qcp_vtime::{tie_break, Calendar};

/// Outcome of one event-driven flood: the synchronous [`FloodOutcome`]
/// quadruple plus the virtual-time facts the calendar adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One in-flight query message. Ordered fields are never consulted by
/// the calendar (the `(time, tie, seq)` key is a strict total order);
/// the derive only satisfies the `E: Ord` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Deliver {
    from: u32,
    to: u32,
    /// Hop index at which this message arrives (sender's hop + 1).
    hop: u32,
    /// 1-based index in the plan's drop stream (assigned at send).
    msg: u64,
}

/// Schedules one send round: `u` (just marked, at `cal.now()`) forwards
/// to every neighbor, each message delivering after its link latency.
fn flood_send_round(
    cal: &mut Calendar<Deliver>,
    graph: &Graph,
    plan: &FaultPlan,
    u: u32,
    hop: u32,
    messages: &mut u64,
) {
    for &v in graph.neighbors(u) {
        *messages += 1;
        let msg = *messages;
        cal.schedule_after(
            plan.latency(u, v),
            tie_break(msg),
            Deliver {
                from: u,
                to: v,
                hop,
                msg,
            },
        );
    }
}

/// Event-driven TTL-limited flood. See the module docs for the
/// accounting contract and the census-equivalence argument.
///
/// * `cutoff` — optional virtual-time deadline: events past it are not
///   delivered and the outcome reports `truncated = true`;
/// * other parameters mirror [`FloodEngine::flood_reference`] with its
///   fault context spelled out (`holders` sorted, `forwarders` mask with
///   the source always forwarding, `nonce` the query's position in the
///   drop stream);
/// * `rec` — write-only instrumentation: outcomes and stats are
///   bit-identical for any recorder.
///
/// [`FloodEngine::flood_reference`]: crate::FloodEngine::flood_reference
#[allow(clippy::too_many_arguments)] // the flood + fault context, cutoff and recorder
pub fn event_flood<R: Recorder>(
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
    rec: &mut R,
) -> (EventFloodOutcome, FaultStats) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Flood);
    let mut stats = FaultStats::default();
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
        );
    }
    let mut cal: Calendar<Deliver> = Calendar::new();
    let mut marked = vec![false; graph.num_nodes()];
    let mut reached = 1u32;
    let mut messages = 0u64;
    let mut found_at_hop = None;
    let mut first_hit_time = None;
    let mut holders_reached = 0u32;
    marked[source as usize] = true;
    if holders.binary_search(&source).is_ok() {
        found_at_hop = Some(0);
        first_hit_time = Some(0);
        holders_reached = 1;
    }
    if max_ttl > 0 {
        flood_send_round(&mut cal, graph, plan, source, 1, &mut messages);
    }
    let mut truncated = false;
    while let Some(t) = cal.peek_time() {
        if cutoff.is_some_and(|c| t > c) {
            truncated = true;
            break;
        }
        // qcplint: allow(panic) — peek_time returned Some on this
        // single-threaded calendar, so an event is pending.
        let (t, d) = cal.pop().expect("peeked event vanished");
        if !plan.alive_at(d.to, time) {
            stats.dead_targets += 1;
            continue;
        }
        if plan.drop_message(d.from, d.to, nonce, d.msg) {
            stats.dropped += 1;
            continue;
        }
        if marked[d.to as usize] {
            continue;
        }
        marked[d.to as usize] = true;
        reached += 1;
        if holders.binary_search(&d.to).is_ok() {
            holders_reached += 1;
            if found_at_hop.is_none() {
                found_at_hop = Some(d.hop);
                first_hit_time = Some(t);
            }
        }
        // Only forwarders expand (the source never re-arrives fresh).
        let forwards = forwarders.is_none_or(|m| m[d.to as usize]);
        if d.hop < max_ttl && forwards {
            flood_send_round(&mut cal, graph, plan, d.to, d.hop + 1, &mut messages);
        }
    }
    let completion_time = match cutoff {
        Some(c) if truncated => c,
        _ => cal.now(),
    };
    stats.ticks = completion_time;
    rec.rec_count(Kernel::Flood, Counter::Messages, messages);
    rec.rec_faults(Kernel::Flood, &stats);
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
    )
}

/// One walker step in flight. The `(walker, step)` pair is the event
/// identity: a walker has at most one pending event, and stranded steps
/// still consume a step number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Step {
    walker: u32,
    step: u32,
    from: u32,
    to: u32,
    msg: u64,
}

struct Walker {
    rng: Pcg64,
    current: u32,
    previous: u32,
}

/// Calendar tie-break of walker `walker`'s step `step`, shared with the
/// capacity-aware walk so both order simultaneous steps identically.
pub(crate) fn step_tie(walker: u32, step: u32) -> u64 {
    tie_break(((walker as u64) << 32) | step as u64)
}

/// Event-driven k-walker random walk. Each walker draws from its own
/// `Pcg64::with_stream(seed, walker)` stream, and every draw happens in
/// the walker's own event chain — a walker has at most one in-flight
/// event — so interleaving across walkers cannot perturb any stream.
///
/// Fault semantics mirror [`random_walk_search`]'s: a dead target or
/// in-flight drop wastes the message and strands the walker in place for
/// that step; walks never retry. `cutoff` truncates and `rec` records as
/// in [`event_flood`].
///
/// [`random_walk_search`]: crate::walk::random_walk_search
#[allow(clippy::too_many_arguments)] // the walk + fault context, cutoff and recorder
pub fn event_walk<R: Recorder>(
    graph: &Graph,
    source: u32,
    k: usize,
    ttl: u32,
    holders: &[u32],
    seed: u64,
    plan: &FaultPlan,
    time: u64,
    nonce: u64,
    cutoff: Option<u64>,
    rec: &mut R,
) -> (EventWalkOutcome, FaultStats) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Walk);
    let mut stats = FaultStats::default();
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
        );
    }
    let mut cal: Calendar<Step> = Calendar::new();
    let mut messages = 0u64;
    let mut visited: Vec<u32> = vec![source];
    let mut found_at_step: Option<u32> = None;
    let mut first_hit_time: Option<u64> = None;
    let mut walkers: Vec<Walker> = Vec::with_capacity(k);
    for w in 0..k {
        let mut walker = Walker {
            rng: Pcg64::with_stream(seed, w as u64),
            current: source,
            previous: u32::MAX,
        };
        let neighbors = graph.neighbors(source);
        if ttl > 0 && !neighbors.is_empty() {
            let next = pick_next(neighbors, walker.previous, &mut walker.rng);
            messages += 1;
            cal.schedule_after(
                plan.latency(source, next),
                step_tie(w as u32, 1),
                Step {
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
    while let Some(t) = cal.peek_time() {
        if cutoff.is_some_and(|c| t > c) {
            truncated = true;
            break;
        }
        // qcplint: allow(panic) — peek_time returned Some on this
        // single-threaded calendar, so an event is pending.
        let (t, s) = cal.pop().expect("peeked event vanished");
        let walker = &mut walkers[s.walker as usize];
        if !plan.alive_at(s.to, time) {
            // Message to a departed peer: wasted; walker stays put.
            stats.dead_targets += 1;
        } else if plan.drop_message(s.from, s.to, nonce, s.msg) {
            stats.dropped += 1;
        } else {
            walker.previous = s.from;
            walker.current = s.to;
            visited.push(s.to);
            if holders.binary_search(&s.to).is_ok() {
                if found_at_step.is_none() {
                    found_at_step = Some(s.step);
                    first_hit_time = Some(t);
                }
                continue; // this walker stops on its own success
            }
        }
        if s.step < ttl {
            let neighbors = graph.neighbors(walker.current);
            if !neighbors.is_empty() {
                let next = pick_next(neighbors, walker.previous, &mut walker.rng);
                messages += 1;
                cal.schedule_after(
                    plan.latency(walker.current, next),
                    step_tie(s.walker, s.step + 1),
                    Step {
                        walker: s.walker,
                        step: s.step + 1,
                        from: walker.current,
                        to: next,
                        msg: messages,
                    },
                );
            }
        }
    }
    visited.sort_unstable();
    visited.dedup();
    let completion_time = match cutoff {
        Some(c) if truncated => c,
        _ => cal.now(),
    };
    stats.ticks = completion_time;
    rec.rec_count(Kernel::Walk, Counter::Messages, messages);
    rec.rec_faults(Kernel::Walk, &stats);
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
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::{FloodEngine, FloodSpec};
    use qcp_faults::FaultConfig;
    use qcp_obs::NoopRecorder;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
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
            let (out, _) =
                event_flood(&g, 0, ttl, &[4], None, &plan, 0, 7, None, &mut NoopRecorder);
            assert_eq!(out.flood, census.at(ttl), "ttl {ttl}");
            assert!(!out.truncated);
            // Unit latency: completion is the deepest delivered hop.
            assert_eq!(out.completion_time, ttl.min(5) as u64);
        }
        let (out, stats) = event_flood(&g, 0, 5, &[4], None, &plan, 0, 7, None, &mut NoopRecorder);
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
        for ttl in 0..=6 {
            let (out, _) = event_flood(
                &g,
                7,
                ttl,
                &holders,
                None,
                &plan,
                0,
                1,
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
        let (out, _) = event_flood(&g, 0, 4, &[4], None, &plan, 0, 2, None, &mut NoopRecorder);
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
        let (full, _) = event_flood(&g, 0, 9, &[9], None, &plan, 0, 3, None, &mut NoopRecorder);
        assert!(full.flood.found);
        let (cut, _) = event_flood(
            &g,
            0,
            9,
            &[9],
            None,
            &plan,
            0,
            3,
            Some(4),
            &mut NoopRecorder,
        );
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
        let run = || {
            event_flood(
                &g,
                3,
                5,
                &[150],
                None,
                &plan,
                9,
                42,
                Some(40),
                &mut NoopRecorder,
            )
        };
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
        let (out, stats) = event_flood(&g, 0, 3, &[3], None, &plan, t, 0, None, &mut NoopRecorder);
        assert_eq!(out.flood.messages, 0);
        assert_eq!(out.flood.reached, 0);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn event_walk_on_path_marches_forward_in_time() {
        let g = path(5);
        let plan = FaultPlan::none(5);
        let (out, _) = event_walk(&g, 0, 1, 10, &[4], 2, &plan, 0, 0, None, &mut NoopRecorder);
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
        let (out, _) = event_walk(&g, 2, 4, 10, &[2], 1, &plan, 0, 0, None, &mut NoopRecorder);
        assert_eq!(out.first_hit_time, Some(0));
        assert_eq!(out.walk.messages, 0);
        assert_eq!(out.walk.visited, 1);
    }

    #[test]
    fn event_walk_cutoff_truncates() {
        let g = path(50);
        let plan = FaultPlan::none(50);
        let (out, _) = event_walk(
            &g,
            0,
            1,
            40,
            &[49],
            3,
            &plan,
            0,
            0,
            Some(5),
            &mut NoopRecorder,
        );
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
        let run = |k: usize| {
            event_walk(
                &g,
                5,
                k,
                30,
                &[160],
                0xabc,
                &plan,
                0,
                9,
                Some(100),
                &mut NoopRecorder,
            )
        };
        assert_eq!(run(8), run(8));
        // Walker w's stream does not depend on how many walkers run:
        // k=1 outcome is reproducible inside the k=8 run's first stream.
        let (one, _) = event_walk(
            &g,
            5,
            1,
            30,
            &[],
            0xabc,
            &plan,
            0,
            9,
            None,
            &mut NoopRecorder,
        );
        let (eight, _) = event_walk(
            &g,
            5,
            8,
            30,
            &[],
            0xabc,
            &plan,
            0,
            9,
            None,
            &mut NoopRecorder,
        );
        assert!(eight.walk.messages >= one.walk.messages);
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
        let (out, _) = event_walk(&g, 0, 4, 10, &[4], 0, &plan, t, 0, None, &mut NoopRecorder);
        assert!(!out.walk.found);
        assert_eq!(out.walk.messages, 0);
    }
}
