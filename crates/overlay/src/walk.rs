//! k-walker random walks (Lv et al. / the paper's ref \[4\] style).
//!
//! Random walks are the classic low-overhead alternative to flooding:
//! `k` walkers each take up to `ttl` steps, preferring not to backtrack.
//! Message cost is the number of steps taken, not exponential in TTL.
//!
//! [`random_walk_search`] is one kernel for the fault-free and the faulty
//! walk: it matches on its `Option<FloodFaults>` once per query and runs
//! a body monomorphized over the fault model, so the fault-free walk
//! performs no fault checks and records no fault counters.

use crate::flood::{Faults, FloodFaults, NoFaults};
use crate::graph::Graph;
use qcp_faults::FaultStats;
use qcp_obs::{Counter, Event, Kernel, Recorder};
use qcp_util::rng::Pcg64;

/// Result of one k-walker search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkOutcome {
    /// Whether any walker hit a holder.
    pub found: bool,
    /// Steps taken by the first successful walker.
    pub found_at_step: Option<u32>,
    /// Total messages (steps across all walkers).
    pub messages: u64,
    /// Distinct peers visited across all walkers.
    pub visited: u32,
}

/// The walkers' neighbor pick, shared by the synchronous and the
/// calendar walk, so both consume the RNG identically: prefer a
/// neighbor other than `previous`, re-drawing at most four times.
/// `neighbors` must be non-empty.
pub(crate) fn pick_next(neighbors: &[u32], previous: u32, rng: &mut Pcg64) -> u32 {
    if neighbors.len() == 1 {
        return neighbors[0];
    }
    let mut pick = neighbors[rng.index(neighbors.len())];
    let mut tries = 0;
    while pick == previous && tries < 4 {
        pick = neighbors[rng.index(neighbors.len())];
        tries += 1;
    }
    pick
}

/// Runs `k` random walkers of `ttl` steps each from `source`.
///
/// Walkers avoid immediately stepping back to the node they came from
/// (unless it is the only neighbor). All walkers run to completion or
/// until their own success; the search succeeds if any walker found a
/// holder. `holders` must be sorted.
///
/// Under `faults`, every step consults the plan: a step toward a node
/// that is down at the query's tick wastes the message and strands the
/// walker in place for that step; an in-flight drop does the same. Walks
/// are fire-and-forget: no retries. A dead source issues nothing. Fault
/// draws never touch `rng`, so under [`qcp_faults::FaultPlan::none`]
/// the walk is the fault-free walk, RNG stream included.
///
/// The recorder is write-only: outcomes are bitwise identical for any
/// recorder (pinned by the recorder-parity proptests).
#[allow(clippy::too_many_arguments)] // the walk + fault context + recorder
pub fn random_walk_search<R: Recorder>(
    graph: &Graph,
    source: u32,
    k: usize,
    ttl: u32,
    holders: &[u32],
    rng: &mut Pcg64,
    faults: Option<FloodFaults<'_>>,
    rec: &mut R,
) -> (WalkOutcome, FaultStats) {
    match faults {
        None => walk_core(graph, source, k, ttl, holders, rng, NoFaults, rec),
        Some(f) => walk_core(graph, source, k, ttl, holders, rng, f, rec),
    }
}

#[allow(clippy::too_many_arguments)] // internal core behind `random_walk_search`
fn walk_core<F: Faults, R: Recorder>(
    graph: &Graph,
    source: u32,
    k: usize,
    ttl: u32,
    holders: &[u32],
    rng: &mut Pcg64,
    faults: F,
    rec: &mut R,
) -> (WalkOutcome, FaultStats) {
    debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
    rec.rec_span(Kernel::Walk);
    let mut stats = FaultStats::default();
    if !faults.alive(source) {
        rec.rec_event(Kernel::Walk, Event::DeadSource);
        let out = WalkOutcome {
            found: false,
            found_at_step: None,
            messages: 0,
            visited: 0,
        };
        return (out, stats);
    }
    if holders.binary_search(&source).is_ok() {
        rec.rec_hop(Kernel::Walk, 0, 1);
        rec.rec_event(Kernel::Walk, Event::Hit);
        let out = WalkOutcome {
            found: true,
            found_at_step: Some(0),
            messages: 0,
            visited: 1,
        };
        return (out, stats);
    }

    let mut messages = 0u64;
    let mut found_at_step: Option<u32> = None;
    let mut visited: Vec<u32> = vec![source];
    for _walker in 0..k {
        let mut current = source;
        let mut previous = u32::MAX;
        for step in 1..=ttl {
            let neighbors = graph.neighbors(current);
            if neighbors.is_empty() {
                break;
            }
            let next = pick_next(neighbors, previous, rng);
            messages += 1;
            if !faults.deliver(current, next, messages, &mut stats) {
                continue;
            }
            previous = current;
            current = next;
            visited.push(current);
            if holders.binary_search(&current).is_ok() {
                found_at_step = Some(found_at_step.map_or(step, |s| s.min(step)));
                break;
            }
        }
    }
    visited.sort_unstable();
    visited.dedup();
    rec.rec_count(Kernel::Walk, Counter::Messages, messages);
    if F::ACTIVE {
        rec.rec_faults(Kernel::Walk, &stats);
    }
    if let Some(step) = found_at_step {
        rec.rec_hop(Kernel::Walk, step, 1);
    }
    rec.rec_event(
        Kernel::Walk,
        if found_at_step.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
    let out = WalkOutcome {
        found: found_at_step.is_some(),
        found_at_step,
        messages,
        visited: visited.len() as u32,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_faults::FaultPlan;
    use qcp_obs::NoopRecorder;

    /// Fault-free, unrecorded walk.
    fn walk(
        g: &Graph,
        src: u32,
        k: usize,
        ttl: u32,
        holders: &[u32],
        rng: &mut Pcg64,
    ) -> WalkOutcome {
        random_walk_search(g, src, k, ttl, holders, rng, None, &mut NoopRecorder).0
    }

    /// Unrecorded walk under `plan` at `time` with drop-stream `nonce`.
    fn faulty_walk(
        g: &Graph,
        src: u32,
        (k, ttl): (usize, u32),
        holders: &[u32],
        rng: &mut Pcg64,
        (plan, time, nonce): (&FaultPlan, u64, u64),
    ) -> (WalkOutcome, FaultStats) {
        let faults = Some(FloodFaults { plan, time, nonce });
        random_walk_search(g, src, k, ttl, holders, rng, faults, &mut NoopRecorder)
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn source_holder_is_instant() {
        let g = path(5);
        let mut rng = Pcg64::new(1);
        let out = walk(&g, 2, 4, 10, &[2], &mut rng);
        assert!(out.found);
        assert_eq!(out.found_at_step, Some(0));
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn walker_on_path_marches_forward() {
        // On a path with no backtracking, a single walker from 0 must
        // reach node 4 in exactly 4 steps.
        let g = path(5);
        let mut rng = Pcg64::new(2);
        let out = walk(&g, 0, 1, 10, &[4], &mut rng);
        assert!(out.found);
        assert_eq!(out.found_at_step, Some(4));
    }

    #[test]
    fn ttl_bounds_messages() {
        let g = path(100);
        let mut rng = Pcg64::new(3);
        let out = walk(&g, 0, 3, 7, &[99], &mut rng);
        assert!(!out.found);
        assert!(out.messages <= 3 * 7);
    }

    #[test]
    fn more_walkers_find_more_often() {
        let g = crate::topology::erdos_renyi(500, 6.0, 4).graph;
        let holders = vec![250u32];
        let trials = 200;
        let mut hits1 = 0;
        let mut hits16 = 0;
        let mut rng = Pcg64::new(5);
        for t in 0..trials {
            let src = (t % 500) as u32;
            if src == 250 {
                continue;
            }
            if walk(&g, src, 1, 30, &holders, &mut rng).found {
                hits1 += 1;
            }
            if walk(&g, src, 16, 30, &holders, &mut rng).found {
                hits16 += 1;
            }
        }
        assert!(
            hits16 > hits1 * 2,
            "16 walkers ({hits16}) should beat 1 walker ({hits1})"
        );
    }

    #[test]
    fn isolated_node_walk_terminates() {
        let g = Graph::from_edges(2, &[]);
        let mut rng = Pcg64::new(6);
        let out = walk(&g, 0, 4, 10, &[1], &mut rng);
        assert!(!out.found);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn visited_counts_distinct_nodes() {
        let g = path(5);
        let mut rng = Pcg64::new(7);
        let out = walk(&g, 0, 8, 10, &[], &mut rng);
        assert!(out.visited <= 5);
        assert!(out.visited >= 2);
    }

    #[test]
    fn faulty_walk_matches_plain_walk_under_none_plan() {
        let g = crate::topology::erdos_renyi(400, 5.0, 8).graph;
        let plan = FaultPlan::none(400);
        for seed in 0..10u64 {
            let mut r1 = Pcg64::new(seed);
            let mut r2 = Pcg64::new(seed);
            let plain = walk(&g, 3, 4, 25, &[111, 222], &mut r1);
            let (faulty, stats) =
                faulty_walk(&g, 3, (4, 25), &[111, 222], &mut r2, (&plan, 0, seed));
            assert_eq!(plain, faulty, "seed {seed}");
            assert_eq!(stats, FaultStats::default());
            // RNG streams stayed in lockstep.
            assert_eq!(r1.next(), r2.next());
        }
    }

    #[test]
    fn faulty_walk_wastes_messages_on_drops() {
        use qcp_faults::FaultConfig;
        let g = crate::topology::erdos_renyi(400, 5.0, 9).graph;
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.5,
                churn: 0.0,
                ..Default::default()
            },
        );
        let mut rng = Pcg64::new(10);
        let (out, stats) = faulty_walk(&g, 0, (8, 30), &[], &mut rng, (&plan, 0, 1));
        assert!(stats.dropped > 0, "50% loss must drop something");
        assert!(stats.wasted() <= out.messages);
        // Stranded walkers visit fewer distinct peers than their budget.
        assert!(out.visited as u64 <= out.messages + 1);
    }

    #[test]
    fn dead_source_issues_no_walkers() {
        use qcp_faults::FaultConfig;
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
        let mut rng = Pcg64::new(11);
        let (out, _) = faulty_walk(&g, 0, (4, 10), &[4], &mut rng, (&plan, t, 0));
        assert!(!out.found);
        assert_eq!(out.messages, 0);
    }
}
