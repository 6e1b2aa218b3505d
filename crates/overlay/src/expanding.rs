//! Expanding-ring (iterative deepening) search.
//!
//! Floods with TTL 1, then TTL 2, … up to `max_ttl`, stopping at the first
//! success. Cheaper than a full flood for nearby content, more expensive
//! for distant content (early rings are re-covered) — the standard
//! trade-off the hybrid designs in §V try to exploit.
//!
//! # One schedule, two ring sources
//!
//! [`expanding_ring_search`] folds one ring schedule over a per-ring flood
//! outcome, and branches once per query on where the rings come from:
//!
//! * **Fault-free: one census.** A TTL-`t` flood is a prefix of the
//!   TTL-`max` flood, so every ring's `(reached, messages)` is a prefix
//!   snapshot ([`CensusOutcome::at`]) of **one** pruned census that stops
//!   at the first level containing a holder — one BFS instead of `r*`
//!   overlapping ones, bitwise-identical to flooding each ring (pinned
//!   by the `matches_naive_*` tests against the per-ring oracle). The
//!   census records under [`Kernel::Flood`].
//! * **Faulty: one census per ring.** Each ring is an independent
//!   transmission with its own drop nonce (`mix64(nonce ^ ttl)`), so ring
//!   `t+1` re-draws every edge rather than extending ring `t`'s draws.
//!   That asymmetry is deliberate — iterative deepening doubles as coarse
//!   retry under loss. The per-ring floods are not recorded under
//!   [`Kernel::Flood`]; their fault counters are summed under
//!   [`Kernel::ExpandingRing`].
//!
//! [`CensusOutcome::at`]: crate::flood::CensusOutcome::at

use crate::flood::{CensusBuf, FloodEngine, FloodFaults, FloodOutcome, FloodSpec};
use crate::graph::Graph;
use qcp_faults::FaultStats;
use qcp_obs::{Counter, Event, Kernel, NoopRecorder, Recorder};
use qcp_util::hash::mix64;

/// Result of an expanding-ring search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandingOutcome {
    /// Whether any ring found the object.
    pub found: bool,
    /// TTL of the successful ring.
    pub found_at_ttl: Option<u32>,
    /// Total messages across every ring attempted.
    pub messages: u64,
    /// Peers reached by the final (successful or last) ring.
    pub final_reach: u32,
    /// Number of rings attempted (TTL-1 through the final ring).
    pub rings: u32,
}

/// Folds the iterative-deepening schedule over `ring(ttl)`, the outcome
/// and fault counters of a standalone TTL-`ttl` flood: ring costs add up,
/// and the schedule stops at the first successful ring or once a ring
/// covers the whole graph.
fn schedule(
    max_ttl: u32,
    num_nodes: u32,
    mut ring: impl FnMut(u32) -> (FloodOutcome, FaultStats),
) -> (ExpandingOutcome, FaultStats) {
    let mut out = ExpandingOutcome {
        found: false,
        found_at_ttl: None,
        messages: 0,
        final_reach: 1,
        rings: 0,
    };
    let mut stats = FaultStats::default();
    for ttl in 1..=max_ttl {
        let (flood, ring_stats) = ring(ttl);
        stats.absorb(&ring_stats);
        out.messages += flood.messages;
        out.rings += 1;
        out.final_reach = flood.reached;
        if flood.found {
            out.found = true;
            out.found_at_ttl = Some(ttl);
            break;
        }
        // If the ring covers the whole network, deeper rings are futile.
        if ttl > 1 && flood.reached == num_nodes {
            break;
        }
    }
    (out, stats)
}

/// Runs the expanding-ring search from `source` with rings of TTL 1
/// through `max_ttl` (`holders` sorted, `forwarders` as in
/// [`FloodEngine::run`]). `faults` selects the ring source described in
/// the module docs; under `Some`, each ring floods at the query's tick
/// with its own drop nonce, and the returned [`FaultStats`] sum every
/// ring's counters.
///
/// The ring schedule records under [`Kernel::ExpandingRing`]; the
/// recorder is write-only, so outcomes are recorder-independent.
#[allow(clippy::too_many_arguments)] // the search + fault context + recorder
pub fn expanding_ring_search<R: Recorder>(
    engine: &mut FloodEngine,
    graph: &Graph,
    source: u32,
    max_ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    faults: Option<FloodFaults<'_>>,
    rec: &mut R,
) -> (ExpandingOutcome, FaultStats) {
    rec.rec_span(Kernel::ExpandingRing);
    let num_nodes = graph.num_nodes() as u32;
    let mut buf = CensusBuf::default();
    let (out, stats) = match faults {
        None => {
            let spec = FloodSpec::new(max_ttl).pruned();
            engine.run_into(graph, source, holders, forwarders, &spec, rec, &mut buf);
            schedule(max_ttl, num_nodes, |ttl| {
                (buf.census.at(ttl), FaultStats::default())
            })
        }
        Some(FloodFaults { plan, time, nonce }) => schedule(max_ttl, num_nodes, |ttl| {
            let spec = FloodSpec::new(ttl).faulty(plan, time, mix64(nonce ^ ttl as u64));
            engine.run_into(
                graph,
                source,
                holders,
                forwarders,
                &spec,
                &mut NoopRecorder,
                &mut buf,
            );
            let level = ttl.min(buf.census.levels()) as usize;
            (buf.census.at(ttl), buf.stats[level])
        }),
    };
    rec.rec_count(Kernel::ExpandingRing, Counter::Messages, out.messages);
    rec.rec_count(Kernel::ExpandingRing, Counter::Rings, out.rings as u64);
    if let Some(ttl) = out.found_at_ttl {
        rec.rec_hop(Kernel::ExpandingRing, ttl, 1);
    }
    rec.rec_event(
        Kernel::ExpandingRing,
        if out.found { Event::Hit } else { Event::Miss },
    );
    if faults.is_some() {
        rec.rec_faults(Kernel::ExpandingRing, &stats);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_faults::{FaultConfig, FaultPlan};

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    /// The pre-census oracle: literally flood every ring from scratch
    /// (each faulty ring with its own drop nonce).
    fn naive_expanding_ring(
        engine: &mut FloodEngine,
        graph: &Graph,
        source: u32,
        (max_ttl, holders): (u32, &[u32]),
        forwarders: Option<&[bool]>,
        faults: Option<FloodFaults<'_>>,
    ) -> (ExpandingOutcome, FaultStats) {
        schedule(max_ttl, graph.num_nodes() as u32, |ttl| {
            let ring_faults = faults.map(|f| FloodFaults {
                nonce: mix64(f.nonce ^ ttl as u64),
                ..f
            });
            engine.flood_reference(graph, source, ttl, holders, forwarders, ring_faults)
        })
    }

    fn faults(plan: &FaultPlan, nonce: u64) -> Option<FloodFaults<'_>> {
        Some(FloodFaults {
            plan,
            time: 0,
            nonce,
        })
    }

    /// Fault-free, unrecorded search.
    fn ring(
        engine: &mut FloodEngine,
        graph: &Graph,
        source: u32,
        max_ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
    ) -> ExpandingOutcome {
        let rec = &mut NoopRecorder;
        expanding_ring_search(
            engine, graph, source, max_ttl, holders, forwarders, None, rec,
        )
        .0
    }

    #[test]
    fn stops_at_first_successful_ring() {
        let g = path(10);
        let mut e = FloodEngine::new(10);
        let out = ring(&mut e, &g, 0, 9, &[3], None);
        assert!(out.found);
        assert_eq!(out.found_at_ttl, Some(3));
        assert_eq!(out.rings, 3);
    }

    #[test]
    fn nearby_object_is_cheap_far_object_is_expensive() {
        let g = path(20);
        let mut e = FloodEngine::new(20);
        let near = ring(&mut e, &g, 0, 19, &[1], None);
        let far = ring(&mut e, &g, 0, 19, &[15], None);
        assert!(near.found && far.found);
        assert!(near.messages < far.messages / 4);
    }

    #[test]
    fn miss_reports_total_cost() {
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 0, 2, &[4], None);
        assert!(!out.found);
        assert!(out.messages > 0);
        assert_eq!(out.found_at_ttl, None);
        assert_eq!(out.rings, 2);
    }

    #[test]
    fn matches_naive_per_ring_floods_on_random_graphs() {
        // The census-backed search must be bitwise-identical to flooding
        // every ring from scratch: hits, misses, masks, saturation.
        for seed in 0..4u64 {
            let g = crate::topology::erdos_renyi(400, 4.0, seed).graph;
            let mut masked = vec![true; 400];
            for i in (0..400).step_by(3) {
                masked[i] = false;
            }
            let mut e = FloodEngine::new(400);
            for (src, holders, fwd) in [
                (0u32, vec![333u32], None),
                (7, vec![], None),
                (11, vec![11], None),
                (5, vec![120, 300], Some(&masked)),
                (2, vec![399], Some(&masked)),
            ] {
                let fwd: Option<&[bool]> = fwd.map(|m: &Vec<bool>| m.as_slice());
                let fast = ring(&mut e, &g, src, 9, &holders, fwd);
                let (slow, _) = naive_expanding_ring(&mut e, &g, src, (9, &holders), fwd, None);
                assert_eq!(fast, slow, "seed {seed} src {src}");
            }
        }
    }

    #[test]
    fn faulty_rings_match_plain_under_none_plan() {
        // `None` (one pruned census) and `Some(FaultPlan::none)` (one
        // census per ring) take the two ring sources; they must agree.
        let g = crate::topology::erdos_renyi(300, 5.0, 31).graph;
        let plan = FaultPlan::none(300);
        let mut e = FloodEngine::new(300);
        let rec = &mut NoopRecorder;
        for nonce in 0..5u64 {
            let plain = ring(&mut e, &g, 7, 6, &[200], None);
            let (faulty, stats) =
                expanding_ring_search(&mut e, &g, 7, 6, &[200], None, faults(&plan, nonce), rec);
            assert_eq!(plain, faulty);
            assert_eq!(stats, FaultStats::default());
        }
    }

    #[test]
    fn faulty_rings_match_naive_per_ring_faulty_floods() {
        // Each faulty ring is a census run at the ring's TTL; it must be
        // bitwise the standalone faulty flood with the ring's nonce.
        let g = crate::topology::erdos_renyi(300, 5.0, 33).graph;
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.3,
                churn: 0.2,
                horizon: 16,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(300);
        for (src, time, nonce) in [(0u32, 0u64, 1u64), (42, 5, 2), (150, 9, 3), (299, 15, 4)] {
            for holders in [vec![], vec![120u32], vec![src]] {
                let f = Some(FloodFaults {
                    plan: &plan,
                    time,
                    nonce,
                });
                let rec = &mut NoopRecorder;
                let fast = expanding_ring_search(&mut e, &g, src, 6, &holders, None, f, rec);
                let slow = naive_expanding_ring(&mut e, &g, src, (6, &holders), None, f);
                assert_eq!(fast, slow, "src {src} time {time}");
            }
        }
    }

    #[test]
    fn faulty_rings_accumulate_drop_stats() {
        let g = crate::topology::erdos_renyi(300, 5.0, 32).graph;
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.5,
                churn: 0.0,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(300);
        let (out, stats) = expanding_ring_search(
            &mut e,
            &g,
            0,
            5,
            &[],
            None,
            faults(&plan, 9),
            &mut NoopRecorder,
        );
        assert!(!out.found);
        assert!(stats.dropped > 0, "50% loss over 5 rings must drop");
        assert!(stats.wasted() <= out.messages);
        assert_eq!(out.rings, 5);
    }

    #[test]
    fn source_holder_found_at_ttl_one() {
        // The hop-0 check happens inside the first ring.
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 2, 4, &[2], None);
        assert!(out.found);
        assert_eq!(out.found_at_ttl, Some(1));
        assert_eq!(out.rings, 1);
    }

    #[test]
    fn zero_max_ttl_is_a_no_op() {
        let g = path(5);
        let mut e = FloodEngine::new(5);
        let out = ring(&mut e, &g, 0, 0, &[4], None);
        assert_eq!(
            out,
            ExpandingOutcome {
                found: false,
                found_at_ttl: None,
                messages: 0,
                final_reach: 1,
                rings: 0,
            }
        );
    }
}
