//! The bit-parallel batch census: up to 64 loss-free floods in one
//! level-synchronous traversal.
//!
//! Every node carries a `u64` *seen* word and a `u64` *frontier* word,
//! one bit per lane (trial) — the multi-source BFS of Then et al., "The
//! More the Merrier: Efficient Multi-Source Graph Traversal" (VLDB
//! 2015). Expanding node `u` for all its frontier lanes at once costs
//! one scan of its adjacency: the lanes newly reaching `v` are
//! `frontier[u] & !seen[v]`, and the messages sent are
//! `popcount(frontier[u]) · deg(u)`. The frontier words of the level
//! being expanded live in a list of active nodes; the next level's are
//! gathered per node. After each level, every lane not yet hit tests
//! its holders against its seen bit.
//!
//! The batch keeps only per-level **sums** over its lanes — reached,
//! messages, dead targets — plus each lane's first-hit hop. Without
//! message loss each of those is a pure function of the lane's BFS
//! levels, never of the order in which transmissions happen, so the sums
//! equal the sums of the lanes' scalar censuses ([`FloodEngine::run`])
//! exactly. A lossy plan breaks this: its drop draws key on the
//! per-query message index, which depends on traversal order. So does a
//! churning plan, whose liveness moves with each trial's tick. Both stay
//! on the scalar census; [`BatchCensus::run`] accepts only
//! [`FaultPlan::is_frozen_lossless`] plans.
//!
//! Lane semantics match the scalar census:
//! * at hop 1 the frontier is exactly the sources, so every source sends
//!   regardless of the forwarder mask; from hop 2 on the mask applies;
//! * lanes with the same source share one node word;
//! * a source that holds the object is a hit at hop 0;
//! * under a frozen plan a send to a down node is a dead target (one per
//!   lane sending), a down node is never marked seen, and a lane whose
//!   source is down reaches nobody and records a dead-source event.
//!
//! [`FloodEngine::run`]: crate::flood::FloodEngine::run

use crate::flood::{Faults, FloodFaults, NoFaults};
use crate::graph::Graph;
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};

/// Lanes (trials) per batch: one bit of a `u64` word each.
pub const BATCH_LANES: usize = 64;

/// One lane of a batch: a query's source and the sorted peers holding
/// its target.
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    /// The peer issuing the query.
    pub source: u32,
    /// Peers holding the target object.
    pub holders: &'a [u32],
}

/// Per-level sums of one batch census. Index `h` of the level vectors
/// holds the sum over lanes of what a standalone TTL-`h` flood from each
/// lane reports; the vectors stop at the level where every lane's
/// frontier was exhausted (or at `max_ttl`), like
/// [`CensusOutcome`](crate::flood::CensusOutcome)'s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// `reached[h]` — peers reached, summed over lanes.
    pub reached: Vec<u64>,
    /// `messages[h]` — query messages sent, summed over lanes.
    pub messages: Vec<u64>,
    /// `stats[h]` — cumulative fault counters, summed over lanes
    /// (all-zero without a plan).
    pub stats: Vec<FaultStats>,
    /// Per lane, in lane order: the hop of the first holder reached.
    pub first_hit_hop: Vec<Option<u32>>,
}

impl BatchOutcome {
    /// Deepest recorded level; 0 for an empty outcome.
    pub fn levels(&self) -> u32 {
        (self.reached.len() as u32).saturating_sub(1)
    }

    /// The sums a batch of standalone TTL-`ttl` floods reports:
    /// `[hits, reached, messages]` and the summed fault counters. Levels
    /// beyond the recorded ones clamp, as in
    /// [`CensusOutcome::at`](crate::flood::CensusOutcome::at).
    pub fn at(&self, ttl: u32) -> ([u64; 3], FaultStats) {
        let level = ttl.min(self.levels()) as usize;
        let hits = self
            .first_hit_hop
            .iter()
            .filter(|h| h.is_some_and(|h| h <= ttl))
            .count() as u64;
        let reached = self.reached.get(level).copied().unwrap_or(0);
        let messages = self.messages.get(level).copied().unwrap_or(0);
        let stats = self.stats.get(level).copied().unwrap_or_default();
        ([hits, reached, messages], stats)
    }
}

/// Reusable batch-census context for one graph size: two words per node
/// (seen, next frontier) plus the list of nodes sending at the current
/// level, each with its lane word. A node that does not forward never
/// enters that list once the sources have sent, so on a two-tier
/// overlay the list holds ultrapeers only. Consecutive batches on the
/// same graph allocate nothing but the outcome vectors' growth.
///
/// ```
/// use qcp_overlay::batch::{BatchCensus, BatchLane, BatchOutcome};
/// use qcp_overlay::Graph;
/// use qcp_obs::NoopRecorder;
///
/// // Path 0-1-2-3: lanes from nodes 0 and 3, both looking for node 2.
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let lanes = [
///     BatchLane { source: 0, holders: &[2] },
///     BatchLane { source: 3, holders: &[2] },
/// ];
/// let mut batch = BatchCensus::new(4);
/// let mut out = BatchOutcome::default();
/// batch.run(&graph, &lanes, None, 2, None, &mut NoopRecorder, &mut out);
/// assert_eq!(out.first_hit_hop, vec![Some(2), Some(1)]);
/// assert_eq!(out.reached, vec![2, 4, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchCensus {
    /// Per node: the lanes that have reached it.
    seen: Vec<u64>,
    /// Per node: the lanes it sends for at the next level.
    next: Vec<u64>,
    /// Nodes whose `next` word is non-zero.
    touched: Vec<u32>,
    /// The nodes sending at the current level, with their lane words.
    senders: Vec<(u32, u64)>,
    /// One bit per node, set when the node is down (frozen plans only):
    /// a cache-resident stand-in for the plan's per-node session arrays.
    down: Vec<u64>,
}

impl BatchCensus {
    /// Creates a context for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            seen: vec![0; num_nodes],
            next: vec![0; num_nodes],
            touched: Vec::new(),
            senders: Vec::new(),
            down: Vec::new(),
        }
    }

    /// Censuses every lane to `max_ttl` in one traversal, writing the
    /// per-level sums into `out` and recording into `rec` exactly what
    /// the lanes' scalar censuses would: one span and one hit, miss or
    /// dead-source event per lane, the messages and (under a plan) the
    /// fault counters, and the hop histogram.
    ///
    /// * `lanes` — at most [`BATCH_LANES`] queries;
    /// * `forwarders` — optional mask; nodes with `false` receive but do
    ///   not forward (a source always sends);
    /// * `plan` — `None` runs fault-free; `Some` must satisfy
    ///   [`FaultPlan::is_frozen_lossless`].
    ///
    /// # Panics
    ///
    /// On more than [`BATCH_LANES`] lanes, or on a lossy or churning
    /// plan (order-dependent outcomes cannot be batched).
    #[allow(clippy::too_many_arguments)] // the census inputs + recorder + output
    pub fn run<R: Recorder>(
        &mut self,
        graph: &Graph,
        lanes: &[BatchLane<'_>],
        forwarders: Option<&[bool]>,
        max_ttl: u32,
        plan: Option<&FaultPlan>,
        rec: &mut R,
        out: &mut BatchOutcome,
    ) {
        assert!(lanes.len() <= BATCH_LANES, "at most 64 lanes per batch");
        match plan {
            None => self.run_core(graph, lanes, forwarders, max_ttl, NoFaults, rec, out),
            Some(plan) => {
                assert!(
                    plan.is_frozen_lossless(),
                    "a batch census needs a frozen, loss-free plan"
                );
                // Liveness is tick-free and nothing drops, so the tick and
                // the drop-stream nonce are immaterial.
                let faults = FloodFaults {
                    plan,
                    time: 0,
                    nonce: 0,
                };
                self.run_core(graph, lanes, forwarders, max_ttl, faults, rec, out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // monomorphized body of `run`
    fn run_core<F: Faults, R: Recorder>(
        &mut self,
        graph: &Graph,
        lanes: &[BatchLane<'_>],
        forwarders: Option<&[bool]>,
        max_ttl: u32,
        faults: F,
        rec: &mut R,
        out: &mut BatchOutcome,
    ) {
        let Self {
            seen,
            next,
            touched,
            senders,
            down,
        } = self;
        seen.fill(0);
        if F::ACTIVE {
            down.clear();
            down.resize(seen.len().div_ceil(64), 0);
            for v in 0..seen.len() as u32 {
                if !faults.alive(v) {
                    down[(v >> 6) as usize] |= 1 << (v & 63);
                }
            }
        }
        out.first_hit_hop.clear();
        out.first_hit_hop.resize(lanes.len(), None);
        // Lane setup: the alive sources form the hop-1 frontier, lanes
        // sharing a source sharing its word. Every source sends,
        // forwarder or not.
        let mut live = 0u64;
        for (lane, q) in lanes.iter().enumerate() {
            rec.rec_span(Kernel::Flood);
            if !faults.alive(q.source) {
                rec.rec_event(Kernel::Flood, Event::DeadSource);
                continue;
            }
            let bit = 1u64 << lane;
            live |= bit;
            seen[q.source as usize] |= bit;
            mark_next(next, touched, q.source, bit);
        }
        let mut reached = u64::from(live.count_ones());
        let mut messages = 0u64;
        let mut total = FaultStats::default();
        out.reached.clear();
        out.messages.clear();
        out.stats.clear();
        out.reached.push(reached);
        out.messages.push(messages);
        out.stats.push(total);
        let mut unhit = first_hits(seen, lanes, live, 0, &mut out.first_hit_hop);

        // A level runs while some lane's frontier — the nodes it reached
        // at the previous level, forwarders or not — is non-empty, as
        // in the scalar census; only forwarders send from it.
        let mut frontier_live = live != 0;
        let mut hop = 0u32;
        while hop < max_ttl && frontier_live {
            hop += 1;
            senders.clear();
            senders.extend(
                touched
                    .drain(..)
                    .map(|u| (u, std::mem::take(&mut next[u as usize]))),
            );
            let level_start = messages;
            let level_reached = reached;
            let mut stats = FaultStats::default();
            for &(u, lanes_at_u) in senders.iter() {
                let copies = u64::from(lanes_at_u.count_ones());
                let neighbors = graph.neighbors(u);
                messages += copies * neighbors.len() as u64;
                for &v in neighbors {
                    let vi = v as usize;
                    if F::ACTIVE && down[vi >> 6] >> (vi & 63) & 1 == 1 {
                        stats.dead_targets += copies;
                        continue;
                    }
                    let fresh = lanes_at_u & !seen[vi];
                    if fresh != 0 {
                        seen[vi] |= fresh;
                        reached += u64::from(fresh.count_ones());
                        if forwarders.is_none_or(|mask| mask[vi]) {
                            mark_next(next, touched, v, fresh);
                        }
                    }
                }
            }
            frontier_live = reached > level_reached;
            rec.rec_hop(Kernel::Flood, hop, messages - level_start);
            if F::ACTIVE {
                rec.rec_faults(Kernel::Flood, &stats);
            }
            total.absorb(&stats);
            out.reached.push(reached);
            out.messages.push(messages);
            out.stats.push(total);
            unhit = first_hits(seen, lanes, unhit, hop, &mut out.first_hit_hop);
        }
        // Leave the next-frontier words zeroed for the next batch.
        for u in touched.drain(..) {
            next[u as usize] = 0;
        }

        rec.rec_count(Kernel::Flood, Counter::Messages, messages);
        for lane in 0..lanes.len() {
            if live >> lane & 1 == 1 {
                let event = if out.first_hit_hop[lane].is_some() {
                    Event::Hit
                } else {
                    Event::Miss
                };
                rec.rec_event(Kernel::Flood, event);
            }
        }
    }
}

/// Adds `lanes` to `v`'s next-frontier word, listing `v` on first use.
#[inline]
fn mark_next(next: &mut [u64], touched: &mut Vec<u32>, v: u32, lanes: u64) {
    let word = &mut next[v as usize];
    if *word == 0 {
        touched.push(v);
    }
    *word |= lanes;
}

/// Marks hop `hop` as the first hit of every lane in `unhit` that has
/// now seen one of its holders; returns the lanes still unhit.
fn first_hits(
    seen: &[u64],
    lanes: &[BatchLane<'_>],
    unhit: u64,
    hop: u32,
    first_hit_hop: &mut [Option<u32>],
) -> u64 {
    let mut still = unhit;
    let mut rest = unhit;
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let bit = 1u64 << lane;
        if lanes[lane]
            .holders
            .iter()
            .any(|&h| seen[h as usize] & bit != 0)
        {
            first_hit_hop[lane] = Some(hop);
            still &= !bit;
        }
    }
    still
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::{FloodEngine, FloodSpec};
    use qcp_obs::MetricsRecorder;

    /// The scalar oracle: one census per lane, summed per level.
    fn scalar(
        graph: &Graph,
        lanes: &[BatchLane<'_>],
        forwarders: Option<&[bool]>,
        max_ttl: u32,
        plan: Option<&FaultPlan>,
    ) -> (BatchOutcome, MetricsRecorder) {
        let mut engine = FloodEngine::new(graph.num_nodes());
        let mut rec = MetricsRecorder::new();
        let spec = match plan {
            None => FloodSpec::new(max_ttl),
            Some(p) => FloodSpec::new(max_ttl).faulty(p, 0, 0),
        };
        let runs: Vec<_> = lanes
            .iter()
            .map(|q| engine.run(graph, q.source, q.holders, forwarders, &spec, &mut rec))
            .collect();
        let levels = runs.iter().map(|(c, _)| c.levels()).max().unwrap_or(0);
        let mut out = BatchOutcome::default();
        for h in 0..=levels {
            let mut stats = FaultStats::default();
            for (c, s) in &runs {
                stats.absorb(&s[h.min(c.levels()) as usize]);
            }
            out.reached
                .push(runs.iter().map(|(c, _)| u64::from(c.at(h).reached)).sum());
            out.messages
                .push(runs.iter().map(|(c, _)| c.at(h).messages).sum());
            out.stats.push(stats);
        }
        out.first_hit_hop = runs.iter().map(|(c, _)| c.first_hit_hop).collect();
        (out, rec)
    }

    fn batch(
        graph: &Graph,
        lanes: &[BatchLane<'_>],
        forwarders: Option<&[bool]>,
        max_ttl: u32,
        plan: Option<&FaultPlan>,
    ) -> (BatchOutcome, MetricsRecorder) {
        let mut census = BatchCensus::new(graph.num_nodes());
        let mut out = BatchOutcome::default();
        let mut rec = MetricsRecorder::new();
        census.run(graph, lanes, forwarders, max_ttl, plan, &mut rec, &mut out);
        (out, rec)
    }

    #[test]
    fn path_lanes_match_scalar_censuses() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let lanes = [
            BatchLane {
                source: 0,
                holders: &[3],
            },
            BatchLane {
                source: 0,
                holders: &[0],
            },
            BatchLane {
                source: 4,
                holders: &[],
            },
        ];
        for ttl in 0..6 {
            assert_eq!(
                batch(&g, &lanes, None, ttl, None),
                scalar(&g, &lanes, None, ttl, None)
            );
        }
        let (out, _) = batch(&g, &lanes, None, 4, None);
        assert_eq!(out.first_hit_hop, vec![Some(3), Some(0), None]);
        assert_eq!(out.at(2).0, [1, 3 + 3 + 3, 3 + 3 + 3]);
    }

    #[test]
    fn leaves_forward_only_as_sources() {
        // Star 0..3 with leaf 1 bridging to ultrapeer 4: a leaf source
        // still sends at hop 1, a leaf reached later does not forward.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let fwd = [true, false, false, false, true];
        let lanes = [
            BatchLane {
                source: 0,
                holders: &[4],
            },
            BatchLane {
                source: 1,
                holders: &[4],
            },
        ];
        let got = batch(&g, &lanes, Some(&fwd), 3, None);
        assert_eq!(got, scalar(&g, &lanes, Some(&fwd), 3, None));
        assert_eq!(got.0.first_hit_hop, vec![None, Some(1)]);
    }

    #[test]
    fn context_reuse_is_clean() {
        let g = crate::topology::erdos_renyi(200, 4.0, 3).graph;
        let mut census = BatchCensus::new(200);
        let mut out = BatchOutcome::default();
        let lanes = [BatchLane {
            source: 7,
            holders: &[150],
        }];
        census.run(
            &g,
            &lanes,
            None,
            2,
            None,
            &mut qcp_obs::NoopRecorder,
            &mut out,
        );
        let first = out.clone();
        for _ in 0..3 {
            census.run(
                &g,
                &lanes,
                None,
                2,
                None,
                &mut qcp_obs::NoopRecorder,
                &mut out,
            );
            assert_eq!(out, first);
        }
    }

    #[test]
    fn empty_outcome_is_total() {
        let out = BatchOutcome::default();
        assert_eq!(out.levels(), 0);
        assert_eq!(out.at(5), ([0; 3], FaultStats::default()));
    }

    #[test]
    #[should_panic(expected = "frozen, loss-free plan")]
    fn lossy_plans_are_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let plan = FaultPlan::build(2, &qcp_faults::FaultConfig::default());
        batch(&g, &[], None, 1, Some(&plan));
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn oversized_batches_are_rejected() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let lanes = vec![
            BatchLane {
                source: 0,
                holders: &[],
            };
            BATCH_LANES + 1
        ];
        batch(&g, &lanes, None, 1, None);
    }
}
