//! Gia baseline (Chawathe et al., SIGCOMM'03 — the paper's ref \[17\]).
//!
//! Gia improves Gnutella with (i) capacity-aware topology adaptation,
//! (ii) one-hop replication of *indices* (each node can answer for its
//! neighbors' content), and (iii) random walks biased toward
//! high-capacity nodes. The paper's related-work section argues Gia's
//! evaluation assumed uniform replication at up to 0.5% of peers — far
//! above what the measured Zipf distribution provides — so its real-world
//! success rate is much lower (ablation A2 quantifies this).
//!
//! The simulation models capacities as a discrete heavy-tailed ladder
//! (the Gia paper's own 1x/10x/100x/1000x gnutella-like distribution),
//! biases walks by capacity, and answers queries from one-hop indices.

use crate::informed::{self, WalkPolicy};
use crate::systems::{SearchOutcome, SearchSystem};
use crate::world::{QuerySpec, SearchWorld};
use qcp_faults::capacity::{gia_tier, GIA_MULTIPLIERS};
use qcp_util::rng::Pcg64;

/// Gia search system.
#[derive(Debug)]
pub struct GiaSearch {
    /// Walk budget in steps.
    ttl: u32,
    /// Node capacities (heavy-tailed ladder).
    capacities: Vec<f64>,
}

impl GiaSearch {
    /// Creates a Gia system over `world` with the classic capacity ladder.
    pub fn new(world: &SearchWorld, ttl: u32, seed: u64) -> Self {
        let mut rng = Pcg64::with_stream(seed, 0x61a);
        // Gia's measured capacity distribution: 20% at 1x, 45% at 10x,
        // 30% at 100x, 4.9% at 1000x, 0.1% at 10000x. The ladder is
        // shared with the qcp-faults overload model; the sequential
        // 0x61a draw stream here predates it and stays bitwise intact.
        let capacities = (0..world.num_peers())
            .map(|_| GIA_MULTIPLIERS[gia_tier(rng.next_f64())])
            .collect();
        Self { ttl, capacities }
    }

    /// Capacity of a node.
    #[cfg(test)]
    fn capacity(&self, node: u32) -> f64 {
        self.capacities[node as usize]
    }
}

impl WalkPolicy for GiaSearch {
    /// One-hop-replication answer check: `node` answers if it or any
    /// neighbor holds a matching object.
    fn answers(&self, world: &SearchWorld, node: u32, matching: &[u32]) -> bool {
        if world.peer_answers(node, matching) {
            return true;
        }
        world
            .topology
            .graph
            .neighbors(node)
            .iter()
            .any(|&nb| world.peer_answers(nb, matching))
    }

    /// The highest-capacity neighbor (Gia's bias): one random jitter per
    /// neighbor, in order, breaks capacity ties without bias.
    fn pick(&self, unvisited: &[u32], _query: &QuerySpec, rng: &mut Pcg64) -> u32 {
        let mut best = unvisited[0];
        let mut best_cap = f64::NEG_INFINITY;
        for &nb in unvisited {
            let jitter = self.capacities[nb as usize] * (1.0 + 0.01 * rng.next_f64());
            if jitter > best_cap {
                best_cap = jitter;
                best = nb;
            }
        }
        best
    }
}

impl SearchSystem for GiaSearch {
    fn name(&self) -> String {
        format!("gia(ttl={})", self.ttl)
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        informed::walk(self, self.ttl, world, query, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 600,
            num_objects: 4_000,
            num_terms: 5_000,
            head_size: 100,
            seed: 77,
            ..Default::default()
        })
    }

    #[test]
    fn capacity_ladder_has_expected_levels() {
        let w = world();
        let gia = GiaSearch::new(&w, 20, 1);
        let mut levels: Vec<f64> = (0..600).map(|n| gia.capacity(n)).collect();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        levels.dedup();
        assert!(levels
            .iter()
            .all(|c| { [1.0, 10.0, 100.0, 1_000.0, 10_000.0].contains(c) }));
        assert!(levels.len() >= 3, "expected several capacity levels");
    }

    #[test]
    fn answers_via_one_hop_index() {
        let w = world();
        let gia = GiaSearch::new(&w, 20, 2);
        let obj = 10u32;
        let holder = w.placement.holders(obj)[0];
        let matching = w.matching_objects(&w.object_terms[obj as usize]);
        // The holder answers; so does each of its neighbors.
        assert!(gia.answers(&w, holder, &matching));
        for &nb in w.topology.graph.neighbors(holder) {
            assert!(gia.answers(&w, nb, &matching));
        }
    }
}
