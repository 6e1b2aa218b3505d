//! Query Routing Protocol (QRP) flooding — Gnutella's deployed mechanism.
//!
//! In the two-tier Gnutella the paper crawled, leaves upload a *query
//! routing table* (a hashed bitmap of their keywords) to each of their
//! ultrapeers. Floods traverse only the ultrapeer mesh; an ultrapeer
//! forwards a query down to a leaf only when the leaf's table contains
//! **every** query term. QRP never loses results — a leaf that can answer
//! always passes its own table — it only prunes guaranteed-miss
//! deliveries.
//!
//! QRP is the real-world, deployed form of a *content-centric* synopsis:
//! the table advertises exactly what the leaf stores. The paper's
//! annotation/query mismatch is what limits it — pruning misses is all it
//! can do; it cannot make under-replicated content findable.

use crate::systems::{SearchOutcome, SearchSystem};
use crate::world::{QuerySpec, SearchWorld};
use qcp_overlay::topology::NodeKind;
use qcp_sketch::BloomFilter;
use qcp_util::rng::Pcg64;
use qcp_util::Symbol;
use std::collections::VecDeque;

/// QRP key for a world term id (same convention as the synopsis module).
#[inline]
fn qrp_key(term: u32) -> u64 {
    qcp_sketch::synopsis::term_key(Symbol(term))
}

/// Gnutella flooding with QRP leaf gating.
#[derive(Debug)]
pub struct QrpFloodSearch {
    /// Flood TTL over the ultrapeer mesh.
    pub ttl: u32,
    /// Per-node QRP table (meaningful for leaves; ultrapeers route).
    tables: Vec<BloomFilter>,
    kinds: Vec<NodeKind>,
    /// Table-upload cost: one message per (leaf, ultrapeer) link.
    maintenance: u64,
    /// Scratch: last-visited epoch per node.
    mark: Vec<u32>,
    epoch: u32,
}

impl QrpFloodSearch {
    /// Builds per-leaf QRP tables (`table_bits` per table) and uploads
    /// them to the leaves' ultrapeers.
    pub fn new(world: &SearchWorld, ttl: u32, table_bits: usize) -> Self {
        let n = world.num_peers();
        let kinds = world.topology.kinds.clone();
        let mut maintenance = 0u64;
        let tables: Vec<BloomFilter> = (0..n as u32)
            .map(|peer| {
                let mut table = BloomFilter::new(table_bits, 2);
                for (term, _) in world.peer_term_counts(peer) {
                    table.insert(qrp_key(term));
                }
                if kinds[peer as usize] == NodeKind::Leaf {
                    maintenance += world.topology.graph.degree(peer) as u64;
                }
                table
            })
            .collect();
        Self {
            ttl,
            tables,
            kinds,
            maintenance,
            mark: vec![0; n],
            epoch: 0,
        }
    }

    /// True when `leaf`'s table contains every query term.
    fn table_matches(&self, leaf: u32, terms: &[u32]) -> bool {
        let table = &self.tables[leaf as usize];
        terms.iter().all(|&t| table.contains(qrp_key(t)))
    }
}

impl SearchSystem for QrpFloodSearch {
    fn name(&self) -> String {
        format!("qrp-flood(ttl={})", self.ttl)
    }

    fn search(
        &mut self,
        world: &SearchWorld,
        query: &QuerySpec,
        _rng: &mut Pcg64,
    ) -> SearchOutcome {
        // For an unsatisfiable query `matching` is empty, but the flood
        // still happens — the querier doesn't know — so costs are paid.
        let matching = world.matching_objects(&query.terms);
        let graph = &world.topology.graph;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        let mut messages = 0u64;
        let mut found_at: Option<u32> = None;
        let check = |peer: u32, hop: u32, found_at: &mut Option<u32>| {
            if found_at.is_none() && world.peer_answers(peer, &matching) {
                *found_at = Some(hop);
            }
        };

        // BFS over the ultrapeer tier; source participates regardless of
        // role (a leaf source sends to its ultrapeers).
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        self.mark[query.source as usize] = epoch;
        check(query.source, 0, &mut found_at);
        queue.push_back((query.source, 0));

        while let Some((u, hop)) = queue.pop_front() {
            if hop >= self.ttl {
                continue;
            }
            // Only the source and ultrapeers forward.
            if u != query.source && self.kinds[u as usize] != NodeKind::Ultrapeer {
                continue;
            }
            for &v in graph.neighbors(u) {
                if self.mark[v as usize] == epoch {
                    continue;
                }
                match self.kinds[v as usize] {
                    NodeKind::Ultrapeer => {
                        messages += 1;
                        self.mark[v as usize] = epoch;
                        check(v, hop + 1, &mut found_at);
                        queue.push_back((v, hop + 1));
                    }
                    NodeKind::Leaf => {
                        // QRP gate: deliver only if the leaf's table
                        // matches all query terms.
                        if self.table_matches(v, &query.terms) {
                            messages += 1;
                            self.mark[v as usize] = epoch;
                            check(v, hop + 1, &mut found_at);
                            // Leaves never forward.
                        }
                    }
                }
            }
        }
        SearchOutcome {
            success: found_at.is_some(),
            messages,
            hops: found_at,
            ..SearchOutcome::default()
        }
    }

    fn maintenance_messages(&self) -> u64 {
        self.maintenance
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
            seed: 88,
            ..Default::default()
        })
    }

    #[test]
    fn leaf_tables_never_reject_their_own_content() {
        let w = world();
        let sys = QrpFloodSearch::new(&w, 3, 4096);
        for peer in 0..w.num_peers() as u32 {
            let terms: Vec<u32> = w.peer_term_counts(peer).keys().copied().collect();
            for &t in terms.iter().take(20) {
                assert!(
                    sys.table_matches(peer, &[t]),
                    "peer {peer} table rejects its own term {t}"
                );
            }
        }
    }

    #[test]
    fn qrp_matches_flood_success_with_fewer_messages() {
        let w = world();
        let mut rng = Pcg64::new(1);
        let queries: Vec<QuerySpec> = (0..250).map(|_| w.sample_query(&mut rng)).collect();
        let mut qrp = QrpFloodSearch::new(&w, 3, 4096);
        let mut flood = crate::spec::SearchSpec::flood(3).build(&w).into_flood();
        let mut qrp_success = 0u32;
        let mut flood_success = 0u32;
        let mut qrp_msgs = 0u64;
        let mut flood_msgs = 0u64;
        for q in &queries {
            let a = qrp.search(&w, q, &mut rng);
            let b = flood.search(&w, q, &mut rng);
            qrp_success += a.success as u32;
            flood_success += b.success as u32;
            qrp_msgs += a.messages;
            flood_msgs += b.messages;
            // QRP never loses a result the plain flood found.
            assert!(
                a.success || !b.success,
                "QRP lost a result for terms {:?}",
                q.terms
            );
        }
        assert_eq!(qrp_success, flood_success, "same reachability");
        assert!(
            qrp_msgs * 2 < flood_msgs,
            "QRP should prune most leaf deliveries: {qrp_msgs} vs {flood_msgs}"
        );
    }

    #[test]
    fn tiny_tables_cost_false_positive_deliveries_not_results() {
        let w = world();
        let mut rng = Pcg64::new(2);
        let queries: Vec<QuerySpec> = (0..150).map(|_| w.sample_query(&mut rng)).collect();
        let mut small = QrpFloodSearch::new(&w, 3, 256); // heavily saturated
        let mut large = QrpFloodSearch::new(&w, 3, 16_384);
        let mut small_msgs = 0u64;
        let mut large_msgs = 0u64;
        for q in &queries {
            let a = small.search(&w, q, &mut rng);
            let b = large.search(&w, q, &mut rng);
            assert_eq!(a.success, b.success, "table size must not change results");
            small_msgs += a.messages;
            large_msgs += b.messages;
        }
        assert!(
            small_msgs >= large_msgs,
            "saturated tables deliver at least as many messages"
        );
    }

    #[test]
    fn maintenance_counts_leaf_uploads() {
        let w = world();
        let sys = QrpFloodSearch::new(&w, 3, 4096);
        // One upload per leaf-ultrapeer link: equals the number of edges
        // incident to leaves (leaves only connect to ultrapeers).
        let expected: u64 = (0..w.num_peers() as u32)
            .filter(|&p| w.topology.kinds[p as usize] == NodeKind::Leaf)
            .map(|p| w.topology.graph.degree(p) as u64)
            .sum();
        assert_eq!(sys.maintenance_messages(), expected);
    }

    #[test]
    fn engine_reuse_is_clean() {
        let w = world();
        let mut sys = QrpFloodSearch::new(&w, 2, 2048);
        let mut rng = Pcg64::new(3);
        let q = w.sample_query(&mut rng);
        let first = sys.search(&w, &q, &mut rng);
        for _ in 0..50 {
            let again = sys.search(&w, &q, &mut rng);
            assert_eq!(first.success, again.success);
            assert_eq!(first.messages, again.messages);
        }
    }
}
