//! Advertisement-based search (ASAP, Cai/Gu/Wang ICPP'07 — the paper's
//! ref \[21\]).
//!
//! Where flooding pulls at query time, ASAP pushes at publish time: every
//! peer proactively sends a compact advertisement of its content to a
//! random subset of peers, and a query is answered from the *local*
//! advertisement store of the querying peer (plus a short walk among
//! peers whose stores it consults). The trade: queries are nearly free,
//! but advertisement placement is content-centric — it spreads what peers
//! *have*, with the same blind spot the paper diagnoses: coverage of a
//! term is proportional to how much content carries it, not to how often
//! users ask for it.

use crate::systems::{SearchOutcome, SearchSystem};
use crate::world::{QuerySpec, SearchWorld};
use qcp_util::rng::Pcg64;
use qcp_util::{FxHashMap, FxHashSet};

/// Advertisement-based search system.
#[derive(Debug)]
pub struct AdvertiseSearch {
    /// Peers each advertisement is pushed to.
    pub fanout: usize,
    /// Steps of the consultation walk at query time.
    pub ttl: u32,
    /// Per peer: advertised (object → holder) entries received.
    store: Vec<FxHashMap<u32, u32>>,
    /// Push cost (messages) spent on advertisement placement.
    maintenance: u64,
}

impl AdvertiseSearch {
    /// Builds the system and performs the advertisement push: every peer
    /// advertises each of its objects to `fanout` random peers.
    pub fn new(world: &SearchWorld, fanout: usize, ttl: u32, seed: u64) -> Self {
        let n = world.num_peers();
        let mut rng = Pcg64::with_stream(seed, 0xad5);
        let mut store: Vec<FxHashMap<u32, u32>> = vec![FxHashMap::default(); n];
        let mut maintenance = 0u64;
        for peer in 0..n as u32 {
            for &obj in &world.peer_contents[peer as usize] {
                for target in rng.sample_distinct(n, fanout.min(n)) {
                    store[target].insert(obj, peer);
                    maintenance += 1;
                }
            }
        }
        Self {
            fanout,
            ttl,
            store,
            maintenance,
        }
    }

    /// Checks one peer's advertisement store (and own content) for a
    /// matching object; returns the holder if known.
    fn check(&self, world: &SearchWorld, peer: u32, matching: &[u32]) -> bool {
        if world.peer_answers(peer, matching) {
            return true;
        }
        let store = &self.store[peer as usize];
        matching.iter().any(|obj| store.contains_key(obj))
    }
}

impl SearchSystem for AdvertiseSearch {
    fn name(&self) -> String {
        format!("advertise(fanout={},ttl={})", self.fanout, self.ttl)
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        let matching = world.matching_objects(&query.terms);
        if matching.is_empty() {
            return SearchOutcome::default();
        }
        // Local store first, then a short random consultation walk.
        if self.check(world, query.source, &matching) {
            return SearchOutcome {
                success: true,
                messages: 0,
                hops: Some(0),
                ..SearchOutcome::default()
            };
        }
        let graph = &world.topology.graph;
        let mut visited: FxHashSet<u32> = FxHashSet::default();
        visited.insert(query.source);
        let mut current = query.source;
        let mut messages = 0u64;
        for step in 1..=self.ttl {
            let neighbors = graph.neighbors(current);
            if neighbors.is_empty() {
                break;
            }
            let unvisited: Vec<u32> = neighbors
                .iter()
                .copied()
                .filter(|nb| !visited.contains(nb))
                .collect();
            let next = if unvisited.is_empty() {
                neighbors[rng.index(neighbors.len())]
            } else {
                unvisited[rng.index(unvisited.len())]
            };
            messages += 1;
            visited.insert(next);
            current = next;
            if self.check(world, current, &matching) {
                return SearchOutcome {
                    success: true,
                    messages,
                    hops: Some(step),
                    ..SearchOutcome::default()
                };
            }
        }
        SearchOutcome {
            success: false,
            messages,
            hops: None,
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
            num_peers: 500,
            num_objects: 4_000,
            num_terms: 5_000,
            head_size: 100,
            seed: 66,
            ..Default::default()
        })
    }

    #[test]
    fn advertisements_are_placed() {
        let w = world();
        let sys = AdvertiseSearch::new(&w, 8, 10, 1);
        let total_ads: usize = sys.store.iter().map(|s| s.len()).sum();
        assert!(total_ads > 1_000, "only {total_ads} ads placed");
        assert!(sys.maintenance_messages() > total_ads as u64 / 2);
        // Every advertised holder actually holds the object.
        for store in &sys.store {
            for (&obj, &holder) in store {
                assert!(w.placement.peer_holds(holder, obj));
            }
        }
    }

    #[test]
    fn local_store_hit_is_free() {
        let w = world();
        let sys = AdvertiseSearch::new(&w, 8, 10, 2);
        // Find a peer whose store advertises some object; query for it.
        let (peer, obj) = sys
            .store
            .iter()
            .enumerate()
            .find_map(|(p, s)| s.keys().next().map(|&o| (p as u32, o)))
            .expect("some advertisement exists");
        let q = QuerySpec {
            terms: w.object_terms[obj as usize].clone(),
            source: peer,
        };
        let mut sys = sys;
        let mut rng = Pcg64::new(3);
        let out = sys.search(&w, &q, &mut rng);
        assert!(out.success);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn beats_blind_walk_at_same_ttl() {
        let w = world();
        let mut rng = Pcg64::new(4);
        let queries: Vec<QuerySpec> = (0..300).map(|_| w.sample_query(&mut rng)).collect();
        let mut ads = AdvertiseSearch::new(&w, 8, 20, 5);
        let mut walk = crate::spec::SearchSpec::walk(1, 20).build(&w).into_walk();
        let mut ad_hits = 0;
        let mut walk_hits = 0;
        for q in &queries {
            if ads.search(&w, q, &mut rng).success {
                ad_hits += 1;
            }
            if walk.search(&w, q, &mut rng).success {
                walk_hits += 1;
            }
        }
        assert!(
            ad_hits > walk_hits,
            "advertisements ({ad_hits}) must beat blind walk ({walk_hits})"
        );
    }

    #[test]
    fn higher_fanout_helps() {
        let w = world();
        let mut rng = Pcg64::new(6);
        let queries: Vec<QuerySpec> = (0..300).map(|_| w.sample_query(&mut rng)).collect();
        let mut low = AdvertiseSearch::new(&w, 2, 15, 7);
        let mut high = AdvertiseSearch::new(&w, 16, 15, 7);
        let (mut lo, mut hi) = (0, 0);
        for q in &queries {
            if low.search(&w, q, &mut rng).success {
                lo += 1;
            }
            if high.search(&w, q, &mut rng).success {
                hi += 1;
            }
        }
        assert!(hi > lo, "fanout 16 ({hi}) must beat fanout 2 ({lo})");
        assert!(high.maintenance_messages() > low.maintenance_messages());
    }

    #[test]
    fn unsatisfiable_query_fails_free() {
        let w = world();
        let mut sys = AdvertiseSearch::new(&w, 4, 10, 8);
        let mut rng = Pcg64::new(9);
        let out = sys.search(
            &w,
            &QuerySpec {
                terms: vec![9_999_999],
                source: 0,
            },
            &mut rng,
        );
        assert!(!out.success);
        assert_eq!(out.messages, 0);
    }
}
