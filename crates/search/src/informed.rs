//! The informed walks as one frame: Gia, the synopsis walk and the
//! advertisement walk are one self-avoiding walk that differs only in
//! its next-hop rule and its answer test (Thampi's survey, PAPERS.md,
//! classes them as informed variants of the blind walk).
//!
//! [`walk`] holds the frame once: the source check at hop 0, the
//! visited set, the step loop, the fallback to any neighbour once every
//! neighbour has been visited, and the outcome. Each system implements
//! [`WalkPolicy`] with its own rule.

use crate::systems::SearchOutcome;
use crate::world::{QuerySpec, SearchWorld};
use qcp_util::rng::Pcg64;
use qcp_util::FxHashSet;

/// One informed walk's rule: which node answers a query, and which
/// unvisited neighbour the walk steps to next.
pub(crate) trait WalkPolicy {
    /// Whether `node` answers a query for `matching`: by default, when
    /// it holds a matching object itself.
    fn answers(&self, world: &SearchWorld, node: u32, matching: &[u32]) -> bool {
        world.peer_answers(node, matching)
    }

    /// The next hop among `unvisited`, the current node's unvisited
    /// neighbours in neighbour order (never empty).
    fn pick(&self, unvisited: &[u32], query: &QuerySpec, rng: &mut Pcg64) -> u32;
}

/// Walks `query` for at most `ttl` steps from its source, one message a
/// step, stepping by `policy`'s rule and stopping at the first node that
/// answers. Once every neighbour has been visited the walk steps to a
/// uniformly drawn neighbour. An unsatisfiable query costs nothing.
pub(crate) fn walk<P: WalkPolicy>(
    policy: &P,
    ttl: u32,
    world: &SearchWorld,
    query: &QuerySpec,
    rng: &mut Pcg64,
) -> SearchOutcome {
    let matching = world.matching_objects(&query.terms);
    if matching.is_empty() {
        return SearchOutcome::default();
    }
    let hit = |messages, hops| SearchOutcome {
        success: true,
        messages,
        hops: Some(hops),
        ..SearchOutcome::default()
    };
    let mut current = query.source;
    if policy.answers(world, current, &matching) {
        return hit(0, 0);
    }
    let graph = &world.topology.graph;
    let mut visited: FxHashSet<u32> = FxHashSet::default();
    visited.insert(current);
    let mut unvisited: Vec<u32> = Vec::new();
    let mut messages = 0u64;
    for step in 1..=ttl {
        let neighbors = graph.neighbors(current);
        if neighbors.is_empty() {
            break;
        }
        unvisited.clear();
        unvisited.extend(neighbors.iter().filter(|nb| !visited.contains(nb)));
        current = if unvisited.is_empty() {
            neighbors[rng.index(neighbors.len())]
        } else {
            policy.pick(&unvisited, query, rng)
        };
        messages += 1;
        visited.insert(current);
        if policy.answers(world, current, &matching) {
            return hit(messages, step);
        }
    }
    SearchOutcome {
        messages,
        ..SearchOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use crate::advertise::AdvertiseSearch;
    use crate::gia::GiaSearch;
    use crate::spec::SearchSpec;
    use crate::synopsis::{SynopsisPolicy, SynopsisSearch};
    use crate::systems::SearchSystem;
    use crate::world::{QuerySpec, SearchWorld, WorldConfig};
    use qcp_util::rng::Pcg64;

    /// The four informed walks the shared tests run over.
    #[derive(Debug, Clone, Copy)]
    enum Config {
        Gia,
        ContentSynopsis,
        QuerySynopsis,
        Advertise,
    }

    const CONFIGS: [Config; 4] = [
        Config::Gia,
        Config::ContentSynopsis,
        Config::QuerySynopsis,
        Config::Advertise,
    ];

    impl Config {
        /// The system at walk budget `ttl`; the query-centric synopsis
        /// has observed a training workload.
        fn build(self, w: &SearchWorld, ttl: u32) -> Box<dyn SearchSystem> {
            match self {
                Config::Gia => Box::new(GiaSearch::new(w, ttl, 4)),
                Config::ContentSynopsis => Box::new(SynopsisSearch::new(
                    w,
                    SynopsisPolicy::ContentCentric,
                    12,
                    ttl,
                )),
                Config::QuerySynopsis => {
                    let mut s = SynopsisSearch::new(w, SynopsisPolicy::QueryCentric, 12, ttl);
                    s.observe_queries(w, &queries(w, 3_000, 6), 0.5);
                    Box::new(s)
                }
                Config::Advertise => Box::new(AdvertiseSearch::new(w, 8, ttl, 5)),
            }
        }

        /// Whether the walk answers from an index of other peers'
        /// content (Gia's one-hop index, the advertisement store).
        fn indexes(self) -> bool {
            matches!(self, Config::Gia | Config::Advertise)
        }
    }

    fn world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 600,
            num_objects: 5_000,
            num_terms: 6_000,
            head_size: 100,
            seed: 31,
            ..Default::default()
        })
    }

    fn queries(w: &SearchWorld, n: usize, seed: u64) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| w.sample_query(&mut rng)).collect()
    }

    #[test]
    fn unsatisfiable_query_is_a_free_miss() {
        let w = world();
        let q = QuerySpec {
            terms: vec![6_000_000],
            source: 1,
        };
        for config in CONFIGS {
            let out = config.build(&w, 30).search(&w, &q, &mut Pcg64::new(6));
            assert!(!out.success, "{config:?}");
            assert_eq!((out.messages, out.hops), (0, None), "{config:?}");
        }
    }

    #[test]
    fn ttl_bounds_messages() {
        let w = world();
        for config in CONFIGS {
            let mut sys = config.build(&w, 7);
            let mut rng = Pcg64::new(8);
            for _ in 0..50 {
                let q = w.sample_query(&mut rng);
                let out = sys.search(&w, &q, &mut rng);
                assert!(out.messages <= 7, "{config:?}: {} messages", out.messages);
                assert_eq!(out.hops.is_some(), out.success, "{config:?}");
            }
        }
    }

    #[test]
    fn every_walk_beats_a_blind_walk_at_the_same_ttl() {
        let w = world();
        let test = queries(&w, 400, 7);
        for config in CONFIGS {
            let mut informed = config.build(&w, 30);
            let mut blind = SearchSpec::walk(1, 30).build(&w);
            let mut rng = Pcg64::new(3);
            let (mut informed_hits, mut blind_hits) = (0, 0);
            for q in &test {
                informed_hits += u32::from(informed.search(&w, q, &mut rng).success);
                blind_hits += u32::from(blind.search(&w, q, &mut rng).success);
            }
            assert!(
                informed_hits > blind_hits,
                "{config:?} ({informed_hits}) must beat a blind walk ({blind_hits})"
            );
        }
    }

    /// A source that holds a match answers at hop 0 for free in every
    /// walk; so does a source that only indexes one, in the walks that
    /// index, and never in the others.
    #[test]
    fn source_hits_are_free() {
        let w = world();
        let obj = 12u32;
        let holder = QuerySpec {
            terms: w.object_terms[obj as usize].clone(),
            source: w.placement.holders(obj)[0],
        };
        for config in CONFIGS {
            let mut sys = config.build(&w, 30);
            let mut rng = Pcg64::new(1);
            let out = sys.search(&w, &holder, &mut rng);
            assert_eq!((out.success, out.messages, out.hops), (true, 0, Some(0)));
            let mut index_hits = 0;
            for q in queries(&w, 300, 2) {
                let out = sys.search(&w, &q, &mut rng);
                if out.hops == Some(0) {
                    assert_eq!((out.success, out.messages), (true, 0), "{config:?}");
                    let matching = w.matching_objects(&q.terms);
                    index_hits += u32::from(!w.peer_answers(q.source, &matching));
                }
            }
            assert_eq!(index_hits > 0, config.indexes(), "{config:?}: {index_hits}");
        }
    }
}
