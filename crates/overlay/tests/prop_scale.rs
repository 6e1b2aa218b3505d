//! Property tests for the memory-layout refactor behind `repro scale`:
//! every compact representation must be *observationally identical* to
//! the pointer-heavy one it replaced.
//!
//! Three equivalence families:
//!
//! 1. **Streaming CSR builder vs legacy adjacency** — the two-pass
//!    count/scatter builder (and the sort-based dedup in
//!    [`Graph::from_edges`]) must reproduce, node by node and position
//!    by position, the neighbor lists of the old keep-first hash-set +
//!    `Vec<Vec<u32>>` construction.
//! 2. **Bitset census vs epoch census** — [`FloodEngine`] picked up a
//!    1-bit-per-node visited set for huge graphs; for any graph both
//!    representations must produce bitwise-equal floods, censuses, and
//!    fault statistics.
//! 3. **Packed placement vs `Vec<Vec<u32>>` holders** — the CSR posting
//!    store behind [`Placement`] must answer every holder query exactly
//!    like the per-object vectors it replaced.

use proptest::prelude::*;
use qcp_faults::{FaultConfig, FaultPlan};
use qcp_obs::NoopRecorder;
use qcp_overlay::flood::{FloodEngine, FloodSpec, VisitedRepr};
use qcp_overlay::placement::PlacementModel;
use qcp_overlay::{topology, Graph, Placement};
use std::collections::HashSet;

// ---------------------------------------------------------------------
// 1. Streaming CSR builder vs the legacy hash-set + Vec<Vec> build.
// ---------------------------------------------------------------------

/// The pre-refactor construction, verbatim in spirit: dedup unordered
/// pairs with a keep-first hash set, drop self-loops, then append both
/// directions into per-node vectors in emission order.
fn legacy_adjacency(num_nodes: usize, edge_list: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut adj = vec![Vec::new(); num_nodes];
    for &(a, b) in edge_list {
        if a == b {
            continue;
        }
        if seen.insert((a.min(b), a.max(b))) {
            adj[a.min(b) as usize].push(a.max(b));
            adj[a.max(b) as usize].push(a.min(b));
        }
    }
    adj
}

/// An arbitrary messy edge list over `n` nodes: duplicates (in both
/// orientations) and self-loops included.
fn messy_edges(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..n, 0..n), 0..200)
}

fn assert_graph_matches_adjacency(g: &Graph, adj: &[Vec<u32>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.num_nodes(), adj.len());
    for (u, want) in adj.iter().enumerate() {
        prop_assert_eq!(
            g.neighbors(u as u32),
            want.as_slice(),
            "neighbor list of node {} (order is load-bearing)",
            u
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_edges_matches_legacy_adjacency(edges in messy_edges(40)) {
        let g = Graph::from_edges(40, &edges);
        let adj = legacy_adjacency(40, &edges);
        assert_graph_matches_adjacency(&g, &adj)?;
    }

    #[test]
    fn unique_stream_builder_matches_legacy_adjacency(edges in messy_edges(40)) {
        // Pre-dedup with the legacy hash set, then feed the survivors to
        // the two-pass streaming builder: both passes replay the same
        // normalized sequence, which is exactly the generators' contract.
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let unique: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .filter(|&e| seen.insert(e))
            .collect();
        let g = Graph::from_unique_edge_stream(40, |sink| {
            for &(a, b) in &unique {
                sink(a, b);
            }
        });
        let adj = legacy_adjacency(40, &unique);
        assert_graph_matches_adjacency(&g, &adj)?;
    }

    #[test]
    fn streamed_generators_build_sane_reproducible_graphs(seed in 0u64..500) {
        // The streaming generators no longer materialize an edge list we
        // could hand to the legacy builder, so pin what the legacy build
        // guaranteed structurally: simple symmetric adjacency, and
        // seed-determinism of the exact CSR layout.
        let n = 300;
        let graphs = [
            topology::gnutella_two_tier(&topology::TopologyConfig {
                num_nodes: n,
                seed,
                ..Default::default()
            })
            .graph,
            topology::barabasi_albert(n, 3, seed).graph,
            topology::erdos_renyi(n, 4.0, seed).graph,
            topology::random_regular(n, 4, seed).graph,
        ];
        for g in &graphs {
            let mut directed = 0usize;
            for u in 0..n as u32 {
                let nbrs = g.neighbors(u);
                directed += nbrs.len();
                let distinct: HashSet<u32> = nbrs.iter().copied().collect();
                prop_assert_eq!(distinct.len(), nbrs.len(), "duplicate neighbor at {}", u);
                prop_assert!(!distinct.contains(&u), "self-loop at {}", u);
                for &w in nbrs {
                    prop_assert!(
                        g.neighbors(w).contains(&u),
                        "asymmetric edge {} -> {}", u, w
                    );
                }
            }
            prop_assert_eq!(directed, 2 * g.num_edges());
        }
        // Same seed, second run: bitwise-identical neighbor lists.
        let again = topology::gnutella_two_tier(&topology::TopologyConfig {
            num_nodes: n,
            seed,
            ..Default::default()
        })
        .graph;
        prop_assert_eq!(again.num_edges(), graphs[0].num_edges());
        for u in 0..n as u32 {
            prop_assert_eq!(again.neighbors(u), graphs[0].neighbors(u));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Bitset visited marks vs epoch-stamped visited marks.
// ---------------------------------------------------------------------

/// A small world plus sorted holders, as in `prop_census.rs`.
fn world(seed: u64, holder_seed: u64, n: usize) -> (Graph, Vec<u32>) {
    let g = topology::erdos_renyi(n, 4.0, seed).graph;
    let holders: Vec<u32> = (0..n as u32)
        .filter(|&v| qcp_util::hash::mix64(holder_seed ^ v as u64).is_multiple_of(17))
        .collect();
    (g, holders)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitset_census_matches_epoch_census(seed in 0u64..500, hseed in 0u64..500,
                                          source in 0u32..200, max_ttl in 0u32..10) {
        let (g, holders) = world(seed, hseed, 200);
        let mut epoch = FloodEngine::with_repr(200, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(200, VisitedRepr::Bitset);
        prop_assert_eq!(epoch.repr(), VisitedRepr::EpochMarks);
        prop_assert_eq!(bits.repr(), VisitedRepr::Bitset);

        let spec = FloodSpec::new(max_ttl);
        let (ce, _) = epoch.run(&g, source, &holders, None, &spec, &mut NoopRecorder);
        let (cb, _) = bits.run(&g, source, &holders, None, &spec, &mut NoopRecorder);
        prop_assert_eq!(&ce.reached, &cb.reached);
        prop_assert_eq!(&ce.messages, &cb.messages);
        prop_assert_eq!(&ce.first_hit_hop, &cb.first_hit_hop);

        let fe = epoch.flood_reference(&g, source, max_ttl, &holders, None, None).0;
        let fb = bits.flood_reference(&g, source, max_ttl, &holders, None, None).0;
        prop_assert_eq!(fe.reached, fb.reached);
        prop_assert_eq!(fe.messages, fb.messages);
        prop_assert_eq!(fe.found, fb.found);
        prop_assert_eq!(fe.found_at_hop, fb.found_at_hop);
        // The post-flood queries must agree too: they read the visited
        // marks through the representation.
        for v in 0..200u32 {
            prop_assert_eq!(epoch.was_reached(v), bits.was_reached(v));
        }
    }

    #[test]
    fn bitset_faulty_census_matches_epoch(seed in 0u64..300, hseed in 0u64..300,
                                          source in 0u32..200, max_ttl in 0u32..8,
                                          nonce in 0u64..1_000, time in 0u64..100) {
        let (g, holders) = world(seed, hseed, 200);
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.25,
                churn: 0.30,
                seed: seed ^ hseed.rotate_left(17),
                ..Default::default()
            },
        );
        let mut epoch = FloodEngine::with_repr(200, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(200, VisitedRepr::Bitset);
        let spec = FloodSpec::new(max_ttl).faulty(&plan, time, nonce);
        let (ce, se) = epoch.run(&g, source, &holders, None, &spec, &mut NoopRecorder);
        let (cb, sb) = bits.run(&g, source, &holders, None, &spec, &mut NoopRecorder);
        prop_assert_eq!(&ce.reached, &cb.reached);
        prop_assert_eq!(&ce.messages, &cb.messages);
        prop_assert_eq!(&ce.first_hit_hop, &cb.first_hit_hop);
        prop_assert_eq!(se, sb, "fault statistics must not see the representation");
    }
}

// ---------------------------------------------------------------------
// 3. Packed CSR placement vs per-object holder vectors.
// ---------------------------------------------------------------------

/// The legacy holder store: one sorted, deduplicated vector per object.
fn legacy_holders(lists: &[Vec<u32>]) -> Vec<Vec<u32>> {
    lists
        .iter()
        .map(|l| {
            let mut v = l.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_placement_matches_vecvec_reference(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..50, 0..12), 0..20),
    ) {
        let p = Placement::from_holder_lists(50, lists.clone());
        let want = legacy_holders(&lists);
        prop_assert_eq!(p.num_objects(), want.len());
        prop_assert_eq!(p.num_peers(), 50);
        let total: usize = want.iter().map(Vec::len).sum();
        for (o, holders) in want.iter().enumerate() {
            prop_assert_eq!(p.holders(o as u32), holders.as_slice(), "object {}", o);
            prop_assert_eq!(p.replicas(o as u32) as usize, holders.len());
            for peer in 0..50u32 {
                prop_assert_eq!(
                    p.peer_holds(peer, o as u32),
                    holders.binary_search(&peer).is_ok()
                );
            }
        }
        if !want.is_empty() {
            let mean = total as f64 / want.len() as f64;
            prop_assert_eq!(p.mean_replicas().to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn generated_placement_is_sorted_distinct_and_reproducible(
        seed in 0u64..500, peers in 2u32..200, objects in 1u32..40,
    ) {
        for model in [
            PlacementModel::UniformK(3.min(peers)),
            PlacementModel::ZipfReplicas { tau: 2.05 },
        ] {
            let p = Placement::generate(model, peers, objects, seed);
            prop_assert_eq!(p.num_objects(), objects as usize);
            for o in 0..objects {
                let h = p.holders(o);
                prop_assert!(!h.is_empty(), "every object has at least one replica");
                prop_assert!(h.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
                prop_assert!(h.iter().all(|&v| v < peers));
            }
            // Packed layout is a pure function of the model inputs.
            let q = Placement::generate(model, peers, objects, seed);
            for o in 0..objects {
                prop_assert_eq!(p.holders(o), q.holders(o));
            }
        }
    }
}
