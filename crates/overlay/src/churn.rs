//! Node churn: fail-stop departures.
//!
//! The paper's companion work (its ref \[14\], "Improving search using a
//! fault-tolerant overlay") motivates asking how the Figure 8 conclusions
//! hold up when peers leave. This module applies fail-stop churn to a
//! topology: failed nodes lose all edges (and, at the search layer, their
//! replicas), surviving structure is otherwise untouched.

use crate::graph::Graph;
use qcp_util::rng::Pcg64;

/// Result of applying churn.
#[derive(Debug, Clone)]
pub struct ChurnedOverlay {
    /// The surviving graph (same node-id space; failed nodes isolated).
    pub graph: Graph,
    /// `alive[n]` is false for failed nodes.
    pub alive: Vec<bool>,
    /// Number of failed nodes.
    pub failed: usize,
}

/// Fails a uniformly random `fraction` of nodes.
///
/// `fraction` is inclusive on both ends: `0.0` fails nobody and `1.0`
/// fails the whole network (useful as a degenerate bound in sweeps).
pub fn fail_random(graph: &Graph, fraction: f64, seed: u64) -> ChurnedOverlay {
    assert!((0.0..=1.0).contains(&fraction));
    let n = graph.num_nodes();
    let mut rng = Pcg64::with_stream(seed, 0xc8de);
    let k = (n as f64 * fraction).round() as usize;
    let mut alive = vec![true; n];
    for idx in rng.sample_distinct(n, k) {
        alive[idx] = false;
    }
    rebuild(graph, alive)
}

/// Fails the `fraction` highest-degree nodes — targeted churn, the worst
/// case for hub-dependent topologies (ultrapeers, BA hubs).
///
/// `fraction` is inclusive on both ends, like [`fail_random`]. Ties in
/// degree are broken by node id (ascending), so the failed set is a
/// deterministic function of the graph alone — `sort_unstable` with a
/// degree-only key would let equal-degree nodes land in
/// implementation-defined order.
pub fn fail_highest_degree(graph: &Graph, fraction: f64) -> ChurnedOverlay {
    assert!((0.0..=1.0).contains(&fraction));
    let n = graph.num_nodes();
    let k = (n as f64 * fraction).round() as usize;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&u| (std::cmp::Reverse(graph.degree(u)), u));
    let mut alive = vec![true; n];
    for &u in order.iter().take(k) {
        alive[u as usize] = false;
    }
    rebuild(graph, alive)
}

fn rebuild(graph: &Graph, alive: Vec<bool>) -> ChurnedOverlay {
    let mut edges = Vec::new();
    for u in 0..graph.num_nodes() as u32 {
        if !alive[u as usize] {
            continue;
        }
        for &v in graph.neighbors(u) {
            if u < v && alive[v as usize] {
                edges.push((u, v));
            }
        }
    }
    let failed = alive.iter().filter(|&&a| !a).count();
    ChurnedOverlay {
        graph: Graph::from_edges(graph.num_nodes(), &edges),
        alive,
        failed,
    }
}

/// Filters a sorted holder list down to alive peers.
///
/// # Precondition
///
/// Every holder id must index into `alive`: `h < alive.len()` for all
/// `h` in `holders`. Holder lists come from [`crate::Placement`] over the
/// same node universe as the alive mask, so a violation means the caller
/// mixed a placement with a mask from a different topology — a logic bug,
/// caught eagerly by a `debug_assert!` here (and by the slice bounds check
/// in release builds).
pub fn surviving_holders(holders: &[u32], alive: &[bool]) -> Vec<u32> {
    holders
        .iter()
        .copied()
        .filter(|&h| {
            debug_assert!(
                (h as usize) < alive.len(),
                "holder {h} out of range for alive mask of {} nodes — \
                 placement and churn mask must cover the same node universe",
                alive.len()
            );
            alive[h as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{erdos_renyi, gnutella_two_tier, TopologyConfig};

    #[test]
    fn fail_random_removes_requested_fraction() {
        let t = erdos_renyi(1_000, 6.0, 1);
        let c = fail_random(&t.graph, 0.3, 2);
        assert_eq!(c.failed, 300);
        assert_eq!(c.alive.iter().filter(|&&a| !a).count(), 300);
        // Failed nodes are isolated.
        for u in 0..1_000u32 {
            if !c.alive[u as usize] {
                assert_eq!(c.graph.degree(u), 0);
            }
        }
    }

    #[test]
    fn surviving_edges_connect_only_alive_nodes() {
        let t = erdos_renyi(500, 5.0, 3);
        let c = fail_random(&t.graph, 0.2, 4);
        for u in 0..500u32 {
            for &v in c.graph.neighbors(u) {
                assert!(c.alive[u as usize] && c.alive[v as usize]);
            }
        }
    }

    #[test]
    fn zero_churn_preserves_graph() {
        let t = erdos_renyi(300, 5.0, 5);
        let c = fail_random(&t.graph, 0.0, 6);
        assert_eq!(c.failed, 0);
        assert_eq!(c.graph.num_edges(), t.graph.num_edges());
    }

    #[test]
    fn targeted_churn_hits_hubs() {
        let t = gnutella_two_tier(&TopologyConfig {
            num_nodes: 1_000,
            ..Default::default()
        });
        let c = fail_highest_degree(&t.graph, 0.10);
        // The 10% highest-degree nodes in a two-tier net are ultrapeers;
        // connectivity collapses far more than under random churn.
        let random = fail_random(&t.graph, 0.10, 7);
        assert!(
            c.graph.largest_component() < random.graph.largest_component(),
            "targeted churn must fragment more: {} vs {}",
            c.graph.largest_component(),
            random.graph.largest_component()
        );
    }

    #[test]
    fn surviving_holders_filters() {
        let alive = vec![true, false, true, false];
        assert_eq!(surviving_holders(&[0, 1, 2, 3], &alive), vec![0, 2]);
        assert!(surviving_holders(&[1, 3], &alive).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range for alive mask")]
    #[cfg(debug_assertions)]
    fn surviving_holders_rejects_out_of_range_holder() {
        // A holder id from a bigger universe than the mask: the
        // debug_assert must fire with a diagnosable message rather than
        // letting the raw index panic explain nothing.
        let alive = vec![true, true];
        let _ = surviving_holders(&[0, 5], &alive);
    }

    #[test]
    fn churn_is_deterministic() {
        let t = erdos_renyi(400, 5.0, 8);
        let a = fail_random(&t.graph, 0.25, 9);
        let b = fail_random(&t.graph, 0.25, 9);
        assert_eq!(a.alive, b.alive);
    }

    #[test]
    fn targeted_churn_breaks_degree_ties_by_node_id() {
        // A cycle is maximally tie-heavy: every node has degree 2, so the
        // failed set is decided purely by the tie-break. It must be the
        // lowest node ids, and identical across repeated calls.
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n as usize, &edges);
        let c = fail_highest_degree(&g, 0.25);
        assert_eq!(c.failed, 25);
        for u in 0..n {
            assert_eq!(
                c.alive[u as usize],
                u >= 25,
                "equal-degree ties must fail ascending node ids first"
            );
        }
        let again = fail_highest_degree(&g, 0.25);
        assert_eq!(c.alive, again.alive);
    }

    #[test]
    fn fraction_endpoints_are_inclusive() {
        let t = erdos_renyi(50, 4.0, 30);
        let none_r = fail_random(&t.graph, 0.0, 31);
        assert_eq!(none_r.failed, 0);
        let all_r = fail_random(&t.graph, 1.0, 31);
        assert_eq!(all_r.failed, 50);
        assert_eq!(all_r.graph.num_edges(), 0);
        let none_t = fail_highest_degree(&t.graph, 0.0);
        assert_eq!(none_t.failed, 0);
        assert_eq!(none_t.graph.num_edges(), t.graph.num_edges());
        let all_t = fail_highest_degree(&t.graph, 1.0);
        assert_eq!(all_t.failed, 50);
        assert_eq!(all_t.graph.num_edges(), 0);
    }

    #[test]
    #[should_panic]
    fn fraction_above_one_is_rejected() {
        let t = erdos_renyi(10, 3.0, 32);
        let _ = fail_random(&t.graph, 1.01, 33);
    }

    #[test]
    fn churned_overlay_invariants_hold() {
        // Cross-cutting invariants after rebuild, under both churn kinds:
        // (1) no surviving edge touches a dead node, (2) `failed` matches
        // the alive mask, (3) the rebuilt degree sum equals 2x the
        // surviving edge count and never exceeds the original.
        let t = gnutella_two_tier(&TopologyConfig {
            num_nodes: 600,
            ..Default::default()
        });
        for c in [
            fail_random(&t.graph, 0.35, 40),
            fail_highest_degree(&t.graph, 0.35),
        ] {
            assert_eq!(c.alive.len(), t.graph.num_nodes());
            assert_eq!(c.failed, c.alive.iter().filter(|&&a| !a).count());
            assert_eq!(c.graph.num_nodes(), t.graph.num_nodes());
            let mut degree_sum = 0usize;
            for u in 0..c.graph.num_nodes() as u32 {
                let d = c.graph.degree(u);
                degree_sum += d;
                if !c.alive[u as usize] {
                    assert_eq!(d, 0, "dead node {u} kept edges");
                }
                for &v in c.graph.neighbors(u) {
                    assert!(c.alive[v as usize], "edge {u}-{v} touches dead node");
                    assert!(c.graph.neighbors(v).contains(&u), "edge {u}-{v} one-way");
                }
                assert!(d <= t.graph.degree(u), "churn grew degree of {u}");
            }
            assert_eq!(degree_sum, 2 * c.graph.num_edges());
        }
    }
}
