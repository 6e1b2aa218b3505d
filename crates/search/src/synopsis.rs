//! Synopsis-directed search — the paper's position, made concrete.
//!
//! Every peer advertises a budgeted Bloom synopsis of terms from its own
//! content to its neighbors; queries walk the overlay preferring neighbors
//! whose synopsis advertises the query's terms (one-hop lookahead).
//!
//! The *only* difference between the two policies is the admission weight:
//!
//! * [`SynopsisPolicy::ContentCentric`] — weight = local term frequency.
//!   The peer advertises what it stores most of. Because popular file
//!   terms ≠ popular query terms (Figure 7), the budget is spent on terms
//!   nobody asks for.
//! * [`SynopsisPolicy::QueryCentric`] — weight = observed global
//!   query-term popularity (an exponentially-decayed counter fed by
//!   [`SynopsisSearch::observe_queries`]). The peer advertises the subset
//!   of its content that users actually search for — including transiently
//!   popular terms, which enter the weights as soon as they are observed.
//!
//! Ablation A1 runs both at identical budgets and shows the query-centric
//! policy resolving substantially more queries per synopsis bit.

use crate::informed::{self, WalkPolicy};
use crate::systems::{SearchOutcome, SearchSystem};
use crate::world::{QuerySpec, SearchWorld};
use qcp_sketch::{SynopsisBudget, TermSynopsis};
use qcp_util::rng::Pcg64;
use qcp_util::{FxHashMap, Symbol};

/// Synopsis admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynopsisPolicy {
    /// Advertise the locally most frequent terms.
    ContentCentric,
    /// Advertise the terms most popular in observed queries.
    QueryCentric,
}

/// Synopsis-directed walk search.
#[derive(Debug)]
pub struct SynopsisSearch {
    /// Admission policy.
    policy: SynopsisPolicy,
    /// Walk budget in steps.
    ttl: u32,
    budget: SynopsisBudget,
    synopses: Vec<TermSynopsis>,
    /// Decayed global query-term popularity (term id → weight).
    query_weights: FxHashMap<u32, f64>,
    maintenance: u64,
}

impl SynopsisSearch {
    /// Builds the system and the initial synopses (which, before any
    /// queries are observed, are content-weighted under both policies).
    pub fn new(world: &SearchWorld, policy: SynopsisPolicy, budget_terms: usize, ttl: u32) -> Self {
        let budget = SynopsisBudget::for_terms(budget_terms, 0.01);
        let mut this = Self {
            policy,
            ttl,
            budget,
            synopses: Vec::new(),
            query_weights: FxHashMap::default(),
            maintenance: 0,
        };
        this.rebuild(world);
        this
    }

    /// Rebuilds every peer's synopsis under the current weights and counts
    /// the gossip cost (each peer ships its synopsis to every neighbor).
    fn rebuild(&mut self, world: &SearchWorld) {
        self.synopses = (0..world.num_peers() as u32)
            .map(|peer| {
                let counts = world.peer_term_counts(peer);
                let candidates: Vec<(Symbol, f64)> = counts
                    .iter()
                    .map(|(&t, &c)| {
                        let w = match self.policy {
                            SynopsisPolicy::ContentCentric => c as f64,
                            SynopsisPolicy::QueryCentric => {
                                // Query popularity dominates; the local
                                // count is a deterministic tie-breaker so
                                // unqueried terms still fill spare budget.
                                self.query_weights.get(&t).copied().unwrap_or(0.0) * 1_000.0
                                    + c as f64 * 1e-3
                            }
                        };
                        (Symbol(t), w)
                    })
                    .collect();
                TermSynopsis::build(self.budget, &candidates)
            })
            .collect();
        // Gossip: one synopsis message per directed edge.
        self.maintenance += world.topology.graph.num_edges() as u64 * 2;
    }

    /// Feeds observed queries into the popularity weights (EWMA with
    /// factor `decay` applied to the old mass) and rebuilds synopses.
    pub fn observe_queries(&mut self, world: &SearchWorld, queries: &[QuerySpec], decay: f64) {
        assert!((0.0..=1.0).contains(&decay));
        // qcplint: allow(unordered-iter) — independent per-entry scaling;
        // no cross-entry state, so visit order cannot affect any value.
        for w in self.query_weights.values_mut() {
            *w *= decay;
        }
        for q in queries {
            for &t in &q.terms {
                *self.query_weights.entry(t).or_insert(0.0) += 1.0;
            }
        }
        self.rebuild(world);
    }

    /// How many of `terms` a peer's synopsis advertises.
    fn advertised_count(&self, peer: u32, terms: &[u32]) -> usize {
        let syn = &self.synopses[peer as usize];
        terms.iter().filter(|&&t| syn.advertises(Symbol(t))).count()
    }
}

impl WalkPolicy for SynopsisSearch {
    /// A uniform draw among the neighbors whose synopses advertise the
    /// most query terms, or among all of them when none advertises any.
    fn pick(&self, unvisited: &[u32], query: &QuerySpec, rng: &mut Pcg64) -> u32 {
        let mut best_score = 0usize;
        let mut best: Vec<u32> = Vec::new();
        for &nb in unvisited {
            let score = self.advertised_count(nb, &query.terms);
            match score.cmp(&best_score) {
                std::cmp::Ordering::Greater => {
                    best_score = score;
                    best.clear();
                    best.push(nb);
                }
                std::cmp::Ordering::Equal if score > 0 => best.push(nb),
                _ => {}
            }
        }
        if best.is_empty() {
            unvisited[rng.index(unvisited.len())]
        } else {
            best[rng.index(best.len())]
        }
    }
}

impl SearchSystem for SynopsisSearch {
    fn name(&self) -> String {
        let p = match self.policy {
            SynopsisPolicy::ContentCentric => "content",
            SynopsisPolicy::QueryCentric => "query",
        };
        format!("synopsis({p},ttl={})", self.ttl)
    }

    fn search(&mut self, world: &SearchWorld, query: &QuerySpec, rng: &mut Pcg64) -> SearchOutcome {
        informed::walk(self, self.ttl, world, query, rng)
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
            num_objects: 5_000,
            num_terms: 6_000,
            head_size: 100,
            seed: 31,
            ..Default::default()
        })
    }

    fn queries(world: &SearchWorld, n: usize, seed: u64) -> Vec<QuerySpec> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| world.sample_query(&mut rng)).collect()
    }

    #[test]
    fn observe_queries_shifts_admissions() {
        let w = world();
        let mut sys = SynopsisSearch::new(&w, SynopsisPolicy::QueryCentric, 8, 30);
        let train = queries(&w, 2_000, 2);
        // Count pre/post admission of the most queried term.
        let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
        for q in &train {
            for &t in &q.terms {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let (&hot, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        let advertised_before: usize = (0..600)
            .filter(|&p| sys.advertised_count(p, &[hot]) > 0)
            .count();
        sys.observe_queries(&w, &train, 0.5);
        let advertised_after: usize = (0..600)
            .filter(|&p| sys.advertised_count(p, &[hot]) > 0)
            .count();
        assert!(
            advertised_after >= advertised_before,
            "hot term advertisement should not shrink: {advertised_before} -> {advertised_after}"
        );
    }

    #[test]
    fn query_centric_beats_content_centric_under_mismatch() {
        let w = world();
        let budget = 12;
        let ttl = 40;
        let train = queries(&w, 3_000, 3);
        let test = queries(&w, 600, 4);

        let mut content = SynopsisSearch::new(&w, SynopsisPolicy::ContentCentric, budget, ttl);
        let mut query_centric = SynopsisSearch::new(&w, SynopsisPolicy::QueryCentric, budget, ttl);
        query_centric.observe_queries(&w, &train, 0.5);

        let mut rng = Pcg64::new(5);
        let mut content_hits = 0;
        let mut qc_hits = 0;
        for q in &test {
            if content.search(&w, q, &mut rng).success {
                content_hits += 1;
            }
            if query_centric.search(&w, q, &mut rng).success {
                qc_hits += 1;
            }
        }
        assert!(
            qc_hits as f64 > content_hits as f64 * 1.15,
            "query-centric ({qc_hits}) must clearly beat content-centric ({content_hits})"
        );
    }

    #[test]
    fn maintenance_grows_with_rebuilds() {
        let w = world();
        let mut sys = SynopsisSearch::new(&w, SynopsisPolicy::QueryCentric, 8, 20);
        let m0 = sys.maintenance_messages();
        sys.observe_queries(&w, &queries(&w, 100, 9), 0.5);
        assert!(sys.maintenance_messages() > m0);
    }
}
