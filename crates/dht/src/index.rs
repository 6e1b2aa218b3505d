//! Distributed inverted keyword index over the Chord ring.
//!
//! Keyword search over a DHT (the approach of the paper's hybrid refs):
//! every object is published once per annotation term — the posting list
//! for term `t` lives at `successor(hash(t))`. A multi-term query performs
//! one lookup per term, fetches the posting lists, and intersects them at
//! the querier (Gnutella AND semantics). Costs are accounted in routing
//! hops plus one message per posting-list transfer.

use crate::chord::ChordNetwork;
use crate::ring::key_for_term;
use qcp_faults::{FaultPlan, FaultStats, RetryPolicy};
use qcp_util::hash::mix64;
use qcp_util::FxHashMap;

/// Outcome of a DHT keyword query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhtQueryOutcome {
    /// Objects matching *all* query terms.
    pub results: Vec<u32>,
    /// Total routing hops across all term lookups.
    pub hops: u32,
    /// Total messages: hops plus one transfer per posting list.
    pub messages: u64,
}

/// Outcome of a deadline-bounded DHT keyword query
/// ([`DhtIndex::query_keys_timed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedQueryOutcome {
    /// Objects matching all terms *resolved so far* — the full AND
    /// intersection when the query completed, the best-so-far partial
    /// intersection when the deadline landed mid-query.
    pub results: Vec<u32>,
    /// Total routing hops across the resolved term lookups.
    pub hops: u32,
    /// Total messages: lookup transmissions plus posting-list transfers.
    pub messages: u64,
    /// Virtual time consumed: lookup elapsed times plus transfer
    /// latencies, serial across terms.
    pub elapsed: u64,
    /// Whether the budget ran out before every term resolved.
    pub deadline_exceeded: bool,
}

/// One term lookup as [`DhtIndex::and_query`] consumes it.
#[derive(Default)]
struct TermLookup {
    /// The resolved owner; `None` fails the AND query (unless `cut`).
    owner: Option<u32>,
    hops: u32,
    /// Lookup transmissions (the posting-list transfer is added later).
    messages: u64,
    /// The budget ran out before this term resolved.
    cut: bool,
}

/// The index: per-node storage of term posting lists.
#[derive(Debug, Clone)]
pub struct DhtIndex {
    /// Per node: term-key → sorted posting list of object ids.
    storage: Vec<FxHashMap<u64, Vec<u32>>>,
    /// Publication cost in hops (accumulated for reporting).
    publish_hops: u64,
}

impl DhtIndex {
    /// Creates an empty index for `net`.
    pub fn new(net: &ChordNetwork) -> Self {
        Self {
            storage: vec![FxHashMap::default(); net.len()],
            publish_hops: 0,
        }
    }

    /// Publishes `object` under `term`, routing from `from`.
    pub fn publish(&mut self, net: &ChordNetwork, from: u32, term: &str, object: u32) {
        self.publish_key(net, from, key_for_term(term), object);
    }

    /// Publishes `object` under a pre-hashed ring key (symbol-level callers
    /// hash their own term space).
    pub fn publish_key(&mut self, net: &ChordNetwork, from: u32, key: u64, object: u32) {
        let r = net.lookup(from, key);
        self.publish_hops += r.hops as u64;
        let list = self.storage[r.owner as usize].entry(key).or_default();
        if let Err(pos) = list.binary_search(&object) {
            list.insert(pos, object);
        }
    }

    /// Total hops spent on publications so far.
    pub fn publish_hops(&self) -> u64 {
        self.publish_hops
    }

    /// Number of `(node, term)` posting lists stored.
    pub fn stored_lists(&self) -> usize {
        self.storage.iter().map(|m| m.len()).sum()
    }

    /// Multi-term AND query from node `from`.
    ///
    /// Empty term sets return no results (as in `qcp-terms` matching).
    pub fn query(&self, net: &ChordNetwork, from: u32, terms: &[&str]) -> DhtQueryOutcome {
        let keys: Vec<u64> = terms.iter().map(|t| key_for_term(t)).collect();
        self.query_keys(net, from, &keys)
    }

    /// Multi-key AND query (symbol-level variant of [`Self::query`]).
    pub fn query_keys(&self, net: &ChordNetwork, from: u32, terms: &[u64]) -> DhtQueryOutcome {
        let mut stats = FaultStats::default();
        let (out, _) = self.and_query(net, terms, &mut stats, |_, key, _| {
            let r = net.lookup(from, key);
            TermLookup {
                owner: Some(r.owner),
                hops: r.hops,
                messages: r.hops as u64,
                cut: false,
            }
        });
        out
    }

    /// Multi-key AND query under a [`FaultPlan`].
    ///
    /// Each term lookup routes with [`ChordNetwork::lookup_faulty`] (so
    /// hops can be dropped, retried, and timed out). A term whose lookup
    /// fails outright makes the whole AND query fail — the querier cannot
    /// distinguish "no postings" from "index unreachable".
    ///
    /// **Staleness**: when a resolved (alive) owner has no posting list
    /// for a term, but the term's *fault-free* home node is currently
    /// down and does hold the list, the posting is stranded on a departed
    /// owner — counted in [`FaultStats::stale_misses`]. This models an
    /// index whose re-replication has not caught up with churn.
    #[allow(clippy::too_many_arguments)] // mirrors `query_keys` + the fault context
    pub fn query_keys_faulty(
        &self,
        net: &ChordNetwork,
        from: u32,
        terms: &[u64],
        plan: &FaultPlan,
        policy: &RetryPolicy,
        time: u64,
        nonce: u64,
    ) -> (DhtQueryOutcome, FaultStats) {
        let mut stats = FaultStats::default();
        let (out, _) = self.and_query(net, terms, &mut stats, |i, key, stats| {
            let (r, term_stats) =
                net.lookup_faulty(from, key, plan, policy, time, mix64(nonce ^ i as u64));
            stats.absorb(&term_stats);
            TermLookup {
                owner: r.owner,
                hops: r.hops,
                messages: r.messages,
                cut: false,
            }
        });
        (out, stats)
    }

    /// Deadline-bounded multi-key AND query on the virtual-time engine.
    ///
    /// Term lookups run *serially* on one virtual timeline — each term
    /// routes with [`ChordNetwork::lookup_timed`] under the budget that
    /// remains after its predecessors, and a resolved term's
    /// posting-list transfer charges one message plus
    /// `plan.latency(from, owner)` ticks before the next term starts.
    ///
    /// Degradation contract (the deadline-degraded search's backbone):
    ///
    /// * a lookup truncated by the budget — or a budget already
    ///   exhausted before a term starts — sets `deadline_exceeded` and
    ///   returns the **best-so-far partial intersection** over the terms
    ///   that did resolve (possibly over-approximate: unresolved terms
    ///   never filtered it);
    /// * a lookup that fails outright *within* the budget keeps the
    ///   fail-hard semantics of [`Self::query_keys_faulty`]: the AND
    ///   query returns no results (the querier cannot distinguish "no
    ///   postings" from "index unreachable");
    /// * stale-miss accounting is identical to the instant-path query.
    #[allow(clippy::too_many_arguments)] // mirrors `query_keys_faulty` + the budget
    pub fn query_keys_timed(
        &self,
        net: &ChordNetwork,
        from: u32,
        terms: &[u64],
        plan: &FaultPlan,
        policy: &RetryPolicy,
        time: u64,
        nonce: u64,
        budget: Option<u64>,
    ) -> (TimedQueryOutcome, FaultStats) {
        // The query's virtual clock is `stats.ticks`: lookup times plus
        // transfer latencies, serial across terms.
        let mut stats = FaultStats::default();
        let (out, cut) = self.and_query(net, terms, &mut stats, |i, key, stats| {
            let remaining = budget.map(|b| b.saturating_sub(stats.ticks));
            if remaining == Some(0) {
                return TermLookup {
                    cut: true,
                    ..TermLookup::default()
                };
            }
            let nonce = mix64(nonce ^ i as u64);
            let (r, term_stats) = net.lookup_timed(from, key, plan, policy, time, nonce, remaining);
            stats.absorb(&term_stats);
            if let Some(owner) = r.owner {
                stats.ticks += plan.latency(from, owner); // posting-list transfer
            }
            TermLookup {
                owner: r.owner,
                hops: r.hops,
                messages: r.messages,
                cut: r.truncated,
            }
        });
        let elapsed = stats.ticks;
        let timed = TimedQueryOutcome {
            results: out.results,
            hops: out.hops,
            messages: out.messages,
            elapsed,
            deadline_exceeded: cut || budget.is_some_and(|b| elapsed > b),
        };
        (timed, stats)
    }

    /// The AND-query loop behind the three `query_keys*` variants: for
    /// each term, `lookup(i, key, stats)` routes to its owner, then the
    /// posting list is transferred (one message), a stranded posting is
    /// counted stale, and the running intersection is narrowed. A failed
    /// lookup empties the result; a cut one keeps the partial
    /// intersection (and returns `true` beside the outcome); an empty
    /// intersection ends the query early.
    fn and_query(
        &self,
        net: &ChordNetwork,
        terms: &[u64],
        stats: &mut FaultStats,
        mut lookup: impl FnMut(usize, u64, &mut FaultStats) -> TermLookup,
    ) -> (DhtQueryOutcome, bool) {
        let mut out = DhtQueryOutcome {
            results: Vec::new(),
            hops: 0,
            messages: 0,
        };
        let mut cut = false;
        let mut result: Option<Vec<u32>> = None;
        for (i, &key) in terms.iter().enumerate() {
            let term = lookup(i, key, stats);
            out.hops += term.hops;
            out.messages += term.messages;
            if term.cut {
                cut = true;
                break; // partial intersection over the resolved terms
            }
            let Some(owner) = term.owner else {
                // Routing failed: the AND query fails outright.
                result = Some(Vec::new());
                break;
            };
            out.messages += 1; // posting-list transfer
            let list = self.storage[owner as usize].get(&key);
            if list.is_none() {
                let home = net.successor_of_key(key);
                if home != owner && self.storage[home as usize].contains_key(&key) {
                    stats.stale_misses += 1;
                }
            }
            let list = list.map_or(&[][..], Vec::as_slice);
            let narrowed = match &result {
                None => list.to_vec(),
                Some(acc) => intersect_sorted(acc, list),
            };
            let done = narrowed.is_empty();
            result = Some(narrowed);
            if done {
                break; // AND already failed; remaining terms can't help
            }
        }
        out.results = result.unwrap_or_default();
        (out, cut)
    }

    /// Removes node `v`'s storage slot, keeping the index aligned with the
    /// shifted node table after [`ChordNetwork::leave`]. Call this with
    /// the same `v` passed to `leave`, *after* the ring update.
    ///
    /// Returns the departed node's posting lists. Callers model a
    /// *graceful* departure by re-publishing the returned `(key, objects)`
    /// pairs (ownership handoff), or an *abrupt* one by dropping them —
    /// in which case those postings are simply gone and later queries for
    /// the keys come back empty.
    pub fn remove_node(&mut self, v: u32) -> FxHashMap<u64, Vec<u32>> {
        self.storage.remove(v as usize)
    }

    /// Re-replicates posting lists orphaned by owner departure: every
    /// list held by a node that is down under `alive` is copied (merged)
    /// onto the key's first **alive** successor — the owner that faulty
    /// queries actually resolve, so their `stale_misses` decay as this
    /// maintenance catches up with churn.
    ///
    /// Modeling note: in a deployed ring the data survives on the
    /// owner's `r` successor replicas; the simulator keeps one copy and
    /// lets the maintenance daemon re-materialize it on the new owner.
    /// The down node keeps its copy (it may come back; publishes are
    /// idempotent merges, so double-placement is harmless).
    ///
    /// Keys are visited in sorted order per node (never hash order), so
    /// the pass is deterministic. A transfer is skipped when the
    /// destination already holds every object (the daemon compares digests
    /// before shipping), so the pass is *idempotent with zero cost at the
    /// fixed point*: a second identical call returns `(0, 0)`. Returns
    /// `(lists_copied, messages)` with one transfer message per copied
    /// list.
    pub fn re_replicate(&mut self, net: &ChordNetwork, alive: &[bool]) -> (u64, u64) {
        assert_eq!(alive.len(), net.len(), "alive mask must cover the ring");
        let mut lists = 0u64;
        let mut messages = 0u64;
        for h in 0..net.len() {
            if alive[h] || self.storage[h].is_empty() {
                continue;
            }
            let mut keys: Vec<u64> = self.storage[h].keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let Some(dest) = net.first_alive_successor(key, alive) else {
                    continue; // nobody alive to host the list
                };
                if dest as usize == h {
                    continue;
                }
                let Some(src) = self.storage[h].get(&key).cloned() else {
                    continue;
                };
                let list = self.storage[dest as usize].entry(key).or_default();
                let mut changed = false;
                for object in src {
                    if let Err(pos) = list.binary_search(&object) {
                        list.insert(pos, object);
                        changed = true;
                    }
                }
                if changed {
                    lists += 1;
                    messages += 1;
                }
            }
        }
        (lists, messages)
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn indexed_net() -> (ChordNetwork, DhtIndex) {
        let net = ChordNetwork::new(64, 42);
        let mut idx = DhtIndex::new(&net);
        // Object 1: "madonna like prayer"; object 2: "madonna hits";
        // object 3: "nirvana hits".
        for (obj, terms) in [
            (1u32, vec!["madonna", "like", "prayer"]),
            (2, vec!["madonna", "hits"]),
            (3, vec!["nirvana", "hits"]),
        ] {
            for t in terms {
                idx.publish(&net, obj % 64, t, obj);
            }
        }
        (net, idx)
    }

    #[test]
    fn single_term_query_returns_posting_list() {
        let (net, idx) = indexed_net();
        let out = idx.query(&net, 0, &["madonna"]);
        assert_eq!(out.results, vec![1, 2]);
        assert!(out.messages >= 1);
    }

    #[test]
    fn multi_term_query_intersects() {
        let (net, idx) = indexed_net();
        let out = idx.query(&net, 5, &["madonna", "hits"]);
        assert_eq!(out.results, vec![2]);
        let out2 = idx.query(&net, 5, &["madonna", "nirvana"]);
        assert!(out2.results.is_empty());
    }

    #[test]
    fn unknown_term_yields_empty() {
        let (net, idx) = indexed_net();
        let out = idx.query(&net, 9, &["unknown"]);
        assert!(out.results.is_empty());
    }

    #[test]
    fn empty_query_is_empty_and_free() {
        let (net, idx) = indexed_net();
        let out = idx.query(&net, 0, &[]);
        assert!(out.results.is_empty());
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn duplicate_publish_is_idempotent() {
        let net = ChordNetwork::new(16, 1);
        let mut idx = DhtIndex::new(&net);
        idx.publish(&net, 0, "dup", 7);
        idx.publish(&net, 3, "dup", 7);
        let out = idx.query(&net, 2, &["dup"]);
        assert_eq!(out.results, vec![7]);
    }

    #[test]
    fn query_cost_scales_with_terms_not_network() {
        let net = ChordNetwork::new(1024, 2);
        let mut idx = DhtIndex::new(&net);
        idx.publish(&net, 0, "aa", 1);
        idx.publish(&net, 0, "bb", 1);
        idx.publish(&net, 0, "cc", 1);
        let one = idx.query(&net, 7, &["aa"]);
        let three = idx.query(&net, 7, &["aa", "bb", "cc"]);
        assert_eq!(three.results, vec![1]);
        // Each term lookup is O(log n): 3-term cost is bounded by ~3x the
        // 1-term bound, not by network size.
        assert!(three.hops <= 3 * net.hop_bound());
        assert!(one.hops <= net.hop_bound());
    }

    #[test]
    fn posting_lists_live_on_the_ring_owner() {
        let net = ChordNetwork::new(32, 3);
        let mut idx = DhtIndex::new(&net);
        idx.publish(&net, 11, "owner-check", 5);
        let key = key_for_term("owner-check");
        let owner = net.successor_of_key(key);
        assert!(idx.storage[owner as usize].contains_key(&key));
        assert_eq!(idx.stored_lists(), 1);
    }

    #[test]
    fn intersect_sorted_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert!(intersect_sorted(&[], &[1]).is_empty());
    }

    #[test]
    fn faulty_query_under_none_plan_matches_plain_results() {
        let (net, idx) = indexed_net();
        let plan = FaultPlan::none(64);
        let policy = RetryPolicy::default();
        for terms in [vec!["madonna"], vec!["madonna", "hits"], vec!["unknown"]] {
            let keys: Vec<u64> = terms.iter().map(|t| key_for_term(t)).collect();
            let plain = idx.query_keys(&net, 0, &keys);
            let (faulty, stats) = idx.query_keys_faulty(&net, 0, &keys, &plan, &policy, 0, 7);
            assert_eq!(plain.results, faulty.results, "terms {terms:?}");
            assert_eq!(stats.wasted(), 0);
            assert_eq!(stats.stale_misses, 0);
        }
    }

    #[test]
    fn timed_query_with_generous_budget_matches_plain_results() {
        let (net, idx) = indexed_net();
        let plan = FaultPlan::none(64);
        let policy = RetryPolicy::default();
        for terms in [vec!["madonna"], vec!["madonna", "hits"], vec!["unknown"]] {
            let keys: Vec<u64> = terms.iter().map(|t| key_for_term(t)).collect();
            let plain = idx.query_keys(&net, 0, &keys);
            let (faulty, _) = idx.query_keys_faulty(&net, 0, &keys, &plan, &policy, 0, 7);
            for budget in [None, Some(10_000)] {
                let (timed, stats) =
                    idx.query_keys_timed(&net, 0, &keys, &plan, &policy, 0, 7, budget);
                assert_eq!(plain.results, timed.results, "terms {terms:?}");
                // Same router as the instant fault path: identical route.
                assert_eq!(faulty.hops, timed.hops, "terms {terms:?} budget {budget:?}");
                assert_eq!(faulty.messages, timed.messages, "terms {terms:?}");
                assert!(!timed.deadline_exceeded);
                assert_eq!(stats.ticks, timed.elapsed);
            }
        }
    }

    #[test]
    fn timed_query_degrades_to_partial_results_at_the_deadline() {
        let (net, idx) = indexed_net();
        let plan = FaultPlan::none(64);
        let policy = RetryPolicy::default();
        let keys: Vec<u64> = ["madonna", "hits"]
            .iter()
            .map(|t| key_for_term(t))
            .collect();
        let (full, _) = idx.query_keys_timed(&net, 0, &keys, &plan, &policy, 0, 7, None);
        assert_eq!(full.results, vec![2]);
        assert!(full.elapsed > 1, "two lookups plus transfers take time");
        // Find a budget that resolves the first term but not the second:
        // the partial intersection is term one's whole posting list —
        // over-approximate best-so-far, flagged as deadline-exceeded.
        let partial = (1..full.elapsed).find_map(|budget| {
            let (out, _) = idx.query_keys_timed(&net, 0, &keys, &plan, &policy, 0, 7, Some(budget));
            (out.deadline_exceeded && !out.results.is_empty()).then_some(out)
        });
        let partial = partial.expect("some budget must cut between the two terms");
        assert_eq!(partial.results, vec![1, 2], "madonna postings, unfiltered");
        assert!(partial.elapsed <= full.elapsed);
        // Budget 0-ish: exceeded before anything resolves.
        let (none, _) = idx.query_keys_timed(&net, 0, &keys, &plan, &policy, 0, 7, Some(1));
        assert!(none.deadline_exceeded);
        assert!(none.results.is_empty());
    }

    #[test]
    fn timed_query_is_deterministic_under_faults() {
        use qcp_faults::FaultConfig;
        let (net, idx) = indexed_net();
        let plan = FaultPlan::build(
            64,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                mean_latency: 4,
                ..Default::default()
            },
        );
        let policy = RetryPolicy {
            jitter: Some(0xfee1),
            ..Default::default()
        };
        let keys: Vec<u64> = ["madonna", "hits"]
            .iter()
            .map(|t| key_for_term(t))
            .collect();
        for t in 0..20u64 {
            let run = || idx.query_keys_timed(&net, 0, &keys, &plan, &policy, t, t, Some(150));
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn stranded_posting_on_departed_owner_counts_stale() {
        let net = ChordNetwork::new(48, 5);
        let mut idx = DhtIndex::new(&net);
        idx.publish(&net, 0, "stale-term", 9);
        let key = key_for_term("stale-term");
        let home = net.successor_of_key(key);
        // Find a (plan, time) where the term's home node is down but
        // routing still resolves (some successor alive) and the querier
        // lives. Deterministic scan over seeds and ticks.
        let policy = RetryPolicy::default();
        let (plan, t) = stranding_scenario(&net, home, key);
        let (out, stats) = idx.query_keys_faulty(&net, 0, &[key], &plan, &policy, t, 11);
        assert!(
            out.results.is_empty(),
            "posting stranded on dead owner is unreachable"
        );
        assert_eq!(stats.stale_misses, 1, "stranded posting must count stale");
    }

    /// Deterministic scan for a `(plan, time)` where `home` is down, node
    /// 0 is alive, and routing can still resolve the key — shared by the
    /// staleness and re-replication tests.
    #[cfg(test)]
    fn stranding_scenario(net: &ChordNetwork, home: u32, key: u64) -> (qcp_faults::FaultPlan, u64) {
        use qcp_faults::FaultConfig;
        (0..200u64)
            .find_map(|seed| {
                let plan = FaultPlan::build(
                    net.len(),
                    &FaultConfig {
                        loss: 0.0,
                        churn: 0.6,
                        seed,
                        ..Default::default()
                    },
                );
                (0..1_000u64)
                    .find(|&t| {
                        !plan.alive_at(home, t)
                            && plan.alive_at(0, t)
                            && net.first_alive_successor_at(key, &plan, t).is_some()
                    })
                    .map(|t| (plan, t))
            })
            .expect("churn=0.6 must down the home node somewhere")
    }

    #[test]
    fn re_replication_decays_stale_misses() {
        let net = ChordNetwork::new(48, 5);
        let mut idx = DhtIndex::new(&net);
        idx.publish(&net, 0, "stale-term", 9);
        let key = key_for_term("stale-term");
        let home = net.successor_of_key(key);
        let policy = RetryPolicy::default();
        let (plan, t) = stranding_scenario(&net, home, key);
        // Before maintenance: the posting is stranded and counted stale.
        let (out, stats) = idx.query_keys_faulty(&net, 0, &[key], &plan, &policy, t, 11);
        assert!(out.results.is_empty());
        assert_eq!(stats.stale_misses, 1);
        // One maintenance pass at the churn snapshot: the orphaned list is
        // copied to the first alive successor...
        let alive = plan.alive_mask_at(t);
        let (lists, messages) = idx.re_replicate(&net, &alive);
        assert_eq!(lists, 1, "exactly the stranded list moves");
        assert_eq!(messages, 1);
        // ...and the same query now succeeds with zero stale misses.
        let (out, stats) = idx.query_keys_faulty(&net, 0, &[key], &plan, &policy, t, 11);
        assert_eq!(out.results, vec![9], "re-replicated posting is reachable");
        assert_eq!(stats.stale_misses, 0, "stale miss decays after maintenance");
        // The pass is idempotent with zero cost at the fixed point.
        assert_eq!(idx.re_replicate(&net, &alive), (0, 0));
    }

    #[test]
    fn re_replicate_is_deterministic_and_noop_when_all_alive() {
        let net = ChordNetwork::new(48, 5);
        let mut a = DhtIndex::new(&net);
        for (i, term) in ["aa", "bb", "cc", "dd"].iter().enumerate() {
            a.publish(&net, i as u32, term, i as u32);
        }
        let mut b = a.clone();
        // All alive: nothing is orphaned, nothing moves.
        let all = vec![true; net.len()];
        assert_eq!(a.re_replicate(&net, &all), (0, 0));
        // Under churn: two independent runs produce identical storage and
        // identical accounting.
        let mut alive = vec![true; net.len()];
        for (term, owner) in ["aa", "bb", "cc", "dd"]
            .iter()
            .map(|t| (*t, net.successor_of_key(key_for_term(t))))
        {
            let _ = term;
            alive[owner as usize] = false;
        }
        let ra = a.re_replicate(&net, &alive);
        let rb = b.re_replicate(&net, &alive);
        assert_eq!(ra, rb);
        assert!(ra.0 >= 1, "downed owners must orphan at least one list");
        for v in 0..net.len() {
            let mut ka: Vec<u64> = a.storage[v].keys().copied().collect();
            let mut kb: Vec<u64> = b.storage[v].keys().copied().collect();
            ka.sort_unstable();
            kb.sort_unstable();
            assert_eq!(ka, kb, "storage diverged at node {v}");
            for k in ka {
                assert_eq!(a.storage[v][&k], b.storage[v][&k]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "alive mask must cover the ring")]
    fn re_replicate_rejects_short_mask() {
        let net = ChordNetwork::new(8, 1);
        let mut idx = DhtIndex::new(&net);
        let _ = idx.re_replicate(&net, &[true; 4]);
    }

    #[test]
    fn remove_node_keeps_surviving_postings_aligned() {
        let net0 = ChordNetwork::new(32, 7);
        let mut net = net0.clone();
        let mut idx = DhtIndex::new(&net);
        let terms = ["alpha", "beta", "gamma", "delta", "epsilon"];
        for (i, t) in terms.iter().enumerate() {
            idx.publish(&net, (i % 32) as u32, t, i as u32);
        }
        // Remove a node that is NOT the owner of any published term, so
        // every posting must survive the index shift.
        let owners: Vec<u32> = terms
            .iter()
            .map(|t| net.successor_of_key(key_for_term(t)))
            .collect();
        let victim = (0..32u32)
            .find(|v| !owners.contains(v))
            .expect("32 nodes, 5 owners");
        net.leave(victim);
        let stranded = idx.remove_node(victim);
        assert!(stranded.is_empty(), "victim owned no posting lists");
        for (i, t) in terms.iter().enumerate() {
            let out = idx.query(&net, 0, &[t]);
            assert_eq!(out.results, vec![i as u32], "term {t} lost after leave");
        }
    }
}
