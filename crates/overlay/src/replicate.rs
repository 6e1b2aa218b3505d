//! Pluggable replication schemes: deterministic `Placement → Placement`
//! transforms (ROADMAP open item 2 — the Figure-8 counterfactual).
//!
//! The paper's Figure-8 claim is that realistic Zipf placement makes the
//! unstructured phase behave like ~1-replica uniform. This module asks
//! the explicit counter-question: *how much replication would it take to
//! rescue it?* Each [`ReplicationScheme`] is one answer from the
//! unstructured-P2P replication literature (the two Thampi surveys in
//! PAPERS.md), realized as a pure transform that takes the base
//! placement and a budget of extra copies and returns the replicated
//! placement:
//!
//! * **owner-only** — the identity baseline: the placement the trace
//!   generated, nothing added (budget must be 0);
//! * **path** — path replication (Freenet-style): a copy is cached
//!   along the route that served a query, modeled here as a short
//!   random route seeded at an existing replica;
//! * **random-walk** — Lv et al.: copies land on nodes sampled by an
//!   unbiased random walk from the requester, i.e. roughly
//!   degree-biased uniform spread;
//! * **sqrt** — Cohen & Shenker square-root allocation: replicas per
//!   object proportional to the *square root* of query popularity, the
//!   optimum for expected search size;
//! * **proportional** — replicas proportional to popularity itself
//!   (what uncoordinated caching converges to);
//! * **gia-one-hop** — Gia (paper ref \[17\]): pointers pushed one hop
//!   from each replica to the highest-capacity neighbor, approximated
//!   here by highest degree.
//!
//! # Determinism
//!
//! Every draw is a stateless `mix64` hash over `(seed, stream tag,
//! copy index, sub-draw)` — no RNG state is threaded anywhere, so the
//! transform is embarrassingly order-independent and bit-identical
//! across runs and thread counts. The stream tags are documented in
//! DESIGN.md §15.
//!
//! # Budget semantics
//!
//! `budget` is the *total number of extra copies* across all objects,
//! conserved exactly: the output holds `base + budget` replicas, no
//! more, no fewer (a deterministic fallback scan places copies whose
//! hash draws keep colliding with existing holders). Copies are placed
//! sequentially, and copy `k` depends only on copies `< k`, so the
//! placement at budget `b` is a strict subset of the placement at any
//! budget `b' > b` for the same seed. Flood success under common random
//! numbers is therefore *monotone in budget by construction* — the
//! `fig8-repl` artifact asserts this exactly, not statistically.

use crate::graph::Graph;
use crate::placement::Placement;
use qcp_util::hash::{mix64, FxHashSet};

/// Replication scheme menu (see module docs for provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationScheme {
    /// Identity baseline: the trace's own placement, budget must be 0.
    OwnerOnly,
    /// Copies cached along query routes seeded at existing replicas.
    Path,
    /// Copies at random-walk endpoints from uniform requesters.
    RandomWalk,
    /// Square-root allocation: copies drawn ∝ √popularity.
    SqrtAllocation,
    /// Proportional allocation: copies drawn ∝ popularity.
    ProportionalAllocation,
    /// Gia-style one-hop replication to the highest-degree neighbor.
    GiaOneHop,
}

impl ReplicationScheme {
    /// Every scheme, in the canonical grid order.
    pub const ALL: [ReplicationScheme; 6] = [
        ReplicationScheme::OwnerOnly,
        ReplicationScheme::Path,
        ReplicationScheme::RandomWalk,
        ReplicationScheme::SqrtAllocation,
        ReplicationScheme::ProportionalAllocation,
        ReplicationScheme::GiaOneHop,
    ];

    /// Stable snake-case name (CSV/JSON column key).
    pub fn name(self) -> &'static str {
        match self {
            ReplicationScheme::OwnerOnly => "owner_only",
            ReplicationScheme::Path => "path",
            ReplicationScheme::RandomWalk => "random_walk",
            ReplicationScheme::SqrtAllocation => "sqrt",
            ReplicationScheme::ProportionalAllocation => "proportional",
            ReplicationScheme::GiaOneHop => "gia_one_hop",
        }
    }
}

/// Query-popularity model driving per-object allocation.
///
/// Square-root and proportional allocation need a popularity signal;
/// path/random-walk/Gia replication also draw *which* object receives
/// each copy from it (queries drive caching).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every object equally popular (the Figure-8 uniform target model).
    Uniform,
    /// Popularity ∝ the base placement's replica counts — the crawl's
    /// own demand signal (replication in the wild tracks popularity,
    /// the premise behind the paper's Zipf placement).
    Replicas,
    /// Zipf over object id as popularity rank: `w(o) ∝ (o + 1)^{-s}`.
    Zipf {
        /// Zipf exponent.
        s: f64,
    },
}

/// A fully-specified replication pass: scheme, budget of extra copies,
/// popularity model, and hash seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPlan {
    /// Which scheme places the copies.
    pub scheme: ReplicationScheme,
    /// Total extra copies across all objects (conserved exactly).
    pub budget: u64,
    /// Popularity signal for object selection / allocation.
    pub popularity: Popularity,
    /// Seed for the stateless hash draws.
    pub seed: u64,
}

// Stream tags for the stateless draws (DESIGN.md §15). Each named
// stream is independent: the tag is mixed into the hash input, so
// draws on one stream never correlate with another.
/// Object selection for copy `k`.
const OBJECT_STREAM: u64 = 0x5e1e_c70b_1ec7;
/// Uniform peer selection (sqrt/proportional targets, walk starts).
const PEER_STREAM: u64 = 0x9ee5_0b5e_55ed;
/// Replica anchor selection (path/Gia seeding).
const HOLDER_STREAM: u64 = 0xa7c4_0a7c_405e;
/// Walk length selection (path/random-walk).
const LEN_STREAM: u64 = 0x1e57_4a1c_1e57;
/// Individual walk steps (path/random-walk routes).
const STEP_STREAM: u64 = 0x57e9_57e9_57e9;
/// Fallback scan starting points (hash-collision bailout).
const FALLBACK_STREAM: u64 = 0xfa11_b4c4_5ca9;

/// Scheme draw attempts per copy before the deterministic fallback scan.
const MAX_ATTEMPTS: u64 = 64;
/// Path replication route length is drawn from `[1, PATH_STEPS]`.
const PATH_STEPS: u64 = 4;
/// Random-walk replication walk length is drawn from `[1, WALK_STEPS]`.
const WALK_STEPS: u64 = 8;

/// One stateless draw: a pure function of the plan seed, a stream tag,
/// the copy index, and a per-copy sub-draw counter.
#[inline]
fn draw(seed: u64, tag: u64, copy: u64, sub: u64) -> u64 {
    mix64(
        seed ^ mix64(tag)
            ^ copy.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ sub.wrapping_mul(0xa076_1d64_78bd_642f),
    )
}

/// Maps a hash draw onto `[0, bound)` by the multiply-shift trick. The
/// bias is `< bound / 2^64` — immaterial at simulation bounds, and the
/// statelessness (one draw in, one value out, no rejection loop) is
/// what keeps the transform order-independent.
#[inline]
fn scaled(x: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((x as u128 * bound as u128) >> 64) as u64
}

/// Object selector: uniform short-circuits the cumulative table.
enum ObjectSampler {
    Uniform(u64),
    /// Cumulative weights; sampled by binary search over a 53-bit draw.
    Weighted(Vec<f64>),
}

impl ObjectSampler {
    fn build(plan: &ReplicationPlan, base: &Placement) -> Self {
        let n = base.num_objects();
        let weight = |o: usize| -> f64 {
            match plan.popularity {
                Popularity::Uniform => 1.0,
                Popularity::Replicas => base.replicas(o as u32) as f64,
                Popularity::Zipf { s } => (o as f64 + 1.0).powf(-s),
            }
        };
        let damp = matches!(plan.scheme, ReplicationScheme::SqrtAllocation);
        if matches!(plan.popularity, Popularity::Uniform) && !damp {
            return ObjectSampler::Uniform(n as u64);
        }
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for o in 0..n {
            let w = weight(o);
            total += if damp { w.sqrt() } else { w };
            cum.push(total);
        }
        assert!(total > 0.0, "popularity weights sum to zero");
        ObjectSampler::Weighted(cum)
    }

    #[inline]
    fn sample(&self, x: u64) -> u32 {
        match self {
            ObjectSampler::Uniform(n) => scaled(x, *n) as u32,
            ObjectSampler::Weighted(cum) => {
                // qcplint: allow(panic) — `build` rejects empty/zero tables.
                let total = *cum.last().unwrap();
                let t = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
                cum.partition_point(|&c| c <= t).min(cum.len() - 1) as u32
            }
        }
    }
}

/// Per-apply working state: the pending extras and fast holder lookup.
struct Extras {
    pairs: Vec<(u32, u32)>,
    /// `(object << 32) | peer` of every pending extra.
    seen: FxHashSet<u64>,
    /// Pending extras per object (saturation checks).
    count: Vec<u32>,
}

impl Extras {
    fn holds(&self, base: &Placement, object: u32, peer: u32) -> bool {
        base.peer_holds(peer, object) || self.seen.contains(&((object as u64) << 32 | peer as u64))
    }

    fn saturated(&self, base: &Placement, object: u32) -> bool {
        base.replicas(object) + self.count[object as usize] >= base.num_peers()
    }

    fn place(&mut self, object: u32, peer: u32) {
        self.pairs.push((object, peer));
        self.seen.insert((object as u64) << 32 | peer as u64);
        self.count[object as usize] += 1;
    }
}

impl ReplicationPlan {
    /// The identity baseline: owner-only, budget 0.
    pub fn owner_only(seed: u64) -> Self {
        ReplicationPlan {
            scheme: ReplicationScheme::OwnerOnly,
            budget: 0,
            popularity: Popularity::Replicas,
            seed,
        }
    }

    /// A plan with the default popularity signal (the base placement's
    /// replica counts — the crawl's demand proxy).
    pub fn new(scheme: ReplicationScheme, budget: u64, seed: u64) -> Self {
        ReplicationPlan {
            scheme,
            budget,
            popularity: Popularity::Replicas,
            seed,
        }
    }

    /// Applies the scheme: returns `base` grown by exactly
    /// [`budget`](ReplicationPlan::budget) extra copies placed per the
    /// scheme's rules. Pure and deterministic in `(self, graph, base)`.
    ///
    /// Panics if the scheme is [`ReplicationScheme::OwnerOnly`] with a
    /// nonzero budget, if the budget exceeds the free capacity
    /// (`peers × objects − base copies`), or if `graph` and `base`
    /// disagree on the peer population.
    pub fn apply(&self, graph: &Graph, base: &Placement) -> Placement {
        assert_eq!(
            graph.num_nodes(),
            base.num_peers() as usize,
            "replication graph/placement peer mismatch"
        );
        if matches!(self.scheme, ReplicationScheme::OwnerOnly) {
            assert_eq!(
                self.budget, 0,
                "owner-only is the identity: budget must be 0"
            );
            return base.clone();
        }
        if self.budget == 0 {
            return base.clone();
        }
        let n = base.num_peers() as u64;
        let capacity = n * base.num_objects() as u64
            - (0..base.num_objects() as u32)
                .map(|o| base.replicas(o) as u64)
                .sum::<u64>();
        assert!(
            self.budget <= capacity,
            "replication budget {} exceeds free capacity {capacity}",
            self.budget
        );

        let sampler = ObjectSampler::build(self, base);
        let mut extras = Extras {
            pairs: Vec::with_capacity(self.budget as usize),
            seen: FxHashSet::default(),
            count: vec![0u32; base.num_objects()],
        };
        for k in 0..self.budget {
            if !self.try_place(graph, base, &sampler, &mut extras, k) {
                self.fallback_place(base, &mut extras, k);
            }
        }
        debug_assert_eq!(extras.pairs.len() as u64, self.budget);
        base.with_extra_copies(&extras.pairs)
    }

    /// Scheme draws for copy `k`: up to [`MAX_ATTEMPTS`] tries, each a
    /// fresh object + target draw. Returns false if every try collided.
    fn try_place(
        &self,
        graph: &Graph,
        base: &Placement,
        sampler: &ObjectSampler,
        extras: &mut Extras,
        k: u64,
    ) -> bool {
        let n = base.num_peers() as u64;
        for a in 0..MAX_ATTEMPTS {
            let object = sampler.sample(draw(self.seed, OBJECT_STREAM, k, a));
            if extras.saturated(base, object) {
                continue;
            }
            let peer = match self.scheme {
                ReplicationScheme::OwnerOnly => unreachable!("owner-only places no copies"),
                ReplicationScheme::SqrtAllocation | ReplicationScheme::ProportionalAllocation => {
                    scaled(draw(self.seed, PEER_STREAM, k, a), n) as u32
                }
                ReplicationScheme::RandomWalk => {
                    let start = scaled(draw(self.seed, PEER_STREAM, k, a), n) as u32;
                    let len = 1 + scaled(draw(self.seed, LEN_STREAM, k, a), WALK_STEPS);
                    self.route(graph, start, len, k, a)
                }
                ReplicationScheme::Path => {
                    // Holderless objects (legal via explicit holder
                    // lists) have no route to seed from: uniform spread.
                    let start = match self.anchor(base, object, k, a) {
                        Some(h) => h,
                        None => scaled(draw(self.seed, PEER_STREAM, k, a), n) as u32,
                    };
                    let len = 1 + scaled(draw(self.seed, LEN_STREAM, k, a), PATH_STEPS);
                    self.route(graph, start, len, k, a)
                }
                ReplicationScheme::GiaOneHop => match self.anchor(base, object, k, a) {
                    Some(anchor) => match best_free_neighbor(graph, base, extras, object, anchor) {
                        Some(p) => p,
                        None => continue,
                    },
                    None => scaled(draw(self.seed, PEER_STREAM, k, a), n) as u32,
                },
            };
            if extras.holds(base, object, peer) {
                continue;
            }
            extras.place(object, peer);
            return true;
        }
        false
    }

    /// A hash-drawn existing replica of `object`, or `None` if the base
    /// placement left it holderless (legal via explicit holder lists).
    fn anchor(&self, base: &Placement, object: u32, k: u64, a: u64) -> Option<u32> {
        let hs = base.holders(object);
        if hs.is_empty() {
            return None;
        }
        Some(hs[scaled(draw(self.seed, HOLDER_STREAM, k, a), hs.len() as u64) as usize])
    }

    /// Walks `len` uniform steps from `start`; dead ends stop early.
    fn route(&self, graph: &Graph, start: u32, len: u64, k: u64, a: u64) -> u32 {
        let mut cur = start;
        for j in 0..len {
            let nb = graph.neighbors(cur);
            if nb.is_empty() {
                break;
            }
            cur = nb[scaled(draw(self.seed, STEP_STREAM, k, a << 8 | j), nb.len() as u64) as usize];
        }
        cur
    }

    /// Deterministic bailout when every scheme draw collided: linear
    /// scans from hash-drawn starting points find the first unsaturated
    /// object and its first free peer. Guaranteed to land (budget is
    /// checked against free capacity up front), so the budget is
    /// conserved exactly no matter how unlucky the hashes were.
    fn fallback_place(&self, base: &Placement, extras: &mut Extras, k: u64) {
        let num_objects = base.num_objects() as u64;
        let n = base.num_peers() as u64;
        let o0 = scaled(draw(self.seed, FALLBACK_STREAM, k, 0), num_objects);
        for oi in 0..num_objects {
            let object = ((o0 + oi) % num_objects) as u32;
            if extras.saturated(base, object) {
                continue;
            }
            let p0 = scaled(draw(self.seed, FALLBACK_STREAM, k, 1), n);
            for pi in 0..n {
                let peer = ((p0 + pi) % n) as u32;
                if !extras.holds(base, object, peer) {
                    extras.place(object, peer);
                    return;
                }
            }
        }
        unreachable!("fallback scan found no free slot despite capacity check");
    }
}

/// The highest-degree neighbor of `anchor` that does not already hold
/// `object` (ties broken by smaller id — deterministic); `None` if the
/// whole neighborhood holds it.
fn best_free_neighbor(
    graph: &Graph,
    base: &Placement,
    extras: &Extras,
    object: u32,
    anchor: u32,
) -> Option<u32> {
    let mut best: Option<(usize, u32)> = None;
    for &nb in graph.neighbors(anchor) {
        if extras.holds(base, object, nb) {
            continue;
        }
        let d = graph.degree(nb);
        let better = match best {
            None => true,
            Some((bd, bid)) => d > bd || (d == bd && nb < bid),
        };
        if better {
            best = Some((d, nb));
        }
    }
    best.map(|(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementModel;
    use crate::topology::{gnutella_two_tier, TopologyConfig};

    fn small_world() -> (Graph, Placement) {
        let topo = gnutella_two_tier(&TopologyConfig {
            num_nodes: 400,
            ..Default::default()
        });
        let n = topo.graph.num_nodes() as u32;
        let p = Placement::generate(PlacementModel::ZipfReplicas { tau: 2.05 }, n, 200, 0xbeef);
        (topo.graph, p)
    }

    fn total_copies(p: &Placement) -> u64 {
        (0..p.num_objects() as u32)
            .map(|o| p.replicas(o) as u64)
            .sum()
    }

    #[test]
    fn owner_only_is_bitwise_identity() {
        let (g, base) = small_world();
        let out = ReplicationPlan::owner_only(7).apply(&g, &base);
        assert_eq!(total_copies(&out), total_copies(&base));
        for o in 0..base.num_objects() as u32 {
            assert_eq!(out.holders(o), base.holders(o));
        }
    }

    #[test]
    fn every_scheme_conserves_budget_exactly() {
        let (g, base) = small_world();
        let before = total_copies(&base);
        for scheme in ReplicationScheme::ALL {
            if scheme == ReplicationScheme::OwnerOnly {
                continue;
            }
            for budget in [1u64, 17, 500] {
                let out = ReplicationPlan::new(scheme, budget, 0x5eed).apply(&g, &base);
                assert_eq!(
                    total_copies(&out),
                    before + budget,
                    "{} at budget {budget}",
                    scheme.name()
                );
                for o in 0..out.num_objects() as u32 {
                    let h = out.holders(o);
                    assert!(h.windows(2).all(|w| w[0] < w[1]), "sorted distinct holders");
                }
            }
        }
    }

    #[test]
    fn budgets_nest_as_prefixes() {
        let (g, base) = small_world();
        for scheme in ReplicationScheme::ALL {
            if scheme == ReplicationScheme::OwnerOnly {
                continue;
            }
            let small = ReplicationPlan::new(scheme, 100, 0x5eed).apply(&g, &base);
            let large = ReplicationPlan::new(scheme, 300, 0x5eed).apply(&g, &base);
            for o in 0..base.num_objects() as u32 {
                for &p in small.holders(o) {
                    assert!(
                        large.peer_holds(p, o),
                        "{}: holder sets must nest across budgets",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn apply_is_deterministic() {
        let (g, base) = small_world();
        for scheme in [ReplicationScheme::Path, ReplicationScheme::SqrtAllocation] {
            let a = ReplicationPlan::new(scheme, 250, 42).apply(&g, &base);
            let b = ReplicationPlan::new(scheme, 250, 42).apply(&g, &base);
            for o in 0..base.num_objects() as u32 {
                assert_eq!(a.holders(o), b.holders(o));
            }
        }
    }

    #[test]
    fn proportional_tracks_popularity_harder_than_sqrt() {
        let (g, base) = small_world();
        // With replica-count popularity, proportional allocation should
        // concentrate extra copies on already-popular objects more than
        // sqrt allocation does (that is the Cohen–Shenker distinction).
        let budget = 1_000;
        let sq =
            ReplicationPlan::new(ReplicationScheme::SqrtAllocation, budget, 9).apply(&g, &base);
        let pr = ReplicationPlan::new(ReplicationScheme::ProportionalAllocation, budget, 9)
            .apply(&g, &base);
        let top_share = |p: &Placement| {
            let mut by_base: Vec<u32> = (0..base.num_objects() as u32).collect();
            by_base.sort_by_key(|&o| std::cmp::Reverse(base.replicas(o)));
            let top = &by_base[..base.num_objects() / 10];
            top.iter()
                .map(|&o| (p.replicas(o) - base.replicas(o)) as u64)
                .sum::<u64>() as f64
                / budget as f64
        };
        assert!(
            top_share(&pr) > top_share(&sq),
            "proportional top-decile share {} should exceed sqrt's {}",
            top_share(&pr),
            top_share(&sq)
        );
    }

    #[test]
    #[should_panic(expected = "budget must be 0")]
    fn owner_only_rejects_nonzero_budget() {
        let (g, base) = small_world();
        let _ = ReplicationPlan {
            scheme: ReplicationScheme::OwnerOnly,
            budget: 1,
            popularity: Popularity::Uniform,
            seed: 0,
        }
        .apply(&g, &base);
    }

    #[test]
    #[should_panic(expected = "exceeds free capacity")]
    fn budget_above_capacity_panics() {
        let (g, base) = small_world();
        let cap = g.num_nodes() as u64 * base.num_objects() as u64;
        let _ = ReplicationPlan::new(ReplicationScheme::Path, cap, 0).apply(&g, &base);
    }
}
