//! Self-healing overlay maintenance: deterministic neighbor repair.
//!
//! PR 2/3 gave the stack churn and faults, but every failure was
//! permanent — degraded-mode curves only ever went down. This module
//! closes the loop: a [`MaintenancePolicy`] describes how survivors
//! re-wire after departures (probe budget, target-degree band, candidate
//! sampling), and [`repair_round`] applies one deterministic round of it:
//!
//! 1. **detect** — edges touching nodes that are dead under the caller's
//!    alive mask are pruned (the "ping your neighbors" step, collapsed to
//!    its outcome);
//! 2. **re-wire** — every alive node whose surviving degree fell below
//!    `degree_min` probes for fresh neighbors, drawn [`Attachment::Uniform`]ly
//!    (Erdős–Rényi-style topologies) or by [`Attachment::Preferential`]
//!    degree-weighted sampling (Barabási–Albert / ultrapeer topologies, whose
//!    degree distribution the repair should regrow, not flatten);
//! 3. **re-admit** — a node whose `FaultPlan` session comes back up
//!    reappears in the alive mask with degree zero, is therefore deficient,
//!    and gets wired back in by the same mechanism. No special case.
//!
//! # Determinism contract
//!
//! Every candidate draw comes from a `Pcg64` stream keyed by the stateless
//! triple `(policy seed, node, round)` — never by visit order, thread id,
//! or map iteration. Proposal generation runs data-parallel over the
//! deficient nodes (chunk-ordered merge), and proposals are applied
//! serially in ascending node order, so a repair round is bit-identical
//! across runs and thread-pool widths, like the rest of the stack.

use crate::graph::Graph;
use qcp_util::hash::mix64;
use qcp_util::rng::{child_seed, Pcg64};
use qcp_util::FxHashSet;
use qcp_xpar::Pool;

/// Dedicated `Pcg64` stream selector for repair draws, so repair shares no
/// randomness with trial RNGs, fault plans, or placement.
const REPAIR_STREAM: u64 = 0x5e1f_4ea1_0000_0001;

/// How re-attachment candidates are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Uniform over alive nodes — matches Erdős–Rényi-style topologies
    /// whose degree distribution is flat.
    Uniform,
    /// Degree-weighted (`degree + 1`) over alive nodes — preferential
    /// re-attachment regrows the heavy tail of Barabási–Albert and
    /// two-tier ultrapeer topologies instead of flattening it. The `+ 1`
    /// keeps freshly re-admitted (degree-zero) nodes reachable as targets.
    Preferential,
}

/// Parameters of the self-healing maintenance layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePolicy {
    /// Repair wires a node back up when its surviving degree falls below
    /// this floor.
    pub degree_min: usize,
    /// Repair never raises a node's degree above this ceiling (nodes whose
    /// *original* degree exceeds it — topology hubs — are left alone).
    pub degree_max: usize,
    /// Candidate probes a deficient node may issue per round.
    pub probe_budget: usize,
    /// Candidate sampling model.
    pub attachment: Attachment,
    /// Root seed of every repair draw.
    pub seed: u64,
}

impl MaintenancePolicy {
    /// Uniform-attachment policy (Erdős–Rényi-style topologies).
    pub fn uniform(degree_min: usize, degree_max: usize, probe_budget: usize, seed: u64) -> Self {
        Self::checked(
            degree_min,
            degree_max,
            probe_budget,
            Attachment::Uniform,
            seed,
        )
    }

    /// Preferential-attachment policy (BA / ultrapeer topologies).
    pub fn preferential(
        degree_min: usize,
        degree_max: usize,
        probe_budget: usize,
        seed: u64,
    ) -> Self {
        Self::checked(
            degree_min,
            degree_max,
            probe_budget,
            Attachment::Preferential,
            seed,
        )
    }

    fn checked(
        degree_min: usize,
        degree_max: usize,
        probe_budget: usize,
        attachment: Attachment,
        seed: u64,
    ) -> Self {
        assert!(degree_min >= 1, "degree_min must be at least 1");
        assert!(degree_min <= degree_max, "degree band must be nonempty");
        Self {
            degree_min,
            degree_max,
            probe_budget,
            attachment,
            seed,
        }
    }
}

/// Accounting for one (or several absorbed) repair rounds.
///
/// The message model charges one message per probe and two per accepted
/// edge (the connect request and its ack), giving the identity
/// `messages == probes + 2 * added` — checked by [`RepairStats::check_identity`]
/// and the `repro soak` runtime invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Edges pruned because an endpoint is dead.
    pub pruned: u64,
    /// Alive nodes below the degree floor at the start of the round.
    pub deficient: u64,
    /// Candidate probes issued.
    pub probes: u64,
    /// Edges added.
    pub added: u64,
    /// Maintenance messages: `probes + 2 * added`.
    pub messages: u64,
}

impl RepairStats {
    /// Accumulates `other` into `self` field by field.
    pub fn absorb(&mut self, other: &RepairStats) {
        self.pruned += other.pruned;
        self.deficient += other.deficient;
        self.probes += other.probes;
        self.added += other.added;
        self.messages += other.messages;
    }

    /// Asserts the repair-message accounting identity.
    pub fn check_identity(&self) {
        assert!(
            self.messages == self.probes + 2 * self.added,
            "repair accounting broken: messages {} != probes {} + 2*added {}",
            self.messages,
            self.probes,
            self.added
        );
    }
}

/// One deterministic maintenance round over `graph` under the `alive` mask.
///
/// Returns the repaired graph (same node-id space; dead nodes isolated)
/// and the round's [`RepairStats`]. See the module docs for the three
/// phases and the determinism contract. `alive.len()` must equal
/// `graph.num_nodes()`.
pub fn repair_round(
    pool: &Pool,
    graph: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    round: u64,
) -> (Graph, RepairStats) {
    let (added, stats) = plan_round(pool, graph, alive, policy, round);
    // Survivors, then added edges in apply order. Both are unique pairs:
    // survivors come from a `Graph` and are emitted once each as `u < v`,
    // and `plan_round` adds only pairs absent from `graph` and from each
    // other. So `Graph::from_edges` would drop nothing from this sequence
    // and would build these same CSR bytes.
    let repaired = Graph::from_unique_edge_stream(graph.num_nodes(), |sink| {
        for_each_survivor(graph, alive, &mut *sink);
        for &(a, b) in &added {
            sink(a, b);
        }
    });
    (repaired, stats)
}

/// Calls `f(u, v)` once per edge of `graph` with both endpoints alive,
/// as `u < v`, in ascending `u` then neighbor-list order. A `Graph` holds
/// each pair once and no self-loops, so every edge it skips is pruned.
fn for_each_survivor(graph: &Graph, alive: &[bool], mut f: impl FnMut(u32, u32)) {
    for u in 0..graph.num_nodes() as u32 {
        if !alive[u as usize] {
            continue;
        }
        for &v in graph.neighbors(u) {
            if u < v && alive[v as usize] {
                f(u, v);
            }
        }
    }
}

/// Phases 1–3 of [`repair_round`]: the edges the round adds, as
/// `(min, max)` pairs in apply order, and the round's stats.
fn plan_round(
    pool: &Pool,
    graph: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    round: u64,
) -> (Vec<(u32, u32)>, RepairStats) {
    let n = graph.num_nodes();
    assert_eq!(alive.len(), n, "alive mask must cover the graph");

    // Phase 1: detect — prune edges with a dead endpoint, compute
    // surviving degrees.
    let mut deg: Vec<u32> = vec![0; n];
    let mut survivors = 0u64;
    for_each_survivor(graph, alive, |u, v| {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        survivors += 1;
    });
    let deficient: Vec<u32> = (0..n as u32)
        .filter(|&v| alive[v as usize] && (deg[v as usize] as usize) < policy.degree_min)
        .collect();
    let (added, stats) = rewire(pool, graph, alive, policy, round, &mut deg, &deficient);
    let pruned = graph.num_edges() as u64 - survivors;
    (added, RepairStats { pruned, ..stats })
}

/// Phases 2–3 of a round, from the surviving degrees `deg` and the
/// `deficient` nodes (alive, below the floor, ascending): the edges the
/// round adds, as `(min, max)` pairs in apply order, and the round's
/// stats but `pruned`. Leaves `deg` at the repaired degrees.
fn rewire(
    pool: &Pool,
    graph: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    round: u64,
    deg: &mut [u32],
    deficient: &[u32],
) -> (Vec<(u32, u32)>, RepairStats) {
    let mut stats = RepairStats {
        deficient: deficient.len() as u64,
        ..RepairStats::default()
    };
    if deficient.is_empty() {
        return (Vec::new(), stats);
    }
    // Candidate universe: alive nodes in ascending id order (deterministic
    // by construction), plus cumulative degree weights for preferential
    // sampling.
    let alive_nodes: Vec<u32> = (0..alive.len() as u32)
        .filter(|&v| alive[v as usize])
        .collect();
    if alive_nodes.len() <= 1 {
        return (Vec::new(), stats);
    }
    // prefix[i] = total weight of alive_nodes[..=i]; weight = degree + 1.
    let prefix: Vec<u64> = match policy.attachment {
        Attachment::Uniform => Vec::new(),
        Attachment::Preferential => {
            let mut acc = 0u64;
            alive_nodes
                .iter()
                .map(|&v| {
                    acc += deg[v as usize] as u64 + 1;
                    acc
                })
                .collect()
        }
    };

    // Phase 2: re-wire — parallel proposal generation, one stateless RNG
    // stream per (policy seed, node, round).
    let surviving: &[u32] = deg;
    let proposals: Vec<(Vec<u32>, u64)> = pool.par_map(deficient, |&u| {
        let need = policy.degree_min - surviving[u as usize] as usize;
        let mut rng = Pcg64::with_stream(
            child_seed(policy.seed ^ mix64(u as u64), round),
            REPAIR_STREAM,
        );
        let mut picks: Vec<u32> = Vec::with_capacity(need);
        let mut probes = 0u64;
        for _ in 0..policy.probe_budget {
            if picks.len() >= need {
                break;
            }
            probes += 1;
            let v = match policy.attachment {
                Attachment::Uniform => alive_nodes[rng.index(alive_nodes.len())],
                Attachment::Preferential => {
                    // prefix is nonempty and strictly increasing; total
                    // weight >= alive count >= 2 here.
                    let total = prefix[prefix.len() - 1];
                    let x = rng.below(total);
                    alive_nodes[prefix.partition_point(|&p| p <= x)]
                }
            };
            if v == u || picks.contains(&v) {
                continue;
            }
            // Existing surviving edge? (u and v are both alive, so an
            // old u–v edge was not pruned.)
            if graph.neighbors(u).contains(&v) {
                continue;
            }
            picks.push(v);
        }
        (picks, probes)
    });

    // Phase 3: apply — serial, ascending node order; accept an edge only
    // while both endpoints stay inside the band.
    let mut added: Vec<(u32, u32)> = Vec::new();
    let mut new_keys: FxHashSet<u64> = FxHashSet::default();
    for (&u, (picks, probes)) in deficient.iter().zip(&proposals) {
        stats.probes += probes;
        for &v in picks {
            if (deg[u as usize] as usize) >= policy.degree_min {
                break;
            }
            if (deg[v as usize] as usize) >= policy.degree_max {
                continue;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            let key = ((a as u64) << 32) | b as u64;
            if !new_keys.insert(key) {
                continue;
            }
            added.push((a, b));
            deg[u as usize] += 1;
            deg[v as usize] += 1;
            stats.added += 1;
        }
    }
    stats.messages = stats.probes + 2 * stats.added;
    (added, stats)
}

/// Asserts the post-round maintenance invariants; panics on violation.
///
/// * no repaired edge touches a dead node, and adjacency is symmetric;
/// * the degree band is respected: every alive node ends at or below
///   `max(surviving degree before repair, policy.degree_max)` — repair
///   may leave pre-existing hubs above the ceiling but never *raises*
///   anyone past it;
/// * the repair-message accounting identity holds.
pub fn check_repair_invariants(
    before: &Graph,
    after: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    stats: &RepairStats,
) {
    check_round(before, after, alive, policy, stats, Probe::everywhere);
}

/// [`check_repair_invariants`] run only on the rows that could fail it;
/// `before` must be symmetric.
///
/// A row is checked when its list differs from `before` (it is
/// *touched*), when it is an old neighbor of a touched node, or when it
/// is an old neighbor of a dead node. Any other alive row `u` passes
/// every assertion. Its list is its old one, and an old neighbor of no
/// dead node, so every entry is alive and the surviving degree is the
/// degree: the band holds. A one-way entry `v` in `u`'s list has `u` or
/// `v` touched: were neither, `before` would hold the same one-way
/// entry. `u` is not, so `v` is, and `u` is its old neighbor. Dead
/// rows are checked everywhere, and every checked row runs the full
/// check's assertions in the same order, so the verdict and the panic
/// message are those of the full check.
fn check_touched(
    before: &Graph,
    after: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    stats: &RepairStats,
) {
    check_round(before, after, alive, policy, stats, Probe::touched);
}

/// The one loop behind both invariant checks: nodes in index order, each
/// checked for the dead-node degree, then, where the probe built by
/// `probe(before, after, alive)` checks the row, the band and every
/// entry for a dead end and a missing mirror.
fn check_round(
    before: &Graph,
    after: &Graph,
    alive: &[bool],
    policy: &MaintenancePolicy,
    stats: &RepairStats,
    probe: fn(&Graph, &Graph, &[bool]) -> Probe,
) {
    assert_eq!(after.num_nodes(), before.num_nodes());
    assert_eq!(alive.len(), after.num_nodes());
    let mut probe = probe(before, after, alive);
    for u in 0..after.num_nodes() as u32 {
        if !alive[u as usize] {
            let d = after.degree(u);
            assert!(d == 0, "dead node {u} kept {d} edges after repair");
            continue;
        }
        if !probe.start(u) {
            continue;
        }
        let d = after.degree(u);
        let surviving_before = before
            .neighbors(u)
            .iter()
            .filter(|&&v| alive[v as usize])
            .count();
        assert!(
            d <= surviving_before.max(policy.degree_max),
            "degree band violated at {u}: {d} > max({surviving_before}, {})",
            policy.degree_max
        );
        for &v in after.neighbors(u) {
            assert!(alive[v as usize], "repaired edge {u}-{v} touches dead node");
            assert!(
                probe.mirrored(after, v, u),
                "repaired edge {u}-{v} is one-way"
            );
        }
    }
    stats.check_identity();
}

/// Which alive rows [`check_round`] checks, and how it tests that their
/// entries are mirrored.
enum Probe {
    /// Every row, through the transposed adjacency.
    Everywhere(Transpose),
    /// The marked rows only, by scanning the far end's list.
    Marked(Vec<bool>),
}

impl Probe {
    fn everywhere(_before: &Graph, after: &Graph, _alive: &[bool]) -> Self {
        Probe::Everywhere(Transpose::new(after))
    }

    /// Marks the touched nodes and the old neighbors of touched and of
    /// dead nodes (see [`check_touched`]). When more than a quarter of
    /// the rows are touched (a first round reorders most lists), the
    /// transposed adjacency is cheaper, and checking every row is the
    /// full check itself.
    fn touched(before: &Graph, after: &Graph, alive: &[bool]) -> Self {
        let n = after.num_nodes();
        let mut touched = Vec::new();
        before.for_each_changed_row(after, |u| touched.push(u));
        if touched.len() > n / 4 {
            return Probe::Everywhere(Transpose::new(after));
        }
        Self::marked(before, alive, &touched)
    }

    /// Marks the `touched` nodes and the old neighbors of touched and of
    /// dead nodes.
    fn marked(before: &Graph, alive: &[bool], touched: &[u32]) -> Self {
        let n = before.num_nodes();
        let mut marked = vec![false; n];
        let dead = (0..n as u32).filter(|&u| !alive[u as usize]);
        for u in touched.iter().copied().chain(dead) {
            marked[u as usize] = true;
            for &w in before.neighbors(u) {
                marked[w as usize] = true;
            }
        }
        Probe::Marked(marked)
    }

    /// Readies the test of `u`'s entries; false when `u` is not checked.
    fn start(&mut self, u: u32) -> bool {
        match self {
            Probe::Everywhere(t) => {
                t.stamp(u);
                true
            }
            Probe::Marked(marked) => marked[u as usize],
        }
    }

    /// Whether `v`'s list holds `u`, the node last started.
    fn mirrored(&self, after: &Graph, v: u32, u: u32) -> bool {
        match self {
            Probe::Everywhere(t) => t.lists(v, u),
            Probe::Marked(_) => after.neighbors(v).contains(&u),
        }
    }
}

/// A graph's transposed adjacency, for symmetry tests in O(n + m):
/// `listed_by[at[u]..at[u + 1]]` holds every node whose list holds `u`,
/// built by counting sort. Stamping those nodes with `u` turns "does
/// `v`'s list hold `u`" into one load.
struct Transpose {
    at: Vec<u32>,
    listed_by: Vec<u32>,
    stamp: Vec<u32>,
}

impl Transpose {
    fn new(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut at = vec![0u32; n + 1];
        for u in 0..n as u32 {
            for &v in graph.neighbors(u) {
                at[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            at[i + 1] += at[i];
        }
        let mut cursor = at[..n].to_vec();
        let mut listed_by = vec![0u32; at[n] as usize];
        for u in 0..n as u32 {
            for &v in graph.neighbors(u) {
                listed_by[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        drop(cursor);
        // Node ids are below `n <= u32::MAX`, so no node starts stamped.
        Self {
            at,
            listed_by,
            stamp: vec![u32::MAX; n],
        }
    }

    /// Stamps every node whose list holds `u`.
    fn stamp(&mut self, u: u32) {
        let (from, to) = (self.at[u as usize], self.at[u as usize + 1]);
        for &w in &self.listed_by[from as usize..to as usize] {
            self.stamp[w as usize] = u;
        }
    }

    /// Whether `v`'s list holds `u`, the node last stamped.
    fn lists(&self, v: u32, u: u32) -> bool {
        self.stamp[v as usize] == u
    }
}

/// Drives [`repair_round`]s over an owned graph, carrying the evolving
/// topology, the round counter, and cumulative [`RepairStats`] across an
/// epoch schedule (the shape `repro soak` consumes).
///
/// Each step is the round [`repair_round`] would run, done in time
/// proportional to what changed since the last step (see `Carry`) plus
/// a few passes over the node table: the graph, the round's stats and its
/// draws are the same.
#[derive(Debug, Clone)]
pub struct Maintainer {
    graph: Graph,
    policy: MaintenancePolicy,
    round: u64,
    totals: RepairStats,
    carry: Carry,
    /// The graph before the last step, whose buffers the next step
    /// rebuilds into.
    spare: Graph,
}

/// What a step leaves for the next one. Three invariants hold between
/// steps:
///
/// * every node dead under `alive` is isolated in the graph, so the next
///   step prunes only the edges of nodes that died since;
/// * `deg[v]` is `v`'s degree in the graph;
/// * a row of a node outside `appended` is in *survivor order* — its
///   entries below the node ascending, then the rest — which is the
///   order a round's survivor stream would give it again; an `appended`
///   node's row ends with the edges the last step added.
///
/// `short` holds the alive nodes the last step left below the floor (its
/// probe budget ran out or the band stopped it); a node can only fall
/// below the floor otherwise by losing a neighbor or by coming back.
#[derive(Debug, Clone)]
struct Carry {
    alive: Vec<bool>,
    deg: Vec<u32>,
    short: Vec<u32>,
    appended: Vec<u32>,
}

/// Nodes whose liveness [`Maintainer::step`] compares as one slice.
const CHUNK: usize = 256;

/// Sorts `nodes` (ids below `n`) and drops repeats. A list long against
/// `n` (the first step's) is deduplicated through a mask instead.
fn sort_dedup(nodes: &mut Vec<u32>, n: usize) {
    if nodes.len() <= n / 16 {
        nodes.sort_unstable();
        nodes.dedup();
        return;
    }
    let mut seen = vec![false; n];
    for &v in nodes.iter() {
        seen[v as usize] = true;
    }
    nodes.clear();
    nodes.extend((0..n as u32).filter(|&v| seen[v as usize]));
}

impl Maintainer {
    /// Starts maintenance over `graph` under `policy`.
    ///
    /// Panics if `graph` holds a one-way entry: each step checks only
    /// the nodes its round touched, which is the full check only while
    /// the graph it starts from is symmetric, and a checked round keeps
    /// it so.
    pub fn new(graph: Graph, policy: MaintenancePolicy) -> Self {
        let n = graph.num_nodes();
        let mut transpose = Transpose::new(&graph);
        for u in 0..n as u32 {
            transpose.stamp(u);
            for &v in graph.neighbors(u) {
                assert!(transpose.lists(v, u), "maintained edge {u}-{v} is one-way");
            }
        }
        drop(transpose);
        // As if every node were alive before the first step, with no row
        // known to be in survivor order.
        let deg: Vec<u32> = (0..n as u32).map(|v| graph.degree(v) as u32).collect();
        let carry = Carry {
            alive: vec![true; n],
            short: (0..n as u32)
                .filter(|&v| (deg[v as usize] as usize) < policy.degree_min)
                .collect(),
            deg,
            appended: (0..n as u32).collect(),
        };
        Self {
            graph,
            policy,
            round: 0,
            totals: RepairStats::default(),
            carry,
            spare: Graph::from_edges(0, &[]),
        }
    }

    /// The current (possibly repaired) topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The policy in force.
    pub fn policy(&self) -> &MaintenancePolicy {
        &self.policy
    }

    /// Rounds applied so far.
    #[cfg(test)]
    pub(crate) fn rounds_run(&self) -> u64 {
        self.round
    }

    /// Cumulative stats over all rounds.
    pub fn totals(&self) -> RepairStats {
        self.totals
    }

    /// Applies one repair round under `alive`, checks its invariants,
    /// advances the round counter, and returns that round's stats. The
    /// round index feeds the draw keys, so step sequences are
    /// reproducible but rounds are not identical.
    pub fn step(&mut self, pool: &Pool, alive: &[bool]) -> RepairStats {
        let n = self.graph.num_nodes();
        assert_eq!(alive.len(), n, "alive mask must cover the graph");
        let graph = &self.graph;
        let carry = &mut self.carry;

        // Phase 1, from the nodes that died since the last step: their
        // edges are the only ones to prune. Rows to rewrite: theirs,
        // their neighbors', and those ending in last step's additions.
        let mut rewrite = std::mem::take(&mut carry.appended);
        let mut candidates = std::mem::take(&mut carry.short);
        let mut pruned = 0u64;
        let changed = carry
            .alive
            .chunks(CHUNK)
            .zip(alive.chunks(CHUNK))
            .enumerate()
            .filter(|(_, (was, is))| was != is)
            .flat_map(|(c, _)| c * CHUNK..(c * CHUNK + CHUNK).min(n));
        for v in changed {
            let v = v as u32;
            let (was, is) = (carry.alive[v as usize], alive[v as usize]);
            if was && !is {
                rewrite.push(v);
                for &w in graph.neighbors(v) {
                    if alive[w as usize] {
                        carry.deg[w as usize] -= 1;
                        rewrite.push(w);
                        candidates.push(w);
                        pruned += 1;
                    } else if v < w {
                        pruned += 1; // w died too; count the edge once
                    }
                }
                carry.deg[v as usize] = 0;
            } else if is && !was {
                candidates.push(v); // isolated: back at degree zero
            }
        }
        candidates.retain(|&v| {
            alive[v as usize] && (carry.deg[v as usize] as usize) < self.policy.degree_min
        });
        sort_dedup(&mut candidates, n);
        let deficient = candidates;

        let (added, stats) = rewire(
            pool,
            graph,
            alive,
            &self.policy,
            self.round,
            &mut carry.deg,
            &deficient,
        );
        let stats = RepairStats { pruned, ..stats };

        // The repaired CSR: rewritten rows in survivor order, then their
        // added edges in apply order, as `repair_round`'s stream lays
        // them out; every other row is copied.
        let mut adds: Vec<(u32, u32)> = added.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
        adds.sort_by_key(|&(u, _)| u); // stable: apply order within a node
        let mut appended: Vec<u32> = adds.iter().map(|&(u, _)| u).collect();
        appended.dedup();
        rewrite.extend_from_slice(&appended);
        sort_dedup(&mut rewrite, n);
        let mut next_add = 0;
        graph.rewrite_rows_into(&mut self.spare, &carry.deg, &rewrite, |u, row| {
            if !alive[u as usize] {
                return;
            }
            let old = graph.neighbors(u);
            let mut k = 0;
            for &w in old.iter().filter(|&&w| w < u && alive[w as usize]) {
                row[k] = w;
                k += 1;
            }
            row[..k].sort_unstable();
            for &w in old.iter().filter(|&&w| w > u && alive[w as usize]) {
                row[k] = w;
                k += 1;
            }
            while next_add < adds.len() && adds[next_add].0 == u {
                row[k] = adds[next_add].1;
                k += 1;
                next_add += 1;
            }
            debug_assert_eq!(k, row.len(), "row {u} filled short");
        });
        std::mem::swap(&mut self.graph, &mut self.spare);
        check_touched(&self.spare, &self.graph, alive, &self.policy, &stats);

        let carry = &mut self.carry;
        carry.alive.copy_from_slice(alive);
        carry.short = deficient;
        carry
            .short
            .retain(|&v| (carry.deg[v as usize] as usize) < self.policy.degree_min);
        rewrite.clear();
        carry.appended = rewrite;
        carry.appended.extend_from_slice(&appended);
        self.round += 1;
        self.totals.absorb(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{erdos_renyi, gnutella_two_tier, TopologyConfig};
    use qcp_util::rng::Pcg64;

    fn kill(n: usize, every: usize) -> Vec<bool> {
        (0..n).map(|i| i % every != 0).collect()
    }

    #[test]
    fn repair_prunes_dead_edges_and_refills_degrees() {
        let t = erdos_renyi(400, 6.0, 11);
        let alive = kill(400, 4); // 25% dead
        let policy = MaintenancePolicy::uniform(3, 8, 16, 0x5ea1);
        let pool = Pool::new(2);
        let (g, stats) = repair_round(&pool, &t.graph, &alive, &policy, 0);
        check_repair_invariants(&t.graph, &g, &alive, &policy, &stats);
        assert!(stats.pruned > 0, "25% churn must prune edges");
        assert!(stats.added > 0, "pruning must leave someone deficient");
        stats.check_identity();
        // Every alive node that can reach the floor does.
        let alive_count = alive.iter().filter(|&&a| a).count();
        assert!(alive_count > policy.degree_min);
        for u in 0..400u32 {
            if alive[u as usize] {
                assert!(
                    g.degree(u) >= policy.degree_min || stats.probes >= policy.probe_budget as u64,
                    "node {u} still deficient at degree {}",
                    g.degree(u)
                );
            }
        }
    }

    #[test]
    fn repair_is_deterministic_across_pool_widths() {
        let t = gnutella_two_tier(&TopologyConfig {
            num_nodes: 500,
            ..Default::default()
        });
        let alive = kill(500, 5);
        let policy = MaintenancePolicy::preferential(3, 30, 12, 0xbeef);
        let narrow = Pool::new(1);
        let wide = Pool::new(4);
        let (g1, s1) = repair_round(&narrow, &t.graph, &alive, &policy, 3);
        let (g4, s4) = repair_round(&wide, &t.graph, &alive, &policy, 3);
        assert_eq!(s1, s4);
        for u in 0..500u32 {
            assert_eq!(g1.neighbors(u), g4.neighbors(u), "adjacency differs at {u}");
        }
    }

    #[test]
    fn no_deficiency_means_no_op() {
        let t = erdos_renyi(300, 8.0, 13);
        let alive = vec![true; 300];
        // Floor of 1: ER(mean 8) leaves nobody isolated at this size/seed.
        let policy = MaintenancePolicy::uniform(1, 10, 8, 1);
        let pool = Pool::new(2);
        let (g, stats) = repair_round(&pool, &t.graph, &alive, &policy, 0);
        assert_eq!(stats.added, 0);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.messages, stats.probes);
        assert_eq!(g.num_edges(), t.graph.num_edges());
    }

    #[test]
    fn readmitted_node_is_rewired() {
        let t = erdos_renyi(200, 5.0, 17);
        // Node 7 dies...
        let mut alive = vec![true; 200];
        alive[7] = false;
        let policy = MaintenancePolicy::uniform(2, 8, 16, 0x1ce);
        let pool = Pool::new(2);
        let (g, _) = repair_round(&pool, &t.graph, &alive, &policy, 0);
        assert_eq!(g.degree(7), 0, "dead node must be isolated");
        // ...and its session comes back: the next round re-wires it.
        alive[7] = true;
        let (g2, stats2) = repair_round(&pool, &g, &alive, &policy, 1);
        assert!(
            g2.degree(7) >= policy.degree_min,
            "re-admitted node stuck at degree {}",
            g2.degree(7)
        );
        assert!(stats2.added > 0);
    }

    #[test]
    fn preferential_attachment_favors_hubs() {
        // A hub with 30 edges vs. many degree-1 satellites: preferential
        // repair of fresh nodes should connect to the hub far more often
        // than uniform would.
        let mut edges: Vec<(u32, u32)> = (1..=30).map(|v| (0u32, v)).collect();
        // Fifty isolated nodes to repair (ids 31..81).
        edges.push((81, 82)); // keep the graph size at 83
        let g = Graph::from_edges(83, &edges);
        let alive = vec![true; 83];
        let pool = Pool::new(2);
        let pref = MaintenancePolicy::preferential(1, 100, 8, 42);
        let (gp, _) = repair_round(&pool, &g, &alive, &pref, 0);
        let unif = MaintenancePolicy::uniform(1, 100, 8, 42);
        let (gu, _) = repair_round(&pool, &g, &alive, &unif, 0);
        assert!(
            gp.degree(0) > gu.degree(0),
            "preferential ({}) must out-attach uniform ({}) at the hub",
            gp.degree(0),
            gu.degree(0)
        );
    }

    #[test]
    fn maintainer_accumulates_and_converges() {
        let t = erdos_renyi(300, 6.0, 23);
        let alive = kill(300, 3); // 33% dead
        let policy = MaintenancePolicy::uniform(3, 9, 16, 7);
        let pool = Pool::new(2);
        let mut m = Maintainer::new(t.graph.clone(), policy);
        let first = m.step(&pool, &alive);
        assert!(first.pruned > 0);
        let mut last = first;
        for _ in 0..5 {
            last = m.step(&pool, &alive);
            assert_eq!(last.pruned, 0, "round 1+ sees no dead edges");
        }
        assert_eq!(m.rounds_run(), 6);
        m.totals().check_identity();
        // Converged: no deficient nodes remain, so the last round added
        // nothing and the graph is at a fixed point.
        assert_eq!(last.deficient, 0);
        assert_eq!(last.added, 0);
    }

    #[test]
    #[should_panic(expected = "degree band must be nonempty")]
    fn inverted_band_rejected() {
        let _ = MaintenancePolicy::uniform(5, 4, 8, 0);
    }

    #[test]
    #[should_panic(expected = "alive mask must cover the graph")]
    fn short_mask_rejected() {
        let t = erdos_renyi(50, 4.0, 1);
        let pool = Pool::new(1);
        let policy = MaintenancePolicy::uniform(2, 6, 4, 0);
        let _ = repair_round(&pool, &t.graph, &[true; 10], &policy, 0);
    }

    /// `Graph::from_edges` as `repair_round` used it before streaming:
    /// dedup by a `(min, max, emission index)` sort, then re-sort by index.
    fn from_edges_reference(num_nodes: usize, edge_list: &[(u32, u32)]) -> Graph {
        let mut tagged: Vec<(u32, u32, u32)> = edge_list
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| a != b)
            .map(|(i, &(a, b))| (a.min(b), a.max(b), i as u32))
            .collect();
        tagged.sort_unstable();
        tagged.dedup_by_key(|&mut (a, b, _)| (a, b));
        tagged.sort_unstable_by_key(|&(_, _, i)| i);
        Graph::from_unique_edge_stream(num_nodes, |sink| {
            for &(a, b, _) in &tagged {
                sink(a, b);
            }
        })
    }

    /// [`repair_round`] as it built its CSR before streaming: survivors
    /// then added edges collected in one list for the sort-dedup build,
    /// with `pruned` counted by the same scan.
    fn repair_round_reference(
        pool: &Pool,
        graph: &Graph,
        alive: &[bool],
        policy: &MaintenancePolicy,
        round: u64,
    ) -> (Graph, RepairStats) {
        let (added, stats) = plan_round(pool, graph, alive, policy, round);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut pruned = 0u64;
        for u in 0..graph.num_nodes() as u32 {
            for &v in graph.neighbors(u) {
                if u < v {
                    if alive[u as usize] && alive[v as usize] {
                        edges.push((u, v));
                    } else {
                        pruned += 1;
                    }
                }
            }
        }
        edges.extend_from_slice(&added);
        let graph = from_edges_reference(graph.num_nodes(), &edges);
        (graph, RepairStats { pruned, ..stats })
    }

    /// [`check_repair_invariants`] as it was before the transposed
    /// adjacency: symmetry by a `contains` scan of the far end's list.
    fn check_repair_invariants_reference(
        before: &Graph,
        after: &Graph,
        alive: &[bool],
        policy: &MaintenancePolicy,
        stats: &RepairStats,
    ) {
        assert_eq!(after.num_nodes(), before.num_nodes());
        assert_eq!(alive.len(), after.num_nodes());
        for u in 0..after.num_nodes() as u32 {
            let d = after.degree(u);
            if !alive[u as usize] {
                assert!(d == 0, "dead node {u} kept {d} edges after repair");
                continue;
            }
            let surviving_before = before
                .neighbors(u)
                .iter()
                .filter(|&&v| alive[v as usize])
                .count();
            assert!(
                d <= surviving_before.max(policy.degree_max),
                "degree band violated at {u}: {d} > max({surviving_before}, {})",
                policy.degree_max
            );
            for &v in after.neighbors(u) {
                assert!(alive[v as usize], "repaired edge {u}-{v} touches dead node");
                assert!(
                    after.neighbors(v).contains(&u),
                    "repaired edge {u}-{v} is one-way"
                );
            }
        }
        stats.check_identity();
    }

    type Check = fn(&Graph, &Graph, &[bool], &MaintenancePolicy, &RepairStats);

    /// [`check_touched`] without its fallback to the full check when most
    /// rows are touched, so the marked rows alone give the verdict.
    fn check_marked(
        before: &Graph,
        after: &Graph,
        alive: &[bool],
        policy: &MaintenancePolicy,
        stats: &RepairStats,
    ) {
        check_round(
            before,
            after,
            alive,
            policy,
            stats,
            |before, after, alive| {
                let mut touched = Vec::new();
                before.for_each_changed_row(after, |u| touched.push(u));
                Probe::marked(before, alive, &touched)
            },
        );
    }

    /// `None` when `check` passes, else its panic message.
    fn verdict(
        check: Check,
        before: &Graph,
        after: &Graph,
        alive: &[bool],
        policy: &MaintenancePolicy,
        stats: &RepairStats,
    ) -> Option<String> {
        std::panic::catch_unwind(|| check(before, after, alive, policy, stats))
            .err()
            .map(|e| match e.downcast::<String>() {
                Ok(msg) => *msg,
                Err(e) => e
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |s| s.to_string()),
            })
    }

    /// Runs both invariant checks and returns their shared verdict: `None`
    /// when both pass, or the panic message both raise.
    fn both_checks(
        before: &Graph,
        after: &Graph,
        alive: &[bool],
        policy: &MaintenancePolicy,
        stats: &RepairStats,
    ) -> Option<String> {
        let fast = verdict(check_repair_invariants, before, after, alive, policy, stats);
        let slow = verdict(
            check_repair_invariants_reference,
            before,
            after,
            alive,
            policy,
            stats,
        );
        assert_eq!(fast, slow, "the two invariant checks disagree");
        fast
    }

    /// `graph` with `corruptions` random edits between nodes drawn from
    /// `nodes`: a dropped entry (one-way), a pushed entry (one-way, or to
    /// a dead node), a pushed pair (past the band, or to a dead node), a
    /// replaced entry (same length, one-way or to a dead node) or a node
    /// whose repair the round missed: its list and its old neighbors'
    /// reverted to their state in `before`, keeping edges to a node that
    /// died.
    fn corrupt(
        before: &Graph,
        graph: &Graph,
        nodes: &[u32],
        corruptions: usize,
        rng: &mut Pcg64,
    ) -> Graph {
        let mut lists: Vec<Vec<u32>> = (0..graph.num_nodes() as u32)
            .map(|v| graph.neighbors(v).to_vec())
            .collect();
        for _ in 0..corruptions {
            let u = nodes[rng.index(nodes.len())] as usize;
            let v = nodes[rng.index(nodes.len())];
            match rng.index(5) {
                0 => {
                    if !lists[u].is_empty() {
                        let at = rng.index(lists[u].len());
                        lists[u].remove(at);
                    }
                }
                1 => lists[u].push(v),
                2 => {
                    lists[u].push(v);
                    lists[v as usize].push(u as u32);
                }
                3 => {
                    if !lists[u].is_empty() {
                        let at = rng.index(lists[u].len());
                        lists[u][at] = v;
                    }
                }
                _ => {
                    let old = before.neighbors(u as u32);
                    for w in std::iter::once(u as u32).chain(old.iter().copied()) {
                        lists[w as usize] = before.neighbors(w).to_vec();
                    }
                }
            }
        }
        Graph::from_lists_unchecked(&lists)
    }

    /// An ER or two-tier world of `n` nodes.
    fn oracle_world(two_tier: bool, n: usize, seed: u64) -> Graph {
        if two_tier {
            gnutella_two_tier(&TopologyConfig {
                num_nodes: n,
                seed,
                ..Default::default()
            })
            .graph
        } else {
            erdos_renyi(n, 2.0 + (seed % 5) as f64, seed).graph
        }
    }

    /// Round `round`'s alive mask: about `dead_pct`% of nodes dead, a
    /// fresh draw each round so nodes die and come back between rounds.
    fn oracle_mask(seed: u64, round: u64, n: usize, dead_pct: u64) -> Vec<bool> {
        (0..n as u64)
            .map(|v| mix64(seed ^ mix64(round ^ (v << 8))) % 100 >= dead_pct)
            .collect()
    }

    fn oracle_policy(preferential: bool, seed: u64) -> MaintenancePolicy {
        let degree_min = 1 + (seed % 4) as usize;
        let degree_max = degree_min + (seed >> 8) as usize % 12;
        let budget = 1 + (seed >> 16) as usize % 16;
        if preferential {
            MaintenancePolicy::preferential(degree_min, degree_max, budget, seed)
        } else {
            MaintenancePolicy::uniform(degree_min, degree_max, budget, seed)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The streamed CSR is the sort-dedup CSR, node by node, over
        /// chained rounds: each chain feeds its own output to the next
        /// round, so lists reordered by earlier rounds are covered.
        #[test]
        fn streamed_repair_csr_matches_the_sort_dedup_build(
            two_tier in proptest::prelude::any::<bool>(),
            n in 4usize..400,
            dead_pct in 0u64..46,
            preferential in proptest::prelude::any::<bool>(),
            streamed_wide in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>()
        ) {
            let (narrow, wide) = (Pool::new(1), Pool::new(4));
            let (streamed_pool, reference_pool) =
                if streamed_wide { (&wide, &narrow) } else { (&narrow, &wide) };
            let policy = oracle_policy(preferential, seed);
            let mut streamed = oracle_world(two_tier, n, seed);
            let mut reference = streamed.clone();
            for round in 0..4 {
                let alive = oracle_mask(seed, round, n, dead_pct);
                let (s, s_stats) = repair_round(streamed_pool, &streamed, &alive, &policy, round);
                let (r, r_stats) =
                    repair_round_reference(reference_pool, &reference, &alive, &policy, round);
                proptest::prop_assert_eq!(s_stats, r_stats, "round {}", round);
                for v in 0..n as u32 {
                    proptest::prop_assert_eq!(
                        s.neighbors(v), r.neighbors(v), "round {} node {}", round, v
                    );
                }
                let verdict = both_checks(&streamed, &s, &alive, &policy, &s_stats);
                proptest::prop_assert_eq!(verdict, None);
                streamed = s;
                reference = r;
            }
        }

        /// Chained maintainer steps are chained reference rounds, graph
        /// and stats, at pool widths 1 and 4: nodes die and come back
        /// between rounds, and a budget of one or two probes keeps nodes
        /// below the floor across rounds.
        #[test]
        fn incremental_steps_match_the_reference_rounds(
            two_tier in proptest::prelude::any::<bool>(),
            n in 4usize..300,
            dead_pct in 0u64..46,
            preferential in proptest::prelude::any::<bool>(),
            tiny_budget in proptest::prelude::any::<bool>(),
            wide in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>()
        ) {
            let pool = Pool::new(if wide { 4 } else { 1 });
            let mut policy = oracle_policy(preferential, seed);
            if tiny_budget {
                policy.probe_budget = 1 + (seed >> 40) as usize % 2;
            }
            let world = oracle_world(two_tier, n, seed);
            let mut maintainer = Maintainer::new(world.clone(), policy);
            let mut reference = world;
            for round in 0..6 {
                // Some rounds keep the last mask, so deficient nodes carry
                // over without any liveness change.
                let alive = oracle_mask(seed, round - round % 2 * (seed & 1), n, dead_pct);
                let stats = maintainer.step(&pool, &alive);
                let (r, r_stats) = repair_round_reference(&pool, &reference, &alive, &policy, round);
                proptest::prop_assert_eq!(stats, r_stats, "round {}", round);
                let g = maintainer.graph();
                proptest::prop_assert_eq!(g.num_edges(), r.num_edges(), "round {}", round);
                for v in 0..n as u32 {
                    proptest::prop_assert_eq!(
                        g.neighbors(v), r.neighbors(v), "round {} node {}", round, v
                    );
                }
                reference = r;
            }
            proptest::prop_assert_eq!(maintainer.rounds_run(), 6);
        }

        /// On repaired graphs with random corruptions (one-way entries,
        /// edges to dead nodes, extra edges past the band), the linear
        /// check panics exactly when the quadratic one does, with the
        /// same first failing message.
        #[test]
        fn linear_invariant_check_matches_the_quadratic_one(
            two_tier in proptest::prelude::any::<bool>(),
            n in 4usize..200,
            dead_pct in 0u64..46,
            corruptions in 0usize..4,
            seed in proptest::prelude::any::<u64>()
        ) {
            let pool = Pool::new(2);
            let policy = oracle_policy(seed & 1 == 1, seed);
            let before = oracle_world(two_tier, n, seed);
            let alive = oracle_mask(seed, 0, n, dead_pct);
            let (after, stats) = repair_round(&pool, &before, &alive, &policy, 0);
            let nodes: Vec<u32> = (0..n as u32).collect();
            let mut rng = Pcg64::new(seed ^ 0xc0ff);
            let corrupted = corrupt(&before, &after, &nodes, corruptions, &mut rng);
            let verdict = both_checks(&before, &corrupted, &alive, &policy, &stats);
            if corruptions == 0 {
                proptest::prop_assert_eq!(verdict, None);
            }
        }

        /// Over chained rounds, with 0–3 corruptions among the nodes each
        /// round touched, the dead nodes, and the old and new neighbors
        /// of both, the touched check panics exactly when the full check
        /// does, with the same message.
        #[test]
        fn touched_check_matches_the_full_check(
            two_tier in proptest::prelude::any::<bool>(),
            n in 4usize..300,
            dead_pct in 0u64..46,
            corruptions in 0usize..4,
            seed in proptest::prelude::any::<u64>()
        ) {
            let pool = Pool::new(2);
            let policy = oracle_policy(seed & 1 == 1, seed);
            let mut before = oracle_world(two_tier, n, seed);
            let mut rng = Pcg64::new(seed ^ 0x70c4);
            for round in 0..3 {
                let alive = oracle_mask(seed, round, n, dead_pct);
                let (after, stats) = repair_round(&pool, &before, &alive, &policy, round);
                let mut near: Vec<u32> = (0..n as u32)
                    .filter(|&u| after.neighbors(u) != before.neighbors(u) || !alive[u as usize])
                    .flat_map(|u| {
                        let lists = before.neighbors(u).iter().chain(after.neighbors(u));
                        std::iter::once(u).chain(lists.copied())
                    })
                    .collect();
                near.sort_unstable();
                near.dedup();
                if near.is_empty() {
                    near = (0..n as u32).collect();
                }
                let corrupted = corrupt(&before, &after, &near, corruptions, &mut rng);
                let touched = verdict(check_touched, &before, &corrupted, &alive, &policy, &stats);
                let marked = verdict(check_marked, &before, &corrupted, &alive, &policy, &stats);
                let full =
                    verdict(check_repair_invariants, &before, &corrupted, &alive, &policy, &stats);
                proptest::prop_assert_eq!(&touched, &full, "round {}", round);
                proptest::prop_assert_eq!(&marked, &full, "round {}", round);
                if corruptions == 0 {
                    proptest::prop_assert_eq!(touched, None);
                }
                before = after;
            }
        }
    }

    #[test]
    fn both_invariant_checks_name_the_same_violation() {
        // Path 0-1-2-3-4-5 plus 0-2; node 4 dead.
        let before = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]);
        let mut alive = vec![true; 6];
        alive[4] = false;
        let policy = MaintenancePolicy::uniform(1, 2, 8, 3);
        let pool = Pool::new(1);
        let (after, stats) = repair_round(&pool, &before, &alive, &policy, 0);
        assert_eq!(both_checks(&before, &after, &alive, &policy, &stats), None);
        let lists: Vec<Vec<u32>> = (0..6).map(|v| after.neighbors(v).to_vec()).collect();
        let corrupt = |edit: &dyn Fn(&mut Vec<Vec<u32>>)| {
            let mut l = lists.clone();
            edit(&mut l);
            both_checks(
                &before,
                &Graph::from_lists_unchecked(&l),
                &alive,
                &policy,
                &stats,
            )
        };
        let one_way = corrupt(&|l| l[1].retain(|&w| w != 2));
        assert_eq!(one_way.as_deref(), Some("repaired edge 2-1 is one-way"));
        let to_dead = corrupt(&|l| l[3].push(4));
        assert_eq!(
            to_dead.as_deref(),
            Some("repaired edge 3-4 touches dead node")
        );
        let dead_kept = corrupt(&|l| {
            l[4].push(3);
            l[3].push(4);
        });
        assert_eq!(
            dead_kept.as_deref(),
            Some("repaired edge 3-4 touches dead node")
        );
        let dead_kept_first = corrupt(&|l| {
            l[4].push(5);
            l[5].push(4);
        });
        assert_eq!(
            dead_kept_first.as_deref(),
            Some("dead node 4 kept 1 edges after repair")
        );
        // Node 1 had two surviving edges and a ceiling of 2: a third breaks
        // the band before the symmetry scan of its list runs.
        let band = corrupt(&|l| {
            l[1].push(3);
            l[3].push(1);
        });
        assert_eq!(
            band.as_deref(),
            Some("degree band violated at 1: 3 > max(2, 2)")
        );
        let broken_identity = RepairStats {
            messages: stats.messages + 1,
            ..stats
        };
        let identity = both_checks(&before, &after, &alive, &policy, &broken_identity);
        assert!(identity.is_some_and(|m| m.starts_with("repair accounting broken")));
    }
}
