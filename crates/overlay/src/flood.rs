//! TTL-limited flooding.
//!
//! Gnutella flooding is breadth-first: the source hands the query to every
//! neighbor with the configured TTL; each receiver decrements the TTL and
//! forwards to all its other neighbors while TTL remains. In a two-tier
//! network only ultrapeers forward; leaves receive and answer.
//!
//! [`FloodEngine`] is a reusable BFS context with two interchangeable
//! visited-set representations (DESIGN.md §13): epoch-stamped `u32` marks
//! (4 bytes/node, O(1) reset — the default at paper scale) and a bitset
//! (1 bit/node, O(n/64) reset — the default at million-node scale, where
//! the 32× smaller footprint keeps the visited set cache- and
//! RSS-friendly). Both produce bit-identical traversals: the BFS only
//! ever asks "newly visited?", which is representation-independent.
//! Consecutive queries on the same graph allocate nothing either way, and
//! [`FloodEngine::run_into`] extends that guarantee to the census vectors
//! via a caller-held [`CensusBuf`].
//!
//! # One kernel, two fault models
//!
//! Every BFS here is generic over the visited set and over a crate-private
//! fault model: a zero-sized fault-free model whose checks compile away,
//! and [`FloodFaults`], which consults a [`FaultPlan`] on every
//! transmission. The entry points match on `Option<FloodFaults>` once per
//! query, so the fault-free census is the clean hot loop and records
//! exactly what it always has (no fault counters, no dead-source events).
//!
//! # The hop census and the BFS prefix property
//!
//! A TTL-`t` flood executes *exactly* the first `t` levels of a TTL-max
//! flood: the frontier at hop `h` is a pure function of the first `h`
//! levels, message counters advance transmission by transmission in the
//! same order, and fault draws key on `(edge, nonce, message index)` —
//! none of which mention the TTL. [`FloodEngine::run`] exploits this: one
//! BFS at `max_ttl` records, per hop level, the cumulative
//! `reached`/`messages` and cumulative fault counters, from which
//! [`CensusOutcome::at`] reconstructs the [`FloodOutcome`] of *every*
//! TTL ≤ `max_ttl` bit for bit. An 8-point TTL curve then costs one
//! expanding ball instead of the sum of eight.
//! [`FloodEngine::flood_reference`] floods a single TTL and is the oracle
//! the prefix property is pinned against.

use crate::graph::Graph;
use qcp_faults::{FaultPlan, FaultStats};
use qcp_obs::{Counter, Event, Kernel, Recorder};

/// Fault context of a [`FloodSpec`]: the plan plus the query's position
/// in the plan's streams.
#[derive(Debug, Clone, Copy)]
pub struct FloodFaults<'p> {
    /// The fault plan every transmission consults.
    pub plan: &'p FaultPlan,
    /// Workload tick at which the query is issued.
    pub time: u64,
    /// Per-query nonce in the plan's drop stream.
    pub nonce: u64,
}

/// One description of a flood census: its depth, its fault context, and
/// whether it stops at the first hit.
///
/// [`FloodEngine::run`] always returns the full hop census plus the
/// per-level cumulative [`FaultStats`]; a single-TTL outcome is
/// `census.at(ttl)` — bit-identical to [`FloodEngine::flood_reference`]
/// at that TTL by the BFS prefix property.
///
/// ```
/// use qcp_overlay::{FloodEngine, FloodSpec, Graph};
/// use qcp_obs::NoopRecorder;
///
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut engine = FloodEngine::new(4);
/// let spec = FloodSpec::new(2);
/// let (census, _stats) = engine.run(&graph, 0, &[2], None, &spec, &mut NoopRecorder);
/// assert!(census.at(2).found);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FloodSpec<'p> {
    /// Deepest hop level to census.
    pub max_ttl: u32,
    /// Fault context; `None` runs fault-free.
    pub plan: Option<FloodFaults<'p>>,
    /// Stop expanding once the level containing the first hit is
    /// complete (the expanding-ring driver's early exit).
    pub pruned: bool,
}

impl<'p> FloodSpec<'p> {
    /// A fault-free, unpruned census to `max_ttl`.
    pub fn new(max_ttl: u32) -> Self {
        Self {
            max_ttl,
            plan: None,
            pruned: false,
        }
    }

    /// Attaches a fault plan (every transmission consults it).
    pub fn faulty(mut self, plan: &'p FaultPlan, time: u64, nonce: u64) -> Self {
        self.plan = Some(FloodFaults { plan, time, nonce });
        self
    }

    /// Enables the early exit at the first-hit level.
    pub fn pruned(mut self) -> Self {
        self.pruned = true;
        self
    }
}

/// Per-hop census of one flood: the cumulative coverage and cost of every
/// TTL prefix of a single BFS (see the module docs for why prefixes of
/// one flood *are* independent shorter floods).
///
/// Index `h` of [`Self::reached`]/[`Self::messages`] holds the values a
/// standalone TTL-`h` flood would report. The vectors stop at the level
/// where the BFS exhausted the graph (or at `max_ttl`); [`Self::at`]
/// clamps, because a deeper flood of a dead frontier changes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusOutcome {
    /// `reached[h]` — distinct peers a TTL-`h` flood reaches (index 0 is
    /// the source alone; all-zero when a faulty census had a dead source).
    pub reached: Vec<u32>,
    /// `messages[h]` — query messages a TTL-`h` flood sends.
    pub messages: Vec<u64>,
    /// Hop at which the first holder is reached, if any (TTL-independent:
    /// every flood deep enough finds it at this hop, shallower ones miss).
    pub first_hit_hop: Option<u32>,
}

impl CensusOutcome {
    /// Deepest recorded level (the BFS ran `levels()` hops before the
    /// TTL cap or frontier exhaustion stopped it).
    pub fn levels(&self) -> u32 {
        debug_assert_eq!(self.reached.len(), self.messages.len());
        self.reached.len() as u32 - 1
    }

    /// Reconstructs the outcome of a standalone TTL-`ttl` flood from the
    /// census. For `ttl` beyond the recorded levels the flood had already
    /// exhausted its frontier, so the last level's numbers stand.
    pub fn at(&self, ttl: u32) -> FloodOutcome {
        let level = ttl.min(self.levels()) as usize;
        let found_at_hop = self.first_hit_hop.filter(|&h| h <= ttl);
        FloodOutcome {
            found: found_at_hop.is_some(),
            found_at_hop,
            reached: self.reached[level],
            messages: self.messages[level],
        }
    }
}

/// Result of one flooded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloodOutcome {
    /// Whether any reached peer held the target object.
    pub found: bool,
    /// Hop count at which the first replica was found.
    pub found_at_hop: Option<u32>,
    /// Number of distinct peers reached (including the source).
    pub reached: u32,
    /// Query messages sent (edge traversals).
    pub messages: u64,
}

/// Caller-held census buffers for [`FloodEngine::run_into`]: sweep loops
/// keep one per worker and reuse its vector capacity across trials, so a
/// steady-state trial performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct CensusBuf {
    /// The census of the most recent run.
    pub census: CensusOutcome,
    /// Per-level *cumulative* fault stats of the most recent run
    /// (all-zero entries for fault-free specs).
    pub stats: Vec<FaultStats>,
}

// ---------------------------------------------------------------------
// Visited-set representations.
// ---------------------------------------------------------------------

/// Visited-set representation of a [`FloodEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitedRepr {
    /// Epoch-stamped `u32` per node: 4 bytes/node, O(1) per-query reset.
    EpochMarks,
    /// One bit per node: 32× smaller, O(n/64) per-query reset.
    Bitset,
}

/// Node count at which [`FloodEngine::new`] switches from epoch marks to
/// the bitset: below it the 4-byte marks' O(1) reset wins (queries touch
/// a large fraction of the graph anyway); at and above it the bitset's
/// footprint — 128 KiB instead of 4 MiB per million nodes — dominates.
/// Half a mebinode, so every million-node-and-up ladder rung gets the
/// bitset while the paper's 40k (and the golden-pinned Figure-8 runs)
/// keep epoch marks.
pub const BITSET_THRESHOLD: usize = 1 << 19;

/// The operations a BFS needs from a visited set. The cores are generic
/// over this trait (monomorphized — no per-visit dispatch); the engine
/// picks the implementation once per query.
trait VisitMarks {
    /// Starts a new query: every node becomes unvisited.
    fn begin(&mut self);
    /// Marks `v` visited; true when `v` was not yet visited this query.
    fn insert(&mut self, v: u32) -> bool;
    /// Whether `v` was visited by the current (most recent) query.
    fn contains(&self, v: u32) -> bool;
}

/// 4-byte epoch marks: reset is a counter bump; wraparound (once per
/// 2^32 queries) clears the array and restarts at epoch 1.
#[derive(Debug, Clone)]
struct EpochMarks {
    mark: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    fn new(num_nodes: usize) -> Self {
        Self {
            mark: vec![0; num_nodes],
            epoch: 0,
        }
    }
}

impl VisitMarks for EpochMarks {
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset marks and restart epochs, so a
            // stale mark from 2^32 queries ago can never read as visited.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn insert(&mut self, v: u32) -> bool {
        let slot = &mut self.mark[v as usize];
        if *slot != self.epoch {
            *slot = self.epoch;
            true
        } else {
            false
        }
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.mark[v as usize] == self.epoch
    }
}

/// 1-bit-per-node marks, cleared wholesale at query start.
#[derive(Debug, Clone)]
struct BitMarks {
    words: Vec<u64>,
}

impl BitMarks {
    fn new(num_nodes: usize) -> Self {
        Self {
            words: vec![0; num_nodes.div_ceil(64)],
        }
    }
}

impl VisitMarks for BitMarks {
    fn begin(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    fn insert(&mut self, v: u32) -> bool {
        let word = &mut self.words[(v >> 6) as usize];
        let bit = 1u64 << (v & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }
}

#[derive(Debug, Clone)]
enum Visited {
    Epoch(EpochMarks),
    Bits(BitMarks),
}

// ---------------------------------------------------------------------
// Fault models, monomorphized like the visited sets.
// ---------------------------------------------------------------------

/// The per-transmission fault model of a synchronous kernel. Kernels are
/// generic over it and their entry points match on `Option<FloodFaults>`
/// once per query, so the fault-free instance ([`NoFaults`]) compiles to
/// the clean hot loop.
pub(crate) trait Faults: Copy {
    /// Whether transmissions can fail; `false` also compiles away the
    /// kernels' `rec_faults` calls.
    const ACTIVE: bool;
    /// Whether `source` is up when the query is issued.
    fn source_alive(&self, source: u32) -> bool;
    /// Whether message number `msg` (1-based, the drop-stream index) from
    /// `u` reaches `v`; a lost message is counted in `stats` as a dead
    /// target or a drop.
    fn deliver(&self, u: u32, v: u32, msg: u64, stats: &mut FaultStats) -> bool;
}

/// The fault-free model: every source is up and every message arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoFaults;

impl Faults for NoFaults {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn source_alive(&self, _source: u32) -> bool {
        true
    }

    #[inline(always)]
    fn deliver(&self, _u: u32, _v: u32, _msg: u64, _stats: &mut FaultStats) -> bool {
        true
    }
}

/// Messages to nodes that are down at tick `time` are wasted
/// ([`FaultStats::dead_targets`]) and in-flight drops are wasted
/// ([`FaultStats::dropped`]); dead nodes neither receive, answer, nor
/// forward. Synchronous searches are fire-and-forget: no retries.
impl Faults for FloodFaults<'_> {
    const ACTIVE: bool = true;

    fn source_alive(&self, source: u32) -> bool {
        self.plan.alive_at(source, self.time)
    }

    #[inline]
    fn deliver(&self, u: u32, v: u32, msg: u64, stats: &mut FaultStats) -> bool {
        if !self.plan.alive_at(v, self.time) {
            stats.dead_targets += 1;
            false
        } else if self.plan.drop_message(u, v, self.nonce, msg) {
            stats.dropped += 1;
            false
        } else {
            true
        }
    }
}

// ---------------------------------------------------------------------
// BFS cores, generic over the visited set and the fault model
// (monomorphic hot loops).
// ---------------------------------------------------------------------

/// Running totals of one BFS.
#[derive(Clone, Copy)]
struct Bfs {
    reached: u32,
    messages: u64,
    first_hit_hop: Option<u32>,
}

impl Bfs {
    /// Starts a query: clears the marks, then seeds the frontier with
    /// `source` when `alive` (a dead source leaves both empty, so no mark
    /// of an earlier query survives into [`FloodEngine::was_reached`]).
    fn start<V: VisitMarks>(
        visited: &mut V,
        frontier: &mut Vec<u32>,
        source: u32,
        holders: &[u32],
        alive: bool,
    ) -> Self {
        debug_assert!(holders.windows(2).all(|w| w[0] < w[1]));
        visited.begin();
        frontier.clear();
        if alive {
            visited.insert(source);
            frontier.push(source);
        }
        Self {
            reached: u32::from(alive),
            messages: 0,
            first_hit_hop: (alive && holders.binary_search(&source).is_ok()).then_some(0),
        }
    }

    fn outcome(&self) -> FloodOutcome {
        FloodOutcome {
            found: self.first_hit_hop.is_some(),
            found_at_hop: self.first_hit_hop,
            reached: self.reached,
            messages: self.messages,
        }
    }

    /// Expands the frontier by one level (hop `hop`) and returns the
    /// level's fault stats. Only forwarders expand; the source always
    /// sends.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // the BFS state plus the query
    fn expand<V: VisitMarks, F: Faults>(
        &mut self,
        visited: &mut V,
        frontier: &mut Vec<u32>,
        next: &mut Vec<u32>,
        graph: &Graph,
        source: u32,
        hop: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        faults: F,
    ) -> FaultStats {
        let Bfs {
            mut reached,
            mut messages,
            mut first_hit_hop,
        } = *self;
        let mut stats = FaultStats::default();
        next.clear();
        for &u in frontier.iter() {
            if u != source {
                if let Some(mask) = forwarders {
                    if !mask[u as usize] {
                        continue;
                    }
                }
            }
            for &v in graph.neighbors(u) {
                messages += 1;
                if !faults.deliver(u, v, messages, &mut stats) {
                    continue;
                }
                if visited.insert(v) {
                    reached += 1;
                    if first_hit_hop.is_none() && holders.binary_search(&v).is_ok() {
                        first_hit_hop = Some(hop);
                    }
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
        *self = Bfs {
            reached,
            messages,
            first_hit_hop,
        };
        stats
    }
}

/// One standalone TTL-`ttl` flood (the reference oracle).
#[allow(clippy::too_many_arguments)] // internal core behind the engine API
fn flood_core<V: VisitMarks, F: Faults>(
    visited: &mut V,
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
    graph: &Graph,
    source: u32,
    ttl: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    faults: F,
) -> (FloodOutcome, FaultStats) {
    let mut bfs = Bfs::start(
        visited,
        frontier,
        source,
        holders,
        faults.source_alive(source),
    );
    let mut total = FaultStats::default();
    let mut hop = 0u32;
    while hop < ttl && !frontier.is_empty() {
        hop += 1;
        let stats = bfs.expand(
            visited, frontier, next, graph, source, hop, holders, forwarders, faults,
        );
        total.absorb(&stats);
    }
    (bfs.outcome(), total)
}

/// The hop census: one BFS to `max_ttl`, snapshotting every level.
#[allow(clippy::too_many_arguments)] // internal core behind the engine API
fn census_core<V: VisitMarks, F: Faults, R: Recorder>(
    visited: &mut V,
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
    graph: &Graph,
    source: u32,
    holders: &[u32],
    forwarders: Option<&[bool]>,
    spec: &FloodSpec<'_>,
    faults: F,
    rec: &mut R,
    buf: &mut CensusBuf,
) {
    rec.rec_span(Kernel::Flood);
    let (out, level_stats) = (&mut buf.census, &mut buf.stats);
    let alive = faults.source_alive(source);
    let mut bfs = Bfs::start(visited, frontier, source, holders, alive);
    out.reached.clear();
    out.messages.clear();
    out.reached.push(bfs.reached);
    out.messages.push(bfs.messages);
    level_stats.clear();
    level_stats.push(FaultStats::default());
    if !alive {
        out.first_hit_hop = None;
        rec.rec_event(Kernel::Flood, Event::DeadSource);
        return;
    }
    let mut hop = 0u32;
    while hop < spec.max_ttl && !frontier.is_empty() {
        hop += 1;
        let level_start = bfs.messages;
        let stats = bfs.expand(
            visited, frontier, next, graph, source, hop, holders, forwarders, faults,
        );
        out.reached.push(bfs.reached);
        out.messages.push(bfs.messages);
        rec.rec_hop(Kernel::Flood, hop, bfs.messages - level_start);
        if F::ACTIVE {
            rec.rec_faults(Kernel::Flood, &stats);
        }
        level_stats.push(stats);
        // Expanding-ring early exit: the successful ring is
        // `max(first_hit_hop, 1)`, and its prefix sums are complete
        // once this level is.
        if spec.pruned && bfs.first_hit_hop.is_some() {
            break;
        }
    }
    out.first_hit_hop = bfs.first_hit_hop;
    FaultStats::accumulate_prefix(level_stats);
    rec.rec_count(Kernel::Flood, Counter::Messages, bfs.messages);
    rec.rec_event(
        Kernel::Flood,
        if bfs.first_hit_hop.is_some() {
            Event::Hit
        } else {
            Event::Miss
        },
    );
}

/// Reusable flooding engine for one graph size.
///
/// ```
/// use qcp_overlay::{FloodEngine, Graph};
///
/// // Path 0-1-2-3: a TTL-2 flood from node 0 reaches nodes 0,1,2.
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut engine = FloodEngine::new(4);
/// let (out, _stats) = engine.flood_reference(&graph, 0, 2, &[2], None, None);
/// assert!(out.found);
/// assert_eq!(out.found_at_hop, Some(2));
/// assert_eq!(out.reached, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FloodEngine {
    visited: Visited,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

/// Dispatches once per engine entry point into a core monomorphized over
/// the visited-set representation (no per-visit dynamic dispatch).
macro_rules! with_visited {
    ($self:expr, $marks:ident => $body:expr) => {
        match &mut $self.visited {
            Visited::Epoch($marks) => $body,
            Visited::Bits($marks) => $body,
        }
    };
}

impl FloodEngine {
    /// Creates an engine for graphs with `num_nodes` nodes, choosing the
    /// visited-set representation by [`BITSET_THRESHOLD`].
    pub fn new(num_nodes: usize) -> Self {
        let repr = if num_nodes >= BITSET_THRESHOLD {
            VisitedRepr::Bitset
        } else {
            VisitedRepr::EpochMarks
        };
        Self::with_repr(num_nodes, repr)
    }

    /// Creates an engine with an explicit visited-set representation
    /// (tests and the `repro scale` artifact pin cross-representation
    /// equality with this).
    pub fn with_repr(num_nodes: usize, repr: VisitedRepr) -> Self {
        let visited = match repr {
            VisitedRepr::EpochMarks => Visited::Epoch(EpochMarks::new(num_nodes)),
            VisitedRepr::Bitset => Visited::Bits(BitMarks::new(num_nodes)),
        };
        Self {
            visited,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The active visited-set representation.
    pub fn repr(&self) -> VisitedRepr {
        match self.visited {
            Visited::Epoch(_) => VisitedRepr::EpochMarks,
            Visited::Bits(_) => VisitedRepr::Bitset,
        }
    }

    /// Resident bytes of the engine's per-trial state: the visited set
    /// plus the frontier queues' reserved capacity. Deterministic for a
    /// deterministic workload (capacities grow by the same doubling
    /// sequence), so `repro scale` can report it under the byte gate.
    pub fn mem_bytes(&self) -> usize {
        let visited = match &self.visited {
            Visited::Epoch(m) => m.mark.len() * std::mem::size_of::<u32>(),
            Visited::Bits(m) => m.words.len() * std::mem::size_of::<u64>(),
        };
        visited + (self.frontier.capacity() + self.next.capacity()) * std::mem::size_of::<u32>()
    }

    /// Floods from `source` with `ttl` hops — one standalone flood, the
    /// reference oracle the census is pinned against ([`Self::run`]'s
    /// `census.at(ttl)` is bit-identical).
    ///
    /// * `holders` — sorted peer list holding the target (empty = pure
    ///   coverage measurement);
    /// * `forwarders` — optional mask; nodes with `false` receive but do
    ///   not forward (Gnutella leaves). `None` = everyone forwards;
    /// * `faults` — `None` runs fault-free. Under `Some`, every
    ///   transmission consults the plan; `nonce` identifies the query in
    ///   the plan's drop stream (distinct queries must pass distinct
    ///   nonces). A dead source sends nothing and reaches nobody.
    pub fn flood_reference(
        &mut self,
        graph: &Graph,
        source: u32,
        ttl: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        faults: Option<FloodFaults<'_>>,
    ) -> (FloodOutcome, FaultStats) {
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        match faults {
            None => with_visited!(self, marks => flood_core(
                marks, frontier, next, graph, source, ttl, holders, forwarders, NoFaults,
            )),
            Some(f) => with_visited!(self, marks => flood_core(
                marks, frontier, next, graph, source, ttl, holders, forwarders, f,
            )),
        }
    }

    /// The flood entry point: runs the census described by `spec`,
    /// recording into `rec` (pass [`qcp_obs::NoopRecorder`] for free
    /// no-instrumentation runs). Returns the census plus the per-level
    /// *cumulative* [`FaultStats`] (all-zero entries for fault-free
    /// specs, so consumers index uniformly).
    ///
    /// `census.at(t)` reconstructs [`Self::flood_reference`] at TTL `t`
    /// with the same fault context, and `stats[t.min(census.levels())]`
    /// its fault counters (the BFS prefix property). A pruned spec stops
    /// once the level holding the first hit is complete; the levels it
    /// keeps are those of the full census. Under a fault plan whose
    /// source is dead at `time`, the census is all-zero.
    ///
    /// Allocates fresh result vectors per call; hot sweep loops use
    /// [`Self::run_into`] with a reused [`CensusBuf`] instead.
    pub fn run<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        spec: &FloodSpec<'_>,
        rec: &mut R,
    ) -> (CensusOutcome, Vec<FaultStats>) {
        let mut buf = CensusBuf::default();
        self.run_into(graph, source, holders, forwarders, spec, rec, &mut buf);
        (buf.census, buf.stats)
    }

    /// [`Self::run`] writing into a caller-held [`CensusBuf`]: identical
    /// results (bit for bit — pinned by tests), but the census vectors
    /// reuse `buf`'s capacity, so a steady-state trial allocates nothing.
    #[allow(clippy::too_many_arguments)] // mirrors `run` + the buffer
    pub fn run_into<R: Recorder>(
        &mut self,
        graph: &Graph,
        source: u32,
        holders: &[u32],
        forwarders: Option<&[bool]>,
        spec: &FloodSpec<'_>,
        rec: &mut R,
        buf: &mut CensusBuf,
    ) {
        let (frontier, next) = (&mut self.frontier, &mut self.next);
        match spec.plan {
            None => with_visited!(self, marks => census_core(
                marks, frontier, next, graph, source, holders, forwarders, spec, NoFaults, rec,
                buf,
            )),
            Some(f) => with_visited!(self, marks => census_core(
                marks, frontier, next, graph, source, holders, forwarders, spec, f, rec, buf,
            )),
        }
    }

    /// True if `node` was reached by the most recent flood.
    #[inline]
    pub fn was_reached(&self, node: u32) -> bool {
        match &self.visited {
            Visited::Epoch(m) => m.contains(node),
            Visited::Bits(m) => m.contains(node),
        }
    }

    /// Number of `holders` reached by the most recent flood — the "result
    /// count" a hybrid system uses to decide whether a query is rare
    /// (Loo et al. use `< 20` results).
    pub fn hits_in_last_flood(&self, holders: &[u32]) -> u32 {
        holders.iter().filter(|&&h| self.was_reached(h)).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_obs::NoopRecorder;

    /// Fault-free single-TTL flood through the reference oracle.
    fn flood(
        e: &mut FloodEngine,
        g: &Graph,
        src: u32,
        ttl: u32,
        holders: &[u32],
        fwd: Option<&[bool]>,
    ) -> FloodOutcome {
        e.flood_reference(g, src, ttl, holders, fwd, None).0
    }

    /// Fault-free hop census through the unified entry point.
    fn census(
        e: &mut FloodEngine,
        g: &Graph,
        src: u32,
        spec: FloodSpec<'_>,
        holders: &[u32],
        fwd: Option<&[bool]>,
    ) -> CensusOutcome {
        e.run(g, src, holders, fwd, &spec, &mut NoopRecorder).0
    }

    /// Path graph 0-1-2-3-4.
    fn path() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn ttl_limits_reach() {
        let g = path();
        let mut e = FloodEngine::new(5);
        assert_eq!(flood(&mut e, &g, 0, 0, &[], None).reached, 1);
        assert_eq!(flood(&mut e, &g, 0, 1, &[], None).reached, 2);
        assert_eq!(flood(&mut e, &g, 0, 2, &[], None).reached, 3);
        assert_eq!(flood(&mut e, &g, 0, 4, &[], None).reached, 5);
        assert_eq!(flood(&mut e, &g, 2, 1, &[], None).reached, 3);
    }

    #[test]
    fn finds_object_within_ttl() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let out = flood(&mut e, &g, 0, 3, &[3], None);
        assert!(out.found);
        assert_eq!(out.found_at_hop, Some(3));
        let out = flood(&mut e, &g, 0, 2, &[3], None);
        assert!(!out.found);
        assert_eq!(out.found_at_hop, None);
    }

    #[test]
    fn source_holding_object_found_at_hop_zero() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let out = flood(&mut e, &g, 2, 0, &[2], None);
        assert!(out.found);
        assert_eq!(out.found_at_hop, Some(0));
        assert_eq!(out.reached, 1);
    }

    #[test]
    fn leaves_do_not_forward() {
        // Star: 0 center; 1,2,3 leaves; leaf 1 connects to 4 (another
        // ultrapeer) — but node 1 is a leaf so the flood must stop there.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let forwarders = vec![true, false, false, false, true];
        let mut e = FloodEngine::new(5);
        let out = flood(&mut e, &g, 0, 3, &[4], Some(&forwarders));
        assert!(!out.found, "leaf must not forward toward node 4");
        assert_eq!(out.reached, 4);
        // Same flood with full forwarding reaches node 4.
        let out2 = flood(&mut e, &g, 0, 3, &[4], None);
        assert!(out2.found);
    }

    #[test]
    fn source_leaf_still_sends() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let forwarders = vec![false, true, true];
        let mut e = FloodEngine::new(3);
        let out = flood(&mut e, &g, 0, 2, &[2], Some(&forwarders));
        assert!(out.found, "a leaf source must still issue its own query");
    }

    #[test]
    fn message_count_on_path() {
        let g = path();
        let mut e = FloodEngine::new(5);
        // TTL 2 from node 0: hop1 sends 1 msg (0->1), hop2 sends 2 (1->0,
        // 1->2).
        let out = flood(&mut e, &g, 0, 2, &[], None);
        assert_eq!(out.messages, 3);
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = path();
        let mut e = FloodEngine::new(5);
        for _ in 0..1000 {
            let out = flood(&mut e, &g, 0, 1, &[1], None);
            assert!(out.found);
            assert_eq!(out.reached, 2);
        }
    }

    #[test]
    fn cycle_graph_counts_each_node_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut e = FloodEngine::new(4);
        let out = flood(&mut e, &g, 0, 4, &[], None);
        assert_eq!(out.reached, 4);
    }

    #[test]
    fn census_prefixes_equal_standalone_floods() {
        // The prefix property, exhaustively on a random graph: every TTL
        // slice of one census must equal an independent flood.
        let g = crate::topology::erdos_renyi(400, 5.0, 77).graph;
        let mut a = FloodEngine::new(400);
        let mut b = FloodEngine::new(400);
        for src in [0u32, 9, 250, 399] {
            let holders = [src / 3, 120, 377];
            let mut h: Vec<u32> = holders.to_vec();
            h.sort_unstable();
            h.dedup();
            let census = census(&mut a, &g, src, FloodSpec::new(7), &h, None);
            for ttl in 0..=9u32 {
                let plain = flood(&mut b, &g, src, ttl.min(7), &h, None);
                if ttl <= 7 {
                    assert_eq!(census.at(ttl), plain, "src {src} ttl {ttl}");
                }
            }
            // Beyond max_ttl the census clamps to its last level.
            assert_eq!(census.at(99), census.at(census.levels()));
        }
    }

    #[test]
    fn census_respects_forwarder_masks() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let forwarders = vec![true, false, false, false, true];
        let mut e = FloodEngine::new(5);
        let census = census(&mut e, &g, 0, FloodSpec::new(3), &[4], Some(&forwarders));
        let mut f = FloodEngine::new(5);
        for ttl in 0..=3 {
            assert_eq!(
                census.at(ttl),
                flood(&mut f, &g, 0, ttl, &[4], Some(&forwarders))
            );
        }
        assert_eq!(census.first_hit_hop, None, "leaf must not forward");
    }

    #[test]
    fn census_vectors_are_monotone_and_hop0_is_source() {
        let g = path();
        let mut e = FloodEngine::new(5);
        let census = census(&mut e, &g, 2, FloodSpec::new(4), &[0], None);
        assert_eq!(census.reached[0], 1);
        assert_eq!(census.messages[0], 0);
        assert!(census.reached.windows(2).all(|w| w[0] <= w[1]));
        assert!(census.messages.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(census.first_hit_hop, Some(2));
        assert!(!census.at(1).found && census.at(2).found);
    }

    #[test]
    fn pruned_census_matches_full_census_up_to_hit_level() {
        let g = crate::topology::erdos_renyi(300, 5.0, 78).graph;
        let mut e = FloodEngine::new(300);
        let holders = [150u32];
        let full = census(&mut e, &g, 3, FloodSpec::new(8), &holders, None);
        let pruned = census(&mut e, &g, 3, FloodSpec::new(8).pruned(), &holders, None);
        assert_eq!(pruned.first_hit_hop, full.first_hit_hop);
        let hit = full.first_hit_hop.expect("holder reachable");
        // The pruned census carries every level the ring driver needs:
        // through level max(hit, 1).
        let need = hit.max(1);
        assert!(pruned.levels() >= need);
        for l in 0..=need {
            assert_eq!(pruned.at(l), full.at(l), "level {l}");
        }
    }

    // -----------------------------------------------------------------
    // Representation invariance and per-trial state reuse.
    // -----------------------------------------------------------------

    #[test]
    fn default_repr_follows_the_size_threshold() {
        assert_eq!(FloodEngine::new(5).repr(), VisitedRepr::EpochMarks);
        assert_eq!(
            FloodEngine::new(BITSET_THRESHOLD - 1).repr(),
            VisitedRepr::EpochMarks
        );
        assert_eq!(
            FloodEngine::new(BITSET_THRESHOLD).repr(),
            VisitedRepr::Bitset
        );
    }

    #[test]
    fn bitset_census_equals_epoch_census_bitwise() {
        let g = crate::topology::erdos_renyi(500, 5.0, 91).graph;
        let fwd: Vec<bool> = (0..500).map(|i| i % 3 != 1).collect();
        let mut epoch = FloodEngine::with_repr(500, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(500, VisitedRepr::Bitset);
        for src in [0u32, 123, 499] {
            let holders = [60u32, 200, 355];
            let a = census(&mut epoch, &g, src, FloodSpec::new(6), &holders, Some(&fwd));
            let b = census(&mut bits, &g, src, FloodSpec::new(6), &holders, Some(&fwd));
            assert_eq!(a, b, "src {src}");
            assert_eq!(
                epoch.hits_in_last_flood(&holders),
                bits.hits_in_last_flood(&holders)
            );
            for v in 0..500 {
                assert_eq!(epoch.was_reached(v), bits.was_reached(v), "node {v}");
            }
        }
    }

    #[test]
    fn run_into_reuses_buffers_and_matches_run() {
        let g = crate::topology::erdos_renyi(300, 5.0, 92).graph;
        let mut e = FloodEngine::new(300);
        let mut buf = CensusBuf::default();
        let holders = [40u32, 222];
        for src in [0u32, 7, 150, 299] {
            let spec = FloodSpec::new(5);
            e.run_into(&g, src, &holders, None, &spec, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
            assert_eq!(buf.census, census, "src {src}");
            assert_eq!(buf.stats, stats, "src {src}");
        }
        // Steady state: capacities must be stable (no per-trial realloc).
        let caps = (
            buf.census.reached.capacity(),
            buf.census.messages.capacity(),
            buf.stats.capacity(),
        );
        for src in [11u32, 33, 254] {
            e.run_into(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(5),
                &mut NoopRecorder,
                &mut buf,
            );
        }
        assert_eq!(
            caps,
            (
                buf.census.reached.capacity(),
                buf.census.messages.capacity(),
                buf.stats.capacity(),
            ),
            "steady-state trials must not grow the census buffers"
        );
    }

    #[test]
    fn epoch_wrap_keeps_floods_correct() {
        // Regression: force the epoch counter to the wrap boundary and
        // check that queries across it stay correct — a stale mark from
        // before the wrap must never read as visited.
        let g = path();
        let mut e = FloodEngine::with_repr(5, VisitedRepr::EpochMarks);
        // Populate marks at a pre-wrap epoch.
        let out = flood(&mut e, &g, 0, 4, &[4], None);
        assert_eq!(out.reached, 5);
        match &mut e.visited {
            Visited::Epoch(m) => m.epoch = u32::MAX - 2,
            Visited::Bits(_) => unreachable!("constructed with epoch marks"),
        }
        // Also plant a stale mark equal to a *future* post-wrap epoch (1):
        // the wrap reset must clear it or node 3 would be skipped.
        match &mut e.visited {
            Visited::Epoch(m) => m.mark[3] = 1,
            Visited::Bits(_) => unreachable!(),
        }
        for i in 0..6u32 {
            let out = flood(&mut e, &g, 0, 4, &[4], None);
            assert_eq!(out.reached, 5, "flood {i} across the epoch wrap");
            assert_eq!(out.found_at_hop, Some(4), "flood {i}");
            assert_eq!(out.messages, 7, "flood {i}");
        }
        // The counter did wrap and restart.
        match &e.visited {
            Visited::Epoch(m) => assert!(m.epoch >= 1 && m.epoch < u32::MAX - 2),
            Visited::Bits(_) => unreachable!(),
        }
    }

    #[test]
    fn mem_bytes_reflects_representation() {
        let epoch = FloodEngine::with_repr(1_000, VisitedRepr::EpochMarks);
        let bits = FloodEngine::with_repr(1_000, VisitedRepr::Bitset);
        assert_eq!(epoch.mem_bytes(), 4_000);
        assert_eq!(bits.mem_bytes(), 16 * 8); // ceil(1000/64) u64 words
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use qcp_faults::{FaultConfig, FaultPlan};
    use qcp_obs::NoopRecorder;

    fn faults(plan: &FaultPlan, time: u64, nonce: u64) -> Option<FloodFaults<'_>> {
        Some(FloodFaults { plan, time, nonce })
    }

    fn er(n: usize, seed: u64) -> Graph {
        crate::topology::erdos_renyi(n, 6.0, seed).graph
    }

    #[test]
    fn none_plan_reproduces_flood_exactly() {
        let g = er(500, 1);
        let plan = FaultPlan::none(500);
        let mut a = FloodEngine::new(500);
        let mut b = FloodEngine::new(500);
        for src in [0u32, 7, 100, 499] {
            for ttl in 0..5 {
                let holders = [src / 2, src / 2 + 5, 400];
                let mut h: Vec<u32> = holders.to_vec();
                h.sort_unstable();
                h.dedup();
                let plain = a.flood_reference(&g, src, ttl, &h, None, None).0;
                let (faulty, stats) =
                    b.flood_reference(&g, src, ttl, &h, None, faults(&plan, 0, 99));
                assert_eq!(plain, faulty, "src {src} ttl {ttl}");
                assert_eq!(stats, FaultStats::default());
            }
        }
    }

    #[test]
    fn loss_reduces_reach_and_counts_drops() {
        let g = er(1_000, 2);
        let lossy = FaultPlan::build(
            1_000,
            &FaultConfig {
                loss: 0.4,
                churn: 0.0,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(1_000);
        let clean = e.flood_reference(&g, 3, 4, &[], None, None).0;
        let (faulty, stats) = e.flood_reference(&g, 3, 4, &[], None, faults(&lossy, 0, 5));
        assert!(faulty.reached < clean.reached, "loss must shrink coverage");
        assert!(stats.dropped > 0);
        assert_eq!(stats.dead_targets, 0);
        // Every message was either delivered or dropped, never retried.
        assert!(stats.dropped <= faulty.messages);
        assert_eq!(stats.retries + stats.timeouts, 0);
    }

    #[test]
    fn dead_nodes_block_and_waste_messages() {
        // Path 0-1-2: kill node 1 mid-workload; the flood cannot cross it.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let plan = FaultPlan::build(
            3,
            &FaultConfig {
                loss: 0.0,
                churn: 0.999,
                horizon: 10,
                rejoin: false,
                seed: 11,
                ..Default::default()
            },
        );
        // Find a time where node 1 is down but node 0 is up.
        let t = (0..10u64)
            .find(|&t| !plan.alive_at(1, t) && plan.alive_at(0, t))
            .expect("churn=0.999 must take node 1 down within the horizon");
        let mut e = FloodEngine::new(3);
        let (out, stats) = e.flood_reference(&g, 0, 3, &[2], None, faults(&plan, t, 1));
        assert!(!out.found, "flood cannot cross a dead relay");
        assert!(stats.dead_targets >= 1);
        assert_eq!(stats.dropped, 0, "loss is zero; only dead-target waste");
        assert!(stats.wasted() <= out.messages);
    }

    #[test]
    fn dead_source_sends_nothing() {
        let g = er(50, 3);
        let plan = FaultPlan::build(
            50,
            &FaultConfig {
                churn: 1.0,
                horizon: 4,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..4u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let mut e = FloodEngine::new(50);
        let (out, stats) = e.flood_reference(&g, 0, 5, &[1], None, faults(&plan, t, 0));
        assert!(!out.found);
        assert_eq!(out.messages, 0);
        assert_eq!(out.reached, 0);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn faulty_census_prefixes_equal_standalone_faulty_floods() {
        // The load-bearing claim: fault draws key on (edge, nonce, msg
        // index), all TTL-independent, so the faulty census reconstructs
        // every shorter faulty flood bit for bit — drops, dead targets,
        // reach and message counts included.
        let g = er(500, 5);
        let plan = FaultPlan::build(
            500,
            &FaultConfig {
                loss: 0.25,
                churn: 0.3,
                horizon: 64,
                ..Default::default()
            },
        );
        let mut a = FloodEngine::new(500);
        let mut b = FloodEngine::new(500);
        for (src, time, nonce) in [(0u32, 0u64, 1u64), (13, 17, 2), (250, 40, 3), (499, 63, 4)] {
            let holders = [7u32, 123, 400];
            let (census, level_stats) = a.run(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(6).faulty(&plan, time, nonce),
                &mut NoopRecorder,
            );
            assert_eq!(level_stats.len(), census.reached.len());
            for ttl in 0..=6u32 {
                let (plain, stats) =
                    b.flood_reference(&g, src, ttl, &holders, None, faults(&plan, time, nonce));
                assert_eq!(census.at(ttl), plain, "src {src} ttl {ttl}");
                let level = ttl.min(census.levels()) as usize;
                assert_eq!(level_stats[level], stats, "src {src} ttl {ttl} stats");
            }
        }
    }

    #[test]
    fn faulty_census_under_none_plan_matches_plain_census() {
        // `None` and `Some(FaultPlan::none)` take different monomorphized
        // paths through the one census kernel; they must agree bitwise,
        // pruned or not.
        let g = er(300, 6);
        let plan = FaultPlan::none(300);
        let mut e = FloodEngine::new(300);
        let holders = [42u32, 250];
        for spec in [FloodSpec::new(5), FloodSpec::new(5).pruned()] {
            let plain = e.run(&g, 5, &holders, None, &spec, &mut NoopRecorder);
            let faulty = FloodSpec {
                plan: faults(&plan, 0, 9),
                ..spec
            };
            let (census, stats) = e.run(&g, 5, &holders, None, &faulty, &mut NoopRecorder);
            assert_eq!(plain.0, census);
            assert_eq!(plain.1, stats);
            assert!(stats.iter().all(|s| *s == FaultStats::default()));
        }
    }

    #[test]
    fn faulty_census_dead_source_is_all_zero() {
        let g = er(50, 3);
        let plan = FaultPlan::build(
            50,
            &FaultConfig {
                churn: 1.0,
                horizon: 4,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..4u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let mut e = FloodEngine::new(50);
        let (census, stats) = e.run(
            &g,
            0,
            &[1],
            None,
            &FloodSpec::new(5).faulty(&plan, t, 0),
            &mut NoopRecorder,
        );
        for ttl in 0..=5 {
            let out = census.at(ttl);
            assert!(!out.found);
            assert_eq!((out.reached, out.messages), (0, 0));
        }
        assert_eq!(stats, vec![FaultStats::default()]);
    }

    #[test]
    fn dead_source_census_clears_the_previous_query_marks() {
        // A dead-source query must not leave the previous query's visit
        // marks behind: `was_reached` and `hits_in_last_flood` describe
        // the most recent flood, which reached nobody.
        let g = er(50, 3);
        let plan = FaultPlan::build(
            50,
            &FaultConfig {
                churn: 1.0,
                horizon: 4,
                rejoin: false,
                loss: 0.0,
                ..Default::default()
            },
        );
        let t = (0..4u64)
            .find(|&t| !plan.alive_at(0, t))
            .expect("full churn downs node 0");
        let holders = [1u32, 2];
        for repr in [VisitedRepr::EpochMarks, VisitedRepr::Bitset] {
            let mut e = FloodEngine::with_repr(50, repr);
            let clean = FloodSpec::new(5);
            e.run(&g, 0, &holders, None, &clean, &mut NoopRecorder);
            assert_eq!(e.hits_in_last_flood(&holders), 2, "guard: clean flood hits");
            let dead = FloodSpec::new(5).faulty(&plan, t, 0);
            let (census, _) = e.run(&g, 0, &holders, None, &dead, &mut NoopRecorder);
            assert_eq!(census.reached, vec![0]);
            assert_eq!(e.hits_in_last_flood(&holders), 0, "{repr:?}");
            assert!((0..50).all(|v| !e.was_reached(v)), "{repr:?}");
            // The reference oracle resets the same way.
            e.flood_reference(&g, 0, 5, &holders, None, None);
            let (out, _) = e.flood_reference(&g, 0, 5, &holders, None, faults(&plan, t, 0));
            assert_eq!(out.reached, 0);
            assert_eq!(e.hits_in_last_flood(&holders), 0, "{repr:?}");
        }
    }

    #[test]
    fn spec_dispatch_matches_the_reference_in_every_cell() {
        // Every cell of the unified entry point's dispatch table — fault
        // context absent or present, pruned or not — must reconstruct the
        // standalone reference flood at each TTL it recorded, bitwise,
        // fault counters included.
        let g = er(400, 7);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.2,
                churn: 0.25,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [9u32, 210, 390];
        let mut a = FloodEngine::new(400);
        let mut b = FloodEngine::new(400);
        for src in [0u32, 33, 399] {
            let f = faults(&plan, 11, src as u64);
            for (plan, pruned) in [(None, false), (None, true), (f, false), (f, true)] {
                let spec = FloodSpec {
                    max_ttl: 6,
                    plan,
                    pruned,
                };
                let (census, stats) = a.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
                assert_eq!(stats.len(), census.reached.len());
                if plan.is_none() {
                    assert!(stats.iter().all(|s| *s == FaultStats::default()));
                }
                // A pruned census answers every TTL up to its last level.
                let deepest = if pruned { census.levels() } else { 6 };
                for ttl in 0..=deepest {
                    let (out, ref_stats) = b.flood_reference(&g, src, ttl, &holders, None, plan);
                    assert_eq!(census.at(ttl), out, "src {src} ttl {ttl} pruned {pruned}");
                    let level = ttl.min(census.levels()) as usize;
                    assert_eq!(stats[level], ref_stats, "src {src} ttl {ttl} stats");
                }
            }
        }
    }

    #[test]
    fn spec_faulty_pruned_is_a_prefix_of_the_full_faulty_census() {
        let g = er(300, 8);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.15,
                churn: 0.1,
                horizon: 32,
                ..Default::default()
            },
        );
        let holders = [150u32, 222];
        let mut e = FloodEngine::new(300);
        let spec = FloodSpec::new(8).faulty(&plan, 3, 4).pruned();
        let (pruned, pstats) = e.run(&g, 3, &holders, None, &spec, &mut NoopRecorder);
        let (full, fstats) = e.run(
            &g,
            3,
            &holders,
            None,
            &FloodSpec::new(8).faulty(&plan, 3, 4),
            &mut NoopRecorder,
        );
        assert_eq!(pruned.first_hit_hop, full.first_hit_hop);
        for l in 0..pruned.reached.len() {
            assert_eq!(pruned.reached[l], full.reached[l], "level {l}");
            assert_eq!(pruned.messages[l], full.messages[l], "level {l}");
            assert_eq!(pstats[l], fstats[l], "level {l}");
        }
    }

    #[test]
    fn recording_does_not_perturb_and_totals_reconcile() {
        use qcp_obs::MetricsRecorder;
        let g = er(400, 9);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.2,
                churn: 0.2,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [40u32, 333];
        let mut e = FloodEngine::new(400);
        for spec in [
            FloodSpec::new(5),
            FloodSpec::new(5).pruned(),
            FloodSpec::new(5).faulty(&plan, 7, 1),
            FloodSpec::new(5).faulty(&plan, 7, 1).pruned(),
        ] {
            let mut metrics = MetricsRecorder::new();
            let off = e.run(&g, 2, &holders, None, &spec, &mut NoopRecorder);
            let on = e.run(&g, 2, &holders, None, &spec, &mut metrics);
            assert_eq!(off, on, "recording must not perturb the census");
            let (census, stats) = on;
            // Reconciliation: recorded totals equal the outcome's.
            assert_eq!(
                metrics.total(Kernel::Flood, Counter::Messages),
                *census.messages.last().expect("non-empty census"),
            );
            assert_eq!(metrics.hop_weight(Kernel::Flood), {
                let last = *census.messages.last().expect("non-empty");
                last - census.messages[0]
            });
            let total = stats.last().expect("non-empty stats");
            assert_eq!(metrics.fault_stats(Kernel::Flood), *total);
            assert_eq!(metrics.spans(Kernel::Flood), 1);
        }
    }

    #[test]
    fn faulty_flood_is_deterministic() {
        let g = er(300, 4);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.3,
                horizon: 100,
                ..Default::default()
            },
        );
        let mut e = FloodEngine::new(300);
        let a = e.flood_reference(&g, 5, 4, &[200], None, faults(&plan, 42, 7));
        let b = e.flood_reference(&g, 5, 4, &[200], None, faults(&plan, 42, 7));
        assert_eq!(a, b);
        // A different nonce sees different drops.
        let c = e.flood_reference(&g, 5, 4, &[200], None, faults(&plan, 42, 8));
        assert!(a != c || a.0.messages == 0, "nonce must perturb drops");
    }

    #[test]
    fn faulty_run_into_matches_run_with_reused_buffer() {
        let g = er(300, 12);
        let plan = FaultPlan::build(
            300,
            &FaultConfig {
                loss: 0.2,
                churn: 0.3,
                horizon: 64,
                ..Default::default()
            },
        );
        let holders = [17u32, 290];
        let mut e = FloodEngine::new(300);
        let mut buf = CensusBuf::default();
        // Interleave faulty and fault-free specs through one buffer,
        // including a dead-source trial, to exercise every reset path.
        for (src, time) in [(0u32, 0u64), (33, 17), (150, 40), (299, 63), (12, 5)] {
            let spec = FloodSpec::new(6).faulty(&plan, time, src as u64);
            e.run_into(&g, src, &holders, None, &spec, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &spec, &mut NoopRecorder);
            assert_eq!(buf.census, census, "src {src}");
            assert_eq!(buf.stats, stats, "src {src}");
            let clean = FloodSpec::new(6);
            e.run_into(&g, src, &holders, None, &clean, &mut NoopRecorder, &mut buf);
            let (census, stats) = e.run(&g, src, &holders, None, &clean, &mut NoopRecorder);
            assert_eq!(buf.census, census, "clean src {src}");
            assert_eq!(buf.stats, stats, "clean src {src}");
        }
    }

    #[test]
    fn bitset_faulty_census_equals_epoch_faulty_census_bitwise() {
        let g = er(400, 13);
        let plan = FaultPlan::build(
            400,
            &FaultConfig {
                loss: 0.25,
                churn: 0.2,
                horizon: 64,
                ..Default::default()
            },
        );
        let mut epoch = FloodEngine::with_repr(400, VisitedRepr::EpochMarks);
        let mut bits = FloodEngine::with_repr(400, VisitedRepr::Bitset);
        let holders = [71u32, 340];
        for (src, time, nonce) in [(0u32, 0u64, 1u64), (13, 17, 2), (399, 40, 3)] {
            let a = epoch.run(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(6).faulty(&plan, time, nonce),
                &mut NoopRecorder,
            );
            let b = bits.run(
                &g,
                src,
                &holders,
                None,
                &FloodSpec::new(6).faulty(&plan, time, nonce),
                &mut NoopRecorder,
            );
            assert_eq!(a, b, "src {src}");
        }
    }
}
