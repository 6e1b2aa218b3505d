//! The Chord ring network.
//!
//! A simulated Chord deployment: every node has a random 64-bit id, a
//! finger table (`finger[i] = successor(id + 2^i)`) and a successor
//! pointer. Lookups route greedily via the closest preceding finger and
//! count hops; with `n` nodes they take `O(log n)` hops, the baseline the
//! paper's §V compares hybrid search against.
//!
//! Join/leave rebuild the affected finger entries. This is a simulator,
//! not a networked implementation, so for *those* operations
//! "stabilization" is immediate and deterministic — exactly what the
//! steady-state evaluation needs.
//!
//! The **maintenance model** (PR 4) adds the realistic departure path:
//! [`ChordNetwork::depart`] marks a node down *without* touching anyone
//! else's tables, so fingers and successor lists dangle exactly as they
//! would in a deployed ring; periodic [`ChordNetwork::stabilize`] rounds
//! (successor-list repair, one adoption per node per round) and
//! [`ChordNetwork::fix_fingers`] rounds then heal the tables
//! incrementally, and [`ChordNetwork::lookup_stale`] routes over the
//! possibly-stale local tables only — succeeding, paying wasted probes,
//! or failing outright depending on how far maintenance has caught up.
//!
//! Four lookups route over the tables:
//!
//! * [`ChordNetwork::lookup`] — the fault-free greedy lookup toward the
//!   key;
//! * [`ChordNetwork::lookup_stale`] — the same greedy rule over stale
//!   local tables, probing for departed entries;
//! * [`ChordNetwork::lookup_faulty`] and [`ChordNetwork::lookup_timed`]
//!   — lookups under a [`FaultPlan`], both wrappers over one
//!   owner-directed routing loop. It resolves the key's first alive
//!   successor and walks toward it, excluding candidates that time out
//!   or are found dead. Each hop is an attempt ladder whose clock is a
//!   crate-private hop model: `Instant` charges fixed timeouts and drops
//!   a dead candidate after one probe; `Raced` races each reply against
//!   its (possibly jittered) timer and stops at a cutoff.

use crate::ring::{in_interval_oc, in_interval_oo};
use qcp_faults::{FaultPlan, FaultStats, RetryPolicy};
use qcp_obs::{Counter, Kernel, Recorder};
use qcp_util::hash::mix64;

/// Number of finger-table entries (ring is 2^64).
pub const FINGER_BITS: usize = 64;

/// Default successor-list length *r*: Chord survives up to `r` consecutive
/// departures between maintenance rounds.
pub const DEFAULT_SUCC_LEN: usize = 4;

/// Pads a successor-list row past the end of its list.
const NO_SUCC: u32 = u32::MAX;

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Index (into the network's node table) of the key's owner.
    pub owner: u32,
    /// Routing hops taken (0 when the source already owns the key).
    pub hops: u32,
}

/// Result of a fault-aware lookup ([`ChordNetwork::lookup_faulty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyLookupResult {
    /// The resolved owner, or `None` when routing failed outright (dead
    /// source, no alive owner, or every route timed out).
    pub owner: Option<u32>,
    /// Successful routing hops taken.
    pub hops: u32,
    /// Total transmissions, including retries and wasted probes.
    pub messages: u64,
}

/// Result of a virtual-time lookup ([`ChordNetwork::lookup_timed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedLookupResult {
    /// The resolved owner, or `None` when routing failed or the cutoff
    /// landed first.
    pub owner: Option<u32>,
    /// Successful routing hops taken.
    pub hops: u32,
    /// Total transmissions, including retries and abandoned attempts.
    pub messages: u64,
    /// Virtual time the lookup consumed: link latencies of delivered
    /// replies plus every timeout waited out (the cutoff, when
    /// truncated).
    pub elapsed: u64,
    /// Whether the `cutoff` stopped the lookup before it resolved.
    pub truncated: bool,
}

/// The clock of one hop's attempt ladder in [`ChordNetwork::route`].
///
/// The ladder itself (transmit, drop draw, dead-target and drop
/// accounting, retry or hop timeout) is shared; a model decides only how
/// long each attempt takes and whether a dead candidate runs the ladder
/// at all. Routing is monomorphized over it, like the overlay kernels
/// over their fault model.
trait HopModel {
    /// Whether a dead candidate is excluded after its first silent probe
    /// instead of running the full retry ladder.
    const DEAD_AFTER_ONE_PROBE: bool;

    /// Waits out attempt `attempt` (0-based) starting at virtual time
    /// `*now`. `reply` is the link latency when the candidate answers (it
    /// is alive and the transmission was not dropped), `None` when it
    /// stays silent. Advances `*now` to the first event and returns it.
    fn wait(
        &self,
        policy: &RetryPolicy,
        nonce: u64,
        attempt: u32,
        reply: Option<u64>,
        now: &mut u64,
    ) -> Wait;
}

/// The first event of one attempt.
enum Wait {
    /// The candidate's reply: the hop is delivered.
    Reply,
    /// The retransmission timer: the attempt is lost.
    Timer,
    /// The lookup's cutoff landed before either.
    Cutoff,
}

/// Instant timeouts ([`ChordNetwork::lookup_faulty`]): a delivered
/// attempt costs its link latency, a lost one
/// `policy.timeout_after(attempt)`, and a dead candidate is found out by
/// its first probe. This keeps `dropped == retries + timeouts`.
struct Instant;

impl HopModel for Instant {
    const DEAD_AFTER_ONE_PROBE: bool = true;

    #[inline]
    fn wait(
        &self,
        policy: &RetryPolicy,
        _nonce: u64,
        attempt: u32,
        reply: Option<u64>,
        now: &mut u64,
    ) -> Wait {
        match reply {
            Some(latency) => {
                *now += latency;
                Wait::Reply
            }
            None => {
                *now += policy.timeout_after(attempt);
                Wait::Timer
            }
        }
    }
}

/// The reply/timer race ([`ChordNetwork::lookup_timed`]): the reply
/// lands at `now + latency`, the timer at `now +
/// policy.timeout_for(attempt, nonce)`, and the earlier time wins, a tie
/// going to the reply. Dead candidates never reply, so they run the full
/// ladder. `cutoff` (from the lookup's start) truncates the lookup when
/// the first event would land past it.
struct Raced {
    cutoff: Option<u64>,
}

impl HopModel for Raced {
    const DEAD_AFTER_ONE_PROBE: bool = false;

    #[inline]
    fn wait(
        &self,
        policy: &RetryPolicy,
        nonce: u64,
        attempt: u32,
        reply: Option<u64>,
        now: &mut u64,
    ) -> Wait {
        let timer = now.saturating_add(policy.timeout_for(attempt, nonce));
        let reply = reply.map(|latency| now.saturating_add(latency));
        let first = reply.map_or(timer, |r| r.min(timer));
        if let Some(cutoff) = self.cutoff.filter(|&c| first > c) {
            *now = cutoff;
            return Wait::Cutoff;
        }
        *now = first;
        if reply.is_some_and(|r| r <= timer) {
            Wait::Reply
        } else {
            Wait::Timer
        }
    }
}

/// What [`ChordNetwork::route`] hands back to its two wrappers.
#[derive(Default)]
struct Route {
    owner: Option<u32>,
    hops: u32,
    messages: u64,
    truncated: bool,
    /// The fault tally; `ticks` is the lookup's virtual clock.
    stats: FaultStats,
}

/// A Chord network of simulated nodes.
///
/// ```
/// use qcp_dht::ChordNetwork;
///
/// let net = ChordNetwork::new(256, 7);
/// let result = net.lookup(0, 0xDEAD_BEEF);
/// assert_eq!(result.owner, net.successor_of_key(0xDEAD_BEEF));
/// assert!(result.hops <= net.hop_bound());
/// ```
#[derive(Debug, Clone)]
pub struct ChordNetwork {
    /// Sorted node ids.
    ids: Vec<u64>,
    /// The finger tables, one flat row of [`FINGER_BITS`] slots per node:
    /// `fingers[v * FINGER_BITS + i]` = node index of
    /// `successor(ids[v] + 2^i)` (as last repaired).
    fingers: Vec<u32>,
    /// The maintenance bookkeeping. Boxed, as it is nine vectors: the
    /// network is moved and embedded by value.
    index: Box<Index>,
    /// The successor lists, one flat row of `succ_len` slots per node:
    /// node `v`'s list (the next `succ_len` nodes clockwise after `v`, as
    /// last refreshed — entries dangle after [`Self::depart`]) is its
    /// row up to the first [`NO_SUCC`].
    succ: Vec<u32>,
    /// Nodes marked down by [`Self::depart`]; they keep their id slot so
    /// other nodes' stale table entries still *point* somewhere.
    departed: Vec<bool>,
    /// Number of nodes not departed.
    live: usize,
    /// Successor-list length *r*.
    succ_len: usize,
}

/// What lets maintenance visit only what churn touched: the finger side
/// for [`ChordNetwork::fix_fingers`], the list side for
/// [`ChordNetwork::stabilize`] and the stale count.
#[derive(Debug, Clone, Default)]
struct Index {
    fingers: FingerIndex,
    lists: ListIndex,
}

/// The bookkeeping that lets finger maintenance visit only what churn
/// touched.
///
/// Two invariants hold between calls:
///
/// * **owners** — unless `overflow` is set, the CSR (`owners[at[t]..at[t
///   + 1]]`, built from the whole table) together with the `log` of
///   `(target, owner)` finger writes since is a superset of the finger
///   relation: whenever a finger of `v` points at `t`, `v` is listed
///   under `t` in one of them;
/// * **dirty** — every live node with a finger at a departed node is in
///   `dirty`. A live node outside it has only live fingers.
#[derive(Debug, Clone, Default)]
struct FingerIndex {
    at: Vec<u32>,
    owners: Vec<u32>,
    log: Vec<(u32, u32)>,
    /// The log outgrew half the ring and was dropped: the CSR must be
    /// rebuilt from the table ([`Self::settle`]) before the relation is
    /// read. Rounds settle once, at their end; nothing reads the
    /// relation mid-round.
    overflow: bool,
    /// The dirty nodes, each once; `is_dirty` is its membership mask.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
}

impl FingerIndex {
    /// Re-derives everything from the table after a join or leave: the
    /// CSR, an empty log, and as dirty every owner of a departed node
    /// (the rebuilt fingers ignore `departed`, so they may dangle).
    fn rebuild(&mut self, fingers: &[u32], departed: &[bool]) {
        self.compact(fingers);
        self.dirty.clear();
        self.is_dirty.clear();
        self.is_dirty.resize(departed.len(), false);
        if !departed.contains(&true) {
            return;
        }
        for (v, row) in fingers.chunks_exact(FINGER_BITS).enumerate() {
            if row.iter().any(|&f| departed[f as usize]) {
                self.mark(v as u32);
            }
        }
    }

    /// Rebuilds the owner CSR from the table and empties the log: a
    /// counting sort of each row's distinct targets. A row repeats a
    /// target only in adjacent slots, except after repairs, and a repeat
    /// the dedup misses only costs a duplicate entry.
    fn compact(&mut self, fingers: &[u32]) {
        let n = fingers.len() / FINGER_BITS;
        self.log.clear();
        self.overflow = false;
        self.at.clear();
        self.at.resize(n + 1, 0);
        for row in fingers.chunks_exact(FINGER_BITS) {
            let mut prev = NO_SUCC;
            for &t in row {
                if t != prev {
                    self.at[t as usize] += 1;
                    prev = t;
                }
            }
        }
        for t in 1..=n {
            self.at[t] += self.at[t - 1];
        }
        // `at[t]` is now the end of `t`'s run; filling each run from its
        // end moves `at[t]` back to its start. Free the old list before
        // allocating a longer one, so the two never coexist.
        let total = self.at[n] as usize;
        self.owners.clear();
        if self.owners.capacity() < total {
            self.owners = Vec::new();
        }
        self.owners.resize(total, 0);
        for (v, row) in fingers.chunks_exact(FINGER_BITS).enumerate() {
            let mut prev = NO_SUCC;
            for &t in row {
                if t != prev {
                    self.at[t as usize] -= 1;
                    self.owners[self.at[t as usize] as usize] = v as u32;
                    prev = t;
                }
            }
        }
    }

    /// Notes that a finger of `owner` now points at `target`. Past half
    /// the ring's entries the log is dropped and the index marked for
    /// compaction instead.
    fn record(&mut self, target: u32, owner: u32) {
        if self.overflow || self.log.last() == Some(&(target, owner)) {
            return;
        }
        self.log.push((target, owner));
        if self.log.len() > self.is_dirty.len() / 2 {
            self.log.clear();
            self.overflow = true;
        }
    }

    /// Compacts an overflowed log, restoring the owners invariant.
    fn settle(&mut self, fingers: &[u32]) {
        if self.overflow {
            self.compact(fingers);
        }
    }

    /// Marks every node that may hold a finger to `t` dirty; the index
    /// must be settled.
    fn mark_owners_of(&mut self, t: u32) {
        debug_assert!(!self.overflow, "finger index read before settling");
        let (from, to) = (self.at[t as usize], self.at[t as usize + 1]);
        for i in from..to {
            self.mark(self.owners[i as usize]);
        }
        for i in 0..self.log.len() {
            let (target, owner) = self.log[i];
            if target == t {
                self.mark(owner);
            }
        }
    }

    fn mark(&mut self, v: u32) {
        if !self.is_dirty[v as usize] {
            self.is_dirty[v as usize] = true;
            self.dirty.push(v);
        }
    }
}

/// The bookkeeping that lets a stabilize round visit only the nodes whose
/// turn could change something, and keeps the successor-list stale count.
///
/// A live node is *settled* when its turn would leave it as it is: its
/// list starts with a live node `s`, its `finger[0]` is `s`, and the rest
/// of its list is what it adopts from `s`'s list as that list stands. A
/// settled node's turn costs two messages (one probe, one fetch), which
/// the round charges without visiting it.
///
/// **work** — between calls, and during a round for every node after the
/// one being visited, each live node outside `work` is settled. Three
/// events can unsettle a node, and each puts it in `work`:
///
/// * a liveness flip of `x` — the nodes whose list starts with `x`;
/// * a change to `s`'s list — the nodes whose list starts with `s`;
/// * a rejoin — the rejoiner and the predecessor its notify reaches.
///
/// A flip further down a list unsettles nothing by itself: the first
/// entry is still live, and if the flip changes that entry's list, the
/// second event follows. A round visits `work` in ascending order; a node
/// marked at or before the one being visited waits for the next round,
/// exactly when a full round would already have passed it.
#[derive(Debug, Clone, Default)]
struct ListIndex {
    /// `first_head[s]` starts a chain, through `first_next`, of every
    /// node (live or departed) whose list starts with `s`.
    first_head: Vec<u32>,
    first_next: Vec<u32>,
    /// `listed[x]`: the live nodes whose list holds `x`.
    listed: Vec<u32>,
    /// Entries of live nodes' lists at departed nodes: `listed` summed
    /// over the departed nodes.
    stale: usize,
    /// One bit per node: the nodes the next round visits.
    work: Vec<u64>,
}

impl ListIndex {
    fn mark(&mut self, v: u32) {
        self.work[v as usize / 64] |= 1 << (v % 64);
    }

    /// Chains `v` under `s`, its list's first entry.
    fn link(&mut self, v: u32, s: u32) {
        if s != NO_SUCC {
            self.first_next[v as usize] = self.first_head[s as usize];
            self.first_head[s as usize] = v;
        }
    }

    /// Takes `v` out of `s`'s chain.
    fn unlink(&mut self, v: u32, s: u32) {
        if s == NO_SUCC {
            return;
        }
        let next = self.first_next[v as usize];
        if self.first_head[s as usize] == v {
            self.first_head[s as usize] = next;
            return;
        }
        let mut at = self.first_head[s as usize];
        while self.first_next[at as usize] != v {
            at = self.first_next[at as usize];
        }
        self.first_next[at as usize] = next;
    }
}

impl ChordNetwork {
    /// Builds a network of `n` nodes with ids derived from `seed` and the
    /// default successor-list length.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_succ_len(n, seed, DEFAULT_SUCC_LEN)
    }

    /// Builds a network with an explicit successor-list length `r >= 1`.
    pub fn with_succ_len(n: usize, seed: u64, r: usize) -> Self {
        assert!(n >= 1);
        let mut ids: Vec<u64> = (0..n as u64).map(|i| mix64(seed ^ mix64(i))).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "id collision (astronomically unlikely)");
        Self::from_sorted_ids(ids, r)
    }

    /// Builds a fully live network over sorted, distinct `ids`.
    fn from_sorted_ids(ids: Vec<u64>, r: usize) -> Self {
        assert!(r >= 1, "successor list needs at least one entry");
        let n = ids.len();
        let mut net = Self {
            ids,
            fingers: Vec::new(),
            index: Box::default(),
            succ: Vec::new(),
            departed: vec![false; n],
            live: n,
            succ_len: r,
        };
        net.rebuild_all_fingers();
        net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the ring has no nodes (cannot happen).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of node `v`.
    pub fn id_of(&self, v: u32) -> u64 {
        self.ids[v as usize]
    }

    /// Index of the node owning `key` (its successor on the ring).
    pub fn successor_of_key(&self, key: u64) -> u32 {
        self.key_slot(key) as u32
    }

    /// Rebuilds every finger as [`Self::successor_of_key`] would, which
    /// ignores `departed`, so the rebuilt fingers may dangle; the index
    /// marks their owners dirty.
    fn rebuild_all_fingers(&mut self) {
        let n = self.ids.len();
        // Refill the table in its own buffer, which a join or leave
        // changes by one row; reserve it exactly, as it is the ring's
        // largest allocation.
        let mut fingers = std::mem::take(&mut self.fingers);
        fingers.clear();
        fingers.reserve_exact(n * FINGER_BITS);
        // Finger `i`'s target `ids[v] + 2^i` rises with `v`, wrapping past
        // 2^64 at most once, so the first id at or after it only moves
        // forward: one pointer per bit, restarted at the wrap, finds every
        // slot without a search. A pointer run off the end means the key
        // wraps to slot 0.
        let mut next = [0usize; FINGER_BITS];
        let mut wrapped = 0u64;
        for &id in &self.ids {
            for (i, p) in next.iter_mut().enumerate() {
                let (target, wraps) = id.overflowing_add(1u64 << i);
                if wraps && wrapped & (1 << i) == 0 {
                    wrapped |= 1 << i;
                    *p = 0;
                }
                while *p < n && self.ids[*p] < target {
                    *p += 1;
                }
                fingers.push(if *p == n { 0 } else { *p as u32 });
            }
        }
        self.fingers = fingers;
        self.index.fingers.rebuild(&self.fingers, &self.departed);
        // Successor lists: the next min(r, n-1) nodes clockwise. The ids
        // are sorted, so index order *is* clockwise order.
        let r = self.succ_len.min(n.saturating_sub(1));
        self.succ.clear();
        for v in 0..n {
            self.succ.extend((1..=r).map(|off| ((v + off) % n) as u32));
            self.succ
                .extend(std::iter::repeat_n(NO_SUCC, self.succ_len - r));
        }
        self.rebuild_lists();
    }

    /// Re-derives the list side of the index from the table. A fresh
    /// list is the next nodes by index, which is also what its turn
    /// adopts, so a node is settled unless its list is empty (n = 1) or
    /// starts at a departed node.
    fn rebuild_lists(&mut self) {
        let n = self.len();
        let lists = &mut self.index.lists;
        lists.first_head.clear();
        lists.first_head.resize(n, NO_SUCC);
        lists.first_next.clear();
        lists.first_next.resize(n, NO_SUCC);
        lists.listed.clear();
        lists.listed.resize(n, 0);
        lists.stale = 0;
        lists.work.clear();
        lists.work.resize(n.div_ceil(64), 0);
        for v in 0..n as u32 {
            let first = self.succ[v as usize * self.succ_len];
            self.index.lists.link(v, first);
            if first == NO_SUCC || self.departed[first as usize] {
                self.index.lists.mark(v);
            }
            if !self.departed[v as usize] {
                self.tally_list(v, true);
            }
        }
    }

    /// Adds node `v`'s list to (`add`) or takes it from the `listed`
    /// counts and the stale count.
    fn tally_list(&mut self, v: u32, add: bool) {
        let row = &self.succ[v as usize * self.succ_len..][..self.succ_len];
        let lists = &mut self.index.lists;
        for &w in row.iter().take_while(|&&w| w != NO_SUCC) {
            let dead = self.departed[w as usize] as usize;
            if add {
                lists.listed[w as usize] += 1;
                lists.stale += dead;
            } else {
                lists.listed[w as usize] -= 1;
                lists.stale -= dead;
            }
        }
    }

    /// Puts in the work set every live node whose list starts with `x`.
    fn mark_first_listers(&mut self, x: u32) {
        let lists = &mut self.index.lists;
        let mut w = lists.first_head[x as usize];
        while w != NO_SUCC {
            if !self.departed[w as usize] {
                lists.mark(w);
            }
            w = lists.first_next[w as usize];
        }
    }

    /// Replaces node `v`'s successor list with `list` (at most *r*
    /// entries), keeping the list index: the counts, `v`'s chain, and the
    /// nodes that adopt from `v`'s list marked to adopt again.
    fn set_succ_list(&mut self, v: u32, list: &[u32]) {
        let at = v as usize * self.succ_len;
        let row = &self.succ[at..at + self.succ_len];
        if row.starts_with(list) && row.get(list.len()).is_none_or(|&w| w == NO_SUCC) {
            return;
        }
        let old_first = row[0];
        let live = !self.departed[v as usize];
        if live {
            self.tally_list(v, false);
        }
        let row = &mut self.succ[at..at + self.succ_len];
        row[..list.len()].copy_from_slice(list);
        row[list.len()..].fill(NO_SUCC);
        if live {
            self.tally_list(v, true);
        }
        let new_first = self.succ[at];
        if new_first != old_first {
            self.index.lists.unlink(v, old_first);
            self.index.lists.link(v, new_first);
        }
        self.mark_first_listers(v);
    }

    /// Node `v`'s finger table.
    fn fingers_of(&self, v: u32) -> &[u32] {
        &self.fingers[v as usize * FINGER_BITS..][..FINGER_BITS]
    }

    /// Points finger `i` of `v` at `target`, recording the write in the
    /// owner index.
    fn set_finger(&mut self, v: u32, i: usize, target: u32) {
        let slot = &mut self.fingers[v as usize * FINGER_BITS + i];
        if *slot != target {
            *slot = target;
            self.index.fingers.record(target, v);
        }
    }

    /// Greedy Chord lookup from node `from` for `key`.
    pub fn lookup(&self, from: u32, key: u64) -> LookupResult {
        let mut current = from;
        let mut hops = 0u32;
        loop {
            let cur_id = self.ids[current as usize];
            // A node knows its predecessor: if the key falls in
            // (pred, current] the current node owns it.
            let n = self.len();
            let pred_id = self.ids[(current as usize + n - 1) % n];
            if n == 1 || in_interval_oc(key, pred_id, cur_id) {
                return LookupResult {
                    owner: current,
                    hops,
                };
            }
            let succ = self.fingers_of(current)[0];
            let succ_id = self.ids[succ as usize];
            if in_interval_oc(key, cur_id, succ_id) {
                // Key owned by our successor: one final hop.
                return LookupResult {
                    owner: succ,
                    hops: hops + 1,
                };
            }
            // Closest preceding finger strictly inside (cur, key).
            let mut next = succ;
            for &f in self.fingers_of(current).iter().rev() {
                let f_id = self.ids[f as usize];
                if in_interval_oo(f_id, cur_id, key) {
                    next = f;
                    break;
                }
            }
            if next == current {
                // Degenerate small ring: step to successor.
                next = succ;
            }
            current = next;
            hops += 1;
            debug_assert!(hops as usize <= self.len() + FINGER_BITS, "routing loop");
        }
    }

    /// Lookup under a [`FaultPlan`]: every hop is a real transmission that
    /// can be lost in flight or addressed to a departed node.
    ///
    /// Per-hop protocol, mirroring a request/response RPC layer:
    ///
    /// 1. pick the best next hop — the closest preceding finger inside
    ///    `(current, owner]` that is not excluded, falling back to the
    ///    clockwise ring scan (successor-list recovery);
    /// 2. transmit; a message **lost in flight** is retried after
    ///    `policy.timeout_after(attempt)` ticks, up to
    ///    `policy.max_retries` times — when the budget is exhausted the
    ///    hop *times out*, the candidate is excluded for this lookup, and
    ///    the router repairs by picking the next-best candidate;
    /// 3. a message to a **departed node** wastes one probe and one base
    ///    timeout, then the candidate is excluded immediately (there is no
    ///    point re-sending to a dead peer).
    ///
    /// This keeps the [`FaultStats`] identity for retrying engines:
    /// `dropped == retries + timeouts`. Delivered hops charge the link
    /// latency to `ticks`.
    ///
    /// Returns `owner: None` when the lookup fails outright: the source is
    /// down, no alive owner exists, the owner itself timed out, or every
    /// route to the owner was excluded.
    pub fn lookup_faulty(
        &self,
        from: u32,
        key: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        time: u64,
        nonce: u64,
    ) -> (FaultyLookupResult, FaultStats) {
        let r = self.route(from, key, plan, policy, time, nonce, Instant);
        let result = FaultyLookupResult {
            owner: r.owner,
            hops: r.hops,
            messages: r.messages,
        };
        (result, r.stats)
    }

    /// Virtual-time fault-aware lookup: the route of
    /// [`Self::lookup_faulty`] with each attempt a race between the
    /// candidate's reply and the sender's retransmission timer.
    ///
    /// The reply lands at `now + plan.latency(current, cand)` (only when
    /// the candidate is alive and the transmission is not dropped), the
    /// timer at `now + policy.timeout_for(attempt, nonce)` (jittered when
    /// the policy carries a jitter seed). The earlier time wins, and at a
    /// tie the reply:
    ///
    /// * **reply first** — the hop is delivered and the timer is
    ///   abandoned;
    /// * **timer first** — the attempt is charged
    ///   ([`FaultStats::dropped`] / [`FaultStats::dead_targets`] when the
    ///   message actually went missing; *nothing* when a slow reply was
    ///   merely outrun — that abandoned attempt is why the timed path's
    ///   identity relaxes to `dropped <= retries + timeouts`) and the
    ///   policy's ladder decides between a retry and a hop timeout.
    ///
    /// Dead candidates never reply, so — unlike the instant-timeout
    /// path, which discovers departure in one probe — they cost the
    /// *full* retry ladder before exclusion, one `dead_targets` entry
    /// per attempt. `cutoff` (relative to the lookup's start) truncates
    /// the lookup when the next event would land past it.
    ///
    /// Elapsed virtual time is the clock at exit (the cutoff, when
    /// truncated) and is also stored in [`FaultStats::ticks`].
    #[allow(clippy::too_many_arguments)] // mirrors `lookup_faulty` + the cutoff
    pub fn lookup_timed(
        &self,
        from: u32,
        key: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        time: u64,
        nonce: u64,
        cutoff: Option<u64>,
    ) -> (TimedLookupResult, FaultStats) {
        let r = self.route(from, key, plan, policy, time, nonce, Raced { cutoff });
        let result = TimedLookupResult {
            owner: r.owner,
            hops: r.hops,
            messages: r.messages,
            elapsed: r.stats.ticks,
            truncated: r.truncated,
        };
        (result, r.stats)
    }

    /// The owner-directed routing loop behind [`Self::lookup_faulty`] and
    /// [`Self::lookup_timed`]: resolve the key's first alive successor,
    /// then walk toward it one candidate at a time, each hop an attempt
    /// ladder timed by the hop model `M`. A candidate that is given up on
    /// is excluded for the rest of the lookup; if it is the owner itself,
    /// no repair can route around it and the lookup fails.
    #[allow(clippy::too_many_arguments)] // the lookup context + the hop model
    fn route<M: HopModel>(
        &self,
        from: u32,
        key: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        time: u64,
        nonce: u64,
        model: M,
    ) -> Route {
        assert_eq!(plan.num_nodes(), self.len(), "plan must cover the ring");
        let mut route = Route::default();
        if !plan.alive_at(from, time) {
            return route;
        }
        let Some(owner) = self.first_alive_successor_at(key, plan, time) else {
            return route;
        };
        let owner_id = self.ids[owner as usize];
        let mut current = from;
        // Candidates ruled out for this lookup (timed out or found dead).
        let mut excluded: Vec<u32> = Vec::new();
        while current != owner {
            let Some(cand) = self.next_hop_candidate(current, owner_id, &excluded) else {
                return route; // every route to the owner is excluded
            };
            let alive = plan.alive_at(cand, time);
            let mut attempt = 0u32;
            let delivered = loop {
                route.messages += 1;
                let dropped = alive && plan.drop_message(current, cand, nonce, route.messages);
                let reply = (alive && !dropped).then(|| plan.latency(current, cand));
                match model.wait(policy, nonce, attempt, reply, &mut route.stats.ticks) {
                    Wait::Reply => break true,
                    Wait::Cutoff => {
                        route.truncated = true;
                        return route;
                    }
                    Wait::Timer => {}
                }
                if !alive {
                    route.stats.dead_targets += 1;
                    if M::DEAD_AFTER_ONE_PROBE {
                        break false;
                    }
                } else if dropped {
                    route.stats.dropped += 1;
                }
                if attempt >= policy.max_retries {
                    route.stats.timeouts += 1;
                    break false;
                }
                attempt += 1;
                route.stats.retries += 1;
            };
            if delivered {
                current = cand;
                route.hops += 1;
            } else if cand == owner {
                return route; // the destination itself is unreachable
            } else {
                excluded.push(cand);
            }
            debug_assert!(
                (route.hops as usize) <= 2 * self.len() + FINGER_BITS,
                "fault-aware routing loop"
            );
        }
        route.owner = Some(owner);
        route
    }

    /// [`Self::stabilize`] with an explicit [`Recorder`]: records the
    /// round's message bill under [`Kernel::Stabilize`] after the round
    /// completes (the round itself is recorder-free, so table evolution
    /// is identical with recording on or off).
    pub fn stabilize_rec<R: Recorder>(&mut self, rec: &mut R) -> u64 {
        let messages = self.stabilize();
        rec.rec_span(Kernel::Stabilize);
        rec.rec_count(Kernel::Stabilize, Counter::Messages, messages);
        messages
    }

    /// [`Self::fix_fingers`] with an explicit [`Recorder`]: the finger
    /// probes are tallied under [`Kernel::Stabilize`] as
    /// [`Counter::Probes`] (stabilize and fix-fingers form one
    /// maintenance kernel in the profile breakdown).
    pub fn fix_fingers_rec<R: Recorder>(&mut self, rec: &mut R) -> u64 {
        let messages = self.fix_fingers();
        rec.rec_span(Kernel::Stabilize);
        rec.rec_count(Kernel::Stabilize, Counter::Probes, messages);
        messages
    }
    /// Best next hop from `current` toward the node owning `owner_id`:
    /// the closest preceding finger strictly progressing inside
    /// `(current, owner]`, else the closest clockwise ring node
    /// (successor-list fallback). Nodes in `excluded` are skipped.
    fn next_hop_candidate(&self, current: u32, owner_id: u64, excluded: &[u32]) -> Option<u32> {
        let cur_id = self.ids[current as usize];
        for &f in self.fingers_of(current).iter().rev() {
            if f == current || excluded.contains(&f) {
                continue;
            }
            if in_interval_oc(self.ids[f as usize], cur_id, owner_id) {
                return Some(f);
            }
        }
        self.clockwise_from(current as usize + 1)
            .find(|&v| v != current && !excluded.contains(&v))
    }

    /// Node indices clockwise from index `start` (taken mod n), once round
    /// the ring. Every "first live node" question the ring asks is a
    /// `find` over it, or an `rfind` for the counterclockwise one.
    fn clockwise_from(&self, start: usize) -> impl DoubleEndedIterator<Item = u32> {
        let n = self.len();
        (0..n).map(move |off| ((start + off) % n) as u32)
    }

    /// Index of the first node id at or clockwise after `key`.
    fn key_slot(&self, key: u64) -> usize {
        let idx = self.ids.partition_point(|&id| id < key);
        if idx == self.ids.len() {
            0
        } else {
            idx
        }
    }

    /// The first node at or clockwise after `key` that is alive at tick
    /// `time` under `plan`: the key's owner for fault-aware lookups.
    pub(crate) fn first_alive_successor_at(
        &self,
        key: u64,
        plan: &FaultPlan,
        time: u64,
    ) -> Option<u32> {
        self.clockwise_from(self.key_slot(key))
            .find(|&v| plan.alive_at(v, time))
    }

    /// The first node at or clockwise after `key` that is up in `alive`.
    pub(crate) fn first_alive_successor(&self, key: u64, alive: &[bool]) -> Option<u32> {
        self.clockwise_from(self.key_slot(key))
            .find(|&v| alive[v as usize])
    }

    /// Adds a node with an id derived from `id_seed`; returns its index.
    /// All finger tables are rebuilt (simulator semantics: instantaneous
    /// stabilization).
    pub fn join(&mut self, id_seed: u64) -> u32 {
        let id = mix64(id_seed ^ 0x10ad);
        let pos = self.ids.partition_point(|&x| x < id);
        assert!(
            self.ids.get(pos) != Some(&id),
            "id collision on join (astronomically unlikely)"
        );
        self.ids.insert(pos, id);
        self.departed.insert(pos, false);
        self.live += 1;
        self.rebuild_all_fingers();
        pos as u32
    }

    /// Removes node `v`. Remaining indices shift down by one past `v`.
    pub fn leave(&mut self, v: u32) {
        assert!(self.ids.len() > 1, "cannot empty the ring");
        self.ids.remove(v as usize);
        if !self.departed.remove(v as usize) {
            self.live -= 1;
        }
        self.rebuild_all_fingers();
    }

    /// Expected maximum lookup hops: `O(log2 n)` with slack for the
    /// greedy-finger constant (useful in assertions and reports).
    pub fn hop_bound(&self) -> u32 {
        (self.len() as f64).log2().ceil() as u32 * 2 + 4
    }

    // ------------------------------------------------------------------
    // Maintenance model: realistic departures + incremental repair.
    // ------------------------------------------------------------------

    /// Marks node `v` down **without repairing anyone's tables** — the
    /// realistic counterpart of [`Self::leave`], whose instantaneous
    /// global rebuild no deployed ring can perform. After `depart`, every
    /// finger and successor-list entry pointing at `v` dangles until
    /// [`Self::stabilize`] / [`Self::fix_fingers`] rounds catch up.
    pub fn depart(&mut self, v: u32) {
        assert!(!self.departed[v as usize], "node {v} already departed");
        assert!(
            self.live_count() > 1,
            "cannot depart the last live node in the ring"
        );
        self.departed[v as usize] = true;
        self.live -= 1;
        // v's list stops counting, and every live list holding v now
        // holds a stale entry; those that start with v must re-probe.
        self.tally_list(v, false);
        self.index.lists.stale += self.index.lists.listed[v as usize] as usize;
        self.mark_first_listers(v);
        // Whoever points at v now holds a dangling finger.
        self.index.fingers.settle(&self.fingers);
        self.index.fingers.mark_owners_of(v);
    }

    /// Brings a departed node back up: Chord's re-join, collapsed.
    ///
    /// The node re-bootstraps its own successor list from the live ring
    /// (one message per entry) and *notifies* its live predecessor,
    /// which splices it into its successor list at the sorted position
    /// (one message) — without the notify, gossip alone could never
    /// re-discover a returned node. The rejoiner keeps its old finger
    /// table (sessions keep state across restarts); stale entries there
    /// heal through [`Self::fix_fingers`] like everyone else's.
    ///
    /// Returns the message count of the re-join handshake.
    pub fn rejoin(&mut self, v: u32) -> u64 {
        assert!(self.departed[v as usize], "node {v} is not departed");
        self.departed[v as usize] = false;
        self.live += 1;
        // Every live list holding v holds a live entry again, and v's own
        // list counts from now on.
        self.index.lists.stale -= self.index.lists.listed[v as usize] as usize;
        self.tally_list(v, true);
        self.mark_first_listers(v);
        // v's fingers were not repaired while it was down.
        self.index.fingers.mark(v);
        // Rebuild v's own successor list: next r live nodes clockwise.
        let mut list: Vec<u32> = self.live_others(v).take(self.succ_len).collect();
        let mut messages = list.len() as u64;
        self.set_succ_list(v, &list);
        self.index.lists.mark(v);
        // Notify the live predecessor so the ring learns v is back.
        let pred = self.live_others(v).next_back();
        if let Some(u) = pred {
            messages += 1;
            self.index.lists.mark(u);
            let base = self.ids[u as usize];
            let d_v = self.ids[v as usize].wrapping_sub(base);
            list.clear();
            list.extend_from_slice(self.succ_list(u));
            let pos = list.partition_point(|&w| self.ids[w as usize].wrapping_sub(base) < d_v);
            if list.get(pos) != Some(&v) {
                list.insert(pos, v);
                list.truncate(self.succ_len);
                self.set_succ_list(u, &list);
            }
            if pos == 0 {
                self.set_finger(u, 0, v);
            }
        }
        messages
    }

    /// The live nodes other than `v`, clockwise from `v`: `next()` is
    /// its live successor (the bootstrap rescue when `v`'s whole
    /// successor list is dead), `next_back()` its live predecessor.
    fn live_others(&self, v: u32) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.clockwise_from(v as usize + 1)
            .filter(move |&w| w != v && !self.departed[w as usize])
    }

    /// Whether `v` is currently departed.
    pub fn is_departed(&self, v: u32) -> bool {
        self.departed[v as usize]
    }

    /// Number of live (non-departed) nodes.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The liveness mask (`true` = live), indexed like the node table.
    pub fn alive_mask(&self) -> Vec<bool> {
        self.departed.iter().map(|&d| !d).collect()
    }

    /// Node `v`'s successor list as last refreshed (possibly stale).
    pub fn succ_list(&self, v: u32) -> &[u32] {
        let row = &self.succ[v as usize * self.succ_len..][..self.succ_len];
        let len = row.iter().position(|&w| w == NO_SUCC).unwrap_or(row.len());
        &row[..len]
    }

    /// The first *live* node at or clockwise after `key` — the key's
    /// owner under the current departed mask (oracle view; stale-aware
    /// routing may or may not reach it).
    #[cfg(test)]
    pub(crate) fn first_live_successor_of_key(&self, key: u64) -> Option<u32> {
        self.clockwise_from(self.key_slot(key))
            .find(|&v| !self.departed[v as usize])
    }

    /// One stabilization round over all live nodes (ascending index
    /// order, in place — sequential gossip): each node probes its
    /// successor list for the first live entry `s` (one message per
    /// probe), adopts `[s] ++ s's list` truncated to *r* and cut where
    /// it would reach or wrap past `v` (one fetch message), and repoints
    /// `finger[0]` at `s`. A node whose entire
    /// list is dead re-enters via the first live node clockwise (a
    /// bootstrap rescue, one extra message).
    ///
    /// Only the nodes in the index's work set are visited: every other
    /// live node is settled, its turn would change nothing, and the
    /// round charges it the two messages of that turn (see
    /// `ListIndex`). The work set is kept in ascending order, so the
    /// round's outcome is that of the full pass.
    ///
    /// Returns the round's message count. One round repairs every
    /// immediate successor pointer; lists converge to the true next-*r*
    /// live nodes within `O(r)` rounds — the recovery curve `repro soak`
    /// measures.
    pub fn stabilize(&mut self) -> u64 {
        let mut messages = 0u64;
        let mut visited = 0usize;
        let mut list = Vec::with_capacity(self.succ_len);
        for word in 0..self.index.lists.work.len() {
            // Bits below `from` were visited this round or marked since;
            // a mark there waits for the next round.
            let mut from = 0u32;
            while from < 64 {
                let pending = self.index.lists.work[word] & (!0u64 << from);
                if pending == 0 {
                    break;
                }
                let bit = pending.trailing_zeros();
                self.index.lists.work[word] &= !(1u64 << bit);
                from = bit + 1;
                let v = (word * 64) as u32 + bit;
                if !self.departed[v as usize] {
                    visited += 1;
                    messages += self.stabilize_node(v, &mut list);
                }
            }
        }
        self.index.fingers.settle(&self.fingers);
        messages + 2 * (self.live - visited) as u64
    }

    /// Node `v`'s turn in a stabilize round; returns its messages.
    fn stabilize_node(&mut self, v: u32, list: &mut Vec<u32>) -> u64 {
        let mut messages = 0u64;
        let mut found: Option<u32> = None;
        for &w in self.succ_list(v) {
            messages += 1; // liveness probe
            if !self.departed[w as usize] {
                found = Some(w);
                break;
            }
        }
        let s = match found {
            Some(s) => s,
            None => {
                messages += 1; // bootstrap rescue
                let rescue = self.live_others(v).next();
                match rescue {
                    Some(s) => s,
                    None => {
                        // Alone in the ring: it stays in the work set, so
                        // every round charges its probes and rescue.
                        self.index.lists.mark(v);
                        return messages;
                    }
                }
            }
        };
        // Lists never hold their owner and the rescue skips v, so s != v.
        debug_assert_ne!(s, v);
        messages += 1; // fetch s's successor list
        list.clear();
        list.push(s);
        // Adopt s's entries while they keep moving clockwise away from v:
        // on a small ring s's list can reach v, or wrap past it, and
        // nothing after that point succeeds v in order. Index order is
        // clockwise order, so the wrapping offset `w - v` ranks entries
        // by clockwise distance from v.
        let mut prev = s.wrapping_sub(v);
        for &w in self.succ_list(s) {
            let d = w.wrapping_sub(v);
            if list.len() >= self.succ_len || d <= prev {
                break;
            }
            list.push(w);
            prev = d;
        }
        self.set_succ_list(v, list);
        self.set_finger(v, 0, s);
        messages
    }

    /// One finger-repair round: every live node repoints each finger
    /// entry that targets a departed node at the first live successor of
    /// the finger's ring target (the outcome of a `find_successor`
    /// lookup, collapsed to one accounting message per repaired entry).
    ///
    /// Only dirty nodes are visited: a clean live node has no finger to
    /// repoint. The repair reads only `departed`, which the round does
    /// not change, so visit order cannot change the outcome. Afterwards
    /// no live node has a dangling finger, and a departed one is marked
    /// dirty again when it rejoins.
    ///
    /// Returns the round's message count.
    pub fn fix_fingers(&mut self) -> u64 {
        let mut messages = 0u64;
        let mut dirty = std::mem::take(&mut self.index.fingers.dirty);
        for &v in &dirty {
            self.index.fingers.is_dirty[v as usize] = false;
            if self.departed[v as usize] {
                continue;
            }
            // Targets rise with the bit, so a run of dangling fingers
            // whose targets share a ring slot shares its resolution.
            let mut last: Option<(usize, u32)> = None;
            for i in 0..FINGER_BITS {
                let f = self.fingers_of(v)[i];
                if !self.departed[f as usize] {
                    continue;
                }
                let target = self.ids[v as usize].wrapping_add(1u64 << i);
                let nf = match last {
                    Some((slot, nf)) if self.slot_holds(slot, target) => nf,
                    _ => {
                        let slot = self.key_slot(target);
                        // v itself is live, so the scan finds a node.
                        let Some(nf) = self
                            .clockwise_from(slot)
                            .find(|&w| !self.departed[w as usize])
                        else {
                            continue;
                        };
                        last = Some((slot, nf));
                        nf
                    }
                };
                self.set_finger(v, i, nf);
                messages += 1;
            }
        }
        dirty.clear();
        self.index.fingers.dirty = dirty;
        self.index.fingers.settle(&self.fingers);
        messages
    }

    /// Whether ring slot `slot` owns `key`: `key` lies in `(ids[slot -
    /// 1], ids[slot]]`, the arc from the previous id, wrapping at slot 0.
    fn slot_holds(&self, slot: usize, key: u64) -> bool {
        let hi = self.ids[slot];
        let lo = self.ids[slot.checked_sub(1).unwrap_or(self.len() - 1)];
        if slot == 0 {
            key <= hi || key > lo
        } else {
            lo < key && key <= hi
        }
    }

    /// Number of table entries (fingers + successor lists) of live nodes
    /// that point at departed nodes. Decays to zero as maintenance
    /// rounds catch up; `repro soak` tracks the decay. Only dirty nodes
    /// can hold a stale finger, and the list entries are a kept count.
    pub fn stale_entries(&self) -> usize {
        let fingers: usize = self
            .index
            .fingers
            .dirty
            .iter()
            .filter(|&&v| !self.departed[v as usize])
            .map(|&v| {
                self.fingers_of(v)
                    .iter()
                    .filter(|&&w| self.departed[w as usize])
                    .count()
            })
            .sum();
        fingers + self.index.lists.stale
    }

    /// Lookup over **possibly-stale local tables only** — no oracle in
    /// the routing loop. Each hop: probe the successor list for the first
    /// live entry `s` (a probe to a dead entry is a wasted message); if
    /// `key ∈ (current, s]`, `s` owns it (one final hop); otherwise route
    /// via the closest preceding live finger inside `(current, key)`
    /// (probing a dead finger wastes a message), falling back to `s`.
    ///
    /// Returns `(None, messages)` when routing fails: the source is
    /// departed, or some node on the path has a fully-dead successor
    /// list (the dangling-pointer failure mode that [`Self::stabilize`]
    /// repairs). Progress is strictly clockwise, so the loop terminates.
    pub fn lookup_stale(&self, from: u32, key: u64) -> (Option<LookupResult>, u64) {
        let n = self.len();
        if self.departed[from as usize] {
            return (None, 0);
        }
        if n == 1 {
            return (Some(LookupResult { owner: 0, hops: 0 }), 0);
        }
        let mut current = from;
        let mut hops = 0u32;
        let mut messages = 0u64;
        loop {
            let cur_id = self.ids[current as usize];
            // First live entry of the local successor list.
            let mut live_succ: Option<u32> = None;
            for &w in self.succ_list(current) {
                messages += 1; // liveness probe
                if !self.departed[w as usize] {
                    live_succ = Some(w);
                    break;
                }
            }
            let Some(s) = live_succ else {
                // Dangling: every successor this node knows is dead.
                return (None, messages);
            };
            if in_interval_oc(key, cur_id, self.ids[s as usize]) {
                return (
                    Some(LookupResult {
                        owner: s,
                        hops: hops + 1,
                    }),
                    messages + 1,
                );
            }
            let mut next: Option<u32> = None;
            for &f in self.fingers_of(current).iter().rev() {
                if f == current {
                    continue;
                }
                if in_interval_oo(self.ids[f as usize], cur_id, key) {
                    messages += 1; // probe the candidate finger
                    if self.departed[f as usize] {
                        continue; // wasted probe; try a shorter finger
                    }
                    next = Some(f);
                    break;
                }
            }
            current = next.unwrap_or(s);
            messages += 1; // the hop itself
            hops += 1;
            if hops as usize > 2 * n + FINGER_BITS {
                // Defensive guard; unreachable under clockwise progress.
                return (None, messages);
            }
        }
    }

    /// Asserts the successor-list invariants for every live node: no
    /// self-entries, length at most *r*, and entries in strictly
    /// increasing clockwise distance. Panics on violation (a `repro
    /// soak` runtime invariant).
    pub fn check_successor_lists(&self) {
        for v in 0..self.len() as u32 {
            if self.departed[v as usize] {
                continue;
            }
            let list = self.succ_list(v);
            assert!(
                list.len() <= self.succ_len,
                "successor list of {v} overflows r={}",
                self.succ_len
            );
            let base = self.ids[v as usize];
            let mut prev: Option<u64> = None;
            for &w in list {
                assert!(w != v, "successor list of {v} contains itself");
                let d = self.ids[w as usize].wrapping_sub(base);
                if let Some(p) = prev {
                    assert!(d > p, "successor list of {v} is not in clockwise order");
                }
                prev = Some(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_owns_key() {
        let net = ChordNetwork::new(64, 1);
        for key in [0u64, 1, u64::MAX / 2, u64::MAX] {
            let owner = net.successor_of_key(key);
            let owner_id = net.id_of(owner);
            // No node id lies strictly between key and owner_id (clockwise).
            for v in 0..net.len() as u32 {
                let id = net.id_of(v);
                assert!(
                    !crate::ring::in_interval_oo(id, key.wrapping_sub(1), owner_id),
                    "node {id:x} between key {key:x} and owner {owner_id:x}"
                );
            }
        }
    }

    #[test]
    fn lookup_agrees_with_successor() {
        let net = ChordNetwork::new(128, 2);
        for k in 0..200u64 {
            let key = mix64(k);
            let expected = net.successor_of_key(key);
            for from in [0u32, 5, 63, 127] {
                let r = net.lookup(from, key);
                assert_eq!(r.owner, expected, "key {key:x} from {from}");
            }
        }
    }

    #[test]
    fn lookup_hops_logarithmic() {
        let net = ChordNetwork::new(4_096, 3);
        let mut max_hops = 0;
        let mut total = 0u64;
        let samples = 500;
        for k in 0..samples {
            let key = mix64(0xabc ^ k);
            let r = net.lookup((k % 4096) as u32, key);
            max_hops = max_hops.max(r.hops);
            total += r.hops as u64;
        }
        let mean = total as f64 / samples as f64;
        // log2(4096) = 12; greedy Chord averages ~log2(n)/2.
        assert!(mean < 14.0, "mean hops {mean}");
        assert!(max_hops <= net.hop_bound(), "max hops {max_hops}");
    }

    #[test]
    fn single_node_owns_everything() {
        let net = ChordNetwork::new(1, 4);
        let r = net.lookup(0, 12345);
        assert_eq!(r.owner, 0);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn two_node_ring_routes() {
        let net = ChordNetwork::new(2, 5);
        for key in [0u64, u64::MAX / 3, u64::MAX / 2, u64::MAX - 1] {
            let r = net.lookup(0, key);
            assert_eq!(r.owner, net.successor_of_key(key));
            assert!(r.hops <= 2);
        }
    }

    #[test]
    fn join_preserves_lookup_correctness() {
        let mut net = ChordNetwork::new(32, 6);
        let keys: Vec<u64> = (0..50).map(|k| mix64(k ^ 0x77)).collect();
        net.join(999);
        net.join(1001);
        for &key in &keys {
            let r = net.lookup(3, key);
            assert_eq!(r.owner, net.successor_of_key(key));
        }
        assert_eq!(net.len(), 34);
    }

    #[test]
    fn leave_preserves_lookup_correctness() {
        let mut net = ChordNetwork::new(32, 7);
        net.leave(10);
        net.leave(0);
        assert_eq!(net.len(), 30);
        for k in 0..50u64 {
            let key = mix64(k ^ 0x88);
            let r = net.lookup(1, key);
            assert_eq!(r.owner, net.successor_of_key(key));
        }
    }

    #[test]
    fn lookup_from_owner_is_cheap() {
        let net = ChordNetwork::new(256, 8);
        let key = mix64(42);
        let owner = net.successor_of_key(key);
        let r = net.lookup(owner, key);
        assert_eq!(r.owner, owner);
        assert!(r.hops <= 1, "hops from owner {}", r.hops);
    }

    #[test]
    fn deterministic_construction() {
        let a = ChordNetwork::new(100, 9);
        let b = ChordNetwork::new(100, 9);
        assert_eq!(a.id_of(50), b.id_of(50));
        assert_eq!(a.lookup(0, 777), b.lookup(0, 777));
    }
}

#[cfg(test)]
mod failure_tests {
    //! Routing around fail-stop nodes: [`ChordNetwork::lookup_faulty`]
    //! under loss-free churn plans frozen at the end of their horizon,
    //! so a node is either up or down for the whole lookup.
    use super::*;
    use qcp_faults::FaultConfig;

    /// A loss-free plan over `n` nodes where a `churn` fraction is down
    /// for good and the rest are up for good.
    fn frozen(n: usize, churn: f64, seed: u64) -> FaultPlan {
        let config = FaultConfig {
            loss: 0.0,
            churn,
            rejoin: false,
            seed,
            ..Default::default()
        };
        FaultPlan::build(n, &config).frozen_at(config.horizon)
    }

    /// Owner and hop count of a lookup that must resolve.
    fn resolve(net: &ChordNetwork, from: u32, key: u64, plan: &FaultPlan) -> (u32, u32) {
        let policy = RetryPolicy::default();
        let (r, _) = net.lookup_faulty(from, key, plan, &policy, 0, key);
        (
            r.owner.expect("loss-free lookup from a live source"),
            r.hops,
        )
    }

    #[test]
    fn no_failures_matches_plain_lookup_owner() {
        let net = ChordNetwork::new(128, 21);
        let plan = FaultPlan::none(128);
        for k in 0..80u64 {
            let key = mix64(k);
            assert_eq!(resolve(&net, 5, key, &plan).0, net.successor_of_key(key));
        }
    }

    #[test]
    fn routes_around_random_failures() {
        let net = ChordNetwork::new(256, 22);
        let plan = frozen(256, 0.25, 23);
        let alive = plan.alive_mask_at(0);
        assert!(alive.iter().filter(|&&a| !a).count() > 32, "a quarter down");
        let sources: Vec<u32> = (0..256u32).filter(|&v| alive[v as usize]).take(8).collect();
        for k in 0..60u64 {
            let key = mix64(k ^ 0x77aa);
            let expected = net.first_alive_successor(key, &alive).unwrap();
            for &from in &sources {
                let (owner, hops) = resolve(&net, from, key, &plan);
                assert_eq!(owner, expected, "key {key:x} from {from}");
                assert!(alive[owner as usize]);
                assert!((hops as usize) <= 2 * net.len(), "hops {hops} explode");
            }
        }
    }

    #[test]
    fn survives_heavy_failure() {
        // ~90% dead: lookups must still resolve to alive owners.
        let net = ChordNetwork::new(100, 24);
        let plan = frozen(100, 0.9, 24);
        let alive = plan.alive_mask_at(0);
        let live: Vec<u32> = (0..100u32).filter(|&v| alive[v as usize]).collect();
        assert!((3..=20).contains(&live.len()), "{} alive", live.len());
        for k in 0..40u64 {
            let key = mix64(k ^ 0xdead);
            let (owner, _) = resolve(&net, live[k as usize % live.len()], key, &plan);
            assert!(alive[owner as usize]);
            assert_eq!(owner, net.first_alive_successor(key, &alive).unwrap());
        }
    }

    #[test]
    fn hops_degrade_gracefully_with_failures() {
        let net = ChordNetwork::new(1_024, 25);
        let mut mean_hops = Vec::new();
        for churn in [0.0f64, 0.3] {
            let plan = frozen(1_024, churn, 26);
            let sources: Vec<u32> = (0..1_024u32)
                .filter(|&v| plan.alive_at(v, 0))
                .take(16)
                .collect();
            let mut total = 0u64;
            let mut count = 0u64;
            for k in 0..100u64 {
                let key = mix64(k ^ 0xfade);
                for &from in &sources {
                    total += resolve(&net, from, key, &plan).1 as u64;
                    count += 1;
                }
            }
            mean_hops.push(total as f64 / count as f64);
        }
        // 30% failures should cost extra hops but stay near O(log n).
        assert!(mean_hops[1] >= mean_hops[0]);
        assert!(
            mean_hops[1] < mean_hops[0] + 8.0,
            "failure overhead too high: {mean_hops:?}"
        );
    }

    #[test]
    fn dead_source_fails_the_lookup() {
        let net = ChordNetwork::new(8, 27);
        let plan = frozen(8, 0.5, 27);
        let dead = (0..8u32)
            .find(|&v| !plan.alive_at(v, 0))
            .expect("half the ring churns");
        let (r, stats) = net.lookup_faulty(dead, 42, &plan, &RetryPolicy::default(), 0, 1);
        assert_eq!(r.owner, None);
        assert_eq!((r.hops, r.messages), (0, 0));
        assert_eq!(stats, FaultStats::default());
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use qcp_faults::FaultConfig;

    #[test]
    fn none_plan_resolves_the_true_owner_with_clean_stats() {
        let net = ChordNetwork::new(256, 30);
        let plan = FaultPlan::none(256);
        let policy = RetryPolicy::default();
        for k in 0..60u64 {
            let key = mix64(k ^ 0xfa);
            let (r, stats) = net.lookup_faulty(7, key, &plan, &policy, 0, k);
            assert_eq!(r.owner, Some(net.successor_of_key(key)));
            assert!(r.hops <= net.hop_bound(), "hops {}", r.hops);
            // Every message is a delivered hop; only latency is charged.
            assert_eq!(r.messages, r.hops as u64);
            assert_eq!(stats.dropped, 0);
            assert_eq!(stats.wasted(), 0);
            assert!(stats.ticks >= r.hops as u64, "latency charged per hop");
        }
    }

    #[test]
    fn drops_obey_the_retry_timeout_identity() {
        let net = ChordNetwork::new(256, 31);
        let plan = FaultPlan::build(
            256,
            &FaultConfig {
                loss: 0.3,
                churn: 0.0,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        let mut total = FaultStats::default();
        let mut resolved = 0u32;
        for k in 0..120u64 {
            let key = mix64(k ^ 0x1e55);
            let (r, stats) = net.lookup_faulty((k % 256) as u32, key, &plan, &policy, 0, k);
            total.absorb(&stats);
            if let Some(owner) = r.owner {
                assert_eq!(owner, net.successor_of_key(key));
                resolved += 1;
            }
            // Transmissions = delivered hops + every lost message.
            assert_eq!(r.messages, r.hops as u64 + stats.wasted());
        }
        assert!(total.dropped > 0, "30% loss must drop");
        assert_eq!(
            total.dropped,
            total.retries + total.timeouts,
            "every drop is retried or times out"
        );
        assert!(resolved > 100, "retries should save most lookups");
    }

    #[test]
    fn churn_routes_to_first_alive_successor_or_fails_cleanly() {
        let net = ChordNetwork::new(200, 32);
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.0,
                churn: 0.5,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        let mut total = FaultStats::default();
        for t in [0u64, 100, 500, 900] {
            for k in 0..40u64 {
                let key = mix64(k ^ t);
                let from = (k % 200) as u32;
                let (r, stats) = net.lookup_faulty(from, key, &plan, &policy, t, k);
                total.absorb(&stats);
                match r.owner {
                    Some(owner) => {
                        assert!(plan.alive_at(owner, t), "owner must be alive");
                        assert_eq!(Some(owner), net.first_alive_successor_at(key, &plan, t));
                    }
                    None => assert!(
                        !plan.alive_at(from, t),
                        "with loss=0, only a dead source fails"
                    ),
                }
            }
        }
        assert!(total.dead_targets > 0, "50% churn must hit dead fingers");
        assert_eq!(total.dropped, 0, "no in-flight loss configured");
    }

    #[test]
    fn faulty_lookup_is_deterministic() {
        let net = ChordNetwork::new(128, 33);
        let plan = FaultPlan::build(
            128,
            &FaultConfig {
                loss: 0.25,
                churn: 0.25,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        for k in 0..30u64 {
            let key = mix64(k);
            let a = net.lookup_faulty(3, key, &plan, &policy, k, k);
            let b = net.lookup_faulty(3, key, &plan, &policy, k, k);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn recorded_maintenance_matches_plain_rounds() {
        use qcp_obs::MetricsRecorder;
        let build = || {
            let mut net = ChordNetwork::new(200, 41);
            for v in (0..200u32).filter(|v| v % 4 == 0) {
                net.depart(v);
            }
            net
        };
        // Run the same maintenance schedule on two identical rings, one
        // recorded and one not: the per-round bills and the final table
        // state must agree exactly, and the recorder totals must
        // reconcile with the summed bills.
        let mut plain = build();
        let mut recorded = build();
        let mut rec = MetricsRecorder::new();
        let mut stab = 0u64;
        for _ in 0..DEFAULT_SUCC_LEN {
            let a = plain.stabilize();
            let b = recorded.stabilize_rec(&mut rec);
            assert_eq!(a, b, "recording must not change the round bill");
            stab += b;
        }
        let fix = recorded.fix_fingers_rec(&mut rec);
        assert_eq!(plain.fix_fingers(), fix);
        assert_eq!(plain.stale_entries(), recorded.stale_entries());
        assert_eq!(rec.total(Kernel::Stabilize, Counter::Messages), stab);
        assert_eq!(rec.total(Kernel::Stabilize, Counter::Probes), fix);
        assert_eq!(rec.spans(Kernel::Stabilize), DEFAULT_SUCC_LEN as u64 + 1);
    }

    #[test]
    fn stabilize_converges_and_restores_lookups_after_mass_departure() {
        let mut net = ChordNetwork::new(200, 41);
        // Depart 25% of the ring, scattered deterministically.
        for v in (0..200u32).filter(|v| v % 4 == 0) {
            net.depart(v);
        }
        assert!(net.stale_entries() > 0, "departures must dangle");
        // r stabilize rounds heal successor lists; one fix_fingers round
        // then heals the fingers.
        let mut repair_messages = 0u64;
        for _ in 0..DEFAULT_SUCC_LEN {
            repair_messages += net.stabilize();
            net.check_successor_lists();
        }
        repair_messages += net.fix_fingers();
        assert!(repair_messages > 0);
        assert_eq!(
            net.stale_entries(),
            0,
            "r stabilize rounds + fix_fingers must purge every stale entry"
        );
        // Post-repair, stale-table routing agrees with the live oracle.
        for k in 0..60u64 {
            let key = mix64(k ^ 0x5eed);
            let from = (1 + 4 * (k % 40)) as u32; // live sources
            let (r, _) = net.lookup_stale(from, key);
            let r = r.expect("post-stabilize lookup must succeed");
            assert_eq!(Some(r.owner), net.first_live_successor_of_key(key));
        }
    }

    #[test]
    fn rejoin_notify_reintegrates_the_node() {
        let mut net = ChordNetwork::new(64, 43);
        let v = 20u32;
        net.depart(v);
        for _ in 0..DEFAULT_SUCC_LEN {
            net.stabilize();
        }
        net.fix_fingers();
        assert_eq!(net.stale_entries(), 0);
        // While v is down, keys it owned resolve to its live successor.
        let key = net.id_of(v); // v's own id: v owns it when alive
        let (r, _) = net.lookup_stale(1, key);
        assert_ne!(r.expect("lookup must resolve").owner, v);
        // Rejoin: the notify handshake re-links v; stabilize gossip then
        // spreads it; lookups route to v again.
        let msgs = net.rejoin(v);
        assert!(msgs > 0, "rejoin handshake costs messages");
        net.check_successor_lists();
        for _ in 0..DEFAULT_SUCC_LEN {
            net.stabilize();
            net.check_successor_lists();
        }
        net.fix_fingers();
        let (r, _) = net.lookup_stale(1, key);
        assert_eq!(r.expect("lookup must resolve").owner, v);
        assert_eq!(Some(v), net.first_live_successor_of_key(key));
    }

    #[test]
    fn zero_retry_policy_fails_fast_but_still_counts() {
        let net = ChordNetwork::new(64, 34);
        let plan = FaultPlan::build(
            64,
            &FaultConfig {
                loss: 0.9,
                churn: 0.0,
                ..Default::default()
            },
        );
        let policy = RetryPolicy {
            max_retries: 0,
            base_timeout: 4,
            backoff: 2,
            jitter: None,
        };
        let mut total = FaultStats::default();
        for k in 0..40u64 {
            let (_, stats) = net.lookup_faulty(0, mix64(k), &plan, &policy, 0, k);
            total.absorb(&stats);
        }
        assert_eq!(total.retries, 0, "fail-fast policy never retries");
        assert_eq!(total.dropped, total.timeouts);
    }

    /// [`ChordNetwork::stabilize`] as it was before the work set: every
    /// live node takes its turn, in ascending index order, in place.
    fn stabilize_full(net: &mut ChordNetwork) -> u64 {
        let n = net.len();
        let mut messages = 0u64;
        let mut list = Vec::with_capacity(net.succ_len);
        for v in 0..n as u32 {
            if net.departed[v as usize] {
                continue;
            }
            let mut found: Option<u32> = None;
            for &w in net.succ_list(v) {
                messages += 1; // liveness probe
                if !net.departed[w as usize] {
                    found = Some(w);
                    break;
                }
            }
            let s = match found {
                Some(s) => s,
                None => {
                    messages += 1; // bootstrap rescue
                    match net.live_others(v).next() {
                        Some(s) => s,
                        None => continue, // alone in the ring
                    }
                }
            };
            messages += 1; // fetch s's successor list
            list.clear();
            list.push(s);
            let mut prev = s.wrapping_sub(v);
            for &w in net.succ_list(s) {
                let d = w.wrapping_sub(v);
                if list.len() >= net.succ_len || d <= prev {
                    break;
                }
                list.push(w);
                prev = d;
            }
            net.set_succ_list(v, &list);
            net.set_finger(v, 0, s);
        }
        messages
    }

    /// One random step of a churn sequence on a ring of at most
    /// `max_len` nodes: depart, rejoin, stabilize, fix fingers, join or
    /// leave. Departures outrun rejoins, so long runs of dead successors,
    /// bootstrap rescues and rebuilds over departed nodes all occur.
    fn churn_step(net: &mut ChordNetwork, rng: &mut qcp_util::rng::Pcg64, max_len: usize) {
        let v = rng.index(net.len()) as u32;
        match rng.index(12) {
            0..=3 => {
                if !net.is_departed(v) && net.live_count() > 1 {
                    net.depart(v);
                }
            }
            4 | 5 => {
                if net.is_departed(v) {
                    net.rejoin(v);
                }
            }
            6 | 7 => {
                net.stabilize();
            }
            8 | 9 => {
                net.fix_fingers();
            }
            10 => {
                if net.len() < max_len {
                    net.join(rng.next());
                }
            }
            _ => {
                if net.len() > 1 && (net.is_departed(v) || net.live_count() > 1) {
                    net.leave(v);
                }
            }
        }
    }

    /// Runs the work-set round and the full round on two clones of `net`
    /// and asserts they agree on everything a round can change.
    fn assert_round_matches_full(net: &ChordNetwork, at: &str) {
        let (mut fast, mut full) = (net.clone(), net.clone());
        assert_eq!(
            fast.stabilize(),
            stabilize_full(&mut full),
            "{at}: messages"
        );
        assert_eq!(fast.succ, full.succ, "{at}: successor rows");
        assert_eq!(fast.fingers, full.fingers, "{at}: finger table");
        assert_eq!(
            fast.stale_entries(),
            stale_entries_full(&full),
            "{at}: stale"
        );
        assert_eq!(fast.live_count(), full.live_count(), "{at}: live count");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// After every step of a random churn sequence, the work-set
        /// round equals the full round run on a clone of the same state,
        /// and the kept stale count equals a full recount.
        #[test]
        fn work_set_stabilize_matches_the_full_round(
            n in 1usize..200,
            extra_r in 0usize..204,
            steps in 1usize..160,
            seed in proptest::prelude::any::<u64>()
        ) {
            let mut rng = qcp_util::rng::Pcg64::new(seed);
            let r = 1 + extra_r % (n + 3);
            let mut net = ChordNetwork::with_succ_len(n, seed, r);
            for step in 0..steps {
                churn_step(&mut net, &mut rng, 200);
                let at = format!("n {n} r {r} seed {seed} step {step}");
                proptest::prop_assert_eq!(net.stale_entries(), stale_entries_full(&net), "{}", at);
                assert_round_matches_full(&net, &at);
            }
        }
    }

    #[test]
    fn work_set_rounds_match_across_a_finger_log_compaction() {
        // A quarter of a 200-node ring departs: the fix-finger round that
        // follows writes more than n/2 log entries, overflows the log and
        // compacts it once at its end. The rounds and the churn after it
        // must still match the full rounds.
        let mut net = ChordNetwork::with_succ_len(200, 9, 3);
        for v in (0..200u32).filter(|v| v % 4 == 1) {
            net.depart(v);
        }
        assert_round_matches_full(&net, "after departures");
        let repaired = net.fix_fingers();
        assert!(repaired > 100, "{repaired} repairs do not overflow the log");
        assert!(!net.index.fingers.overflow && net.index.fingers.log.is_empty());
        let mut rng = qcp_util::rng::Pcg64::new(0xc0c0);
        for step in 0..400 {
            churn_step(&mut net, &mut rng, 200);
            assert_round_matches_full(&net, &format!("step {step}"));
            assert_eq!(net.stale_entries(), stale_entries_full(&net), "step {step}");
        }
    }

    /// The finger table as it was built before the monotone pointers:
    /// one binary search per slot.
    fn fingers_by_search(net: &ChordNetwork) -> Vec<u32> {
        net.ids
            .iter()
            .flat_map(|&id| {
                (0..FINGER_BITS).map(move |i| net.successor_of_key(id.wrapping_add(1u64 << i)))
            })
            .collect()
    }

    #[test]
    fn monotone_finger_build_matches_the_binary_search_table() {
        use qcp_util::rng::Pcg64;
        for n in 1..=64 {
            let net = ChordNetwork::new(n, n as u64 ^ 0x6f);
            assert_eq!(net.fingers, fingers_by_search(&net), "n {n}");
        }
        let mut rng = Pcg64::new(0xf1);
        for _ in 0..12 {
            let n = 1 + rng.index(5_000);
            let net = ChordNetwork::new(n, rng.next());
            assert_eq!(net.fingers, fingers_by_search(&net), "n {n}");
        }
        // Ids packed against either end of the ring, where targets wrap
        // past 2^64 for many bits at once, and the extremes themselves.
        for trial in 0..40u64 {
            let mut rng = Pcg64::new(trial);
            let n = 1 + rng.index(80);
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let span = 1u64 << (rng.index(63) + 1);
                ids.push(match rng.index(4) {
                    0 => u64::MAX - rng.below(span),
                    1 => rng.below(span),
                    2 => [0, 1, u64::MAX, u64::MAX - 1][rng.index(4)],
                    _ => rng.next(),
                });
            }
            ids.sort_unstable();
            ids.dedup();
            let net = ChordNetwork::from_sorted_ids(ids, 3);
            assert_eq!(net.fingers, fingers_by_search(&net), "trial {trial}");
        }
        // Joins and leaves rebuild the table over shifted indices.
        let mut net = ChordNetwork::new(30, 5);
        for step in 0..120 {
            if rng.index(2) == 0 || net.len() < 3 {
                net.join(rng.next());
            } else {
                net.leave(rng.index(net.len()) as u32);
            }
            assert_eq!(net.fingers, fingers_by_search(&net), "step {step}");
        }
    }

    /// [`ChordNetwork::stabilize`] as it was before it rebuilt lists in
    /// place: a fresh `Vec` per node and a clone of the successor's list.
    /// It adopts every entry but `v` itself, so its lists can break the
    /// clockwise order on small rings; its message bill and successor
    /// choices are still the round's, since neither depends on which
    /// entries are adopted.
    fn stabilize_allocating(net: &mut ChordNetwork) -> u64 {
        let n = net.len();
        let mut messages = 0u64;
        for v in 0..n as u32 {
            if net.departed[v as usize] {
                continue;
            }
            let mut found: Option<u32> = None;
            for &w in net.succ_list(v) {
                messages += 1;
                if !net.departed[w as usize] {
                    found = Some(w);
                    break;
                }
            }
            let s = match found {
                Some(s) => s,
                None => {
                    messages += 1;
                    match net.live_others(v).next() {
                        Some(s) => s,
                        None => continue,
                    }
                }
            };
            messages += 1;
            let mut list = Vec::with_capacity(net.succ_len);
            list.push(s);
            let src = net.succ_list(s).to_vec();
            for w in src {
                if list.len() >= net.succ_len {
                    break;
                }
                if w != v && !list.contains(&w) {
                    list.push(w);
                }
            }
            net.set_succ_list(v, &list);
            net.fingers[v as usize * FINGER_BITS] = s;
        }
        messages
    }

    #[test]
    fn in_place_stabilize_matches_the_allocating_rounds() {
        use qcp_util::rng::Pcg64;
        for seed in 0..40u64 {
            let mut rng = Pcg64::new(seed ^ 0x57ab);
            let n = 2 + rng.index(60);
            let r = 1 + rng.index(6);
            let mut net = ChordNetwork::with_succ_len(n, seed, r);
            for step in 0..80 {
                let v = rng.index(n) as u32;
                match rng.index(5) {
                    // Departures run twice as often as rejoins, so long
                    // runs of dead successors and bootstrap rescues occur.
                    0 | 1 => {
                        if !net.is_departed(v) && net.live_count() > 1 {
                            net.depart(v);
                        }
                    }
                    2 => {
                        if net.is_departed(v) {
                            net.rejoin(v);
                        }
                    }
                    3 => {
                        // The old round on a copy of the same state is
                        // the oracle for the bill and every successor.
                        let mut oracle = net.clone();
                        assert_eq!(
                            net.stabilize(),
                            stabilize_allocating(&mut oracle),
                            "seed {seed} step {step}: stabilize bill"
                        );
                        assert_eq!(net.fingers, oracle.fingers, "seed {seed} step {step}");
                    }
                    _ => {
                        net.fix_fingers();
                    }
                }
                // Every step, small rings included, keeps every live
                // node's list in strict clockwise order.
                net.check_successor_lists();
            }
        }
    }

    #[test]
    fn stabilize_keeps_a_wrapping_list_in_clockwise_order() {
        // n = 6, r = 2, live {3, 4}. Node 4's list [5, 0] is all dead,
        // so it rescues to 3, whose list [4, 5] reaches 4 itself:
        // adoption stops there instead of keeping 5, which precedes 3
        // clockwise from 4.
        let mut net = ChordNetwork::with_succ_len(6, 3, 2);
        for v in [0, 1, 2, 5] {
            net.depart(v);
        }
        for _ in 0..3 {
            net.stabilize();
            net.check_successor_lists();
        }
        assert_eq!(net.succ_list(4), &[3]);
        assert_eq!(net.succ_list(3), &[4]);
    }

    /// [`ChordNetwork::fix_fingers`] as a full-table round: every finger
    /// of every live node, in index order.
    fn fix_fingers_full(net: &mut ChordNetwork) -> u64 {
        let mut messages = 0u64;
        for v in 0..net.len() {
            if net.departed[v] {
                continue;
            }
            for i in 0..FINGER_BITS {
                let slot = v * FINGER_BITS + i;
                if !net.departed[net.fingers[slot] as usize] {
                    continue;
                }
                let target = net.ids[v].wrapping_add(1u64 << i);
                if let Some(nf) = net.first_live_successor_of_key(target) {
                    net.fingers[slot] = nf;
                    messages += 1;
                }
            }
        }
        messages
    }

    /// [`ChordNetwork::stale_entries`] as a full-table count.
    fn stale_entries_full(net: &ChordNetwork) -> usize {
        (0..net.len())
            .filter(|&v| !net.departed[v])
            .map(|v| {
                let row = &net.fingers[v * FINGER_BITS..][..FINGER_BITS];
                row.iter()
                    .chain(net.succ_list(v as u32))
                    .filter(|&&w| net.departed[w as usize])
                    .count()
            })
            .sum()
    }

    #[test]
    fn dirty_owner_finger_repair_matches_the_full_table_round() {
        use qcp_util::rng::Pcg64;
        for seed in 0..60u64 {
            let mut rng = Pcg64::new(seed ^ 0xf1f0);
            let r = 1 + rng.index(6);
            let mut net = ChordNetwork::with_succ_len(2 + rng.index(199), seed, r);
            for step in 0..120 {
                let v = rng.index(net.len()) as u32;
                match rng.index(12) {
                    // Departures outrun rejoins, so joins and leaves often
                    // rebuild the tables while nodes are down.
                    0..=3 => {
                        if !net.is_departed(v) && net.live_count() > 1 {
                            net.depart(v);
                        }
                    }
                    4 | 5 => {
                        if net.is_departed(v) {
                            net.rejoin(v);
                        }
                    }
                    6 | 7 => {
                        net.stabilize();
                    }
                    8 | 9 => {
                        net.fix_fingers();
                    }
                    10 => {
                        if net.len() < 200 {
                            net.join(rng.next());
                        }
                    }
                    _ => {
                        if net.len() > 2 && (net.is_departed(v) || net.live_count() > 1) {
                            net.leave(v);
                        }
                    }
                }
                let at = format!("seed {seed} step {step}");
                let live = net.departed.iter().filter(|&&d| !d).count();
                assert_eq!(net.live_count(), live, "{at}: live count");
                assert_eq!(net.stale_entries(), stale_entries_full(&net), "{at}");
                // The full-table round on a clone is the oracle for the
                // next round from this state.
                let (mut fast, mut full) = (net.clone(), net.clone());
                assert_eq!(
                    fast.fix_fingers(),
                    fix_fingers_full(&mut full),
                    "{at}: fix_fingers bill"
                );
                assert_eq!(fast.fingers, full.fingers, "{at}: finger slots");
                assert_eq!(fast.stale_entries(), stale_entries_full(&full), "{at}");
            }
        }
    }
}

#[cfg(test)]
mod timed_tests {
    //! Virtual-time lookup: the reply/timer race, the relaxed
    //! accounting identity, and deadline truncation.
    use super::*;
    use qcp_faults::FaultConfig;

    #[test]
    fn none_plan_timed_lookup_matches_the_oracle_with_unit_latency() {
        let net = ChordNetwork::new(256, 50);
        let plan = FaultPlan::none(256);
        let policy = RetryPolicy::default();
        for k in 0..60u64 {
            let key = mix64(k ^ 0x71);
            let (r, stats) = net.lookup_timed(7, key, &plan, &policy, 0, k, None);
            assert_eq!(r.owner, Some(net.successor_of_key(key)));
            assert!(!r.truncated);
            // Unit latency, no loss: every message is a delivered hop
            // and each hop costs exactly one tick.
            assert_eq!(r.messages, r.hops as u64);
            assert_eq!(r.elapsed, r.hops as u64);
            assert_eq!(stats.ticks, r.elapsed);
            assert_eq!(stats.wasted(), 0);
            assert_eq!(stats.retries + stats.timeouts, 0);
        }
    }

    #[test]
    fn timer_outruns_slow_replies_relaxing_the_drop_identity() {
        // No loss, no churn — but mean latency 8 makes many replies
        // slower than the first (4-tick) timeout. Those attempts are
        // abandoned, not dropped: retries happen with dropped == 0,
        // the timed path's relaxed identity.
        let net = ChordNetwork::new(256, 51);
        let plan = FaultPlan::build(
            256,
            &FaultConfig {
                loss: 0.0,
                churn: 0.0,
                mean_latency: 8,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        let mut total = FaultStats::default();
        for k in 0..40u64 {
            let key = mix64(k ^ 0x9a);
            let (r, stats) = net.lookup_timed((k % 256) as u32, key, &plan, &policy, 0, k, None);
            total.absorb(&stats);
            assert_eq!(r.owner, Some(net.successor_of_key(key)), "k {k}");
            assert!(r.messages >= r.hops as u64 + stats.wasted());
        }
        assert_eq!(total.dropped, 0, "no loss configured");
        assert!(total.retries > 0, "slow replies must be outrun");
        assert!(total.dropped <= total.retries + total.timeouts);
    }

    #[test]
    fn dead_candidates_cost_the_full_retry_ladder() {
        // Loss 0 + churn: the only timer fires are dead candidates, and
        // each costs exactly (max_retries + 1) silent attempts before
        // its single hop timeout.
        let net = ChordNetwork::new(200, 52);
        let plan = FaultPlan::build(
            200,
            &FaultConfig {
                loss: 0.0,
                churn: 0.5,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        let mut total = FaultStats::default();
        for t in [0u64, 200, 700] {
            for k in 0..40u64 {
                let (_, stats) =
                    net.lookup_timed((k % 200) as u32, mix64(k ^ t), &plan, &policy, t, k, None);
                total.absorb(&stats);
            }
        }
        assert!(total.dead_targets > 0, "50% churn must hit dead fingers");
        assert_eq!(total.dropped, 0);
        assert_eq!(
            total.dead_targets,
            (policy.max_retries as u64 + 1) * total.timeouts,
            "each dead candidate runs the whole ladder"
        );
    }

    #[test]
    fn cutoff_truncates_at_the_deadline() {
        let net = ChordNetwork::new(256, 53);
        let plan = FaultPlan::build(
            256,
            &FaultConfig {
                loss: 0.0,
                churn: 0.0,
                mean_latency: 6,
                ..Default::default()
            },
        );
        let policy = RetryPolicy::default();
        let key = mix64(0xdead);
        let (full, _) = net.lookup_timed(3, key, &plan, &policy, 0, 1, None);
        assert!(full.owner.is_some());
        if full.elapsed > 1 {
            let cutoff = full.elapsed / 2;
            let (cut, stats) = net.lookup_timed(3, key, &plan, &policy, 0, 1, Some(cutoff));
            assert!(cut.truncated);
            assert!(cut.owner.is_none());
            assert_eq!(cut.elapsed, cutoff);
            assert_eq!(stats.ticks, cutoff);
        }
        // A generous cutoff changes nothing.
        let (easy, _) = net.lookup_timed(3, key, &plan, &policy, 0, 1, Some(full.elapsed));
        assert_eq!(easy, full);
    }

    #[test]
    fn timed_lookup_is_deterministic_with_and_without_jitter() {
        let net = ChordNetwork::new(128, 54);
        let plan = FaultPlan::build(
            128,
            &FaultConfig {
                loss: 0.25,
                churn: 0.25,
                mean_latency: 4,
                ..Default::default()
            },
        );
        for policy in [
            RetryPolicy::default(),
            RetryPolicy {
                jitter: Some(0x5eed),
                ..Default::default()
            },
        ] {
            for k in 0..30u64 {
                let key = mix64(k);
                let a = net.lookup_timed(3, key, &plan, &policy, k, k, Some(200));
                let b = net.lookup_timed(3, key, &plan, &policy, k, k, Some(200));
                assert_eq!(a, b);
            }
        }
    }
}

#[cfg(test)]
mod dangling_regression {
    //! Satellite regression (ISSUE 4): a departure must *dangle* —
    //! other nodes' fingers and successor lists keep pointing at the
    //! departed node until maintenance repairs them. These tests pin the
    //! broken state first, then assert the stabilization rounds fix it.

    use super::*;

    #[test]
    fn depart_without_maintenance_leaves_dangling_pointers() {
        // r = 1: a single departed successor is enough to strand a node.
        let mut net = ChordNetwork::with_succ_len(32, 44, 1);
        let v = 10u32;
        let succ_of_v = net.succ_list(v)[0];
        net.depart(succ_of_v);
        // Pin the dangling behavior: v's only successor entry is dead,
        // and nobody repaired it.
        assert!(net.is_departed(net.succ_list(v)[0]));
        assert!(net.stale_entries() > 0, "depart must leave stale entries");
        // A lookup that must leave v through its successor fails outright
        // — the dangling-pointer failure mode.
        let key = net.id_of(succ_of_v); // owned by the departed node's successor region
        let (r, messages) = net.lookup_stale(v, key);
        assert!(r.is_none(), "stranded node must fail the lookup");
        assert!(messages > 0, "the failure costs wasted probes");
    }

    #[test]
    fn stabilize_fixes_the_dangling_pointers_and_lookups_succeed() {
        let mut net = ChordNetwork::with_succ_len(32, 44, 1);
        let v = 10u32;
        let succ_of_v = net.succ_list(v)[0];
        net.depart(succ_of_v);
        // The fix: stabilization rounds (with the bootstrap rescue for
        // fully-dead lists) plus finger repair.
        net.stabilize();
        net.fix_fingers();
        net.check_successor_lists();
        assert_eq!(net.stale_entries(), 0);
        // Post-stabilize, every lookup from a live source succeeds and
        // agrees with the live-ring oracle.
        for k in 0..40u64 {
            let key = mix64(k ^ 0xabcd);
            for from in [v, 0u32, 31] {
                let (r, _) = net.lookup_stale(from, key);
                let r = r.expect("post-stabilize lookup must succeed");
                assert_eq!(Some(r.owner), net.first_live_successor_of_key(key));
            }
        }
    }

    #[test]
    fn leave_keeps_departed_mask_aligned() {
        let mut net = ChordNetwork::new(16, 45);
        net.depart(5);
        net.leave(11); // indices past 11 shift down
        assert_eq!(net.len(), 15);
        assert!(net.is_departed(5), "depart mark must survive the shift");
        assert_eq!(net.live_count(), 14);
        let joined = net.join(0x7e57);
        assert!(!net.is_departed(joined));
    }
}
