//! Pastry-style prefix routing (Rowstron & Druschel — the paper's ref \[1\]).
//!
//! A second structured substrate beside Chord, with the classic Pastry
//! geometry: 64-bit ids read as 16 hexadecimal digits (`b = 4`), a routing
//! table of `rows × 16` entries (row `r` holds nodes sharing exactly `r`
//! leading digits with the owner), and a leaf set of the `L` numerically
//! closest nodes. A key is owned by the numerically closest node; routing
//! fixes one digit per hop, giving `O(log_16 n)` hops — roughly 4× fewer
//! than Chord's base-2 fingers at equal n, at 16× the per-row state.
//!
//! As with [`crate::chord`], this is a simulator: state is globally
//! consistent and join/leave trigger immediate rebuild.

use qcp_util::hash::mix64;
use qcp_util::FxHashMap;

/// Bits per digit (hexadecimal Pastry).
const DIGIT_BITS: u32 = 4;
/// Digits per 64-bit id.
const NUM_DIGITS: usize = (64 / DIGIT_BITS) as usize;
/// Radix.
const RADIX: usize = 1 << DIGIT_BITS;
/// Leaf-set size per side.
const LEAF_SIDE: usize = 8;

/// Result of a Pastry route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteResult {
    /// Index of the key's owner (numerically closest node).
    pub owner: u32,
    /// Hops taken.
    pub hops: u32,
}

/// A Pastry overlay.
#[derive(Debug, Clone)]
pub struct PastryNetwork {
    /// Sorted node ids.
    ids: Vec<u64>,
    /// `tables[v][r * RADIX + c]` = node index sharing `r` digits with `v`
    /// and having digit `c` at position `r` (u32::MAX = empty).
    tables: Vec<Vec<u32>>,
    /// Rows materialized per table.
    rows: usize,
}

/// Digit `pos` (0 = most significant) of `id`.
#[inline]
fn digit(id: u64, pos: usize) -> usize {
    ((id >> (64 - DIGIT_BITS as usize * (pos + 1))) & (RADIX as u64 - 1)) as usize
}

/// Length of the shared digit prefix of `a` and `b`.
#[inline]
fn shared_prefix(a: u64, b: u64) -> usize {
    let x = a ^ b;
    if x == 0 {
        return NUM_DIGITS;
    }
    (x.leading_zeros() / DIGIT_BITS) as usize
}

/// Absolute circular distance between two ids on the 2^64 ring.
#[inline]
fn circular_distance(a: u64, b: u64) -> u64 {
    let d = a.wrapping_sub(b);
    d.min(d.wrapping_neg())
}

impl PastryNetwork {
    /// Builds a network of `n` nodes with ids derived from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut ids: Vec<u64> = (0..n as u64)
            .map(|i| mix64(seed ^ mix64(i ^ 0x9a57)))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "id collision (astronomically unlikely)");
        let mut net = Self {
            ids,
            tables: Vec::new(),
            rows: 0,
        };
        net.rebuild();
        net
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty (cannot happen).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of node `v`.
    pub fn id_of(&self, v: u32) -> u64 {
        self.ids[v as usize]
    }

    /// Index of the numerically closest node to `key` (the Pastry owner).
    pub fn owner_of_key(&self, key: u64) -> u32 {
        let n = self.ids.len();
        let pos = self.ids.partition_point(|&id| id < key);
        // Candidates: the ring neighbors on both sides of the insertion
        // point (with wraparound).
        let a = (pos % n) as u32;
        let b = ((pos + n - 1) % n) as u32;
        let da = circular_distance(self.ids[a as usize], key);
        let db = circular_distance(self.ids[b as usize], key);
        // Tie-break toward the numerically larger id (deterministic).
        if da < db || (da == db && self.ids[a as usize] > self.ids[b as usize]) {
            a
        } else {
            b
        }
    }

    fn rebuild(&mut self) {
        let n = self.ids.len();
        // Rows needed: prefixes longer than log16(n)+2 are almost surely
        // singleton; cap at NUM_DIGITS.
        let rows = (((n as f64).log2() / DIGIT_BITS as f64).ceil() as usize + 3).min(NUM_DIGITS);
        self.rows = rows;
        // For each row r: map (r-digit prefix) -> representative per digit.
        // Representative choice: the node with the smallest id in that
        // cell (deterministic, and irrelevant for hop counts).
        let mut tables = vec![vec![u32::MAX; rows * RADIX]; n];
        for r in 0..rows {
            let mut cells: FxHashMap<u64, [u32; RADIX]> = FxHashMap::default();
            let shift = 64 - DIGIT_BITS as usize * r;
            for (v, &id) in self.ids.iter().enumerate() {
                let prefix = if r == 0 { 0 } else { id >> shift };
                let d = digit(id, r);
                let cell = cells.entry(prefix).or_insert([u32::MAX; RADIX]);
                if cell[d] == u32::MAX {
                    cell[d] = v as u32;
                }
            }
            for (v, &id) in self.ids.iter().enumerate() {
                let prefix = if r == 0 { 0 } else { id >> shift };
                if let Some(cell) = cells.get(&prefix) {
                    let base = r * RADIX;
                    tables[v][base..base + RADIX].copy_from_slice(cell);
                }
            }
        }
        self.tables = tables;
    }

    /// Leaf-set check: true if `key`'s owner is within `v`'s leaf range.
    fn in_leaf_range(&self, v: u32, key: u64) -> bool {
        let n = self.ids.len();
        if n <= 2 * LEAF_SIDE + 1 {
            return true;
        }
        let owner = self.owner_of_key(key) as usize;
        let vi = v as usize;
        let fwd = (owner + n - vi) % n;
        let bwd = (vi + n - owner) % n;
        fwd <= LEAF_SIDE || bwd <= LEAF_SIDE
    }

    /// Routes `key` from node `from`, counting hops.
    pub fn route(&self, from: u32, key: u64) -> RouteResult {
        let owner = self.owner_of_key(key);
        let mut current = from;
        let mut hops = 0u32;
        loop {
            if current == owner {
                return RouteResult { owner, hops };
            }
            if self.in_leaf_range(current, key) {
                // One leaf-set hop delivers to the owner.
                return RouteResult {
                    owner,
                    hops: hops + 1,
                };
            }
            let cur_id = self.ids[current as usize];
            let r = shared_prefix(cur_id, key);
            let next = if r < self.rows {
                let entry = self.tables[current as usize][r * RADIX + digit(key, r)];
                if entry != u32::MAX && entry != current {
                    entry
                } else {
                    self.fallback(current, key)
                }
            } else {
                self.fallback(current, key)
            };
            debug_assert_ne!(next, current, "routing made no progress");
            current = next;
            hops += 1;
            debug_assert!(
                (hops as usize) <= NUM_DIGITS + 2 * self.ids.len(),
                "routing loop"
            );
        }
    }

    /// Pastry fallback: move to a ring neighbor strictly closer to the
    /// key (guarantees progress; rare when tables are dense).
    fn fallback(&self, current: u32, key: u64) -> u32 {
        let n = self.ids.len();
        let cur_dist = circular_distance(self.ids[current as usize], key);
        // Step toward the key along the sorted ring.
        let pos = self.ids.partition_point(|&id| id < key) % n;
        let candidates = [
            pos as u32,
            ((pos + n - 1) % n) as u32,
            ((current as usize + 1) % n) as u32,
            ((current as usize + n - 1) % n) as u32,
        ];
        for c in candidates {
            if c != current && circular_distance(self.ids[c as usize], key) < cur_dist {
                return c;
            }
        }
        // Only the owner itself remains closer.
        self.owner_of_key(key)
    }

    /// Adds a node; all state rebuilt (instant stabilization).
    pub fn join(&mut self, id_seed: u64) -> u32 {
        let id = mix64(id_seed ^ 0x9a57_10ad);
        let pos = self.ids.partition_point(|&x| x < id);
        assert!(self.ids.get(pos) != Some(&id), "id collision");
        self.ids.insert(pos, id);
        self.rebuild();
        pos as u32
    }

    /// Removes node `v`.
    pub fn leave(&mut self, v: u32) {
        assert!(self.ids.len() > 1, "cannot empty the overlay");
        self.ids.remove(v as usize);
        self.rebuild();
    }

    /// Expected hop bound: one per fixed digit plus leaf slack.
    pub fn hop_bound(&self) -> u32 {
        ((self.len() as f64).log2() / DIGIT_BITS as f64).ceil() as u32 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_extraction() {
        let id = 0xF123_4567_89AB_CDEF_u64;
        assert_eq!(digit(id, 0), 0xF);
        assert_eq!(digit(id, 1), 0x1);
        assert_eq!(digit(id, 15), 0xF);
    }

    #[test]
    fn shared_prefix_counts_digits() {
        assert_eq!(shared_prefix(0xABCD << 48, 0xABCE << 48), 3);
        assert_eq!(shared_prefix(0, 0), NUM_DIGITS);
        assert_eq!(shared_prefix(0, 1 << 63), 0);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let net = PastryNetwork::new(128, 1);
        for k in 0..300u64 {
            let key = mix64(k);
            let owner = net.owner_of_key(key);
            let od = circular_distance(net.id_of(owner), key);
            for v in 0..net.len() as u32 {
                assert!(
                    circular_distance(net.id_of(v), key) >= od,
                    "node {v} closer than owner for key {key:x}"
                );
            }
        }
    }

    #[test]
    fn route_reaches_owner_from_anywhere() {
        let net = PastryNetwork::new(256, 2);
        for k in 0..100u64 {
            let key = mix64(k ^ 0x1111);
            let expected = net.owner_of_key(key);
            for from in [0u32, 17, 99, 255] {
                let r = net.route(from, key);
                assert_eq!(r.owner, expected);
                assert!(r.hops <= net.hop_bound(), "hops {}", r.hops);
            }
        }
    }

    #[test]
    fn hops_beat_chord_at_scale() {
        let n = 4_096;
        let pastry = PastryNetwork::new(n, 3);
        let chord = crate::chord::ChordNetwork::new(n, 3);
        let mut pastry_total = 0u64;
        let mut chord_total = 0u64;
        let samples = 400;
        for k in 0..samples {
            let key = mix64(0x5a ^ k);
            let from = (k % n as u64) as u32;
            pastry_total += pastry.route(from, key).hops as u64;
            chord_total += chord.lookup(from, key).hops as u64;
        }
        let p = pastry_total as f64 / samples as f64;
        let c = chord_total as f64 / samples as f64;
        assert!(
            p < c,
            "base-16 pastry ({p:.2} hops) must beat base-2 chord ({c:.2})"
        );
        // log16(4096) = 3: expect ~3-5 mean hops.
        assert!(p < 6.0, "pastry mean hops {p}");
    }

    #[test]
    fn single_and_tiny_networks_route() {
        let one = PastryNetwork::new(1, 4);
        let r = one.route(0, 12345);
        assert_eq!(r.owner, 0);
        assert_eq!(r.hops, 0);
        let two = PastryNetwork::new(2, 5);
        for key in [0u64, u64::MAX / 2, u64::MAX] {
            let r = two.route(0, key);
            assert_eq!(r.owner, two.owner_of_key(key));
            assert!(r.hops <= 2);
        }
    }

    #[test]
    fn join_and_leave_preserve_routing() {
        let mut net = PastryNetwork::new(64, 6);
        net.join(111);
        net.join(222);
        net.leave(10);
        for k in 0..60u64 {
            let key = mix64(k ^ 0xbeef);
            let r = net.route(2, key);
            assert_eq!(r.owner, net.owner_of_key(key));
        }
        assert_eq!(net.len(), 65);
    }

    #[test]
    fn deterministic_construction() {
        let a = PastryNetwork::new(100, 7);
        let b = PastryNetwork::new(100, 7);
        assert_eq!(a.id_of(50), b.id_of(50));
        assert_eq!(a.route(0, 999), b.route(0, 999));
    }

    #[test]
    fn routing_from_owner_is_free() {
        let net = PastryNetwork::new(128, 8);
        let key = mix64(0xcafe);
        let owner = net.owner_of_key(key);
        assert_eq!(net.route(owner, key).hops, 0);
    }
}
