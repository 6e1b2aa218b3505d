//! `qcp-vtime` — a deterministic discrete-event engine over virtual time.
//!
//! Every latency-sensitive kernel in the workspace (event-driven floods
//! and walks in `qcp-overlay`, timed Chord lookups in `qcp-dht`) runs on
//! the [`Calendar`] defined here: a priority queue of events keyed by
//! `(virtual_time, tie_break, seq)`.
//!
//! The determinism contract has three legs:
//!
//! * **No wall clock.** Virtual time is a plain `u64` tick counter that
//!   only [`Calendar::pop`] advances. Reading `Instant`/`SystemTime`
//!   anywhere in this crate is banned by `cargo xtask lint` (rule D1 —
//!   the crate is `sim_facing`).
//! * **Stateless tie-breaks.** Two events scheduled for the same tick
//!   are ordered by a `tie` key the caller derives as a stateless hash
//!   of the *event identity* (edge, message index, walker id — see
//!   [`tie_break`]), never from arrival order across threads. Runs are
//!   therefore bitwise-identical across runs and thread-pool widths:
//!   parallelism in this workspace is across trials/cells, and each
//!   trial's calendar is single-threaded and fully ordered.
//! * **Strict total order.** A monotone insertion sequence number breaks
//!   residual `(time, tie)` collisions FIFO, so the pop order is a pure
//!   function of the scheduled keys, never of the queue's layout.
//!
//! # The bucket ring
//!
//! The calendar is a calendar queue in the sense of Brown (CACM 1988)
//! with one tick per bucket. Events due less than 64 ticks after `now`
//! are appended, unsorted, to their tick's bucket; a 64-bit occupancy
//! word finds the next non-empty tick in one rotate and one
//! trailing-zeros count. When the clock reaches a tick, its bucket is
//! sorted once by `(tie, seq)` and drained in order. Events due further
//! out wait in an overflow min-heap and join their tick's bucket before
//! it is sorted, so any `u64` time works, including the
//! `u64::MAX` that [`Calendar::schedule_after`] saturates to.
//!
//! Sorting a tick once reproduces the heap's `(time, tie, seq)` order
//! exactly because a tick's set of events is complete when its sort
//! runs: `schedule_at` rejects times before `now`, so every event for a
//! tick `t > now` is scheduled while the clock is still short of `t`.
//! The one exception is a zero-delay event, scheduled at `now` while
//! tick `now` drains; it is binary-inserted at its `(tie, seq)` place
//! in the draining bucket.
//!
//! Bucket vectors live in one pool and are recycled: a drained bucket
//! returns to a free list, and the next tick that needs one takes it, so
//! retained memory follows the peak number of pending events, as a
//! heap's would, rather than every ring slot's own peak.
//! [`Calendar::reset`] lays the free list out in pool order, so a replay
//! of the same schedule reuses the same vector for the same bucket and
//! allocates nothing.
//!
//! [`Deadline`] is the virtual-time budget the search layer attaches to
//! a query ([`SearchSpec::deadline`]); kernels treat it as an event-time
//! cutoff and report truncation instead of silently completing late.
//!
//! [`SearchSpec::deadline`]: https://docs.rs/qcp-search

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qcp_util::hash::mix64;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Ticks the bucket ring spans: an event due less than `RING` ticks
/// after `now` goes to its tick's bucket, a later one to the overflow
/// heap. One bit per tick in the `u64` occupancy word.
const RING: u64 = 64;

/// The pool index of no bucket.
const NONE: u32 = u32::MAX;

/// Derives a tie-break key from an event's identity.
///
/// A thin alias over the SplitMix64 finalizer: callers fold the fields
/// that identify the event (edge endpoints, message index, walker id)
/// into one `u64` and hash it here. The hash is stateless, so the same
/// event gets the same key no matter when or where it is scheduled.
#[inline]
pub fn tie_break(identity: u64) -> u64 {
    mix64(identity)
}

/// A virtual-time budget for one query: the deadline in ticks after
/// which a search must stop expanding and return best-so-far results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deadline {
    /// The budget, in virtual-time ticks (latency units of the
    /// governing `FaultPlan`).
    pub ticks: u64,
}

impl Deadline {
    /// A deadline `ticks` into the query's virtual timeline.
    pub fn after(ticks: u64) -> Self {
        Self { ticks }
    }
}

/// One overflow entry. Ordered by `(time, tie, seq)` alone — a strict
/// total order, since `seq` is unique — so the payload needs no `Ord`.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: u64,
    tie: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64, u64) {
        (self.time, self.tie, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One bucketed event; its tick is the bucket's.
#[derive(Debug, Clone)]
struct Slot<E> {
    tie: u64,
    seq: u64,
    event: E,
}

/// The calendar queue: events in virtual time, popped in
/// `(time, tie, seq)` order; the payload `E` is never compared. See the
/// crate docs for the bucket ring.
///
/// `pop` advances [`Calendar::now`] to the popped event's timestamp;
/// scheduling into the past is a logic error and panics in debug builds.
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// The bucket pool. A bucket is owned by one ring slot, by the
    /// draining tick, or by the free list.
    buckets: Vec<Vec<Slot<E>>>,
    /// Pool index of the bucket for each tick in `[now, now + RING)`,
    /// at slot `tick % RING`; valid where `occupied` has the bit set.
    ring: [u32; RING as usize],
    occupied: u64,
    /// Pool index of tick `now`'s bucket, sorted by descending
    /// `(tie, seq)` and popped from the back; `NONE` before the first
    /// pop and after `reset`.
    draining: u32,
    /// Free list of pool indices.
    spare: Vec<u32>,
    /// Events due `RING` or more ticks after `now` at scheduling time.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
    now: u64,
    seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar at virtual time 0. Allocates nothing.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            ring: [NONE; RING as usize],
            occupied: 0,
            draining: NONE,
            spare: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            now: 0,
            seq: 0,
        }
    }

    /// The current virtual time: the timestamp of the last popped event
    /// (0 before any pop).
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Pending event count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        if !self.draining_bucket().is_empty() {
            return Some(self.now);
        }
        let ring = (self.occupied != 0).then(|| {
            let ahead = self
                .occupied
                .rotate_right((self.now % RING) as u32)
                .trailing_zeros();
            self.now + u64::from(ahead)
        });
        let over = self.overflow.peek().map(|Reverse(e)| e.time);
        match (ring, over) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Schedules `event` at absolute virtual time `time` with tie-break
    /// key `tie` (see [`tie_break`]). `time` must not precede `now`.
    #[inline]
    pub fn schedule_at(&mut self, time: u64, tie: u64, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let ahead = time - self.now;
        if ahead == 0 && self.draining != NONE {
            // Zero delay into the draining tick: the newest `seq` pops
            // after every equal tie, so it goes just below the entries
            // with a greater tie.
            let bucket = &mut self.buckets[self.draining as usize];
            let at = bucket.partition_point(|s| s.tie > tie);
            bucket.insert(at, Slot { tie, seq, event });
        } else if ahead < RING {
            let i = (time % RING) as usize;
            if self.occupied & (1 << i) == 0 {
                self.occupied |= 1 << i;
                self.ring[i] = self.take_bucket();
            }
            self.buckets[self.ring[i] as usize].push(Slot { tie, seq, event });
        } else {
            self.overflow.push(Reverse(Entry {
                time,
                tie,
                seq,
                event,
            }));
        }
    }

    /// Schedules `event` `delay` ticks after `now`.
    #[inline]
    pub fn schedule_after(&mut self, delay: u64, tie: u64, event: E) {
        self.schedule_at(self.now.saturating_add(delay), tie, event);
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    /// Virtual time never moves backwards.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if self.draining_bucket().is_empty() {
            let t = self.peek_time()?;
            self.open(t);
        }
        let slot = self.buckets[self.draining as usize].pop()?;
        self.len -= 1;
        Some((self.now, slot.event))
    }

    /// Advances the clock to tick `t`, the earliest pending one: its
    /// ring bucket and any overflow entries for it become the draining
    /// bucket, sorted once.
    fn open(&mut self, t: u64) {
        debug_assert!(t >= self.now, "calendar time went backwards");
        if self.draining != NONE {
            self.spare.push(self.draining);
        }
        // `t` is the earliest pending tick, so a set bit at its slot is
        // its own bucket: every ring tick lies in `[now, now + RING)`.
        let bit = 1u64 << (t % RING);
        self.draining = if self.occupied & bit != 0 {
            self.occupied &= !bit;
            std::mem::replace(&mut self.ring[(t % RING) as usize], NONE)
        } else {
            self.take_bucket()
        };
        let bucket = &mut self.buckets[self.draining as usize];
        while let Some(top) = self.overflow.peek_mut() {
            if top.0.time != t {
                break;
            }
            let Reverse(e) = PeekMut::pop(top);
            bucket.push(Slot {
                tie: e.tie,
                seq: e.seq,
                event: e.event,
            });
        }
        bucket.sort_unstable_by_key(|s| Reverse((s.tie, s.seq)));
        self.now = t;
    }

    /// What is left of tick `now`'s bucket (nothing when no tick is open).
    #[inline]
    fn draining_bucket(&self) -> &[Slot<E>] {
        self.buckets
            .get(self.draining as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// A bucket from the free list, or a new one at the end of the pool.
    fn take_bucket(&mut self) -> u32 {
        self.spare.pop().unwrap_or_else(|| {
            self.buckets.push(Vec::new());
            (self.buckets.len() - 1) as u32
        })
    }

    /// Rewinds the calendar to virtual time 0 for reuse across trials:
    /// drops every pending event, resets `now` and the insertion
    /// sequence, and **retains every bucket's allocation**. The free
    /// list is laid out in pool order, so a run that replays the
    /// schedule of the run before hands each bucket the same vector and
    /// allocates nothing (the engines' arena discipline).
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.spare.clear();
        self.spare.extend((0..self.buckets.len() as u32).rev());
        self.ring = [NONE; RING as usize];
        self.occupied = 0;
        self.draining = NONE;
        self.overflow.clear();
        self.len = 0;
        self.now = 0;
        self.seq = 0;
    }

    /// The retained capacity, in entries, over every bucket and the
    /// overflow heap. Exposed so reuse tests (and curious callers) can
    /// verify that [`Calendar::reset`] keeps the allocation instead of
    /// shrinking it.
    pub fn capacity(&self) -> usize {
        self.overflow.capacity() + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut c = Calendar::new();
        c.schedule_at(5, 0, "c");
        c.schedule_at(1, 0, "a");
        c.schedule_at(3, 0, "b");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(order, vec![(1, "a"), (3, "b"), (5, "c")]);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn equal_times_order_by_tie_then_seq() {
        let mut c = Calendar::new();
        c.schedule_at(2, 9, "high-tie");
        c.schedule_at(2, 1, "low-tie-first");
        c.schedule_at(2, 1, "low-tie-second");
        let order: Vec<_> = std::iter::from_fn(|| c.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["low-tie-first", "low-tie-second", "high-tie"]);
    }

    #[test]
    fn pop_order_is_insertion_order_independent_given_distinct_ties() {
        // The same event set inserted in two different orders pops
        // identically: (time, tie) is a total order when ties are
        // distinct hashes of event identity.
        let events: Vec<(u64, u64, u32)> = (0..64u64)
            .map(|i| (i % 7, tie_break(i), i as u32))
            .collect();
        let run = |perm: &[(u64, u64, u32)]| {
            let mut c = Calendar::new();
            for &(t, tie, id) in perm {
                c.schedule_at(t, tie, id);
            }
            std::iter::from_fn(|| c.pop()).collect::<Vec<_>>()
        };
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(run(&events), run(&reversed));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut c = Calendar::new();
        c.schedule_at(10, 0, 'a');
        assert_eq!(c.pop(), Some((10, 'a')));
        c.schedule_after(5, 0, 'b');
        assert_eq!(c.peek_time(), Some(15));
        assert_eq!(c.pop(), Some((15, 'b')));
    }

    #[test]
    fn reset_rewinds_time_and_retains_capacity() {
        let mut c = Calendar::new();
        for i in 0..256u64 {
            c.schedule_at(i, tie_break(i), i);
        }
        let cap = c.capacity();
        assert!(cap >= 256);
        assert_eq!(c.pop(), Some((0, 0)));
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.now(), 0, "reset rewinds virtual time");
        assert_eq!(c.capacity(), cap, "reset retains the heap allocation");
        // The rewound calendar accepts early times again and replays
        // identically: same events, same pop order, no growth.
        for i in 0..256u64 {
            c.schedule_at(i, tie_break(i), i);
        }
        assert_eq!(c.capacity(), cap, "steady-state reuse allocates nothing");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(order.len(), 256);
        assert_eq!(order[0], (0, 0));
        assert_eq!(order[255], (255, 255));
    }

    #[test]
    fn tie_break_is_stateless_and_spreads() {
        assert_eq!(tie_break(42), tie_break(42));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1_000u64 {
            assert!(seen.insert(tie_break(i)));
        }
    }

    #[test]
    fn deadline_constructor() {
        assert_eq!(Deadline::after(48).ticks, 48);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut c = Calendar::new();
        c.schedule_at(10, 0, ());
        let _ = c.pop();
        c.schedule_at(3, 0, ());
    }

    #[test]
    fn new_allocates_nothing() {
        let c: Calendar<u64> = Calendar::new();
        assert_eq!(c.capacity(), 0);
        assert_eq!(Calendar::<u64>::default().capacity(), 0);
    }

    #[test]
    fn zero_delay_joins_the_draining_tick_in_tie_order() {
        let mut c = Calendar::new();
        c.schedule_at(3, 5, "a");
        c.schedule_at(3, 9, "c");
        assert_eq!(c.pop(), Some((3, "a")));
        // Scheduled at `now` while tick 3 drains: pops before the later
        // tie, and after an equal tie scheduled earlier.
        c.schedule_after(0, 7, "b");
        c.schedule_after(0, 9, "d");
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(order, vec![(3, "b"), (3, "c"), (3, "d")]);
    }

    #[test]
    fn far_and_saturated_times_pop_from_the_overflow() {
        let mut c = Calendar::new();
        c.schedule_at(RING * 3, 1, 'b');
        c.schedule_at(u64::MAX, 0, 'd');
        c.schedule_at(RING * 3, 0, 'a');
        c.schedule_at(RING * 3 - 1, 0, 'x');
        assert_eq!(c.pop(), Some((RING * 3 - 1, 'x')));
        // Now inside the ring's span: the tick's bucket merges with the
        // overflow entries scheduled for it earlier.
        c.schedule_at(RING * 3, 2, 'c');
        let order: Vec<_> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(
            order,
            vec![
                (RING * 3, 'a'),
                (RING * 3, 'b'),
                (RING * 3, 'c'),
                (u64::MAX, 'd')
            ]
        );
        c.schedule_after(5, 0, 'e');
        assert_eq!(c.pop(), Some((u64::MAX, 'e')), "schedule_after saturates");
    }

    /// The binary-heap calendar the bucket ring replaced: the reference
    /// model for the oracle property below.
    struct HeapCalendar {
        heap: BinaryHeap<Reverse<Entry<u32>>>,
        now: u64,
        seq: u64,
    }

    impl HeapCalendar {
        fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                now: 0,
                seq: 0,
            }
        }

        fn schedule_at(&mut self, time: u64, tie: u64, event: u32) {
            self.heap.push(Reverse(Entry {
                time,
                tie,
                seq: self.seq,
                event,
            }));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let Reverse(e) = self.heap.pop()?;
            self.now = e.time;
            Some((e.time, e.event))
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Decodes a delay class: zero, one to three ticks, around and past
    /// the ring's span, near `u64::MAX`, or anything.
    fn delay(class: u8, r: u64) -> u64 {
        match class {
            0 => 0,
            1 | 2 => 1 + r % 3,
            3 => RING - 2 + r % (3 * RING),
            4 => u64::MAX - r % 4,
            _ => r,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Any interleaving of schedules, bursts into one tick, pops,
        /// peeks and mid-run resets matches the binary-heap model op by
        /// op.
        #[test]
        fn matches_the_heap_model(
            ops in proptest::collection::vec((0u8..20, 0u8..6, proptest::prelude::any::<u64>()), 0..400)
        ) {
            let mut c = Calendar::new();
            let mut model = HeapCalendar::new();
            let mut next_id = 0u32;
            for (kind, class, r) in ops {
                match kind {
                    0..=9 => {
                        // Half the ties come from {0, 1, 2}: runs of
                        // equal ties exercise the FIFO `seq`.
                        let tie = if r & 1 == 0 { (r >> 8) % 3 } else { mix64(r) };
                        let time = model.now.saturating_add(delay(class, r >> 16));
                        if kind < 5 {
                            c.schedule_at(time, tie, next_id);
                        } else {
                            c.schedule_after(time - model.now, tie, next_id);
                        }
                        model.schedule_at(time, tie, next_id);
                        next_id += 1;
                    }
                    10..=15 => proptest::prop_assert_eq!(c.pop(), model.pop()),
                    16 | 17 => {}
                    18 => {
                        c.reset();
                        model = HeapCalendar::new();
                    }
                    _ => {
                        // A burst of 64 to 319 events into one tick,
                        // with ties that repeat.
                        let time = model.now.saturating_add(delay(class, r >> 16));
                        for i in 0..64 + r % 256 {
                            let h = mix64(r ^ i);
                            let tie = if h & 1 == 0 { i % 3 } else { h };
                            c.schedule_at(time, tie, next_id);
                            model.schedule_at(time, tie, next_id);
                            next_id += 1;
                        }
                    }
                }
                proptest::prop_assert_eq!(c.peek_time(), model.peek_time());
                proptest::prop_assert_eq!(c.now(), model.now);
                proptest::prop_assert_eq!(c.len(), model.heap.len());
                proptest::prop_assert_eq!(c.is_empty(), model.heap.is_empty());
            }
            while let Some(popped) = model.pop() {
                proptest::prop_assert_eq!(c.pop(), Some(popped));
            }
            proptest::prop_assert_eq!(c.pop(), None);
        }
    }
}
