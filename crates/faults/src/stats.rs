//! Degraded-mode accounting and the retry/backoff policy.

use qcp_util::hash::mix64;

/// Counters describing how a query (or a whole workload) degraded under
/// faults. All fields are additive, so stats from sub-operations merge
/// with [`FaultStats::absorb`].
///
/// # Accounting identities
///
/// * `wasted() = dropped + dead_targets` — messages paid for but never
///   delivered;
/// * in instant-timeout retrying engines (the DHT's `lookup_faulty`
///   path), **every dropped message is either retried or times out**:
///   `dropped == retries + timeouts`;
/// * in the virtual-time engine (`lookup_timed`), a timer can outrun a
///   slow reply, abandoning a message that was never dropped — the
///   identity relaxes to `dropped <= retries + timeouts`;
/// * fire-and-forget engines (flooding, walks) never retry: their drops
///   contribute to `dropped` only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost in flight (per-edge Bernoulli drops).
    pub dropped: u64,
    /// Messages addressed to a node that was down at send time.
    pub dead_targets: u64,
    /// Re-transmissions attempted after a drop (bounded by the policy).
    pub retries: u64,
    /// Hops abandoned after the retry budget was exhausted.
    pub timeouts: u64,
    /// DHT reads that routed correctly but found the posting stranded on
    /// a departed owner (stale index state).
    pub stale_misses: u64,
    /// Simulated time spent: link latencies plus timeout waits.
    pub ticks: u64,
}

impl FaultStats {
    /// Messages spent without a delivery: drops plus dead-target sends.
    pub fn wasted(&self) -> u64 {
        self.dropped + self.dead_targets
    }

    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.dead_targets += other.dead_targets;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.stale_misses += other.stale_misses;
        self.ticks += other.ticks;
    }

    /// Turns a slice of *per-level increments* into *cumulative prefix
    /// sums* in place: after the call, `levels[i]` holds the counters a
    /// search truncated at level `i` would have accumulated.
    ///
    /// This is the hop-census companion (a faulty `FloodEngine::run` census
    /// records one increment per BFS level): because every counter is
    /// additive, the TTL-`t` flood's fault accounting is exactly the
    /// prefix sum of the per-level draws of the TTL-max flood.
    pub fn accumulate_prefix(levels: &mut [FaultStats]) {
        for i in 1..levels.len() {
            let prev = levels[i - 1];
            levels[i].absorb(&prev);
        }
    }
}

/// Bounded-retry-with-exponential-backoff policy for request/response
/// engines (the structured-overlay hops of [`qcp-dht`]).
///
/// A transmission that is dropped is retried after a timeout of
/// `base_timeout * backoff^attempt` ticks, up to `max_retries` retries;
/// when the budget is exhausted the hop *times out* and the router must
/// repair (pick another finger) or fail the lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first transmission (0 = fail fast).
    pub max_retries: u32,
    /// Timeout before the first retry, in ticks.
    pub base_timeout: u64,
    /// Multiplicative backoff factor applied per retry.
    pub backoff: u32,
    /// Seed for deterministic jittered backoff; `None` keeps the fixed
    /// exponential schedule. Only the virtual-time lookup path consults
    /// this — the instant-timeout path always charges [`timeout_after`].
    ///
    /// [`timeout_after`]: RetryPolicy::timeout_after
    pub jitter: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_timeout: 4,
            backoff: 2,
            jitter: None,
        }
    }
}

/// Domain-separation tag for jittered-backoff draws: keeps the jitter
/// stream disjoint from every other SplitMix64 consumer of a plan seed
/// (audited by qcplint rule D3 — named, never inlined at a draw site).
const JITTER_STREAM_TAG: u64 = 0x6a17_7e5d_b0ff_5eed;

impl RetryPolicy {
    /// Timeout in ticks charged when attempt number `attempt` (0-based)
    /// is lost: `base_timeout * backoff^attempt`, saturating.
    pub fn timeout_after(&self, attempt: u32) -> u64 {
        (self.backoff as u64)
            .saturating_pow(attempt)
            .saturating_mul(self.base_timeout)
    }

    /// Deterministically jittered timeout for `attempt` of `query`:
    /// uniform in `[timeout/2, timeout)` where `timeout` is
    /// [`timeout_after`]. The draw is a stateless hash of
    /// `(seed, attempt, query)` — no RNG state, so concurrent queries
    /// draw identical jitter regardless of evaluation order or
    /// thread-pool width. Spreading retries across half the backoff
    /// window is the classic thundering-herd defense: synchronized
    /// retries from queries that lost messages in the same tick would
    /// otherwise all re-fire in the same tick again.
    ///
    /// Degenerate windows clamp to 1 tick — a timer can never fire at
    /// the send instant.
    ///
    /// [`timeout_after`]: RetryPolicy::timeout_after
    pub fn jittered_timeout(&self, attempt: u32, seed: u64, query: u64) -> u64 {
        let full = self.timeout_after(attempt);
        if full <= 1 {
            return 1;
        }
        let half = full / 2;
        let h = mix64(seed ^ JITTER_STREAM_TAG ^ mix64(query) ^ attempt as u64);
        half + h % (full - half)
    }

    /// The timeout the virtual-time path charges for `attempt` of
    /// `query`: jittered when the policy carries a jitter seed, the
    /// fixed exponential schedule otherwise.
    pub fn timeout_for(&self, attempt: u32, query: u64) -> u64 {
        match self.jitter {
            Some(seed) => self.jittered_timeout(attempt, seed, query),
            None => self.timeout_after(attempt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_every_field() {
        let mut a = FaultStats {
            dropped: 1,
            dead_targets: 2,
            retries: 3,
            timeouts: 4,
            stale_misses: 5,
            ticks: 6,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(
            a,
            FaultStats {
                dropped: 2,
                dead_targets: 4,
                retries: 6,
                timeouts: 8,
                stale_misses: 10,
                ticks: 12,
            }
        );
        assert_eq!(a.wasted(), 6);
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_retries: 3,
            base_timeout: 4,
            backoff: 2,
            jitter: None,
        };
        assert_eq!(p.timeout_after(0), 4);
        assert_eq!(p.timeout_after(1), 8);
        assert_eq!(p.timeout_after(2), 16);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: 200,
            base_timeout: u64::MAX / 2,
            backoff: 3,
            jitter: None,
        };
        assert_eq!(p.timeout_after(199), u64::MAX);
    }

    #[test]
    fn jitter_spreads_within_half_open_backoff_window() {
        let p = RetryPolicy::default();
        for attempt in 0..3u32 {
            let full = p.timeout_after(attempt);
            let mut seen = std::collections::BTreeSet::new();
            for query in 0..500u64 {
                let t = p.jittered_timeout(attempt, 0xfa17, query);
                assert!(
                    (full / 2..full).contains(&t),
                    "attempt {attempt} query {query}: {t} outside [{}, {full})",
                    full / 2
                );
                seen.insert(t);
            }
            assert!(
                seen.len() > 1 || full <= 2,
                "attempt {attempt}: jitter never spread"
            );
        }
    }

    #[test]
    fn jitter_draws_are_identical_across_thread_widths() {
        // The draw is a stateless hash: evaluation order, thread count,
        // and interleaving cannot perturb it. Compute the same table
        // serially, in reverse, and from four concurrent threads.
        let p = RetryPolicy::default();
        let table = |order: &[u64]| -> Vec<u64> {
            let mut out = vec![0u64; order.len()];
            for &q in order {
                out[q as usize] = p.jittered_timeout((q % 3) as u32, 0x5eed, q);
            }
            out
        };
        let forward: Vec<u64> = (0..256).collect();
        let backward: Vec<u64> = (0..256).rev().collect();
        let serial = table(&forward);
        assert_eq!(serial, table(&backward));
        let threaded: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    s.spawn(move || {
                        (64 * w..64 * (w + 1))
                            .map(|q| p.jittered_timeout((q % 3) as u32, 0x5eed, q))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(serial, threaded);
    }

    #[test]
    fn degenerate_jitter_window_clamps_to_one_tick() {
        let p = RetryPolicy {
            max_retries: 1,
            base_timeout: 1,
            backoff: 1,
            jitter: Some(7),
        };
        for q in 0..50u64 {
            assert_eq!(p.jittered_timeout(0, 7, q), 1);
            assert_eq!(p.timeout_for(0, q), 1);
        }
    }

    #[test]
    fn timeout_for_dispatches_on_the_jitter_seed() {
        let fixed = RetryPolicy::default();
        let jittered = RetryPolicy {
            jitter: Some(0xabc),
            ..Default::default()
        };
        for q in 0..100u64 {
            assert_eq!(fixed.timeout_for(1, q), fixed.timeout_after(1));
            assert_eq!(
                jittered.timeout_for(1, q),
                jittered.jittered_timeout(1, 0xabc, q)
            );
        }
        // The jittered schedule actually differs from the fixed one for
        // some query (guard against a vacuous dispatch test).
        assert!((0..100u64).any(|q| jittered.timeout_for(1, q) != fixed.timeout_for(1, q)));
    }

    #[test]
    fn accumulate_prefix_builds_running_totals() {
        let mut levels = [
            FaultStats {
                dropped: 1,
                ..Default::default()
            },
            FaultStats {
                dropped: 2,
                dead_targets: 5,
                ..Default::default()
            },
            FaultStats {
                ticks: 3,
                ..Default::default()
            },
        ];
        FaultStats::accumulate_prefix(&mut levels);
        assert_eq!(levels[0].dropped, 1);
        assert_eq!(levels[1].dropped, 3);
        assert_eq!(levels[1].dead_targets, 5);
        assert_eq!(levels[2].dropped, 3);
        assert_eq!(levels[2].dead_targets, 5);
        assert_eq!(levels[2].ticks, 3);
        // Idempotent on empty and singleton slices.
        FaultStats::accumulate_prefix(&mut []);
        let mut one = [FaultStats {
            retries: 9,
            ..Default::default()
        }];
        FaultStats::accumulate_prefix(&mut one);
        assert_eq!(one[0].retries, 9);
    }

    #[test]
    fn default_stats_are_zero() {
        let s = FaultStats::default();
        assert_eq!(s.wasted(), 0);
        assert_eq!(s, FaultStats::default());
    }
}
