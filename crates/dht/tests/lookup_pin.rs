//! Output pins for Chord routing and the DHT keyword index.
//!
//! Each test folds every field of every result over a fixed grid into
//! one 64-bit digest and compares it with a checked-in value. The grid
//! covers rings of 6, 16, 128 and 700 nodes; loss, churn and mean
//! latency up to (0.6, 0.6, 20); the default, a jittered and a
//! fail-fast retry policy; and lookup cutoffs / query budgets
//! {none, 0, 5, 40, 400}. The smoke manifest and the perfbench digests
//! reach these paths only at the configurations their workloads use,
//! so a refactor of the routing loop or the AND-query loop must keep
//! these six digests unchanged.

use qcp_dht::{ChordNetwork, DhtIndex};
use qcp_faults::{FaultConfig, FaultPlan, FaultStats, RetryPolicy};
use qcp_util::hash::mix64;

/// `(nodes, ring seed)` of every ring in the grid.
const RINGS: [(usize, u64); 4] = [(6, 0x06), (16, 0x16), (128, 0x128), (700, 0x700)];

/// `(loss, churn, mean latency)` of every fault plan in the grid.
const FAULTS: [(f64, f64, u32); 5] = [
    (0.0, 0.0, 1),
    (0.3, 0.0, 8),
    (0.0, 0.5, 2),
    (0.2, 0.3, 4),
    (0.6, 0.6, 20),
];

/// Workload ticks the lookups run at.
const TIMES: [u64; 3] = [0, 350, 800];

/// Lookup cutoffs and query budgets.
const CUTOFFS: [Option<u64>; 5] = [None, Some(0), Some(5), Some(40), Some(400)];

/// Keys looked up per `(ring, plan, policy, time)` cell.
const KEYS: u64 = 40;

fn policies() -> [RetryPolicy; 3] {
    [
        RetryPolicy::default(),
        RetryPolicy {
            jitter: Some(0x5eed),
            ..Default::default()
        },
        RetryPolicy {
            max_retries: 0,
            base_timeout: 4,
            backoff: 2,
            jitter: None,
        },
    ]
}

fn plan(n: usize, ring_seed: u64, (loss, churn, mean_latency): (f64, f64, u32)) -> FaultPlan {
    FaultPlan::build(
        n,
        &FaultConfig {
            loss,
            churn,
            mean_latency,
            seed: mix64(ring_seed ^ 0x91a7),
            ..Default::default()
        },
    )
}

/// An order-sensitive 64-bit fold.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn add(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }

    fn add_owner(&mut self, owner: Option<u32>) {
        self.add(owner.map_or(u64::MAX, u64::from));
    }

    fn add_stats(&mut self, s: &FaultStats) {
        for x in [
            s.dropped,
            s.dead_targets,
            s.retries,
            s.timeouts,
            s.stale_misses,
            s.ticks,
        ] {
            self.add(x);
        }
    }

    fn add_results(&mut self, results: &[u32]) {
        self.add(results.len() as u64);
        for &r in results {
            self.add(u64::from(r));
        }
    }
}

/// Calls `f(net, plan, policy, time, cell)` for every cell of the grid.
fn for_each_cell(mut f: impl FnMut(&ChordNetwork, &FaultPlan, &RetryPolicy, u64, u64)) {
    let mut cell = 0u64;
    for &(n, seed) in &RINGS {
        let net = ChordNetwork::new(n, seed);
        for &faults in &FAULTS {
            let plan = plan(n, seed, faults);
            for policy in &policies() {
                for &time in &TIMES {
                    f(&net, &plan, policy, time, cell);
                    cell += 1;
                }
            }
        }
    }
}

/// A ring with 160 objects published under 1–3 keys each from a
/// 40-key vocabulary, and the vocabulary.
fn indexed(n: usize, seed: u64) -> (ChordNetwork, DhtIndex, Vec<u64>) {
    let net = ChordNetwork::new(n, seed);
    let mut index = DhtIndex::new(&net);
    let vocab: Vec<u64> = (0..40u64).map(|t| mix64(seed ^ 0x7e2a ^ t)).collect();
    for obj in 0..160u32 {
        let h = mix64(seed ^ u64::from(obj));
        for j in 0..1 + h % 3 {
            // Skewed term choice, so multi-term queries sometimes match.
            let t = ((h >> (8 * j + 8)) % 40) * ((h >> (8 * j + 16)) % 40) / 40;
            index.publish_key(&net, obj % n as u32, vocab[t as usize], obj);
        }
    }
    (net, index, vocab)
}

/// The `q`-th query of a cell: 1–3 vocabulary keys.
fn query(vocab: &[u64], cell: u64, q: u64) -> Vec<u64> {
    let h = mix64(cell ^ q.wrapping_mul(0x51_7cc1_b727_220a));
    (0..1 + h % 3)
        .map(|j| vocab[(((h >> (8 * j + 8)) % 40) * ((h >> (8 * j + 16)) % 40) / 40) as usize])
        .collect()
}

fn check(name: &str, digest: Digest, pin: u64) {
    assert_eq!(
        digest.0, pin,
        "{name} digest moved: got {:#018x}, pinned {pin:#018x}",
        digest.0
    );
}

#[test]
fn lookup_faulty_is_pinned() {
    let mut d = Digest::default();
    let mut seen = FaultStats::default();
    let mut failed = 0u64;
    for_each_cell(|net, plan, policy, time, cell| {
        for k in 0..KEYS {
            let key = mix64(cell ^ (k << 32));
            let from = (mix64(key) % net.len() as u64) as u32;
            let (r, stats) = net.lookup_faulty(from, key, plan, policy, time, mix64(cell ^ k));
            d.add_owner(r.owner);
            d.add(u64::from(r.hops));
            d.add(r.messages);
            d.add_stats(&stats);
            seen.absorb(&stats);
            failed += u64::from(r.owner.is_none());
        }
    });
    // The grid reaches every branch of the attempt ladder.
    assert!(failed > 0 && seen.dropped > 0 && seen.dead_targets > 0);
    assert!(seen.retries > 0 && seen.timeouts > 0);
    check("lookup_faulty", d, PIN_LOOKUP_FAULTY);
}

#[test]
fn lookup_timed_is_pinned() {
    let mut d = Digest::default();
    let mut seen = FaultStats::default();
    let (mut truncated, mut resolved_under_cutoff) = (0u64, 0u64);
    for_each_cell(|net, plan, policy, time, cell| {
        for k in 0..KEYS {
            let key = mix64(cell ^ (k << 32));
            let from = (mix64(key) % net.len() as u64) as u32;
            for cutoff in CUTOFFS {
                let (r, stats) =
                    net.lookup_timed(from, key, plan, policy, time, mix64(cell ^ k), cutoff);
                d.add_owner(r.owner);
                d.add(u64::from(r.hops));
                d.add(r.messages);
                d.add(r.elapsed);
                d.add(u64::from(r.truncated));
                d.add_stats(&stats);
                seen.absorb(&stats);
                truncated += u64::from(r.truncated);
                resolved_under_cutoff += u64::from(cutoff.is_some() && r.owner.is_some());
            }
        }
    });
    // The grid reaches the race's every outcome: replies, drops, dead
    // candidates, retries, hop timeouts and cutoffs on both sides.
    assert!(truncated > 0 && resolved_under_cutoff > 0);
    assert!(seen.dropped > 0 && seen.dead_targets > 0);
    assert!(seen.retries > 0 && seen.timeouts > 0);
    check("lookup_timed", d, PIN_LOOKUP_TIMED);
}

#[test]
fn lookup_stale_is_pinned() {
    let mut d = Digest::default();
    let (mut resolved, mut failed) = (0u64, 0u64);
    for &(n, seed) in &RINGS {
        for &(_, churn, _) in &FAULTS {
            for &time in &TIMES {
                let mut net = ChordNetwork::new(n, seed);
                let alive = plan(n, seed, (0.0, churn, 1)).alive_mask_at(time);
                for v in 0..n as u32 {
                    if !alive[v as usize] && net.live_count() > 1 {
                        net.depart(v);
                    }
                }
                // Dangling tables first; on the larger rings also after
                // one maintenance round.
                let rounds = if n >= 128 { 2 } else { 1 };
                for round in 0..rounds {
                    if round > 0 {
                        d.add(net.stabilize());
                        d.add(net.fix_fingers());
                    }
                    for k in 0..2 * KEYS {
                        let key = mix64(seed ^ time ^ (k << 40));
                        let from = (mix64(key) % n as u64) as u32;
                        let (r, messages) = net.lookup_stale(from, key);
                        d.add_owner(r.map(|r| r.owner));
                        d.add(r.map_or(u64::MAX, |r| u64::from(r.hops)));
                        d.add(messages);
                        resolved += u64::from(r.is_some());
                        failed += u64::from(r.is_none());
                    }
                }
            }
        }
    }
    assert!(resolved > 0 && failed > 0);
    check("lookup_stale", d, PIN_LOOKUP_STALE);
}

#[test]
fn query_keys_is_pinned() {
    let mut d = Digest::default();
    for &(n, seed) in &RINGS {
        let (net, index, vocab) = indexed(n, seed);
        for q in 0..60u64 {
            let keys = query(&vocab, seed, q);
            let from = (mix64(q ^ seed) % n as u64) as u32;
            let out = index.query_keys(&net, from, &keys);
            d.add_results(&out.results);
            d.add(u64::from(out.hops));
            d.add(out.messages);
        }
        d.add(index.publish_hops());
    }
    // The empty query is free.
    let (net, index, _) = indexed(16, 0x16);
    let out = index.query_keys(&net, 3, &[]);
    d.add_results(&out.results);
    d.add(out.messages);
    check("query_keys", d, PIN_QUERY_KEYS);
}

#[test]
fn query_keys_faulty_is_pinned() {
    let mut d = Digest::default();
    let mut seen = FaultStats::default();
    let (mut hits, mut multi_term_hits) = (0u64, 0u64);
    for &(n, seed) in &RINGS {
        let (net, index, vocab) = indexed(n, seed);
        for &faults in &FAULTS {
            let plan = plan(n, seed, faults);
            for policy in &policies() {
                for &time in &TIMES {
                    for q in 0..6u64 {
                        let keys = query(&vocab, seed ^ time, q);
                        let from = (mix64(q ^ time ^ seed) % n as u64) as u32;
                        let (out, stats) = index.query_keys_faulty(
                            &net,
                            from,
                            &keys,
                            &plan,
                            policy,
                            time,
                            mix64(q ^ time),
                        );
                        d.add_results(&out.results);
                        d.add(u64::from(out.hops));
                        d.add(out.messages);
                        d.add_stats(&stats);
                        seen.absorb(&stats);
                        hits += u64::from(!out.results.is_empty());
                        multi_term_hits += u64::from(keys.len() > 1 && !out.results.is_empty());
                    }
                }
            }
        }
    }
    assert!(hits > 0 && multi_term_hits > 0 && seen.stale_misses > 0);
    check("query_keys_faulty", d, PIN_QUERY_KEYS_FAULTY);
}

#[test]
fn query_keys_timed_is_pinned() {
    let mut d = Digest::default();
    let mut seen = FaultStats::default();
    let (mut partial, mut complete) = (0u64, 0u64);
    for &(n, seed) in &RINGS {
        let (net, index, vocab) = indexed(n, seed);
        for &faults in &FAULTS {
            let plan = plan(n, seed, faults);
            for policy in &policies() {
                for &time in &TIMES {
                    for q in 0..6u64 {
                        let keys = query(&vocab, seed ^ time, q);
                        let from = (mix64(q ^ time ^ seed) % n as u64) as u32;
                        for budget in CUTOFFS {
                            let (out, stats) = index.query_keys_timed(
                                &net,
                                from,
                                &keys,
                                &plan,
                                policy,
                                time,
                                mix64(q ^ time),
                                budget,
                            );
                            d.add_results(&out.results);
                            d.add(u64::from(out.hops));
                            d.add(out.messages);
                            d.add(out.elapsed);
                            d.add(u64::from(out.deadline_exceeded));
                            d.add_stats(&stats);
                            seen.absorb(&stats);
                            let found = !out.results.is_empty();
                            partial += u64::from(out.deadline_exceeded && found);
                            complete += u64::from(!out.deadline_exceeded && found);
                        }
                    }
                }
            }
        }
    }
    // Budgets cut queries both before and after their first term.
    assert!(partial > 0 && complete > 0 && seen.stale_misses > 0);
    check("query_keys_timed", d, PIN_QUERY_KEYS_TIMED);
}

const PIN_LOOKUP_FAULTY: u64 = 0x0c89_e454_be13_11b9;
const PIN_LOOKUP_TIMED: u64 = 0x07c6_d4ee_ee68_97db;
const PIN_LOOKUP_STALE: u64 = 0xbfe8_cd18_74ca_a517;
const PIN_QUERY_KEYS: u64 = 0x9f9e_e448_f981_9406;
const PIN_QUERY_KEYS_FAULTY: u64 = 0xf4c2_81dd_a20c_315b;
const PIN_QUERY_KEYS_TIMED: u64 = 0x7394_ca69_3476_c2f6;
