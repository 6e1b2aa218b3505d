//! Structured-overlay tour: Chord vs Pastry routing, fault-tolerant
//! lookups under failures, and the distributed keyword index that backs
//! the hybrid fallback path.
//!
//! ```text
//! cargo run --release --example structured_overlays
//! ```

use qcp2p::dht::{ChordNetwork, DhtIndex, PastryNetwork};
use qcp2p::faults::{FaultConfig, FaultPlan, RetryPolicy};
use qcp2p::util::hash::mix64;
use qcp2p::util::rng::Pcg64;

fn main() {
    // --- Routing scaling: Chord (base-2) vs Pastry (base-16) -----------
    println!("mean lookup hops (500 random lookups each):\n");
    println!("{:>8} {:>12} {:>12}", "nodes", "chord", "pastry");
    for n in [1_000usize, 4_000, 16_000] {
        let chord = ChordNetwork::new(n, 1);
        let pastry = PastryNetwork::new(n, 1);
        let mut rng = Pcg64::new(2);
        let samples = 500;
        let (mut c_total, mut p_total) = (0u64, 0u64);
        for k in 0..samples {
            let key = mix64(k);
            let from = rng.index(n) as u32;
            c_total += chord.lookup(from, key).hops as u64;
            p_total += pastry.route(from, key).hops as u64;
        }
        println!(
            "{:>8} {:>12.2} {:>12.2}",
            n,
            c_total as f64 / samples as f64,
            p_total as f64 / samples as f64
        );
    }

    // --- Fault tolerance ------------------------------------------------
    let n = 2_000;
    let chord = ChordNetwork::new(n, 3);
    let policy = RetryPolicy::default();
    println!("\nchord lookups with fail-stop node losses (TTL-free routing):");
    for churn in [0.0f64, 0.2, 0.5] {
        // A loss-free churn plan frozen at the end of its horizon: each
        // node is down for good or up for good.
        let config = FaultConfig {
            loss: 0.0,
            churn,
            rejoin: false,
            seed: 4,
            ..Default::default()
        };
        let plan = FaultPlan::build(n, &config).frozen_at(config.horizon);
        let sources: Vec<u32> = (0..n as u32)
            .filter(|&v| plan.alive_at(v, 0))
            .take(32)
            .collect();
        let (mut hops, mut resolved, mut count) = (0u64, 0u64, 0u64);
        for k in 0..200u64 {
            let key = mix64(k ^ 0xfa11);
            for &from in &sources {
                let (r, _) = chord.lookup_faulty(from, key, &plan, &policy, 0, k);
                if r.owner.is_some() {
                    hops += r.hops as u64;
                    resolved += 1;
                }
                count += 1;
            }
        }
        println!(
            "  {:>3.0}% dead: {resolved}/{count} lookups resolve, mean {:.2} hops",
            plan.dead_count_at(0) as f64 * 100.0 / n as f64,
            hops as f64 / resolved as f64
        );
    }

    // --- Keyword index ----------------------------------------------------
    println!("\ndistributed keyword index (exact AND semantics over the ring):");
    let net = ChordNetwork::new(512, 5);
    let mut index = DhtIndex::new(&net);
    let catalogue = [
        (1u32, vec!["aaron", "neville", "know", "much"]),
        (2, vec!["madonna", "like", "prayer"]),
        (3, vec!["madonna", "hits", "collection"]),
        (4, vec!["nirvana", "teen", "spirit"]),
    ];
    for (obj, terms) in &catalogue {
        for t in terms {
            index.publish(&net, obj % 512, t, *obj);
        }
    }
    for query in [
        vec!["madonna"],
        vec!["madonna", "prayer"],
        vec!["teen", "spirit"],
        vec!["madonna", "nirvana"],
    ] {
        let out = index.query(&net, 7, &query);
        println!(
            "  query {:?} -> objects {:?} ({} routing hops)",
            query, out.results, out.hops
        );
    }
    println!(
        "\npublication cost so far: {} hops across {} posting lists — the 'maintenance' column of the hybrid-vs-DHT comparison.",
        index.publish_hops(),
        index.stored_lists()
    );
}
