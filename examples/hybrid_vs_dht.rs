//! The §V implication as a head-to-head: Gnutella flooding, the Loo et al.
//! hybrid (flood then DHT), and a pure Chord-based keyword DHT, all over
//! the same world with the measured Zipf replica distribution.
//!
//! ```text
//! cargo run --release --example hybrid_vs_dht
//! ```

use qcp2p::obs::{Event, Kernel, MetricsRecorder};
use qcp2p::search::{evaluate, gen_queries, SearchSpec, SearchWorld, WorkloadConfig, WorldConfig};

fn main() {
    let world = SearchWorld::generate(&WorldConfig {
        num_peers: 2_000,
        num_objects: 20_000,
        seed: 29,
        ..Default::default()
    });
    println!(
        "world: {} peers, {} objects, mean {:.1} replicas/object (zipf placement)",
        world.num_peers(),
        world.num_objects(),
        world.placement.mean_replicas()
    );

    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: 1_500,
            seed: 31,
        },
    );

    let mut flood = SearchSpec::flood(3).build(&world);
    let mut hybrid = SearchSpec::hybrid(3, 20, 37)
        .recorder(MetricsRecorder::new())
        .build(&world);
    let mut dht = SearchSpec::dht_only(37).build(&world);
    let rows = evaluate(
        &world,
        &mut [&mut flood, &mut hybrid, &mut dht],
        &queries,
        41,
    );

    println!(
        "\n{:<24} {:>9} {:>14} {:>12}",
        "system", "success", "msgs/query", "maintenance"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8.1}% {:>14.1} {:>12}",
            r.system,
            r.success_rate * 100.0,
            r.mean_messages,
            r.maintenance_messages
        );
    }

    // The recorder counts one `Fallback` event per query re-issued over
    // the DHT.
    let fallbacks = hybrid
        .recorder()
        .event_count(Kernel::ChordLookup, Event::Fallback);
    println!(
        "\n{:.0}% of hybrid queries fell back to the DHT: the flood phase almost never finds enough replicas (Loo's 'rare' rule: < 20 results).",
        fallbacks as f64 / rows[1].queries as f64 * 100.0
    );
    println!(
        "hybrid spends {:.0}x the messages of pure DHT for the same success — the paper's argument that hybrid designs built on content-centric assumptions are worse than going structured directly.",
        rows[1].mean_messages / rows[2].mean_messages
    );
}
