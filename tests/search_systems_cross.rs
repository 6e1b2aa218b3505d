//! Integration across the search-system stack: every system over one
//! shared world and workload, asserting the cross-system orderings the
//! paper's Sections V–VII predict.

use qcp2p::obs::{Event, Kernel, MetricsRecorder};
use qcp2p::search::{
    evaluate, gen_queries, AdvertiseSearch, GiaSearch, QrpFloodSearch, SearchSpec, SearchWorld,
    SynopsisPolicy, SynopsisSearch, WorkloadConfig, WorldConfig,
};

fn world() -> SearchWorld {
    SearchWorld::generate(&WorldConfig {
        num_peers: 1_000,
        num_objects: 8_000,
        num_terms: 8_000,
        head_size: 120,
        seed: 2718,
        ..Default::default()
    })
}

#[test]
fn dht_dominates_flood_on_success_and_cost() {
    let w = world();
    let queries = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 400,
            seed: 1,
        },
    );
    let mut flood = SearchSpec::flood(3).build(&w);
    let mut dht = SearchSpec::dht_only(2).build(&w);
    let rows = evaluate(&w, &mut [&mut flood, &mut dht], &queries, 3);
    let (flood_row, dht_row) = (&rows[0], &rows[1]);
    // The DHT finds everything that exists; flooding misses the tail.
    assert!(dht_row.success_rate > flood_row.success_rate);
    // And does so orders of magnitude cheaper per query.
    assert!(dht_row.mean_messages * 10.0 < flood_row.mean_messages);
}

#[test]
fn hybrid_matches_dht_success_at_higher_cost() {
    let w = world();
    let queries = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 400,
            seed: 4,
        },
    );
    let mut hybrid = SearchSpec::hybrid(3, 20, 5)
        .recorder(MetricsRecorder::new())
        .build(&w);
    let mut dht = SearchSpec::dht_only(5).build(&w);
    let rows = evaluate(&w, &mut [&mut hybrid, &mut dht], &queries, 6);
    assert!((rows[0].success_rate - rows[1].success_rate).abs() < 0.03);
    assert!(
        rows[0].mean_messages > 5.0 * rows[1].mean_messages,
        "hybrid {} vs dht {}",
        rows[0].mean_messages,
        rows[1].mean_messages
    );
    // Under Zipf replicas almost everything is 'rare'.
    let fallbacks = hybrid
        .recorder()
        .event_count(Kernel::ChordLookup, Event::Fallback);
    let fallback_rate = fallbacks as f64 / queries.len() as f64;
    assert!(fallback_rate > 0.7, "fallback {fallback_rate}");
}

#[test]
fn gia_beats_blind_walk_loses_to_dht() {
    let w = world();
    let queries = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 400,
            seed: 7,
        },
    );
    let mut walk = SearchSpec::walk(1, 30).build(&w);
    let mut gia = GiaSearch::new(&w, 30, 8);
    let mut dht = SearchSpec::dht_only(8).build(&w);
    let rows = evaluate(&w, &mut [&mut walk, &mut gia, &mut dht], &queries, 9);
    assert!(
        rows[1].success_rate > rows[0].success_rate,
        "gia must beat walk"
    );
    assert!(
        rows[2].success_rate > rows[1].success_rate,
        "dht must beat gia"
    );
}

#[test]
fn query_centric_synopsis_outperforms_content_centric() {
    let w = world();
    let train = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 4_000,
            seed: 10,
        },
    );
    let test = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 500,
            seed: 11,
        },
    );
    let mut content = SynopsisSearch::new(&w, SynopsisPolicy::ContentCentric, 12, 40);
    let mut query = SynopsisSearch::new(&w, SynopsisPolicy::QueryCentric, 12, 40);
    query.observe_queries(&w, &train, 0.5);
    let rows = evaluate(&w, &mut [&mut content, &mut query], &test, 12);
    assert!(
        rows[1].success_rate > 1.15 * rows[0].success_rate,
        "query-centric {} must clearly beat content-centric {}",
        rows[1].success_rate,
        rows[0].success_rate
    );
}

#[test]
fn all_systems_report_consistent_outcomes() {
    // Success implies hops reported; failure implies no hops, except in
    // the DHT-backed systems, whose misses still report the routing hops
    // of their term lookups; message counts are bounded by each system's
    // budget.
    use qcp2p::search::SearchSystem;
    use qcp2p::util::rng::Pcg64;

    let w = world();
    let queries = gen_queries(
        &w,
        &WorkloadConfig {
            num_queries: 120,
            seed: 13,
        },
    );
    // (system, whether a miss reports hops)
    let mut systems: Vec<(Box<dyn SearchSystem>, bool)> = vec![
        (Box::new(SearchSpec::flood(2).build(&w)), false),
        (Box::new(SearchSpec::walk(4, 25).build(&w)), false),
        (Box::new(GiaSearch::new(&w, 25, 14)), false),
        (Box::new(SearchSpec::hybrid(2, 10, 15).build(&w)), true),
        (Box::new(SearchSpec::dht_only(15).build(&w)), true),
        (
            Box::new(SynopsisSearch::new(&w, SynopsisPolicy::QueryCentric, 8, 25)),
            false,
        ),
        (Box::new(AdvertiseSearch::new(&w, 8, 25, 16)), false),
        (Box::new(QrpFloodSearch::new(&w, 2, 4096)), false),
    ];
    let mut rng = Pcg64::new(16);
    for (sys, miss_hops) in &mut systems {
        let (mut hits, mut misses) = (0, 0);
        for q in &queries {
            let out = sys.search(&w, q, &mut rng);
            if out.success {
                hits += 1;
                assert!(out.hops.is_some(), "{}: success without hops", sys.name());
            } else {
                misses += 1;
                assert!(
                    *miss_hops || out.hops.is_none(),
                    "{}: a miss reports hops {:?}",
                    sys.name(),
                    out.hops
                );
            }
            assert!(
                out.messages < 2_000_000,
                "{}: absurd message count",
                sys.name()
            );
        }
        assert!(
            hits > 0 && misses > 0,
            "{}: {hits} hits, {misses} misses",
            sys.name()
        );
    }
}

#[test]
fn uniform_world_lifts_every_unstructured_system() {
    // Replication is the bottleneck: give every object 10 replicas and the
    // unstructured systems all improve.
    let zipf_world = world();
    let uniform_world = SearchWorld::generate(&WorldConfig {
        num_peers: 1_000,
        num_objects: 8_000,
        num_terms: 8_000,
        head_size: 120,
        uniform_replicas: Some(10),
        seed: 2718,
        ..Default::default()
    });
    let cfg = WorkloadConfig {
        num_queries: 400,
        seed: 17,
    };
    for ttl in [2u32, 3] {
        let qz = gen_queries(&zipf_world, &cfg);
        let qu = gen_queries(&uniform_world, &cfg);
        let mut fz = SearchSpec::flood(ttl).build(&zipf_world);
        let mut fu = SearchSpec::flood(ttl).build(&uniform_world);
        let rz = evaluate(&zipf_world, &mut [&mut fz], &qz, 18);
        let ru = evaluate(&uniform_world, &mut [&mut fu], &qu, 18);
        assert!(
            ru[0].success_rate > rz[0].success_rate,
            "ttl {ttl}: uniform {} must beat zipf {}",
            ru[0].success_rate,
            rz[0].success_rate
        );
    }
}
