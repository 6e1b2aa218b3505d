//! One Criterion benchmark per paper figure/table kernel.
//!
//! These time the *computation* behind each artifact at a reduced size, so
//! `cargo bench` stays in CI territory; `repro --scale default` is the
//! full regeneration path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qcp_core::analysis::{
    mismatch, stability, transient, AnnotationAnalysis, IntervalIndex, PopularityRule,
    ReplicationAnalysis, TermReplicationAnalysis, TransientConfig,
};
use qcp_core::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp_core::overlay::{sweep_ttl, Placement, PlacementModel, SimConfig};
use qcp_core::search::{
    evaluate, gen_queries, SearchSpec, SearchWorld, WorkloadConfig, WorldConfig,
};
use qcp_core::terms::TermDict;
use qcp_core::tracegen::{
    Crawl, CrawlConfig, ItunesConfig, ItunesTrace, QueryTrace, QueryTraceConfig, Vocabulary,
    VocabularyConfig,
};
use qcp_core::xpar::Pool;
use std::hint::black_box;

fn bench_vocab() -> Vocabulary {
    Vocabulary::generate(&VocabularyConfig {
        num_terms: 8_000,
        head_size: 100,
        head_overlap: 0.3,
        seed: 1,
    })
}

fn bench_crawl(vocab: &Vocabulary) -> Crawl {
    Crawl::generate(
        vocab,
        &CrawlConfig {
            num_peers: 800,
            num_objects: 15_000,
            seed: 2,
            ..Default::default()
        },
    )
}

fn bench_queries(vocab: &Vocabulary) -> QueryTrace {
    QueryTrace::generate(
        vocab,
        &QueryTraceConfig {
            num_queries: 60_000,
            duration_secs: 86_400,
            core_size: 100,
            seed: 3,
            ..Default::default()
        },
    )
}

fn fig1_2_3(c: &mut Criterion) {
    let vocab = bench_vocab();
    let crawl = bench_crawl(&vocab);
    c.bench_function("fig1_object_replication", |b| {
        b.iter(|| {
            ReplicationAnalysis::from_names(
                crawl.num_peers,
                crawl.files.iter().map(|f| (f.peer, f.name.as_str())),
            )
        })
    });
    c.bench_function("fig2_sanitized_replication", |b| {
        b.iter(|| {
            ReplicationAnalysis::from_sanitized_names(
                crawl.num_peers,
                crawl.files.iter().map(|f| (f.peer, f.name.as_str())),
            )
        })
    });
    c.bench_function("fig3_term_replication", |b| {
        b.iter(|| {
            TermReplicationAnalysis::from_names(
                crawl.files.iter().map(|f| (f.peer, f.name.as_str())),
            )
        })
    });
}

fn fig4(c: &mut Criterion) {
    let vocab = bench_vocab();
    let itunes = ItunesTrace::generate(
        &vocab,
        &ItunesConfig {
            num_clients: 100,
            catalog_songs: 10_000,
            catalog_artists: 1_500,
            mean_share_size: 250.0,
            seed: 4,
            ..Default::default()
        },
    );
    c.bench_function("fig4_itunes_annotations", |b| {
        b.iter(|| {
            for field in 0..4 {
                let a = AnnotationAnalysis::from_records(
                    "f",
                    itunes.shares.iter().flat_map(|s| {
                        s.songs.iter().map(move |r| {
                            let v = match field {
                                0 => r.name.as_str(),
                                1 => r.genre.as_str(),
                                2 => r.album.as_str(),
                                _ => r.artist.as_str(),
                            };
                            (s.client, v)
                        })
                    }),
                );
                black_box(a.unique_values);
            }
        })
    });
}

fn fig5_6_7(c: &mut Criterion) {
    let vocab = bench_vocab();
    let trace = bench_queries(&vocab);
    let crawl = bench_crawl(&vocab);
    c.bench_function("fig5_transient_detection", |b| {
        b.iter_batched(
            || {
                let mut dict = TermDict::new();
                IntervalIndex::build(
                    trace.queries.iter().map(|q| (q.time, q.text.as_str())),
                    trace.duration_secs,
                    3_600,
                    &mut dict,
                )
            },
            |idx| transient::detect_transients(&idx, &TransientConfig::default()),
            BatchSize::LargeInput,
        )
    });
    let mut dict = TermDict::new();
    let popular_files = mismatch::popular_file_terms(
        crawl.files.iter().map(|f| (f.peer, f.name.as_str())),
        PopularityRule::TopK(100),
        &mut dict,
    );
    let idx = IntervalIndex::build(
        trace.queries.iter().map(|q| (q.time, q.text.as_str())),
        trace.duration_secs,
        3_600,
        &mut dict,
    );
    c.bench_function("fig6_popular_stability", |b| {
        b.iter(|| stability::popular_stability(&idx, PopularityRule::TopK(100)))
    });
    c.bench_function("fig7_query_file_mismatch", |b| {
        b.iter(|| mismatch::query_file_mismatch(&idx, &popular_files, PopularityRule::TopK(100)))
    });
}

fn fig8(c: &mut Criterion) {
    let topo = gnutella_two_tier(&TopologyConfig {
        num_nodes: 8_000,
        seed: 5,
        ..Default::default()
    });
    let forwarders = topo.forwarders();
    let placement =
        Placement::generate(PlacementModel::ZipfReplicas { tau: 2.05 }, 8_000, 4_000, 6);
    let pool = Pool::global();
    let sim = SimConfig {
        trials: 400,
        seed: 7,
        ..Default::default()
    };
    c.bench_function("fig8_flood_sweep_ttl3", |b| {
        b.iter(|| sweep_ttl(pool, &topo.graph, &placement, Some(&forwarders), &[3], &sim)[0])
    });
}

fn table3(c: &mut Criterion) {
    let world = SearchWorld::generate(&WorldConfig {
        num_peers: 800,
        num_objects: 6_000,
        num_terms: 6_000,
        head_size: 100,
        seed: 8,
        ..Default::default()
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: 100,
            seed: 9,
        },
    );
    c.bench_function("table3_hybrid_vs_dht", |b| {
        let mut flood = SearchSpec::flood(3).build(&world);
        let mut hybrid = SearchSpec::hybrid(3, 20, 10).build(&world);
        let mut dht = SearchSpec::dht_only(10).build(&world);
        b.iter(|| {
            evaluate(
                &world,
                &mut [&mut flood, &mut hybrid, &mut dht],
                &queries,
                11,
            )
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig1_2_3, fig4, fig5_6_7, fig8, table3
}
criterion_main!(figures);
