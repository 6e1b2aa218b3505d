//! Microbenchmarks of the substrate kernels: tokenizer, sanitizer, Bloom
//! filters, Zipf samplers, Chord lookups, flooding, and the parallel
//! executor. These are the hot paths every figure rests on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qcp_core::dht::{ChordNetwork, PastryNetwork};
use qcp_core::obs::NoopRecorder;
use qcp_core::overlay::flood::{FloodEngine, FloodSpec};
use qcp_core::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp_core::sketch::BloomFilter;
use qcp_core::terms::{sanitize_name, tokenize};
use qcp_core::util::hash::mix64;
use qcp_core::util::rng::Pcg64;
use qcp_core::xpar::Pool;
use qcp_core::zipf::{AliasTable, DiscretePowerLaw, Zipf};
use std::hint::black_box;

fn terms(c: &mut Criterion) {
    let names = [
        "Aaron Neville and Linda Ronstadt - I Don't Know Much.mp3",
        "madonna like a prayer (remix) [1989].MP3",
        "Björk — Jóga (live @ Cambridge).ogg",
        "01 Track.wma",
    ];
    let mut g = c.benchmark_group("terms");
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("tokenize", |b| {
        b.iter(|| {
            for n in &names {
                black_box(tokenize(n));
            }
        })
    });
    g.bench_function("sanitize", |b| {
        b.iter(|| {
            for n in &names {
                black_box(sanitize_name(n));
            }
        })
    });
    g.finish();
}

fn sketches(c: &mut Criterion) {
    let mut filter = BloomFilter::for_capacity(100_000, 0.01);
    for i in 0..100_000u64 {
        filter.insert(mix64(i));
    }
    let mut g = c.benchmark_group("bloom");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert", |b| {
        let mut f = BloomFilter::for_capacity(100_000, 0.01);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            f.insert(mix64(i));
        })
    });
    g.bench_function("contains_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            black_box(filter.contains(mix64(i)))
        })
    });
    g.bench_function("contains_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(filter.contains(mix64(i + 1_000_000)))
        })
    });
    g.finish();
}

fn distributions(c: &mut Criterion) {
    let mut rng = Pcg64::new(1);
    let zipf = Zipf::new(100_000, 1.05);
    let alias = AliasTable::new(&(1..=1000).map(|k| 1.0 / k as f64).collect::<Vec<_>>());
    let law = DiscretePowerLaw::new(1, 40_000, 2.3);
    let mut g = c.benchmark_group("distributions");
    g.throughput(Throughput::Elements(1));
    g.bench_function("zipf_sample", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    g.bench_function("alias_sample", |b| {
        b.iter(|| black_box(alias.sample(&mut rng)))
    });
    g.bench_function("powerlaw_sample", |b| {
        b.iter(|| black_box(law.sample(&mut rng)))
    });
    g.bench_function("pcg_next", |b| b.iter(|| black_box(rng.next())));
    g.finish();
}

fn chord(c: &mut Criterion) {
    let net = ChordNetwork::new(40_000, 2);
    let pastry = PastryNetwork::new(40_000, 2);
    let mut rng = Pcg64::new(3);
    c.bench_function("chord_lookup_40k", |b| {
        b.iter(|| {
            let key = rng.next();
            let from = rng.index(40_000) as u32;
            black_box(net.lookup(from, key))
        })
    });
    c.bench_function("pastry_route_40k", |b| {
        b.iter(|| {
            let key = rng.next();
            let from = rng.index(40_000) as u32;
            black_box(pastry.route(from, key))
        })
    });
}

fn flooding(c: &mut Criterion) {
    let topo = gnutella_two_tier(&TopologyConfig {
        num_nodes: 40_000,
        seed: 4,
        ..Default::default()
    });
    let forwarders = topo.forwarders();
    let mut engine = FloodEngine::new(40_000);
    let mut rng = Pcg64::new(5);
    let mut g = c.benchmark_group("flood");
    for ttl in [2u32, 3, 4] {
        let spec = FloodSpec::new(ttl);
        g.bench_function(format!("ttl{ttl}_40k"), |b| {
            b.iter(|| {
                let src = rng.index(40_000) as u32;
                let (census, _) = engine.run(
                    &topo.graph,
                    src,
                    &[],
                    Some(&forwarders),
                    &spec,
                    &mut NoopRecorder,
                );
                black_box(census.at(ttl))
            })
        });
    }
    g.finish();
}

fn parallel(c: &mut Criterion) {
    let pool = Pool::new(4);
    let data: Vec<u64> = (0..200_000).collect();
    let mut g = c.benchmark_group("xpar");
    g.bench_function("par_map_200k", |b| {
        b.iter(|| pool.par_map(&data, |&x| mix64(x)))
    });
    g.bench_function("seq_map_200k", |b| {
        b.iter(|| data.iter().map(|&x| mix64(x)).collect::<Vec<_>>())
    });
    g.bench_function("par_reduce_200k", |b| {
        b.iter(|| pool.par_reduce(&data, 0u64, |&x| mix64(x), |a, b| a ^ b))
    });
    g.finish();
}

criterion_group! {
    name = components;
    config = Criterion::default().sample_size(20);
    targets = terms, sketches, distributions, chord, flooding, parallel
}
criterion_main!(components);
