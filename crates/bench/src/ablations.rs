//! Ablation experiments (DESIGN.md A1–A5): the design-space questions the
//! paper raises but does not evaluate, answered with the same substrates.

use crate::{Repro, Scale};
use qcp_core::overlay::topology::{
    barabasi_albert, erdos_renyi, gnutella_two_tier, TopologyConfig,
};
use qcp_core::overlay::{sweep_ttl, Placement, PlacementModel, SimConfig};
use qcp_core::search::{
    evaluate, gen_queries, AdvertiseSearch, GiaSearch, SearchSpec, SearchWorld, SynopsisPolicy,
    SynopsisSearch, WorkloadConfig, WorldConfig,
};
use qcp_core::util::table::{fnum, percent};
use qcp_core::util::Table;
use qcp_core::xpar::Pool;
use std::fmt::Write as _;

fn ablation_world_config(r: &Repro) -> WorldConfig {
    WorldConfig {
        num_peers: match r.scale {
            Scale::Test => 600,
            _ => 2_000,
        },
        num_objects: match r.scale {
            Scale::Test => 5_000,
            _ => 20_000,
        },
        num_terms: match r.scale {
            Scale::Test => 6_000,
            _ => 20_000,
        },
        head_size: match r.scale {
            Scale::Test => 100,
            _ => 200,
        },
        seed: r.seed ^ 0xab1a,
        ..Default::default()
    }
}

/// A1 — content-centric vs query-centric synopses vs baselines.
pub fn synopsis(r: &Repro) -> String {
    let world = SearchWorld::generate(&ablation_world_config(r));
    let train = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: r.trials * 3,
            seed: r.seed ^ 0x7a11,
        },
    );
    let test = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: r.trials,
            seed: r.seed ^ 0x7e57,
        },
    );
    let budget = 12;
    let ttl = 40;
    let mut flood = SearchSpec::flood(3).build(&world);
    let mut walk = SearchSpec::walk(1, ttl).build(&world);
    let mut ads = AdvertiseSearch::new(&world, 8, ttl, r.seed ^ 0xad5);
    let mut content = SynopsisSearch::new(&world, SynopsisPolicy::ContentCentric, budget, ttl);
    let mut query_centric = SynopsisSearch::new(&world, SynopsisPolicy::QueryCentric, budget, ttl);
    query_centric.observe_queries(&world, &train, 0.5);

    let rows = evaluate(
        &world,
        &mut [
            &mut flood,
            &mut walk,
            &mut ads,
            &mut content,
            &mut query_centric,
        ],
        &test,
        r.seed,
    );
    let mut t = Table::new(["system", "success_rate", "mean_messages", "maintenance"]);
    for row in &rows {
        t.row([
            row.system.clone(),
            percent(row.success_rate),
            fnum(row.mean_messages, 1),
            row.maintenance_messages.to_string(),
        ]);
    }
    r.write_csv("ablation_synopsis", &t);
    format!(
        "== A1 — synopsis policy ablation (budget {budget} terms/peer) ==\n{}\nThe query-centric synopsis spends the same budget on the terms users ask for; under the planted <20% query/file overlap it resolves more queries per bit than the content-centric policy. The ASAP-style advertisement push buys its success rate with an order of magnitude more maintenance traffic — and that traffic is still placed content-centrically.\n",
        t.to_text()
    )
}

/// A2 — Gia under uniform vs Zipf placement (related-work claim).
pub fn gia(r: &Repro) -> String {
    let base = ablation_world_config(r);
    let uniform_k = (base.num_peers as f64 * 0.005).round().max(1.0) as u32;
    let zipf_world = SearchWorld::generate(&base);
    let uniform_world = SearchWorld::generate(&WorldConfig {
        uniform_replicas: Some(uniform_k),
        ..base.clone()
    });
    let queries_cfg = WorkloadConfig {
        num_queries: r.trials,
        seed: r.seed ^ 0x61a,
    };
    let mut t = Table::new(["placement", "success_rate", "mean_messages"]);
    let mut out = String::new();
    for (label, world) in [("uniform-0.5%", &uniform_world), ("zipf", &zipf_world)] {
        let queries = gen_queries(world, &queries_cfg);
        let mut gia = GiaSearch::new(world, 30, r.seed);
        let rows = evaluate(world, &mut [&mut gia], &queries, r.seed);
        t.row([
            label.to_string(),
            percent(rows[0].success_rate),
            fnum(rows[0].mean_messages, 1),
        ]);
        let _ = writeln!(
            out,
            "{label}: success {} at {} mean messages",
            percent(rows[0].success_rate),
            fnum(rows[0].mean_messages, 1)
        );
    }
    r.write_csv("ablation_gia", &t);
    format!(
        "== A2 — Gia: uniform ({uniform_k} replicas = 0.5%) vs Zipf placement ==\n{}\n{out}Gia's published evaluation assumed the uniform column; real (Zipf) replica distributions cut its success sharply — the paper's related-work critique.\n",
        t.to_text()
    )
}

/// A3 — sensitivity to the query/file head overlap α.
pub fn mismatch(r: &Repro) -> String {
    let base = ablation_world_config(r);
    let mut t = Table::new([
        "head_overlap",
        "flood3_success",
        "synopsis_query_success",
        "synopsis_content_success",
    ]);
    let mut out = String::new();
    for &alpha in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        let world = SearchWorld::generate(&WorldConfig {
            head_overlap: alpha,
            ..base.clone()
        });
        let train = gen_queries(
            &world,
            &WorkloadConfig {
                num_queries: r.trials * 2,
                seed: r.seed ^ 0x3a,
            },
        );
        let test = gen_queries(
            &world,
            &WorkloadConfig {
                num_queries: r.trials / 2,
                seed: r.seed ^ 0x3b,
            },
        );
        let mut flood = SearchSpec::flood(3).build(&world);
        let mut qc = SynopsisSearch::new(&world, SynopsisPolicy::QueryCentric, 12, 40);
        qc.observe_queries(&world, &train, 0.5);
        let mut cc = SynopsisSearch::new(&world, SynopsisPolicy::ContentCentric, 12, 40);
        let rows = evaluate(&world, &mut [&mut flood, &mut qc, &mut cc], &test, r.seed);
        t.row([
            fnum(alpha, 2),
            percent(rows[0].success_rate),
            percent(rows[1].success_rate),
            percent(rows[2].success_rate),
        ]);
        let _ = writeln!(
            out,
            "alpha={alpha}: flood {}, query-synopsis {}, content-synopsis {}",
            percent(rows[0].success_rate),
            percent(rows[1].success_rate),
            percent(rows[2].success_rate)
        );
    }
    r.write_csv("ablation_mismatch", &t);
    format!(
        "== A3 — query/file head overlap sweep ==\n{}\n{out}As the overlap grows the content-centric synopsis catches up: the query-centric advantage *is* the mismatch.\n",
        t.to_text()
    )
}

/// A4 — Figure 8 sensitivity to topology family.
pub fn topology(r: &Repro) -> String {
    let n = match r.scale {
        Scale::Test => 2_000,
        _ => 10_000,
    };
    let num_objects = n as u32 / 2;
    let pool = Pool::global();
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        num_objects,
        r.seed ^ 0x70f0,
    );
    let two_tier = gnutella_two_tier(&TopologyConfig {
        num_nodes: n,
        seed: r.seed,
        ..Default::default()
    });
    let er = erdos_renyi(n, two_tier.graph.mean_degree(), r.seed ^ 1);
    let ba = barabasi_albert(
        n,
        (two_tier.graph.mean_degree() / 2.0).round() as usize,
        r.seed ^ 2,
    );
    let mut t = Table::new(["topology", "ttl", "success_rate", "reach_fraction"]);
    let mut out = String::new();
    for (label, topo, fwd) in [
        ("two-tier", &two_tier, Some(two_tier.forwarders())),
        ("erdos-renyi", &er, None),
        ("barabasi-albert", &ba, None),
    ] {
        for ttl in [2u32, 3, 4] {
            let p = sweep_ttl(pool, &topo.graph, &placement, fwd.as_deref(), &[ttl], &sim)[0];
            t.row([
                label.to_string(),
                ttl.to_string(),
                fnum(p.success_rate, 4),
                fnum(p.mean_reach_fraction, 4),
            ]);
        }
        let _ = writeln!(out, "{label}: mean degree {:.1}", topo.graph.mean_degree());
    }
    r.write_csv("ablation_topology", &t);
    format!(
        "== A4 — flood success vs topology family (zipf placement) ==\n{}\n{out}The Zipf-placement failure is topology-robust: expanders reach more peers per TTL but the missing replicas are missing everywhere.\n",
        t.to_text()
    )
}

/// A5 — random-walk walkers × TTL trade-off vs flooding.
pub fn walk(r: &Repro) -> String {
    let world = SearchWorld::generate(&ablation_world_config(r));
    let test = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: r.trials / 2,
            seed: r.seed ^ 0x5a1c,
        },
    );
    let mut t = Table::new(["system", "success_rate", "mean_messages"]);
    let mut out = String::new();
    let mut run = |sys: &mut dyn qcp_core::search::SearchSystem| {
        let rows = evaluate(&world, &mut [sys], &test, r.seed);
        t.row([
            rows[0].system.clone(),
            percent(rows[0].success_rate),
            fnum(rows[0].mean_messages, 1),
        ]);
        let _ = writeln!(
            out,
            "{}: {} success, {} msgs",
            rows[0].system,
            percent(rows[0].success_rate),
            fnum(rows[0].mean_messages, 1)
        );
    };
    for (k, ttl) in [(1usize, 64u32), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2)] {
        run(&mut SearchSpec::walk(k, ttl).build(&world));
    }
    run(&mut SearchSpec::flood(2).build(&world));
    run(&mut SearchSpec::flood(3).build(&world));
    r.write_csv("ablation_walk", &t);
    format!(
        "== A5 — walkers x TTL at a fixed 64-step budget, vs flooding ==\n{}\n{out}Few long walkers beat many short ones on sparse content; flooding buys its success rate with orders of magnitude more messages.\n",
        t.to_text()
    )
}

/// A6 — flood search under churn: how much does fail-stop departure of
/// peers (random vs targeted at ultrapeers) erode the already-poor Zipf
/// success rate?
pub fn churn(r: &Repro) -> String {
    use qcp_core::obs::NoopRecorder;
    use qcp_core::overlay::churn::{fail_highest_degree, fail_random, surviving_holders};
    use qcp_core::overlay::{FloodEngine, FloodSpec};
    use qcp_core::util::rng::{child_seed, Pcg64};

    let n = match r.scale {
        Scale::Test => 2_000usize,
        _ => 10_000,
    };
    let topo = gnutella_two_tier(&TopologyConfig {
        num_nodes: n,
        seed: r.seed,
        ..Default::default()
    });
    let placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n as u32,
        n as u32 / 2,
        r.seed ^ 0xc8,
    );
    let pool = Pool::global();
    let trials = r.trials;
    let mut t = Table::new([
        "churn_model",
        "failed_fraction",
        "success_rate",
        "reach_fraction",
    ]);
    let mut out = String::new();
    for &frac in &[0.0f64, 0.1, 0.25, 0.5] {
        for (model, overlay) in [
            ("random", fail_random(&topo.graph, frac, r.seed ^ 0x11)),
            ("targeted", fail_highest_degree(&topo.graph, frac)),
        ] {
            // Run flood trials on the churned graph; holders and sources
            // restricted to survivors.
            let alive_nodes: Vec<u32> = (0..n as u32)
                .filter(|&u| overlay.alive[u as usize])
                .collect();
            let results: Vec<(u64, u64, u64)> = pool.par_map_indexed(8, |chunk| {
                let mut engine = FloodEngine::new(n);
                let mut successes = 0u64;
                let mut reached = 0u64;
                let mut count = 0u64;
                let per = trials / 8;
                for i in 0..per {
                    let mut rng = Pcg64::new(child_seed(r.seed, (chunk * per + i) as u64 ^ 0xab6));
                    let src = alive_nodes[rng.index(alive_nodes.len())];
                    let obj = rng.index(placement.num_objects()) as u32;
                    let holders = surviving_holders(placement.holders(obj), &overlay.alive);
                    let spec = FloodSpec::new(3);
                    let rec = &mut NoopRecorder;
                    let res = engine
                        .run(&overlay.graph, src, &holders, None, &spec, rec)
                        .0
                        .at(3);
                    successes += res.found as u64;
                    reached += res.reached as u64;
                    count += 1;
                }
                (successes, reached, count)
            });
            let (s, reach, c) = results
                .iter()
                .fold((0, 0, 0), |(a, b, d), &(x, y, z)| (a + x, b + y, d + z));
            let success = s as f64 / c.max(1) as f64;
            let reach_frac = reach as f64 / c.max(1) as f64 / n as f64;
            t.row([
                model.to_string(),
                fnum(frac, 2),
                fnum(success, 4),
                fnum(reach_frac, 4),
            ]);
            let _ = writeln!(
                out,
                "{model} churn {frac}: success {}, reach {}",
                percent(success),
                percent(reach_frac)
            );
        }
    }
    r.write_csv("ablation_churn", &t);
    format!(
        "== A6 — flood under churn (TTL 3, zipf placement) ==\n{}\n{out}Targeted loss of ultrapeers collapses reach (and with it the residual success) far faster than random departures — the fragility the paper's companion work on fault-tolerant overlays addresses.\n",
        t.to_text()
    )
}

/// A7 — structured substrates compared: Chord (base-2 fingers) vs Pastry
/// (base-16 prefix routing) mean lookup hops across network sizes. Both
/// are `O(log n)`; the base governs the constant — context for the T3
/// hybrid-vs-DHT cost accounting.
pub fn structured(r: &Repro) -> String {
    use qcp_core::dht::{ChordNetwork, PastryNetwork};
    use qcp_core::util::hash::mix64;
    use qcp_core::util::rng::Pcg64;

    let sizes: &[usize] = match r.scale {
        Scale::Test => &[256, 1_024, 4_096],
        _ => &[1_024, 4_096, 16_384, 40_000],
    };
    let samples = (r.trials / 2).max(200);
    let mut t = Table::new([
        "nodes",
        "chord_mean_hops",
        "pastry_mean_hops",
        "log2(n)",
        "log16(n)",
    ]);
    let mut out = String::new();
    for &n in sizes {
        let chord = ChordNetwork::new(n, r.seed);
        let pastry = PastryNetwork::new(n, r.seed);
        let mut rng = Pcg64::new(r.seed ^ 0x57c);
        let mut c_total = 0u64;
        let mut p_total = 0u64;
        for k in 0..samples {
            let key = mix64(r.seed ^ k as u64);
            let from = rng.index(n) as u32;
            c_total += chord.lookup(from, key).hops as u64;
            p_total += pastry.route(from, key).hops as u64;
        }
        let c = c_total as f64 / samples as f64;
        let p = p_total as f64 / samples as f64;
        t.row([
            n.to_string(),
            fnum(c, 2),
            fnum(p, 2),
            fnum((n as f64).log2(), 1),
            fnum((n as f64).log2() / 4.0, 1),
        ]);
        let _ = writeln!(out, "n={n}: chord {c:.2} hops, pastry {p:.2} hops");
    }
    r.write_csv("ablation_structured", &t);
    format!(
        "== A7 — structured routing: Chord vs Pastry mean lookup hops ==\n{}\n{out}Both scale logarithmically; Pastry's base-16 digits cut the constant ~4x at the cost of 16x the routing state per row.\n",
        t.to_text()
    )
}

/// A8 — adaptation dynamics: the query-popular head *shifts* mid-trace.
/// A synopsis overlay that keeps observing adapts; one trained once and
/// frozen decays to content-centric performance. This is the paper's
/// "react to the observed temporal changes in query term popularity"
/// claim, exercised end to end.
pub fn adaptation(r: &Repro) -> String {
    use qcp_core::search::world::QuerySpec;
    use qcp_core::util::rng::Pcg64;
    use qcp_core::zipf::ZipfMandelbrot;

    let world = SearchWorld::generate(&ablation_world_config(r));
    let head = world.head_size;
    let budget = 12;
    let ttl = 40;
    let n_train = r.trials * 2;
    let n_test = (r.trials / 2).max(100);

    // Phase-A workload: anchors from the standard query head (ranks
    // [0, head)); phase-B workload: the popular head rotates to ranks
    // [head, 2*head) — yesterday's mid-tail is today's hot set.
    let make_queries = |offset: usize, n: usize, seed: u64| -> Vec<QuerySpec> {
        let zipf = ZipfMandelbrot::new(head * 4, 1.05, 15.0);
        let mut rng = Pcg64::new(seed);
        (0..n)
            .map(|_| {
                let rank = offset + zipf.sample_index(&mut rng) % head;
                let anchor = world.query_ranking[rank];
                let mut terms = vec![anchor];
                if let Some(posting) = world.postings.get(&anchor) {
                    let obj = posting[rng.index(posting.len())];
                    let obj_terms = &world.object_terms[obj as usize];
                    let extra = obj_terms[rng.index(obj_terms.len())];
                    if !terms.contains(&extra) {
                        terms.push(extra);
                    }
                }
                terms.sort_unstable();
                QuerySpec {
                    terms,
                    source: rng.index(world.num_peers()) as u32,
                }
            })
            .collect()
    };

    let train_a = make_queries(0, n_train, r.seed ^ 0xa0);
    let train_b = make_queries(head, n_train, r.seed ^ 0xb0);
    let test_b = make_queries(head, n_test, r.seed ^ 0xb1);

    // All three systems see phase A first.
    let mut adaptive = SynopsisSearch::new(&world, SynopsisPolicy::QueryCentric, budget, ttl);
    adaptive.observe_queries(&world, &train_a, 0.5);
    let mut frozen = SynopsisSearch::new(&world, SynopsisPolicy::QueryCentric, budget, ttl);
    frozen.observe_queries(&world, &train_a, 0.5);
    let mut content = SynopsisSearch::new(&world, SynopsisPolicy::ContentCentric, budget, ttl);

    // The shift happens; only the adaptive system keeps observing.
    adaptive.observe_queries(&world, &train_b, 0.3);

    let rows = evaluate(
        &world,
        &mut [&mut adaptive, &mut frozen, &mut content],
        &test_b,
        r.seed ^ 0xe7,
    );
    let mut t = Table::new(["system", "phase_b_success", "mean_messages"]);
    let labels = [
        "adaptive (re-observed)",
        "frozen (trained pre-shift)",
        "content-centric",
    ];
    let mut out = String::new();
    for (label, row) in labels.iter().zip(&rows) {
        t.row([
            label.to_string(),
            percent(row.success_rate),
            fnum(row.mean_messages, 1),
        ]);
        let _ = writeln!(out, "{label}: {}", percent(row.success_rate));
    }
    r.write_csv("ablation_adaptation", &t);
    format!(
        "== A8 — adaptation to a query-popularity shift ==\n{}\n{out}After the popular head rotates, the frozen synopsis advertises yesterday's terms; only continued observation keeps the query-centric advantage.\n",
        t.to_text()
    )
}
