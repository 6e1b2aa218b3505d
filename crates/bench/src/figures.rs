//! One regeneration function per paper figure/table.
//!
//! Each function writes the figure's data series as CSV under the
//! session's output directory and returns a human-readable report with an
//! ASCII rendering plus the paper-vs-measured anchor values.

use crate::{rank_table, Repro, Scale};
use qcp_core::overlay::topology::{gnutella_two_tier, TopologyConfig};
use qcp_core::overlay::{sweep_ttl, Placement, PlacementModel, SimConfig};
use qcp_core::util::plot::{render, PlotConfig, Series};
use qcp_core::util::table::{fnum, percent};
use qcp_core::util::Table;
use qcp_core::xpar::Pool;
use std::fmt::Write as _;

/// Figure 1: number of clients with each object (raw names).
pub fn fig1(r: &Repro) -> String {
    let f = r.findings();
    let series = f.fig1.rank_series(400);
    r.write_csv("fig1", &rank_table(&series, "clients_with_object"));
    let mut out = String::new();
    let pts: Vec<(f64, f64)> = series.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
    out.push_str(&render(
        &PlotConfig::loglog(
            "Fig 1 — Gnutella clients with object (raw names)",
            "object rank",
            "clients",
        ),
        &[Series::new("objects", pts)],
    ));
    let _ = writeln!(
        out,
        "unique objects: {} (copies: {}); singletons: {} (paper 70.5%); <=37 peers: {} (paper 99.5%); tail exponent {:.2}",
        f.fig1.unique_objects,
        f.fig1.total_copies,
        percent(f.fig1.singleton_fraction()),
        percent(f.fig1.fraction_at_most(37)),
        f.fig1.tail.exponent,
    );
    out
}

/// Figure 2: same distribution after name sanitization.
pub fn fig2(r: &Repro) -> String {
    let f = r.findings();
    let series = f.fig2.rank_series(400);
    r.write_csv("fig2", &rank_table(&series, "clients_with_object"));
    let mut out = String::new();
    let pts: Vec<(f64, f64)> = series.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
    out.push_str(&render(
        &PlotConfig::loglog(
            "Fig 2 — clients with object (sanitized names)",
            "object rank",
            "clients",
        ),
        &[Series::new("objects", pts)],
    ));
    let _ = writeln!(
        out,
        "unique after sanitization: {} (raw {}); singletons {} (paper 69.8%); <=37 peers {} (paper 99.4%)",
        f.fig2.unique_objects,
        f.fig1.unique_objects,
        percent(f.fig2.singleton_fraction()),
        percent(f.fig2.fraction_at_most(37)),
    );
    out
}

/// Figure 3: number of clients with each name term.
pub fn fig3(r: &Repro) -> String {
    let f = r.findings();
    let series = f.fig3.rank_series(400);
    r.write_csv("fig3", &rank_table(&series, "clients_with_term"));
    let mut out = String::new();
    let pts: Vec<(f64, f64)> = series.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
    out.push_str(&render(
        &PlotConfig::loglog("Fig 3 — clients with term", "term rank", "clients"),
        &[Series::new("terms", pts)],
    ));
    let _ = writeln!(
        out,
        "unique terms: {} (paper 1.22M at full scale); single-peer terms {} (paper 71.3%); <=37 peers {} (paper 98.3%)",
        f.fig3.unique_terms,
        percent(f.fig3.singleton_fraction()),
        percent(f.fig3.fraction_at_most(37)),
    );
    out
}

/// Figure 4: iTunes annotation distributions (song/genre/album/artist).
pub fn fig4(r: &Repro) -> String {
    let f = r.findings();
    let mut out = String::new();
    let panels = [
        ("fig4a_songs", "song", &f.fig4.songs),
        ("fig4b_genres", "genre", &f.fig4.genres),
        ("fig4c_albums", "album", &f.fig4.albums),
        ("fig4d_artists", "artist", &f.fig4.artists),
    ];
    for (file, label, analysis) in panels {
        let series = analysis.rank_series(300);
        r.write_csv(file, &rank_table(&series, "clients_with_value"));
        let pts: Vec<(f64, f64)> = series.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        out.push_str(&render(
            &PlotConfig::loglog(
                &format!("Fig 4 — iTunes clients with {label}"),
                &format!("{label} rank"),
                "clients",
            ),
            &[Series::new(label, pts)],
        ));
        let _ = writeln!(
            out,
            "{label}: {} unique, singleton {}, missing {}",
            analysis.unique_values,
            percent(analysis.singleton_fraction()),
            percent(analysis.missing_fraction()),
        );
    }
    let _ = writeln!(
        out,
        "clients: {} (paper 239), total songs {} (paper 533,768)",
        f.fig4.num_clients, f.fig4.total_songs
    );
    let _ = writeln!(
        out,
        "paper anchors: songs 64% singleton; genres 56% singleton / 8.7% missing; albums 65.7% / 8.1% missing; artists 65% singleton"
    );
    out
}

/// Figure 5: transiently popular terms over time per evaluation interval.
pub fn fig5(r: &Repro) -> String {
    let f = r.findings();
    let mut table = Table::new(["interval_secs", "interval_index", "transient_terms"]);
    let mut all_series = Vec::new();
    for s in &f.fig5 {
        let pts: Vec<(f64, f64)> = s
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (((s.first_evaluated + i) as f64), c as f64))
            .collect();
        for (i, &c) in s.counts.iter().enumerate() {
            table.row_fmt([
                s.interval_secs as u64,
                (s.first_evaluated + i) as u64,
                c as u64,
            ]);
        }
        all_series.push(Series::new(format!("{}s", s.interval_secs), pts));
    }
    r.write_csv("fig5", &table);
    let mut out = render(
        &PlotConfig::linear(
            "Fig 5 — transiently popular terms vs time",
            "interval index",
            "transient terms",
        ),
        &all_series,
    );
    for s in &f.fig5 {
        let _ = writeln!(
            out,
            "interval {:>5}s: mean {:.2} transient terms, variance {:.2} (paper: low mean, high variance)",
            s.interval_secs,
            s.mean(),
            s.variance(),
        );
    }
    out
}

/// Figure 6: Jaccard stability of the popular query-term set.
pub fn fig6(r: &Repro) -> String {
    let f = r.findings();
    let mut table = Table::new(["interval_index", "jaccard"]);
    let pts: Vec<(f64, f64)> = f
        .fig6
        .jaccards
        .iter()
        .enumerate()
        .map(|(i, &j)| {
            table.row_fmt([format!("{}", i + 1), fnum(j, 4)]);
            ((i + 1) as f64, j)
        })
        .collect();
    r.write_csv("fig6", &table);
    let mut out = render(
        &PlotConfig::linear(
            "Fig 6 — popular-set stability (Jaccard, consecutive intervals)",
            "interval",
            "jaccard",
        ),
        &[Series::new("stability", pts)],
    );
    let warm = (f.fig6.jaccards.len() / 10).max(3);
    let _ = writeln!(
        out,
        "mean after warm-up: {} (paper > 90%); min after warm-up {}",
        percent(f.fig6.mean_after_warmup(warm)),
        percent(f.fig6.min_after_warmup(warm)),
    );
    out
}

/// Figure 7: query-term vs popular-file-term similarity over time.
pub fn fig7(r: &Repro) -> String {
    let f = r.findings();
    let mut table = Table::new([
        "interval_index",
        "all_terms_vs_popular_files",
        "popular_vs_popular_files",
    ]);
    let mut all_pts = Vec::new();
    let mut pop_pts = Vec::new();
    for (i, (&a, &p)) in f
        .fig7
        .all_terms_vs_popular_files
        .iter()
        .zip(&f.fig7.popular_vs_popular_files)
        .enumerate()
    {
        table.row_fmt([format!("{i}"), fnum(a, 4), fnum(p, 4)]);
        all_pts.push((i as f64, a));
        pop_pts.push((i as f64, p));
    }
    r.write_csv("fig7", &table);
    let mut out = render(
        &PlotConfig::linear(
            "Fig 7 — query terms vs popular file terms (Jaccard)",
            "interval",
            "jaccard",
        ),
        &[
            Series::new("interval terms vs popular file terms", all_pts),
            Series::new("popular vs popular", pop_pts),
        ],
    );
    let _ = writeln!(
        out,
        "mean popular-vs-popular similarity: {} (paper ~15%, < 20% everywhere); max {}",
        percent(f.fig7.mean_popular_similarity()),
        percent(f.fig7.max_popular_similarity()),
    );
    out
}

/// Parameters of the Figure 8 network, shared with the benches.
pub fn fig8_topology(scale: Scale) -> TopologyConfig {
    TopologyConfig {
        num_nodes: match scale {
            Scale::Test => 4_000,
            _ => 40_000,
        },
        // Defaults calibrated against the paper's reach anchors: TTL 4
        // reaches ~24% and TTL 5 ~83% of a 40,000-node network (paper:
        // 26.25% and 82.95%).
        ..Default::default()
    }
}

/// Figure 8: flood success rate vs TTL under uniform and Zipf placement.
pub fn fig8(r: &Repro) -> String {
    let topo_cfg = fig8_topology(r.scale);
    let topo = gnutella_two_tier(&topo_cfg);
    let forwarders = topo.forwarders();
    let n = topo.graph.num_nodes() as u32;
    let num_objects = (n / 2).max(1_000);
    let pool = Pool::global();
    let ttls = [1u32, 2, 3, 4, 5];
    let sim = SimConfig {
        trials: r.trials,
        seed: r.seed,
        ..Default::default()
    };

    let mut table = Table::new([
        "series",
        "ttl",
        "success_rate",
        "mean_reach_fraction",
        "mean_messages",
    ]);
    let mut plot_series = Vec::new();
    let mut out = String::new();

    // Uniform placements: the paper's 1/4/9/19/39 replicas.
    for &k in &[1u32, 4, 9, 19, 39] {
        let placement = Placement::generate(
            PlacementModel::UniformK(k),
            n,
            num_objects,
            r.seed ^ k as u64,
        );
        let curve = sweep_ttl(
            pool,
            &topo.graph,
            &placement,
            Some(&forwarders),
            &ttls,
            &sim,
        );
        let label = format!("uniform-{k}");
        let pts: Vec<(f64, f64)> = curve
            .iter()
            .map(|p| (p.ttl as f64, p.success_rate.max(1e-4)))
            .collect();
        for p in &curve {
            table.row([
                label.clone(),
                p.ttl.to_string(),
                fnum(p.success_rate, 5),
                fnum(p.mean_reach_fraction, 5),
                fnum(p.mean_messages, 1),
            ]);
        }
        plot_series.push(Series::new(label, pts));
    }

    // Zipf placement calibrated to the paper's mean of ~5 replicas
    // (tau = 2.05 on [1, 40000] gives mean 5.5).
    let zipf_placement = Placement::generate(
        PlacementModel::ZipfReplicas { tau: 2.05 },
        n,
        num_objects,
        r.seed ^ 0x21f,
    );
    let zipf_curve = sweep_ttl(
        pool,
        &topo.graph,
        &zipf_placement,
        Some(&forwarders),
        &ttls,
        &sim,
    );
    let pts: Vec<(f64, f64)> = zipf_curve
        .iter()
        .map(|p| (p.ttl as f64, p.success_rate.max(1e-4)))
        .collect();
    for p in &zipf_curve {
        table.row([
            "zipf".to_string(),
            p.ttl.to_string(),
            fnum(p.success_rate, 5),
            fnum(p.mean_reach_fraction, 5),
            fnum(p.mean_messages, 1),
        ]);
    }
    plot_series.push(Series::new(
        format!("zipf (mean {:.1} replicas)", zipf_placement.mean_replicas()),
        pts,
    ));
    r.write_csv("fig8", &table);

    out.push_str(&render(
        &PlotConfig {
            title: "Fig 8 — flood success rate vs TTL".into(),
            x_label: "TTL".into(),
            y_label: "success rate (log)".into(),
            x_scale: qcp_core::util::plot::Scale::Linear,
            y_scale: qcp_core::util::plot::Scale::Log,
            ..Default::default()
        },
        &plot_series,
    ));
    let ttl3 = &zipf_curve[2];
    let ttl5 = &zipf_curve[4];
    let _ = writeln!(
        out,
        "reach: ttl3 {} ({} nodes), ttl4 {} (paper 26.25%), ttl5 {} (paper 82.95%)",
        percent(zipf_curve[2].mean_reach_fraction),
        fnum(zipf_curve[2].mean_reach_fraction * n as f64, 0),
        percent(zipf_curve[3].mean_reach_fraction),
        percent(ttl5.mean_reach_fraction),
    );
    let _ = writeln!(
        out,
        "zipf success at ttl3: {} (paper ~5% vs 62% predicted for uniform 0.1%)",
        percent(ttl3.success_rate),
    );
    out
}

/// Virtual table T1: the §III in-text crawl claims.
pub fn table1(r: &Repro) -> String {
    let f = r.findings();
    let c = &f.crawl;
    let mut t = Table::new(["anchor", "paper", "measured"]);
    t.row(["peers".into(), "37,572".into(), c.num_peers.to_string()]);
    t.row([
        "total copies".into(),
        "12M".into(),
        c.total_copies.to_string(),
    ]);
    t.row([
        "unique objects (raw)".into(),
        "8.1M".into(),
        c.unique_objects_raw.to_string(),
    ]);
    t.row([
        "unique objects (sanitized)".into(),
        "7.9M".into(),
        c.unique_objects_sanitized.to_string(),
    ]);
    t.row([
        "singleton objects (raw)".into(),
        "70.5%".into(),
        percent(c.singleton_fraction_raw),
    ]);
    t.row([
        "singleton objects (sanitized)".into(),
        "69.8%".into(),
        percent(c.singleton_fraction_sanitized),
    ]);
    t.row([
        "objects on <= 37 peers".into(),
        "99.5%".into(),
        percent(c.at_most_37_peers),
    ]);
    t.row([
        "objects on >= 20 peers".into(),
        "< 4%".into(),
        percent(c.at_least_20_peers),
    ]);
    t.row([
        "unique terms".into(),
        "1.22M".into(),
        c.unique_terms.to_string(),
    ]);
    t.row([
        "single-peer terms".into(),
        "71.3%".into(),
        percent(c.term_singleton_fraction),
    ]);
    t.row([
        "replica tail exponent (MLE)".into(),
        "zipf-like".into(),
        fnum(c.replica_tail_exponent, 2),
    ]);
    r.write_csv("table1", &t);
    format!("== T1 — §III crawl anchors ==\n{}", t.to_text())
}

/// Virtual table T2: the §IV in-text query-trace claims.
pub fn table2(r: &Repro) -> String {
    let f = r.findings();
    let q = &f.query;
    let mut t = Table::new(["anchor", "paper", "measured"]);
    t.row([
        "queries in trace".into(),
        "2.5M/week".into(),
        format!("{}/{}d", q.total_queries, q.duration_secs / 86_400),
    ]);
    t.row([
        "popular-set stability (after warm-up)".into(),
        "> 90%".into(),
        percent(q.stability_after_warmup),
    ]);
    t.row([
        "popular query vs popular file terms".into(),
        "~15%, < 20%".into(),
        percent(q.mean_popular_mismatch),
    ]);
    t.row([
        "max popular-vs-popular similarity".into(),
        "< 20%".into(),
        percent(q.max_popular_mismatch),
    ]);
    t.row([
        "mean transient terms / interval".into(),
        "low (< 10)".into(),
        fnum(q.mean_transients, 2),
    ]);
    t.row([
        "transient count variance".into(),
        "significant".into(),
        fnum(q.transient_variance, 2),
    ]);
    r.write_csv("table2", &t);
    format!("== T2 — §IV query anchors ==\n{}", t.to_text())
}

/// Virtual table T3: hybrid vs pure-DHT comparison (§V implication).
pub fn table3(r: &Repro) -> String {
    use qcp_core::obs::{Event, Kernel, MetricsRecorder};
    use qcp_core::search::{
        evaluate, gen_queries, QrpFloodSearch, SearchSpec, SearchWorld, WorkloadConfig, WorldConfig,
    };

    let world = SearchWorld::generate(&WorldConfig {
        num_peers: match r.scale {
            Scale::Test => 800,
            _ => 4_000,
        },
        num_objects: match r.scale {
            Scale::Test => 6_000,
            _ => 40_000,
        },
        seed: r.seed ^ 0x7ab1e3,
        ..Default::default()
    });
    let queries = gen_queries(
        &world,
        &WorkloadConfig {
            num_queries: r.trials,
            seed: r.seed ^ 0x90e,
        },
    );
    let mut flood = SearchSpec::flood(3).build(&world);
    let mut qrp = QrpFloodSearch::new(&world, 3, 4096);
    let mut hybrid = SearchSpec::hybrid(3, 20, r.seed)
        .recorder(MetricsRecorder::new())
        .build(&world);
    let mut dht = SearchSpec::dht_only(r.seed).build(&world);
    let rows = evaluate(
        &world,
        &mut [&mut flood, &mut qrp, &mut hybrid, &mut dht],
        &queries,
        r.seed,
    );
    let mut t = Table::new([
        "system",
        "success_rate",
        "mean_messages",
        "mean_success_hops",
        "maintenance_messages",
    ]);
    for row in &rows {
        t.row([
            row.system.clone(),
            percent(row.success_rate),
            fnum(row.mean_messages, 1),
            fnum(row.mean_success_hops, 2),
            row.maintenance_messages.to_string(),
        ]);
    }
    r.write_csv("table3", &t);
    let hybrid_row = &rows[2];
    let dht_row = &rows[3];
    // One `Fallback` event per query the hybrid re-issued over the DHT.
    let fallbacks = hybrid
        .recorder()
        .event_count(Kernel::ChordLookup, Event::Fallback);
    let fallback_rate = fallbacks as f64 / hybrid_row.queries.max(1) as f64;
    format!(
        "== T3 — hybrid vs structured (§V) ==\n{}\nfallback rate: {} — hybrid pays {}x the per-query messages of pure DHT for the same coverage (paper: hybrid \"will likely perform worse than the corresponding structured P2P systems\")\n",
        t.to_text(),
        percent(fallback_rate),
        fnum(hybrid_row.mean_messages / dht_row.mean_messages.max(1e-9), 1),
    )
}
