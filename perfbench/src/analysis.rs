//! `trace-analysis`: the Figures 1–7 pipeline. Set-up generates the
//! vocabulary; one op generates a fresh crawl, iTunes trace and query
//! trace from it, then analyzes them.
//!
//! Untraced ops call `QueryCentricAnalyzer::analyze`. Traced ops run the
//! same stages one by one inside spans, and the check then requires the
//! stage-by-stage summaries to equal `analyze()`'s exactly.

use crate::metrics::{Digest, Metrics};
use crate::trace::Tracer;
use crate::{Ctx, Size, Workload};
use qcp_core::analysis::{
    mismatch, stability, transient, AnnotationAnalysis, CrawlSummary, IntervalIndex, QuerySummary,
    ReplicationAnalysis, TermReplicationAnalysis,
};
use qcp_core::terms::TermDict;
use qcp_core::tracegen::{Crawl, ItunesTrace, QueryTrace, Vocabulary};
use qcp_core::util::rng::child_seed;
use qcp_core::{AnalyzerConfig, QueryCentricAnalyzer};

const OP_TAG: u64 = 0xd0_0001;

/// The test-scale analyzer shape, shrunk so one op takes tens of ms.
fn config(size: Size) -> AnalyzerConfig {
    let mut c = AnalyzerConfig::test_scale();
    let k = match size {
        Size::Full => 1,
        Size::Tiny => 4,
    };
    c.vocab.num_terms = 4_000 / k;
    c.crawl.num_peers = 200 / k as u32;
    c.crawl.num_objects = 1_000 / k as u32;
    c.itunes.num_clients = 10;
    c.itunes.catalog_songs = 1_000 / k as u32;
    c.itunes.catalog_artists = 200;
    c.queries.num_queries = 6_000 / k;
    c
}

pub struct TraceAnalysis {
    seed: u64,
    size: Size,
    vocab: Vocabulary,
}

/// One op's traces and the summaries computed from them.
pub struct AnalysisOut {
    crawl: Crawl,
    itunes: ItunesTrace,
    queries: QueryTrace,
    analyzer: QueryCentricAnalyzer,
    crawl_summary: CrawlSummary,
    query_summary: QuerySummary,
    /// Every Jaccard value of Figures 6 and 7.
    jaccards: Vec<f64>,
    /// Whether the summaries came from the stage-by-stage path.
    staged: bool,
    records: u64,
    dict_terms: u64,
}

/// `analyze()`, stage by stage, with each stage in a span.
fn staged(
    c: &AnalyzerConfig,
    crawl: &Crawl,
    itunes: &ItunesTrace,
    queries: &QueryTrace,
    tr: &mut Tracer,
) -> (CrawlSummary, QuerySummary, Vec<f64>, u64) {
    let records = || crawl.files.iter().map(|f| (f.peer, f.name.as_str()));
    let (fig1, fig2, fig3) = tr.span("analysis:replication", |_| {
        (
            ReplicationAnalysis::from_names(crawl.num_peers, records()),
            ReplicationAnalysis::from_sanitized_names(crawl.num_peers, records()),
            TermReplicationAnalysis::from_names(records()),
        )
    });
    tr.span("analysis:annotations", |_| {
        let field = |name: &str, pick: fn(&qcp_core::tracegen::SongRecord) -> &str| {
            AnnotationAnalysis::from_records(
                name,
                itunes
                    .shares
                    .iter()
                    .flat_map(move |s| s.songs.iter().map(move |r| (s.client, pick(r)))),
            )
        };
        [
            field("song", |r| r.name.as_str()),
            field("genre", |r| r.genre.as_str()),
            field("album", |r| r.album.as_str()),
            field("artist", |r| r.artist.as_str()),
        ]
    });
    let mut dict = TermDict::new();
    let popular_files = tr.span("analysis:file_terms", |_| {
        mismatch::popular_file_terms(records(), c.popularity, &mut dict)
    });
    let query_records = || queries.queries.iter().map(|q| (q.time, q.text.as_str()));
    let mut fig5 = Vec::new();
    for &interval in &c.fig5_intervals {
        let idx = tr.span("analysis:intervals", |_| {
            IntervalIndex::build(query_records(), queries.duration_secs, interval, &mut dict)
        });
        fig5.push(tr.span("analysis:transient", |_| {
            transient::detect_transients(&idx, &c.transient)
        }));
    }
    let headline = tr.span("analysis:intervals", |_| {
        IntervalIndex::build(
            query_records(),
            queries.duration_secs,
            c.headline_interval,
            &mut dict,
        )
    });
    let fig6 = tr.span("analysis:stability", |_| {
        stability::popular_stability(&headline, c.popularity)
    });
    let fig7 = tr.span("analysis:mismatch", |_| {
        mismatch::query_file_mismatch(&headline, &popular_files, c.popularity)
    });
    let warmup = (fig6.jaccards.len() / 10).max(3);
    let last = fig5.last();
    let query = QuerySummary {
        total_queries: headline.total_queries(),
        duration_secs: queries.duration_secs,
        interval_secs: c.headline_interval,
        stability_after_warmup: fig6.mean_after_warmup(warmup),
        mean_popular_mismatch: fig7.mean_popular_similarity(),
        max_popular_mismatch: fig7.max_popular_similarity(),
        mean_transients: last.map_or(0.0, |s| s.mean()),
        transient_variance: last.map_or(0.0, |s| s.variance()),
    };
    let mut jaccards = fig6.jaccards;
    jaccards.extend(&fig7.all_terms_vs_popular_files);
    jaccards.extend(&fig7.popular_vs_popular_files);
    (
        CrawlSummary::build(&fig1, &fig2, &fig3),
        query,
        jaccards,
        dict.len() as u64,
    )
}

impl Workload for TraceAnalysis {
    type Out = AnalysisOut;

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let c = config(ctx.size).with_seed(ctx.seed);
        Self {
            seed: ctx.seed,
            size: ctx.size,
            vocab: tr.span("tracegen:vocab", |_| Vocabulary::generate(&c.vocab)),
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> AnalysisOut {
        let c = config(self.size).with_seed(child_seed(self.seed ^ OP_TAG, i));
        let vocab = &self.vocab;
        let crawl = tr.span("tracegen:crawl", |_| Crawl::generate(vocab, &c.crawl));
        let itunes = tr.span("tracegen:itunes", |_| {
            ItunesTrace::generate(vocab, &c.itunes)
        });
        let queries = tr.span("tracegen:queries", |_| {
            QueryTrace::generate(vocab, &c.queries)
        });
        let records = (crawl.files.len() + itunes.total_songs() + queries.queries.len()) as u64;
        let (crawl_summary, query_summary, jaccards, dict_terms, is_staged) = if tr.is_on() {
            let (cs, qs, j, d) = staged(&c, &crawl, &itunes, &queries, tr);
            (cs, qs, j, d, true)
        } else {
            let f = QueryCentricAnalyzer::new(c.clone()).analyze(&crawl, &itunes, &queries);
            let mut j = f.fig6.jaccards;
            j.extend(&f.fig7.all_terms_vs_popular_files);
            j.extend(&f.fig7.popular_vs_popular_files);
            (f.crawl, f.query, j, 0, false)
        };
        AnalysisOut {
            crawl,
            itunes,
            queries,
            analyzer: QueryCentricAnalyzer::new(c),
            crawl_summary,
            query_summary,
            jaccards,
            staged: is_staged,
            records,
            dict_terms,
        }
    }

    fn check(&mut self, _i: u64, out: &AnalysisOut, tr: &mut Tracer) -> Vec<String> {
        let mut v = Vec::new();
        let singletons = out.crawl_summary.singleton_fraction_raw;
        if singletons.is_nan() || singletons <= 0.5 {
            v.push(format!("crawl singleton fraction {singletons} <= 0.5"));
        }
        if let Some(j) = out.jaccards.iter().find(|j| !(0.0..=1.0).contains(*j)) {
            v.push(format!("Jaccard {j} outside [0, 1]"));
        }
        if out.staged {
            let f = out.analyzer.analyze(&out.crawl, &out.itunes, &out.queries);
            if format!("{:?}", f.crawl) != format!("{:?}", out.crawl_summary) {
                v.push("stage-by-stage crawl summary differs from analyze()".into());
            }
            if format!("{:?}", f.query) != format!("{:?}", out.query_summary) {
                v.push("stage-by-stage query summary differs from analyze()".into());
            }
        }
        tr.count("tracegen.records", out.records as f64);
        tr.count(
            "analysis.queries_indexed",
            out.query_summary.total_queries as f64,
        );
        tr.count("analysis.dict_terms", out.dict_terms as f64);
        v
    }

    fn corrupt(out: &mut AnalysisOut) {
        out.crawl_summary.singleton_fraction_raw = 0.25;
    }

    fn digest(out: &AnalysisOut, d: &mut Digest) {
        let (c, q) = (&out.crawl_summary, &out.query_summary);
        for x in [
            c.total_copies,
            c.unique_objects_raw,
            c.unique_objects_sanitized,
            c.unique_terms,
        ] {
            d.u64(x as u64);
        }
        for x in [
            c.singleton_fraction_raw,
            c.singleton_fraction_sanitized,
            c.at_most_37_peers,
            q.stability_after_warmup,
            q.mean_popular_mismatch,
            q.max_popular_mismatch,
            q.mean_transients,
            q.transient_variance,
        ] {
            d.f64(x);
        }
        d.u64(q.total_queries);
    }

    fn layer_metrics(&self, _tr: &Tracer, m: &mut Metrics) {
        let gen_s =
            m.get("tracegen.crawl_s") + m.get("tracegen.itunes_s") + m.get("tracegen.queries_s");
        m.set(
            "tracegen.records_per_s",
            m.get("tracegen.records") / gen_s.max(1e-12),
            "1/s",
        );
    }
}
