//! The end-to-end analyzer: traces in, Findings out.

use crate::config::AnalyzerConfig;
use crate::findings::{Figure4Findings, Findings};
use qcp_analysis::{
    file_term_peer_counts, mismatch, stability, transient, AnnotationAnalysis, CrawlSummary,
    IntervalIndex, PopularFileTerms, QuerySummary, QueryTerms, ReplicationAnalysis,
    TermReplicationAnalysis,
};
use qcp_terms::TermDict;
use qcp_tracegen::{Crawl, ItunesTrace, QueryTrace, Vocabulary};

/// Runs the paper's full measurement pipeline over synthetic traces.
///
/// The analyzer generates the traces itself (there are no real ones to
/// load — see DESIGN.md §4) and then feeds *only strings, timestamps and
/// peer ids* into the `qcp-analysis` pipeline, exactly as the original
/// study fed its crawler and Phex logs.
#[derive(Debug)]
pub struct QueryCentricAnalyzer {
    config: AnalyzerConfig,
}

impl QueryCentricAnalyzer {
    /// Creates an analyzer.
    pub fn new(config: AnalyzerConfig) -> Self {
        Self { config }
    }

    /// Generates traces and computes every figure and summary.
    pub fn run(&self) -> Findings {
        let vocab = Vocabulary::generate(&self.config.vocab);
        let crawl = Crawl::generate(&vocab, &self.config.crawl);
        let itunes = ItunesTrace::generate(&vocab, &self.config.itunes);
        let queries = QueryTrace::generate(&vocab, &self.config.queries);
        self.analyze(&crawl, &itunes, &queries)
    }

    /// Analyzes externally supplied traces (the path a user with real
    /// crawl/query data would take).
    pub fn analyze(&self, crawl: &Crawl, itunes: &ItunesTrace, queries: &QueryTrace) -> Findings {
        // --- Figures 1-3: crawl-side distributions --------------------
        // Each crawl string is read once: one grouping by name for
        // Figures 1 and 2, and one term pass for Figure 3 and the popular
        // file terms of Figure 7. That pass interns the crawl terms into
        // the dictionary the queries share (the Figure 7 Jaccard needs
        // one symbol space), before any query term.
        let records = || crawl.files.iter().map(|f| (f.peer, f.name.as_str()));
        let (fig1, fig2) = ReplicationAnalysis::raw_and_sanitized(crawl.num_peers, records());
        let mut dict = TermDict::new();
        let file_peers = file_term_peer_counts(records(), &mut dict);
        let fig3 = TermReplicationAnalysis::from_peer_counts(&file_peers);
        let popular_files = PopularFileTerms::from_peer_counts(&file_peers, self.config.popularity);
        drop(file_peers);

        // --- Figure 4: iTunes annotations ------------------------------
        let songs = AnnotationAnalysis::from_records(
            "song",
            itunes
                .shares
                .iter()
                .flat_map(|s| s.songs.iter().map(move |r| (s.client, r.name.as_str()))),
        );
        let genres = AnnotationAnalysis::from_records(
            "genre",
            itunes
                .shares
                .iter()
                .flat_map(|s| s.songs.iter().map(move |r| (s.client, r.genre.as_str()))),
        );
        let albums = AnnotationAnalysis::from_records(
            "album",
            itunes
                .shares
                .iter()
                .flat_map(|s| s.songs.iter().map(move |r| (s.client, r.album.as_str()))),
        );
        let artists = AnnotationAnalysis::from_records(
            "artist",
            itunes
                .shares
                .iter()
                .flat_map(|s| s.songs.iter().map(move |r| (s.client, r.artist.as_str()))),
        );
        let fig4 = Figure4Findings {
            songs,
            genres,
            albums,
            artists,
            total_songs: itunes.total_songs(),
            num_clients: itunes.num_clients(),
        };

        // --- Figures 5-7: query-side temporal analysis ------------------
        // Every query is tokenized once; each interval index is built from
        // the same symbols when its turn comes and dropped after use. The
        // headline index (Figures 6 and 7) also serves Figure 5 when the
        // sweep includes its interval.
        let query_terms = QueryTerms::observe(
            queries.queries.iter().map(|q| (q.time, q.text.as_str())),
            queries.duration_secs,
            &mut dict,
        );
        drop(dict);
        let headline = self.config.headline_interval;
        let detect =
            |idx: &IntervalIndex| transient::detect_transients(idx, &self.config.transient);
        let mut headline_idx = None;
        let mut fig5 = Vec::with_capacity(self.config.fig5_intervals.len());
        for &interval in &self.config.fig5_intervals {
            fig5.push(if interval == headline {
                detect(
                    headline_idx
                        .get_or_insert_with(|| IntervalIndex::from_terms(&query_terms, headline)),
                )
            } else {
                detect(&IntervalIndex::from_terms(&query_terms, interval))
            });
        }
        let headline_idx =
            headline_idx.unwrap_or_else(|| IntervalIndex::from_terms(&query_terms, headline));
        drop(query_terms);

        let fig6 = stability::popular_stability(&headline_idx, self.config.popularity);
        let fig7 =
            mismatch::query_file_mismatch(&headline_idx, &popular_files, self.config.popularity);

        // --- Summaries --------------------------------------------------
        let crawl_summary = CrawlSummary::build(&fig1, &fig2, &fig3);
        let warmup = (fig6.jaccards.len() / 10).max(3);
        let headline_transients = fig5.last();
        let query_summary = QuerySummary {
            total_queries: headline_idx.total_queries(),
            duration_secs: queries.duration_secs,
            interval_secs: self.config.headline_interval,
            stability_after_warmup: fig6.mean_after_warmup(warmup),
            mean_popular_mismatch: fig7.mean_popular_similarity(),
            max_popular_mismatch: fig7.max_popular_similarity(),
            mean_transients: headline_transients.map(|s| s.mean()).unwrap_or(0.0),
            transient_variance: headline_transients.map(|s| s.variance()).unwrap_or(0.0),
        };

        Findings {
            fig1,
            fig2,
            fig3,
            fig4,
            fig5,
            fig6,
            fig7,
            crawl: crawl_summary,
            query: query_summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_analysis::{MismatchSeries, StabilitySeries, TransientSeries};

    fn findings() -> Findings {
        QueryCentricAnalyzer::new(AnalyzerConfig::test_scale().with_seed(2024)).run()
    }

    #[test]
    fn pipeline_reproduces_zipf_long_tail() {
        let f = findings();
        // Paper: ~70% singletons; generator calibrated to the same band.
        assert!(
            (0.55..0.90).contains(&f.crawl.singleton_fraction_raw),
            "singleton {}",
            f.crawl.singleton_fraction_raw
        );
        // Paper: >= 99% of objects on <= 37 peers (its absolute 0.1%
        // threshold; scale-independent because the replica law is).
        assert!(
            f.crawl.at_most_37_peers > 0.98,
            "at most 37 peers: {}",
            f.crawl.at_most_37_peers
        );
    }

    #[test]
    fn sanitization_reduces_unique_objects() {
        let f = findings();
        assert!(f.crawl.unique_objects_sanitized <= f.crawl.unique_objects_raw);
        // Noise inflates raw uniques above the 8k ground-truth objects;
        // sanitization recovers part (case/punct) but not misspellings.
        assert!(f.crawl.unique_objects_sanitized > 8_000 / 2);
    }

    #[test]
    fn loo_rare_rule_holds() {
        let f = findings();
        // Paper: fewer than 4% of objects on >= 20 peers.
        assert!(
            f.crawl.at_least_20_peers < 0.05,
            "at least 20 peers: {}",
            f.crawl.at_least_20_peers
        );
    }

    #[test]
    fn popular_query_terms_are_stable() {
        let f = findings();
        assert!(
            f.query.stability_after_warmup > 0.80,
            "stability {}",
            f.query.stability_after_warmup
        );
    }

    #[test]
    fn query_file_mismatch_is_low() {
        let f = findings();
        assert!(
            f.query.mean_popular_mismatch < 0.35,
            "mismatch {}",
            f.query.mean_popular_mismatch
        );
        // And strictly positive: the heads do overlap somewhat.
        assert!(f.query.mean_popular_mismatch > 0.0);
        // Mismatch is far below stability: the sets are stable but wrong.
        assert!(f.query.stability_after_warmup > 2.0 * f.query.mean_popular_mismatch);
    }

    #[test]
    fn transients_present_with_low_mean() {
        let f = findings();
        let total_flagged: u32 = f.fig5.iter().flat_map(|s| s.counts.iter()).sum();
        assert!(total_flagged > 0, "bursts must be detected");
        for s in &f.fig5 {
            assert!(s.mean() < 20.0, "mean transients {}", s.mean());
        }
    }

    #[test]
    fn itunes_fractions_match_calibration() {
        let f = findings();
        assert!((0.04..0.14).contains(&f.fig4.genres.missing_fraction()));
        assert!((0.04..0.13).contains(&f.fig4.albums.missing_fraction()));
        assert!(f.fig4.songs.singleton_fraction() > 0.4);
        assert_eq!(f.fig4.num_clients, 60);
    }

    #[test]
    fn determinism_end_to_end() {
        let a = findings();
        let b = findings();
        assert_eq!(a.crawl.unique_objects_raw, b.crawl.unique_objects_raw);
        assert_eq!(a.query.total_queries, b.query.total_queries);
        assert!((a.query.stability_after_warmup - b.query.stability_after_warmup).abs() < 1e-12);
    }

    #[test]
    fn anchors_table_renders() {
        let f = findings();
        let t = f.anchors_table();
        assert_eq!(t.len(), 11);
        let text = t.to_text();
        assert!(text.contains("70.5%"));
        assert!(text.contains("measured"));
    }

    /// `analyze()` rebuilt stage by stage from the public per-stage entry
    /// points, each tokenizing its own input: the path a caller timing
    /// one stage at a time takes.
    fn staged(
        c: &AnalyzerConfig,
        crawl: &Crawl,
        queries: &QueryTrace,
    ) -> (
        CrawlSummary,
        QuerySummary,
        Vec<TransientSeries>,
        StabilitySeries,
        MismatchSeries,
    ) {
        let records = || crawl.files.iter().map(|f| (f.peer, f.name.as_str()));
        let fig1 = ReplicationAnalysis::from_names(crawl.num_peers, records());
        let fig2 = ReplicationAnalysis::from_sanitized_names(crawl.num_peers, records());
        let fig3 = TermReplicationAnalysis::from_names(records());
        let mut dict = TermDict::new();
        let popular_files = mismatch::popular_file_terms(records(), c.popularity, &mut dict);
        let query_records = || queries.queries.iter().map(|q| (q.time, q.text.as_str()));
        let fig5: Vec<TransientSeries> = c
            .fig5_intervals
            .iter()
            .map(|&interval| {
                let idx = IntervalIndex::build(
                    query_records(),
                    queries.duration_secs,
                    interval,
                    &mut dict,
                );
                transient::detect_transients(&idx, &c.transient)
            })
            .collect();
        let headline = IntervalIndex::build(
            query_records(),
            queries.duration_secs,
            c.headline_interval,
            &mut dict,
        );
        let fig6 = stability::popular_stability(&headline, c.popularity);
        let fig7 = mismatch::query_file_mismatch(&headline, &popular_files, c.popularity);
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
        (
            CrawlSummary::build(&fig1, &fig2, &fig3),
            query,
            fig5,
            fig6,
            fig7,
        )
    }

    #[test]
    fn staged_stages_equal_analyze() {
        let mut shared = AnalyzerConfig::test_scale().with_seed(401);
        shared.vocab.num_terms = 1_500;
        shared.crawl.num_peers = 60;
        shared.crawl.num_objects = 400;
        shared.itunes.num_clients = 4;
        shared.itunes.catalog_songs = 300;
        shared.itunes.catalog_artists = 60;
        shared.queries.num_queries = 2_500;
        // The headline interval is in the Figure 5 sweep (one shared
        // index) in the first config and not in the second.
        let mut separate = shared.clone().with_seed(7);
        separate.fig5_intervals = vec![900, 2_700];
        separate.headline_interval = 1_800;
        for c in [shared, separate] {
            let vocab = Vocabulary::generate(&c.vocab);
            let crawl = Crawl::generate(&vocab, &c.crawl);
            let itunes = ItunesTrace::generate(&vocab, &c.itunes);
            let queries = QueryTrace::generate(&vocab, &c.queries);
            let f = QueryCentricAnalyzer::new(c.clone()).analyze(&crawl, &itunes, &queries);
            let (crawl_summary, query_summary, fig5, fig6, fig7) = staged(&c, &crawl, &queries);
            assert_eq!(format!("{:?}", f.crawl), format!("{crawl_summary:?}"));
            assert_eq!(format!("{:?}", f.query), format!("{query_summary:?}"));
            assert_eq!(format!("{:?}", f.fig5), format!("{fig5:?}"));
            assert_eq!(format!("{:?}", f.fig6), format!("{fig6:?}"));
            assert_eq!(format!("{:?}", f.fig7), format!("{fig7:?}"));
            assert!(f.fig5.iter().any(|s| s.counts.iter().any(|&n| n > 0)));
        }
    }
}
