//! Oracle tests for the shared Figures 1–7 passes.
//!
//! The analyzer reads each trace string once: one [`QueryTerms`] pass
//! feeds every [`IntervalIndex`], one grouping by name feeds Figures 1
//! and 2, and one [`file_term_peer_counts`] table feeds Figure 3 and the
//! popular file terms. Each pass is checked here against the per-stage
//! loop it replaced (kept verbatim as an oracle) and against the public
//! per-stage entry points, on generated traces and on arbitrary records.

use proptest::prelude::*;
use qcp_analysis::mismatch::popular_file_terms;
use qcp_analysis::{
    file_term_peer_counts, IntervalIndex, PopularFileTerms, PopularityRule, QueryTerms,
    ReplicationAnalysis, TermReplicationAnalysis,
};
use qcp_terms::{sanitize_name, tokenize, TermDict};
use qcp_tracegen::{
    Crawl, CrawlConfig, QueryTrace, QueryTraceConfig, Vocabulary, VocabularyConfig,
};
use qcp_util::{FxHashMap, FxHashSet, Symbol};
use qcp_zipf::{fit_tail_mle, TailFit};

/// A small generated crawl and query trace. The queries are reordered
/// (inputs need not be sorted) and a few land past the trace end.
fn traces(seed: u64) -> (Crawl, Vec<(u32, String)>, u32) {
    let vocab = Vocabulary::generate(&VocabularyConfig {
        num_terms: 1_500,
        head_size: 60,
        seed,
        ..Default::default()
    });
    let crawl = Crawl::generate(
        &vocab,
        &CrawlConfig {
            num_peers: 60,
            num_objects: 400,
            seed: seed ^ 1,
            ..Default::default()
        },
    );
    let trace = QueryTrace::generate(
        &vocab,
        &QueryTraceConfig {
            duration_secs: 20_000,
            num_queries: 2_000,
            core_size: 60,
            seed: seed ^ 2,
            ..Default::default()
        },
    );
    let mut queries: Vec<(u32, String)> = trace
        .queries
        .iter()
        .map(|q| (q.time, q.text.clone()))
        .collect();
    let n = queries.len();
    for i in (0..n).step_by(3) {
        queries.swap(i, (i * 7 + 11) % n);
    }
    queries.push((trace.duration_secs, "zzlatequery".into()));
    queries.push((trace.duration_secs + 500, "zzlaterstill mp3".into()));
    (crawl, queries, trace.duration_secs)
}

fn crawl_records(crawl: &Crawl) -> impl Iterator<Item = (u32, &str)> {
    crawl.files.iter().map(|f| (f.peer, f.name.as_str()))
}

fn borrowed(v: &[(u32, String)]) -> impl Iterator<Item = (u32, &str)> {
    v.iter().map(|(x, s)| (*x, s.as_str()))
}

/// An index as `(start, queries, terms, sorted term counts)` per interval.
type Flat = Vec<(u32, u64, u64, Vec<(Symbol, u32)>)>;

/// The per-interval index build that `from_terms` replaced: every build
/// tokenizes every in-range record again.
fn oracle_build(
    records: &[(u32, String)],
    duration_secs: u32,
    interval_secs: u32,
    dict: &mut TermDict,
) -> Flat {
    let n_intervals = duration_secs.div_ceil(interval_secs) as usize;
    let mut intervals: Vec<(u32, u64, u64, FxHashMap<Symbol, u32>)> = (0..n_intervals)
        .map(|i| (i as u32 * interval_secs, 0, 0, FxHashMap::default()))
        .collect();
    for (time, text) in records {
        if *time >= duration_secs {
            continue;
        }
        let iv = &mut intervals[(time / interval_secs) as usize];
        iv.1 += 1;
        for term in tokenize(text) {
            let sym = dict.observe(&term);
            *iv.3.entry(sym).or_insert(0) += 1;
            iv.2 += 1;
        }
    }
    intervals
        .into_iter()
        .map(|(start, q, t, counts)| (start, q, t, sorted(&counts)))
        .collect()
}

fn sorted(counts: &FxHashMap<Symbol, u32>) -> Vec<(Symbol, u32)> {
    let mut v: Vec<(Symbol, u32)> = counts.iter().map(|(&s, &c)| (s, c)).collect();
    v.sort_unstable();
    v
}

fn flatten(idx: &IntervalIndex) -> Flat {
    idx.intervals
        .iter()
        .map(|iv| (iv.start, iv.num_queries, iv.total_terms, sorted(&iv.counts)))
        .collect()
}

/// Every term of `dict` in symbol order, with its occurrence count.
fn dict_contents(dict: &TermDict) -> Vec<(String, u64)> {
    (0..dict.len() as u32)
        .map(|i| {
            let sym = Symbol(i);
            (dict.resolve(sym).to_string(), dict.occurrences(sym))
        })
        .collect()
}

/// The grouping by owned name that `raw_and_sanitized` replaced.
fn oracle_replication(records: &[(u32, String)], canonicalize: fn(&str) -> String) -> String {
    let mut by_name: FxHashMap<String, FxHashSet<u32>> = FxHashMap::default();
    for (peer, name) in records {
        by_name.entry(canonicalize(name)).or_default().insert(*peer);
    }
    let mut counts: Vec<u32> = by_name.values().map(|s| s.len() as u32).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    format!(
        "{} {} {:?} {:?}",
        records.len(),
        counts.len(),
        counts,
        oracle_tail(&counts)
    )
}

/// The analysis crate's tail fit: NaN below 10 counts, else the MLE.
fn oracle_tail(counts: &[u32]) -> TailFit {
    if counts.len() < 10 {
        return TailFit {
            exponent: f64::NAN,
            goodness: f64::NAN,
            n_used: counts.len(),
        };
    }
    let values: Vec<u64> = counts.iter().map(|&c| u64::from(c)).collect();
    fit_tail_mle(&values, 1)
}

fn summarize(a: &ReplicationAnalysis) -> String {
    format!(
        "{} {} {:?} {:?}",
        a.total_copies, a.unique_objects, a.counts_desc, a.tail
    )
}

/// The two separate term passes that `file_term_peer_counts` replaced:
/// Figure 3's owned-term map and the popular-file-term symbol map.
fn oracle_terms(
    records: &[(u32, String)],
    rule: PopularityRule,
    dict: &mut TermDict,
) -> (Vec<u32>, Vec<Symbol>, usize) {
    let mut by_term: FxHashMap<String, FxHashSet<u32>> = FxHashMap::default();
    for (peer, name) in records {
        for term in tokenize(name) {
            by_term.entry(term).or_default().insert(*peer);
        }
    }
    let mut fig3: Vec<u32> = by_term.values().map(|s| s.len() as u32).collect();
    fig3.sort_unstable_by(|a, b| b.cmp(a));

    let mut peer_sets: FxHashMap<Symbol, FxHashSet<u32>> = FxHashMap::default();
    for (peer, name) in records {
        for term in tokenize(name) {
            let sym = dict.intern(&term);
            peer_sets.entry(sym).or_default().insert(*peer);
        }
    }
    let counts: FxHashMap<Symbol, u32> = peer_sets
        .iter()
        .map(|(&s, peers)| (s, peers.len() as u32))
        .collect();
    let total: u64 = counts.values().map(|&c| c as u64).sum();
    (fig3, rule.extract(&counts, total), counts.len())
}

const INTERVALS: [u32; 6] = [1_800, 3_600, 7, 1_000, 7_001, 50_000];

/// One `QueryTerms` pass gives, for every interval, the index that a
/// per-interval build gives, symbol for symbol, after the same crawl
/// interning; and its dictionary matches the build's term for term.
fn check_intervals(
    crawl: &[(u32, String)],
    queries: &[(u32, String)],
    duration: u32,
) -> Result<(), TestCaseError> {
    let mut shared = TermDict::new();
    let mut oracle = TermDict::new();
    let mut built = TermDict::new();
    for dict in [&mut shared, &mut oracle, &mut built] {
        file_term_peer_counts(borrowed(crawl), dict);
    }
    let terms = QueryTerms::observe(borrowed(queries), duration, &mut shared);
    let in_range = queries.iter().filter(|(t, _)| *t < duration).count();
    prop_assert_eq!(terms.len(), in_range);
    prop_assert_eq!(terms.duration_secs(), duration);
    let mut first = true;
    for interval in INTERVALS {
        let expected = oracle_build(queries, duration, interval, &mut oracle);
        let wrapper = IntervalIndex::build(borrowed(queries), duration, interval, &mut built);
        let idx = IntervalIndex::from_terms(&terms, interval);
        prop_assert_eq!(idx.interval_secs, interval);
        prop_assert_eq!(&flatten(&idx), &expected, "interval {}", interval);
        prop_assert_eq!(&flatten(&wrapper), &expected, "interval {}", interval);
        prop_assert_eq!(idx.total_queries(), in_range as u64);
        if first {
            // After one build each, the dictionaries agree symbol for
            // symbol, occurrence counts included.
            prop_assert_eq!(dict_contents(&shared), dict_contents(&oracle));
            prop_assert_eq!(dict_contents(&built), dict_contents(&oracle));
            first = false;
        }
    }
    prop_assert_eq!(shared.len(), oracle.len());
    Ok(())
}

fn check_crawl(num_peers: u32, crawl: &[(u32, String)]) -> Result<(), TestCaseError> {
    let (raw, san) = ReplicationAnalysis::raw_and_sanitized(num_peers, borrowed(crawl));
    let raw_oracle = oracle_replication(crawl, |n| n.to_string());
    let san_oracle = oracle_replication(crawl, sanitize_name);
    prop_assert_eq!(summarize(&raw), raw_oracle);
    prop_assert_eq!(summarize(&san), san_oracle);
    prop_assert_eq!(
        format!("{raw:?}"),
        format!(
            "{:?}",
            ReplicationAnalysis::from_names(num_peers, borrowed(crawl))
        )
    );
    prop_assert_eq!(
        format!("{san:?}"),
        format!(
            "{:?}",
            ReplicationAnalysis::from_sanitized_names(num_peers, borrowed(crawl))
        )
    );

    for rule in [
        PopularityRule::TopK(5),
        PopularityRule::MinCount(2),
        PopularityRule::FractionOfTotal(0.01),
    ] {
        let mut dict = TermDict::new();
        dict.intern("preinterned");
        let peers = file_term_peer_counts(borrowed(crawl), &mut dict);
        prop_assert_eq!(peers.len(), dict.len());
        let fig3 = TermReplicationAnalysis::from_peer_counts(&peers);
        let popular = PopularFileTerms::from_peer_counts(&peers, rule);

        let mut oracle_dict = TermDict::new();
        oracle_dict.intern("preinterned");
        let (fig3_counts, oracle_popular, oracle_unique) =
            oracle_terms(crawl, rule, &mut oracle_dict);
        prop_assert_eq!(dict_contents(&dict), dict_contents(&oracle_dict));
        prop_assert_eq!(&fig3.counts_desc, &fig3_counts);
        prop_assert_eq!(&popular.popular, &oracle_popular);
        prop_assert_eq!(popular.unique_terms, oracle_unique);
        prop_assert_eq!(popular.unique_terms, fig3.unique_terms);

        let wrapper_fig3 = TermReplicationAnalysis::from_names(borrowed(crawl));
        prop_assert_eq!(format!("{fig3:?}"), format!("{wrapper_fig3:?}"));
        let mut wrapper_dict = TermDict::new();
        wrapper_dict.intern("preinterned");
        let wrapper = popular_file_terms(borrowed(crawl), rule, &mut wrapper_dict);
        prop_assert_eq!(format!("{popular:?}"), format!("{wrapper:?}"));
    }
    Ok(())
}

#[test]
fn shared_passes_match_the_per_stage_loops_on_generated_traces() {
    for seed in [3, 401] {
        let (crawl, queries, duration) = traces(seed);
        let crawl_owned: Vec<(u32, String)> = crawl_records(&crawl)
            .map(|(p, n)| (p, n.to_string()))
            .collect();
        check_crawl(crawl.num_peers, &crawl_owned).unwrap();
        check_intervals(&crawl_owned, &queries, duration).unwrap();
        let mut dict = TermDict::new();
        QueryTerms::observe(borrowed(&queries), duration, &mut dict);
        assert_eq!(dict.get("zzlatequery"), None);
        assert_eq!(dict.get("zzlaterstill"), None);
    }
}

#[test]
fn out_of_range_queries_are_not_interned() {
    let mut dict = TermDict::new();
    let terms = QueryTerms::observe(
        [(5u32, "early bird"), (100, "late owl"), (99, "bird owl")],
        100,
        &mut dict,
    );
    assert_eq!(terms.len(), 2);
    assert_eq!(dict.get("late"), None);
    let owl = dict.get("owl").unwrap();
    assert_eq!(dict.occurrences(owl), 1);
    let seen: Vec<(u32, Vec<&str>)> = terms
        .iter()
        .map(|(t, syms)| (t, syms.iter().map(|&s| dict.resolve(s)).collect()))
        .collect();
    assert_eq!(
        seen,
        vec![(5, vec!["early", "bird"]), (99, vec!["bird", "owl"])]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary records: few peers and a small alphabet so raw names,
    /// sanitized names and terms collide often.
    #[test]
    fn shared_passes_match_the_per_stage_loops(
        crawl in proptest::collection::vec((0u32..6, "[a-cA-C .-]{0,10}"), 0..60),
        crawl_unicode in proptest::collection::vec((0u32..6, ".{0,12}"), 0..20),
        queries in proptest::collection::vec((0u32..200, "[a-dA-D 1]{0,9}"), 0..80),
        duration in 1u32..180,
    ) {
        let mut crawl = crawl;
        crawl.extend(crawl_unicode);
        check_crawl(8, &crawl)?;
        check_intervals(&crawl, &queries, duration)?;
    }
}
