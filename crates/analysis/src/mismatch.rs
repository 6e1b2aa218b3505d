//! Query-term ↔ file-term mismatch (Figure 7 and the §IV-C claim).
//!
//! The paper's central finding: both file-annotation terms and query terms
//! are Zipf, but they are *different* Zipfs — the popular sets overlap by
//! less than 20% (Jaccard), so a synopsis/replication strategy keyed to
//! what peers *store* barely helps the queries users actually *send*.

use crate::intervals::IntervalIndex;
use crate::popularity::PopularityRule;
use crate::replication::file_term_peer_counts;
use qcp_terms::TermDict;
use qcp_util::jaccard::jaccard_sorted;
use qcp_util::{FxHashMap, Symbol};

/// The popular *file* term set, extracted once from a crawl.
#[derive(Debug, Clone)]
pub struct PopularFileTerms {
    /// Sorted popular term symbols (`F*` in the paper).
    pub popular: Vec<Symbol>,
    /// Number of distinct file terms seen overall.
    pub unique_terms: usize,
}

impl PopularFileTerms {
    /// Cuts the popular set from a [`file_term_peer_counts`] table with
    /// `rule`; zero entries (symbols not in the crawl) are not file terms.
    pub fn from_peer_counts(peer_counts: &[u32], rule: PopularityRule) -> Self {
        let counts: FxHashMap<Symbol, u32> = peer_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (Symbol(s as u32), c))
            .collect();
        let total: u64 = peer_counts.iter().map(|&c| u64::from(c)).sum();
        Self {
            popular: rule.extract(&counts, total),
            unique_terms: counts.len(),
        }
    }
}

/// Extracts the popular file-term set from `(peer, name)` crawl records.
///
/// Popularity is measured as the number of *distinct peers* sharing at
/// least one file containing the term (matching Figure 3's x-axis), and
/// the set is cut with the same [`PopularityRule`] machinery used for
/// query terms.
pub fn popular_file_terms<'a, I>(
    records: I,
    rule: PopularityRule,
    dict: &mut TermDict,
) -> PopularFileTerms
where
    I: IntoIterator<Item = (u32, &'a str)>,
{
    PopularFileTerms::from_peer_counts(&file_term_peer_counts(records, dict), rule)
}

/// Figure 7 output.
#[derive(Debug, Clone)]
pub struct MismatchSeries {
    /// Interval length in seconds.
    pub interval_secs: u32,
    /// Per interval: `Jaccard(Q_t, F*)` — all interval query terms vs the
    /// popular file terms (the quantity Figure 7 plots).
    pub all_terms_vs_popular_files: Vec<f64>,
    /// Per interval: `Jaccard(Q*_t, F*)` — popular vs popular (the §IV-C
    /// "<20% similarity" claim).
    pub popular_vs_popular_files: Vec<f64>,
}

impl MismatchSeries {
    /// Mean of the popular-vs-popular series.
    pub fn mean_popular_similarity(&self) -> f64 {
        mean(&self.popular_vs_popular_files)
    }

    /// Mean of the all-terms-vs-popular series.
    pub fn mean_all_similarity(&self) -> f64 {
        mean(&self.all_terms_vs_popular_files)
    }

    /// Maximum popular-vs-popular similarity (the "<20%" headline compares
    /// against this worst case).
    pub fn max_popular_similarity(&self) -> f64 {
        self.popular_vs_popular_files
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Computes the Figure 7 series: the query index and the popular file set
/// must share the same `TermDict` symbol space.
pub fn query_file_mismatch(
    index: &IntervalIndex,
    files: &PopularFileTerms,
    rule: PopularityRule,
) -> MismatchSeries {
    let mut all_series = Vec::with_capacity(index.len());
    let mut pop_series = Vec::with_capacity(index.len());
    for (i, iv) in index.intervals.iter().enumerate() {
        let all_terms = index.terms_in(i);
        let popular_terms = rule.extract_interval(iv);
        all_series.push(jaccard_sorted(&all_terms, &files.popular));
        pop_series.push(jaccard_sorted(&popular_terms, &files.popular));
    }
    MismatchSeries {
        interval_secs: index.interval_secs,
        all_terms_vs_popular_files: all_series,
        popular_vs_popular_files: pop_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::IntervalIndex;

    #[test]
    fn popular_file_terms_counts_distinct_peers() {
        let mut dict = TermDict::new();
        let records = [
            (1u32, "madonna prayer"),
            (2, "madonna hits"),
            (3, "nirvana teen"),
        ];
        let f = popular_file_terms(
            records.iter().map(|(p, n)| (*p, *n)),
            PopularityRule::MinCount(2),
            &mut dict,
        );
        // Only "madonna" is on >= 2 peers.
        assert_eq!(f.popular.len(), 1);
        assert_eq!(f.popular[0], dict.get("madonna").unwrap());
        assert_eq!(f.unique_terms, 5);
    }

    #[test]
    fn identical_vocabularies_give_unit_similarity() {
        let mut dict = TermDict::new();
        let files = [(1u32, "alpha beta")];
        let f = popular_file_terms(
            files.iter().map(|(p, n)| (*p, *n)),
            PopularityRule::MinCount(1),
            &mut dict,
        );
        let idx = IntervalIndex::build([(0u32, "alpha beta")], 60, 60, &mut dict);
        let m = query_file_mismatch(&idx, &f, PopularityRule::TopK(10));
        assert_eq!(m.popular_vs_popular_files, vec![1.0]);
        assert_eq!(m.all_terms_vs_popular_files, vec![1.0]);
    }

    #[test]
    fn disjoint_vocabularies_give_zero_similarity() {
        let mut dict = TermDict::new();
        let files = [(1u32, "stored content")];
        let f = popular_file_terms(
            files.iter().map(|(p, n)| (*p, *n)),
            PopularityRule::MinCount(1),
            &mut dict,
        );
        let idx = IntervalIndex::build([(0u32, "wanted things")], 60, 60, &mut dict);
        let m = query_file_mismatch(&idx, &f, PopularityRule::TopK(10));
        assert_eq!(m.popular_vs_popular_files, vec![0.0]);
        assert_eq!(m.mean_popular_similarity(), 0.0);
    }

    #[test]
    fn partial_overlap_quantified() {
        let mut dict = TermDict::new();
        let files = [(1u32, "aa bb cc")];
        let f = popular_file_terms(
            files.iter().map(|(p, n)| (*p, *n)),
            PopularityRule::MinCount(1),
            &mut dict,
        );
        let idx = IntervalIndex::build([(0u32, "aa xx yy")], 60, 60, &mut dict);
        let m = query_file_mismatch(&idx, &f, PopularityRule::TopK(10));
        // {aa,xx,yy} vs {aa,bb,cc}: J = 1/5.
        assert!((m.popular_vs_popular_files[0] - 0.2).abs() < 1e-12);
        assert!((m.max_popular_similarity() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn series_lengths_match_intervals() {
        let mut dict = TermDict::new();
        let f = popular_file_terms([(1u32, "stored")], PopularityRule::MinCount(1), &mut dict);
        let idx = IntervalIndex::build(
            [(0u32, "q1 one"), (70, "q2 two"), (130, "q3 three")],
            180,
            60,
            &mut dict,
        );
        let m = query_file_mismatch(&idx, &f, PopularityRule::TopK(5));
        assert_eq!(m.all_terms_vs_popular_files.len(), 3);
        assert_eq!(m.popular_vs_popular_files.len(), 3);
    }
}
