//! Query-string-level analysis.
//!
//! Section IV works at the *term* level; this module adds the query-string
//! view of the same trace (distinct query strings, repeat fraction, string
//! popularity distribution, terms per query) — the statistics measurement
//! studies of Gnutella query streams conventionally report, and useful
//! sanity checks on any generated workload.

use crate::replication::fit_tail;
use qcp_util::FxHashMap;
use qcp_zipf::TailFit;

/// Summary of a query stream at string granularity.
#[derive(Debug, Clone)]
pub struct QueryStringAnalysis {
    /// Total queries.
    pub total_queries: usize,
    /// Distinct query strings (after whitespace trimming).
    pub distinct_queries: usize,
    /// Fraction of queries that are repeats of an earlier string.
    pub repeat_fraction: f64,
    /// Occurrence counts per distinct string, descending.
    pub counts_desc: Vec<u32>,
    /// Power-law fit of the counts.
    pub tail: TailFit,
    /// Mean whitespace-separated terms per query.
    pub mean_terms_per_query: f64,
    /// Maximum terms seen in one query.
    pub max_terms_per_query: usize,
}

impl QueryStringAnalysis {
    /// Analyzes an iterator of query strings.
    pub fn from_queries<'a, I>(queries: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut counts: FxHashMap<&'a str, u32> = FxHashMap::default();
        let mut total = 0usize;
        let mut term_total = 0u64;
        let mut max_terms = 0usize;
        for q in queries {
            let q = q.trim();
            total += 1;
            *counts.entry(q).or_insert(0) += 1;
            let terms = q.split_whitespace().count();
            term_total += terms as u64;
            max_terms = max_terms.max(terms);
        }
        let distinct = counts.len();
        // qcplint: allow(unordered-iter) — plain counts are collected and
        // then fully sorted; duplicates are indistinguishable, so hash
        // order cannot reach the output.
        let mut counts_desc: Vec<u32> = counts.into_values().collect();
        counts_desc.sort_unstable_by(|a, b| b.cmp(a));
        let tail = fit_tail(&counts_desc);
        Self {
            total_queries: total,
            distinct_queries: distinct,
            repeat_fraction: if total == 0 {
                0.0
            } else {
                (total - distinct) as f64 / total as f64
            },
            counts_desc,
            tail,
            mean_terms_per_query: if total == 0 {
                0.0
            } else {
                term_total as f64 / total as f64
            },
            max_terms_per_query: max_terms,
        }
    }

    /// Fraction of distinct query strings issued exactly once.
    pub fn singleton_fraction(&self) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let singles = self.counts_desc.iter().filter(|&&c| c == 1).count();
        singles as f64 / self.counts_desc.len() as f64
    }

    /// `(rank, count)` plotting series.
    pub fn rank_series(&self, max_points: usize) -> Vec<(u64, u64)> {
        qcp_util::hist::logspace_ranks(self.counts_desc.len(), max_points)
            .into_iter()
            .map(|r| (r as u64 + 1, self.counts_desc[r] as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_distinct_and_repeats() {
        let a = QueryStringAnalysis::from_queries(
            ["madonna", "madonna", "nirvana teen", "madonna "]
                .iter()
                .copied(),
        );
        assert_eq!(a.total_queries, 4);
        // Trimmed: "madonna" x3 + "nirvana teen".
        assert_eq!(a.distinct_queries, 2);
        assert!((a.repeat_fraction - 0.5).abs() < 1e-12);
        assert_eq!(a.counts_desc, vec![3, 1]);
        assert!((a.singleton_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn term_statistics() {
        let a = QueryStringAnalysis::from_queries(["one", "two words", "three word query"]);
        assert!((a.mean_terms_per_query - 2.0).abs() < 1e-12);
        assert_eq!(a.max_terms_per_query, 3);
    }

    #[test]
    fn empty_stream_is_safe() {
        let a = QueryStringAnalysis::from_queries(std::iter::empty::<&str>());
        assert_eq!(a.total_queries, 0);
        assert_eq!(a.repeat_fraction, 0.0);
        assert_eq!(a.mean_terms_per_query, 0.0);
        assert!(a.rank_series(5).is_empty());
    }

    #[test]
    fn rank_series_descends() {
        let a = QueryStringAnalysis::from_queries(["a", "a", "a", "b", "b", "c"]);
        assert_eq!(a.rank_series(10), vec![(1, 3), (2, 2), (3, 1)]);
    }
}
