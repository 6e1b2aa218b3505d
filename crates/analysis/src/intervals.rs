//! Interval bucketing of query streams.
//!
//! Section IV of the paper evaluates query-term popularity "at various
//! evaluation intervals" (15/30/60/120 minutes). [`QueryTerms`] tokenizes
//! a timestamped query stream once through the shared [`TermDict`];
//! [`IntervalIndex`] buckets those symbols into fixed intervals and stores
//! per-interval term counts — the substrate for the transient (Fig 5),
//! stability (Fig 6) and mismatch (Fig 7) analyses. Every interval length
//! is built from the same [`QueryTerms`].

use qcp_terms::{for_each_token_with, TermDict, TokenizerConfig};
use qcp_util::{FxHashMap, Symbol};

/// The in-range queries of a trace as term symbols, in input order.
///
/// One pass tokenizes every query with the protocol tokenizer and
/// observes each term in the shared [`TermDict`] (so file terms and query
/// terms live in one symbol space). Query `i` has time `times[i]` and
/// terms `syms[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
pub struct QueryTerms {
    duration_secs: u32,
    times: Vec<u32>,
    offsets: Vec<usize>,
    syms: Vec<Symbol>,
}

impl QueryTerms {
    /// Tokenizes `(time, query_text)` records in input order. Records
    /// outside `[0, duration_secs)` are skipped before tokenizing, so
    /// their terms are never interned. Input need not be sorted.
    pub fn observe<'a, I>(records: I, duration_secs: u32, dict: &mut TermDict) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let mut terms = Self {
            duration_secs,
            times: Vec::new(),
            offsets: vec![0],
            syms: Vec::new(),
        };
        for (time, text) in records {
            if time >= duration_secs {
                continue;
            }
            terms.times.push(time);
            for_each_token_with(text, TokenizerConfig::default(), |term| {
                terms.syms.push(dict.observe(term));
            });
            terms.offsets.push(terms.syms.len());
        }
        terms
    }

    /// The trace duration in seconds (queries lie in `[0, duration)`).
    pub fn duration_secs(&self) -> u32 {
        self.duration_secs
    }

    /// Number of in-range queries.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no query fell in range.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// `(time, terms)` per query, in input order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Symbol])> {
        self.times
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&time, span)| (time, &self.syms[span[0]..span[1]]))
    }
}

/// Term counts for one evaluation interval.
#[derive(Debug, Clone, Default)]
pub struct IntervalCounts {
    /// Interval start, seconds since trace start.
    pub start: u32,
    /// Occurrences per term within the interval.
    pub counts: FxHashMap<Symbol, u32>,
    /// Total term occurrences in the interval.
    pub total_terms: u64,
    /// Number of queries in the interval.
    pub num_queries: u64,
}

/// A query stream bucketed into fixed evaluation intervals.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// Interval length in seconds.
    pub interval_secs: u32,
    /// Buckets in time order, covering `[0, duration)` exactly.
    pub intervals: Vec<IntervalCounts>,
}

impl IntervalIndex {
    /// Buckets `(time, query_text)` records: [`QueryTerms::observe`]
    /// then [`IntervalIndex::from_terms`]. Queries are tokenized with the
    /// protocol tokenizer and interned into `dict` (shared across analyses
    /// so file terms and query terms live in one symbol space).
    ///
    /// Records outside `[0, duration_secs)` are ignored. Input need not be
    /// sorted.
    pub fn build<'a, I>(
        records: I,
        duration_secs: u32,
        interval_secs: u32,
        dict: &mut TermDict,
    ) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        Self::from_terms(
            &QueryTerms::observe(records, duration_secs, dict),
            interval_secs,
        )
    }

    /// Buckets an already tokenized query stream into `interval_secs`
    /// intervals covering `[0, terms.duration_secs())`.
    pub fn from_terms(terms: &QueryTerms, interval_secs: u32) -> Self {
        let duration_secs = terms.duration_secs();
        assert!(interval_secs > 0 && duration_secs > 0);
        let n_intervals = duration_secs.div_ceil(interval_secs) as usize;
        let mut intervals: Vec<IntervalCounts> = (0..n_intervals)
            .map(|i| IntervalCounts {
                start: i as u32 * interval_secs,
                ..Default::default()
            })
            .collect();
        for (time, syms) in terms.iter() {
            let iv = &mut intervals[(time / interval_secs) as usize];
            iv.num_queries += 1;
            iv.total_terms += syms.len() as u64;
            for &sym in syms {
                *iv.counts.entry(sym).or_insert(0) += 1;
            }
        }
        Self {
            interval_secs,
            intervals,
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when there are no intervals (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total queries across all intervals.
    pub fn total_queries(&self) -> u64 {
        self.intervals.iter().map(|iv| iv.num_queries).sum()
    }

    /// All distinct terms observed in an interval, sorted (the paper's
    /// `Q_t`).
    pub fn terms_in(&self, interval: usize) -> Vec<Symbol> {
        // qcplint: allow(unordered-iter) — keys are collected and fully
        // sorted on the next line; hash order cannot reach the output.
        let mut v: Vec<Symbol> = self.intervals[interval].counts.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_index(
        records: &[(u32, &str)],
        duration: u32,
        interval: u32,
    ) -> (IntervalIndex, TermDict) {
        let mut dict = TermDict::new();
        let idx = IntervalIndex::build(records.iter().copied(), duration, interval, &mut dict);
        (idx, dict)
    }

    #[test]
    fn buckets_by_time() {
        let recs = [
            (0u32, "madonna prayer"),
            (59, "madonna"),
            (60, "nirvana"),
            (150, "nirvana teen"),
        ];
        let (idx, dict) = build_index(&recs, 180, 60);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.intervals[0].num_queries, 2);
        assert_eq!(idx.intervals[1].num_queries, 1);
        assert_eq!(idx.intervals[2].num_queries, 1);
        let madonna = dict.get("madonna").unwrap();
        assert_eq!(idx.intervals[0].counts[&madonna], 2);
        assert!(!idx.intervals[1].counts.contains_key(&madonna));
    }

    #[test]
    fn covers_duration_with_partial_last_interval() {
        let (idx, _) = build_index(&[(99, "x1 y1")], 100, 60);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.intervals[1].num_queries, 1);
    }

    #[test]
    fn out_of_range_records_ignored() {
        let (idx, _) = build_index(&[(500, "late query")], 100, 50);
        assert_eq!(idx.total_queries(), 0);
    }

    #[test]
    fn term_counts_accumulate_within_interval() {
        let recs = [(0u32, "love song"), (1, "love story"), (2, "love")];
        let (idx, dict) = build_index(&recs, 60, 60);
        let love = dict.get("love").unwrap();
        assert_eq!(idx.intervals[0].counts[&love], 3);
        assert_eq!(idx.intervals[0].total_terms, 5);
    }

    #[test]
    fn terms_in_returns_sorted_distinct() {
        let recs = [(0u32, "zz aa zz mm")];
        let (idx, _) = build_index(&recs, 60, 60);
        let terms = idx.terms_in(0);
        assert_eq!(terms.len(), 3);
        assert!(terms.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unsorted_input_is_accepted() {
        let recs = [(150u32, "late"), (0, "early")];
        let (idx, _) = build_index(&recs, 180, 60);
        assert_eq!(idx.intervals[0].num_queries, 1);
        assert_eq!(idx.intervals[2].num_queries, 1);
    }

    #[test]
    fn shared_dict_across_indices_aligns_symbols() {
        let mut dict = TermDict::new();
        let a = IntervalIndex::build([(0u32, "common term")], 60, 60, &mut dict);
        let b = IntervalIndex::build([(0u32, "common other")], 60, 60, &mut dict);
        let common = dict.get("common").unwrap();
        assert!(a.intervals[0].counts.contains_key(&common));
        assert!(b.intervals[0].counts.contains_key(&common));
    }
}
