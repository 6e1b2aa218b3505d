//! iTunes annotation analysis (Figure 4).
//!
//! For each annotation field (song name, genre, album, artist) the paper
//! plots the number of clients holding each distinct value, and reports the
//! missing-value and singleton fractions. This module computes all of that
//! for any `(client, value)` stream; empty values are the "missing
//! annotation" convention (8.7% of songs had no genre, 8.1% no album).

use crate::replication::fit_tail;
use qcp_util::{FxHashMap, FxHashSet};
use qcp_zipf::TailFit;

/// Distribution of one annotation field across clients.
#[derive(Debug, Clone)]
pub struct AnnotationAnalysis {
    /// Field name (for reports).
    pub field: String,
    /// Total records seen (including missing).
    pub total_records: usize,
    /// Records with an empty value.
    pub missing_records: usize,
    /// Number of distinct non-empty values.
    pub unique_values: usize,
    /// Distinct-client count per value, descending.
    pub counts_desc: Vec<u32>,
    /// Power-law tail fit of the counts.
    pub tail: TailFit,
}

impl AnnotationAnalysis {
    /// Builds the distribution from `(client, value)` records.
    pub fn from_records<'a, I>(field: &str, records: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let mut by_value: FxHashMap<&'a str, FxHashSet<u32>> = FxHashMap::default();
        let mut total = 0usize;
        let mut missing = 0usize;
        for (client, value) in records {
            total += 1;
            if value.is_empty() {
                missing += 1;
                continue;
            }
            by_value.entry(value).or_default().insert(client);
        }
        // qcplint: allow(unordered-iter) — plain counts are collected and
        // then fully sorted; duplicates are indistinguishable, so hash
        // order cannot reach the output.
        let mut counts_desc: Vec<u32> = by_value.values().map(|s| s.len() as u32).collect();
        counts_desc.sort_unstable_by(|a, b| b.cmp(a));
        let tail = fit_tail(&counts_desc);
        Self {
            field: field.to_string(),
            total_records: total,
            missing_records: missing,
            unique_values: counts_desc.len(),
            counts_desc,
            tail,
        }
    }

    /// Fraction of records with a missing (empty) value.
    pub fn missing_fraction(&self) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.missing_records as f64 / self.total_records as f64
    }

    /// Fraction of distinct values held by exactly one client.
    pub fn singleton_fraction(&self) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let singles = self.counts_desc.iter().filter(|&&c| c == 1).count();
        singles as f64 / self.counts_desc.len() as f64
    }

    /// `(rank, count)` plotting series (1-based ranks, log-spaced).
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
    fn counts_distinct_clients_per_value() {
        let recs = vec![
            (1u32, "Rock"),
            (2, "Rock"),
            (2, "Rock"), // same client twice: counts once
            (3, "Jazz"),
            (1, ""),
        ];
        let a = AnnotationAnalysis::from_records("genre", recs);
        assert_eq!(a.total_records, 5);
        assert_eq!(a.missing_records, 1);
        assert_eq!(a.unique_values, 2);
        assert_eq!(a.counts_desc, vec![2, 1]);
        assert!((a.missing_fraction() - 0.2).abs() < 1e-12);
        assert!((a.singleton_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_missing_is_safe() {
        let recs = vec![(1u32, ""), (2, "")];
        let a = AnnotationAnalysis::from_records("album", recs);
        assert_eq!(a.unique_values, 0);
        assert_eq!(a.missing_fraction(), 1.0);
        assert_eq!(a.singleton_fraction(), 0.0);
    }

    #[test]
    fn empty_stream_is_safe() {
        let a = AnnotationAnalysis::from_records("artist", std::iter::empty());
        assert_eq!(a.total_records, 0);
        assert_eq!(a.missing_fraction(), 0.0);
        assert!(a.rank_series(5).is_empty());
    }

    #[test]
    fn values_are_case_sensitive_annotations() {
        // Unlike name terms, annotations compare verbatim (iTunes shows
        // "rock" and "Rock" as different genres).
        let recs = vec![(1u32, "rock"), (2, "Rock")];
        let a = AnnotationAnalysis::from_records("genre", recs);
        assert_eq!(a.unique_values, 2);
    }

    #[test]
    fn rank_series_descends() {
        let recs: Vec<(u32, &str)> =
            vec![(1, "a"), (2, "a"), (3, "a"), (1, "b"), (2, "b"), (1, "c")];
        let a = AnnotationAnalysis::from_records("f", recs);
        let series = a.rank_series(10);
        assert_eq!(series, vec![(1, 3), (2, 2), (3, 1)]);
    }
}
