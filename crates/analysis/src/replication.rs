//! Object- and term-level replication analysis (Figures 1–3).
//!
//! "Replicas were defined as files with identical names" (§III-A). The
//! analysis therefore groups crawl records by name (raw or sanitized) and
//! counts, per distinct name, the number of *distinct peers* sharing it;
//! the descending count series is the Figure 1/2 rank plot. Figure 3 does
//! the same per *term* after protocol tokenization.
//!
//! Each crawl string is read once: one grouping by raw name serves both
//! Figures 1 and 2 ([`ReplicationAnalysis::raw_and_sanitized`]), and one
//! [`file_term_peer_counts`] pass serves Figure 3 and the popular file
//! terms of Figure 7.

use qcp_terms::{for_each_token_with, sanitize_into, TermDict, TokenizerConfig};
use qcp_util::FxHashMap;
use qcp_zipf::{fit_tail_mle, TailFit};

/// Crawl records grouped by raw name; the names are borrowed.
struct NameGroups<'a> {
    /// Records seen (file copies).
    total: usize,
    /// Distinct raw names, in first-occurrence order.
    names: Vec<&'a str>,
    /// Distinct `(name index, peer)` pairs, sorted, packed by [`pack`].
    pairs: Vec<u64>,
}

fn pack(group: u32, peer: u32) -> u64 {
    u64::from(group) << 32 | u64::from(peer)
}

impl<'a> NameGroups<'a> {
    fn group<I>(records: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let mut index: FxHashMap<&'a str, u32> = FxHashMap::default();
        let mut names = Vec::new();
        let mut pairs = Vec::new();
        for (peer, name) in records {
            let group = *index.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() as u32 - 1
            });
            pairs.push(pack(group, peer));
        }
        let total = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        Self {
            total,
            names,
            pairs,
        }
    }

    /// The same records grouped by sanitized name. Each distinct raw name
    /// is sanitized once and its peers join its sanitized group; a union
    /// of peer sets does not depend on order, so this equals grouping the
    /// records by their sanitized names.
    fn sanitized_pairs(&self) -> Vec<u64> {
        let mut index: FxHashMap<String, u32> = FxHashMap::default();
        let mut buf = String::new();
        let group_of: Vec<u32> = self
            .names
            .iter()
            .map(|name| {
                sanitize_into(name, &mut buf);
                if let Some(&group) = index.get(buf.as_str()) {
                    return group;
                }
                let group = index.len() as u32;
                index.insert(buf.clone(), group);
                group
            })
            .collect();
        let mut pairs: Vec<u64> = self
            .pairs
            .iter()
            .map(|&p| pack(group_of[(p >> 32) as usize], p as u32))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Distinct peers per group of sorted, distinct packed pairs, descending.
fn counts_desc(pairs: &[u64]) -> Vec<u32> {
    let mut counts: Vec<u32> = pairs
        .chunk_by(|a, b| a >> 32 == b >> 32)
        .map(|run| run.len() as u32)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

/// Distinct-peer count per term of the `(peer, name)` crawl records,
/// indexed by symbol: one pass tokenizes every name and interns its terms
/// into `dict` (without counting occurrences). The table has `dict.len()`
/// entries; symbols the crawl never used count zero.
pub fn file_term_peer_counts<'a, I>(records: I, dict: &mut TermDict) -> Vec<u32>
where
    I: IntoIterator<Item = (u32, &'a str)>,
{
    // `(term, peer)` pairs. Remembering each term's last peer drops the
    // repeats within one peer's run of records (a crawl lists each peer's
    // files together); the sort drops the rest, whatever the order.
    let mut last_peer: Vec<Option<u32>> = vec![None; dict.len()];
    let mut pairs: Vec<u64> = Vec::new();
    for (peer, name) in records {
        for_each_token_with(name, TokenizerConfig::default(), |term| {
            let sym = dict.intern(term);
            if sym.index() >= last_peer.len() {
                last_peer.push(None);
            }
            if last_peer[sym.index()] != Some(peer) {
                last_peer[sym.index()] = Some(peer);
                pairs.push(pack(sym.0, peer));
            }
        });
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut counts = vec![0u32; dict.len()];
    for p in pairs {
        counts[(p >> 32) as usize] += 1;
    }
    counts
}

/// Replication distribution of objects (distinct names).
#[derive(Debug, Clone)]
pub struct ReplicationAnalysis {
    /// Peer population size.
    pub num_peers: u32,
    /// Total file copies observed.
    pub total_copies: usize,
    /// Number of distinct names (the "unique objects" of the paper).
    pub unique_objects: usize,
    /// Distinct-peer count per unique name, sorted descending.
    pub counts_desc: Vec<u32>,
    /// Power-law tail fit of the counts.
    pub tail: TailFit,
}

impl ReplicationAnalysis {
    /// Analyzes raw names: `records` yields `(peer, name)` pairs.
    pub fn from_names<'a, I>(num_peers: u32, records: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let groups = NameGroups::group(records);
        Self::from_pairs(num_peers, groups.total, &groups.pairs)
    }

    /// Analyzes sanitized names (the Figure 2 variant).
    pub fn from_sanitized_names<'a, I>(num_peers: u32, records: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let groups = NameGroups::group(records);
        Self::from_pairs(num_peers, groups.total, &groups.sanitized_pairs())
    }

    /// Figures 1 and 2 from one grouping: `(from_names, from_sanitized_names)`
    /// of the same records, reading each record once and sanitizing each
    /// distinct raw name once.
    pub fn raw_and_sanitized<'a, I>(num_peers: u32, records: I) -> (Self, Self)
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        let groups = NameGroups::group(records);
        (
            Self::from_pairs(num_peers, groups.total, &groups.pairs),
            Self::from_pairs(num_peers, groups.total, &groups.sanitized_pairs()),
        )
    }

    fn from_pairs(num_peers: u32, total_copies: usize, pairs: &[u64]) -> Self {
        let counts_desc = counts_desc(pairs);
        let tail = fit_tail(&counts_desc);
        Self {
            num_peers,
            total_copies,
            unique_objects: counts_desc.len(),
            counts_desc,
            tail,
        }
    }

    /// Fraction of unique objects present on exactly one peer
    /// (the paper's "70.5% of the objects were not replicated").
    pub fn singleton_fraction(&self) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let singles = self.counts_desc.iter().filter(|&&c| c <= 1).count();
        singles as f64 / self.counts_desc.len() as f64
    }

    /// Fraction of unique objects replicated on at most `max_peers` peers
    /// (the paper's "99.5% … in less than 0.1% (37) of the peers").
    pub fn fraction_at_most(&self, max_peers: u32) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let n = self.counts_desc.iter().filter(|&&c| c <= max_peers).count();
        n as f64 / self.counts_desc.len() as f64
    }

    /// Fraction of unique objects on at least `min_peers` peers (the
    /// Loo-et-al rare-query rule uses `min_peers = 20`).
    pub fn fraction_at_least(&self, min_peers: u32) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let n = self.counts_desc.iter().filter(|&&c| c >= min_peers).count();
        n as f64 / self.counts_desc.len() as f64
    }

    /// The number of peers corresponding to a fraction of the population
    /// (e.g. `0.001` → the paper's "0.1% of peers" = 37).
    pub fn peers_for_fraction(&self, fraction: f64) -> u32 {
        (self.num_peers as f64 * fraction).floor().max(1.0) as u32
    }

    /// Mean replicas per unique object.
    pub fn mean_replicas(&self) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        self.counts_desc.iter().map(|&c| c as u64).sum::<u64>() as f64
            / self.counts_desc.len() as f64
    }

    /// `(rank, count)` series downsampled to `max_points` log-spaced ranks
    /// for plotting (ranks are 1-based).
    pub fn rank_series(&self, max_points: usize) -> Vec<(u64, u64)> {
        qcp_util::hist::logspace_ranks(self.counts_desc.len(), max_points)
            .into_iter()
            .map(|r| (r as u64 + 1, self.counts_desc[r] as u64))
            .collect()
    }
}

/// Replication distribution of name *terms* (Figure 3).
#[derive(Debug, Clone)]
pub struct TermReplicationAnalysis {
    /// Number of distinct terms.
    pub unique_terms: usize,
    /// Distinct-peer count per term, sorted descending.
    pub counts_desc: Vec<u32>,
    /// Power-law tail fit.
    pub tail: TailFit,
}

impl TermReplicationAnalysis {
    /// Tokenizes every name and counts distinct peers per term.
    pub fn from_names<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        Self::from_peer_counts(&file_term_peer_counts(records, &mut TermDict::new()))
    }

    /// Builds the distribution from a [`file_term_peer_counts`] table;
    /// zero entries (symbols not in the crawl) are not terms of it.
    pub fn from_peer_counts(peer_counts: &[u32]) -> Self {
        let mut counts_desc: Vec<u32> = peer_counts.iter().copied().filter(|&c| c > 0).collect();
        counts_desc.sort_unstable_by(|a, b| b.cmp(a));
        let tail = fit_tail(&counts_desc);
        Self {
            unique_terms: counts_desc.len(),
            counts_desc,
            tail,
        }
    }

    /// Fraction of terms on at most `max_peers` peers.
    pub fn fraction_at_most(&self, max_peers: u32) -> f64 {
        if self.counts_desc.is_empty() {
            return 0.0;
        }
        let n = self.counts_desc.iter().filter(|&&c| c <= max_peers).count();
        n as f64 / self.counts_desc.len() as f64
    }

    /// Fraction of terms on exactly one peer.
    pub fn singleton_fraction(&self) -> f64 {
        self.fraction_at_most(1)
    }

    /// `(rank, count)` plotting series.
    pub fn rank_series(&self, max_points: usize) -> Vec<(u64, u64)> {
        qcp_util::hist::logspace_ranks(self.counts_desc.len(), max_points)
            .into_iter()
            .map(|r| (r as u64 + 1, self.counts_desc[r] as u64))
            .collect()
    }
}

/// Power-law MLE fit of a count distribution (`x_min = 1`), or NaN
/// exponent and goodness when there are fewer than 10 counts to fit.
pub(crate) fn fit_tail(counts: &[u32]) -> TailFit {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<(u32, String)> {
        // Object A on peers 1,2,3 (exact name), B on 1, C on 2 with case
        // variants that sanitize together.
        vec![
            (1, "Artist - Song.mp3".to_string()),
            (2, "Artist - Song.mp3".to_string()),
            (3, "Artist - Song.mp3".to_string()),
            (1, "lonely track.mp3".to_string()),
            (2, "Other Tune.mp3".to_string()),
            (4, "OTHER tune.MP3".to_string()),
        ]
    }

    fn iter_records(v: &[(u32, String)]) -> impl Iterator<Item = (u32, &str)> {
        v.iter().map(|(p, n)| (*p, n.as_str()))
    }

    #[test]
    fn raw_names_distinguish_case_variants() {
        let recs = records();
        let a = ReplicationAnalysis::from_names(10, iter_records(&recs));
        assert_eq!(a.unique_objects, 4);
        assert_eq!(a.total_copies, 6);
        assert_eq!(a.counts_desc[0], 3);
        // Three of four names are singletons.
        assert!((a.singleton_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sanitized_names_merge_case_variants() {
        let recs = records();
        let a = ReplicationAnalysis::from_sanitized_names(10, iter_records(&recs));
        assert_eq!(a.unique_objects, 3);
        // "other tunemp3" now on peers 2 and 4.
        assert_eq!(a.counts_desc, vec![3, 2, 1]);
    }

    #[test]
    fn duplicate_copies_on_same_peer_count_once() {
        let recs = vec![
            (1, "dup.mp3".to_string()),
            (1, "dup.mp3".to_string()),
            (2, "dup.mp3".to_string()),
        ];
        let a = ReplicationAnalysis::from_names(5, iter_records(&recs));
        assert_eq!(a.counts_desc, vec![2]);
        assert_eq!(a.total_copies, 3);
    }

    #[test]
    fn fractions_and_thresholds() {
        let recs = records();
        let a = ReplicationAnalysis::from_names(37_572, iter_records(&recs));
        assert_eq!(a.peers_for_fraction(0.001), 37);
        assert!((a.fraction_at_most(1) - 0.75).abs() < 1e-12);
        assert!((a.fraction_at_least(3) - 0.25).abs() < 1e-12);
        assert!((a.mean_replicas() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_safe() {
        let a = ReplicationAnalysis::from_names(10, std::iter::empty());
        assert_eq!(a.unique_objects, 0);
        assert_eq!(a.singleton_fraction(), 0.0);
        assert_eq!(a.fraction_at_most(10), 0.0);
        assert!(a.rank_series(10).is_empty());
    }

    #[test]
    fn term_analysis_counts_distinct_peers_per_term() {
        let recs = records();
        let t = TermReplicationAnalysis::from_names(iter_records(&recs));
        // "mp3" is on all four peers; "song"/"artist" on 1,2,3; "tune" on 2,4.
        assert!(t.unique_terms >= 5);
        assert_eq!(t.counts_desc[0], 4);
        assert_eq!(t.counts_desc[1], 3);
        assert!(t.singleton_fraction() > 0.0);
    }

    #[test]
    fn term_analysis_is_case_insensitive() {
        let recs = vec![
            (1, "MADONNA hits".to_string()),
            (2, "madonna best".to_string()),
        ];
        let t = TermReplicationAnalysis::from_names(iter_records(&recs));
        // madonna on 2 peers; hits and best on 1 each.
        assert_eq!(t.counts_desc, vec![2, 1, 1]);
    }

    #[test]
    fn rank_series_is_descending_counts() {
        let recs = records();
        let a = ReplicationAnalysis::from_names(10, iter_records(&recs));
        let series = a.rank_series(100);
        assert_eq!(series.first().unwrap(), &(1, 3));
        assert!(series.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
