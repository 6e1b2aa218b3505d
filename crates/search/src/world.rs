//! The shared simulation world for search-system comparisons.
//!
//! A [`SearchWorld`] is a realized P2P content universe: an overlay
//! topology, objects annotated with term sets drawn from a Zipf *file*
//! ranking, replica placement drawn from the measured power law, and a
//! query workload keyed to a *query* ranking whose popular head overlaps
//! the file head only by a planted fraction — the same dual-ranking
//! construction as `qcp-tracegen`, here at the symbol level for
//! simulation speed.
//!
//! Every search system sees exactly the same world and the same queries;
//! only the routing strategy differs.

use qcp_overlay::topology::{gnutella_two_tier, Topology};
use qcp_overlay::{Placement, PlacementModel, TopologyConfig};
use qcp_util::rng::Pcg64;
use qcp_util::{FxHashMap, FxHashSet};
use qcp_zipf::{Zipf, ZipfMandelbrot};

/// World generation parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of peers.
    pub num_peers: usize,
    /// Number of objects.
    pub num_objects: u32,
    /// Term universe size.
    pub num_terms: usize,
    /// Terms per object (inclusive range).
    pub terms_per_object: (usize, usize),
    /// Zipf exponent of file-side term popularity.
    pub term_zipf_s: f64,
    /// Replica-count power-law exponent.
    pub placement_tau: f64,
    /// When set, overrides Zipf placement with uniform `k`-replica
    /// placement (used by the Gia ablation, which contrasts the two).
    pub uniform_replicas: Option<u32>,
    /// Popular-head size on both rankings.
    pub head_size: usize,
    /// Fraction of the query head shared with the file head.
    pub head_overlap: f64,
    /// Query-side Zipf–Mandelbrot exponent.
    pub query_zipf_s: f64,
    /// Query-side head-flattening offset.
    pub query_zipf_q: f64,
    /// Extra terms appended to a query beyond the anchor (max).
    pub max_extra_terms: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            num_peers: 2_000,
            num_objects: 20_000,
            num_terms: 20_000,
            terms_per_object: (2, 4),
            term_zipf_s: 1.05,
            placement_tau: 2.4,
            uniform_replicas: None,
            head_size: 200,
            head_overlap: 0.30,
            query_zipf_s: 1.05,
            query_zipf_q: 15.0,
            max_extra_terms: 2,
            seed: 0x0a1d,
        }
    }
}

/// One query: term ids plus the issuing peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Sorted, deduplicated term ids.
    pub terms: Vec<u32>,
    /// Source peer.
    pub source: u32,
}

/// A realized world.
#[derive(Debug)]
pub struct SearchWorld {
    /// Overlay topology (two-tier Gnutella by default).
    pub topology: Topology,
    /// Object → holder peers.
    pub placement: Placement,
    /// Sorted term ids per object.
    pub object_terms: Vec<Vec<u32>>,
    /// Term → sorted posting list of objects.
    pub postings: FxHashMap<u32, Vec<u32>>,
    /// Objects held per peer (sorted).
    pub peer_contents: Vec<Vec<u32>>,
    /// Query-rank → term id (file ranking is the identity).
    pub query_ranking: Vec<u32>,
    /// Head size used for the dual ranking.
    pub head_size: usize,
    query_zipf: ZipfMandelbrot,
    max_extra_terms: usize,
}

impl SearchWorld {
    /// Generates a world.
    pub fn generate(config: &WorldConfig) -> Self {
        let (lo, hi) = config.terms_per_object;
        assert!(lo >= 1 && hi >= lo);
        assert!(config.num_terms >= 2 * config.head_size);
        let mut rng = Pcg64::with_stream(config.seed, 0x0a1d);

        let topology = gnutella_two_tier(&TopologyConfig {
            num_nodes: config.num_peers,
            seed: config.seed ^ 0x7079,
            ..Default::default()
        });

        // Object annotations: Zipf over file ranking (identity: term id r
        // is the r-th most file-popular term).
        let term_zipf = Zipf::new(config.num_terms, config.term_zipf_s);
        let object_terms: Vec<Vec<u32>> = (0..config.num_objects)
            .map(|_| {
                let k = lo + rng.index(hi - lo + 1);
                let mut terms: Vec<u32> = Vec::with_capacity(k);
                while terms.len() < k {
                    let t = term_zipf.sample_index(&mut rng) as u32;
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                }
                terms.sort_unstable();
                terms
            })
            .collect();

        // Posting lists.
        let mut postings: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (obj, terms) in object_terms.iter().enumerate() {
            for &t in terms {
                postings.entry(t).or_default().push(obj as u32);
            }
        }
        // Objects were visited in order, so lists are already sorted.

        // Placement + reverse map.
        let model = match config.uniform_replicas {
            Some(k) => PlacementModel::UniformK(k),
            None => PlacementModel::ZipfReplicas {
                tau: config.placement_tau,
            },
        };
        let placement = Placement::generate(
            model,
            config.num_peers as u32,
            config.num_objects,
            config.seed ^ 0x91ace,
        );
        let mut peer_contents: Vec<Vec<u32>> = vec![Vec::new(); config.num_peers];
        for obj in 0..config.num_objects {
            for &peer in placement.holders(obj) {
                peer_contents[peer as usize].push(obj);
            }
        }
        for c in &mut peer_contents {
            c.sort_unstable();
        }

        // Dual ranking: same construction as qcp-tracegen's vocabulary.
        let h = config.head_size;
        let overlap_count = (config.head_overlap * h as f64).round() as usize;
        let from_file_head = rng.sample_distinct(h, overlap_count);
        let mid_span = (h * 20).min(config.num_terms) - h;
        let from_mid: Vec<usize> = rng
            .sample_distinct(mid_span, h - overlap_count)
            .into_iter()
            .map(|x| x + h)
            .collect();
        let mut query_head: Vec<u32> = from_file_head
            .into_iter()
            .chain(from_mid)
            .map(|x| x as u32)
            .collect();
        rng.shuffle(&mut query_head);
        let head_set: FxHashSet<u32> = query_head.iter().copied().collect();
        let mut tail: Vec<u32> = (0..config.num_terms as u32)
            .filter(|t| !head_set.contains(t))
            .collect();
        rng.shuffle(&mut tail);
        let mut query_ranking = query_head;
        query_ranking.extend(tail);

        let query_zipf =
            ZipfMandelbrot::new(config.num_terms, config.query_zipf_s, config.query_zipf_q);

        Self {
            topology,
            placement,
            object_terms,
            postings,
            peer_contents,
            query_ranking,
            head_size: h,
            query_zipf,
            max_extra_terms: config.max_extra_terms,
        }
    }

    /// Number of peers.
    pub fn num_peers(&self) -> usize {
        self.peer_contents.len()
    }

    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.object_terms.len()
    }

    /// Objects matching *all* `terms` (sorted input not required).
    pub fn matching_objects(&self, terms: &[u32]) -> Vec<u32> {
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&Vec<u32>> = Vec::with_capacity(terms.len());
        for t in terms {
            match self.postings.get(t) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        // Intersect smallest-first.
        lists.sort_by_key(|l| l.len());
        let mut acc: Vec<u32> = lists[0].clone();
        for list in &lists[1..] {
            acc = intersect_sorted(&acc, list);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Sorted union of holder peers over `objects`.
    pub fn holders_of(&self, objects: &[u32]) -> Vec<u32> {
        holders_in(&self.placement, objects)
    }

    /// True if `peer` holds an object matching all `terms`.
    ///
    /// `matching` must be the sorted output of [`Self::matching_objects`]
    /// for the same terms (precomputed once per query).
    pub fn peer_answers(&self, peer: u32, matching: &[u32]) -> bool {
        intersects_sorted(&self.peer_contents[peer as usize], matching)
    }

    /// Term ids present in a peer's content, with local occurrence counts.
    pub fn peer_term_counts(&self, peer: u32) -> FxHashMap<u32, u32> {
        let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
        for &obj in &self.peer_contents[peer as usize] {
            for &t in &self.object_terms[obj as usize] {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Samples one query from the workload model: an anchor term drawn
    /// from the query-popularity Zipf, an object containing it, and up to
    /// `max_extra_terms` additional terms from that object (so the query
    /// is satisfiable whenever the anchor term exists in the corpus).
    pub fn sample_query(&self, rng: &mut Pcg64) -> QuerySpec {
        let source = rng.index(self.num_peers()) as u32;
        let anchor_rank = self.query_zipf.sample_index(rng);
        let anchor = self.query_ranking[anchor_rank];
        let mut terms = vec![anchor];
        if let Some(posting) = self.postings.get(&anchor) {
            let obj = posting[rng.index(posting.len())];
            let extra = rng.index(self.max_extra_terms + 1);
            let obj_terms = &self.object_terms[obj as usize];
            for _ in 0..extra {
                let t = obj_terms[rng.index(obj_terms.len())];
                if !terms.contains(&t) {
                    terms.push(t);
                }
            }
        }
        terms.sort_unstable();
        terms.dedup();
        QuerySpec { terms, source }
    }
}

/// Sorted union of holder peers over `objects` in `placement`.
pub(crate) fn holders_in(placement: &Placement, objects: &[u32]) -> Vec<u32> {
    let mut peers: Vec<u32> = objects
        .iter()
        .flat_map(|&o| placement.holders(o).iter().copied())
        .collect();
    peers.sort_unstable();
    peers.dedup();
    peers
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn intersects_sorted(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_world() -> SearchWorld {
        SearchWorld::generate(&WorldConfig {
            num_peers: 400,
            num_objects: 3_000,
            num_terms: 4_000,
            head_size: 80,
            seed: 99,
            ..Default::default()
        })
    }

    #[test]
    fn world_shapes_are_consistent() {
        let w = tiny_world();
        assert_eq!(w.num_peers(), 400);
        assert_eq!(w.num_objects(), 3_000);
        assert_eq!(w.peer_contents.len(), 400);
        // Every placed object appears in its holders' content lists.
        for obj in 0..100u32 {
            for &peer in w.placement.holders(obj) {
                assert!(w.peer_contents[peer as usize].binary_search(&obj).is_ok());
            }
        }
    }

    #[test]
    fn postings_invert_object_terms() {
        let w = tiny_world();
        for obj in 0..200u32 {
            for &t in &w.object_terms[obj as usize] {
                assert!(w.postings[&t].binary_search(&obj).is_ok());
            }
        }
    }

    #[test]
    fn matching_objects_respects_and_semantics() {
        let w = tiny_world();
        let terms = w.object_terms[7].clone();
        let matches = w.matching_objects(&terms);
        assert!(matches.contains(&7));
        for &m in &matches {
            let mt = &w.object_terms[m as usize];
            assert!(terms.iter().all(|t| mt.binary_search(t).is_ok()));
        }
    }

    #[test]
    fn matching_unknown_term_is_empty() {
        let w = tiny_world();
        assert!(w.matching_objects(&[3_999_999]).is_empty());
        assert!(w.matching_objects(&[]).is_empty());
    }

    #[test]
    fn peer_answers_agrees_with_holders() {
        let w = tiny_world();
        let terms = w.object_terms[3].clone();
        let matching = w.matching_objects(&terms);
        let holders = w.holders_of(&matching);
        for peer in 0..400u32 {
            assert_eq!(
                w.peer_answers(peer, &matching),
                holders.binary_search(&peer).is_ok()
            );
        }
    }

    #[test]
    fn sampled_queries_are_mostly_satisfiable() {
        let w = tiny_world();
        let mut rng = Pcg64::new(1);
        let mut satisfiable = 0;
        let n = 500;
        for _ in 0..n {
            let q = w.sample_query(&mut rng);
            assert!(!q.terms.is_empty());
            assert!((q.source as usize) < w.num_peers());
            if !w.matching_objects(&q.terms).is_empty() {
                satisfiable += 1;
            }
        }
        // Anchor+own-object construction keeps a query satisfiable except
        // when the anchor term never occurs in the corpus — which the
        // query/file mismatch makes genuinely common (the paper's point).
        let frac = satisfiable as f64 / n as f64;
        assert!((0.4..0.95).contains(&frac), "satisfiable {satisfiable}/{n}");
    }

    #[test]
    fn query_ranking_is_permutation() {
        let w = tiny_world();
        let mut r = w.query_ranking.clone();
        r.sort_unstable();
        r.dedup();
        assert_eq!(r.len(), 4_000);
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.object_terms[55], b.object_terms[55]);
        assert_eq!(a.query_ranking[..10], b.query_ranking[..10]);
    }
}
