//! Compact undirected graphs in CSR (compressed sparse row) form.
//!
//! Two construction paths share one scatter kernel (DESIGN.md §13):
//!
//! * [`Graph::from_edges`] — the general path. Dedup is a sort over
//!   `(min, max, emission index)` triples (~12 bytes/edge transient)
//!   instead of a hash set; the index tag restores first-occurrence
//!   order after the sort, so the CSR bytes are identical to what the
//!   historical hash-set dedup produced (neighbor lists are
//!   insertion-ordered, and random walks index into them).
//! * [`Graph::from_unique_edge_stream`] — the streaming path for
//!   generators that already guarantee uniqueness: the edge stream is
//!   replayed twice (count degrees, then scatter) and no per-edge
//!   transient is allocated at all.

/// An undirected graph over nodes `0..n` stored as CSR adjacency.
///
/// Parallel edges and self-loops are removed at construction. Memory is
/// `O(n + m)` with `u32` node ids — a 40,000-node Gnutella graph with half
/// a million edges fits in a few megabytes, and a 10M-node two-tier graph
/// in a few hundred.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

/// Exclusive prefix sum of a degree table, with the trailing total.
///
/// The sum is `checked`: the CSR stores *directed* edge entries (two per
/// undirected edge) behind `u32` offsets, and a silent wrap here would
/// corrupt every adjacency past the wrap point in release builds.
fn prefix_offsets(degree: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(degree.len() + 1);
    fill_prefix_offsets(&mut offsets, degree);
    offsets
}

/// [`prefix_offsets`] into an existing buffer.
fn fill_prefix_offsets(offsets: &mut Vec<u32>, degree: &[u32]) {
    offsets.clear();
    let mut total = 0u32;
    offsets.push(0u32);
    for &d in degree {
        total = total.checked_add(d).unwrap_or_else(|| {
            // qcplint: allow(panic) — graph-size contract: >2^31 undirected
            // edges cannot be represented by u32 CSR offsets; fail loudly
            // instead of wrapping silently.
            panic!(
                "Graph: directed edge entries exceed u32::MAX; \
                 the u32 CSR representation cannot hold this graph"
            )
        });
        offsets.push(total);
    }
}

/// In-place dedup of unordered pairs, keeping the first occurrence and
/// its position: the index-tag sort used by [`Graph::from_edges`],
/// shared with generators that dedup a small buffered prefix (the
/// ultrapeer mesh) before streaming the rest. Pairs come back
/// normalized as `(min, max)`; self-loops are dropped.
pub(crate) fn dedup_pairs_first_occurrence(pairs: &mut Vec<(u32, u32)>) {
    assert!(pairs.len() <= u32::MAX as usize);
    let mut tagged: Vec<(u32, u32, u32)> = pairs
        .iter()
        .enumerate()
        .filter(|&(_, &(a, b))| a != b)
        .map(|(i, &(a, b))| (a.min(b), a.max(b), i as u32))
        .collect();
    tagged.sort_unstable();
    tagged.dedup_by_key(|&mut (a, b, _)| (a, b));
    tagged.sort_unstable_by_key(|&(_, _, i)| i);
    pairs.clear();
    pairs.extend(tagged.into_iter().map(|(a, b, _)| (a, b)));
}

impl Graph {
    /// Builds from an edge list. Edges are deduplicated (as unordered
    /// pairs, keeping the first occurrence) and self-loops dropped.
    pub fn from_edges(num_nodes: usize, edge_list: &[(u32, u32)]) -> Self {
        assert!(num_nodes <= u32::MAX as usize);
        assert!(
            edge_list.len() <= u32::MAX as usize,
            "Graph: edge list too long for u32 emission tags"
        );
        // Normalize and tag each surviving edge with its emission index;
        // sort groups duplicates (smallest tag first), dedup keeps that
        // first occurrence, and the re-sort by tag restores emission
        // order — bit-identical CSR to a keep-first hash-set dedup.
        let mut tagged: Vec<(u32, u32, u32)> = Vec::with_capacity(edge_list.len());
        for (i, &(a, b)) in edge_list.iter().enumerate() {
            assert!((a as usize) < num_nodes && (b as usize) < num_nodes);
            if a == b {
                continue;
            }
            tagged.push((a.min(b), a.max(b), i as u32));
        }
        tagged.sort_unstable();
        tagged.dedup_by_key(|&mut (a, b, _)| (a, b));
        tagged.sort_unstable_by_key(|&(_, _, i)| i);
        Self::from_unique_edge_stream(num_nodes, |sink| {
            for &(a, b, _) in &tagged {
                sink(a, b);
            }
        })
    }

    /// Builds from a replayable stream of edges that are already unique
    /// (as unordered pairs) and free of self-loops.
    ///
    /// `emit` is called exactly twice — once to count degrees, once to
    /// scatter — and must produce the identical edge sequence both times
    /// (deterministic generators replay from a cloned RNG). Neighbor
    /// lists come out in stream order, matching what [`Self::from_edges`]
    /// would build from the same sequence; emission orientation of a
    /// pair does not affect the result. No per-edge transient memory is
    /// allocated: peak overhead beyond the final CSR is the `u32` cursor
    /// table (4 bytes/node).
    pub fn from_unique_edge_stream<F>(num_nodes: usize, mut emit: F) -> Self
    where
        F: FnMut(&mut dyn FnMut(u32, u32)),
    {
        assert!(num_nodes <= u32::MAX as usize);
        let mut degree = vec![0u32; num_nodes];
        let mut streamed = 0u64;
        emit(&mut |a, b| {
            assert!((a as usize) < num_nodes && (b as usize) < num_nodes);
            assert!(a != b, "stream contract: no self-loops");
            degree[a as usize] += 1;
            degree[b as usize] += 1;
            streamed += 1;
        });
        let offsets = prefix_offsets(&degree);
        drop(degree);
        let total = offsets[num_nodes];
        let mut edges = vec![0u32; total as usize];
        let mut cursor: Vec<u32> = offsets[..num_nodes].to_vec();
        let mut replayed = 0u64;
        emit(&mut |a, b| {
            edges[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            edges[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
            replayed += 1;
        });
        assert_eq!(
            streamed, replayed,
            "stream contract: both passes must emit the same sequence"
        );
        debug_assert!(cursor.iter().zip(&offsets[1..]).all(|(c, o)| c == o));
        Self { offsets, edges }
    }

    /// Rebuilds this graph into `out`, reusing its buffers. Node `u`'s
    /// row gets `degree[u]` entries. The rows listed in `rewrite`
    /// (ascending, each once) are written by `fill(u, row)`; every other
    /// row is copied from `self`, in runs, and must keep its length.
    pub(crate) fn rewrite_rows_into(
        &self,
        out: &mut Graph,
        degree: &[u32],
        rewrite: &[u32],
        mut fill: impl FnMut(u32, &mut [u32]),
    ) {
        let n = self.num_nodes();
        assert_eq!(degree.len(), n);
        fill_prefix_offsets(&mut out.offsets, degree);
        out.edges.clear();
        out.edges.reserve(out.offsets[n] as usize);
        let mut copied = 0usize; // rows before this one are in `out`
        for &u in rewrite {
            let u = u as usize;
            out.edges.extend_from_slice(
                &self.edges[self.offsets[copied] as usize..self.offsets[u] as usize],
            );
            let start = out.edges.len();
            out.edges.resize(start + degree[u] as usize, 0);
            fill(u as u32, &mut out.edges[start..]);
            copied = u + 1;
        }
        out.edges
            .extend_from_slice(&self.edges[self.offsets[copied] as usize..]);
        assert_eq!(
            out.edges.len(),
            out.offsets[n] as usize,
            "a copied row changed its length"
        );
    }

    /// The entries of rows `lo..hi`, contiguous in the CSR.
    fn rows(&self, lo: usize, hi: usize) -> &[u32] {
        &self.edges[self.offsets[lo] as usize..self.offsets[hi] as usize]
    }

    /// Calls `f(u)` for every node `u` whose list differs between `self`
    /// and `other` (same node count), in ascending order.
    ///
    /// Rows of equal length in both graphs, in a run, sit at the same
    /// relative place in both CSRs, so a run compares as one slice; only
    /// a run that differs is compared block by block, and only a block
    /// that differs row by row.
    pub(crate) fn for_each_changed_row(&self, other: &Graph, mut f: impl FnMut(u32)) {
        let n = self.num_nodes();
        assert_eq!(other.num_nodes(), n);
        let shift = |u: usize| other.offsets[u].wrapping_sub(self.offsets[u]);
        let mut lo = 0;
        for u in 0..n {
            if shift(u + 1) != shift(u) {
                self.compare_rows(other, lo, u, &mut f);
                f(u as u32);
                lo = u + 1;
            }
        }
        self.compare_rows(other, lo, n, &mut f);
    }

    /// [`Self::for_each_changed_row`] over rows `lo..hi`, which have the
    /// same lengths in both graphs.
    fn compare_rows(&self, other: &Graph, lo: usize, hi: usize, f: &mut impl FnMut(u32)) {
        const BLOCK: u32 = 512;
        if self.rows(lo, hi) == other.rows(lo, hi) {
            return;
        }
        let mut from = lo;
        while from < hi {
            let mut to = from + 1;
            while to < hi && self.offsets[to] - self.offsets[from] < BLOCK {
                to += 1;
            }
            if self.rows(from, to) != other.rows(from, to) {
                for u in from as u32..to as u32 {
                    if self.neighbors(u) != other.neighbors(u) {
                        f(u);
                    }
                }
            }
            from = to;
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Resident bytes of the CSR arrays (offsets + packed neighbors).
    ///
    /// Length-based, not capacity-based, so the figure is deterministic
    /// and usable inside byte-gated artifacts (`repro scale`).
    pub fn mem_bytes(&self) -> usize {
        (self.offsets.len() + self.edges.len()) * std::mem::size_of::<u32>()
    }

    /// Neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.edges.len() as f64 / self.num_nodes() as f64
    }

    /// Maximum degree.
    #[cfg(test)]
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Size of the largest connected component.
    pub fn largest_component(&self) -> usize {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut best = 0usize;
        let mut stack: Vec<u32> = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut size = 0usize;
            seen[start] = true;
            stack.push(start as u32);
            while let Some(u) = stack.pop() {
                size += 1;
                for &v in self.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
            best = best.max(size);
        }
        best
    }

    /// True when every node is reachable from node 0 (and the graph is
    /// nonempty).
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        self.num_nodes() > 0 && self.largest_component() == self.num_nodes()
    }

    /// Builds a CSR from per-node neighbor lists taken as given: no
    /// symmetry, dedup or self-loop handling, so tests can hand a
    /// checker a corrupted graph.
    #[cfg(test)]
    pub(crate) fn from_lists_unchecked(lists: &[Vec<u32>]) -> Self {
        let degree: Vec<u32> = lists.iter().map(|l| l.len() as u32).collect();
        Self {
            offsets: prefix_offsets(&degree),
            edges: lists.concat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcp_util::FxHashSet;

    #[test]
    fn builds_adjacency_both_directions() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn deduplicates_and_drops_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        // The hash-set dedup this replaced kept the *first* occurrence of
        // each unordered pair, so neighbor lists are insertion-ordered.
        // (2,0) arrives before (0,1): node 0's list must read [2, 1].
        let g = Graph::from_edges(3, &[(2, 0), (0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.neighbors(0), &[2, 1]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    /// The historical hash-set construction, kept as a test oracle.
    fn from_edges_hashset_oracle(num_nodes: usize, edge_list: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut adj = vec![Vec::new(); num_nodes];
        for &(a, b) in edge_list {
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                adj[key.0 as usize].push(key.1);
                adj[key.1 as usize].push(key.0);
            }
        }
        adj
    }

    #[test]
    fn sort_dedup_matches_hashset_oracle() {
        // Deterministic pseudo-random edge soup with duplicates in both
        // orientations and self-loops.
        let n = 57u32;
        let mut edges = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..1_500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 33) % n as u64) as u32;
            let b = ((x >> 11) % n as u64) as u32;
            edges.push((a, b));
        }
        let g = Graph::from_edges(n as usize, &edges);
        let oracle = from_edges_hashset_oracle(n as usize, &edges);
        for v in 0..n {
            assert_eq!(g.neighbors(v), &oracle[v as usize][..], "node {v}");
        }
    }

    #[test]
    fn unique_stream_matches_edge_list_path() {
        let edges = [(0u32, 1u32), (3, 2), (1, 2), (0, 3), (4, 0)];
        let a = Graph::from_edges(5, &edges);
        let b = Graph::from_unique_edge_stream(5, |sink| {
            for &(x, y) in &edges {
                sink(x, y);
            }
        });
        for v in 0..5 {
            assert_eq!(a.neighbors(v), b.neighbors(v), "node {v}");
        }
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "same sequence")]
    fn non_replayable_stream_panics() {
        let mut calls = 0;
        let _ = Graph::from_unique_edge_stream(3, |sink| {
            calls += 1;
            if calls == 1 {
                sink(0, 1);
                sink(1, 2);
            } else {
                sink(0, 1);
            }
        });
    }

    #[test]
    fn offsets_overflow_panics_instead_of_wrapping() {
        // Synthetic boundary: two degree entries whose sum wraps u32.
        // (Building 2^32 real edge entries would need >32 GiB, so the
        // checked prefix sum is exercised directly.)
        let result = std::panic::catch_unwind(|| prefix_offsets(&[u32::MAX, 1]));
        let err = result.expect_err("wrapping sum must panic");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("exceed u32::MAX"),
            "panic must name the overflow, got: {msg}"
        );
        // The exact boundary itself is representable.
        let ok = prefix_offsets(&[u32::MAX - 1, 1]);
        assert_eq!(*ok.last().expect("nonempty"), u32::MAX);
    }

    #[test]
    fn changed_rows_are_the_rows_that_differ() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        for trial in 0..200 {
            let n = 1 + next(300);
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..next(40)).map(|_| next(n) as u32).collect())
                .collect();
            let mut edited = lists.clone();
            for _ in 0..next(6) {
                let u = next(n);
                match next(3) {
                    0 => edited[u].push(next(n) as u32),
                    1 => {
                        edited[u].pop();
                    }
                    _ => {
                        if let Some(w) = edited[u].first_mut() {
                            *w = next(n) as u32;
                        }
                    }
                }
            }
            let (a, b) = (
                Graph::from_lists_unchecked(&lists),
                Graph::from_lists_unchecked(&edited),
            );
            let mut changed = Vec::new();
            a.for_each_changed_row(&b, |u| changed.push(u));
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&u| a.neighbors(u) != b.neighbors(u))
                .collect();
            assert_eq!(changed, expected, "trial {trial}");
        }
    }

    #[test]
    fn mem_bytes_counts_csr_arrays() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // offsets: 5 u32s; edges: 6 u32s (two directed entries per edge).
        assert_eq!(g.mem_bytes(), (5 + 6) * 4);
    }

    #[test]
    fn connectivity_detection() {
        let connected = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(connected.is_connected());
        assert_eq!(connected.largest_component(), 3);
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!split.is_connected());
        assert_eq!(split.largest_component(), 2);
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert!(!g.is_connected());
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }
}
