//! Frozen compressed-sparse-row (CSR) graph and reusable search scratch.
//!
//! A [`Csr`] is built once and then only searched. It has two
//! constructors:
//!
//! 1. [`EdgeBuf::build`] — producers push `(src, dst, mask)` tuples in
//!    any order, duplicates welcome, and the build sorts and merges them;
//! 2. [`Csr::from_sorted_edges`] — for callers that already hold their
//!    edges sorted and deduplicated (elle-core's `DepGraph::freeze`).
//!
//! The frozen form is flat `offsets` / `dsts` / `masks` arrays with every
//! row **sorted by neighbour id**. Lookups binary-search a row instead of
//! hashing, traversal is a contiguous slice scan, and edge enumeration
//! order is a deterministic function of the edge *set* — never of
//! insertion order.
//!
//! All cycle-search algorithms run on the frozen form, filtering by
//! [`EdgeMask`] at traversal time, so no per-anomaly-class subgraph copy is
//! ever materialized. Their working memory lives in a caller-provided
//! [`Scratch`] and is reused across searches: bitsets are word-packed and
//! cleared sparsely (only the words actually touched), queues and stacks
//! keep their capacity, and the BFS parent array is never cleared at all —
//! entries are only read for vertices marked visited in the *current*
//! search.

use crate::EdgeMask;

/// An immutable directed graph over dense `u32` vertices with
/// class-masked edges, in compressed-sparse-row form.
///
/// Parallel edges of different classes between the same pair are one
/// entry whose mask is the union; searches filter by mask. Rows are
/// sorted by neighbour id, so [`Csr::edge_mask`] is a binary search and
/// [`Csr::edges`] yields edges in `(src, dst)` lexicographic order.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `dsts` / `masks` — row `v`.
    offsets: Vec<u32>,
    /// Out-neighbours, sorted ascending within each row.
    dsts: Vec<u32>,
    /// Class mask per out-edge, parallel to `dsts`.
    masks: Vec<EdgeMask>,
}

impl Csr {
    /// Build a CSR from already-sorted, already-deduplicated edges —
    /// `packed[i]` is `src << 32 | dst`, ascending, one entry per
    /// distinct `(src, dst)` pair, with `masks` parallel. Both
    /// [`EdgeBuf::build`] and the checker's sorted dependency-graph
    /// spine end here: `O(V + E)`, no sorts, no probes. The vertex
    /// count is `max(n, 1 + max endpoint)`.
    pub fn from_sorted_edges(n: usize, packed: &[u64], masks: &[EdgeMask]) -> Csr {
        debug_assert_eq!(packed.len(), masks.len());
        debug_assert!(packed.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let mut n = n;
        for &p in packed {
            let hi = (p >> 32) as usize;
            let lo = (p & 0xffff_ffff) as usize;
            n = n.max(hi + 1).max(lo + 1);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dsts = Vec::with_capacity(packed.len());
        offsets.push(0);
        let mut row = 0u32;
        for &p in packed {
            let src = (p >> 32) as u32;
            while row < src {
                offsets.push(dsts.len() as u32);
                row += 1;
            }
            dsts.push((p & 0xffff_ffff) as u32);
        }
        while (row as usize) < n {
            offsets.push(dsts.len() as u32);
            row += 1;
        }
        Csr {
            offsets,
            dsts,
            masks: masks.to_vec(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `v` of the forward adjacency: `(neighbours, masks)`, sorted by
    /// neighbour id.
    pub fn out_row(&self, v: u32) -> (&[u32], &[EdgeMask]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.dsts[lo..hi], &self.masks[lo..hi])
    }

    /// Outgoing `(dst, mask)` pairs of `v`, in ascending `dst` order.
    pub fn out_edges(&self, v: u32) -> impl Iterator<Item = (u32, EdgeMask)> + '_ {
        let (ds, ms) = self.out_row(v);
        ds.iter().copied().zip(ms.iter().copied())
    }

    /// Outgoing neighbours of `v` reachable via at least one class in
    /// `allowed`.
    pub fn out_neighbors_masked(
        &self,
        v: u32,
        allowed: EdgeMask,
    ) -> impl Iterator<Item = u32> + '_ {
        self.out_edges(v)
            .filter(move |(_, m)| m.intersects(allowed))
            .map(|(d, _)| d)
    }

    /// The mask on edge `(src, dst)` — a binary search of `src`'s row — or
    /// the empty mask if absent.
    pub fn edge_mask(&self, src: u32, dst: u32) -> EdgeMask {
        let (ds, ms) = self.out_row(src);
        match ds.binary_search(&dst) {
            Ok(i) => ms[i],
            Err(_) => EdgeMask::NONE,
        }
    }

    /// All edges as `(src, dst, mask)`, in `(src, dst)` lexicographic
    /// order — a stable ordering independent of insertion history.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, EdgeMask)> + '_ {
        (0..self.vertex_count() as u32)
            .flat_map(move |v| self.out_edges(v).map(move |(d, m)| (v, d, m)))
    }
}

/// A flat buffer of `(src, dst, mask)` edge tuples, packed as
/// `src << 32 | dst` — how a [`Csr`] is built from edges produced in any
/// order. Producers append (duplicates welcome); [`EdgeBuf::build`]
/// sorts by the packed key — a counting-sort scatter on `src` (the
/// radix) followed by small per-row sorts on `dst` — merges duplicate
/// pairs' masks, and emits the frozen [`Csr`] directly. No per-edge hash
/// probe, no incremental adjacency growth: `O(V + E + Σ rows r·log r)`
/// with flat sequential memory traffic.
///
/// Checked against a `BTreeMap` model of the same edge multiset by
/// `edgebuf_build_matches_model` in `crates/graph/tests/csr_props.rs`.
#[derive(Debug, Clone, Default)]
pub struct EdgeBuf {
    /// `(src << 32 | dst, mask)`, in push order.
    edges: Vec<(u64, EdgeMask)>,
}

impl EdgeBuf {
    /// An empty buffer with room for `n` edges.
    pub fn with_capacity(n: usize) -> EdgeBuf {
        EdgeBuf {
            edges: Vec::with_capacity(n),
        }
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, src: u32, dst: u32, m: EdgeMask) {
        self.edges.push(((src as u64) << 32 | dst as u64, m));
    }

    /// Sort, dedup (merging masks), and freeze into a [`Csr`] with at
    /// least `n` vertices. Consumes the buffered tuples; the buffer is
    /// left empty with its capacity intact.
    pub fn build(&mut self, n: usize) -> Csr {
        let mut n = n;
        for &(p, _) in &self.edges {
            let hi = (p >> 32) as usize;
            let lo = (p & 0xffff_ffff) as usize;
            n = n.max(hi + 1).max(lo + 1);
        }
        // Radix pass: counting-sort scatter on the high 32 bits (src).
        let mut counts = vec![0u32; n + 1];
        for &(p, _) in &self.edges {
            counts[(p >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut slots: Vec<(u64, EdgeMask)> = vec![(0, EdgeMask::NONE); self.edges.len()];
        {
            let mut cursor = counts.clone();
            for &(p, m) in &self.edges {
                let s = (p >> 32) as usize;
                slots[cursor[s] as usize] = (p, m);
                cursor[s] += 1;
            }
        }
        self.edges.clear();
        // Per-row sort on dst, then one sweep that merges duplicate
        // pairs' masks.
        let mut packed: Vec<u64> = Vec::with_capacity(slots.len());
        let mut masks: Vec<EdgeMask> = Vec::with_capacity(slots.len());
        for row in 0..n {
            let lo = counts[row] as usize;
            let hi = counts[row + 1] as usize;
            let row = &mut slots[lo..hi];
            row.sort_unstable_by_key(|&(p, _)| p);
            for &(p, m) in row.iter() {
                if packed.last() == Some(&p) {
                    let last = masks.last_mut().expect("parallel to packed");
                    *last = last.union(m);
                } else {
                    packed.push(p);
                    masks.push(m);
                }
            }
        }
        Csr::from_sorted_edges(n, &packed, &masks)
    }
}

/// A word-packed bitset over dense `u32` ids with sparse clearing.
///
/// [`BitSet::clear`] zeroes only the words a search actually touched, so a
/// BFS over a 30-vertex component of a million-vertex graph pays for 30
/// bits, not a megabit memset.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl BitSet {
    /// Make room for ids `0..n`.
    pub(crate) fn ensure(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Set bit `i`; returns `true` if it was previously unset.
    pub(crate) fn insert(&mut self, i: u32) -> bool {
        let w = (i >> 6) as usize;
        let bit = 1u64 << (i & 63);
        let word = &mut self.words[w];
        if *word == 0 {
            self.touched.push(w as u32);
        }
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Clear bit `i` (its word stays on the touched list).
    pub(crate) fn remove(&mut self, i: u32) {
        self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    /// Is bit `i` set?
    pub(crate) fn contains(&self, i: u32) -> bool {
        self.words[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
    }

    /// Reset to empty by zeroing only the touched words.
    pub(crate) fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Reusable working memory for the CSR search algorithms.
///
/// Create one per thread (or per sequential pass) and hand it to every
/// search: buffers grow to the largest graph seen and are then reused
/// without reallocation. The invariant is **clear-at-entry**, not
/// clear-at-exit: each algorithm resets the transient state it reads
/// (`visited` and `queue` at the start of every BFS, the Tarjan discovery
/// state at the start of every SCC pass) and may leave it populated when
/// it returns. Only the shared `in_scope` set, which outlives the BFS
/// calls within one per-component search, is cleared on exit. The BFS
/// `parent` array and Tarjan `lowlink` are *never* cleared: entries are
/// only read for vertices marked in `visited` / discovered during the
/// same search. New algorithms must follow the same convention — never
/// read transient scratch state without clearing it first.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// BFS visited set.
    pub(crate) visited: BitSet,
    /// Component membership during per-SCC searches.
    pub(crate) in_scope: BitSet,
    /// BFS predecessor per visited vertex (no-clear; see type docs).
    pub(crate) parent: Vec<u32>,
    /// BFS queue, drained by index rather than pop-front.
    pub(crate) queue: Vec<u32>,
    /// Tarjan: discovery index per vertex (`u32::MAX` = unvisited).
    pub(crate) index_of: Vec<u32>,
    /// Tarjan: lowlink per visited vertex (no-clear).
    pub(crate) lowlink: Vec<u32>,
    /// Tarjan: on-stack flags.
    pub(crate) on_stack: BitSet,
    /// Tarjan: the component stack.
    pub(crate) stack: Vec<u32>,
    /// Tarjan: explicit DFS frames `(vertex, row position)`.
    pub(crate) frames: Vec<(u32, u32)>,
    /// Region membership for restricted SCC passes (cleared on exit by
    /// its user, like `in_scope`).
    pub(crate) region: BitSet,
}

impl Scratch {
    /// A fresh scratch; buffers are sized on first use.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Size every buffer for a graph of `n` vertices.
    pub(crate) fn ensure_bfs(&mut self, n: usize) {
        self.visited.ensure(n);
        self.in_scope.ensure(n);
        if self.parent.len() < n {
            self.parent.resize(n, u32::MAX);
        }
    }

    /// Size the Tarjan buffers and reset discovery state.
    pub(crate) fn reset_tarjan(&mut self, n: usize) {
        self.index_of.clear();
        self.index_of.resize(n, u32::MAX);
        if self.lowlink.len() < n {
            self.lowlink.resize(n, 0);
        }
        self.on_stack.ensure(n);
        self.on_stack.clear();
        self.stack.clear();
        self.frames.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::EdgeClass;

    /// Freeze `edges` (single-class tuples, any order) through an
    /// [`EdgeBuf`] into a CSR with at least `n` vertices.
    pub(crate) fn csr_of(n: usize, edges: &[(u32, u32, EdgeClass)]) -> Csr {
        let mut buf = EdgeBuf::with_capacity(edges.len());
        for &(s, d, c) in edges {
            buf.push(s, d, EdgeMask::of(c));
        }
        buf.build(n)
    }

    #[test]
    fn freeze_sorts_rows_and_preserves_masks() {
        let c = csr_of(
            4,
            &[
                (0, 3, EdgeClass::Ww),
                (0, 1, EdgeClass::Wr),
                (0, 2, EdgeClass::Rw),
                (0, 1, EdgeClass::Ww), // merges with the wr edge
            ],
        );
        assert_eq!(c.vertex_count(), 4);
        assert_eq!(c.edges().count(), 3);
        let (ds, _) = c.out_row(0);
        assert_eq!(ds, &[1, 2, 3]);
        assert_eq!(c.edge_mask(0, 1), EdgeMask::WW | EdgeMask::WR);
        assert_eq!(c.edge_mask(0, 2), EdgeMask::RW);
        assert_eq!(c.edge_mask(0, 3), EdgeMask::WW);
        assert_eq!(c.edge_mask(1, 0), EdgeMask::NONE);
        assert_eq!(c.edge_mask(3, 3), EdgeMask::NONE);
    }

    #[test]
    fn freeze_order_independent_of_insertion() {
        let a = csr_of(3, &[(0, 2, EdgeClass::Ww), (0, 1, EdgeClass::Wr)]);
        let b = csr_of(3, &[(0, 1, EdgeClass::Wr), (0, 2, EdgeClass::Ww)]);
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn masked_neighbors_filter_at_traversal() {
        let c = csr_of(
            4,
            &[
                (0, 1, EdgeClass::Ww),
                (0, 2, EdgeClass::Rw),
                (0, 3, EdgeClass::Wr),
            ],
        );
        let ww_rw: Vec<u32> = c
            .out_neighbors_masked(0, EdgeMask::WW | EdgeMask::RW)
            .collect();
        assert_eq!(ww_rw, vec![1, 2]);
    }

    #[test]
    fn merge_parallel_edges() {
        let c = csr_of(
            3,
            &[
                (0, 1, EdgeClass::Ww),
                (0, 1, EdgeClass::Wr),
                (0, 2, EdgeClass::Rw),
                (0, 1, EdgeClass::Ww), // same class again: still one edge
            ],
        );
        assert_eq!(c.edges().count(), 2);
        assert_eq!(c.edge_mask(0, 1), EdgeMask::WW | EdgeMask::WR);
        assert_eq!(c.edge_mask(0, 2), EdgeMask::RW);
        assert_eq!(c.edge_mask(1, 0), EdgeMask::NONE);
        let (ds, ms) = c.out_row(0);
        assert_eq!(ds, &[1, 2]);
        assert_eq!(ms, &[EdgeMask::WW | EdgeMask::WR, EdgeMask::RW]);
    }

    #[test]
    fn masked_neighbors() {
        // A merged edge matches any mask that shares one of its classes.
        let c = csr_of(
            4,
            &[
                (0, 1, EdgeClass::Ww),
                (0, 2, EdgeClass::Rw),
                (0, 3, EdgeClass::Wr),
                (0, 3, EdgeClass::Process),
            ],
        );
        let of = |m: EdgeMask| -> Vec<u32> { c.out_neighbors_masked(0, m).collect() };
        assert_eq!(of(EdgeMask::WW | EdgeMask::RW), vec![1, 2]);
        assert_eq!(of(EdgeMask::WR), vec![3]);
        assert_eq!(of(EdgeMask::PROCESS | EdgeMask::WW), vec![1, 3]);
        assert_eq!(of(EdgeMask::NONE), Vec::<u32>::new());
        assert_eq!(of(EdgeMask::ALL), vec![1, 2, 3]);
        assert_eq!(c.out_neighbors_masked(3, EdgeMask::ALL).count(), 0);
    }

    #[test]
    fn empty_graph_freezes() {
        let c = EdgeBuf::default().build(0);
        assert_eq!(c.vertex_count(), 0);
        assert_eq!(c.edges().count(), 0);
    }

    #[test]
    fn grows_on_demand() {
        let c = csr_of(0, &[(5, 2, EdgeClass::Ww)]);
        assert_eq!(c.vertex_count(), 6);
        assert_eq!(c.out_edges(5).count(), 1);
        assert_eq!(csr_of(9, &[(5, 2, EdgeClass::Ww)]).vertex_count(), 9);
    }

    #[test]
    fn bitset_sparse_clear() {
        let mut b = BitSet::default();
        b.ensure(1000);
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.insert(900));
        assert!(b.contains(3));
        assert!(!b.contains(4));
        b.remove(3);
        assert!(!b.contains(3));
        assert!(b.insert(3));
        b.clear();
        assert!(!b.contains(3));
        assert!(!b.contains(900));
        assert!(b.insert(900));
    }
}
