//! The inferred dependency graph (IDSG) with per-edge witnesses, built
//! **hash-free**: edge producers append `(src, dst, witness)` tuples to
//! a flat pending buffer ([`DepGraph::add`] is a push, not a probe);
//! [`DepGraph::build`] seals the buffer by sorting it — a counting-sort
//! scatter on `src` (the radix of the packed `src << 32 | dst` key)
//! followed by small per-row sorts — deduplicating `(src, dst)` pairs
//! into a **spine**: one globally sorted edge array with a class mask
//! and the [`Ord`]-least witness per class hung off each edge. Repeated
//! builds (the streaming checker's epoch seals, the checker's
//! per-datatype merges) two-way-merge the sorted delta into the carried
//! spine with run-length block copies, so an incrementally grown graph
//! is byte-identical to a batch-built one.
//!
//! [`DepGraph::freeze`] then emits the immutable [`Csr`] directly from
//! the spine — a linear pass, no sorts and no `(src, dst) → position`
//! hash index anywhere on the path.
//!
//! ## Canonical witnesses
//!
//! Every report-visible query ([`DepGraph::present`],
//! [`DepGraph::witness_of_class`]) resolves to the [`Ord`]-least
//! witness of a class, so retaining exactly that witness per
//! `(edge, class)` during dedup preserves reports byte-for-byte while
//! dropping the unbounded per-edge witness lists the hash-indexed
//! design carried.

use crate::anomaly::Witness;
use elle_graph::{Csr, EdgeClass, EdgeMask};
use elle_history::TxnId;
use rustc_hash::FxHashMap;

#[inline]
fn pack(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// The sealed, sorted half of a [`DepGraph`]: edges ascending by packed
/// `(src, dst)` key, each carrying its class mask and a witness row
/// sorted by class discriminant (one — the `Ord`-least — per class
/// present in the mask).
///
/// Witness rows live in an **append-only arena** addressed by
/// `(offset, len)` per edge. A sorted two-way merge then moves only
/// 13 bytes per edge (key + mask + row address) for untouched runs —
/// the dominant case at a streaming epoch seal — and appends to the
/// arena only the rows the delta actually introduced or improved.
#[derive(Debug, Clone, Default)]
struct Spine {
    /// `src << 32 | dst`, strictly ascending.
    packed: Vec<u64>,
    /// Class mask per edge, parallel to `packed`.
    masks: Vec<EdgeMask>,
    /// Witness row per edge: `(arena offset, row length)`. A row holds
    /// one witness per class present in the edge's mask, ascending by
    /// class discriminant — at most 8.
    rows: Vec<(u32, u8)>,
    /// The witness arena. Superseded rows (an edge whose canonical
    /// witness improved across merges) leak until the next full
    /// rebuild — bounded by the number of distinct improvements, far
    /// below the duplicate witness lists the hash-indexed design kept.
    arena: Vec<Witness>,
    /// Distinct edges per class (indexed by `EdgeClass` discriminant),
    /// recomputed on every merge.
    counts: [usize; 8],
}

impl Spine {
    fn wit_row(&self, i: usize) -> &[Witness] {
        let (off, len) = self.rows[i];
        &self.arena[off as usize..off as usize + len as usize]
    }

    /// Append one edge whose witness row was just pushed onto the end
    /// of `self.arena` (`row_start` = arena offset of its first entry).
    fn push_tail_row(&mut self, packed: u64, mask: EdgeMask, row_start: usize) {
        self.packed.push(packed);
        self.masks.push(mask);
        self.rows
            .push((row_start as u32, (self.arena.len() - row_start) as u8));
    }

    /// Recompute per-class edge counts via a mask-byte histogram: one
    /// byte read per edge, then a 256 × 8 unpack — no per-edge
    /// class iteration.
    fn recount(&mut self) {
        let mut hist = [0usize; 256];
        for m in &self.masks {
            hist[m.0 as usize] += 1;
        }
        self.counts = [0; 8];
        for (byte, n) in hist.into_iter().enumerate() {
            if n == 0 {
                continue;
            }
            for c in 0..8 {
                if byte & (1 << c) != 0 {
                    self.counts[c] += n;
                }
            }
        }
    }
}

/// Recyclable merge-output buffers: the spine vectors retired by one
/// merge become the output buffers of the next, so steady-state epoch
/// seals allocate nothing.
#[derive(Debug, Default)]
struct SpineBufs {
    packed: Vec<u64>,
    masks: Vec<EdgeMask>,
    rows: Vec<(u32, u8)>,
}

/// Merge two sorted spines, reusing `a`'s witness arena and `spare`'s
/// vector capacities. Runs unique to either side are block-copied (for
/// `a`'s runs the arena rows are carried by address, no witness moves
/// at all); edges present in both union their masks and keep the
/// `Ord`-least witness per class. On return `spare` holds `a`'s retired
/// buffers for the next merge.
fn merge_spines(a: Spine, b: Spine, spare: &mut SpineBufs) -> Spine {
    if a.packed.is_empty() {
        let mut b = b;
        b.recount();
        return b;
    }
    if b.packed.is_empty() {
        let mut a = a;
        a.recount();
        return a;
    }
    let n = a.packed.len() + b.packed.len();
    let mut out = Spine {
        packed: std::mem::take(&mut spare.packed),
        masks: std::mem::take(&mut spare.masks),
        rows: std::mem::take(&mut spare.rows),
        arena: Vec::new(),
        counts: [0; 8],
    };
    out.packed.clear();
    out.masks.clear();
    out.rows.clear();
    out.packed.reserve(n);
    out.masks.reserve(n);
    out.rows.reserve(n);
    // `a` is the carried spine: adopt its arena wholesale so untouched
    // rows keep their addresses; only delta rows append.
    out.arena = a.arena;
    out.arena.reserve(b.arena.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.packed.len() && j < b.packed.len() {
        if a.packed[i] < b.packed[j] {
            let run = i + a.packed[i..].partition_point(|&p| p < b.packed[j]);
            out.packed.extend_from_slice(&a.packed[i..run]);
            out.masks.extend_from_slice(&a.masks[i..run]);
            out.rows.extend_from_slice(&a.rows[i..run]);
            i = run;
        } else if b.packed[j] < a.packed[i] {
            let run = j + b.packed[j..].partition_point(|&p| p < a.packed[i]);
            for k in j..run {
                let start = out.arena.len();
                let (off, len) = b.rows[k];
                out.arena
                    .extend_from_slice(&b.arena[off as usize..off as usize + len as usize]);
                out.push_tail_row(b.packed[k], b.masks[k], start);
            }
            j = run;
        } else {
            // Same (src, dst): union masks, merge witness rows by class
            // keeping the least witness where both sides have one. When
            // the merged row equals `a`'s existing row — the common
            // "evidence re-derived, nothing improved" case — the edge
            // keeps its arena address and nothing is copied.
            let (aoff, alen) = a.rows[i];
            let ra = &out.arena[aoff as usize..aoff as usize + alen as usize];
            let (boff, blen) = b.rows[j];
            let rb = &b.arena[boff as usize..boff as usize + blen as usize];
            let mut changed = false;
            let mut merged: Vec<Witness> = Vec::with_capacity(8);
            let (mut x, mut y) = (0usize, 0usize);
            while x < ra.len() && y < rb.len() {
                let (ca, cb) = (ra[x].class() as u8, rb[y].class() as u8);
                match ca.cmp(&cb) {
                    std::cmp::Ordering::Less => {
                        merged.push(ra[x].clone());
                        x += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(rb[y].clone());
                        changed = true;
                        y += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        if rb[y] < ra[x] {
                            merged.push(rb[y].clone());
                            changed = true;
                        } else {
                            merged.push(ra[x].clone());
                        }
                        x += 1;
                        y += 1;
                    }
                }
            }
            if x < ra.len() {
                merged.extend_from_slice(&ra[x..]);
            }
            if y < rb.len() {
                merged.extend_from_slice(&rb[y..]);
                changed = true;
            }
            out.packed.push(a.packed[i]);
            out.masks.push(a.masks[i].union(b.masks[j]));
            if changed {
                let start = out.arena.len();
                out.arena.append(&mut merged);
                out.rows
                    .push((start as u32, (out.arena.len() - start) as u8));
            } else {
                out.rows.push(a.rows[i]);
            }
            i += 1;
            j += 1;
        }
    }
    out.packed.extend_from_slice(&a.packed[i..]);
    out.masks.extend_from_slice(&a.masks[i..]);
    out.rows.extend_from_slice(&a.rows[i..]);
    for k in j..b.packed.len() {
        let start = out.arena.len();
        let (off, len) = b.rows[k];
        out.arena
            .extend_from_slice(&b.arena[off as usize..off as usize + len as usize]);
        out.push_tail_row(b.packed[k], b.masks[k], start);
    }
    out.recount();
    // Retire `a`'s (fully consumed) buffers for the next merge.
    spare.packed = a.packed;
    spare.masks = a.masks;
    spare.rows = a.rows;
    out
}

/// The Inferred Direct Serialization Graph of §4.3.2, over observed
/// transactions, each edge annotated with the evidence that produced it.
///
/// Mutation is two-phase: [`DepGraph::add`] appends to a flat pending
/// buffer; [`DepGraph::build`] (or [`DepGraph::freeze`], which calls
/// it) seals pending edges into the sorted spine. Queries read the
/// spine only — call them after a build/freeze.
#[derive(Debug, Default)]
pub struct DepGraph {
    /// Vertex floor: vertex `i` is transaction `TxnId(i)`.
    txns: usize,
    /// Unsealed edges, in emission order.
    pending: Vec<(u64, Witness)>,
    /// The sealed, sorted edge set.
    spine: Spine,
    /// High-water mark of the pending buffer (observability: reported
    /// by `--timing` as the peak EdgeBuf length).
    peak_pending: usize,
    /// Recycled merge-output buffers (see [`SpineBufs`]).
    spare: SpineBufs,
    /// Per-class counts of edges retired from the spine (windowed
    /// streaming), folded into [`DepGraph::class_counts`] so report
    /// statistics keep covering the whole prefix.
    extra: [usize; 8],
}

impl DepGraph {
    /// A graph able to hold `n` transactions.
    pub fn with_txns(n: usize) -> Self {
        DepGraph {
            txns: n,
            ..DepGraph::default()
        }
    }

    /// Grow the vertex set to hold transactions `0..n` (used by the
    /// streaming checker as the history extends; vertices without edges
    /// are harmless but keep frozen snapshots aligned with batch runs).
    pub fn ensure_txns(&mut self, n: usize) {
        self.txns = self.txns.max(n);
    }

    /// The vertex floor: frozen snapshots hold at least this many
    /// vertices, edges or not.
    pub fn txns_floor(&self) -> usize {
        self.txns
    }

    /// Pre-size the pending buffer for `n` additional edges.
    pub fn reserve_edges(&mut self, n: usize) {
        self.pending.reserve(n);
    }

    /// Add a dependency `from < to` substantiated by `witness` — a push
    /// into the flat pending buffer; no hash probe, no dedup until
    /// [`DepGraph::build`].
    ///
    /// Self-dependencies are dropped: Adya's serialization graphs assume
    /// `Ti ≠ Tj` (§4.1.4, footnote 3 of the paper).
    #[inline]
    pub fn add(&mut self, from: TxnId, to: TxnId, witness: Witness) {
        if from == to {
            return;
        }
        self.pending.push((pack(from.0, to.0), witness));
    }

    /// Peak length the pending edge buffer reached since construction
    /// (or the last [`DepGraph::take_edge_buf_peak`]) — the `--timing`
    /// observability hook for the sort-based pipeline.
    pub fn edge_buf_peak(&self) -> usize {
        self.peak_pending.max(self.pending.len())
    }

    /// Read and reset the peak gauge. The streaming checker calls this
    /// at each seal so every epoch reports *its own* buffered-delta
    /// peak, not the lifetime maximum.
    pub fn take_edge_buf_peak(&mut self) -> usize {
        let peak = self.edge_buf_peak();
        self.peak_pending = 0;
        peak
    }

    /// Seal the pending buffer into the sorted spine: counting-sort
    /// scatter on `src`, per-row sort on `(dst, class)`, dedup keeping
    /// the `Ord`-least witness per `(edge, class)`, then a two-way
    /// sorted merge with the carried spine (block-copying untouched
    /// runs). Idempotent when nothing is pending.
    pub fn build(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.peak_pending = self.peak_pending.max(self.pending.len());
        let pending = std::mem::take(&mut self.pending);

        // ── Radix pass: scatter by src (high 32 bits of the packed
        //    key). Each slot packs the remaining sort key and the
        //    pending index into one u64 — `dst (32) | class (3) |
        //    index (29)` — so the random-position scatter writes 8
        //    bytes per edge, not 16. ─────────────────────────────────────
        assert!(pending.len() < (1 << 29), "edge buffer exceeds 2^29 tuples");
        let mut rows = 0usize;
        for &(p, _) in &pending {
            rows = rows.max((p >> 32) as usize + 1);
        }
        let mut counts = crate::pool::take_u32(rows + 1);
        for &(p, _) in &pending {
            counts[(p >> 32) as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut slots: Vec<u64> = crate::pool::take_u64(pending.len());
        {
            let mut cursor = crate::pool::take_u32_empty();
            cursor.extend_from_slice(&counts[..rows]);
            for (idx, (p, w)) in pending.iter().enumerate() {
                let s = (p >> 32) as usize;
                let slot = (p & 0xffff_ffff) << 32 | (w.class() as u64) << 29 | idx as u64;
                slots[cursor[s] as usize] = slot;
                cursor[s] += 1;
            }
            crate::pool::put_u32(cursor);
        }

        // ── Per-row sorts + dedup sweep into a sorted delta spine:
        //    classes ascend within an edge, so each edge's canonical
        //    witness row lands contiguously in the delta arena. ─────────
        let mut delta = Spine {
            packed: Vec::with_capacity(pending.len()),
            masks: Vec::with_capacity(pending.len()),
            rows: Vec::with_capacity(pending.len()),
            arena: Vec::with_capacity(pending.len().min(1 << 20)),
            counts: [0; 8],
        };
        const IDX_MASK: u64 = (1 << 29) - 1;
        let mut mask = EdgeMask::NONE;
        let mut cur: Option<u64> = None;
        let mut row_start = 0usize;
        for src in 0..rows {
            let (lo, hi) = (counts[src] as usize, counts[src + 1] as usize);
            slots[lo..hi].sort_unstable();
            let mut i = lo;
            while i < hi {
                let slot = slots[i];
                let key = slot & !IDX_MASK; // (dst, class)
                let packed = (src as u64) << 32 | (slot >> 32);
                let class_bit = EdgeMask(1 << ((slot >> 29) & 7) as u8);
                // The least witness of this (edge, class) run.
                let mut least = &pending[(slot & IDX_MASK) as usize].1;
                i += 1;
                while i < hi && slots[i] & !IDX_MASK == key {
                    let w = &pending[(slots[i] & IDX_MASK) as usize].1;
                    if w < least {
                        least = w;
                    }
                    i += 1;
                }
                if cur != Some(packed) {
                    if let Some(p) = cur {
                        delta.push_tail_row(p, mask, row_start);
                    }
                    cur = Some(packed);
                    mask = EdgeMask::NONE;
                    row_start = delta.arena.len();
                }
                mask = mask.union(class_bit);
                delta.arena.push(least.clone());
            }
        }
        if let Some(p) = cur {
            delta.push_tail_row(p, mask, row_start);
        }
        crate::pool::put_u32(counts);
        crate::pool::put_u64(slots);

        // ── Two-way merge into the carried spine. ─────────────────────
        let prev = std::mem::take(&mut self.spine);
        self.spine = merge_spines(prev, delta, &mut self.spare);
    }

    /// Number of distinct sealed `(src, dst)` edges (classes merged).
    pub fn edge_count(&self) -> usize {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        self.spine.packed.len()
    }

    /// The mask on sealed edge `(src, dst)` — a binary search of the
    /// spine — or the empty mask if absent.
    pub fn edge_mask(&self, src: u32, dst: u32) -> EdgeMask {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        match self.spine.packed.binary_search(&pack(src, dst)) {
            Ok(i) => self.spine.masks[i],
            Err(_) => EdgeMask::NONE,
        }
    }

    /// Sealed out-edges of `v` as `(dst, mask)` pairs, ascending by dst.
    pub fn out_edges(&self, v: u32) -> impl Iterator<Item = (u32, EdgeMask)> + '_ {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        let lo = self.spine.packed.partition_point(|&p| p < (v as u64) << 32);
        let hi = self
            .spine
            .packed
            .partition_point(|&p| p < (v as u64 + 1) << 32);
        self.spine.packed[lo..hi]
            .iter()
            .zip(&self.spine.masks[lo..hi])
            .map(|(&p, &m)| ((p & 0xffff_ffff) as u32, m))
    }

    /// Sealed out-neighbours of `v` reachable via at least one class in
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

    /// All sealed edges as `(src, dst, mask)`, in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, EdgeMask)> + '_ {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        self.spine
            .packed
            .iter()
            .zip(&self.spine.masks)
            .map(|(&p, &m)| ((p >> 32) as u32, (p & 0xffff_ffff) as u32, m))
    }

    /// The canonical witnesses on sealed edge `(from, to)`: the
    /// [`Ord`]-least witness of each class present, ascending by class.
    pub fn witnesses(&self, from: TxnId, to: TxnId) -> &[Witness] {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        match self.spine.packed.binary_search(&pack(from.0, to.0)) {
            Ok(i) => self.spine.wit_row(i),
            Err(_) => &[],
        }
    }

    /// A witness on `(from, to)` of a specific class, if one exists —
    /// the [`Ord`]-least such witness, so the answer is a function of the
    /// edge's witness *set*, not of insertion order.
    pub fn witness_of_class(&self, from: TxnId, to: TxnId, class: EdgeClass) -> Option<&Witness> {
        self.witnesses(from, to).iter().find(|w| w.class() == class)
    }

    /// Pick a witness for presenting edge `(from, to)`, preferring classes
    /// earlier in `preference` (restricted to `allowed`). Within a class
    /// the [`Ord`]-least witness wins, so presentation is canonical: an
    /// incrementally-grown graph presents exactly like a batch-built one
    /// regardless of the order evidence arrived in.
    pub fn present(
        &self,
        from: TxnId,
        to: TxnId,
        allowed: EdgeMask,
        preference: &[EdgeClass],
    ) -> Option<&Witness> {
        let ws = self.witnesses(from, to);
        for &c in preference {
            if !allowed.contains(c) {
                continue;
            }
            if let Some(w) = ws.iter().find(|w| w.class() == c) {
                return Some(w);
            }
        }
        // Fall back to the least allowed witness.
        ws.iter().filter(|w| allowed.contains(w.class())).min()
    }

    /// Count of distinct edges per class (for report statistics), read
    /// from counters maintained by the spine merges.
    pub fn class_counts(&self) -> FxHashMap<EdgeClass, usize> {
        debug_assert!(self.pending.is_empty(), "build() before querying");
        let mut counts: FxHashMap<EdgeClass, usize> = FxHashMap::default();
        for c in EdgeClass::ALL {
            let n = self.spine.counts[c as usize] + self.extra[c as usize];
            if n > 0 {
                counts.insert(c, n);
            }
        }
        counts
    }

    /// Replace the retired-edge counts folded into
    /// [`DepGraph::class_counts`]. The pipeline's windowed retirement
    /// owns the authoritative tally (it survives full graph rebuilds)
    /// and re-applies it here before assembling each report.
    pub fn set_extra_counts(&mut self, extra: [usize; 8]) {
        self.extra = extra;
    }

    /// Retire every sealed edge whose *source* is below `r`, compacting
    /// the spine (and its witness arena) in place. Returns the
    /// per-class counts of the dropped edges so the caller can fold
    /// them into [`DepGraph::set_extra_counts`].
    ///
    /// Precondition (maintained by the windowed checker's cycle-safety
    /// proof): no retained edge points backward into the retired range,
    /// so dropping sources below `r` removes the retired vertices'
    /// entire adjacency. Since the spine is sorted by `(src, dst)`, the
    /// retired edges are exactly a prefix.
    pub fn retire_below(&mut self, r: u32) -> [usize; 8] {
        self.build();
        let cut = self.spine.packed.partition_point(|&p| p < (r as u64) << 32);
        if cut == 0 {
            return [0; 8];
        }
        let before = self.spine.counts;
        drop(self.spine.packed.drain(..cut));
        drop(self.spine.masks.drain(..cut));
        drop(self.spine.rows.drain(..cut));
        debug_assert!(
            self.spine
                .packed
                .iter()
                .all(|&p| (p & 0xffff_ffff) >= r as u64),
            "retained edge points into the retired range"
        );
        self.spine.recount();

        // Compact the witness arena: copy the retained rows into a
        // fresh arena in row order, rewriting addresses, so retired
        // witnesses are actually released rather than leaking until the
        // next full rebuild.
        let mut arena: Vec<Witness> =
            Vec::with_capacity(self.spine.rows.iter().map(|&(_, len)| len as usize).sum());
        for row in &mut self.spine.rows {
            let (off, len) = *row;
            let start = arena.len();
            arena.extend_from_slice(&self.spine.arena[off as usize..off as usize + len as usize]);
            *row = (start as u32, len);
        }
        self.spine.arena = arena;

        let mut dropped = [0usize; 8];
        for (c, d) in dropped.iter_mut().enumerate() {
            *d = before[c] - self.spine.counts[c];
        }
        dropped
    }

    /// Bytes resident in the sealed spine (edges, masks, witness rows
    /// and arena) — the dominant carried-graph footprint a windowed
    /// checker meters against its byte budget.
    pub fn resident_bytes(&self) -> usize {
        self.spine.packed.len() * 8
            + self.spine.masks.len()
            + self.spine.rows.len() * std::mem::size_of::<(u32, u8)>()
            + self.spine.arena.len() * std::mem::size_of::<Witness>()
            + self.pending.len() * std::mem::size_of::<(u64, Witness)>()
    }

    /// Seal any pending edges and freeze the spine into an immutable
    /// [`Csr`] snapshot — sorted flat rows — on which all cycle searches
    /// run. A linear pass: the spine *is* the
    /// sorted edge list, so no per-row sort and no hash index.
    pub fn freeze(&mut self) -> Csr {
        self.build();
        Csr::from_sorted_edges(self.txns, &self.spine.packed, &self.spine.masks)
    }

    /// Merge another dependency graph into this one (used to combine the
    /// per-datatype inferences into a single IDSG): a two-way merge of
    /// the sealed spines plus concatenation of any pending buffers —
    /// cheap, since the datatype analyses partition edges by key.
    pub fn merge(&mut self, other: DepGraph) {
        self.txns = self.txns.max(other.txns);
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        for (c, n) in other.extra.iter().enumerate() {
            self.extra[c] += n;
        }
        self.pending.extend(other.pending);
        if !other.spine.packed.is_empty() {
            let prev = std::mem::take(&mut self.spine);
            self.spine = merge_spines(prev, other.spine, &mut self.spare);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::{Elem, Key, ProcessId};

    fn ww(k: u64, p: u64, n: u64) -> Witness {
        Witness::WwList {
            key: Key(k),
            prev: Elem(p),
            next: Elem(n),
        }
    }

    #[test]
    fn retire_below_drops_a_source_prefix_and_keeps_counts_whole() {
        let mut g = DepGraph::with_txns(5);
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.add(TxnId(1), TxnId(2), ww(1, 2, 3));
        g.add(
            TxnId(1),
            TxnId(3),
            Witness::WrList {
                key: Key(1),
                elem: Elem(3),
            },
        );
        g.add(TxnId(2), TxnId(3), ww(2, 1, 2));
        g.add(TxnId(3), TxnId(4), ww(2, 2, 3));
        g.build();
        let full = g.class_counts();

        let dropped = g.retire_below(2);
        assert_eq!(dropped[EdgeClass::Ww as usize], 2);
        assert_eq!(dropped[EdgeClass::Wr as usize], 1);
        assert_eq!(g.edge_count(), 2, "only retained-source edges remain");
        assert!(g.witnesses(TxnId(0), TxnId(1)).is_empty());
        assert_eq!(g.witnesses(TxnId(2), TxnId(3)), &[ww(2, 1, 2)]);
        assert_eq!(g.witnesses(TxnId(3), TxnId(4)), &[ww(2, 2, 3)]);

        // Folding the dropped counts back via extra keeps class_counts
        // identical to the unretired graph.
        g.set_extra_counts(dropped);
        assert_eq!(g.class_counts(), full);

        // Retiring below an untouched watermark is a no-op.
        assert_eq!(g.retire_below(1), [0; 8]);
    }

    #[test]
    fn self_edges_dropped() {
        let mut g = DepGraph::with_txns(2);
        g.add(TxnId(0), TxnId(0), ww(1, 1, 2));
        g.build();
        assert_eq!(g.edge_count(), 0);
        assert!(g.witnesses(TxnId(0), TxnId(0)).is_empty());
    }

    #[test]
    fn witnesses_accumulate() {
        let mut g = DepGraph::with_txns(2);
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.add(
            TxnId(0),
            TxnId(1),
            Witness::WrList {
                key: Key(1),
                elem: Elem(2),
            },
        );
        g.build();
        assert_eq!(g.witnesses(TxnId(0), TxnId(1)).len(), 2);
        assert!(g
            .witness_of_class(TxnId(0), TxnId(1), EdgeClass::Wr)
            .is_some());
        assert!(g
            .witness_of_class(TxnId(0), TxnId(1), EdgeClass::Rw)
            .is_none());
        assert_eq!(g.edge_mask(0, 1), EdgeMask::WW | EdgeMask::WR);
    }

    #[test]
    fn least_witness_per_class_survives_dedup() {
        let mut g = DepGraph::with_txns(2);
        g.add(TxnId(0), TxnId(1), ww(1, 5, 6));
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.add(TxnId(0), TxnId(1), ww(1, 3, 4));
        g.build();
        assert_eq!(g.witnesses(TxnId(0), TxnId(1)), &[ww(1, 1, 2)]);
        // Evidence arriving across separate builds dedups identically.
        let mut h = DepGraph::with_txns(2);
        h.add(TxnId(0), TxnId(1), ww(1, 3, 4));
        h.build();
        h.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        h.build();
        h.add(TxnId(0), TxnId(1), ww(1, 5, 6));
        h.build();
        assert_eq!(
            h.witnesses(TxnId(0), TxnId(1)),
            g.witnesses(TxnId(0), TxnId(1))
        );
    }

    #[test]
    fn presentation_prefers_order() {
        let mut g = DepGraph::with_txns(2);
        g.add(
            TxnId(0),
            TxnId(1),
            Witness::RwList {
                key: Key(1),
                read_last: None,
                next: Elem(2),
            },
        );
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.build();
        let w = g
            .present(
                TxnId(0),
                TxnId(1),
                EdgeMask::ALL,
                &[EdgeClass::Ww, EdgeClass::Rw],
            )
            .unwrap();
        assert_eq!(w.class(), EdgeClass::Ww);
        // Restrict to rw only:
        let w = g
            .present(
                TxnId(0),
                TxnId(1),
                EdgeMask::RW,
                &[EdgeClass::Ww, EdgeClass::Rw],
            )
            .unwrap();
        assert_eq!(w.class(), EdgeClass::Rw);
    }

    #[test]
    fn freeze_snapshots_spine() {
        let mut g = DepGraph::with_txns(3);
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.add(
            TxnId(1),
            TxnId(2),
            Witness::WrList {
                key: Key(1),
                elem: Elem(2),
            },
        );
        let csr = g.freeze();
        assert_eq!(csr.vertex_count(), 3);
        assert_eq!(csr.edges().count(), 2);
        assert_eq!(csr.edge_mask(0, 1), EdgeMask::WW);
        assert_eq!(csr.edge_mask(1, 2), EdgeMask::WR);
        assert_eq!(csr.edge_mask(2, 0), EdgeMask::NONE);
    }

    #[test]
    fn merge_combines_edges() {
        let mut a = DepGraph::with_txns(3);
        a.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        a.build();
        let mut b = DepGraph::with_txns(3);
        b.add(
            TxnId(1),
            TxnId(2),
            Witness::Process {
                process: ProcessId(0),
            },
        );
        b.build();
        a.merge(b);
        assert_eq!(a.edge_count(), 2);
        assert_eq!(a.witnesses(TxnId(1), TxnId(2)).len(), 1);
    }

    #[test]
    fn class_counts() {
        let mut g = DepGraph::with_txns(3);
        g.add(TxnId(0), TxnId(1), ww(1, 1, 2));
        g.add(TxnId(1), TxnId(2), ww(1, 2, 3));
        g.add(
            TxnId(0),
            TxnId(1),
            Witness::WrList {
                key: Key(1),
                elem: Elem(2),
            },
        );
        g.build();
        let c = g.class_counts();
        assert_eq!(c.get(&EdgeClass::Ww), Some(&2));
        assert_eq!(c.get(&EdgeClass::Wr), Some(&1));
    }

    #[test]
    fn incremental_builds_match_one_shot() {
        // The same edge multiset split across many build() calls must
        // produce an identical spine (edges, masks, witnesses, counts).
        let all: Vec<(u32, u32, Witness)> = vec![
            (0, 1, ww(1, 1, 2)),
            (2, 0, ww(2, 4, 5)),
            (
                0,
                1,
                Witness::WrList {
                    key: Key(1),
                    elem: Elem(2),
                },
            ),
            (1, 2, ww(1, 2, 3)),
            (0, 1, ww(1, 0, 1)),
            (2, 0, Witness::Rr { key: Key(9) }),
        ];
        let mut one = DepGraph::with_txns(3);
        for (a, b, w) in &all {
            one.add(TxnId(*a), TxnId(*b), w.clone());
        }
        one.build();
        for split in 0..=all.len() {
            let mut inc = DepGraph::with_txns(3);
            for (a, b, w) in &all[..split] {
                inc.add(TxnId(*a), TxnId(*b), w.clone());
            }
            inc.build();
            for (a, b, w) in &all[split..] {
                inc.add(TxnId(*a), TxnId(*b), w.clone());
            }
            inc.build();
            let e1: Vec<_> = one.edges().collect();
            let e2: Vec<_> = inc.edges().collect();
            assert_eq!(e1, e2, "split {split}");
            for (a, b, _) in one.edges() {
                assert_eq!(
                    one.witnesses(TxnId(a), TxnId(b)),
                    inc.witnesses(TxnId(a), TxnId(b)),
                    "split {split} witnesses {a}->{b}"
                );
            }
            assert_eq!(one.class_counts(), inc.class_counts(), "split {split}");
        }
    }
}
