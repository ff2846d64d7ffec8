//! Differential property tests for the sort-based `DepGraph` build:
//! on random edge multisets with random witnesses, the flat-buffer +
//! sorted-spine pipeline must agree with a naive hash/tree-indexed
//! reference — same edge set, same masks, same canonical (per-class
//! `Ord`-least) witnesses, same class counts — no matter how the edge
//! stream is split across incremental [`DepGraph::build`] calls, and
//! its frozen CSR must hold exactly the reference's edges and masks over
//! at least the graph's vertex floor.

use elle_core::{DepGraph, Witness};
use elle_graph::EdgeMask;
use elle_history::{Elem, Key, ProcessId, TxnId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small pool of witness shapes covering every class.
fn arb_witness() -> impl Strategy<Value = Witness> {
    (0u8..7, 0u64..4, 0u64..4).prop_map(|(shape, k, e)| match shape {
        0 => Witness::WwList {
            key: Key(k),
            prev: Elem(e),
            next: Elem(e + 1),
        },
        1 => Witness::WrList {
            key: Key(k),
            elem: Elem(e),
        },
        2 => Witness::RwList {
            key: Key(k),
            read_last: (e > 0).then_some(Elem(e)),
            next: Elem(e + 1),
        },
        3 => Witness::Rr { key: Key(k) },
        4 => Witness::Process {
            process: ProcessId(k as u32),
        },
        5 => Witness::Realtime {
            complete: e as usize,
            invoke: e as usize + 1 + k as usize,
        },
        _ => Witness::Timestamp {
            commit: e,
            start: e + 1 + k,
        },
    })
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32, Witness)>> {
    prop::collection::vec((0u32..10, 0u32..10, arb_witness()), 0..120)
}

/// The reference semantics: per `(src, dst)` pair, the union of witness
/// classes and the `Ord`-least witness per class.
type Reference = BTreeMap<(u32, u32), BTreeMap<u8, Witness>>;

fn reference(edges: &[(u32, u32, Witness)]) -> Reference {
    let mut m: Reference = BTreeMap::new();
    for (a, b, w) in edges {
        if a == b {
            continue; // self-edges dropped, as in DepGraph::add
        }
        let per_class = m.entry((*a, *b)).or_default();
        per_class
            .entry(w.class() as u8)
            .and_modify(|prev| {
                if w < prev {
                    *prev = w.clone();
                }
            })
            .or_insert_with(|| w.clone());
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bulk build == reference, under any split of the edge stream into
    /// incremental builds (batch: one build; stream: build per epoch).
    #[test]
    fn sort_build_matches_reference(
        edges in arb_edges(),
        split_num in 0u32..=100,
    ) {
        let split = edges.len() * split_num as usize / 100;
        let mut g = DepGraph::with_txns(10);
        for (a, b, w) in &edges[..split] {
            g.add(TxnId(*a), TxnId(*b), w.clone());
        }
        g.build();
        for (a, b, w) in &edges[split..] {
            g.add(TxnId(*a), TxnId(*b), w.clone());
        }
        g.build();

        let model = reference(&edges);
        prop_assert_eq!(g.edge_count(), model.len());
        let got: Vec<(u32, u32)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        let want: Vec<(u32, u32)> = model.keys().copied().collect();
        prop_assert_eq!(got, want, "edge order");
        let mut want_counts: BTreeMap<u8, usize> = BTreeMap::new();
        for ((a, b), per_class) in &model {
            let mut mask = EdgeMask::NONE;
            for c in per_class.keys() {
                mask = mask.union(EdgeMask(1 << c));
                *want_counts.entry(*c).or_insert(0) += 1;
            }
            prop_assert_eq!(g.edge_mask(*a, *b), mask, "mask {}->{}", a, b);
            let wits: Vec<Witness> = per_class.values().cloned().collect();
            prop_assert_eq!(
                g.witnesses(TxnId(*a), TxnId(*b)),
                wits.as_slice(),
                "witnesses {}->{}", a, b
            );
        }
        let counts: BTreeMap<u8, usize> = g
            .class_counts()
            .into_iter()
            .map(|(c, n)| (c as u8, n))
            .collect();
        prop_assert_eq!(counts, want_counts, "class counts");
    }

    /// The frozen CSR holds exactly the reference's `(src, dst, mask)`
    /// edges in lexicographic order, over the `with_txns` vertex floor.
    #[test]
    fn sort_build_freeze_matches_reference(edges in arb_edges()) {
        let mut g = DepGraph::with_txns(10);
        for (a, b, w) in &edges {
            g.add(TxnId(*a), TxnId(*b), w.clone());
        }
        let csr = g.freeze();
        prop_assert_eq!(csr.vertex_count(), 10);
        let got: Vec<_> = csr.edges().collect();
        let want: Vec<_> = reference(&edges)
            .into_iter()
            .map(|((a, b), per_class)| {
                let mask = per_class
                    .keys()
                    .fold(EdgeMask::NONE, |m, c| m.union(EdgeMask(1 << c)));
                (a, b, mask)
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Merging two graphs == building one graph from the concatenation.
    #[test]
    fn merge_matches_concatenated_build(
        left in arb_edges(),
        right in arb_edges(),
    ) {
        let mut a = DepGraph::with_txns(10);
        for (x, y, w) in &left {
            a.add(TxnId(*x), TxnId(*y), w.clone());
        }
        a.build();
        let mut b = DepGraph::with_txns(10);
        for (x, y, w) in &right {
            b.add(TxnId(*x), TxnId(*y), w.clone());
        }
        b.build();
        a.merge(b);
        a.build();

        let mut both = DepGraph::with_txns(10);
        for (x, y, w) in left.iter().chain(&right) {
            both.add(TxnId(*x), TxnId(*y), w.clone());
        }
        both.build();

        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = both.edges().collect();
        prop_assert_eq!(ea, eb);
        for (x, y, _) in both.edges() {
            prop_assert_eq!(
                a.witnesses(TxnId(x), TxnId(y)),
                both.witnesses(TxnId(x), TxnId(y)),
                "witnesses {}->{}", x, y
            );
        }
        prop_assert_eq!(a.class_counts(), both.class_counts());
    }
}
