//! Differential property tests for the frozen CSR substrate: on random
//! multi-class graphs, the CSR Tarjan and BFS cycle searches must agree
//! with the reference implementations in `reference/mod.rs`, which run
//! over a plain insertion-ordered adjacency list.
//!
//! Two regimes:
//!
//! * **sorted insertion** — edges are inserted in `(src, dst)` order, so
//!   the reference's adjacency order equals the CSR's sorted row order and
//!   both implementations traverse identically: results must be *exactly*
//!   equal, tie-breaking included;
//! * **arbitrary insertion** — traversal orders may differ, so we compare
//!   order-insensitive facts: the build round-trip, SCC partitions,
//!   cycle existence and shortest lengths, and the validity of every
//!   cycle the CSR search emits.

mod reference;

use elle_graph::{Csr, CycleSpec, EdgeBuf, EdgeClass, EdgeMask, Scratch};
use proptest::prelude::*;
use reference::{find_cycle, find_cycle_with_single, tarjan_scc, AdjList};
use std::collections::BTreeMap;

const CLASSES: [EdgeClass; 4] = [
    EdgeClass::Ww,
    EdgeClass::Wr,
    EdgeClass::Rw,
    EdgeClass::Process,
];

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    prop::collection::vec((0..n as u32, 0..n as u32, 0..4u8), 0..n * 4)
}

/// Merge duplicate `(src, dst)` pairs and sort lexicographically: the
/// model of what a CSR build keeps, and (inserted in this order) a
/// reference adjacency list whose rows match the CSR's row order.
fn sorted_merged(edges: &[(u32, u32, u8)]) -> Vec<(u32, u32, EdgeMask)> {
    let mut map: BTreeMap<(u32, u32), EdgeMask> = BTreeMap::new();
    for &(a, b, c) in edges {
        let m = EdgeMask::of(CLASSES[c as usize]);
        map.entry((a, b))
            .and_modify(|e| *e = e.union(m))
            .or_insert(m);
    }
    map.into_iter().map(|((a, b), m)| (a, b, m)).collect()
}

fn reference_from(n: usize, edges: &[(u32, u32, EdgeMask)]) -> AdjList {
    let mut g = AdjList::with_vertices(n);
    for &(a, b, m) in edges {
        g.add_edge_mask(a, b, m);
    }
    g
}

/// The same edges, in the given order, through an [`EdgeBuf`].
fn csr_from(n: usize, edges: &[(u32, u32, u8)]) -> Csr {
    let mut buf = EdgeBuf::with_capacity(edges.len());
    for &(a, b, c) in edges {
        buf.push(a, b, EdgeMask::of(CLASSES[c as usize]));
    }
    buf.build(n)
}

const MASKS: [EdgeMask; 4] = [
    EdgeMask::ALL,
    EdgeMask::WW,
    EdgeMask(EdgeMask::WW.0 | EdgeMask::WR.0),
    EdgeMask(EdgeMask::WW.0 | EdgeMask::RW.0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sorted insertion: every CSR algorithm equals its reference
    /// counterpart exactly — same components, same cycles, same
    /// tie-breaking.
    #[test]
    fn csr_equals_legacy_under_sorted_insertion(raw in arb_edges(20)) {
        let n = 20;
        let g = reference_from(n, &sorted_merged(&raw));
        let csr = csr_from(n, &raw);
        let mut scratch = Scratch::new();

        for allowed in MASKS {
            // Tarjan: identical component lists, in identical order.
            let legacy = tarjan_scc(&g, allowed);
            let ported = csr.tarjan_scc(allowed, &mut scratch);
            prop_assert_eq!(&legacy, &ported, "tarjan mask={}", allowed);

            // Per-SCC searches.
            for scc in &legacy {
                let a = find_cycle(&g, scc, CycleSpec::uniform(allowed));
                let b = csr.find_cycle(scc, CycleSpec::uniform(allowed), &mut scratch);
                prop_assert_eq!(&a, &b, "find_cycle mask={}", allowed);

                let rest = EdgeMask(allowed.0 & !EdgeMask::RW.0);
                let a = find_cycle_with_single(&g, scc, EdgeMask::RW, rest, 8);
                let b = csr.find_cycle_with_single(scc, EdgeMask::RW, rest, 8, &mut scratch);
                prop_assert_eq!(&a, &b, "single mask={}", allowed);
            }
        }
    }

    /// Arbitrary insertion: the build round-trips the edge set, and the
    /// algorithms agree on order-insensitive facts.
    #[test]
    fn csr_invariants_under_arbitrary_insertion(raw in arb_edges(16)) {
        let n = 16;
        let mut g = AdjList::with_vertices(n);
        for &(a, b, c) in &raw {
            g.add_edge_mask(a, b, EdgeMask::of(CLASSES[c as usize]));
        }
        let csr = csr_from(n, &raw);
        let mut scratch = Scratch::new();

        // Build round-trip: same edge set, same masks, rows sorted.
        let mut legacy_edges: Vec<_> = g.edges().collect();
        legacy_edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let csr_edges: Vec<_> = csr.edges().collect();
        prop_assert_eq!(legacy_edges, csr_edges);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(g.edge_mask(a, b), csr.edge_mask(a, b), "mask {}->{}", a, b);
            }
        }

        for allowed in MASKS {
            // Same SCC partition (as sets of sorted components).
            let mut legacy = tarjan_scc(&g, allowed);
            let mut ported = csr.tarjan_scc(allowed, &mut scratch);
            legacy.sort();
            ported.sort();
            prop_assert_eq!(&legacy, &ported, "tarjan sets mask={}", allowed);

            for scc in &ported {
                // find_cycle: existence and minimality agree.
                let a = find_cycle(&g, scc, CycleSpec::uniform(allowed));
                let b = csr.find_cycle(scc, CycleSpec::uniform(allowed), &mut scratch);
                prop_assert_eq!(
                    a.as_ref().map(Vec::len),
                    b.as_ref().map(Vec::len),
                    "find_cycle length mask={}", allowed
                );

                // find_cycle_with_single: existence agrees, and every
                // emitted cycle is genuinely a single-first-edge cycle.
                let rest = EdgeMask(allowed.0 & !EdgeMask::RW.0);
                let a = find_cycle_with_single(&g, scc, EdgeMask::RW, rest, usize::MAX);
                let b = csr.find_cycle_with_single(scc, EdgeMask::RW, rest, usize::MAX, &mut scratch);
                prop_assert_eq!(a.is_empty(), b.is_empty(), "single existence mask={}", allowed);
                for cyc in &b {
                    for (i, &from) in cyc.iter().enumerate() {
                        let to = cyc[(i + 1) % cyc.len()];
                        let need = if i == 0 { EdgeMask::RW } else { rest };
                        prop_assert!(
                            csr.edge_mask(from, to).intersects(need),
                            "invalid edge {}->{} in {:?}", from, to, cyc
                        );
                        prop_assert!(scc.contains(&from));
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sort-based build keeps exactly the model's edges: duplicate
    /// pairs merge their masks, rows come out sorted, and the vertex
    /// count is `max(n, 1 + max endpoint)`.
    #[test]
    fn edgebuf_build_matches_model(
        n in 0usize..24,
        edges in arb_edges(24),
    ) {
        let csr = csr_from(n, &edges);
        let model = sorted_merged(&edges);
        let vertices = edges
            .iter()
            .map(|&(a, b, _)| a.max(b) as usize + 1)
            .fold(n, usize::max);
        prop_assert_eq!(csr.vertex_count(), vertices);
        let got: Vec<_> = csr.edges().collect();
        prop_assert_eq!(&got, &model);
        for v in 0..vertices as u32 {
            let want: Vec<(u32, EdgeMask)> = model
                .iter()
                .filter(|&&(a, _, _)| a == v)
                .map(|&(_, b, m)| (b, m))
                .collect();
            let (ds, ms) = csr.out_row(v);
            let row: Vec<(u32, EdgeMask)> = ds.iter().copied().zip(ms.iter().copied()).collect();
            prop_assert_eq!(row, want, "out_row {}", v);
        }
    }

    /// A Tarjan pass restricted to the cyclic region of a superset mask
    /// must find exactly the components of an unrestricted pass.
    #[test]
    fn region_restricted_tarjan_matches_full(
        n in 1usize..24,
        edges in arb_edges(24),
    ) {
        let csr = csr_from(n.max(24), &edges);
        let mut scratch = Scratch::new();
        // Certificate region: union of ALL-mask cyclic SCCs.
        let cert = csr.tarjan_scc(EdgeMask::ALL, &mut scratch);
        let mut region: Vec<u32> = cert.iter().flatten().copied().collect();
        region.sort_unstable();
        for mask in MASKS {
            let mut full = csr.tarjan_scc(mask, &mut scratch);
            let mut within = csr.tarjan_scc_within(mask, &region, &mut scratch);
            full.sort();
            within.sort();
            prop_assert_eq!(full, within, "mask={}", mask);
        }
        if cert.is_empty() {
            // Empty region: nothing to find under any sub-mask.
            for mask in MASKS {
                prop_assert!(csr.tarjan_scc(mask, &mut scratch).is_empty());
            }
        }
    }
}
