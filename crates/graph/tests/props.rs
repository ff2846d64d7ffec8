//! Property tests for the graph substrate: Tarjan against a naive
//! reachability oracle, and transitive-reduction soundness.

use elle_graph::{interval_order_reduction, EdgeBuf, EdgeMask, Interval, Scratch};
use proptest::prelude::*;

/// Naive O(V·E) reachability matrix.
fn reachability(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b as usize);
    }
    (0..n)
        .map(|s| {
            let mut stack = vec![s];
            let mut seen = vec![false; n];
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            seen
        })
        .collect()
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..n * 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two vertices share a Tarjan component iff they reach each other.
    #[test]
    fn tarjan_matches_mutual_reachability(edges in arb_edges(24)) {
        let n = 24;
        let mut buf = EdgeBuf::with_capacity(edges.len());
        for &(a, b) in &edges {
            buf.push(a, b, EdgeMask::WW);
        }
        let reach = reachability(n, &edges);
        let sccs = buf.build(n).tarjan_scc(EdgeMask::ALL, &mut Scratch::new());
        // Component id per vertex (cyclic components only).
        let mut comp = vec![usize::MAX; n];
        for (i, scc) in sccs.iter().enumerate() {
            for &v in scc {
                comp[v as usize] = i;
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let mutual = reach[a][b] && reach[b][a];
                let same = comp[a] != usize::MAX && comp[a] == comp[b];
                prop_assert_eq!(
                    mutual, same,
                    "a={} b={} mutual={} same={}", a, b, mutual, same
                );
            }
        }
        // Singleton components appear iff the vertex has a self-loop.
        for scc in &sccs {
            if scc.len() == 1 {
                let v = scc[0];
                prop_assert!(edges.contains(&(v, v)));
            }
        }
    }

    /// The interval-order reduction preserves exactly the order's
    /// reachability.
    #[test]
    fn interval_reduction_preserves_order(
        raw in prop::collection::vec((0usize..60, 1usize..10, prop::bool::ANY), 1..20)
    ) {
        // Build intervals; every so often one never completes.
        let items: Vec<Interval> = raw
            .iter()
            .map(|&(start, len, complete)| Interval {
                invoke: start,
                complete: complete.then_some(start + len),
            })
            .collect();
        let edges = interval_order_reduction(&items);
        let reach = reachability(items.len(), &edges);
        for a in 0..items.len() {
            for b in 0..items.len() {
                if a == b { continue; }
                let precedes = match items[a].complete {
                    Some(c) => c < items[b].invoke,
                    None => false,
                };
                prop_assert_eq!(precedes, reach[a][b], "a={} b={}", a, b);
            }
        }
    }

}
