//! Transitive reduction of interval orders.
//!
//! The real-time precedence order of a history is an *interval order*: each
//! transaction occupies the interval `[invoke, complete]`, and `T1 < T2` iff
//! `complete(T1) < invoke(T2)`. §5.1 of the paper notes its transitive
//! reduction can be computed in `O(n · p)` where `p` is the number of
//! concurrent processes; feeding the reduction (rather than the full order)
//! to the dependency graph keeps edge counts linear in practice.

/// A half-open activity interval: `invoke` and (optional) `complete` event
/// indices. Items with `complete = None` never finish and therefore precede
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Invocation position in the global event order.
    pub invoke: usize,
    /// Completion position, if the item completed.
    pub complete: Option<usize>,
}

/// Compute the transitive reduction of the interval order as an edge list
/// `(earlier, later)` over item indices.
///
/// `a → b` is kept iff `complete(a) < invoke(b)` and no item `c` fits wholly
/// between them (`complete(a) < invoke(c) ∧ complete(c) < invoke(b)`).
///
/// Cost: `O(n log n + E)` where `E` is the number of kept edges (bounded by
/// `n · p` for `p`-way concurrency).
pub fn interval_order_reduction(items: &[Interval]) -> Vec<(u32, u32)> {
    let n = items.len();
    let mut edges = Vec::new();
    if n == 0 {
        return edges;
    }

    // Completed items sorted by completion index.
    let mut by_complete: Vec<(usize, u32)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| it.complete.map(|c| (c, i as u32)))
        .collect();
    by_complete.sort_unstable();
    let completes: Vec<usize> = by_complete.iter().map(|&(c, _)| c).collect();

    // prefix_max_invoke[i] = max invoke among the first i+1 completed items
    // (sorted by completion). Used to find, for each b, the latest
    // invocation among items that complete before b's invocation.
    let mut prefix_max_invoke: Vec<usize> = Vec::with_capacity(by_complete.len());
    let mut running = 0usize;
    for &(_, idx) in &by_complete {
        running = running.max(items[idx as usize].invoke);
        prefix_max_invoke.push(running);
    }

    for (b_idx, b) in items.iter().enumerate() {
        // Items completing strictly before b.invoke.
        let k = completes.partition_point(|&c| c < b.invoke);
        if k == 0 {
            continue;
        }
        // Dominance threshold: any predecessor completing before `s` is
        // dominated by some item wholly inside the gap.
        let s = prefix_max_invoke[k - 1];
        // Keep predecessors a with s <= complete(a) < b.invoke.
        let lo = completes.partition_point(|&c| c < s);
        for &(_, a_idx) in &by_complete[lo..k] {
            if a_idx as usize != b_idx {
                edges.push((a_idx, b_idx as u32));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(invoke: usize, complete: usize) -> Interval {
        Interval {
            invoke,
            complete: Some(complete),
        }
    }

    /// Naive O(n³) reduction for cross-checking.
    fn naive(items: &[Interval]) -> Vec<(u32, u32)> {
        let precedes = |a: &Interval, b: &Interval| match a.complete {
            Some(c) => c < b.invoke,
            None => false,
        };
        let n = items.len();
        let mut out = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b || !precedes(&items[a], &items[b]) {
                    continue;
                }
                let dominated = (0..n).any(|c| {
                    c != a
                        && c != b
                        && items[a].complete.unwrap() < items[c].invoke
                        && precedes(&items[c], &items[b])
                });
                if !dominated {
                    out.push((a as u32, b as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn sequential_chain_reduces_to_links() {
        // t0: [0,1], t1: [2,3], t2: [4,5]
        let items = vec![iv(0, 1), iv(2, 3), iv(4, 5)];
        let mut e = interval_order_reduction(&items);
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn concurrent_items_have_no_edges() {
        let items = vec![iv(0, 10), iv(1, 9), iv(2, 8)];
        assert!(interval_order_reduction(&items).is_empty());
    }

    #[test]
    fn incomplete_items_precede_nothing_but_can_follow() {
        let items = vec![
            iv(0, 1),
            Interval {
                invoke: 5,
                complete: None,
            },
        ];
        let mut e = interval_order_reduction(&items);
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1)]);
    }

    #[test]
    fn matches_naive_on_pattern() {
        // p-way staggered pattern.
        let items = vec![
            iv(0, 3),
            iv(1, 2),
            iv(4, 7),
            iv(5, 6),
            iv(8, 9),
            Interval {
                invoke: 2,
                complete: None,
            },
        ];
        let mut fast = interval_order_reduction(&items);
        fast.sort_unstable();
        assert_eq!(fast, naive(&items));
    }

    #[test]
    fn reduction_preserves_reachability() {
        // Random-ish structured set; verify closure equality with naive full
        // order.
        let items = vec![
            iv(0, 2),
            iv(1, 4),
            iv(3, 6),
            iv(5, 8),
            iv(7, 10),
            iv(9, 12),
            iv(11, 13),
        ];
        let edges = interval_order_reduction(&items);
        // Every item reachable from `a` (inclusive) over the reduction.
        let reachable = |a: u32| {
            let mut seen = vec![a];
            let mut i = 0;
            while i < seen.len() {
                let v = seen[i];
                i += 1;
                for &(x, y) in &edges {
                    if x == v && !seen.contains(&y) {
                        seen.push(y);
                    }
                }
            }
            seen
        };
        // Full order edges:
        let precedes = |a: usize, b: usize| items[a].complete.unwrap() < items[b].invoke;
        for a in 0..items.len() {
            let reach = reachable(a as u32);
            for b in 0..items.len() {
                let expected = precedes(a, b);
                let got = reach.contains(&(b as u32)) && a != b;
                assert_eq!(expected, got, "a={a} b={b}");
            }
        }
    }
}
