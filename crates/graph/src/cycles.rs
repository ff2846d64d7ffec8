//! Breadth-first cycle search with edge-class restrictions.
//!
//! §6 of the paper: within each strongly connected component we use BFS to
//! find a *short* cycle, since short witnesses make for readable
//! counterexamples. Anomaly classes restrict which edges may participate:
//!
//! * **G0**: only `ww` edges;
//! * **G1c**: `ww` and `wr`;
//! * **G-single**: *exactly one* `rw` edge — "we begin with a node in the
//!   read-write subgraph, follow exactly one read-write edge, then attempt
//!   to complete the cycle using only write-write and write-read edges";
//! * **G2-item**: at least one `rw` edge.
//!
//! A cycle is a vertex list `v0, v1, …, vk` with edges `v0→v1, …, vk→v0`.
//! Both searches run on the frozen [`Csr`] with a reusable [`Scratch`].

use crate::csr::{BitSet, Csr, Scratch};
use crate::EdgeMask;

/// Which cycles a search should accept.
#[derive(Debug, Clone, Copy)]
pub struct CycleSpec {
    /// Classes allowed on the first edge of the cycle.
    pub first: EdgeMask,
    /// Classes allowed on every subsequent edge.
    pub rest: EdgeMask,
}

impl CycleSpec {
    /// A uniform spec: every edge drawn from `mask`.
    pub fn uniform(mask: EdgeMask) -> Self {
        CycleSpec {
            first: mask,
            rest: mask,
        }
    }
}

/// The shortest cycle whose first edge is `v → w`: `[v]` when `w == v`,
/// else `v` followed by a shortest `allowed`-path from `w` back to `v`
/// inside `scope` (found by [`bfs_path`]).
#[allow(clippy::too_many_arguments)]
fn cycle_through_edge(
    g: &Csr,
    v: u32,
    w: u32,
    allowed: EdgeMask,
    scope: &BitSet,
    visited: &mut BitSet,
    parent: &mut [u32],
    queue: &mut Vec<u32>,
) -> Option<Vec<u32>> {
    if w == v {
        return Some(vec![v]);
    }
    bfs_path(g, w, v, allowed, scope, visited, parent, queue).map(|mut rest| {
        // rest = w..=v ; cycle = v, w, ..., (v)
        rest.pop(); // drop trailing v
        let mut cyc = Vec::with_capacity(rest.len() + 1);
        cyc.push(v);
        cyc.extend(rest);
        cyc
    })
}

/// BFS from `from` to `to` over `allowed` edges of the frozen CSR,
/// confined to `scope`. Returns the full vertex path `from, …, to`
/// (length ≥ 1).
///
/// Working memory comes from the caller: `visited` is sparsely cleared on
/// entry, `queue` is drained by index (no pop-front shifting), and
/// `parent` is *never* cleared — entries are only read for vertices
/// inserted into `visited` during this call.
#[allow(clippy::too_many_arguments)]
fn bfs_path(
    g: &Csr,
    from: u32,
    to: u32,
    allowed: EdgeMask,
    scope: &BitSet,
    visited: &mut BitSet,
    parent: &mut [u32],
    queue: &mut Vec<u32>,
) -> Option<Vec<u32>> {
    visited.clear();
    queue.clear();

    // Seed with from's successors so a path back to `from` itself works.
    for w in g.out_neighbors_masked(from, allowed) {
        if !scope.contains(w) {
            continue;
        }
        if w == to {
            return Some(vec![from, to]);
        }
        if visited.insert(w) {
            parent[w as usize] = from;
            queue.push(w);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for w in g.out_neighbors_masked(v, allowed) {
            if !scope.contains(w) {
                continue;
            }
            if w == to {
                // Reconstruct.
                let mut path = vec![to, v];
                let mut cur = v;
                while parent[cur as usize] != from {
                    cur = parent[cur as usize];
                    path.push(cur);
                }
                path.push(from);
                path.reverse();
                return Some(path);
            }
            if w != from && visited.insert(w) {
                parent[w as usize] = v;
                queue.push(w);
            }
        }
    }
    None
}

impl Csr {
    /// Find a short cycle within `component` under `spec`.
    ///
    /// Tries each vertex of `component` as a start and each `spec.first`
    /// edge out of it, then completes the cycle over `spec.rest` edges by
    /// BFS; keeps the shortest found, stopping as soon as a cycle of
    /// length ≤ 2 turns up.
    pub fn find_cycle(
        &self,
        component: &[u32],
        spec: CycleSpec,
        scratch: &mut Scratch,
    ) -> Option<Vec<u32>> {
        scratch.ensure_bfs(self.vertex_count());
        let Scratch {
            visited,
            in_scope,
            parent,
            queue,
            ..
        } = scratch;
        for &v in component {
            in_scope.insert(v);
        }
        let mut best: Option<Vec<u32>> = None;
        for &v in component {
            for w in self.out_neighbors_masked(v, spec.first) {
                if !in_scope.contains(w) {
                    continue;
                }
                let cand =
                    cycle_through_edge(self, v, w, spec.rest, in_scope, visited, parent, queue);
                if let Some(c) = cand {
                    if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                        best = Some(c);
                    }
                }
            }
            // A length-2 cycle is as short as non-self-loop cycles get;
            // stop early.
            if best.as_ref().is_some_and(|b| b.len() <= 2) {
                break;
            }
        }
        in_scope.clear();
        best
    }

    /// The G-single style search: cycles within `component` whose
    /// **first** edge is drawn from `single` and whose remaining edges
    /// are drawn from `rest` (which should not include `single`'s class
    /// for an "exactly one" guarantee).
    ///
    /// Returns up to `limit` distinct cycles (keyed by their vertex sets).
    pub fn find_cycle_with_single(
        &self,
        component: &[u32],
        single: EdgeMask,
        rest: EdgeMask,
        limit: usize,
        scratch: &mut Scratch,
    ) -> Vec<Vec<u32>> {
        scratch.ensure_bfs(self.vertex_count());
        let Scratch {
            visited,
            in_scope,
            parent,
            queue,
            ..
        } = scratch;
        for &v in component {
            in_scope.insert(v);
        }
        let mut out = Vec::new();
        let mut seen: rustc_hash::FxHashSet<Vec<u32>> = rustc_hash::FxHashSet::default();
        'vertices: for &v in component {
            for w in self.out_neighbors_masked(v, single) {
                if out.len() >= limit {
                    break 'vertices;
                }
                if !in_scope.contains(w) {
                    continue;
                }
                let cand = cycle_through_edge(self, v, w, rest, in_scope, visited, parent, queue);
                if let Some(c) = cand {
                    let mut key = c.clone();
                    key.sort_unstable();
                    if seen.insert(key) {
                        out.push(c);
                    }
                }
            }
        }
        in_scope.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::tests::csr_of;
    use crate::EdgeClass;

    fn g_from(edges: &[(u32, u32, EdgeClass)]) -> Csr {
        csr_of(0, edges)
    }

    fn find(g: &Csr, component: &[u32], mask: EdgeMask) -> Option<Vec<u32>> {
        g.find_cycle(component, CycleSpec::uniform(mask), &mut Scratch::new())
    }

    fn single(g: &Csr, component: &[u32], rest: EdgeMask, limit: usize) -> Vec<Vec<u32>> {
        g.find_cycle_with_single(component, EdgeMask::RW, rest, limit, &mut Scratch::new())
    }

    #[test]
    fn finds_two_cycle() {
        let g = g_from(&[(0, 1, EdgeClass::Ww), (1, 0, EdgeClass::Ww)]);
        assert_eq!(find(&g, &[0, 1], EdgeMask::WW), Some(vec![0, 1]));
    }

    #[test]
    fn finds_self_loop() {
        let g = g_from(&[(2, 2, EdgeClass::Ww)]);
        assert_eq!(find(&g, &[2], EdgeMask::WW), Some(vec![2]));
    }

    #[test]
    fn respects_mask() {
        let g = g_from(&[(0, 1, EdgeClass::Ww), (1, 0, EdgeClass::Rw)]);
        assert!(find(&g, &[0, 1], EdgeMask::WW).is_none());
        assert!(find(&g, &[0, 1], EdgeMask::WW | EdgeMask::RW).is_some());
    }

    #[test]
    fn bfs_finds_shortest() {
        // Two cycles through 0: length 4 via 2 (the lower first edge) and
        // length 2 via 3.
        let g = g_from(&[
            (0, 2, EdgeClass::Ww),
            (2, 1, EdgeClass::Ww),
            (1, 4, EdgeClass::Ww),
            (4, 0, EdgeClass::Ww),
            (0, 3, EdgeClass::Ww),
            (3, 0, EdgeClass::Ww),
        ]);
        assert_eq!(find(&g, &[0, 1, 2, 3, 4], EdgeMask::WW), Some(vec![0, 3]));
    }

    #[test]
    fn scope_confines_search() {
        let g = g_from(&[
            (0, 1, EdgeClass::Ww),
            (1, 2, EdgeClass::Ww),
            (2, 0, EdgeClass::Ww),
        ]);
        assert!(find(&g, &[0, 1], EdgeMask::WW).is_none());
        assert_eq!(find(&g, &[0, 1, 2], EdgeMask::WW), Some(vec![0, 1, 2]));
    }

    #[test]
    fn single_edge_search_exactly_one_rw() {
        // 0 -rw-> 1 -ww-> 2 -wr-> 0 : a G-single shape.
        let g = g_from(&[
            (0, 1, EdgeClass::Rw),
            (1, 2, EdgeClass::Ww),
            (2, 0, EdgeClass::Wr),
        ]);
        let found = single(&g, &[0, 1, 2], EdgeMask::WW | EdgeMask::WR, 10);
        assert_eq!(found, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn single_edge_search_rejects_two_rw() {
        // Needs two rw edges to close: not G-single.
        let g = g_from(&[(0, 1, EdgeClass::Rw), (1, 0, EdgeClass::Rw)]);
        let comp = [0, 1];
        assert!(single(&g, &comp, EdgeMask::WW | EdgeMask::WR, 10).is_empty());
        // But allowing rw in the rest finds the G2 cycle, once: the same
        // vertex set reached from 1 is deduplicated.
        let g2 = single(&g, &comp, EdgeMask::WW | EdgeMask::WR | EdgeMask::RW, 10);
        assert_eq!(g2, vec![vec![0, 1]]);
    }

    #[test]
    fn find_cycle_uniform() {
        let g = g_from(&[
            (0, 1, EdgeClass::Ww),
            (1, 2, EdgeClass::Ww),
            (2, 0, EdgeClass::Ww),
        ]);
        let c = find(&g, &[0, 1, 2], EdgeMask::WW).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn find_cycle_none_when_acyclic() {
        let g = g_from(&[(0, 1, EdgeClass::Ww), (1, 2, EdgeClass::Ww)]);
        assert!(find(&g, &[0, 1, 2], EdgeMask::WW).is_none());
    }

    #[test]
    fn limit_respected() {
        // Many G-single cycles sharing structure.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            let a = i * 2;
            let b = i * 2 + 1;
            edges.push((a, b, EdgeClass::Rw));
            edges.push((b, a, EdgeClass::Ww));
        }
        let g = g_from(&edges);
        let comp: Vec<u32> = (0..20).collect();
        assert_eq!(single(&g, &comp, EdgeMask::WW, 3).len(), 3);
    }
}
