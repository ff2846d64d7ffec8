//! Iterative Tarjan strongly-connected components.
//!
//! The paper (§2, §6) leans on Tarjan's linear-time SCC algorithm to make
//! cycle detection `O(vertices + edges)`. We implement it iteratively: real
//! histories produce graphs with 10⁵–10⁶ vertices and recursion would
//! overflow the stack.
//!
//! [`Csr::tarjan_scc`] walks the frozen CSR rows; its discovery state,
//! stack and DFS frames live in a caller-provided [`Scratch`] that is
//! reused from one pass to the next.

use crate::csr::{Csr, Scratch};
use crate::EdgeMask;

impl Csr {
    /// Strongly connected components of the subgraph restricted to
    /// `allowed` edge classes, walking the frozen CSR with reusable
    /// `scratch` buffers.
    ///
    /// Components come back in **reverse topological order** (Tarjan's
    /// natural output order), each sorted ascending, and only components
    /// that can contain a cycle (≥ 2 vertices, or a self-loop) are
    /// returned — singletons without self-loops cannot contain cycles.
    pub fn tarjan_scc(&self, allowed: EdgeMask, scratch: &mut Scratch) -> Vec<Vec<u32>> {
        self.tarjan_scc_impl(allowed, None, scratch)
    }

    /// [`Csr::tarjan_scc`] restricted to the vertices of `region`: DFS
    /// roots are drawn from `region` (in the given order) and traversal
    /// never leaves it.
    ///
    /// **Soundness contract:** this returns the same components as an
    /// unrestricted pass *only when* every `allowed`-cycle of the graph
    /// lies entirely inside `region` — e.g. when `region` is the union of
    /// the cyclic SCCs of a superset mask. Vertices outside such a region
    /// are singletons under `allowed` and can be skipped wholesale, which
    /// is what makes the early-acyclic certificate pay: one Tarjan over
    /// the full graph, then per-class passes over just the cyclic core.
    pub fn tarjan_scc_within(
        &self,
        allowed: EdgeMask,
        region: &[u32],
        scratch: &mut Scratch,
    ) -> Vec<Vec<u32>> {
        self.tarjan_scc_impl(allowed, Some(region), scratch)
    }

    fn tarjan_scc_impl(
        &self,
        allowed: EdgeMask,
        region: Option<&[u32]>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<u32>> {
        let n = self.vertex_count();
        const UNVISITED: u32 = u32::MAX;
        scratch.reset_tarjan(n);
        let Scratch {
            index_of,
            lowlink,
            on_stack,
            stack,
            frames,
            region: in_region,
            ..
        } = scratch;
        if let Some(vs) = region {
            in_region.ensure(n);
            for &v in vs {
                in_region.insert(v);
            }
        }
        let member = |in_region: &crate::csr::BitSet, v: u32| match region {
            Some(_) => in_region.contains(v),
            None => true,
        };

        let mut next_index = 0u32;
        let mut sccs = Vec::new();

        let roots: Box<dyn Iterator<Item = u32>> = match region {
            Some(vs) => Box::new(vs.iter().copied()),
            None => Box::new(0..n as u32),
        };
        for root in roots {
            if index_of[root as usize] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            index_of[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack.insert(root);

            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                let (dsts, masks) = self.out_row(v);
                let mut descended = false;
                while (*pos as usize) < dsts.len() {
                    let (w, m) = (dsts[*pos as usize], masks[*pos as usize]);
                    *pos += 1;
                    if !m.intersects(allowed) || !member(in_region, w) {
                        continue;
                    }
                    let wi = index_of[w as usize];
                    if wi == UNVISITED {
                        // Descend.
                        index_of[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack.insert(w);
                        frames.push((w, 0));
                        descended = true;
                        break;
                    } else if on_stack.contains(w) {
                        lowlink[v as usize] = lowlink[v as usize].min(wi);
                    }
                }
                if descended {
                    continue;
                }
                // v is finished.
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index_of[v as usize] {
                    // v is an SCC root; pop its component.
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack.remove(w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic =
                        comp.len() > 1 || self.edge_mask(comp[0], comp[0]).intersects(allowed);
                    if cyclic {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
            }
        }
        on_stack.clear();
        in_region.clear();
        sccs
    }
}

#[cfg(test)]
mod tests {
    use crate::csr::tests::csr_of;
    use crate::csr::{Csr, Scratch};
    use crate::{EdgeClass, EdgeMask};

    fn ring(n: u32) -> Csr {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, EdgeClass::Ww)).collect();
        csr_of(n as usize, &edges)
    }

    fn sccs(g: &Csr, allowed: EdgeMask) -> Vec<Vec<u32>> {
        g.tarjan_scc(allowed, &mut Scratch::new())
    }

    #[test]
    fn single_ring_is_one_scc() {
        let sccs = sccs(&ring(5), EdgeMask::ALL);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dag_has_no_cyclic_scc() {
        let g = csr_of(
            4,
            &[
                (0, 1, EdgeClass::Ww),
                (1, 2, EdgeClass::Ww),
                (0, 3, EdgeClass::Wr),
            ],
        );
        assert!(sccs(&g, EdgeMask::ALL).is_empty());
    }

    #[test]
    fn self_loop_is_cyclic() {
        let g = csr_of(2, &[(1, 1, EdgeClass::Ww)]);
        assert_eq!(sccs(&g, EdgeMask::ALL), vec![vec![1]]);
        assert!(sccs(&g, EdgeMask::RW).is_empty());
    }

    #[test]
    fn mask_restriction_breaks_cycle() {
        let g = csr_of(2, &[(0, 1, EdgeClass::Ww), (1, 0, EdgeClass::Rw)]);
        assert_eq!(sccs(&g, EdgeMask::ALL).len(), 1);
        assert!(sccs(&g, EdgeMask::WW).is_empty());
        assert!(sccs(&g, EdgeMask::RW).is_empty());
        assert_eq!(sccs(&g, EdgeMask::WW | EdgeMask::RW).len(), 1);
    }

    #[test]
    fn two_separate_rings() {
        let edges: Vec<_> = [(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)]
            .into_iter()
            .map(|(a, b)| (a, b, EdgeClass::Ww))
            .collect();
        let mut sccs = sccs(&csr_of(6, &edges), EdgeMask::ALL);
        sccs.sort();
        assert_eq!(sccs, vec![vec![0, 1], vec![3, 4, 5]]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 200k-vertex chain with a back edge: exercises the iterative DFS.
        let n = 200_000u32;
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, EdgeClass::Ww)).collect();
        edges.push((n - 1, 0, EdgeClass::Ww));
        let sccs = sccs(&csr_of(n as usize, &edges), EdgeMask::ALL);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), n as usize);
    }

    #[test]
    fn csr_matches_reference_on_small_graphs() {
        // Hand-computed components, in Tarjan's reverse topological
        // order: 0→1 and 1→0 close before 3→4→5→3 is discovered, and a
        // sink component closes before the component that reaches it.
        let mut scratch = Scratch::new();
        let two_rings: Vec<_> = [(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)]
            .into_iter()
            .map(|(a, b)| (a, b, EdgeClass::Ww))
            .collect();
        let chained: Vec<_> = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
            .into_iter()
            .map(|(a, b)| (a, b, EdgeClass::Ww))
            .collect();
        let cases: Vec<(Csr, Vec<Vec<u32>>)> = vec![
            (ring(5), vec![vec![0, 1, 2, 3, 4]]),
            (csr_of(2, &[(1, 1, EdgeClass::Ww)]), vec![vec![1]]),
            (csr_of(6, &two_rings), vec![vec![0, 1], vec![3, 4, 5]]),
            (csr_of(4, &chained), vec![vec![2, 3], vec![0, 1]]),
        ];
        for (g, want) in cases {
            assert_eq!(g.tarjan_scc(EdgeMask::ALL, &mut scratch), want);
        }
    }

    #[test]
    fn csr_mask_restriction_breaks_cycle() {
        // The region-restricted pass over the ALL-mask cyclic core agrees
        // with the unrestricted pass under every sub-mask.
        let g = csr_of(
            3,
            &[
                (0, 1, EdgeClass::Ww),
                (1, 0, EdgeClass::Rw),
                (1, 2, EdgeClass::Ww),
            ],
        );
        let mut s = Scratch::new();
        let region = [0, 1];
        for (mask, want) in [
            (EdgeMask::ALL, 1),
            (EdgeMask::WW, 0),
            (EdgeMask::RW, 0),
            (EdgeMask::WW | EdgeMask::RW, 1),
        ] {
            assert_eq!(g.tarjan_scc(mask, &mut s).len(), want, "mask={mask}");
            assert_eq!(
                g.tarjan_scc_within(mask, &region, &mut s),
                g.tarjan_scc(mask, &mut s),
                "mask={mask}"
            );
        }
    }

    #[test]
    fn csr_scratch_reuse_across_sizes() {
        let mut s = Scratch::new();
        let sccs = ring(100).tarjan_scc(EdgeMask::ALL, &mut s);
        assert_eq!(sccs.len(), 1);
        // A smaller graph with the same scratch must not see stale state.
        let sccs = ring(3).tarjan_scc(EdgeMask::ALL, &mut s);
        assert_eq!(sccs, vec![vec![0, 1, 2]]);
    }
}
