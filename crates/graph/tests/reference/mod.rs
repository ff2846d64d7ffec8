//! Test-only reference implementations of the graph searches that the
//! shipped [`Csr`](elle_graph::Csr) methods replaced: Tarjan SCC, the
//! uniform BFS cycle search and the G-single search, kept verbatim from
//! the pre-CSR hash-indexed graph so the property tests in `csr_props.rs`
//! can hold the CSR ports to them.
//!
//! They run over [`AdjList`], a plain adjacency list: rows keep
//! first-insertion order, parallel edges merge into the first entry's
//! mask, and there is no hash index — lookups scan the row.

use elle_graph::{CycleSpec, EdgeMask};

/// A directed graph over dense `u32` vertices with class-masked edges,
/// as one `(dst, mask)` row per vertex in first-insertion order.
#[derive(Debug, Clone, Default)]
pub struct AdjList {
    adj: Vec<Vec<(u32, EdgeMask)>>,
}

impl AdjList {
    /// A graph with `n` vertices and no edges.
    pub fn with_vertices(n: usize) -> Self {
        AdjList {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Add an edge carrying a whole mask, growing the vertex range to
    /// cover both endpoints; a repeated `(src, dst)` pair unions its mask
    /// into the existing entry.
    pub fn add_edge_mask(&mut self, src: u32, dst: u32, m: EdgeMask) {
        let need = src.max(dst) as usize + 1;
        if self.adj.len() < need {
            self.adj.resize(need, Vec::new());
        }
        let row = &mut self.adj[src as usize];
        match row.iter_mut().find(|(d, _)| *d == dst) {
            Some(entry) => entry.1 = entry.1.union(m),
            None => row.push((dst, m)),
        }
    }

    /// The mask on edge `(src, dst)`, or the empty mask if absent.
    pub fn edge_mask(&self, src: u32, dst: u32) -> EdgeMask {
        self.adj[src as usize]
            .iter()
            .find(|(d, _)| *d == dst)
            .map_or(EdgeMask::NONE, |&(_, m)| m)
    }

    /// Outgoing `(dst, mask)` pairs of `v`, in first-insertion order.
    pub fn out_edges(&self, v: u32) -> &[(u32, EdgeMask)] {
        &self.adj[v as usize]
    }

    /// Outgoing neighbours reachable via at least one class in `allowed`.
    pub fn out_neighbors_masked(
        &self,
        v: u32,
        allowed: EdgeMask,
    ) -> impl Iterator<Item = u32> + '_ {
        self.adj[v as usize]
            .iter()
            .filter(move |(_, m)| m.intersects(allowed))
            .map(|(d, _)| *d)
    }

    /// All edges as `(src, dst, mask)`, row by row in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, EdgeMask)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(s, es)| es.iter().map(move |(d, m)| (s as u32, *d, *m)))
    }
}

/// Strongly connected components of the subgraph restricted to `allowed`
/// edge classes. Components are returned in **reverse topological order**
/// (Tarjan's natural output order) and only components with ≥ 2 vertices or
/// a self-loop are returned — singletons without self-loops cannot contain
/// cycles.
pub fn tarjan_scc(g: &AdjList, allowed: EdgeMask) -> Vec<Vec<u32>> {
    let n = g.vertex_count();
    const UNVISITED: u32 = u32::MAX;

    let mut index_of = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Vec::new();

    // Explicit DFS frames: (vertex, position in its adjacency list).
    let mut call_stack: Vec<(u32, usize)> = Vec::new();

    for root in 0..n as u32 {
        if index_of[root as usize] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        index_of[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let edges = g.out_edges(v);
            let mut descended = false;
            while *pos < edges.len() {
                let (w, m) = edges[*pos];
                *pos += 1;
                if !m.intersects(allowed) {
                    continue;
                }
                let wi = index_of[w as usize];
                if wi == UNVISITED {
                    // Descend.
                    index_of[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call_stack.push((w, 0));
                    descended = true;
                    break;
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(wi);
                }
            }
            if descended {
                continue;
            }
            // v is finished.
            call_stack.pop();
            if let Some(&(parent, _)) = call_stack.last() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
            }
            if lowlink[v as usize] == index_of[v as usize] {
                // v is an SCC root; pop its component.
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                let cyclic = comp.len() > 1 || g.edge_mask(comp[0], comp[0]).intersects(allowed);
                if cyclic {
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// BFS from `from` to `to` over `allowed` edges (path of length ≥ 1).
/// Returns the full vertex path `from, …, to`.
fn bfs_path(
    g: &AdjList,
    from: u32,
    to: u32,
    allowed: EdgeMask,
    in_scope: Option<&[bool]>,
) -> Option<Vec<u32>> {
    let ok = |v: u32| in_scope.is_none_or(|s| s[v as usize]);
    let n = g.vertex_count();
    let mut pred: Vec<u32> = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();

    // Seed with from's successors so a path back to `from` itself works.
    for w in g.out_neighbors_masked(from, allowed) {
        if !ok(w) {
            continue;
        }
        if w == to {
            return Some(vec![from, to]);
        }
        if pred[w as usize] == u32::MAX {
            pred[w as usize] = from;
            queue.push_back(w);
        }
    }
    while let Some(v) = queue.pop_front() {
        for w in g.out_neighbors_masked(v, allowed) {
            if !ok(w) {
                continue;
            }
            if w == to {
                // Reconstruct.
                let mut path = vec![to, v];
                let mut cur = v;
                while pred[cur as usize] != u32::MAX && pred[cur as usize] != from {
                    cur = pred[cur as usize];
                    path.push(cur);
                }
                path.push(from);
                path.reverse();
                return Some(path);
            }
            if pred[w as usize] == u32::MAX && w != from {
                pred[w as usize] = v;
                queue.push_back(w);
            }
        }
    }
    None
}

/// Find a short cycle within `component` (a set of vertices) under `spec`.
///
/// Tries each vertex as a start; returns the first (hence shortest-per-
/// start, small) cycle found. The first edge must match `spec.first`, the
/// remainder `spec.rest`.
pub fn find_cycle(g: &AdjList, component: &[u32], spec: CycleSpec) -> Option<Vec<u32>> {
    let n = g.vertex_count();
    let mut in_scope = vec![false; n];
    for &v in component {
        in_scope[v as usize] = true;
    }
    let mut best: Option<Vec<u32>> = None;
    for &v in component {
        // Try each first edge out of v.
        for (w, m) in g.out_edges(v) {
            if !m.intersects(spec.first) || !in_scope[*w as usize] {
                continue;
            }
            let cand = if *w == v {
                Some(vec![v])
            } else {
                bfs_path(g, *w, v, spec.rest, Some(&in_scope)).map(|mut rest| {
                    // rest = w..=v ; cycle = v, w, ..., (v)
                    rest.pop(); // drop trailing v
                    let mut cyc = Vec::with_capacity(rest.len() + 1);
                    cyc.push(v);
                    cyc.extend(rest);
                    cyc
                })
            };
            if let Some(c) = cand {
                if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                    best = Some(c);
                }
            }
        }
        // A length-2 cycle is as short as non-self-loop cycles get; stop early.
        if best.as_ref().is_some_and(|b| b.len() <= 2) {
            return best;
        }
    }
    best
}

/// The G-single style search: a cycle whose **first** edge is drawn from
/// `single` and whose remaining edges are drawn from `rest` (which should
/// not include `single`'s class for an "exactly one" guarantee).
///
/// Returns up to `limit` distinct cycles (keyed by their vertex sets).
pub fn find_cycle_with_single(
    g: &AdjList,
    component: &[u32],
    single: EdgeMask,
    rest: EdgeMask,
    limit: usize,
) -> Vec<Vec<u32>> {
    let n = g.vertex_count();
    let mut in_scope = vec![false; n];
    for &v in component {
        in_scope[v as usize] = true;
    }
    let mut out = Vec::new();
    let mut seen: rustc_hash::FxHashSet<Vec<u32>> = rustc_hash::FxHashSet::default();
    for &v in component {
        if out.len() >= limit {
            break;
        }
        for (w, m) in g.out_edges(v) {
            if out.len() >= limit {
                break;
            }
            if !m.intersects(single) || !in_scope[*w as usize] {
                continue;
            }
            let cand = if *w == v {
                // self-loop via the single edge: a 1-cycle
                Some(vec![v])
            } else {
                bfs_path(g, *w, v, rest, Some(&in_scope)).map(|mut path| {
                    path.pop();
                    let mut cyc = Vec::with_capacity(path.len() + 1);
                    cyc.push(v);
                    cyc.extend(path);
                    cyc
                })
            };
            if let Some(c) = cand {
                let mut key = c.clone();
                key.sort_unstable();
                if seen.insert(key) {
                    out.push(c);
                }
            }
        }
    }
    out
}
