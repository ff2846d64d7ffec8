//! Deciding "is there a total order satisfying these constraints?"
//! with a SAT solver and lazily discharged transitivity.
//!
//! One boolean variable per unordered event pair `{a, b}` encodes
//! `before(a, b)`; a full assignment is a *tournament*. Transitivity
//! (the O(n³) clause set that makes a tournament a total order) is not
//! encoded up front. Instead, dbcop-style CEGAR: solve, check the
//! returned tournament for cycles, and add only the violated triangle
//! clauses `¬(u<v ∧ v<c ∧ c<u)`, repeating until the tournament is
//! transitive (SAT: decode the order) or the clause set is refuted
//! (UNSAT). Acyclicity is checked in O(n²) via out-degree scores: a
//! tournament is transitive iff every edge points from a higher score
//! to a lower one, and for any offending edge a counting argument
//! produces a witnessing triangle in one linear scan.

use tinysat::{Lit, SolveResult, Solver};

/// Outcome of an order solve.
pub(crate) enum Outcome {
    /// A transitive tournament was found; events in order, first = earliest.
    Sat(Vec<u32>),
    Unsat,
    Unknown(String),
}

/// Solver-side statistics, accumulated across CEGAR rounds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OrderStats {
    pub vars: usize,
    pub clauses: usize,
    pub rounds: usize,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
}

pub(crate) struct OrderSolve {
    pub outcome: Outcome,
    pub stats: OrderStats,
}

/// Triangle clauses added per CEGAR round; bounds round latency while
/// still converging quickly (each clause kills the found cycle).
const BATCH: usize = 256;

pub(crate) fn solve_order(
    n_events: u32,
    clauses: &[Vec<(u32, u32)>],
    max_conflicts: u64,
    max_rounds: usize,
) -> OrderSolve {
    let n = n_events as usize;
    let mut stats = OrderStats::default();
    if n <= 1 {
        return OrderSolve {
            outcome: Outcome::Sat((0..n_events).collect()),
            stats,
        };
    }

    // Pair variables, triangular numbering: var(i, j) for i < j.
    let base: Vec<usize> = (0..n).map(|i| i * (2 * n - i - 1) / 2).collect();
    let var = |a: usize, b: usize| -> u32 {
        debug_assert!(a < b);
        (base[a] + (b - a - 1)) as u32
    };
    // Literal asserting `a before b`.
    let lit = |a: usize, b: usize| -> Lit {
        if a < b {
            Lit::pos(var(a, b))
        } else {
            Lit::neg(var(b, a))
        }
    };

    let mut s = Solver::new();
    let n_vars = n * (n - 1) / 2;
    for _ in 0..n_vars {
        s.new_var();
    }
    stats.vars = n_vars;

    let mut ok = true;
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| lit(a as usize, b as usize))
            .collect();
        if lits.is_empty() || !s.add_clause(&lits) {
            ok = false;
            break;
        }
    }
    stats.clauses = clauses.len();
    if !ok {
        return OrderSolve {
            outcome: Outcome::Unsat,
            stats,
        };
    }

    let mut before = vec![false; n_vars];
    let mut scores: Vec<u32> = vec![0; n];
    let mut seen_triangles: rustc_hash::FxHashSet<(u32, u32, u32)> =
        rustc_hash::FxHashSet::default();
    for round in 0..max_rounds {
        stats.rounds = round + 1;
        let budget = max_conflicts.saturating_sub(stats.conflicts);
        if budget == 0 {
            stats.absorb(&s);
            return OrderSolve {
                outcome: Outcome::Unknown("conflict budget exhausted".to_string()),
                stats,
            };
        }
        match s.solve_limited(budget) {
            SolveResult::Unsat => {
                stats.absorb(&s);
                return OrderSolve {
                    outcome: Outcome::Unsat,
                    stats,
                };
            }
            SolveResult::Unknown => {
                stats.absorb(&s);
                return OrderSolve {
                    outcome: Outcome::Unknown("conflict budget exhausted".to_string()),
                    stats,
                };
            }
            SolveResult::Sat => {}
        }

        // Tournament → out-degree scores.
        scores.iter_mut().for_each(|x| *x = 0);
        for a in 0..n {
            for b in (a + 1)..n {
                let fwd = s.model_value(var(a, b));
                before[var(a, b) as usize] = fwd;
                if fwd {
                    scores[a] += 1;
                } else {
                    scores[b] += 1;
                }
            }
        }
        let edge = |u: usize, v: usize| -> bool {
            if u < v {
                before[var(u, v) as usize]
            } else {
                !before[var(v, u) as usize]
            }
        };

        // Transitive iff every edge descends in score. For an edge
        // u→v with score[u] ≤ score[v] some c closes a 3-cycle
        // v→c→u (else N⁺(v) ⊆ N⁺(u) yet v ∈ N⁺(u)\N⁺(v), contradicting
        // the score comparison); forbid that triangle and re-solve.
        let mut batch: Vec<[usize; 3]> = Vec::new();
        'scan: for u in 0..n {
            for v in 0..n {
                if u == v || !edge(u, v) || scores[u] > scores[v] {
                    continue;
                }
                for c in 0..n {
                    if c != u && c != v && edge(v, c) && edge(c, u) {
                        let tri = normalize(u as u32, v as u32, c as u32);
                        if seen_triangles.insert(tri) {
                            batch.push([u, v, c]);
                        }
                        break;
                    }
                }
                if batch.len() >= BATCH {
                    break 'scan;
                }
            }
        }

        if batch.is_empty() {
            // Transitive: descending score is the order.
            let mut order: Vec<u32> = (0..n_events).collect();
            order.sort_by_key(|&e| std::cmp::Reverse(scores[e as usize]));
            stats.absorb(&s);
            return OrderSolve {
                outcome: Outcome::Sat(order),
                stats,
            };
        }
        for [u, v, c] in batch {
            // ¬(u<v ∧ v<c ∧ c<u)
            if !s.add_clause(&[lit(v, u), lit(c, v), lit(u, c)]) {
                stats.absorb(&s);
                return OrderSolve {
                    outcome: Outcome::Unsat,
                    stats,
                };
            }
            stats.clauses += 1;
        }
    }
    stats.absorb(&s);
    OrderSolve {
        outcome: Outcome::Unknown("transitivity refinement did not converge".to_string()),
        stats,
    }
}

fn normalize(u: u32, v: u32, c: u32) -> (u32, u32, u32) {
    // Rotate the directed 3-cycle u→v→c→u so the smallest vertex leads.
    if u <= v && u <= c {
        (u, v, c)
    } else if v <= u && v <= c {
        (v, c, u)
    } else {
        (c, u, v)
    }
}

impl OrderStats {
    fn absorb(&mut self, s: &Solver) {
        self.conflicts = s.stats.conflicts;
        self.decisions = s.stats.decisions;
        self.propagations = s.stats.propagations;
    }
}
