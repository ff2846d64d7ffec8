//! `elle-sat`: a SAT-backed *complete* checker for serializability and
//! snapshot isolation, cross-checking the cycle engine.
//!
//! Elle's Adya-cycle search (the `elle-core` engine) is sound but
//! incomplete: some anomalies only appear when reasoning over **all**
//! admissible version orders at once, which a fixed inferred graph
//! cannot express. This crate closes that gap for the two models where
//! a total-order semantics exists:
//!
//! * **serializable** — does any total order of the live transactions
//!   reproduce every observed read exactly?
//! * **snapshot-isolation** — does any placement of begin/commit
//!   events exist under which every read is a snapshot read and
//!   same-key writers obey first-committer-wins?
//!
//! The encoding (`encode`) compiles observed reads into ordering
//! constraints over abstract events; the solver (`order`) maps
//! unordered event pairs to SAT variables on the vendored
//! [`tinysat`] CDCL core and discharges transitivity lazily
//! (dbcop-style CEGAR). The cycle engine's inferred ww/wr/rw edges are
//! asserted as unit clauses — sound inferences that prune search
//! without changing the verdict.
//!
//! A satisfiable answer decodes into a **witness order** of real
//! transaction ids (verifiable by serial replay,
//! [`verify_serial_order`]); an unsatisfiable one is delta-debugged
//! down to a **1-minimal witness**: a transaction subset that is still
//! refutable on its own and stops being refutable when any one of its
//! transactions is removed. The verdict's `minimized` flag says whether
//! the search finished within its probe budget.

#![forbid(unsafe_code)]

mod encode;
mod order;

pub use encode::SatModel;

use elle_core::{CheckOptions, Checker};
use elle_history::{History, Mop, ReadValue, TxnId};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// Total CDCL conflict budget across CEGAR rounds; exhausted →
/// [`SatVerdict::Unknown`].
const MAX_CONFLICTS: u64 = 2_000_000;
/// Cap on transitivity-refinement rounds.
const MAX_ROUNDS: usize = 400;
/// Cap on pair variables (events²/2); larger systems → Unknown rather
/// than unbounded memory.
const MAX_VARS: usize = 2_000_000;
/// Cap on solver probes spent minimizing a witness.
const MINIMIZE_SOLVE_CAP: usize = 600;
/// Conflict budget of one minimization probe.
const PROBE_CONFLICTS: u64 = 100_000;
/// Refinement-round cap of one minimization probe.
const PROBE_ROUNDS: usize = 100;

/// The SAT engine's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatVerdict {
    /// A total order exists; `order` lists the included transactions
    /// earliest-first (for snapshot isolation: by commit event).
    Satisfiable {
        /// Witness serialization, earliest first.
        order: Vec<TxnId>,
    },
    /// No admissible order exists.
    Violated {
        /// Transactions whose sub-history is already refutable.
        witness: Vec<TxnId>,
        /// Whether `witness` is 1-minimal. False when delta-debugging
        /// ran out of solver probes before it finished.
        minimized: bool,
        /// Human-readable account of the refutation.
        explanation: String,
    },
    /// Budget exhausted before a verdict.
    Unknown {
        /// Which budget ran out.
        reason: String,
    },
    /// The encoding does not cover this history (counters, ambiguous
    /// writers, mixed-datatype keys).
    Unsupported {
        /// Why the history is out of scope.
        reason: String,
    },
}

impl SatVerdict {
    /// True for [`SatVerdict::Satisfiable`].
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, SatVerdict::Satisfiable { .. })
    }

    /// True for [`SatVerdict::Violated`].
    pub fn is_violated(&self) -> bool {
        matches!(self, SatVerdict::Violated { .. })
    }
}

/// Work counters for one [`check`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Transactions included in the encoding.
    pub included: usize,
    /// Abstract order events (= included under SER, 2× under SI).
    pub events: usize,
    /// Pair variables allocated.
    pub vars: usize,
    /// Constraint clauses (semantic + IDSG units + learned triangles).
    pub clauses: usize,
    /// CEGAR rounds used.
    pub rounds: usize,
    /// CDCL conflicts across all rounds.
    pub conflicts: u64,
    /// CDCL decisions across all rounds.
    pub decisions: u64,
    /// Unit propagations across all rounds.
    pub propagations: u64,
    /// Extra solver probes spent on witness minimization.
    pub minimize_solves: usize,
    /// Wall-clock for the whole check.
    pub elapsed: std::time::Duration,
}

/// Verdict plus stats.
#[derive(Debug, Clone)]
pub struct SatReport {
    /// The engine's answer.
    pub verdict: SatVerdict,
    /// Work counters.
    pub stats: SatStats,
}

/// Check `history` against `model` with the SAT engine.
pub fn check(history: &History, model: SatModel) -> SatReport {
    let start = Instant::now();
    let mut stats = SatStats::default();

    let idsg = Checker::new(CheckOptions::serializable()).infer_idsg(history);
    let verdict = match encode::encode(history, model, Some(&idsg)) {
        encode::Encoded::Unsupported { reason } => SatVerdict::Unsupported { reason },
        encode::Encoded::Refuted { txns, explanation } => {
            stats.included = txns.len();
            SatVerdict::Violated {
                witness: txns,
                minimized: true,
                explanation,
            }
        }
        encode::Encoded::System(sys) => {
            stats.included = sys.txns.len();
            stats.events = sys.n_events as usize;
            let n = sys.n_events as usize;
            if n * n.saturating_sub(1) / 2 > MAX_VARS {
                SatVerdict::Unknown {
                    reason: format!(
                        "{} events need {} order variables, over the {} cap",
                        n,
                        n * (n - 1) / 2,
                        MAX_VARS
                    ),
                }
            } else {
                let solved =
                    order::solve_order(sys.n_events, &sys.clauses, MAX_CONFLICTS, MAX_ROUNDS);
                stats.vars = solved.stats.vars;
                stats.clauses = solved.stats.clauses;
                stats.rounds = solved.stats.rounds;
                stats.conflicts = solved.stats.conflicts;
                stats.decisions = solved.stats.decisions;
                stats.propagations = solved.stats.propagations;
                match solved.outcome {
                    order::Outcome::Unknown(reason) => SatVerdict::Unknown { reason },
                    order::Outcome::Sat(events) => SatVerdict::Satisfiable {
                        order: decode_order(&sys, &events),
                    },
                    order::Outcome::Unsat => {
                        let (witness, minimized) =
                            minimize(history, model, sys.txns, MINIMIZE_SOLVE_CAP, &mut stats);
                        let explanation = format!(
                            "no {model} order exists over {} ({} transactions, CEGAR UNSAT)",
                            encode::txn_list(&witness),
                            witness.len(),
                        );
                        SatVerdict::Violated {
                            witness,
                            minimized,
                            explanation,
                        }
                    }
                }
            }
        }
    };

    stats.elapsed = start.elapsed();
    SatReport { verdict, stats }
}

/// Decode a transitive event order into a transaction order: under SI,
/// commit events carry the serialization; begins only place snapshots.
fn decode_order(sys: &encode::System, events: &[u32]) -> Vec<TxnId> {
    match sys.model {
        SatModel::Serializable => events.iter().map(|&e| sys.txns[e as usize]).collect(),
        SatModel::SnapshotIsolation => events
            .iter()
            .filter(|&&e| e % 2 == 1)
            .map(|&e| sys.txns[(e / 2) as usize])
            .collect(),
    }
}

/// Build the sub-history over `keep` (ascending original ids),
/// preserving everything else about each transaction. Ids are
/// re-assigned by position; `keep[i]` is sub-id `i`. Public for the
/// differential suites, which delta-debug disagreements over it.
pub fn sub_history(history: &History, keep: &[TxnId]) -> History {
    History::from_txns(keep.iter().map(|&id| history.get(id).clone()).collect())
}

/// One minimization probe: is the sub-history over `keep` still
/// refutable *by the solver* (not merely by a pre-check artifact of
/// the removal, e.g. a read whose writer was dropped)?
fn probe_unsat(history: &History, model: SatModel, keep: &[TxnId], stats: &mut SatStats) -> bool {
    let sub = sub_history(history, keep);
    stats.minimize_solves += 1;
    match encode::encode(&sub, model, None) {
        encode::Encoded::System(sys) => {
            let solved =
                order::solve_order(sys.n_events, &sys.clauses, PROBE_CONFLICTS, PROBE_ROUNDS);
            matches!(solved.outcome, order::Outcome::Unsat)
        }
        _ => false,
    }
}

/// Delta-debug an UNSAT verdict toward a 1-minimal witness: ddmin over
/// the included transactions, accepting a removal only when the
/// remaining sub-history is still solver-refutable on its own. The
/// result is a self-contained counterexample — checking just those
/// transactions reproduces the violation. Returns whether ddmin
/// finished (no single transaction can be removed) before `cap` probes
/// ran out; if not, the witness is refutable but maybe not 1-minimal.
fn minimize(
    history: &History,
    model: SatModel,
    mut current: Vec<TxnId>,
    cap: usize,
    stats: &mut SatStats,
) -> (Vec<TxnId>, bool) {
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            if stats.minimize_solves >= cap {
                return (current, false);
            }
            let end = (start + chunk).min(current.len());
            let mut candidate: Vec<TxnId> = current[..start].to_vec();
            candidate.extend_from_slice(&current[end..]);
            if probe_unsat(history, model, &candidate, stats) {
                current = candidate;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            granularity = granularity.saturating_sub(1).max(2);
        } else if granularity >= current.len() {
            break;
        } else {
            granularity = (granularity * 2).min(current.len());
        }
    }
    (current, true)
}

/// Replay `order` as a serial execution and verify every observed read
/// of every transaction in it. This is an *independent* soundness
/// check on [`SatVerdict::Satisfiable`] serializability verdicts: the
/// decoded order must reproduce each observed value exactly.
pub fn verify_serial_order(history: &History, order: &[TxnId]) -> Result<(), String> {
    use std::collections::BTreeSet;
    let mut lists: FxHashMap<elle_history::Key, Vec<elle_history::Elem>> = FxHashMap::default();
    let mut regs: FxHashMap<elle_history::Key, Option<elle_history::Elem>> = FxHashMap::default();
    let mut sets: FxHashMap<elle_history::Key, BTreeSet<elle_history::Elem>> = FxHashMap::default();
    for &id in order {
        let t = history.get(id);
        for m in &t.mops {
            match m {
                Mop::Append { key, elem } => lists.entry(*key).or_default().push(*elem),
                Mop::Write { key, elem } => {
                    regs.insert(*key, Some(*elem));
                }
                Mop::AddToSet { key, elem } => {
                    sets.entry(*key).or_default().insert(*elem);
                }
                Mop::Increment { .. } => {
                    return Err("serial replay does not cover counters".to_string())
                }
                Mop::Read { value: None, .. } => {}
                Mop::Read {
                    key,
                    value: Some(v),
                } => {
                    if !t.status.is_committed() {
                        continue;
                    }
                    match v {
                        ReadValue::List(obs) => {
                            let state = lists.entry(*key).or_default();
                            if state != obs {
                                return Err(format!(
                                    "T{} read {key} as {obs:?} but serial state is {state:?}",
                                    id.0
                                ));
                            }
                        }
                        ReadValue::Register(obs) => {
                            let state = regs.entry(*key).or_default();
                            if state != obs {
                                return Err(format!(
                                    "T{} read register {key} mismatching serial state",
                                    id.0
                                ));
                            }
                        }
                        ReadValue::Set(obs) => {
                            let state = sets.entry(*key).or_default();
                            if state != obs {
                                return Err(format!(
                                    "T{} read set {key} mismatching serial state",
                                    id.0
                                ));
                            }
                        }
                        ReadValue::Counter(_) => {
                            return Err("serial replay does not cover counters".to_string())
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::HistoryBuilder;

    fn ser(h: &History) -> SatReport {
        check(h, SatModel::Serializable)
    }

    fn si(h: &History) -> SatReport {
        check(h, SatModel::SnapshotIsolation)
    }

    /// The paper's §7.1 G-single trio (the TiDB case study shape):
    /// T2 misses T3's append yet a later read places T3 before T2.
    fn g_single_history() -> History {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(34, 2).commit();
        b.txn(1).append(34, 1).commit();
        b.txn(2)
            .read_list(34, [2, 1])
            .append(36, 5)
            .append(34, 4)
            .commit();
        b.txn(3).append(34, 5).commit();
        b.txn(4).read_list(34, [2, 1, 5, 4]).commit();
        b.build()
    }

    #[test]
    fn clean_list_history_is_satisfiable_both_models() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 2).read_list(1, [1, 2]).commit();
        b.txn(2).read_list(1, [1, 2]).commit();
        let h = b.build();
        for model in [SatModel::Serializable, SatModel::SnapshotIsolation] {
            let r = check(&h, model);
            let SatVerdict::Satisfiable { order } = &r.verdict else {
                panic!("{model}: expected satisfiable, got {:?}", r.verdict);
            };
            assert_eq!(order.len(), 3);
            verify_serial_order(&h, order).expect("decoded order must replay");
        }
    }

    #[test]
    fn g_single_violates_both_models() {
        let h = g_single_history();
        for model in [SatModel::Serializable, SatModel::SnapshotIsolation] {
            let r = check(&h, model);
            let SatVerdict::Violated {
                witness, minimized, ..
            } = &r.verdict
            else {
                panic!("expected violated, got {:?}", r.verdict);
            };
            assert!(*minimized);
            // The core is T2 (missed T3's append) plus T3 plus the read
            // T4 that pins T3 before T2 — context included, never more
            // than the five transactions of the trio.
            assert!(witness.len() <= 5, "witness too large: {witness:?}");
            assert!(witness.contains(&TxnId(2)) && witness.contains(&TxnId(3)));

            // The CEGAR loop refutes this history, so the witness comes
            // from delta debugging, which says whether it finished: one
            // probe is not enough, the real cap is, and the finished
            // witness loses its refutation without any one transaction.
            let encode::Encoded::System(sys) = encode::encode(&h, model, None) else {
                panic!("{model}: expected a CEGAR system");
            };
            let (_, finished) = minimize(&h, model, sys.txns.clone(), 1, &mut SatStats::default());
            assert!(!finished, "{model}: one probe cannot finish ddmin");
            let mut stats = SatStats::default();
            let (minimal, finished) = minimize(&h, model, sys.txns, MINIMIZE_SOLVE_CAP, &mut stats);
            assert!(finished, "{model}: ddmin hit the cap");
            assert_eq!(&minimal, witness);
            for drop in 0..minimal.len() {
                let mut fewer = minimal.clone();
                fewer.remove(drop);
                assert!(
                    !probe_unsat(&h, model, &fewer, &mut stats),
                    "{model}: {minimal:?} is not 1-minimal without {:?}",
                    minimal[drop]
                );
            }
        }
    }

    #[test]
    fn register_write_skew_splits_the_models() {
        // Classic A5B: both read both registers' initial state, each
        // blind-writes one. No serial order; fine under SI.
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_register(1, None)
            .read_register(2, None)
            .write(1, 10)
            .commit();
        b.txn(1)
            .read_register(1, None)
            .read_register(2, None)
            .write(2, 20)
            .commit();
        b.txn(2)
            .read_register(1, Some(10))
            .read_register(2, Some(20))
            .commit();
        let h = b.build();
        assert!(
            ser(&h).verdict.is_violated(),
            "write skew has no serial order"
        );
        assert!(si(&h).verdict.is_satisfiable(), "SI admits write skew");
    }

    #[test]
    fn lost_update_violates_si_too() {
        // Both writers read nil then write the same register:
        // first-committer-wins forbids both commits.
        let mut b = HistoryBuilder::new();
        b.txn(0).read_register(7, None).write(7, 1).commit();
        b.txn(1).read_register(7, None).write(7, 2).commit();
        b.txn(2).read_register(7, Some(2)).commit();
        let h = b.build();
        assert!(ser(&h).verdict.is_violated());
        assert!(si(&h).verdict.is_violated());
    }

    #[test]
    fn long_fork_shows_the_completeness_gap() {
        // Two reads observe T0 and T1 in opposite orders: under SI
        // snapshots are commit-order prefixes, so this "long fork" is
        // forbidden — but the cycle engine only finds G2-item here
        // (which SI tolerates, so it calls the history SI-clean). SAT
        // is strictly stronger.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(2, 2).commit();
        b.txn(2).read_list(1, [1]).read_list(2, []).commit();
        b.txn(3).read_list(2, [2]).read_list(1, []).commit();
        let h = b.build();
        assert!(ser(&h).verdict.is_violated());
        assert!(si(&h).verdict.is_violated(), "long fork is not SI");
        // The cycle engine misses it under SI:
        let cyc = Checker::new(CheckOptions::snapshot_isolation()).check(&h);
        assert!(cyc.ok(), "cycle engine is blind to long fork under SI");
    }

    #[test]
    fn aborted_read_refutes_with_both_culprits() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(5, 1).abort();
        b.txn(1).read_list(5, [1]).commit();
        let h = b.build();
        let r = ser(&h);
        let SatVerdict::Violated {
            witness,
            explanation,
            ..
        } = &r.verdict
        else {
            panic!("expected violated, got {:?}", r.verdict);
        };
        assert_eq!(witness, &vec![TxnId(0), TxnId(1)]);
        assert!(explanation.contains("G1a"), "{explanation}");
    }

    #[test]
    fn intermediate_list_read_refutes() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(3, 1).append(3, 2).commit();
        b.txn(1).read_list(3, [1]).commit();
        let h = b.build();
        let r = si(&h);
        assert!(r.verdict.is_violated(), "torn block: {:?}", r.verdict);
    }

    #[test]
    fn observed_indeterminate_writer_is_included() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(9, 1).indeterminate();
        b.txn(1).read_list(9, [1]).commit();
        let h = b.build();
        let r = ser(&h);
        let SatVerdict::Satisfiable { order } = &r.verdict else {
            panic!("expected satisfiable, got {:?}", r.verdict);
        };
        assert_eq!(order.len(), 2, "indeterminate writer must be placed");
        assert_eq!(order, &vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn counters_are_unsupported() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 1).commit();
        b.txn(1).read_counter(1, 1).commit();
        let h = b.build();
        assert!(matches!(ser(&h).verdict, SatVerdict::Unsupported { .. }));
    }

    #[test]
    fn witness_is_minimal_amid_clean_noise() {
        // A lost-update core buried in unrelated clean transactions:
        // the witness must name only the core.
        let mut b = HistoryBuilder::new();
        for i in 0..8u64 {
            let k = 100 + i;
            b.txn(i as u32).append(k, 1).read_list(k, [1]).commit();
        }
        b.txn(20).read_register(7, None).write(7, 1).commit();
        b.txn(21).read_register(7, None).write(7, 2).commit();
        b.txn(22).read_register(7, Some(2)).commit();
        let h = b.build();
        let r = ser(&h);
        let SatVerdict::Violated {
            witness, minimized, ..
        } = &r.verdict
        else {
            panic!("expected violated, got {:?}", r.verdict);
        };
        assert!(*minimized);
        assert!(
            witness.iter().all(|t| t.0 >= 8),
            "clean noise leaked into witness: {witness:?}"
        );
        assert!(witness.len() <= 3, "not minimal: {witness:?}");
        // And the witness certifies itself: its sub-history alone is
        // still violated.
        let sub = sub_history(&h, witness);
        assert!(ser(&sub).verdict.is_violated());
    }

    #[test]
    fn si_satisfiable_order_interleaves_commits_legally() {
        let h = {
            let mut b = HistoryBuilder::new();
            b.txn(0).append(1, 1).commit();
            b.txn(1).read_list(1, [1]).append(2, 2).commit();
            b.txn(2).read_list(1, [1]).read_list(2, [2]).commit();
            b.build()
        };
        let r = si(&h);
        let SatVerdict::Satisfiable { order } = &r.verdict else {
            panic!("{:?}", r.verdict);
        };
        assert_eq!(order.len(), 3);
    }
}
