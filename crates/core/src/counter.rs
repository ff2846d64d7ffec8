//! Counter analysis (§3 of the paper) — deliberately modest.
//!
//! Counters are traceability's worst case: any non-trivial increment
//! history is non-recoverable, because we cannot tell *which* increment
//! produced a given value. What survives:
//!
//! * **rr ordering**: when every increment is positive, versions are
//!   monotonically increasing, so committed reads order by value;
//! * **bounds checking**: a read below 0 or above the sum of all positive
//!   increments can never have been produced — a garbage read;
//! * **internal consistency**: within one transaction, a read must equal
//!   the previous read plus the transaction's own increments since.
//!
//! Counters run through the same [`DatatypeAnalysis`] driver as the
//! recoverable datatypes — a transaction-major internal pass, a flat
//! **gather** partitioning the (scoped) transactions by key, and a
//! per-key **finalize** — so both checker drivers treat all four
//! datatypes alike. Counters are not [`DatatypeAnalysis::RECOVERABLE`]:
//! they skip the duplicate-write pass.

use crate::anomaly::{Anomaly, AnomalyType, Witness};
use crate::datatype::{
    internal_pass, run_mode, AnalysisCtx, DatatypeAnalysis, GatherStats, InternalMismatch, KeySink,
    Parallelism, Vocab,
};
use crate::deps::DepGraph;
use crate::gather::GatherBuf;
use crate::observation::{DataType, ElemIndex};
use elle_history::{Elem, History, Key, Mop, ReadValue, TxnId, TxnStatus};

/// Result of the counter analysis.
#[derive(Debug, Default)]
pub struct CounterAnalysis {
    /// Inferred dependency edges (`rr` only).
    pub deps: DepGraph,
    /// Non-cycle anomalies.
    pub anomalies: Vec<Anomaly>,
    /// Gather-phase cost (time + peak flat-buffer bytes).
    pub gather: GatherStats,
}

/// One counter-key event from the flat gather scan.
#[derive(Debug, Clone, Copy)]
pub enum CounterOcc {
    /// An increment (any status); `may_commit` mirrors
    /// `TxnStatus::may_have_committed` for the bound computation.
    Inc {
        /// The increment amount.
        amount: i64,
        /// Whether the incrementing transaction may have committed.
        may_commit: bool,
    },
    /// A committed read `(txn, value)`.
    Read(TxnId, i64),
}

/// Everything the per-key pass needs about one counter key.
#[derive(Debug)]
struct CounterKeyData {
    /// Every increment so far was strictly positive.
    all_positive: bool,
    /// Sum of positive increments by may-have-committed transactions.
    max_sum: i64,
    /// Committed reads `(txn, value)`, in invocation order.
    reads: Vec<(TxnId, i64)>,
}

impl Default for CounterKeyData {
    fn default() -> Self {
        CounterKeyData {
            // Vacuously true until a non-positive increment shows up.
            all_positive: true,
            max_sum: 0,
            reads: Vec::new(),
        }
    }
}

impl CounterKeyData {
    /// Fold one key's occurrence run into the per-key aggregate.
    fn from_occs(occs: &[CounterOcc]) -> Self {
        let mut d = CounterKeyData::default();
        for occ in occs {
            match occ {
                CounterOcc::Inc { amount, may_commit } => {
                    d.all_positive = d.all_positive && *amount > 0;
                    if *may_commit && *amount > 0 {
                        d.max_sum += amount;
                    }
                }
                CounterOcc::Read(t, v) => d.reads.push((*t, *v)),
            }
        }
        d
    }
}

/// Analyze one counter key: bounds-check its reads and derive the `rr`
/// chain. Returns `(anomalies, edges)` in emission order.
fn analyze_key(
    history: &History,
    key: Key,
    data: &CounterKeyData,
) -> (Vec<Anomaly>, Vec<(TxnId, TxnId, Witness)>) {
    let mut anomalies = Vec::new();
    let mut edges = Vec::new();
    if data.reads.is_empty() {
        return (anomalies, edges);
    }
    if !data.all_positive {
        // Mixed-sign increments: no ordering or bounds inference.
        return (anomalies, edges);
    }
    let bound = data.max_sum;
    let mut reads = data.reads.clone();
    for (t, v) in &reads {
        if *v < 0 || *v > bound {
            anomalies.push(Anomaly {
                typ: AnomalyType::GarbageRead,
                txns: vec![*t],
                key: Some(key),
                steps: vec![],
                explanation: format!(
                    "{}\n  read {v} of counter {key}, outside the reachable range \
                     [0, {bound}]",
                    history.get(*t).to_notation()
                ),
            });
        }
    }
    // rr chain over distinct observed values.
    reads.sort_by_key(|(_, v)| *v);
    reads.dedup();
    for w in reads.windows(2) {
        let ((ta, va), (tb, vb)) = (w[0], w[1]);
        if va < vb && ta != tb {
            edges.push((ta, tb, Witness::Rr { key }));
        }
    }
    (anomalies, edges)
}

/// The counter datatype: bounds and `rr` inference per key, internal
/// consistency per transaction.
#[derive(Debug)]
pub struct Counter;

impl DatatypeAnalysis for Counter {
    type Config = ();
    type Aux<'h> = ();
    type Occ<'h> = CounterOcc;

    const DATATYPE: DataType = DataType::Counter;
    const VOCAB: Vocab = Vocab {
        object: "counter",
        item: "value",
        wrote: "incremented",
        written: "incremented",
        wrote_to: "incremented",
        rmw: "incremented",
        garbage_per_reader: true,
    };
    const RECOVERABLE: bool = false;

    /// Internal consistency: a read equals the previous read plus the
    /// transaction's own increments since. State per key: the last read
    /// (if any) and the increments after it.
    fn check_internal(cx: &AnalysisCtx<'_, ()>, sink: &mut KeySink) {
        internal_pass(cx, sink, |_, m, key, st: &mut (Option<i64>, i64)| match m {
            Mop::Increment { amount, .. } => {
                st.1 += amount;
                None
            }
            Mop::Read {
                value: Some(ReadValue::Counter(v)),
                ..
            } => {
                let expected = st.0.map(|prev| prev + st.1);
                *st = (Some(*v), 0);
                expected
                    .filter(|e| e != v)
                    .map(|expected| InternalMismatch {
                        message: format!(
                            "read {v} of counter {key}, but prior operations imply {expected}"
                        ),
                    })
            }
            _ => None,
        });
    }

    /// One `(slot, occurrence)` tuple per increment and per committed
    /// counter read.
    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<CounterOcc>) {
        for t in cx.scoped_txns() {
            for m in &t.mops {
                match m {
                    Mop::Increment { key, amount } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(
                                slot,
                                CounterOcc::Inc {
                                    amount: *amount,
                                    may_commit: t.status.may_have_committed(),
                                },
                            );
                        }
                    }
                    Mop::Read {
                        key,
                        value: Some(ReadValue::Counter(v)),
                    } if t.status == TxnStatus::Committed => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(slot, CounterOcc::Read(t.id, *v));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Counters carry no elements, so they add nothing to coverage.
    fn observed_elems(_: &[CounterOcc]) -> Vec<Elem> {
        Vec::new()
    }

    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, ()>,
        _: &(),
        key: Key,
        occs: &[CounterOcc],
        _: bool,
        sink: &mut KeySink,
    ) {
        let (anomalies, edges) = analyze_key(cx.history, key, &CounterKeyData::from_occs(occs));
        sink.anomalies = anomalies;
        sink.edges = edges;
    }
}

/// Run the counter analysis over `counter_keys` through the shared
/// driver.
pub fn analyze(history: &History, counter_keys: &[Key]) -> CounterAnalysis {
    // Counters never consult element provenance.
    let elems = ElemIndex::new();
    let out = run_mode::<Counter>(history, &elems, counter_keys, (), Parallelism::Auto);
    CounterAnalysis {
        deps: out.deps,
        anomalies: out.anomalies,
        gather: out.gather,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{DataType, KeyTypes};
    use elle_graph::EdgeClass;
    use elle_history::HistoryBuilder;

    fn run(h: &History) -> CounterAnalysis {
        let kt = KeyTypes::infer(h);
        analyze(h, &kt.keys_of(DataType::Counter))
    }

    fn types(a: &CounterAnalysis) -> Vec<AnomalyType> {
        let mut t: Vec<AnomalyType> = a.anomalies.iter().map(|x| x.typ).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    #[test]
    fn rr_ordering_by_value() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 1).commit();
        b.txn(1).increment(1, 1).commit();
        let t2 = b.txn(2).read_counter(1, 1).commit();
        let t3 = b.txn(3).read_counter(1, 2).commit();
        let a = run(&b.build());
        assert!(a.deps.edge_mask(t2.0, t3.0).contains(EdgeClass::Rr));
        assert!(!a.deps.edge_mask(t3.0, t2.0).contains(EdgeClass::Rr));
    }

    #[test]
    fn out_of_range_read_is_garbage() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 2).commit();
        b.txn(1).read_counter(1, 5).commit();
        b.txn(2).read_counter(1, -1).commit();
        let a = run(&b.build());
        assert_eq!(
            a.anomalies
                .iter()
                .filter(|x| x.typ == AnomalyType::GarbageRead)
                .count(),
            2
        );
    }

    #[test]
    fn aborted_increments_do_not_raise_bound() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 2).commit();
        b.txn(1).increment(1, 10).abort();
        b.txn(2).read_counter(1, 12).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::GarbageRead));
    }

    #[test]
    fn mixed_sign_disables_inference() {
        let mut b = HistoryBuilder::new();
        b.txn(0).increment(1, 5).commit();
        b.txn(1).increment(1, -3).commit();
        b.txn(2).read_counter(1, 99).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty());
        assert_eq!(a.deps.edge_count(), 0);
    }

    #[test]
    fn internal_inconsistency() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_counter(1, 0)
            .increment(1, 2)
            .read_counter(1, 5)
            .commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn internal_consistency_holds() {
        let mut b = HistoryBuilder::new();
        b.txn(0)
            .read_counter(1, 0)
            .increment(1, 2)
            .read_counter(1, 2)
            .commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }
}
