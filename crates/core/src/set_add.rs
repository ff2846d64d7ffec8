//! Grow-only set analysis (§3 of the paper).
//!
//! Sets sit between counters and lists: unique adds make versions
//! *recoverable* (each element maps to its adder), but sets are order-free,
//! so write-write dependencies between adders cannot be determined. We
//! infer, per the paper's `T0…T3` example:
//!
//! * `rr`: a read of a proper subset precedes a read of its superset —
//!   compared on *external* states (the value minus the reader's own
//!   adds), since reading back your own add observes no version;
//! * `wr`: the adder of each observed element precedes the reader;
//! * `rw`: a reader that did *not* observe a committed add precedes the
//!   adder (the add's version must follow the version read, because adds
//!   only grow and versions of one key form a chain in clean histories).
//!
//! The shared passes (duplicates, garbage, G1a, internal consistency
//! scaffolding) live in [`crate::datatype`]; this module contributes the
//! subset-chain reasoning that order-free sets admit.
//!
//! Like the list analysis, the per-key pass is version-interned
//! ([`crate::versions`]): each distinct read value is classified
//! element-by-element once, missing-add sets are computed once per
//! distinct value, adjacent same-version reads skip the ⊆-chain test,
//! and per-read anomalies/edges fan out from version ids — byte-identical
//! to the seed per-read pass preserved in [`crate::reference`].

use crate::anomaly::{AnomalyType, Witness};
use crate::datatype::{
    internal_pass, AnalysisCtx, DatatypeAnalysis, InternalMismatch, KeySink, ProvenanceScan, Vocab,
};
use crate::gather::GatherBuf;
use crate::observation::DataType;
use crate::versions::{VersionId, VersionTable};
use elle_history::{Elem, Key, Mop, ReadValue, TxnId, TxnStatus};
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// One committed micro-op on a set key, as emitted by the flat gather
/// scan.
#[derive(Debug, Clone, Copy)]
pub enum SetOcc<'h> {
    /// A committed read observing the given value.
    Read(TxnId, &'h BTreeSet<Elem>),
    /// A committed add of one element.
    Add(TxnId, Elem),
}

/// Everything the per-key analysis needs about one set key, folded from
/// the key's occurrence run.
#[derive(Debug, Default)]
pub struct SetKeyData<'h> {
    /// Committed reads, in invocation order.
    pub(crate) reads: Vec<(TxnId, &'h BTreeSet<Elem>)>,
    /// Committed adds, in invocation order.
    pub(crate) adds: Vec<(TxnId, Elem)>,
}

impl<'h> SetKeyData<'h> {
    /// Split one key's occurrence run back into the read and add
    /// sequences the retained per-key gather produced (relative order
    /// within each sequence is the scan order, unchanged).
    pub(crate) fn from_occs(occs: &[SetOcc<'h>]) -> Self {
        let mut data = SetKeyData::default();
        for occ in occs {
            match occ {
                SetOcc::Read(t, s) => data.reads.push((*t, s)),
                SetOcc::Add(t, e) => data.adds.push((*t, *e)),
            }
        }
        data
    }
}

/// The grow-only set [`DatatypeAnalysis`].
pub struct SetAdd;

impl DatatypeAnalysis for SetAdd {
    type Config = ();
    type Aux<'h> = ();
    type Occ<'h> = SetOcc<'h>;

    const DATATYPE: DataType = DataType::Set;
    const VOCAB: Vocab = Vocab {
        object: "set",
        item: "element",
        wrote: "added",
        written: "added",
        wrote_to: "added to",
        rmw: "added to",
        garbage_per_reader: true,
    };

    /// Internal consistency: a read must contain everything the
    /// transaction previously read plus its own adds. The previously
    /// read set is borrowed in place — no per-read cloning.
    fn check_internal<'h>(cx: &AnalysisCtx<'h, ()>, sink: &mut KeySink) {
        #[derive(Default)]
        struct St<'h> {
            base: Option<&'h BTreeSet<Elem>>,
            added: BTreeSet<Elem>,
        }
        internal_pass(cx, sink, |_t, m, key, st: &mut St<'h>| match m {
            Mop::AddToSet { elem, .. } => {
                st.added.insert(*elem);
                None
            }
            Mop::Read {
                value: Some(ReadValue::Set(s)),
                ..
            } => {
                let ok = st.added.is_subset(s) && st.base.is_none_or(|b| b.is_subset(s));
                let mismatch = (!ok).then(|| {
                    let mut exp = st.added.clone();
                    if let Some(b) = st.base {
                        exp.extend(b.iter().copied());
                    }
                    let missing: Vec<String> = exp.difference(s).map(|e| e.to_string()).collect();
                    InternalMismatch {
                        message: format!(
                            "read of set {key} is missing {{{}}} which this transaction \
                             itself added or observed",
                            missing.join(", ")
                        ),
                    }
                });
                st.base = Some(s);
                st.added.clear();
                mismatch
            }
            _ => None,
        });
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<SetOcc<'h>>) {
        for t in cx.scoped_txns() {
            if t.status != TxnStatus::Committed {
                continue;
            }
            for m in &t.mops {
                match m {
                    Mop::AddToSet { key, elem } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(slot, SetOcc::Add(t.id, *elem));
                        }
                    }
                    Mop::Read {
                        key,
                        value: Some(ReadValue::Set(s)),
                    } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(slot, SetOcc::Read(t.id, s));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn observed_elems(occs: &[SetOcc<'_>]) -> Vec<Elem> {
        occs.iter()
            .filter_map(|occ| match occ {
                SetOcc::Read(_, s) => Some(s.iter().copied()),
                SetOcc::Add(..) => None,
            })
            .flatten()
            .collect()
    }

    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, ()>,
        _aux: &(),
        key: Key,
        occs: &[SetOcc<'h>],
        poisoned: bool,
        out: &mut KeySink,
    ) {
        let vocab = &Self::VOCAB;
        let SetKeyData { reads, adds } = &SetKeyData::from_occs(occs);

        /// What the one-time classification concluded about one element
        /// of one distinct version.
        enum ElemClass {
            /// No transaction ever added it.
            Garbage,
            /// Added by an aborted transaction (G1a when recoverable).
            Aborted(TxnId),
            /// A trustworthy add — the source of a `wr` edge.
            Ok(TxnId),
        }

        /// Per-distinct-version facts, computed once and fanned out to
        /// every reader of the version.
        #[derive(Default)]
        struct SetVersion {
            /// Elements in set order, classified once.
            elems: Vec<(Elem, ElemClass)>,
            /// Committed adds missing from this value, in add order.
            missing: Vec<(TxnId, Elem)>,
        }

        // ── Intern: one hash + one equality check per read occurrence;
        //    each distinct set value is classified element-by-element
        //    exactly once. ────────────────────────────────────────────────
        let mut table: VersionTable<&'h BTreeSet<Elem>, SetVersion> = VersionTable::new();
        let mut vids: Vec<VersionId> = Vec::with_capacity(reads.len());
        for (_, s) in reads {
            vids.push(table.intern_with(s, |_| SetVersion::default()));
        }
        for idx in 0..table.len() {
            let vid = VersionId(idx as u32);
            let s = table.value(vid);
            let elems = s
                .iter()
                .map(|e| {
                    let class = match cx.elems.writer(key, *e) {
                        None => ElemClass::Garbage,
                        Some(w) if w.status == TxnStatus::Aborted => ElemClass::Aborted(w.txn),
                        Some(w) => ElemClass::Ok(w.txn),
                    };
                    (*e, class)
                })
                .collect();
            let missing = if poisoned {
                Vec::new()
            } else {
                adds.iter()
                    .filter(|(_, e)| !s.contains(e))
                    .copied()
                    .collect()
            };
            *table.meta_mut(vid) = SetVersion { elems, missing };
        }

        // ── Element provenance fan-out: garbage always; G1a and wr only
        //    when the element → adder map is trustworthy (`poisoned`
        //    mirrors the seed's `Provenance::Unusable` gate). ────────────
        let mut scan = ProvenanceScan::new();
        for (i, (reader, _)) in reads.iter().enumerate() {
            for (e, class) in &table.meta(vids[i]).elems {
                match class {
                    ElemClass::Garbage => {
                        scan.garbage_classified(cx, vocab, key, *reader, *e, out);
                    }
                    ElemClass::Aborted(adder) if !poisoned => {
                        scan.g1a_classified(cx, vocab, key, *reader, *e, *adder, out);
                    }
                    ElemClass::Ok(adder) if !poisoned => {
                        out.edge(*adder, *reader, Witness::WrSet { key, elem: *e });
                    }
                    _ => {}
                }
            }
        }

        // ── rw edges: committed adds missing from a read, computed once
        //    per distinct version and fanned out per reader. ─────────────
        if !poisoned {
            for (i, (reader, _)) in reads.iter().enumerate() {
                for (adder, e) in &table.meta(vids[i]).missing {
                    out.edge(*reader, *adder, Witness::RwSet { key, elem: *e });
                }
            }
        }

        // ── rr chain + compatibility: committed reads must form a
        //    ⊆-chain *after discounting each reader's own adds*. A
        //    transaction that reads back its own add observes no external
        //    version — under snapshot isolation the add is visible to its
        //    writer long before anyone else — so own elements say nothing
        //    about where the snapshot lies. Comparing raw values would
        //    order two readers whose external snapshots are identical and
        //    manufacture an `rr` edge no database run obligates. ─────────
        let external = external_views(reads, adds);
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.sort_by_key(|&i| external[i].len());
        for w in order.windows(2) {
            let (ia, ib) = (w[0], w[1]);
            let (ea, eb) = (&external[ia], &external[ib]);
            if ea == eb {
                // Equal external states — no edge, no anomaly.
                continue;
            }
            let (ta, tb) = (reads[ia].0, reads[ib].0);
            if is_subset_sorted(ea, eb) {
                // Distinct and `ea ⊆ eb` ⇒ strictly smaller.
                out.edge(ta, tb, Witness::Rr { key });
            } else {
                out.anomaly(
                    AnomalyType::IncompatibleOrder,
                    vec![ta, tb],
                    key,
                    format!(
                        "{}\n{}\n  committed reads of set {key} observe incomparable \
                         external states ({ea:?} vs {eb:?}): they cannot lie on one \
                         version order",
                        cx.history.get(ta).to_notation(),
                        cx.history.get(tb).to_notation()
                    ),
                );
            }
        }
    }
}

/// The external state each committed read observed: the read value minus
/// the reader's own adds to this key, as a sorted element list. Elements
/// are unique per adder, so the subtraction is exact. Shared with the
/// seed reference pass so both sides of the differential suite agree.
pub(crate) fn external_views(
    reads: &[(TxnId, &BTreeSet<Elem>)],
    adds: &[(TxnId, Elem)],
) -> Vec<Vec<Elem>> {
    let mut own: FxHashMap<TxnId, Vec<Elem>> = FxHashMap::default();
    for (t, e) in adds {
        own.entry(*t).or_default().push(*e);
    }
    reads
        .iter()
        .map(|(t, s)| match own.get(t) {
            None => s.iter().copied().collect(),
            Some(mine) => s.iter().copied().filter(|e| !mine.contains(e)).collect(),
        })
        .collect()
}

/// `a ⊆ b` for sorted element slices, by a single merge walk.
pub(crate) fn is_subset_sorted(a: &[Elem], b: &[Elem]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{run_mode, DriverOutput, Parallelism};
    use crate::observation::{ElemIndex, KeyTypes};
    use elle_graph::EdgeClass;
    use elle_history::{History, HistoryBuilder};

    fn run(h: &History) -> DriverOutput {
        let elems = ElemIndex::build(h);
        let kt = KeyTypes::infer(h);
        let keys = kt.keys_of(DataType::Set);
        run_mode::<SetAdd>(h, &elems, &keys, (), Parallelism::Auto)
    }

    fn types(a: &DriverOutput) -> Vec<AnomalyType> {
        let mut t: Vec<AnomalyType> = a.anomalies.iter().map(|x| x.typ).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    #[test]
    fn paper_example_t0_t3() {
        // §3: T0 reads {0}; T1 adds 1; T2 adds 2; T3 reads {0,1,2}.
        let mut b = HistoryBuilder::new();
        let seed = b.txn(9).add_to_set(1, 0).commit();
        let t0 = b.txn(0).read_set(1, [0]).commit();
        let t1 = b.txn(1).add_to_set(1, 1).commit();
        let t2 = b.txn(2).add_to_set(1, 2).commit();
        let t3 = b.txn(3).read_set(1, [0, 1, 2]).commit();
        let a = run(&b.build());
        let g = &a.deps;
        // T0 <rr T3.
        assert!(g.edge_mask(t0.0, t3.0).contains(EdgeClass::Rr));
        // T1 <wr T3, T2 <wr T3.
        assert!(g.edge_mask(t1.0, t3.0).contains(EdgeClass::Wr));
        assert!(g.edge_mask(t2.0, t3.0).contains(EdgeClass::Wr));
        // T0 <rw T1, T0 <rw T2.
        assert!(g.edge_mask(t0.0, t1.0).contains(EdgeClass::Rw));
        assert!(g.edge_mask(t0.0, t2.0).contains(EdgeClass::Rw));
        // No ww between T1 and T2 (sets are order-free).
        assert!(!g.edge_mask(t1.0, t2.0).contains(EdgeClass::Ww));
        assert!(!g.edge_mask(t2.0, t1.0).contains(EdgeClass::Ww));
        let _ = seed;
    }

    #[test]
    fn incomparable_reads_flagged() {
        let mut b = HistoryBuilder::new();
        b.txn(0).add_to_set(1, 1).commit();
        b.txn(1).add_to_set(1, 2).commit();
        b.txn(2).read_set(1, [1]).commit();
        b.txn(3).read_set(1, [2]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::IncompatibleOrder));
    }

    #[test]
    fn internal_missing_own_add() {
        let mut b = HistoryBuilder::new();
        b.txn(0).add_to_set(1, 1).read_set(1, []).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn aborted_add_is_g1a() {
        let mut b = HistoryBuilder::new();
        b.txn(0).add_to_set(1, 1).abort();
        b.txn(1).read_set(1, [1]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::G1a));
    }

    #[test]
    fn garbage_set_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).read_set(1, [42]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::GarbageRead));
    }

    #[test]
    fn duplicate_adds_poison_inference() {
        let mut b = HistoryBuilder::new();
        b.txn(0).add_to_set(1, 5).abort();
        b.txn(1).add_to_set(1, 5).commit();
        b.txn(2).read_set(1, [5]).commit();
        let a = run(&b.build());
        let t = types(&a);
        assert!(t.contains(&AnomalyType::DuplicateWrite), "{t:?}");
        assert!(!t.contains(&AnomalyType::G1a), "{t:?}");
        // No wr/rw edges for the poisoned key.
        assert_eq!(a.deps.edge_count(), 0);
    }

    #[test]
    fn clean_set_history() {
        let mut b = HistoryBuilder::new();
        b.txn(0).add_to_set(1, 1).commit();
        b.txn(1)
            .read_set(1, [1])
            .add_to_set(1, 2)
            .read_set(1, [1, 2])
            .commit();
        b.txn(2).read_set(1, [1, 2]).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }
}
