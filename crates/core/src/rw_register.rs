//! Read-write register analysis (§5 of the paper, the Dgraph mode of §7.4).
//!
//! Blind register writes "destroy history": a written version carries no
//! information about its predecessor, so traceability is lost. We instead
//! infer a *partial* version order per key from small, independently
//! toggleable assumptions:
//!
//! * **initial state**: nil precedes every other version (`xinit` is never
//!   reachable via any write);
//! * **within-transaction chains**: reads-then-writes and write-then-write
//!   sequences inside one committed transaction order their versions
//!   (writes-follow-reads);
//! * **sequential keys** (per-process): a process's later transactions see
//!   versions at least as new as its earlier ones;
//! * **linearizable keys** (real-time): if T1 completed before T2 began,
//!   T1's final version of a key precedes T2's first.
//!
//! Contradictory orders produce *cyclic version order* anomalies, which are
//! reported and the key discarded (exactly what the paper describes Elle
//! doing for Dgraph). Acyclic orders yield `ww`/`wr`/`rw` transaction
//! dependencies. Edges derived from non-adjacent versions are transitive
//! over the true order, so any cycle they witness implies a cycle of direct
//! dependencies — soundness is preserved.
//!
//! The shared passes (duplicates, garbage, G1a, lost updates, internal
//! consistency scaffolding) live in [`crate::datatype`]; this module
//! contributes version-order inference and its cycle check.

use crate::anomaly::{AnomalyType, Witness};
use crate::datatype::{
    internal_pass, report_lost_updates, AnalysisCtx, DatatypeAnalysis, InternalMismatch, KeySink,
    Provenance, ProvenanceScan, Vocab,
};
use crate::gather::GatherBuf;
use crate::observation::DataType;
use crate::versions::VersionTable;
use elle_graph::{interval_order_reduction, EdgeBuf, EdgeMask, Interval, Scratch};
use elle_history::{Elem, Key, Mop, ReadValue, Transaction, TxnId, TxnStatus};
use rustc_hash::{FxHashMap, FxHashSet};

/// A register version: `None` is the initial nil.
pub type Version = Option<Elem>;

/// Which ordering assumptions to apply (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOptions {
    /// nil precedes every written version.
    pub initial_state: bool,
    /// Within-transaction read→write / write→write chains order versions.
    pub writes_follow_reads: bool,
    /// Per-process monotonicity on each key ("sequentially consistent keys").
    pub sequential_keys: bool,
    /// Real-time monotonicity on each key ("linearizable keys").
    pub linearizable_keys: bool,
}

impl Default for RegisterOptions {
    fn default() -> Self {
        RegisterOptions {
            initial_state: true,
            writes_follow_reads: true,
            sequential_keys: false,
            linearizable_keys: false,
        }
    }
}

/// Where a version-order edge came from (for cyclic-order reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VSource {
    Initial,
    Chain,
    Process,
    Realtime,
}

impl VSource {
    pub(crate) fn describe(self) -> &'static str {
        match self {
            VSource::Initial => "initial-state",
            VSource::Chain => "writes-follow-reads",
            VSource::Process => "sequential-keys",
            VSource::Realtime => "linearizable-keys",
        }
    }
}

pub(crate) fn show(v: Version) -> String {
    match v {
        Some(e) => e.to_string(),
        None => "nil".to_string(),
    }
}

/// The last version a committed transaction left a key at, and the first
/// version it engaged with — for process/realtime version inference.
pub(crate) fn first_last_versions(t: &Transaction, key: Key) -> Option<(Version, Version)> {
    let mut first: Option<Version> = None;
    let mut last: Option<Version> = None;
    for m in &t.mops {
        let v: Option<Version> = match m {
            Mop::Write { key: k, elem } if *k == key => Some(Some(*elem)),
            Mop::Read {
                key: k,
                value: Some(ReadValue::Register(v)),
            } if *k == key => Some(*v),
            _ => None,
        };
        if let Some(v) = v {
            if first.is_none() {
                first = Some(v);
            }
            last = Some(v);
        }
    }
    first.map(|f| (f, last.expect("last set with first")))
}

/// One register-key event from the flat gather scan.
#[derive(Debug, Clone, Copy)]
pub enum RegOcc<'h> {
    /// A write's version (any transaction status).
    Version(Version),
    /// An observed read: the version always enters the seen-version
    /// set; the reader is recorded only when `committed`.
    Read {
        /// The observed version.
        v: Version,
        /// The reading transaction.
        txn: TxnId,
        /// Whether the reader committed.
        committed: bool,
    },
    /// End-of-transaction marker for a committed transaction that
    /// touched this key.
    Touch(&'h Transaction),
}

/// Everything the per-key analysis needs about one register key, folded
/// from the key's occurrence run. The fold replays the exact insertion
/// sequence the retained per-key gather performed, so the hash-map and
/// hash-set iteration orders — which downstream passes depend on for
/// deterministic output — are bit-identical.
#[derive(Debug, Default)]
pub struct RegKeyData<'h> {
    /// Committed readers per observed version (consecutive duplicates
    /// collapsed, like the event stream).
    pub(crate) readers_of: FxHashMap<Version, Vec<TxnId>>,
    /// Every version seen anywhere (writes of any status, observed reads).
    pub(crate) versions: FxHashSet<Version>,
    /// Committed transactions touching the key, in invocation order.
    pub(crate) touching: Vec<&'h Transaction>,
}

impl<'h> RegKeyData<'h> {
    pub(crate) fn from_occs(occs: &[RegOcc<'h>]) -> Self {
        let mut d = RegKeyData::default();
        for occ in occs {
            match occ {
                RegOcc::Version(v) => {
                    d.versions.insert(*v);
                }
                RegOcc::Read { v, txn, committed } => {
                    d.versions.insert(*v);
                    if *committed {
                        let rs = d.readers_of.entry(*v).or_default();
                        if rs.last() != Some(txn) {
                            rs.push(*txn);
                        }
                    }
                }
                RegOcc::Touch(t) => d.touching.push(t),
            }
        }
        d
    }
}

/// The read-write register [`DatatypeAnalysis`].
pub struct RwRegister;

impl DatatypeAnalysis for RwRegister {
    type Config = RegisterOptions;
    type Aux<'h> = ();
    type Occ<'h> = RegOcc<'h>;

    const DATATYPE: DataType = DataType::Register;
    const VOCAB: Vocab = Vocab {
        object: "register",
        item: "value",
        wrote: "wrote",
        written: "written",
        wrote_to: "written to",
        rmw: "wrote",
        garbage_per_reader: true,
    };

    /// Internal consistency: within one transaction, a read must return
    /// the last value read-or-written to the key.
    fn check_internal(cx: &AnalysisCtx<'_, RegisterOptions>, sink: &mut KeySink) {
        internal_pass(cx, sink, |_t, m, key, cur: &mut Option<Version>| match m {
            Mop::Write { elem, .. } => {
                *cur = Some(Some(*elem));
                None
            }
            Mop::Read {
                value: Some(ReadValue::Register(v)),
                ..
            } => {
                let mismatch = match cur {
                    Some(prev) if prev != v => Some(InternalMismatch {
                        message: format!(
                            "read of register {key} returned {}, but the transaction had \
                             just observed or written {}",
                            show(*v),
                            show(*prev),
                        ),
                    }),
                    _ => None,
                };
                *cur = Some(*v);
                mismatch
            }
            _ => None,
        });
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, RegisterOptions>, buf: &mut GatherBuf<RegOcc<'h>>) {
        let mut touched: Vec<u32> = Vec::new();
        for t in cx.scoped_txns() {
            touched.clear();
            let touch = |s: u32, touched: &mut Vec<u32>| {
                if !touched.contains(&s) {
                    touched.push(s);
                }
            };
            for m in &t.mops {
                match m {
                    Mop::Write { key, elem } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(slot, RegOcc::Version(Some(*elem)));
                            touch(slot, &mut touched);
                        }
                    }
                    Mop::Read {
                        key,
                        value: Some(ReadValue::Register(v)),
                    } => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(
                                slot,
                                RegOcc::Read {
                                    v: *v,
                                    txn: t.id,
                                    committed: t.status == TxnStatus::Committed,
                                },
                            );
                            touch(slot, &mut touched);
                        }
                    }
                    _ => {}
                }
            }
            if t.status == TxnStatus::Committed {
                for &s in &touched {
                    buf.push(s, RegOcc::Touch(t));
                }
            }
        }
    }

    fn observed_elems(occs: &[RegOcc<'_>]) -> Vec<Elem> {
        RegKeyData::from_occs(occs)
            .readers_of
            .keys()
            .filter_map(|v| *v)
            .collect()
    }

    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, RegisterOptions>,
        _aux: &(),
        key: Key,
        occs: &[RegOcc<'h>],
        poisoned: bool,
        out: &mut KeySink,
    ) {
        let opts = cx.config;
        let vocab = &Self::VOCAB;
        let RegKeyData {
            readers_of,
            versions,
            touching,
        } = &RegKeyData::from_occs(occs);
        if versions.is_empty() {
            return;
        }

        // ── Per-read provenance (shared scan): garbage always; G1a and
        //    G1b only when the key is recoverable. ──────────────────────
        let mut scan = ProvenanceScan::new();
        for (v, readers) in readers_of {
            let Some(e) = v else { continue };
            for r in readers {
                let w = match scan.provenance(cx, vocab, key, *r, *e, poisoned, out) {
                    Provenance::Ok(w) | Provenance::Aborted(w) => w,
                    Provenance::Garbage | Provenance::Unusable => continue,
                };
                // G1b: the register counterpart needs no adjacency test —
                // any observed non-final write is an intermediate read.
                if !w.final_for_key && w.txn != *r {
                    out.anomaly(
                        AnomalyType::G1b,
                        vec![*r, w.txn],
                        key,
                        format!(
                            "{}\n  read value {e} of register {key}, an intermediate \
                             write of {}",
                            cx.history.get(*r).to_notation(),
                            w.txn
                        ),
                    );
                }
            }
        }

        // ── Lost updates: same version read, then written, by ≥ 2 txns. ─
        let mut rmw: FxHashMap<Version, Vec<TxnId>> = FxHashMap::default();
        for t in touching {
            let mut first_read: Option<(usize, Version)> = None;
            let mut writes_after = false;
            for (i, m) in t.mops.iter().enumerate() {
                match m {
                    Mop::Read {
                        key: k,
                        value: Some(ReadValue::Register(v)),
                    } if *k == key && first_read.is_none() => first_read = Some((i, *v)),
                    Mop::Write { key: k, .. } if *k == key => {
                        if first_read.is_some() {
                            writes_after = true;
                        } else {
                            // Blind write before reading: not an RMW pattern.
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if let (Some((_, v)), true) = (first_read, writes_after) {
                let g = rmw.entry(v).or_default();
                if !g.contains(&t.id) {
                    g.push(t.id);
                }
            }
        }
        let mut groups: Vec<(Version, Vec<TxnId>)> =
            rmw.into_iter().filter(|(_, g)| g.len() >= 2).collect();
        groups.sort_unstable_by_key(|(v, _)| *v);
        for (_, g) in &mut groups {
            g.sort_unstable();
        }
        report_lost_updates(vocab, key, groups, |v| show(*v), out);

        if poisoned {
            return;
        }

        // ── Version order edges. Versions are interned into dense ids
        //    through the shared [`VersionTable`] (first-seen order, so
        //    the graph layout is deterministic and identical to the seed
        //    pipeline's ad-hoc interning). ────────────────────────────────
        let mut table: VersionTable<Version, ()> = VersionTable::new();
        let id_of =
            |v: Version, table: &mut VersionTable<Version, ()>| table.intern_with(v, |_| ()).0;
        let mut vedges: Vec<(u32, u32, VSource)> = Vec::new();

        if opts.initial_state {
            for v in versions {
                if v.is_some() {
                    let a = id_of(None, &mut table);
                    let b = id_of(*v, &mut table);
                    vedges.push((a, b, VSource::Initial));
                }
            }
        }

        if opts.writes_follow_reads {
            for t in touching {
                let mut cur: Option<Version> = None;
                for m in &t.mops {
                    match m {
                        Mop::Write { key: k, elem } if *k == key => {
                            if let Some(prev) = cur {
                                if prev != Some(*elem) {
                                    let a = id_of(prev, &mut table);
                                    let b = id_of(Some(*elem), &mut table);
                                    vedges.push((a, b, VSource::Chain));
                                }
                            }
                            cur = Some(Some(*elem));
                        }
                        Mop::Read {
                            key: k,
                            value: Some(ReadValue::Register(v)),
                        } if *k == key => {
                            // Reads do not add edges; they update the cursor.
                            // (A mismatched read was already reported as
                            // internal; trust the read for ordering.)
                            cur = Some(*v);
                        }
                        _ => {}
                    }
                }
            }
        }

        if opts.sequential_keys {
            let mut last_of: FxHashMap<elle_history::ProcessId, Version> = FxHashMap::default();
            for t in touching {
                if let Some((first, last)) = first_last_versions(t, key) {
                    if let Some(prev_last) = last_of.get(&t.process) {
                        if *prev_last != first {
                            let a = id_of(*prev_last, &mut table);
                            let b = id_of(first, &mut table);
                            vedges.push((a, b, VSource::Process));
                        }
                    }
                    last_of.insert(t.process, last);
                }
            }
        }

        if opts.linearizable_keys {
            let intervals: Vec<Interval> = touching
                .iter()
                .map(|t| Interval {
                    invoke: t.invoke_index,
                    complete: t.complete_index,
                })
                .collect();
            for (a, b) in interval_order_reduction(&intervals) {
                let (ta, tb) = (touching[a as usize], touching[b as usize]);
                let (_, last_a) = first_last_versions(ta, key).expect("touching");
                let (first_b, _) = first_last_versions(tb, key).expect("touching");
                if last_a != first_b {
                    let x = id_of(last_a, &mut table);
                    let y = id_of(first_b, &mut table);
                    vedges.push((x, y, VSource::Realtime));
                }
            }
        }
        let vlist: Vec<Version> = table.iter().map(|(_, v, _)| v).collect();

        // ── Cycle check on the version graph. ──────────────────────────
        let mut vg = EdgeBuf::with_capacity(vedges.len());
        for &(a, b, _) in &vedges {
            vg.push(a, b, EdgeMask::VERSION);
        }
        let sccs = vg
            .build(vlist.len())
            .tarjan_scc(EdgeMask::VERSION, &mut Scratch::new());
        if !sccs.is_empty() {
            let cyc_versions: Vec<String> =
                sccs[0].iter().map(|&i| show(vlist[i as usize])).collect();
            let in_scc = |v: &u32| sccs[0].binary_search(v).is_ok();
            let sources: FxHashSet<&'static str> = vedges
                .iter()
                .filter(|(a, b, _)| in_scc(a) && in_scc(b))
                .map(|(_, _, s)| s.describe())
                .collect();
            let mut txns: Vec<TxnId> = sccs[0]
                .iter()
                .filter_map(|&i| {
                    vlist[i as usize]
                        .and_then(|e| cx.elems.writer(key, e))
                        .map(|w| w.txn)
                })
                .collect();
            txns.sort_unstable();
            txns.dedup();
            out.cyclic = true;
            out.anomaly(
                AnomalyType::CyclicVersionOrder,
                txns,
                key,
                format!(
                    "the inferred version order of register {key} is cyclic over values \
                     {{{}}} (sources: {}); discarding this key's dependencies",
                    cyc_versions.join(", "),
                    {
                        let mut s: Vec<&str> = sources.into_iter().collect();
                        s.sort_unstable();
                        s.join(", ")
                    }
                ),
            );
            return;
        }

        // ── wr edges from recoverable reads. ───────────────────────────
        for (v, readers) in readers_of {
            let Some(e) = v else { continue };
            let Some(w) = cx.elems.writer(key, *e) else {
                continue;
            };
            if w.status == TxnStatus::Aborted {
                continue;
            }
            for r in readers {
                out.edge(w.txn, *r, Witness::WrReg { key, elem: *e });
            }
        }

        // ── ww / rw edges from version-order edges. ────────────────────
        let mut seen_pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
        for &(a, b, _) in &vedges {
            if !seen_pairs.insert((a, b)) {
                continue;
            }
            let (va, vb) = (vlist[a as usize], vlist[b as usize]);
            let Some(eb) = vb else { continue };
            let Some(wb) = cx.elems.writer(key, eb) else {
                continue;
            };
            if wb.status == TxnStatus::Aborted {
                continue;
            }
            if let Some(ea) = va {
                if let Some(wa) = cx.elems.writer(key, ea) {
                    if wa.status != TxnStatus::Aborted {
                        out.edge(
                            wa.txn,
                            wb.txn,
                            Witness::WwReg {
                                key,
                                prev: va,
                                next: eb,
                            },
                        );
                    }
                }
            }
            if let Some(readers) = readers_of.get(&va) {
                for r in readers {
                    out.edge(
                        *r,
                        wb.txn,
                        Witness::RwReg {
                            key,
                            read: va,
                            next: eb,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::Anomaly;
    use crate::datatype::{run_mode, DriverOutput, Parallelism};
    use crate::observation::{ElemIndex, KeyTypes};
    use elle_graph::EdgeClass;
    use elle_history::{History, HistoryBuilder};

    fn run(h: &History, opts: RegisterOptions) -> DriverOutput {
        let elems = ElemIndex::build(h);
        let kt = KeyTypes::infer(h);
        let keys = kt.keys_of(DataType::Register);
        run_mode::<RwRegister>(h, &elems, &keys, opts, Parallelism::Auto)
    }

    fn types(a: &DriverOutput) -> Vec<AnomalyType> {
        let mut t: Vec<AnomalyType> = a.anomalies.iter().map(|x| x.typ).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    #[test]
    fn dgraph_internal_inconsistency() {
        // §7.4: T1: w(10, 2), r(10, 1)
        let mut b = HistoryBuilder::new();
        b.txn(0).write(10, 1).commit();
        b.txn(1).write(10, 2).read_register(10, Some(1)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn wr_edge_from_write_to_reader() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).write(1, 5).commit();
        let t1 = b.txn(1).read_register(1, Some(5)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(a.deps.edge_mask(t0.0, t1.0).contains(EdgeClass::Wr));
    }

    #[test]
    fn wfr_chain_gives_ww_and_rw() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).write(1, 1).commit();
        let t1 = b.txn(1).read_register(1, Some(1)).write(1, 2).commit();
        let t2 = b.txn(2).read_register(1, Some(1)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        // Chain: 1 < 2, so writer(1)=t0 ww→ writer(2)=t1.
        assert!(a.deps.edge_mask(t0.0, t1.0).contains(EdgeClass::Ww));
        // Reader of 1 (t2) rw→ writer of 2 (t1).
        assert!(a.deps.edge_mask(t2.0, t1.0).contains(EdgeClass::Rw));
    }

    #[test]
    fn initial_state_gives_rw_from_nil_readers() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).read_register(1, None).commit();
        let t1 = b.txn(1).write(1, 7).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(a.deps.edge_mask(t0.0, t1.0).contains(EdgeClass::Rw));
    }

    #[test]
    fn linearizable_keys_detect_stale_nil_reads() {
        // §7.4: T1 wrote 540=2 and completed well before T2, which read nil.
        let mut b = HistoryBuilder::new();
        b.txn(0).write(540, 2).at(0, Some(1)).commit();
        b.txn(1).read_register(540, None).at(10, Some(11)).commit();
        let opts = RegisterOptions {
            linearizable_keys: true,
            ..RegisterOptions::default()
        };
        let a = run(&b.build(), opts);
        // Version order: nil < 2 (initial), 2 < nil (realtime) — cyclic.
        assert!(types(&a).contains(&AnomalyType::CyclicVersionOrder));
        assert_eq!(a.cyclic_keys, vec![Key(540)]);
    }

    #[test]
    fn two_disjoint_version_cycles_name_the_first_csr_scc() {
        // Versions intern in first-seen order: nil=0, 1=1, 3=2, 4=3,
        // 5=4, 6=5. Chains make two disjoint cycles, 3↔4 and 5↔6;
        // sequential keys then add 1→5 (p1) before 1→3 (p2). Tarjan
        // descends from nil into 1, whose CSR row is sorted by version
        // id, so it reaches 3 (id 2) before 5 (id 4) and closes 3↔4
        // first, whichever of the two edges out of 1 was pushed first.
        let mut b = HistoryBuilder::new();
        b.txn(1).read_register(1, None).write(1, 1).commit();
        let ta = b.txn(9).read_register(1, Some(3)).write(1, 4).commit();
        let tb = b.txn(8).read_register(1, Some(4)).write(1, 3).commit();
        b.txn(2).read_register(1, Some(1)).commit();
        b.txn(1).read_register(1, Some(5)).write(1, 6).commit();
        b.txn(7).read_register(1, Some(6)).write(1, 5).commit();
        b.txn(2).read_register(1, Some(3)).commit();
        let opts = RegisterOptions {
            initial_state: false,
            sequential_keys: true,
            ..RegisterOptions::default()
        };
        let a = run(&b.build(), opts);
        assert_eq!(a.cyclic_keys, vec![Key(1)]);
        let cyclic: Vec<&Anomaly> = a
            .anomalies
            .iter()
            .filter(|x| x.typ == AnomalyType::CyclicVersionOrder)
            .collect();
        assert_eq!(cyclic.len(), 1, "{:?}", a.anomalies);
        assert_eq!(cyclic[0].txns, vec![ta, tb]);
        assert_eq!(
            cyclic[0].explanation,
            "the inferred version order of register 1 is cyclic over values {3, 4} \
             (sources: writes-follow-reads); discarding this key's dependencies"
        );
    }

    #[test]
    fn sequential_keys_order_versions() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).write(1, 1).commit(); // p0
        let t1 = b.txn(0).write(1, 2).commit(); // p0 again
        let opts = RegisterOptions {
            sequential_keys: true,
            ..RegisterOptions::default()
        };
        let a = run(&b.build(), opts);
        // p0's second txn's version follows its first: ww t0 → t1.
        assert!(a.deps.edge_mask(t0.0, t1.0).contains(EdgeClass::Ww));
    }

    #[test]
    fn g1a_register() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 9).abort();
        b.txn(1).read_register(1, Some(9)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::G1a));
    }

    #[test]
    fn g1b_register_intermediate() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 1).write(1, 2).commit();
        b.txn(1).read_register(1, Some(1)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::G1b));
    }

    #[test]
    fn garbage_register_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).read_register(1, Some(77)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::GarbageRead));
    }

    #[test]
    fn lost_update_register() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 1).commit();
        b.txn(1).read_register(1, Some(1)).write(1, 2).commit();
        b.txn(2).read_register(1, Some(1)).write(1, 3).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::LostUpdate));
    }

    #[test]
    fn clean_register_history() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 1).commit();
        b.txn(1).read_register(1, Some(1)).write(1, 2).commit();
        b.txn(2).read_register(1, Some(2)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
        assert!(a.cyclic_keys.is_empty());
    }

    #[test]
    fn duplicate_register_writes_poison_key() {
        let mut b = HistoryBuilder::new();
        b.txn(0).write(1, 5).commit();
        b.txn(1).write(1, 5).commit();
        b.txn(2).read_register(1, Some(5)).commit();
        let a = run(&b.build(), RegisterOptions::default());
        assert!(types(&a).contains(&AnomalyType::DuplicateWrite));
        // No wr edges inferred for the poisoned key.
        assert_eq!(a.deps.edge_count(), 0);
    }
}
