//! The **seed per-read pipeline**, preserved as a differential-testing
//! reference for the version-interned datatype passes.
//!
//! Each `analyze_key` here is a faithful copy of the pre-interning
//! implementation: every element-level pass rescans each read's full
//! value (O(n·m) per key for `n` writes and `m` reads). The production
//! modules ([`crate::list_append`], [`crate::set_add`],
//! [`crate::rw_register`]) now run those passes once per *distinct
//! version* and fan results out from [`crate::versions::VersionId`]s;
//! `crates/core/tests/version_props.rs` asserts the two pipelines are
//! byte-for-byte identical on arbitrary histories, and its staged
//! oracle (`crates/core/tests/staged`) runs a whole check through this
//! reference for end-to-end report comparison.
//!
//! One deliberate deviation from the seed, applied on **both** sides:
//! list lost-update groups of equal read length are ordered by value
//! content instead of hash-map iteration order, so tie order is
//! well-defined (the seed's tie order depended on `FxHashMap`
//! internals and was arbitrary, though deterministic per build).
//!
//! This module is `#[doc(hidden)]`-grade plumbing kept `pub` so the
//! integration-test crate can drive it; it is not part of the
//! supported API.

use crate::anomaly::{AnomalyType, Witness};
use crate::datatype::report_lost_updates;
use crate::datatype::{AnalysisCtx, DatatypeAnalysis, KeySink, Provenance, ProvenanceScan};
use crate::gather::GatherBuf;
use crate::list_append::{show_list, ListAppend, ReadOcc};
use crate::observation::DataType;
use crate::rw_register::{
    first_last_versions, show, RegKeyData, RegOcc, RegisterOptions, RwRegister, VSource, Version,
};
use crate::set_add::{SetAdd, SetKeyData, SetOcc};
use elle_graph::{interval_order_reduction, EdgeBuf, EdgeMask, Interval, Scratch};
use elle_history::{Elem, Key, Mop, ReadValue, TxnId, TxnStatus};
use rustc_hash::{FxHashMap, FxHashSet};

/// The seed list-append pass: per-read element scans throughout.
pub struct ListAppendRef;

impl DatatypeAnalysis for ListAppendRef {
    type Config = ();
    type Aux<'h> = <ListAppend as DatatypeAnalysis>::Aux<'h>;
    type Occ<'h> = ReadOcc<'h>;

    const DATATYPE: DataType = DataType::List;
    const VOCAB: crate::datatype::Vocab = ListAppend::VOCAB;

    fn check_internal(cx: &AnalysisCtx<'_, ()>, sink: &mut KeySink) {
        ListAppend::check_internal(cx, sink);
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<ReadOcc<'h>>) -> Self::Aux<'h> {
        ListAppend::gather(cx, buf)
    }

    fn observed_elems(occs: &[ReadOcc<'_>]) -> Vec<Elem> {
        ListAppend::observed_elems(occs)
    }

    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, ()>,
        appends_of: &Self::Aux<'h>,
        key: Key,
        occs: &[ReadOcc<'h>],
        mut poisoned: bool,
        out: &mut KeySink,
    ) {
        let vocab = &Self::VOCAB;
        let mut scan = ProvenanceScan::new();

        // ── Pass A (always valid): duplicates within reads and garbage
        //    elements. Both poison recoverability for this key. ─────────
        for occ in occs {
            let mut seen: FxHashSet<Elem> = FxHashSet::default();
            for e in occ.value {
                if !seen.insert(*e) {
                    poisoned = true;
                    out.anomaly(
                        AnomalyType::DuplicateWrite,
                        vec![occ.txn.id],
                        key,
                        format!(
                            "{}\n  the read of key {key} contains element {e} more than once",
                            occ.txn.to_notation()
                        ),
                    );
                    break;
                }
            }
            for e in occ.value {
                if scan.garbage(cx, vocab, key, occ.txn.id, *e, out) {
                    poisoned = true;
                }
            }
        }

        // ── Pass B: provenance checks (G1a, G1b, dirty updates). These
        //    rely on recoverability — the element → writer map must be a
        //    bijection — so they are skipped for poisoned keys (§4.2.3). ─
        let mut dirty_reported: FxHashSet<Elem> = FxHashSet::default();
        let mut g1b_reported: FxHashSet<(TxnId, Elem)> = FxHashSet::default();

        for occ in occs.iter().filter(|_| !poisoned) {
            let mut saw_aborted: Option<(usize, Elem, TxnId)> = None;
            for (j, e) in occ.value.iter().enumerate() {
                // G1a (and garbage dedup) via the shared scan.
                let w = match scan.provenance(cx, vocab, key, occ.txn.id, *e, false, out) {
                    Provenance::Ok(w) | Provenance::Aborted(w) => w,
                    Provenance::Garbage | Provenance::Unusable => continue,
                };

                // Dirty update: committed data layered over an aborted write.
                match (w.status, saw_aborted) {
                    (TxnStatus::Aborted, None) => saw_aborted = Some((j, *e, w.txn)),
                    (TxnStatus::Committed | TxnStatus::Indeterminate, Some((_, ae, awriter))) => {
                        if dirty_reported.insert(ae) {
                            out.anomaly(
                                AnomalyType::DirtyUpdate,
                                vec![awriter, w.txn],
                                key,
                                format!(
                                    "the trace of key {key} contains element {ae} from aborted \
                                     transaction {awriter}, later built upon by {}'s append of {e}",
                                    w.txn
                                ),
                            );
                        }
                        saw_aborted = None;
                    }
                    _ => {}
                }

                // G1b: an intermediate write must be immediately followed by
                // the same writer's next append, else the read exposed an
                // intermediate version.
                if w.txn != occ.txn.id && !w.final_for_key {
                    let writer_appends = &appends_of[&(w.txn, key)].elems;
                    let pos = writer_appends
                        .iter()
                        .position(|x| x == e)
                        .expect("writer index consistent");
                    let expected_next = writer_appends.get(pos + 1);
                    let actual_next = occ.value.get(j + 1);
                    if expected_next != actual_next && g1b_reported.insert((occ.txn.id, *e)) {
                        out.anomaly(
                            AnomalyType::G1b,
                            vec![occ.txn.id, w.txn],
                            key,
                            format!(
                                "{}\n  observed element {e} of key {key}, an intermediate \
                                 append of {} (its next append {} is not the following element)",
                                occ.txn.to_notation(),
                                cx.history.get(w.txn).to_notation(),
                                expected_next.map_or("<none>".to_string(), |e| e.to_string()),
                            ),
                        );
                    }
                }
            }
        }

        // ── Version order: the longest committed read is x_f. ─────────
        let longest = occs
            .iter()
            .max_by_key(|o| o.value.len())
            .expect("at least one read per key in map");
        let longest_v = longest.value;

        // Prefix compatibility of every other read.
        let mut compatible: Vec<&ReadOcc<'_>> = Vec::with_capacity(occs.len());
        for occ in occs {
            if occ.value.len() <= longest_v.len() && occ.value[..] == longest_v[..occ.value.len()] {
                compatible.push(occ);
            } else {
                out.anomaly(
                    AnomalyType::IncompatibleOrder,
                    vec![occ.txn.id, longest.txn.id],
                    key,
                    format!(
                        "{}\n{}\n  both committed reads of key {key} cannot lie on one \
                         version order: {} is not a prefix of {}",
                        occ.txn.to_notation(),
                        longest.txn.to_notation(),
                        show_list(occ.value),
                        show_list(longest_v)
                    ),
                );
            }
        }

        // ── Lost updates: distinct committed txns that read the same
        //    version of `key` and then append to it. ────────────────────
        let mut rmw_groups: FxHashMap<&[Elem], Vec<TxnId>> = FxHashMap::default();
        for occ in occs {
            // First read of the key in this txn, before any own append.
            let first_touch = occ
                .txn
                .mops
                .iter()
                .position(|m| m.key() == key)
                .expect("occ touches key");
            if first_touch != occ.mop {
                continue;
            }
            let appends_after = occ.txn.mops[occ.mop..]
                .iter()
                .any(|m| matches!(m, Mop::Append { key: k, .. } if *k == key));
            if appends_after {
                let group = rmw_groups.entry(occ.value).or_default();
                if !group.contains(&occ.txn.id) {
                    group.push(occ.txn.id);
                }
            }
        }
        let mut groups: Vec<(&[Elem], Vec<TxnId>)> = rmw_groups
            .into_iter()
            .filter(|(_, g)| g.len() >= 2)
            .collect();
        groups.sort_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        for (_, g) in &mut groups {
            g.sort_unstable();
        }
        report_lost_updates(vocab, key, groups, |v| show_list(v), out);

        if poisoned {
            // Recoverability is broken for this key: skip dependency edges.
            return;
        }
        out.version_order = Some(longest_v.to_vec());

        // ── ww edges: consecutive elements of the version order. ──────
        for pair in longest_v.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (wa, wb) = (
                cx.elems.writer(key, a).expect("no garbage in clean key"),
                cx.elems.writer(key, b).expect("no garbage in clean key"),
            );
            out.edge(
                wa.txn,
                wb.txn,
                Witness::WwList {
                    key,
                    prev: a,
                    next: b,
                },
            );
        }

        // ── wr and rw edges per compatible committed read. ─────────────
        for occ in &compatible {
            let reader = occ.txn.id;
            // Strip trailing own appends: the externally-visible prefix.
            let own: FxHashSet<Elem> = appends_of
                .get(&(reader, key))
                .map(|v| v.elems.iter().copied().collect())
                .unwrap_or_default();
            let mut ext_len = occ.value.len();
            while ext_len > 0 && own.contains(&occ.value[ext_len - 1]) {
                ext_len -= 1;
            }
            let ext = &occ.value[..ext_len];

            // wr: the version `ext` was produced by the append of its last
            // element.
            if let Some(last) = ext.last() {
                let w = cx.elems.writer(key, *last).expect("clean key");
                out.edge(w.txn, reader, Witness::WrList { key, elem: *last });
            }

            // rw: the version directly after the one this read observed.
            if occ.value.len() < longest_v.len() {
                let next = longest_v[occ.value.len()];
                let w = cx.elems.writer(key, next).expect("clean key");
                out.edge(
                    reader,
                    w.txn,
                    Witness::RwList {
                        key,
                        read_last: occ.value.last().copied(),
                        next,
                    },
                );
            }
        }
    }
}

/// The seed grow-only-set pass: per-read element scans throughout.
pub struct SetAddRef;

impl DatatypeAnalysis for SetAddRef {
    type Config = ();
    type Aux<'h> = ();
    type Occ<'h> = SetOcc<'h>;

    const DATATYPE: DataType = DataType::Set;
    const VOCAB: crate::datatype::Vocab = SetAdd::VOCAB;

    fn check_internal(cx: &AnalysisCtx<'_, ()>, sink: &mut KeySink) {
        SetAdd::check_internal(cx, sink);
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<SetOcc<'h>>) {
        SetAdd::gather(cx, buf);
    }

    fn observed_elems(occs: &[SetOcc<'_>]) -> Vec<Elem> {
        SetAdd::observed_elems(occs)
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

        // ── Element provenance (shared scan): garbage always; G1a and
        //    wr only when the element → adder map is trustworthy. ───────
        let mut scan = ProvenanceScan::new();
        for (reader, s) in reads {
            for e in s.iter() {
                if let Provenance::Ok(w) =
                    scan.provenance(cx, vocab, key, *reader, *e, poisoned, out)
                {
                    out.edge(w.txn, *reader, Witness::WrSet { key, elem: *e });
                }
            }
        }

        // ── rw edges: committed adds missing from a read. ──────────────
        if !poisoned {
            for (reader, s) in reads {
                for (adder, e) in adds {
                    if !s.contains(e) {
                        out.edge(*reader, *adder, Witness::RwSet { key, elem: *e });
                    }
                }
            }
        }

        // ── rr chain + compatibility: committed reads must form a
        //    ⊆-chain after discounting each reader's own adds (a read-back
        //    of your own add observes no external version). ──────────────
        let external = crate::set_add::external_views(reads, adds);
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.sort_by_key(|&i| external[i].len());
        for w in order.windows(2) {
            let (ia, ib) = (w[0], w[1]);
            let (ea, eb) = (&external[ia], &external[ib]);
            if ea == eb {
                continue;
            }
            let (ta, tb) = (reads[ia].0, reads[ib].0);
            if crate::set_add::is_subset_sorted(ea, eb) {
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

/// The seed read-write-register pass, with its ad-hoc version
/// interning closure.
pub struct RwRegisterRef;

impl DatatypeAnalysis for RwRegisterRef {
    type Config = RegisterOptions;
    type Aux<'h> = ();
    type Occ<'h> = RegOcc<'h>;

    const DATATYPE: DataType = DataType::Register;
    const VOCAB: crate::datatype::Vocab = RwRegister::VOCAB;

    fn check_internal(cx: &AnalysisCtx<'_, RegisterOptions>, sink: &mut KeySink) {
        RwRegister::check_internal(cx, sink);
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, RegisterOptions>, buf: &mut GatherBuf<RegOcc<'h>>) {
        RwRegister::gather(cx, buf);
    }

    fn observed_elems(occs: &[RegOcc<'_>]) -> Vec<Elem> {
        RwRegister::observed_elems(occs)
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

        // ── Version order edges (seed ad-hoc interning). ───────────────
        let mut vids: FxHashMap<Version, u32> = FxHashMap::default();
        let mut vlist: Vec<Version> = Vec::new();
        let id_of = |v: Version, vids: &mut FxHashMap<Version, u32>, vlist: &mut Vec<Version>| {
            *vids.entry(v).or_insert_with(|| {
                vlist.push(v);
                (vlist.len() - 1) as u32
            })
        };
        let mut vedges: Vec<(u32, u32, VSource)> = Vec::new();

        if opts.initial_state {
            for v in versions {
                if v.is_some() {
                    let a = id_of(None, &mut vids, &mut vlist);
                    let b = id_of(*v, &mut vids, &mut vlist);
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
                                    let a = id_of(prev, &mut vids, &mut vlist);
                                    let b = id_of(Some(*elem), &mut vids, &mut vlist);
                                    vedges.push((a, b, VSource::Chain));
                                }
                            }
                            cur = Some(Some(*elem));
                        }
                        Mop::Read {
                            key: k,
                            value: Some(ReadValue::Register(v)),
                        } if *k == key => {
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
                            let a = id_of(*prev_last, &mut vids, &mut vlist);
                            let b = id_of(first, &mut vids, &mut vlist);
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
                    let x = id_of(last_a, &mut vids, &mut vlist);
                    let y = id_of(first_b, &mut vids, &mut vlist);
                    vedges.push((x, y, VSource::Realtime));
                }
            }
        }

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
            let sources: FxHashSet<&'static str> = vedges
                .iter()
                .filter(|(a, b, _)| sccs[0].contains(a) && sccs[0].contains(b))
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
