//! The list-append analysis — Elle's most powerful mode (§3, §4 of the
//! paper).
//!
//! Append-only lists are **traceable**: a read of `[1, 2, 3]` proves the
//! object went through versions `[] → [1] → [1, 2] → [1, 2, 3]` in exactly
//! that order. With unique append arguments they are also **recoverable**:
//! each element maps to the one transaction that appended it. Together
//! these let us reconstruct, per key, a prefix of the version order `≪x`,
//! and from it *all three* Adya dependencies:
//!
//! * `wr`: the writer of a read value's final element → the reader,
//! * `ww`: writers of consecutive elements of the version order,
//! * `rw`: a reader of prefix `v` → the writer of the next element.
//!
//! The shared passes (duplicates, garbage, G1a, lost updates, internal
//! consistency scaffolding) live in [`crate::datatype`]; this module
//! contributes what traceability makes possible: the G1b adjacency
//! test, dirty-update layering, and version-order reconstruction.
//!
//! **Version-interned analysis.** Traceability also means the distinct
//! version structure of one key is tiny compared to the raw read
//! payload: every compatible read is a prefix of the spine `x_f`. The
//! per-key pass therefore interns each committed read value into a
//! [`VersionId`] (one hash + one equality check per occurrence — the
//! single unavoidable look at the payload), scans the spine **once**
//! to classify every element (writer, status, G1b adjacency,
//! dirty-update layering, garbage, duplicates), derives each prefix
//! version's facts from that scan in O(1), and fans per-read anomalies
//! and `wr`/`ww`/`rw` edges out from version ids. Only values that are
//! *not* prefixes of the spine — already-anomalous reads — pay for
//! their own element scan. The seed per-read pipeline (every pass
//! rescans every read's full value) is preserved verbatim in
//! [`crate::reference`] and the two are byte-equivalence-tested in
//! `crates/core/tests/version_props.rs`.
//!
//! **Extension.** On a key with no anomaly, a later read can only
//! extend the spine. A streaming seal therefore keeps a
//! [`ListSummary`] beside such a key's result and runs the same
//! per-read code over the epoch's new reads only (`extend_key`),
//! falling back to [`ListAppend::analyze_key`] over the key's whole
//! posting list wherever the two could differ.

use crate::anomaly::{AnomalyType, Witness};
use crate::datatype::{
    internal_pass, report_lost_updates, AnalysisCtx, DatatypeAnalysis, InternalMismatch, KeySink,
    ProvenanceScan, Vocab,
};
use crate::gather::GatherBuf;
use crate::observation::{DataType, WriteRef};
use crate::versions::{VersionId, VersionTable};
use elle_history::{Elem, Key, Mop, ReadValue, Transaction, TxnId, TxnStatus};
use rustc_hash::{FxHashMap, FxHashSet};

/// One committed read occurrence.
#[derive(Debug, Clone, Copy)]
pub struct ReadOcc<'h> {
    /// The reading transaction.
    pub txn: &'h Transaction,
    /// Micro-op position of the read within the transaction.
    pub mop: usize,
    /// The observed list value.
    pub value: &'h [Elem],
}

/// One transaction's ordered appends to one key, with an element →
/// first-occurrence index so the G1b adjacency test and own-append
/// stripping are O(1) lookups instead of `position()` scans.
///
/// The hash index is only materialized once the run grows past a small
/// threshold: typical transactions append a handful of elements per
/// key, where a linear scan is faster than a per-`(txn, key)` hash-map
/// allocation would ever pay back.
#[derive(Debug, Default)]
pub struct AppendSeq {
    /// Appended elements, in program order.
    pub elems: Vec<Elem>,
    index: Option<FxHashMap<Elem, u32>>,
}

/// Append runs longer than this get a hash index.
const APPEND_INDEX_THRESHOLD: usize = 8;

impl AppendSeq {
    fn push(&mut self, e: Elem) {
        if let Some(index) = &mut self.index {
            index.entry(e).or_insert(self.elems.len() as u32);
        }
        self.elems.push(e);
        if self.index.is_none() && self.elems.len() > APPEND_INDEX_THRESHOLD {
            let mut index = FxHashMap::default();
            for (i, e) in self.elems.iter().enumerate() {
                index.entry(*e).or_insert(i as u32);
            }
            self.index = Some(index);
        }
    }

    /// Index of the first occurrence of `e`, if this transaction
    /// appended it to the key.
    pub fn index_of(&self, e: Elem) -> Option<usize> {
        match &self.index {
            Some(index) => index.get(&e).map(|i| *i as usize),
            None => self.elems.iter().position(|x| *x == e),
        }
    }

    /// Did this transaction append `e` to the key?
    pub fn contains(&self, e: Elem) -> bool {
        self.index_of(e).is_some()
    }

    /// The append directly after (the first occurrence of) `e`, if any.
    pub fn next_after(&self, e: Elem) -> Option<Elem> {
        self.elems.get(self.index_of(e)? + 1).copied()
    }
}

/// Render a list value compactly for explanations: `[1 2 3 … (29 total)]`.
pub(crate) fn show_list(v: &[Elem]) -> String {
    const HEAD: usize = 10;
    let mut s = String::from("[");
    for (i, e) in v.iter().take(HEAD).enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&e.to_string());
    }
    if v.len() > HEAD {
        s.push_str(&format!(" … ({} total)", v.len()));
    }
    s.push(']');
    s
}

/// A provenance event one version fans out to each of its readers, in
/// the exact order the seed per-read pass would emit it (per element:
/// G1a, then dirty update, then G1b).
#[derive(Debug, Clone)]
enum FanEvent {
    /// The element was written by an aborted transaction.
    G1a { elem: Elem, writer: TxnId },
    /// Committed data layered over an aborted write.
    Dirty {
        aborted_elem: Elem,
        aborted_writer: TxnId,
        elem: Elem,
        writer: TxnId,
    },
    /// An intermediate append not followed by its writer's next append.
    G1b {
        elem: Elem,
        writer: TxnId,
        expected_next: Option<Elem>,
    },
}

/// Per-distinct-version facts, computed once and fanned out per read.
#[derive(Debug, Default)]
struct ListVersion {
    /// Is this value a prefix of the spine `x_f`?
    is_prefix: bool,
    /// First element observed more than once within the value.
    first_dup: Option<Elem>,
    /// Elements no transaction wrote, in first-occurrence order.
    garbage: Vec<Elem>,
    /// Provenance events (G1a / dirty update / G1b), in emission order.
    events: Vec<FanEvent>,
}

/// Scan an arbitrary (non-prefix) value for pass-A facts: the first
/// duplicated element and the garbage elements in first-occurrence
/// order. Prefix versions derive both from the single spine scan.
fn scan_value_facts(
    kw: &crate::observation::KeyWriters<'_>,
    value: &[Elem],
) -> (Option<Elem>, Vec<Elem>) {
    let mut seen: FxHashSet<Elem> = FxHashSet::default();
    let mut first_dup = None;
    let mut garbage = Vec::new();
    for e in value {
        if !seen.insert(*e) {
            if first_dup.is_none() {
                first_dup = Some(*e);
            }
        } else if kw.writer(*e).is_none() {
            garbage.push(*e);
        }
    }
    (first_dup, garbage)
}

/// Walk one value's elements through the seed pass-B state machine,
/// producing the version's provenance events. Only called for values
/// whose key is clean (no duplicates, no garbage), so every element has
/// a unique writer.
fn scan_value_events(
    kw: &crate::observation::KeyWriters<'_>,
    aux: &FxHashMap<(TxnId, Key), AppendSeq>,
    key: Key,
    value: &[Elem],
) -> Vec<FanEvent> {
    let mut events = Vec::new();
    let mut saw_aborted: Option<(Elem, TxnId)> = None;
    for (j, e) in value.iter().enumerate() {
        let w = kw.writer(*e).expect("no garbage in clean key");
        push_element_events(
            &mut events,
            &mut saw_aborted,
            *e,
            w,
            value.get(j + 1).copied(),
            |wt| aux.get(&(wt, key)).and_then(|seq| seq.next_after(*e)),
        );
    }
    events
}

/// The per-element step shared by the spine scan and the non-prefix
/// value scan: emit G1a, advance the dirty-update layering machine,
/// and run the G1b adjacency test against `actual_next`.
fn push_element_events(
    events: &mut Vec<FanEvent>,
    saw_aborted: &mut Option<(Elem, TxnId)>,
    e: Elem,
    w: WriteRef,
    actual_next: Option<Elem>,
    next_append: impl Fn(TxnId) -> Option<Elem>,
) {
    if w.status == TxnStatus::Aborted {
        events.push(FanEvent::G1a {
            elem: e,
            writer: w.txn,
        });
    }
    match (w.status, *saw_aborted) {
        (TxnStatus::Aborted, None) => *saw_aborted = Some((e, w.txn)),
        (TxnStatus::Committed | TxnStatus::Indeterminate, Some((ae, awriter))) => {
            events.push(FanEvent::Dirty {
                aborted_elem: ae,
                aborted_writer: awriter,
                elem: e,
                writer: w.txn,
            });
            *saw_aborted = None;
        }
        _ => {}
    }
    if !w.final_for_key {
        let expected_next = next_append(w.txn);
        if expected_next != actual_next {
            events.push(FanEvent::G1b {
                elem: e,
                writer: w.txn,
                expected_next,
            });
        }
    }
}

/// The spine's per-position tables from one scan: each element's writer
/// (resolved inside the key's own posting slab), the first repeated
/// element and the elements no transaction wrote. Every prefix version
/// reuses them.
struct SpineTables {
    writers: Vec<Option<WriteRef>>,
    first_dup: Option<(usize, Elem)>,
    garbage: Vec<(usize, Elem)>,
}

impl SpineTables {
    fn scan(kw: &crate::observation::KeyWriters<'_>, spine: &[Elem]) -> SpineTables {
        let writers: Vec<Option<WriteRef>> = spine.iter().map(|e| kw.writer(*e)).collect();
        let mut seen: FxHashSet<Elem> = FxHashSet::default();
        let mut first_dup: Option<(usize, Elem)> = None;
        let mut garbage: Vec<(usize, Elem)> = Vec::new();
        for (j, e) in spine.iter().enumerate() {
            if !seen.insert(*e) {
                if first_dup.is_none() {
                    first_dup = Some((j, *e));
                }
            } else if writers[j].is_none() {
                garbage.push((j, *e));
            }
        }
        SpineTables {
            writers,
            first_dup,
            garbage,
        }
    }

    /// The writer of spine position `j`; only valid on a clean spine.
    fn writer(&self, j: usize) -> WriteRef {
        self.writers[j].expect("no garbage in clean key")
    }
}

/// Pass B's spine walk: per-position provenance events with the
/// in-version successor, plus the G1b verdict each position would get
/// as a version's last element (actual_next = None). For the spine's
/// own last position the two coincide.
struct SpineEvents {
    events: Vec<(usize, FanEvent)>,
    end_g1b: Vec<Option<(TxnId, Elem)>>,
}

impl SpineEvents {
    /// Walk a clean spine. `next_append(writer, e)` is the writer's
    /// append to the key directly after its append of `e`.
    fn walk(
        spine: &[Elem],
        tables: &SpineTables,
        next_append: impl Fn(TxnId, Elem) -> Option<Elem>,
    ) -> SpineEvents {
        let mut events: Vec<(usize, FanEvent)> = Vec::new();
        let mut end_g1b: Vec<Option<(TxnId, Elem)>> = vec![None; spine.len()];
        let mut saw_aborted: Option<(Elem, TxnId)> = None;
        let mut evs = Vec::new();
        for (j, e) in spine.iter().enumerate() {
            let w = tables.writer(j);
            push_element_events(
                &mut evs,
                &mut saw_aborted,
                *e,
                w,
                spine.get(j + 1).copied(),
                |wt| next_append(wt, *e),
            );
            for ev in evs.drain(..) {
                events.push((j, ev));
            }
            if !w.final_for_key {
                if let Some(next) = next_append(w.txn, *e) {
                    end_g1b[j] = Some((w.txn, next));
                }
            }
        }
        SpineEvents { events, end_g1b }
    }

    /// The events of the spine's prefix of length `l`.
    fn of_prefix(&self, spine: &[Elem], l: usize) -> Vec<FanEvent> {
        if l == 0 {
            return Vec::new();
        }
        let mut evs: Vec<FanEvent> = Vec::new();
        for (pos, ev) in &self.events {
            if *pos + 1 < l {
                evs.push(ev.clone());
            } else if *pos + 1 == l && !matches!(ev, FanEvent::G1b { .. }) {
                // The version's last element: G1a and dirty layering
                // apply unchanged; the G1b adjacency verdict is
                // re-derived below with actual_next = None.
                evs.push(ev.clone());
            }
        }
        if let Some((writer, expected_next)) = self.end_g1b[l - 1] {
            evs.push(FanEvent::G1b {
                elem: spine[l - 1],
                writer,
                expected_next: Some(expected_next),
            });
        }
        evs
    }
}

/// Pass B's per-read fan-out, with the seed's dedup policies: G1a and
/// G1b once per (reader, element), dirty updates once per aborted
/// element.
#[derive(Default)]
struct FanOut {
    scan: ProvenanceScan,
    dirty_reported: FxHashSet<Elem>,
    g1b_reported: FxHashSet<(TxnId, Elem)>,
}

impl FanOut {
    fn read(
        &mut self,
        cx: &AnalysisCtx<'_, ()>,
        key: Key,
        occ: &ReadOcc<'_>,
        events: &[FanEvent],
        out: &mut KeySink,
    ) {
        let vocab = &ListAppend::VOCAB;
        let reader = occ.txn.id;
        for ev in events {
            match ev {
                FanEvent::G1a { elem, writer } => {
                    self.scan
                        .g1a_classified(cx, vocab, key, reader, *elem, *writer, out);
                }
                FanEvent::Dirty {
                    aborted_elem,
                    aborted_writer,
                    elem,
                    writer,
                } => {
                    if self.dirty_reported.insert(*aborted_elem) {
                        out.anomaly(
                            AnomalyType::DirtyUpdate,
                            vec![*aborted_writer, *writer],
                            key,
                            format!(
                                "the trace of key {key} contains element {aborted_elem} \
                                 from aborted transaction {aborted_writer}, later built \
                                 upon by {writer}'s append of {elem}",
                            ),
                        );
                    }
                }
                FanEvent::G1b {
                    elem,
                    writer,
                    expected_next,
                } => {
                    if *writer != reader && self.g1b_reported.insert((reader, *elem)) {
                        out.anomaly(
                            AnomalyType::G1b,
                            vec![reader, *writer],
                            key,
                            format!(
                                "{}\n  observed element {elem} of key {key}, an \
                                 intermediate append of {} (its next append {} is not \
                                 the following element)",
                                occ.txn.to_notation(),
                                cx.history.get(*writer).to_notation(),
                                expected_next.map_or("<none>".to_string(), |e| e.to_string()),
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Whether a read is its transaction's first touch of the key and the
/// transaction appends to the key after it: a read-modify-write, which
/// takes part in lost-update groups.
fn reads_then_appends(occ: &ReadOcc<'_>, key: Key) -> bool {
    let first_touch = occ
        .txn
        .mops
        .iter()
        .position(|m| m.key() == key)
        .expect("occ touches key");
    first_touch == occ.mop
        && occ.txn.mops[occ.mop..]
            .iter()
            .any(|m| matches!(m, Mop::Append { key: k, .. } if *k == key))
}

/// `ww` edges between consecutive spine elements, for the pairs ending
/// at positions `from..` (`from >= 1`).
fn ww_edges(key: Key, spine: &[Elem], tables: &SpineTables, from: usize, out: &mut KeySink) {
    for j in from..spine.len() {
        out.edge(
            tables.writer(j - 1).txn,
            tables.writer(j).txn,
            Witness::WwList {
                key,
                prev: spine[j - 1],
                next: spine[j],
            },
        );
    }
}

/// The `wr` and `rw` edges of one read that lies on the spine, given
/// the reader's own appends to the key.
fn read_edges(
    key: Key,
    occ: &ReadOcc<'_>,
    spine: &[Elem],
    tables: &SpineTables,
    own: Option<&AppendSeq>,
    out: &mut KeySink,
) {
    let reader = occ.txn.id;
    let l = occ.value.len();
    // Strip trailing own appends: the externally-visible prefix.
    let ext_len = match own {
        None => l,
        Some(own) => {
            let mut e = l;
            while e > 0 && own.contains(occ.value[e - 1]) {
                e -= 1;
            }
            e
        }
    };
    // wr: the version `ext` was produced by the append of its last
    // element.
    if ext_len > 0 {
        out.edge(
            tables.writer(ext_len - 1).txn,
            reader,
            Witness::WrList {
                key,
                elem: occ.value[ext_len - 1],
            },
        );
    }
    rw_edge(
        key,
        reader,
        occ.value.last().copied(),
        l,
        spine,
        tables,
        out,
    );
}

/// `rw`: a reader of the spine's prefix of length `l` (ending in
/// `read_last`) anti-depends on the writer of the version directly
/// after it, if the spine has one.
fn rw_edge(
    key: Key,
    reader: TxnId,
    read_last: Option<Elem>,
    l: usize,
    spine: &[Elem],
    tables: &SpineTables,
    out: &mut KeySink,
) {
    if l < spine.len() {
        out.edge(
            reader,
            tables.writer(l).txn,
            Witness::RwList {
                key,
                read_last,
                next: spine[l],
            },
        );
    }
}

/// What a seal needs to extend a clean key's cached result with the
/// epoch's reads instead of re-analyzing the key's history: on a clean
/// key every read is a prefix of the spine, so a later read can only
/// extend what earlier reads proved (§4.2, traceability). The spine
/// itself is the key's cached observed elements. Only scoped
/// (streaming) runs build it, and only for keys with no anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListSummary {
    /// The readers whose read is the whole spine, one entry per read:
    /// they gain their `rw` edge only when the spine grows.
    pub tip_readers: Vec<TxnId>,
    /// The version lengths read by read-then-append transactions,
    /// ascending: a second such read of one of them is a lost update.
    pub rmw_lens: Vec<usize>,
}

/// A clean key's result grown by one epoch's reads: what
/// [`ListAppend::analyze_key`] over the whole posting list would add.
#[derive(Debug)]
pub(crate) struct Extension {
    /// The spine's new tail.
    pub tail: Vec<Elem>,
    /// The edges the epoch adds.
    pub edges: Vec<(TxnId, TxnId, Witness)>,
    /// The summary the next seal extends.
    pub summary: ListSummary,
}

/// A transaction's appends to one key, in program order.
fn appends_to(t: &Transaction, key: Key) -> AppendSeq {
    let mut seq = AppendSeq::default();
    for m in &t.mops {
        if let Mop::Append { key: k, elem } = m {
            if *k == key {
                seq.push(*elem);
            }
        }
    }
    seq
}

/// Extend a clean key's cached result (`spine`, `summary`) with `occs`,
/// the epoch's committed reads of it, gathered with `appends_of` over
/// the epoch's own transactions. Runs the per-read code
/// [`ListAppend::analyze_key`] runs, on the new reads only: the spine
/// tables and walk over the grown spine, the provenance fan-out, the
/// read-then-append grouping and the edges.
///
/// Returns `None` wherever the result is not provably what
/// `analyze_key` over the whole posting list would return: the old
/// spine or a new read does not lie on the new longest read, or the new
/// reads would emit any anomaly (garbage, a duplicate, G1a, G1b or a
/// dirty update on the new tail or on a new read, or a lost update
/// against an old or new read-then-append of the same version). The
/// caller checks the rest: the key's summary exists, no write-level
/// duplicate poisoned the key, and no transaction that changed in the
/// epoch wrote an element of the old spine. Old reads need nothing
/// new: their versions, writers and provenance are unchanged, so only
/// the tip readers' `rw` edges move, when the spine grows.
pub(crate) fn extend_key<'h>(
    cx: &AnalysisCtx<'h, ()>,
    appends_of: &<ListAppend as DatatypeAnalysis>::Aux<'h>,
    key: Key,
    old: &[Elem],
    summary: &ListSummary,
    occs: &[ReadOcc<'h>],
) -> Option<Extension> {
    // The new spine: the longest read, old spine included (ties are
    // equal values once every read lies on it).
    let mut spine: &[Elem] = old;
    for occ in occs {
        if occ.value.len() > spine.len() {
            spine = occ.value;
        }
    }
    let on_spine = |v: &[Elem]| v.len() <= spine.len() && *v == spine[..v.len()];
    if !on_spine(old) || !occs.iter().all(|o| on_spine(o.value)) {
        return None;
    }
    let mut rmw_lens = summary.rmw_lens.clone();
    for occ in occs.iter().filter(|o| reads_then_appends(o, key)) {
        match rmw_lens.binary_search(&occ.value.len()) {
            Ok(_) => return None,
            Err(at) => rmw_lens.insert(at, occ.value.len()),
        }
    }
    let mut tip_readers = if spine.len() > old.len() {
        Vec::new()
    } else {
        summary.tip_readers.clone()
    };
    tip_readers.extend(
        occs.iter()
            .filter(|o| o.value.len() == spine.len())
            .map(|o| o.txn.id),
    );
    let summary_after = ListSummary {
        tip_readers,
        rmw_lens,
    };
    if occs.is_empty() {
        return Some(Extension {
            tail: Vec::new(),
            edges: Vec::new(),
            summary: summary_after,
        });
    }

    // The grown spine's tables and walk, and the new reads' fan-out
    // into a temporary sink: any anomaly sends the key back to the full
    // analysis, which reports it.
    let tables = SpineTables::scan(&cx.elems.key_writers(key), spine);
    if tables.first_dup.is_some() || !tables.garbage.is_empty() {
        return None;
    }
    let walk = SpineEvents::walk(spine, &tables, |wt, e| match appends_of.get(&(wt, key)) {
        Some(seq) => seq.next_after(e),
        // A writer from before the epoch: read its appends from the
        // history.
        None => appends_to(cx.history.get(wt), key).next_after(e),
    });
    let mut fan = FanOut::default();
    let mut out = KeySink::default();
    for occ in occs {
        fan.read(
            cx,
            key,
            occ,
            &walk.of_prefix(spine, occ.value.len()),
            &mut out,
        );
    }
    if !out.anomalies.is_empty() {
        return None;
    }

    ww_edges(key, spine, &tables, old.len().max(1), &mut out);
    for &reader in &summary.tip_readers {
        rw_edge(
            key,
            reader,
            old.last().copied(),
            old.len(),
            spine,
            &tables,
            &mut out,
        );
    }
    for occ in occs {
        let own = appends_of.get(&(occ.txn.id, key));
        read_edges(key, occ, spine, &tables, own, &mut out);
    }
    Some(Extension {
        tail: spine[old.len()..].to_vec(),
        edges: out.edges,
        summary: summary_after,
    })
}

/// The list-append [`DatatypeAnalysis`].
pub struct ListAppend;

impl DatatypeAnalysis for ListAppend {
    type Config = ();
    /// Ordered appends per `(txn, key)` — used for G1b adjacency and for
    /// stripping a reader's own trailing appends. (Keyed by `(txn, key)`
    /// pairs for random access during per-key analysis; the per-key
    /// occurrence stream itself flows through the flat gather buffer.)
    type Aux<'h> = FxHashMap<(TxnId, Key), AppendSeq>;
    /// One committed read of a list key.
    type Occ<'h> = ReadOcc<'h>;

    const DATATYPE: DataType = DataType::List;
    const VOCAB: Vocab = Vocab {
        object: "key",
        item: "element",
        wrote: "appended",
        written: "appended",
        wrote_to: "appended to",
        rmw: "appended to",
        garbage_per_reader: false,
    };

    /// Internal consistency (§6.1): each transaction's reads must agree
    /// with its own prior reads and appends. Model: expected value =
    /// `known prefix (if any) ++ own appends since`. The known prefix is
    /// borrowed from the read in place — no per-read cloning.
    fn check_internal<'h>(cx: &AnalysisCtx<'h, ()>, sink: &mut KeySink) {
        #[derive(Default)]
        struct St<'h> {
            known: Option<&'h [Elem]>,
            appended: Vec<Elem>,
        }
        internal_pass(cx, sink, |_t, m, key, st: &mut St<'h>| {
            match m {
                Mop::Append { elem, .. } => {
                    st.appended.push(*elem);
                    None
                }
                Mop::Read {
                    value: Some(ReadValue::List(v)),
                    ..
                } => {
                    let ok = match st.known {
                        Some(prefix) => {
                            v.len() == prefix.len() + st.appended.len()
                                && v[..prefix.len()] == prefix[..]
                                && v[prefix.len()..] == st.appended[..]
                        }
                        None => {
                            v.len() >= st.appended.len()
                                && v[v.len() - st.appended.len()..] == st.appended[..]
                        }
                    };
                    let mismatch = (!ok).then(|| {
                        let expected = match st.known {
                            Some(p) => {
                                let mut e = p.to_vec();
                                e.extend(&st.appended);
                                show_list(&e)
                            }
                            None => format!(
                                "a value ending in [{}]",
                                st.appended
                                    .iter()
                                    .map(|e| e.to_string())
                                    .collect::<Vec<_>>()
                                    .join(" ")
                            ),
                        };
                        InternalMismatch {
                            message: format!(
                                "read of key {key} returned {}, but the transaction's own \
                                 operations imply {expected}",
                                show_list(v),
                            ),
                        }
                    });
                    // Trust the read for subsequent expectations.
                    st.known = Some(v);
                    st.appended.clear();
                    mismatch
                }
                _ => None,
            }
        });
    }

    fn gather<'h>(cx: &AnalysisCtx<'h, ()>, buf: &mut GatherBuf<ReadOcc<'h>>) -> Self::Aux<'h> {
        // Roughly one append group per (txn, key) append — reserve on the
        // scope's mop count so the bulk load never rehashes, and a seal
        // over a few keys does not size its map by the whole history.
        let mops = match cx.scope {
            None => cx.history.mop_count(),
            Some(ids) => ids.iter().map(|id| cx.history.get(*id).mops.len()).sum(),
        };
        let mut appends: Self::Aux<'h> =
            FxHashMap::with_capacity_and_hasher(mops / 2, Default::default());
        for t in cx.scoped_txns() {
            for (i, m) in t.mops.iter().enumerate() {
                match m {
                    Mop::Append { key, elem } if cx.keys.contains(*key) => {
                        appends.entry((t.id, *key)).or_default().push(*elem);
                    }
                    Mop::Read {
                        key,
                        value: Some(ReadValue::List(v)),
                    } if t.status == TxnStatus::Committed => {
                        if let Some(slot) = cx.keys.slot_of(*key) {
                            buf.push(
                                slot,
                                ReadOcc {
                                    txn: t,
                                    mop: i,
                                    value: v,
                                },
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
        appends
    }

    /// Coverage: a compatible read contributes nothing beyond the spine,
    /// so only the longest value (plus the rare incompatible read) is
    /// walked — not every read's full payload.
    fn observed_elems(occs: &[ReadOcc<'_>]) -> Vec<Elem> {
        let mut longest: &[Elem] = &[];
        for occ in occs {
            if occ.value.len() >= longest.len() {
                longest = occ.value;
            }
        }
        let mut out: Vec<Elem> = Vec::with_capacity(longest.len());
        for occ in occs {
            let l = occ.value.len();
            if !(l <= longest.len() && occ.value[..] == longest[..l]) {
                out.extend_from_slice(occ.value);
            }
        }
        out.extend_from_slice(longest);
        out
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

        // ── Intern: resolve every occurrence to a version id; the spine
        //    is the longest committed read (ties: last, like the seed's
        //    `max_by_key`). One hash + one equality check per occurrence.
        let mut table: VersionTable<&'h [Elem], ListVersion> = VersionTable::new();
        let mut vids: Vec<VersionId> = Vec::with_capacity(occs.len());
        let mut longest_idx = 0usize;
        for (i, occ) in occs.iter().enumerate() {
            if occ.value.len() >= occs[longest_idx].value.len() {
                longest_idx = i;
            }
            vids.push(table.intern_with(occ.value, |_| ListVersion::default()));
        }
        let longest = &occs[longest_idx];
        let longest_v = longest.value;

        // ── Spine scan: every element of x_f is resolved to its writer,
        //    checked for duplication, and checked for garbage exactly
        //    once. All prefix versions reuse these tables.
        let kw = cx.elems.key_writers(key);
        let spine = SpineTables::scan(&kw, longest_v);

        // ── Per distinct version: prefix verification (one slice
        //    equality against the spine) and pass-A facts, derived from
        //    the spine tables for prefixes and scanned directly only for
        //    incompatible values.
        for idx in 0..table.len() {
            let vid = VersionId(idx as u32);
            let v = table.value(vid);
            let l = v.len();
            let is_prefix = l <= longest_v.len() && v == &longest_v[..l];
            let (first_dup, garbage) = if is_prefix {
                (
                    spine.first_dup.filter(|(j, _)| *j < l).map(|(_, e)| e),
                    spine
                        .garbage
                        .iter()
                        .take_while(|(j, _)| *j < l)
                        .map(|(_, e)| *e)
                        .collect(),
                )
            } else {
                scan_value_facts(&kw, v)
            };
            poisoned |= first_dup.is_some() || !garbage.is_empty();
            let meta = table.meta_mut(vid);
            meta.is_prefix = is_prefix;
            meta.first_dup = first_dup;
            meta.garbage = garbage;
        }

        // ── Pass A fan-out (always valid): duplicates within reads and
        //    garbage elements, per occurrence in seed emission order. ───
        let mut scan = ProvenanceScan::new();
        for (i, occ) in occs.iter().enumerate() {
            let meta = table.meta(vids[i]);
            if let Some(e) = meta.first_dup {
                out.anomaly(
                    AnomalyType::DuplicateWrite,
                    vec![occ.txn.id],
                    key,
                    format!(
                        "{}\n  the read of key {key} contains element {e} more than once",
                        occ.txn.to_notation()
                    ),
                );
            }
            for &e in &meta.garbage {
                scan.garbage_classified(cx, vocab, key, occ.txn.id, e, out);
            }
        }

        // ── Pass B: provenance events (G1a, G1b, dirty updates). These
        //    rely on recoverability — the element → writer map must be a
        //    bijection — so they are skipped for poisoned keys (§4.2.3).
        //    Events are computed once per distinct version: prefixes
        //    reuse a single spine walk (plus an O(1) end-of-version
        //    adjacency check); incompatible values get their own scan. ──
        if !poisoned {
            let walk = SpineEvents::walk(longest_v, &spine, |wt, e| {
                appends_of.get(&(wt, key)).and_then(|seq| seq.next_after(e))
            });
            for idx in 0..table.len() {
                let vid = VersionId(idx as u32);
                let events = if table.meta(vid).is_prefix {
                    walk.of_prefix(longest_v, table.value(vid).len())
                } else {
                    scan_value_events(&kw, appends_of, key, table.value(vid))
                };
                table.meta_mut(vid).events = events;
            }
            let mut fan = FanOut::default();
            for (i, occ) in occs.iter().enumerate() {
                fan.read(cx, key, occ, &table.meta(vids[i]).events, out);
            }
        }

        // ── Version order: prefix compatibility of every read against
        //    the spine, O(1) per occurrence from the interned verdicts. ─
        let mut compatible: Vec<usize> = Vec::with_capacity(occs.len());
        for (i, occ) in occs.iter().enumerate() {
            if table.meta(vids[i]).is_prefix {
                compatible.push(i);
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
        //    version of `key` and then append to it. Groups key on the
        //    version id — no re-hashing of whole element slices. ────────
        let mut rmw_groups: FxHashMap<VersionId, Vec<TxnId>> = FxHashMap::default();
        for (i, occ) in occs.iter().enumerate() {
            if reads_then_appends(occ, key) {
                let group = rmw_groups.entry(vids[i]).or_default();
                if !group.contains(&occ.txn.id) {
                    group.push(occ.txn.id);
                }
            }
        }
        // A scoped (streaming) run caches what the next seal needs to
        // extend a clean key's result. Clean reads all lie on the spine,
        // so a version is its length.
        let mut rmw_lens: Vec<usize> = Vec::new();
        if cx.scope.is_some() {
            rmw_lens = rmw_groups.keys().map(|v| table.value(*v).len()).collect();
            rmw_lens.sort_unstable();
        }
        let mut groups: Vec<(VersionId, Vec<TxnId>)> = rmw_groups
            .into_iter()
            .filter(|(_, g)| g.len() >= 2)
            .collect();
        groups.sort_by(|(a, _), (b, _)| {
            let (va, vb) = (table.value(*a), table.value(*b));
            va.len().cmp(&vb.len()).then_with(|| va.cmp(vb))
        });
        for (_, g) in &mut groups {
            g.sort_unstable();
        }
        report_lost_updates(vocab, key, groups, |vid| show_list(table.value(*vid)), out);

        if poisoned {
            // Recoverability is broken for this key: skip dependency edges.
            return;
        }
        out.version_order = Some(longest_v.to_vec());

        // ── ww edges: consecutive elements of the version order, writers
        //    straight from the spine tables; then wr and rw edges per
        //    compatible committed read: O(1) per occurrence plus the
        //    reader's own stripped suffix. ───────────────────────────────
        ww_edges(key, longest_v, &spine, 1, out);
        for &i in &compatible {
            let occ = &occs[i];
            let own = appends_of.get(&(occ.txn.id, key));
            read_edges(key, occ, longest_v, &spine, own, out);
        }

        if cx.scope.is_some() && out.anomalies.is_empty() {
            out.summary = Some(ListSummary {
                tip_readers: occs
                    .iter()
                    .filter(|o| o.value.len() == longest_v.len())
                    .map(|o| o.txn.id)
                    .collect(),
                rmw_lens,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{run_mode, DriverOutput, Parallelism};
    use crate::observation::{ElemIndex, KeyTypes};
    use elle_graph::EdgeMask;
    use elle_history::{History, HistoryBuilder};

    fn run(h: &History) -> DriverOutput {
        let elems = ElemIndex::build(h);
        let kt = KeyTypes::infer(h);
        let keys = kt.keys_of(DataType::List);
        run_mode::<ListAppend>(h, &elems, &keys, (), Parallelism::Auto)
    }

    fn types(a: &DriverOutput) -> Vec<AnomalyType> {
        let mut t: Vec<AnomalyType> = a.anomalies.iter().map(|x| x.typ).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    #[test]
    fn clean_history_has_no_anomalies() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 2).read_list(1, [1, 2]).commit();
        b.txn(2).read_list(1, [1, 2]).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
        assert_eq!(a.version_orders[&Key(1)], vec![Elem(1), Elem(2)]);
    }

    #[test]
    fn infers_ww_wr_rw_edges() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).append(1, 1).commit(); // writer of 1
        let t1 = b.txn(1).append(1, 2).commit(); // writer of 2
        let t2 = b.txn(2).read_list(1, [1]).commit(); // reads [1]
        let t3 = b.txn(3).read_list(1, [1, 2]).commit(); // reads [1,2]
        let a = run(&b.build());
        // ww: t0 -> t1 (1 before 2)
        assert!(a
            .deps
            .edge_mask(t0.0, t1.0)
            .contains(elle_graph::EdgeClass::Ww));
        // wr: t0 -> t2 (t2 read version [1]); t1 -> t3.
        assert!(a
            .deps
            .edge_mask(t0.0, t2.0)
            .contains(elle_graph::EdgeClass::Wr));
        assert!(a
            .deps
            .edge_mask(t1.0, t3.0)
            .contains(elle_graph::EdgeClass::Wr));
        // rw: t2 -> t1 (t2 missed 2).
        assert!(a
            .deps
            .edge_mask(t2.0, t1.0)
            .contains(elle_graph::EdgeClass::Rw));
        // No rw out of t3 (read the longest version).
        assert_eq!(a.deps.out_neighbors_masked(t3.0, EdgeMask::RW).count(), 0);
    }

    #[test]
    fn empty_read_gets_rw_to_first_writer() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).read_list(1, []).commit();
        let t1 = b.txn(1).append(1, 5).commit();
        b.txn(2).read_list(1, [5]).commit();
        let a = run(&b.build());
        assert!(a
            .deps
            .edge_mask(t0.0, t1.0)
            .contains(elle_graph::EdgeClass::Rw));
    }

    #[test]
    fn g1a_aborted_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).abort();
        b.txn(1).read_list(1, [1]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::G1a));
    }

    #[test]
    fn g1b_intermediate_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).append(1, 2).commit();
        b.txn(1).read_list(1, [1]).commit(); // saw only the intermediate
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::G1b));
    }

    #[test]
    fn g1b_not_fired_for_contiguous_block() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).append(1, 2).commit();
        b.txn(1).read_list(1, [1, 2]).commit();
        let a = run(&b.build());
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }

    #[test]
    fn g1b_fired_when_interleaved() {
        // Writer's appends 1,2 separated by a foreign element 9 — the
        // version after "1" was exposed.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).append(1, 2).commit();
        b.txn(1).append(1, 9).commit();
        b.txn(2).read_list(1, [1, 9, 2]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::G1b));
    }

    #[test]
    fn dirty_update_detected() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).abort();
        b.txn(1).append(1, 2).commit();
        b.txn(2).read_list(1, [1, 2]).commit();
        let a = run(&b.build());
        let t = types(&a);
        assert!(t.contains(&AnomalyType::DirtyUpdate), "{t:?}");
        // The read also observed aborted data directly:
        assert!(t.contains(&AnomalyType::G1a));
    }

    #[test]
    fn incompatible_order() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 2).commit();
        b.txn(2).read_list(1, [1, 2]).commit();
        b.txn(3).read_list(1, [2, 1]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::IncompatibleOrder));
    }

    #[test]
    fn garbage_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).read_list(1, [42]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::GarbageRead));
        // Key is poisoned: no version order.
        assert!(!a.version_orders.contains_key(&Key(1)));
    }

    #[test]
    fn duplicate_in_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).read_list(1, [1, 1]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::DuplicateWrite));
    }

    #[test]
    fn duplicate_across_writes() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).append(1, 1).commit();
        b.txn(2).read_list(1, [1]).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::DuplicateWrite));
        assert!(!a.version_orders.contains_key(&Key(1)));
    }

    #[test]
    fn provenance_checks_require_recoverability() {
        // Element 7 is appended by both an aborted and a committed txn; a
        // read observing 7 must NOT be called an aborted read, because the
        // writer mapping is ambiguous (§4.2.3). Only the duplicate is
        // reported.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 7).abort();
        b.txn(1).append(1, 7).commit();
        b.txn(2).read_list(1, [7]).commit();
        let a = run(&b.build());
        let t = types(&a);
        assert!(t.contains(&AnomalyType::DuplicateWrite), "{t:?}");
        assert!(!t.contains(&AnomalyType::G1a), "{t:?}");
        assert!(!t.contains(&AnomalyType::G1b), "{t:?}");
        assert!(!t.contains(&AnomalyType::DirtyUpdate), "{t:?}");
    }

    #[test]
    fn internal_inconsistency_fauna_style() {
        // §7.3: T1: append(0, 6), r(0, nil) — fails to observe own write.
        let mut b = HistoryBuilder::new();
        b.txn(0).append(0, 6).read_list(0, []).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn internal_consistency_respects_prior_read() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        // Reads [1], appends 2, then must read [1, 2].
        b.txn(1)
            .read_list(1, [1])
            .append(1, 2)
            .read_list(1, [1])
            .commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::Internal));
    }

    #[test]
    fn own_reads_generate_no_self_edges() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).append(1, 1).read_list(1, [1]).commit();
        let a = run(&b.build());
        assert_eq!(a.deps.out_edges(t0.0).count(), 0);
        assert!(a.anomalies.is_empty(), "{:?}", a.anomalies);
    }

    #[test]
    fn wr_strips_own_suffix() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).append(1, 1).commit();
        // t1 appends 2 then reads [1, 2]: externally it depends on t0.
        let t1 = b.txn(1).append(1, 2).read_list(1, [1, 2]).commit();
        let a = run(&b.build());
        assert!(a
            .deps
            .edge_mask(t0.0, t1.0)
            .contains(elle_graph::EdgeClass::Wr));
    }

    #[test]
    fn lost_update_detected() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).read_list(1, [1]).append(1, 2).commit();
        b.txn(2).read_list(1, [1]).append(1, 3).commit();
        let a = run(&b.build());
        assert!(types(&a).contains(&AnomalyType::LostUpdate));
    }

    #[test]
    fn no_lost_update_when_reads_differ() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 1).commit();
        b.txn(1).read_list(1, [1]).append(1, 2).commit();
        b.txn(2).read_list(1, [1, 2]).append(1, 3).commit();
        let a = run(&b.build());
        assert!(!types(&a).contains(&AnomalyType::LostUpdate));
    }

    #[test]
    fn indeterminate_writers_participate_in_edges() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).append(1, 1).indeterminate();
        let t1 = b.txn(1).read_list(1, [1]).commit();
        let a = run(&b.build());
        // The info txn's append was observed: wr edge exists, no G1a.
        assert!(a
            .deps
            .edge_mask(t0.0, t1.0)
            .contains(elle_graph::EdgeClass::Wr));
        assert!(a.anomalies.is_empty());
    }

    #[test]
    fn paper_tidb_example_builds_g_single_edges() {
        // §7.1: T1: r(34,[2,1]), append(36,5), append(34,4)
        //       T2: append(34,5)    T3: r(34,[2,1,5,4])
        let mut b = HistoryBuilder::new();
        let seed0 = b.txn(9).append(34, 2).commit();
        let seed1 = b.txn(9).append(34, 1).commit();
        let t1 = b
            .txn(0)
            .read_list(34, [2, 1])
            .append(36, 5)
            .append(34, 4)
            .commit();
        let t2 = b.txn(1).append(34, 5).commit();
        let t3 = b.txn(2).read_list(34, [2, 1, 5, 4]).commit();
        let a = run(&b.build());
        let g = &a.deps;
        // T2 rw-depends on T1 (T1 did not observe 5).
        assert!(g.edge_mask(t1.0, t2.0).contains(elle_graph::EdgeClass::Rw));
        // T1 ww-depends on T2 (4 follows 5).
        assert!(g.edge_mask(t2.0, t1.0).contains(elle_graph::EdgeClass::Ww));
        // T3 wr-depends on T1 (read version ending in 4).
        assert!(g.edge_mask(t1.0, t3.0).contains(elle_graph::EdgeClass::Wr));
        let _ = (seed0, seed1);
    }
}
