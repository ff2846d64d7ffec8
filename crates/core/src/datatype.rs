//! The shared per-datatype analysis pipeline.
//!
//! The three recoverable datatypes (append-only lists, read-write
//! registers, grow-only sets) used to carry near-identical copies of
//! the same passes: write-level duplicate detection, per-read
//! provenance checks (garbage reads, G1a aborted reads), internal
//! consistency scaffolding, lost-update grouping, and the assembly of
//! per-key results into a [`DepGraph`]. This module owns those passes
//! once; each datatype implements [`DatatypeAnalysis`] and contributes
//! only its genuinely unique logic (list traceability, register
//! version-order inference, set subset semantics).
//!
//! **Key-partitioned parallelism.** Everything after the cheap serial
//! passes is per-key independent: a key's element index, version
//! order, and `wr`/`ww`/`rw` derivation never looks at another key.
//! The driver therefore fans analysis out over keys on rayon and
//! merges per-key sinks back **in sorted key order**, so the produced
//! [`DepGraph`] and anomaly list are byte-identical to a sequential
//! run — checked by `parallel_matches_sequential` in
//! `crates/core/tests/datatype_props.rs`.

use crate::anomaly::{Anomaly, AnomalyType, Witness};
use crate::deps::DepGraph;
use crate::gather::{GatherBuf, Grouped, KeySlots};
use crate::list_append::ListSummary;
use crate::observation::{DataType, ElemIndex, WriteRef};
use elle_history::{Elem, History, Key, Mop, Transaction, TxnId, TxnStatus};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};
use std::time::Instant;

/// The provenance index the shared passes consult — the element →
/// writer mapping whose injectivity is exactly the paper's
/// recoverability property (§4.2.3).
pub type ProvenanceIndex = ElemIndex;

/// Datatype-specific wording for the shared anomaly messages.
#[derive(Debug, Clone, Copy)]
pub struct Vocab {
    /// The object noun: `"key"`, `"register"`, `"set"`.
    pub object: &'static str,
    /// What a written value is called: `"element"` or `"value"`.
    pub item: &'static str,
    /// The write verb, past tense: `"appended"`, `"wrote"`, `"added"`.
    pub wrote: &'static str,
    /// The write verb, past participle: `"appended"`, `"written"`,
    /// `"added"`.
    pub written: &'static str,
    /// The write verb with preposition: `"appended to"`, `"written
    /// to"`, `"added to"`.
    pub wrote_to: &'static str,
    /// The read-modify-write verb for lost-update messages:
    /// `"appended to"`, `"wrote"`.
    pub rmw: &'static str,
    /// Report garbage once per reader (`true`) or once per element
    /// (`false`, the list convention).
    pub garbage_per_reader: bool,
}

/// Shared read-only context handed to every pass of one datatype run.
pub struct AnalysisCtx<'h, C> {
    /// The observation under analysis.
    pub history: &'h History,
    /// Element → writer provenance.
    pub elems: &'h ProvenanceIndex,
    /// The keys this datatype owns, interned into dense slot ids for
    /// the flat gather pipeline.
    pub keys: KeySlots,
    /// Datatype-specific configuration (e.g. register assumptions).
    pub config: C,
    /// Transaction scope: `None` = the whole history (batch checking);
    /// `Some(ids)` = only the listed transactions, in the given order
    /// (the streaming checker's **gather-delta** phase passes the union
    /// of the dirty keys' posting lists here, so gather pays for the
    /// epoch's delta, not for history length). Every pass that walks
    /// transactions must go through [`AnalysisCtx::scoped_txns`].
    pub scope: Option<&'h [TxnId]>,
}

impl<'h, C> AnalysisCtx<'h, C> {
    /// The transactions this run is allowed to look at, in history order
    /// (or the scope's order, which streaming callers keep sorted).
    pub fn scoped_txns(&self) -> impl Iterator<Item = &'h Transaction> + '_ {
        let hist = self.history;
        let ids = self.scope;
        (0..ids.map_or(hist.len(), <[TxnId]>::len)).map(move |i| match ids {
            None => &hist.txns()[i],
            Some(ids) => hist.get(ids[i]),
        })
    }
}

/// Where one key's analysis deposits its findings. Sinks are merged by
/// the driver in sorted key order, which is what keeps parallel runs
/// deterministic.
#[derive(Debug, Default)]
pub struct KeySink {
    /// Non-cycle anomalies found for this key.
    pub anomalies: Vec<Anomaly>,
    /// Dependency edges, in discovery order.
    pub edges: Vec<(TxnId, TxnId, Witness)>,
    /// The inferred version order, when the datatype recovers one.
    pub version_order: Option<Vec<Elem>>,
    /// Set when the key's inferred version order was cyclic and the
    /// key's dependencies were discarded.
    pub cyclic: bool,
    /// Elements of this key observed by at least one committed read —
    /// the key's contribution to the §3 coverage statistic, computed
    /// during the per-key pass instead of a second `observed_reads`
    /// walk over the whole history. May contain repeats; consumers
    /// union into a set.
    pub observed_elems: Vec<Elem>,
    /// List-append keys with no anomaly, in scoped (streaming) runs
    /// only: what the next seal needs to extend this result with its
    /// epoch's reads instead of re-analyzing the key.
    pub summary: Option<ListSummary>,
}

impl KeySink {
    /// Record a non-cycle anomaly.
    pub fn anomaly(&mut self, typ: AnomalyType, txns: Vec<TxnId>, key: Key, explanation: String) {
        self.anomalies.push(Anomaly {
            typ,
            txns,
            key: Some(key),
            steps: vec![],
            explanation,
        });
    }

    /// Record a dependency edge.
    pub fn edge(&mut self, from: TxnId, to: TxnId, witness: Witness) {
        self.edges.push((from, to, witness));
    }
}

/// What the flat gather pass cost — surfaced as the `gather` stage and
/// the peak-gather-buffer gauge in `--timing` output.
#[derive(Debug, Default, Clone, Copy)]
pub struct GatherStats {
    /// Wall-clock seconds spent scanning and grouping.
    pub secs: f64,
    /// Peak gather-buffer footprint in bytes (slots + occurrences +
    /// offset table).
    pub buf_bytes: usize,
}

impl GatherStats {
    /// Fold another datatype's gather cost into this one: times add,
    /// peak footprints max (the buffers are sequential, not live
    /// simultaneously).
    pub fn absorb(&mut self, other: GatherStats) {
        self.secs += other.secs;
        self.buf_bytes = self.buf_bytes.max(other.buf_bytes);
    }
}

/// The merged result of one datatype's run, consumed by the checker.
#[derive(Debug, Default)]
pub struct DriverOutput {
    /// All dependency edges, as an IDSG fragment.
    pub deps: DepGraph,
    /// All non-cycle anomalies, in pass order then key order.
    pub anomalies: Vec<Anomaly>,
    /// Version orders recovered per key (lists).
    pub version_orders: FxHashMap<Key, Vec<Elem>>,
    /// Keys discarded for cyclic inferred version orders (registers).
    pub cyclic_keys: Vec<Key>,
    /// `(key, element)` pairs observed by committed reads of this
    /// datatype's keys (coverage statistic contribution; may repeat).
    pub observed: Vec<(Key, Elem)>,
    /// Cost of the flat gather pass.
    pub gather: GatherStats,
}

/// How the driver schedules per-key analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Parallel when there are enough keys to plausibly pay for it.
    Auto,
    /// Always sequential (the reference mode property tests compare
    /// against).
    Sequential,
    /// Always parallel, regardless of key count.
    Parallel,
}

/// Keys below this count are analyzed inline under
/// [`Parallelism::Auto`]; thread fan-out costs more than it saves.
const AUTO_PARALLEL_MIN_KEYS: usize = 8;

/// `ELLE_SEQUENTIAL=1` pins [`Parallelism::Auto`] to sequential — used
/// to record before/after benchmark numbers and to bisect any
/// parallelism-related suspicion without rebuilding. The per-key
/// datatype pipeline here is the only stage it pins: cycle search runs
/// on the calling thread.
pub(crate) fn auto_forced_sequential() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| std::env::var_os("ELLE_SEQUENTIAL").is_some_and(|v| v == "1"))
}

/// One datatype's contribution to the pipeline: the hooks the shared
/// driver calls, in order.
pub trait DatatypeAnalysis {
    /// Datatype-specific options ([`crate::RegisterOptions`] for
    /// registers, `()` elsewhere).
    type Config: Copy + Sync;
    /// Cross-key immutable auxiliary data built once per run (e.g. the
    /// per-transaction append index lists use for G1b).
    type Aux<'h>: Sync;
    /// One per-key occurrence emitted during the gather scan. A key's
    /// occurrences arrive at [`DatatypeAnalysis::analyze_key`] as a
    /// contiguous slice in scan order — exactly the sequence the old
    /// per-key `Vec` pushes produced, so per-key folds are unchanged.
    /// `Copy` because grouping gathers occurrences out of place.
    type Occ<'h>: Send + Sync + Copy;

    /// Which [`DataType`] this analysis owns.
    const DATATYPE: DataType;
    /// Wording for the shared anomaly messages.
    const VOCAB: Vocab;
    /// Whether written values identify their writer (§4.2.3). Only
    /// recoverable datatypes take part in the duplicate-write pass:
    /// counters are not, and a counter-typed key that also saw set adds
    /// must not report those adds' duplicates.
    const RECOVERABLE: bool = true;

    /// Internal-consistency pass (§6.1): transaction-major, cheap, and
    /// serial. Implementations usually delegate to [`internal_pass`].
    fn check_internal(cx: &AnalysisCtx<'_, Self::Config>, sink: &mut KeySink);

    /// Single pass over the scoped transactions appending flat
    /// `(key slot, occurrence)` tuples to `buf` (use
    /// [`AnalysisCtx::scoped_txns`], never `history.txns()` directly —
    /// the streaming driver narrows the scope to the dirty keys'
    /// transactions). Slot ids come from `cx.keys`.
    fn gather<'h>(
        cx: &AnalysisCtx<'h, Self::Config>,
        buf: &mut GatherBuf<Self::Occ<'h>>,
    ) -> Self::Aux<'h>;

    /// The key's observed-element contribution to the coverage
    /// statistic, derived from the gathered occurrences (shared between
    /// the interned and the seed reference pipelines, so reports stay
    /// byte-identical across them).
    fn observed_elems(occs: &[Self::Occ<'_>]) -> Vec<Elem>;

    /// Analyze one key from its gathered occurrence run. Runs on a
    /// rayon worker; must only write into `sink`.
    fn analyze_key<'h>(
        cx: &AnalysisCtx<'h, Self::Config>,
        aux: &Self::Aux<'h>,
        key: Key,
        occs: &[Self::Occ<'h>],
        poisoned: bool,
        sink: &mut KeySink,
    );
}

/// Run a datatype's full pipeline with an explicit scheduling mode.
pub fn run_mode<D: DatatypeAnalysis>(
    history: &History,
    elems: &ProvenanceIndex,
    keys: &[Key],
    config: D::Config,
    mode: Parallelism,
) -> DriverOutput {
    let cx = AnalysisCtx {
        history,
        elems,
        keys: keys.iter().copied().collect(),
        config,
        scope: None,
    };
    let mut out = DriverOutput {
        deps: DepGraph::with_txns(history.len()),
        ..DriverOutput::default()
    };

    // ── Serial prelude: internal consistency, then write-level
    //    duplicates (which poison recoverability per key). ─────────────
    out.anomalies.append(&mut internal_anomalies::<D>(&cx));
    let (mut dup_anomalies, poisoned) = duplicates::<D, _>(&cx);
    out.anomalies.append(&mut dup_anomalies);

    // ── Partition by key, analyze, and merge deterministically. ───────
    let (pairs, gather) = analyze_keys::<D>(&cx, &poisoned, mode);
    out.gather = gather;
    for (key, mut sink) in pairs {
        out.anomalies.append(&mut sink.anomalies);
        out.deps.reserve_edges(sink.edges.len());
        for (from, to, witness) in sink.edges {
            out.deps.add(from, to, witness);
        }
        if let Some(order) = sink.version_order {
            out.version_orders.insert(key, order);
        }
        if sink.cyclic {
            out.cyclic_keys.push(key);
        }
        out.observed
            .extend(sink.observed_elems.into_iter().map(|e| (key, e)));
    }
    // One sort-based build seals every per-key buffer into the sorted
    // spine — the datatype's whole edge set pays zero hash probes.
    out.deps.build();
    out
}

/// Phase 1 of a datatype run: the transaction-major internal-consistency
/// pass over the context's scope. Streaming callers pass only the
/// epoch's new/changed transactions and cache results per transaction.
pub fn internal_anomalies<D: DatatypeAnalysis>(cx: &AnalysisCtx<'_, D::Config>) -> Vec<Anomaly> {
    let mut sink = KeySink::default();
    D::check_internal(cx, &mut sink);
    sink.anomalies
}

/// Phase 2 for datatype `D`: [`duplicate_anomalies`] in `D`'s wording,
/// or nothing at all when `D` is not [`DatatypeAnalysis::RECOVERABLE`].
pub fn duplicates<D: DatatypeAnalysis, C>(
    cx: &AnalysisCtx<'_, C>,
) -> (Vec<Anomaly>, FxHashSet<Key>) {
    if D::RECOVERABLE {
        duplicate_anomalies(cx, &D::VOCAB)
    } else {
        Default::default()
    }
}

/// Write-level duplicate anomalies for this datatype's keys,
/// plus the poisoned-key set (recoverability broken). Cheap — it walks
/// the element index's (sorted) duplicate list, not the history.
pub fn duplicate_anomalies<C>(
    cx: &AnalysisCtx<'_, C>,
    v: &Vocab,
) -> (Vec<Anomaly>, FxHashSet<Key>) {
    let mut anomalies = Vec::new();
    let mut poisoned: FxHashSet<Key> = FxHashSet::default();
    for (k, e, txns) in &cx.elems.duplicates {
        if !cx.keys.contains(*k) {
            continue;
        }
        poisoned.insert(*k);
        anomalies.push(Anomaly {
            typ: AnomalyType::DuplicateWrite,
            txns: txns.clone(),
            key: Some(*k),
            steps: vec![],
            explanation: format!(
                "{item} {e} was {wrote_to} {object} {k} by more than one transaction ({who}); \
                 versions of {k} are not recoverable",
                item = v.item,
                wrote_to = v.wrote_to,
                object = v.object,
                who = txns
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        });
    }
    (anomalies, poisoned)
}

/// Phase 3: gather the scoped transactions into flat per-key occurrence
/// runs and analyze each occupied key, returning `(key, sink)` pairs in
/// sorted key order (slot order *is* key order, so no separate key sort
/// remains). The [`crate::pipeline`] runs it over every key with an
/// unbounded scope (all keys), or over a seal's dirty keys with the
/// scope narrowed to their transactions, caching the sinks.
pub fn analyze_keys<D: DatatypeAnalysis>(
    cx: &AnalysisCtx<'_, D::Config>,
    poisoned: &FxHashSet<Key>,
    mode: Parallelism,
) -> (Vec<(Key, KeySink)>, GatherStats) {
    let (aux, grouped, gather) = gather_runs::<D>(cx);
    let slots: Vec<u32> = grouped.occupied().collect();

    let parallel = match mode {
        Parallelism::Sequential => false,
        Parallelism::Parallel => true,
        Parallelism::Auto => slots.len() >= AUTO_PARALLEL_MIN_KEYS && !auto_forced_sequential(),
    };
    let analyze_one = |&slot: &u32| {
        let key = cx.keys.key(slot);
        let occs = grouped.run(slot);
        let mut sink = KeySink {
            observed_elems: D::observed_elems(occs),
            ..KeySink::default()
        };
        D::analyze_key(cx, &aux, key, occs, poisoned.contains(&key), &mut sink);
        sink
    };
    let sinks: Vec<KeySink> = if parallel {
        slots.par_iter().map(analyze_one).collect()
    } else {
        slots.iter().map(analyze_one).collect()
    };
    let pairs = slots
        .into_iter()
        .map(|s| cx.keys.key(s))
        .zip(sinks)
        .collect();
    (pairs, gather)
}

/// The gather half of [`analyze_keys`]: one scan of the scoped
/// transactions, grouped into contiguous per-key occurrence runs, and
/// what it cost.
pub(crate) fn gather_runs<'h, D: DatatypeAnalysis>(
    cx: &AnalysisCtx<'h, D::Config>,
) -> (D::Aux<'h>, Grouped<D::Occ<'h>>, GatherStats) {
    let start = Instant::now();
    let mut buf = GatherBuf::new();
    let aux = D::gather(cx, &mut buf);
    let buf_bytes = buf.footprint_bytes();
    let grouped = buf.group(cx.keys.len());
    let gather = GatherStats {
        secs: start.elapsed().as_secs_f64(),
        buf_bytes: buf_bytes.max(grouped.footprint_bytes()),
    };
    (aux, grouped, gather)
}

// ── Shared passes ───────────────────────────────────────────────────────

/// A datatype's verdict on one internal-consistency step: the message
/// appended after the transaction's notation when the read disagrees
/// with the transaction's own prior operations.
pub struct InternalMismatch {
    /// Message body, e.g. `"read of key 3 returned [1], but …"`.
    pub message: String,
}

/// The shared transaction-major skeleton of the internal-consistency
/// check: iterate transactions, thread per-key state of type `S`
/// through each one's micro-ops in program order, and report any
/// mismatch the datatype's `step` closure detects.
///
/// The step closure receives history-lifetime borrows so states can
/// reference read values in place instead of cloning them; per-key
/// states live in one reused vector with a reused key → slot index, so
/// no per-transaction allocation and O(1) lookups even for arbitrarily
/// wide transactions.
pub fn internal_pass<'h, C, S: Default>(
    cx: &AnalysisCtx<'h, C>,
    sink: &mut KeySink,
    mut step: impl FnMut(&'h Transaction, &'h Mop, Key, &mut S) -> Option<InternalMismatch>,
) {
    let mut states: Vec<(Key, S)> = Vec::new();
    let mut slot_of: FxHashMap<Key, u32> = FxHashMap::default();
    for t in cx.scoped_txns() {
        states.clear();
        slot_of.clear();
        for m in &t.mops {
            let key = m.key();
            if !cx.keys.contains(key) {
                continue;
            }
            let slot = *slot_of.entry(key).or_insert_with(|| {
                states.push((key, S::default()));
                (states.len() - 1) as u32
            });
            let state = &mut states[slot as usize].1;
            if let Some(mismatch) = step(t, m, key, state) {
                sink.anomaly(
                    AnomalyType::Internal,
                    vec![t.id],
                    key,
                    format!("{}\n  {}", t.to_notation(), mismatch.message),
                );
            }
        }
    }
}

/// What the shared provenance scan concluded about one observed
/// element.
#[derive(Debug, Clone, Copy)]
pub enum Provenance {
    /// No transaction ever wrote it (reported as a garbage read).
    Garbage,
    /// The key is poisoned; the writer map cannot be trusted.
    Unusable,
    /// Written by an aborted transaction (reported as G1a); the write
    /// exists but must not produce dependency edges.
    Aborted(WriteRef),
    /// A trustworthy write.
    Ok(WriteRef),
}

/// The shared per-read provenance scan: garbage reads and G1a aborted
/// reads, with deduplicated reporting and poison gating (§4.2.3: G1a
/// needs the element → writer bijection; garbage does not).
#[derive(Debug, Default)]
pub struct ProvenanceScan {
    garbage_elems: FxHashSet<Elem>,
    garbage_pairs: FxHashSet<(TxnId, Elem)>,
    g1a_seen: FxHashSet<(TxnId, Elem)>,
}

impl ProvenanceScan {
    /// A fresh scan (per key).
    pub fn new() -> Self {
        ProvenanceScan::default()
    }

    /// Check whether `elem` is garbage, reporting it (once, per the
    /// vocab's dedup policy) if so. Usable as a standalone early pass.
    pub fn garbage<C>(
        &mut self,
        cx: &AnalysisCtx<'_, C>,
        vocab: &Vocab,
        key: Key,
        reader: TxnId,
        elem: Elem,
        sink: &mut KeySink,
    ) -> bool {
        if cx.elems.writer(key, elem).is_some() {
            return false;
        }
        self.garbage_classified(cx, vocab, key, reader, elem, sink);
        true
    }

    /// Report an element already known to be garbage (no writer exists),
    /// applying the vocab's dedup policy — the fan-out half of
    /// [`ProvenanceScan::garbage`] for version-interned passes that
    /// classified the element once per distinct version.
    pub fn garbage_classified<C>(
        &mut self,
        cx: &AnalysisCtx<'_, C>,
        vocab: &Vocab,
        key: Key,
        reader: TxnId,
        elem: Elem,
        sink: &mut KeySink,
    ) {
        let fresh = if vocab.garbage_per_reader {
            self.garbage_pairs.insert((reader, elem))
        } else {
            self.garbage_elems.insert(elem)
        };
        if fresh {
            sink.anomaly(
                AnomalyType::GarbageRead,
                vec![reader],
                key,
                format!(
                    "{}\n  observed {item} {elem} of {object} {key}, which no transaction \
                     ever {wrote}",
                    cx.history.get(reader).to_notation(),
                    item = vocab.item,
                    object = vocab.object,
                    wrote = vocab.wrote,
                ),
            );
        }
    }

    /// Report an element already known to be an aborted write, with the
    /// once-per-`(reader, element)` dedup — the fan-out half of
    /// [`ProvenanceScan::provenance`]'s G1a arm for version-interned
    /// passes.
    #[allow(clippy::too_many_arguments)]
    pub fn g1a_classified<C>(
        &mut self,
        cx: &AnalysisCtx<'_, C>,
        vocab: &Vocab,
        key: Key,
        reader: TxnId,
        elem: Elem,
        writer: TxnId,
        sink: &mut KeySink,
    ) {
        if self.g1a_seen.insert((reader, elem)) {
            sink.anomaly(
                AnomalyType::G1a,
                vec![reader, writer],
                key,
                format!(
                    "{}\n  observed {item} {elem} of {object} {key}, {written} by aborted \
                     transaction {}",
                    cx.history.get(reader).to_notation(),
                    cx.history.get(writer).to_notation(),
                    item = vocab.item,
                    object = vocab.object,
                    written = vocab.written,
                ),
            );
        }
    }

    /// Fully classify one observed element, reporting garbage and G1a
    /// (deduplicated). `poisoned` keys yield [`Provenance::Unusable`]
    /// for recovered writes — their provenance checks are skipped, but
    /// garbage is still reported.
    #[allow(clippy::too_many_arguments)]
    pub fn provenance<C>(
        &mut self,
        cx: &AnalysisCtx<'_, C>,
        vocab: &Vocab,
        key: Key,
        reader: TxnId,
        elem: Elem,
        poisoned: bool,
        sink: &mut KeySink,
    ) -> Provenance {
        let Some(w) = cx.elems.writer(key, elem) else {
            self.garbage(cx, vocab, key, reader, elem, sink);
            return Provenance::Garbage;
        };
        if poisoned {
            return Provenance::Unusable;
        }
        if w.status == TxnStatus::Aborted {
            self.g1a_classified(cx, vocab, key, reader, elem, w.txn, sink);
            return Provenance::Aborted(w);
        }
        Provenance::Ok(w)
    }
}

/// Shared lost-update reporting: several committed transactions read
/// the *same* version of a key and then each wrote it — at most one of
/// those writes can directly follow that version.
///
/// `groups` must already be deterministic (sorted by the caller) with
/// each group's transactions sorted; only groups of two or more
/// read-modify-writers are reported.
pub fn report_lost_updates<V>(
    vocab: &Vocab,
    key: Key,
    groups: Vec<(V, Vec<TxnId>)>,
    render: impl Fn(&V) -> String,
    sink: &mut KeySink,
) {
    for (version, group) in groups {
        debug_assert!(group.len() >= 2);
        debug_assert!(group.windows(2).all(|w| w[0] <= w[1]));
        sink.anomaly(
            AnomalyType::LostUpdate,
            group.clone(),
            key,
            format!(
                "transactions {who} all read version {v} of {object} {key} and then \
                 {rmw} it; at most one of those writes can directly follow that version",
                who = group
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                v = render(&version),
                object = vocab.object,
                rmw = vocab.rmw,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::KeyTypes;
    use elle_history::HistoryBuilder;

    #[test]
    fn provenance_scan_dedups_garbage_per_policy() {
        let mut b = HistoryBuilder::new();
        let t0 = b.txn(0).read_list(1, [9]).commit();
        let t1 = b.txn(1).read_list(1, [9]).commit();
        let h = b.build();
        let elems = ElemIndex::build(&h);
        let cx = AnalysisCtx {
            history: &h,
            elems: &elems,
            keys: [Key(1)].into_iter().collect(),
            config: (),
            scope: None,
        };
        let per_elem = crate::list_append::ListAppend::VOCAB;
        let mut scan = ProvenanceScan::new();
        let mut sink = KeySink::default();
        assert!(scan.garbage(&cx, &per_elem, Key(1), t0, Elem(9), &mut sink));
        assert!(scan.garbage(&cx, &per_elem, Key(1), t1, Elem(9), &mut sink));
        assert_eq!(sink.anomalies.len(), 1, "per-element dedup");

        let per_reader = Vocab {
            garbage_per_reader: true,
            ..per_elem
        };
        let mut scan = ProvenanceScan::new();
        let mut sink = KeySink::default();
        scan.garbage(&cx, &per_reader, Key(1), t0, Elem(9), &mut sink);
        scan.garbage(&cx, &per_reader, Key(1), t1, Elem(9), &mut sink);
        assert_eq!(sink.anomalies.len(), 2, "per-reader keeps both");
    }

    #[test]
    fn provenance_scan_gates_g1a_on_poison() {
        let mut b = HistoryBuilder::new();
        b.txn(0).append(1, 7).abort();
        let t1 = b.txn(1).read_list(1, [7]).commit();
        let h = b.build();
        let elems = ElemIndex::build(&h);
        let cx = AnalysisCtx {
            history: &h,
            elems: &elems,
            keys: [Key(1)].into_iter().collect(),
            config: (),
            scope: None,
        };
        let vocab = crate::list_append::ListAppend::VOCAB;
        let mut scan = ProvenanceScan::new();
        let mut sink = KeySink::default();
        let p = scan.provenance(&cx, &vocab, Key(1), t1, Elem(7), true, &mut sink);
        assert!(matches!(p, Provenance::Unusable));
        assert!(sink.anomalies.is_empty());
        let p = scan.provenance(&cx, &vocab, Key(1), t1, Elem(7), false, &mut sink);
        assert!(matches!(p, Provenance::Aborted(_)));
        assert_eq!(sink.anomalies.len(), 1);
        // Re-checking the same (reader, elem) does not re-report.
        let _ = scan.provenance(&cx, &vocab, Key(1), t1, Elem(7), false, &mut sink);
        assert_eq!(sink.anomalies.len(), 1);
    }

    #[test]
    fn run_modes_agree_on_a_mixed_history() {
        // Enough keys to clear the Auto threshold.
        let mut b = HistoryBuilder::new();
        for k in 0..16u64 {
            b.txn(0).append(k, 2 * k + 1).commit();
            b.txn(1)
                .append(k, 2 * k + 2)
                .read_list(k, [2 * k + 1, 2 * k + 2])
                .commit();
            b.txn(2).read_list(k, [2 * k + 1]).commit();
        }
        let h = b.build();
        let elems = ElemIndex::build(&h);
        let kt = KeyTypes::infer(&h);
        let keys = kt.keys_of(DataType::List);
        let seq = run_mode::<crate::list_append::ListAppend>(
            &h,
            &elems,
            &keys,
            (),
            Parallelism::Sequential,
        );
        let par = run_mode::<crate::list_append::ListAppend>(
            &h,
            &elems,
            &keys,
            (),
            Parallelism::Parallel,
        );
        assert_eq!(seq.anomalies, par.anomalies);
        assert_eq!(seq.version_orders, par.version_orders);
        assert_eq!(seq.deps.edge_count(), par.deps.edge_count());
        for (a, b, m) in seq.deps.edges() {
            assert_eq!(par.deps.edge_mask(a, b), m);
        }
    }
}
