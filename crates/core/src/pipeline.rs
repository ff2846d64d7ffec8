//! The analysis pipeline: one state, one stage sequence, two drivers.
//!
//! Elle produces a verdict by running one fixed sequence (§4–6 of the
//! paper): infer each key's version order and dependencies from what
//! the reads observed, merge them into the IDSG, then search the IDSG
//! for cycles and classify them. [`Analysis`] holds the state that
//! sequence advances, and [`Analysis::seal`] runs it, each stage
//! recording its own [`StageTimings`] entry:
//!
//! 1. **index** — key typing and the element index. The all-keys scope
//!    builds them in bulk from the whole history; the dirty-keys scope
//!    has folded them forward at ingest and here only computes the
//!    epoch's dirty keys (keys a new or changed transaction touched);
//! 2. **datatype inference** (with its **gather** share split out) —
//!    per datatype: the internal pass, the duplicate-write pass, then
//!    gather and per-key analysis over the scoped keys;
//! 3. **derived orders** — process, real-time and timestamp edges from
//!    their frontiers;
//! 4. **graph delta** — push the delta into the carried graph, or
//!    rebuild it from the cached per-key results when a key retracted
//!    edges;
//! 5. **edge build**, 6. **freeze**, 7. **cycle search**, 8. **report
//!    assembly**.
//!
//! Two drivers run it. [`Checker::check`](crate::Checker::check) seals
//! once over the all-keys scope ([`check`]), which caches
//! nothing it would not reuse: no per-key edge lists, postings or
//! coverage maps. `elle_stream`'s checker seals once per epoch over the
//! dirty-keys scope ([`Analysis::incremental`]): it caches per-key
//! results, re-analyzes only dirty keys with gather scoped to their
//! posting lists, and appends the epoch's edge delta to the carried
//! graph, so a seal pays per dirty key, not for the untouched ones.
//!
//! A clean list-append key pays only for the epoch. Its cached result
//! keeps a [`ListSummary`] (the readers of the whole spine and the
//! version lengths read-then-appended), and the seal extends it with
//! the epoch's own reads of the key through the per-read code
//! [`ListAppend`]'s analysis runs (`list_append::extend_key`): a gather
//! over the epoch's transactions, `ww` edges along the spine's new
//! tail, the tip readers' `rw` edges, and each new read's edges and
//! provenance fan-out. A key falls back to the full analysis over its
//! posting list when it has no clean cached result (its first seal,
//! after a restore or a poisoned seal, after an anomaly), when a
//! write-level duplicate poisons it or it changes datatype, when a
//! transaction that existed at the last seal and changed since wrote
//! an element of its cached spine, when the old spine or a new read
//! does not lie on the new longest read, or when the extension would
//! emit any anomaly. Keys no earlier transaction touched walk only the
//! epoch too; [`Sealed::extended_keys`] counts both.
//!
//! Because both drivers run the same stages, a streamed prefix reports
//! byte-for-byte what the batch checker reports on it.

use crate::anomaly::{Anomaly, AnomalyType, Witness};
use crate::checker::{assemble_report, CheckOptions, CheckStats, Report, StageTimings};
use crate::counter::Counter;
use crate::cycle_search::{self, CycleSearchOptions};
use crate::datatype::{self, AnalysisCtx, DatatypeAnalysis, GatherStats, KeySink, Parallelism};
use crate::deps::DepGraph;
use crate::gather::KeySlots;
use crate::list_append::{self, ListAppend, ListSummary};
use crate::observation::{DataType, ElemIndex, KeyTypes};
use crate::rw_register::RwRegister;
use crate::set_add::SetAdd;
use elle_graph::Csr;
use elle_history::{Elem, History, Key, Mop, ProcessId, Transaction, TxnId, TxnStatus};
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

type Edge = (TxnId, TxnId, Witness);

/// The datatypes in report order, each with its refresh entry point
/// (the index into [`Analysis::caches`] is the table position).
const PASSES: [fn(&mut Analysis, &History, usize, &mut SealState); 4] = [
    |a, h, i, s| a.refresh::<ListAppend>(h, i, (), s),
    |a, h, i, s| {
        let config = a.opts.registers;
        a.refresh::<RwRegister>(h, i, config, s)
    },
    |a, h, i, s| a.refresh::<SetAdd>(h, i, (), s),
    |a, h, i, s| a.refresh::<Counter>(h, i, (), s),
];

/// Which keys a seal re-analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Every key, over the whole history, indexes built in bulk.
    AllKeys,
    /// The keys the epoch's new or changed transactions touched, over
    /// their posting lists; per-key results cached across seals.
    DirtyKeys,
}

/// One key's cached analysis result, anomalies interned behind [`Arc`]
/// so report assembly clones pointers, not explanation strings. The
/// all-keys scope keeps only the anomalies.
#[derive(Debug)]
struct CachedSink {
    anomalies: Vec<Arc<Anomaly>>,
    /// A multiset: an extended key's edges are not in the order
    /// `analyze_key` emits them, and no reader depends on the order —
    /// [`edge_delta`] diffs multisets, the graph rebuild keeps the
    /// `Ord`-least witness per edge class whatever the insertion order,
    /// and retirement drops the sink whole.
    edges: Vec<Edge>,
    observed_elems: Vec<Elem>,
    /// A clean list-append key's summary, which lets the next seal
    /// extend this result with the epoch's reads. Not counted in
    /// [`Analysis::resident_bytes`]: a restored checker has none until
    /// its first seal, so counting it would make residency depend on
    /// seal history rather than on the ingested prefix.
    summary: Option<ListSummary>,
}

fn intern(anomalies: Vec<Anomaly>) -> Vec<Arc<Anomaly>> {
    anomalies.into_iter().map(Arc::new).collect()
}

/// Anomalies whose evidence left the window (windowed streaming): kept
/// as finished facts so cumulative reports never lose them.
#[derive(Debug, Default)]
struct Stash {
    /// Internal anomalies of retired transactions, in id order.
    internal: Vec<Arc<Anomaly>>,
    /// Duplicate-write anomalies of retired keys.
    dups: BTreeMap<Key, Vec<Arc<Anomaly>>>,
    /// Per-key analysis anomalies of retired keys (their edges were
    /// folded into the retired edge counts).
    sinks: BTreeMap<Key, Vec<Arc<Anomaly>>>,
}

/// One datatype's retired anomaly stash in portable form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DtStashCarry {
    /// Internal (single-transaction) anomalies among retired txns.
    pub internal: Vec<Anomaly>,
    /// Per-key duplicate-write anomalies over retired keys.
    pub dups: Vec<(Key, Vec<Anomaly>)>,
    /// Per-key analysis anomalies for retired keys' final sinks.
    pub sinks: Vec<(Key, Vec<Anomaly>)>,
}

impl Stash {
    fn carry(&self) -> DtStashCarry {
        let unpack = |v: &[Arc<Anomaly>]| v.iter().map(|a| (**a).clone()).collect::<Vec<_>>();
        let unpack_map = |m: &BTreeMap<Key, Vec<Arc<Anomaly>>>| {
            m.iter().map(|(k, v)| (*k, unpack(v))).collect::<Vec<_>>()
        };
        DtStashCarry {
            internal: unpack(&self.internal),
            dups: unpack_map(&self.dups),
            sinks: unpack_map(&self.sinks),
        }
    }

    fn from_carry(c: &DtStashCarry) -> Stash {
        let pack = |v: &[Anomaly]| v.iter().cloned().map(Arc::new).collect::<Vec<_>>();
        Stash {
            internal: pack(&c.internal),
            dups: c.dups.iter().map(|(k, v)| (*k, pack(v))).collect(),
            sinks: c.sinks.iter().map(|(k, v)| (*k, pack(v))).collect(),
        }
    }
}

/// One datatype's analysis state.
#[derive(Debug, Default)]
struct DtCache {
    /// Internal-consistency anomalies per transaction (only
    /// transactions that produced any).
    internal: BTreeMap<TxnId, Vec<Arc<Anomaly>>>,
    /// The last seal's duplicate-write anomalies, in `(key, elem)` order.
    dups: Vec<Arc<Anomaly>>,
    /// The latest per-key results, in key order.
    sinks: BTreeMap<Key, CachedSink>,
    stash: Stash,
}

impl DtCache {
    /// Append this datatype's anomalies in report order: retired facts
    /// before live ones within each pass. [`assemble_report`]'s stable
    /// sort canonicalizes the rest, and retired and live anomalies never
    /// tie (their transactions lie on opposite sides of the watermark).
    fn extend_report(&self, out: &mut Vec<Arc<Anomaly>>) {
        out.extend(self.stash.internal.iter().cloned());
        out.extend(self.internal.values().flatten().cloned());
        out.extend(self.stash.dups.values().flatten().cloned());
        out.extend(self.dups.iter().cloned());
        out.extend(self.stash.sinks.values().flatten().cloned());
        out.extend(
            self.sinks
                .values()
                .flat_map(|s| s.anomalies.iter().cloned()),
        );
    }

    /// Move the facts of transactions below `r` and of the `retiring`
    /// keys (sorted) into the stash.
    fn stash(&mut self, r: u32, retiring: &[Key]) {
        let live = self.internal.split_off(&TxnId(r));
        let retired = std::mem::replace(&mut self.internal, live);
        self.stash.internal.extend(retired.into_values().flatten());
        let stash = &mut self.stash;
        self.dups.retain(|a| {
            let k = a.key.expect("duplicate-write anomalies carry their key");
            let gone = retiring.binary_search(&k).is_ok();
            if gone {
                stash.dups.entry(k).or_default().push(a.clone());
            }
            !gone
        });
        for k in retiring {
            if let Some(sink) = self.sinks.remove(k) {
                if !sink.anomalies.is_empty() {
                    stash.sinks.entry(*k).or_default().extend(sink.anomalies);
                }
            }
        }
    }
}

/// Observation coverage (§3): which committed writes were ever
/// observed. The dirty-keys scope maintains the counts in O(delta) —
/// `observed` only grows — with `pairs` counting element-carrying
/// writes by may-have-committed transactions per `(key, elem)`. The
/// all-keys scope counts once, against `observed`, and keeps no `pairs`.
#[derive(Debug, Default)]
struct Coverage {
    observed: FxHashSet<(Key, Elem)>,
    pairs: FxHashMap<(Key, Elem), u32>,
    committed_writes: usize,
    observed_writes: usize,
}

impl Coverage {
    fn add_write(&mut self, key: Key, e: Elem) {
        self.committed_writes += 1;
        *self.pairs.entry((key, e)).or_insert(0) += 1;
        if self.observed.contains(&(key, e)) {
            self.observed_writes += 1;
        }
    }

    fn retract_write(&mut self, key: Key, e: Elem) {
        self.committed_writes -= 1;
        *self.pairs.get_mut(&(key, e)).expect("write was counted") -= 1;
        if self.observed.contains(&(key, e)) {
            self.observed_writes -= 1;
        }
    }

    fn observe(&mut self, key: Key, e: Elem) {
        if self.observed.insert((key, e)) {
            self.observed_writes += *self.pairs.get(&(key, e)).unwrap_or(&0) as usize;
        }
    }

    /// Count every write in `history` against `observed` from scratch,
    /// tracking per-pair multiplicities only if later deltas need them.
    fn count_writes(&mut self, history: &History, track: bool) {
        for t in history.txns() {
            if !t.status.may_have_committed() {
                continue;
            }
            for (_, k, e) in t.elem_writes() {
                if track {
                    self.add_write(k, e);
                } else {
                    self.committed_writes += 1;
                    self.observed_writes += usize::from(self.observed.contains(&(k, e)));
                }
            }
        }
    }
}

/// Flat posting lists (dirty-keys scope): which transactions touch each
/// key, as sorted unique `(key, txn)` pairs. Ingest appends to an
/// unsorted per-epoch `tail` (deduplicated per transaction); each seal
/// sorts the tail once and merges it into `sorted`, from which
/// [`TxnPostings::scope_of`] reads per-key runs — no hash map.
#[derive(Debug, Default)]
struct TxnPostings {
    sorted: Vec<(Key, TxnId)>,
    tail: Vec<(Key, TxnId)>,
}

impl TxnPostings {
    /// Note that `id` touches `key`; `tail_start` is the tail length
    /// when the transaction's first mop arrived, so the linear rescan
    /// deduplicates keys within the transaction (mop counts are small).
    fn note(&mut self, key: Key, id: TxnId, tail_start: usize) {
        if !self.tail[tail_start..].iter().any(|&(k, _)| k == key) {
            self.tail.push((key, id));
        }
    }

    /// Merge the epoch tail into the sorted run (pairs are unique, so
    /// no dedup pass): grow the run and merge backward from its end, so
    /// only the pairs above the tail's least one move.
    fn seal(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.tail.sort_unstable();
        let mut i = self.sorted.len();
        self.sorted.resize(i + self.tail.len(), self.tail[0]);
        let mut w = self.sorted.len();
        while let Some(&t) = self.tail.last() {
            w -= 1;
            if i > 0 && self.sorted[i - 1] > t {
                i -= 1;
                self.sorted[w] = self.sorted[i];
            } else {
                self.sorted[w] = t;
                self.tail.pop();
            }
        }
    }

    /// The run of transactions touching `key`, ascending.
    fn run(&self, key: Key) -> &[(Key, TxnId)] {
        let lo = self.sorted.partition_point(|&(k, _)| k < key);
        let hi = self.sorted.partition_point(|&(k, _)| k <= key);
        &self.sorted[lo..hi]
    }

    /// Each key's first and last toucher, ascending by key.
    fn spans(&self) -> impl Iterator<Item = (Key, u32, u32)> + '_ {
        self.sorted
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run[0].1 .0, run[run.len() - 1].1 .0))
    }

    /// The union of the dirty keys' posting runs, sorted and
    /// deduplicated — the gather scope. A k-way merge over sorted runs;
    /// call after [`TxnPostings::seal`].
    fn scope_of(&self, dirty_sorted: &[Key]) -> Vec<TxnId> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        debug_assert!(self.tail.is_empty(), "scope_of before seal");
        let runs: Vec<&[(Key, TxnId)]> = dirty_sorted
            .iter()
            .map(|&k| self.run(k))
            .filter(|r| !r.is_empty())
            .collect();
        if let [run] = runs.as_slice() {
            return run.iter().map(|&(_, t)| t).collect();
        }
        let mut scope = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
        let mut heap: BinaryHeap<Reverse<(TxnId, usize, usize)>> = runs
            .iter()
            .enumerate()
            .map(|(r, run)| Reverse((run[0].1, r, 0)))
            .collect();
        while let Some(Reverse((t, r, i))) = heap.pop() {
            if scope.last() != Some(&t) {
                scope.push(t);
            }
            if let Some(&(_, next)) = runs[r].get(i + 1) {
                heap.push(Reverse((next, r, i + 1)));
            }
        }
        scope
    }
}

/// Committed intervals sorted by their end, with running maxima of
/// their starts: the one derivation of the real-time and timestamp
/// orders' transitive reductions (§5.1). Only the reduction is
/// materialized, which preserves every cycle.
#[derive(Debug, Default)]
struct IntervalFrontier<T> {
    /// `(end, txn)`, ascending by end.
    ends: Vec<(T, TxnId)>,
    /// Running max of starts over `ends` prefixes, seeded by `seed`.
    prefix_max: Vec<T>,
    /// Max start over entries pruned from the front (windowed mode).
    seed: T,
}

impl<T: Copy + Ord + Default> IntervalFrontier<T> {
    /// Append an interval; `end` must not precede the last one.
    fn push(&mut self, end: T, start: T, id: TxnId) {
        debug_assert!(self.ends.last().is_none_or(|&(e, _)| e <= end));
        let prev = self.prefix_max.last().copied().unwrap_or(self.seed);
        self.ends.push((end, id));
        self.prefix_max.push(prev.max(start));
    }

    /// The reduction's predecessors of an interval starting at `start`:
    /// entries ending before it, at or after every such entry's start —
    /// anything earlier is implied through an interval wholly between.
    fn preds(&self, start: T) -> &[(T, TxnId)] {
        let k = self.ends.partition_point(|&(e, _)| e < start);
        if k == 0 {
            return &[];
        }
        let s = self.prefix_max[k - 1];
        let lo = self.ends.partition_point(|&(e, _)| e < s);
        &self.ends[lo..k]
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ends.len() * size_of::<(T, TxnId)>() + self.prefix_max.len() * size_of::<T>()
    }
}

/// Stamped committed transactions among `ids` as `(commit, start, id)`,
/// sorted by commit.
fn stamped(history: &History, ids: impl Iterator<Item = TxnId>) -> Vec<(u64, u64, TxnId)> {
    let mut out: Vec<(u64, u64, TxnId)> = ids
        .filter_map(|id| history.get(id).timestamps.map(|(s, c)| (c, s, id)))
        .collect();
    out.sort_unstable();
    out
}

/// The derived-order frontiers.
#[derive(Debug, Default)]
struct Orders {
    /// Each process's last committed transaction.
    proc_last: FxHashMap<ProcessId, TxnId>,
    /// Committed transactions' `[invoke, complete]` intervals.
    realtime: IntervalFrontier<usize>,
    /// A restored windowed checker pre-loads the completion frontier
    /// whole: replayed commits completing at or before this index are
    /// already in it and must neither re-push nor re-emit.
    rt_preloaded: Option<usize>,
    /// Stamped committed transactions' `[start, commit]` intervals.
    timestamp: IntervalFrontier<u64>,
    /// Max commit or start timestamp seen: a new commit below it would
    /// change windows already emitted.
    ts_max_seen: u64,
}

/// Session order: link each of `ids` (in order) to its process's
/// previous committed transaction.
fn process_chain(
    last: &mut FxHashMap<ProcessId, TxnId>,
    history: &History,
    ids: &[TxnId],
    emit: &mut impl FnMut(TxnId, TxnId, Witness),
) {
    for &id in ids {
        let process = history.get(id).process;
        if let Some(prev) = last.insert(process, id) {
            emit(prev, id, Witness::Process { process });
        }
    }
}

/// What the window folded out of the graph and the statistics.
#[derive(Debug, Default)]
struct Retired {
    /// Distinct IDSG edges per class whose source was retired, indexed
    /// by `EdgeClass` discriminant.
    edge_counts: [usize; 8],
    mops: usize,
    committed: usize,
    aborted: usize,
    /// Coverage contributions of retired keys, re-applied when a
    /// conflict-driven coverage recount works from the retained history.
    committed_writes: usize,
    observed_writes: usize,
    /// Keys wholly retired, sorted. A later touch *compromises* the
    /// key: its version evidence is gone, so it is excluded from
    /// analysis and marked with a sticky `WindowEvicted` anomaly.
    keys: Vec<Key>,
    /// One marker per compromised key.
    evicted: BTreeMap<Key, Arc<Anomaly>>,
}

/// Everything retirement folded out of the replayable state: what a
/// snapshot must carry beside the retained events. Replay rebuilds the
/// retained window; this restores what the window no longer contains.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RetiredPrefix {
    /// Distinct IDSG edges per class folded out of the graph spine,
    /// indexed by `EdgeClass` discriminant (always 8 entries).
    pub retired_edge_counts: Vec<usize>,
    /// Total micro-ops across retired transactions.
    pub retired_mops: usize,
    /// Committed transactions among the retired prefix.
    pub retired_committed: usize,
    /// Aborted transactions among the retired prefix.
    pub retired_aborted: usize,
    /// Committed element writes folded out of the retired prefix.
    pub retired_committed_writes: usize,
    /// Observed `(key, element)` write pairs folded out of the retired
    /// prefix.
    pub retired_observed_writes: usize,
    /// Max invoke index folded out of the pruned realtime-completion
    /// prefix.
    pub rt_seed_max: usize,
    /// The realtime completion frontier, `(complete index, txn id)` —
    /// carried whole because retired entries can still bound retained
    /// transactions' interval-order windows.
    pub rt_completes: Vec<(usize, u32)>,
    /// Running max of invoke indices over `rt_completes` prefixes
    /// (seeded: includes pruned entries' contributions).
    pub rt_prefix_max_invoke: Vec<usize>,
    /// Per-process last committed transaction where that transaction is
    /// retired (retained ones are rebuilt by replay).
    pub proc_last_retired: Vec<(u32, u32)>,
    /// Keys wholly retired from the window, sorted.
    pub retired_keys: Vec<Key>,
    /// Type bitmasks of retired keys (their evidence is gone from the
    /// history, but partitions and conflict warnings must not change).
    pub retired_key_masks: Vec<(Key, u8)>,
    /// Sticky `WindowEvicted` markers for compromised keys.
    pub evicted: Vec<(Key, Anomaly)>,
    /// Retired anomaly stashes: list, register, set, counter.
    pub stashes: Vec<DtStashCarry>,
}

/// One seal's outcome.
#[derive(Debug)]
pub struct Sealed {
    /// The verdict on everything analyzed so far.
    pub report: Report,
    /// Per-stage wall-clock breakdown, with the core gauges filled.
    pub timings: StageTimings,
    /// Whether the graph was rebuilt from the cached per-key results
    /// (a retraction, a reassigned key datatype, or out-of-order commit
    /// timestamps) instead of taking the delta.
    pub rebuilt: bool,
    /// Keys re-analyzed by this seal.
    pub dirty_keys: usize,
    /// Transactions the scoped gathers walked.
    pub scoped_txns: usize,
    /// Dirty keys whose seal walked only the epoch's own transactions:
    /// clean list-append keys extended from their cached result, and
    /// keys no earlier transaction touched.
    pub extended_keys: usize,
}

/// Per-seal working state threaded through the stages.
#[derive(Debug, Default)]
struct SealState {
    /// The dirty keys, sorted; `None` for the all-keys scope.
    dirty: Option<Vec<Key>>,
    dirty_keys: usize,
    scoped_txns: usize,
    extended_keys: usize,
    gather: GatherStats,
}

/// The analysis state: indexes, per-datatype caches, coverage, the
/// carried graph, the derived-order frontiers and the running
/// statistics. See the module docs for the stage sequence.
#[derive(Debug)]
pub struct Analysis {
    opts: CheckOptions,
    scope: Scope,
    kt: KeyTypes,
    elems: ElemIndex,
    postings: TxnPostings,
    /// One per datatype, in [`PASSES`] order.
    caches: [DtCache; 4],
    /// The datatype each cached key was last analyzed under, to detect
    /// (rare, conflict-driven) reassignment.
    assigned: FxHashMap<Key, DataType>,
    coverage: Coverage,
    /// The carried graph: sealed sorted spine plus the pending delta.
    deps: DepGraph,
    orders: Orders,
    mops: usize,
    committed: usize,
    aborted: usize,
    /// Transactions new or changed since the last seal.
    delta_txns: Vec<TxnId>,
    /// The first transaction id of the current epoch: ids below it
    /// existed at the last seal.
    epoch_start: u32,
    /// Transactions committed since the last seal, in arrival order.
    newly_committed: Vec<TxnId>,
    needs_rebuild: bool,
    key_types_changed: bool,
    /// Smallest member of any cyclic SCC of the last sealed graph.
    cyclic_floor: Option<u32>,
    retired: Retired,
    /// The cached per-key results' share of
    /// [`Analysis::resident_bytes`], summed where they change: at each
    /// seal and retirement.
    sink_bytes: usize,
}

/// The all-keys scope: analyze a whole history in one seal, building
/// the indexes in bulk. The analysis lives only for this call, so it
/// is sealed exactly once.
pub fn check(opts: CheckOptions, history: &History) -> Sealed {
    Analysis::new(opts, Scope::AllKeys).seal(history)
}

/// The inference half of [`check`]: the all-keys stages up to edge
/// build, returning the IDSG.
pub fn infer(opts: CheckOptions, history: &History) -> DepGraph {
    let mut a = Analysis::new(opts, Scope::AllKeys);
    a.infer_stages(history, &mut StageTimings::default());
    a.deps
}

impl Analysis {
    fn new(opts: CheckOptions, scope: Scope) -> Analysis {
        Analysis {
            opts,
            scope,
            kt: KeyTypes::new(),
            elems: ElemIndex::new(),
            postings: TxnPostings::default(),
            caches: Default::default(),
            assigned: FxHashMap::default(),
            coverage: Coverage::default(),
            deps: DepGraph::with_txns(0),
            orders: Orders::default(),
            mops: 0,
            committed: 0,
            aborted: 0,
            delta_txns: Vec::new(),
            epoch_start: 0,
            newly_committed: Vec::new(),
            needs_rebuild: false,
            key_types_changed: false,
            cyclic_floor: None,
            retired: Retired::default(),
            sink_bytes: 0,
        }
    }

    /// The dirty-keys scope: feed transactions through the `note_*`
    /// hooks as they arrive, and seal whenever a verdict is due.
    pub fn incremental(opts: CheckOptions) -> Analysis {
        Analysis::new(opts, Scope::DirtyKeys)
    }

    // ── Ingest hooks (dirty-keys scope). ─────────────────────────────

    fn index_new(&mut self, t: &Transaction) {
        self.kt.note_txn(t);
        // Stamps each write with the transaction's current status.
        self.elems.index_txn(t);
        self.mops += t.mops.len();
        let tail_start = self.postings.tail.len();
        for m in &t.mops {
            self.postings.note(m.key(), t.id, tail_start);
        }
        self.delta_txns.push(t.id);
    }

    fn tally(&mut self, t: &Transaction) {
        match t.status {
            TxnStatus::Committed => {
                self.committed += 1;
                self.newly_committed.push(t.id);
            }
            TxnStatus::Aborted => self.aborted += 1,
            TxnStatus::Indeterminate => {}
        }
    }

    /// A transaction was invoked. Its writes count toward coverage
    /// until an abort proves it never committed (batch counts
    /// indeterminate writers the same way).
    pub fn note_invoked(&mut self, t: &Transaction) {
        self.index_new(t);
        for (_, k, e) in t.elem_writes() {
            self.coverage.add_write(k, e);
        }
    }

    /// A previously invoked transaction completed.
    pub fn note_completed(&mut self, t: &Transaction) {
        self.kt.note_txn(t);
        self.elems.update_status(t);
        self.delta_txns.push(t.id);
        self.tally(t);
        if t.status == TxnStatus::Aborted {
            for (_, k, e) in t.elem_writes() {
                self.coverage.retract_write(k, e);
            }
        }
    }

    /// An orphan completion was adopted: a transaction born completed.
    pub fn note_adopted(&mut self, t: &Transaction) {
        self.index_new(t);
        self.tally(t);
        if t.status.may_have_committed() {
            for (_, k, e) in t.elem_writes() {
                self.coverage.add_write(k, e);
            }
        }
    }

    // ── The stage sequence. ───────────────────────────────────────────

    /// Run every stage and report on everything analyzed so far.
    pub fn seal(&mut self, history: &History) -> Sealed {
        let mut timings = StageTimings::default();
        let (seal, rebuilt) = self.infer_stages(history, &mut timings);
        let mut clock = Instant::now();
        let csr = self.deps.freeze();
        clock = timings.record("freeze", clock);
        let cycles = self.search(history, &csr);
        drop(csr);
        clock = timings.record("cycle search", clock);
        let report = self.report(history, cycles);
        timings.record("report assembly", clock);
        timings.pool_peak = crate::pool::take_peak_bytes();
        self.sink_bytes = self.sum_sink_bytes();
        Sealed {
            report,
            timings,
            rebuilt,
            dirty_keys: seal.dirty_keys,
            scoped_txns: seal.scoped_txns,
            extended_keys: seal.extended_keys,
        }
    }

    /// Keys with cached per-key results.
    pub fn cached_keys(&self) -> usize {
        self.caches.iter().map(|c| c.sinks.len()).sum()
    }

    /// Start the current epoch at transaction id `first`: a restored
    /// checker's epoch began before the replayed events did.
    pub fn resume_epoch(&mut self, first: u32) {
        self.epoch_start = first;
    }

    /// Re-run the list-append analysis over the full posting list of
    /// every cached list key and compare the result with the cache:
    /// edges as a multiset, observed elements, anomalies and the
    /// summary. The reference the seal's extension path is tested
    /// against; call it after a seal, before more events arrive.
    #[doc(hidden)]
    pub fn recheck_list_cache(&self, history: &History) -> Result<(), String> {
        // `PASSES[0]` is the list pass.
        let sinks = &self.caches[0].sinks;
        if self.scope == Scope::AllKeys || sinks.is_empty() {
            return Ok(());
        }
        let keys: Vec<Key> = sinks.keys().copied().collect();
        let scope = self.postings.scope_of(&keys);
        let cx = AnalysisCtx {
            history,
            elems: &self.elems,
            keys: KeySlots::from_sorted(keys),
            config: (),
            scope: Some(&scope),
        };
        let (_, poisoned) = datatype::duplicates::<ListAppend, _>(&cx);
        let (pairs, _) =
            datatype::analyze_keys::<ListAppend>(&cx, &poisoned, Parallelism::Sequential);
        if pairs.len() != sinks.len() {
            return Err(format!(
                "{} cached list keys, {} re-derived",
                sinks.len(),
                pairs.len()
            ));
        }
        let sorted = |edges: &[Edge]| {
            let mut v = edges.to_vec();
            v.sort_unstable();
            v
        };
        let tips_sorted = |s: &Option<ListSummary>| {
            s.clone().map(|mut s| {
                s.tip_readers.sort_unstable();
                s
            })
        };
        for ((key, fresh), (cached_key, cached)) in pairs.iter().zip(sinks) {
            let diverges = if key != cached_key {
                Some("keys")
            } else if sorted(&fresh.edges) != sorted(&cached.edges) {
                Some("edges")
            } else if fresh.observed_elems != cached.observed_elems {
                Some("observed elements")
            } else if !fresh
                .anomalies
                .iter()
                .eq(cached.anomalies.iter().map(|a| &**a))
            {
                Some("anomalies")
            } else if tips_sorted(&fresh.summary) != tips_sorted(&cached.summary) {
                Some("summaries")
            } else {
                None
            };
            if let Some(what) = diverges {
                return Err(format!(
                    "key {key}: cached {what} differ from a re-analysis of its posting list"
                ));
            }
        }
        Ok(())
    }

    /// Stages 1–5: index, datatype inference, derived orders, graph
    /// delta, edge build. Returns the seal's working state and whether
    /// the graph was rebuilt.
    fn infer_stages(&mut self, history: &History, t: &mut StageTimings) -> (SealState, bool) {
        let mut clock = Instant::now();
        let mut seal = self.index(history);
        clock = t.record(
            match self.scope {
                Scope::AllKeys => "key typing + element index",
                Scope::DirtyKeys => "delta bookkeeping",
            },
            clock,
        );

        for (i, pass) in PASSES.iter().enumerate() {
            pass(self, history, i, &mut seal);
        }
        self.settle_coverage(history);
        // The gather scans ran inside the datatype passes; split their
        // share out so both stages read true.
        t.stages.push(("gather".to_string(), seal.gather.secs));
        t.stages.push((
            "datatype inference".to_string(),
            (clock.elapsed().as_secs_f64() - seal.gather.secs).max(0.0),
        ));
        t.gather_buf_peak = seal.gather.buf_bytes;
        clock = Instant::now();

        self.derive_orders(history);
        clock = t.record("derived orders", clock);
        let rebuilt = self.graph_delta(history);
        clock = t.record("graph delta", clock);
        self.deps.build();
        t.edge_buf_peak = self.deps.take_edge_buf_peak();
        t.record("edge build", clock);

        // The epoch delta is consumed.
        self.delta_txns = Vec::new();
        self.epoch_start = history.len() as u32;
        self.needs_rebuild = false;
        self.key_types_changed = false;
        (seal, rebuilt)
    }

    /// Stage 1: bulk indexes (all keys) or the dirty-key set.
    fn index(&mut self, history: &History) -> SealState {
        if self.scope == Scope::AllKeys {
            self.kt = KeyTypes::infer(history);
            self.elems = ElemIndex::build(history);
            self.coverage.observed.reserve(self.elems.len());
            self.mops = history.mop_count();
            for t in history.txns() {
                self.tally(t);
            }
            return SealState::default();
        }
        self.delta_txns.sort_unstable();
        self.delta_txns.dedup();
        self.postings.seal();
        let mut dirty: Vec<Key> = self
            .delta_txns
            .iter()
            .flat_map(|id| history.get(*id).mops.iter().map(Mop::key))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        // Compromised keys: retired keys re-touched by the live stream.
        // Re-analysis could fabricate anomalies (every old writer looks
        // missing), so they leave the dirty set and get a marker.
        let retired = &mut self.retired;
        if !retired.keys.is_empty() {
            dirty.retain(|&k| {
                let gone = retired.keys.binary_search(&k).is_ok();
                if gone {
                    retired
                        .evicted
                        .entry(k)
                        .or_insert_with(|| Arc::new(window_evicted_anomaly(k)));
                }
                !gone
            });
        }
        // Datatype reassignment (conflicted keys): evict stale results
        // and force the rebuild path — per-transaction caches keyed on
        // the old partition are stale too.
        for &k in &dirty {
            let now = self.kt.get(k);
            if self.assigned.get(&k).is_some_and(|prev| Some(*prev) != now) {
                self.key_types_changed = true;
                self.needs_rebuild = true;
                for cache in &mut self.caches {
                    cache.sinks.remove(&k);
                }
            }
            if let Some(ty) = now {
                self.assigned.insert(k, ty);
            }
        }
        SealState {
            dirty: Some(dirty),
            ..SealState::default()
        }
    }

    /// Stage 2, for one datatype: the internal pass over the delta, the
    /// duplicate pass over the datatype's keys, then gather and per-key
    /// analysis over the scoped keys.
    fn refresh<D: DatatypeAnalysis>(
        &mut self,
        history: &History,
        slot: usize,
        config: D::Config,
        seal: &mut SealState,
    ) {
        let cache = &mut self.caches[slot];
        let keys = self.kt.keys_of(D::DATATYPE);
        if keys.is_empty() {
            // Nothing of this datatype (any results moved with their
            // keys when those changed datatype).
            cache.internal.clear();
            cache.dups.clear();
            return;
        }
        // Everything after a key changed datatype: the partition moved.
        let full = self.scope == Scope::AllKeys || self.key_types_changed;
        if full {
            cache.internal.clear();
        } else {
            for id in &self.delta_txns {
                cache.internal.remove(id);
            }
        }
        let cx = AnalysisCtx {
            history,
            elems: &self.elems,
            keys: KeySlots::from_sorted(keys),
            config,
            scope: (!full).then_some(&self.delta_txns[..]),
        };
        for a in datatype::internal_anomalies::<D>(&cx) {
            cache
                .internal
                .entry(a.txns[0])
                .or_default()
                .push(Arc::new(a));
        }
        let (dups, poisoned) = datatype::duplicates::<D, _>(&cx);
        cache.dups = intern(dups);

        let posted: Vec<TxnId>;
        let cx = match &seal.dirty {
            None => AnalysisCtx { scope: None, ..cx },
            Some(dirty) => {
                let mut mine: Vec<Key> = dirty
                    .iter()
                    .copied()
                    .filter(|k| cx.keys.contains(*k))
                    .collect();
                if D::DATATYPE == DataType::List {
                    let delta = &self.delta_txns;
                    let changed = &delta[..delta.partition_point(|id| id.0 < self.epoch_start)];
                    let (clean, rest) =
                        split_extendable(history, &cache.sinks, changed, mine, &poisoned);
                    mine = rest;
                    for (key, ext) in
                        extend_lists(history, &self.elems, delta, &cache.sinks, clean, seal)
                    {
                        let Some(ext) = ext else {
                            mine.push(key);
                            continue;
                        };
                        for &e in &ext.tail {
                            self.coverage.observe(key, e);
                        }
                        for (a, b, w) in &ext.edges {
                            self.deps.add(*a, *b, w.clone());
                        }
                        let sink = cache.sinks.get_mut(&key).expect("extended keys are cached");
                        sink.edges.extend(ext.edges);
                        sink.observed_elems.extend(ext.tail);
                        sink.summary = Some(ext.summary);
                        seal.dirty_keys += 1;
                        seal.extended_keys += 1;
                    }
                    mine.sort_unstable();
                }
                // A key no earlier transaction touched walks only the
                // epoch's own transactions too.
                seal.extended_keys += mine
                    .iter()
                    .filter(|&&k| {
                        let run = self.postings.run(k);
                        run.first().is_some_and(|&(_, t)| t.0 >= self.epoch_start)
                    })
                    .count();
                posted = self.postings.scope_of(&mine);
                seal.scoped_txns += posted.len();
                AnalysisCtx {
                    keys: KeySlots::from_sorted(mine),
                    scope: Some(&posted),
                    ..cx
                }
            }
        };
        seal.dirty_keys += cx.keys.len();
        if cx.keys.is_empty() {
            return;
        }
        let (pairs, gather) = datatype::analyze_keys::<D>(&cx, &poisoned, Parallelism::Auto);
        seal.gather.absorb(gather);
        for (key, sink) in pairs {
            for &e in &sink.observed_elems {
                self.coverage.observe(key, e);
            }
            let KeySink {
                anomalies,
                edges,
                observed_elems,
                summary,
                ..
            } = sink;
            let anomalies = intern(anomalies);
            if self.scope == Scope::AllKeys {
                self.deps.reserve_edges(edges.len());
                for (a, b, w) in edges {
                    self.deps.add(a, b, w);
                }
                if !anomalies.is_empty() {
                    let sink = CachedSink {
                        anomalies,
                        edges: Vec::new(),
                        observed_elems: Vec::new(),
                        summary: None,
                    };
                    cache.sinks.insert(key, sink);
                }
                continue;
            }
            // Pure growth pushes just the delta; any retraction voids
            // the carried graph.
            let old = cache.sinks.get(&key).map_or(&[][..], |s| &s.edges[..]);
            match edge_delta(old, &edges) {
                Some(delta) => {
                    for (a, b, w) in delta {
                        self.deps.add(a, b, w);
                    }
                }
                None => self.needs_rebuild = true,
            }
            let sink = CachedSink {
                anomalies,
                edges,
                observed_elems,
                summary,
            };
            cache.sinks.insert(key, sink);
        }
    }

    /// Finish stage 2's coverage: count the writes once (all keys), or
    /// recount after a key changed datatype — its old contribution to
    /// the observed set is stale, so rebuild it from the refreshed
    /// results (a rare, conflict-driven path).
    fn settle_coverage(&mut self, history: &History) {
        if self.scope == Scope::AllKeys {
            self.coverage.count_writes(history, false);
        } else if self.key_types_changed {
            self.coverage = Coverage::default();
            for cache in &self.caches {
                for (key, sink) in &cache.sinks {
                    for &e in &sink.observed_elems {
                        self.coverage.observed.insert((*key, e));
                    }
                }
            }
            self.coverage.count_writes(history, true);
            // Retired transactions are gone from the history.
            self.coverage.committed_writes += self.retired.committed_writes;
            self.coverage.observed_writes += self.retired.observed_writes;
        }
    }

    /// Stage 3: fold the newly committed transactions into the order
    /// frontiers and emit their edges.
    fn derive_orders(&mut self, history: &History) {
        let base = history.base();
        let newly = std::mem::take(&mut self.newly_committed);
        let mut boundary = [0usize; 8];
        let deps = &mut self.deps;
        // An order edge whose source was retired crosses the window
        // boundary: batch counts it, but adding it to the carried graph
        // would resurrect a retired vertex — fold it into the retired
        // edge counts instead. (Boundary edges are id-forward and
        // freshly targeted, hence distinct.)
        let mut emit = |a: TxnId, b: TxnId, w: Witness| {
            if a.0 < base {
                boundary[w.class() as usize] += 1;
            } else {
                deps.add(a, b, w);
            }
        };
        let o = &mut self.orders;
        if self.opts.process_edges {
            process_chain(&mut o.proc_last, history, &newly, &mut emit);
        }
        if self.opts.realtime_edges {
            // A commit with no recorded completion (a history file may
            // omit it) has real-time predecessors but is never one.
            let mut fresh: Vec<(Option<usize>, usize, TxnId)> = newly
                .iter()
                .map(|&id| {
                    let t = history.get(id);
                    (t.complete_index, t.invoke_index, id)
                })
                .filter(|&(c, _, _)| c.zip(o.rt_preloaded).is_none_or(|(c, p)| c > p))
                .collect();
            fresh.sort_unstable();
            for &(complete, invoke, id) in &fresh {
                if let Some(complete) = complete {
                    o.realtime.push(complete, invoke, id);
                }
            }
            // Completion indices are monotone, so later entries never
            // enter an earlier window: emitting against the extended
            // frontier equals emitting at each commit.
            for &(_, invoke, id) in &fresh {
                for &(complete, a) in o.realtime.preds(invoke) {
                    emit(a, id, Witness::Realtime { complete, invoke });
                }
            }
        }
        if self.opts.timestamp_edges {
            let batch = stamped(history, newly.iter().copied());
            let in_order = batch.first().is_none_or(|&(c, _, _)| c >= o.ts_max_seen);
            for &(commit, start, _) in &batch {
                o.ts_max_seen = o.ts_max_seen.max(commit).max(start);
            }
            if in_order {
                for &(commit, start, id) in &batch {
                    o.timestamp.push(commit, start, id);
                }
                for &(_, start, id) in &batch {
                    for &(commit, a) in o.timestamp.preds(start) {
                        emit(a, id, Witness::Timestamp { commit, start });
                    }
                }
            } else {
                // Out-of-order logical clocks: windows emitted earlier
                // may be stale — re-sort the frontier and rebuild.
                o.timestamp = IntervalFrontier::default();
                let ids = history.committed().map(|t| t.id);
                for (commit, start, id) in stamped(history, ids) {
                    o.timestamp.push(commit, start, id);
                }
                self.needs_rebuild = true;
            }
        }
        for (c, n) in boundary.into_iter().enumerate() {
            self.retired.edge_counts[c] += n;
        }
    }

    /// Re-derive every retained committed transaction's order edges
    /// from the frontiers into `deps`, skipping retired sources (their
    /// edges were counted when first derived).
    fn rederive_orders(&self, history: &History, deps: &mut DepGraph) {
        let base = history.base();
        let mut emit = |a: TxnId, b: TxnId, w: Witness| {
            if a.0 >= base {
                deps.add(a, b, w);
            }
        };
        let committed: Vec<TxnId> = history.committed().map(|t| t.id).collect();
        if self.opts.process_edges {
            process_chain(&mut FxHashMap::default(), history, &committed, &mut emit);
        }
        if self.opts.realtime_edges {
            for &id in &committed {
                let invoke = history.get(id).invoke_index;
                for &(complete, a) in self.orders.realtime.preds(invoke) {
                    emit(a, id, Witness::Realtime { complete, invoke });
                }
            }
        }
        if self.opts.timestamp_edges {
            for (_, start, id) in stamped(history, committed.into_iter()) {
                for &(commit, a) in self.orders.timestamp.preds(start) {
                    emit(a, id, Witness::Timestamp { commit, start });
                }
            }
        }
    }

    /// Stage 4: the delta is already pending in the carried graph;
    /// after a retraction, rebuild the graph from the cached per-key
    /// results and the frontiers instead.
    fn graph_delta(&mut self, history: &History) -> bool {
        let rebuilt = self.needs_rebuild;
        if rebuilt {
            let mut deps = DepGraph::with_txns(history.len());
            for sink in self.caches.iter().flat_map(|c| c.sinks.values()) {
                deps.reserve_edges(sink.edges.len());
                for (a, b, w) in &sink.edges {
                    deps.add(*a, *b, w.clone());
                }
            }
            self.rederive_orders(history, &mut deps);
            self.deps = deps;
        }
        self.deps.ensure_txns(history.len());
        rebuilt
    }

    /// Stage 7: the certificate-gated cycle search. The graph holds
    /// only classes the search admits, so the certificate's SCCs are
    /// the SCCs of the whole graph — remembered for the window clamp.
    fn search(&mut self, history: &History, csr: &Csr) -> Vec<Anomaly> {
        let opts = CycleSearchOptions {
            process_edges: self.opts.process_edges,
            realtime_edges: self.opts.realtime_edges,
            timestamp_edges: self.opts.timestamp_edges,
            max_per_type: self.opts.max_cycles_per_type,
            certificate: true,
        };
        debug_assert!({
            let top = cycle_search::admitted(opts);
            self.deps.edges().all(|(_, _, m)| m.0 & !top.0 == 0)
        });
        let (cycles, sccs) = cycle_search::search(&self.deps, csr, history, opts);
        self.cyclic_floor = sccs.iter().flatten().min().copied();
        cycles
    }

    /// Stage 8: assemble the report in batch order.
    fn report(&mut self, history: &History, cycles: Vec<Anomaly>) -> Report {
        let mut anomalies: Vec<Arc<Anomaly>> = Vec::new();
        for cache in &self.caches {
            cache.extend_report(&mut anomalies);
        }
        anomalies.extend(self.retired.evicted.values().cloned());
        anomalies.extend(intern(cycles));
        self.deps.set_extra_counts(self.retired.edge_counts);
        assemble_report(
            self.opts.expected,
            anomalies,
            &self.deps,
            self.stats(history.len()),
            self.warnings(),
        )
    }

    fn stats(&self, txns: usize) -> CheckStats {
        CheckStats {
            txns,
            mops: self.mops,
            committed: self.committed,
            aborted: self.aborted,
            indeterminate: txns - self.committed - self.aborted,
            edges: BTreeMap::new(), // filled by assemble_report
            committed_writes: self.coverage.committed_writes,
            observed_writes: self.coverage.observed_writes,
        }
    }

    fn warnings(&self) -> Vec<String> {
        self.kt
            .conflicts
            .iter()
            .map(|k| {
                format!("key {k} is used as more than one datatype; its inferences are unreliable")
            })
            .collect()
    }

    /// The placeholder verdict for a seal that panicked: statistics
    /// only, no anomalies, and `warning` explaining why.
    pub fn placeholder_report(&self, txns: usize, warning: String) -> Report {
        assemble_report(
            self.opts.expected,
            Vec::new(),
            &DepGraph::with_txns(0),
            self.stats(txns),
            vec![warning],
        )
    }

    // ── Windowed retirement (dirty-keys scope). ──────────────────────

    /// The smallest member of any cyclic SCC in the last sealed graph:
    /// reported cycles must keep reporting, so nothing at or above it
    /// may retire.
    pub fn cyclic_floor(&self) -> Option<u32> {
        self.cyclic_floor
    }

    /// Each key's first and last toucher (as of the last seal),
    /// ascending by key.
    pub fn key_spans(&self) -> impl Iterator<Item = (Key, u32, u32)> + '_ {
        self.postings.spans()
    }

    /// Whether no retired key was ever touched again.
    pub fn exact(&self) -> bool {
        self.retired.evicted.is_empty()
    }

    /// Retire the prefix `[history.base(), r)`: fold its facts into
    /// summaries and drop its state from every index. The caller
    /// advances the history's base afterwards, and must have clamped
    /// `r` so every key lies wholly on one side of it and no cyclic SCC
    /// or open invocation lies below it. `min_open_invoke` is the
    /// smallest invoke index among open invocations.
    pub fn retire(&mut self, history: &History, r: u32, min_open_invoke: usize) {
        let old_base = history.base();
        debug_assert!(r > old_base);
        for t in &history.txns()[..(r - old_base) as usize] {
            self.retired.mops += t.mops.len();
            match t.status {
                TxnStatus::Committed => self.retired.committed += 1,
                TxnStatus::Aborted => self.retired.aborted += 1,
                TxnStatus::Indeterminate => {}
            }
        }
        let retiring: Vec<Key> = self
            .postings
            .spans()
            .filter(|&(_, _, last)| last < r)
            .map(|(k, _, _)| k)
            .collect();
        for cache in &mut self.caches {
            cache.stash(r, &retiring);
        }

        // Fold the retiring keys' coverage into scalars; the live
        // totals are unchanged.
        let gone = |k: &Key| retiring.binary_search(k).is_ok();
        let (mut committed, mut observed) = (0usize, 0usize);
        let seen = &self.coverage.observed;
        self.coverage.pairs.retain(|&(k, e), c| {
            if !gone(&k) {
                return true;
            }
            committed += *c as usize;
            if seen.contains(&(k, e)) {
                observed += *c as usize;
            }
            false
        });
        self.coverage.observed.retain(|(k, _)| !gone(k));
        self.retired.committed_writes += committed;
        self.retired.observed_writes += observed;

        self.elems.retire_keys(&retiring);
        self.postings.sorted.retain(|(k, _)| !gone(k));
        for k in &retiring {
            self.assigned.remove(k);
        }
        let dropped = self.deps.retire_below(r);
        for (c, d) in dropped.into_iter().enumerate() {
            self.retired.edge_counts[c] += d;
        }

        // Prune the completion frontier's prefix that no future window
        // can reach and whose entries retired. Surviving prefix maxima
        // cover the full original array; the seed covers the rest.
        let rt = &mut self.orders.realtime;
        if !rt.ends.is_empty() {
            let j = rt.ends.partition_point(|&(c, _)| c < min_open_invoke);
            let s_star = if j > 0 { rt.prefix_max[j - 1] } else { 0 };
            let p = rt
                .ends
                .iter()
                .take_while(|&&(c, id)| c < s_star && id.0 < r)
                .count();
            if p > 0 {
                rt.seed = rt.seed.max(rt.prefix_max[p - 1]);
                rt.ends.drain(..p);
                rt.prefix_max.drain(..p);
            }
        }

        let keys = &mut self.retired.keys;
        keys.extend(retiring);
        keys.sort_unstable();
        keys.dedup();
        self.sink_bytes = self.sum_sink_bytes();
    }

    /// A deterministic estimate of the resident state, in bytes:
    /// length-based, never capacity-based, so identical streams report
    /// identical gauges. O(1), so a caller may meter every event.
    pub fn resident_bytes(&self) -> usize {
        self.non_sink_bytes(self.elems.resident_bytes()) + self.sink_bytes
    }

    /// [`Analysis::resident_bytes`], recounted from every cached
    /// per-key result and index slab: the reference the running totals
    /// are tested against.
    #[doc(hidden)]
    pub fn recount_resident_bytes(&self) -> usize {
        self.non_sink_bytes(self.elems.recount_resident_bytes()) + self.sum_sink_bytes()
    }

    /// Everything but the per-key results, given the element index's
    /// share.
    fn non_sink_bytes(&self, elems: usize) -> usize {
        use std::mem::size_of;
        self.postings.sorted.len() * size_of::<(Key, TxnId)>()
            + elems
            + self.deps.resident_bytes()
            + (self.coverage.pairs.len() + self.coverage.observed.len()) * size_of::<(Key, Elem)>()
            + self.orders.realtime.resident_bytes()
            + self.orders.timestamp.resident_bytes()
    }

    fn sum_sink_bytes(&self) -> usize {
        use std::mem::size_of;
        self.caches
            .iter()
            .flat_map(|c| c.sinks.values())
            .map(|sink| {
                sink.edges.len() * size_of::<Edge>()
                    + sink.observed_elems.len() * size_of::<Elem>()
                    + sink.anomalies.len() * size_of::<Arc<Anomaly>>()
            })
            .sum()
    }

    /// Capture what retirement folded out of the state, for a
    /// snapshot whose history starts at `base`.
    pub fn retired_prefix(&self, base: u32) -> RetiredPrefix {
        let r = &self.retired;
        let rt = &self.orders.realtime;
        let mut proc_last_retired: Vec<(u32, u32)> = self
            .orders
            .proc_last
            .iter()
            .filter(|&(_, id)| id.0 < base)
            .map(|(&p, &id)| (p.0, id.0))
            .collect();
        proc_last_retired.sort_unstable();
        RetiredPrefix {
            retired_edge_counts: r.edge_counts.to_vec(),
            retired_mops: r.mops,
            retired_committed: r.committed,
            retired_aborted: r.aborted,
            retired_committed_writes: r.committed_writes,
            retired_observed_writes: r.observed_writes,
            rt_seed_max: rt.seed,
            rt_completes: rt.ends.iter().map(|&(c, id)| (c, id.0)).collect(),
            rt_prefix_max_invoke: rt.prefix_max.clone(),
            proc_last_retired,
            retired_keys: r.keys.clone(),
            retired_key_masks: r.keys.iter().map(|&k| (k, self.kt.mask_of(k))).collect(),
            evicted: r.evicted.iter().map(|(k, a)| (*k, (**a).clone())).collect(),
            stashes: self.caches.iter().map(|c| c.stash.carry()).collect(),
        }
    }

    /// Restore, before replaying a snapshot's events, the frontiers the
    /// replay must extend: the completion frontier (whole — retired
    /// entries still bound retained windows), the retired processes'
    /// chain tails, and the retired keys' type masks.
    pub fn preload(&mut self, p: &RetiredPrefix) {
        let rt = &mut self.orders.realtime;
        rt.seed = p.rt_seed_max;
        rt.ends = p
            .rt_completes
            .iter()
            .map(|&(c, id)| (c, TxnId(id)))
            .collect();
        rt.prefix_max = p.rt_prefix_max_invoke.clone();
        self.orders.rt_preloaded = rt.ends.last().map(|&(c, _)| c);
        for &(proc, id) in &p.proc_last_retired {
            self.orders.proc_last.insert(ProcessId(proc), TxnId(id));
        }
        for &(k, mask) in &p.retired_key_masks {
            self.kt.preload_mask(k, mask);
        }
    }

    /// Restore, after the replay, the retired facts the replay cannot
    /// know. The next seal rebuilds: replayed commits' order edges come
    /// from the carried frontiers.
    pub fn restore_retired(&mut self, p: &RetiredPrefix) {
        for (slot, v) in self
            .retired
            .edge_counts
            .iter_mut()
            .zip(&p.retired_edge_counts)
        {
            *slot = *v;
        }
        let r = &mut self.retired;
        r.mops = p.retired_mops;
        r.committed = p.retired_committed;
        r.aborted = p.retired_aborted;
        r.committed_writes = p.retired_committed_writes;
        r.observed_writes = p.retired_observed_writes;
        r.keys = p.retired_keys.clone();
        r.evicted = p
            .evicted
            .iter()
            .map(|(k, a)| (*k, Arc::new(a.clone())))
            .collect();
        self.mops += r.mops;
        self.committed += r.committed;
        self.aborted += r.aborted;
        self.coverage.committed_writes += r.committed_writes;
        self.coverage.observed_writes += r.observed_writes;
        if p.stashes.len() == self.caches.len() {
            for (cache, carry) in self.caches.iter_mut().zip(&p.stashes) {
                cache.stash = Stash::from_carry(carry);
            }
        }
        self.needs_rebuild = true;
    }
}

/// The sticky indeterminacy marker for a compromised key: evidence the
/// live stream now needs was retired from the window. It violates no
/// isolation model — it flags that anomalies needing the evicted
/// history can neither be confirmed nor ruled out for this key.
fn window_evicted_anomaly(k: Key) -> Anomaly {
    Anomaly {
        typ: AnomalyType::WindowEvicted,
        txns: Vec::new(),
        key: Some(k),
        steps: Vec::new(),
        explanation: format!(
            "key {k} was touched after its version evidence was retired from the \
             window; anomalies that would need the evicted history are \
             indeterminate for this key"
        ),
    }
}

/// Split a seal's dirty list keys into those it may extend from their
/// cached result and the rest, both ascending. A key is extendable when
/// its cached result is clean (it has a summary), no write-level
/// duplicate poisons it, and none of the `changed` transactions (which
/// existed at the last seal and completed since) wrote an element its
/// cached spine holds: that writer's status is stale in the cache.
fn split_extendable(
    history: &History,
    sinks: &BTreeMap<Key, CachedSink>,
    changed: &[TxnId],
    dirty: Vec<Key>,
    poisoned: &FxHashSet<Key>,
) -> (Vec<Key>, Vec<Key>) {
    let clean = |k: &Key| sinks.get(k).filter(|s| s.summary.is_some());
    let mut stale: Vec<Key> = Vec::new();
    for &id in changed {
        for (_, k, e) in history.get(id).elem_writes() {
            if clean(&k).is_some_and(|s| s.observed_elems.contains(&e)) {
                stale.push(k);
            }
        }
    }
    dirty
        .into_iter()
        .partition(|k| clean(k).is_some() && !poisoned.contains(k) && !stale.contains(k))
}

/// Extend each of the `clean` keys (from [`split_extendable`]) with the
/// epoch's reads of it: one gather over the epoch's transactions that
/// touch them, then [`list_append::extend_key`] per key. `None` sends a
/// key back to the full analysis over its posting list.
fn extend_lists(
    history: &History,
    elems: &ElemIndex,
    delta: &[TxnId],
    sinks: &BTreeMap<Key, CachedSink>,
    clean: Vec<Key>,
    seal: &mut SealState,
) -> Vec<(Key, Option<list_append::Extension>)> {
    if clean.is_empty() {
        return Vec::new();
    }
    let keys = KeySlots::from_sorted(clean);
    let scope: Vec<TxnId> = delta
        .iter()
        .copied()
        .filter(|&id| history.get(id).mops.iter().any(|m| keys.contains(m.key())))
        .collect();
    seal.scoped_txns += scope.len();
    let cx = AnalysisCtx {
        history,
        elems,
        keys,
        config: (),
        scope: Some(&scope),
    };
    let (appends, grouped, gather) = datatype::gather_runs::<ListAppend>(&cx);
    seal.gather.absorb(gather);
    (0..cx.keys.len() as u32)
        .map(|slot| {
            let key = cx.keys.key(slot);
            let sink = &sinks[&key];
            let summary = sink.summary.as_ref().expect("clean keys carry a summary");
            let occs = grouped.run(slot);
            let ext =
                list_append::extend_key(&cx, &appends, key, &sink.observed_elems, summary, occs);
            (key, ext)
        })
        .collect()
}

/// Multiset difference `new − old`, or `None` when `old ⊄ new` (a
/// retraction, which voids the delta-append fast path).
fn edge_delta(old: &[Edge], new: &[Edge]) -> Option<Vec<Edge>> {
    // Common case: the old list is a prefix of the new one.
    if new.len() >= old.len() && new[..old.len()] == *old {
        return Some(new[old.len()..].to_vec());
    }
    let mut counts: FxHashMap<&Edge, i64> = FxHashMap::default();
    for e in old {
        *counts.entry(e).or_insert(0) += 1;
    }
    let mut delta: Vec<Edge> = Vec::new();
    for e in new {
        match counts.get_mut(e) {
            Some(c) if *c > 0 => *c -= 1,
            _ => delta.push(e.clone()),
        }
    }
    if counts.values().any(|c| *c > 0) {
        return None;
    }
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A seal leaves the sorted union of the run and the tail.
        #[test]
        fn seal_leaves_the_sorted_union(
            pairs in prop::collection::btree_set((0u64..8, 0u32..64), 0..96),
            split in prop::collection::vec(any::<bool>(), 96..97),
        ) {
            let pairs: Vec<(Key, TxnId)> = pairs.into_iter().map(|(k, t)| (Key(k), TxnId(t))).collect();
            let mut postings = TxnPostings::default();
            for (i, &p) in pairs.iter().enumerate() {
                if split[i] {
                    postings.sorted.push(p);
                } else {
                    postings.tail.push(p);
                }
            }
            postings.tail.reverse();
            postings.seal();
            prop_assert_eq!(&postings.sorted, &pairs);
            prop_assert!(postings.tail.is_empty());
        }
    }

    fn ww(a: u32, b: u32, next: u64) -> Edge {
        let w = Witness::WwList {
            key: Key(1),
            prev: Elem(next - 1),
            next: Elem(next),
        };
        (TxnId(a), TxnId(b), w)
    }

    /// An extended key's cached edges are not in `analyze_key`'s order:
    /// the delta is the multiset difference whatever either side's
    /// order, and a retraction is one whatever the order.
    #[test]
    fn edge_delta_ignores_the_order_of_both_sides() {
        let old = vec![ww(0, 1, 2), ww(1, 2, 3), ww(1, 2, 3)];
        let new = vec![ww(1, 2, 3), ww(2, 3, 4), ww(0, 1, 2), ww(1, 2, 3)];
        let mut shuffled = old.clone();
        shuffled.rotate_left(1);
        for old in [old, shuffled] {
            assert_eq!(edge_delta(&old, &new), Some(vec![ww(2, 3, 4)]));
            let mut reversed = new.clone();
            reversed.reverse();
            assert_eq!(edge_delta(&old, &reversed), Some(vec![ww(2, 3, 4)]));
            assert_eq!(edge_delta(&old, &new[1..]), None, "one copy retracted");
        }
    }
}
