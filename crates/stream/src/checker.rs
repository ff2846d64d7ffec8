//! The incremental epoch-based stream checker.
//!
//! [`StreamChecker`] ingests events continuously and, at each epoch
//! seal, produces a [`Report`] **byte-identical** to running the batch
//! [`Checker`](elle_core::Checker) over the full prefix ingested so far
//! — while paying, per epoch, for the epoch's *delta* rather than for
//! the history's length. See the module docs in [`crate`] for the
//! frontier-state contract.
//!
//! ## How incrementality works
//!
//! The checker is the streaming driver of [`elle_core::pipeline`]: the
//! batch checker seals one [`Analysis`] over all keys, this checker
//! seals one over the *dirty* keys at every epoch. What it adds around
//! that shared stage sequence is only what a live stream needs:
//!
//! * **Pairing** — a [`StreamingPairer`] resolves invocations in place;
//!   raw events are dropped at ingest, and every new or completed
//!   transaction is handed to the analysis' ingest hooks, which fold
//!   key typing, the element index, posting lists and coverage forward.
//! * **Windowed retirement** — a [`WindowPolicy`] and its safety clamps
//!   decide which prefix may leave memory after a seal; the analysis
//!   folds that prefix's facts into summaries.
//! * **Snapshot / restore** — the accepted events plus the retired
//!   summaries ([`WindowCarry`]) rebuild the checker in another process.
//! * **Poison isolation** — a panicking seal reports an indeterminate
//!   epoch and rebuilds the state from the paired history.

use elle_core::pipeline::Analysis;
use elle_core::{CheckOptions, Report, StageTimings};
use elle_history::{
    Event, EventKind, History, Ingest, Mop, PairingError, Recovered, RecoveryPolicy,
    StreamingPairer, Transaction, TxnId, TxnStatus,
};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub use elle_core::pipeline::{DtStashCarry, RetiredPrefix};

/// How the checker bounds its resident state (§bounded-memory
/// streaming). Retirement is *provably cycle-safe*: only closed
/// transactions outside every live SCC whose keys are fully quiescent
/// are retired, so every verdict over the retained window remains
/// byte-identical to the unbounded run as long as no needed witness
/// crossed the retirement boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Never retire (the classic unbounded checker).
    #[default]
    Unbounded,
    /// After each seal, retire down to at most this many retained
    /// transactions (subject to the safety clamps).
    TxnCount(usize),
    /// Retire (geometrically) whenever
    /// [`StreamChecker::resident_bytes`] exceeds this budget.
    Bytes(usize),
}

/// Per-epoch window gauges, reported when a [`WindowPolicy`] other
/// than [`WindowPolicy::Unbounded`] is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Transactions retired from the window since stream start.
    pub retired_txns: usize,
    /// Transactions still resident (open ones included).
    pub retained_txns: usize,
    /// Deterministic resident-state estimate, in bytes.
    pub resident_bytes: usize,
    /// `false` once any retired key was re-touched: anomalies needing
    /// the evicted evidence are indeterminate (marked
    /// [`AnomalyType::WindowEvicted`](elle_core::AnomalyType::WindowEvicted)),
    /// never fabricated.
    pub exact: bool,
}

/// The smallest retained suffix a byte-budget retirement will keep;
/// prevents a tiny budget from thrashing the window down to nothing.
const MIN_RETAIN_TXNS: usize = 16;

/// The frontier sizes a deployment watches: memory tracks these, not
/// the epoch count.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FrontierStats {
    /// Invocations awaiting completion.
    pub open_txns: usize,
    /// Keys with cached per-key analysis state.
    pub cached_keys: usize,
    /// Keys dirtied (re-analyzed) this epoch.
    pub dirty_keys: usize,
    /// Transactions the gather-delta phase walked this epoch.
    pub scoped_txns: usize,
    /// Events quarantined by the recovery policy since stream start.
    #[serde(default)]
    pub quarantined_events: usize,
}

/// One sealed epoch's outcome.
#[derive(Debug)]
pub struct EpochReport {
    /// Epoch ordinal (0-based).
    pub epoch: usize,
    /// Events ingested since the previous seal.
    pub events: usize,
    /// Transactions in the prefix (open ones included).
    pub txns: usize,
    /// The verdict — byte-identical to `Checker::check` on the prefix.
    pub report: Report,
    /// Whether this seal took the graph-rebuild fallback (a per-key
    /// retraction, reassigned key datatype, or out-of-order commit
    /// timestamps) instead of the delta-append fast path.
    pub rebuilt: bool,
    /// Frontier sizes at seal time.
    pub frontier: FrontierStats,
    /// Per-stage wall-clock breakdown of the seal.
    pub timings: StageTimings,
    /// `Some(panic message)` when the seal panicked and was isolated:
    /// the verdict for this epoch is **indeterminate** (the embedded
    /// report is a placeholder with a warning), the checker's state was
    /// rebuilt from the paired history, and subsequent epochs keep
    /// sealing. Only [`StreamChecker::seal_epoch_guarded`] sets this.
    pub poisoned: Option<String>,
    /// Window gauges, `Some` iff a bounded [`WindowPolicy`] is active.
    pub window: Option<WindowStats>,
}

/// A portable capture of a [`StreamChecker`]'s rebuildable state: the
/// synthesized accepted-event sequence (derived from the paired history
/// and the open-invocation table) plus the counters replay cannot
/// recompute. Produced by [`StreamChecker::snapshot`], consumed by
/// [`StreamChecker::restore`] — the crash-consistency primitive behind
/// `elle-serve`'s per-tenant snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckerSnapshot {
    /// Epoch ordinal at capture time (the next seal's number).
    pub epoch: usize,
    /// Events quarantined by the recovery policy since stream start.
    pub quarantined: usize,
    /// Events ingested since the last seal (the partial epoch).
    pub events_this_epoch: usize,
    /// The accepted event sequence, sorted by index. Replaying it under
    /// [`RecoveryPolicy::Quarantine`] reproduces the paired history and
    /// its transaction ids exactly.
    pub events: Vec<Event>,
    /// Windowed-mode carry: everything retirement folded out of the
    /// replayable state. `None` for unbounded checkers that never
    /// retired, so their snapshots are unchanged.
    pub window: Option<WindowCarry>,
}

/// The retired-prefix facts a [`CheckerSnapshot`] must carry beside the
/// replayable events, with the window they were retired under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowCarry {
    /// Transactions retired (the restored pairer's id base).
    pub base: u32,
    /// The active retirement policy.
    pub policy: WindowPolicy,
    /// What retirement folded out of the analysis (serialized inline).
    #[serde(flatten)]
    pub retired: RetiredPrefix,
}

/// The incremental checker. Feed events with
/// [`StreamChecker::ingest_event`]; seal epochs with
/// [`StreamChecker::seal_epoch`] whenever a watermark fires.
#[derive(Debug)]
pub struct StreamChecker {
    opts: CheckOptions,
    pairer: StreamingPairer,
    /// The shared pipeline's state, over the dirty-keys scope.
    analysis: Analysis,
    events_this_epoch: usize,
    epoch: usize,
    /// Events quarantined by the recovery policy since stream start.
    quarantined: usize,
    /// Test hook: panic at the start of sealing this epoch ordinal, to
    /// exercise the poisoned-epoch recovery path deterministically.
    panic_at_epoch: Option<usize>,
    window: WindowPolicy,
}

impl StreamChecker {
    /// A stream checker judging against the given options.
    pub fn new(opts: CheckOptions) -> StreamChecker {
        StreamChecker {
            opts,
            pairer: StreamingPairer::new(),
            analysis: Analysis::incremental(opts),
            events_this_epoch: 0,
            epoch: 0,
            quarantined: 0,
            panic_at_epoch: None,
            window: WindowPolicy::Unbounded,
        }
    }

    /// A stream checker with a bounded-memory [`WindowPolicy`].
    pub fn with_window(opts: CheckOptions, window: WindowPolicy) -> StreamChecker {
        StreamChecker {
            window,
            ..StreamChecker::new(opts)
        }
    }

    /// The active retirement policy.
    pub fn window_policy(&self) -> WindowPolicy {
        self.window
    }

    /// Change the retirement policy (takes effect at the next seal).
    /// `elle-serve` tightens the window this way when a tenant crosses
    /// its hard resident-byte limit.
    pub fn set_window_policy(&mut self, window: WindowPolicy) {
        self.window = window;
    }

    /// Transactions retired from the window since stream start.
    pub fn retired_txns(&self) -> usize {
        self.pairer.history().base() as usize
    }

    /// A deterministic estimate of resident incremental state, in
    /// bytes. Length-based (never capacity-based) so identical streams
    /// report identical gauges; element payloads (list read values) are
    /// charged at their header size only.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let txns: usize = self
            .pairer
            .history()
            .txns()
            .iter()
            .map(|t| size_of::<Transaction>() + t.mops.len() * size_of::<Mop>())
            .sum();
        txns + self.analysis.resident_bytes()
    }

    /// Window gauges, `Some` iff a bounded policy is active.
    fn window_stats(&self) -> Option<WindowStats> {
        (self.window != WindowPolicy::Unbounded).then(|| {
            let history = self.pairer.history();
            let base = history.base() as usize;
            WindowStats {
                retired_txns: base,
                retained_txns: history.len() - base,
                resident_bytes: self.resident_bytes(),
                exact: self.analysis.exact(),
            }
        })
    }

    /// The policy's unclamped retirement watermark for this seal, or
    /// `None` when nothing should retire. Timestamp edges disable
    /// retirement outright: they are not id-forward, so a retired
    /// prefix could still gain incoming edges.
    fn retire_target(&self) -> Option<u32> {
        if self.opts.timestamp_edges {
            return None;
        }
        let history = self.pairer.history();
        let base = history.base() as usize;
        let n = history.len();
        let target = match self.window {
            WindowPolicy::Unbounded => return None,
            WindowPolicy::TxnCount(w) => n.saturating_sub(w),
            WindowPolicy::Bytes(budget) => {
                if self.resident_bytes() <= budget {
                    return None;
                }
                // Geometric: retire half the retained suffix per seal
                // until the budget holds or the clamps stop us.
                let retained = n - base;
                let keep = (retained / 2).max(MIN_RETAIN_TXNS.min(retained));
                n - keep
            }
        };
        (target > base).then_some(target as u32)
    }

    /// Retire as much of `[base, target)` as is provably cycle-safe:
    /// only closed transactions outside every cyclic SCC whose keys are
    /// fully quiescent leave the window.
    fn retire(&mut self, target: u32) {
        // Clamp 1: every cyclic SCC stays whole and resident — reported
        // cycles must keep reporting, so their members are pinned for
        // the stream's lifetime.
        let mut r = target.min(self.analysis.cyclic_floor().unwrap_or(u32::MAX));
        // Clamp 2: open invocations (and everything after them) stay.
        let history = self.pairer.history();
        let first_open = self.pairer.open_entries().first().map(|&(_, id, _)| id);
        if let Some(id) = first_open {
            r = r.min(id.0);
        }
        // Clamp 3: key quiescence — every key wholly retired or wholly
        // retained, iterated to a fixpoint (lowering the watermark can
        // make another key straddle it). Datatype edges live within a
        // key, so a retained key never holds an edge into the prefix.
        loop {
            let before = r;
            for (_, first, last) in self.analysis.key_spans() {
                if first < r && last >= r {
                    r = first;
                }
            }
            if r == before {
                break;
            }
        }
        if r > history.base() {
            let min_open_invoke = first_open.map_or(usize::MAX, |id| history.get(id).invoke_index);
            self.analysis.retire(history, r, min_open_invoke);
            self.pairer.retire_prefix(r);
        }
    }

    /// The paired prefix ingested so far.
    pub fn history(&self) -> &History {
        self.pairer.history()
    }

    /// Transactions ingested so far (open invocations included).
    pub fn txn_count(&self) -> usize {
        self.pairer.history().len()
    }

    /// Epochs sealed so far.
    pub fn epochs_sealed(&self) -> usize {
        self.epoch
    }

    /// Ingest one event. The event is *not* retained: the pairer's open
    /// table plus the paired history are the only pairing state.
    pub fn ingest_event(&mut self, ev: &Event) -> Result<(), PairingError> {
        self.ingest_event_with(ev, RecoveryPolicy::Strict)
            .map(|_| ())
    }

    /// Ingest one event under a [`RecoveryPolicy`]. `Strict` is exactly
    /// [`StreamChecker::ingest_event`]; `Quarantine` repairs pairing
    /// violations (skip / adopt orphan / abandon open — see
    /// [`elle_history::ingest`]) and folds the repaired transaction into
    /// the incremental state. Returns what recovery did, so callers can
    /// attach source positions to diagnostics.
    pub fn ingest_event_with(
        &mut self,
        ev: &Event,
        policy: RecoveryPolicy,
    ) -> Result<Recovered, PairingError> {
        let recovered = self.pairer.feed_with(ev, policy)?;
        let history = self.pairer.history();
        match &recovered {
            Recovered::Ingested(Ingest::Invoked(id)) => {
                self.analysis.note_invoked(history.get(*id))
            }
            Recovered::Ingested(Ingest::Completed(id)) => {
                self.analysis.note_completed(history.get(*id))
            }
            Recovered::Skipped(_) => self.quarantined += 1,
            Recovered::Adopted(id, _) => {
                self.analysis.note_adopted(history.get(*id));
                self.quarantined += 1;
            }
            Recovered::Abandoned { admitted, .. } => {
                // The abandoned transaction's indexed state is already
                // exactly right: an open invocation that will never
                // complete. Only the admitted invocation is new.
                self.analysis.note_invoked(history.get(*admitted));
                self.quarantined += 1;
            }
        }
        self.events_this_epoch += 1;
        Ok(recovered)
    }

    /// Events quarantined by the recovery policy since stream start.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Ingest every event of a log in order.
    pub fn ingest_log(&mut self, log: &elle_history::EventLog) -> Result<(), PairingError> {
        for ev in log.events() {
            self.ingest_event(ev)?;
        }
        Ok(())
    }

    /// Seal the current epoch: run the pipeline over the epoch's delta
    /// and report on the entire prefix ingested so far, then retire
    /// what the window allows.
    pub fn seal_epoch(&mut self) -> EpochReport {
        if self.panic_at_epoch == Some(self.epoch) {
            panic!("injected seal panic (epoch {})", self.epoch);
        }
        let sealed = self.analysis.seal(self.pairer.history());
        let mut timings = sealed.timings;
        if let Some(target) = self.retire_target() {
            let clock = Instant::now();
            self.retire(target);
            timings
                .stages
                .push(("retirement".to_string(), clock.elapsed().as_secs_f64()));
        }
        timings.quarantined_events = self.quarantined;
        let window = self.window_stats();
        if let Some(w) = &window {
            timings.resident_bytes = w.resident_bytes;
            timings.retired_txns = w.retired_txns;
        }
        let out = EpochReport {
            epoch: self.epoch,
            events: self.events_this_epoch,
            txns: self.pairer.history().len(),
            report: sealed.report,
            rebuilt: sealed.rebuilt,
            frontier: FrontierStats {
                open_txns: self.pairer.open_count(),
                cached_keys: self.analysis.cached_keys(),
                dirty_keys: sealed.dirty_keys,
                scoped_txns: sealed.scoped_txns,
                quarantined_events: self.quarantined,
            },
            timings,
            poisoned: None,
            window,
        };
        self.events_this_epoch = 0;
        self.epoch += 1;
        out
    }

    /// Seal with panic isolation: a panic anywhere in the seal is
    /// caught, the epoch is reported as **poisoned** (indeterminate
    /// verdict carrying the panic message), the checker's incremental
    /// state is rebuilt from the paired history — which sealing never
    /// mutates, so it survives a mid-seal panic intact — and subsequent
    /// epochs keep sealing normally (the rebuilt state takes the full
    /// batch-equivalent path on its next seal).
    pub fn seal_epoch_guarded(&mut self) -> EpochReport {
        match catch_unwind(AssertUnwindSafe(|| self.seal_epoch())) {
            Ok(out) => out,
            Err(payload) => {
                let message = elle_core::panic_message(payload.as_ref());
                self.recover_from_history();
                let n = self.txn_count();
                let report = self.analysis.placeholder_report(
                    n,
                    format!(
                        "epoch {} poisoned by a checker panic: {message}; \
                         state rebuilt from the paired history",
                        self.epoch
                    ),
                );
                let timings = StageTimings {
                    quarantined_events: self.quarantined,
                    ..StageTimings::default()
                };
                let events = self.events_this_epoch;
                // The poisoned epoch is consumed: its delta is folded
                // into the rebuilt (all-delta) state and the ordinal
                // advances so the stream keeps its epoch numbering.
                self.events_this_epoch = 0;
                let out = EpochReport {
                    epoch: self.epoch,
                    events,
                    txns: n,
                    report,
                    rebuilt: true,
                    frontier: FrontierStats {
                        open_txns: self.pairer.open_count(),
                        quarantined_events: self.quarantined,
                        ..FrontierStats::default()
                    },
                    timings,
                    poisoned: Some(message),
                    window: self.window_stats(),
                };
                self.epoch += 1;
                out
            }
        }
    }

    /// Capture everything needed to reconstruct this checker in
    /// another process: the synthesized accepted-event sequence (the
    /// same replay path [`StreamChecker::seal_epoch_guarded`]'s
    /// in-process recovery uses) plus the carried counters — the epoch
    /// ordinal, the quarantine gauge, and the partial epoch's event
    /// count — so a [`StreamChecker::restore`]d checker's next
    /// [`EpochReport`] is byte-stable with the pre-crash numbering.
    pub fn snapshot(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            epoch: self.epoch,
            quarantined: self.quarantined,
            events_this_epoch: self.events_this_epoch,
            events: self.synthesize_events(),
            window: self.window_carry(),
        }
    }

    /// The retired-prefix carry for [`StreamChecker::snapshot`]:
    /// `Some` iff a bounded policy is active or anything has retired.
    fn window_carry(&self) -> Option<WindowCarry> {
        let base = self.pairer.history().base();
        if self.window == WindowPolicy::Unbounded && base == 0 {
            return None;
        }
        Some(WindowCarry {
            base,
            policy: self.window,
            retired: self.analysis.retired_prefix(base),
        })
    }

    /// Rebuild a checker from a [`CheckerSnapshot`]: feed the
    /// synthesized events through a fresh checker under
    /// [`RecoveryPolicy::Quarantine`] (adopted orphans re-enter as bare
    /// completions and re-adopt; abandoned opens re-abandon), then
    /// restore the epoch ordinal and quarantine gauge the replay itself
    /// cannot know. The restored checker's next seal takes the full
    /// batch-equivalent path, so its report is byte-identical to an
    /// uninterrupted run's. [`Replay`] is the same rebuild in steps.
    pub fn restore(opts: CheckOptions, snap: &CheckerSnapshot) -> StreamChecker {
        let mut replay = Replay::new(opts, snap.window.as_ref());
        for ev in &snap.events {
            // Synthesized events can only trip the violations recovery
            // repairs (orphan adoption, open abandonment); Quarantine
            // absorbs them and reproduces the same transactions.
            let _ = replay.event(ev);
        }
        replay.finish(snap.epoch, snap.quarantined, snap.events_this_epoch)
    }

    /// Events ingested since the last seal (the partial epoch).
    pub fn events_this_epoch(&self) -> usize {
        self.events_this_epoch
    }

    /// The check options this checker judges against.
    pub fn options(&self) -> CheckOptions {
        self.opts
    }

    /// Synthesize the accepted event sequence the paired history
    /// encodes, sorted by index. Transaction ids are reproduced exactly
    /// on replay — ids are assigned in accepted-event index order, and
    /// synthesis emits events in that same order.
    fn synthesize_events(&self) -> Vec<Event> {
        let open_ts: FxHashMap<TxnId, Option<u64>> = self
            .pairer
            .open_entries()
            .into_iter()
            .map(|(_, id, ts)| (id, ts))
            .collect();
        let history = self.pairer.history();
        let mut events: Vec<Event> = Vec::with_capacity(history.len() * 2);
        for t in history.txns() {
            let kind = match t.status {
                TxnStatus::Committed => EventKind::Ok,
                TxnStatus::Aborted => EventKind::Fail,
                TxnStatus::Indeterminate => EventKind::Info,
            };
            match t.complete_index {
                // Adopted orphan: one completion event, re-adopted on
                // replay.
                Some(ci) if ci == t.invoke_index => events.push(Event {
                    index: ci,
                    process: t.process,
                    kind,
                    mops: t.mops.clone(),
                    time_ns: None,
                }),
                complete => {
                    events.push(Event {
                        index: t.invoke_index,
                        process: t.process,
                        kind: EventKind::Invoke,
                        mops: t.mops.iter().map(Mop::to_invocation).collect(),
                        time_ns: t
                            .timestamps
                            .map(|(s, _)| s)
                            .or_else(|| open_ts.get(&t.id).copied().flatten()),
                    });
                    if let Some(ci) = complete {
                        events.push(Event {
                            index: ci,
                            process: t.process,
                            kind,
                            mops: t.mops.clone(),
                            time_ns: t.timestamps.map(|(_, c)| c),
                        });
                    }
                }
            }
        }
        events.sort_unstable_by_key(|e| e.index);
        events
    }

    /// Rebuild every piece of incremental state from the paired history
    /// (the one structure sealing never mutates), via the same
    /// snapshot → restore path service restarts use, carrying the test
    /// panic hook over.
    fn recover_from_history(&mut self) {
        let fresh = StreamChecker::restore(self.opts, &self.snapshot());
        debug_assert_eq!(fresh.pairer.history(), self.pairer.history());
        let panic_at = self.panic_at_epoch;
        *self = fresh;
        self.panic_at_epoch = panic_at;
    }

    /// Test hook: make the seal of epoch ordinal `epoch` panic, to
    /// exercise poisoned-epoch isolation deterministically.
    #[doc(hidden)]
    pub fn inject_seal_panic(&mut self, epoch: usize) {
        self.panic_at_epoch = Some(epoch);
    }
}

/// [`StreamChecker::restore`] in steps, for a caller that decodes the
/// accepted events one at a time instead of collecting them: start
/// from a retired-prefix carry, feed each event to [`Replay::event`]
/// in order, then [`Replay::finish`] with the counters a replay cannot
/// recompute. Nothing seals until the restored checker's first seal,
/// which takes the full batch-equivalent path.
#[derive(Debug)]
pub struct Replay<'a> {
    checker: StreamChecker,
    window: Option<&'a WindowCarry>,
}

impl<'a> Replay<'a> {
    /// An empty checker, with the carry's id base (so replayed
    /// transactions keep their original ids), policy and the
    /// frontiers the replay extends preloaded.
    pub fn new(opts: CheckOptions, window: Option<&'a WindowCarry>) -> Replay<'a> {
        let mut checker = StreamChecker::new(opts);
        if let Some(c) = window {
            checker.window = c.policy;
            checker.pairer = StreamingPairer::with_base(c.base);
            checker.analysis.preload(&c.retired);
        }
        Replay { checker, window }
    }

    /// Ingest one replayed event under [`RecoveryPolicy::Quarantine`].
    pub fn event(&mut self, ev: &Event) -> Result<Recovered, PairingError> {
        self.checker
            .ingest_event_with(ev, RecoveryPolicy::Quarantine)
    }

    /// The restored checker: the carry's retired facts folded back in,
    /// and the epoch ordinal, quarantine gauge and partial epoch's
    /// event count set to the given values.
    pub fn finish(
        self,
        epoch: usize,
        quarantined: usize,
        events_this_epoch: usize,
    ) -> StreamChecker {
        let mut checker = self.checker;
        if let Some(c) = self.window {
            checker.analysis.restore_retired(&c.retired);
        }
        checker.epoch = epoch;
        checker.quarantined = quarantined;
        checker.events_this_epoch = events_this_epoch;
        checker
    }
}
