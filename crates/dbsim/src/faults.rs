//! Delivery-fault injection at the event-stream boundary.
//!
//! [`FaultPlan`](crate::FaultPlan) injects *client-visible* faults while
//! the simulation runs (lost acks, spurious aborts, crashed processes).
//! [`FaultSchedule`] attacks the next layer down: the **wire** between a
//! recording harness and the checker. It takes a clean [`EventLog`] and
//! produces the NDJSON a damaged transport would deliver — events
//! duplicated, delayed past their successors (reordering / replica
//! lag), dropped, torn mid-line, bit-flipped, processes crash-replaced
//! mid-stream (generalizing `crash_on_info` to the delivery layer), and
//! timestamps skewed per process.
//!
//! Everything is driven by one seed: the same schedule applied to the
//! same log yields byte-identical damage, so every fault case in the
//! differential suite is exactly reproducible. Each injected fault is
//! recorded in a [`FaultLog`] with the original event index and the
//! 1-based wire line it landed on, so tests can demand that every fault
//! was either recovered or surfaced as a positioned diagnostic.

use elle_history::{event_to_json, Event, EventLog, ProcessId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded, deterministic schedule of delivery faults.
///
/// Probabilities are per event (or per wire line for the byte-level
/// faults). [`FaultSchedule::none`] injects nothing and leaves the wire
/// byte-identical to [`elle_history::events_to_ndjson`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    /// RNG seed — full determinism.
    pub seed: u64,
    /// Probability an event's line is delivered twice in a row.
    pub duplicate_prob: f64,
    /// Probability an event is delayed past later events (reordering /
    /// replica lag).
    pub delay_prob: f64,
    /// Maximum number of wire positions a delayed event slips by.
    pub delay_window: usize,
    /// Probability an event is silently dropped.
    pub drop_prob: f64,
    /// Probability a wire line is torn: truncated at a random byte
    /// (a partial write the reader sees as garbage or a blank line).
    pub torn_prob: f64,
    /// Probability a wire line has one bit flipped in one byte
    /// (flips stay within ASCII so the wire remains valid UTF-8).
    pub corrupt_prob: f64,
    /// Probability, at each completion, that the process crashes: the
    /// completion is lost and the process is replaced by a fresh one
    /// for all subsequent events (crash-recovery replacement).
    pub crash_prob: f64,
    /// Maximum per-process clock skew added to `time_ns`, in
    /// nanoseconds (each process gets a deterministic offset in
    /// `0..=clock_skew_ns`).
    pub clock_skew_ns: u64,
}

impl FaultSchedule {
    /// No faults: the wire is byte-identical to the clean NDJSON.
    pub const fn none() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay_window: 4,
            drop_prob: 0.0,
            torn_prob: 0.0,
            corrupt_prob: 0.0,
            crash_prob: 0.0,
            clock_skew_ns: 0,
        }
    }

    /// A lively mixed schedule: a few percent of each delivery fault.
    pub const fn typical(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            duplicate_prob: 0.03,
            delay_prob: 0.03,
            delay_window: 4,
            drop_prob: 0.02,
            torn_prob: 0.02,
            corrupt_prob: 0.0,
            crash_prob: 0.01,
            clock_skew_ns: 0,
        }
    }

    /// Does this schedule inject nothing?
    pub fn is_none(&self) -> bool {
        self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.drop_prob == 0.0
            && self.torn_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.crash_prob == 0.0
            && self.clock_skew_ns == 0
    }

    /// Apply the schedule to a clean event log, producing the damaged
    /// NDJSON wire and the log of every fault injected.
    pub fn apply(&self, log: &EventLog) -> (String, FaultLog) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut faults = FaultLog::default();

        // Event-level pass: crash replacement, clock skew, drop, delay,
        // duplicate. `wire` collects (event, original index) in delivery
        // order; a delayed event re-enters `pending` and is emitted
        // after `by` further deliveries.
        let mut wire: Vec<Event> = Vec::with_capacity(log.len());
        let mut pending: Vec<(usize, Event)> = Vec::new();
        let mut remap: Vec<(ProcessId, ProcessId)> = Vec::new();
        let mut next_fresh = log
            .events()
            .iter()
            .map(|e| e.process.0)
            .max()
            .map_or(0, |m| m + 1);

        let deliver = |wire: &mut Vec<Event>, pending: &mut Vec<(usize, Event)>, ev: Event| {
            wire.push(ev);
            for (by, _) in pending.iter_mut() {
                *by -= 1;
            }
            while let Some(i) = pending.iter().position(|(by, _)| *by == 0) {
                let (_, late) = pending.remove(i);
                wire.push(late);
            }
        };

        for ev in log.events() {
            let mut ev = ev.clone();
            if let Some(&(_, to)) = remap.iter().find(|(from, _)| *from == ev.process) {
                ev.process = to;
            }
            if self.clock_skew_ns > 0 {
                if let Some(t) = ev.time_ns {
                    let offset = skew_offset(self.seed, ev.process, self.clock_skew_ns);
                    if offset > 0 {
                        ev.time_ns = Some(t.saturating_add(offset));
                        faults.push(FaultKind::ClockSkew { offset_ns: offset }, ev.index, None);
                    }
                }
            }
            if ev.kind.is_completion() && self.crash_prob > 0.0 && rng.gen_bool(self.crash_prob) {
                // The process dies before its completion reaches the
                // wire; a fresh process takes over its slot.
                let from = ev.process;
                remap.retain(|(f, _)| *f != from);
                remap.push((from, ProcessId(next_fresh)));
                next_fresh += 1;
                faults.push(FaultKind::CrashRecovery, ev.index, None);
                continue;
            }
            if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
                faults.push(FaultKind::Dropped, ev.index, None);
                continue;
            }
            if self.delay_prob > 0.0 && rng.gen_bool(self.delay_prob) {
                let by = rng.gen_range(1..=self.delay_window.max(1));
                faults.push(FaultKind::Delayed { by }, ev.index, None);
                pending.push((by, ev));
                continue;
            }
            let dup = self.duplicate_prob > 0.0 && rng.gen_bool(self.duplicate_prob);
            let copy = dup.then(|| ev.clone());
            deliver(&mut wire, &mut pending, ev);
            if let Some(copy) = copy {
                // The copy's wire line is wherever it lands *after* the
                // original (and any delayed events flushed behind it).
                faults.push(FaultKind::Duplicated, copy.index, Some(wire.len() + 1));
                deliver(&mut wire, &mut pending, copy);
            }
        }
        // Events still delayed at end of stream arrive last, in order.
        pending.sort_by_key(|(by, _)| *by);
        for (_, late) in pending {
            wire.push(late);
        }

        // Byte-level pass: serialize, then tear or bit-flip lines.
        let mut out = String::new();
        for (lineno0, ev) in wire.iter().enumerate() {
            let lineno = lineno0 + 1;
            let mut line = String::new();
            event_to_json(ev, &mut line);
            if self.torn_prob > 0.0 && rng.gen_bool(self.torn_prob) {
                let cut = rng.gen_range(0..line.len().max(1));
                line.truncate(cut);
                faults.push(FaultKind::Torn, ev.index, Some(lineno));
            } else if self.corrupt_prob > 0.0 && rng.gen_bool(self.corrupt_prob) && !line.is_empty()
            {
                // Flip one of bits 1..=6 so ASCII stays ASCII and the
                // wire remains valid UTF-8 — corruption a text-line
                // reader can actually deliver.
                let at = rng.gen_range(0..line.len());
                let bit = rng.gen_range(1..7u8);
                let mut bytes = line.into_bytes();
                bytes[at] ^= 1 << bit;
                line = String::from_utf8(bytes).expect("ASCII bit flip stays UTF-8");
                faults.push(FaultKind::BitFlip, ev.index, Some(lineno));
            }
            out.push_str(&line);
            out.push('\n');
        }
        (out, faults)
    }
}

impl Default for FaultSchedule {
    fn default() -> FaultSchedule {
        FaultSchedule::none()
    }
}

/// Deterministic per-process clock-skew offset in `0..=max_ns`.
fn skew_offset(seed: u64, process: ProcessId, max_ns: u64) -> u64 {
    // SplitMix64 over (seed, pid): stable regardless of event order.
    let mut z = seed ^ (u64::from(process.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % (max_ns + 1)
}

/// What kind of delivery fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The event's line was delivered twice in a row.
    Duplicated,
    /// The event was delayed past `by` later deliveries.
    Delayed {
        /// How many wire positions it slipped.
        by: usize,
    },
    /// The event was silently dropped.
    Dropped,
    /// The wire line was truncated at a random byte.
    Torn,
    /// One bit of one byte of the wire line was flipped.
    BitFlip,
    /// The process crashed at a completion: the completion was lost and
    /// the process replaced by a fresh one for subsequent events.
    CrashRecovery,
    /// The event's timestamp was skewed forward.
    ClockSkew {
        /// Nanoseconds added.
        offset_ns: u64,
    },
}

/// One injected fault: what, to which original event, and (for faults
/// with a wire position) on which 1-based wire line it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault.
    pub kind: FaultKind,
    /// The original event's index.
    pub event_index: usize,
    /// 1-based line on the damaged wire, where meaningful (duplicate
    /// copies and byte-level faults).
    pub wire_line: Option<usize>,
}

/// Every fault a schedule injected into one wire, in injection order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// The injected faults.
    pub faults: Vec<InjectedFault>,
}

impl FaultLog {
    fn push(&mut self, kind: FaultKind, event_index: usize, wire_line: Option<usize>) {
        self.faults.push(InjectedFault {
            kind,
            event_index,
            wire_line,
        });
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Were any faults injected?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Original event indices hit by faults of the given kind filter.
    pub fn indices_where(&self, mut pred: impl FnMut(FaultKind) -> bool) -> Vec<usize> {
        self.faults
            .iter()
            .filter(|f| pred(f.kind))
            .map(|f| f.event_index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, IsolationLevel, ObjectKind};
    use crate::scheduler::SimDb;
    use elle_history::{events_to_ndjson, Mop, NdjsonIngestor, RecoveryPolicy, TxnStatus};

    fn sample_log(n: u64, seed: u64) -> EventLog {
        let mut i = 0u64;
        let mut source = move |_p| {
            i += 1;
            (i <= n).then(|| vec![Mop::append(i % 3, i), Mop::read(i % 3)])
        };
        let cfg = DbConfig::new(IsolationLevel::SnapshotIsolation, ObjectKind::ListAppend)
            .with_processes(3)
            .with_seed(seed);
        SimDb::new(cfg).run(&mut source)
    }

    #[test]
    fn none_is_byte_identical() {
        let log = sample_log(30, 1);
        let (wire, faults) = FaultSchedule::none().apply(&log);
        assert!(faults.is_empty());
        assert!(FaultSchedule::none().is_none());
        assert_eq!(wire, events_to_ndjson(&log));
    }

    #[test]
    fn deterministic_per_seed() {
        let log = sample_log(40, 2);
        let s = FaultSchedule::typical(7);
        assert_eq!(s.apply(&log), s.apply(&log));
        let other = FaultSchedule::typical(8).apply(&log);
        assert_ne!(s.apply(&log).0, other.0);
    }

    #[test]
    fn duplicates_are_adjacent_and_quarantinable() {
        let log = sample_log(40, 3);
        let s = FaultSchedule {
            duplicate_prob: 0.5,
            ..FaultSchedule::none()
        };
        let (wire, faults) = s.apply(&log);
        let dups = faults.indices_where(|k| k == FaultKind::Duplicated);
        assert!(!dups.is_empty(), "expected duplicates at p=0.5");
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&wire).expect("quarantine never aborts here");
        // Every duplicate is recovered exactly: same history as clean.
        let (h, diags) = ing.finish();
        assert_eq!(&h, &log.pair().unwrap());
        assert_eq!(diags.len(), dups.len());
    }

    #[test]
    fn crash_recovery_leaves_open_invocations_and_fresh_pids() {
        let log = sample_log(60, 4);
        let s = FaultSchedule {
            crash_prob: 0.2,
            ..FaultSchedule::none()
        };
        let (wire, faults) = s.apply(&log);
        let crashes = faults.indices_where(|k| k == FaultKind::CrashRecovery);
        assert!(!crashes.is_empty(), "expected crashes at p=0.2");
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&wire).unwrap();
        let (h, _diags) = ing.finish();
        // Each crash leaves its transaction open (indeterminate, no
        // completion) — sound: the outcome was never delivered.
        let indeterminate = h
            .txns()
            .iter()
            .filter(|t| t.status == TxnStatus::Indeterminate && t.complete_index.is_none())
            .count();
        assert!(indeterminate >= crashes.len());
        // And fresh process ids appear beyond the original three.
        let max_pid = h.txns().iter().map(|t| t.process.0).max().unwrap();
        assert!(max_pid >= 3, "expected replacement pids, max {max_pid}");
    }

    #[test]
    fn torn_lines_never_survive_as_events() {
        let log = sample_log(50, 5);
        let s = FaultSchedule {
            torn_prob: 0.3,
            seed: 9,
            ..FaultSchedule::none()
        };
        let (wire, faults) = s.apply(&log);
        let torn: Vec<usize> = faults.indices_where(|k| k == FaultKind::Torn);
        assert!(!torn.is_empty());
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&wire).unwrap();
        let (h, _) = ing.finish();
        // A torn event's exact index never appears as a completion
        // index of a committed/aborted transaction *and* as its
        // invocation: the event itself was lost.
        let ingested: std::collections::HashSet<usize> = h
            .txns()
            .iter()
            .flat_map(|t| {
                std::iter::once(t.invoke_index)
                    .chain(t.complete_index)
                    .collect::<Vec<_>>()
            })
            .collect();
        for e in torn {
            // Adopted orphans reuse the completion index for both ends;
            // the torn event index itself must be gone.
            let adopted_at = h
                .txns()
                .iter()
                .any(|t| t.invoke_index == e && t.complete_index == Some(e));
            assert!(
                !ingested.contains(&e) || adopted_at,
                "torn event {e} survived"
            );
        }
    }

    #[test]
    fn clock_skew_shifts_timestamps_deterministically() {
        let mut i = 0u64;
        let mut source = move |_p| {
            i += 1;
            (i <= 20).then(|| vec![Mop::append(0, i)])
        };
        let cfg = DbConfig::new(IsolationLevel::SnapshotIsolation, ObjectKind::ListAppend)
            .with_processes(2)
            .with_timestamps(true);
        let log = SimDb::new(cfg).run(&mut source);
        let s = FaultSchedule {
            clock_skew_ns: 1_000,
            seed: 3,
            ..FaultSchedule::none()
        };
        let (wire, faults) = s.apply(&log);
        assert!(faults
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::ClockSkew { .. })));
        // The wire still parses strictly: skew damages no structure.
        let log2 = elle_history::events_from_ndjson(&wire).unwrap();
        assert_eq!(log2.len(), log.len());
        assert_ne!(events_to_ndjson(&log2), events_to_ndjson(&log));
    }

    #[test]
    fn delayed_events_degrade_to_skips_under_quarantine() {
        let log = sample_log(50, 6);
        let s = FaultSchedule {
            delay_prob: 0.3,
            delay_window: 3,
            seed: 5,
            ..FaultSchedule::none()
        };
        let (wire, faults) = s.apply(&log);
        assert!(!faults.is_empty());
        // The wire contains every event exactly once, just reordered.
        assert_eq!(wire.lines().count(), log.len());
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&wire).unwrap();
        let (h, _) = ing.finish();
        assert!(h.len() <= log.pair().unwrap().len());
    }
}
