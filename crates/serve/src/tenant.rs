//! One tenant: a [`StreamChecker`] plus its durability, watermark
//! counters, and degradation state.
//!
//! The degradation ladder, mildest first:
//!
//! 1. **quarantined** — a damaged line was skipped or repaired under
//!    [`RecoveryPolicy::Quarantine`]; the tenant keeps checking with
//!    weaker inferences and the verdict envelope grows a `quarantined`
//!    gauge.
//! 2. **forced-seal** — the watchdog sealed an epoch that stayed open
//!    too long; numbering shifts but every verdict is still exact for
//!    its prefix (`forced_seals` gauge).
//! 3. **poisoned** — a seal panicked; that one epoch's verdict is
//!    indeterminate (`"ok":null`) and the checker rebuilds itself from
//!    its own paired history.
//! 4. **forced-window** — the tenant's checker state breached its
//!    resident-byte budget; its retirement window is tightened and it
//!    keeps serving with bounded memory (`forced_window` gauge). The
//!    soft rung (3/4 of the budget) forces a retirement seal first.
//! 5. **failed** — under [`RecoveryPolicy::Strict`] the first damaged
//!    line fails the tenant; subsequent requests are rejected with a
//!    `422`. No rung of the ladder ever touches another tenant.

use crate::config::ServeConfig;
use crate::store::{Checkpoint, JournalLine, Restored, TenantStore};
use elle_history::{Event, Recovered, RecoveryPolicy, SnapshotMeta};
use elle_stream::{EpochReport, Gauges, Replay, StreamChecker, WindowCarry, WindowPolicy};
use serde::{Deserialize, Serialize};
use std::io;
use std::time::{Duration, Instant};

/// Compaction is due when the journal holds more than this many bytes
/// of skipped lines (duplicates, undecodable lines) per byte of lines
/// the checker ingested. A compaction rewrites the live events once,
/// so a client that resends everything costs a bounded factor, as the
/// per-seal snapshot did, while one that does not never compacts.
const SKIPPED_PER_LIVE_BYTE: usize = 1;

/// What one ingested event produced, beyond mutating the tenant.
#[derive(Debug, Default)]
pub struct IngestReply {
    /// A quarantine diagnostic to send back, if recovery repaired
    /// something.
    pub warning: Option<String>,
    /// A verdict envelope, if the event crossed an epoch watermark.
    pub sealed: Option<String>,
    /// The tenant just failed (strict mode); the message explains why.
    pub failed: Option<String>,
}

/// A tenant's final verdict, reported by a graceful drain.
#[derive(Debug, Clone)]
pub struct TenantFinal {
    /// The tenant id.
    pub tenant: String,
    /// The final verdict: `None` when the closing epoch was poisoned
    /// or the tenant had failed.
    pub ok: Option<bool>,
    /// Whether the closing seal was poisoned.
    pub poisoned: bool,
    /// The full final envelope line (or a `422` reject for a failed
    /// tenant).
    pub verdict: String,
}

/// Serve-layer budget state persisted in the snapshot beside the
/// checker's own window carry. The ladder gauges and the soft-rung
/// latch must survive restart, or a recovered tenant's envelopes drift
/// from an uninterrupted run's by exactly the forgotten rungs (a reset
/// latch re-fires the soft seal the live run already took).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BudgetCarry {
    /// The checker's retired-prefix carry. `None` when the policy is
    /// unbounded and nothing retired — only the gauges needed saving.
    window: Option<WindowCarry>,
    /// Soft-rung forced-seal count at snapshot time.
    budget_seals: usize,
    /// Hard-rung tightening count at snapshot time.
    forced_window: usize,
    /// Soft-rung edge-trigger latch at snapshot time.
    over_soft: bool,
    /// The budget ladder's resident-byte figure at snapshot time (see
    /// [`Checkpoint::resident_bytes`]).
    #[serde(default)]
    resident_bytes: usize,
}

/// One tenant's full state: checker, store, counters, degradation.
pub struct Tenant {
    name: String,
    checker: StreamChecker,
    store: Option<TenantStore>,
    recovery: RecoveryPolicy,
    txns_since_seal: usize,
    events_since_seal: usize,
    /// Journal lines since the last checkpoint or compaction.
    lines_since_checkpoint: usize,
    /// Journal bytes since the last compaction of lines the checker
    /// ingested, and of lines it skipped or could not decode.
    journal_live: usize,
    journal_skipped: usize,
    /// Transactions retired when the snapshot was written. A seal that
    /// retires more compacts: a checkpoint cannot carry retired facts.
    compacted_base: usize,
    /// The per-tenant resident-byte budget, if any.
    resident_budget: Option<usize>,
    /// Seal-built checker state (dependency graph, per-key results)
    /// the checker held at the checkpoint a restart resumed from, which
    /// the restored checker rebuilds only at its first seal. Counted as
    /// resident until then, so the budget ladder decides as the
    /// uninterrupted run did.
    resident_credit: usize,
    cli_quarantined: usize,
    forced_seals: usize,
    /// Retirement seals forced by the soft resident-byte rung.
    budget_seals: usize,
    /// Times the hard rung tightened this tenant's window.
    forced_window: usize,
    /// Edge-trigger latch for the soft rung: one forced seal per
    /// crossing, re-armed when retirement brings residency back under.
    over_soft: bool,
    failed: Option<String>,
    epoch_opened: Option<Instant>,
}

impl Tenant {
    /// Open a tenant from the config's data directory (if any): restore
    /// the snapshot, replay the journal up to its last checkpoint
    /// through ingest alone and take the counters from that checkpoint,
    /// then replay the tail through the live ingest path. Returns the
    /// verdict envelopes produced by the tail's watermark seals —
    /// already persisted at-least-once, so callers normally discard
    /// them.
    pub fn open(name: &str, cfg: &ServeConfig) -> io::Result<(Tenant, Vec<String>)> {
        let (store, restored) = match &cfg.data_dir {
            Some(root) => {
                let (s, r) = TenantStore::open(root.join("tenants").join(name))?;
                (Some(s), r)
            }
            None => (None, Restored::default()),
        };
        let Restored {
            snapshot,
            journal,
            checkpoint,
        } = restored;
        let (meta, events) = snapshot.unzip();
        let carry = match meta.as_ref().and_then(|m| m.window.as_ref()) {
            Some(v) => Some(
                <BudgetCarry as serde::Deserialize>::deserialize(v).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("snapshot window carry: {e}"),
                    )
                })?,
            ),
            None => None,
        };
        let window = carry.as_ref().and_then(|c| c.window.as_ref());
        let mut replay = Replay::new(cfg.opts, window);
        for ev in events.iter().flatten() {
            let _ = replay.event(ev);
        }
        // The checkpointed prefix replays like the snapshot: ingest
        // alone, no seals and no budget ladder — the checkpoint carries
        // what they changed.
        let (covered, checkpoint) = checkpoint.unzip();
        let covered = covered.unwrap_or(0);
        let (mut journal_live, mut journal_skipped) = (0, 0);
        for line in journal[..covered].split_terminator('\n') {
            let ingested = match JournalLine::decode(line) {
                JournalLine::Checkpoint => continue,
                JournalLine::Event(ev) => replay
                    .event(&ev)
                    .is_ok_and(|r| !matches!(r, Recovered::Skipped(_))),
                JournalLine::Undecodable(_) => false,
            };
            if ingested {
                journal_live += line.len() + 1;
            } else {
                journal_skipped += line.len() + 1;
            }
        }
        let counters = checkpoint.unwrap_or_else(|| Checkpoint {
            epoch: meta.as_ref().map_or(0, |m| m.epoch),
            quarantined: meta.as_ref().map_or(0, |m| m.quarantined),
            events_this_epoch: meta.as_ref().map_or(0, |m| m.events_this_epoch),
            txns_since_seal: meta.as_ref().map_or(0, |m| m.txns_since_seal),
            budget_seals: carry.as_ref().map_or(0, |c| c.budget_seals),
            forced_window: carry.as_ref().map_or(0, |c| c.forced_window),
            over_soft: carry.as_ref().is_some_and(|c| c.over_soft),
            resident_bytes: carry.as_ref().map_or(0, |c| c.resident_bytes),
            window: None,
        });
        let mut checker = replay.finish(
            counters.epoch,
            counters.quarantined,
            counters.events_this_epoch,
        );
        // A carried window policy wins over the config: a budget-forced
        // tightening must survive restart, or a crash loop would reset
        // the tenant to the very policy that blew the budget.
        checker.set_window_policy(
            counters
                .window
                .or(window.map(|w| w.policy))
                .unwrap_or(cfg.window),
        );
        let resident_credit = match cfg.max_tenant_resident_bytes {
            Some(_) => counters
                .resident_bytes
                .saturating_sub(checker.resident_bytes()),
            None => 0,
        };
        let mut t = Tenant {
            name: name.to_string(),
            compacted_base: checker.retired_txns(),
            resident_budget: cfg.max_tenant_resident_bytes,
            resident_credit,
            checker,
            store,
            recovery: cfg.recovery,
            txns_since_seal: counters.txns_since_seal,
            events_since_seal: counters.events_this_epoch,
            lines_since_checkpoint: 0,
            journal_live,
            journal_skipped,
            cli_quarantined: 0,
            forced_seals: 0,
            budget_seals: counters.budget_seals,
            forced_window: counters.forced_window,
            over_soft: counters.over_soft,
            failed: None,
            epoch_opened: None,
        };
        if let Some((tenant, epoch)) = &cfg.inject_seal_panic {
            if tenant == name {
                t.checker.inject_seal_panic(*epoch);
            }
        }
        // Replay the tail through the same path live ingest takes —
        // seals fire at the same watermarks, so epoch numbering (and
        // with it every later verdict) reproduces exactly. Journaling,
        // checkpoints and compaction are suppressed: the lines are
        // already on disk, and compacting mid-replay would delete lines
        // not yet replayed.
        let mut replayed = Vec::new();
        for line in journal[covered..].split_terminator('\n') {
            let bytes = line.len() + 1;
            let reply = match JournalLine::decode(line) {
                JournalLine::Checkpoint => continue,
                JournalLine::Event(ev) => t.apply_event(cfg, &ev, bytes, false)?,
                JournalLine::Undecodable(message) => t.skip_line(cfg, &message, bytes, false)?,
            };
            replayed.extend(reply.sealed);
        }
        Ok((t, replayed))
    }

    /// The tenant id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `Some(reason)` once the tenant has failed (strict mode); the
    /// server rejects its requests with a `422`.
    pub fn failed(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Ingest one decoded event: journal it, feed the checker, seal if
    /// a watermark is due, and checkpoint after a seal or every
    /// `snapshot_events` journal lines.
    pub fn ingest(&mut self, cfg: &ServeConfig, ev: &Event) -> io::Result<IngestReply> {
        let bytes = match &mut self.store {
            Some(store) => store.append_event(ev)?,
            None => 0,
        };
        self.apply_event(cfg, ev, bytes, true)
    }

    /// Ingest a line whose event body did not decode. Under quarantine
    /// it bumps the gauge; under strict it fails the tenant.
    pub fn ingest_bad(&mut self, cfg: &ServeConfig, message: &str) -> io::Result<IngestReply> {
        let bytes = match &mut self.store {
            Some(store) => store.append_undecodable(message)?,
            None => 0,
        };
        self.skip_line(cfg, message, bytes, true)
    }

    /// Account for an undecodable journal line of `bytes` bytes, live
    /// or replayed.
    fn skip_line(
        &mut self,
        cfg: &ServeConfig,
        message: &str,
        bytes: usize,
        live: bool,
    ) -> io::Result<IngestReply> {
        self.lines_since_checkpoint += 1;
        self.journal_skipped += bytes;
        self.cli_quarantined += 1;
        let mut reply = IngestReply::default();
        match self.recovery {
            RecoveryPolicy::Strict => {
                // No checkpoint: the sentinel stays in the tail for a
                // restart to fail the tenant again, for this reason.
                let reason = self.failed.get_or_insert_with(|| message.to_string());
                reply.failed = Some(reason.clone());
            }
            RecoveryPolicy::Quarantine => {
                reply.warning = Some(format!("quarantined: {message} — line skipped"));
                if live && self.lines_since_checkpoint >= cfg.snapshot_events.max(1) {
                    self.checkpoint()?;
                }
            }
        }
        Ok(reply)
    }

    /// Feed one journaled event of `bytes` bytes to the checker, live
    /// or replayed.
    fn apply_event(
        &mut self,
        cfg: &ServeConfig,
        ev: &Event,
        bytes: usize,
        live: bool,
    ) -> io::Result<IngestReply> {
        let mut reply = IngestReply::default();
        self.lines_since_checkpoint += 1;
        match self.checker.ingest_event_with(ev, self.recovery) {
            Ok(recovered) => {
                match &recovered {
                    Recovered::Ingested(_) => {}
                    Recovered::Skipped(e) => {
                        reply.warning = Some(format!("quarantined: {e} — event skipped"));
                    }
                    Recovered::Adopted(_, e) => {
                        reply.warning = Some(format!("quarantined: {e} — orphan adopted"));
                    }
                    Recovered::Abandoned { cause, .. } => {
                        reply.warning =
                            Some(format!("quarantined: {cause} — open invocation abandoned"));
                    }
                }
                if matches!(recovered, Recovered::Skipped(_)) {
                    self.journal_skipped += bytes;
                } else {
                    self.journal_live += bytes;
                }
                if invokes_txn(&recovered) {
                    self.txns_since_seal += 1;
                }
            }
            Err(e) => {
                // Strict mode: the first pairing violation fails the
                // tenant. The event never reached the checker, and no
                // checkpoint follows it, so a restart fails it again.
                let msg = e.to_string();
                self.failed = Some(msg.clone());
                reply.failed = Some(msg);
                return Ok(reply);
            }
        }
        self.events_since_seal += 1;
        if self.epoch_opened.is_none() {
            self.epoch_opened = Some(Instant::now());
        }
        if cfg.watermark_due(self.txns_since_seal, self.events_since_seal) {
            reply.sealed = Some(self.seal_epoch()?);
        }
        if reply.sealed.is_none() {
            if let Some(line) = self.enforce_resident_budget()? {
                reply.sealed = Some(line);
            }
        }
        if live
            && (reply.sealed.is_some() || self.lines_since_checkpoint >= cfg.snapshot_events.max(1))
        {
            self.checkpoint()?;
        }
        Ok(reply)
    }

    /// The resident-byte ladder, checked after every ingested event.
    /// Soft rung (3/4 of the budget): one forced retirement seal per
    /// crossing. Hard rung (the budget): tighten the window —
    /// `forced-window` — and seal, so the tenant keeps serving with
    /// bounded memory instead of being rejected or killed. Residency is
    /// a deterministic function of the ingested prefix and the seal
    /// points (a restored checker's missing seal-built state is
    /// credited back), so journal replay reproduces every rung (and
    /// with it epoch numbering).
    fn enforce_resident_budget(&mut self) -> io::Result<Option<String>> {
        let Some(hard) = self.resident_budget else {
            return Ok(None);
        };
        let resident = self.resident_bytes();
        let soft = hard - hard / 4;
        if resident <= soft {
            self.over_soft = false;
            return Ok(None);
        }
        if resident > hard {
            self.forced_window += 1;
            let tightened = match self.checker.window_policy() {
                WindowPolicy::Bytes(b) => WindowPolicy::Bytes((b / 2).max(1)),
                WindowPolicy::TxnCount(w) => WindowPolicy::TxnCount((w / 2).max(1)),
                WindowPolicy::Unbounded => WindowPolicy::Bytes(soft),
            };
            self.checker.set_window_policy(tightened);
            self.over_soft = false;
            return self.seal_epoch().map(Some);
        }
        if self.over_soft {
            return Ok(None);
        }
        self.over_soft = true;
        self.budget_seals += 1;
        self.seal_epoch().map(Some)
    }

    /// Seal the current epoch, checkpoint it, and return the verdict
    /// envelope line.
    pub fn seal(&mut self) -> io::Result<String> {
        let line = self.seal_epoch()?;
        self.checkpoint()?;
        Ok(line)
    }

    /// Seal the current epoch and log its verdict, without a
    /// checkpoint (the caller decides: replay writes none).
    fn seal_epoch(&mut self) -> io::Result<String> {
        let epoch = self.checker.seal_epoch_guarded();
        self.resident_credit = 0;
        self.txns_since_seal = 0;
        self.events_since_seal = 0;
        self.epoch_opened = None;
        let line = self.envelope(&epoch);
        if let Some(store) = &mut self.store {
            store.append_verdict(&line)?;
        }
        Ok(line)
    }

    /// Watchdog hook: force a seal when the open epoch is older than
    /// `max` and has events buffered.
    pub fn maybe_force_seal(&mut self, max: Duration) -> io::Result<Option<String>> {
        match self.epoch_opened {
            Some(t0) if t0.elapsed() >= max => {
                self.forced_seals += 1;
                self.seal().map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Final-seal the tenant (graceful drain or `close` op).
    pub fn close(mut self) -> TenantFinal {
        if let Some(reason) = &self.failed {
            return TenantFinal {
                tenant: self.name.clone(),
                ok: None,
                poisoned: false,
                verdict: crate::wire::reject(
                    Some(&self.name),
                    422,
                    &format!("tenant failed: {reason}"),
                ),
            };
        }
        let epoch = self.checker.seal_epoch_guarded();
        self.resident_credit = 0;
        let line = self.envelope(&epoch);
        if let Some(store) = &mut self.store {
            let _ = store.append_verdict(&line);
        }
        let _ = self.checkpoint();
        TenantFinal {
            tenant: self.name,
            ok: match &epoch.poisoned {
                None => Some(epoch.report.ok()),
                Some(_) => None,
            },
            poisoned: epoch.poisoned.is_some(),
            verdict: line,
        }
    }

    /// One-line status summary. Window gauges appear only when the
    /// tenant runs windowed (or the budget ladder fired), so unbounded
    /// tenants' status lines stay byte-stable.
    pub fn status_line(&self) -> String {
        let mut extra = String::new();
        if self.checker.window_policy() != WindowPolicy::Unbounded {
            extra.push_str(&format!(
                ",\"resident_bytes\":{},\"retired_txns\":{}",
                self.resident_bytes(),
                self.checker.retired_txns(),
            ));
        }
        if self.budget_seals > 0 {
            extra.push_str(&format!(",\"budget_seals\":{}", self.budget_seals));
        }
        if self.forced_window > 0 {
            extra.push_str(&format!(",\"forced_window\":{}", self.forced_window));
        }
        format!(
            "{{\"tenant\":\"{}\",\"status\":{{\"epochs\":{},\"txns\":{},\"events_this_epoch\":{},\"quarantined\":{},\"forced_seals\":{}{extra},\"failed\":{}}}}}",
            self.name,
            self.checker.epochs_sealed(),
            self.checker.txn_count(),
            self.events_since_seal,
            self.quarantined_total(),
            self.forced_seals,
            self.failed.is_some(),
        )
    }

    fn quarantined_total(&self) -> usize {
        // After a restore the checker's counter already carries the
        // decode-level count from before the restart, so the sum equals
        // an uninterrupted run's.
        self.checker.quarantined() + self.cli_quarantined
    }

    /// The checker's resident bytes, as an uninterrupted run's checker
    /// would count them.
    fn resident_bytes(&self) -> usize {
        self.checker.resident_bytes() + self.resident_credit
    }

    /// The counters a restart needs, as of the last journal line.
    fn counters(&self) -> Checkpoint {
        let policy = self.checker.window_policy();
        Checkpoint {
            epoch: self.checker.epochs_sealed(),
            quarantined: self.quarantined_total(),
            events_this_epoch: self.checker.events_this_epoch(),
            txns_since_seal: self.txns_since_seal,
            budget_seals: self.budget_seals,
            forced_window: self.forced_window,
            over_soft: self.over_soft,
            resident_bytes: match self.resident_budget {
                Some(_) => self.resident_bytes(),
                None => 0,
            },
            window: (policy != WindowPolicy::Unbounded || self.checker.retired_txns() > 0)
                .then_some(policy),
        }
    }

    /// Make everything journaled so far durable: append a checkpoint,
    /// compacting first when retirement advanced the base since the
    /// snapshot or skipped lines outweigh live ones (the checkpoint then
    /// opens the fresh journal).
    fn checkpoint(&mut self) -> io::Result<()> {
        if self.store.is_none() {
            return Ok(());
        }
        self.lines_since_checkpoint = 0;
        if self.checker.retired_txns() != self.compacted_base
            || self.journal_skipped > self.journal_live * SKIPPED_PER_LIVE_BYTE
        {
            self.compact()?;
        }
        let counters = self.counters();
        let store = self.store.as_mut().expect("checked above");
        store.append_checkpoint(&counters)
    }

    /// Rewrite the live events as a snapshot and start an empty
    /// journal.
    fn compact(&mut self) -> io::Result<()> {
        let c = self.counters();
        let snap = self.checker.snapshot();
        let mut meta = SnapshotMeta::new(
            0, // overwritten by TenantStore::rotate
            c.epoch,
            c.quarantined,
            c.events_this_epoch,
            c.txns_since_seal,
        );
        if snap.window.is_some()
            || c.budget_seals > 0
            || c.forced_window > 0
            || c.over_soft
            || c.resident_bytes > 0
        {
            let carry = BudgetCarry {
                window: snap.window,
                budget_seals: c.budget_seals,
                forced_window: c.forced_window,
                over_soft: c.over_soft,
                resident_bytes: c.resident_bytes,
            };
            meta.window = Some(serde::Serialize::serialize(&carry));
        }
        let store = self.store.as_mut().expect("compaction requires a store");
        store.rotate(meta, &snap.events)?;
        self.journal_live = 0;
        self.journal_skipped = 0;
        self.compacted_base = self.checker.retired_txns();
        Ok(())
    }

    /// The per-seal verdict envelope. Deliberately omits `rebuilt`
    /// (elle-stream reports it): the first seal after a restore always
    /// rebuilds, so including it would break the byte-identity the
    /// crash-recovery contract promises. Gauges appear only when
    /// nonzero, keeping healthy tenants' envelopes byte-stable.
    fn envelope(&self, epoch: &EpochReport) -> String {
        let mut gauges = String::new();
        Gauges {
            quarantined: self.quarantined_total(),
            forced_seals: self.forced_seals,
            budget_seals: self.budget_seals,
            forced_window: self.forced_window,
            ..epoch.gauges()
        }
        .write(&mut gauges);
        format!(
            "{{\"tenant\":\"{}\",\"epoch\":{},\"txns\":{},\"events\":{},\"ok\":{},\"open_txns\":{}{gauges},\"report\":{}}}",
            self.name,
            epoch.epoch,
            epoch.txns,
            epoch.events,
            epoch.ok_json(),
            epoch.frontier.open_txns,
            serde_json::to_string(&epoch.report).expect("report serializes"),
        )
    }
}

/// Reference oracle for differential tests and the `--chaos` self
/// check: process `lines` exactly as one worker thread would for a
/// single *ephemeral* tenant (no journaling) and return the final
/// close verdict. Because one tenant's processing is serial and
/// independent of every other tenant, a served tenant's verdict must
/// equal this, byte for byte, whatever else the service survived.
pub fn solo_verdict(cfg: &ServeConfig, tenant: &str, lines: &[String]) -> String {
    let mut cfg = cfg.clone();
    cfg.data_dir = None;
    let (mut t, _) = Tenant::open(tenant, &cfg).expect("ephemeral tenants cannot fail to open");
    for line in lines {
        if line.trim().is_empty() || line.len() > cfg.max_line_bytes || t.failed().is_some() {
            continue;
        }
        match crate::wire::parse_request(line) {
            Ok(crate::wire::Request::Event { event, .. }) => {
                let _ = t.ingest(&cfg, &event);
            }
            Ok(crate::wire::Request::BadEvent { message, .. }) => {
                let _ = t.ingest_bad(&cfg, &message);
            }
            _ => {} // rejected at the wire, never reaches a tenant
        }
    }
    t.close().verdict
}

/// Did this recovery outcome admit a *new* transaction invocation?
/// Drives the transaction-count epoch watermark.
fn invokes_txn(r: &Recovered) -> bool {
    use elle_history::Ingest;
    matches!(
        r,
        Recovered::Ingested(Ingest::Invoked(_))
            | Recovered::Adopted(..)
            | Recovered::Abandoned { .. }
    )
}
