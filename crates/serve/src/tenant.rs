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
use crate::store::{Restored, TenantStore};
use elle_history::{
    event_from_json, event_to_json, Event, Recovered, RecoveryPolicy, SnapshotMeta,
};
use elle_stream::{CheckerSnapshot, EpochReport, Gauges, StreamChecker, WindowCarry, WindowPolicy};
use serde::{Deserialize, Serialize};
use std::io;
use std::time::{Duration, Instant};

/// Journal form of a line whose event body did not decode,
/// `{"undecodable":"<message>"}`: it fails event decoding again on
/// replay, so the quarantine gauge reproduces, and it carries the
/// decoder's message, so a strict tenant fails again for the live
/// reason. (Older journals hold `{"undecodable":true}`, which replays
/// with the event decoder's own message.)
#[derive(Serialize, Deserialize)]
struct Undecodable {
    undecodable: String,
}

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
}

/// One tenant's full state: checker, store, counters, degradation.
pub struct Tenant {
    name: String,
    checker: StreamChecker,
    store: Option<TenantStore>,
    recovery: RecoveryPolicy,
    txns_since_seal: usize,
    events_since_seal: usize,
    events_since_snapshot: usize,
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
    /// Open a tenant: restore snapshot + journal from the config's data
    /// directory (if any) and replay them through the normal ingest
    /// path. Returns the verdict envelopes produced by replayed
    /// watermark seals — already persisted at-least-once, so callers
    /// normally discard them.
    pub fn open(name: &str, cfg: &ServeConfig) -> io::Result<(Tenant, Vec<String>)> {
        let mut store = None;
        let mut restored = Restored::default();
        if let Some(root) = &cfg.data_dir {
            let (s, r) = TenantStore::open(root.join("tenants").join(name))?;
            store = Some(s);
            restored = r;
        }
        let Restored {
            snapshot,
            journal_lines,
        } = restored;
        let (checker, txns_since_seal, events_since_seal, budget) = match snapshot {
            Some((meta, events)) => {
                // The carried window policy wins over the config: a
                // budget-forced tightening must survive restart, or a
                // crash loop would reset the tenant to the very policy
                // that blew the budget.
                let carry = match &meta.window {
                    Some(v) => Some(<BudgetCarry as serde::Deserialize>::deserialize(v).map_err(
                        |e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("snapshot window carry: {e}"),
                            )
                        },
                    )?),
                    None => None,
                };
                let (window, budget) = match carry {
                    Some(c) => (c.window, (c.budget_seals, c.forced_window, c.over_soft)),
                    None => (None, (0, 0, false)),
                };
                let carried_policy = window.is_some();
                let snap = CheckerSnapshot {
                    epoch: meta.epoch,
                    quarantined: meta.quarantined,
                    events_this_epoch: meta.events_this_epoch,
                    events,
                    window,
                };
                let mut checker = StreamChecker::restore(cfg.opts, &snap);
                if !carried_policy {
                    checker.set_window_policy(cfg.window);
                }
                (
                    checker,
                    meta.txns_since_seal,
                    meta.events_this_epoch,
                    budget,
                )
            }
            None => (
                StreamChecker::with_window(cfg.opts, cfg.window),
                0,
                0,
                (0, 0, false),
            ),
        };
        let mut t = Tenant {
            name: name.to_string(),
            checker,
            store,
            recovery: cfg.recovery,
            txns_since_seal,
            events_since_seal,
            events_since_snapshot: 0,
            cli_quarantined: 0,
            forced_seals: 0,
            budget_seals: budget.0,
            forced_window: budget.1,
            over_soft: budget.2,
            failed: None,
            epoch_opened: None,
        };
        if let Some((tenant, epoch)) = &cfg.inject_seal_panic {
            if tenant == name {
                t.checker.inject_seal_panic(*epoch);
            }
        }
        // Replay the journal through the same path live ingest takes —
        // seals fire at the same watermarks, so epoch numbering (and
        // with it every later verdict) reproduces exactly. Journaling
        // and snapshot rotation are suppressed: the lines are already
        // on disk, and rotating mid-replay would delete lines not yet
        // replayed.
        let mut replayed = Vec::new();
        for line in &journal_lines {
            match event_from_json(line) {
                Ok(ev) => {
                    let reply = t.apply_event(cfg, &ev, false)?;
                    replayed.extend(reply.sealed);
                }
                Err(e) => {
                    let msg = serde_json::from_str::<Undecodable>(line)
                        .map_or_else(|_| e.to_string(), |u| u.undecodable);
                    t.cli_quarantined += 1;
                    if t.recovery == RecoveryPolicy::Strict && t.failed.is_none() {
                        t.failed = Some(msg);
                    }
                }
            }
        }
        t.events_since_snapshot = journal_lines.len();
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
    /// a watermark is due, rotate the snapshot if one is due.
    pub fn ingest(&mut self, cfg: &ServeConfig, ev: &Event) -> io::Result<IngestReply> {
        self.apply_event(cfg, ev, true)
    }

    /// Ingest a line whose event body did not decode. Under quarantine
    /// it bumps the gauge; under strict it fails the tenant.
    pub fn ingest_bad(&mut self, cfg: &ServeConfig, message: &str) -> io::Result<IngestReply> {
        if let Some(store) = &mut self.store {
            let sentinel = Undecodable {
                undecodable: message.to_string(),
            };
            store.append_event(&serde_json::to_string(&sentinel).expect("strings serialize"))?;
        }
        self.events_since_snapshot += 1;
        self.cli_quarantined += 1;
        let mut reply = IngestReply::default();
        match self.recovery {
            RecoveryPolicy::Strict => {
                // No rotation: a snapshot cannot record the failure, so
                // the sentinel stays in the journal for a restart to
                // fail the tenant again.
                self.failed = Some(message.to_string());
                reply.failed = Some(message.to_string());
            }
            RecoveryPolicy::Quarantine => {
                reply.warning = Some(format!("quarantined: {message} — line skipped"));
                self.maybe_rotate(cfg)?;
            }
        }
        Ok(reply)
    }

    fn apply_event(
        &mut self,
        cfg: &ServeConfig,
        ev: &Event,
        live: bool,
    ) -> io::Result<IngestReply> {
        let mut reply = IngestReply::default();
        if live {
            if let Some(store) = &mut self.store {
                let mut line = String::new();
                event_to_json(ev, &mut line);
                store.append_event(&line)?;
            }
            self.events_since_snapshot += 1;
        }
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
                if invokes_txn(&recovered) {
                    self.txns_since_seal += 1;
                }
            }
            Err(e) => {
                // Strict mode: the first pairing violation fails the
                // tenant. The event never reached the checker.
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
            reply.sealed = Some(self.seal(live)?);
        }
        if reply.sealed.is_none() {
            if let Some(line) = self.enforce_resident_budget(cfg, live)? {
                reply.sealed = Some(line);
            }
        }
        if live {
            self.maybe_rotate(cfg)?;
        }
        Ok(reply)
    }

    /// The resident-byte ladder, checked after every ingested event.
    /// Soft rung (3/4 of the budget): one forced retirement seal per
    /// crossing. Hard rung (the budget): tighten the window —
    /// `forced-window` — and seal, so the tenant keeps serving with
    /// bounded memory instead of being rejected or killed. Residency is
    /// a deterministic function of the ingested prefix, so journal
    /// replay reproduces every rung (and with it epoch numbering).
    fn enforce_resident_budget(
        &mut self,
        cfg: &ServeConfig,
        live: bool,
    ) -> io::Result<Option<String>> {
        let Some(hard) = cfg.max_tenant_resident_bytes else {
            return Ok(None);
        };
        let resident = self.checker.resident_bytes();
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
            return self.seal(live).map(Some);
        }
        if self.over_soft {
            return Ok(None);
        }
        self.over_soft = true;
        self.budget_seals += 1;
        self.seal(live).map(Some)
    }

    /// Seal the current epoch and return the verdict envelope line.
    pub fn seal(&mut self, rotate_after: bool) -> io::Result<String> {
        let epoch = self.checker.seal_epoch_guarded();
        self.txns_since_seal = 0;
        self.events_since_seal = 0;
        self.epoch_opened = None;
        let line = self.envelope(&epoch);
        if let Some(store) = &mut self.store {
            store.append_verdict(&line)?;
            // A seal is a natural consistency point: fold it into the
            // snapshot so a restart replays as little as possible.
            if rotate_after && self.events_since_snapshot > 0 {
                self.rotate()?;
            }
        }
        Ok(line)
    }

    /// Watchdog hook: force a seal when the open epoch is older than
    /// `max` and has events buffered.
    pub fn maybe_force_seal(&mut self, max: Duration) -> io::Result<Option<String>> {
        match self.epoch_opened {
            Some(t0) if t0.elapsed() >= max => {
                self.forced_seals += 1;
                self.seal(true).map(Some)
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
        let line = self.envelope(&epoch);
        if let Some(store) = &mut self.store {
            let _ = store.append_verdict(&line);
            let _ = self.rotate();
        }
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
                self.checker.resident_bytes(),
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
        // pre-snapshot decode-level count (folded in at rotation), so
        // the sum equals an uninterrupted run's.
        self.checker.quarantined() + self.cli_quarantined
    }

    fn maybe_rotate(&mut self, cfg: &ServeConfig) -> io::Result<()> {
        if self.store.is_some() && self.events_since_snapshot >= cfg.snapshot_events.max(1) {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        let snap = self.checker.snapshot();
        let mut meta = SnapshotMeta::new(
            0, // overwritten by TenantStore::rotate
            snap.epoch,
            snap.quarantined + self.cli_quarantined,
            snap.events_this_epoch,
            self.txns_since_seal,
        );
        let budgeted = self.budget_seals > 0 || self.forced_window > 0 || self.over_soft;
        if snap.window.is_some() || budgeted {
            let carry = BudgetCarry {
                window: snap.window.clone(),
                budget_seals: self.budget_seals,
                forced_window: self.forced_window,
                over_soft: self.over_soft,
            };
            meta.window = Some(serde::Serialize::serialize(&carry));
        }
        let store = self.store.as_mut().expect("rotate requires a store");
        store.rotate(meta, &snap.events)?;
        self.cli_quarantined = 0;
        self.events_since_snapshot = 0;
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
