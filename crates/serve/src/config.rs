//! Service configuration: scheduling, watermarks, budgets, durability.

use elle_core::CheckOptions;
use elle_history::RecoveryPolicy;
use elle_stream::WindowPolicy;
use std::path::PathBuf;
use std::time::Duration;

/// Everything `elle-serve` needs to run: the judging options shared by
/// every tenant, the worker-pool shape, epoch watermarks, admission
/// budgets, and the durability root.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Check options every tenant is judged against.
    pub opts: CheckOptions,
    /// Ingest recovery policy. The service defaults to
    /// [`RecoveryPolicy::Quarantine`]: a damaged line degrades its
    /// tenant's inferences, it does not kill the tenant. Under
    /// [`RecoveryPolicy::Strict`] the first violation marks the tenant
    /// **failed** (subsequent lines are rejected); other tenants are
    /// unaffected either way.
    pub recovery: RecoveryPolicy,
    /// Worker threads. Tenants are sharded across workers by name hash;
    /// one tenant is always served by one worker (serial per tenant,
    /// parallel across tenants, no locks around checkers).
    pub workers: usize,
    /// Seal a tenant's epoch every this many newly invoked
    /// transactions.
    pub epoch_txns: Option<usize>,
    /// Seal a tenant's epoch every this many ingested events.
    pub epoch_events: Option<usize>,
    /// Watchdog: force a seal when a tenant's epoch has stayed open
    /// this long with events buffered (a stalled producer cannot leave
    /// ingested events unreported). Forced seals shift epoch numbering
    /// between runs, so leave this off for byte-differential testing.
    pub max_epoch: Option<Duration>,
    /// Journal lines between durable checkpoints: a tenant that goes
    /// this many lines without a seal appends and `fsync`s a checkpoint
    /// anyway, bounding what a restart replays through the live path
    /// (and what power loss can take).
    pub snapshot_events: usize,
    /// Reject any single request line larger than this many bytes.
    pub max_line_bytes: usize,
    /// Per-tenant buffered-byte budget: lines admitted but not yet
    /// processed. Exceeding it is a per-tenant `429` reject.
    pub max_tenant_bytes: usize,
    /// Global buffered-byte budget across all tenants — the service
    /// degrades with explicit rejects instead of growing without bound.
    pub max_total_bytes: usize,
    /// Maximum number of live tenants.
    pub max_tenants: usize,
    /// Retirement window every tenant's checker starts under.
    /// `Unbounded` keeps the full prefix resident (the pre-windowing
    /// behavior). A tenant whose snapshot carries a tighter policy —
    /// e.g. one forced by the budget ladder — keeps that policy across
    /// restarts.
    pub window: WindowPolicy,
    /// Per-tenant **resident**-byte budget: the checker's carried state
    /// (paired prefix, version tables, dependency spine), as opposed to
    /// [`max_tenant_bytes`](ServeConfig::max_tenant_bytes), which caps
    /// buffered-but-unprocessed lines. Soft rung at 3/4 of the budget:
    /// a forced retirement seal. Hard rung at the budget: the
    /// `forced-window` degradation — tighten the tenant's window and
    /// keep serving — before any reject.
    pub max_tenant_resident_bytes: Option<usize>,
    /// Durability root. `None` runs ephemeral (no snapshots, no
    /// journals, no recovery on restart).
    pub data_dir: Option<PathBuf>,
    /// Test hook: make the named tenant's seal of the given epoch
    /// ordinal panic, to exercise poisoned-epoch isolation.
    pub inject_seal_panic: Option<(String, usize)>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            opts: CheckOptions::strict_serializable()
                .with_process_edges(false)
                .with_realtime_edges(false),
            recovery: RecoveryPolicy::Quarantine,
            workers: 4,
            epoch_txns: Some(1000),
            epoch_events: None,
            max_epoch: None,
            snapshot_events: 4096,
            max_line_bytes: 1 << 20,
            max_tenant_bytes: 4 << 20,
            max_total_bytes: 64 << 20,
            max_tenants: 1024,
            window: WindowPolicy::Unbounded,
            max_tenant_resident_bytes: None,
            data_dir: None,
            inject_seal_panic: None,
        }
    }
}

impl ServeConfig {
    /// Does the given counter state hit an epoch watermark?
    pub(crate) fn watermark_due(&self, txns_since: usize, events_since: usize) -> bool {
        self.epoch_txns.is_some_and(|n| txns_since >= n.max(1))
            || self.epoch_events.is_some_and(|n| events_since >= n.max(1))
    }
}

/// A tenant id usable as a path component and embeddable in JSON
/// without escaping: 1–64 chars from `[A-Za-z0-9._-]`, not starting
/// with a dot.
pub fn valid_tenant_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && !s.starts_with('.')
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}
