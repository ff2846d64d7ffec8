//! The verdict envelope's variable fields: the one-line JSON object
//! `elle-stream --json` and `elle-serve` print per sealed epoch carries
//! an `ok` that a poisoned seal turns to `null`, and a tail of gauges
//! that appear only when nonzero or set, so a healthy stream's
//! envelopes stay byte-stable.

use crate::{EpochReport, WindowStats};
use std::fmt::Write;

/// An envelope's gauge tail, written in this field order by
/// [`Gauges::write`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges<'a> {
    /// The panic message of a poisoned seal.
    pub poisoned: Option<&'a str>,
    /// Events quarantined since stream start.
    pub quarantined: usize,
    /// Seals the stalled-epoch watchdog forced.
    pub forced_seals: usize,
    /// Retirement seals a resident-byte budget forced.
    pub budget_seals: usize,
    /// Times a resident-byte budget tightened the window.
    pub forced_window: usize,
    /// Window gauges, when a bounded window policy is active.
    pub window: Option<WindowStats>,
}

impl Gauges<'_> {
    /// Append the set gauges to `out`, each as `,"name":value`.
    pub fn write(&self, out: &mut String) {
        if let Some(m) = self.poisoned {
            out.push_str(",\"poisoned\":");
            out.push_str(&serde_json::to_string(m).expect("string serializes"));
        }
        for (name, n) in [
            ("quarantined", self.quarantined),
            ("forced_seals", self.forced_seals),
            ("budget_seals", self.budget_seals),
            ("forced_window", self.forced_window),
        ] {
            if n > 0 {
                let _ = write!(out, ",\"{name}\":{n}");
            }
        }
        if let Some(w) = &self.window {
            let _ = write!(
                out,
                ",\"window\":{{\"retired_txns\":{},\"retained_txns\":{},\"resident_bytes\":{},\"exact\":{}}}",
                w.retired_txns, w.retained_txns, w.resident_bytes, w.exact,
            );
        }
    }
}

impl EpochReport {
    /// The envelope's `ok` field: `null` when the seal was poisoned,
    /// since that epoch's verdict is indeterminate.
    pub fn ok_json(&self) -> &'static str {
        match (&self.poisoned, self.report.ok()) {
            (Some(_), _) => "null",
            (None, true) => "true",
            (None, false) => "false",
        }
    }

    /// The gauges this epoch carries itself: its poison message,
    /// quarantine count and window. The seal counts a driver forced
    /// are the driver's to add.
    pub fn gauges(&self) -> Gauges<'_> {
        Gauges {
            poisoned: self.poisoned.as_deref(),
            quarantined: self.frontier.quarantined_events,
            window: self.window,
            ..Gauges::default()
        }
    }
}
