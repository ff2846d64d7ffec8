//! Fuzz the NDJSON ingest pipeline with wire-level damage: truncation,
//! bit flips, swapped (re-ordered) lines, interleaved producers, and
//! mid-line split delivery. The properties under test:
//!
//! * no damaged input ever panics the decoder or the pairer, under
//!   either recovery policy;
//! * strict mode's abort and quarantine mode's diagnostics carry the
//!   *exact* line number and byte offset of the damage;
//! * quarantine mode always produces a history, and chunked delivery
//!   is byte-for-byte equivalent to one-shot delivery;
//! * only JSON whitespace may pad a line: other Unicode whitespace
//!   around it is damage at that line.

use elle_history::{
    events_from_ndjson_with, events_to_ndjson, EventKind, EventLog, IngestCause, Mop,
    NdjsonIngestor, ProcessId, RecoveryPolicy,
};
use proptest::prelude::*;

/// Drive a per-process state machine so the stream is always valid:
/// each step either opens an invocation on a process or closes the one
/// it has open. Leftover opens are legal (indeterminate transactions).
fn build_log(steps: &[(u32, u8)]) -> EventLog {
    let mut log = EventLog::new();
    let mut open: std::collections::HashMap<u32, Vec<Mop>> = Default::default();
    let mut elem = 0u64;
    for &(p, flavor) in steps {
        match open.remove(&p) {
            None => {
                let mops = match flavor % 3 {
                    0 => vec![Mop::read(u64::from(p) % 4)],
                    1 => {
                        elem += 1;
                        vec![Mop::append(u64::from(p) % 4, elem)]
                    }
                    _ => {
                        elem += 1;
                        vec![Mop::append(3, elem), Mop::read(1)]
                    }
                };
                log.push(ProcessId(p), EventKind::Invoke, mops.clone());
                open.insert(p, mops);
            }
            Some(mops) => {
                let kind = match flavor % 3 {
                    0 => EventKind::Ok,
                    1 => EventKind::Fail,
                    _ => EventKind::Info,
                };
                let completed = mops
                    .iter()
                    .map(|m| match m {
                        Mop::Read { key, .. } => Mop::read_list(key.0, []),
                        other => other.clone(),
                    })
                    .collect();
                log.push(ProcessId(p), kind, completed);
            }
        }
    }
    log
}

fn arb_steps() -> impl Strategy<Value = Vec<(u32, u8)>> {
    prop::collection::vec((0u32..3, 0u8..=255), 4..40)
}

/// Byte offset where 1-based line `line` starts.
fn line_start(wire: &str, line: usize) -> usize {
    wire.split_inclusive('\n')
        .take(line - 1)
        .map(str::len)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncation (a torn final write) never panics; any error or
    /// diagnostic lands exactly on the cut line.
    #[test]
    fn truncation_is_localized_to_the_cut_line(steps in arb_steps(), cut_seed in 0usize..1 << 20) {
        let wire = events_to_ndjson(&build_log(&steps));
        let cut = cut_seed % wire.len().max(1);
        let torn = &wire[..cut];
        let cut_line = torn.matches('\n').count() + 1;

        // Decode-only layer, both policies.
        match events_from_ndjson_with(torn, RecoveryPolicy::Strict) {
            Ok((_, diags)) => prop_assert!(diags.is_empty()),
            Err(e) => {
                prop_assert_eq!(e.pos.line, cut_line);
                prop_assert_eq!(e.pos.byte, line_start(torn, cut_line));
                prop_assert!(matches!(e.cause, IngestCause::Decode { .. }));
            }
        }
        let (_, diags) = events_from_ndjson_with(torn, RecoveryPolicy::Quarantine).unwrap();
        prop_assert!(diags.len() <= 1, "a single cut damages at most one line");
        for d in &diags {
            prop_assert_eq!(d.error.pos.line, cut_line);
        }

        // Full pipeline (pairing included) must also survive.
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(torn).unwrap();
        let (h, _) = ing.finish();
        prop_assert!(h.len() <= build_log(&steps).pair().unwrap().len());
    }

    /// Space, tab and CR around a line are JSON whitespace and decode
    /// to the same log. A no-break space or U+2028 is not: the padded
    /// line is a decode error at its exact position under strict, and
    /// the one quarantined line under quarantine.
    #[test]
    fn only_json_whitespace_pads_a_line(steps in arb_steps(), at in 0usize..1 << 20, pad in 0usize..4) {
        let log = build_log(&steps);
        let wire = events_to_ndjson(&log);
        let line = at % wire.lines().count();
        let (front, back) = [(" \t", "\t\r"), ("", "\r"), ("\u{a0}", ""), ("", "\u{2028}")][pad];
        let padded: String = wire
            .lines()
            .enumerate()
            .map(|(i, l)| if i == line { format!("{front}{l}{back}\n") } else { format!("{l}\n") })
            .collect();
        let json_ws = pad < 2;
        match events_from_ndjson_with(&padded, RecoveryPolicy::Strict) {
            Ok((got, _)) => prop_assert!(json_ws && got == log),
            Err(e) => {
                prop_assert!(!json_ws);
                prop_assert_eq!(e.pos.line, line + 1);
                prop_assert_eq!(e.pos.byte, line_start(&padded, line + 1));
                prop_assert!(matches!(e.cause, IngestCause::Decode { .. }));
            }
        }
        let (_, diags) = events_from_ndjson_with(&padded, RecoveryPolicy::Quarantine).unwrap();
        prop_assert_eq!(diags.len(), usize::from(!json_ws));
    }

    /// A single flipped bit never panics either policy; quarantine
    /// always yields a history and positioned diagnostics.
    #[test]
    fn bit_flips_never_panic(steps in arb_steps(), at in 0usize..1 << 20, bit in 0u8..8) {
        let wire = events_to_ndjson(&build_log(&steps));
        let mut bytes = wire.clone().into_bytes();
        let i = at % bytes.len().max(1);
        bytes[i] ^= 1 << bit;
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        let n_lines = flipped.split_inclusive('\n').count();

        let _ = events_from_ndjson_with(&flipped, RecoveryPolicy::Strict);
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&flipped).unwrap();
        for d in ing.diagnostics() {
            prop_assert!(d.error.pos.line >= 1 && d.error.pos.line <= n_lines);
        }
        let (_, _) = ing.finish();

        let mut strict = NdjsonIngestor::new(RecoveryPolicy::Strict);
        let _ = strict.feed_str(&flipped);
    }

    /// Swapping two lines (re-ordered delivery) quarantines exactly the
    /// lines whose indices regressed — positions a+1..=b — as ordering
    /// violations at the decode layer.
    #[test]
    fn swapped_lines_quarantine_exactly_the_regressed_span(
        steps in arb_steps(),
        a_seed in 0usize..1 << 20,
        b_seed in 0usize..1 << 20,
    ) {
        let wire = events_to_ndjson(&build_log(&steps));
        let mut lines: Vec<&str> = wire.lines().collect();
        let n = lines.len();
        if n < 2 {
            return Ok(());
        }
        let a = a_seed % (n - 1);
        let b = a + 1 + b_seed % (n - a - 1);
        lines.swap(a, b);
        let swapped = lines.join("\n");

        let (log, diags) =
            events_from_ndjson_with(&swapped, RecoveryPolicy::Quarantine).unwrap();
        prop_assert_eq!(diags.len(), b - a, "one diagnostic per regressed line");
        for (k, d) in diags.iter().enumerate() {
            prop_assert_eq!(d.error.pos.line, a + 2 + k, "1-based lines a+1..=b");
            prop_assert_eq!(d.error.pos.byte, line_start(&swapped, a + 2 + k));
            prop_assert!(matches!(d.error.cause, IngestCause::Ordering { .. }));
        }
        // What survives is strictly increasing, so it pairs or
        // quarantines cleanly — never panics.
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&swapped).unwrap();
        prop_assert!(log.events().windows(2).all(|w| w[0].index < w[1].index));
    }

    /// Two producers interleaved into one file: quarantine recovers a
    /// strictly-increasing subsequence without panicking.
    #[test]
    fn interleaved_producers_never_panic(s1 in arb_steps(), s2 in arb_steps()) {
        let w1 = events_to_ndjson(&build_log(&s1));
        let w2 = events_to_ndjson(&build_log(&s2));
        let mut merged = String::new();
        let (mut i1, mut i2) = (w1.split_inclusive('\n'), w2.split_inclusive('\n'));
        loop {
            match (i1.next(), i2.next()) {
                (None, None) => break,
                (a, b) => {
                    if let Some(l) = a {
                        merged.push_str(l);
                    }
                    if let Some(l) = b {
                        merged.push_str(l);
                    }
                }
            }
        }
        let (log, _) = events_from_ndjson_with(&merged, RecoveryPolicy::Quarantine).unwrap();
        prop_assert!(log.events().windows(2).all(|w| w[0].index < w[1].index));
        let mut ing = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        ing.feed_str(&merged).unwrap();
        let _ = ing.finish();
    }

    /// Mid-line split delivery (a tail -f reader seeing partial writes,
    /// reassembling at newlines) is equivalent to one-shot delivery:
    /// same history, same diagnostics, same positions.
    #[test]
    fn chunked_delivery_equals_one_shot(steps in arb_steps(), chunk in 1usize..64) {
        let wire = events_to_ndjson(&build_log(&steps));

        let mut oneshot = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        oneshot.feed_str(&wire).unwrap();

        let mut chunked = NdjsonIngestor::new(RecoveryPolicy::Quarantine);
        let bytes = wire.as_bytes();
        let mut buf = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + chunk).min(bytes.len());
            // The wire is ASCII (serde_json escapes non-ASCII), so any
            // byte split is a char split.
            buf.push_str(std::str::from_utf8(&bytes[i..end]).unwrap());
            while let Some(nl) = buf.find('\n') {
                let line: String = buf.drain(..=nl).collect();
                chunked.feed_line(&line).unwrap();
            }
            i = end;
        }
        if !buf.is_empty() {
            chunked.feed_line(&buf).unwrap();
        }

        let (h1, d1) = oneshot.finish();
        let (h2, d2) = chunked.finish();
        prop_assert_eq!(h1, h2);
        prop_assert_eq!(d1, d2);
    }
}
