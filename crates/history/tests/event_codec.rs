//! Differential suite for the NDJSON event-line codec: the direct
//! writer and reader against the derived serde path they replace.
//!
//! * **Writer:** `event_to_json` appends exactly the bytes
//!   `serde_json::to_string` writes, for arbitrary events.
//! * **Reader:** for any input, `event_from_json` returns exactly what
//!   `serde_json::from_str::<Event>` returns — the same `Ok` value, or
//!   an `Err` with the same text. Inputs start from canonical lines and
//!   are re-rendered with whitespace, reordered keys, unknown and
//!   duplicate keys, escaped keys and variant names, and numbers the
//!   writer-layout lane refuses (`1.0`, `-0`, out of range); then
//!   truncated and bit-flipped. Two systematic variations reach every
//!   point where a line departs from the lane for the generic path: one
//!   space at each token boundary, and each pair of keys swapped.
//! * **Exact lengths:** a loaded history's mops and list reads carry no
//!   spare capacity, whichever tier decoded them.

use elle_history::{
    event_from_json, event_to_json, Elem, Event, EventKind, Mop, NdjsonIngestor, ProcessId,
    ReadValue, RecoveryPolicy,
};
use proptest::prelude::*;
use serde::{Serialize, Value};

// ── Arbitrary events ────────────────────────────────────────────────────

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, any::<u64>(), Just(u64::MAX), Just(0)]
}

fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![-8i64..8, any::<i64>(), Just(i64::MIN), Just(i64::MAX)]
}

/// Mostly short lists; one in four long.
fn arb_elems() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(arb_u64(), 0..4),
        prop::collection::vec(arb_u64(), 0..4),
        prop::collection::vec(arb_u64(), 0..4),
        prop::collection::vec(0u64..1000, 100..300),
    ]
}

fn arb_read_value() -> impl Strategy<Value = ReadValue> {
    prop_oneof![
        arb_elems().prop_map(ReadValue::list),
        prop::option::of(arb_u64()).prop_map(|e| ReadValue::Register(e.map(Elem))),
        arb_i64().prop_map(ReadValue::Counter),
        arb_elems().prop_map(ReadValue::set),
    ]
}

fn arb_mop() -> impl Strategy<Value = Mop> {
    prop_oneof![
        (arb_u64(), arb_u64()).prop_map(|(k, e)| Mop::append(k, e)),
        (arb_u64(), arb_u64()).prop_map(|(k, e)| Mop::write(k, e)),
        (arb_u64(), arb_i64()).prop_map(|(k, a)| Mop::increment(k, a)),
        (arb_u64(), arb_u64()).prop_map(|(k, e)| Mop::add_to_set(k, e)),
        (arb_u64(), prop::option::of(arb_read_value())).prop_map(|(k, value)| Mop::Read {
            key: elle_history::Key(k),
            value,
        }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        prop_oneof![0usize..1000, any::<usize>()],
        prop_oneof![0u32..8, Just(u32::MAX), any::<u32>()],
        0u8..4,
        prop::collection::vec(arb_mop(), 0..8),
        prop::option::of(arb_u64()),
    )
        .prop_map(|(index, process, kind, mops, time_ns)| Event {
            index,
            process: ProcessId(process),
            kind: [
                EventKind::Invoke,
                EventKind::Ok,
                EventKind::Fail,
                EventKind::Info,
            ][usize::from(kind)],
            mops,
            time_ns,
        })
}

fn canonical(ev: &Event) -> String {
    let mut line = String::new();
    event_to_json(ev, &mut line);
    line
}

/// The reader's contract, on any input.
fn assert_same_decode(line: &str) -> Result<(), String> {
    let want = serde_json::from_str::<Event>(line);
    let got = event_from_json(line);
    prop_assert_eq!(got, want, "input: {line}");
    Ok(())
}

// ── Re-rendering a line with mutations ──────────────────────────────────

/// SplitMix64, so one generated seed drives every rendering choice.
struct Dice(u64);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.roll().is_multiple_of(n)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.roll() % n as u64) as usize
    }
}

/// Which liberties a re-rendering takes.
#[derive(Clone, Copy, Default)]
struct Style {
    /// JSON whitespace between tokens.
    ws: bool,
    /// Object keys shuffled.
    reorder: bool,
    /// Unknown and duplicate keys.
    extra_keys: bool,
    /// `\u00XX` escapes in keys, variant names and strings.
    escapes: bool,
    /// Numbers the lane refuses, or boundary values.
    numbers: bool,
}

fn render(v: &Value, style: Style, dice: &mut Dice, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => number(&n.to_string(), style, dice, out),
        Value::Int(n) => number(&n.to_string(), style, dice, out),
        Value::Float(_) => unreachable!("events hold no floats"),
        Value::Str(s) => string(s, style, dice, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    ws(style, dice, out);
                    out.push(',');
                }
                ws(style, dice, out);
                render(item, style, dice, out);
            }
            ws(style, dice, out);
            out.push(']');
        }
        Value::Map(entries) => {
            let mut entries = entries.clone();
            if style.reorder {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, dice.below(i + 1));
                }
            }
            if style.extra_keys && !entries.is_empty() && dice.one_in(3) {
                let at = dice.below(entries.len() + 1);
                if dice.one_in(2) {
                    entries.insert(at, ("extra".to_string(), Value::UInt(1)));
                } else {
                    // A duplicate, sometimes with a different value.
                    let (k, v) = entries[dice.below(entries.len())].clone();
                    let v = match v {
                        Value::UInt(n) if dice.one_in(2) => Value::UInt(n.wrapping_add(1)),
                        other => other,
                    };
                    entries.insert(at, (k, v));
                }
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    ws(style, dice, out);
                    out.push(',');
                }
                ws(style, dice, out);
                string(k, style, dice, out);
                ws(style, dice, out);
                out.push(':');
                ws(style, dice, out);
                render(item, style, dice, out);
            }
            ws(style, dice, out);
            out.push('}');
        }
    }
}

fn ws(style: Style, dice: &mut Dice, out: &mut String) {
    if style.ws && dice.one_in(3) {
        for _ in 0..=dice.below(3) {
            out.push([' ', '\t', '\n', '\r'][dice.below(4)]);
        }
    }
}

fn string(s: &str, style: Style, dice: &mut Dice, out: &mut String) {
    out.push('"');
    let escape_at = (style.escapes && !s.is_empty() && dice.one_in(3)).then(|| dice.below(s.len()));
    for (i, c) in s.chars().enumerate() {
        if Some(i) == escape_at {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

fn number(text: &str, style: Style, dice: &mut Dice, out: &mut String) {
    if !(style.numbers && dice.one_in(4)) {
        out.push_str(text);
        return;
    }
    match dice.below(6) {
        0 => out.push_str(&format!("{text}.0")),
        1 => out.push_str(&format!("{text}e0")),
        2 => out.push_str(&format!("0{text}")),
        3 => out.push_str(if text == "0" { "-0" } else { "-1" }),
        _ => out.push_str(
            [
                "4294967295",
                "4294967296",
                "9223372036854775807",
                "9223372036854775808",
                "-9223372036854775808",
                "-9223372036854775809",
                "18446744073709551615",
                "18446744073709551616",
            ][dice.below(8)],
        ),
    }
}

fn rerender(ev: &Event, style: Style, seed: u64) -> String {
    let mut out = String::new();
    render(&ev.serialize(), style, &mut Dice(seed), &mut out);
    out
}

/// `line` with one space inserted at each token boundary in turn, the
/// line's two ends included. Canonical lines hold no whitespace and no
/// escapes, so every token is a punctuation byte, a string, or a run of
/// number or `null` bytes.
fn spaced_at_each_boundary(line: &str) -> Vec<String> {
    let b = line.as_bytes();
    let mut starts = Vec::new();
    let mut i = 0;
    while i < b.len() {
        starts.push(i);
        i += match b[i] {
            b'"' => 2 + b[i + 1..].iter().position(|&c| c == b'"').expect("closed"),
            c if c.is_ascii_alphanumeric() || c == b'-' => b[i..]
                .iter()
                .take_while(|c| c.is_ascii_alphanumeric() || **c == b'-')
                .count(),
            _ => 1,
        };
    }
    starts.push(b.len());
    starts
        .into_iter()
        .map(|at| format!("{} {}", &line[..at], &line[at..]))
        .collect()
}

/// `v` with one pair of keys of one object swapped, for every object
/// and every pair.
fn key_swaps(v: &Value) -> Vec<Value> {
    let mut out = Vec::new();
    match v {
        Value::Map(entries) => {
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    let mut swapped = entries.clone();
                    swapped.swap(i, j);
                    out.push(Value::Map(swapped));
                }
            }
            for (k, (_, child)) in entries.iter().enumerate() {
                for c in key_swaps(child) {
                    let mut e = entries.clone();
                    e[k].1 = c;
                    out.push(Value::Map(e));
                }
            }
        }
        Value::Array(items) => {
            for (k, item) in items.iter().enumerate() {
                for c in key_swaps(item) {
                    let mut a = items.clone();
                    a[k] = c;
                    out.push(Value::Array(a));
                }
            }
        }
        _ => {}
    }
    out
}

/// Every single-space and single-swap variation of `ev`'s canonical
/// line decodes as the derived path does, and to `ev`.
fn assert_variations_agree(ev: &Event) -> Result<(), String> {
    let line = canonical(ev);
    let mut lines = spaced_at_each_boundary(&line);
    for swapped in key_swaps(&ev.serialize()) {
        let mut out = String::new();
        render(&swapped, Style::default(), &mut Dice(0), &mut out);
        lines.push(out);
    }
    for line in &lines {
        assert_same_decode(line)?;
        prop_assert_eq!(event_from_json(line).as_ref(), Ok(ev), "input: {}", line);
    }
    Ok(())
}

// ── Properties ──────────────────────────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The writer's bytes are the derived serializer's.
    #[test]
    fn writer_matches_serde(ev in arb_event()) {
        prop_assert_eq!(canonical(&ev), serde_json::to_string(&ev).unwrap());
    }

    /// Canonical lines decode to the event that wrote them.
    #[test]
    fn canonical_lines_round_trip(ev in arb_event()) {
        let line = canonical(&ev);
        assert_same_decode(&line)?;
        prop_assert_eq!(event_from_json(&line).unwrap(), ev);
    }

    /// Whitespace and key order change nothing.
    #[test]
    fn layout_is_free(ev in arb_event(), seed in any::<u64>()) {
        let style = Style { ws: true, reorder: true, ..Style::default() };
        let line = rerender(&ev, style, seed);
        assert_same_decode(&line)?;
        prop_assert_eq!(event_from_json(&line).unwrap(), ev);
    }

    /// Unknown and duplicate keys decode as the generic path decodes them.
    #[test]
    fn extra_and_duplicate_keys_agree(ev in arb_event(), seed in any::<u64>()) {
        let style = Style { extra_keys: true, reorder: true, ..Style::default() };
        assert_same_decode(&rerender(&ev, style, seed))?;
    }

    /// Escaped keys, variant names and kinds agree.
    #[test]
    fn escapes_agree(ev in arb_event(), seed in any::<u64>()) {
        let style = Style { escapes: true, ws: true, ..Style::default() };
        assert_same_decode(&rerender(&ev, style, seed))?;
    }

    /// `1.0`, `1e0`, leading zeros, `-0` and boundary values agree,
    /// errors included.
    #[test]
    fn numbers_agree(ev in arb_event(), seed in any::<u64>()) {
        let style = Style { numbers: true, ..Style::default() };
        assert_same_decode(&rerender(&ev, style, seed))?;
    }

    /// Everything at once, then truncations of the result: every cut
    /// of a short line, 64 spread over a long one.
    #[test]
    fn truncations_agree(ev in arb_event(), seed in any::<u64>()) {
        let style = Style { ws: true, reorder: true, extra_keys: true, escapes: true, numbers: true };
        let line = rerender(&ev, style, seed);
        assert_same_decode(&line)?;
        let cuts: Vec<usize> = line.char_indices().map(|(at, _)| at).collect();
        for cut in cuts.iter().step_by(cuts.len() / 64 + 1) {
            assert_same_decode(&line[..*cut])?;
        }
    }

    /// One space at any token boundary, or any one pair of keys
    /// swapped, changes nothing.
    #[test]
    fn every_single_space_and_swap_agrees(ev in arb_event()) {
        assert_variations_agree(&ev)?;
    }

    /// A single flipped bit anywhere agrees, whenever the result is
    /// still text.
    #[test]
    fn bit_flips_agree(ev in arb_event(), at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = canonical(&ev).into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok(line) = String::from_utf8(bytes) {
            assert_same_decode(&line)?;
        }
    }
}

// ── Pinned cases ────────────────────────────────────────────────────────

fn every_variant() -> Vec<Event> {
    let mops = vec![
        Mop::append(0, u64::MAX),
        Mop::write(u64::MAX, 1),
        Mop::increment(2, i64::MIN),
        Mop::increment(2, i64::MAX),
        Mop::add_to_set(3, 4),
        Mop::read(5),
        Mop::read_list(6, []),
        Mop::read_list(6, 0..500),
        Mop::read_register(7, None),
        Mop::read_register(7, Some(u64::MAX)),
        Mop::read_counter(8, i64::MIN),
        Mop::read_counter(8, i64::MAX),
        Mop::read_set(9, []),
        Mop::read_set(9, [5, 1, 3]),
    ];
    vec![
        Event {
            index: 0,
            process: ProcessId(u32::MAX),
            kind: EventKind::Invoke,
            mops: mops.iter().map(Mop::to_invocation).collect(),
            time_ns: None,
        },
        Event {
            index: usize::MAX,
            process: ProcessId(0),
            kind: EventKind::Ok,
            mops,
            time_ns: Some(u64::MAX),
        },
        Event {
            index: 2,
            process: ProcessId(1),
            kind: EventKind::Fail,
            mops: vec![],
            time_ns: Some(0),
        },
        Event {
            index: 3,
            process: ProcessId(1),
            kind: EventKind::Info,
            mops: vec![Mop::read(1)],
            time_ns: None,
        },
    ]
}

#[test]
fn every_variant_and_boundary_round_trips() {
    for ev in every_variant() {
        let line = canonical(&ev);
        assert_eq!(line, serde_json::to_string(&ev).unwrap());
        assert_eq!(event_from_json(&line), Ok(ev.clone()));
        assert_eq!(event_from_json(&line), serde_json::from_str::<Event>(&line));
    }
}

#[test]
fn pinned_refusals_keep_the_generic_messages() {
    let ok = r#"{"index":1,"process":0,"kind":"Ok","mops":[],"time_ns":null}"#;
    for (line, message) in [
        (ok.replace("1,", "1.0,"), Some("expected usize")),
        (ok.replace("1,", "-0,"), None),
        (
            ok.replace("1,", "18446744073709551616,"),
            Some("expected usize"),
        ),
        (ok.replace("0,", "4294967296,"), Some("u32 out of range")),
        (
            ok.replace("\"Ok\"", "\"Okk\""),
            Some("unknown variant `Okk` for EventKind"),
        ),
        (ok.replace("\"Ok\"", "\"\\u004fk\""), None),
        (ok.replace("{\"index\"", "{\"ind\\u0065x\""), None),
        (ok.replace("null}", "null,\"index\":2}"), None),
        (
            ok.replace("null}", "null} x"),
            Some("trailing characters at byte 61"),
        ),
        (
            ok.replace(
                "[]",
                r#"[{"Increment":{"key":1,"amount":9223372036854775808}}]"#,
            ),
            Some("i64 out of range"),
        ),
        (
            ok.replace("[]", r#"[{"Read":{"key":1,"value":{"Set":[2,1,2]}}}]"#),
            None,
        ),
    ] {
        let want = serde_json::from_str::<Event>(&line);
        assert_eq!(event_from_json(&line), want, "{line}");
        match (message, &want) {
            (Some(m), Err(e)) => assert_eq!(e.to_string(), m, "{line}"),
            (None, Ok(_)) => {}
            _ => panic!("{line}: unexpected generic result {want:?}"),
        }
    }
}

#[test]
fn every_variant_survives_every_single_space_and_swap() {
    for ev in every_variant() {
        assert_variations_agree(&ev).unwrap();
    }
}

/// A paired log of list-append transactions whose reads grow.
fn list_log(txns: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for t in 0..txns {
        let (key, process) = ((t % 3) as u64, ProcessId((t % 4) as u32));
        let read: Vec<u64> = (0..t as u64).filter(|e| e % 3 == key).collect();
        for (kind, value) in [(EventKind::Invoke, None), (EventKind::Ok, Some(read))] {
            let mut mops = vec![Mop::append(key, t as u64)];
            mops.push(match value {
                None => Mop::read(key),
                Some(read) => Mop::read_list(key, read),
            });
            events.push(Event {
                index: events.len(),
                process,
                kind,
                mops,
                time_ns: None,
            });
        }
    }
    events
}

/// The lane copies mops and list reads out of its scratch at exact
/// length, the generic path shrinks them, and pairing moves them, so a
/// loaded history holds no spare capacity — in the writer's layout, and
/// in the two off-layout wires the generic path decodes.
#[test]
fn loaded_histories_hold_vectors_at_exact_length() {
    let compact: String = list_log(200)
        .iter()
        .map(|ev| canonical(ev) + "\n")
        .collect();
    for wire in [
        compact.clone(),
        compact.replace(',', ", ").replace(':', ": "),
        compact.replace("\"key\":", "\"key\": "),
    ] {
        let mut ingestor = NdjsonIngestor::new(RecoveryPolicy::Strict);
        ingestor.feed_str(&wire).unwrap();
        let (history, _) = ingestor.finish();
        assert_eq!(history.len(), 200);
        for t in history.txns() {
            assert_eq!(t.mops.capacity(), t.mops.len(), "{t:?}");
            for m in &t.mops {
                if let Mop::Read {
                    value: Some(ReadValue::List(elems)),
                    ..
                } = m
                {
                    assert_eq!(elems.capacity(), elems.len(), "{m}");
                }
            }
        }
    }
}
