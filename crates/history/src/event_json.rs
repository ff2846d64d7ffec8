//! The NDJSON event-line codec: one [`Event`] to and from one JSON
//! line, without building the serde `Value` tree in between.
//!
//! The contract is the derived serde representation, byte for byte:
//!
//! * [`event_to_json`] appends exactly the bytes
//!   `serde_json::to_string(ev)` writes;
//! * [`event_from_json`] returns exactly what
//!   `serde_json::from_str::<Event>(s)` returns — the same `Ok` value
//!   and the same `Err` text.
//!
//! The reader has two tiers, tried in order, with one result:
//!
//! 1. **The writer-layout lane** matches the exact bytes the writer
//!    produces. Its literals (`{"index":`, `{"Append":{"key":`,
//!    `{"List":[`, …) come from the one table the writer writes from,
//!    so the two cannot drift, and it reads numbers in place: up to 19
//!    digits without overflow checks, because 19 digits cannot exceed
//!    `u64::MAX`, and a 20th digit with them. Every line
//!    [`event_to_json`] writes decodes here. It builds list elements
//!    and the event's mops in scratch buffers reused across lines (one
//!    set per thread) and copies them out at their exact length.
//! 2. **The generic derived path** takes the whole line at the first
//!    byte that departs from that layout, anywhere in it: whitespace,
//!    keys in another order, escapes, unknown or duplicate keys,
//!    fractions and exponents, `-0` in unsigned fields, overflow and
//!    trailing bytes. It is the only source of error messages. Its
//!    vectors are shrunk to their length, so a decoded event holds no
//!    spare capacity whichever tier read it.
//!
//! A new [`Mop`] or [`ReadValue`] variant must be added to the writer
//! and the lane here (and to `tests/event_codec.rs`). The writer's
//! match is exhaustive, so the compiler flags it there;
//! `the_lane_reads_every_variant_without_a_restart` fails until the
//! lane reads it too.

use crate::{Elem, Event, EventKind, Key, Mop, ProcessId, ReadValue};
use std::cell::Cell;

/// Append `ev` as one compact JSON object — exactly the bytes
/// `serde_json::to_string(ev)` writes — with no trailing newline.
pub fn event_to_json(ev: &Event, out: &mut String) {
    // Destructured, so a new field cannot be left out silently.
    let Event {
        index,
        process,
        kind,
        mops,
        time_ns,
    } = ev;
    out.push_str(lit::INDEX);
    push_u64(out, *index as u64);
    out.push_str(lit::PROCESS);
    push_u64(out, u64::from(process.0));
    out.push_str(lit::KIND);
    out.push_str(kind_name(*kind));
    out.push_str(lit::MOPS);
    for (i, m) in mops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_mop(out, m);
    }
    out.push(']');
    out.push_str(lit::TIME_NS);
    match *time_ns {
        Some(t) => push_u64(out, t),
        None => out.push_str(lit::NULL),
    }
    out.push_str(lit::END);
}

/// Decode one event line: exactly `serde_json::from_str::<Event>(s)`,
/// without the `Value` tree when the line is in the writer's layout.
pub fn event_from_json(s: &str) -> Result<Event, serde_json::Error> {
    let mut reader = Reader::with_scratch(s, SCRATCH.take());
    let ev = reader.document();
    SCRATCH.set(reader.scratch);
    match ev {
        Some(ev) => Ok(ev),
        None => serde_json::from_str(s).map(exact_length),
    }
}

// ── The layout table ────────────────────────────────────────────────────

/// The compact layout's literals: the writer writes exactly these and
/// the lane matches exactly these.
mod lit {
    pub const INDEX: &str = "{\"index\":";
    pub const PROCESS: &str = ",\"process\":";
    pub const KIND: &str = ",\"kind\":\"";
    pub const MOPS: &str = "\",\"mops\":[";
    pub const TIME_NS: &str = ",\"time_ns\":";
    pub const END: &str = "}";
    pub const NULL: &str = "null";

    /// Each mop variant's opening, through its key's colon.
    pub const APPEND: &str = "{\"Append\":{\"key\":";
    pub const WRITE: &str = "{\"Write\":{\"key\":";
    pub const INCREMENT: &str = "{\"Increment\":{\"key\":";
    pub const ADD_TO_SET: &str = "{\"AddToSet\":{\"key\":";
    pub const READ: &str = "{\"Read\":{\"key\":";
    /// A mop's second field, after its key.
    pub const ELEM: &str = ",\"elem\":";
    pub const AMOUNT: &str = ",\"amount\":";
    pub const VALUE: &str = ",\"value\":";
    pub const MOP_END: &str = "}}";

    /// Each read value's opening; lists and sets through their `[`.
    pub const LIST: &str = "{\"List\":[";
    pub const SET: &str = "{\"Set\":[";
    pub const REGISTER: &str = "{\"Register\":";
    pub const COUNTER: &str = "{\"Counter\":";
    pub const VALUE_END: &str = "}";
}

const KINDS: [EventKind; 4] = [
    EventKind::Invoke,
    EventKind::Ok,
    EventKind::Fail,
    EventKind::Info,
];

fn kind_name(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Invoke => "Invoke",
        EventKind::Ok => "Ok",
        EventKind::Fail => "Fail",
        EventKind::Info => "Info",
    }
}

// ── Writing ─────────────────────────────────────────────────────────────

fn push_mop(out: &mut String, m: &Mop) {
    match m {
        Mop::Append { key, elem } => push_keyed(out, lit::APPEND, *key, lit::ELEM, elem.0),
        Mop::Write { key, elem } => push_keyed(out, lit::WRITE, *key, lit::ELEM, elem.0),
        Mop::AddToSet { key, elem } => push_keyed(out, lit::ADD_TO_SET, *key, lit::ELEM, elem.0),
        Mop::Increment { key, amount } => {
            out.push_str(lit::INCREMENT);
            push_u64(out, key.0);
            out.push_str(lit::AMOUNT);
            push_i64(out, *amount);
        }
        Mop::Read { key, value } => {
            out.push_str(lit::READ);
            push_u64(out, key.0);
            out.push_str(lit::VALUE);
            match value {
                None => out.push_str(lit::NULL),
                Some(v) => push_read_value(out, v),
            }
        }
    }
    out.push_str(lit::MOP_END);
}

/// A mop whose two fields are both unsigned: `head`, key, `field`, `n`.
fn push_keyed(out: &mut String, head: &str, key: Key, field: &str, n: u64) {
    out.push_str(head);
    push_u64(out, key.0);
    out.push_str(field);
    push_u64(out, n);
}

fn push_read_value(out: &mut String, v: &ReadValue) {
    match v {
        ReadValue::List(elems) => {
            out.push_str(lit::LIST);
            push_elems(out, elems);
        }
        ReadValue::Set(elems) => {
            out.push_str(lit::SET);
            push_elems(out, elems);
        }
        ReadValue::Register(e) => {
            out.push_str(lit::REGISTER);
            match e {
                Some(e) => push_u64(out, e.0),
                None => out.push_str(lit::NULL),
            }
        }
        ReadValue::Counter(n) => {
            out.push_str(lit::COUNTER);
            push_i64(out, *n);
        }
    }
    out.push_str(lit::VALUE_END);
}

/// An array's elements after its `[`, through its `]`.
fn push_elems<'a>(out: &mut String, elems: impl IntoIterator<Item = &'a Elem>) {
    for (i, e) in elems.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, e.0);
    }
    out.push(']');
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

// ── Reading ─────────────────────────────────────────────────────────────

/// The most digits a `u64` always holds: `10^19 - 1 < u64::MAX`.
const SAFE_DIGITS: usize = 19;

/// Buffers that outlive one line, so decoding a line allocates only
/// the exact-length vectors it returns.
#[derive(Debug, Default)]
struct Scratch {
    mops: Vec<Mop>,
    elems: Vec<Elem>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Drop the spare capacity the generic path's growing vectors keep, so
/// a decoded event holds none, whichever tier read it.
fn exact_length(mut ev: Event) -> Event {
    ev.mops.shrink_to_fit();
    for m in &mut ev.mops {
        if let Mop::Read {
            value: Some(ReadValue::List(elems)),
            ..
        } = m
        {
            elems.shrink_to_fit();
        }
    }
    ev
}

/// A cursor over one line in the writer's layout. Every method returns
/// `None` at the first byte that departs from that layout, and the
/// caller sends the whole line to the generic path, so `None` never
/// needs a reason.
struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    scratch: Scratch,
}

impl<'a> Reader<'a> {
    #[cfg(test)]
    fn new(s: &'a str) -> Self {
        Reader::with_scratch(s, Scratch::default())
    }

    fn with_scratch(s: &'a str, scratch: Scratch) -> Self {
        Reader {
            b: s.as_bytes(),
            i: 0,
            scratch,
        }
    }

    /// The whole input as one event in the writer's layout, with
    /// nothing but JSON whitespace after it.
    fn document(&mut self) -> Option<Event> {
        let ev = self.lane_event()?;
        self.b[self.i..]
            .iter()
            .all(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
            .then_some(ev)
    }

    fn lane_event(&mut self) -> Option<Event> {
        self.lit(lit::INDEX)?;
        let index = usize::try_from(self.lane_u64()?).ok()?;
        self.lit(lit::PROCESS)?;
        let process = ProcessId(u32::try_from(self.lane_u64()?).ok()?);
        self.lit(lit::KIND)?;
        let kind = KINDS
            .into_iter()
            .find(|&k| self.lit(kind_name(k)).is_some())?;
        self.lit(lit::MOPS)?;
        self.scratch.mops.clear();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
        } else {
            loop {
                let mop = self.lane_mop()?;
                self.scratch.mops.push(mop);
                match self.bump()? {
                    b',' => {}
                    b']' => break,
                    _ => return None,
                }
            }
        }
        let mops = self.scratch.mops.drain(..).collect();
        self.lit(lit::TIME_NS)?;
        let time_ns = match self.lit(lit::NULL) {
            Some(()) => None,
            None => Some(self.lane_u64()?),
        };
        self.lit(lit::END)?;
        Some(Event {
            index,
            process,
            kind,
            mops,
            time_ns,
        })
    }

    /// One mop, most frequent variants first.
    fn lane_mop(&mut self) -> Option<Mop> {
        let mop = if self.lit(lit::READ).is_some() {
            let key = Key(self.lane_u64()?);
            self.lit(lit::VALUE)?;
            let value = match self.lit(lit::NULL) {
                Some(()) => None,
                None => Some(self.lane_read_value()?),
            };
            Mop::Read { key, value }
        } else if self.lit(lit::APPEND).is_some() {
            let (key, elem) = self.lane_key_elem()?;
            Mop::Append { key, elem }
        } else if self.lit(lit::WRITE).is_some() {
            let (key, elem) = self.lane_key_elem()?;
            Mop::Write { key, elem }
        } else if self.lit(lit::ADD_TO_SET).is_some() {
            let (key, elem) = self.lane_key_elem()?;
            Mop::AddToSet { key, elem }
        } else if self.lit(lit::INCREMENT).is_some() {
            let key = Key(self.lane_u64()?);
            self.lit(lit::AMOUNT)?;
            Mop::Increment {
                key,
                amount: self.lane_i64()?,
            }
        } else {
            return None;
        };
        self.lit(lit::MOP_END)?;
        Some(mop)
    }

    fn lane_key_elem(&mut self) -> Option<(Key, Elem)> {
        let key = Key(self.lane_u64()?);
        self.lit(lit::ELEM)?;
        Some((key, Elem(self.lane_u64()?)))
    }

    fn lane_read_value(&mut self) -> Option<ReadValue> {
        let v = if self.lit(lit::LIST).is_some() {
            self.lane_elems()?;
            ReadValue::List(self.scratch.elems.clone())
        } else if self.lit(lit::SET).is_some() {
            self.lane_elems()?;
            ReadValue::Set(self.scratch.elems.iter().copied().collect())
        } else if self.lit(lit::REGISTER).is_some() {
            ReadValue::Register(match self.lit(lit::NULL) {
                Some(()) => None,
                None => Some(Elem(self.lane_u64()?)),
            })
        } else if self.lit(lit::COUNTER).is_some() {
            ReadValue::Counter(self.lane_i64()?)
        } else {
            return None;
        };
        self.lit(lit::VALUE_END)?;
        Some(v)
    }

    /// An array's elements after its `[`, through its `]`, into the
    /// scratch.
    fn lane_elems(&mut self) -> Option<()> {
        self.scratch.elems.clear();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Some(());
        }
        loop {
            let e = self.lane_u64()?;
            self.scratch.elems.push(Elem(e));
            match self.bump()? {
                b',' => {}
                b']' => return Some(()),
                _ => return None,
            }
        }
    }

    /// Consume exactly `lit`.
    fn lit(&mut self, lit: &str) -> Option<()> {
        let lit = lit.as_bytes();
        self.b[self.i..]
            .starts_with(lit)
            .then(|| self.i += lit.len())
    }

    /// A `u64` of one to 20 decimal digits, read in place. The first
    /// [`SAFE_DIGITS`] cannot overflow, so their arithmetic is
    /// unchecked; a 20th digit is checked, and a 21st departs.
    fn lane_u64(&mut self) -> Option<u64> {
        let digits = &self.b[self.i..];
        let mut n = 0u64;
        let mut len = 0;
        while let Some(&c) = digits.get(len) {
            let d = c.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            if len == SAFE_DIGITS {
                n = n.checked_mul(10)?.checked_add(u64::from(d))?;
                len += 1;
                if digits.get(len).is_some_and(u8::is_ascii_digit) {
                    return None;
                }
                break;
            }
            n = n * 10 + u64::from(d);
            len += 1;
        }
        self.i += len;
        (len > 0).then_some(n)
    }

    /// A signed integer that fits in an `i64`, its magnitude read by
    /// [`Reader::lane_u64`].
    fn lane_i64(&mut self) -> Option<i64> {
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
            0i64.checked_sub_unsigned(self.lane_u64()?)
        } else {
            i64::try_from(self.lane_u64()?).ok()
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.b.get(self.i)?;
        self.i += 1;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample() -> Event {
        Event {
            index: 7,
            process: ProcessId(3),
            kind: EventKind::Ok,
            mops: vec![
                Mop::append(1, 2),
                Mop::write(2, 3),
                Mop::increment(3, -4),
                Mop::add_to_set(4, 5),
                Mop::read(5),
                Mop::read_list(6, [1, 2]),
                Mop::read_register(7, None),
                Mop::read_register(7, Some(9)),
                Mop::read_counter(8, i64::MIN),
                Mop::read_set(9, [3, 1]),
            ],
            time_ns: Some(u64::MAX),
        }
    }

    #[test]
    fn reads_its_own_output_directly() {
        let ev = sample();
        let mut line = String::new();
        event_to_json(&ev, &mut line);
        assert_eq!(Reader::new(&line).document(), Some(ev));
    }

    /// Which lane a mop takes; exhaustive, so a new variant does not
    /// compile here until it is given a lane and a place in the test
    /// below.
    fn lane_of(m: &Mop) -> usize {
        match m {
            Mop::Append { .. } => 0,
            Mop::Write { .. } => 1,
            Mop::Increment { .. } => 2,
            Mop::AddToSet { .. } => 3,
            Mop::Read { value: None, .. } => 4,
            Mop::Read { value: Some(v), .. } => match v {
                ReadValue::List(_) => 5,
                ReadValue::Register(_) => 6,
                ReadValue::Counter(_) => 7,
                ReadValue::Set(_) => 8,
            },
        }
    }

    #[test]
    fn the_lane_reads_every_variant_without_a_restart() {
        let most = u64::MAX;
        let ev = Event {
            index: usize::MAX,
            process: ProcessId(u32::MAX),
            kind: EventKind::Info,
            mops: vec![
                Mop::append(0, most),
                Mop::write(most, 1),
                Mop::increment(2, i64::MIN),
                Mop::increment(2, i64::MAX),
                Mop::add_to_set(3, 4),
                Mop::read(5),
                Mop::read_list(6, []),
                Mop::read_list(6, [most, 0, 7]),
                Mop::read_register(7, None),
                Mop::read_register(7, Some(most)),
                Mop::read_counter(8, -1),
                Mop::read_set(9, []),
                Mop::read_set(9, [5, 1, 3]),
            ],
            time_ns: Some(most),
        };
        let lanes: BTreeSet<usize> = ev.mops.iter().map(lane_of).collect();
        assert_eq!(lanes, (0..9).collect(), "every variant is exercised");
        // Each mop, as the writer writes it, is read by the lane alone
        // to its last byte...
        for m in &ev.mops {
            let mut text = String::new();
            push_mop(&mut text, m);
            let mut r = Reader::new(&text);
            assert_eq!(r.lane_mop().as_ref(), Some(m), "{text}");
            assert_eq!(r.i, text.len(), "{text}");
        }
        // ...and so is the event around them, every kind included.
        for kind in KINDS {
            let ev = Event { kind, ..ev.clone() };
            let mut line = String::new();
            event_to_json(&ev, &mut line);
            let mut r = Reader::new(&line);
            assert_eq!(r.lane_event(), Some(ev), "{line}");
            assert_eq!(r.i, line.len());
        }
    }

    /// `line` departs from the writer's layout: the lane declines it,
    /// and `event_from_json` returns what the derived path returns.
    fn leaves_the_lane(line: &str) -> Result<Event, serde_json::Error> {
        assert_eq!(Reader::new(line).document(), None, "{line}");
        let ev = event_from_json(line);
        assert_eq!(ev, serde_json::from_str::<Event>(line), "{line}");
        ev
    }

    /// The lane keeps no per-mop restart any more (the name is older):
    /// a departure inside `mops` sends the whole line to the derived
    /// path, which still reads the event the writer wrote.
    #[test]
    fn a_departure_inside_mops_restarts_only_that_mop() {
        let mut line = String::new();
        event_to_json(&sample(), &mut line);
        let inside = line.replace("\"key\":", "\"key\": ");
        assert_ne!(inside, line);
        assert_eq!(Reader::new(&inside).lane_event(), None, "{inside}");
        assert_eq!(leaves_the_lane(&inside).ok(), Some(sample()));
    }

    /// The lane reads a 20th digit checked, so `u64::MAX` stays on it;
    /// a 20-digit number past `u64::MAX` leaves the lane for the
    /// derived path, the one tolerant reader left, which rejects it.
    #[test]
    fn twenty_digits_leave_the_lane_for_the_tolerant_reader() {
        let most = u64::MAX.to_string();
        let over = "18446744073709551616";
        assert_eq!((most.len(), over.len()), (20, 20));
        let mut text = String::new();
        push_mop(&mut text, &Mop::append(1, u64::MAX));
        assert_eq!(
            Reader::new(&text).lane_mop(),
            Some(Mop::append(1, u64::MAX))
        );
        let text = text.replace(&most, over);
        assert_eq!(Reader::new(&text).lane_mop(), None, "{text}");
        let mut line = String::new();
        event_to_json(&sample(), &mut line);
        let line = line.replace(&most, over);
        assert!(leaves_the_lane(&line).is_err(), "{line}");
    }

    /// Any layout still decodes, now through the derived path (the name
    /// is older than the deletion of the direct tolerant reader): a
    /// departure outside `mops`, and keys out of order with whitespace.
    #[test]
    fn reads_any_layout_directly() {
        let mut line = String::new();
        event_to_json(&sample(), &mut line);
        let outside = line.replace("\"index\":", "\"index\": ");
        assert_ne!(outside, line);
        assert_eq!(leaves_the_lane(&outside).ok(), Some(sample()));
        let line = " {\"mops\" :[ {\"Read\":{\"value\":{\"Set\":[2,1,2]},\"key\":1}} ],\n\t\"time_ns\":null,\"kind\":\"Ok\",\"process\":0,\"index\":7}\r ";
        assert!(leaves_the_lane(line).is_ok(), "{line}");
    }

    #[test]
    fn leaves_the_subset_for_the_generic_path() {
        for line in [
            r#"{"index":1.0,"process":0,"kind":"Ok","mops":[],"time_ns":null}"#,
            r#"{"index":-0,"process":0,"kind":"Ok","mops":[],"time_ns":null}"#,
            r#"{"index":1,"index":2,"process":0,"kind":"Ok","mops":[],"time_ns":null}"#,
            r#"{"index":1,"process":0,"kind":"Ok","mops":[],"time_ns":null,"x":1}"#,
            r#"{"\u0069ndex":1,"process":0,"kind":"Ok","mops":[],"time_ns":null}"#,
            r#"{"index":1,"process":4294967296,"kind":"Ok","mops":[],"time_ns":null}"#,
            r#"{"index":1,"process":0,"kind":"Ok","mops":[],"time_ns":null} x"#,
        ] {
            assert_eq!(Reader::new(line).document(), None, "{line}");
            assert_eq!(
                event_from_json(line),
                serde_json::from_str::<Event>(line),
                "{line}"
            );
        }
    }
}
