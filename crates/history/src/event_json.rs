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
//! The reader has three tiers, tried in order, with one result:
//!
//! 1. **The writer-layout lane** matches the exact bytes the writer
//!    produces. Its literals (`{"index":`, `{"Append":{"key":`,
//!    `{"List":[`, …) come from the one table the writer writes from,
//!    so the two cannot drift, and it reads numbers in place. At the
//!    first byte that departs from that layout it restarts the object
//!    in the tolerant reader: inside `mops` only the current mop,
//!    anywhere else the whole line. Numbers of up to 19 digits are read
//!    without overflow checks, because 19 digits cannot exceed
//!    `u64::MAX` (20 digits); a longer number departs, and the tolerant
//!    reader checks it.
//! 2. **The tolerant direct reader** reads any line inside the *direct
//!    subset* straight into [`Event`] / [`Mop`] / [`ReadValue`]: JSON
//!    whitespace anywhere; object keys in any order, each known key
//!    exactly once; strings without escapes; unsigned integers as plain
//!    in-range digits (`u32` for `process`, `u64` elsewhere); signed
//!    `amount` and `Counter` values down to `i64::MIN`; `null` where the
//!    type allows it; and enum maps with exactly one key.
//! 3. **The generic derived path** takes every other line: escapes,
//!    unknown or duplicate keys, fractions and exponents, `-0` in
//!    unsigned fields, overflow and trailing bytes. It is also the only
//!    source of error messages.
//!
//! The lane and the tolerant reader build list elements and each
//! event's mops in scratch buffers reused across lines (one set per
//! thread), and copy them out at their exact length, so a decoded
//! event holds no spare capacity.
//!
//! A new [`Mop`] or [`ReadValue`] variant must be added to the writer,
//! the lane and the tolerant reader here (and to `tests/event_codec.rs`).
//! The writer's match is exhaustive, so the compiler flags it there;
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
/// without the `Value` tree when the line is inside the direct subset.
pub fn event_from_json(s: &str) -> Result<Event, serde_json::Error> {
    let mut reader = Reader::with_scratch(s, SCRATCH.take());
    let ev = reader.document();
    SCRATCH.set(reader.scratch);
    match ev {
        Some(ev) => Ok(ev),
        None => serde_json::from_str(s),
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

const EVENT_KEYS: [&[u8]; 5] = [b"index", b"process", b"kind", b"mops", b"time_ns"];

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

/// A cursor over one line. Every method returns `None` as soon as the
/// input leaves what it reads: a lane method's caller restarts in the
/// tolerant reader, and a tolerant method's caller defers to the
/// generic path, so `None` never needs a reason.
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

    /// The whole input as one event, with nothing but whitespace after:
    /// the lane's reading, or, if the line departs from the writer's
    /// layout outside `mops`, the tolerant reader's.
    fn document(&mut self) -> Option<Event> {
        let ev = match self.lane_event() {
            Some(ev) => ev,
            None => {
                self.i = 0;
                self.event()?
            }
        };
        self.ws();
        (self.i == self.b.len()).then_some(ev)
    }

    // ── The writer-layout lane ──────────────────────────────────────

    /// One event in the writer's exact layout. A mop that departs from
    /// it is re-read from its start by the tolerant [`Reader::mop`].
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
                let start = self.i;
                let mop = match self.lane_mop() {
                    Some(mop) => mop,
                    None => {
                        self.i = start;
                        self.mop()?
                    }
                };
                self.scratch.mops.push(mop);
                self.ws();
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

    /// One mop in the writer's exact layout, most frequent variants
    /// first.
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

    /// One to [`SAFE_DIGITS`] decimal digits, read in place. Such a
    /// number cannot overflow, so the arithmetic is unchecked; a longer
    /// one departs from the lane.
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
                return None;
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

    // ── The tolerant direct reader ──────────────────────────────────

    fn event(&mut self) -> Option<Event> {
        let (mut index, mut process, mut kind, mut mops, mut time_ns) =
            (None, None, None, None, None);
        self.object(&EVENT_KEYS, |r, field| {
            match field {
                0 => index = Some(usize::try_from(r.u64()?).ok()?),
                1 => process = Some(ProcessId(u32::try_from(r.u64()?).ok()?)),
                2 => {
                    let name = r.str()?;
                    kind = Some(
                        KINDS
                            .into_iter()
                            .find(|&k| kind_name(k).as_bytes() == name)?,
                    );
                }
                3 => {
                    r.scratch.mops.clear();
                    r.array(|r| {
                        let mop = r.mop()?;
                        r.scratch.mops.push(mop);
                        Some(())
                    })?;
                    mops = Some(r.scratch.mops.drain(..).collect());
                }
                _ => time_ns = Some(r.or_null(Self::u64)?),
            }
            Some(())
        })?;
        Some(Event {
            index: index?,
            process: process?,
            kind: kind?,
            mops: mops?,
            time_ns: time_ns?,
        })
    }

    fn mop(&mut self) -> Option<Mop> {
        let variant = self.variant()?;
        let (mut key, mut elem, mut amount, mut value) = (None, None, None, None);
        let second: &[u8] = match variant {
            b"Append" | b"Write" | b"AddToSet" => b"elem",
            b"Increment" => b"amount",
            b"Read" => b"value",
            _ => return None,
        };
        self.object(&[b"key", second], |r, field| {
            match (field, variant) {
                (0, _) => key = Some(Key(r.u64()?)),
                (_, b"Increment") => amount = Some(r.i64()?),
                (_, b"Read") => value = Some(r.or_null(Self::read_value)?),
                _ => elem = Some(Elem(r.u64()?)),
            }
            Some(())
        })?;
        self.eat(b'}')?;
        let key = key?;
        Some(match variant {
            b"Append" => Mop::Append { key, elem: elem? },
            b"Write" => Mop::Write { key, elem: elem? },
            b"AddToSet" => Mop::AddToSet { key, elem: elem? },
            b"Increment" => Mop::Increment {
                key,
                amount: amount?,
            },
            _ => Mop::Read { key, value: value? },
        })
    }

    fn read_value(&mut self) -> Option<ReadValue> {
        let v = match self.variant()? {
            b"List" => {
                self.elems()?;
                ReadValue::List(self.scratch.elems.clone())
            }
            // Duplicates collapse, as the generic `BTreeSet` read does.
            b"Set" => {
                self.elems()?;
                ReadValue::Set(self.scratch.elems.iter().copied().collect())
            }
            b"Register" => ReadValue::Register(self.or_null(|r| r.u64().map(Elem))?),
            b"Counter" => ReadValue::Counter(self.i64()?),
            _ => return None,
        };
        self.eat(b'}')?;
        Some(v)
    }

    /// An array of elements, into the scratch.
    fn elems(&mut self) -> Option<()> {
        self.scratch.elems.clear();
        self.array(|r| {
            let e = r.u64()?;
            r.scratch.elems.push(Elem(e));
            Some(())
        })
    }

    /// The opening of a one-key enum map, `{"Variant":`, yielding the
    /// variant name; the caller reads the value and then the `}`.
    fn variant(&mut self) -> Option<&'a [u8]> {
        self.eat(b'{')?;
        let name = self.str()?;
        self.eat(b':')?;
        Some(name)
    }

    /// An object whose keys are exactly `keys`, in any order, each
    /// once; `field(self, k)` reads the value of `keys[k]`.
    fn object(
        &mut self,
        keys: &[&[u8]],
        mut field: impl FnMut(&mut Self, usize) -> Option<()>,
    ) -> Option<()> {
        self.eat(b'{')?;
        let mut seen = 0u32;
        loop {
            let name = self.str()?;
            let k = keys.iter().position(|&key| key == name)?;
            if seen & (1 << k) != 0 {
                return None;
            }
            seen |= 1 << k;
            self.eat(b':')?;
            field(self, k)?;
            self.ws();
            match self.bump()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
        (seen == (1 << keys.len()) - 1).then_some(())
    }

    /// An array; `item(self)` reads one element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(b'[')?;
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Some(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.bump()? {
                b',' => {}
                b']' => return Some(()),
                _ => return None,
            }
        }
    }

    /// A string without escapes, as its raw bytes.
    fn str(&mut self) -> Option<&'a [u8]> {
        self.eat(b'"')?;
        let start = self.i;
        let len = self.b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')?;
        if self.b[start + len] == b'\\' {
            return None;
        }
        self.i = start + len + 1;
        Some(&self.b[start..start + len])
    }

    /// A non-negative integer that fits in a `u64`.
    fn u64(&mut self) -> Option<u64> {
        self.ws();
        self.digits()
    }

    /// A signed integer that fits in an `i64`.
    fn i64(&mut self) -> Option<i64> {
        self.ws();
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
            i64::try_from(-i128::from(self.digits()?)).ok()
        } else {
            i64::try_from(self.digits()?).ok()
        }
    }

    /// One or more decimal digits, without overflowing a `u64`.
    fn digits(&mut self) -> Option<u64> {
        let start = self.i;
        let mut n = 0u64;
        while let Some(&c @ b'0'..=b'9') = self.b.get(self.i) {
            n = n.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
            self.i += 1;
        }
        (self.i > start).then_some(n)
    }

    /// `null` as `None`, or a value `read` reads as `Some`.
    fn or_null<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        self.ws();
        if self.b[self.i..].starts_with(b"null") {
            self.i += 4;
            return Some(None);
        }
        read(self).map(Some)
    }

    /// Skip whitespace, then consume `c`.
    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.bump()? == c).then_some(())
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.b.get(self.i)?;
        self.i += 1;
        Some(c)
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.i) {
            self.i += 1;
        }
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
        let most = 10u64.pow(19) - 1;
        let ev = Event {
            index: most as usize,
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

    #[test]
    fn a_departure_inside_mops_restarts_only_that_mop() {
        let ev = Event {
            time_ns: None,
            ..sample()
        };
        let mut line = String::new();
        event_to_json(&ev, &mut line);
        // Every mop departs after its key; the lane keeps the line.
        let inside = line.replace("\"key\":", "\"key\": ");
        let mut r = Reader::new(&inside);
        assert_eq!(r.lane_event(), Some(ev.clone()), "{inside}");
        assert_eq!(r.i, inside.len());
        // A departure outside mops restarts the whole line.
        let outside = line.replace("\"index\":", "\"index\": ");
        assert_eq!(Reader::new(&outside).lane_event(), None, "{outside}");
        assert_eq!(Reader::new(&outside).document(), Some(ev));
    }

    #[test]
    fn twenty_digits_leave_the_lane_for_the_tolerant_reader() {
        let mut text = String::new();
        push_mop(&mut text, &Mop::append(1, 10u64.pow(19)));
        assert_eq!(Reader::new(&text).lane_mop(), None, "{text}");
        let mut line = String::new();
        event_to_json(&sample(), &mut line);
        assert_eq!(Reader::new(&line).lane_event(), None, "{line}");
        assert_eq!(Reader::new(&line).document(), Some(sample()));
    }

    #[test]
    fn reads_any_layout_directly() {
        let line = " {\"mops\" :[ {\"Read\":{\"value\":{\"Set\":[2,1,2]},\"key\":1}} ],\n\t\"time_ns\":null,\"kind\":\"Ok\",\"process\":0,\"index\":7}\r ";
        let ev = Reader::new(line)
            .document()
            .expect("inside the direct subset");
        assert_eq!(Ok(ev), serde_json::from_str::<Event>(line));
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
