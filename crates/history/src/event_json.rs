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
//! The reader decides per line. A line inside the *direct subset* is
//! read straight into [`Event`] / [`Mop`] / [`ReadValue`]; any other
//! line goes to the generic derived path, which is also the only source
//! of error messages. The direct subset is: JSON whitespace anywhere;
//! object keys in any order, each known key exactly once; strings
//! without escapes; unsigned integers as plain in-range digits (`u32`
//! for `process`, `u64` elsewhere); signed `amount` and `Counter`
//! values down to `i64::MIN`; `null` where the type allows it; and enum
//! maps with exactly one key. The compact layout the writer produces is
//! always inside it. Escapes, unknown or duplicate keys, fractions and
//! exponents, `-0` in unsigned fields, overflow and trailing bytes all
//! take the generic path.
//!
//! A new [`Mop`] or [`ReadValue`] variant must be added to both halves
//! here (and to `tests/event_codec.rs`); until it is, the reader sends
//! every line carrying it down the generic path.

use crate::{Elem, Event, EventKind, Key, Mop, ProcessId, ReadValue};
use std::collections::BTreeSet;

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
    out.push_str("{\"index\":");
    push_u64(out, *index as u64);
    out.push_str(",\"process\":");
    push_u64(out, u64::from(process.0));
    out.push_str(",\"kind\":\"");
    out.push_str(match kind {
        EventKind::Invoke => "Invoke",
        EventKind::Ok => "Ok",
        EventKind::Fail => "Fail",
        EventKind::Info => "Info",
    });
    out.push_str("\",\"mops\":[");
    for (i, m) in mops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_mop(out, m);
    }
    out.push_str("],\"time_ns\":");
    match *time_ns {
        Some(t) => push_u64(out, t),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// Decode one event line: exactly `serde_json::from_str::<Event>(s)`,
/// without the `Value` tree when the line is inside the direct subset.
pub fn event_from_json(s: &str) -> Result<Event, serde_json::Error> {
    match Reader::new(s).document() {
        Some(ev) => Ok(ev),
        None => serde_json::from_str(s),
    }
}

// ── Writing ─────────────────────────────────────────────────────────────

fn push_mop(out: &mut String, m: &Mop) {
    let (variant, key) = match m {
        Mop::Append { key, .. } => ("{\"Append\":{\"key\":", key),
        Mop::Write { key, .. } => ("{\"Write\":{\"key\":", key),
        Mop::Increment { key, .. } => ("{\"Increment\":{\"key\":", key),
        Mop::AddToSet { key, .. } => ("{\"AddToSet\":{\"key\":", key),
        Mop::Read { key, .. } => ("{\"Read\":{\"key\":", key),
    };
    out.push_str(variant);
    push_u64(out, key.0);
    match m {
        Mop::Append { elem, .. } | Mop::Write { elem, .. } | Mop::AddToSet { elem, .. } => {
            out.push_str(",\"elem\":");
            push_u64(out, elem.0);
        }
        Mop::Increment { amount, .. } => {
            out.push_str(",\"amount\":");
            push_i64(out, *amount);
        }
        Mop::Read { value, .. } => {
            out.push_str(",\"value\":");
            match value {
                None => out.push_str("null"),
                Some(v) => push_read_value(out, v),
            }
        }
    }
    out.push_str("}}");
}

fn push_read_value(out: &mut String, v: &ReadValue) {
    match v {
        ReadValue::List(elems) => {
            out.push_str("{\"List\":");
            push_elems(out, elems);
        }
        ReadValue::Set(elems) => {
            out.push_str("{\"Set\":");
            push_elems(out, elems);
        }
        ReadValue::Register(e) => {
            out.push_str("{\"Register\":");
            match e {
                Some(e) => push_u64(out, e.0),
                None => out.push_str("null"),
            }
        }
        ReadValue::Counter(n) => {
            out.push_str("{\"Counter\":");
            push_i64(out, *n);
        }
    }
    out.push('}');
}

fn push_elems<'a>(out: &mut String, elems: impl IntoIterator<Item = &'a Elem>) {
    out.push('[');
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

// ── Reading the direct subset ───────────────────────────────────────────

const EVENT_KEYS: [&[u8]; 5] = [b"index", b"process", b"kind", b"mops", b"time_ns"];

/// A cursor over one line. Every method returns `None` as soon as the
/// input leaves the direct subset; the caller then defers to the
/// generic path, so `None` never needs a reason.
struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            b: s.as_bytes(),
            i: 0,
        }
    }

    /// The whole input as one event, with nothing but whitespace after.
    fn document(mut self) -> Option<Event> {
        let ev = self.event()?;
        self.ws();
        (self.i == self.b.len()).then_some(ev)
    }

    fn event(&mut self) -> Option<Event> {
        let (mut index, mut process, mut kind, mut mops, mut time_ns) =
            (None, None, None, None, None);
        self.object(&EVENT_KEYS, |r, field| {
            match field {
                0 => index = Some(usize::try_from(r.u64()?).ok()?),
                1 => process = Some(ProcessId(u32::try_from(r.u64()?).ok()?)),
                2 => {
                    kind = Some(match r.str()? {
                        b"Invoke" => EventKind::Invoke,
                        b"Ok" => EventKind::Ok,
                        b"Fail" => EventKind::Fail,
                        b"Info" => EventKind::Info,
                        _ => return None,
                    })
                }
                3 => {
                    let mut v = Vec::new();
                    r.array(|r| {
                        v.push(r.mop()?);
                        Some(())
                    })?;
                    mops = Some(v);
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
                let mut elems = Vec::new();
                self.array(|r| {
                    elems.push(Elem(r.u64()?));
                    Some(())
                })?;
                ReadValue::List(elems)
            }
            b"Set" => {
                // Duplicates collapse, as the generic `BTreeSet` read does.
                let mut elems = BTreeSet::new();
                self.array(|r| {
                    elems.insert(Elem(r.u64()?));
                    Some(())
                })?;
                ReadValue::Set(elems)
            }
            b"Register" => ReadValue::Register(self.or_null(|r| r.u64().map(Elem))?),
            b"Counter" => ReadValue::Counter(self.i64()?),
            _ => return None,
        };
        self.eat(b'}')?;
        Some(v)
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
