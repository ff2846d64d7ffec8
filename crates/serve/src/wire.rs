//! The NDJSON request protocol and its response lines.
//!
//! Every request is one JSON object per line. Ingest lines tag an
//! event with the tenant it belongs to; control lines carry an `op`:
//!
//! ```text
//! {"tenant":"t1","event":{"index":0,"process":0,"kind":"invoke",...}}
//! {"tenant":"t1","op":"seal"}      explicit seal; replies with the verdict
//! {"tenant":"t1","op":"status"}    one tenant's status
//! {"tenant":"t1","op":"close"}     final seal, snapshot, release the tenant
//! {"op":"status"}                  global status
//! {"op":"shutdown"}                graceful drain (same as SIGTERM / EOF)
//! ```
//!
//! Responses are one JSON object per line too: `{"tenant":…,"error":
//! {"code":…,"reason":…}}` rejects (429 budget, 400 malformed, 404
//! status of an unknown tenant, 503 draining, 422 failed tenant),
//! `{"tenant":…,"warning":…}` quarantine diagnostics, and per-seal
//! verdict envelopes (see [`crate::tenant`]).
//!
//! Parsing is staged — the envelope first, the event second — so a
//! malformed event body is still *attributed* to its tenant and flows
//! through that tenant's recovery policy instead of being an anonymous
//! protocol error. A line in [`tag_event_line`]'s own layout whose body
//! decodes as an event skips the staging: the body goes straight to
//! [`event_from_json`], with the staged parse's exact result.

use crate::config::valid_tenant_id;
use elle_history::{event_from_json, trim_json_ws, Event};
use serde::{Deserialize, Value};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An event for a tenant's stream.
    Event {
        /// The tenant.
        tenant: String,
        /// The decoded event.
        event: Box<Event>,
    },
    /// The envelope was well-formed and attributed, but the event body
    /// was not decodable — handled under the tenant's recovery policy.
    BadEvent {
        /// The tenant.
        tenant: String,
        /// The decoder's message.
        message: String,
    },
    /// Seal the tenant's epoch now and reply with the verdict.
    Seal {
        /// The tenant.
        tenant: String,
    },
    /// Report status for one tenant, or globally when `None`.
    Status {
        /// The tenant, or `None` for the whole service.
        tenant: Option<String>,
    },
    /// Final-seal, snapshot, and release the tenant.
    Close {
        /// The tenant.
        tenant: String,
    },
    /// Graceful drain of the whole service.
    Shutdown,
}

/// A request that could not be turned into a [`Request`]: the caller
/// responds with [`reject`] and drops the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The tenant, when the envelope was attributable.
    pub tenant: Option<String>,
    /// HTTP-style status code (400 malformed, 429 budget, …).
    pub code: u16,
    /// Human-readable reason.
    pub reason: String,
}

impl WireError {
    fn bad(reason: impl Into<String>) -> WireError {
        WireError {
            tenant: None,
            code: 400,
            reason: reason.into(),
        }
    }
}

/// Parse one request line, the JSON whitespace around it ignored.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let line = trim_json_ws(line);
    match tagged_event(line) {
        Some((tenant, event)) => Ok(Request::Event {
            tenant: tenant.to_string(),
            event: Box::new(event),
        }),
        None => parse_staged(line),
    }
}

/// The staged parse: the envelope as a JSON object first, the event
/// body second.
fn parse_staged(line: &str) -> Result<Request, WireError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| WireError::bad(format!("undecodable request line: {e}")))?;
    let Some(map) = v.as_map() else {
        return Err(WireError::bad("request line is not a JSON object"));
    };
    let field = |name: &str| map.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let tenant = match field("tenant") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) if valid_tenant_id(s) => Some(s.to_string()),
            Some(_) => {
                return Err(WireError::bad(
                    "invalid tenant id (1-64 chars of [A-Za-z0-9._-], no leading dot)",
                ))
            }
            None => return Err(WireError::bad("tenant must be a string")),
        },
    };
    match (field("op").and_then(Value::as_str), field("event")) {
        (Some(op), _) => {
            let need_tenant = |tenant: Option<String>| {
                tenant.ok_or_else(|| WireError::bad(format!("op {op:?} requires a tenant")))
            };
            match op {
                "seal" => Ok(Request::Seal {
                    tenant: need_tenant(tenant)?,
                }),
                "close" => Ok(Request::Close {
                    tenant: need_tenant(tenant)?,
                }),
                "status" => Ok(Request::Status { tenant }),
                "shutdown" => Ok(Request::Shutdown),
                other => Err(WireError {
                    tenant,
                    code: 400,
                    reason: format!("unknown op {other:?}"),
                }),
            }
        }
        (None, Some(body)) => {
            let Some(tenant) = tenant else {
                return Err(WireError::bad("event lines require a tenant"));
            };
            match Event::deserialize(body) {
                Ok(event) => Ok(Request::Event {
                    tenant,
                    event: Box::new(event),
                }),
                Err(e) => Ok(Request::BadEvent {
                    tenant,
                    message: e.to_string(),
                }),
            }
        }
        (None, None) => Err(WireError {
            tenant,
            code: 400,
            reason: "request carries neither an op nor an event".into(),
        }),
    }
}

/// The [`tag_event_line`] layout, `{"tenant":"<id>","event":<body>}`,
/// with a valid id and a body that decodes as an event. Only then is
/// the line one object with exactly those two keys, so the staged
/// parse would return this same event; anything else is `None` and
/// takes the staged parse.
fn tagged_event(line: &str) -> Option<(&str, Event)> {
    let (tenant, rest) = line.strip_prefix("{\"tenant\":\"")?.split_once('"')?;
    let body = rest.strip_prefix(",\"event\":")?.strip_suffix('}')?;
    if !valid_tenant_id(tenant) {
        return None;
    }
    Some((tenant, event_from_json(body).ok()?))
}

/// Render a reject line. Tenant ids are pre-validated, so they embed
/// without escaping; reasons are JSON-escaped.
pub fn reject(tenant: Option<&str>, code: u16, reason: &str) -> String {
    let reason = serde_json::to_string(reason).expect("string serializes");
    match tenant {
        Some(t) => {
            format!("{{\"tenant\":\"{t}\",\"error\":{{\"code\":{code},\"reason\":{reason}}}}}")
        }
        None => format!("{{\"error\":{{\"code\":{code},\"reason\":{reason}}}}}"),
    }
}

/// Render a quarantine-diagnostic warning line.
pub fn warning(tenant: &str, message: &str) -> String {
    let message = serde_json::to_string(message).expect("string serializes");
    format!("{{\"tenant\":\"{tenant}\",\"warning\":{message}}}")
}

/// Tag one already-serialized event line with a tenant — the inverse of
/// [`parse_request`] for [`Request::Event`]. The event JSON is embedded
/// verbatim; the tenant id must satisfy
/// [`valid_tenant_id`].
pub fn tag_event_line(tenant: &str, event_json: &str) -> String {
    format!(
        "{{\"tenant\":\"{tenant}\",\"event\":{}}}",
        trim_json_ws(event_json)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use elle_history::{EventKind, Mop, ProcessId};

    fn ev() -> Event {
        Event {
            index: 3,
            process: ProcessId(1),
            kind: EventKind::Invoke,
            mops: vec![Mop::append(1, 2)],
            time_ns: None,
        }
    }

    #[test]
    fn round_trips_event_lines() {
        let line = tag_event_line("t-1", &serde_json::to_string(&ev()).unwrap());
        match parse_request(&line).unwrap() {
            Request::Event { tenant, event } => {
                assert_eq!(tenant, "t-1");
                assert_eq!(*event, ev());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_ops_and_rejects_garbage() {
        assert_eq!(
            parse_request("{\"tenant\":\"a\",\"op\":\"seal\"}").unwrap(),
            Request::Seal { tenant: "a".into() }
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request("{\"op\":\"status\"}").unwrap(),
            Request::Status { tenant: None }
        );
        assert!(parse_request("{torn").is_err());
        assert!(parse_request("{\"tenant\":\"../x\",\"op\":\"seal\"}").is_err());
        assert!(parse_request("{\"tenant\":\"a\"}").is_err());
        assert!(parse_request("{\"op\":\"seal\"}").is_err());
    }

    #[test]
    fn bad_event_bodies_stay_attributed() {
        match parse_request("{\"tenant\":\"a\",\"event\":{\"nope\":1}}").unwrap() {
            Request::BadEvent { tenant, .. } => assert_eq!(tenant, "a"),
            other => panic!("{other:?}"),
        }
    }

    /// The tagged-layout shortcut returns exactly what the staged
    /// parse returns, on the lines it takes and on the ones it must
    /// leave alone.
    #[test]
    fn tagged_lines_parse_as_staged() {
        let body = serde_json::to_string(&ev()).unwrap();
        let spaced = body.replace(',', ", ").replace(':', ": ");
        let mut lines = vec![
            tag_event_line("t-1", &body),
            tag_event_line("t-1", &spaced),
            format!("  {{\"tenant\":\"a\",\"event\": {body} }}\n"),
            format!("\t{}\r\n", tag_event_line("a", &body)),
            // op and event together resolve as the op, in either order.
            format!("{{\"tenant\":\"a\",\"event\":{body},\"op\":\"seal\"}}"),
            format!("{{\"tenant\":\"a\",\"op\":\"seal\",\"event\":{body}}}"),
            format!("{{\"event\":{body},\"tenant\":\"a\"}}"),
            // Escaped and invalid tenant ids.
            format!("{{\"tenant\":\"t\\u0031\",\"event\":{body}}}"),
            format!("{{\"tenant\":\"../x\",\"event\":{body}}}"),
            format!("{{\"tenant\":\"\",\"event\":{body}}}"),
            // Bodies that are not events, or not alone.
            "{\"tenant\":\"a\",\"event\":{\"index\":1}}".to_string(),
            "{\"tenant\":\"a\",\"event\":null}".to_string(),
            format!("{{\"tenant\":\"a\",\"event\":{body}}}}}"),
            format!("{{\"tenant\":\"a\",\"event\":{body},\"tenant\":\"b\"}}"),
            tag_event_line("a", &body.replace("Invoke", "Okk")),
            tag_event_line("a", &body.replace("\"index\"", "\"\\u0069ndex\"")),
        ];
        // Torn at every byte.
        let whole = tag_event_line("t-1", &body);
        lines.extend((0..whole.len()).map(|cut| whole[..cut].to_string()));
        for line in &lines {
            assert_eq!(
                parse_request(line),
                parse_staged(trim_json_ws(line)),
                "{line}"
            );
        }
        assert!(matches!(
            parse_request(&lines[0]),
            Ok(Request::Event { .. })
        ));
    }

    #[test]
    fn responses_are_valid_json() {
        for line in [
            reject(Some("t"), 429, "tenant budget \"exceeded\""),
            reject(None, 400, "nope"),
            warning("t", "quarantined: line 3"),
        ] {
            serde_json::from_str::<serde::Value>(&line).expect("parses");
        }
    }
}
