//! JSON-lines codec for events: the text mirror of the binary [`crate::codec`].
//!
//! The binary codec feeds the event store; this codec feeds the *interchange*
//! boundary — agents on other platforms, shell pipelines, and test fixtures
//! speak one JSON object per line. The workspace takes no JSON dependency, so
//! both directions are hand-rolled against the fixed event schema (the same
//! policy as the engine's `JsonLinesSink` for alerts).
//!
//! One event per line:
//!
//! ```json
//! {"id":1,"host":"db-server","ts_ms":9000,
//!  "subject":{"pid":501,"exe":"sqlservr.exe","user":"svc"},
//!  "op":"write","object":{"kind":"file","name":"backup1.dmp"},
//!  "amount":123456789}
//! ```
//!
//! `object.kind` selects the entity variant: `process` (pid/exe/user),
//! `file` (name), or `network` (src_ip/src_port/dst_ip/dst_port/protocol).
//! Decoding accepts any field order and arbitrary whitespace, and rejects —
//! with a positioned message — anything that does not round-trip.

use std::fmt;
use std::sync::Arc;

use crate::entity::{Entity, FileInfo, NetworkInfo, ProcessInfo};
use crate::event::{Event, Operation};
use crate::time::Timestamp;

/// Error decoding a JSON line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the line where decoding failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Append one event as a single JSON line (including the trailing newline).
pub fn encode_event_json(out: &mut String, e: &Event) {
    out.push_str("{\"id\":");
    out.push_str(&e.id.to_string());
    out.push_str(",\"host\":");
    push_json_string(out, &e.agent_id);
    out.push_str(",\"ts_ms\":");
    out.push_str(&e.ts.as_millis().to_string());
    out.push_str(",\"subject\":");
    push_process(out, &e.subject);
    out.push_str(",\"op\":");
    push_json_string(out, e.op.keyword());
    out.push_str(",\"object\":");
    match &e.object {
        Entity::Process(p) => {
            out.push_str("{\"kind\":\"process\",");
            push_process_fields(out, p);
            out.push('}');
        }
        Entity::File(file) => {
            out.push_str("{\"kind\":\"file\",\"name\":");
            push_json_string(out, &file.name);
            out.push('}');
        }
        Entity::Network(n) => {
            out.push_str("{\"kind\":\"network\",\"src_ip\":");
            push_json_string(out, &n.src_ip);
            out.push_str(",\"src_port\":");
            out.push_str(&n.src_port.to_string());
            out.push_str(",\"dst_ip\":");
            push_json_string(out, &n.dst_ip);
            out.push_str(",\"dst_port\":");
            out.push_str(&n.dst_port.to_string());
            out.push_str(",\"protocol\":");
            push_json_string(out, &n.protocol);
            out.push('}');
        }
    }
    out.push_str(",\"amount\":");
    out.push_str(&e.amount.to_string());
    out.push_str("}\n");
}

/// Render one event as a standalone JSON line.
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(192);
    encode_event_json(&mut out, e);
    out
}

fn push_process(out: &mut String, p: &ProcessInfo) {
    out.push('{');
    push_process_fields(out, p);
    out.push('}');
}

fn push_process_fields(out: &mut String, p: &ProcessInfo) {
    out.push_str("\"pid\":");
    out.push_str(&p.pid.to_string());
    out.push_str(",\"exe\":");
    push_json_string(out, &p.exe_name);
    out.push_str(",\"user\":");
    push_json_string(out, &p.user);
}

/// Escape a string into a JSON string literal appended to `out` — shared
/// with every hand-rolled JSON writer in the workspace.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Parse one JSON event line.
pub fn decode_event_json(line: &str) -> Result<Event, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing data after the event object"));
    }
    let fields = match value {
        JsonValue::Object(fields) => fields,
        _ => {
            return Err(JsonError {
                at: 0,
                message: "event line must be a JSON object".into(),
            })
        }
    };
    event_from_fields(fields)
}

/// A parsed JSON value — the workspace's one hand-rolled JSON reader,
/// shared by the event codec and the serving layer's wire protocol.
///
/// Numbers are unsigned 64-bit integers: every schema in this system (event
/// fields, protocol counters, offsets, timestamps) is non-negative and
/// integral, so fractions, exponents, and signs are rejected rather than
/// silently rounded. Object fields keep their arrival order and duplicates;
/// [`get`](Self::get) returns the first match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value's type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Str(_) => "string",
            JsonValue::Num(_) => "number",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Null => "null",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// First value of an object field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one line as a standalone JSON value (rejecting trailing data) —
/// the entry point protocol layers build on.
pub fn parse_json(line: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing data after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected `{}`", byte as char))),
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(other) => Err(self.err(format!(
                "expected a JSON value (object, array, string, unsigned number, \
                 true/false/null), found `{}`",
                other as char
            ))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output; map
                            // unpaired ones to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // Re-borrow as UTF-8 from the byte before `pos`: multi-byte
                    // characters arrive here one leading byte at a time.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len()
                        && !matches!(self.bytes[end], b'"' | b'\\')
                        && self.bytes[end] >= 0x20
                    {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("string is not valid UTF-8"))?;
                    if chunk.bytes().next().is_some_and(|b| b < 0x20) {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected digits"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| self.err("number out of range for u64"))
    }
}

fn event_from_fields(fields: Vec<(String, JsonValue)>) -> Result<Event, JsonError> {
    let mut id = None;
    let mut host = None;
    let mut ts_ms = None;
    let mut subject = None;
    let mut op = None;
    let mut object = None;
    let mut amount = 0u64;
    for (key, value) in fields {
        match key.as_str() {
            "id" => id = Some(num(&key, value)?),
            "host" => host = Some(string(&key, value)?),
            "ts_ms" => ts_ms = Some(num(&key, value)?),
            "amount" => amount = num(&key, value)?,
            "op" => {
                let kw = string(&key, value)?;
                let parsed = Operation::from_keyword(&kw).ok_or_else(|| JsonError {
                    at: 0,
                    message: format!("unknown operation `{kw}`"),
                })?;
                // `alert` events exist only inside a pipeline: the
                // alert→event adapter synthesizes them, and downstream
                // stages identify their upstream purely by `op == alert` +
                // subject identity. Accepting them from a collector line
                // would let any producer spoof a query's alert stream (or
                // force-advance a stage's clock), so the JSON boundary —
                // serve ingest and file/replay sources alike — rejects
                // them outright.
                if parsed == Operation::Alert {
                    return Err(JsonError {
                        at: 0,
                        message: "operation `alert` is reserved for \
                                  pipeline-derived events and cannot be ingested"
                            .into(),
                    });
                }
                op = Some(parsed);
            }
            "subject" => subject = Some(process_from(value, "subject")?),
            "object" => object = Some(entity_from(value)?),
            other => {
                return Err(JsonError {
                    at: 0,
                    message: format!("unknown event field `{other}`"),
                })
            }
        }
    }
    let op = require(op, "op")?;
    let object = require(object, "object")?;
    if !op.valid_for(object.entity_type()) {
        return Err(JsonError {
            at: 0,
            message: format!(
                "operation `{op}` is invalid for {} objects",
                object.entity_type()
            ),
        });
    }
    Ok(Event {
        id: require(id, "id")?,
        agent_id: Arc::from(require(host, "host")?.as_str()),
        ts: Timestamp::from_millis(require(ts_ms, "ts_ms")?),
        subject: require(subject, "subject")?,
        op,
        object,
        amount,
    })
}

fn require<T>(value: Option<T>, field: &str) -> Result<T, JsonError> {
    value.ok_or_else(|| JsonError {
        at: 0,
        message: format!("missing required field `{field}`"),
    })
}

fn num(key: &str, value: JsonValue) -> Result<u64, JsonError> {
    match value {
        JsonValue::Num(n) => Ok(n),
        other => Err(JsonError {
            at: 0,
            message: format!("field `{key}` must be a number, found {}", other.kind()),
        }),
    }
}

fn string(key: &str, value: JsonValue) -> Result<String, JsonError> {
    match value {
        JsonValue::Str(s) => Ok(s),
        other => Err(JsonError {
            at: 0,
            message: format!("field `{key}` must be a string, found {}", other.kind()),
        }),
    }
}

fn fields_of(value: JsonValue, what: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    match value {
        JsonValue::Object(fields) => Ok(fields),
        other => Err(JsonError {
            at: 0,
            message: format!("`{what}` must be an object, found {}", other.kind()),
        }),
    }
}

fn process_from(value: JsonValue, what: &str) -> Result<ProcessInfo, JsonError> {
    let mut pid = None;
    let mut exe = None;
    let mut user = None;
    for (key, value) in fields_of(value, what)? {
        match key.as_str() {
            "pid" => pid = Some(num(&key, value)?),
            "exe" => exe = Some(string(&key, value)?),
            "user" => user = Some(string(&key, value)?),
            "kind" => {} // allowed (and checked) on object entities
            other => {
                return Err(JsonError {
                    at: 0,
                    message: format!("unknown process field `{other}`"),
                })
            }
        }
    }
    Ok(ProcessInfo {
        pid: require(pid, "pid")? as u32,
        exe_name: Arc::from(require(exe, "exe")?.as_str()),
        user: Arc::from(require(user, "user")?.as_str()),
    })
}

fn entity_from(value: JsonValue) -> Result<Entity, JsonError> {
    let fields = fields_of(value, "object")?;
    let kind = fields
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            ("kind", JsonValue::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .ok_or_else(|| JsonError {
            at: 0,
            message: "object entity needs a string `kind` field".into(),
        })?;
    match kind.as_str() {
        "process" => process_from(JsonValue::Object(fields), "object").map(Entity::Process),
        "file" => {
            let mut name = None;
            for (key, value) in fields {
                match key.as_str() {
                    "kind" => {}
                    "name" => name = Some(string(&key, value)?),
                    other => {
                        return Err(JsonError {
                            at: 0,
                            message: format!("unknown file field `{other}`"),
                        })
                    }
                }
            }
            Ok(Entity::File(FileInfo {
                name: Arc::from(require(name, "name")?.as_str()),
            }))
        }
        "network" => {
            let mut src_ip = None;
            let mut src_port = None;
            let mut dst_ip = None;
            let mut dst_port = None;
            let mut protocol = None;
            for (key, value) in fields {
                match key.as_str() {
                    "kind" => {}
                    "src_ip" => src_ip = Some(string(&key, value)?),
                    "src_port" => src_port = Some(num(&key, value)?),
                    "dst_ip" => dst_ip = Some(string(&key, value)?),
                    "dst_port" => dst_port = Some(num(&key, value)?),
                    "protocol" => protocol = Some(string(&key, value)?),
                    other => {
                        return Err(JsonError {
                            at: 0,
                            message: format!("unknown network field `{other}`"),
                        })
                    }
                }
            }
            Ok(Entity::Network(NetworkInfo {
                src_ip: Arc::from(require(src_ip, "src_ip")?.as_str()),
                src_port: require(src_port, "src_port")? as u16,
                dst_ip: Arc::from(require(dst_ip, "dst_ip")?.as_str()),
                dst_port: require(dst_port, "dst_port")? as u16,
                protocol: Arc::from(require(protocol, "protocol")?.as_str()),
            }))
        }
        other => Err(JsonError {
            at: 0,
            message: format!("unknown object kind `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;

    fn samples() -> Vec<Event> {
        vec![
            EventBuilder::new(1, "client-3", 5_000)
                .subject(ProcessInfo::new(400, "outlook.exe", "victim"))
                .starts_process(ProcessInfo::new(401, "excel.exe", "victim"))
                .build(),
            EventBuilder::new(2, "db-server", 9_000)
                .subject(ProcessInfo::new(501, "sqlservr.exe", "svc"))
                .writes_file(FileInfo::new("C:\\dump\\a \"b\".bin"))
                .amount(123_456_789)
                .build(),
            EventBuilder::new(3, "db-server", 9_500)
                .subject(ProcessInfo::new(502, "sbblv.exe", "svc"))
                .sends(NetworkInfo::new(
                    "10.0.0.5",
                    50000,
                    "172.16.0.129",
                    443,
                    "tcp",
                ))
                .amount(1 << 30)
                .build(),
        ]
    }

    #[test]
    fn roundtrip_all_entity_kinds() {
        for e in samples() {
            let line = event_to_json(&e);
            assert!(line.ends_with('\n'), "one event per line: {line}");
            let back = decode_event_json(line.trim_end()).unwrap();
            assert_eq!(back, e, "line: {line}");
        }
    }

    #[test]
    fn decode_accepts_field_reordering_and_whitespace() {
        let line = r#" { "op" : "start" ,
            "object": {"user":"u","exe":"b.exe","kind":"process","pid":2},
            "subject": {"pid":1,"exe":"a.exe","user":"u"},
            "ts_ms": 10, "host": "h", "id": 7, "amount": 0 } "#;
        let e = decode_event_json(line).unwrap();
        assert_eq!(e.id, 7);
        assert_eq!(e.op, Operation::Start);
        assert_eq!(&*e.agent_id, "h");
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        let cases = [
            ("", "unexpected end"),
            ("[]", "object"),
            ("{\"id\":1}", "missing required field"),
            ("{\"id\":-1}", "number"),
            ("{\"id\":1,\"bogus\":2}", "unknown event field"),
            (
                r#"{"id":1,"host":"h","ts_ms":0,"subject":{"pid":1,"exe":"a","user":"u"},"op":"teleport","object":{"kind":"file","name":"f"},"amount":0}"#,
                "unknown operation",
            ),
            (
                r#"{"id":1,"host":"h","ts_ms":0,"subject":{"pid":1,"exe":"a","user":"u"},"op":"delete","object":{"kind":"network","src_ip":"a","src_port":1,"dst_ip":"b","dst_port":2,"protocol":"tcp"},"amount":0}"#,
                "invalid for",
            ),
            (
                r#"{"id":1,"host":"h","ts_ms":0,"subject":{"pid":1,"exe":"acme/q","user":"saql"},"op":"alert","object":{"kind":"process","pid":0,"exe":"g","user":""},"amount":0}"#,
                "reserved for pipeline-derived events",
            ),
        ];
        for (line, needle) in cases {
            let err = decode_event_json(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{line}` -> {err} (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn escapes_round_trip() {
        let e = EventBuilder::new(9, "h\nost\t\"x\"", 1)
            .subject(ProcessInfo::new(1, "exe\\with\\slashes", "u\u{1}"))
            .writes_file(FileInfo::new("naïve – file.txt"))
            .build();
        let line = event_to_json(&e);
        assert_eq!(decode_event_json(line.trim_end()).unwrap(), e);
    }

    #[test]
    fn parse_json_value_surface() {
        let v = parse_json(r#"{"cmd":"register","live":true,"ids":[1,2,3],"none":null}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(JsonValue::as_str), Some("register"));
        assert_eq!(v.get("live").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("ids").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert!(parse_json("[1, 2] tail").is_err(), "trailing data rejected");
        assert!(parse_json("tru").is_err(), "truncated literal rejected");
        assert!(parse_json("-5").is_err(), "signed numbers rejected");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let line = event_to_json(&samples()[0]);
        let bad = format!("{} extra", line.trim_end());
        assert!(decode_event_json(&bad)
            .unwrap_err()
            .message
            .contains("trailing"));
    }
}
