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
//! Decoding accepts any field order and arbitrary whitespace (a duplicate
//! key: the last one wins), and rejects — with a positioned message —
//! anything that does not round-trip: unknown fields, a wrong-typed value,
//! an `op` invalid for the object, an integer out of its field's range
//! (`pid` is a u32, the ports u16, the rest u64; no sign, fraction or
//! exponent), trailing data.
//!
//! [`decode_event_json`] is one pass over the line that builds only the
//! [`Event`]: keys are matched as they are read, an escape-free string is
//! borrowed from the line and only one with a `\` is unescaped (into a
//! buffer of its own), numbers are parsed in place with checked overflow, and
//! entity members wait in fixed slots until the object closes, so `kind`
//! may come last. A string field's `Arc<str>` comes from the decoding
//! thread's string table (`share.rs`), so a string the feed repeats costs
//! no allocation, and a new one costs one. A `\u` escape takes exactly four
//! hex digits; a surrogate pair is one character and a lone surrogate
//! becomes U+FFFD.
//!
//! [`parse_json`] builds a [`JsonValue`] tree for the control protocol; it
//! shares the tokenizer and the escape rules.

use std::fmt;
use std::sync::Arc;

use crate::entity::{Entity, FileInfo, NetworkInfo, ProcessInfo};
use crate::event::{Event, Operation};
use crate::share::share;
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
    let mut p = Parser { line, pos: 0 };
    let event = p.event()?;
    p.skip_ws();
    if p.pos < p.line.len() {
        return Err(p.err("trailing data after the event object"));
    }
    Ok(event)
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
}

/// Parse one line as a standalone JSON value (rejecting trailing data) —
/// the entry point protocol layers build on.
pub fn parse_json(line: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { line, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos < p.line.len() {
        return Err(p.err("trailing data after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.line.as_bytes()
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
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
            Some(b'"') => Ok(JsonValue::Str(self.text(&mut String::new())?.to_owned())),
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
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
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
        let mut fields = Vec::new();
        self.members("value", |p, key| {
            let key = key.to_owned();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(fields))
    }

    /// Walk an object's members in order, handing each (unescaped) key to
    /// `member`, which consumes the value. `what` names the object in the
    /// error when the value is not an object at all.
    fn members(
        &mut self,
        what: &str,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.peek() != Some(b'{') {
            return Err(self.wrong_type(what, "an object"));
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut key_buf = String::new();
        loop {
            let key = self.text(&mut key_buf)?;
            self.expect(b':')?;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Parse the value that is not of the type `what` needs and report it.
    fn wrong_type(&mut self, what: &str, want: &str) -> JsonError {
        match self.value() {
            Ok(found) => self.err(format!("{what} must be {want}, found {}", found.kind())),
            Err(e) => e,
        }
    }

    /// A string token: borrowed from the line when it has no escapes, else
    /// unescaped into `buf`.
    fn text<'s>(&mut self, buf: &'s mut String) -> Result<&'s str, JsonError>
    where
        'a: 's,
    {
        self.expect(b'"')?;
        buf.clear();
        loop {
            let run = self.pos;
            while self
                .bytes()
                .get(self.pos)
                .is_some_and(|&b| !matches!(b, b'"' | b'\\') && b >= 0x20)
            {
                self.pos += 1;
            }
            let Some(&b) = self.bytes().get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                // No escape so far (each one pushes a character): borrow.
                b'"' if buf.is_empty() => return Ok(&self.line[run..self.pos - 1]),
                _ => buf.push_str(&self.line[run..self.pos - 1]),
            }
            match b {
                b'"' => return Ok(buf),
                b'\\' => {
                    let Some(&esc) = self.bytes().get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    buf.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    });
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed: a
    /// surrogate pair is one character, a lone surrogate U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4().ok_or_else(|| self.err("bad \\u escape"))?;
        if (0xD800..0xDC00).contains(&high) && self.bytes()[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            if let Some(low @ 0xDC00..=0xDFFF) = self.hex4() {
                let c = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    /// Exactly four hex digits (no sign).
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.bytes().get(self.pos..self.pos + 4)?;
        let value = digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))?;
        self.pos += 4;
        Some(value)
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&b) = self.bytes().get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.err("number out of range for u64"))?;
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected digits"));
        }
        Ok(n)
    }

    // -----------------------------------------------------------------
    // The event schema, decoded in the same pass
    // -----------------------------------------------------------------

    fn event(&mut self) -> Result<Event, JsonError> {
        let (mut id, mut host, mut ts_ms, mut subject, mut op, mut object) =
            (None, None, None, None, None, None);
        let mut amount = 0;
        self.members("event line", |p, key| {
            match key {
                "id" => id = Some(p.num_field(key, u64::MAX)?),
                "host" => host = Some(p.str_field(key)?),
                "ts_ms" => ts_ms = Some(p.num_field(key, u64::MAX)?),
                "amount" => amount = p.num_field(key, u64::MAX)?,
                "op" => op = Some(p.op()?),
                "subject" => subject = Some(p.entity("`subject`")?.process()?),
                "object" => object = Some(p.entity("`object`")?.object()?),
                other => return Err(p.err(format!("unknown event field `{other}`"))),
            }
            Ok(())
        })?;
        let (op, object) = (require(op, "op")?, require(object, "object")?);
        if !op.valid_for(object.entity_type()) {
            return Err(schema_error(format!(
                "operation `{op}` is invalid for {} objects",
                object.entity_type()
            )));
        }
        Ok(Event {
            id: require(id, "id")?,
            agent_id: require(host, "host")?,
            ts: Timestamp::from_millis(require(ts_ms, "ts_ms")?),
            subject: require(subject, "subject")?,
            op,
            object,
            amount,
        })
    }

    /// A number no larger than `max`.
    fn num_field(&mut self, key: &str, max: u64) -> Result<u64, JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.wrong_type(&format!("field `{key}`"), "a number"));
        }
        let n = self.number()?;
        if n > max {
            let bits = 64 - max.leading_zeros();
            return Err(self.err(format!("field `{key}` out of range for u{bits}")));
        }
        Ok(n)
    }

    /// A string field's text, borrowed unless it has escapes.
    fn str_value<'s>(&mut self, key: &str, buf: &'s mut String) -> Result<&'s str, JsonError>
    where
        'a: 's,
    {
        if self.peek() != Some(b'"') {
            return Err(self.wrong_type(&format!("field `{key}`"), "a string"));
        }
        self.text(buf)
    }

    fn str_field(&mut self, key: &str) -> Result<Arc<str>, JsonError> {
        Ok(share(self.str_value(key, &mut String::new())?))
    }

    fn op(&mut self) -> Result<Operation, JsonError> {
        let mut buf = String::new();
        let kw = self.str_value("op", &mut buf)?;
        // `alert` events exist only inside a pipeline: the alert→event
        // adapter synthesizes them, and downstream stages identify their
        // upstream purely by `op == alert` + subject identity. Accepting
        // them from a collector line would let any producer spoof a query's
        // alert stream (or force-advance a stage's clock), so the JSON
        // boundary — serve ingest and file/replay sources alike — rejects
        // them outright.
        match Operation::from_keyword(kw) {
            Some(Operation::Alert) => Err(self.err(
                "operation `alert` is reserved for pipeline-derived events and cannot be ingested",
            )),
            Some(op) => Ok(op),
            None => Err(self.err(format!("unknown operation `{kw}`"))),
        }
    }

    /// The members of a `subject` or `object` entity, before `kind` has
    /// said which of them belong.
    fn entity(&mut self, what: &str) -> Result<Slots, JsonError> {
        let mut slots = Slots::default();
        self.members(what, |p, key| {
            let Some(i) = ENTITY_KEYS.iter().position(|k| *k == key) else {
                return Err(p.err(format!("unknown {what} field `{key}`")));
            };
            match i {
                0 => slots.nums[i] = p.num_field(key, u32::MAX.into())?,
                5 | 7 => slots.nums[i] = p.num_field(key, u16::MAX.into())?,
                // Only the first string-valued `kind` counts.
                KIND if p.peek() != Some(b'"') || slots.kind.is_some() => drop(p.value()?),
                KIND => {
                    let mut buf = String::new();
                    let kind = p.text(&mut buf)?;
                    let known = KINDS.into_iter().find(|k| *k == kind);
                    slots.kind = Some(known.ok_or_else(|| format!("unknown object kind `{kind}`")));
                }
                _ => slots.strs[i] = Some(p.str_field(key)?),
            }
            slots.seen |= 1 << i;
            Ok(())
        })?;
        Ok(slots)
    }
}

/// Entity members: `pid` is a u32, the ports u16, the rest strings.
const ENTITY_KEYS: [&str; 10] = [
    "pid", "exe", "user", "name", "src_ip", "src_port", "dst_ip", "dst_port", "protocol", "kind",
];
/// `kind` selects an object's variant and is never a stray member.
const KIND: usize = 9;
/// The values `kind` selects a variant by.
const KINDS: [&str; 3] = ["process", "file", "network"];

/// The [`ENTITY_KEYS`] bits each entity kind takes, all of them required.
const PROCESS_KEYS: u16 = 0b111;
const FILE_KEYS: u16 = 0b1000;
const NETWORK_KEYS: u16 = 0b1_1111_0000;

/// One entity object's members in any order, the last duplicate winning.
/// They are checked against `kind` once the object closes, so `kind` may
/// come last. A `subject` is always a process; its `kind` is ignored.
#[derive(Default)]
struct Slots {
    /// Bit `i` set: `ENTITY_KEYS[i]` was present.
    seen: u16,
    nums: [u64; 9],
    strs: [Option<Arc<str>>; 9],
    /// The first string `kind`: one of [`KINDS`], or the error naming it.
    kind: Option<Result<&'static str, String>>,
}

impl Slots {
    /// Exactly the members `keys` names are present.
    fn check(&self, keys: u16, kind: &str) -> Result<(), JsonError> {
        let name = |bits: u16| ENTITY_KEYS[bits.trailing_zeros() as usize];
        let (stray, missing) = (self.seen & !keys & !(1 << KIND), keys & !self.seen);
        if stray != 0 {
            let stray = name(stray);
            return Err(schema_error(format!("unknown {kind} field `{stray}`")));
        }
        if missing != 0 {
            return require(None::<()>, name(missing));
        }
        Ok(())
    }

    fn str(&mut self, i: usize) -> Arc<str> {
        self.strs[i].take().unwrap_or_default()
    }

    fn process(mut self) -> Result<ProcessInfo, JsonError> {
        self.check(PROCESS_KEYS, "process")?;
        Ok(ProcessInfo {
            pid: self.nums[0] as u32,
            exe_name: self.str(1),
            user: self.str(2),
        })
    }

    fn object(mut self) -> Result<Entity, JsonError> {
        match self.kind.take() {
            Some(Ok("process")) => self.process().map(Entity::Process),
            Some(Ok("file")) => {
                self.check(FILE_KEYS, "file")?;
                Ok(Entity::File(FileInfo { name: self.str(3) }))
            }
            Some(Ok(_)) => {
                self.check(NETWORK_KEYS, "network")?;
                Ok(Entity::Network(NetworkInfo {
                    src_ip: self.str(4),
                    src_port: self.nums[5] as u16,
                    dst_ip: self.str(6),
                    dst_port: self.nums[7] as u16,
                    protocol: self.str(8),
                }))
            }
            Some(Err(unknown)) => Err(schema_error(unknown)),
            None => Err(schema_error("object entity needs a string `kind` field")),
        }
    }
}

fn require<T>(value: Option<T>, field: &str) -> Result<T, JsonError> {
    value.ok_or_else(|| schema_error(format!("missing required field `{field}`")))
}

/// A schema violation found after the fact, with no one byte to blame.
fn schema_error(message: impl Into<String>) -> JsonError {
    JsonError {
        at: 0,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;

    fn event_to_json(e: &Event) -> String {
        let mut out = String::new();
        encode_event_json(&mut out, e);
        out
    }

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

    fn network_line(pid: &str, src_port: &str, dst_port: &str) -> String {
        format!(
            r#"{{"id":1,"host":"h","ts_ms":0,"subject":{{"pid":{pid},"exe":"a","user":"u"}},"op":"connect","object":{{"kind":"network","src_ip":"a","src_port":{src_port},"dst_ip":"b","dst_port":{dst_port},"protocol":"tcp"}}}}"#
        )
    }

    #[test]
    fn integers_must_fit_their_field() {
        let e = decode_event_json(&network_line("4294967295", "65535", "0")).unwrap();
        assert_eq!(e.subject.pid, u32::MAX);
        let Entity::Network(n) = e.object else {
            panic!("network object expected")
        };
        assert_eq!((n.src_port, n.dst_port), (u16::MAX, 0));
        for (line, needle) in [
            (
                network_line("4294967296", "1", "1"),
                "field `pid` out of range for u32",
            ),
            (
                network_line("1", "65536", "1"),
                "field `src_port` out of range for u16",
            ),
            (
                network_line("1", "1", "65537"),
                "field `dst_port` out of range for u16",
            ),
            (
                network_line("18446744073709551616", "1", "1"),
                "out of range for u64",
            ),
        ] {
            let err = decode_event_json(&line).unwrap_err();
            assert!(err.message.contains(needle), "{err} (wanted `{needle}`)");
        }
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_pair_surrogates() {
        let host = |escaped: &str| {
            let line = format!(
                r#"{{"object":{{"name":"f","kind":"file"}},"id":1,"host":"{escaped}","ts_ms":0,"subject":{{"pid":1,"exe":"a","user":"u"}},"op":"read"}}"#
            );
            decode_event_json(&line).map(|e| e.agent_id.to_string())
        };
        assert_eq!(host(r"\u0041\u00e9").unwrap(), "Aé");
        assert_eq!(host(r"\ud83d\ude00").unwrap(), "😀");
        assert_eq!(host(r"\ud83d").unwrap(), "\u{fffd}", "lone high surrogate");
        assert_eq!(host(r"\ude00x").unwrap(), "\u{fffd}x", "lone low surrogate");
        assert_eq!(
            host(r"\ud83d\u0041").unwrap(),
            "\u{fffd}A",
            "high without low"
        );
        for bad in [r"\u+041", r"\u-041", r"\u004", r"\u00g1", r"\ud83d\u+e00"] {
            assert!(host(bad).is_err(), "`{bad}` accepted");
        }
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::Str("😀".into()),
            "the protocol parser shares the rules"
        );
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
            v.get("ids"),
            Some(&JsonValue::Array(vec![
                JsonValue::Num(1),
                JsonValue::Num(2),
                JsonValue::Num(3)
            ]))
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
