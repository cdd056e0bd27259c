//! Hostile and differential input for the JSONL event decoder.
//!
//! * **Differential.** `reference` below decodes an event the slow, obvious
//!   way — [`parse_json`] into a value tree, then schema checks — and pins
//!   the accept/reject set and the decoded [`Event`] of
//!   [`decode_event_json`] over generated lines: random field orders and
//!   whitespace, duplicate keys, wrong-typed values, unknown fields, escaped
//!   keys and strings, out-of-range numbers, and random byte damage.
//! * **Hostile input.** Every truncation and random mutations of generated
//!   lines decode to `Ok` or `Err`, never a panic, and no single allocation
//!   exceeds 8× the line plus 64 KiB (a counting global allocator, as in the
//!   checkpoint hostile-input test).
//! * **Bounded sharing.** Decoded strings come from a per-thread table of
//!   recent strings; a stream whose strings never repeat leaves the same
//!   live bytes behind after 1M lines as after 10k.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::Arc;

use saql_model::entity::{Entity, FileInfo, NetworkInfo, ProcessInfo};
use saql_model::event::{Event, Operation};
use saql_model::json::{decode_event_json, parse_json, JsonValue};
use saql_model::Timestamp;

thread_local! {
    /// Largest single allocation (or reallocation) on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocated minus freed bytes on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

fn note_live(change: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + change));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// splitmix64: a deterministic generator, so every failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    fn odds(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

// ---------------------------------------------------------------------
// The reference decoder
// ---------------------------------------------------------------------

type Fields = Vec<(String, JsonValue)>;

fn reference(line: &str) -> Result<Event, String> {
    let Ok(JsonValue::Object(fields)) = parse_json(line) else {
        return Err("not a JSON object".into());
    };
    let (mut id, mut host, mut ts_ms, mut subject, mut op, mut object) =
        (None, None, None, None, None, None);
    let mut amount = 0;
    for (key, value) in fields {
        match key.as_str() {
            "id" => id = Some(num(value)?),
            "host" => host = Some(string(value)?),
            "ts_ms" => ts_ms = Some(num(value)?),
            "amount" => amount = num(value)?,
            "op" => {
                let parsed = Operation::from_keyword(&string(value)?).ok_or("unknown op")?;
                if parsed == Operation::Alert {
                    return Err("alert is reserved".into());
                }
                op = Some(parsed);
            }
            "subject" => subject = Some(process(members(value)?)?),
            "object" => object = Some(entity(members(value)?)?),
            _ => return Err(format!("unknown event field {key}")),
        }
    }
    let (op, object) = (op.ok_or("op")?, object.ok_or("object")?);
    if !op.valid_for(object.entity_type()) {
        return Err("op invalid for object".into());
    }
    Ok(Event {
        id: id.ok_or("id")?,
        agent_id: host.ok_or("host")?,
        ts: Timestamp::from_millis(ts_ms.ok_or("ts_ms")?),
        subject: subject.ok_or("subject")?,
        op,
        object,
        amount,
    })
}

fn num(value: JsonValue) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| "not a number".into())
}

fn ranged(value: JsonValue, max: u64) -> Result<u64, String> {
    num(value).and_then(|n| {
        if n <= max {
            Ok(n)
        } else {
            Err("out of range".into())
        }
    })
}

fn string(value: JsonValue) -> Result<Arc<str>, String> {
    value
        .as_str()
        .map(Arc::from)
        .ok_or_else(|| "not a string".into())
}

fn members(value: JsonValue) -> Result<Fields, String> {
    match value {
        JsonValue::Object(fields) => Ok(fields),
        _ => Err("not an object".into()),
    }
}

/// A process: `kind`, of any type, is allowed and ignored.
fn process(fields: Fields) -> Result<ProcessInfo, String> {
    let (mut pid, mut exe, mut user) = (None, None, None);
    for (key, value) in fields {
        match key.as_str() {
            "pid" => pid = Some(ranged(value, u32::MAX.into())? as u32),
            "exe" => exe = Some(string(value)?),
            "user" => user = Some(string(value)?),
            "kind" => {}
            _ => return Err(format!("unknown process field {key}")),
        }
    }
    Ok(ProcessInfo {
        pid: pid.ok_or("pid")?,
        exe_name: exe.ok_or("exe")?,
        user: user.ok_or("user")?,
    })
}

/// An object entity: the first string-valued `kind` selects the variant.
fn entity(fields: Fields) -> Result<Entity, String> {
    let kind = fields
        .iter()
        .find_map(|(k, v)| (k == "kind").then(|| v.as_str()).flatten())
        .ok_or("no string kind")?
        .to_string();
    match kind.as_str() {
        "process" => process(fields).map(Entity::Process),
        "file" => {
            let mut name = None;
            for (key, value) in fields {
                match key.as_str() {
                    "kind" => {}
                    "name" => name = Some(string(value)?),
                    _ => return Err(format!("unknown file field {key}")),
                }
            }
            Ok(Entity::File(FileInfo {
                name: name.ok_or("name")?,
            }))
        }
        "network" => {
            let (mut src_ip, mut src_port, mut dst_ip, mut dst_port, mut protocol) =
                (None, None, None, None, None);
            for (key, value) in fields {
                match key.as_str() {
                    "kind" => {}
                    "src_ip" => src_ip = Some(string(value)?),
                    "src_port" => src_port = Some(ranged(value, u16::MAX.into())? as u16),
                    "dst_ip" => dst_ip = Some(string(value)?),
                    "dst_port" => dst_port = Some(ranged(value, u16::MAX.into())? as u16),
                    "protocol" => protocol = Some(string(value)?),
                    _ => return Err(format!("unknown network field {key}")),
                }
            }
            Ok(Entity::Network(NetworkInfo {
                src_ip: src_ip.ok_or("src_ip")?,
                src_port: src_port.ok_or("src_port")?,
                dst_ip: dst_ip.ok_or("dst_ip")?,
                dst_port: dst_port.ok_or("dst_port")?,
                protocol: protocol.ok_or("protocol")?,
            }))
        }
        _ => Err("unknown kind".into()),
    }
}

// ---------------------------------------------------------------------
// The line generator
// ---------------------------------------------------------------------

/// String literals, escapes included (lone and paired surrogates, a signed
/// `\u`, an unknown escape).
const STRINGS: &[&str] = &[
    r#""db-server""#,
    r#""""#,
    r#""C:\\dump\\a \"b\".bin""#,
    r#""tab\there\nnewline\/slash""#,
    r#""caf\u00e9 \u00E9""#,
    r#""naïve – file""#,
    r#""\ud83d\ude00 smile""#,
    r#""lone \ud800 high""#,
    r#""lone \udc00 low""#,
    r#""\ud83d\u0041""#,
    r#""\u+041""#,
    r#""\u00""#,
    r#""bad \x escape""#,
    r#""\b\f""#,
];

const NUMBERS: &[&str] = &[
    "0",
    "7",
    "007",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "1e3",
];

const OTHERS: &[&str] = &[
    "null",
    "true",
    "false",
    "[]",
    "[1,\"a\"]",
    "{}",
    "{\"a\":1}",
];

const OPS: &[&str] = &[
    "\"start\"",
    "\"end\"",
    "\"execute\"",
    "\"read\"",
    "\"write\"",
    "\"delete\"",
    "\"rename\"",
    "\"connect\"",
    "\"accept\"",
    "\"alert\"",
    "\"teleport\"",
    "1",
    "null",
];

const KINDS: &[&str] = &["\"process\"", "\"file\"", "\"network\"", "\"socket\"", "1"];

fn ws(rng: &mut Rng) -> &'static str {
    [" ", "\t", "\r\n", "  \n "][rng.below(4)]
}

/// A value for a member expecting a string (`str`) or a number: mostly a
/// plain one, sometimes an edge case, an invalid one or a wrong type.
fn value(rng: &mut Rng, str: bool) -> String {
    match rng.below(100) {
        0..=1 => rng.pick(OTHERS).into(),
        2..=3 => rng.pick(if str { NUMBERS } else { STRINGS }).into(),
        4..=9 => rng.pick(if str { STRINGS } else { NUMBERS }).into(),
        _ if str => format!("\"s{}\"", rng.below(50)),
        _ => rng.below(70_000).to_string(),
    }
}

/// A key as written, sometimes with an escape that unescapes to it.
fn key(rng: &mut Rng, key: &str) -> String {
    if rng.odds(3) {
        let mut chars = key.chars();
        let first = chars.next().unwrap();
        format!("\"\\u{:04x}{}\"", first as u32, chars.as_str())
    } else {
        format!("\"{key}\"")
    }
}

/// An object from members, shuffled, with duplicates, drops and strays.
fn object(rng: &mut Rng, mut members: Vec<(String, String)>) -> String {
    if rng.odds(5) && !members.is_empty() {
        let at = rng.below(members.len());
        members.remove(at);
    }
    if rng.odds(8) && !members.is_empty() {
        let (k, _) = members[rng.below(members.len())].clone();
        let str = rng.odds(50);
        members.push((k, value(rng, str)));
    }
    if rng.odds(3) {
        members.push(("\"bogus\"".into(), "1".into()));
    }
    for i in (1..members.len()).rev() {
        if rng.odds(30) {
            members.swap(i, rng.below(i + 1));
        }
    }
    let mut out = String::from("{");
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if rng.odds(10) {
            out.push_str(ws(rng));
        }
        out.push_str(&format!("{k}:{v}"));
        if rng.odds(10) {
            out.push_str(ws(rng));
        }
    }
    out.push('}');
    out
}

fn member(rng: &mut Rng, name: &str, str: bool) -> (String, String) {
    (key(rng, name), value(rng, str))
}

/// An entity object, now and then replaced by a value of another type.
fn entity_value(rng: &mut Rng, members: Vec<(String, String)>) -> String {
    if rng.odds(2) {
        rng.pick(OTHERS).into()
    } else {
        object(rng, members)
    }
}

fn process_members(rng: &mut Rng) -> Vec<(String, String)> {
    vec![
        member(rng, "pid", false),
        member(rng, "exe", true),
        member(rng, "user", true),
    ]
}

fn line(rng: &mut Rng) -> String {
    let mut subject = process_members(rng);
    if rng.odds(5) {
        subject.push((key(rng, "kind"), rng.pick(KINDS).into()));
    }
    let (mut obj, op) = match rng.below(3) {
        0 => (process_members(rng), rng.pick(&["\"start\"", "\"end\""])),
        1 => (vec![member(rng, "name", true)], "\"write\""),
        _ => (
            ["src_ip", "src_port", "dst_ip", "dst_port", "protocol"]
                .iter()
                .map(|k| member(rng, k, k.ends_with("ip") || *k == "protocol"))
                .collect(),
            "\"connect\"",
        ),
    };
    let kind = ["\"process\"", "\"file\"", "\"network\""][match op {
        "\"write\"" => 1,
        "\"connect\"" => 2,
        _ => 0,
    }];
    let kind = if rng.odds(5) { rng.pick(KINDS) } else { kind };
    if rng.odds(5) {
        obj.push((key(rng, "kind"), rng.pick(OTHERS).into()));
    }
    obj.insert(0, (key(rng, "kind"), kind.into()));
    if rng.odds(5) {
        let str = rng.odds(50);
        obj.push(member(rng, "pid", str));
    }
    let op = if rng.odds(5) { rng.pick(OPS) } else { op };
    let mut top = vec![
        member(rng, "id", false),
        member(rng, "host", true),
        member(rng, "ts_ms", false),
        (key(rng, "subject"), entity_value(rng, subject)),
        (key(rng, "op"), op.into()),
        (key(rng, "object"), entity_value(rng, obj)),
    ];
    if rng.odds(70) {
        top.push(member(rng, "amount", false));
    }
    let mut out = object(rng, top);
    if rng.odds(3) {
        out.push_str(rng.pick(&[" ", " x", "}", "{}"]));
    }
    out
}

/// `line` with a few bytes overwritten, kept only if still UTF-8.
fn mutate(rng: &mut Rng, line: &str) -> Option<String> {
    const BYTES: &[u8] = b"{}[]:,\"\\u0123456789 abcdefn-.\t\xff\x01";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len());
        bytes[at] = BYTES[rng.below(BYTES.len())];
    }
    String::from_utf8(bytes).ok()
}

fn assert_agrees(line: &str) {
    match (decode_event_json(line), reference(line)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "line: {line}"),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("line: {line}\n  decoder:   {got:?}\n  reference: {want:?}"),
    }
}

/// Decode `line`; panics if any single allocation exceeds the bound.
fn decode_bounded(line: &str) {
    let bound = 8 * line.len() + 64 * 1024;
    LARGEST.with(|largest| largest.set(0));
    let _ = decode_event_json(line);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= bound,
        "allocation of {largest} B decoding {line}"
    );
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn decoder_agrees_with_the_reference_on_generated_lines() {
    let mut rng = Rng(24);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..20_000 {
        let line = line(&mut rng);
        assert_agrees(&line);
        if decode_event_json(&line).is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
        if let Some(damaged) = mutate(&mut rng, &line) {
            assert_agrees(&damaged);
        }
    }
    // The generator must exercise both sides of the contract.
    assert!(
        accepted > 2_000 && rejected > 2_000,
        "{accepted} / {rejected}"
    );
}

#[test]
fn truncations_and_mutations_never_panic_or_over_allocate() {
    let mut rng = Rng(7);
    for _ in 0..300 {
        let line = line(&mut rng);
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            decode_bounded(&line[..cut]);
        }
        for _ in 0..20 {
            if let Some(damaged) = mutate(&mut rng, &line) {
                decode_bounded(&damaged);
            }
        }
    }
}

/// Decode and drop lines `from..to`, every string in them distinct (fixed
/// width, so each decoded string has the same size).
fn decode_distinct(from: u32, to: u32) {
    let mut line = String::new();
    for i in from..to {
        line.clear();
        let object = if i % 2 == 0 {
            format!(r#""object":{{"kind":"file","name":"/f/{i:08}"}},"op":"read""#)
        } else {
            format!(
                r#""object":{{"kind":"network","src_ip":"s{i:08}","src_port":1,"dst_ip":"d{i:08}","dst_port":2,"protocol":"p{i:08}"}},"op":"connect""#
            )
        };
        write!(
            line,
            r#"{{"id":{i},"host":"h{i:08}","ts_ms":{i},"subject":{{"pid":1,"exe":"e{i:08}","user":"u{i:08}"}},{object}}}"#
        )
        .unwrap();
        drop(decode_event_json(&line).expect("a valid line"));
    }
}

#[test]
fn distinct_strings_leave_live_memory_flat() {
    // One thread's string table: its 64 KiB slot array, plus a resident
    // string of at most 64 bytes (and a 16-byte `Arc` header) per slot.
    const TABLE: isize = 64 * 1024;
    const RESIDENT: isize = TABLE + 4096 * (16 + 64);
    let live = || LIVE.with(Cell::get);
    let before = live();
    decode_distinct(0, 10_000);
    let after_10k = live();
    decode_distinct(10_000, 1_010_000);
    let after_1m = live();
    assert!(
        after_10k - before <= RESIDENT,
        "10k lines left {} B",
        after_10k - before
    );
    assert!(
        (after_1m - after_10k).abs() <= TABLE,
        "live bytes {after_10k} after 10k lines, {after_1m} after 1M more"
    );
}
