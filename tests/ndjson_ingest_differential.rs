//! One NDJSON decoder behind both ingest paths: the same bytes fed to the
//! source `replay --source jsonl:` builds (`ChannelSource::jsonl`) and to a
//! `saql serve` ingest connection give the same events, the same number of
//! undecodable lines and the same `first at line L: msg` — blank lines, a
//! line that is not UTF-8, CRLF endings and a line of half the line cap
//! included.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;

use saql::model::event::{Event, EventBuilder};
use saql::model::json::{encode_event_json, parse_json, JsonValue};
use saql::model::{FileInfo, ProcessInfo};
use saql::serve::{ctl, ServeConfig, Server};
use saql::stream::ingest::MAX_LINE;
use saql::stream::source::ChannelSource;
use saql::stream::store::Selection;
use saql::stream::{EventSource, SourcePoll, StoreReader};

fn event(id: u64, path: &str) -> Event {
    EventBuilder::new(id, "host-d", 1_000 + id)
        .subject(ProcessInfo::new(7, "writer.exe", "u"))
        .writes_file(FileInfo::new(path))
        .build()
}

fn line(e: &Event) -> Vec<u8> {
    let mut text = String::new();
    encode_event_json(&mut text, e);
    text.into_bytes()
}

/// Nine lines: LF and CRLF endings, two blank lines, one that is not
/// UTF-8, one that is not JSON, an event of half the line cap, and a
/// last line without a newline.
fn input() -> Vec<u8> {
    let mut body = line(&event(1, "/a"));
    let crlf = |mut l: Vec<u8>| {
        l.pop();
        l.extend_from_slice(b"\r\n");
        l
    };
    body.extend(crlf(line(&event(2, "/b"))));
    body.extend_from_slice(b"\n   \r\n");
    let mut not_utf8 = line(&event(3, "/c"));
    let at = not_utf8.len() - 4;
    not_utf8[at] = 0xff;
    body.extend(not_utf8);
    body.extend_from_slice(b"{\"id\": not json\n");
    body.extend(line(&event(4, &"x".repeat(MAX_LINE / 2))));
    body.extend(crlf(line(&event(5, "/e"))));
    let mut last = line(&event(6, "/f"));
    last.pop();
    body.extend(last);
    body
}

/// What `replay --source jsonl:` sees: its events and its failure note.
fn via_jsonl(body: Vec<u8>) -> (Vec<Event>, Option<String>) {
    let mut source = ChannelSource::jsonl("jsonl:-", Cursor::new(body), 4);
    let mut out = Vec::new();
    while source.poll(&mut out, 3) != SourcePoll::End {}
    let events = out.iter().map(|e| (**e).clone()).collect();
    (events, source.failure())
}

fn scratch(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-ndjson-diff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a serve ingest connection sees: the events its durable store
/// holds, its summary's `decode_errors`, and its failure note.
fn via_serve(body: &[u8]) -> (Vec<Event>, u64, Option<String>) {
    let store = scratch("store");
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        durable_store: Some(store.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello =
        r#"{"role":"ingest","tenant":"default","source":"diff","lossless":true,"order":"arrival"}"#;
    writeln!(stream, "{hello}").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"ok\":true"), "{ack}");
    stream.write_all(body).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut summary = String::new();
    reader.read_line(&mut summary).unwrap();
    let summary = parse_json(summary.trim()).unwrap();
    assert_eq!(
        summary.get("durable").and_then(JsonValue::as_bool),
        Some(true)
    );
    let errors = summary.get("decode_errors").and_then(JsonValue::as_u64);
    let failure = summary.get("failure").and_then(JsonValue::as_str);
    let failure = failure.map(String::from);

    let addr = server.addr().to_string();
    ctl(&addr, "default", r#"{"cmd":"shutdown"}"#).unwrap();
    server.wait().unwrap();
    let events = StoreReader::open(&store)
        .unwrap()
        .iter(&Selection::all())
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let _ = std::fs::remove_dir_all(&store);
    (events, errors.unwrap(), failure)
}

#[test]
fn jsonl_replay_and_serve_ingest_decode_the_same_bytes_alike() {
    let body = input();
    let (jsonl_events, jsonl_failure) = via_jsonl(body.clone());
    let (served_events, decode_errors, served_failure) = via_serve(&body);

    let ids: Vec<u64> = jsonl_events.iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![1, 2, 4, 5, 6]);
    assert_eq!(jsonl_events, served_events);
    assert_eq!(decode_errors, 2);
    let note = jsonl_failure.unwrap();
    assert_eq!(Some(&note), served_failure.as_ref());
    assert_eq!(
        note,
        "2 undecodable line(s); first at line 5: line is not valid UTF-8"
    );
}
