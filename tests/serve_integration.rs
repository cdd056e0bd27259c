//! End-to-end tests of the serving layer (`saql-serve`) over real loopback
//! sockets: multi-tenant ingest equivalence against the offline engine,
//! deterministic quota shedding under an injected clock, live decode-failure
//! surfacing, the metrics page as a view of `stats`, the control path's line
//! cap, and shutdown → checkpoint → resume exactness.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use saql::engine::{CheckpointConfig, Deployment};
use saql::model::event::{Event, EventBuilder};
use saql::model::json::{encode_event_json, parse_json, JsonValue};
use saql::model::{FileInfo, ProcessInfo};
use saql::serve::{
    ctl, ingest_reader, protocol, tail_alerts, ManualClock, ServeConfig, Server, TenantQuota,
};
use saql::stream::ingest::MAX_LINE;
use saql::{Engine, EngineConfig};

/// One write-file event on `host`, with a per-event-unique file path so
/// `return distinct` never dedupes and alert multisets compare exactly.
fn event(id: u64, ts: u64, host: &str) -> Event {
    EventBuilder::new(id, host, ts)
        .subject(ProcessInfo::new(7, "writer.exe", "svc"))
        .writes_file(FileInfo::new(format!("/data/out-{id}.dat")))
        .build()
}

fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        encode_event_json(&mut out, e);
        out.push('\n');
    }
    out
}

/// A per-event rule query scoped to one host.
fn rule_query(host: &str) -> String {
    format!("agentid = \"{host}\"\nproc p1 write file f1 as evt1\nreturn distinct p1, f1")
}

fn register_line(name: &str, query: &str) -> String {
    protocol::JsonObj::new()
        .str("cmd", "register")
        .str("name", name)
        .str("query", query)
        .finish()
}

/// Unique scratch dir per call (tests run concurrently in one process).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saql-serve-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Render offline alerts for `queries` over `events`, exactly as the
/// subscribe role streams them.
fn offline_alert_lines(queries: &[(String, String)], events: Vec<Event>) -> Vec<String> {
    let mut engine = Engine::new(EngineConfig::default());
    for (name, text) in queries {
        engine.register(name, text).expect("query compiles offline");
    }
    engine
        .run(saql::stream::share(events))
        .unwrap()
        .iter()
        .map(saql::engine::render_alert_json)
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// The body of `GET /metrics`.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    body.to_string()
}

/// The value of one series, `family{labels}`, on a metrics page.
fn series(page: &str, name: &str) -> Option<u64> {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn two_tenants_over_sockets_match_offline_engine() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Each tenant registers the same-named query, scoped to its own host.
    let q1 = rule_query("host-t1");
    let q2 = rule_query("host-t2");
    assert!(ctl(&addr, "t1", &register_line("q", &q1))
        .unwrap()
        .contains("\"ok\":true"));
    assert!(ctl(&addr, "t2", &register_line("q", &q2))
        .unwrap()
        .contains("\"ok\":true"));
    // Cross-tenant control isolation: t2 cannot touch t1's query beyond
    // its namespace (same bare name resolves to its own query), and an
    // unknown name is refused.
    assert!(ctl(&addr, "t2", r#"{"cmd":"pause","name":"nope"}"#)
        .unwrap()
        .contains("\"ok\":false"));

    // Subscribe before ingest so every alert is observed.
    let tails: Vec<_> = ["t1", "t2"]
        .iter()
        .map(|tenant| {
            let addr = addr.clone();
            let tenant = tenant.to_string();
            thread::spawn(move || {
                let mut buf = Vec::new();
                tail_alerts(&addr, &tenant, "q", &mut buf, None).unwrap();
                String::from_utf8(buf).unwrap()
            })
        })
        .collect();
    // Give the subscribe hellos a moment to be acked before events flow.
    thread::sleep(std::time::Duration::from_millis(100));

    let corpus_t1: Vec<Event> = (0..200)
        .map(|i| event(i, 1000 + i * 10, "host-t1"))
        .collect();
    let corpus_t2: Vec<Event> = (0..200)
        .map(|i| event(1000 + i, 1000 + i * 10, "host-t2"))
        .collect();

    // Concurrent socket ingest, one connection per tenant. Lossless (no
    // shed) + arrival order (no late drops): every event reaches the
    // engine exactly once.
    let ingests: Vec<_> = [("t1", jsonl(&corpus_t1)), ("t2", jsonl(&corpus_t2))]
        .into_iter()
        .map(|(tenant, body)| {
            let addr = addr.clone();
            thread::spawn(move || {
                ingest_reader(&addr, tenant, "feed", &mut Cursor::new(body), true, true).unwrap()
            })
        })
        .collect();
    for handle in ingests {
        let report = handle.join().unwrap();
        assert_eq!(report.field("events"), Some(200), "{}", report.summary);
        assert_eq!(report.field("released"), Some(200), "{}", report.summary);
        assert_eq!(report.field("dropped_late"), Some(0), "{}", report.summary);
    }

    // Per-tenant stats see the tenant's own query and sources.
    let stats = ctl(&addr, "t1", r#"{"cmd":"stats"}"#).unwrap();
    assert!(stats.contains("\"tenant\":\"t1\""), "{stats}");
    assert!(stats.contains("\"name\":\"q\""), "{stats}");
    assert!(stats.contains("t1/feed#"), "{stats}");
    assert!(!stats.contains("t2/feed#"), "{stats}");

    assert!(ctl(&addr, "t1", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"draining\":true"));
    let summary = server.wait().unwrap();
    assert_eq!(summary.events, 400);

    // The subscribed alert multiset equals the same corpus through the
    // offline engine, per tenant.
    let mut merged = corpus_t1.clone();
    merged.extend(corpus_t2.clone());
    let offline = offline_alert_lines(
        &[("t1/q".to_string(), q1), ("t2/q".to_string(), q2)],
        merged,
    );
    let tenant_lines: Vec<Vec<String>> = tails
        .into_iter()
        .map(|t| {
            t.join()
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    for (tenant, lines) in ["t1", "t2"].iter().zip(&tenant_lines) {
        let want: Vec<String> = offline
            .iter()
            .filter(|l| l.contains(&format!("\"query\":\"{tenant}/q\"")))
            .cloned()
            .collect();
        assert_eq!(
            want.len(),
            200,
            "offline produced {} for {tenant}",
            want.len()
        );
        assert_eq!(sorted(lines.clone()), sorted(want), "tenant {tenant}");
    }
    assert_eq!(summary.alerts, 400);
}

/// An ingest body held back until `gate` opens. `ingest_reader` completes
/// its hello — which the server acknowledges only once the connection's
/// source is attached to the merge — before it first reads its input, so
/// gating the first read on a barrier guarantees every connection is
/// attached before any of them sends an event.
///
/// A `bursty` body then arrives in 4 KiB bursts a millisecond apart, so its
/// queue keeps running empty and refilling while the other connection
/// streams flat out — the interleaving under which a watermark counted at
/// enqueue runs ahead of the queue it describes.
struct Gated {
    gate: std::sync::Arc<std::sync::Barrier>,
    open: bool,
    bursty: bool,
    body: Cursor<String>,
}

impl std::io::Read for Gated {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.open {
            self.gate.wait();
            self.open = true;
        }
        if !self.bursty {
            return self.body.read(buf);
        }
        thread::sleep(std::time::Duration::from_millis(1));
        let burst = buf.len().min(4096);
        self.body.read(&mut buf[..burst])
    }
}

/// Two live ingest connections into one watermarked merge raise exactly the
/// alerts `saql replay` raises over the same events: a connection's
/// watermark covers only what the merge has pulled from it, so one
/// connection's events can never be released past events still queued on
/// the other. Here every write arrives on one connection and the read that
/// completes its sequence, 10 ms later, on the other.
#[test]
fn two_ingest_connections_match_offline_replay() {
    const PAIRS: u64 = 4_000;
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let query = "proc p1 write file f1 as evt1\nproc p2 read file f1 as evt2\n\
                 with evt1 -> evt2\nreturn distinct p1, p2, f1";
    assert!(ctl(&addr, "t", &register_line("q", query))
        .unwrap()
        .contains("\"ok\":true"));
    let tail = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut buf = Vec::new();
            tail_alerts(&addr, "t", "q", &mut buf, None).unwrap();
            String::from_utf8(buf).unwrap()
        })
    };
    thread::sleep(std::time::Duration::from_millis(100));

    let writes: Vec<Event> = (0..PAIRS).map(|i| event(i, 1_000 + i * 20, "h")).collect();
    let reads: Vec<Event> = (0..PAIRS)
        .map(|i| {
            EventBuilder::new(PAIRS + i, "h", 1_010 + i * 20)
                .subject(ProcessInfo::new(8, "reader.exe", "svc"))
                .reads_file(FileInfo::new(format!("/data/out-{i}.dat")))
                .build()
        })
        .collect();

    let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
    let ingests: Vec<_> = [("writes", jsonl(&writes)), ("reads", jsonl(&reads))]
        .into_iter()
        .map(|(source, body)| {
            let (addr, gate) = (addr.clone(), gate.clone());
            thread::spawn(move || {
                let mut input = Gated {
                    gate,
                    open: false,
                    bursty: source == "writes",
                    body: Cursor::new(body),
                };
                // Lossless, and *not* arrival order: the watermarked merge.
                ingest_reader(&addr, "t", source, &mut input, true, false).unwrap()
            })
        })
        .collect();
    for handle in ingests {
        let report = handle.join().unwrap();
        assert_eq!(report.field("released"), Some(PAIRS), "{}", report.summary);
        assert_eq!(report.field("dropped_late"), Some(0), "{}", report.summary);
    }
    assert!(ctl(&addr, "t", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"draining\":true"));
    server.wait().unwrap();

    let mut merged = writes;
    merged.extend(reads);
    merged.sort_by_key(|e| (e.ts, e.id));
    let offline = offline_alert_lines(&[("t/q".to_string(), query.to_string())], merged);
    assert_eq!(offline.len() as u64, PAIRS);
    let served: Vec<String> = tail.join().unwrap().lines().map(str::to_string).collect();
    assert_eq!(sorted(served), sorted(offline));
}

#[test]
fn quota_sheds_deterministically_and_never_wedges_the_pump() {
    let clock = ManualClock::new();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        quota: TenantQuota {
            max_live_queries: 2,
            events_per_sec: 10,
            burst: 5,
        },
        clock: clock.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    assert!(
        ctl(&addr, "acme", &register_line("q", &rule_query("host-a")))
            .unwrap()
            .contains("\"ok\":true")
    );

    // Frozen clock: exactly the burst passes, the rest sheds — and the
    // connection keeps streaming (shedding never blocks anything).
    let corpus: Vec<Event> = (0..50).map(|i| event(i, 1000 + i * 10, "host-a")).collect();
    let report = ingest_reader(
        &addr,
        "acme",
        "burst",
        &mut Cursor::new(jsonl(&corpus)),
        false,
        true,
    )
    .unwrap();
    assert_eq!(report.field("events"), Some(5), "{}", report.summary);
    assert_eq!(report.field("shed_quota"), Some(45), "{}", report.summary);

    // One second of injected time refills one second of rate (capped at
    // burst): exactly 5 more pass.
    clock.advance_ms(1000);
    let report = ingest_reader(
        &addr,
        "acme",
        "refill",
        &mut Cursor::new(jsonl(&corpus[..20])),
        false,
        true,
    )
    .unwrap();
    assert_eq!(report.field("events"), Some(5), "{}", report.summary);
    assert_eq!(report.field("shed_quota"), Some(15), "{}", report.summary);

    // Shed counters surface on the metrics page and in stats.
    assert_eq!(
        series(
            &scrape(&addr),
            "saql_ingest_shed_total{tenant=\"acme\",reason=\"quota\"}"
        ),
        Some(60)
    );
    let stats = ctl(&addr, "acme", r#"{"cmd":"stats"}"#).unwrap();
    assert!(stats.contains("\"shed\":60"), "{stats}");

    // The pump survived: the control plane answers and the granted events
    // were processed.
    assert!(stats.contains("\"events_seen\":10"), "{stats}");

    // Live-query quota: the ceiling counts, the refusal is clean.
    assert!(
        ctl(&addr, "acme", &register_line("q2", &rule_query("host-a")))
            .unwrap()
            .contains("\"ok\":true")
    );
    let refused = ctl(&addr, "acme", &register_line("q3", &rule_query("host-a"))).unwrap();
    assert!(refused.contains("live-query quota"), "{refused}");

    assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

#[test]
fn decode_failures_surface_live_in_summary_and_stats() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    assert!(
        ctl(&addr, "default", &register_line("q", &rule_query("host-x")))
            .unwrap()
            .contains("\"ok\":true")
    );

    let good: Vec<Event> = (0..3).map(|i| event(i, 1000 + i, "host-x")).collect();
    let mut body = jsonl(&good[..2]);
    body.push_str("this is not json\n");
    body.push_str("{\"also\":\"not an event\"}\n");
    body.push_str(&jsonl(&good[2..]));

    let report = ingest_reader(
        &addr,
        "default",
        "noisy",
        &mut Cursor::new(body),
        true,
        true,
    )
    .unwrap();
    assert_eq!(report.field("events"), Some(3), "{}", report.summary);
    assert_eq!(report.field("decode_errors"), Some(2), "{}", report.summary);
    // The failure note names the first bad line.
    assert!(report.summary.contains("line 3"), "{}", report.summary);

    // The degraded source is visible in per-source stats — not just a
    // clean, short stream.
    let stats = ctl(&addr, "default", r#"{"cmd":"stats"}"#).unwrap();
    assert!(stats.contains("undecodable"), "{stats}");
    assert_eq!(
        series(
            &scrape(&addr),
            "saql_ingest_decode_failures_total{tenant=\"default\"}"
        ),
        Some(2)
    );

    assert!(ctl(&addr, "default", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

/// The metrics page is a view of what `stats` and the acks report: a
/// tenant's ingest series are the sums over its connections, a query's
/// series are its `stats` entry, and a deregistered query's series leave
/// the page.
#[test]
fn the_metrics_page_and_stats_agree() {
    let clock = ManualClock::new();
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        quota: TenantQuota {
            max_live_queries: 2,
            events_per_sec: 10,
            burst: 5,
        },
        clock: clock.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    assert!(
        ctl(&addr, "acme", &register_line("q", &rule_query("host-a")))
            .unwrap()
            .contains("\"ok\":true")
    );

    // Frozen clock: the first connection gets the burst and sheds the
    // rest. A second of refill then lets the second connection's events
    // through, around its two undecodable lines.
    let corpus: Vec<Event> = (0..24).map(|i| event(i, 1000 + i * 10, "host-a")).collect();
    let mut noisy = jsonl(&corpus[20..22]);
    noisy.push_str("not json\n{\"not\":\"an event\"}\n");
    noisy.push_str(&jsonl(&corpus[22..]));
    let mut acks = Vec::new();
    for (source, body) in [("shed", jsonl(&corpus[..20])), ("noisy", noisy)] {
        let mut body = Cursor::new(body);
        acks.push(ingest_reader(&addr, "acme", source, &mut body, true, true).unwrap());
        clock.advance_ms(1000);
    }
    let sum = |field: &str| acks.iter().map(|a| a.field(field).unwrap()).sum::<u64>();
    assert_eq!(
        ["events", "decode_errors", "shed_quota", "shed_buffer"].map(sum),
        [9, 2, 15, 0]
    );

    let page = scrape(&addr);
    for (name, field) in [
        ("saql_ingest_events_total{tenant=\"acme\"}", "events"),
        (
            "saql_ingest_decode_failures_total{tenant=\"acme\"}",
            "decode_errors",
        ),
        (
            "saql_ingest_shed_total{tenant=\"acme\",reason=\"quota\"}",
            "shed_quota",
        ),
        (
            "saql_ingest_shed_total{tenant=\"acme\",reason=\"buffer\"}",
            "shed_buffer",
        ),
    ] {
        assert_eq!(series(&page, name), Some(sum(field)), "{name}\n{page}");
    }
    let stats = parse_json(&ctl(&addr, "acme", r#"{"cmd":"stats"}"#).unwrap()).unwrap();
    let field = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64);
    let engine = stats.get("engine").unwrap();
    assert_eq!(
        series(&page, "saql_engine_offset"),
        field(engine, "offset"),
        "{page}"
    );
    assert_eq!(field(stats.get("quota").unwrap(), "shed"), Some(15));
    let Some(JsonValue::Array(queries)) = stats.get("queries") else {
        panic!("no queries in {stats:?}");
    };
    assert_eq!(field(&queries[0], "events_seen"), Some(9));
    let query_series = [
        ("saql_query_events_total", "events_seen"),
        ("saql_query_alerts_total", "alerts"),
        ("saql_alerts_delivered_total", "alerts"),
    ];
    for (family, key) in query_series {
        let name = format!("{family}{{query=\"acme/q\"}}");
        assert_eq!(
            series(&page, &name),
            field(&queries[0], key),
            "{name}\n{page}"
        );
    }
    let latency = "saql_delivery_latency_us{query=\"acme/q\",stat=\"count\"}";
    assert_eq!(series(&page, latency), Some(9), "{page}");

    // Deregistered, the query leaves the page; what the alert hook
    // delivered for it stays.
    let reply = ctl(&addr, "acme", r#"{"cmd":"deregister","name":"q"}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let page = scrape(&addr);
    assert!(
        !page.lines().any(|l| l.starts_with("saql_query_")),
        "{page}"
    );
    let delivered = "saql_alerts_delivered_total{query=\"acme/q\"}";
    assert_eq!(series(&page, delivered), Some(9), "{page}");

    assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

/// A hello or a control line longer than [`MAX_LINE`] is refused with an
/// error line instead of being buffered until a newline comes, and the
/// server still answers a fresh control connection.
#[test]
fn an_over_long_hello_or_control_line_is_refused() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let long = vec![b'x'; MAX_LINE + 1];
    let open = || {
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let read_line = |reader: &mut BufReader<TcpStream>| {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("a reply within the timeout");
        line
    };

    let (mut reader, mut hello) = open();
    hello.write_all(&long).unwrap();
    let reply = read_line(&mut reader);
    assert!(reply.contains("\"ok\":false"), "{reply}");

    let (mut reader, mut control) = open();
    writeln!(control, r#"{{"role":"control","tenant":"t"}}"#).unwrap();
    assert!(read_line(&mut reader).contains("\"ok\":true"));
    control.write_all(&long).unwrap();
    let reply = read_line(&mut reader);
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(
        reply.contains(&format!("exceeds {MAX_LINE} bytes")),
        "{reply}"
    );

    let list = ctl(&addr, "t", r#"{"cmd":"list"}"#).unwrap();
    assert!(list.contains("\"ok\":true"), "{list}");
    assert!(ctl(&addr, "t", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

/// Lines reach the core in chunks of up to 64: a bad line far past the
/// first chunk is still reported by its line number on the connection.
#[test]
fn decode_error_line_numbers_hold_across_chunk_boundaries() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let events: Vec<Event> = (0..300).map(|i| event(i, 1000 + i, "host-x")).collect();
    let mut body = jsonl(&events[..149]);
    body.push_str("line 150 is not json\n");
    body.push_str(&jsonl(&events[149..]));
    body.push_str("nor is line 302\n");
    let report =
        ingest_reader(&addr, "default", "long", &mut Cursor::new(body), true, true).unwrap();
    assert_eq!(report.field("events"), Some(300), "{}", report.summary);
    assert_eq!(report.field("decode_errors"), Some(2), "{}", report.summary);
    assert!(
        report.summary.contains("first at line 150:"),
        "{}",
        report.summary
    );
    assert!(ctl(&addr, "default", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

#[test]
fn a_non_utf8_line_is_one_decode_error_not_the_end_of_the_feed() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    // Ten lines; line 3 carries a byte that is not UTF-8. `ingest_reader`
    // reads text, so the bytes go over a raw socket.
    let mut body = Vec::new();
    for i in 0..10 {
        let mut line = String::new();
        encode_event_json(&mut line, &event(i, 1000 + i, "host-x"));
        let mut raw = line.into_bytes();
        if i == 2 {
            raw[16] = 0xff; // inside `"host":"host-x"`
        }
        body.extend_from_slice(&raw);
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello = r#"{"role":"ingest","tenant":"default","source":"raw","lossless":true}"#;
    writeln!(stream, "{hello}").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"ok\":true"), "{ack}");
    stream.write_all(&body).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut summary = String::new();
    reader.read_line(&mut summary).unwrap();
    assert!(summary.contains("\"events\":9,"), "{summary}");
    assert!(summary.contains("\"decode_errors\":1,"), "{summary}");
    assert!(
        summary.contains("first at line 3: line is not valid UTF-8"),
        "{summary}"
    );

    assert!(ctl(
        &server.addr().to_string(),
        "default",
        r#"{"cmd":"shutdown"}"#
    )
    .unwrap()
    .contains("\"ok\":true"));
    server.wait().unwrap();
}

#[test]
fn an_oversized_line_is_decoded_and_normal_traffic_follows() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    // One line of over half a MiB (a long file name, inside the line cap),
    // then ordinary lines.
    let long = EventBuilder::new(0, "host-x", 1000)
        .subject(ProcessInfo::new(7, "writer.exe", "svc"))
        .writes_file(FileInfo::new("f".repeat(MAX_LINE / 2)))
        .build();
    let rest: Vec<Event> = (1..500).map(|i| event(i, 1000 + i, "host-x")).collect();
    let mut body = jsonl(&[long]);
    body.push_str(&jsonl(&rest));
    let report =
        ingest_reader(&addr, "default", "long", &mut Cursor::new(body), true, true).unwrap();
    assert_eq!(report.field("events"), Some(500), "{}", report.summary);
    assert_eq!(report.field("decode_errors"), Some(0), "{}", report.summary);

    assert!(ctl(&addr, "default", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

#[test]
fn an_ingest_line_over_the_cap_is_one_decode_error() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    // Twice the cap without a newline, then three ordinary lines.
    let mut body = "x".repeat(2 * MAX_LINE);
    body.push('\n');
    body.push_str(&jsonl(
        &(1..4)
            .map(|i| event(i, 1000 + i, "host-x"))
            .collect::<Vec<_>>(),
    ));
    let report =
        ingest_reader(&addr, "default", "long", &mut Cursor::new(body), true, true).unwrap();
    assert_eq!(report.field("events"), Some(3), "{}", report.summary);
    assert_eq!(report.field("decode_errors"), Some(1), "{}", report.summary);
    assert!(
        report
            .summary
            .contains("first at line 1: line exceeds 1048576 bytes"),
        "{}",
        report.summary
    );

    assert!(ctl(&addr, "default", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

#[test]
fn pipeline_tenancy_is_sealed_at_both_boundaries() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    assert!(
        ctl(&addr, "acme", &register_line("q", &rule_query("host-a")))
            .unwrap()
            .contains("\"ok\":true")
    );
    let steal = |upstream: &str| {
        format!(
            "from query \"{upstream}\" #time(30 s)\nstate es {{ n := count() }}\n\
             alert es[0].n > 0\nreturn es[0].n as n"
        )
    };

    // Control boundary: another tenant cannot consume acme's alert
    // stream, whether the reference spells the internal prefixed name...
    let refused = ctl(&addr, "evil", &register_line("tap", &steal("acme/q"))).unwrap();
    assert!(refused.contains("\"ok\":false"), "{refused}");
    assert!(refused.contains("tenant scope"), "{refused}");
    // ...or hopes a bare name resolves globally (it dangles in-scope).
    let refused = ctl(&addr, "evil", &register_line("tap", &steal("q"))).unwrap();
    assert!(refused.contains("\"ok\":false"), "{refused}");

    // The same bare name works for the tenant that owns the upstream, and
    // the dependency edge is live (the upstream refuses to deregister).
    assert!(ctl(&addr, "acme", &register_line("corr", &steal("q")))
        .unwrap()
        .contains("\"ok\":true"));
    let dep = ctl(&addr, "acme", r#"{"cmd":"deregister","name":"q"}"#).unwrap();
    assert!(dep.contains("\"ok\":false"), "{dep}");

    // Ingest boundary: a crafted `op = alert` line impersonating the
    // upstream's derived events is refused at decode, not fed downstream.
    let spoof = concat!(
        r#"{"id":9,"host":"saql","ts_ms":1000,"#,
        r#""subject":{"pid":0,"exe":"acme/q","user":"saql"},"op":"alert","#,
        r#""object":{"kind":"process","pid":0,"exe":"g","user":""},"amount":0}"#,
        "\n"
    );
    let report = ingest_reader(
        &addr,
        "acme",
        "spoof",
        &mut Cursor::new(spoof.to_string()),
        true,
        true,
    )
    .unwrap();
    assert_eq!(report.field("events"), Some(0), "{}", report.summary);
    assert_eq!(report.field("decode_errors"), Some(1), "{}", report.summary);

    assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    server.wait().unwrap();
}

/// Deregistering a windowed query over control delivers its open window's
/// flush to a subscriber, and then the subscriber's socket reaches EOF.
#[test]
fn deregister_flushes_to_the_subscriber_then_closes_its_socket() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let query = "proc p write file f as evt #time(10 min)\n\
                 state ss { n := count() } group by p\n\
                 return p, ss[0].n";
    let reply = ctl(&addr, "t", &register_line("w", query)).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // Subscribe by hand: once the hello is acknowledged, the core holds the
    // subscription. The read timeout turns a socket left open into a
    // failure instead of a hang.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sub = BufReader::new(stream.try_clone().unwrap());
    let hello = protocol::JsonObj::new()
        .str("role", "subscribe")
        .str("tenant", "t")
        .str("query", "w")
        .finish();
    writeln!(stream, "{hello}").unwrap();
    let mut line = String::new();
    sub.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    // Five writes inside one open window: nothing fires yet.
    let corpus: Vec<Event> = (0..5).map(|i| event(i, 1000 + i * 10, "h")).collect();
    let report = ingest_reader(
        &addr,
        "t",
        "feed",
        &mut Cursor::new(jsonl(&corpus)),
        true,
        true,
    )
    .unwrap();
    assert_eq!(report.field("released"), Some(5), "{}", report.summary);

    let reply = ctl(&addr, "t", r#"{"cmd":"deregister","name":"w"}"#).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let mut alerts = Vec::new();
    loop {
        line.clear();
        match sub.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => alerts.push(line.clone()),
            Err(e) => panic!("no EOF after the deregister ({e}); got {alerts:?}"),
        }
    }
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert!(alerts[0].contains("\"query\":\"t/w\""), "{alerts:?}");
    assert!(alerts[0].contains("\"ss[0].n\":\"5\""), "{alerts:?}");

    assert!(ctl(&addr, "t", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"draining\":true"));
    server.wait().unwrap();
}

/// The accept loop blocks in `accept`: a server that no client ever
/// connects to, bound to the wildcard address, still stops when asked —
/// and so does one that is only dropped.
#[test]
fn an_idle_wildcard_server_shuts_down() {
    let start = || {
        Server::start(ServeConfig {
            listen: "0.0.0.0:0".into(),
            print_alerts: false,
            ..ServeConfig::default()
        })
        .unwrap()
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let server = start();
        server.request_shutdown();
        let waited = server.wait().is_ok();
        drop(start());
        done_tx.send(waited).unwrap();
    });
    let waited = done_rx.recv_timeout(std::time::Duration::from_secs(30));
    assert_eq!(waited, Ok(true), "wait() and drop return");
}

#[test]
fn shutdown_checkpoint_resume_loses_nothing() {
    let root = scratch("resume");
    let store = root.join("events.d");
    let ckpt = root.join("ckpt");
    let corpus: Vec<Event> = (0..300).map(|i| event(i, 1000 + i * 10, "hr")).collect();
    let query = rule_query("hr");

    let serve_cfg = |resume: bool| ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        durable_store: Some(store.clone()),
        deployment: Deployment {
            checkpoints: Some(CheckpointConfig {
                dir: ckpt.clone(),
                every_events: 64,
            }),
            resume,
            ..Deployment::default()
        },
        ..ServeConfig::default()
    };

    // First incarnation: register, ingest half, SIGTERM-equivalent.
    let server = Server::start(serve_cfg(false)).unwrap();
    let addr = server.addr().to_string();
    assert!(ctl(&addr, "default", &register_line("q", &query))
        .unwrap()
        .contains("\"ok\":true"));
    let tail = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut buf = Vec::new();
            tail_alerts(&addr, "default", "q", &mut buf, None).unwrap();
            String::from_utf8(buf).unwrap()
        })
    };
    thread::sleep(std::time::Duration::from_millis(100));
    let report = ingest_reader(
        &addr,
        "default",
        "feed",
        &mut Cursor::new(jsonl(&corpus[..150])),
        true,
        true,
    )
    .unwrap();
    assert!(report.durable(), "{}", report.summary);
    assert_eq!(report.field("events"), Some(150), "{}", report.summary);
    server.request_shutdown();
    let summary = server.wait().unwrap();
    assert!(summary.checkpoint.is_some(), "no final checkpoint written");
    assert_eq!(summary.store_len, Some(150));
    let first_alerts: Vec<String> = tail.join().unwrap().lines().map(str::to_string).collect();

    // Second incarnation: resume restores the registry and the exact
    // stream position; the remaining half continues seamlessly.
    let server = Server::start(serve_cfg(true)).unwrap();
    let addr = server.addr().to_string();
    let list = ctl(&addr, "default", r#"{"cmd":"list"}"#).unwrap();
    assert!(list.contains("\"name\":\"q\""), "resumed registry: {list}");

    let tail = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut buf = Vec::new();
            tail_alerts(&addr, "default", "q", &mut buf, None).unwrap();
            String::from_utf8(buf).unwrap()
        })
    };
    thread::sleep(std::time::Duration::from_millis(100));
    let report = ingest_reader(
        &addr,
        "default",
        "feed",
        &mut Cursor::new(jsonl(&corpus[150..])),
        true,
        true,
    )
    .unwrap();
    assert!(report.durable(), "{}", report.summary);
    assert_eq!(report.field("events"), Some(150), "{}", report.summary);
    assert!(ctl(&addr, "default", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    let summary = server.wait().unwrap();
    assert_eq!(summary.store_len, Some(300));
    assert!(summary.checkpoint.is_some());
    let second_alerts: Vec<String> = tail.join().unwrap().lines().map(str::to_string).collect();

    // Union of both incarnations == the uninterrupted offline run.
    let offline = offline_alert_lines(&[("default/q".to_string(), query.clone())], corpus.clone());
    assert_eq!(offline.len(), 300);
    let mut served = first_alerts;
    served.extend(second_alerts);
    assert_eq!(sorted(served), sorted(offline));

    let _ = std::fs::remove_dir_all(&root);
}

/// Tiered detection as a served pipeline: stage 1 counts write bursts per
/// host in 10 s windows; stage 2 correlates distinct bursting hosts in
/// 30 s windows over stage 1's alert stream.
const TIERED_PIPELINE: &str = "\
proc p write file f as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 3
return evt.agentid as host, ss[0].writes as amount
|>
from #time(30 s)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 2
return es[0].hosts as hosts";

/// Burst trace for [`TIERED_PIPELINE`]: web-1 and web-2 both burst in the
/// first 10 s window (stage 2 fires, hosts=2); only web-1 bursts in the
/// [40 s, 50 s) window (stage 2 stays quiet); a trailing quiet event at
/// 95 s closes every window in-stream, so end-of-stream flushes add
/// nothing and runs with and without a final flush emit identical alerts.
fn pipeline_trace() -> Vec<Event> {
    let mut events = Vec::new();
    let mut id = 0u64;
    let mut push = |host: &str, ts: u64| {
        id += 1;
        events.push(event(id, ts, host));
    };
    for k in 0..4 {
        push("web-1", 1_000 + k * 2_000);
        push("web-2", 1_100 + k * 2_000);
    }
    push("web-3", 2_500);
    for k in 0..4 {
        push("web-1", 41_000 + k * 2_000);
    }
    push("web-2", 43_000);
    push("web-3", 95_000);
    events
}

/// Run `source` as a pipeline in one offline engine and render every alert
/// exactly as the subscribe role streams them.
fn offline_pipeline_alert_lines(name: &str, source: &str, events: Vec<Event>) -> Vec<String> {
    let mut engine = Engine::new(EngineConfig::default());
    saql::engine::register_pipeline(&mut engine, name, source).expect("pipeline registers");
    let alerts = engine
        .run(saql::stream::share(events))
        .expect("an engine without workers runs");
    alerts.iter().map(saql::engine::render_alert_json).collect()
}

#[test]
fn served_pipeline_fans_alert_stream_out_to_every_subscriber() {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Registering a `|>` source through the control plane deploys every
    // stage; the core loop rewires between rounds.
    let reply = ctl(&addr, "acme", &register_line("tiered", TIERED_PIPELINE)).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"stages\":2"), "{reply}");

    // Fan-out: two independent subscribers on the final stage, plus one on
    // the intermediate stage — each must see its query's full stream.
    let tails: Vec<_> = ["tiered", "tiered", "tiered.s1"]
        .iter()
        .map(|query| {
            let addr = addr.clone();
            let query = query.to_string();
            thread::spawn(move || {
                let mut buf = Vec::new();
                tail_alerts(&addr, "acme", &query, &mut buf, None).unwrap();
                String::from_utf8(buf).unwrap()
            })
        })
        .collect();
    thread::sleep(std::time::Duration::from_millis(100));

    let corpus = pipeline_trace();
    let report = ingest_reader(
        &addr,
        "acme",
        "feed",
        &mut Cursor::new(jsonl(&corpus)),
        true,
        true,
    )
    .unwrap();
    assert_eq!(
        report.field("events"),
        Some(corpus.len() as u64),
        "{}",
        report.summary
    );

    assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"draining\":true"));
    server.wait().unwrap();

    let offline = offline_pipeline_alert_lines("acme/tiered", TIERED_PIPELINE, corpus);
    let stage2: Vec<String> = offline
        .iter()
        .filter(|l| l.contains("\"query\":\"acme/tiered\""))
        .cloned()
        .collect();
    let stage1: Vec<String> = offline
        .iter()
        .filter(|l| l.contains("\"query\":\"acme/tiered.s1\""))
        .cloned()
        .collect();
    assert_eq!(stage1.len(), 3, "{offline:?}");
    assert_eq!(stage2.len(), 1, "{offline:?}");

    let got: Vec<Vec<String>> = tails
        .into_iter()
        .map(|t| t.join().unwrap().lines().map(str::to_string).collect())
        .collect();
    // Both final-stage subscribers see the identical, complete stream —
    // fan-out duplicates, it never load-balances.
    assert_eq!(sorted(got[0].clone()), sorted(stage2.clone()));
    assert_eq!(sorted(got[1].clone()), sorted(stage2));
    assert_eq!(sorted(got[2].clone()), sorted(stage1));
}

#[test]
fn served_pipeline_survives_shutdown_checkpoint_resume() {
    let root = scratch("pipe-resume");
    let store = root.join("events.d");
    let ckpt = root.join("ckpt");
    let corpus = pipeline_trace();
    // Cut mid-trace with stage 1's [40 s, 50 s) window OPEN and stage-1
    // alerts already adapted + pushed downstream: the checkpoint must
    // capture cross-stage state, not just the base stream position.
    let cut = 11;

    let serve_cfg = |resume: bool| ServeConfig {
        listen: "127.0.0.1:0".into(),
        print_alerts: false,
        durable_store: Some(store.clone()),
        deployment: Deployment {
            checkpoints: Some(CheckpointConfig {
                dir: ckpt.clone(),
                every_events: 4,
            }),
            resume,
            ..Deployment::default()
        },
        ..ServeConfig::default()
    };

    // Tail both stages concurrently (tail_alerts blocks until the server
    // disconnects, so sequential subscribes would miss the first stream).
    let tail_lines = |addr: &str| {
        let addr = addr.to_string();
        thread::spawn(move || {
            let inner = {
                let addr = addr.clone();
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    tail_alerts(&addr, "acme", "tiered.s1", &mut buf, None).unwrap();
                    buf
                })
            };
            let mut buf = Vec::new();
            tail_alerts(&addr, "acme", "tiered", &mut buf, None).unwrap();
            buf.extend(inner.join().unwrap());
            String::from_utf8(buf).unwrap()
        })
    };

    // First incarnation: deploy the pipeline, feed the prefix, shut down.
    let server = Server::start(serve_cfg(false)).unwrap();
    let addr = server.addr().to_string();
    assert!(
        ctl(&addr, "acme", &register_line("tiered", TIERED_PIPELINE))
            .unwrap()
            .contains("\"ok\":true")
    );
    let tail = tail_lines(&addr);
    thread::sleep(std::time::Duration::from_millis(100));
    let report = ingest_reader(
        &addr,
        "acme",
        "feed",
        &mut Cursor::new(jsonl(&corpus[..cut])),
        true,
        true,
    )
    .unwrap();
    assert!(report.durable(), "{}", report.summary);
    assert_eq!(
        report.field("events"),
        Some(cut as u64),
        "{}",
        report.summary
    );
    server.request_shutdown();
    let summary = server.wait().unwrap();
    assert!(summary.checkpoint.is_some(), "no final checkpoint written");
    // The store holds *base* events only: the adapted stage-1 alerts that
    // flowed between stages never reach disk (a resume re-derives them).
    assert_eq!(summary.store_len, Some(cut as u64));
    let first_alerts: Vec<String> = tail.join().unwrap().lines().map(str::to_string).collect();
    assert!(
        first_alerts
            .iter()
            .any(|l| l.contains("\"query\":\"acme/tiered\"")),
        "stage 2 should fire before the cut: {first_alerts:?}"
    );

    // Second incarnation: the registry (all stages), the stream position,
    // AND the adapter positions come back from the checkpoint.
    let server = Server::start(serve_cfg(true)).unwrap();
    let addr = server.addr().to_string();
    let list = ctl(&addr, "acme", r#"{"cmd":"list"}"#).unwrap();
    assert!(
        list.contains("\"name\":\"tiered\""),
        "resumed registry: {list}"
    );
    assert!(
        list.contains("\"name\":\"tiered.s1\""),
        "resumed registry: {list}"
    );
    let tail = tail_lines(&addr);
    thread::sleep(std::time::Duration::from_millis(100));
    let report = ingest_reader(
        &addr,
        "acme",
        "feed",
        &mut Cursor::new(jsonl(&corpus[cut..])),
        true,
        true,
    )
    .unwrap();
    assert!(report.durable(), "{}", report.summary);
    assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
        .unwrap()
        .contains("\"ok\":true"));
    let summary = server.wait().unwrap();
    assert_eq!(summary.store_len, Some(corpus.len() as u64));
    let second_alerts: Vec<String> = tail.join().unwrap().lines().map(str::to_string).collect();

    // Union of both incarnations == the uninterrupted offline pipeline:
    // no stage-2 alert lost, none derived twice.
    let offline = offline_pipeline_alert_lines("acme/tiered", TIERED_PIPELINE, corpus);
    assert_eq!(offline.len(), 4, "{offline:?}");
    let mut served = first_alerts;
    served.extend(second_alerts);
    assert_eq!(sorted(served), sorted(offline));

    let _ = std::fs::remove_dir_all(&root);
}

/// Stage 1 closes one 10 s window over every writing host at once, each
/// host alerting; stage 2 counts the alerts.
const WIDE_PIPELINE: &str = "proc p write file f as evt #time(10 s)\n\
                             state ss { n := count() } group by evt.agentid\n\
                             alert ss[0].n >= 1\n\
                             return evt.agentid as host, ss[0].n as amount\n\
                             |>\n\
                             from #time(30 s)\n\
                             state es { n := count() }\n\
                             alert es[0].n >= 1\n\
                             return es[0].n as n";

#[test]
fn a_round_raising_thousands_of_stage_alerts_still_acks() {
    // The whole exchange runs on its own thread, so a wedged server fails
    // the deadline below instead of hanging the test.
    let (done, finished) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let server = Server::start(ServeConfig {
            listen: "127.0.0.1:0".into(),
            print_alerts: false,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let reply = ctl(&addr, "acme", &register_line("wide", WIDE_PIPELINE)).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");

        // 4,199 hosts write once inside the first 10 s; the last event
        // closes that window in-stream, so one round raises 4,199 stage-1
        // alerts.
        let mut corpus: Vec<Event> = (0..4_199u64)
            .map(|i| event(i + 1, 1_000 + i, &format!("h-{i}")))
            .collect();
        corpus.push(event(4_200, 20_000, "late"));
        let body = jsonl(&corpus);
        let report =
            ingest_reader(&addr, "acme", "feed", &mut Cursor::new(body), true, true).unwrap();
        let stats = ctl(&addr, "acme", r#"{"cmd":"stats"}"#).unwrap();
        assert!(ctl(&addr, "acme", r#"{"cmd":"shutdown"}"#)
            .unwrap()
            .contains("\"ok\":true"));
        server.wait().unwrap();
        let _ = done.send((report.field("events"), stats));
    });
    let (events, stats) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the ingest ack and the stats reply arrive");
    assert_eq!(events, Some(4_200));
    assert!(stats.contains("\"ok\":true"), "{stats}");
    assert!(stats.contains("\"name\":\"wide\""), "{stats}");
}
