//! One control vocabulary, two surfaces: seeded random lifecycle schedules
//! (register / pause / resume / deregister over a rule query, a windowed
//! query and a two-stage `|>` pipeline) applied
//!
//! * (a) in process, through `RunSession::control` under the scope `t/`;
//! * (b) as JSON control lines to a `saql serve` `Server` for tenant `t`,
//!   between lossless arrival-order ingest connections, each drained
//!   before the next operation, with a subscriber opened on every stage
//!   after each register;
//!
//! must give the same alert multiset, the same reply to every operation
//! and the same final `list`.
//!
//! Nothing settles the pipeline before an operation: a pump round hands
//! the alerts it raised to their stages before it returns, so once a
//! segment's events are in, its stage alerts are too, and an operation
//! lands on the same state on both sides.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};

use saql::engine::{
    render_alert_json, CheckpointConfig, Control, ControlReply, Deployment, Scope, SessionStatus,
};
use saql::model::event::{Event, EventBuilder};
use saql::model::json::encode_event_json;
use saql::model::{NetworkInfo, ProcessInfo};
use saql::serve::protocol::{err_line, reply_line, request_line, JsonObj};
use saql::serve::{ctl, ingest_reader, Request, ServeConfig, Server};
use saql::stream::merge::Lateness;
use saql::stream::source::IterSource;
use saql::{Engine, EngineConfig};

const TENANT: &str = "t";

const RULE: &str = "proc p write ip i as evt\nreturn p, i";
const WINDOWED: &str = "proc p write ip i as evt #time(10 s)\n\
                        state ss { writes := count() } group by evt.agentid\n\
                        alert ss[0].writes >= 3\n\
                        return evt.agentid as host, ss[0].writes as amount";
const TIERED: &str = "proc p write ip i as evt #time(10 s)\n\
                      state ss { writes := count() } group by evt.agentid\n\
                      alert ss[0].writes >= 3\n\
                      return evt.agentid as host, ss[0].writes as amount\n\
                      |>\n\
                      from #time(30 s)\n\
                      state es { hosts := distinct_count(_in.agentid) }\n\
                      alert es[0].hosts >= 2\n\
                      return es[0].hosts as hosts";

/// `(name, text, stages)` of the three queries a schedule draws from.
const QUERIES: [(&str, &str, &[&str]); 3] = [
    ("rule", RULE, &["rule"]),
    ("win", WINDOWED, &["win"]),
    ("tier", TIERED, &["tier.s1", "tier"]),
];

/// Network writes, round-robin over three hosts, 700 ms apart.
fn events(n: u64) -> Vec<Event> {
    (0..n)
        .map(|i| {
            EventBuilder::new(i + 1, format!("web-{}", i % 3), 1_000 + i * 700)
                .subject(ProcessInfo::new(100, "worker", "svc"))
                .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                .amount(1024)
                .build()
        })
        .collect()
}

/// A seeded schedule of eight operations at sorted event positions, each
/// drawn for its query's state at that point; pausing a query that is not
/// live is drawn too, and both sides must refuse it alike.
fn schedule(seed: u64, n_events: usize) -> Vec<(usize, Control)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    // 0 absent, 1 live, 2 paused.
    let mut live = [0u8; 3];
    let mut positions: Vec<usize> = (0..8).map(|_| next(n_events + 1)).collect();
    positions.sort_unstable();
    positions
        .into_iter()
        .map(|at| {
            let q = next(QUERIES.len());
            let (name, text, _) = QUERIES[q];
            let name = name.to_string();
            let op = match (live[q], next(4)) {
                (0, 0) => Control::Pause { name },
                (0, _) => Control::Register {
                    name,
                    text: text.to_string(),
                },
                (1, 0) | (2, 0) => Control::Deregister { name },
                (1, 1) => Control::Pause { name },
                (2, 1) => Control::Resume { name },
                (1, _) => Control::Pause { name },
                (_, _) => Control::Resume { name },
            };
            live[q] = match (&op, live[q]) {
                (Control::Register { .. }, _) => 1,
                (Control::Deregister { .. }, _) => 0,
                (Control::Pause { .. }, 0) => 0,
                (Control::Pause { .. }, _) => 2,
                (Control::Resume { .. }, _) => 1,
                (_, s) => s,
            };
            (at, op)
        })
        .collect()
}

/// What a run produced: every alert (rendered, sorted), the reply line of
/// each scheduled operation, and the final `list` reply.
#[derive(Debug, PartialEq)]
struct Outcome {
    alerts: Vec<String>,
    replies: Vec<String>,
    list: String,
}

fn reply(result: Result<ControlReply, String>) -> String {
    match result {
        Ok(applied) => reply_line(&applied),
        Err(e) => err_line(&e),
    }
}

/// Side (a): the schedule through `RunSession::control`, each segment of
/// events its own arrival-order source pumped to the end of the stream.
fn in_process(schedule: &[(usize, Control)], events: &[Event]) -> Outcome {
    let scope = Scope {
        prefix: format!("{TENANT}/"),
        max_live: 64,
    };
    let mut engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let mut alerts = Vec::new();
    let mut feed = |session: &mut saql::engine::RunSession<'_>, segment: &[Event]| {
        let source = IterSource::new("feed", saql::stream::share(segment.to_vec()));
        session.attach_with(source, Lateness::ArrivalOrder);
        loop {
            let round = session.pump();
            alerts.extend(round.alerts.iter().map(render_alert_json));
            if round.status == SessionStatus::Done {
                break;
            }
        }
    };
    let mut replies = Vec::new();
    let mut fed = 0;
    for (at, op) in schedule {
        feed(&mut session, &events[fed..*at]);
        fed = *at;
        replies.push(reply(session.control(&scope, op.clone())));
    }
    feed(&mut session, &events[fed..]);
    let list = reply(session.control(&scope, Control::List));
    alerts.sort();
    Outcome {
        alerts,
        replies,
        list,
    }
}

/// A subscriber on `query`, acknowledged before this returns; the thread
/// collects its alert lines until the server closes the stream.
fn subscribe(addr: &str, query: &str) -> JoinHandle<Vec<String>> {
    let stream = TcpStream::connect(addr).unwrap();
    let hello = JsonObj::new()
        .str("role", "subscribe")
        .str("tenant", TENANT)
        .str("query", query)
        .finish();
    writeln!(&stream, "{hello}").unwrap();
    let mut reader = BufReader::new(stream);
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("\"ok\":true"), "subscribe {query}: {ack}");
    thread::spawn(move || reader.lines().map_while(Result::ok).collect())
}

fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        encode_event_json(&mut out, e);
        out.push('\n');
    }
    out
}

/// Side (b): the schedule as control lines to a server, each segment of
/// events one lossless arrival-order ingest connection. The server
/// checkpoints into `dir` at shutdown instead of flushing, so its open
/// windows stay open like side (a)'s.
fn served(schedule: &[(usize, Control)], events: &[Event], dir: &Path) -> Outcome {
    let server = Server::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        deployment: Deployment {
            checkpoints: Some(CheckpointConfig {
                dir: dir.to_path_buf(),
                every_events: 0,
            }),
            ..Deployment::default()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let send = |request: Request| ctl(&addr, TENANT, &request_line(&request)).unwrap();
    let ingest = |segment: &[Event]| {
        let report = ingest_reader(
            &addr,
            TENANT,
            "feed",
            &mut Cursor::new(jsonl(segment)),
            true,
            true,
        )
        .unwrap();
        assert_eq!(report.field("events"), Some(segment.len() as u64));
    };
    let mut tails = Vec::new();
    let mut replies = Vec::new();
    let mut fed = 0;
    for (at, op) in schedule {
        ingest(&events[fed..*at]);
        fed = *at;
        let line = send(Request::Control(op.clone()));
        if let (Control::Register { name, .. }, true) = (op, line.contains("\"ok\":true")) {
            let (_, _, stages) = QUERIES.iter().find(|(q, _, _)| q == name).unwrap();
            tails.extend(stages.iter().map(|stage| subscribe(&addr, stage)));
        }
        replies.push(line);
    }
    ingest(&events[fed..]);
    let list = send(Request::Control(Control::List));
    assert!(send(Request::Shutdown).contains("\"ok\":true"));
    server.wait().unwrap();
    let mut alerts: Vec<String> = tails
        .into_iter()
        .flat_map(|tail| tail.join().unwrap())
        .collect();
    alerts.sort();
    Outcome {
        alerts,
        replies,
        list,
    }
}

/// A fresh checkpoint directory per call (tests run concurrently).
fn fresh_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "saql-control-diff-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_control_lines_match_in_process_controls() {
    let events = events(300);
    let mut fired = std::collections::BTreeSet::new();
    for seed in 1..=10u64 {
        let schedule = schedule(seed, events.len());
        let dir = fresh_dir();
        let direct = in_process(&schedule, &events);
        let remote = served(&schedule, &events, &dir);
        assert_eq!(direct.replies, remote.replies, "seed {seed}: {schedule:?}");
        assert_eq!(direct.list, remote.list, "seed {seed}: {schedule:?}");
        assert_eq!(
            direct.alerts.len(),
            remote.alerts.len(),
            "seed {seed}: {schedule:?}"
        );
        assert_eq!(direct.alerts, remote.alerts, "seed {seed}: {schedule:?}");
        let _ = std::fs::remove_dir_all(dir);
        for alert in &direct.alerts {
            let query = alert.split('"').nth(3).unwrap_or_default().to_string();
            fired.insert(query);
        }
    }
    // The schedules exercised every query shape, the final stage included.
    for query in ["t/rule", "t/win", "t/tier.s1", "t/tier"] {
        assert!(fired.contains(query), "{query} never fired: {fired:?}");
    }
}
