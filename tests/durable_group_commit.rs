//! Group commit on the write-ahead tap: a tapped session round keeps
//! polling the merge while the last poll moved events, up to the round's
//! budget and the next cadence checkpoint, then appends and syncs the whole
//! group once before the engine sees it. These tests pin what that may and
//! may not change:
//!
//! * a backlog moves in one round, under one sync, and the round says
//!   `Active`;
//! * a round that moved events never reports `Idle` (a caller parks on
//!   `Idle`);
//! * the budget is exact, and sessions without a tap poll once per round;
//! * the checkpoint cadence keeps its granularity;
//! * alerts and stored events do not depend on how the feed arrives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use saql::engine::{CheckpointConfig, Deployment, DurableLog, Run, SessionStatus};
use saql::model::event::EventBuilder;
use saql::model::{Event, FileInfo, NetworkInfo, ProcessInfo};
use saql::stream::merge::{Lateness, MergeConfig};
use saql::stream::source::push_source;
use saql::stream::{SharedEvent, StoreReader, StoreWriter};
use saql::Alert;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saql-group-commit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A run over a fresh write-ahead store in `dir` (untapped when `tap` is
/// false), with `queries` registered and an optional checkpoint cadence.
fn open(dir: &Path, tap: bool, queries: &[(String, String)], every: Option<u64>) -> Run {
    let deployment = Deployment {
        queries: queries.to_vec(),
        checkpoints: every.map(|every_events| CheckpointConfig {
            dir: dir.join("ckpt"),
            every_events,
        }),
        ..Deployment::default()
    };
    let log = tap.then(|| {
        let store = StoreWriter::create_segmented(dir.join("store")).unwrap();
        DurableLog::WriteAhead("_resume".into(), store)
    });
    deployment.open("", log).unwrap()
}

/// `n` process starts, one per trace-millisecond, on one host.
fn starts(n: u64) -> Vec<SharedEvent> {
    (1..=n)
        .map(|i| {
            Arc::new(
                EventBuilder::new(i, "h", 1_000 + i)
                    .subject(ProcessInfo::new(1, "cmd.exe", "u"))
                    .starts_process(ProcessInfo::new(2, "x.exe", "u"))
                    .build(),
            )
        })
        .collect()
}

fn stored(dir: &Path) -> Vec<Event> {
    StoreReader::open(dir.join("store"))
        .unwrap()
        .iter_from(0)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap()
}

#[test]
fn a_backlog_moves_in_one_round_and_the_budget_is_exact() {
    let dir = scratch("backlog");
    let mut run = open(&dir, true, &[], None);
    let mut session = run.session();
    let (push, live) = push_source("live", 20_000);
    session.attach_with(live, Lateness::ArrivalOrder);
    for event in starts(10_000) {
        assert!(push.push(Arc::unwrap_or_clone(event)));
    }
    let round = session.pump_max(65_536);
    assert_eq!(round.events, 10_000, "the whole backlog in one round");
    assert_eq!(round.status, SessionStatus::Active);
    assert_eq!(session.store().unwrap().len(), 10_000);

    // The drain stops at the budget, so staged controls land exactly.
    for (i, event) in starts(20_000).into_iter().enumerate().skip(10_000) {
        assert!(push.push(Arc::unwrap_or_clone(event)), "event {i}");
    }
    let round = session.pump_max(1_000);
    assert_eq!(round.events, 1_000);
    assert_eq!(session.store().unwrap().len(), 11_000);
    assert_eq!(session.offset(), 11_000);
    drop(push);
    drop(session);
    drop(run);
    assert_eq!(
        stored(&dir),
        *starts(11_000)
            .iter()
            .map(|e| (**e).clone())
            .collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_untapped_round_polls_once() {
    let dir = scratch("untapped");
    let mut run = open(&dir, false, &[], None);
    let mut session = run.session();
    let (push, live) = push_source("live", 10_000);
    session.attach_with(live, Lateness::ArrivalOrder);
    for event in starts(10_000) {
        assert!(push.push(Arc::unwrap_or_clone(event)));
    }
    let round = session.pump_max(65_536);
    assert_eq!(round.events, MergeConfig::default().pull_batch as u64);
    assert_eq!(round.status, SessionStatus::Active);
}

/// The core of `saql serve` parks on its control channel after a round
/// that is not `Active`: a round that moved events must not say `Idle`,
/// even though the poll that ended its drain found nothing.
#[test]
fn a_round_that_moved_events_never_reports_idle() {
    let dir = scratch("status");
    let mut run = open(&dir, true, &[], None);
    let mut session = run.session();
    let (push, live) = push_source("live", 4_096);
    session.attach_with(live, Lateness::ArrivalOrder);
    let events = starts(1 + 255 + 256 + 257 + 3_000);
    let mut feed = events.into_iter();
    let mut total = 0;
    for n in [1usize, 255, 256, 257, 3_000] {
        for event in feed.by_ref().take(n) {
            assert!(push.push(Arc::unwrap_or_clone(event)));
        }
        let round = session.pump_max(65_536);
        assert_eq!(round.events, n as u64);
        assert_ne!(round.status, SessionStatus::Idle, "a round of {n} events");
        total += n as u64;
        assert_eq!(session.store().unwrap().len(), total);
        // Nothing left: that round is idle, so the caller may park.
        let round = session.pump_max(65_536);
        assert_eq!((round.events, round.status), (0, SessionStatus::Idle));
    }
    drop(push);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_cadence_keeps_its_granularity() {
    const EVERY: u64 = 500;
    let dir = scratch("cadence");
    let watch = [(
        "watch".to_string(),
        "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2".to_string(),
    )];
    let mut run = open(&dir, true, &watch, Some(EVERY));
    let mut session = run.session();
    let (push, live) = push_source("live", 10_000);
    session.attach_with(live, Lateness::ArrivalOrder);
    for event in starts(10_000) {
        assert!(push.push(Arc::unwrap_or_clone(event)));
    }
    let mut checkpoints = vec![0];
    while session.offset() < 10_000 {
        let round = session.pump_max(65_536);
        assert!(round.events > 0, "a backlog is left");
        if let Some(at) = session.last_checkpoint() {
            if Some(&at) != checkpoints.last() {
                checkpoints.push(at);
            }
        }
    }
    assert_eq!(session.checkpoint_failure(), None);
    // Each checkpoint lands at most one merge poll past the cadence.
    let poll = MergeConfig::default().pull_batch as u64;
    for pair in checkpoints.windows(2) {
        let gap = pair[1] - pair[0];
        assert!(
            (EVERY..EVERY + poll).contains(&gap),
            "{checkpoints:?}: a gap of {gap}"
        );
    }
    assert!(
        checkpoints.len() > 10_000 / (EVERY + poll) as usize,
        "{checkpoints:?}"
    );
    drop(push);
    drop(session);
    drop(run);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A trace in the vocabulary of the ladder's Q-family queries
/// (`benchmark/queries/family`): the three attack rules, spiking and
/// steady uploads, database peers, a launcher's children, and upload
/// bursts on three hosts at once for the two-stage pipeline. Attack steps
/// join only within their instance (every 32 events get their own pids
/// and dump file), so the rules' partial matches stay few.
fn family_trace(n: u64) -> Vec<SharedEvent> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ts = 1_000_000 + i * 8;
            let proc = |exe: &str, pid: u32| ProcessInfo::new(pid, exe, "u");
            let (pid, dump) = (100 + 10 * (i / 32) as u32, format!("m{}.dmp", i / 32));
            let attacker = NetworkInfo::new("10.0.0.5", 50_000, "172.16.0.9", 443, "tcp");
            let on = |host: &str| EventBuilder::new(i + 1, host, ts);
            let burst = i % 500;
            let event = if burst < 150 {
                on(&format!("up-{}", burst % 3))
                    .subject(proc("uploader.exe", 7))
                    .sends(NetworkInfo::new("10.0.0.8", 40_000, "10.9.0.1", 443, "tcp"))
                    .amount(10_000 + x % 100)
            } else {
                match x % 11 {
                    0 => on("ws-1")
                        .subject(proc("mailer.exe", 11))
                        .writes_file(FileInfo::new(format!("q{}.xlsm", x % 4))),
                    1 => on("ws-1")
                        .subject(proc("sheet.exe", pid))
                        .starts_process(proc("script.exe", pid + 1)),
                    2 => on("ws-1")
                        .subject(proc("script.exe", pid + 1))
                        .sends(attacker),
                    3 => on("ws-2")
                        .subject(proc("shell.exe", pid))
                        .starts_process(proc("dumper.exe", pid + 1)),
                    4 => on("ws-2")
                        .subject(proc("dumper.exe", pid + 1))
                        .writes_file(FileInfo::new(&dump)),
                    5 => on("ws-2")
                        .subject(proc("courier.exe", pid + 2))
                        .reads_file(FileInfo::new(&dump)),
                    6 => on("ws-2")
                        .subject(proc("courier.exe", pid + 2))
                        .sends(attacker),
                    7 | 8 => {
                        let peer = x % 13;
                        let amount = if peer == 0 { 50_000_000 } else { 200_000 };
                        on("db-1")
                            .subject(proc("dbsrv.exe", 31))
                            .sends(NetworkInfo::new(
                                "10.0.0.2",
                                1433,
                                format!("10.2.0.{peer}"),
                                50_000,
                                "tcp",
                            ))
                            .amount(amount)
                    }
                    _ => {
                        let child = if i > n / 2 && x.is_multiple_of(7) {
                            "rogue.exe"
                        } else {
                            "svc.exe"
                        };
                        on("app-1")
                            .subject(proc("launcher.exe", 41))
                            .starts_process(proc(child, 42 + (x % 5) as u32))
                    }
                }
            };
            Arc::new(event.build())
        })
        .collect()
}

/// The eight Q-family queries, the two-stage pipeline among them.
fn family_queries() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/queries/family");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("the Q-family directory")
        .map(|entry| entry.expect("readable").path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("readable"))
        })
        .collect()
}

/// Each query's alerts, in the order it raised them.
fn by_query(alerts: &[Alert]) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for alert in alerts {
        out.entry(alert.query.clone())
            .or_default()
            .push(alert.to_string());
    }
    out
}

/// Run the family over `events`: `per_pump` events pushed before each pump
/// round (`None`: the whole trace first, a backlog), then drained.
fn family_run(
    dir: &Path,
    tap: bool,
    events: &[SharedEvent],
    per_pump: Option<usize>,
) -> Vec<Alert> {
    let mut run = open(dir, tap, &family_queries(), None);
    let mut session = run.session();
    let (push, live) = push_source("live", events.len() + 1);
    session.attach_with(live, Lateness::ArrivalOrder);
    let mut alerts = Vec::new();
    for chunk in events.chunks(per_pump.unwrap_or(events.len())) {
        for event in chunk {
            assert!(push.push(Event::clone(event)));
        }
        if per_pump.is_some() {
            alerts.extend(session.pump_max(65_536).alerts);
        }
    }
    drop(push);
    alerts.extend(session.drain());
    alerts
}

#[test]
fn alerts_and_stored_events_do_not_depend_on_how_the_feed_arrives() {
    let events = family_trace(3_000);
    let root = scratch("equivalence");
    let untapped = by_query(&family_run(&root.join("untapped"), false, &events, None));
    // Every query fires, both pipeline stages included.
    let fired: Vec<&str> = untapped.keys().map(String::as_str).collect();
    assert_eq!(fired.len(), family_queries().len() + 1, "{fired:?}");
    let want: Vec<Event> = events.iter().map(|e| (**e).clone()).collect();
    for (tag, per_pump) in [("backlog", None), ("one-per-pump", Some(1))] {
        let dir = root.join(tag);
        let tapped = by_query(&family_run(&dir, true, &events, per_pump));
        assert_eq!(tapped, untapped, "{tag}: alerts per query, in order");
        assert_eq!(stored(&dir), want, "{tag}: the store holds the feed");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
