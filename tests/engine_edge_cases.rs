//! Edge-case and failure-injection tests across the engine pipeline:
//! degenerate streams, adversarial inputs, quota pressure, and semantics at
//! boundaries. None of these may panic or corrupt query state — the engine
//! runs unattended over untrusted monitoring data.

use saql::engine::matcher::PARTIAL_MATCH_CAP;
use saql::engine::query::RunningQuery;
use saql::engine::Scheduler;
use saql::engine::{Engine, EngineConfig};
use saql::model::event::EventBuilder;
use saql::model::{FileInfo, NetworkInfo, ProcessInfo};
use saql::stream::{batched, SharedEvent};
use std::sync::Arc;

fn send(id: u64, ts: u64, host: &str, exe: &str, dst: &str, amount: u64) -> SharedEvent {
    Arc::new(
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, exe, "u"))
            .sends(NetworkInfo::new("10.0.0.2", 44000, dst, 443, "tcp"))
            .amount(amount)
            .build(),
    )
}

fn start(id: u64, ts: u64, parent: (u32, &str), child: (u32, &str)) -> SharedEvent {
    Arc::new(
        EventBuilder::new(id, "h", ts)
            .subject(ProcessInfo::new(parent.0, parent.1, "u"))
            .starts_process(ProcessInfo::new(child.0, child.1, "u"))
            .build(),
    )
}

#[test]
fn empty_stream_is_fine() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nalert ss[0].n > 0\nreturn p")
        .unwrap();
    let alerts = engine.run(Vec::new()).unwrap();
    assert!(alerts.is_empty());
}

#[test]
fn all_events_at_the_same_timestamp() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n")
        .unwrap();
    let events: Vec<SharedEvent> = (0..100)
        .map(|i| send(i, 42_000, "h", "a.exe", "1.1.1.1", 1))
        .collect();
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].get("ss[0].n"), Some("100"));
}

#[test]
fn huge_amounts_do_not_overflow_aggregates() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { s := sum(evt.amount) } group by p\nalert ss[0].s > 0\nreturn p, ss[0].s")
        .unwrap();
    let events: Vec<SharedEvent> = (0..16)
        .map(|i| send(i, 1_000 + i, "h", "a.exe", "1.1.1.1", u64::MAX / 32))
        .collect();
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts.len(), 1);
    // f64 accumulation: large but finite.
    let s: f64 = alerts[0].get("ss[0].s").unwrap().parse().unwrap();
    assert!(s.is_finite() && s > 1e18);
}

#[test]
fn a_timestamp_near_the_end_of_time_still_closes_its_window() {
    // The window's end (`start + size`), its close time (`+ lateness`) and
    // the merge's lateness test (`ts + bound`) saturate at u64::MAX ms
    // instead of overflowing: the far-future event is neither dropped as
    // late nor a panic, and its window flushes at the end of the stream.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n")
        .unwrap();
    let far = u64::MAX - 615;
    let events = vec![
        send(1, 1_000, "h", "a.exe", "1.1.1.1", 1),
        send(2, far - 300, "h", "a.exe", "1.1.1.1", 1),
        send(3, far, "h", "a.exe", "1.1.1.1", 1),
    ];
    let alerts = engine.run(events).unwrap();
    let counts: Vec<_> = alerts.iter().map(|a| a.get("ss[0].n")).collect();
    assert_eq!(counts, vec![Some("1"), Some("2")]);
}

#[test]
fn partial_match_cap_degrades_gracefully() {
    // A pathological stream of step-1 events floods the matcher past its
    // partial-match cap: it must keep running, flag the overflow, and still
    // detect a chain whose prefix survived.
    let src = "proc a[\"%x.exe\"] write file f as e1\nproc b[\"%y.exe\"] read file f as e2\nwith e1 -> e2\nreturn distinct a, b, f";
    let mut q = Scheduler::new();
    q.add(RunningQuery::compile("capped", src).unwrap());
    let n = PARTIAL_MATCH_CAP as u64 + 100;
    let flood: Vec<SharedEvent> = (0..n)
        .map(|i| {
            Arc::new(
                EventBuilder::new(i, "h", i * 10)
                    .subject(ProcessInfo::new(1, "x.exe", "u"))
                    .writes_file(FileInfo::new(format!("f{i}")))
                    .build(),
            )
        })
        .collect();
    for batch in batched(flood, 1_024) {
        assert!(q.process_batch(&batch).is_empty());
    }
    let errors = q.queries().next().unwrap().errors().total();
    assert!(errors > 0, "overflow must be reported");
    // A fresh pair still matches end to end.
    let w = Arc::new(
        EventBuilder::new(n, "h", n * 10)
            .subject(ProcessInfo::new(1, "x.exe", "u"))
            .writes_file(FileInfo::new("fresh"))
            .build(),
    );
    let r = Arc::new(
        EventBuilder::new(n + 1, "h", n * 10 + 100)
            .subject(ProcessInfo::new(2, "y.exe", "u"))
            .reads_file(FileInfo::new("fresh"))
            .build(),
    );
    q.process(&w);
    assert_eq!(q.process(&r).len(), 1);
}

#[test]
fn many_groups_in_one_window() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { s := sum(evt.amount) } group by i.dstip\nreturn i.dstip, ss[0].s")
        .unwrap();
    let dst = |i: u64| format!("10.{}.{}.{}", i % 4, (i / 4) % 250, i % 250);
    let events: Vec<SharedEvent> = (0..5_000)
        .map(|i| send(i, 1_000 + i % 50, "h", "a.exe", &dst(i), 10))
        .collect();
    let distinct: std::collections::HashSet<String> = (0..5_000).map(dst).collect();
    let alerts = engine.run(events).unwrap();
    assert_eq!(
        alerts.len(),
        distinct.len(),
        "one alert per distinct destination group"
    );
    assert!(alerts.len() >= 1_000);
}

#[test]
fn alert_comparing_string_to_number_is_quietly_false() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { n := count() } group by p\nalert p > 5\nreturn p")
        .unwrap();
    // `p` is an exe-name string; `p > 5` is incomparable → never alerts,
    // never panics, and the error reporter stays usable.
    let alerts = engine
        .run(vec![send(1, 1_000, "h", "a.exe", "1.1.1.1", 1)])
        .unwrap();
    assert!(alerts.is_empty());
}

#[test]
fn self_spawning_process_pattern() {
    // `proc p start proc p` — subject and object share a variable; only an
    // event whose child equals its parent identity can match.
    let src = "proc p start proc p as e\nreturn p";
    let mut q = Scheduler::new();
    q.add(RunningQuery::compile("selfjoin", src).unwrap());
    assert!(q
        .process(&start(1, 10, (5, "a.exe"), (6, "a.exe")))
        .is_empty());
    assert_eq!(
        q.process(&start(2, 20, (7, "fork.exe"), (7, "fork.exe")))
            .len(),
        1
    );
}

#[test]
fn zero_amount_events_feed_averages() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate ss { a := avg(evt.amount) } group by p\nreturn p, ss[0].a")
        .unwrap();
    let events = vec![
        send(1, 1_000, "h", "a.exe", "1.1.1.1", 0),
        send(2, 2_000, "h", "a.exe", "1.1.1.1", 100),
    ];
    let alerts = engine.run(events).unwrap();
    assert_eq!(alerts[0].get("ss[0].a"), Some("50.0"));
}

#[test]
fn min_max_aggregates_on_empty_history_stay_missing() {
    // min/max have no neutral value: a reference into an empty past window
    // must block the alert rather than fabricate zero.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("q", "proc p write ip i as evt #time(1 min)\nstate[2] ss { m := max(evt.amount) } group by p\nalert ss[0].m > ss[1].m\nreturn p, ss[0].m")
        .unwrap();
    let mut alerts = Vec::new();
    // Window 0 active, window 1 empty for the group, window 2 active.
    alerts.extend(
        engine
            .process(&send(1, 1_000, "h", "a.exe", "1.1.1.1", 10))
            .unwrap(),
    );
    alerts.extend(
        engine
            .process(&send(2, 121_000, "h", "a.exe", "1.1.1.1", 50))
            .unwrap(),
    );
    alerts.extend(engine.finish());
    // Window 2's ss[1] (window 1) is Missing → comparison Missing → quiet.
    // Window 0's ss[1] predates the stream → also quiet.
    assert!(alerts.is_empty(), "{alerts:?}");
}

#[test]
fn duplicate_event_ids_do_not_duplicate_rule_alerts() {
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register(
            "q",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
    let e = start(7, 10, (1, "cmd.exe"), (2, "osql.exe"));
    let mut alerts = Vec::new();
    alerts.extend(engine.process(&e).unwrap());
    alerts.extend(engine.process(&e).unwrap());
    assert_eq!(alerts.len(), 1, "same event id must alert once: {alerts:?}");
}

#[test]
fn queries_are_isolated_under_one_engine() {
    // A query with a tiny matcher cap must not affect its neighbours.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("wide", "proc p start proc q as e\nreturn distinct p, q")
        .unwrap();
    engine
        .register(
            "narrow",
            "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2",
        )
        .unwrap();
    let mut alerts = Vec::new();
    for i in 0..50u64 {
        alerts.extend(
            engine
                .process(&start(i, i * 10, (1, "cmd.exe"), (2, &format!("c{i}.exe"))))
                .unwrap(),
        );
    }
    let wide = alerts.iter().filter(|a| a.query == "wide").count();
    let narrow = alerts.iter().filter(|a| a.query == "narrow").count();
    assert_eq!(wide, 50);
    assert_eq!(narrow, 50);
}
