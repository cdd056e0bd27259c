//! End-to-end pipeline tests: a two-stage `|>` pipeline running inside one
//! engine must produce exactly the alerts of two hand-chained engines —
//! stage 1 in the first, its alert stream adapted by hand and fed to
//! stage 2 in the second.

use std::sync::Arc;

use saql_engine::alert::AlertOrigin;
use saql_engine::pipeline::{
    deregister_pipeline, register_pipeline, register_pipeline_scoped, AlertAdapter,
};
use saql_engine::{
    Alert, Checkpoint, CheckpointConfig, Engine, EngineConfig, EngineError, RunSession,
    SessionStatus,
};
use saql_model::event::EventBuilder;
use saql_model::{Event, NetworkInfo, ProcessInfo, Timestamp};
use saql_stream::merge::Lateness;
use saql_stream::source::{push_source, IterSource};
use saql_stream::SharedEvent;

/// Tiered detection: stage 1 summarizes write bursts per host in 10 s
/// windows; stage 2 counts how many distinct hosts burst inside 30 s and
/// fires when the anomaly is enterprise-wide.
const TIERED: &str = "\
proc p write ip i as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 3
return evt.agentid as host, ss[0].writes as amount
|>
from #time(30 s)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 2
return es[0].hosts as hosts";

/// The two stage sources exactly as `split_stages` produces them, for the
/// hand-chained reference run.
fn stage_sources() -> (String, String) {
    let stages = saql_lang::split_stages("tiered", TIERED).expect("pipeline splits");
    assert_eq!(stages.len(), 2);
    (stages[0].source.clone(), stages[1].source.clone())
}

/// A burst trace: hosts web-1 and web-2 each write 4 times inside the
/// first 10 s window (both burst), web-3 writes once (quiet). A second
/// round 40 s later has only web-1 bursting (stage 2 must NOT fire).
fn trace() -> Vec<SharedEvent> {
    let mut events = Vec::new();
    let mut id = 0u64;
    let mut push = |host: &str, ts: u64| {
        id += 1;
        events.push(Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(100, "worker", "svc"))
                .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                .amount(1024)
                .build(),
        ));
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
    // Trailing quiet traffic moves the frontier so the 30 s correlation
    // window provably closes in-stream, not only at drain.
    push("web-3", 95_000);
    events
}

/// Salient alert identity, ignoring engine-local query ids.
fn key(a: &Alert) -> (String, u64, String, Vec<(String, String)>) {
    (
        a.query.clone(),
        a.ts.as_millis(),
        format!("{:?}", a.origin),
        a.rows.clone(),
    )
}

/// Pump `session` until its stream ends in rounds of at most `round`
/// events; returns the alerts (no end-of-stream flush).
fn pump_until_done(session: &mut RunSession<'_>, round: usize) -> Vec<Alert> {
    let mut alerts = Vec::new();
    loop {
        let pumped = session.pump_max(round);
        alerts.extend(pumped.alerts);
        if pumped.status == SessionStatus::Done {
            return alerts;
        }
    }
}

/// Run the pipeline inside one engine and return all alerts.
fn run_pipeline(config: EngineConfig) -> Vec<Alert> {
    let mut engine = Engine::new(config);
    register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
    let mut session = engine.session();
    session.attach_with(IterSource::new("trace", trace()), Lateness::ArrivalOrder);
    let mut alerts = pump_until_done(&mut session, 64);
    alerts.extend(session.finish());
    alerts
}

/// Hand-chain two engines: stage 1 alone in the first; its ordered alert
/// stream adapted (same adapter code) and fed to stage 2 in the second.
fn run_hand_chained(config: EngineConfig) -> Vec<Alert> {
    hand_chained(config, "tiered", TIERED, trace())
}

/// [`run_hand_chained`] for any two-stage pipeline `text` named `name`,
/// over `events`.
fn hand_chained(
    config: EngineConfig,
    name: &str,
    text: &str,
    events: Vec<SharedEvent>,
) -> Vec<Alert> {
    let stages = saql_lang::split_stages(name, text).expect("pipeline splits");
    let (up_name, s1, s2) = (&stages[0].name, &stages[0].source, &stages[1].source);
    // Engine 1: stage 1 only, fed the raw trace.
    let mut e1 = Engine::new(config);
    e1.register(up_name, s1).expect("stage 1 registers");
    let mut stage1 = Vec::new();
    for event in events {
        stage1.extend(e1.process(&event).expect("processes"));
    }
    stage1.extend(e1.finish());

    // Engine 2: stage 2, fed only the adapted alert stream. The upstream
    // must exist for `from query` to validate, so stage 1 rides along —
    // it never matches an adapted event, and with no raw traffic it never
    // alerts.
    let mut e2 = Engine::new(config);
    e2.register(up_name, s1).expect("upstream registers");
    let up = e2.find(up_name).expect("registered");
    e2.register(name, s2).expect("stage 2 registers");
    let mut adapter = AlertAdapter::new(up_name, up);
    let mut out: Vec<Alert> = stage1.clone();
    for alert in &stage1 {
        let derived = adapter.adapt(alert);
        out.extend(e2.process(&derived).expect("processes"));
    }
    out.extend(e2.finish());
    out
}

#[test]
fn pipeline_matches_hand_chained_serial() {
    let config = EngineConfig::default();
    let piped = run_pipeline(config);
    let chained = run_hand_chained(config);

    let split = |alerts: &[Alert]| -> (Vec<_>, Vec<_>) {
        (
            alerts
                .iter()
                .filter(|a| a.query == "tiered.s1")
                .map(key)
                .collect(),
            alerts
                .iter()
                .filter(|a| a.query == "tiered")
                .map(key)
                .collect(),
        )
    };
    let (p1, p2) = split(&piped);
    let (c1, c2) = split(&chained);
    assert!(!p1.is_empty(), "stage 1 must fire on the burst trace");
    assert!(!p2.is_empty(), "stage 2 must fire on the correlated burst");
    assert_eq!(p1, c1, "stage 1 alert stream diverged");
    assert_eq!(p2, c2, "stage 2 alert stream diverged");
    // The second burst round involves one host only: stage 2 fired for
    // the first round alone.
    assert_eq!(p2.len(), 1);
    assert!(p2[0].3.iter().any(|(l, v)| l == "hosts" && v == "2"));
}

#[test]
fn pipeline_matches_hand_chained_parallel() {
    for workers in [1usize, 2, 4, 8] {
        let par = EngineConfig {
            workers,
            ..Default::default()
        };
        let mut piped: Vec<_> = run_pipeline(par).iter().map(key).collect();
        let mut chained: Vec<_> = run_hand_chained(EngineConfig::default())
            .iter()
            .map(key)
            .collect();
        piped.sort();
        chained.sort();
        assert_eq!(
            piped, chained,
            "parallel ({workers} workers) pipeline diverged from the serial hand-chained run"
        );
    }
}

#[test]
fn every_entry_point_runs_a_registered_pipeline() {
    // `Engine::run` & co. take no wiring from the caller: the session they
    // drain wires, transfers, and flushes the stages itself.
    let (c1, c2) = per_stage(&run_hand_chained(EngineConfig::default()));
    let fresh = || {
        let mut engine = Engine::new(EngineConfig::default());
        register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
        engine
    };
    let attached = |engine: &mut Engine| -> Vec<Alert> {
        let mut session = engine.session();
        session.attach_with(IterSource::new("trace", trace()), Lateness::ArrivalOrder);
        session.drain()
    };
    let mut runs: Vec<(&str, Vec<Alert>)> = Vec::new();
    runs.push(("Engine::run", fresh().run(trace()).expect("runs")));
    runs.push(("RunSession::drain", attached(&mut fresh())));
    for (entry, alerts) in runs {
        let (p1, p2) = per_stage(&alerts);
        assert_eq!(p1, c1, "{entry}: stage 1 diverged");
        assert_eq!(p2, c2, "{entry}: stage 2 diverged");
        assert_eq!(p2.len(), 1, "{entry}: the correlated burst fires stage 2");
    }
}

#[test]
fn stage2_windows_close_in_stream_via_punctuation() {
    // Without end-of-stream flushes, the correlation window must still
    // close: the trailing quiet event advances the frontier past the 30 s
    // window, and the punctuation carries that time into stage 2.
    let mut engine = Engine::new(EngineConfig::default());
    register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
    let mut session = engine.session();
    session.attach_with(IterSource::new("trace", trace()), Lateness::ArrivalOrder);
    let stage2_before_drain = pump_until_done(&mut session, 64)
        .iter()
        .filter(|a| a.query == "tiered")
        .count();
    assert!(
        stage2_before_drain >= 1,
        "stage 2 should alert while the stream is still flowing"
    );
}

#[test]
fn a_punctuation_closes_windows_under_a_silent_upstream() {
    // A hand-fed topology whose upstream has gone quiet: no adapted alert
    // arrives, so stage 2's open window would wait forever. A pushed
    // `AlertAdapter::punctuation` carries downstream time forward without
    // an alert.
    let (s1, s2) = stage_sources();
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("tiered.s1", &s1)
        .expect("upstream registers");
    let up = engine.find("tiered.s1").expect("registered");
    engine.register("tiered", &s2).expect("stage 2 registers");
    let mut session = engine.session();
    let (push, source) = push_source("upstream", 64);
    session.attach_with(source, Lateness::ArrivalOrder);
    let mut adapter = AlertAdapter::new("tiered.s1", up);

    // Two distinct hosts burst inside stage 2's first 30 s window.
    for (host, ts) in [("web-1", 9_000u64), ("web-2", 11_000)] {
        let alert = Alert {
            query: "tiered.s1".into(),
            query_id: up,
            ts: Timestamp::from_millis(ts),
            origin: AlertOrigin::Window {
                start: Timestamp::from_millis(0),
                end: Timestamp::from_millis(ts),
                group: host.into(),
            },
            rows: vec![("host".into(), host.into()), ("amount".into(), "4".into())],
        };
        assert!(push.push(Arc::unwrap_or_clone(adapter.adapt(&alert))));
    }
    let mut alerts = Vec::new();
    loop {
        let round = session.pump();
        alerts.extend(round.alerts);
        if round.events == 0 {
            break;
        }
    }
    assert!(
        alerts.is_empty(),
        "the 30 s window cannot close while the upstream is silent"
    );

    assert!(push.push(Arc::unwrap_or_clone(
        adapter.punctuation(Timestamp::from_millis(60_000))
    )));
    loop {
        let round = session.pump();
        alerts.extend(round.alerts);
        if round.events == 0 {
            break;
        }
    }
    let stage2: Vec<_> = alerts.iter().filter(|a| a.query == "tiered").collect();
    assert_eq!(stage2.len(), 1, "the punctuation alone closed the window");
    assert!(stage2[0].rows.iter().any(|(l, v)| l == "hosts" && v == "2"));
}

/// Ordered per-stage alert keys: loss, duplication, and reordering within
/// a stage all show up as inequality.
fn per_stage(
    alerts: &[Alert],
) -> (
    Vec<impl Eq + std::fmt::Debug>,
    Vec<impl Eq + std::fmt::Debug>,
) {
    (
        alerts
            .iter()
            .filter(|a| a.query == "tiered.s1")
            .map(key)
            .collect(),
        alerts
            .iter()
            .filter(|a| a.query == "tiered")
            .map(key)
            .collect(),
    )
}

#[test]
fn pipeline_survives_checkpoint_crash_and_resume() {
    let uninterrupted = run_pipeline(EngineConfig::default());

    // Interrupted run: feed the first burst round only, checkpoint with
    // stage 1's window still OPEN (frontier 7.1 s < the 10 s close), then
    // drop everything — the "crash" — and resume into a fresh engine.
    let events = trace();
    let cut = 9;
    let dir = std::env::temp_dir().join(format!("saql-pipeline-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut alerts: Vec<Alert> = Vec::new();
    {
        let mut engine = Engine::new(EngineConfig::default());
        register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
        let mut session = engine.session();
        session.enable_checkpoints(CheckpointConfig {
            dir: dir.clone(),
            every_events: 0,
        });
        session.attach_with(
            IterSource::new("trace", events[..cut].to_vec()),
            Lateness::ArrivalOrder,
        );
        alerts.extend(pump_until_done(&mut session, 4));
        let written = session.checkpoint_now().expect("checkpoints");
        assert_eq!(
            written.offset, cut as u64,
            "checkpoint offset counts base events only, not derived ones"
        );
    }
    // Through the file, as a real restart would read it back.
    let checkpoint = Checkpoint::load(&dir).expect("loads");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        !checkpoint.adapters.is_empty(),
        "adapter positions are stamped"
    );

    let mut engine =
        Engine::resume_from(checkpoint.clone(), EngineConfig::default()).expect("resumes");
    let mut session = engine.session();
    session.resume_at(&checkpoint);
    session.attach_with(
        IterSource::new("trace", events[checkpoint.offset as usize..].to_vec()),
        Lateness::ArrivalOrder,
    );
    alerts.extend(pump_until_done(&mut session, 4));
    alerts.extend(session.finish());

    let (r1, r2) = per_stage(&alerts);
    let (u1, u2) = per_stage(&uninterrupted);
    assert_eq!(
        r1, u1,
        "stage 1 lost or duplicated alerts across the resume"
    );
    assert_eq!(
        r2, u2,
        "stage 2 lost or duplicated alerts across the resume"
    );
    assert_eq!(r2.len(), 1, "the enterprise-wide alert fires exactly once");
}

#[test]
fn dangling_from_query_is_rejected_with_span() {
    let mut engine = Engine::new(EngineConfig::default());
    let err = engine
        .register(
            "orphan",
            "from query ghost #time(10 s)\nstate ss { n := count() }\nalert ss[0].n > 0\nreturn ss[0].n as n",
        )
        .expect_err("dangling upstream must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("ghost"), "names the missing upstream: {msg}");
}

#[test]
fn deregistering_a_live_upstream_is_refused() {
    let mut engine = Engine::new(EngineConfig::default());
    let stages = register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
    let (up_id, down_id) = (stages[0].1, stages[1].1);
    match engine.deregister(up_id) {
        Err(EngineError::PipelineDependents { query, dependents }) => {
            assert_eq!(query, "tiered.s1");
            assert_eq!(dependents, vec!["tiered".to_string()]);
        }
        other => panic!("expected PipelineDependents, got {other:?}"),
    }
    // Dependents first, then the upstream: both succeed.
    engine.deregister(down_id).expect("dependent deregisters");
    engine.deregister(up_id).expect("then the upstream");
}

#[test]
fn cyclic_stage_batch_is_rejected() {
    let engine = Engine::new(EngineConfig::default());
    // Two stages naming each other: a |> chain cannot express this, but
    // explicit `from query` clauses can try.
    let a = "from query \"b\" #time(10 s)\nstate ss { n := count() }\nalert ss[0].n > 0\nreturn ss[0].n as n";
    let b = "from query \"a\" #time(10 s)\nstate ss { n := count() }\nalert ss[0].n > 0\nreturn ss[0].n as n";
    let stages = vec![
        saql_lang::Stage {
            name: "a".into(),
            source: a.into(),
            input: Some(("b".into(), Default::default())),
        },
        saql_lang::Stage {
            name: "b".into(),
            source: b.into(),
            input: Some(("a".into(), Default::default())),
        },
    ];
    let err = saql_engine::pipeline::validate_stages(&stages, &engine).expect_err("cycle");
    assert!(err.to_string().contains("cycle"), "{err}");
    // And a failed batch leaves the engine untouched.
    assert!(engine.query_names().is_empty());
}

/// Stage 1 of [`TIERED`] as a standalone upstream query.
const BURST: &str = "\
proc p write ip i as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 3
return evt.agentid as host, ss[0].writes as amount";

/// A correlation stage consuming `upstream`'s alert stream explicitly.
fn correlation(upstream: &str) -> String {
    format!(
        "from query \"{upstream}\" #time(30 s)\n\
         state es {{ hosts := distinct_count(_in.agentid) }}\n\
         alert es[0].hosts >= 2\n\
         return es[0].hosts as hosts"
    )
}

#[test]
fn scoped_register_confines_explicit_refs_to_the_scope() {
    let mut engine = Engine::new(EngineConfig::default());
    register_pipeline_scoped(&mut engine, "acme/burst", BURST, "acme/")
        .expect("upstream registers");

    // A bare reference resolves under the caller's scope, and the stored
    // stage source is rewritten so recompiles resolve identically.
    let stages = register_pipeline_scoped(&mut engine, "acme/corr", &correlation("burst"), "acme/")
        .expect("bare in-scope reference resolves");
    assert_eq!(stages.len(), 1);
    assert!(
        stages[0].0.source.contains("from query \"acme/burst\""),
        "stage source is rewritten to the scoped name: {}",
        stages[0].0.source
    );
    let down = engine.find("acme/corr").expect("registered");
    assert_eq!(engine.input_of(down), Some("acme/burst"));

    // A reference spelling another scope's prefixed name is rejected, so
    // no tenant can consume another tenant's alert stream.
    let err = register_pipeline_scoped(
        &mut engine,
        "evil/corr",
        &correlation("acme/burst"),
        "evil/",
    )
    .expect_err("cross-scope reference must be rejected");
    assert!(err.message.contains("tenant scope"), "{}", err.message);
    assert!(engine.find("evil/corr").is_none(), "nothing was registered");

    // A bare name with no in-scope target dangles instead of resolving
    // across scopes.
    let err = register_pipeline_scoped(&mut engine, "evil/corr", &correlation("burst"), "evil/")
        .expect_err("an out-of-scope upstream must not resolve");
    assert!(
        err.message.contains("references neither"),
        "{}",
        err.message
    );
}

#[test]
fn session_rewires_a_same_count_pipeline_replacement() {
    // Replace the pipeline under the same name mid-stream: the edge
    // *count* is unchanged, but the upstream ids are new. The session must
    // notice and rebuild its edge table, or the new stage 2 would never see
    // an alert.
    let events = trace();
    let mut engine = Engine::new(EngineConfig::default());
    register_pipeline(&mut engine, "tiered", TIERED).expect("registers");
    let mut session = engine.session();
    let (push, live) = push_source("live", 64);
    session.attach_with(live, Lateness::ArrivalOrder);
    assert!(push.push(Event::clone(&events[0])));
    let mut alerts = Vec::new();
    while session.offset() < 1 {
        alerts.extend(session.pump().alerts);
    }
    let head = session.engine().find("tiered").expect("head is live");
    deregister_pipeline(session.engine(), head).expect("deregisters");
    register_pipeline(session.engine(), "tiered", TIERED).expect("re-registers");
    alerts.extend(session.pump().alerts);
    for event in &events[1..] {
        assert!(push.push(Event::clone(event)));
    }
    drop(push);
    alerts.extend(pump_until_done(&mut session, 64));
    alerts.extend(session.finish());
    let stage2: Vec<_> = alerts.iter().filter(|a| a.query == "tiered").collect();
    assert_eq!(stage2.len(), 1, "the replacement pipeline is wired");
    assert!(stage2[0].rows.iter().any(|(l, v)| l == "hosts" && v == "2"));
}

/// Stage 1 closes one 10 s window over every host at once, each host
/// alerting; stage 2 counts the alerts.
const WIDE: &str = "\
proc p write ip i as evt #time(10 s)
state ss { n := count() } group by evt.agentid
alert ss[0].n >= 1
return evt.agentid as host, ss[0].n as amount
|>
from #time(30 s)
state es { n := count() }
alert es[0].n >= 1
return es[0].n as n";

/// One write from each of `hosts` hosts inside the first 10 s, then one
/// more past it, which closes that window in-stream.
fn wide_trace(hosts: u64) -> Vec<SharedEvent> {
    let write = |id: u64, host: String, ts: u64| -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(100, "worker", "svc"))
                .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                .amount(1024)
                .build(),
        )
    };
    let mut events: Vec<SharedEvent> = (0..hosts)
        .map(|i| write(i + 1, format!("h-{i}"), 1_000 + i % 8_000))
        .collect();
    events.push(write(hosts + 1, "late".into(), 20_000));
    events
}

#[test]
fn one_round_raising_more_alerts_than_any_buffer_feeds_every_one() {
    // A round whose base events close a window over thousands of groups
    // raises thousands of upstream alerts at once; all of them reach
    // stage 2 in that round, whatever their number.
    for hosts in [4_096u64, 9_000] {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut engine = Engine::new(EngineConfig::default());
            register_pipeline(&mut engine, "wide", WIDE).expect("registers");
            let mut session = engine.session();
            session.attach_with(
                IterSource::new("trace", wide_trace(hosts)),
                Lateness::ArrivalOrder,
            );
            let alerts = session.drain();
            let _ = done.send(alerts);
        });
        let alerts = result
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{hosts} hosts: the run made no progress in 60 s"));
        let stage =
            |name: &str| -> Vec<_> { alerts.iter().filter(|a| a.query == name).map(key).collect() };
        let (s1, s2) = (stage("wide.s1"), stage("wide"));
        assert_eq!(s1.len() as u64, hosts + 1, "every host alerts, then `late`");
        let counted: u64 = s2
            .iter()
            .flat_map(|(_, _, _, rows)| rows)
            .map(|(_, n)| n.parse::<u64>().expect("a count"))
            .sum();
        assert_eq!(
            counted,
            s1.len() as u64,
            "{hosts} hosts: stage 2 counts every alert"
        );
        let chained = hand_chained(EngineConfig::default(), "wide", WIDE, wide_trace(hosts));
        let chained_stage = |name: &str| -> Vec<_> {
            chained
                .iter()
                .filter(|a| a.query == name)
                .map(key)
                .collect()
        };
        assert_eq!(s1, chained_stage("wide.s1"), "{hosts} hosts: stage 1");
        assert_eq!(s2, chained_stage("wide"), "{hosts} hosts: stage 2");
    }
}

/// Three stages: per-host write counts, distinct hosts per 20 s, and a
/// count of those per minute — stage 2 feeds stage 3.
const DEEP: &str = "\
proc p write ip i as evt #time(10 s)
state ss { writes := count() } group by evt.agentid
alert ss[0].writes >= 1
return evt.agentid as host, ss[0].writes as amount
|>
from #time(20 s)
state es { hosts := distinct_count(_in.agentid) }
alert es[0].hosts >= 1
return es[0].hosts as amount
|>
from #time(60 s)
state ts { n := count() }
alert ts[0].n >= 1
return ts[0].n as n";

/// Ten minutes of writes from five hosts, 300 ms apart.
fn deep_trace() -> Vec<SharedEvent> {
    (0..2_000u64)
        .map(|i| {
            Arc::new(
                EventBuilder::new(i + 1, format!("web-{}", i % 5), 1_000 + i * 300)
                    .subject(ProcessInfo::new(100, "worker", "svc"))
                    .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                    .amount(1024)
                    .build(),
            )
        })
        .collect()
}

#[test]
fn a_stage_fed_by_a_stage_gets_its_alerts_in_the_same_round() {
    let trace = deep_trace();
    let run = |workers: usize| -> (Vec<_>, usize) {
        let mut engine = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        register_pipeline(&mut engine, "deep", DEEP).expect("registers");
        let mut session = engine.session();
        session.attach_with(
            IterSource::new("trace", trace.clone()),
            Lateness::ArrivalOrder,
        );
        let mut alerts = pump_until_done(&mut session, 64);
        let in_stream = alerts.iter().filter(|a| a.query == "deep").count();
        alerts.extend(session.finish());
        let mut keys: Vec<_> = alerts.iter().map(key).collect();
        keys.sort();
        (keys, in_stream)
    };
    let (serial, in_stream) = run(0);
    assert!(
        in_stream >= 5,
        "stage 3 fires while the stream flows: {in_stream}"
    );
    for workers in [1usize, 2, 4] {
        assert_eq!(run(workers).0, serial, "{workers} workers");
    }
}

#[test]
fn a_checkpoint_on_workers_leaves_no_stage_alert_in_flight() {
    // With workers, a round collects what a stage feeding a stage raised
    // before it returns, so a checkpoint at a round boundary holds every
    // stage-2 alert inside stage 3's state.
    let trace = deep_trace();
    let sorted = |alerts: &[Alert]| {
        let mut keys: Vec<_> = alerts.iter().map(key).collect();
        keys.sort();
        keys
    };
    let mut engine = Engine::new(EngineConfig::default());
    register_pipeline(&mut engine, "deep", DEEP).expect("registers");
    let uninterrupted = sorted(&engine.run(trace.clone()).expect("runs"));
    for cut in [640usize, 1_024, 1_408] {
        let dir =
            std::env::temp_dir().join(format!("saql-pipeline-deep-{}-{cut}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut alerts = Vec::new();
        {
            let mut engine = Engine::new(EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            });
            register_pipeline(&mut engine, "deep", DEEP).expect("registers");
            let mut session = engine.session();
            session.enable_checkpoints(CheckpointConfig {
                dir: dir.clone(),
                every_events: 0,
            });
            session.attach_with(
                IterSource::new("trace", trace[..cut].to_vec()),
                Lateness::ArrivalOrder,
            );
            alerts.extend(pump_until_done(&mut session, 64));
            session.checkpoint_now().expect("checkpoints");
            // What the workers raised before the snapshot, then the crash.
            alerts.extend(session.engine().sync().expect("syncs"));
        }
        let checkpoint = Checkpoint::load(&dir).expect("loads");
        std::fs::remove_dir_all(&dir).unwrap();
        let mut engine =
            Engine::resume_from(checkpoint.clone(), EngineConfig::default()).expect("resumes");
        let mut session = engine.session();
        session.resume_at(&checkpoint);
        session.attach_with(
            IterSource::new("trace", trace[checkpoint.offset as usize..].to_vec()),
            Lateness::ArrivalOrder,
        );
        alerts.extend(session.drain());
        assert_eq!(sorted(&alerts), uninterrupted, "cut at {cut}");
    }
}
