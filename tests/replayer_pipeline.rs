//! The demo's storage/replay loop (paper Fig. 4): collected monitoring data
//! is stored in the event store, then replayed as a stream so the same
//! queries produce the same alerts — including host and time-range
//! selections.

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::{Engine, EngineConfig};
use saql::stream::replayer::{Replayer, Speed};
use saql::stream::store::Selection;
use saql::stream::StoreWriter;
use saql::SaqlSystem;

fn trace() -> saql::collector::Trace {
    Simulator::generate(&SimConfig {
        seed: 99,
        clients: 4,
        duration_ms: 45 * 60_000,
        attack: Some(AttackConfig {
            start: saql::model::Timestamp::from_millis(20 * 60_000),
            step_gap_ms: 3 * 60_000,
        }),
    })
}

fn store_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("saql-replay-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn live_and_replayed_streams_produce_identical_alerts() {
    let trace = trace();

    // Live run.
    let mut live = SaqlSystem::new();
    live.deploy_demo_queries().unwrap();
    let mut live_alerts: Vec<String> = live
        .run_events(trace.shared())
        .iter()
        .map(|a| a.to_string())
        .collect();
    live_alerts.sort();

    // Store, then replay through the replayer.
    let path = store_path("identical");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();
    let replayer = Replayer::open(&path).unwrap();
    let replayed: Vec<_> = replayer.replay_iter(&Selection::all()).unwrap().collect();

    let mut replay_sys = SaqlSystem::new();
    replay_sys.deploy_demo_queries().unwrap();
    let mut replay_alerts: Vec<String> = replay_sys
        .run_events(replayed)
        .iter()
        .map(|a| a.to_string())
        .collect();
    replay_alerts.sort();

    assert_eq!(live_alerts, replay_alerts);
    std::fs::remove_dir_all(path).unwrap();
}

#[test]
fn host_selection_replays_only_that_hosts_detections() {
    let trace = trace();
    let path = store_path("host-sel");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();

    // Replay only the DB server: the c5 rule query still fires, the
    // client-side c1–c3 queries cannot.
    let replayer = Replayer::open(&path).unwrap();
    let events: Vec<_> = replayer
        .replay_iter(&Selection::host("db-server"))
        .unwrap()
        .collect();
    assert!(!events.is_empty());

    let mut system = SaqlSystem::new();
    system.deploy_demo_queries().unwrap();
    let alerts = system.run_events(events);
    assert!(alerts.iter().any(|a| a.query == "c5-exfiltration"));
    assert!(!alerts.iter().any(|a| a.query == "c1-initial-compromise"));
    assert!(!alerts.iter().any(|a| a.query == "c2-malware-infection"));
    std::fs::remove_dir_all(path).unwrap();
}

#[test]
fn time_range_selection_cuts_the_attack_out() {
    let trace = trace();
    let attack_start = trace.attack_spans[0].1;
    let path = store_path("time-sel");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();

    // Replay only the pre-attack prefix: everything must stay quiet.
    let replayer = Replayer::open(&path).unwrap();
    let selection = Selection::all().between(saql::model::Timestamp::ZERO, attack_start);
    let events: Vec<_> = replayer.replay_iter(&selection).unwrap().collect();
    assert!(!events.is_empty());

    let mut system = SaqlSystem::new();
    system.deploy_demo_queries().unwrap();
    let alerts = system.run_events(events);
    assert!(
        alerts.is_empty(),
        "{:?}",
        alerts.iter().take(3).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(path).unwrap();
}

#[test]
fn channel_replay_feeds_engine_across_threads() {
    let trace = trace();
    let path = store_path("channel");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();

    let replayer = Replayer::open(&path).unwrap();
    let rx = replayer
        .replay_channel(&Selection::all(), Speed::Unlimited, 1024)
        .unwrap();

    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("c5", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    let mut alerts = Vec::new();
    for event in rx {
        alerts.extend(engine.process(&event).unwrap());
    }
    alerts.extend(engine.finish());
    assert!(alerts.iter().any(|a| a.query == "c5"));
    std::fs::remove_dir_all(path).unwrap();
}
