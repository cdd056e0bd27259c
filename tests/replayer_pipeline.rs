//! The demo's storage/replay loop (paper Fig. 4): collected monitoring data
//! is stored in the event store, then replayed as a stream so the same
//! queries produce the same alerts — including host and time-range
//! selections. A replay is a `StoreSource` over the selection, sorted by
//! its verified floor (`FLOOR_GATED`) in a run session, and paced to a
//! compressed speed (`Speed::pace`).

use std::path::Path;

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::{Engine, EngineConfig};
use saql::stream::source::{Speed, StoreSource, FLOOR_GATED};
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};
use saql::{Alert, SaqlSystem};

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

/// Replay `selection` of the store at `speed` through `engine`'s run
/// session: the events it fed and the alerts it raised.
fn replay(
    engine: &mut Engine,
    path: &Path,
    selection: &Selection,
    speed: Speed,
) -> (u64, Vec<Alert>) {
    let reader = StoreReader::open(path).unwrap();
    let source = StoreSource::open("replay", &reader, selection);
    let mut session = engine.session();
    session.attach_with(speed.pace(source), FLOOR_GATED);
    let mut alerts = Vec::new();
    session
        .run_staged(
            Vec::new(),
            &mut |batch| alerts.extend(batch),
            &mut |_, _| {},
        )
        .unwrap();
    (session.processed(), alerts)
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

    // Store, then replay it.
    let path = store_path("identical");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();

    let mut replay_sys = SaqlSystem::new();
    replay_sys.deploy_demo_queries().unwrap();
    let (_, alerts) = replay(
        replay_sys.engine(),
        &path,
        &Selection::all(),
        Speed::Unlimited,
    );
    let mut replay_alerts: Vec<String> = alerts.iter().map(|a| a.to_string()).collect();
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
    let mut system = SaqlSystem::new();
    system.deploy_demo_queries().unwrap();
    let selection = Selection::host("db-server");
    let (events, alerts) = replay(system.engine(), &path, &selection, Speed::Unlimited);
    assert!(events > 0);
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
    let mut system = SaqlSystem::new();
    system.deploy_demo_queries().unwrap();
    let selection = Selection::all().between(saql::model::Timestamp::ZERO, attack_start);
    let (events, alerts) = replay(system.engine(), &path, &selection, Speed::Unlimited);
    assert!(events > 0);
    assert!(
        alerts.is_empty(),
        "{:?}",
        alerts.iter().take(3).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(path).unwrap();
}

#[test]
fn paced_replay_feeds_the_engine_session() {
    let trace = trace();
    let path = store_path("paced");
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&trace.events).unwrap();

    // 45 minutes of trace in ≈75 ms of wall time, on the session thread.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("c5", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    let speed = Speed::Compressed { factor: 36_000.0 };
    let (events, alerts) = replay(&mut engine, &path, &Selection::all(), speed);
    assert_eq!(events, trace.events.len() as u64);
    assert!(alerts.iter().any(|a| a.query == "c5"));
    std::fs::remove_dir_all(path).unwrap();
}
