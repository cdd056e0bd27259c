//! A stored stream and the same events in memory give the same run. The
//! store is written in 64-event segments from a jittered trace, so records
//! arrive out of order across segment boundaries and in the WAL tail; a
//! session on `StoreSource` (whose watermark is the segments' verified
//! time floor) and one on `IterSource` (whose watermark trails its maximum
//! by the lateness bound) must raise the same alerts in the same order and
//! drop the same late events, both at the default lateness.

use std::sync::Arc;

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::{Engine, EngineConfig, SessionStatus};
use saql::lang::corpus::DEMO_QUERIES;
use saql::model::{Event, Timestamp};
use saql::stream::source::{IterSource, StoreSource};
use saql::stream::store::Selection;
use saql::stream::{EventSource, StoreReader, StoreWriter};

const SEGMENT_EVENTS: usize = 64;

/// The demo trace with every 5th event 900 ms late (re-sorted at the
/// default 1 s lateness) and every 37th 2.5 s late (dropped).
fn jittered_trace() -> Vec<Event> {
    let trace = Simulator::generate(&SimConfig {
        seed: 99,
        clients: 4,
        duration_ms: 45 * 60_000,
        attack: Some(AttackConfig {
            start: Timestamp::from_millis(20 * 60_000),
            step_gap_ms: 3 * 60_000,
        }),
    });
    let mut events = trace.events;
    for (i, e) in events.iter_mut().enumerate() {
        let late = match i {
            _ if i % 37 == 0 => 2_500,
            _ if i % 5 == 0 => 900,
            _ => 0,
        };
        e.ts = Timestamp::from_millis(e.ts.as_millis().saturating_sub(late));
    }
    // Leave a WAL tail behind the last sealed segment.
    if events.len().is_multiple_of(SEGMENT_EVENTS) {
        events.pop();
    }
    events
}

/// Alerts (rendered, in raise order) and late drops of a run over `source`.
fn run(source: impl EventSource) -> (Vec<String>, u64) {
    let mut engine = Engine::new(EngineConfig::default());
    for (name, text) in DEMO_QUERIES {
        engine.register(name, text).unwrap();
    }
    let mut session = engine.session();
    let id = session.attach(source);
    let mut alerts = Vec::new();
    loop {
        let round = session.pump();
        alerts.extend(round.alerts);
        if round.status == SessionStatus::Done {
            break;
        }
    }
    alerts.extend(session.finish());
    let dropped = session.source_stats()[id.index()].1.dropped_late;
    (alerts.iter().map(|a| a.to_string()).collect(), dropped)
}

#[test]
fn a_stored_jittered_stream_runs_like_the_same_events_in_memory() {
    let events = jittered_trace();
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-store-source-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = StoreWriter::create_segmented_with(&dir, SEGMENT_EVENTS).unwrap();
    writer.append(&events).unwrap();
    drop(writer);

    let reader = StoreReader::open(&dir).unwrap();
    let segments = reader.segments();
    let sealed: u64 = segments.iter().map(|m| m.events as u64).sum();
    assert!(sealed < reader.len(), "a WAL tail is left");
    let crossings = segments
        .windows(2)
        .filter(|w| w[1].min_ts < w[0].max_ts)
        .count();
    assert!(
        crossings > 10,
        "stragglers cross {crossings} segment boundaries"
    );

    let stored = run(StoreSource::open("store", &reader, &Selection::all()));
    let in_memory = run(IterSource::new(
        "iter",
        events.into_iter().map(Arc::new).collect::<Vec<_>>(),
    ));
    assert!(!stored.0.is_empty(), "the demo queries fire");
    assert!(stored.1 > 0, "some events are late beyond the bound");
    assert_eq!(stored, in_memory);
    std::fs::remove_dir_all(&dir).unwrap();
}
