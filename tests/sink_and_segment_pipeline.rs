//! End-to-end plumbing around the engine: alert sinks feeding consumer
//! threads and JSON exports, and the segmented store serving pruned replays
//! into live queries.

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::engine::sink::{ChannelSink, CollectSink, JsonLinesSink, TeeSink};
use saql::engine::{Engine, EngineConfig};
use saql::model::Timestamp;
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};

fn small_attack_trace() -> saql::collector::Trace {
    Simulator::generate(&SimConfig {
        seed: 31,
        clients: 4,
        duration_ms: 45 * 60_000,
        attack: Some(AttackConfig {
            start: Timestamp::from_millis(20 * 60_000),
            step_gap_ms: 3 * 60_000,
        }),
    })
}

#[test]
fn channel_sink_feeds_consumer_thread() {
    let trace = small_attack_trace();
    let (mut sink, rx) = ChannelSink::new(256);

    // Consumer: counts c5 alerts on its own thread.
    let consumer = std::thread::spawn(move || {
        rx.into_iter()
            .filter(|a| a.query == "c5-exfiltration")
            .count()
    });

    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in saql::corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let delivered = engine.run_with_sink(trace.shared(), &mut sink).unwrap();
    drop(sink); // close the channel so the consumer finishes
    let c5_seen = consumer.join().unwrap();

    // The five rule queries plus (at minimum) the SMA and outlier models
    // fire on this shorter trace; the invariant query is still training at
    // the 20-minute attack start (it needs 100 ten-second windows).
    assert!(delivered >= 7, "delivered only {delivered}");
    assert_eq!(c5_seen, 1);
}

#[test]
fn json_lines_export_round_trips_key_fields() {
    let trace = small_attack_trace();
    let mut engine = Engine::new(EngineConfig::default());
    for (name, src) in saql::corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let mut json = JsonLinesSink::new(Vec::new());
    let mut collect = CollectSink::default();
    {
        let mut tee = TeeSink {
            sinks: vec![&mut json, &mut collect],
        };
        engine.run_with_sink(trace.shared(), &mut tee).unwrap();
    }
    let text = String::from_utf8(json.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), collect.alerts.len());
    // Every line is a JSON object naming its query; the exfil line carries
    // the attacker ip.
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"query\":"), "{line}");
    }
    let exfil = lines
        .iter()
        .find(|l| l.contains("c5-exfiltration"))
        .expect("exfil alert exported");
    assert!(exfil.contains("172.16.9.129"), "{exfil}");
}

/// The trace in a sealed segmented store at `dir`, `segment_events` per
/// segment.
fn segmented_store(dir: &std::path::Path, segment_events: usize) -> StoreReader {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = StoreWriter::create_segmented_with(dir, segment_events).unwrap();
    writer.append(&small_attack_trace().events).unwrap();
    writer.seal().unwrap();
    StoreReader::open(dir).unwrap()
}

#[test]
fn segmented_store_prunes_and_detects() {
    let trace = small_attack_trace();
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-seg-pipeline-{}", std::process::id()));
    let store = segmented_store(&dir, 4096);

    // Select only the attack tail on the DB server: the header index
    // rules most segments out before any record is decoded.
    let selection = Selection::host("db-server").between(
        Timestamp::from_millis(25 * 60_000),
        Timestamp::from_millis(45 * 60_000),
    );
    let (scanned, skipped): (Vec<_>, Vec<_>) = store
        .segments()
        .iter()
        .partition(|m| m.intersects(&selection));
    assert!(
        !skipped.is_empty(),
        "{} segments, none pruned",
        scanned.len()
    );
    let decoded: usize = scanned.iter().map(|m| m.events as usize).sum();
    assert!(decoded < trace.events.len());
    let events = store
        .iter(&selection)
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert!(!events.is_empty());
    assert!(
        events.len() <= decoded,
        "reads decode only intersecting segments"
    );

    // The selected slice still powers the exfiltration detection.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("c5", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    let mut sorted = events;
    sorted.sort_by_key(|e| (e.ts, e.id));
    let alerts = engine
        .run(
            sorted
                .into_iter()
                .map(std::sync::Arc::new)
                .collect::<Vec<_>>(),
        )
        .unwrap();
    assert!(alerts.iter().any(|a| a.query == "c5"), "{alerts:?}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn segmented_reads_agree_with_the_in_memory_trace() {
    let trace = small_attack_trace();

    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-seg-agree-{}", std::process::id()));
    let seg = segmented_store(&dir, 1000);
    assert!(seg.segments().len() > 1);

    for selection in [
        Selection::all(),
        Selection::host("client-3"),
        Selection::all().between(
            Timestamp::from_millis(0),
            Timestamp::from_millis(10 * 60_000),
        ),
    ] {
        // The oracle is the trace itself, filtered in memory: header
        // pruning may skip segments but never changes what a read returns.
        let expected: Vec<_> = trace
            .events
            .iter()
            .filter(|e| selection.matches(e))
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(
            seg.iter(&selection).collect::<Result<Vec<_>, _>>().unwrap(),
            expected
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
