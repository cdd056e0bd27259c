//! The stream replayer (paper Fig. 4): store a collected trace, then replay
//! selected hosts and time ranges as a stream for different queries. A
//! replay is a `StoreSource` over the selection, sorted by the store's
//! verified floor (`FLOOR_GATED`) in the engine's run session, and `Paced`
//! to replay it at a compressed speed.
//!
//! ```sh
//! cargo run --example replayer
//! ```

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::model::Timestamp;
use saql::stream::source::{Paced, StoreSource, FLOOR_GATED};
use saql::stream::store::Selection;
use saql::stream::{StoreReader, StoreWriter};
use saql::SaqlSystem;

fn main() {
    // 1. Collect a trace and store it (the demo's "databases").
    let trace = Simulator::generate(&SimConfig {
        seed: 7,
        clients: 6,
        duration_ms: 60 * 60_000,
        attack: Some(AttackConfig::default()),
    });
    let mut path = std::env::temp_dir();
    path.push(format!("saql-replayer-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let mut store = StoreWriter::create_segmented(&path).expect("create store");
    store.append(&trace.events).expect("append trace");
    let reader = StoreReader::open(&path).expect("open store");
    println!(
        "stored {} events from {} hosts at {}",
        trace.events.len(),
        reader.hosts().len(),
        path.display()
    );

    // 2. Replay only the database server for the second half hour — the
    //    replayer UI's host + time-range selection — through the
    //    exfiltration queries.
    let mut system = SaqlSystem::new();
    system
        .deploy("c5-exfiltration", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    system
        .deploy("outlier-db-peer", saql::corpus::DEMO_OUTLIER_DB)
        .unwrap();
    let selection = Selection::host("db-server").between(
        Timestamp::from_millis(30 * 60_000),
        Timestamp::from_millis(60 * 60_000),
    );
    let source = StoreSource::open("db-server", &reader, &selection);
    let mut session = system.engine().session();
    session.attach_with(source, FLOOR_GATED);
    let mut alerts = Vec::new();
    session
        .run_staged(
            Vec::new(),
            &mut |batch| alerts.extend(batch),
            &mut |_, _| {},
        )
        .expect("no staged controls");
    println!(
        "replaying db-server 30..60 min: {} events (of {} total)",
        session.processed(),
        trace.events.len()
    );
    drop(session);
    println!("\n--- alerts from replayed stream ---");
    for a in &alerts {
        println!("{a}");
    }
    assert!(alerts.iter().any(|a| a.query == "c5-exfiltration"));

    // 3. Paced replay: compress one hour of trace into ~1 second of wall
    //    time (how the CLI's `--speed` drives live demos), into an engine
    //    with no queries.
    let source = StoreSource::open("paced", &reader, &Selection::host("db-server"));
    let mut engine = saql::Engine::new(saql::EngineConfig::default());
    let mut session = engine.session();
    session.attach_with(Paced::new(source, 3600.0), FLOOR_GATED);
    let started = std::time::Instant::now();
    session
        .run_staged(Vec::new(), &mut |_| {}, &mut |_, _| {})
        .expect("no staged controls");
    println!(
        "\npaced replay: {} events in {:.2}s wall time (3600x compression)",
        session.processed(),
        started.elapsed().as_secs_f64()
    );

    std::fs::remove_dir_all(&path).ok();
}
