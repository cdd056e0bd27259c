//! The stream replayer (paper Fig. 4): store a collected trace, then replay
//! selected hosts and time ranges as a stream for different queries.
//!
//! ```sh
//! cargo run --example replayer
//! ```

use saql::collector::{AttackConfig, SimConfig, Simulator};
use saql::model::Timestamp;
use saql::stream::replayer::{Replayer, Speed};
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
    let hosts = StoreReader::open(&path).expect("open store").hosts();
    println!(
        "stored {} events from {} hosts at {}",
        trace.events.len(),
        hosts.len(),
        path.display()
    );

    // 2. Replay only the database server for the second half hour — the
    //    replayer UI's host + time-range selection.
    let replayer = Replayer::open(&path).expect("open store");
    let selection = Selection::host("db-server").between(
        Timestamp::from_millis(30 * 60_000),
        Timestamp::from_millis(60 * 60_000),
    );
    let events: Vec<_> = replayer.replay_iter(&selection).expect("replay").collect();
    println!(
        "replaying db-server 30..60 min: {} events (of {} total)",
        events.len(),
        trace.events.len()
    );

    // 3. Run the exfiltration queries over the replayed stream.
    let mut system = SaqlSystem::new();
    system
        .deploy("c5-exfiltration", saql::corpus::DEMO_C5_EXFILTRATION)
        .unwrap();
    system
        .deploy("outlier-db-peer", saql::corpus::DEMO_OUTLIER_DB)
        .unwrap();
    let alerts = system.run_events(events);
    println!("\n--- alerts from replayed stream ---");
    for a in &alerts {
        println!("{a}");
    }
    assert!(alerts.iter().any(|a| a.query == "c5-exfiltration"));

    // 4. Paced replay: compress one hour of trace into ~1 second of wall
    //    time through a bounded channel (how the CLI drives live demos).
    let rx = replayer
        .replay_channel(
            &Selection::host("db-server"),
            Speed::Compressed { factor: 3600.0 },
            256,
        )
        .expect("channel replay");
    let started = std::time::Instant::now();
    let replayed = rx.into_iter().count();
    println!(
        "\npaced replay: {} events in {:.2}s wall time (3600x compression)",
        replayed,
        started.elapsed().as_secs_f64()
    );

    std::fs::remove_dir_all(&path).ok();
}
