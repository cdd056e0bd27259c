//! Multi-host ingestion: one event source per monitoring agent, fused by
//! the watermarked K-way merge inside an engine run session.
//!
//! This is the paper's deployment shape — agents across an enterprise each
//! stream their own host's events; the central engine merges them into one
//! event-time-ordered stream and runs the analyst's queries over it. The
//! example splits a simulated enterprise trace into per-host feeds,
//! attaches each as an [`EventSource`], and shows that the session-merged
//! run detects exactly what a pre-merged single-stream run detects — on
//! the parallel backend, with per-source ingest stats.
//!
//! ```sh
//! cargo run --release --example multi_host
//! SAQL_EXAMPLE_MINUTES=10 cargo run --release --example multi_host
//! ```
//!
//! [`EventSource`]: saql::stream::source::EventSource

use saql::collector::{SimConfig, Simulator, TraceSource};
use saql::corpus;
use saql::engine::{Engine, EngineConfig};

fn main() {
    let minutes: u64 = std::env::var("SAQL_EXAMPLE_MINUTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let config = SimConfig {
        seed: 2020,
        clients: 6,
        duration_ms: minutes * 60_000,
        ..SimConfig::default()
    };
    let trace = Simulator::generate(&config);
    println!(
        "simulated {} events across {} hosts ({} min of trace time)",
        trace.events.len(),
        trace.topology.hosts.len(),
        minutes
    );

    // Reference: the classic pre-merged run on the serial backend.
    let mut reference = Engine::new(EngineConfig::default());
    for (name, src) in corpus::DEMO_QUERIES {
        reference.register(name, src).unwrap();
    }
    let mut expected: Vec<String> = reference
        .run(trace.shared())
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    expected.sort();

    // The ingestion path: per-host agent feeds into a parallel engine.
    let mut engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    for (name, src) in corpus::DEMO_QUERIES {
        engine.register(name, src).unwrap();
    }
    let mut session = engine.session();
    let feeds = TraceSource::per_host(&trace);
    println!("attaching {} per-host sources", feeds.len());
    for feed in feeds {
        session.attach(feed);
    }
    let mut alerts = Vec::new();
    loop {
        let round = session.pump();
        alerts.extend(round.alerts);
        if round.status == saql::engine::SessionStatus::Done {
            break;
        }
    }
    alerts.extend(session.engine().finish());

    let mut merged: Vec<String> = alerts.iter().map(|a| a.to_string()).collect();
    merged.sort();
    assert_eq!(
        merged, expected,
        "per-host session must detect exactly what the pre-merged run does"
    );

    println!("\nper-source ingest stats:");
    for (id, s) in session.source_stats() {
        println!(
            "  {id} {:<24} {:>6} events, {} dropped late, watermark {}",
            s.name, s.events, s.dropped_late, s.watermark
        );
    }
    drop(session);

    println!("\n{} alert(s), e.g.:", alerts.len());
    for alert in alerts.iter().take(3) {
        println!("  {alert}");
    }
    println!(
        "\nOK: {} per-host sources reproduced the single-stream detections on {} workers",
        trace.topology.hosts.len(),
        engine.workers()
    );
}
