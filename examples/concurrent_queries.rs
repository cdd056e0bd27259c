//! The master–dependent-query scheme under load: 32 concurrent queries over
//! one stream, compared against naive per-query execution — then the same
//! deployment driven as a *live session*: queries attached, paused, and
//! retired mid-stream through the engine control plane.
//!
//! ```sh
//! cargo run --release --example concurrent_queries
//! ```
//!
//! `SAQL_EXAMPLE_EVENTS` overrides the workload size (default 200000; CI
//! runs a small value to keep the verify job fast).

use std::time::Instant;

use saql::baseline::NaiveScheduler;
use saql::collector::workload::{synthetic_stream, WorkloadConfig};
use saql::engine::query::RunningQuery;
use saql::engine::scheduler::Scheduler;
use saql::stream::{batched, share, SharedEvent, DEFAULT_BATCH_SIZE};
use saql::{Engine, EngineConfig};

fn queries(n: usize) -> Vec<(String, String)> {
    // Realistic deployment: many analysts register variants over the same
    // event shapes (process starts, network writes), differing only in
    // constraints.
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                (
                    format!("proc-watch-{i}"),
                    format!(
                        "proc p1[\"%proc-{}.exe\"] start proc p2 as e\nreturn distinct p1, p2",
                        i % 10
                    ),
                )
            } else {
                (
                    format!("net-watch-{i}"),
                    format!(
                        "proc p write ip i[dstip=\"10.1.{}.{}\"] as e\nreturn distinct p, i",
                        i % 10,
                        1 + i % 200
                    ),
                )
            }
        })
        .collect()
}

fn main() {
    let workload = std::env::var("SAQL_EXAMPLE_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let events = share(synthetic_stream(&WorkloadConfig {
        events: workload,
        ..WorkloadConfig::default()
    }));
    println!("workload: {} events, 32 concurrent queries\n", events.len());
    let batches = batched(events.iter().cloned(), DEFAULT_BATCH_SIZE);

    // Master–dependent scheduler.
    let mut shared = Scheduler::new();
    for (name, src) in queries(32) {
        shared.add(RunningQuery::compile(&name, &src).unwrap());
    }
    println!(
        "master–dependent scheme groups 32 queries into {} group(s):",
        shared.group_count()
    );
    for (key, size) in shared.group_sizes() {
        println!("    {size:>2} queries share shape `{key}`");
    }

    let t0 = Instant::now();
    let mut shared_alerts = 0usize;
    for batch in &batches {
        shared_alerts += shared.process_batch(batch).len();
    }
    shared_alerts += shared.finish().len();
    let shared_time = t0.elapsed();

    // Naive per-query execution with per-query copies.
    let mut naive = NaiveScheduler::new();
    for (name, src) in queries(32) {
        naive.add(RunningQuery::compile(&name, &src).unwrap());
    }
    let t0 = Instant::now();
    let mut naive_alerts = 0usize;
    for batch in &batches {
        naive_alerts += naive.process_batch(batch).len();
    }
    naive_alerts += naive.finish().len();
    let naive_time = t0.elapsed();

    assert_eq!(shared_alerts, naive_alerts, "schemes must agree on results");

    let s = shared.stats();
    let n = naive.stats();
    println!("\n--- per-event work (lower is better) ---");
    println!("{:<22} {:>14} {:>14}", "", "master-dependent", "naive");
    println!(
        "{:<22} {:>14} {:>14}",
        "stream scans/event",
        s.master_checks / s.events,
        n.master_checks / n.events
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "data copies/event",
        s.data_copies / s.events,
        n.data_copies / n.events
    );
    println!(
        "{:<22} {:>13.1}s {:>13.1}s",
        "wall time",
        shared_time.as_secs_f64(),
        naive_time.as_secs_f64()
    );
    println!(
        "\nthroughput: {:.0} ev/s shared vs {:.0} ev/s naive ({:.2}x), {} alerts from both",
        events.len() as f64 / shared_time.as_secs_f64(),
        events.len() as f64 / naive_time.as_secs_f64(),
        naive_time.as_secs_f64() / shared_time.as_secs_f64(),
        shared_alerts,
    );

    live_session(&events);
}

/// The paper's analyst-session scenario: the stream never stops while
/// queries come and go. Everything below happens on a *running* engine —
/// the parallel backend applies each operation as a control message at a
/// batch boundary.
fn live_session(events: &[SharedEvent]) {
    println!("\n--- live session (2-worker parallel backend) ---");
    let mut engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let (resident_name, resident_src) = &queries(32)[0];
    let resident = engine.register(resident_name, resident_src).unwrap();
    let mut alerts = Vec::new();

    // First third: only the resident query watches the stream.
    let third = events.len().div_ceil(3);
    for e in &events[..third] {
        alerts.extend(engine.process(e).unwrap());
    }

    // An analyst attaches a tuned variant mid-stream; its alerts carry its
    // id.
    let (probe_name, probe_src) = &queries(32)[2];
    let probe = engine.register(probe_name, probe_src).unwrap();
    println!(
        "attached `{probe_name}` mid-stream as {probe} ({} group(s), {} queries live)",
        engine.group_count(),
        engine.query_names().len()
    );
    for e in &events[third..2 * third] {
        alerts.extend(engine.process(e).unwrap());
    }

    // Tuning pass: freeze the resident query, let the probe run alone,
    // then retire the probe and bring the resident back.
    engine.pause(resident).unwrap();
    for e in &events[2 * third..] {
        alerts.extend(engine.process(e).unwrap());
    }
    engine.deregister(probe).unwrap();
    engine.resume(resident).unwrap();
    alerts.extend(engine.finish());

    let probed = alerts.iter().filter(|a| a.query_id == probe).count();
    println!(
        "session total: {} alerts; {probed} raised by `{probe_name}`",
        alerts.len()
    );
    println!(
        "per-shard work: {:?}",
        engine
            .shard_stats()
            .iter()
            .map(|(id, s)| (*id, s.master_checks))
            .collect::<Vec<_>>()
    );
}
