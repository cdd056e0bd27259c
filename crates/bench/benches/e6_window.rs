//! E6 — state-maintenance cost vs window size and group cardinality.
//!
//! Expected shape: per-event cost is roughly flat in window size (windows
//! are incremental accumulators, not buffers) and grows mildly with live
//! group count (hash-map pressure at window close).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::{batches, drive, scheduler};
use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_engine::query::RunningQuery;

fn windowed_query(window_s: u64, by_ip: bool) -> RunningQuery {
    let group = if by_ip { "i.dstip" } else { "p" };
    let src = format!(
        "proc p read || write ip i as evt #time({window_s} s)\nstate ss {{ amt := sum(evt.amount) }} group by {group}\nalert ss[0].amt > 10000000\nreturn {group}, ss[0].amt"
    );
    RunningQuery::compile("windowed", &src).unwrap()
}

fn bench_window_size(c: &mut Criterion) {
    let events = saql_stream::share(synthetic_stream(&WorkloadConfig {
        seed: 3,
        events: 50_000,
        mean_gap_ms: 40,
        ..WorkloadConfig::default()
    }));
    let batches = batches(&events);
    let mut group = c.benchmark_group("e6_window_size");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));
    for window_s in [1u64, 10, 60, 600] {
        group.bench_with_input(
            BenchmarkId::from_parameter(window_s),
            &batches,
            |b, batches| {
                b.iter(|| drive(&mut scheduler([windowed_query(window_s, false)]), batches));
            },
        );
    }
    group.finish();
}

fn bench_group_cardinality(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_group_cardinality");
    group.sample_size(10);
    // Group count is driven by the workload's process/ip vocabulary.
    for (label, procs) in [
        ("10-groups", 10usize),
        ("100-groups", 100),
        ("1000-groups", 1000),
    ] {
        let events = saql_stream::share(synthetic_stream(&WorkloadConfig {
            seed: 5,
            events: 50_000,
            mean_gap_ms: 40,
            procs,
            ..WorkloadConfig::default()
        }));
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &batches(&events),
            |b, batches| {
                b.iter(|| drive(&mut scheduler([windowed_query(60, false)]), batches));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_window_size, bench_group_cardinality);
criterion_main!(benches);
