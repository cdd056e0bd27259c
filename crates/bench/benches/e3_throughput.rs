//! E3 — single-query throughput and per-event latency by anomaly-model
//! family (the paper's performance axis: SAQL sustains enterprise event
//! rates for all four model types; stateful models cost more than pure
//! rules but stay within the same order of magnitude).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::{batches, compile_family, drive, family_queries, scheduler, stream};

fn bench_family_throughput(c: &mut Criterion) {
    let events = stream(50_000, 42);
    let batches = batches(&events);
    let mut group = c.benchmark_group("e3_throughput");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);

    for (name, _) in family_queries() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &batches, |b, batches| {
            b.iter(|| drive(&mut scheduler([compile_family(name)]), batches));
        });
    }
    group.finish();
}

fn bench_event_rate_sweep(c: &mut Criterion) {
    // Latency shape vs stream size: per-event cost should stay flat
    // (no superlinear state growth).
    let mut group = c.benchmark_group("e3_rate_sweep");
    group.sample_size(10);
    for n in [10_000usize, 50_000, 100_000] {
        let batches = batches(&stream(n, 7));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("time-series", n),
            &batches,
            |b, batches| {
                b.iter(|| drive(&mut scheduler([compile_family("time-series")]), batches));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_family_throughput, bench_event_rate_sweep);
criterion_main!(benches);
