//! E4 — concurrent-query scalability: the master–dependent-query scheme vs
//! naive per-query execution with per-query data copies, at 1–64 concurrent
//! compatible queries.
//!
//! Expected shape (paper): shared execution keeps per-event work roughly
//! constant as compatible queries grow, while the naive scheme scales
//! linearly in both scans and copies.
//!
//! The `host-pinned` rows take the shared scheme to 256 / 1,024 / 4,096
//! registered queries of one group, each pinned to a host by a global
//! constraint with a skewed match rate (`saql_bench::host_pinned_queries`):
//! the scale at which dispatch has to route a row to the queries that can
//! match it instead of asking every query.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use saql_baseline::NaiveScheduler;
use saql_bench::{
    batches, drive, host_pinned_queries, scheduler, skewed_stream, stream, variant_queries,
};

fn bench_scaling(c: &mut Criterion) {
    let events = stream(20_000, 11);
    let skewed = batches(&skewed_stream(events.len(), 11));
    let batches = batches(&events);
    let mut group = c.benchmark_group("e4_concurrent");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    for n in [1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("master-dependent", n),
            &batches,
            |b, batches| {
                b.iter(|| drive(&mut scheduler(variant_queries(n)), batches));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive-copies", n),
            &batches,
            |b, batches| {
                b.iter(|| {
                    let mut s = NaiveScheduler::new();
                    for q in variant_queries(n) {
                        s.add(q);
                    }
                    let mut alerts = 0usize;
                    for batch in batches {
                        alerts += s.process_batch(batch).len();
                    }
                    alerts + s.finish().len()
                });
            },
        );
    }
    for n in [256usize, 1_024, 4_096] {
        group.bench_with_input(BenchmarkId::new("host-pinned", n), &skewed, |b, skewed| {
            // Registration stays outside the timing: at this scale
            // compiling the queries costs more than a pass over 20k events.
            b.iter_batched(
                || scheduler(host_pinned_queries(n)),
                |mut s| drive(&mut s, skewed),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
