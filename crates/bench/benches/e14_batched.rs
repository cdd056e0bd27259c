//! E14 — batch-size sweep over the engine's one execution path.
//!
//! There is no per-event path to compare against any more: a single event
//! is a one-row batch. What remains worth measuring is how the cost of
//! `Scheduler::process_batch` moves with the batch size the stream is cut
//! into — {1, 16, 256, 4096} rows, 256 being the engine default — on
//! identical streams. Alert streams and counters are identical across the
//! sweep by construction (`tests/batched_execution_differential.rs`).
//!
//! Workloads are E3's heavier families, plus two shared-compat-group
//! deployments: `shared-group` (8 variants of one pattern shape, no global
//! constraint — predicate columns shared through the group's `GroupRouter`)
//! and `selective` (32 groups x 8 host-pinned members, Q-many-shaped: each
//! member's global filter accepts under 1% of the rows its group admits —
//! the deployment on which a batch must cost no more probes than its
//! events one at a time; the ladder's `engine.scheduler.many_ns` is the
//! same shape measured end to end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::{
    compile_family, drive, scheduler, selective_queries, stream, stream_over_hosts, variant_queries,
};
use saql_engine::RunningQuery;
use saql_stream::{batched, SharedEvent};

const FAMILIES: [&str; 4] = ["rule", "rule-sequence", "time-series", "outlier"];
const BATCH_SIZES: [usize; 4] = [1, 16, 256, 4096];

/// Hosts the `selective` stream spreads over (each member pins one).
const HOSTS: usize = 256;

fn sweep(
    c: &mut Criterion,
    workload: &str,
    events: &[SharedEvent],
    deploy: impl Fn() -> Vec<RunningQuery>,
) {
    let mut group = c.benchmark_group("e14_batched");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    for size in BATCH_SIZES {
        let batches = batched(events.iter().cloned(), size);
        group.bench_with_input(BenchmarkId::new(workload, size), &batches, |b, batches| {
            b.iter(|| drive(&mut scheduler(deploy()), batches));
        });
    }
    group.finish();
}

fn bench_batch_sizes(c: &mut Criterion) {
    let events = stream(50_000, 42);
    for family in FAMILIES {
        sweep(c, family, &events, || vec![compile_family(family)]);
    }
    sweep(c, "shared-group", &events, || variant_queries(8));
    let spread = stream_over_hosts(50_000, 42, HOSTS);
    sweep(c, "selective", &spread, || selective_queries(32, 8, HOSTS));
}

criterion_group!(benches, bench_batch_sizes);
criterion_main!(benches);
