//! E11 — worker scaling: the master–dependent scheduler on one thread vs
//! an [`Engine`](saql_engine::Engine) on 1/2/4/8 workers, plus the
//! `NaiveScheduler` floor, on a multi-group concurrent-query workload.
//!
//! Expected shape: 1 worker tracks serial throughput (batching overhead is
//! small), and throughput grows with workers until shards-per-worker
//! bottoms out; on a machine with ≥ 4 cores, 4 workers should clear 2×
//! serial on this 16-group workload. The naive scheduler trails everything
//! (it scans and copies per query).
//!
//! **Caveat:** wall-clock speedup requires actual cores. The recorded
//! baseline comes from a 2-core box (`nproc` = 2: 1.17x serial at 2
//! workers, 1.36x at 4, EXPERIMENTS.md); on a single-CPU host every worker
//! count measures flat at roughly serial throughput, which is the correct
//! physical result. The partition audit
//! printed after the timings proves the speedup precondition that *can* be
//! verified anywhere: each of the 4 shards performs ¼ of the per-event
//! work, with zero data copies and the alert multiset unchanged.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_baseline::NaiveScheduler;
use saql_bench::{
    batches, drive, drive_engine, engine, scheduler, sharded_queries, sharded_sources, stream,
};

const GROUPS: usize = 16;
const PER_GROUP: usize = 4;
const EVENTS: usize = 20_000;

fn bench_parallel_scaling(c: &mut Criterion) {
    let events = stream(EVENTS, 11);
    let batches = batches(&events);
    let mut group = c.benchmark_group("e11_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("serial", GROUPS * PER_GROUP),
        &batches,
        |b, batches| {
            b.iter(|| drive(&mut scheduler(sharded_queries(GROUPS, PER_GROUP)), batches));
        },
    );

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &batches,
            |b, batches| {
                b.iter(|| {
                    let mut engine = engine(workers, sharded_sources(GROUPS, PER_GROUP));
                    drive_engine(&mut engine, batches).len()
                });
            },
        );
    }

    group.bench_with_input(
        BenchmarkId::new("naive", GROUPS * PER_GROUP),
        &batches,
        |b, batches| {
            b.iter(|| {
                let mut s = NaiveScheduler::new();
                for q in sharded_queries(GROUPS, PER_GROUP) {
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
    group.finish();

    partition_audit(&events);
}

/// Non-timed correctness audit: the 4-worker partition does the same total
/// work as serial, split evenly, with the same alert count.
fn partition_audit(events: &[saql_stream::SharedEvent]) {
    let mut serial = scheduler(sharded_queries(GROUPS, PER_GROUP));
    let serial_alerts = drive(&mut serial, &batches(events));

    let mut par = engine(4, sharded_sources(GROUPS, PER_GROUP));
    let par_alerts = drive_engine(&mut par, &batches(events)).len();

    let merged = par.scheduler_stats();
    println!(
        "audit e11: serial checks={} deliveries={} alerts={}",
        serial.stats().master_checks,
        serial.stats().deliveries,
        serial_alerts
    );
    for (id, s) in par.shard_stats() {
        println!(
            "audit e11: shard {id} checks={} deliveries={} ({}% of serial)",
            s.master_checks,
            s.deliveries,
            100 * s.master_checks / serial.stats().master_checks.max(1)
        );
    }
    assert_eq!(merged.master_checks, serial.stats().master_checks);
    assert_eq!(merged.deliveries, serial.stats().deliveries);
    assert_eq!(merged.data_copies, 0);
    assert_eq!(
        par_alerts, serial_alerts,
        "parallel must emit the same alerts"
    );
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
