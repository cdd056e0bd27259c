//! E18 — key-partitioned execution: one heavy stateful-aggregation query
//! (>1M groups) on one scheduler, on group-sharded workers, and on
//! key-partitioned workers at 1/2/4/8 workers.
//!
//! Group sharding cannot help here: the whole workload is *one* query, so
//! every event lands on the single shard that owns it and the other
//! workers idle — the parallel rows should read flat at roughly serial
//! throughput regardless of worker count. Key partitioning splits the
//! query itself: each worker hosts a replica owning a disjoint hash slice
//! of the ~1M groups, so per-worker observe work drops to ~1/N.
//!
//! **Caveat:** wall-clock speedup requires actual cores. The recorded
//! baseline comes from a 2-core box (`nproc` = 2: key-partitioned ≈1.1x
//! serial at 2 workers, EXPERIMENTS.md); on a single-CPU host every worker
//! count measures at or below serial throughput:
//! the replicas' broadcast master checks (the price of identical watermark
//! evolution) are pure overhead when they all share one core. The
//! partition audit printed after the timings proves the speedup
//! precondition that *can* be verified anywhere: each of the 4 replicas
//! performs ~¼ of the group observes, the per-replica deliveries sum to
//! exactly the serial count (no row folded twice), the alert multiset is
//! unchanged, and no event payload is copied.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saql_bench::{batches, drive, drive_engine, engine, scheduler};
use saql_engine::query::{QueryConfig, RunningQuery};
use saql_model::event::EventBuilder;
use saql_model::{NetworkInfo, ProcessInfo};
use saql_stream::{EventBatch, SharedEvent};

/// Distinct group count — every group is one process exe name, and the
/// acceptance floor is "1M+ groups".
const GROUPS: usize = 1_100_003;
const EVENTS: usize = 1_500_000;

/// The one heavy query: per-process write aggregation in 10-minute
/// windows. The alert threshold keeps alert volume sparse (a group needs
/// repeat traffic inside one window), so the timing measures aggregation
/// work, not alert rendering.
const HEAVY: &str = "proc p write ip i as evt #time(10 min)\n\
                     state ss { amt := sum(evt.amount); n := count() } group by p\n\
                     alert ss[0].amt > 150\n\
                     return p, ss[0].amt, ss[0].n";

fn heavy_query() -> RunningQuery {
    RunningQuery::compile("e18-heavy", HEAVY, QueryConfig::default()).unwrap()
}

/// `EVENTS` write events round-robining `GROUPS` distinct processes, 3 ms
/// apart (≈75 min of stream time, so several 10-minute windows open and
/// close mid-run with ~1M groups live). The first 500 groups write over
/// the alert threshold every time, so a sparse alert stream crosses every
/// replica and the audit's multiset comparison is non-vacuous.
fn partition_stream() -> Vec<SharedEvent> {
    (0..EVENTS)
        .map(|i| {
            let g = i % GROUPS;
            let amount = if g < 500 { 200 } else { (i % 97) as u64 };
            Arc::new(
                EventBuilder::new(i as u64 + 1, "h", (i as u64) * 3 + 1)
                    .subject(ProcessInfo::new(g as u32, format!("p{g}.exe"), "u"))
                    .sends(NetworkInfo::new("10.0.0.2", 44000, "1.1.1.1", 443, "tcp"))
                    .amount(amount)
                    .build(),
            )
        })
        .collect()
}

fn bench_partitioned_scaling(c: &mut Criterion) {
    let events = partition_stream();
    let batches = batches(&events);
    let mut group = c.benchmark_group("e18_partition");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_with_input(BenchmarkId::new("serial", 1), &batches, |b, batches| {
        b.iter(|| drive(&mut scheduler([heavy_query()]), batches));
    });

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("group_sharded", workers),
            &batches,
            |b, batches| {
                b.iter(|| run_on_workers(batches, workers, false));
            },
        );
    }

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("partitioned", workers),
            &batches,
            |b, batches| {
                b.iter(|| run_on_workers(batches, workers, true));
            },
        );
    }
    group.finish();

    partition_audit(&batches);
}

fn run_on_workers(batches: &[EventBatch], workers: usize, key_partitioning: bool) -> usize {
    let mut engine = engine(workers, key_partitioning, [("e18-heavy", HEAVY)]);
    drive_engine(&mut engine, batches).len()
}

/// Non-timed work-partition audit, the 1-CPU acceptance path: at 4
/// workers, each replica observes ~¼ of the rows, the replica deliveries
/// sum to exactly the serial count (every row folds on exactly one
/// shard), the alert multiset is unchanged, and no payload is copied.
fn partition_audit(batches: &[EventBatch]) {
    const WORKERS: usize = 4;

    let mut serial = scheduler([heavy_query()]);
    let mut serial_alerts: Vec<String> = Vec::new();
    for batch in batches {
        serial_alerts.extend(serial.process_batch(batch).iter().map(|a| a.to_string()));
    }
    serial_alerts.extend(serial.finish().iter().map(|a| a.to_string()));
    serial_alerts.sort();
    let serial_stats = serial.stats();

    let mut par = engine(WORKERS, true, [("e18-heavy", HEAVY)]);
    let mut par_alerts: Vec<String> = drive_engine(&mut par, batches)
        .iter()
        .map(|a| a.to_string())
        .collect();
    par_alerts.sort();

    println!(
        "audit e18: serial deliveries={} checks={} alerts={}",
        serial_stats.deliveries,
        serial_stats.master_checks,
        serial_alerts.len()
    );
    let mut delivered = 0u64;
    for (id, s) in par.shard_stats() {
        println!(
            "audit e18: replica {id} deliveries={} ({}% of serial)",
            s.deliveries,
            100 * s.deliveries / serial_stats.deliveries.max(1)
        );
        delivered += s.deliveries;
        // Even split: FNV over >1M groups lands each replica within a few
        // percent of 1/N; 20% headroom keeps the audit robust.
        let share = serial_stats.deliveries / WORKERS as u64;
        assert!(
            s.deliveries.abs_diff(share) <= share / 5,
            "replica {id} observes {} rows, expected ~{share}",
            s.deliveries
        );
    }
    let merged = par.scheduler_stats();
    assert_eq!(
        delivered, serial_stats.deliveries,
        "0 duplicated deliveries"
    );
    assert_eq!(merged.deliveries, serial_stats.deliveries);
    assert_eq!(merged.data_copies, 0, "broadcast shares payload handles");
    // The replication price: every replica master-checks every event.
    assert_eq!(
        merged.master_checks,
        serial_stats.master_checks * WORKERS as u64
    );
    assert!(!serial_alerts.is_empty(), "audit needs a live alert stream");
    assert_eq!(par_alerts, serial_alerts, "alert multiset unchanged");
}

criterion_group!(benches, bench_partitioned_scaling);
criterion_main!(benches);
