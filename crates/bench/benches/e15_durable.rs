//! E15 — durability costs: segmented WAL append+fsync rate, recovery of a
//! torn store on open, and checkpoint/restore of a running engine. The
//! durable path must stay cheap enough that ack-on-sync ingestion and a
//! periodic checkpoint cadence never bottleneck a session.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_engine::{Checkpoint, CheckpointConfig, Engine, EngineConfig, SessionStatus};
use saql_stream::source::StoreSource;
use saql_stream::store::Selection;
use saql_stream::{StoreReader, StoreWriter};

const EVENTS: usize = 50_000;

/// The E3 time-series family query: windowed grouped state, so checkpoints
/// carry real per-group aggregation state, not an empty engine.
const STATEFUL: &str = "proc p write ip i as evt #time(60 s)\n\
     state[3] ss { avg_amount := avg(evt.amount) } group by p\n\
     alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 40000)\n\
     return p, ss[0].avg_amount";

fn workload() -> Vec<saql_model::Event> {
    synthetic_stream(&WorkloadConfig {
        seed: 15,
        events: EVENTS,
        mean_gap_ms: 20,
        target_fraction: 0.05,
        ..WorkloadConfig::default()
    })
}

fn bench_durable(c: &mut Criterion) {
    let events = workload();
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let mut group = c.benchmark_group("e15_durable");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EVENTS as u64));

    // Durably-acked ingestion: segmented append + one fsync ack per batch.
    group.bench_function("append-sync-50k", |b| {
        b.iter(|| {
            let path = dir.join(format!("saql-bench-e15-append-{pid}.d"));
            let _ = std::fs::remove_dir_all(&path);
            let mut store = StoreWriter::create_segmented(&path).unwrap();
            for chunk in events.chunks(4096) {
                store.append(chunk).unwrap();
                store.sync().unwrap();
            }
            let n = store.len();
            drop(store);
            let _ = std::fs::remove_dir_all(&path);
            n
        });
    });

    // Torn-tail recovery: open + full scan of a segmented store whose WAL
    // was cut mid-record (the crash shape `StoreReader::open` repairs).
    let torn = dir.join(format!("saql-bench-e15-torn-{pid}.d"));
    let _ = std::fs::remove_dir_all(&torn);
    let mut store = StoreWriter::create_segmented(&torn).unwrap();
    store.append(&events).unwrap();
    store.sync().unwrap();
    drop(store);
    let wal = torn.join("wal.saqlwal");
    let raw = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &raw[..raw.len() - raw.len().min(7)]).unwrap();
    group.bench_function("recover-scan-50k", |b| {
        b.iter(|| {
            let reader = StoreReader::open(&torn).unwrap();
            reader.iter(&Selection::all()).count()
        });
    });

    // Checkpoint write: serialize the full engine state (50k events of
    // grouped window state) and atomically persist it.
    let clean = dir.join(format!("saql-bench-e15-store-{pid}.d"));
    let _ = std::fs::remove_dir_all(&clean);
    let mut store = StoreWriter::create_segmented(&clean).unwrap();
    store.append(&events).unwrap();
    store.sync().unwrap();
    drop(store);
    let reader = StoreReader::open(&clean).unwrap();

    let ckpt_dir = dir.join(format!("saql-bench-e15-ckpt-{pid}"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut engine = Engine::new(EngineConfig::default());
    engine.register("timeseries", STATEFUL).unwrap();
    let mut session = engine.session();
    session.enable_checkpoints(CheckpointConfig {
        dir: ckpt_dir.clone(),
        every_events: 0,
    });
    session.attach(StoreSource::open("bench", &reader, &Selection::all()));
    while session.pump().status != SessionStatus::Done {}
    group.bench_function("checkpoint-50k-state", |b| {
        b.iter(|| session.checkpoint_now().unwrap());
    });
    session.checkpoint_now().unwrap();
    drop(session);
    drop(engine);

    // Restore: load the checkpoint and rebuild a ready-to-pump engine
    // (recompile queries, restore window/state rows).
    group.bench_function("resume-50k-state", |b| {
        b.iter(|| {
            let ckpt = Checkpoint::load(&ckpt_dir).unwrap();
            let engine = Engine::resume_from(ckpt, EngineConfig::default()).unwrap();
            engine.query_ids().len()
        });
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&torn);
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

criterion_group!(benches, bench_durable);
criterion_main!(benches);
