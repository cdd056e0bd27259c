//! E9 — storage and replay throughput: encode+append to the event store,
//! and replay (decode + select + sort) back into a stream. The replayer
//! must comfortably outrun the engine so storage never bottlenecks demos.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_stream::replayer::Replayer;
use saql_stream::store::Selection;
use saql_stream::StoreWriter;

fn bench_store_roundtrip(c: &mut Criterion) {
    let events = synthetic_stream(&WorkloadConfig {
        seed: 9,
        events: 50_000,
        ..Default::default()
    });
    let dir = std::env::temp_dir();

    let mut group = c.benchmark_group("e9_replayer");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events.len() as u64));

    group.bench_function("store-append-50k", |b| {
        b.iter(|| {
            let path = dir.join(format!("saql-bench-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            let mut store = StoreWriter::create_segmented(&path).unwrap();
            store.append(&events).unwrap();
            let _ = std::fs::remove_dir_all(&path);
        });
    });

    let path = dir.join(format!("saql-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let mut store = StoreWriter::create_segmented(&path).unwrap();
    store.append(&events).unwrap();

    group.bench_function("replay-all-50k", |b| {
        b.iter(|| {
            let replayer = Replayer::open(&path).unwrap();
            replayer.replay_iter(&Selection::all()).unwrap().count()
        });
    });

    group.bench_function("replay-host-selected-50k", |b| {
        b.iter(|| {
            let replayer = Replayer::open(&path).unwrap();
            replayer
                .replay_iter(&Selection::host("host-3"))
                .unwrap()
                .count()
        });
    });

    group.bench_function("codec-encode-50k", |b| {
        b.iter(|| saql_model::codec::encode_batch(&events).len());
    });

    let encoded = saql_model::codec::encode_batch(&events);
    group.bench_function("codec-decode-50k", |b| {
        b.iter(|| saql_model::codec::decode_batch(&encoded).unwrap().len());
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&path);
}

criterion_group!(benches, bench_store_roundtrip);
criterion_main!(benches);
