//! E12 — ingestion throughput: the watermarked K-way merge fusing per-host
//! feeds, and the JSON-lines event codec (decode is the hot path when
//! external agents feed the engine over pipes). The ingestion layer must
//! comfortably outrun the engine so sources never bottleneck sessions.
//!
//! Decoded strings come from a per-thread table of recent strings, so the
//! decode cases also run on input whose strings never repeat (every lookup
//! misses), once dropped where decoded and once dropped on another thread,
//! the shape of a serve ingest connection handing events to the core.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use saql_collector::workload::{synthetic_stream, WorkloadConfig};
use saql_model::json::{decode_event_json, encode_event_json};
use saql_model::{Duration, Entity, Event, Timestamp};
use saql_stream::merge::{MergeConfig, WatermarkMerge};
use saql_stream::source::IterSource;
use saql_stream::SharedEvent;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

const EVENTS: usize = 50_000;

fn workload() -> Vec<Event> {
    synthetic_stream(&WorkloadConfig {
        seed: 12,
        events: EVENTS,
        ..Default::default()
    })
}

/// Split a stream into `k` per-host-style feeds (round-robin keeps each
/// feed timestamp-ordered).
fn split_feeds(events: &[Event], k: usize) -> Vec<Vec<SharedEvent>> {
    let mut feeds: Vec<Vec<SharedEvent>> = vec![Vec::with_capacity(events.len() / k + 1); k];
    for (i, e) in events.iter().enumerate() {
        feeds[i % k].push(Arc::new(e.clone()));
    }
    feeds
}

/// `events` with every string made distinct (the event's index appended).
fn all_unique(events: &[Event]) -> Vec<Event> {
    let tag = |s: &Arc<str>, i: usize| -> Arc<str> { Arc::from(format!("{s}#{i}")) };
    let mut out = events.to_vec();
    for (i, e) in out.iter_mut().enumerate() {
        e.agent_id = tag(&e.agent_id, i);
        e.subject.exe_name = tag(&e.subject.exe_name, i);
        e.subject.user = tag(&e.subject.user, i);
        match &mut e.object {
            Entity::Process(p) => {
                p.exe_name = tag(&p.exe_name, i);
                p.user = tag(&p.user, i);
            }
            Entity::File(f) => f.name = tag(&f.name, i),
            Entity::Network(n) => {
                n.src_ip = tag(&n.src_ip, i);
                n.dst_ip = tag(&n.dst_ip, i);
                n.protocol = tag(&n.protocol, i);
            }
        }
    }
    out
}

fn jsonl(events: &[Event]) -> String {
    let mut text = String::with_capacity(events.len() * 160);
    for e in events {
        encode_event_json(&mut text, e);
    }
    text
}

fn bench_ingest(c: &mut Criterion) {
    let events = workload();

    let mut group = c.benchmark_group("e12_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EVENTS as u64));

    // K-way watermarked merge throughput at increasing fan-in.
    for k in [2usize, 8, 32] {
        let feeds = split_feeds(&events, k);
        group.bench_function(format!("merge-{k}way-50k"), |b| {
            b.iter(|| {
                let mut merge = WatermarkMerge::new(MergeConfig {
                    lateness: Duration::ZERO,
                    ..MergeConfig::default()
                });
                for (i, feed) in feeds.iter().enumerate() {
                    merge.attach(Box::new(IterSource::new(format!("f{i}"), feed.clone())));
                }
                merge.collect_remaining().len()
            });
        });
    }

    // One feed at the default lateness, sorted (every event joins the
    // sorted run) and with every 20th event 500 ms late (the stragglers
    // take the heap).
    let sorted = split_feeds(&events, 1).remove(0);
    let stragglers: Vec<SharedEvent> = sorted
        .iter()
        .enumerate()
        .map(|(i, e)| match i % 20 {
            19 => {
                let mut late = (**e).clone();
                late.ts = Timestamp::from_millis(late.ts.as_millis().saturating_sub(500));
                Arc::new(late)
            }
            _ => Arc::clone(e),
        })
        .collect();
    for (name, feed) in [("sorted", &sorted), ("stragglers", &stragglers)] {
        group.bench_function(format!("merge-1way-bounded-{name}-50k"), |b| {
            b.iter(|| {
                let mut merge = WatermarkMerge::new(MergeConfig::default());
                merge.attach(Box::new(IterSource::new("feed", feed.clone())));
                merge.collect_remaining().len()
            });
        });
    }

    // JSONL encode rate.
    group.bench_function("jsonl-encode-50k", |b| {
        b.iter(|| {
            let mut out = String::with_capacity(EVENTS * 160);
            for e in &events {
                encode_event_json(&mut out, e);
            }
            out.len()
        });
    });

    // JSONL decode rate (the agent-pipe ingest hot path).
    let text = jsonl(&events);
    group.bench_function("jsonl-decode-50k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for line in text.lines() {
                decode_event_json(line).unwrap();
                n += 1;
            }
            n
        });
    });

    // The string table's miss path: no string repeats.
    let unique = jsonl(&all_unique(&events));
    group.bench_function("jsonl-decode-unique-50k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for line in unique.lines() {
                decode_event_json(line).unwrap();
                n += 1;
            }
            n
        });
    });

    // The same, with the events dropped on another thread in chunks of
    // 1,024, as the core thread drops what an ingest connection decoded.
    let (chunk_tx, chunk_rx) = mpsc::sync_channel::<Option<Vec<Event>>>(4);
    let (done_tx, done_rx) = mpsc::channel();
    let dropper = thread::spawn(move || {
        for chunk in chunk_rx {
            if chunk.is_none() && done_tx.send(()).is_err() {
                return;
            }
        }
    });
    group.bench_function("jsonl-decode-unique-crossthread-50k", |b| {
        b.iter(|| {
            let mut chunk = Vec::with_capacity(1024);
            for line in unique.lines() {
                chunk.push(decode_event_json(line).unwrap());
                if chunk.len() == 1024 {
                    let full = std::mem::replace(&mut chunk, Vec::with_capacity(1024));
                    chunk_tx.send(Some(full)).unwrap();
                }
            }
            chunk_tx.send(Some(chunk)).unwrap();
            // Wait until everything is dropped, so the drops are timed.
            chunk_tx.send(None).unwrap();
            done_rx.recv().unwrap();
        });
    });
    drop(chunk_tx);
    dropper.join().unwrap();

    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
