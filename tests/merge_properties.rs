//! Properties of the watermarked merge and of the stored source that feeds
//! it. The merge releases a bounded-lateness source from a sorted run plus
//! a heap of stragglers, and a stored source promises the verified time
//! floor of its segments; neither may change what comes out.
//!
//! * Whatever the feeds, pull batch and lateness, the merged stream equals
//!   a reference: each source's late events dropped by the merge's rule
//!   (`ts + lateness < max_ts` so far), the rest stably sorted by
//!   `(ts, source, seq)`, with the same `dropped_late` counts.
//! * A `StoreSource` over a store whose records are out of order across
//!   segment boundaries and in the WAL tail never reports a watermark above
//!   an event it yields later, read whole, by host, or from an offset; and
//!   merged at the default lateness it gives the reference stream too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use saql::model::event::{Event, EventBuilder};
use saql::model::{Duration, ProcessInfo};
use saql::stream::source::{IterSource, StoreSource};
use saql::stream::store::Selection;
use saql::stream::{
    EventSource, MergeConfig, SharedEvent, SourcePoll, StoreReader, StoreWriter, WatermarkMerge,
};

const HOSTS: [&str; 3] = ["h0", "h1", "h2"];

fn event(id: u64, ts: u64) -> Event {
    EventBuilder::new(id, HOSTS[(id % 3) as usize], ts)
        .subject(ProcessInfo::new(1, "a.exe", "u"))
        .starts_process(ProcessInfo::new(2, "b.exe", "u"))
        .build()
}

/// One drawn step of a feed: what kind of event follows, and by how much.
type Step = (u8, u64);

fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..100, 0u64..2_000), len)
}

/// Timestamps of one feed: a sorted run with equal-timestamp bursts,
/// stragglers inside, exactly at and beyond `lateness`, and the odd
/// far-future event.
fn timestamps(steps: &[Step], lateness: u64) -> Vec<u64> {
    let mut clock = 10_000u64;
    steps
        .iter()
        .map(|&(kind, by)| match kind {
            0..=54 => {
                clock += by % 40;
                clock
            }
            55..=69 => clock,
            70..=79 => clock.saturating_sub(by % (lateness + 1)),
            80..=84 => clock.saturating_sub(lateness),
            85..=97 => clock.saturating_sub(lateness + 1 + by),
            _ => u64::MAX - by,
        })
        .collect()
}

/// What the merge must release: per source, late events dropped by the
/// merge's rule, then everything stably sorted by `(ts, source, seq)`.
/// Returns the released event ids and each source's drop count.
fn reference(feeds: &[Vec<SharedEvent>], lateness: u64) -> (Vec<u64>, Vec<u64>) {
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for (source, feed) in feeds.iter().enumerate() {
        let mut max_ts: Option<u64> = None;
        let mut late = 0;
        for e in feed {
            let ts = e.ts.as_millis();
            if max_ts.is_some_and(|max| ts.saturating_add(lateness) < max) {
                late += 1;
                continue;
            }
            max_ts = Some(max_ts.map_or(ts, |max| max.max(ts)));
            kept.push((ts, source, e.id));
        }
        dropped.push(late);
    }
    // Stable: within one source, arrival order breaks timestamp ties.
    kept.sort_by_key(|&(ts, source, _)| (ts, source));
    (kept.into_iter().map(|(_, _, id)| id).collect(), dropped)
}

/// Run `sources` through one merge; the released ids and drop counts.
fn merged<'a>(
    sources: Vec<Box<dyn EventSource + 'a>>,
    lateness: u64,
    pull_batch: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut merge = WatermarkMerge::new(MergeConfig {
        lateness: Duration::from_millis(lateness),
        pull_batch,
    });
    for source in sources {
        merge.attach(source);
    }
    let ids = merge.collect_remaining().iter().map(|e| e.id).collect();
    let dropped = merge
        .source_stats()
        .iter()
        .map(|(_, s)| s.dropped_late)
        .collect();
    (ids, dropped)
}

fn scratch_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-merge-prop-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll `source` to its end in `max`-sized pulls. Before every pull the
/// watermark must not exceed any event still to come.
fn drain_checking_watermark(source: &mut StoreSource, max: usize) -> Vec<SharedEvent> {
    let mut out = Vec::new();
    let mut promises = Vec::new();
    loop {
        promises.push((out.len(), source.watermark()));
        if source.poll(&mut out, max) == SourcePoll::End {
            break;
        }
    }
    for (from, promise) in promises {
        let Some(promise) = promise else { continue };
        if let Some(later) = out[from..].iter().map(|e| e.ts).min() {
            assert!(
                promise <= later,
                "watermark {promise:?} after {from} events, but {later:?} followed"
            );
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn the_merge_equals_drop_then_stable_sort(
        feeds in proptest::collection::vec(steps(0..120), 1..5),
        lateness in prop_oneof![Just(0u64), 0u64..20, 0u64..1_500],
        pull_batch in 1usize..40,
    ) {
        let feeds: Vec<Vec<SharedEvent>> = feeds
            .iter()
            .enumerate()
            .map(|(source, steps)| {
                let ids = (source as u64 * 1_000)..;
                ids.zip(timestamps(steps, lateness))
                    .map(|(id, ts)| Arc::new(event(id, ts)))
                    .collect()
            })
            .collect();
        let sources = feeds
            .iter()
            .enumerate()
            .map(|(i, feed)| -> Box<dyn EventSource> {
                Box::new(IterSource::new(format!("f{i}"), feed.clone()))
            })
            .collect();
        prop_assert_eq!(merged(sources, lateness, pull_batch), reference(&feeds, lateness));
    }

    #[test]
    fn a_store_source_promises_only_what_it_still_yields(
        steps in steps(1..160),
        segment_events in 1usize..24,
        read in (0u8..4, 0u64..200, 1usize..20),
        pull_batch in 1usize..40,
    ) {
        let (mode, at, max) = read;
        // Stragglers up to 1.5 s back: across segment boundaries, in the
        // WAL tail, and some beyond the default lateness.
        let events: Vec<Event> = timestamps(&steps, 1_000)
            .into_iter()
            .enumerate()
            .map(|(id, ts)| event(id as u64, ts))
            .collect();
        let dir = scratch_dir();
        let mut writer = StoreWriter::create_segmented_with(&dir, segment_events).unwrap();
        writer.append(&events).unwrap();
        drop(writer);
        let reader = StoreReader::open(&dir).unwrap();
        let open = || match mode {
            0 => StoreSource::open("store", &reader, &Selection::all()),
            1 => StoreSource::open("store", &reader, &Selection::host(HOSTS[at as usize % 3])),
            _ => StoreSource::open_at("store", &reader, at.min(reader.len())).unwrap(),
        };
        let stored: Vec<SharedEvent> = drain_checking_watermark(&mut open(), max);
        let expected: Vec<Event> = match mode {
            0 => events.clone(),
            1 => {
                let selection = Selection::host(HOSTS[at as usize % 3]);
                reader.iter(&selection).collect::<Result<_, _>>().unwrap()
            }
            _ => events[at.min(events.len() as u64) as usize..].to_vec(),
        };
        prop_assert_eq!(stored.iter().map(|e| e.id).collect::<Vec<_>>(),
            expected.iter().map(|e| e.id).collect::<Vec<_>>());

        let lateness = MergeConfig::default().lateness.as_millis();
        let via_store = merged(vec![Box::new(open())], lateness, pull_batch);
        prop_assert_eq!(via_store, reference(&[stored], lateness));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
