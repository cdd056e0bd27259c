//! Pull-based event sources: the ingestion boundary of the engine.
//!
//! The paper's architecture feeds the query engine from monitoring agents
//! deployed across an enterprise; this module is that boundary's contract.
//! An [`EventSource`] is anything the engine can *pull* batches of events
//! from — a streamed [`StoreReader`] selection, a JSON-lines file or pipe
//! decoded by the [`ingest`](crate::ingest) stage, a push-handle channel
//! fed by another thread — and the watermarked K-way merge
//! ([`crate::merge::WatermarkMerge`]) fuses any number of them into one
//! deterministic enterprise-wide stream.
//!
//! The stream replayer (paper Fig. 4) is a [`StoreSource`] over a host and
//! time [`Selection`], attached [`FLOOR_GATED`] so the merge sorts it by
//! time, and wrapped in [`Paced`] to replay it at a [`Speed`].

use std::io::{BufReader, Read};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use saql_model::{Duration, Timestamp};

use crate::channel::{event_channel, EventReceiver, EventSender};
use crate::durable::{StoreIter, StoreReader};
use crate::ingest::decode_ndjson;
use crate::merge::Lateness;
use crate::store::{Selection, StoreError};
use crate::SharedEvent;

/// Result of one [`EventSource::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// At least one event was appended; more may follow.
    Ready,
    /// Nothing available right now, but the stream has not ended (live
    /// feeds waiting on external producers).
    Idle,
    /// End of stream: any events appended by this call are the last ones.
    End,
}

/// A pull-based stream of shared events.
///
/// Implementations append up to `max` events per [`poll`](Self::poll) and
/// signal end-of-stream with [`SourcePoll::End`]. Events should be roughly
/// timestamp-ordered; the merge layer absorbs disorder up to the source's
/// configured [`Lateness`] bound and drops (and counts) the rest.
pub trait EventSource {
    /// Human-readable name, surfaced in per-source stats.
    fn name(&self) -> &str;

    /// Pull up to `max` events, appending them to `out`.
    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll;

    /// Optional watermark punctuation: a promise that no future event from
    /// this source is earlier than the returned timestamp, even beyond what
    /// its emitted events imply. Sources that cannot promise more than
    /// their data return `None` (the default).
    fn watermark(&self) -> Option<Timestamp> {
        None
    }

    /// A failure that ended or degraded this stream (corrupt store record,
    /// read error, undecodable lines). Surfaced through the merge's
    /// per-source stats so consumers above the trait boundary can report
    /// it — a source that fails mid-stream otherwise just looks like a
    /// clean, short end-of-stream.
    fn failure(&self) -> Option<String> {
        None
    }
}

impl<S: EventSource + ?Sized> EventSource for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        (**self).poll(out, max)
    }

    fn watermark(&self) -> Option<Timestamp> {
        (**self).watermark()
    }

    fn failure(&self) -> Option<String> {
        (**self).failure()
    }
}

// ---------------------------------------------------------------------
// Iterator adapter
// ---------------------------------------------------------------------

/// Adapts any in-memory iterator of shared events — the single-source shim
/// behind the classic `Engine::run(iterator)` entry points.
pub struct IterSource<I> {
    name: String,
    iter: I,
}

impl<I: Iterator<Item = SharedEvent>> IterSource<I> {
    pub fn new(name: impl Into<String>, iter: impl IntoIterator<IntoIter = I>) -> Self {
        IterSource {
            name: name.into(),
            iter: iter.into_iter(),
        }
    }
}

impl<I: Iterator<Item = SharedEvent>> EventSource for IterSource<I> {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        for _ in 0..max {
            match self.iter.next() {
                Some(event) => out.push(event),
                None => return SourcePoll::End,
            }
        }
        SourcePoll::Ready
    }
}

// ---------------------------------------------------------------------
// Channel / push-handle source
// ---------------------------------------------------------------------

/// Producer half of [`push_source`]: hand events to a running session
/// from any thread. Dropping every handle ends the source.
#[derive(Clone)]
pub struct PushHandle {
    tx: EventSender,
    failure: Arc<Mutex<Option<String>>>,
}

impl PushHandle {
    /// Blocking push; `false` once the consuming session is gone. The
    /// source's watermark follows the event when the merge *dequeues* it
    /// (see [`ChannelSource`]), not here: an event still sitting in the
    /// queue must keep gating the other sources.
    pub fn push(&self, event: SharedEvent) -> bool {
        self.tx.send(event)
    }

    /// Non-blocking push of as much of a chunk as fits, in order; the tail
    /// that did not fit stays in `chunk`, for the caller to shed or to
    /// [`push`](Self::push) once there is room. `false` once the consuming
    /// session is gone.
    pub fn push_fitting(&self, chunk: &mut std::vec::IntoIter<SharedEvent>) -> bool {
        self.tx.send_fitting(chunk)
    }

    /// Report (or update) a producer-side degradation — undecodable input
    /// lines, a lost upstream — so it surfaces *live* through the paired
    /// [`ChannelSource`]'s [`EventSource::failure`] and the session's
    /// per-source stats, the same way pull-source failures do. The stream
    /// keeps flowing; this is visibility, not teardown.
    pub fn report_failure(&self, message: impl Into<String>) {
        *self.failure.lock().unwrap() = Some(message.into());
    }
}

/// A source fed from a bounded event channel ([`EventReceiver`]).
pub struct ChannelSource {
    name: String,
    rx: EventReceiver,
    /// A [`push_source`]'s highest timestamp *dequeued* so far. A push
    /// producer feeds in timestamp order, so everything it has handed the
    /// merge is a watermark promise — but only what the merge has actually
    /// pulled: counting events still in the queue would let the merge
    /// release another source's later events ahead of them.
    ///
    /// `None` for a [`ChannelSource::jsonl`] file, which promises nothing
    /// and is never idle: a poll waits until it can return `max` events or
    /// the stream ends, so the merge sees the same polls however fast the
    /// decoders run.
    dequeued_ms: Option<u64>,
    failure: Arc<Mutex<Option<String>>>,
    ended: bool,
}

impl ChannelSource {
    /// A source of JSON-lines events (see [`saql_model::json`]) read from
    /// any reader — a file, a pipe, stdin — on a background thread named
    /// `saql-jsonl`, which runs the [`ingest`](crate::ingest) stage into a
    /// channel of `capacity` events. Undecodable lines are skipped and
    /// surface through [`EventSource::failure`] as the stage words them; a
    /// read error ends the stream as `stream ended early: read error: …`.
    ///
    /// Unlike a [`push_source`], it promises no watermark from what the
    /// merge has dequeued: a file may be out of order within the lateness
    /// bound, and the merge re-sorts it exactly as it would the same events
    /// from a store. And it is never idle: a poll waits for the decoders
    /// until it has `max` events or the input ended, so a run's rounds —
    /// and with them a pipeline's interleaving — do not depend on decode
    /// timing.
    pub fn jsonl(
        name: impl Into<String>,
        reader: impl Read + Send + 'static,
        capacity: usize,
    ) -> ChannelSource {
        let (push, mut source) = push_source(name, capacity);
        source.dequeued_ms = None;
        let feed = move || {
            let mut reader = BufReader::with_capacity(JSONL_READ_BUFFER, reader);
            let read = decode_ndjson(&mut reader, |chunk| {
                if let Some(note) = chunk.failure {
                    push.report_failure(note);
                }
                // A file is never shed: wait for room. `false`: the session
                // hung up.
                chunk.events.into_iter().all(|event| push.push(event))
            });
            if let Err(e) = read {
                push.report_failure(format!("stream ended early: read error: {e}"));
            }
            // `push` is the last sender, and the merge reads `failure()`
            // once the stream ends: only now may it go.
            drop(push);
        };
        std::thread::Builder::new()
            .name("saql-jsonl".into())
            .spawn(feed)
            .expect("spawns the JSON-lines reader");
        source
    }
}

/// Read buffer of a [`ChannelSource::jsonl`] reader: large enough that a
/// file fills whole [`DECODE_CHUNK`](crate::ingest::DECODE_CHUNK)-line
/// chunks (the stage also cuts one wherever the buffer drains).
const JSONL_READ_BUFFER: usize = 64 * 1024;

impl EventSource for ChannelSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        if self.ended {
            return SourcePoll::End;
        }
        let start = out.len();
        let Some(seen) = &mut self.dequeued_ms else {
            // A file: wait for `max` events or the end (see `dequeued_ms`).
            self.ended = !self.rx.recv_filling(out, max);
            return if self.ended {
                SourcePoll::End
            } else {
                SourcePoll::Ready
            };
        };
        match self.rx.recv_into(out, max) {
            None => {
                self.ended = true;
                SourcePoll::End
            }
            Some(0) => SourcePoll::Idle,
            Some(_) => {
                let drained = out[start..].iter().map(|e| e.ts.as_millis());
                *seen = drained.fold(*seen, u64::max);
                SourcePoll::Ready
            }
        }
    }

    fn watermark(&self) -> Option<Timestamp> {
        match self.dequeued_ms.unwrap_or(0) {
            0 => None,
            ms => Some(Timestamp::from_millis(ms)),
        }
    }

    fn failure(&self) -> Option<String> {
        self.failure.lock().unwrap().clone()
    }
}

/// A bounded channel source plus its [`PushHandle`]: the push-style entry
/// into a pull-based session (other threads push, the session pump pulls).
pub fn push_source(name: impl Into<String>, capacity: usize) -> (PushHandle, ChannelSource) {
    let (tx, rx) = event_channel(capacity);
    let push = PushHandle {
        tx,
        failure: Arc::new(Mutex::new(None)),
    };
    let source = ChannelSource {
        name: name.into(),
        rx,
        dequeued_ms: Some(0),
        failure: Arc::clone(&push.failure),
        ended: false,
    };
    (push, source)
}

// ---------------------------------------------------------------------
// Event store source
// ---------------------------------------------------------------------

/// Streams a [`StoreReader`] selection in stored order without ever
/// materializing the store. Attached under the default lateness it drops
/// what is later than the bound, as any feed; attached [`FLOOR_GATED`] it
/// is the store sorted by time.
pub struct StoreSource {
    name: String,
    iter: Option<StoreIter>,
    error: Option<StoreError>,
}

impl StoreSource {
    /// Open a streaming source over `reader`.
    pub fn open(
        name: impl Into<String>,
        reader: &StoreReader,
        selection: &Selection,
    ) -> StoreSource {
        StoreSource {
            name: name.into(),
            iter: Some(reader.iter(selection)),
            error: None,
        }
    }

    /// Open a streaming source at a global event offset — the resume path:
    /// replays everything from `offset` (the position an engine checkpoint
    /// recorded) to the end of the store.
    pub fn open_at(
        name: impl Into<String>,
        reader: &StoreReader,
        offset: u64,
    ) -> Result<StoreSource, StoreError> {
        Ok(StoreSource {
            name: name.into(),
            iter: Some(reader.iter_from(offset)?),
            error: None,
        })
    }
}

impl EventSource for StoreSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        let Some(iter) = self.iter.as_mut() else {
            return SourcePoll::End;
        };
        for _ in 0..max {
            match iter.next() {
                Some(Ok(event)) => out.push(Arc::new(event)),
                Some(Err(e)) => {
                    // A corrupt record poisons everything after it; stop at
                    // the last clean event and surface the error.
                    self.error = Some(e);
                    self.iter = None;
                    return SourcePoll::End;
                }
                None => {
                    self.iter = None;
                    return SourcePoll::End;
                }
            }
        }
        SourcePoll::Ready
    }

    /// The store's verified segment floor: on a sorted store the merge
    /// holds at most the segment being read plus one pull batch, not the
    /// whole lateness window.
    fn watermark(&self) -> Option<Timestamp> {
        self.iter.as_ref().and_then(StoreIter::floor)
    }

    fn failure(&self) -> Option<String> {
        self.error
            .as_ref()
            .map(|e| format!("stream ended early: {e}"))
    }
}

/// The lateness of a time-sorted store read: a [`StoreSource`] attached
/// with it drops nothing (the late test saturates) and its own watermark
/// saturates to zero, so the merge releases its events on the store's
/// verified floor alone. The merge then holds one segment plus the span by
/// which the store is out of order, however large the store.
pub const FLOOR_GATED: Lateness = Lateness::Bounded(Duration::from_millis(u64::MAX));

// ---------------------------------------------------------------------
// Pacing
// ---------------------------------------------------------------------

/// Replay pacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Speed {
    /// No pacing: emit as fast as the consumer accepts.
    Unlimited,
    /// Replay respecting original inter-event gaps scaled by `factor`
    /// (2.0 = twice as fast as recorded).
    Compressed { factor: f64 },
}

impl Speed {
    /// `source` at this speed: wrapped in [`Paced`] unless unlimited.
    pub fn pace<'a, S: EventSource + 'a>(self, source: S) -> Box<dyn EventSource + 'a> {
        match self {
            Speed::Unlimited => Box::new(source),
            Speed::Compressed { factor } => Box::new(Paced::new(source, factor)),
        }
    }
}

/// Paces a source to wall time: an event `d` of trace time after the first
/// one is handed on `d / factor` after it, and until an event is due the
/// source is [`Idle`](SourcePoll::Idle). It runs on the polling thread:
/// a session sleeps through idle rounds.
pub struct Paced<S> {
    inner: S,
    factor: f64,
    /// Pulled from `inner`, not yet handed on, in pulled order.
    held: Vec<SharedEvent>,
    /// The earliest event of the batch `held` was filled with.
    held_floor: Timestamp,
    /// Wall time and trace time (ms) of the first event.
    start: Option<(Instant, u64)>,
    ended: bool,
}

impl<S: EventSource> Paced<S> {
    pub fn new(inner: S, factor: f64) -> Self {
        Paced {
            inner,
            factor,
            held: Vec::new(),
            held_floor: Timestamp::ZERO,
            start: None,
            ended: false,
        }
    }
}

impl<S: EventSource> EventSource for Paced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self, out: &mut Vec<SharedEvent>, max: usize) -> SourcePoll {
        if self.held.is_empty() && !self.ended {
            self.ended = self.inner.poll(&mut self.held, max) == SourcePoll::End;
            self.held_floor = self.held.iter().map(|e| e.ts).min().unwrap_or_default();
        }
        let due = self.held.first().map_or(0, |first| {
            let now = || (Instant::now(), first.ts.as_millis());
            let (wall, first_ms) = *self.start.get_or_insert_with(now);
            let horizon = first_ms as f64 + wall.elapsed().as_secs_f64() * 1e3 * self.factor;
            let is_due = |e: &&SharedEvent| e.ts.as_millis() as f64 <= horizon;
            self.held.iter().take(max).take_while(is_due).count()
        });
        out.extend(self.held.drain(..due));
        match (self.held.is_empty() && self.ended, due) {
            (true, _) => SourcePoll::End,
            (false, 0) => SourcePoll::Idle,
            (false, _) => SourcePoll::Ready,
        }
    }

    /// Never past an event still held: the smaller of the inner promise
    /// and the held batch's earliest event.
    fn watermark(&self) -> Option<Timestamp> {
        let inner = self.inner.watermark()?;
        Some(
            self.held
                .first()
                .map_or(inner, |_| inner.min(self.held_floor)),
        )
    }

    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
}

/// Write events as JSON lines — the producing half of the JSONL
/// interchange format that [`ChannelSource::jsonl`] re-ingests (accepts owned
/// or borrowed events, so streaming producers need not clone).
pub fn write_events_jsonl<W: std::io::Write, E: std::borrow::Borrow<saql_model::Event>>(
    writer: &mut W,
    events: impl IntoIterator<Item = E>,
) -> std::io::Result<u64> {
    let mut line = String::with_capacity(192);
    let mut n = 0;
    for event in events {
        line.clear();
        saql_model::json::encode_event_json(&mut line, event.borrow());
        writer.write_all(line.as_bytes())?;
        n += 1;
    }
    writer.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MergeConfig, MergeStatus, WatermarkMerge};
    use saql_model::event::EventBuilder;
    use saql_model::{Event, ProcessInfo};

    fn ev(id: u64, host: &str, ts: u64) -> Event {
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    fn shared(events: Vec<Event>) -> Vec<SharedEvent> {
        events.into_iter().map(Arc::new).collect()
    }

    fn drain(source: &mut dyn EventSource) -> Vec<SharedEvent> {
        let mut out = Vec::new();
        loop {
            match source.poll(&mut out, 3) {
                SourcePoll::End => return out,
                SourcePoll::Ready => {}
                SourcePoll::Idle => std::thread::yield_now(),
            }
        }
    }

    #[test]
    fn iter_source_yields_all_then_ends() {
        let mut s = IterSource::new("it", shared(vec![ev(1, "h", 1), ev(2, "h", 2)]));
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out, 1), SourcePoll::Ready);
        assert_eq!(s.poll(&mut out, 8), SourcePoll::End);
        assert_eq!(out.len(), 2);
        assert_eq!(s.poll(&mut out, 8), SourcePoll::End, "End is sticky");
        assert_eq!(s.name(), "it");
    }

    #[test]
    fn push_source_carries_events_and_watermark() {
        let (push, mut source) = push_source("p", 8);
        let mut out = Vec::new();
        assert_eq!(source.poll(&mut out, 4), SourcePoll::Idle);
        assert!(push.push(Arc::new(ev(1, "h", 250))));
        assert_eq!(source.watermark(), None, "still queued: no promise yet");
        assert_eq!(source.poll(&mut out, 4), SourcePoll::Ready);
        assert_eq!(out.len(), 1);
        assert_eq!(source.watermark(), Some(Timestamp::from_millis(250)));
        assert!(push.push(Arc::new(ev(2, "h", 900))));
        assert_eq!(source.poll(&mut out, 4), SourcePoll::Ready);
        assert_eq!(source.watermark(), Some(Timestamp::from_millis(900)));
        drop(push);
        assert_eq!(source.poll(&mut out, 4), SourcePoll::End);
    }

    #[test]
    fn a_bulk_drain_promises_only_the_max_dequeued_timestamp() {
        let (push, mut source) = push_source("p", 8);
        let mut chunk = [300, 100, 200, 500, 400]
            .into_iter()
            .map(|ts| Arc::new(ev(ts, "h", ts)))
            .collect::<Vec<_>>()
            .into_iter();
        assert!(push.push_fitting(&mut chunk));
        let mut out = Vec::new();
        assert_eq!(source.poll(&mut out, 3), SourcePoll::Ready);
        assert_eq!(out.len(), 3);
        // The max of what was dequeued, not the last dequeued nor anything
        // still queued (500 gates nothing until the merge has pulled it).
        assert_eq!(source.watermark(), Some(Timestamp::from_millis(300)));
        assert_eq!(source.poll(&mut out, 8), SourcePoll::Ready);
        assert_eq!(source.watermark(), Some(Timestamp::from_millis(500)));
        assert_eq!(source.poll(&mut out, 8), SourcePoll::Idle);
    }

    #[test]
    fn jsonl_round_trips_through_writer() {
        let events = vec![ev(1, "h1", 5), ev(2, "h2", 6)];
        let mut buf = Vec::new();
        assert_eq!(write_events_jsonl(&mut buf, &events).unwrap(), 2);
        let mut source = ChannelSource::jsonl("rt", std::io::Cursor::new(buf), 8);
        let back = drain(&mut source);
        assert_eq!(source.failure(), None);
        assert_eq!(back.len(), 2);
        assert_eq!(*back[0], events[0]);
        assert_eq!(*back[1], events[1]);
    }

    #[test]
    fn jsonl_source_reports_skipped_lines_and_promises_no_watermark() {
        // Out of order, with a bad line: all of it arrives as written, and
        // nothing dequeued turns into a watermark promise.
        let mut text = String::new();
        for e in [ev(1, "h", 300), ev(2, "h", 100)] {
            saql_model::json::encode_event_json(&mut text, &e);
        }
        text.push_str("not json\n");
        saql_model::json::encode_event_json(&mut text, &ev(3, "h", 200));
        let mut source = ChannelSource::jsonl("jsonl", std::io::Cursor::new(text), 2);
        let out = drain(&mut source);
        assert_eq!(out.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(source.watermark(), None);
        let failure = source.failure().unwrap();
        assert!(
            failure.starts_with("1 undecodable line(s); first at line 3: invalid JSON"),
            "{failure}"
        );
    }

    #[test]
    fn a_jsonl_read_error_ends_the_stream_early() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("unplugged"))
            }
        }
        let mut source = ChannelSource::jsonl("broken", Broken, 8);
        assert!(drain(&mut source).is_empty());
        assert_eq!(
            source.failure().as_deref(),
            Some("stream ended early: read error: unplugged")
        );
    }

    /// A store of `events` in segments of `per_segment`, the rest in the
    /// WAL tail.
    fn store_with(tag: &str, events: &[Event], per_segment: usize) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("saql-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        crate::durable::StoreWriter::create_segmented_with(&path, per_segment)
            .unwrap()
            .append(events)
            .unwrap();
        path
    }

    fn ids(events: &[SharedEvent]) -> Vec<u64> {
        events.iter().map(|e| e.id).collect()
    }

    /// The stream replayer: a selection of the store, sorted by time.
    fn replayed(path: &std::path::Path, selection: &Selection, speed: Speed) -> Vec<SharedEvent> {
        let reader = StoreReader::open(path).unwrap();
        let source = StoreSource::open("replay", &reader, selection);
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        merge.attach_with(speed.pace(source), FLOOR_GATED);
        merge.collect_remaining()
    }

    #[test]
    fn replay_sorts_by_timestamp() {
        // Stored out of order (hosts interleave), two events a segment:
        // replay must sort across sealed segments.
        let stored = [ev(2, "h2", 200), ev(1, "h1", 100), ev(3, "h1", 300)];
        let path = store_with("sort", &stored, 2);
        let got = replayed(&path, &Selection::all(), Speed::Unlimited);
        assert_eq!(ids(&got), vec![1, 2, 3]);
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn replay_respects_selection() {
        let stored = [ev(1, "h1", 100), ev(2, "h2", 200), ev(3, "h1", 300)];
        let path = store_with("select", &stored, 2);
        let sel =
            Selection::host("h1").between(Timestamp::from_millis(0), Timestamp::from_millis(250));
        assert_eq!(ids(&replayed(&path, &sel, Speed::Unlimited)), vec![1]);
        let none = replayed(&path, &Selection::host("h9"), Speed::Unlimited);
        assert!(none.is_empty(), "an empty selection is an empty stream");
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn unlimited_replay_delivers_all() {
        let events: Vec<Event> = (0..50).map(|i| ev(i, "h", i * 10)).collect();
        let path = store_with("all", &events, 2);
        let got = ids(&replayed(&path, &Selection::all(), Speed::Unlimited));
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn compressed_replay_paces_emission() {
        // 3 events spanning 200ms of trace time at 10x compression ≈ 20ms.
        let events = [ev(1, "h", 0), ev(2, "h", 100), ev(3, "h", 200)];
        let path = store_with("paced", &events, 2);
        let start = Instant::now();
        let got = replayed(&path, &Selection::all(), Speed::Compressed { factor: 10.0 });
        let elapsed = start.elapsed();
        assert_eq!(ids(&got), vec![1, 2, 3]);
        assert!(
            elapsed >= std::time::Duration::from_millis(15),
            "too fast: {elapsed:?}"
        );
        std::fs::remove_dir_all(path).unwrap();
    }

    /// Floor gating holds a sorted store's current segment and one pull
    /// batch, never the store: a source without the floor (the store read
    /// into memory) buffers it all.
    #[test]
    fn a_sorted_store_buffers_one_segment_and_a_pull_batch() {
        const SEGMENT: usize = 64;
        const PULL: usize = 16;
        let events: Vec<Event> = (0..20 * SEGMENT as u64 + 30)
            .map(|i| ev(i, "h", i / 2 * 10))
            .collect();
        let path = store_with("bounded", &events, SEGMENT);
        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.segments().len(), 20);
        let config = MergeConfig {
            pull_batch: PULL,
            ..MergeConfig::default()
        };
        let peak = |source: Box<dyn EventSource>| {
            let mut merge = WatermarkMerge::new(config);
            merge.attach_with(source, FLOOR_GATED);
            let (mut out, mut peak) = (Vec::new(), 0);
            while merge.poll(&mut out, usize::MAX) != MergeStatus::Done {
                peak = peak.max(merge.source_stats()[0].1.buffered);
            }
            assert_eq!(ids(&out), ids(&shared(events.clone())));
            peak
        };
        let store = StoreSource::open("store", &reader, &Selection::all());
        let held = peak(Box::new(store));
        assert!(held <= SEGMENT + PULL, "held {held} events");
        let in_memory = peak(Box::new(IterSource::new("mem", shared(events.clone()))));
        assert!(in_memory > 10 * SEGMENT, "held {in_memory} events");
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn a_shuffled_store_comes_out_stably_sorted_by_time() {
        // Timestamps scattered across 12 segments and the WAL tail, with
        // ties: the output is the stored order stably sorted by time.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let events: Vec<Event> = (0..400)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ev(i, "h", state % 200 * 10)
            })
            .collect();
        let path = store_with("shuffled", &events, 32);
        let reader = StoreReader::open(&path).unwrap();
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        let store = StoreSource::open("store", &reader, &Selection::all());
        merge.attach_with(Box::new(store), FLOOR_GATED);
        let out = merge.collect_remaining();
        let mut expected = events.clone();
        expected.sort_by_key(|e| e.ts);
        assert_eq!(ids(&out), ids(&shared(expected)));
        assert_eq!(merge.source_stats()[0].1.dropped_late, 0);
        std::fs::remove_dir_all(path).unwrap();
    }

    /// Pacing changes when a store's events arrive, never where they land
    /// in a merge with another feed: a paced source promises no watermark
    /// past an event it still holds, even where the store's floor (read
    /// into the next segment) already has.
    #[test]
    fn a_paced_store_merges_like_the_unpaced_one() {
        let stored: Vec<Event> = (0..20).map(|i| ev(i, "h1", i * 10)).collect();
        let other: Vec<Event> = (0..20).map(|i| ev(100 + i, "h2", i * 10 + 5)).collect();
        let path = store_with("paced-merge", &stored, 2);
        let reader = StoreReader::open(&path).unwrap();
        // Pull batches of 3 straddle the 2-event segments.
        let config = MergeConfig {
            pull_batch: 3,
            ..MergeConfig::default()
        };
        let run = |speed: Speed| {
            let store = StoreSource::open("store", &reader, &Selection::all());
            let mut merge = WatermarkMerge::new(config);
            merge.attach_with(speed.pace(store), FLOOR_GATED);
            let feed = IterSource::new("other", shared(other.clone()));
            merge.attach_with(Box::new(feed), Lateness::ArrivalOrder);
            ids(&merge.collect_remaining())
        };
        let unpaced = run(Speed::Unlimited);
        let expected: Vec<u64> = (0..20).flat_map(|i| [i, 100 + i]).collect();
        assert_eq!(unpaced, expected);
        assert_eq!(run(Speed::Compressed { factor: 10.0 }), unpaced);
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn store_source_streams_a_selection() {
        let stored = [ev(1, "h1", 10), ev(2, "h2", 20), ev(3, "h1", 30)];
        let path = store_with("store", &stored, 2);
        let reader = StoreReader::open(&path).unwrap();
        let mut source = StoreSource::open("store", &reader, &Selection::host("h1"));
        let out = drain(&mut source);
        assert_eq!(out.iter().map(|e| e.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(source.failure(), None);
        let mut resumed = StoreSource::open_at("store", &reader, 1).unwrap();
        let rest = drain(&mut resumed);
        assert_eq!(rest.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2, 3]);
        std::fs::remove_dir_all(path).unwrap();
    }
}
