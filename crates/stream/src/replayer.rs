//! The stream replayer (paper Fig. 4).
//!
//! Replays stored monitoring data as a live stream so the demo can re-create
//! the attack data for different queries. The replayer selects hosts and a
//! start/end time (the web UI's knobs, here a [`Selection`]) and replays at a
//! configurable [`Speed`]: unlimited (benchmarks), real-time, or
//! time-compressed.

use std::thread;
use std::time::{Duration as WallDuration, Instant};

use saql_model::Event;

use crate::channel::{event_channel, EventReceiver};
use crate::durable::StoreReader;
use crate::store::{Selection, StoreError};
use crate::SharedEvent;

/// Replay pacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Speed {
    /// No pacing: emit as fast as the consumer accepts.
    Unlimited,
    /// Replay respecting original inter-event gaps scaled by `factor`
    /// (2.0 = twice as fast as recorded).
    Compressed { factor: f64 },
}

/// Replays events from a store as a stream.
#[derive(Debug)]
pub struct Replayer {
    reader: StoreReader,
}

impl Replayer {
    pub fn new(reader: StoreReader) -> Self {
        Replayer { reader }
    }

    /// Open a store path and wrap it in a replayer (the common one-liner).
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        Ok(Replayer::new(StoreReader::open(path)?))
    }

    /// Load the selected events, sorted by timestamp (stored order may
    /// interleave hosts arbitrarily).
    ///
    /// Equal-timestamp events sort by host, then by stored order — a total,
    /// content-determined order. (The old `(ts, id)` key interleaved hosts
    /// whenever per-agent id sequences collided at the same timestamp, so
    /// two replays of stores written in different append orders could
    /// disagree; serial/parallel equivalence tests depend on replay order
    /// being a pure function of the data.)
    pub fn load(&self, selection: &Selection) -> Result<Vec<Event>, StoreError> {
        let mut events: Vec<Event> = Vec::new();
        for event in self.reader.iter(selection)? {
            events.push(event?);
        }
        // Stable sort: stored position is the final tie-break.
        events.sort_by(|a, b| (a.ts, &*a.agent_id).cmp(&(b.ts, &*b.agent_id)));
        Ok(events)
    }

    /// Replay synchronously into an iterator (unlimited speed). The cheap
    /// path for tests and benchmarks.
    pub fn replay_iter(
        &self,
        selection: &Selection,
    ) -> Result<impl Iterator<Item = SharedEvent>, StoreError> {
        Ok(self.load(selection)?.into_iter().map(std::sync::Arc::new))
    }

    /// Replay on a background thread into a bounded channel, pacing emission
    /// according to `speed`. Returns the consuming end immediately.
    pub fn replay_channel(
        &self,
        selection: &Selection,
        speed: Speed,
        capacity: usize,
    ) -> Result<EventReceiver, StoreError> {
        let events = self.load(selection)?;
        let (tx, rx) = event_channel(capacity);
        thread::spawn(move || {
            let start_wall = Instant::now();
            let start_ts = events.first().map(|e| e.ts.as_millis()).unwrap_or(0);
            for event in events {
                if let Speed::Compressed { factor } = speed {
                    let elapsed_trace = (event.ts.as_millis() - start_ts) as f64 / factor;
                    let due = WallDuration::from_millis(elapsed_trace as u64);
                    let elapsed_wall = start_wall.elapsed();
                    if due > elapsed_wall {
                        thread::sleep(due - elapsed_wall);
                    }
                }
                if !tx.send(std::sync::Arc::new(event)) {
                    return; // consumer hung up
                }
            }
        });
        Ok(rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::StoreWriter;
    use saql_model::event::EventBuilder;
    use saql_model::{ProcessInfo, Timestamp};
    use std::path::PathBuf;

    fn ev(id: u64, host: &str, ts: u64) -> Event {
        EventBuilder::new(id, host, ts)
            .subject(ProcessInfo::new(1, "a.exe", "u"))
            .starts_process(ProcessInfo::new(2, "b.exe", "u"))
            .build()
    }

    fn store_with(name: &str, events: &[Event]) -> (StoreWriter, PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("saql-replayer-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        // Two events per segment: every test reads across sealed segments.
        let mut store = StoreWriter::create_segmented_with(&p, 2).unwrap();
        store.append(events).unwrap();
        (store, p)
    }

    #[test]
    fn replay_sorts_by_timestamp() {
        // Stored out of order (hosts interleave); replay must sort.
        let (_store, path) = store_with(
            "sort",
            &[ev(2, "h2", 200), ev(1, "h1", 100), ev(3, "h1", 300)],
        );
        let r = Replayer::open(&path).unwrap();
        let ids: Vec<u64> = r
            .replay_iter(&Selection::all())
            .unwrap()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn replay_respects_selection() {
        let (_store, path) = store_with(
            "select",
            &[ev(1, "h1", 100), ev(2, "h2", 200), ev(3, "h1", 300)],
        );
        let r = Replayer::open(&path).unwrap();
        let sel =
            Selection::host("h1").between(Timestamp::from_millis(0), Timestamp::from_millis(250));
        let ids: Vec<u64> = r.replay_iter(&sel).unwrap().map(|e| e.id).collect();
        assert_eq!(ids, vec![1]);
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn channel_replay_unlimited_delivers_all() {
        let events: Vec<Event> = (0..50).map(|i| ev(i, "h", i * 10)).collect();
        let (_store, path) = store_with("chan", &events);
        let r = Replayer::open(&path).unwrap();
        let rx = r
            .replay_channel(&Selection::all(), Speed::Unlimited, 16)
            .unwrap();
        let got: Vec<u64> = rx.into_iter().map(|e| e.id).collect();
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn compressed_replay_paces_emission() {
        // 3 events spanning 200ms of trace time at 10x compression ≈ 20ms.
        let events = vec![ev(1, "h", 0), ev(2, "h", 100), ev(3, "h", 200)];
        let (_store, path) = store_with("paced", &events);
        let r = Replayer::open(&path).unwrap();
        let start = Instant::now();
        let rx = r
            .replay_channel(&Selection::all(), Speed::Compressed { factor: 10.0 }, 4)
            .unwrap();
        let n = rx.into_iter().count();
        let elapsed = start.elapsed();
        assert_eq!(n, 3);
        assert!(
            elapsed >= WallDuration::from_millis(15),
            "too fast: {elapsed:?}"
        );
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn equal_timestamp_replay_order_is_host_stable() {
        // Two agents whose id sequences collide at the same timestamp: the
        // old (ts, id) sort interleaved hosts (h2's id 1 before h1's id 2).
        // Replay order must group by host and, crucially, not depend on the
        // order the agents' batches were appended.
        let batch_h1 = [ev(2, "h1", 100), ev(4, "h1", 100)];
        let batch_h2 = [ev(1, "h2", 100), ev(3, "h2", 100)];
        let key = |events: &[SharedEvent]| -> Vec<(String, u64)> {
            events
                .iter()
                .map(|e| (e.agent_id.to_string(), e.id))
                .collect()
        };
        let (mut store_a, path_a) = store_with("hoststable-a", &batch_h1);
        store_a.append(&batch_h2).unwrap();
        let a: Vec<SharedEvent> = Replayer::open(&path_a)
            .unwrap()
            .replay_iter(&Selection::all())
            .unwrap()
            .collect();
        let (mut store_b, path_b) = store_with("hoststable-b", &batch_h2);
        store_b.append(&batch_h1).unwrap();
        let b: Vec<SharedEvent> = Replayer::open(&path_b)
            .unwrap()
            .replay_iter(&Selection::all())
            .unwrap()
            .collect();
        let expected = vec![
            ("h1".to_string(), 2),
            ("h1".to_string(), 4),
            ("h2".to_string(), 1),
            ("h2".to_string(), 3),
        ];
        assert_eq!(key(&a), expected, "hosts grouped, per-host order kept");
        assert_eq!(key(&a), key(&b), "replay order independent of append order");
        std::fs::remove_dir_all(path_a).unwrap();
        std::fs::remove_dir_all(path_b).unwrap();
    }

    #[test]
    fn empty_selection_yields_empty_stream() {
        let (_store, path) = store_with("none", &[ev(1, "h1", 100)]);
        let r = Replayer::open(&path).unwrap();
        let rx = r
            .replay_channel(&Selection::host("h9"), Speed::Unlimited, 4)
            .unwrap();
        assert_eq!(rx.into_iter().count(), 0);
        std::fs::remove_dir_all(path).unwrap();
    }
}
