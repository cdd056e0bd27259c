//! Bounded event channels.
//!
//! Producer threads (serve's ingest connections, the JSON-lines reader)
//! publish events; the session pulls them through a
//! [`ChannelSource`](crate::source::ChannelSource). The channel carries
//! `Arc<Event>` — the master–dependent-query scheme depends on every
//! consumer observing the *same allocation*, so cloning a stream item
//! never copies event payloads.

use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};

use crate::SharedEvent;

/// Producer half of an event channel.
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: SyncSender<SharedEvent>,
}

/// Consumer half of an event channel.
#[derive(Debug)]
pub struct EventReceiver {
    rx: Receiver<SharedEvent>,
}

/// Create a bounded event channel with room for `capacity` in-flight events.
///
/// A `capacity` of zero clamps to one: a channel that can never buffer an
/// event is a misconfiguration, not a feature.
pub fn event_channel(capacity: usize) -> (EventSender, EventReceiver) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (EventSender { tx }, EventReceiver { rx })
}

impl EventSender {
    /// Blocking send; returns `false` if all receivers are gone.
    pub fn send(&self, event: SharedEvent) -> bool {
        self.tx.send(event).is_ok()
    }

    /// Non-blocking send of as much of a chunk as fits, in order; what did
    /// not fit stays in `events` for the caller to shed. `false` once all
    /// receivers are gone.
    pub fn send_fitting(&self, events: &mut std::vec::IntoIter<SharedEvent>) -> bool {
        while let Some(event) = events.next() {
            let (refused, open) = match self.tx.try_send(event) {
                Ok(()) => continue,
                Err(TrySendError::Full(event)) => (event, true),
                Err(TrySendError::Disconnected(event)) => (event, false),
            };
            // Back at the head of the tail (offering clones instead costs two
            // refcount updates per event).
            let tail: Vec<SharedEvent> = std::iter::once(refused).chain(events.by_ref()).collect();
            *events = tail.into_iter();
            return open;
        }
        true
    }
}

impl EventReceiver {
    /// Move up to `max` buffered events onto `out` without waiting and
    /// return how many moved (`0` while momentarily empty); `None` once
    /// the stream has ended.
    pub fn recv_into(&self, out: &mut Vec<SharedEvent>, max: usize) -> Option<usize> {
        for n in 0..max {
            match self.rx.try_recv() {
                Ok(event) => out.push(event),
                Err(TryRecvError::Empty) => return Some(n),
                Err(TryRecvError::Disconnected) => return (n > 0).then_some(n),
            }
        }
        Some(max)
    }

    /// Move `max` events onto `out`, waiting for them as needed; `false`
    /// once the stream ended short of `max` (what came is on `out`).
    pub fn recv_filling(&self, out: &mut Vec<SharedEvent>, max: usize) -> bool {
        for _ in 0..max {
            let Ok(event) = self.rx.recv() else {
                return false;
            };
            out.push(event);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    use std::sync::Arc;

    fn ev(id: u64) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, "h", id * 10)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build(),
        )
    }

    #[test]
    fn send_receive_in_order() {
        let (tx, rx) = event_channel(8);
        for i in 0..5 {
            assert!(tx.send(ev(i)));
        }
        drop(tx);
        let mut out = Vec::new();
        assert!(!rx.recv_filling(&mut out, 8), "ends short of 8");
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_instead_of_panicking() {
        let (tx, rx) = event_channel(0);
        let mut chunk = vec![ev(1), ev(2)].into_iter();
        assert!(tx.send_fitting(&mut chunk));
        assert_eq!(chunk.len(), 1, "clamped capacity is exactly 1");
        let mut out = Vec::new();
        assert_eq!(rx.recv_into(&mut out, 8), Some(1));
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn chunks_go_in_whole_or_as_far_as_they_fit() {
        let (tx, rx) = event_channel(3);
        let mut chunk = (1..=5).map(ev).collect::<Vec<_>>().into_iter();
        assert!(tx.send_fitting(&mut chunk));
        assert_eq!(chunk.map(|e| e.id).collect::<Vec<_>>(), vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(rx.recv_into(&mut out, 2), Some(2));
        assert_eq!(rx.recv_into(&mut out, 8), Some(1));
        assert_eq!(rx.recv_into(&mut out, 8), Some(0), "empty, not ended");
        assert!(tx.send_fitting(&mut (6..=8).map(ev).collect::<Vec<_>>().into_iter()));
        drop(tx);
        assert_eq!(rx.recv_into(&mut out, 8), Some(3));
        assert_eq!(rx.recv_into(&mut out, 8), None);
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 6, 7, 8]);
    }

    #[test]
    fn a_filling_receive_waits_for_the_whole_count_or_the_end() {
        let (tx, rx) = event_channel(2);
        let producer = std::thread::spawn(move || (1..=5).all(|id| tx.send(ev(id))));
        let mut out = Vec::new();
        assert!(rx.recv_filling(&mut out, 3));
        assert!(!rx.recv_filling(&mut out, 3), "short only at the end");
        assert!(producer.join().unwrap());
        let ids: Vec<u64> = out.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn chunk_sends_report_a_closed_channel() {
        let (tx, rx) = event_channel(1);
        drop(rx);
        let mut chunk = vec![ev(3)].into_iter();
        assert!(!tx.send_fitting(&mut chunk));
        assert_eq!(chunk.len(), 1, "nothing was taken");
    }

    #[test]
    fn the_stream_ends_after_all_senders_drop() {
        let (tx, rx) = event_channel(4);
        let tx2 = tx.clone();
        tx.send(ev(1));
        drop(tx);
        drop(tx2);
        let mut out = Vec::new();
        assert!(rx.recv_filling(&mut out, 1));
        assert_eq!(out[0].id, 1);
        assert!(!rx.recv_filling(&mut out, 1));
        assert_eq!(rx.recv_into(&mut out, 1), None);
    }

    /// 4 producers mixing chunk and single sends into a channel of
    /// capacity 1 and 3, one consumer mixing every receive: each event
    /// arrives exactly once, each producer's in order, and nothing hangs.
    #[test]
    fn mixed_chunk_and_single_ops_deliver_exactly_once_under_contention() {
        const PER_PRODUCER: u64 = 5_000;
        for capacity in [1, 3] {
            let (tx, rx) = event_channel(capacity);
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let (mut next, end) = (p * PER_PRODUCER, (p + 1) * PER_PRODUCER);
                        for round in 0.. {
                            if next == end {
                                break;
                            }
                            if round % 2 == 0 {
                                assert!(tx.send(ev(next)));
                                next += 1;
                                continue;
                            }
                            // A chunk send; on a full channel, block for the
                            // next event (the serve ingest protocol).
                            let n = (1 + round % 7).min(end - next);
                            let mut chunk: std::vec::IntoIter<SharedEvent> =
                                (next..next + n).map(ev).collect::<Vec<_>>().into_iter();
                            assert!(tx.send_fitting(&mut chunk));
                            if let Some(head) = chunk.next() {
                                assert!(tx.send(head));
                            }
                            next += n - chunk.len() as u64;
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut got = Vec::new();
            for round in 0usize.. {
                let ended = match round % 2 {
                    0 => rx.recv_into(&mut got, 1 + round % 5).is_none(),
                    _ => !rx.recv_filling(&mut got, 1 + round % 4),
                };
                if ended {
                    break;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            let ids: Vec<u64> = got.iter().map(|e| e.id).collect();
            for p in 0..4 {
                let mine: Vec<u64> = ids
                    .iter()
                    .copied()
                    .filter(|id| id / PER_PRODUCER == p)
                    .collect();
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "producer {p} order");
            }
            let mut all = ids;
            all.sort_unstable();
            assert!(
                all.into_iter().eq(0..4 * PER_PRODUCER),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn cross_thread_transfer_shares_allocation() {
        let (tx, rx) = event_channel(4);
        let event = ev(9);
        let clone = event.clone();
        std::thread::spawn(move || tx.send(event)).join().unwrap();
        let mut got = Vec::new();
        assert_eq!(rx.recv_into(&mut got, 1), Some(1));
        assert!(Arc::ptr_eq(&got[0], &clone));
    }
}
